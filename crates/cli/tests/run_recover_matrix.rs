//! `srpq run` / `srpq recover` across worker counts, through the real
//! binary: a durable directory's recoverability must not depend on the
//! `--workers` it was written or is recovered under, and the stitched
//! stdout of a `--checkpoint full` run must be the uninterrupted run's
//! — the same lines, compared sorted as the CI recovery smoke does.
//! Also: a verb refuses an option it does not read.

use srpq_automata::CompiledQuery;
use srpq_common::LabelInterner;
use srpq_core::{MultiQueryEngine, PathSemantics};
use srpq_graph::WindowPolicy;
use srpq_persist::{DurabilityConfig, Durable};
use std::path::Path;
use std::process::{Command, Output};

fn srpq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srpq"))
        .args(args)
        .output()
        .expect("spawn srpq")
}

/// Runs to success; returns the stdout lines.
fn ok(args: &[&str]) -> Vec<String> {
    let out = srpq(args);
    assert!(
        out.status.success(),
        "srpq {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn any_worker_count_recovers_any_other() {
    let dir = std::env::temp_dir().join(format!("srpq-cli-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let stream = path("s.srpq");
    ok(&[
        "gen",
        "--dataset",
        "so",
        "--out",
        &stream,
        "--edges",
        "1200",
        "--seed",
        "11",
    ]);
    let common = [
        "--stream",
        stream.as_str(),
        "--batch",
        "64",
        "--print-results",
    ];
    let run = ["run", "--query", "a2q c2a*"];
    let mut reference = ok(&[&run[..], &common[..]].concat());
    assert!(!reference.is_empty(), "fixture produces no results");
    reference.sort_unstable();

    for written in ["0", "2"] {
        for recovered in ["0", "2"] {
            let wal = path(&format!("wal-{written}-{recovered}"));
            let durable = [
                "--wal-dir",
                wal.as_str(),
                "--checkpoint-every",
                "2",
                "--checkpoint",
                "full",
            ];
            let mut stitched = ok(&[
                &run[..],
                &common[..],
                &durable[..],
                &["--workers", written, "--limit", "700"],
            ]
            .concat());
            stitched.extend(ok(&[
                &["recover", "--wal-dir", wal.as_str()],
                &common[..],
                &["--workers", recovered],
            ]
            .concat()));
            stitched.sort_unstable();
            assert!(
                stitched == reference,
                "written at --workers {written}, recovered at --workers {recovered}: \
                 stdout differs from the uninterrupted run"
            );
        }
    }

    // A multi-query directory — what `serve` writes — is not something
    // the untagged offline `recover` may silently merge.
    let served = path("wal-served");
    let mut labels = LabelInterner::new();
    let mut multi = MultiQueryEngine::new(WindowPolicy::new(1_000, 100));
    for (name, expr) in [("one", "a2q c2a*"), ("two", "c2a+")] {
        let query = CompiledQuery::compile(expr, &mut labels).unwrap();
        multi
            .register(name, query, PathSemantics::Arbitrary)
            .unwrap();
    }
    drop(Durable::create(multi, Path::new(&served), DurabilityConfig::default()).unwrap());
    let refused = srpq(&["recover", "--wal-dir", &served, "--stream", &stream]);
    assert!(!refused.status.success());
    let stderr = String::from_utf8_lossy(&refused.stderr);
    assert!(
        stderr.contains("recovered state holds 2 live queries")
            && stderr.contains("serve --workers N"),
        "unexpected refusal: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verbs_refuse_options_they_do_not_read() {
    for (args, option) in [
        (&["run", "--refresh", "subtree"][..], "--refresh"),
        (&["serve", "--window", "10", "--slid", "5"][..], "--slid"),
        (&["recover", "--wal-dir", "w", "--resume"][..], "--resume"),
    ] {
        let out = srpq(args);
        assert!(!out.status.success(), "srpq {args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("{} does not take {option}", args[0])),
            "srpq {args:?}: unexpected error {stderr}"
        );
    }
}
