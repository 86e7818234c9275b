//! The `SRPQ2` stream-file format pinned by bytes, through the real
//! binary: `srpq gen` must reproduce the committed file (written by the
//! commit *before* the codecs moved onto `srpq_common::wire`), and
//! reading the committed file must describe the same stream.

use std::path::PathBuf;
use std::process::Command;

fn data(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

fn srpq(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_srpq"))
        .args(args)
        .output()
        .expect("spawn srpq");
    assert!(
        out.status.success(),
        "srpq {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn gen_reproduces_and_info_reads_the_golden_stream_file() {
    let golden = data("so-40-seed3.srpq");
    let out = std::env::temp_dir().join(format!("srpq-golden-{}.srpq", std::process::id()));
    let out_str = out.to_str().unwrap();
    srpq(&[
        "gen",
        "--dataset",
        "so",
        "--edges",
        "40",
        "--seed",
        "3",
        "--out",
        out_str,
    ]);
    assert!(
        std::fs::read(&out).unwrap() == std::fs::read(&golden).unwrap(),
        "srpq gen drifted from the golden stream file"
    );
    std::fs::remove_file(&out).ok();

    // Everything `info` prints below the path line: tuple, deletion and
    // label counts, timespan, per-label tallies.
    let info = srpq(&["info", "--stream", golden.to_str().unwrap()]);
    let body: String = info.lines().skip(1).map(|l| format!("{l}\n")).collect();
    assert_eq!(
        body,
        std::fs::read_to_string(data("so-40-seed3.info")).unwrap()
    );
}
