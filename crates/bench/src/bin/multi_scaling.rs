//! Inter-query parallel evaluation scaling: aggregate tuples/s vs
//! worker count × registered-query count on the gMark workload.
//!
//! Each grid point drives the same tuple stream through a
//! `MultiQueryEngine` at that worker count with the first `n_queries`
//! gMark smoke queries registered, batched ingestion, results discarded
//! (the engine is the bottleneck under measurement, not a sink).
//! `workers = 0` rows evaluate on the calling thread; `speedup` is
//! relative to 1 worker (which isolates coordination overhead:
//! 0-vs-1 workers is the hand-off tax, 1-vs-N is scaling).
//!
//! ```text
//! cargo run --release -p srpq_bench --bin multi_scaling [scale] [--json OUT]
//! ```
//!
//! Emits `BENCH_multi_scaling.json` with `--json` (CI uploads it as an
//! artifact; the README scaling table comes from a full-scale run).

use srpq_bench::{compile_query, gmark_fixture, jsonout, print_csv, scale_from_args};
use srpq_core::multi::{MultiQueryEngine, NullMultiSink};
use srpq_core::PathSemantics;
use srpq_graph::WindowPolicy;
use std::fmt;
use std::time::Instant;

const BATCH: usize = 256;

struct Row {
    queries: usize,
    workers: usize, // 0 = the calling thread
    tuples: u64,
    tps: f64,
    speedup_vs_1: f64,
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},{},{},{:.0},{:.2}",
            self.queries, self.workers, self.tuples, self.tps, self.speedup_vs_1
        )
    }
}

fn main() {
    let scale = scale_from_args();
    let (ds, queries) = gmark_fixture(1, 16);
    let keep = ((ds.len() as f64 * scale.min(1.0)) as usize).max(2_000);
    let tuples = &ds.tuples[..keep.min(ds.len())];
    let span = match (tuples.first(), tuples.last()) {
        (Some(a), Some(b)) => (b.ts.0 - a.ts.0).max(1),
        _ => 1,
    };
    let window = WindowPolicy::new((span / 4).max(4), (span / 40).max(1));

    println!(
        "# Inter-query parallel scaling: {} tuples, window {window:?}, batch {BATCH}",
        tuples.len()
    );
    let mut rows: Vec<Row> = Vec::new();
    for &nq in &[4usize, 8, 16] {
        let exprs: Vec<String> = queries[..nq].iter().map(|q| q.expr.clone()).collect();

        let measure = |workers: usize| {
            let mut engine = MultiQueryEngine::new(window);
            engine.set_workers(workers);
            for (i, e) in exprs.iter().enumerate() {
                engine
                    .register(
                        format!("g{i}"),
                        compile_query(e, &ds.labels),
                        PathSemantics::Arbitrary,
                    )
                    .unwrap();
            }
            let t0 = Instant::now();
            for chunk in tuples.chunks(BATCH) {
                engine.process_batch(chunk, &mut NullMultiSink);
            }
            tuples.len() as f64 / t0.elapsed().as_secs_f64()
        };
        let seq_tps = measure(0);

        let mut one_worker_tps = f64::NAN;
        for &workers in &[1usize, 2, 4, 8] {
            let tps = measure(workers);
            if workers == 1 {
                one_worker_tps = tps;
            }
            rows.push(Row {
                queries: nq,
                workers,
                tuples: tuples.len() as u64,
                tps,
                speedup_vs_1: tps / one_worker_tps,
            });
        }
        rows.push(Row {
            queries: nq,
            workers: 0,
            tuples: tuples.len() as u64,
            tps: seq_tps,
            speedup_vs_1: seq_tps / one_worker_tps,
        });
    }
    print_csv(
        "queries,workers,tuples,tuples_per_s,speedup_vs_1worker",
        &rows,
    );
    if let Some(path) = srpq_bench::json_path_from_args() {
        let objs: Vec<String> = rows
            .iter()
            .map(|r| {
                jsonout::obj(&[
                    ("bench", jsonout::Val::S("multi_scaling".into())),
                    ("queries", jsonout::Val::U(r.queries as u64)),
                    ("workers", jsonout::Val::U(r.workers as u64)),
                    ("tuples", jsonout::Val::U(r.tuples)),
                    ("tuples_per_s", jsonout::Val::F(r.tps)),
                    ("speedup_vs_1worker", jsonout::Val::F(r.speedup_vs_1)),
                ])
            })
            .collect();
        jsonout::write_array(&path, &objs).expect("write json artifact");
        eprintln!("wrote {}", path.display());
    }
}
