//! Figure 4: throughput and tail latency of Algorithm RAPQ for all
//! queries on all three dataset families, plus the gMark smoke workload
//! that anchors the perf trajectory, in both ingestion modes.
//!
//! Paper shape: LDBC fastest (tens of thousands edges/s), Yago next,
//! SO slowest (hundreds of edges/s for the heavy queries); Q11 fastest
//! everywhere; Q3/Q6 slowest on SO.
//!
//! Each (dataset, query) runs twice: `single` drives the engine one
//! tuple at a time; `batched` drives it through
//! [`srpq_core::MultiQueryEngine::process_batch`] in 256-tuple chunks
//! (same result stream, amortized window maintenance). Pass
//! `--json FILE` to additionally write the rows as a JSON array (the CI
//! perf artifact).

use srpq_bench::{
    build_dataset, default_window, gmark_fixture, json_path_from_args, jsonout, make_engine,
    run_engine, run_engine_batched, scale_from_args, RunReport,
};
use srpq_core::engine::PathSemantics;
use srpq_datagen::{queries_for, Dataset, DatasetKind};
use srpq_graph::WindowPolicy;
use std::time::Duration;

const BATCH_SIZE: usize = 256;

struct Ctx {
    rows: Vec<String>,
}

impl Ctx {
    fn report(&mut self, dataset: &str, query: &str, mode: &str, r: &RunReport) {
        println!(
            "{dataset},{query},{mode},{},{:.0},{:.1},{:.1},{},{}",
            r.tuples_relevant,
            r.throughput(),
            r.mean_us(),
            r.p99_us(),
            r.results,
            r.completed
        );
        self.rows.push(jsonout::obj(&[
            ("dataset", jsonout::Val::S(dataset.to_string())),
            ("query", jsonout::Val::S(query.to_string())),
            ("mode", jsonout::Val::S(mode.to_string())),
            ("relevant_tuples", jsonout::Val::U(r.tuples_relevant)),
            ("throughput_eps", jsonout::Val::F(r.throughput())),
            ("mean_us", jsonout::Val::F(r.mean_us())),
            ("p99_us", jsonout::Val::F(r.p99_us())),
            ("results", jsonout::Val::U(r.results)),
            ("completed", jsonout::Val::B(r.completed)),
        ]));
    }

    fn run_both(&mut self, dataset: &str, query: &str, expr: &str, ds: &Dataset, w: WindowPolicy) {
        let budget = Duration::from_secs(120);
        let mut engine = make_engine(expr, ds, w, PathSemantics::Arbitrary);
        let r = run_engine(&mut engine, &ds.tuples, budget);
        self.report(dataset, query, "single", &r);
        let mut engine = make_engine(expr, ds, w, PathSemantics::Arbitrary);
        let r = run_engine_batched(&mut engine, &ds.tuples, BATCH_SIZE, budget);
        self.report(dataset, query, "batched", &r);
    }
}

fn main() {
    let scale = scale_from_args();
    let mut ctx = Ctx { rows: Vec::new() };
    println!("# Figure 4: RAPQ throughput & p99 latency (scale {scale}, batch {BATCH_SIZE})");
    println!("dataset,query,mode,relevant_tuples,throughput_eps,mean_us,p99_us,results,completed");
    for (kind, name) in [
        (DatasetKind::Yago, "yago"),
        (DatasetKind::Ldbc, "ldbc"),
        (DatasetKind::So, "so"),
    ] {
        let ds = build_dataset(kind, scale);
        let window = default_window(kind, &ds);
        for (qname, expr) in queries_for(kind) {
            ctx.run_both(name, qname, &expr, &ds, window);
        }
    }
    // gMark smoke workload: a fixed handful of synthetic queries on the
    // ldbc-like gMark graph, the single-thread perf-trajectory anchor.
    let (ds, queries) = gmark_fixture(1, 8);
    let span = ds.time_span().map(|(a, b)| b - a).unwrap_or(1).max(1);
    let window = WindowPolicy::new((span / 4).max(4), (span / 40).max(1));
    for (qi, q) in queries.iter().enumerate() {
        ctx.run_both("gmark", &format!("g{qi}"), &q.expr, &ds, window);
    }
    if let Some(path) = json_path_from_args() {
        jsonout::write_array(&path, &ctx.rows).expect("write JSON report");
        eprintln!("wrote {}", path.display());
    }
}
