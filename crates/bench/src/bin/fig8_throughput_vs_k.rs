//! Figure 8: RAPQ throughput vs the number of DFA states k for the
//! synthetic gMark workload.
//!
//! Paper shape: no strong dependence of throughput on k; queries with
//! identical k differ by up to ~6× (explained by Δ index size — see
//! Figure 9).

use srpq_bench::{compile_query, gmark_fixture, make_engine, run_engine, scale_from_args};
use srpq_core::engine::PathSemantics;
use srpq_graph::WindowPolicy;
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    let (ds, queries) = gmark_fixture((2.0 * scale).ceil() as u32, 100);
    let span = ds.time_span().map(|(a, b)| b - a).unwrap_or(1).max(1);
    let window = WindowPolicy::new((span / 4).max(4), (span / 40).max(1));
    println!("# Figure 8: throughput vs k on the gMark graph (scale {scale})");
    println!("k,query_size,throughput_eps,peak_nodes,completed,expr");
    for q in &queries {
        let k = compile_query(&q.expr, &ds.labels).k();
        let mut engine = make_engine(&q.expr, &ds, window, PathSemantics::Arbitrary);
        let r = run_engine(&mut engine, &ds.tuples, Duration::from_secs(20));
        println!(
            "{k},{},{:.0},{},{},\"{}\"",
            q.size,
            r.throughput(),
            r.peak_nodes,
            r.completed,
            q.expr
        );
    }
}
