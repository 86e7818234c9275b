//! Figure 9: throughput vs Δ tree-index size for synthetic RPQs with
//! k = 5 states.
//!
//! Paper shape: a clear negative correlation — the index size (number
//! of partial results maintained) is what determines throughput, not
//! the automaton size.

use srpq_bench::{compile_query, gmark_fixture, make_engine, run_engine, scale_from_args};
use srpq_core::engine::PathSemantics;
use srpq_graph::WindowPolicy;
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    // Generate a larger pool and keep queries whose minimal DFA has
    // exactly 5 states, as the paper does.
    let (ds, queries) = gmark_fixture((2.0 * scale).ceil() as u32, 400);
    let span = ds.time_span().map(|(a, b)| b - a).unwrap_or(1).max(1);
    let window = WindowPolicy::new((span / 4).max(4), (span / 40).max(1));
    println!("# Figure 9: throughput vs Δ size for k=5 gMark RPQs (scale {scale})");
    println!("peak_nodes,throughput_eps,completed,expr");
    let mut kept = 0;
    for q in &queries {
        if compile_query(&q.expr, &ds.labels).k() != 5 {
            continue;
        }
        kept += 1;
        if kept > 60 {
            break;
        }
        let mut engine = make_engine(&q.expr, &ds, window, PathSemantics::Arbitrary);
        let r = run_engine(&mut engine, &ds.tuples, Duration::from_secs(20));
        println!(
            "{},{:.0},{},\"{}\"",
            r.peak_nodes,
            r.throughput(),
            r.completed,
            q.expr
        );
    }
    eprintln!("# {kept} queries with k=5");
}
