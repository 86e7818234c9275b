//! Social-network monitoring: several persistent RPQs over one
//! LDBC-like update stream, evaluated by the multi-query engine.
//!
//! Demonstrates the usage pattern the paper's introduction motivates —
//! a notification service keeps standing navigational queries
//! (friend-of-friend reach, reply threads, friends' content) evaluated
//! incrementally while the interaction stream flows — using
//! [`MultiQueryEngine`] (§7 future work): one shared window graph,
//! label-routed dispatch, per-query Δ indexes, and mid-stream
//! registration with backfill (which only reads the shared graph).
//!
//! Run with: `cargo run --release -p srpq_harness --example social_network`

use srpq_automata::CompiledQuery;
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine};
use srpq_core::PathSemantics;
use srpq_datagen::ldbc;
use srpq_graph::WindowPolicy;
use std::time::Instant;

fn main() {
    // A 20k-event LDBC-like stream (~35k tuples).
    let ds = ldbc::generate(&ldbc::LdbcConfig {
        n_events: 20_000,
        seed_persons: 400,
        duration: 100_000,
        seed: 7,
    });
    let span = ds.time_span().expect("non-empty stream");
    let window = WindowPolicy::new((span.1 - span.0) / 10, (span.1 - span.0) / 100);
    println!(
        "stream: {} tuples over [{}, {}], window |W|={} slide β={}",
        ds.len(),
        span.0,
        span.1,
        window.window_size,
        window.slide
    );

    // Three standing queries sharing one window graph.
    let mut multi = MultiQueryEngine::new(window);
    let queries = [
        ("reachable-friends", "knows+"),
        ("thread-ancestors", "replyOf+"),
        ("friends-content", "knows+ likes"),
    ];
    let mut ids = Vec::new();
    for &(name, expr) in &queries {
        let mut labels = ds.labels.clone();
        let query = CompiledQuery::compile(expr, &mut labels).unwrap();
        ids.push((
            name,
            multi
                .register(name, query, PathSemantics::Arbitrary)
                .expect("unique query names"),
        ));
    }

    let mut sink = MultiCollectSink::default();
    let started = Instant::now();
    let half = ds.len() / 2;
    for &t in &ds.tuples[..half] {
        multi.process(t, &mut sink);
    }

    // A fourth query arrives mid-stream and is backfilled from the
    // shared window — it immediately reports over live content.
    let mut labels = ds.labels.clone();
    let late = CompiledQuery::compile("replyOf* hasCreator", &mut labels).unwrap();
    let late_id = multi
        .register_backfilled("thread-authors", late, PathSemantics::Arbitrary, &mut sink)
        .expect("unique query names");
    ids.push(("thread-authors", late_id));

    for &t in &ds.tuples[half..] {
        multi.process(t, &mut sink);
    }
    let elapsed = started.elapsed();

    let (seen, routed) = multi.routing_stats();
    println!(
        "\nprocessed {} tuples in {:.2?} ({:.0} tuples/s); routing: {} dispatches \
         instead of {} (label routing saved {:.0}%)",
        seen,
        elapsed,
        seen as f64 / elapsed.as_secs_f64(),
        routed,
        seen * multi.n_queries() as u64,
        100.0 * (1.0 - routed as f64 / (seen * multi.n_queries() as u64) as f64),
    );
    println!(
        "shared window graph: {} edges, {} vertices",
        multi.graph().n_edges(),
        multi.graph().n_vertices()
    );
    println!("\nquery               results   delta-trees  delta-nodes");
    for &(name, id) in &ids {
        let results = sink.emitted.iter().filter(|&&(i, ..)| i == id).count();
        let size = multi.index_size(id).unwrap();
        println!(
            "{name:<19} {results:>8}   {:>10}  {:>10}",
            size.trees, size.nodes
        );
    }
}
