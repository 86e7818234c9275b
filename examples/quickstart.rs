//! Quickstart: the running example of the paper (Figure 1).
//!
//! Registers Q1 = `(follows mentions)+` over a 15-time-unit sliding
//! window, replays the social-network stream of Figure 1(a), and prints
//! every result pair as it is discovered. A lone query runs the way
//! every host runs it: registered on a `MultiQueryEngine`, into a sink
//! that ignores the query tag on its results.
//!
//! Run with: `cargo run -p srpq_harness --example quickstart`

use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, StreamTuple, Timestamp, VertexInterner};
use srpq_core::multi::MultiQueryEngine;
use srpq_core::sink::CollectSink;
use srpq_core::PathSemantics;
use srpq_graph::WindowPolicy;

fn main() {
    // 1. Vocabulary: intern labels and vertices.
    let mut labels = LabelInterner::new();
    let mut verts = VertexInterner::new();
    let follows = labels.intern("follows");
    let mentions = labels.intern("mentions");

    // 2. Register the persistent query: users connected by an
    //    even-length path of alternating follows/mentions edges, over a
    //    sliding window of 15 time units sliding every time unit.
    let q1 = CompiledQuery::compile("(follows mentions)+", &mut labels).expect("valid query");
    println!(
        "registered Q1 = (follows mentions)+  — minimal DFA has {} states",
        q1.k()
    );
    let mut engine = MultiQueryEngine::new(WindowPolicy::new(15, 1));
    let id = engine
        .register("Q1", q1, PathSemantics::Arbitrary)
        .expect("first registration");

    // 3. The Figure 1(a) stream.
    let stream = [
        (4, "y", "u", mentions),
        (6, "x", "z", follows),
        (9, "u", "v", follows),
        (11, "z", "w", mentions),
        (13, "x", "y", follows),
        (14, "z", "u", mentions),
        (15, "u", "x", mentions),
        (18, "v", "y", mentions),
        (19, "w", "u", follows),
    ];

    // 4. Feed it, printing results as they appear (the append-only
    //    result stream of the implicit window model).
    for (ts, src, dst, label) in stream {
        let tuple = StreamTuple::insert(Timestamp(ts), verts.intern(src), verts.intern(dst), label);
        print!(
            "t={ts:>2}  {src} -{}-> {dst}",
            if label == follows {
                "follows"
            } else {
                "mentions"
            }
        );
        let mut found = CollectSink::default();
        engine.process(tuple, &mut found);
        if found.emitted().is_empty() {
            println!();
        } else {
            for &(pair, at) in found.emitted() {
                // Resolve ids back to names for display.
                let s = verts.resolve(pair.src).unwrap_or("?");
                let d = verts.resolve(pair.dst).unwrap_or("?");
                println!("   => result ({s}, {d}) at t={at}");
            }
        }
    }

    let q1 = engine.engine(id).expect("registered");
    println!(
        "\nfinal state: {} results, Δ index: {:?}, {} tuples processed",
        q1.result_count(),
        q1.index_size(),
        q1.stats().tuples_processed
    );
}
