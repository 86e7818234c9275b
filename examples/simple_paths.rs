//! Arbitrary vs simple path semantics, side by side (§4, Example 4.2).
//!
//! Replays the Figure 1 stream under both semantics and shows where
//! they diverge: the pair (x, y) is reported under arbitrary semantics
//! through the non-simple path x→y→u→v→y as soon as (v → y) arrives,
//! while simple path semantics needs the conflict machinery to discover
//! the simple witness x→z→u→v→y. The two registrations share one
//! engine and one window graph; their results arrive tagged.
//!
//! Run with: `cargo run -p srpq_harness --example simple_paths`

use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, ResultPair, StreamTuple, Timestamp, VertexInterner};
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine, QueryId};
use srpq_core::PathSemantics;
use srpq_graph::WindowPolicy;

fn main() {
    let mut labels = LabelInterner::new();
    let follows = labels.intern("follows");
    let mentions = labels.intern("mentions");
    let mut verts = VertexInterner::new();

    let mut engine = MultiQueryEngine::new(WindowPolicy::new(1_000, 1_000));
    let mut register = |name: &str, semantics| {
        let query = CompiledQuery::compile("(follows mentions)+", &mut labels).unwrap();
        engine.register(name, query, semantics).unwrap()
    };
    let arbitrary = register("arbitrary", PathSemantics::Arbitrary);
    let simple = register("simple", PathSemantics::Simple);

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

    let mut sink = MultiCollectSink::default();
    println!("t   edge                arbitrary-new  simple-new");
    for (ts, src, dst, label) in stream {
        let t = StreamTuple::insert(Timestamp(ts), verts.intern(src), verts.intern(dst), label);
        sink.emitted.clear();
        engine.process(t, &mut sink);
        let fmt = |sink: &MultiCollectSink, of: QueryId| {
            sink.emitted
                .iter()
                .filter(|&&(id, ..)| id == of)
                .map(|&(_, p, _): &(QueryId, ResultPair, Timestamp)| {
                    format!(
                        "({},{})",
                        verts.resolve(p.src).unwrap(),
                        verts.resolve(p.dst).unwrap()
                    )
                })
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{ts:<3} {src:>2} -{:<8}-> {dst:<3} {:<14} {}",
            if label == follows {
                "follows"
            } else {
                "mentions"
            },
            fmt(&sink, arbitrary),
            fmt(&sink, simple),
        );
    }

    let (arbitrary, simple) = (engine.engine(arbitrary), engine.engine(simple));
    let (arbitrary, simple) = (arbitrary.unwrap(), simple.unwrap());
    println!("\narbitrary: {} results", arbitrary.result_count());
    println!(
        "simple:    {} results, {} conflicts detected, {} nodes unmarked",
        simple.result_count(),
        simple.stats().conflicts_detected,
        simple.stats().nodes_unmarked
    );
    println!(
        "containment property: {} (⇒ conflicts were possible and handled at runtime)",
        simple.query().has_containment_property()
    );
}
