//! Fraud detection with explicit deletions: money-flow cycles on a
//! payment stream, with chargebacks retracting edges.
//!
//! A transfer cycle `x → ... → x` inside the window is a laundering
//! signal; the persistent RPQ `transfer+` reports `(x, x)` pairs. When
//! a transfer is charged back (an explicit deletion, §3.2), previously
//! reported cycles that relied on it must be invalidated — negative
//! tuples exercise exactly that path.
//!
//! Run with: `cargo run --release -p srpq_harness --example fraud_detection`

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_core::multi::MultiQueryEngine;
use srpq_core::sink::CollectSink;
use srpq_core::PathSemantics;
use srpq_graph::WindowPolicy;

fn main() {
    let mut labels = LabelInterner::new();
    let transfer = labels.intern("transfer");
    let query = CompiledQuery::compile("transfer+", &mut labels).unwrap();
    let mut engine = MultiQueryEngine::new(WindowPolicy::new(500, 50));
    let id = engine
        .register("cycles", query, PathSemantics::Arbitrary)
        .unwrap();

    // Synthetic payment stream: 200 accounts, mostly tree-like payments
    // with occasional back-edges that close cycles, plus 3% chargebacks.
    let mut rng = SmallRng::seed_from_u64(99);
    let n_accounts = 200u32;
    let mut sink = CollectSink::default();
    let mut sent: Vec<(VertexId, VertexId)> = Vec::new();
    let mut cycles_seen = 0usize;

    for ts in 1..=4_000i64 {
        let src = VertexId(rng.gen_range(0..n_accounts));
        let dst = VertexId((src.0 + rng.gen_range(1..n_accounts)) % n_accounts);
        let tuple = if !sent.is_empty() && rng.gen_bool(0.03) {
            // Chargeback: retract a previous transfer.
            let (s, d) = sent[rng.gen_range(0..sent.len())];
            StreamTuple::delete(Timestamp(ts), s, d, transfer)
        } else {
            sent.push((src, dst));
            StreamTuple::insert(Timestamp(ts), src, dst, transfer)
        };
        let before = sink.emitted().len();
        engine.process(tuple, &mut sink);
        for &(pair, at) in &sink.emitted()[before..] {
            if pair.src == pair.dst {
                cycles_seen += 1;
                if cycles_seen <= 5 {
                    println!("t={at}: cycle through account {}", pair.src);
                }
            }
        }
    }

    let cycles = engine.engine(id).unwrap();
    let live_cycles = (0..n_accounts)
        .filter(|&a| cycles.has_result(ResultPair::new(VertexId(a), VertexId(a))))
        .count();
    let alerts_retracted = sink
        .invalidated()
        .iter()
        .filter(|(p, _)| p.src == p.dst)
        .count();
    println!("\n--- after 4000 events ---");
    println!("cycle alerts raised:                  {cycles_seen}");
    println!("cycle alerts retracted by chargeback: {alerts_retracted}");
    println!(
        "reachability results retracted:       {}",
        sink.invalidated().len()
    );
    println!("accounts currently on a live cycle:   {live_cycles}");
    println!(
        "chargebacks processed:                {}",
        cycles.stats().deletions_processed
    );
    println!("Δ index: {:?}", cycles.index_size());
}
