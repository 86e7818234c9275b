//! Figure 10: impact of the explicit-deletion ratio (0–10%) on tail
//! latency, Yago-like stream.
//!
//! Paper shape: deletions cost up to ~50% extra tail latency versus the
//! append-only run, but the overhead flattens quickly — it does *not*
//! keep growing with the deletion ratio (the window and Δ index shrink
//! as deletions increase).

use srpq_bench::{build_dataset, default_window, make_engine, run_engine, scale_from_args};
use srpq_core::engine::PathSemantics;
use srpq_datagen::{inject_deletions, queries_for, DatasetKind};
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    let ds = build_dataset(DatasetKind::Yago, scale);
    let window = default_window(DatasetKind::Yago, &ds);
    println!("# Figure 10: tail latency vs explicit-deletion ratio (scale {scale})");
    println!("deletion_pct,query,p99_us,mean_us,throughput_eps,deletions");
    for pct in [0u32, 2, 4, 6, 8, 10] {
        let stream = inject_deletions(&ds.tuples, pct as f64 / 100.0, 0xde1e + pct as u64);
        for (qname, expr) in queries_for(DatasetKind::Yago) {
            let mut engine = make_engine(&expr, &ds, window, PathSemantics::Arbitrary);
            let r = run_engine(&mut engine, &stream, Duration::from_secs(60));
            println!(
                "{pct},{qname},{:.1},{:.1},{:.0},{}",
                r.p99_us(),
                r.mean_us(),
                r.throughput(),
                r.stats.deletions_processed
            );
        }
    }
}
