//! Figure 5: size of the Δ tree index (number of trees and nodes) per
//! query on the SO graph.
//!
//! Paper shape: Q3 and Q6 (multiple Kleene stars) have the largest
//! indexes; Q4/Q9 (star over the full alphabet) are close behind; Q11
//! (non-recursive) the smallest. Index size anti-correlates with the
//! Figure 4c throughput.

use srpq_bench::{build_dataset, default_window, make_engine, run_engine, scale_from_args};
use srpq_core::engine::PathSemantics;
use srpq_datagen::{queries_for, DatasetKind};
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    println!("# Figure 5: Δ index size on the SO graph (scale {scale})");
    println!("query,final_trees,final_nodes,peak_nodes,arena_bytes,bytes_per_node,result_bytes,throughput_eps");
    let ds = build_dataset(DatasetKind::So, scale);
    let window = default_window(DatasetKind::So, &ds);
    for (qname, expr) in queries_for(DatasetKind::So) {
        let mut engine = make_engine(&expr, &ds, window, PathSemantics::Arbitrary);
        let r = run_engine(&mut engine, &ds.tuples, Duration::from_secs(120));
        let bytes_per_node = r.index.arena_bytes as f64 / (r.index.nodes.max(1)) as f64;
        println!(
            "{qname},{},{},{},{},{:.1},{},{:.0}",
            r.index.trees,
            r.index.nodes,
            r.peak_nodes,
            r.index.arena_bytes,
            bytes_per_node,
            r.index.result_bytes,
            r.throughput()
        );
    }
}
