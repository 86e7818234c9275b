//! Ablation (DESIGN.md §6.3): the three timestamp-refresh policies for
//! re-reached Δ nodes.
//!
//! * `none` — never refresh (matches the paper's Figure 2a drawing);
//!   cheapest per tuple, most expiry-time reconnection work.
//! * `node` — refresh the node only (the pseudocode of Algorithm
//!   RAPQ/Insert); the default.
//! * `subtree` — propagate refreshed timestamps through the subtree;
//!   most per-tuple work, least expiry work.
//!
//! All three are correct (results must be identical); this harness
//! quantifies the trade on the SO-like stream where re-reaching is
//! frequent.

use srpq_bench::{build_dataset, compile_query, default_window, run_engine, scale_from_args};
use srpq_core::config::RefreshPolicy;
use srpq_core::{EngineConfig, MultiQueryEngine, PathSemantics};
use srpq_datagen::{queries_for, DatasetKind};
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    let ds = build_dataset(DatasetKind::So, scale);
    let window = default_window(DatasetKind::So, &ds);
    println!("# Refresh-policy ablation on the SO-like stream (scale {scale})");
    println!("policy,query,throughput_eps,p99_us,expiry_ms_total,results");
    for (policy, pname) in [
        (RefreshPolicy::None, "none"),
        (RefreshPolicy::Node, "node"),
        (RefreshPolicy::Subtree, "subtree"),
    ] {
        for (qname, expr) in queries_for(DatasetKind::So) {
            let query = compile_query(&expr, &ds.labels);
            let mut config = EngineConfig::with_window(window);
            config.refresh = policy;
            let mut engine = MultiQueryEngine::with_config(config);
            engine
                .register(qname, query, PathSemantics::Arbitrary)
                .expect("fresh engine");
            let r = run_engine(&mut engine, &ds.tuples, Duration::from_secs(60));
            println!(
                "{pname},{qname},{:.0},{:.1},{:.1},{}",
                r.throughput(),
                r.p99_us(),
                r.stats.expiry_nanos as f64 / 1e6,
                r.results
            );
        }
    }
}
