//! Table 4: which queries can be evaluated under simple path semantics,
//! and the latency overhead of RSPQ relative to RAPQ.
//!
//! Paper shape: all queries succeed on Yago (sparse, heterogeneous ⇒
//! conflict-free in practice) with 1.8–2.1× tail-latency overhead; on
//! SO only the restricted queries finish (1.4–5.4×); LDBC in between.
//! A query "fails" when conflicts make the run exceed its wall-clock
//! budget.

use srpq_bench::{
    build_dataset, compile_query, default_window, make_engine, run_engine, scale_from_args,
};
use srpq_core::{EngineConfig, MultiQueryEngine, PathSemantics};
use srpq_datagen::{queries_for, DatasetKind};
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    println!("# Table 4: RSPQ feasibility & overhead vs RAPQ (scale {scale})");
    println!(
        "dataset,query,rspq_ok,containment_property,conflicts,p99_overhead,rapq_p99_us,rspq_p99_us"
    );
    let budget = Duration::from_secs(30);
    for (kind, name) in [
        (DatasetKind::Yago, "yago"),
        (DatasetKind::Ldbc, "ldbc"),
        (DatasetKind::So, "so"),
    ] {
        let ds = build_dataset(kind, scale);
        let window = default_window(kind, &ds);
        for (qname, expr) in queries_for(kind) {
            let mut rapq = make_engine(&expr, &ds, window, PathSemantics::Arbitrary);
            let ra = run_engine(&mut rapq, &ds.tuples, budget);
            // Conflicted instances are worst-case exponential *per
            // tuple*: cap the per-tuple Extend work so a "failed" query
            // reports as such instead of hanging (a query is successful
            // in Table 4's sense iff it never trips the budget).
            let query = compile_query(&expr, &ds.labels);
            let mut config = EngineConfig::with_window(window);
            config.rspq_extend_budget = Some(300_000);
            let has_prop = query.has_containment_property();
            let mut rspq = MultiQueryEngine::with_config(config);
            rspq.register(qname, query, PathSemantics::Simple)
                .expect("fresh engine");
            let rs = run_engine(&mut rspq, &ds.tuples, budget);
            let ok = rs.completed && rs.stats.budget_exhausted == 0;
            let overhead = if ra.p99_us() > 0.0 {
                rs.p99_us() / ra.p99_us()
            } else {
                f64::NAN
            };
            println!(
                "{name},{qname},{},{},{},{:.2},{:.1},{:.1}",
                ok,
                has_prop,
                rs.stats.conflicts_detected,
                overhead,
                ra.p99_us(),
                rs.p99_us()
            );
        }
    }
}
