//! Figure 6: impact of window size |W| and slide interval β on tail
//! latency (a) and window-management time (b), on the Yago-like stream
//! with count-based (fixed-rate) windows.
//!
//! Paper shape: p99 latency and expiry time grow roughly linearly with
//! |W| (5M→20M edges there, scaled here); p99 latency is flat in β
//! while per-pass expiry time grows linearly with β (constant amortized
//! overhead).

use srpq_bench::{build_dataset, make_engine, run_engine, scale_from_args};
use srpq_core::engine::PathSemantics;
use srpq_datagen::{queries_for, DatasetKind};
use srpq_graph::WindowPolicy;
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    let ds = build_dataset(DatasetKind::Yago, scale);
    let span = ds.time_span().map(|(a, b)| b - a).unwrap_or(1).max(1);
    // The paper sweeps 5M/10M/15M/20M-edge windows with a 1M slide; we
    // keep the same 5:10:15:20 proportions of the (scaled) stream.
    let base = (span / 24).max(4);
    let queries = queries_for(DatasetKind::Yago);

    println!("# Figure 6a/6b: window-size sweep (slide fixed at {base}/2) (scale {scale})");
    println!("sweep,query,window,slide,p99_us,expiry_ms_per_pass,throughput_eps");
    for mult in [1, 2, 3, 4] {
        let w = WindowPolicy::new(base * mult, (base / 2).max(1));
        for (qname, expr) in &queries {
            let mut engine = make_engine(expr, &ds, w, PathSemantics::Arbitrary);
            let r = run_engine(&mut engine, &ds.tuples, Duration::from_secs(120));
            let passes = r.stats.expiry_runs.max(1);
            println!(
                "window,{qname},{},{},{:.1},{:.3},{:.0}",
                w.window_size,
                w.slide,
                r.p99_us(),
                r.stats.expiry_nanos as f64 / passes as f64 / 1e6,
                r.throughput()
            );
        }
    }

    println!("# slide sweep (window fixed at {})", base * 2);
    for div in [8, 4, 2, 1] {
        let w = WindowPolicy::new(base * 2, (base / div).max(1));
        for (qname, expr) in &queries {
            let mut engine = make_engine(expr, &ds, w, PathSemantics::Arbitrary);
            let r = run_engine(&mut engine, &ds.tuples, Duration::from_secs(120));
            let passes = r.stats.expiry_runs.max(1);
            println!(
                "slide,{qname},{},{},{:.1},{:.3},{:.0}",
                w.window_size,
                w.slide,
                r.p99_us(),
                r.stats.expiry_nanos as f64 / passes as f64 / 1e6,
                r.throughput()
            );
        }
    }
}
