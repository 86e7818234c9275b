//! Microbenches: the per-operation costs behind the experiment harness
//! numbers, on a dependency-free timing loop (run with `cargo bench`).
//!
//! * `tuple_insert/*` — per-tuple RAPQ cost on each dataset family
//!   (the quantity Figure 4 aggregates), through a one-query engine;
//! * `window_management/expiry_pass` — one full expiry pass (Figure
//!   6b's unit of work);
//! * `compile/*` — query registration: regex → minimal DFA +
//!   containment table;
//! * `generators/*` — dataset generation throughput.
//!
//! Each benchmark reports the mean wall-clock time over a fixed number
//! of iterations after one warm-up run. Pass a substring filter as the
//! first argument to run a subset: `cargo bench --bench microbench -- compile`.

use srpq_automata::CompiledQuery;
use srpq_bench::make_engine;
use srpq_common::LabelInterner;
use srpq_core::{MultiQueryEngine, NullMultiSink, PathSemantics};
use srpq_datagen::{ldbc, so, yago, Dataset, DatasetKind};
use srpq_graph::WindowPolicy;
use std::time::{Duration, Instant};

/// Times `iters` runs of `body` (after one warm-up call), where `setup`
/// builds the per-iteration input outside the timed section. `body`
/// returns its large state so deallocation also happens outside the
/// timed section (criterion's `BatchSize::LargeInput` discipline).
fn bench<T, U>(name: &str, iters: u32, mut setup: impl FnMut() -> T, mut body: impl FnMut(T) -> U) {
    if !filter_matches(name) {
        return;
    }
    body(setup());
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let input = setup();
        let t0 = Instant::now();
        let keep = body(input);
        total += t0.elapsed();
        drop(keep);
    }
    let mean = total / iters;
    println!(
        "{name:<40} {:>12.1} ns/iter ({iters} iters)",
        mean.as_nanos() as f64
    );
}

fn filter_matches(name: &str) -> bool {
    // Cargo invokes harness=false bench binaries with flags like
    // `--bench`; only a bare (non-flag) argument is a name filter.
    match std::env::args().skip(1).find(|a| !a.starts_with('-')) {
        Some(f) => name.contains(&f),
        None => true,
    }
}

fn small_dataset(kind: DatasetKind) -> Dataset {
    match kind {
        DatasetKind::So => so::generate(&so::SoConfig {
            n_users: 500,
            n_edges: 10_000,
            duration: 20_000,
            seed: 1,
            preferential: 0.7,
        }),
        DatasetKind::Ldbc => ldbc::generate(&ldbc::LdbcConfig {
            n_events: 8_000,
            seed_persons: 200,
            duration: 20_000,
            seed: 1,
        }),
        DatasetKind::Yago => yago::generate(&yago::YagoConfig {
            n_edges: 10_000,
            n_vertices: 3_000,
            n_labels: 100,
            label_skew: 1.1,
            vertex_skew: 0.6,
            seed: 1,
        }),
    }
}

fn query_for(kind: DatasetKind) -> &'static str {
    match kind {
        DatasetKind::So => "a2q c2a*",
        DatasetKind::Ldbc => "knows replyOf*",
        DatasetKind::Yago => "happenedIn hasCapital*",
    }
}

fn loaded_engine(ds: &Dataset, kind: DatasetKind, window: WindowPolicy) -> MultiQueryEngine {
    let mut engine = make_engine(query_for(kind), ds, window, PathSemantics::Arbitrary);
    for &t in &ds.tuples {
        engine.process(t, &mut NullMultiSink);
    }
    engine
}

fn bench_tuple_insert() {
    for (kind, name) in [
        (DatasetKind::So, "so"),
        (DatasetKind::Ldbc, "ldbc"),
        (DatasetKind::Yago, "yago"),
    ] {
        let ds = small_dataset(kind);
        let span = ds.time_span().map(|(a, b)| b - a).unwrap_or(1).max(1);
        let window = WindowPolicy::new((span / 5).max(5), (span / 50).max(1));
        bench(
            &format!("tuple_insert/{name}"),
            10,
            || make_engine(query_for(kind), &ds, window, PathSemantics::Arbitrary),
            |mut engine| {
                for &t in &ds.tuples {
                    engine.process(t, &mut NullMultiSink);
                }
                engine
            },
        );
    }
}

fn bench_expiry() {
    let ds = small_dataset(DatasetKind::Yago);
    let span = ds.time_span().map(|(a, b)| b - a).unwrap_or(1).max(1);
    // Huge slide: no automatic expiry while loading, so the measured
    // pass does all the work at once.
    let window = WindowPolicy::new((span / 5).max(5), span * 2);
    bench(
        "window_management/expiry_pass",
        10,
        || loaded_engine(&ds, DatasetKind::Yago, window),
        |mut engine| {
            engine.expire_now(&mut NullMultiSink);
            engine
        },
    );
}

fn bench_compile() {
    for (name, expr) in [
        ("q1_star", "a*"),
        ("q3_two_stars", "a b* c*"),
        ("q9_alt_plus", "(a | b | c)+"),
        ("large", "(a | b) c* (d e)+ f? (g | h | i)*"),
    ] {
        bench(
            &format!("compile/{name}"),
            200,
            || (),
            |()| {
                let mut labels = LabelInterner::new();
                CompiledQuery::compile(expr, &mut labels).unwrap()
            },
        );
    }
}

fn bench_generators() {
    for (kind, name) in [
        (DatasetKind::So, "so_10k"),
        (DatasetKind::Ldbc, "ldbc_8k_events"),
        (DatasetKind::Yago, "yago_10k"),
    ] {
        bench(
            &format!("generators/{name}"),
            10,
            || (),
            |()| small_dataset(kind),
        );
    }
}

fn main() {
    bench_tuple_insert();
    bench_expiry();
    bench_compile();
    bench_generators();
}
