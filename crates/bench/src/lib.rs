//! Shared harness utilities for the experiment binaries.
//!
//! Each `src/bin/figN_*.rs` binary reproduces one table or figure of the
//! paper's evaluation (§5) and prints a CSV-ish table with the same rows
//! or series the paper reports. This module hosts the common machinery:
//! dataset construction at laptop scale, engine drivers with throughput
//! and tail-latency measurement, and wall-clock budgets for the
//! (worst-case exponential) RSPQ runs.

#![warn(missing_docs)]
#![warn(clippy::all)]

use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, LatencyHistogram, StreamTuple};
use srpq_core::sink::CountSink;
use srpq_core::{
    Engine, EngineConfig, EngineStats, IndexSize, MultiQueryEngine, PathSemantics, UntagSink,
};
use srpq_datagen::{gmark, ldbc, so, yago, Dataset, DatasetKind};
use srpq_graph::WindowPolicy;
use std::time::{Duration, Instant};

/// Scale knob for all experiment binaries: 1.0 is the laptop-scale
/// default documented in EXPERIMENTS.md; pass a number as the first CLI
/// argument to scale streams up or down.
pub fn scale_from_args() -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            // Skip the flag and its value so a numeric path is not
            // misread as the scale.
            let _ = args.next();
            continue;
        }
        if let Ok(v) = a.parse::<f64>() {
            return v.clamp(0.01, 100.0);
        }
    }
    1.0
}

/// The value following a `--json` argument, if any: where the binary
/// should additionally write its rows as a JSON array (CI perf
/// artifacts).
pub fn json_path_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            return args.next().map(std::path::PathBuf::from);
        }
    }
    None
}

/// Builds the laptop-scale stand-in for one of the paper's datasets.
pub fn build_dataset(kind: DatasetKind, scale: f64) -> Dataset {
    match kind {
        DatasetKind::So => so::generate(&so::SoConfig {
            n_users: ((2_000.0 * scale.sqrt()) as u32).max(50),
            n_edges: ((40_000.0 * scale) as usize).max(500),
            duration: 100_000,
            seed: 0xf1f4,
            preferential: 0.7,
        }),
        DatasetKind::Ldbc => ldbc::generate(&ldbc::LdbcConfig {
            n_events: ((30_000.0 * scale) as usize).max(500),
            seed_persons: ((600.0 * scale.sqrt()) as u32).max(20),
            duration: 100_000,
            seed: 0xf1f4,
        }),
        DatasetKind::Yago => yago::generate(&yago::YagoConfig {
            n_edges: ((60_000.0 * scale) as usize).max(500),
            n_vertices: ((20_000.0 * scale.sqrt()) as u32).max(100),
            n_labels: 100,
            label_skew: 1.1,
            vertex_skew: 0.6,
            seed: 0xf1f4,
        }),
    }
}

/// The default window policy per dataset, mirroring the paper's ratios:
/// SO uses a 1-month window with 1-day slides (|W|/β = 30), LDBC 10 days
/// with 1-day slides (ratio 10), Yago 10M-edge windows with 1M-edge
/// slides (ratio 10) over fixed-rate timestamps.
pub fn default_window(kind: DatasetKind, ds: &Dataset) -> WindowPolicy {
    let span = ds.time_span().map(|(a, b)| (b - a).max(1)).unwrap_or(1);
    match kind {
        DatasetKind::So => WindowPolicy::new((span / 25).max(30), (span / 750).max(1)),
        DatasetKind::Ldbc => WindowPolicy::new((span / 10).max(10), (span / 100).max(1)),
        DatasetKind::Yago => WindowPolicy::new((span / 6).max(10), (span / 60).max(1)),
    }
}

/// The outcome of driving one engine over one stream.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Tuples fed to the engine.
    pub tuples_total: u64,
    /// Tuples whose label belongs to the query alphabet (only these are
    /// measured, following §5.2).
    pub tuples_relevant: u64,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Per-relevant-tuple latency histogram (nanoseconds).
    pub latency: LatencyHistogram,
    /// Distinct result pairs reported.
    pub results: u64,
    /// Final Δ index size.
    pub index: IndexSize,
    /// Peak Δ node count observed (sampled).
    pub peak_nodes: usize,
    /// The query's final statistics (`expiry_nanos` is the window
    /// management time).
    pub stats: EngineStats,
    /// Whether the run finished within its budget.
    pub completed: bool,
}

impl RunReport {
    /// Mean throughput in relevant edges per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.tuples_relevant as f64 / self.elapsed.as_secs_f64()
    }

    /// Tail (p99) latency in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.latency.p99() as f64 / 1_000.0
    }

    /// Mean latency in microseconds.
    pub fn mean_us(&self) -> f64 {
        self.latency.mean() / 1_000.0
    }
}

/// The one query of a [`make_engine`] engine.
fn the_query(engine: &MultiQueryEngine) -> &Engine {
    let [id] = engine.query_ids()[..] else {
        panic!("make_engine builds one-query engines");
    };
    engine.engine(id).expect("live query")
}

/// Drives the one-query `engine` over `tuples` tuple by tuple,
/// measuring per-tuple latency for tuples whose label is in the query
/// alphabet. `budget` bounds wall-clock time (RSPQ runs can be
/// exponential); on expiry the run stops early with
/// `completed = false`.
pub fn run_engine(
    engine: &mut MultiQueryEngine,
    tuples: &[StreamTuple],
    budget: Duration,
) -> RunReport {
    let dfa = the_query(engine).query().dfa().clone();
    let mut sink = CountSink::default();
    let mut latency = LatencyHistogram::new();
    let mut relevant = 0u64;
    let mut peak_nodes = 0usize;
    let started = Instant::now();
    let mut completed = true;
    for (i, &t) in tuples.iter().enumerate() {
        if dfa.knows_label(t.label) {
            relevant += 1;
            let t0 = Instant::now();
            engine.process(t, &mut UntagSink(&mut sink));
            latency.record(t0.elapsed().as_nanos() as u64);
        } else {
            engine.process(t, &mut UntagSink(&mut sink));
        }
        if i % 64 == 0 {
            peak_nodes = peak_nodes.max(the_query(engine).index_size().nodes);
            if started.elapsed() > budget {
                completed = false;
                break;
            }
        }
    }
    let elapsed = started.elapsed();
    let query = the_query(engine);
    RunReport {
        tuples_total: tuples.len() as u64,
        tuples_relevant: relevant,
        elapsed,
        latency,
        results: sink.emitted,
        index: query.index_size(),
        peak_nodes: peak_nodes.max(query.index_size().nodes),
        stats: *query.stats(),
        completed,
    }
}

/// Drives the one-query `engine` over `tuples` through
/// [`MultiQueryEngine::process_batch`] in `batch_size`-sized chunks.
/// The latency histogram records, per chunk, the mean
/// per-relevant-tuple cost (so `latency.count()` equals the number of
/// measured chunks, not tuples). Budget and peak sampling are checked
/// once per chunk.
pub fn run_engine_batched(
    engine: &mut MultiQueryEngine,
    tuples: &[StreamTuple],
    batch_size: usize,
    budget: Duration,
) -> RunReport {
    let dfa = the_query(engine).query().dfa().clone();
    let batch_size = batch_size.max(1);
    let mut sink = CountSink::default();
    let mut latency = LatencyHistogram::new();
    let mut relevant = 0u64;
    let mut peak_nodes = 0usize;
    let started = Instant::now();
    let mut completed = true;
    for chunk in tuples.chunks(batch_size) {
        let chunk_relevant = chunk.iter().filter(|t| dfa.knows_label(t.label)).count() as u64;
        relevant += chunk_relevant;
        let t0 = Instant::now();
        engine.process_batch(chunk, &mut UntagSink(&mut sink));
        if let Some(per_tuple) = (t0.elapsed().as_nanos() as u64).checked_div(chunk_relevant) {
            latency.record(per_tuple);
        }
        peak_nodes = peak_nodes.max(the_query(engine).index_size().nodes);
        if started.elapsed() > budget {
            completed = false;
            break;
        }
    }
    let elapsed = started.elapsed();
    let query = the_query(engine);
    RunReport {
        tuples_total: tuples.len() as u64,
        tuples_relevant: relevant,
        elapsed,
        latency,
        results: sink.emitted,
        index: query.index_size(),
        peak_nodes: peak_nodes.max(query.index_size().nodes),
        stats: *query.stats(),
        completed,
    }
}

/// Compiles a query against a dataset's label vocabulary.
pub fn compile_query(expr: &str, labels: &LabelInterner) -> CompiledQuery {
    let mut labels = labels.clone();
    CompiledQuery::compile(expr, &mut labels).expect("workload query compiles")
}

/// Builds the engine for a dataset + query + window: `expr` registered
/// alone on a [`MultiQueryEngine`], as every host runs a lone query.
pub fn make_engine(
    expr: &str,
    ds: &Dataset,
    window: WindowPolicy,
    semantics: PathSemantics,
) -> MultiQueryEngine {
    let mut engine = MultiQueryEngine::with_config(EngineConfig::with_window(window));
    engine
        .register(expr, compile_query(expr, &ds.labels), semantics)
        .expect("a fresh engine has no name to clash with");
    engine
}

/// Convenience: the gMark graph + synthetic workload of Figures 7–9.
pub fn gmark_fixture(scale: u32, n_queries: usize) -> (Dataset, Vec<gmark::SyntheticQuery>) {
    let schema = gmark::GmarkSchema::ldbc_like(scale);
    let ds = gmark::generate(&schema, 0xf1f4);
    let labels = schema.labels();
    let queries = gmark::generate_queries(&labels, n_queries, 2, 20, 0xf1f4);
    (ds, queries)
}

/// Prints a CSV header then rows via the closure (tiny shared helper so
/// every binary formats alike).
pub fn print_csv<R: std::fmt::Display>(header: &str, rows: impl IntoIterator<Item = R>) {
    println!("{header}");
    for r in rows {
        println!("{r}");
    }
}

/// Minimal JSON emission for perf-trajectory artifacts (the tree is
/// dependency-free, so no serde).
pub mod jsonout {
    use std::fmt::Write as _;
    use std::path::Path;

    /// A JSON scalar.
    pub enum Val {
        /// A string (escaped on write).
        S(String),
        /// A float (written with 1 decimal).
        F(f64),
        /// An unsigned integer.
        U(u64),
        /// A boolean.
        B(bool),
    }

    /// Renders one `{"k": v, ...}` object.
    pub fn obj(fields: &[(&str, Val)]) -> String {
        let mut s = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": ");
            match v {
                Val::S(x) => {
                    s.push('"');
                    for c in x.chars() {
                        match c {
                            '"' => s.push_str("\\\""),
                            '\\' => s.push_str("\\\\"),
                            c if (c as u32) < 0x20 => {
                                let _ = write!(s, "\\u{:04x}", c as u32);
                            }
                            c => s.push(c),
                        }
                    }
                    s.push('"');
                }
                Val::F(x) => {
                    let _ = write!(s, "{x:.1}");
                }
                Val::U(x) => {
                    let _ = write!(s, "{x}");
                }
                Val::B(x) => {
                    let _ = write!(s, "{x}");
                }
            }
        }
        s.push('}');
        s
    }

    /// Writes `objs` as a JSON array, one object per line.
    pub fn write_array(path: &Path, objs: &[String]) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, o) in objs.iter().enumerate() {
            out.push_str("  ");
            out.push_str(o);
            if i + 1 < objs.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_build_at_tiny_scale() {
        for kind in [DatasetKind::So, DatasetKind::Ldbc, DatasetKind::Yago] {
            let ds = build_dataset(kind, 0.02);
            ds.validate().unwrap();
            assert!(!ds.is_empty());
            let w = default_window(kind, &ds);
            assert!(w.window_size > 0 && w.slide > 0);
        }
    }

    #[test]
    fn run_engine_reports_sane_numbers() {
        let ds = build_dataset(DatasetKind::So, 0.02);
        let w = default_window(DatasetKind::So, &ds);
        let mut engine = make_engine("a2q c2a*", &ds, w, PathSemantics::Arbitrary);
        let report = run_engine(&mut engine, &ds.tuples, Duration::from_secs(30));
        assert!(report.completed);
        assert_eq!(report.tuples_total, ds.len() as u64);
        assert!(report.tuples_relevant > 0);
        assert!(report.tuples_relevant <= report.tuples_total);
        assert!(report.throughput() > 0.0);
        assert_eq!(report.latency.count(), report.tuples_relevant);
    }

    #[test]
    fn budget_stops_runs() {
        let ds = build_dataset(DatasetKind::So, 0.2);
        let w = default_window(DatasetKind::So, &ds);
        let mut engine = make_engine("(a2q | c2a | c2q)*", &ds, w, PathSemantics::Arbitrary);
        let report = run_engine(&mut engine, &ds.tuples, Duration::from_millis(1));
        assert!(!report.completed || report.elapsed < Duration::from_millis(200));
    }

    #[test]
    fn gmark_fixture_builds() {
        let (ds, queries) = gmark_fixture(1, 10);
        ds.validate().unwrap();
        assert_eq!(queries.len(), 10);
    }
}
