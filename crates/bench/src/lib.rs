//! Shared harness for the `bench` driver and `hotpath`.
//!
//! Each `bench` subcommand reproduces one table or figure of the
//! paper's evaluation (§5) and prints the rows or series the paper
//! reports. This module hosts the common machinery: the driver's
//! command line, the row printer, dataset construction at laptop scale,
//! the engine drive loop with throughput and tail-latency measurement,
//! and wall-clock budgets for the (worst-case exponential) RSPQ runs.

#![warn(missing_docs)]
#![warn(clippy::all)]

use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, LatencyHistogram, StreamTuple};
use srpq_core::sink::CountSink;
use srpq_core::{Engine, EngineConfig, EngineStats, IndexSize, MultiQueryEngine, PathSemantics};
use srpq_datagen::{gmark, ldbc, so, yago, Dataset, DatasetKind};
use srpq_graph::WindowPolicy;
use std::path::PathBuf;
use std::time::{Duration, Instant};

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

/// Drives the one-query `engine` over `tuples` tuple by tuple (one-tuple
/// batches, as [`MultiQueryEngine::process`] feeds them), latency
/// recorded for tuples whose label is in the query alphabet. `budget` bounds
/// wall-clock time (RSPQ runs can be exponential); on expiry the run
/// stops early with `completed = false`.
pub fn run_engine(
    engine: &mut MultiQueryEngine,
    tuples: &[StreamTuple],
    budget: Duration,
) -> RunReport {
    drive(engine, tuples, 1, budget)
}

/// Drives the one-query `engine` over `tuples` through
/// [`MultiQueryEngine::process_batch`], `chunk` tuples per call. The
/// latency histogram records, per chunk holding a relevant tuple, the
/// mean cost per relevant tuple (so with `chunk = 1` it is the
/// per-tuple latency of [`run_engine`]). Peak size and `budget` are
/// sampled at each chunk that holds a tuple at a multiple-of-64 position.
pub fn drive(
    engine: &mut MultiQueryEngine,
    tuples: &[StreamTuple],
    chunk: usize,
    budget: Duration,
) -> RunReport {
    let dfa = the_query(engine).query().dfa().clone();
    let chunk = chunk.max(1);
    let mut sink = CountSink::default();
    let mut latency = LatencyHistogram::new();
    let mut relevant = 0u64;
    let mut peak_nodes = 0usize;
    let started = Instant::now();
    let mut completed = true;
    for (i, batch) in tuples.chunks(chunk).enumerate() {
        let batch_relevant = batch.iter().filter(|t| dfa.knows_label(t.label)).count() as u64;
        relevant += batch_relevant;
        // Only batches holding a relevant tuple are timed (§5.2).
        let t0 = (batch_relevant > 0).then(Instant::now);
        engine.process_batch(batch, &mut sink);
        if let Some(t0) = t0 {
            latency.record(t0.elapsed().as_nanos() as u64 / batch_relevant);
        }
        if (i * chunk) % 64 < chunk {
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

/// The driver's command line.
pub const USAGE: &str = "usage: bench <subcommand> [scale] [--json FILE] [--check]";

/// A parsed `bench` command line.
#[derive(Debug)]
pub struct Args {
    /// The subcommand to run.
    pub subcommand: String,
    /// Stream scale in `[0.01, 100]`; 1.0 is the laptop-scale default.
    pub scale: f64,
    /// Where to also write the rows as a JSON array (CI perf artifacts).
    pub json: Option<PathBuf>,
    /// Whether a failed check exits non-zero.
    pub check: bool,
}

/// Parses the arguments after the program name. `known` lists the
/// subcommands; anything else the grammar of [`USAGE`] does not admit
/// is refused.
pub fn parse_args(args: &[String], known: &[&str]) -> Result<Args, String> {
    let mut args = args.iter();
    let subcommand = args.next().ok_or("no subcommand given")?;
    if !known.contains(&subcommand.as_str()) {
        return Err(format!("unknown subcommand `{subcommand}`"));
    }
    let (mut scale, mut json, mut check) = (None, None, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(args.next().ok_or("--json needs a FILE")?.into()),
            "--check" => check = true,
            a if a.starts_with("--") => return Err(format!("unknown option `{a}`")),
            a if scale.is_some() => return Err(format!("unexpected argument `{a}`")),
            a => {
                let v: f64 = a
                    .parse()
                    .map_err(|_| format!("scale `{a}` is not a number"))?;
                if !(0.01..=100.0).contains(&v) {
                    return Err(format!("scale {a} is outside [0.01, 100]"));
                }
                scale = Some(v);
            }
        }
    }
    Ok(Args {
        subcommand: subcommand.clone(),
        scale: scale.unwrap_or(1.0),
        json,
        check,
    })
}

/// One output row: `(column, value)` pairs in column order.
pub type Row = Vec<(&'static str, jsonout::Val)>;

/// Prints a subcommand's rows as CSV on stdout, the header derived from
/// the first row, and keeps them as JSON objects (each led by a `bench`
/// key naming the subcommand) when the command line asked for a file.
pub struct Table {
    bench: String,
    json: Option<(PathBuf, Vec<String>)>,
    header: Vec<&'static str>,
}

impl Table {
    /// A table for `args`' subcommand.
    pub fn new(args: &Args) -> Table {
        Table {
            bench: args.subcommand.clone(),
            json: args.json.clone().map(|path| (path, Vec::new())),
            header: Vec::new(),
        }
    }

    /// Prints `row` (after the header, for the first) and keeps it for
    /// the JSON file. Every row of a table has the same columns.
    pub fn row(&mut self, row: Row) {
        let columns: Vec<&str> = row.iter().map(|&(c, _)| c).collect();
        if self.header.is_empty() {
            println!("{}", columns.join(","));
            self.header = columns;
        } else {
            assert_eq!(columns, self.header, "a row changed the table's columns");
        }
        println!("{}", csv_line(&row));
        if let Some((_, objs)) = &mut self.json {
            let mut fields = vec![("bench", jsonout::Val::S(self.bench.clone()))];
            fields.extend(row);
            objs.push(jsonout::obj(&fields));
        }
    }

    /// Writes the JSON file, if one was asked for.
    pub fn finish(self) -> std::io::Result<()> {
        if let Some((path, objs)) = self.json {
            jsonout::write_array(&path, &objs)?;
            eprintln!("wrote {}", path.display());
        }
        Ok(())
    }
}

/// A row's values as one CSV line. Text that is not a single bare word
/// (letters, digits, `_`, `+`, `-`, `.`, `/`) is quoted, as query
/// expressions are.
fn csv_line(row: &[(&str, jsonout::Val)]) -> String {
    use jsonout::Val;
    let bare = |s: &str| {
        s.chars()
            .all(|c| c.is_alphanumeric() || "_+-./".contains(c))
    };
    let cells: Vec<String> = row
        .iter()
        .map(|(_, v)| match v {
            Val::S(s) if bare(s) => s.clone(),
            Val::S(s) => format!("\"{}\"", s.replace('"', "\"\"")),
            Val::F(x) => format!("{x:.1}"),
            Val::D(x, decimals) => format!("{x:.decimals$}"),
            Val::U(x) => x.to_string(),
            Val::B(x) => x.to_string(),
        })
        .collect();
    cells.join(",")
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
        /// A float written with the given number of decimals; JSON gets
        /// at least one, so the value reads back as a float.
        D(f64, usize),
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
                Val::D(x, decimals) => {
                    let _ = write!(s, "{x:.*}", (*decimals).max(1));
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

    fn parse(args: &str) -> Result<Args, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse_args(&args, &["fig4_throughput", "mqo_scaling"])
    }

    #[test]
    fn parses_the_usage_grammar() {
        let a = parse("mqo_scaling 0.05 --json out.json --check").unwrap();
        assert!(a.subcommand == "mqo_scaling" && a.scale == 0.05 && a.check);
        assert_eq!(a.json, Some("out.json".into()));
        let a = parse("fig4_throughput").unwrap();
        assert!(a.scale == 1.0 && a.json.is_none() && !a.check);
    }

    /// Asserts that `args` is refused with an error naming `reason`.
    fn refused(args: &str, reason: &str) {
        let err = parse(args).unwrap_err();
        assert!(err.contains(reason), "{args}: {err}");
    }

    #[test]
    fn refuses_an_unknown_subcommand() {
        refused("", "no subcommand");
        refused("fig99 0.01", "unknown subcommand `fig99`");
    }

    #[test]
    fn refuses_an_unknown_option() {
        refused("mqo_scaling 0.01 --chek", "unknown option `--chek`");
        refused("mqo_scaling --json", "--json needs a FILE");
        refused("mqo_scaling 0.01 0.02", "unexpected argument `0.02`");
    }

    #[test]
    fn refuses_a_scale_that_does_not_parse() {
        refused("fig4_throughput 0,01", "scale `0,01` is not a number");
    }

    #[test]
    fn refuses_a_scale_outside_the_range() {
        for scale in ["0.001", "101", "-1", "NaN", "inf"] {
            refused(&format!("fig4_throughput {scale}"), "outside [0.01, 100]");
        }
        assert!(parse("fig4_throughput 0.01").is_ok());
        assert!(parse("fig4_throughput 100").is_ok());
    }

    #[test]
    fn rows_render_as_csv_and_json() {
        use jsonout::Val::{B, D, F, S, U};
        let row: Row = vec![
            ("query", S("Q1".into())),
            ("expr", S("(a | b)*".into())),
            ("eps", D(1234.56, 0)),
            ("p99_us", F(2.34)),
            ("ratio", D(0.5, 3)),
            ("results", U(7)),
            ("completed", B(true)),
        ];
        assert_eq!(csv_line(&row), "Q1,\"(a | b)*\",1235,2.3,0.500,7,true");
        assert_eq!(
            jsonout::obj(&row),
            r#"{"query": "Q1", "expr": "(a | b)*", "eps": 1234.6, "p99_us": 2.3, "ratio": 0.500, "results": 7, "completed": true}"#
        );
    }

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
        assert!(report.tuples_relevant > 0);
        assert!(report.tuples_relevant <= ds.len() as u64);
        assert!(report.throughput() > 0.0);
        assert_eq!(report.latency.count(), report.tuples_relevant);
        // The chunked case runs the same stream to the same state.
        let mut engine = make_engine("a2q c2a*", &ds, w, PathSemantics::Arbitrary);
        let chunked = drive(&mut engine, &ds.tuples, 256, Duration::from_secs(30));
        assert!(chunked.completed);
        assert_eq!(chunked.tuples_relevant, report.tuples_relevant);
        assert_eq!(chunked.results, report.results);
        assert_eq!(chunked.index, report.index);
        assert!(chunked.latency.count() <= ds.len().div_ceil(256) as u64);
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
