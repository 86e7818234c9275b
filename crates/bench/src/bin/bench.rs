//! The experiment driver: one subcommand per table or figure of the
//! paper's evaluation (§5), plus the inter-query scaling grids and the
//! per-operation microbenches.
//!
//! ```text
//! bench <subcommand> [scale] [--json FILE] [--check]
//! ```
//!
//! `scale` (in `[0.01, 100]`, default 1.0) scales the streams; the
//! subcommands that run a fixed workload (`fig7_dfa_sizes`,
//! `workloads`) ignore it. Each subcommand prints `#` comment lines and
//! a CSV table on stdout, every row stated once as `(column, value)`
//! pairs ([`Table`]); `--json FILE` also writes the rows as a JSON
//! array. A subcommand with a check reports a failure on stderr, and
//! `--check` makes it exit non-zero: `mqo_scaling`'s memory gate and
//! `fig11_vs_reeval`'s oracle column.

use srpq_baseline::ReevalEngine;
use srpq_bench::jsonout::Val::{B, D, F, S, U};
use srpq_bench::{
    build_dataset, compile_query, default_window, drive, gmark_fixture, make_engine, parse_args,
    run_engine, RunReport, Table, USAGE,
};
use srpq_common::{LabelInterner, LatencyHistogram, StreamTuple};
use srpq_core::multi::{MultiQueryEngine, NullMultiSink};
use srpq_core::sink::CountSink;
use srpq_core::{EngineConfig, PathSemantics};
use srpq_datagen::{inject_deletions, queries_for, yago, Dataset, DatasetKind};
use srpq_graph::WindowPolicy;
use std::time::{Duration, Instant};

/// A subcommand: runs at a scale, printing its rows to the table;
/// `Err` names a failed check.
type Subcommand = fn(f64, &mut Table) -> Result<(), String>;

const SUBCOMMANDS: &[(&str, Subcommand)] = &[
    ("fig4_throughput", fig4_throughput),
    ("fig5_index_size", fig5_index_size),
    ("fig6_window_scaling", fig6_window_scaling),
    ("fig7_dfa_sizes", fig7_dfa_sizes),
    ("fig8_throughput_vs_k", fig8_throughput_vs_k),
    ("fig9_throughput_vs_delta", fig9_throughput_vs_delta),
    ("fig10_deletions", fig10_deletions),
    ("fig11_vs_reeval", fig11_vs_reeval),
    ("table1_scaling", table1_scaling),
    ("table4_rspq", table4_rspq),
    ("workloads", workloads),
    ("multi_scaling", multi_scaling),
    ("mqo_scaling", mqo_scaling),
    ("micro", micro),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = SUBCOMMANDS.iter().map(|&(name, _)| name).collect();
    let args = parse_args(&argv, &names).unwrap_or_else(|e| {
        eprintln!("bench: {e}\n{USAGE}\nsubcommands: {}", names.join(", "));
        std::process::exit(2);
    });
    let &(_, run) = SUBCOMMANDS
        .iter()
        .find(|&&(name, _)| name == args.subcommand)
        .expect("parse_args admits only known subcommands");
    let mut out = Table::new(&args);
    let verdict = run(args.scale, &mut out);
    out.finish().expect("write JSON report");
    if let Err(e) = verdict {
        eprintln!("check failed: {e}");
        if args.check {
            std::process::exit(1);
        }
    }
}

/// The three dataset families, in Figure 4's order.
const FAMILIES: [(DatasetKind, &str); 3] = [
    (DatasetKind::Yago, "yago"),
    (DatasetKind::Ldbc, "ldbc"),
    (DatasetKind::So, "so"),
];

/// Tuples per `process_batch` call wherever ingestion is batched.
const BATCH: usize = 256;

/// Runs `expr` alone under arbitrary-path semantics over `tuples` (a
/// stream over `ds`'s labels), `chunk` tuples per call, within
/// `budget_s` seconds.
fn rapq(
    expr: &str,
    ds: &Dataset,
    window: WindowPolicy,
    tuples: &[StreamTuple],
    chunk: usize,
    budget_s: u64,
) -> RunReport {
    let mut engine = make_engine(expr, ds, window, PathSemantics::Arbitrary);
    drive(&mut engine, tuples, chunk, Duration::from_secs(budget_s))
}

/// Time from the first tuple to the last, at least 1.
fn span(tuples: &[StreamTuple]) -> i64 {
    let ends = tuples.first().zip(tuples.last());
    ends.map_or(1, |(a, b)| (b.ts.0 - a.ts.0).max(1))
}

/// The gMark fixture's window: a quarter of the stream, 10 slides.
fn gmark_window(tuples: &[StreamTuple]) -> WindowPolicy {
    let span = span(tuples);
    WindowPolicy::new((span / 4).max(4), (span / 40).max(1))
}

/// `a / b`, or NaN when `b` is not positive.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::NAN
    }
}

/// Figure 4: throughput and tail latency of Algorithm RAPQ for all
/// queries on all three dataset families, plus the gMark smoke workload
/// that anchors the perf trajectory, in both ingestion modes.
///
/// Paper shape: LDBC fastest (tens of thousands edges/s), Yago next,
/// SO slowest (hundreds of edges/s for the heavy queries); Q11 fastest
/// everywhere; Q3/Q6 slowest on SO.
///
/// Each (dataset, query) runs twice: `single` drives the engine one
/// tuple at a time; `batched` drives it through `process_batch` in
/// 256-tuple chunks (same result stream, amortized window maintenance).
fn fig4_throughput(scale: f64, out: &mut Table) -> Result<(), String> {
    println!("# Figure 4: RAPQ throughput & p99 latency (scale {scale}, batch {BATCH})");
    let mut both = |dataset: &str, query: &str, expr: &str, ds: &Dataset, w: WindowPolicy| {
        for (mode, chunk) in [("single", 1), ("batched", BATCH)] {
            let r = rapq(expr, ds, w, &ds.tuples, chunk, 120);
            out.row(vec![
                ("dataset", S(dataset.into())),
                ("query", S(query.into())),
                ("mode", S(mode.into())),
                ("relevant_tuples", U(r.tuples_relevant)),
                ("throughput_eps", D(r.throughput(), 0)),
                ("mean_us", F(r.mean_us())),
                ("p99_us", F(r.p99_us())),
                ("results", U(r.results)),
                ("completed", B(r.completed)),
            ]);
        }
    };
    for (kind, name) in FAMILIES {
        let ds = build_dataset(kind, scale);
        let window = default_window(kind, &ds);
        for (qname, expr) in queries_for(kind) {
            both(name, qname, &expr, &ds, window);
        }
    }
    // gMark smoke workload: a fixed handful of synthetic queries on the
    // ldbc-like gMark graph, the single-thread perf-trajectory anchor.
    let (ds, queries) = gmark_fixture(1, 8);
    let window = gmark_window(&ds.tuples);
    for (qi, q) in queries.iter().enumerate() {
        both("gmark", &format!("g{qi}"), &q.expr, &ds, window);
    }
    Ok(())
}

/// Figure 5: size of the Δ tree index (number of trees and nodes) per
/// query on the SO graph.
///
/// Paper shape: Q3 and Q6 (multiple Kleene stars) have the largest
/// indexes; Q4/Q9 (star over the full alphabet) are close behind; Q11
/// (non-recursive) the smallest. Index size anti-correlates with the
/// Figure 4c throughput.
fn fig5_index_size(scale: f64, out: &mut Table) -> Result<(), String> {
    println!("# Figure 5: Δ index size on the SO graph (scale {scale})");
    let ds = build_dataset(DatasetKind::So, scale);
    let window = default_window(DatasetKind::So, &ds);
    for (qname, expr) in queries_for(DatasetKind::So) {
        let r = rapq(&expr, &ds, window, &ds.tuples, 1, 120);
        let index = r.index;
        let per_node = index.arena_bytes as f64 / index.nodes.max(1) as f64;
        out.row(vec![
            ("query", S(qname.into())),
            ("final_trees", U(index.trees as u64)),
            ("final_nodes", U(index.nodes as u64)),
            ("peak_nodes", U(r.peak_nodes as u64)),
            ("arena_bytes", U(index.arena_bytes as u64)),
            ("bytes_per_node", F(per_node)),
            ("result_bytes", U(index.result_bytes as u64)),
            ("throughput_eps", D(r.throughput(), 0)),
        ]);
    }
    Ok(())
}

/// Figure 6: impact of window size |W| and slide interval β on tail
/// latency (a) and window-management time (b), on the Yago-like stream
/// with count-based (fixed-rate) windows.
///
/// Paper shape: p99 latency and expiry time grow roughly linearly with
/// |W| (5M→20M edges there, scaled here); p99 latency is flat in β
/// while per-pass expiry time grows linearly with β (constant amortized
/// overhead).
fn fig6_window_scaling(scale: f64, out: &mut Table) -> Result<(), String> {
    let ds = build_dataset(DatasetKind::Yago, scale);
    // The paper sweeps 5M/10M/15M/20M-edge windows with a 1M slide; we
    // keep the same 5:10:15:20 proportions of the (scaled) stream.
    let base = (span(&ds.tuples) / 24).max(4);
    let queries = queries_for(DatasetKind::Yago);
    println!("# Figure 6a/6b: window-size sweep (slide fixed at {base}/2) (scale {scale})");
    let windows = [1, 2, 3, 4].map(|m| ("window", WindowPolicy::new(base * m, (base / 2).max(1))));
    let slides = [8, 4, 2, 1].map(|d| ("slide", WindowPolicy::new(base * 2, (base / d).max(1))));
    for (i, (sweep, w)) in windows.into_iter().chain(slides).enumerate() {
        if i == windows.len() {
            println!("# slide sweep (window fixed at {})", base * 2);
        }
        for (qname, expr) in &queries {
            let r = rapq(expr, &ds, w, &ds.tuples, 1, 120);
            let ms_per_pass = r.stats.expiry_nanos as f64 / r.stats.expiry_runs.max(1) as f64 / 1e6;
            out.row(vec![
                ("sweep", S(sweep.into())),
                ("query", S(qname.to_string())),
                ("window", U(w.window_size as u64)),
                ("slide", U(w.slide as u64)),
                ("p99_us", F(r.p99_us())),
                ("expiry_ms_per_pass", D(ms_per_pass, 3)),
                ("throughput_eps", D(r.throughput(), 0)),
            ]);
        }
    }
    Ok(())
}

/// Figure 7: number of states k in the minimal DFA vs query size |Q_R|
/// for the 100 gMark-generated synthetic RPQs.
///
/// Paper shape: k grows roughly linearly with |Q_R| (2–12 states over
/// sizes 2–18) — no exponential DFA blow-up for practical queries.
fn fig7_dfa_sizes(_scale: f64, out: &mut Table) -> Result<(), String> {
    let (ds, queries) = gmark_fixture(1, 100);
    println!("# Figure 7: DFA size vs query size for 100 gMark RPQs");
    let mut max_k = 0usize;
    for q in &queries {
        let k = compile_query(&q.expr, &ds.labels).k();
        max_k = max_k.max(k);
        out.row(vec![
            ("query_size", U(q.size as u64)),
            ("k", U(k as u64)),
            ("expr", S(q.expr.clone())),
        ]);
    }
    eprintln!("# max k observed: {max_k}");
    // Sanity: the claim is polynomial growth; fail loudly if a tiny
    // workload query exploded.
    assert!(max_k <= 64, "unexpected DFA explosion: k = {max_k}");
    Ok(())
}

/// Figure 8: RAPQ throughput vs the number of DFA states k for the
/// synthetic gMark workload.
///
/// Paper shape: no strong dependence of throughput on k; queries with
/// identical k differ by up to ~6× (explained by Δ index size — see
/// Figure 9).
fn fig8_throughput_vs_k(scale: f64, out: &mut Table) -> Result<(), String> {
    let (ds, queries) = gmark_fixture((2.0 * scale).ceil() as u32, 100);
    let window = gmark_window(&ds.tuples);
    println!("# Figure 8: throughput vs k on the gMark graph (scale {scale})");
    for q in &queries {
        let k = compile_query(&q.expr, &ds.labels).k();
        let r = rapq(&q.expr, &ds, window, &ds.tuples, 1, 20);
        out.row(vec![
            ("k", U(k as u64)),
            ("query_size", U(q.size as u64)),
            ("throughput_eps", D(r.throughput(), 0)),
            ("peak_nodes", U(r.peak_nodes as u64)),
            ("completed", B(r.completed)),
            ("expr", S(q.expr.clone())),
        ]);
    }
    Ok(())
}

/// Figure 9: throughput vs Δ tree-index size for synthetic RPQs with
/// k = 5 states.
///
/// Paper shape: a clear negative correlation — the index size (number
/// of partial results maintained) is what determines throughput, not
/// the automaton size.
fn fig9_throughput_vs_delta(scale: f64, out: &mut Table) -> Result<(), String> {
    // Generate a larger pool and keep (up to 60) queries whose minimal
    // DFA has exactly 5 states, as the paper does.
    let (ds, queries) = gmark_fixture((2.0 * scale).ceil() as u32, 400);
    let window = gmark_window(&ds.tuples);
    println!("# Figure 9: throughput vs Δ size for k=5 gMark RPQs (scale {scale})");
    let k5 = queries
        .iter()
        .filter(|q| compile_query(&q.expr, &ds.labels).k() == 5);
    let kept: Vec<_> = k5.take(60).collect();
    for q in &kept {
        let r = rapq(&q.expr, &ds, window, &ds.tuples, 1, 20);
        out.row(vec![
            ("peak_nodes", U(r.peak_nodes as u64)),
            ("throughput_eps", D(r.throughput(), 0)),
            ("completed", B(r.completed)),
            ("expr", S(q.expr.clone())),
        ]);
    }
    eprintln!("# {} queries with k=5", kept.len());
    Ok(())
}

/// Figure 10: impact of the explicit-deletion ratio (0–10%) on tail
/// latency, Yago-like stream.
///
/// Paper shape: deletions cost up to ~50% extra tail latency versus the
/// append-only run, but the overhead flattens quickly — it does *not*
/// keep growing with the deletion ratio (the window and Δ index shrink
/// as deletions increase).
fn fig10_deletions(scale: f64, out: &mut Table) -> Result<(), String> {
    let ds = build_dataset(DatasetKind::Yago, scale);
    let window = default_window(DatasetKind::Yago, &ds);
    println!("# Figure 10: tail latency vs explicit-deletion ratio (scale {scale})");
    for pct in [0u64, 2, 4, 6, 8, 10] {
        let stream = inject_deletions(&ds.tuples, pct as f64 / 100.0, 0xde1e + pct);
        for (qname, expr) in queries_for(DatasetKind::Yago) {
            let r = rapq(&expr, &ds, window, &stream, 1, 60);
            out.row(vec![
                ("deletion_pct", U(pct)),
                ("query", S(qname.into())),
                ("p99_us", F(r.p99_us())),
                ("mean_us", F(r.mean_us())),
                ("throughput_eps", D(r.throughput(), 0)),
                ("deletions", U(r.stats.deletions_processed)),
            ]);
        }
    }
    Ok(())
}

/// Figure 11: speed-up of incremental RAPQ over the per-tuple
/// re-evaluation baseline (the Virtuoso emulation of §5.6) on the
/// Yago-like stream.
///
/// Paper shape: RAPQ wins on every query, by up to three orders of
/// magnitude on throughput and tail latency — the baseline re-evaluates
/// the query over the whole window for each tuple and cannot reuse
/// previous computation.
///
/// The baseline doubles as an oracle: a `results_match=false` row is a
/// failed check (a baseline that ran out of time is not).
fn fig11_vs_reeval(scale: f64, out: &mut Table) -> Result<(), String> {
    // The baseline is O(n·m·k²) *per tuple*: run both systems on a
    // smaller stream than Figure 4 (the paper could afford 10M-edge
    // windows on Virtuoso because it ran for days; we keep minutes).
    let ds = build_dataset(DatasetKind::Yago, 0.05 * scale);
    let window = default_window(DatasetKind::Yago, &ds);
    println!("# Figure 11: RAPQ speed-up over per-tuple re-evaluation (scale {scale})");
    let mut mismatched = Vec::new();
    for (qname, expr) in queries_for(DatasetKind::Yago) {
        let inc = rapq(&expr, &ds, window, &ds.tuples, 1, 60);
        // Re-evaluation baseline with identical measurement protocol.
        let query = compile_query(&expr, &ds.labels);
        let mut base = ReevalEngine::new(query.clone(), window);
        let mut sink = CountSink::default();
        let mut latency = LatencyHistogram::new();
        let started = Instant::now();
        let mut completed = true;
        for &t in &ds.tuples {
            let t0 = query.dfa().knows_label(t.label).then(Instant::now);
            base.process(t, &mut sink);
            if let Some(t0) = t0 {
                latency.record(t0.elapsed().as_nanos() as u64);
            }
            if started.elapsed() > Duration::from_secs(120) {
                completed = false;
                break;
            }
        }
        let base_eps = latency.count() as f64 / started.elapsed().as_secs_f64();
        let base_p99 = latency.p99() as f64 / 1_000.0;
        let results_match = match completed {
            true => (base.result_count() as u64 == inc.results).to_string(),
            false => "baseline_timeout".to_string(),
        };
        if results_match == "false" {
            mismatched.push(qname);
        }
        out.row(vec![
            ("query", S(qname.into())),
            ("rapq_eps", D(inc.throughput(), 0)),
            ("reeval_eps", D(base_eps, 0)),
            ("speedup_throughput", F(ratio(inc.throughput(), base_eps))),
            ("rapq_p99_us", F(inc.p99_us())),
            ("reeval_p99_us", F(base_p99)),
            ("speedup_p99", F(ratio(base_p99, inc.p99_us()))),
            ("results_match", S(results_match)),
        ]);
    }
    if mismatched.is_empty() {
        return Ok(());
    }
    Err(format!("results differ from re-evaluation: {mismatched:?}"))
}

/// Table 1: empirical check of the amortized complexity bounds —
/// O(n·k²) per insertion, O(n²·k) per deletion.
///
/// We sweep the number of distinct vertices n in the window (by scaling
/// the Yago-like stream's vertex universe at a fixed edge count) and
/// report the mean per-tuple cost of the insert path and of the delete
/// path. The insert cost should grow sub-linearly to linearly in n; the
/// delete path (which may traverse and reconnect whole trees) grows
/// faster, consistent with the n² bound being loose in practice (the
/// paper itself notes the expiry analysis "is not tight").
fn table1_scaling(scale: f64, out: &mut Table) -> Result<(), String> {
    println!("# Table 1: per-tuple cost scaling with window vertex count (scale {scale})");
    println!("# (edges scale with vertices so the average degree stays constant;");
    println!("#  otherwise falling density masks the n-dependence)");
    for mult in [1u32, 2, 4, 8] {
        let n_edges = (10_000.0 * scale) as usize * mult as usize;
        let ds = yago::generate(&yago::YagoConfig {
            n_edges,
            n_vertices: 1_000 * mult,
            n_labels: 20,
            label_skew: 0.8,
            vertex_skew: 0.3,
            seed: 0x7ab1e,
        });
        let window = WindowPolicy::new((n_edges as i64 / 4).max(10), (n_edges as i64 / 40).max(1));
        // The insert path (a 2-star query exercising the traversal), also
        // through batched ingestion (identical result stream); then the
        // same stream with 10% negative tuples for the delete path.
        let deletions = inject_deletions(&ds.tuples, 0.10, 0x7ab1e);
        for (mode, stream, chunk) in [
            ("insert", &ds.tuples, 1),
            ("insert_batched", &ds.tuples, BATCH),
            ("insert+delete", &deletions, 1),
        ] {
            let r = rapq("happenedIn hasCapital*", &ds, window, stream, chunk, 60);
            out.row(vec![
                ("mode", S(mode.into())),
                ("n_vertices", U(1_000 * mult as u64)),
                ("window_nodes", U(r.peak_nodes as u64)),
                ("mean_us", D(r.mean_us(), 2)),
                ("p99_us", F(r.p99_us())),
            ]);
        }
    }
    Ok(())
}

/// Table 4: which queries can be evaluated under simple path semantics,
/// and the latency overhead of RSPQ relative to RAPQ.
///
/// Paper shape: all queries succeed on Yago (sparse, heterogeneous ⇒
/// conflict-free in practice) with 1.8–2.1× tail-latency overhead; on
/// SO only the restricted queries finish (1.4–5.4×); LDBC in between.
/// A query "fails" when conflicts make the run exceed its wall-clock
/// budget.
fn table4_rspq(scale: f64, out: &mut Table) -> Result<(), String> {
    println!("# Table 4: RSPQ feasibility & overhead vs RAPQ (scale {scale})");
    for (kind, name) in FAMILIES {
        let ds = build_dataset(kind, scale);
        let window = default_window(kind, &ds);
        for (qname, expr) in queries_for(kind) {
            let ra = rapq(&expr, &ds, window, &ds.tuples, 1, 30);
            // Conflicted instances are worst-case exponential *per
            // tuple*: cap the per-tuple Extend work so a "failed" query
            // reports as such instead of hanging (a query is successful
            // in Table 4's sense iff it never trips the budget).
            let query = compile_query(&expr, &ds.labels);
            let has_prop = query.has_containment_property();
            let mut config = EngineConfig::with_window(window);
            config.rspq_extend_budget = Some(300_000);
            let mut rspq = MultiQueryEngine::with_config(config);
            rspq.register(qname, query, PathSemantics::Simple)
                .expect("fresh engine");
            let rs = run_engine(&mut rspq, &ds.tuples, Duration::from_secs(30));
            out.row(vec![
                ("dataset", S(name.into())),
                ("query", S(qname.into())),
                ("rspq_ok", B(rs.completed && rs.stats.budget_exhausted == 0)),
                ("containment_property", B(has_prop)),
                ("conflicts", U(rs.stats.conflicts_detected)),
                ("p99_overhead", D(ratio(rs.p99_us(), ra.p99_us()), 2)),
                ("rapq_p99_us", F(ra.p99_us())),
                ("rspq_p99_us", F(rs.p99_us())),
            ]);
        }
    }
    Ok(())
}

/// Tables 2 and 3: the real-world query workload and its per-dataset
/// label bindings, printed for reference alongside each query's
/// compiled DFA size and containment-property flag.
fn workloads(_scale: f64, out: &mut Table) -> Result<(), String> {
    println!("# Tables 2 & 3: workload queries per dataset");
    for &(kind, name) in FAMILIES.iter().rev() {
        for (qname, expr) in queries_for(kind) {
            let q = compile_query(&expr, &LabelInterner::new());
            let containment = q.has_containment_property();
            out.row(vec![
                ("dataset", S(name.into())),
                ("query", S(qname.into())),
                ("expr", S(expr.clone())),
                ("k", U(q.k() as u64)),
                ("states_containment_property", B(containment)),
                ("recursive", B(q.regex().is_recursive())),
            ]);
        }
    }
    Ok(())
}

/// The first `scale` share of the dataset's stream, at least 2 000
/// tuples: the multi-query grids' input.
fn head(ds: &Dataset, scale: f64) -> &[StreamTuple] {
    let keep = ((ds.len() as f64 * scale.min(1.0)) as usize).max(2_000);
    &ds.tuples[..keep.min(ds.len())]
}

/// Feeds `tuples` to `engine` in [`BATCH`]-tuple batches, results
/// discarded (the engine is under measurement, not a sink), for at most
/// two minutes: returns the tuples fed, the seconds taken, and whether
/// the stream was fed whole.
fn feed(engine: &mut MultiQueryEngine, tuples: &[StreamTuple]) -> (u64, f64, bool) {
    let t0 = Instant::now();
    let mut fed = 0;
    for batch in tuples.chunks(BATCH) {
        engine.process_batch(batch, &mut NullMultiSink);
        fed += batch.len() as u64;
        if t0.elapsed() > Duration::from_secs(120) {
            return (fed, t0.elapsed().as_secs_f64(), false);
        }
    }
    (fed, t0.elapsed().as_secs_f64(), true)
}

/// Inter-query parallel evaluation scaling: aggregate tuples/s vs
/// worker count × registered-query count on the gMark workload.
///
/// Each grid point drives the same tuple stream through a
/// `MultiQueryEngine` at that worker count with the first `n_queries`
/// gMark smoke queries registered, batched ingestion. `workers = 0`
/// rows evaluate on the calling thread; `speedup` is relative to 1
/// worker (which isolates coordination overhead: 0-vs-1 workers is the
/// hand-off tax, 1-vs-N is scaling). CI uploads the `--json` rows as
/// `BENCH_multi_scaling.json`; the README scaling table comes from a
/// full-scale run.
fn multi_scaling(scale: f64, out: &mut Table) -> Result<(), String> {
    let (ds, queries) = gmark_fixture(1, 16);
    let tuples = head(&ds, scale);
    let window = gmark_window(tuples);
    println!(
        "# Inter-query parallel scaling: {} tuples, window {window:?}, batch {BATCH}",
        tuples.len()
    );
    for nq in [4usize, 8, 16] {
        let tps = |workers: usize| {
            let mut engine = MultiQueryEngine::new(window);
            engine.set_workers(workers);
            for (i, q) in queries[..nq].iter().enumerate() {
                let query = compile_query(&q.expr, &ds.labels);
                engine
                    .register(format!("g{i}"), query, PathSemantics::Arbitrary)
                    .expect("fresh names");
            }
            let (fed, secs, _) = feed(&mut engine, tuples);
            fed as f64 / secs
        };
        // Measured from the calling thread up; printed with it last.
        let seq = tps(0);
        let mut grid: Vec<(usize, f64)> = [1, 2, 4, 8].map(|w| (w, tps(w))).into();
        grid.push((0, seq));
        let one_worker = grid[0].1;
        for (workers, tps) in grid {
            out.row(vec![
                ("queries", U(nq as u64)),
                ("workers", U(workers as u64)),
                ("tuples", U(tuples.len() as u64)),
                ("tuples_per_s", D(tps, 0)),
                ("speedup_vs_1worker", D(tps / one_worker, 2)),
            ]);
        }
    }
    Ok(())
}

/// Multi-query sharing scaling: per-tuple cost and Δ footprint vs
/// registered-query count × duplication ratio.
///
/// Workloads with thousands of registered queries are dominated by
/// near-duplicates: dashboards and alerting rules instantiate the same
/// handful of path templates over and over. Each grid point registers
/// `n` queries drawn from a template pool — the duplication knob sets
/// how many *distinct* templates the pool contributes — and drives the
/// same gMark tuple stream through one engine, whose canonical-signature
/// grouping collapses equal-language registrations onto one Δ forest:
/// cost and memory scale with *groups*, not queries.
///
/// Reported per row: evaluation groups actually live, per-tuple cost,
/// live Δ nodes, and arena bytes. The headline claim this reproduces:
/// at high duplication, per-tuple cost grows only with the template
/// count as registrations grow 1k → 10k.
///
/// The check is CI's memory gate: arena bytes at the 4k
/// fully-duplicated point must stay within 2× of the 8-query footprint
/// (the forests are the same eight; sharing must not re-materialize
/// them per subscriber).
fn mqo_scaling(scale: f64, out: &mut Table) -> Result<(), String> {
    /// Distinct templates behind the fully-duplicated points — the
    /// "eight dashboards, thousands of instantiations" shape.
    const TEMPLATES: usize = 8;
    // A pool of distinct templates: the first TEMPLATES are the
    // duplicated "dashboard" set, the rest feed the mixed points.
    let (ds, pool) = gmark_fixture(1, 64);
    let tuples = head(&ds, scale);
    let window = gmark_window(tuples);
    // The registration grid scales with the knob so CI smoke stays
    // cheap (0.05 → 50 / 200 / 500) while a full run hits 1k/4k/10k.
    let counts =
        [1_000usize, 4_000, 10_000].map(|c| ((c as f64 * scale).round() as usize).clamp(16, c));
    println!(
        "# MQO sharing scaling: {} tuples, window {window:?}, batch {BATCH}, grid {counts:?}",
        tuples.len()
    );
    // Registers `n` queries cycling over the first `distinct` pool
    // expressions and drives the stream through.
    let run = |n: usize, distinct: usize| {
        let mut engine = MultiQueryEngine::new(window);
        for i in 0..n {
            let query = compile_query(&pool[i % distinct].expr, &ds.labels);
            engine
                .register(format!("q{i}"), query, PathSemantics::Arbitrary)
                .expect("template registers");
        }
        let fed = feed(&mut engine, tuples);
        (engine, fed)
    };
    // The reference footprint the gate compares against: the eight
    // distinct templates, one registration each.
    let footprint = run(TEMPLATES, TEMPLATES).0.total_index_size().arena_bytes;
    eprintln!("# footprint({TEMPLATES} queries): {footprint} arena bytes");
    let mut gated = 0;
    for n in counts {
        // High duplication: every registration instantiates one of the
        // eight templates. Mixed: up to the whole pool's templates.
        for distinct in [TEMPLATES, pool.len().min(n)] {
            let (engine, (fed, secs, completed)) = run(n, distinct);
            let size = engine.total_index_size();
            if n == counts[1] && distinct == TEMPLATES {
                gated = size.arena_bytes;
            }
            out.row(vec![
                ("queries", U(n as u64)),
                ("dup_pct", U((100 * (n - distinct) / n) as u64)),
                ("groups", U(engine.groups_live() as u64)),
                ("tuples", U(fed)),
                ("per_tuple_ns", D(secs * 1e9 / fed.max(1) as f64, 0)),
                ("delta_nodes_live", U(size.nodes as u64)),
                ("arena_bytes", U(size.arena_bytes as u64)),
                ("completed", B(completed)),
            ]);
        }
    }
    let limit = footprint.max(1) * 2;
    eprintln!(
        "# gate: arena bytes at {} duplicated queries = {gated} (limit {limit})",
        counts[1]
    );
    if gated > limit {
        return Err(format!("MEMORY GATE FAILED: {gated} > 2 x {footprint}"));
    }
    eprintln!("# gate passed");
    Ok(())
}

/// Microbenches: the per-operation costs behind the figures, one row
/// per benchmark with its mean wall-clock time over a fixed number of
/// iterations after one warm-up run.
///
/// * `tuple_insert/*` — per-tuple RAPQ cost (Q2) on each dataset family
///   (the quantity Figure 4 aggregates), through a one-query engine;
/// * `window_management/expiry_pass` — one full expiry pass (Figure
///   6b's unit of work);
/// * `compile/*` — query registration: regex → minimal DFA +
///   containment table;
/// * `generators/*` — dataset generation throughput.
///
/// The streams are `build_dataset(kind, scale / 4)`; the `generators/*`
/// names are fixed labels for the scale-1 sizes (10k SO edges, 7.5k
/// LDBC events, 15k Yago edges).
fn micro(scale: f64, out: &mut Table) -> Result<(), String> {
    let families = [
        (DatasetKind::So, "so", "so_10k"),
        (DatasetKind::Ldbc, "ldbc", "ldbc_8k_events"),
        (DatasetKind::Yago, "yago", "yago_10k"),
    ];
    let load = |mut engine: MultiQueryEngine, ds: &Dataset| {
        for &t in &ds.tuples {
            engine.process(t, &mut NullMultiSink);
        }
        engine
    };
    for (kind, name, _) in families {
        let ds = build_dataset(kind, scale / 4.0);
        let (expr, span) = (&queries_for(kind)[1].1, span(&ds.tuples));
        let window = |slide| WindowPolicy::new((span / 5).max(5), slide);
        let engine = |slide| make_engine(expr, &ds, window(slide), PathSemantics::Arbitrary);
        let fresh = || engine((span / 50).max(1));
        time(out, &format!("tuple_insert/{name}"), 10, fresh, |e| {
            load(e, &ds)
        });
        if kind == DatasetKind::Yago {
            // Huge slide: no automatic expiry while loading, so the
            // measured pass does all the work at once.
            let loaded = || load(engine(span * 2), &ds);
            time(out, "window_management/expiry_pass", 10, loaded, |mut e| {
                e.expire_now(&mut NullMultiSink);
                e
            });
        }
    }
    for (name, expr) in [
        ("q1_star", "a*"),
        ("q3_two_stars", "a b* c*"),
        ("q9_alt_plus", "(a | b | c)+"),
        ("large", "(a | b) c* (d e)+ f? (g | h | i)*"),
    ] {
        let empty = LabelInterner::new();
        let compile = |()| compile_query(expr, &empty);
        time(out, &format!("compile/{name}"), 200, || (), compile);
    }
    for (kind, _, label) in families {
        let name = format!("generators/{label}");
        time(out, &name, 10, || (), |()| build_dataset(kind, scale / 4.0));
    }
    Ok(())
}

/// Times `iters` runs of `body` (after one warm-up call), where `setup`
/// builds the per-iteration input outside the timed section. `body`
/// returns its large state so deallocation also happens outside the
/// timed section (criterion's `BatchSize::LargeInput` discipline).
fn time<I, O>(
    out: &mut Table,
    name: &str,
    iters: u32,
    mut setup: impl FnMut() -> I,
    mut body: impl FnMut(I) -> O,
) {
    body(setup());
    let mut total = Duration::ZERO;
    for _ in 0..iters {
        let input = setup();
        let t0 = Instant::now();
        let keep = body(input);
        total += t0.elapsed();
        drop(keep);
    }
    out.row(vec![
        ("name", S(name.into())),
        ("ns_per_iter", F((total / iters).as_nanos() as f64)),
        ("iters", U(iters.into())),
    ]);
}
