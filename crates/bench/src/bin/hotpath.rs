//! Hot-path microbenchmark: interleaved A/B of the extend/expire fast
//! path against a pre-change baseline binary.
//!
//! Six timed rows plus one allocation-count row. Every row drives
//! `MultiQueryEngine`, the one engine every host runs; all but
//! `multi_agg`, `delete_churn`, `tree_churn` and `alloc_steady` run
//! each query alone on a one-query engine (`make_engine`), tuple by
//! tuple (`run_engine`), over the gMark smoke fixture:
//!
//! - `aggregate`    — the 8-query single-thread smoke workload, one
//!   query at a time (the perf-trajectory anchor).
//! - `multi_agg`    — the same 8 queries through the shared-window
//!   `MultiQueryEngine`, the multi-query hot path the serving layer
//!   drives. This row pins the cost of the per-stage accounting
//!   (`StageTotals` deltas) that feeds the observability layer.
//! - `delete_churn` — `multi_agg` with 5 % explicit deletions injected
//!   (`srpq_datagen::inject_deletions`): each deletion severs subtrees
//!   in every group it routes to, then samples the arena gauges.
//! - `tree_churn`   — the eight `shared_fanout` templates of the served
//!   benchmark, one group each, over a gMark `ldbc_like` stream whose
//!   window holds about 1 % of the graph: nearly every vertex sits in
//!   one tree, and every slide drops and re-roots thousands of pooled
//!   trees. Dominated by reverse-index bookkeeping and tree re-rooting,
//!   which the fixture-sized rows barely exercise.
//! - `expiry_scan`  — slide β = 1, so every timestamp advance runs a
//!   window slide: dominated by the Δ-arena threshold scan.
//! - `extend_loop`  — window larger than the stream, so nothing ever
//!   expires: dominated by tree extension and its membership guards.
//! - `alloc_steady` — replays a ring stream five times (shifted in
//!   time) through a one-query engine; heap allocations are counted
//!   during the last cycle only, when every arena, scratch vector, and
//!   hash table is warm.
//!
//! Modes:
//!
//! ```text
//! hotpath                          run every row in-process, print a table
//! hotpath --row <name>             raw mode: one row, one "ROW ..." line
//! hotpath --baseline <binary>      orchestrate: interleave self vs the
//!                                  given binary, write BENCH_hotpath.json
//! ```
//!
//! Raw mode prints `ROW <name> <relevant_tuples> <elapsed_ns> <allocs>`
//! so the orchestrator (and CI) can parse results from either binary.
//! The source intentionally sticks to APIs the baseline also has —
//! `make_engine`/`run_engine` with the engine type left to inference,
//! `MultiQueryEngine`, `MultiSink`, `inject_deletions` — so the
//! identical file builds in the baseline worktree.

use srpq_bench::{compile_query, gmark_fixture, jsonout, make_engine, run_engine};
use srpq_common::{LabelInterner, ResultPair, StreamTuple, Timestamp, VertexId};
use srpq_core::multi::{MultiQueryEngine, MultiSink, QueryId};
use srpq_core::PathSemantics;
use srpq_datagen::gmark::SyntheticQuery;
use srpq_datagen::Dataset;
use srpq_graph::WindowPolicy;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// Wall-clock guard per timed row (RSPQ-free rows finish in seconds).
const BUDGET: Duration = Duration::from_secs(120);

/// Row names in execution order.
const ROWS: [&str; 7] = [
    "aggregate",
    "multi_agg",
    "delete_churn",
    "tree_churn",
    "expiry_scan",
    "extend_loop",
    "alloc_steady",
];

// ---------------------------------------------------------------------
// Counting allocator: a pass-through over the system allocator that
// counts alloc/realloc calls while the toggle is up. The toggle is one
// relaxed load per allocation, and both A and B binaries carry it, so
// timed rows stay comparable.

struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);

/// With `HOTPATH_TRACE=N`, prints a backtrace for the first N counted
/// allocations — the tool for hunting a regression that reintroduces
/// per-tuple allocations. The thread-local guard stops the backtrace
/// machinery's own allocations from recursing.
fn maybe_trace() {
    use std::cell::Cell;
    thread_local! { static IN_TRACE: Cell<bool> = const { Cell::new(false) }; }
    static PRINTED: AtomicU64 = AtomicU64::new(0);
    IN_TRACE.with(|guard| {
        if guard.get() {
            return;
        }
        guard.set(true);
        let limit: u64 = std::env::var("HOTPATH_TRACE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        if PRINTED.fetch_add(1, Relaxed) < limit {
            eprintln!(
                "ALLOC #{}:\n{}",
                ALLOC_COUNT.load(Relaxed),
                std::backtrace::Backtrace::force_capture()
            );
        }
        guard.set(false);
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOC_COUNT.fetch_add(1, Relaxed);
            if TRACING.load(Relaxed) {
                maybe_trace();
            }
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            ALLOC_COUNT.fetch_add(1, Relaxed);
            if TRACING.load(Relaxed) {
                maybe_trace();
            }
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// Rows.

/// One measured row: relevant tuples processed, wall nanoseconds, and
/// (for `alloc_steady`) heap allocations counted in the steady cycle.
struct Row {
    tuples: u64,
    ns: u64,
    allocs: u64,
}

fn span_of(ds: &Dataset) -> i64 {
    ds.time_span().map(|(a, b)| (b - a).max(1)).unwrap_or(1)
}

fn run_row(name: &str, assert_zero_alloc: bool) -> Row {
    match name {
        "aggregate" => row_aggregate(),
        "multi_agg" => row_multi_agg(),
        "delete_churn" => row_delete_churn(),
        "tree_churn" => row_tree_churn(),
        "expiry_scan" => row_expiry_scan(),
        "extend_loop" => row_extend_loop(),
        "alloc_steady" => row_alloc_steady(assert_zero_alloc),
        other => panic!("unknown row {other:?} (rows: {ROWS:?})"),
    }
}

/// The fig4 gMark smoke workload: 8 synthetic queries, |W| = span/4,
/// β = span/40, sequential single-thread evaluation.
fn row_aggregate() -> Row {
    let (ds, queries) = gmark_fixture(1, 8);
    let span = span_of(&ds);
    let window = WindowPolicy::new((span / 4).max(4), (span / 40).max(1));
    let (mut tuples, mut ns) = (0u64, 0u64);
    for q in &queries {
        let mut engine = make_engine(&q.expr, &ds, window, PathSemantics::Arbitrary);
        let r = run_engine(&mut engine, &ds.tuples, BUDGET);
        tuples += r.tuples_relevant;
        ns += r.elapsed.as_nanos() as u64;
    }
    Row {
        tuples,
        ns,
        allocs: 0,
    }
}

/// Counts emissions, whatever the query tag.
struct CountMultiSink(u64);

impl MultiSink for CountMultiSink {
    fn emit(&mut self, _id: QueryId, _pair: ResultPair, _ts: Timestamp) {
        self.0 += 1;
    }
}

/// The same 8 queries sharing one window through `MultiQueryEngine`
/// (single thread, batched ingestion) — the multi-query hot path the
/// serving layer drives, including the per-batch stage accounting
/// (route/eval/expiry `StageTotals`) the observability layer reads.
/// Interleaved against the merge-base binary, this row bounds the
/// accounting overhead; CI fails if it regresses beyond noise.
fn row_multi_agg() -> Row {
    let (ds, queries) = gmark_fixture(1, 8);
    drive_multi(&ds, fixture_window(&ds), &arbitrary(&queries), &ds.tuples)
}

/// `multi_agg` over the fixture with 5 % explicit deletions: every
/// deletion runs Algorithm Delete in each group it routes to and then
/// refreshes that group's arena-occupancy gauges.
fn row_delete_churn() -> Row {
    let (ds, queries) = gmark_fixture(1, 8);
    let tuples = srpq_datagen::inject_deletions(&ds.tuples, 0.05, 0xde1);
    drive_multi(&ds, fixture_window(&ds), &arbitrary(&queries), &tuples)
}

/// The `shared_fanout` templates (`benchmark/src/workloads.rs`), each
/// registered once, over the first 200 000 tuples of that workload's
/// gMark graph (scale 300: 2.6M edges over 450k vertices) with its
/// window of 36 000 tuples sliding by 3 600: 55 slides, the first ten
/// filling the window. Once the window is full, the groups re-root
/// about one pooled tree per tuple between them — some 3 600 per
/// slide.
fn row_tree_churn() -> Row {
    const TEMPLATES: [(&str, PathSemantics); 8] = [
        ("knows+", PathSemantics::Arbitrary),
        ("hasMember knows*", PathSemantics::Arbitrary),
        ("replyOf* replyOfPost", PathSemantics::Arbitrary),
        ("replyOf+ hasCreator", PathSemantics::Arbitrary),
        ("containerOf hasTag", PathSemantics::Arbitrary),
        ("likes postedBy knows*", PathSemantics::Arbitrary),
        ("knows*", PathSemantics::Simple),
        ("replyOf* replyOfPost hasTag", PathSemantics::Simple),
    ];
    let ds = srpq_datagen::gmark::generate(&srpq_datagen::gmark::GmarkSchema::ldbc_like(300), 1);
    let window = WindowPolicy::new(36_000, 3_600);
    drive_multi(&ds, window, &TEMPLATES, &ds.tuples[..200_000])
}

/// The fixture rows' window: |W| = span/4, β = span/40.
fn fixture_window(ds: &Dataset) -> WindowPolicy {
    let span = span_of(ds);
    WindowPolicy::new((span / 4).max(4), (span / 40).max(1))
}

/// `queries` under arbitrary-path semantics.
fn arbitrary(queries: &[SyntheticQuery]) -> Vec<(&str, PathSemantics)> {
    queries
        .iter()
        .map(|q| (q.expr.as_str(), PathSemantics::Arbitrary))
        .collect()
}

/// Registers `queries` on one `MultiQueryEngine` over `window` and
/// drives `tuples` through it in 256-tuple batches.
fn drive_multi(
    ds: &Dataset,
    window: WindowPolicy,
    queries: &[(&str, PathSemantics)],
    tuples: &[StreamTuple],
) -> Row {
    let mut multi =
        srpq_core::MultiQueryEngine::with_config(srpq_core::EngineConfig::with_window(window));
    for (i, &(expr, semantics)) in queries.iter().enumerate() {
        multi
            .register(format!("q{i}"), compile_query(expr, &ds.labels), semantics)
            .expect("workload query registers");
    }
    let mut sink = CountMultiSink(0);
    let started = Instant::now();
    let mut driven = 0u64;
    for chunk in tuples.chunks(256) {
        multi.process_batch(chunk, &mut sink);
        driven += chunk.len() as u64;
        if started.elapsed() > BUDGET {
            break;
        }
    }
    Row {
        tuples: driven,
        ns: started.elapsed().as_nanos() as u64,
        allocs: 0,
    }
}

/// Slide β = 1: every distinct timestamp triggers a window slide, so
/// run time is dominated by the expiry pass over the arenas. Of the
/// workload's eight queries, the two that grow the largest Δ indexes
/// (tens of thousands of nodes) are the ones whose expiry actually
/// scans substantial arenas — the other six peak at a few hundred
/// nodes and would only measure per-sweep fixed overhead.
fn row_expiry_scan() -> Row {
    let (ds, queries) = gmark_fixture(1, 8);
    let span = span_of(&ds);
    let window = WindowPolicy::new((span / 4).max(4), 1);
    let (mut tuples, mut ns) = (0u64, 0u64);
    for q in [&queries[4], &queries[7]] {
        let mut engine = make_engine(&q.expr, &ds, window, PathSemantics::Arbitrary);
        let r = run_engine(&mut engine, &ds.tuples, BUDGET);
        tuples += r.tuples_relevant;
        ns += r.elapsed.as_nanos() as u64;
    }
    Row {
        tuples,
        ns,
        allocs: 0,
    }
}

/// Window wider than the stream: nothing expires, Δ only grows, and
/// run time is dominated by the extend loop and its membership guards.
fn row_extend_loop() -> Row {
    let (ds, queries) = gmark_fixture(1, 2);
    let span = span_of(&ds);
    let window = WindowPolicy::new(span * 2, span.max(1));
    let (mut tuples, mut ns) = (0u64, 0u64);
    for q in &queries {
        let mut engine = make_engine(&q.expr, &ds, window, PathSemantics::Arbitrary);
        let r = run_engine(&mut engine, &ds.tuples, BUDGET);
        tuples += r.tuples_relevant;
        ns += r.elapsed.as_nanos() as u64;
    }
    Row {
        tuples,
        ns,
        allocs: 0,
    }
}

/// Streams a ring graph (`i →a i+1 mod N`, one edge per tick) through
/// `a+`, alone on a one-query engine, with a window of half the ring:
/// every slide expires old edges, kills the trees rooted at them, and
/// re-grows identical trees at the younger vertices. By symmetry every
/// spanning tree has the same
/// shape, so after a few warm cycles every arena, pooled tree, scratch
/// vector, and hash table sits at its high-water mark and the cycle
/// repeats an identical operation sequence. Any allocation counted in
/// the final cycle is therefore a per-tuple allocation on the
/// steady-state extend/expire path.
fn row_alloc_steady(assert_zero: bool) -> Row {
    const N: u32 = 64;
    const CYCLES: i64 = 5;
    let mut labels = LabelInterner::default();
    let a = labels.intern("a");
    let window = WindowPolicy::new(i64::from(N) / 2, i64::from(N) / 8);
    let mut engine = MultiQueryEngine::new(window);
    engine
        .register(
            "ring",
            compile_query("a+", &labels),
            PathSemantics::Arbitrary,
        )
        .expect("ring query registers");
    let mut sink = CountMultiSink(0);
    let (mut tuples, mut ns, mut allocs) = (0u64, 0u64, 0u64);
    for cycle in 0..CYCLES {
        if cycle == CYCLES - 1 {
            ALLOC_COUNT.store(0, Relaxed);
            COUNTING.store(true, Relaxed);
        }
        let t0 = Instant::now();
        for i in 0..N {
            let ts = Timestamp(cycle * i64::from(N) + i64::from(i));
            let t = StreamTuple::insert(ts, VertexId(i), VertexId((i + 1) % N), a);
            engine.process(t, &mut sink);
        }
        if cycle == CYCLES - 1 {
            COUNTING.store(false, Relaxed);
            allocs = ALLOC_COUNT.load(Relaxed);
            tuples = u64::from(N);
            ns = t0.elapsed().as_nanos() as u64;
        }
    }
    if assert_zero {
        assert_eq!(
            allocs, 0,
            "steady-state extend/expire path performed heap allocations"
        );
    }
    Row { tuples, ns, allocs }
}

// ---------------------------------------------------------------------
// Orchestration.

/// Runs `bin --row <name>` and parses its `ROW ...` line.
fn run_subprocess(bin: &PathBuf, name: &str, assert_zero_alloc: bool) -> Row {
    let mut cmd = Command::new(bin);
    cmd.args(["--row", name]);
    if assert_zero_alloc {
        cmd.arg("--assert-zero-alloc");
    }
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        panic!(
            "{} --row {name} failed ({}):\n{stdout}\n{}",
            bin.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() != Some("ROW") {
            continue;
        }
        let row_name = parts.next().unwrap_or("");
        if row_name != name {
            continue;
        }
        let mut num = || {
            parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("malformed ROW line from {}: {line}", bin.display()))
        };
        return Row {
            tuples: num(),
            ns: num(),
            allocs: num(),
        };
    }
    panic!(
        "no ROW {name} line in output of {}:\n{stdout}",
        bin.display()
    );
}

fn throughput_eps(r: &Row) -> f64 {
    if r.ns == 0 {
        return 0.0;
    }
    r.tuples as f64 / (r.ns as f64 / 1e9)
}

/// Interleaves `rounds` runs of every row across both binaries,
/// alternating which goes first, and keeps the fastest run per
/// (binary, row). Interleaving shares thermal/background noise fairly;
/// best-of-N discards transient stalls.
fn orchestrate(baseline: PathBuf, rounds: u32, json: Option<PathBuf>) {
    let current = std::env::current_exe().expect("current_exe");
    let mut best: Vec<[Option<Row>; 2]> = ROWS.iter().map(|_| [None, None]).collect();
    for round in 0..rounds {
        for (ri, name) in ROWS.iter().enumerate() {
            // [0] = baseline, [1] = current; alternate launch order.
            let order: [usize; 2] = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            for which in order {
                let bin = if which == 0 { &baseline } else { &current };
                let assert_zero = which == 1 && *name == "alloc_steady";
                let r = run_subprocess(bin, name, assert_zero);
                eprintln!(
                    "round {round} {} {name}: {:.0} eps ({} allocs)",
                    if which == 0 { "baseline" } else { "current " },
                    throughput_eps(&r),
                    r.allocs,
                );
                let slot = &mut best[ri][which];
                if slot.as_ref().map(|b| r.ns < b.ns).unwrap_or(true) {
                    *slot = Some(r);
                }
            }
        }
    }
    let mut objs = Vec::new();
    println!("row,baseline_eps,current_eps,speedup,current_allocs");
    for (ri, name) in ROWS.iter().enumerate() {
        let (Some(b), Some(c)) = (&best[ri][0], &best[ri][1]) else {
            continue;
        };
        let (beps, ceps) = (throughput_eps(b), throughput_eps(c));
        let speedup = if beps > 0.0 { ceps / beps } else { 0.0 };
        println!("{name},{beps:.0},{ceps:.0},{speedup:.2},{}", c.allocs);
        for (binary, r, eps) in [("baseline", b, beps), ("current", c, ceps)] {
            objs.push(jsonout::obj(&[
                ("row", jsonout::Val::S(name.to_string())),
                ("binary", jsonout::Val::S(binary.to_string())),
                ("tuples", jsonout::Val::U(r.tuples)),
                ("ns", jsonout::Val::U(r.ns)),
                ("throughput_eps", jsonout::Val::F(eps)),
                ("allocs", jsonout::Val::U(r.allocs)),
                ("speedup", jsonout::Val::F(speedup)),
            ]));
        }
    }
    let path = json.unwrap_or_else(|| PathBuf::from("BENCH_hotpath.json"));
    jsonout::write_array(&path, &objs).expect("write JSON report");
    eprintln!("wrote {}", path.display());
}

// ---------------------------------------------------------------------

fn main() {
    if std::env::var("HOTPATH_TRACE").is_ok() {
        TRACING.store(true, Relaxed);
    }
    let mut args = std::env::args().skip(1);
    let mut row: Option<String> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut rounds = 3u32;
    let mut assert_zero_alloc = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--row" => row = args.next(),
            "--baseline" => baseline = args.next().map(PathBuf::from),
            "--json" => json = args.next().map(PathBuf::from),
            "--rounds" => rounds = args.next().and_then(|s| s.parse().ok()).unwrap_or(rounds),
            "--assert-zero-alloc" => assert_zero_alloc = true,
            other => panic!("unknown argument {other:?}"),
        }
    }
    match (row, baseline) {
        (Some(name), _) => {
            let r = run_row(&name, assert_zero_alloc);
            println!("ROW {name} {} {} {}", r.tuples, r.ns, r.allocs);
        }
        (None, Some(bin)) => orchestrate(bin, rounds.max(1), json),
        (None, None) => {
            println!("row,tuples,eps,allocs");
            for name in ROWS {
                let r = run_row(name, assert_zero_alloc);
                println!("{name},{},{:.0},{}", r.tuples, throughput_eps(&r), r.allocs);
            }
        }
    }
}
