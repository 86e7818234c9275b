//! Subcommand implementations.

use crate::args::Args;
use crate::streamfile;
use srpq_automata::CompiledQuery;
use srpq_common::{LabelInterner, LatencyHistogram, ResultPair, StreamTuple, Timestamp};
use srpq_core::engine::{Engine, PathSemantics};
use srpq_core::multi::{MultiQueryEngine, MultiSink};
use srpq_core::sink::CountSink;
use srpq_core::{EngineConfig, QueryId};
use srpq_datagen::{gmark, ldbc, so, yago, Dataset};
use srpq_graph::WindowPolicy;
use srpq_obs::{Journal, Obs};
use srpq_persist::{CheckpointStrategy, DurabilityConfig, Durable, Host, SyncPolicy};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const USAGE: &str = "usage:
  srpq gen --dataset so|ldbc|yago|gmark --out FILE [--edges N] [--seed S]
  srpq info --stream FILE
  srpq explain QUERY
  srpq run --query QUERY --stream FILE [--window W] [--slide B]
           [--semantics arbitrary|simple] [--print-results] [--limit N]
           [--batch N] [--stats] [--stats-json FILE] [--trace]
           [--workers N]
           [--wal-dir DIR [--checkpoint-every N] [--sync none|batch|always]
            [--checkpoint logical|full] [--segment-bytes N]]
  srpq recover --wal-dir DIR --stream FILE [--batch N] [--print-results]
           [--limit N] [--stats] [--stats-json FILE] [--trace] [--sync ...]
           [--checkpoint ...] [--checkpoint-every N] [--segment-bytes N]
           [--workers N]
  srpq wal-info --wal-dir DIR
  srpq serve --listen ADDR --window W [--slide B]
           [--workers N] [--wal-dir DIR [--sync ...] [--checkpoint ...]
            [--checkpoint-every N] [--segment-bytes N]]
           [--metrics-addr ADDR] [--trace-sample N]
  srpq ingest --connect ADDR --stream FILE [--batch N] [--limit N]
           [--resume] [--drain]
  srpq subscribe --connect ADDR [--queries a,b] [--policy block|drop]
           [--capacity N] [--tag] [--invalidations]
  srpq query add --connect ADDR --name N --query Q
           [--semantics arbitrary|simple] [--backfill]
  srpq query remove --connect ADDR --name N
  srpq query list --connect ADDR
  srpq ctl drain|checkpoint|shutdown|stats|metrics|trace --connect ADDR
  srpq ctl events --connect ADDR [--since SEQ]
  srpq ctl explain NAME --connect ADDR [--json]";

/// A verb's standard output: every verb writes through this one
/// fallible writer, never `println!`.
pub(crate) type Out<'a> = &'a mut dyn Write;

/// The error a failed write to a verb's output ends it with (a reader
/// that closed the pipe early is one).
pub(crate) fn output_error(e: std::io::Error) -> String {
    format!("writing output: {e}")
}

/// Dispatches a command line, writing its output to `out`. A verb reads
/// exactly the options its usage lines name, and any other option is
/// refused.
pub fn dispatch(argv: &[String], out: Out) -> Result<(), String> {
    let mut args = Args::parse(argv);
    let verb = args.positional.first().cloned().unwrap_or_default();
    let run: fn(&Args, Out) -> Result<(), String> = match verb.as_str() {
        "gen" => cmd_gen,
        "info" => cmd_info,
        "explain" => cmd_explain,
        "run" => cmd_run,
        "recover" => cmd_recover,
        "wal-info" => cmd_wal_info,
        "serve" => crate::net::cmd_serve,
        "ingest" => crate::net::cmd_ingest,
        "subscribe" => crate::net::cmd_subscribe,
        "query" => crate::net::cmd_query,
        "ctl" => crate::net::cmd_ctl,
        "" => return Err(USAGE.to_string()),
        other => return Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    args.restrict(&verb, options_of(&verb))?;
    run(&args, out)
}

/// Every `--key` the [`USAGE`] lines of `verb` name.
fn options_of(verb: &str) -> Vec<&'static str> {
    let mut current = "";
    let mut keys = Vec::new();
    for line in USAGE.lines().skip(1) {
        if let Some(rest) = line.trim_start().strip_prefix("srpq ") {
            current = rest.split(' ').next().unwrap_or_default();
        }
        if current == verb {
            let words = line.split(|c: char| c.is_whitespace() || "[]|".contains(c));
            keys.extend(words.filter_map(|w| w.strip_prefix("--")));
        }
    }
    keys
}

/// Parses the shared durability options.
pub(crate) fn durability_config(args: &Args) -> Result<DurabilityConfig, String> {
    let sync = match args.get("sync") {
        None => SyncPolicy::Batch,
        Some(s) => SyncPolicy::parse(s).ok_or(format!("unknown --sync {s:?}"))?,
    };
    let strategy = match args.get("checkpoint") {
        None => CheckpointStrategy::Logical,
        Some(s) => CheckpointStrategy::parse(s).ok_or(format!("unknown --checkpoint {s:?}"))?,
    };
    let checkpoint_every: u64 = args.get_num("checkpoint-every", 8u64)?;
    Ok(DurabilityConfig {
        sync,
        strategy,
        checkpoint_every,
        segment_bytes: args.get_num("segment-bytes", 4u64 << 20)?,
    })
}

fn cmd_gen(args: &Args, out: Out) -> Result<(), String> {
    let kind = args.require("dataset")?;
    let path = args.require("out")?.to_string();
    let edges: usize = args.get_num("edges", 50_000usize)?;
    let seed: u64 = args.get_num("seed", 42u64)?;
    let ds: Dataset = match kind {
        "so" => so::generate(&so::SoConfig {
            n_users: (edges / 20).max(10) as u32,
            n_edges: edges,
            duration: (edges as i64) * 2,
            seed,
            preferential: 0.7,
        }),
        "ldbc" => ldbc::generate(&ldbc::LdbcConfig {
            n_events: (edges * 2) / 3,
            seed_persons: (edges / 50).max(10) as u32,
            duration: (edges as i64) * 2,
            seed,
        }),
        "yago" => yago::generate(&yago::YagoConfig {
            n_edges: edges,
            n_vertices: (edges / 3).max(10) as u32,
            n_labels: 100,
            label_skew: 1.1,
            vertex_skew: 0.6,
            seed,
        }),
        "gmark" => {
            let scale = ((edges as f64 / 15_000.0).sqrt().ceil() as u32).max(1);
            gmark::generate(&gmark::GmarkSchema::ldbc_like(scale), seed)
        }
        other => return Err(format!("unknown dataset {other:?}")),
    };
    streamfile::save(&ds, Path::new(&path))?;
    outln!(
        out,
        "wrote {}: {} tuples, {} labels, {} vertices",
        path,
        ds.len(),
        ds.labels.len(),
        ds.n_vertices
    );
    Ok(())
}

fn cmd_info(args: &Args, out: Out) -> Result<(), String> {
    let path = args.require("stream")?.to_string();
    let (labels, tuples) = streamfile::load(Path::new(&path))?;
    let (first, last) = match (tuples.first(), tuples.last()) {
        (Some(a), Some(b)) => (a.ts.0, b.ts.0),
        _ => (0, 0),
    };
    let deletions = tuples.iter().filter(|t| !t.is_insert()).count();
    outln!(out, "stream:    {path}");
    outln!(out, "tuples:    {} ({} deletions)", tuples.len(), deletions);
    outln!(out, "labels:    {}", labels.len());
    outln!(out, "timespan:  [{first}, {last}]");
    let mut counts: Vec<(usize, String)> = Vec::new();
    for (label, name) in labels.iter() {
        let c = tuples.iter().filter(|t| t.label == label).count();
        counts.push((c, name.to_string()));
    }
    counts.sort_unstable_by(|a, b| b.cmp(a));
    outln!(out, "top labels:");
    for (c, name) in counts.iter().take(10) {
        outln!(out, "  {name:<24} {c}");
    }
    Ok(())
}

fn cmd_explain(args: &Args, out: Out) -> Result<(), String> {
    let query = args
        .positional
        .get(1)
        .ok_or("explain needs a query argument")?;
    let mut labels = LabelInterner::new();
    let compiled = CompiledQuery::compile(query, &mut labels).map_err(|e| e.to_string())?;
    outln!(out, "query:       {}", compiled.regex());
    outln!(out, "size |Q|:    {}", compiled.regex().size());
    outln!(out, "recursive:   {}", compiled.regex().is_recursive());
    outln!(out, "DFA states:  {}", compiled.k());
    outln!(out, "containment: {}", compiled.has_containment_property());
    outln!(out, "accepts ε:   {}", compiled.dfa().accepts_empty());
    outln!(out, "\ntransitions (minimal DFA):");
    for (s, l, t) in compiled.dfa().transitions() {
        let marker = |x: srpq_common::StateId| {
            let mut m = String::new();
            if x == compiled.dfa().start() {
                m.push('^');
            }
            if compiled.dfa().is_accepting(x) {
                m.push('*');
            }
            m
        };
        outln!(
            out,
            "  s{}{} --{}--> s{}{}",
            s.0,
            marker(s),
            labels.resolve(l).unwrap_or("?"),
            t.0,
            marker(t),
        );
    }
    outln!(out, "\ndot:");
    outln!(out, "{}", dfa_dot(&compiled, &labels));
    Ok(())
}

/// Renders the DFA as Graphviz dot.
fn dfa_dot(q: &CompiledQuery, labels: &LabelInterner) -> String {
    let dfa = q.dfa();
    let mut out = String::from("digraph dfa {\n  rankdir=LR;\n  start [shape=point];\n");
    for s in 0..dfa.n_states() {
        let s = srpq_common::StateId(s as u32);
        let shape = if dfa.is_accepting(s) {
            "doublecircle"
        } else {
            "circle"
        };
        out.push_str(&format!("  s{} [shape={shape}];\n", s.0));
    }
    out.push_str(&format!("  start -> s{};\n", dfa.start().0));
    for (s, l, t) in dfa.transitions() {
        out.push_str(&format!(
            "  s{} -> s{} [label=\"{}\"];\n",
            s.0,
            t.0,
            labels.resolve(l).unwrap_or("?")
        ));
    }
    out.push('}');
    out
}

fn cmd_run(args: &Args, out: Out) -> Result<(), String> {
    let query_src = args.require("query")?.to_string();
    let path = args.require("stream")?.to_string();
    let (mut labels, tuples) = streamfile::load(Path::new(&path))?;
    let span = match (tuples.first(), tuples.last()) {
        (Some(a), Some(b)) => (b.ts.0 - a.ts.0).max(1),
        _ => 1,
    };
    let window: i64 = args.get_num("window", span / 10)?;
    let slide: i64 = args.get_num("slide", (window / 10).max(1))?;
    let semantics = match args.get("semantics").unwrap_or("arbitrary") {
        "arbitrary" => PathSemantics::Arbitrary,
        "simple" => PathSemantics::Simple,
        other => return Err(format!("unknown semantics {other:?}")),
    };
    let (batch, workers) = drive_options(args)?;

    // Check the query speaks the stream's vocabulary *before* compiling
    // (compilation interns missing labels).
    let parsed = srpq_automata::parse(&query_src).map_err(|e| e.to_string())?;
    for name in parsed.alphabet() {
        if labels.get(name).is_none() {
            return Err(format!("label {name:?} does not occur in the stream"));
        }
    }
    let query = CompiledQuery::from_regex(parsed, &mut labels);
    let config = EngineConfig::with_window(WindowPolicy::new(window.max(1), slide.max(1)));
    // The single query rides the one engine every host runs.
    let mut multi = MultiQueryEngine::with_config(config);
    let id = multi
        .register("cli", query, semantics)
        .expect("fresh engine has no duplicate names");
    let host = match args.get("wal-dir") {
        Some(dir) => Host::from(
            Durable::create(multi, Path::new(dir), durability_config(args)?)
                .map_err(|e| e.to_string())?,
        ),
        None => Host::from(multi),
    };
    drive_and_report(args, out, host, id, &tuples, 0, batch, workers)
}

fn cmd_recover(args: &Args, out: Out) -> Result<(), String> {
    let wal_dir = args.require("wal-dir")?.to_string();
    let path = args.require("stream")?.to_string();
    let (mut labels, tuples) = streamfile::load(Path::new(&path))?;
    let (batch, workers) = drive_options(args)?;
    // The directory holds the same state `serve` writes, whatever
    // `--workers` wrote it; the worker count is this run's choice.
    let (durable, report) =
        Durable::recover(Path::new(&wal_dir), &mut labels, durability_config(args)?)
            .map_err(|e| e.to_string())?;
    // Offline recover drives exactly one query (results print
    // untagged); a multi-query directory — e.g. one written by
    // `serve` — must be refused, not silently merged.
    let id = match durable.inner().query_ids().as_slice() {
        [] => return Err("recovered multi-host state holds no live query".into()),
        [id] => *id,
        many => {
            return Err(format!(
                "recovered state holds {} live queries; `recover` drives exactly one \
                 (untagged output) — restart this directory with `serve --workers N` instead",
                many.len()
            ))
        }
    };
    eprintln!(
        "recovered:    checkpoint @{} ({}), {} WAL tuples replayed in {} ms",
        report.checkpoint_seq, report.strategy, report.replayed_tuples, report.elapsed_ms
    );
    let resume = report.resume_seq as usize;
    if resume > tuples.len() {
        return Err(format!(
            "durable state covers {} tuples but the stream file holds only {}",
            resume,
            tuples.len()
        ));
    }
    eprintln!(
        "resuming:     stream position {resume} of {} ({} tuples left)",
        tuples.len(),
        tuples.len() - resume
    );
    let host = Host::from(durable);
    drive_and_report(args, out, host, id, &tuples, resume, batch, workers)
}

/// `(--batch, --workers)`, read before anything touches a state
/// directory; a batch of 0 is refused.
fn drive_options(args: &Args) -> Result<(usize, usize), String> {
    match args.get_num("batch", 1usize)? {
        0 => Err("--batch must be at least 1".to_string()),
        batch => Ok((batch, args.get_num("workers", 0usize)?)),
    }
}

fn cmd_wal_info(args: &Args, out: Out) -> Result<(), String> {
    let dir = Path::new(args.require("wal-dir")?);
    // Strictly read-only: no directory creation, no torn-tail repair —
    // inspecting post-crash state must not alter it.
    let (info, batches) = srpq_persist::Wal::inspect(dir).map_err(|e| e.to_string())?;
    outln!(out, "wal dir:     {}", dir.display());
    outln!(out, "segments:    {}", info.segments);
    outln!(out, "records:     {}", info.records);
    outln!(out, "tuples:      {}", info.tuples);
    outln!(out, "bytes:       {}", info.bytes);
    outln!(
        out,
        "seq range:   [{}, {})",
        info.seq_range.0,
        info.seq_range.1
    );
    match info.ts_range {
        Some((lo, hi)) => outln!(out, "ts range:    [{lo}, {hi}]"),
        None => outln!(out, "ts range:    (empty)"),
    }
    let deletions: u64 = batches
        .iter()
        .flat_map(|b| &b.tuples)
        .filter(|t| !t.is_insert())
        .count() as u64;
    outln!(out, "deletions:   {deletions}");
    match srpq_persist::checkpoint::load_latest(dir).map_err(|e| e.to_string())? {
        Some((header, payload)) => {
            outln!(
                out,
                "checkpoint:  seq {} ({}, {} bytes)",
                header.seq,
                header.strategy,
                payload.len()
            );
            if header.seq < info.seq_range.1 {
                outln!(
                    out,
                    "recovery:    would replay {} tuples on top of the checkpoint",
                    info.seq_range.1 - header.seq
                );
            } else {
                outln!(out, "recovery:    checkpoint covers the whole log");
            }
        }
        None => outln!(
            out,
            "checkpoint:  (none — this directory is not recoverable)"
        ),
    }
    Ok(())
}

/// The tail `run` and `recover` share once the host stands: drives
/// `tuples[start..]` (capped by `--limit`) through the host's one query
/// `id` on `--workers` threads (0 = this one; byte-identical output at
/// any count, see README), then prints the summary, the `--trace`
/// journal and the `--stats-json` file.
#[allow(clippy::too_many_arguments)]
fn drive_and_report(
    args: &Args,
    out: Out,
    mut host: Host,
    id: QueryId,
    tuples: &[StreamTuple],
    start: usize,
    batch: usize,
    workers: usize,
) -> Result<(), String> {
    host.engine_mut().set_workers(workers);
    // `--trace` journals slides and compactions through `Host::observe`,
    // the diff the server's engine thread runs, and a durable host's
    // checkpoints and recovery through its own hooks — the offline run
    // and a live server write one and the same event stream.
    let obs = args.flag("trace").then(Obs::new);
    if let Some(obs) = &obs {
        host.set_obs(obs.clone());
    }
    let end = tuples
        .len()
        .min(start.saturating_add(args.get_num("limit", usize::MAX)?));
    let outcome = drive_stream(
        &mut host,
        id,
        &tuples[start.min(end)..end],
        start,
        batch,
        args.flag("print-results").then_some(out),
        obs.as_ref().map(Obs::journal),
    )?;
    let stats = stats_list(&host, id, &outcome);
    print_summary(args, &host, id, batch, &outcome, &stats);
    if let Some(obs) = &obs {
        for e in obs.journal().since(0) {
            eprintln!("trace #{:<5} {:<21} {}", e.seq, e.kind.name(), e.detail);
        }
    }
    if let Some(path) = args.get("stats-json") {
        write_stats_json(path, &stats)?;
        eprintln!("stats json:   {path}");
    }
    Ok(())
}

/// The group engine evaluating the host's query `id`.
fn query_engine(host: &Host, id: QueryId) -> &Engine {
    host.engine().engine(id).expect("query registered")
}

/// Tuples no query spoke the label of (never routed, never stored).
fn discarded(host: &Host) -> u64 {
    let (seen, routed) = host.engine().routing_stats();
    seen - routed
}

/// What one drive produced (for the summary footer).
struct RunOutcome {
    processed: usize,
    relevant: u64,
    histogram: LatencyHistogram,
    elapsed: std::time::Duration,
}

/// Drives `slice` (stream positions from `start`) through the host in
/// `batch`-sized chunks, measuring mean per-relevant-tuple latency per
/// chunk, printing results into `print` when given, and journaling each
/// chunk's slides and compactions into `trace`.
fn drive_stream(
    host: &mut Host,
    id: QueryId,
    slice: &[StreamTuple],
    start: usize,
    batch: usize,
    print: Option<Out>,
    trace: Option<&Journal>,
) -> Result<RunOutcome, String> {
    let started = Instant::now();
    let (histogram, relevant) = if let Some(out) = print {
        let mut sink = PrintSink { out, failed: None };
        let drove = chunk_loop(host, id, slice, start, batch, &mut sink, trace)?;
        if let Some(e) = sink.failed {
            return Err(output_error(e));
        }
        drove
    } else {
        let mut count = CountSink::default();
        chunk_loop(host, id, slice, start, batch, &mut count, trace)?
    };
    Ok(RunOutcome {
        processed: slice.len(),
        relevant,
        histogram,
        elapsed: started.elapsed(),
    })
}

/// `--print-results`: writes each emission of the one query to stdout
/// as it arrives (invalidations are not printed). The first write error
/// stops the output and is reported after the drive.
struct PrintSink<W: Write> {
    out: W,
    failed: Option<std::io::Error>,
}

impl<W: Write> MultiSink for PrintSink<W> {
    fn emit(&mut self, _id: QueryId, p: ResultPair, ts: Timestamp) {
        if self.failed.is_none() {
            let line = writeln!(self.out, "[{ts}] + ({}, {})", p.src.0, p.dst.0);
            self.failed = line.err();
        }
    }
}

/// [`drive_stream`]'s loop over one sink type: the per-relevant-tuple
/// latency histogram and the relevant-tuple count.
fn chunk_loop<S: MultiSink>(
    host: &mut Host,
    id: QueryId,
    slice: &[StreamTuple],
    start: usize,
    batch: usize,
    sink: &mut S,
    trace: Option<&Journal>,
) -> Result<(LatencyHistogram, u64), String> {
    let mut histogram = LatencyHistogram::new();
    let mut relevant = 0u64;
    let mut pos = start;
    for chunk in slice.chunks(batch) {
        let dfa = query_engine(host, id).query().dfa();
        let chunk_relevant = chunk.iter().filter(|t| dfa.knows_label(t.label)).count() as u64;
        relevant += chunk_relevant;
        let t0 = Instant::now();
        host.process_batch(chunk, sink).map_err(|e| e.to_string())?;
        if let Some(per_tuple) = (t0.elapsed().as_nanos() as u64).checked_div(chunk_relevant) {
            histogram.record(per_tuple);
        }
        pos += chunk.len();
        if let Some(journal) = trace {
            host.observe(journal, format_args!("pos={pos}"));
        }
    }
    Ok((histogram, relevant))
}

/// Every counter `--stats` and `--stats-json` report, listed once:
/// `--stats` prints them in this order, `--stats-json` sorted by key.
fn stats_list(host: &Host, id: QueryId, outcome: &RunOutcome) -> Vec<(&'static str, u64)> {
    let engine = query_engine(host, id);
    let stats = engine.stats();
    let index = engine.index_size();
    let wal = host.counters();
    vec![
        ("tuples_processed", stats.tuples_processed),
        ("tuples_discarded", discarded(host)),
        ("deletions_processed", stats.deletions_processed),
        ("insert_calls", stats.insert_calls),
        ("results_emitted", stats.results_emitted),
        ("results_invalidated", stats.results_invalidated),
        ("expiry_runs", stats.expiry_runs),
        ("nodes_expired", stats.nodes_expired),
        ("expiry_nanos", stats.expiry_nanos),
        ("conflicts_detected", stats.conflicts_detected),
        ("nodes_unmarked", stats.nodes_unmarked),
        ("budget_exhausted", stats.budget_exhausted),
        ("tuples_routed", stats.tuples_routed),
        ("eval_ns", stats.eval_ns),
        ("delta_nodes_live", stats.delta_nodes_live),
        ("delta_capacity", stats.delta_capacity),
        ("compactions", stats.compactions),
        ("index_trees", index.trees as u64),
        ("index_nodes", index.nodes as u64),
        ("index_arena_bytes", index.arena_bytes as u64),
        ("index_result_bytes", index.result_bytes as u64),
        ("index_reverse_bytes", index.reverse_index_bytes as u64),
        (
            "graph_heap_bytes",
            host.engine().graph().heap_bytes() as u64,
        ),
        ("wal_bytes", wal.wal_bytes),
        ("wal_appends", wal.wal_appends),
        ("fsyncs", wal.fsyncs),
        ("checkpoints_written", wal.checkpoints_written),
        ("last_recovery_ms", wal.last_recovery_ms),
        ("tuples_driven", outcome.processed as u64),
        ("tuples_relevant", outcome.relevant),
        ("results_live", engine.result_count() as u64),
        ("elapsed_ns", outcome.elapsed.as_nanos() as u64),
        ("latency_p50_ns", outcome.histogram.quantile(0.5)),
        ("latency_p99_ns", outcome.histogram.p99()),
    ]
}

/// `--stats-json`: [`stats_list`] as one JSON object, sorted by key
/// (hand-rolled — every value is an integer, so no escaping is needed).
fn write_stats_json(path: &str, stats: &[(&str, u64)]) -> Result<(), String> {
    let mut fields = stats.to_vec();
    fields.sort_unstable_by_key(|&(k, _)| k);
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))
}

fn print_summary(
    args: &Args,
    host: &Host,
    id: QueryId,
    batch: usize,
    outcome: &RunOutcome,
    stats: &[(&str, u64)],
) {
    let engine = query_engine(host, id);
    let window = host.engine().window();
    eprintln!("--");
    eprintln!("query:        {}", engine.query().regex());
    eprintln!(
        "semantics:    {:?}  window |W|={} slide β={}  batch={batch}",
        engine.semantics(),
        window.window_size,
        window.slide
    );
    eprintln!(
        "tuples:       {} total, {} relevant, {} discarded",
        outcome.processed,
        outcome.relevant,
        discarded(host)
    );
    eprintln!("results:      {}", engine.result_count());
    eprintln!(
        "throughput:   {:.0} relevant edges/s",
        outcome.relevant as f64 / outcome.elapsed.as_secs_f64()
    );
    eprintln!(
        "latency:      mean {:.1}us p99 {:.1}us",
        outcome.histogram.mean() / 1e3,
        outcome.histogram.p99() as f64 / 1e3
    );
    eprintln!("delta index:  {:?}", engine.index_size());
    eprintln!(
        "conflicts:    {} detected, {} unmarked",
        engine.stats().conflicts_detected,
        engine.stats().nodes_unmarked
    );
    match host.engine().n_workers() {
        0 => {}
        n => eprintln!("workers:      {n} evaluation threads"),
    }
    if let Some(d) = host.durable() {
        let info = d.wal_info();
        eprintln!(
            "wal:          {} records / {} bytes in {} segments under {}",
            info.records,
            info.bytes,
            info.segments,
            d.dir().display(),
        );
        eprintln!(
            "checkpoint:   latest @{} ({} written this run)",
            d.last_checkpoint_seq(),
            d.counters().checkpoints_written
        );
    }
    if args.flag("stats") {
        eprintln!("stats:");
        for (k, v) in stats {
            eprintln!("  {k:<20} {v}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a command line, its output into a buffer.
    fn dispatch(argv: &[String]) -> Result<(), String> {
        super::dispatch(argv, &mut Vec::new())
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn no_command_prints_usage() {
        let err = dispatch(&[]).unwrap_err();
        assert!(err.contains("usage"));
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn print_sink_streams_emissions_and_keeps_the_first_error() {
        let pair = ResultPair::new(srpq_common::VertexId(3), srpq_common::VertexId(7));
        let mut sink = PrintSink {
            out: Vec::new(),
            failed: None,
        };
        sink.emit(QueryId(0), pair, Timestamp(5));
        sink.invalidate(QueryId(0), pair, Timestamp(6));
        sink.emit(QueryId(0), pair, Timestamp(8));
        let text = String::from_utf8(sink.out).unwrap();
        assert_eq!(text, "[5] + (3, 7)\n[8] + (3, 7)\n");

        // A writer that failed is not written again; the error is kept.
        struct Refuses(usize);
        impl Write for Refuses {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                self.0 += 1;
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = PrintSink {
            out: Refuses(0),
            failed: None,
        };
        sink.emit(QueryId(0), pair, Timestamp(5));
        sink.emit(QueryId(0), pair, Timestamp(8));
        assert_eq!(sink.out.0, 1);
        let kind = sink.failed.map(|e| e.kind());
        assert_eq!(kind, Some(std::io::ErrorKind::BrokenPipe));
    }

    /// A reader that closed the pipe.
    struct BrokenPipe;

    impl Write for BrokenPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_output_fails_the_verb_without_a_panic() {
        let dir = std::env::temp_dir().join(format!("srpq-cli-pipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        srpq_persist::Wal::open(&dir, 1 << 20).unwrap();
        let wal = dir.to_str().unwrap();
        for verb in [
            argv(&["explain", "(a | b)+ c"]),
            argv(&["wal-info", "--wal-dir", wal]),
        ] {
            let err = super::dispatch(&verb, &mut BrokenPipe).unwrap_err();
            assert!(err.starts_with("writing output: "), "{verb:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn explain_runs() {
        dispatch(&argv(&["explain", "(follows mentions)+"])).unwrap();
        assert!(dispatch(&argv(&["explain", "(broken"])).is_err());
    }

    #[test]
    fn gen_info_run_round_trip() {
        let dir = std::env::temp_dir().join("srpq-cli-cmds");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.srpq");
        let path_s = path.to_str().unwrap();
        dispatch(&argv(&[
            "gen",
            "--dataset",
            "so",
            "--out",
            path_s,
            "--edges",
            "2000",
            "--seed",
            "7",
        ]))
        .unwrap();
        dispatch(&argv(&["info", "--stream", path_s])).unwrap();
        dispatch(&argv(&[
            "run", "--query", "a2q c2a*", "--stream", path_s, "--limit", "1500",
        ]))
        .unwrap();
        // Batched ingestion path, with the JSON stats dump and trace.
        let json = dir.join("stats.json");
        let json_s = json.to_str().unwrap();
        dispatch(&argv(&[
            "run",
            "--query",
            "a2q c2a*",
            "--stream",
            path_s,
            "--limit",
            "1500",
            "--batch",
            "64",
            "--stats-json",
            json_s,
            "--trace",
        ]))
        .unwrap();
        let dumped = std::fs::read_to_string(&json).unwrap();
        assert!(dumped.starts_with("{\n"), "not a JSON object: {dumped}");
        for key in [
            "tuples_processed",
            "results_emitted",
            "index_arena_bytes",
            "index_result_bytes",
            "index_reverse_bytes",
            "graph_heap_bytes",
            "elapsed_ns",
            "latency_p99_ns",
        ] {
            assert!(dumped.contains(&format!("\"{key}\": ")), "missing {key}");
        }
        std::fs::remove_file(&json).ok();
        assert!(dispatch(&argv(&[
            "run", "--query", "a2q", "--stream", path_s, "--batch", "0",
        ]))
        .is_err());
        // Unknown label is an error.
        assert!(dispatch(&argv(&[
            "run",
            "--query",
            "nosuchlabel",
            "--stream",
            path_s,
        ]))
        .is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn durable_run_recover_wal_info_round_trip() {
        let dir = std::env::temp_dir().join(format!("srpq-cli-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("s.srpq");
        let stream_s = stream.to_str().unwrap().to_string();
        let wal = dir.join("wal");
        let wal_s = wal.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "gen",
            "--dataset",
            "so",
            "--out",
            &stream_s,
            "--edges",
            "1500",
            "--seed",
            "3",
        ]))
        .unwrap();
        // Durable run over a prefix only: simulates a crash at --limit.
        dispatch(&argv(&[
            "run",
            "--query",
            "a2q c2a*",
            "--stream",
            &stream_s,
            "--limit",
            "900",
            "--batch",
            "64",
            "--wal-dir",
            &wal_s,
            "--checkpoint-every",
            "2",
            "--sync",
            "batch",
            "--stats",
        ]))
        .unwrap();
        dispatch(&argv(&["wal-info", "--wal-dir", &wal_s])).unwrap();
        // Recover and finish the stream.
        dispatch(&argv(&[
            "recover",
            "--wal-dir",
            &wal_s,
            "--stream",
            &stream_s,
            "--batch",
            "64",
            "--stats",
        ]))
        .unwrap();
        // A second run into the same directory must refuse.
        assert!(dispatch(&argv(&[
            "run",
            "--query",
            "a2q c2a*",
            "--stream",
            &stream_s,
            "--wal-dir",
            &wal_s,
        ]))
        .is_err());
        // Bad durability options are rejected.
        assert!(dispatch(&argv(&[
            "run",
            "--query",
            "a2q",
            "--stream",
            &stream_s,
            "--wal-dir",
            &wal_s,
            "--sync",
            "nope",
        ]))
        .is_err());
        // Recovering a directory without state is an error.
        let empty = dir.join("empty-wal");
        assert!(dispatch(&argv(&[
            "recover",
            "--wal-dir",
            empty.to_str().unwrap(),
            "--stream",
            &stream_s,
        ]))
        .is_err());
        // wal-info on a missing directory errors and must not create it
        // (the command is strictly read-only).
        let missing = dir.join("no-such-wal");
        assert!(dispatch(&argv(&["wal-info", "--wal-dir", missing.to_str().unwrap()])).is_err());
        assert!(!missing.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn network_verbs_round_trip() {
        // `serve` itself blocks until shutdown, so host the server
        // in-process and drive the client-side verbs through dispatch.
        let dir = std::env::temp_dir().join(format!("srpq-cli-net-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("s.srpq");
        let stream_s = stream.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "gen",
            "--dataset",
            "so",
            "--out",
            &stream_s,
            "--edges",
            "1000",
            "--seed",
            "5",
        ]))
        .unwrap();

        let config = srpq_server::ServerConfig::in_memory(srpq_core::EngineConfig::with_window(
            srpq_graph::WindowPolicy::new(100_000, 1_000),
        ));
        let handle = srpq_server::start(config).unwrap();
        let addr = handle.addr().to_string();

        dispatch(&argv(&[
            "query",
            "add",
            "--connect",
            &addr,
            "--name",
            "q",
            "--query",
            "a2q c2a*",
        ]))
        .unwrap();
        // Duplicate names surface the engine error through the wire.
        assert!(dispatch(&argv(&[
            "query",
            "add",
            "--connect",
            &addr,
            "--name",
            "q",
            "--query",
            "a2q",
        ]))
        .is_err());
        dispatch(&argv(&[
            "ingest",
            "--connect",
            &addr,
            "--stream",
            &stream_s,
            "--batch",
            "128",
            "--drain",
        ]))
        .unwrap();
        // Resuming against a fully ingested file sends nothing more.
        dispatch(&argv(&[
            "ingest",
            "--connect",
            &addr,
            "--stream",
            &stream_s,
            "--resume",
        ]))
        .unwrap();
        dispatch(&argv(&["query", "list", "--connect", &addr])).unwrap();
        dispatch(&argv(&["ctl", "stats", "--connect", &addr])).unwrap();
        dispatch(&argv(&[
            "query",
            "remove",
            "--connect",
            &addr,
            "--name",
            "q",
        ]))
        .unwrap();
        assert!(dispatch(&argv(&["ctl", "frobnicate", "--connect", &addr])).is_err());
        dispatch(&argv(&["ctl", "shutdown", "--connect", &addr])).unwrap();
        handle.join();
        // Serving without --window is refused up front.
        assert!(dispatch(&argv(&["serve", "--listen", "127.0.0.1:0"])).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_run_and_recover_round_trip() {
        // `run --workers N` rides the one MultiQueryEngine end to end,
        // durable included, on either schedule, and `recover --workers N`
        // resumes it — reporting real durability numbers both ways.
        let dir = std::env::temp_dir().join(format!("srpq-cli-par-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("s.srpq");
        let stream_s = stream.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "gen",
            "--dataset",
            "so",
            "--out",
            &stream_s,
            "--edges",
            "1200",
            "--seed",
            "11",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "run",
            "--query",
            "a2q c2a*",
            "--stream",
            &stream_s,
            "--workers",
            "2",
            "--batch",
            "64",
            "--limit",
            "900",
        ]))
        .unwrap();
        for workers in ["0", "2"] {
            let wal = dir.join(format!("wal-{workers}"));
            let wal_s = wal.to_str().unwrap().to_string();
            let json = dir.join(format!("stats-{workers}.json"));
            let json_s = json.to_str().unwrap().to_string();
            dispatch(&argv(&[
                "run",
                "--query",
                "a2q c2a*",
                "--stream",
                &stream_s,
                "--workers",
                workers,
                "--batch",
                "64",
                "--limit",
                "700",
                "--wal-dir",
                &wal_s,
                "--checkpoint-every",
                "2",
                "--stats",
                "--stats-json",
                &json_s,
                "--trace",
            ]))
            .unwrap();
            let dumped = std::fs::read_to_string(&json).unwrap();
            let field = |key: &str| -> u64 {
                let at = dumped.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
                let digits: String = dumped[at..]
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits.parse().unwrap()
            };
            for key in ["wal_bytes", "wal_appends", "fsyncs"] {
                assert!(field(key) > 0, "--workers {workers}: {key} is 0");
            }
            assert!(
                field("checkpoints_written") >= 2,
                "--workers {workers}: the cadence wrote no checkpoint"
            );
            dispatch(&argv(&[
                "recover",
                "--wal-dir",
                &wal_s,
                "--stream",
                &stream_s,
                "--workers",
                workers,
                "--batch",
                "64",
            ]))
            .unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn full_checkpoint_run_recovers() {
        let dir = std::env::temp_dir().join(format!("srpq-cli-full-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let stream = dir.join("s.srpq");
        let stream_s = stream.to_str().unwrap().to_string();
        let wal = dir.join("wal");
        let wal_s = wal.to_str().unwrap().to_string();
        dispatch(&argv(&[
            "gen",
            "--dataset",
            "so",
            "--out",
            &stream_s,
            "--edges",
            "1200",
            "--seed",
            "9",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "run",
            "--query",
            "a2q c2a*",
            "--stream",
            &stream_s,
            "--limit",
            "700",
            "--batch",
            "32",
            "--wal-dir",
            &wal_s,
            "--checkpoint",
            "full",
            "--checkpoint-every",
            "1",
            "--sync",
            "none",
        ]))
        .unwrap();
        dispatch(&argv(&[
            "recover",
            "--wal-dir",
            &wal_s,
            "--stream",
            &stream_s,
            "--batch",
            "32",
            "--checkpoint",
            "full",
        ]))
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
