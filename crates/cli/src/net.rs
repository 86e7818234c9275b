//! Network verbs: `serve`, `ingest`, `subscribe`, `query`, `ctl`.
//!
//! `serve` runs the long-lived process; the other verbs are thin
//! `srpq_client` front-ends. `subscribe` prints emissions in exactly
//! the `run --print-results` format (`[ts] + (src, dst)`), so a
//! subscriber's output can be diffed byte-for-byte against an offline
//! run over the same tuples — the CI server-smoke job does precisely
//! that across a kill + recovery.

use crate::args::Args;
use crate::commands::{output_error, Out};
use crate::streamfile;
use srpq_client::{Client, SubEvent};
use srpq_common::{Label, StreamTuple};
use srpq_core::EngineConfig;
use srpq_graph::WindowPolicy;
use srpq_server::protocol::SubPolicy;
use srpq_server::ServerConfig;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn connect(args: &Args) -> Result<Client, String> {
    let addr = args.require("connect")?;
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// `srpq serve`: bind, serve until a client sends `shutdown`.
pub fn cmd_serve(args: &Args, out: Out) -> Result<(), String> {
    let listen = args.get("listen").unwrap_or("127.0.0.1:7878").to_string();
    let window: i64 = args.get_num("window", 0i64)?.max(0);
    if window == 0 {
        return Err("serve needs --window (there is no stream file to infer it from)".into());
    }
    let slide: i64 = args.get_num("slide", (window / 10).max(1))?;
    let engine = EngineConfig::with_window(WindowPolicy::new(window.max(1), slide.max(1)));
    let wal_dir = args.get("wal-dir").map(PathBuf::from);
    let workers: usize = args.get_num("workers", 0usize)?;
    let config = ServerConfig {
        listen,
        engine,
        wal_dir: wal_dir.clone(),
        durability: crate::commands::durability_config(args)?,
        workers,
        metrics_addr: args.get("metrics-addr").map(str::to_string),
        trace_sample: args.get_num("trace-sample", 0u32)?,
    };
    let handle = srpq_server::start(config)?;
    if let Some(maddr) = handle.metrics_addr() {
        eprintln!("metrics:      http://{maddr}/metrics (Prometheus text)");
    }
    match (&wal_dir, &handle.recovery) {
        (Some(dir), Some(report)) => eprintln!(
            "recovered:    checkpoint @{} ({}), {} WAL tuples replayed in {} ms from {}",
            report.checkpoint_seq,
            report.strategy,
            report.replayed_tuples,
            report.elapsed_ms,
            dir.display()
        ),
        (Some(dir), None) => eprintln!("durable:      fresh state under {}", dir.display()),
        _ => eprintln!("durable:      no (in-memory; pass --wal-dir for a WAL)"),
    }
    match workers {
        0 => eprintln!("evaluation:   sequential (pass --workers N to parallelize)"),
        n => eprintln!("evaluation:   {n} worker threads (inter-query parallel)"),
    }
    eprintln!(
        "serving:      {} (window |W|={window} slide β={slide})",
        handle.addr()
    );
    // Scripts read the address off stdout while the server runs.
    outln!(out, "{}", handle.addr());
    out.flush().map_err(output_error)?;
    handle.join();
    eprintln!("serve:        shut down cleanly");
    Ok(())
}

/// Loads a stream file and remaps its labels through the server.
fn load_remapped(client: &mut Client, path: &Path) -> Result<Vec<StreamTuple>, String> {
    let (labels, mut tuples) = streamfile::load(path)?;
    let names: Vec<String> = (0..labels.len() as u32)
        .map(|i| {
            labels
                .resolve(Label(i))
                .expect("interner ids are dense")
                .to_string()
        })
        .collect();
    let server_ids = client
        .map_labels(&names)
        .map_err(|e| format!("map labels: {e}"))?;
    for t in &mut tuples {
        t.label = server_ids[t.label.0 as usize];
    }
    Ok(tuples)
}

/// `srpq ingest`: stream a file into a server in acked batches.
pub fn cmd_ingest(args: &Args, _out: Out) -> Result<(), String> {
    let path = args.require("stream")?.to_string();
    let batch: usize = args.get_num("batch", 512usize)?;
    if batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let limit: usize = args.get_num("limit", usize::MAX)?;
    let mut client = connect(args)?;
    let tuples = load_remapped(&mut client, Path::new(&path))?;
    // --resume skips what the server already accepted — the recovery
    // hand-off for a killed `serve` fed from a single stream file.
    let start = if args.flag("resume") {
        client.server_info().seq as usize
    } else {
        0
    };
    if start > tuples.len() {
        return Err(format!(
            "server already accepted {start} tuples but {path} holds only {}",
            tuples.len()
        ));
    }
    let end = tuples.len().min(start.saturating_add(limit));
    let slice = &tuples[start..end];
    let started = Instant::now();
    let mut histogram = srpq_common::LatencyHistogram::new();
    let mut last = client.server_info();
    let mut durable = last.durable;
    for chunk in slice.chunks(batch) {
        let t0 = Instant::now();
        let ack = client.ingest(chunk).map_err(|e| format!("ingest: {e}"))?;
        histogram.record(t0.elapsed().as_nanos() as u64);
        durable = ack.durable;
        last.seq = ack.seq;
    }
    if args.flag("drain") {
        client.drain().map_err(|e| format!("drain: {e}"))?;
    }
    let elapsed = started.elapsed();
    eprintln!("--");
    eprintln!(
        "ingested:     {} tuples ({}..{end} of {}), batch={batch}",
        slice.len(),
        start,
        tuples.len()
    );
    eprintln!(
        "acked:        seq {} ({})",
        last.seq,
        if durable { "wal-durable" } else { "in-memory" }
    );
    eprintln!(
        "throughput:   {:.0} tuples/s, ack latency mean {:.1}us p99 {:.1}us",
        slice.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        histogram.mean() / 1e3,
        histogram.p99() as f64 / 1e3,
    );
    Ok(())
}

/// `srpq subscribe`: attach and print the pushed result stream.
pub fn cmd_subscribe(args: &Args, out: Out) -> Result<(), String> {
    let queries: Vec<String> = args
        .get("queries")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_default();
    let policy = match args.get("policy") {
        None => SubPolicy::Block,
        Some(s) => SubPolicy::parse(s).ok_or(format!("unknown --policy {s:?}"))?,
    };
    let capacity: u32 = args.get_num("capacity", 0u32)?;
    let tag = args.flag("tag");
    let show_invalidations = args.flag("invalidations");
    let mut client = connect(args)?;
    let names: HashMap<u32, String> = if tag {
        client
            .list_queries()
            .map_err(|e| format!("list queries: {e}"))?
            .into_iter()
            .map(|q| (q.id, q.name))
            .collect()
    } else {
        HashMap::new()
    };
    let mut sub = client
        .subscribe(&queries, policy, capacity)
        .map_err(|e| format!("subscribe: {e}"))?;
    eprintln!("subscribed:   {} matching queries", sub.matched());
    while let Some(event) = sub.next_event().map_err(|e| e.to_string())? {
        match event {
            SubEvent::Results(entries) => {
                for e in entries {
                    if e.invalidated && !show_invalidations {
                        continue;
                    }
                    let sign = if e.invalidated { '-' } else { '+' };
                    if tag {
                        let name = names.get(&e.query).map(String::as_str).unwrap_or("?");
                        writeln!(out, "{name} [{}] {sign} ({}, {})", e.ts, e.src, e.dst)
                    } else {
                        writeln!(out, "[{}] {sign} ({}, {})", e.ts, e.src, e.dst)
                    }
                    .map_err(output_error)?;
                }
                out.flush().map_err(output_error)?;
            }
            SubEvent::Dropped(n) => eprintln!("(dropped {n} results)"),
        }
    }
    eprintln!("subscription ended (server shut down or connection closed)");
    Ok(())
}

/// `srpq query add|remove|list`.
pub fn cmd_query(args: &Args, out: Out) -> Result<(), String> {
    let mut client = connect(args)?;
    match args.positional.get(1).map(String::as_str) {
        Some("add") => {
            let name = args.require("name")?;
            let regex = args.require("query")?;
            let simple = match args.get("semantics").unwrap_or("arbitrary") {
                "arbitrary" => false,
                "simple" => true,
                other => return Err(format!("unknown semantics {other:?}")),
            };
            let id = client
                .add_query(name, regex, simple, args.flag("backfill"))
                .map_err(|e| e.to_string())?;
            outln!(out, "added {name} as q{id}");
            Ok(())
        }
        Some("remove") => {
            let name = args.require("name")?;
            let id = client.remove_query(name).map_err(|e| e.to_string())?;
            outln!(out, "removed {name} (was q{id})");
            Ok(())
        }
        Some("list") => {
            let list = client.list_queries().map_err(|e| e.to_string())?;
            for q in list {
                let semantics = if q.simple { "simple" } else { "arbitrary" };
                outln!(
                    out,
                    "q{}  {}  {}  [{}]  group=g{} routed={} results={} eval={:.1}ms",
                    q.id,
                    q.name,
                    q.regex,
                    semantics,
                    q.group,
                    q.tuples_routed,
                    q.results_emitted,
                    q.eval_ns as f64 / 1e6,
                );
            }
            Ok(())
        }
        other => Err(format!(
            "query needs add|remove|list, got {other:?} (see usage)"
        )),
    }
}

/// `srpq ctl drain|checkpoint|shutdown|stats`.
pub fn cmd_ctl(args: &Args, out: Out) -> Result<(), String> {
    let mut client = connect(args)?;
    match args.positional.get(1).map(String::as_str) {
        Some("drain") => {
            let seq = client.drain().map_err(|e| e.to_string())?;
            outln!(out, "drained at seq {seq}");
            Ok(())
        }
        Some("checkpoint") => {
            let seq = client.checkpoint().map_err(|e| e.to_string())?;
            outln!(out, "checkpointed at seq {seq}");
            Ok(())
        }
        Some("shutdown") => {
            client.shutdown().map_err(|e| e.to_string())?;
            outln!(out, "server shutting down");
            Ok(())
        }
        Some("stats") => {
            let s = client.stats().map_err(|e| e.to_string())?;
            outln!(out, "seq:              {}", s.seq);
            outln!(
                out,
                "live queries:     {} ({} slots)",
                s.live_queries,
                s.slots
            );
            outln!(
                out,
                "eval groups:      {} ({} shared away)",
                s.groups_live,
                (s.live_queries).saturating_sub(s.groups_live)
            );
            outln!(out, "subscribers:      {}", s.subscribers);
            outln!(out, "labels:           {}", s.labels);
            outln!(out, "results pushed:   {}", s.results_pushed);
            outln!(out, "results dropped:  {}", s.results_dropped);
            outln!(out, "workers:          {}", s.workers);
            outln!(
                out,
                "eval time:        {:.1}ms total",
                s.eval_ns as f64 / 1e6
            );
            outln!(
                out,
                "delta occupancy:  {} live / {} slots ({} compactions)",
                s.delta_nodes_live,
                s.delta_capacity,
                s.compactions
            );
            // Per-worker eval/expiry ledgers (worker pool only; the last
            // entry is the coordinator's own share).
            let n = s.worker_ns.len();
            for (i, (eval, expiry)) in s.worker_ns.iter().enumerate() {
                let who = if i + 1 == n {
                    "coord".to_string()
                } else {
                    format!("w{i}")
                };
                outln!(
                    out,
                    "  {who:<6} eval {:.1}ms  expiry {:.1}ms",
                    *eval as f64 / 1e6,
                    *expiry as f64 / 1e6
                );
            }
            Ok(())
        }
        Some("metrics") => {
            let text = client.metrics().map_err(|e| e.to_string())?;
            write!(out, "{text}").map_err(output_error)?;
            Ok(())
        }
        Some("events") => {
            let since: u64 = args.get_num("since", 0u64)?;
            let (events, dropped) = client.events(since).map_err(|e| e.to_string())?;
            if dropped > 0 {
                eprintln!("({dropped} earlier events already overwritten by the bounded journal)");
            }
            for e in events {
                let kind = srpq_obs::EventKind::from_u8(e.kind)
                    .map(|k| k.name())
                    .unwrap_or("unknown");
                outln!(
                    out,
                    "#{:<6} {:>13}  {:<21} {}",
                    e.seq,
                    e.unix_ms,
                    kind,
                    e.detail
                );
            }
            Ok(())
        }
        Some("trace") => {
            let spans = client.trace().map_err(|e| e.to_string())?;
            if spans.is_empty() {
                eprintln!("(no spans retained; run the server with --trace-sample N)");
            }
            // Spans arrive sorted by (trace, start); children indent
            // under their trace's root.
            for s in &spans {
                let indent = if s.parent == 0 { "" } else { "  " };
                outln!(
                    out,
                    "t{:<5} {indent}{:<16} {:>9.3}ms @{:<10} [{}] {}",
                    s.trace_id,
                    s.name,
                    s.dur_us as f64 / 1e3,
                    s.start_us,
                    s.thread,
                    s.detail
                );
            }
            Ok(())
        }
        Some("explain") => {
            let name = args
                .positional
                .get(2)
                .ok_or("ctl explain needs a query name")?;
            let x = client.explain(name).map_err(|e| e.to_string())?;
            if args.flag("json") {
                outln!(out, "{}", explain_json(&x));
            } else {
                print_explain(out, &x)?;
            }
            Ok(())
        }
        other => Err(format!(
            "ctl needs drain|checkpoint|shutdown|stats|metrics|events|trace|explain, \
             got {other:?} (see usage)"
        )),
    }
}

/// Human-readable `ctl explain` report.
fn print_explain(out: Out, x: &srpq_client::ExplainWire) -> Result<(), String> {
    let semantics = if x.simple { "simple" } else { "arbitrary" };
    outln!(
        out,
        "query q{}: {}  {}  [{semantics}]",
        x.id,
        x.name,
        x.regex
    );
    if x.co_subscribers.is_empty() {
        outln!(
            out,
            "group:            g{} (private), signature {:016x}",
            x.group,
            x.signature_hash
        );
    } else {
        outln!(
            out,
            "group:            g{} shared with {}, signature {:016x}",
            x.group,
            x.co_subscribers.join(", "),
            x.signature_hash
        );
    }
    outln!(
        out,
        "dfa:              {} states, start {}, accepting {:?}",
        x.dfa_states,
        x.dfa_start,
        x.dfa_accepting
    );
    for l in &x.labels {
        outln!(
            out,
            "  label {:<12} {} transition(s), routed to {} group{}",
            l.name,
            l.transitions,
            l.sharing_queries,
            if l.sharing_queries == 1 { "" } else { "s" }
        );
    }
    let delta_kind = if x.co_subscribers.is_empty() {
        "private"
    } else {
        "shared"
    };
    outln!(
        out,
        "delta forest:     {} trees, {} nodes / {} slots, {} bytes, {} compactions [{delta_kind}]",
        x.delta_trees,
        x.delta_nodes,
        x.delta_slots,
        x.delta_arena_bytes,
        x.compactions
    );
    for &(state, n) in &x.nodes_per_state {
        outln!(out, "  state {state:<4} {n} node(s)");
    }
    let max_depth = x.depth_hist.iter().rposition(|&c| c > 0).unwrap_or(0);
    outln!(out, "  depth histogram (max {max_depth}):");
    for (d, &n) in x.depth_hist.iter().enumerate().take(max_depth + 1) {
        if n > 0 {
            outln!(out, "    depth {d:<3} {n}");
        }
    }
    outln!(
        out,
        "routing:          {} tuples routed, {} results emitted",
        x.tuples_routed,
        x.results_emitted
    );
    let share = if x.total_eval_ns > 0 {
        100.0 * x.eval_ns as f64 / x.total_eval_ns as f64
    } else {
        0.0
    };
    outln!(
        out,
        "time:             eval {:.1}ms (expiry {:.1}ms) — {share:.1}% of all evaluation",
        x.eval_ns as f64 / 1e6,
        x.expiry_ns as f64 / 1e6,
    );
    Ok(())
}

/// Machine-readable `ctl explain --json` (hand-rolled, std-only). Names
/// arrive from the network unvalidated, so every string goes through
/// the full JSON escape.
fn explain_json(x: &srpq_client::ExplainWire) -> String {
    use srpq_obs::trace::json_escape as esc;
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"id\":{},\"name\":\"{}\",\"regex\":\"{}\",\"simple\":{},\
         \"dfa\":{{\"states\":{},\"start\":{},\"accepting\":{:?}}},\"labels\":[",
        x.id,
        esc(&x.name),
        esc(&x.regex),
        x.simple,
        x.dfa_states,
        x.dfa_start,
        x.dfa_accepting
    );
    for (i, l) in x.labels.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"transitions\":{},\"sharing_queries\":{}}}",
            if i > 0 { "," } else { "" },
            esc(&l.name),
            l.transitions,
            l.sharing_queries
        );
    }
    let _ = write!(
        out,
        "],\"delta\":{{\"trees\":{},\"nodes\":{},\"slots\":{},\"arena_bytes\":{},\
         \"compactions\":{},\"nodes_per_state\":[",
        x.delta_trees, x.delta_nodes, x.delta_slots, x.delta_arena_bytes, x.compactions
    );
    for (i, &(state, n)) in x.nodes_per_state.iter().enumerate() {
        let _ = write!(out, "{}[{state},{n}]", if i > 0 { "," } else { "" });
    }
    let _ = write!(
        out,
        "],\"depth_hist\":{:?}}},\"tuples_routed\":{},\"eval_ns\":{},\"expiry_ns\":{},\
         \"total_eval_ns\":{},\"results_emitted\":{},\"group\":{},\"signature_hash\":\"{:016x}\",\
         \"co_subscribers\":[",
        x.depth_hist,
        x.tuples_routed,
        x.eval_ns,
        x.expiry_ns,
        x.total_eval_ns,
        x.results_emitted,
        x.group,
        x.signature_hash
    );
    for (i, name) in x.co_subscribers.iter().enumerate() {
        let _ = write!(out, "{}\"{}\"", if i > 0 { "," } else { "" }, esc(name));
    }
    let _ = write!(out, "]}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_json_escapes_control_characters() {
        let x = srpq_client::ExplainWire {
            name: "tab\there\u{1}".into(),
            labels: vec![srpq_client::LabelRoute {
                name: "l\u{1}".into(),
                transitions: 1,
                sharing_queries: 1,
            }],
            co_subscribers: vec!["cr\rname".into()],
            ..Default::default()
        };
        let json = explain_json(&x);
        assert!(json.contains("\"name\":\"tab\\there\\u0001\""), "{json}");
        assert!(json.contains("\"name\":\"l\\u0001\""), "{json}");
        assert!(json.contains("\"cr\\rname\""), "{json}");
        assert!(
            !json.chars().any(|c| (c as u32) < 0x20),
            "raw control character in {json:?}"
        );
    }
}
