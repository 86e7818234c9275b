//! The TCP front-end: listener, session threads, and [`ServerHandle`].
//!
//! One thread owns the engine ([`crate::core::EngineCore`]); one thread
//! accepts connections; each connection gets a session thread that
//! decodes frames, forwards commands through the bounded pipeline, and
//! writes replies. A session that issues `Subscribe` flips into push
//! mode: it stops reading requests and forwards its bounded result
//! queue to the socket until the client hangs up or the server shuts
//! down.

use crate::core::{Cmd, EngineCore};
use crate::labels;
use crate::protocol::{Msg, SpanWire, MAX_SUB_CAPACITY, PROTO_VERSION};
use crate::subscriber::{push_to_msg, BatchStamp, Push, DEFAULT_CAPACITY};
use srpq_common::LabelInterner;
use srpq_core::multi::MultiQueryEngine;
use srpq_core::EngineConfig;
use srpq_obs::{Counter, EventKind, Histogram, MetricsServer, Obs};
use srpq_persist::{checkpoint, DurabilityConfig, Durable, Host, RecoveryReport};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub listen: String,
    /// Per-query engine configuration shared by every registered query
    /// (window, RSPQ extend budget).
    pub engine: EngineConfig,
    /// Durability directory; `None` serves in-memory. A directory that
    /// already holds durable state is **recovered** (checkpoint + WAL
    /// suffix + label table), a fresh one is initialized.
    pub wal_dir: Option<PathBuf>,
    /// WAL/checkpoint tunables (used only with `wal_dir`).
    pub durability: DurabilityConfig,
    /// Evaluation worker threads of the [`MultiQueryEngine`]. Every
    /// value runs the one micro-batch schedule: `0` evaluates on the
    /// engine thread, streaming each position's results before the
    /// next; `n ≥ 1` hands each micro-batch's evaluation to `n` workers
    /// (inter-group parallel evaluation). The result stream is the same
    /// at every value, and durable state does not depend on it — the
    /// same `wal_dir` may restart under any value.
    pub workers: usize,
    /// Address for the plain-HTTP Prometheus `/metrics` listener;
    /// `None` disables it (`ctl metrics` still works over the frame
    /// protocol).
    pub metrics_addr: Option<String>,
    /// Causal-trace sampling: record a full span tree (decode → WAL →
    /// route → per-query extend → expiry → emit → subscriber write) for
    /// 1-in-N ingest frames, exported via `ctl trace` and `/trace`.
    /// `0` (the default) disables tracing entirely.
    pub trace_sample: u32,
}

impl ServerConfig {
    /// An ephemeral localhost server over `engine` defaults.
    pub fn in_memory(engine: EngineConfig) -> ServerConfig {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            engine,
            wal_dir: None,
            durability: DurabilityConfig::default(),
            workers: 0,
            metrics_addr: None,
            trace_sample: 0,
        }
    }
}

/// Bound of the command pipeline: how many decoded batches may wait for
/// the engine before ingest sessions block.
const PIPELINE_DEPTH: usize = 16;

/// Per-process observability context shared by every session thread.
struct SessionCtx {
    obs: Obs,
    trace_sample: u32,
    /// Ingest frames seen across all sessions (the trace sampler picks
    /// 1-in-N of them).
    ingest_frames: AtomicU64,
    decode_hist: Histogram,
    write_hist: Histogram,
    e2e_hist: Histogram,
    sub_connects: Counter,
    sub_disconnects: Counter,
}

impl SessionCtx {
    fn new(obs: Obs, trace_sample: u32) -> SessionCtx {
        let r = obs.registry();
        SessionCtx {
            trace_sample,
            ingest_frames: AtomicU64::new(0),
            decode_hist: r.histogram("srpq_stage_ingest_decode_ns", &[]),
            write_hist: r.histogram("srpq_stage_subscriber_write_ns", &[]),
            e2e_hist: r.histogram("srpq_e2e_latency_ns", &[]),
            sub_connects: r.counter("srpq_subscriber_connects_total", &[]),
            sub_disconnects: r.counter("srpq_subscriber_disconnects_total", &[]),
            obs,
        }
    }

    /// Stamps an ingest frame at decode: every frame carries its e2e
    /// latency timestamp, and 1-in-`trace_sample` frames a causal-trace
    /// root — the hot-path common case costs one relaxed fetch-add.
    fn stamp(&self) -> BatchStamp {
        let n = self.ingest_frames.fetch_add(1, Ordering::Relaxed);
        let traced = self.trace_sample != 0 && n.is_multiple_of(u64::from(self.trace_sample));
        let trace = traced.then(|| {
            let tb = self.obs.trace();
            (tb.alloc_id(), tb.alloc_id())
        });
        BatchStamp {
            t0: Instant::now(),
            trace,
        }
    }
}

/// A running server: the address it listens on plus the handles needed
/// to stop it.
pub struct ServerHandle {
    addr: SocketAddr,
    cmd_tx: SyncSender<Cmd>,
    stop: Arc<AtomicBool>,
    engine_thread: Option<JoinHandle<()>>,
    accept_thread: Option<JoinHandle<()>>,
    metrics: Option<MetricsServer>,
    obs: Obs,
    /// What recovery did, when the server came up from durable state.
    pub recovery: Option<RecoveryReport>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `/metrics` listener address, when one was configured.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.local_addr())
    }

    /// The server's observability bundle (registry + event journal) —
    /// in-process introspection for tests and embedders.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Requests a graceful shutdown (drain → checkpoint → close) and
    /// waits for the server to exit. Idempotent with a client-issued
    /// `Shutdown` racing it.
    pub fn shutdown(mut self) {
        let _ = roundtrip(&self.cmd_tx, Msg::Shutdown, None, None);
        self.stop_accepting();
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
    }

    /// Waits until the server exits (a client sent `Shutdown`).
    pub fn join(mut self) {
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        self.stop_accepting();
    }

    fn stop_accepting(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.obs.profiler().stop();
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }
}

/// Builds the host (fresh or recovered) and starts the server.
pub fn start(config: ServerConfig) -> Result<ServerHandle, String> {
    let obs = Obs::new();
    let (mut host, interner, seq, recovery) = match &config.wal_dir {
        None => {
            let engine = MultiQueryEngine::with_config(config.engine);
            (Host::from(engine), LabelInterner::new(), 0, None)
        }
        Some(dir) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let has_state = checkpoint::load_latest(dir)
                .map_err(|e| e.to_string())?
                .is_some();
            let (durable, interner, report) = if has_state {
                let mut interner = labels::load(dir)?;
                let (durable, report) =
                    Durable::<MultiQueryEngine>::recover(dir, &mut interner, config.durability)
                        .map_err(|e| e.to_string())?;
                (durable, interner, Some(report))
            } else {
                let durable = Durable::create(
                    MultiQueryEngine::with_config(config.engine),
                    dir,
                    config.durability,
                )
                .map_err(|e| e.to_string())?;
                (durable, LabelInterner::new(), None)
            };
            let seq = report.map_or(0, |r| r.resume_seq);
            (Host::from(durable), interner, seq, report)
        }
    };
    host.set_obs(obs.clone());
    // Checkpoints store no worker count, so fresh and recovered engines
    // alike start without workers; `--workers` may change freely across
    // restarts.
    host.engine_mut().set_workers(config.workers);

    let listener =
        TcpListener::bind(&config.listen).map_err(|e| format!("bind {}: {e}", config.listen))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Cmd>(PIPELINE_DEPTH);
    let core = EngineCore::new(host, interner, seq, obs.clone());
    let engine_thread = std::thread::Builder::new()
        .name("srpq-engine".into())
        .spawn(move || core.run(cmd_rx))
        .map_err(|e| e.to_string())?;

    let metrics = match &config.metrics_addr {
        Some(maddr) => Some(
            MetricsServer::start(maddr, obs.clone())
                .map_err(|e| format!("metrics listener {maddr}: {e}"))?,
        ),
        None => None,
    };

    // The stage sampler + stall watchdog: ~997 Hz over the beacons the
    // engine core registered above. Runs for the server's lifetime.
    obs.start_profiler();

    let ctx = Arc::new(SessionCtx::new(obs.clone(), config.trace_sample));
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = stop.clone();
    let accept_tx = cmd_tx.clone();
    let accept_thread = std::thread::Builder::new()
        .name("srpq-accept".into())
        .spawn(move || {
            loop {
                let conn = accept_session(&listener);
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let tx = accept_tx.clone();
                let session_ctx = Arc::clone(&ctx);
                let _ = std::thread::Builder::new()
                    .name("srpq-session".into())
                    .spawn(move || {
                        let peer = stream
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "?".into());
                        if let Err(e) = run_session(stream, tx, &session_ctx) {
                            // Client-side disconnects are routine; only
                            // protocol violations are worth a log line.
                            if e.kind() == std::io::ErrorKind::InvalidData {
                                eprintln!("srpq-server: session {peer}: {e}");
                            }
                        }
                    });
            }
        })
        .map_err(|e| e.to_string())?;

    Ok(ServerHandle {
        addr,
        cmd_tx,
        stop,
        engine_thread: Some(engine_thread),
        accept_thread: Some(accept_thread),
        metrics,
        obs,
        recovery,
    })
}

/// Accepts one connection and configures it as a session stream.
///
/// `TCP_NODELAY` is set: every reply and push is a whole frame flushed
/// through a `BufWriter`, so Nagle's algorithm can merge nothing — it
/// only holds a small frame (an 18-byte ack) behind the peer's delayed
/// ACK of the previous one. Public so the end-to-end suite can assert
/// the socket options an accepted session gets.
pub fn accept_session(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Sends one request and waits for the engine's reply. `None` means the
/// engine is gone (shutdown).
fn roundtrip(
    cmd_tx: &SyncSender<Cmd>,
    msg: Msg,
    stamp: Option<BatchStamp>,
    push: Option<(SyncSender<Push>, Arc<AtomicU64>)>,
) -> Option<Msg> {
    let (reply, reply_rx) = mpsc::channel();
    let cmd = Cmd {
        msg,
        reply,
        stamp,
        push,
    };
    cmd_tx.send(cmd).ok()?;
    reply_rx.recv().ok()
}

/// One connection's request/reply loop.
fn run_session(
    stream: TcpStream,
    cmd_tx: SyncSender<Cmd>,
    ctx: &SessionCtx,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some((msg, decode_ns)) = Msg::read_from_timed(&mut reader)? {
        let reply = match msg {
            Msg::Hello { proto } if proto != PROTO_VERSION => Some(Msg::Error {
                msg: format!("protocol mismatch: client speaks v{proto}, server v{PROTO_VERSION}"),
            }),
            Msg::Ingest { ref tuples } => {
                ctx.decode_hist.record(decode_ns);
                let stamp = ctx.stamp();
                let t0 = stamp.t0;
                if let Some((trace_id, root)) = stamp.trace {
                    // Back-date the decode span over the just-measured
                    // decode time and open the root at its start; the
                    // engine and subscriber pumps widen it from here.
                    let start = t0
                        .checked_sub(Duration::from_nanos(decode_ns))
                        .unwrap_or(t0);
                    let tb = ctx.obs.trace();
                    tb.root_candidate(trace_id, root, start, t0, "srpq-session", "decoded");
                    tb.record(
                        trace_id,
                        root,
                        "decode",
                        start,
                        t0,
                        "srpq-session",
                        format!("tuples={}", tuples.len()),
                    );
                }
                let reply = roundtrip(&cmd_tx, msg, Some(stamp), None);
                if let Some((trace_id, root)) = stamp.trace {
                    // Without subscribers no covering flush ever
                    // reports delivery; the ack still closes the root.
                    ctx.obs.trace().root_candidate(
                        trace_id,
                        root,
                        t0,
                        Instant::now(),
                        "srpq-session",
                        "acked",
                    );
                }
                reply
            }
            // The trace buffer is process-shared; answer without a
            // trip through the engine thread.
            Msg::Trace => Some(Msg::TraceList {
                spans: ctx
                    .obs
                    .trace()
                    .snapshot()
                    .into_iter()
                    .map(|s| SpanWire {
                        trace_id: s.trace_id,
                        span_id: s.span_id,
                        parent: s.parent,
                        name: s.name,
                        start_us: s.start_us,
                        dur_us: s.dur_us,
                        thread: s.thread,
                        detail: s.detail,
                    })
                    .collect(),
            }),
            // Refused before the queue is allocated: a bounded channel
            // allocates every slot up front.
            Msg::Subscribe { capacity, .. } if capacity > MAX_SUB_CAPACITY => Some(Msg::Error {
                msg: format!(
                    "subscriber capacity {capacity} exceeds the limit of \
                     {MAX_SUB_CAPACITY} frames"
                ),
            }),
            Msg::Subscribe { capacity, .. } => {
                let cap = if capacity == 0 {
                    DEFAULT_CAPACITY
                } else {
                    capacity as usize
                };
                let (push_tx, push_rx) = mpsc::sync_channel::<Push>(cap);
                let pending = Arc::new(AtomicU64::new(0));
                let push = Some((push_tx, Arc::clone(&pending)));
                match roundtrip(&cmd_tx, msg, None, push) {
                    Some(ack) => {
                        ack.write_to(&mut writer)?;
                        writer.flush()?;
                        ctx.sub_connects.inc();
                        // The session is a push stream from here on.
                        let peer = writer
                            .get_ref()
                            .peer_addr()
                            .map(|a| a.to_string())
                            .unwrap_or_else(|_| "?".into());
                        let result = pump_subscription(push_rx, writer, ctx, pending);
                        ctx.sub_disconnects.inc();
                        ctx.obs
                            .journal()
                            .record(EventKind::SubscriberDisconnect, format!("peer={peer}"));
                        return result;
                    }
                    None => Some(Msg::Error {
                        msg: "server is shutting down".into(),
                    }),
                }
            }
            // Everything else goes to the engine as it arrived; it
            // refuses server-to-client kinds.
            other => roundtrip(&cmd_tx, other, None, None),
        };
        match reply {
            Some(reply) => {
                let shutting_down = matches!(reply, Msg::ShuttingDown);
                reply.write_to(&mut writer)?;
                writer.flush()?;
                if shutting_down {
                    break;
                }
            }
            None => {
                let _ = Msg::Error {
                    msg: "server is shutting down".into(),
                }
                .write_to(&mut writer);
                let _ = writer.flush();
                break;
            }
        }
    }
    Ok(())
}

/// Forwards the bounded queue to the socket until the engine closes the
/// queue (shutdown) or the socket dies (client gone — the engine
/// notices on its next send and reaps this subscriber).
///
/// `pending` is the drop-tally counter shared with the engine-side
/// [`Subscriber`](crate::subscriber::Subscriber). Once the queue closes
/// the engine can no longer touch it, so sweeping it here — after the
/// buffered frames have drained — delivers losses the engine could
/// never fit into a wedged queue, ahead of `ShuttingDown`.
fn pump_subscription(
    push_rx: Receiver<Push>,
    mut writer: BufWriter<TcpStream>,
    ctx: &SessionCtx,
    pending: Arc<AtomicU64>,
) -> std::io::Result<()> {
    // Batches whose frames are written but not yet flushed; observed
    // once the covering flush makes them visible to the client.
    let mut stamped: Vec<(BatchStamp, u64)> = Vec::new();
    loop {
        let Ok(first) = push_rx.recv() else {
            // Engine dropped the queue: graceful end of stream. Any
            // drop tally that never fit into the queue goes out now.
            let swept = pending.swap(0, Ordering::Relaxed);
            if swept > 0 {
                let _ = (Msg::Dropped { count: swept }).write_to(&mut writer);
            }
            let _ = Msg::ShuttingDown.write_to(&mut writer);
            let _ = writer.flush();
            return Ok(());
        };
        // Drain everything already queued, then flush once — low-rate
        // streams see results promptly, high-rate streams amortize
        // syscalls over the backlog.
        let mut item = Some(first);
        while let Some(push) = item.take() {
            match push {
                Push::Flush(ack) => {
                    writer.flush()?;
                    observe_delivered(ctx, &mut stamped);
                    let _ = ack.send(());
                }
                other => {
                    // Read the frame's size and marks before its entries
                    // move into the wire message.
                    let stamp = match &other {
                        Push::Results {
                            entries,
                            stamp: Some(st),
                        } => Some((*st, entries.len() as u64)),
                        _ => None,
                    };
                    if let Some(msg) = push_to_msg(other) {
                        let t0 = Instant::now();
                        msg.write_to(&mut writer)?;
                        let t1 = Instant::now();
                        ctx.write_hist
                            .record(t1.duration_since(t0).as_nanos() as u64);
                        if let Some((trace_id, root)) = stamp.and_then(|(st, _)| st.trace) {
                            ctx.obs.trace().record(
                                trace_id,
                                root,
                                "write",
                                t0,
                                t1,
                                "srpq-session",
                                "",
                            );
                        }
                    }
                    stamped.extend(stamp);
                }
            }
            item = push_rx.try_recv().ok();
        }
        writer.flush()?;
        observe_delivered(ctx, &mut stamped);
    }
}

/// Observes flushed batches: end-to-end latency into the
/// histogram, delivery time into the trace root — both against the same
/// decode timestamp, so span durations reconcile with the histogram.
fn observe_delivered(ctx: &SessionCtx, stamped: &mut Vec<(BatchStamp, u64)>) {
    if stamped.is_empty() {
        return;
    }
    let now = Instant::now();
    for (st, n) in stamped.drain(..) {
        ctx.e2e_hist
            .record_n(now.duration_since(st.t0).as_nanos() as u64, n);
        if let Some((trace_id, root)) = st.trace {
            ctx.obs
                .trace()
                .root_candidate(trace_id, root, st.t0, now, "srpq-session", "delivered");
        }
    }
}
