//! Drives one real `srpq serve` process over loopback: one
//! ingest/control connection, one subscriber connection, two threads.
//!
//! The main thread sends; a receiver thread polls both sockets,
//! timestamps acks and result frames as their bytes arrive, folds every
//! result entry into the digest, and tells the sender when a slot of
//! the closed-loop window frees up. Nothing here searches for a rate or
//! stops on a clock: the plan fixes the work.

use crate::machine::{slowdown, Machine};
use crate::reference::Digest;
use crate::workloads::{churn_name, slice_ops, Frames, Op, Plan, CHURN_REGEX};
use srpq_common::frame::{self, FrameError};
use srpq_persist::{checkpoint, Wal};
use srpq_server::protocol::{Msg, SubPolicy, PROTO_VERSION};
use std::ffi::{c_int, c_short, c_ulong, c_void};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Batches in flight on the ingest connection in closed-loop phases.
const IN_FLIGHT: usize = 8;

/// Slices the warm-up is ingested in, with a fence and a probe after
/// each.
const WARM_SLICES: usize = 8;

fn other(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// A spawned `srpq serve`; killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    /// Kept open: a closed pipe would fail the server's next print.
    _stdout: BufReader<std::process::ChildStdout>,
    pub addr: SocketAddr,
    pub spawned: Instant,
}

impl ServerProc {
    /// Spawns the server with `--workers 0`, `--trace-sample 0` and
    /// defaults otherwise, and waits for the address it prints.
    pub fn spawn(
        machine: &Machine,
        bin: &Path,
        plan: &Plan,
        wal_dir: Option<&Path>,
    ) -> io::Result<ServerProc> {
        let spawned = Instant::now();
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--workers", "0"])
            .args(["--trace-sample", "0"])
            .args(["--window", &plan.spec.window.to_string()])
            .args(["--slide", &plan.spec.slide.to_string()]);
        if let Some(dir) = wal_dir {
            cmd.arg("--wal-dir").arg(dir).args(["--sync", "batch"]);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = machine.on_server_cpu(|| cmd.spawn())?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let addr = stdout
            .read_line(&mut line)
            .ok()
            .and_then(|_| line.trim().parse::<SocketAddr>().ok());
        match addr {
            Some(addr) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
                spawned,
            }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(other(format!("server printed {line:?}, not an address")))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `kill -9`, then reaps.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Waits for the exit a `Shutdown` request leads to.
    pub fn wait_exit(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(other("server did not exit after Shutdown"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Nanoseconds the process's threads have spent on a CPU: the first
/// field of each `/proc/<pid>/task/<tid>/schedstat`. (`utime + stime` of
/// `/proc/<pid>/stat` counts 10 ms ticks, too coarse for a slice.)
fn cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between the listing and the read.
        let Ok(text) = std::fs::read_to_string(path) else {
            continue;
        };
        total += text
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| other("unreadable /proc/<pid>/task/<tid>/schedstat"))?;
    }
    Ok(total)
}

fn vm_hwm_kb(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| other("no VmHWM in /proc/<pid>/status"))
}

/// The value of the unlabelled sample `name` in Prometheus text.
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// One request and its reply on a connection nobody else reads.
fn call_sync(stream: &mut TcpStream, msg: &Msg) -> io::Result<Msg> {
    msg.write_to(stream)?;
    match Msg::read_from(stream)? {
        Some(Msg::Error { msg }) => Err(other(msg)),
        Some(reply) => Ok(reply),
        None => Err(other("server closed the connection mid-request")),
    }
}

fn connect(addr: SocketAddr) -> io::Result<(TcpStream, u64)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    match call_sync(
        &mut stream,
        &Msg::Hello {
            proto: PROTO_VERSION,
        },
    )? {
        Msg::HelloAck { seq, .. } => Ok((stream, seq)),
        reply => Err(other(format!("unexpected handshake reply {reply:?}"))),
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

const POLLIN: c_short = 0x001;

const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: u32) -> c_int;
}

/// Has the kernel acknowledge what `stream` received at once instead of
/// up to 40 ms later. The server leaves Nagle's algorithm on, which
/// holds a small write (an ack, a short result frame) back until the
/// one before it is acknowledged: with delayed acknowledgements every
/// latency measured here would lock to the batch interval after the
/// first stall of a run and stay there, or not, run by run. The kernel
/// drops the mode again as it sees fit, so this is set after every read.
fn quickack(stream: &TcpStream) {
    let on: c_int = 1;
    // SAFETY: the descriptor is open because the stream is borrowed;
    // `on` outlives the call and the length passed is its size. A
    // failure leaves the default behaviour and is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&raw const on).cast(),
            size_of::<c_int>() as u32,
        );
    }
}

/// Blocks until one of the two sockets has bytes, an end of stream or
/// an error to read; says which.
fn poll_two(a: &TcpStream, b: &TcpStream) -> io::Result<(bool, bool)> {
    let mut fds = [a, b].map(|s| PollFd {
        fd: s.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    });
    loop {
        // SAFETY: `fds` is a live array of two `pollfd`-layout structs
        // and the count passed is its length; both descriptors stay
        // open for the call because the streams are borrowed.
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) };
        if n >= 0 {
            return Ok((fds[0].revents != 0, fds[1].revents != 0));
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

/// Bytes of one socket not yet parsed into frames.
#[derive(Default)]
struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
    total: u64,
}

impl FrameBuf {
    /// One `read`; `false` at end of stream.
    fn fill(&mut self, stream: &mut TcpStream) -> io::Result<bool> {
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        let len = self.buf.len();
        self.buf.resize(len + (64 << 10), 0);
        let n = match stream.read(&mut self.buf[len..]) {
            Ok(n) => n,
            // The peer was killed: its socket may reset instead of close.
            Err(e) if e.kind() == io::ErrorKind::ConnectionReset => 0,
            Err(e) => return Err(e),
        };
        quickack(stream);
        self.buf.truncate(len + n);
        self.total += n as u64;
        Ok(n > 0)
    }

    /// The next complete message, if the buffer holds one.
    fn next(&mut self) -> io::Result<Option<Msg>> {
        match frame::decode_frame(&self.buf[self.start..]) {
            Ok((kind, payload, total)) => {
                let msg = Msg::decode(kind, payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                self.start += total;
                Ok(Some(msg))
            }
            Err(FrameError::Truncated) => {
                if self.start > (1 << 20) {
                    self.buf.drain(..self.start);
                    self.start = 0;
                }
                Ok(None)
            }
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }
}

/// What the receiver tells the sender.
enum Event {
    /// One operation (ingest batch or churn) was answered.
    Done,
    /// Any other reply on the ingest/control connection.
    Reply(Box<Msg>),
}

/// What the receiver thread saw.
#[derive(Default)]
pub struct Received {
    /// Arrival time of the ack of each ingest batch, in batch order.
    pub ack_at: Vec<Instant>,
    pub digest: Digest,
    /// `Dropped` tallies (none expected: the subscription blocks).
    pub dropped: u64,
    /// `Error` replies to operations.
    pub refused: u64,
    /// Arrival time of each result frame holding paced-phase entries,
    /// with the end of its run in `entry_batch`.
    pub frame_at: Vec<(Instant, usize)>,
    /// Batch of each paced-phase entry of a base query.
    pub entry_batch: Vec<u32>,
    pub sub_bytes: u64,
}

/// Reads both sockets until both streams end (the server exited).
fn receive(
    plan: &Plan,
    mut ctl: TcpStream,
    mut sub: TcpStream,
    events: mpsc::Sender<Event>,
) -> io::Result<Received> {
    let mut out = Received::default();
    let (mut ctl_buf, mut sub_buf) = (FrameBuf::default(), FrameBuf::default());
    let paced = plan.warm_end..plan.paced_end;
    let n_base = plan.queries.len() as u32;
    // Entries of one frame mostly share a batch: remember its ts span.
    let mut cached: (Range<i64>, usize) = (0..0, 0);
    let (mut ctl_open, mut sub_open) = (true, true);
    while ctl_open || sub_open {
        // A stream that ended stays readable for ever: poll only while
        // both are open, then block on the one that is left.
        let (ctl_ready, sub_ready) = if ctl_open && sub_open {
            poll_two(&ctl, &sub)?
        } else {
            (ctl_open, sub_open)
        };
        if ctl_ready {
            ctl_open = ctl_buf.fill(&mut ctl)?;
            let now = Instant::now();
            while let Some(msg) = ctl_buf.next()? {
                let event = match msg {
                    Msg::IngestAck { .. } => {
                        out.ack_at.push(now);
                        Event::Done
                    }
                    Msg::QueryAdded { .. } | Msg::QueryRemoved { .. } => Event::Done,
                    Msg::Error { .. } => {
                        out.refused += 1;
                        Event::Done
                    }
                    reply => Event::Reply(Box::new(reply)),
                };
                // The sender may already be gone on a failed run.
                let _ = events.send(event);
            }
        }
        if sub_ready {
            sub_open = sub_buf.fill(&mut sub)?;
            let now = Instant::now();
            while let Some(msg) = sub_buf.next()? {
                match msg {
                    Msg::Results { entries } => {
                        let before = out.entry_batch.len();
                        for e in &entries {
                            out.digest.add(e);
                            if e.query >= n_base {
                                continue;
                            }
                            if !cached.0.contains(&e.ts) {
                                let b = plan.batch_of_ts(e.ts);
                                let end = plan.batch_first_ts.get(b + 1).copied();
                                cached = (plan.batch_first_ts[b]..end.unwrap_or(i64::MAX), b);
                            }
                            if paced.contains(&cached.1) {
                                out.entry_batch.push(cached.1 as u32);
                            }
                        }
                        if out.entry_batch.len() > before {
                            out.frame_at.push((now, out.entry_batch.len()));
                        }
                    }
                    Msg::Dropped { count } => out.dropped += count,
                    Msg::ShuttingDown => {}
                    other_msg => {
                        return Err(other(format!("{other_msg:?} on the subscriber stream")))
                    }
                }
            }
        }
    }
    out.sub_bytes = sub_buf.total;
    Ok(out)
}

/// The sending half: the ingest/control connection's write side plus
/// the receiver's events.
struct Sender<'a> {
    plan: &'a Plan,
    ctl: TcpStream,
    frames: &'a Frames,
    events: mpsc::Receiver<Event>,
    sent: usize,
    done: usize,
    bytes_out: u64,
}

impl<'a> Sender<'a> {
    fn new(
        plan: &'a Plan,
        ctl: TcpStream,
        frames: &'a Frames,
        events: mpsc::Receiver<Event>,
    ) -> Sender<'a> {
        Sender {
            plan,
            ctl,
            frames,
            events,
            sent: 0,
            done: 0,
            bytes_out: 0,
        }
    }

    fn gone() -> io::Error {
        other("receiver thread ended before the run did")
    }

    fn send(&mut self, op: Op) -> io::Result<()> {
        match op {
            Op::Ingest(b) => {
                let bytes = &self.frames.bytes[self.frames.ranges[b].clone()];
                self.ctl.write_all(bytes)?;
                self.bytes_out += bytes.len() as u64;
            }
            Op::Add(j) => Msg::AddQuery {
                name: churn_name(j),
                regex: CHURN_REGEX.into(),
                simple: false,
                backfill: true,
            }
            .write_to(&mut self.ctl)?,
            Op::Remove(j) => Msg::RemoveQuery {
                name: churn_name(j),
            }
            .write_to(&mut self.ctl)?,
        }
        self.sent += 1;
        Ok(())
    }

    fn wait_done(&mut self) -> io::Result<()> {
        match self.events.recv().map_err(|_| Self::gone())? {
            Event::Done => {
                self.done += 1;
                Ok(())
            }
            Event::Reply(msg) => Err(other(format!("unrequested reply {msg:?}"))),
        }
    }

    fn settle(&mut self) -> io::Result<()> {
        while self.done < self.sent {
            self.wait_done()?;
        }
        Ok(())
    }

    /// Sends `ops` keeping [`IN_FLIGHT`] of them unanswered, then waits
    /// for the last answer.
    fn closed_loop(&mut self, ops: impl Iterator<Item = Op>) -> io::Result<()> {
        for op in ops {
            while self.sent - self.done >= IN_FLIGHT {
                self.wait_done()?;
            }
            self.send(op)?;
        }
        self.settle()
    }

    /// Sends each of `ops` when it is due, whatever the server does,
    /// then waits for the last answer; returns how late each send
    /// began, in nanoseconds.
    fn paced(&mut self, ops: &[Op], due: &[Instant]) -> io::Result<Vec<u64>> {
        let mut late = Vec::with_capacity(ops.len());
        for (&op, &due) in ops.iter().zip(due) {
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            late.push(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            self.send(op)?;
            while let Ok(event) = self.events.try_recv() {
                match event {
                    Event::Done => self.done += 1,
                    Event::Reply(msg) => return Err(other(format!("unrequested reply {msg:?}"))),
                }
            }
        }
        self.settle()?;
        Ok(late)
    }

    /// A request whose reply is not `Done`, after everything before it
    /// was answered.
    fn call(&mut self, msg: &Msg) -> io::Result<Msg> {
        self.settle()?;
        msg.write_to(&mut self.ctl)?;
        match self.events.recv().map_err(|_| Self::gone())? {
            Event::Reply(reply) => Ok(*reply),
            Event::Done => Err(other("an operation was answered twice")),
        }
    }

    fn drain(&mut self) -> io::Result<()> {
        match self.call(&Msg::Drain)? {
            Msg::Drained { .. } => Ok(()),
            reply => Err(other(format!("unexpected reply to Drain: {reply:?}"))),
        }
    }

    /// The rest of the set-up of a session opened at `spawned`: the
    /// warm-up in slices, a fence and a probe after each. Returns the
    /// set-up's times and the last probe reading.
    fn warm_up(&mut self, machine: &Machine, spawned: Instant) -> io::Result<(Setup, u64)> {
        // Spawn, handshakes and registrations are not sliced.
        let before_s = spawned.elapsed().as_secs_f64();
        let warm_end = self.plan.warm_end;
        let (mut raw_s, mut scaled_s) = (before_s, before_s);
        let mut before = None;
        for k in 0..WARM_SLICES {
            let t = Instant::now();
            let batches = k * warm_end / WARM_SLICES..(k + 1) * warm_end / WARM_SLICES;
            self.closed_loop(batches.map(Op::Ingest))?;
            self.drain()?;
            let wall_s = t.elapsed().as_secs_f64();
            // The probe reads lower on a CPU the server has not just
            // been busy on, so the first slice has its own reading on
            // both sides.
            let after = machine.probe();
            raw_s += wall_s;
            scaled_s += wall_s / slowdown([before.unwrap_or(after), after]);
            before = Some(after);
        }
        let probe = before.expect("the warm-up has slices");
        Ok((Setup { raw_s, scaled_s }, probe))
    }
}

/// One slice of a phase: the server was idle when it began and when
/// it ended.
pub struct Slice {
    pub batches: Range<usize>,
    /// First send (paced: start of the schedule) to last answer.
    pub wall_s: f64,
    /// CPU seconds the server spent on it.
    pub cpu_s: f64,
    /// The probe before and after it, in nanoseconds.
    pub probe_ns: [u64; 2],
}

/// What the sending side of one run measured.
pub struct Served {
    pub setup: Setup,
    pub paced: Vec<Slice>,
    pub saturate: Vec<Slice>,
    /// When each batch of the paced phase was due.
    pub due_at: Vec<Option<Instant>>,
    /// Nanoseconds each paced send began after it was due.
    pub gen_late_ns: Vec<u64>,
    /// Of each paced slice: the nanoseconds its schedule spans, and how
    /// many later than that its last send began.
    pub schedule_ns: Vec<(u64, u64)>,
    pub peak_rss_kb: u64,
    pub bytes_out: u64,
    /// `ctl metrics` text at teardown and the wall time this server
    /// process had lived by then.
    pub metrics_text: String,
    pub lifetime_s: f64,
    /// Recovery after `kill -9` (durable workloads).
    pub recovery: Option<Recovery>,
}

pub struct Recovery {
    pub seconds: f64,
    pub wal_bytes: u64,
    pub tuples_replayed: u64,
}

/// Where one run keeps its write-ahead logs; removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new() -> io::Result<ScratchDir> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server set up for `plan`: spawned, labels mapped, queries
/// registered, subscriber attached.
struct Session {
    server: ServerProc,
    ctl: TcpStream,
    sub: TcpStream,
}

fn open_session(
    machine: &Machine,
    bin: &Path,
    plan: &Plan,
    wal_dir: Option<&Path>,
) -> io::Result<Session> {
    let server = ServerProc::spawn(machine, bin, plan, wal_dir)?;
    let (mut ctl, _) = connect(server.addr)?;
    let names = plan.label_names();
    match call_sync(&mut ctl, &Msg::MapLabels { names })? {
        // Frames are encoded before set-up with the generator's label
        // ids; a fresh server interns in the same order.
        Msg::LabelIds { ids } if ids.iter().enumerate().all(|(i, &id)| id as usize == i) => {}
        reply => {
            return Err(other(format!(
                "label ids are not the generator's: {reply:?}"
            )))
        }
    }
    for (slot, q) in plan.queries.iter().enumerate() {
        let add = Msg::AddQuery {
            name: q.name.clone(),
            regex: q.regex.clone(),
            simple: q.simple,
            backfill: false,
        };
        match call_sync(&mut ctl, &add)? {
            Msg::QueryAdded { id } if id as usize == slot => {}
            reply => return Err(other(format!("registering {}: {reply:?}", q.name))),
        }
    }
    let (mut sub, _) = connect(server.addr)?;
    let subscribe = Msg::Subscribe {
        queries: Vec::new(),
        policy: SubPolicy::Block,
        capacity: 0,
    };
    match call_sync(&mut sub, &subscribe)? {
        Msg::SubAck { .. } => Ok(Session { server, ctl, sub }),
        reply => Err(other(format!("unexpected reply to Subscribe: {reply:?}"))),
    }
}

/// One set-up, spawn → warm window drained: the seconds it took as
/// measured, and with the warm-up's slices scaled to the reference
/// speed.
#[derive(Clone, Copy)]
pub struct Setup {
    pub raw_s: f64,
    pub scaled_s: f64,
}

/// Set-up alone; the server is thrown away after the drain.
pub fn setup_only(
    machine: &Machine,
    bin: &Path,
    plan: &Plan,
    frames: &Frames,
    wal_dir: Option<&Path>,
) -> io::Result<Setup> {
    let session = open_session(machine, bin, plan, wal_dir)?;
    let Session {
        mut server,
        ctl,
        sub,
    } = session;
    let (tx, rx) = mpsc::channel();
    let (ctl_read, sub_read) = (ctl.try_clone()?, sub);
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(plan, ctl_read, sub_read, tx));
        let mut sender = Sender::new(plan, ctl, frames, rx);
        let result = sender
            .warm_up(machine, server.spawned)
            .map(|(setup, _)| setup);
        server.kill();
        let received = receiver.join().expect("receiver thread panicked");
        result.and_then(|s| received.map(|_| s))
    })
}

/// One full run: set-up, paced phase, saturate phase, teardown.
pub fn run(
    machine: &Machine,
    bin: &Path,
    plan: &Plan,
    frames: &Frames,
    scratch: &Path,
) -> io::Result<(Served, Received)> {
    let wal_dir = plan.spec.durable.then(|| scratch.join("wal-run"));
    let session = open_session(machine, bin, plan, wal_dir.as_deref())?;
    let Session {
        mut server,
        ctl,
        sub,
    } = session;
    let pid = server.pid();
    let (paced_ops, saturate_ops) = plan.phase_ops();

    let (tx, rx) = mpsc::channel();
    let (ctl_read, sub_read) = (ctl.try_clone()?, sub);
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || receive(plan, ctl_read, sub_read, tx));
        let mut sender = Sender::new(plan, ctl, frames, rx);
        let mut body = || -> io::Result<Served> {
            let (setup, mut probe) = sender.warm_up(machine, server.spawned)?;

            // Every slice begins and ends with the server drained, so
            // its CPU time is its own and the probes read the CPU the
            // slice ran on. This ends one: fence, CPU time, probe.
            let mut end_slice = |sender: &mut Sender, ops: &[Op], wall_s: f64, cpu: u64| {
                sender.drain()?;
                let cpu_s = (cpu_ns(pid)? - cpu) as f64 / 1e9;
                let before = std::mem::replace(&mut probe, machine.probe());
                io::Result::Ok(Slice {
                    batches: batch_range(ops),
                    wall_s,
                    cpu_s,
                    probe_ns: [before, probe],
                })
            };
            let mut due_at = vec![None; plan.batches.len()];
            let mut gen_late_ns = Vec::with_capacity(paced_ops.len());
            let mut schedule_ns = Vec::new();
            let mut paced = Vec::new();
            for ops in slice_ops(paced_ops) {
                let cpu = cpu_ns(pid)?;
                // Due offsets: the tuples of the slice scheduled before
                // a batch, at the committed rate. A churn operation is
                // due with the batch after it.
                let t0 = Instant::now() + Duration::from_millis(1);
                let first = plan.batches[batch_range(ops).start].start;
                let mut due = vec![t0; ops.len()];
                let mut next_due = t0;
                for (i, &op) in ops.iter().enumerate().rev() {
                    if let Op::Ingest(b) = op {
                        let before = (plan.batches[b].start - first) as f64;
                        next_due = t0 + Duration::from_secs_f64(before / plan.spec.rate_eps);
                        due_at[b] = Some(next_due);
                    }
                    due[i] = next_due;
                }
                let late = sender.paced(ops, &due)?;
                paced.push(end_slice(
                    &mut sender,
                    ops,
                    t0.elapsed().as_secs_f64(),
                    cpu,
                )?);
                let last_due = due.last().expect("a slice has operations");
                schedule_ns.push((
                    last_due.duration_since(t0).as_nanos() as u64,
                    late.last().copied().unwrap_or(0),
                ));
                gen_late_ns.extend(late);
            }

            let mut saturate = Vec::new();
            for ops in slice_ops(saturate_ops) {
                let cpu = cpu_ns(pid)?;
                let t0 = Instant::now();
                sender.closed_loop(ops.iter().copied())?;
                saturate.push(end_slice(
                    &mut sender,
                    ops,
                    t0.elapsed().as_secs_f64(),
                    cpu,
                )?);
            }

            let peak_rss_kb = vm_hwm_kb(pid)?;
            let metrics_text = match sender.call(&Msg::Metrics)? {
                Msg::MetricsText { text } => text,
                reply => return Err(other(format!("unexpected reply to Metrics: {reply:?}"))),
            };
            let lifetime_s = server.spawned.elapsed().as_secs_f64();
            if plan.spec.durable {
                server.kill();
            } else {
                match sender.call(&Msg::Shutdown)? {
                    Msg::ShuttingDown => server.wait_exit()?,
                    reply => return Err(other(format!("unexpected reply to Shutdown: {reply:?}"))),
                }
            }
            Ok(Served {
                setup,
                paced,
                saturate,
                due_at,
                gen_late_ns,
                schedule_ns,
                peak_rss_kb,
                bytes_out: sender.bytes_out,
                metrics_text,
                lifetime_s,
                recovery: None,
            })
        };
        let result = body();
        // Whatever happened, end the server so the receiver sees the
        // end of its streams.
        server.kill();
        let received = receiver.join().expect("receiver thread panicked")?;
        let mut served = result?;
        if let Some(dir) = &wal_dir {
            served.recovery = Some(recover(machine, bin, plan, dir, received.ack_at.len())?);
        }
        Ok((served, received))
    })
}

/// The batches `ops` ingest, which are consecutive.
fn batch_range(ops: &[Op]) -> Range<usize> {
    let mut batches = ops.iter().filter_map(|op| match op {
        Op::Ingest(b) => Some(*b),
        _ => None,
    });
    let first = batches.next().expect("a slice ingests a batch");
    first..batches.next_back().unwrap_or(first) + 1
}

/// Restarts a killed durable server on its directory and times spawn →
/// `HelloAck` carrying the acked sequence number.
fn recover(
    machine: &Machine,
    bin: &Path,
    plan: &Plan,
    dir: &Path,
    acked_batches: usize,
) -> io::Result<Recovery> {
    let persist = |e: srpq_persist::PersistError| other(e.to_string());
    let (info, _) = Wal::inspect(dir).map_err(persist)?;
    let ckpt_seq = checkpoint::load_latest(dir)
        .map_err(persist)?
        .map_or(0, |(header, _)| header.seq);
    let acked = plan.batches[acked_batches - 1].end as u64;
    let mut server = ServerProc::spawn(machine, bin, plan, Some(dir))?;
    let (mut ctl, seq) = connect(server.addr)?;
    let seconds = server.spawned.elapsed().as_secs_f64();
    if seq != acked {
        return Err(other(format!(
            "recovered to sequence {seq}, but {acked} tuples were acked"
        )));
    }
    match call_sync(&mut ctl, &Msg::Shutdown)? {
        Msg::ShuttingDown => server.wait_exit()?,
        reply => return Err(other(format!("unexpected reply to Shutdown: {reply:?}"))),
    }
    Ok(Recovery {
        seconds,
        wal_bytes: info.bytes,
        tuples_replayed: info.seq_range.1.saturating_sub(ckpt_seq),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_value_reads_the_exact_sample() {
        let text = "# TYPE x histogram\nsrpq_stage_route_ns_sum 1200\nsrpq_stage_route_ns_summary 7\nsrpq_results_delivered_total 42\n";
        assert_eq!(prom_value(text, "srpq_stage_route_ns_sum"), Some(1200.0));
        assert_eq!(prom_value(text, "srpq_results_delivered_total"), Some(42.0));
        assert_eq!(prom_value(text, "srpq_stage_route_ns"), None);
    }

    #[test]
    fn frame_buf_splits_and_joins_frames() {
        let mut bytes = Vec::new();
        for count in [3u64, 5] {
            let (kind, payload) = Msg::Dropped { count }.encode();
            frame::encode_frame(&mut bytes, kind, &payload);
        }
        let mut fb = FrameBuf::default();
        fb.buf.extend_from_slice(&bytes[..bytes.len() - 2]);
        assert_eq!(fb.next().unwrap(), Some(Msg::Dropped { count: 3 }));
        assert_eq!(fb.next().unwrap(), None);
        fb.buf.extend_from_slice(&bytes[bytes.len() - 2..]);
        assert_eq!(fb.next().unwrap(), Some(Msg::Dropped { count: 5 }));
        assert_eq!(fb.next().unwrap(), None);
    }
}
