//! The machine beside the measurement: which CPU the server runs on,
//! and how fast that CPU is at the moment.
//!
//! On the shared hosts this benchmark runs on, a virtual CPU slows down
//! by a third to a half for seconds or minutes at a time (a neighbour
//! on the same core thrashing its caches; no steal time is reported),
//! and the two virtual CPUs do so independently. Identical work through
//! the engine took between 3.3 s and 8.4 s there. So the server is kept
//! on one CPU and the load generator on another, and between the slices
//! of a phase, while the server is idle, the sending thread hops onto
//! the server's CPU and times a fixed piece of work — the probe. Each
//! slice's times are scaled by what the probes beside it read.

use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{BuildHasherDefault, DefaultHasher};
use std::sync::OnceLock;
use std::time::Instant;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs, as glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The CPUs the calling thread may run on.
fn current_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable array of the size passed; pid 0
    // names the calling thread.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// The CPUs this process was given, read before anything was pinned.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(current_cpus)
}

/// Confines the calling thread to `cpus`; threads and processes it
/// starts afterwards begin there too. Errors are ignored: an unpinned
/// run is noisier, not wrong.
fn run_on(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live array of the size passed; pid 0 names the
    // calling thread.
    unsafe { sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
}

type FixedState = BuildHasherDefault<DefaultHasher>;

/// Vertices and out-degree of the probe's graph (about 3 MB of map,
/// lists and visited set: it fits a quiet core's L2 and not half of it),
/// and the vertices one probe visits.
const PROBE_VERTICES: u32 = 30_000;
const PROBE_DEGREE: u32 = 4;
const PROBE_VISITS: usize = 20_000;

/// What the probe reads on a quiet CPU of the machine the sizes were
/// chosen on (see `README.md`), straight after the server was busy
/// there. It only sets the scale: on another machine, or with another
/// standard library's hash map, every scaled metric moves by the same
/// factor, which cancels between a parent and its change built and run
/// side by side.
const PROBE_REF_NS: f64 = 3.4e6;

/// How much slower than at the reference speed the CPU was between the
/// two probe readings beside a piece of the server's work: their mean
/// over the reference reading. A time measured there is divided by it,
/// a rate multiplied. (The server's work slows down somewhat more under
/// a busy neighbour than the probe does; a fitted exponent of 1.25 to
/// 1.5 tightened the spreads by a point or two on the runs it was fitted
/// on and is left out — `README.md` has the table.)
pub fn slowdown(probe_ns: [u64; 2]) -> f64 {
    (probe_ns[0] + probe_ns[1]) as f64 / 2.0 / PROBE_REF_NS
}

/// Where the server and the load generator run, and the probe.
pub struct Machine {
    /// `(server, client)` CPUs; `None` where fewer than two are allowed,
    /// and nothing is pinned.
    cpus: Option<(usize, usize)>,
    /// A fixed random graph in the standard library's collections: a
    /// breadth-first search over it is hash look-ups, short scans and
    /// queue pushes over a few megabytes, as the engine's work is, and
    /// no later change to the repository can make it faster.
    adj: HashMap<u32, Vec<u32>, FixedState>,
}

impl Machine {
    /// Pins the calling thread (the load generator) to its CPU.
    pub fn new() -> Machine {
        let cpus = match allowed_cpus()[..] {
            [server, client, ..] => Some((server, client)),
            _ => None,
        };
        if let Some((_, client)) = cpus {
            run_on(&[client]);
        }
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut adj = HashMap::with_hasher(FixedState::default());
        for u in 0..PROBE_VERTICES {
            let list = (0..PROBE_DEGREE)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % u64::from(PROBE_VERTICES)) as u32
                })
                .collect();
            adj.insert(u, list);
        }
        Machine { cpus, adj }
    }

    /// Runs `work` with the calling thread confined to what `pick`
    /// makes of the `(server, client)` CPUs, then returns it to the
    /// client's.
    fn elsewhere<T>(&self, pick: impl FnOnce(usize) -> Vec<usize>, work: impl FnOnce() -> T) -> T {
        let Some((server, client)) = self.cpus else {
            return work();
        };
        run_on(&pick(server));
        let out = work();
        run_on(&[client]);
        out
    }

    /// Runs `spawn` with the calling thread on the server's CPU, so the
    /// process it starts lives there.
    pub fn on_server_cpu<T>(&self, spawn: impl FnOnce() -> T) -> T {
        self.elsewhere(|server| vec![server], spawn)
    }

    /// Runs `work` with the calling thread free to use every CPU (the
    /// in-process reference runs on two threads).
    pub fn on_all_cpus<T>(&self, work: impl FnOnce() -> T) -> T {
        self.elsewhere(|_| allowed_cpus().to_vec(), work)
    }

    /// Nanoseconds the probe takes on the server's CPU right now. Call
    /// it while the server is idle.
    pub fn probe(&self) -> u64 {
        self.on_server_cpu(|| {
            let t = Instant::now();
            let mut seen = HashSet::with_hasher(FixedState::default());
            let mut queue = VecDeque::new();
            seen.insert(0);
            queue.push_back(0);
            let mut sum = 0u64;
            while let Some(u) = queue.pop_front() {
                for &v in &self.adj[&u] {
                    if seen.len() < PROBE_VISITS && seen.insert(v) {
                        queue.push_back(v);
                        sum += u64::from(v);
                    }
                }
            }
            std::hint::black_box(sum);
            t.elapsed().as_nanos() as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_probe_over_the_reference() {
        let reference = PROBE_REF_NS as u64;
        assert_eq!(slowdown([reference, reference]), 1.0);
        assert_eq!(slowdown([2 * reference, 2 * reference]), 2.0);
        assert_eq!(slowdown([reference / 2, reference * 3 / 2]), 1.0);
    }

    #[test]
    fn probe_does_the_same_work_every_time() {
        let m = Machine::new();
        assert_eq!(m.adj.len(), PROBE_VERTICES as usize);
        assert!(m.probe() > 0 && m.probe() > 0);
        // Pinned or not, the thread ends where the client belongs.
        if let Some((_, client)) = m.cpus {
            assert_eq!(current_cpus(), vec![client]);
        }
    }
}
