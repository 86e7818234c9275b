//! The workloads: committed sizes, seeded generation, and the batch
//! plan a run, a trace replay and the reference all share.
//!
//! Every size is a constant here or a product of a constant and
//! `--seconds`; nothing is derived from a measurement at run time. The
//! rates were chosen on the machine named in `README.md`: the reference
//! throughput is the unscaled throughput of a quiet hour there,
//! `rate_eps` about 40% of it, both to two significant digits.

use srpq_common::{wire, LabelInterner, StreamTuple};
use srpq_datagen::{gmark, inject_deletions, ldbc, queries_for, so, yago, DatasetKind};
use srpq_server::protocol::Msg;
use std::ops::Range;
use std::time::Instant;

/// Tuples per ingest batch before the cut is moved to the next change
/// of stream time.
pub const BATCH_TUPLES: usize = 256;

/// Slices a phase is cut into. The server is drained between two
/// slices and the machine probed (see `machine.rs`), and each slice's
/// timings are scaled by the probes beside it before they are summed
/// (throughput, CPU time) or their median is taken (latencies).
pub const SLICES: usize = 40;

/// Seed the committed digests in `expected/` were made with.
pub const DEFAULT_SEED: u64 = 1;

/// Measured seconds (paced + saturate) the committed sizes and digests
/// assume; `BENCHMARK.json` carries the same number as `run_seconds`.
pub const DEFAULT_SECONDS: u64 = 16;

/// Committed constants of one workload.
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Window size and slide in stream-time units.
    pub window: i64,
    pub slide: i64,
    /// Tuples ingested during set-up (at least one full window).
    pub warm_tuples: usize,
    /// Offered rate of the paced phase, tuples per second.
    pub rate_eps: f64,
    /// Reference throughput that sizes the saturate phase.
    pub ref_tput_eps: f64,
    /// Serve with `--wal-dir` + `--sync batch`, end with `kill -9` and
    /// a timed restart.
    pub durable: bool,
    /// Batches between two churn operations (a backfilled `add_query`,
    /// then its `remove_query`); 0 = none.
    pub churn_every: usize,
}

/// The workloads `BENCHMARK.json` lists.
pub static SPECS: [Spec; 3] = [
    Spec {
        name: "dense_closure",
        why: "cyclic 3-label stream under closure queries: delta-forest extend and slide expiry in core dominate",
        window: 15_000,
        slide: 500,
        warm_tuples: 120_000,
        rate_eps: 18_000.0,
        ref_tput_eps: 44_000.0,
        durable: false,
        churn_every: 0,
    },
    Spec {
        name: "durable_churn",
        why: "WAL + fsync + checkpoints with 5% deletions and backfilled query swaps: persist sets ack latency",
        window: 480_000,
        slide: 48_000,
        warm_tuples: 160_000,
        rate_eps: 16_000.0,
        ref_tput_eps: 41_000.0,
        durable: true,
        churn_every: 256,
    },
    Spec {
        name: "shared_fanout",
        why: "64 registrations over 8 templates: group fan-out, Results encoding and socket writes in server dominate",
        window: 36_000,
        slide: 3_600,
        warm_tuples: 330_000,
        rate_eps: 42_000.0,
        ref_tput_eps: 105_000.0,
        durable: false,
        churn_every: 0,
    },
];

/// The bypass of `core`, replayed by `trace` only: the server ingests
/// it at 1.7M tuples/s, so phases of gating length would not fit in
/// memory, and the driver's time cap has no room for a fourth workload.
/// The two rates only size the stream the trace replays a part of.
pub static SPARSE_INGEST: Spec = Spec {
    name: "sparse_ingest",
    why: "97% of tuples match no query: frame/wire decode, routing bitmap and ack only; bypasses core and persist",
    window: 200_000,
    slide: 20_000,
    warm_tuples: 2_000_000,
    rate_eps: 200_000.0,
    ref_tput_eps: 400_000.0,
    durable: false,
    churn_every: 0,
};

/// Every workload `trace` replays: the listed ones and
/// [`SPARSE_INGEST`].
pub fn traced() -> Vec<&'static Spec> {
    SPECS.iter().chain([&SPARSE_INGEST]).collect()
}

/// One registration.
#[derive(Clone)]
pub struct QueryDef {
    pub name: String,
    pub regex: String,
    pub simple: bool,
}

/// What the driver sends on the ingest/control connection, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Ingest batch `b`.
    Ingest(usize),
    /// Backfilled `add_query` of churn query `j`.
    Add(usize),
    /// `remove_query` of churn query `j`.
    Remove(usize),
}

/// The base queries of `durable_churn`: the recursive relations of the
/// LDBC-like schema (`replyOf` chains) and joins across its entity
/// types. `knows*` is left out: the symmetric `knows` graph is one
/// giant component, and its closure would turn this into a second
/// `dense_closure`.
const CHURN_BASE: [(&str, &str, bool); 4] = [
    ("threads", "replyOf+", false),
    ("authors", "replyOf* hasCreator", false),
    ("friends2", "knows knows", false),
    ("fans", "likes hasCreator knows", false),
];

/// Regex of every churn query: not language-equal to any base query of
/// `durable_churn`, so each add founds a group and replays the window.
pub const CHURN_REGEX: &str = "likes replyOf*";

pub fn churn_name(j: usize) -> String {
    format!("churn{j}")
}

/// The generated input of one run.
pub struct Plan {
    pub spec: &'static Spec,
    pub labels: LabelInterner,
    pub queries: Vec<QueryDef>,
    pub tuples: Vec<StreamTuple>,
    /// Tuple index range of each batch.
    pub batches: Vec<Range<usize>>,
    /// First stream time of each batch; strictly increasing, so a
    /// result's `ts` names its batch exactly.
    pub batch_first_ts: Vec<i64>,
    /// Batches `0..warm_end` are set-up, `warm_end..paced_end` the
    /// paced phase, the rest the saturate phase.
    pub warm_end: usize,
    pub paced_end: usize,
    /// Operations after the warm-up, in send order.
    pub ops: Vec<Op>,
    /// Seconds spent generating (not part of set-up).
    pub gen_s: f64,
}

impl Plan {
    pub fn build(spec: &'static Spec, seed: u64, seconds: u64) -> Plan {
        let t0 = Instant::now();
        let half = seconds as f64 / 2.0;
        let paced = (spec.rate_eps * half) as usize;
        let saturate = (spec.ref_tput_eps * half) as usize;
        let total = spec.warm_tuples + paced + saturate;
        let (labels, mut tuples, queries) = generate(spec.name, seed, total);
        assert!(
            tuples.len() >= total,
            "generator made {} of {total} tuples",
            tuples.len()
        );
        tuples.truncate(total);

        let batches = cut_batches(&tuples);
        let batch_first_ts: Vec<i64> = batches.iter().map(|r| tuples[r.start].ts.0).collect();
        let first_at_or_after = |n: usize| batches.partition_point(|r| r.start < n);
        let warm_end = first_at_or_after(spec.warm_tuples).max(1);
        let paced_end = first_at_or_after(spec.warm_tuples + paced).max(warm_end + 1);
        assert!(paced_end < batches.len(), "saturate phase is empty");

        let mut ops = Vec::with_capacity(batches.len() - warm_end + 8);
        let mut live = None;
        let mut next = 0;
        for (i, b) in (warm_end..batches.len()).enumerate() {
            if spec.churn_every > 0 && i % spec.churn_every == spec.churn_every - 1 {
                match live.take() {
                    None => {
                        ops.push(Op::Add(next));
                        live = Some(next);
                        next += 1;
                    }
                    Some(j) => ops.push(Op::Remove(j)),
                }
            }
            ops.push(Op::Ingest(b));
        }
        Plan {
            spec,
            labels,
            queries,
            tuples,
            batches,
            batch_first_ts,
            warm_end,
            paced_end,
            ops,
            gen_s: t0.elapsed().as_secs_f64(),
        }
    }

    pub fn label_names(&self) -> Vec<String> {
        self.labels.iter().map(|(_, n)| n.to_string()).collect()
    }

    pub fn batch(&self, b: usize) -> &[StreamTuple] {
        &self.tuples[self.batches[b].clone()]
    }

    /// Tuples in batches `range`.
    pub fn tuples_in(&self, range: Range<usize>) -> usize {
        self.batches[range.end - 1].end - self.batches[range.start].start
    }

    /// `ops` split into the paced and the saturate phase; a churn
    /// operation goes with the batch after it.
    pub fn phase_ops(&self) -> (&[Op], &[Op]) {
        let mut split = self
            .ops
            .iter()
            .position(|&op| op == Op::Ingest(self.paced_end))
            .expect("saturate phase is not empty");
        while split > 0 && !matches!(self.ops[split - 1], Op::Ingest(_)) {
            split -= 1;
        }
        self.ops.split_at(split)
    }

    /// The batch whose stream-time span holds `ts`.
    pub fn batch_of_ts(&self, ts: i64) -> usize {
        self.batch_first_ts
            .partition_point(|&first| first <= ts)
            .saturating_sub(1)
    }

    /// Every batch as one ready-to-write `Ingest` frame.
    pub fn encode_frames(&self) -> Frames {
        let mut bytes =
            Vec::with_capacity(self.tuples.len() * wire::TUPLE_WIRE_SIZE + self.batches.len() * 9);
        let mut ranges = Vec::with_capacity(self.batches.len());
        for b in 0..self.batches.len() {
            let start = bytes.len();
            let (kind, payload) = Msg::Ingest {
                tuples: self.batch(b).to_vec(),
            }
            .encode();
            srpq_common::frame::encode_frame(&mut bytes, kind, &payload);
            ranges.push(start..bytes.len());
        }
        Frames { bytes, ranges }
    }
}

/// Pre-encoded ingest frames of a plan: the bytes, and each batch's
/// frame in them.
pub struct Frames {
    pub bytes: Vec<u8>,
    pub ranges: Vec<Range<usize>>,
}

/// `ops` (one phase) cut into at most [`SLICES`] runs of as equal a
/// number of batches as possible; a churn operation goes with the
/// batch after it.
pub fn slice_ops(ops: &[Op]) -> Vec<&[Op]> {
    let is_ingest = |op: &Op| matches!(op, Op::Ingest(_));
    let ingests = ops.iter().filter(|op| is_ingest(op)).count();
    let part_of = |n: usize| n * SLICES / ingests;
    let mut parts = Vec::with_capacity(SLICES);
    let (mut start, mut seen, mut after_last_ingest) = (0, 0, 0);
    for (i, op) in ops.iter().enumerate() {
        if !is_ingest(op) {
            continue;
        }
        if seen > 0 && part_of(seen) != part_of(seen - 1) {
            parts.push(&ops[start..after_last_ingest]);
            start = after_last_ingest;
        }
        seen += 1;
        after_last_ingest = i + 1;
    }
    parts.push(&ops[start..]);
    parts
}

/// Cuts `tuples` into batches of at least [`BATCH_TUPLES`], each
/// extended until stream time changes, so no stream time spans two
/// batches.
pub fn cut_batches(tuples: &[StreamTuple]) -> Vec<Range<usize>> {
    let mut out = Vec::with_capacity(tuples.len() / BATCH_TUPLES + 1);
    let mut start = 0;
    while start < tuples.len() {
        let mut end = (start + BATCH_TUPLES).min(tuples.len());
        while end < tuples.len() && tuples[end].ts == tuples[end - 1].ts {
            end += 1;
        }
        out.push(start..end);
        start = end;
    }
    out
}

fn named(defs: &[(&str, &str, bool)]) -> Vec<QueryDef> {
    defs.iter()
        .map(|&(name, regex, simple)| QueryDef {
            name: name.into(),
            regex: regex.into(),
            simple,
        })
        .collect()
}

fn table2(kind: DatasetKind, keep: &[&str]) -> Vec<QueryDef> {
    queries_for(kind)
        .into_iter()
        .filter(|(name, _)| keep.contains(name))
        .map(|(name, regex)| QueryDef {
            name: name.into(),
            regex,
            simple: false,
        })
        .collect()
}

/// The eight templates of `shared_fanout` over the gMark `ldbc_like`
/// schema: six under arbitrary-path semantics and two conflict-free
/// ones under simple-path semantics, so RSPQ is on the clock without
/// its exponential case.
pub const FANOUT_TEMPLATES: [(&str, bool); 8] = [
    ("knows+", false),
    ("hasMember knows*", false),
    ("replyOf* replyOfPost", false),
    ("replyOf+ hasCreator", false),
    ("containerOf hasTag", false),
    ("likes postedBy knows*", false),
    ("knows*", true),
    ("replyOf* replyOfPost hasTag", true),
];

/// gMark scale of `shared_fanout`: 2.6M edges over 450k vertices.
const FANOUT_SCALE: u32 = 300;

/// Registrations per template in `shared_fanout`.
pub const FANOUT_COPIES: usize = 8;

fn generate(
    name: &str,
    seed: u64,
    total: usize,
) -> (LabelInterner, Vec<StreamTuple>, Vec<QueryDef>) {
    match name {
        "sparse_ingest" => {
            let ds = yago::generate(&yago::YagoConfig {
                n_edges: total,
                n_vertices: 200_000,
                seed,
                ..Default::default()
            });
            // Three mid-rank predicates: together about 3% of a Zipf(1.1)
            // stream over 100 labels.
            let (a, b, c) = ("p15", "p16", "p17");
            let queries = named(&[
                ("Q2", &format!("{a} {b}*"), false),
                ("Q5", &format!("{a} {b}* {c}"), false),
                ("Q7", &format!("{a} {b} {c}*"), false),
            ]);
            (ds.labels, ds.tuples, queries)
        }
        "dense_closure" => {
            // Mild preferential attachment and a window well under the
            // percolation threshold of 3000 users: closer to it, or with
            // the generator's default 0.7, throughput differs by 15%
            // from seed to seed and no 5% bound can hold.
            let ds = so::generate(&so::SoConfig {
                n_users: 3_000,
                n_edges: total,
                duration: total as i64 * 8,
                seed,
                preferential: 0.2,
            });
            (
                ds.labels,
                ds.tuples,
                table2(DatasetKind::So, &["Q1", "Q4", "Q9"]),
            )
        }
        "durable_churn" => {
            let ds = ldbc::generate(&ldbc::LdbcConfig {
                n_events: total,
                seed_persons: 2_000,
                duration: total as i64 * 8,
                seed,
            });
            let tuples = inject_deletions(&ds.tuples, 0.05, seed);
            (ds.labels, tuples, named(&CHURN_BASE))
        }
        "shared_fanout" => {
            // About 8.6k edges per unit of scale. The scale is fixed, so
            // that the share of the graph a window holds — and with it
            // the results per tuple — does not change with `--seconds`;
            // only a run too long for that graph enlarges it.
            let scale = FANOUT_SCALE.max((total / 8_000 + 1) as u32);
            let ds = gmark::generate(&gmark::GmarkSchema::ldbc_like(scale), seed);
            let mut queries = Vec::with_capacity(FANOUT_TEMPLATES.len() * FANOUT_COPIES);
            // Copy-major, so the copies of one template are not
            // neighbours in slot order.
            for copy in 0..FANOUT_COPIES {
                for (t, &(regex, simple)) in FANOUT_TEMPLATES.iter().enumerate() {
                    queries.push(QueryDef {
                        name: format!("t{t}_u{copy}"),
                        regex: regex.into(),
                        simple,
                    });
                }
            }
            (ds.labels, ds.tuples, queries)
        }
        other => panic!("unknown workload {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srpq_common::{Label, Timestamp, VertexId};

    fn spec(name: &str) -> &'static Spec {
        SPECS.iter().find(|s| s.name == name).unwrap()
    }

    #[test]
    fn same_seed_gives_byte_identical_stream() {
        for spec in traced() {
            let a = Plan::build(spec, 7, 1);
            let b = Plan::build(spec, 7, 1);
            assert_eq!(
                a.encode_frames().bytes,
                b.encode_frames().bytes,
                "{}",
                spec.name
            );
            assert_eq!(a.ops, b.ops);
            let c = Plan::build(spec, 8, 1);
            assert_ne!(
                a.encode_frames().bytes,
                c.encode_frames().bytes,
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn ts_maps_to_its_batch_when_stream_times_repeat() {
        // 600 tuples, three per stream time: cuts must move off 256.
        let tuples: Vec<StreamTuple> = (0..600)
            .map(|i| {
                StreamTuple::insert(Timestamp(i / 3), VertexId(i as u32), VertexId(0), Label(0))
            })
            .collect();
        let batches = cut_batches(&tuples);
        assert_eq!(batches[0], 0..258);
        assert_eq!(batches.last().unwrap().end, 600);
        for w in batches.windows(2) {
            assert!(tuples[w[0].end - 1].ts < tuples[w[1].start].ts);
        }
        let plan = Plan::build(spec("durable_churn"), 3, 1);
        for (b, r) in plan.batches.iter().enumerate() {
            for t in &plan.tuples[r.clone()] {
                assert_eq!(plan.batch_of_ts(t.ts.0), b);
            }
        }
    }

    #[test]
    fn phases_are_in_order_and_churn_alternates() {
        let plan = Plan::build(spec("durable_churn"), 1, DEFAULT_SECONDS);
        assert!(0 < plan.warm_end && plan.warm_end < plan.paced_end);
        assert!(plan.tuples_in(0..plan.warm_end) >= plan.spec.warm_tuples);
        let churn: Vec<Op> = plan
            .ops
            .iter()
            .copied()
            .filter(|op| !matches!(op, Op::Ingest(_)))
            .collect();
        assert!(churn.len() >= 2);
        for pair in churn.chunks(2) {
            if let [Op::Add(a), Op::Remove(r)] = pair {
                assert_eq!(a, r);
            } else {
                assert!(matches!(pair, [Op::Add(_)]), "{pair:?}");
            }
        }
    }

    #[test]
    fn slices_are_equal_and_churn_goes_with_the_next_batch() {
        let plan = Plan::build(spec("durable_churn"), 1, DEFAULT_SECONDS);
        let (paced, saturate) = plan.phase_ops();
        for ops in [paced, saturate] {
            let parts = slice_ops(ops);
            assert_eq!(parts.len(), SLICES);
            assert_eq!(parts.concat(), ops);
            let sizes: Vec<usize> = parts
                .iter()
                .map(|p| p.iter().filter(|op| matches!(op, Op::Ingest(_))).count())
                .collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "{sizes:?}");
            for part in parts {
                assert!(matches!(part.last(), Some(Op::Ingest(_))), "{part:?}");
            }
        }
        // Fewer batches than slices: one part per batch.
        let few = [Op::Ingest(7), Op::Add(0), Op::Ingest(8)];
        assert_eq!(slice_ops(&few), vec![&few[..1], &few[1..]]);
    }

    #[test]
    fn simple_path_templates_meet_no_conflict() {
        // `replyOf* replyOfPost hasTag` lacks the containment property,
        // but the schema's vertex types keep a vertex from being met in
        // two states; run the stream's start and see.
        let plan = Plan::build(spec("shared_fanout"), 1, 1);
        assert_eq!(plan.queries.len(), 64);
        let (mut engine, labels) = crate::reference::new_engine(&plan);
        assert_eq!(
            labels.len(),
            plan.labels.len(),
            "a template speaks an unknown label"
        );
        for b in 0..200 {
            engine.process_batch(plan.batch(b), &mut srpq_core::multi::NullMultiSink);
        }
        assert_eq!(engine.groups_live(), FANOUT_TEMPLATES.len());
        for g in engine.group_ids() {
            let stats = engine.group_engine(g).unwrap().stats();
            assert_eq!((stats.conflicts_detected, stats.budget_exhausted), (0, 0));
            assert!(stats.tuples_processed > 0);
        }
    }
}
