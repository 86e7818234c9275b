//! What the server must answer: an order-independent digest of the
//! result multiset, the in-process reference that computes it, the
//! committed digests of the default seed, and the check of the
//! reference itself against the re-evaluation oracle.

use crate::workloads::{churn_name, Op, Plan, CHURN_REGEX, DEFAULT_SECONDS, DEFAULT_SEED};
use srpq_automata::CompiledQuery;
use srpq_baseline::evaluate_arbitrary;
use srpq_common::{FxHashSet, LabelInterner, Op as TupleOp, ResultPair, Timestamp};
use srpq_core::multi::{MultiCollectSink, MultiQueryEngine, MultiSink, QueryId};
use srpq_core::{EngineConfig, PathSemantics};
use srpq_graph::{WindowGraph, WindowPolicy};
use srpq_server::protocol::ResultEntry;
use std::path::PathBuf;

/// Count and order-independent 64-bit digest of a result multiset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Digest {
    /// Folds one entry in; the wrapping sum of per-entry hashes keeps
    /// multiplicity and ignores order.
    pub fn add(&mut self, e: &ResultEntry) {
        let head = u64::from(e.query) | u64::from(e.invalidated) << 32;
        let pair = u64::from(e.src) << 32 | u64::from(e.dst);
        let h = splitmix(splitmix(splitmix(head) ^ pair) ^ e.ts as u64);
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
    }
}

impl MultiSink for Digest {
    fn emit(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.add(&entry(id, pair, ts, false));
    }

    fn invalidate(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.add(&entry(id, pair, ts, true));
    }
}

/// The wire form of one engine event, as the server's fan-out makes it.
pub fn entry(id: QueryId, pair: ResultPair, ts: Timestamp, invalidated: bool) -> ResultEntry {
    ResultEntry {
        query: id.0,
        invalidated,
        src: pair.src.0,
        dst: pair.dst.0,
        ts: ts.0,
    }
}

pub fn semantics(simple: bool) -> PathSemantics {
    if simple {
        PathSemantics::Simple
    } else {
        PathSemantics::Arbitrary
    }
}

/// An engine configured like `srpq serve --window W --slide B` with the
/// plan's base queries registered in slot order.
pub fn new_engine(plan: &Plan) -> (MultiQueryEngine, LabelInterner) {
    let window = WindowPolicy::new(plan.spec.window, plan.spec.slide);
    let mut engine = MultiQueryEngine::with_config(EngineConfig::with_window(window));
    let mut labels = plan.labels.clone();
    for q in &plan.queries {
        let compiled =
            CompiledQuery::compile(&q.regex, &mut labels).expect("workload regex parses");
        engine
            .register(q.name.as_str(), compiled, semantics(q.simple))
            .expect("workload names are unique");
    }
    (engine, labels)
}

/// Applies a churn operation the way the server's `add_query
/// --backfill` / `remove_query` do.
pub fn apply_churn<S: MultiSink>(
    engine: &mut MultiQueryEngine,
    labels: &mut LabelInterner,
    op: Op,
    sink: &mut S,
) {
    match op {
        Op::Add(j) => {
            let compiled = CompiledQuery::compile(CHURN_REGEX, labels).expect("churn regex parses");
            engine
                .register_backfilled(churn_name(j), compiled, PathSemantics::Arbitrary, sink)
                .expect("churn names are unique");
        }
        Op::Remove(j) => {
            let id = engine
                .query_id(&churn_name(j))
                .expect("churn query is live");
            engine.deregister(id).expect("churn query is live");
        }
        Op::Ingest(_) => unreachable!("not a churn operation"),
    }
}

/// Renames a part's local query ids to the server's slot ids.
struct Renamed<'a> {
    /// Slot of each base query of the part, in its registration order.
    slots: &'a [u32],
    /// Slot of the server's first churn query.
    n_base: u32,
    digest: Digest,
}

impl Renamed<'_> {
    fn slot(&self, local: QueryId) -> QueryId {
        let i = local.0 as usize;
        QueryId(match self.slots.get(i) {
            Some(&slot) => slot,
            // Churn queries take the slots after the part's base queries.
            None => self.n_base + (i - self.slots.len()) as u32,
        })
    }
}

impl MultiSink for Renamed<'_> {
    fn emit(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.digest.add(&entry(self.slot(id), pair, ts, false));
    }

    fn invalidate(&mut self, id: QueryId, pair: ResultPair, ts: Timestamp) {
        self.digest.add(&entry(self.slot(id), pair, ts, true));
    }
}

/// The digest an in-process engine produces over the plan's operations.
///
/// Evaluation groups do not see each other, and the digest is a sum,
/// so the queries are dealt to two engines that run the stream on a
/// thread each: the reference costs half the wall time of the run it
/// checks instead of all of it. Churn queries go to the engine whose
/// base queries keep the labels of [`CHURN_REGEX`] in its window graph,
/// which a backfill replays from.
pub fn reference(plan: &Plan) -> Digest {
    // Deal distinct (regex, semantics) pairs alternately; copies follow
    // their template.
    let mut templates: Vec<(&str, bool)> = Vec::new();
    let mut parts: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    for (slot, q) in plan.queries.iter().enumerate() {
        let key = (q.regex.as_str(), q.simple);
        let t = templates.iter().position(|&k| k == key).unwrap_or_else(|| {
            templates.push(key);
            templates.len() - 1
        });
        parts[t % 2].push(slot as u32);
    }
    let alphabet = |regex: &str| {
        let compiled =
            CompiledQuery::compile(regex, &mut plan.labels.clone()).expect("workload regex parses");
        compiled.dfa().alphabet().to_vec()
    };
    let churn_labels = alphabet(CHURN_REGEX);
    let churn_part = parts.iter().position(|slots| {
        let kept: Vec<_> = slots
            .iter()
            .flat_map(|&s| alphabet(&plan.queries[s as usize].regex))
            .collect();
        churn_labels.iter().all(|l| kept.contains(l))
    });
    let has_churn = plan.ops.iter().any(|op| !matches!(op, Op::Ingest(_)));
    assert!(
        !has_churn || churn_part.is_some(),
        "no half keeps the churn query's labels alive"
    );

    let run_part = |part: usize| {
        let slots = &parts[part];
        let window = WindowPolicy::new(plan.spec.window, plan.spec.slide);
        let mut engine = MultiQueryEngine::with_config(EngineConfig::with_window(window));
        let mut labels = plan.labels.clone();
        for &slot in slots {
            let q = &plan.queries[slot as usize];
            let compiled =
                CompiledQuery::compile(&q.regex, &mut labels).expect("workload regex parses");
            engine
                .register(q.name.as_str(), compiled, semantics(q.simple))
                .expect("workload names are unique");
        }
        let mut sink = Renamed {
            slots,
            n_base: plan.queries.len() as u32,
            digest: Digest::default(),
        };
        for b in 0..plan.warm_end {
            engine.process_batch(plan.batch(b), &mut sink);
        }
        for &op in &plan.ops {
            match op {
                Op::Ingest(b) => engine.process_batch(plan.batch(b), &mut sink),
                churn if churn_part == Some(part) => {
                    apply_churn(&mut engine, &mut labels, churn, &mut sink)
                }
                _ => {}
            }
        }
        sink.digest
    };
    let (a, b) = std::thread::scope(|scope| {
        let other = scope.spawn(|| run_part(1));
        (
            run_part(0),
            other.join().expect("reference thread panicked"),
        )
    });
    Digest {
        count: a.count + b.count,
        sum: a.sum.wrapping_add(b.sum),
    }
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.txt"))
}

fn expected_line(seed: u64, seconds: u64, d: Digest) -> String {
    format!(
        "seed={seed} seconds={seconds} count={} digest={:#018x}\n",
        d.count, d.sum
    )
}

/// The digest in `text` (one `expected/` file), if it is for this seed
/// and run length.
fn parse_expected(text: &str, seed: u64, seconds: u64) -> Option<Digest> {
    let field = |key: &str| {
        text.split_whitespace()
            .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
    };
    if field("seed")?.parse() != Ok(seed) || field("seconds")?.parse() != Ok(seconds) {
        return None;
    }
    Some(Digest {
        count: field("count")?.parse().ok()?,
        sum: u64::from_str_radix(field("digest")?.strip_prefix("0x")?, 16).ok()?,
    })
}

/// The committed digest of `workload` for this seed and run length.
pub fn committed(workload: &str, seed: u64, seconds: u64) -> Option<Digest> {
    let text = std::fs::read_to_string(expected_path(workload)).ok()?;
    parse_expected(&text, seed, seconds)
}

/// `verify`: the committed digest equals the in-process reference, and
/// the reference engine agrees with the `srpq_baseline` oracle over the
/// first two windows as far as its contract goes. With `write`, the
/// digest file is rewritten instead of compared.
pub fn verify(plan: &Plan, write: bool) -> Result<String, String> {
    let name = plan.spec.name;
    let digest = reference(plan);
    if write {
        let line = expected_line(DEFAULT_SEED, DEFAULT_SECONDS, digest);
        std::fs::write(expected_path(name), line).map_err(|e| e.to_string())?;
    } else {
        match committed(name, DEFAULT_SEED, DEFAULT_SECONDS) {
            Some(c) if c == digest => {}
            other => {
                return Err(format!(
                    "{name}: committed digest {other:?} is not the reference {digest:?}"
                ))
            }
        }
    }
    let oracle = check_against_oracle(plan)?;
    Ok(format!(
        "{name}: digest {:#018x} over {} entries; sound at {} of the first {} tuples, {} of {} snapshot pairs unreported",
        digest.sum, digest.count, oracle.checks, oracle.tuples, oracle.unreported, oracle.snapshot_pairs
    ))
}

/// Tuples of the first two windows at which [`check_against_oracle`]
/// evaluates the snapshot from scratch.
const ORACLE_CHECKS: usize = 200;

/// What [`check_against_oracle`] counted.
struct OracleReport {
    tuples: usize,
    checks: usize,
    /// Pairs in the oracle's snapshots, and those of them the engine
    /// had not reported by then.
    snapshot_pairs: u64,
    unreported: u64,
}

/// Runs the reference engine over the first two windows and compares
/// it, at [`ORACLE_CHECKS`] evenly spaced tuples (a from-scratch evaluation per
/// tuple of a 100k-edge window would take hours), with a from-scratch
/// evaluation of the window snapshot.
///
/// *Sound*, asserted: what the engine reports at that tuple lies inside
/// the snapshot. *Complete*, counted: the snapshot should lie inside
/// what the engine has reported so far, but under the server's default
/// `RefreshPolicy::Node` with a slide above 1 the engine may hold a
/// stale (too old) timestamp on a Δ node until the next expiry pass and
/// miss a pair whose only witness runs through it — the repository's
/// own suites assert exact equality only for β = 1. More than one
/// snapshot pair in a thousand unreported fails the check all the same.
///
/// Churn operations are left out (they do not change the base queries'
/// streams); simple-path templates are conflict-free, so the
/// arbitrary-path oracle is theirs too.
fn check_against_oracle(plan: &Plan) -> Result<OracleReport, String> {
    let window = WindowPolicy::new(plan.spec.window, plan.spec.slide);
    let end_ts = plan.tuples[0].ts.0 + 2 * plan.spec.window;
    let n = plan.tuples.partition_point(|t| t.ts.0 < end_ts);
    let stride = (n / ORACLE_CHECKS).max(1);
    let (mut engine, mut labels) = new_engine(plan);

    // One oracle evaluation per distinct regex, shared by its copies.
    let mut regexes: Vec<(&str, CompiledQuery, Vec<usize>)> = Vec::new();
    for (slot, q) in plan.queries.iter().enumerate() {
        match regexes.iter_mut().find(|(r, ..)| *r == q.regex) {
            Some((.., slots)) => slots.push(slot),
            None => {
                let compiled = CompiledQuery::compile(&q.regex, &mut labels).expect("parses");
                regexes.push((&q.regex, compiled, vec![slot]));
            }
        }
    }
    let mut reported: Vec<FxHashSet<ResultPair>> = vec![FxHashSet::default(); plan.queries.len()];
    let mut graph = WindowGraph::new();
    let mut now = Timestamp::NEG_INFINITY;
    let mut sink = MultiCollectSink::default();
    let mut report = OracleReport {
        tuples: n,
        checks: 0,
        snapshot_pairs: 0,
        unreported: 0,
    };
    for (i, t) in plan.tuples[..n].iter().enumerate() {
        sink.emitted.clear();
        engine.process(*t, &mut sink);
        for &(id, pair, _) in &sink.emitted {
            reported[id.0 as usize].insert(pair);
        }
        now = now.max(t.ts);
        match t.op {
            TupleOp::Insert => {
                graph.insert(t.edge.src, t.edge.dst, t.label, t.ts);
            }
            TupleOp::Delete => {
                graph.remove(t.edge.src, t.edge.dst, t.label);
            }
        }
        if i % stride != stride - 1 && i != n - 1 {
            continue;
        }
        report.checks += 1;
        let wm = window.watermark(now);
        graph.purge_expired(wm);
        for (regex, compiled, slots) in &regexes {
            let snapshot = evaluate_arbitrary(&graph, wm, compiled.dfa());
            for &slot in slots {
                report.snapshot_pairs += snapshot.len() as u64;
                report.unreported += snapshot
                    .iter()
                    .filter(|p| !reported[slot].contains(p))
                    .count() as u64;
                let extra = sink
                    .emitted
                    .iter()
                    .find(|(id, pair, _)| id.0 as usize == slot && !snapshot.contains(pair));
                if let Some((_, pair, _)) = extra {
                    return Err(format!(
                        "{}: tuple {i}: engine reported {pair:?} for {regex:?}, the oracle has no such path",
                        plan.spec.name
                    ));
                }
            }
        }
    }
    if report.unreported * 1000 > report.snapshot_pairs {
        return Err(format!(
            "{}: the engine had not reported {} of the oracle's {} snapshot pairs",
            plan.spec.name, report.unreported, report.snapshot_pairs
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(query: u32, src: u32, ts: i64) -> ResultEntry {
        ResultEntry {
            query,
            invalidated: false,
            src,
            dst: 9,
            ts,
        }
    }

    #[test]
    fn digest_ignores_order_and_keeps_multiplicity() {
        let (a, b) = (e(1, 2, 3), e(2, 1, 3));
        let fold = |es: &[ResultEntry]| {
            let mut d = Digest::default();
            es.iter().for_each(|x| d.add(x));
            d
        };
        assert_eq!(fold(&[a, b]), fold(&[b, a]));
        assert_ne!(fold(&[a, b]), fold(&[a, a]));
        assert_ne!(fold(&[a]), fold(&[a, a]));
        let mut inv = a;
        inv.invalidated = true;
        assert_ne!(fold(&[a]), fold(&[inv]));
    }

    #[test]
    fn expected_line_round_trips() {
        let d = Digest {
            count: 42,
            sum: 0xdead_beef,
        };
        let line = expected_line(3, 24, d);
        assert_eq!(parse_expected(&line, 3, 24), Some(d));
        assert_eq!(parse_expected(&line, 4, 24), None);
        assert_eq!(parse_expected(&line, 3, 12), None);
        assert_eq!(parse_expected("seed=3 seconds=24", 3, 24), None);
    }
}
