//! Shared-evaluation (MQO) equivalence suite.
//!
//! The tentpole guarantee of canonical-signature grouping: sharing
//! changes *what is computed* (one Δ forest per distinct language
//! instead of one per registration) but not *what any subscriber
//! observes*. Every test here compares tagged per-subscriber event
//! streams — `(QueryId, pair, ts)` emissions and invalidations in
//! order — between an unshared reference (a [`Schedule::private`] run,
//! where no two registrations share a group) and shared engines, fed
//! per tuple and in batches at several worker counts, over mixed
//! duplicate/unique query sets, mid-stream registration churn, and
//! durable kill/recover.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use srpq_core::engine::PathSemantics;
use srpq_core::EngineConfig;
use srpq_graph::WindowPolicy;
use srpq_harness::{
    assert_identical, assert_private_matches, assert_same_end, assert_sorted_identical, Chunks,
    Event, Scenario, Schedule, Step, StreamSpec, REST,
};
use srpq_persist::CheckpointStrategy;

/// A mixed registration set: three spellings of one language, two
/// verbatim duplicates of another, two unique queries, and a
/// same-language-different-semantics pair (which must NOT share).
/// Shared evaluation collapses these 8 registrations to 5 groups.
const QUERIES: &[(&str, &str, PathSemantics)] = &[
    ("alert_0", "(a | b)+", PathSemantics::Arbitrary),
    ("alert_1", "(b | a)+", PathSemantics::Arbitrary),
    ("board_0", "a b", PathSemantics::Arbitrary),
    ("board_1", "a b", PathSemantics::Arbitrary),
    ("uniq_c", "c+", PathSemantics::Arbitrary),
    ("alert_2", "(a | b) (a | b)*", PathSemantics::Arbitrary),
    ("uniq_cd", "c d", PathSemantics::Arbitrary),
    ("simple_alert", "(a | b)+", PathSemantics::Simple),
];
const DISTINCT_GROUPS: usize = 5;

/// [`QUERIES`] registered over a random stream on labels `a`–`d` with
/// ~10% deletions (and `refresh` refreshes) spanning several window
/// slides, then `script`.
fn scenario(
    window: WindowPolicy,
    (len, vertices, seed): (usize, u32, u64),
    refresh: f64,
    script: &[Step],
) -> Scenario {
    let mut config = EngineConfig::with_window(window);
    config.rspq_extend_budget = Some(20_000);
    let stream = StreamSpec::new(len, vertices, 4, seed)
        .deletes(0.1)
        .refreshes(refresh);
    Scenario::new(config, &stream, QUERIES, script)
}

/// Byte-identical per-subscriber streams: the unshared per-tuple run is
/// the reference; shared and unshared batch runs at {0, 1, 2, 4}
/// workers must reproduce it event-for-event — while the shared engines
/// actually collapse 8 registrations to 5 forests.
#[test]
fn shared_collapses_registrations_and_streams_match_unshared() {
    for seed in 0..2u64 {
        let window = WindowPolicy::new(100, 20);
        let tail = [REST, Step::ExpireNow];
        let sc = scenario(window, (1_200, 20, 0x51A5 + seed), 0.0, &tail);

        let reference = sc.run(&Schedule::per_tuple().private());
        assert!(!reference.emitted().is_empty(), "vacuous fixture");
        assert_eq!(
            reference.engine().groups_live(),
            QUERIES.len(),
            "the unshared reference must keep one forest per registration"
        );

        let got = sc.run(&Schedule::per_tuple());
        let shared = got.engine();
        assert_eq!(shared.n_queries(), QUERIES.len());
        assert_eq!(
            shared.groups_live(),
            DISTINCT_GROUPS,
            "equal languages must collapse onto one group"
        );
        // Verbatim duplicates and alternate spellings share one group;
        // the same language under different path semantics must not.
        let g = |name: &str| shared.group_of(shared.query_id(name).unwrap()).unwrap();
        assert_eq!(g("alert_0"), g("alert_1"));
        assert_eq!(g("alert_0"), g("alert_2"));
        assert_eq!(g("board_0"), g("board_1"));
        assert_ne!(g("alert_0"), g("simple_alert"));
        assert_identical(&got, &reference, &format!("seed {seed}: shared sequential"));
        // Co-subscribers of one group report the group's shared stats.
        let a0 = shared.stats(shared.query_id("alert_0").unwrap()).unwrap();
        let a1 = shared.stats(shared.query_id("alert_1").unwrap()).unwrap();
        assert_eq!(
            (a0.tuples_routed, a0.eval_ns),
            (a1.tuples_routed, a1.eval_ns),
            "co-subscribers must alias one group's stats"
        );

        for workers in [0usize, 1, 2, 4] {
            let shared = Schedule::batches(64).workers(workers);
            for schedule in [shared.clone(), shared.private()] {
                let par = sc.run(&schedule);
                if !schedule.private {
                    assert_eq!(par.engine().groups_live(), DISTINCT_GROUPS);
                }
                let ctx = format!("seed {seed}, {schedule:?}");
                assert_identical(&par, &reference, &ctx);
            }
        }
    }
}

/// Mid-stream churn: a backfilled duplicate attaches to a live group, a
/// co-subscriber leaves (the group survives), a backfilled unique query
/// founds a fresh group, and a private query's last subscriber leaves
/// (the group is freed).
///
/// The contract under churn (see the `multi` module docs) has three
/// parts, asserted separately:
///
/// 1. Every *other* subscriber is untouched: filtering the attached
///    query out, shared and unshared streams are byte-identical — the
///    unique backfill replays identically in both modes.
/// 2. The attached query's *backfill segment* is byte-identical to the
///    unshared replay (the scratch engine runs the very same replay).
/// 3. After attaching, the subscriber "rides the shared stream": its
///    post-backfill events equal its group co-subscriber's, event for
///    event. (An unshared mid-stream replay forest is *not* that
///    reference: replaying a window snapshot discovers results on a
///    different trajectory than the group forest's true incremental
///    history, so post-attach streams are compared within shared mode.)
///
/// Batch runs at every worker count must match the shared per-tuple
/// run on the *whole* stream, attached query included.
#[test]
fn midstream_attach_and_deregister_churn() {
    // The scripted session, in 80-tuple batches: a backfilled duplicate
    // after chunk 3, a departure from the shared group after 5, a
    // backfilled unique after 7, a private-group free after 9.
    let script = [
        Step::Ingest(4 * 80),
        Step::backfill("late_dup", "(a | b)+", PathSemantics::Arbitrary),
        Step::Ingest(2 * 80),
        Step::Deregister("alert_1".into()),
        Step::Ingest(2 * 80),
        Step::backfill("late_uniq", "b (c | d)", PathSemantics::Arbitrary),
        Step::Ingest(2 * 80),
        Step::Deregister("uniq_c".into()),
        REST,
        Step::ExpireNow,
    ];
    let sc = scenario(WindowPolicy::new(90, 15), (1_000, 18, 0xC0DE), 0.0, &script);

    let reference = sc.run(&Schedule::per_tuple().private());
    assert!(!reference.emitted().is_empty(), "vacuous fixture");
    // 8 initial + 2 late − 2 departed registrations, a forest each.
    assert_eq!(reference.engine().groups_live(), QUERIES.len());

    let got = sc.run(&Schedule::per_tuple());
    let shared = got.engine();
    // The backfilled duplicate attached to the live alert group...
    let g = |name: &str| shared.group_of(shared.query_id(name).unwrap()).unwrap();
    let msg = "backfilled duplicate must attach";
    assert_eq!(g("late_dup"), g("alert_0"), "{msg}");
    // ...and survived alert_1's departure; the freed uniq_c group is
    // gone: 8 initial groups - alert dup - board dup - uniq_c + late_uniq.
    assert_eq!(shared.groups_live(), DISTINCT_GROUPS);
    let dup = shared.query_id("late_dup").unwrap();
    let attached: Vec<_> = got.backfills.iter().filter(|b| b.attached).collect();
    assert_eq!(attached.len(), 1);
    assert_eq!(attached[0].id, dup);

    // (1) Everyone but the attached query: byte-identical streams. (2)
    // The backfill segment itself replays identically.
    assert_private_matches(&reference, &got, "sharing under churn");

    // (3) Post-attach, late_dup rides the group stream: its events are
    // its co-subscriber alert_0's, re-tagged.
    let q0 = shared.query_id("alert_0").unwrap();
    let (e, i) = (attached[0].events.0.end, attached[0].events.1.end);
    let tail = |evs: &[Event], id, from| -> Vec<_> {
        let tail = evs[from..].iter().filter(|ev| ev.0 == id);
        tail.map(|ev| (ev.1, ev.2)).collect()
    };
    let post = |id| (tail(got.emitted(), id, e), tail(got.invalidated(), id, i));
    assert!(!post(dup).0.is_empty(), "vacuous post-attach fixture");
    let msg = "attached subscriber must ride the shared stream";
    assert_eq!(post(dup), post(q0), "{msg}");

    // Batches at every worker count reproduce the shared per-tuple
    // stream in full — attach, departures, and backfills included.
    for workers in [0usize, 1, 2, 4] {
        let par = sc.run(&Schedule::batches(80).workers(workers));
        assert_eq!(par.engine().groups_live(), DISTINCT_GROUPS);
        assert_eq!(par.backfills, got.backfills, "{workers} workers: backfills");
        assert_identical(&par, &got, &format!("{workers} workers"));
    }
}

/// Kill/recover with shared groups live: the recovered engine must come
/// back with the same slot → group mapping, co-subscriber sets, and
/// signatures (membership is *encoded*, not re-derived by signature
/// matching), and the combined pre-cut + post-cut stream must equal an
/// uninterrupted run's.
#[test]
fn durable_kill_recover_preserves_group_membership() {
    for strategy in [CheckpointStrategy::Logical, CheckpointStrategy::Full] {
        for seed in 0..2u64 {
            let name = format!("groups-{strategy}-{seed}");
            let cut = SmallRng::seed_from_u64(seed ^ 0xD00D).gen_range(60..450 - 60);
            let script = [Step::Ingest(cut), Step::Crash, REST];
            let sc = scenario(WindowPolicy::new(40, 8), (450, 12, seed), 0.0, &script);
            let reference = sc.run(&Schedule::batches(23));

            let schedule = Schedule::batches(23).durable(strategy);
            let mut run = sc.run_to(&schedule, QUERIES.len() + 2);
            // Group membership survived verbatim: slot → group
            // mapping, co-subscriber sets and signatures.
            assert_eq!(run.engine().groups_live(), DISTINCT_GROUPS, "{name}");
            assert_eq!(run.groups(), reference.groups(), "{name}: groups");
            run.steps(1);
            let ctx = format!("{name}: tagged streams across the cut");
            assert_sorted_identical(&run, &reference, &ctx);
        }
    }
}

/// The checkpoint layout is worker-count-agnostic: state written
/// without workers recovers onto a worker pool (a restart may change
/// `--workers` freely) with groups intact.
#[test]
fn recovery_switches_engine_shape_with_groups_intact() {
    let script = [Step::Ingest(220), Step::Crash, Step::SetWorkers(3), REST];
    let sc = scenario(WindowPolicy::new(40, 8), (400, 12, 0xAB), 0.0, &script);
    let schedule = Schedule::batches(23).durable(CheckpointStrategy::Full);
    let reference = sc.sequential();
    let want = reference.run(&Schedule::batches(23));
    let mut run = sc.run_to(&schedule, QUERIES.len() + 3);
    assert_eq!(run.engine().n_workers(), 3);
    assert_eq!(run.engine().groups_live(), DISTINCT_GROUPS);
    assert_eq!(run.groups(), want.groups(), "groups after the switch");
    // The switched engine keeps serving: byte-exact against a fresh
    // sequential run over the full stream (Full checkpoints make
    // recovery exact).
    run.steps(1);
    assert_sorted_identical(&run, &want, "streams across the engine switch");
}

/// A seeded script over [`QUERIES`]' templates under both path
/// semantics, on a stream with deletions and refreshes: registrations
/// at stream start, then ingests of 10–50 tuples, each followed by one
/// of a backfilled or plain registration (duplicate and distinct
/// templates alike), a deregistration, a worker-count change over
/// {0, 1, 2, 4}, a forced expiry pass or a crash. Mid-stream, a plain
/// registration, a crash and a backfill of the same template always
/// follow each other: the plain one founds a group that misses the
/// window before it, which recovery must keep unjoinable.
fn random_script(seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sc = scenario(WindowPolicy::new(30, 6), (400, 12, seed), 0.15, &[]);
    let mut live: Vec<String> = QUERIES.iter().map(|q| q.0.to_string()).collect();
    let (mut fed, mut n_late) = (0, 0);
    while fed < sc.stream.len() {
        let n = rng.gen_range(10..50);
        sc.steps.push(Step::Ingest(n));
        fed += n;
        let (_, expr, _) = QUERIES[rng.gen_range(0..QUERIES.len())];
        let semantics = [PathSemantics::Arbitrary, PathSemantics::Simple][rng.gen_range(0..2usize)];
        let mut late = |backfill| {
            n_late += 1;
            live.push(format!("late_{n_late}"));
            Step::Register(format!("late_{n_late}"), expr.into(), semantics, backfill)
        };
        let steps = if (200..200 + n).contains(&fed) {
            vec![late(false), Step::Crash, late(true)]
        } else {
            vec![match rng.gen_range(0..6) {
                op @ (0 | 1) => late(op == 0),
                2 if live.len() > 1 => {
                    Step::Deregister(live.swap_remove(rng.gen_range(0..live.len())))
                }
                3 => Step::SetWorkers([0, 1, 2, 4][rng.gen_range(0..4usize)]),
                4 => Step::ExpireNow,
                _ => Step::Crash,
            }]
        };
        sc.steps.extend(steps);
    }
    sc
}

/// Every schedule — per-timestamp batches and irregular batches, on
/// and off the worker pool, durable under `Full` with crashes — matches
/// the per-tuple in-memory reference exactly on seeded scripts: the
/// same tagged events in the same order, and the same end state. (The
/// name sorts after the suite's long pole, so libtest starts that first.)
#[test]
fn the_per_tuple_reference_matches_every_schedule() {
    for seed in 0..8u64 {
        let sc = random_script(0x5C21 + seed);
        let reference = sc.sequential();
        let want = reference.run(&Schedule::per_tuple());
        assert!(!want.emitted().is_empty(), "vacuous script {seed}");
        for schedule in [
            Schedule::chunks(Chunks::Timestamps).durable(CheckpointStrategy::Full),
            Schedule::chunks(Chunks::Sizes(vec![5, 1, 17])).workers(2),
            Schedule::batches(64)
                .workers(1)
                .durable(CheckpointStrategy::Full),
        ] {
            let got = sc.run(&schedule);
            let ctx = format!("seed {seed}, {schedule:?}, script {:?}", sc.steps);
            assert_identical(&got, &want, &ctx);
            assert_same_end(&got, &want, &ctx);
        }
        // In private groups, only the attached subscribers differ.
        let private = Schedule::chunks(Chunks::Timestamps).workers(2).private();
        let ctx = format!("seed {seed}, private, script {:?}", sc.steps);
        assert_private_matches(&sc.run(&private), &want, &ctx);
    }
}

/// The smallest script on which the property caught `Full` recovery
/// reordering results within one timestamp: the recovered reverse index
/// iterated a vertex's trees in another order than the crashed one did.
/// Trees are now visited in ascending root order, a function of Δ's
/// content alone.
#[test]
fn full_recovery_keeps_the_order_within_a_timestamp() {
    let config = EngineConfig::with_window(WindowPolicy::new(30, 6));
    let query = [("q", "a b", PathSemantics::Arbitrary)];
    let script = [Step::Ingest(15), Step::Crash, REST];
    let sc = Scenario::new(config, &StreamSpec::new(30, 6, 2, 248), &query, &script);
    let want = sc.run(&Schedule::per_tuple());
    let got = sc.run(&Schedule::per_tuple().durable(CheckpointStrategy::Full));
    assert_identical(&got, &want, "crashed at tuple 15");
}
