//! The metric vocabulary — names, units, directions, bounds — and how
//! one run's measurements become those metrics. `BENCHMARK.json` is
//! [`manifest`]'s output, pinned by a unit test, so the two cannot
//! drift apart.

use crate::machine::slowdown;
use crate::reference::Digest;
use crate::serve::{prom_value, Received, Served, Setup, Slice};
use crate::stats::{median, percentile};
use crate::workloads::{Op, Plan, DEFAULT_SECONDS, SPECS};
use std::collections::BTreeMap;
use std::fmt::Write;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    gated(name, unit, better, 0.0)
}

/// The six gating metrics, the same on every workload.
pub const END_TO_END: [Metric; 6] = [
    gated("setup_s", "s", "lower", 0.25),
    gated("tput_eps", "tuples/s", "higher", 0.20),
    gated("result_lat_p50_us", "us", "lower", 0.25),
    gated("ack_lat_p50_us", "us", "lower", 0.25),
    gated("cpu_us_per_tuple", "us", "lower", 0.25),
    gated("peak_rss_mb", "MB", "lower", 0.15),
];

/// Per-layer rows; the prefix is the crate the row belongs to. `run`
/// rows are measured from outside the server during the normal run,
/// `trace` rows by the in-process replay (see `trace.rs`).
pub const PER_LAYER: [Metric; 60] = [
    layer("common.frame_decode_ns_per_tuple", "ns", "lower"),
    layer("common.wire_decode_ns_per_tuple", "ns", "lower"),
    layer("common.busy_share", "ratio", "lower"),
    layer("server.msg_decode_ns_per_tuple", "ns", "lower"),
    layer("server.results_encode_ns_per_result", "ns", "lower"),
    layer("server.busy_share", "ratio", "lower"),
    layer("server.bytes_in_per_tuple", "B", "lower"),
    layer("server.bytes_out_per_result", "B", "lower"),
    layer("server.results_delivered", "count", "higher"),
    layer("server.results_dropped", "count", "lower"),
    layer("server.tput_whole_eps", "tuples/s", "higher"),
    layer("server.cpu_whole_us_per_tuple", "us", "lower"),
    layer("server.result_lat_p99_us", "us", "lower"),
    layer("server.result_lat_max_us", "us", "lower"),
    layer("server.ack_lat_p99_us", "us", "lower"),
    layer("server.late_batches_max", "count", "lower"),
    layer("server.stage_decode_share", "ratio", "lower"),
    layer("server.stage_wal_share", "ratio", "lower"),
    layer("server.stage_route_share", "ratio", "lower"),
    layer("server.stage_extend_share", "ratio", "lower"),
    layer("server.stage_expiry_share", "ratio", "lower"),
    layer("server.stage_emit_share", "ratio", "lower"),
    layer("server.stage_write_share", "ratio", "lower"),
    layer("server.stage_sum_over_wall", "ratio", "higher"),
    layer("automata.compile_us_per_query", "us", "lower"),
    layer("automata.dfa_states", "count", "lower"),
    layer("graph.insert_ns_per_tuple", "ns", "lower"),
    layer("graph.purge_ns_per_slide", "ns", "lower"),
    layer("graph.edges_live", "count", "lower"),
    layer("graph.busy_share", "ratio", "lower"),
    layer("core.route_ns_per_tuple", "ns", "lower"),
    layer("core.route_busy_share", "ratio", "lower"),
    layer("core.extend_ns_per_tuple", "ns", "lower"),
    layer("core.extend_busy_share", "ratio", "lower"),
    layer("core.slide_ns_per_slide", "ns", "lower"),
    layer("core.slide_busy_share", "ratio", "lower"),
    layer("core.slides", "count", "lower"),
    layer("core.delta_nodes_live", "count", "lower"),
    layer("core.delta_capacity", "count", "lower"),
    layer("core.compactions", "count", "lower"),
    layer("core.results_per_tuple", "ratio", "lower"),
    layer("core.routed_share", "ratio", "lower"),
    layer("core.groups_live", "count", "lower"),
    layer("core.tags_per_result", "ratio", "higher"),
    layer("persist.wal_append_ns_per_tuple", "ns", "lower"),
    layer("persist.wal_bytes_per_tuple", "B", "lower"),
    layer("persist.fsyncs", "count", "lower"),
    layer("persist.busy_share", "ratio", "lower"),
    layer("persist.checkpoint_s", "s", "lower"),
    layer("persist.checkpoint_bytes", "B", "lower"),
    layer("persist.recover_s", "s", "lower"),
    layer("persist.recover_wal_bytes", "B", "lower"),
    layer("persist.recover_tuples_replayed", "count", "lower"),
    layer("bench.setup_raw_s", "s", "lower"),
    layer("bench.slowdown_p50", "ratio", "lower"),
    layer("bench.slowdown_max", "ratio", "lower"),
    layer("bench.gen_s", "s", "lower"),
    layer("bench.gen_late_p99_us", "us", "lower"),
    layer("bench.achieved_over_offered", "ratio", "higher"),
    layer("trace.overhead_pct", "%", "lower"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(out, "  \"run_seconds\": {DEFAULT_SECONDS},").unwrap();
    let rows = |out: &mut String, key: &str, rows: Vec<String>, last: bool| {
        writeln!(
            out,
            "  {}: [\n    {}\n  ]{}",
            json_str(key),
            rows.join(",\n    "),
            if last { "" } else { "," }
        )
        .unwrap();
    };
    let workloads = SPECS
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_str(s.name),
                json_str(s.why)
            )
        })
        .collect();
    rows(&mut out, "workloads", workloads, false);
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better),
                m.bound
            )
        })
        .collect();
    rows(&mut out, "end_to_end", end_to_end, false);
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better)
            )
        })
        .collect();
    rows(&mut out, "per_layer", per_layer, true);
    out.push_str("}\n");
    out
}

/// The last line of standard output the driver reads.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &Values,
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                values.get(m.name).copied().unwrap_or(0.0),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Every metric by name with its unit, one per line.
pub fn print_values(metrics: &[Metric], values: &Values) {
    for m in metrics {
        if let Some(v) = values.get(m.name) {
            println!("  {:<40} {:>16.4} {}", m.name, v, m.unit);
        }
    }
}

/// What a run's operations came to.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Wall time of each phase (the sum of its slices), for `agree`'s
    /// floors.
    pub paced_wall_s: f64,
    pub saturate_wall_s: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Turns one run into its end-to-end values, its `run` per-layer rows
/// and its verdict against the expected digest.
pub fn assess(
    plan: &Plan,
    served: &Served,
    rx: &Received,
    setups: &[Setup],
    expected: Digest,
) -> (Values, Values, Verdict) {
    let paced = plan.warm_end..plan.paced_end;
    let due = |b: usize| served.due_at[b].expect("paced batch");

    // Latencies by slice of the paced phase (for the gating medians)
    // and over the whole phase (for the recorded tails).
    let slice_of = |b: usize| served.paced.partition_point(|s| s.batches.end <= b);
    let mut ack_by_slice = vec![Vec::new(); served.paced.len()];
    for b in paced.clone() {
        let lat = rx.ack_at[b].saturating_duration_since(due(b)).as_nanos() as u64;
        ack_by_slice[slice_of(b)].push(lat);
    }
    let mut result_by_slice = vec![Vec::new(); served.paced.len()];
    let mut from = 0;
    for &(at, end) in &rx.frame_at {
        for &b in &rx.entry_batch[from..end] {
            let lat = at.saturating_duration_since(due(b as usize)).as_nanos() as u64;
            result_by_slice[slice_of(b as usize)].push(lat);
        }
        from = end;
    }
    let p50_by_slice = |by_slice: &mut [Vec<u64>]| -> (Vec<f64>, Vec<u64>) {
        let p50s = by_slice
            .iter_mut()
            .map(|s| {
                s.sort_unstable();
                us(percentile(s, 0.5))
            })
            .collect();
        let mut all = by_slice.concat();
        all.sort_unstable();
        (p50s, all)
    };
    let (ack_p50s, ack_lat) = p50_by_slice(&mut ack_by_slice);
    let (result_p50s, result_lat) = p50_by_slice(&mut result_by_slice);
    let tuples = |s: &Slice| plan.tuples_in(s.batches.clone()) as f64;
    // Backlog at each due time: batches due earlier and not yet acked.
    // Acks arrive in batch order, so one cursor follows them.
    let mut acked = paced.start;
    let mut late_batches_max = 0;
    for b in paced.clone() {
        while acked < b && rx.ack_at[acked] <= due(b) {
            acked += 1;
        }
        late_batches_max = late_batches_max.max(b - acked);
    }

    // Each slice's value at the reference speed of the machine. A
    // latency metric is the median slice; a slice without a sample (no
    // result entry fell into it) reads 0 and is left out.
    let median_slice = |values: &[f64], slices: &[Slice]| {
        let scaled: Vec<f64> = values
            .iter()
            .zip(slices)
            .filter(|(&v, _)| v > 0.0)
            .map(|(v, s)| v / slowdown(s.probe_ns))
            .collect();
        median(&scaled)
    };
    // Throughput and CPU time take in every slice: work that lands in
    // one slice in ten (a checkpoint, a backfilled registration) would
    // never move a median. Returns the scaled sum of `amount` per tuple.
    let every_slice = |amount: fn(&Slice) -> f64, slices: &[Slice]| {
        let scaled: f64 = slices
            .iter()
            .map(|s| amount(s) / slowdown(s.probe_ns))
            .sum();
        scaled / slices.iter().map(tuples).sum::<f64>()
    };
    let setups_s: Vec<f64> = setups.iter().map(|s| s.scaled_s).collect();
    let mut e2e = Values::new();
    e2e.insert("setup_s", median(&setups_s));
    e2e.insert(
        "tput_eps",
        1.0 / every_slice(|s| s.wall_s, &served.saturate),
    );
    e2e.insert(
        "result_lat_p50_us",
        median_slice(&result_p50s, &served.paced),
    );
    e2e.insert("ack_lat_p50_us", median_slice(&ack_p50s, &served.paced));
    e2e.insert(
        "cpu_us_per_tuple",
        every_slice(|s| s.cpu_s, &served.paced) * 1e6,
    );
    e2e.insert("peak_rss_mb", served.peak_rss_kb as f64 / 1024.0);

    let mut late = served.gen_late_ns.clone();
    late.sort_unstable();
    // The share of the offered rate the generator achieved: over the
    // whole phase (recorded), and in the median slice. The latency
    // metrics are medians over the slices, so they stand as long as
    // most slices were offered on schedule; one stall of the generator
    // does not fail the run.
    let achieved_of = |span: u64, late: u64| span as f64 / (span + late).max(1) as f64;
    let (span, late_sum) = served
        .schedule_ns
        .iter()
        .fold((0, 0), |(s, l), &(span, late)| (s + span, l + late));
    let achieved = achieved_of(span, late_sum);
    let by_slice: Vec<f64> = served
        .schedule_ns
        .iter()
        .map(|&(span, late)| achieved_of(span, late))
        .collect();
    let achieved_median = median(&by_slice);

    let scrape = |name: &str| prom_value(&served.metrics_text, name).unwrap_or(0.0);
    let stages = [
        (
            "server.stage_decode_share",
            "srpq_stage_ingest_decode_ns_sum",
        ),
        ("server.stage_wal_share", "srpq_stage_wal_append_ns_sum"),
        ("server.stage_route_share", "srpq_stage_route_ns_sum"),
        ("server.stage_extend_share", "srpq_stage_extend_ns_sum"),
        ("server.stage_expiry_share", "srpq_stage_expiry_ns_sum"),
        ("server.stage_emit_share", "srpq_stage_emit_ns_sum"),
        (
            "server.stage_write_share",
            "srpq_stage_subscriber_write_ns_sum",
        ),
    ];
    let stage_sum: f64 = stages.iter().map(|&(_, s)| scrape(s)).sum();
    let delivered = scrape("srpq_results_delivered_total");

    let mut rows = Values::new();
    for (row, sample) in stages {
        rows.insert(row, scrape(sample) / stage_sum.max(1.0));
    }
    rows.insert(
        "server.stage_sum_over_wall",
        stage_sum / 1e9 / served.lifetime_s,
    );
    rows.insert(
        "server.bytes_in_per_tuple",
        served.bytes_out as f64 / plan.tuples.len() as f64,
    );
    rows.insert(
        "server.bytes_out_per_result",
        rx.sub_bytes as f64 / (rx.digest.count.max(1)) as f64,
    );
    rows.insert("server.results_delivered", delivered);
    rows.insert(
        "server.results_dropped",
        scrape("srpq_results_dropped_total") + rx.dropped as f64,
    );
    // The same two as measured, not scaled to the reference speed.
    let saturate_tuples = plan.tuples_in(plan.paced_end..plan.batches.len()) as f64;
    let saturate_wall_s: f64 = served.saturate.iter().map(|s| s.wall_s).sum();
    rows.insert("server.tput_whole_eps", saturate_tuples / saturate_wall_s);
    let paced_cpu_s: f64 = served.paced.iter().map(|s| s.cpu_s).sum();
    rows.insert(
        "server.cpu_whole_us_per_tuple",
        paced_cpu_s * 1e6 / plan.tuples_in(paced.clone()) as f64,
    );
    rows.insert(
        "server.result_lat_p99_us",
        us(percentile(&result_lat, 0.99)),
    );
    rows.insert(
        "server.result_lat_max_us",
        us(result_lat.last().copied().unwrap_or(0)),
    );
    rows.insert("server.ack_lat_p99_us", us(percentile(&ack_lat, 0.99)));
    rows.insert("server.late_batches_max", late_batches_max as f64);
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.raw_s).collect();
    rows.insert("bench.setup_raw_s", median(&raw_setups));
    let mut slowdowns: Vec<f64> = served
        .paced
        .iter()
        .chain(&served.saturate)
        .map(|s| slowdown(s.probe_ns))
        .collect();
    slowdowns.sort_by(f64::total_cmp);
    rows.insert("bench.slowdown_p50", median(&slowdowns));
    rows.insert(
        "bench.slowdown_max",
        slowdowns.last().copied().unwrap_or(0.0),
    );
    rows.insert("bench.gen_s", plan.gen_s);
    rows.insert("bench.gen_late_p99_us", us(percentile(&late, 0.99)));
    rows.insert("bench.achieved_over_offered", achieved);
    let recovery = served.recovery.as_ref();
    rows.insert("persist.recover_s", recovery.map_or(0.0, |r| r.seconds));
    rows.insert(
        "persist.recover_wal_bytes",
        recovery.map_or(0.0, |r| r.wal_bytes as f64),
    );
    rows.insert(
        "persist.recover_tuples_replayed",
        recovery.map_or(0.0, |r| r.tuples_replayed as f64),
    );

    let churn_ops = plan
        .ops
        .iter()
        .filter(|op| !matches!(op, Op::Ingest(_)))
        .count() as u64;
    let attempted = plan.batches.len() as u64 + churn_ops + expected.count;
    let mut failed = rx.refused + rx.dropped + rx.digest.count.abs_diff(expected.count);
    if rx.digest.count == expected.count && rx.digest.sum != expected.sum {
        failed += 1;
    }
    if delivered as u64 != rx.digest.count {
        failed += 1;
    }
    if achieved_median < 0.98 {
        failed += paced.len() as u64;
    }
    let verdict = Verdict {
        attempted,
        failed,
        correct: failed == 0 && rx.digest == expected,
        paced_wall_s: served.paced.iter().map(|s| s.wall_s).sum(),
        saturate_wall_s,
    };
    (e2e, rows, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().unwrap().is_ascii_alphanumeric()
    }

    #[test]
    fn names_are_well_formed_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(well_formed(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(m.bound <= 0.25);
        }
        for s in crate::workloads::traced() {
            assert!(well_formed(s.name) && seen.insert(s.name));
            assert!(s.why.len() <= 200 && !s.why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END[0].bound, widest, "setup_s has the largest bound");
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `-- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn every_printed_name_is_in_the_manifest() {
        let manifest = manifest();
        let mut values = Values::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            values.insert(m.name, 1.5);
        }
        for metrics in [&END_TO_END[..], &PER_LAYER[..]] {
            let line = result_line(true, 1, 0, metrics, &values);
            for m in metrics {
                assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
                assert!(manifest.contains(&format!("{{\"name\": \"{}\",", m.name)));
            }
        }
    }
}
