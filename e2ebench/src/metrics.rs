//! The metrics the benchmark reports, by name and unit, and how each is
//! computed from a timed loop.

use std::collections::HashMap;

use crate::procfs;
use crate::spans::{self_times_ns, Folded, Span};
use crate::workloads::SetupTimes;
use crate::RunStats;

/// End-to-end metrics (`--trace 0`), in output order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("tuples_per_s", "1/s"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MB"),
    ("timeline_p50_s", "s"),
];

/// Per-layer metrics (`--trace 1`), in output order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("datagen.generate_ms", "ms"),
    ("source.poll_ms", "ms"),
    ("source.polls", "count"),
    ("source.tuples", "count"),
    ("source.pending_frac", "frac"),
    ("federation.poll_self_ms", "ms"),
    ("federation.delivered", "count"),
    ("federation.duplicates", "count"),
    ("federation.useful_frac", "frac"),
    ("federation.failovers", "count"),
    ("federation.declined_hedges", "count"),
    ("federation.stalls", "count"),
    ("federation.blocked_sends", "count"),
    ("optimizer.plan_ms", "ms"),
    ("core.static_run_ms", "ms"),
    ("core.corrective_run_ms", "ms"),
    ("core.engine_self_ms", "ms"),
    ("core.phases", "count"),
    ("core.stitch_ms", "ms"),
    ("core.reuse_frac", "frac"),
    ("core.teardown_ms", "ms"),
    ("exec.cpu_ms", "ms"),
    ("exec.idle_ms", "ms"),
    ("exec.batches", "count"),
    ("exec.tuples_out", "count"),
    ("exec.max_queue_depth", "count"),
    ("exec.blocked_sends", "count"),
    ("exec.parallelism", "ratio"),
    ("serve.call_ms", "ms"),
    ("serve.engine_self_ms", "ms"),
    ("serve.wasted_race_tuples", "count"),
    ("serve.hedges_fired", "count"),
    ("serve.hedges_declined", "count"),
    ("stats.trace_overhead_frac", "frac"),
    ("stats.query_samples", "count"),
    ("stats.untraced_query_samples", "count"),
    ("failed_frac", "frac"),
];

/// Linear-interpolation quantile of `values`, `q` in [0, 1]. A failed
/// query enters as `+inf`: it misses every latency limit.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[lo] == v[hi] {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Query latencies in ms, failed queries as `+inf`.
fn latencies_ms(run: &RunStats) -> Vec<f64> {
    run.outcomes
        .iter()
        .map(|o| match o.error {
            None => o.latency_s * 1e3,
            Some(_) => f64::INFINITY,
        })
        .collect()
}

fn ok_outcomes(run: &RunStats) -> impl Iterator<Item = &crate::workloads::Outcome> {
    run.outcomes.iter().filter(|o| o.error.is_none())
}

pub fn end_to_end(run: &RunStats, setups: &[SetupTimes]) -> Vec<(&'static str, f64, &'static str)> {
    let lat = latencies_ms(run);
    let beyond_p90 = lat.len() - (0.9 * lat.len() as f64).ceil() as usize;
    if beyond_p90 < 10 {
        eprintln!(
            "[e2ebench] only {beyond_p90} of {} samples lie beyond p90; lengthen --seconds",
            lat.len()
        );
    }
    let completed = ok_outcomes(run).count() as f64;
    let tuples: u64 = ok_outcomes(run).map(|o| o.base_tuples).sum();
    let timelines: Vec<f64> = ok_outcomes(run).map(|o| o.timeline_s).collect();
    let values = [
        median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        quantile(&lat, 0.5),
        quantile(&lat, 0.9),
        completed / run.wall_s,
        tuples as f64 / run.wall_s,
        run.cpu_s * 1e3 / run.outcomes.len() as f64,
        procfs::peak_rss_mb(),
        median(&timelines),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Totals over the kept spans of one name.
#[derive(Default)]
struct SpanRollup {
    count: f64,
    dur_ms: f64,
    self_ms: f64,
    tuples: f64,
    pending: f64,
}

fn rollup(spans: &[Span]) -> HashMap<&'static str, SpanRollup> {
    let selfs = self_times_ns(spans);
    let mut out: HashMap<&'static str, SpanRollup> = HashMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let r = out.entry(s.name).or_default();
        r.count += 1.0;
        r.dur_ms += s.dur_ns() as f64 / 1e6;
        r.self_ms += self_ns as f64 / 1e6;
        r.tuples += s.tuples as f64;
        r.pending += s.pending as u8 as f64;
    }
    out
}

/// `a / b`, or 0 when there is nothing to divide (a layer the workload
/// does not load).
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn per_layer(
    untraced: &RunStats,
    traced: &RunStats,
    spans: &[Span],
    folded: &HashMap<&'static str, Folded>,
    setups: &[SetupTimes],
) -> Vec<(&'static str, f64, &'static str)> {
    let n = traced.outcomes.len() as f64;
    let mut layer: HashMap<&str, f64> = HashMap::new();
    for o in &traced.outcomes {
        for &(k, v) in &o.layers {
            *layer.entry(k).or_default() += v;
        }
    }
    let l = |k: &str| layer.get(k).copied().unwrap_or(0.0);
    let roll = rollup(spans);
    let empty = SpanRollup::default();
    let s = |k: &str| roll.get(k).unwrap_or(&empty);
    let f = |k: &str| folded.get(k).copied().unwrap_or_default();
    // Small polls were folded, not kept as spans.
    let (poll, small) = (s(crate::probe::SOURCE_POLL), f(crate::probe::SOURCE_POLL));
    let polls = poll.count + small.count as f64;
    let (fed_poll, fed_small) = (
        s(crate::probe::FEDERATION_POLL),
        f(crate::probe::FEDERATION_POLL),
    );
    let (static_run, corrective_run) = (s("core.static_run"), s("core.corrective_run"));
    let runs = static_run.count + corrective_run.count;
    let corrective = l("core.corrective_queries");
    let (delivered, duplicates) = (l("federation.delivered"), l("federation.duplicates"));
    let (reused, discarded) = (l("core.reused"), l("core.discarded"));
    let call_wall: f64 = traced.outcomes.iter().map(|o| o.latency_s).sum();
    let call_cpu: f64 = traced.outcomes.iter().map(|o| o.call_cpu_s).sum();
    let p50 = |r: &RunStats| quantile(&latencies_ms(r), 0.5);
    let values: HashMap<&str, f64> = HashMap::from([
        (
            "datagen.generate_ms",
            median(
                &setups
                    .iter()
                    .map(|s| s.generate_s * 1e3)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("source.poll_ms", (poll.self_ms + small.ns as f64 / 1e6) / n),
        ("source.polls", polls / n),
        ("source.tuples", (poll.tuples + small.tuples as f64) / n),
        (
            "source.pending_frac",
            ratio(poll.pending + small.pending as f64, polls),
        ),
        (
            "federation.poll_self_ms",
            (fed_poll.self_ms + fed_small.ns as f64 / 1e6) / n,
        ),
        ("federation.delivered", delivered / n),
        ("federation.duplicates", duplicates / n),
        (
            "federation.useful_frac",
            ratio(delivered, delivered + duplicates),
        ),
        ("federation.failovers", l("federation.failovers") / n),
        (
            "federation.declined_hedges",
            l("federation.declined_hedges") / n,
        ),
        ("federation.stalls", l("federation.stalls") / n),
        (
            "federation.blocked_sends",
            l("federation.blocked_sends") / n,
        ),
        (
            "optimizer.plan_ms",
            median(&setups.iter().map(|s| s.plan_s * 1e3).collect::<Vec<_>>()),
        ),
        (
            "core.static_run_ms",
            ratio(static_run.dur_ms, static_run.count),
        ),
        (
            "core.corrective_run_ms",
            ratio(corrective_run.dur_ms, corrective_run.count),
        ),
        (
            "core.engine_self_ms",
            ratio(static_run.self_ms + corrective_run.self_ms, runs),
        ),
        ("core.phases", ratio(l("core.phases"), corrective)),
        ("core.stitch_ms", ratio(l("core.stitch_ms"), corrective)),
        ("core.reuse_frac", ratio(reused, reused + discarded)),
        (
            "core.teardown_ms",
            ratio(s("core.teardown").dur_ms, s("core.teardown").count),
        ),
        ("exec.cpu_ms", l("exec.cpu_ms") / n),
        ("exec.idle_ms", l("exec.idle_ms") / n),
        ("exec.batches", l("exec.batches") / n),
        ("exec.tuples_out", l("exec.tuples_out") / n),
        ("exec.max_queue_depth", l("exec.max_queue_depth") / n),
        ("exec.blocked_sends", l("exec.blocked_sends") / n),
        ("exec.parallelism", ratio(call_cpu, call_wall)),
        (
            "serve.call_ms",
            ratio(s("serve.call").dur_ms, s("serve.call").count),
        ),
        (
            "serve.engine_self_ms",
            ratio(s("serve.call").self_ms, s("serve.call").count),
        ),
        (
            "serve.wasted_race_tuples",
            l("serve.wasted_race_tuples") / n,
        ),
        ("serve.hedges_fired", l("serve.hedges_fired") / n),
        ("serve.hedges_declined", l("serve.hedges_declined") / n),
        (
            "stats.trace_overhead_frac",
            p50(traced) / p50(untraced) - 1.0,
        ),
        ("stats.query_samples", n),
        (
            "stats.untraced_query_samples",
            untraced.outcomes.len() as f64,
        ),
        (
            "failed_frac",
            (traced.failed() + untraced.failed()) as f64
                / (traced.outcomes.len() + untraced.outcomes.len()) as f64,
        ),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, values[name], unit))
        .collect()
}
