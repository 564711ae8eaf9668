//! End-to-end benchmark of the engine: whole queries in a closed loop with
//! one client, every answer checked inside the timed loop.
//!
//! ```text
//! e2ebench --workload <local-mix|mirror-fleet|threaded-corrective>
//!          --seed <n> --seconds <s> --trace <0|1> [--spans <file.jsonl>]
//! ```
//!
//! With `--trace 0` the run is untraced (no benchmark spans, engine
//! journals off) and reports the end-to-end metrics. With `--trace 1` the
//! first half of the time runs untraced and the second half traced; the
//! run reports the per-layer metrics, writes the spans as JSON lines, and
//! prices tracing as the traced median latency against the untraced one.
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Per-layer values are means per query of the traced half unless the
//! name says otherwise (`_frac` and `parallelism` are ratios of totals);
//! `_ms` values are wall milliseconds, and a layer a workload does not
//! load reads 0. Spans are recorded only from this side of the public
//! calls, so work inside the engine (operators, quiesce) shows as the
//! self time of the call that contains it.

mod metrics;
mod probe;
mod procfs;
mod spans;
mod workloads;

#[cfg(test)]
mod tests;

use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use spans::Tracer;
use workloads::{Outcome, Params, SetupTimes, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Everything one timed loop observed.
pub struct RunStats {
    pub outcomes: Vec<Outcome>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl RunStats {
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.error.is_some()).count()
    }
}

/// Run one query, turning a panic into a failed outcome.
fn run_one(w: &mut dyn Workload, i: usize, qid: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    match std::panic::catch_unwind(AssertUnwindSafe(|| w.run(i, qid, tracer))) {
        Ok(o) => o,
        Err(payload) => {
            if let Some(t) = tracer {
                t.recover_from_panic();
            }
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            Outcome {
                error: Some(format!("panic: {msg}")),
                ..Default::default()
            }
        }
    }
}

/// The closed loop: one client issues query after query until `seconds`
/// have passed, always finishing the round it is in (so at least one).
pub fn run_loop(
    w: &mut dyn Workload,
    seconds: f64,
    tracer: Option<&Arc<Tracer>>,
    next_qid: &mut u64,
) -> RunStats {
    let round = w.round_len();
    let cpu0 = procfs::cpu_s();
    let t0 = Instant::now();
    let mut outcomes = Vec::new();
    let mut i = 0;
    while i == 0 || i % round != 0 || t0.elapsed().as_secs_f64() < seconds {
        *next_qid += 1;
        let o = run_one(w, i, *next_qid, tracer);
        if let Some(e) = &o.error {
            eprintln!("[e2ebench] query {i} failed: {e}");
        }
        outcomes.push(o);
        i += 1;
    }
    RunStats {
        outcomes,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: procfs::cpu_s() - cpu0,
    }
}

/// Untimed queries before a timed loop, so lazy state (allocator pools,
/// a server's learned source profiles) is warm.
fn warm_up(w: &mut dyn Workload, tracer: Option<&Arc<Tracer>>, next_qid: &mut u64) -> bool {
    let mut ok = true;
    for i in 0..w.round_len() {
        *next_qid += 1;
        if let Some(e) = run_one(w, i, *next_qid, tracer).error {
            eprintln!("[e2ebench] warm-up query {i} failed: {e}");
            ok = false;
        }
    }
    if let Some(t) = tracer {
        t.take();
    }
    ok
}

/// The result of one benchmark invocation.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<spans::Span>,
}

/// Set up `SETUP_REPS` times (keeping the last), warm up, and measure.
pub fn bench(workload: &str, params: Params, seconds: f64, trace: bool) -> Result<Report, String> {
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let (built, times) = workloads::setup(workload, params)?;
        setups.push(times);
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");
    let mut qid = 0;
    let mut warm_ok = warm_up(w.as_mut(), None, &mut qid);
    if !trace {
        let run = run_loop(w.as_mut(), seconds, None, &mut qid);
        let failed = run.failed();
        return Ok(Report {
            correct: warm_ok && failed == 0,
            attempted: run.outcomes.len(),
            failed,
            metrics: metrics::end_to_end(&run, &setups),
            spans: Vec::new(),
        });
    }
    let untraced = run_loop(w.as_mut(), seconds / 2.0, None, &mut qid);
    let tracer = Arc::new(Tracer::default());
    warm_ok &= warm_up(w.as_mut(), Some(&tracer), &mut qid);
    let traced = run_loop(w.as_mut(), seconds / 2.0, Some(&tracer), &mut qid);
    let (spans, folded) = tracer.take();
    let failed = untraced.failed() + traced.failed();
    Ok(Report {
        correct: warm_ok && failed == 0,
        attempted: untraced.outcomes.len() + traced.outcomes.len(),
        failed,
        metrics: metrics::per_layer(&untraced, &traced, &spans, &folded, &setups),
        spans,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A failed query misses every latency limit; JSON has no infinity.
        "1e308".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let params = Params {
        seed: args.seed,
        nproc,
        scale: None,
    };
    let report = match bench(&args.workload, params, args.seconds, args.trace) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.spans {
        if let Err(e) = spans::write_jsonl(path, &report.spans) {
            eprintln!("e2ebench: writing spans to {}: {e}", path.display());
            std::process::exit(1);
        }
        eprintln!(
            "[e2ebench] {} spans written to {}",
            report.spans.len(),
            path.display()
        );
    }
    eprintln!(
        "[e2ebench] {} nproc={nproc} seed={} attempted={} failed={}",
        args.workload, args.seed, report.attempted, report.failed
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}
