//! Self-test of the benchmark at tiny scale.

use std::collections::HashMap;

use crate::metrics::{self, END_TO_END, PER_LAYER};
use crate::spans::{self_times_ns, Span};
use crate::workloads::{self, check_golden, Params, NAMES};
use crate::{bench, run_loop};

const TINY: Params = Params {
    seed: 11,
    nproc: 2,
    scale: Some(0.002),
};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let body = &text[text
        .find(&format!("\"{section}\""))
        .expect("section present")..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |line: &str, key: &str| {
        let rest = &line[line.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5..];
        rest[..rest.find('"').expect("quoted")].to_string()
    };
    body.lines()
        .filter(|l| l.contains("\"unit\""))
        .map(|l| (field(l, "name"), field(l, "unit")))
        .collect()
}

fn as_pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_the_emitted_lists() {
    assert_eq!(declared("end_to_end"), as_pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), as_pairs(&PER_LAYER));
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for name in NAMES {
        for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let r = bench(name, TINY, 0.05, trace).expect("set-up");
            assert!(
                r.correct,
                "{name} trace={trace}: an answer failed its check"
            );
            assert!(r.attempted >= 1 && r.failed == 0);
            let emitted: Vec<(&str, &str)> = r.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(emitted, list, "{name} trace={trace}");
            for (metric, value, _) in &r.metrics {
                assert!(value.is_finite(), "{name}: {metric} = {value}");
            }
            if !trace {
                for (metric, value, _) in &r.metrics {
                    assert!(*value > 0.0, "{name}: end-to-end {metric} reads 0");
                }
            }
        }
    }
}

#[test]
fn a_corrupted_answer_shows_in_failed_frac() {
    for name in NAMES {
        let (mut w, setup) = workloads::setup(name, TINY).expect("set-up");
        w.expected_mut()[0].push("not a row of the answer".into());
        let mut qid = 0;
        let run = run_loop(w.as_mut(), 0.0, None, &mut qid);
        assert!(run.failed() >= 1, "{name}: corrupted answer accepted");
        let layer = metrics::per_layer(&run, &run, &[], &HashMap::new(), &[setup]);
        let failed_frac = layer
            .iter()
            .find(|m| m.0 == "failed_frac")
            .expect("emitted")
            .1;
        assert!(failed_frac > 0.0, "{name}: failed_frac {failed_frac}");
        let p90 = metrics::quantile(
            &run.outcomes
                .iter()
                .map(|o| {
                    if o.error.is_some() {
                        f64::INFINITY
                    } else {
                        o.latency_s
                    }
                })
                .collect::<Vec<_>>(),
            1.0,
        );
        assert!(
            p90.is_infinite(),
            "a failed query misses every latency limit"
        );
    }
}

fn traced_spans(name: &str) -> Vec<Span> {
    let r = bench(name, TINY, 0.05, true).expect("set-up");
    assert!(r.correct);
    assert!(!r.spans.is_empty(), "{name}: no spans");
    r.spans
}

#[test]
fn self_times_are_never_negative() {
    for name in NAMES {
        let spans = traced_spans(name);
        let index: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        // Same-thread children (kept or folded) must fit inside the
        // parent, so subtracting them never saturates at zero.
        let mut children_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if let Some(p) = index.get(&s.parent) {
                if p.thread == s.thread {
                    *children_ns.entry(p.id).or_default() += s.dur_ns();
                }
            }
        }
        for (s, self_ns) in spans.iter().zip(self_times_ns(&spans)) {
            let covered = children_ns.get(&s.id).copied().unwrap_or(0) + s.folded_ns;
            assert!(
                covered <= s.dur_ns(),
                "{name}: children of {} cover {covered} ns of its {} ns",
                s.name,
                s.dur_ns()
            );
            assert_eq!(self_ns, s.dur_ns() - covered);
        }
    }
}

#[test]
fn spans_of_a_query_nest_inside_its_run_span() {
    for name in NAMES {
        let spans = traced_spans(name);
        let runs: HashMap<u64, &Span> = spans
            .iter()
            .filter(|s| {
                matches!(
                    s.name,
                    "core.static_run" | "core.corrective_run" | "serve.call"
                )
            })
            .map(|s| (s.query, s))
            .collect();
        assert!(!runs.is_empty(), "{name}: no run spans");
        let index: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        for s in &spans {
            if let Some(p) = index.get(&s.parent) {
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{name}: {} escapes its parent {}",
                    s.name,
                    p.name
                );
            }
            if s.name.ends_with(".poll") {
                let run = runs[&s.query];
                assert!(
                    run.start_ns <= s.start_ns && s.end_ns <= run.end_ns,
                    "{name}: a {} of query {} escapes its run span",
                    s.name,
                    s.query
                );
            }
        }
    }
}

#[test]
fn expected_answers_match_the_committed_goldens() {
    let at = |scale| Params {
        seed: workloads::GOLDEN_SEED,
        nproc: 2,
        scale: Some(scale),
    };
    for (name, scale, file) in [
        ("mirror-fleet", 0.01, "answers-mirrors.txt"),
        ("threaded-corrective", 0.04, "answers-corrective.txt"),
    ] {
        let p = at(scale);
        let (mut w, _) = workloads::setup(name, p).expect("set-up checks the golden");
        // Q3A is the first shape of both workloads.
        let q3a = w.expected_mut().swap_remove(0).clone();
        assert_eq!(
            check_golden(&p, scale, scale, file, &q3a),
            Ok(true),
            "{name}"
        );
    }
}
