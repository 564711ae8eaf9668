//! Pins Q5's corrective decisions: the monitor's journal and the runtime
//! statistics it acted on. Q5 is the one workload query with a residual
//! join predicate (its cyclic `c_nationkey = s_nationkey` edge), so this
//! is where a change to how joins check residuals or count their output
//! would show: the multiplicative flags read the equi-join match count,
//! the per-signature observations read the emitted count.
//!
//! The pinned journal lives in `q5_decisions.txt` next to this file: one
//! line per `corrective_decision` (timeline µs, then the event), then the
//! catalog's per-signature observations, the multiplicative flags, the
//! phase plans and the canonical answer.

use std::sync::Arc;

use tukwila_bench::setup::{local_sources, WorkloadQuery};
use tukwila_core::{CorrectiveConfig, CorrectiveExec};
use tukwila_datagen::{Dataset, DatasetConfig};
use tukwila_exec::reference::canonicalize_approx;
use tukwila_exec::CpuCostModel;
use tukwila_stats::{TraceEvent, TraceSink, VirtualClock};
use tukwila_storage::ExprSig;

/// Every non-empty subset of `rels`, as signatures.
fn all_sigs(rels: &[u32]) -> Vec<ExprSig> {
    (1u32..(1 << rels.len()))
        .map(|mask| {
            ExprSig::new(
                (0..rels.len())
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| rels[i])
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn q5_corrective_decisions_are_pinned() {
    let d = Dataset::generate(DatasetConfig::uniform(0.01));
    let w = WorkloadQuery::Q5;
    let q = w.query();
    let trace = TraceSink::unbounded(Arc::new(VirtualClock::new()));
    let exec = CorrectiveExec::new(
        q.clone(),
        CorrectiveConfig {
            batch_size: 256,
            cpu: CpuCostModel::PerTupleNs(200),
            poll_every_batches: 4,
            switch_threshold: 0.8,
            warmup_batches: 2,
            min_remaining_fraction: 0.15,
            initial_order: w.paper_nostats_order(),
            trace: trace.clone(),
            ..Default::default()
        },
    );
    let report = exec.run(&mut local_sources(&d, &q)).unwrap();

    let decisions: Vec<String> = trace
        .snapshot()
        .iter()
        .filter_map(|r| match &r.event {
            e @ TraceEvent::CorrectiveDecision { .. } => Some(format!("{} {e:?}", r.at_us)),
            _ => None,
        })
        .collect();
    let rels: Vec<u32> = q.rels.iter().map(|r| r.rel_id).collect();
    let observations: Vec<String> = all_sigs(&rels)
        .into_iter()
        .filter_map(|sig| {
            let o = report.catalog.subexpr(&sig)?;
            Some(format!("{sig} out={} in={:?}", o.out_card, o.in_product))
        })
        .collect();
    let flags: Vec<String> = q
        .preds
        .iter()
        .filter_map(|p| {
            let f = report.catalog.multiplicative_factor(p.id)?;
            Some(format!("{} x{f:?}", p.id))
        })
        .collect();
    let phases: Vec<&str> = report.phases.iter().map(|p| p.plan.as_str()).collect();
    let answer = canonicalize_approx(&report.rows);

    let mut got = String::new();
    for line in decisions.iter().chain(&observations).chain(&flags) {
        got.push_str(line);
        got.push('\n');
    }
    got.push_str(&format!("phases {phases:?}\n"));
    got.push_str(&format!("answer {answer:?}\n"));
    let want = include_str!("q5_decisions.txt");
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "Q5 corrective run drifted from tests/q5_decisions.txt at line {}:\n\
             got:  {:?}\nwant: {:?}\n--- full output ---\n{got}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first),
        );
    }
}
