//! Narrow rows: each join materializes only the columns the rest of the
//! query reads. Two properties make that safe across adaptive plans:
//!
//! * the kept columns of a subexpression depend only on its signature, so
//!   every plan's node for a signature holds the same field-name set —
//!   stitch-up and registry reuse adapt one plan's state to another's
//!   layout by name;
//! * answers equal the reference oracle's for every valid join order of
//!   the paper's queries, and on every execution path for a random sample
//!   of those orders.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use proptest::prelude::*;

use tukwila::core::{lower_fragmented, lower_plan, CorrectiveConfig, CorrectiveExec};
use tukwila::datagen::{queries, Dataset, DatasetConfig};
use tukwila::exec::reference::{canonicalize_approx, RefCol, RefJoin, RefQuery, RefRelation};
use tukwila::exec::{CpuCostModel, FragmentOptions, SimDriver};
use tukwila::optimizer::{
    choose_cuts, FragmentationConfig, LogicalQuery, Optimizer, OptimizerContext, PhysKind,
    PhysNode, PhysPlan, PreAggConfig, PreAggMode,
};
use tukwila::source::{MemSource, Source};
use tukwila::stats::WallClock;
use tukwila::storage::ExprSig;

fn workload() -> Vec<(&'static str, LogicalQuery)> {
    vec![
        ("q3a", queries::q3a()),
        ("q10a", queries::q10a()),
        ("q5", queries::q5()),
    ]
}

fn sources_for(d: &Dataset, q: &LogicalQuery) -> Vec<Box<dyn Source>> {
    queries::tables_of(q)
        .into_iter()
        .map(|t| {
            Box::new(MemSource::new(
                t.rel_id(),
                t.name(),
                Dataset::schema(t),
                d.table(t).to_vec(),
            )) as Box<dyn Source>
        })
        .collect()
}

/// The oracle's answer: full-width left-deep joins in declaration order,
/// then grouping.
fn reference(d: &Dataset, q: &LogicalQuery) -> Vec<String> {
    let idx = |rel: u32| q.rel_index(rel).unwrap();
    let mut r = RefQuery::new(
        queries::tables_of(q)
            .into_iter()
            .map(|t| RefRelation {
                schema: Dataset::schema(t),
                tuples: d.table(t).to_vec(),
            })
            .collect(),
    );
    for (i, rel) in q.rels.iter().enumerate() {
        if let Some(f) = &rel.filter {
            r.filters.push((i, f.clone()));
        }
    }
    for p in &q.preds {
        r.joins.push(RefJoin {
            left_rel: idx(p.left_rel),
            left_col: p.left_col,
            right_rel: idx(p.right_rel),
            right_col: p.right_col,
        });
    }
    let agg = q.agg.as_ref().expect("workload queries aggregate");
    r.group_cols = agg
        .group
        .iter()
        .map(|g| RefCol {
            rel: idx(g.rel),
            col: g.col,
        })
        .collect();
    r.aggs = agg
        .aggs
        .iter()
        .map(|(f, a)| {
            (
                *f,
                RefCol {
                    rel: idx(a.rel),
                    col: a.col,
                },
            )
        })
        .collect();
    canonicalize_approx(&r.run().unwrap())
}

/// Every left-deep order the planner accepts (each prefix connected).
fn valid_orders(q: &LogicalQuery) -> Vec<Vec<u32>> {
    fn extend(q: &LogicalQuery, prefix: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if prefix.len() == q.rels.len() {
            out.push(prefix.clone());
            return;
        }
        for r in &q.rels {
            let rel = r.rel_id;
            let joins_prefix = prefix.is_empty()
                || q.preds.iter().any(|p| {
                    (p.left_rel == rel && prefix.contains(&p.right_rel))
                        || (p.right_rel == rel && prefix.contains(&p.left_rel))
                });
            if !prefix.contains(&rel) && joins_prefix {
                prefix.push(rel);
                extend(q, prefix, out);
                prefix.pop();
            }
        }
    }
    let mut out = Vec::new();
    extend(q, &mut Vec::new(), &mut out);
    out
}

/// Field-name set of the outermost node of each signature.
fn layouts(node: &PhysNode, out: &mut BTreeMap<ExprSig, BTreeSet<String>>) {
    out.entry(node.sig.clone()).or_insert_with(|| {
        node.schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect()
    });
    match &node.kind {
        PhysKind::Scan { .. } => {}
        PhysKind::Join { left, right, .. } => {
            layouts(left, out);
            layouts(right, out);
        }
        PhysKind::PreAgg { child, .. } => layouts(child, out),
    }
}

fn ctx(preagg: PreAggConfig) -> OptimizerContext {
    let mut ctx = OptimizerContext::no_statistics();
    ctx.preagg = preagg;
    ctx
}

#[test]
fn every_plan_keeps_one_column_set_per_signature() {
    for (name, q) in workload() {
        let width: usize = q.rels.iter().map(|r| r.schema.arity()).sum();
        for preagg in [
            PreAggConfig::Off,
            PreAggConfig::Insert(PreAggMode::AdaptiveWindow),
        ] {
            let opt = Optimizer::new(ctx(preagg));
            let mut plans: Vec<PhysPlan> = valid_orders(&q)
                .iter()
                .map(|o| opt.plan_with_order(&q, o).unwrap())
                .collect();
            plans.push(opt.optimize(&q).unwrap());
            let mut seen: BTreeMap<ExprSig, (BTreeSet<String>, String)> = BTreeMap::new();
            for plan in &plans {
                assert!(
                    plan.root.schema.arity() < width,
                    "{name}: root of {} is not narrowed",
                    plan.describe()
                );
                let mut mine = BTreeMap::new();
                layouts(&plan.root, &mut mine);
                for (sig, fields) in mine {
                    let (first, by) = seen
                        .entry(sig.clone())
                        .or_insert_with(|| (fields.clone(), plan.describe()));
                    assert_eq!(
                        *first,
                        fields,
                        "{name} {preagg:?}: {sig} differs between {by} and {}",
                        plan.describe()
                    );
                }
            }
        }
    }
}

/// Run `plan` to completion on one driver, without fragments.
fn run_static(d: &Dataset, q: &LogicalQuery, plan: &PhysPlan) -> Vec<String> {
    let lowered = lower_plan(plan, None, true).unwrap();
    let mut pipeline = lowered.pipeline;
    let (rows, _) = SimDriver::new(64, CpuCostModel::Zero)
        .run(&mut pipeline, &mut sources_for(d, q))
        .unwrap();
    canonicalize_approx(&rows)
}

#[test]
fn every_valid_order_answers_like_the_reference() {
    let d = Dataset::generate(DatasetConfig::uniform(0.001));
    for (name, q) in workload() {
        let want = reference(&d, &q);
        assert!(!want.is_empty(), "{name} answers nothing at this scale");
        let opt = Optimizer::new(ctx(PreAggConfig::Off));
        for order in valid_orders(&q) {
            let plan = opt.plan_with_order(&q, &order).unwrap();
            assert_eq!(run_static(&d, &q, &plan), want, "{name} {order:?}");
        }
    }
}

/// Run `plan` (optimized under `ctx`) statically, fragmented inline and
/// fragmented on threads; every answer must equal `want`.
fn check_plan_paths(
    d: &Dataset,
    q: &LogicalQuery,
    ctx: &OptimizerContext,
    plan: &PhysPlan,
    want: &[String],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(run_static(d, q, plan), want, "{} static", label);

    let cuts = choose_cuts(plan, ctx, &FragmentationConfig::aggressive());
    let frag = lower_fragmented(plan, &cuts, None, true).unwrap();
    let (rows, _) = SimDriver::new(64, CpuCostModel::Zero)
        .run_fragments_sequential(frag.plan, sources_for(d, q))
        .unwrap();
    prop_assert_eq!(canonicalize_approx(&rows), want, "{} fragmented", label);

    let frag = lower_fragmented(plan, &cuts, None, true).unwrap();
    let (rows, _) = SimDriver::new(64, CpuCostModel::Measured)
        .with_clock(Arc::new(WallClock::accelerated(100.0)))
        .run_fragments(frag.plan, sources_for(d, q), &FragmentOptions::default())
        .unwrap();
    prop_assert_eq!(canonicalize_approx(&rows), want, "{} threaded", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A random valid join order of a random workload query answers like
    /// the reference under the static, fragmented (inline and threaded),
    /// pre-aggregation (all three modes) and corrective forced-switch
    /// paths.
    #[test]
    fn narrowed_plans_answer_like_the_reference(
        pick in 0usize..3,
        order_pick in 0usize..1000,
    ) {
        let d = Dataset::generate(DatasetConfig::uniform(0.001));
        let (name, q) = workload().swap_remove(pick);
        let want = reference(&d, &q);
        let orders = valid_orders(&q);
        let order = &orders[order_pick % orders.len()];
        let label = format!("{name} {order:?}");

        let plain = ctx(PreAggConfig::Off);
        let plan = Optimizer::new(plain.clone()).plan_with_order(&q, order).unwrap();
        check_plan_paths(&d, &q, &plain, &plan, &want, &label)?;

        for mode in [PreAggMode::AdaptiveWindow, PreAggMode::Traditional, PreAggMode::Pseudogroup] {
            let c = ctx(PreAggConfig::Insert(mode));
            let plan = Optimizer::new(c).plan_with_order(&q, order).unwrap();
            prop_assert_eq!(run_static(&d, &q, &plan), want.clone(), "{} {:?}", label, mode);
        }

        let exec = CorrectiveExec::new(
            q.clone(),
            CorrectiveConfig {
                batch_size: 64,
                cpu: CpuCostModel::Zero,
                poll_every_batches: 2,
                switch_threshold: 100.0,
                max_phases: 3,
                warmup_batches: 1,
                min_remaining_fraction: 0.0,
                initial_order: Some(order.clone()),
                ..Default::default()
            },
        );
        let report = exec.run(&mut sources_for(&d, &q)).unwrap();
        prop_assert_eq!(canonicalize_approx(&report.rows), want, "{} corrective", label);
    }
}
