//! Baseline strategies for the paper's comparisons (Figures 2 and 3).
//!
//! * **Static optimization**: optimize once, execute to completion.
//! * **Plan partitioning** (Kabra–DeWitt-style, as configured in §4.4):
//!   with no statistics there is no good metric for placing the
//!   materialization point, so "Tukwila inserts one after 3 joins have been
//!   performed"; the remainder of the query is re-optimized with the
//!   materialized result's now-known cardinality.

use tukwila_exec::{CpuCostModel, ExecReport, SimDriver};
use tukwila_optimizer::{
    AggRef, JoinPred, LogicalQuery, Optimizer, OptimizerContext, PhysKind, PhysNode, QueryRel,
};
use tukwila_relation::{Error, Result, Tuple};
use tukwila_source::{MemSource, Source};

use crate::lowering::lower_plan;
use crate::pushdown::request_projections;

/// Result of a baseline execution.
pub struct StaticRun {
    pub rows: Vec<Tuple>,
    pub exec: ExecReport,
    pub plan: String,
}

/// Optimize once and run to completion.
pub fn run_static(
    q: &LogicalQuery,
    sources: &mut [Box<dyn Source>],
    ctx: OptimizerContext,
    batch_size: usize,
    cpu: CpuCostModel,
) -> Result<StaticRun> {
    run_static_from(q, sources, ctx, batch_size, cpu, None)
}

/// [`run_static`] with the plan pinned to a left-deep relation order.
pub fn run_static_from(
    q: &LogicalQuery,
    sources: &mut [Box<dyn Source>],
    ctx: OptimizerContext,
    batch_size: usize,
    cpu: CpuCostModel,
    order: Option<&[u32]>,
) -> Result<StaticRun> {
    run_static_with_driver(q, sources, ctx, SimDriver::new(batch_size, cpu), order)
}

/// [`run_static_from`] with a caller-built driver — the hook for
/// wall-clock runs (`SimDriver::with_clock`), where the driver must share
/// its clock with the sources racing against it. Asks the sources for
/// only the columns `q` reads first ([`request_projections`]).
pub fn run_static_with_driver(
    q: &LogicalQuery,
    sources: &mut [Box<dyn Source>],
    ctx: OptimizerContext,
    driver: SimDriver,
    order: Option<&[u32]>,
) -> Result<StaticRun> {
    let opt = Optimizer::new(ctx);
    let plan = match order {
        Some(o) => opt.plan_with_order(q, o)?,
        None => opt.optimize(q)?,
    };
    let desc = plan.describe();
    let lowered = lower_plan(&plan, None, true)?;
    let mut pipeline = lowered.pipeline;
    request_projections(q, sources);
    let (rows, exec) = driver.run(&mut pipeline, sources)?;
    Ok(StaticRun {
        rows,
        exec,
        plan: desc,
    })
}

/// Pseudo-relation id used for materialized intermediate results.
pub const MATERIALIZED_REL: u32 = 990;

/// Plan partitioning: execute a 3-join prefix of the static plan,
/// materialize, re-optimize the remainder with the materialized cardinality
/// known, and run it.
pub fn run_plan_partitioning(
    q: &LogicalQuery,
    sources: Vec<Box<dyn Source>>,
    ctx: OptimizerContext,
    batch_size: usize,
    cpu: CpuCostModel,
) -> Result<StaticRun> {
    run_plan_partitioning_from(q, sources, ctx, batch_size, cpu, None)
}

/// [`run_plan_partitioning`] with the initial plan pinned to a left-deep
/// order (experiments that study a specific starting plan).
pub fn run_plan_partitioning_from(
    q: &LogicalQuery,
    mut sources: Vec<Box<dyn Source>>,
    ctx: OptimizerContext,
    batch_size: usize,
    cpu: CpuCostModel,
    initial_order: Option<&[u32]>,
) -> Result<StaticRun> {
    // The cut's own query does not aggregate, so ask with the whole
    // query's reads before the sources split up.
    request_projections(q, &mut sources);
    let opt = Optimizer::new(ctx.clone());
    let full_plan = match initial_order {
        Some(order) => opt.plan_with_order(q, order)?,
        None => opt.optimize(q)?,
    };
    let total_joins = full_plan.root.join_count();
    let cut_target = total_joins.min(3);

    // Find the cut node: a subtree with exactly `cut_target` joins.
    let cut = find_with_join_count(&full_plan.root, cut_target);
    let cut = match cut {
        // Whole plan (or no suitable subtree): plan partitioning degenerates
        // to static execution, as in the paper's Q10/Q10A observation.
        Some(node) if node.join_count() < total_joins => node.clone(),
        _ => return run_static(q, &mut sources, ctx, batch_size, cpu),
    };

    // Phase A: execute the cut subtree as its own (non-aggregating) query.
    let cut_rels: Vec<u32> = cut.rels();
    let sub_q = subtree_query(q, &cut_rels)?;
    let (mut cut_sources, mut rest_sources): (Vec<_>, Vec<_>) = sources
        .into_iter()
        .partition(|s| cut_rels.contains(&s.rel_id()));
    let opt_a = Optimizer::new(ctx.clone());
    let plan_a = opt_a.optimize(&sub_q)?;
    let lowered_a = lower_plan(&plan_a, None, true)?;
    let mut pipe_a = lowered_a.pipeline;
    let driver = SimDriver::new(batch_size, cpu);
    let (materialized, exec_a) = driver.run(&mut pipe_a, &mut cut_sources)?;
    let mat_schema = pipe_a.root_schema().clone();

    // Phase B: re-optimize the remainder with the materialized cardinality
    // known, the whole point of mid-query re-optimization.
    let root_a = &plan_a.root;
    let remainder = remainder_query(q, &cut_rels, root_a, mat_schema.clone())?;
    let mut ctx_b = ctx.clone();
    ctx_b
        .given_cards
        .insert(MATERIALIZED_REL, materialized.len() as u64);
    rest_sources.push(Box::new(MemSource::new(
        MATERIALIZED_REL,
        "materialized",
        mat_schema,
        materialized,
    )));
    let run_b = run_static(&remainder, &mut rest_sources, ctx_b, batch_size, cpu)?;

    Ok(StaticRun {
        rows: run_b.rows,
        exec: ExecReport {
            virtual_us: exec_a.virtual_us + run_b.exec.virtual_us,
            cpu_us: exec_a.cpu_us + run_b.exec.cpu_us,
            idle_us: exec_a.idle_us + run_b.exec.idle_us,
            tuples_out: run_b.exec.tuples_out,
            batches: exec_a.batches + run_b.exec.batches,
            polls: exec_a.polls + run_b.exec.polls,
            wakes: exec_a.wakes + run_b.exec.wakes,
            max_queue_depth: exec_a.max_queue_depth.max(run_b.exec.max_queue_depth),
            blocked_by_exchange: merge_blocked(
                &exec_a.blocked_by_exchange,
                &run_b.exec.blocked_by_exchange,
            ),
        },
        plan: format!("mat[{}]; {}", plan_a.describe(), run_b.plan),
    })
}

/// Sum per-exchange blocked-send counts from two phases (ids ascending).
fn merge_blocked(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    let mut merged: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
    for &(id, n) in a.iter().chain(b.iter()) {
        *merged.entry(id).or_default() += n;
    }
    merged.into_iter().collect()
}

fn find_with_join_count(node: &PhysNode, target: usize) -> Option<&PhysNode> {
    if node.join_count() == target {
        return Some(node);
    }
    match &node.kind {
        PhysKind::Join { left, right, .. } => {
            find_with_join_count(left, target).or_else(|| find_with_join_count(right, target))
        }
        PhysKind::PreAgg { child, .. } => find_with_join_count(child, target),
        PhysKind::Scan { .. } => None,
    }
}

/// The cut subtree as a standalone query (no aggregation; filters kept).
fn subtree_query(q: &LogicalQuery, rels: &[u32]) -> Result<LogicalQuery> {
    let sub_rels: Vec<QueryRel> = q
        .rels
        .iter()
        .filter(|r| rels.contains(&r.rel_id))
        .cloned()
        .collect();
    let sub_preds: Vec<JoinPred> = q
        .preds
        .iter()
        .filter(|p| rels.contains(&p.left_rel) && rels.contains(&p.right_rel))
        .copied()
        .collect();
    let sub = LogicalQuery::new(sub_rels, sub_preds);
    sub.validate()?;
    Ok(sub)
}

/// The remainder query: the cut subtree replaced by a pseudo-relation whose
/// schema is the materialized output.
fn remainder_query(
    q: &LogicalQuery,
    cut_rels: &[u32],
    cut_root: &PhysNode,
    mat_schema: tukwila_relation::Schema,
) -> Result<LogicalQuery> {
    let remap = |rel: u32, col: usize| -> Result<(u32, usize)> {
        if cut_rels.contains(&rel) {
            let pos = cut_root.col_of(rel, col).ok_or_else(|| {
                Error::Plan(format!(
                    "column ({rel},{col}) not present in materialized result"
                ))
            })?;
            Ok((MATERIALIZED_REL, pos))
        } else {
            Ok((rel, col))
        }
    };

    let mut rels: Vec<QueryRel> = q
        .rels
        .iter()
        .filter(|r| !cut_rels.contains(&r.rel_id))
        .cloned()
        .collect();
    rels.push(QueryRel::new(MATERIALIZED_REL, "materialized", mat_schema));

    let mut preds = Vec::new();
    for p in &q.preds {
        let l_in = cut_rels.contains(&p.left_rel);
        let r_in = cut_rels.contains(&p.right_rel);
        if l_in && r_in {
            continue; // already applied inside the cut
        }
        let (lr, lc) = remap(p.left_rel, p.left_col)?;
        let (rr, rc) = remap(p.right_rel, p.right_col)?;
        preds.push(JoinPred {
            id: p.id,
            left_rel: lr,
            left_col: lc,
            right_rel: rr,
            right_col: rc,
        });
    }

    let mut out = LogicalQuery::new(rels, preds);
    if let Some(agg) = &q.agg {
        let mut group = Vec::new();
        for g in &agg.group {
            let (rel, col) = remap(g.rel, g.col)?;
            group.push(AggRef { rel, col });
        }
        let mut aggs = Vec::new();
        for (f, r) in &agg.aggs {
            let (rel, col) = remap(r.rel, r.col)?;
            aggs.push((*f, AggRef { rel, col }));
        }
        out = out.with_agg(tukwila_optimizer::QueryAgg { group, aggs });
    }
    out.validate()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_datagen::queries;
    use tukwila_datagen::{Dataset, DatasetConfig};
    use tukwila_exec::reference::canonicalize;

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

    #[test]
    fn plan_partitioning_matches_static_results_on_q5() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q5();
        let mut s1 = sources_for(&d, &q);
        let static_run = run_static(
            &q,
            &mut s1,
            OptimizerContext::no_statistics(),
            512,
            CpuCostModel::Zero,
        )
        .unwrap();
        let pp_run = run_plan_partitioning(
            &q,
            sources_for(&d, &q),
            OptimizerContext::no_statistics(),
            512,
            CpuCostModel::Zero,
        )
        .unwrap();
        assert_eq!(canonicalize(&static_run.rows), canonicalize(&pp_run.rows));
        assert!(pp_run.plan.contains("mat["), "{}", pp_run.plan);
    }

    #[test]
    fn plan_partitioning_degenerates_to_static_on_small_queries() {
        let d = Dataset::generate(DatasetConfig::uniform(0.001));
        let q = queries::q3a();
        let pp = run_plan_partitioning(
            &q,
            sources_for(&d, &q),
            OptimizerContext::no_statistics(),
            512,
            CpuCostModel::Zero,
        )
        .unwrap();
        // 2 joins total: cut after min(3, 2) = whole plan -> static.
        assert!(!pp.plan.contains("mat["), "{}", pp.plan);
        assert!(!pp.rows.is_empty());
    }
}
