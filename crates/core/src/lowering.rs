//! Lowers optimizer output ([`PhysPlan`]) onto the pipelined execution
//! engine, wiring in the cross-phase machinery: every phase plan ends with
//! a *canonical answer projection* (fixed column order derived from the
//! query, not the plan shape — the §3.2 schema-compatibility discipline)
//! feeding the shared group-by table of Figure 1.
//!
//! Each join operator gets its plan node's residual equalities and emit
//! list as one [`RowBuilder`]: it checks the residual on each matched
//! pair and builds only the columns the plan keeps. No filter operator
//! follows a join; scan predicates remain [`FilterOp`]s.

use std::sync::Arc;

use tukwila_exec::agg::{
    AggSpec, GroupSpec, PreAggOp, SharedGroupOp, SharedGroupTable, WindowPolicy,
};
use tukwila_exec::filter::FilterOp;
use tukwila_exec::join::{PipelinedHashJoin, RowBuilder};
use tukwila_exec::project::ProjectOp;
use tukwila_exec::{IncOp, PipelinePlan, PlanBuilder};
use tukwila_optimizer::{PhysAgg, PhysKind, PhysNode, PhysPlan, PreAggMode};
use tukwila_relation::{Error, Expr, Result, Schema};

/// A lowered, executable plan plus the metadata the corrective executor
/// needs.
pub struct LoweredPlan {
    pub pipeline: PipelinePlan,
    /// `(pipeline node index, join predicate id)` for multiplicative-flag
    /// detection.
    pub join_nodes: Vec<(usize, u64)>,
    /// The shared group table (when the query aggregates).
    pub table: Option<Arc<SharedGroupTable>>,
    /// Post-aggregation projection (`avg` reassembly), applied by whoever
    /// finalizes the table.
    pub post_project: Option<(Vec<Expr>, Schema)>,
}

/// The canonical answer projection and group spec for a plan: answer
/// tuples are `[group columns in query order, then aggregate inputs in
/// query order]`, regardless of the plan's join order. Every phase of a
/// corrective execution must produce this same layout.
pub fn canonical_agg(plan: &PhysPlan) -> Option<(Vec<Expr>, Schema, GroupSpec)> {
    let agg: &PhysAgg = plan.agg.as_ref()?;
    let root = &plan.root;
    let mut exprs = Vec::new();
    let mut fields = Vec::new();
    for &c in &agg.group_cols {
        exprs.push(Expr::Col(c));
        fields.push(root.schema.field(c).clone());
    }
    let g = agg.group_cols.len();
    let mut specs = Vec::new();
    for (i, (func, col)) in agg.aggs.iter().enumerate() {
        exprs.push(Expr::Col(*col));
        fields.push(root.schema.field(*col).clone());
        specs.push(AggSpec {
            func: *func,
            col: g + i,
        });
    }
    let schema = Schema::new(fields);
    let spec = GroupSpec::new((0..g).collect(), specs);
    Some((exprs, schema, spec))
}

enum Lowered {
    /// A node in the builder.
    Node(usize),
    /// A bare unfiltered scan: the source binds directly to the consumer,
    /// carrying the scan node's logical signature (a single relation for
    /// real scans; the producer subtree's signature for exchange leaves
    /// of a fragmented plan).
    Source(u32, tukwila_storage::ExprSig),
}

struct LowerCtx<'a> {
    b: &'a mut PlanBuilder,
    join_nodes: Vec<(usize, u64)>,
}

impl<'a> LowerCtx<'a> {
    fn attach(
        &mut self,
        op: Box<dyn IncOp>,
        children: &[Lowered],
        sig: &PhysNode,
    ) -> Result<usize> {
        let slots: Vec<Option<usize>> = children
            .iter()
            .map(|c| match c {
                Lowered::Node(n) => Some(*n),
                Lowered::Source(..) => None,
            })
            .collect();
        let id = self.b.add_op(op, &slots, Some(sig.sig.clone()))?;
        for (port, c) in children.iter().enumerate() {
            if let Lowered::Source(rel, leaf_sig) = c {
                self.b
                    .bind_source_with_sig(*rel, id, port, leaf_sig.clone())?;
            }
        }
        Ok(id)
    }

    fn lower_node(&mut self, node: &PhysNode) -> Result<Lowered> {
        match &node.kind {
            PhysKind::Scan { rel, filter, .. } => match filter {
                None => Ok(Lowered::Source(*rel, node.sig.clone())),
                Some(pred) => {
                    let op = Box::new(FilterOp::new(pred.clone(), node.schema.clone()));
                    let slots: Vec<Option<usize>> = vec![None];
                    let id = self.b.add_op(op, &slots, Some(node.sig.clone()))?;
                    self.b.bind_source(*rel, id, 0)?;
                    Ok(Lowered::Node(id))
                }
            },
            PhysKind::Join {
                left,
                right,
                left_col,
                right_col,
                pred_id,
                residual,
                emit,
            } => {
                let l = self.lower_node(left)?;
                let r = self.lower_node(right)?;
                let (ls, rs) = (left.schema.clone(), right.schema.clone());
                let rows = RowBuilder::new(&ls, &rs, residual.clone(), emit.clone())?;
                let op =
                    Box::new(PipelinedHashJoin::new(ls, rs, *left_col, *right_col).with_rows(rows));
                let id = self.attach(op, &[l, r], node)?;
                self.join_nodes.push((id, *pred_id));
                Ok(Lowered::Node(id))
            }
            PhysKind::PreAgg {
                child,
                mode,
                group_cols,
                aggs,
            } => {
                let c = self.lower_node(child)?;
                let spec = GroupSpec::new(
                    group_cols.clone(),
                    aggs.iter()
                        .map(|&(func, col)| AggSpec { func, col })
                        .collect(),
                );
                let policy = match mode {
                    PreAggMode::AdaptiveWindow => WindowPolicy::default_adaptive(),
                    // Traditional pre-aggregation groups its entire input
                    // before emitting: a window that never fills.
                    PreAggMode::Traditional => WindowPolicy::Fixed(usize::MAX),
                    PreAggMode::Pseudogroup => WindowPolicy::Fixed(1),
                };
                let op = Box::new(PreAggOp::new(spec, &child.schema, policy));
                // Field names differ by convention (the planner prefixes
                // partials); arity must agree.
                if op.schema().arity() != node.schema.arity() {
                    return Err(Error::Plan(format!(
                        "pre-agg schema mismatch: op {} vs plan {}",
                        op.schema(),
                        node.schema
                    )));
                }
                let id = self.attach(op, &[c], node)?;
                Ok(Lowered::Node(id))
            }
        }
    }
}

/// Lower a physical plan to an executable pipeline.
///
/// When the plan aggregates, the pipeline ends with the canonical
/// projection feeding a [`SharedGroupTable`]: pass `shared` to reuse a
/// table across phases (corrective execution), or `None` to create a fresh
/// one. With `emit_on_finish`, the table finalizes (and post-projects) into
/// the root output when the last source closes — single-plan use.
pub fn lower_plan(
    plan: &PhysPlan,
    shared: Option<Arc<SharedGroupTable>>,
    emit_on_finish: bool,
) -> Result<LoweredPlan> {
    let mut b = PipelinePlan::builder();
    let mut ctx = LowerCtx {
        b: &mut b,
        join_nodes: Vec::new(),
    };
    let rooted = ctx.lower_node(&plan.root)?;
    let join_nodes = std::mem::take(&mut ctx.join_nodes);

    let mut table = None;
    let mut post_project = None;
    match canonical_agg(plan) {
        Some((exprs, canon_schema, spec)) => {
            let proj = Box::new(ProjectOp::new(exprs, canon_schema.clone()));
            let proj_slots = match rooted {
                Lowered::Node(n) => vec![Some(n)],
                Lowered::Source(..) => vec![None],
            };
            let proj_id = b.add_op(proj, &proj_slots, Some(plan.root.sig.clone()))?;
            if let Lowered::Source(rel, sig) = rooted {
                b.bind_source_with_sig(rel, proj_id, 0, sig)?;
            }
            let t = match shared {
                Some(t) => {
                    if t.output_schema().arity() != spec.output_schema(&canon_schema).arity() {
                        return Err(Error::Plan(
                            "phase plan is not schema-compatible with the shared group table"
                                .into(),
                        ));
                    }
                    t
                }
                None => SharedGroupTable::new(spec, &canon_schema),
            };
            let group_op = Box::new(SharedGroupOp::new(t.clone(), emit_on_finish));
            let gid = b.add_op(group_op, &[Some(proj_id)], None)?;
            post_project = plan.agg.as_ref().and_then(|a| a.post_project.clone());
            if emit_on_finish {
                if let Some((exprs, schema)) = &post_project {
                    let p = Box::new(ProjectOp::new(exprs.clone(), schema.clone()));
                    b.add_op(p, &[Some(gid)], None)?;
                }
            }
            table = Some(t);
        }
        None => {
            if let Lowered::Source(rel, sig) = rooted {
                // Single unfiltered scan as a whole query: wrap in a
                // pass-through projection so the plan has a root operator.
                let schema = plan.root.schema.clone();
                let cols: Vec<usize> = (0..schema.arity()).collect();
                let p = Box::new(ProjectOp::columns(&cols, &schema));
                let id = b.add_op(p, &[None], Some(plan.root.sig.clone()))?;
                b.bind_source_with_sig(rel, id, 0, sig)?;
            }
        }
    }

    Ok(LoweredPlan {
        pipeline: b.build()?,
        join_nodes,
        table,
        post_project,
    })
}

/// A physical plan lowered into exchange-connected pipeline fragments,
/// plus the metadata the corrective executor needs (the fragmented
/// counterpart of [`LoweredPlan`]).
pub struct FragmentedLower {
    /// The validated fragment plan (producers first, root last). One
    /// fragment when no cuts were requested.
    pub plan: tukwila_exec::FragmentPlan,
    /// `(plan-wide node index, join predicate id)` across every fragment,
    /// matching [`tukwila_exec::FragmentRun::observations`] numbering.
    pub join_nodes: Vec<(usize, u64)>,
    /// The shared group table (when the query aggregates) — lives in the
    /// root fragment.
    pub table: Option<Arc<SharedGroupTable>>,
    /// Post-aggregation projection, applied by whoever finalizes the
    /// table.
    pub post_project: Option<(Vec<Expr>, Schema)>,
}

/// Rewrite the plan tree for fragmentation: each subtree whose signature
/// is in `cuts` (and is not the root or a bare scan) is replaced by a
/// synthetic exchange scan carrying the subtree's schema and signature,
/// and the subtree itself is appended to `producers` (nested cuts first,
/// so producers always precede their consumers).
fn split_at_cuts(
    node: &PhysNode,
    is_root: bool,
    cuts: &[tukwila_storage::ExprSig],
    next_exchange: &mut u32,
    producers: &mut Vec<(u32, PhysNode)>,
) -> PhysNode {
    // The *outermost* node bearing a cut signature wins: a PreAgg shares
    // its child's signature (the pre-aggregation doesn't change which
    // relations are joined), so the same signature must not cut both the
    // PreAgg and the join directly beneath it — one chosen cut yields
    // exactly one producer fragment.
    let cut_here =
        !is_root && !matches!(node.kind, PhysKind::Scan { .. }) && cuts.contains(&node.sig);
    let inner_cuts: Vec<tukwila_storage::ExprSig>;
    let cuts_below: &[tukwila_storage::ExprSig] = if cut_here {
        inner_cuts = cuts.iter().filter(|s| **s != node.sig).cloned().collect();
        &inner_cuts
    } else {
        cuts
    };
    let rewritten_kind = match &node.kind {
        PhysKind::Scan { .. } => node.kind.clone(),
        PhysKind::Join {
            left,
            right,
            left_col,
            right_col,
            pred_id,
            residual,
            emit,
        } => PhysKind::Join {
            left: Box::new(split_at_cuts(
                left,
                false,
                cuts_below,
                next_exchange,
                producers,
            )),
            right: Box::new(split_at_cuts(
                right,
                false,
                cuts_below,
                next_exchange,
                producers,
            )),
            left_col: *left_col,
            right_col: *right_col,
            pred_id: *pred_id,
            residual: residual.clone(),
            emit: emit.clone(),
        },
        PhysKind::PreAgg {
            child,
            mode,
            group_cols,
            aggs,
        } => PhysKind::PreAgg {
            child: Box::new(split_at_cuts(
                child,
                false,
                cuts_below,
                next_exchange,
                producers,
            )),
            mode: *mode,
            group_cols: group_cols.clone(),
            aggs: aggs.clone(),
        },
    };
    let rewritten = PhysNode {
        kind: rewritten_kind,
        schema: node.schema.clone(),
        col_map: node.col_map.clone(),
        partials: node.partials.clone(),
        sig: node.sig.clone(),
        est_card: node.est_card,
        est_cost: node.est_cost,
        est_cpu: node.est_cpu,
        est_wait_us: node.est_wait_us,
    };
    if cut_here {
        let ex = *next_exchange;
        *next_exchange += 1;
        producers.push((ex, rewritten));
        PhysNode {
            kind: PhysKind::Scan {
                rel: ex,
                name: format!("exchange-{}", ex - tukwila_exec::EXCHANGE_REL_BASE),
                filter: None,
            },
            schema: node.schema.clone(),
            col_map: node.col_map.clone(),
            partials: node.partials.clone(),
            sig: node.sig.clone(),
            est_card: node.est_card,
            // The producer fragment does the work; the exchange scan
            // reading it back is free in both cost dimensions.
            est_cost: 0.0,
            est_cpu: 0.0,
            est_wait_us: 0.0,
        }
    } else {
        rewritten
    }
}

/// Lower a physical plan into exchange-connected pipeline fragments.
///
/// `cuts` names the subtrees (by logical signature, as chosen by the
/// optimizer's fragmentation pass) that become producer fragments; an
/// empty list degenerates to one fragment with exactly [`lower_plan`]'s
/// semantics. The root fragment carries the canonical answer projection
/// and the (optionally `shared`) group table, so fragmented phase plans
/// compose with corrective execution unchanged. Exchange leaves are bound
/// with the producer subtree's logical signature, so sealing a fragmented
/// phase registers buffered exchange-side state under the signature
/// stitch-up reuse expects.
pub fn lower_fragmented(
    plan: &PhysPlan,
    cuts: &[tukwila_storage::ExprSig],
    shared: Option<Arc<SharedGroupTable>>,
    emit_on_finish: bool,
) -> Result<FragmentedLower> {
    let mut next_exchange = tukwila_exec::EXCHANGE_REL_BASE;
    let mut producers: Vec<(u32, PhysNode)> = Vec::new();
    let rewritten_root = split_at_cuts(&plan.root, true, cuts, &mut next_exchange, &mut producers);

    let mut fragments = Vec::with_capacity(producers.len() + 1);
    let mut join_nodes: Vec<(usize, u64)> = Vec::new();
    let mut node_offset = 0usize;
    for (ex, subtree) in &producers {
        let mut b = PipelinePlan::builder();
        let mut ctx = LowerCtx {
            b: &mut b,
            join_nodes: Vec::new(),
        };
        let rooted = ctx.lower_node(subtree)?;
        let frag_joins = std::mem::take(&mut ctx.join_nodes);
        if let Lowered::Source(rel, sig) = rooted {
            // A producer fragment that is a bare scan only forwards
            // batches; wrap in a pass-through projection so it still has
            // a root operator (the fragmentation pass avoids these cuts,
            // but hand-built cut lists may not).
            let schema = subtree.schema.clone();
            let cols: Vec<usize> = (0..schema.arity()).collect();
            let p = Box::new(ProjectOp::columns(&cols, &schema));
            let id = b.add_op(p, &[None], Some(subtree.sig.clone()))?;
            b.bind_source_with_sig(rel, id, 0, sig)?;
        }
        let pipeline = b.build()?;
        join_nodes.extend(frag_joins.iter().map(|&(n, p)| (n + node_offset, p)));
        node_offset += pipeline.node_count();
        fragments.push(tukwila_exec::Fragment {
            pipeline,
            output: Some(*ex),
        });
    }

    let root_plan = PhysPlan {
        root: rewritten_root,
        agg: plan.agg.clone(),
        est_cost: plan.est_cost,
    };
    let root_lowered = lower_plan(&root_plan, shared, emit_on_finish)?;
    join_nodes.extend(
        root_lowered
            .join_nodes
            .iter()
            .map(|&(n, p)| (n + node_offset, p)),
    );
    fragments.push(tukwila_exec::Fragment {
        pipeline: root_lowered.pipeline,
        output: None,
    });

    Ok(FragmentedLower {
        plan: tukwila_exec::FragmentPlan::new(fragments)?,
        join_nodes,
        table: root_lowered.table,
        post_project: root_lowered.post_project,
    })
}

/// Apply a post-projection to finalized rows.
pub fn apply_post_project(
    rows: Vec<tukwila_relation::Tuple>,
    post: &Option<(Vec<Expr>, Schema)>,
) -> Result<Vec<tukwila_relation::Tuple>> {
    match post {
        None => Ok(rows),
        Some((exprs, _)) => {
            let mut out = Vec::with_capacity(rows.len());
            for r in rows {
                let mut vals = Vec::with_capacity(exprs.len());
                for e in exprs {
                    vals.push(e.eval(&r)?);
                }
                out.push(tukwila_relation::Tuple::new(vals));
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_datagen::queries;
    use tukwila_datagen::{Dataset, DatasetConfig, TableId};
    use tukwila_exec::{CpuCostModel, SimDriver};
    use tukwila_optimizer::{Optimizer, OptimizerContext, PreAggConfig};
    use tukwila_source::{MemSource, Source};

    fn sources_for(d: &Dataset, q: &tukwila_optimizer::LogicalQuery) -> Vec<Box<dyn Source>> {
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
    fn lowered_q3a_executes_and_aggregates() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.optimize(&q).unwrap();
        let lowered = lower_plan(&plan, None, true).unwrap();
        let mut pipeline = lowered.pipeline;
        let mut sources = sources_for(&d, &q);
        let driver = SimDriver::new(512, CpuCostModel::Zero);
        let (rows, _) = driver.run(&mut pipeline, &mut sources).unwrap();
        assert!(!rows.is_empty());
        // Group key arity: l_orderkey, o_orderdate, o_shippriority + sum.
        assert_eq!(rows[0].arity(), 4);
        assert!(!lowered.join_nodes.is_empty());
    }

    #[test]
    fn preagg_plan_matches_plain_plan_results() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q10a();
        let run = |preagg: PreAggConfig| {
            let mut ctx = OptimizerContext::no_statistics();
            ctx.preagg = preagg;
            let opt = Optimizer::new(ctx);
            let plan = opt.optimize(&q).unwrap();
            let lowered = lower_plan(&plan, None, true).unwrap();
            let mut pipeline = lowered.pipeline;
            let mut sources = sources_for(&d, &q);
            let driver = SimDriver::new(512, CpuCostModel::Zero);
            let (rows, _) = driver.run(&mut pipeline, &mut sources).unwrap();
            tukwila_exec::reference::canonicalize_approx(&rows)
        };
        let plain = run(PreAggConfig::Off);
        let window = run(PreAggConfig::Insert(
            tukwila_optimizer::PreAggMode::AdaptiveWindow,
        ));
        let trad = run(PreAggConfig::Insert(
            tukwila_optimizer::PreAggMode::Traditional,
        ));
        let pseudo = run(PreAggConfig::Insert(
            tukwila_optimizer::PreAggMode::Pseudogroup,
        ));
        assert_eq!(plain, window);
        assert_eq!(plain, trad);
        assert_eq!(plain, pseudo);
        assert!(!plain.is_empty());
    }

    #[test]
    fn fragmented_lowering_matches_single_plan_both_modes() {
        use tukwila_exec::FragmentOptions;
        use tukwila_optimizer::fragment::FragmentationConfig;
        use tukwila_stats::WallClock;

        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let ctx = OptimizerContext::no_statistics();
        let opt = Optimizer::new(ctx.clone());
        let plan = opt
            .plan_with_order(
                &q,
                &[
                    TableId::Orders.rel_id(),
                    TableId::Lineitem.rel_id(),
                    TableId::Customer.rel_id(),
                ],
            )
            .unwrap();

        // Reference: the unfragmented plan.
        let lowered = lower_plan(&plan, None, true).unwrap();
        let mut pipeline = lowered.pipeline;
        let (rows, _) = SimDriver::new(512, CpuCostModel::Zero)
            .run(&mut pipeline, &mut sources_for(&d, &q))
            .unwrap();
        let expected = tukwila_exec::reference::canonicalize_approx(&rows);

        // Fragmented, every eligible subtree cut.
        let cuts = tukwila_optimizer::choose_cuts(&plan, &ctx, &FragmentationConfig::aggressive());
        assert!(!cuts.is_empty(), "aggressive config must cut Q3A");
        let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
        assert!(frag.plan.fragment_count() >= 2, "an exchange must exist");
        assert!(!frag.join_nodes.is_empty());
        let (rows_seq, _) = SimDriver::new(512, CpuCostModel::Zero)
            .run_fragments_sequential(frag.plan, sources_for(&d, &q))
            .unwrap();
        assert_eq!(
            tukwila_exec::reference::canonicalize_approx(&rows_seq),
            expected,
            "sequential fragmented run diverged"
        );

        // Threaded, same cuts.
        let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
        let clock = std::sync::Arc::new(WallClock::accelerated(100.0));
        let (rows_thr, _) = SimDriver::new(512, CpuCostModel::Measured)
            .with_clock(clock)
            .run_fragments(frag.plan, sources_for(&d, &q), &FragmentOptions::default())
            .unwrap();
        assert_eq!(
            tukwila_exec::reference::canonicalize_approx(&rows_thr),
            expected,
            "threaded fragmented run diverged"
        );
    }

    #[test]
    fn preagg_sharing_child_sig_cuts_once() {
        use tukwila_optimizer::fragment::FragmentationConfig;

        // PreAgg nodes carry their child's signature; one chosen cut
        // signature must produce exactly one producer fragment, not a
        // PreAgg fragment stacked on a join fragment.
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q10a();
        let mut ctx = OptimizerContext::no_statistics();
        ctx.preagg = PreAggConfig::Insert(tukwila_optimizer::PreAggMode::AdaptiveWindow);
        let plan = Optimizer::new(ctx.clone()).optimize(&q).unwrap();
        let cuts = tukwila_optimizer::choose_cuts(&plan, &ctx, &FragmentationConfig::aggressive());
        assert!(!cuts.is_empty());
        let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
        assert!(
            frag.plan.fragment_count() <= cuts.len() + 1,
            "{} fragments for {} cut signatures — a shared PreAgg/child sig was cut twice",
            frag.plan.fragment_count(),
            cuts.len()
        );

        let lowered = lower_plan(&plan, None, true).unwrap();
        let mut pipeline = lowered.pipeline;
        let (rows, _) = SimDriver::new(512, CpuCostModel::Zero)
            .run(&mut pipeline, &mut sources_for(&d, &q))
            .unwrap();
        let (rows_frag, _) = SimDriver::new(512, CpuCostModel::Zero)
            .run_fragments_sequential(frag.plan, sources_for(&d, &q))
            .unwrap();
        assert_eq!(
            tukwila_exec::reference::canonicalize_approx(&rows_frag),
            tukwila_exec::reference::canonicalize_approx(&rows),
        );
    }

    #[test]
    fn q5_with_cycle_executes() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q5();
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.optimize(&q).unwrap();
        let lowered = lower_plan(&plan, None, true).unwrap();
        let mut pipeline = lowered.pipeline;
        let mut sources = sources_for(&d, &q);
        let driver = SimDriver::new(512, CpuCostModel::Zero);
        let (rows, _) = driver.run(&mut pipeline, &mut sources).unwrap();
        // Grouped by nation name within ASIA: at most 5 groups.
        assert!(rows.len() <= 5);
        assert!(!rows.is_empty());
    }

    #[test]
    fn matches_reference_oracle_on_q3a() {
        use tukwila_exec::reference::{canonicalize, RefCol, RefJoin, RefQuery, RefRelation};
        use tukwila_relation::agg::AggFunc;

        let d = Dataset::generate(DatasetConfig::uniform(0.001));
        let q = queries::q3a();
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.optimize(&q).unwrap();
        let lowered = lower_plan(&plan, None, true).unwrap();
        let mut pipeline = lowered.pipeline;
        let mut sources = sources_for(&d, &q);
        let driver = SimDriver::new(256, CpuCostModel::Zero);
        let (rows, _) = driver.run(&mut pipeline, &mut sources).unwrap();

        // Reference: customer(0) orders(1) lineitem(2).
        let mut r = RefQuery::new(vec![
            RefRelation {
                schema: Dataset::schema(TableId::Customer),
                tuples: d.customer.clone(),
            },
            RefRelation {
                schema: Dataset::schema(TableId::Orders),
                tuples: d.orders.clone(),
            },
            RefRelation {
                schema: Dataset::schema(TableId::Lineitem),
                tuples: d.lineitem.clone(),
            },
        ]);
        r.filters.push((0, q.rels[0].filter.clone().unwrap()));
        r.joins.push(RefJoin {
            left_rel: 0,
            left_col: 0,
            right_rel: 1,
            right_col: 1,
        });
        r.joins.push(RefJoin {
            left_rel: 1,
            left_col: 0,
            right_rel: 2,
            right_col: 0,
        });
        r.group_cols = vec![
            RefCol { rel: 2, col: 0 },
            RefCol { rel: 1, col: 2 },
            RefCol { rel: 1, col: 3 },
        ];
        r.aggs = vec![(AggFunc::Sum, RefCol { rel: 2, col: 9 })];
        let expected = r.run().unwrap();
        assert_eq!(canonicalize(&rows), canonicalize(&expected));
    }
}
