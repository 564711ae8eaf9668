//! Top-down memoized bushy-tree enumeration and lowering to physical plans
//! (paper §4.3).

use std::collections::HashMap;
use std::rc::Rc;

use tukwila_relation::agg::{coalesce_func, AggFunc};
use tukwila_relation::expr::ArithOp;
use tukwila_relation::{DataType, Error, Expr, Field, Result, Schema};
use tukwila_stats::DeliveryModel;
use tukwila_storage::ExprSig;

use crate::cost::{CardEstimator, EstimateMode, OptimizerContext, PreAggConfig};
use crate::logical::{JoinPred, LogicalQuery};
use crate::phys::{PartialSlot, PhysAgg, PhysKind, PhysNode, PhysPlan, PreAggMode};
use crate::preagg::{group_cols_for, needed_cols, preagg_point, PreAggPoint};

/// Join-order skeleton produced by enumeration.
#[derive(Debug)]
enum JoinTree {
    Leaf(usize),
    Join(Rc<JoinTree>, Rc<JoinTree>),
}

/// Two-part cost of a candidate subtree: CPU work (cost-model units) and
/// the residual delivery wait (timeline µs) the shared `DeliveryModel`
/// predicts after overlapping sibling CPU against slow arrivals. Trees
/// compare on the combined `total`, which is what lets join enumeration
/// hide slow deliveries under CPU-heavy subtrees instead of merely
/// re-ranking scans.
#[derive(Debug, Clone, Copy)]
struct Score {
    cpu: f64,
    wait_us: f64,
}

impl Score {
    fn total(&self, cm: &crate::cost::CostModel) -> f64 {
        self.cpu + cm.delivery_per_us * self.wait_us
    }
}

/// Residual delivery wait of a join over its children: while one side's
/// tuples trickle in, the engine burns the sibling subtree's CPU, so each
/// side's wait is credited with the other side's CPU time (converted to
/// timeline µs via `CostModel::unit_us`) — the shared
/// [`tukwila_stats::schedule::residual_wait_us`] formula. The slower
/// residual dominates.
fn overlap_wait(left: &Score, right: &Score, cm: &crate::cost::CostModel) -> f64 {
    let l = tukwila_stats::schedule::residual_wait_us(left.wait_us, right.cpu * cm.unit_us);
    let r = tukwila_stats::schedule::residual_wait_us(right.wait_us, left.cpu * cm.unit_us);
    l.max(r)
}

/// The query optimizer / re-optimizer.
pub struct Optimizer {
    pub ctx: OptimizerContext,
}

impl Optimizer {
    pub fn new(ctx: OptimizerContext) -> Optimizer {
        Optimizer { ctx }
    }

    /// Optimize from scratch (costs over total estimated cardinalities).
    pub fn optimize(&self, q: &LogicalQuery) -> Result<PhysPlan> {
        self.optimize_inner(q, false)
    }

    /// Re-optimize mid-execution: costs over the *remaining* (unconsumed)
    /// source data, using every runtime observation in the context.
    pub fn reoptimize_remaining(&self, q: &LogicalQuery) -> Result<PhysPlan> {
        self.optimize_inner(q, true)
    }

    fn optimize_inner(&self, q: &LogicalQuery, remaining: bool) -> Result<PhysPlan> {
        q.validate()?;
        let n = q.rels.len();
        if n > 20 {
            return Err(Error::Plan(format!("too many relations ({n})")));
        }
        let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
        let mut enumerator = Enumerator {
            q,
            est: CardEstimator::with_mode(q, &self.ctx, EstimateMode::Total),
            sunk: CardEstimator::with_mode(q, &self.ctx, EstimateMode::Consumed),
            credit_sunk: remaining,
            ctx: &self.ctx,
            model: self.ctx.delivery_model(),
            memo: HashMap::new(),
        };
        let (best_score, tree) = enumerator
            .best(full)
            .ok_or_else(|| Error::Plan("no connected join order found".into()))?;
        let mut plan = self.lower_tree(q, &tree, remaining)?;
        if remaining {
            // The comparable cost is the credited enumeration cost (plus
            // the final aggregation, priced on totals for symmetry with
            // `recost`).
            plan.est_cost = best_score.total(&self.ctx.cost_model)
                + match plan.agg {
                    Some(_) => self.ctx.cost_model.agg_tuple * plan.root.est_card,
                    None => 0.0,
                };
        }
        Ok(plan)
    }

    /// Build a *forced* left-deep plan joining relations in exactly the
    /// given order (used by baselines and tests to reproduce specific
    /// plans, e.g. a known-bad ordering).
    pub fn plan_with_order(&self, q: &LogicalQuery, order: &[u32]) -> Result<PhysPlan> {
        q.validate()?;
        if order.len() != q.rels.len() {
            return Err(Error::Plan("order must cover every relation".into()));
        }
        let mut tree = Rc::new(JoinTree::Leaf(q.rel_index(order[0])?));
        for rel in &order[1..] {
            let leaf = Rc::new(JoinTree::Leaf(q.rel_index(*rel)?));
            tree = Rc::new(JoinTree::Join(tree, leaf));
        }
        self.lower_tree(q, &tree, false)
    }

    /// Re-cost an existing plan tree under the current context (over
    /// remaining data when `remaining`). This is how corrective query
    /// processing prices the *currently executing* plan for comparison
    /// against re-optimized candidates. The result combines CPU with the
    /// priced residual delivery wait, mirroring enumeration, so current
    /// plan and candidates compare on the same scale.
    pub fn recost(&self, q: &LogicalQuery, plan: &PhysPlan, remaining: bool) -> Result<f64> {
        let (score, card) = self.recost_score(q, plan, remaining)?;
        Ok(score.total(&self.ctx.cost_model)
            + match plan.agg {
                Some(_) => self.ctx.cost_model.agg_tuple * card,
                None => 0.0,
            })
    }

    /// [`Optimizer::recost`] restricted to the CPU component: cost units
    /// of processing work, without the priced delivery-wait term. The
    /// corrective executor calibrates `CostModel::unit_us` by dividing
    /// the driver CPU µs it *measured* by the CPU units the running plan
    /// consumed — delivery waits are idle time at the driver, so letting
    /// them into the denominator would deflate the calibration on
    /// delivery-bound workloads.
    pub fn recost_cpu(&self, q: &LogicalQuery, plan: &PhysPlan, remaining: bool) -> Result<f64> {
        let (score, card) = self.recost_score(q, plan, remaining)?;
        Ok(score.cpu
            + match plan.agg {
                Some(_) => self.ctx.cost_model.agg_tuple * card,
                None => 0.0,
            })
    }

    fn recost_score(
        &self,
        q: &LogicalQuery,
        plan: &PhysPlan,
        remaining: bool,
    ) -> Result<(Score, f64)> {
        q.validate()?;
        let mut est = CardEstimator::with_mode(q, &self.ctx, EstimateMode::Total);
        let mut sunk = CardEstimator::with_mode(q, &self.ctx, EstimateMode::Consumed);
        let model = self.ctx.delivery_model();
        self.recost_node(q, &plan.root, remaining, &mut est, &mut sunk, &model)
    }

    fn recost_node(
        &self,
        q: &LogicalQuery,
        node: &PhysNode,
        credit_sunk: bool,
        est: &mut CardEstimator<'_>,
        sunk: &mut CardEstimator<'_>,
        model: &DeliveryModel,
    ) -> Result<(Score, f64)> {
        let mask = {
            let mut m = 0u32;
            for r in node.sig.rels() {
                m |= 1 << q.rel_index(*r)?;
            }
            m
        };
        let cm = self.ctx.cost_model;
        match &node.kind {
            PhysKind::Scan { rel, .. } => {
                let mut cost = cm.scan_tuple * self.ctx.base_card(*rel);
                if credit_sunk {
                    cost -= cm.scan_tuple * sunk.raw_card(*rel);
                }
                // Delivery wait over the data this costing covers: the
                // whole relation, or only what is still to arrive.
                let raw = if credit_sunk {
                    (self.ctx.base_card(*rel) - sunk.raw_card(*rel)).max(0.0)
                } else {
                    self.ctx.base_card(*rel)
                };
                Ok((
                    Score {
                        cpu: cost.max(0.0),
                        wait_us: model.arrival_us(*rel, raw),
                    },
                    est.card(mask),
                ))
            }
            PhysKind::Join { left, right, .. } => {
                let (ls, lcard) = self.recost_node(q, left, credit_sunk, est, sunk, model)?;
                let (rs, rcard) = self.recost_node(q, right, credit_sunk, est, sunk, model)?;
                let card = est.card(mask);
                let step = cm.hash_insert + cm.hash_probe;
                let mut cost = step * (lcard + rcard) + cm.output * card;
                if credit_sunk && self.ctx.is_sunk(&node.sig) {
                    let lmask = {
                        let mut m = 0u32;
                        for r in left.sig.rels() {
                            m |= 1 << q.rel_index(*r)?;
                        }
                        m
                    };
                    let rmask = {
                        let mut m = 0u32;
                        for r in right.sig.rels() {
                            m |= 1 << q.rel_index(*r)?;
                        }
                        m
                    };
                    cost -=
                        step * (sunk.card(lmask) + sunk.card(rmask)) + cm.output * sunk.card(mask);
                }
                Ok((
                    Score {
                        cpu: ls.cpu + rs.cpu + cost.max(0.0),
                        wait_us: overlap_wait(&ls, &rs, &cm),
                    },
                    card,
                ))
            }
            PhysKind::PreAgg { child, .. } => {
                let (cs, ccard) = self.recost_node(q, child, credit_sunk, est, sunk, model)?;
                Ok((
                    Score {
                        cpu: cs.cpu + cm.preagg_tuple * ccard,
                        wait_us: cs.wait_us,
                    },
                    ccard,
                ))
            }
        }
    }

    fn lower_tree(&self, q: &LogicalQuery, tree: &JoinTree, remaining: bool) -> Result<PhysPlan> {
        let point = match self.ctx.preagg {
            PreAggConfig::Off => None,
            PreAggConfig::Insert(_) => preagg_point(q),
        };
        let mode = match self.ctx.preagg {
            PreAggConfig::Insert(m) => m,
            PreAggConfig::Off => PreAggMode::Pseudogroup, // unused
        };
        let _ = remaining; // annotations always carry total estimates
        let mut lowerer = Lowerer {
            q,
            ctx: &self.ctx,
            est: CardEstimator::with_mode(q, &self.ctx, EstimateMode::Total),
            model: self.ctx.delivery_model(),
            point,
            mode,
            inserted: false,
        };
        let root = lowerer.lower(tree)?;
        let agg = build_final_agg(q, &root)?;
        let est_cost = root.est_cost
            + match &agg {
                Some(_) => self.ctx.cost_model.agg_tuple * root.est_card,
                None => 0.0,
            };
        Ok(PhysPlan {
            root,
            agg,
            est_cost,
        })
    }
}

struct Enumerator<'a> {
    q: &'a LogicalQuery,
    /// Total-data estimator: every plan is priced on the whole query.
    est: CardEstimator<'a>,
    /// Consumed-data estimator: sunk-cost credits for work already done
    /// (§4.3 "factors in the amount of computation that has already been
    /// performed").
    sunk: CardEstimator<'a>,
    /// Whether to apply sunk credits (mid-query re-optimization) or price
    /// from scratch (initial optimization).
    credit_sunk: bool,
    ctx: &'a OptimizerContext,
    /// The shared delivery model over the catalog's published schedules;
    /// empty (all arrivals immediate) for unprofiled sources.
    model: DeliveryModel,
    memo: HashMap<u32, Option<(Score, Rc<JoinTree>)>>,
}

impl<'a> Enumerator<'a> {
    /// Cheapest join tree for the relation subset `set` (by combined
    /// CPU + priced residual delivery wait); `None` when the subset is
    /// internally disconnected. Memoizing the best (CPU, wait) pair per
    /// subset is the standard greedy approximation — a dominated-in-CPU
    /// but wait-free subtree can in principle win in a larger context,
    /// but pricing both dimensions into one comparable total keeps the
    /// enumeration O(3^n) and is exact whenever no schedules exist.
    fn best(&mut self, set: u32) -> Option<(Score, Rc<JoinTree>)> {
        if let Some(hit) = self.memo.get(&set) {
            return hit.clone();
        }
        let result = self.compute_best(set);
        self.memo.insert(set, result.clone());
        result
    }

    fn sig_of(&self, set: u32) -> tukwila_storage::ExprSig {
        let rels: Vec<u32> = (0..self.q.rels.len())
            .filter(|i| set & (1 << i) != 0)
            .map(|i| self.q.rels[i].rel_id)
            .collect();
        tukwila_storage::ExprSig::new(rels)
    }

    fn compute_best(&mut self, set: u32) -> Option<(Score, Rc<JoinTree>)> {
        let cm = self.ctx.cost_model;
        if set.count_ones() == 1 {
            let idx = set.trailing_zeros() as usize;
            let card = self.est.card(set);
            let mut cost = cm.scan_tuple * card;
            if self.credit_sunk {
                // Already-read source data is sunk for every plan.
                cost -= cm.scan_tuple * self.sunk.card(set);
            }
            // Delivery wait over the raw tuples this costing still has to
            // receive (remaining data when re-optimizing mid-query).
            let rel_id = self.q.rels[idx].rel_id;
            let raw = if self.credit_sunk {
                (self.est.raw_card(rel_id) - self.sunk.raw_card(rel_id)).max(0.0)
            } else {
                self.est.raw_card(rel_id)
            };
            return Some((
                Score {
                    cpu: cost.max(0.0),
                    wait_us: self.model.arrival_us(rel_id, raw),
                },
                Rc::new(JoinTree::Leaf(idx)),
            ));
        }
        let lowbit = set & set.wrapping_neg();
        let mut best: Option<(Score, Rc<JoinTree>)> = None;
        // Iterate proper submasks containing the lowest bit (canonical).
        let mut sub = (set - 1) & set;
        while sub > 0 {
            if sub & lowbit != 0 && sub != set {
                let rest = set & !sub;
                if self.connected(sub, rest) {
                    if let (Some((sl, tl)), Some((sr, tr))) = (self.best(sub), self.best(rest)) {
                        let score = Score {
                            cpu: sl.cpu + sr.cpu + self.join_cost(set, sub, rest),
                            // Overlap credit: the slow side's arrival wait
                            // is hidden by the sibling subtree's CPU.
                            wait_us: overlap_wait(&sl, &sr, &cm),
                        };
                        if best
                            .as_ref()
                            .map(|(b, _)| score.total(&cm) < b.total(&cm))
                            .unwrap_or(true)
                        {
                            best = Some((score, Rc::new(JoinTree::Join(tl, tr))));
                        }
                    }
                }
            }
            sub = (sub - 1) & set;
        }
        best
    }

    fn connected(&self, a: u32, b: u32) -> bool {
        self.q.preds.iter().any(|p| {
            let li = self.q.rel_index(p.left_rel).expect("validated");
            let ri = self.q.rel_index(p.right_rel).expect("validated");
            (a & (1 << li) != 0 && b & (1 << ri) != 0) || (b & (1 << li) != 0 && a & (1 << ri) != 0)
        })
    }

    fn join_cost(&mut self, set: u32, l: u32, r: u32) -> f64 {
        let cm = self.ctx.cost_model;
        let cl = self.est.card(l);
        let cr = self.est.card(r);
        let cj = self.est.card(set);
        // Pipelined hash: insert + probe per input tuple, plus output.
        let mut cost = (cm.hash_insert + cm.hash_probe) * (cl + cr) + cm.output * cj;
        if self.credit_sunk && self.ctx.is_sunk(&self.sig_of(set)) {
            // This subexpression's result exists from an earlier phase:
            // credit the work already performed on consumed data.
            let scl = self.sunk.card(l);
            let scr = self.sunk.card(r);
            let scj = self.sunk.card(set);
            cost -= (cm.hash_insert + cm.hash_probe) * (scl + scr) + cm.output * scj;
        }
        cost.max(0.0)
    }
}

struct Lowerer<'a> {
    q: &'a LogicalQuery,
    ctx: &'a OptimizerContext,
    est: CardEstimator<'a>,
    /// Shared delivery model for the wait annotations on lowered nodes.
    model: DeliveryModel,
    point: Option<PreAggPoint>,
    mode: PreAggMode,
    inserted: bool,
}

impl<'a> Lowerer<'a> {
    fn mask_of(&self, sig: &ExprSig) -> u32 {
        let mut m = 0u32;
        for r in sig.rels() {
            m |= 1 << self.q.rel_index(*r).expect("validated");
        }
        m
    }

    fn lower(&mut self, tree: &JoinTree) -> Result<PhysNode> {
        let node = match tree {
            JoinTree::Leaf(idx) => self.scan(*idx)?,
            JoinTree::Join(l, r) => {
                let left = self.lower(l)?;
                let right = self.lower(r)?;
                self.join(left, right)?
            }
        };
        // Insert the pre-aggregation operator above the first (deepest)
        // node covering the aggregate inputs, unless that node is the root.
        if !self.inserted {
            if let Some(point) = self.point.clone() {
                if point.subtree.is_subset_of(&node.sig) && node.sig.arity() < self.q.rels.len() {
                    self.inserted = true;
                    return self.wrap_preagg(node, &point);
                }
            }
        }
        Ok(node)
    }

    fn scan(&mut self, idx: usize) -> Result<PhysNode> {
        let rel = &self.q.rels[idx];
        let card = self.est.card(1 << idx);
        let raw = self.est.raw_card(rel.rel_id);
        // Observed arrival schedules (federation profiles) turn a scan's
        // cost from pure CPU into CPU + expected arrival wait; a single
        // uniform segment reproduces the legacy `raw / rate` bound.
        let est_cpu = self.ctx.cost_model.scan_tuple * raw;
        let est_wait_us = self.model.arrival_us(rel.rel_id, raw);
        Ok(PhysNode {
            kind: PhysKind::Scan {
                rel: rel.rel_id,
                name: rel.name.clone(),
                filter: rel.filter.clone(),
            },
            schema: rel.schema.clone(),
            col_map: (0..rel.schema.arity())
                .map(|c| ((rel.rel_id, c), c))
                .collect(),
            partials: vec![],
            sig: ExprSig::single(rel.rel_id),
            est_card: card,
            est_cost: est_cpu + self.ctx.cost_model.delivery_per_us * est_wait_us,
            est_cpu,
            est_wait_us,
        })
    }

    fn join(&mut self, left: PhysNode, right: PhysNode) -> Result<PhysNode> {
        let crossing: Vec<&JoinPred> = self
            .q
            .preds
            .iter()
            .filter(|p| {
                (left.sig.contains(p.left_rel) && right.sig.contains(p.right_rel))
                    || (left.sig.contains(p.right_rel) && right.sig.contains(p.left_rel))
            })
            .collect();
        let first = crossing.first().ok_or_else(|| {
            Error::Plan(format!(
                "no join predicate between {} and {}",
                left.sig, right.sig
            ))
        })?;
        let resolve = |node: &PhysNode, rel: u32, col: usize| -> Result<usize> {
            node.col_of(rel, col).ok_or_else(|| {
                Error::Plan(format!(
                    "column ({rel},{col}) unavailable in {} (projected away?)",
                    node.sig
                ))
            })
        };
        let (left_col, right_col) = if left.sig.contains(first.left_rel) {
            (
                resolve(&left, first.left_rel, first.left_col)?,
                resolve(&right, first.right_rel, first.right_col)?,
            )
        } else {
            (
                resolve(&left, first.right_rel, first.right_col)?,
                resolve(&right, first.left_rel, first.left_col)?,
            )
        };
        let off = left.schema.arity();
        let mut residual = Vec::new();
        for p in &crossing[1..] {
            let (lpos, rpos) = if left.sig.contains(p.left_rel) {
                (
                    resolve(&left, p.left_rel, p.left_col)?,
                    resolve(&right, p.right_rel, p.right_col)?,
                )
            } else {
                (
                    resolve(&left, p.right_rel, p.right_col)?,
                    resolve(&right, p.left_rel, p.left_col)?,
                )
            };
            residual.push((lpos, rpos + off));
        }

        let sig = left.sig.union(&right.sig);
        let JoinLayout {
            emit,
            schema,
            col_map,
            partials,
        } = narrow(self.q, &sig, &left, &right);
        let mask = self.mask_of(&sig);
        let est_card = self.est.card(mask);
        let cm = self.ctx.cost_model;
        let step = cm.hash_insert + cm.hash_probe;
        let est_cpu = left.est_cpu
            + right.est_cpu
            + step * (left.est_card + right.est_card)
            + cm.output * est_card;
        // Each side's delivery wait is hidden by the CPU the engine burns
        // on the sibling subtree; the slower residual survives.
        let est_wait_us = overlap_wait(
            &Score {
                cpu: left.est_cpu,
                wait_us: left.est_wait_us,
            },
            &Score {
                cpu: right.est_cpu,
                wait_us: right.est_wait_us,
            },
            &cm,
        );
        Ok(PhysNode {
            kind: PhysKind::Join {
                left: Box::new(left),
                right: Box::new(right),
                left_col,
                right_col,
                pred_id: first.id,
                residual,
                emit,
            },
            schema,
            col_map,
            partials,
            sig,
            est_card,
            est_cost: est_cpu + cm.delivery_per_us * est_wait_us,
            est_cpu,
            est_wait_us,
        })
    }

    fn wrap_preagg(&mut self, child: PhysNode, point: &PreAggPoint) -> Result<PhysNode> {
        let group_base = group_cols_for(self.q, &child.sig);
        let mut group_cols = Vec::with_capacity(group_base.len());
        for (rel, col) in &group_base {
            group_cols.push(child.col_of(*rel, *col).ok_or_else(|| {
                Error::Plan(format!("pre-agg group column ({rel},{col}) unavailable"))
            })?);
        }
        let mut aggs = Vec::new();
        let mut fields: Vec<Field> = group_cols
            .iter()
            .map(|&pos| child.schema.field(pos).clone())
            .collect();
        let mut partials: Vec<PartialSlot> = Vec::new();
        for (agg_idx, func, (rel, col)) in &point.partial_aggs {
            let in_col = child.col_of(*rel, *col).ok_or_else(|| {
                Error::Plan(format!("pre-agg input column ({rel},{col}) unavailable"))
            })?;
            let pos = fields.len();
            let dtype = match func {
                AggFunc::Count => DataType::Int,
                AggFunc::Sum | AggFunc::Avg => DataType::Float,
                AggFunc::Min | AggFunc::Max => child.schema.field(in_col).dtype,
            };
            fields.push(Field::new(
                format!(
                    "partial{agg_idx}.{func}({})",
                    child.schema.field(in_col).name
                ),
                dtype,
            ));
            aggs.push((*func, in_col));
            // Record/extend the slot for this query aggregate.
            if let Some(slot) = partials.iter_mut().find(|s| s.agg_idx == *agg_idx) {
                // Second entry for a decomposed avg: the count column.
                slot.count_col = Some(pos);
            } else {
                partials.push(PartialSlot {
                    agg_idx: *agg_idx,
                    value_col: pos,
                    count_col: if *func == AggFunc::Count
                        && self.query_agg_func(*agg_idx) == AggFunc::Avg
                    {
                        // Shouldn't happen (sum listed first), but be safe.
                        Some(pos)
                    } else {
                        None
                    },
                });
            }
        }
        let schema = Schema::new(fields);
        let col_map: Vec<((u32, usize), usize)> = group_base
            .iter()
            .enumerate()
            .map(|(i, &(rel, col))| ((rel, col), i))
            .collect();
        let est_card = child.est_card; // conservative: assume no reduction
        let est_cpu = child.est_cpu + self.ctx.cost_model.preagg_tuple * child.est_card;
        let est_wait_us = child.est_wait_us;
        let sig = child.sig.clone();
        Ok(PhysNode {
            kind: PhysKind::PreAgg {
                child: Box::new(child),
                mode: self.mode,
                group_cols,
                aggs,
            },
            schema,
            col_map,
            partials,
            sig,
            est_card,
            est_cost: est_cpu + self.ctx.cost_model.delivery_per_us * est_wait_us,
            est_cpu,
            est_wait_us,
        })
    }

    fn query_agg_func(&self, agg_idx: usize) -> AggFunc {
        self.q
            .agg
            .as_ref()
            .map(|a| a.aggs[agg_idx].0)
            .unwrap_or(AggFunc::Count)
    }
}

/// A join node's output layout: which positions of `left ++ right` it
/// keeps, and the schema, column map and partial slots over them.
struct JoinLayout {
    emit: Vec<usize>,
    schema: Schema,
    col_map: Vec<((u32, usize), usize)>,
    partials: Vec<PartialSlot>,
}

/// The output layout of a join over `sig`: the concatenation `left ++
/// right` with every column nothing above reads filtered out (see
/// [`needed_cols`]), in concatenation order. Carried partials always
/// survive.
fn narrow(q: &LogicalQuery, sig: &ExprSig, left: &PhysNode, right: &PhysNode) -> JoinLayout {
    let off = left.schema.arity();
    let width = off + right.schema.arity();
    // What each concatenated position holds: a base column or a partial.
    let mut base: Vec<Option<(u32, usize)>> = vec![None; width];
    for &(bc, pos) in &left.col_map {
        base[pos] = Some(bc);
    }
    for &(bc, pos) in &right.col_map {
        base[pos + off] = Some(bc);
    }
    let needed = needed_cols(q, sig);
    let emit: Vec<usize> = (0..width)
        .filter(|&pos| match (base[pos], &needed) {
            (Some(bc), Some(needed)) => needed.contains(&bc),
            _ => true,
        })
        .collect();
    let mut new_pos = vec![usize::MAX; width];
    for (i, &pos) in emit.iter().enumerate() {
        new_pos[pos] = i;
    }
    let col_map = emit
        .iter()
        .enumerate()
        .filter_map(|(i, &pos)| base[pos].map(|bc| (bc, i)))
        .collect();
    let partials = left
        .partials
        .iter()
        .copied()
        .chain(right.partials.iter().map(|p| PartialSlot {
            agg_idx: p.agg_idx,
            value_col: p.value_col + off,
            count_col: p.count_col.map(|c| c + off),
        }))
        .map(|p| PartialSlot {
            agg_idx: p.agg_idx,
            value_col: new_pos[p.value_col],
            count_col: p.count_col.map(|c| new_pos[c]),
        })
        .collect();
    let schema = left.schema.concat(&right.schema).project(&emit);
    JoinLayout {
        emit,
        schema,
        col_map,
        partials,
    }
}

/// Build the final aggregation spec over the root output, consuming carried
/// partials where present.
fn build_final_agg(q: &LogicalQuery, root: &PhysNode) -> Result<Option<PhysAgg>> {
    let qagg = match &q.agg {
        Some(a) => a,
        None => return Ok(None),
    };
    let mut group_cols = Vec::with_capacity(qagg.group.len());
    for g in &qagg.group {
        group_cols.push(root.col_of(g.rel, g.col).ok_or_else(|| {
            Error::Plan(format!(
                "final group column ({},{}) unavailable at the root",
                g.rel, g.col
            ))
        })?);
    }
    let mut aggs: Vec<(AggFunc, usize)> = Vec::new();
    // For post-projection: per query agg, where its value lands in the
    // aggregation output (offset by group count), and whether it is an
    // avg pair needing division.
    enum Landing {
        Single(usize),
        AvgPair(usize, usize),
    }
    let mut landings: Vec<Landing> = Vec::new();
    let mut needs_post = false;
    for (i, (func, r)) in qagg.aggs.iter().enumerate() {
        if let Some(slot) = root.partial_for(i) {
            match func {
                AggFunc::Avg => {
                    let sum_pos = aggs.len();
                    aggs.push((AggFunc::Sum, slot.value_col));
                    let count_col = slot.count_col.ok_or_else(|| {
                        Error::Plan("avg partial missing its count column".into())
                    })?;
                    let count_pos = aggs.len();
                    aggs.push((AggFunc::Sum, count_col));
                    landings.push(Landing::AvgPair(sum_pos, count_pos));
                    needs_post = true;
                }
                f => {
                    let pos = aggs.len();
                    aggs.push((coalesce_func(*f), slot.value_col));
                    landings.push(Landing::Single(pos));
                    let _ = f;
                }
            }
        } else {
            let col = root.col_of(r.rel, r.col).ok_or_else(|| {
                Error::Plan(format!(
                    "aggregate input ({},{}) unavailable at the root",
                    r.rel, r.col
                ))
            })?;
            let pos = aggs.len();
            aggs.push((*func, col));
            landings.push(Landing::Single(pos));
        }
    }
    let post_project = if needs_post {
        let g = group_cols.len();
        let mut exprs: Vec<Expr> = (0..g).map(Expr::Col).collect();
        let mut fields: Vec<Field> = group_cols
            .iter()
            .map(|&c| root.schema.field(c).clone())
            .collect();
        for (i, landing) in landings.iter().enumerate() {
            let (func, r) = &qagg.aggs[i];
            let base_name = q
                .rel(r.rel)
                .map(|rel| rel.schema.field(r.col).name.clone())
                .unwrap_or_else(|_| format!("col{}", r.col));
            let dtype = match func {
                AggFunc::Count => DataType::Int,
                AggFunc::Sum | AggFunc::Avg => DataType::Float,
                AggFunc::Min | AggFunc::Max => DataType::Float,
            };
            fields.push(Field::new(format!("{func}({base_name})"), dtype));
            match landing {
                Landing::Single(pos) => exprs.push(Expr::Col(g + pos)),
                Landing::AvgPair(sum, count) => exprs.push(Expr::Arith(
                    Box::new(Expr::Col(g + sum)),
                    ArithOp::Div,
                    Box::new(Expr::Col(g + count)),
                )),
            }
        }
        Some((exprs, Schema::new(fields)))
    } else {
        None
    };
    Ok(Some(PhysAgg {
        group_cols,
        aggs,
        post_project,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggRef, QueryAgg, QueryRel};
    use std::collections::HashMap as StdHashMap;

    fn rel(id: u32, name: &str, cols: &[&str]) -> QueryRel {
        QueryRel::new(
            id,
            name,
            Schema::new(
                cols.iter()
                    .map(|c| Field::new(format!("{name}.{c}"), DataType::Int))
                    .collect(),
            ),
        )
    }

    fn pred(id: u64, l: u32, lc: usize, r: u32, rc: usize) -> JoinPred {
        JoinPred {
            id,
            left_rel: l,
            left_col: lc,
            right_rel: r,
            right_col: rc,
        }
    }

    /// chain: a(k,v) -- b(ka, kc, v) -- c(k, v)
    fn chain() -> LogicalQuery {
        LogicalQuery::new(
            vec![
                rel(1, "a", &["k", "v"]),
                rel(2, "b", &["ka", "kc", "v"]),
                rel(3, "c", &["k", "v"]),
            ],
            vec![pred(1, 1, 0, 2, 0), pred(2, 2, 1, 3, 0)],
        )
    }

    #[test]
    fn optimizes_chain_into_connected_tree() {
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.optimize(&chain()).unwrap();
        assert_eq!(plan.root.join_count(), 2);
        assert_eq!(plan.root.rels().len(), 3);
        assert_eq!(plan.root.schema.arity(), 7);
        assert!(plan.est_cost > 0.0);
    }

    #[test]
    fn cheap_relations_join_first() {
        // a is tiny, c is huge: best plan joins a⋈b before touching c.
        let mut cards = StdHashMap::new();
        cards.insert(1u32, 10u64);
        cards.insert(2, 1_000);
        cards.insert(3, 1_000_000);
        let opt = Optimizer::new(OptimizerContext::with_cards(cards));
        let plan = opt.optimize(&chain()).unwrap();
        let desc = plan.describe();
        assert!(
            desc.contains("(a ⋈ b)") || desc.contains("(b ⋈ a)"),
            "expected a⋈b first, got {desc}"
        );
    }

    #[test]
    fn forced_order_is_left_deep() {
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.plan_with_order(&chain(), &[3, 2, 1]).unwrap();
        assert_eq!(plan.root.describe(), "((c ⋈ b) ⋈ a)");
    }

    #[test]
    fn join_columns_resolve_through_concat() {
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.plan_with_order(&chain(), &[1, 2, 3]).unwrap();
        if let PhysKind::Join {
            left_col,
            right_col,
            left,
            ..
        } = &plan.root.kind
        {
            // Root joins (a⋈b) with c on b.kc = c.k.
            assert_eq!(left.schema.arity(), 5);
            assert_eq!(*left_col, 3, "b.kc at offset 2 + 1");
            assert_eq!(*right_col, 0);
        } else {
            panic!("root must be a join");
        }
    }

    #[test]
    fn cyclic_graph_produces_residual() {
        // Triangle a-b, b-c, a-c.
        let q = LogicalQuery::new(
            vec![
                rel(1, "a", &["k", "j"]),
                rel(2, "b", &["k", "j"]),
                rel(3, "c", &["k", "j"]),
            ],
            vec![
                pred(1, 1, 0, 2, 0),
                pred(2, 2, 1, 3, 0),
                pred(3, 1, 1, 3, 1),
            ],
        );
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.plan_with_order(&q, &[1, 2, 3]).unwrap();
        if let PhysKind::Join { residual, .. } = &plan.root.kind {
            assert_eq!(residual.len(), 1, "a.j = c.j is residual");
        } else {
            panic!("expected join root");
        }
    }

    fn agg_query() -> LogicalQuery {
        chain().with_agg(QueryAgg {
            group: vec![AggRef { rel: 1, col: 0 }],
            aggs: vec![(AggFunc::Max, AggRef { rel: 3, col: 1 })],
        })
    }

    #[test]
    fn final_agg_resolves_columns() {
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.optimize(&agg_query()).unwrap();
        let agg = plan.agg.expect("agg present");
        assert_eq!(agg.group_cols.len(), 1);
        assert_eq!(agg.aggs.len(), 1);
        assert_eq!(agg.aggs[0].0, AggFunc::Max);
        assert!(agg.post_project.is_none());
    }

    #[test]
    fn joins_emit_only_needed_columns() {
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.plan_with_order(&agg_query(), &[1, 2, 3]).unwrap();
        let PhysKind::Join { left, emit, .. } = &plan.root.kind else {
            panic!("expected join root");
        };
        // a ⋈ b keeps the group column a.k and b.kc, which joins c.
        let names = |n: &PhysNode| -> Vec<String> {
            n.schema.fields().iter().map(|f| f.name.clone()).collect()
        };
        assert_eq!(names(left), ["a.k", "b.kc"]);
        assert!(matches!(&left.kind, PhysKind::Join { emit, .. } if *emit == [0, 3]));
        // The root keeps the group column and max(c.v)'s input.
        assert_eq!(*emit, [0, 3]);
        assert_eq!(names(&plan.root), ["a.k", "c.v"]);
        assert_eq!(plan.root.col_of(3, 1), Some(1));
        assert_eq!(plan.root.col_of(2, 1), None, "b.kc is read by no one above");
        // Without an aggregate every column is the answer.
        let plain = opt.plan_with_order(&chain(), &[1, 2, 3]).unwrap();
        assert_eq!(plain.root.schema.arity(), 7);
    }

    #[test]
    fn preagg_inserted_above_agg_leaf() {
        let mut ctx = OptimizerContext::no_statistics();
        ctx.preagg = PreAggConfig::Insert(PreAggMode::AdaptiveWindow);
        let opt = Optimizer::new(ctx);
        let plan = opt.optimize(&agg_query()).unwrap();
        let desc = plan.describe();
        assert!(desc.contains("preagg[c]"), "got {desc}");
        // Final agg consumes the carried partial with a coalesced func.
        let agg = plan.agg.unwrap();
        assert_eq!(agg.aggs[0].0, AggFunc::Max);
    }

    #[test]
    fn avg_through_preagg_gets_post_projection() {
        let mut q = agg_query();
        q.agg.as_mut().unwrap().aggs = vec![(AggFunc::Avg, AggRef { rel: 3, col: 1 })];
        let mut ctx = OptimizerContext::no_statistics();
        ctx.preagg = PreAggConfig::Insert(PreAggMode::AdaptiveWindow);
        let opt = Optimizer::new(ctx);
        let plan = opt.optimize(&q).unwrap();
        let agg = plan.agg.unwrap();
        assert_eq!(agg.aggs.len(), 2, "sum + count");
        let (exprs, schema) = agg.post_project.expect("division projection");
        assert_eq!(exprs.len(), 2, "group col + avg");
        assert_eq!(schema.arity(), 2);
    }

    #[test]
    fn reoptimize_uses_remaining_cards() {
        let mut ctx = OptimizerContext::no_statistics();
        ctx.consumed.insert(1, 19_999);
        ctx.consumed.insert(2, 0);
        ctx.consumed.insert(3, 0);
        let opt = Optimizer::new(ctx);
        let full = opt.optimize(&chain()).unwrap();
        let remaining = opt.reoptimize_remaining(&chain()).unwrap();
        assert!(remaining.est_cost < full.est_cost);
    }
}
