//! The fragmentation pass: decide where to cut a physical plan into
//! exchange-connected pipeline fragments (the §5 parallel-subplan
//! configuration).
//!
//! The overlap opportunity is delivery-boundedness: when one input of a
//! join is fed by a slow source (an observed arrival schedule published
//! by the federation layer bounds how fast its tuples can arrive) and the
//! sibling subtree is CPU-heavy, executing the sibling as its own
//! fragment lets its CPU burn on another thread while the driver blocks
//! on the slow deliveries. The pass walks the plan tree top-down and
//! returns the logical signatures of the subtrees to split out; the
//! lowering layer (in `tukwila-core`) turns each into a producer fragment
//! behind an exchange.
//!
//! Cuts are priced with the same shared delivery model the optimizer's
//! costing and the federation hedge gate use — the annotations
//! [`PhysNode::est_cpu`] / [`PhysNode::est_wait_us`] the lowerer derived
//! from it — instead of the old bare threshold rule. A cut pays when
//!
//! ```text
//! win  = min(sibling CPU µs, slow side's residual delivery wait µs)
//!      − exchange_tuple_us · |sibling output|
//! win ≥ min_net_win_us, and a core is free to run the producer
//! ```
//!
//! The core budget ([`FragmentationConfig::cores`], defaulting to
//! [`std::thread::available_parallelism`]) stops the pass from cutting
//! past the host's ability to actually run the producers: a fragment with
//! no idle core to land on buys queue overhead and nothing else.

use crate::cost::OptimizerContext;
use crate::phys::{PhysKind, PhysNode, PhysPlan};
use tukwila_stats::{TraceEvent, TraceSink};
use tukwila_storage::ExprSig;

/// Tunables of the fragmentation pass.
#[derive(Debug, Clone)]
pub struct FragmentationConfig {
    /// Minimum modeled net win (timeline µs) before a cut is taken.
    /// `f64::NEG_INFINITY` (the [`FragmentationConfig::aggressive`] test
    /// config) cuts every eligible subtree regardless of profitability.
    pub min_net_win_us: f64,
    /// Modeled cost (timeline µs) per tuple crossing an exchange queue:
    /// the producer's send, the bounded-queue handoff, and the consumer's
    /// re-read.
    pub exchange_tuple_us: f64,
    /// Upper bound on producer fragments (the root fragment is extra).
    pub max_fragments: usize,
    /// Core budget for producer fragments plus the driver. `None` reads
    /// [`std::thread::available_parallelism`] at pass time; tests pin it
    /// for determinism.
    pub cores: Option<usize>,
}

impl Default for FragmentationConfig {
    fn default() -> Self {
        FragmentationConfig {
            min_net_win_us: 2_000.0,
            exchange_tuple_us: 0.05,
            max_fragments: 3,
            cores: None,
        }
    }
}

impl FragmentationConfig {
    /// A configuration that cuts every eligible join subtree regardless
    /// of modeled profitability or core budget — used by tests that need
    /// an exchange to exist deterministically.
    pub fn aggressive() -> FragmentationConfig {
        FragmentationConfig {
            min_net_win_us: f64::NEG_INFINITY,
            exchange_tuple_us: 0.0,
            max_fragments: 8,
            cores: Some(usize::MAX),
        }
    }

    /// Rescale the per-tuple exchange price for a host whose *measured*
    /// cost-unit→µs conversion is `unit_us` (the corrective warmup
    /// calibration). The configured price was chosen under the documented
    /// fallback conversion; exchange shipping is engine work (batch copy,
    /// bounded-queue handoff, consumer re-read), so it scales with the
    /// measured per-unit driver time. Scaling in place preserves caller
    /// intent — an aggressive config's free exchanges stay free.
    pub fn recalibrate(&mut self, unit_us: f64) {
        let scale =
            (unit_us / tukwila_stats::schedule::DeliveryCosts::DEFAULT_UNIT_US).clamp(0.05, 20.0);
        self.exchange_tuple_us *= scale;
    }

    fn core_budget(&self) -> usize {
        self.cores
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
            .max(1)
    }
}

/// Modeled net win (timeline µs) of splitting `candidate` out as a
/// producer fragment while its sibling waits on `slow_wait_us` of
/// residual delivery: the overlap actually bought (never more than either
/// the candidate's CPU or the sibling's wait) minus the exchange cost of
/// shipping the candidate's output through a queue.
pub fn cut_net_win_us(
    candidate: &PhysNode,
    slow_wait_us: f64,
    ctx: &OptimizerContext,
    config: &FragmentationConfig,
) -> f64 {
    let cpu_us = candidate.est_cpu * ctx.cost_model.unit_us;
    tukwila_stats::schedule::hidden_wait_us(slow_wait_us, cpu_us)
        - config.exchange_tuple_us * candidate.est_card
}

/// Choose the subtrees to split out as producer fragments.
///
/// Returns the logical signatures of the cut roots, outermost first. The
/// root node itself is never cut (it anchors the consumer fragment), and
/// a cut subtree's descendants are only considered for further (nested)
/// cuts while the fragment and core budgets last.
pub fn choose_cuts(
    plan: &PhysPlan,
    ctx: &OptimizerContext,
    config: &FragmentationConfig,
) -> Vec<ExprSig> {
    choose_cuts_traced(plan, ctx, config, &TraceSink::disabled())
}

/// [`choose_cuts`] with decision provenance: every candidate subtree the
/// pass actually prices is journaled as a [`TraceEvent::CutDecision`]
/// carrying its modeled net win, the bar it was held to, and whether the
/// cut was taken. Budget-exhausted subtrees are never priced and so emit
/// nothing.
pub fn choose_cuts_traced(
    plan: &PhysPlan,
    ctx: &OptimizerContext,
    config: &FragmentationConfig,
    trace: &TraceSink,
) -> Vec<ExprSig> {
    let mut cuts = Vec::new();
    walk(&plan.root, ctx, config, &mut cuts, trace);
    cuts
}

/// Price one candidate, journal the decision, and return whether it
/// clears the bar.
fn consider(
    candidate: &PhysNode,
    slow_wait_us: f64,
    ctx: &OptimizerContext,
    config: &FragmentationConfig,
    trace: &TraceSink,
) -> bool {
    let net_win_us = cut_net_win_us(candidate, slow_wait_us, ctx, config);
    let accepted = net_win_us >= config.min_net_win_us;
    trace.record(TraceEvent::CutDecision {
        site: candidate.sig.to_string(),
        net_win_us,
        min_net_win_us: config.min_net_win_us,
        accepted,
    });
    accepted
}

fn eligible(node: &PhysNode) -> bool {
    // A bare scan fragment would only forward batches; it needs at least
    // one join to have CPU worth moving to another core.
    node.join_count() >= 1
}

fn walk(
    node: &PhysNode,
    ctx: &OptimizerContext,
    config: &FragmentationConfig,
    cuts: &mut Vec<ExprSig>,
    trace: &TraceSink,
) {
    if cuts.len() >= config.max_fragments {
        return;
    }
    // Each producer fragment needs its own core next to the driver's;
    // once the budget is spent, further cuts cannot run in parallel and
    // would only pay queue overhead.
    if cuts.len() + 1 >= config.core_budget() {
        return;
    }
    match &node.kind {
        PhysKind::Join { left, right, .. } => {
            // Cut the CPU-heavy sibling of a delivery-bound input when
            // the modeled net win clears the bar.
            let cut_left = eligible(left)
                && !cuts.contains(&left.sig)
                && consider(left, right.est_wait_us, ctx, config, trace);
            if cut_left {
                cuts.push(left.sig.clone());
            } else if eligible(right)
                && !cuts.contains(&right.sig)
                && consider(right, left.est_wait_us, ctx, config, trace)
            {
                cuts.push(right.sig.clone());
            }
            walk(left, ctx, config, cuts, trace);
            walk(right, ctx, config, cuts, trace);
        }
        PhysKind::PreAgg { child, .. } => walk(child, ctx, config, cuts, trace),
        PhysKind::Scan { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::Optimizer;
    use crate::logical::{JoinPred, LogicalQuery, QueryRel};
    use std::sync::Arc;
    use tukwila_relation::{DataType, Field, Schema};
    use tukwila_stats::SelectivityCatalog;

    fn rel(id: u32, name: &str) -> QueryRel {
        QueryRel::new(
            id,
            name,
            Schema::new(vec![Field::new(format!("{name}.k"), DataType::Int)]),
        )
    }

    fn chain3() -> LogicalQuery {
        LogicalQuery::new(
            vec![rel(1, "a"), rel(2, "b"), rel(3, "c")],
            vec![
                JoinPred {
                    id: 1,
                    left_rel: 1,
                    left_col: 0,
                    right_rel: 2,
                    right_col: 0,
                },
                JoinPred {
                    id: 2,
                    left_rel: 2,
                    left_col: 0,
                    right_rel: 3,
                    right_col: 0,
                },
            ],
        )
    }

    /// Default-ish config with the core budget pinned so the tests do not
    /// depend on the host's parallelism.
    fn cfg(cores: usize) -> FragmentationConfig {
        FragmentationConfig {
            cores: Some(cores),
            ..Default::default()
        }
    }

    #[test]
    fn no_observed_rates_no_cuts() {
        let q = chain3();
        let ctx = OptimizerContext::no_statistics();
        let plan = Optimizer::new(ctx.clone()).optimize(&q).unwrap();
        assert!(choose_cuts(&plan, &ctx, &cfg(8)).is_empty());
    }

    #[test]
    fn slow_source_cuts_the_cpu_heavy_sibling() {
        let q = chain3();
        let catalog = Arc::new(SelectivityCatalog::new());
        // Relation 3 delivers at 100 tuples/s: 20k default tuples take
        // 200 virtual seconds — massively delivery-bound.
        catalog.observe_source_rate(3, 100.0);
        let ctx = OptimizerContext {
            catalog: Some(catalog),
            ..OptimizerContext::no_statistics()
        };
        let plan = Optimizer::new(ctx.clone())
            .plan_with_order(&q, &[1, 2, 3])
            .unwrap();
        // The a⋈b subtree's CPU at default unit_us (~98k cost units ≈
        // 9.8ms) clears the net-win bar against c's 200-second wait even
        // after the exchange toll on its 20k output tuples.
        let cuts = choose_cuts(&plan, &ctx, &cfg(8));
        assert_eq!(
            cuts,
            vec![ExprSig::new(vec![1, 2])],
            "the a⋈b subtree overlaps c's slow deliveries"
        );
    }

    #[test]
    fn exchange_toll_vetoes_a_marginal_cut() {
        let q = chain3();
        let catalog = Arc::new(SelectivityCatalog::new());
        catalog.observe_source_rate(3, 100.0);
        let ctx = OptimizerContext {
            catalog: Some(catalog),
            ..OptimizerContext::no_statistics()
        };
        let plan = Optimizer::new(ctx.clone())
            .plan_with_order(&q, &[1, 2, 3])
            .unwrap();
        // Price the exchange so high that shipping the subtree's output
        // costs more than the overlap could ever win.
        let cuts = choose_cuts(
            &plan,
            &ctx,
            &FragmentationConfig {
                exchange_tuple_us: 1e9,
                ..cfg(8)
            },
        );
        assert!(cuts.is_empty(), "exchange cost must veto the cut");
    }

    #[test]
    fn single_core_hosts_never_cut() {
        let q = chain3();
        let catalog = Arc::new(SelectivityCatalog::new());
        catalog.observe_source_rate(3, 100.0);
        let ctx = OptimizerContext {
            catalog: Some(catalog),
            ..OptimizerContext::no_statistics()
        };
        let plan = Optimizer::new(ctx.clone())
            .plan_with_order(&q, &[1, 2, 3])
            .unwrap();
        let one_core = FragmentationConfig {
            exchange_tuple_us: 0.0,
            ..cfg(1)
        };
        assert!(
            choose_cuts(&plan, &ctx, &one_core).is_empty(),
            "no idle core for the producer: parallelism cannot pay"
        );
        let two_cores = FragmentationConfig {
            exchange_tuple_us: 0.0,
            ..cfg(2)
        };
        assert_eq!(choose_cuts(&plan, &ctx, &two_cores).len(), 1);
    }

    #[test]
    fn aggressive_config_always_finds_a_cut_on_joins() {
        let q = chain3();
        let ctx = OptimizerContext::no_statistics();
        let plan = Optimizer::new(ctx.clone())
            .plan_with_order(&q, &[1, 2, 3])
            .unwrap();
        let cuts = choose_cuts(&plan, &ctx, &FragmentationConfig::aggressive());
        assert!(!cuts.is_empty());
    }

    #[test]
    fn fragment_budget_is_respected() {
        let q = chain3();
        let ctx = OptimizerContext::no_statistics();
        let plan = Optimizer::new(ctx.clone())
            .plan_with_order(&q, &[1, 2, 3])
            .unwrap();
        let cfg = FragmentationConfig {
            max_fragments: 1,
            ..FragmentationConfig::aggressive()
        };
        assert!(choose_cuts(&plan, &ctx, &cfg).len() <= 1);
    }
}
