//! Cardinality and cost estimation with runtime re-estimation (paper §4.2).

use std::collections::HashMap;
use std::sync::Arc;

use tukwila_stats::{ArrivalSchedule, DeliveryModel, SelectivityCatalog};
use tukwila_storage::ExprSig;

use crate::logical::LogicalQuery;
use crate::phys::PreAggMode;

/// Per-operation cost constants (arbitrary units ≈ ns/tuple). Every plan
/// join is a pipelined hash join, priced as one insert plus one probe per
/// input tuple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    pub hash_insert: f64,
    pub hash_probe: f64,
    pub output: f64,
    pub preagg_tuple: f64,
    pub agg_tuple: f64,
    pub scan_tuple: f64,
    /// Cost units charged per microsecond of *residual* source-delivery
    /// wait — the part of the arrival schedule (published by the
    /// federation layer) that CPU work elsewhere in the plan cannot
    /// overlap. Because joins credit the overlap, delivery-bound leaves
    /// now perturb join ordering: a plan that hides a slow delivery under
    /// a CPU-heavy sibling subtree prices cheaper than one that doesn't.
    pub delivery_per_us: f64,
    /// Timeline µs of driver CPU per cost-model unit, used to convert a
    /// subtree's CPU estimate into overlappable wall time when crediting
    /// delivery overlap (and pricing fragment cuts). Corrective execution
    /// **calibrates this per host** during its warmup phase — measured
    /// driver CPU µs over the CPU cost units the running plan consumed
    /// (see `CorrectiveReport::calibrated_unit_us`) — and feeds the
    /// calibrated value into every later re-optimization. The 0.1 here is
    /// the documented fallback for uncalibrated contexts: cost units are
    /// nominally ≈ ns/tuple, and the `Measured` driver spends roughly
    /// 100ns of real time per abstract unit on the repro workloads
    /// (tuple cloning, hashing).
    pub unit_us: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            hash_insert: 1.0,
            hash_probe: 1.0,
            output: 0.5,
            preagg_tuple: 0.4,
            agg_tuple: 1.0,
            scan_tuple: 0.2,
            delivery_per_us: 1.0,
            unit_us: 0.1,
        }
    }
}

/// Whether and how the optimizer inserts pre-aggregation operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PreAggConfig {
    /// No pre-aggregation push-down (baseline "single aggregation").
    #[default]
    Off,
    /// Insert the given operator flavor at every beneficial point.
    Insert(PreAggMode),
}

/// Everything the optimizer knows when invoked: prior (default/given)
/// cardinalities, runtime observations, and execution progress. Fresh
/// optimization uses an empty context; corrective re-optimization hands in
/// the live catalog and consumption counters.
#[derive(Clone, Default)]
pub struct OptimizerContext {
    /// The paper's default assumption when no statistics exist: "20,000
    /// tuples for every relation" (a `default_card` of 0 is replaced by
    /// 20,000).
    pub default_card: u64,
    /// Source cardinalities provided up front ("Given cardinalities" mode).
    pub given_cards: HashMap<u32, u64>,
    /// Runtime observations (shared with the execution monitor).
    pub catalog: Option<Arc<SelectivityCatalog>>,
    /// Tuples of each source already consumed by earlier phases; plans are
    /// costed over the *remaining* data.
    pub consumed: HashMap<u32, u64>,
    /// Pre-aggregation policy.
    pub preagg: PreAggConfig,
    pub cost_model: CostModel,
    /// Logical subexpressions already materialized by earlier phases (the
    /// current plan's nodes plus everything in the state-structure
    /// registry). Candidate plans get a sunk-cost *credit* for these
    /// (§4.3).
    pub sunk_sigs: Vec<ExprSig>,
}

impl OptimizerContext {
    /// Whether a subexpression's result already exists from earlier phases.
    pub fn is_sunk(&self, sig: &ExprSig) -> bool {
        self.sunk_sigs.iter().any(|s| s == sig)
    }
}

impl std::fmt::Debug for OptimizerContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OptimizerContext")
            .field("default_card", &self.default_card)
            .field("given_cards", &self.given_cards.len())
            .field("has_catalog", &self.catalog.is_some())
            .field("consumed", &self.consumed.len())
            .finish()
    }
}

pub const DEFAULT_CARD: u64 = 20_000;

impl OptimizerContext {
    pub fn no_statistics() -> OptimizerContext {
        OptimizerContext {
            default_card: DEFAULT_CARD,
            ..Default::default()
        }
    }

    pub fn with_cards(cards: HashMap<u32, u64>) -> OptimizerContext {
        OptimizerContext {
            default_card: DEFAULT_CARD,
            given_cards: cards,
            ..Default::default()
        }
    }

    fn effective_default(&self) -> u64 {
        if self.default_card == 0 {
            DEFAULT_CARD
        } else {
            self.default_card
        }
    }

    /// Estimated *total* cardinality of a base relation (before filters):
    /// runtime extrapolation beats given cardinalities beats the default.
    pub fn base_card(&self, rel: u32) -> f64 {
        let prior = self
            .given_cards
            .get(&rel)
            .copied()
            .unwrap_or_else(|| self.effective_default());
        if let Some(cat) = &self.catalog {
            if let Some(p) = cat.source(rel) {
                return p.extrapolated(prior) as f64;
            }
        }
        prior as f64
    }

    /// Cardinality of a base relation *not yet consumed* by earlier phases.
    pub fn remaining_card(&self, rel: u32) -> f64 {
        let total = self.base_card(rel);
        let used = self.consumed.get(&rel).copied().unwrap_or(0) as f64;
        (total - used).max(0.0)
    }

    /// Observed selectivity for a logical subexpression, if any.
    pub fn observed_sel(&self, sig: &ExprSig) -> Option<f64> {
        self.catalog.as_ref().and_then(|c| c.selectivity(sig))
    }

    /// Multiplicative-join factor for a predicate, if flagged.
    pub fn multiplicative(&self, pred_id: u64) -> Option<f64> {
        self.catalog
            .as_ref()
            .and_then(|c| c.multiplicative_factor(pred_id))
    }

    /// Observed delivery rate for a source (tuples per virtual second),
    /// when a self-profiling source (e.g. the federation adapter) has
    /// published one to the catalog.
    pub fn observed_rate(&self, rel: u32) -> Option<f64> {
        self.catalog.as_ref().and_then(|c| c.source_rate(rel))
    }

    /// Observed arrival schedule for a source, when a self-profiling
    /// source has published one to the catalog.
    pub fn source_schedule(&self, rel: u32) -> Option<ArrivalSchedule> {
        self.catalog.as_ref().and_then(|c| c.source_schedule(rel))
    }

    /// The shared [`DeliveryModel`] over every relation the catalog has a
    /// schedule for. Unprofiled relations answer "arrives immediately"
    /// (the local/fast seed assumption). This is the single object the
    /// optimizer's scan/join costing, the fragmentation pass, and (via
    /// the federation layer's own construction) the hedging gate price
    /// delivery with.
    pub fn delivery_model(&self) -> DeliveryModel {
        let mut model = DeliveryModel::default();
        if let Some(cat) = &self.catalog {
            for (rel, schedule) in cat.source_schedules() {
                model.insert(rel, schedule);
            }
        }
        model
    }
}

/// Which slice of the data a [`CardEstimator`] prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimateMode {
    /// Full estimated cardinalities.
    Total,
    /// Only data not yet consumed by earlier phases.
    Remaining,
    /// Only data already consumed (used to compute sunk-cost credits,
    /// §4.3: the optimizer "factors in the amount of computation that has
    /// already been performed").
    Consumed,
}

/// Memoized cardinality estimator over relation subsets (bitsets).
///
/// Estimation follows §4.2: an observed selectivity for the exact logical
/// signature wins; otherwise the estimate is the *average* of (a) the
/// System-R independence estimate and (b) the key–foreign-key speculation
/// from each observed "parent" subexpression that this expression extends
/// by one leaf; multiplicative-predicate flags scale the result.
pub struct CardEstimator<'a> {
    pub q: &'a LogicalQuery,
    pub ctx: &'a OptimizerContext,
    pub mode: EstimateMode,
    memo: HashMap<u32, f64>,
}

impl<'a> CardEstimator<'a> {
    pub fn new(q: &'a LogicalQuery, ctx: &'a OptimizerContext, remaining: bool) -> Self {
        CardEstimator::with_mode(
            q,
            ctx,
            if remaining {
                EstimateMode::Remaining
            } else {
                EstimateMode::Total
            },
        )
    }

    pub fn with_mode(q: &'a LogicalQuery, ctx: &'a OptimizerContext, mode: EstimateMode) -> Self {
        CardEstimator {
            q,
            ctx,
            mode,
            memo: HashMap::new(),
        }
    }

    /// Mode-dependent raw cardinality of a base relation.
    pub fn raw_card(&self, rel: u32) -> f64 {
        match self.mode {
            EstimateMode::Total => self.ctx.base_card(rel),
            EstimateMode::Remaining => self.ctx.remaining_card(rel),
            EstimateMode::Consumed => self.ctx.consumed.get(&rel).copied().unwrap_or(0) as f64,
        }
    }

    fn sig_of(&self, set: u32) -> ExprSig {
        let rels: Vec<u32> = (0..self.q.rels.len())
            .filter(|i| set & (1 << i) != 0)
            .map(|i| self.q.rels[i].rel_id)
            .collect();
        ExprSig::new(rels)
    }

    /// Filtered cardinality of one base relation (by index).
    fn leaf_card(&self, idx: usize) -> f64 {
        let rel = &self.q.rels[idx];
        let raw = self.raw_card(rel.rel_id);
        // When the leaf's post-filter output has been observed, use the
        // observed selectivity; else the default estimate.
        let sig = ExprSig::single(rel.rel_id);
        let sel = self.ctx.observed_sel(&sig).unwrap_or(rel.filter_sel);
        raw * sel.clamp(0.0, 1.0)
    }

    /// Default selectivity of a join predicate: the System-R-style
    /// `1 / max(V(A,L), V(A,R))` with the distinct count of the key side
    /// approximated by the smaller relation's cardinality — i.e.
    /// `|L ⋈ R| ≈ max(|L|, |R|)`, exact for key–foreign-key joins.
    /// Non-key predicates (like Q5's nationkey cycle edge) violate the
    /// assumption and blow up at runtime, which is precisely what the
    /// multiplicative-join flags then record (§4.2).
    fn default_pred_sel(&self, left_card: f64, right_card: f64) -> f64 {
        1.0 / left_card.min(right_card).max(1.0)
    }

    /// Estimated cardinality of the join of the relations in `set`.
    pub fn card(&mut self, set: u32) -> f64 {
        if let Some(&c) = self.memo.get(&set) {
            return c;
        }
        let n = set.count_ones();
        let est = if n == 1 {
            self.leaf_card(set.trailing_zeros() as usize)
        } else {
            self.estimate_join_set(set)
        };
        let est = est.max(0.0);
        self.memo.insert(set, est);
        est
    }

    fn estimate_join_set(&mut self, set: u32) -> f64 {
        let sig = self.sig_of(set);
        // Exact observation wins. Observed selectivity is defined over the
        // product of *base* (unfiltered) input cardinalities (§4.2).
        if let Some(sel) = self.ctx.observed_sel(&sig) {
            let mut product = 1.0;
            for i in 0..self.q.rels.len() {
                if set & (1 << i) != 0 {
                    product *= self.raw_card(self.q.rels[i].rel_id);
                }
            }
            return sel * product;
        }

        // (a) System-R independence estimate.
        let mut sys_r = 1.0;
        for i in 0..self.q.rels.len() {
            if set & (1 << i) != 0 {
                sys_r *= self.card(1 << i).max(1e-9);
            }
        }
        let mut applied_preds = 0;
        for p in &self.q.preds {
            let li = self.q.rel_index(p.left_rel).expect("validated");
            let ri = self.q.rel_index(p.right_rel).expect("validated");
            if set & (1 << li) != 0 && set & (1 << ri) != 0 {
                let cl = self.card(1 << li);
                let cr = self.card(1 << ri);
                sys_r *= self.default_pred_sel(cl, cr);
                applied_preds += 1;
            }
        }
        if applied_preds == 0 && set.count_ones() > 1 {
            // Cross product: no predicate reduces it.
        }

        // (b) Key–foreign-key speculation from observed parents: for each
        // leaf r in `set`, if `set \ {r}` has an observation, speculate the
        // join with r preserves that cardinality.
        let mut candidates = vec![sys_r];
        for i in 0..self.q.rels.len() {
            let bit = 1 << i;
            if set & bit != 0 && set.count_ones() > 1 {
                let rest = set & !bit;
                let rest_sig = self.sig_of(rest);
                if self.ctx.observed_sel(&rest_sig).is_some() {
                    candidates.push(self.card(rest));
                }
            }
        }
        let mut est = candidates.iter().sum::<f64>() / candidates.len() as f64;

        // Multiplicative flags: only when we had no direct observation for
        // any pairwise signature of the flagged predicate.
        for p in &self.q.preds {
            let li = self.q.rel_index(p.left_rel).expect("validated");
            let ri = self.q.rel_index(p.right_rel).expect("validated");
            if set & (1 << li) != 0 && set & (1 << ri) != 0 {
                let pair_sig = ExprSig::new(vec![p.left_rel, p.right_rel]);
                if self.ctx.observed_sel(&pair_sig).is_none() {
                    if let Some(f) = self.ctx.multiplicative(p.id) {
                        est *= f.max(1.0);
                    }
                }
            }
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{JoinPred, QueryRel};
    use tukwila_relation::{DataType, Field, Schema};
    use tukwila_stats::selectivity::SourceProgress;

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

    #[test]
    fn default_card_applies_without_stats() {
        let q = chain3();
        let ctx = OptimizerContext::no_statistics();
        let mut est = CardEstimator::new(&q, &ctx, false);
        assert_eq!(est.card(0b001), 20_000.0);
        // Key-FK default: |a ⋈ b| ≈ min side = 20k.
        let ab = est.card(0b011);
        assert!((ab - 20_000.0).abs() < 1.0, "ab={ab}");
    }

    #[test]
    fn given_cards_override_default() {
        let q = chain3();
        let mut cards = HashMap::new();
        cards.insert(1, 100u64);
        cards.insert(2, 10_000);
        cards.insert(3, 500);
        let ctx = OptimizerContext::with_cards(cards);
        let mut est = CardEstimator::new(&q, &ctx, false);
        assert_eq!(est.card(0b001), 100.0);
        let ab = est.card(0b011);
        // Key-FK default: the join preserves the foreign-key (larger) side.
        assert!((ab - 10_000.0).abs() < 1.0, "|a⋈b| ≈ |b| = {ab}");
    }

    #[test]
    fn observed_selectivity_dominates() {
        let q = chain3();
        let catalog = Arc::new(SelectivityCatalog::new());
        // |a⋈b| observed = 5000 over base product 20k*20k.
        catalog.observe_subexpr(ExprSig::new(vec![1, 2]), 5_000, 20_000.0 * 20_000.0);
        let ctx = OptimizerContext {
            catalog: Some(catalog),
            ..OptimizerContext::no_statistics()
        };
        let mut est = CardEstimator::new(&q, &ctx, false);
        let ab = est.card(0b011);
        assert!((ab - 5_000.0).abs() < 1.0, "ab={ab}");
        // Parent speculation: abc averages sysR with observed ab.
        let abc = est.card(0b111);
        assert!(abc > 0.0 && abc < 20_000.0 * 20_000.0);
    }

    #[test]
    fn multiplicative_flag_inflates_unobserved() {
        let q = chain3();
        let catalog = Arc::new(SelectivityCatalog::new());
        catalog.flag_multiplicative(1, 10.0);
        let flagged_ctx = OptimizerContext {
            catalog: Some(catalog),
            ..OptimizerContext::no_statistics()
        };
        let plain_ctx = OptimizerContext::no_statistics();
        let mut flagged = CardEstimator::new(&q, &flagged_ctx, false);
        let mut plain = CardEstimator::new(&q, &plain_ctx, false);
        assert!(flagged.card(0b011) > 5.0 * plain.card(0b011));
    }

    #[test]
    fn remaining_mode_subtracts_consumed() {
        let q = chain3();
        let mut ctx = OptimizerContext::no_statistics();
        ctx.consumed.insert(1, 15_000);
        let mut est = CardEstimator::new(&q, &ctx, true);
        assert_eq!(est.card(0b001), 5_000.0);
        let mut est_total = CardEstimator::new(&q, &ctx, false);
        assert_eq!(est_total.card(0b001), 20_000.0);
    }

    #[test]
    fn extrapolated_source_beats_default() {
        let _q = chain3();
        let catalog = Arc::new(SelectivityCatalog::new());
        catalog.observe_source(
            1,
            SourceProgress {
                tuples_read: 1000,
                fraction_read: Some(0.1),
                eof: false,
            },
        );
        let ctx = OptimizerContext {
            catalog: Some(catalog),
            ..OptimizerContext::no_statistics()
        };
        assert_eq!(ctx.base_card(1), 10_000.0);
        assert_eq!(ctx.base_card(2), 20_000.0);
    }
}
