//! The online source-permutation scheduler.
//!
//! Given N candidate sources for one relation, the scheduler maintains a
//! *permutation* of them — the order in which candidates are polled — and
//! revises it online from the behavior profiles:
//!
//! * The query starts on the first registered candidate only (polling
//!   standbys costs virtual time at the sources and duplicate work after
//!   dedup).
//! * When the best active candidate is silent past its profile-derived
//!   stall threshold, a hedge is *considered*: the shared
//!   [`DeliveryModel`] gate scores **every** parked standby — each priced
//!   with the delivery rate its [`tukwila_source::SourceDescriptor`]
//!   declares (falling back to the configured prior, then the mirror
//!   assumption) — weighing the expected latency win of activating it
//!   (who must re-deliver everything already delivered — sequential
//!   access, no rewind) against the modeled waste (duplicate-tuple dedup
//!   work, observed queue backpressure, one more busy core). The best
//!   payer is woken, so registration order is irrelevant to hedge
//!   quality; only a race that pays is started, and declined races are
//!   counted and reported. With no *healthy* active candidate left the
//!   win is unbounded and the hedge always fires — which preserves
//!   liveness and reproduces the legacy stall-only rule in the
//!   lone-primary case. Under hedging (default) the stalled candidate and
//!   the standby race and the union is deduped; otherwise the stalled
//!   candidate is demoted.
//! * Active candidates are polled in score order (observed rate,
//!   discounted per stall), so once the profiles have evidence, the
//!   permutation re-ranks itself — e.g. a recovered fast mirror moves back
//!   ahead of the slow backup that covered its outage.
//! * Standbys whose declared key range has already been fully delivered
//!   by drained (EOF) candidates are skipped outright: their every tuple
//!   would dedup away.
//!
//! Every decision is a pure function of the supplied timeline instants
//! and observed tuple counts — the scheduler never reads a clock itself.
//! Under the virtual clock that makes runs deterministic and replayable;
//! under the wall clock (queue lanes, see `crate::lane`) the *decisions*
//! follow real arrival timestamps while the logic stays identical, which is the
//! contract the dual-clock equivalence tests pin down.

use tukwila_stats::trace::{CandidateScore, TraceEvent};
use tukwila_stats::{DeliveryModel, RaceContext, RaceDecision};

use crate::catalog::FederationConfig;
use crate::learning::LearnedProfile;
use crate::profile::BehaviorProfile;

/// Scheduler state for one federated relation.
///
/// ```
/// use tukwila_federation::{FederationConfig, PermutationScheduler};
///
/// // Three mirrors; only the first registered candidate starts active.
/// let mut sched = PermutationScheduler::new(3, FederationConfig::default());
/// assert_eq!(sched.polling_order(), vec![0]);
///
/// // Candidate 0 delivers a batch of 10 (all fresh after dedup) at t=0,
/// // then goes silent. Its profile-derived stall deadline tells us when
/// // the silence stops looking normal...
/// sched.note_arrival(0, 0, 10, 10);
/// let deadline = sched.next_deadline_us(0).expect("an active candidate has one");
///
/// // ...and reporting it still pending at that instant runs the hedge
/// // gate over every parked standby and wakes the best payer (with no
/// // declared rates to tell them apart, registration order breaks the
/// // tie).
/// assert_eq!(sched.on_pending(0, deadline), Some(1));
/// assert_eq!(sched.failovers(), 1);
/// assert!(sched.polling_order().contains(&1));
/// ```
#[derive(Debug)]
pub struct PermutationScheduler {
    profiles: Vec<BehaviorProfile>,
    /// Activated candidates, in activation order.
    active: Vec<usize>,
    failovers: u64,
    /// Stalls whose hedge the cost gate declined.
    declined: u64,
    /// Standbys never activated because their declared key range was
    /// already fully delivered by drained candidates.
    skipped_covered: u64,
    /// Declared key-range coverage per candidate (registration order).
    coverage: Vec<Option<(i64, i64)>>,
    /// Declared delivery rates per candidate (registration order), from
    /// [`tukwila_source::SourceDescriptor::declared_rate_tuples_per_sec`].
    /// The hedge gate scores *every* parked standby with these, so the
    /// best payer is woken regardless of registration order.
    declared_rates: Vec<Option<f64>>,
    /// Rates past queries observed per candidate (registration order),
    /// snapshotted from the cross-query learning store at construction.
    /// Hedge pricing falls back `declared → learned → prior`: an
    /// operator's declaration is authoritative, but absent one, what a
    /// previous query measured beats a blanket prior.
    learned_rates: Vec<Option<f64>>,
    /// Whether this run's observations were already merged back into
    /// the learning store (publication is exactly-once).
    published: bool,
    /// Queue-backpressure totals per candidate (queue lanes; stays 0 for
    /// inline lanes, which have no queues).
    blocked_sends: Vec<u64>,
    /// Host core budget for the busy-core waste term (queue lanes).
    cores: Option<usize>,
    /// Trace identity: the federated relation's display name and the
    /// candidates' names (registration order), used to label decision
    /// events. Empty until [`PermutationScheduler::set_identity`].
    relation_name: String,
    candidate_names: Vec<String>,
    config: FederationConfig,
}

impl PermutationScheduler {
    /// A scheduler over `candidates` sources in registration order; the
    /// first candidate starts active, the rest park as standbys.
    pub fn new(candidates: usize, config: FederationConfig) -> PermutationScheduler {
        assert!(candidates > 0, "scheduler needs at least one candidate");
        let mut s = PermutationScheduler {
            profiles: (0..candidates).map(|_| BehaviorProfile::new()).collect(),
            active: Vec::new(),
            failovers: 0,
            declined: 0,
            skipped_covered: 0,
            coverage: vec![None; candidates],
            declared_rates: vec![None; candidates],
            learned_rates: vec![None; candidates],
            published: false,
            blocked_sends: vec![0; candidates],
            cores: None,
            relation_name: String::new(),
            candidate_names: Vec::new(),
            config,
        };
        s.activate_idx(0, 0);
        s
    }

    /// Declare per-candidate key-range coverage (registration order).
    /// Standbys whose range is already fully delivered by drained
    /// candidates are skipped instead of activated.
    pub fn set_coverage(&mut self, coverage: Vec<Option<(i64, i64)>>) {
        assert_eq!(coverage.len(), self.profiles.len());
        self.coverage = coverage;
    }

    /// Declare per-candidate delivery rates (registration order), from
    /// the candidates' [`tukwila_source::SourceDescriptor`]s. The hedge
    /// gate prices each parked standby with its declared rate (falling
    /// back to `prior_rate_tuples_per_sec`, then to the mirror
    /// assumption) and wakes the best payer — which makes registration
    /// order irrelevant to hedge quality.
    pub fn set_declared_rates(&mut self, rates: Vec<Option<f64>>) {
        assert_eq!(rates.len(), self.profiles.len());
        self.declared_rates = rates;
    }

    /// Seed per-candidate cross-query learning (registration order): the
    /// admission-time snapshot of the shared store. Learned rates slot
    /// into hedge pricing between the declared rates and the prior, and
    /// the profiles use the seeds for the warm stall floor (see
    /// [`crate::profile::BehaviorProfile::stall_deadline_us`]). The seed
    /// is immutable for the run — decisions stay a pure function of
    /// (timeline, seed), which is what keeps serving runs dual-clock
    /// reproducible.
    pub fn seed_learned(&mut self, learned: Vec<Option<LearnedProfile>>) {
        assert_eq!(learned.len(), self.profiles.len());
        self.learned_rates = learned
            .iter()
            .map(|l| l.as_ref().and_then(|l| l.rate_tuples_per_sec))
            .collect();
        for (p, l) in self.profiles.iter_mut().zip(learned) {
            p.seed_learned(l);
        }
    }

    /// Merge this run's observations back into the configured learning
    /// store (no-op without one). Only activated candidates publish — a
    /// parked standby taught us nothing. Exactly-once: the adapters call
    /// this at union completion *and* from teardown paths, and only the
    /// first call publishes.
    pub fn publish_learning(&mut self) {
        if self.published {
            return;
        }
        self.published = true;
        let Some(store) = self.config.learning.clone() else {
            return;
        };
        for (idx, p) in self.profiles.iter().enumerate() {
            if p.is_active() {
                store.publish(&self.candidate_label(idx), p);
            }
        }
    }

    /// Name the relation and its candidates (registration order) for the
    /// trace journal; decision events are labeled with these instead of
    /// bare indices. Optional — unnamed schedulers fall back to
    /// `cand-<idx>` labels.
    pub fn set_identity(&mut self, relation: impl Into<String>, candidates: Vec<String>) {
        self.relation_name = relation.into();
        self.candidate_names = candidates;
    }

    /// The trace label for candidate `idx`.
    fn candidate_label(&self, idx: usize) -> String {
        self.candidate_names
            .get(idx)
            .cloned()
            .unwrap_or_else(|| format!("cand-{idx}"))
    }

    /// Polling resumed at `now_us` after a consumer-side quiesce window
    /// (a corrective plan switch parked the polling thread). Every active
    /// candidate's stall window restarts at the resume instant: the
    /// silence during the pause was the consumer's doing, so reading it
    /// as a stall would hedge onto standbys nobody needs.
    pub fn note_resume(&mut self, now_us: u64) {
        for p in &mut self.profiles {
            p.note_resume(now_us);
        }
    }

    /// Declare the host core budget (queue lanes), enabling the hedge
    /// gate's busy-core waste term. Inline lanes leave it unset.
    pub fn set_core_budget(&mut self, cores: usize) {
        self.cores = Some(cores.max(1));
    }

    /// Record the latest queue-backpressure total for a candidate's
    /// producer (queue lanes feed real `blocked_sends` here).
    pub fn note_backpressure(&mut self, idx: usize, blocked_sends_total: u64) {
        self.blocked_sends[idx] = blocked_sends_total;
    }

    /// Per-candidate behavior profiles, in registration order.
    pub fn profiles(&self) -> &[BehaviorProfile] {
        &self.profiles
    }

    /// Mutable access to one candidate's profile.
    pub fn profile_mut(&mut self, idx: usize) -> &mut BehaviorProfile {
        &mut self.profiles[idx]
    }

    /// The configuration the scheduler was built with.
    pub fn config(&self) -> &FederationConfig {
        &self.config
    }

    /// Total candidate activations beyond the first (failovers/hedges).
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Stalls whose hedge the cost gate declined (races an unconditional
    /// stall-only rule would have started).
    pub fn declined_hedges(&self) -> u64 {
        self.declined
    }

    /// Standbys skipped because their declared key range was already
    /// fully delivered by drained candidates.
    pub fn skipped_covered(&self) -> u64 {
        self.skipped_covered
    }

    /// Replace the hedge gate's unit prices with engine-recalibrated ones
    /// (the corrective warmup measured this host's actual cost-unit→µs
    /// conversion and re-derived the delivery prices from it). Future
    /// gate evaluations use the new prices; decisions already made stand.
    pub fn set_hedge_costs(&mut self, costs: tukwila_stats::DeliveryCosts) {
        self.config.hedge_costs = costs;
    }

    /// The current permutation prefix: active, non-EOF candidates in the
    /// order they should be polled — best score first, candidate index as
    /// the deterministic tiebreak.
    pub fn polling_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = self
            .active
            .iter()
            .copied()
            .filter(|&i| !self.profiles[i].eof)
            .collect();
        order.sort_by(|&a, &b| {
            let (pa, pb) = (&self.profiles[a], &self.profiles[b]);
            pb.score(&self.config)
                .partial_cmp(&pa.score(&self.config))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    fn is_past_deadline(&self, idx: usize, now_us: u64) -> bool {
        matches!(self.profiles[idx].stall_deadline_us(&self.config), Some(d) if now_us >= d)
    }

    /// Record an arrival of `tuples` raw tuples (`fresh` after dedup).
    pub fn note_arrival(&mut self, idx: usize, now_us: u64, tuples: u64, fresh: u64) {
        self.profiles[idx].observe_batch(now_us, tuples, fresh);
    }

    /// Record that candidate `idx` reached end of stream.
    pub fn note_eof(&mut self, idx: usize) {
        self.profiles[idx].eof = true;
        // The healthy set just shrank, so every previously *declined*
        // stall decision may now be wrong — e.g. the stalled primary was
        // left waiting because this candidate looked credible. Unlatch
        // currently-stalled candidates so their next `on_pending`
        // re-latches the stall and re-runs the gate against the new
        // topology (without this, a dead primary plus a drained partial
        // replica would wait forever instead of waking the standby that
        // holds the complement).
        for p in &mut self.profiles {
            if !p.eof && p.currently_stalled() {
                p.unlatch_stall();
            }
        }
    }

    /// Latch a stall check for `idx` at `now_us`; on a fresh stall, run
    /// the hedge gate over *every* parked standby and — when at least one
    /// race is worth it — activate the best payer and report it. Declined
    /// races are counted in [`PermutationScheduler::declined_hedges`].
    pub fn on_pending(&mut self, idx: usize, now_us: u64) -> Option<usize> {
        if self.profiles[idx].check_stall(now_us, &self.config) {
            let standbys = self.activatable_standbys();
            if standbys.is_empty() {
                // Nothing to activate: neither a race nor a decline.
                return None;
            }
            let costs = self.config.hedge_costs.clone();
            let (scores, best) = self.score_standbys(costs, &standbys, now_us);
            match best {
                Some((best_idx, decision)) => {
                    let woken = self.activate_idx(best_idx, now_us);
                    self.trace_hedge(
                        now_us,
                        idx,
                        scores,
                        woken,
                        decision.win_us,
                        decision.waste_us,
                    );
                    return woken;
                }
                None => {
                    self.declined += 1;
                    self.trace_hedge(now_us, idx, scores, None, 0.0, 0.0);
                }
            }
        }
        None
    }

    /// Journal one hedge-gate evaluation: the stalled candidate, every
    /// standby's [`RaceDecision`]-derived score, and the outcome. Stamped
    /// with the caller-supplied `now_us` so the scheduler still never
    /// reads a clock itself.
    fn trace_hedge(
        &self,
        now_us: u64,
        stalled_idx: usize,
        scores: Vec<CandidateScore>,
        chosen_idx: Option<usize>,
        win_us: f64,
        waste_us: f64,
    ) {
        if !self.config.trace.is_enabled() {
            return;
        }
        self.config.trace.record_at(
            now_us,
            TraceEvent::HedgeDecision {
                relation: self.relation_name.clone(),
                stalled: self.candidate_label(stalled_idx),
                scores,
                chosen: chosen_idx.map(|i| self.candidate_label(i)),
                win_us,
                waste_us,
                fired: chosen_idx.is_some(),
            },
        );
    }

    /// Never-activated candidates that could actually be woken, in
    /// registration order. Standbys whose declared key range drained
    /// candidates already delivered are retired here (every tuple they
    /// hold would dedup away) and counted in
    /// [`PermutationScheduler::skipped_covered`].
    fn activatable_standbys(&mut self) -> Vec<usize> {
        for i in 0..self.profiles.len() {
            if !self.profiles[i].is_active()
                && !self.profiles[i].eof
                && self.range_already_delivered(i)
            {
                self.profiles[i].eof = true;
                self.skipped_covered += 1;
            }
        }
        (0..self.profiles.len())
            .filter(|&i| !self.profiles[i].is_active() && !self.profiles[i].eof)
            .collect()
    }

    /// The cost gate, run per parked standby: weigh the expected latency
    /// win of activating it (priced with its *declared* rate, falling
    /// back to the configured prior and then the mirror assumption)
    /// against the modeled waste, via the shared [`DeliveryModel`]; pick
    /// the standby with the best expected net win among those that pay.
    /// All inputs are the scheduler's own online observations plus
    /// registration-time declarations, so the decision is a pure function
    /// of the timeline — deterministic under the virtual clock, identical
    /// logic under the wall clock with real arrival rates and real
    /// `blocked_sends` — and independent of registration order whenever
    /// the declared rates distinguish the standbys.
    ///
    /// Returns every candidate's score (provenance for the trace
    /// journal; empty when tracing is disabled, so the gate stays
    /// allocation-free on the hot path) plus the winning `(index,
    /// RaceDecision)` when at least one race pays.
    fn score_standbys(
        &self,
        costs: tukwila_stats::DeliveryCosts,
        standbys: &[usize],
        now_us: u64,
    ) -> (Vec<CandidateScore>, Option<(usize, RaceDecision)>) {
        let model = DeliveryModel::with_costs(costs);
        // Union tuples delivered so far, and the "assume at least 25%
        // more is coming" remaining-data heuristic shared with the
        // catalog's cardinality extrapolation.
        let delivered: u64 = self
            .profiles
            .iter()
            .map(|p| p.delivered - p.duplicates)
            .sum();
        let remaining = (delivered as f64 * 0.25).max(1.0);
        // The best healthy active candidate: delivering within its own
        // profile, with a credible arrival forecast.
        let healthy = self
            .active
            .iter()
            .filter(|&&i| !self.profiles[i].eof && !self.profiles[i].currently_stalled())
            .filter(|&&i| !self.is_past_deadline(i, now_us))
            .filter_map(|&i| self.profiles[i].arrival_schedule())
            .map(|s| (s.arrival_us(remaining), s.steady_rate_tuples_per_sec()))
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let racing = self
            .active
            .iter()
            .filter(|&&i| !self.profiles[i].eof)
            .count();
        let prior = Some(self.config.prior_rate_tuples_per_sec).filter(|r| *r > 0.0);
        let tracing = self.config.trace.is_enabled();
        let mut scores: Vec<CandidateScore> = Vec::new();
        let mut best: Option<(f64, f64, usize, RaceDecision)> = None;
        for &idx in standbys {
            let declared = self.declared_rates[idx].filter(|r| *r > 0.0);
            let learned = self.learned_rates[idx].filter(|r| *r > 0.0);
            let rate_key = declared.or(learned).or(prior).unwrap_or(0.0);
            let decision = model.race(&RaceContext {
                healthy,
                delivered: delivered as f64,
                remaining,
                standby_rate_tps: declared.or(learned).or(prior),
                blocked_sends: self.blocked_sends.iter().sum(),
                racing,
                cores: self.cores,
            });
            if tracing {
                scores.push(CandidateScore {
                    candidate: self.candidate_label(idx),
                    rate_tps: rate_key,
                    win_us: decision.win_us,
                    waste_us: decision.waste_us,
                    pays: decision.hedge,
                });
            }
            if !decision.hedge {
                continue;
            }
            // Rank by expected net win; break ∞−∞ ties (no healthy
            // candidate: every win is unbounded) on declared rate, then
            // registration order — deterministic either way.
            let net = decision.win_us - decision.waste_us;
            let better = match &best {
                None => true,
                Some((bnet, brate, bidx, _)) => {
                    let primary = net.partial_cmp(bnet).unwrap_or(std::cmp::Ordering::Equal);
                    primary == std::cmp::Ordering::Greater
                        || (primary == std::cmp::Ordering::Equal
                            && (rate_key > *brate || (rate_key == *brate && idx < *bidx)))
                }
            };
            if better {
                best = Some((net, rate_key, idx, decision));
            }
        }
        (scores, best.map(|(_, _, idx, decision)| (idx, decision)))
    }

    /// Activate a standby without a stall trigger — used when every
    /// active candidate has reached EOF but standby replicas may still
    /// hold uncovered tuples. No gate here (the data must be drained
    /// regardless); the fastest-declared standby goes first so the tail
    /// of the union arrives as early as the declarations allow.
    pub fn activate_standby(&mut self, now_us: u64) -> Option<usize> {
        let standbys = self.activatable_standbys();
        let best = standbys.into_iter().max_by(|&a, &b| {
            // Same `declared → learned` precedence as hedge pricing (the
            // prior is a constant here, so it cannot reorder anything).
            let (ra, rb) = (
                self.declared_rates[a]
                    .or(self.learned_rates[a])
                    .unwrap_or(0.0),
                self.declared_rates[b]
                    .or(self.learned_rates[b])
                    .unwrap_or(0.0),
            );
            ra.partial_cmp(&rb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a)) // tie: lower registration index wins
        })?;
        let woken = self.activate_idx(best, now_us);
        if self.config.trace.is_enabled() {
            self.config.trace.record_at(
                now_us,
                TraceEvent::Activation {
                    relation: self.relation_name.clone(),
                    candidate: self.candidate_label(best),
                    sweep: true,
                },
            );
        }
        woken
    }

    fn activate_idx(&mut self, idx: usize, now_us: u64) -> Option<usize> {
        debug_assert!(!self.profiles[idx].is_active() && !self.profiles[idx].eof);
        self.profiles[idx].activate(now_us);
        self.active.push(idx);
        if self.active.len() > 1 {
            self.failovers += 1;
        }
        Some(idx)
    }

    /// Whether candidate `idx`'s declared key range is fully covered by
    /// the union of declared ranges of candidates that already reached
    /// EOF (their coverage is certainly delivered). Undeclared ranges are
    /// never considered covered.
    fn range_already_delivered(&self, idx: usize) -> bool {
        let Some((lo, hi)) = self.coverage[idx] else {
            return false;
        };
        let mut drained: Vec<(i64, i64)> = self
            .profiles
            .iter()
            .enumerate()
            .filter(|(i, p)| *i != idx && p.eof && p.is_active())
            .filter_map(|(i, _)| self.coverage[i])
            .collect();
        drained.sort_unstable();
        let mut frontier = lo;
        for (dlo, dhi) in drained {
            if dlo > frontier {
                return false;
            }
            frontier = frontier.max(dhi.saturating_add(1));
            if frontier > hi {
                return true;
            }
        }
        frontier > hi
    }

    /// Earliest virtual instant at which a scheduling decision could
    /// change: the nearest stall deadline of an active, non-EOF candidate.
    pub fn next_deadline_us(&self, now_us: u64) -> Option<u64> {
        self.active
            .iter()
            .filter(|&&i| !self.profiles[i].eof)
            .filter_map(|&i| self.profiles[i].stall_deadline_us(&self.config))
            .filter(|&d| d > now_us)
            .min()
    }

    /// True when every candidate has reached EOF.
    pub fn all_eof(&self) -> bool {
        self.profiles.iter().all(|p| p.eof)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched(n: usize) -> PermutationScheduler {
        PermutationScheduler::new(n, FederationConfig::default())
    }

    #[test]
    fn starts_on_first_candidate_only() {
        let s = sched(3);
        assert_eq!(s.polling_order(), vec![0]);
        assert_eq!(s.failovers(), 0);
    }

    #[test]
    fn stall_activates_next_in_registration_order() {
        let mut s = sched(3);
        s.note_arrival(0, 0, 10, 10);
        let deadline = s.profiles()[0]
            .stall_deadline_us(&FederationConfig::default())
            .unwrap();
        assert_eq!(s.on_pending(0, deadline - 1), None);
        assert_eq!(s.on_pending(0, deadline), Some(1));
        assert_eq!(s.failovers(), 1);
        // Latched: the same silence does not cascade through all standbys.
        assert_eq!(s.on_pending(0, deadline + 1), None);
        let order = s.polling_order();
        assert!(order.contains(&0) && order.contains(&1));
    }

    /// The liveness edge the cost gate must not introduce: a declined
    /// hedge is reconsidered when the healthy candidate that justified
    /// the decline reaches EOF — otherwise a dead primary next to a
    /// drained partial replica would wait forever instead of waking the
    /// remaining standby.
    #[test]
    fn declined_hedge_is_reconsidered_when_healthy_candidate_eofs() {
        let mut s = sched(3);
        // Activate candidate 1 via candidate 0's first stall (no healthy
        // candidate at that instant, so the gate always races).
        s.note_arrival(0, 0, 100, 100);
        let d0 = s.profiles()[0]
            .stall_deadline_us(&FederationConfig::default())
            .unwrap();
        assert_eq!(s.on_pending(0, d0), Some(1));
        // Candidate 1 races healthily; candidate 0 recovers briefly, then
        // dies. Its next stall is declined: 1 is healthy and a fresh
        // standby would have to re-deliver everything.
        let t = d0 + 50_000;
        for i in 1..=50u64 {
            s.note_arrival(1, d0 + i * 1_000, 100, 100);
        }
        s.note_arrival(0, t, 10, 10);
        let d1 = s.profiles()[0]
            .stall_deadline_us(&FederationConfig::default())
            .unwrap();
        // Keep candidate 1 delivering right up to candidate 0's stall
        // deadline, so it is genuinely healthy at the decision instant.
        let mut tt = t;
        while tt + 1_000 < d1 {
            tt += 1_000;
            s.note_arrival(1, tt, 100, 100);
        }
        assert_eq!(s.on_pending(0, d1), None, "gate declines while 1 races");
        assert_eq!(s.declined_hedges(), 1);
        assert_eq!(s.on_pending(0, d1 + 1), None, "stall latched");
        // Candidate 1 drains (e.g. a partial replica): the decline is no
        // longer justified, and the very next pending report must re-run
        // the gate and wake candidate 2.
        s.note_eof(1);
        assert_eq!(
            s.on_pending(0, d1 + 2),
            Some(2),
            "EOF of the healthy candidate must unlatch and re-gate"
        );
    }

    /// Declines are only counted when a standby actually existed for the
    /// legacy rule to race — EOF standbys do not inflate the counter.
    #[test]
    fn declines_not_counted_without_an_activatable_standby() {
        let mut s = sched(2);
        s.note_arrival(0, 0, 100, 100);
        s.profile_mut(1).eof = true; // the only standby is gone
        let d = s.profiles()[0]
            .stall_deadline_us(&FederationConfig::default())
            .unwrap();
        assert_eq!(s.on_pending(0, d), None);
        assert_eq!(s.declined_hedges(), 0, "nothing to decline");
    }

    #[test]
    fn gate_wakes_best_declared_payer_not_next_registered() {
        let deadline = |s: &PermutationScheduler| {
            s.profiles()[0]
                .stall_deadline_us(&FederationConfig::default())
                .unwrap()
        };
        // Standby 2 declares a much faster rate than standby 1: the gate
        // must skip over 1 and wake 2.
        let mut s = sched(3);
        s.set_declared_rates(vec![None, Some(10.0), Some(100_000.0)]);
        s.note_arrival(0, 0, 10, 10);
        let d = deadline(&s);
        assert_eq!(s.on_pending(0, d), Some(2), "best payer, not next in line");
        // Permuted registration, same declarations: the same (fast)
        // standby is chosen, so registration order is irrelevant.
        let mut s = sched(3);
        s.set_declared_rates(vec![None, Some(100_000.0), Some(10.0)]);
        s.note_arrival(0, 0, 10, 10);
        let d = deadline(&s);
        assert_eq!(s.on_pending(0, d), Some(1), "permutation-invariant wake");
        // Undeclared rates everywhere: ties break on registration order,
        // preserving the historical behavior.
        let mut s = sched(3);
        s.note_arrival(0, 0, 10, 10);
        let d = deadline(&s);
        assert_eq!(s.on_pending(0, d), Some(1));
    }

    #[test]
    fn end_of_stream_sweep_prefers_fast_declared_standby() {
        let mut s = sched(3);
        s.set_declared_rates(vec![None, Some(5.0), Some(500.0)]);
        s.note_eof(0);
        assert_eq!(s.activate_standby(0), Some(2), "drain fastest first");
        assert_eq!(s.activate_standby(0), Some(1));
        assert_eq!(s.activate_standby(0), None);
    }

    #[test]
    fn resume_after_quiesce_forgives_the_pause() {
        let mut s = sched(2);
        s.note_arrival(0, 0, 10, 10);
        let d = s.profiles()[0]
            .stall_deadline_us(&FederationConfig::default())
            .unwrap();
        // A quiesce window spans the stall deadline; the resume restarts
        // the window instead of hedging on consumer-made silence.
        s.note_resume(d + 100_000);
        assert_eq!(
            s.on_pending(0, d + 100_001),
            None,
            "no stall right after resume"
        );
        assert_eq!(s.failovers(), 0);
        let d2 = s.profiles()[0]
            .stall_deadline_us(&FederationConfig::default())
            .unwrap();
        assert!(d2 > d + 100_000);
        assert_eq!(s.on_pending(0, d2), Some(1), "real silence still hedges");
    }

    #[test]
    fn reranks_by_observed_rate() {
        let mut s = sched(2);
        s.on_pending(0, u64::MAX); // force-activate candidate 1
                                   // Candidate 1 delivers fast, candidate 0 slow.
        for i in 1..=20u64 {
            s.note_arrival(0, i * 10_000, 10, 10);
            s.note_arrival(1, i * 1_000, 10, 10);
        }
        assert_eq!(s.polling_order(), vec![1, 0], "fast mirror polled first");
    }

    #[test]
    fn eof_candidates_leave_the_permutation() {
        let mut s = sched(2);
        s.on_pending(0, u64::MAX);
        s.note_eof(0);
        assert_eq!(s.polling_order(), vec![1]);
        assert!(!s.all_eof());
        s.note_eof(1);
        assert!(s.all_eof());
        assert!(s.polling_order().is_empty());
    }

    #[test]
    fn next_deadline_tracks_active_candidates() {
        let mut s = sched(2);
        s.note_arrival(0, 1_000, 10, 10);
        let d = s.next_deadline_us(1_000).unwrap();
        assert!(d > 1_000);
        assert_eq!(
            s.next_deadline_us(u64::MAX),
            None,
            "no future deadline at end of time"
        );
    }
}
