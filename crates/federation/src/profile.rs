//! Per-candidate behavior profiles learned online.
//!
//! Each candidate source of a federated relation carries a
//! [`BehaviorProfile`]: the delivery-rate/burstiness estimator from
//! `tukwila-stats` plus federation-level counters (stalls, duplicates,
//! activation time). The scheduler ranks candidates by
//! [`BehaviorProfile::score`] and derives per-candidate stall thresholds
//! from the observed gap distribution, so a source that is *normally*
//! bursty is not declared dead by its ordinary silences while a smooth
//! source is failed over quickly.

use tukwila_stats::{ArrivalSchedule, RateEstimator};

use crate::catalog::FederationConfig;
use crate::learning::LearnedProfile;

/// Online profile of one candidate source. All timestamps are timeline
/// µs from whichever [`tukwila_stats::Clock`] drives the run — the
/// profile itself is clock-agnostic, which is what lets the same
/// scheduling logic serve the deterministic virtual mode and the
/// threaded wall mode.
#[derive(Debug, Clone)]
pub struct BehaviorProfile {
    /// Arrival-rate / gap-variance estimator (see `tukwila_stats::rate`).
    pub rate: RateEstimator,
    /// Times this candidate was declared stalled.
    pub stalls: u64,
    /// Raw tuples pulled from this candidate (before dedup).
    pub delivered: u64,
    /// Tuples dropped because another replica already delivered the key.
    pub duplicates: u64,
    /// Candidate reached end of stream.
    pub eof: bool,
    /// Timeline instant this candidate was activated (started being
    /// polled); `None` while it is still a standby.
    activated_at_us: Option<u64>,
    /// Timeline instant polling last *resumed* after a consumer-side
    /// quiesce (a corrective plan switch parked the polling thread).
    /// Counts as a sign of life for stall detection: the silence accrued
    /// while nobody was polling was the consumer's doing, not the
    /// source's, so the stall window restarts at the resume instant.
    resumed_at_us: Option<u64>,
    /// Whether the current silence has already been counted as a stall
    /// (reset on every arrival, so one silence = one stall).
    stall_flagged: bool,
    /// What past queries learned about this candidate (serving mode),
    /// snapshotted at adapter construction. Immutable for the run: the
    /// profile's own observations always take precedence, the seed only
    /// fills the cold-start gaps (see
    /// [`BehaviorProfile::stall_deadline_us`]).
    learned: Option<LearnedProfile>,
}

impl BehaviorProfile {
    /// A fresh profile for a not-yet-activated candidate.
    pub fn new() -> BehaviorProfile {
        BehaviorProfile {
            rate: RateEstimator::default(),
            stalls: 0,
            delivered: 0,
            duplicates: 0,
            eof: false,
            activated_at_us: None,
            resumed_at_us: None,
            stall_flagged: false,
            learned: None,
        }
    }

    /// Seed this profile with what past queries learned about its
    /// candidate (cross-query serving). Call before the run starts; the
    /// seed never changes mid-run, so every decision derived from it is
    /// still a pure function of the timeline.
    pub fn seed_learned(&mut self, learned: Option<LearnedProfile>) {
        self.learned = learned;
    }

    /// The cross-query seed, if any.
    pub fn learned(&self) -> Option<&LearnedProfile> {
        self.learned.as_ref()
    }

    /// Mark the candidate activated at `now_us` (idempotent).
    pub fn activate(&mut self, now_us: u64) {
        if self.activated_at_us.is_none() {
            self.activated_at_us = Some(now_us);
        }
    }

    /// Whether the candidate has ever been activated.
    pub fn is_active(&self) -> bool {
        self.activated_at_us.is_some()
    }

    /// Record an arrival of `tuples` raw tuples, `fresh` of which survived
    /// dedup.
    pub fn observe_batch(&mut self, now_us: u64, tuples: u64, fresh: u64) {
        self.rate.observe_arrival(now_us, tuples);
        self.delivered += tuples;
        self.duplicates += tuples - fresh;
        self.stall_flagged = false;
    }

    /// Record that polling resumed at `now_us` after a consumer-side
    /// quiesce window. Restarts the stall window (see
    /// [`BehaviorProfile::last_activity_us`]) without touching the rate
    /// estimator — the source's observed delivery behavior is unchanged,
    /// only the silence bookkeeping is forgiven.
    pub fn note_resume(&mut self, now_us: u64) {
        if self.is_active() && !self.eof {
            self.resumed_at_us = Some(self.resumed_at_us.map_or(now_us, |r| r.max(now_us)));
        }
    }

    /// Most recent sign of life: last arrival, resume-from-quiesce, or
    /// activation time before anything has arrived.
    pub fn last_activity_us(&self) -> Option<u64> {
        [
            self.rate.last_arrival_us(),
            self.activated_at_us,
            self.resumed_at_us,
        ]
        .into_iter()
        .flatten()
        .max()
    }

    /// Timeline instant after which the current silence counts as a
    /// stall.
    ///
    /// The floor is normally [`FederationConfig::min_stall_us`]. In
    /// serving mode a tighter [`FederationConfig::warm_stall_us`] floor
    /// applies when the learning seed knows the candidate as dead
    /// (stalled in past queries, never delivered) *and* this run has no
    /// gap evidence of its own yet — the cross-query cure for the
    /// cold-start stall wait. Own evidence always wins: once the
    /// candidate delivers, its observed gap distribution sets the
    /// threshold exactly as in single-query mode, and learned *healthy*
    /// candidates keep the conservative floor throughout (tight patience
    /// on a live mirror would let real-time jitter read as a stall and
    /// split the dual-clock decision sequences).
    pub fn stall_deadline_us(&self, config: &FederationConfig) -> Option<u64> {
        let last = self.last_activity_us()?;
        let floor = match (config.warm_stall_us, &self.learned) {
            (Some(warm), Some(l)) if l.known_dead() && self.rate.ewma_gap_us().is_none() => warm,
            _ => config.min_stall_us,
        };
        // Saturating: a candidate activated at the end of the timeline
        // (`u64::MAX`) has no later deadline.
        Some(last.saturating_add(self.rate.stall_threshold_us(config.stall_sigma, floor)))
    }

    /// Whether the current silence has been latched as a stall (cleared
    /// on the next arrival). A candidate in this state has violated its
    /// own profile, so the hedge gate stops treating its schedule as a
    /// credible forecast.
    pub fn currently_stalled(&self) -> bool {
        self.stall_flagged
    }

    /// Clear the stall latch without an arrival, so the next stall check
    /// re-latches (and re-counts) the ongoing silence. The scheduler uses
    /// this when the candidate topology changes (a sibling reached EOF)
    /// and previously declined hedge decisions must be reconsidered.
    pub fn unlatch_stall(&mut self) {
        self.stall_flagged = false;
    }

    /// The burst-aware arrival forecast this candidate's observations
    /// justify, for the shared `DeliveryModel`. `None` until a rate
    /// window exists.
    pub fn arrival_schedule(&self) -> Option<ArrivalSchedule> {
        ArrivalSchedule::from_estimator(&self.rate)
    }

    /// Check (and latch) whether this candidate is stalled at `now_us`.
    /// Returns true at most once per silence period.
    pub fn check_stall(&mut self, now_us: u64, config: &FederationConfig) -> bool {
        self.latch_stall(now_us, self.stall_deadline_us(config))
    }

    /// [`BehaviorProfile::check_stall`] against `deadline`, this
    /// profile's [`BehaviorProfile::stall_deadline_us`] as the scheduler
    /// keeps it cached.
    pub(crate) fn latch_stall(&mut self, now_us: u64, deadline: Option<u64>) -> bool {
        if self.eof || self.stall_flagged {
            return false;
        }
        match deadline {
            Some(deadline) if now_us >= deadline => {
                self.stalls += 1;
                self.stall_flagged = true;
                true
            }
            _ => false,
        }
    }

    /// Ranking score: observed delivery rate, discounted per stall.
    /// Candidates with no rate window yet score at the configured prior,
    /// so a freshly activated backup does not outrank a producing mirror
    /// on zero evidence. Higher is better; ties break on candidate index
    /// (registration order), which keeps the permutation deterministic.
    pub fn score(&self, config: &FederationConfig) -> f64 {
        let rate = self
            .rate
            .rate_tuples_per_sec()
            .unwrap_or(config.prior_rate_tuples_per_sec);
        rate / (1.0 + self.stalls as f64)
    }
}

impl Default for BehaviorProfile {
    fn default() -> Self {
        BehaviorProfile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learning::LearnedProfile;

    fn cfg() -> FederationConfig {
        FederationConfig::default()
    }

    #[test]
    fn stall_latches_once_per_silence() {
        let mut p = BehaviorProfile::new();
        p.activate(0);
        p.observe_batch(100, 10, 10);
        p.observe_batch(200, 10, 10);
        let deadline = p.stall_deadline_us(&cfg()).unwrap();
        assert!(!p.check_stall(deadline - 1, &cfg()));
        assert!(p.check_stall(deadline, &cfg()));
        assert!(!p.check_stall(deadline + 1000, &cfg()), "latched");
        p.observe_batch(deadline + 2000, 10, 10);
        assert_eq!(p.stalls, 1);
        let later = p.stall_deadline_us(&cfg()).unwrap();
        assert!(p.check_stall(later + 1, &cfg()), "new silence, new stall");
        assert_eq!(p.stalls, 2);
    }

    #[test]
    fn standby_has_no_deadline_until_activated() {
        let mut p = BehaviorProfile::new();
        assert_eq!(p.stall_deadline_us(&cfg()), None);
        assert!(!p.check_stall(u64::MAX, &cfg()));
        p.activate(500);
        let d = p.stall_deadline_us(&cfg()).unwrap();
        assert_eq!(
            d,
            500 + cfg().min_stall_us,
            "floor threshold before evidence"
        );
    }

    #[test]
    fn score_prefers_fast_then_penalizes_stalls() {
        let c = cfg();
        let mut fast = BehaviorProfile::new();
        let mut slow = BehaviorProfile::new();
        fast.activate(0);
        slow.activate(0);
        for i in 1..=10u64 {
            fast.observe_batch(i * 1_000, 100, 100); // 100k tuples/s
            slow.observe_batch(i * 10_000, 100, 100); // 10k tuples/s
        }
        assert!(fast.score(&c) > slow.score(&c));
        fast.stalls = 20;
        assert!(fast.score(&c) < slow.score(&c), "stalls discount the rate");
    }

    #[test]
    fn resume_restarts_the_stall_window() {
        let mut p = BehaviorProfile::new();
        p.activate(0);
        p.observe_batch(100, 10, 10);
        p.observe_batch(200, 10, 10);
        let deadline = p.stall_deadline_us(&cfg()).unwrap();
        // A long consumer-side quiesce ends well past the deadline; the
        // resume forgives the silence instead of latching a stall.
        let resume_at = deadline + 500_000;
        p.note_resume(resume_at);
        assert!(!p.check_stall(resume_at, &cfg()), "quiesce is not a stall");
        let new_deadline = p.stall_deadline_us(&cfg()).unwrap();
        assert!(new_deadline > deadline, "stall window restarts at resume");
        assert!(
            p.check_stall(new_deadline, &cfg()),
            "real silence still counts"
        );
        // Standbys and EOF candidates ignore resumes.
        let mut standby = BehaviorProfile::new();
        standby.note_resume(1_000);
        assert_eq!(standby.stall_deadline_us(&cfg()), None);
    }

    #[test]
    fn warm_floor_applies_only_to_known_dead_without_own_evidence() {
        let warm_cfg = FederationConfig {
            warm_stall_us: Some(1_000),
            ..FederationConfig::default()
        };
        let dead_seed = Some(LearnedProfile {
            rate_tuples_per_sec: None,
            stalls: 2,
            delivered: 0,
            queries: 2,
        });
        // Known-dead, no own evidence: the warm floor replaces the cold
        // min_stall_us.
        let mut p = BehaviorProfile::new();
        p.seed_learned(dead_seed.clone());
        p.activate(0);
        assert_eq!(p.stall_deadline_us(&warm_cfg), Some(1_000));
        // Without warm_stall_us configured the seed changes nothing.
        assert_eq!(
            p.stall_deadline_us(&FederationConfig::default()),
            Some(FederationConfig::default().min_stall_us)
        );
        // A learned *healthy* candidate keeps the conservative floor.
        let mut healthy = BehaviorProfile::new();
        healthy.seed_learned(Some(LearnedProfile {
            rate_tuples_per_sec: Some(50_000.0),
            stalls: 0,
            delivered: 1_000,
            queries: 1,
        }));
        healthy.activate(0);
        assert_eq!(
            healthy.stall_deadline_us(&warm_cfg),
            Some(warm_cfg.min_stall_us)
        );
        // Own gap evidence overrides the seed entirely.
        let mut recovered = BehaviorProfile::new();
        recovered.seed_learned(dead_seed);
        recovered.activate(0);
        recovered.observe_batch(100, 10, 10);
        recovered.observe_batch(200, 10, 10);
        let own = recovered.stall_deadline_us(&warm_cfg).unwrap();
        assert!(
            own >= 200 + warm_cfg.min_stall_us.min(own),
            "own evidence sets the threshold"
        );
        assert_eq!(
            own,
            200 + recovered
                .rate
                .stall_threshold_us(warm_cfg.stall_sigma, warm_cfg.min_stall_us),
            "with gap evidence the cold floor is back"
        );
    }

    #[test]
    fn duplicates_tracked_separately_from_delivery() {
        let mut p = BehaviorProfile::new();
        p.activate(0);
        p.observe_batch(10, 8, 3);
        assert_eq!(p.delivered, 8);
        assert_eq!(p.duplicates, 5);
    }
}
