//! Arrival schedules and the shared delivery cost model.
//!
//! Before this module existed, three layers each priced source delivery
//! with their own ad-hoc rule: the optimizer added a uniform
//! `remaining / rate` term to scan costs, the federation scheduler hedged
//! on silence alone, and the fragmentation pass compared a delivery bound
//! against a bare CPU threshold. The paper's premise — one stream of
//! runtime observations drives *every* adaptive decision — wants a single
//! model instead, and this module is it:
//!
//! * [`ArrivalSchedule`] — when tuples of one relation arrive: piecewise
//!   constant-rate segments built from [`RateEstimator`] history (a
//!   burst-allowance lead-in from the observed gap variance, then the
//!   observed steady rate), with a single uniform segment as the
//!   degenerate case. The uniform case reproduces the legacy
//!   `card / rate · 1e6` bound *bit-for-bit* (pinned by a property test),
//!   so plans costed from uniform schedules are unchanged from the
//!   pre-model system.
//! * [`DeliveryModel`] — the three questions every consumer used to
//!   approximate separately:
//!   1. **when does the k-th tuple arrive** ([`DeliveryModel::arrival_us`]),
//!   2. **what does overlapping this delivery with that much CPU buy**
//!      ([`DeliveryModel::overlap_residual_us`] /
//!      [`DeliveryModel::overlap_win_us`]),
//!   3. **what does racing a second copy cost**
//!      ([`DeliveryModel::race`]: duplicate-tuple dedup work, queue
//!      backpressure, and one more busy core, weighed against the
//!      expected latency win).
//!
//! Consumers: the optimizer's scan/join costing (overlap-aware delivery
//! terms, so join order can hide slow deliveries under CPU-heavy
//! subtrees), the federation scheduler's cost-gated hedging, and the
//! fragmentation pass's cut pricing.

use std::collections::HashMap;

use crate::rate::RateEstimator;

/// One piecewise segment of an [`ArrivalSchedule`]: from `start_us`
/// (timeline µs from "now") the source delivers at
/// `rate_tuples_per_sec`; the final segment extends forever.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateSegment {
    /// Offset from now (µs) at which this segment begins.
    pub start_us: f64,
    /// Delivery rate inside the segment (tuples per timeline second). A
    /// zero rate models silence (a burst gap, a cold start).
    pub rate_tuples_per_sec: f64,
}

/// Piecewise-constant-rate forecast of one relation's tuple arrivals,
/// anchored at "now".
///
/// ```
/// use tukwila_stats::schedule::ArrivalSchedule;
///
/// // A uniform 1000 tuples/s source: the 500th tuple arrives at 0.5s.
/// let s = ArrivalSchedule::uniform(1000.0);
/// assert_eq!(s.arrival_us(500.0), 500_000.0);
///
/// // The same source behind a 200ms burst gap: everything shifts.
/// let bursty = ArrivalSchedule::bursty(200_000.0, 1000.0);
/// assert_eq!(bursty.arrival_us(500.0), 700_000.0);
/// assert_eq!(bursty.tuples_by(300_000.0), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalSchedule {
    /// Non-empty; `start_us` strictly increasing, first segment at 0.
    segments: Vec<RateSegment>,
}

impl ArrivalSchedule {
    /// The degenerate single-segment schedule: tuples arrive at a
    /// constant `rate` (tuples per timeline second) starting now. This is
    /// what an observed cumulative rate alone justifies, and what the
    /// legacy uniform delivery bound assumed for every source.
    pub fn uniform(rate_tuples_per_sec: f64) -> ArrivalSchedule {
        ArrivalSchedule {
            segments: vec![RateSegment {
                start_us: 0.0,
                rate_tuples_per_sec: rate_tuples_per_sec.max(0.0),
            }],
        }
    }

    /// A burst-aware schedule: silence for `lead_in_us`, then delivery at
    /// `rate`. The lead-in is the planning allowance for "we may be at
    /// the start of one of this source's ordinary gaps"; `lead_in_us <= 0`
    /// degenerates to [`ArrivalSchedule::uniform`].
    pub fn bursty(lead_in_us: f64, rate_tuples_per_sec: f64) -> ArrivalSchedule {
        if lead_in_us <= 0.0 {
            return ArrivalSchedule::uniform(rate_tuples_per_sec);
        }
        ArrivalSchedule {
            segments: vec![
                RateSegment {
                    start_us: 0.0,
                    rate_tuples_per_sec: 0.0,
                },
                RateSegment {
                    start_us: lead_in_us,
                    rate_tuples_per_sec: rate_tuples_per_sec.max(0.0),
                },
            ],
        }
    }

    /// Build from explicit segments. Returns `None` unless segments are
    /// non-empty, start at 0, and have strictly increasing offsets.
    pub fn from_segments(segments: Vec<RateSegment>) -> Option<ArrivalSchedule> {
        if segments.first().map(|s| s.start_us) != Some(0.0) {
            return None;
        }
        if segments.windows(2).any(|w| w[1].start_us <= w[0].start_us) {
            return None;
        }
        if segments.iter().any(|s| {
            !s.start_us.is_finite()
                || !s.rate_tuples_per_sec.is_finite()
                || s.rate_tuples_per_sec < 0.0
        }) {
            return None;
        }
        Some(ArrivalSchedule { segments })
    }

    /// Build from an online [`RateEstimator`]: the observed cumulative
    /// rate as the steady segment, behind a one-σ(gap) burst allowance
    /// lead-in. A smooth source (σ ≈ 0) degenerates to the uniform
    /// schedule; a bursty one is planned as if a typical gap were about
    /// to happen. `None` until the estimator has a rate window.
    pub fn from_estimator(est: &RateEstimator) -> Option<ArrivalSchedule> {
        let rate = est.rate_tuples_per_sec()?;
        Some(ArrivalSchedule::bursty(est.gap_std_us(), rate))
    }

    /// The segments, for display/serialization.
    pub fn segments(&self) -> &[RateSegment] {
        &self.segments
    }

    /// Steady-state rate: the final segment's rate (tuples per second).
    /// This is what gets republished as the scalar "observed rate".
    pub fn steady_rate_tuples_per_sec(&self) -> f64 {
        self.segments
            .last()
            .map(|s| s.rate_tuples_per_sec)
            .unwrap_or(0.0)
    }

    /// **Question 1**: timeline µs from now until the `k`-th tuple has
    /// arrived. `k <= 0` arrives immediately; a schedule ending in
    /// silence never delivers (`f64::INFINITY`).
    ///
    /// The single-uniform-segment case evaluates the exact legacy
    /// expression `k.max(0.0) / rate * 1e6`, so plans costed from uniform
    /// schedules are bit-identical to the pre-model system.
    pub fn arrival_us(&self, k: f64) -> f64 {
        if self.segments.len() == 1 {
            let rate = self.segments[0].rate_tuples_per_sec;
            if rate > 0.0 {
                return k.max(0.0) / rate * 1e6;
            }
            return if k > 0.0 { f64::INFINITY } else { 0.0 };
        }
        let mut remaining = k.max(0.0);
        if remaining == 0.0 {
            return 0.0;
        }
        for (i, seg) in self.segments.iter().enumerate() {
            let rate = seg.rate_tuples_per_sec;
            match self.segments.get(i + 1) {
                Some(next) => {
                    let span_us = next.start_us - seg.start_us;
                    let delivered = rate * span_us / 1e6;
                    if delivered >= remaining && rate > 0.0 {
                        return seg.start_us + remaining / rate * 1e6;
                    }
                    remaining -= delivered;
                }
                None => {
                    if rate > 0.0 {
                        return seg.start_us + remaining / rate * 1e6;
                    }
                    return f64::INFINITY;
                }
            }
        }
        unreachable!("segments are non-empty");
    }

    /// Inverse of [`ArrivalSchedule::arrival_us`]: tuples expected to
    /// have arrived by `t_us` µs from now.
    pub fn tuples_by(&self, t_us: f64) -> f64 {
        let mut total = 0.0;
        for (i, seg) in self.segments.iter().enumerate() {
            if t_us <= seg.start_us {
                break;
            }
            let end = self
                .segments
                .get(i + 1)
                .map(|n| n.start_us.min(t_us))
                .unwrap_or(t_us);
            total += seg.rate_tuples_per_sec * (end - seg.start_us) / 1e6;
        }
        total
    }

    /// **Question 2** (schedule form): residual delivery wait for `k`
    /// tuples after `overlap_cpu_us` µs of useful CPU ran concurrently
    /// with the delivery.
    pub fn residual_wait_us(&self, k: f64, overlap_cpu_us: f64) -> f64 {
        residual_wait_us(self.arrival_us(k), overlap_cpu_us)
    }
}

/// The residual delivery wait after hiding `cpu_us` of concurrent useful
/// CPU under a `wait_us` delivery wait. This single formula is what every
/// overlap consumer uses — the optimizer's join costing, the
/// fragmentation pass, and [`DeliveryModel::overlap_residual_us`] — so
/// the three layers cannot drift apart.
pub fn residual_wait_us(wait_us: f64, cpu_us: f64) -> f64 {
    (wait_us - cpu_us.max(0.0)).max(0.0)
}

/// The µs of delivery wait actually *hidden* by `cpu_us` of concurrent
/// CPU (never more than either side; an unbounded wait is hidden up to
/// the full CPU time). Companion of [`residual_wait_us`]; used by the
/// fragmentation pass's cut pricing and [`DeliveryModel::overlap_win_us`].
pub fn hidden_wait_us(wait_us: f64, cpu_us: f64) -> f64 {
    let cpu = cpu_us.max(0.0);
    if wait_us.is_infinite() {
        cpu
    } else {
        wait_us.min(cpu)
    }
}

/// Unit prices of the hidden costs of racing a second source copy.
/// Shared by the hedging gate and (for the exchange term) the
/// fragmentation pass. All values are timeline µs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveryCosts {
    /// CPU µs to receive and dedup one duplicate tuple a racing replica
    /// re-delivers.
    pub dup_tuple_us: f64,
    /// Penalty µs per queue-backpressure event already observed
    /// (`blocked_sends`): a consumer that cannot keep up gains nothing
    /// from more producers.
    pub blocked_send_us: f64,
    /// Penalty µs for occupying one more core when the host has no idle
    /// one left for the new producer thread.
    pub busy_core_us: f64,
}

impl Default for DeliveryCosts {
    fn default() -> Self {
        DeliveryCosts {
            dup_tuple_us: 0.5,
            blocked_send_us: 200.0,
            busy_core_us: 20_000.0,
        }
    }
}

impl DeliveryCosts {
    /// The documented cost-unit→µs conversion the default prices above
    /// were derived under (the optimizer `CostModel::unit_us` fallback).
    pub const DEFAULT_UNIT_US: f64 = 0.1;

    /// Unit prices re-derived for a host whose *measured* cost-unit→µs
    /// conversion is `unit_us` (the corrective warmup calibration runs
    /// the engine's actual kernels — key dedup, exchange shipping —
    /// and measures driver µs per cost unit). The dup-dedup and
    /// backpressure terms are engine work and scale with that measured
    /// per-unit time; the busy-core term prices scheduler contention,
    /// not kernel speed, and stays put. The scale is clamped so one wild
    /// calibration cannot push the hedge gate into a corner.
    pub fn from_unit_us(unit_us: f64) -> DeliveryCosts {
        let base = DeliveryCosts::default();
        let scale = (unit_us / Self::DEFAULT_UNIT_US).clamp(0.05, 20.0);
        DeliveryCosts {
            dup_tuple_us: base.dup_tuple_us * scale,
            blocked_send_us: base.blocked_send_us * scale,
            busy_core_us: base.busy_core_us,
        }
    }
}

/// Everything the race question needs to know about the current state of
/// one federated relation. Pure data, so decisions are replayable.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceContext {
    /// The best *healthy* (active, delivering within its own profile)
    /// candidate: its expected µs to deliver the remaining tuples, and
    /// its steady rate. `None` when every active candidate has violated
    /// its profile — there is nobody credible left to wait for.
    pub healthy: Option<(f64, f64)>,
    /// Distinct tuples already delivered to the engine. A freshly
    /// activated full mirror that races re-delivers all of them
    /// (sequential access, no rewind), which is both dedup waste and a
    /// head start it lacks. A standby that splits (see
    /// [`RaceContext::split_partner_rate_tps`]) skips them.
    pub delivered: f64,
    /// Expected tuples still to come.
    pub remaining: f64,
    /// Declared/prior rate of the standby being considered (tuples per
    /// second); `None` falls back to the healthy candidate's rate (the
    /// mirror assumption).
    pub standby_rate_tps: Option<f64>,
    /// Queue-backpressure events observed so far (threaded mode; 0 in
    /// sequential mode, which has no queues).
    pub blocked_sends: u64,
    /// Producer threads already racing for this relation.
    pub racing: usize,
    /// Host parallelism budget; `None` means unknown/not-threaded, which
    /// disables the busy-core term.
    pub cores: Option<usize>,
    /// `Some(rate)` when the standby would *split* the relation instead
    /// of racing for it: it scans from the far key end towards the
    /// primary, which keeps delivering at `rate` tuples per second, and
    /// the two stop where they meet. Nothing already delivered is sent
    /// again. `None` prices a race.
    pub split_partner_rate_tps: Option<f64>,
}

/// Outcome of the race question, with the two sides of the break-even
/// inequality exposed for reports and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceDecision {
    /// Whether starting the race is expected to pay.
    pub hedge: bool,
    /// Expected latency win (µs): healthy ETA minus standby ETA.
    pub win_us: f64,
    /// Expected waste (µs): dedup work + backpressure + core contention.
    pub waste_us: f64,
}

/// The shared delivery cost model: per-relation [`ArrivalSchedule`]s plus
/// the [`DeliveryCosts`] unit prices. One instance answers the three
/// questions for every consumer (optimizer, hedging scheduler,
/// fragmentation pass), replacing their three one-off rules.
#[derive(Debug, Clone, Default)]
pub struct DeliveryModel {
    schedules: HashMap<u32, ArrivalSchedule>,
    costs: DeliveryCosts,
}

impl DeliveryModel {
    /// An empty model with the given unit prices.
    pub fn with_costs(costs: DeliveryCosts) -> DeliveryModel {
        DeliveryModel {
            schedules: HashMap::new(),
            costs,
        }
    }

    /// Register (or replace) a relation's schedule.
    pub fn insert(&mut self, rel: u32, schedule: ArrivalSchedule) {
        self.schedules.insert(rel, schedule);
    }

    /// The registered schedule for a relation, if any.
    pub fn schedule(&self, rel: u32) -> Option<&ArrivalSchedule> {
        self.schedules.get(&rel)
    }

    /// The unit prices this model was built with.
    pub fn costs(&self) -> &DeliveryCosts {
        &self.costs
    }

    /// Whether any relation has a schedule (unprofiled models answer 0
    /// everywhere, the local/fast seed assumption).
    pub fn is_empty(&self) -> bool {
        self.schedules.is_empty()
    }

    /// **Question 1**: µs until the `k`-th tuple of `rel` arrives. Zero
    /// for unprofiled relations (assumed local/fast, the seed behavior).
    pub fn arrival_us(&self, rel: u32, k: f64) -> f64 {
        self.schedules.get(&rel).map_or(0.0, |s| s.arrival_us(k))
    }

    /// **Question 2**: residual delivery wait for `k` tuples of `rel`
    /// after `overlap_cpu_us` of concurrent useful CPU.
    pub fn overlap_residual_us(&self, rel: u32, k: f64, overlap_cpu_us: f64) -> f64 {
        residual_wait_us(self.arrival_us(rel, k), overlap_cpu_us)
    }

    /// What overlapping buys: the µs of delivery wait actually hidden by
    /// `overlap_cpu_us` of concurrent CPU (never more than either side).
    pub fn overlap_win_us(&self, rel: u32, k: f64, overlap_cpu_us: f64) -> f64 {
        hidden_wait_us(self.arrival_us(rel, k), overlap_cpu_us)
    }

    /// **Question 3**: is racing a second copy worth it?
    ///
    /// The break-even inequality: hedge iff
    ///
    /// ```text
    /// win   = eta_healthy(remaining) − eta_standby
    /// waste = delivered · dup_tuple_us          (a race only)
    ///       + blocked_sends · blocked_send_us
    ///       + busy_core_us   (when racing + 1 exceeds the core budget)
    /// hedge ⇔ win > waste
    /// ```
    ///
    /// A racing standby re-delivers everything, so `eta_standby =
    /// (delivered + remaining) / standby_rate · 1e6`, and every tuple
    /// already delivered is a duplicate to dedup. A splitting standby
    /// (`ctx.split_partner_rate_tps` is `Some`) scans only the remainder,
    /// from the far end, while the primary keeps going:
    /// `eta_standby = remaining / (standby_rate + partner_rate) · 1e6`,
    /// and the duplicate term drops out.
    ///
    /// With no healthy active candidate (`ctx.healthy == None`) the win
    /// is unbounded — there is nobody credible to wait for, so the hedge
    /// always fires; this is what preserves liveness when the sole active
    /// candidate dies, and reproduces the legacy rule exactly in the
    /// one-primary-stalls case.
    pub fn race(&self, ctx: &RaceContext) -> RaceDecision {
        let dup_us = match ctx.split_partner_rate_tps {
            Some(_) => 0.0,
            None => ctx.delivered.max(0.0) * self.costs.dup_tuple_us,
        };
        let waste_us = dup_us
            + ctx.blocked_sends as f64 * self.costs.blocked_send_us
            + match ctx.cores {
                Some(cores) if ctx.racing + 1 > cores => self.costs.busy_core_us,
                _ => 0.0,
            };
        let Some((healthy_eta_us, healthy_rate)) = ctx.healthy else {
            return RaceDecision {
                hedge: true,
                win_us: f64::INFINITY,
                waste_us,
            };
        };
        let standby_rate = ctx
            .standby_rate_tps
            .filter(|r| *r > 0.0)
            .unwrap_or(healthy_rate);
        let (tuples, rate) = match ctx.split_partner_rate_tps {
            Some(partner) => (ctx.remaining, standby_rate + partner.max(0.0)),
            None => (ctx.delivered + ctx.remaining, standby_rate),
        };
        let standby_eta_us = if rate > 0.0 {
            tuples.max(0.0) / rate * 1e6
        } else {
            f64::INFINITY
        };
        let win_us = healthy_eta_us - standby_eta_us;
        RaceDecision {
            hedge: win_us > waste_us,
            win_us,
            waste_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matches_legacy_bound_bitwise() {
        for rate in [0.001f64, 1.0, 997.3, 1e6] {
            for card in [0.0f64, 1.0, 12_345.0, 2.5e8] {
                let legacy = card.max(0.0) / rate * 1e6;
                let s = ArrivalSchedule::uniform(rate);
                assert_eq!(s.arrival_us(card).to_bits(), legacy.to_bits());
            }
        }
        assert_eq!(ArrivalSchedule::uniform(1000.0).arrival_us(-5.0), 0.0);
    }

    #[test]
    fn bursty_shifts_by_lead_in() {
        let s = ArrivalSchedule::bursty(10_000.0, 100.0);
        assert_eq!(s.arrival_us(1.0), 10_000.0 + 10_000.0);
        assert_eq!(s.tuples_by(5_000.0), 0.0);
        assert_eq!(s.tuples_by(10_000.0 + 1e6), 100.0);
        assert_eq!(s.steady_rate_tuples_per_sec(), 100.0);
        // Zero lead-in degenerates to uniform.
        assert_eq!(
            ArrivalSchedule::bursty(0.0, 100.0),
            ArrivalSchedule::uniform(100.0)
        );
    }

    #[test]
    fn silent_tail_never_delivers() {
        let s = ArrivalSchedule::from_segments(vec![
            RateSegment {
                start_us: 0.0,
                rate_tuples_per_sec: 1000.0,
            },
            RateSegment {
                start_us: 1_000.0,
                rate_tuples_per_sec: 0.0,
            },
        ])
        .unwrap();
        // One ms at 1000/s = 1 tuple, then silence forever.
        assert!(s.arrival_us(1.0).is_finite());
        assert!(s.arrival_us(2.0).is_infinite());
        assert_eq!(s.tuples_by(f64::MAX), 1.0);
    }

    #[test]
    fn from_segments_validates() {
        assert!(ArrivalSchedule::from_segments(vec![]).is_none());
        assert!(ArrivalSchedule::from_segments(vec![RateSegment {
            start_us: 5.0,
            rate_tuples_per_sec: 1.0
        }])
        .is_none());
        assert!(ArrivalSchedule::from_segments(vec![
            RateSegment {
                start_us: 0.0,
                rate_tuples_per_sec: 1.0
            },
            RateSegment {
                start_us: 0.0,
                rate_tuples_per_sec: 2.0
            },
        ])
        .is_none());
    }

    #[test]
    fn estimator_schedule_smooth_vs_bursty() {
        let mut smooth = RateEstimator::new(0.2);
        let mut bursty = RateEstimator::new(0.2);
        let mut t = 0u64;
        for i in 0..200u64 {
            smooth.observe_arrival(i * 1_000, 10);
            t += if i % 10 == 9 { 10_000 } else { 100 };
            bursty.observe_arrival(t, 10);
        }
        let s = ArrivalSchedule::from_estimator(&smooth).unwrap();
        let b = ArrivalSchedule::from_estimator(&bursty).unwrap();
        assert_eq!(s.segments().len(), 1, "smooth source: uniform schedule");
        assert_eq!(b.segments().len(), 2, "bursty source: gap allowance");
        assert!(b.arrival_us(1.0) > s.arrival_us(1.0));
        assert_eq!(
            ArrivalSchedule::from_estimator(&RateEstimator::new(0.2)),
            None
        );
    }

    #[test]
    fn overlap_win_and_residual() {
        let mut m = DeliveryModel::default();
        m.insert(7, ArrivalSchedule::uniform(1000.0)); // 1 tuple per ms
        assert_eq!(m.arrival_us(7, 100.0), 100_000.0);
        // 40ms of CPU hides 40ms of a 100ms wait.
        assert_eq!(m.overlap_residual_us(7, 100.0, 40_000.0), 60_000.0);
        assert_eq!(m.overlap_win_us(7, 100.0, 40_000.0), 40_000.0);
        // CPU beyond the wait buys nothing extra.
        assert_eq!(m.overlap_win_us(7, 100.0, 500_000.0), 100_000.0);
        // Unprofiled relation: no wait, nothing to win.
        assert_eq!(m.arrival_us(99, 100.0), 0.0);
        assert_eq!(m.overlap_win_us(99, 100.0, 40_000.0), 0.0);
    }

    #[test]
    fn race_with_no_healthy_candidate_always_hedges() {
        let m = DeliveryModel::default();
        let d = m.race(&RaceContext {
            healthy: None,
            delivered: 1e9,
            remaining: 1.0,
            standby_rate_tps: None,
            blocked_sends: 1000,
            racing: 64,
            cores: Some(1),
            split_partner_rate_tps: None,
        });
        assert!(d.hedge, "nobody credible to wait for: hedge");
        assert!(d.win_us.is_infinite());
        assert!(d.waste_us > 0.0);
    }

    #[test]
    fn race_declines_when_healthy_candidate_beats_standby() {
        let m = DeliveryModel::default();
        // Healthy mirror finishes the remaining 1000 tuples in 100ms; a
        // from-scratch standby at the same rate must re-deliver the 9000
        // already-delivered ones first.
        let d = m.race(&RaceContext {
            healthy: Some((100_000.0, 10_000.0)),
            delivered: 9_000.0,
            remaining: 1_000.0,
            standby_rate_tps: None,
            blocked_sends: 0,
            racing: 1,
            cores: None,
            split_partner_rate_tps: None,
        });
        assert!(!d.hedge, "win={} waste={}", d.win_us, d.waste_us);
        assert!(d.win_us < 0.0);
    }

    #[test]
    fn race_accepts_a_fast_declared_standby() {
        let m = DeliveryModel::default();
        // Healthy candidate limps at 100 t/s (10s for the remaining 1000);
        // the standby declares 100k t/s and redelivers 2000 tuples in 20ms.
        let d = m.race(&RaceContext {
            healthy: Some((10_000_000.0, 100.0)),
            delivered: 1_000.0,
            remaining: 1_000.0,
            standby_rate_tps: Some(100_000.0),
            blocked_sends: 0,
            racing: 1,
            cores: None,
            split_partner_rate_tps: None,
        });
        assert!(d.hedge);
        assert!(d.win_us > 0.0);
    }

    #[test]
    fn race_charges_backpressure_and_busy_cores() {
        let m = DeliveryModel::default();
        let base = RaceContext {
            healthy: Some((200_000.0, 10_000.0)),
            delivered: 0.0,
            remaining: 1_000.0,
            standby_rate_tps: Some(20_000.0),
            blocked_sends: 0,
            racing: 1,
            cores: Some(8),
            split_partner_rate_tps: None,
        };
        let free = m.race(&base);
        assert!(free.hedge, "win={} waste={}", free.win_us, free.waste_us);
        let congested = m.race(&RaceContext {
            blocked_sends: 10_000,
            ..base.clone()
        });
        assert!(!congested.hedge, "backpressure must veto the race");
        let saturated = m.race(&RaceContext { racing: 8, ..base });
        assert!(saturated.waste_us >= m.costs().busy_core_us);
    }

    #[test]
    fn a_split_skips_the_duplicates_and_shares_the_remainder() {
        let m = DeliveryModel::default();
        // The race this case declines: the from-scratch standby must
        // re-deliver 9000 tuples before it helps with the last 1000.
        let race = RaceContext {
            healthy: Some((100_000.0, 10_000.0)),
            delivered: 9_000.0,
            remaining: 1_000.0,
            standby_rate_tps: None,
            blocked_sends: 0,
            racing: 1,
            cores: None,
            split_partner_rate_tps: None,
        };
        assert!(!m.race(&race).hedge);
        let split = m.race(&RaceContext {
            split_partner_rate_tps: Some(10_000.0),
            ..race.clone()
        });
        // 1000 tuples at the combined 20k t/s: 50 ms instead of 100 ms.
        assert!(split.hedge, "win={} waste={}", split.win_us, split.waste_us);
        assert_eq!(split.win_us, 100_000.0 - 50_000.0);
        assert_eq!(split.waste_us, 0.0, "no duplicates to dedup");
        assert!(m.race(&race).waste_us > 0.0);
    }
}
