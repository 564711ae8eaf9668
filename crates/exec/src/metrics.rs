//! Execution reports.

/// Timing/volume summary of one plan execution.
///
/// All durations are **timeline µs** (the unit of
/// [`tukwila_stats::Clock::now_us`]): identical to simulated µs under the
/// virtual clock, and to `real µs × scale` under an accelerated wall
/// clock.
///
/// Derive surface: `Clone + Default + PartialEq` (no `Copy` — the
/// per-exchange backpressure table is heap-allocated, and the historical
/// `Copy` bound was never load-bearing; no `Eq` — reports are compared
/// with [`ExecReport::approx_eq`] when timing fields are involved, since
/// exact equality of measured durations is only meaningful under the
/// virtual clock).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Completion time (timeline µs), including waiting for source
    /// arrivals.
    pub virtual_us: u64,
    /// CPU time charged to query processing (timeline µs).
    pub cpu_us: u64,
    /// Time spent idle waiting for sources (timeline µs).
    pub idle_us: u64,
    /// Answer tuples produced at the root (count).
    pub tuples_out: u64,
    /// Source batches processed (count).
    pub batches: u64,
    /// Source polls the driver loop issued (count). On a virtual
    /// timeline an input whose `Pending` promise still stands is not
    /// polled. Producer threads' own polls are not included.
    pub polls: u64,
    /// Idle steps of the driver loop: sweeps that found nothing ready
    /// and waited toward the earliest `Pending` hint (count).
    pub wakes: u64,
    /// High-water mark of exchange-queue depth (batches buffered in any
    /// one exchange queue at once). 0 for unfragmented runs, which have
    /// no queues.
    pub max_queue_depth: u64,
    /// Per-exchange backpressure: `(exchange rel_id, blocked sends)` for
    /// every exchange whose producer found the queue full at least once,
    /// in ascending `rel_id` order. Empty for unfragmented runs.
    pub blocked_by_exchange: Vec<(u32, u64)>,
}

impl ExecReport {
    /// Completion time in timeline seconds.
    pub fn virtual_secs(&self) -> f64 {
        self.virtual_us as f64 / 1e6
    }

    /// CPU time in seconds.
    pub fn cpu_secs(&self) -> f64 {
        self.cpu_us as f64 / 1e6
    }

    /// Total blocked sends across every exchange queue.
    pub fn blocked_sends(&self) -> u64 {
        self.blocked_by_exchange.iter().map(|(_, n)| n).sum()
    }

    /// Float-safe comparison for tests and golden checks: exact on the
    /// count fields (tuples, batches, queue stats), within `tol_us`
    /// timeline µs on every duration field; `polls` and `wakes` follow
    /// the timing of the sweeps, so they are not compared. Use this
    /// instead of `==` whenever wall-clock measurement noise is in play;
    /// `==` remains exact and is only meaningful for virtual-clock runs.
    pub fn approx_eq(&self, other: &ExecReport, tol_us: u64) -> bool {
        self.tuples_out == other.tuples_out
            && self.batches == other.batches
            && self.max_queue_depth == other.max_queue_depth
            && self.blocked_by_exchange == other.blocked_by_exchange
            && self.virtual_us.abs_diff(other.virtual_us) <= tol_us
            && self.cpu_us.abs_diff(other.cpu_us) <= tol_us
            && self.idle_us.abs_diff(other.idle_us) <= tol_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_conversions() {
        let r = ExecReport {
            virtual_us: 2_500_000,
            cpu_us: 1_000_000,
            ..Default::default()
        };
        assert_eq!(r.virtual_secs(), 2.5);
        assert_eq!(r.cpu_secs(), 1.0);
    }

    #[test]
    fn approx_eq_tolerates_timing_noise_only() {
        let a = ExecReport {
            virtual_us: 1_000,
            cpu_us: 500,
            idle_us: 500,
            tuples_out: 10,
            batches: 2,
            polls: 5,
            wakes: 1,
            max_queue_depth: 3,
            blocked_by_exchange: vec![(0xF000_0000, 4)],
        };
        let mut b = a.clone();
        b.virtual_us += 7;
        b.idle_us -= 3;
        assert!(a.approx_eq(&b, 10), "durations within tolerance");
        assert!(!a.approx_eq(&b, 2), "durations past tolerance");
        let mut c = a.clone();
        c.tuples_out += 1;
        assert!(!a.approx_eq(&c, u64::MAX >> 1), "counts are exact");
        let mut d = a.clone();
        d.blocked_by_exchange[0].1 += 1;
        assert!(!a.approx_eq(&d, u64::MAX >> 1), "queue stats are exact");
    }

    #[test]
    fn blocked_sends_totals_exchanges() {
        let r = ExecReport {
            blocked_by_exchange: vec![(0xF000_0000, 2), (0xF000_0001, 5)],
            ..Default::default()
        };
        assert_eq!(r.blocked_sends(), 7);
    }
}
