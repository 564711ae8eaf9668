//! Per-operator execution counters (paper §3.3).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters every operator maintains. Shared (`Arc`) so the monitor thread
/// reads them while the executor writes.
#[derive(Debug, Default)]
pub struct OpCounters {
    tuples_in: AtomicU64,
    tuples_out: AtomicU64,
    /// Probe/comparison work performed; a proxy for CPU cost.
    work: AtomicU64,
    /// Key matches a join found, before its residual check (joins only).
    matches: AtomicU64,
}

impl OpCounters {
    /// Fresh zeroed counters, already wrapped for sharing with a monitor.
    pub fn new() -> Arc<OpCounters> {
        Arc::new(OpCounters::default())
    }

    /// Count `n` tuples arriving at the operator.
    #[inline]
    pub fn add_in(&self, n: u64) {
        self.tuples_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` tuples emitted by the operator.
    #[inline]
    pub fn add_out(&self, n: u64) {
        self.tuples_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` units of probe/comparison work.
    #[inline]
    pub fn add_work(&self, n: u64) {
        self.work.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` join key matches (pairs found before the residual check).
    #[inline]
    pub fn add_matches(&self, n: u64) {
        self.matches.fetch_add(n, Ordering::Relaxed);
    }

    /// Total tuples the operator has consumed.
    pub fn tuples_in(&self) -> u64 {
        self.tuples_in.load(Ordering::Relaxed)
    }

    /// Total tuples the operator has produced.
    pub fn tuples_out(&self) -> u64 {
        self.tuples_out.load(Ordering::Relaxed)
    }

    /// Key matches a join found before its residual check; `tuples_out`
    /// counts the rows that passed it. Zero for non-join operators.
    pub fn matches(&self) -> u64 {
        self.matches.load(Ordering::Relaxed)
    }

    /// Accumulated probe/comparison work (a proxy for CPU cost).
    pub fn work(&self) -> u64 {
        self.work.load(Ordering::Relaxed)
    }

    /// Observed output/input ratio; `None` until input has been seen.
    pub fn ratio(&self) -> Option<f64> {
        let i = self.tuples_in();
        if i == 0 {
            None
        } else {
            Some(self.tuples_out() as f64 / i as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let c = OpCounters::new();
        c.add_in(10);
        c.add_in(5);
        c.add_out(3);
        c.add_work(100);
        assert_eq!(c.tuples_in(), 15);
        assert_eq!(c.tuples_out(), 3);
        assert_eq!(c.work(), 100);
        assert_eq!(c.ratio(), Some(0.2));
    }

    #[test]
    fn ratio_none_without_input() {
        let c = OpCounters::new();
        assert_eq!(c.ratio(), None);
    }
}
