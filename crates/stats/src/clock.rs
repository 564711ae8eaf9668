//! The dual-clock abstraction: one timeline, two drivers.
//!
//! Everything adaptive in this system — stall thresholds, delivery rates,
//! permutation re-ranking — is a pure function of *timestamps*, not of who
//! produced them. The seed ran exclusively on a simulated ("virtual")
//! clock advanced by the single-threaded driver, which makes runs
//! deterministic and replayable but means concurrency is only ever
//! modeled, never real. [`Clock`] abstracts the timeline so the same
//! scheduling logic runs in both modes:
//!
//! * [`VirtualClock`] — a shared monotonic counter in timeline µs,
//!   advanced explicitly by whoever drives execution (the `SimDriver`
//!   passes its simulated now through [`Clock::observe`]). Waiting is
//!   free: [`Clock::sleep_toward`] just jumps the counter.
//! * [`WallClock`] — timeline µs derived from a real [`Instant`] epoch,
//!   optionally *accelerated* so a schedule authored in timeline µs (e.g.
//!   a `DelayModel` arrival script) plays back faster in real time.
//!   Waiting really sleeps, in bounded chunks so sleepers remain
//!   responsive to cancellation.
//!
//! The invariant tests lean on: for sources whose content is identical
//! (mirrors) or jointly covering (partial replicas), the *deduped answer
//! set* of a federated run is independent of the clock driving it — wall
//! and virtual runs may interleave arbitrarily differently yet must agree
//! byte-for-byte after canonicalization.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A source of timeline instants (µs) shared by every party of one
/// execution: driver, scheduler, and any producer threads.
///
/// Implementations must be monotonic per observer: two successive
/// `now_us` calls from the same thread never go backwards.
///
/// The two implementations expose the same timeline with opposite
/// authorities — the virtual clock follows whoever calls
/// [`Clock::observe`], the wall clock follows real elapsed time:
///
/// ```
/// use tukwila_stats::{Clock, VirtualClock, WallClock};
///
/// // Virtual: waiting is free and external instants are authoritative.
/// let virt = VirtualClock::new();
/// assert_eq!(virt.observe(1_000), 1_000);   // driver advances the timeline
/// assert_eq!(virt.sleep_toward(5_000), 5_000); // "sleeping" just jumps
/// assert!(!virt.is_wall());
///
/// // Wall: real time is authoritative, optionally accelerated. At 1000×,
/// // one real millisecond spans one timeline second.
/// let wall = WallClock::accelerated(1000.0);
/// let before = wall.now_us();
/// std::thread::sleep(std::time::Duration::from_millis(2));
/// assert!(wall.now_us() > before, "wall time advances on its own");
/// assert_eq!(wall.scale_to_timeline(10.0), 10_000.0);
/// ```
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current timeline instant in µs.
    fn now_us(&self) -> u64;

    /// Fold an externally supplied timeline instant (e.g. the driver's
    /// simulated now) into the clock and return the instant to use for
    /// decisions. Virtual clocks advance to `external_us`; wall clocks
    /// ignore it — real time is the only authority.
    fn observe(&self, external_us: u64) -> u64;

    /// Make progress toward `deadline_us` and return the new now. A
    /// virtual clock jumps straight to the deadline; a wall clock sleeps
    /// — but only a bounded real interval per call, so callers must loop
    /// (`while clock.now_us() < deadline ...`) and can interleave
    /// cancellation checks between chunks.
    fn sleep_toward(&self, deadline_us: u64) -> u64;

    /// Whether waiting on this clock costs real time.
    fn is_wall(&self) -> bool;

    /// Convert a *measured real* duration (µs) into timeline µs, so CPU
    /// costs land in the same unit as [`Clock::now_us`]. Identity except
    /// for accelerated wall clocks, where a real µs spans `scale`
    /// timeline µs.
    fn scale_to_timeline(&self, real_us: f64) -> f64 {
        real_us
    }
}

/// Wait on `clock` until `cond()` holds or the timeline reaches
/// `deadline_us`, returning whether the condition was met. Between checks
/// the clock makes bounded progress toward the deadline (a virtual clock
/// jumps, a wall clock naps one chunk), so callers stay responsive and a
/// stuck condition cannot block past the deadline by more than one chunk.
///
/// This is the quiesce-timeout primitive of the threaded corrective
/// executor: "wait for every producer fragment to park, but give up after
/// a timeline budget" is exactly a clock-driven condition wait.
///
/// ```
/// use tukwila_stats::clock::{wait_until, Clock, VirtualClock};
///
/// let clock = VirtualClock::new();
/// let mut polls = 0;
/// let met = wait_until(&clock, 10_000, || {
///     polls += 1;
///     polls >= 2
/// });
/// assert!(met);
/// // An impossible condition gives up at the deadline instead of hanging.
/// assert!(!wait_until(&clock, 20_000, || false));
/// assert!(clock.now_us() >= 20_000);
/// ```
pub fn wait_until(clock: &dyn Clock, deadline_us: u64, mut cond: impl FnMut() -> bool) -> bool {
    loop {
        if cond() {
            return true;
        }
        if clock.now_us() >= deadline_us {
            return false;
        }
        clock.sleep_toward(deadline_us);
    }
}

/// The simulated clock: a shared monotonic µs counter.
///
/// The single-threaded drivers advance it via [`Clock::observe`] with
/// their own simulated now, so components holding the clock (e.g. a
/// `FederatedSource`) see exactly the timeline the driver sees.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now_us: AtomicU64,
}

impl VirtualClock {
    /// A fresh virtual clock starting at timeline instant 0.
    pub fn new() -> VirtualClock {
        VirtualClock::default()
    }
}

impl Clock for VirtualClock {
    fn now_us(&self) -> u64 {
        self.now_us.load(Ordering::Acquire)
    }

    fn observe(&self, external_us: u64) -> u64 {
        self.now_us
            .fetch_max(external_us, Ordering::AcqRel)
            .max(external_us)
    }

    fn sleep_toward(&self, deadline_us: u64) -> u64 {
        self.observe(deadline_us)
    }

    fn is_wall(&self) -> bool {
        false
    }
}

/// Real time, mapped onto the timeline as `elapsed_real_µs × scale`.
///
/// `scale > 1` accelerates playback: a source script authored at
/// millisecond cadence runs in a fraction of the real time while every
/// *relative* property of the schedule (gaps, bursts, stall windows) is
/// preserved. Tests and benches use this to race real threads over
/// multi-second timelines in tens of milliseconds.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
    scale: f64,
    max_chunk: Duration,
}

/// Upper bound on a single [`Clock::sleep_toward`] nap (real time), so
/// producer threads blocked on far-future deadlines stay responsive to
/// cancellation and never wedge a join on shutdown.
const DEFAULT_MAX_SLEEP_CHUNK: Duration = Duration::from_millis(2);

impl WallClock {
    /// Real time, 1 timeline µs = 1 real µs.
    pub fn new() -> WallClock {
        WallClock::accelerated(1.0)
    }

    /// Timeline runs `scale`× faster than real time (`scale` is clamped
    /// to be positive).
    pub fn accelerated(scale: f64) -> WallClock {
        WallClock {
            epoch: Instant::now(),
            scale: if scale > 0.0 { scale } else { 1.0 },
            max_chunk: DEFAULT_MAX_SLEEP_CHUNK,
        }
    }

    /// The acceleration factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> u64 {
        (self.epoch.elapsed().as_secs_f64() * self.scale * 1e6) as u64
    }

    fn observe(&self, _external_us: u64) -> u64 {
        self.now_us()
    }

    fn sleep_toward(&self, deadline_us: u64) -> u64 {
        let now = self.now_us();
        if deadline_us > now {
            let remaining_real =
                Duration::from_secs_f64((deadline_us - now) as f64 / self.scale / 1e6);
            std::thread::sleep(remaining_real.min(self.max_chunk));
        } else {
            // Already past the deadline: still yield so tight poll loops
            // (a consumer waiting on racing producers) don't spin a core.
            std::thread::yield_now();
        }
        self.now_us()
    }

    fn is_wall(&self) -> bool {
        true
    }

    fn scale_to_timeline(&self, real_us: f64) -> f64 {
        real_us * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn virtual_clock_is_monotone_and_free() {
        let c = VirtualClock::new();
        assert_eq!(c.now_us(), 0);
        assert_eq!(c.observe(100), 100);
        assert_eq!(c.observe(50), 100, "never goes backwards");
        let start = Instant::now();
        assert_eq!(c.sleep_toward(1_000_000_000), 1_000_000_000);
        assert!(start.elapsed() < Duration::from_millis(100), "no real wait");
        assert!(!c.is_wall());
    }

    #[test]
    fn wall_clock_advances_with_real_time() {
        let c = WallClock::accelerated(1000.0); // 1 real ms = 1000 timeline ms
        let a = c.now_us();
        std::thread::sleep(Duration::from_millis(2));
        let b = c.now_us();
        assert!(b > a, "wall time must advance: {a} -> {b}");
        assert!(c.is_wall());
        // observe ignores the external instant.
        assert!(c.observe(u64::MAX / 2) < u64::MAX / 4);
    }

    #[test]
    fn wall_sleep_is_chunked() {
        let c = WallClock::accelerated(1.0);
        let start = Instant::now();
        // A deadline hours away must not block longer than one chunk.
        c.sleep_toward(u64::MAX / 2);
        assert!(start.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn shared_across_threads() {
        let c: Arc<dyn Clock> = Arc::new(VirtualClock::new());
        let c2 = c.clone();
        let h = std::thread::spawn(move || c2.observe(42));
        assert_eq!(h.join().unwrap(), 42);
        assert_eq!(c.now_us(), 42);
    }
}
