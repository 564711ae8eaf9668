//! Single-plan execution against sources. (The adaptive, multi-phase
//! driver lives in `tukwila-core`; this one runs the static baselines and
//! the inner loop of tests.)
//!
//! The driver runs in one of two clock modes:
//!
//! * **Virtual** (default): the clock is a local accumulator — CPU costs
//!   and source delays advance it, waiting is free, runs are
//!   deterministic. This is the seed behavior, unchanged.
//! * **Wall** ([`SimDriver::with_clock`] with a
//!   [`tukwila_stats::WallClock`]): the clock reads real elapsed time
//!   (optionally accelerated), so "idle until the next arrival" really
//!   sleeps, and sources backed by concurrent producer threads (the
//!   threaded federation layer) race in real time while this driver
//!   consumes.

use std::sync::Arc;
use std::time::Instant;

use tukwila_relation::{Error, Result, Tuple};
use tukwila_source::{DueTimes, Poll, Source};
use tukwila_stats::trace::SpanKind;
use tukwila_stats::{Clock, TraceSink};

use crate::metrics::ExecReport;
use crate::op::Batch;
use crate::plan::PipelinePlan;

/// Anything the round-robin driver can feed source batches into: a single
/// [`PipelinePlan`], or the root of a [`crate::fragments::FragmentRun`],
/// which routes each batch to the fragment owning its relation and pumps
/// produced batches across exchange boundaries.
pub trait PushTarget {
    /// Push a source batch for `rel_id`; root output lands in `out`.
    fn push_source(&mut self, rel_id: u32, batch: &[Tuple], out: &mut Batch) -> Result<()>;

    /// Signal EOF of source `rel_id`, flushing whatever that closes.
    fn finish_source(&mut self, rel_id: u32, out: &mut Batch) -> Result<()>;
}

impl PushTarget for PipelinePlan {
    fn push_source(&mut self, rel_id: u32, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        PipelinePlan::push_source(self, rel_id, batch, out)
    }

    fn finish_source(&mut self, rel_id: u32, out: &mut Batch) -> Result<()> {
        PipelinePlan::finish_source(self, rel_id, out)
    }
}

/// How CPU work advances the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuCostModel {
    /// Measure actual wall time of each push (realistic benchmarking).
    Measured,
    /// Charge a fixed cost per input tuple (deterministic tests).
    PerTupleNs(u64),
    /// CPU is free; only source delays advance the clock.
    Zero,
}

/// Clock-mode accounting shared by the batch drivers (`SimDriver` here,
/// `CorrectiveExec` in `tukwila-core`): one timeline, driven either by a
/// virtual accumulator (CPU costs and source delays advance it, waiting
/// is free) or by a shared [`Clock`] (real time is authoritative, idling
/// really waits). Keeping this logic in one place is what guarantees the
/// two drivers agree on wall-clock semantics — the dual-clock
/// equivalence tests depend on that.
pub struct Timeline {
    clock: Option<Arc<dyn Clock>>,
    clock_us: f64,
    cpu_us: f64,
    idle_us: f64,
}

impl Timeline {
    /// A zeroed timeline; `Some(clock)` selects shared-clock mode.
    pub fn new(clock: Option<Arc<dyn Clock>>) -> Timeline {
        Timeline {
            clock,
            clock_us: 0.0,
            cpu_us: 0.0,
            idle_us: 0.0,
        }
    }

    /// Re-read a shared clock (it advances on its own); no-op for the
    /// virtual accumulator. Call at the top of every poll sweep and after
    /// any untracked blocking section.
    pub fn resync(&mut self) {
        if let Some(clock) = &self.clock {
            self.clock_us = self
                .clock_us
                .max(clock.observe(self.clock_us as u64) as f64);
        }
    }

    /// The current timeline instant (µs).
    pub fn now_us(&self) -> u64 {
        self.clock_us as u64
    }

    /// Charge a CPU cost (timeline µs): advances the virtual clock; a
    /// shared clock already advanced on its own while the work ran, so
    /// adding it again would double-count.
    pub fn charge(&mut self, cost_us: f64) {
        if self.clock.is_none() {
            self.clock_us += cost_us;
        }
        self.cpu_us += cost_us;
    }

    /// Charge clock time without CPU time (work modeled as happening off
    /// the query thread, e.g. background re-optimization).
    pub fn charge_background(&mut self, cost_us: f64) {
        if self.clock.is_none() {
            self.clock_us += cost_us;
        }
    }

    /// Wait toward `target_us`, accounting the advance as idle: the
    /// virtual accumulator jumps; a shared clock really waits one bounded
    /// chunk (callers loop — re-poll until the deadline passes or data
    /// shows up earlier).
    pub fn idle_toward(&mut self, target_us: u64) {
        match &self.clock {
            Some(clock) => {
                let before = self.clock_us;
                self.clock_us = self.clock_us.max(clock.sleep_toward(target_us) as f64);
                self.idle_us += self.clock_us - before;
            }
            None => {
                let target = (target_us as f64).max(self.clock_us);
                self.idle_us += target - self.clock_us;
                self.clock_us = target;
            }
        }
    }

    /// Convert a *measured real* duration (µs) into timeline µs, so
    /// `CpuCostModel::Measured` costs land in the same unit as the
    /// timeline (accelerated wall clocks span `scale` timeline µs per
    /// real µs).
    pub fn measured_to_timeline(&self, real_us: f64) -> f64 {
        match &self.clock {
            Some(clock) => clock.scale_to_timeline(real_us),
            None => real_us,
        }
    }

    /// Whether the timeline is virtual (no shared clock, or one that is
    /// not a wall clock): the mode in which `Pending` hints are promises
    /// and poll loops skip inputs that are not due.
    pub fn is_virtual(&self) -> bool {
        !self.clock.as_ref().is_some_and(|c| c.is_wall())
    }

    /// Timeline instant as a float (µs).
    pub fn clock_us(&self) -> f64 {
        self.clock_us
    }

    /// CPU time charged so far (timeline µs).
    pub fn cpu_us(&self) -> f64 {
        self.cpu_us
    }

    /// Idle (waiting) time accumulated so far (timeline µs).
    pub fn idle_us(&self) -> f64 {
        self.idle_us
    }
}

/// Round-robin batch driver.
pub struct SimDriver {
    /// Maximum tuples pulled from a source per poll.
    pub batch_size: usize,
    /// How CPU work is charged to the timeline.
    pub cpu: CpuCostModel,
    /// `Some` switches the driver from the virtual accumulator to this
    /// shared clock: `now` is read from it each sweep and idling really
    /// waits on it. All sources of the run must share the same instance.
    pub clock: Option<Arc<dyn Clock>>,
    /// Adaptivity trace journal: each run brackets itself in a
    /// [`SpanKind::Drive`] span and tallies batches/tuples at the end
    /// (bounded per-run events, never per-tuple). Disabled by default.
    pub trace: TraceSink,
}

impl Default for SimDriver {
    fn default() -> Self {
        SimDriver {
            batch_size: 1024,
            cpu: CpuCostModel::Measured,
            clock: None,
            trace: TraceSink::disabled(),
        }
    }
}

impl SimDriver {
    /// A driver with the given batch size and CPU cost model, on the
    /// virtual clock.
    pub fn new(batch_size: usize, cpu: CpuCostModel) -> SimDriver {
        SimDriver {
            batch_size,
            cpu,
            clock: None,
            trace: TraceSink::disabled(),
        }
    }

    /// Drive the run off `clock` (wall-clock mode when it is a
    /// [`tukwila_stats::WallClock`]) instead of the virtual accumulator.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> SimDriver {
        self.clock = Some(clock);
        self
    }

    /// Journal this driver's runs into `trace`.
    pub fn with_trace(mut self, trace: TraceSink) -> SimDriver {
        self.trace = trace;
        self
    }

    /// Run `plan` to completion over `sources`, returning root output and a
    /// timing report.
    ///
    /// The loop models adaptive scheduling's effect at the granularity we
    /// need: whenever *any* source has data, the CPU works on it; the clock
    /// only idles forward when every unfinished source is pending.
    pub fn run(
        &self,
        plan: &mut PipelinePlan,
        sources: &mut [Box<dyn Source>],
    ) -> Result<(Batch, ExecReport)> {
        self.run_target(plan, sources)
    }

    /// [`SimDriver::run`] generalized over [`PushTarget`]: the same
    /// poll/push/idle loop drives a single pipeline or the root of a
    /// [`crate::fragments::FragmentRun`] (the whole plan, inline).
    pub fn run_target(
        &self,
        plan: &mut dyn PushTarget,
        sources: &mut [Box<dyn Source>],
    ) -> Result<(Batch, ExecReport)> {
        let mut refs: Vec<&mut dyn Source> = sources
            .iter_mut()
            .map(|b| &mut **b as &mut dyn Source)
            .collect();
        self.run_target_refs(plan, &mut refs)
    }

    /// [`SimDriver::run_target`] over borrowed sources, so callers can
    /// assemble one poll set from differently-owned collections (a
    /// threaded fragment run mixes the caller's base-relation sources
    /// with the exchange sources it owns itself).
    ///
    /// On a virtual timeline a source is only polled once its last
    /// `Pending` hint is due ([`DueTimes`]); a wall clock polls every
    /// unfinished source on every sweep.
    pub fn run_target_refs(
        &self,
        plan: &mut dyn PushTarget,
        sources: &mut [&mut dyn Source],
    ) -> Result<(Batch, ExecReport)> {
        check_batch_size(self.batch_size)?;
        let mut out = Batch::new();
        let mut report = ExecReport::default();
        let mut timeline = Timeline::new(self.clock.clone());
        let mut finished = vec![false; sources.len()];
        let mut due = DueTimes::new(sources.len(), timeline.is_virtual());
        timeline.resync();
        self.trace
            .record_at(timeline.now_us(), SpanKind::Drive.begin("drive"));

        loop {
            timeline.resync();
            let mut any_ready = false;
            let mut all_done = true;
            for (i, src) in sources.iter_mut().enumerate() {
                if finished[i] {
                    continue;
                }
                all_done = false;
                if !due.is_due(i, timeline.now_us()) {
                    continue;
                }
                report.polls += 1;
                let polled = src.poll(timeline.now_us(), self.batch_size);
                due.note(i, polled.pending_hint());
                match polled {
                    Poll::Ready(batch) => {
                        any_ready = true;
                        report.batches += 1;
                        let cost = charged_cost(self.cpu, &timeline, batch.len(), || {
                            plan.push_source(src.rel_id(), &batch, &mut out)
                        })?;
                        timeline.charge(cost);
                        timeline.resync();
                    }
                    Poll::Pending { .. } => {}
                    Poll::Eof => {
                        finished[i] = true;
                        let cost = charged_cost(self.cpu, &timeline, 0, || {
                            plan.finish_source(src.rel_id(), &mut out)
                        })?;
                        timeline.charge(cost);
                        timeline.resync();
                    }
                }
            }
            if all_done {
                break;
            }
            if !any_ready {
                if let Some(n) = due.earliest() {
                    report.wakes += 1;
                    timeline.idle_toward(n);
                }
            }
        }

        report.virtual_us = timeline.clock_us() as u64;
        report.cpu_us = timeline.cpu_us() as u64;
        report.idle_us = timeline.idle_us() as u64;
        report.tuples_out = out.len() as u64;
        if self.trace.is_enabled() {
            let now = timeline.now_us();
            self.trace.record_at(
                now,
                tukwila_stats::TraceEvent::Counter {
                    name: "batches".into(),
                    scope: "drive".into(),
                    value: report.batches,
                },
            );
            self.trace.record_at(
                now,
                tukwila_stats::TraceEvent::Counter {
                    name: "tuples_out".into(),
                    scope: "drive".into(),
                    value: report.tuples_out,
                },
            );
            self.trace.record_at(now, SpanKind::Drive.end("drive"));
        }
        Ok((out, report))
    }
}

/// Reject a zero batch size: a source asked for zero tuples answers
/// `Ready` with nothing and never advances, so a driver would spin forever.
pub fn check_batch_size(batch_size: usize) -> Result<()> {
    if batch_size == 0 {
        return Err(Error::Plan("batch size must be at least 1".into()));
    }
    Ok(())
}

/// Run `f`, returning the timeline cost (µs) to charge for it.
pub fn charged_cost(
    cpu: CpuCostModel,
    timeline: &Timeline,
    tuples: usize,
    f: impl FnOnce() -> Result<()>,
) -> Result<f64> {
    match cpu {
        CpuCostModel::Measured => {
            let start = Instant::now();
            f()?;
            let real_us = start.elapsed().as_secs_f64() * 1e6;
            Ok(timeline.measured_to_timeline(real_us))
        }
        CpuCostModel::PerTupleNs(ns) => {
            f()?;
            Ok(tuples as f64 * ns as f64 / 1000.0)
        }
        CpuCostModel::Zero => {
            f()?;
            Ok(0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::pipelined_hash::PipelinedHashJoin;
    use crate::plan::PipelinePlan;
    use tukwila_relation::{DataType, Field, Schema, Tuple, Value};
    use tukwila_source::{DelayModel, DelayedSource, MemSource};

    fn schema(prefix: &str) -> Schema {
        Schema::new(vec![Field::new(format!("{prefix}.k"), DataType::Int)])
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect()
    }

    fn join_plan() -> PipelinePlan {
        let mut b = PipelinePlan::builder();
        let join = Box::new(PipelinedHashJoin::new(schema("l"), schema("r"), 0, 0));
        let j = b.add_op(join, &[], None).unwrap();
        b.bind_source(1, j, 0).unwrap();
        b.bind_source(2, j, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn joins_local_sources() {
        let mut plan = join_plan();
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(MemSource::new(1, "l", schema("l"), tuples(100))),
            Box::new(MemSource::new(2, "r", schema("r"), tuples(50))),
        ];
        let driver = SimDriver::new(16, CpuCostModel::Zero);
        let (out, report) = driver.run(&mut plan, &mut sources).unwrap();
        assert_eq!(out.len(), 50);
        assert_eq!(report.tuples_out, 50);
        assert_eq!(report.virtual_us, 0, "zero cpu, local sources");
    }

    #[test]
    fn delayed_sources_advance_clock() {
        let mut plan = join_plan();
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e6,
            initial_latency_us: 1000,
        };
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(DelayedSource::new(1, "l", schema("l"), tuples(100), &model)),
            Box::new(DelayedSource::new(2, "r", schema("r"), tuples(100), &model)),
        ];
        let driver = SimDriver::new(16, CpuCostModel::Zero);
        let (out, report) = driver.run(&mut plan, &mut sources).unwrap();
        assert_eq!(out.len(), 100);
        assert!(report.virtual_us >= 1000);
        assert!(report.idle_us > 0);
    }

    #[test]
    fn wall_clock_driver_really_waits_and_matches_virtual_answer() {
        use tukwila_stats::WallClock;
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 2e6,
            initial_latency_us: 20_000, // 20 timeline ms up front
        };
        let mk = || -> Vec<Box<dyn Source>> {
            vec![
                Box::new(DelayedSource::new(1, "l", schema("l"), tuples(100), &model)),
                Box::new(DelayedSource::new(2, "r", schema("r"), tuples(100), &model)),
            ]
        };
        let mut plan_v = join_plan();
        let (out_v, _) = SimDriver::new(16, CpuCostModel::Zero)
            .run(&mut plan_v, &mut mk())
            .unwrap();

        // 10× acceleration: the 20ms initial latency costs ~2ms real, a
        // window no scheduler hiccup before the first poll can cover, so
        // the driver always finds the sources not yet ready and idles.
        let clock = std::sync::Arc::new(WallClock::accelerated(10.0));
        let start = Instant::now();
        let mut plan_w = join_plan();
        let (out_w, report) = SimDriver::new(16, CpuCostModel::Measured)
            .with_clock(clock)
            .run(&mut plan_w, &mut mk())
            .unwrap();
        assert!(
            start.elapsed().as_micros() >= 1500,
            "the initial latency must cost real time"
        );
        assert_eq!(out_w.len(), out_v.len(), "same join result in both modes");
        assert!(report.virtual_us >= 20_000, "timeline covers the latency");
        assert!(report.idle_us > 0, "waiting was accounted as idle");
    }

    #[test]
    fn virtual_driver_polls_only_due_sources() {
        // Every tuple of `l` arrives at 1000 µs and every tuple of `r` at
        // 3000 µs (an effectively infinite link after the latency).
        let at = |latency_us| DelayModel::Bandwidth {
            bytes_per_sec: 1e12,
            initial_latency_us: latency_us,
        };
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(DelayedSource::new(
                1,
                "l",
                schema("l"),
                tuples(4),
                &at(1000),
            )),
            Box::new(DelayedSource::new(
                2,
                "r",
                schema("r"),
                tuples(4),
                &at(3000),
            )),
        ];
        let (out, report) = SimDriver::new(2, CpuCostModel::Zero)
            .run(&mut join_plan(), &mut sources)
            .unwrap();
        assert_eq!(out.len(), 4);
        // t=0: both pending (2 polls), wake to 1000. t=1000: `l` ready,
        // ready, EOF (3 polls) while `r` waits out its promise; wake to
        // 3000. t=3000: `r` ready, ready, EOF (3 polls). Re-polling `r`
        // at every t=1000 sweep would cost 3 more.
        assert_eq!((report.polls, report.wakes, report.batches), (8, 2, 4));
        assert_eq!(report.virtual_us, 3000);
    }

    #[test]
    fn zero_batch_size_is_a_plan_error() {
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(MemSource::new(1, "l", schema("l"), tuples(4))),
            Box::new(MemSource::new(2, "r", schema("r"), tuples(4))),
        ];
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = SimDriver::new(0, CpuCostModel::Zero).run(&mut join_plan(), &mut sources);
            let _ = tx.send(run.map(|_| ()));
        });
        let run = rx
            .recv_timeout(std::time::Duration::from_secs(3))
            .expect("a zero batch size must not livelock the driver");
        assert!(matches!(run, Err(Error::Plan(_))), "{run:?}");
    }

    #[test]
    fn per_tuple_cost_model_is_deterministic() {
        let mut plan_a = join_plan();
        let mut plan_b = join_plan();
        let mk = || -> Vec<Box<dyn Source>> {
            vec![
                Box::new(MemSource::new(1, "l", schema("l"), tuples(64))),
                Box::new(MemSource::new(2, "r", schema("r"), tuples(64))),
            ]
        };
        let driver = SimDriver::new(8, CpuCostModel::PerTupleNs(1000));
        let (_, ra) = driver.run(&mut plan_a, &mut mk()).unwrap();
        let (_, rb) = driver.run(&mut plan_b, &mut mk()).unwrap();
        assert_eq!(ra.virtual_us, rb.virtual_us);
        assert!(ra.cpu_us > 0);
    }
}
