//! Wall-clock concurrent federation: race the candidate mirrors on real
//! threads.
//!
//! The sequential [`FederatedSource`](crate::federated::FederatedSource)
//! *models* hedged reads under the virtual clock: candidates are polled
//! one at a time and "racing" is an accounting fiction. This module makes
//! the race real. [`ConcurrentFederatedSource`] runs every candidate on
//! its own producer thread behind a bounded
//! [`tukwila_exec::queue_pair`] queue:
//!
//! ```text
//!  candidate 0 thread ──poll──▶ QueueWriter ─┐ (bounded, backpressure)
//!  candidate 1 thread ──poll──▶ QueueWriter ─┤
//!  candidate 2 thread ── parked at gate ─────┤ (standby: activated on stall)
//!                                            ▼
//!                    consumer (engine poll) ── PermutationScheduler
//!                      try_recv per lane, dedupe by key, re-rank,
//!                      hedge on stall — same logic, real timestamps
//! ```
//!
//! The scheduling brain is byte-for-byte the same
//! [`PermutationScheduler`] / `BehaviorProfile` machinery the sequential
//! adapter uses — only the *timestamps* differ: they come from a shared
//! [`Clock`] (a real, optionally accelerated
//! [`WallClock`](tukwila_stats::WallClock)) instead of the simulated
//! timeline. That is the dual-clock design: identical decisions given
//! identical observations, so a threaded run and a virtual run over the
//! same mirrors must produce the identical deduped answer set even though
//! their interleavings differ on every execution.
//!
//! ## Lifecycle and loss-freedom
//!
//! * Standby candidates are spawned parked at a gate; activation (first
//!   poll, stall hedge, or end-of-stream standby sweep) opens it. A
//!   parked standby costs nothing at its source, matching the sequential
//!   semantics.
//! * A producer pushes until EOF, then `finish`es its queue; the consumer
//!   sees [`TryRecv::Closed`] only after draining every buffered batch,
//!   so a producer finishing (or dying) early never loses in-flight
//!   tuples.
//! * Completion (a full mirror drained, or all candidates EOF) drops the
//!   queue readers and cancels the gates; blocked producers error out of
//!   their send, sleeping producers wake within one bounded clock chunk,
//!   and every thread is joined before `poll` returns the final `Eof` —
//!   no leaked threads, ever.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tukwila_exec::op::IncOp;
use tukwila_exec::queue::{queue_pair, QueueWriter, TryRecv};
use tukwila_relation::{Error, Result, Schema, Tuple};
use tukwila_source::{Poll, Source, SourceDescriptor, SourceProgressView};
use tukwila_stats::{Clock, RateEstimator};

use crate::catalog::FederationConfig;
use crate::federated::{validate_candidates, KeyDedup};
use crate::federated::{CandidateReport, FederationReport};
use crate::scheduler::PermutationScheduler;

/// What a parked producer thread is waiting to hear.
#[derive(Debug, Clone, Copy, PartialEq)]
enum GateState {
    /// Spawned but not yet part of the race.
    Standby,
    /// Racing: poll the candidate, push batches.
    Active,
    /// Shut down: exit without touching the candidate again.
    Cancelled,
}

/// A park/activate/cancel latch for one producer thread.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
}

impl Gate {
    fn new(initial: GateState) -> Gate {
        Gate {
            state: Mutex::new(initial),
            cv: Condvar::new(),
        }
    }

    /// Block until activated; `false` means cancelled instead.
    fn wait_active(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match *s {
                GateState::Active => return true,
                GateState::Cancelled => return false,
                GateState::Standby => {
                    s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
                }
            }
        }
    }

    fn set(&self, to: GateState) {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        // Cancellation is final; activation must not resurrect a lane.
        if *s != GateState::Cancelled {
            *s = to;
        }
        self.cv.notify_all();
    }

    fn cancelled(&self) -> bool {
        *self.state.lock().unwrap_or_else(|p| p.into_inner()) == GateState::Cancelled
    }
}

/// Consumer-side handle to one candidate's producer thread.
struct Lane {
    descriptor: SourceDescriptor,
    /// `None` once the lane closed (EOF drained) or the run completed.
    reader: Option<tukwila_exec::queue::QueueReader>,
    gate: Arc<Gate>,
    handle: Option<JoinHandle<()>>,
    /// Backpressure events recorded by this lane's writer.
    blocked: Arc<AtomicU64>,
}

impl Lane {
    /// Stop the producer: cancel the gate (wakes a parked standby) and
    /// drop the reader (errors a blocked send). Does not join.
    fn shutdown(&mut self) {
        self.gate.set(GateState::Cancelled);
        self.reader = None;
    }

    /// Join after a shutdown *we* initiated (completion, drop, spawn
    /// failure). A panic here is a loser lane dying after the union was
    /// already decided, so it cannot have corrupted the answer; swallow
    /// it rather than abort a successful query (or double-panic a drop).
    fn join(&mut self) {
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Join after the lane closed its queue *on its own* ([`TryRecv::
    /// Closed`]). Here the distinction matters: a clean `finish()` means
    /// EOF, but a producer that panicked mid-stream also drops its writer
    /// — treating that as EOF would silently truncate the union. Re-raise
    /// the producer's panic on the consumer thread instead, exactly as
    /// the sequential adapter would have propagated it.
    fn join_closed(&mut self, candidate: &str) {
        if let Some(h) = self.handle.take() {
            if let Err(payload) = h.join() {
                eprintln!("federation candidate '{candidate}' producer thread panicked");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

/// The producer loop: poll the candidate at the shared clock, push
/// batches into the bounded queue, finish on EOF.
fn run_lane(
    mut source: Box<dyn Source>,
    clock: Arc<dyn Clock>,
    gate: Arc<Gate>,
    mut writer: QueueWriter,
    batch_cap: usize,
) {
    if !gate.wait_active() {
        return;
    }
    loop {
        if gate.cancelled() {
            return;
        }
        match source.poll(clock.now_us(), batch_cap) {
            Poll::Ready(batch) => {
                if writer.send(batch).is_err() {
                    // Consumer hung up (run complete): stop producing.
                    return;
                }
            }
            Poll::Pending { next_ready_us } => {
                // Bounded nap; the loop re-checks cancellation each chunk,
                // so even a dead mirror (next arrival at u64::MAX) shuts
                // down promptly.
                clock.sleep_toward(next_ready_us);
            }
            Poll::Eof => break,
        }
    }
    let _ = writer.finish(&mut Vec::new());
}

/// One relation served by N candidate sources, each racing on its own
/// thread, consumed through the same online permutation scheduler as the
/// sequential adapter. Implements [`Source`], so the engine (driven by
/// the same shared wall clock) runs over it unchanged.
pub struct ConcurrentFederatedSource {
    rel_id: u32,
    name: String,
    schema: Schema,
    config: FederationConfig,
    clock: Arc<dyn Clock>,
    scheduler: PermutationScheduler,
    lanes: Vec<Lane>,
    dedup: KeyDedup,
    /// Deduped tail of an oversized arrival, handed out on later polls so
    /// `Ready` batches respect the engine's `max_tuples`.
    carry: Vec<Tuple>,
    fed_rate: RateEstimator,
    delivered: u64,
    done: bool,
    /// Per-lane blocked-send baselines captured when the consumer
    /// announced a quiesce ([`Source::quiesce_delivery`]); `None` while
    /// polling normally.
    pause_baseline: Option<Vec<u64>>,
    /// Per-lane blocked-send events forgiven because they accrued while
    /// the consumer was quiesced (a corrective plan switch): the lanes
    /// kept racing into their bounded queues with nobody draining, so
    /// that backpressure says nothing about consumer saturation and must
    /// not feed the hedge gate.
    blocked_forgiven: Vec<u64>,
}

impl ConcurrentFederatedSource {
    /// Build over the candidate set for one relation and start the race:
    /// candidate threads are spawned immediately, but only the first
    /// candidate's gate opens — standbys park until the scheduler hedges
    /// onto them. `clock` must be a wall clock shared with whatever
    /// drives the consumer; threaded execution under a virtual clock
    /// would let producer naps teleport the shared timeline.
    pub fn new(
        key_cols: Vec<usize>,
        candidates: Vec<Box<dyn Source>>,
        config: FederationConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<ConcurrentFederatedSource> {
        if !clock.is_wall() {
            return Err(Error::Plan(
                "threaded federation needs a wall clock; use FederatedSource for \
                 virtual-clock runs"
                    .into(),
            ));
        }
        let (rel_id, schema) = validate_candidates(&key_cols, &candidates)?;
        let name = format!("fed-mt({}×{})", candidates[0].name(), candidates.len());
        let mut scheduler = PermutationScheduler::new(candidates.len(), config.clone());
        scheduler.set_coverage(
            candidates
                .iter()
                .map(|c| c.descriptor().key_range)
                .collect(),
        );
        scheduler.set_declared_rates(
            candidates
                .iter()
                .map(|c| c.descriptor().declared_rate_tuples_per_sec)
                .collect(),
        );
        // Threaded mode: the hedge gate's busy-core waste term. A lone
        // query owns the host; under a serving front end the config
        // carries the query's fair share of the global core-arbiter
        // budget instead (fixed at admission, so decisions stay a pure
        // function of the timeline).
        scheduler.set_core_budget(
            config
                .core_budget
                .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        );
        scheduler.set_identity(
            name.clone(),
            candidates.iter().map(|c| c.name().to_string()).collect(),
        );
        // Serving mode: snapshot the cross-query learning store at
        // admission (see the sequential adapter; identical contract).
        if let Some(store) = config.learning.clone() {
            let names: Vec<String> = candidates.iter().map(|c| c.name().to_string()).collect();
            scheduler.seed_learned(store.snapshot(&names));
        }
        let mut lanes: Vec<Lane> = Vec::with_capacity(candidates.len());
        for (idx, source) in candidates.into_iter().enumerate() {
            let descriptor = source.descriptor();
            let (writer, reader) = queue_pair(schema.clone(), config.queue_capacity);
            let blocked = writer.blocked_handle();
            // Candidate 0 is active from the start (the scheduler
            // activated it in `new`); everyone else parks.
            let gate = Arc::new(Gate::new(if idx == 0 {
                GateState::Active
            } else {
                GateState::Standby
            }));
            let thread_clock = clock.clone();
            let thread_gate = gate.clone();
            let batch_cap = config.producer_batch.max(1);
            let spawned = std::thread::Builder::new()
                .name(format!("fed-{rel_id}-lane{idx}"))
                .spawn(move || run_lane(source, thread_clock, thread_gate, writer, batch_cap));
            match spawned {
                Ok(handle) => lanes.push(Lane {
                    descriptor,
                    reader: Some(reader),
                    gate,
                    handle: Some(handle),
                    blocked,
                }),
                Err(e) => {
                    // Thread-resource exhaustion mid-construction: the
                    // lanes already spawned are parked (or producing into
                    // queues nobody will read). Reap them before failing,
                    // or they'd block at their gates forever.
                    for lane in &mut lanes {
                        lane.shutdown();
                    }
                    for lane in &mut lanes {
                        lane.join();
                    }
                    return Err(Error::Exec(format!(
                        "relation {rel_id}: spawning federation lane {idx} failed: {e}"
                    )));
                }
            }
        }
        let nlanes = lanes.len();
        Ok(ConcurrentFederatedSource {
            rel_id,
            name,
            schema,
            config,
            clock,
            scheduler,
            lanes,
            dedup: KeyDedup::new(rel_id, key_cols),
            carry: Vec::new(),
            fed_rate: RateEstimator::default(),
            delivered: 0,
            done: false,
            pause_baseline: None,
            blocked_forgiven: vec![0; nlanes],
        })
    }

    /// The online permutation scheduler driving this adapter.
    pub fn scheduler(&self) -> &PermutationScheduler {
        &self.scheduler
    }

    /// Per-candidate statistics snapshot, same shape as the sequential
    /// adapter's (available mid-run or after).
    pub fn report(&self) -> FederationReport {
        FederationReport {
            rel_id: self.rel_id,
            name: self.name.clone(),
            delivered: self.delivered,
            failovers: self.scheduler.failovers(),
            declined_hedges: self.scheduler.declined_hedges(),
            skipped_covered: self.scheduler.skipped_covered(),
            candidates: self
                .lanes
                .iter()
                .zip(self.scheduler.profiles())
                .map(|(lane, p)| CandidateReport {
                    descriptor: lane.descriptor.clone(),
                    delivered: p.delivered,
                    duplicates: p.duplicates,
                    stalls: p.stalls,
                    activated: p.is_active(),
                    eof: p.eof,
                    rate_tuples_per_sec: p.rate.rate_tuples_per_sec(),
                    blocked_sends: lane.blocked.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Blocked-send events forgiven per lane (quiesce windows), for tests.
    #[cfg(test)]
    pub(crate) fn blocked_forgiven(&self) -> &[u64] {
        &self.blocked_forgiven
    }

    /// End the run: stop every producer and join it. Idempotent.
    fn complete(&mut self) {
        if !self.done {
            self.trace_completion();
            // Publication rides the same exactly-once edge (an abandoned
            // run publishes what it saw on drop — partial evidence beats
            // none, and the scheduler's flag keeps it single-shot).
            self.scheduler.publish_learning();
        }
        self.done = true;
        for lane in &mut self.lanes {
            lane.shutdown();
        }
        for lane in &mut self.lanes {
            lane.join();
        }
    }

    /// Journal the end-of-union tallies — distinct tuples, dedup hits,
    /// stalls, and per-lane blocked sends (the real backpressure the
    /// hedge gate priced). One bounded set of events per relation.
    fn trace_completion(&self) {
        let trace = &self.config.trace;
        if !trace.is_enabled() {
            return;
        }
        let dup: u64 = self.scheduler.profiles().iter().map(|p| p.duplicates).sum();
        let stalls: u64 = self.scheduler.profiles().iter().map(|p| p.stalls).sum();
        trace.counter("tuples", self.name.clone(), self.delivered);
        trace.counter("dedup_hits", self.name.clone(), dup);
        trace.counter("stalls", self.name.clone(), stalls);
        for lane in &self.lanes {
            trace.counter(
                "blocked_sends",
                lane.descriptor.name.clone(),
                lane.blocked.load(Ordering::Relaxed),
            );
        }
    }

    fn open_gate(&self, idx: usize) {
        self.lanes[idx].gate.set(GateState::Active);
    }

    /// Hand out up to `max_tuples` of an already-deduped batch, parking
    /// the tail in `carry`.
    fn emit(&mut self, mut fresh: Vec<Tuple>, max_tuples: usize) -> Poll {
        let cap = max_tuples.max(1);
        if fresh.len() > cap {
            self.carry = fresh.split_off(cap);
        }
        Poll::Ready(fresh)
    }
}

impl Source for ConcurrentFederatedSource {
    fn rel_id(&self) -> u32 {
        self.rel_id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
        if self.done {
            return Poll::Eof;
        }
        if !self.carry.is_empty() {
            let cap = max_tuples.max(1).min(self.carry.len());
            let rest = self.carry.split_off(cap);
            let head = std::mem::replace(&mut self.carry, rest);
            return Poll::Ready(head);
        }
        // Real time is authoritative; the driver's argument only matters
        // under the (rejected) virtual clock.
        let now_us = self.clock.observe(now_us);
        // Restarts mirror the sequential sweep: each one either consumed
        // candidate data (all-duplicates batch), shrank the candidate set
        // (EOF), or grew it (activation) — all bounded, so it terminates.
        'sweep: loop {
            let order = self.scheduler.polling_order(now_us);
            if order.is_empty() {
                if let Some(idx) = self.scheduler.activate_standby(now_us) {
                    self.open_gate(idx);
                    continue 'sweep;
                }
                self.complete();
                return Poll::Eof;
            }
            for idx in order {
                let status = match &self.lanes[idx].reader {
                    Some(r) => r.try_recv_status(),
                    None => TryRecv::Closed,
                };
                match status {
                    TryRecv::Batch(batch) => {
                        let raw = batch.len() as u64;
                        let fresh = self
                            .dedup
                            .filter(idx, &self.lanes[idx].descriptor.name, batch);
                        self.scheduler
                            .note_arrival(idx, now_us, raw, fresh.len() as u64);
                        if fresh.is_empty() {
                            // Entire batch was already delivered by a
                            // faster replica; look again immediately.
                            continue 'sweep;
                        }
                        self.delivered += fresh.len() as u64;
                        self.fed_rate.observe_arrival(now_us, fresh.len() as u64);
                        return self.emit(fresh, max_tuples);
                    }
                    TryRecv::Empty => {
                        // Refresh the gate's backpressure evidence with
                        // this lane's real blocked-send count — minus the
                        // events forgiven because they accrued while the
                        // consumer was quiesced — before any hedge
                        // decision.
                        self.scheduler.note_backpressure(
                            idx,
                            self.lanes[idx]
                                .blocked
                                .load(Ordering::Relaxed)
                                .saturating_sub(self.blocked_forgiven[idx]),
                        );
                        if let Some(new_idx) = self.scheduler.on_pending(idx, now_us) {
                            if std::env::var_os("TUKWILA_DEBUG").is_some() {
                                eprintln!(
                                    "[fed-mt {}] lane {idx} silent {}µs -> hedging onto lane {new_idx}",
                                    self.rel_id,
                                    self.scheduler.profiles()[idx]
                                        .silence_us(now_us)
                                        .unwrap_or(0),
                                );
                            }
                            self.open_gate(new_idx);
                            continue 'sweep;
                        }
                    }
                    TryRecv::Closed => {
                        // The queue only closes when the producer thread
                        // is exiting; join it and re-raise a panic so a
                        // dying mirror reads as a failure, not as EOF.
                        let name = self.lanes[idx].descriptor.name.clone();
                        self.lanes[idx].join_closed(&name);
                        self.scheduler.note_eof(idx);
                        self.lanes[idx].reader = None;
                        if self.lanes[idx].descriptor.complete {
                            // A fully drained full mirror: the union is
                            // complete, stop the race.
                            self.complete();
                            return Poll::Eof;
                        }
                        continue 'sweep;
                    }
                }
            }
            // Every active lane is empty: wake at the nearest stall
            // deadline, or after one poll tick to look for new arrivals.
            let tick = now_us + self.config.poll_tick_us.max(1);
            let wake = self
                .scheduler
                .next_deadline_us(now_us)
                .map_or(tick, |d| d.min(tick));
            return Poll::Pending {
                next_ready_us: wake.max(now_us + 1),
            };
        }
    }

    fn progress(&self) -> SourceProgressView {
        SourceProgressView {
            tuples_read: self.delivered,
            // Cardinality of the deduped union is unknown until EOF.
            fraction_read: None,
            eof: self.done,
        }
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            rel_id: self.rel_id,
            name: self.name.clone(),
            complete: true,
            key_range: None,
            declared_rate_tuples_per_sec: None,
        }
    }

    fn observed_rate(&self) -> Option<f64> {
        self.fed_rate.rate_tuples_per_sec()
    }

    fn observed_schedule(&self) -> Option<tukwila_stats::ArrivalSchedule> {
        tukwila_stats::ArrivalSchedule::from_estimator(&self.fed_rate)
    }

    fn recalibrate_delivery_costs(&mut self, costs: &tukwila_stats::DeliveryCosts) {
        self.scheduler.set_hedge_costs(costs.clone());
    }

    /// The consumer is about to stop polling through no fault of the
    /// mirrors (a corrective quiesce). The race itself keeps running:
    /// active lanes fill their bounded queues and block, gate-parked
    /// standbys stay parked — nothing is cancelled. Only the accounting
    /// pauses: blocked sends from here to the matching
    /// [`Source::resume_delivery`] are forgiven so the hedge gate does
    /// not read quiesce-induced backpressure as consumer saturation.
    fn quiesce_delivery(&mut self) {
        if self.done || self.pause_baseline.is_some() {
            return;
        }
        self.pause_baseline = Some(
            self.lanes
                .iter()
                .map(|l| l.blocked.load(Ordering::Relaxed))
                .collect(),
        );
    }

    /// Polling resumes after a quiesce: forgive the backpressure events
    /// the pause produced and restart every active lane's stall window at
    /// the resume instant (the silence was the consumer's, not the
    /// mirrors'). Standbys parked at their gates before the quiesce are
    /// still parked — the race continues exactly where it left off.
    fn resume_delivery(&mut self, now_us: u64) {
        if let Some(baseline) = self.pause_baseline.take() {
            for (idx, before) in baseline.into_iter().enumerate() {
                let now_blocked = self.lanes[idx].blocked.load(Ordering::Relaxed);
                self.blocked_forgiven[idx] += now_blocked.saturating_sub(before);
            }
            self.scheduler.note_resume(self.clock.observe(now_us));
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl Drop for ConcurrentFederatedSource {
    fn drop(&mut self) {
        // An abandoned run (error elsewhere, test teardown) must not leak
        // producer threads.
        self.complete();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use tukwila_relation::{DataType, Field, Value};
    use tukwila_source::{DelayModel, DelayedSource};
    use tukwila_stats::WallClock;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("t.k", DataType::Int),
            Field::new("t.v", DataType::Int),
        ])
    }

    fn rows(keys: std::ops::Range<i64>) -> Vec<Tuple> {
        keys.map(|k| Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]))
            .collect()
    }

    fn steady(name: &str, keys: std::ops::Range<i64>, bps: f64) -> Box<dyn Source> {
        Box::new(DelayedSource::new(
            1,
            name,
            schema(),
            rows(keys),
            &DelayModel::Bandwidth {
                bytes_per_sec: bps,
                initial_latency_us: 1_000,
            },
        ))
    }

    fn wall() -> Arc<dyn Clock> {
        // Generous acceleration keeps these unit tests in the tens of
        // milliseconds.
        Arc::new(WallClock::accelerated(200.0))
    }

    /// Drive like the wall-clock SimDriver: poll, really wait on pending.
    fn drain(fed: &mut ConcurrentFederatedSource, clock: &Arc<dyn Clock>) -> Vec<i64> {
        let mut keys = Vec::new();
        loop {
            match fed.poll(clock.now_us(), 64) {
                Poll::Ready(batch) => {
                    keys.extend(batch.iter().map(|t| t.get(0).as_int().unwrap()));
                }
                Poll::Pending { next_ready_us } => {
                    clock.sleep_toward(next_ready_us);
                }
                Poll::Eof => return keys,
            }
        }
    }

    #[test]
    fn rejects_virtual_clocks() {
        let err = ConcurrentFederatedSource::new(
            vec![0],
            vec![steady("m", 0..10, 1e6)],
            FederationConfig::default(),
            Arc::new(tukwila_stats::VirtualClock::new()),
        );
        assert!(err.is_err());
    }

    #[test]
    fn single_candidate_streams_through() {
        let clock = wall();
        let mut fed = ConcurrentFederatedSource::new(
            vec![0],
            vec![steady("m0", 0..200, 2e6)],
            FederationConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let mut keys = drain(&mut fed, &clock);
        keys.sort_unstable();
        assert_eq!(keys, (0..200).collect::<Vec<_>>());
        let report = fed.report();
        assert_eq!(report.delivered, 200);
        assert_eq!(report.failovers, 0);
        assert!(fed.progress().eof);
    }

    #[test]
    fn dead_primary_hedges_onto_backup_no_loss_no_dupes() {
        let clock = wall();
        // Primary never delivers anything; backup mirrors the relation.
        let dead: Box<dyn Source> = Box::new(DelayedSource::new(
            1,
            "dead",
            schema(),
            rows(0..50),
            &DelayModel::Bandwidth {
                bytes_per_sec: 1e-3, // first tuple ~years away
                initial_latency_us: u32::MAX as u64,
            },
        ));
        let mut fed = ConcurrentFederatedSource::new(
            vec![0],
            vec![dead, steady("backup", 0..50, 2e6)],
            FederationConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let keys = drain(&mut fed, &clock);
        let delivered = keys.len();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), delivered, "no duplicates reached the engine");
        assert_eq!(sorted, (0..50).collect::<Vec<_>>(), "no lost tuples");
        let report = fed.report();
        assert_eq!(report.failovers, 1, "exactly one hedge onto the backup");
        assert!(report.candidates[1].activated);
    }

    #[test]
    fn drop_mid_run_joins_all_threads_promptly() {
        let clock = wall();
        let mut fed = ConcurrentFederatedSource::new(
            vec![0],
            vec![
                steady("a", 0..5_000, 1e5),
                steady("b", 0..5_000, 1e5),
                steady("c", 0..5_000, 1e5),
            ],
            FederationConfig::default(),
            clock.clone(),
        )
        .unwrap();
        // Consume a little, then abandon the run.
        let _ = fed.poll(clock.now_us(), 16);
        let start = std::time::Instant::now();
        drop(fed);
        assert!(
            start.elapsed() < std::time::Duration::from_secs(2),
            "drop must cancel and join every lane thread quickly"
        );
    }

    #[test]
    #[should_panic(expected = "mirror exploded")]
    fn producer_panic_propagates_instead_of_reading_as_eof() {
        use tukwila_source::SourceProgressView;
        /// Delivers a few tuples, then dies. A dying full mirror must
        /// abort the query (as it would sequentially), not silently
        /// truncate the union: its writer drop is indistinguishable from
        /// clean EOF at the queue level, so the consumer re-raises the
        /// panic from the joined thread.
        struct Exploding {
            schema: Schema,
            sent: i64,
        }
        impl Source for Exploding {
            fn rel_id(&self) -> u32 {
                1
            }
            fn name(&self) -> &str {
                "exploding"
            }
            fn schema(&self) -> &Schema {
                &self.schema
            }
            fn poll(&mut self, _now_us: u64, _max: usize) -> Poll {
                if self.sent >= 10 {
                    panic!("mirror exploded");
                }
                self.sent += 1;
                Poll::Ready(vec![rows(self.sent - 1..self.sent).remove(0)])
            }
            fn progress(&self) -> SourceProgressView {
                SourceProgressView {
                    tuples_read: self.sent as u64,
                    fraction_read: None,
                    eof: false,
                }
            }
        }
        let clock = wall();
        let mut fed = ConcurrentFederatedSource::new(
            vec![0],
            vec![Box::new(Exploding {
                schema: schema(),
                sent: 0,
            })],
            FederationConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let _ = drain(&mut fed, &clock);
    }

    /// Lets the wrapped source deliver one batch, then holds it `Pending`
    /// until `open` is raised.
    struct Gated {
        inner: Box<dyn Source>,
        delivered_one: bool,
        open: Arc<AtomicBool>,
    }

    impl Source for Gated {
        fn rel_id(&self) -> u32 {
            self.inner.rel_id()
        }

        fn name(&self) -> &str {
            self.inner.name()
        }

        fn schema(&self) -> &Schema {
            self.inner.schema()
        }

        fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
            if self.delivered_one && !self.open.load(Ordering::Acquire) {
                return Poll::Pending {
                    next_ready_us: now_us + 2_000,
                };
            }
            let polled = self.inner.poll(now_us, max_tuples);
            self.delivered_one |= matches!(polled, Poll::Ready(_));
            polled
        }

        fn progress(&self) -> SourceProgressView {
            self.inner.progress()
        }
    }

    #[test]
    fn quiesce_forgives_pause_backpressure_and_loses_nothing() {
        let clock = wall();
        let cfg = FederationConfig {
            queue_capacity: 1,
            producer_batch: 8,
            ..Default::default()
        };
        let open = Arc::new(AtomicBool::new(false));
        let gated = Gated {
            inner: steady("m0", 0..400, 5e6),
            delivered_one: false,
            open: open.clone(),
        };
        let mut fed =
            ConcurrentFederatedSource::new(vec![0], vec![Box::new(gated)], cfg, clock.clone())
                .unwrap();
        // Pull the one batch the gate lets through: the queue is then
        // empty and the lane waits on the gate, not on a send, so the
        // blocked-send count cannot move before the pause begins.
        let mut keys: Vec<i64> = Vec::new();
        loop {
            match fed.poll(clock.now_us(), 64) {
                Poll::Ready(b) => {
                    keys.extend(b.iter().map(|t| t.get(0).as_int().unwrap()));
                    break;
                }
                Poll::Pending { next_ready_us } => {
                    clock.sleep_toward(next_ready_us);
                }
                Poll::Eof => panic!("400 tuples cannot be done after one batch"),
            }
        }
        fed.quiesce_delivery();
        let before = fed.report().candidates[0].blocked_sends;
        // Open the gate during the pause: the lane races into its one-slot
        // queue with nobody draining, so its sends must block. Wait until
        // they demonstrably have.
        open.store(true, Ordering::Release);
        while fed.report().candidates[0].blocked_sends == before {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        fed.resume_delivery(clock.now_us());
        let forgiven = fed.blocked_forgiven()[0];
        assert!(
            forgiven > 0,
            "backpressure accrued during the pause must be forgiven"
        );
        // The race resumes where it left off: the rest of the relation
        // arrives exactly once.
        keys.extend(drain(&mut fed, &clock));
        keys.sort_unstable();
        assert_eq!(keys, (0..400).collect::<Vec<_>>());
        assert_eq!(fed.report().failovers, 0, "a quiesce is not a stall");
    }

    #[test]
    fn oversized_arrivals_are_carried_not_truncated() {
        let clock = wall();
        let cfg = FederationConfig {
            producer_batch: 64,
            ..Default::default()
        };
        let mut fed = ConcurrentFederatedSource::new(
            vec![0],
            vec![steady("m", 0..64, 1e9)],
            cfg,
            clock.clone(),
        )
        .unwrap();
        let mut keys = Vec::new();
        loop {
            match fed.poll(clock.now_us(), 10) {
                Poll::Ready(b) => {
                    assert!(b.len() <= 10, "Ready respects max_tuples");
                    keys.extend(b.iter().map(|t| t.get(0).as_int().unwrap()));
                }
                Poll::Pending { next_ready_us } => {
                    clock.sleep_toward(next_ready_us);
                }
                Poll::Eof => break,
            }
        }
        keys.sort_unstable();
        assert_eq!(keys, (0..64).collect::<Vec<_>>());
    }
}
