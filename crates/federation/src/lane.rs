//! Candidate lanes of a [`FederatedSource`](crate::FederatedSource). An
//! inline lane polls its candidate on the calling thread; a queue lane
//! runs it on its own producer thread behind a bounded
//! [`tukwila_exec::queue_pair`] queue:
//!
//! ```text
//!  candidate 0 thread ──poll──▶ QueueWriter ─┐ (bounded, backpressure)
//!  candidate 1 thread ──poll──▶ QueueWriter ─┤
//!  candidate 2 thread ── parked at gate ─────┤ (standby: activated on stall)
//!                                            ▼
//!                    consumer (engine poll) ── PermutationScheduler
//! ```
//!
//! Queue lanes lose nothing and leak no threads. Standbys park at a gate
//! until activated. A producer `finish`es its queue at EOF, and the
//! consumer sees [`TryRecv::Closed`] only after draining every buffered
//! batch. Completion drops the readers and cancels the gates — blocked
//! producers error out of their send, sleeping ones wake within one
//! bounded clock chunk — and joins every thread before the final `Eof`.
//!
//! A key-scan request (see `FederatedSource`'s split) rides activation.
//! An inline lane applies it directly; a queue lane carries it on the
//! gate, and the producer applies it before its first poll and posts
//! whether the candidate took it, which the consumer waits for when it
//! needs to know.
//!
//! An empty queue answers `Pending` one [`POLL_TICK_US`] ahead: a
//! wall-clock polling tick, not a promise, since the producer may ship at
//! any moment. Queue lanes only run on a wall clock, where the sweep polls
//! every active lane each time; an inline lane's hint is its candidate's
//! own promise.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tukwila_exec::op::IncOp;
use tukwila_exec::queue::{queue_pair, QueueReader, QueueWriter, TryRecv};
use tukwila_relation::{Error, Result, Schema};
use tukwila_source::{Poll, Source, SourceControl, SourceDescriptor};
use tukwila_stats::Clock;

use crate::catalog::FederationConfig;

/// How far ahead (timeline µs) the consumer looks again when a queue
/// lane is empty and no stall deadline is nearer.
pub(crate) const POLL_TICK_US: u64 = 500;

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

/// [`Gate::outcome`] before the producer applied a request (or when
/// there was none).
const NO_OUTCOME: u8 = 0;
const ACCEPTED: u8 = 1;
const REFUSED: u8 = 2;

/// A park/activate/cancel latch for one producer thread, carrying the
/// request to apply on activation.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    cv: Condvar,
    /// The request the producer applies before its first poll.
    request: Mutex<Option<SourceControl>>,
    /// Whether the candidate took the request: [`NO_OUTCOME`] until the
    /// producer applied it, then [`ACCEPTED`] or [`REFUSED`].
    outcome: AtomicU8,
}

impl Gate {
    fn new(initial: GateState, request: Option<SourceControl>) -> Gate {
        Gate {
            state: Mutex::new(initial),
            cv: Condvar::new(),
            request: Mutex::new(request),
            outcome: AtomicU8::new(NO_OUTCOME),
        }
    }

    /// Apply the carried request, if any, and post the outcome.
    fn apply_request(&self, source: &mut dyn Source, now_us: u64) {
        let request = self
            .request
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(request) = request {
            let outcome = match source.control(now_us, request) {
                Ok(()) => ACCEPTED,
                Err(_) => REFUSED,
            };
            self.outcome.store(outcome, Ordering::Release);
            // Under the state lock, so a consumer about to wait cannot
            // miss the wake-up.
            let _state = self.state.lock().unwrap_or_else(|p| p.into_inner());
            self.cv.notify_all();
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
struct QueueLane {
    /// `None` once the lane closed (EOF drained) or the run completed.
    reader: Option<QueueReader>,
    gate: Arc<Gate>,
    handle: Option<JoinHandle<()>>,
    /// Backpressure events recorded by this lane's writer.
    blocked: Arc<AtomicU64>,
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
    gate.apply_request(source.as_mut(), clock.now_us());
    loop {
        if gate.cancelled() {
            return;
        }
        match source.poll(clock.now_us(), batch_cap) {
            Poll::Ready(batch) if batch.is_empty() => {
                // Nothing to ship yet: look again after one tick.
                clock.sleep_toward(clock.now_us() + POLL_TICK_US);
            }
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

enum Kind {
    Inline(Box<dyn Source>),
    Queue(QueueLane),
}

/// One candidate behind the adapter, read inline or through a queue.
pub(crate) struct Lane {
    /// The candidate's registration-time descriptor.
    pub(crate) descriptor: SourceDescriptor,
    kind: Kind,
}

impl Lane {
    /// A lane polling `source` on the calling thread.
    pub(crate) fn inline(source: Box<dyn Source>) -> Lane {
        Lane {
            descriptor: source.descriptor(),
            kind: Kind::Inline(source),
        }
    }

    /// Look at the lane at `now_us`. An inline lane polls its candidate
    /// for up to `max_tuples`; a queue lane takes whatever its producer
    /// buffered, and when that is nothing suggests looking again one
    /// poll tick later — a wall-clock polling tick, not a promise.
    pub(crate) fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
        match &mut self.kind {
            Kind::Inline(source) => source.poll(now_us, max_tuples),
            Kind::Queue(q) => match q.reader.as_ref().map(QueueReader::try_recv_status) {
                Some(TryRecv::Batch(batch)) => Poll::Ready(batch),
                Some(TryRecv::Empty) => Poll::Pending {
                    next_ready_us: now_us + POLL_TICK_US,
                },
                Some(TryRecv::Closed) | None => Poll::Eof,
            },
        }
    }

    /// The scheduler activated this candidate at `now_us`, with an
    /// optional request. An inline lane applies the request now and
    /// answers whether the candidate took it; a queue lane opens its gate
    /// with the request on it and answers `None`: its producer applies
    /// the request before its first poll (see
    /// [`Lane::request_accepted`]).
    pub(crate) fn activate(&mut self, now_us: u64, request: Option<SourceControl>) -> Option<bool> {
        match &mut self.kind {
            Kind::Inline(source) => request.map(|r| source.control(now_us, r).is_ok()),
            Kind::Queue(q) => {
                *q.gate.request.lock().unwrap_or_else(|p| p.into_inner()) = request;
                q.gate.set(GateState::Active);
                None
            }
        }
    }

    /// A queue lane's request outcome, waiting for its producer to post
    /// it: `Some(true)` taken, `Some(false)` refused. The producer applies
    /// the request first thing once its gate opens, so the wait is one
    /// thread wake-up. `None` for inline lanes (they answer at
    /// activation), and for a producer that was cancelled or ended before
    /// it applied the request. Only ask a lane activated with a request.
    pub(crate) fn request_accepted(&self) -> Option<bool> {
        let Kind::Queue(q) = &self.kind else {
            return None;
        };
        let gate = &q.gate;
        let mut state = gate.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match gate.outcome.load(Ordering::Acquire) {
                ACCEPTED => return Some(true),
                REFUSED => return Some(false),
                _ => {}
            }
            let ended = q.handle.as_ref().is_none_or(JoinHandle::is_finished);
            if *state == GateState::Cancelled || ended {
                return None;
            }
            let tick = std::time::Duration::from_millis(1);
            state = gate
                .cv
                .wait_timeout(state, tick)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }

    /// Times the producer found its queue full (always 0 inline).
    pub(crate) fn blocked_sends(&self) -> u64 {
        match &self.kind {
            Kind::Inline(_) => 0,
            Kind::Queue(q) => q.blocked.load(Ordering::Relaxed),
        }
    }

    /// The lane reported end of stream on its own. A queue lane joins its
    /// producer here: a producer that panicked mid-stream also drops its
    /// writer, and reading that as EOF would silently truncate the union,
    /// so the panic is re-raised on the consumer thread instead.
    pub(crate) fn closed(&mut self) {
        if let Kind::Queue(q) = &mut self.kind {
            q.reader = None;
            if let Err(payload) = q.handle.take().map_or(Ok(()), JoinHandle::join) {
                let name = &self.descriptor.name;
                eprintln!("federation candidate '{name}' producer thread panicked");
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// Stop a queue lane's producer without joining: cancel the gate
    /// (wakes a parked standby), drop the reader (errors a blocked send).
    pub(crate) fn shutdown(&mut self) {
        if let Kind::Queue(q) = &mut self.kind {
            q.gate.set(GateState::Cancelled);
            q.reader = None;
        }
    }

    /// Join after a shutdown *we* initiated (completion, drop, spawn
    /// failure). A panic here is a loser lane dying after the union was
    /// already decided, so it cannot have corrupted the answer; swallow
    /// it rather than abort a successful query (or double-panic a drop).
    pub(crate) fn join(&mut self) {
        if let Kind::Queue(QueueLane { handle, .. }) = &mut self.kind {
            let _ = handle.take().map(JoinHandle::join);
        }
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.shutdown();
        self.join();
    }
}

/// Spawn one queue lane per candidate; only candidate 0 starts active,
/// carrying `first_request`, and the others park at their gates until
/// the scheduler hedges onto them. If a spawn fails, dropping the lanes
/// already started reaps them.
pub(crate) fn spawn_all(
    rel_id: u32,
    candidates: Vec<Box<dyn Source>>,
    mut first_request: Option<SourceControl>,
    schema: &Schema,
    clock: &Arc<dyn Clock>,
    config: &FederationConfig,
) -> Result<Vec<Lane>> {
    let spawn = |(idx, source): (usize, Box<dyn Source>)| {
        let descriptor = source.descriptor();
        let (writer, reader) = queue_pair(schema.clone(), config.queue_capacity);
        let blocked = writer.blocked_handle();
        let gate = if idx == 0 {
            Gate::new(GateState::Active, first_request.take())
        } else {
            Gate::new(GateState::Standby, None)
        };
        let gate = Arc::new(gate);
        let (thread_clock, thread_gate) = (clock.clone(), gate.clone());
        let batch_cap = config.producer_batch.max(1);
        let handle = std::thread::Builder::new()
            .name(format!("fed-{rel_id}-lane{idx}"))
            .spawn(move || run_lane(source, thread_clock, thread_gate, writer, batch_cap))
            .map_err(|e| {
                Error::Exec(format!(
                    "relation {rel_id}: spawning federation lane {idx} failed: {e}"
                ))
            })?;
        let (reader, handle) = (Some(reader), Some(handle));
        let kind = Kind::Queue(QueueLane {
            reader,
            gate,
            handle,
            blocked,
        });
        Ok(Lane { descriptor, kind })
    };
    candidates.into_iter().enumerate().map(spawn).collect()
}
