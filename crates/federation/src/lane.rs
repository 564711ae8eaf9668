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

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tukwila_exec::op::IncOp;
use tukwila_exec::queue::{queue_pair, QueueReader, QueueWriter, TryRecv};
use tukwila_relation::{Error, Result, Schema};
use tukwila_source::{Poll, Source, SourceDescriptor};
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
    /// poll tick later.
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

    /// The scheduler activated this candidate: open a queue lane's gate.
    pub(crate) fn activate(&self) {
        if let Kind::Queue(q) = &self.kind {
            q.gate.set(GateState::Active);
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
/// the others park at their gates until the scheduler hedges onto them.
/// If a spawn fails, dropping the lanes already started reaps them.
pub(crate) fn spawn_all(
    rel_id: u32,
    candidates: Vec<Box<dyn Source>>,
    schema: &Schema,
    clock: &Arc<dyn Clock>,
    config: &FederationConfig,
) -> Result<Vec<Lane>> {
    let spawn = |(idx, source): (usize, Box<dyn Source>)| {
        let descriptor = source.descriptor();
        let (writer, reader) = queue_pair(schema.clone(), config.queue_capacity);
        let blocked = writer.blocked_handle();
        let initial = if idx == 0 {
            GateState::Active
        } else {
            GateState::Standby
        };
        let gate = Arc::new(Gate::new(initial));
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
