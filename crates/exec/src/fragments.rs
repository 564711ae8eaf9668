//! Plan fragments: an operator tree split at exchange boundaries, run
//! inline or as racing parallel subplans over
//! [`queue_pair`](crate::queue::queue_pair()) (the §5 parallel-subplan
//! configuration).
//!
//! A [`FragmentPlan`] is an operator tree split into *pipeline fragments*
//! at **exchange** boundaries. Each fragment is an ordinary
//! [`PipelinePlan`] whose leaves bind either real source relations or
//! exchange streams (identified by synthetic relation ids at
//! [`EXCHANGE_REL_BASE`]); a fragment's root output feeds the consumer
//! fragment's exchange leaf. One [`FragmentRun`] lifecycle — start, poll
//! the root's sources and exchanges, observe, quiesce, resume, seal —
//! executes it in either mode of the dual-clock design:
//!
//! * **Inline** ([`FragmentRun::inline`],
//!   [`SimDriver::run_fragments_sequential`]): zero producer threads.
//!   Every fragment runs on the calling thread and a batch produced by
//!   one fragment is pushed into its consumer immediately, so the
//!   execution is byte-for-byte the cascade of the unfragmented plan —
//!   deterministic under a [`tukwila_stats::VirtualClock`]. Every source
//!   is a root source and a quiesce succeeds at once.
//! * **Threaded** ([`FragmentRun::spawn`],
//!   [`SimDriver::run_fragments_threaded`]): every producer fragment runs
//!   on its own thread, shipping root output as columns through a bounded
//!   [`queue_pair`](crate::queue::queue_pair()) queue that the consumer
//!   reads as an ordinary [`Source`] ([`ExchangeSource`]). A CPU-heavy
//!   join subtree then genuinely overlaps a slow federated scan — the
//!   driver thread can block on a delivery-bound relation while another
//!   core burns through the build side.
//!
//! Both modes seal the same way: the fragments are reassembled into the
//! inline executor, whatever was in flight across exchanges (nothing,
//! inline) is pushed through it, and every pipeline is sealed.
//!
//! ## EOF, shutdown, and panic semantics
//!
//! The threaded mode reuses the lifecycle discipline of the threaded
//! federation layer (the queue lanes of `federation::FederatedSource`):
//!
//! * A producer fragment `finish`es its queue only after all of its own
//!   inputs reached EOF and its pipeline flushed; the consumer sees
//!   [`TryRecv::Closed`] only after
//!   draining every buffered batch — a producer finishing early never
//!   loses in-flight tuples.
//! * If the consumer side fails, dropping its [`ExchangeSource`]s hangs
//!   up the queues; blocked producers error out of their send and exit,
//!   and every thread is joined before the driver returns.
//! * A panicking producer thread also drops its writer, which at the
//!   queue level is indistinguishable from clean EOF. The driver
//!   therefore joins every fragment thread before returning and
//!   re-raises the first panic on the calling thread, so a dying
//!   fragment reads as a failure — never as a silently truncated answer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use tukwila_relation::{Error, Result, Schema, Tuple};
use tukwila_source::{Poll, Source, SourceDescriptor, SourceProgressView};
use tukwila_stats::trace::SpanKind;
use tukwila_stats::{Clock, TraceSink};

use crate::driver::{charged_cost, CpuCostModel, PushTarget, SimDriver, Timeline};
use crate::metrics::ExecReport;
use crate::op::{Batch, DataBatch, IncOp};
use crate::plan::{NodeObservation, PipelinePlan, SealedState};
use crate::queue::{queue_pair, QueueReader, QueueWriter, TryRecv, TryRecvData};

/// First synthetic relation id used for exchange streams. Real base
/// relations live far below this; the two id spaces never collide.
pub const EXCHANGE_REL_BASE: u32 = 0xF000_0000;

/// Whether a leaf relation id names an exchange stream rather than a real
/// base relation.
pub fn is_exchange(rel_id: u32) -> bool {
    rel_id >= EXCHANGE_REL_BASE
}

/// Tunables of threaded fragment execution.
#[derive(Debug, Clone)]
pub struct FragmentOptions {
    /// Bounded depth (in batches) of each exchange queue. A full queue
    /// blocks the producer fragment (backpressure) until the consumer
    /// catches up.
    pub queue_capacity: usize,
    /// How far ahead (timeline µs) an [`ExchangeSource`] schedules its
    /// next look when its queue is empty. Smaller reacts faster, wakes
    /// more. Also the retry tick of a producer whose exchange send found
    /// the queue full.
    pub poll_tick_us: u64,
    /// Timeline budget for a quiesce: how long
    /// [`FragmentRun::quiesce`] waits for every producer to park
    /// at a batch boundary before giving up (the caller then resumes the
    /// producers and abandons the plan switch instead of blocking the
    /// query). Producers park within one poll sweep plus one bounded
    /// clock chunk, so this only ever bites on a wedged source.
    pub quiesce_timeout_us: u64,
    /// Adaptivity trace journal. Producer fragments bracket their
    /// lifetimes in [`SpanKind::Fragment`] spans and tally per-exchange
    /// backpressure; the quiesce protocol journals its park/drain/seal
    /// sub-steps. Disabled (free) by default.
    pub trace: TraceSink,
    /// Core lease this run charges its producer threads against, when the
    /// query runs under a [`tukwila_stats::CoreArbiter`] shared with other
    /// queries. Spawning never blocks on the arbiter — correctness needs
    /// the threads — so the run `try_acquire`s its producer count (taking
    /// whatever is free, possibly zero) and returns those cores when the
    /// threads are joined. The *planning* side of the budget lives in the
    /// optimizer's fragmentation config (`cores`), which callers should
    /// pin to their fair share so over-subscription stays bounded.
    pub lease: Option<tukwila_stats::QueryLease>,
}

impl Default for FragmentOptions {
    fn default() -> Self {
        FragmentOptions {
            queue_capacity: 8,
            poll_tick_us: 200,
            quiesce_timeout_us: 5_000_000,
            trace: TraceSink::disabled(),
            lease: None,
        }
    }
}

/// One pipeline fragment of a [`FragmentPlan`].
pub struct Fragment {
    /// The fragment's operator tree. Leaves bind real source relations
    /// and/or exchange inputs (ids ≥ [`EXCHANGE_REL_BASE`]).
    pub pipeline: PipelinePlan,
    /// The exchange stream this fragment's root output feeds, or `None`
    /// for the root fragment (whose output is the query answer).
    pub output: Option<u32>,
}

impl Fragment {
    /// Real source relations bound by this fragment's leaves.
    pub fn source_rels(&self) -> Vec<u32> {
        self.pipeline
            .leaves()
            .iter()
            .map(|l| l.rel_id)
            .filter(|&r| !is_exchange(r))
            .collect()
    }

    /// Exchange streams this fragment consumes.
    pub fn exchange_inputs(&self) -> Vec<u32> {
        self.pipeline
            .leaves()
            .iter()
            .map(|l| l.rel_id)
            .filter(|&r| is_exchange(r))
            .collect()
    }
}

/// An operator tree split into exchange-connected pipeline fragments.
///
/// Fragments are stored in topological order: every producer precedes its
/// consumer, and the last fragment is the root (its output is the query
/// answer). Built by [`FragmentPlan::new`], validated on construction.
pub struct FragmentPlan {
    fragments: Vec<Fragment>,
}

impl FragmentPlan {
    /// Validate and assemble a fragment plan.
    ///
    /// Requirements: the last fragment (and only it) has `output: None`;
    /// every other fragment outputs a distinct exchange id ≥
    /// [`EXCHANGE_REL_BASE`]; each exchange is consumed by exactly one
    /// *later* fragment; every exchange input has a producer; and each
    /// real source relation is bound by exactly one fragment.
    pub fn new(fragments: Vec<Fragment>) -> Result<FragmentPlan> {
        if fragments.is_empty() {
            return Err(Error::Plan(
                "fragment plan needs at least one fragment".into(),
            ));
        }
        let last = fragments.len() - 1;
        let mut producers: HashMap<u32, usize> = HashMap::new();
        let mut owners: HashMap<u32, usize> = HashMap::new();
        for (i, f) in fragments.iter().enumerate() {
            match f.output {
                None if i != last => {
                    return Err(Error::Plan(format!(
                        "fragment {i} has no output exchange but is not the root"
                    )));
                }
                Some(_) if i == last => {
                    return Err(Error::Plan(
                        "the root fragment must not output an exchange".into(),
                    ));
                }
                Some(ex) => {
                    if !is_exchange(ex) {
                        return Err(Error::Plan(format!(
                            "fragment {i} output {ex} is below EXCHANGE_REL_BASE"
                        )));
                    }
                    if producers.insert(ex, i).is_some() {
                        return Err(Error::Plan(format!("exchange {ex} has two producers")));
                    }
                }
                None => {}
            }
            for rel in f.source_rels() {
                if owners.insert(rel, i).is_some() {
                    return Err(Error::Plan(format!(
                        "relation {rel} is bound by two fragments"
                    )));
                }
            }
        }
        let mut consumed: HashMap<u32, usize> = HashMap::new();
        for (i, f) in fragments.iter().enumerate() {
            for ex in f.exchange_inputs() {
                match producers.get(&ex) {
                    Some(&p) if p < i => {
                        if consumed.insert(ex, i).is_some() {
                            return Err(Error::Plan(format!("exchange {ex} has two consumers")));
                        }
                    }
                    Some(_) => {
                        return Err(Error::Plan(format!(
                            "exchange {ex} consumed before its producer (fragment order)"
                        )));
                    }
                    None => {
                        return Err(Error::Plan(format!("exchange {ex} has no producer")));
                    }
                }
            }
        }
        for (&ex, &p) in &producers {
            if !consumed.contains_key(&ex) {
                return Err(Error::Plan(format!(
                    "exchange {ex} (fragment {p}) has no consumer"
                )));
            }
        }
        Ok(FragmentPlan { fragments })
    }

    /// The fragments, topological order, root last.
    pub fn fragments(&self) -> &[Fragment] {
        &self.fragments
    }

    /// Number of fragments (1 = unfragmented).
    pub fn fragment_count(&self) -> usize {
        self.fragments.len()
    }

    /// The fragment index owning real source relation `rel_id`.
    pub fn fragment_of(&self, rel_id: u32) -> Option<usize> {
        self.fragments
            .iter()
            .position(|f| f.source_rels().contains(&rel_id))
    }
}

/// The fragments a [`FragmentRun`] executes on the calling thread, with
/// immediate handoff: a pushed batch cascades through its owning
/// fragment, any produced batches are pushed across exchange boundaries
/// at once, and root output lands in `out`. Because the handoff is
/// immediate, nothing is ever buffered *between* pushes — a mid-stream
/// plan switch can seal at any batch boundary without losing in-flight
/// exchange tuples.
struct LocalFragments {
    fragments: Vec<Fragment>,
    /// Real relation → owning fragment.
    owner: HashMap<u32, usize>,
    /// Exchange id → consuming fragment.
    consumer: HashMap<u32, usize>,
    /// Unclosed leaf bindings per fragment.
    open_inputs: Vec<usize>,
}

impl LocalFragments {
    fn new(fragments: Vec<Fragment>) -> LocalFragments {
        let mut owner = HashMap::new();
        let mut consumer = HashMap::new();
        let mut open_inputs = Vec::with_capacity(fragments.len());
        for (i, f) in fragments.iter().enumerate() {
            for rel in f.source_rels() {
                owner.insert(rel, i);
            }
            for ex in f.exchange_inputs() {
                consumer.insert(ex, i);
            }
            open_inputs.push(f.pipeline.leaves().len());
        }
        LocalFragments {
            fragments,
            owner,
            consumer,
            open_inputs,
        }
    }

    /// Seal every fragment, extracting each operator's state structures
    /// with plan-wide node ids. State buffered on an exchange leaf carries
    /// the producer subtree's signature, so cross-phase reuse works
    /// across fragment boundaries.
    fn seal(self) -> Vec<SealedState> {
        let mut out = Vec::new();
        let mut offset = 0;
        for f in self.fragments {
            let count = f.pipeline.node_count();
            for mut s in f.pipeline.seal() {
                s.node += offset;
                out.push(s);
            }
            offset += count;
        }
        out
    }

    fn fragment_for(&self, rel_id: u32) -> Result<usize> {
        self.owner
            .get(&rel_id)
            .or_else(|| self.consumer.get(&rel_id))
            .copied()
            .ok_or_else(|| Error::Plan(format!("no fragment binds relation {rel_id}")))
    }

    /// Run `push` against fragment `f`'s pipeline: the root writes
    /// straight into `out`, any other fragment forwards what it produced
    /// across its exchange (recursion depth is bounded by the fragment
    /// count — fragments form a DAG toward the root).
    fn push_into(
        &mut self,
        f: usize,
        out: &mut Batch,
        push: impl FnOnce(&mut PipelinePlan, &mut Batch) -> Result<()>,
    ) -> Result<()> {
        let Some(ex) = self.fragments[f].output else {
            return push(&mut self.fragments[f].pipeline, out);
        };
        let mut produced = Batch::new();
        push(&mut self.fragments[f].pipeline, &mut produced)?;
        self.forward(ex, produced, out)
    }

    /// Push a producer fragment's output across exchange `ex`.
    fn forward(&mut self, ex: u32, produced: Batch, out: &mut Batch) -> Result<()> {
        if produced.is_empty() {
            return Ok(());
        }
        let c = self.consumer[&ex];
        self.push_into(c, out, |p, o| p.push_source(ex, &produced, o))
    }

    fn finish_in(&mut self, f: usize, rel: u32, out: &mut Batch) -> Result<()> {
        self.push_into(f, out, |p, o| p.finish_source(rel, o))?;
        self.open_inputs[f] -= 1;
        if self.open_inputs[f] == 0 {
            // Every input of this fragment closed: its pipeline has
            // flushed, so its output stream ends — close the exchange
            // leaf downstream (which may complete the consumer, and so
            // on up to the root).
            if let Some(ex) = self.fragments[f].output {
                let c = self.consumer[&ex];
                self.finish_in(c, ex, out)?;
            }
        }
        Ok(())
    }
}

impl PushTarget for LocalFragments {
    fn push_source(&mut self, rel_id: u32, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        let f = self.fragment_for(rel_id)?;
        self.push_into(f, out, |p, o| p.push_source(rel_id, batch, o))
    }

    fn push_data(&mut self, rel_id: u32, batch: &DataBatch, out: &mut Batch) -> Result<()> {
        let f = self.fragment_for(rel_id)?;
        self.push_into(f, out, |p, o| p.push_data(rel_id, batch, o))
    }

    fn finish_source(&mut self, rel_id: u32, out: &mut Batch) -> Result<()> {
        let f = self.fragment_for(rel_id)?;
        self.finish_in(f, rel_id, out)
    }
}

/// Outcome of a representation-preserving exchange poll
/// ([`ExchangeSource::poll_data`]): like [`Poll`], but `Ready` carries
/// whichever representation the producer shipped, so a columnar-aware
/// consumer can route columns straight into vectorized kernels.
pub enum ExchangePoll {
    /// A batch was queued, in the representation it was shipped.
    Ready(DataBatch),
    /// Producer alive but quiet; look again at `next_ready_us`.
    Pending {
        /// Timeline µs of the next scheduled look.
        next_ready_us: u64,
    },
    /// Producer finished and the queue drained.
    Eof,
}

impl From<Poll> for ExchangePoll {
    /// A base-relation poll, seen through the same lens: rows are one
    /// representation an input can arrive in.
    fn from(poll: Poll) -> ExchangePoll {
        match poll {
            Poll::Ready(b) => ExchangePoll::Ready(DataBatch::Rows(b)),
            Poll::Pending { next_ready_us } => ExchangePoll::Pending { next_ready_us },
            Poll::Eof => ExchangePoll::Eof,
        }
    }
}

/// The consumer end of an exchange, adapted to the [`Source`] trait so a
/// consumer fragment's driver loop polls it exactly like a base relation:
/// `Ready` while batches are queued (respecting `max_tuples` via a carry
/// buffer), `Pending` one poll tick ahead while the producer is alive but
/// quiet, `Eof` once the producer finished and the queue drained.
pub struct ExchangeSource {
    ex_id: u32,
    name: String,
    schema: Schema,
    reader: Option<QueueReader>,
    carry: Vec<Tuple>,
    poll_tick_us: u64,
    delivered: u64,
    done: bool,
}

impl ExchangeSource {
    /// Wrap the reader half of an exchange queue.
    pub fn new(ex_id: u32, schema: Schema, reader: QueueReader, poll_tick_us: u64) -> Self {
        ExchangeSource {
            ex_id,
            name: format!("exchange-{}", ex_id - EXCHANGE_REL_BASE),
            schema,
            reader: Some(reader),
            carry: Vec::new(),
            poll_tick_us: poll_tick_us.max(1),
            delivered: 0,
            done: false,
        }
    }

    /// The exchange stream this source reads.
    pub fn exchange_id(&self) -> u32 {
        self.ex_id
    }

    /// Representation-preserving poll: columnar batches shipped by the
    /// producer come back intact (one queue batch at a time — the
    /// producer already bounded it to its batch size), row batches honor
    /// `max_tuples` through the carry buffer exactly like
    /// [`Source::poll`]. The row-level `poll` remains the fallback for
    /// drivers that treat this source like any other relation.
    pub fn poll_data(&mut self, now_us: u64, max_tuples: usize) -> ExchangePoll {
        self.next(now_us, max_tuples, true)
    }

    /// The next batch: the carry tail first, then the queue. Columns stay
    /// columns when `keep_columns`; rows go out at most `max_tuples` at a
    /// time, the rest waiting in the carry buffer.
    fn next(&mut self, now_us: u64, max_tuples: usize, keep_columns: bool) -> ExchangePoll {
        let mut rows = if !self.carry.is_empty() {
            std::mem::take(&mut self.carry)
        } else if self.done {
            return ExchangePoll::Eof;
        } else {
            let status = match &self.reader {
                Some(r) => r.try_recv_data(),
                None => TryRecvData::Closed,
            };
            match status {
                TryRecvData::Batch(DataBatch::Columns(c)) if keep_columns => {
                    self.delivered += c.selected_rows() as u64;
                    return ExchangePoll::Ready(DataBatch::Columns(c));
                }
                TryRecvData::Batch(b) => b.into_rows(),
                TryRecvData::Empty => {
                    return ExchangePoll::Pending {
                        next_ready_us: now_us + self.poll_tick_us,
                    }
                }
                TryRecvData::Closed => {
                    self.done = true;
                    self.reader = None;
                    return ExchangePoll::Eof;
                }
            }
        };
        let cap = max_tuples.max(1);
        if rows.len() > cap {
            self.carry = rows.split_off(cap);
        }
        self.delivered += rows.len() as u64;
        ExchangePoll::Ready(DataBatch::Rows(rows))
    }

    /// Take everything currently buffered on the consumer side of this
    /// exchange: the carry tail plus every batch still queued. Used by
    /// the quiesce protocol's drain step, after the producer stopped
    /// (parked or exited) — nothing races the reads, so `Empty`/`Closed`
    /// really mean the stream is drained.
    pub fn drain_buffered(&mut self) -> Vec<Tuple> {
        let mut out = std::mem::take(&mut self.carry);
        loop {
            let status = match &self.reader {
                Some(r) => r.try_recv_status(),
                None => TryRecv::Closed,
            };
            match status {
                TryRecv::Batch(b) => out.extend(b),
                TryRecv::Empty => break,
                TryRecv::Closed => {
                    self.done = true;
                    self.reader = None;
                    break;
                }
            }
        }
        out
    }
}

impl Source for ExchangeSource {
    fn rel_id(&self) -> u32 {
        self.ex_id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
        match self.next(now_us, max_tuples, false) {
            ExchangePoll::Ready(batch) => Poll::Ready(batch.into_rows()),
            ExchangePoll::Pending { next_ready_us } => Poll::Pending { next_ready_us },
            ExchangePoll::Eof => Poll::Eof,
        }
    }

    fn progress(&self) -> SourceProgressView {
        SourceProgressView {
            tuples_read: self.delivered,
            fraction_read: None,
            eof: self.done,
        }
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            rel_id: self.ex_id,
            name: self.name.clone(),
            complete: true,
            key_range: None,
            declared_rate_tuples_per_sec: None,
        }
    }
}

// ---------------------------------------------------------------------
// The quiesce protocol
// ---------------------------------------------------------------------
//
// State machine of one producer fragment thread (controller view):
//
// ```text
//            request_quiesce            seal
//   running ───────────────▶ quiescing ──────▶ drained/sealed
//      ▲                        │  producer parks at the next
//      │        resume          │  batch boundary and reports
//      └────────────────────────┘  its high-water marks
// ```
//
// A producer only ever stops *between* batches: the quiesce check sits at
// the top of its driver loop, and a send into a full exchange queue is a
// `try_send` retry loop that yields to a pending quiesce with the refused
// batch carried into the parked state — so no tuple is ever stranded
// inside a blocking call, and no batch is half-processed when the
// controller takes the pipelines back.

/// What a producer fragment's quiesce latch currently asks of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuiesceState {
    /// Produce normally.
    Running,
    /// Park at the next batch boundary.
    QuiesceRequested,
    /// Parked; waiting to be resumed or sealed.
    Parked,
    /// Keep producing (a quiesce was abandoned).
    Resume,
    /// Stop at the next boundary and yield the pipeline back.
    Seal,
}

/// Shared latch between one producer thread and the controller.
#[derive(Debug)]
struct QuiesceShared {
    state: Mutex<QuiesceState>,
    cv: Condvar,
    /// Producer ran to natural completion (fragment finished, queue
    /// closed); it will never park, but its yield is ready to join.
    finished: AtomicBool,
    /// CPU µs (timeline) this producer has charged so far, refreshed at
    /// every batch boundary — the controller's warmup `unit_us`
    /// calibration needs whole-plan measured CPU, not just its own.
    cpu_us: AtomicU64,
}

impl QuiesceShared {
    fn new() -> QuiesceShared {
        QuiesceShared {
            state: Mutex::new(QuiesceState::Running),
            cv: Condvar::new(),
            finished: AtomicBool::new(false),
            cpu_us: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QuiesceState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Whether the producer should stop what it is doing at the next
    /// opportunity (a quiesce or seal is pending).
    fn wants_stop(&self) -> bool {
        matches!(
            *self.lock(),
            QuiesceState::QuiesceRequested | QuiesceState::Seal
        )
    }
}

/// Live progress one producer fragment publishes for each real source it
/// owns: readable by the controller while the producer runs (the
/// corrective monitor's view of relations it does not poll itself) and
/// after it parked (the protocol's high-water marks).
#[derive(Debug)]
pub struct FragmentSourceProgress {
    rel_id: u32,
    consumed: AtomicU64,
    eof: AtomicBool,
    /// Bit pattern of the source's `fraction_read` (`f64::NAN` = unknown).
    fraction_bits: AtomicU64,
    /// Latest arrival schedule the source published, if self-profiling.
    schedule: Mutex<Option<tukwila_stats::ArrivalSchedule>>,
}

impl FragmentSourceProgress {
    fn new(rel_id: u32) -> FragmentSourceProgress {
        FragmentSourceProgress {
            rel_id,
            consumed: AtomicU64::new(0),
            eof: AtomicBool::new(false),
            fraction_bits: AtomicU64::new(f64::NAN.to_bits()),
            schedule: Mutex::new(None),
        }
    }

    /// The base relation this progress entry tracks.
    pub fn rel_id(&self) -> u32 {
        self.rel_id
    }

    /// Tuples the producer has pushed into its pipeline from this source
    /// — the high-water mark of the quiesce protocol.
    pub fn consumed(&self) -> u64 {
        self.consumed.load(Ordering::Acquire)
    }

    /// Whether the source reached end of stream.
    pub fn eof(&self) -> bool {
        self.eof.load(Ordering::Acquire)
    }

    /// The source's latest self-reported read fraction, if it knows one.
    pub fn fraction_read(&self) -> Option<f64> {
        let f = f64::from_bits(self.fraction_bits.load(Ordering::Acquire));
        if f.is_nan() {
            None
        } else {
            Some(f)
        }
    }

    /// The source's latest observed arrival schedule, if self-profiling.
    pub fn schedule(&self) -> Option<tukwila_stats::ArrivalSchedule> {
        self.schedule
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    fn refresh(&self, newly_consumed: u64, src: &dyn Source) {
        if newly_consumed > 0 {
            self.consumed.fetch_add(newly_consumed, Ordering::AcqRel);
        }
        let p = src.progress();
        if p.eof {
            self.eof.store(true, Ordering::Release);
        }
        self.fraction_bits.store(
            p.fraction_read.unwrap_or(f64::NAN).to_bits(),
            Ordering::Release,
        );
        if let Some(s) = src.observed_schedule() {
            *self.schedule.lock().unwrap_or_else(|p| p.into_inner()) = Some(s);
        }
    }
}

/// Controller-side handle to one threaded producer fragment: request a
/// park, observe that it happened, read the producer's high-water marks,
/// and resume it. (Sealing goes through [`FragmentRun::seal`],
/// which needs every producer at once to reassemble the plan.)
#[derive(Debug)]
pub struct QuiesceHandle {
    shared: Arc<QuiesceShared>,
    progress: Vec<Arc<FragmentSourceProgress>>,
}

impl QuiesceHandle {
    /// Ask the producer to park at its next batch boundary. Idempotent;
    /// a no-op once the producer finished or a seal is pending.
    pub fn request_quiesce(&self) {
        let mut s = self.shared.lock();
        if *s == QuiesceState::Running || *s == QuiesceState::Resume {
            *s = QuiesceState::QuiesceRequested;
            self.shared.cv.notify_all();
        }
    }

    /// Whether the producer is parked at a batch boundary — or has run to
    /// natural completion, which is just as quiescent.
    pub fn is_stopped(&self) -> bool {
        self.shared.finished.load(Ordering::Acquire) || *self.shared.lock() == QuiesceState::Parked
    }

    /// Abandon a quiesce: wake a parked (or about-to-park) producer and
    /// let it keep producing into the same exchange queue.
    pub fn resume(&self) {
        let mut s = self.shared.lock();
        if matches!(*s, QuiesceState::QuiesceRequested | QuiesceState::Parked) {
            *s = QuiesceState::Resume;
            self.shared.cv.notify_all();
        }
    }

    /// Per-source high-water marks (consumed tuples, EOF, fraction,
    /// latest schedule) this producer reports, in its source order.
    pub fn high_water_marks(&self) -> &[Arc<FragmentSourceProgress>] {
        &self.progress
    }

    /// CPU µs (timeline) this producer has charged so far (live).
    pub fn cpu_us(&self) -> u64 {
        self.shared.cpu_us.load(Ordering::Acquire)
    }

    fn request_seal(&self) {
        let mut s = self.shared.lock();
        *s = QuiesceState::Seal;
        self.shared.cv.notify_all();
    }
}

/// A source owned by one producer fragment thread.
enum ProducerSource {
    /// A caller-provided base-relation source, tagged with the slot it
    /// came from so it can be recovered after a seal.
    Real {
        slot: usize,
        src: Box<dyn Source>,
        progress: Arc<FragmentSourceProgress>,
    },
    /// The consumer end of an upstream exchange (multi-level chains: a
    /// producer feeding another producer).
    Exchange(ExchangeSource),
}

impl ProducerSource {
    fn as_source_mut(&mut self) -> &mut dyn Source {
        match self {
            ProducerSource::Real { src, .. } => src.as_mut(),
            ProducerSource::Exchange(ex) => ex,
        }
    }
}

/// What a producer thread hands back when it stops — by natural
/// completion, a seal, or an error. The pipeline always comes back, so
/// sealing can register its state no matter how the thread ended.
struct ProducerYield {
    frag_index: usize,
    pipeline: PipelinePlan,
    sources: Vec<ProducerSource>,
    report: ExecReport,
    /// Output produced but not yet shipped into the exchange queue (a
    /// quiesce arrived while the queue was full).
    pending: Batch,
    /// A producer-side failure (consumer hangups are recorded as `None`:
    /// benign teardown).
    error: Option<Error>,
}

/// What the producer does after a batch boundary's quiesce check.
#[derive(PartialEq)]
enum Directive {
    Continue,
    Seal,
}

/// The quiesce check at a producer's batch boundary: fast path when
/// running, otherwise park (pausing the sources' own delivery
/// accounting), wait to be resumed or sealed, and resume the sources on
/// the way out.
fn quiesce_point(
    shared: &QuiesceShared,
    sources: &mut [ProducerSource],
    clock: &Arc<dyn Clock>,
) -> Directive {
    {
        let s = shared.lock();
        match *s {
            QuiesceState::Running => return Directive::Continue,
            QuiesceState::Seal => return Directive::Seal,
            _ => {}
        }
    }
    // Parking: tell self-accounting sources (the threaded federation
    // adapter) that the coming silence is ours, not theirs — their races
    // keep running, only the backpressure/stall bookkeeping pauses.
    for s in sources.iter_mut() {
        s.as_source_mut().quiesce_delivery();
    }
    let directive = {
        let mut s = shared.lock();
        loop {
            match *s {
                QuiesceState::QuiesceRequested => {
                    *s = QuiesceState::Parked;
                    shared.cv.notify_all();
                }
                QuiesceState::Parked => {
                    s = shared.cv.wait(s).unwrap_or_else(|p| p.into_inner());
                }
                QuiesceState::Resume | QuiesceState::Running => {
                    *s = QuiesceState::Running;
                    break Directive::Continue;
                }
                QuiesceState::Seal => break Directive::Seal,
            }
        }
    };
    if directive == Directive::Continue {
        let now = clock.now_us();
        for s in sources.iter_mut() {
            s.as_source_mut().resume_delivery(now);
        }
    }
    // On Seal the sources stay paused: they are about to be recovered and
    // re-spawned into the next phase, whose producer resumes them.
    directive
}

/// The quiesce-aware producer driver loop: the standard poll/push/idle
/// sweep over this fragment's sources, with a batch-boundary quiesce
/// check and non-blocking exchange shipping. Always returns its
/// [`ProducerYield`] — the pipeline survives every exit path.
#[allow(clippy::too_many_arguments)]
fn run_producer(
    frag_index: usize,
    ex_id: u32,
    mut pipeline: PipelinePlan,
    mut sources: Vec<ProducerSource>,
    mut writer: QueueWriter,
    shared: Arc<QuiesceShared>,
    clock: Arc<dyn Clock>,
    batch_size: usize,
    cpu: CpuCostModel,
    retry_tick_us: u64,
    trace: TraceSink,
) -> ProducerYield {
    let mut timeline = Timeline::new(Some(clock.clone()));
    let mut report = ExecReport::default();
    let mut finished = vec![false; sources.len()];
    let mut pending: Batch = Batch::new();
    // Output already encoded for the wire (columns in columnar mode). A
    // refused send hands the encoded batch back, so retry loops pay the
    // transpose at most once per batch instead of once per attempt.
    let mut staged: Option<DataBatch> = None;
    let mut error: Option<Error> = None;
    let mut completed = false;
    let mut depth_hw: u64 = 0;
    let frag_name = format!("frag-{frag_index}");
    trace.record_at(clock.now_us(), SpanKind::Fragment.begin(frag_name.clone()));

    // Sources recovered from a sealed previous phase arrive still paused;
    // fresh sources treat this as a no-op.
    {
        let now = clock.now_us();
        for s in sources.iter_mut() {
            s.as_source_mut().resume_delivery(now);
        }
    }

    'run: loop {
        // Batch boundary: the only place this thread parks. Refresh the
        // shared CPU figure here too, so the controller's calibration
        // sees producer work as it happens.
        shared
            .cpu_us
            .store(timeline.cpu_us() as u64, Ordering::Release);
        match quiesce_point(&shared, &mut sources, &clock) {
            Directive::Continue => {}
            Directive::Seal => break 'run,
        }
        // Ship parked output, uncharged (backpressure wait is not CPU)
        // and non-blocking (a full queue defers to the next boundary, so
        // a pending quiesce is honored with the batch carried along).
        // Encoding (the columnar transpose) happens exactly once here;
        // the refused batch retries already encoded.
        if staged.is_none() && !pending.is_empty() {
            staged = Some(writer.encode(std::mem::take(&mut pending)));
        }
        if let Some(batch) = staged.take() {
            match writer.try_send_data(batch) {
                Ok(None) => {
                    depth_hw = depth_hw.max(writer.depth() as u64);
                    timeline.resync();
                }
                Ok(Some(back)) => {
                    staged = Some(back);
                    if !shared.wants_stop() {
                        let now = clock.now_us();
                        clock.sleep_toward(now.saturating_add(retry_tick_us.max(1)));
                    }
                    continue 'run;
                }
                Err(e) => {
                    // Consumer hangup is benign teardown; anything else
                    // is a real producer failure.
                    if !crate::queue::is_hangup(&e) {
                        error = Some(e);
                    }
                    break 'run;
                }
            }
        }
        // One poll sweep, same discipline as `SimDriver::run_target`.
        timeline.resync();
        let mut any_ready = false;
        let mut next_ready: Option<u64> = None;
        let mut all_done = true;
        for i in 0..sources.len() {
            if finished[i] {
                continue;
            }
            all_done = false;
            // Upstream exchanges (multi-level producer chains) poll
            // representation-preserving, so columnar batches shipped by
            // the producer below ride into this pipeline's vectorized
            // push without a row detour.
            let polled = match &mut sources[i] {
                ProducerSource::Exchange(ex) => ex.poll_data(timeline.now_us(), batch_size),
                ProducerSource::Real { src, .. } => src.poll(timeline.now_us(), batch_size).into(),
            };
            match polled {
                ExchangePoll::Ready(batch) => {
                    any_ready = true;
                    report.batches += 1;
                    let n = batch.len();
                    let rel = sources[i].as_source_mut().rel_id();
                    let pushed = charged_cost(cpu, &timeline, n, || {
                        pipeline.push_data(rel, &batch, &mut pending)
                    });
                    match pushed {
                        Ok(cost) => timeline.charge(cost),
                        Err(e) => {
                            error = Some(e);
                            break 'run;
                        }
                    }
                    if let ProducerSource::Real { src, progress, .. } = &sources[i] {
                        progress.refresh(n as u64, src.as_ref());
                    }
                }
                ExchangePoll::Pending { next_ready_us } => {
                    next_ready = Some(match next_ready {
                        Some(n) => n.min(next_ready_us),
                        None => next_ready_us,
                    });
                }
                ExchangePoll::Eof => {
                    finished[i] = true;
                    let flushed = charged_cost(cpu, &timeline, 0, || {
                        let rel = sources[i].as_source_mut().rel_id();
                        pipeline.finish_source(rel, &mut pending)
                    });
                    match flushed {
                        Ok(cost) => timeline.charge(cost),
                        Err(e) => {
                            error = Some(e);
                            break 'run;
                        }
                    }
                    if let ProducerSource::Real { src, progress, .. } = &sources[i] {
                        progress.refresh(0, src.as_ref());
                    }
                }
            }
        }
        if all_done {
            completed = true;
            break 'run;
        }
        if !any_ready {
            if let Some(n) = next_ready {
                // One bounded chunk; the loop re-checks the quiesce latch
                // before sleeping again.
                timeline.idle_toward(n);
            }
        }
    }

    if completed {
        // Flush the tail and close the queue: the consumer drains every
        // buffered batch before reading Closed.
        loop {
            if staged.is_none() {
                if pending.is_empty() {
                    break;
                }
                staged = Some(writer.encode(std::mem::take(&mut pending)));
            }
            match writer.try_send_data(staged.take().expect("just filled")) {
                Ok(None) => depth_hw = depth_hw.max(writer.depth() as u64),
                Ok(Some(back)) => {
                    staged = Some(back);
                    if shared.wants_stop() {
                        break;
                    }
                    let now = clock.now_us();
                    clock.sleep_toward(now.saturating_add(retry_tick_us.max(1)));
                }
                Err(e) => {
                    if !crate::queue::is_hangup(&e) {
                        error = Some(e);
                    }
                    break;
                }
            }
        }
        if staged.is_none() && pending.is_empty() {
            let _ = writer.finish(&mut Batch::new());
        }
    }
    // Whatever is still staged re-materializes as rows *ahead of* any
    // unencoded output, so the quiesce drain sees exactly the row stream
    // the consumer would have — loss-free and order-preserving.
    if let Some(s) = staged.take() {
        let mut rows = s.into_rows();
        rows.append(&mut pending);
        pending = rows;
    }
    // Dropping the writer (on seal/error paths) closes the queue while
    // keeping buffered batches readable — the seal's drain step collects
    // them, so nothing in flight is lost.
    shared
        .cpu_us
        .store(timeline.cpu_us() as u64, Ordering::Release);
    shared.finished.store(true, Ordering::Release);
    shared.cv.notify_all();

    report.cpu_us = timeline.cpu_us() as u64;
    report.idle_us = timeline.idle_us() as u64;
    report.virtual_us = timeline.clock_us() as u64;
    report.max_queue_depth = depth_hw;
    let blocked = writer.blocked_sends();
    if blocked > 0 {
        report.blocked_by_exchange = vec![(ex_id, blocked)];
    }
    if trace.is_enabled() {
        let now = clock.now_us();
        let ex_name = format!("exchange-{}", ex_id - EXCHANGE_REL_BASE);
        trace.record_at(
            now,
            tukwila_stats::TraceEvent::Counter {
                name: "batches".into(),
                scope: frag_name.clone(),
                value: report.batches,
            },
        );
        if blocked > 0 {
            trace.record_at(
                now,
                tukwila_stats::TraceEvent::Counter {
                    name: "blocked_sends".into(),
                    scope: ex_name,
                    value: blocked,
                },
            );
        }
        trace.record_at(now, SpanKind::Fragment.end(frag_name));
    }
    ProducerYield {
        frag_index,
        pipeline,
        sources,
        report,
        pending,
        error,
    }
}

/// Everything recovered by sealing a [`FragmentRun`]: the state
/// structures of every fragment (plan-wide node ids, identical in both
/// modes) and the producers' accounting (zero inline).
#[derive(Default)]
pub struct SealedOutcome {
    /// Sealed state structures across every fragment, root last.
    pub states: Vec<SealedState>,
    /// CPU µs (timeline) the producer threads charged.
    pub producer_cpu_us: u64,
    /// Source batches the producer threads consumed.
    pub producer_batches: u64,
    /// High-water mark of exchange-queue depth (batches) across every
    /// producer, sampled after each successful send.
    pub max_queue_depth: u64,
    /// Per-exchange backpressure, ascending exchange id: every exchange
    /// whose producer found the queue full at least once.
    pub blocked_by_exchange: Vec<(u32, u64)>,
}

/// One producer fragment tracked by the controller.
struct ProducerSlot {
    handle: Option<JoinHandle<ProducerYield>>,
    quiesce: QuiesceHandle,
}

/// Placeholder holding a caller's source slot while the real source is
/// lent to a producer fragment thread. [`FragmentRun::seal`] puts the
/// source back; polling the placeholder is a bug.
struct LentSource {
    rel_id: u32,
    name: String,
    schema: Schema,
}

impl Source for LentSource {
    fn rel_id(&self) -> u32 {
        self.rel_id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, _now_us: u64, _max_tuples: usize) -> Poll {
        panic!(
            "source '{}' (relation {}) is lent to a producer fragment thread",
            self.name, self.rel_id
        );
    }

    fn progress(&self) -> SourceProgressView {
        SourceProgressView {
            tuples_read: 0,
            fraction_read: None,
            eof: false,
        }
    }
}

/// Execution of a [`FragmentPlan`] as an explicit state machine the
/// corrective executor can own across plan switches. Two modes share
/// every step of one lifecycle:
///
/// * **start** — [`FragmentRun::inline`] keeps every fragment on the
///   calling thread: zero producer threads, immediate handoff across
///   exchanges, every source a root source. [`FragmentRun::spawn`] starts
///   every producer fragment's quiesce-aware driver loop on its own
///   thread, lending it the sources it binds, and keeps only the root
///   fragment here.
/// * **poll** — the caller polls the root's sources
///   ([`FragmentRun::root_slots`]) and exchange streams and pushes into
///   the root target ([`FragmentRun::root_split`]); live observations
///   ([`FragmentRun::observations`]: counters are shared atomics) and
///   per-source high-water marks ([`FragmentRun::quiesce_handles`]) are
///   readable while producers run.
/// * **quiesce** — ask every producer to park at a batch boundary and
///   wait (clock-driven timeout); on timeout the caller **resumes** and
///   abandons whatever needed the quiesce. Inline, a quiesce succeeds at
///   once.
/// * **seal** — join every thread (re-raising panics, surfacing producer
///   errors), drain every exchange's in-flight tuples into the
///   reassembled inline plan (so nothing buffered between fragments is
///   lost), seal all pipelines, and return lent sources to their slots.
///
/// Dropping a run that was never sealed requests a seal, joins every
/// thread, and discards the yields — no leaked threads on any path.
pub struct FragmentRun {
    /// The fragments running on the calling thread: all of them inline,
    /// only the root when threaded.
    local: LocalFragments,
    /// Slots of the caller's sources the root fragment binds.
    root_slots: Vec<usize>,
    /// Exchange streams the root fragment consumes (none inline).
    root_exchanges: Vec<ExchangeSource>,
    producers: Vec<ProducerSlot>,
    /// Output exchange of every fragment (topological order, root last).
    outputs: Vec<Option<u32>>,
    /// Observation templates with plan-wide node ids; counters are live.
    obs_templates: Vec<NodeObservation>,
    /// The wall clock producers run on (`None` inline).
    clock: Option<Arc<dyn Clock>>,
    opts: FragmentOptions,
    /// Cores actually granted by `opts.lease` for the producer threads
    /// (zero without a lease, or when the arbiter had nothing free).
    /// Returned in `join_all`, the single teardown point.
    lease_granted: usize,
    joined: bool,
}

impl FragmentRun {
    /// Start `plan` inline over `sources`: every fragment runs on the
    /// calling thread and every source stays in the caller's slice.
    pub fn inline(plan: FragmentPlan, sources: &[Box<dyn Source>]) -> Result<FragmentRun> {
        let (outputs, obs_templates) = Self::bind(&plan, sources)?;
        Ok(FragmentRun {
            local: LocalFragments::new(plan.fragments),
            root_slots: (0..sources.len()).collect(),
            root_exchanges: Vec::new(),
            producers: Vec::new(),
            outputs,
            obs_templates,
            clock: None,
            opts: FragmentOptions::default(),
            lease_granted: 0,
            joined: false,
        })
    }

    /// Start `plan` with every producer fragment on its own thread.
    ///
    /// Sources bound by producer fragments move into the threads (their
    /// slots hold placeholders until [`FragmentRun::seal`] puts them
    /// back); the root fragment's sources stay in the caller's slice at
    /// [`FragmentRun::root_slots`].
    pub fn spawn(
        plan: FragmentPlan,
        sources: &mut [Box<dyn Source>],
        clock: Arc<dyn Clock>,
        batch_size: usize,
        cpu: CpuCostModel,
        opts: &FragmentOptions,
    ) -> Result<FragmentRun> {
        if !clock.is_wall() {
            return Err(Error::Plan(
                "threaded fragments need a wall clock; use run_fragments_sequential \
                 for virtual-clock runs"
                    .into(),
            ));
        }
        let (outputs, obs_templates) = Self::bind(&plan, sources)?;
        let nfrag = plan.fragment_count();

        // Lend every producer-bound source to its fragment.
        let mut per_fragment: Vec<Vec<ProducerSource>> = (0..nfrag).map(|_| Vec::new()).collect();
        let mut root_slots = Vec::new();
        for (slot, s) in sources.iter_mut().enumerate() {
            let f = plan.fragment_of(s.rel_id()).expect("checked by bind");
            if f == nfrag - 1 {
                root_slots.push(slot);
                continue;
            }
            let placeholder: Box<dyn Source> = Box::new(LentSource {
                rel_id: s.rel_id(),
                name: s.name().to_string(),
                schema: s.schema().clone(),
            });
            let progress = Arc::new(FragmentSourceProgress::new(s.rel_id()));
            per_fragment[f].push(ProducerSource::Real {
                slot,
                src: std::mem::replace(s, placeholder),
                progress,
            });
        }

        // Exchange → consuming fragment index, computed before the
        // fragment vec is consumed (a producer's exchange may feed
        // another producer, not only the root — multi-level chains).
        let mut consumer_of: HashMap<u32, usize> = HashMap::new();
        for (i, f) in plan.fragments.iter().enumerate() {
            for ex in f.exchange_inputs() {
                consumer_of.insert(ex, i);
            }
        }

        let mut fragments = plan.fragments;
        let root = fragments.pop().expect("validated non-empty");
        let mut root_exchanges: Vec<ExchangeSource> = Vec::new();
        let mut producers: Vec<ProducerSlot> = Vec::with_capacity(nfrag - 1);
        for (idx, frag) in fragments.into_iter().enumerate() {
            let ex = frag.output.expect("non-root fragments output an exchange");
            let (mut writer, reader) =
                queue_pair(frag.pipeline.root_schema().clone(), opts.queue_capacity);
            writer.set_columnar(true);
            let exchange_source = ExchangeSource::new(
                ex,
                frag.pipeline.root_schema().clone(),
                reader,
                opts.poll_tick_us,
            );
            let consumer_idx = consumer_of[&ex]; // validated by FragmentPlan::new
            if consumer_idx == nfrag - 1 {
                root_exchanges.push(exchange_source);
            } else {
                per_fragment[consumer_idx].push(ProducerSource::Exchange(exchange_source));
            }

            let frag_sources = std::mem::take(&mut per_fragment[idx]);
            let progress: Vec<Arc<FragmentSourceProgress>> = frag_sources
                .iter()
                .filter_map(|s| match s {
                    ProducerSource::Real { progress, .. } => Some(progress.clone()),
                    ProducerSource::Exchange(_) => None,
                })
                .collect();
            let shared = Arc::new(QuiesceShared::new());
            let thread_shared = shared.clone();
            let thread_clock = clock.clone();
            let thread_trace = opts.trace.clone();
            let (bs, cm, tick) = (batch_size, cpu, opts.poll_tick_us);
            let pipeline = frag.pipeline;
            let spawned = std::thread::Builder::new()
                .name(format!("fragment-{idx}"))
                .spawn(move || {
                    run_producer(
                        idx,
                        ex,
                        pipeline,
                        frag_sources,
                        writer,
                        thread_shared,
                        thread_clock,
                        bs,
                        cm,
                        tick,
                        thread_trace,
                    )
                });
            match spawned {
                Ok(handle) => producers.push(ProducerSlot {
                    handle: Some(handle),
                    quiesce: QuiesceHandle { shared, progress },
                }),
                Err(e) => {
                    // Thread-resource exhaustion mid-construction: seal
                    // and join the producers already running (dropping
                    // the undistributed exchange sources hangs up their
                    // queues, so blocked sends error out promptly).
                    for p in &producers {
                        p.quiesce.request_seal();
                    }
                    drop(per_fragment);
                    drop(root_exchanges);
                    for p in &mut producers {
                        if let Some(h) = p.handle.take() {
                            let _ = h.join();
                        }
                    }
                    return Err(Error::Exec(format!("spawning fragment {idx} failed: {e}")));
                }
            }
        }

        // Charge the producer threads against the query's core lease only
        // once every spawn succeeded (the error path above has nothing to
        // return). Non-blocking: a zero grant means the fleet is saturated
        // and these threads time-share — the planner bounded their count
        // via the fragmentation config's core budget, so this is pressure
        // accounting, not a correctness gate.
        let lease_granted = opts
            .lease
            .as_ref()
            .map_or(0, |lease| lease.try_acquire(producers.len()));

        Ok(FragmentRun {
            local: LocalFragments::new(vec![root]),
            root_slots,
            root_exchanges,
            producers,
            outputs,
            obs_templates,
            clock: Some(clock),
            opts: opts.clone(),
            lease_granted,
            joined: false,
        })
    }

    /// Check that the plan binds every source, before either mode touches
    /// one, and capture each fragment's output exchange plus observation
    /// templates with plan-wide node ids (counters are Arc-shared
    /// atomics, so the templates stay live once pipelines move into
    /// threads).
    fn bind(
        plan: &FragmentPlan,
        sources: &[Box<dyn Source>],
    ) -> Result<(Vec<Option<u32>>, Vec<NodeObservation>)> {
        for s in sources {
            if plan.fragment_of(s.rel_id()).is_none() {
                return Err(Error::Plan(format!(
                    "no fragment binds source relation {}",
                    s.rel_id()
                )));
            }
        }
        let mut obs_templates = Vec::new();
        let mut offset = 0;
        for f in plan.fragments() {
            for mut obs in f.pipeline.observations() {
                obs.node += offset;
                obs_templates.push(obs);
            }
            offset += f.pipeline.node_count();
        }
        let outputs = plan.fragments().iter().map(|f| f.output).collect();
        Ok((outputs, obs_templates))
    }

    /// Number of producer fragments running on threads (0 inline).
    pub fn producer_count(&self) -> usize {
        self.producers.len()
    }

    /// Total fragment count (producers plus the root).
    pub fn fragment_count(&self) -> usize {
        self.outputs.len()
    }

    /// Slots (in the source slice handed to the constructor) of the
    /// sources the caller polls for the root fragment, ascending. Inline,
    /// that is every slot.
    pub fn root_slots(&self) -> &[usize] {
        &self.root_slots
    }

    /// The push target for root-polled batches — root output lands in the
    /// caller's `out` — and the exchange sources the root consumes,
    /// split-borrowed so one poll sweep can feed both.
    pub fn root_split(&mut self) -> (&mut dyn PushTarget, &mut [ExchangeSource]) {
        (&mut self.local, &mut self.root_exchanges)
    }

    /// Per-producer quiesce handles (park / observe / high-water marks /
    /// resume), in fragment order.
    pub fn quiesce_handles(&self) -> impl Iterator<Item = &QuiesceHandle> {
        self.producers.iter().map(|p| &p.quiesce)
    }

    /// Counter/signature snapshots across every fragment, with node ids
    /// offset so they are unique plan-wide (fragment 0's nodes first).
    /// Counters are live shared atomics: the monitor reads fragments it
    /// does not own while their producer threads run.
    pub fn observations(&self) -> Vec<NodeObservation> {
        self.obs_templates.clone()
    }

    /// Whether every producer has parked or finished.
    pub fn producers_stopped(&self) -> bool {
        self.producers.iter().all(|p| p.quiesce.is_stopped())
    }

    /// CPU µs (timeline) charged so far across every producer thread,
    /// read live from the batch-boundary snapshots. The corrective
    /// monitor adds this to its own timeline when calibrating `unit_us`,
    /// so the measured side covers the same work the cost-unit side does.
    pub fn producer_cpu_us(&self) -> u64 {
        self.producers.iter().map(|p| p.quiesce.cpu_us()).sum()
    }

    /// Ask every producer to park at its next batch boundary and wait for
    /// it to happen, up to the configured quiesce timeout (timeline µs,
    /// waited on the shared clock). Returns whether every producer is
    /// quiescent; on `false` the caller should [`FragmentRun::resume`]
    /// and abandon the plan switch rather than stall the query.
    pub fn quiesce(&mut self) -> bool {
        let Some(clock) = self.clock.clone() else {
            return true;
        };
        self.journal(SpanKind::Park.begin("park"));
        for p in &self.producers {
            p.quiesce.request_quiesce();
        }
        let deadline = clock.now_us().saturating_add(self.opts.quiesce_timeout_us);
        let producers = &self.producers;
        let parked = tukwila_stats::clock::wait_until(clock.as_ref(), deadline, || {
            producers.iter().all(|p| p.quiesce.is_stopped())
        });
        self.journal(SpanKind::Park.end("park"));
        parked
    }

    /// Abandon a quiesce: wake every parked producer and continue the
    /// phase unchanged.
    pub fn resume(&mut self) {
        for p in &self.producers {
            p.quiesce.resume();
        }
    }

    /// Journal a protocol step on the producers' clock (threaded only).
    fn journal(&self, event: tukwila_stats::TraceEvent) {
        if let Some(clock) = &self.clock {
            self.opts.trace.record_at(clock.now_us(), event);
        }
    }

    /// End the run: join every producer thread (re-raising the first
    /// panic; surfacing the first real producer error), drain every
    /// exchange's in-flight tuples — consumer-side carry, queued batches,
    /// and producer-side unshipped output — into the reassembled inline
    /// plan (root output lands in `out`), seal every pipeline, and put
    /// every lent source back into its slot of `sources`.
    ///
    /// Call after [`FragmentRun::quiesce`] for a mid-stream plan switch,
    /// or at natural completion (every producer finished and the root ran
    /// dry) for the end-of-phase seal; both paths are loss-free. Inline,
    /// there is nothing to join or drain: this only seals the pipelines.
    pub fn seal(
        mut self,
        sources: &mut [Box<dyn Source>],
        out: &mut Batch,
    ) -> Result<SealedOutcome> {
        let (mut yields, panic_payload) = self.join_all();
        if let Some(payload) = panic_payload {
            eprintln!("fragment producer thread panicked");
            std::panic::resume_unwind(payload);
        }
        if let Some(e) = yields.iter_mut().find_map(|y| y.error.take()) {
            return Err(e);
        }

        // Collect every exchange's leftovers before reassembly: the
        // consumer side (carry + still-queued batches) in stream order,
        // then the producer's unshipped output.
        self.journal(SpanKind::Drain.begin("drain"));
        let mut leftovers: HashMap<u32, Vec<Tuple>> = HashMap::new();
        for ex in &mut self.root_exchanges {
            leftovers.insert(ex.exchange_id(), ex.drain_buffered());
        }
        for y in &mut yields {
            for s in &mut y.sources {
                if let ProducerSource::Exchange(ex) = s {
                    leftovers.insert(ex.exchange_id(), ex.drain_buffered());
                }
            }
        }
        for y in &mut yields {
            if let Some(ex) = self.outputs[y.frag_index] {
                leftovers
                    .entry(ex)
                    .or_default()
                    .extend(std::mem::take(&mut y.pending));
            }
        }

        // Reassemble the fragments in topological order and push the
        // leftovers across their exchanges: the inline executor forwards
        // in memory, so drained tuples cascade straight through consumers
        // (root output to `out`) with nothing re-queued.
        let mut outcome = SealedOutcome::default();
        let mut fragments: Vec<Fragment> = Vec::with_capacity(self.outputs.len());
        for y in yields {
            outcome.producer_cpu_us += y.report.cpu_us;
            outcome.producer_batches += y.report.batches;
            outcome.max_queue_depth = outcome.max_queue_depth.max(y.report.max_queue_depth);
            outcome
                .blocked_by_exchange
                .extend(y.report.blocked_by_exchange.iter().copied());
            for s in y.sources {
                if let ProducerSource::Real { slot, src, .. } = s {
                    sources[slot] = src;
                }
            }
            fragments.push(Fragment {
                pipeline: y.pipeline,
                output: self.outputs[y.frag_index],
            });
        }
        fragments.append(&mut self.local.fragments);
        let mut run = LocalFragments::new(fragments);
        for ex in self.outputs.iter().flatten() {
            if let Some(tuples) = leftovers.remove(ex) {
                if !tuples.is_empty() {
                    run.push_source(*ex, &tuples, out)?;
                }
            }
        }
        self.journal(SpanKind::Drain.end("drain"));
        self.journal(SpanKind::Seal.begin("seal"));
        outcome.states = run.seal();
        self.journal(SpanKind::Seal.end("seal"));
        outcome.blocked_by_exchange.sort_by_key(|(id, _)| *id);
        Ok(outcome)
    }

    /// Request a seal on every producer and join the threads. Yields come
    /// back sorted by fragment index; the first panic payload (if any) is
    /// returned instead of being re-raised so `Drop` can swallow it.
    fn join_all(&mut self) -> (Vec<ProducerYield>, Option<Box<dyn std::any::Any + Send>>) {
        self.joined = true;
        for p in &self.producers {
            p.quiesce.request_seal();
        }
        let mut yields = Vec::with_capacity(self.producers.len());
        let mut panic_payload: Option<Box<dyn std::any::Any + Send>> = None;
        for p in &mut self.producers {
            if let Some(h) = p.handle.take() {
                match h.join() {
                    Ok(y) => yields.push(y),
                    Err(payload) => {
                        if panic_payload.is_none() {
                            panic_payload = Some(payload);
                        }
                    }
                }
            }
        }
        yields.sort_by_key(|y| y.frag_index);
        if let Some(lease) = &self.opts.lease {
            lease.release(std::mem::take(&mut self.lease_granted));
        }
        (yields, panic_payload)
    }
}

impl Drop for FragmentRun {
    fn drop(&mut self) {
        if !self.joined {
            // An abandoned run (error elsewhere, test teardown) must not
            // leak producer threads. Dropping the root's exchange readers
            // first errors any send still blocked on a full queue.
            self.root_exchanges.clear();
            let (_, panic_payload) = self.join_all();
            // A producer panic is the root cause even when the consumer
            // side failed first — re-raise it rather than bury it, unless
            // this drop is itself running during an unwind (a second
            // panic would abort the process).
            if let Some(payload) = panic_payload {
                if std::thread::panicking() {
                    eprintln!("fragment producer thread panicked (suppressed during unwind)");
                } else {
                    eprintln!("fragment producer thread panicked");
                    std::panic::resume_unwind(payload);
                }
            }
        }
    }
}

impl SimDriver {
    /// Execute a fragmented plan, dispatching on the driver's clock:
    /// threaded when a wall clock drives the run, inline otherwise (the
    /// virtual clock is single-threaded by construction — producer naps
    /// would teleport the shared timeline).
    pub fn run_fragments(
        &self,
        plan: FragmentPlan,
        sources: Vec<Box<dyn Source>>,
        opts: &FragmentOptions,
    ) -> Result<(Batch, ExecReport)> {
        let threaded = self.clock.as_ref().is_some_and(|c| c.is_wall());
        self.drive_fragments(plan, sources, threaded.then_some(opts))
    }

    /// Inline execution of a fragmented plan: identical semantics (and,
    /// under the virtual clock, identical timing) to running the
    /// unfragmented plan.
    pub fn run_fragments_sequential(
        &self,
        plan: FragmentPlan,
        sources: Vec<Box<dyn Source>>,
    ) -> Result<(Batch, ExecReport)> {
        self.drive_fragments(plan, sources, None)
    }

    /// Threaded execution of a fragmented plan: every producer fragment
    /// runs its quiesce-aware driver loop on its own thread, shipping
    /// root output through a bounded exchange queue; the root fragment
    /// runs on the calling thread over its own sources plus the
    /// [`ExchangeSource`]s.
    ///
    /// Every fragment thread is joined before this returns; a producer
    /// panic is re-raised here (never read as EOF), and a producer error
    /// supersedes the root's (possibly truncated) result.
    pub fn run_fragments_threaded(
        &self,
        plan: FragmentPlan,
        sources: Vec<Box<dyn Source>>,
        opts: &FragmentOptions,
    ) -> Result<(Batch, ExecReport)> {
        self.drive_fragments(plan, sources, Some(opts))
    }

    /// The one body behind both modes: start a [`FragmentRun`] (threaded
    /// when `threaded` carries options), drive its root to completion
    /// with the standard poll/push/idle loop, and seal it.
    fn drive_fragments(
        &self,
        plan: FragmentPlan,
        mut sources: Vec<Box<dyn Source>>,
        threaded: Option<&FragmentOptions>,
    ) -> Result<(Batch, ExecReport)> {
        let mut run = match threaded {
            Some(opts) => {
                let clock = self
                    .clock
                    .clone()
                    .ok_or_else(|| Error::Plan("threaded fragments need a wall clock".into()))?;
                // The driver's own sink covers runs whose caller
                // configured tracing on the driver but not on the
                // fragment options.
                let mut opts = opts.clone();
                if !opts.trace.is_enabled() && self.trace.is_enabled() {
                    opts.trace = self.trace.clone();
                }
                FragmentRun::spawn(plan, &mut sources, clock, self.batch_size, self.cpu, &opts)?
            }
            None => FragmentRun::inline(plan, &sources)?,
        };
        // On error the run's Drop seals and joins every producer
        // (swallowing their errors — the root's failure wins).
        let (mut out, mut report) = {
            let root_slots = run.root_slots().to_vec();
            let (target, exchanges) = run.root_split();
            let mut refs: Vec<&mut dyn Source> = sources
                .iter_mut()
                .enumerate()
                .filter(|(slot, _)| root_slots.contains(slot))
                .map(|(_, s)| &mut **s as &mut dyn Source)
                .collect();
            refs.extend(exchanges.iter_mut().map(|ex| ex as &mut dyn Source));
            self.run_target_refs(target, &mut refs)?
        };
        // Natural completion: the queues are already drained, so the seal
        // only joins threads and collects accounting.
        let outcome = run.seal(&mut sources, &mut out)?;
        report.cpu_us += outcome.producer_cpu_us;
        report.tuples_out = out.len() as u64;
        report.max_queue_depth = outcome.max_queue_depth;
        report.blocked_by_exchange = outcome.blocked_by_exchange;
        Ok((out, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::CpuCostModel;
    use crate::join::pipelined_hash::PipelinedHashJoin;
    use tukwila_relation::{DataType, Field, Value};
    use tukwila_source::{DelayModel, DelayedSource, MemSource};
    use tukwila_stats::WallClock;

    fn schema(p: &str) -> Schema {
        Schema::new(vec![Field::new(format!("{p}.k"), DataType::Int)])
    }

    fn tuples(n: i64) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect()
    }

    /// (a ⋈ b) in a producer fragment, (exchange ⋈ c) in the root.
    fn two_fragment_plan() -> FragmentPlan {
        let ex = EXCHANGE_REL_BASE;
        let mut pb = PipelinePlan::builder();
        let j1 = Box::new(PipelinedHashJoin::new(schema("a"), schema("b"), 0, 0));
        let j1_schema = j1.schema().clone();
        let n1 = pb.add_op(j1, &[], None).unwrap();
        pb.bind_source(1, n1, 0).unwrap();
        pb.bind_source(2, n1, 1).unwrap();
        let producer = Fragment {
            pipeline: pb.build().unwrap(),
            output: Some(ex),
        };

        let mut rb = PipelinePlan::builder();
        let j2 = Box::new(PipelinedHashJoin::new(j1_schema, schema("c"), 0, 0));
        let n2 = rb.add_op(j2, &[], None).unwrap();
        rb.bind_source(ex, n2, 0).unwrap();
        rb.bind_source(3, n2, 1).unwrap();
        let root = Fragment {
            pipeline: rb.build().unwrap(),
            output: None,
        };
        FragmentPlan::new(vec![producer, root]).unwrap()
    }

    fn single_plan() -> PipelinePlan {
        let mut b = PipelinePlan::builder();
        let j1 = Box::new(PipelinedHashJoin::new(schema("a"), schema("b"), 0, 0));
        let j1_schema = j1.schema().clone();
        let n1 = b.add_op(j1, &[], None).unwrap();
        let j2 = Box::new(PipelinedHashJoin::new(j1_schema, schema("c"), 0, 0));
        let n2 = b.add_op(j2, &[Some(n1)], None).unwrap();
        b.bind_source(1, n1, 0).unwrap();
        b.bind_source(2, n1, 1).unwrap();
        b.bind_source(3, n2, 1).unwrap();
        b.build().unwrap()
    }

    fn mem_sources() -> Vec<Box<dyn Source>> {
        vec![
            Box::new(MemSource::new(1, "a", schema("a"), tuples(80))),
            Box::new(MemSource::new(2, "b", schema("b"), tuples(60))),
            Box::new(MemSource::new(3, "c", schema("c"), tuples(40))),
        ]
    }

    fn keys(batch: &Batch) -> Vec<i64> {
        let mut k: Vec<i64> = batch.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        k.sort_unstable();
        k
    }

    #[test]
    fn sequential_fragments_match_single_plan() {
        let driver = SimDriver::new(16, CpuCostModel::Zero);
        let (single_out, _) = driver.run(&mut single_plan(), &mut mem_sources()).unwrap();
        let (frag_out, report) = driver
            .run_fragments_sequential(two_fragment_plan(), mem_sources())
            .unwrap();
        assert_eq!(keys(&frag_out), keys(&single_out));
        assert_eq!(frag_out.len(), 40, "a⋈b⋈c over prefixes of 0..n");
        assert_eq!(report.tuples_out, 40);
    }

    #[test]
    fn threaded_fragments_match_single_plan() {
        let clock = Arc::new(WallClock::accelerated(100.0));
        let driver = SimDriver::new(16, CpuCostModel::Measured).with_clock(clock);
        let (single_out, _) = SimDriver::new(16, CpuCostModel::Zero)
            .run(&mut single_plan(), &mut mem_sources())
            .unwrap();
        let (frag_out, _) = driver
            .run_fragments(
                two_fragment_plan(),
                mem_sources(),
                &FragmentOptions::default(),
            )
            .unwrap();
        assert_eq!(keys(&frag_out), keys(&single_out));
    }

    #[test]
    fn threaded_fragments_charge_and_return_their_core_lease() {
        let arbiter = tukwila_stats::CoreArbiter::new(4);
        let lease = arbiter.lease();
        let clock = Arc::new(WallClock::accelerated(100.0));
        let driver = SimDriver::new(16, CpuCostModel::Measured).with_clock(clock);
        let opts = FragmentOptions {
            lease: Some(lease.clone()),
            ..Default::default()
        };
        let (out, _) = driver
            .run_fragments(two_fragment_plan(), mem_sources(), &opts)
            .unwrap();
        assert_eq!(out.len(), 40);
        // The run's one producer thread was charged while live and
        // returned at seal — nothing is still held afterwards.
        assert_eq!(lease.held(), 0, "seal returned the granted cores");
        assert_eq!(arbiter.granted(), 0);
        // A saturated arbiter grants nothing, and the run still works:
        // the lease is pressure accounting, never a correctness gate.
        let greedy = arbiter.lease();
        assert_eq!(greedy.try_acquire(4), 4);
        let (out2, _) = driver
            .run_fragments(two_fragment_plan(), mem_sources(), &opts)
            .unwrap();
        assert_eq!(out2.len(), 40);
        assert_eq!(lease.held(), 0);
        assert_eq!(arbiter.granted(), 4, "only the greedy lease holds cores");
    }

    #[test]
    fn threaded_fragments_with_delayed_sources_lose_nothing() {
        let clock = Arc::new(WallClock::accelerated(500.0));
        let driver = SimDriver::new(32, CpuCostModel::Measured).with_clock(clock);
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e6,
            initial_latency_us: 5_000,
        };
        let sources: Vec<Box<dyn Source>> = vec![
            Box::new(DelayedSource::new(1, "a", schema("a"), tuples(200), &model)),
            Box::new(DelayedSource::new(2, "b", schema("b"), tuples(200), &model)),
            Box::new(DelayedSource::new(3, "c", schema("c"), tuples(200), &model)),
        ];
        let (out, report) = driver
            .run_fragments_threaded(two_fragment_plan(), sources, &FragmentOptions::default())
            .unwrap();
        assert_eq!(keys(&out), (0..200).collect::<Vec<_>>());
        assert_eq!(report.tuples_out, 200);
    }

    #[test]
    fn plan_validation_rejects_malformed_shapes() {
        // Producer without a consumer.
        let mut pb = PipelinePlan::builder();
        let j = Box::new(PipelinedHashJoin::new(schema("a"), schema("b"), 0, 0));
        let n = pb.add_op(j, &[], None).unwrap();
        pb.bind_source(1, n, 0).unwrap();
        pb.bind_source(2, n, 1).unwrap();
        let orphan = Fragment {
            pipeline: pb.build().unwrap(),
            output: Some(EXCHANGE_REL_BASE),
        };
        let mut rb = PipelinePlan::builder();
        let j2 = Box::new(PipelinedHashJoin::new(schema("a"), schema("c"), 0, 0));
        let n2 = rb.add_op(j2, &[], None).unwrap();
        rb.bind_source(4, n2, 0).unwrap();
        rb.bind_source(3, n2, 1).unwrap();
        let root = Fragment {
            pipeline: rb.build().unwrap(),
            output: None,
        };
        assert!(FragmentPlan::new(vec![orphan, root]).is_err());

        // Root in the wrong position.
        let plan = two_fragment_plan();
        let mut frags: Vec<Fragment> = plan.fragments.into_iter().collect();
        frags.swap(0, 1);
        assert!(FragmentPlan::new(frags).is_err());
    }

    #[test]
    fn exchange_source_respects_max_tuples_and_eof() {
        let (mut writer, reader) = queue_pair(schema("x"), 4);
        let mut ex = ExchangeSource::new(EXCHANGE_REL_BASE, schema("x"), reader, 100);
        assert!(matches!(
            ex.poll(0, 8),
            Poll::Pending { next_ready_us: 100 }
        ));
        writer.send(tuples(25)).unwrap();
        let mut got = Vec::new();
        loop {
            match ex.poll(0, 10) {
                Poll::Ready(b) => {
                    assert!(b.len() <= 10, "Ready respects max_tuples");
                    got.extend(b);
                }
                Poll::Pending { .. } => {
                    writer.finish(&mut Batch::new()).unwrap();
                }
                Poll::Eof => break,
            }
        }
        assert_eq!(got.len(), 25);
        assert!(ex.progress().eof);
    }

    #[test]
    fn quiesce_parks_resumes_and_completes() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e6,
            initial_latency_us: 2_000,
        };
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(DelayedSource::new(1, "a", schema("a"), tuples(200), &model)),
            Box::new(DelayedSource::new(2, "b", schema("b"), tuples(200), &model)),
            Box::new(DelayedSource::new(3, "c", schema("c"), tuples(200), &model)),
        ];
        let mut run = FragmentRun::spawn(
            two_fragment_plan(),
            &mut sources,
            clock.clone(),
            32,
            CpuCostModel::Measured,
            &FragmentOptions::default(),
        )
        .unwrap();
        assert_eq!(run.producer_count(), 1);
        assert_eq!(run.fragment_count(), 2);
        assert_eq!(run.root_slots(), &[2], "only c is polled by the root");
        // Quiesce mid-stream: the producer parks at a batch boundary.
        assert!(run.quiesce(), "producer must park within the budget");
        assert!(run.producers_stopped());
        // Abandon the quiesce; the producer keeps racing.
        run.resume();
        let driver = SimDriver::new(32, CpuCostModel::Measured).with_clock(clock);
        let (out, _) = {
            let (root, rest) = sources.split_at_mut(2);
            let (target, exchanges) = run.root_split();
            let mut refs: Vec<&mut dyn Source> = vec![rest[0].as_mut()];
            for ex in exchanges.iter_mut() {
                refs.push(ex);
            }
            let _ = root;
            driver.run_target_refs(target, &mut refs).unwrap()
        };
        assert_eq!(keys(&out), (0..200).collect::<Vec<_>>());
        let mut sink = Batch::new();
        let outcome = run.seal(&mut sources, &mut sink).unwrap();
        assert!(sink.is_empty(), "nothing left in flight at completion");
        // The producer's sources (a, b) are back in their slots.
        let names: Vec<&str> = sources.iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(outcome.producer_batches > 0);
    }

    #[test]
    fn mid_stream_seal_recovers_sources_without_loss() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 2e5,
            initial_latency_us: 1_000,
        };
        let mut sources: Vec<Box<dyn Source>> = vec![
            Box::new(DelayedSource::new(1, "a", schema("a"), tuples(300), &model)),
            Box::new(DelayedSource::new(2, "b", schema("b"), tuples(300), &model)),
            Box::new(DelayedSource::new(3, "c", schema("c"), tuples(300), &model)),
        ];
        let mut run = FragmentRun::spawn(
            two_fragment_plan(),
            &mut sources,
            clock.clone(),
            16,
            CpuCostModel::Measured,
            &FragmentOptions::default(),
        )
        .unwrap();
        // Let the producer make some progress, then quiesce and seal
        // while its sources are mid-stream.
        let handle = run.quiesce_handles().next().unwrap();
        let progress = handle.high_water_marks().to_vec();
        while progress.iter().all(|p| p.consumed() == 0) {
            let now = clock.now_us();
            clock.sleep_toward(now + 5_000);
        }
        assert!(run.quiesce(), "mid-stream quiesce must succeed");
        let consumed_at_seal: Vec<u64> = progress.iter().map(|p| p.consumed()).collect();
        let mut sink = Batch::new();
        let outcome = run.seal(&mut sources, &mut sink).unwrap();
        assert!(
            !outcome.states.is_empty(),
            "mid-stream seal must extract join state"
        );
        // Loss-freedom at the source level: what the producer consumed
        // plus what remains in the recovered source (slots 0 and 1) is
        // exactly the relation — nothing dropped, nothing re-read.
        for ((slot, src), consumed) in sources.iter_mut().enumerate().zip(consumed_at_seal) {
            let mut remaining = 0u64;
            loop {
                match src.poll(clock.now_us(), 1024) {
                    Poll::Ready(b) => remaining += b.len() as u64,
                    Poll::Pending { next_ready_us } => {
                        clock.sleep_toward(next_ready_us);
                    }
                    Poll::Eof => break,
                }
            }
            assert_eq!(
                consumed + remaining,
                300,
                "slot {slot}: consumed {consumed} + remaining {remaining} must cover the relation"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fragment exploded")]
    fn producer_panic_is_reraised_not_read_as_eof() {
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
                if self.sent >= 5 {
                    panic!("fragment exploded");
                }
                self.sent += 1;
                Poll::Ready(vec![Tuple::new(vec![Value::Int(self.sent - 1)])])
            }
            fn progress(&self) -> SourceProgressView {
                SourceProgressView {
                    tuples_read: self.sent as u64,
                    fraction_read: None,
                    eof: false,
                }
            }
        }
        let clock = Arc::new(WallClock::accelerated(100.0));
        let driver = SimDriver::new(16, CpuCostModel::Measured).with_clock(clock);
        let mut sources = mem_sources();
        sources[0] = Box::new(Exploding {
            schema: schema("a"),
            sent: 0,
        });
        let _ = driver.run_fragments_threaded(
            two_fragment_plan(),
            sources,
            &FragmentOptions::default(),
        );
    }
}
