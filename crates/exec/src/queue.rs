//! The cross-thread queue operator (paper §3: Tukwila's special operators
//! include "a queuing operator that supports communication across
//! concurrent threads").
//!
//! The deterministic experiments all run on the single-driver engine, but
//! the parallel-subplan configuration of §5 (complementary plans running
//! concurrently) needs a way to ship batches between plan fragments that
//! execute on different threads. [`queue_pair`] creates a bounded channel
//! whose producer end is an [`IncOp`] (so a pipeline can *end* in a queue)
//! and whose consumer end feeds another pipeline (or is drained manually).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, SendError, Sender, TryRecvError, TrySendError};
use tukwila_relation::{Error, Result, Schema, Tuple};
use tukwila_stats::OpCounters;

use crate::op::{Batch, IncOp};

/// Producer half: a pipeline sink that forwards batches to the channel.
pub struct QueueWriter {
    schema: Schema,
    tx: Option<Sender<Batch>>,
    counters: Arc<OpCounters>,
    /// Sends that found the queue full and had to block (backpressure).
    blocked: Arc<AtomicU64>,
}

/// Consumer half: iterate received batches on another thread.
pub struct QueueReader {
    schema: Schema,
    rx: Receiver<Batch>,
}

/// Outcome of a non-blocking receive. `Empty` and `Closed` are distinct on
/// purpose: a consumer multiplexing several producer queues (the threaded
/// federation consumer) must be able to tell "no data *yet*" from "this
/// producer is done", or it either spins forever on a finished queue or —
/// worse — declares EOF while the final batches are still buffered.
#[derive(Debug, Clone, PartialEq)]
pub enum TryRecv {
    /// A batch was waiting.
    Batch(Batch),
    /// Nothing buffered, but the producer is still alive.
    Empty,
    /// The producer finished (or dropped its writer) and every buffered
    /// batch has been drained. Nothing more will ever arrive.
    Closed,
}

/// Create a connected queue pair with the given batch capacity.
///
/// The writer half moves into the producer thread (it is also an
/// [`IncOp`], so a pipeline can end in it); the reader half stays with the
/// consumer and distinguishes "no data yet" from "producer done":
///
/// ```
/// use tukwila_exec::queue::{queue_pair, TryRecv};
/// use tukwila_relation::{DataType, Field, Schema, Tuple, Value};
///
/// let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
/// let (mut writer, reader) = queue_pair(schema, 4);
///
/// let producer = std::thread::spawn(move || {
///     for i in 0..3 {
///         writer.send(vec![Tuple::new(vec![Value::Int(i)])]).unwrap();
///     }
///     // Dropping (or finishing) the writer closes the queue — but only
///     // after every buffered batch has been drained by the reader.
/// });
///
/// let mut got = 0;
/// loop {
///     match reader.try_recv_status() {
///         TryRecv::Batch(batch) => got += batch.len(),
///         TryRecv::Empty => std::thread::yield_now(), // producer still alive
///         TryRecv::Closed => break,                   // done AND drained
///     }
/// }
/// producer.join().unwrap();
/// assert_eq!(got, 3);
/// ```
pub fn queue_pair(schema: Schema, capacity: usize) -> (QueueWriter, QueueReader) {
    let (tx, rx) = bounded(capacity.max(1));
    (
        QueueWriter {
            schema: schema.clone(),
            tx: Some(tx),
            counters: OpCounters::new(),
            blocked: Arc::new(AtomicU64::new(0)),
        },
        QueueReader { schema, rx },
    )
}

/// Error message for a send into a queue whose consumer dropped its
/// reader. The single definition the teardown logic matches against
/// (see [`is_hangup`]) — do not inline the string elsewhere.
pub(crate) const CONSUMER_HANGUP: &str = "queue consumer hung up";

/// Whether an error is specifically the consumer-hangup send failure
/// (benign during teardown: the consumer went away on purpose).
pub(crate) fn is_hangup(e: &Error) -> bool {
    matches!(e, Error::Exec(msg) if msg == CONSUMER_HANGUP)
}

impl QueueWriter {
    /// Send an owned batch without the slice copy [`IncOp::push`] incurs.
    /// Blocks while the queue is at capacity (counting the event as
    /// backpressure); errors once the consumer hung up.
    pub fn send(&mut self, batch: Batch) -> Result<()> {
        let n = batch.len() as u64;
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| Error::Exec("queue already closed".into()))?;
        let blocked_send = match tx.try_send(batch) {
            Ok(()) => {
                self.counters.add_in(n);
                self.counters.add_out(n);
                return Ok(());
            }
            Err(TrySendError::Full(b)) => {
                self.blocked.fetch_add(1, Ordering::Relaxed);
                tx.send(b)
            }
            Err(TrySendError::Disconnected(_)) => {
                return Err(Error::Exec(CONSUMER_HANGUP.into()));
            }
        };
        match blocked_send {
            Ok(()) => {
                self.counters.add_in(n);
                self.counters.add_out(n);
                Ok(())
            }
            Err(SendError(_)) => Err(Error::Exec(CONSUMER_HANGUP.into())),
        }
    }

    /// Non-blocking send: ship the batch if the queue has room, hand it
    /// back (`Ok(Some(batch))`) if the queue is full — counting the event
    /// as backpressure — and error once the consumer hung up.
    ///
    /// This is the quiesce-aware shipping primitive: a producer fragment
    /// that must be able to park at a batch boundary cannot sit inside a
    /// blocking [`QueueWriter::send`], so it loops `try_send`, checking
    /// its quiesce gate between attempts and carrying the refused batch
    /// into its parked state if asked to stop.
    pub fn try_send(&mut self, batch: Batch) -> Result<Option<Batch>> {
        let n = batch.len() as u64;
        let tx = self
            .tx
            .as_ref()
            .ok_or_else(|| Error::Exec("queue already closed".into()))?;
        match tx.try_send(batch) {
            Ok(()) => {
                self.counters.add_in(n);
                self.counters.add_out(n);
                Ok(None)
            }
            Err(TrySendError::Full(b)) => {
                self.blocked.fetch_add(1, Ordering::Relaxed);
                Ok(Some(b))
            }
            Err(TrySendError::Disconnected(_)) => Err(Error::Exec(CONSUMER_HANGUP.into())),
        }
    }

    /// Handle to the backpressure counter, readable after the writer has
    /// moved into its producer thread.
    pub fn blocked_handle(&self) -> Arc<AtomicU64> {
        self.blocked.clone()
    }

    /// Batches currently buffered in the queue (0 once closed). Sampled
    /// by producers after a send to keep a queue-depth high-water mark.
    pub fn depth(&self) -> usize {
        self.tx.as_ref().map_or(0, |tx| tx.len())
    }

    /// Sends (so far) that had to block on a full queue.
    pub fn blocked_sends(&self) -> u64 {
        self.blocked.load(Ordering::Relaxed)
    }
}

impl IncOp for QueueWriter {
    fn name(&self) -> &str {
        "queue"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn push(&mut self, _port: usize, batch: &[Tuple], _out: &mut Batch) -> Result<()> {
        self.counters.add_in(batch.len() as u64);
        self.counters.add_out(batch.len() as u64);
        match &self.tx {
            Some(tx) => match tx.send(batch.to_vec()) {
                Ok(()) => Ok(()),
                Err(SendError(_)) => Err(Error::Exec(CONSUMER_HANGUP.into())),
            },
            None => Err(Error::Exec("queue already closed".into())),
        }
    }

    fn finish(&mut self, _out: &mut Batch) -> Result<()> {
        // Dropping the sender closes the channel; the reader sees EOF.
        self.tx = None;
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }
}

impl QueueReader {
    /// Schema of the batches flowing through the queue.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Receive the next batch; `None` once the producer finished *and*
    /// every buffered batch has been drained. Batches buffered when the
    /// writer dropped are still delivered — a writer drop never loses
    /// in-flight data.
    pub fn recv(&self) -> Option<Batch> {
        self.rx.recv().ok()
    }

    /// Non-blocking receive with explicit EOF: see [`TryRecv`]. This is
    /// the call multiplexing consumers must use — the historical
    /// [`QueueReader::try_recv`] collapsed `Empty` and `Closed` into
    /// `None`, which disagreed with [`QueueReader::recv`] after a writer
    /// drop (recv still surfaced the buffered final batches; a
    /// `try_recv`-driven loop treating `None` as EOF walked away from
    /// them).
    pub fn try_recv_status(&self) -> TryRecv {
        match self.rx.try_recv() {
            Ok(b) => TryRecv::Batch(b),
            Err(TryRecvError::Empty) => TryRecv::Empty,
            Err(TryRecvError::Disconnected) => TryRecv::Closed,
        }
    }

    /// Non-blocking receive, conflating "empty" with "closed". Only safe
    /// when the caller never uses `None` as an EOF signal; prefer
    /// [`QueueReader::try_recv_status`].
    pub fn try_recv(&self) -> Option<Batch> {
        self.rx.try_recv().ok()
    }

    /// Drain everything remaining (blocks until producer EOF). Built on
    /// [`QueueReader::recv`], so batches that were still buffered when the
    /// writer dropped are included.
    pub fn drain(&self) -> Vec<Tuple> {
        let mut out = Vec::new();
        while let Some(b) = self.recv() {
            out.extend(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn ships_batches_across_threads() {
        let (mut writer, reader) = queue_pair(schema(), 4);
        let consumer = std::thread::spawn(move || reader.drain());
        let mut sink = Batch::new();
        for i in 0..10 {
            writer
                .push(0, &[t(i * 2), t(i * 2 + 1)], &mut sink)
                .unwrap();
        }
        writer.finish(&mut sink).unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got.len(), 20);
        let vals: Vec<i64> = got.iter().map(|x| x.get(0).as_int().unwrap()).collect();
        assert_eq!(vals, (0..20).collect::<Vec<_>>(), "order preserved");
        assert_eq!(writer.counters().tuples_out(), 20);
    }

    #[test]
    fn finish_signals_eof() {
        let (mut writer, reader) = queue_pair(schema(), 2);
        let mut sink = Batch::new();
        writer.push(0, &[t(1)], &mut sink).unwrap();
        writer.finish(&mut sink).unwrap();
        assert_eq!(reader.recv().unwrap().len(), 1);
        assert!(reader.recv().is_none(), "closed after finish");
        // Writing after finish is an error.
        assert!(writer.push(0, &[t(2)], &mut sink).is_err());
    }

    #[test]
    fn bounded_capacity_applies_backpressure() {
        let (mut writer, reader) = queue_pair(schema(), 1);
        let mut sink = Batch::new();
        writer.push(0, &[t(1)], &mut sink).unwrap();
        // Queue full: a second push would block, so consume first.
        assert_eq!(reader.try_recv().unwrap().len(), 1);
        writer.push(0, &[t(2)], &mut sink).unwrap();
        assert_eq!(reader.try_recv().unwrap().len(), 1);
        assert!(reader.try_recv().is_none());
    }

    #[test]
    fn try_recv_status_distinguishes_empty_from_closed() {
        let (mut writer, reader) = queue_pair(schema(), 2);
        assert_eq!(reader.try_recv_status(), TryRecv::Empty);
        writer.send(vec![t(1)]).unwrap();
        assert_eq!(reader.try_recv_status(), TryRecv::Batch(vec![t(1)]));
        assert_eq!(reader.try_recv_status(), TryRecv::Empty, "alive, no data");
        writer.finish(&mut Batch::new()).unwrap();
        assert_eq!(reader.try_recv_status(), TryRecv::Closed);
        assert_eq!(reader.try_recv_status(), TryRecv::Closed, "closed latches");
    }

    #[test]
    fn writer_drop_mid_stream_loses_nothing() {
        // The writer enqueues two batches and is dropped without finish()
        // (a producer thread dying mid-batch). The buffered batches must
        // still come out, *then* the queue reads Closed — recv and
        // try_recv_status agree.
        let (mut writer, reader) = queue_pair(schema(), 4);
        writer.send(vec![t(1), t(2)]).unwrap();
        writer.send(vec![t(3)]).unwrap();
        drop(writer);
        assert_eq!(reader.try_recv_status(), TryRecv::Batch(vec![t(1), t(2)]));
        assert_eq!(reader.recv().unwrap(), vec![t(3)]);
        assert_eq!(reader.try_recv_status(), TryRecv::Closed);
        assert!(reader.recv().is_none());
    }

    #[test]
    fn send_counts_backpressure() {
        let (mut writer, reader) = queue_pair(schema(), 1);
        let blocked = writer.blocked_handle();
        writer.send(vec![t(1)]).unwrap();
        assert_eq!(writer.blocked_sends(), 0);
        // The queue is now full, so this producer's next send must take
        // the blocked path; the consumer only starts draining once the
        // backpressure event has been recorded, keeping the test
        // deterministic.
        let producer = std::thread::spawn(move || {
            writer.send(vec![t(2)]).unwrap();
            writer.finish(&mut Batch::new()).unwrap();
            writer
        });
        while blocked.load(std::sync::atomic::Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        assert_eq!(reader.drain().len(), 2);
        let writer = producer.join().unwrap();
        assert_eq!(writer.blocked_sends(), 1);
        assert_eq!(writer.counters().tuples_out(), 2);
    }

    #[test]
    fn try_send_hands_back_on_full_and_errors_on_hangup() {
        let (mut writer, reader) = queue_pair(schema(), 1);
        assert!(writer.try_send(vec![t(1)]).unwrap().is_none());
        // Queue full: the batch comes back instead of blocking.
        let back = writer.try_send(vec![t(2)]).unwrap().unwrap();
        assert_eq!(back, vec![t(2)]);
        assert_eq!(writer.blocked_sends(), 1);
        assert_eq!(reader.try_recv().unwrap(), vec![t(1)]);
        assert!(writer.try_send(back).unwrap().is_none());
        drop(reader);
        assert!(writer.try_send(vec![t(3)]).is_err());
    }

    #[test]
    fn send_after_consumer_hangup_errors() {
        let (mut writer, reader) = queue_pair(schema(), 1);
        drop(reader);
        assert!(writer.send(vec![t(1)]).is_err());
    }

    /// A producer pipeline on one thread feeding a consumer join on
    /// another — the parallel-subplan shape of §5's first implementation.
    #[test]
    fn pipeline_to_pipeline_threading() {
        use crate::join::pipelined_hash::PipelinedHashJoin;
        let (mut writer, reader) = queue_pair(schema(), 8);
        let consumer = std::thread::spawn(move || {
            let mut join = PipelinedHashJoin::new(
                Schema::new(vec![Field::new("l.x", DataType::Int)]),
                Schema::new(vec![Field::new("r.x", DataType::Int)]),
                0,
                0,
            );
            let mut out = Batch::new();
            // Build side arrives over the queue...
            while let Some(batch) = reader.recv() {
                join.push(0, &batch, &mut out).unwrap();
            }
            // ...then probe locally.
            let probes: Vec<Tuple> = (0..50).map(|i| t(i % 10)).collect();
            join.push(1, &probes, &mut out).unwrap();
            out.len()
        });
        let mut sink = Batch::new();
        for i in 0..10 {
            writer.push(0, &[t(i)], &mut sink).unwrap();
        }
        writer.finish(&mut sink).unwrap();
        assert_eq!(consumer.join().unwrap(), 50);
    }
}
