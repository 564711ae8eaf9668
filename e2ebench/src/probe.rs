//! A `Source` wrapper that records a span around every poll (pending polls
//! folded, see [`crate::spans`]).

use std::sync::Arc;

use tukwila_relation::Schema;
use tukwila_source::{Poll, Source, SourceDescriptor, SourceProgressView};
use tukwila_stats::schedule::DeliveryCosts;
use tukwila_stats::ArrivalSchedule;

use crate::spans::{Folded, Tracer};

/// Polls returning fewer tuples than this are folded, not kept as spans.
const KEEP_TUPLES: u64 = 64;

/// Span name for polls of a base source or a mirror candidate.
pub const SOURCE_POLL: &str = "source.poll";
/// Span name for polls of a federation adapter.
pub const FEDERATION_POLL: &str = "federation.poll";

/// Forwards every `Source` method to the wrapped source; `poll` also
/// records a span carrying the tuples returned and whether it was pending.
pub struct Probe {
    inner: Box<dyn Source>,
    span: &'static str,
    tracer: Arc<Tracer>,
    /// Folded polls, handed to the tracer when the probe drops.
    folded: Folded,
}

impl Probe {
    pub fn wrap(
        inner: Box<dyn Source>,
        span: &'static str,
        tracer: &Arc<Tracer>,
    ) -> Box<dyn Source> {
        Box::new(Probe {
            inner,
            span,
            tracer: tracer.clone(),
            folded: Folded::default(),
        })
    }
}

/// Wrap `s` in a [`Probe`] when tracing, else return it as is.
pub fn maybe_wrap(
    s: Box<dyn Source>,
    span: &'static str,
    tracer: Option<&Arc<Tracer>>,
) -> Box<dyn Source> {
    match tracer {
        Some(t) => Probe::wrap(s, span, t),
        None => s,
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        self.tracer.add_folded(self.span, self.folded);
    }
}

impl Source for Probe {
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
        let open = self.tracer.begin(self.span);
        let out = self.inner.poll(now_us, max_tuples);
        let (tuples, pending) = match &out {
            Poll::Ready(v) => (v.len() as u64, false),
            Poll::Pending { .. } => (0, true),
            Poll::Eof => (0, false),
        };
        if tuples >= KEEP_TUPLES {
            self.tracer.end(open, tuples, pending);
        } else if let Some(ns) = self.tracer.end_folded(open, tuples, pending) {
            self.folded.count += 1;
            self.folded.ns += ns;
            self.folded.tuples += tuples;
            self.folded.pending += pending as u64;
        }
        out
    }

    fn progress(&self) -> SourceProgressView {
        self.inner.progress()
    }

    fn descriptor(&self) -> SourceDescriptor {
        self.inner.descriptor()
    }

    fn quiesce_delivery(&mut self) {
        self.inner.quiesce_delivery()
    }

    fn resume_delivery(&mut self, now_us: u64) {
        self.inner.resume_delivery(now_us)
    }

    fn recalibrate_delivery_costs(&mut self, costs: &DeliveryCosts) {
        self.inner.recalibrate_delivery_costs(costs)
    }

    fn observed_rate(&self) -> Option<f64> {
        self.inner.observed_rate()
    }

    fn observed_schedule(&self) -> Option<ArrivalSchedule> {
        self.inner.observed_schedule()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}
