//! The sequential-access source interface.

use tukwila_relation::{Error, Result, Schema, Tuple, Value};
use tukwila_stats::ArrivalSchedule;

/// Result of polling a source at a virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Poll {
    /// Tuples that had arrived by the poll instant (possibly fewer than
    /// requested).
    Ready(Vec<Tuple>),
    /// Nothing available yet; more data arrives at `next_ready_us`.
    ///
    /// On a virtual timeline the hint is a **promise**: nothing the
    /// source returns, and none of its state, changes before
    /// `next_ready_us`, so a driver may skip every poll of it until then
    /// (see [`DueTimes`]). Sources fed by other threads (exchange
    /// streams, queue-lane federation) answer with a wall-clock polling
    /// tick instead, and are only ever polled on a wall clock, where
    /// drivers poll every sweep.
    Pending { next_ready_us: u64 },
    /// Source exhausted.
    Eof,
}

impl Poll {
    /// The `Pending` hint, if this is one.
    pub fn pending_hint(&self) -> Option<u64> {
        match self {
            Poll::Pending { next_ready_us } => Some(*next_ready_us),
            Poll::Ready(_) | Poll::Eof => None,
        }
    }
}

/// Per-input due times of a poll loop: the promise-keeping bookkeeping
/// shared by every driver that polls several inputs on one timeline.
///
/// A `Pending` answer records its hint (see [`Poll::pending_hint`]), any
/// other answer clears it, and [`DueTimes::is_due`] tells the loop
/// whether to poll an input at all.
/// With skipping on (a virtual timeline), an input whose promise lies in
/// the future is skipped — polling it could only repeat the same
/// `Pending`. With skipping off (a wall clock), every input is due on
/// every sweep. Either way [`DueTimes::earliest`] is the instant to idle
/// toward once a sweep found nothing ready: skipped inputs contribute the
/// hint they would have returned again.
///
/// ```
/// use tukwila_source::{DueTimes, Poll};
///
/// let mut due = DueTimes::new(2, true);
/// due.note(0, Poll::Pending { next_ready_us: 500 }.pending_hint());
/// due.note(1, Poll::Pending { next_ready_us: 200 }.pending_hint());
/// assert!(!due.is_due(0, 100), "promised nothing before 500");
/// assert_eq!(due.earliest(), Some(200));
/// assert!(due.is_due(1, 200));
/// due.note(1, Poll::Eof.pending_hint());
/// assert_eq!(due.earliest(), Some(500));
/// ```
#[derive(Debug, Clone)]
pub struct DueTimes {
    /// The outstanding `Pending` hint per input.
    hints: Vec<Option<u64>>,
    skip: bool,
}

impl DueTimes {
    /// Due times for `inputs` inputs, none outstanding. `skip` turns
    /// promise keeping on; pass it only on a virtual timeline.
    pub fn new(inputs: usize, skip: bool) -> DueTimes {
        DueTimes {
            hints: vec![None; inputs],
            skip,
        }
    }

    /// Grow or shrink to `inputs` inputs. Kept inputs keep their
    /// promises; new ones have none outstanding.
    pub fn resize(&mut self, inputs: usize) {
        self.hints.resize(inputs, None);
    }

    /// Input `i`'s promise still standing at `now_us`: its last `Pending`
    /// hint, when skipping is on and the hint lies in the future. A loop
    /// may answer for the input with `Pending` at this hint.
    pub fn promise(&self, i: usize, now_us: u64) -> Option<u64> {
        self.hints[i].filter(|&h| self.skip && h > now_us)
    }

    /// Whether input `i` must be polled at `now_us`: no promise of it
    /// stands (see [`DueTimes::promise`]).
    pub fn is_due(&self, i: usize, now_us: u64) -> bool {
        self.promise(i, now_us).is_none()
    }

    /// Record what polling input `i` returned: its `Pending` hint, or
    /// `None` for any other answer.
    pub fn note(&mut self, i: usize, pending_hint: Option<u64>) {
        self.hints[i] = pending_hint;
    }

    /// The earliest outstanding hint: when the next input comes due.
    pub fn earliest(&self) -> Option<u64> {
        self.hints.iter().flatten().copied().min()
    }
}

/// Progress a source can report about itself. Cardinality is generally
/// unknown until EOF (the data-integration reality the paper leans on);
/// `fraction_read` is `Some` only for sources that advertise a total size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceProgressView {
    pub tuples_read: u64,
    pub fraction_read: Option<f64>,
    pub eof: bool,
}

/// Static description of a source candidate: what the federation catalog
/// needs to register, rank, and report on a source without downcasting it.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceDescriptor {
    pub rel_id: u32,
    pub name: String,
    /// Whether this candidate holds the complete relation (a full mirror)
    /// or only a partial replica of it.
    pub complete: bool,
    /// For partial replicas: the inclusive range of relation-key values
    /// this candidate declares it covers (over the first key column).
    /// `None` means undeclared coverage. The federation catalog uses
    /// declared ranges to verify that replicas jointly cover their
    /// relation, and the scheduler skips standbys whose range has already
    /// been fully delivered by drained candidates.
    pub key_range: Option<(i64, i64)>,
    /// Delivery rate (tuples per timeline second) this candidate
    /// *declares* up front — catalog metadata, not an observation. The
    /// federation hedge gate scores parked standbys with it, so the best
    /// payer is woken regardless of registration order. `None` means
    /// undeclared (the gate falls back to the configured prior, then to
    /// the mirror assumption).
    pub declared_rate_tuples_per_sec: Option<f64>,
    /// Requests this candidate declares it takes through
    /// [`Source::control`]. A declaration is a promise, not a proof: a
    /// wrapper may forward the descriptor but not the request, so callers
    /// must still handle a refusal.
    pub capabilities: SourceCapabilities,
}

/// What a source declares it can do beyond sequential delivery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceCapabilities {
    /// The source can restart delivery as a key-ordered scan of the keys
    /// after a given one, ascending or descending
    /// ([`SourceControl::KeyScan`]).
    pub key_scan: bool,
    /// The source can ship only some of a row's columns
    /// ([`SourceControl::Project`]).
    ///
    /// Projection is zero-copy: delivered rows keep the relation's schema
    /// and arity, and only the columns shipped are guaranteed to hold the
    /// relation's values. The rest are still in memory but must never be
    /// read — what the source charges its link for, and what its
    /// consumer may look at, is the requested columns alone. The engine
    /// keeps that contract; a test masks every unrequested column with
    /// `Null` and checks that answers do not move.
    pub projection: bool,
}

/// A request to a source, made through [`Source::control`].
#[derive(Debug, Clone, PartialEq)]
pub enum SourceControl {
    /// Restart delivery as a scan of exactly the tuples whose key (the
    /// values of `key_cols`, compared lexicographically by
    /// [`Value::cmp_total`]) is greater than `after` — every tuple when
    /// `after` is `None` — in ascending key order, or in descending key
    /// order when `descending`. Nothing delivered before the request is
    /// delivered again unless it falls in the requested range.
    KeyScan {
        key_cols: Vec<usize>,
        after: Option<Vec<Value>>,
        descending: bool,
    },
    /// Ship only the columns `cols` of every row not delivered yet (see
    /// [`SourceCapabilities::projection`] for what that means for the
    /// rows). A later request replaces an earlier one; a column out of
    /// the schema's range refuses the request.
    Project { cols: Vec<usize> },
}

/// A sequential-only data source. Implementations must deliver tuples in a
/// fixed order; reading is destructive (no rewinds), mirroring the paper's
/// "we limit access to the input relations to be sequential only".
///
/// Sources may take requests that their
/// [`SourceDescriptor::capabilities`] declare, through
/// [`Source::control`]. A `key_scan` source takes a key-scan request and
/// then delivers the requested key range in key order; a `projection`
/// source ships only the requested columns. Every other source refuses
/// requests and stays strictly sequential.
pub trait Source: Send {
    /// Stable identifier of the base relation this source serves.
    fn rel_id(&self) -> u32;

    /// Human-readable name (for plans and reports).
    fn name(&self) -> &str;

    fn schema(&self) -> &Schema;

    /// Pull up to `max_tuples` tuples that have arrived by virtual time
    /// `now_us`.
    ///
    /// A `Pending { next_ready_us }` answer promises, on a virtual
    /// timeline, that polling again before `next_ready_us` would return
    /// the same answer and change nothing, so drivers may skip those
    /// polls ([`DueTimes`]). A source whose readiness depends on other
    /// threads cannot promise that; it answers with a polling tick and
    /// must only be driven on a wall clock.
    fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll;

    /// Progress so far.
    fn progress(&self) -> SourceProgressView;

    /// Candidate descriptor for federation catalogs. The default claims a
    /// complete relation, which is what every non-replicated source is.
    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            rel_id: self.rel_id(),
            name: self.name().to_string(),
            complete: true,
            key_range: None,
            declared_rate_tuples_per_sec: None,
            capabilities: SourceCapabilities::default(),
        }
    }

    /// Ask the source to change what it delivers from timeline instant
    /// `now_us` on. Only sources whose descriptor declares the matching
    /// capability take a request; the default refuses every request, and
    /// a refused request changes nothing. A federation adapter asks a
    /// candidate for at most one key scan, when it activates it, and
    /// forwards every projection request it takes to every candidate.
    /// The engine asks for a projection before its first poll.
    fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
        let _ = (now_us, request);
        Err(Error::Exec(format!(
            "source '{}' takes no requests",
            self.name()
        )))
    }

    /// The driver that polls this source is about to stop polling for a
    /// while *through no fault of the source* (a corrective quiesce: the
    /// producer thread parks at a batch boundary while plans switch).
    /// Sources that account for their own delivery (the threaded
    /// federation adapter) snapshot state here so the coming silence is
    /// not misread as consumer saturation. Default: nothing to do.
    fn quiesce_delivery(&mut self) {}

    /// Polling resumes after a [`Source::quiesce_delivery`] window at
    /// timeline instant `now_us`. Self-accounting sources forgive the
    /// backpressure and silence accrued during the pause (it was the
    /// consumer's quiesce, not source misbehavior). Default: nothing to
    /// do. Must be safe to call without a preceding quiesce.
    fn resume_delivery(&mut self, now_us: u64) {
        let _ = now_us;
    }

    /// The engine measured its actual cost-unit→µs conversion (the
    /// corrective warmup calibration) and re-derived the delivery unit
    /// prices from it. Sources that price their own delivery decisions
    /// (the federation adapter's hedge gate) adopt the new prices for
    /// future decisions; already-made decisions stand. Default: nothing
    /// to do.
    fn recalibrate_delivery_costs(&mut self, costs: &tukwila_stats::schedule::DeliveryCosts) {
        let _ = costs;
    }

    /// Observed delivery rate in tuples per virtual second, for sources
    /// that profile themselves (the federated adapter does). Feeds the
    /// re-optimizer's delivery-bound costing; `None` means unprofiled.
    fn observed_rate(&self) -> Option<f64> {
        None
    }

    /// Observed arrival schedule, for sources that profile their own
    /// delivery behavior. The default derives the degenerate uniform
    /// schedule from [`Source::observed_rate`]; self-profiling adapters
    /// override it with the burst-aware piecewise form. Corrective
    /// re-optimization publishes this into the `SelectivityCatalog`, from
    /// where the shared `DeliveryModel` prices scans, hedges, and
    /// fragment cuts.
    fn observed_schedule(&self) -> Option<ArrivalSchedule> {
        self.observed_rate().map(ArrivalSchedule::uniform)
    }

    /// Downcast hook for adapters that expose richer post-run reports
    /// through `Box<dyn Source>` (the federation adapter does). Default:
    /// not downcastable.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_skip_only_on_a_virtual_timeline() {
        let mut due = DueTimes::new(2, true);
        assert!(due.is_due(0, 0), "nothing outstanding: poll");
        due.note(0, Some(10));
        assert!(!due.is_due(0, 9));
        assert_eq!(due.promise(0, 9), Some(10));
        assert!(due.is_due(0, 10));
        due.note(0, Poll::Ready(Vec::new()).pending_hint());
        assert_eq!((due.promise(0, 0), due.earliest()), (None, None));

        let mut wall = DueTimes::new(1, false);
        wall.note(0, Some(10));
        assert!(wall.is_due(0, 0), "no skipping on a wall clock");
        assert_eq!(wall.promise(0, 0), None);
        assert_eq!(wall.earliest(), Some(10));
    }

    #[test]
    fn requests_are_refused_by_default() {
        use tukwila_relation::{DataType, Field};
        let schema = Schema::new(vec![Field::new("t.x", DataType::Int)]);
        let rows = vec![Tuple::new(vec![Value::Int(1)])];
        let mut src = crate::MemSource::new(1, "t", schema, rows.clone());
        assert_eq!(src.descriptor().capabilities, SourceCapabilities::default());
        let request = SourceControl::KeyScan {
            key_cols: vec![0],
            after: None,
            descending: true,
        };
        assert!(src.control(0, request).is_err());
        let project = SourceControl::Project { cols: vec![0] };
        assert!(src.control(0, project).is_err());
        assert_eq!(
            src.poll(0, 8),
            Poll::Ready(rows),
            "a refusal changes nothing"
        );
    }

    #[test]
    fn poll_variants_compare() {
        assert_eq!(Poll::Eof, Poll::Eof);
        assert_ne!(
            Poll::Pending { next_ready_us: 5 },
            Poll::Pending { next_ready_us: 6 }
        );
    }
}
