//! Adaptivity tracing: a clock-aware event journal with decision
//! provenance.
//!
//! The engine's whole point is that it *adapts mid-flight* — hedged
//! source races, mid-stream re-optimization, plan switches — yet those
//! decisions are invisible in the terse end-of-run reports. This module
//! is the journal the adaptive layers write to as they decide:
//!
//! * **Spans** ([`SpanKind`]) bracket query/phase/fragment lifetimes and
//!   the quiesce protocol's park/drain/seal/respawn sub-steps.
//! * **Counters** record bounded per-run tallies (tuples, batches,
//!   blocked sends, dedup hits) — never per-tuple events.
//! * **Decisions** carry full provenance: the hedge gate logs every
//!   candidate's [`RaceDecision`](crate::schedule::RaceDecision)-derived
//!   win/waste score and which
//!   standby (if any) it woke; the corrective monitor logs observed vs
//!   estimated costs and the switch/no-switch verdict; the cut chooser
//!   logs each cut's net win against its threshold.
//!
//! Timestamps come from the shared [`Clock`] trait, so a virtual run and
//! a threaded wall run produce *comparable* traces: the timeline unit is
//! the same, and the decision sequence — which excludes raw timings via
//! [`hedge_signatures`] — must match exactly between clocks on the same
//! scenario. That is a strictly stronger equivalence check than
//! comparing answers.
//!
//! The sink is lock-cheap: a disabled [`TraceSink`] is a `None` check,
//! and an enabled one takes one short mutex per *event* (events are per
//! decision/per batch-wave, not per tuple).
//!
//! ```
//! use std::sync::Arc;
//! use tukwila_stats::trace::{TraceEvent, TraceSink};
//! use tukwila_stats::{Clock, VirtualClock};
//!
//! let clock = Arc::new(VirtualClock::new());
//! let sink = TraceSink::unbounded(clock.clone());
//! clock.observe(250);
//! sink.record(TraceEvent::Counter {
//!     name: "tuples".into(),
//!     scope: "scan(orders)".into(),
//!     value: 42,
//! });
//! let records = sink.snapshot();
//! assert_eq!(records.len(), 1);
//! assert_eq!(records[0].at_us, 250);
//! assert!(records[0].to_json().contains("\"type\":\"counter\""));
//!
//! // Disabled sinks cost one branch and record nothing.
//! let off = TraceSink::disabled();
//! off.record(TraceEvent::Counter {
//!     name: "tuples".into(),
//!     scope: "scan(orders)".into(),
//!     value: 1,
//! });
//! assert!(off.snapshot().is_empty());
//! ```

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::clock::Clock;

/// What a [`TraceEvent::SpanBegin`]/[`TraceEvent::SpanEnd`] pair covers.
///
/// The hierarchy nests: a `Query` contains `Phase`s, a phase contains
/// `Fragment`s, a switch interposes a `Quiesce` whose sub-steps are
/// `Park` → `Drain` → `Seal` → `Respawn`, and `Drive` brackets one
/// driver run over a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One whole query execution.
    Query,
    /// One corrective phase (one plan's tenure).
    Phase,
    /// One plan fragment's producer lifetime.
    Fragment,
    /// The whole quiesce protocol around a plan switch.
    Quiesce,
    /// Producers parking at batch boundaries (inside a quiesce).
    Park,
    /// Draining in-flight exchange tuples into the sealed plan.
    Drain,
    /// Sealing operator state into the registry.
    Seal,
    /// Spawning the next phase's producers.
    Respawn,
    /// One driver run over a pipeline (e.g. `SimDriver::run_target`).
    Drive,
}

impl SpanKind {
    /// Stable lowercase label used in JSONL and rollup keys.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Phase => "phase",
            SpanKind::Fragment => "fragment",
            SpanKind::Quiesce => "quiesce",
            SpanKind::Park => "park",
            SpanKind::Drain => "drain",
            SpanKind::Seal => "seal",
            SpanKind::Respawn => "respawn",
            SpanKind::Drive => "drive",
        }
    }

    /// Build the [`TraceEvent::SpanBegin`] for this kind.
    pub fn begin(self, name: impl Into<String>) -> TraceEvent {
        TraceEvent::SpanBegin {
            kind: self,
            name: name.into(),
        }
    }

    /// Build the matching [`TraceEvent::SpanEnd`].
    pub fn end(self, name: impl Into<String>) -> TraceEvent {
        TraceEvent::SpanEnd {
            kind: self,
            name: name.into(),
        }
    }
}

/// One candidate standby's score inside a hedge-gate decision: the
/// [`RaceDecision`](crate::RaceDecision) win/waste the delivery model
/// predicted for racing it, and whether it paid.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateScore {
    /// The candidate source's name.
    pub candidate: String,
    /// The rate (tuples/sec) the gate assumed for the candidate.
    pub rate_tps: f64,
    /// Predicted timeline µs saved if this standby wins the race.
    pub win_us: f64,
    /// Predicted timeline µs of wasted overlap work if it loses.
    pub waste_us: f64,
    /// Whether the model said racing this candidate pays.
    pub pays: bool,
}

/// A typed journal entry. Everything the adaptive layers decide or
/// measure is one of these; see the module docs for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A span opens. `name` identifies the instance (query name,
    /// fragment index, phase number).
    SpanBegin {
        /// What the span covers.
        kind: SpanKind,
        /// Which instance (e.g. `"frag-2"`, `"phase-0"`).
        name: String,
    },
    /// The matching span closes.
    SpanEnd {
        /// What the span covers.
        kind: SpanKind,
        /// Which instance; pairs with the [`TraceEvent::SpanBegin`].
        name: String,
    },
    /// A bounded tally (tuples, batches, blocked sends, dedup hits…).
    /// Emitted at span or run boundaries, never per tuple.
    Counter {
        /// Which tally (e.g. `"tuples"`, `"blocked_sends"`).
        name: String,
        /// What it is scoped to (an operator, exchange, or source name).
        scope: String,
        /// The tally's value.
        value: u64,
    },
    /// The hedge gate evaluated standbys for a stalled source. Carries
    /// every candidate's score, the chosen standby, and the chosen
    /// [`RaceDecision`](crate::RaceDecision)'s win/waste — whether or
    /// not the gate fired.
    HedgeDecision {
        /// The federated relation being fed.
        relation: String,
        /// The stalled/pending candidate that triggered the gate.
        stalled: String,
        /// All scored standbys, in scheduler order.
        scores: Vec<CandidateScore>,
        /// The standby the gate woke, if any.
        chosen: Option<String>,
        /// Predicted win (timeline µs) of the chosen race.
        win_us: f64,
        /// Predicted waste (timeline µs) of the chosen race.
        waste_us: f64,
        /// Whether a standby was actually activated.
        fired: bool,
        /// Whether the chosen standby splits the relation with the
        /// stalled primary (a key scan from the far end, stopping where
        /// the two meet) rather than racing it from the first tuple.
        split: bool,
    },
    /// A standby was activated outside the cost gate (the EOF sweep:
    /// every live candidate finished without completing the relation).
    Activation {
        /// The federated relation being fed.
        relation: String,
        /// The standby that was woken.
        candidate: String,
        /// True when this came from the EOF sweep rather than the gate.
        sweep: bool,
    },
    /// The corrective monitor compared the running plan against a
    /// re-optimized candidate.
    CorrectiveDecision {
        /// Which phase the monitor was watching.
        phase: u64,
        /// The running plan's description.
        current_plan: String,
        /// The candidate plan's description.
        candidate_plan: String,
        /// Estimated remaining cost of the running plan.
        current_cost: f64,
        /// Estimated cost of the candidate.
        candidate_cost: f64,
        /// The switch threshold in force (candidate must beat
        /// `threshold × current_cost`).
        threshold: f64,
        /// Whether the monitor ordered a plan switch.
        switched: bool,
    },
    /// The monitor calibrated the optimizer's cost unit against
    /// measured CPU (phase-0 `Measured` calibration).
    Calibration {
        /// Which phase the calibration ran in.
        phase: u64,
        /// Measured CPU so far, timeline µs.
        measured_cpu_us: f64,
        /// The estimate the measurement was compared against.
        estimated_cpu_us: f64,
        /// The resulting cost-unit multiplier (clamped).
        unit_us: f64,
    },
    /// The cut chooser scored one candidate cut.
    CutDecision {
        /// Which plan edge the cut would sever.
        site: String,
        /// Predicted net win (timeline µs) of cutting here.
        net_win_us: f64,
        /// The threshold the net win was gated on.
        min_net_win_us: f64,
        /// Whether the cut was taken.
        accepted: bool,
    },
}

impl TraceEvent {
    /// Stable lowercase type tag used in JSONL (`"type":…`) and rollups.
    pub fn type_tag(&self) -> &'static str {
        match self {
            TraceEvent::SpanBegin { .. } => "span_begin",
            TraceEvent::SpanEnd { .. } => "span_end",
            TraceEvent::Counter { .. } => "counter",
            TraceEvent::HedgeDecision { .. } => "hedge_decision",
            TraceEvent::Activation { .. } => "activation",
            TraceEvent::CorrectiveDecision { .. } => "corrective_decision",
            TraceEvent::Calibration { .. } => "calibration",
            TraceEvent::CutDecision { .. } => "cut_decision",
        }
    }
}

/// One journal entry: a sequence number (total order of emission), a
/// timeline timestamp from the sink's [`Clock`], and the typed event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Emission order, dense from 0 even when a bounded sink drops old
    /// records.
    pub seq: u64,
    /// Timeline instant (µs) the event was recorded at.
    pub at_us: u64,
    /// The event itself.
    pub event: TraceEvent,
}

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` as a JSON value. Non-finite values (an unbounded win
/// when no healthy candidate exists) have no JSON representation, so
/// they become `null`.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

impl TraceRecord {
    /// Serialize this record as one line of JSON (hand-rolled; the
    /// workspace deliberately carries no serde). Schema is documented in
    /// `results/README.md`.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"at_us\":{},\"type\":\"{}\"",
            self.seq,
            self.at_us,
            self.event.type_tag()
        );
        match &self.event {
            TraceEvent::SpanBegin { kind, name } | TraceEvent::SpanEnd { kind, name } => {
                s.push_str(&format!(
                    ",\"kind\":\"{}\",\"name\":\"{}\"",
                    kind.label(),
                    json_escape(name)
                ));
            }
            TraceEvent::Counter { name, scope, value } => {
                s.push_str(&format!(
                    ",\"name\":\"{}\",\"scope\":\"{}\",\"value\":{}",
                    json_escape(name),
                    json_escape(scope),
                    value
                ));
            }
            TraceEvent::HedgeDecision {
                relation,
                stalled,
                scores,
                chosen,
                win_us,
                waste_us,
                fired,
                split,
            } => {
                s.push_str(&format!(
                    ",\"relation\":\"{}\",\"stalled\":\"{}\",\"scores\":[",
                    json_escape(relation),
                    json_escape(stalled)
                ));
                for (i, c) in scores.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!(
                        "{{\"candidate\":\"{}\",\"rate_tps\":{},\"win_us\":{},\
                         \"waste_us\":{},\"pays\":{}}}",
                        json_escape(&c.candidate),
                        json_f64(c.rate_tps),
                        json_f64(c.win_us),
                        json_f64(c.waste_us),
                        c.pays
                    ));
                }
                s.push(']');
                match chosen {
                    Some(name) => {
                        s.push_str(&format!(",\"chosen\":\"{}\"", json_escape(name)));
                    }
                    None => s.push_str(",\"chosen\":null"),
                }
                s.push_str(&format!(
                    ",\"win_us\":{},\"waste_us\":{},\"fired\":{},\"split\":{}",
                    json_f64(*win_us),
                    json_f64(*waste_us),
                    fired,
                    split
                ));
            }
            TraceEvent::Activation {
                relation,
                candidate,
                sweep,
            } => {
                s.push_str(&format!(
                    ",\"relation\":\"{}\",\"candidate\":\"{}\",\"sweep\":{}",
                    json_escape(relation),
                    json_escape(candidate),
                    sweep
                ));
            }
            TraceEvent::CorrectiveDecision {
                phase,
                current_plan,
                candidate_plan,
                current_cost,
                candidate_cost,
                threshold,
                switched,
            } => {
                s.push_str(&format!(
                    ",\"phase\":{},\"current_plan\":\"{}\",\"candidate_plan\":\"{}\",\
                     \"current_cost\":{},\"candidate_cost\":{},\"threshold\":{},\
                     \"switched\":{}",
                    phase,
                    json_escape(current_plan),
                    json_escape(candidate_plan),
                    json_f64(*current_cost),
                    json_f64(*candidate_cost),
                    json_f64(*threshold),
                    switched
                ));
            }
            TraceEvent::Calibration {
                phase,
                measured_cpu_us,
                estimated_cpu_us,
                unit_us,
            } => {
                s.push_str(&format!(
                    ",\"phase\":{},\"measured_cpu_us\":{},\"estimated_cpu_us\":{},\
                     \"unit_us\":{}",
                    phase,
                    json_f64(*measured_cpu_us),
                    json_f64(*estimated_cpu_us),
                    json_f64(*unit_us)
                ));
            }
            TraceEvent::CutDecision {
                site,
                net_win_us,
                min_net_win_us,
                accepted,
            } => {
                s.push_str(&format!(
                    ",\"site\":\"{}\",\"net_win_us\":{},\"min_net_win_us\":{},\
                     \"accepted\":{}",
                    json_escape(site),
                    json_f64(*net_win_us),
                    json_f64(*min_net_win_us),
                    accepted
                ));
            }
        }
        s.push('}');
        s
    }
}

/// Journal storage: unbounded vector or bounded ring.
#[derive(Debug)]
enum Store {
    Unbounded(Vec<TraceRecord>),
    Ring {
        buf: VecDeque<TraceRecord>,
        cap: usize,
    },
}

#[derive(Debug)]
struct SinkInner {
    clock: Arc<dyn Clock>,
    store: Mutex<Store>,
    seq: AtomicU64,
    dropped: AtomicU64,
}

/// The shared, clone-cheap journal handle every instrumented layer
/// holds. A disabled sink (the default) is a `None` inside and records
/// nothing at the cost of one branch; enabled sinks share one journal
/// through an `Arc`, so cloning a sink clones a handle, not the buffer.
#[derive(Debug, Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkInner>>,
}

impl TraceSink {
    /// The no-op sink: records nothing, allocates nothing. This is also
    /// the `Default`, so configs gain tracing without breaking callers.
    pub fn disabled() -> TraceSink {
        TraceSink { inner: None }
    }

    /// An unbounded journal stamped by `clock`. Event volume is bounded
    /// by design (per-decision / per-run, never per-tuple), so
    /// unbounded storage is safe for query-scale runs.
    pub fn unbounded(clock: Arc<dyn Clock>) -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                clock,
                store: Mutex::new(Store::Unbounded(Vec::new())),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// A bounded ring keeping the most recent `cap` records; older ones
    /// are dropped and tallied in [`TraceSink::dropped`]. For long-lived
    /// serving processes where only the recent window matters.
    pub fn bounded(clock: Arc<dyn Clock>, cap: usize) -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(SinkInner {
                clock,
                store: Mutex::new(Store::Ring {
                    buf: VecDeque::with_capacity(cap.max(1)),
                    cap: cap.max(1),
                }),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether events are being recorded. Callers building expensive
    /// provenance payloads (candidate score vectors) should check this
    /// first.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record `event` stamped with the sink clock's current instant.
    pub fn record(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            let at = inner.clock.now_us();
            Self::push(inner, at, event);
        }
    }

    /// Record `event` stamped with an explicit timeline instant — for
    /// emitters that are handed a more authoritative `now` than the
    /// shared clock (the virtual scheduler receives the driver's
    /// simulated now as an argument).
    pub fn record_at(&self, at_us: u64, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            Self::push(inner, at_us, event);
        }
    }

    fn push(inner: &SinkInner, at_us: u64, event: TraceEvent) {
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let rec = TraceRecord { seq, at_us, event };
        let mut store = inner.store.lock();
        match &mut *store {
            Store::Unbounded(v) => v.push(rec),
            Store::Ring { buf, cap } => {
                if buf.len() == *cap {
                    buf.pop_front();
                    inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
                buf.push_back(rec);
            }
        }
    }

    /// Convenience: record a [`TraceEvent::SpanBegin`].
    pub fn span_begin(&self, kind: SpanKind, name: impl Into<String>) {
        if self.is_enabled() {
            self.record(TraceEvent::SpanBegin {
                kind,
                name: name.into(),
            });
        }
    }

    /// Convenience: record a [`TraceEvent::SpanEnd`].
    pub fn span_end(&self, kind: SpanKind, name: impl Into<String>) {
        if self.is_enabled() {
            self.record(TraceEvent::SpanEnd {
                kind,
                name: name.into(),
            });
        }
    }

    /// Convenience: record a [`TraceEvent::Counter`]. Only non-zero
    /// values are recorded, so quiet scopes don't pad the journal.
    pub fn counter(&self, name: impl Into<String>, scope: impl Into<String>, value: u64) {
        if self.is_enabled() && value > 0 {
            self.record(TraceEvent::Counter {
                name: name.into(),
                scope: scope.into(),
                value,
            });
        }
    }

    /// The journal so far, in emission order. Copies the buffer; call at
    /// run boundaries, not in hot loops.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => match &*inner.store.lock() {
                Store::Unbounded(v) => v.clone(),
                Store::Ring { buf, .. } => buf.iter().cloned().collect(),
            },
        }
    }

    /// How many records are currently retained.
    pub fn len(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => match &*inner.store.lock() {
                Store::Unbounded(v) => v.len(),
                Store::Ring { buf, .. } => buf.len(),
            },
        }
    }

    /// Whether the journal is empty (always true for a disabled sink).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many records a bounded ring has evicted.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Serialize the whole journal as JSONL (one record per line, `\n`
    /// terminated; empty string for an empty journal).
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.snapshot() {
            out.push_str(&rec.to_json());
            out.push('\n');
        }
        out
    }
}

/// Per-query rollup of a journal: span tallies, counter sums, and
/// decision counts. Built once at the end of a run with
/// [`QuerySummary::from_records`]; rendered with
/// [`QuerySummary::render`] for the `repro --trace` tables and
/// [`QuerySummary::decision_counts`] for the CI golden.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuerySummary {
    /// Completed spans per [`SpanKind::label`].
    pub spans: BTreeMap<String, u64>,
    /// Counter sums keyed `name` → total across scopes.
    pub counters: BTreeMap<String, u64>,
    /// Hedge-gate evaluations that woke a standby.
    pub hedges_fired: u64,
    /// Hedge-gate evaluations that declined every standby.
    pub hedges_declined: u64,
    /// EOF-sweep activations (standbys woken outside the cost gate).
    pub sweep_activations: u64,
    /// Corrective-monitor polls that ordered a switch.
    pub switches: u64,
    /// Corrective-monitor polls that held the current plan.
    pub holds: u64,
    /// Cost-unit calibrations performed.
    pub calibrations: u64,
    /// Cut-chooser decisions that took the cut.
    pub cuts_accepted: u64,
    /// Cut-chooser decisions that declined the cut.
    pub cuts_rejected: u64,
    /// Timestamp of the first record (timeline µs), if any.
    pub first_us: Option<u64>,
    /// Timestamp of the last record (timeline µs), if any.
    pub last_us: Option<u64>,
}

impl QuerySummary {
    /// Aggregate a journal into a rollup.
    pub fn from_records(records: &[TraceRecord]) -> QuerySummary {
        let mut s = QuerySummary::default();
        for rec in records {
            s.first_us = Some(s.first_us.map_or(rec.at_us, |f| f.min(rec.at_us)));
            s.last_us = Some(s.last_us.map_or(rec.at_us, |l| l.max(rec.at_us)));
            match &rec.event {
                TraceEvent::SpanBegin { .. } => {}
                TraceEvent::SpanEnd { kind, .. } => {
                    *s.spans.entry(kind.label().to_string()).or_insert(0) += 1;
                }
                TraceEvent::Counter { name, value, .. } => {
                    *s.counters.entry(name.clone()).or_insert(0) += value;
                }
                TraceEvent::HedgeDecision { fired, .. } => {
                    if *fired {
                        s.hedges_fired += 1;
                    } else {
                        s.hedges_declined += 1;
                    }
                }
                TraceEvent::Activation { sweep, .. } => {
                    if *sweep {
                        s.sweep_activations += 1;
                    }
                }
                TraceEvent::CorrectiveDecision { switched, .. } => {
                    if *switched {
                        s.switches += 1;
                    } else {
                        s.holds += 1;
                    }
                }
                TraceEvent::Calibration { .. } => s.calibrations += 1,
                TraceEvent::CutDecision { accepted, .. } => {
                    if *accepted {
                        s.cuts_accepted += 1;
                    } else {
                        s.cuts_rejected += 1;
                    }
                }
            }
        }
        s
    }

    /// Render the human-facing rollup table (aligned `key value` lines).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("  decisions:\n");
        for (k, v) in self.decision_pairs() {
            out.push_str(&format!("    {k:<18} {v}\n"));
        }
        if !self.spans.is_empty() {
            out.push_str("  spans (completed):\n");
            for (k, v) in &self.spans {
                out.push_str(&format!("    {k:<18} {v}\n"));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("    {k:<18} {v}\n"));
            }
        }
        if let (Some(f), Some(l)) = (self.first_us, self.last_us) {
            out.push_str(&format!("  window: [{f} .. {l}] timeline us\n"));
        }
        out
    }

    fn decision_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("hedges_fired", self.hedges_fired),
            ("hedges_declined", self.hedges_declined),
            ("sweep_activations", self.sweep_activations),
            ("switches", self.switches),
            ("holds", self.holds),
            ("calibrations", self.calibrations),
            ("cuts_accepted", self.cuts_accepted),
            ("cuts_rejected", self.cuts_rejected),
        ]
    }

    /// The decision-count summary diffed as a CI golden: one
    /// `key=value` line per decision class, stable order. Timing-free
    /// by construction, so it is deterministic for virtual-clock runs.
    pub fn decision_counts(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.decision_pairs() {
            out.push_str(&format!("{k}={v}\n"));
        }
        out
    }
}

/// The timing-free signature of one hedge-gate decision: which relation,
/// which stalled candidate triggered it, which standby was chosen (or
/// `-` for a decline), and whether it fired. Two runs of the same
/// scenario under different clocks must produce, per relation, the same
/// ordered signature list — win/waste magnitudes differ with the clock,
/// the *decisions* must not.
pub fn decision_signature(event: &TraceEvent) -> Option<String> {
    match event {
        TraceEvent::HedgeDecision {
            relation,
            stalled,
            chosen,
            fired,
            ..
        } => Some(format!(
            "{relation}|stalled={stalled}|chosen={}|fired={fired}",
            chosen.as_deref().unwrap_or("-")
        )),
        _ => None,
    }
}

/// Group the hedge-decision signatures of a journal by relation, in
/// emission order. Threaded runs interleave *relations*
/// nondeterministically, but within one relation the gate's decision
/// sequence is the scheduler's own total order, so per-relation lists
/// are the right unit of cross-clock comparison.
pub fn hedge_signatures(records: &[TraceRecord]) -> BTreeMap<String, Vec<String>> {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for rec in records {
        if let TraceEvent::HedgeDecision { relation, .. } = &rec.event {
            if let Some(sig) = decision_signature(&rec.event) {
                map.entry(relation.clone()).or_default().push(sig);
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

    fn sample_hedge(fired: bool) -> TraceEvent {
        TraceEvent::HedgeDecision {
            relation: "fed(a×2)".into(),
            stalled: "a-primary".into(),
            scores: vec![CandidateScore {
                candidate: "a-mirror".into(),
                rate_tps: 1000.0,
                win_us: 5000.0,
                waste_us: 100.0,
                pays: fired,
            }],
            chosen: fired.then(|| "a-mirror".to_string()),
            win_us: if fired { 5000.0 } else { 0.0 },
            waste_us: if fired { 100.0 } else { 0.0 },
            fired,
            split: false,
        }
    }

    #[test]
    fn disabled_sink_is_inert() {
        let sink = TraceSink::disabled();
        sink.record(sample_hedge(true));
        sink.counter("tuples", "x", 5);
        assert!(!sink.is_enabled());
        assert!(sink.is_empty());
        assert_eq!(sink.export_jsonl(), "");
    }

    #[test]
    fn unbounded_sink_stamps_with_clock() {
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::unbounded(clock.clone());
        clock.observe(10);
        sink.record(sample_hedge(true));
        clock.observe(20);
        sink.record_at(15, sample_hedge(false));
        let recs = sink.snapshot();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].seq, 0);
        assert_eq!(recs[0].at_us, 10);
        assert_eq!(recs[1].at_us, 15, "record_at overrides the clock");
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::bounded(clock, 2);
        for i in 0..5 {
            sink.counter("n", "s", i + 1);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
        let recs = sink.snapshot();
        assert_eq!(recs[0].seq, 3, "oldest retained is seq 3");
    }

    #[test]
    fn zero_counters_are_elided() {
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::unbounded(clock);
        sink.counter("blocked_sends", "ex", 0);
        assert!(sink.is_empty());
    }

    #[test]
    fn rehash_counter_reaches_rollup() {
        // The stitch-up executor reports `rehashes` through the generic
        // counter channel; the rollup must carry it by name so `--trace`
        // output surfaces key-mismatch rebuilds without a schema change.
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::unbounded(clock);
        sink.counter("rehashes", "stitchup", 2);
        let summary = QuerySummary::from_records(&sink.snapshot());
        assert_eq!(summary.counters.get("rehashes"), Some(&2));
    }

    #[test]
    fn json_is_escaped_and_finite() {
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::unbounded(clock);
        sink.record(TraceEvent::HedgeDecision {
            relation: "r\"x\"".into(),
            stalled: "s\\t".into(),
            scores: vec![CandidateScore {
                candidate: "c".into(),
                rate_tps: f64::INFINITY,
                win_us: f64::NAN,
                waste_us: 1.5,
                pays: true,
            }],
            chosen: None,
            win_us: f64::INFINITY,
            waste_us: 0.0,
            fired: false,
            split: false,
        });
        let line = sink.export_jsonl();
        assert!(line.contains("r\\\"x\\\""));
        assert!(line.contains("s\\\\t"));
        assert!(line.contains("\"rate_tps\":null"));
        assert!(line.contains("\"win_us\":null"));
        assert!(line.contains("\"chosen\":null"));
        assert!(!line.contains("inf") && !line.contains("NaN"));
    }

    #[test]
    fn summary_rollup_counts_decisions() {
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::unbounded(clock);
        sink.record(sample_hedge(true));
        sink.record(sample_hedge(false));
        sink.record(TraceEvent::Activation {
            relation: "fed(a×2)".into(),
            candidate: "a-backup".into(),
            sweep: true,
        });
        sink.record(TraceEvent::CorrectiveDecision {
            phase: 0,
            current_plan: "p0".into(),
            candidate_plan: "p1".into(),
            current_cost: 10.0,
            candidate_cost: 5.0,
            threshold: 0.9,
            switched: true,
        });
        sink.record(TraceEvent::CutDecision {
            site: "join#1".into(),
            net_win_us: 100.0,
            min_net_win_us: 2000.0,
            accepted: false,
        });
        sink.span_begin(SpanKind::Phase, "phase-0");
        sink.span_end(SpanKind::Phase, "phase-0");
        sink.counter("tuples", "a", 7);
        sink.counter("tuples", "b", 3);

        let summary = QuerySummary::from_records(&sink.snapshot());
        assert_eq!(summary.hedges_fired, 1);
        assert_eq!(summary.hedges_declined, 1);
        assert_eq!(summary.sweep_activations, 1);
        assert_eq!(summary.switches, 1);
        assert_eq!(summary.cuts_rejected, 1);
        assert_eq!(summary.spans.get("phase"), Some(&1));
        assert_eq!(summary.counters.get("tuples"), Some(&10));
        let golden = summary.decision_counts();
        assert!(golden.contains("hedges_fired=1\n"));
        assert!(golden.contains("switches=1\n"));
    }

    #[test]
    fn signatures_group_by_relation_and_drop_timing() {
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::unbounded(clock.clone());
        clock.observe(123);
        sink.record(sample_hedge(true));
        clock.observe(456_789);
        sink.record(sample_hedge(false));
        let sigs = hedge_signatures(&sink.snapshot());
        let list = sigs.get("fed(a×2)").expect("relation present");
        assert_eq!(list.len(), 2);
        assert_eq!(
            list[0],
            "fed(a×2)|stalled=a-primary|chosen=a-mirror|fired=true"
        );
        assert_eq!(list[1], "fed(a×2)|stalled=a-primary|chosen=-|fired=false");
        assert!(
            !list[0].contains("123"),
            "signatures must exclude timestamps"
        );
    }

    #[test]
    fn sink_is_shareable_across_threads() {
        let clock = Arc::new(VirtualClock::new());
        let sink = TraceSink::unbounded(clock);
        let s2 = sink.clone();
        let h = std::thread::spawn(move || {
            s2.counter("tuples", "thread", 9);
        });
        h.join().unwrap();
        assert_eq!(sink.len(), 1);
    }
}
