//! [`FederatedSource`] — the adapter that makes a set of mirrored /
//! partially-replicated candidates look like one ordinary [`Source`].
//!
//! The engine (SimDriver, CorrectiveExec, the baselines) polls it exactly
//! like any other source; internally every poll consults the
//! [`PermutationScheduler`], pulls from the best-ranked active candidate,
//! dedupes by the relation key so overlapping replicas union correctly,
//! and fails over / hedges when the active candidate stalls past its
//! profile-derived threshold.
//!
//! ## Completion rule
//!
//! The federated stream is exhausted when either
//! * a candidate whose [`SourceDescriptor::complete`] flag is set (a full
//!   mirror) reaches EOF — everything it held was delivered or deduped, or
//! * every candidate (including late-activated standbys) reaches EOF.
//!
//! Partial replicas must jointly cover the relation for the union to be
//! complete; the key-dedupe makes any *overlap* harmless.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use tukwila_relation::column::{hash_keys_into, key_elem_eq, tuple_key_hash, value_key_eq};
use tukwila_relation::value::{group_key, GroupKey};
use tukwila_relation::{ColumnarBatch, Error, Key, Result, Schema, Tuple};
use tukwila_source::{Poll, Source, SourceDescriptor, SourceProgressView};
use tukwila_stats::clock::{Clock, VirtualClock};
use tukwila_stats::{ArrivalSchedule, RateEstimator};

use crate::catalog::FederationConfig;
use crate::scheduler::PermutationScheduler;

/// Pass-through hasher for keys that are already well-mixed key hashes
/// ([`tuple_key_hash`] ends in a multiply), sparing the seen-set a second
/// SipHash pass per probe.
#[derive(Default)]
struct KeyHashId(u64);

impl Hasher for KeyHashId {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyHashId only hashes u64 key hashes");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// The key-based dedupe shared by the sequential [`FederatedSource`] and
/// the threaded [`crate::concurrent::ConcurrentFederatedSource`]: drop
/// keys another replica already delivered, and catch misdeclared keys by
/// provenance (a candidate re-delivering its *own* key proves the
/// declared key columns are not unique).
///
/// The seen-set is bucketed by a stable composite-key hash computed once
/// per tuple with no allocation ([`tuple_key_hash`]); the `GroupKey` is
/// only materialized when a key is inserted, and the columnar entry point
/// ([`KeyDedup::filter_columnar`]) hashes whole batches with one pass per
/// key column.
pub struct KeyDedup {
    rel_id: u32,
    key_cols: Vec<usize>,
    /// Key-hash → indices into `entries` (hash collisions resolved by the
    /// exact key comparison below).
    buckets: HashMap<u64, Vec<u32>, BuildHasherDefault<KeyHashId>>,
    /// Keys delivered to the engine, with the candidate that delivered
    /// each first.
    entries: Vec<(GroupKey, usize)>,
}

impl KeyDedup {
    /// A dedupe for `rel_id` keyed on `key_cols`.
    pub fn new(rel_id: u32, key_cols: Vec<usize>) -> KeyDedup {
        KeyDedup {
            rel_id,
            key_cols,
            buckets: HashMap::default(),
            entries: Vec::new(),
        }
    }

    /// Distinct keys delivered so far.
    pub fn seen_keys(&self) -> usize {
        self.entries.len()
    }

    /// Find the first-delivering candidate of the key in `bucket` equal
    /// to the key of `t` (by per-column comparison, no allocation).
    fn probe_row(&self, bucket: &[u32], t: &Tuple) -> Option<usize> {
        for &ei in bucket {
            let (k, who) = &self.entries[ei as usize];
            if k.iter()
                .zip(&self.key_cols)
                .all(|(ke, &c)| value_key_eq(t.get(c), ke))
            {
                return Some(*who);
            }
        }
        None
    }

    #[track_caller]
    fn assert_fresh_provenance(&self, first: usize, candidate: usize, name: &str) {
        assert_ne!(
            first, candidate,
            "relation {}: candidate '{name}' delivered key columns {:?} twice — \
             the declared key is not unique, so deduping would drop real tuples",
            self.rel_id, self.key_cols,
        );
    }

    /// Filter `batch` down to tuples whose key has not been delivered yet.
    ///
    /// Panics if `candidate` (identified by `name` in the diagnostic)
    /// re-delivers a key it delivered itself: each candidate reads its own
    /// data sequentially exactly once, so that can only mean the declared
    /// key columns are not a real key, and silently dropping the tuple
    /// would corrupt the union.
    pub fn filter(&mut self, candidate: usize, name: &str, batch: Vec<Tuple>) -> Vec<Tuple> {
        let mut fresh = Vec::with_capacity(batch.len());
        for t in batch {
            let h = tuple_key_hash(&t, &self.key_cols);
            match self
                .buckets
                .get(&h)
                .and_then(|bucket| self.probe_row(bucket, &t))
            {
                Some(first) => self.assert_fresh_provenance(first, candidate, name),
                None => {
                    let ei = self.entries.len() as u32;
                    self.entries
                        .push((group_key(t.values(), &self.key_cols), candidate));
                    self.buckets.entry(h).or_default().push(ei);
                    fresh.push(t);
                }
            }
        }
        fresh
    }

    /// [`KeyDedup::filter`] over a columnar batch: key hashes for the
    /// whole batch are computed with one pass per key column, and the
    /// seen-set is probed in *stages* — a tight read-only bucket-lookup
    /// sweep, then exact key verification, then an ordered insert pass
    /// over the rows that survived. The read-only sweeps have no
    /// mutation or branching in their bodies, so the out-of-order core
    /// overlaps the (cache-missing) hash-table reads of many rows at
    /// once; on duplicate-heavy feeds — the normal case for mirrored
    /// candidates — this is where the columnar path wins. Fresh rows
    /// still re-probe in row order, which is what catches an intra-batch
    /// key redelivery exactly like the row path does.
    pub fn filter_columnar(
        &mut self,
        candidate: usize,
        name: &str,
        batch: &ColumnarBatch,
        hash_buf: &mut Vec<u64>,
    ) -> Vec<Tuple> {
        /// Bucket-hit marker for "more than one entry, re-fetch the list".
        const MULTI: u32 = u32::MAX;
        if batch.num_rows() == 0 {
            // A rowless batch has no columns to hash (or deliver).
            return Vec::new();
        }
        hash_keys_into(batch, &self.key_cols, hash_buf);
        let rows = batch.selected_indices();

        // Stage 1: bucket lookups only. `hits` records (slot, sole entry
        // index) — or MULTI for the rare collision bucket.
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for (s, &r) in rows.iter().enumerate() {
            if let Some(bucket) = self.buckets.get(&hash_buf[r]) {
                let ei = if bucket.len() == 1 { bucket[0] } else { MULTI };
                hits.push((s as u32, ei));
            }
        }

        // Stage 2: exact key verification for hash hits (still read-only;
        // a non-equal key is just a 64-bit hash collision and stays a
        // fresh candidate).
        let mut dup = vec![false; rows.len()];
        for &(s, ei) in &hits {
            let r = rows[s as usize];
            let verify = |ei: u32| {
                let (k, who) = &self.entries[ei as usize];
                k.iter()
                    .zip(&self.key_cols)
                    .all(|(ke, &c)| key_elem_eq(batch.column(c), r, ke))
                    .then_some(*who)
            };
            let seen_by = if ei != MULTI {
                verify(ei)
            } else {
                self.buckets[&hash_buf[r]].iter().copied().find_map(verify)
            };
            if let Some(first) = seen_by {
                self.assert_fresh_provenance(first, candidate, name);
                dup[s as usize] = true;
            }
        }

        // Stage 3 prelude: arena-build the fresh rows' `GroupKey`s
        // column-major (one column dispatch per key column instead of one
        // per row × column) and reserve the seen-set growth once for the
        // whole batch. Every non-duplicate row either inserts its key or
        // panics on provenance — stage-3 bucket hits can only be entries
        // this batch just inserted (`who == candidate`) or hash collisions
        // — so the arena is consumed exactly in row order.
        let fresh_rows: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|&(s, _)| !dup[s])
            .map(|(_, &r)| r)
            .collect();
        let k = self.key_cols.len();
        let mut flat: Vec<Key> = vec![Key::Null; fresh_rows.len() * k];
        for (ci, &c) in self.key_cols.iter().enumerate() {
            let col = batch.column(c);
            for (j, &r) in fresh_rows.iter().enumerate() {
                flat[j * k + ci] = col.key(r);
            }
        }
        let mut arena = (0..fresh_rows.len()).map(|j| {
            let key: GroupKey = flat[j * k..(j + 1) * k].to_vec().into_boxed_slice();
            key
        });
        self.entries.reserve(fresh_rows.len());
        self.buckets.reserve(fresh_rows.len());

        // Stage 3: ordered probe-and-insert over the fresh candidates.
        // The re-probe is not redundant: an earlier row of *this* batch
        // may have inserted the key (same-candidate redelivery → panic),
        // and stage-1 misses may collide with stage-3 inserts.
        let mut fresh = Vec::with_capacity(fresh_rows.len());
        for (s, &r) in rows.iter().enumerate() {
            if dup[s] {
                continue;
            }
            let h = hash_buf[r];
            let seen_by = self.buckets.get(&h).and_then(|bucket| {
                bucket.iter().find_map(|&ei| {
                    let (k, who) = &self.entries[ei as usize];
                    k.iter()
                        .zip(&self.key_cols)
                        .all(|(ke, &c)| key_elem_eq(batch.column(c), r, ke))
                        .then_some(*who)
                })
            });
            let key = arena.next().expect("arena covers every non-dup row");
            match seen_by {
                Some(first) => self.assert_fresh_provenance(first, candidate, name),
                None => {
                    let ei = self.entries.len() as u32;
                    self.entries.push((key, candidate));
                    self.buckets.entry(h).or_default().push(ei);
                    fresh.push(batch.tuple_at(r));
                }
            }
        }
        fresh
    }
}

/// Validate a candidate set for one relation: at least one candidate, a
/// shared `rel_id` and schema, key columns within arity. Returns the
/// shared `(rel_id, schema)`.
pub(crate) fn validate_candidates(
    key_cols: &[usize],
    candidates: &[Box<dyn Source>],
) -> Result<(u32, Schema)> {
    let first = candidates
        .first()
        .ok_or_else(|| Error::Plan("federated source needs at least one candidate".into()))?;
    let rel_id = first.rel_id();
    let schema = first.schema().clone();
    if key_cols.is_empty() || key_cols.iter().any(|&c| c >= schema.arity()) {
        return Err(Error::Plan(format!(
            "relation {rel_id}: key columns {key_cols:?} invalid for arity {}",
            schema.arity()
        )));
    }
    for c in candidates {
        if c.rel_id() != rel_id {
            return Err(Error::Plan(format!(
                "candidate '{}' serves relation {}, expected {rel_id}",
                c.name(),
                c.rel_id()
            )));
        }
        if c.schema() != &schema {
            return Err(Error::Plan(format!(
                "candidate '{}' schema disagrees within relation {rel_id}",
                c.name()
            )));
        }
    }
    Ok((rel_id, schema))
}

/// Post-run statistics for one candidate.
#[derive(Debug, Clone)]
pub struct CandidateReport {
    /// The candidate's registration-time descriptor.
    pub descriptor: SourceDescriptor,
    /// Raw tuples pulled from this candidate.
    pub delivered: u64,
    /// Tuples dropped because another replica already delivered the key.
    pub duplicates: u64,
    /// Times the candidate was declared stalled.
    pub stalls: u64,
    /// Whether the candidate was ever activated (standbys that were never
    /// needed stay `false`).
    pub activated: bool,
    /// Whether the candidate reached end of stream.
    pub eof: bool,
    /// Observed delivery rate (tuples per timeline second), if profiled.
    pub rate_tuples_per_sec: Option<f64>,
    /// Threaded mode only: times this candidate's producer found its
    /// delivery queue full and had to block (backpressure). Always 0 in
    /// sequential mode, which has no queues.
    pub blocked_sends: u64,
}

/// Post-run statistics for a whole federated relation.
#[derive(Debug, Clone)]
pub struct FederationReport {
    /// The federated base relation.
    pub rel_id: u32,
    /// Display name of the federated adapter.
    pub name: String,
    /// Distinct tuples handed to the engine.
    pub delivered: u64,
    /// Candidate activations beyond the first (failovers/hedges).
    pub failovers: u64,
    /// Stalls whose hedge the delivery-model cost gate declined — races
    /// an unconditional stall-only rule would have started.
    pub declined_hedges: u64,
    /// Standbys never activated because their declared key range was
    /// already fully delivered by drained candidates.
    pub skipped_covered: u64,
    /// Per-candidate statistics, in registration order.
    pub candidates: Vec<CandidateReport>,
}

/// One relation served by N candidate sources behind an online
/// permutation scheduler. Implements [`Source`], so the rest of the
/// engine runs over it unchanged.
pub struct FederatedSource {
    rel_id: u32,
    name: String,
    schema: Schema,
    candidates: Vec<Box<dyn Source>>,
    scheduler: PermutationScheduler,
    /// The dedupe set (with misdeclared-key provenance check), shared
    /// logic with the threaded adapter.
    dedup: KeyDedup,
    /// The timeline all scheduling decisions are stamped against. Under
    /// the default [`VirtualClock`] the driver's `poll(now_us, ..)`
    /// argument advances it, reproducing the seed behavior exactly; under
    /// a wall clock real time is authoritative and the poll argument is
    /// ignored.
    clock: Arc<dyn Clock>,
    /// What the engine observes: distinct tuples and their arrival rate.
    fed_rate: RateEstimator,
    delivered: u64,
    done: bool,
}

impl FederatedSource {
    /// Build over the candidate set for one relation. All candidates must
    /// serve the same `rel_id` with identical schemas; `key_cols` names
    /// the relation's (possibly composite) key, used to dedupe
    /// overlapping deliveries.
    ///
    /// `key_cols` must actually be unique within the relation — deduping
    /// on a non-key would silently drop legitimate tuples. This cannot be
    /// checked up front (sources are sequential and opaque), but a
    /// duplicate key arriving from the *same* candidate proves the
    /// declaration wrong, and `poll` panics with a diagnostic rather than
    /// corrupt the answer.
    pub fn new(
        key_cols: Vec<usize>,
        candidates: Vec<Box<dyn Source>>,
        config: FederationConfig,
    ) -> Result<FederatedSource> {
        FederatedSource::with_clock(key_cols, candidates, config, Arc::new(VirtualClock::new()))
    }

    /// [`FederatedSource::new`] with an explicit clock. The default is a
    /// private virtual clock driven by the `poll` argument (the seed
    /// behavior); pass the run's shared clock to stamp scheduling
    /// decisions against the same timeline the driver uses — including a
    /// wall clock for sequential real-time pacing.
    pub fn with_clock(
        key_cols: Vec<usize>,
        candidates: Vec<Box<dyn Source>>,
        config: FederationConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<FederatedSource> {
        let (rel_id, schema) = validate_candidates(&key_cols, &candidates)?;
        let name = format!("fed({}×{})", candidates[0].name(), candidates.len());
        let mut scheduler = PermutationScheduler::new(candidates.len(), config);
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
        scheduler.set_identity(
            name.clone(),
            candidates.iter().map(|c| c.name().to_string()).collect(),
        );
        // Serving mode: snapshot the cross-query learning store at
        // admission. The seed is immutable for the run; observations
        // flow back exactly once, at union completion.
        if let Some(store) = scheduler.config().learning.clone() {
            let names: Vec<String> = candidates.iter().map(|c| c.name().to_string()).collect();
            scheduler.seed_learned(store.snapshot(&names));
        }
        Ok(FederatedSource {
            rel_id,
            name,
            schema,
            candidates,
            scheduler,
            dedup: KeyDedup::new(rel_id, key_cols),
            clock,
            fed_rate: RateEstimator::default(),
            delivered: 0,
            done: false,
        })
    }

    /// The online permutation scheduler driving this adapter.
    pub fn scheduler(&self) -> &PermutationScheduler {
        &self.scheduler
    }

    /// Journal the end-of-union tallies (distinct tuples, dedup hits,
    /// stalls) — one bounded set of counter events per relation, emitted
    /// exactly once when the union completes.
    fn trace_completion(&self, now_us: u64) {
        let trace = &self.scheduler.config().trace;
        if !trace.is_enabled() {
            return;
        }
        let dup: u64 = self.scheduler.profiles().iter().map(|p| p.duplicates).sum();
        let stalls: u64 = self.scheduler.profiles().iter().map(|p| p.stalls).sum();
        for (name, value) in [
            ("tuples", self.delivered),
            ("dedup_hits", dup),
            ("stalls", stalls),
        ] {
            if value > 0 {
                trace.record_at(
                    now_us,
                    tukwila_stats::TraceEvent::Counter {
                        name: name.into(),
                        scope: self.name.clone(),
                        value,
                    },
                );
            }
        }
    }

    /// Per-candidate statistics snapshot (available mid-run or after).
    pub fn report(&self) -> FederationReport {
        FederationReport {
            rel_id: self.rel_id,
            name: self.name.clone(),
            delivered: self.delivered,
            failovers: self.scheduler.failovers(),
            declined_hedges: self.scheduler.declined_hedges(),
            skipped_covered: self.scheduler.skipped_covered(),
            candidates: self
                .candidates
                .iter()
                .zip(self.scheduler.profiles())
                .map(|(c, p)| CandidateReport {
                    descriptor: c.descriptor(),
                    delivered: p.delivered,
                    duplicates: p.duplicates,
                    stalls: p.stalls,
                    activated: p.is_active(),
                    eof: p.eof,
                    rate_tuples_per_sec: p.rate.rate_tuples_per_sec(),
                    blocked_sends: 0,
                })
                .collect(),
        }
    }
}

impl Source for FederatedSource {
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
        let now_us = self.clock.observe(now_us);
        let mut wake: Option<u64> = None;
        let note = |wake: &mut Option<u64>, t: u64| {
            *wake = Some(wake.map_or(t, |w: u64| w.min(t)));
        };
        // A sweep restarts whenever the candidate set changes mid-poll
        // (failover activation, EOF, or an all-duplicates batch that
        // should be retried immediately). Each restart strictly consumes
        // candidate data or candidate count, so the loop terminates.
        'sweep: loop {
            let order = self.scheduler.polling_order(now_us);
            if order.is_empty() {
                // Every activated candidate is EOF. Uncovered standbys
                // may still hold tuples of a partially-replicated
                // relation; otherwise the union is complete.
                if self.scheduler.activate_standby(now_us).is_some() {
                    continue 'sweep;
                }
                self.done = true;
                self.trace_completion(now_us);
                self.scheduler.publish_learning();
                return Poll::Eof;
            }
            for idx in order {
                match self.candidates[idx].poll(now_us, max_tuples) {
                    Poll::Ready(batch) => {
                        let raw = batch.len() as u64;
                        let fresh = self.dedup.filter(idx, self.candidates[idx].name(), batch);
                        self.scheduler
                            .note_arrival(idx, now_us, raw, fresh.len() as u64);
                        if fresh.is_empty() {
                            // Entire batch was already delivered by a
                            // faster replica; pull more within this call.
                            continue 'sweep;
                        }
                        self.delivered += fresh.len() as u64;
                        self.fed_rate.observe_arrival(now_us, fresh.len() as u64);
                        return Poll::Ready(fresh);
                    }
                    Poll::Pending { next_ready_us } => {
                        if self.scheduler.on_pending(idx, now_us).is_some() {
                            // Fresh stall: a standby was activated; poll
                            // it in this same call.
                            continue 'sweep;
                        }
                        note(&mut wake, next_ready_us);
                    }
                    Poll::Eof => {
                        self.scheduler.note_eof(idx);
                        if self.candidates[idx].descriptor().complete {
                            // A fully drained full mirror: every tuple it
                            // held was delivered (or deduped), so the
                            // union is complete.
                            self.done = true;
                            self.trace_completion(now_us);
                            self.scheduler.publish_learning();
                            return Poll::Eof;
                        }
                        continue 'sweep;
                    }
                }
            }
            // All pollable candidates are pending: wake at the earliest
            // arrival or the earliest stall deadline, whichever lets the
            // scheduler act first.
            if let Some(d) = self.scheduler.next_deadline_us(now_us) {
                note(&mut wake, d);
            }
            let next_ready_us = wake.unwrap_or(now_us + 1).max(now_us + 1);
            return Poll::Pending { next_ready_us };
        }
    }

    fn progress(&self) -> SourceProgressView {
        SourceProgressView {
            tuples_read: self.delivered,
            // Cardinality of the deduped union is unknown until EOF, the
            // data-integration norm.
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

    fn observed_schedule(&self) -> Option<ArrivalSchedule> {
        ArrivalSchedule::from_estimator(&self.fed_rate)
    }

    fn recalibrate_delivery_costs(&mut self, costs: &tukwila_stats::DeliveryCosts) {
        self.scheduler.set_hedge_costs(costs.clone());
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("t.k", DataType::Int),
            Field::new("t.v", DataType::Int),
        ])
    }

    fn tuple(k: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(k * 10)])
    }

    #[test]
    fn dedup_row_and_columnar_paths_agree() {
        let mk = |k: Option<i64>, s: &str| {
            Tuple::new(vec![
                k.map_or(Value::Null, Value::Int),
                Value::str(s),
                Value::Int(7),
            ])
        };
        // Composite (nullable int, string) key; candidate 0 then an
        // overlapping candidate 1.
        let b0 = vec![mk(Some(1), "a"), mk(None, "n"), mk(Some(2), "b")];
        let b1 = vec![
            mk(Some(2), "b"),
            mk(Some(3), "c"),
            mk(None, "n"),
            mk(Some(1), "z"),
        ];

        let mut row = KeyDedup::new(9, vec![0, 1]);
        let r0 = row.filter(0, "c0", b0.clone());
        let r1 = row.filter(1, "c1", b1.clone());

        let mut col = KeyDedup::new(9, vec![0, 1]);
        let mut hashes = Vec::new();
        let c0 = col.filter_columnar(0, "c0", &ColumnarBatch::from_tuples(&b0), &mut hashes);
        let c1 = col.filter_columnar(1, "c1", &ColumnarBatch::from_tuples(&b1), &mut hashes);

        assert_eq!(r0, c0);
        assert_eq!(r1, c1);
        assert_eq!(r1.len(), 2, "overlap (2,b) and (NULL,n) deduped");
        assert_eq!(row.seen_keys(), col.seen_keys());

        // Mixed representations share one seen-set.
        let mut mixed = KeyDedup::new(9, vec![0, 1]);
        let m0 = mixed.filter(0, "c0", b0.clone());
        let m1 = mixed.filter_columnar(1, "c1", &ColumnarBatch::from_tuples(&b1), &mut hashes);
        assert_eq!(m0, r0);
        assert_eq!(m1, r1);
    }

    #[test]
    #[should_panic(expected = "delivered key columns")]
    fn dedup_same_candidate_redelivery_panics() {
        let mut d = KeyDedup::new(1, vec![0]);
        d.filter(0, "c0", vec![tuple(5)]);
        d.filter(0, "c0", vec![tuple(5)]);
    }

    #[test]
    #[should_panic(expected = "delivered key columns")]
    fn dedup_columnar_same_candidate_redelivery_panics() {
        let mut d = KeyDedup::new(1, vec![0]);
        let mut hashes = Vec::new();
        let b = ColumnarBatch::from_tuples(&[tuple(5)]);
        d.filter_columnar(0, "c0", &b, &mut hashes);
        d.filter_columnar(0, "c0", &b, &mut hashes);
    }

    /// Test source with an explicit per-tuple arrival schedule.
    struct Scripted {
        rel_id: u32,
        name: String,
        schema: Schema,
        arrivals: Vec<(u64, Tuple)>,
        pos: usize,
        complete: bool,
    }

    impl Scripted {
        fn new(name: &str, arrivals: Vec<(u64, Tuple)>) -> Scripted {
            Scripted {
                rel_id: 1,
                name: name.into(),
                schema: schema(),
                arrivals,
                pos: 0,
                complete: true,
            }
        }

        fn partial(mut self) -> Scripted {
            self.complete = false;
            self
        }
    }

    impl Source for Scripted {
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
            if self.pos >= self.arrivals.len() {
                return Poll::Eof;
            }
            if self.arrivals[self.pos].0 > now_us {
                return Poll::Pending {
                    next_ready_us: self.arrivals[self.pos].0,
                };
            }
            let mut out = Vec::new();
            while self.pos < self.arrivals.len()
                && out.len() < max_tuples
                && self.arrivals[self.pos].0 <= now_us
            {
                out.push(self.arrivals[self.pos].1.clone());
                self.pos += 1;
            }
            Poll::Ready(out)
        }

        fn progress(&self) -> SourceProgressView {
            SourceProgressView {
                tuples_read: self.pos as u64,
                fraction_read: None,
                eof: self.pos >= self.arrivals.len(),
            }
        }

        fn descriptor(&self) -> SourceDescriptor {
            SourceDescriptor {
                rel_id: self.rel_id,
                name: self.name.clone(),
                complete: self.complete,
                key_range: None,
                declared_rate_tuples_per_sec: None,
            }
        }
    }

    /// Drive a federated source like the SimDriver: poll, idle to the
    /// pending instant, repeat. Returns (keys, completion time).
    fn drain(fed: &mut FederatedSource) -> (Vec<i64>, u64) {
        let mut clock = 0u64;
        let mut keys = Vec::new();
        loop {
            match fed.poll(clock, 64) {
                Poll::Ready(batch) => {
                    keys.extend(batch.iter().map(|t| t.get(0).as_int().unwrap()));
                }
                Poll::Pending { next_ready_us } => {
                    assert!(next_ready_us > clock, "pending must move the clock");
                    clock = next_ready_us;
                }
                Poll::Eof => return (keys, clock),
            }
        }
    }

    fn smooth(name: &str, keys: std::ops::Range<i64>, period_us: u64) -> Scripted {
        Scripted::new(
            name,
            keys.clone()
                .enumerate()
                .map(|(i, k)| ((i as u64 + 1) * period_us, tuple(k)))
                .collect(),
        )
    }

    #[test]
    fn single_candidate_passes_through() {
        let mut fed = FederatedSource::new(
            vec![0],
            vec![Box::new(smooth("m0", 0..50, 100))],
            FederationConfig::default(),
        )
        .unwrap();
        let (mut keys, t) = drain(&mut fed);
        keys.sort_unstable();
        assert_eq!(keys, (0..50).collect::<Vec<_>>());
        assert_eq!(t, 5_000);
        assert_eq!(fed.report().failovers, 0);
        assert!(fed.progress().eof);
    }

    #[test]
    fn stalled_primary_fails_over_no_loss_no_dupes() {
        // Primary delivers keys 0..20 at 1ms cadence, then goes silent
        // forever. Backup mirrors the whole relation at 5ms cadence.
        let mut arrivals: Vec<(u64, Tuple)> = (0..20)
            .map(|k| ((k as u64 + 1) * 1_000, tuple(k)))
            .collect();
        arrivals.push((u64::MAX, tuple(999))); // never arrives
        let primary = Scripted::new("fast-then-dead", arrivals);
        let backup = smooth("steady", 0..100, 5_000);
        let mut fed = FederatedSource::new(
            vec![0],
            vec![Box::new(primary), Box::new(backup)],
            FederationConfig::default(),
        )
        .unwrap();
        let (mut keys, _) = drain(&mut fed);
        let delivered = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), delivered, "no duplicates reached the engine");
        assert_eq!(keys, (0..100).collect::<Vec<_>>(), "no lost tuples");
        let report = fed.report();
        assert_eq!(report.failovers, 1);
        assert_eq!(report.candidates[0].stalls, 1);
        assert!(report.candidates[1].activated);
        assert!(report.candidates[1].duplicates >= 20, "overlap deduped");
    }

    #[test]
    fn failover_happens_at_profile_threshold_not_before() {
        let mut arrivals: Vec<(u64, Tuple)> = (0..10)
            .map(|k| ((k as u64 + 1) * 1_000, tuple(k)))
            .collect();
        arrivals.push((u64::MAX, tuple(999)));
        let mut fed = FederatedSource::new(
            vec![0],
            vec![
                Box::new(Scripted::new("p", arrivals)),
                Box::new(smooth("b", 0..11, 2_000)),
            ],
            FederationConfig::default(),
        )
        .unwrap();
        // Drain the primary's 10 live tuples.
        let mut clock = 0;
        let mut got = 0;
        while got < 10 {
            match fed.poll(clock, 64) {
                Poll::Ready(b) => got += b.len(),
                Poll::Pending { next_ready_us } => clock = next_ready_us,
                Poll::Eof => panic!("premature EOF"),
            }
        }
        assert_eq!(fed.report().failovers, 0);
        // Just under the stall threshold (min floor; smooth 1ms gaps keep
        // the profile term below it): still only the primary.
        let cfg = FederationConfig::default();
        let deadline = fed.scheduler().profiles()[0]
            .stall_deadline_us(&cfg)
            .unwrap();
        match fed.poll(deadline - 1, 64) {
            Poll::Pending { next_ready_us } => {
                assert_eq!(next_ready_us, deadline, "wake at the stall deadline");
            }
            other => panic!("expected pending, got {other:?}"),
        }
        assert_eq!(fed.report().failovers, 0);
        // At the deadline: failover to the backup.
        let _ = fed.poll(deadline, 64);
        assert_eq!(fed.report().failovers, 1);
    }

    #[test]
    fn partial_replicas_union_by_key() {
        // Replicas cover 0..60 and 40..100 (overlap 40..60).
        let r1 = smooth("r1", 0..60, 1_000).partial();
        let r2 = smooth("r2", 40..100, 1_000).partial();
        let mut fed = FederatedSource::new(
            vec![0],
            vec![Box::new(r1), Box::new(r2)],
            FederationConfig::default(),
        )
        .unwrap();
        let (mut keys, _) = drain(&mut fed);
        let delivered = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), delivered, "overlap deduped");
        assert_eq!(keys, (0..100).collect::<Vec<_>>(), "union complete");
        // r1's EOF alone must not end the stream: r2 was activated (here
        // via standby activation after r1 drained, since r1 never stalls).
        assert!(fed.report().candidates[1].activated);
    }

    #[test]
    fn full_mirror_eof_completes_even_with_dead_sibling() {
        let dead = Scripted::new("dead", vec![(u64::MAX, tuple(0))]);
        let live = smooth("live", 0..30, 1_000);
        let mut fed = FederatedSource::new(
            vec![0],
            vec![Box::new(dead), Box::new(live)],
            FederationConfig::default(),
        )
        .unwrap();
        let (mut keys, _) = drain(&mut fed);
        keys.sort_unstable();
        assert_eq!(keys, (0..30).collect::<Vec<_>>());
        assert!(fed.progress().eof, "live full mirror EOF ends the union");
    }

    #[test]
    fn deterministic_under_identical_schedules() {
        let mk = || {
            let mut arrivals: Vec<(u64, Tuple)> =
                (0..25).map(|k| ((k as u64 + 1) * 700, tuple(k))).collect();
            arrivals.push((u64::MAX, tuple(999)));
            FederatedSource::new(
                vec![0],
                vec![
                    Box::new(Scripted::new("p", arrivals)) as Box<dyn Source>,
                    Box::new(smooth("b", 0..80, 3_000)),
                ],
                FederationConfig::default(),
            )
            .unwrap()
        };
        let (k1, t1) = drain(&mut mk());
        let (k2, t2) = drain(&mut mk());
        assert_eq!(k1, k2, "same schedule, same delivery order");
        assert_eq!(t1, t2, "same schedule, same completion time");
    }

    #[test]
    fn rejects_mismatched_candidates() {
        let a = smooth("a", 0..5, 100);
        let mut b = smooth("b", 0..5, 100);
        b.rel_id = 2;
        assert!(FederatedSource::new(
            vec![0],
            vec![Box::new(a), Box::new(b)],
            FederationConfig::default()
        )
        .is_err());
        assert!(
            FederatedSource::new(
                vec![9],
                vec![Box::new(smooth("c", 0..5, 100)) as Box<dyn Source>],
                FederationConfig::default()
            )
            .is_err(),
            "key column out of range"
        );
        assert!(FederatedSource::new(vec![0], vec![], FederationConfig::default()).is_err());
    }

    #[test]
    #[should_panic(expected = "the declared key is not unique")]
    fn misdeclared_key_is_caught_not_silently_dropped() {
        // Two tuples share key 5: column 0 is not a real key, so deduping
        // on it would drop the second tuple. The provenance check panics
        // instead.
        let arrivals = vec![(100, tuple(5)), (200, tuple(5))];
        let mut fed = FederatedSource::new(
            vec![0],
            vec![Box::new(Scripted::new("bad-key", arrivals)) as Box<dyn Source>],
            FederationConfig::default(),
        )
        .unwrap();
        let _ = drain(&mut fed);
    }

    #[test]
    fn observed_rate_reflects_engine_visible_stream() {
        let mut fed = FederatedSource::new(
            vec![0],
            vec![Box::new(smooth("m", 0..100, 1_000))],
            FederationConfig::default(),
        )
        .unwrap();
        assert_eq!(fed.observed_rate(), None);
        let _ = drain(&mut fed);
        let rate = fed.observed_rate().unwrap();
        // 100 tuples, one per ms => ~1000 tuples/s.
        assert!((rate - 1_010.0).abs() < 25.0, "rate={rate}");
    }
}
