//! [`FederatedSource`] — the adapter that makes a set of mirrored /
//! partially-replicated candidates look like one ordinary [`Source`].
//!
//! The engine (SimDriver, CorrectiveExec, the baselines) polls it exactly
//! like any other source; internally every poll consults the
//! [`PermutationScheduler`], looks at the best-ranked active candidate,
//! dedupes by the relation key so overlapping replicas union correctly,
//! and fails over / hedges when the active candidate stalls past its
//! profile-derived threshold.
//!
//! ## Lanes
//!
//! Each candidate sits behind a lane: [`FederatedSource::new`] polls
//! candidates *inline* under a private virtual clock (deterministic);
//! [`FederatedSource::threaded`] races each on a producer thread behind a
//! bounded queue, on a shared wall clock. One sweep loop serves both: a
//! lane yields a batch, pending with a hint (the source's `next_ready_us`
//! inline, one poll tick for a queue) or end of stream. Only queue lanes
//! feed backpressure and the busy-core term to the hedge gate, and only
//! they restart stall windows on [`Source::resume_delivery`].
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
use tukwila_stats::{ArrivalSchedule, RateEstimator, TraceEvent};

use crate::catalog::FederationConfig;
use crate::lane::{self, Lane};
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

/// The key-based dedupe of [`FederatedSource`]: drop keys another
/// replica already delivered, and catch misdeclared keys by
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
    /// Queue lanes only: times this candidate's producer found its
    /// delivery queue full and had to block (backpressure); 0 inline.
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

/// The adapter under its threaded name, kept for the benchmark harness,
/// which downcasts to it.
pub type ConcurrentFederatedSource = FederatedSource;

/// One relation served by N candidate sources behind an online
/// permutation scheduler, each candidate behind an inline or a queue lane
/// (see the module docs). Implements [`Source`], so the rest of the
/// engine runs over it unchanged.
pub struct FederatedSource {
    rel_id: u32,
    name: String,
    schema: Schema,
    lanes: Vec<Lane>,
    scheduler: PermutationScheduler,
    dedup: KeyDedup,
    /// The scheduling timeline: a private [`VirtualClock`] advanced by
    /// the `poll` argument (inline lanes), or the run's shared wall clock
    /// (queue lanes) — so `clock.is_wall()` tells the lane kind.
    clock: Arc<dyn Clock>,
    /// Deduped tail of an oversized arrival, handed out on later polls so
    /// `Ready` batches respect the engine's `max_tuples`.
    carry: Vec<Tuple>,
    /// What the engine observes: distinct tuples and their arrival rate.
    fed_rate: RateEstimator,
    delivered: u64,
    done: bool,
    /// Per-lane blocked sends when a quiesce began; `None` while polling.
    pause_baseline: Option<Vec<u64>>,
    /// Per-lane blocked sends that accrued while the consumer was
    /// quiesced — it was parked, not saturated — so they never reach the
    /// hedge gate.
    blocked_forgiven: Vec<u64>,
}

impl FederatedSource {
    /// Build over the candidate set for one relation, with inline lanes.
    /// All candidates must serve the same `rel_id` with identical
    /// schemas; `key_cols` names the relation's (possibly composite) key,
    /// used to dedupe overlapping deliveries.
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
        let mut fed = FederatedSource::build("fed", key_cols, &candidates, config)?;
        fed.lanes = candidates.into_iter().map(Lane::inline).collect();
        Ok(fed)
    }

    /// [`FederatedSource::new`] with queue lanes: every candidate races
    /// on its own producer thread, spawned now; standbys park at their
    /// gates until the scheduler hedges onto them. `clock` must be a wall
    /// clock shared with the consumer's driver — under a virtual clock,
    /// producer naps would teleport the shared timeline.
    pub fn threaded(
        key_cols: Vec<usize>,
        candidates: Vec<Box<dyn Source>>,
        config: FederationConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<FederatedSource> {
        if !clock.is_wall() {
            return Err(Error::Plan("threaded federation needs a wall clock".into()));
        }
        let mut fed = FederatedSource::build("fed-mt", key_cols, &candidates, config.clone())?;
        // The busy-core term's budget: the host's cores, or under a
        // serving front end the query's fair share fixed at admission.
        let host = || std::thread::available_parallelism().map_or(1, |n| n.get());
        fed.scheduler
            .set_core_budget(config.core_budget.unwrap_or_else(host));
        fed.lanes = lane::spawn_all(fed.rel_id, candidates, &fed.schema, &clock, &config)?;
        fed.clock = clock;
        Ok(fed)
    }

    /// Validate the candidate set — at least one candidate, a shared
    /// `rel_id` and schema, key columns within arity — and set up
    /// everything but the lanes.
    fn build(
        kind: &str,
        key_cols: Vec<usize>,
        candidates: &[Box<dyn Source>],
        config: FederationConfig,
    ) -> Result<FederatedSource> {
        let first = candidates
            .first()
            .ok_or_else(|| Error::Plan("federated source needs at least one candidate".into()))?;
        let (rel_id, schema) = (first.rel_id(), first.schema().clone());
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
        let name = format!("{kind}({}×{})", first.name(), candidates.len());
        let names: Vec<String> = candidates.iter().map(|c| c.name().to_string()).collect();
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
        // Serving mode: snapshot the cross-query learning store at
        // admission. The seed is immutable for the run; observations
        // flow back exactly once, at union completion.
        if let Some(store) = scheduler.config().learning.clone() {
            scheduler.seed_learned(store.snapshot(&names));
        }
        scheduler.set_identity(name.clone(), names);
        Ok(FederatedSource {
            rel_id,
            name,
            schema,
            lanes: Vec::new(),
            scheduler,
            dedup: KeyDedup::new(rel_id, key_cols),
            clock: Arc::new(VirtualClock::new()),
            carry: Vec::new(),
            fed_rate: RateEstimator::default(),
            delivered: 0,
            done: false,
            pause_baseline: None,
            blocked_forgiven: vec![0; candidates.len()],
        })
    }

    /// The online permutation scheduler driving this adapter.
    pub fn scheduler(&self) -> &PermutationScheduler {
        &self.scheduler
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
                    blocked_sends: lane.blocked_sends(),
                })
                .collect(),
        }
    }

    /// Blocked-send events forgiven per lane (quiesce windows), for tests.
    #[cfg(test)]
    pub(crate) fn blocked_forgiven(&self) -> &[u64] {
        &self.blocked_forgiven
    }

    /// End the run: journal the end-of-union tallies and publish learning
    /// (exactly once), then stop every queue lane — all gates and readers
    /// first, so the producers wind down together — and join it.
    fn complete(&mut self, now_us: u64) {
        if !self.done {
            self.trace_completion(now_us);
            self.scheduler.publish_learning();
        }
        self.done = true;
        self.lanes.iter_mut().for_each(Lane::shutdown);
        self.lanes.iter_mut().for_each(Lane::join);
    }

    /// Journal distinct tuples, dedup hits, stalls, and per-lane blocked
    /// sends (the real backpressure the hedge gate priced) as counters;
    /// zero counters are not journaled.
    fn trace_completion(&self, now_us: u64) {
        let trace = &self.scheduler.config().trace;
        if !trace.is_enabled() {
            return;
        }
        let profiles = self.scheduler.profiles();
        let totals = [
            ("tuples", &self.name, self.delivered),
            (
                "dedup_hits",
                &self.name,
                profiles.iter().map(|p| p.duplicates).sum(),
            ),
            (
                "stalls",
                &self.name,
                profiles.iter().map(|p| p.stalls).sum(),
            ),
        ];
        let lanes = self.lanes.iter();
        let lanes = lanes.map(|l| ("blocked_sends", &l.descriptor.name, l.blocked_sends()));
        for (name, scope, value) in totals.into_iter().chain(lanes) {
            if value > 0 {
                let (name, scope) = (name.into(), scope.clone());
                trace.record_at(now_us, TraceEvent::Counter { name, scope, value });
            }
        }
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
        if !self.carry.is_empty() {
            let carry = std::mem::take(&mut self.carry);
            return self.emit(carry, max_tuples);
        }
        let now_us = self.clock.observe(now_us);
        let mut wake: Option<u64> = None;
        // A sweep restarts whenever the candidate set changes mid-poll
        // (failover activation, EOF, or an all-duplicates batch that
        // should be retried immediately). Each restart strictly consumes
        // candidate data or candidate count, so the loop terminates.
        'sweep: loop {
            let order = self.scheduler.polling_order();
            if order.is_empty() {
                // Every activated candidate is EOF. Uncovered standbys
                // may still hold tuples of a partially-replicated
                // relation; otherwise the union is complete.
                if let Some(idx) = self.scheduler.activate_standby(now_us) {
                    self.lanes[idx].activate();
                    continue 'sweep;
                }
                self.complete(now_us);
                return Poll::Eof;
            }
            for idx in order {
                let hint = match self.lanes[idx].poll(now_us, max_tuples) {
                    Poll::Ready(batch) if !batch.is_empty() => {
                        let raw = batch.len() as u64;
                        let name = &self.lanes[idx].descriptor.name;
                        let fresh = self.dedup.filter(idx, name, batch);
                        self.scheduler
                            .note_arrival(idx, now_us, raw, fresh.len() as u64);
                        if fresh.is_empty() {
                            // Entire batch was already delivered by a
                            // faster replica; pull more within this call.
                            continue 'sweep;
                        }
                        self.delivered += fresh.len() as u64;
                        self.fed_rate.observe_arrival(now_us, fresh.len() as u64);
                        return self.emit(fresh, max_tuples);
                    }
                    // An empty batch consumed nothing: pending with no
                    // hint, and no arrival noted, so the lane can still
                    // stall and be hedged.
                    Poll::Ready(_) => None,
                    Poll::Pending { next_ready_us } => Some(next_ready_us),
                    Poll::Eof => {
                        self.lanes[idx].closed();
                        self.scheduler.note_eof(idx);
                        if self.lanes[idx].descriptor.complete {
                            // A fully drained full mirror: every tuple it
                            // held was delivered (or deduped).
                            self.complete(now_us);
                            return Poll::Eof;
                        }
                        continue 'sweep;
                    }
                };
                // Backpressure evidence for the hedge gate, minus what
                // accrued during quiesces.
                let blocked = self.lanes[idx].blocked_sends() - self.blocked_forgiven[idx];
                self.scheduler.note_backpressure(idx, blocked);
                if let Some(woken) = self.scheduler.on_pending(idx, now_us) {
                    // Fresh stall: a standby was activated; poll it in
                    // this same call.
                    self.lanes[woken].activate();
                    continue 'sweep;
                }
                wake = wake.into_iter().chain(hint).min();
            }
            // All pollable candidates are pending: wake at the earliest
            // lane hint or stall deadline, whichever lets the scheduler
            // act first.
            let deadline = self.scheduler.next_deadline_us(now_us);
            wake = wake.into_iter().chain(deadline).min();
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

    /// A corrective quiesce parks the consumer. Queue lanes keep racing
    /// into their bounded queues (nothing is cancelled); only the
    /// accounting pauses, so blocked sends until the matching
    /// [`Source::resume_delivery`] are forgiven.
    fn quiesce_delivery(&mut self) {
        if self.done || self.pause_baseline.is_some() {
            return;
        }
        self.pause_baseline = Some(self.lanes.iter().map(Lane::blocked_sends).collect());
    }

    /// Forgive the pause's blocked sends and, for queue lanes, restart
    /// every active candidate's stall window at the resume instant: the
    /// silence was the consumer's, not the mirrors'.
    fn resume_delivery(&mut self, now_us: u64) {
        if let Some(baseline) = self.pause_baseline.take() {
            for (idx, before) in baseline.into_iter().enumerate() {
                let accrued = self.lanes[idx].blocked_sends().saturating_sub(before);
                self.blocked_forgiven[idx] += accrued;
            }
            if self.clock.is_wall() {
                self.scheduler.note_resume(self.clock.observe(now_us));
            }
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

impl Drop for FederatedSource {
    /// An abandoned threaded run (error elsewhere, test teardown) joins
    /// its producers and publishes what it saw — partial evidence beats
    /// none. An inline run dropped before EOF publishes nothing.
    fn drop(&mut self) {
        if self.clock.is_wall() {
            self.complete(self.clock.now_us());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;
    use tukwila_relation::{DataType, Field, Value};
    use tukwila_source::{DelayModel, DelayedSource};
    use tukwila_stats::{TraceSink, WallClock};

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

    fn rows(keys: std::ops::Range<i64>) -> Vec<Tuple> {
        keys.map(tuple).collect()
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
    fn drain_wall(fed: &mut FederatedSource, clock: &Arc<dyn Clock>) -> Vec<i64> {
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

    /// The same candidates behind each lane kind: inline lanes, and queue
    /// lanes racing on an accelerated wall clock (returned alongside).
    fn per_lane_kind(
        candidates: impl Fn() -> Vec<Box<dyn Source>>,
    ) -> Vec<(FederatedSource, Option<Arc<dyn Clock>>)> {
        let cfg = FederationConfig::default();
        let clock = wall();
        vec![
            (
                FederatedSource::new(vec![0], candidates(), cfg.clone()).unwrap(),
                None,
            ),
            (
                FederatedSource::threaded(vec![0], candidates(), cfg, clock.clone()).unwrap(),
                Some(clock),
            ),
        ]
    }

    /// Drain with the driver matching the lane kind.
    fn drain_any(fed: &mut FederatedSource, clock: Option<&Arc<dyn Clock>>) -> Vec<i64> {
        match clock {
            None => drain(fed).0,
            Some(clock) => drain_wall(fed, clock),
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
        let candidates = || -> Vec<Box<dyn Source>> {
            vec![
                Box::new(smooth("r1", 0..60, 1_000).partial()),
                Box::new(smooth("r2", 40..100, 1_000).partial()),
            ]
        };
        for (mut fed, clock) in per_lane_kind(candidates) {
            let mut keys = drain_any(&mut fed, clock.as_ref());
            let delivered = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), delivered, "{}: overlap deduped", fed.name());
            assert_eq!(keys, (0..100).collect::<Vec<_>>(), "union complete");
            // r1's EOF alone must not end the stream: r2 was activated
            // (via standby activation after r1 drained, or a hedge).
            assert!(fed.report().candidates[1].activated);
        }
    }

    #[test]
    fn full_mirror_eof_completes_even_with_dead_sibling() {
        let candidates = || -> Vec<Box<dyn Source>> {
            vec![
                Box::new(Scripted::new("dead", vec![(u64::MAX, tuple(0))])),
                Box::new(smooth("live", 0..30, 1_000)),
            ]
        };
        for (mut fed, clock) in per_lane_kind(candidates) {
            let mut keys = drain_any(&mut fed, clock.as_ref());
            keys.sort_unstable();
            assert_eq!(keys, (0..30).collect::<Vec<_>>(), "{}", fed.name());
            assert!(fed.progress().eof, "live full mirror EOF ends the union");
        }
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

    /// Answers `Ready(vec![])` — allowed by the `Poll` contract — until
    /// `ready_at`, then delivers like the wrapped source.
    struct EmptyUntil {
        inner: Scripted,
        ready_at: u64,
    }

    impl Source for EmptyUntil {
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
            if now_us < self.ready_at {
                return Poll::Ready(Vec::new());
            }
            self.inner.poll(now_us, max_tuples)
        }

        fn progress(&self) -> SourceProgressView {
            self.inner.progress()
        }
    }

    #[test]
    fn empty_ready_batches_neither_livelock_nor_block_a_hedge() {
        // Alone, empty until t=1000µs; and empty forever next to a mirror,
        // which must still be hedged onto.
        let late = || -> Vec<Box<dyn Source>> {
            vec![Box::new(EmptyUntil {
                inner: smooth("late", 0..50, 10),
                ready_at: 1_000,
            })]
        };
        let never = || -> Vec<Box<dyn Source>> {
            vec![
                Box::new(EmptyUntil {
                    inner: smooth("never", 0..50, 10),
                    ready_at: u64::MAX,
                }),
                Box::new(smooth("backup", 0..50, 1_000)),
            ]
        };
        for (mut fed, clock) in per_lane_kind(late).into_iter().chain(per_lane_kind(never)) {
            let name = fed.name().to_string();
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let keys = drain_any(&mut fed, clock.as_ref());
                let _ = tx.send((keys, fed.report().failovers));
            });
            let (mut keys, failovers) = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("{name}: poll did not return within 5 s"));
            keys.sort_unstable();
            assert_eq!(keys, (0..50).collect::<Vec<_>>(), "{name}: union complete");
            if name.contains("never") {
                assert_eq!(failovers, 1, "{name}: the empty primary was hedged");
            }
        }
    }

    /// Inline lanes have no producer threads: the busy-core term and the
    /// stall-window restart of a quiesce are queue-lane behaviour, and
    /// must not change an inline run by a single decision.
    #[test]
    fn inline_lanes_ignore_core_budget_and_quiesce() {
        let run = |interfere: bool| {
            let mut arrivals: Vec<(u64, Tuple)> = (0..20)
                .map(|k| ((k as u64 + 1) * 1_000, tuple(k)))
                .collect();
            arrivals.push((u64::MAX, tuple(999))); // never arrives
                                                   // The backup delivers relative to its own first poll, so the
                                                   // moment of the hedge shows in the completion time.
            let backup = DelayedSource::new(
                1,
                "steady",
                schema(),
                rows(0..100),
                &DelayModel::Bandwidth {
                    bytes_per_sec: 3_200.0,
                    initial_latency_us: 1_000,
                },
            )
            .anchored();
            let trace = TraceSink::unbounded(Arc::new(VirtualClock::new()));
            let cfg = FederationConfig {
                core_budget: interfere.then_some(1),
                trace: trace.clone(),
                ..Default::default()
            };
            let mut fed = FederatedSource::new(
                vec![0],
                vec![
                    Box::new(Scripted::new("fast-then-dead", arrivals)),
                    Box::new(backup),
                ],
                cfg,
            )
            .unwrap();
            let (mut clock, mut keys, mut paused) = (0u64, Vec::new(), false);
            loop {
                match fed.poll(clock, 64) {
                    Poll::Ready(batch) => {
                        keys.extend(batch.iter().map(|t| t.get(0).as_int().unwrap()));
                    }
                    Poll::Pending { next_ready_us } => {
                        // A quiesce window that ends after the primary
                        // fell silent but before its stall deadline.
                        if interfere && !paused && next_ready_us > 30_000 {
                            fed.quiesce_delivery();
                            fed.resume_delivery(30_000);
                            paused = true;
                        }
                        clock = next_ready_us;
                    }
                    Poll::Eof => break,
                }
            }
            assert!(paused || !interfere, "the quiesce pair ran mid-run");
            (keys, fed.report().failovers, clock, trace.export_jsonl())
        };
        let (plain, with_both) = (run(false), run(true));
        assert_eq!(plain.1, 1, "the dead primary was hedged");
        assert_eq!(plain.0, with_both.0, "delivered key order");
        assert_eq!(plain.1, with_both.1, "failovers");
        assert_eq!(plain.2, with_both.2, "completion time");
        assert_eq!(plain.3, with_both.3, "hedge decisions, waste included");
    }

    #[test]
    fn rejects_virtual_clocks() {
        let err = FederatedSource::threaded(
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
        let mut fed = FederatedSource::threaded(
            vec![0],
            vec![steady("m0", 0..200, 2e6)],
            FederationConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let mut keys = drain_wall(&mut fed, &clock);
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
        let mut fed = FederatedSource::threaded(
            vec![0],
            vec![dead, steady("backup", 0..50, 2e6)],
            FederationConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let keys = drain_wall(&mut fed, &clock);
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
        let mut fed = FederatedSource::threaded(
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
        /// Delivers a few tuples, then dies. A dying full mirror must
        /// abort the query (as it would inline), not silently
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
                Poll::Ready(vec![tuple(self.sent - 1)])
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
        let mut fed = FederatedSource::threaded(
            vec![0],
            vec![Box::new(Exploding {
                schema: schema(),
                sent: 0,
            })],
            FederationConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let _ = drain_wall(&mut fed, &clock);
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
            FederatedSource::threaded(vec![0], vec![Box::new(gated)], cfg, clock.clone()).unwrap();
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
        keys.extend(drain_wall(&mut fed, &clock));
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
        let mut fed =
            FederatedSource::threaded(vec![0], vec![steady("m", 0..64, 1e9)], cfg, clock.clone())
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
