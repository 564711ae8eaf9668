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
//! candidates *inline* on a private timeline, the high-water mark of the
//! instants it is polled at (deterministic);
//! [`FederatedSource::threaded`] races each on a producer thread behind a
//! bounded queue, on a shared wall clock. One sweep loop serves both: a
//! lane yields a batch, pending with a hint (the source's `next_ready_us`
//! inline, one poll tick for a queue) or end of stream. Only queue lanes
//! feed backpressure and the busy-core term to the hedge gate, and only
//! they restart stall windows on [`Source::resume_delivery`].
//!
//! An inline lane's hint is a promise on the adapter's virtual timeline,
//! so the sweep skips the lane poll until the hint is due (the scheduler's
//! stall bookkeeping still runs for every active lane). A queue lane's
//! hint is a wall-clock polling tick — its producer may deliver at any
//! moment — and queue lanes only run on a wall clock, where every active
//! lane is polled on every sweep. The adapter's own `Pending` answer is
//! the earliest lane hint or stall deadline, so an inline adapter keeps
//! the same promise towards its driver.
//!
//! ## Split delivery
//!
//! When at least two full mirrors of the relation declare the `key_scan`
//! capability ([`tukwila_source::SourceCapabilities`]), the adapter asks
//! for key order instead of racing for it:
//! * the first activated candidate, if it is one of them, is asked for an
//!   ascending scan of the whole relation when it is activated;
//! * a hedge onto a `key_scan` full mirror is a *split*: the standby is
//!   asked for the keys above the primary's high-water key, descending,
//!   so the two scans close the gap from both ends;
//! * a candidate that refuses its request (a wrapper that does not
//!   forward [`Source::control`], say) delivers in its own order and
//!   races, as every candidate did before splits. One split per relation;
//!   later hedges race.
//!
//! Each scan side's key order is checked as its tuples arrive. A side
//! that delivers a key out of its requested order or range panics, like
//! the misdeclared-key guard: completing at a false meeting point would
//! silently truncate the union. The checked order is also what dedupes a
//! scan: a side delivered exactly the keys up to its water mark, so its
//! batch's fresh part is the prefix before its partner's mark (see
//! [`KeyDedup`]).
//!
//! ## Projection
//!
//! The adapter declares the `projection` capability
//! ([`tukwila_source::SourceCapabilities`]). It forwards each projection
//! it takes to every candidate, active or parked, on either lane kind,
//! widened by the relation key: dedup, a split's order checks and its
//! water marks read the key, and nothing else of a row. A candidate that
//! refuses ships whole rows, which hold every column. Rows are never
//! copied or narrowed: what a candidate did not ship is still in memory,
//! and nothing reads it.
//!
//! ## Completion rule
//!
//! The federated stream is exhausted when
//! * a candidate whose [`SourceDescriptor::complete`] flag is set (a full
//!   mirror) reaches EOF — everything it held, or everything in its
//!   requested range, was delivered or deduped. For the ascending primary
//!   that is the whole relation; for the descending side of a split it is
//!   everything above the primary's high-water key at the split, and the
//!   primary had delivered everything up to that key;
//! * the two sides of a split meet: one delivers a key its partner
//!   already delivered, so between them they delivered every key; or
//! * every candidate (including late-activated standbys) reaches EOF.
//!
//! Partial replicas must jointly cover the relation for the union to be
//! complete; the key-dedupe makes any *overlap* harmless — including the
//! crossing batch of a split, which the water marks cut.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use tukwila_relation::value::{group_key, tuple_key_hash, value_key_eq, GroupKey};
use tukwila_relation::{cmp_tuples, Error, Result, Schema, SortKey, Tuple};
use tukwila_source::{
    DueTimes, Poll, Source, SourceCapabilities, SourceControl, SourceDescriptor, SourceProgressView,
};
use tukwila_stats::clock::Clock;
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
/// candidate already delivered, and catch misdeclared keys by
/// provenance (a candidate re-delivering its *own* key proves the
/// declared key columns are not unique).
///
/// A candidate declared a key scan ([`KeyDedup::ascending_scan`],
/// [`KeyDedup::descending_scan`]) delivers its keys in strict key order,
/// which [`KeyDedup::filter`] checks per tuple. What a scan delivered is
/// therefore a key interval up to its water mark — the last key it
/// delivered — and a scan tuple is a duplicate exactly when it lies at
/// or beyond its partner's water mark: the fresh part of a scan batch is
/// a prefix, cut there with no hashing.
///
/// Every other candidate (a race, a partial replica, a refused request)
/// goes through the seen-set: its tuple is a duplicate if its key lies
/// in a scan interval or in the set. The set is keyed by a stable
/// composite-key hash computed once per tuple with no allocation
/// ([`tuple_key_hash`]). Entries sharing a hash are chained: the map
/// holds the newest entry's index, and `next` links each entry to the
/// previous one, so an insert allocates nothing beyond the entry itself.
/// The `GroupKey` is only materialized when a key is inserted. Scan
/// tuples probe the set only once it holds a key.
pub struct KeyDedup {
    rel_id: u32,
    key_cols: Vec<usize>,
    /// The relation key, ascending: the order of key scans.
    key_order: Vec<SortKey>,
    /// Key-hash → index of the newest entry with that hash (hash
    /// collisions resolved by the exact key comparison below).
    heads: HashMap<u64, u32, BuildHasherDefault<KeyHashId>>,
    /// Keys delivered by candidates that are not key scans, with the
    /// candidate that delivered each first.
    entries: Vec<(GroupKey, usize)>,
    /// Per entry: the next-older entry with the same key hash, or
    /// [`NO_ENTRY`].
    next: Vec<u32>,
    /// The ascending key scan: it started below the first key.
    ascending: Option<KeyScan>,
    /// The descending key scan: it started above the last key.
    descending: Option<KeyScan>,
    /// The two scans met: one delivered a key its partner already had.
    met: bool,
}

/// End of a [`KeyDedup`] hash chain.
const NO_ENTRY: u32 = u32::MAX;

/// One confirmed key scan of a [`KeyDedup`].
struct KeyScan {
    candidate: usize,
    /// Exclusive lower key bound of a descending scan (`None`: no bound).
    floor: Option<Tuple>,
    /// The last tuple delivered; its key is the scan's water mark.
    last: Option<Tuple>,
}

impl KeyDedup {
    /// A dedupe for `rel_id` keyed on `key_cols`.
    pub fn new(rel_id: u32, key_cols: Vec<usize>) -> KeyDedup {
        KeyDedup {
            rel_id,
            key_order: key_cols.iter().map(|&c| SortKey::asc(c)).collect(),
            key_cols,
            heads: HashMap::default(),
            entries: Vec::new(),
            next: Vec::new(),
            ascending: None,
            descending: None,
            met: false,
        }
    }

    /// Distinct keys in the seen-set: those delivered first by
    /// candidates that are not key scans.
    pub fn seen_keys(&self) -> usize {
        self.entries.len()
    }

    /// From now on `candidate` delivers every key of the relation in
    /// ascending key order, from the first. Call before its first batch.
    pub fn ascending_scan(&mut self, candidate: usize) {
        assert!(self.ascending.is_none(), "one ascending key scan");
        self.ascending = Some(KeyScan {
            candidate,
            floor: None,
            last: None,
        });
    }

    /// From now on `candidate` delivers every key above `floor`'s key
    /// (every key when `None`) in descending key order, from the last.
    /// Call before its first batch.
    pub fn descending_scan(&mut self, candidate: usize, floor: Option<Tuple>) {
        assert!(self.descending.is_none(), "one descending key scan");
        self.descending = Some(KeyScan {
            candidate,
            floor,
            last: None,
        });
    }

    /// The last tuple key scan `candidate` delivered, if it is one.
    pub fn water_mark(&self, candidate: usize) -> Option<&Tuple> {
        [&self.ascending, &self.descending]
            .into_iter()
            .flatten()
            .find(|s| s.candidate == candidate)?
            .last
            .as_ref()
    }

    /// Whether the two key scans met: one delivered a key its partner
    /// already delivered, so between them they delivered every key.
    pub fn met(&self) -> bool {
        self.met
    }

    /// Walk the chain of entries with key hash `h` for the key of `t`;
    /// return the candidate that delivered it first.
    fn seen_by(&self, h: u64, t: &Tuple) -> Option<usize> {
        let mut at = self.heads.get(&h).copied().unwrap_or(NO_ENTRY);
        while at != NO_ENTRY {
            let (k, who) = &self.entries[at as usize];
            if k.iter()
                .zip(&self.key_cols)
                .all(|(ke, &c)| value_key_eq(t.get(c), ke))
            {
                return Some(*who);
            }
            at = self.next[at as usize];
        }
        None
    }

    /// Add `key` (hash `h`), first delivered by `candidate`.
    fn insert(&mut self, h: u64, key: GroupKey, candidate: usize) {
        let ei = self.entries.len() as u32;
        self.entries.push((key, candidate));
        self.next.push(self.heads.insert(h, ei).unwrap_or(NO_ENTRY));
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

    /// Whether a key scan already delivered `t`'s key: it lies at or
    /// below the ascending scan's water mark, or at or above the
    /// descending one's.
    fn scanned(&self, t: &Tuple) -> bool {
        let keys = &self.key_order;
        let asc = self.ascending.as_ref().and_then(|s| s.last.as_ref());
        let desc = self.descending.as_ref().and_then(|s| s.last.as_ref());
        asc.is_some_and(|m| cmp_tuples(keys, t, m).is_le())
            || desc.is_some_and(|m| cmp_tuples(keys, t, m).is_ge())
    }

    /// Filter `batch` down to tuples whose key has not been delivered yet.
    ///
    /// Panics if `candidate` (identified by `name` in the diagnostic)
    /// re-delivers a key it delivered itself: each candidate reads its own
    /// data sequentially exactly once, so that can only mean the declared
    /// key columns are not a real key, and silently dropping the tuple
    /// would corrupt the union. Panics too when a key scan delivers a key
    /// out of its order or range: completing at a "meeting" of unordered
    /// scans would silently truncate the union.
    ///
    /// The batch is filtered in place, so a batch of fresh tuples costs
    /// no allocation beyond the seen-set entries.
    pub fn filter(&mut self, candidate: usize, name: &str, mut batch: Vec<Tuple>) -> Vec<Tuple> {
        let descending = match (&self.ascending, &self.descending) {
            (Some(s), _) if s.candidate == candidate => Some(false),
            (_, Some(s)) if s.candidate == candidate => Some(true),
            _ => None,
        };
        let Some(descending) = descending else {
            batch.retain(|t| {
                let h = tuple_key_hash(t, &self.key_cols);
                match self.seen_by(h, t) {
                    Some(first) => {
                        self.assert_fresh_provenance(first, candidate, name);
                        false
                    }
                    None if self.scanned(t) => false,
                    None => {
                        self.insert(h, group_key(t.values(), &self.key_cols), candidate);
                        true
                    }
                }
            });
            return batch;
        };
        let fresh = self.check_scan(descending, name, &batch);
        batch.truncate(fresh);
        if !self.entries.is_empty() {
            batch.retain(
                |t| match self.seen_by(tuple_key_hash(t, &self.key_cols), t) {
                    Some(first) => {
                        self.assert_fresh_provenance(first, candidate, name);
                        false
                    }
                    None => true,
                },
            );
        }
        batch
    }

    /// Check a batch of the `descending` (or ascending) key scan against
    /// its order and range, and advance its water mark. Returns the
    /// length of the batch's fresh prefix: the tuples before the first
    /// one at or beyond the partner's water mark, which the partner
    /// already delivered. Reaching the mark is the scans' meeting.
    fn check_scan(&mut self, descending: bool, name: &str, batch: &[Tuple]) -> usize {
        let (side, partner) = match descending {
            true => (&self.descending, &self.ascending),
            false => (&self.ascending, &self.descending),
        };
        let side = side.as_ref().expect("a declared key scan");
        let partner_mark = partner.as_ref().and_then(|p| p.last.as_ref());
        let keys = &self.key_order;
        // The key order of `a` against `b` in the scan's direction.
        let ahead = |a: &Tuple, b: &Tuple| {
            let ord = cmp_tuples(keys, a, b);
            if descending {
                ord.reverse()
            } else {
                ord
            }
        };
        // Whether `t` lies above the descending scan's floor.
        let above_floor = |t: &Tuple| {
            side.floor
                .as_ref()
                .is_none_or(|f| cmp_tuples(keys, t, f).is_gt())
        };
        let check = |in_order: bool| {
            assert!(
                in_order,
                "relation {}: candidate '{name}' delivered a key out of its requested {} key \
                 scan, so a split over it could complete before the union is whole",
                self.rel_id,
                if descending {
                    "descending"
                } else {
                    "ascending"
                },
            )
        };
        let mut last = side.last.as_ref();
        for t in batch {
            let ord = last.map(|prev| ahead(t, prev));
            if ord.is_some_and(Ordering::is_eq) {
                // A scan repeating its own key: the key is not unique.
                // Every tuple before `t` is in order, so in a descending
                // scan `t` repeats the lowest key so far: a batch that
                // crossed the floor earlier crosses it here, and reports
                // that first.
                check(above_floor(t));
                self.assert_fresh_provenance(side.candidate, side.candidate, name);
            }
            check(ord.is_none_or(Ordering::is_gt));
            last = Some(t);
        }
        // The batch is in order, so its last tuple is the lowest key of a
        // descending scan: the one floor check covers the whole batch.
        check(batch.last().is_none_or(above_floor));
        // The batch is in order, so the tuples at or beyond the partner's
        // water mark — keys the partner already delivered — are a suffix.
        let fresh = match partner_mark {
            Some(p) if batch.last().is_some_and(|t| ahead(t, p).is_ge()) => {
                batch.partition_point(|t| ahead(t, p).is_lt())
            }
            _ => batch.len(),
        };
        let last = last.cloned();
        self.met |= fresh < batch.len();
        let side = match descending {
            true => &mut self.descending,
            false => &mut self.ascending,
        };
        side.as_mut().expect("a declared key scan").last = last;
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
    /// Whether a hedge split the relation: a standby scanned it from the
    /// far key end while the primary kept scanning from the near one.
    pub split: bool,
    /// Per-candidate statistics, in registration order.
    pub candidates: Vec<CandidateReport>,
}

/// A key-scan request whose outcome is not known yet: one side of a
/// split, or the primary before one. Inline lanes know the outcome at
/// activation; queue lanes once their producer posts it (see
/// `FederatedSource::settle_requests`).
#[derive(Debug, Clone)]
struct ScanRequest {
    /// The requested direction.
    descending: bool,
    /// Exclusive lower key bound of a descending side: the primary's
    /// high-water tuple when the split began (`None`: no bound).
    floor: Option<Tuple>,
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
    /// Per-lane `Pending` promises: inline lanes are only polled once
    /// due; queue lanes answer with polling ticks, so their promises are
    /// never kept (skipping is off for them).
    due: DueTimes,
    /// The sweep's polling order, reused across polls.
    order: Vec<usize>,
    /// Dedupe by key; it also holds the confirmed key scans' water marks
    /// and whether the two sides of a split met (the union is then
    /// complete once the batch that crossed has been handed out).
    dedup: KeyDedup,
    /// The relation key columns, the key of key-scan requests.
    key_cols: Vec<usize>,
    /// Per lane: its key-scan request, until the lane took or refused it.
    requests: Vec<Option<ScanRequest>>,
    /// The run's shared wall clock, for queue lanes — so `wall.is_some()`
    /// tells the lane kind. Inline lanes schedule on `high_water_us`.
    wall: Option<Arc<dyn Clock>>,
    /// The inline timeline: the latest `poll` instant seen. Never moves
    /// back, and nothing else advances it.
    high_water_us: u64,
    /// Queue lanes only: the primary's gate is still closed. It opens at
    /// the first poll, so requests made before that poll reach the
    /// primary before it ships anything.
    primary_parked: bool,
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
        // Candidate 0 is activated at instant 0 of the adapter's timeline.
        fed.activate_primary(0);
        Ok(fed)
    }

    /// [`FederatedSource::new`] with queue lanes: every candidate races
    /// on its own producer thread, spawned now. The primary's producer
    /// starts at the first poll; standbys park at their gates until the
    /// scheduler hedges onto them. `clock` must be a wall
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
        fed.due = DueTimes::new(fed.lanes.len(), false);
        fed.wall = Some(clock);
        fed.primary_parked = true;
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
        scheduler.set_key_scan(
            candidates
                .iter()
                .map(|c| c.descriptor())
                .map(|d| d.complete && d.capabilities.key_scan)
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
            // Inline lanes keep promises; `threaded` turns skipping off.
            due: DueTimes::new(candidates.len(), true),
            order: Vec::new(),
            requests: vec![None; candidates.len()],
            dedup: KeyDedup::new(rel_id, key_cols.clone()),
            key_cols,
            wall: None,
            high_water_us: 0,
            primary_parked: false,
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
            split: self.scheduler.descending().is_some(),
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

    /// A key-scan request over the relation key for `key > after`'s key
    /// (every key when `after` is `None`).
    fn key_scan(&self, after: Option<&Tuple>, descending: bool) -> SourceControl {
        let after = after.map(|t| self.key_cols.iter().map(|&c| t.get(c).clone()).collect());
        SourceControl::KeyScan {
            key_cols: self.key_cols.clone(),
            after,
            descending,
        }
    }

    /// Activate candidate 0 at `now_us`, asking it for an ascending scan
    /// of the whole relation when the relation can split and it takes
    /// key scans.
    fn activate_primary(&mut self, now_us: u64) {
        let mut request = None;
        if self.scheduler.primary_may_split() {
            self.requests[0] = Some(ScanRequest {
                descending: false,
                floor: None,
            });
            request = Some(self.key_scan(None, false));
        }
        let taken = self.lanes[0].activate(now_us, request);
        self.note_request(0, taken);
    }

    /// Fold the engine's `now_us` into the adapter's timeline: the
    /// inline high-water mark, or the shared wall clock, which alone
    /// decides.
    fn observe(&mut self, now_us: u64) -> u64 {
        match &self.wall {
            Some(clock) => clock.observe(now_us),
            None => {
                self.high_water_us = self.high_water_us.max(now_us);
                self.high_water_us
            }
        }
    }

    /// Activate lane `idx` at `now_us`. A standby the scheduler split
    /// onto is asked for the keys above the primary's high-water key,
    /// descending; any other activation carries no request.
    fn activate_lane(&mut self, idx: usize, now_us: u64) {
        let mut request = None;
        if self.scheduler.descending() == Some(idx) {
            let primary = self.scheduler.ascending().expect("a split has a primary");
            let floor = self.dedup.water_mark(primary).cloned();
            request = Some(self.key_scan(floor.as_ref(), true));
            self.requests[idx] = Some(ScanRequest {
                descending: true,
                floor,
            });
        }
        let taken = self.lanes[idx].activate(now_us, request);
        self.note_request(idx, taken);
    }

    /// Record whether lane `idx` took its key-scan request: `Some(true)`
    /// confirms its scan role, `Some(false)` drops it — the candidate then
    /// races in its own order — and `None` (a queue lane whose producer
    /// has not applied it yet) leaves it pending.
    fn note_request(&mut self, idx: usize, taken: Option<bool>) {
        let Some(taken) = taken else {
            return;
        };
        let Some(request) = self.requests[idx].take() else {
            return;
        };
        match (taken, request.descending) {
            (true, false) => {
                self.dedup.ascending_scan(idx);
                self.scheduler.set_ascending(idx);
            }
            (true, true) => self.dedup.descending_scan(idx, request.floor),
            (false, _) => self.scheduler.split_refused(idx),
        }
    }

    /// Settle key-scan requests still pending on queue lanes, waiting
    /// for their producers to post the outcome, so the hedge gate knows
    /// whether the primary is an ascending scan before it prices a split.
    fn settle_requests(&mut self) {
        for idx in 0..self.requests.len() {
            if self.requests[idx].is_some() {
                let taken = self.lanes[idx].request_accepted();
                self.note_request(idx, Some(taken == Some(true)));
            }
        }
    }

    /// Poll lane `idx` at `now_us` — unless its last `Pending` promise
    /// still stands, in which case that answer is repeated without
    /// touching the lane.
    fn poll_lane(&mut self, idx: usize, now_us: u64, max_tuples: usize) -> Poll {
        if let Some(next_ready_us) = self.due.promise(idx, now_us) {
            return Poll::Pending { next_ready_us };
        }
        let polled = self.lanes[idx].poll(now_us, max_tuples);
        self.due.note(idx, polled.pending_hint());
        polled
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
        let now_us = self.observe(now_us);
        if std::mem::take(&mut self.primary_parked) {
            self.activate_primary(now_us);
            // The primary's producer starts only now: its stall window
            // does too, not at construction.
            self.scheduler.note_resume(now_us);
        }
        if self.dedup.met() {
            // The split's two scans met and the crossing batch is out.
            self.complete(now_us);
            return Poll::Eof;
        }
        let mut wake: Option<u64> = None;
        // A sweep restarts whenever the candidate set changes mid-poll
        // (failover activation, EOF, or an all-duplicates batch that
        // should be retried immediately). Each restart strictly consumes
        // candidate data or candidate count, so the loop terminates.
        'sweep: loop {
            self.scheduler.polling_order(&mut self.order);
            if self.order.is_empty() {
                // Every activated candidate is EOF. Uncovered standbys
                // may still hold tuples of a partially-replicated
                // relation; otherwise the union is complete.
                if let Some(idx) = self.scheduler.activate_standby(now_us) {
                    self.activate_lane(idx, now_us);
                    continue 'sweep;
                }
                self.complete(now_us);
                return Poll::Eof;
            }
            for k in 0..self.order.len() {
                let idx = self.order[k];
                let hint = match self.poll_lane(idx, now_us, max_tuples) {
                    Poll::Ready(batch) if !batch.is_empty() => {
                        // The lane's scan role, and its partner's, must be
                        // known before the batch is deduped.
                        self.settle_requests();
                        let raw = batch.len() as u64;
                        let name = &self.lanes[idx].descriptor.name;
                        let fresh = self.dedup.filter(idx, name, batch);
                        self.scheduler
                            .note_arrival(idx, now_us, raw, fresh.len() as u64);
                        if fresh.is_empty() && self.dedup.met() {
                            self.complete(now_us);
                            return Poll::Eof;
                        }
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
                self.settle_requests();
                if let Some(woken) = self.scheduler.on_pending(idx, now_us) {
                    // Fresh stall: a standby was activated; poll it in
                    // this same call.
                    self.activate_lane(woken, now_us);
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
            capabilities: SourceCapabilities {
                key_scan: false,
                projection: true,
            },
        }
    }

    /// Take a projection and forward it, widened by the relation key, to
    /// every candidate, active or parked: dedup, the split's order checks
    /// and its water marks read the key. A candidate that refuses ships
    /// whole rows, which hold every column. Key scans are the adapter's
    /// own to ask for, so it refuses them.
    fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
        let SourceControl::Project { mut cols } = request else {
            return Err(Error::Exec(format!(
                "federated source '{}' takes no key-scan requests",
                self.name
            )));
        };
        let arity = self.schema.arity();
        if let Some(&c) = cols.iter().find(|&&c| c >= arity) {
            return Err(Error::Plan(format!(
                "federated source '{}': cannot ship column {c} of arity {arity}",
                self.name
            )));
        }
        cols.extend_from_slice(&self.key_cols);
        cols.sort_unstable();
        cols.dedup();
        let now_us = self.observe(now_us);
        for lane in &mut self.lanes {
            lane.project(now_us, cols.clone());
        }
        Ok(())
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
            if let Some(clock) = &self.wall {
                self.scheduler.note_resume(clock.observe(now_us));
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
        if let Some(now_us) = self.wall.as_ref().map(|c| c.now_us()) {
            self.complete(now_us);
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
    use tukwila_stats::{TraceSink, VirtualClock, WallClock};

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
    fn dedup_unions_composite_nullable_keys() {
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

        let mut dedup = KeyDedup::new(9, vec![0, 1]);
        assert_eq!(dedup.filter(0, "c0", b0.clone()), b0);
        let r1 = dedup.filter(1, "c1", b1.clone());
        assert_eq!(
            r1,
            vec![b1[1].clone(), b1[3].clone()],
            "overlap (2,b) and (NULL,n) deduped"
        );
        assert_eq!(dedup.seen_keys(), 5);
    }

    /// Two key scans meeting dedupe by water mark alone: nothing enters
    /// the seen-set, and the crossing batch keeps only its fresh prefix.
    #[test]
    fn a_plain_split_hashes_no_key() {
        let mut dedup = KeyDedup::new(1, vec![0]);
        dedup.ascending_scan(0);
        assert_eq!(dedup.filter(0, "asc", rows(0..50)), rows(0..50));
        dedup.descending_scan(1, dedup.water_mark(0).cloned());
        let top: Vec<Tuple> = (60..100).rev().map(tuple).collect();
        assert_eq!(dedup.filter(1, "desc", top.clone()), top);
        assert_eq!(dedup.filter(0, "asc", rows(50..55)), rows(50..55));
        assert!(!dedup.met());
        let crossing: Vec<Tuple> = (50..60).rev().map(tuple).collect();
        let fresh: Vec<Tuple> = (55..60).rev().map(tuple).collect();
        assert_eq!(dedup.filter(1, "desc", crossing), fresh);
        assert!(
            dedup.met(),
            "the descending scan reached the ascending mark"
        );
        assert_eq!(dedup.seen_keys(), 0);
    }

    #[test]
    #[should_panic(expected = "delivered key columns")]
    fn dedup_same_candidate_redelivery_panics() {
        let mut d = KeyDedup::new(1, vec![0]);
        d.filter(0, "c0", vec![tuple(5)]);
        d.filter(0, "c0", vec![tuple(5)]);
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
                capabilities: Default::default(),
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

    /// Delivers like the wrapped mirror, requests included, then goes
    /// silent forever after `left` tuples.
    struct Dying {
        inner: DelayedSource,
        left: usize,
    }

    impl Source for Dying {
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
            if self.left == 0 {
                return Poll::Pending {
                    next_ready_us: u64::MAX,
                };
            }
            let polled = self.inner.poll(now_us, max_tuples.min(self.left));
            if let Poll::Ready(b) = &polled {
                self.left -= b.len();
            }
            polled
        }

        fn progress(&self) -> SourceProgressView {
            self.inner.progress()
        }

        fn descriptor(&self) -> SourceDescriptor {
            self.inner.descriptor()
        }

        fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
            self.inner.control(now_us, request)
        }
    }

    #[test]
    fn a_hedge_onto_a_key_scan_mirror_splits_on_either_lane_kind() {
        let candidates = || -> Vec<Box<dyn Source>> {
            let mirror = |name: &str, bps: f64| {
                let model = DelayModel::Bandwidth {
                    bytes_per_sec: bps,
                    initial_latency_us: 1_000,
                };
                DelayedSource::new(1, name, schema(), rows(0..200), &model)
            };
            vec![
                Box::new(Dying {
                    inner: mirror("primary", 2e5),
                    left: 50,
                }),
                Box::new(mirror("standby", 1e5)),
            ]
        };
        for (mut fed, clock) in per_lane_kind(candidates) {
            let mut keys = drain_any(&mut fed, clock.as_ref());
            let report = fed.report();
            assert!(report.split, "{}: the hedge split", fed.name());
            if clock.is_none() {
                // Inline: the primary's 50 ascending keys, then the
                // standby's descending scan of the rest, nothing re-sent.
                assert_eq!(keys[..50], (0..50).collect::<Vec<_>>());
                assert_eq!(keys[50..], (50..200).rev().collect::<Vec<_>>());
                assert_eq!(report.candidates[1].duplicates, 0);
                assert_eq!(fed.dedup.seen_keys(), 0, "a plain split hashes no key");
            }
            keys.sort_unstable();
            assert_eq!(keys, (0..200).collect::<Vec<_>>(), "every key once");
        }
    }

    #[test]
    #[should_panic(expected = "out of its requested ascending key scan")]
    fn an_out_of_order_primary_fails_loudly() {
        // Keys 0..10 stored out of order: a request would sort them, but
        // this wrapper takes the request without forwarding it.
        struct Liar(DelayedSource);
        impl Source for Liar {
            fn rel_id(&self) -> u32 {
                1
            }
            fn name(&self) -> &str {
                "liar"
            }
            fn schema(&self) -> &Schema {
                self.0.schema()
            }
            fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
                self.0.poll(now_us, max_tuples)
            }
            fn progress(&self) -> SourceProgressView {
                self.0.progress()
            }
            fn descriptor(&self) -> SourceDescriptor {
                self.0.descriptor()
            }
            fn control(&mut self, _: u64, _: SourceControl) -> Result<()> {
                Ok(())
            }
        }
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e5,
            initial_latency_us: 0,
        };
        let shuffled: Vec<Tuple> = [3, 1, 2, 0, 4].into_iter().map(tuple).collect();
        let liar = Liar(DelayedSource::new(1, "liar", schema(), shuffled, &model));
        let mut fed = FederatedSource::new(
            vec![0],
            vec![Box::new(liar), steady("standby", 0..5, 1e5)],
            FederationConfig::default(),
        )
        .unwrap();
        let _ = drain(&mut fed);
    }

    #[test]
    #[should_panic(expected = "the declared key is not unique")]
    fn a_key_scan_repeating_a_key_is_a_misdeclared_key() {
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e5,
            initial_latency_us: 0,
        };
        let twice: Vec<Tuple> = [0, 1, 1, 2].into_iter().map(tuple).collect();
        let mirror = |name: &str| -> Box<dyn Source> {
            Box::new(DelayedSource::new(1, name, schema(), twice.clone(), &model))
        };
        let mut fed = FederatedSource::new(
            vec![0],
            vec![mirror("a"), mirror("b")],
            FederationConfig::default(),
        )
        .unwrap();
        let _ = drain(&mut fed);
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

    /// A candidate that records the projection it took and fails a poll
    /// made before it took one.
    struct ProjectedFirst {
        inner: Box<dyn Source>,
        cols: Arc<std::sync::Mutex<Option<Vec<usize>>>>,
    }

    impl Source for ProjectedFirst {
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
            let cols = self.cols.lock().unwrap();
            assert!(
                cols.is_some(),
                "'{}' polled before its projection",
                self.name()
            );
            drop(cols);
            self.inner.poll(now_us, max_tuples)
        }
        fn progress(&self) -> SourceProgressView {
            self.inner.progress()
        }
        fn descriptor(&self) -> SourceDescriptor {
            self.inner.descriptor()
        }
        fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
            if let SourceControl::Project { cols } = &request {
                *self.cols.lock().unwrap() = Some(cols.clone());
            }
            self.inner.control(now_us, request)
        }
    }

    /// A projection asked for before the first poll reaches every
    /// candidate that ships, widened by the key, before it ships
    /// anything — on inline lanes at once, on queue lanes with the
    /// primary's activation at the first poll, and on a standby's gate
    /// when a hedge opens it.
    #[test]
    fn a_projection_reaches_every_lane_before_its_first_tuple() {
        type Taken = Arc<std::sync::Mutex<Option<Vec<usize>>>>;
        // Per adapter built (inline first), its candidates' records.
        let taken: std::sync::Mutex<Vec<Vec<Taken>>> = Default::default();
        let candidates = || -> Vec<Box<dyn Source>> {
            let slow = DelayModel::Bandwidth {
                bytes_per_sec: 200.0,
                initial_latency_us: 1_000,
            };
            let stalling = Box::new(DelayedSource::new(1, "slow", schema(), rows(0..60), &slow));
            let inners: [Box<dyn Source>; 2] = [stalling, steady("b", 0..60, 1e5)];
            let cols: Vec<Taken> = (0..2).map(|_| Default::default()).collect();
            taken.lock().unwrap().push(cols.clone());
            inners
                .into_iter()
                .zip(cols)
                .map(|(inner, cols)| Box::new(ProjectedFirst { inner, cols }) as Box<dyn Source>)
                .collect()
        };
        let feds = per_lane_kind(candidates);
        let taken = taken.into_inner().unwrap();
        for ((mut fed, clock), taken) in feds.into_iter().zip(taken) {
            assert!(fed.descriptor().capabilities.projection);
            let scan = SourceControl::KeyScan {
                key_cols: vec![0],
                after: None,
                descending: false,
            };
            assert!(fed.control(0, scan).is_err(), "key scans are the adapter's");
            let past = SourceControl::Project { cols: vec![2] };
            assert!(fed.control(0, past).is_err(), "column 2 of 2");
            fed.control(0, SourceControl::Project { cols: vec![1] })
                .unwrap();
            let mut keys = drain_any(&mut fed, clock.as_ref());
            keys.sort_unstable();
            assert_eq!(keys, (0..60).collect::<Vec<_>>());
            assert!(fed.report().failovers >= 1, "the slow primary is hedged");
            for cols in &taken {
                assert_eq!(*cols.lock().unwrap(), Some(vec![0, 1]));
            }
        }
    }

    /// A queue lane's primary starts at the first poll, and so does its
    /// stall window: a late first poll is the consumer's silence, not a
    /// stalled mirror.
    #[test]
    fn a_late_first_poll_does_not_read_as_a_stall() {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let candidates = vec![steady("a", 0..60, 1e7), steady("b", 0..60, 1e7)];
        let cfg = FederationConfig::default();
        let mut fed = FederatedSource::threaded(vec![0], candidates, cfg, clock.clone()).unwrap();
        // Five stall floors (`min_stall_us`) before anything polls.
        std::thread::sleep(Duration::from_millis(100));
        let mut keys = drain_wall(&mut fed, &clock);
        keys.sort_unstable();
        assert_eq!(keys, (0..60).collect::<Vec<_>>());
        let report = fed.report();
        assert_eq!(report.candidates[0].stalls, 0, "the primary stalled");
        assert_eq!(report.failovers, 0);
    }
}
