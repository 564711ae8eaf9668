//! The federated source catalog: registration of candidate sources
//! (mirrors and partial replicas) per base relation, and construction of
//! the [`FederatedSource`] adapters the engine runs over.

use std::collections::BTreeMap;
use std::sync::Arc;

use tukwila_relation::{Error, Result};
use tukwila_source::{Poll, Source, SourceControl, SourceDescriptor, SourceProgressView};
use tukwila_stats::{Clock, DeliveryCosts, TraceSink};

use crate::federated::FederatedSource;

/// Tunables of the federation layer. Defaults are deliberately
/// conservative: a source must be silent for `stall_sigma` standard
/// deviations beyond its own smoothed inter-arrival gap (and at least
/// `min_stall_us`) before a hedge is even *considered*; the
/// [`DeliveryCosts`]-driven gate then activates the race only when its
/// expected latency win exceeds its modeled waste.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Stall threshold = `ewma_gap + stall_sigma · σ(gap)`.
    pub stall_sigma: f64,
    /// Floor of the stall threshold (µs); also the threshold before any
    /// gap has been observed.
    pub min_stall_us: u64,
    /// Ranking score assumed for candidates with no observed rate window
    /// yet (tuples per virtual second). Also the standby's assumed
    /// delivery rate in the hedge gate's break-even inequality; `0.0`
    /// falls back to the best healthy candidate's observed rate (the
    /// mirror assumption).
    pub prior_rate_tuples_per_sec: f64,
    /// Unit prices of the hedge gate's waste side (duplicate dedup work,
    /// queue backpressure, core contention). A stall only activates a
    /// standby when the `DeliveryModel`'s expected latency win exceeds
    /// the waste priced here.
    pub hedge_costs: DeliveryCosts,
    /// Queue lanes only: bounded depth (in batches) of each candidate's
    /// delivery queue. A full queue blocks that candidate's producer
    /// thread (backpressure) until the consumer catches up.
    pub queue_capacity: usize,
    /// Queue lanes only: how many tuples a producer thread pulls from its
    /// candidate per poll.
    pub producer_batch: usize,
    /// Adaptivity trace journal. Every hedge-gate evaluation (fired or
    /// declined, with per-candidate win/waste scores), EOF-sweep
    /// activation, and backpressure tally is recorded here. The default
    /// [`TraceSink::disabled`] records nothing at the cost of a branch.
    pub trace: TraceSink,
    /// Cross-query learning store (serving mode). When set, every
    /// adapter built from the catalog snapshots the store's
    /// [`crate::learning::LearnedProfile`]s at construction — learned
    /// rates replace the prior in hedge pricing, and candidates past
    /// queries saw stall without delivering get the
    /// [`FederationConfig::warm_stall_us`] floor — and publishes its own
    /// observations back exactly once, at union completion. `None`
    /// (default) is the single-query behavior: learn from scratch,
    /// publish nowhere.
    pub learning: Option<crate::learning::SharedLearning>,
    /// Warm stall floor (timeline µs) for candidates the learning store
    /// knows as dead (stalled in past queries, never delivered). `None`
    /// (default) keeps the conservative [`FederationConfig::min_stall_us`]
    /// even for known-dead candidates. Only ever applied *before* a
    /// candidate's own gap evidence exists — and never to candidates
    /// with learned healthy rates, so real-time jitter on a live mirror
    /// cannot read as a stall.
    pub warm_stall_us: Option<u64>,
    /// Queue lanes only: core budget for the hedge gate's busy-core waste
    /// term. `None` (default) reads the host's
    /// `available_parallelism` — correct when the query is alone.
    /// A serving front end sets this to the admitted query's fair share
    /// of the global [`tukwila_stats::CoreArbiter`] budget, fixed at
    /// admission so hedge decisions stay a pure function of the
    /// timeline.
    pub core_budget: Option<usize>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            stall_sigma: 4.0,
            min_stall_us: 20_000,
            prior_rate_tuples_per_sec: 0.0,
            hedge_costs: DeliveryCosts::default(),
            queue_capacity: 8,
            producer_batch: 256,
            trace: TraceSink::disabled(),
            learning: None,
            warm_stall_us: None,
            core_budget: None,
        }
    }
}

struct RelationEntry {
    key_cols: Vec<usize>,
    candidates: Vec<Box<dyn Source>>,
}

/// Registry of candidate sources per base relation. Relations iterate in
/// `rel_id` order, so building the federated source set is deterministic.
#[derive(Default)]
pub struct FederatedCatalog {
    relations: BTreeMap<u32, RelationEntry>,
    config: FederationConfig,
}

impl FederatedCatalog {
    /// An empty catalog whose adapters will use `config`.
    pub fn new(config: FederationConfig) -> FederatedCatalog {
        FederatedCatalog {
            relations: BTreeMap::new(),
            config,
        }
    }

    /// Register a candidate source for its relation. `key_cols` is the
    /// relation's (possibly composite) key, used to dedupe overlapping
    /// replicas; every candidate of one relation must agree on it.
    pub fn register(&mut self, key_cols: Vec<usize>, source: Box<dyn Source>) -> Result<()> {
        let rel = source.rel_id();
        let entry = self.relations.entry(rel).or_insert_with(|| RelationEntry {
            key_cols: key_cols.clone(),
            candidates: Vec::new(),
        });
        if entry.key_cols != key_cols {
            return Err(Error::Plan(format!(
                "relation {rel}: conflicting key columns {:?} vs {key_cols:?}",
                entry.key_cols
            )));
        }
        if let Some(first) = entry.candidates.first() {
            if first.schema() != source.schema() {
                return Err(Error::Plan(format!(
                    "relation {rel}: mirror '{}' schema disagrees with '{}'",
                    source.name(),
                    first.name()
                )));
            }
        }
        entry.candidates.push(source);
        self.verify_coverage(rel)?;
        Ok(())
    }

    /// Coverage check (run at every registration): when a relation has no
    /// full mirror and its partial replicas declare key ranges, the
    /// declared ranges must jointly cover the relation — contiguous from
    /// the lowest declared bound to the highest, no gaps. Replicas that
    /// declare nothing are legacy-tolerated (coverage is then
    /// unverifiable and completion falls back to all-EOF), but mixing
    /// declared and undeclared partial replicas is an error: the declared
    /// ranges would promise a verification the undeclared one silently
    /// voids.
    fn verify_coverage(&self, rel: u32) -> Result<()> {
        let entry = &self.relations[&rel];
        let descriptors: Vec<SourceDescriptor> =
            entry.candidates.iter().map(|c| c.descriptor()).collect();
        if descriptors.iter().any(|d| d.complete) {
            return Ok(()); // a full mirror covers everything
        }
        let declared: Vec<(i64, i64)> = descriptors.iter().filter_map(|d| d.key_range).collect();
        if declared.is_empty() {
            return Ok(()); // legacy: nothing declared, nothing to verify
        }
        if declared.len() != descriptors.len() {
            return Err(Error::Plan(format!(
                "relation {rel}: {} of {} partial replicas declare key ranges — declare all \
                 of them (or none) so coverage can be verified",
                declared.len(),
                descriptors.len()
            )));
        }
        let mut ranges = declared;
        ranges.sort_unstable();
        let mut frontier = ranges[0].1;
        for &(lo, hi) in &ranges[1..] {
            if lo > frontier.saturating_add(1) {
                return Err(Error::Plan(format!(
                    "relation {rel}: declared replica ranges leave keys ({frontier}, {lo}) \
                     uncovered — the union would silently miss tuples"
                )));
            }
            frontier = frontier.max(hi);
        }
        Ok(())
    }

    /// Consume the catalog, producing one [`FederatedSource`] with inline
    /// lanes per registered relation (in `rel_id` order) — a drop-in
    /// `Vec<Box<dyn Source>>` for `SimDriver`, `CorrectiveExec`, and the
    /// baselines.
    pub fn into_sources(self) -> Result<Vec<Box<dyn Source>>> {
        let config = self.config;
        self.relations
            .into_values()
            .map(|entry| {
                FederatedSource::new(entry.key_cols, entry.candidates, config.clone())
                    .map(|f| Box::new(f) as Box<dyn Source>)
            })
            .collect()
    }

    /// Consume the catalog, producing one [`FederatedSource`] with queue
    /// lanes ([`FederatedSource::threaded`]) per registered relation:
    /// every candidate runs on its own producer thread, racing for real
    /// against `clock` (normally an accelerated
    /// [`tukwila_stats::WallClock`] shared with the driver).
    pub fn into_concurrent_sources(self, clock: Arc<dyn Clock>) -> Result<Vec<Box<dyn Source>>> {
        let config = self.config;
        self.relations
            .into_values()
            .map(|entry| {
                FederatedSource::threaded(
                    entry.key_cols,
                    entry.candidates,
                    config.clone(),
                    clock.clone(),
                )
                .map(|f| Box::new(f) as Box<dyn Source>)
            })
            .collect()
    }
}

/// Marks a source as holding only part of its relation. The federated
/// scheduler then knows the relation is complete only when *all* its
/// replicas reach EOF (a full mirror's EOF alone is enough otherwise).
pub struct PartialReplica {
    inner: Box<dyn Source>,
    key_range: Option<(i64, i64)>,
}

impl PartialReplica {
    /// Wrap a source, marking it as covering only part of its relation
    /// with undeclared (legacy, unverifiable) coverage.
    pub fn new(inner: Box<dyn Source>) -> PartialReplica {
        PartialReplica {
            inner,
            key_range: None,
        }
    }

    /// Wrap a source declaring the inclusive key range it covers (over
    /// the first key column). Declared ranges let the catalog verify at
    /// registration time that a relation's replicas jointly cover it, and
    /// let the scheduler skip standbys whose range has already been fully
    /// delivered by drained candidates.
    pub fn with_range(inner: Box<dyn Source>, lo: i64, hi: i64) -> PartialReplica {
        PartialReplica {
            inner,
            key_range: Some((lo.min(hi), lo.max(hi))),
        }
    }
}

/// Attaches a declared delivery rate (catalog metadata, tuples per
/// timeline second) to a source. The hedge gate prices this candidate as
/// a standby with the declared rate instead of the configured prior, so
/// the scheduler can wake the best payer among several parked standbys
/// regardless of registration order.
pub struct DeclaredRate {
    inner: Box<dyn Source>,
    rate_tuples_per_sec: f64,
}

impl DeclaredRate {
    /// Wrap a source, declaring the delivery rate its operator promises.
    pub fn new(inner: Box<dyn Source>, rate_tuples_per_sec: f64) -> DeclaredRate {
        DeclaredRate {
            inner,
            rate_tuples_per_sec: rate_tuples_per_sec.max(0.0),
        }
    }
}

impl Source for DeclaredRate {
    fn rel_id(&self) -> u32 {
        self.inner.rel_id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &tukwila_relation::Schema {
        self.inner.schema()
    }

    fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
        self.inner.poll(now_us, max_tuples)
    }

    fn progress(&self) -> SourceProgressView {
        self.inner.progress()
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            declared_rate_tuples_per_sec: Some(self.rate_tuples_per_sec),
            ..self.inner.descriptor()
        }
    }

    fn observed_rate(&self) -> Option<f64> {
        self.inner.observed_rate()
    }

    fn observed_schedule(&self) -> Option<tukwila_stats::ArrivalSchedule> {
        self.inner.observed_schedule()
    }

    fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
        self.inner.control(now_us, request)
    }

    fn quiesce_delivery(&mut self) {
        self.inner.quiesce_delivery();
    }

    fn resume_delivery(&mut self, now_us: u64) {
        self.inner.resume_delivery(now_us);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

impl Source for PartialReplica {
    fn rel_id(&self) -> u32 {
        self.inner.rel_id()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schema(&self) -> &tukwila_relation::Schema {
        self.inner.schema()
    }

    fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
        self.inner.poll(now_us, max_tuples)
    }

    fn progress(&self) -> SourceProgressView {
        self.inner.progress()
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            complete: false,
            key_range: self.key_range,
            ..self.inner.descriptor()
        }
    }

    /// Forwards projections only: a replica holding part of the relation
    /// never splits it, so it takes no key scan.
    fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
        match request {
            SourceControl::Project { .. } => self.inner.control(now_us, request),
            SourceControl::KeyScan { .. } => Err(Error::Exec(format!(
                "partial replica '{}' takes no key-scan requests",
                self.name()
            ))),
        }
    }

    fn observed_rate(&self) -> Option<f64> {
        self.inner.observed_rate()
    }

    fn observed_schedule(&self) -> Option<tukwila_stats::ArrivalSchedule> {
        self.inner.observed_schedule()
    }

    fn quiesce_delivery(&mut self) {
        self.inner.quiesce_delivery();
    }

    fn resume_delivery(&mut self, now_us: u64) {
        self.inner.resume_delivery(now_us);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}
