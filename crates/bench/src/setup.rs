//! Experiment configuration, datasets, sources, and workload wiring.

use std::collections::HashMap;
use std::sync::Arc;

use tukwila_datagen::{queries, Dataset, DatasetConfig, TableId};
use tukwila_federation::{DeclaredRate, FederatedCatalog, FederationConfig};
use tukwila_optimizer::LogicalQuery;
use tukwila_relation::{Error, Result, Schema};
use tukwila_source::{
    DelayModel, DelayedSource, MemSource, Poll, Source, SourceControl, SourceDescriptor,
    SourceProgressView,
};
use tukwila_stats::{Clock, TraceSink};

/// Global experiment knobs (CLI-settable).
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// TPC-H scale factor; the paper uses 0.1, our default budget-friendly
    /// scale is 0.01 (the Q5 given-cardinalities trap plan is
    /// intentionally quadratic, so large scales need large memory).
    pub scale: f64,
    /// Repetitions per measurement (paper: minimum 4).
    pub runs: usize,
    pub batch_size: usize,
    /// Wireless model bandwidth (bytes/sec) for Figure 3 / Table 2.
    pub wireless_bps: f64,
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 0.01,
            runs: 3,
            batch_size: 1024,
            wireless_bps: 1.5e6,
            seed: 7,
        }
    }
}

/// The four queries of the paper's Figure 2/3/6 workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadQuery {
    Q3A,
    Q10,
    Q10A,
    Q5,
}

impl WorkloadQuery {
    pub fn all() -> [WorkloadQuery; 4] {
        [
            WorkloadQuery::Q3A,
            WorkloadQuery::Q10,
            WorkloadQuery::Q10A,
            WorkloadQuery::Q5,
        ]
    }

    pub fn name(self) -> &'static str {
        match self {
            WorkloadQuery::Q3A => "3A",
            WorkloadQuery::Q10 => "10",
            WorkloadQuery::Q10A => "10A",
            WorkloadQuery::Q5 => "5",
        }
    }

    pub fn query(self) -> LogicalQuery {
        match self {
            WorkloadQuery::Q3A => queries::q3a(),
            WorkloadQuery::Q10 => queries::q10(),
            WorkloadQuery::Q10A => queries::q10a(),
            WorkloadQuery::Q5 => queries::q5(),
        }
    }

    /// The phase-0 plan the paper's no-statistics optimizer landed on.
    ///
    /// Our reimplemented estimator does not reproduce the original
    /// optimizer's specific mis-estimates, so the no-statistics experiments
    /// pin phase 0 to the orderings the paper reports: for 3A/10/10A "the
    /// optimizer generally picks an ordering that yields an expensive
    /// intermediate result" (ORDERS ⋈ LINEITEM first); for Q5 the
    /// no-statistics behaviour needs no pinning: our enumerator's
    /// tie-breaking walks into the CUSTOMER ⋈ SUPPLIER nationkey trap on
    /// its own — the same "very large subresult" the paper describes for
    /// Q5 (there triggered in the given-cardinalities mode; here in the
    /// no-statistics mode). Either way, the experiment's subject — a
    /// running plan with a blowing-up intermediate, and corrective
    /// processing escaping it — is preserved.
    pub fn paper_nostats_order(self) -> Option<Vec<u32>> {
        let o = TableId::Orders.rel_id();
        let l = TableId::Lineitem.rel_id();
        let c = TableId::Customer.rel_id();
        let n = TableId::Nation.rel_id();
        let s = TableId::Supplier.rel_id();
        let r = TableId::Region.rel_id();
        match self {
            WorkloadQuery::Q3A => Some(vec![o, l, c]),
            WorkloadQuery::Q10 | WorkloadQuery::Q10A => Some(vec![o, l, c, n]),
            WorkloadQuery::Q5 => {
                let _ = (s, r);
                None
            }
        }
    }
}

/// Generate the paper's two datasets at the configured scale.
pub fn datasets(cfg: &ExpConfig) -> [(String, Dataset); 2] {
    [
        (
            "uniform".into(),
            Dataset::generate(DatasetConfig {
                scale: cfg.scale,
                zipf_z: None,
                seed: cfg.seed,
            }),
        ),
        (
            "skewed".into(),
            Dataset::generate(DatasetConfig {
                scale: cfg.scale,
                zipf_z: Some(0.5),
                seed: cfg.seed,
            }),
        ),
    ]
}

/// Local (in-memory) sources for a query.
pub fn local_sources(d: &Dataset, q: &LogicalQuery) -> Vec<Box<dyn Source>> {
    queries::tables_of(q)
        .into_iter()
        .map(|t| {
            Box::new(MemSource::new(
                t.rel_id(),
                t.name(),
                Dataset::schema(t),
                d.table(t).to_vec(),
            )) as Box<dyn Source>
        })
        .collect()
}

/// Bursty-wireless sources for a query (the paper's wireless network).
pub fn wireless_sources(d: &Dataset, q: &LogicalQuery, cfg: &ExpConfig) -> Vec<Box<dyn Source>> {
    let model = DelayModel::Wireless {
        bytes_per_sec: cfg.wireless_bps,
        burst_ms: 40.0,
        gap_ms: 60.0,
        seed: cfg.seed,
    };
    queries::tables_of(q)
        .into_iter()
        .map(|t| {
            Box::new(DelayedSource::new(
                t.rel_id(),
                t.name(),
                Dataset::schema(t),
                d.table(t).to_vec(),
                &model,
            )) as Box<dyn Source>
        })
        .collect()
}

/// Which mirror a pinned (non-adaptive) run reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MirrorKind {
    /// Fast in bursts, long outages (802.11b-style wireless at 4× the
    /// configured bandwidth, ~10% duty cycle).
    FastFlaky,
    /// Steady bandwidth at half the configured rate.
    SteadySlow,
    /// A distant last-resort standby at a fraction of the steady rate.
    /// Registered third behind the federated adapters: the legacy
    /// stall-only rule would race it on every later flaky outage, the
    /// delivery-model gate declines it while the steady mirror is healthy
    /// (a from-scratch remote must re-deliver everything already
    /// delivered at a pathetic rate).
    RemoteBackup,
}

fn mirror_model(kind: MirrorKind, cfg: &ExpConfig, rel: u32) -> DelayModel {
    match kind {
        MirrorKind::FastFlaky => DelayModel::Wireless {
            bytes_per_sec: cfg.wireless_bps * 4.0,
            burst_ms: 30.0,
            gap_ms: 300.0,
            seed: cfg.seed ^ (rel as u64) << 8,
        },
        MirrorKind::SteadySlow => DelayModel::Bandwidth {
            bytes_per_sec: cfg.wireless_bps * 0.5,
            initial_latency_us: 2_000,
        },
        MirrorKind::RemoteBackup => DelayModel::Bandwidth {
            bytes_per_sec: cfg.wireless_bps * 0.1,
            initial_latency_us: 50_000,
        },
    }
}

/// What the mirror scenario's candidates ship when the engine asks them
/// for a projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    /// Whole rows: every mirror refuses projections ([`WholeRows`]). A
    /// federated relation must also ship its key, which a single pinned
    /// mirror need not, so the scenario's pins-against-orders claims
    /// compare whole rows.
    Whole,
    /// Only the columns the query reads (and, federated, the key).
    Projected,
}

/// A candidate that ships whole rows: it forwards everything, key scans
/// included, but refuses projections and declares none.
pub struct WholeRows(pub Box<dyn Source>);

impl Source for WholeRows {
    fn rel_id(&self) -> u32 {
        self.0.rel_id()
    }

    fn name(&self) -> &str {
        self.0.name()
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
        let mut d = self.0.descriptor();
        d.capabilities.projection = false;
        d
    }

    fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
        match request {
            SourceControl::Project { .. } => Err(Error::Exec(format!(
                "mirror '{}' ships whole rows",
                self.name()
            ))),
            SourceControl::KeyScan { .. } => self.0.control(now_us, request),
        }
    }
}

fn mirror(
    d: &Dataset,
    t: TableId,
    kind: MirrorKind,
    cfg: &ExpConfig,
    rows: Rows,
) -> Box<dyn Source> {
    let suffix = match kind {
        MirrorKind::FastFlaky => "flaky",
        MirrorKind::SteadySlow => "steady",
        MirrorKind::RemoteBackup => "remote",
    };
    let source = Box::new(DelayedSource::new(
        t.rel_id(),
        format!("{}-{suffix}", t.name()),
        Dataset::schema(t),
        d.table(t).to_vec(),
        &mirror_model(kind, cfg, t.rel_id()),
    ));
    match rows {
        Rows::Whole => Box::new(WholeRows(source)),
        Rows::Projected => source,
    }
}

/// Every relation pinned to a single mirror kind (the static baseline of
/// the mirror-failover experiment).
pub fn pinned_mirror_sources(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    kind: MirrorKind,
    rows: Rows,
) -> Vec<Box<dyn Source>> {
    queries::tables_of(q)
        .into_iter()
        .map(|t| mirror(d, t, kind, cfg, rows))
        .collect()
}

/// The mirror catalog shared by the federated/concurrent builders, with
/// the scheduler's decision journal attached (disabled sinks cost one
/// branch per event).
fn mirror_catalog(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    order: &[MirrorKind],
    rows: Rows,
    trace: TraceSink,
) -> FederatedCatalog {
    let mut catalog = FederatedCatalog::new(FederationConfig {
        trace,
        ..FederationConfig::default()
    });
    for t in queries::tables_of(q) {
        for &kind in order {
            catalog
                .register(t.key_cols(), mirror(d, t, kind, cfg, rows))
                .expect("uniform mirrors");
        }
    }
    catalog
}

/// Every relation served by both mirrors behind the federation layer's
/// online permutation scheduler. `order` controls registration order (the
/// initial permutation) so permutation-invariance can be benched.
pub fn federated_mirror_sources(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    order: &[MirrorKind],
    rows: Rows,
) -> Vec<Box<dyn Source>> {
    mirror_catalog(d, q, cfg, order, rows, TraceSink::disabled())
        .into_sources()
        .expect("valid catalog")
}

/// [`federated_mirror_sources`] over whole rows with an adaptivity-trace
/// journal: every hedge-gate evaluation and standby activation the
/// schedulers make lands in `trace` with its decision provenance.
pub fn federated_mirror_sources_traced(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    order: &[MirrorKind],
    trace: TraceSink,
) -> Vec<Box<dyn Source>> {
    mirror_catalog(d, q, cfg, order, Rows::Whole, trace)
        .into_sources()
        .expect("valid catalog")
}

/// [`federated_mirror_sources`], but racing the mirrors on real producer
/// threads against the shared wall `clock` (the same instance the driver
/// of the run must use).
pub fn concurrent_mirror_sources(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    order: &[MirrorKind],
    clock: Arc<dyn Clock>,
) -> Vec<Box<dyn Source>> {
    concurrent_mirror_sources_traced(d, q, cfg, order, clock, TraceSink::disabled())
}

/// [`concurrent_mirror_sources`] with an adaptivity-trace journal (see
/// [`federated_mirror_sources_traced`]).
pub fn concurrent_mirror_sources_traced(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    order: &[MirrorKind],
    clock: Arc<dyn Clock>,
    trace: TraceSink,
) -> Vec<Box<dyn Source>> {
    mirror_catalog(d, q, cfg, order, Rows::Whole, trace)
        .into_concurrent_sources(clock)
        .expect("valid catalog")
}

/// Sources for the fragments scenario: every relation local and
/// in-memory except CUSTOMER, which is served by two federated mirrors
/// on slow links (a delivery-bound relation). With `clock: None` the
/// mirrors go behind the sequential `FederatedSource` (virtual-clock
/// runs); with a wall clock they race on real producer threads.
pub fn slow_customer_mirror_sources(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    clock: Option<Arc<dyn Clock>>,
) -> Vec<Box<dyn Source>> {
    slow_customer_mirror_sources_traced(d, q, cfg, clock, TraceSink::disabled())
}

/// [`slow_customer_mirror_sources`] with an adaptivity-trace journal on
/// the customer mirrors' scheduler.
pub fn slow_customer_mirror_sources_traced(
    d: &Dataset,
    q: &LogicalQuery,
    cfg: &ExpConfig,
    clock: Option<Arc<dyn Clock>>,
    trace: TraceSink,
) -> Vec<Box<dyn Source>> {
    let customer = TableId::Customer;
    let mut catalog = FederatedCatalog::new(FederationConfig {
        trace,
        ..FederationConfig::default()
    });
    for (i, frac) in [0.2, 0.16].into_iter().enumerate() {
        catalog
            .register(
                customer.key_cols(),
                Box::new(DelayedSource::new(
                    customer.rel_id(),
                    format!("customer-slow{i}"),
                    Dataset::schema(customer),
                    d.table(customer).to_vec(),
                    &DelayModel::Bandwidth {
                        bytes_per_sec: cfg.wireless_bps * frac,
                        initial_latency_us: 2_000,
                    },
                )),
            )
            .expect("uniform mirrors");
    }
    let mut sources = match clock {
        None => catalog.into_sources().expect("valid catalog"),
        Some(clock) => catalog
            .into_concurrent_sources(clock)
            .expect("valid catalog"),
    };
    for t in queries::tables_of(q) {
        if t != customer {
            sources.push(Box::new(MemSource::new(
                t.rel_id(),
                t.name(),
                Dataset::schema(t),
                d.table(t).to_vec(),
            )));
        }
    }
    sources
}

/// Catalog builder for the serving scenario: every relation of `q` is
/// served by a *dead* primary (connected, never delivers — the worst
/// case for per-query cold-start patience), a slow declared standby,
/// and a fast declared standby. A cold query must wait out the full
/// `min_stall_us` before its first hedge fires; a server whose learning
/// store knows the primary is dead hedges at the `warm_stall_us` floor
/// instead. The declared standby rates make the gate's choice (the fast
/// standby) identical whether or not learning is present, so serving
/// changes *when* the fleet hedges, never *what* it answers.
///
/// Takes the [`FederationConfig`] as a parameter (rather than building
/// it) because in serving mode the [`tukwila_serve::Server`] owns the
/// config — it injects the learning store, fair core share, and trace
/// journal at admission.
pub fn serve_degraded_catalog(
    d: &Dataset,
    q: &LogicalQuery,
    fed: FederationConfig,
) -> tukwila_relation::Result<FederatedCatalog> {
    let dead = DelayModel::Bandwidth {
        bytes_per_sec: 1e-3,
        initial_latency_us: u32::MAX as u64,
    };
    let slow = DelayModel::Bandwidth {
        bytes_per_sec: 50_000.0,
        initial_latency_us: 2_000,
    };
    let fast = DelayModel::Bandwidth {
        bytes_per_sec: 200_000.0,
        initial_latency_us: 1_000,
    };
    let mut catalog = FederatedCatalog::new(fed);
    for t in queries::tables_of(q) {
        // Connect-on-demand mirrors: each link's delivery clock starts
        // at first poll, so *when* a hedge wakes the fast standby moves
        // the query's completion time — the serving win under test.
        let src = |suffix: &str, model: &DelayModel| {
            Box::new(
                DelayedSource::new(
                    t.rel_id(),
                    format!("{}-{suffix}", t.name()),
                    Dataset::schema(t),
                    d.table(t).to_vec(),
                    model,
                )
                .anchored(),
            ) as Box<dyn Source>
        };
        catalog.register(t.key_cols(), src("dead", &dead))?;
        catalog.register(
            t.key_cols(),
            Box::new(DeclaredRate::new(src("slow", &slow), 50.0)),
        )?;
        catalog.register(
            t.key_cols(),
            Box::new(DeclaredRate::new(src("fast", &fast), 100_000.0)),
        )?;
    }
    Ok(catalog)
}

/// True per-relation cardinalities ("Given cardinalities" mode).
pub fn true_cards(d: &Dataset, q: &LogicalQuery) -> HashMap<u32, u64> {
    queries::tables_of(q)
        .into_iter()
        .map(|t| (t.rel_id(), d.table(t).len() as u64))
        .collect()
}

/// Mean and half-width of the 95% confidence interval.
pub fn mean_ci(samples: &[f64]) -> (f64, f64) {
    let n = samples.len() as f64;
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mean = samples.iter().sum::<f64>() / n;
    if samples.len() < 2 {
        return (mean, 0.0);
    }
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    // t-value for small samples ≈ 2.78 (df=4) .. 4.3 (df=2); use 2.78 as a
    // serviceable constant for the 3-5 run regime.
    let t = 2.78;
    (mean, t * (var / n).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_queries_resolve() {
        for w in WorkloadQuery::all() {
            w.query().validate().unwrap();
        }
        assert!(WorkloadQuery::Q3A.paper_nostats_order().is_some());
        assert!(WorkloadQuery::Q5.paper_nostats_order().is_none());
    }

    #[test]
    fn mean_ci_behaves() {
        let (m, ci) = mean_ci(&[1.0, 1.0, 1.0]);
        assert_eq!(m, 1.0);
        assert_eq!(ci, 0.0);
        let (m2, ci2) = mean_ci(&[1.0, 3.0]);
        assert_eq!(m2, 2.0);
        assert!(ci2 > 0.0);
        assert_eq!(mean_ci(&[]), (0.0, 0.0));
    }

    #[test]
    fn sources_cover_query_tables() {
        let cfg = ExpConfig {
            scale: 0.001,
            ..Default::default()
        };
        let [(_, d), _] = datasets(&cfg);
        let q = WorkloadQuery::Q10.query();
        assert_eq!(local_sources(&d, &q).len(), 4);
        assert_eq!(true_cards(&d, &q).len(), 4);
    }
}
