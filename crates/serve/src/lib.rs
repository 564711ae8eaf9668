#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Multi-query serving front end over a shared learning catalog.
//!
//! The seed system runs one query per process: every run starts with a
//! cold [`tukwila_federation::FederatedCatalog`] — no memory of which
//! mirror stalled last time, no notion of other queries competing for
//! the same cores. A mediator (the paper's deployment model) is a
//! *server*: queries arrive continuously over the same federated
//! sources, and what one query learns about a source's behavior should
//! reprice the next query's hedging immediately.
//!
//! [`Server`] is that front end:
//!
//! * **Shared learning** — one [`SharedLearning`] store spans all
//!   queries. Each admitted query seeds its candidate
//!   [`tukwila_federation::BehaviorProfile`]s from the store (snapshot
//!   at admission) and publishes what it observed when its relations
//!   complete. A source that stalled out under query 1 is hedged away
//!   from within query 2's *first* gate evaluation — no per-query
//!   cold-start rediscovery.
//! * **Global core budget** — one [`CoreArbiter`] replaces the
//!   per-query `available_parallelism` sizing. Every query of an
//!   admission wave prices hedges and fragment cuts against its *fair
//!   share* of the budget (fixed at admission, so decisions are
//!   deterministic), and its threads are charged against a
//!   [`QueryLease`] that returns the cores when the query finishes —
//!   fair reclamation without any query-to-query coupling.
//! * **Fleet metrics** — per-query journals
//!   ([`tukwila_stats::TraceSink`]) roll up into a [`FleetReport`]:
//!   makespan, throughput, p50/p99 latency, and wasted race work
//!   (duplicate tuples deduped across all hedge races).
//!
//! # Determinism contract
//!
//! Learning **snapshots at admission and publishes at completion**.
//! Queries admitted in the same wave are therefore mutually isolated:
//! whatever order they finish in, none of them sees a wave-mate's
//! publications, so a wave behaves identically whether its members run
//! sequentially under [`tukwila_stats::VirtualClock`]s or concurrently
//! on threads against a shared wall clock. Learning crosses *waves*:
//! wave k+1 admits after wave k published. Learning moves pricing and
//! patience (when to hedge, whom to wake) — never answer content;
//! key-based dedup keeps the union identical whatever the permutation.

use std::sync::Arc;

use tukwila_core::baselines::{run_static_with_driver, StaticRun};
use tukwila_exec::driver::check_batch_size;
use tukwila_exec::reference::canonicalize_approx;
use tukwila_exec::{CpuCostModel, SimDriver};
use tukwila_federation::{FederatedCatalog, FederationConfig, SharedLearning};
use tukwila_optimizer::{LogicalQuery, OptimizerContext};
use tukwila_relation::{Error, Result};
use tukwila_source::Source;
use tukwila_stats::trace::QuerySummary;
use tukwila_stats::{
    Clock, CoreArbiter, QueryLease, TraceRecord, TraceSink, VirtualClock, WallClock,
};

/// One query submitted to the server: a name (stable across modes, used
/// to pair outcomes), the logical query, and a builder that registers
/// the query's candidate sources into a catalog. The server owns the
/// [`FederationConfig`] handed to the builder — it injects the shared
/// learning store, the admission wave's fair core share, and the
/// per-query trace journal — so the builder only describes *sources*.
/// The builder is a `Fn` (not `FnOnce`) because comparing serving modes
/// re-admits the same spec once per mode.
pub struct QuerySpec {
    name: String,
    query: LogicalQuery,
    #[allow(clippy::type_complexity)]
    build: Box<dyn Fn(FederationConfig) -> Result<FederatedCatalog> + Send + Sync>,
}

impl QuerySpec {
    /// A query spec from its name, logical query, and source builder.
    pub fn new(
        name: impl Into<String>,
        query: LogicalQuery,
        build: impl Fn(FederationConfig) -> Result<FederatedCatalog> + Send + Sync + 'static,
    ) -> QuerySpec {
        QuerySpec {
            name: name.into(),
            query,
            build: Box::new(build),
        }
    }

    /// The query's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for QuerySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuerySpec")
            .field("name", &self.name)
            .finish()
    }
}

/// How the server executes an admitted wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Each query runs to completion on its own [`VirtualClock`] —
    /// deterministic and replayable; waves compose sequentially. The
    /// anchor for golden answers and decision signatures.
    Virtual,
    /// Each query of a wave runs on its own OS thread over
    /// [`tukwila_federation::FederatedSource`]s with queue lanes, racing
    /// against one shared accelerated [`WallClock`]. The invariant: per-query
    /// answers and per-relation hedge-decision sequences match the
    /// [`ServeMode::Virtual`] run exactly.
    Threaded,
}

impl ServeMode {
    /// Short label used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            ServeMode::Virtual => "virtual",
            ServeMode::Threaded => "threaded",
        }
    }
}

/// Server tunables.
#[derive(Clone)]
pub struct ServerConfig {
    /// Base federation config cloned for every admitted query. The
    /// server overwrites `learning`, `core_budget`, and `trace`; all
    /// other knobs (stall floors, hedge costs, queue sizing,
    /// `warm_stall_us`) pass through as authored.
    pub federation: FederationConfig,
    /// Optimizer context for every query (the paper's "no statistics"
    /// mode by default, so plans are a pure function of the query).
    pub ctx: OptimizerContext,
    /// Driver batch size.
    pub batch_size: usize,
    /// Global core budget. `None` sizes to the host's
    /// `available_parallelism` — the serving replacement for each query
    /// reading it independently.
    pub cores: Option<usize>,
    /// Wall-clock acceleration for [`ServeMode::Threaded`] waves.
    pub accel: f64,
    /// Whether each query gets an unbounded trace journal (required for
    /// fleet metrics and decision goldens; disable only for raw-speed
    /// soaks).
    pub trace: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            federation: FederationConfig::default(),
            ctx: OptimizerContext::no_statistics(),
            batch_size: 256,
            cores: None,
            accel: 20.0,
            trace: true,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("batch_size", &self.batch_size)
            .field("cores", &self.cores)
            .field("accel", &self.accel)
            .field("trace", &self.trace)
            .finish()
    }
}

/// Outcome of one served query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The spec's name.
    pub name: String,
    /// Index of the admission wave the query ran in.
    pub wave: usize,
    /// Canonicalized answer rows (sorted debug strings, floats rounded
    /// to 6 significant digits so cross-clock aggregation order cannot
    /// flip a ULP) — the unit of cross-mode and golden comparison.
    pub rows: Vec<String>,
    /// The optimizer's plan description.
    pub plan: String,
    /// Query latency in timeline µs (virtual time under
    /// [`ServeMode::Virtual`], accelerated wall time under
    /// [`ServeMode::Threaded`]).
    pub latency_us: u64,
    /// The query's full trace journal (empty when tracing is off).
    pub records: Vec<TraceRecord>,
    /// Rollup of the journal.
    pub summary: QuerySummary,
}

/// Fleet-level rollup of one serve run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The mode the run executed under.
    pub mode: ServeMode,
    /// Per-query outcomes in admission order (wave-major).
    pub outcomes: Vec<QueryOutcome>,
    /// End-to-end timeline µs: the sum of query latencies under
    /// [`ServeMode::Virtual`] (waves compose sequentially), the shared
    /// wall clock's elapsed time under [`ServeMode::Threaded`].
    pub makespan_us: u64,
}

impl FleetReport {
    /// Queries served.
    pub fn queries(&self) -> usize {
        self.outcomes.len()
    }

    /// Queries per timeline second.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_us == 0 {
            return 0.0;
        }
        self.outcomes.len() as f64 / (self.makespan_us as f64 / 1e6)
    }

    /// Nearest-rank percentile of per-query latency, `q` in (0, 1].
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        let mut lats: Vec<u64> = self.outcomes.iter().map(|o| o.latency_us).collect();
        if lats.is_empty() {
            return 0;
        }
        lats.sort_unstable();
        let rank = ((lats.len() as f64) * q).ceil().max(1.0) as usize;
        lats[rank.min(lats.len()) - 1]
    }

    /// Median per-query latency (timeline µs).
    pub fn p50_latency_us(&self) -> u64 {
        self.latency_percentile_us(0.50)
    }

    /// 99th-percentile per-query latency (timeline µs).
    pub fn p99_latency_us(&self) -> u64 {
        self.latency_percentile_us(0.99)
    }

    /// Fleet-wide journal rollup: every query's records aggregated into
    /// one [`QuerySummary`] (decision counts sum; the window spans the
    /// whole run). This is the serve golden's trace summary.
    pub fn fleet_summary(&self) -> QuerySummary {
        let all: Vec<TraceRecord> = self
            .outcomes
            .iter()
            .flat_map(|o| o.records.iter().cloned())
            .collect();
        QuerySummary::from_records(&all)
    }

    /// Wasted race work fleet-wide: duplicate tuples delivered by
    /// racing candidates and discarded by key dedup, summed over every
    /// query (the `dedup_hits` completion counters).
    pub fn wasted_race_tuples(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.summary.counters.get("dedup_hits").copied().unwrap_or(0))
            .sum()
    }

    /// Human-facing fleet table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve[{}]: {} queries, makespan {} us, {:.2} q/s, p50 {} us, p99 {} us, wasted-race tuples {}\n",
            self.mode.label(),
            self.queries(),
            self.makespan_us,
            self.throughput_qps(),
            self.p50_latency_us(),
            self.p99_latency_us(),
            self.wasted_race_tuples(),
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "  wave {} {:<12} {:>10} us  {:>6} rows  hedges {}+{}\n",
                o.wave,
                o.name,
                o.latency_us,
                o.rows.len(),
                o.summary.hedges_fired,
                o.summary.hedges_declined,
            ));
        }
        out
    }
}

/// One admitted query, its sources already materialized (and therefore
/// its learning snapshot already taken).
struct Admitted {
    name: String,
    query: LogicalQuery,
    sources: Vec<Box<dyn Source>>,
    trace: TraceSink,
    lease: QueryLease,
    clock: Arc<dyn Clock>,
    wave: usize,
}

/// The long-lived engine front end: admits query waves over one shared
/// learning store and one global core budget. See the crate docs for
/// the determinism contract.
pub struct Server {
    config: ServerConfig,
    learning: SharedLearning,
    arbiter: CoreArbiter,
}

impl Server {
    /// A server over a fresh learning store and a core budget of
    /// `config.cores` (host parallelism when `None`).
    pub fn new(config: ServerConfig) -> Server {
        let arbiter = match config.cores {
            Some(n) => CoreArbiter::new(n),
            None => CoreArbiter::host(),
        };
        Server {
            config,
            learning: SharedLearning::new(),
            arbiter,
        }
    }

    /// The shared learning store (inspectable mid-run; profiles appear
    /// as queries complete).
    pub fn learning(&self) -> &SharedLearning {
        &self.learning
    }

    /// The global core arbiter.
    pub fn arbiter(&self) -> &CoreArbiter {
        &self.arbiter
    }

    /// Serve `waves` of queries under `mode` and roll up the fleet.
    ///
    /// Waves run in order; within a wave, queries run sequentially
    /// under [`ServeMode::Virtual`] and concurrently (one OS thread
    /// each) under [`ServeMode::Threaded`]. Every query of a wave is
    /// *admitted* — its catalog built and its sources materialized,
    /// which snapshots the learning store and fixes its fair core
    /// share — before any query of the wave starts executing.
    pub fn serve(&self, waves: &[Vec<QuerySpec>], mode: ServeMode) -> Result<FleetReport> {
        check_batch_size(self.config.batch_size)?;
        let mut outcomes: Vec<QueryOutcome> = Vec::new();
        let mut makespan_us: u64 = 0;
        let wall: Arc<WallClock> = Arc::new(WallClock::accelerated(self.config.accel));
        let serve_start_us = wall.now_us();
        for (wave_idx, wave) in waves.iter().enumerate() {
            if wave.is_empty() {
                continue;
            }
            let admitted = self.admit(wave, wave_idx, mode, &wall)?;
            let wave_outcomes = match mode {
                ServeMode::Virtual => self.run_wave_sequential(admitted)?,
                ServeMode::Threaded => self.run_wave_threaded(admitted, &wall)?,
            };
            if mode == ServeMode::Virtual {
                makespan_us += wave_outcomes.iter().map(|o| o.latency_us).sum::<u64>();
            }
            outcomes.extend(wave_outcomes);
        }
        if mode == ServeMode::Threaded {
            makespan_us = wall.now_us().saturating_sub(serve_start_us);
        }
        Ok(FleetReport {
            mode,
            outcomes,
            makespan_us,
        })
    }

    /// Admit a wave: snapshot learning, fix the fair core share, build
    /// every member's sources. Nothing executes yet.
    fn admit(
        &self,
        wave: &[QuerySpec],
        wave_idx: usize,
        mode: ServeMode,
        wall: &Arc<WallClock>,
    ) -> Result<Vec<Admitted>> {
        let fair = self.arbiter.fair_share(wave.len());
        let mut admitted = Vec::with_capacity(wave.len());
        for spec in wave {
            let clock: Arc<dyn Clock> = match mode {
                ServeMode::Virtual => Arc::new(VirtualClock::new()),
                ServeMode::Threaded => wall.clone() as Arc<dyn Clock>,
            };
            let trace = if self.config.trace {
                TraceSink::unbounded(clock.clone())
            } else {
                TraceSink::disabled()
            };
            let mut fed = self.config.federation.clone();
            fed.learning = Some(self.learning.clone());
            fed.core_budget = Some(fair);
            fed.trace = trace.clone();
            let catalog = (spec.build)(fed)?;
            // Materializing the sources seeds every candidate profile
            // from the learning store — the admission snapshot.
            let sources = match mode {
                ServeMode::Virtual => catalog.into_sources()?,
                ServeMode::Threaded => catalog.into_concurrent_sources(clock.clone())?,
            };
            admitted.push(Admitted {
                name: spec.name.clone(),
                query: spec.query.clone(),
                sources,
                trace,
                lease: self.arbiter.lease(),
                clock,
                wave: wave_idx,
            });
        }
        Ok(admitted)
    }

    fn run_wave_sequential(&self, admitted: Vec<Admitted>) -> Result<Vec<QueryOutcome>> {
        admitted
            .into_iter()
            .map(|a| {
                let driver = SimDriver::new(self.config.batch_size, CpuCostModel::Zero);
                self.finish(a, ServeMode::Virtual, |a| {
                    run_static_with_driver(
                        &a.query,
                        &mut a.sources,
                        self.config.ctx.clone(),
                        driver,
                        None,
                    )
                })
            })
            .collect()
    }

    fn run_wave_threaded(
        &self,
        admitted: Vec<Admitted>,
        wall: &Arc<WallClock>,
    ) -> Result<Vec<QueryOutcome>> {
        let results: Vec<Result<QueryOutcome>> = std::thread::scope(|scope| {
            let handles: Vec<_> = admitted
                .into_iter()
                .map(|a| {
                    let clock: Arc<dyn Clock> = wall.clone();
                    let batch = self.config.batch_size;
                    let ctx = self.config.ctx.clone();
                    let server = &*self;
                    scope.spawn(move || {
                        let driver =
                            SimDriver::new(batch, CpuCostModel::Measured).with_clock(clock);
                        server.finish(a, ServeMode::Threaded, |a| {
                            run_static_with_driver(&a.query, &mut a.sources, ctx, driver, None)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err(Error::Exec("serving thread panicked".into())))
                })
                .collect()
        });
        results.into_iter().collect()
    }

    /// Run one admitted query and fold its journal into an outcome.
    /// The query's thread is charged against its lease while live (non
    /// blocking: a saturated arbiter time-shares rather than stalling
    /// admission) and the cores return when the lease drops — fair
    /// reclamation the moment the query finishes.
    fn finish(
        &self,
        mut a: Admitted,
        mode: ServeMode,
        run: impl FnOnce(&mut Admitted) -> Result<StaticRun>,
    ) -> Result<QueryOutcome> {
        let granted = a.lease.try_acquire(1);
        let started_us = a.clock.now_us();
        let result = run(&mut a);
        let elapsed_us = a.clock.now_us().saturating_sub(started_us);
        a.lease.release(granted);
        // Dropping the sources finalizes learning publication for any
        // relation that completed without the adapter observing EOF.
        drop(a.sources);
        let run = result?;
        let records = a.trace.snapshot();
        let summary = QuerySummary::from_records(&records);
        Ok(QueryOutcome {
            name: a.name,
            wave: a.wave,
            rows: canonicalize_approx(&run.rows),
            plan: run.plan,
            // Virtual queries run on a private per-query clock whose end
            // instant the driver reports; threaded queries share one
            // wall clock across waves, so latency is the delta around
            // this query's own run.
            latency_us: match mode {
                ServeMode::Virtual => run.exec.virtual_us,
                ServeMode::Threaded => elapsed_us,
            },
            records,
            summary,
        })
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("budget", &self.arbiter.budget())
            .field("learned", &self.learning.len())
            .finish()
    }
}
