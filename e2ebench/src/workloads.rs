//! The three workloads. Each builds its inputs from the seed at set-up,
//! computes every expected answer there by a path independent of the one
//! it times, and runs one query per call of [`Workload::run`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use tukwila_bench::setup::{true_cards, WorkloadQuery};
use tukwila_core::{run_static, CorrectiveConfig, CorrectiveExec, CorrectiveReport};
use tukwila_datagen::{queries, Dataset, DatasetConfig, TableId};
use tukwila_exec::reference::canonicalize_approx;
use tukwila_exec::{CpuCostModel, ExecReport, FragmentOptions};
use tukwila_federation::{ConcurrentFederatedSource, FederatedCatalog, FederationConfig};
use tukwila_optimizer::{FragmentationConfig, LogicalQuery, Optimizer, OptimizerContext};
use tukwila_serve::{QuerySpec, ServeMode, Server, ServerConfig};
use tukwila_source::{DelayModel, DelayedSource, MemSource, Source};
use tukwila_stats::{Clock, WallClock};

use crate::probe::{maybe_wrap, FEDERATION_POLL, SOURCE_POLL};
use crate::procfs;
use crate::spans::Tracer;

/// The seed at which the committed answer goldens under `results/` were
/// generated.
pub const GOLDEN_SEED: u64 = 7;

const BATCH: usize = 1024;
/// Bandwidth (bytes/s) the mirror delay models scale from.
const LINK_BPS: f64 = 1.5e6;
/// `threaded-corrective` plays its timeline back this much faster than
/// real time.
const ACCEL: f64 = 25.0;

pub const NAMES: [&str; 3] = ["local-mix", "mirror-fleet", "threaded-corrective"];

/// One query's result as the client saw it.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall seconds of the engine call that returned the answer.
    pub latency_s: f64,
    /// Process CPU seconds during that call.
    pub call_cpu_s: f64,
    /// Completion time on the query's own timeline.
    pub timeline_s: f64,
    /// Distinct base tuples the query consumed.
    pub base_tuples: u64,
    /// Why the answer is not accepted; `None` when it matched.
    pub error: Option<String>,
    /// Per-layer values read from the engine's reports.
    pub layers: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Queries per round; a timed run always covers whole rounds so every
    /// run has the same mix.
    fn round_len(&self) -> usize;
    /// Run query `i` of the stream as query `qid`.
    fn run(&mut self, i: usize, qid: u64, tracer: Option<&Arc<Tracer>>) -> Outcome;
    /// The expected answers, exposed so tests can corrupt one.
    fn expected_mut(&mut self) -> Vec<&mut Vec<String>>;
}

/// What one set-up cost.
pub struct SetupTimes {
    pub total_s: f64,
    pub generate_s: f64,
    /// Mean `Optimizer` planning time per query shape.
    pub plan_s: f64,
}

/// Set-up parameters. `scale` overrides every workload's scale factor
/// (tests run at tiny scale).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    pub nproc: usize,
    pub scale: Option<f64>,
}

impl Params {
    fn sf(&self, default: f64) -> f64 {
        self.scale.unwrap_or(default)
    }
}

pub fn setup(name: &str, p: Params) -> Result<(Box<dyn Workload>, SetupTimes), String> {
    let start = Instant::now();
    let (w, generate_s, plan_s): (Box<dyn Workload>, f64, f64) = match name {
        "local-mix" => {
            let (w, g, pl) = LocalMix::setup(p)?;
            (Box::new(w), g, pl)
        }
        "mirror-fleet" => {
            let (w, g, pl) = MirrorFleet::setup(p)?;
            (Box::new(w), g, pl)
        }
        "threaded-corrective" => {
            let (w, g, pl) = ThreadedCorrective::setup(p)?;
            (Box::new(w), g, pl)
        }
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok((
        w,
        SetupTimes {
            total_s: start.elapsed().as_secs_f64(),
            generate_s,
            plan_s,
        },
    ))
}

fn generate(scale: f64, zipf_z: Option<f64>, seed: u64) -> Dataset {
    Dataset::generate(DatasetConfig {
        scale,
        zipf_z,
        seed,
    })
}

fn mem_source(d: &Dataset, t: TableId) -> Box<dyn Source> {
    Box::new(MemSource::new(
        t.rel_id(),
        t.name(),
        Dataset::schema(t),
        d.table(t).to_vec(),
    ))
}

fn local_sources(
    d: &Dataset,
    q: &LogicalQuery,
    tracer: Option<&Arc<Tracer>>,
) -> Vec<Box<dyn Source>> {
    queries::tables_of(q)
        .into_iter()
        .map(|t| maybe_wrap(mem_source(d, t), SOURCE_POLL, tracer))
        .collect()
}

fn base_tuples(d: &Dataset, q: &LogicalQuery) -> u64 {
    queries::tables_of(q)
        .into_iter()
        .map(|t| d.table(t).len() as u64)
        .sum()
}

/// The expected answer: a static plan with true cardinalities over plain
/// in-memory sources, on the virtual clock with no CPU charge. It shares
/// no federation, exchange, thread or corrective code with the timed runs.
fn expected_answer(d: &Dataset, q: &LogicalQuery) -> Result<Vec<String>, String> {
    let mut sources = local_sources(d, q, None);
    let run = run_static(
        q,
        &mut sources,
        OptimizerContext::with_cards(true_cards(d, q)),
        BATCH,
        CpuCostModel::Zero,
    )
    .map_err(|e| format!("expected answer: {e}"))?;
    Ok(canonicalize_approx(&run.rows))
}

/// Compare an expected answer with its committed golden under `results/`
/// when the run's seed and scale factor are the golden's. Returns whether
/// a golden was compared.
pub fn check_golden(
    p: &Params,
    sf: f64,
    golden_sf: f64,
    file: &str,
    answer: &[String],
) -> Result<bool, String> {
    if p.seed != GOLDEN_SEED || sf != golden_sf {
        return Ok(false);
    }
    // The benchmark is always built from the checkout it measures.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../results")
        .join(file);
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == answer.join("\n") + "\n" => Ok(true),
        Ok(_) => Err(format!("expected answer differs from {}", path.display())),
        Err(e) => {
            eprintln!("[e2ebench] golden {} not checked: {e}", path.display());
            Ok(false)
        }
    }
}

/// Time `f` as query `qid`'s engine call: wall seconds, process CPU
/// seconds, and a span named `span` when tracing.
fn engine_call<R>(
    tracer: Option<&Arc<Tracer>>,
    span: &'static str,
    qid: u64,
    f: impl FnOnce() -> R,
) -> (R, f64, f64) {
    let cpu0 = procfs::cpu_s();
    let t0 = Instant::now();
    let r = match tracer {
        Some(t) => t.ambient_span(span, qid, f),
        None => f(),
    };
    (r, t0.elapsed().as_secs_f64(), procfs::cpu_s() - cpu0)
}

/// Drop what a query left behind, inside a `core.teardown` span.
fn teardown<T>(tracer: Option<&Arc<Tracer>>, leftovers: T) {
    match tracer {
        Some(t) => t.span("core.teardown", || drop(leftovers)),
        None => drop(leftovers),
    }
}

fn check_rows(rows: &[String], expected: &[String]) -> Option<String> {
    (rows != expected).then(|| {
        format!(
            "answer mismatch: {} rows, {} expected",
            rows.len(),
            expected.len()
        )
    })
}

/// Layer values from an engine report. `accel` is how much faster than
/// real time the run's clock went: timeline durations are divided by it so
/// every `_ms` value is wall milliseconds.
fn exec_layers(e: &ExecReport, accel: f64) -> [(&'static str, f64); 6] {
    [
        ("exec.cpu_ms", e.cpu_us as f64 / 1e3 / accel),
        ("exec.idle_ms", e.idle_us as f64 / 1e3 / accel),
        ("exec.batches", e.batches as f64),
        ("exec.tuples_out", e.tuples_out as f64),
        ("exec.max_queue_depth", e.max_queue_depth as f64),
        ("exec.blocked_sends", e.blocked_sends() as f64),
    ]
}

fn corrective_layers(r: &CorrectiveReport, accel: f64) -> [(&'static str, f64); 5] {
    [
        ("core.corrective_queries", 1.0),
        ("core.phases", r.phase_count() as f64),
        ("core.stitch_ms", r.stitch_us as f64 / 1e3 / accel),
        ("core.reused", r.reuse.reused_tuples as f64),
        ("core.discarded", r.reuse.discarded_tuples as f64),
    ]
}

fn time_plan(
    f: impl FnOnce() -> tukwila_relation::Result<tukwila_optimizer::PhysPlan>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    f().map_err(|e| format!("plan: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

// ---------------------------------------------------------------- local-mix

/// One (query, dataset) pair of `local-mix`.
struct LocalPair {
    query: LogicalQuery,
    dataset: usize,
    cards: HashMap<u32, u64>,
    nostats_order: Option<Vec<u32>>,
    expected: Vec<String>,
    base_tuples: u64,
}

/// The paper's four queries on uniform and Zipf-0.5 data over in-memory
/// sources, each under static-with-cardinalities, corrective-without-
/// statistics and corrective-with-cardinalities.
pub struct LocalMix {
    datasets: Vec<Dataset>,
    pairs: Vec<LocalPair>,
}

const LOCAL_STRATEGIES: usize = 3;

/// The corrective knobs of the paper's Figure 2 runs (eager polling; the
/// executions settle at 2-4 phases).
fn local_corrective_cfg(
    given: Option<HashMap<u32, u64>>,
    order: Option<Vec<u32>>,
) -> CorrectiveConfig {
    CorrectiveConfig {
        batch_size: BATCH,
        cpu: CpuCostModel::Measured,
        poll_every_batches: 6,
        switch_threshold: 0.8,
        max_phases: 8,
        warmup_batches: 4,
        given_cards: given,
        initial_order: order,
        min_remaining_fraction: 0.15,
        ..Default::default()
    }
}

impl LocalMix {
    fn setup(p: Params) -> Result<(LocalMix, f64, f64), String> {
        let sf = p.sf(0.02);
        let t0 = Instant::now();
        let datasets = vec![generate(sf, None, p.seed), generate(sf, Some(0.5), p.seed)];
        let generate_s = t0.elapsed().as_secs_f64();
        let mut pairs = Vec::new();
        let mut plan_s = 0.0;
        for w in WorkloadQuery::all() {
            let query = w.query();
            for (dataset, d) in datasets.iter().enumerate() {
                let cards = true_cards(d, &query);
                if dataset == 0 {
                    let ctx = OptimizerContext::with_cards(cards.clone());
                    plan_s += time_plan(|| Optimizer::new(ctx).optimize(&query))?;
                }
                pairs.push(LocalPair {
                    expected: expected_answer(d, &query)?,
                    base_tuples: base_tuples(d, &query),
                    query: query.clone(),
                    dataset,
                    cards,
                    nostats_order: w.paper_nostats_order(),
                });
            }
        }
        let shapes = WorkloadQuery::all().len() as f64;
        Ok((LocalMix { datasets, pairs }, generate_s, plan_s / shapes))
    }
}

impl Workload for LocalMix {
    fn round_len(&self) -> usize {
        self.pairs.len() * LOCAL_STRATEGIES
    }

    fn run(&mut self, i: usize, qid: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let pair = &self.pairs[(i / LOCAL_STRATEGIES) % self.pairs.len()];
        let d = &self.datasets[pair.dataset];
        let q = &pair.query;
        let mut sources = local_sources(d, q, tracer);
        let mut out = Outcome {
            base_tuples: pair.base_tuples,
            ..Default::default()
        };
        let result = match i % LOCAL_STRATEGIES {
            0 => {
                let ctx = OptimizerContext::with_cards(pair.cards.clone());
                let (r, wall, cpu) = engine_call(tracer, "core.static_run", qid, || {
                    run_static(q, &mut sources, ctx, BATCH, CpuCostModel::Measured)
                });
                (out.latency_s, out.call_cpu_s) = (wall, cpu);
                r.map(|run| {
                    out.layers.extend(exec_layers(&run.exec, 1.0));
                    (
                        run.exec.virtual_us,
                        canonicalize_approx(&run.rows),
                        Box::new(run) as Box<dyn std::any::Any>,
                    )
                })
            }
            strategy => {
                let cfg = if strategy == 1 {
                    local_corrective_cfg(None, pair.nostats_order.clone())
                } else {
                    local_corrective_cfg(Some(pair.cards.clone()), None)
                };
                let exec = CorrectiveExec::new(q.clone(), cfg);
                let (r, wall, cpu) = engine_call(tracer, "core.corrective_run", qid, || {
                    exec.run(&mut sources)
                });
                (out.latency_s, out.call_cpu_s) = (wall, cpu);
                r.map(|report| {
                    out.layers.extend(exec_layers(&report.exec, 1.0));
                    out.layers.extend(corrective_layers(&report, 1.0));
                    (
                        report.exec.virtual_us,
                        canonicalize_approx(&report.rows),
                        Box::new(report) as Box<dyn std::any::Any>,
                    )
                })
            }
        };
        match result {
            Ok((timeline_us, rows, report)) => {
                out.timeline_s = timeline_us as f64 / 1e6;
                out.error = check_rows(&rows, &pair.expected);
                teardown(tracer, (report, rows, sources));
            }
            Err(e) => out.error = Some(format!("engine error: {e}")),
        }
        out
    }

    fn expected_mut(&mut self) -> Vec<&mut Vec<String>> {
        self.pairs.iter_mut().map(|p| &mut p.expected).collect()
    }
}

// ------------------------------------------------------------- mirror-fleet

#[derive(Debug, Clone, Copy)]
enum Mirror {
    FastFlaky,
    Steady,
    RemoteBackup,
}

/// Registration order: the mediator meets the flaky mirror first.
const MIRRORS: [Mirror; 3] = [Mirror::FastFlaky, Mirror::Steady, Mirror::RemoteBackup];

/// A mirror of table `t`. The flaky mirror's burst pattern is seeded from
/// the workload seed and the relation.
fn mirror(d: &Dataset, t: TableId, kind: Mirror, seed: u64) -> Box<dyn Source> {
    let (suffix, model) = match kind {
        Mirror::FastFlaky => (
            "flaky",
            DelayModel::Wireless {
                bytes_per_sec: LINK_BPS * 4.0,
                burst_ms: 30.0,
                gap_ms: 300.0,
                seed: seed ^ (t.rel_id() as u64) << 8,
            },
        ),
        Mirror::Steady => (
            "steady",
            DelayModel::Bandwidth {
                bytes_per_sec: LINK_BPS * 0.5,
                initial_latency_us: 2_000,
            },
        ),
        Mirror::RemoteBackup => (
            "remote",
            DelayModel::Bandwidth {
                bytes_per_sec: LINK_BPS * 0.1,
                initial_latency_us: 50_000,
            },
        ),
    };
    Box::new(DelayedSource::new(
        t.rel_id(),
        format!("{}-{suffix}", t.name()),
        Dataset::schema(t),
        d.table(t).to_vec(),
        &model,
    ))
}

struct FleetShape {
    name: &'static str,
    query: LogicalQuery,
    expected: Vec<String>,
    base_tuples: u64,
}

/// One persistent `Server` in virtual mode, one query per call, cycling
/// Q3A, Q10 and Q10A; every relation has three mirror candidates.
pub struct MirrorFleet {
    data: Arc<Dataset>,
    shapes: Vec<FleetShape>,
    seed: u64,
    nproc: usize,
    /// The persistent server, built for the tracing state it was made
    /// under (a server's journal switch is fixed at construction).
    server: Option<(bool, Server)>,
}

impl MirrorFleet {
    fn setup(p: Params) -> Result<(MirrorFleet, f64, f64), String> {
        let sf = p.sf(0.01);
        let t0 = Instant::now();
        let data = Arc::new(generate(sf, None, p.seed));
        let generate_s = t0.elapsed().as_secs_f64();
        let mut shapes = Vec::new();
        let mut plan_s = 0.0;
        for w in [WorkloadQuery::Q3A, WorkloadQuery::Q10, WorkloadQuery::Q10A] {
            let query = w.query();
            plan_s +=
                time_plan(|| Optimizer::new(OptimizerContext::no_statistics()).optimize(&query))?;
            let expected = expected_answer(&data, &query)?;
            if w == WorkloadQuery::Q3A {
                check_golden(&p, sf, 0.01, "answers-mirrors.txt", &expected)?;
            }
            shapes.push(FleetShape {
                name: w.name(),
                base_tuples: base_tuples(&data, &query),
                query,
                expected,
            });
        }
        let mut fleet = MirrorFleet {
            data,
            shapes,
            seed: p.seed,
            nproc: p.nproc,
            server: None,
        };
        fleet.server_for(false);
        let n = fleet.shapes.len() as f64;
        Ok((fleet, generate_s, plan_s / n))
    }

    fn server_for(&mut self, traced: bool) -> &Server {
        if !matches!(self.server, Some((t, _)) if t == traced) {
            self.server = Some((
                traced,
                Server::new(ServerConfig {
                    federation: FederationConfig::default(),
                    ctx: OptimizerContext::no_statistics(),
                    batch_size: BATCH,
                    cores: Some(self.nproc),
                    trace: traced,
                    ..ServerConfig::default()
                }),
            ));
        }
        &self.server.as_ref().expect("server just built").1
    }
}

impl Workload for MirrorFleet {
    fn round_len(&self) -> usize {
        self.shapes.len()
    }

    fn run(&mut self, i: usize, qid: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let shape = &self.shapes[i % self.shapes.len()];
        let (data, seed, probe) = (self.data.clone(), self.seed, tracer.cloned());
        let tables = queries::tables_of(&shape.query);
        let spec = QuerySpec::new(shape.name, shape.query.clone(), move |fed| {
            let mut catalog = FederatedCatalog::new(fed);
            for &t in &tables {
                for kind in MIRRORS {
                    catalog.register(
                        t.key_cols(),
                        maybe_wrap(mirror(&data, t, kind, seed), SOURCE_POLL, probe.as_ref()),
                    )?;
                }
            }
            Ok(catalog)
        });
        let mut out = Outcome {
            base_tuples: shape.base_tuples,
            ..Default::default()
        };
        let expected = shape.expected.clone();
        let server = self.server_for(tracer.is_some());
        let (r, wall, cpu) = engine_call(tracer, "serve.call", qid, || {
            server.serve(&[vec![spec]], ServeMode::Virtual)
        });
        (out.latency_s, out.call_cpu_s) = (wall, cpu);
        match r {
            Ok(fleet) => {
                let o = &fleet.outcomes[0];
                let s = &o.summary;
                let counter = |name: &str| s.counters.get(name).copied().unwrap_or(0) as f64;
                out.timeline_s = o.latency_us as f64 / 1e6;
                out.error = check_rows(&o.rows, &expected);
                out.layers.extend([
                    ("exec.tuples_out", o.rows.len() as f64),
                    ("federation.delivered", counter("tuples")),
                    ("federation.duplicates", counter("dedup_hits")),
                    ("federation.stalls", counter("stalls")),
                    (
                        "federation.failovers",
                        (s.hedges_fired + s.sweep_activations) as f64,
                    ),
                    ("federation.declined_hedges", s.hedges_declined as f64),
                    (
                        "serve.wasted_race_tuples",
                        fleet.wasted_race_tuples() as f64,
                    ),
                    ("serve.hedges_fired", s.hedges_fired as f64),
                    ("serve.hedges_declined", s.hedges_declined as f64),
                ]);
                teardown(tracer, fleet);
            }
            Err(e) => out.error = Some(format!("engine error: {e}")),
        }
        out
    }

    fn expected_mut(&mut self) -> Vec<&mut Vec<String>> {
        self.shapes.iter_mut().map(|s| &mut s.expected).collect()
    }
}

// ------------------------------------------------------ threaded-corrective

/// Q3A with CUSTOMER behind two slow mirrors raced on producer threads,
/// every other relation local; corrective execution over aggressively
/// fragmented plans on an accelerated wall clock, with a forced switch.
pub struct ThreadedCorrective {
    data: Dataset,
    query: LogicalQuery,
    expected: Vec<String>,
    base_tuples: u64,
    nproc: usize,
}

fn forced_order() -> Vec<u32> {
    vec![
        TableId::Orders.rel_id(),
        TableId::Lineitem.rel_id(),
        TableId::Customer.rel_id(),
    ]
}

impl ThreadedCorrective {
    fn setup(p: Params) -> Result<(ThreadedCorrective, f64, f64), String> {
        let sf = p.sf(0.04);
        let t0 = Instant::now();
        let data = generate(sf, None, p.seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let query = WorkloadQuery::Q3A.query();
        let plan_s = time_plan(|| {
            Optimizer::new(OptimizerContext::no_statistics())
                .plan_with_order(&query, &forced_order())
        })?;
        let expected = expected_answer(&data, &query)?;
        check_golden(&p, sf, 0.04, "answers-corrective.txt", &expected)?;
        Ok((
            ThreadedCorrective {
                base_tuples: base_tuples(&data, &query),
                data,
                query,
                expected,
                nproc: p.nproc,
            },
            generate_s,
            plan_s,
        ))
    }

    fn sources(
        &self,
        clock: Arc<dyn Clock>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Vec<Box<dyn Source>>, String> {
        let customer = TableId::Customer;
        let mut catalog = FederatedCatalog::new(FederationConfig::default());
        for (i, share) in [0.2, 0.16].into_iter().enumerate() {
            let mirror = DelayedSource::new(
                customer.rel_id(),
                format!("customer-slow{i}"),
                Dataset::schema(customer),
                self.data.table(customer).to_vec(),
                &DelayModel::Bandwidth {
                    bytes_per_sec: LINK_BPS * share,
                    initial_latency_us: 2_000,
                },
            );
            catalog
                .register(
                    customer.key_cols(),
                    maybe_wrap(Box::new(mirror), SOURCE_POLL, tracer),
                )
                .map_err(|e| e.to_string())?;
        }
        let mut sources: Vec<Box<dyn Source>> = catalog
            .into_concurrent_sources(clock)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(|s| maybe_wrap(s, FEDERATION_POLL, tracer))
            .collect();
        for t in queries::tables_of(&self.query) {
            if t != customer {
                sources.push(maybe_wrap(mem_source(&self.data, t), SOURCE_POLL, tracer));
            }
        }
        Ok(sources)
    }

    fn config(&self, clock: Arc<dyn Clock>) -> CorrectiveConfig {
        CorrectiveConfig {
            batch_size: BATCH,
            cpu: CpuCostModel::Measured,
            poll_every_batches: 3,
            // Far above any real ratio: the switch is forced.
            switch_threshold: 100.0,
            max_phases: 3,
            warmup_batches: 2,
            initial_order: Some(forced_order()),
            min_remaining_fraction: 0.0,
            clock: Some(clock),
            fragments: Some(FragmentationConfig {
                cores: Some(self.nproc),
                ..FragmentationConfig::aggressive()
            }),
            threaded_fragments: Some(true),
            fragment_options: FragmentOptions {
                queue_capacity: 16,
                poll_tick_us: 10_000,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

impl Workload for ThreadedCorrective {
    fn round_len(&self) -> usize {
        1
    }

    fn run(&mut self, _i: usize, qid: u64, tracer: Option<&Arc<Tracer>>) -> Outcome {
        let mut out = Outcome {
            base_tuples: self.base_tuples,
            ..Default::default()
        };
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(ACCEL));
        let mut sources = match self.sources(clock.clone(), tracer) {
            Ok(s) => s,
            Err(e) => {
                out.error = Some(format!("sources: {e}"));
                return out;
            }
        };
        let exec = CorrectiveExec::new(self.query.clone(), self.config(clock));
        let (r, wall, cpu) = engine_call(tracer, "core.corrective_run", qid, || {
            exec.run(&mut sources)
        });
        (out.latency_s, out.call_cpu_s) = (wall, cpu);
        let report = match r {
            Ok(report) => report,
            Err(e) => {
                out.error = Some(format!("engine error: {e}"));
                return out;
            }
        };
        let rows = canonicalize_approx(&report.rows);
        let max_fragments = report.phases.iter().map(|p| p.fragments).max().unwrap_or(1);
        out.timeline_s = report.exec.virtual_us as f64 / 1e6;
        out.error = check_rows(&rows, &self.expected)
            .or_else(|| {
                (report.phase_count() < 2).then(|| "the forced switch did not happen".into())
            })
            .or_else(|| (max_fragments < 2).then(|| "no producer fragment ran".into()));
        out.layers.extend(exec_layers(&report.exec, ACCEL));
        out.layers.extend(corrective_layers(&report, ACCEL));
        let fed = sources
            .iter()
            .find_map(|s| s.as_any()?.downcast_ref::<ConcurrentFederatedSource>())
            .map(|f| f.report());
        if let Some(f) = fed {
            let cands = &f.candidates;
            out.layers.extend([
                ("federation.delivered", f.delivered as f64),
                (
                    "federation.duplicates",
                    cands.iter().map(|c| c.duplicates).sum::<u64>() as f64,
                ),
                ("federation.failovers", f.failovers as f64),
                ("federation.declined_hedges", f.declined_hedges as f64),
                (
                    "federation.stalls",
                    cands.iter().map(|c| c.stalls).sum::<u64>() as f64,
                ),
                (
                    "federation.blocked_sends",
                    cands.iter().map(|c| c.blocked_sends).sum::<u64>() as f64,
                ),
            ]);
        }
        teardown(tracer, (report, rows, sources));
        out
    }

    fn expected_mut(&mut self) -> Vec<&mut Vec<String>> {
        vec![&mut self.expected]
    }
}
