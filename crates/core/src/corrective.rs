//! Corrective query processing (paper §4): execute, monitor, re-optimize,
//! switch plans in mid-pipeline, stitch up at the end.
//!
//! [`CorrectiveExec::run`] is one control loop. Each phase lowers the
//! current plan — fragmented at exchange boundaries when
//! [`CorrectiveConfig::fragments`] is set — and executes it as a
//! [`FragmentRun`] in one of two modes:
//!
//! * **Inline** (every virtual-clock run, and every unfragmented one):
//!   zero producer threads. All fragments run on the controller's thread
//!   with immediate exchange handoff, so a switch can seal at any batch
//!   boundary; every source stays in the caller's slice.
//! * **Threaded** (wall clock + fragmentation configured): each phase
//!   plan's producer fragments run on their own threads behind bounded
//!   exchange queues, so a CPU-heavy subtree genuinely overlaps
//!   delivery-bound scans *while the monitor keeps re-optimizing*. A
//!   switch then uses the loss-free **quiesce protocol**: producers park
//!   at a batch boundary and report their high-water marks, the seal
//!   drains every exchange's in-flight tuples into the old plan, seals
//!   all fragments, and returns the lent sources — no tuple is ever
//!   dropped or duplicated, and no thread outlives the run.
//!
//! The loop is the same either way: sweep the root's sources and exchange
//! streams, monitor on a batch cadence (root sources observed in slot
//! order, then producer high-water marks), calibrate `unit_us` during
//! the warmup phase, quiesce + seal + restart on a switch, stitch up at
//! the end. Inline is simply the mode with no producers to park.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use tukwila_exec::agg::SharedGroupTable;
use tukwila_exec::driver::charged_cost;
use tukwila_exec::plan::NodeObservation;
use tukwila_exec::{
    Batch, CpuCostModel, ExchangePoll, ExecReport, FragmentOptions, FragmentRun, Timeline,
};
use tukwila_optimizer::{
    FragmentationConfig, LogicalQuery, Optimizer, OptimizerContext, PhysPlan, PreAggConfig,
};
use tukwila_relation::{Error, Expr, Result, Schema, Tuple};
use tukwila_source::Source;
use tukwila_stats::selectivity::SourceProgress;
use tukwila_stats::trace::SpanKind;
use tukwila_stats::{Clock, DeliveryCosts, SelectivityCatalog, TraceEvent, TraceSink};
use tukwila_storage::registry::ReuseStats;
use tukwila_storage::StateRegistry;

use crate::lowering::{apply_post_project, lower_fragmented};
use crate::stitchup::{StitchUp, StitchUpStats};

/// Configuration of the corrective executor.
#[derive(Debug, Clone)]
pub struct CorrectiveConfig {
    pub batch_size: usize,
    pub cpu: CpuCostModel,
    /// Re-optimizer polling interval in source batches. The paper polls
    /// every second at SF 0.1; we scale the interval by data volume.
    pub poll_every_batches: u64,
    /// Switch when `candidate cost < threshold × current remaining cost`.
    pub switch_threshold: f64,
    /// Upper bound on phases (the paper's executions settle at 2–4).
    pub max_phases: usize,
    /// Don't consider switching before this many batches (warm-up: early
    /// selectivities are noise).
    pub warmup_batches: u64,
    /// Pre-aggregation policy passed through to the optimizer.
    pub preagg: PreAggConfig,
    /// Source cardinalities given to the optimizer up front ("Given
    /// cardinalities" mode); `None` reproduces the paper's "No statistics"
    /// mode (every relation defaults to 20 000 tuples).
    pub given_cards: Option<HashMap<u32, u64>>,
    /// Force the phase-0 plan to a left-deep join in this relation order
    /// (experiments that study recovery from a specific bad plan).
    pub initial_order: Option<Vec<u32>>,
    /// Only switch while the current plan's estimated *remaining* work
    /// exceeds this fraction of its estimated total — switching near the
    /// end buys little and inflates stitch-up (the paper's executions
    /// "switch only a few times").
    pub min_remaining_fraction: f64,
    /// Stitch-up reuses registered intermediates (§3.4.2). `false` only in
    /// the reuse ablation.
    pub stitch_reuse: bool,
    /// `Some` drives the execution off this shared clock instead of the
    /// virtual accumulator — the wall-clock mode of the dual-clock
    /// design. Every source of the run (notably threaded federated
    /// sources) must share the same instance; idling really waits on it.
    pub clock: Option<Arc<dyn Clock>>,
    /// `Some` fragments every phase plan at exchange boundaries chosen by
    /// the optimizer's fragmentation pass (re-evaluated at each switch
    /// with the live catalog, so cuts follow observed delivery rates).
    /// Under the virtual clock fragments execute inline in the
    /// corrective loop; under a wall clock the producer fragments run on
    /// real threads (see [`CorrectiveConfig::threaded_fragments`]), and a
    /// mid-stream switch quiesces them loss-free. `None` (default)
    /// preserves the unfragmented behavior.
    pub fragments: Option<FragmentationConfig>,
    /// Whether fragmented phase plans run their producer fragments on
    /// real threads. `None` (default) decides automatically: threaded
    /// when [`CorrectiveConfig::clock`] is a wall clock and
    /// [`CorrectiveConfig::fragments`] is configured, inline otherwise.
    /// `Some(false)` forces inline fragment execution even on a wall
    /// clock (baseline comparisons); `Some(true)` requires the
    /// wall clock + fragments and errors without them.
    pub threaded_fragments: Option<bool>,
    /// Exchange-queue and quiesce knobs for threaded fragment execution.
    pub fragment_options: FragmentOptions,
    /// Adaptivity trace journal: phase spans, monitor decisions with
    /// recost provenance, calibrations, and (threaded mode) the quiesce
    /// protocol's sub-spans. Also handed to the fragment layer unless
    /// [`CorrectiveConfig::fragment_options`] carries its own sink.
    /// Disabled (free) by default.
    pub trace: TraceSink,
}

impl Default for CorrectiveConfig {
    fn default() -> Self {
        CorrectiveConfig {
            batch_size: 1024,
            cpu: CpuCostModel::Measured,
            poll_every_batches: 8,
            switch_threshold: 0.6,
            max_phases: 8,
            warmup_batches: 4,
            preagg: PreAggConfig::Off,
            given_cards: None,
            initial_order: None,
            min_remaining_fraction: 0.3,
            stitch_reuse: true,
            clock: None,
            fragments: None,
            threaded_fragments: None,
            fragment_options: FragmentOptions::default(),
            trace: TraceSink::disabled(),
        }
    }
}

impl CorrectiveConfig {
    /// Run this query under a granted slice of a shared core budget: pins
    /// the fragmentation pass to plan at most `cores` pipeline fragments
    /// (instead of sizing to `available_parallelism`, which a multi-query
    /// server would over-subscribe N times) and charges the producer
    /// threads against `lease` so the arbiter's fleet accounting sees
    /// them. Enables fragmentation with [`FragmentationConfig::default`]
    /// when the config had none; an existing fragmentation config keeps
    /// its other knobs and only has `cores` overridden.
    pub fn with_core_grant(mut self, lease: tukwila_stats::QueryLease, cores: usize) -> Self {
        let mut frag = self.fragments.take().unwrap_or_default();
        frag.cores = Some(cores.max(1));
        self.fragments = Some(frag);
        self.fragment_options.lease = Some(lease);
        self
    }
}

/// Per-phase record for reporting (Table 1/2).
#[derive(Debug, Clone)]
pub struct PhaseInfo {
    pub plan: String,
    pub batches: u64,
    /// Tuples of each source consumed during this phase.
    pub consumed: HashMap<u32, u64>,
    /// Pipeline fragments the phase plan was split into (1 =
    /// unfragmented).
    pub fragments: usize,
}

/// Outcome of a corrective execution.
pub struct CorrectiveReport {
    pub phases: Vec<PhaseInfo>,
    pub exec: ExecReport,
    /// Virtual time spent in the stitch-up phase.
    pub stitch_us: u64,
    pub stitch: StitchUpStats,
    pub reuse: ReuseStats,
    pub rows: Vec<Tuple>,
    /// The `CostModel::unit_us` calibration measured from the warmup
    /// phase's driver CPU (`None` when the run never calibrated — e.g.
    /// non-`Measured` cost models, or no monitor poll before completion).
    pub calibrated_unit_us: Option<f64>,
}

impl CorrectiveReport {
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }
}

/// Calibrate the cost-unit→µs conversion: measured driver CPU so far over
/// the estimated CPU units the running plan has consumed (total minus
/// remaining, both in cost units). Returns `None` while either side is
/// too small to trust; the result is clamped to a sane band so a wild
/// early estimate cannot poison overlap credit and cut pricing.
fn calibrate_unit_us(measured_cpu_us: f64, total_units: f64, remaining_units: f64) -> Option<f64> {
    let consumed_units = total_units - remaining_units;
    if measured_cpu_us <= 0.0 || consumed_units < 1.0 {
        return None;
    }
    Some((measured_cpu_us / consumed_units).clamp(1e-3, 10.0))
}

/// Resync `timeline` and read it: the instant trace events are stamped
/// with.
fn stamp(timeline: &mut Timeline) -> u64 {
    timeline.resync();
    timeline.now_us()
}

/// How a phase ended.
enum PhaseEnd {
    /// Every input ran dry; the query is done.
    Completed,
    /// The monitor decided to switch to this candidate and every producer
    /// (if any) quiesced in time.
    Switched(Box<PhysPlan>),
}

/// Exchange-queue statistics aggregated across a run's phases.
#[derive(Debug, Default)]
struct ExchangeTotals {
    /// High-water mark of queue depth (batches) in any one exchange.
    max_queue_depth: u64,
    /// Blocked sends summed per exchange id across phases.
    blocked: HashMap<u32, u64>,
}

impl ExchangeTotals {
    fn absorb(&mut self, max_queue_depth: u64, blocked_by_exchange: &[(u32, u64)]) {
        self.max_queue_depth = self.max_queue_depth.max(max_queue_depth);
        for (id, n) in blocked_by_exchange {
            *self.blocked.entry(*id).or_insert(0) += n;
        }
    }

    fn blocked_by_exchange(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<(u32, u64)> = self.blocked.iter().map(|(id, n)| (*id, *n)).collect();
        v.sort_by_key(|(id, _)| *id);
        v
    }
}

/// The run-wide state the control loop hands to the stitch-up/finalize
/// tail.
struct RunTotals {
    timeline: Timeline,
    answers: Batch,
    phases: Vec<PhaseInfo>,
    total_batches: u64,
    /// CPU charged by producer fragment threads — added to the report's
    /// `cpu_us` next to the controller timeline's.
    extra_cpu_us: u64,
    calibrated_unit_us: Option<f64>,
    exchange_stats: ExchangeTotals,
}

/// The corrective query processing executor.
pub struct CorrectiveExec {
    pub q: LogicalQuery,
    pub config: CorrectiveConfig,
}

impl CorrectiveExec {
    pub fn new(q: LogicalQuery, config: CorrectiveConfig) -> CorrectiveExec {
        CorrectiveExec { q, config }
    }

    fn make_ctx(
        &self,
        catalog: &Arc<SelectivityCatalog>,
        consumed: &HashMap<u32, u64>,
        calibrated_unit_us: Option<f64>,
    ) -> OptimizerContext {
        let mut ctx = match &self.config.given_cards {
            Some(cards) => OptimizerContext::with_cards(cards.clone()),
            None => OptimizerContext::no_statistics(),
        };
        ctx.catalog = Some(catalog.clone());
        ctx.consumed = consumed.clone();
        ctx.preagg = self.config.preagg;
        if let Some(unit_us) = calibrated_unit_us {
            // Warmup-calibrated cost-unit→µs conversion: overlap credit
            // and fragment cut pricing now speak this host's actual
            // per-unit driver time instead of the documented 0.1 default.
            ctx.cost_model.unit_us = unit_us;
        }
        ctx
    }

    /// Signatures materialized so far: every node of the running plan plus
    /// everything registered by earlier phases — the §4.3 sunk-cost set.
    fn sunk_sigs(current: &PhysPlan, registry: &StateRegistry) -> Vec<tukwila_storage::ExprSig> {
        fn walk(node: &tukwila_optimizer::PhysNode, out: &mut Vec<tukwila_storage::ExprSig>) {
            out.push(node.sig.clone());
            if let tukwila_optimizer::PhysKind::Join { left, right, .. } = &node.kind {
                walk(left, out);
                walk(right, out);
            }
            if let tukwila_optimizer::PhysKind::PreAgg { child, .. } = &node.kind {
                walk(child, out);
            }
        }
        let mut sigs = Vec::new();
        walk(&current.root, &mut sigs);
        for e in registry.entries() {
            sigs.push(e.sig.clone());
        }
        sigs.sort_unstable();
        sigs.dedup();
        sigs
    }

    /// Whether this configuration runs phase plans threaded (producer
    /// fragments on their own threads) rather than inline.
    fn wants_threaded(&self) -> bool {
        match self.config.threaded_fragments {
            Some(t) => t,
            None => {
                self.config.fragments.is_some()
                    && self.config.clock.as_ref().is_some_and(|c| c.is_wall())
            }
        }
    }

    /// The wall clock producer fragments run on when this configuration
    /// runs threaded; `None` runs inline.
    fn producer_clock(&self) -> Result<Option<Arc<dyn Clock>>> {
        let cfg = &self.config;
        if !self.wants_threaded() {
            return Ok(None);
        }
        if !cfg.clock.as_ref().is_some_and(|c| c.is_wall()) {
            return Err(Error::Plan(
                "threaded corrective execution needs a wall clock (CorrectiveConfig::clock)".into(),
            ));
        }
        if cfg.fragments.is_none() {
            return Err(Error::Plan(
                "threaded corrective execution needs a fragmentation config \
                 (CorrectiveConfig::fragments)"
                    .into(),
            ));
        }
        Ok(cfg.clock.clone())
    }

    /// Run to completion over the given sources.
    ///
    /// One control loop serves both run modes: each phase lowers the
    /// current plan (fragmented at the cuts the optimizer's fragmentation
    /// pass chooses from the live catalog, when fragments are enabled),
    /// starts a [`FragmentRun`] — threaded when a wall clock and fragments
    /// are configured (or [`CorrectiveConfig::threaded_fragments`] asks),
    /// inline otherwise — and polls the root fragment's
    /// sources and exchange streams while the monitor re-optimizes. A
    /// switch quiesces, seals, and starts the next phase's run over the
    /// same sources. A source that returned `Eof` is never polled again:
    /// its port in a later plan closes at switch time.
    ///
    /// Inline runs never take a source out of `sources`, so the slice
    /// holds the caller's sources on every path, `Err` included. Threaded
    /// runs lend producer-bound sources to their threads and put them
    /// back at every seal.
    pub fn run(&self, sources: &mut [Box<dyn Source>]) -> Result<CorrectiveReport> {
        let cfg = &self.config;
        let threads = self.producer_clock()?;
        let catalog = Arc::new(SelectivityCatalog::new());
        let registry = StateRegistry::new();
        let mut consumed_total: HashMap<u32, u64> = HashMap::new();
        let mut consumed_phase: HashMap<u32, u64> = HashMap::new();
        let mut calibrated: Option<f64> = None;
        // Live fragmentation config (exchange prices recalibrate when the
        // warmup calibration lands), plus the deferred source repricing:
        // producer-bound sources can only adopt new delivery costs at the
        // next phase start, when they are back in `sources`.
        let mut frag_cfg = cfg.fragments.clone();
        let mut pending_recal: Option<DeliveryCosts> = None;

        // Phase 0 plan.
        let optimizer = Optimizer::new(self.make_ctx(&catalog, &consumed_total, calibrated));
        let mut current_phys: PhysPlan = match &cfg.initial_order {
            Some(order) => optimizer.plan_with_order(&self.q, order)?,
            None => optimizer.optimize(&self.q)?,
        };

        let mut shared_table: Option<Arc<SharedGroupTable>> = None;
        let mut post_project: Option<(Vec<Expr>, Schema)> = None;
        let mut phases: Vec<PhaseInfo> = Vec::new();
        let mut phase_batches: u64 = 0;
        // `total_batches` counts only the controller's own polls (it is
        // the monitor's cadence counter); producer batches accumulate
        // separately and join it for the final report.
        let mut total_batches: u64 = 0;
        let mut producer_batches_total: u64 = 0;
        let mut next_poll_at: u64 = cfg.warmup_batches.max(cfg.poll_every_batches);
        let mut phase = 0usize;
        let mut answers: Batch = Vec::new();
        // The shared clock-mode accounting (virtual accumulator or wall
        // clock) lives in exec::Timeline so this loop and SimDriver
        // cannot drift apart on clock semantics.
        let mut timeline = Timeline::new(cfg.clock.clone());
        let mut extra_cpu_us: u64 = 0;
        let mut exchange_stats = ExchangeTotals::default();
        // Per caller slot: the source returned `Eof`.
        let mut eof = vec![false; sources.len()];
        let trace = cfg.trace.clone();
        // The fragment layer (producer spans, exchange counters, the park
        // sub-span) journals into the corrective sink unless the caller
        // configured a dedicated one on the fragment options.
        let mut fopts = cfg.fragment_options.clone();
        if !fopts.trace.is_enabled() {
            fopts.trace = trace.clone();
        }
        trace.record_at(stamp(&mut timeline), SpanKind::Query.begin("corrective"));
        // Whether a quiesce span is open across the seal/restart of a plan
        // switch (it closes once the next phase's run has started).
        let mut quiesce_open = false;

        'phases: loop {
            // Sources recovered from the previous phase adopt the
            // recalibrated delivery prices before the new phase binds
            // them to producer threads.
            if let Some(costs) = pending_recal.take() {
                for src in sources.iter_mut() {
                    src.recalibrate_delivery_costs(&costs);
                }
            }
            let cuts = match &frag_cfg {
                Some(fcfg) => tukwila_optimizer::choose_cuts_traced(
                    &current_phys,
                    &self.make_ctx(&catalog, &consumed_total, calibrated),
                    fcfg,
                    &cfg.trace,
                ),
                None => Vec::new(),
            };
            let fl = lower_fragmented(&current_phys, &cuts, shared_table.clone(), false)?;
            if phase == 0 {
                shared_table = fl.table.clone();
                post_project = fl.post_project.clone();
            }
            let phase_fragments = fl.plan.fragment_count();
            let join_nodes = fl.join_nodes;
            if quiesce_open {
                trace.record_at(stamp(&mut timeline), SpanKind::Respawn.begin("respawn"));
            }
            let mut run = match &threads {
                Some(clock) => FragmentRun::spawn(
                    fl.plan,
                    sources,
                    clock.clone(),
                    cfg.batch_size,
                    cfg.cpu,
                    &fopts,
                )?,
                None => FragmentRun::inline(fl.plan, sources)?,
            };
            if quiesce_open {
                let now = stamp(&mut timeline);
                trace.record_at(now, SpanKind::Respawn.end("respawn"));
                trace.record_at(now, SpanKind::Quiesce.end("switch"));
                quiesce_open = false;
            }
            trace.record_at(
                stamp(&mut timeline),
                SpanKind::Phase.begin(format!("phase-{phase}")),
            );
            let root_slots = run.root_slots().to_vec();
            // Sources recovered from a sealed previous phase arrive with
            // their delivery accounting still paused. Producer threads
            // resume their own; resume the ones this controller polls (a
            // no-op for fresh sources).
            let now = stamp(&mut timeline);
            for &slot in &root_slots {
                sources[slot].resume_delivery(now);
            }
            // Baselines for folding producer high-water marks into the
            // cross-phase consumed totals.
            let producer_base: HashMap<u32, u64> = run
                .quiesce_handles()
                .flat_map(|h| h.high_water_marks().iter())
                .map(|p| {
                    (
                        p.rel_id(),
                        consumed_total.get(&p.rel_id()).copied().unwrap_or(0),
                    )
                })
                .collect();
            let phase_base: HashMap<u32, u64> = producer_base
                .keys()
                .map(|rel| (*rel, consumed_phase.get(rel).copied().unwrap_or(0)))
                .collect();
            // The inputs this controller polls: the root's sources, then
            // its exchange streams. Sources that already returned `Eof`
            // close their ports in the new plan instead of being polled.
            let mut done: Vec<bool> = root_slots.iter().map(|&slot| eof[slot]).collect();
            let (target, exchanges) = run.root_split();
            for &slot in root_slots.iter().filter(|&&slot| eof[slot]) {
                target.finish_source(sources[slot].rel_id(), &mut answers)?;
            }
            done.resize(root_slots.len() + exchanges.len(), false);

            let end: PhaseEnd = loop {
                timeline.resync();
                let mut any_ready = false;
                let mut next_ready: Option<u64> = None;
                let mut all_done = true;
                let (target, exchanges) = run.root_split();
                for (i, input_done) in done.iter_mut().enumerate() {
                    if *input_done {
                        continue;
                    }
                    all_done = false;
                    let now = timeline.now_us();
                    let slot = root_slots.get(i).copied();
                    let (rel, polled) = match slot {
                        Some(slot) => {
                            let src = &mut sources[slot];
                            (src.rel_id(), src.poll(now, cfg.batch_size).into())
                        }
                        None => {
                            // Columnar producer batches feed the
                            // vectorized operator entry directly.
                            let ex = &mut exchanges[i - root_slots.len()];
                            (ex.rel_id(), ex.poll_data(now, cfg.batch_size))
                        }
                    };
                    match polled {
                        ExchangePoll::Ready(batch) => {
                            any_ready = true;
                            total_batches += 1;
                            phase_batches += 1;
                            if slot.is_some() {
                                *consumed_total.entry(rel).or_insert(0) += batch.len() as u64;
                                *consumed_phase.entry(rel).or_insert(0) += batch.len() as u64;
                            }
                            let cost = charged_cost(cfg.cpu, &timeline, batch.len(), || {
                                target.push_data(rel, &batch, &mut answers)
                            })?;
                            timeline.charge(cost);
                        }
                        ExchangePoll::Pending { next_ready_us } => {
                            next_ready = Some(match next_ready {
                                Some(n) => n.min(next_ready_us),
                                None => next_ready_us,
                            });
                        }
                        ExchangePoll::Eof => {
                            *input_done = true;
                            if let Some(slot) = slot {
                                eof[slot] = true;
                                catalog.observe_source(
                                    rel,
                                    SourceProgress {
                                        tuples_read: consumed_total.get(&rel).copied().unwrap_or(0),
                                        fraction_read: Some(1.0),
                                        eof: true,
                                    },
                                );
                            }
                            let cost = charged_cost(cfg.cpu, &timeline, 0, || {
                                target.finish_source(rel, &mut answers)
                            })?;
                            timeline.charge(cost);
                        }
                    }
                }
                if all_done {
                    break PhaseEnd::Completed;
                }
                if !any_ready {
                    if let Some(n) = next_ready {
                        timeline.idle_toward(n);
                    }
                    continue;
                }

                // Monitor: poll the re-optimizer on schedule. (The batch
                // counter advances by up-to-#inputs per sweep, so the
                // schedule is a moving threshold, not a divisibility
                // test.)
                if total_batches >= next_poll_at && phase + 1 < cfg.max_phases {
                    next_poll_at = total_batches + cfg.poll_every_batches;
                    Self::refresh_producer_counts(
                        &run,
                        &producer_base,
                        &phase_base,
                        &mut consumed_total,
                        &mut consumed_phase,
                    );
                    for &slot in &root_slots {
                        let src = &sources[slot];
                        let p = src.progress();
                        catalog.observe_source(
                            src.rel_id(),
                            SourceProgress {
                                tuples_read: consumed_total
                                    .get(&src.rel_id())
                                    .copied()
                                    .unwrap_or(0),
                                fraction_read: p.fraction_read,
                                eof: p.eof,
                            },
                        );
                        // Self-profiling sources (the federation adapter)
                        // also publish their observed arrival schedule,
                        // so re-optimization prices plans with the shared
                        // DeliveryModel over observed — not assumed —
                        // source behavior. Plain sources fall back to the
                        // uniform schedule derived from their observed
                        // rate.
                        if let Some(schedule) = src.observed_schedule() {
                            catalog.observe_source_schedule(src.rel_id(), schedule);
                        }
                    }
                    // Relations producer threads poll: their published
                    // high-water marks.
                    for progress in run.quiesce_handles().flat_map(|h| h.high_water_marks()) {
                        catalog.observe_source(
                            progress.rel_id(),
                            SourceProgress {
                                tuples_read: consumed_total
                                    .get(&progress.rel_id())
                                    .copied()
                                    .unwrap_or(0),
                                fraction_read: progress.fraction_read(),
                                eof: progress.eof(),
                            },
                        );
                        if let Some(schedule) = progress.schedule() {
                            catalog.observe_source_schedule(progress.rel_id(), schedule);
                        }
                    }
                    Self::publish_plan_observations(
                        &catalog,
                        &run.observations(),
                        &join_nodes,
                        &consumed_phase,
                    );
                    // Whole-run measured CPU: the controller's timeline
                    // plus the live producer-thread counters (plus prior
                    // phases' producer CPU already folded into
                    // extra_cpu_us) — same coverage as the cost-unit
                    // denominator of the warmup calibration.
                    let measured_cpu_us =
                        timeline.cpu_us() + (extra_cpu_us + run.producer_cpu_us()) as f64;
                    let was_uncalibrated = calibrated.is_none();
                    let candidate = self.consider_switch(
                        &catalog,
                        &consumed_total,
                        &mut calibrated,
                        &current_phys,
                        &registry,
                        &mut timeline,
                        phase,
                        measured_cpu_us,
                    )?;
                    if was_uncalibrated {
                        if let Some(unit) = calibrated {
                            // Calibration landed: re-derive the delivery
                            // unit prices from the measured kernels and
                            // push them into every pricing surface — the
                            // controller's own sources now (lent slots
                            // ignore it), producer-bound sources at the
                            // next phase start, and the fragment
                            // optimizer's exchange tax for every later
                            // phase's cuts.
                            let costs = DeliveryCosts::from_unit_us(unit);
                            for src in sources.iter_mut() {
                                src.recalibrate_delivery_costs(&costs);
                            }
                            if let Some(fc) = frag_cfg.as_mut() {
                                fc.recalibrate(unit);
                            }
                            pending_recal = Some(costs);
                        }
                    }
                    if let Some(candidate) = candidate {
                        // Pause delivery accounting on the controller's
                        // own sources: the quiesce + seal + restart
                        // window stops polling them exactly like the
                        // producers' sources, and a federated mirror
                        // must not read that silence as a stall or its
                        // queue backpressure as consumer saturation.
                        for &slot in &root_slots {
                            sources[slot].quiesce_delivery();
                        }
                        // Quiesce: every producer parks at a batch
                        // boundary. If one cannot (wedged source), resume
                        // and abandon this switch — correctness over
                        // adaptivity.
                        trace.record_at(stamp(&mut timeline), SpanKind::Quiesce.begin("switch"));
                        if run.quiesce() {
                            quiesce_open = true;
                            break PhaseEnd::Switched(Box::new(candidate));
                        }
                        let now = stamp(&mut timeline);
                        trace.record_at(now, SpanKind::Quiesce.end("switch"));
                        run.resume();
                        for &slot in &root_slots {
                            sources[slot].resume_delivery(now);
                        }
                    }
                }
            };

            // Seal the phase (switch or completion): join the producers,
            // drain every exchange's in-flight tuples into the old plan,
            // register the sealed state, put lent sources back.
            Self::refresh_producer_counts(
                &run,
                &producer_base,
                &phase_base,
                &mut consumed_total,
                &mut consumed_phase,
            );
            let outcome = run.seal(sources, &mut answers)?;
            extra_cpu_us += outcome.producer_cpu_us;
            exchange_stats.absorb(outcome.max_queue_depth, &outcome.blocked_by_exchange);
            // Producer batches count toward reporting only — folding them
            // into `total_batches` (the monitor's cadence counter) would
            // blow past `next_poll_at` and fire the next phase's first
            // monitor poll on one batch of evidence.
            phase_batches += outcome.producer_batches;
            producer_batches_total += outcome.producer_batches;
            for state in outcome.states {
                if let Some(sig) = state.sig {
                    registry.register(sig, phase, state.schema, state.structure);
                }
            }
            phases.push(PhaseInfo {
                plan: current_phys.describe(),
                batches: phase_batches,
                consumed: consumed_phase.clone(),
                fragments: phase_fragments,
            });
            trace.record_at(
                stamp(&mut timeline),
                SpanKind::Phase.end(format!("phase-{phase}")),
            );
            match end {
                PhaseEnd::Completed => break 'phases,
                PhaseEnd::Switched(candidate) => {
                    current_phys = *candidate;
                    phase += 1;
                    phase_batches = 0;
                    consumed_phase.clear();
                }
            }
        }

        trace.record_at(stamp(&mut timeline), SpanKind::Query.end("corrective"));
        let nphases = phase + 1;
        self.stitch_and_finalize(
            &current_phys,
            &shared_table,
            &post_project,
            &registry,
            nphases,
            RunTotals {
                timeline,
                answers,
                phases,
                total_batches: total_batches + producer_batches_total,
                extra_cpu_us,
                calibrated_unit_us: calibrated,
                exchange_stats,
            },
        )
    }

    /// The monitor's poll: re-optimize over the live catalog, recost the
    /// running plan, calibrate `unit_us` during the warmup phase, and
    /// decide whether the candidate is worth a switch.
    #[allow(clippy::too_many_arguments)]
    fn consider_switch(
        &self,
        catalog: &Arc<SelectivityCatalog>,
        consumed_total: &HashMap<u32, u64>,
        calibrated: &mut Option<f64>,
        current_phys: &PhysPlan,
        registry: &StateRegistry,
        timeline: &mut Timeline,
        phase: usize,
        measured_cpu_us: f64,
    ) -> Result<Option<PhysPlan>> {
        let cfg = &self.config;
        let mut ctx = self.make_ctx(catalog, consumed_total, *calibrated);
        ctx.sunk_sigs = Self::sunk_sigs(current_phys, registry);
        let prior_unit_us = ctx.cost_model.unit_us;
        let reopt = Optimizer::new(ctx);
        let start = Instant::now();
        let candidate = reopt.reoptimize_remaining(&self.q)?;
        let current_cost = reopt.recost(&self.q, current_phys, true)?;
        let current_total = reopt.recost(&self.q, current_phys, false)?;
        if phase == 0 && matches!(cfg.cpu, CpuCostModel::Measured) {
            // Warmup calibration: `measured_cpu_us` is the run's whole
            // measured driver CPU so far (controller timeline *plus* the
            // producer threads' live counters in threaded mode — the
            // cost-unit denominator below spans every fragment, so the
            // measured numerator must too); the CPU-only recost pair says
            // how many cost units the running plan has consumed.
            let cpu_total = reopt.recost_cpu(&self.q, current_phys, false)?;
            let cpu_remaining = reopt.recost_cpu(&self.q, current_phys, true)?;
            if let Some(unit) = calibrate_unit_us(measured_cpu_us, cpu_total, cpu_remaining) {
                *calibrated = Some(unit);
                cfg.trace.record_at(
                    timeline.now_us(),
                    TraceEvent::Calibration {
                        phase: phase as u64,
                        measured_cpu_us,
                        estimated_cpu_us: (cpu_total - cpu_remaining) * prior_unit_us,
                        unit_us: unit,
                    },
                );
            }
        }
        // Re-optimization runs in a background thread in Tukwila; we
        // charge its cost to the clock but not to query CPU.
        let reopt_us = start.elapsed().as_secs_f64() * 1e6;
        if matches!(cfg.cpu, CpuCostModel::Measured) {
            timeline.charge_background(reopt_us);
        }
        let switching = candidate.est_cost < cfg.switch_threshold * current_cost
            && current_cost > cfg.min_remaining_fraction * current_total
            && candidate.describe() != current_phys.describe();
        cfg.trace.record_at(
            timeline.now_us(),
            TraceEvent::CorrectiveDecision {
                phase: phase as u64,
                current_plan: current_phys.describe(),
                candidate_plan: candidate.describe(),
                current_cost,
                candidate_cost: candidate.est_cost,
                threshold: cfg.switch_threshold,
                switched: switching,
            },
        );
        if switching {
            Ok(Some(candidate))
        } else {
            Ok(None)
        }
    }

    /// Fold the producers' shared high-water marks into the cross-phase
    /// consumed counters (the controller never polls producer-owned
    /// relations itself).
    fn refresh_producer_counts(
        run: &FragmentRun,
        producer_base: &HashMap<u32, u64>,
        phase_base: &HashMap<u32, u64>,
        consumed_total: &mut HashMap<u32, u64>,
        consumed_phase: &mut HashMap<u32, u64>,
    ) {
        for progress in run.quiesce_handles().flat_map(|h| h.high_water_marks()) {
            let rel = progress.rel_id();
            let consumed = progress.consumed();
            consumed_total.insert(
                rel,
                producer_base.get(&rel).copied().unwrap_or(0) + consumed,
            );
            consumed_phase.insert(rel, phase_base.get(&rel).copied().unwrap_or(0) + consumed);
        }
    }

    /// The stitch-up phase and report assembly.
    fn stitch_and_finalize(
        &self,
        current_phys: &PhysPlan,
        shared: &Option<Arc<SharedGroupTable>>,
        post_project: &Option<(Vec<Expr>, Schema)>,
        registry: &StateRegistry,
        nphases: usize,
        totals: RunTotals,
    ) -> Result<CorrectiveReport> {
        let cfg = &self.config;
        let RunTotals {
            mut timeline,
            mut answers,
            phases,
            total_batches,
            extra_cpu_us,
            calibrated_unit_us,
            exchange_stats,
        } = totals;

        let stitch_start_clock = timeline.clock_us();
        let mut stitch = StitchUpStats::default();
        if nphases > 1 {
            let stitcher = StitchUp::new(&self.q, registry, nphases).with_reuse(cfg.stitch_reuse);
            let canonical = crate::lowering::canonical_agg(current_phys);
            let wall = Instant::now();
            let table = shared.clone();
            let mut sink = |batch: &[Tuple]| -> Result<()> {
                match (&table, &canonical) {
                    (Some(t), Some((exprs, _, _))) => {
                        let mut projected = Vec::with_capacity(batch.len());
                        for tu in batch {
                            let mut vals = Vec::with_capacity(exprs.len());
                            for e in exprs {
                                vals.push(e.eval(tu)?);
                            }
                            projected.push(Tuple::new(vals));
                        }
                        t.update(&projected)
                    }
                    _ => {
                        answers.extend_from_slice(batch);
                        Ok(())
                    }
                }
            };
            stitch = stitcher.run(&current_phys.root, &mut sink)?;
            // A rehash during stitch-up means a state structure's
            // advertised key didn't match the join key it was reused
            // under — worth a journal line (zero is elided, so quiet
            // runs don't grow).
            cfg.trace
                .counter("rehashes", "stitchup", stitch.join.rehashes as u64);
            let cost = match cfg.cpu {
                CpuCostModel::Measured => {
                    timeline.measured_to_timeline(wall.elapsed().as_secs_f64() * 1e6)
                }
                CpuCostModel::PerTupleNs(ns) => stitch.join.probes as f64 * ns as f64 / 1000.0,
                CpuCostModel::Zero => 0.0,
            };
            timeline.charge(cost);
            // A shared clock advanced on its own while stitch-up blocked.
            timeline.resync();
        }
        let stitch_us = (timeline.clock_us() - stitch_start_clock) as u64;

        // Finalize.
        let rows = match shared {
            Some(t) => apply_post_project(t.finalize(), post_project)?,
            None => std::mem::take(&mut answers),
        };

        let reuse = if nphases > 1 {
            registry.reuse_stats()
        } else {
            ReuseStats::default()
        };
        Ok(CorrectiveReport {
            phases,
            exec: ExecReport {
                virtual_us: timeline.clock_us() as u64,
                cpu_us: timeline.cpu_us() as u64 + extra_cpu_us,
                idle_us: timeline.idle_us() as u64,
                tuples_out: rows.len() as u64,
                batches: total_batches,
                max_queue_depth: exchange_stats.max_queue_depth,
                blocked_by_exchange: exchange_stats.blocked_by_exchange(),
            },
            stitch_us,
            stitch,
            reuse,
            rows,
            calibrated_unit_us,
        })
    }

    /// The plan-shaped half of a catalog update: observed selectivities
    /// per logical signature and multiplicative-join flags, computed from
    /// operator counter snapshots. Observations span every fragment of the
    /// phase plan — node ids are plan-wide, so the multiplicative-join
    /// flags keep working across exchange boundaries — and their counters
    /// are shared atomics, so the monitor reads fragments on producer
    /// threads live.
    fn publish_plan_observations(
        catalog: &Arc<SelectivityCatalog>,
        observations: &[NodeObservation],
        join_nodes: &[(usize, u64)],
        consumed_phase: &HashMap<u32, u64>,
    ) {
        // Observed selectivity per logical signature: output cardinality
        // over the product of raw inputs consumed *this phase* (phase
        // counters reset at each switch). Later nodes override earlier ones
        // with the same signature (the node nearest the join is the
        // effective producer).
        let mut per_sig: HashMap<tukwila_storage::ExprSig, (u64, f64)> = HashMap::new();
        for obs in observations {
            let Some(sig) = obs.output_sig.clone() else {
                continue;
            };
            let mut product = 1.0;
            let mut any = false;
            for rel in sig.rels() {
                let c = consumed_phase.get(rel).copied().unwrap_or(0);
                if c == 0 {
                    any = false;
                    break;
                }
                any = true;
                product *= c as f64;
            }
            if !any {
                continue;
            }
            per_sig.insert(sig, (obs.counters.tuples_out(), product));
        }
        for (sig, (out, product)) in per_sig {
            catalog.observe_subexpr(sig, out, product);
        }
        // Multiplicative-join flags.
        for obs in observations {
            if let Some((_, pred_id)) = join_nodes.iter().find(|(node, _)| *node == obs.node) {
                let tin = obs.counters.tuples_in();
                let tout = obs.counters.tuples_out();
                if tin > 0 && tout > tin {
                    catalog.flag_multiplicative(*pred_id, tout as f64 / tin as f64);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_datagen::{queries, Dataset, DatasetConfig, TableId};
    use tukwila_exec::reference::canonicalize_approx;
    use tukwila_source::MemSource;

    fn sources_for(d: &Dataset, q: &LogicalQuery) -> Vec<Box<dyn Source>> {
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

    fn static_answer(d: &Dataset, q: &LogicalQuery) -> Vec<String> {
        let mut s = sources_for(d, q);
        let run = crate::baselines::run_static(
            q,
            &mut s,
            OptimizerContext::no_statistics(),
            256,
            CpuCostModel::Zero,
        )
        .unwrap();
        canonicalize_approx(&run.rows)
    }

    fn corrective_config(force_switch: bool) -> CorrectiveConfig {
        CorrectiveConfig {
            batch_size: 256,
            cpu: CpuCostModel::Zero,
            poll_every_batches: 2,
            // A threshold above 1 forces a switch whenever the re-optimizer
            // proposes any structurally different plan — the adversarial
            // case for stitch-up correctness.
            switch_threshold: if force_switch { 100.0 } else { 0.0 },
            max_phases: 4,
            warmup_batches: 2,
            preagg: PreAggConfig::Off,
            given_cards: None,
            initial_order: None,
            min_remaining_fraction: 0.0,
            stitch_reuse: true,
            clock: None,
            fragments: None,
            ..Default::default()
        }
    }

    #[test]
    fn single_phase_matches_static() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let exec = CorrectiveExec::new(q.clone(), corrective_config(false));
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert_eq!(report.phase_count(), 1);
        assert_eq!(report.stitch.mixed_tuples, 0);
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
    }

    #[test]
    fn forced_multi_phase_q3a_matches_static() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let mut cfg = corrective_config(true);
        // Start from a deliberately poor ordering so the re-optimizer has
        // something to correct.
        cfg.initial_order = Some(vec![
            TableId::Orders.rel_id(),
            TableId::Lineitem.rel_id(),
            TableId::Customer.rel_id(),
        ]);
        let exec = CorrectiveExec::new(q.clone(), cfg);
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert!(
            report.phase_count() > 1,
            "expected a forced switch, got {} phase(s)",
            report.phase_count()
        );
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
        assert!(report.reuse.reused_tuples > 0 || report.stitch.recomputed_pure > 0);
    }

    #[test]
    fn forced_multi_phase_with_fragments_matches_static() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let mut cfg = corrective_config(true);
        cfg.initial_order = Some(vec![
            TableId::Orders.rel_id(),
            TableId::Lineitem.rel_id(),
            TableId::Customer.rel_id(),
        ]);
        // Aggressive fragmentation: every phase plan is split at an
        // exchange, so the forced switch seals across a fragment
        // boundary mid-stream.
        cfg.fragments = Some(tukwila_optimizer::FragmentationConfig::aggressive());
        let exec = CorrectiveExec::new(q.clone(), cfg);
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert!(
            report.phase_count() > 1,
            "expected a forced switch, got {} phase(s)",
            report.phase_count()
        );
        assert!(
            report.phases.iter().any(|p| p.fragments > 1),
            "at least one phase must actually have been fragmented: {:?}",
            report
                .phases
                .iter()
                .map(|p| p.fragments)
                .collect::<Vec<_>>()
        );
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
    }

    #[test]
    fn fragments_off_is_single_fragment() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let exec = CorrectiveExec::new(q.clone(), corrective_config(false));
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert!(report.phases.iter().all(|p| p.fragments == 1));
    }

    #[test]
    fn threaded_forced_switch_matches_static() {
        use tukwila_stats::WallClock;
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
        let mut cfg = corrective_config(true);
        cfg.batch_size = 64;
        cfg.cpu = CpuCostModel::Measured;
        cfg.initial_order = Some(vec![
            TableId::Orders.rel_id(),
            TableId::Lineitem.rel_id(),
            TableId::Customer.rel_id(),
        ]);
        cfg.fragments = Some(tukwila_optimizer::FragmentationConfig::aggressive());
        cfg.clock = Some(clock);
        let exec = CorrectiveExec::new(q.clone(), cfg);
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert!(
            report.phase_count() > 1,
            "expected a forced switch through the quiesce protocol, got {} phase(s)",
            report.phase_count()
        );
        assert!(
            report.phases.iter().any(|p| p.fragments > 1),
            "at least one phase must have run threaded producer fragments"
        );
        assert_eq!(
            canonicalize_approx(&report.rows),
            static_answer(&d, &q),
            "threaded corrective answer diverged from static execution"
        );
        // The caller's sources came back: every slot is pollable again.
        for s in sources.iter_mut() {
            assert!(matches!(s.poll(u64::MAX / 2, 1), tukwila_source::Poll::Eof));
        }
    }

    #[test]
    fn measured_runs_calibrate_unit_us() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let mut cfg = corrective_config(false);
        cfg.cpu = CpuCostModel::Measured;
        let exec = CorrectiveExec::new(q.clone(), cfg);
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        let unit = report
            .calibrated_unit_us
            .expect("a Measured run with monitor polls must calibrate unit_us");
        assert!(
            (1e-3..=10.0).contains(&unit),
            "calibrated unit_us {unit} outside the sane band"
        );
        // Zero-cost runs have nothing to measure: no calibration.
        let exec = CorrectiveExec::new(q.clone(), corrective_config(false));
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert_eq!(report.calibrated_unit_us, None);
    }

    #[test]
    fn forced_multi_phase_q10a_matches_static() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q10a();
        let exec = CorrectiveExec::new(q.clone(), corrective_config(true));
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert!(report.phase_count() > 1);
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
    }

    #[test]
    fn forced_multi_phase_q5_with_cycle_matches_static() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q5();
        let exec = CorrectiveExec::new(q.clone(), corrective_config(true));
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert!(report.phase_count() > 1);
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
    }

    #[test]
    fn multi_phase_skewed_data_matches_static() {
        let d = Dataset::generate(DatasetConfig::skewed(0.002));
        let q = queries::q10a();
        let exec = CorrectiveExec::new(q.clone(), corrective_config(true));
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
    }

    #[test]
    fn corrective_with_preagg_matches_static() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q3a();
        let mut cfg = corrective_config(true);
        cfg.preagg = PreAggConfig::Insert(tukwila_optimizer::PreAggMode::AdaptiveWindow);
        let exec = CorrectiveExec::new(q.clone(), cfg);
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
    }

    #[test]
    fn given_cards_mode_runs() {
        let d = Dataset::generate(DatasetConfig::uniform(0.002));
        let q = queries::q10();
        let mut cfg = corrective_config(false);
        let mut cards = HashMap::new();
        for t in queries::tables_of(&q) {
            cards.insert(t.rel_id(), d.table(t).len() as u64);
        }
        let _ = TableId::Orders;
        cfg.given_cards = Some(cards);
        let exec = CorrectiveExec::new(q.clone(), cfg);
        let mut sources = sources_for(&d, &q);
        let report = exec.run(&mut sources).unwrap();
        assert_eq!(canonicalize_approx(&report.rows), static_answer(&d, &q));
    }
}
