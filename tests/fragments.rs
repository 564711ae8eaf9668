//! Threaded plan fragments: correctness of racing parallel subplans over
//! `exec::queue_pair` exchanges.
//!
//! Mirrors the dual-clock discipline of the federation suites:
//!
//! 1. **Equivalence sweep** — every fragments scenario (local, delayed,
//!    and federated sources; the federated case feeds concurrent mirror
//!    producers straight into fragment queues) must produce the identical
//!    canonicalized answer whether the fragmented plan runs sequentially
//!    under the deterministic virtual clock or threaded against an
//!    accelerated wall clock.
//! 2. **Teardown across an Exchange** — a proptest drives the corrective
//!    executor with forced plan switches over fragmented phase plans:
//!    switching mid-stream across an exchange boundary must never drop or
//!    duplicate tuples, for any seed, data size, or polling cadence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use tukwila::core::{lower_fragmented, CorrectiveConfig, CorrectiveExec};
use tukwila::datagen::flights::{self, FlightsData};
use tukwila::exec::reference::canonicalize_approx;
use tukwila::exec::{CpuCostModel, FragmentOptions, SimDriver};
use tukwila::federation::{FederatedCatalog, FederationConfig};
use tukwila::optimizer::{choose_cuts, FragmentationConfig, Optimizer, OptimizerContext};
use tukwila::relation::Schema;
use tukwila::source::{DelayModel, DelayedSource, MemSource, Poll, Source, SourceProgressView};
use tukwila::stats::{Clock, WallClock};

mod common;
use common::{mem_answer, tables};

fn flaky_model(seed: u64) -> DelayModel {
    DelayModel::Wireless {
        bytes_per_sec: 200_000.0,
        burst_ms: 30.0,
        gap_ms: 100.0,
        seed,
    }
}

fn steady_model() -> DelayModel {
    DelayModel::Bandwidth {
        bytes_per_sec: 50_000.0,
        initial_latency_us: 1_000,
    }
}

/// Candidate sources for one fragments scenario. The `federated` scenario
/// returns mirrors behind the federation layer — sequential adapters for
/// the virtual run, per-candidate producer threads for the wall run, so
/// federation threads deliver straight into fragment queues.
fn scenario_sources(
    name: &str,
    d: &FlightsData,
    seed: u64,
    clock: Option<Arc<dyn Clock>>,
) -> Vec<Box<dyn Source>> {
    match name {
        "local" => tables(d)
            .into_iter()
            .map(|(rel, name, schema, rows)| {
                Box::new(MemSource::new(rel, name, schema, rows.clone())) as Box<dyn Source>
            })
            .collect(),
        "delayed" => tables(d)
            .into_iter()
            .map(|(rel, name, schema, rows)| {
                Box::new(DelayedSource::new(
                    rel,
                    name,
                    schema,
                    rows.clone(),
                    &flaky_model(seed ^ u64::from(rel)),
                )) as Box<dyn Source>
            })
            .collect(),
        "federated" => {
            let mut catalog = FederatedCatalog::new(FederationConfig::default());
            for (rel, name, schema, rows) in tables(d) {
                catalog
                    .register(
                        vec![0],
                        Box::new(DelayedSource::new(
                            rel,
                            format!("{name}-flaky"),
                            schema.clone(),
                            rows.clone(),
                            &flaky_model(seed ^ u64::from(rel)),
                        )),
                    )
                    .unwrap();
                catalog
                    .register(
                        vec![0],
                        Box::new(DelayedSource::new(
                            rel,
                            format!("{name}-steady"),
                            schema,
                            rows.clone(),
                            &steady_model(),
                        )),
                    )
                    .unwrap();
            }
            match clock {
                None => catalog.into_sources().unwrap(),
                Some(clock) => catalog.into_concurrent_sources(clock).unwrap(),
            }
        }
        other => panic!("unknown scenario {other}"),
    }
}

/// Every fragments scenario: the fragmented plan's sequential
/// virtual-clock answer is the plain local answer, and the threaded
/// wall-clock answer is byte-identical to it.
#[test]
fn dual_clock_equivalence_across_fragment_scenarios() {
    let d = flights::generate(200, 1200, 1, 59);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    let ctx = OptimizerContext::no_statistics();
    let plan = Optimizer::new(ctx.clone()).optimize(&q).unwrap();
    let cuts = choose_cuts(&plan, &ctx, &FragmentationConfig::aggressive());
    assert!(!cuts.is_empty(), "the flights join tree must be cuttable");

    for scenario in ["local", "delayed", "federated"] {
        // Sequential under the virtual clock: deterministic anchor.
        let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
        assert!(frag.plan.fragment_count() >= 2, "{scenario}: no exchange");
        let sources = scenario_sources(scenario, &d, 59, None);
        let (rows_v, _) = SimDriver::new(256, CpuCostModel::Zero)
            .run_fragments_sequential(frag.plan, sources)
            .unwrap();
        assert_eq!(
            canonicalize_approx(&rows_v),
            expected,
            "{scenario}: sequential fragmented answer diverged from local execution"
        );

        // Threaded against an accelerated wall clock: same cuts, real
        // producer threads per fragment (and per mirror, in the
        // federated scenario).
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
        let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
        let sources = scenario_sources(scenario, &d, 59, Some(clock.clone()));
        let (rows_w, _) = SimDriver::new(256, CpuCostModel::Measured)
            .with_clock(clock)
            .run_fragments(frag.plan, sources, &FragmentOptions::default())
            .unwrap();
        assert_eq!(
            canonicalize_approx(&rows_w),
            expected,
            "{scenario}: threaded fragmented answer diverged from the virtual-clock run"
        );
    }
}

/// The corrective executor over fragmented phase plans, driven off a
/// shared wall clock with threaded federated mirrors — the full stack:
/// federation producer threads feed exchange-fragmented phase plans while
/// the monitor re-optimizes.
#[test]
fn corrective_with_fragments_over_threaded_federation() {
    let d = flights::generate(200, 1200, 1, 67);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let mut sources = scenario_sources("federated", &d, 67, Some(clock.clone()));
    let exec = CorrectiveExec::new(
        q,
        CorrectiveConfig {
            batch_size: 256,
            cpu: CpuCostModel::Measured,
            poll_every_batches: 3,
            warmup_batches: 2,
            min_remaining_fraction: 0.0,
            clock: Some(clock),
            fragments: Some(FragmentationConfig::aggressive()),
            ..Default::default()
        },
    );
    let report = exec.run(&mut sources).unwrap();
    assert_eq!(
        canonicalize_approx(&report.rows),
        expected,
        "fragmented corrective answer diverged over threaded federation"
    );
    assert!(
        report.phases.iter().any(|p| p.fragments > 1),
        "phase plans must actually have been fragmented"
    );
}

/// Forced switching (any structurally different candidate wins) over
/// aggressively fragmented phase plans: `Measured` CPU on a clock, free
/// CPU on the virtual accumulator.
fn forced(clock: Option<Arc<dyn Clock>>) -> CorrectiveConfig {
    CorrectiveConfig {
        batch_size: 128,
        cpu: if clock.is_some() {
            CpuCostModel::Measured
        } else {
            CpuCostModel::Zero
        },
        poll_every_batches: 3,
        warmup_batches: 2,
        switch_threshold: 100.0,
        max_phases: 4,
        min_remaining_fraction: 0.0,
        fragments: Some(FragmentationConfig::aggressive()),
        clock,
        ..Default::default()
    }
}

/// Dual-clock equivalence of the *threaded* corrective executor: with
/// forced switches and aggressive fragmentation, the sequential
/// virtual-clock corrective run and the threaded wall-clock corrective
/// run (producer fragments on real threads, quiesced at every switch,
/// over threaded federated mirrors racing into the fragment queues) must
/// produce the identical canonicalized answer — which both must equal
/// plain local execution. The same loop in inline mode on the wall clock
/// (zero producer threads) must agree too.
#[test]
fn dual_clock_threaded_corrective_equivalence() {
    let d = flights::generate(200, 1200, 1, 91);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    // Sequential anchor under the deterministic virtual clock.
    let mut sources = scenario_sources("federated", &d, 91, None);
    let exec = CorrectiveExec::new(q.clone(), forced(None));
    let report_v = exec.run(&mut sources).unwrap();
    assert_eq!(
        canonicalize_approx(&report_v.rows),
        expected,
        "sequential corrective anchor diverged from local execution"
    );

    // Threaded corrective: same forced switching, wall clock, federation
    // producer threads feeding threaded fragment queues across switches.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let mut sources = scenario_sources("federated", &d, 91, Some(clock.clone()));
    let exec = CorrectiveExec::new(q.clone(), forced(Some(clock)));
    let report_w = exec.run(&mut sources).unwrap();
    assert_eq!(
        canonicalize_approx(&report_w.rows),
        canonicalize_approx(&report_v.rows),
        "threaded corrective answer diverged from the sequential run"
    );
    assert!(
        report_w.phases.iter().any(|p| p.fragments > 1),
        "threaded phases must actually have producer fragments"
    );

    // Inline mode of the same loop on the same kind of clock: fragmented
    // phase plans, zero producer threads.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let mut sources = scenario_sources("federated", &d, 91, Some(clock.clone()));
    let exec = CorrectiveExec::new(
        q.clone(),
        CorrectiveConfig {
            threaded_fragments: Some(false),
            ..forced(Some(clock))
        },
    );
    let report_i = exec.run(&mut sources).unwrap();
    assert_eq!(
        canonicalize_approx(&report_i.rows),
        canonicalize_approx(&report_v.rows),
        "inline wall-clock corrective answer diverged from the virtual run"
    );
}

/// Dual-clock equivalence over default exchanges: the threaded
/// wall-clock run, shipping rows across every fragment exchange, must
/// produce the identical canonicalized answer as the sequential
/// virtual-clock anchor and plain local execution.
#[test]
fn dual_clock_equivalence_with_default_exchanges() {
    let d = flights::generate(200, 1200, 1, 59);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    let ctx = OptimizerContext::no_statistics();
    let plan = Optimizer::new(ctx.clone()).optimize(&q).unwrap();
    let cuts = choose_cuts(&plan, &ctx, &FragmentationConfig::aggressive());
    assert!(!cuts.is_empty(), "the flights join tree must be cuttable");

    let mk_sources = || -> Vec<Box<dyn Source>> {
        tables(&d)
            .into_iter()
            .map(|(rel, name, schema, rows)| {
                Box::new(MemSource::new(rel, name, schema, rows.clone())) as Box<dyn Source>
            })
            .collect()
    };

    // Sequential virtual-clock anchor.
    let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
    assert!(frag.plan.fragment_count() >= 2, "no exchange in the plan");
    let (rows_v, _) = SimDriver::new(256, CpuCostModel::Zero)
        .run_fragments_sequential(frag.plan, mk_sources())
        .unwrap();
    assert_eq!(canonicalize_approx(&rows_v), expected);

    // Threaded wall-clock run over real exchange queues.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
    let (rows_w, _) = SimDriver::new(256, CpuCostModel::Measured)
        .with_clock(clock)
        .run_fragments(frag.plan, mk_sources(), &FragmentOptions::default())
        .unwrap();
    assert_eq!(
        canonicalize_approx(&rows_w),
        expected,
        "exchanges changed the fragmented answer"
    );
}

/// The full corrective executor with fragmentation on and *default*
/// fragment options must answer identically under the sequential
/// virtual-clock driver and the threaded wall-clock driver, and both
/// runs must journal phase spans into the adaptivity trace.
#[test]
fn corrective_dual_clock_with_default_exchange() {
    use tukwila::stats::{TraceEvent, TraceSink, VirtualClock};

    let d = flights::generate(200, 1200, 1, 59);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    let mk_sources = || -> Vec<Box<dyn Source>> {
        tables(&d)
            .into_iter()
            .map(|(rel, name, schema, rows)| {
                Box::new(MemSource::new(rel, name, schema, rows.clone())) as Box<dyn Source>
            })
            .collect()
    };
    let run = |clock: Option<Arc<dyn Clock>>, trace: TraceSink| {
        let exec = CorrectiveExec::new(
            q.clone(),
            CorrectiveConfig {
                batch_size: 256,
                cpu: CpuCostModel::Measured,
                poll_every_batches: 3,
                warmup_batches: 2,
                min_remaining_fraction: 0.0,
                clock,
                fragments: Some(FragmentationConfig::aggressive()),
                trace,
                ..Default::default()
            },
        );
        let mut s = mk_sources();
        exec.run(&mut s).unwrap()
    };

    // Sequential virtual-clock anchor.
    let vtrace = TraceSink::unbounded(Arc::new(VirtualClock::new()));
    let report_v = run(None, vtrace.clone());
    assert_eq!(canonicalize_approx(&report_v.rows), expected);

    // Threaded wall-clock run: producers ship rows over every exchange,
    // and quiesce drains hand the in-flight rows back losslessly.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let wtrace = TraceSink::unbounded(clock.clone());
    let report_w = run(Some(clock), wtrace.clone());
    assert_eq!(
        canonicalize_approx(&report_w.rows),
        expected,
        "threaded corrective with default exchanges diverged"
    );

    // Both drivers journaled the run under identical span vocabulary.
    for (name, sink) in [("virtual", &vtrace), ("threaded", &wtrace)] {
        let spans: Vec<String> = sink
            .snapshot()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::SpanBegin { kind, .. } => Some(format!("{kind:?}")),
                _ => None,
            })
            .collect();
        assert!(
            spans.iter().any(|k| k.contains("Phase")),
            "{name}: corrective run journaled no phase spans: {spans:?}"
        );
    }
}

/// Wraps a source and counts the polls it receives after it first
/// returned `Eof`.
struct PollsAfterEof {
    inner: Box<dyn Source>,
    eof: bool,
    after: Arc<AtomicU64>,
}

impl Source for PollsAfterEof {
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
        if self.eof {
            self.after.fetch_add(1, Ordering::Relaxed);
        }
        let polled = self.inner.poll(now_us, max_tuples);
        self.eof |= matches!(polled, Poll::Eof);
        polled
    }

    fn progress(&self) -> SourceProgressView {
        self.inner.progress()
    }
}

/// The inline loop's source guarantees, unfragmented and fragmented under
/// the virtual clock: (a) a forced switch after a relation reached EOF
/// never polls it again — its port in the new plan closes at switch time
/// — and the answer is unchanged; (b) an `Err` leaves every caller slot
/// holding its original, still-pollable source.
#[test]
fn inline_corrective_never_repolls_eof_and_keeps_sources_on_error() {
    // Four trips per traveler: F (200 tuples) runs dry while T still has
    // switches ahead.
    let d = flights::generate(200, 600, 4, 91);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    for fragments in [None, Some(FragmentationConfig::aggressive())] {
        let cfg = CorrectiveConfig {
            batch_size: 64,
            fragments: fragments.clone(),
            ..forced(None)
        };

        // (a) F runs dry long before the others.
        let after = Arc::new(AtomicU64::new(0));
        let mut sources = scenario_sources("local", &d, 91, None);
        let f_total = d.flights.len() as u64;
        let inner = sources.remove(0);
        sources.insert(
            0,
            Box::new(PollsAfterEof {
                inner,
                eof: false,
                after: after.clone(),
            }),
        );
        let report = CorrectiveExec::new(q.clone(), cfg.clone())
            .run(&mut sources)
            .unwrap();
        assert_eq!(canonicalize_approx(&report.rows), expected);
        // F's data ran out in phase `p`; its `Eof` came no later than the
        // first sweep of phase p+1, so a phase p+2 began after the `Eof`.
        let mut seen = 0;
        let p = report
            .phases
            .iter()
            .position(|ph| {
                seen += ph.consumed.get(&flights::FLIGHTS).copied().unwrap_or(0);
                seen == f_total
            })
            .unwrap();
        assert!(
            report.phase_count() >= p + 3,
            "fragments {:?}: no switch after F's EOF (F done in phase {p} of {})",
            fragments.is_some(),
            report.phase_count()
        );
        assert_eq!(
            after.load(Ordering::Relaxed),
            0,
            "fragments {:?}: F was polled again after its EOF",
            fragments.is_some()
        );

        // (b) A relation the query does not bind fails the run; every slot
        // still holds the caller's untouched source.
        let mut sources = scenario_sources("local", &d, 91, None);
        sources.push(Box::new(MemSource::new(
            99,
            "unbound",
            flights::children_schema(),
            d.children.clone(),
        )));
        let sizes: Vec<(String, usize)> = sources
            .iter()
            .map(|s| s.name().to_string())
            .zip([
                d.flights.len(),
                d.travelers.len(),
                d.children.len(),
                d.children.len(),
            ])
            .collect();
        assert!(CorrectiveExec::new(q.clone(), cfg)
            .run(&mut sources)
            .is_err());
        for (src, (name, len)) in sources.iter_mut().zip(sizes) {
            assert_eq!(src.name(), name);
            let mut n = 0;
            while let Poll::Ready(b) = src.poll(u64::MAX / 2, 1024) {
                n += b.len();
            }
            assert_eq!(n, len, "{name}: the source was consumed or replaced");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A mid-stream corrective switch across an Exchange never drops or
    /// duplicates tuples: with forced switches and aggressive
    /// fragmentation, every phase boundary seals fragmented plans
    /// mid-pipeline, and the final answer must still equal plain local
    /// execution — for any seed, data size, and re-optimizer cadence.
    #[test]
    fn corrective_switch_across_exchange_never_drops_or_duplicates(
        seed in 0u64..500,
        n_flights in 30usize..120,
        n_travelers in 50usize..400,
        poll_every in 2u64..6,
    ) {
        let d = flights::generate(n_flights, n_travelers, 1, seed);
        let q = flights::query();
        let expected = mem_answer(&d, &q);

        let mut sources = scenario_sources("delayed", &d, seed, None);
        let exec = CorrectiveExec::new(
            q,
            CorrectiveConfig {
                batch_size: 64,
                cpu: CpuCostModel::Zero,
                poll_every_batches: poll_every,
                warmup_batches: 2,
                // Switch whenever the re-optimizer proposes any
                // structurally different plan — the adversarial case for
                // sealing across exchange boundaries.
                switch_threshold: 100.0,
                max_phases: 4,
                min_remaining_fraction: 0.0,
                fragments: Some(FragmentationConfig::aggressive()),
                ..Default::default()
            },
        );
        let report = exec.run(&mut sources).unwrap();
        prop_assert!(
            report.phases.iter().any(|p| p.fragments > 1),
            "no phase was fragmented (fragments: {:?})",
            report.phases.iter().map(|p| p.fragments).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            canonicalize_approx(&report.rows),
            expected,
            "corrective switch across an exchange changed the answer \
             (seed {}, {} phases)",
            seed,
            report.phase_count()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The quiesce protocol under fire: forced corrective switches land
    /// *while producer fragments run on real threads, mid-batch* — the
    /// wall clock randomizes where in a batch (and in the exchange
    /// queues) each quiesce lands, and the data size / polling cadence /
    /// acceleration vary per case. Whatever the interleaving, the answer
    /// must equal plain local execution: zero tuples dropped, zero
    /// duplicated, every producer joined or resumed.
    #[test]
    fn threaded_corrective_quiesce_mid_batch_never_drops_or_duplicates(
        seed in 0u64..500,
        n_flights in 30usize..120,
        n_travelers in 50usize..400,
        poll_every in 2u64..6,
        accel in prop::sample::select(vec![100.0f64, 200.0, 400.0]),
    ) {
        let d = flights::generate(n_flights, n_travelers, 1, seed);
        let q = flights::query();
        let expected = mem_answer(&d, &q);

        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(accel));
        let mut sources = scenario_sources("delayed", &d, seed, None);
        let exec = CorrectiveExec::new(
            q,
            CorrectiveConfig {
                batch_size: 64,
                cpu: CpuCostModel::Measured,
                poll_every_batches: poll_every,
                warmup_batches: 2,
                // Switch whenever the re-optimizer proposes any
                // structurally different plan: maximal quiesce churn.
                switch_threshold: 100.0,
                max_phases: 4,
                min_remaining_fraction: 0.0,
                fragments: Some(FragmentationConfig::aggressive()),
                clock: Some(clock),
                ..Default::default()
            },
        );
        let report = exec.run(&mut sources).unwrap();
        prop_assert!(
            report.phases.iter().any(|p| p.fragments > 1),
            "no phase ran threaded producer fragments (fragments: {:?})",
            report.phases.iter().map(|p| p.fragments).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            canonicalize_approx(&report.rows),
            expected,
            "threaded corrective quiesce changed the answer (seed {}, {} phases)",
            seed,
            report.phase_count()
        );
    }
}
