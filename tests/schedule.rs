//! Integration tests for the unified delivery cost model: the uniform
//! degenerate case must reproduce the legacy `delivery_bound_us` rule
//! bit-for-bit, cost-aware hedge activation must preserve dual-clock
//! answer equivalence, and declared partial-replica coverage must be
//! verified at registration and exploited by the scheduler.

use std::sync::Arc;

use proptest::prelude::*;

use tukwila::core::run_static;
use tukwila::datagen::flights::{self};
use tukwila::exec::reference::canonicalize_approx;
use tukwila::exec::{CpuCostModel, SimDriver};
use tukwila::federation::{FederatedCatalog, FederatedSource, FederationConfig, PartialReplica};
use tukwila::optimizer::{Optimizer, OptimizerContext, PhysKind, PhysNode};
use tukwila::relation::{Schema, Tuple};
use tukwila::source::{DelayModel, DelayedSource, Source};
use tukwila::stats::{ArrivalSchedule, Clock, SelectivityCatalog, WallClock};
use tukwila_core::run_static_with_driver;

mod common;
use common::{mem_answer, tables};

/// The legacy rule `OptimizerContext::delivery_bound_us` implemented: a
/// uniform delivery term of `card / rate` seconds, as every scan cost
/// used to carry before the shared model existed.
fn legacy_bound_us(rate: f64, card: f64) -> f64 {
    card.max(0.0) / rate * 1e6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A single-uniform-segment `ArrivalSchedule` answers the k-th
    /// arrival question *bit-identically* to the legacy uniform rule, for
    /// any positive rate and any cardinality.
    #[test]
    fn uniform_schedule_degenerates_to_legacy_bound(
        rate in 1e-9f64..1e9,
        card in -1e12f64..1e12,
    ) {
        let schedule = ArrivalSchedule::uniform(rate);
        prop_assert_eq!(
            schedule.arrival_us(card).to_bits(),
            legacy_bound_us(rate, card).to_bits(),
            "uniform schedule must reproduce the legacy bound bitwise"
        );
    }

    /// Scan costing through the shared `DeliveryModel` with uniform
    /// schedules is byte-identical to the old `scan_tuple · raw +
    /// delivery_per_us · delivery_bound_us(rel, raw)` formula.
    #[test]
    fn scan_costing_degenerates_byte_identically(
        rate in 1e-3f64..1e9,
        card in 1u64..2_000_000,
    ) {
        let q = flights::query();
        let catalog = Arc::new(SelectivityCatalog::new());
        for (i, rel) in [flights::FLIGHTS, flights::TRAVELERS, flights::CHILDREN]
            .into_iter()
            .enumerate()
        {
            // Every relation gets a uniform schedule (different rates).
            catalog.observe_source_rate(rel, rate * (i + 1) as f64);
        }
        let mut ctx = OptimizerContext {
            catalog: Some(catalog),
            ..OptimizerContext::no_statistics()
        };
        ctx.default_card = card;
        let plan = Optimizer::new(ctx.clone()).optimize(&q).unwrap();

        fn check_scans(node: &PhysNode, ctx: &OptimizerContext) {
            match &node.kind {
                PhysKind::Scan { rel, .. } => {
                    let raw = ctx.base_card(*rel);
                    let rate = ctx.observed_rate(*rel).unwrap();
                    let legacy = ctx.cost_model.scan_tuple * raw
                        + ctx.cost_model.delivery_per_us * legacy_bound_us(rate, raw);
                    assert_eq!(
                        node.est_cost.to_bits(),
                        legacy.to_bits(),
                        "scan of {rel}: schedule-aware cost {} != legacy {legacy}",
                        node.est_cost
                    );
                }
                PhysKind::Join { left, right, .. } => {
                    check_scans(left, ctx);
                    check_scans(right, ctx);
                }
                PhysKind::PreAgg { child, .. } => check_scans(child, ctx),
            }
        }
        check_scans(&plan.root, &ctx);
    }
}

/// A bursty (multi-segment) schedule strictly exceeds the uniform bound
/// for early tuples and converges to it in the tail — the lead-in is a
/// planning allowance, not a rate change.
#[test]
fn bursty_schedule_bounds_uniform_from_above() {
    let uniform = ArrivalSchedule::uniform(1_000.0);
    let bursty = ArrivalSchedule::bursty(50_000.0, 1_000.0);
    for k in [1.0, 10.0, 1_000.0, 1e6] {
        assert_eq!(
            bursty.arrival_us(k),
            uniform.arrival_us(k) + 50_000.0,
            "lead-in shifts every arrival by exactly the allowance"
        );
    }
}

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

/// A sluggish last-resort mirror: the candidate the cost gate should
/// decline to race while the steady mirror is healthy.
fn remote_model() -> DelayModel {
    DelayModel::Bandwidth {
        bytes_per_sec: 5_000.0,
        initial_latency_us: 50_000,
    }
}

fn gate_catalog(d: &flights::FlightsData, seed: u64) -> FederatedCatalog {
    let mut catalog = FederatedCatalog::new(FederationConfig::default());
    for (rel, name, schema, rows) in tables(d) {
        for (suffix, model) in [
            ("flaky", flaky_model(seed ^ u64::from(rel))),
            ("steady", steady_model()),
            ("remote", remote_model()),
        ] {
            catalog
                .register(
                    vec![0],
                    Box::new(DelayedSource::new(
                        rel,
                        format!("{name}-{suffix}"),
                        schema.clone(),
                        rows.clone(),
                        &model,
                    )) as Box<dyn Source>,
                )
                .unwrap();
        }
    }
    catalog
}

/// Cost-aware hedge activation under both clocks: the virtual run is
/// deterministic, declines at least one race the stall-only rule would
/// have taken, and the threaded run — whose gate sees real arrival rates
/// and real `blocked_sends` — produces the byte-identical deduped answer.
#[test]
fn cost_gated_hedging_dual_clock_equivalence() {
    let d = flights::generate(200, 1200, 1, 97);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    // Virtual: deterministic sequential run.
    let mut virt = gate_catalog(&d, 97).into_sources().unwrap();
    let virt_run = run_static(
        &q,
        &mut virt,
        OptimizerContext::no_statistics(),
        256,
        CpuCostModel::Zero,
    )
    .unwrap();
    let virt_answer = canonicalize_approx(&virt_run.rows);
    assert_eq!(virt_answer, expected, "virtual gated run diverged");
    let (mut declined, mut failovers) = (0u64, 0u64);
    for s in &virt {
        if let Some(fed) = s.as_any().and_then(|a| a.downcast_ref::<FederatedSource>()) {
            declined += fed.report().declined_hedges;
            failovers += fed.report().failovers;
        }
    }
    assert!(failovers >= 1, "flaky outages must still hedge onto steady");
    assert!(
        declined >= 1,
        "the gate must decline at least one remote race the stall-only rule would take"
    );

    // Virtual determinism: gate decisions are pure functions of the
    // timeline, so an identical re-run is byte-identical.
    let mut virt2 = gate_catalog(&d, 97).into_sources().unwrap();
    let virt_run2 = run_static(
        &q,
        &mut virt2,
        OptimizerContext::no_statistics(),
        256,
        CpuCostModel::Zero,
    )
    .unwrap();
    assert_eq!(
        canonicalize_approx(&virt_run2.rows),
        virt_answer,
        "gated virtual runs must be deterministic"
    );

    // Threaded: the same candidates race on real threads; the gate feeds
    // on real arrival rates and blocked_sends, yet the deduped answer is
    // identical whatever it decides.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let mut threaded = gate_catalog(&d, 97)
        .into_concurrent_sources(clock.clone())
        .unwrap();
    let wall_run = run_static_with_driver(
        &q,
        &mut threaded,
        OptimizerContext::no_statistics(),
        SimDriver::new(256, CpuCostModel::Measured).with_clock(clock),
        None,
    )
    .unwrap();
    assert_eq!(
        canonicalize_approx(&wall_run.rows),
        virt_answer,
        "threaded gated answer diverged from the virtual-clock answer"
    );
}

fn kv_schema() -> Schema {
    use tukwila::relation::{DataType, Field};
    Schema::new(vec![
        Field::new("t.k", DataType::Int),
        Field::new("t.v", DataType::Int),
    ])
}

fn range_rows(lo: i64, hi: i64) -> Vec<Tuple> {
    use tukwila::relation::Value;
    (lo..=hi)
        .map(|k| Tuple::new(vec![Value::Int(k), Value::Int(k * 10)]))
        .collect()
}

fn range_replica(name: &str, lo: i64, hi: i64) -> Box<dyn Source> {
    Box::new(PartialReplica::with_range(
        Box::new(DelayedSource::new(
            1,
            name,
            kv_schema(),
            range_rows(lo, hi),
            &DelayModel::Bandwidth {
                bytes_per_sec: 1e6,
                initial_latency_us: 100,
            },
        )),
        lo,
        hi,
    ))
}

/// Registration-time coverage verification: gap-free declared ranges are
/// accepted, a gap is rejected, and mixing declared with undeclared
/// partial replicas is rejected.
#[test]
fn catalog_verifies_declared_coverage() {
    // Jointly covering (with overlap): OK.
    let mut ok = FederatedCatalog::new(FederationConfig::default());
    ok.register(vec![0], range_replica("head", 0, 60)).unwrap();
    ok.register(vec![0], range_replica("tail", 40, 100))
        .unwrap();
    assert!(ok.into_sources().is_ok());

    // A gap between 40 and 59: rejected at registration.
    let mut gap = FederatedCatalog::new(FederationConfig::default());
    gap.register(vec![0], range_replica("head", 0, 40)).unwrap();
    let err = gap.register(vec![0], range_replica("tail", 60, 100));
    assert!(err.is_err(), "gap in declared coverage must be rejected");

    // Declared + undeclared partials: rejected (unverifiable promise).
    let mut mixed = FederatedCatalog::new(FederationConfig::default());
    mixed
        .register(vec![0], range_replica("head", 0, 60))
        .unwrap();
    let undeclared = Box::new(PartialReplica::new(Box::new(DelayedSource::new(
        1,
        "tail-undeclared",
        kv_schema(),
        range_rows(40, 100),
        &steady_model(),
    ))));
    assert!(mixed.register(vec![0], undeclared).is_err());
}

/// The scheduler skips standbys whose declared range was already fully
/// delivered by drained replicas: the covered standby is never activated
/// and the union is still complete.
#[test]
fn scheduler_skips_standbys_covered_by_drained_replicas() {
    let mut catalog = FederatedCatalog::new(FederationConfig::default());
    catalog
        .register(vec![0], range_replica("head", 0, 60))
        .unwrap();
    catalog
        .register(vec![0], range_replica("tail", 50, 100))
        .unwrap();
    // Fully inside head ∪ tail: holds nothing new once both drain.
    catalog
        .register(vec![0], range_replica("redundant", 20, 80))
        .unwrap();
    let mut sources = catalog.into_sources().unwrap();
    let fed = sources[0]
        .as_any()
        .and_then(|a| a.downcast_ref::<FederatedSource>());
    assert!(fed.is_some());

    // Drain like the driver.
    let mut clock = 0u64;
    let mut keys: Vec<i64> = Vec::new();
    loop {
        match sources[0].poll(clock, 64) {
            tukwila::source::Poll::Ready(batch) => {
                keys.extend(batch.iter().map(|t| t.get(0).as_int().unwrap()));
            }
            tukwila::source::Poll::Pending { next_ready_us } => clock = next_ready_us,
            tukwila::source::Poll::Eof => break,
        }
    }
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys, (0..=100).collect::<Vec<_>>(), "union complete");
    let report = sources[0]
        .as_any()
        .and_then(|a| a.downcast_ref::<FederatedSource>())
        .unwrap()
        .report();
    assert!(
        !report.candidates[2].activated,
        "the covered standby must never be woken"
    );
    assert_eq!(report.skipped_covered, 1);
}
