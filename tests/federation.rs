//! Integration tests for the federation layer: mirrored/replicated
//! sources behind the online permutation scheduler must be invisible to
//! the engine — same answers as plain single sources, no lost or
//! duplicated tuples — while adapting to stalls mid-query.

use std::sync::Arc;

use proptest::prelude::*;

use tukwila::core::{run_static, run_static_with_driver, CorrectiveConfig, CorrectiveExec};
use tukwila::datagen::flights::{self, FlightsData};
use tukwila::exec::reference::canonicalize_approx;
use tukwila::exec::{CpuCostModel, SimDriver};
use tukwila::federation::{
    DeclaredRate, FederatedCatalog, FederatedSource, FederationConfig, PartialReplica,
};
use tukwila::optimizer::OptimizerContext;
use tukwila::relation::{DataType, Field, Result, Schema, Tuple, Value};
use tukwila::source::{
    DelayModel, DelayedSource, Poll, Source, SourceControl, SourceDescriptor, SourceProgressView,
};
use tukwila::stats::{Clock, WallClock};

mod common;
use common::{mem_answer, tables};

fn delayed(
    rel: u32,
    name: String,
    schema: Schema,
    rows: Vec<Tuple>,
    model: &DelayModel,
) -> Box<dyn Source> {
    Box::new(DelayedSource::new(rel, name, schema, rows, model))
}

/// Fast while bursting but mostly dark: the "preferred mirror that
/// degrades mid-query".
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

fn fed_reports(sources: &[Box<dyn Source>]) -> Vec<tukwila::federation::FederationReport> {
    sources
        .iter()
        .filter_map(|s| s.as_any())
        .filter_map(|a| a.downcast_ref::<FederatedSource>())
        .map(|f| f.report())
        .collect()
}

/// The headline scenario: every relation's preferred mirror is the flaky
/// one; it stalls mid-query and the scheduler hedges onto the steady
/// backup. Run under the full corrective executor (which also publishes
/// the federated delivery rates into the re-optimizer's catalog) and
/// compare against plain local execution.
#[test]
fn preferred_mirror_stall_fails_over_without_loss_or_dup() {
    let d = flights::generate(500, 3000, 1, 11);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    let mut catalog = FederatedCatalog::new(FederationConfig::default());
    for (rel, name, schema, rows) in tables(&d) {
        catalog
            .register(
                vec![0],
                delayed(
                    rel,
                    format!("{name}-flaky"),
                    schema.clone(),
                    rows.clone(),
                    &flaky_model(7 ^ u64::from(rel)),
                ),
            )
            .unwrap();
        catalog
            .register(
                vec![0],
                delayed(
                    rel,
                    format!("{name}-steady"),
                    schema,
                    rows.clone(),
                    &steady_model(),
                ),
            )
            .unwrap();
    }
    let mut sources = catalog.into_sources().unwrap();

    let exec = CorrectiveExec::new(
        q,
        CorrectiveConfig {
            batch_size: 256,
            cpu: CpuCostModel::Zero,
            poll_every_batches: 3,
            warmup_batches: 2,
            min_remaining_fraction: 0.0,
            ..Default::default()
        },
    );
    let report = exec.run(&mut sources).unwrap();
    assert_eq!(
        canonicalize_approx(&report.rows),
        expected,
        "federated corrective answer diverged from local execution"
    );

    let reports = fed_reports(&sources);
    assert_eq!(reports.len(), 3);
    let sizes = [d.flights.len(), d.travelers.len(), d.children.len()];
    let mut total_failovers = 0;
    for r in &reports {
        let size = match r.rel_id {
            flights::FLIGHTS => sizes[0],
            flights::TRAVELERS => sizes[1],
            _ => sizes[2],
        };
        assert_eq!(
            r.delivered as usize, size,
            "{}: engine must see each tuple exactly once",
            r.name
        );
        total_failovers += r.failovers;
    }
    assert!(
        total_failovers >= 1,
        "the flaky mirrors' outages must trigger at least one failover"
    );
    let deduped: u64 = reports
        .iter()
        .flat_map(|r| r.candidates.iter().map(|c| c.duplicates))
        .sum();
    assert!(deduped > 0, "hedged mirrors must overlap and be deduped");
}

/// Overlapping partial replicas jointly covering a relation behave like
/// one complete source.
#[test]
fn overlapping_partial_replicas_union_to_full_relation() {
    let d = flights::generate(300, 2000, 1, 23);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    let mut catalog = FederatedCatalog::new(FederationConfig::default());
    for (rel, name, schema, rows) in tables(&d) {
        if rel == flights::TRAVELERS {
            // Two overlapping halves: [0, 60%) and [40%, 100%).
            let cut_hi = rows.len() * 6 / 10;
            let cut_lo = rows.len() * 4 / 10;
            for (suffix, slice, model) in [
                ("head", &rows[..cut_hi], flaky_model(5)),
                ("tail", &rows[cut_lo..], steady_model()),
            ] {
                catalog
                    .register(
                        vec![0],
                        Box::new(PartialReplica::new(delayed(
                            rel,
                            format!("{name}-{suffix}"),
                            schema.clone(),
                            slice.to_vec(),
                            &model,
                        ))),
                    )
                    .unwrap();
            }
        } else {
            catalog
                .register(
                    vec![0],
                    delayed(rel, name.into(), schema, rows.clone(), &steady_model()),
                )
                .unwrap();
        }
    }
    let mut sources = catalog.into_sources().unwrap();
    let run = run_static(
        &q,
        &mut sources,
        OptimizerContext::no_statistics(),
        256,
        CpuCostModel::Zero,
    )
    .unwrap();
    assert_eq!(canonicalize_approx(&run.rows), expected);

    let reports = fed_reports(&sources);
    let travelers = reports
        .iter()
        .find(|r| r.rel_id == flights::TRAVELERS)
        .unwrap();
    assert_eq!(travelers.delivered as usize, d.travelers.len());
    assert!(
        travelers.candidates.iter().all(|c| c.activated),
        "both partial replicas must be read to cover the relation"
    );
}

/// Gate-aware standby ordering: when the primary goes dark, the hedge
/// gate scores *every* parked standby with its declared rate and wakes
/// the best payer — so the wake decision is invariant under the
/// registration order of the standbys (the legacy rule always raced
/// whichever standby registered first).
#[test]
fn gate_aware_standby_wake_is_registration_order_invariant() {
    let rows: Vec<Tuple> = (0..120)
        .map(|k| Tuple::new(vec![tukwila::relation::Value::Int(k)]))
        .collect();
    let schema = Schema::new(vec![tukwila::relation::Field::new(
        "t.k",
        tukwila::relation::DataType::Int,
    )]);
    let dead = || -> Box<dyn Source> {
        // The primary never delivers: its first tuple is eons away.
        Box::new(DelayedSource::new(
            1,
            "dead-primary",
            schema.clone(),
            rows.clone(),
            &DelayModel::Bandwidth {
                bytes_per_sec: 1e-3,
                initial_latency_us: u32::MAX as u64,
            },
        ))
    };
    let standby = |name: &str, declared: f64| -> Box<dyn Source> {
        Box::new(DeclaredRate::new(
            Box::new(DelayedSource::new(
                1,
                name,
                schema.clone(),
                rows.clone(),
                &steady_model(),
            )),
            declared,
        ))
    };

    for reversed in [false, true] {
        let mut candidates = vec![dead()];
        if reversed {
            candidates.push(standby("fast", 100_000.0));
            candidates.push(standby("slow", 50.0));
        } else {
            candidates.push(standby("slow", 50.0));
            candidates.push(standby("fast", 100_000.0));
        }
        let mut fed =
            FederatedSource::new(vec![0], candidates, FederationConfig::default()).unwrap();
        // Drive like the virtual-clock driver: poll, jump to next_ready.
        let mut now = 0u64;
        let mut got = 0usize;
        loop {
            match fed.poll(now, 64) {
                tukwila::source::Poll::Ready(batch) => got += batch.len(),
                tukwila::source::Poll::Pending { next_ready_us } => now = next_ready_us,
                tukwila::source::Poll::Eof => break,
            }
        }
        assert_eq!(got, rows.len(), "union complete despite the dead primary");
        let report = fed.report();
        let by_name = |n: &str| {
            report
                .candidates
                .iter()
                .find(|c| c.descriptor.name == n)
                .unwrap()
        };
        assert!(
            by_name("fast").activated,
            "reversed={reversed}: the fast-declared standby must be woken"
        );
        assert!(
            !by_name("slow").activated,
            "reversed={reversed}: the slow-declared standby must stay parked \
             (the gate wakes the best payer, not the next registered)"
        );
    }
}

/// Build the candidate catalog for each federation scenario this suite
/// covers, so the dual-clock equivalence test can replay all of them
/// under both clocks.
fn scenario_catalog(name: &str, d: &FlightsData, seed: u64) -> FederatedCatalog {
    let mut catalog = FederatedCatalog::new(FederationConfig::default());
    match name {
        // Every relation: a flaky preferred mirror plus a steady backup.
        "mirrors" => {
            for (rel, name, schema, rows) in tables(d) {
                catalog
                    .register(
                        vec![0],
                        delayed(
                            rel,
                            format!("{name}-flaky"),
                            schema.clone(),
                            rows.clone(),
                            &flaky_model(seed ^ u64::from(rel)),
                        ),
                    )
                    .unwrap();
                catalog
                    .register(
                        vec![0],
                        delayed(
                            rel,
                            format!("{name}-steady"),
                            schema,
                            rows.clone(),
                            &steady_model(),
                        ),
                    )
                    .unwrap();
            }
        }
        // TRAVELERS split into two overlapping partial replicas.
        "partial" => {
            for (rel, name, schema, rows) in tables(d) {
                if rel == flights::TRAVELERS {
                    let cut_hi = rows.len() * 6 / 10;
                    let cut_lo = rows.len() * 4 / 10;
                    for (suffix, slice, model) in [
                        ("head", &rows[..cut_hi], flaky_model(seed)),
                        ("tail", &rows[cut_lo..], steady_model()),
                    ] {
                        catalog
                            .register(
                                vec![0],
                                Box::new(PartialReplica::new(delayed(
                                    rel,
                                    format!("{name}-{suffix}"),
                                    schema.clone(),
                                    slice.to_vec(),
                                    &model,
                                ))),
                            )
                            .unwrap();
                    }
                } else {
                    catalog
                        .register(
                            vec![0],
                            delayed(rel, name.into(), schema, rows.clone(), &steady_model()),
                        )
                        .unwrap();
                }
            }
        }
        // Three full mirrors of mixed behavior per relation.
        "triple" => {
            let models = [
                flaky_model(seed ^ 0xA5),
                steady_model(),
                DelayModel::Wireless {
                    bytes_per_sec: 80_000.0,
                    burst_ms: 20.0,
                    gap_ms: 40.0,
                    seed: seed ^ 0x5A,
                },
            ];
            for (rel, name, schema, rows) in tables(d) {
                for (m, model) in models.iter().enumerate() {
                    catalog
                        .register(
                            vec![0],
                            delayed(
                                rel,
                                format!("{name}-m{m}"),
                                schema.clone(),
                                rows.clone(),
                                model,
                            ),
                        )
                        .unwrap();
                }
            }
        }
        other => panic!("unknown scenario {other}"),
    }
    catalog
}

/// The dual-clock equivalence property: every scenario of this suite,
/// with a fixed seed, must produce the identical deduped answer whether
/// the mirrors are polled sequentially under the deterministic virtual
/// clock or race on real threads against an accelerated wall clock.
#[test]
fn dual_clock_equivalence_across_all_scenarios() {
    let d = flights::generate(200, 1200, 1, 41);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    for scenario in ["mirrors", "partial", "triple"] {
        // Virtual: deterministic sequential run.
        let mut virt = scenario_catalog(scenario, &d, 41).into_sources().unwrap();
        let virt_run = run_static(
            &q,
            &mut virt,
            OptimizerContext::no_statistics(),
            256,
            CpuCostModel::Zero,
        )
        .unwrap();
        let virt_answer = canonicalize_approx(&virt_run.rows);
        assert_eq!(virt_answer, expected, "{scenario}: virtual run diverged");

        // Threaded: same candidates, real producer threads, real racing.
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
        let mut threaded = scenario_catalog(scenario, &d, 41)
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
            "{scenario}: threaded answer diverged from the virtual-clock answer"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any permutation of the candidate mirrors — and any mix of delivery
    /// behaviors — yields the same final answer under the virtual clock.
    #[test]
    fn any_source_permutation_yields_same_answer(
        seed in 0u64..500,
        perm in prop::sample::select(vec![
            [0usize, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0],
        ]),
        n_flights in 30usize..120,
        n_travelers in 50usize..400,
    ) {
        let d = flights::generate(n_flights, n_travelers, 1, seed);
        let q = flights::query();
        let expected = mem_answer(&d, &q);

        let models = [
            flaky_model(seed ^ 0xA5),
            steady_model(),
            DelayModel::Wireless {
                bytes_per_sec: 80_000.0,
                burst_ms: 20.0,
                gap_ms: 40.0,
                seed: seed ^ 0x5A,
            },
        ];
        let mut catalog = FederatedCatalog::new(FederationConfig::default());
        for (rel, name, schema, rows) in tables(&d) {
            for &m in &perm {
                catalog.register(
                    vec![0],
                    delayed(
                        rel,
                        format!("{name}-m{m}"),
                        schema.clone(),
                        rows.clone(),
                        &models[m],
                    ),
                ).unwrap();
            }
        }
        let mut sources = catalog.into_sources().unwrap();
        let run = run_static(
            &q,
            &mut sources,
            OptimizerContext::no_statistics(),
            128,
            CpuCostModel::Zero,
        ).unwrap();
        prop_assert_eq!(
            canonicalize_approx(&run.rows),
            expected,
            "permutation {:?} changed the answer", perm
        );
        for r in fed_reports(&sources) {
            prop_assert_eq!(r.candidates.len(), 3);
        }
    }
}

// ------------------------------------------------------------------ splits

/// A key-sorted relation of `n` rows, `(k1, k2, v)`. With `composite` the
/// key is `(k1, k2)` shaped like LINEITEM's (orderkey, linenumber): 1–7
/// lines per sparse order key. Otherwise the key is the sparse `k1`
/// alone and `k2` is noise.
fn keyed_rows(n: usize, composite: bool, seed: u64) -> (Schema, Vec<usize>, Vec<Tuple>) {
    let schema = Schema::new(vec![
        Field::new("r.k1", DataType::Int),
        Field::new("r.k2", DataType::Int),
        Field::new("r.v", DataType::Int),
    ]);
    let mut x = seed | 1;
    let mut next = move |m: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % m
    };
    let (mut rows, mut k1) = (Vec::with_capacity(n), 0i64);
    while rows.len() < n {
        k1 += 1 + next(5) as i64;
        let lines = if composite { 1 + next(7) as i64 } else { 1 };
        for line in 1..=lines {
            if rows.len() < n {
                let k2 = if composite { line } else { next(3) as i64 };
                rows.push(Tuple::new(vec![
                    Value::Int(k1),
                    Value::Int(k2),
                    Value::Int(k1 * 10 + k2),
                ]));
            }
        }
    }
    let key_cols = if composite { vec![0, 1] } else { vec![0] };
    (schema, key_cols, rows)
}

/// How a split property perturbs one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Twist {
    /// Delivers as its delay model says.
    Plain,
    /// Declares `key_scan` (its descriptor is forwarded) but refuses every
    /// request, like a wrapper that does not forward `control`.
    Refuses,
    /// Goes silent forever after this many tuples.
    DiesAfter(usize),
    /// Takes a key-scan request but keeps delivering in storage order.
    IgnoresOrder,
}

/// A [`DelayedSource`] mirror under a [`Twist`]; with `refuses` it also
/// refuses every request.
struct Twisted {
    inner: DelayedSource,
    twist: Twist,
    refuses: bool,
    sent: usize,
}

impl Source for Twisted {
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
        let max_tuples = match self.twist {
            Twist::DiesAfter(k) if self.sent >= k => {
                return Poll::Pending {
                    next_ready_us: u64::MAX,
                }
            }
            Twist::DiesAfter(k) => max_tuples.min(k - self.sent),
            _ => max_tuples,
        };
        let polled = self.inner.poll(now_us, max_tuples);
        if let Poll::Ready(b) = &polled {
            self.sent += b.len();
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
        match self.twist {
            Twist::Refuses => Err(tukwila::relation::Error::Exec("refused".into())),
            _ if self.refuses => Err(tukwila::relation::Error::Exec("refused".into())),
            Twist::IgnoresOrder => Ok(()),
            Twist::Plain | Twist::DiesAfter(_) => self.inner.control(now_us, request),
        }
    }
}

/// Drain an inline federated source on its virtual timeline.
fn drain_fed(fed: &mut FederatedSource) -> Vec<Tuple> {
    let (mut clock, mut out) = (0u64, Vec::new());
    for _ in 0..1_000_000 {
        match fed.poll(clock, 64) {
            Poll::Ready(batch) => out.extend(batch),
            Poll::Pending { next_ready_us } => {
                assert!(next_ready_us > clock, "pending must move the clock");
                clock = next_ready_us;
            }
            Poll::Eof => return out,
        }
    }
    panic!("the federated source never finished");
}

/// Sorted keys of `rows`, asserting each key appears once.
fn keys_once(rows: &[Tuple], key_cols: &[usize]) -> Vec<Vec<i64>> {
    let mut keys: Vec<Vec<i64>> = rows
        .iter()
        .map(|t| {
            key_cols
                .iter()
                .map(|&c| t.get(c).as_int().unwrap())
                .collect()
        })
        .collect();
    keys.sort();
    let n = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), n, "a key was delivered twice");
    keys
}

/// The split scenarios: which candidates exist and how each is twisted.
/// Candidates are a flaky primary, a steady standby and, in the
/// both-die case, a slow remote that must finish the relation.
fn split_candidates(case: usize, seed: u64, (k, j): (usize, usize)) -> Vec<(DelayModel, Twist)> {
    let flaky = DelayModel::Wireless {
        bytes_per_sec: 20_000.0 + (seed % 180) as f64 * 1_000.0,
        burst_ms: 1.0 + (seed % 19) as f64,
        gap_ms: 5.0 + (seed % 95) as f64,
        seed,
    };
    let steady = DelayModel::Bandwidth {
        bytes_per_sec: 10_000.0 + (seed % 90) as f64 * 1_000.0,
        initial_latency_us: seed % 5_000,
    };
    let remote = DelayModel::Bandwidth {
        bytes_per_sec: 5_000.0,
        initial_latency_us: 20_000,
    };
    match case {
        0 => vec![(flaky, Twist::Plain), (steady, Twist::Plain)],
        1 => vec![(flaky, Twist::DiesAfter(k)), (steady, Twist::Refuses)],
        2 => vec![(flaky, Twist::DiesAfter(k)), (steady, Twist::Plain)],
        3 => vec![(flaky, Twist::Plain), (steady, Twist::DiesAfter(j))],
        4 => vec![
            (flaky, Twist::DiesAfter(k)),
            (steady, Twist::DiesAfter(j)),
            (remote, Twist::Plain),
        ],
        _ => vec![(flaky, Twist::DiesAfter(k)), (steady, Twist::IgnoresOrder)],
    }
}

/// Build the federated source over `candidates`; with `race`, every
/// candidate refuses requests, so hedges race as they did before splits.
fn split_fed(
    rows: &[Tuple],
    schema: &Schema,
    key_cols: &[usize],
    candidates: &[(DelayModel, Twist)],
    race: bool,
) -> FederatedSource {
    let sources = candidates
        .iter()
        .enumerate()
        .map(|(i, (model, twist))| {
            let inner =
                DelayedSource::new(1, format!("m{i}"), schema.clone(), rows.to_vec(), model);
            Box::new(Twisted {
                inner,
                twist: *twist,
                refuses: race,
                sent: 0,
            }) as Box<dyn Source>
        })
        .collect();
    FederatedSource::new(key_cols.to_vec(), sources, FederationConfig::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Split delivery returns the race's answer, which is the relation:
    /// every key exactly once, whatever the schedules, stall points and
    /// refusals. A split side that breaks its key order fails loudly
    /// instead of completing early.
    #[test]
    fn split_matches_race_and_ground_truth(
        seed in 1u64..1_000_000,
        n in 2usize..160,
        composite in 0usize..2,
        case in 0usize..6,
        k_frac in 0usize..100,
        j_frac in 0usize..100,
    ) {
        let (schema, key_cols, rows) = keyed_rows(n, composite == 1, seed);
        let truth = keys_once(&rows, &key_cols);
        // Death points strictly inside the relation, so the other side
        // has something left to do.
        let (k, j) = (k_frac * (n - 1) / 100, j_frac * (n - 1) / 100);
        let candidates = split_candidates(case, seed, (k, j));

        let mut race = split_fed(&rows, &schema, &key_cols, &candidates, true);
        let raced = keys_once(&drain_fed(&mut race), &key_cols);
        prop_assert_eq!(&raced, &truth, "the race lost or invented keys");
        prop_assert!(!race.report().split, "refused requests never split");

        let mut fed = split_fed(&rows, &schema, &key_cols, &candidates, false);
        if case == 5 {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drain_fed(&mut fed)));
            let err = run.expect_err("an out-of-order split side must fail, not truncate");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            prop_assert!(msg.contains("out of its requested"), "unexpected panic: {}", msg);
            return Ok(());
        }
        let split = keys_once(&drain_fed(&mut fed), &key_cols);
        prop_assert_eq!(&split, &raced, "split and race answers differ");
        let report = fed.report();
        match case {
            1 => prop_assert!(!report.split, "a refused request must race"),
            // A dead primary is hedged, and the hedge splits.
            2 => prop_assert!(report.split, "the dead primary's hedge must split"),
            _ => {}
        }
        if report.split && case != 4 {
            // Only the batch that crossed the meeting point can repeat
            // keys; in the both-die case the remote races on purpose.
            let dupes: u64 = report.candidates.iter().map(|c| c.duplicates).sum();
            prop_assert!(dupes <= 64, "case {}: a split re-sent {} tuples", case, dupes);
        }
    }
}
