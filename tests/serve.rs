//! The cross-query serving battery: dual-clock equivalence of a served
//! fleet, cross-query learning (warm hedges, invariant answers), the
//! core-budget arbiter's ledger invariants under randomized op
//! sequences, and the `--ignored` serving soak.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;

use tukwila::datagen::flights::{self, FlightsData};
use tukwila::federation::{DeclaredRate, FederatedCatalog, FederationConfig};
use tukwila::serve::{QuerySpec, ServeMode, Server, ServerConfig};
use tukwila::source::{DelayModel, DelayedSource, Source};
use tukwila::stats::{hedge_signatures, CoreArbiter, QueryLease, TraceEvent, TraceRecord};

mod common;
use common::{mem_answer, tables};

/// Timeline patience of a cold query: the first stall of an unknown
/// candidate is declared only after this much silence.
const COLD_STALL_US: u64 = 2_000_000;
/// Patience once past queries learned the candidate dead: 20× tighter.
const WARM_STALL_US: u64 = 100_000;

/// The serving scenario's federation knobs — the same shape as the
/// `repro serve` scenario: conservative cold patience (so wall-clock
/// jitter cannot fake a stall) and a warm floor that lets learning
/// reprice the wait.
fn server_config() -> ServerConfig {
    ServerConfig {
        federation: FederationConfig {
            min_stall_us: COLD_STALL_US,
            stall_sigma: 8.0,
            warm_stall_us: Some(WARM_STALL_US),
            ..FederationConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// One serving query over the degraded mirror set: every relation has a
/// dead primary (silent forever), a slow declared-rate standby, and a
/// fast one. All links are connect-on-demand ([`DelayedSource::anchored`])
/// so *when* the hedge wakes a standby moves the completion time — the
/// quantity cross-query learning improves.
fn degraded_spec(d: Arc<FlightsData>, name: &str) -> QuerySpec {
    QuerySpec::new(name, flights::query(), move |fed| {
        let mut catalog = FederatedCatalog::new(fed);
        for (rel, tname, schema, rows) in tables(&d) {
            let delayed = |suffix: &str, model: &DelayModel| -> Box<dyn Source> {
                Box::new(
                    DelayedSource::new(
                        rel,
                        format!("{tname}-{suffix}"),
                        schema.clone(),
                        rows.clone(),
                        model,
                    )
                    .anchored(),
                )
            };
            catalog.register(
                vec![0],
                delayed(
                    "dead",
                    &DelayModel::Bandwidth {
                        bytes_per_sec: 1e-3,
                        initial_latency_us: u32::MAX as u64,
                    },
                ),
            )?;
            let standby = |suffix: &str, bps: f64, declared: f64| -> Box<dyn Source> {
                Box::new(DeclaredRate::new(
                    delayed(
                        suffix,
                        &DelayModel::Bandwidth {
                            bytes_per_sec: bps,
                            initial_latency_us: 1_000,
                        },
                    ),
                    declared,
                ))
            };
            catalog.register(vec![0], standby("slow", 50_000.0, 50.0))?;
            catalog.register(vec![0], standby("fast", 200_000.0, 100_000.0))?;
        }
        Ok(catalog)
    })
}

/// One single-query admission wave per name — the sequence along which
/// learning flows.
fn waves(d: &Arc<FlightsData>, names: &[&str]) -> Vec<Vec<QuerySpec>> {
    names
        .iter()
        .map(|name| vec![degraded_spec(d.clone(), name)])
        .collect()
}

/// Per-relation hedge signatures with the adapter naming stripped (the
/// sequential adapter says `fed(F-dead×3)`, the threaded one
/// `fed-mt(F-dead×3)`): keys keep the `(first-candidate×n)` core, each
/// signature its `|stalled=…|chosen=…|fired=…` tail. What remains is
/// pure decision content.
fn normalized_signatures(records: &[TraceRecord]) -> BTreeMap<String, Vec<String>> {
    hedge_signatures(records)
        .into_iter()
        .map(|(rel, sigs)| {
            let key = rel[rel.find('(').unwrap_or(0)..].to_string();
            let tails: Vec<String> = sigs
                .iter()
                .map(|s| s[s.find('|').unwrap_or(0)..].to_string())
                .collect();
            (key, tails)
        })
        .collect()
}

/// Timeline instant of a query's first hedge-gate decision, from its
/// journal.
fn first_hedge_at_us(records: &[TraceRecord]) -> Option<u64> {
    records.iter().find_map(|r| match &r.event {
        TraceEvent::HedgeDecision { .. } => Some(r.at_us),
        _ => None,
    })
}

/// Dual-clock serving equivalence: an N-query serve run under
/// per-query [`tukwila::stats::VirtualClock`]s and the same waves racing
/// on real threads against one shared accelerated wall clock produce —
/// per query — identical canonical answers and identical per-relation
/// hedge-decision sequences. This extends the single-query dual-clock
/// contract across admission waves: the learning snapshot each wave sees
/// is fixed at admission, so the clock cannot change what is learned.
#[test]
fn dual_clock_serving_equivalence() {
    let d = Arc::new(flights::generate(300, 1500, 1, 13));
    let expected = mem_answer(&d, &flights::query());
    let names = ["s1", "s2", "s3"];

    let virt = Server::new(server_config())
        .serve(&waves(&d, &names), ServeMode::Virtual)
        .unwrap();
    let wall = Server::new(server_config())
        .serve(&waves(&d, &names), ServeMode::Threaded)
        .unwrap();

    assert_eq!(virt.queries(), names.len());
    assert_eq!(wall.queries(), names.len());
    for (v, w) in virt.outcomes.iter().zip(&wall.outcomes) {
        assert_eq!(v.name, w.name, "outcome order is admission order");
        assert_eq!(v.rows, expected, "virtual answer diverged ({})", v.name);
        assert_eq!(w.rows, expected, "threaded answer diverged ({})", w.name);
        let vsig = normalized_signatures(&v.records);
        let wsig = normalized_signatures(&w.records);
        assert_eq!(
            vsig.len(),
            3,
            "{}: every relation's scheduler must journal its hedge",
            v.name
        );
        assert_eq!(
            vsig, wsig,
            "{}: hedge-decision sequences must be clock-invariant",
            v.name
        );
        for (rel, sigs) in &vsig {
            assert_eq!(sigs.len(), 1, "{rel}: the stall latch fires once");
            assert!(
                sigs[0].contains("-dead") && sigs[0].contains("-fast"),
                "{rel}: dead primary stalls, fast standby chosen ({})",
                sigs[0]
            );
        }
    }
    // The serving effect is visible on both clocks: the cold first query
    // waits out the full patience, the warm last one does not.
    assert!(
        virt.outcomes[0].latency_us > virt.outcomes[2].latency_us,
        "virtual: warm query must be faster than the cold one"
    );
    assert!(
        wall.outcomes[0].latency_us > wall.outcomes[2].latency_us,
        "threaded: warm query must be faster than the cold one"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cross-query learning: whatever the data (seeded) and however many
    /// follower queries ride behind the cold one, every follower's first
    /// hedge fires off the learned profile — before the cold patience
    /// would even declare the stall — while every answer (shared or
    /// isolated catalog) stays byte-identical.
    #[test]
    fn cross_query_learning_reprices_hedges_not_answers(
        seed in 0u64..1_000,
        followers in 1usize..3,
    ) {
        let d = Arc::new(flights::generate(200, 900, 1, seed));
        let expected = mem_answer(&d, &flights::query());
        let names: Vec<String> = (0..=followers).map(|i| format!("q{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();

        let server = Server::new(server_config());
        let fleet = server
            .serve(&waves(&d, &name_refs), ServeMode::Virtual)
            .unwrap();
        prop_assert_eq!(fleet.queries(), names.len());

        let cold_hedge = first_hedge_at_us(&fleet.outcomes[0].records)
            .expect("the cold query must hedge off the dead primary");
        prop_assert!(
            cold_hedge >= COLD_STALL_US,
            "cold query pays the full patience (hedged at {cold_hedge} us)"
        );
        for o in &fleet.outcomes {
            prop_assert_eq!(&o.rows, &expected, "answer diverged ({})", &o.name);
        }
        for o in &fleet.outcomes[1..] {
            let warm_hedge = first_hedge_at_us(&o.records)
                .expect("warm queries must still hedge");
            prop_assert!(
                warm_hedge < COLD_STALL_US,
                "{}: first hedge must use the learned profile, not the cold \
                 floor (hedged at {warm_hedge} us)",
                &o.name
            );
            prop_assert!(
                o.latency_us < fleet.outcomes[0].latency_us,
                "{}: warm query must finish before the cold one",
                &o.name
            );
        }
        prop_assert!(
            server.learning().len() >= 3,
            "every relation's dead primary must be published"
        );

        // Isolated-catalog control: each query served alone by a fresh
        // server answers identically — learning moved timing only.
        for name in &name_refs {
            let iso = Server::new(server_config())
                .serve(&waves(&d, std::slice::from_ref(name)), ServeMode::Virtual)
                .unwrap();
            prop_assert_eq!(
                &iso.outcomes[0].rows, &expected,
                "isolated run diverged ({name})"
            );
        }
    }

    /// The arbiter's ledger invariants under randomized op sequences
    /// over several leases: Σ held equals the grant total, never exceeds
    /// the budget, grants never exceed the request, release clamps at
    /// held, and replacing (dropping) a lease reclaims its cores.
    #[test]
    fn arbiter_ledger_invariants_hold_under_random_ops(
        budget in 1usize..6,
        ops in prop::collection::vec((0usize..3, 0usize..3, 1usize..5), 1..120),
    ) {
        let arb = CoreArbiter::new(budget);
        let mut leases: Vec<QueryLease> = (0..3).map(|_| arb.lease()).collect();
        let mut held = [0usize; 3];
        for (l, action, n) in ops {
            match action {
                0 => {
                    let got = leases[l].try_acquire(n);
                    prop_assert!(got <= n, "never grants more than asked");
                    held[l] += got;
                }
                1 => {
                    let gave = leases[l].release(n);
                    prop_assert_eq!(gave, n.min(held[l]), "release clamps at held");
                    held[l] -= gave;
                }
                _ => {
                    // The query finished: its lease drops, a new one is
                    // admitted in its slot.
                    leases[l] = arb.lease();
                    held[l] = 0;
                }
            }
            prop_assert_eq!(leases[l].held(), held[l]);
            prop_assert!(arb.granted() <= budget, "Σ held ≤ budget, always");
            prop_assert_eq!(arb.granted(), held.iter().sum::<usize>());
        }
        leases.clear();
        prop_assert_eq!(arb.granted(), 0, "dropped leases return everything");
        prop_assert!(arb.registered() >= 3);
    }
}

/// A zero driver batch size is refused up front: a source asked for
/// zero tuples answers `Ready` with nothing forever, so serving it would
/// never finish.
#[test]
fn zero_batch_size_is_a_plan_error() {
    let d = Arc::new(flights::generate(20, 40, 1, 3));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let server = Server::new(ServerConfig {
            batch_size: 0,
            ..server_config()
        });
        let fleet = server.serve(&waves(&d, &["q1"]), ServeMode::Virtual);
        let _ = tx.send(fleet.map(|_| ()));
    });
    let served = rx
        .recv_timeout(std::time::Duration::from_secs(3))
        .expect("a zero batch size must not livelock the server");
    assert!(
        matches!(served, Err(tukwila::relation::Error::Plan(_))),
        "{served:?}"
    );
}

/// Serving soak: 8 queries over one shared 3-mirror catalog with
/// 10k-tuple base relations, virtual anchor plus a threaded leg. Run
/// with `cargo test -- --ignored serving_soak`.
#[test]
#[ignore = "serving soak (8 queries × shared 3-mirror catalog × 10k tuples); run with --ignored"]
fn serving_soak_eight_queries_shared_catalog() {
    let d = Arc::new(flights::generate(2_000, 8_000, 1, 17));
    let total: usize = tables(&d).iter().map(|(_, _, _, rows)| rows.len()).sum();
    assert!(total >= 10_000, "soak wants ≥10k base tuples, got {total}");
    let expected = mem_answer(&d, &flights::query());
    let names: Vec<String> = (1..=8).map(|i| format!("soak{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();

    let server = Server::new(server_config());
    let fleet = server
        .serve(&waves(&d, &name_refs), ServeMode::Virtual)
        .unwrap();
    assert_eq!(fleet.queries(), 8);
    for o in &fleet.outcomes {
        assert_eq!(o.rows, expected, "soak answer diverged ({})", o.name);
        assert!(
            o.summary.hedges_fired >= 1,
            "{}: every soak query must hedge off the dead primaries",
            o.name
        );
    }
    for o in &fleet.outcomes[1..] {
        assert!(
            o.latency_us < fleet.outcomes[0].latency_us,
            "{}: warm soak queries must beat the cold first one",
            o.name
        );
    }
    assert!(server.learning().len() >= 3);
    assert!(fleet.p50_latency_us() > 0);
    assert!(fleet.p99_latency_us() >= fleet.p50_latency_us());
    assert!(fleet.throughput_qps() > 0.0);

    // The threaded leg: same fleet racing on producer threads; answers
    // and decision sequences must survive the clock swap at soak scale.
    let wall = Server::new(server_config())
        .serve(&waves(&d, &name_refs), ServeMode::Threaded)
        .unwrap();
    for (v, w) in fleet.outcomes.iter().zip(&wall.outcomes) {
        assert_eq!(w.rows, v.rows, "soak threaded answer diverged ({})", w.name);
        assert_eq!(
            normalized_signatures(&v.records),
            normalized_signatures(&w.records),
            "soak decision sequences must be clock-invariant ({})",
            v.name
        );
    }
}
