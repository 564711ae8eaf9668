//! Wall-clock concurrent federation: correctness of real-thread racing.
//!
//! Three layers of assurance, matching the dual-clock design:
//!
//! 1. **Queue layer** — a property test drives arbitrary interleavings of
//!    per-lane batch arrivals through `exec::queue_pair` (random lane
//!    counts, capacities, batch splits, and writer-drop/EOF edge cases)
//!    and asserts the consumer reassembles exactly the sent multiset —
//!    no loss, no duplicates, and `TryRecv::Closed` only after the final
//!    buffered batch.
//! 2. **Engine layer** — the full corrective executor runs over threaded
//!    federated mirrors on an accelerated wall clock and must agree with
//!    plain local execution (the dual-clock scenario sweep lives in
//!    `tests/federation.rs`).
//! 3. **Soak** — an `--ignored`-by-default stress run (N mirrors × M
//!    relations × 10k tuples) for CI's dedicated threaded job.

use std::sync::Arc;

use proptest::prelude::*;

use tukwila::core::{CorrectiveConfig, CorrectiveExec};
use tukwila::datagen::flights::{self, FlightsData};
use tukwila::exec::op::IncOp;
use tukwila::exec::queue::{queue_pair, TryRecv};
use tukwila::exec::reference::canonicalize_approx;
use tukwila::exec::CpuCostModel;
use tukwila::federation::{FederatedCatalog, FederatedSource, FederationConfig};
use tukwila::relation::{DataType, Field, Schema, Tuple, Value};
use tukwila::source::{DelayModel, DelayedSource, Poll, Source};
use tukwila::stats::{Clock, WallClock};

mod common;
use common::{mem_answer, tables};

fn kv_schema() -> Schema {
    Schema::new(vec![
        Field::new("t.k", DataType::Int),
        Field::new("t.v", DataType::Int),
    ])
}

fn kv(k: i64) -> Tuple {
    Tuple::new(vec![Value::Int(k), Value::Int(k * 10)])
}

// ---------------------------------------------------------------------
// Queue layer
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of per-lane batch arrivals through `queue_pair`
    /// yields the same final relation: every sent tuple exactly once per
    /// lane, reassembled in per-lane order, regardless of thread timing,
    /// queue capacity, batch splits — or a writer dropping mid-stream
    /// without `finish()`.
    #[test]
    fn queue_interleavings_lose_nothing_duplicate_nothing(
        lanes in 1usize..5,
        capacity in 1usize..6,
        per_lane in 1usize..120,
        batch_hint in 1usize..17,
        drop_mask in 0u32..16,
    ) {
        let mut handles = Vec::new();
        let mut readers = Vec::new();
        for lane in 0..lanes {
            let (mut writer, reader) = queue_pair(kv_schema(), capacity);
            readers.push(reader);
            // Lanes whose drop_mask bit is set drop the writer without
            // finish() — the dying-producer edge case. Everything they
            // *sent* must still arrive.
            let clean_finish = drop_mask & (1 << lane) == 0;
            handles.push(std::thread::spawn(move || {
                let base = lane as i64 * 1_000_000;
                let mut sent = 0usize;
                while sent < per_lane {
                    // Vary batch sizes per lane so splits differ.
                    let n = (batch_hint + lane).min(per_lane - sent);
                    let batch: Vec<Tuple> =
                        (sent..sent + n).map(|i| kv(base + i as i64)).collect();
                    writer.send(batch).unwrap();
                    sent += n;
                }
                if clean_finish {
                    writer.finish(&mut Vec::new()).unwrap();
                }
                // else: writer dropped here, mid-stream as far as the
                // protocol is concerned.
            }));
        }

        // Multiplexing consumer: non-blocking sweeps over every lane,
        // exactly the shape the threaded federation consumer uses. This
        // only terminates correctly because Empty and Closed are
        // distinguishable.
        let mut got: Vec<Vec<i64>> = vec![Vec::new(); lanes];
        let mut closed = vec![false; lanes];
        while closed.iter().any(|c| !c) {
            let mut progressed = false;
            for (lane, reader) in readers.iter().enumerate() {
                if closed[lane] {
                    continue;
                }
                match reader.try_recv_status() {
                    TryRecv::Batch(b) => {
                        progressed = true;
                        got[lane].extend(b.iter().map(|t| t.get(0).as_int().unwrap()));
                    }
                    TryRecv::Empty => {}
                    TryRecv::Closed => {
                        progressed = true;
                        closed[lane] = true;
                    }
                }
            }
            if !progressed {
                std::thread::yield_now();
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        for (lane, keys) in got.iter().enumerate() {
            let base = lane as i64 * 1_000_000;
            let expected: Vec<i64> = (0..per_lane as i64).map(|i| base + i).collect();
            prop_assert_eq!(
                keys, &expected,
                "lane {} delivered a different relation (capacity {}, drop_mask {:#x})",
                lane, capacity, drop_mask
            );
        }
    }
}

// ---------------------------------------------------------------------
// Engine layer
// ---------------------------------------------------------------------

fn mirror_catalog(d: &FlightsData, seed: u64) -> FederatedCatalog {
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
                    &DelayModel::Wireless {
                        bytes_per_sec: 200_000.0,
                        burst_ms: 30.0,
                        gap_ms: 100.0,
                        seed: seed ^ u64::from(rel),
                    },
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
                    &DelayModel::Bandwidth {
                        bytes_per_sec: 50_000.0,
                        initial_latency_us: 1_000,
                    },
                )),
            )
            .unwrap();
    }
    catalog
}

/// The corrective executor — monitor, re-optimize, switch — driven off a
/// shared wall clock over threaded federated mirrors must still agree
/// with plain local execution, and the threaded adapters must have
/// published their observed delivery rates to it.
#[test]
fn threaded_corrective_matches_local_execution() {
    // Every relation holds more tuples than one producer batch (256), so
    // each adapter is guaranteed ≥2 queue batches — and therefore a
    // delivery-rate window — even if a starved producer thread ships its
    // whole backlog in one burst (possible on a loaded single-core host).
    let d = flights::generate(400, 1200, 1, 17);
    let expected = mem_answer(&d, &flights::query());

    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let mut sources = mirror_catalog(&d, 17)
        .into_concurrent_sources(clock.clone())
        .unwrap();
    let exec = CorrectiveExec::new(
        flights::query(),
        CorrectiveConfig {
            batch_size: 256,
            cpu: CpuCostModel::Measured,
            poll_every_batches: 3,
            warmup_batches: 2,
            min_remaining_fraction: 0.0,
            clock: Some(clock),
            ..Default::default()
        },
    );
    let report = exec.run(&mut sources).unwrap();
    assert_eq!(
        canonicalize_approx(&report.rows),
        expected,
        "threaded corrective answer diverged from local execution"
    );
    for s in &sources {
        let fed = s
            .as_any()
            .and_then(|a| a.downcast_ref::<FederatedSource>())
            .expect("all sources are threaded federated");
        let r = fed.report();
        let size = match r.rel_id {
            flights::FLIGHTS => d.flights.len(),
            flights::TRAVELERS => d.travelers.len(),
            _ => d.children.len(),
        };
        assert_eq!(
            r.delivered as usize, size,
            "{}: engine must see each tuple exactly once",
            r.name
        );
        assert!(
            s.observed_rate().is_some(),
            "threaded adapter must profile its delivery rate: {r:?}"
        );
    }
}

/// A full mirror reaching EOF ends the federated stream even while a
/// sibling lane is mid-delivery — and shutdown must reap every producer
/// thread rather than leak it.
#[test]
fn threaded_early_completion_reaps_producers() {
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(500.0));
    let fast: Box<dyn Source> = Box::new(DelayedSource::new(
        1,
        "fast",
        kv_schema(),
        (0..500).map(kv).collect(),
        &DelayModel::Bandwidth {
            bytes_per_sec: 5e6,
            initial_latency_us: 100,
        },
    ));
    let slow: Box<dyn Source> = Box::new(DelayedSource::new(
        1,
        "slow",
        kv_schema(),
        (0..500).map(kv).collect(),
        &DelayModel::Bandwidth {
            bytes_per_sec: 5e4,
            initial_latency_us: 100,
        },
    ));
    let cfg = FederationConfig {
        // Aggressive hedging so both lanes race almost immediately.
        min_stall_us: 1_000,
        ..Default::default()
    };
    let mut fed = FederatedSource::threaded(vec![0], vec![fast, slow], cfg, clock.clone()).unwrap();
    let mut keys: Vec<i64> = Vec::new();
    loop {
        match fed.poll(clock.now_us(), 128) {
            Poll::Ready(batch) => keys.extend(batch.iter().map(|t| t.get(0).as_int().unwrap())),
            Poll::Pending { next_ready_us } => {
                clock.sleep_toward(next_ready_us);
            }
            Poll::Eof => break,
        }
    }
    keys.sort_unstable();
    let n = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), n, "no duplicates");
    assert_eq!(keys, (0..500).collect::<Vec<_>>(), "no losses");
    // Dropping after Eof must return promptly (threads already joined).
    let start = std::time::Instant::now();
    drop(fed);
    assert!(start.elapsed() < std::time::Duration::from_secs(1));
}

// ---------------------------------------------------------------------
// Soak (CI's dedicated threaded job; --ignored by default)
// ---------------------------------------------------------------------

/// N mirrors × M relations × 10k tuples of sustained racing: every
/// relation must deliver its exact key set, with hedging actually
/// overlapping (duplicates deduped) and no thread leaked across
/// iterations.
#[test]
#[ignore = "threaded soak — run explicitly: cargo test --release --test concurrent -- --ignored"]
fn soak_threaded_federation_n_mirrors_m_relations() {
    const RELATIONS: u32 = 3;
    const MIRRORS: usize = 4;
    const TUPLES: i64 = 10_000;
    const ROUNDS: usize = 3;

    for round in 0..ROUNDS {
        // Moderate acceleration: the wireless gaps (tens of timeline ms)
        // must span many real consumer polls, so stalls are genuinely
        // observed and the standbys genuinely race.
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(100.0));
        let mut feds: Vec<FederatedSource> = (1..=RELATIONS)
            .map(|rel| {
                let candidates: Vec<Box<dyn Source>> = (0..MIRRORS)
                    .map(|m| {
                        // Mirror speeds differ per (relation, mirror, round)
                        // so each round races a different shape.
                        let bps = 2e5 * (1.0 + ((m + round) % MIRRORS) as f64);
                        Box::new(DelayedSource::new(
                            rel,
                            format!("r{rel}-m{m}"),
                            kv_schema(),
                            (0..TUPLES).map(kv).collect(),
                            &DelayModel::Wireless {
                                bytes_per_sec: bps,
                                burst_ms: 20.0,
                                gap_ms: 60.0,
                                seed: rel as u64 * 31 + m as u64 + round as u64 * 101,
                            },
                        )) as Box<dyn Source>
                    })
                    .collect();
                let cfg = FederationConfig {
                    // Hedge eagerly: the point is maximum concurrent churn.
                    min_stall_us: 2_000,
                    ..Default::default()
                };
                FederatedSource::threaded(vec![0], candidates, cfg, clock.clone()).unwrap()
            })
            .collect();

        // Interleave the relations like a driver would: round-robin polls.
        let mut done = vec![false; feds.len()];
        let mut keys: Vec<Vec<i64>> = vec![Vec::new(); feds.len()];
        while done.iter().any(|d| !d) {
            let mut wake: Option<u64> = None;
            let mut any = false;
            for (i, fed) in feds.iter_mut().enumerate() {
                if done[i] {
                    continue;
                }
                match fed.poll(clock.now_us(), 512) {
                    Poll::Ready(batch) => {
                        any = true;
                        keys[i].extend(batch.iter().map(|t| t.get(0).as_int().unwrap()));
                    }
                    Poll::Pending { next_ready_us } => {
                        wake = Some(wake.map_or(next_ready_us, |w| w.min(next_ready_us)));
                    }
                    Poll::Eof => {
                        any = true;
                        done[i] = true;
                    }
                }
            }
            if !any {
                if let Some(w) = wake {
                    clock.sleep_toward(w);
                }
            }
        }

        let mut total_dupes = 0;
        for (i, fed) in feds.iter().enumerate() {
            let mut k = std::mem::take(&mut keys[i]);
            let delivered = k.len();
            k.sort_unstable();
            k.dedup();
            assert_eq!(
                k.len(),
                delivered,
                "round {round}, rel {i}: duplicates leaked"
            );
            assert_eq!(
                k,
                (0..TUPLES).collect::<Vec<_>>(),
                "round {round}, rel {i}: lost tuples"
            );
            let r = fed.report();
            total_dupes += r.candidates.iter().map(|c| c.duplicates).sum::<u64>();
        }
        assert!(
            total_dupes > 0,
            "round {round}: mirrors never overlapped — the race isn't racing"
        );
        drop(feds);
    }
}
