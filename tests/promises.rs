//! Promise keeping on a virtual timeline: a `Pending { next_ready_us }`
//! answer promises that nothing changes before `next_ready_us`, so every
//! virtual poll loop — the `SimDriver`, the corrective phase loop, and the
//! federation sweep over inline lanes — skips inputs that are not due.
//!
//! Each input here sits behind a [`Strict`] wrapper that panics when it is
//! polled before its last hint. The runs must still produce the reference
//! executor's answer at the same virtual completion time as the engine
//! that polled every input on every sweep (pinned literals), and the
//! number of polls must stay within twice the ready batches plus the
//! loop's idle steps — the bound that fails if skipping quietly stops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tukwila::core::{run_static_with_driver, CorrectiveConfig, CorrectiveExec};
use tukwila::datagen::{queries, Dataset, DatasetConfig, TableId};
use tukwila::exec::reference::{canonicalize_approx, RefCol, RefJoin, RefQuery, RefRelation};
use tukwila::exec::{CpuCostModel, SimDriver};
use tukwila::federation::{FederatedCatalog, FederatedSource, FederationConfig};
use tukwila::optimizer::OptimizerContext;
use tukwila::relation::agg::AggFunc;
use tukwila::relation::Schema;
use tukwila::serve::{QuerySpec, ServeMode, Server, ServerConfig};
use tukwila::source::{DelayModel, DelayedSource, Poll, Source, SourceProgressView};
use tukwila::stats::ArrivalSchedule;

/// Poll accounting shared by every [`Strict`] wrapper of one run.
#[derive(Default)]
struct Tally {
    polls: AtomicU64,
    ready: AtomicU64,
    /// Polls at a later instant than the poll before them, across all
    /// wrappers: the times the timeline moved between polls.
    moves: AtomicU64,
    last_at: AtomicU64,
}

impl Tally {
    fn polls(&self) -> u64 {
        self.polls.load(Ordering::Relaxed)
    }

    fn ready(&self) -> u64 {
        self.ready.load(Ordering::Relaxed)
    }
}

/// Forwards to the wrapped source, but panics when polled before the
/// hint of its last `Pending` answer.
struct Strict {
    inner: Box<dyn Source>,
    promise: Option<u64>,
    tally: Arc<Tally>,
}

impl Strict {
    fn wrap(inner: Box<dyn Source>, tally: &Arc<Tally>) -> Box<dyn Source> {
        Box::new(Strict {
            inner,
            promise: None,
            tally: tally.clone(),
        })
    }
}

impl Source for Strict {
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
        if let Some(promise) = self.promise {
            assert!(
                now_us >= promise,
                "{} polled at {now_us} µs, before its promise of {promise} µs",
                self.inner.name()
            );
        }
        let t = &self.tally;
        t.polls.fetch_add(1, Ordering::Relaxed);
        if t.last_at.fetch_max(now_us, Ordering::Relaxed) < now_us {
            t.moves.fetch_add(1, Ordering::Relaxed);
        }
        let polled = self.inner.poll(now_us, max_tuples);
        if matches!(&polled, Poll::Ready(b) if !b.is_empty()) {
            t.ready.fetch_add(1, Ordering::Relaxed);
        }
        self.promise = polled.pending_hint();
        polled
    }

    fn progress(&self) -> SourceProgressView {
        self.inner.progress()
    }

    fn descriptor(&self) -> tukwila::source::SourceDescriptor {
        self.inner.descriptor()
    }

    fn quiesce_delivery(&mut self) {
        self.inner.quiesce_delivery();
    }

    fn resume_delivery(&mut self, now_us: u64) {
        self.inner.resume_delivery(now_us);
    }

    fn recalibrate_delivery_costs(&mut self, costs: &tukwila::stats::DeliveryCosts) {
        self.inner.recalibrate_delivery_costs(costs);
    }

    fn observed_rate(&self) -> Option<f64> {
        self.inner.observed_rate()
    }

    fn observed_schedule(&self) -> Option<ArrivalSchedule> {
        self.inner.observed_schedule()
    }
}

const CUSTOMER_LINK: DelayModel = DelayModel::Bandwidth {
    bytes_per_sec: 400_000.0,
    initial_latency_us: 3_000,
};

/// A bursty link: long silences between short bursts.
fn flaky(seed: u64) -> DelayModel {
    DelayModel::Wireless {
        bytes_per_sec: 4_000_000.0,
        burst_ms: 5.0,
        gap_ms: 60.0,
        seed,
    }
}

const STEADY_LINK: DelayModel = DelayModel::Bandwidth {
    bytes_per_sec: 1_000_000.0,
    initial_latency_us: 2_000,
};

fn delayed(d: &Dataset, t: TableId, suffix: &str, model: &DelayModel) -> Box<dyn Source> {
    Box::new(DelayedSource::new(
        t.rel_id(),
        format!("{}-{suffix}", t.name()),
        Dataset::schema(t),
        d.table(t).to_vec(),
        model,
    ))
}

/// Q3A's inputs: CUSTOMER on a steady link and LINEITEM on a bursty one,
/// both strict; ORDERS federated over a flaky and a steady mirror, each
/// mirror strict inside the adapter and the adapter strict outside.
fn q3a_sources(d: &Dataset, tally: &Arc<Tally>) -> Vec<Box<dyn Source>> {
    let mirrors = vec![
        Strict::wrap(delayed(d, TableId::Orders, "flaky", &flaky(7)), tally),
        Strict::wrap(delayed(d, TableId::Orders, "steady", &STEADY_LINK), tally),
    ];
    let orders = FederatedSource::new(
        TableId::Orders.key_cols(),
        mirrors,
        FederationConfig::default(),
    )
    .unwrap();
    vec![
        Strict::wrap(delayed(d, TableId::Customer, "link", &CUSTOMER_LINK), tally),
        Strict::wrap(Box::new(orders), tally),
        Strict::wrap(delayed(d, TableId::Lineitem, "wireless", &flaky(11)), tally),
    ]
}

/// Q3A evaluated by the brute-force reference executor.
fn q3a_reference(d: &Dataset) -> Vec<String> {
    let q = queries::q3a();
    let rel = |t: TableId| RefRelation {
        schema: Dataset::schema(t),
        tuples: d.table(t).to_vec(),
    };
    let mut r = RefQuery::new(vec![
        rel(TableId::Customer),
        rel(TableId::Orders),
        rel(TableId::Lineitem),
    ]);
    r.filters.push((0, q.rels[0].filter.clone().unwrap()));
    r.joins.push(RefJoin {
        left_rel: 0,
        left_col: 0,
        right_rel: 1,
        right_col: 1,
    });
    r.joins.push(RefJoin {
        left_rel: 1,
        left_col: 0,
        right_rel: 2,
        right_col: 0,
    });
    r.group_cols = vec![
        RefCol { rel: 2, col: 0 },
        RefCol { rel: 1, col: 2 },
        RefCol { rel: 1, col: 3 },
    ];
    r.aggs = vec![(AggFunc::Sum, RefCol { rel: 2, col: 9 })];
    canonicalize_approx(&r.run().unwrap())
}

fn data() -> Dataset {
    Dataset::generate(DatasetConfig::uniform(0.002))
}

#[test]
fn sim_driver_keeps_promises() {
    let d = data();
    let tally = Arc::new(Tally::default());
    let mut sources = q3a_sources(&d, &tally);
    let run = run_static_with_driver(
        &queries::q3a(),
        &mut sources,
        OptimizerContext::no_statistics(),
        SimDriver::new(128, CpuCostModel::PerTupleNs(2_000)),
        None,
    )
    .unwrap();
    assert_eq!(canonicalize_approx(&run.rows), q3a_reference(&d));
    assert_eq!(
        run.exec.virtual_us, 9_122_149,
        "same completion as polling every sweep"
    );
    assert!(
        tally.polls() <= 2 * tally.ready() + run.exec.wakes,
        "{} polls for {} ready batches and {} wakes",
        tally.polls(),
        tally.ready(),
        run.exec.wakes
    );
}

#[test]
fn corrective_switch_keeps_promises() {
    let d = data();
    let tally = Arc::new(Tally::default());
    let mut sources = q3a_sources(&d, &tally);
    let exec = CorrectiveExec::new(
        queries::q3a(),
        CorrectiveConfig {
            batch_size: 128,
            cpu: CpuCostModel::PerTupleNs(2_000),
            poll_every_batches: 2,
            // Above 1: switch whenever the re-optimizer proposes any
            // different plan, starting from a deliberately poor one.
            switch_threshold: 100.0,
            max_phases: 3,
            warmup_batches: 2,
            initial_order: Some(vec![
                TableId::Orders.rel_id(),
                TableId::Lineitem.rel_id(),
                TableId::Customer.rel_id(),
            ]),
            ..Default::default()
        },
    );
    let report = exec.run(&mut sources).unwrap();
    assert!(report.phase_count() > 1, "expected a forced switch");
    assert_eq!(canonicalize_approx(&report.rows), q3a_reference(&d));
    assert_eq!(
        report.exec.virtual_us, 9_124_949,
        "same completion as polling every sweep"
    );
    assert!(
        tally.polls() <= 2 * tally.ready() + report.exec.wakes,
        "{} polls for {} ready batches and {} wakes",
        tally.polls(),
        tally.ready(),
        report.exec.wakes
    );
}

/// A served virtual wave: the server builds the federated adapters
/// itself, so only the mirrors inside them are strict — the sweep over
/// inline lanes is what this checks; the driver above it is the one
/// `sim_driver_keeps_promises` covers.
#[test]
fn virtual_server_wave_keeps_promises() {
    let d = Arc::new(data());
    let tally = Arc::new(Tally::default());
    let (data, strict) = (d.clone(), tally.clone());
    let spec = QuerySpec::new("q3a", queries::q3a(), move |fed| {
        let mut catalog = FederatedCatalog::new(fed);
        for t in queries::tables_of(&queries::q3a()) {
            let seed = 100 + t.rel_id() as u64;
            catalog.register(
                t.key_cols(),
                Strict::wrap(delayed(&data, t, "flaky", &flaky(seed)), &strict),
            )?;
            catalog.register(
                t.key_cols(),
                Strict::wrap(delayed(&data, t, "steady", &STEADY_LINK), &strict),
            )?;
        }
        Ok(catalog)
    });
    let server = Server::new(ServerConfig {
        batch_size: 128,
        cores: Some(2),
        ..ServerConfig::default()
    });
    let fleet = server.serve(&[vec![spec]], ServeMode::Virtual).unwrap();
    let outcome = &fleet.outcomes[0];
    assert_eq!(outcome.rows, q3a_reference(&d));
    assert_eq!(
        outcome.latency_us, 2_885_565,
        "same completion as polling every sweep"
    );
    // The served driver charges no CPU, so the timeline only moves when
    // the driver idles: every move is one of its wakes.
    let wakes = tally.moves.load(Ordering::Relaxed);
    assert!(
        tally.polls() <= 2 * tally.ready() + wakes,
        "{} polls for {} ready batches and {wakes} wakes",
        tally.polls(),
        tally.ready()
    );
}
