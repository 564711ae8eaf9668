//! Projection pushdown keeps answers: the engine never reads a column it
//! did not ask a source for.
//!
//! Every candidate here is wrapped in [`Masked`], which takes the
//! projection request, forwards it, and from then on replaces every
//! column it was not asked for with `Null` in each row it delivers. A
//! query that read such a column would see `Null` where a value belongs
//! and answer differently (or fail); every path's canonical answer must
//! instead equal the whole-row answer over plain in-memory sources,
//! which refuse projections.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tukwila::core::{run_plan_partitioning, run_static, CorrectiveConfig, CorrectiveExec};
use tukwila::datagen::{flights, queries, Dataset, DatasetConfig};
use tukwila::exec::reference::canonicalize_approx;
use tukwila::exec::CpuCostModel;
use tukwila::federation::{FederatedCatalog, FederationConfig};
use tukwila::optimizer::{LogicalQuery, OptimizerContext};
use tukwila::relation::{Error, Result, Schema, Tuple, Value};
use tukwila::serve::{QuerySpec, ServeMode, Server, ServerConfig};
use tukwila::source::{
    DelayModel, DelayedSource, MemSource, Poll, Source, SourceControl, SourceDescriptor,
    SourceProgressView,
};

/// A candidate that ships only what it was asked for: it forwards key
/// scans, takes projections (forwarding them too), and masks every
/// unrequested column of each row it delivers with `Null`.
struct Masked {
    inner: Box<dyn Source>,
    /// Per column: shipped. `None` until a projection arrives.
    keep: Option<Vec<bool>>,
    /// Projections taken, across every `Masked` of a run.
    taken: Arc<AtomicU64>,
}

impl Masked {
    fn wrap(inner: Box<dyn Source>, taken: &Arc<AtomicU64>) -> Box<dyn Source> {
        Box::new(Masked {
            inner,
            keep: None,
            taken: taken.clone(),
        })
    }

    fn mask(&self, t: Tuple) -> Tuple {
        let Some(keep) = &self.keep else {
            return t;
        };
        let vals = t.values().iter().zip(keep);
        vals.map(|(v, &k)| if k { v.clone() } else { Value::Null })
            .collect()
    }
}

impl Source for Masked {
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
        match self.inner.poll(now_us, max_tuples) {
            Poll::Ready(batch) => Poll::Ready(batch.into_iter().map(|t| self.mask(t)).collect()),
            other => other,
        }
    }

    fn progress(&self) -> SourceProgressView {
        self.inner.progress()
    }

    fn descriptor(&self) -> SourceDescriptor {
        let mut d = self.inner.descriptor();
        d.capabilities.projection = true;
        d
    }

    fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
        let SourceControl::Project { cols } = &request else {
            return self.inner.control(now_us, request);
        };
        let arity = self.schema().arity();
        if cols.iter().any(|&c| c >= arity) {
            return Err(Error::Plan(format!("{}: column out of range", self.name())));
        }
        let mut keep = vec![false; arity];
        cols.iter().for_each(|&c| keep[c] = true);
        self.keep = Some(keep);
        self.taken.fetch_add(1, Ordering::Relaxed);
        // Forwarded so the link charges the projected rows; a refusal
        // below changes only timing.
        let _ = self.inner.control(now_us, request);
        Ok(())
    }
}

/// One base relation of a case.
struct Rel {
    id: u32,
    name: String,
    schema: Schema,
    rows: Vec<Tuple>,
    key: Vec<usize>,
}

/// A query over its base relations, with its whole-row answer.
struct Case {
    name: &'static str,
    q: LogicalQuery,
    rels: Vec<Rel>,
    expected: Vec<String>,
}

impl Case {
    fn new(name: &'static str, q: LogicalQuery, rels: Vec<Rel>) -> Case {
        let mut local: Vec<Box<dyn Source>> = rels
            .iter()
            .map(|r| {
                Box::new(MemSource::new(
                    r.id,
                    &r.name,
                    r.schema.clone(),
                    r.rows.clone(),
                )) as _
            })
            .collect();
        let run = run_static(
            &q,
            &mut local,
            OptimizerContext::no_statistics(),
            256,
            CpuCostModel::Zero,
        )
        .unwrap();
        let expected = canonicalize_approx(&run.rows);
        assert!(
            !expected.is_empty(),
            "{name}: an empty answer shows nothing"
        );
        Case {
            name,
            q,
            rels,
            expected,
        }
    }

    fn cards(&self) -> HashMap<u32, u64> {
        self.rels
            .iter()
            .map(|r| (r.id, r.rows.len() as u64))
            .collect()
    }

    /// Each relation behind one masked link.
    fn plain(&self, taken: &Arc<AtomicU64>) -> Vec<Box<dyn Source>> {
        self.rels
            .iter()
            .map(|r| Masked::wrap(delayed(r, "link", &steady()), taken))
            .collect()
    }

    /// Each relation behind a masked flaky and a masked steady mirror.
    fn catalog(&self, fed: FederationConfig, taken: &Arc<AtomicU64>) -> Result<FederatedCatalog> {
        let mut catalog = FederatedCatalog::new(fed);
        for r in &self.rels {
            let flaky = flaky(u64::from(r.id));
            catalog.register(
                r.key.clone(),
                Masked::wrap(delayed(r, "flaky", &flaky), taken),
            )?;
            catalog.register(
                r.key.clone(),
                Masked::wrap(delayed(r, "steady", &steady()), taken),
            )?;
        }
        Ok(catalog)
    }

    fn federated(&self, taken: &Arc<AtomicU64>) -> Vec<Box<dyn Source>> {
        let catalog = self.catalog(FederationConfig::default(), taken).unwrap();
        catalog.into_sources().unwrap()
    }

    /// `rows` must be this case's whole-row answer, and the run must
    /// have asked every relation for a projection.
    fn check(&self, path: &str, rows: &[Tuple], taken: &AtomicU64) {
        assert_eq!(
            canonicalize_approx(rows),
            self.expected,
            "{} {path}",
            self.name
        );
        let taken = taken.load(Ordering::Relaxed);
        assert!(
            taken >= self.rels.len() as u64,
            "{} {path}: only {taken} projections taken for {} relations",
            self.name,
            self.rels.len()
        );
    }
}

fn delayed(r: &Rel, suffix: &str, model: &DelayModel) -> Box<dyn Source> {
    Box::new(DelayedSource::new(
        r.id,
        format!("{}-{suffix}", r.name),
        r.schema.clone(),
        r.rows.clone(),
        model,
    ))
}

fn flaky(seed: u64) -> DelayModel {
    DelayModel::Wireless {
        bytes_per_sec: 8_000_000.0,
        burst_ms: 5.0,
        gap_ms: 40.0,
        seed,
    }
}

fn steady() -> DelayModel {
    DelayModel::Bandwidth {
        bytes_per_sec: 2_000_000.0,
        initial_latency_us: 2_000,
    }
}

/// Q3A, Q10, Q10A and Q5 over a small TPC-H instance, and Example 2.1's
/// flights query.
fn cases() -> Vec<Case> {
    let d = Dataset::generate(DatasetConfig::uniform(0.001));
    let tpch = |name, q: LogicalQuery| {
        let rels = queries::tables_of(&q)
            .into_iter()
            .map(|t| Rel {
                id: t.rel_id(),
                name: t.name().into(),
                schema: Dataset::schema(t),
                rows: d.table(t).to_vec(),
                key: t.key_cols(),
            })
            .collect();
        Case::new(name, q, rels)
    };
    let f = flights::generate(150, 600, 1, 5);
    let flight_rels = [
        (flights::FLIGHTS, "F", flights::flights_schema(), &f.flights),
        (
            flights::TRAVELERS,
            "T",
            flights::travelers_schema(),
            &f.travelers,
        ),
        (
            flights::CHILDREN,
            "C",
            flights::children_schema(),
            &f.children,
        ),
    ]
    .into_iter()
    .map(|(id, name, schema, rows)| Rel {
        id,
        name: name.into(),
        schema,
        rows: rows.clone(),
        key: vec![0],
    })
    .collect();
    vec![
        tpch("Q3A", queries::q3a()),
        tpch("Q10", queries::q10()),
        tpch("Q10A", queries::q10a()),
        tpch("Q5", queries::q5()),
        Case::new("flights", flights::query(), flight_rels),
    ]
}

#[test]
fn static_runs_read_only_what_they_asked_for() {
    for case in cases() {
        let ctx = OptimizerContext::no_statistics;
        for (path, federated) in [("static", false), ("static federated", true)] {
            let taken = Arc::new(AtomicU64::new(0));
            let mut sources = match federated {
                false => case.plain(&taken),
                true => case.federated(&taken),
            };
            let run = run_static(&case.q, &mut sources, ctx(), 128, CpuCostModel::Zero).unwrap();
            case.check(path, &run.rows, &taken);
        }
        let taken = Arc::new(AtomicU64::new(0));
        let sources = case.plain(&taken);
        let run = run_plan_partitioning(&case.q, sources, ctx(), 128, CpuCostModel::Zero).unwrap();
        case.check("plan partitioning", &run.rows, &taken);
    }
}

#[test]
fn corrective_runs_read_only_what_they_asked_for() {
    let mut switched = 0;
    for case in cases() {
        for (path, given_cards) in [
            ("corrective NoStats", None),
            ("corrective Cards", Some(case.cards())),
        ] {
            let taken = Arc::new(AtomicU64::new(0));
            let mut sources = case.federated(&taken);
            let exec = CorrectiveExec::new(
                case.q.clone(),
                CorrectiveConfig {
                    batch_size: 64,
                    cpu: CpuCostModel::PerTupleNs(500),
                    poll_every_batches: 2,
                    warmup_batches: 2,
                    // Switch whenever the re-optimizer proposes another
                    // plan, so stitch-up reads the masked rows too.
                    switch_threshold: 100.0,
                    max_phases: 3,
                    given_cards,
                    ..Default::default()
                },
            );
            let report = exec.run(&mut sources).unwrap();
            case.check(path, &report.rows, &taken);
            switched += usize::from(report.phase_count() > 1);
        }
    }
    assert!(switched > 0, "no run switched plans, so no stitch-up ran");
}

/// Served runs: the server builds the federated adapters, with inline
/// lanes in virtual mode and queue lanes (producer threads) in threaded
/// mode.
#[test]
fn served_runs_read_only_what_they_asked_for() {
    for case in cases() {
        let case = Arc::new(case);
        for mode in [ServeMode::Virtual, ServeMode::Threaded] {
            let taken = Arc::new(AtomicU64::new(0));
            let (c, t) = (case.clone(), taken.clone());
            let spec = QuerySpec::new(case.name, case.q.clone(), move |fed| c.catalog(fed, &t));
            let server = Server::new(ServerConfig {
                batch_size: 128,
                cores: Some(2),
                trace: false,
                ..ServerConfig::default()
            });
            let fleet = server.serve(&[vec![spec]], mode).unwrap();
            let rows = &fleet.outcomes[0].rows;
            assert_eq!(
                rows,
                &case.expected,
                "{} served {}",
                case.name,
                mode.label()
            );
            let taken = taken.load(Ordering::Relaxed);
            assert!(
                taken >= case.rels.len() as u64,
                "{} served {}",
                case.name,
                mode.label()
            );
        }
    }
}
