//! Federated mirrored sources: a query whose fast mirror degrades mid-run.
//!
//! Every base relation of Q3A is offered by two mirrors: a nominally fast
//! one behind a bursty 802.11b-style wireless link (long outages between
//! bursts) and a steady mirror at half the bandwidth. A static client
//! pinned to the flaky mirror eats every outage; the federation layer
//! profiles both mirrors online and, when the active one is silent past
//! its profile-derived stall threshold, splits the rest of the relation
//! with the steady mirror: the steady one scans from the far key end,
//! the flaky one keeps scanning from the near end, and the relation is
//! complete where they meet (overlap is deduped by key).
//!
//! Run with: `cargo run --release --example federated_mirrors`

use tukwila::core::run_static;
use tukwila::datagen::{queries, Dataset, DatasetConfig, TableId};
use tukwila::exec::CpuCostModel;
use tukwila::federation::{FederatedCatalog, FederatedSource, FederationConfig};
use tukwila::optimizer::OptimizerContext;
use tukwila::source::{DelayModel, DelayedSource, Source};

fn mirror(d: &Dataset, t: TableId, suffix: &str, model: &DelayModel) -> Box<dyn Source> {
    Box::new(DelayedSource::new(
        t.rel_id(),
        format!("{}-{suffix}", t.name()),
        Dataset::schema(t),
        d.table(t).to_vec(),
        model,
    ))
}

fn flaky_model(rel: u32) -> DelayModel {
    // Fast while bursting, but ~90% of the time the link is down.
    DelayModel::Wireless {
        bytes_per_sec: 6_000_000.0,
        burst_ms: 30.0,
        gap_ms: 300.0,
        seed: 42 ^ u64::from(rel) << 8,
    }
}

fn steady_model() -> DelayModel {
    DelayModel::Bandwidth {
        bytes_per_sec: 750_000.0,
        initial_latency_us: 2_000,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = Dataset::generate(DatasetConfig::uniform(0.01));
    let query = queries::q3a();
    let cpu = CpuCostModel::PerTupleNs(200); // deterministic virtual clock

    // Static baseline: pinned to the flaky fast mirror.
    let mut pinned: Vec<Box<dyn Source>> = queries::tables_of(&query)
        .into_iter()
        .map(|t| mirror(&dataset, t, "flaky", &flaky_model(t.rel_id())))
        .collect();
    let ctx = OptimizerContext::no_statistics;
    let static_run = run_static(&query, &mut pinned, ctx(), 1024, cpu)?;

    // Federated: both mirrors registered per relation, flaky first (the
    // adversarial initial permutation).
    let mut catalog = FederatedCatalog::new(FederationConfig::default());
    for t in queries::tables_of(&query) {
        catalog.register(
            t.key_cols(),
            mirror(&dataset, t, "flaky", &flaky_model(t.rel_id())),
        )?;
        catalog.register(t.key_cols(), mirror(&dataset, t, "steady", &steady_model()))?;
    }
    let mut federated = catalog.into_sources()?;
    let fed_run = run_static(&query, &mut federated, ctx(), 1024, cpu)?;

    println!("federated mirrors over Q3A (plan {})\n", fed_run.plan);
    println!(
        "static, pinned to flaky mirror: {:7.2} s virtual ({} rows)",
        static_run.exec.virtual_us as f64 / 1e6,
        static_run.rows.len()
    );
    println!(
        "federated [flaky, steady]:      {:7.2} s virtual ({} rows)\n",
        fed_run.exec.virtual_us as f64 / 1e6,
        fed_run.rows.len()
    );

    for s in &federated {
        let Some(fed) = s.as_any().and_then(|a| a.downcast_ref::<FederatedSource>()) else {
            continue;
        };
        let r = fed.report();
        println!(
            "{}: {} distinct tuples, {} failover(s){}",
            r.name,
            r.delivered,
            r.failovers,
            if r.split { ", split" } else { "" }
        );
        for c in &r.candidates {
            println!(
                "    {:<18} delivered {:>6}  deduped {:>6}  stalls {:>2}  rate {}",
                c.descriptor.name,
                c.delivered,
                c.duplicates,
                c.stalls,
                c.rate_tuples_per_sec
                    .map_or("n/a".into(), |r| format!("{:.0} tuples/s", r)),
            );
        }
    }

    assert_eq!(
        static_run.rows.len(),
        fed_run.rows.len(),
        "answers must agree"
    );
    println!(
        "\nspeedup vs the degraded pin: {:.2}x, identical answers",
        static_run.exec.virtual_us as f64 / fed_run.exec.virtual_us as f64
    );
    Ok(())
}
