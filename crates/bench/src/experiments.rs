//! One function per paper table/figure. Each returns rendered text tables;
//! the `repro` binary prints them.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use tukwila_core::{
    run_static, run_static_with_driver, ComplementaryJoinPair, CorrectiveConfig, CorrectiveExec,
    RouterKind,
};
use tukwila_datagen::{perturb, Dataset, TableId, Zipf};
use tukwila_exec::join::PipelinedHashJoin;
use tukwila_exec::op::IncOp;
use tukwila_exec::reference::canonicalize_approx;
use tukwila_exec::{CpuCostModel, SimDriver};
use tukwila_federation::{FederatedSource, FederationConfig, FederationReport};
use tukwila_optimizer::{OptimizerContext, PreAggConfig, PreAggMode};
use tukwila_relation::{Tuple, Value};
use tukwila_stats::estimate::JoinEstimator;
use tukwila_stats::{
    hedge_signatures, Clock, QuerySummary, TraceEvent, TraceSink, VirtualClock, WallClock,
};

use tukwila_serve::{QuerySpec, ServeMode, Server, ServerConfig};

use crate::fmt::{count, secs, secs_ci, TextTable};
use crate::setup::{
    concurrent_mirror_sources, datasets, federated_mirror_sources, federated_mirror_sources_traced,
    local_sources, mean_ci, pinned_mirror_sources, serve_degraded_catalog,
    slow_customer_mirror_sources, slow_customer_mirror_sources_traced, true_cards,
    wireless_sources, ExpConfig, MirrorKind, WorkloadQuery,
};
use tukwila_source::Source;

/// Detail captured from an adaptive run (for Tables 1/2).
#[derive(Debug, Clone, Default)]
pub struct AdaptiveDetail {
    pub phases: usize,
    pub stitch_secs: f64,
    pub reused: usize,
    pub discarded: usize,
}

fn corrective_cfg(
    cfg: &ExpConfig,
    given: Option<std::collections::HashMap<u32, u64>>,
    order: Option<Vec<u32>>,
) -> CorrectiveConfig {
    CorrectiveConfig {
        batch_size: cfg.batch_size,
        cpu: CpuCostModel::Measured,
        // Looser than the library defaults, mirroring the paper's eager
        // 1-second polling: its executions settled at 2-4 phases.
        poll_every_batches: 6,
        switch_threshold: 0.8,
        max_phases: 8,
        warmup_batches: 4,
        preagg: PreAggConfig::Off,
        given_cards: given,
        initial_order: order,
        min_remaining_fraction: 0.15,
        stitch_reuse: true,
        clock: None,
        fragments: None,
        ..Default::default()
    }
}

/// Figures 2/3 plus Tables 1/2: the five-strategy comparison over both
/// datasets and all four queries. `wireless` selects the Figure 3 / Table 2
/// variant (bursty sources, virtual completion time); otherwise Figure 2 /
/// Table 1 (local sources, CPU time).
pub fn corrective_suite(cfg: &ExpConfig, wireless: bool) -> (String, String) {
    let mut figure = TextTable::new(&[
        "query-dataset",
        "Static NoStats",
        "Static Cards",
        "Adaptive NoStats",
        "Adaptive Cards",
        "PlanPart NoStats",
    ]);
    let mut table = TextTable::new(&[
        "query-dataset",
        "mode",
        "phases",
        "stitch-up s",
        "reused",
        "discarded",
    ]);

    for w in WorkloadQuery::all() {
        for (dname, d) in datasets(cfg).iter() {
            eprintln!("[suite] query {} ({dname})", w.name());
            let q = w.query();
            let cards = true_cards(d, &q);
            let order = w.paper_nostats_order();
            let make_sources = |q: &tukwila_optimizer::LogicalQuery| {
                if wireless {
                    wireless_sources(d, q, cfg)
                } else {
                    local_sources(d, q)
                }
            };
            let metric = |exec: &tukwila_exec::ExecReport| {
                if wireless {
                    exec.virtual_us as f64 / 1e6
                } else {
                    exec.cpu_us as f64 / 1e6
                }
            };

            let mut reference: Option<Vec<String>> = None;
            let mut check = |rows: &[Tuple], label: &str| {
                let canon = canonicalize_approx(rows);
                match &reference {
                    None => reference = Some(canon),
                    Some(r) => assert_eq!(
                        r,
                        &canon,
                        "strategy {label} disagrees on {}-{dname}",
                        w.name()
                    ),
                }
            };

            // 1. Static, no statistics (pinned to the paper's plan, see
            //    WorkloadQuery::paper_nostats_order).
            eprintln!("[suite]   static-nostats");
            let mut static_ns = Vec::new();
            for _ in 0..cfg.runs {
                let mut s = make_sources(&q);
                let run = tukwila_core::run_static_from(
                    &q,
                    &mut s,
                    OptimizerContext::no_statistics(),
                    cfg.batch_size,
                    CpuCostModel::Measured,
                    order.as_deref(),
                )
                .expect("static nostats");
                static_ns.push(metric(&run.exec));
                check(&run.rows, "static-nostats");
            }

            // 2. Static, given cardinalities.
            eprintln!("[suite]   static-cards");
            let mut static_c = Vec::new();
            for _ in 0..cfg.runs {
                let mut s = make_sources(&q);
                let run = tukwila_core::run_static(
                    &q,
                    &mut s,
                    OptimizerContext::with_cards(cards.clone()),
                    cfg.batch_size,
                    CpuCostModel::Measured,
                )
                .expect("static cards");
                static_c.push(metric(&run.exec));
                check(&run.rows, "static-cards");
            }

            // 3. Adaptive, no statistics (same pinned phase-0 plan).
            eprintln!("[suite]   adaptive-nostats");
            let mut adaptive_ns = Vec::new();
            let mut detail_ns = AdaptiveDetail::default();
            for _ in 0..cfg.runs {
                let exec = CorrectiveExec::new(q.clone(), corrective_cfg(cfg, None, order.clone()));
                let mut s = make_sources(&q);
                let report = exec.run(&mut s).expect("adaptive nostats");
                adaptive_ns.push(metric(&report.exec));
                detail_ns = AdaptiveDetail {
                    phases: report.phase_count(),
                    stitch_secs: report.stitch_us as f64 / 1e6,
                    reused: report.reuse.reused_tuples,
                    discarded: report.reuse.discarded_tuples,
                };
                check(&report.rows, "adaptive-nostats");
            }

            // 4. Adaptive, given cardinalities.
            eprintln!("[suite]   adaptive-cards");
            let mut adaptive_c = Vec::new();
            let mut detail_c = AdaptiveDetail::default();
            for _ in 0..cfg.runs {
                let exec =
                    CorrectiveExec::new(q.clone(), corrective_cfg(cfg, Some(cards.clone()), None));
                let mut s = make_sources(&q);
                let report = exec.run(&mut s).expect("adaptive cards");
                adaptive_c.push(metric(&report.exec));
                detail_c = AdaptiveDetail {
                    phases: report.phase_count(),
                    stitch_secs: report.stitch_us as f64 / 1e6,
                    reused: report.reuse.reused_tuples,
                    discarded: report.reuse.discarded_tuples,
                };
                check(&report.rows, "adaptive-cards");
            }

            // 5. Plan partitioning, no statistics.
            eprintln!("[suite]   plan-partitioning");
            let mut pp_ns = Vec::new();
            for _ in 0..cfg.runs {
                let run = tukwila_core::run_plan_partitioning_from(
                    &q,
                    make_sources(&q),
                    OptimizerContext::no_statistics(),
                    cfg.batch_size,
                    CpuCostModel::Measured,
                    order.as_deref(),
                )
                .expect("plan partitioning");
                pp_ns.push(metric(&run.exec));
                check(&run.rows, "plan-partitioning");
            }

            let label = format!("{} ({dname})", w.name());
            let cells = vec![
                label.clone(),
                fmt_ci(&static_ns),
                fmt_ci(&static_c),
                fmt_ci(&adaptive_ns),
                fmt_ci(&adaptive_c),
                fmt_ci(&pp_ns),
            ];
            figure.row(cells);

            table.row(vec![
                label.clone(),
                "no statistics".into(),
                detail_ns.phases.to_string(),
                if detail_ns.phases > 1 {
                    secs(detail_ns.stitch_secs)
                } else {
                    "-".into()
                },
                if detail_ns.phases > 1 {
                    count(detail_ns.reused)
                } else {
                    "-".into()
                },
                if detail_ns.phases > 1 {
                    count(detail_ns.discarded)
                } else {
                    "-".into()
                },
            ]);
            table.row(vec![
                label,
                "given cardinalities".into(),
                detail_c.phases.to_string(),
                if detail_c.phases > 1 {
                    secs(detail_c.stitch_secs)
                } else {
                    "-".into()
                },
                if detail_c.phases > 1 {
                    count(detail_c.reused)
                } else {
                    "-".into()
                },
                if detail_c.phases > 1 {
                    count(detail_c.discarded)
                } else {
                    "-".into()
                },
            ]);
        }
    }
    (figure.render(), table.render())
}

fn fmt_ci(samples: &[f64]) -> String {
    let (m, ci) = mean_ci(samples);
    secs_ci(m, ci)
}

/// Figure 5 + Table 3: pipelined hash join vs complementary join pair
/// (naive and priority-queue routers) over LINEITEM ⋈ ORDERS with
/// increasing disorder.
pub fn complementary_suite(cfg: &ExpConfig) -> (String, String) {
    let mut figure = TextTable::new(&["dataset", "PHJ s", "CompJoin s", "CompJoin+PQ s"]);
    let mut table = TextTable::new(&["dataset", "router", "hash", "merge", "stitch"]);

    // The paper's six data points: uniform, skewed, uniform 1%, skewed 1%,
    // skewed 10%, skewed 50%.
    let [(_, uni), (_, sk)] = datasets(cfg);
    let cases: Vec<(String, &Dataset, f64)> = vec![
        ("Uniform".into(), &uni, 0.0),
        ("Skewed".into(), &sk, 0.0),
        ("Uniform, 1% reordered".into(), &uni, 0.01),
        ("Skewed, 1% reordered".into(), &sk, 0.01),
        ("Skewed, 10% reordered".into(), &sk, 0.1),
        ("Skewed, 50% reordered".into(), &sk, 0.5),
    ];

    for (label, d, frac) in cases {
        let mut orders = d.orders.clone();
        let mut lineitem = d.lineitem.clone();
        if frac > 0.0 {
            perturb::reorder_fraction(&mut orders, frac, cfg.seed);
            perturb::reorder_fraction(&mut lineitem, frac, cfg.seed + 1);
        }

        let run_phj = |runs: usize| -> Vec<f64> {
            (0..runs)
                .map(|_| {
                    let mut j = PipelinedHashJoin::new(
                        Dataset::schema(TableId::Orders),
                        Dataset::schema(TableId::Lineitem),
                        0,
                        0,
                    );
                    let mut out = Vec::new();
                    let start = Instant::now();
                    for c in orders.chunks(cfg.batch_size) {
                        j.push(0, c, &mut out).unwrap();
                    }
                    for c in lineitem.chunks(cfg.batch_size) {
                        j.push(1, c, &mut out).unwrap();
                    }
                    start.elapsed().as_secs_f64()
                })
                .collect()
        };
        let run_comp = |router: RouterKind, runs: usize| {
            let mut times = Vec::new();
            let mut stats = tukwila_core::ComplementaryStats::default();
            for _ in 0..runs {
                let mut j = ComplementaryJoinPair::new(
                    Dataset::schema(TableId::Orders),
                    Dataset::schema(TableId::Lineitem),
                    0,
                    0,
                    router,
                );
                let mut out = Vec::new();
                let start = Instant::now();
                for c in orders.chunks(cfg.batch_size) {
                    j.push(0, c, &mut out).unwrap();
                }
                for c in lineitem.chunks(cfg.batch_size) {
                    j.push(1, c, &mut out).unwrap();
                }
                j.finish_input(0, &mut out).unwrap();
                j.finish_input(1, &mut out).unwrap();
                j.finish(&mut out).unwrap();
                times.push(start.elapsed().as_secs_f64());
                stats = j.stats();
            }
            (times, stats)
        };

        // One warm-up execution per strategy (allocator/cache effects),
        // then the measured runs.
        let phj = &run_phj(cfg.runs + 1)[1..];
        let (naive_all, naive_s) = run_comp(RouterKind::Naive, cfg.runs + 1);
        let (pq_all, pq_s) = run_comp(RouterKind::PriorityQueue(1024), cfg.runs + 1);
        let (naive_t, pq_t) = (&naive_all[1..], &pq_all[1..]);

        figure.row(vec![
            label.clone(),
            fmt_ci(phj),
            fmt_ci(naive_t),
            fmt_ci(pq_t),
        ]);
        for (router, s) in [("naive", naive_s), ("priority queue", pq_s)] {
            table.row(vec![
                label.clone(),
                router.into(),
                count(s.hash_tuples as usize),
                count(s.merge_tuples as usize),
                count(s.stitch_tuples as usize),
            ]);
        }
    }
    (figure.render(), table.render())
}

/// Figure 6: single aggregation vs adjustable-window pre-aggregation vs
/// traditional pre-aggregation, all queries, both datasets.
pub fn preagg_suite(cfg: &ExpConfig) -> String {
    let mut figure = TextTable::new(&[
        "query-dataset",
        "Single Agg s",
        "Adjustable-Window s",
        "Traditional s",
    ]);
    for w in WorkloadQuery::all() {
        for (dname, d) in datasets(cfg).iter() {
            let q = w.query();
            let cards = true_cards(d, &q);
            let mut reference: Option<Vec<String>> = None;
            let mut run_mode = |preagg: PreAggConfig| -> Vec<f64> {
                (0..cfg.runs)
                    .map(|_| {
                        let mut ctx = OptimizerContext::with_cards(cards.clone());
                        ctx.preagg = preagg;
                        let mut s = local_sources(d, &q);
                        let run = tukwila_core::run_static(
                            &q,
                            &mut s,
                            ctx,
                            cfg.batch_size,
                            CpuCostModel::Measured,
                        )
                        .expect("preagg run");
                        let canon = canonicalize_approx(&run.rows);
                        match &reference {
                            None => reference = Some(canon),
                            Some(r) => assert_eq!(r, &canon, "preagg mode disagrees"),
                        }
                        run.exec.cpu_us as f64 / 1e6
                    })
                    .collect()
            };
            let single = run_mode(PreAggConfig::Off);
            let window = run_mode(PreAggConfig::Insert(PreAggMode::AdaptiveWindow));
            let trad = run_mode(PreAggConfig::Insert(PreAggMode::Traditional));
            figure.row(vec![
                format!("{} ({dname})", w.name()),
                fmt_ci(&single),
                fmt_ci(&window),
                fmt_ci(&trad),
            ]);
        }
    }
    figure.render()
}

/// §4.5: mid-stream join-size prediction with incremental histograms plus
/// order detection, and the overhead of histogram maintenance.
pub fn selectivity_suite(cfg: &ExpConfig) -> String {
    let d = Dataset::generate(tukwila_datagen::DatasetConfig::uniform(cfg.scale));
    let n_orders = d.orders.len();
    // The paper's side table: |orders|-scaled Zipf table with a *random*
    // Zipf parameter, in random order; a second Zipf attribute joins
    // LINEITEM.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let z_param: f64 = rng.gen_range(0.3..1.0);
    let zipf = Zipf::new(n_orders, z_param);
    // Paper proportion: a 100k-row side table against 150k orders.
    let z_rows = (n_orders * 2 / 3).max(1000);
    let ztable: Vec<Tuple> = (0..z_rows)
        .map(|_| {
            Tuple::new(vec![
                Value::Int(zipf.sample(&mut rng) as i64),
                Value::Int(zipf.sample(&mut rng) as i64),
            ])
        })
        .collect();

    // Ground truth.
    let two_way_actual = join_count(&d.orders, 0, &ztable, 0);
    let j2: Vec<Tuple> = join_tuples(&d.orders, 0, &ztable, 0);
    let three_way_actual = join_count(&j2, d.orders[0].arity() + 1, &d.lineitem, 0);

    let mut table = TextTable::new(&[
        "fraction read",
        "2-way est/actual",
        "3-way est/actual",
        "orders sorted-key?",
    ]);
    for frac in [0.25, 0.5, 0.6, 0.75, 1.0] {
        let no = (n_orders as f64 * frac) as usize;
        let nz = (ztable.len() as f64 * frac) as usize;
        let nl = (d.lineitem.len() as f64 * frac) as usize;

        let mut est2 = JoinEstimator::new(50);
        for t in &d.orders[..no] {
            est2.left.observe(t.get(0));
        }
        for t in &ztable[..nz] {
            est2.right.observe(t.get(0));
        }
        let e2 = est2.estimate_full(frac, frac);

        // 3-way: the prefix of the 2-way output (what a pipelined plan has
        // actually produced) is observed on the second Zipf attribute, its
        // histogram extrapolated to the estimated full 2-way size.
        let prefix_j2 = join_tuples(&d.orders[..no], 0, &ztable[..nz], 0);
        let mut est3 = JoinEstimator::new(50);
        let lkey_col = d.orders[0].arity() + 1;
        for t in &prefix_j2 {
            est3.left.observe(t.get(lkey_col));
        }
        for t in &d.lineitem[..nl] {
            est3.right.observe(t.get(0));
        }
        let j2_fraction = if e2 > 0.0 {
            (prefix_j2.len() as f64 / e2).clamp(1e-6, 1.0)
        } else {
            1.0
        };
        let e3 = est3.estimate_full(j2_fraction, frac);

        table.row(vec![
            format!("{:.0}%", frac * 100.0),
            format!("{:.2}", e2 / two_way_actual.max(1) as f64),
            format!("{:.2}", e3 / three_way_actual.max(1) as f64),
            format!("{}", est2.left.is_sorted_key()),
        ]);
    }

    // Histogram maintenance overhead: the same 2-way join with and without
    // per-tuple statistics on three columns (the paper saw ≈+50%: 6s→11s).
    let bare = time_join(&d.orders, &ztable, cfg.batch_size, false);
    let with_hist = time_join(&d.orders, &ztable, cfg.batch_size, true);
    let mut out = String::new();
    out.push_str(&format!(
        "zipf parameter: {z_param:.2}; 2-way actual: {}; 3-way actual: {}\n\n",
        count(two_way_actual),
        count(three_way_actual)
    ));
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nhistogram overhead: join {:.3}s -> {:.3}s with 3x 50-bucket incremental histograms (+{:.0}%)\n",
        bare,
        with_hist,
        (with_hist / bare - 1.0) * 100.0
    ));
    out
}

fn join_tuples(left: &[Tuple], lcol: usize, right: &[Tuple], rcol: usize) -> Vec<Tuple> {
    let mut j = PipelinedHashJoin::new(
        tukwila_relation::Schema::empty(),
        tukwila_relation::Schema::empty(),
        lcol,
        rcol,
    );
    let mut out = Vec::new();
    j.push(0, left, &mut out).unwrap();
    j.push(1, right, &mut out).unwrap();
    out
}

fn join_count(left: &[Tuple], lcol: usize, right: &[Tuple], rcol: usize) -> usize {
    join_tuples(left, lcol, right, rcol).len()
}

fn time_join(orders: &[Tuple], ztable: &[Tuple], batch: usize, with_hist: bool) -> f64 {
    use tukwila_stats::DynamicHistogram;
    let mut h1 = DynamicHistogram::new(50);
    let mut h2 = DynamicHistogram::new(50);
    let mut h3 = DynamicHistogram::new(50);
    let mut j = PipelinedHashJoin::new(
        tukwila_relation::Schema::empty(),
        tukwila_relation::Schema::empty(),
        0,
        0,
    );
    let mut out = Vec::new();
    let start = Instant::now();
    for c in orders.chunks(batch) {
        if with_hist {
            for t in c {
                h1.insert_value(t.get(0));
            }
        }
        j.push(0, c, &mut out).unwrap();
    }
    for c in ztable.chunks(batch) {
        if with_hist {
            for t in c {
                h2.insert_value(t.get(0));
                h3.insert_value(t.get(1));
            }
        }
        j.push(1, c, &mut out).unwrap();
    }
    start.elapsed().as_secs_f64()
}

/// Example 2.1 demonstration used by the `all` subcommand header.
pub fn flights_recovery(cfg: &ExpConfig) -> String {
    let data = tukwila_datagen::flights::generate(
        (2000.0 * cfg.scale * 50.0) as usize + 100,
        (30000.0 * cfg.scale * 50.0) as usize + 500,
        4,
        cfg.seed,
    );
    let q = tukwila_datagen::flights::query();
    let exec = CorrectiveExec::new(q, corrective_cfg(cfg, None, None));
    let mut sources: Vec<Box<dyn tukwila_source::Source>> = vec![
        Box::new(tukwila_source::MemSource::new(
            tukwila_datagen::flights::FLIGHTS,
            "F",
            tukwila_datagen::flights::flights_schema(),
            data.flights.clone(),
        )),
        Box::new(tukwila_source::MemSource::new(
            tukwila_datagen::flights::TRAVELERS,
            "T",
            tukwila_datagen::flights::travelers_schema(),
            data.travelers.clone(),
        )),
        Box::new(tukwila_source::MemSource::new(
            tukwila_datagen::flights::CHILDREN,
            "C",
            tukwila_datagen::flights::children_schema(),
            data.children.clone(),
        )),
    ];
    let report = exec.run(&mut sources).expect("flights run");
    format!(
        "Example 2.1 (flights): {} phases, {} groups, {:.3}s\n",
        report.phase_count(),
        report.rows.len(),
        report.exec.cpu_us as f64 / 1e6
    )
}

/// Mirror-failover scenario (federation layer): every base relation of
/// Q3A is served by a fast-but-flaky wireless mirror (4× bandwidth, ~10%
/// duty cycle), a steady mirror at half bandwidth, and a distant
/// last-resort standby at a tenth. Compares the two static pins against
/// the adaptive permutation scheduler under both registration orders,
/// all over the identical static plan with a deterministic per-tuple CPU
/// model, and asserts that (a) every strategy produces the identical
/// (deduped) answer, (b) the adaptive scheduler beats the worst static
/// source choice on virtual completion time, and (c) the delivery-model
/// hedge gate declines at least one race the legacy stall-only rule
/// would have started (waking the remote standby while the steady mirror
/// is healthy).
pub fn mirror_failover_suite(cfg: &ExpConfig) -> String {
    let [(_, uniform), _] = datasets(cfg);
    let q = WorkloadQuery::Q3A.query();
    struct VirtRun {
        secs: f64,
        rows: Vec<String>,
        failovers: u64,
        stalls: u64,
        dupes: u64,
        declined: u64,
    }
    let run = |mut sources: Vec<Box<dyn Source>>| {
        let out = run_static(
            &q,
            &mut sources,
            OptimizerContext::no_statistics(),
            cfg.batch_size,
            CpuCostModel::PerTupleNs(200),
        )
        .expect("mirror run");
        let (mut failovers, mut stalls, mut dupes, mut declined) = (0u64, 0u64, 0u64, 0u64);
        for s in &sources {
            if let Some(fed) = s.as_any().and_then(|a| a.downcast_ref::<FederatedSource>()) {
                let r = fed.report();
                failovers += r.failovers;
                stalls += r.candidates.iter().map(|c| c.stalls).sum::<u64>();
                dupes += r.candidates.iter().map(|c| c.duplicates).sum::<u64>();
                declined += r.declined_hedges;
            }
        }
        VirtRun {
            secs: out.exec.virtual_us as f64 / 1e6,
            rows: canonicalize_approx(&out.rows),
            failovers,
            stalls,
            dupes,
            declined,
        }
    };

    let flaky = run(pinned_mirror_sources(
        &uniform,
        &q,
        cfg,
        MirrorKind::FastFlaky,
    ));
    let steady = run(pinned_mirror_sources(
        &uniform,
        &q,
        cfg,
        MirrorKind::SteadySlow,
    ));
    let order = [
        MirrorKind::FastFlaky,
        MirrorKind::SteadySlow,
        MirrorKind::RemoteBackup,
    ];
    let order_rev = [
        MirrorKind::SteadySlow,
        MirrorKind::FastFlaky,
        MirrorKind::RemoteBackup,
    ];
    let fed = run(federated_mirror_sources(&uniform, &q, cfg, &order));
    let fed_rev = run(federated_mirror_sources(&uniform, &q, cfg, &order_rev));
    let fed_again = run(federated_mirror_sources(&uniform, &q, cfg, &order));

    // Correctness: identical deduped answers across every source
    // permutation, and determinism under the per-tuple cost model.
    assert_eq!(flaky.rows, steady.rows, "static mirror answers disagree");
    assert_eq!(fed.rows, flaky.rows, "federated answer diverged");
    assert_eq!(fed_rev.rows, flaky.rows, "permutation changed the answer");
    assert_eq!(fed.secs, fed_again.secs, "federated run not deterministic");
    assert_eq!(fed.rows, fed_again.rows, "federated rows not deterministic");
    let worst = flaky.secs.max(steady.secs);
    assert!(
        fed.secs < worst && fed_rev.secs < worst,
        "adaptive ({:.3}s / {:.3}s) must beat the worst static pin ({worst:.3}s)",
        fed.secs,
        fed_rev.secs
    );
    assert!(
        fed.declined >= 1,
        "the cost gate must decline at least one race the stall-only rule would take \
         (declined={})",
        fed.declined
    );

    let mut t = TextTable::new(&[
        "strategy",
        "virtual-s",
        "rows",
        "failovers",
        "stalls",
        "deduped",
        "declined",
    ]);
    for (name, r) in [
        ("static flaky mirror", &flaky),
        ("static steady mirror", &steady),
        ("federated [flaky,steady,remote]", &fed),
        ("federated [steady,flaky,remote]", &fed_rev),
    ] {
        t.row(vec![
            name.into(),
            secs(r.secs),
            count(r.rows.len()),
            r.failovers.to_string(),
            r.stalls.to_string(),
            r.dupes.to_string(),
            r.declined.to_string(),
        ]);
    }
    format!(
        "{}\nadaptive vs worst static: {:.2}× faster (identical answers, deterministic); \
         cost gate declined {} hedges the stall-only rule would have raced\n",
        t.render(),
        worst / fed.secs.max(1e-9),
        fed.declined
    )
}

/// Federation report of a federated source (either lane kind).
fn fed_report_of(s: &dyn Source) -> Option<FederationReport> {
    Some(s.as_any()?.downcast_ref::<FederatedSource>()?.report())
}

/// Wall-clock variant of the mirror-failover scenario: the same flaky ×
/// steady mirror pair per relation, but the candidates race on real
/// producer threads (queue lanes, `FederatedSource::threaded`) while an accelerated
/// [`WallClock`] plays the delivery schedules back in real time. Reports
/// *measured* wall seconds, and asserts that (a) the threaded hedged run
/// produces the identical deduped answer as the deterministic
/// virtual-clock run — the dual-clock equivalence — and (b) hedging wins
/// real latency against the worst static mirror pin.
pub fn mirror_failover_wall_suite(cfg: &ExpConfig) -> String {
    /// Timeline runs this much faster than real time; delivery schedules
    /// keep their shape, the race just plays back quicker.
    const ACCEL: f64 = 25.0;
    let [(_, uniform), _] = datasets(cfg);
    let q = WorkloadQuery::Q3A.query();

    let order = [
        MirrorKind::FastFlaky,
        MirrorKind::SteadySlow,
        MirrorKind::RemoteBackup,
    ];
    let order_rev = [
        MirrorKind::SteadySlow,
        MirrorKind::FastFlaky,
        MirrorKind::RemoteBackup,
    ];

    // The deterministic anchor: the virtual-clock federated run.
    let virtual_answer = {
        let mut sources = federated_mirror_sources(&uniform, &q, cfg, &order);
        let run = run_static(
            &q,
            &mut sources,
            OptimizerContext::no_statistics(),
            cfg.batch_size,
            CpuCostModel::PerTupleNs(200),
        )
        .expect("virtual mirror run");
        canonicalize_approx(&run.rows)
    };

    struct WallRun {
        real_s: f64,
        timeline_s: f64,
        rows: Vec<String>,
        failovers: u64,
        stalls: u64,
        dupes: u64,
        blocked: u64,
        declined: u64,
    }
    let run_wall = |mk: &dyn Fn(Arc<dyn Clock>) -> Vec<Box<dyn Source>>| -> WallRun {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(ACCEL));
        let mut sources = mk(clock.clone());
        let start = Instant::now();
        let out = run_static_with_driver(
            &q,
            &mut sources,
            OptimizerContext::no_statistics(),
            SimDriver::new(cfg.batch_size, CpuCostModel::Measured).with_clock(clock),
            None,
        )
        .expect("wall mirror run");
        let real_s = start.elapsed().as_secs_f64();
        let (mut failovers, mut stalls, mut dupes, mut blocked, mut declined) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        for r in sources.iter().filter_map(|s| fed_report_of(s.as_ref())) {
            failovers += r.failovers;
            stalls += r.candidates.iter().map(|c| c.stalls).sum::<u64>();
            dupes += r.candidates.iter().map(|c| c.duplicates).sum::<u64>();
            blocked += r.candidates.iter().map(|c| c.blocked_sends).sum::<u64>();
            declined += r.declined_hedges;
        }
        WallRun {
            real_s,
            timeline_s: out.exec.virtual_us as f64 / 1e6,
            rows: canonicalize_approx(&out.rows),
            failovers,
            stalls,
            dupes,
            blocked,
            declined,
        }
    };

    eprintln!("[mirrors-wall] static flaky pin");
    let flaky = run_wall(&|clock| {
        // Pinned mirrors have no producer threads; only the driver waits
        // on the clock.
        let _ = clock;
        pinned_mirror_sources(&uniform, &q, cfg, MirrorKind::FastFlaky)
    });
    eprintln!("[mirrors-wall] static steady pin");
    let steady = run_wall(&|clock| {
        let _ = clock;
        pinned_mirror_sources(&uniform, &q, cfg, MirrorKind::SteadySlow)
    });
    eprintln!("[mirrors-wall] threaded federated [flaky,steady,remote]");
    let fed = run_wall(&|clock| concurrent_mirror_sources(&uniform, &q, cfg, &order, clock));
    eprintln!("[mirrors-wall] threaded federated [steady,flaky,remote]");
    let fed_rev =
        run_wall(&|clock| concurrent_mirror_sources(&uniform, &q, cfg, &order_rev, clock));

    // Render the diagnostic table *before* asserting, so a failed run
    // (e.g. a timing flake on a loaded machine) still shows its data.
    let mut t = TextTable::new(&[
        "strategy",
        "real-s",
        "timeline-s",
        "rows",
        "failovers",
        "stalls",
        "deduped",
        "blocked",
        "declined",
    ]);
    for (name, r) in [
        ("static flaky mirror (wall)", &flaky),
        ("static steady mirror (wall)", &steady),
        ("threaded federated [flaky,steady,remote]", &fed),
        ("threaded federated [steady,flaky,remote]", &fed_rev),
    ] {
        t.row(vec![
            name.into(),
            secs(r.real_s),
            secs(r.timeline_s),
            count(r.rows.len()),
            r.failovers.to_string(),
            r.stalls.to_string(),
            r.dupes.to_string(),
            r.blocked.to_string(),
            r.declined.to_string(),
        ]);
    }
    let rendered = t.render();

    // Dual-clock equivalence: whatever the race's interleaving, the
    // deduped answer is byte-identical to the deterministic virtual run.
    assert_eq!(
        flaky.rows, virtual_answer,
        "static flaky wall answer diverged\n{rendered}"
    );
    assert_eq!(
        steady.rows, virtual_answer,
        "static steady wall answer diverged\n{rendered}"
    );
    assert_eq!(
        fed.rows, virtual_answer,
        "threaded answer diverged from virtual\n{rendered}"
    );
    assert_eq!(
        fed_rev.rows, virtual_answer,
        "permutation changed the answer\n{rendered}"
    );
    let worst = flaky.real_s.max(steady.real_s);
    assert!(
        fed.real_s < worst && fed_rev.real_s < worst,
        "threaded hedging ({:.3}s / {:.3}s real) must beat the worst static pin \
         ({worst:.3}s real)\n{rendered}",
        fed.real_s,
        fed_rev.real_s,
    );
    assert!(
        fed.declined + fed_rev.declined >= 1,
        "the cost gate must decline at least one race the legacy stall-only rule would \
         have taken (waking the remote standby while the steady mirror races)\n{rendered}"
    );

    format!(
        "{rendered}\nthreaded hedging vs worst static pin: {:.2}× faster in real time \
         (×{ACCEL:.0} accelerated playback; answers byte-identical to the virtual-clock run); \
         cost gate declined {} races the stall-only rule would have started\n",
        worst / fed.real_s.max(1e-9),
        fed.declined + fed_rev.declined
    )
}

/// Threaded plan fragments (the §5 parallel-subplan configuration):
/// Q3A pinned to `(orders ⋈ lineitem) ⋈ customer`, with CUSTOMER served
/// by slow federated mirrors (delivery-bound) and ORDERS/LINEITEM local
/// (the CPU-heavy join subtree). The fragmentation pass — fed the
/// customer delivery rate *observed by a profiling run* — cuts the
/// `orders ⋈ lineitem` subtree into its own producer fragment, and the
/// suite compares the same fragmented plan executed sequentially vs
/// threaded over `exec::queue_pair` exchanges, both on an accelerated
/// wall clock.
///
/// Asserts: both wall runs (and each other) produce the byte-identical
/// canonicalized answer of the deterministic virtual-clock run; and, on
/// hosts with ≥ 2 CPUs, that the threaded run beats the sequential one
/// ≥ 1.1× in real time (the producer fragment's CPU overlaps the slow
/// federated deliveries on another core — on a single-core host there is
/// no parallelism to win, so only correctness is asserted).
pub fn fragments_wall_suite(cfg: &ExpConfig) -> String {
    use tukwila_core::lower_fragmented;
    use tukwila_datagen::TableId;
    use tukwila_exec::FragmentOptions;
    use tukwila_optimizer::{choose_cuts, FragmentationConfig, Optimizer};
    use tukwila_stats::SelectivityCatalog;

    /// Timeline plays back this much faster than real time.
    const ACCEL: f64 = 25.0;
    // The CPU-heavy subtree must be genuinely heavy relative to both the
    // customer delivery schedule and thread/sleep-chunk overheads, or
    // there is nothing for the producer fragment to overlap; floor the
    // scale factor.
    let cfg = ExpConfig {
        scale: cfg.scale.max(0.04),
        ..*cfg
    };
    let [(_, uniform), _] = datasets(&cfg);
    let q = WorkloadQuery::Q3A.query();
    let order = [
        TableId::Orders.rel_id(),
        TableId::Lineitem.rel_id(),
        TableId::Customer.rel_id(),
    ];

    // 1. The deterministic anchor doubles as the profiling run: the
    //    sequential federated adapter observes customer's delivery rate
    //    under the virtual clock.
    eprintln!("[fragments-wall] virtual anchor + rate profiling");
    let mut vsources = slow_customer_mirror_sources(&uniform, &q, &cfg, None);
    let vrun = tukwila_core::run_static_from(
        &q,
        &mut vsources,
        OptimizerContext::no_statistics(),
        cfg.batch_size,
        CpuCostModel::Zero,
        Some(&order),
    )
    .expect("virtual fragments run");
    let virtual_answer = canonicalize_approx(&vrun.rows);
    let customer_rate = vsources
        .iter()
        .find(|s| s.rel_id() == TableId::Customer.rel_id())
        .and_then(|s| s.observed_rate())
        .expect("federated customer profiles its delivery rate");

    // 2. Fragmentation from the observed source properties: the slow
    //    customer rate makes its sibling subtree worth its own fragment.
    let catalog = Arc::new(SelectivityCatalog::new());
    catalog.observe_source_rate(TableId::Customer.rel_id(), customer_rate);
    let ctx = OptimizerContext {
        catalog: Some(catalog),
        ..OptimizerContext::no_statistics()
    };
    let plan = Optimizer::new(ctx.clone())
        .plan_with_order(&q, &order)
        .expect("pinned Q3A plan");
    // On a single-core host the model's core budget correctly vetoes
    // every cut (no parallel win is possible); this suite still wants
    // the exchange to exist there so sequential/threaded/virtual answer
    // equivalence is exercised — pin the budget to 2 and leave the
    // speedup assertion gated on the real core count below.
    let frag_cfg = FragmentationConfig {
        cores: Some(2),
        ..Default::default()
    };
    let cuts = choose_cuts(&plan, &ctx, &frag_cfg);
    assert!(
        !cuts.is_empty(),
        "customer rate {customer_rate:.0} t/s must be slow enough to cut orders⋈lineitem"
    );

    struct WallRun {
        real_s: f64,
        timeline_s: f64,
        rows: Vec<String>,
        fragments: usize,
        max_queue_depth: u64,
        blocked: u64,
    }
    let run_wall = |threaded: bool| -> WallRun {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(ACCEL));
        let sources = slow_customer_mirror_sources(&uniform, &q, &cfg, Some(clock.clone()));
        let frag = lower_fragmented(&plan, &cuts, None, true).expect("fragmented lowering");
        let fragments = frag.plan.fragment_count();
        let driver = SimDriver::new(cfg.batch_size, CpuCostModel::Measured).with_clock(clock);
        // Exchange knobs sized for the accelerated clock: the poll tick
        // is authored in timeline µs, so at ×25 playback the default
        // 200µs tick would wake the consumer every 8 real µs.
        let opts = FragmentOptions {
            queue_capacity: 16,
            poll_tick_us: 10_000,
            ..Default::default()
        };
        let start = Instant::now();
        let (rows, report) = if threaded {
            driver.run_fragments_threaded(frag.plan, sources, &opts)
        } else {
            driver.run_fragments_sequential(frag.plan, sources)
        }
        .expect("wall fragments run");
        WallRun {
            real_s: start.elapsed().as_secs_f64(),
            timeline_s: report.virtual_us as f64 / 1e6,
            rows: canonicalize_approx(&rows),
            fragments,
            max_queue_depth: report.max_queue_depth,
            blocked: report.blocked_sends(),
        }
    };

    eprintln!("[fragments-wall] sequential fragmented plan (wall clock)");
    let sequential = run_wall(false);
    eprintln!("[fragments-wall] threaded fragmented plan (wall clock)");
    let threaded = run_wall(true);

    let mut t = TextTable::new(&[
        "strategy",
        "fragments",
        "real-s",
        "timeline-s",
        "rows",
        "max-q",
        "blocked",
    ]);
    for (name, r) in [
        ("sequential fragments (wall)", &sequential),
        ("threaded fragments (wall)", &threaded),
    ] {
        t.row(vec![
            name.into(),
            r.fragments.to_string(),
            secs(r.real_s),
            secs(r.timeline_s),
            count(r.rows.len()),
            r.max_queue_depth.to_string(),
            r.blocked.to_string(),
        ]);
    }
    let rendered = t.render();

    assert_eq!(
        sequential.rows, virtual_answer,
        "sequential wall answer diverged from the virtual-clock run\n{rendered}"
    );
    assert_eq!(
        threaded.rows, virtual_answer,
        "threaded answer diverged from the virtual-clock run\n{rendered}"
    );
    assert!(threaded.fragments >= 2, "an exchange must exist");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = sequential.real_s / threaded.real_s.max(1e-9);
    if cores >= 2 {
        assert!(
            speedup >= 1.1,
            "threaded fragments ({:.3}s real) must beat the sequential plan \
             ({:.3}s real) ≥1.1× on a {cores}-core host\n{rendered}",
            threaded.real_s,
            sequential.real_s,
        );
    }
    let note = if cores >= 2 {
        format!(
            "threaded fragments vs sequential: {speedup:.2}× faster in real time \
             (×{ACCEL:.0} accelerated playback; answers byte-identical to the \
             virtual-clock run)\n"
        )
    } else {
        format!(
            "speedup skipped (1 core): no parallel win can exist here, so none is asserted \
             ({speedup:.2}× observed); answers verified byte-identical to the virtual-clock \
             run. Re-run on ≥2 cores for the overlap measurement.\n"
        )
    };
    format!("{rendered}\n{note}")
}

/// `repro fragments-wall --sweep-cuts`: sweep the cut placements of the
/// pinned Q3A fragments scenario and report the delivery model's
/// *predicted* net win next to the *observed* wall-clock win for each
/// placement — a direct validation of `cut_net_win_us` against reality.
///
/// Placements are generated from the three pinned join orders of Q3A
/// (each yields one eligible producer subtree) plus the no-cut baseline.
/// Observed win = sequential wall time − threaded wall time for the same
/// fragmented plan (positive only where real parallelism exists; on a
/// single-core host the table reports the loss honestly). Every run's
/// answer must stay byte-identical to the virtual-clock anchor.
pub fn fragments_sweep_suite(cfg: &ExpConfig) -> String {
    use tukwila_core::lower_fragmented;
    use tukwila_datagen::TableId;
    use tukwila_exec::FragmentOptions;
    use tukwila_optimizer::{fragment::cut_net_win_us, FragmentationConfig, Optimizer, PhysKind};
    use tukwila_stats::SelectivityCatalog;

    const ACCEL: f64 = 25.0;
    let cfg = ExpConfig {
        scale: cfg.scale.max(0.04),
        ..*cfg
    };
    let [(_, uniform), _] = datasets(&cfg);
    let q = WorkloadQuery::Q3A.query();
    let (o, l, c) = (
        TableId::Orders.rel_id(),
        TableId::Lineitem.rel_id(),
        TableId::Customer.rel_id(),
    );

    // Profile customer's delivery rate once (virtual anchor), as
    // fragments_wall_suite does; the anchor's answer checks every run.
    eprintln!("[fragments-sweep] virtual anchor + rate profiling");
    let mut vsources = slow_customer_mirror_sources(&uniform, &q, &cfg, None);
    let vrun = tukwila_core::run_static_from(
        &q,
        &mut vsources,
        OptimizerContext::no_statistics(),
        cfg.batch_size,
        CpuCostModel::Zero,
        Some(&[o, l, c]),
    )
    .expect("virtual sweep anchor");
    let virtual_answer = canonicalize_approx(&vrun.rows);
    let customer_rate = vsources
        .iter()
        .find(|s| s.rel_id() == c)
        .and_then(|s| s.observed_rate())
        .expect("federated customer profiles its delivery rate");
    let catalog = Arc::new(SelectivityCatalog::new());
    catalog.observe_source_rate(c, customer_rate);
    let ctx = OptimizerContext {
        catalog: Some(catalog),
        ..OptimizerContext::no_statistics()
    };
    let frag_cfg = FragmentationConfig {
        cores: Some(2),
        ..Default::default()
    };

    let mut t = TextTable::new(&[
        "placement",
        "cut subtree",
        "predicted win ms",
        "model says",
        "seq real-s",
        "thr real-s",
        "observed win ms",
    ]);
    // Each pinned order puts a different subtree next to the slow
    // customer deliveries; "no cut" anchors the sweep.
    let placements: [(&str, [u32; 3]); 3] = [
        ("(orders⋈lineitem)⋈customer", [o, l, c]),
        ("(orders⋈customer)⋈lineitem", [o, c, l]),
        ("(customer⋈orders)⋈lineitem", [c, o, l]),
    ];
    for (name, order) in placements {
        let plan = Optimizer::new(ctx.clone())
            .plan_with_order(&q, &order)
            .expect("pinned sweep plan");
        // The single eligible producer subtree of a 3-relation left-deep
        // plan is the root's non-scan child.
        let PhysKind::Join { left, right, .. } = &plan.root.kind else {
            panic!("pinned plan must be a join");
        };
        let (cand, slow) = if left.join_count() >= 1 {
            (left, right)
        } else {
            (right, left)
        };
        let predicted_us = cut_net_win_us(cand, slow.est_wait_us, &ctx, &frag_cfg);
        let pays = predicted_us >= frag_cfg.min_net_win_us;
        let cuts = vec![cand.sig.clone()];

        let run_wall = |threaded: bool| -> (f64, Vec<String>) {
            let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(ACCEL));
            let sources = slow_customer_mirror_sources(&uniform, &q, &cfg, Some(clock.clone()));
            let frag = lower_fragmented(&plan, &cuts, None, true).expect("sweep lowering");
            let driver = SimDriver::new(cfg.batch_size, CpuCostModel::Measured).with_clock(clock);
            let opts = FragmentOptions {
                queue_capacity: 16,
                poll_tick_us: 10_000,
                ..Default::default()
            };
            let start = Instant::now();
            let (rows, _) = if threaded {
                driver.run_fragments_threaded(frag.plan, sources, &opts)
            } else {
                driver.run_fragments_sequential(frag.plan, sources)
            }
            .expect("sweep wall run");
            (start.elapsed().as_secs_f64(), canonicalize_approx(&rows))
        };
        eprintln!("[fragments-sweep] {name}: sequential");
        let (seq_s, seq_rows) = run_wall(false);
        eprintln!("[fragments-sweep] {name}: threaded");
        let (thr_s, thr_rows) = run_wall(true);
        assert_eq!(
            seq_rows, virtual_answer,
            "{name}: sequential answer diverged"
        );
        assert_eq!(thr_rows, virtual_answer, "{name}: threaded answer diverged");
        // Observed win in timeline ms (real seconds × acceleration).
        let observed_ms = (seq_s - thr_s) * ACCEL * 1e3;
        t.row(vec![
            name.into(),
            cand.describe(),
            format!("{:.1}", predicted_us / 1e3),
            if pays { "cut" } else { "skip" }.into(),
            secs(seq_s),
            secs(thr_s),
            format!("{observed_ms:.0}"),
        ]);
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{}\n{} (customer observed at {customer_rate:.0} t/s; predicted wins are timeline µs \
         from the shared DeliveryModel, observed wins real-time × {ACCEL:.0} accel)\n",
        t.render(),
        if cores >= 2 {
            "host has real parallelism: positive predicted wins should show positive observed wins"
        } else {
            "single-core host: observed wins are expected to be ≤ 0 (the model's core budget \
             would veto these cuts; they are forced here to measure the exchange overhead)"
        }
    )
}

/// The corrective-over-fragments scenario shared by `repro smoke` (its
/// virtual-clock golden) and `repro corrective-wall` (whose threaded runs
/// must reproduce it byte-for-byte): Q3A from the pinned bad plan over
/// the slow federated customer mirrors, with forced switches and
/// aggressive fragmentation so every run exercises a mid-stream plan
/// switch across exchanges.
fn corrective_fragments_cfg(
    batch_size: usize,
    clock: Option<Arc<dyn Clock>>,
    threaded: Option<bool>,
) -> CorrectiveConfig {
    use tukwila_datagen::TableId;
    CorrectiveConfig {
        batch_size,
        cpu: if clock.is_some() {
            CpuCostModel::Measured
        } else {
            CpuCostModel::Zero
        },
        poll_every_batches: 3,
        switch_threshold: 100.0,
        max_phases: 3,
        warmup_batches: 2,
        initial_order: Some(vec![
            TableId::Orders.rel_id(),
            TableId::Lineitem.rel_id(),
            TableId::Customer.rel_id(),
        ]),
        min_remaining_fraction: 0.0,
        clock,
        fragments: Some(tukwila_optimizer::FragmentationConfig::aggressive()),
        threaded_fragments: threaded,
        fragment_options: tukwila_exec::FragmentOptions {
            queue_capacity: 16,
            poll_tick_us: 10_000,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The deterministic virtual-clock answer of the corrective-fragments
/// scenario (the `answers-corrective.txt` golden, and the anchor every
/// `corrective-wall` run is compared against), over a caller-provided
/// dataset at the caller's (already scale-floored) config — both callers
/// have the dataset in hand, so it is generated exactly once per suite.
/// Returns the canonicalized rows and the phase count (the forced switch
/// must actually happen).
fn corrective_virtual_answer(uniform: &Dataset, fcfg: &ExpConfig) -> (Vec<String>, usize) {
    let q = WorkloadQuery::Q3A.query();
    let mut sources = slow_customer_mirror_sources(uniform, &q, fcfg, None);
    let exec = CorrectiveExec::new(q, corrective_fragments_cfg(fcfg.batch_size, None, None));
    let report = exec.run(&mut sources).expect("virtual corrective anchor");
    (canonicalize_approx(&report.rows), report.phase_count())
}

/// Diff a canonicalized answer against its committed golden under
/// `results/answers-<name>.txt`, appending a line to `out`. A missing or
/// unreadable golden FAILS (it is written locally so the diff can land in
/// review, but CI must not pass on an uncommitted golden).
fn diff_golden(name: &str, answer: &[String], out: &mut String) -> bool {
    let path = std::path::Path::new("results").join(format!("answers-{name}.txt"));
    let rendered = answer.join("\n") + "\n";
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == rendered => {
            out.push_str(&format!(
                "{name}: OK ({} rows match golden)\n",
                answer.len()
            ));
            true
        }
        Ok(golden) => {
            let ng = golden.lines().count();
            out.push_str(&format!(
                "{name}: MISMATCH — {} rows computed vs {ng} golden rows ({})\n",
                answer.len(),
                path.display()
            ));
            false
        }
        Err(e) => {
            let _ = std::fs::create_dir_all("results");
            let _ = std::fs::write(&path, &rendered);
            out.push_str(&format!(
                "{name}: FAIL — golden unreadable ({e}); wrote {} ({} rows), review and \
                 commit it\n",
                path.display(),
                answer.len()
            ));
            false
        }
    }
}

/// `repro corrective-wall`: threaded corrective execution over the slow
/// federated customer mirrors — the quiesce protocol under benchmark
/// conditions. Runs the corrective executor three ways over identical
/// data: the deterministic virtual-clock anchor (also the committed
/// golden), sequential fragments on a wall clock, and threaded producer
/// fragments on a wall clock (forced mid-stream switch ⇒ producers
/// quiesced, drained, sealed, respawned). Asserts every answer is
/// byte-identical and that a switch actually happened; reports the
/// real-time win of threading, or "skipped (1 core)" on hosts where no
/// parallel win can exist.
///
/// Returns the report and whether the golden matched (the CI gate bit).
pub fn corrective_wall_suite(cfg: &ExpConfig) -> (String, bool) {
    /// Timeline plays back this much faster than real time.
    const ACCEL: f64 = 25.0;
    let fcfg = ExpConfig {
        scale: cfg.scale.max(0.04),
        ..*cfg
    };
    let [(_, uniform), _] = datasets(&fcfg);
    let q = WorkloadQuery::Q3A.query();

    eprintln!("[corrective-wall] virtual anchor (forced switch, sequential fragments)");
    let (virtual_answer, virtual_phases) = corrective_virtual_answer(&uniform, &fcfg);
    assert!(
        virtual_phases > 1,
        "the forced switch must happen in the virtual anchor"
    );

    struct WallCorr {
        real_s: f64,
        timeline_s: f64,
        phases: usize,
        max_fragments: usize,
        rows: Vec<String>,
        calibrated: Option<f64>,
        max_queue_depth: u64,
        blocked: u64,
    }
    let run_wall = |threaded: bool| -> WallCorr {
        let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(ACCEL));
        let mut sources = slow_customer_mirror_sources(&uniform, &q, &fcfg, Some(clock.clone()));
        let exec = CorrectiveExec::new(
            q.clone(),
            corrective_fragments_cfg(fcfg.batch_size, Some(clock), Some(threaded)),
        );
        let start = Instant::now();
        let report = exec.run(&mut sources).expect("corrective wall run");
        WallCorr {
            real_s: start.elapsed().as_secs_f64(),
            timeline_s: report.exec.virtual_us as f64 / 1e6,
            phases: report.phase_count(),
            max_fragments: report.phases.iter().map(|p| p.fragments).max().unwrap_or(1),
            rows: canonicalize_approx(&report.rows),
            calibrated: report.calibrated_unit_us,
            max_queue_depth: report.exec.max_queue_depth,
            blocked: report.exec.blocked_sends(),
        }
    };
    eprintln!("[corrective-wall] sequential corrective (wall clock)");
    let sequential = run_wall(false);
    eprintln!("[corrective-wall] threaded corrective (wall clock, quiesce on switch)");
    let threaded = run_wall(true);

    let mut t = TextTable::new(&[
        "strategy",
        "phases",
        "max fragments",
        "real-s",
        "timeline-s",
        "rows",
        "max-q",
        "blocked",
    ]);
    for (name, r) in [
        ("sequential corrective (wall)", &sequential),
        ("threaded corrective (wall)", &threaded),
    ] {
        t.row(vec![
            name.into(),
            r.phases.to_string(),
            r.max_fragments.to_string(),
            secs(r.real_s),
            secs(r.timeline_s),
            count(r.rows.len()),
            r.max_queue_depth.to_string(),
            r.blocked.to_string(),
        ]);
    }
    let rendered = t.render();

    assert_eq!(
        sequential.rows, virtual_answer,
        "sequential wall corrective answer diverged from the virtual anchor\n{rendered}"
    );
    assert_eq!(
        threaded.rows, virtual_answer,
        "threaded corrective answer diverged from the virtual anchor\n{rendered}"
    );
    assert!(
        threaded.phases > 1,
        "the forced switch (and with it the quiesce protocol) must run\n{rendered}"
    );
    assert!(
        threaded.max_fragments > 1,
        "threaded phases must actually run producer fragments\n{rendered}"
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = sequential.real_s / threaded.real_s.max(1e-9);
    let note = if cores >= 2 {
        format!(
            "threaded corrective vs sequential: {speedup:.2}× in real time across a forced \
             mid-stream switch (×{ACCEL:.0} accelerated playback; answers byte-identical to \
             the virtual-clock anchor; calibrated unit_us {})\n",
            threaded
                .calibrated
                .map_or("n/a".into(), |u| format!("{u:.3}")),
        )
    } else {
        format!(
            "speedup skipped (1 core): no parallel win can exist here, so none is asserted \
             ({speedup:.2}× observed); answers verified byte-identical to the virtual-clock \
             anchor.\n"
        )
    };

    let mut out = format!("{rendered}\n{note}\n");
    let ok = diff_golden("corrective", &virtual_answer, &mut out);
    (out, ok)
}

/// `repro smoke`: quick answer-regression gate for CI. Runs the mirrors,
/// fragments, and corrective scenarios in pure virtual-clock mode
/// (deterministic, seconds of CPU) and diffs their canonicalized answers
/// against the goldens committed under `results/answers-*.txt`. A
/// cost-model change that alters *answers* — not just timing — fails
/// this; a missing golden is (re)created so the diff lands in review.
///
/// Returns the report and whether every scenario matched its golden.
pub fn smoke_suite(cfg: &ExpConfig) -> (String, bool) {
    use tukwila_datagen::TableId;

    let [(_, uniform), _] = datasets(cfg);
    let q = WorkloadQuery::Q3A.query();

    // Scenario 1: federated mirrors (virtual clock), both registration
    // orders must agree with each other before touching the golden.
    eprintln!("[smoke] mirrors (virtual clock)");
    let run_fed = |order: &[MirrorKind]| {
        let mut sources = federated_mirror_sources(&uniform, &q, cfg, order);
        let out = run_static(
            &q,
            &mut sources,
            OptimizerContext::no_statistics(),
            cfg.batch_size,
            CpuCostModel::PerTupleNs(200),
        )
        .expect("smoke mirrors run");
        canonicalize_approx(&out.rows)
    };
    let mirrors = run_fed(&[
        MirrorKind::FastFlaky,
        MirrorKind::SteadySlow,
        MirrorKind::RemoteBackup,
    ]);
    let mirrors_rev = run_fed(&[
        MirrorKind::SteadySlow,
        MirrorKind::FastFlaky,
        MirrorKind::RemoteBackup,
    ]);
    assert_eq!(
        mirrors, mirrors_rev,
        "smoke: mirror registration order changed the answer"
    );

    // Scenario 2: the fragments workload (slow federated customer) run
    // statically under the virtual clock — the anchor every wall-clock
    // fragments run is compared against.
    eprintln!("[smoke] fragments (virtual clock)");
    let fcfg = ExpConfig {
        scale: cfg.scale.max(0.04),
        ..*cfg
    };
    let [(_, funiform), _] = datasets(&fcfg);
    let mut fsources = slow_customer_mirror_sources(&funiform, &q, &fcfg, None);
    let frun = tukwila_core::run_static_from(
        &q,
        &mut fsources,
        OptimizerContext::no_statistics(),
        fcfg.batch_size,
        CpuCostModel::Zero,
        Some(&[
            TableId::Orders.rel_id(),
            TableId::Lineitem.rel_id(),
            TableId::Customer.rel_id(),
        ]),
    )
    .expect("smoke fragments run");
    let fragments = canonicalize_approx(&frun.rows);

    // Scenario 3: corrective execution with a forced mid-stream switch
    // over fragmented phase plans (virtual clock) — the anchor the
    // threaded `corrective-wall` runs must reproduce byte-for-byte.
    eprintln!("[smoke] corrective (virtual clock, forced switch)");
    let (corrective, corrective_phases) = corrective_virtual_answer(&funiform, &fcfg);
    assert!(
        corrective_phases > 1,
        "smoke: the corrective scenario's forced switch must happen"
    );

    let mut out = String::new();
    let mut ok = true;
    for (name, answer) in [
        ("mirrors", &mirrors),
        ("fragments", &fragments),
        ("corrective", &corrective),
    ] {
        ok &= diff_golden(name, answer, &mut out);
    }
    (out, ok)
}

/// The trace-enabled virtual-clock mirrors run shared by `repro mirrors
/// --trace` and the smoke trace gate: the Q3A mirror-failover scenario
/// with the adaptivity journal attached to both the federation schedulers
/// (hedge decisions, activations, completion counters) and the engine
/// driver (drive spans, tuple/batch counters). Returns the canonicalized
/// answer; the journal accumulates into the caller's `trace`.
fn traced_mirrors_run(cfg: &ExpConfig, trace: &TraceSink) -> Vec<String> {
    let [(_, uniform), _] = datasets(cfg);
    let q = WorkloadQuery::Q3A.query();
    let order = [
        MirrorKind::FastFlaky,
        MirrorKind::SteadySlow,
        MirrorKind::RemoteBackup,
    ];
    let mut sources = federated_mirror_sources_traced(&uniform, &q, cfg, &order, trace.clone());
    let out = run_static_with_driver(
        &q,
        &mut sources,
        OptimizerContext::no_statistics(),
        SimDriver::new(cfg.batch_size, CpuCostModel::PerTupleNs(200)).with_trace(trace.clone()),
        None,
    )
    .expect("traced mirrors run");
    canonicalize_approx(&out.rows)
}

/// The trace-enabled virtual-clock corrective-fragments run (forced
/// mid-stream switch): journals the corrective monitor's switch/hold
/// decisions with observed-vs-estimated provenance, cost-unit
/// calibrations, per-cut net-win decisions, and the query/phase span
/// hierarchy. Returns the canonicalized answer and the phase count.
fn traced_corrective_run(
    fcfg: &ExpConfig,
    uniform: &Dataset,
    trace: &TraceSink,
) -> (Vec<String>, usize) {
    let q = WorkloadQuery::Q3A.query();
    let mut sources = slow_customer_mirror_sources_traced(uniform, &q, fcfg, None, trace.clone());
    let mut ccfg = corrective_fragments_cfg(fcfg.batch_size, None, None);
    ccfg.trace = trace.clone();
    let exec = CorrectiveExec::new(q, ccfg);
    let report = exec.run(&mut sources).expect("traced corrective run");
    (canonicalize_approx(&report.rows), report.phase_count())
}

/// Render a journal's rollup plus the per-relation hedge-decision
/// sequences (timing-free signatures, emission order).
fn render_trace_rollup(header: &str, records: &[tukwila_stats::TraceRecord]) -> String {
    let summary = QuerySummary::from_records(records);
    let mut out = format!("{header}\n");
    out.push_str(&summary.render());
    let sigs = hedge_signatures(records);
    if !sigs.is_empty() {
        out.push_str("  hedge decisions (per relation, emission order):\n");
        for list in sigs.values() {
            for s in list {
                out.push_str(&format!("    {s}\n"));
            }
        }
    }
    out
}

/// `repro mirrors --trace`: the mirror-failover scenario with the
/// adaptivity journal on. Asserts the provenance contract — every fired
/// hedge decision carries its candidate scores (the RaceDecision
/// win/waste each standby was priced at) and a chosen standby — and that
/// tracing did not perturb the answer relative to the untraced run.
/// Returns the human rollup and the JSONL export
/// (`results/trace-mirrors.jsonl`).
pub fn mirrors_trace_suite(cfg: &ExpConfig) -> (String, String) {
    eprintln!("[mirrors --trace] federated mirrors (virtual clock, journal on)");
    let clock = Arc::new(VirtualClock::new());
    let trace = TraceSink::unbounded(clock);
    let answer = traced_mirrors_run(cfg, &trace);

    // Tracing must be pure observation: the untraced run of the identical
    // scenario produces the identical deduped answer.
    let untraced = {
        let [(_, uniform), _] = datasets(cfg);
        let q = WorkloadQuery::Q3A.query();
        let order = [
            MirrorKind::FastFlaky,
            MirrorKind::SteadySlow,
            MirrorKind::RemoteBackup,
        ];
        let mut sources = federated_mirror_sources(&uniform, &q, cfg, &order);
        let out = run_static(
            &q,
            &mut sources,
            OptimizerContext::no_statistics(),
            cfg.batch_size,
            CpuCostModel::PerTupleNs(200),
        )
        .expect("untraced mirrors run");
        canonicalize_approx(&out.rows)
    };
    assert_eq!(
        answer, untraced,
        "enabling the trace journal changed the answer"
    );

    let records = trace.snapshot();
    for rec in &records {
        if let TraceEvent::HedgeDecision {
            fired: true,
            chosen,
            scores,
            ..
        } = &rec.event
        {
            assert!(
                chosen.is_some() && !scores.is_empty(),
                "a fired hedge decision must journal its winner and candidate scores"
            );
        }
    }
    let summary = QuerySummary::from_records(&records);
    assert!(
        summary.hedges_fired >= 1,
        "the mirror scenario must hedge at least once (fired={})",
        summary.hedges_fired
    );
    assert!(
        summary.hedges_declined >= 1,
        "the cost gate must decline at least one race (declined={})",
        summary.hedges_declined
    );

    let out = render_trace_rollup(
        &format!(
            "adaptivity trace — federated mirrors (virtual clock, {} answer rows, \
             {} journal records):",
            answer.len(),
            records.len()
        ),
        &records,
    );
    (out, trace.export_jsonl())
}

/// `repro corrective-wall --trace`: the *threaded* corrective run with
/// the journal on — the one place the full span hierarchy appears at
/// once: query → phase → fragment plus the quiesce protocol's park /
/// drain / seal / respawn sub-spans around the forced switch, with the
/// switch decision's observed-vs-estimated provenance. Returns the human
/// rollup and the JSONL export (`results/trace-corrective.jsonl`).
pub fn corrective_trace_suite(cfg: &ExpConfig) -> (String, String) {
    const ACCEL: f64 = 25.0;
    let fcfg = ExpConfig {
        scale: cfg.scale.max(0.04),
        ..*cfg
    };
    let [(_, uniform), _] = datasets(&fcfg);
    let q = WorkloadQuery::Q3A.query();
    eprintln!("[corrective-wall --trace] threaded corrective (wall clock, journal on)");
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(ACCEL));
    let trace = TraceSink::unbounded(clock.clone());
    let mut sources = slow_customer_mirror_sources_traced(
        &uniform,
        &q,
        &fcfg,
        Some(clock.clone()),
        trace.clone(),
    );
    let mut ccfg = corrective_fragments_cfg(fcfg.batch_size, Some(clock), Some(true));
    ccfg.trace = trace.clone();
    let exec = CorrectiveExec::new(q, ccfg);
    let report = exec.run(&mut sources).expect("traced corrective wall run");
    assert!(
        report.phase_count() > 1,
        "the forced switch must happen in the traced run"
    );

    let records = trace.snapshot();
    let summary = QuerySummary::from_records(&records);
    assert!(
        summary.switches >= 1,
        "the journal must witness the plan switch"
    );
    assert!(
        summary.spans.get("quiesce").copied().unwrap_or(0) >= 1,
        "a threaded switch must journal its quiesce span"
    );
    let out = render_trace_rollup(
        &format!(
            "adaptivity trace — threaded corrective (wall clock ×{ACCEL:.0}, {} phases, \
             {} journal records):",
            report.phase_count(),
            records.len()
        ),
        &records,
    );
    (out, trace.export_jsonl())
}

/// Diff the decision-count rollup against the committed golden
/// `results/trace-summary.txt` — same contract as [`diff_golden`]: a
/// missing golden is written locally (so the diff lands in review) but
/// FAILS the gate.
fn diff_trace_summary(counts: &str, out: &mut String) -> bool {
    diff_trace_summary_named("trace-summary.txt", counts, out)
}

/// [`diff_trace_summary`] against an arbitrary golden file under
/// `results/` (the serve smoke has its own decision-count golden).
fn diff_trace_summary_named(file: &str, counts: &str, out: &mut String) -> bool {
    let path = std::path::Path::new("results").join(file);
    let stem = file.strip_suffix(".txt").unwrap_or(file);
    match std::fs::read_to_string(&path) {
        Ok(golden) if golden == counts => {
            out.push_str(&format!("{stem}: OK (decision counts match golden)\n"));
            true
        }
        Ok(golden) => {
            out.push_str(&format!(
                "{stem}: MISMATCH ({})\n--- golden ---\n{golden}--- computed ---\n{counts}",
                path.display()
            ));
            false
        }
        Err(e) => {
            let _ = std::fs::create_dir_all("results");
            let _ = std::fs::write(&path, counts);
            out.push_str(&format!(
                "{stem}: FAIL — golden unreadable ({e}); wrote {}, review and commit it\n",
                path.display()
            ));
            false
        }
    }
}

/// `repro smoke --trace`: one journal shared across the deterministic
/// virtual-clock mirrors and corrective scenarios, rolled up into the
/// decision-count summary and diffed against the committed golden
/// `results/trace-summary.txt`. Both scenarios are seed-pinned pure
/// virtual-clock runs, so every decision count — hedges fired/declined,
/// switches, holds, calibrations, cuts — is deterministic; a change here
/// means the *adaptive decisions themselves* changed, not just timing.
/// Also re-diffs both answers against their `answers-*.txt` goldens
/// (tracing must not perturb results). Returns (report, jsonl, ok).
pub fn smoke_trace_suite(cfg: &ExpConfig) -> (String, String, bool) {
    let clock = Arc::new(VirtualClock::new());
    let trace = TraceSink::unbounded(clock);
    let mut out = String::new();

    eprintln!("[smoke --trace] mirrors (virtual clock, journal on)");
    let mirrors_answer = traced_mirrors_run(cfg, &trace);
    let mut ok = diff_golden("mirrors", &mirrors_answer, &mut out);

    eprintln!("[smoke --trace] corrective (virtual clock, journal on)");
    let fcfg = ExpConfig {
        scale: cfg.scale.max(0.04),
        ..*cfg
    };
    let [(_, funiform), _] = datasets(&fcfg);
    let (corrective_answer, phases) = traced_corrective_run(&fcfg, &funiform, &trace);
    assert!(
        phases > 1,
        "smoke --trace: the corrective forced switch must happen"
    );
    ok &= diff_golden("corrective", &corrective_answer, &mut out);

    let records = trace.snapshot();
    let summary = QuerySummary::from_records(&records);
    out.push('\n');
    out.push_str(&render_trace_rollup(
        "combined adaptivity rollup (mirrors + corrective, virtual clock):",
        &records,
    ));
    ok &= diff_trace_summary(&summary.decision_counts(), &mut out);
    (out, trace.export_jsonl(), ok)
}

/// `repro serve`: the multi-query serving front end over the shared
/// learning catalog — the headline serving bench.
///
/// N queries arrive one wave at a time over the same degraded catalog
/// (every relation: dead primary + slow + fast declared standbys, see
/// [`serve_degraded_catalog`]). Three runs over identical specs:
///
/// * **shared / virtual** — one [`Server`], one learning store: query 1
///   pays the full cold stall patience (`min_stall_us`), every later
///   query hedges at the warm floor because the store knows the primary
///   is dead. The deterministic anchor: per-query answers are diffed
///   against the `answers-serve-q*.txt` goldens and the fleet's
///   decision counts against `trace-summary-serve.txt`.
/// * **cold / virtual** — a fresh server (fresh learning store) per
///   query: the no-serving baseline. Shared must beat it on total
///   makespan — that *is* the value of the shared catalog.
/// * **shared / threaded** — the same waves on real threads against an
///   accelerated wall clock; per-query answers must match the virtual
///   anchor byte-for-byte (canonicalized).
///
/// The true-parallel claim (a concurrent wave beating sequential waves
/// in real time) additionally runs when the host has >1 core, and is
/// honestly reported as "skipped (1 core)" otherwise.
///
/// Returns the report and whether every golden matched (the CI gate).
pub fn serve_suite(cfg: &ExpConfig) -> (String, bool) {
    const QUERIES: usize = 4;
    let [(_, uniform), _] = datasets(cfg);
    let uniform = Arc::new(uniform);
    let q = WorkloadQuery::Q3A.query();

    let server_config = || ServerConfig {
        federation: FederationConfig {
            // A cold query waits out 2 virtual seconds before its first
            // hedge; a warm one (primary learned dead) only 100ms.
            min_stall_us: 2_000_000,
            stall_sigma: 8.0,
            warm_stall_us: Some(100_000),
            ..FederationConfig::default()
        },
        batch_size: cfg.batch_size,
        ..ServerConfig::default()
    };
    let waves = |names: &[String]| -> Vec<Vec<QuerySpec>> {
        names
            .iter()
            .map(|name| {
                let d = uniform.clone();
                let tables_q = q.clone();
                vec![QuerySpec::new(name.clone(), q.clone(), move |fed| {
                    serve_degraded_catalog(&d, &tables_q, fed)
                })]
            })
            .collect()
    };
    let names: Vec<String> = (1..=QUERIES).map(|i| format!("q{i}")).collect();

    eprintln!("[serve] shared learning catalog, {QUERIES} waves (virtual clock)");
    let shared_server = Server::new(server_config());
    let shared = shared_server
        .serve(&waves(&names), ServeMode::Virtual)
        .expect("shared virtual serve");

    eprintln!("[serve] cold catalog per query (virtual clock)");
    let mut cold_makespan_us: u64 = 0;
    let mut cold_rows: Vec<Vec<String>> = Vec::new();
    for name in &names {
        let cold = Server::new(server_config())
            .serve(&waves(std::slice::from_ref(name)), ServeMode::Virtual)
            .expect("cold virtual serve");
        cold_makespan_us += cold.makespan_us;
        cold_rows.push(cold.outcomes[0].rows.clone());
    }

    eprintln!("[serve] shared learning catalog, {QUERIES} waves (threaded, wall clock)");
    let threaded = Server::new(server_config())
        .serve(&waves(&names), ServeMode::Threaded)
        .expect("shared threaded serve");

    // Correctness: every mode, every query — one identical answer.
    // Learning repriced *when* the fleet hedged, never *what* it read.
    for (i, o) in shared.outcomes.iter().enumerate() {
        assert_eq!(
            o.rows, cold_rows[i],
            "shared vs cold answer diverged ({})",
            o.name
        );
        assert_eq!(
            o.rows, threaded.outcomes[i].rows,
            "virtual vs threaded answer diverged ({})",
            o.name
        );
        assert!(
            o.summary.hedges_fired >= 1,
            "query {} never hedged off the dead primary",
            o.name
        );
    }
    // The serving claim, asserted on the deterministic virtual clock:
    // the warm queries hedge ~20× sooner, so the shared fleet's total
    // makespan beats cold-catalog-per-query.
    assert!(
        shared.makespan_us < cold_makespan_us,
        "shared-catalog serving ({} us) must beat cold-per-query ({cold_makespan_us} us)",
        shared.makespan_us
    );
    assert!(
        shared.outcomes[0].latency_us > shared.outcomes[QUERIES - 1].latency_us,
        "the warm queries must be faster than the cold first query"
    );
    assert!(
        shared_server.learning().len() >= 3,
        "the learning store must have published profiles"
    );

    // Goldens: per-query answers + the fleet's decision counts.
    let mut out = String::new();
    let mut ok = true;
    for o in &shared.outcomes {
        ok &= diff_golden(&format!("serve-{}", o.name), &o.rows, &mut out);
    }
    ok &= diff_trace_summary_named(
        "trace-summary-serve.txt",
        &shared.fleet_summary().decision_counts(),
        &mut out,
    );

    out.push('\n');
    out.push_str(&shared.render());
    out.push_str(&format!(
        "cold-per-query total makespan: {} us — shared catalog is {:.2}× faster\n",
        cold_makespan_us,
        cold_makespan_us as f64 / shared.makespan_us.max(1) as f64
    ));
    out.push_str(&threaded.render());

    // True-parallel claim: one admission wave of all N queries at once,
    // racing on threads. Only meaningful with real cores to grant.
    let budget = shared_server.arbiter().budget();
    if budget > 1 {
        eprintln!("[serve] concurrent wave of {QUERIES} (threaded, wall clock)");
        let start = Instant::now();
        let concurrent = Server::new(server_config())
            .serve(
                &[waves(&names).into_iter().flatten().collect()],
                ServeMode::Threaded,
            )
            .expect("concurrent threaded serve");
        let real_s = start.elapsed().as_secs_f64();
        for (i, o) in concurrent.outcomes.iter().enumerate() {
            assert_eq!(
                o.rows, shared.outcomes[i].rows,
                "concurrent-wave answer diverged ({})",
                o.name
            );
        }
        out.push_str(&format!(
            "concurrent wave of {QUERIES}: makespan {} us ({real_s:.2} real s) across {budget} cores\n",
            concurrent.makespan_us
        ));
    } else {
        out.push_str(&format!(
            "concurrent wave of {QUERIES}: skipped (1 core) — no parallel win can exist here\n"
        ));
    }
    (out, ok)
}

/// Ablations over two design choices: the value of
/// stitch-up's registry reuse, and the sensitivity of corrective query
/// processing to the polling interval (the paper's 1-second choice).
pub fn ablation_suite(cfg: &ExpConfig) -> String {
    use tukwila_datagen::queries;
    let [(_, d), _] = datasets(cfg);
    let q = queries::q10a();
    let order = WorkloadQuery::Q10A.paper_nostats_order();

    let mut out = String::new();

    // 1. Stitch-up reuse on/off (forced multi-phase so stitch-up matters).
    let mut table = TextTable::new(&[
        "stitch-up reuse",
        "time s",
        "stitch s",
        "recomputed pure",
        "reused tuples",
    ]);
    for reuse in [true, false] {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..cfg.runs {
            let mut c = corrective_cfg(cfg, None, order.clone());
            c.switch_threshold = 100.0; // force a switch
                                        // Two phases: the stitch tree is the (large) final phase's
                                        // tree, so its registered intermediates are exactly what
                                        // reuse saves.
            c.max_phases = 2;
            c.stitch_reuse = reuse;
            let exec = CorrectiveExec::new(q.clone(), c);
            let mut s = local_sources(&d, &q);
            let report = exec.run(&mut s).expect("ablation run");
            times.push(report.exec.cpu_us as f64 / 1e6);
            last = Some(report);
        }
        let report = last.expect("at least one run");
        table.row(vec![
            if reuse { "on (paper §3.4.2)" } else { "off" }.into(),
            fmt_ci(&times),
            secs(report.stitch_us as f64 / 1e6),
            count(report.stitch.recomputed_pure),
            count(report.reuse.reused_tuples),
        ]);
    }
    out.push_str("Stitch-up registry reuse (Q10A, forced 2 phases):\n");
    out.push_str(&table.render());

    // 2. Polling-interval sweep (paper §4.1: "how often to make
    //    decisions"; they found 1s polling "stable, consistent, and
    //    effective").
    let mut table = TextTable::new(&["poll every (batches)", "time s", "phases"]);
    for poll in [2u64, 6, 12, 24, 48] {
        let mut times = Vec::new();
        let mut phases = 0;
        for _ in 0..cfg.runs {
            let mut c = corrective_cfg(cfg, None, order.clone());
            c.poll_every_batches = poll;
            let exec = CorrectiveExec::new(q.clone(), c);
            let mut s = local_sources(&d, &q);
            let report = exec.run(&mut s).expect("poll sweep run");
            times.push(report.exec.cpu_us as f64 / 1e6);
            phases = report.phase_count();
        }
        table.row(vec![poll.to_string(), fmt_ci(&times), phases.to_string()]);
    }
    out.push_str("\nPolling interval sweep (Q10A from the paper's bad plan):\n");
    out.push_str(&table.render());
    out
}

/// `repro ops-bench`: row vs columnar kernel throughput for the six
/// vectorized paths (filter, hash join, federation dedup, hash
/// aggregation, sort, exchange shipping). Every kernel processes identical
/// data through the row-at-a-time code and the columnar code and reports
/// tuples/sec, so the numbers are a direct measure of what the columnar
/// representation buys.
///
/// The exchange kernel is measured end to end — encode at the producer
/// boundary, move through the queue, consume at the head operator on the
/// other side — with the transpose and queue legs also reported
/// separately. (An earlier version timed only the send half, which
/// charged the columnar path its transpose while crediting none of the
/// consumer-side win.)
///
/// The returned flag is the CI gate: columnar throughput must be at least
/// the row throughput on every kernel. The row filter baseline is
/// measured twice back to back first; if the two measurements disagree by
/// more than 1.5× the host is too noisy for a throughput assertion and
/// the gate passes with an explicit skip message instead of a fabricated
/// verdict.
pub fn ops_bench_suite(cfg: &ExpConfig) -> (String, String, bool) {
    use std::hint::black_box;
    use tukwila_exec::agg::{AggSpec, GroupSpec, HashAggOp};
    use tukwila_exec::join::batch::{hash_join_columnar, hash_join_slices, BatchJoinStats};
    use tukwila_exec::{queue_pair, DataBatch, IncOp};
    use tukwila_federation::KeyDedup;
    use tukwila_relation::agg::AggFunc;
    use tukwila_relation::column::{eval_predicate, sort_permutation, ColumnarBatch};
    use tukwila_relation::{cmp_tuples, CmpOp, DataType, Expr, Field, Schema, SortKey};

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0b5);
    // Default scale 0.01 → 400K tuples; clamp so --scale sweeps stay sane.
    let n = ((cfg.scale / 0.01 * 400_000.0).round() as usize).clamp(40_000, 4_000_000);
    let reps = cfg.runs.max(3);
    // Publisher-style site names: dedup keys in a federation are
    // typically (site, record-id) pairs, and the site component is a
    // low-cardinality, not-short string.
    let cats: Vec<String> = (0..16)
        .map(|i| format!("content-mirror-{i:02}.integration.example.org"))
        .collect();
    let mk = |i: usize, rng: &mut StdRng| {
        Tuple::new(vec![
            Value::Int(i as i64),
            Value::Int(rng.gen_range(0..1000)),
            Value::str(&cats[rng.gen_range(0..cats.len())]),
        ])
    };
    let tuples: Vec<Tuple> = (0..n).map(|i| mk(i, &mut rng)).collect();
    let batches: Vec<Vec<Tuple>> = tuples.chunks(cfg.batch_size).map(|c| c.to_vec()).collect();
    let cbatches: Vec<ColumnarBatch> = batches
        .iter()
        .map(|b| ColumnarBatch::from_tuples(b))
        .collect();

    /// Best-of-`reps` wall time for one kernel pass.
    fn best<F: FnMut() -> usize>(reps: usize, mut f: F) -> (f64, usize) {
        let mut t = f64::INFINITY;
        let mut processed = 0;
        for _ in 0..reps {
            let start = Instant::now();
            processed = f();
            t = t.min(start.elapsed().as_secs_f64());
        }
        (t, processed)
    }
    let tps = |t: f64, n: usize| n as f64 / t.max(1e-9);
    let fmt_tps = |v: f64| {
        if v >= 1e6 {
            format!("{:.1}M", v / 1e6)
        } else {
            format!("{:.0}K", v / 1e3)
        }
    };

    // -- filter: predicate evaluation over every tuple (~30% selective) --
    let pred = Expr::cmp(Expr::Col(1), CmpOp::Lt, Expr::Lit(Value::Int(300)));
    let row_filter = || {
        let mut kept = 0usize;
        for t in &tuples {
            if pred.matches(t).expect("bench predicate is type-clean") {
                kept += 1;
            }
        }
        black_box(kept);
        tuples.len()
    };
    let (t_row_f1, _) = best(reps, row_filter);
    let (t_row_f2, _) = best(reps, row_filter);
    let t_row_f = t_row_f1.min(t_row_f2);
    let noise = t_row_f1.max(t_row_f2) / t_row_f1.min(t_row_f2).max(1e-9);
    let (t_col_f, _) = best(reps, || {
        let mut kept = 0usize;
        for b in &cbatches {
            let mask = eval_predicate(&pred, b).expect("bench predicate vectorizes");
            kept += mask.count_ones();
        }
        black_box(kept);
        n
    });

    // -- hash join: unique int keys, half the probe side matches --
    let jn = (n / 4).max(1);
    let left = &tuples[..jn];
    let right: Vec<Tuple> = (0..jn)
        .map(|i| Tuple::new(vec![Value::Int((i * 2) as i64), Value::Int(i as i64)]))
        .collect();
    let cleft = ColumnarBatch::from_tuples(left);
    let cright = ColumnarBatch::from_tuples(&right);
    let (t_row_j, _) = best(reps, || {
        let mut out = Vec::new();
        let mut stats = BatchJoinStats::default();
        hash_join_slices(left, &right, 0, 0, &mut out, &mut stats).expect("row join");
        black_box(out.len());
        jn * 2
    });
    let (t_col_j, _) = best(reps, || {
        let mut stats = BatchJoinStats::default();
        let out = hash_join_columnar(&cleft, &cright, 0, 0, &mut stats).expect("columnar join");
        black_box(out.selected_rows());
        jn * 2
    });

    // -- dedup: steady-state probing. One mirror seeds the seen-set
    //    (untimed — inserting a fresh key costs the same allocations on
    //    both paths), then three fully redundant mirrors deliver the same
    //    relation and every row is a probe: hash the composite
    //    (site, id) key, find the bucket, verify equality. That is the
    //    kernel the federated seen-set runs for the rest of the query.
    let dn = n / 4;
    let key_cols = vec![2usize, 0];
    let seed_feed: Vec<Vec<Tuple>> = tuples[..dn]
        .chunks(cfg.batch_size)
        .map(|c| c.to_vec())
        .collect();
    let names = ["mirror-b", "mirror-c", "mirror-d"];
    let feed: Vec<(usize, &str, Vec<Tuple>)> = names
        .iter()
        .enumerate()
        .flat_map(|(i, nm)| {
            tuples[..dn]
                .chunks(cfg.batch_size)
                .map(move |c| (i + 1, *nm, c.to_vec()))
        })
        .collect();
    let cfeed: Vec<(usize, &str, ColumnarBatch)> = feed
        .iter()
        .map(|(c, nm, b)| (*c, *nm, ColumnarBatch::from_tuples(b)))
        .collect();
    let mut d_row = KeyDedup::new(1, key_cols.clone());
    let mut d_col = KeyDedup::new(1, key_cols.clone());
    let mut hash_buf = Vec::new();
    for b in &seed_feed {
        d_row.filter(0, "mirror-a", b.clone());
        d_col.filter_columnar(0, "mirror-a", &ColumnarBatch::from_tuples(b), &mut hash_buf);
    }
    let (t_row_d, _) = best(reps, || {
        let mut fresh = 0usize;
        for (cand, nm, b) in &feed {
            fresh += d_row.filter(*cand, nm, b.clone()).len();
        }
        black_box(fresh);
        3 * dn
    });
    let (t_col_d, _) = best(reps, || {
        let mut fresh = 0usize;
        for (cand, nm, b) in &cfeed {
            fresh += d_col.filter_columnar(*cand, nm, b, &mut hash_buf).len();
        }
        black_box(fresh);
        3 * dn
    });

    let schema = Schema::new(vec![
        Field::new("t.id", DataType::Int),
        Field::new("t.val", DataType::Int),
        Field::new("t.cat", DataType::Str),
    ]);

    // -- agg: hash aggregation grouped on (site, val) — ~16K groups --
    let agg_spec = || {
        GroupSpec::new(
            vec![2, 1],
            vec![
                AggSpec {
                    func: AggFunc::Sum,
                    col: 1,
                },
                AggSpec {
                    func: AggFunc::Min,
                    col: 0,
                },
            ],
        )
    };
    let (t_row_a, _) = best(reps, || {
        let mut op = HashAggOp::new(agg_spec(), &schema);
        let mut sink = Vec::new();
        for b in &batches {
            op.push(0, b, &mut sink).expect("row agg");
        }
        op.finish(&mut sink).expect("row agg finish");
        black_box(sink.len());
        n
    });
    let (t_col_a, _) = best(reps, || {
        let mut op = HashAggOp::new(agg_spec(), &schema);
        let mut sink = Vec::new();
        for b in &cbatches {
            op.push_columns(0, b, &mut sink).expect("columnar agg");
        }
        op.finish(&mut sink).expect("columnar agg finish");
        black_box(sink.len());
        n
    });

    // -- sort: order the whole feed by (val asc, id desc); the columnar
    //    path sorts a key permutation and gathers the payload once --
    let sort_keys = [SortKey::asc(1), SortKey::desc(0)];
    let call = ColumnarBatch::from_tuples(&tuples);
    let (t_row_s, _) = best(reps, || {
        let mut v = tuples.clone();
        v.sort_by(|a, b| cmp_tuples(&sort_keys, a, b));
        black_box(v.len());
        n
    });
    let (t_col_s, _) = best(reps, || {
        let perm = sort_permutation(&call, &sort_keys);
        let sorted = call.gather(&perm);
        black_box(sorted.num_rows());
        n
    });

    // -- exchange: end-to-end shipping — encode at the producer boundary
    //    (the staged encode-once protocol producers actually run), move
    //    through the queue, and consume at the head operator on the far
    //    side (a hash aggregation, the kind of operator a root fragment
    //    feeds). The transpose only pays for itself through the
    //    consumer-side win, which is exactly the claim being gated. --
    let run_exchange = |columnar: bool| {
        best(reps, || {
            let (mut w, r) = queue_pair(schema.clone(), batches.len() + 1);
            w.set_columnar(columnar);
            for b in &batches {
                let enc = w.encode(b.clone());
                let refused = w.try_send_data(enc).expect("bench queue never closes");
                assert!(refused.is_none(), "bench queue is sized for the whole feed");
            }
            let mut op = HashAggOp::new(agg_spec(), &schema);
            let mut sink = Vec::new();
            for _ in 0..batches.len() {
                match r.recv_data().expect("all batches were sent") {
                    DataBatch::Rows(rows) => {
                        op.push(0, &rows, &mut sink).expect("row consume");
                    }
                    DataBatch::Columns(c) => {
                        op.push_columns(0, &c, &mut sink).expect("columnar consume");
                    }
                }
            }
            op.finish(&mut sink).expect("consume finish");
            black_box(sink.len());
            n
        })
    };
    let (t_row_x, _) = run_exchange(false);
    let (t_col_x, _) = run_exchange(true);
    // Breakdown legs for the columnar exchange: the one-time row→column
    // transpose at the boundary vs the queue move alone. (The consume leg
    // is the filter kernel above.)
    let (t_x_transpose, _) = best(reps, || {
        for b in &batches {
            black_box(ColumnarBatch::from_tuples(b).num_rows());
        }
        n
    });
    let (t_x_queue, _) = best(reps, || {
        let (mut w, r) = queue_pair(schema.clone(), batches.len() + 1);
        w.set_columnar(true);
        for c in &cbatches {
            let refused = w
                .try_send_data(DataBatch::Columns(c.clone()))
                .expect("bench queue never closes");
            assert!(refused.is_none(), "bench queue is sized for the whole feed");
        }
        let mut got = 0usize;
        for _ in 0..cbatches.len() {
            if let DataBatch::Columns(c) = r.recv_data().expect("all batches were sent") {
                got += c.selected_rows();
            }
        }
        black_box(got);
        n
    });

    let kernels = [
        ("filter", tps(t_row_f, n), tps(t_col_f, n)),
        ("hash-join", tps(t_row_j, jn * 2), tps(t_col_j, jn * 2)),
        ("dedup", tps(t_row_d, 3 * dn), tps(t_col_d, 3 * dn)),
        ("agg", tps(t_row_a, n), tps(t_col_a, n)),
        ("sort", tps(t_row_s, n), tps(t_col_s, n)),
        ("exchange", tps(t_row_x, n), tps(t_col_x, n)),
    ];

    let mut out = String::new();
    out.push_str(&format!(
        "workload: {} tuples (int id, int val, 16-way str cat), batch {}, best of {} reps\n\n",
        count(n),
        cfg.batch_size,
        reps
    ));
    let mut table = TextTable::new(&["kernel", "row tuples/s", "columnar tuples/s", "speedup"]);
    for (name, row_tps, col_tps) in kernels {
        table.row(vec![
            name.to_string(),
            fmt_tps(row_tps),
            fmt_tps(col_tps),
            format!("{:.2}x", col_tps / row_tps.max(1e-9)),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nexchange legs (columnar): transpose {} tuples/s, queue move {} tuples/s; \
         the consume leg is the agg kernel above\n",
        fmt_tps(tps(t_x_transpose, n)),
        fmt_tps(tps(t_x_queue, n)),
    ));

    let noisy = noise > 1.5;
    let mut ok = true;
    if noisy {
        out.push_str(&format!(
            "\nassertion SKIPPED: the row filter baseline varied {noise:.2}x across \
             back-to-back runs — this host is too noisy for a throughput verdict, so the \
             columnar >= row gate was not evaluated (not a pass, not a failure).\n"
        ));
    } else {
        for (name, row_tps, col_tps) in kernels {
            if col_tps >= row_tps {
                out.push_str(&format!(
                    "\nassertion OK: columnar {name} >= row {name} ({:.2}x)\n",
                    col_tps / row_tps
                ));
            } else {
                ok = false;
                out.push_str(&format!(
                    "\nassertion FAILED: columnar {name} is slower than the row path \
                     ({:.2}x) — the vectorized kernel regressed\n",
                    col_tps / row_tps
                ));
            }
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"ops\",\n");
    json.push_str(&format!(
        "  \"tuples\": {n},\n  \"batch\": {},\n  \"reps\": {reps},\n",
        cfg.batch_size
    ));
    json.push_str("  \"kernels\": {\n");
    for (i, (name, row_tps, col_tps)) in kernels.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"row_tps\": {row_tps:.0}, \"columnar_tps\": {col_tps:.0}, \
             \"speedup\": {:.3}}}{}\n",
            col_tps / row_tps.max(1e-9),
            if i + 1 < kernels.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"exchange_legs\": {{\"transpose_tps\": {:.0}, \"queue_tps\": {:.0}}},\n",
        tps(t_x_transpose, n),
        tps(t_x_queue, n)
    ));
    json.push_str(&format!(
        "  \"gate\": {{\"noise_ratio\": {noise:.3}, \"checked\": {}, \"passed\": {}}}\n}}\n",
        !noisy, ok
    ));
    (out, json, ok)
}
