//! Criterion microbenchmarks for the engine's operators and state
//! structures: the per-tuple costs behind every experiment (join
//! algorithms at the heart of Figure 5, pre-aggregation behind Figure 6,
//! histogram maintenance behind §4.5's overhead numbers, narrow join rows
//! and compiled scan filters behind local-mix's end-to-end throughput).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use tukwila_core::{ComplementaryJoinPair, RouterKind};
use tukwila_datagen::{queries, Dataset, DatasetConfig, TableId};
use tukwila_exec::agg::{AggSpec, GroupSpec, PreAggOp, WindowPolicy};
use tukwila_exec::join::{MergeJoin, PipelinedHashJoin, RowBuilder};
use tukwila_exec::op::IncOp;
use tukwila_optimizer::{Optimizer, OptimizerContext, PhysKind, PhysNode};
use tukwila_relation::agg::AggFunc;
use tukwila_relation::{Expr, Predicate, Tuple, Value};
use tukwila_stats::DynamicHistogram;
use tukwila_storage::{StateStructure, TupleHashTable};

fn dataset() -> Dataset {
    Dataset::generate(DatasetConfig::uniform(0.005))
}

fn bench_joins(c: &mut Criterion) {
    let d = dataset();
    let orders = &d.orders;
    let lineitem = &d.lineitem;
    let mut g = c.benchmark_group("join");
    g.sample_size(10);

    g.bench_function("pipelined_hash", |b| {
        b.iter_batched(
            || {
                PipelinedHashJoin::new(
                    Dataset::schema(TableId::Orders),
                    Dataset::schema(TableId::Lineitem),
                    0,
                    0,
                )
            },
            |mut j| {
                let mut out = Vec::new();
                for chunk in orders.chunks(1024) {
                    j.push(0, chunk, &mut out).unwrap();
                }
                for chunk in lineitem.chunks(1024) {
                    j.push(1, chunk, &mut out).unwrap();
                }
                out.len()
            },
            BatchSize::LargeInput,
        )
    });

    g.bench_function("merge_sorted", |b| {
        b.iter_batched(
            || {
                MergeJoin::new(
                    Dataset::schema(TableId::Orders),
                    Dataset::schema(TableId::Lineitem),
                    0,
                    0,
                )
            },
            |mut j| {
                let mut out = Vec::new();
                for chunk in orders.chunks(1024) {
                    j.push(0, chunk, &mut out).unwrap();
                }
                for chunk in lineitem.chunks(1024) {
                    j.push(1, chunk, &mut out).unwrap();
                }
                j.finish_input(0, &mut out).unwrap();
                j.finish_input(1, &mut out).unwrap();
                out.len()
            },
            BatchSize::LargeInput,
        )
    });

    g.bench_function("complementary_sorted", |b| {
        b.iter_batched(
            || {
                ComplementaryJoinPair::new(
                    Dataset::schema(TableId::Orders),
                    Dataset::schema(TableId::Lineitem),
                    0,
                    0,
                    RouterKind::Naive,
                )
            },
            |mut j| {
                let mut out = Vec::new();
                for chunk in orders.chunks(1024) {
                    j.push(0, chunk, &mut out).unwrap();
                }
                for chunk in lineitem.chunks(1024) {
                    j.push(1, chunk, &mut out).unwrap();
                }
                j.finish_input(0, &mut out).unwrap();
                j.finish_input(1, &mut out).unwrap();
                j.finish(&mut out).unwrap();
                out.len()
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// The joins of a left-deep plan, bottom first, each building rows with
/// the plan's residual and emit list.
fn chain_joins(mut node: &PhysNode) -> Vec<PipelinedHashJoin> {
    let mut joins = Vec::new();
    while let PhysKind::Join {
        left,
        right,
        left_col,
        right_col,
        residual,
        emit,
        ..
    } = &node.kind
    {
        let (ls, rs) = (left.schema.clone(), right.schema.clone());
        let rows = RowBuilder::new(&ls, &rs, residual.clone(), emit.clone()).unwrap();
        joins.push(PipelinedHashJoin::new(ls, rs, *left_col, *right_col).with_rows(rows));
        node = left;
    }
    joins.reverse();
    joins
}

/// Q10A's join chain, σ_R(lineitem) ⋈ orders ⋈ customer ⋈ nation, as
/// pipelined hash joins: the right sides build first (identical work in
/// both variants, not timed), then the filtered lineitem streams through
/// the chain.
/// `full` emits every column of every join; `narrowed` emits the columns
/// the plan keeps for Q10A's aggregate. The gap is the cost of building
/// and dropping columns nobody reads.
fn bench_narrow_rows(c: &mut Criterion) {
    let d = Dataset::generate(DatasetConfig::uniform(0.02));
    let q = queries::q10a();
    let order = [
        TableId::Lineitem,
        TableId::Orders,
        TableId::Customer,
        TableId::Nation,
    ];
    let ids: Vec<u32> = order.iter().map(|t| t.rel_id()).collect();
    let lineitem = &q.rels[q.rel_index(ids[0]).unwrap()];
    let filter = lineitem.filter.as_ref().expect("Q10A filters lineitem");
    let probe: Vec<Tuple> = d
        .lineitem
        .iter()
        .filter(|t| filter.matches(t).unwrap())
        .cloned()
        .collect();
    let opt = Optimizer::new(OptimizerContext::no_statistics());
    let narrowed = opt.plan_with_order(&q, &ids).unwrap();
    let mut plain = q.clone();
    plain.agg = None;
    let full = opt.plan_with_order(&plain, &ids).unwrap();

    // The right sides build in the (untimed) setup: identical tables in
    // both variants. The timed part streams σ_R(lineitem) up the chain.
    let built = |plan: &PhysNode| {
        let mut joins = chain_joins(plan);
        let mut sink = Vec::new();
        for (j, t) in joins.iter_mut().zip(&order[1..]) {
            for chunk in d.table(*t).chunks(1024) {
                j.push(1, chunk, &mut sink).unwrap();
            }
        }
        joins
    };
    let stream = |mut joins: Vec<PipelinedHashJoin>| {
        let mut rows = 0;
        for chunk in probe.chunks(1024) {
            let mut batch = chunk.to_vec();
            for j in joins.iter_mut() {
                let mut out = Vec::new();
                j.push(0, &batch, &mut out).unwrap();
                batch = out;
            }
            rows += batch.len();
        }
        rows
    };
    let rows = stream(built(&full.root));
    assert_eq!(rows, stream(built(&narrowed.root)), "same join, same rows");
    println!("narrow_rows: {rows} output rows per run");

    let mut g = c.benchmark_group("narrow_rows");
    g.sample_size(15);
    for (name, plan) in [("full", &full), ("narrowed", &narrowed)] {
        g.bench_function(name, |b| {
            b.iter_batched(|| built(&plan.root), stream, BatchSize::LargeInput)
        });
    }
    g.finish();
}

/// The scan filters local-mix spends its filtering time on, Q10A's
/// `l_returnflag = 'R'` over lineitem and Q3A's segment filter over
/// customer, evaluated generically (`expr`) and compiled against the
/// scan's schema as `FilterOp` runs them (`compiled`).
fn bench_scan_filter(c: &mut Criterion) {
    let d = Dataset::generate(DatasetConfig::uniform(0.02));
    let scan = |q: &tukwila_optimizer::LogicalQuery, t: TableId| {
        let rel = &q.rels[q.rel_index(t.rel_id()).expect("query reads the table")];
        let filter = rel.filter.clone().expect("the query filters the table");
        (filter, Dataset::schema(t), d.table(t))
    };
    let scans = [
        scan(&queries::q10a(), TableId::Lineitem),
        scan(&queries::q3a(), TableId::Customer),
    ];
    let compiled: Vec<Predicate> = scans
        .iter()
        .map(|(e, schema, _)| Predicate::compile(e, schema))
        .collect();
    let run = |keep: &dyn Fn(usize, &Tuple) -> bool| {
        let mut kept = 0;
        let mut out = Vec::with_capacity(1024);
        for (i, (_, _, rows)) in scans.iter().enumerate() {
            for chunk in rows.chunks(1024) {
                out.clear();
                out.extend(chunk.iter().filter(|t| keep(i, t)).cloned());
                kept += out.len();
            }
        }
        kept
    };
    let by_expr = |i: usize, t: &Tuple| Expr::matches(&scans[i].0, t).unwrap();
    let by_compiled = |i: usize, t: &Tuple| compiled[i].matches(t).unwrap();
    let kept = run(&by_expr);
    assert_eq!(kept, run(&by_compiled), "same filters, same rows");
    println!(
        "scan_filter: {kept} of {} rows kept per run",
        scans.iter().map(|s| s.2.len()).sum::<usize>()
    );

    let mut g = c.benchmark_group("scan_filter");
    g.sample_size(20);
    g.bench_function("expr", |b| b.iter(|| run(&by_expr)));
    g.bench_function("compiled", |b| b.iter(|| run(&by_compiled)));
    g.finish();
}

fn bench_preagg(c: &mut Criterion) {
    let d = dataset();
    let lineitem = &d.lineitem;
    let spec = || {
        GroupSpec::new(
            vec![0],
            vec![AggSpec {
                func: AggFunc::Sum,
                col: 9,
            }],
        )
    };
    let schema = Dataset::schema(TableId::Lineitem);
    let mut g = c.benchmark_group("preagg");
    g.sample_size(10);
    for (name, policy) in [
        ("adaptive_window", WindowPolicy::default_adaptive()),
        ("pseudogroup", WindowPolicy::Fixed(1)),
        ("traditional", WindowPolicy::Fixed(usize::MAX)),
    ] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || PreAggOp::new(spec(), &schema, policy),
                |mut op| {
                    let mut out = Vec::new();
                    for chunk in lineitem.chunks(1024) {
                        op.push(0, chunk, &mut out).unwrap();
                    }
                    op.finish(&mut out).unwrap();
                    out.len()
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_state_structures(c: &mut Criterion) {
    let rows: Vec<Tuple> = (0..50_000i64)
        .map(|i| Tuple::new(vec![Value::Int((i * 7919) % 10_000), Value::Int(i)]))
        .collect();
    let mut g = c.benchmark_group("state");
    g.sample_size(10);
    g.bench_function("hash_table_build", |b| {
        b.iter(|| {
            let mut t = TupleHashTable::new(0);
            for r in &rows {
                t.insert(r.clone());
            }
            t.len()
        })
    });
    let mut table = TupleHashTable::new(0);
    for r in &rows {
        table.insert(r.clone());
    }
    g.bench_function("hash_table_probe", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for k in 0..10_000i64 {
                hits += table.probe(&Value::Int(k).to_key()).count();
            }
            hits
        })
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let vals: Vec<f64> = (0..100_000).map(|i| ((i * 31) % 5000) as f64).collect();
    let mut g = c.benchmark_group("histogram");
    g.sample_size(10);
    g.bench_function("insert_100k", |b| {
        b.iter(|| {
            let mut h = DynamicHistogram::new(50);
            for v in &vals {
                h.insert(*v);
            }
            h.total()
        })
    });
    let mut h = DynamicHistogram::new(50);
    for v in &vals {
        h.insert(*v);
    }
    g.bench_function("join_estimate", |b| b.iter(|| h.estimate_join(&h)));
    g.finish();
}

criterion_group!(
    benches,
    bench_joins,
    bench_narrow_rows,
    bench_scan_filter,
    bench_preagg,
    bench_state_structures,
    bench_histogram
);
criterion_main!(benches);
