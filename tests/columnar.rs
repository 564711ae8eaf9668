//! Columnar execution equivalence: the vectorized filter / join / dedup /
//! aggregation / sort / stitch-up paths must be indistinguishable from the
//! row-at-a-time code on any input — randomized schemas with nulls,
//! strings, and composite keys, plus the empty-batch and
//! selection-all/none edges — and shipping columns across fragment
//! exchanges (the default) must be logically invisible under both clocks.

use std::sync::Arc;

use proptest::prelude::*;

use tukwila::exec::filter::FilterOp;
use tukwila::exec::join::batch::{hash_join_columnar, hash_join_slices, BatchJoinStats};
use tukwila::exec::op::IncOp;
use tukwila::exec::project::ProjectOp;
use tukwila::exec::reference::{canonicalize, RefQuery, RefRelation};
use tukwila::exec::{CpuCostModel, FragmentOptions, SimDriver};
use tukwila::federation::KeyDedup;
use tukwila::optimizer::{choose_cuts, FragmentationConfig, Optimizer, OptimizerContext};
use tukwila::relation::column::eval_predicate;
use tukwila::relation::{
    Bitmap, CmpOp, ColumnarBatch, DataType, Expr, Field, Schema, Tuple, Value,
};
use tukwila::stats::{Clock, WallClock};

mod common;
use common::{mem_answer, tables};

/// Decode one randomized cell: 0 = Null, then ints, floats, and a small
/// string vocabulary so dictionary columns see repeats *and* batches
/// degrade to `Mixed` columns when types collide.
fn value(code: u8, x: i64) -> Value {
    match code {
        0 => Value::Null,
        1..=4 => Value::Int(x),
        5..=6 => Value::Float(x as f64 / 4.0),
        _ => Value::str(["ada", "grace", "edsger", "barbara"][(x.rem_euclid(4)) as usize]),
    }
}

/// A column plan: every row uses the same code (typed column) or a
/// per-row code (a `Mixed` column once codes disagree).
fn column_values(uniform: Option<u8>, per_row: &[(u8, i64)]) -> Vec<Value> {
    per_row
        .iter()
        .map(|&(c, x)| value(uniform.unwrap_or(c), x))
        .collect()
}

fn tuples_of(cols: &[Vec<Value>]) -> Vec<Tuple> {
    let rows = cols.first().map_or(0, Vec::len);
    (0..rows)
        .map(|r| Tuple::new(cols.iter().map(|c| c[r].clone()).collect()))
        .collect()
}

fn int_schema(arity: usize) -> Schema {
    Schema::new(
        (0..arity)
            .map(|i| Field::new(format!("t.c{i}"), DataType::Int))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `FilterOp::push_columns` (vectorized predicate or row fallback)
    /// equals both `FilterOp::push` and the brute-force reference
    /// executor, for every column mix, null pattern, and predicate shape.
    #[test]
    fn filter_columnar_equals_row_and_reference(
        col_plans in prop::collection::vec(
            (0u8..=9, prop::collection::vec((0u8..=8, -8i64..8), 0..40)),
            1..4,
        ),
        pred_pick in 0u8..=5,
        lit in -8i64..8,
    ) {
        // Code 9 = deliberately non-uniform column (Mixed).
        let rows = col_plans.iter().map(|(_, p)| p.len()).min().unwrap_or(0);
        let cols: Vec<Vec<Value>> = col_plans
            .iter()
            .map(|(u, p)| column_values((*u <= 8).then_some(*u), &p[..rows]))
            .collect();
        let tuples = tuples_of(&cols);
        let arity = cols.len();
        let schema = int_schema(arity);

        let pred = match pred_pick {
            0 => Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Lit(Value::Int(lit))),
            1 => Expr::cmp(Expr::Col(0), CmpOp::Eq, Expr::Lit(Value::str("grace"))),
            2 => Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Col(arity - 1)),
            3 => Expr::And(vec![
                Expr::cmp(Expr::Col(0), CmpOp::Ne, Expr::Lit(Value::Int(lit))),
                Expr::cmp(Expr::Col(arity - 1), CmpOp::Le, Expr::Lit(Value::Float(1.0))),
            ]),
            4 => Expr::Not(Box::new(Expr::cmp(
                Expr::Col(0), CmpOp::Gt, Expr::Lit(Value::Int(lit)),
            ))),
            // Arithmetic never vectorizes: exercises the row fallback.
            _ => Expr::cmp(
                Expr::Arith(
                    Box::new(Expr::Col(0)),
                    tukwila::relation::expr::ArithOp::Add,
                    Box::new(Expr::Lit(Value::Int(1))),
                ),
                CmpOp::Gt,
                Expr::Lit(Value::Int(lit)),
            ),
        };

        let run_rows = {
            let mut op = FilterOp::new(pred.clone(), schema.clone());
            let mut out = Vec::new();
            op.push(0, &tuples, &mut out).map(|_| out)
        };
        let run_cols = {
            let mut op = FilterOp::new(pred.clone(), schema.clone());
            let mut out = Vec::new();
            op.push_columns(0, &ColumnarBatch::from_tuples(&tuples), &mut out)
                .map(|_| out)
        };
        match (run_rows, run_cols) {
            (Ok(r), Ok(c)) => {
                prop_assert_eq!(canonicalize(&r), canonicalize(&c));
                // Order must match too, not just the multiset.
                prop_assert_eq!(r.len(), c.len());
                for (a, b) in r.iter().zip(&c) {
                    prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
                }
                let mut q = RefQuery::new(vec![RefRelation {
                    schema,
                    tuples: tuples.clone(),
                }]);
                q.filters.push((0, pred));
                prop_assert_eq!(canonicalize(&q.run().unwrap()), canonicalize(&r));
            }
            // Type errors (e.g. a bare-Null as_bool) must agree between
            // the paths; the reference oracle errors identically.
            (Err(_), Err(_)) => {}
            (r, c) => prop_assert!(
                false,
                "row/columnar disagree on error-ness: {:?} vs {:?}",
                r.map(|v| v.len()),
                c.map(|v| v.len())
            ),
        }
    }

    /// Columnar hash join equals the row-path join tuple-for-tuple (same
    /// order, same stats) and the reference executor as a multiset, on
    /// keys with nulls, strings, and duplicates.
    #[test]
    fn join_columnar_equals_row_and_reference(
        lrows in prop::collection::vec(((0u8..=8), -4i64..4, -8i64..8), 0..30),
        rrows in prop::collection::vec(((0u8..=8), -4i64..4, -8i64..8), 0..30),
    ) {
        let mk = |rows: &[(u8, i64, i64)]| -> Vec<Tuple> {
            rows.iter()
                .map(|&(c, k, v)| Tuple::new(vec![value(c, k), Value::Int(v)]))
                .collect()
        };
        let left = mk(&lrows);
        let right = mk(&rrows);

        let mut row_out = Vec::new();
        let mut row_stats = BatchJoinStats::default();
        hash_join_slices(&left, &right, 0, 0, &mut row_out, &mut row_stats).unwrap();

        let mut col_stats = BatchJoinStats::default();
        let col_out = hash_join_columnar(
            &ColumnarBatch::from_tuples(&left),
            &ColumnarBatch::from_tuples(&right),
            0,
            0,
            &mut col_stats,
        )
        .unwrap()
        .to_tuples();

        prop_assert_eq!(row_out.len(), col_out.len());
        for (a, b) in row_out.iter().zip(&col_out) {
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        prop_assert_eq!(row_stats.output, col_stats.output);

        let mut q = RefQuery::new(vec![
            RefRelation { schema: int_schema(2), tuples: left },
            RefRelation { schema: int_schema(2), tuples: right },
        ]);
        q.joins.push(tukwila::exec::reference::RefJoin {
            left_rel: 0,
            left_col: 0,
            right_rel: 1,
            right_col: 0,
        });
        prop_assert_eq!(canonicalize(&q.run().unwrap()), canonicalize(&row_out));
    }

    /// The federated seen-set gives identical fresh-tuple verdicts
    /// whether batches arrive as rows, as columns, or interleaved — on
    /// composite (possibly null / string) keys, for any batch split.
    #[test]
    fn dedup_row_columnar_and_mixed_agree(
        pool in prop::collection::vec(((0u8..=8), -6i64..6, -8i64..8), 1..60),
        splits in prop::collection::vec(1usize..10, 1..6),
    ) {
        // Each candidate delivers a distinct-key slice of the shared pool
        // (a candidate redelivering its own key is a declared-key
        // violation and panics by design, so slices never repeat a key
        // within one candidate).
        let mut seen = std::collections::HashSet::new();
        let pool: Vec<Tuple> = pool
            .iter()
            .map(|&(c, k, v)| Tuple::new(vec![value(c, k), Value::Int(v), Value::Int(1)]))
            .filter(|t| seen.insert(format!("{:?}|{:?}", t.get(0), t.get(1))))
            .collect();
        let key_cols = vec![0usize, 1];

        // Candidate i delivers the pool rotated by i, chopped into
        // `splits[i]` batches — full overlap across candidates.
        let feeds: Vec<(usize, Vec<Vec<Tuple>>)> = splits
            .iter()
            .enumerate()
            .map(|(i, &nb)| {
                let mut rot = pool.clone();
                rot.rotate_left(i % pool.len().max(1));
                let chunk = rot.len().div_ceil(nb).max(1);
                (i, rot.chunks(chunk).map(|c| c.to_vec()).collect())
            })
            .collect();

        let mut d_row = KeyDedup::new(7, key_cols.clone());
        let mut d_col = KeyDedup::new(7, key_cols.clone());
        let mut d_mix = KeyDedup::new(7, key_cols.clone());
        let mut buf = Vec::new();
        let mut mix_flip = false;
        for (cand, batches) in &feeds {
            for b in batches {
                let name = format!("cand-{cand}");
                let fresh_r = d_row.filter(*cand, &name, b.clone());
                let cb = ColumnarBatch::from_tuples(b);
                let fresh_c = d_col.filter_columnar(*cand, &name, &cb, &mut buf);
                let fresh_m = if mix_flip {
                    d_mix.filter(*cand, &name, b.clone())
                } else {
                    d_mix.filter_columnar(*cand, &name, &cb, &mut buf)
                };
                mix_flip = !mix_flip;
                prop_assert_eq!(canonicalize(&fresh_r), canonicalize(&fresh_c));
                prop_assert_eq!(canonicalize(&fresh_r), canonicalize(&fresh_m));
            }
        }
        prop_assert_eq!(d_row.seen_keys(), d_col.seen_keys());
        prop_assert_eq!(d_row.seen_keys(), d_mix.seen_keys());
    }

    /// `HashAggOp::push_columns` equals `push` and the reference executor
    /// for every aggregate mix over nullable int/float/string group keys,
    /// including accumulation across batch boundaries.
    #[test]
    fn agg_columnar_equals_row_and_reference(
        rows in prop::collection::vec(((0u8..=8), -4i64..4, -8i64..8), 0..50),
        funcs in prop::collection::vec(0u8..=4, 1..4),
    ) {
        use tukwila::exec::agg::{AggSpec, GroupSpec, HashAggOp};
        use tukwila::exec::reference::{canonicalize_approx, RefCol};
        use tukwila::relation::agg::AggFunc;

        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|&(c, k, v)| Tuple::new(vec![value(c, k), Value::Int(v)]))
            .collect();
        let schema = int_schema(2);
        let aggs: Vec<AggSpec> = funcs
            .iter()
            .map(|&f| AggSpec {
                func: match f {
                    0 => AggFunc::Count,
                    1 => AggFunc::Sum,
                    2 => AggFunc::Avg,
                    3 => AggFunc::Min,
                    _ => AggFunc::Max,
                },
                col: 1,
            })
            .collect();
        let spec = || GroupSpec::new(vec![0], aggs.clone());

        let mut op = HashAggOp::new(spec(), &schema);
        let mut row_out = Vec::new();
        op.push(0, &tuples, &mut row_out).unwrap();
        op.finish(&mut row_out).unwrap();

        let mut op = HashAggOp::new(spec(), &schema);
        let mut col_out = Vec::new();
        let mid = tuples.len() / 2;
        op.push_columns(0, &ColumnarBatch::from_tuples(&tuples[..mid]), &mut col_out).unwrap();
        op.push_columns(0, &ColumnarBatch::from_tuples(&tuples[mid..]), &mut col_out).unwrap();
        op.finish(&mut col_out).unwrap();

        prop_assert_eq!(canonicalize_approx(&row_out), canonicalize_approx(&col_out));

        let mut q = RefQuery::new(vec![RefRelation { schema, tuples: tuples.clone() }]);
        q.group_cols.push(RefCol { rel: 0, col: 0 });
        for a in &aggs {
            q.aggs.push((a.func, RefCol { rel: 0, col: a.col }));
        }
        prop_assert_eq!(
            canonicalize_approx(&q.run().unwrap()),
            canonicalize_approx(&row_out)
        );
    }

    /// `sort_permutation` + `gather` equals a stable row sort under
    /// `cmp_tuples` — same output order, including nulls, dictionary
    /// strings, mixed-type columns, descending keys, and tie rows.
    #[test]
    fn sort_columnar_equals_row_sort(
        rows in prop::collection::vec(((0u8..=8), -4i64..4, -3i64..3), 0..50),
        descending in any::<bool>(),
        second_key in any::<bool>(),
    ) {
        use tukwila::relation::column::sort_permutation;
        use tukwila::relation::{cmp_tuples, SortKey};

        // Narrow key ranges force ties so stability is actually tested.
        let tuples: Vec<Tuple> = rows
            .iter()
            .enumerate()
            .map(|(i, &(c, k, k2))| {
                Tuple::new(vec![value(c, k), Value::Int(k2), Value::Int(i as i64)])
            })
            .collect();
        let mut keys = vec![SortKey { col: 0, descending }];
        if second_key {
            keys.push(SortKey::asc(1));
        }

        let mut row_sorted = tuples.clone();
        row_sorted.sort_by(|a, b| cmp_tuples(&keys, a, b));

        let batch = ColumnarBatch::from_tuples(&tuples);
        let perm = sort_permutation(&batch, &keys);
        let col_sorted = batch.gather(&perm).to_tuples();

        prop_assert_eq!(row_sorted.len(), col_sorted.len());
        for (a, b) in row_sorted.iter().zip(&col_sorted) {
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    /// The stitch-up columnar table probe equals the row-at-a-time probe
    /// tuple-for-tuple (same order, same stats), with residual equality
    /// predicates spanning both sides of the virtual joined layout.
    #[test]
    fn stitchup_probe_columnar_equals_row(
        table_rows in prop::collection::vec(((0u8..=8), -4i64..4, -2i64..2), 0..40),
        probe_rows in prop::collection::vec(((0u8..=8), -4i64..4, -2i64..2), 0..40),
        with_residual in any::<bool>(),
    ) {
        use tukwila::exec::join::batch::probe_table_columnar;
        use tukwila::storage::TupleHashTable;

        let mk = |rows: &[(u8, i64, i64)]| -> Vec<Tuple> {
            rows.iter()
                .map(|&(c, k, v)| Tuple::new(vec![value(c, k), Value::Int(v)]))
                .collect()
        };
        let table_tuples = mk(&table_rows);
        let probes = mk(&probe_rows);
        let mut table = TupleHashTable::new(0);
        for t in &table_tuples {
            table.insert(t.clone()).unwrap();
        }
        // Residual over the joined layout: probe col 1 vs table col 1.
        let residual: &[(usize, usize)] = if with_residual { &[(1, 3)] } else { &[] };

        let mut row_out = Vec::new();
        let mut row_stats = BatchJoinStats::default();
        for p in &probes {
            row_stats.probes += 1;
            for m in table.probe(&p.key(0)) {
                let joined = p.concat(m);
                if residual
                    .iter()
                    .all(|&(a, b)| joined.get(a).eq_total(joined.get(b)))
                {
                    row_out.push(joined);
                    row_stats.output += 1;
                }
            }
        }

        let mut col_out = Vec::new();
        let mut col_stats = BatchJoinStats::default();
        probe_table_columnar(
            &ColumnarBatch::from_tuples(&probes),
            0,
            &table,
            residual,
            &mut col_stats,
            &mut col_out,
        )
        .unwrap();

        prop_assert_eq!(row_out.len(), col_out.len());
        for (a, b) in row_out.iter().zip(&col_out) {
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        prop_assert_eq!(row_stats, col_stats);
    }
}

/// Selection edges: all-selected, none-selected, and empty batches flow
/// through the vectorized filter and projection without touching the
/// row fallback's semantics.
#[test]
fn selection_all_none_and_empty_edges() {
    let schema = int_schema(2);
    let tuples: Vec<Tuple> = (0..10)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)]))
        .collect();
    let pred_all = Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Value::Int(0)));
    let pred_none = Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Lit(Value::Int(0)));

    let mut batch = ColumnarBatch::from_tuples(&tuples);
    assert_eq!(eval_predicate(&pred_all, &batch).unwrap().count_ones(), 10);
    assert_eq!(eval_predicate(&pred_none, &batch).unwrap().count_ones(), 0);

    // Pre-select even rows, then filter on top: only even rows may pass.
    let mut even = Bitmap::zeros(10);
    for i in (0..10).step_by(2) {
        even.set(i, true);
    }
    batch.select(even);
    let mut op = FilterOp::new(pred_all, schema.clone());
    let mut out = Vec::new();
    op.push_columns(0, &batch, &mut out).unwrap();
    assert_eq!(out.len(), 5);
    assert!(out.iter().all(|t| t.get(0).as_int().unwrap() % 2 == 0));

    // Projection over a selected batch keeps only selected rows, in order.
    let mut proj = ProjectOp::new(vec![Expr::Col(1), Expr::Col(0)], schema.clone());
    let mut pout = Vec::new();
    proj.push_columns(0, &batch, &mut pout).unwrap();
    assert_eq!(pout.len(), 5);
    assert_eq!(pout[0].get(0).as_int().unwrap(), 0);
    assert_eq!(pout[4].get(1).as_int().unwrap(), 8);

    // Empty batch, zero-arity edge.
    let empty = ColumnarBatch::from_tuples(&[]);
    let mut op = FilterOp::new(Expr::Lit(Value::Bool(true)), schema);
    let mut out = Vec::new();
    op.push_columns(0, &empty, &mut out).unwrap();
    assert!(out.is_empty());
}

/// Dual-clock equivalence with columns shipped across every fragment
/// exchange (fragment exchanges always ship columns): the threaded
/// wall-clock run must produce the identical canonicalized answer as the sequential
/// virtual-clock anchor and plain local execution.
#[test]
fn dual_clock_equivalence_with_columnar_exchanges() {
    use tukwila::core::lower_fragmented;
    use tukwila::datagen::flights;
    use tukwila::exec::reference::canonicalize_approx;
    use tukwila::source::{MemSource, Source};

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

    // Sequential virtual-clock anchor (row exchanges).
    let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
    assert!(frag.plan.fragment_count() >= 2, "no exchange in the plan");
    let (rows_v, _) = SimDriver::new(256, CpuCostModel::Zero)
        .run_fragments_sequential(frag.plan, mk_sources())
        .unwrap();
    assert_eq!(canonicalize_approx(&rows_v), expected);

    // Threaded wall-clock run shipping columns across every exchange.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let frag = lower_fragmented(&plan, &cuts, None, true).unwrap();
    let (rows_w, _) = SimDriver::new(256, CpuCostModel::Measured)
        .with_clock(clock)
        .run_fragments(frag.plan, mk_sources(), &FragmentOptions::default())
        .unwrap();
    assert_eq!(
        canonicalize_approx(&rows_w),
        expected,
        "columnar exchanges changed the fragmented answer"
    );
}

/// The full corrective executor with fragmentation on and *default*
/// fragment options — exchanges always ship columns — must
/// answer identically under the sequential virtual-clock driver and the
/// threaded wall-clock driver, and both runs must journal phase spans
/// into the adaptivity trace.
#[test]
fn corrective_dual_clock_with_default_columnar_exchange() {
    use tukwila::core::{CorrectiveConfig, CorrectiveExec};
    use tukwila::datagen::flights;
    use tukwila::exec::reference::canonicalize_approx;
    use tukwila::optimizer::FragmentationConfig;
    use tukwila::source::MemSource;
    use tukwila::stats::{TraceEvent, TraceSink, VirtualClock};

    let d = flights::generate(200, 1200, 1, 59);
    let q = flights::query();
    let expected = mem_answer(&d, &q);

    let mk_sources = || -> Vec<Box<dyn tukwila::source::Source>> {
        tables(&d)
            .into_iter()
            .map(|(rel, name, schema, rows)| {
                Box::new(MemSource::new(rel, name, schema, rows.clone()))
                    as Box<dyn tukwila::source::Source>
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

    // Threaded wall-clock run: producers ship columns over every exchange
    // by default, quiesce drains re-materialize rows losslessly.
    let clock: Arc<dyn Clock> = Arc::new(WallClock::accelerated(200.0));
    let wtrace = TraceSink::unbounded(clock.clone());
    let report_w = run(Some(clock), wtrace.clone());
    assert_eq!(
        canonicalize_approx(&report_w.rows),
        expected,
        "threaded corrective with default columnar exchanges diverged"
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
