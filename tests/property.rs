//! Property-based tests over the invariants adaptive data partitioning
//! relies on: distributivity of aggregation over union, joins equal to a
//! reference, router completeness, state-structure agreement, and
//! end-to-end corrective-vs-static equivalence under randomized phase
//! boundaries. The row operators (filter, hash join, hash aggregation,
//! sorted buffering, the stitch-up probe, federated key dedup) are pinned
//! against naive oracles on nullable, string and mixed-type values.

use std::sync::Arc;

use proptest::prelude::*;

use tukwila::core::{ComplementaryJoinPair, CorrectiveConfig, CorrectiveExec, RouterKind};
use tukwila::exec::filter::FilterOp;
use tukwila::exec::join::batch::{probe_table, BatchJoinStats};
use tukwila::exec::join::{MergeJoin, PipelinedHashJoin, RowBuilder};
use tukwila::exec::op::IncOp;
use tukwila::exec::project::ProjectOp;
use tukwila::exec::reference::{canonicalize, canonicalize_approx, RefQuery, RefRelation};
use tukwila::exec::CpuCostModel;
use tukwila::federation::KeyDedup;
use tukwila::relation::agg::{AggFunc, AggState};
use tukwila::relation::{CmpOp, DataType, Expr, Field, Key, Predicate, Schema, Tuple, Value};
use tukwila::source::{MemSource, Source};
use tukwila::storage::{SortedList, StateStructure, TupleHashTable};

fn schema2(p: &str) -> Schema {
    Schema::new(vec![
        Field::new(format!("{p}.k"), DataType::Int),
        Field::new(format!("{p}.v"), DataType::Int),
    ])
}

fn tuples_from(pairs: &[(i64, i64)]) -> Vec<Tuple> {
    pairs
        .iter()
        .map(|&(k, v)| Tuple::new(vec![Value::Int(k), Value::Int(v)]))
        .collect()
}

/// Decode one randomized cell: 0 = Null, then ints, floats, and a small
/// string vocabulary, so keys repeat and types collide within a column.
fn value(code: u8, x: i64) -> Value {
    match code {
        0 => Value::Null,
        1..=4 => Value::Int(x),
        5..=6 => Value::Float(x as f64 / 4.0),
        _ => Value::str(["ada", "grace", "edsger", "barbara"][(x.rem_euclid(4)) as usize]),
    }
}

/// `(code, key, payload)` triples as `[value(code, key), Int(payload)]`.
fn keyed_rows(rows: &[(u8, i64, i64)]) -> Vec<Tuple> {
    rows.iter()
        .map(|&(c, k, v)| Tuple::new(vec![value(c, k), Value::Int(v)]))
        .collect()
}

/// Decode a random expression tree from `ops`: comparisons, connectives
/// and arithmetic down to `depth`, then columns (of a 3-column row, one
/// out of range) and literals of every type, null included.
fn random_pred(ops: &mut dyn Iterator<Item = (u8, i64)>, depth: u32) -> Expr {
    let (op, x) = ops.next().unwrap_or((0, 0));
    let leaf = |op: u8, x: i64| match op % 6 {
        0..=1 => Expr::Col((x.rem_euclid(4)) as usize),
        2 => Expr::Lit(Value::Date(x as i32)),
        3 => Expr::Lit(Value::Bool(x > 0)),
        _ => Expr::Lit(value(op % 9, x)),
    };
    if depth == 0 {
        return leaf(op, x);
    }
    let sub = |ops: &mut dyn Iterator<Item = (u8, i64)>| random_pred(ops, depth - 1);
    match op % 8 {
        0..=2 => {
            let l = sub(ops);
            Expr::cmp(l, CMP_OPS[(x.rem_euclid(6)) as usize], sub(ops))
        }
        3 => Expr::And((0..1 + x.rem_euclid(3)).map(|_| sub(ops)).collect()),
        4 => Expr::Or((0..1 + x.rem_euclid(3)).map(|_| sub(ops)).collect()),
        5 => Expr::Not(Box::new(sub(ops))),
        6 => {
            let l = sub(ops);
            let op = [
                tukwila::relation::expr::ArithOp::Add,
                tukwila::relation::expr::ArithOp::Sub,
                tukwila::relation::expr::ArithOp::Mul,
                tukwila::relation::expr::ArithOp::Div,
            ][(x.rem_euclid(4)) as usize];
            Expr::Arith(Box::new(l), op, Box::new(sub(ops)))
        }
        _ => leaf(op / 8, x),
    }
}

const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Decode a scan filter from `ops`: connectives down to `depth` over
/// `Col op Lit` comparisons, the form a compiled predicate types. Columns
/// are those of a 3-column row, one out of range; literals take every
/// type, null included.
fn scan_pred(ops: &mut dyn Iterator<Item = (u8, i64)>, depth: u32) -> Expr {
    let (op, x) = ops.next().unwrap_or((0, 0));
    if depth == 0 || op % 4 == 0 {
        let lit = match op / 4 % 8 {
            0 => Value::Date(x as i32),
            1 => Value::Bool(x > 0),
            2 => Value::Null,
            3 | 4 => Value::Int(x),
            5 => Value::Float(x as f64 / 4.0),
            _ => value(7, x),
        };
        let cmp = CMP_OPS[(op / 32 % 6) as usize];
        return Expr::cmp(
            Expr::Col((x + op as i64).rem_euclid(4) as usize),
            cmp,
            Expr::Lit(lit),
        );
    }
    let sub = |ops: &mut dyn Iterator<Item = (u8, i64)>| scan_pred(ops, depth - 1);
    match op % 4 {
        1 => Expr::And((0..1 + x.rem_euclid(3)).map(|_| sub(ops)).collect()),
        2 => Expr::Or((0..1 + x.rem_euclid(3)).map(|_| sub(ops)).collect()),
        _ => Expr::Not(Box::new(sub(ops))),
    }
}

fn int_schema(arity: usize) -> Schema {
    Schema::new(
        (0..arity)
            .map(|i| Field::new(format!("t.c{i}"), DataType::Int))
            .collect(),
    )
}

/// Assert two tuple sequences are equal element by element, in order.
fn same_order(a: &[Tuple], b: &[Tuple]) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        prop_assert_eq!(format!("{x:?}"), format!("{y:?}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting a value stream at arbitrary points, folding each part and
    /// merging equals folding the whole stream — for every aggregate.
    #[test]
    fn aggregation_distributes_over_arbitrary_partitions(
        vals in prop::collection::vec(-1000i64..1000, 0..200),
        cuts in prop::collection::vec(0usize..200, 0..5),
        func in prop::sample::select(vec![
            AggFunc::Min, AggFunc::Max, AggFunc::Sum, AggFunc::Count, AggFunc::Avg,
        ]),
    ) {
        let mut whole = AggState::new(func);
        for v in &vals {
            whole.update(&Value::Int(*v)).unwrap();
        }
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (vals.len() + 1)).collect();
        bounds.push(0);
        bounds.push(vals.len());
        bounds.sort_unstable();
        let mut merged = AggState::new(func);
        for w in bounds.windows(2) {
            let mut part = AggState::new(func);
            for v in &vals[w[0]..w[1]] {
                part.update(&Value::Int(*v)).unwrap();
            }
            merged.merge(&part).unwrap();
        }
        prop_assert_eq!(merged.finish(), whole.finish());
    }

    /// Merge join on sorted inputs produces exactly the hash join's result
    /// multiset, regardless of batch boundaries.
    #[test]
    fn merge_join_equals_hash_join_on_sorted_inputs(
        mut lkeys in prop::collection::vec(0i64..50, 0..120),
        mut rkeys in prop::collection::vec(0i64..50, 0..120),
        lchunk in 1usize..40,
        rchunk in 1usize..40,
    ) {
        lkeys.sort_unstable();
        rkeys.sort_unstable();
        let left: Vec<Tuple> = lkeys.iter().enumerate()
            .map(|(i, &k)| Tuple::new(vec![Value::Int(k), Value::Int(i as i64)]))
            .collect();
        let right: Vec<Tuple> = rkeys.iter().enumerate()
            .map(|(i, &k)| Tuple::new(vec![Value::Int(k), Value::Int(1000 + i as i64)]))
            .collect();
        let mut mj = MergeJoin::new(schema2("l"), schema2("r"), 0, 0);
        let mut hj = PipelinedHashJoin::new(schema2("l"), schema2("r"), 0, 0);
        let mut mout = Vec::new();
        let mut hout = Vec::new();
        for c in left.chunks(lchunk) {
            mj.push(0, c, &mut mout).unwrap();
            hj.push(0, c, &mut hout).unwrap();
        }
        for c in right.chunks(rchunk) {
            mj.push(1, c, &mut mout).unwrap();
            hj.push(1, c, &mut hout).unwrap();
        }
        mj.finish_input(0, &mut mout).unwrap();
        mj.finish_input(1, &mut mout).unwrap();
        prop_assert_eq!(canonicalize(&mout), canonicalize(&hout));
    }

    /// The complementary join pair is complete and duplicate-free for any
    /// input order, under both router flavors.
    #[test]
    fn complementary_pair_complete_for_any_order(
        left in prop::collection::vec((0i64..30, 0i64..1000), 0..80),
        right in prop::collection::vec((0i64..30, 0i64..1000), 0..80),
        pq_cap in 1usize..64,
    ) {
        let left = tuples_from(&left);
        let right = tuples_from(&right);
        let mut expected_src = PipelinedHashJoin::new(schema2("l"), schema2("r"), 0, 0);
        let mut expected = Vec::new();
        expected_src.push(0, &left, &mut expected).unwrap();
        expected_src.push(1, &right, &mut expected).unwrap();

        for router in [RouterKind::Naive, RouterKind::PriorityQueue(pq_cap)] {
            let mut pair = ComplementaryJoinPair::new(
                schema2("l"), schema2("r"), 0, 0, router,
            );
            let mut out = Vec::new();
            pair.push(0, &left, &mut out).unwrap();
            pair.push(1, &right, &mut out).unwrap();
            pair.finish_input(0, &mut out).unwrap();
            pair.finish_input(1, &mut out).unwrap();
            pair.finish(&mut out).unwrap();
            prop_assert_eq!(
                canonicalize(&out),
                canonicalize(&expected),
                "router {:?}", router
            );
        }
    }

    /// Hash table and sorted list answer point probes identically, and the
    /// hash table's row store agrees exactly with the insertion-ordered
    /// rows: probes return matches in insertion order (compared
    /// uncanonicalized), `distinct_keys` counts the keys, and `scan()` is a
    /// permutation of the rows.
    #[test]
    fn state_structures_agree_on_probes(
        rows in prop::collection::vec((0i64..40, 0i64..1000), 0..150),
        probes in prop::collection::vec(0i64..50, 1..20),
    ) {
        let tuples = tuples_from(&rows);
        let mut hash = TupleHashTable::new(0);
        let mut sorted = SortedList::new(vec![tukwila::relation::SortKey::asc(0)]);
        for t in &tuples {
            hash.insert(t.clone());
            sorted.insert(t.clone());
        }
        prop_assert_eq!(hash.len(), sorted.len());
        for &p in &probes {
            let key = Value::Int(p).to_key();
            let mut h = Vec::new();
            let mut s = Vec::new();
            hash.probe_into(&key, &mut h);
            sorted.probe_into(&key, &mut s);
            prop_assert_eq!(canonicalize(&h), canonicalize(&s));
        }

        let distinct: std::collections::HashSet<Key> = tuples.iter().map(|t| t.key(0)).collect();
        prop_assert_eq!(hash.distinct_keys(), distinct.len());
        for p in probes.iter().copied().chain(0..40) {
            let key = Value::Int(p).to_key();
            let got: Vec<Tuple> = hash.probe(&key).cloned().collect();
            let want: Vec<Tuple> = tuples.iter().filter(|t| t.key(0) == key).cloned().collect();
            prop_assert_eq!(got, want, "probe {} in insertion order", p);
        }
        prop_assert_eq!(canonicalize(&hash.scan()), canonicalize(&tuples));
    }

    /// `FilterOp` equals the reference executor for every column mix,
    /// null pattern and predicate shape; a type error in one is a type
    /// error in the other.
    #[test]
    fn filter_equals_reference(
        col_plans in prop::collection::vec(
            (0u8..=9, prop::collection::vec((0u8..=8, -8i64..8), 0..40)),
            1..4,
        ),
        pred_pick in 0u8..=5,
        lit in -8i64..8,
    ) {
        // Code 9 = a column whose rows each pick their own type.
        let rows = col_plans.iter().map(|(_, p)| p.len()).min().unwrap_or(0);
        let cols: Vec<Vec<Value>> = col_plans
            .iter()
            .map(|(u, p)| {
                p[..rows]
                    .iter()
                    .map(|&(c, x)| value(if *u <= 8 { *u } else { c }, x))
                    .collect()
            })
            .collect();
        let tuples: Vec<Tuple> = (0..rows)
            .map(|r| Tuple::new(cols.iter().map(|c| c[r].clone()).collect()))
            .collect();
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

        let mut op = FilterOp::new(pred.clone(), schema.clone());
        let mut out = Vec::new();
        let pushed = op.push(0, &tuples, &mut out);
        let mut q = RefQuery::new(vec![RefRelation { schema, tuples: tuples.clone() }]);
        q.filters.push((0, pred));
        match (pushed, q.run()) {
            (Ok(()), Ok(want)) => {
                prop_assert_eq!(canonicalize(&want), canonicalize(&out));
                // The filter keeps its input order: the output is a
                // subsequence of the input.
                let mut rest = tuples.iter().map(|t| format!("{t:?}"));
                for t in &out {
                    let t = format!("{t:?}");
                    prop_assert!(rest.any(|x| x == t), "out of order: {}", t);
                }
            }
            (Err(_), Err(_)) => {}
            (got, want) => prop_assert!(
                false,
                "filter/reference disagree on error-ness: {:?} vs {:?}",
                got.map(|_| out.len()),
                want.map(|v| v.len())
            ),
        }
    }

    /// The pipelined hash join — the join every plan builds — equals the
    /// reference executor as a multiset on keys with nulls, strings, floats
    /// and duplicates, with both inputs arriving as random batches that
    /// alternate between the two ports.
    #[test]
    fn hash_join_equals_reference(
        lrows in prop::collection::vec(((0u8..=8), -4i64..4, -8i64..8), 0..30),
        rrows in prop::collection::vec(((0u8..=8), -4i64..4, -8i64..8), 0..30),
        chunks in prop::collection::vec(1usize..8, 1..8),
        right_first in any::<bool>(),
    ) {
        let left = keyed_rows(&lrows);
        let right = keyed_rows(&rrows);
        let mut join = PipelinedHashJoin::new(schema2("l"), schema2("r"), 0, 0);
        let mut out = Vec::new();
        let (mut l, mut r) = (&left[..], &right[..]);
        let mut port = usize::from(right_first);
        for &n in chunks.iter().cycle() {
            if l.is_empty() && r.is_empty() {
                break;
            }
            let side = if port == 0 { &mut l } else { &mut r };
            let (batch, rest) = side.split_at(n.min(side.len()));
            join.push(port, batch, &mut out).unwrap();
            *side = rest;
            port = 1 - port;
        }
        prop_assert_eq!(join.buffered(), (left.len(), right.len()));
        prop_assert_eq!(join.counters().tuples_out(), out.len() as u64);

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
        prop_assert_eq!(canonicalize(&q.run().unwrap()), canonicalize(&out));
    }

    /// `HashAggOp` equals the reference executor for every aggregate mix
    /// over nullable int/float/string group keys, accumulating across
    /// arbitrary batch boundaries.
    #[test]
    fn hash_agg_equals_reference(
        rows in prop::collection::vec(((0u8..=8), -4i64..4, -8i64..8), 0..50),
        funcs in prop::collection::vec(0u8..=4, 1..4),
        chunk in 1usize..20,
    ) {
        use tukwila::exec::agg::{AggSpec, GroupSpec, HashAggOp};
        use tukwila::exec::reference::RefCol;

        let tuples = keyed_rows(&rows);
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
        let mut op = HashAggOp::new(GroupSpec::new(vec![0], aggs.clone()), &schema);
        let mut out = Vec::new();
        for c in tuples.chunks(chunk) {
            op.push(0, c, &mut out).unwrap();
        }
        op.finish(&mut out).unwrap();

        let mut q = RefQuery::new(vec![RefRelation { schema, tuples: tuples.clone() }]);
        q.group_cols.push(RefCol { rel: 0, col: 0 });
        for a in &aggs {
            q.aggs.push((a.func, RefCol { rel: 0, col: a.col }));
        }
        prop_assert_eq!(canonicalize_approx(&q.run().unwrap()), canonicalize_approx(&out));
    }

    /// The sorted buffer a merge join keeps equals a stable sort under
    /// `cmp_tuples`, in order — nulls, strings, mixed-type columns,
    /// descending keys and tie rows included.
    #[test]
    fn sorted_list_equals_stable_row_sort(
        rows in prop::collection::vec(((0u8..=8), -4i64..4, -3i64..3), 0..50),
        descending in any::<bool>(),
        second_key in any::<bool>(),
    ) {
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
        let mut want = tuples.clone();
        want.sort_by(|a, b| cmp_tuples(&keys, a, b));
        let mut list = SortedList::new(keys);
        for t in &tuples {
            list.insert(t.clone());
        }
        same_order(list.tuples(), &want)?;
    }

    /// The stitch-up probe equals brute force — every probe row against
    /// every table row in insertion order, concat first, residual on the
    /// joined tuple, then narrowed to the emitted columns — in output
    /// order and in `BatchJoinStats`.
    #[test]
    fn stitchup_probe_equals_concat_then_residual(
        table_rows in prop::collection::vec(((0u8..=8), -4i64..4, -2i64..2), 0..40),
        probe_rows in prop::collection::vec(((0u8..=8), -4i64..4, -2i64..2), 0..40),
        with_residual in any::<bool>(),
        emit_mask in 0u8..16,
    ) {
        let stored = keyed_rows(&table_rows);
        let probes = keyed_rows(&probe_rows);
        let mut table = TupleHashTable::new(0);
        for t in &stored {
            table.insert(t.clone());
        }
        // Residual over the joined layout: probe col 1 vs table col 1.
        let residual: &[(usize, usize)] = if with_residual { &[(1, 3)] } else { &[] };
        let emit: Vec<usize> = (0..4).filter(|c| emit_mask & (1 << c) != 0).collect();

        let mut want = Vec::new();
        let mut want_stats = BatchJoinStats::default();
        for p in &probes {
            want_stats.probes += 1;
            for m in stored.iter().filter(|m| m.key(0) == p.key(0)) {
                let joined = p.concat(m);
                if residual.iter().all(|&(a, b)| joined.get(a).eq_total(joined.get(b))) {
                    want.push(joined.project(&emit));
                    want_stats.output += 1;
                }
            }
        }
        let rows = RowBuilder::new(&schema2("p"), &schema2("m"), residual.to_vec(), emit).unwrap();
        let mut got = Vec::new();
        let mut stats = BatchJoinStats::default();
        probe_table(&probes, 0, &table, &rows, &mut stats, &mut got);
        same_order(&got, &want)?;
        prop_assert_eq!(stats, want_stats);
    }

    /// The federated seen-set passes exactly the first delivery of each
    /// composite (nullable, string) key, whichever candidate delivers it
    /// and however the feeds are split into batches.
    #[test]
    fn dedup_keeps_first_delivery_of_each_key(
        pool in prop::collection::vec(((0u8..=8), -6i64..6, -8i64..8), 1..60),
        splits in prop::collection::vec(1usize..10, 1..6),
    ) {
        // Each candidate delivers the key-distinct pool rotated by its
        // index (a candidate repeating its own key is a declared-key
        // violation and panics by design), chopped into `splits[i]`
        // batches — full overlap across candidates.
        let mut distinct = std::collections::HashSet::new();
        let pool: Vec<Tuple> = pool
            .iter()
            .map(|&(c, k, v)| Tuple::new(vec![value(c, k), Value::Int(v), Value::Int(1)]))
            .filter(|t| distinct.insert(t.group_key(&[0, 1])))
            .collect();
        let mut dedup = KeyDedup::new(7, vec![0, 1]);
        let mut seen = std::collections::HashSet::new();
        for (cand, &nb) in splits.iter().enumerate() {
            let mut feed = pool.clone();
            feed.rotate_left(cand % pool.len());
            let chunk = feed.len().div_ceil(nb).max(1);
            for b in feed.chunks(chunk) {
                let want: Vec<Tuple> = b
                    .iter()
                    .filter(|t| seen.insert(t.group_key(&[0, 1])))
                    .cloned()
                    .collect();
                let got = dedup.filter(cand, &format!("cand-{cand}"), b.to_vec());
                same_order(&got, &want)?;
            }
        }
        prop_assert_eq!(dedup.seen_keys(), seen.len());
    }

    /// A split's water-mark dedup passes exactly what the hash-only
    /// seen-set passes. An ascending key scan of a random key-sorted
    /// relation is split at a random step: a descending scan starts above
    /// its water mark. An optional racing lane — a full mirror or a
    /// partial replica, in its own order, possibly repeating one of its
    /// keys — interleaves with both. Checked per batch: the same fresh
    /// tuples in the same order, and a panic exactly where the hash-only
    /// dedup panics; at the end, the same duplicates per candidate, and
    /// no hashed key without a racing lane; and once the scans report
    /// that they met, they delivered every key.
    #[test]
    fn split_dedup_equals_hash_only_dedup(
        gaps in prop::collection::vec(1i64..4, 1..60),
        sizes in prop::collection::vec(1usize..6, 1..8),
        steps in prop::collection::vec(0u8..3, 1..120),
        race in 0u8..3,
        pick in prop::collection::vec(any::<bool>(), 60..61),
        (rotate, again, at) in (0usize..60, 0usize..90, 0usize..90),
    ) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let key = |t: &Tuple| t.get(0).as_int().unwrap();
        let rel: Vec<Tuple> = gaps
            .iter()
            .scan(0i64, |k, g| {
                *k += g;
                Some(Tuple::new(vec![Value::Int(*k), Value::Int(-*k)]))
            })
            .collect();
        // The racing lane: none, the full relation, or a subset, rotated
        // out of key order; `again` re-delivers one of its keys.
        let mut racer: Vec<Tuple> = match race {
            0 => Vec::new(),
            1 => rel.clone(),
            _ => rel.iter().zip(&pick).filter(|(_, &p)| p).map(|(t, _)| t.clone()).collect(),
        };
        if !racer.is_empty() {
            let n = racer.len();
            racer.rotate_left(rotate % n);
            if again < n {
                let repeat = racer[again].clone();
                racer.insert((again + 1 + at).min(n), repeat);
            }
        }
        let (mut water, mut hash) = (KeyDedup::new(3, vec![0]), KeyDedup::new(3, vec![0]));
        water.ascending_scan(0);
        // Per candidate (0 ascending, 1 descending, 2 racing): its feed,
        // how far it got, and its duplicates under each dedup.
        let mut feeds = [rel.clone(), Vec::new(), racer];
        let mut pos = [0usize; 3];
        let (mut dups_water, mut dups_hash) = ([0usize; 3], [0usize; 3]);
        let mut split = false;
        let mut scanned = std::collections::BTreeSet::new();
        for (i, &step) in steps.iter().enumerate() {
            let cand = step as usize;
            if cand == 1 && !split {
                // The split: the descending side scans down to the
                // ascending side's water mark, exclusive.
                split = true;
                let floor = water.water_mark(0).cloned();
                feeds[1] = rel
                    .iter()
                    .rev()
                    .take_while(|t| floor.as_ref().is_none_or(|f| key(t) > key(f)))
                    .cloned()
                    .collect();
                water.descending_scan(1, floor);
                continue;
            }
            let size = sizes[i % sizes.len()];
            let end = (pos[cand] + size).min(feeds[cand].len());
            let batch = feeds[cand][pos[cand]..end].to_vec();
            pos[cand] = end;
            if batch.is_empty() {
                continue;
            }
            let name = format!("cand-{cand}");
            let got = catch_unwind(AssertUnwindSafe(|| water.filter(cand, &name, batch.clone())));
            let want = catch_unwind(AssertUnwindSafe(|| hash.filter(cand, &name, batch.clone())));
            let (got, want) = match (got, want) {
                (Ok(got), Ok(want)) => (got, want),
                (got, want) => {
                    prop_assert_eq!(got.is_err(), want.is_err(), "panic agreement");
                    return Ok(());
                }
            };
            same_order(&got, &want)?;
            dups_water[cand] += batch.len() - got.len();
            dups_hash[cand] += batch.len() - want.len();
            if cand < 2 {
                scanned.extend(batch.iter().map(key));
            }
            if water.met() {
                prop_assert_eq!(scanned.len(), rel.len(), "the scans met, so every key is in");
            }
        }
        prop_assert_eq!(dups_water, dups_hash);
        if race == 0 {
            prop_assert_eq!(water.seen_keys(), 0, "a plain split hashes no key");
        }
    }

    /// Tuple adapters invert: adapting A→B then B→A is the identity.
    #[test]
    fn tuple_adapter_roundtrips(perm in prop::sample::subsequence(
        (0usize..8).collect::<Vec<_>>(), 8)
    ) {
        // A permutation of 0..8 (subsequence of all 8 elements = identity;
        // shuffle deterministically by reversing halves).
        let mut perm = perm;
        perm.reverse();
        let fields: Vec<Field> = (0..8)
            .map(|i| Field::new(format!("f{i}"), DataType::Int))
            .collect();
        let a = Schema::new(fields);
        let b = a.project(&perm);
        let fwd = a.adapter_to(&b).unwrap();
        let back = b.adapter_to(&a).unwrap();
        let t = Tuple::new((0..8).map(Value::Int).collect());
        prop_assert_eq!(back.adapt(&fwd.adapt(&t)), t);
    }
}

/// Empty batches and all-pass / none-pass predicates flow through the
/// row filter and projection: counts, order and empty output.
#[test]
fn filter_and_project_empty_and_all_none_edges() {
    let schema = int_schema(2);
    let tuples: Vec<Tuple> = (0..10)
        .map(|i| Tuple::new(vec![Value::Int(i), Value::Int(i * 2)]))
        .collect();
    let pred_all = Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Value::Int(0)));
    let pred_none = Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Lit(Value::Int(0)));

    let mut out = Vec::new();
    FilterOp::new(pred_all.clone(), schema.clone())
        .push(0, &tuples, &mut out)
        .unwrap();
    assert_eq!(out, tuples);
    let mut out = Vec::new();
    FilterOp::new(pred_none, schema.clone())
        .push(0, &tuples, &mut out)
        .unwrap();
    assert!(out.is_empty());

    // Projection keeps every row, in order.
    let mut proj = ProjectOp::new(vec![Expr::Col(1), Expr::Col(0)], schema.clone());
    let mut pout = Vec::new();
    proj.push(0, &tuples, &mut pout).unwrap();
    assert_eq!(pout.len(), 10);
    assert_eq!(pout[0].get(0).as_int().unwrap(), 0);
    assert_eq!(pout[4].get(1).as_int().unwrap(), 4);

    // Empty batches produce nothing and count nothing.
    let mut op = FilterOp::new(Expr::Lit(Value::Bool(true)), schema.clone());
    let mut out = Vec::new();
    op.push(0, &[], &mut out).unwrap();
    assert!(out.is_empty());
    assert_eq!(op.counters().tuples_in(), 0);
    let mut pout = Vec::new();
    proj.push(0, &[], &mut pout).unwrap();
    assert!(pout.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-to-end fuzz: corrective execution with randomized batch sizes,
    /// polling cadence, and forced switching must equal static execution on
    /// the Example 2.1 query over random data shapes. This effectively
    /// fuzzes the phase boundaries the stitch-up must cover.
    #[test]
    fn corrective_equals_static_under_random_phasing(
        n_flights in 5usize..60,
        n_travelers in 5usize..120,
        trips in 1usize..4,
        seed in 0u64..1000,
        batch in 8usize..64,
        poll in 1u64..4,
    ) {
        use tukwila::datagen::flights;
        let data = flights::generate(n_flights, n_travelers, trips, seed);
        let q = flights::query();
        let mk_sources = || -> Vec<Box<dyn Source>> {
            vec![
                Box::new(MemSource::new(
                    flights::FLIGHTS, "F", flights::flights_schema(),
                    data.flights.clone(),
                )),
                Box::new(MemSource::new(
                    flights::TRAVELERS, "T", flights::travelers_schema(),
                    data.travelers.clone(),
                )),
                Box::new(MemSource::new(
                    flights::CHILDREN, "C", flights::children_schema(),
                    data.children.clone(),
                )),
            ]
        };
        let mut static_sources = mk_sources();
        let static_run = tukwila::core::run_static(
            &q,
            &mut static_sources,
            tukwila::optimizer::OptimizerContext::no_statistics(),
            batch,
            CpuCostModel::Zero,
        ).unwrap();

        let exec = CorrectiveExec::new(q, CorrectiveConfig {
            batch_size: batch,
            cpu: CpuCostModel::Zero,
            poll_every_batches: poll,
            switch_threshold: 100.0,
            max_phases: 4,
            warmup_batches: 1,
            min_remaining_fraction: 0.0,
            ..Default::default()
        });
        let mut sources = mk_sources();
        let report = exec.run(&mut sources).unwrap();
        prop_assert_eq!(
            canonicalize_approx(&report.rows),
            canonicalize_approx(&static_run.rows),
            "phases: {:?}",
            report.phases.iter().map(|p| p.plan.clone()).collect::<Vec<_>>()
        );
    }
}

proptest! {
    // Each case is one small row; many cases reach every typed leaf and
    // fallback pair.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `Expr::matches` (operands borrowed in place) agrees with
    /// `eval(t)?.as_bool()` — value and error-ness — on random predicate
    /// trees over nulls, mixed Int/Float/Date columns and strings, and the
    /// compiled `Predicate` agrees with `Expr::matches`.
    #[test]
    fn matches_equals_eval_as_bool(
        cells in prop::collection::vec(((0u8..=10), -4i64..4), 3..4),
        declared in prop::collection::vec(0u8..=9, 4..5),
        program in prop::collection::vec((0u8..=255, -4i64..4), 1..24),
    ) {
        let row = Tuple::new(
            cells
                .iter()
                .map(|&(c, x)| if c >= 9 { Value::Date(x as i32) } else { value(c, x) })
                .collect(),
        );
        let mut ops = program.iter().copied();
        let pred = random_pred(&mut ops, 3);
        let want = pred.eval(&row).and_then(|v| v.as_bool());
        match (pred.matches(&row), want) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{}", pred),
            (Err(_), Err(_)) => {}
            (got, want) => prop_assert!(
                false,
                "{}: matches {:?} vs eval {:?}",
                pred,
                got.is_ok(),
                want.is_ok()
            ),
        }
        // The compiled form answers as `matches` does, on the random tree
        // and on a scan filter, whose leaves compile to typed comparisons.
        // Half the declared column types are the row's own, half
        // arbitrary, so typed leaves meet both their own variant and every
        // fallback; the schema declares a fourth column the row lacks.
        let types = [DataType::Bool, DataType::Int, DataType::Float, DataType::Str, DataType::Date];
        let schema = Schema::new(
            declared
                .iter()
                .enumerate()
                .map(|(i, &d)| {
                    let own = row.values().get(i).and_then(Value::dtype);
                    let dtype = match own {
                        Some(t) if d < 5 => t,
                        _ => types[d as usize % 5],
                    };
                    Field::new(format!("t.c{i}"), dtype)
                })
                .collect(),
        );
        let scan = scan_pred(&mut program.iter().rev().copied(), 2);
        for e in [&pred, &scan] {
            let compiled = Predicate::compile(e, &schema);
            match (compiled.matches(&row), e.matches(&row)) {
                (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{} as {:?}", e, compiled),
                (Err(_), Err(_)) => {}
                (got, want) => prop_assert!(
                    false,
                    "{}: compiled {:?} vs matches {:?}",
                    e,
                    got.is_ok(),
                    want.is_ok()
                ),
            }
        }
    }

    /// `eq_total`'s same-variant fast paths agree with the full ordering
    /// on every pair of variants: shared and separate strings, the empty
    /// string, signed zeros and NaN, and numeric cross-type pairs.
    #[test]
    fn eq_total_equals_cmp_total_equal(
        cells in prop::collection::vec((0u8..=7, -3i64..3), 2..10),
    ) {
        let shared: Vec<Value> = ["", "R", "RR", "N"].into_iter().map(Value::str).collect();
        let vals: Vec<Value> = cells
            .iter()
            .map(|&(c, x)| {
                let i = x.rem_euclid(4) as usize;
                match c {
                    0 => Value::Null,
                    1 => Value::Bool(x > 0),
                    2 => Value::Int(x),
                    3 => Value::Float([-0.0, 0.0, f64::NAN, x as f64][i]),
                    4 => Value::Float(x as f64 / 2.0),
                    5 => Value::Date(x as i32),
                    6 => shared[i].clone(),
                    _ => Value::str(["", "R", "RR", "N"][i]),
                }
            })
            .collect();
        for a in &vals {
            for b in &vals {
                let want = a.cmp_total(b) == std::cmp::Ordering::Equal;
                prop_assert_eq!(a.eq_total(b), want, "{:?} vs {:?}", a, b);
            }
        }
    }

    /// `Value::Str` and `Key::Str` hold a `Text` and must behave exactly as
    /// they did holding an `Arc<str>`: the same Fx and key-fold hashes,
    /// equalities, orders and printed forms, on random strings (empty,
    /// ASCII, multi-byte UTF-8, long), each in a fresh allocation and in a
    /// clone sharing it.
    #[test]
    fn text_values_and_keys_match_arc_str(
        codes in prop::collection::vec(prop::collection::vec((0u8..4, 0u32..3), 0..40), 1..6),
    ) {
        use tukwila::relation::value::{tuple_key_hash, value_key_eq};
        use tukwila::storage::fx::hash_one;
        let strings: Vec<String> = codes.iter().map(|cs| random_string(cs)).collect();
        let arcs: Vec<Arc<str>> = strings.iter().map(|s| Arc::from(s.as_str())).collect();
        let fresh: Vec<Value> = strings.iter().map(|s| Value::str(s)).collect();
        // Each string twice: its own allocation, then a clone sharing it.
        let vals: Vec<(Value, &Arc<str>)> = fresh
            .iter()
            .cloned()
            .chain(fresh.iter().cloned())
            .zip(arcs.iter().chain(&arcs))
            .collect();
        for (v, arc) in &vals {
            let key = v.to_key();
            let oracle = ArcKey::Str(Arc::clone(arc));
            prop_assert_eq!(hash_one(&key), hash_one(&oracle));
            let Value::Str(text) = v else { unreachable!("a string value") };
            prop_assert_eq!(hash_one(text), hash_one(*arc));
            let row = Tuple::new(vec![v.clone()]);
            prop_assert_eq!(tuple_key_hash(&row, &[0]), arc_fold(arc));
            prop_assert_eq!(v.to_string(), arc.to_string());
            prop_assert_eq!(format!("{v:?}"), format!("Str({arc:?})"));
            prop_assert_eq!(format!("{key:?}"), format!("{oracle:?}"));
        }
        for (a, arc_a) in &vals {
            for (b, arc_b) in &vals {
                let same = arc_a == arc_b;
                prop_assert_eq!(a == b, same, "{:?} vs {:?}", a, b);
                prop_assert_eq!(a.eq_total(b), same);
                prop_assert_eq!(a.cmp_total(b), arc_a.cmp(arc_b));
                prop_assert_eq!(value_key_eq(a, &b.to_key()), same);
                let (ka, kb) = (a.to_key(), b.to_key());
                prop_assert_eq!(ka == kb, same);
                prop_assert_eq!(ka.cmp(&kb), arc_a.cmp(arc_b));
            }
        }
    }
}

/// A random string from `(class, x)` codes, one char each: ASCII, or a
/// two-, three- or four-byte UTF-8 char. Three values per class keep
/// short strings colliding.
fn random_string(codes: &[(u8, u32)]) -> String {
    codes
        .iter()
        .map(|&(class, x)| {
            let base = [0x41, 0xE9, 0x65E5, 0x1F980][class as usize];
            char::from_u32(base + x).expect("no surrogate in these ranges")
        })
        .collect()
}

/// `Key` with `Arc<str>` strings: the oracle for hashing and printing
/// keys. Only `Str` is built; the variants before it give it `Key`'s
/// discriminant, which the derived `Hash` feeds in first.
#[allow(dead_code)]
#[derive(Debug, Hash)]
enum ArcKey {
    Null,
    Bool(bool),
    Int(i64),
    Float(u64),
    Date(i32),
    Str(Arc<str>),
}

/// The key fold of one string column as `relation::value` defines it,
/// over an `Arc<str>`: tag 5, each 8-byte little-endian word, then the
/// tail word tagged with its length.
fn arc_fold(s: &Arc<str>) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(SEED);
    let mut words = s.as_bytes().chunks_exact(8);
    let h = words.by_ref().fold(mix(0, 5), |h, w| {
        mix(h, u64::from_le_bytes(w.try_into().expect("8 bytes")))
    });
    let tail = words.remainder();
    let word = tail.iter().rev().fold(0u64, |w, &b| w << 8 | b as u64);
    mix(h, word ^ ((tail.len() as u64) << 56))
}
