//! Property-based tests over the invariants adaptive data partitioning
//! relies on: distributivity of aggregation over union, equivalence of
//! join algorithms, router completeness, state-structure agreement, and
//! end-to-end corrective-vs-static equivalence under randomized phase
//! boundaries.

use proptest::prelude::*;

use tukwila::core::{ComplementaryJoinPair, CorrectiveConfig, CorrectiveExec, RouterKind};
use tukwila::exec::join::{MergeJoin, PipelinedHashJoin};
use tukwila::exec::op::IncOp;
use tukwila::exec::reference::{canonicalize, canonicalize_approx};
use tukwila::exec::CpuCostModel;
use tukwila::relation::agg::{AggFunc, AggState};
use tukwila::relation::{DataType, Field, Key, Schema, Tuple, Value};
use tukwila::source::{MemSource, Source};
use tukwila::storage::hash_table::partition_of;
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
    /// hash table's row store agrees exactly with a naive insertion-ordered
    /// `Vec<(Key, Tuple)>` under inserts interleaved with partition spills
    /// and restores: probes return matches in insertion order (compared
    /// uncanonicalized), the size counters agree, and `scan()` is a
    /// permutation of the resident rows.
    #[test]
    fn state_structures_agree_on_probes(
        rows in prop::collection::vec((0i64..40, 0i64..1000), 0..150),
        probes in prop::collection::vec(0i64..50, 1..20),
        ops in prop::collection::vec((0u8..10, 0i64..40, 0i64..1000), 0..120),
    ) {
        let tuples = tuples_from(&rows);
        let mut hash = TupleHashTable::new(0);
        let mut sorted = SortedList::new(vec![tukwila::relation::SortKey::asc(0)]);
        for t in &tuples {
            hash.insert(t.clone()).unwrap();
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

        // The reference: resident rows in insertion order, plus each
        // spilled partition's rows in the order they went to disk.
        const NPARTS: usize = 4;
        let mut resident: Vec<(Key, Tuple)> =
            tuples.iter().map(|t| (t.key(0), t.clone())).collect();
        let mut on_disk: Vec<Vec<Tuple>> = vec![Vec::new(); NPARTS];
        let mut marked = [false; NPARTS];
        for (op, k, v) in ops {
            let t = Tuple::new(vec![Value::Int(k), Value::Int(v)]);
            let p = partition_of(&t.key(0), NPARTS);
            match op {
                0..=6 => {
                    hash.insert(t.clone()).unwrap();
                    if marked[p] {
                        on_disk[p].push(t);
                    } else {
                        resident.push((t.key(0), t));
                    }
                }
                7 | 8 => {
                    let n = hash.spill_partition(p, NPARTS).unwrap();
                    let (gone, kept): (Vec<_>, Vec<_>) = resident
                        .drain(..)
                        .partition(|(key, _)| partition_of(key, NPARTS) == p);
                    resident = kept;
                    prop_assert_eq!(n, gone.len());
                    on_disk[p].extend(gone.into_iter().map(|(_, t)| t));
                    marked[p] = true;
                }
                _ => {
                    let back = hash.restore_partition(p).unwrap();
                    let expected = std::mem::take(&mut on_disk[p]);
                    prop_assert_eq!(canonicalize(&back), canonicalize(&expected));
                    resident.extend(expected.into_iter().map(|t| (t.key(0), t)));
                    marked[p] = false;
                }
            }
            let spilled: usize = on_disk.iter().map(Vec::len).sum();
            prop_assert_eq!(hash.resident_len(), resident.len());
            prop_assert_eq!(hash.spilled_len(), spilled);
            prop_assert_eq!(hash.len(), resident.len() + spilled);
        }
        let distinct: std::collections::HashSet<&Key> = resident.iter().map(|(k, _)| k).collect();
        prop_assert_eq!(hash.distinct_keys(), distinct.len());
        for p in probes.iter().copied().chain(0..40) {
            let key = Value::Int(p).to_key();
            let got: Vec<Tuple> = hash.probe(&key).cloned().collect();
            let want: Vec<Tuple> = resident
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, t)| t.clone())
                .collect();
            prop_assert_eq!(got, want, "probe {} in insertion order", p);
        }
        let all: Vec<Tuple> = resident.into_iter().map(|(_, t)| t).collect();
        prop_assert_eq!(canonicalize(&hash.scan()), canonicalize(&all));
    }

    /// Spill roundtrip preserves arbitrary tuples exactly.
    #[test]
    fn spill_roundtrip_preserves_tuples(
        rows in prop::collection::vec((any::<i64>(), -1e9f64..1e9, ".{0,12}"), 0..50),
    ) {
        use tukwila::storage::spill::SpillFile;
        let tuples: Vec<Tuple> = rows
            .iter()
            .map(|(i, f, s)| {
                Tuple::new(vec![
                    Value::Int(*i),
                    Value::Float(*f),
                    Value::str(s),
                    Value::Null,
                ])
            })
            .collect();
        let mut file = SpillFile::create().unwrap();
        let seg = file.write_tuples(&tuples).unwrap();
        let back = file.read_segment(seg).unwrap();
        prop_assert_eq!(back, tuples);
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
