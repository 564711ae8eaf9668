//! Batch join primitives used by the stitch-up executor (paper §3.4.3).
//!
//! The stitch-up join works at the *structure* level: it probes a sealed
//! hash table in place when that table is keyed on the join column and
//! rehashes the partition otherwise (the rule lives in `core::stitchup`);
//! [`probe_table_columnar`] is the probe both cases share.

use tukwila_relation::column::{hash_keys_into, key_elem_eq};
use tukwila_relation::{ColumnarBatch, Key, Result, Tuple};
use tukwila_storage::fx::FxHashMap;
use tukwila_storage::TupleHashTable;

/// Statistics from batch/stitch-up join primitives.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchJoinStats {
    /// Hash-table probes performed.
    pub probes: usize,
    /// Output tuples produced.
    pub output: usize,
    /// Registered partitions that had to be rehashed because they were not
    /// a resident hash table keyed on the join column in the needed layout
    /// (those are probed in place).
    pub rehashes: usize,
}

/// Hash join over two tuple slices.
pub fn hash_join_slices(
    left: &[Tuple],
    right: &[Tuple],
    left_key: usize,
    right_key: usize,
    out: &mut Vec<Tuple>,
    stats: &mut BatchJoinStats,
) -> Result<()> {
    // Build on the smaller side; emit in left.concat(right) orientation.
    if left.len() <= right.len() {
        let mut table = TupleHashTable::new(left_key);
        for t in left {
            table.insert(t.clone())?;
        }
        for t in right {
            stats.probes += 1;
            for m in table.probe(&t.key(right_key)) {
                out.push(m.concat(t));
                stats.output += 1;
            }
        }
    } else {
        let mut table = TupleHashTable::new(right_key);
        for t in right {
            table.insert(t.clone())?;
        }
        for t in left {
            stats.probes += 1;
            for m in table.probe(&t.key(left_key)) {
                out.push(t.concat(m));
                stats.output += 1;
            }
        }
    }
    Ok(())
}

/// Hash join over two columnar batches: one vectorized hash pass per key
/// column on each side, bucketed by hash with exact key verification, and
/// output assembled by column gather instead of per-row `concat`.
///
/// Output rows (after [`ColumnarBatch::to_tuples`]) are identical to
/// [`hash_join_slices`] over the corresponding row batches, in the same
/// order: build on the smaller side, probe in row order, matches in build
/// insertion order, orientation `left ++ right`.
pub fn hash_join_columnar(
    left: &ColumnarBatch,
    right: &ColumnarBatch,
    left_key: usize,
    right_key: usize,
    stats: &mut BatchJoinStats,
) -> Result<ColumnarBatch> {
    // An empty side produces no pairs; bail out before touching key
    // columns (a rowless batch converted from tuples has no columns at
    // all, so the key index would be out of range).
    if left.selected_rows() == 0 || right.selected_rows() == 0 {
        return Ok(ColumnarBatch::empty(left.arity() + right.arity()));
    }
    // Physical row indices must equal logical order for the gather below.
    let left = if left.selection().is_some() {
        left.compact()
    } else {
        left.clone()
    };
    let right = if right.selection().is_some() {
        right.compact()
    } else {
        right.clone()
    };
    let left_builds = left.num_rows() <= right.num_rows();
    let (build, probe, build_key, probe_key) = if left_builds {
        (&left, &right, left_key, right_key)
    } else {
        (&right, &left, right_key, left_key)
    };

    let mut hashes = Vec::new();
    hash_keys_into(build, &[build_key], &mut hashes);
    let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
    for (i, &h) in hashes.iter().enumerate() {
        buckets.entry(h).or_default().push(i as u32);
    }

    hash_keys_into(probe, &[probe_key], &mut hashes);
    let build_col = build.column(build_key);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    for (i, &h) in hashes.iter().enumerate() {
        stats.probes += 1;
        if let Some(bucket) = buckets.get(&h) {
            let k = probe.column(probe_key).key(i);
            for &j in bucket {
                if key_elem_eq(build_col, j as usize, &k) {
                    // Orientation is always left ++ right.
                    pairs.push(if left_builds {
                        (j, i as u32)
                    } else {
                        (i as u32, j)
                    });
                }
            }
        }
    }
    stats.output += pairs.len();
    Ok(ColumnarBatch::gather_concat(&left, &right, &pairs))
}

/// Probe a sealed hash table with a columnar batch of probe rows — the
/// stitch-up probe path (§3.4.3) in the staged columnar style of the
/// dedup filter: keys are gathered from the probe key column in one
/// column-dispatch pass, then each staged key probes the table, with
/// residual equality (`joined[a] == joined[b]` over the virtual
/// `probe ++ match` layout) checked against probe columns and match
/// tuples *before* any joined tuple is materialized, so misses and
/// residual rejects never allocate. Output content and order match the
/// row-at-a-time probe exactly: probe rows in selection order, matches
/// in table insertion order.
pub fn probe_table_columnar(
    probes: &ColumnarBatch,
    probe_key: usize,
    table: &TupleHashTable,
    residual: &[(usize, usize)],
    stats: &mut BatchJoinStats,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    if probes.selected_rows() == 0 {
        // A rowless batch converted from tuples has no columns at all;
        // don't touch the key column.
        return Ok(());
    }
    let arity = probes.arity();
    let rows = probes.selected_indices();
    // Stage 1: gather the probe keys in one pass over the key column.
    let key_col = probes.column(probe_key);
    let keys: Vec<Key> = rows.iter().map(|&r| key_col.key(r)).collect();
    // Stage 2: probe with the staged keys; materialize survivors only.
    for (&r, k) in rows.iter().zip(&keys) {
        stats.probes += 1;
        for m in table.probe(k) {
            let keep = residual.iter().all(|&(a, b)| {
                let va = if a < arity {
                    probes.value(r, a)
                } else {
                    m.get(a - arity).clone()
                };
                let vb = if b < arity {
                    probes.value(r, b)
                } else {
                    m.get(b - arity).clone()
                };
                va.eq_total(&vb)
            });
            if keep {
                // `probe ++ match` in one allocation.
                let joined = (0..arity)
                    .map(|c| probes.value(r, c))
                    .chain(m.values().iter().cloned())
                    .collect();
                out.push(joined);
                stats.output += 1;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::Value;

    fn t(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    #[test]
    fn slices_join_both_build_directions() {
        let small = vec![t(1, 0), t(2, 0)];
        let large = vec![t(1, 9), t(1, 8), t(3, 7)];
        let mut out = Vec::new();
        let mut stats = BatchJoinStats::default();
        hash_join_slices(&small, &large, 0, 0, &mut out, &mut stats).unwrap();
        assert_eq!(out.len(), 2);
        // Orientation: left attrs first.
        assert_eq!(out[0].get(1).as_int().unwrap(), 0);

        let mut out2 = Vec::new();
        hash_join_slices(&large, &small, 0, 0, &mut out2, &mut stats).unwrap();
        assert_eq!(out2.len(), 2);
        assert_eq!(out2[0].get(3).as_int().unwrap(), 0);
    }

    #[test]
    fn columnar_join_matches_row_join_exactly() {
        // Duplicates, misses, nulls, strings — both build directions.
        let ts = |pairs: &[(Option<i64>, &str)]| -> Vec<Tuple> {
            pairs
                .iter()
                .map(|(k, v)| Tuple::new(vec![k.map_or(Value::Null, Value::Int), Value::str(v)]))
                .collect()
        };
        let small = ts(&[(Some(1), "a"), (None, "n"), (Some(2), "b"), (Some(1), "c")]);
        let large = ts(&[
            (Some(1), "x"),
            (Some(3), "y"),
            (None, "z"),
            (Some(1), "w"),
            (Some(2), "v"),
        ]);
        for (l, r) in [(&small, &large), (&large, &small)] {
            let mut row_out = Vec::new();
            let mut row_stats = BatchJoinStats::default();
            hash_join_slices(l, r, 0, 0, &mut row_out, &mut row_stats).unwrap();

            let (lc, rc) = (ColumnarBatch::from_tuples(l), ColumnarBatch::from_tuples(r));
            let mut col_stats = BatchJoinStats::default();
            let col_out = hash_join_columnar(&lc, &rc, 0, 0, &mut col_stats)
                .unwrap()
                .to_tuples();
            assert_eq!(col_out, row_out);
            assert_eq!(col_stats.probes, row_stats.probes);
            assert_eq!(col_stats.output, row_stats.output);
        }
    }

    #[test]
    fn columnar_join_honors_selection() {
        let l = vec![t(1, 10), t(2, 20), t(3, 30)];
        let r = vec![t(1, 1), t(2, 2)];
        let mut lc = ColumnarBatch::from_tuples(&l);
        let mut sel = tukwila_relation::Bitmap::zeros(3);
        sel.set(1, true); // keep only key=2
        lc.select(sel);
        let rc = ColumnarBatch::from_tuples(&r);
        let mut stats = BatchJoinStats::default();
        let out = hash_join_columnar(&lc, &rc, 0, 0, &mut stats)
            .unwrap()
            .to_tuples();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(1).as_int().unwrap(), 20);
        assert_eq!(out[0].get(3).as_int().unwrap(), 2);
    }

    #[test]
    fn columnar_table_probe_matches_row_probe() {
        // Table keyed on col 0; probes carry nulls, dups and a residual
        // predicate joining probe col 1 against table col 1.
        let mut table = TupleHashTable::new(0);
        for (k, v) in [(1, 10), (1, 20), (2, 10), (3, 30)] {
            table.insert(t(k, v)).unwrap();
        }
        let probes = vec![
            t(1, 10),
            Tuple::new(vec![Value::Null, Value::Int(10)]),
            t(2, 10),
            t(1, 20),
            t(9, 0),
        ];
        let residual = &[(1usize, 3usize)];

        // Row reference: probe in order, residual on the joined tuple.
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

        let pc = ColumnarBatch::from_tuples(&probes);
        let mut col_out = Vec::new();
        let mut col_stats = BatchJoinStats::default();
        probe_table_columnar(&pc, 0, &table, residual, &mut col_stats, &mut col_out).unwrap();
        assert_eq!(col_out, row_out);
        assert_eq!(col_stats, row_stats);

        // Empty probe batch: no panic, no output.
        let empty = ColumnarBatch::from_tuples(&[]);
        let mut out = Vec::new();
        let mut stats = BatchJoinStats::default();
        probe_table_columnar(&empty, 0, &table, residual, &mut stats, &mut out).unwrap();
        assert!(out.is_empty());
    }
}
