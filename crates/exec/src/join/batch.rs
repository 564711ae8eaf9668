//! Batch join primitives used by the stitch-up executor (paper §3.4.3).
//!
//! The stitch-up join works at the *structure* level: it probes a sealed
//! hash table in place when that table is keyed on the join column and
//! rehashes the partition otherwise (the rule lives in `core::stitchup`);
//! [`probe_table`] is the probe both cases share.

use tukwila_relation::{Result, Tuple};
use tukwila_storage::TupleHashTable;

use crate::join::RowBuilder;

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

/// Hash join over two tuple slices, building rows with `rows` (over the
/// `(left, right)` layout). Returns the key matches found, before the
/// residual check.
pub fn hash_join_slices(
    left: &[Tuple],
    right: &[Tuple],
    left_key: usize,
    right_key: usize,
    rows: &RowBuilder,
    out: &mut Vec<Tuple>,
    stats: &mut BatchJoinStats,
) -> Result<u64> {
    // Build on the smaller side; emit in left ++ right orientation.
    let before = out.len();
    let mut matched = 0;
    if left.len() <= right.len() {
        let mut table = TupleHashTable::new(left_key);
        for t in left {
            table.insert(t.clone())?;
        }
        for t in right {
            stats.probes += 1;
            for m in table.probe(&t.key(right_key)) {
                matched += 1;
                rows.push(m, t, out);
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
                matched += 1;
                rows.push(t, m, out);
            }
        }
    }
    stats.output += out.len() - before;
    Ok(matched)
}

/// Probe a sealed hash table with a slice of probe rows — the stitch-up
/// probe (§3.4.3). `rows` is over the `probe ++ match` layout: its
/// residual is checked on the probe row and the match *before* the joined
/// row is built, so misses and residual rejects never allocate. Output
/// order: probe rows in slice order, matches in table insertion order.
pub fn probe_table(
    probes: &[Tuple],
    probe_key: usize,
    table: &TupleHashTable,
    rows: &RowBuilder,
    stats: &mut BatchJoinStats,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    let before = out.len();
    for p in probes {
        stats.probes += 1;
        for m in table.probe(&p.key(probe_key)) {
            rows.push(p, m, out);
        }
    }
    stats.output += out.len() - before;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field, Schema, Value};

    fn t(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    fn kv(side: &str) -> Schema {
        Schema::new(vec![
            Field::new(format!("{side}.k"), DataType::Int),
            Field::new(format!("{side}.v"), DataType::Int),
        ])
    }

    fn builder(residual: &[(usize, usize)], emit: &[usize]) -> RowBuilder {
        RowBuilder::new(&kv("p"), &kv("m"), residual.to_vec(), emit.to_vec()).unwrap()
    }

    #[test]
    fn slices_join_both_build_directions() {
        let small = vec![t(1, 0), t(2, 0)];
        let large = vec![t(1, 9), t(1, 8), t(3, 7)];
        let mut out = Vec::new();
        let mut stats = BatchJoinStats::default();
        let all = builder(&[], &[0, 1, 2, 3]);
        hash_join_slices(&small, &large, 0, 0, &all, &mut out, &mut stats).unwrap();
        assert_eq!(out.len(), 2);
        // Orientation: left attrs first.
        assert_eq!(out[0].get(1).as_int().unwrap(), 0);

        let mut out2 = Vec::new();
        hash_join_slices(&large, &small, 0, 0, &all, &mut out2, &mut stats).unwrap();
        assert_eq!(out2.len(), 2);
        assert_eq!(out2[0].get(3).as_int().unwrap(), 0);

        // Narrowed, with a residual: only the right values survive.
        let mut out3 = Vec::new();
        let narrow = builder(&[(1, 3)], &[3]);
        let matched =
            hash_join_slices(&large, &small, 0, 0, &narrow, &mut out3, &mut stats).unwrap();
        assert_eq!(matched, 2);
        assert!(out3.is_empty(), "no pair has equal values");
    }

    #[test]
    fn table_probe_matches_brute_force_concat_then_residual() {
        // Table keyed on col 0, with a null key and a duplicated key; the
        // residual joins probe col 1 against table col 1 and rejects some
        // key matches.
        let rows = vec![
            t(1, 10),
            t(1, 20),
            t(2, 10),
            Tuple::new(vec![Value::Null, Value::Int(10)]),
            t(3, 30),
            t(1, 10),
        ];
        let mut table = TupleHashTable::new(0);
        for r in &rows {
            table.insert(r.clone()).unwrap();
        }
        let probes = vec![
            t(1, 10),
            Tuple::new(vec![Value::Null, Value::Int(10)]),
            t(2, 10),
            t(1, 20),
            t(9, 0),
            t(3, 31),
        ];
        for (residual, emit) in [
            (&[][..], &[0, 1, 2, 3][..]),
            (&[(1usize, 3usize)][..], &[0, 1, 2, 3][..]),
            (&[(1, 3)][..], &[1, 2][..]),
        ] {
            // Brute force: every probe against every stored row in
            // insertion order, concat first, residual on the joined tuple.
            let mut want = Vec::new();
            let mut want_stats = BatchJoinStats::default();
            for p in &probes {
                want_stats.probes += 1;
                for m in rows.iter().filter(|m| m.key(0) == p.key(0)) {
                    let joined = p.concat(m);
                    if residual
                        .iter()
                        .all(|&(a, b)| joined.get(a).eq_total(joined.get(b)))
                    {
                        want.push(joined.project(emit));
                        want_stats.output += 1;
                    }
                }
            }
            let mut got = Vec::new();
            let mut stats = BatchJoinStats::default();
            let rows = builder(residual, emit);
            probe_table(&probes, 0, &table, &rows, &mut stats, &mut got).unwrap();
            assert_eq!(got, want, "residual {residual:?} emit {emit:?}");
            assert_eq!(stats, want_stats, "residual {residual:?} emit {emit:?}");
        }
        // The residual rejects some key matches; the null key matches.
        let mut stats = BatchJoinStats::default();
        let mut out = Vec::new();
        let rows = builder(&[(1, 3)], &[0, 1, 2, 3]);
        probe_table(&probes, 0, &table, &rows, &mut stats, &mut out).unwrap();
        assert_eq!(out.len(), 5);
        assert!(out.iter().any(|j| j.get(0).is_null()));

        // Empty probe slice: no output, no probes.
        let mut out = Vec::new();
        let mut stats = BatchJoinStats::default();
        probe_table(&[], 0, &table, &rows, &mut stats, &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, BatchJoinStats::default());
    }
}
