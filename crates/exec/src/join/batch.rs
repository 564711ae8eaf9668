//! Batch join primitives used by the stitch-up executor (paper §3.4.3).
//!
//! The stitch-up join works at the *structure* level: it probes a sealed
//! hash table in place when that table is keyed on the join column and
//! rehashes the partition otherwise (the rule lives in `core::stitchup`);
//! [`probe_table`] is the probe both cases share.

use tukwila_relation::Tuple;
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
) {
    let before = out.len();
    for p in probes {
        stats.probes += 1;
        for m in table.probe(&p.key(probe_key)) {
            rows.push(p, m, out);
        }
    }
    stats.output += out.len() - before;
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
            table.insert(r.clone());
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
            probe_table(&probes, 0, &table, &rows, &mut stats, &mut got);
            assert_eq!(got, want, "residual {residual:?} emit {emit:?}");
            assert_eq!(stats, want_stats, "residual {residual:?} emit {emit:?}");
        }
        // The residual rejects some key matches; the null key matches.
        let mut stats = BatchJoinStats::default();
        let mut out = Vec::new();
        let rows = builder(&[(1, 3)], &[0, 1, 2, 3]);
        probe_table(&probes, 0, &table, &rows, &mut stats, &mut out);
        assert_eq!(out.len(), 5);
        assert!(out.iter().any(|j| j.get(0).is_null()));

        // Empty probe slice: no output, no probes.
        let mut out = Vec::new();
        let mut stats = BatchJoinStats::default();
        probe_table(&[], 0, &table, &rows, &mut stats, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats, BatchJoinStats::default());
    }
}
