//! Memory-bounded symmetric hash join with XJoin-style overflow
//! resolution (paper §3.3: "hash tables provide an external interface by
//! which they can be swapped to and from disk (enabling coordination of
//! join overflow partitions)"; §5 applies the same scheme to the
//! complementary join pair).
//!
//! When resident memory exceeds the budget, the join lazily co-partitions
//! both hash tables and swaps partitions to disk, spilling the largest
//! regions first. Probes that would touch a spilled partition are
//! *deferred*: the arriving tuple itself lands on disk (its key lives in
//! the same partition on its own side), and the missing matches are
//! produced during the overflow-resolution pass at `finish`, which joins
//! each spilled partition's pre-spill × post-spill and post × post
//! segments — pre × pre was already emitted while the partition was
//! resident.

use std::sync::Arc;

use tukwila_relation::{Error, Result, Schema, Tuple};
use tukwila_stats::OpCounters;
use tukwila_storage::hash_table::partition_of;
use tukwila_storage::{StateStructure, TupleHashTable};

use crate::join::batch::{hash_join_slices, BatchJoinStats};
use crate::join::RowBuilder;
use crate::op::{Batch, ExtractedState, IncOp};

const NPARTS: usize = 8;

/// Symmetric hash join under a memory budget.
pub struct OverflowHashJoin {
    left_key: usize,
    right_key: usize,
    left_schema: Schema,
    right_schema: Schema,
    rows: RowBuilder,
    left: TupleHashTable,
    right: TupleHashTable,
    /// Resident-memory budget across both tables.
    mem_limit: usize,
    /// Per spilled partition: tuples resident on each side at spill time
    /// (their cross product was already emitted).
    spilled: Vec<Option<(Vec<Tuple>, Vec<Tuple>)>>,
    resolved: bool,
    counters: Arc<OpCounters>,
    stats: BatchJoinStats,
}

impl OverflowHashJoin {
    /// A symmetric hash join that spills partitions once resident state
    /// exceeds `mem_limit_bytes`.
    pub fn new(
        left_schema: Schema,
        right_schema: Schema,
        left_key: usize,
        right_key: usize,
        mem_limit_bytes: usize,
    ) -> OverflowHashJoin {
        OverflowHashJoin {
            left_key,
            right_key,
            left: TupleHashTable::new(left_key),
            right: TupleHashTable::new(right_key),
            rows: RowBuilder::concat(&left_schema, &right_schema),
            left_schema,
            right_schema,
            mem_limit: mem_limit_bytes.max(1),
            spilled: (0..NPARTS).map(|_| None).collect(),
            resolved: false,
            counters: OpCounters::new(),
            stats: BatchJoinStats::default(),
        }
    }

    /// Build output rows with `rows` (residual check, emitted columns)
    /// instead of the full concatenation; `rows` is over `(left, right)`.
    pub fn with_rows(mut self, rows: RowBuilder) -> OverflowHashJoin {
        self.rows = rows;
        self
    }

    /// Number of partitions currently spilled.
    pub fn spilled_partitions(&self) -> usize {
        self.spilled.iter().filter(|s| s.is_some()).count()
    }

    /// Probe/output statistics accumulated so far.
    pub fn join_stats(&self) -> BatchJoinStats {
        self.stats
    }

    fn over_budget(&self) -> bool {
        self.left.approx_bytes() + self.right.approx_bytes() > self.mem_limit
    }

    /// Spill the largest resident partition from both tables (co-ordinated
    /// boundaries, as §5 requires for the four shared tables).
    fn spill_one(&mut self) -> Result<bool> {
        // Estimate per-partition residency by sampling keys.
        let mut sizes = [0usize; NPARTS];
        for t in self.left.iter() {
            sizes[partition_of(&t.key(self.left_key), NPARTS)] += t.approx_bytes();
        }
        for t in self.right.iter() {
            sizes[partition_of(&t.key(self.right_key), NPARTS)] += t.approx_bytes();
        }
        let victim = (0..NPARTS)
            .filter(|&p| self.spilled[p].is_none())
            .max_by_key(|&p| sizes[p]);
        let Some(p) = victim else {
            return Ok(false); // everything already spilled
        };
        // Remember the resident tuples whose pairings were already emitted.
        let pre_left: Vec<Tuple> = self
            .left
            .iter()
            .filter(|t| partition_of(&t.key(self.left_key), NPARTS) == p)
            .cloned()
            .collect();
        let pre_right: Vec<Tuple> = self
            .right
            .iter()
            .filter(|t| partition_of(&t.key(self.right_key), NPARTS) == p)
            .cloned()
            .collect();
        self.left.spill_partition(p, NPARTS)?;
        self.right.spill_partition(p, NPARTS)?;
        self.spilled[p] = Some((pre_left, pre_right));
        Ok(true)
    }
}

impl IncOp for OverflowHashJoin {
    fn name(&self) -> &str {
        "overflow-hash-join"
    }

    fn inputs(&self) -> usize {
        2
    }

    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn push(&mut self, port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        self.counters.add_in(batch.len() as u64);
        let before = out.len();
        let mut matched = 0;
        for t in batch {
            let (key, other_spilled) = match port {
                0 => {
                    let k = t.key(self.left_key);
                    let sp = self.right.key_is_spilled(&k);
                    (k, sp)
                }
                1 => {
                    let k = t.key(self.right_key);
                    let sp = self.left.key_is_spilled(&k);
                    (k, sp)
                }
                p => return Err(Error::Exec(format!("overflow join has no port {p}"))),
            };
            if !other_spilled {
                // Normal symmetric probe.
                match port {
                    0 => {
                        for m in self.right.probe(&key) {
                            matched += 1;
                            self.rows.push(t, m, out);
                        }
                    }
                    _ => {
                        for m in self.left.probe(&key) {
                            matched += 1;
                            self.rows.push(m, t, out);
                        }
                    }
                }
            }
            self.counters.add_work(1);
            match port {
                0 => self.left.insert(t.clone())?,
                _ => self.right.insert(t.clone())?,
            }
            if self.over_budget() && !self.spill_one()? {
                // Budget unreachable even fully spilled; keep going — the
                // resident remainder is what it is.
            }
        }
        self.rows
            .count(&self.counters, matched, (out.len() - before) as u64);
        Ok(())
    }

    /// Overflow resolution: for each spilled partition, restore both sides
    /// and emit every pair except pre × pre (already emitted while
    /// resident).
    fn finish(&mut self, out: &mut Batch) -> Result<()> {
        if self.resolved {
            return Ok(());
        }
        self.resolved = true;
        let before = out.len();
        let mut matched = 0;
        for p in 0..NPARTS {
            let Some((pre_left, pre_right)) = self.spilled[p].take() else {
                continue;
            };
            let all_left = self.left.restore_partition(p)?;
            let all_right = self.right.restore_partition(p)?;
            let post_left = without(&all_left, &pre_left);
            let post_right = without(&all_right, &pre_right);
            matched += hash_join_slices(
                &post_left,
                &all_right,
                self.left_key,
                self.right_key,
                &self.rows,
                out,
                &mut self.stats,
            )?;
            matched += hash_join_slices(
                &pre_left,
                &post_right,
                self.left_key,
                self.right_key,
                &self.rows,
                out,
                &mut self.stats,
            )?;
        }
        self.rows
            .count(&self.counters, matched, (out.len() - before) as u64);
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    fn extract_states(&mut self) -> Vec<ExtractedState> {
        let left = std::mem::replace(&mut self.left, TupleHashTable::new(self.left_key));
        let right = std::mem::replace(&mut self.right, TupleHashTable::new(self.right_key));
        vec![
            ExtractedState {
                port: 0,
                schema: self.left_schema.clone(),
                structure: Arc::new(left) as Arc<dyn StateStructure>,
            },
            ExtractedState {
                port: 1,
                schema: self.right_schema.clone(),
                structure: Arc::new(right) as Arc<dyn StateStructure>,
            },
        ]
    }
}

/// `all` minus `pre` as multisets: each pre-spill tuple removes one equal
/// tuple, so an identical tuple that arrived after the spill stays.
fn without(all: &[Tuple], pre: &[Tuple]) -> Vec<Tuple> {
    let mut pre: Vec<&Tuple> = pre.iter().collect();
    all.iter()
        .filter(|t| match pre.iter().position(|x| x == t) {
            Some(i) => {
                pre.swap_remove(i);
                false
            }
            None => true,
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::pipelined_hash::PipelinedHashJoin;
    use crate::reference::canonicalize;
    use tukwila_relation::{DataType, Field, Value};

    fn schemas() -> (Schema, Schema) {
        (
            Schema::new(vec![
                Field::new("l.k", DataType::Int),
                Field::new("l.v", DataType::Int),
            ]),
            Schema::new(vec![
                Field::new("r.k", DataType::Int),
                Field::new("r.v", DataType::Int),
            ]),
        )
    }

    fn t(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    fn full() -> RowBuilder {
        let (ls, rs) = schemas();
        RowBuilder::concat(&ls, &rs)
    }

    fn run_with_limit(
        left: &[Tuple],
        right: &[Tuple],
        limit: usize,
        rows: &RowBuilder,
    ) -> (Batch, usize) {
        let (ls, rs) = schemas();
        let mut j = OverflowHashJoin::new(ls, rs, 0, 0, limit).with_rows(rows.clone());
        let mut out = Vec::new();
        // Interleave sides to stress deferred probes.
        let mut li = 0;
        let mut ri = 0;
        while li < left.len() || ri < right.len() {
            if li < left.len() {
                let end = (li + 16).min(left.len());
                j.push(0, &left[li..end], &mut out).unwrap();
                li = end;
            }
            if ri < right.len() {
                let end = (ri + 16).min(right.len());
                j.push(1, &right[ri..end], &mut out).unwrap();
                ri = end;
            }
        }
        let spilled = j.spilled_partitions();
        j.finish(&mut out).unwrap();
        (out, spilled)
    }

    fn expected(left: &[Tuple], right: &[Tuple], rows: &RowBuilder) -> Batch {
        let (ls, rs) = schemas();
        let mut j = PipelinedHashJoin::new(ls, rs, 0, 0).with_rows(rows.clone());
        let mut out = Vec::new();
        j.push(0, left, &mut out).unwrap();
        j.push(1, right, &mut out).unwrap();
        out
    }

    #[test]
    fn no_spill_under_generous_budget() {
        let left: Vec<Tuple> = (0..100).map(|i| t(i % 20, i)).collect();
        let right: Vec<Tuple> = (0..100).map(|i| t(i % 20, 1000 + i)).collect();
        let (out, spilled) = run_with_limit(&left, &right, usize::MAX, &full());
        assert_eq!(spilled, 0);
        assert_eq!(
            canonicalize(&out),
            canonicalize(&expected(&left, &right, &full()))
        );
    }

    #[test]
    fn spills_and_resolves_exactly() {
        let left: Vec<Tuple> = (0..400).map(|i| t(i % 50, i)).collect();
        let right: Vec<Tuple> = (0..400).map(|i| t(i % 50, 9000 + i)).collect();
        // ~25KB of data; 4KB budget forces several spills.
        let (out, spilled) = run_with_limit(&left, &right, 4096, &full());
        assert!(spilled > 0, "expected spilling under a 4KB budget");
        assert_eq!(
            canonicalize(&out),
            canonicalize(&expected(&left, &right, &full())),
            "overflow resolution must reproduce the exact join"
        );
        // Narrowed rows with a residual: resolution builds through the
        // same row builder as the resident probes.
        let (ls, rs) = schemas();
        let left: Vec<Tuple> = (0..400).map(|i| t(i % 50, i % 7)).collect();
        let right: Vec<Tuple> = (0..400).map(|i| t(i % 50, i % 5)).collect();
        let narrow = RowBuilder::new(&ls, &rs, vec![(1, 3)], vec![0, 3]).unwrap();
        let (out, spilled) = run_with_limit(&left, &right, 4096, &narrow);
        assert!(spilled > 0);
        let want = expected(&left, &right, &narrow);
        assert!(!want.is_empty() && want.iter().all(|r| r.arity() == 2));
        assert_eq!(canonicalize(&out), canonicalize(&want));
    }

    #[test]
    fn fully_spilled_still_correct() {
        let left: Vec<Tuple> = (0..200).map(|i| t(i % 10, i)).collect();
        let right: Vec<Tuple> = (0..200).map(|i| t(i % 10, 1000 + i)).collect();
        let (out, spilled) = run_with_limit(&left, &right, 1, &full());
        assert_eq!(spilled, 8, "1-byte budget spills every partition");
        assert_eq!(
            canonicalize(&out),
            canonicalize(&expected(&left, &right, &full()))
        );
    }

    #[test]
    fn finish_is_idempotent() {
        let left = vec![t(1, 1)];
        let right = vec![t(1, 2)];
        let (ls, rs) = schemas();
        let mut j = OverflowHashJoin::new(ls, rs, 0, 0, 1);
        let mut out = Vec::new();
        j.push(0, &left, &mut out).unwrap();
        j.push(1, &right, &mut out).unwrap();
        j.finish(&mut out).unwrap();
        let n = out.len();
        j.finish(&mut out).unwrap();
        assert_eq!(out.len(), n);
        assert_eq!(n, 1);
    }
}
