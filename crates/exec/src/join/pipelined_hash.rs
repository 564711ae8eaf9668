//! The pipelined (symmetric) hash join — the default physical join in
//! data-integration engines (paper §3, citing [22, 15, 26]).
//!
//! Both inputs build hash tables; each arriving tuple inserts into its own
//! side's table and probes the other side's. Results stream out as soon as
//! both matching tuples have arrived, with no blocking phase, and the two
//! tables double as the buffered partitions ADP needs for stitch-up.

use std::sync::Arc;

use tukwila_relation::{Result, Schema, Tuple};
use tukwila_stats::OpCounters;
use tukwila_storage::{StateStructure, TupleHashTable};

use crate::join::RowBuilder;
use crate::op::{Batch, ExtractedState, IncOp};

/// Symmetric hash join on a single equi-join column per side.
pub struct PipelinedHashJoin {
    left_key: usize,
    right_key: usize,
    left_schema: Schema,
    right_schema: Schema,
    rows: RowBuilder,
    left_table: TupleHashTable,
    right_table: TupleHashTable,
    counters: Arc<OpCounters>,
}

impl PipelinedHashJoin {
    /// A symmetric hash join on `left_key = right_key` (key positions in
    /// the respective input schemas).
    pub fn new(
        left_schema: Schema,
        right_schema: Schema,
        left_key: usize,
        right_key: usize,
    ) -> PipelinedHashJoin {
        PipelinedHashJoin {
            left_key,
            right_key,
            left_table: TupleHashTable::new(left_key),
            right_table: TupleHashTable::new(right_key),
            rows: RowBuilder::concat(&left_schema, &right_schema),
            left_schema,
            right_schema,
            counters: OpCounters::new(),
        }
    }

    /// Build output rows with `rows` (residual check, emitted columns)
    /// instead of the full concatenation; `rows` is over `(left, right)`.
    pub fn with_rows(mut self, rows: RowBuilder) -> PipelinedHashJoin {
        self.rows = rows;
        self
    }

    /// Tuples buffered on each side so far.
    pub fn buffered(&self) -> (usize, usize) {
        (self.left_table.len(), self.right_table.len())
    }
}

impl IncOp for PipelinedHashJoin {
    fn name(&self) -> &str {
        "pipelined-hash-join"
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
        let mut matched = 0u64;
        match port {
            0 => {
                self.counters.add_work(batch.len() as u64);
                for t in batch {
                    let key = t.key(self.left_key);
                    for m in self.right_table.probe(&key) {
                        matched += 1;
                        self.rows.push(t, m, out);
                    }
                    self.left_table.insert(t.clone());
                }
            }
            1 => {
                self.counters.add_work(batch.len() as u64);
                for t in batch {
                    let key = t.key(self.right_key);
                    for m in self.left_table.probe(&key) {
                        matched += 1;
                        self.rows.push(m, t, out);
                    }
                    self.right_table.insert(t.clone());
                }
            }
            p => {
                return Err(tukwila_relation::Error::Exec(format!(
                    "pipelined hash join has no port {p}"
                )))
            }
        }
        self.rows
            .count(&self.counters, matched, (out.len() - before) as u64);
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    fn extract_states(&mut self) -> Vec<ExtractedState> {
        let left = std::mem::replace(&mut self.left_table, TupleHashTable::new(self.left_key));
        let right = std::mem::replace(&mut self.right_table, TupleHashTable::new(self.right_key));
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

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn streams_matches_in_both_directions() {
        let (ls, rs) = schemas();
        let mut j = PipelinedHashJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(1, 10), t(2, 20)], &mut out).unwrap();
        assert!(out.is_empty(), "nothing on the right yet");
        j.push(1, &[t(1, 100)], &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arity(), 4);
        assert_eq!(out[0].get(3).as_int().unwrap(), 100);
        // Late left arrival still matches buffered right.
        j.push(0, &[t(1, 11)], &mut out).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(j.buffered(), (3, 1));
    }

    #[test]
    fn many_to_many_cross_products() {
        let (ls, rs) = schemas();
        let mut j = PipelinedHashJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(7, 1), t(7, 2)], &mut out).unwrap();
        j.push(1, &[t(7, 3), t(7, 4)], &mut out).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(j.counters().tuples_out(), 4);
    }

    #[test]
    fn residual_rejects_count_as_matches_not_output() {
        let (ls, rs) = schemas();
        // l.v = r.v on top of the key; emit l.k and r.v only.
        let rows = RowBuilder::new(&ls, &rs, vec![(1, 3)], vec![0, 3]).unwrap();
        let mut j = PipelinedHashJoin::new(ls, rs, 0, 0).with_rows(rows);
        assert_eq!(j.schema().arity(), 2);
        let mut out = Vec::new();
        j.push(0, &[t(7, 1), t(7, 2)], &mut out).unwrap();
        j.push(1, &[t(7, 2), t(8, 2)], &mut out).unwrap();
        assert_eq!(out, vec![t(7, 2)]);
        let c = j.counters();
        assert_eq!((c.matches(), c.tuples_out()), (2, 1));
        // Per-input probe work plus one residual check per match.
        assert_eq!(c.work(), 4 + 2);
    }

    #[test]
    fn no_matches_for_disjoint_keys() {
        let (ls, rs) = schemas();
        let mut j = PipelinedHashJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(1, 0)], &mut out).unwrap();
        j.push(1, &[t(2, 0)], &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn extract_states_yields_both_tables() {
        let (ls, rs) = schemas();
        let mut j = PipelinedHashJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(1, 0), t(2, 0)], &mut out).unwrap();
        j.push(1, &[t(1, 9)], &mut out).unwrap();
        let states = j.extract_states();
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].port, 0);
        assert_eq!(states[0].structure.len(), 2);
        assert_eq!(states[1].structure.len(), 1);
        // The join is drained afterwards.
        assert_eq!(j.buffered(), (0, 0));
    }
}
