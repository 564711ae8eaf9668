//! Symmetric (buffering) nested-loops join — the fallback for arbitrary,
//! non-equi join predicates.

use std::sync::Arc;

use tukwila_relation::{Error, Expr, Result, Schema, Tuple};
use tukwila_stats::OpCounters;
use tukwila_storage::{StateStructure, TupleList};

use crate::join::RowBuilder;
use crate::op::{Batch, ExtractedState, IncOp};

/// Nested-loops join with an arbitrary predicate over the concatenated
/// layout, tested on each pair in place before its row is built. Buffers
/// both inputs (paper §3.4's buffering requirement), so it is
/// "symmetric": each arriving tuple is tested against everything buffered
/// on the other side.
pub struct NestedLoopsJoin {
    predicate: Expr,
    left_schema: Schema,
    right_schema: Schema,
    rows: RowBuilder,
    left: TupleList,
    right: TupleList,
    counters: Arc<OpCounters>,
}

impl NestedLoopsJoin {
    /// `predicate` is evaluated over `left.concat(right)`.
    pub fn new(left_schema: Schema, right_schema: Schema, predicate: Expr) -> NestedLoopsJoin {
        NestedLoopsJoin {
            predicate,
            rows: RowBuilder::concat(&left_schema, &right_schema),
            left_schema,
            right_schema,
            left: TupleList::new(),
            right: TupleList::new(),
            counters: OpCounters::new(),
        }
    }

    /// Build output rows with `rows` (residual check, emitted columns)
    /// instead of the full concatenation; `rows` is over `(left, right)`.
    pub fn with_rows(mut self, rows: RowBuilder) -> NestedLoopsJoin {
        self.rows = rows;
        self
    }

    /// Join one pair into `out` if the predicate holds; returns whether
    /// it matched (before the residual check).
    fn join(&self, l: &Tuple, r: &Tuple, out: &mut Batch) -> Result<bool> {
        let split = self.left_schema.arity();
        let col = |c: usize| {
            if c < split {
                l.values().get(c)
            } else {
                r.values().get(c - split)
            }
        };
        let matched = self.predicate.matches_with(&col)?;
        if matched {
            self.rows.push(l, r, out);
        }
        Ok(matched)
    }
}

impl IncOp for NestedLoopsJoin {
    fn name(&self) -> &str {
        "nested-loops-join"
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
        match port {
            0 => {
                for t in batch {
                    for r in self.right.iter() {
                        matched += self.join(t, r, out)? as u64;
                    }
                    self.counters.add_work(self.right.tuples().len() as u64);
                    self.left.insert(t.clone());
                }
            }
            1 => {
                for t in batch {
                    for l in self.left.iter() {
                        matched += self.join(l, t, out)? as u64;
                    }
                    self.counters.add_work(self.left.tuples().len() as u64);
                    self.right.insert(t.clone());
                }
            }
            p => return Err(Error::Exec(format!("nested loops join has no port {p}"))),
        }
        self.rows
            .count(&self.counters, matched, (out.len() - before) as u64);
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    fn extract_states(&mut self) -> Vec<ExtractedState> {
        let left = std::mem::take(&mut self.left);
        let right = std::mem::take(&mut self.right);
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
    use tukwila_relation::{CmpOp, DataType, Field, Value};

    fn schemas() -> (Schema, Schema) {
        (
            Schema::new(vec![Field::new("l.x", DataType::Int)]),
            Schema::new(vec![Field::new("r.y", DataType::Int)]),
        )
    }

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn band_join() {
        // |x - y| handled as x < y: a non-equi predicate hash joins can't do.
        let (ls, rs) = schemas();
        let pred = Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Col(1));
        let mut j = NestedLoopsJoin::new(ls, rs, pred);
        let mut out = Vec::new();
        j.push(0, &[t(1), t(5)], &mut out).unwrap();
        j.push(1, &[t(3)], &mut out).unwrap();
        assert_eq!(out.len(), 1); // only 1 < 3
        j.push(0, &[t(2)], &mut out).unwrap();
        assert_eq!(out.len(), 2); // 2 < 3 arrives late and still matches
    }

    #[test]
    fn equi_predicate_matches_hash_join() {
        use crate::join::pipelined_hash::PipelinedHashJoin;
        let (ls, rs) = schemas();
        let pred = Expr::eq(Expr::Col(0), Expr::Col(1));
        let mut nl = NestedLoopsJoin::new(ls.clone(), rs.clone(), pred);
        let mut ph = PipelinedHashJoin::new(ls, rs, 0, 0);
        let mut nout = Vec::new();
        let mut pout = Vec::new();
        let left: Vec<Tuple> = (0..30).map(|i| t(i % 7)).collect();
        let right: Vec<Tuple> = (0..20).map(|i| t(i % 5)).collect();
        nl.push(0, &left, &mut nout).unwrap();
        nl.push(1, &right, &mut nout).unwrap();
        ph.push(0, &left, &mut pout).unwrap();
        ph.push(1, &right, &mut pout).unwrap();
        assert_eq!(nout.len(), pout.len());
    }

    #[test]
    fn extracts_lists() {
        let (ls, rs) = schemas();
        let pred = Expr::eq(Expr::Col(0), Expr::Col(1));
        let mut j = NestedLoopsJoin::new(ls, rs, pred);
        let mut out = Vec::new();
        j.push(0, &[t(1)], &mut out).unwrap();
        j.push(1, &[t(1), t(2)], &mut out).unwrap();
        let st = j.extract_states();
        assert_eq!(st[0].structure.len(), 1);
        assert_eq!(st[1].structure.len(), 2);
    }
}
