//! Streaming merge join over sorted inputs (paper §5).
//!
//! "Slightly more efficient than a pipelined hash join" on sorted data: no
//! hash maintenance, just an advancing frontier. Inputs *must* arrive in
//! ascending key order (the complementary-join router guarantees this);
//! consumed tuples are buffered in sorted lists so the structure remains
//! available for stitch-up and mini-stitch-up.

use std::cmp::Ordering;
use std::sync::Arc;

use tukwila_relation::{Error, Result, Schema, SortKey, Tuple};
use tukwila_stats::OpCounters;
use tukwila_storage::{SortedList, StateStructure};

use crate::join::RowBuilder;
use crate::op::{Batch, ExtractedState, IncOp};

/// Merge join on single ascending equi-join columns.
pub struct MergeJoin {
    left_key: usize,
    right_key: usize,
    left_schema: Schema,
    right_schema: Schema,
    rows: RowBuilder,
    left: SortedList,
    right: SortedList,
    /// Next unjoined index per side.
    li: usize,
    ri: usize,
    left_eof: bool,
    right_eof: bool,
    counters: Arc<OpCounters>,
}

impl MergeJoin {
    /// A merge join over inputs sorted ascending on their key columns.
    pub fn new(
        left_schema: Schema,
        right_schema: Schema,
        left_key: usize,
        right_key: usize,
    ) -> MergeJoin {
        MergeJoin {
            left_key,
            right_key,
            left: SortedList::new(vec![SortKey::asc(left_key)]),
            right: SortedList::new(vec![SortKey::asc(right_key)]),
            rows: RowBuilder::concat(&left_schema, &right_schema),
            left_schema,
            right_schema,
            li: 0,
            ri: 0,
            left_eof: false,
            right_eof: false,
            counters: OpCounters::new(),
        }
    }

    /// Build output rows with `rows` (residual check, emitted columns)
    /// instead of the full concatenation; `rows` is over `(left, right)`.
    pub fn with_rows(mut self, rows: RowBuilder) -> MergeJoin {
        self.rows = rows;
        self
    }

    /// Emit all joins whose key groups are complete on both sides.
    ///
    /// A key group on a sorted stream is complete once a strictly greater
    /// key has arrived (or the stream ended); only then can its cross
    /// product be emitted without missing later duplicates.
    fn try_emit(&mut self, out: &mut Batch) -> Result<()> {
        loop {
            let lt = self.left.tuples();
            let rt = self.right.tuples();
            if self.li >= lt.len() || self.ri >= rt.len() {
                return Ok(());
            }
            let lk = lt[self.li].key(self.left_key);
            let rk = rt[self.ri].key(self.right_key);
            match lk.cmp(&rk) {
                Ordering::Less => {
                    // Right side is already past lk; no future right tuple
                    // can equal lk (sorted). Skip.
                    self.li += 1;
                    self.counters.add_work(1);
                }
                Ordering::Greater => {
                    self.ri += 1;
                    self.counters.add_work(1);
                }
                Ordering::Equal => {
                    // Find group extents.
                    let l_end = lt[self.li..]
                        .iter()
                        .position(|t| t.key(self.left_key) != lk)
                        .map(|p| self.li + p);
                    let r_end = rt[self.ri..]
                        .iter()
                        .position(|t| t.key(self.right_key) != rk)
                        .map(|p| self.ri + p);
                    let l_closed = l_end.is_some() || self.left_eof;
                    let r_closed = r_end.is_some() || self.right_eof;
                    if !(l_closed && r_closed) {
                        // The group may still grow; wait for more input.
                        return Ok(());
                    }
                    let le = l_end.unwrap_or(lt.len());
                    let re = r_end.unwrap_or(rt.len());
                    let before = out.len();
                    for a in &lt[self.li..le] {
                        for b in &rt[self.ri..re] {
                            self.rows.push(a, b, out);
                        }
                    }
                    let matched = ((le - self.li) * (re - self.ri)) as u64;
                    self.rows
                        .count(&self.counters, matched, (out.len() - before) as u64);
                    self.counters
                        .add_work(((le - self.li) + (re - self.ri)) as u64);
                    self.li = le;
                    self.ri = re;
                }
            }
        }
    }
}

impl IncOp for MergeJoin {
    fn name(&self) -> &str {
        "merge-join"
    }

    fn inputs(&self) -> usize {
        2
    }

    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn push(&mut self, port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        self.counters.add_in(batch.len() as u64);
        match port {
            0 => {
                for t in batch {
                    self.left.insert(t.clone());
                }
            }
            1 => {
                for t in batch {
                    self.right.insert(t.clone());
                }
            }
            p => return Err(Error::Exec(format!("merge join has no port {p}"))),
        }
        self.try_emit(out)
    }

    fn finish_input(&mut self, port: usize, out: &mut Batch) -> Result<()> {
        match port {
            0 => self.left_eof = true,
            1 => self.right_eof = true,
            p => return Err(Error::Exec(format!("merge join has no port {p}"))),
        }
        self.try_emit(out)
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    fn extract_states(&mut self) -> Vec<ExtractedState> {
        let left = std::mem::replace(
            &mut self.left,
            SortedList::new(vec![SortKey::asc(self.left_key)]),
        );
        let right = std::mem::replace(
            &mut self.right,
            SortedList::new(vec![SortKey::asc(self.right_key)]),
        );
        self.li = 0;
        self.ri = 0;
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

    fn finish_both(j: &mut MergeJoin, out: &mut Batch) {
        j.finish_input(0, out).unwrap();
        j.finish_input(1, out).unwrap();
    }

    #[test]
    fn basic_sorted_join() {
        let (ls, rs) = schemas();
        let mut j = MergeJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(1, 0), t(2, 0), t(4, 0)], &mut out).unwrap();
        j.push(1, &[t(2, 9), t(3, 9), t(4, 9)], &mut out).unwrap();
        finish_both(&mut j, &mut out);
        let keys: Vec<i64> = out.iter().map(|x| x.get(0).as_int().unwrap()).collect();
        assert_eq!(keys, vec![2, 4]);
    }

    #[test]
    fn duplicate_groups_cross_product() {
        let (ls, rs) = schemas();
        let mut j = MergeJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(5, 1), t(5, 2)], &mut out).unwrap();
        j.push(1, &[t(5, 3), t(5, 4), t(5, 5)], &mut out).unwrap();
        // Group not closed yet: nothing emitted.
        assert!(out.is_empty());
        // A greater key closes the left group; right still open.
        j.push(0, &[t(6, 0)], &mut out).unwrap();
        assert!(out.is_empty());
        j.push(1, &[t(7, 0)], &mut out).unwrap();
        assert_eq!(out.len(), 6, "2 x 3 cross product");
        finish_both(&mut j, &mut out);
        assert_eq!(out.len(), 6, "6-7 don't match");
    }

    #[test]
    fn eof_closes_trailing_groups() {
        let (ls, rs) = schemas();
        let mut j = MergeJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(9, 1)], &mut out).unwrap();
        j.push(1, &[t(9, 2)], &mut out).unwrap();
        assert!(out.is_empty());
        finish_both(&mut j, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn interleaved_batches_match_hash_join() {
        use crate::join::pipelined_hash::PipelinedHashJoin;
        let (ls, rs) = schemas();
        let mut mj = MergeJoin::new(ls.clone(), rs.clone(), 0, 0);
        let mut hj = PipelinedHashJoin::new(ls, rs, 0, 0);
        let left: Vec<Tuple> = (0..100).map(|i| t(i / 2, i)).collect();
        let right: Vec<Tuple> = (0..60).map(|i| t(i / 3, 1000 + i)).collect();
        let mut mout = Vec::new();
        let mut hout = Vec::new();
        for chunk in left.chunks(7) {
            mj.push(0, chunk, &mut mout).unwrap();
            hj.push(0, chunk, &mut hout).unwrap();
        }
        for chunk in right.chunks(11) {
            mj.push(1, chunk, &mut mout).unwrap();
            hj.push(1, chunk, &mut hout).unwrap();
        }
        finish_both(&mut mj, &mut mout);
        let canon = |v: &Batch| {
            let mut s: Vec<String> = v.iter().map(|t| format!("{t:?}")).collect();
            s.sort();
            s
        };
        assert_eq!(canon(&mout), canon(&hout));
        assert!(!mout.is_empty());
    }

    #[test]
    fn extract_states_are_sorted_lists() {
        let (ls, rs) = schemas();
        let mut j = MergeJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(1, 0), t(2, 0)], &mut out).unwrap();
        let st = j.extract_states();
        assert_eq!(st.len(), 2);
        assert_eq!(st[0].structure.len(), 2);
        assert_eq!(st[0].structure.props().keyed_on, Some(0));
    }
}
