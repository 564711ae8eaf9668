//! Hybrid hash join: build-then-probe iterator over hash-table state
//! (paper §3.1's "build-then-probe" iterator module).
//!
//! Port 0 is the build input, port 1 the probe input. Probe tuples arriving
//! before the build side finishes are buffered (the paper requires all
//! joins to buffer their leaves for ADP); once the build input signals EOF,
//! buffered and subsequent probe tuples stream through.

use std::sync::Arc;

use tukwila_relation::{Error, Result, Schema, Tuple};
use tukwila_stats::OpCounters;
use tukwila_storage::{StateStructure, TupleHashTable, TupleList};

use crate::join::RowBuilder;
use crate::op::{Batch, ExtractedState, IncOp};

/// Build-then-probe hash join.
pub struct HybridHashJoin {
    build_key: usize,
    probe_key: usize,
    build_schema: Schema,
    probe_schema: Schema,
    rows: RowBuilder,
    build: TupleHashTable,
    /// Probe tuples that arrived before the build completed.
    pending_probe: TupleList,
    /// Probe-side buffer kept for ADP stitch-up.
    probe_buffer: TupleHashTable,
    build_done: bool,
    counters: Arc<OpCounters>,
}

impl HybridHashJoin {
    /// A hybrid hash join building on port 0 and probing from port 1
    /// (probe tuples buffer until the build side closes).
    pub fn new(
        build_schema: Schema,
        probe_schema: Schema,
        build_key: usize,
        probe_key: usize,
    ) -> HybridHashJoin {
        HybridHashJoin {
            build_key,
            probe_key,
            build: TupleHashTable::new(build_key),
            pending_probe: TupleList::new(),
            probe_buffer: TupleHashTable::new(probe_key),
            rows: RowBuilder::concat(&build_schema, &probe_schema),
            build_schema,
            probe_schema,
            build_done: false,
            counters: OpCounters::new(),
        }
    }

    /// Build output rows with `rows` (residual check, emitted columns)
    /// instead of the full concatenation; `rows` is over `(build, probe)`.
    pub fn with_rows(mut self, rows: RowBuilder) -> HybridHashJoin {
        self.rows = rows;
        self
    }

    /// Probe with `t` and buffer it; returns the key matches found.
    fn probe_one(&mut self, t: &Tuple, out: &mut Batch) -> Result<u64> {
        let key = t.key(self.probe_key);
        let mut matched = 0;
        for m in self.build.probe(&key) {
            matched += 1;
            self.rows.push(m, t, out);
        }
        self.counters.add_work(1);
        self.probe_buffer.insert(t.clone())?;
        Ok(matched)
    }
}

impl IncOp for HybridHashJoin {
    fn name(&self) -> &str {
        "hybrid-hash-join"
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
                if self.build_done {
                    return Err(Error::Exec(
                        "hybrid hash join received build tuples after build EOF".into(),
                    ));
                }
                for t in batch {
                    self.build.insert(t.clone())?;
                    self.counters.add_work(1);
                }
            }
            1 => {
                if self.build_done {
                    for t in batch {
                        matched += self.probe_one(t, out)?;
                    }
                } else {
                    for t in batch {
                        self.pending_probe.insert(t.clone());
                    }
                }
            }
            p => return Err(Error::Exec(format!("hybrid hash join has no port {p}"))),
        }
        self.rows
            .count(&self.counters, matched, (out.len() - before) as u64);
        Ok(())
    }

    fn finish_input(&mut self, port: usize, out: &mut Batch) -> Result<()> {
        if port == 0 && !self.build_done {
            self.build_done = true;
            let pending = std::mem::take(&mut self.pending_probe);
            let before = out.len();
            let mut matched = 0;
            for t in pending.tuples() {
                matched += self.probe_one(t, out)?;
            }
            self.rows
                .count(&self.counters, matched, (out.len() - before) as u64);
        }
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    fn extract_states(&mut self) -> Vec<ExtractedState> {
        // Pending (unprobed) tuples belong in the probe buffer too.
        let pending = std::mem::take(&mut self.pending_probe);
        for t in pending.tuples() {
            let _ = self.probe_buffer.insert(t.clone());
        }
        let build = std::mem::replace(&mut self.build, TupleHashTable::new(self.build_key));
        let probe = std::mem::replace(&mut self.probe_buffer, TupleHashTable::new(self.probe_key));
        vec![
            ExtractedState {
                port: 0,
                schema: self.build_schema.clone(),
                structure: Arc::new(build) as Arc<dyn StateStructure>,
            },
            ExtractedState {
                port: 1,
                schema: self.probe_schema.clone(),
                structure: Arc::new(probe) as Arc<dyn StateStructure>,
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
            Schema::new(vec![Field::new("b.k", DataType::Int)]),
            Schema::new(vec![Field::new("p.k", DataType::Int)]),
        )
    }

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn blocks_until_build_eof() {
        let (bs, ps) = schemas();
        let mut j = HybridHashJoin::new(bs, ps, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(1), t(2)], &mut out).unwrap();
        j.push(1, &[t(1)], &mut out).unwrap();
        assert!(out.is_empty(), "probe buffered until build completes");
        j.finish_input(0, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        // Subsequent probes stream.
        j.push(1, &[t(2), t(3)], &mut out).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn build_after_eof_is_error() {
        let (bs, ps) = schemas();
        let mut j = HybridHashJoin::new(bs, ps, 0, 0);
        let mut out = Vec::new();
        j.finish_input(0, &mut out).unwrap();
        assert!(j.push(0, &[t(1)], &mut out).is_err());
    }

    #[test]
    fn extract_includes_pending_probe_tuples() {
        let (bs, ps) = schemas();
        let mut j = HybridHashJoin::new(bs, ps, 0, 0);
        let mut out = Vec::new();
        j.push(0, &[t(1)], &mut out).unwrap();
        j.push(1, &[t(1), t(5)], &mut out).unwrap();
        // Build never finished; seal mid-phase.
        let st = j.extract_states();
        assert_eq!(st[0].structure.len(), 1, "build side");
        assert_eq!(st[1].structure.len(), 2, "probe side incl. pending");
    }

    #[test]
    fn matches_pipelined_hash_join_results() {
        use crate::join::pipelined_hash::PipelinedHashJoin;
        let (bs, ps) = schemas();
        let mut hh = HybridHashJoin::new(bs.clone(), ps.clone(), 0, 0);
        let mut ph = PipelinedHashJoin::new(bs, ps, 0, 0);
        let build: Vec<Tuple> = (0..40).map(|i| t(i % 10)).collect();
        let probe: Vec<Tuple> = (0..30).map(|i| t(i % 15)).collect();
        let mut hout = Vec::new();
        let mut pout = Vec::new();
        hh.push(0, &build, &mut hout).unwrap();
        hh.push(1, &probe, &mut hout).unwrap();
        hh.finish_input(0, &mut hout).unwrap();
        ph.push(0, &build, &mut pout).unwrap();
        ph.push(1, &probe, &mut pout).unwrap();
        assert_eq!(hout.len(), pout.len());
    }
}
