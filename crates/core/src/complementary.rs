//! The complementary join pair (paper §5, Figure 4): a merge join and a
//! pipelined hash join sharing memory, with a per-input router that sends
//! order-conforming tuples to the merge join and violators to the hash
//! join. At end of input, a mini-stitch-up joins the hash join's R table
//! with the merge join's S table and vice versa (merge×merge and hash×hash
//! are already complete, so they are excluded).

use std::sync::Arc;

use tukwila_exec::join::{MergeJoin, PipelinedHashJoin, RowBuilder};
use tukwila_exec::op::{Batch, ExtractedState, IncOp};
use tukwila_exec::split::{OrderRouter, PriorityQueueRouter, Router};
use tukwila_relation::{Error, Result, Schema, Tuple};
use tukwila_stats::OpCounters;

/// Router flavor for each input (Figure 5's "complementary joins" vs
/// "comp. joins with priority queue").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Route on order conformance alone.
    Naive,
    /// Re-sort recently arrived tuples in a bounded priority queue before
    /// routing (the paper holds up to 1024 tuples).
    PriorityQueue(usize),
}

impl RouterKind {
    fn build(self, key_col: usize) -> Box<dyn Router> {
        match self {
            RouterKind::Naive => Box::new(OrderRouter::new(key_col)),
            RouterKind::PriorityQueue(cap) => Box::new(PriorityQueueRouter::new(key_col, cap)),
        }
    }
}

/// Processing distribution counters (Table 3).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ComplementaryStats {
    /// Input tuples routed to the pipelined hash join.
    pub hash_tuples: u64,
    /// Input tuples routed to the merge join.
    pub merge_tuples: u64,
    /// Output tuples produced by the mini-stitch-up.
    pub stitch_tuples: u64,
}

/// The complementary join pair operator.
pub struct ComplementaryJoinPair {
    merge: MergeJoin,
    hash: PipelinedHashJoin,
    routers: [Box<dyn Router>; 2],
    rows: RowBuilder,
    stats: ComplementaryStats,
    counters: Arc<OpCounters>,
    finished: bool,
}

impl ComplementaryJoinPair {
    pub fn new(
        left_schema: Schema,
        right_schema: Schema,
        left_key: usize,
        right_key: usize,
        router: RouterKind,
    ) -> ComplementaryJoinPair {
        let rows = RowBuilder::concat(&left_schema, &right_schema);
        ComplementaryJoinPair {
            merge: MergeJoin::new(
                left_schema.clone(),
                right_schema.clone(),
                left_key,
                right_key,
            ),
            hash: PipelinedHashJoin::new(left_schema, right_schema, left_key, right_key),
            routers: [router.build(left_key), router.build(right_key)],
            rows,
            stats: ComplementaryStats::default(),
            counters: OpCounters::new(),
            finished: false,
        }
    }

    /// Build output rows with `rows` (residual check, emitted columns)
    /// instead of the full concatenation — in both joins and the
    /// mini-stitch-up; `rows` is over `(left, right)`.
    pub fn with_rows(mut self, rows: RowBuilder) -> ComplementaryJoinPair {
        self.merge = self.merge.with_rows(rows.clone());
        self.hash = self.hash.with_rows(rows.clone());
        self.rows = rows;
        self
    }

    pub fn stats(&self) -> ComplementaryStats {
        self.stats
    }

    /// Key matches found so far by the two joins.
    fn inner_matches(&self) -> u64 {
        self.merge.counters().matches() + self.hash.counters().matches()
    }

    /// Route a batch, preserving arrival order within each destination,
    /// and push each destination's run as one slice (per-tuple pushes are
    /// measurably slower than the joins themselves).
    fn route_batch(&mut self, port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        let mut to_merge: Batch = Vec::new();
        let mut to_hash: Batch = Vec::new();
        for t in batch {
            match self.routers[port].offer(t.clone()) {
                None => {} // buffered in the router's priority queue
                Some((0, released)) => to_merge.push(released),
                Some((_, released)) => to_hash.push(released),
            }
        }
        self.dispatch(port, to_merge, to_hash, out)
    }

    fn dispatch(
        &mut self,
        port: usize,
        to_merge: Batch,
        to_hash: Batch,
        out: &mut Batch,
    ) -> Result<()> {
        self.stats.merge_tuples += to_merge.len() as u64;
        self.stats.hash_tuples += to_hash.len() as u64;
        if !to_merge.is_empty() {
            self.merge.push(port, &to_merge, out)?;
        }
        if !to_hash.is_empty() {
            self.hash.push(port, &to_hash, out)?;
        }
        Ok(())
    }

    /// Drain a router's buffered tuples (priority queue) into the joins.
    fn drain_router(&mut self, port: usize, out: &mut Batch) -> Result<()> {
        let drained = self.routers[port].drain();
        let mut to_merge: Batch = Vec::new();
        let mut to_hash: Batch = Vec::new();
        for (dest, t) in drained {
            if dest == 0 {
                to_merge.push(t);
            } else {
                to_hash.push(t);
            }
        }
        self.dispatch(port, to_merge, to_hash, out)
    }
}

impl IncOp for ComplementaryJoinPair {
    fn name(&self) -> &str {
        "complementary-join-pair"
    }

    fn inputs(&self) -> usize {
        2
    }

    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn push(&mut self, port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        if port > 1 {
            return Err(Error::Exec(format!(
                "complementary join pair has no port {port}"
            )));
        }
        self.counters.add_in(batch.len() as u64);
        let (before, matched) = (out.len(), self.inner_matches());
        self.route_batch(port, batch, out)?;
        self.counters.add_out((out.len() - before) as u64);
        self.counters.add_matches(self.inner_matches() - matched);
        Ok(())
    }

    fn finish_input(&mut self, port: usize, out: &mut Batch) -> Result<()> {
        let (before, matched) = (out.len(), self.inner_matches());
        self.drain_router(port, out)?;
        self.merge.finish_input(port, out)?;
        self.counters.add_out((out.len() - before) as u64);
        self.counters.add_matches(self.inner_matches() - matched);
        Ok(())
    }

    /// Mini-stitch-up: hash-side R ⋈ merge-side S and merge-side R ⋈
    /// hash-side S. (merge×merge was emitted by the merge join, hash×hash
    /// by the pipelined hash join.)
    fn finish(&mut self, out: &mut Batch) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        let before = out.len();
        let hash_states = self.hash.extract_states();
        let merge_states = self.merge.extract_states();
        let (h_r, h_s) = (&hash_states[0].structure, &hash_states[1].structure);
        let (m_r, m_s) = (&merge_states[0].structure, &merge_states[1].structure);
        let h_r_key = h_r.props().keyed_on.unwrap_or(0);
        let m_r_key = m_r.props().keyed_on.unwrap_or(0);

        let mut matches = Vec::new();
        let mut matched = 0;
        // hash R ⋈ merge S.
        for t in h_r.scan() {
            matches.clear();
            m_s.probe_into(&t.key(h_r_key), &mut matches);
            for m in &matches {
                self.rows.push(&t, m, out);
            }
            matched += matches.len() as u64;
        }
        // merge R ⋈ hash S.
        for t in m_r.scan() {
            matches.clear();
            h_s.probe_into(&t.key(m_r_key), &mut matches);
            for m in &matches {
                self.rows.push(&t, m, out);
            }
            matched += matches.len() as u64;
        }
        self.stats.stitch_tuples += (out.len() - before) as u64;
        self.rows
            .count(&self.counters, matched, (out.len() - before) as u64);
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }

    fn extract_states(&mut self) -> Vec<ExtractedState> {
        // Expose all four tables (two per side); callers see two entries
        // per port.
        let mut v = self.hash.extract_states();
        v.extend(self.merge.extract_states());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_exec::reference::canonicalize;
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

    fn run_pair(
        left: &[Tuple],
        right: &[Tuple],
        router: RouterKind,
    ) -> (Batch, ComplementaryStats) {
        let (ls, rs) = schemas();
        run_pair_with(left, right, router, RowBuilder::concat(&ls, &rs))
    }

    fn run_pair_with(
        left: &[Tuple],
        right: &[Tuple],
        router: RouterKind,
        rows: RowBuilder,
    ) -> (Batch, ComplementaryStats) {
        let (ls, rs) = schemas();
        let mut j = ComplementaryJoinPair::new(ls, rs, 0, 0, router).with_rows(rows);
        let mut out = Vec::new();
        for chunk in left.chunks(16) {
            j.push(0, chunk, &mut out).unwrap();
        }
        for chunk in right.chunks(16) {
            j.push(1, chunk, &mut out).unwrap();
        }
        j.finish_input(0, &mut out).unwrap();
        j.finish_input(1, &mut out).unwrap();
        j.finish(&mut out).unwrap();
        (out, j.stats())
    }

    fn reference(left: &[Tuple], right: &[Tuple]) -> Batch {
        let (ls, rs) = schemas();
        let mut j = PipelinedHashJoin::new(ls, rs, 0, 0);
        let mut out = Vec::new();
        j.push(0, left, &mut out).unwrap();
        j.push(1, right, &mut out).unwrap();
        out
    }

    #[test]
    fn sorted_inputs_go_entirely_to_merge() {
        let left: Vec<Tuple> = (0..200).map(|i| t(i / 2, i)).collect();
        let right: Vec<Tuple> = (0..100).map(|i| t(i, 1000 + i)).collect();
        let (out, stats) = run_pair(&left, &right, RouterKind::Naive);
        assert_eq!(stats.hash_tuples, 0);
        assert_eq!(stats.merge_tuples, 300);
        assert_eq!(stats.stitch_tuples, 0);
        assert_eq!(canonicalize(&out), canonicalize(&reference(&left, &right)));
    }

    #[test]
    fn mostly_sorted_inputs_still_complete() {
        let mut left: Vec<Tuple> = (0..400).map(|i| t(i / 2, i)).collect();
        let mut right: Vec<Tuple> = (0..200).map(|i| t(i, 1000 + i)).collect();
        tukwila_datagen::perturb::reorder_fraction(&mut left, 0.05, 7);
        tukwila_datagen::perturb::reorder_fraction(&mut right, 0.05, 8);
        for router in [RouterKind::Naive, RouterKind::PriorityQueue(64)] {
            let (out, stats) = run_pair(&left, &right, router);
            assert_eq!(
                canonicalize(&out),
                canonicalize(&reference(&left, &right)),
                "router {router:?}"
            );
            assert!(stats.hash_tuples + stats.merge_tuples == 600);
            // Narrowed rows: the merge join, the hash join and the
            // mini-stitch-up all build through the one row builder.
            let (ls, rs) = schemas();
            let narrow = RowBuilder::new(&ls, &rs, vec![], vec![0, 3]).unwrap();
            let (out, stats) = run_pair_with(&left, &right, router, narrow);
            let want: Batch = reference(&left, &right)
                .iter()
                .map(|r| r.project(&[0, 3]))
                .collect();
            assert_eq!(canonicalize(&out), canonicalize(&want), "router {router:?}");
            assert!(stats.hash_tuples > 0 && stats.stitch_tuples > 0);
        }
    }

    #[test]
    fn priority_queue_routes_more_to_merge_than_naive() {
        let mut left: Vec<Tuple> = (0..2000).map(|i| t(i, i)).collect();
        let mut right: Vec<Tuple> = (0..2000).map(|i| t(i, 1000 + i)).collect();
        tukwila_datagen::perturb::reorder_fraction(&mut left, 0.01, 3);
        tukwila_datagen::perturb::reorder_fraction(&mut right, 0.01, 4);
        let (_, naive) = run_pair(&left, &right, RouterKind::Naive);
        let (_, pq) = run_pair(&left, &right, RouterKind::PriorityQueue(1024));
        assert!(
            pq.merge_tuples > naive.merge_tuples,
            "pq merge {} vs naive merge {}",
            pq.merge_tuples,
            naive.merge_tuples
        );
    }

    #[test]
    fn fully_random_inputs_still_complete() {
        let mut left: Vec<Tuple> = (0..500).map(|i| t(i % 50, i)).collect();
        let mut right: Vec<Tuple> = (0..300).map(|i| t(i % 50, 9000 + i)).collect();
        tukwila_datagen::perturb::reorder_fraction(&mut left, 0.5, 11);
        tukwila_datagen::perturb::reorder_fraction(&mut right, 0.5, 12);
        let (out, _) = run_pair(&left, &right, RouterKind::PriorityQueue(128));
        assert_eq!(canonicalize(&out), canonicalize(&reference(&left, &right)));
    }

    #[test]
    fn finish_is_idempotent() {
        let left = vec![t(1, 0), t(0, 0)];
        let right = vec![t(0, 9), t(1, 9)];
        let (ls, rs) = schemas();
        let mut j = ComplementaryJoinPair::new(ls, rs, 0, 0, RouterKind::Naive);
        let mut out = Vec::new();
        j.push(0, &left, &mut out).unwrap();
        j.push(1, &right, &mut out).unwrap();
        j.finish_input(0, &mut out).unwrap();
        j.finish_input(1, &mut out).unwrap();
        j.finish(&mut out).unwrap();
        let n = out.len();
        j.finish(&mut out).unwrap();
        assert_eq!(out.len(), n);
        assert_eq!(n, 2, "both pairs found across merge/hash split");
    }
}
