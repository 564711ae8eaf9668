//! Adjustable-window pre-aggregation and the pseudogroup operator
//! (paper §3.2, §6).
//!
//! The operator buffers a window of `w` tuples, hash-aggregates the window
//! on (grouping ∪ join) attributes, and emits the partial aggregates —
//! pipelined, unlike a traditional blocking pre-aggregation. Because
//! aggregates distribute over union, the window size can change freely:
//! when a window coalesces well the window grows; when it doesn't, it
//! shrinks, bottoming out at `w = 1`, where the operator degenerates into
//! the *pseudogroup* operator — a per-tuple conversion to the
//! pre-aggregated schema that keeps all plans schema-compatible whether or
//! not pre-aggregation is effective.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use tukwila_relation::agg::AggState;
use tukwila_relation::value::{group_keys_rows, GroupKey};
use tukwila_relation::{Result, Schema, Tuple, Value};
use tukwila_stats::OpCounters;
use tukwila_storage::fx::FxHashMap;

use crate::agg::hash_agg::key_to_value;
use crate::agg::{AggSpec, GroupSpec};
use crate::op::{Batch, IncOp};

/// Window sizing policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// Fixed window. `Fixed(1)` is the pseudogroup operator.
    Fixed(usize),
    /// Adjustable: grow (×2) when `emitted/consumed <= grow_below`, shrink
    /// (÷2) when above `shrink_above`.
    Adaptive {
        /// Starting window size (tuples).
        initial: usize,
        /// Smallest window the policy will shrink to.
        min: usize,
        /// Largest window the policy will grow to.
        max: usize,
        /// Grow when the window's output/input ratio is at or below this.
        grow_below: f64,
        /// Shrink when the window's output/input ratio exceeds this.
        shrink_above: f64,
    },
}

impl WindowPolicy {
    /// The paper's defaults, scaled for our batch sizes.
    pub fn default_adaptive() -> WindowPolicy {
        WindowPolicy::Adaptive {
            initial: 256,
            min: 1,
            max: 65_536,
            grow_below: 0.75,
            shrink_above: 0.95,
        }
    }
}

/// Per-operator effectiveness statistics (drives Figure 6's analysis).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PreAggStats {
    /// Windows aggregated and emitted.
    pub windows: u64,
    /// Input tuples consumed.
    pub consumed: u64,
    /// Partial-aggregate tuples emitted.
    pub emitted: u64,
    /// Window size when the operator finished (or was observed).
    pub final_window: usize,
}

/// Adjustable-window pre-aggregation operator.
pub struct PreAggOp {
    spec: GroupSpec,
    out_schema: Schema,
    policy: WindowPolicy,
    w: usize,
    window: Vec<Tuple>,
    stats: PreAggStats,
    counters: Arc<OpCounters>,
}

impl PreAggOp {
    /// `spec.group_cols` must include any join attributes needed upstream
    /// (the paper's "partial groups include any join attributes, even if
    /// these are not part of the final groups").
    pub fn new(spec: GroupSpec, input_schema: &Schema, policy: WindowPolicy) -> PreAggOp {
        let out_schema = spec.output_schema(input_schema);
        let w = match policy {
            WindowPolicy::Fixed(w) => w.max(1),
            WindowPolicy::Adaptive { initial, .. } => initial.max(1),
        };
        PreAggOp {
            spec,
            out_schema,
            policy,
            w,
            window: Vec::new(),
            stats: PreAggStats::default(),
            counters: OpCounters::new(),
        }
    }

    /// The pseudogroup operator: per-tuple aggregate-schema conversion
    /// ("costs little more than a conventional projection", §3.2).
    pub fn pseudogroup(spec: GroupSpec, input_schema: &Schema) -> PreAggOp {
        PreAggOp::new(spec, input_schema, WindowPolicy::Fixed(1))
    }

    /// Effectiveness statistics, including the current window size.
    pub fn stats(&self) -> PreAggStats {
        let mut s = self.stats;
        s.final_window = self.w;
        s
    }

    /// The current window size (tuples).
    pub fn current_window(&self) -> usize {
        self.w
    }

    fn emit_window(&mut self, tuples: &[Tuple], out: &mut Batch) -> Result<()> {
        self.stats.windows += 1;
        self.stats.consumed += tuples.len() as u64;
        if tuples.len() == 1 || self.w == 1 {
            // Pseudogroup fast path: no hashing.
            for t in tuples {
                out.push(self.convert_singleton(t)?);
            }
            self.stats.emitted += tuples.len() as u64;
            self.adjust(tuples.len(), tuples.len());
            return Ok(());
        }
        // One pass per key column over the window (column-at-a-time type
        // dispatch) instead of a per-tuple group_key walk; group state is
        // dense (slot-indexed, one vector per aggregate), so a fresh
        // group never heap-allocates a state box.
        let keys = group_keys_rows(tuples, &self.spec.group_cols);
        let mut wg = WindowGroups::new(self.spec.aggs.len());
        let slots = wg.assign(keys, &self.spec.aggs);
        for (i, t) in tuples.iter().enumerate() {
            let slot = slots[i] as usize;
            for (st, a) in wg.states.iter_mut().zip(&self.spec.aggs) {
                st[slot].update(t.get(a.col))?;
            }
        }
        let emitted = wg.keys.len();
        wg.emit(out);
        self.stats.emitted += emitted as u64;
        self.adjust(tuples.len(), emitted);
        Ok(())
    }

    /// Convert one tuple to the pre-aggregated schema (pseudogroup).
    fn convert_singleton(&self, t: &Tuple) -> Result<Tuple> {
        let mut vals = Vec::with_capacity(self.spec.group_cols.len() + self.spec.aggs.len());
        for &c in &self.spec.group_cols {
            vals.push(t.get(c).clone());
        }
        for a in &self.spec.aggs {
            let mut s = AggState::new(a.func);
            s.update(t.get(a.col))?;
            vals.push(s.carried());
        }
        Ok(Tuple::new(vals))
    }

    fn stream_pseudogroup(&self) -> bool {
        self.w == 1 && self.window.is_empty() && matches!(self.policy, WindowPolicy::Fixed(_))
    }

    fn adjust(&mut self, consumed: usize, emitted: usize) {
        if let WindowPolicy::Adaptive {
            min,
            max,
            grow_below,
            shrink_above,
            ..
        } = self.policy
        {
            let ratio = emitted as f64 / consumed.max(1) as f64;
            if ratio <= grow_below {
                self.w = (self.w * 2).min(max);
            } else if ratio >= shrink_above {
                self.w = (self.w / 2).max(min);
            }
        }
    }
}

/// Dense per-window group state: a slot per first-seen key, accumulators
/// column-major (`states[agg][slot]`). Emission is in first-seen order.
struct WindowGroups {
    lookup: FxHashMap<GroupKey, u32>,
    keys: Vec<GroupKey>,
    states: Vec<Vec<AggState>>,
}

impl WindowGroups {
    fn new(naggs: usize) -> WindowGroups {
        WindowGroups {
            lookup: FxHashMap::default(),
            keys: Vec::new(),
            states: vec![Vec::new(); naggs],
        }
    }

    /// Map each key to its slot (allocating fresh groups in order).
    fn assign(&mut self, keys: Vec<GroupKey>, aggs: &[AggSpec]) -> Vec<u32> {
        let mut slots = Vec::with_capacity(keys.len());
        for key in keys {
            let slot = match self.lookup.entry(key) {
                Entry::Occupied(e) => *e.get(),
                Entry::Vacant(e) => {
                    let s = self.keys.len() as u32;
                    self.keys.push(e.key().clone());
                    for (st, a) in self.states.iter_mut().zip(aggs) {
                        st.push(AggState::new(a.func));
                    }
                    e.insert(s);
                    s
                }
            };
            slots.push(slot);
        }
        slots
    }

    /// Emit the window's partial aggregates (carried form).
    fn emit(self, out: &mut Batch) {
        for (slot, key) in self.keys.iter().enumerate() {
            let mut vals: Vec<Value> = key.iter().map(key_to_value).collect();
            for st in &self.states {
                vals.push(st[slot].carried());
            }
            out.push(Tuple::new(vals));
        }
    }
}

impl IncOp for PreAggOp {
    fn name(&self) -> &str {
        if matches!(self.policy, WindowPolicy::Fixed(1)) {
            "pseudogroup"
        } else {
            "preagg"
        }
    }

    fn inputs(&self) -> usize {
        1
    }

    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn push(&mut self, _port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        self.counters.add_in(batch.len() as u64);
        self.counters.add_work(batch.len() as u64);
        let before = out.len();
        if self.stream_pseudogroup() {
            // Pure pseudogroup: stream straight through.
            for t in batch {
                out.push(self.convert_singleton(t)?);
            }
            self.stats.windows += batch.len() as u64;
            self.stats.consumed += batch.len() as u64;
            self.stats.emitted += batch.len() as u64;
            self.counters.add_out((out.len() - before) as u64);
            return Ok(());
        }
        self.window.extend_from_slice(batch);
        while self.window.len() >= self.w {
            let take = self.w;
            let rest = self.window.split_off(take);
            let full = std::mem::replace(&mut self.window, rest);
            self.emit_window(&full, out)?;
        }
        self.counters.add_out((out.len() - before) as u64);
        Ok(())
    }

    fn finish(&mut self, out: &mut Batch) -> Result<()> {
        let before = out.len();
        if !self.window.is_empty() {
            let last = std::mem::take(&mut self.window);
            self.emit_window(&last, out)?;
        }
        self.counters.add_out((out.len() - before) as u64);
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use tukwila_relation::agg::AggFunc;
    use tukwila_relation::{DataType, Field, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("x", DataType::Int),
        ])
    }

    fn t(g: i64, x: i64) -> Tuple {
        Tuple::new(vec![Value::Int(g), Value::Int(x)])
    }

    fn spec() -> GroupSpec {
        GroupSpec::new(
            vec![0],
            vec![AggSpec {
                func: AggFunc::Max,
                col: 1,
            }],
        )
    }

    #[test]
    fn coalesces_repetitive_window() {
        let mut p = PreAggOp::new(spec(), &schema(), WindowPolicy::Fixed(4));
        let mut out = Vec::new();
        p.push(0, &[t(1, 1), t(1, 5), t(1, 3), t(2, 2)], &mut out)
            .unwrap();
        assert_eq!(out.len(), 2, "4 inputs -> 2 partial groups");
        let g1 = out
            .iter()
            .find(|r| r.get(0).as_int().unwrap() == 1)
            .unwrap();
        assert_eq!(g1.get(1).as_int().unwrap(), 5);
    }

    #[test]
    fn pseudogroup_passes_through_converted() {
        let mut p = PreAggOp::pseudogroup(spec(), &schema());
        assert_eq!(p.name(), "pseudogroup");
        let mut out = Vec::new();
        p.push(0, &[t(1, 1), t(1, 5)], &mut out).unwrap();
        assert_eq!(out.len(), 2, "no coalescing at w=1");
        assert_eq!(out[0].arity(), 2);
        assert_eq!(out[0].get(1).as_int().unwrap(), 1);
    }

    #[test]
    fn adaptive_window_grows_on_effective_data() {
        let policy = WindowPolicy::Adaptive {
            initial: 8,
            min: 1,
            max: 1024,
            grow_below: 0.75,
            shrink_above: 0.95,
        };
        let mut p = PreAggOp::new(spec(), &schema(), policy);
        let mut out = Vec::new();
        // All tuples in one group: maximal coalescing.
        let batch: Vec<Tuple> = (0..64).map(|i| t(7, i)).collect();
        p.push(0, &batch, &mut out).unwrap();
        assert!(
            p.current_window() > 8,
            "window grew: {}",
            p.current_window()
        );
    }

    #[test]
    fn adaptive_window_shrinks_on_unique_data() {
        let policy = WindowPolicy::Adaptive {
            initial: 64,
            min: 1,
            max: 1024,
            grow_below: 0.75,
            shrink_above: 0.95,
        };
        let mut p = PreAggOp::new(spec(), &schema(), policy);
        let mut out = Vec::new();
        let batch: Vec<Tuple> = (0..512).map(|i| t(i, i)).collect();
        p.push(0, &batch, &mut out).unwrap();
        assert!(
            p.current_window() < 64,
            "window shrank: {}",
            p.current_window()
        );
        assert_eq!(out.len(), 512, "unique data passes through entirely");
    }

    #[test]
    fn finish_flushes_partial_window() {
        let mut p = PreAggOp::new(spec(), &schema(), WindowPolicy::Fixed(100));
        let mut out = Vec::new();
        p.push(0, &[t(1, 1), t(1, 2)], &mut out).unwrap();
        assert!(out.is_empty());
        p.finish(&mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    /// Distributivity: final aggregation over pre-aggregated partials must
    /// equal direct aggregation, for any window size.
    #[test]
    fn preagg_then_final_equals_direct() {
        use crate::agg::hash_agg::HashAggOp;
        use tukwila_relation::agg::coalesce_func;

        let data: Vec<Tuple> = (0..200).map(|i| t(i % 13, (i * 7) % 101)).collect();

        // Direct.
        let mut direct = HashAggOp::new(spec(), &schema());
        let mut dout = Vec::new();
        direct.push(0, &data, &mut dout).unwrap();
        direct.finish(&mut dout).unwrap();

        for w in [1usize, 3, 16, 500] {
            let mut p = PreAggOp::new(spec(), &schema(), WindowPolicy::Fixed(w));
            let mut partials = Vec::new();
            for chunk in data.chunks(37) {
                p.push(0, chunk, &mut partials).unwrap();
            }
            p.finish(&mut partials).unwrap();
            // Final agg over partials: same group col, coalesced funcs.
            let final_spec = GroupSpec::new(
                vec![0],
                vec![AggSpec {
                    func: coalesce_func(AggFunc::Max),
                    col: 1,
                }],
            );
            let mut fin = HashAggOp::new(final_spec, p.schema());
            let mut fout = Vec::new();
            fin.push(0, &partials, &mut fout).unwrap();
            fin.finish(&mut fout).unwrap();
            let canon = |v: &Batch| {
                let mut s: Vec<String> = v.iter().map(|t| format!("{t:?}")).collect();
                s.sort();
                s
            };
            assert_eq!(canon(&fout), canon(&dout), "w={w}");
        }
    }
}
