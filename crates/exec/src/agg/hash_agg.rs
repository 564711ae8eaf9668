//! Conventional blocking hash aggregation (paper §3.1's "blocking iterator
//! that reads the entire input relation and builds the aggregate relation
//! in a hash table").

use std::collections::hash_map::Entry;
use std::sync::Arc;

use tukwila_relation::agg::AggState;
use tukwila_relation::value::GroupKey;
use tukwila_relation::{Key, Result, Schema, Tuple, Value};
use tukwila_stats::OpCounters;
use tukwila_storage::fx::FxHashMap;

use crate::agg::GroupSpec;
use crate::op::{Batch, IncOp};

/// Blocking hash aggregation: consumes everything, emits groups on finish.
///
/// Group state is *dense*: a hash lookup maps each group key to a slot,
/// and accumulators live in one contiguous vector per aggregate
/// (column-major), so a fresh group costs one push per aggregate, not a
/// heap-allocated state box. Groups emit in first-seen order.
pub struct HashAggOp {
    spec: GroupSpec,
    out_schema: Schema,
    /// Group key -> slot.
    lookup: FxHashMap<GroupKey, u32>,
    /// Group keys in first-seen (slot) order.
    keys: Vec<GroupKey>,
    /// Accumulators, column-major: `states[agg][slot]`.
    states: Vec<Vec<AggState>>,
    counters: Arc<OpCounters>,
}

impl HashAggOp {
    /// A blocking hash aggregation for `spec` over `input_schema`.
    pub fn new(spec: GroupSpec, input_schema: &Schema) -> HashAggOp {
        let out_schema = spec.output_schema(input_schema);
        let states = vec![Vec::new(); spec.aggs.len()];
        HashAggOp {
            spec,
            out_schema,
            lookup: FxHashMap::default(),
            keys: Vec::new(),
            states,
            counters: OpCounters::new(),
        }
    }

    /// Distinct groups accumulated so far.
    pub fn group_count(&self) -> usize {
        self.keys.len()
    }

    /// Slot for `key`, allocating accumulators for a fresh group.
    fn slot_for(&mut self, key: GroupKey) -> u32 {
        match self.lookup.entry(key) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let slot = self.keys.len() as u32;
                self.keys.push(e.key().clone());
                for (st, a) in self.states.iter_mut().zip(&self.spec.aggs) {
                    st.push(AggState::new(a.func));
                }
                e.insert(slot);
                slot
            }
        }
    }
}

/// Fold one tuple into a grouping hash map (shared by the blocking and the
/// shared group operators).
pub fn update_groups(
    groups: &mut FxHashMap<GroupKey, Vec<AggState>>,
    spec: &GroupSpec,
    t: &Tuple,
) -> Result<()> {
    let key = t.group_key(&spec.group_cols);
    let states = groups
        .entry(key)
        .or_insert_with(|| spec.aggs.iter().map(|a| AggState::new(a.func)).collect());
    for (s, a) in states.iter_mut().zip(&spec.aggs) {
        s.update(t.get(a.col))?;
    }
    Ok(())
}

/// Convert a finished group into an output tuple.
pub fn group_to_tuple(key: &GroupKey, states: &[AggState]) -> Tuple {
    let mut vals: Vec<Value> = key.iter().map(key_to_value).collect();
    for s in states {
        vals.push(s.finish());
    }
    Tuple::new(vals)
}

pub(crate) fn key_to_value(k: &Key) -> Value {
    match k {
        Key::Null => Value::Null,
        Key::Bool(b) => Value::Bool(*b),
        Key::Int(i) => Value::Int(*i),
        Key::Float(bits) => {
            // Reverse the total-order encoding.
            let raw = if bits >> 63 == 1 {
                bits & !(1 << 63)
            } else {
                !bits
            };
            Value::Float(f64::from_bits(raw))
        }
        Key::Date(d) => Value::Date(*d),
        Key::Str(s) => Value::Str(s.clone()),
    }
}

impl IncOp for HashAggOp {
    fn name(&self) -> &str {
        "hash-agg"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn schema(&self) -> &Schema {
        &self.out_schema
    }

    fn push(&mut self, _port: usize, batch: &[Tuple], _out: &mut Batch) -> Result<()> {
        self.counters.add_in(batch.len() as u64);
        self.counters.add_work(batch.len() as u64);
        for t in batch {
            let slot = self.slot_for(t.group_key(&self.spec.group_cols)) as usize;
            for (st, a) in self.states.iter_mut().zip(&self.spec.aggs) {
                st[slot].update(t.get(a.col))?;
            }
        }
        Ok(())
    }

    fn finish(&mut self, out: &mut Batch) -> Result<()> {
        let keys = std::mem::take(&mut self.keys);
        let states = std::mem::replace(&mut self.states, vec![Vec::new(); self.spec.aggs.len()]);
        self.lookup = FxHashMap::default();
        for (slot, key) in keys.iter().enumerate() {
            let mut vals: Vec<Value> = key.iter().map(key_to_value).collect();
            for st in &states {
                vals.push(st[slot].finish());
            }
            out.push(Tuple::new(vals));
        }
        self.counters.add_out(keys.len() as u64);
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
    use tukwila_relation::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("x", DataType::Int),
        ])
    }

    fn t(g: i64, x: i64) -> Tuple {
        Tuple::new(vec![Value::Int(g), Value::Int(x)])
    }

    #[test]
    fn groups_and_aggregates() {
        let spec = GroupSpec::new(
            vec![0],
            vec![
                AggSpec {
                    func: AggFunc::Max,
                    col: 1,
                },
                AggSpec {
                    func: AggFunc::Count,
                    col: 1,
                },
            ],
        );
        let mut agg = HashAggOp::new(spec, &schema());
        let mut out = Vec::new();
        agg.push(0, &[t(1, 5), t(2, 7), t(1, 9)], &mut out).unwrap();
        assert!(out.is_empty(), "blocking: nothing before finish");
        assert_eq!(agg.group_count(), 2);
        agg.finish(&mut out).unwrap();
        assert_eq!(out.len(), 2);
        let g1 = out
            .iter()
            .find(|t| t.get(0).as_int().unwrap() == 1)
            .unwrap();
        assert_eq!(g1.get(1).as_int().unwrap(), 9);
        assert_eq!(g1.get(2).as_int().unwrap(), 2);
    }

    #[test]
    fn empty_input_emits_nothing() {
        let spec = GroupSpec::new(vec![0], vec![]);
        let mut agg = HashAggOp::new(spec, &schema());
        let mut out = Vec::new();
        agg.finish(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn float_group_keys_roundtrip() {
        for f in [-7.5f64, 0.0, 3.25, f64::INFINITY] {
            let k = Value::Float(f).to_key();
            assert_eq!(key_to_value(&k), Value::Float(f));
        }
        assert_eq!(key_to_value(&Value::str("s").to_key()), Value::str("s"));
        assert_eq!(key_to_value(&Value::Null.to_key()), Value::Null);
        assert_eq!(key_to_value(&Value::Bool(true).to_key()), Value::Bool(true));
        assert_eq!(key_to_value(&Value::Date(3).to_key()), Value::Date(3));
    }
}
