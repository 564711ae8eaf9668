//! Immutable, cheaply clonable tuples and the tuple adapters of paper §3.2.

use std::fmt;
use std::sync::Arc;

use crate::value::{group_key, GroupKey, Key, Value};

/// Bytes a value costs on the wire in the source delay models, before any
/// string payload. Fixed, so the modelled arrival times do not move with
/// the in-memory representation (a `Value` was 24 bytes when it was
/// chosen and is 16 now).
const WIRE_BYTES_PER_VALUE: usize = 24;

/// An immutable row. Cloning is a reference-count bump; joins concatenate by
/// building a fresh value vector whose string payloads are shared.
#[derive(Clone, PartialEq)]
pub struct Tuple {
    vals: Arc<[Value]>,
}

impl Tuple {
    pub fn new(vals: Vec<Value>) -> Tuple {
        Tuple { vals: vals.into() }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.vals.len()
    }

    /// Attribute accessor. Panics on out-of-range (schemas are validated at
    /// plan time, so an out-of-range access is an engine bug).
    pub fn get(&self, i: usize) -> &Value {
        &self.vals[i]
    }

    pub fn values(&self) -> &[Value] {
        &self.vals
    }

    /// Concatenate two tuples (join output).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.vals.iter().chain(other.vals.iter()).cloned().collect()
    }

    /// Project to the given columns (in the given order).
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple::new(cols.iter().map(|&c| self.vals[c].clone()).collect())
    }

    /// Single-column key extraction (join keys).
    pub fn key(&self, col: usize) -> Key {
        self.vals[col].to_key()
    }

    /// Multi-column key extraction (grouping keys).
    pub fn group_key(&self, cols: &[usize]) -> GroupKey {
        group_key(&self.vals, cols)
    }

    /// The row's size on the wire in the source bandwidth models:
    /// 24 bytes per value plus the bytes of its strings.
    /// Not the in-memory footprint.
    pub fn approx_bytes(&self) -> usize {
        self.vals.iter().map(value_wire_bytes).sum()
    }

    /// [`Tuple::approx_bytes`] over the columns `cols` only: the wire size
    /// of the row when a source ships just those columns. Each column
    /// counts once per mention, so pass distinct columns.
    pub fn wire_bytes(&self, cols: &[usize]) -> usize {
        cols.iter().map(|&c| value_wire_bytes(&self.vals[c])).sum()
    }
}

/// One value's wire size: [`WIRE_BYTES_PER_VALUE`] plus a string's bytes.
fn value_wire_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => WIRE_BYTES_PER_VALUE + s.len(),
        _ => WIRE_BYTES_PER_VALUE,
    }
}

/// Collects straight into the row's `Arc<[Value]>`: one allocation when
/// the iterator knows its exact length (slices, ranges, and chains or maps
/// of them).
impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Tuple {
        Tuple {
            vals: iter.into_iter().collect(),
        }
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.vals.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Permutes attributes between two physical layouts of the same logical
/// schema (paper §3.2).
///
/// The physical schema produced by `(A ⋈ (B ⋈ C))` differs from
/// `(B ⋈ (C ⋈ A))` only in attribute order; an adapter lets a state
/// structure built by one plan be probed by another plan without copying
/// the stored tuples eagerly — the permutation is applied as tuples are
/// read out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleAdapter {
    /// `mapping[i]` = index in the *source* layout of the attribute that
    /// belongs at position `i` of the *target* layout.
    mapping: Vec<usize>,
}

impl TupleAdapter {
    /// Identity adapter of the given arity.
    pub fn identity(arity: usize) -> TupleAdapter {
        TupleAdapter {
            mapping: (0..arity).collect(),
        }
    }

    /// Build from an explicit mapping; `mapping[i]` is the source position
    /// of target attribute `i`.
    pub fn new(mapping: Vec<usize>) -> TupleAdapter {
        TupleAdapter { mapping }
    }

    /// Whether adapting is a no-op.
    pub fn is_identity(&self) -> bool {
        self.mapping.iter().enumerate().all(|(i, &m)| i == m)
    }

    pub fn mapping(&self) -> &[usize] {
        &self.mapping
    }

    /// Apply the permutation.
    pub fn adapt(&self, t: &Tuple) -> Tuple {
        if self.is_identity() {
            return t.clone();
        }
        t.project(&self.mapping)
    }

    /// Compose: apply `self` after `first`.
    pub fn compose(&self, first: &TupleAdapter) -> TupleAdapter {
        TupleAdapter {
            mapping: self.mapping.iter().map(|&m| first.mapping[m]).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn concat_preserves_order() {
        let a = t(&[1, 2]);
        let b = t(&[3]);
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2).as_int().unwrap(), 3);
    }

    #[test]
    fn project_reorders() {
        let a = t(&[10, 20, 30]);
        let p = a.project(&[2, 0]);
        assert_eq!(p.values().len(), 2);
        assert_eq!(p.get(0).as_int().unwrap(), 30);
        assert_eq!(p.get(1).as_int().unwrap(), 10);
    }

    #[test]
    fn adapter_identity_is_noop() {
        let a = TupleAdapter::identity(3);
        assert!(a.is_identity());
        let x = t(&[1, 2, 3]);
        assert_eq!(a.adapt(&x), x);
    }

    #[test]
    fn adapter_permutes() {
        // Target layout wants source columns [2,0,1].
        let a = TupleAdapter::new(vec![2, 0, 1]);
        let x = t(&[10, 20, 30]);
        let y = a.adapt(&x);
        assert_eq!(
            y.values()
                .iter()
                .map(|v| v.as_int().unwrap())
                .collect::<Vec<_>>(),
            vec![30, 10, 20]
        );
    }

    #[test]
    fn adapter_compose_matches_sequential_application() {
        let first = TupleAdapter::new(vec![1, 2, 0]);
        let second = TupleAdapter::new(vec![2, 1, 0]);
        let composed = second.compose(&first);
        let x = t(&[10, 20, 30]);
        assert_eq!(composed.adapt(&x), second.adapt(&first.adapt(&x)));
    }

    #[test]
    fn approx_bytes_counts_strings() {
        let short = Tuple::new(vec![Value::Int(1)]);
        let long = Tuple::new(vec![Value::str("hello world, a longer payload")]);
        assert!(long.approx_bytes() > short.approx_bytes());
    }

    /// The delay model's wire size is pinned, whatever a `Value` occupies
    /// in memory: moving it would move every modelled arrival time.
    #[test]
    fn approx_bytes_is_the_fixed_wire_size() {
        // A lineitem-shaped row: ten values, one a one-byte flag.
        let mut vals: Vec<Value> = (0..9).map(Value::Int).collect();
        vals.insert(7, Value::str("R"));
        let row = Tuple::new(vals);
        assert_eq!(row.approx_bytes(), 241);
        assert_eq!(row.wire_bytes(&(0..10).collect::<Vec<_>>()), 241);
        // A federated lineitem ships its key (columns 0 and 1) with what
        // the query reads: Q10/Q10A also read the flag and column 9, Q3A
        // column 9 alone.
        assert_eq!(row.wire_bytes(&[0, 1, 7, 9]), 97);
        assert_eq!(row.wire_bytes(&[0, 1, 9]), 72);
        assert_eq!(row.wire_bytes(&[]), 0);
        // Strings count bytes, not chars: "naïve" is 6 bytes, "日本" 6.
        let utf8 = Tuple::new(vec![Value::str("naïve"), Value::Null, Value::str("日本")]);
        assert_eq!(utf8.approx_bytes(), 3 * 24 + 12);
    }

    #[test]
    fn clone_is_shallow() {
        let a = t(&[1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.vals, &b.vals));
    }
}
