//! Dynamically typed attribute values and hashable key forms.

use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};
use crate::text::Text;
use crate::tuple::Tuple;

/// The data types the engine understands. Data-integration sources in the
/// paper expose relational data with simple scalar attributes; we support
/// the same set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    /// Days since an arbitrary epoch; kept distinct from `Int` so date
    /// predicates read naturally in query definitions.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
        };
        f.write_str(s)
    }
}

/// A single attribute value, 16 bytes.
///
/// Strings are reference counted ([`Text`], one pointer wide) so tuple
/// cloning and concatenation (which every join performs) never copies
/// string payloads — the Rust analogue of the paper's "vectors of pointers
/// to attribute value containers".
#[derive(Debug, Clone, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Text),
    Date(i32),
}

impl Value {
    /// Create a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(Text::new(s))
    }

    /// The value's data type; `None` for `Null`.
    pub fn dtype(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Integer view; dates coerce to their day number.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Date(v) => Ok(*v as i64),
            other => Err(Error::Type(format!("expected int, got {other}"))),
        }
    }

    /// Numeric view; ints and dates widen to `f64`.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::Int(v) => Ok(*v as f64),
            Value::Date(v) => Ok(*v as f64),
            other => Err(Error::Type(format!("expected numeric, got {other}"))),
        }
    }

    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(Error::Type(format!("expected bool, got {other}"))),
        }
    }

    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(Error::Type(format!("expected str, got {other}"))),
        }
    }

    /// Convert to a hashable/orderable [`Key`]. All values convert; floats
    /// use a total-order bit encoding.
    pub fn to_key(&self) -> Key {
        match self {
            Value::Null => Key::Null,
            Value::Bool(b) => Key::Bool(*b),
            Value::Int(v) => Key::Int(*v),
            Value::Float(v) => Key::Float(total_order_bits(*v)),
            Value::Str(s) => Key::Str(s.clone()),
            Value::Date(d) => Key::Date(*d),
        }
    }

    /// SQL-ish comparison used by predicates and sort orders: numerics
    /// compare numerically across `Int`/`Float`/`Date`; `Null` sorts first;
    /// mismatched non-numeric types order by type rank (deterministic, never
    /// panics).
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Date(a), Date(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Numeric cross-type comparisons.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Int(a), Date(b)) => a.cmp(&(*b as i64)),
            (Date(a), Int(b)) => (*a as i64).cmp(b),
            (Date(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Date(b)) => a.total_cmp(&(*b as f64)),
            // Fallback: deterministic type-rank order.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// Equality consistent with [`Value::cmp_total`]. Same-variant pairs
    /// skip the full ordering: strings test identity, then lengths and
    /// bytes (`Text`'s `==`); ints and dates compare directly.
    pub fn eq_total(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Str(a), Str(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            _ => self.cmp_total(other) == Ordering::Equal,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Value) -> bool {
        self.eq_total(other)
    }
}

impl Eq for Value {}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 3,
        Value::Date(_) => 4,
        Value::Str(_) => 5,
    }
}

/// Map an `f64` to `u64` bits whose unsigned order matches IEEE total order.
fn total_order_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "d{d}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

/// Hashable, totally ordered form of [`Value`], used as join/group keys and
/// for state-structure indexing.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    Null,
    Bool(bool),
    Int(i64),
    /// Total-order bit encoding of an `f64` (see [`Value::to_key`]).
    Float(u64),
    Date(i32),
    Str(Text),
}

// A new variant must not silently re-grow every row, key and index entry.
const _: () = assert!(size_of::<Value>() == 16 && size_of::<Key>() == 16);

/// Composite key for multi-attribute grouping.
pub type GroupKey = Box<[Key]>;

/// Build a composite key from the given columns of a slice of values.
pub fn group_key(vals: &[Value], cols: &[usize]) -> GroupKey {
    cols.iter().map(|&c| vals[c].to_key()).collect()
}

/// Every row's composite key over `cols`, built with one pass per key
/// column so the type branch in [`Value::to_key`] stays predictable
/// (each inner loop sees one column). Equals [`Tuple::group_key`] per row.
pub fn group_keys_rows(tuples: &[Tuple], cols: &[usize]) -> Vec<GroupKey> {
    let n = tuples.len();
    let mut flat: Vec<Key> = Vec::with_capacity(n * cols.len());
    for &c in cols {
        for t in tuples {
            flat.push(t.get(c).to_key());
        }
    }
    let mut out = Vec::with_capacity(n);
    for r in 0..n {
        let mut k = Vec::with_capacity(cols.len());
        for c in 0..cols.len() {
            k.push(flat[c * n + r].clone());
        }
        out.push(k.into_boxed_slice());
    }
    out
}

const HASH_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

#[inline]
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(HASH_SEED)
}

#[inline]
fn hash_str(h: u64, s: &str) -> u64 {
    let mut h = h;
    let mut bytes = s.as_bytes();
    while bytes.len() >= 8 {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&bytes[..8]);
        h = mix(h, u64::from_le_bytes(buf));
        bytes = &bytes[8..];
    }
    let mut tail = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        tail |= (b as u64) << (8 * i);
    }
    mix(h, tail ^ ((bytes.len() as u64) << 56))
}

/// Fold one [`Value`] into a running key hash. Values with equal
/// [`Value::to_key`] forms fold identically; no [`Key`] is materialized
/// (no string clone, no allocation).
#[inline]
fn fold_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => mix(h, 0x9e37_79b9_7f4a_7c15),
        Value::Bool(b) => mix(mix(h, 1), *b as u64),
        Value::Int(x) => mix(mix(h, 2), *x as u64),
        Value::Float(f) => mix(mix(h, 3), total_order_bits(*f)),
        Value::Date(d) => mix(mix(h, 4), *d as u64 & 0xFFFF_FFFF),
        Value::Str(s) => hash_str(mix(h, 5), s),
    }
}

/// Stable hash of the composite key over `cols` of one tuple, with zero
/// allocation. Tuples with equal [`Tuple::group_key`]s hash equally.
pub fn tuple_key_hash(t: &Tuple, cols: &[usize]) -> u64 {
    let mut h = 0u64;
    for &c in cols {
        h = fold_value(h, t.get(c));
    }
    h
}

/// Whether `v.to_key() == *k`, without materializing the key.
#[inline]
pub fn value_key_eq(v: &Value, k: &Key) -> bool {
    match (v, k) {
        (Value::Null, Key::Null) => true,
        (Value::Bool(a), Key::Bool(b)) => a == b,
        (Value::Int(a), Key::Int(b)) => a == b,
        (Value::Float(a), Key::Float(b)) => total_order_bits(*a) == *b,
        (Value::Date(a), Key::Date(b)) => a == b,
        // Identity, then the bytes (`Text`'s `==`).
        (Value::Str(a), Key::Str(b)) => a == b,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_float_cross_compare() {
        assert_eq!(Value::Int(3).cmp_total(&Value::Float(3.0)), Ordering::Equal);
        assert_eq!(Value::Int(3).cmp_total(&Value::Float(3.5)), Ordering::Less);
        assert_eq!(
            Value::Float(4.0).cmp_total(&Value::Int(3)),
            Ordering::Greater
        );
    }

    #[test]
    fn null_sorts_first() {
        assert_eq!(Value::Null.cmp_total(&Value::Int(i64::MIN)), Ordering::Less);
        assert_eq!(Value::Null.cmp_total(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn float_total_order_bits_monotone() {
        let xs = [-f64::INFINITY, -1.5, -0.0, 0.0, 1e-300, 2.0, f64::INFINITY];
        for w in xs.windows(2) {
            assert!(total_order_bits(w[0]) <= total_order_bits(w[1]), "{w:?}");
        }
        // -0.0 < 0.0 in total order.
        assert!(total_order_bits(-0.0) < total_order_bits(0.0));
    }

    #[test]
    fn key_roundtrip_equality() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(42),
            Value::Float(1.25),
            Value::str("abc"),
            Value::Date(9131),
        ];
        for v in &vals {
            assert_eq!(v.to_key(), v.clone().to_key());
        }
        assert_ne!(Value::Int(1).to_key(), Value::Int(2).to_key());
    }

    #[test]
    fn key_order_matches_value_order_for_floats() {
        let a = Value::Float(-2.5);
        let b = Value::Float(7.0);
        assert!(a.to_key() < b.to_key());
    }

    #[test]
    fn as_int_coerces_dates() {
        assert_eq!(Value::Date(10).as_int().unwrap(), 10);
        assert!(Value::str("x").as_int().is_err());
    }

    #[test]
    fn group_key_extracts_columns() {
        let vals = vec![Value::Int(1), Value::str("a"), Value::Int(3)];
        let k = group_key(&vals, &[2, 0]);
        assert_eq!(&*k, &[Key::Int(3), Key::Int(1)]);
    }

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(1), Value::str("a"), Value::Float(1.5)]),
            Tuple::new(vec![Value::Int(2), Value::Null, Value::Float(-0.5)]),
            Tuple::new(vec![Value::Int(3), Value::str("b"), Value::Null]),
            Tuple::new(vec![Value::Int(2), Value::str("a"), Value::Float(2.5)]),
            Tuple::new(vec![Value::Int(2), Value::Null, Value::Float(-0.0)]),
        ]
    }

    #[test]
    fn group_keys_rows_match_tuple_group_keys() {
        let rows = tuples();
        for cols in [vec![], vec![1usize], vec![0, 1], vec![2, 1, 0]] {
            let row_keys: Vec<GroupKey> = rows.iter().map(|t| t.group_key(&cols)).collect();
            assert_eq!(group_keys_rows(&rows, &cols), row_keys, "cols {cols:?}");
        }
        assert!(group_keys_rows(&[], &[0]).is_empty());
    }

    #[test]
    fn value_hash_and_eq_agree_with_key_forms() {
        let rows = tuples();
        for cols in [vec![0usize], vec![1], vec![2], vec![0, 1], vec![0, 1, 2]] {
            for a in &rows {
                for b in &rows {
                    let same = a.group_key(&cols) == b.group_key(&cols);
                    let (ha, hb) = (tuple_key_hash(a, &cols), tuple_key_hash(b, &cols));
                    // Equal keys hash equally; this small set has no
                    // collisions between distinct keys.
                    assert_eq!(same, ha == hb, "cols {cols:?}: {a:?} vs {b:?}");
                }
            }
        }
        for a in &rows {
            for b in &rows {
                for c in 0..3 {
                    assert_eq!(value_key_eq(a.get(c), &b.key(c)), a.key(c) == b.key(c));
                }
            }
        }
        assert!(!value_key_eq(&Value::Int(1), &Key::Int(2)));
        assert!(!value_key_eq(&Value::Int(1), &Key::Float(0)));
        assert!(!value_key_eq(
            &Value::Float(-0.0),
            &Value::Float(0.0).to_key()
        ));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::str("hi").to_string(), "hi");
        assert_eq!(DataType::Date.to_string(), "date");
    }
}
