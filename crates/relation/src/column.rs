//! Columnar batches: typed column vectors with null and selection bitmaps.
//!
//! The row representation ([`crate::Tuple`] = `Arc<[Value]>`) pays a
//! pointer chase and an enum branch per *value*; the hot operators
//! (filter, hash join, dedup, exchange shipping) only need a branch per
//! *column*. A [`ColumnarBatch`] stores each attribute as one typed
//! vector ([`ColumnData`]) plus an optional validity [`Bitmap`], and
//! carries an optional selection [`Bitmap`] so filters can mark survivors
//! without materializing a new batch.
//!
//! Conversion happens at the edges ([`ColumnarBatch::from_tuples`] /
//! [`ColumnarBatch::to_tuples`]) and is total: a column whose values mix
//! types (legal in this dynamically typed engine, e.g. arithmetic that
//! widens some rows to `Float`) degrades to [`ColumnData::Mixed`], which
//! every kernel handles with the row-at-a-time fallback. Vectorized
//! results are therefore *always* value-identical to the row path — the
//! golden-answer CI relies on it.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::agg::{AggFunc, AggState};
use crate::error::{Error, Result};
use crate::expr::{CmpOp, Expr};
use crate::sort::SortKey;
use crate::tuple::Tuple;
use crate::value::{GroupKey, Key, Value};

/// A packed bitmap over row indices (little-endian within each word).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn zeros(len: usize) -> Bitmap {
        Bitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// All-ones bitmap of `len` bits.
    pub fn ones(len: usize) -> Bitmap {
        let mut b = Bitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i` to `v`.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Count of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND (in place). Panics on length mismatch.
    pub fn and(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Bitwise OR (in place). Panics on length mismatch.
    pub fn or(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Bitwise NOT (in place).
    pub fn not(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let bit = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + bit)
                }
            })
        })
    }
}

/// The typed payload of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// Booleans.
    Bool(Vec<bool>),
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats.
    Float(Vec<f64>),
    /// Dates (days since epoch), kept distinct from `Int` like [`Value`].
    Date(Vec<i32>),
    /// Dictionary-encoded strings: `codes[row]` indexes `dict`. Repeated
    /// payloads (status flags, region names) are stored once; string
    /// kernels branch per distinct code, not per row.
    Str {
        /// Per-row index into `dict`.
        codes: Vec<u32>,
        /// Distinct payloads in first-appearance order.
        dict: Vec<Arc<str>>,
    },
    /// Row fallback for columns whose values mix types. Every kernel
    /// degrades to per-value dispatch on this variant, keeping the
    /// columnar path total.
    Mixed(Vec<Value>),
}

impl ColumnData {
    fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Str { codes, .. } => codes.len(),
            ColumnData::Mixed(v) => v.len(),
        }
    }
}

/// One attribute of a [`ColumnarBatch`]: typed data plus validity.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    /// Validity bitmap: a set bit means non-null. `None` = all valid.
    /// Slots at null positions hold an arbitrary default (0 / code 0) and
    /// must never be read without consulting the bitmap.
    nulls: Option<Bitmap>,
}

impl Column {
    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// The validity bitmap (`None` = no nulls).
    pub fn nulls(&self) -> Option<&Bitmap> {
        self.nulls.as_ref()
    }

    /// Rows in the column.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the column holds zero rows.
    pub fn is_empty(&self) -> bool {
        self.data.len() == 0
    }

    #[inline]
    fn is_null(&self, row: usize) -> bool {
        match &self.nulls {
            Some(b) => !b.get(row),
            None => match &self.data {
                // Mixed columns carry their nulls inline.
                ColumnData::Mixed(v) => v[row].is_null(),
                _ => false,
            },
        }
    }

    /// Materialize the value at `row` (clones string payload pointers,
    /// never the payload bytes).
    pub fn value(&self, row: usize) -> Value {
        if self.is_null(row) {
            return Value::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Value::Bool(v[row]),
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Float(v) => Value::Float(v[row]),
            ColumnData::Date(v) => Value::Date(v[row]),
            ColumnData::Str { codes, dict } => Value::Str(dict[codes[row] as usize].clone()),
            ColumnData::Mixed(v) => v[row].clone(),
        }
    }

    /// The key form of the value at `row` (same encoding as
    /// [`Value::to_key`]).
    pub fn key(&self, row: usize) -> Key {
        if self.is_null(row) {
            return Key::Null;
        }
        match &self.data {
            ColumnData::Bool(v) => Key::Bool(v[row]),
            ColumnData::Int(v) => Key::Int(v[row]),
            ColumnData::Float(v) => Key::Float(total_order_bits(v[row])),
            ColumnData::Date(v) => Key::Date(v[row]),
            ColumnData::Str { codes, dict } => Key::Str(dict[codes[row] as usize].clone()),
            ColumnData::Mixed(v) => v[row].to_key(),
        }
    }

    /// Compare the value at `row` against `rhs` with [`Value::cmp_total`]
    /// semantics, without materializing a [`Value`]. `None` when either
    /// side is SQL null (predicates treat that as false).
    #[inline]
    pub fn cmp_value(&self, row: usize, rhs: &Value) -> Option<Ordering> {
        if self.is_null(row) || rhs.is_null() {
            return None;
        }
        Some(match (&self.data, rhs) {
            (ColumnData::Int(v), Value::Int(b)) => v[row].cmp(b),
            (ColumnData::Int(v), Value::Float(b)) => (v[row] as f64).total_cmp(b),
            (ColumnData::Int(v), Value::Date(b)) => v[row].cmp(&(*b as i64)),
            (ColumnData::Float(v), Value::Float(b)) => v[row].total_cmp(b),
            (ColumnData::Float(v), Value::Int(b)) => v[row].total_cmp(&(*b as f64)),
            (ColumnData::Float(v), Value::Date(b)) => v[row].total_cmp(&(*b as f64)),
            (ColumnData::Date(v), Value::Date(b)) => v[row].cmp(b),
            (ColumnData::Date(v), Value::Int(b)) => (v[row] as i64).cmp(b),
            (ColumnData::Date(v), Value::Float(b)) => (v[row] as f64).total_cmp(b),
            (ColumnData::Bool(v), Value::Bool(b)) => v[row].cmp(b),
            (ColumnData::Str { codes, dict }, Value::Str(b)) => {
                dict[codes[row] as usize].as_ref().cmp(b.as_ref())
            }
            (ColumnData::Mixed(v), rhs) => v[row].cmp_total(rhs),
            // Mismatched non-numeric types: the deterministic type-rank
            // order of Value::cmp_total.
            _ => return Some(self.value(row).cmp_total(rhs)),
        })
    }
}

/// A batch of rows in columnar layout, with an optional selection bitmap
/// marking the rows that are logically present.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    cols: Vec<Column>,
    rows: usize,
    sel: Option<Bitmap>,
}

impl ColumnarBatch {
    /// An empty batch of the given arity.
    pub fn empty(arity: usize) -> ColumnarBatch {
        ColumnarBatch {
            cols: (0..arity)
                .map(|_| Column {
                    data: ColumnData::Mixed(Vec::new()),
                    nulls: None,
                })
                .collect(),
            rows: 0,
            sel: None,
        }
    }

    /// Transpose a row batch into columns. Total: a column mixing value
    /// types degrades to [`ColumnData::Mixed`]. Panics if tuples disagree
    /// on arity (schemas are validated at plan time).
    pub fn from_tuples(tuples: &[Tuple]) -> ColumnarBatch {
        let rows = tuples.len();
        let arity = tuples.first().map_or(0, Tuple::arity);
        let mut cols = Vec::with_capacity(arity);
        for c in 0..arity {
            cols.push(build_column(tuples, c));
        }
        ColumnarBatch {
            cols,
            rows,
            sel: None,
        }
    }

    /// Physical rows (before selection).
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Logical rows (after selection).
    pub fn selected_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.count_ones(),
            None => self.rows,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Column accessor.
    pub fn column(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// The selection bitmap (`None` = all rows selected).
    pub fn selection(&self) -> Option<&Bitmap> {
        self.sel.as_ref()
    }

    /// Replace the selection bitmap. Composes with an existing selection
    /// by intersection (a filter over a filtered batch narrows it).
    pub fn select(&mut self, mask: Bitmap) {
        assert_eq!(mask.len(), self.rows, "selection length mismatch");
        match &mut self.sel {
            Some(s) => s.and(&mask),
            None => self.sel = Some(mask),
        }
    }

    /// Materialize the value at (`row`, `col`) — `row` is a *physical*
    /// index, ignoring the selection.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.cols[col].value(row)
    }

    /// Iterator over selected physical row indices, ascending.
    pub fn selected_indices(&self) -> Vec<usize> {
        match &self.sel {
            Some(s) => s.iter_ones().collect(),
            None => (0..self.rows).collect(),
        }
    }

    /// Transpose back to rows, honoring the selection. The inverse edge of
    /// [`ColumnarBatch::from_tuples`]: output values are identical to the
    /// rows that produced the batch (string payloads stay shared via the
    /// dictionary).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.selected_rows());
        match &self.sel {
            Some(s) => {
                for r in s.iter_ones() {
                    out.push(self.row_tuple(r));
                }
            }
            None => {
                for r in 0..self.rows {
                    out.push(self.row_tuple(r));
                }
            }
        }
        out
    }

    fn row_tuple(&self, row: usize) -> Tuple {
        self.tuple_at(row)
    }

    /// Materialize one *physical* row as a [`Tuple`] (ignores the
    /// selection; string payloads stay shared).
    pub fn tuple_at(&self, row: usize) -> Tuple {
        self.cols.iter().map(|c| c.value(row)).collect()
    }

    /// Column projection (in the given order), dropping the selection by
    /// compacting first if one is set.
    pub fn project(&self, cols: &[usize]) -> ColumnarBatch {
        let base = if self.sel.is_some() {
            self.compact()
        } else {
            self.clone()
        };
        ColumnarBatch {
            cols: cols.iter().map(|&c| base.cols[c].clone()).collect(),
            rows: base.rows,
            sel: None,
        }
    }

    /// Materialize the selection: gather surviving rows into dense columns
    /// and clear the bitmap.
    pub fn compact(&self) -> ColumnarBatch {
        let sel = match &self.sel {
            None => return self.clone(),
            Some(s) => s,
        };
        let idx: Vec<usize> = sel.iter_ones().collect();
        ColumnarBatch {
            cols: self.cols.iter().map(|c| gather_column(c, &idx)).collect(),
            rows: idx.len(),
            sel: None,
        }
    }

    /// Build an output batch by gathering `(left_row, right_row)` pairs
    /// from two batches and concatenating their columns — the join-output
    /// constructor (row orientation `left ++ right`). Selections must have
    /// been compacted away by the caller (physical indices are used).
    pub fn gather_concat(
        left: &ColumnarBatch,
        right: &ColumnarBatch,
        pairs: &[(u32, u32)],
    ) -> ColumnarBatch {
        let li: Vec<usize> = pairs.iter().map(|&(l, _)| l as usize).collect();
        let ri: Vec<usize> = pairs.iter().map(|&(_, r)| r as usize).collect();
        let mut cols = Vec::with_capacity(left.arity() + right.arity());
        for c in &left.cols {
            cols.push(gather_column(c, &li));
        }
        for c in &right.cols {
            cols.push(gather_column(c, &ri));
        }
        ColumnarBatch {
            cols,
            rows: pairs.len(),
            sel: None,
        }
    }

    /// Gather the given physical rows (in order, duplicates allowed) into
    /// a dense batch with no selection — the payload-permutation step of a
    /// columnar sort. Row `i` of the output is physical row `idx[i]` of
    /// `self`; the batch's own selection, if any, is ignored (callers pass
    /// indices that already honor it, e.g. from [`sort_permutation`]).
    pub fn gather(&self, idx: &[u32]) -> ColumnarBatch {
        let idx: Vec<usize> = idx.iter().map(|&r| r as usize).collect();
        ColumnarBatch {
            cols: self.cols.iter().map(|c| gather_column(c, &idx)).collect(),
            rows: idx.len(),
            sel: None,
        }
    }

    /// Rough in-memory footprint in bytes (mirrors
    /// [`Tuple::approx_bytes`] at the batch level).
    pub fn approx_bytes(&self) -> usize {
        let mut n = 0;
        for c in &self.cols {
            n += match &c.data {
                ColumnData::Bool(v) => v.len(),
                ColumnData::Int(v) => v.len() * 8,
                ColumnData::Float(v) => v.len() * 8,
                ColumnData::Date(v) => v.len() * 4,
                ColumnData::Str { codes, dict } => {
                    codes.len() * 4 + dict.iter().map(|s| s.len()).sum::<usize>()
                }
                ColumnData::Mixed(v) => v.len() * std::mem::size_of::<Value>(),
            };
        }
        n
    }
}

fn build_column(tuples: &[Tuple], c: usize) -> Column {
    use crate::value::DataType;
    // One scan to find the column's uniform type (ignoring nulls).
    let mut dtype: Option<DataType> = None;
    let mut has_null = false;
    let mut uniform = true;
    for t in tuples {
        match t.get(c).dtype() {
            None => has_null = true,
            Some(d) => match dtype {
                None => dtype = Some(d),
                Some(prev) if prev == d => {}
                Some(_) => {
                    uniform = false;
                    break;
                }
            },
        }
    }
    if !uniform {
        return Column {
            data: ColumnData::Mixed(tuples.iter().map(|t| t.get(c).clone()).collect()),
            nulls: None,
        };
    }
    let rows = tuples.len();
    let mut nulls = if has_null {
        Some(Bitmap::ones(rows))
    } else {
        None
    };
    macro_rules! typed {
        ($variant:ident, $default:expr, $extract:expr) => {{
            let mut v = Vec::with_capacity(rows);
            for (i, t) in tuples.iter().enumerate() {
                match t.get(c) {
                    Value::Null => {
                        v.push($default);
                        if let Some(b) = nulls.as_mut() {
                            b.set(i, false);
                        }
                    }
                    other => v.push($extract(other)),
                }
            }
            ColumnData::$variant(v)
        }};
    }
    let data = match dtype {
        // All-null column: an Int vector of defaults with an all-zero
        // validity bitmap round-trips every row as Null.
        None => {
            if rows > 0 {
                nulls = Some(Bitmap::zeros(rows));
            }
            ColumnData::Int(vec![0; rows])
        }
        Some(DataType::Bool) => typed!(Bool, false, |v: &Value| match v {
            Value::Bool(b) => *b,
            _ => unreachable!("uniform Bool column"),
        }),
        Some(DataType::Int) => typed!(Int, 0, |v: &Value| match v {
            Value::Int(x) => *x,
            _ => unreachable!("uniform Int column"),
        }),
        Some(DataType::Float) => typed!(Float, 0.0, |v: &Value| match v {
            Value::Float(x) => *x,
            _ => unreachable!("uniform Float column"),
        }),
        Some(DataType::Date) => typed!(Date, 0, |v: &Value| match v {
            Value::Date(x) => *x,
            _ => unreachable!("uniform Date column"),
        }),
        Some(DataType::Str) => {
            let mut codes = Vec::with_capacity(rows);
            let mut dict: Vec<Arc<str>> = Vec::new();
            // First-appearance dictionary build; linear probe is fine for
            // the low-cardinality columns dictionaries pay off on, and a
            // hash index kicks in past a threshold.
            let mut index: std::collections::HashMap<Arc<str>, u32> =
                std::collections::HashMap::new();
            for (i, t) in tuples.iter().enumerate() {
                match t.get(c) {
                    Value::Null => {
                        codes.push(0);
                        if let Some(b) = nulls.as_mut() {
                            b.set(i, false);
                        }
                    }
                    Value::Str(s) => {
                        let code = *index.entry(s.clone()).or_insert_with(|| {
                            dict.push(s.clone());
                            (dict.len() - 1) as u32
                        });
                        codes.push(code);
                    }
                    _ => unreachable!("uniform Str column"),
                }
            }
            if dict.is_empty() {
                // All-null string column still needs one dict slot for
                // the default code 0.
                dict.push(Arc::from(""));
            }
            ColumnData::Str { codes, dict }
        }
    };
    Column { data, nulls }
}

fn gather_column(c: &Column, idx: &[usize]) -> Column {
    let nulls = c.nulls.as_ref().map(|b| {
        let mut out = Bitmap::ones(idx.len());
        for (i, &r) in idx.iter().enumerate() {
            if !b.get(r) {
                out.set(i, false);
            }
        }
        out
    });
    let data = match &c.data {
        ColumnData::Bool(v) => ColumnData::Bool(idx.iter().map(|&r| v[r]).collect()),
        ColumnData::Int(v) => ColumnData::Int(idx.iter().map(|&r| v[r]).collect()),
        ColumnData::Float(v) => ColumnData::Float(idx.iter().map(|&r| v[r]).collect()),
        ColumnData::Date(v) => ColumnData::Date(idx.iter().map(|&r| v[r]).collect()),
        ColumnData::Str { codes, dict } => ColumnData::Str {
            codes: idx.iter().map(|&r| codes[r]).collect(),
            dict: dict.clone(),
        },
        ColumnData::Mixed(v) => ColumnData::Mixed(idx.iter().map(|&r| v[r].clone()).collect()),
    };
    Column { data, nulls }
}

// --- vectorized predicate evaluation -----------------------------------

/// Evaluate `pred` over every row of `batch`, producing a bitmap with a
/// set bit for each matching row (the batch's own selection is *not*
/// intersected — callers compose with [`ColumnarBatch::select`]).
///
/// Semantics are identical to [`Expr::matches`] row by row: comparisons
/// against SQL null are false, `And`/`Or` are boolean, `Not` flips.
/// Expressions outside the vectorizable subset (arithmetic, non-boolean
/// members) return an error; callers fall back to the row path, which
/// reproduces the row engine's exact behavior including short-circuit
/// evaluation order.
pub fn eval_predicate(pred: &Expr, batch: &ColumnarBatch) -> Result<Bitmap> {
    let rows = batch.num_rows();
    match pred {
        Expr::Lit(Value::Bool(b)) => Ok(if *b {
            Bitmap::ones(rows)
        } else {
            Bitmap::zeros(rows)
        }),
        Expr::Col(c) => {
            // A bare boolean column used as a predicate. Null bools are an
            // error on the row path (`as_bool` on Null), so fall back
            // rather than guess.
            let col = batch
                .cols
                .get(*c)
                .ok_or_else(|| Error::Exec(format!("column {c} out of range")))?;
            match (col.data(), col.nulls()) {
                (ColumnData::Bool(v), None) => {
                    let mut out = Bitmap::zeros(rows);
                    for (i, &b) in v.iter().enumerate() {
                        if b {
                            out.set(i, true);
                        }
                    }
                    Ok(out)
                }
                _ => Err(Error::Type("predicate column is not boolean".into())),
            }
        }
        Expr::Cmp(l, op, r) => eval_cmp(l, *op, r, batch),
        Expr::And(es) => {
            let mut acc = Bitmap::ones(rows);
            for e in es {
                acc.and(&eval_predicate(e, batch)?);
            }
            Ok(acc)
        }
        Expr::Or(es) => {
            let mut acc = Bitmap::zeros(rows);
            for e in es {
                acc.or(&eval_predicate(e, batch)?);
            }
            Ok(acc)
        }
        Expr::Not(e) => {
            let mut m = eval_predicate(e, batch)?;
            m.not();
            Ok(m)
        }
        other => Err(Error::Exec(format!("predicate not vectorizable: {other}"))),
    }
}

fn eval_cmp(l: &Expr, op: CmpOp, r: &Expr, batch: &ColumnarBatch) -> Result<Bitmap> {
    match (l, r) {
        (Expr::Col(c), Expr::Lit(v)) => cmp_col_lit(batch, *c, op, v),
        (Expr::Lit(v), Expr::Col(c)) => cmp_col_lit(batch, *c, flip(op), v),
        (Expr::Col(a), Expr::Col(b)) => cmp_col_col(batch, *a, op, *b),
        (Expr::Lit(a), Expr::Lit(b)) => {
            let rows = batch.num_rows();
            if a.is_null() || b.is_null() {
                return Ok(Bitmap::zeros(rows));
            }
            let ord = a.cmp_total(b);
            Ok(if op.eval(ord, ord == Ordering::Equal) {
                Bitmap::ones(rows)
            } else {
                Bitmap::zeros(rows)
            })
        }
        _ => Err(Error::Exec("comparison operands not vectorizable".into())),
    }
}

/// Mirror `a OP b` into `b OP' a`.
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

#[inline]
fn keep(op: CmpOp, ord: Ordering) -> bool {
    op.eval(ord, ord == Ordering::Equal)
}

fn cmp_col_lit(batch: &ColumnarBatch, c: usize, op: CmpOp, lit: &Value) -> Result<Bitmap> {
    let rows = batch.num_rows();
    let col = batch
        .cols
        .get(c)
        .ok_or_else(|| Error::Exec(format!("column {c} out of range")))?;
    let mut out = Bitmap::zeros(rows);
    if lit.is_null() {
        return Ok(out); // NULL comparisons are false for every row.
    }
    // Typed kernels: one branch per batch, a tight loop per type.
    match (&col.data, lit) {
        (ColumnData::Int(v), Value::Int(b)) => {
            for (i, x) in v.iter().enumerate() {
                if keep(op, x.cmp(b)) {
                    out.set(i, true);
                }
            }
        }
        (ColumnData::Int(v), Value::Float(b)) => {
            for (i, x) in v.iter().enumerate() {
                if keep(op, (*x as f64).total_cmp(b)) {
                    out.set(i, true);
                }
            }
        }
        (ColumnData::Float(v), Value::Float(b)) => {
            for (i, x) in v.iter().enumerate() {
                if keep(op, x.total_cmp(b)) {
                    out.set(i, true);
                }
            }
        }
        (ColumnData::Float(v), Value::Int(b)) => {
            let b = *b as f64;
            for (i, x) in v.iter().enumerate() {
                if keep(op, x.total_cmp(&b)) {
                    out.set(i, true);
                }
            }
        }
        (ColumnData::Date(v), Value::Date(b)) => {
            for (i, x) in v.iter().enumerate() {
                if keep(op, x.cmp(b)) {
                    out.set(i, true);
                }
            }
        }
        (ColumnData::Str { codes, dict }, Value::Str(b)) => {
            // Decide once per distinct payload, then map codes.
            let verdicts: Vec<bool> = dict
                .iter()
                .map(|s| keep(op, s.as_ref().cmp(b.as_ref())))
                .collect();
            for (i, &code) in codes.iter().enumerate() {
                if verdicts[code as usize] {
                    out.set(i, true);
                }
            }
        }
        // Every remaining combination (Bool, Date-vs-Int, Mixed, type-rank
        // mismatches) goes through the per-row comparator, which is still
        // branch-per-row but allocation-free.
        _ => {
            for i in 0..rows {
                if let Some(ord) = col.cmp_value(i, lit) {
                    if keep(op, ord) {
                        out.set(i, true);
                    }
                }
            }
        }
    }
    // Null rows never match (cmp kernels above read slot defaults).
    if let Some(nulls) = &col.nulls {
        out.and(nulls);
    }
    Ok(out)
}

fn cmp_col_col(batch: &ColumnarBatch, a: usize, op: CmpOp, b: usize) -> Result<Bitmap> {
    let rows = batch.num_rows();
    let (ca, cb) = (
        batch
            .cols
            .get(a)
            .ok_or_else(|| Error::Exec(format!("column {a} out of range")))?,
        batch
            .cols
            .get(b)
            .ok_or_else(|| Error::Exec(format!("column {b} out of range")))?,
    );
    let mut out = Bitmap::zeros(rows);
    match (&ca.data, &cb.data) {
        (ColumnData::Int(x), ColumnData::Int(y)) => {
            for i in 0..rows {
                if keep(op, x[i].cmp(&y[i])) {
                    out.set(i, true);
                }
            }
        }
        (ColumnData::Float(x), ColumnData::Float(y)) => {
            for i in 0..rows {
                if keep(op, x[i].total_cmp(&y[i])) {
                    out.set(i, true);
                }
            }
        }
        (
            ColumnData::Str {
                codes: xc,
                dict: xd,
            },
            ColumnData::Str {
                codes: yc,
                dict: yd,
            },
        ) => {
            for i in 0..rows {
                let ord = xd[xc[i] as usize].as_ref().cmp(yd[yc[i] as usize].as_ref());
                if keep(op, ord) {
                    out.set(i, true);
                }
            }
        }
        _ => {
            // Generic per-row path via one materialized side.
            for i in 0..rows {
                let rhs = cb.value(i);
                if let Some(ord) = ca.cmp_value(i, &rhs) {
                    if keep(op, ord) {
                        out.set(i, true);
                    }
                }
            }
            // cmp_value already handled both null sides; skip the bitmap
            // intersection below by returning here.
            return Ok(out);
        }
    }
    if let Some(n) = &ca.nulls {
        out.and(n);
    }
    if let Some(n) = &cb.nulls {
        out.and(n);
    }
    Ok(out)
}

// --- key and hash kernels ----------------------------------------------

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

/// Stable hash of one [`Key`] element folded into `h`. The canonical
/// encoding both the row path ([`key_hash`]) and the columnar kernels
/// ([`hash_keys_into`]) produce, so they can probe the same table.
#[inline]
pub fn fold_key_elem(h: u64, k: &Key) -> u64 {
    match k {
        Key::Null => mix(h, 0x9e37_79b9_7f4a_7c15),
        Key::Bool(b) => mix(mix(h, 1), *b as u64),
        Key::Int(v) => mix(mix(h, 2), *v as u64),
        Key::Float(bits) => mix(mix(h, 3), *bits),
        Key::Date(d) => mix(mix(h, 4), *d as u64 & 0xFFFF_FFFF),
        Key::Str(s) => hash_str(mix(h, 5), s),
    }
}

/// Stable hash of a composite key (row-path counterpart of
/// [`hash_keys_into`]).
pub fn key_hash(key: &GroupKey) -> u64 {
    let mut h = 0u64;
    for k in key.iter() {
        h = fold_key_elem(h, k);
    }
    h
}

/// Fold one [`Value`] into a running key hash. Equals
/// [`fold_key_elem`] of [`Value::to_key`] without materializing the
/// [`Key`] (no string `Arc` clone, no allocation).
#[inline]
pub fn fold_value(h: u64, v: &Value) -> u64 {
    match v {
        Value::Null => mix(h, 0x9e37_79b9_7f4a_7c15),
        Value::Bool(b) => mix(mix(h, 1), *b as u64),
        Value::Int(x) => mix(mix(h, 2), *x as u64),
        Value::Float(f) => mix(mix(h, 3), total_order_bits(*f)),
        Value::Date(d) => mix(mix(h, 4), *d as u64 & 0xFFFF_FFFF),
        Value::Str(s) => hash_str(mix(h, 5), s),
    }
}

/// Hash of the composite key over `cols` of one tuple — equals
/// [`key_hash`] of [`Tuple::group_key`] with zero allocation.
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
        (Value::Str(a), Key::Str(b)) => a.as_ref() == b.as_ref(),
        _ => false,
    }
}

/// Compute the composite-key hash of every row in one pass per key
/// column, appending into `out` (cleared first). Hashes equal
/// [`key_hash`] of the corresponding [`ColumnarBatch`] row keys, so a
/// seen-set keyed by these hashes can be probed from either
/// representation. String columns hash each distinct dictionary payload
/// once and fan the result out by code.
pub fn hash_keys_into(batch: &ColumnarBatch, cols: &[usize], out: &mut Vec<u64>) {
    let rows = batch.num_rows();
    out.clear();
    out.resize(rows, 0u64);
    for (ci, &c) in cols.iter().enumerate() {
        let col = &batch.cols[c];
        match (&col.data, &col.nulls) {
            (ColumnData::Int(v), None) => {
                for (h, x) in out.iter_mut().zip(v) {
                    *h = mix(mix(*h, 2), *x as u64);
                }
            }
            (ColumnData::Str { codes, dict }, None) if ci == 0 => {
                // First key column: the running hash is 0 for every row,
                // so each distinct payload can be hashed once and fanned
                // out by dictionary code.
                let hashed: Vec<u64> = dict.iter().map(|s| hash_str(mix(0, 5), s)).collect();
                for (h, &code) in out.iter_mut().zip(codes) {
                    *h = hashed[code as usize];
                }
            }
            (ColumnData::Str { codes, dict }, None) => {
                for (h, &code) in out.iter_mut().zip(codes) {
                    *h = hash_str(mix(*h, 5), &dict[code as usize]);
                }
            }
            _ => {
                // Generic per-row fold via the Key form (allocation-free
                // for scalar types).
                for (i, h) in out.iter_mut().enumerate() {
                    *h = fold_key_elem(*h, &col.key(i));
                }
            }
        }
    }
}

/// Compute the composite key of every *selected* row in column order
/// (one type branch per column instead of per value). Equivalent to
/// calling [`Tuple::group_key`] on each row of
/// [`ColumnarBatch::to_tuples`].
pub fn group_keys(batch: &ColumnarBatch, cols: &[usize]) -> Vec<GroupKey> {
    group_keys_at(batch, cols, &batch.selected_indices())
}

/// [`group_keys`] over an explicit list of physical rows (windowed
/// consumers like pre-aggregation key one window of a batch at a time).
pub fn group_keys_at(batch: &ColumnarBatch, cols: &[usize], idx: &[usize]) -> Vec<GroupKey> {
    // A rowless batch built from zero tuples has no columns, so the column
    // lookups below would be out of bounds; there are no keys to build.
    if idx.is_empty() {
        return Vec::new();
    }
    let mut flat: Vec<Key> = Vec::with_capacity(idx.len() * cols.len());
    // Column-major fill...
    for &c in cols {
        let col = &batch.cols[c];
        for &r in idx {
            flat.push(col.key(r));
        }
    }
    // ...then row-major assembly.
    let n = idx.len();
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

/// Row-batch counterpart of [`group_keys`]: compute every row's composite
/// key with one pass per key column over a `&[Tuple]` batch. The type
/// branch in [`Value::to_key`] stays predictable because each inner loop
/// sees one column.
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

/// Whether the key element at (`row`, `col`) equals `k` (the comparison
/// the dedup seen-set uses), without materializing a [`Key`].
#[inline]
pub fn key_elem_eq(col: &Column, row: usize, k: &Key) -> bool {
    match (&col.data, k) {
        (ColumnData::Int(v), Key::Int(b)) => !col.is_null(row) && v[row] == *b,
        (ColumnData::Str { codes, dict }, Key::Str(b)) => {
            !col.is_null(row) && dict[codes[row] as usize].as_ref() == b.as_ref()
        }
        (ColumnData::Float(v), Key::Float(b)) => {
            !col.is_null(row) && total_order_bits(v[row]) == *b
        }
        (ColumnData::Date(v), Key::Date(b)) => !col.is_null(row) && v[row] == *b,
        (ColumnData::Bool(v), Key::Bool(b)) => !col.is_null(row) && v[row] == *b,
        _ => col.key(row) == *k,
    }
}

// --- sort and aggregate kernels ----------------------------------------

/// Compare two physical rows of one column with [`Value::cmp_total`]
/// semantics (SQL null sorts first), without materializing values.
#[inline]
fn cmp_col_rows(col: &Column, a: usize, b: usize) -> Ordering {
    match (col.is_null(a), col.is_null(b)) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => {}
    }
    match &col.data {
        ColumnData::Bool(v) => v[a].cmp(&v[b]),
        ColumnData::Int(v) => v[a].cmp(&v[b]),
        ColumnData::Float(v) => v[a].total_cmp(&v[b]),
        ColumnData::Date(v) => v[a].cmp(&v[b]),
        ColumnData::Str { codes, dict } => {
            if codes[a] == codes[b] {
                Ordering::Equal
            } else {
                dict[codes[a] as usize]
                    .as_ref()
                    .cmp(dict[codes[b] as usize].as_ref())
            }
        }
        ColumnData::Mixed(v) => v[a].cmp_total(&v[b]),
    }
}

/// Stable sort permutation of the *selected* physical rows under `keys`.
/// The returned indices visit rows in the order
/// [`crate::sort::sort_tuples`] would produce over
/// [`ColumnarBatch::to_tuples`], ties staying in batch order. Feed the
/// result to [`ColumnarBatch::gather`] to materialize sorted columns.
pub fn sort_permutation(batch: &ColumnarBatch, keys: &[SortKey]) -> Vec<u32> {
    let mut idx: Vec<u32> = match batch.selection() {
        Some(s) => s.iter_ones().map(|r| r as u32).collect(),
        None => (0..batch.num_rows() as u32).collect(),
    };
    // A rowless batch built from zero tuples has no columns at all, so the
    // key lookups below would be out of bounds; the permutation is empty.
    if idx.is_empty() {
        return idx;
    }
    // Single ascending key over non-null ints: sort by the raw i64.
    if let [k] = keys {
        if !k.descending {
            let col = batch.column(k.col);
            if let (ColumnData::Int(v), None) = (&col.data, &col.nulls) {
                idx.sort_by_key(|&r| v[r as usize]);
                return idx;
            }
        }
    }
    let cols: Vec<&Column> = keys.iter().map(|k| batch.column(k.col)).collect();
    idx.sort_by(|&a, &b| {
        for (k, col) in keys.iter().zip(&cols) {
            let mut ord = cmp_col_rows(col, a as usize, b as usize);
            if k.descending {
                ord = ord.reverse();
            }
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    idx
}

/// Fold the values of `col` at `rows` into per-group accumulators: row
/// `rows[i]` updates `states[slots[i]]`. All states must carry the same
/// aggregate function (one kernel call per aggregate column).
/// Value-identical to calling [`AggState::update`] with `col.value(r)`
/// row by row, including `count`'s null-counting and the numeric-type
/// errors of `sum`/`avg`.
pub fn accumulate_column(
    col: &Column,
    rows: &[usize],
    slots: &[u32],
    states: &mut [AggState],
) -> Result<()> {
    debug_assert_eq!(rows.len(), slots.len());
    let func = match states.first() {
        Some(s) => s.func(),
        None => return Ok(()),
    };
    match func {
        // Count never reads the column: every row counts, null or not.
        AggFunc::Count => {
            for &slot in slots {
                if let AggState::Count(n) = &mut states[slot as usize] {
                    *n += 1;
                }
            }
            Ok(())
        }
        AggFunc::Sum | AggFunc::Avg => accumulate_numeric(col, rows, slots, states),
        // Min/max need cmp_total against the running value; the scalar
        // update is already allocation-free for non-string types.
        AggFunc::Min | AggFunc::Max => {
            for (i, &r) in rows.iter().enumerate() {
                states[slots[i] as usize].update(&col.value(r))?;
            }
            Ok(())
        }
    }
}

fn accumulate_numeric(
    col: &Column,
    rows: &[usize],
    slots: &[u32],
    states: &mut [AggState],
) -> Result<()> {
    // Typed fast paths add straight from the vector, skipping null rows
    // (SQL semantics). Bool/Str/Mixed go through the scalar update so
    // `as_float`'s type errors surface exactly as on the row path.
    macro_rules! add {
        ($v:expr, $cast:expr) => {{
            match &col.nulls {
                None => {
                    for (i, &r) in rows.iter().enumerate() {
                        add_numeric(&mut states[slots[i] as usize], $cast($v[r]));
                    }
                }
                Some(b) => {
                    for (i, &r) in rows.iter().enumerate() {
                        if b.get(r) {
                            add_numeric(&mut states[slots[i] as usize], $cast($v[r]));
                        }
                    }
                }
            }
            Ok(())
        }};
    }
    match &col.data {
        ColumnData::Int(v) => add!(v, |x: i64| x as f64),
        ColumnData::Float(v) => add!(v, |x: f64| x),
        ColumnData::Date(v) => add!(v, |x: i32| x as f64),
        _ => {
            for (i, &r) in rows.iter().enumerate() {
                states[slots[i] as usize].update(&col.value(r))?;
            }
            Ok(())
        }
    }
}

#[inline]
fn add_numeric(state: &mut AggState, x: f64) {
    match state {
        AggState::Sum(s, seen) => {
            *s += x;
            *seen = true;
        }
        AggState::Avg(s, n) => {
            *s += x;
            *n += 1;
        }
        _ => unreachable!("numeric accumulate on non-sum/avg state"),
    }
}

/// Map an `f64` to `u64` bits whose unsigned order matches IEEE total
/// order (same encoding as [`Value::to_key`]).
fn total_order_bits(f: f64) -> u64 {
    let bits = f.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    fn tuples() -> Vec<Tuple> {
        vec![
            Tuple::new(vec![Value::Int(1), Value::str("a"), Value::Float(1.5)]),
            Tuple::new(vec![Value::Int(2), Value::Null, Value::Float(-0.5)]),
            Tuple::new(vec![Value::Int(3), Value::str("b"), Value::Null]),
            Tuple::new(vec![Value::Int(2), Value::str("a"), Value::Float(2.5)]),
        ]
    }

    #[test]
    fn roundtrip_preserves_values() {
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        assert_eq!(cb.num_rows(), 4);
        assert_eq!(cb.arity(), 3);
        let back = cb.to_tuples();
        assert_eq!(back, rows);
    }

    #[test]
    fn string_dictionary_shares_payloads() {
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        match cb.column(1).data() {
            ColumnData::Str { dict, codes } => {
                assert_eq!(dict.len(), 2, "two distinct payloads");
                assert_eq!(codes.len(), 4);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
    }

    #[test]
    fn mixed_column_degrades_and_roundtrips() {
        let rows = vec![
            Tuple::new(vec![Value::Int(1)]),
            Tuple::new(vec![Value::str("x")]),
        ];
        let cb = ColumnarBatch::from_tuples(&rows);
        assert!(matches!(cb.column(0).data(), ColumnData::Mixed(_)));
        assert_eq!(cb.to_tuples(), rows);
    }

    #[test]
    fn all_null_column_roundtrips() {
        let rows = vec![Tuple::new(vec![Value::Null]), Tuple::new(vec![Value::Null])];
        let cb = ColumnarBatch::from_tuples(&rows);
        assert_eq!(cb.to_tuples(), rows);
    }

    #[test]
    fn selection_narrows_to_tuples() {
        let rows = tuples();
        let mut cb = ColumnarBatch::from_tuples(&rows);
        let mut sel = Bitmap::zeros(4);
        sel.set(1, true);
        sel.set(3, true);
        cb.select(sel);
        assert_eq!(cb.selected_rows(), 2);
        let got = cb.to_tuples();
        assert_eq!(got, vec![rows[1].clone(), rows[3].clone()]);
        // Compacting then converting gives the same rows.
        assert_eq!(cb.compact().to_tuples(), got);
    }

    #[test]
    fn predicate_matches_row_semantics() {
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        let preds = vec![
            Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Value::Int(2))),
            Expr::eq(Expr::Col(1), Expr::Lit(Value::str("a"))),
            // Null float rows must not match.
            Expr::cmp(Expr::Col(2), CmpOp::Lt, Expr::Lit(Value::Float(2.0))),
            // Cross-type: int column vs float literal.
            Expr::cmp(Expr::Col(0), CmpOp::Gt, Expr::Lit(Value::Float(1.5))),
            Expr::And(vec![
                Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Value::Int(2))),
                Expr::Not(Box::new(Expr::eq(Expr::Col(1), Expr::Lit(Value::str("b"))))),
            ]),
            Expr::Or(vec![
                Expr::eq(Expr::Col(0), Expr::Lit(Value::Int(1))),
                Expr::eq(Expr::Col(1), Expr::Lit(Value::str("b"))),
            ]),
            // Column-to-column.
            Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Col(2)),
        ];
        for p in preds {
            let mask = eval_predicate(&p, &cb).unwrap();
            for (i, t) in rows.iter().enumerate() {
                assert_eq!(
                    mask.get(i),
                    p.matches(t).unwrap(),
                    "pred {p} row {i} ({t:?})"
                );
            }
        }
    }

    #[test]
    fn unvectorizable_predicate_errors() {
        let cb = ColumnarBatch::from_tuples(&tuples());
        let arith = Expr::cmp(
            Expr::Arith(
                Box::new(Expr::Col(0)),
                crate::expr::ArithOp::Add,
                Box::new(Expr::Lit(Value::Int(1))),
            ),
            CmpOp::Gt,
            Expr::Lit(Value::Int(2)),
        );
        assert!(eval_predicate(&arith, &cb).is_err());
    }

    #[test]
    fn group_keys_match_row_keys() {
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        let cols = vec![0usize, 1];
        let keys = group_keys(&cb, &cols);
        let row_keys: Vec<GroupKey> = rows.iter().map(|t| t.group_key(&cols)).collect();
        assert_eq!(keys, row_keys);
        assert_eq!(group_keys_rows(&rows, &cols), row_keys);
    }

    #[test]
    fn columnar_hashes_match_key_hashes() {
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        for cols in [vec![0usize], vec![1], vec![2], vec![0, 1], vec![1, 2]] {
            let mut hashes = Vec::new();
            hash_keys_into(&cb, &cols, &mut hashes);
            for (i, t) in rows.iter().enumerate() {
                assert_eq!(
                    hashes[i],
                    key_hash(&t.group_key(&cols)),
                    "cols {cols:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn value_hash_and_eq_agree_with_key_forms() {
        let rows = tuples();
        let cols = vec![0usize, 1, 2];
        for t in &rows {
            assert_eq!(
                tuple_key_hash(t, &cols),
                key_hash(&t.group_key(&cols)),
                "{t:?}"
            );
            for c in 0..3 {
                assert!(value_key_eq(t.get(c), &t.key(c)));
            }
        }
        assert!(!value_key_eq(&Value::Int(1), &Key::Int(2)));
        assert!(!value_key_eq(&Value::Int(1), &Key::Float(0)));
    }

    #[test]
    fn key_elem_eq_agrees_with_key() {
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        for c in 0..3 {
            for r in 0..rows.len() {
                let k = rows[r].key(c);
                assert!(key_elem_eq(cb.column(c), r, &k), "col {c} row {r}");
                let other = rows[(r + 1) % rows.len()].key(c);
                assert_eq!(
                    key_elem_eq(cb.column(c), r, &other),
                    k == other,
                    "col {c} row {r} vs other"
                );
            }
        }
    }

    #[test]
    fn sort_permutation_matches_row_sort() {
        use crate::sort::sort_tuples;
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        for keys in [
            vec![SortKey::asc(0)],
            vec![SortKey::desc(0)],
            vec![SortKey::asc(1)], // strings with a null
            vec![SortKey::asc(2)], // floats with a null
            vec![SortKey::asc(1), SortKey::desc(0)],
            vec![SortKey::desc(2), SortKey::asc(0)],
        ] {
            let perm = sort_permutation(&cb, &keys);
            let got = cb.gather(&perm).to_tuples();
            let mut want = rows.clone();
            sort_tuples(&keys, &mut want);
            assert_eq!(got, want, "keys {keys:?}");
        }
    }

    #[test]
    fn sort_permutation_honors_selection_and_stability() {
        let rows = vec![
            Tuple::new(vec![Value::Int(2), Value::Int(0)]),
            Tuple::new(vec![Value::Int(1), Value::Int(1)]),
            Tuple::new(vec![Value::Int(2), Value::Int(2)]),
            Tuple::new(vec![Value::Int(1), Value::Int(3)]),
        ];
        let mut cb = ColumnarBatch::from_tuples(&rows);
        let mut sel = Bitmap::ones(4);
        sel.set(1, false);
        cb.select(sel);
        let perm = sort_permutation(&cb, &[SortKey::asc(0)]);
        // Row 1 is deselected; ties keep batch order (row 0 before 2).
        assert_eq!(perm, vec![3, 0, 2]);
        let sorted = cb.gather(&perm).to_tuples();
        assert_eq!(
            sorted,
            vec![rows[3].clone(), rows[0].clone(), rows[2].clone()]
        );
    }

    #[test]
    fn accumulate_matches_scalar_update() {
        let rows = tuples();
        let cb = ColumnarBatch::from_tuples(&rows);
        let idx: Vec<usize> = (0..rows.len()).collect();
        // Two groups: rows 0/2 -> slot 0, rows 1/3 -> slot 1.
        let slots: Vec<u32> = vec![0, 1, 0, 1];
        for func in [
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Sum,
            AggFunc::Count,
            AggFunc::Avg,
        ] {
            for c in 0..3 {
                let mut vec_states = vec![AggState::new(func); 2];
                let vec_res = accumulate_column(cb.column(c), &idx, &slots, &mut vec_states);
                let mut row_states = vec![AggState::new(func); 2];
                let mut row_res = Ok(());
                for (t, &s) in rows.iter().zip(&slots) {
                    row_res = row_states[s as usize].update(t.get(c));
                    if row_res.is_err() {
                        break;
                    }
                }
                // Sum/avg over the string column error on both paths.
                assert_eq!(vec_res.is_err(), row_res.is_err(), "func {func} col {c}");
                if vec_res.is_ok() {
                    assert_eq!(vec_states, row_states, "func {func} col {c}");
                }
            }
        }
    }

    #[test]
    fn accumulate_preserves_type_errors() {
        let cb = ColumnarBatch::from_tuples(&tuples());
        let mut states = vec![AggState::new(AggFunc::Sum)];
        // Column 1 is strings: sum must fail like the row path does.
        assert!(accumulate_column(cb.column(1), &[0], &[0], &mut states).is_err());
    }

    #[test]
    fn bitmap_ops() {
        let mut a = Bitmap::zeros(70);
        a.set(0, true);
        a.set(69, true);
        assert_eq!(a.count_ones(), 2);
        let mut b = Bitmap::ones(70);
        b.set(0, false);
        a.and(&b);
        assert_eq!(a.iter_ones().collect::<Vec<_>>(), vec![69]);
        a.not();
        assert_eq!(a.count_ones(), 69);
        assert!(!a.get(69));
    }

    #[test]
    fn gather_concat_builds_join_output() {
        let left = ColumnarBatch::from_tuples(&[
            Tuple::new(vec![Value::Int(1), Value::str("l1")]),
            Tuple::new(vec![Value::Int(2), Value::str("l2")]),
        ]);
        let right = ColumnarBatch::from_tuples(&[
            Tuple::new(vec![Value::Int(1), Value::str("r1")]),
            Tuple::new(vec![Value::Int(2), Value::str("r2")]),
        ]);
        let out = ColumnarBatch::gather_concat(&left, &right, &[(0, 0), (1, 1), (0, 1)]);
        let rows = out.to_tuples();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].get(1).as_str().unwrap(), "l1");
        assert_eq!(rows[2].get(3).as_str().unwrap(), "r2");
    }

    #[test]
    fn empty_batch_edges() {
        let cb = ColumnarBatch::from_tuples(&[]);
        assert_eq!(cb.num_rows(), 0);
        assert!(cb.to_tuples().is_empty());
        let p = Expr::cmp(Expr::Col(0), CmpOp::Gt, Expr::Lit(Value::Int(0)));
        // Zero-arity empty batch has no columns; the predicate errors and
        // callers fall back (which also yields zero rows).
        assert!(eval_predicate(&p, &cb).is_err());
        let empty3 = ColumnarBatch::empty(3);
        assert_eq!(empty3.arity(), 3);
        assert!(empty3.to_tuples().is_empty());
    }
}
