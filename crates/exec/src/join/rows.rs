//! The one place a join turns a matched pair into an output row.
//!
//! A join's output layout is the concatenation `a ++ b` of its two inputs,
//! narrowed to the columns the rest of the query reads (the optimizer's
//! emit list). [`RowBuilder`] first checks the join's residual equalities
//! on the pair in place — nothing is built for a reject — and then
//! clones only the emitted values into the new row.

use tukwila_relation::{Error, Result, Schema, Tuple, Value};
use tukwila_stats::OpCounters;

use crate::op::Batch;

/// Builds a join's output rows from matched `(a, b)` pairs.
#[derive(Debug, Clone)]
pub struct RowBuilder {
    /// Arity of the `a` side: positions below it index `a`, the rest `b`.
    split: usize,
    /// Equalities over `a ++ b` positions a pair must satisfy beyond the
    /// key match.
    residual: Vec<(usize, usize)>,
    /// Emitted columns of `a`, then of `b` (positions within each side).
    from_a: Vec<usize>,
    from_b: Vec<usize>,
    schema: Schema,
}

impl RowBuilder {
    /// Every column of `a ++ b`, no residual: the plain concatenation.
    pub fn concat(a: &Schema, b: &Schema) -> RowBuilder {
        let all = (0..a.arity() + b.arity()).collect();
        RowBuilder::new(a, b, Vec::new(), all).expect("the full layout is a valid emit list")
    }

    /// Keep pairs satisfying every `residual` equality and emit the
    /// `emit` columns, both given as positions in `a ++ b`. `emit` must be
    /// strictly ascending: the output keeps the concatenation's order.
    pub fn new(
        a: &Schema,
        b: &Schema,
        residual: Vec<(usize, usize)>,
        emit: Vec<usize>,
    ) -> Result<RowBuilder> {
        let split = a.arity();
        let width = split + b.arity();
        if let Some(&(x, y)) = residual.iter().find(|&&(x, y)| x >= width || y >= width) {
            return Err(Error::Plan(format!(
                "residual ({x}, {y}) out of range for a join of width {width}"
            )));
        }
        if emit.windows(2).any(|w| w[0] >= w[1]) || emit.last().is_some_and(|&c| c >= width) {
            return Err(Error::Plan(format!(
                "emit list {emit:?} is not ascending within width {width}"
            )));
        }
        let schema = a.concat(b).project(&emit);
        let (from_a, from_b): (Vec<usize>, Vec<usize>) = emit.iter().partition(|&&c| c < split);
        Ok(RowBuilder {
            split,
            residual,
            from_a,
            from_b: from_b.into_iter().map(|c| c - split).collect(),
            schema,
        })
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Column `c` of the virtual row `a ++ b`.
    #[inline]
    fn col<'t>(&self, a: &'t Tuple, b: &'t Tuple, c: usize) -> &'t Value {
        if c < self.split {
            a.get(c)
        } else {
            b.get(c - self.split)
        }
    }

    /// Whether the pair satisfies every residual equality (nulls compare
    /// equal, as they do on the join key).
    #[inline]
    pub fn accepts(&self, a: &Tuple, b: &Tuple) -> bool {
        self.residual
            .iter()
            .all(|&(x, y)| self.col(a, b, x).eq_total(self.col(a, b, y)))
    }

    /// The output row for an accepted pair.
    #[inline]
    pub fn build(&self, a: &Tuple, b: &Tuple) -> Tuple {
        let a = a.values();
        let b = b.values();
        self.from_a
            .iter()
            .map(|&c| &a[c])
            .chain(self.from_b.iter().map(|&c| &b[c]))
            .cloned()
            .collect()
    }

    /// Join one matched pair into `out` if it passes the residual.
    #[inline]
    pub fn push(&self, a: &Tuple, b: &Tuple, out: &mut Batch) {
        if self.accepts(a, b) {
            out.push(self.build(a, b));
        }
    }

    /// Account for one push: `matched` key matches, of which `out` grew
    /// by `emitted`. The emitted rows are the operator's output; the
    /// residual checks are work, as a separate filter's input would be.
    pub fn count(&self, counters: &OpCounters, matched: u64, emitted: u64) {
        counters.add_out(emitted);
        counters.add_matches(matched);
        if !self.residual.is_empty() {
            counters.add_work(matched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field};

    fn schema(prefix: &str, n: usize) -> Schema {
        Schema::new(
            (0..n)
                .map(|i| Field::new(format!("{prefix}.c{i}"), DataType::Int))
                .collect(),
        )
    }

    fn t(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn concat_builds_the_full_row() {
        let rows = RowBuilder::concat(&schema("a", 2), &schema("b", 1));
        let (a, b) = (t(&[1, 2]), t(&[3]));
        assert!(rows.accepts(&a, &b));
        assert_eq!(rows.build(&a, &b), a.concat(&b));
        assert_eq!(rows.schema().arity(), 3);
    }

    #[test]
    fn emit_narrows_and_residual_filters() {
        let rows =
            RowBuilder::new(&schema("a", 3), &schema("b", 2), vec![(1, 4)], vec![0, 3]).unwrap();
        assert_eq!(
            rows.schema()
                .fields()
                .iter()
                .map(|f| f.name.as_str())
                .collect::<Vec<_>>(),
            ["a.c0", "b.c0"]
        );
        let mut out = Vec::new();
        rows.push(&t(&[1, 7, 2]), &t(&[5, 7]), &mut out);
        rows.push(&t(&[1, 8, 2]), &t(&[5, 7]), &mut out);
        assert_eq!(out, vec![t(&[1, 5])]);
        let a_only = RowBuilder::new(&schema("a", 2), &schema("b", 2), vec![], vec![1]).unwrap();
        assert_eq!(a_only.build(&t(&[1, 2]), &t(&[3, 4])), t(&[2]));
    }

    #[test]
    fn rejects_bad_layouts() {
        let (a, b) = (schema("a", 2), schema("b", 2));
        assert!(RowBuilder::new(&a, &b, vec![(0, 4)], vec![0]).is_err());
        assert!(RowBuilder::new(&a, &b, vec![], vec![1, 0]).is_err());
        assert!(RowBuilder::new(&a, &b, vec![], vec![4]).is_err());
    }
}
