//! Local in-memory source: every tuple available at time zero.

use tukwila_relation::{Schema, Tuple};

use crate::source::{Poll, Source, SourceProgressView};

/// A local table exposed as a sequential source. Used for the paper's
/// "local data" experiments, where running time isolates computation cost.
///
/// The source owns its rows and hands each one over exactly once: a poll
/// moves the next rows out instead of cloning them, so delivering a table
/// costs no reference-count traffic and a drained source drops nothing.
pub struct MemSource {
    rel_id: u32,
    name: String,
    schema: Schema,
    /// The rows not yet delivered, in table order.
    rows: std::vec::IntoIter<Tuple>,
    /// Rows in the table, delivered or not.
    total: usize,
    advertise_total: bool,
}

impl MemSource {
    pub fn new(rel_id: u32, name: impl Into<String>, schema: Schema, tuples: Vec<Tuple>) -> Self {
        MemSource {
            rel_id,
            name: name.into(),
            schema,
            total: tuples.len(),
            rows: tuples.into_iter(),
            advertise_total: false,
        }
    }

    /// Let the source advertise its total size (enables fraction-read
    /// progress; most data-integration sources do not).
    pub fn with_advertised_total(mut self) -> Self {
        self.advertise_total = true;
        self
    }
}

impl Source for MemSource {
    fn rel_id(&self) -> u32 {
        self.rel_id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, _now_us: u64, max_tuples: usize) -> Poll {
        if self.rows.as_slice().is_empty() {
            return Poll::Eof;
        }
        Poll::Ready(self.rows.by_ref().take(max_tuples).collect())
    }

    fn progress(&self) -> SourceProgressView {
        let read = self.total - self.rows.len();
        SourceProgressView {
            tuples_read: read as u64,
            fraction_read: if self.advertise_total && self.total > 0 {
                Some(read as f64 / self.total as f64)
            } else {
                None
            },
            eof: self.rows.as_slice().is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field, Value};

    fn src(n: i64) -> MemSource {
        let schema = Schema::new(vec![Field::new("t.x", DataType::Int)]);
        let tuples = (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        MemSource::new(1, "t", schema, tuples)
    }

    #[test]
    fn drains_in_batches() {
        let mut s = src(10);
        let mut got = 0;
        loop {
            match s.poll(0, 4) {
                Poll::Ready(b) => got += b.len(),
                Poll::Eof => break,
                Poll::Pending { .. } => panic!("mem source never pends"),
            }
        }
        assert_eq!(got, 10);
        assert!(s.progress().eof);
        assert_eq!(s.progress().tuples_read, 10);
    }

    #[test]
    fn sequential_order_preserved() {
        let mut s = src(100);
        let mut all = Vec::new();
        while let Poll::Ready(b) = s.poll(0, 7) {
            all.extend(b);
        }
        let vals: Vec<i64> = all.iter().map(|t| t.get(0).as_int().unwrap()).collect();
        assert_eq!(vals, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fraction_hidden_by_default() {
        let mut s = src(10);
        let _ = s.poll(0, 5);
        assert_eq!(s.progress().fraction_read, None);
        let mut s2 = src(10).with_advertised_total();
        let _ = s2.poll(0, 5);
        assert_eq!(s2.progress().fraction_read, Some(0.5));
    }

    #[test]
    fn hands_rows_over_with_exact_progress() {
        let input: Vec<Tuple> = (0..10).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let storage: Vec<*const Value> = input.iter().map(|t| t.values().as_ptr()).collect();
        let schema = Schema::new(vec![Field::new("t.x", DataType::Int)]);
        let mut s = MemSource::new(1, "t", schema, input).with_advertised_total();
        let mut got = Vec::new();
        // Zero, one, a middle size, then more than the remainder.
        for max in [0, 1, 0, 4, 1, 100, 3] {
            let before = got.len();
            match s.poll(0, max) {
                Poll::Ready(b) => {
                    assert_eq!(b.len(), max.min(10 - before), "max {max}");
                    got.extend(b);
                }
                Poll::Eof => assert_eq!(before, 10, "early eof"),
                Poll::Pending { .. } => panic!("mem source never pends"),
            }
            let p = s.progress();
            assert_eq!(p.tuples_read, got.len() as u64);
            assert_eq!(p.fraction_read, Some(got.len() as f64 / 10.0));
            assert_eq!(p.eof, got.len() == 10);
        }
        assert_eq!(s.poll(0, 0), Poll::Eof);
        let delivered: Vec<*const Value> = got.iter().map(|t| t.values().as_ptr()).collect();
        assert_eq!(delivered, storage, "rows are moved out, not copied");
    }

    #[test]
    fn empty_source_is_immediately_eof() {
        let mut s = src(0);
        assert_eq!(s.poll(0, 8), Poll::Eof);
        assert!(s.progress().eof);
    }
}
