//! Selection operator.

use std::sync::Arc;

use tukwila_relation::{Expr, Predicate, Result, Schema, Tuple};
use tukwila_stats::OpCounters;

use crate::op::{Batch, IncOp};

/// Pipelined selection: passes tuples matching a predicate, compiled
/// once against the input's schema.
pub struct FilterOp {
    predicate: Predicate,
    schema: Schema,
    counters: Arc<OpCounters>,
}

impl FilterOp {
    /// A filter keeping tuples for which `predicate` evaluates true.
    pub fn new(predicate: Expr, schema: Schema) -> FilterOp {
        FilterOp {
            predicate: Predicate::compile(&predicate, &schema),
            schema,
            counters: OpCounters::new(),
        }
    }
}

impl IncOp for FilterOp {
    fn name(&self) -> &str {
        "filter"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn push(&mut self, _port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        self.counters.add_in(batch.len() as u64);
        let before = out.len();
        for t in batch {
            if self.predicate.matches(t)? {
                out.push(t.clone());
            }
        }
        self.counters.add_out((out.len() - before) as u64);
        self.counters.add_work(batch.len() as u64);
        Ok(())
    }

    fn counters(&self) -> &Arc<OpCounters> {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{CmpOp, DataType, Field, Value};

    #[test]
    fn filters_and_counts() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let pred = Expr::cmp(Expr::Col(0), CmpOp::Ge, Expr::Lit(Value::Int(5)));
        let mut f = FilterOp::new(pred, schema);
        let batch: Vec<Tuple> = (0..10).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let mut out = Vec::new();
        f.push(0, &batch, &mut out).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(f.counters().tuples_in(), 10);
        assert_eq!(f.counters().tuples_out(), 5);
        assert_eq!(f.counters().ratio(), Some(0.5));
    }
}
