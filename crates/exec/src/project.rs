//! Projection operator (column selection and computed expressions).

use std::sync::Arc;

use tukwila_relation::{Expr, Result, Schema, Tuple};
use tukwila_stats::OpCounters;

use crate::op::{Batch, IncOp};

/// Pipelined projection: each output attribute is a scalar expression over
/// the input tuple.
pub struct ProjectOp {
    exprs: Vec<Expr>,
    schema: Schema,
    counters: Arc<OpCounters>,
}

impl ProjectOp {
    /// A projection evaluating `exprs` into tuples of `schema`.
    pub fn new(exprs: Vec<Expr>, schema: Schema) -> ProjectOp {
        ProjectOp {
            exprs,
            schema,
            counters: OpCounters::new(),
        }
    }

    /// Pure column projection.
    pub fn columns(cols: &[usize], input_schema: &Schema) -> ProjectOp {
        let exprs = cols.iter().map(|&c| Expr::Col(c)).collect();
        ProjectOp::new(exprs, input_schema.project(cols))
    }
}

impl IncOp for ProjectOp {
    fn name(&self) -> &str {
        "project"
    }

    fn inputs(&self) -> usize {
        1
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn push(&mut self, _port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        self.counters.add_in(batch.len() as u64);
        for t in batch {
            let mut vals = Vec::with_capacity(self.exprs.len());
            for e in &self.exprs {
                vals.push(e.eval(t)?);
            }
            out.push(Tuple::new(vals));
        }
        self.counters.add_out(batch.len() as u64);
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
    use tukwila_relation::{DataType, Field, Value};

    #[test]
    fn projects_columns() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let mut p = ProjectOp::columns(&[1], &schema);
        let mut out = Vec::new();
        p.push(
            0,
            &[Tuple::new(vec![Value::Int(1), Value::Int(2)])],
            &mut out,
        )
        .unwrap();
        assert_eq!(out[0].arity(), 1);
        assert_eq!(out[0].get(0).as_int().unwrap(), 2);
        assert_eq!(p.schema().field(0).name, "b");
    }

    #[test]
    fn computes_expressions() {
        use tukwila_relation::expr::ArithOp;
        let schema = Schema::new(vec![Field::new("sum", DataType::Int)]);
        let e = Expr::Arith(Box::new(Expr::Col(0)), ArithOp::Add, Box::new(Expr::Col(1)));
        let mut p = ProjectOp::new(vec![e], schema);
        let mut out = Vec::new();
        p.push(
            0,
            &[Tuple::new(vec![Value::Int(3), Value::Int(4)])],
            &mut out,
        )
        .unwrap();
        assert_eq!(out[0].get(0).as_int().unwrap(), 7);
    }
}
