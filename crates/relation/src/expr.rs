//! Scalar expressions and predicates for select-project-join-aggregate
//! queries (the query model of the paper's optimizer, §4.3).

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

use crate::error::{Error, Result};
use crate::schema::Schema;
use crate::text::Text;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, ord: Ordering, eq: bool) -> bool {
        match self {
            CmpOp::Eq => eq,
            CmpOp::Ne => !eq,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Arithmetic operators (used by derived measures such as
/// `l_extendedprice * (1 - l_discount)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        f.write_str(s)
    }
}

/// A scalar expression over one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by position.
    Col(usize),
    /// Literal.
    Lit(Value),
    /// Comparison; evaluates to `Bool`.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction.
    And(Vec<Expr>),
    /// Disjunction.
    Or(Vec<Expr>),
    Not(Box<Expr>),
    /// Arithmetic on numerics (result is `Float` unless both are `Int` and
    /// the op is not `Div`).
    Arith(Box<Expr>, ArithOp, Box<Expr>),
}

impl Expr {
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(lhs), CmpOp::Eq, Box::new(rhs))
    }

    pub fn cmp(lhs: Expr, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp(Box::new(lhs), op, Box::new(rhs))
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, t: &Tuple) -> Result<Value> {
        match self {
            Expr::Col(i) => {
                if *i >= t.arity() {
                    return Err(Error::Exec(format!(
                        "column {i} out of range for tuple of arity {}",
                        t.arity()
                    )));
                }
                Ok(t.get(*i).clone())
            }
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(l, op, r) => {
                let lv = l.eval(t)?;
                let rv = r.eval(t)?;
                Ok(Value::Bool(compare(&lv, *op, &rv)))
            }
            Expr::And(es) => {
                for e in es {
                    if !e.eval(t)?.as_bool()? {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
            Expr::Or(es) => {
                for e in es {
                    if e.eval(t)?.as_bool()? {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::Not(e) => Ok(Value::Bool(!e.eval(t)?.as_bool()?)),
            Expr::Arith(l, op, r) => {
                let lv = l.eval(t)?;
                let rv = r.eval(t)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                eval_arith(&lv, *op, &rv)
            }
        }
    }

    /// Evaluate as a predicate. Same answer as `eval(t)?.as_bool()`, but
    /// comparisons and connectives read their operands in place: a column
    /// borrows from the tuple and a literal from the expression, so a
    /// string compare touches no reference count.
    pub fn matches(&self, t: &Tuple) -> Result<bool> {
        self.matches_with(&|i| t.values().get(i))
    }

    /// [`Expr::matches`] with column `i` read through `col(i)` (`None`
    /// when out of range): the recursion behind `matches` and the
    /// predicate operands of comparisons.
    fn matches_with<'v>(&'v self, col: &impl Fn(usize) -> Option<&'v Value>) -> Result<bool> {
        match self {
            Expr::Cmp(l, op, r) => {
                let lv = l.operand(col)?;
                let rv = r.operand(col)?;
                Ok(compare(&lv, *op, &rv))
            }
            Expr::And(es) => {
                for e in es {
                    if !e.matches_with(col)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Expr::Or(es) => {
                for e in es {
                    if e.matches_with(col)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Expr::Not(e) => Ok(!e.matches_with(col)?),
            other => other.operand(col)?.as_bool(),
        }
    }

    /// The value of this expression as a comparison operand: borrowed for
    /// columns and literals, computed otherwise.
    fn operand<'v>(&'v self, col: &impl Fn(usize) -> Option<&'v Value>) -> Result<Cow<'v, Value>> {
        match self {
            Expr::Col(i) => col(*i).map(Cow::Borrowed).ok_or_else(|| out_of_range(*i)),
            Expr::Lit(v) => Ok(Cow::Borrowed(v)),
            Expr::Arith(l, op, r) => {
                let lv = l.operand(col)?;
                let rv = r.operand(col)?;
                if lv.is_null() || rv.is_null() {
                    return Ok(Cow::Owned(Value::Null));
                }
                eval_arith(&lv, *op, &rv).map(Cow::Owned)
            }
            pred => pred.matches_with(col).map(|b| Cow::Owned(Value::Bool(b))),
        }
    }

    /// All column indices referenced by this expression.
    pub fn columns(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_columns(&self, out: &mut Vec<usize>) {
        match self {
            Expr::Col(i) => out.push(*i),
            Expr::Lit(_) => {}
            Expr::Cmp(l, _, r) | Expr::Arith(l, _, r) => {
                l.collect_columns(out);
                r.collect_columns(out);
            }
            Expr::And(es) | Expr::Or(es) => {
                for e in es {
                    e.collect_columns(out);
                }
            }
            Expr::Not(e) => e.collect_columns(out),
        }
    }

    /// Rewrite column indices through a mapping (`new_index = f(old_index)`),
    /// used when predicates are pushed through projections or when a plan is
    /// re-rooted over a different physical layout.
    pub fn remap_columns(&self, f: &impl Fn(usize) -> usize) -> Expr {
        match self {
            Expr::Col(i) => Expr::Col(f(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(l, op, r) => Expr::Cmp(
                Box::new(l.remap_columns(f)),
                *op,
                Box::new(r.remap_columns(f)),
            ),
            Expr::And(es) => Expr::And(es.iter().map(|e| e.remap_columns(f)).collect()),
            Expr::Or(es) => Expr::Or(es.iter().map(|e| e.remap_columns(f)).collect()),
            Expr::Not(e) => Expr::Not(Box::new(e.remap_columns(f))),
            Expr::Arith(l, op, r) => Expr::Arith(
                Box::new(l.remap_columns(f)),
                *op,
                Box::new(r.remap_columns(f)),
            ),
        }
    }
}

/// The comparison every evaluator shares: SQL three-valued logic
/// collapsed to false for filtering purposes when either side is null,
/// otherwise `op` over [`Value::cmp_total`].
fn compare(l: &Value, op: CmpOp, r: &Value) -> bool {
    if l.is_null() || r.is_null() {
        return false;
    }
    let ord = l.cmp_total(r);
    op.eval(ord, ord == Ordering::Equal)
}

fn out_of_range(i: usize) -> Error {
    Error::Exec(format!("column {i} out of range"))
}

/// A filter predicate compiled once against its input's [`Schema`].
///
/// A `Col op Lit` comparison whose column is declared with the literal's
/// type becomes a typed leaf that reads the row's value directly: string
/// `=`/`<>` compares lengths, then bytes; dates compare as day numbers.
/// (These are the forms the workload queries filter on.) A value of any
/// other variant (a null, an int in a date column, a row its schema
/// misdeclares) takes the generic comparison.
/// Every other form stays an [`Expr`] leaf. [`Predicate::matches`]
/// therefore answers exactly as [`Expr::matches`] does, errors included,
/// and `Expr::matches` stays the independent oracle.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// `col = lit`, or `col <> lit` when `negated`, on a string column.
    StrEq {
        col: usize,
        lit: Text,
        negated: bool,
    },
    /// `col op lit` on a date column.
    Date {
        col: usize,
        op: CmpOp,
        lit: i32,
    },
    And(Vec<Predicate>),
    Or(Vec<Predicate>),
    Not(Box<Predicate>),
    /// Any other form, evaluated by [`Expr::matches`].
    Expr(Expr),
}

impl Predicate {
    /// Compile `e` for rows of `schema`.
    pub fn compile(e: &Expr, schema: &Schema) -> Predicate {
        let all = |es: &[Expr]| es.iter().map(|e| Predicate::compile(e, schema)).collect();
        match e {
            Expr::And(es) => Predicate::And(all(es)),
            Expr::Or(es) => Predicate::Or(all(es)),
            Expr::Not(e) => Predicate::Not(Box::new(Predicate::compile(e, schema))),
            Expr::Cmp(l, op, r) => match (&**l, &**r) {
                (&Expr::Col(col), Expr::Lit(lit)) if col < schema.arity() => {
                    match (schema.field(col).dtype, lit, *op) {
                        (DataType::Str, Value::Str(s), CmpOp::Eq | CmpOp::Ne) => Predicate::StrEq {
                            col,
                            lit: s.clone(),
                            negated: *op == CmpOp::Ne,
                        },
                        (DataType::Date, &Value::Date(lit), op) => Predicate::Date { col, op, lit },
                        _ => Predicate::Expr(e.clone()),
                    }
                }
                _ => Predicate::Expr(e.clone()),
            },
            _ => Predicate::Expr(e.clone()),
        }
    }

    /// Whether `t` passes; the same answer as [`Expr::matches`] on the
    /// expression this was compiled from.
    pub fn matches(&self, t: &Tuple) -> Result<bool> {
        let col = |i: usize| t.values().get(i).ok_or_else(|| out_of_range(i));
        match self {
            Predicate::StrEq {
                col: i,
                lit,
                negated,
            } => Ok(match col(*i)? {
                // Identity, then lengths and bytes (`Text`'s `==`).
                Value::Str(s) => (s == lit) != *negated,
                other => {
                    let op = if *negated { CmpOp::Ne } else { CmpOp::Eq };
                    compare(other, op, &Value::Str(lit.clone()))
                }
            }),
            Predicate::Date { col: i, op, lit } => Ok(match col(*i)? {
                Value::Date(x) => op.eval(x.cmp(lit), x == lit),
                other => compare(other, *op, &Value::Date(*lit)),
            }),
            Predicate::And(ps) => {
                for p in ps {
                    if !p.matches(t)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Predicate::Or(ps) => {
                for p in ps {
                    if p.matches(t)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Predicate::Not(p) => Ok(!p.matches(t)?),
            Predicate::Expr(e) => e.matches(t),
        }
    }
}

fn eval_arith(l: &Value, op: ArithOp, r: &Value) -> Result<Value> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        match op {
            ArithOp::Add => return Ok(Value::Int(a.wrapping_add(*b))),
            ArithOp::Sub => return Ok(Value::Int(a.wrapping_sub(*b))),
            ArithOp::Mul => return Ok(Value::Int(a.wrapping_mul(*b))),
            ArithOp::Div => {} // fall through to float division
        }
    }
    let a = l.as_float()?;
    let b = r.as_float()?;
    let v = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
    };
    Ok(Value::Float(v))
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(i) => write!(f, "${i}"),
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Cmp(l, op, r) => write!(f, "({l} {op} {r})"),
            Expr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " AND ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " OR ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "NOT {e}"),
            Expr::Arith(l, op, r) => write!(f, "({l} {op} {r})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn comparison_and_logic() {
        let row = t(vec![Value::Int(5), Value::str("BUILDING")]);
        let p = Expr::And(vec![
            Expr::cmp(Expr::Col(0), CmpOp::Gt, Expr::Lit(Value::Int(3))),
            Expr::eq(Expr::Col(1), Expr::Lit(Value::str("BUILDING"))),
        ]);
        assert!(p.matches(&row).unwrap());
        let q = Expr::Not(Box::new(p));
        assert!(!q.matches(&row).unwrap());
    }

    #[test]
    fn or_short_circuits_true() {
        let row = t(vec![Value::Int(1)]);
        let p = Expr::Or(vec![
            Expr::eq(Expr::Col(0), Expr::Lit(Value::Int(1))),
            Expr::eq(Expr::Col(0), Expr::Lit(Value::Int(2))),
        ]);
        assert!(p.matches(&row).unwrap());
    }

    #[test]
    fn null_comparisons_are_false() {
        let row = t(vec![Value::Null]);
        let p = Expr::eq(Expr::Col(0), Expr::Lit(Value::Int(1)));
        assert!(!p.matches(&row).unwrap());
        let p2 = Expr::cmp(Expr::Col(0), CmpOp::Ne, Expr::Lit(Value::Int(1)));
        assert!(!p2.matches(&row).unwrap());
    }

    #[test]
    fn arithmetic_int_and_float() {
        let row = t(vec![Value::Int(10), Value::Float(0.25)]);
        // 10 * (1 - 0.25) = 7.5
        let e = Expr::Arith(
            Box::new(Expr::Col(0)),
            ArithOp::Mul,
            Box::new(Expr::Arith(
                Box::new(Expr::Lit(Value::Float(1.0))),
                ArithOp::Sub,
                Box::new(Expr::Col(1)),
            )),
        );
        assert_eq!(e.eval(&row).unwrap().as_float().unwrap(), 7.5);
        // Int division promotes to float.
        let d = Expr::Arith(
            Box::new(Expr::Col(0)),
            ArithOp::Div,
            Box::new(Expr::Lit(Value::Int(4))),
        );
        assert_eq!(d.eval(&row).unwrap().as_float().unwrap(), 2.5);
    }

    #[test]
    fn arithmetic_with_null_is_null() {
        let row = t(vec![Value::Null]);
        let e = Expr::Arith(
            Box::new(Expr::Col(0)),
            ArithOp::Add,
            Box::new(Expr::Lit(Value::Int(1))),
        );
        assert!(e.eval(&row).unwrap().is_null());
    }

    #[test]
    fn columns_are_collected_and_deduped() {
        let e = Expr::And(vec![
            Expr::eq(Expr::Col(2), Expr::Col(0)),
            Expr::cmp(Expr::Col(2), CmpOp::Lt, Expr::Lit(Value::Int(9))),
        ]);
        assert_eq!(e.columns(), vec![0, 2]);
    }

    #[test]
    fn remap_columns_applies_function() {
        let e = Expr::eq(Expr::Col(1), Expr::Col(3));
        let r = e.remap_columns(&|c| c + 10);
        assert_eq!(r.columns(), vec![11, 13]);
    }

    #[test]
    fn out_of_range_column_is_error() {
        let row = t(vec![Value::Int(1)]);
        assert!(Expr::Col(5).eval(&row).is_err());
    }

    fn typed_schema() -> Schema {
        Schema::new(vec![
            crate::Field::new("t.s", DataType::Str),
            crate::Field::new("t.i", DataType::Int),
            crate::Field::new("t.d", DataType::Date),
        ])
    }

    #[test]
    fn typed_leaves_compile_from_matching_literals() {
        let schema = typed_schema();
        let s = Predicate::compile(&Expr::eq(Expr::Col(0), Expr::Lit(Value::str("R"))), &schema);
        assert!(matches!(
            s,
            Predicate::StrEq {
                col: 0,
                negated: false,
                ..
            }
        ));
        let d = Expr::cmp(Expr::Col(2), CmpOp::Ge, Expr::Lit(Value::Date(9)));
        let n = Predicate::compile(&Expr::Not(Box::new(d)), &schema);
        assert!(matches!(n, Predicate::Not(ref p) if matches!(**p, Predicate::Date { .. })));
        // String ordering, an int column, a literal of another type, a
        // column beyond the schema and a literal on the left all stay
        // generic.
        for e in [
            Expr::cmp(Expr::Col(0), CmpOp::Lt, Expr::Lit(Value::str("R"))),
            Expr::cmp(Expr::Col(1), CmpOp::Lt, Expr::Lit(Value::Int(3))),
            Expr::eq(Expr::Col(1), Expr::Lit(Value::Float(1.0))),
            Expr::eq(Expr::Col(3), Expr::Lit(Value::Int(1))),
            Expr::eq(Expr::Lit(Value::Int(1)), Expr::Col(1)),
        ] {
            assert_eq!(Predicate::compile(&e, &schema), Predicate::Expr(e));
        }
    }

    #[test]
    fn typed_leaves_fall_back_on_other_variants() {
        let schema = typed_schema();
        let rows = [
            t(vec![Value::str("R"), Value::Int(2), Value::Date(9)]),
            t(vec![Value::Null, Value::Null, Value::Null]),
            t(vec![Value::Int(1), Value::Float(2.0), Value::Int(9)]),
            t(vec![Value::str("")]),
        ];
        let exprs = [
            Expr::eq(Expr::Col(0), Expr::Lit(Value::str("R"))),
            Expr::cmp(Expr::Col(0), CmpOp::Ne, Expr::Lit(Value::str("R"))),
            Expr::Not(Box::new(Expr::eq(Expr::Col(0), Expr::Lit(Value::str("R"))))),
            Expr::cmp(Expr::Col(1), CmpOp::Le, Expr::Lit(Value::Int(2))),
            Expr::cmp(Expr::Col(2), CmpOp::Ge, Expr::Lit(Value::Date(9))),
        ];
        for e in &exprs {
            let p = Predicate::compile(e, &schema);
            for row in &rows {
                match (p.matches(row), e.matches(row)) {
                    (Ok(got), Ok(want)) => assert_eq!(got, want, "{e} on {row:?}"),
                    (Err(_), Err(_)) => {}
                    (got, want) => panic!("{e} on {row:?}: {got:?} vs {want:?}"),
                }
            }
        }
        // Null compares false, so its negation passes.
        assert!(Predicate::compile(&exprs[2], &schema)
            .matches(&rows[1])
            .unwrap());
        // The short row has no column 1.
        assert!(Predicate::compile(&exprs[3], &schema)
            .matches(&rows[3])
            .is_err());
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::eq(Expr::Col(0), Expr::Lit(Value::Int(7)));
        assert_eq!(e.to_string(), "($0 = 7)");
    }
}
