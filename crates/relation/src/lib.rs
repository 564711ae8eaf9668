//! Tuple, value, schema, and expression layer for the `tukwila` adaptive
//! query engine.
//!
//! This crate is the bottom-most substrate of the workspace: every other
//! crate (state structures, operators, optimizer, the ADP runtime) builds on
//! the types defined here.
//!
//! Highlights:
//!
//! * [`Value`] / [`Key`] — dynamically typed attribute values, plus a
//!   hashable/orderable key form used by join and grouping operators. Both
//!   are 16 bytes: a string is a [`Text`], a reference-counted immutable
//!   string one pointer wide (count and length sit in front of the bytes).
//! * [`Tuple`] — a cheap-to-clone, immutable row (`Arc<[Value]>`, 16 bytes
//!   per value). Tuples in the paper are "vectors of pointers to individual
//!   attribute value containers"; `Arc` cloning of rows and of strings
//!   gives us the same zero-copy sharing.
//! * [`TupleAdapter`] — permutes attribute order between physically
//!   different layouts of the same logical schema (paper §3.2, "tuple
//!   order-incompatibility").
//! * [`Schema`] — named, typed attribute lists with qualified names.
//! * [`Expr`] — scalar expressions and predicates for
//!   select-project-join-aggregate queries; [`Predicate`] is a filter
//!   predicate compiled against its input's schema.
//! * [`agg`] — aggregate functions (`min`/`max`/`sum`/`count`/`avg`) with
//!   *mergeable* accumulator state, the algebraic property (distributivity
//!   over union) that adaptive data partitioning relies on.

#![deny(unsafe_code)]

pub mod agg;
pub mod error;
pub mod expr;
pub mod schema;
pub mod sort;
#[allow(unsafe_code)]
pub mod text;
pub mod tuple;
pub mod value;

pub use error::{Error, Result};
pub use expr::{CmpOp, Expr, Predicate};
pub use schema::{Field, Schema};
pub use sort::{cmp_tuples, SortKey};
pub use text::Text;
pub use tuple::{Tuple, TupleAdapter};
pub use value::{DataType, Key, Value};
