//! State structures for the `tukwila` engine (paper §3.1).
//!
//! The paper decouples stateful operators into *state structures* (the data
//! the operator accumulates: join inputs, partial aggregates) and *iterator
//! modules* (the access pattern: build-then-probe, data-availability-driven,
//! merge-driven). This crate provides the state-structure half:
//!
//! * [`hash_table::TupleHashTable`] — equi-key hash table (one
//!   insertion-ordered row store with per-key chains): what every plan
//!   join buffers its inputs in.
//! * [`sorted_list::SortedList`] — list maintained in sort order: the
//!   complementary join pair's merge side (§5).
//!
//! Every structure lives in memory; no operator has a memory budget.
//!
//! Every structure advertises its properties ([`state::StructProps`]) so the
//! router and re-optimizer can reason about what an existing structure
//! supports (keyed access, ordering), and implements the shared read-view
//! trait [`state::StateStructure`] so intermediate results can be *shared
//! across plans* — the enabler for stitch-up reuse. The
//! [`registry::StateRegistry`] records every materialized subexpression
//! (plan/phase id, logical expression, cardinality) exactly as §3.4.2
//! describes, and keeps the reuse/discard accounting reported in the paper's
//! Tables 1 and 2.

#![forbid(unsafe_code)]

pub mod fx;
pub mod hash_table;
pub mod registry;
pub mod sorted_list;
pub mod state;

pub use hash_table::TupleHashTable;
pub use registry::{ExprSig, StateRegistry};
pub use sorted_list::SortedList;
pub use state::{StateStructure, StructProps};
