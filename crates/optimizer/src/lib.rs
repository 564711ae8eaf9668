//! The Tukwila query optimizer / re-optimizer (paper §4.2–§4.3).
//!
//! "Top-down enumeration (recursion with memoization, equivalent to dynamic
//! programming but more flexible for sharing subexpressions between
//! optimizer re-invocations) \[that\] mostly follows the System-R model",
//! with:
//!
//! * **bushy-tree enumeration** (important for data integration, per the
//!   paper's citations of [11, 8]),
//! * **pre-aggregation push-down** in the style the paper adopts from
//!   Chaudhuri & Shim (\[4\]), emitting adjustable-window or pseudogroup
//!   operators so every plan is schema-compatible (§3.2),
//! * a **cost re-estimator** that folds in runtime observations: observed
//!   subexpression selectivities (shared across all logically equivalent
//!   subexpressions), extrapolated source cardinalities, the
//!   parent-expression key–foreign-key speculation, and multiplicative-join
//!   flags (§4.2),
//! * **sunk-cost-aware re-planning**: when invoked mid-execution the
//!   optimizer costs plans over the *remaining* source data, which is what
//!   corrective query processing compares against the current plan.
//!
//! The optimizer emits a [`phys::PhysPlan`] — a physical operator tree with
//! resolved schemas and column maps — which `tukwila-core` lowers onto the
//! execution engine.

#![forbid(unsafe_code)]

pub mod cost;
pub mod enumerate;
pub mod fragment;
pub mod logical;
pub mod phys;
pub mod preagg;

pub use cost::{CostModel, OptimizerContext, PreAggConfig};
pub use enumerate::Optimizer;
pub use fragment::{choose_cuts, choose_cuts_traced, FragmentationConfig};
pub use logical::{AggRef, JoinPred, LogicalQuery, QueryAgg, QueryRel};
pub use phys::{PhysAgg, PhysKind, PhysNode, PhysPlan, PreAggMode};
