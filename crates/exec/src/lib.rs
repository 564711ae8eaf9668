#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Pipelined query operators and the incremental, push-based execution
//! engine (paper §3).
//!
//! Tukwila's executor is fully pipelined: joins are symmetric
//! (data-availability-driven) so that any prefix of the source data leaves
//! the plan in a *consistent state* — the property adaptive data
//! partitioning needs in order to suspend one plan mid-stream and route the
//! remaining source tuples to another. This crate provides:
//!
//! * [`op::IncOp`] — the incremental operator protocol (push batches in,
//!   cascaded outputs come out; every operator maintains the §3.3 counters
//!   and can expose its state structures for reuse, §3.1).
//! * [`plan::PipelinePlan`] — an operator tree with leaf bindings to source
//!   relations, batch cascade, and `seal()` to extract state structures
//!   into the registry when a phase ends.
//! * Operators: filter, project, the pipelined (symmetric) hash join that
//!   every plan join is, the merge join of the complementary pair (§5),
//!   blocking hash aggregation, the shared group-by table that survives
//!   across plans (Figure 1), adjustable-window pre-aggregation and the
//!   pseudogroup operator (§3.2, §6).
//! * [`split::Router`] and the cross-thread [`queue::queue_pair`] — the
//!   special operators for sharing data between subplans.
//! * [`driver::SimDriver`] — single-plan execution against sources, under
//!   either clock of the dual-clock design: the simulated
//!   [`tukwila_stats::VirtualClock`] (deterministic, idle time is free) or
//!   a real [`tukwila_stats::WallClock`] (idle time really sleeps, sources
//!   may be fed by concurrent producer threads).
//! * [`reference::RefQuery`] — a naive full-materialization executor used
//!   as a correctness oracle by the test suite.

pub mod agg;
pub mod driver;
pub mod filter;
pub mod fragments;
pub mod join;
pub mod metrics;
pub mod op;
pub mod plan;
pub mod project;
pub mod queue;
pub mod reference;
pub mod split;

pub use driver::{CpuCostModel, PushTarget, SimDriver, Timeline};
pub use fragments::{
    is_exchange, ExchangeSource, Fragment, FragmentOptions, FragmentPlan, FragmentRun,
    FragmentSourceProgress, QuiesceHandle, SealedOutcome, EXCHANGE_REL_BASE,
};
pub use metrics::ExecReport;
pub use op::{Batch, ExtractedState, IncOp};
pub use plan::{PipelinePlan, PlanBuilder};
pub use queue::{queue_pair, QueueReader, QueueWriter, TryRecv};
