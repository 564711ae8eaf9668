//! Adaptive data partitioning (ADP) — the paper's core contribution.
//!
//! ADP "dynamically divides query processing work across multiple different
//! plans", relying on the distributivity of union through
//! select/project/join and (decomposed) aggregation:
//!
//! ```text
//! R1 ⋈ … ⋈ Rm = ⋃ over (c1,…,cm) of (R1^c1 ⋈ … ⋈ Rm^cm)
//! ```
//!
//! The phase plans compute the "diagonal" terms (all superscripts equal);
//! the stitch-up phase computes the `n^m − n` cross terms, reusing
//! registered intermediate state wherever possible. This crate implements:
//!
//! * [`corrective`] — **corrective query processing** (§4): monitor the
//!   running plan, re-optimize in the background with observed statistics,
//!   switch plans mid-pipeline, stitch up at the end.
//! * [`stitchup`] — the stitch-up executor (§3.4): partition-labelled
//!   evaluation over the final plan tree with registry reuse and exclusion.
//! * [`complementary`] — the **complementary join pair** (§5): a merge join
//!   and a pipelined hash join sharing four hash tables behind an
//!   order-conformance router (optionally with a priority queue), plus its
//!   mini-stitch-up.
//! * [`lowering`] — physical plan → pipelined executable plan, including
//!   the canonical answer projection and the shared group-by table that
//!   persists across phases (Figure 1).
//! * [`baselines`] — static optimization and plan-partitioning
//!   (materialize-and-reoptimize) baselines for Figure 2/3.
//! * [`pushdown`] — projection pushdown: every entry point that owns
//!   sources asks them, before the first poll, for only the base columns
//!   the query reads.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod complementary;
pub mod corrective;
pub mod lowering;
pub mod pushdown;
pub mod stitchup;

pub use baselines::{
    run_plan_partitioning, run_plan_partitioning_from, run_static, run_static_from,
    run_static_with_driver, StaticRun,
};
pub use complementary::{ComplementaryJoinPair, ComplementaryStats, RouterKind};
pub use corrective::{CorrectiveConfig, CorrectiveExec, CorrectiveReport, PhaseInfo};
pub use lowering::{lower_fragmented, lower_plan, FragmentedLower, LoweredPlan};
pub use stitchup::{StitchUp, StitchUpStats};
