//! Shared experiment infrastructure for the `repro` harness and the
//! Criterion benches: dataset/source construction, strategy runners, and
//! plain-text table formatting.
//!
//! Every table and figure of the paper maps to one function in
//! [`experiments`]; the `repro` binary is a thin CLI over them. Recorded
//! results live in `results/` (see `results/README.md`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod fmt;
pub mod setup;

pub use setup::{ExpConfig, WorkloadQuery};
