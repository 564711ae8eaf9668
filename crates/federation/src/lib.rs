#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Federated source catalog and online source-permutation scheduling.
//!
//! The paper's engine adapts to the *properties* of each source — delivery
//! rate, burstiness, order, cardinality — but the seed system wires exactly
//! one [`Source`](tukwila_source::Source) per base relation, so there is
//! nothing to choose between when a source misbehaves. Real mediators face
//! the opposite situation: relations are served by several overlapping or
//! mirrored sources, and *which* source to read, in *what order*, is an
//! online decision (cf. "Online Query Scheduling on Source Permutation for
//! Big Data Integration", arXiv:1503.08400, and "Data Source Selection for
//! Information Integration in Big Data Era", arXiv:1610.09506).
//!
//! This crate adds that layer:
//!
//! * [`catalog::FederatedCatalog`] — registers N candidate sources per
//!   base relation: full mirrors (identical content, different delivery
//!   behavior) and [`catalog::PartialReplica`]s that jointly cover the
//!   relation.
//! * [`profile::BehaviorProfile`] — per-candidate statistics learned
//!   online under the virtual clock, built on
//!   [`tukwila_stats::RateEstimator`]: delivery rate, EWMA inter-arrival
//!   gap, burst variance, stall and duplicate counts.
//! * [`scheduler::PermutationScheduler`] — maintains the source
//!   permutation: poll the best-ranked candidate, consider a hedge when
//!   the active one is silent past its profile-derived threshold
//!   (`ewma_gap + k·σ`), and start the race only when the shared
//!   [`tukwila_stats::DeliveryModel`]'s expected latency win exceeds the
//!   modeled waste (duplicate dedup work, queue backpressure, core
//!   contention); re-rank as evidence accumulates, and skip standbys
//!   whose declared key range drained replicas already delivered.
//! * [`federated::FederatedSource`] — wraps it all behind the ordinary
//!   [`Source`](tukwila_source::Source) trait with key-based dedup, so
//!   `SimDriver`, `CorrectiveExec`, and every baseline run over mirrored
//!   sources unchanged. Each candidate sits behind a *lane* whose kind
//!   is fixed at construction: [`FederatedSource::new`] polls candidates
//!   inline on the calling thread, [`FederatedSource::threaded`] races
//!   them for real — one producer thread per candidate behind a bounded
//!   `tukwila_exec::queue_pair` queue, consumed and re-ranked from real
//!   arrival timestamps. One sweep loop serves both. Its observed
//!   arrival schedule is published through `Source::observed_schedule`,
//!   which corrective re-optimization forwards into the optimizer's
//!   schedule-aware overlap costing.
//!
//! Time comes from a [`tukwila_stats::Clock`] — the dual-clock design.
//! Under the default [`tukwila_stats::VirtualClock`] federated executions
//! are deterministic and replayable (the acceptance property: any source
//! permutation yields the same final answer, and the adaptive permutation
//! completes no later than the worst static choice). Under a
//! [`tukwila_stats::WallClock`] the mirrors race on real threads, and the
//! invariant becomes: the *deduped answer set* is identical to the
//! virtual run's, whatever the interleaving.

pub mod catalog;
pub mod federated;
mod lane;
pub mod learning;
pub mod profile;
pub mod scheduler;

pub use catalog::{DeclaredRate, FederatedCatalog, FederationConfig, PartialReplica};
pub use federated::{
    CandidateReport, ConcurrentFederatedSource, FederatedSource, FederationReport, KeyDedup,
};
pub use learning::{LearnedProfile, SharedLearning};
pub use profile::BehaviorProfile;
pub use scheduler::PermutationScheduler;
