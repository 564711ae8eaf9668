#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Runtime statistics for adaptive query processing (paper §3.3, §4.2,
//! §4.5).
//!
//! Tukwila's adaptivity is driven by information the executor gathers while
//! a query runs:
//!
//! * [`counters::OpCounters`] — the per-operator output counters every query
//!   operator maintains ("we found that this had no measurable performance
//!   penalty", §3.3).
//! * [`selectivity::SelectivityCatalog`] — observed subexpression
//!   selectivities, recorded once per *logical* subexpression and shared
//!   across all plans (§4.2), source-cardinality extrapolation, and the
//!   "multiplicative join" flags.
//! * [`histogram::DynamicHistogram`] — incremental histograms in the spirit
//!   of the Dynamic Compressed histograms the paper cites (\[7\]): range
//!   buckets plus exact counts for heavy hitters, maintainable per-tuple.
//! * [`order_detect::OrderDetector`] / [`order_detect::UniquenessDetector`]
//!   — streaming detection of sort order and key uniqueness (§4.5).
//! * [`estimate::JoinEstimator`] — combines histograms and order detection
//!   to predict join output cardinalities from a prefix of the data, the
//!   §4.5 experiment.
//! * [`rate::RateEstimator`] — online delivery-rate/burstiness profiling of
//!   a source; drives the federation layer's stall thresholds and the
//!   re-optimizer's delivery-bound costing.
//! * [`schedule::ArrivalSchedule`] / [`schedule::DeliveryModel`] — the
//!   shared delivery cost model built from those profiles: when the k-th
//!   tuple arrives, what overlapping delivery with CPU buys, and what
//!   racing a second source copy costs. One model serves the optimizer's
//!   scan/join costing, the federation scheduler's cost-gated hedging,
//!   and the fragmentation pass.
//! * [`clock::Clock`] — the dual-clock timeline ([`clock::VirtualClock`]
//!   simulated / [`clock::WallClock`] real, optionally accelerated) that
//!   every timestamp above is measured against, so the same adaptive
//!   logic runs deterministically in tests and on real threads in
//!   production.

pub mod arbiter;
pub mod clock;
pub mod counters;
pub mod estimate;
pub mod histogram;
pub mod order_detect;
pub mod rate;
pub mod schedule;
pub mod selectivity;
pub mod trace;

pub use arbiter::{CoreArbiter, QueryLease};
pub use clock::{Clock, VirtualClock, WallClock};
pub use counters::OpCounters;
pub use histogram::DynamicHistogram;
pub use order_detect::{OrderDetector, Orderedness, UniquenessDetector};
pub use rate::RateEstimator;
pub use schedule::{ArrivalSchedule, DeliveryCosts, DeliveryModel, RaceContext, RaceDecision};
pub use selectivity::SelectivityCatalog;
pub use trace::{
    decision_signature, hedge_signatures, QuerySummary, SpanKind, TraceEvent, TraceRecord,
    TraceSink,
};
