//! Simulated autonomous data sources (paper §3.5).
//!
//! Data-integration engines read from remote, autonomous sources with
//! *sequential access only*, unknown cardinality, and unpredictable
//! delivery timing. This crate models that environment deterministically:
//!
//! * A **virtual clock** (microseconds, `u64`): sources expose *arrival
//!   schedules*, and the engine driver advances the clock either by doing
//!   CPU work or by idling until the next tuple arrives. Experiments report
//!   virtual completion time, which makes network experiments (the paper's
//!   Figure 3) both fast and reproducible.
//! * [`Source`] — the pull interface: `poll(now, max)` returns tuples that
//!   have arrived by `now`, a `Pending` instant to retry at, or `Eof`.
//! * [`mem::MemSource`] — local table, everything available immediately.
//! * [`delay::DelayedSource`] + [`delay::DelayModel`] — constant-bandwidth
//!   links and the bursty 802.11b-style wireless model used for Figure 3 /
//!   Table 2.
//!
//! # Federated sources
//!
//! A relation need not be served by a single source: the
//! `tukwila-federation` crate registers several candidates per relation —
//! mirrors with different [`delay::DelayModel`]s, or overlapping partial
//! replicas — behind a `FederatedSource` that implements [`Source`], so
//! everything that polls this crate's interface runs over federated
//! relations unchanged. Four trait hooks here exist for that layer:
//! [`source::SourceDescriptor`] (candidate registration/reporting, the
//! `complete` flag distinguishing full mirrors from partial replicas, and
//! the declared [`source::SourceCapabilities`]), `Source::control` (the
//! key-scan request a `key_scan` mirror takes when the federation layer
//! activates it, so two mirrors can split a relation from both ends),
//! `Source::observed_rate` (self-profiled delivery rates feeding the
//! re-optimizer's delivery-bound costing), and `Source::as_any`
//! (post-run report extraction through `Box<dyn Source>`).
//! [`delay::DelayedSource`] declares `key_scan`.

#![forbid(unsafe_code)]

pub mod delay;
pub mod mem;
pub mod source;

pub use delay::{DelayModel, DelayedSource};
pub use mem::MemSource;
pub use source::{
    DueTimes, Poll, Source, SourceCapabilities, SourceControl, SourceDescriptor, SourceProgressView,
};
