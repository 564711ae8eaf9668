//! # tukwila — adaptive data partitioning for data integration queries
//!
//! A from-scratch Rust implementation of the SIGMOD 2004 paper
//! *Adapting to Source Properties in Processing Data Integration Queries*
//! (Ives, Halevy, Weld): corrective query processing with mid-pipeline
//! plan switching and stitch-up, complementary join pairs over
//! (mostly-)sorted sources, and adjustable-window pre-aggregation.
//!
//! This crate is a facade re-exporting the workspace members; see the
//! README and `ARCHITECTURE.md` for the architecture overview and the
//! paper mapping.
//!
//! ```no_run
//! use tukwila::core::{CorrectiveConfig, CorrectiveExec};
//! use tukwila::datagen::{queries, Dataset, DatasetConfig};
//! use tukwila::source::{MemSource, Source};
//!
//! let data = Dataset::generate(DatasetConfig::uniform(0.01));
//! let query = queries::q3a();
//! let mut sources: Vec<Box<dyn Source>> = queries::tables_of(&query)
//!     .into_iter()
//!     .map(|t| {
//!         Box::new(MemSource::new(
//!             t.rel_id(),
//!             t.name(),
//!             Dataset::schema(t),
//!             data.table(t).to_vec(),
//!         )) as Box<dyn Source>
//!     })
//!     .collect();
//! let report = CorrectiveExec::new(query, CorrectiveConfig::default())
//!     .run(&mut sources)
//!     .unwrap();
//! println!("{} phases, {} groups", report.phase_count(), report.rows.len());
//! ```

#![forbid(unsafe_code)]

/// The ADP runtime: corrective query processing, stitch-up, complementary
/// join pairs, baselines.
pub use tukwila_core as core;
/// TPC-H-style synthetic data and the paper's query workload.
pub use tukwila_datagen as datagen;
/// Pipelined operators and the incremental execution engine.
pub use tukwila_exec as exec;
/// Federated source catalog, per-source behavior profiles, and online
/// source-permutation scheduling over mirrored/replicated sources.
pub use tukwila_federation as federation;
/// The System-R-flavoured optimizer / re-optimizer.
pub use tukwila_optimizer as optimizer;
/// Tuples, schemas, expressions, mergeable aggregates.
pub use tukwila_relation as relation;
/// Multi-query serving front end: shared learning catalog, global core
/// arbiter, fleet metrics.
pub use tukwila_serve as serve;
/// Simulated sequential sources under a virtual clock.
pub use tukwila_source as source;
/// Runtime statistics: selectivities, histograms, order detection.
pub use tukwila_stats as stats;
/// State structures and the state-structure registry.
pub use tukwila_storage as storage;

pub use tukwila_serve::{FleetReport, QueryOutcome, QuerySpec, ServeMode, Server, ServerConfig};
