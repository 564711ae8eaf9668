//! Synthetic TPC-H-style data and the paper's query workload (§3.5).
//!
//! The paper evaluates on TPC-H at scale factor 0.1 plus "a similar
//! \[dataset\] that has a skewed distribution ... using a Zipf factor z of
//! 0.5 on the major attributes". This crate regenerates both worlds,
//! schema-faithfully (same key/foreign-key structure and
//! selectivity-bearing attributes), at any scale factor:
//!
//! * [`tpch::Dataset`] — REGION, NATION, SUPPLIER, CUSTOMER, ORDERS,
//!   LINEITEM, PART, PARTSUPP; uniform or Zipf(z)-skewed foreign keys.
//!   ORDERS and LINEITEM are generated clustered by order key (the
//!   sortedness §4.5 and §5 exploit). LINEITEM carries a materialized
//!   `l_revenue = l_extendedprice * (1 - l_discount)` column so the
//!   workload's aggregate is a plain column reference.
//! * [`queries`] — Q3, Q3A, Q10, Q10A, Q5 as [`LogicalQuery`] values
//!   (A-variants drop the date predicates, exactly as the paper does).
//! * [`flights`] — the flights/travelers/children schema of Example 2.1.
//! * [`perturb`] — k-swap reordering used by the §5 order experiments.
//! * [`zipf`] — a seeded Zipf sampler (implemented here; `rand`'s
//!   distribution adapters are not part of the offline dependency set).
//!
//! [`LogicalQuery`]: tukwila_optimizer::LogicalQuery

#![forbid(unsafe_code)]

pub mod flights;
pub mod perturb;
pub mod queries;
pub mod tpch;
pub mod zipf;

pub use tpch::{Dataset, DatasetConfig, TableId};
pub use zipf::Zipf;
