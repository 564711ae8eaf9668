//! Join operators. Every plan join is a [`PipelinedHashJoin`]: symmetric,
//! so any prefix of its inputs leaves a consistent state, and buffering
//! both inputs (paper §3.4: "every plan must buffer the source data fed
//! into it at the leaves"), which is what makes that state available to
//! stitch-up plans. [`MergeJoin`] runs only inside the complementary join
//! pair (§5). Both build their output rows through one [`RowBuilder`]:
//! residual check first, then only the emitted columns.

pub mod batch;
pub mod merge;
pub mod pipelined_hash;
pub mod rows;

pub use merge::MergeJoin;
pub use pipelined_hash::PipelinedHashJoin;
pub use rows::RowBuilder;
