//! Join operators. All joins buffer their inputs (paper §3.4: "every plan
//! must buffer the source data fed into it at the leaves... we also extend
//! the other join forms to do buffering"), which is what makes their state
//! available to stitch-up plans. Every join builds its output rows through
//! one [`RowBuilder`]: residual check first, then only the emitted columns.

pub mod batch;
pub mod hybrid_hash;
pub mod merge;
pub mod nested_loops;
pub mod overflow;
pub mod pipelined_hash;
pub mod rows;

pub use hybrid_hash::HybridHashJoin;
pub use merge::MergeJoin;
pub use nested_loops::NestedLoopsJoin;
pub use overflow::OverflowHashJoin;
pub use pipelined_hash::PipelinedHashJoin;
pub use rows::RowBuilder;
