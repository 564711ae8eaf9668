//! The incremental operator protocol.

use std::sync::Arc;

use tukwila_relation::{Result, Schema, Tuple};
use tukwila_stats::OpCounters;
use tukwila_storage::StateStructure;

/// A batch of tuples flowing through the pipeline.
pub type Batch = Vec<Tuple>;

/// A state structure extracted from an operator when its plan is sealed
/// (end of a phase). `port` identifies which input the structure buffered
/// (0 = left/only input, 1 = right input); the phase manager maps ports to
/// logical subexpression signatures and registers the structure.
pub struct ExtractedState {
    /// Input port whose data the structure buffered (0 = left/only).
    pub port: usize,
    /// Schema of the buffered tuples.
    pub schema: Schema,
    /// The extracted state structure itself.
    pub structure: Arc<dyn StateStructure>,
}

/// An incremental (push-based) operator.
///
/// The engine pushes batches into an input port; the operator appends any
/// output it can produce *now* to `out`. Blocking operators (aggregation)
/// hold data until [`IncOp::finish`].
/// Because every push fully propagates before the next one is admitted,
/// batch boundaries are consistent suspension points (§3's requirement for
/// mid-pipeline plan switching).
pub trait IncOp: Send {
    /// Operator display name.
    fn name(&self) -> &str;

    /// Number of input ports (1 or 2).
    fn inputs(&self) -> usize;

    /// Output schema.
    fn schema(&self) -> &Schema;

    /// Push a batch into `port`, appending produced tuples to `out`.
    fn push(&mut self, port: usize, batch: &[Tuple], out: &mut Batch) -> Result<()>;

    /// Signal that input `port` is exhausted. May emit buffered output
    /// (e.g. a merge join emits its last key group once one input
    /// ends).
    fn finish_input(&mut self, port: usize, out: &mut Batch) -> Result<()> {
        let _ = (port, out);
        Ok(())
    }

    /// All inputs exhausted: flush everything (blocking operators emit
    /// their results here).
    fn finish(&mut self, out: &mut Batch) -> Result<()> {
        let _ = out;
        Ok(())
    }

    /// Per-operator counters (§3.3: every operator counts its output).
    fn counters(&self) -> &Arc<OpCounters>;

    /// Expose accumulated state structures for cross-plan reuse (§3.1).
    /// Called once, when the plan is sealed; the operator gives up
    /// ownership.
    fn extract_states(&mut self) -> Vec<ExtractedState> {
        Vec::new()
    }
}
