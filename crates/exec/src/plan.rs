//! Pipelined plan trees: operator arenas with leaf bindings, batch
//! cascade, and sealing (state extraction at phase end).

use std::sync::Arc;

use tukwila_relation::{Error, Result, Schema, Tuple};
use tukwila_stats::OpCounters;
use tukwila_storage::ExprSig;

use crate::op::{Batch, IncOp};

/// Identifies where a base relation's tuples enter the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafBinding {
    /// The bound source relation (or exchange stream).
    pub rel_id: u32,
    /// Plan node the source feeds.
    pub node: usize,
    /// Input port of that node.
    pub port: usize,
}

/// A node in the plan arena, annotated with the logical signature of the
/// subexpression each input port carries (used when sealing registers
/// state structures) and of the node's own output.
struct PlanNode {
    op: Box<dyn IncOp>,
    /// `(parent node, parent port)`; `None` for the root.
    parent: Option<(usize, usize)>,
    /// Logical signature of the data arriving on each port.
    input_sigs: Vec<Option<ExprSig>>,
    /// Logical signature of this node's output.
    output_sig: Option<ExprSig>,
}

/// A state structure captured when a plan was sealed, annotated with the
/// logical subexpression it holds.
pub struct SealedState {
    /// Logical signature of the subexpression the structure buffered.
    pub sig: Option<ExprSig>,
    /// Schema of the buffered tuples.
    pub schema: Schema,
    /// The extracted state structure.
    pub structure: Arc<dyn tukwila_storage::StateStructure>,
    /// Plan node the structure came from.
    pub node: usize,
    /// Input port of that node.
    pub port: usize,
}

/// Snapshot of one operator's counters with its signature annotations,
/// used by the execution monitor. Cloning shares the live counters (they
/// are `Arc`-held atomics), so a clone taken before a pipeline moves into
/// a producer thread keeps observing it — that is how the corrective
/// monitor reads a threaded fragment plan without owning its pipelines.
#[derive(Clone)]
pub struct NodeObservation {
    /// The observed plan node.
    pub node: usize,
    /// The operator's display name.
    pub name: String,
    /// Logical signature of the node's output.
    pub output_sig: Option<ExprSig>,
    /// Logical signature of the data arriving on each input port.
    pub input_sigs: Vec<Option<ExprSig>>,
    /// The node's live counters (shared with the executor).
    pub counters: Arc<OpCounters>,
}

/// An executable pipelined plan: a tree of [`IncOp`]s plus leaf bindings.
///
/// End-of-input is tracked per port: a port closes only when *every* source
/// in the subtree feeding it has reached EOF; when all of a node's ports
/// close, the node flushes (`finish`) and its own output stream closes,
/// propagating upward. Suspended phases are *sealed* instead, which
/// extracts state without flushing blocking operators.
pub struct PipelinePlan {
    nodes: Vec<PlanNode>,
    leaves: Vec<LeafBinding>,
    root: usize,
    /// Open-source count per node per port.
    open_inputs: Vec<Vec<usize>>,
    /// Whether a node's `finish` has run.
    finished: Vec<bool>,
    /// Scratch buffers reused across pushes.
    scratch: Vec<Batch>,
}

impl PipelinePlan {
    /// Start building a plan.
    pub fn builder() -> PlanBuilder {
        PlanBuilder::default()
    }

    /// Output schema of the root operator.
    pub fn root_schema(&self) -> &Schema {
        self.nodes[self.root].op.schema()
    }

    /// The plan's source bindings.
    pub fn leaves(&self) -> &[LeafBinding] {
        &self.leaves
    }

    /// Number of operator nodes in the plan (fragmented plans use this to
    /// assign plan-wide node ids across fragments).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The binding for `rel_id`, if the plan has one.
    pub fn leaf_for(&self, rel_id: u32) -> Option<LeafBinding> {
        self.leaves.iter().copied().find(|l| l.rel_id == rel_id)
    }

    /// Push a batch of source tuples for `rel_id`; root output lands in
    /// `out`.
    pub fn push_source(&mut self, rel_id: u32, batch: &[Tuple], out: &mut Batch) -> Result<()> {
        let leaf = self
            .leaf_for(rel_id)
            .ok_or_else(|| Error::Plan(format!("no leaf for relation {rel_id}")))?;
        self.cascade(leaf.node, leaf.port, batch, out)
    }

    /// Signal EOF of a source. When this closes the last open input of an
    /// operator, the operator flushes and the closure propagates upward, so
    /// after the final source's EOF the entire plan (including blocking
    /// operators) has emitted its results.
    pub fn finish_source(&mut self, rel_id: u32, out: &mut Batch) -> Result<()> {
        let leaf = self
            .leaf_for(rel_id)
            .ok_or_else(|| Error::Plan(format!("no leaf for relation {rel_id}")))?;
        self.close_port(leaf.node, leaf.port, out)
    }

    fn close_port(&mut self, node: usize, port: usize, out: &mut Batch) -> Result<()> {
        debug_assert!(self.open_inputs[node][port] > 0, "port closed twice");
        self.open_inputs[node][port] -= 1;
        if self.open_inputs[node][port] > 0 {
            return Ok(());
        }
        let mut emitted = Batch::new();
        self.nodes[node].op.finish_input(port, &mut emitted)?;
        let parent = self.nodes[node].parent;
        if !emitted.is_empty() {
            match parent {
                Some((pn, pp)) => self.cascade(pn, pp, &emitted, out)?,
                None => out.extend(emitted),
            }
        }
        if self.open_inputs[node].iter().all(|&c| c == 0) && !self.finished[node] {
            self.finished[node] = true;
            let mut flushed = Batch::new();
            self.nodes[node].op.finish(&mut flushed)?;
            if !flushed.is_empty() {
                match parent {
                    Some((pn, pp)) => self.cascade(pn, pp, &flushed, out)?,
                    None => out.extend(flushed),
                }
            }
            if let Some((pn, pp)) = parent {
                self.close_port(pn, pp, out)?;
            }
        }
        Ok(())
    }

    /// Iterative cascade: push into `node`/`port`, feed output to parent,
    /// repeat until the root.
    fn cascade(
        &mut self,
        node: usize,
        port: usize,
        batch: &[Tuple],
        out: &mut Batch,
    ) -> Result<()> {
        let mut cur_node = node;
        let mut cur_port = port;
        // `None` on the first hop: the first operator reads the caller's
        // slice directly; later hops read the previous hop's output.
        let mut input: Option<Batch> = None;
        loop {
            let mut produced = self.scratch.pop().unwrap_or_default();
            produced.clear();
            self.nodes[cur_node].op.push(
                cur_port,
                input.as_deref().unwrap_or(batch),
                &mut produced,
            )?;
            if let Some(used) = input.take() {
                self.scratch.push(used);
            }
            match self.nodes[cur_node].parent {
                Some((pn, pp)) => {
                    if produced.is_empty() {
                        self.scratch.push(produced);
                        return Ok(());
                    }
                    input = Some(produced);
                    cur_node = pn;
                    cur_port = pp;
                }
                None => {
                    out.append(&mut produced);
                    self.scratch.push(produced);
                    return Ok(());
                }
            }
        }
    }

    /// Counter/signature snapshots for the monitor.
    pub fn observations(&self) -> Vec<NodeObservation> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| NodeObservation {
                node: i,
                name: n.op.name().to_string(),
                output_sig: n.output_sig.clone(),
                input_sigs: n.input_sigs.clone(),
                counters: n.op.counters().clone(),
            })
            .collect()
    }

    /// Seal the plan at the end of a (suspended) phase: extract every
    /// operator's state structures, annotated with the logical signature of
    /// the data each holds. Blocking operators are *not* flushed.
    pub fn seal(mut self) -> Vec<SealedState> {
        let mut out = Vec::new();
        for (i, node) in self.nodes.iter_mut().enumerate() {
            for ex in node.op.extract_states() {
                let sig = node.input_sigs.get(ex.port).cloned().flatten();
                out.push(SealedState {
                    sig,
                    schema: ex.schema,
                    structure: ex.structure,
                    node: i,
                    port: ex.port,
                });
            }
        }
        out
    }
}

/// Builds [`PipelinePlan`]s. Nodes are added bottom-up; each child is
/// attached to a (parent, port) slot.
#[derive(Default)]
pub struct PlanBuilder {
    nodes: Vec<PlanNode>,
    leaves: Vec<LeafBinding>,
    /// Ports fed by an attached child node.
    child_fed: Vec<Vec<bool>>,
}

impl PlanBuilder {
    /// Add an operator; `children[port]` is `Some(node)` when a previously
    /// added node feeds that port, `None` when a source will be bound to it
    /// later. Trailing `None`s may be omitted. `sig` annotates the node's
    /// *output* subexpression.
    pub fn add_op(
        &mut self,
        op: Box<dyn IncOp>,
        children: &[Option<usize>],
        sig: Option<ExprSig>,
    ) -> Result<usize> {
        let id = self.nodes.len();
        if children.len() > op.inputs() {
            return Err(Error::Plan(format!(
                "operator {} has {} inputs, got {} children",
                op.name(),
                op.inputs(),
                children.len()
            )));
        }
        let nports = op.inputs();
        let mut input_sigs = vec![None; nports];
        let mut fed = vec![false; nports];
        for (port, c) in children.iter().enumerate() {
            let &Some(c) = c else { continue };
            if c >= id {
                return Err(Error::Plan(format!("child {c} not yet defined")));
            }
            if self.nodes[c].parent.is_some() {
                return Err(Error::Plan(format!("node {c} already has a parent")));
            }
            self.nodes[c].parent = Some((id, port));
            input_sigs[port] = self.nodes[c].output_sig.clone();
            fed[port] = true;
        }
        self.nodes.push(PlanNode {
            op,
            parent: None,
            input_sigs,
            output_sig: sig,
        });
        self.child_fed.push(fed);
        Ok(id)
    }

    /// Bind a source relation to an input port of a node. The port's input
    /// signature becomes the single-relation signature.
    pub fn bind_source(&mut self, rel_id: u32, node: usize, port: usize) -> Result<()> {
        self.bind_source_with_sig(rel_id, node, port, ExprSig::single(rel_id))
    }

    /// [`PlanBuilder::bind_source`] with an explicit logical signature for
    /// the port. Exchange leaves (fragmented plans) use this: the stream
    /// arriving over an exchange carries the producer *subtree's*
    /// signature, not a single base relation, and sealing must register
    /// buffered state under that subtree signature for cross-phase reuse.
    pub fn bind_source_with_sig(
        &mut self,
        rel_id: u32,
        node: usize,
        port: usize,
        sig: ExprSig,
    ) -> Result<()> {
        if node >= self.nodes.len() {
            return Err(Error::Plan(format!("node {node} not defined")));
        }
        if port >= self.nodes[node].input_sigs.len() {
            return Err(Error::Plan(format!("node {node} has no port {port}")));
        }
        if self.child_fed[node][port] {
            return Err(Error::Plan(format!(
                "node {node} port {port} already fed by a child"
            )));
        }
        self.nodes[node].input_sigs[port] = Some(sig);
        self.leaves.push(LeafBinding { rel_id, node, port });
        Ok(())
    }

    /// Finalize. Exactly one node must be parentless (the root), and every
    /// input port must be fed by a child or a source.
    pub fn build(self) -> Result<PipelinePlan> {
        let roots: Vec<usize> = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.parent.is_none())
            .map(|(i, _)| i)
            .collect();
        if roots.len() != 1 {
            return Err(Error::Plan(format!(
                "plan must have exactly one root, found {}",
                roots.len()
            )));
        }
        let mut open_inputs: Vec<Vec<usize>> = self
            .child_fed
            .iter()
            .map(|fed| fed.iter().map(|&f| usize::from(f)).collect())
            .collect();
        for l in &self.leaves {
            open_inputs[l.node][l.port] += 1;
        }
        for (i, ports) in open_inputs.iter().enumerate() {
            for (p, &c) in ports.iter().enumerate() {
                if c == 0 {
                    return Err(Error::Plan(format!(
                        "node {i} ({}) port {p} is not fed by any child or source",
                        self.nodes[i].op.name()
                    )));
                }
            }
        }
        let n = self.nodes.len();
        Ok(PipelinePlan {
            nodes: self.nodes,
            leaves: self.leaves,
            root: roots[0],
            open_inputs,
            finished: vec![false; n],
            scratch: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggSpec, GroupSpec, HashAggOp};
    use crate::filter::FilterOp;
    use crate::join::pipelined_hash::PipelinedHashJoin;
    use tukwila_relation::agg::AggFunc;
    use tukwila_relation::{CmpOp, DataType, Expr, Field, Value};

    fn schema(p: &str) -> Schema {
        Schema::new(vec![
            Field::new(format!("{p}.k"), DataType::Int),
            Field::new(format!("{p}.v"), DataType::Int),
        ])
    }

    fn t(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    /// a ⋈ b ⋈ c with an aggregation root; checks cascade and EOF
    /// propagation through a multi-level tree.
    fn three_way_plan() -> PipelinePlan {
        let mut b = PipelinePlan::builder();
        let j1 = Box::new(PipelinedHashJoin::new(schema("a"), schema("b"), 0, 0));
        let j1s = j1.schema().clone();
        let n1 = b.add_op(j1, &[], Some(ExprSig::new(vec![1, 2]))).unwrap();
        let j2 = Box::new(PipelinedHashJoin::new(j1s, schema("c"), 3, 0));
        let j2s = j2.schema().clone();
        let n2 = b
            .add_op(j2, &[Some(n1)], Some(ExprSig::new(vec![1, 2, 3])))
            .unwrap();
        let agg = Box::new(HashAggOp::new(
            GroupSpec::new(
                vec![0],
                vec![AggSpec {
                    func: AggFunc::Count,
                    col: 5,
                }],
            ),
            &j2s,
        ));
        let n3 = b.add_op(agg, &[Some(n2)], None).unwrap();
        let _ = n3;
        b.bind_source(1, n1, 0).unwrap();
        b.bind_source(2, n1, 1).unwrap();
        b.bind_source(3, n2, 1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn cascade_through_three_levels() {
        let mut plan = three_way_plan();
        let mut out = Batch::new();
        plan.push_source(1, &[t(1, 10), t(2, 20)], &mut out)
            .unwrap();
        plan.push_source(2, &[t(1, 100)], &mut out).unwrap();
        plan.push_source(3, &[t(100, 7)], &mut out).unwrap();
        assert!(out.is_empty(), "root agg is blocking");
        // EOF everything: the agg flushes when its last upstream source ends.
        plan.finish_source(1, &mut out).unwrap();
        plan.finish_source(2, &mut out).unwrap();
        assert!(out.is_empty(), "source 3 still open");
        plan.finish_source(3, &mut out).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).as_int().unwrap(), 1);
        assert_eq!(out[0].get(1).as_int().unwrap(), 1);
    }

    #[test]
    fn seal_collects_annotated_states() {
        let mut plan = three_way_plan();
        let mut out = Batch::new();
        plan.push_source(1, &[t(1, 10)], &mut out).unwrap();
        plan.push_source(2, &[t(1, 100), t(9, 0)], &mut out)
            .unwrap();
        plan.push_source(3, &[t(100, 7)], &mut out).unwrap();
        let states = plan.seal();
        // Two joins x two ports.
        assert_eq!(states.len(), 4);
        let leaf_a = states
            .iter()
            .find(|s| s.sig == Some(ExprSig::single(1)))
            .unwrap();
        assert_eq!(leaf_a.structure.len(), 1);
        let ab = states
            .iter()
            .find(|s| s.sig == Some(ExprSig::new(vec![1, 2])))
            .unwrap();
        assert_eq!(ab.structure.len(), 1, "a⋈b intermediate buffered");
        assert_eq!(ab.schema.arity(), 4);
    }

    #[test]
    fn observations_expose_sigs_and_counters() {
        let mut plan = three_way_plan();
        let mut out = Batch::new();
        plan.push_source(1, &[t(1, 10)], &mut out).unwrap();
        let obs = plan.observations();
        assert_eq!(obs.len(), 3);
        assert_eq!(obs[0].output_sig, Some(ExprSig::new(vec![1, 2])));
        assert_eq!(obs[0].counters.tuples_in(), 1);
    }

    #[test]
    fn filter_between_source_and_join() {
        let mut b = PipelinePlan::builder();
        let f = Box::new(FilterOp::new(
            Expr::cmp(Expr::Col(1), CmpOp::Ge, Expr::Lit(Value::Int(15))),
            schema("a"),
        ));
        let nf = b.add_op(f, &[], Some(ExprSig::single(1))).unwrap();
        let j = Box::new(PipelinedHashJoin::new(schema("a"), schema("b"), 0, 0));
        let nj = b
            .add_op(j, &[Some(nf)], Some(ExprSig::new(vec![1, 2])))
            .unwrap();
        b.bind_source(1, nf, 0).unwrap();
        b.bind_source(2, nj, 1).unwrap();
        let mut plan = b.build().unwrap();
        let mut out = Batch::new();
        plan.push_source(2, &[t(1, 0), t(2, 0)], &mut out).unwrap();
        plan.push_source(1, &[t(1, 10), t(2, 20)], &mut out)
            .unwrap();
        assert_eq!(out.len(), 1, "only (2,20) passes the filter");
    }

    #[test]
    fn builder_rejects_malformed_plans() {
        // Unfed port.
        let mut b = PipelinePlan::builder();
        let j = Box::new(PipelinedHashJoin::new(schema("a"), schema("b"), 0, 0));
        let n = b.add_op(j, &[], None).unwrap();
        b.bind_source(1, n, 0).unwrap();
        assert!(b.build().is_err());

        // Two roots.
        let mut b2 = PipelinePlan::builder();
        let f1 = Box::new(FilterOp::new(Expr::Lit(Value::Bool(true)), schema("a")));
        let f2 = Box::new(FilterOp::new(Expr::Lit(Value::Bool(true)), schema("b")));
        let a = b2.add_op(f1, &[], None).unwrap();
        let c = b2.add_op(f2, &[], None).unwrap();
        b2.bind_source(1, a, 0).unwrap();
        b2.bind_source(2, c, 0).unwrap();
        assert!(b2.build().is_err());
    }
}
