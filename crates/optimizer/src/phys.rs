//! Physical plans: operator trees with resolved schemas and column maps.

use tukwila_relation::agg::AggFunc;
use tukwila_relation::{Expr, Schema};
use tukwila_storage::ExprSig;

/// Pre-aggregation operator flavor at an insertion point (drives Figure 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreAggMode {
    /// Adjustable-window pre-aggregation (§6).
    AdaptiveWindow,
    /// Traditional blocking pre-aggregation: group the entire input before
    /// emitting.
    Traditional,
    /// Pseudogroup: per-tuple schema conversion only (§3.2).
    Pseudogroup,
}

/// Where a query aggregate's value can be found in a node's output: either
/// a raw base column or a carried partial (plus a count column for `avg`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartialSlot {
    /// Index of the query aggregate this slot carries.
    pub agg_idx: usize,
    /// Column holding the carried value (min/max/sum partial).
    pub value_col: usize,
    /// Column holding the carried count (only for `avg`/`count`).
    pub count_col: Option<usize>,
}

/// A node in the physical plan tree.
#[derive(Debug, Clone)]
pub struct PhysNode {
    pub kind: PhysKind,
    /// Output schema of this node.
    pub schema: Schema,
    /// Mapping `(rel_id, base column) -> output position` for base columns
    /// still present in the output. Scans keep every column; a join keeps
    /// only the columns something above it reads (its `emit` list), and a
    /// pre-aggregation only its group columns.
    pub col_map: Vec<((u32, usize), usize)>,
    /// Carried aggregate partials (present below pre-aggregation points).
    pub partials: Vec<PartialSlot>,
    /// Logical signature (set of base relations joined).
    pub sig: ExprSig,
    pub est_card: f64,
    /// Combined cost annotation: CPU plus the priced residual delivery
    /// wait (`est_cpu + delivery_per_us · est_wait_us`).
    pub est_cost: f64,
    /// Pure CPU portion of the estimate (cost-model units), with no
    /// delivery term folded in — what the fragmentation pass prices as
    /// overlappable work.
    pub est_cpu: f64,
    /// Residual delivery wait of the subtree (timeline µs) from the
    /// shared `DeliveryModel`: the slowest source arrival below this
    /// node, minus the sibling CPU that overlaps it at each join.
    pub est_wait_us: f64,
}

#[derive(Debug, Clone)]
pub enum PhysKind {
    Scan {
        rel: u32,
        name: String,
        filter: Option<Expr>,
    },
    /// A pipelined (symmetric) hash join — the one join every plan
    /// builds, because any prefix of its inputs leaves a consistent,
    /// reusable state (§3, §3.4).
    Join {
        left: Box<PhysNode>,
        right: Box<PhysNode>,
        /// Join key positions in each child's output schema.
        left_col: usize,
        right_col: usize,
        pred_id: u64,
        /// Extra equality conditions (cyclic join graphs), as position
        /// pairs in the concatenated layout `left ++ right`; the join
        /// checks them on each matched pair before building its row.
        residual: Vec<(usize, usize)>,
        /// The concatenated layout's positions the join materializes,
        /// ascending: the columns some operator above reads
        /// ([`crate::preagg::needed_cols`]) plus carried partials. Every
        /// position when the query does not aggregate.
        emit: Vec<usize>,
    },
    PreAgg {
        child: Box<PhysNode>,
        mode: PreAggMode,
        /// Grouping columns in the child's output schema.
        group_cols: Vec<usize>,
        /// `(func, input col in child schema)` for each emitted partial.
        aggs: Vec<(AggFunc, usize)>,
    },
}

impl PhysNode {
    /// Position of a base column in this node's output, if still present.
    pub fn col_of(&self, rel: u32, col: usize) -> Option<usize> {
        self.col_map
            .iter()
            .find(|((r, c), _)| *r == rel && *c == col)
            .map(|&(_, pos)| pos)
    }

    /// The partial slot carrying query aggregate `agg_idx`, if any.
    pub fn partial_for(&self, agg_idx: usize) -> Option<&PartialSlot> {
        self.partials.iter().find(|p| p.agg_idx == agg_idx)
    }

    /// All base relations below this node, in leaf order.
    pub fn rels(&self) -> Vec<u32> {
        match &self.kind {
            PhysKind::Scan { rel, .. } => vec![*rel],
            PhysKind::Join { left, right, .. } => {
                let mut v = left.rels();
                v.extend(right.rels());
                v
            }
            PhysKind::PreAgg { child, .. } => child.rels(),
        }
    }

    /// Number of join operators in the subtree.
    pub fn join_count(&self) -> usize {
        match &self.kind {
            PhysKind::Scan { .. } => 0,
            PhysKind::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            PhysKind::PreAgg { child, .. } => child.join_count(),
        }
    }

    /// Render the tree as a compact one-line expression, e.g.
    /// `((orders ⋈ customer) ⋈ lineitem)`.
    pub fn describe(&self) -> String {
        match &self.kind {
            PhysKind::Scan { name, .. } => name.clone(),
            PhysKind::Join { left, right, .. } => {
                format!("({} ⋈ {})", left.describe(), right.describe())
            }
            PhysKind::PreAgg { child, mode, .. } => {
                let tag = match mode {
                    PreAggMode::AdaptiveWindow => "preagg",
                    PreAggMode::Traditional => "preagg!",
                    PreAggMode::Pseudogroup => "pseudo",
                };
                format!("{tag}[{}]", child.describe())
            }
        }
    }
}

/// The final aggregation over the root node's output.
#[derive(Debug, Clone)]
pub struct PhysAgg {
    /// Grouping columns in root-output positions.
    pub group_cols: Vec<usize>,
    /// `(func, input col)` over the root output (already coalesced when
    /// consuming partials).
    pub aggs: Vec<(AggFunc, usize)>,
    /// Optional projection over the aggregation output (reassembles `avg`
    /// from sum/count partials).
    pub post_project: Option<(Vec<Expr>, Schema)>,
}

/// A complete physical plan.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    pub root: PhysNode,
    pub agg: Option<PhysAgg>,
    pub est_cost: f64,
}

impl PhysPlan {
    pub fn describe(&self) -> String {
        match &self.agg {
            Some(_) => format!("Γ[{}]", self.root.describe()),
            None => self.root.describe(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field};

    fn scan(rel: u32, name: &str) -> PhysNode {
        let schema = Schema::new(vec![Field::new(format!("{name}.k"), DataType::Int)]);
        PhysNode {
            kind: PhysKind::Scan {
                rel,
                name: name.into(),
                filter: None,
            },
            col_map: vec![((rel, 0), 0)],
            partials: vec![],
            sig: ExprSig::single(rel),
            est_card: 100.0,
            est_cost: 100.0,
            est_cpu: 100.0,
            est_wait_us: 0.0,
            schema,
        }
    }

    fn join(l: PhysNode, r: PhysNode) -> PhysNode {
        let schema = l.schema.concat(&r.schema);
        let mut col_map = l.col_map.clone();
        let off = l.schema.arity();
        col_map.extend(r.col_map.iter().map(|&((rel, c), p)| ((rel, c), p + off)));
        let sig = l.sig.union(&r.sig);
        PhysNode {
            kind: PhysKind::Join {
                left: Box::new(l),
                right: Box::new(r),
                left_col: 0,
                right_col: 0,
                pred_id: 1,
                residual: vec![],
                emit: (0..schema.arity()).collect(),
            },
            col_map,
            partials: vec![],
            sig,
            est_card: 100.0,
            est_cost: 300.0,
            est_cpu: 300.0,
            est_wait_us: 0.0,
            schema,
        }
    }

    #[test]
    fn col_map_lookup_across_join() {
        let j = join(scan(1, "a"), scan(2, "b"));
        assert_eq!(j.col_of(1, 0), Some(0));
        assert_eq!(j.col_of(2, 0), Some(1));
        assert_eq!(j.col_of(3, 0), None);
        assert_eq!(j.rels(), vec![1, 2]);
        assert_eq!(j.join_count(), 1);
    }

    #[test]
    fn describe_renders_tree() {
        let j = join(join(scan(1, "a"), scan(2, "b")), scan(3, "c"));
        assert_eq!(j.describe(), "((a ⋈ b) ⋈ c)");
        assert_eq!(j.join_count(), 2);
    }
}
