//! The stitch-up executor (paper §3.4).
//!
//! After the phases finish, the answers still missing are exactly the
//! cross-phase join combinations (`n^m − n` of them for `m` relations and
//! `n` phases). We compute them with *partition-labelled sets* over the
//! final plan's join tree: at each node, results are split into `pure[i]`
//! (every constituent tuple from phase `i`) and `mixed` (everything else).
//!
//! * `pure[i]` is **reused** from the state-structure registry whenever
//!   phase `i` materialized that logical subexpression (the §3.4.2
//!   exclusion list, with §3.2's tuple adapters fixing attribute-order
//!   differences between plans); it is recomputed from the children's pure
//!   sets otherwise.
//! * `mixed` at a join node is the union of all cross-phase combinations,
//!   computed once per node by probing the right side's partitions with
//!   the left side's rows (the §3.4.3 stitch-up join).
//! * The right side is probed **in place or rehashed**, one partition at a
//!   time. A right-side `pure[i]` read from the registry is probed through
//!   its sealed [`TupleHashTable`] directly — no scan, no rebuild — when
//!   that table is keyed on the join's right column and its layout adapter
//!   is the identity. (Intermediate entries are read from the registry
//!   only when `reuse_intermediates` is on; leaves always are.) Every other
//!   registered partition is rehashed on the join column and counted in
//!   [`BatchJoinStats::rehashes`]. Partitions that stitch-up computed
//!   itself, and `mixed`, are hashed without counting.
//! * Only the root's `mixed` tuples are new answers: the diagonal `pure`
//!   results were already emitted by the phases themselves.

use std::borrow::Cow;
use std::sync::Arc;

use tukwila_exec::join::batch::{probe_table, BatchJoinStats};
use tukwila_exec::join::RowBuilder;
use tukwila_exec::Batch;
use tukwila_optimizer::{LogicalQuery, PhysKind, PhysNode};
use tukwila_relation::{Result, Tuple};
use tukwila_storage::registry::RegistryEntry;
use tukwila_storage::{ExprSig, StateRegistry, TupleHashTable};

/// Statistics from one stitch-up execution.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StitchUpStats {
    /// New (cross-phase) answer tuples produced at the root.
    pub mixed_tuples: usize,
    /// `pure[i]` tuples that had to be recomputed because no phase
    /// registered the subexpression.
    pub recomputed_pure: usize,
    /// Registry entries reused (marked for the Table 1/2 accounting).
    pub entries_reused: usize,
    pub join: BatchJoinStats,
}

/// One phase's `pure` partition at a plan node.
enum Pure {
    /// Rows stitch-up computed itself (or none: the phase registered
    /// nothing for this node).
    Computed(Batch),
    /// A registry entry read back as rows in the node's layout.
    Loaded(Batch),
    /// A registry entry whose structure is a hash table in
    /// the node's layout: its rows are read only on demand, and it is
    /// probed in place when keyed on the join column.
    Sealed(Arc<RegistryEntry>),
}

impl Pure {
    fn rows(&self) -> Cow<'_, Batch> {
        match self {
            Pure::Computed(b) | Pure::Loaded(b) => Cow::Borrowed(b),
            Pure::Sealed(e) => Cow::Owned(e.structure.scan()),
        }
    }

    /// A hash table over this partition keyed on `col`: the sealed table
    /// itself when it already is one, else a rebuild — counted as a
    /// rehash when the partition came from the registry.
    fn table(&self, col: usize, stats: &mut BatchJoinStats) -> Table<'_> {
        if let Pure::Sealed(e) = self {
            if let Some(t) = e.structure.as_hash_table().filter(|t| t.key_col() == col) {
                return Table::InPlace(t);
            }
        }
        if !matches!(self, Pure::Computed(_)) {
            stats.rehashes += 1;
        }
        Table::Rebuilt(hash_on(&self.rows(), col))
    }
}

/// A right-side partition's hash table: sealed state probed where it lies,
/// or a table built for this join.
enum Table<'a> {
    InPlace(&'a TupleHashTable),
    Rebuilt(TupleHashTable),
}

impl std::ops::Deref for Table<'_> {
    type Target = TupleHashTable;

    fn deref(&self) -> &TupleHashTable {
        match self {
            Table::InPlace(t) => t,
            Table::Rebuilt(t) => t,
        }
    }
}

/// Build a hash table over `tuples` keyed on `col`.
fn hash_on(tuples: &[Tuple], col: usize) -> TupleHashTable {
    let mut t = TupleHashTable::new(col);
    for tu in tuples {
        t.insert(tu.clone());
    }
    t
}

/// Partition-labelled result set at one plan node.
struct Labeled {
    pure: Vec<Pure>,
    mixed: Batch,
}

/// The stitch-up executor.
pub struct StitchUp<'a> {
    pub q: &'a LogicalQuery,
    pub registry: &'a StateRegistry,
    pub nphases: usize,
    /// Reuse registered intermediate results (the §3.4.2 exclusion-list
    /// behaviour). Disabled only by the reuse ablation, which recomputes
    /// every intermediate from the leaf partitions.
    pub reuse_intermediates: bool,
}

impl<'a> StitchUp<'a> {
    pub fn new(q: &'a LogicalQuery, registry: &'a StateRegistry, nphases: usize) -> Self {
        StitchUp {
            q,
            registry,
            nphases,
            reuse_intermediates: true,
        }
    }

    /// Ablation switch: when `false`, only leaf partitions are read from
    /// the registry and every intermediate `pure[i]` is recomputed.
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse_intermediates = reuse;
        self
    }

    /// Evaluate the cross-phase results over `tree` (the final phase's plan
    /// tree), feeding new answer tuples to `sink`.
    pub fn run(
        &self,
        tree: &PhysNode,
        sink: &mut dyn FnMut(&[Tuple]) -> Result<()>,
    ) -> Result<StitchUpStats> {
        if self.nphases <= 1 {
            return Ok(StitchUpStats::default());
        }
        let mut stats = StitchUpStats::default();
        let labeled = self.eval(tree, true, &mut stats)?;
        stats.mixed_tuples = labeled.mixed.len();
        if !labeled.mixed.is_empty() {
            sink(&labeled.mixed)?;
        }
        Ok(stats)
    }

    /// Read a registered structure back in the layout of `node`: kept
    /// sealed when it is a hash table needing no adapter,
    /// scanned (and adapted) otherwise.
    fn load(
        &self,
        node: &PhysNode,
        phase: usize,
        stats: &mut StitchUpStats,
    ) -> Result<Option<Pure>> {
        let entry = match self.registry.lookup(&node.sig, phase) {
            Some(e) => e,
            None => return Ok(None),
        };
        let adapter = match entry.schema.adapter_to(&node.schema) {
            Ok(a) => a,
            // Incompatible layout (e.g. a phase pre-aggregated differently):
            // treat as unavailable and let the caller recompute.
            Err(_) => return Ok(None),
        };
        entry.mark_reused();
        stats.entries_reused += 1;
        if adapter.is_identity() && entry.structure.as_hash_table().is_some() {
            return Ok(Some(Pure::Sealed(entry)));
        }
        let tuples = entry.structure.scan();
        if adapter.is_identity() {
            return Ok(Some(Pure::Loaded(tuples)));
        }
        Ok(Some(Pure::Loaded(
            tuples.iter().map(|t| adapter.adapt(t)).collect(),
        )))
    }

    fn eval(&self, node: &PhysNode, is_root: bool, stats: &mut StitchUpStats) -> Result<Labeled> {
        match &node.kind {
            // Leaf units: a scan, or pre-aggregation directly over a scan
            // (the registered partition data *is* the pre-aggregated form).
            PhysKind::Scan { .. } | PhysKind::PreAgg { .. } => {
                let mut pure = Vec::with_capacity(self.nphases);
                for i in 0..self.nphases {
                    // A phase that read nothing from this source has no entry.
                    let part = self.load(node, i, stats)?;
                    pure.push(part.unwrap_or(Pure::Computed(Vec::new())));
                }
                Ok(Labeled {
                    pure,
                    mixed: Vec::new(),
                })
            }
            PhysKind::Join {
                left,
                right,
                left_col,
                right_col,
                residual,
                emit,
                ..
            } => {
                let l = self.eval(left, false, stats)?;
                let r = self.eval(right, false, stats)?;
                // Rows in the node's (narrowed) layout, residual checked
                // before each is built.
                let rows =
                    RowBuilder::new(&left.schema, &right.schema, residual.clone(), emit.clone())?;

                // One table per right-side partition, probed in place or
                // rehashed once.
                let r_pure_tables = r
                    .pure
                    .iter()
                    .map(|p| p.table(*right_col, &mut stats.join))
                    .collect::<Vec<_>>();
                let r_mixed_table = hash_on(&r.mixed, *right_col);

                // Each left partition's rows probe the right-side tables
                // directly; only the surviving joined tuples are built.
                let l_pure_rows: Vec<Cow<'_, Batch>> = l.pure.iter().map(Pure::rows).collect();

                // pure[i]: reuse from the registry or recompute from the
                // children's pure partitions.
                let mut pure = Vec::with_capacity(self.nphases);
                for i in 0..self.nphases {
                    if !is_root && self.reuse_intermediates {
                        if let Some(part) = self.load(node, i, stats)? {
                            pure.push(part);
                            continue;
                        }
                    }
                    if is_root {
                        // Root diagonals were already answered by the
                        // phases; never recompute them.
                        pure.push(Pure::Computed(Vec::new()));
                        continue;
                    }
                    let mut out = Vec::new();
                    probe_table(
                        &l_pure_rows[i],
                        *left_col,
                        &r_pure_tables[i],
                        &rows,
                        &mut stats.join,
                        &mut out,
                    );
                    stats.recomputed_pure += out.len();
                    pure.push(Pure::Computed(out));
                }

                // mixed: all cross-phase combinations.
                let mut mixed = Vec::new();
                for (a, l_rows) in l_pure_rows.iter().enumerate().take(self.nphases) {
                    for (b, table) in r_pure_tables.iter().enumerate() {
                        if a != b {
                            probe_table(
                                l_rows,
                                *left_col,
                                table,
                                &rows,
                                &mut stats.join,
                                &mut mixed,
                            );
                        }
                    }
                    probe_table(
                        l_rows,
                        *left_col,
                        &r_mixed_table,
                        &rows,
                        &mut stats.join,
                        &mut mixed,
                    );
                }
                for table in &r_pure_tables {
                    probe_table(
                        &l.mixed,
                        *left_col,
                        table,
                        &rows,
                        &mut stats.join,
                        &mut mixed,
                    );
                }
                probe_table(
                    &l.mixed,
                    *left_col,
                    &r_mixed_table,
                    &rows,
                    &mut stats.join,
                    &mut mixed,
                );

                Ok(Labeled { pure, mixed })
            }
        }
    }
}

/// Assert-style helper: ensure a signature exists in the registry for a
/// phase (used by integration tests to validate registration coverage).
pub fn registered(registry: &StateRegistry, rels: &[u32], phase: usize) -> bool {
    registry
        .lookup(&ExprSig::new(rels.to_vec()), phase)
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tukwila_optimizer::{Optimizer, OptimizerContext};
    use tukwila_relation::{DataType, Field, Schema, SortKey, Value};
    use tukwila_storage::{SortedList, StateStructure};

    /// A sealed non-hash structure: the rows sorted on column 0.
    fn sorted_list(rows: impl IntoIterator<Item = Tuple>) -> Arc<dyn StateStructure> {
        let mut l = SortedList::new(vec![SortKey::asc(0)]);
        rows.into_iter().for_each(|t| l.insert(t));
        Arc::new(l)
    }

    /// Two relations, two phases, everything registered at the leaves:
    /// stitch-up must produce exactly A0⋈B1 ∪ A1⋈B0.
    #[test]
    fn two_rel_two_phase_cross_terms() {
        let mk_rel = |id: u32, name: &str| {
            tukwila_optimizer::QueryRel::new(
                id,
                name,
                Schema::new(vec![Field::new(format!("{name}.k"), DataType::Int)]),
            )
        };
        let q = LogicalQuery::new(
            vec![mk_rel(1, "a"), mk_rel(2, "b")],
            vec![tukwila_optimizer::JoinPred {
                id: 1,
                left_rel: 1,
                left_col: 0,
                right_rel: 2,
                right_col: 0,
            }],
        );
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.optimize(&q).unwrap();

        let registry = StateRegistry::new();
        let schema = Schema::new(vec![Field::new("a.k", DataType::Int)]);
        let schema_b = Schema::new(vec![Field::new("b.k", DataType::Int)]);
        let list_of =
            |vals: &[i64]| sorted_list(vals.iter().map(|&v| Tuple::new(vec![Value::Int(v)])));
        // Phase 0: a={1,2}, b={2}; phase 1: a={3}, b={1,3}.
        registry.register(ExprSig::single(1), 0, schema.clone(), list_of(&[1, 2]));
        registry.register(ExprSig::single(2), 0, schema_b.clone(), list_of(&[2]));
        registry.register(ExprSig::single(1), 1, schema.clone(), list_of(&[3]));
        registry.register(ExprSig::single(2), 1, schema_b.clone(), list_of(&[1, 3]));

        let stitch = StitchUp::new(&q, &registry, 2);
        let mut got = Vec::new();
        let stats = stitch
            .run(&plan.root, &mut |batch| {
                got.extend_from_slice(batch);
                Ok(())
            })
            .unwrap();
        // Cross terms: a0 ⋈ b1 = {1}, a1 ⋈ b0 = {} — diagonal (2,2), (3,3)
        // excluded.
        assert_eq!(stats.mixed_tuples, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].get(0).as_int().unwrap(), 1);
    }

    /// The keyed-or-rehash rule. The same three phases of data are sealed
    /// with the plan's right-side relation held three ways — as tables
    /// keyed on the stitch join column, as tables keyed on another column,
    /// and as `SortedList`s (the left side is always a sorted list, so its
    /// scan order is fixed). Every way yields the same rows in the same
    /// order; only the first probes in place, the others rehash each
    /// registered right-side partition once.
    #[test]
    fn sealed_tables_probe_in_place_or_rehash() {
        let fields = |name: &str| {
            Schema::new(vec![
                Field::new(format!("{name}.k"), DataType::Int),
                Field::new(format!("{name}.v"), DataType::Int),
            ])
        };
        let q = LogicalQuery::new(
            vec![
                tukwila_optimizer::QueryRel::new(1, "a", fields("a")),
                tukwila_optimizer::QueryRel::new(2, "b", fields("b")),
            ],
            vec![tukwila_optimizer::JoinPred {
                id: 1,
                left_rel: 1,
                left_col: 0,
                right_rel: 2,
                right_col: 0,
            }],
        );
        let plan = Optimizer::new(OptimizerContext::no_statistics())
            .optimize(&q)
            .unwrap();
        let PhysKind::Join {
            right, right_col, ..
        } = &plan.root.kind
        else {
            panic!("a two-relation plan is one join");
        };
        let right_rel = right.rels()[0];
        let other_col = 1 - *right_col;

        // (k, v) rows per relation and phase. Join keys are unique within a
        // partition apart from exact duplicate rows, so every way of
        // sealing the right side yields the same match order per key.
        let data = |rel: u32, phase: usize| -> Vec<Tuple> {
            let rows: &[(i64, i64)] = match (rel, phase) {
                (1, 0) => &[(1, 10), (2, 20), (3, 30)],
                (1, 1) => &[(2, 21), (4, 41), (1, 11)],
                (1, _) => &[(3, 32), (4, 42), (4, 42)],
                (_, 0) => &[(2, 200), (4, 400)],
                (_, 1) => &[(1, 101), (3, 301), (3, 301)],
                _ => &[(1, 102), (2, 202), (4, 402)],
            };
            rows.iter()
                .map(|&(k, v)| Tuple::new(vec![Value::Int(k), Value::Int(v)]))
                .collect()
        };
        let nphases = 3;

        let run = |right_as: &dyn Fn(Vec<Tuple>) -> Arc<dyn StateStructure>| {
            let registry = StateRegistry::new();
            for (rel, name) in [(1u32, "a"), (2, "b")] {
                for phase in 0..nphases {
                    let rows = data(rel, phase);
                    let structure = if rel == right_rel {
                        right_as(rows)
                    } else {
                        sorted_list(rows)
                    };
                    registry.register(ExprSig::single(rel), phase, fields(name), structure);
                }
            }
            let mut got = Vec::new();
            let stats = StitchUp::new(&q, &registry, nphases)
                .run(&plan.root, &mut |batch| {
                    got.extend_from_slice(batch);
                    Ok(())
                })
                .unwrap();
            (got, stats)
        };
        let table_on = |col: usize| {
            move |rows: Vec<Tuple>| -> Arc<dyn StateStructure> {
                let mut t = TupleHashTable::new(col);
                rows.into_iter().for_each(|r| t.insert(r));
                Arc::new(t)
            }
        };
        let (keyed, keyed_stats) = run(&table_on(*right_col));
        let (other, other_stats) = run(&table_on(other_col));
        let (listed, listed_stats) = run(&sorted_list);

        // Cross-phase pairs, brute force, in the plan's orientation.
        let left_rel = 3 - right_rel;
        let mut expected = Vec::new();
        for a in 0..nphases {
            for b in (0..nphases).filter(|&b| b != a) {
                for l in data(left_rel, a) {
                    for r in data(right_rel, b) {
                        if l.get(0) == r.get(0) {
                            expected.push(l.concat(&r));
                        }
                    }
                }
            }
        }
        let sorted = |mut v: Vec<Tuple>| {
            v.sort_by_key(|t| format!("{t:?}"));
            v
        };
        assert!(!keyed.is_empty());
        assert_eq!(sorted(keyed.clone()), sorted(expected));
        assert_eq!(other, keyed, "rows and order match the in-place probe");
        assert_eq!(listed, keyed, "rows and order match the in-place probe");

        assert_eq!(keyed_stats.join.rehashes, 0);
        assert_eq!(other_stats.join.rehashes, nphases);
        assert_eq!(listed_stats.join.rehashes, nphases);
        for stats in [keyed_stats, other_stats, listed_stats] {
            assert_eq!(stats.entries_reused, 2 * nphases);
            assert_eq!(stats.mixed_tuples, keyed.len());
        }
    }

    #[test]
    fn single_phase_is_a_noop() {
        let mk_rel = |id: u32, name: &str| {
            tukwila_optimizer::QueryRel::new(
                id,
                name,
                Schema::new(vec![Field::new(format!("{name}.k"), DataType::Int)]),
            )
        };
        let q = LogicalQuery::new(
            vec![mk_rel(1, "a"), mk_rel(2, "b")],
            vec![tukwila_optimizer::JoinPred {
                id: 1,
                left_rel: 1,
                left_col: 0,
                right_rel: 2,
                right_col: 0,
            }],
        );
        let opt = Optimizer::new(OptimizerContext::no_statistics());
        let plan = opt.optimize(&q).unwrap();
        let registry = StateRegistry::new();
        let stitch = StitchUp::new(&q, &registry, 1);
        let mut calls = 0;
        let stats = stitch
            .run(&plan.root, &mut |_| {
                calls += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(stats.mixed_tuples, 0);
        assert_eq!(calls, 0);
    }
}
