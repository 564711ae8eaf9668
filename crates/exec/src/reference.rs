//! Naive full-materialization query executor, used as a correctness oracle
//! by the test suite. It evaluates select-project-join-aggregate queries by
//! brute force (filters, then left-deep hash joins in declaration order,
//! then grouping), with none of the adaptive machinery — so adaptive
//! executions can be checked against it bit-for-bit.

use tukwila_relation::agg::AggState;
use tukwila_relation::value::GroupKey;
use tukwila_relation::{Error, Expr, Key, Result, Schema, Tuple};
use tukwila_storage::fx::FxHashMap;

use crate::agg::{AggSpec, GroupSpec};

/// A base relation for the oracle.
#[derive(Clone)]
pub struct RefRelation {
    /// The relation's schema.
    pub schema: Schema,
    /// The relation's full contents.
    pub tuples: Vec<Tuple>,
}

/// An equi-join edge between two relations, with columns local to each
/// relation's schema.
#[derive(Debug, Clone, Copy)]
pub struct RefJoin {
    /// Index of the left relation in [`RefQuery::relations`].
    pub left_rel: usize,
    /// Join column within the left relation's schema.
    pub left_col: usize,
    /// Index of the right relation in [`RefQuery::relations`].
    pub right_rel: usize,
    /// Join column within the right relation's schema.
    pub right_col: usize,
}

/// Column address within the combined (concatenated in relation order)
/// schema.
#[derive(Debug, Clone, Copy)]
pub struct RefCol {
    /// Relation index in [`RefQuery::relations`].
    pub rel: usize,
    /// Column within that relation's schema.
    pub col: usize,
}

/// A reference SPJA query.
pub struct RefQuery {
    /// The base relations, in combined-schema order.
    pub relations: Vec<RefRelation>,
    /// Per-relation selection predicates (applied before joins).
    pub filters: Vec<(usize, Expr)>,
    /// Equi-join edges.
    pub joins: Vec<RefJoin>,
    /// Optional grouping over the combined schema.
    pub group_cols: Vec<RefCol>,
    /// Aggregates over the combined schema (empty = no aggregation).
    pub aggs: Vec<(tukwila_relation::agg::AggFunc, RefCol)>,
}

impl RefQuery {
    /// A query over `relations` with no filters, joins, or aggregates yet.
    pub fn new(relations: Vec<RefRelation>) -> RefQuery {
        RefQuery {
            relations,
            filters: Vec::new(),
            joins: Vec::new(),
            group_cols: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// Offset of `(rel, col)` in the combined schema.
    pub fn combined_col(&self, c: RefCol) -> usize {
        let offset: usize = self.relations[..c.rel]
            .iter()
            .map(|r| r.schema.arity())
            .sum();
        offset + c.col
    }

    /// Execute; returns joined (and optionally grouped) tuples.
    pub fn run(&self) -> Result<Vec<Tuple>> {
        if self.relations.is_empty() {
            return Ok(Vec::new());
        }
        // 1. Filters.
        let mut filtered: Vec<Vec<Tuple>> =
            self.relations.iter().map(|r| r.tuples.clone()).collect();
        for (rel, pred) in &self.filters {
            let mut kept = Vec::new();
            for t in &filtered[*rel] {
                if pred.matches(t)? {
                    kept.push(t.clone());
                }
            }
            filtered[*rel] = kept;
        }

        // 2. Left-deep join in relation order; each step applies every join
        //    edge connecting the new relation to already-joined ones.
        let mut acc = filtered[0].clone();
        let mut joined_rels = vec![0usize];
        // `rel` indexes `filtered`, the join-edge endpoints, and
        // `joined_rels` in parallel; an enumerate would obscure that.
        #[allow(clippy::needless_range_loop)]
        for rel in 1..self.relations.len() {
            let edges: Vec<&RefJoin> = self
                .joins
                .iter()
                .filter(|j| {
                    (j.right_rel == rel && joined_rels.contains(&j.left_rel))
                        || (j.left_rel == rel && joined_rels.contains(&j.right_rel))
                })
                .collect();
            if edges.is_empty() {
                return Err(Error::Plan(format!(
                    "relation {rel} not connected to the join graph; cross products unsupported"
                )));
            }
            // Use the first edge for hashing, the rest as residual filters.
            let first = edges[0];
            let (acc_col, new_col) = if first.right_rel == rel {
                (
                    self.combined_col(RefCol {
                        rel: first.left_rel,
                        col: first.left_col,
                    }),
                    first.right_col,
                )
            } else {
                (
                    self.combined_col(RefCol {
                        rel: first.right_rel,
                        col: first.right_col,
                    }),
                    first.left_col,
                )
            };
            // The oracle keeps its own join state (one `Vec` per key,
            // matches in insertion order) so it shares no code with the
            // engine's hash table.
            let mut table: FxHashMap<Key, Vec<Tuple>> = FxHashMap::default();
            for t in &filtered[rel] {
                table.entry(t.key(new_col)).or_default().push(t.clone());
            }
            let mut next = Vec::new();
            for a in &acc {
                for m in table.get(&a.key(acc_col)).into_iter().flatten() {
                    let candidate = a.concat(m);
                    let mut ok = true;
                    for e in &edges[1..] {
                        let (lc, rc) = if e.right_rel == rel {
                            (
                                self.combined_col(RefCol {
                                    rel: e.left_rel,
                                    col: e.left_col,
                                }),
                                self.combined_col(RefCol {
                                    rel: e.right_rel,
                                    col: e.right_col,
                                }),
                            )
                        } else {
                            (
                                self.combined_col(RefCol {
                                    rel: e.right_rel,
                                    col: e.right_col,
                                }),
                                self.combined_col(RefCol {
                                    rel: e.left_rel,
                                    col: e.left_col,
                                }),
                            )
                        };
                        if !candidate.get(lc).eq_total(candidate.get(rc)) {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        next.push(candidate);
                    }
                }
            }
            acc = next;
            joined_rels.push(rel);
        }

        // 3. Grouping.
        if self.group_cols.is_empty() && self.aggs.is_empty() {
            return Ok(acc);
        }
        let spec = GroupSpec::new(
            self.group_cols
                .iter()
                .map(|&c| self.combined_col(c))
                .collect(),
            self.aggs
                .iter()
                .map(|&(func, c)| AggSpec {
                    func,
                    col: self.combined_col(c),
                })
                .collect(),
        );
        let mut groups: FxHashMap<GroupKey, Vec<AggState>> = FxHashMap::default();
        for t in &acc {
            crate::agg::hash_agg::update_groups(&mut groups, &spec, t)?;
        }
        Ok(groups
            .iter()
            .map(|(k, s)| crate::agg::hash_agg::group_to_tuple(k, s))
            .collect())
    }
}

/// Canonical string form of a result set for order-insensitive comparison
/// in tests and experiments.
pub fn canonicalize(tuples: &[Tuple]) -> Vec<String> {
    let mut v: Vec<String> = tuples.iter().map(|t| format!("{t:?}")).collect();
    v.sort();
    v
}

/// Like [`canonicalize`], but floats are rounded to 6 significant digits.
/// Different plans sum floating-point measures in different orders, so
/// exact comparison across strategies is too strict.
pub fn canonicalize_approx(tuples: &[Tuple]) -> Vec<String> {
    use tukwila_relation::Value;
    let mut v: Vec<String> = tuples
        .iter()
        .map(|t| {
            let parts: Vec<String> = t
                .values()
                .iter()
                .map(|x| match x {
                    Value::Float(f) => format!("{f:.6e}"),
                    other => format!("{other}"),
                })
                .collect();
            parts.join(",")
        })
        .collect();
    v.sort();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::agg::AggFunc;
    use tukwila_relation::{CmpOp, DataType, Field, Value};

    fn rel(prefix: &str, rows: &[(i64, i64)]) -> RefRelation {
        RefRelation {
            schema: Schema::new(vec![
                Field::new(format!("{prefix}.k"), DataType::Int),
                Field::new(format!("{prefix}.v"), DataType::Int),
            ]),
            tuples: rows
                .iter()
                .map(|&(k, v)| Tuple::new(vec![Value::Int(k), Value::Int(v)]))
                .collect(),
        }
    }

    #[test]
    fn two_way_join() {
        let mut q = RefQuery::new(vec![
            rel("a", &[(1, 10), (2, 20)]),
            rel("b", &[(1, 100), (1, 101), (3, 300)]),
        ]);
        q.joins.push(RefJoin {
            left_rel: 0,
            left_col: 0,
            right_rel: 1,
            right_col: 0,
        });
        let out = q.run().unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|t| t.arity() == 4));
    }

    #[test]
    fn filter_applies_before_join() {
        let mut q = RefQuery::new(vec![
            rel("a", &[(1, 10), (2, 20)]),
            rel("b", &[(1, 100), (2, 200)]),
        ]);
        q.filters.push((
            0,
            Expr::cmp(Expr::Col(1), CmpOp::Ge, Expr::Lit(Value::Int(15))),
        ));
        q.joins.push(RefJoin {
            left_rel: 0,
            left_col: 0,
            right_rel: 1,
            right_col: 0,
        });
        let out = q.run().unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get(0).as_int().unwrap(), 2);
    }

    #[test]
    fn three_way_with_grouping() {
        let mut q = RefQuery::new(vec![
            rel("f", &[(1, 7), (2, 8)]),
            rel("t", &[(1, 5), (1, 6), (2, 5)]),
            rel("c", &[(5, 3), (6, 1)]),
        ]);
        // f.k = t.k, t.v = c.k
        q.joins.push(RefJoin {
            left_rel: 0,
            left_col: 0,
            right_rel: 1,
            right_col: 0,
        });
        q.joins.push(RefJoin {
            left_rel: 1,
            left_col: 1,
            right_rel: 2,
            right_col: 0,
        });
        q.group_cols = vec![RefCol { rel: 0, col: 0 }];
        q.aggs = vec![(AggFunc::Max, RefCol { rel: 2, col: 1 })];
        let out = q.run().unwrap();
        assert_eq!(out.len(), 2);
        let g1 = out
            .iter()
            .find(|t| t.get(0).as_int().unwrap() == 1)
            .unwrap();
        assert_eq!(g1.get(1).as_int().unwrap(), 3, "max(c.v) for f.k=1");
    }

    #[test]
    fn disconnected_relation_is_error() {
        let q = RefQuery {
            relations: vec![rel("a", &[(1, 1)]), rel("b", &[(1, 1)])],
            filters: vec![],
            joins: vec![],
            group_cols: vec![],
            aggs: vec![],
        };
        assert!(q.run().is_err());
    }

    #[test]
    fn cycle_edges_become_residual_filters() {
        // Triangle: a.k=b.k, b.v=c.k, and a.v=c.v (cycle edge).
        let mut q = RefQuery::new(vec![
            rel("a", &[(1, 3), (1, 4)]),
            rel("b", &[(1, 5)]),
            rel("c", &[(5, 3)]),
        ]);
        q.joins.push(RefJoin {
            left_rel: 0,
            left_col: 0,
            right_rel: 1,
            right_col: 0,
        });
        q.joins.push(RefJoin {
            left_rel: 1,
            left_col: 1,
            right_rel: 2,
            right_col: 0,
        });
        q.joins.push(RefJoin {
            left_rel: 0,
            left_col: 1,
            right_rel: 2,
            right_col: 1,
        });
        let out = q.run().unwrap();
        // Only (1,3) x (1,5) x (5,3) satisfies a.v = c.v.
        assert_eq!(out.len(), 1);
    }
}
