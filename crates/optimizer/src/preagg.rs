//! Pre-aggregation push-down analysis (paper §2.2, §6; following the
//! approach of Chaudhuri & Shim \[4\]).
//!
//! Grouping distributes over union, so a *partial* grouping can be inserted
//! below the final GROUP BY as long as the partial groups carry (a) every
//! attribute a later join or residual predicate needs, and (b) every final
//! grouping attribute available in the subtree. This module computes those
//! insertion parameters; the lowering in `enumerate` applies them.

use tukwila_relation::agg::AggFunc;
use tukwila_storage::ExprSig;

use crate::logical::LogicalQuery;

/// The computed parameters of one pre-aggregation insertion point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreAggPoint {
    /// Base relations covered by the subtree the operator sits above.
    pub subtree: ExprSig,
    /// Base columns `(rel, col)` the partial groups must preserve.
    pub group_cols: Vec<(u32, usize)>,
    /// `(query agg index, func, (rel, col))` partials to compute. `avg` is
    /// pre-decomposed: it contributes a `Sum` and a `Count` entry with the
    /// same agg index.
    pub partial_aggs: Vec<(usize, AggFunc, (u32, usize))>,
}

/// Choose the insertion point: the smallest set of relations covering every
/// aggregate input. Returns `None` when the query has no aggregates, or
/// when the covering set is the whole query (pre-aggregation would sit
/// directly under the final GROUP BY and coalesce nothing it doesn't
/// already).
pub fn preagg_point(q: &LogicalQuery) -> Option<PreAggPoint> {
    let agg = q.agg.as_ref()?;
    if agg.aggs.is_empty() {
        return None;
    }
    let mut rels: Vec<u32> = agg.aggs.iter().map(|(_, r)| r.rel).collect();
    rels.sort_unstable();
    rels.dedup();
    if rels.len() >= q.rels.len() {
        return None;
    }
    let subtree = ExprSig::new(rels);
    let group_cols = group_cols_for(q, &subtree);

    let mut partial_aggs = Vec::new();
    for (i, (func, r)) in agg.aggs.iter().enumerate() {
        match func {
            AggFunc::Avg => {
                partial_aggs.push((i, AggFunc::Sum, (r.rel, r.col)));
                partial_aggs.push((i, AggFunc::Count, (r.rel, r.col)));
            }
            f => partial_aggs.push((i, *f, (r.rel, r.col))),
        }
    }
    Some(PreAggPoint {
        subtree,
        group_cols,
        partial_aggs,
    })
}

/// The base columns a partial grouping over `subtree` must preserve: every
/// column of a subtree relation referenced by a predicate crossing the
/// subtree boundary, plus final group columns living inside the subtree.
/// (The join tree may place the operator above a *larger* subtree than the
/// minimal one; the caller recomputes group columns for the actual node.)
pub fn group_cols_for(q: &LogicalQuery, subtree: &ExprSig) -> Vec<(u32, usize)> {
    let mut group_cols: Vec<(u32, usize)> = Vec::new();
    for p in &q.preds {
        let l_in = subtree.contains(p.left_rel);
        let r_in = subtree.contains(p.right_rel);
        if l_in != r_in {
            if l_in {
                group_cols.push((p.left_rel, p.left_col));
            } else {
                group_cols.push((p.right_rel, p.right_col));
            }
        }
    }
    if let Some(agg) = &q.agg {
        for g in &agg.group {
            if subtree.contains(g.rel) {
                group_cols.push((g.rel, g.col));
            }
        }
    }
    group_cols.sort_unstable();
    group_cols.dedup();
    group_cols
}

/// The base columns of subexpression `sig` that something above it reads:
/// join columns crossing its boundary and final group columns (exactly
/// [`group_cols_for`]), plus aggregate inputs inside it. `None` when the
/// query does not aggregate: its answer is every column. The set depends
/// only on `sig`, never on the join order below or above it, so every
/// plan's node for a signature keeps the same columns.
pub fn needed_cols(q: &LogicalQuery, sig: &ExprSig) -> Option<Vec<(u32, usize)>> {
    let agg = q.agg.as_ref()?;
    let mut cols = group_cols_for(q, sig);
    cols.extend(
        agg.aggs
            .iter()
            .filter(|(_, r)| sig.contains(r.rel))
            .map(|(_, r)| (r.rel, r.col)),
    );
    cols.sort_unstable();
    cols.dedup();
    Some(cols)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{AggRef, JoinPred, QueryAgg, QueryRel};
    use tukwila_relation::{DataType, Field, Schema};

    /// Example 2.1's flights query: F(fid, from, to, when), T(ssn, flight),
    /// C(p, num); group by fid, from; max(num).
    fn flights_query() -> LogicalQuery {
        let f = QueryRel::new(
            1,
            "F",
            Schema::new(vec![
                Field::new("F.fid", DataType::Int),
                Field::new("F.from", DataType::Str),
                Field::new("F.to", DataType::Str),
                Field::new("F.when", DataType::Date),
            ]),
        );
        let t = QueryRel::new(
            2,
            "T",
            Schema::new(vec![
                Field::new("T.ssn", DataType::Int),
                Field::new("T.flight", DataType::Int),
            ]),
        );
        let c = QueryRel::new(
            3,
            "C",
            Schema::new(vec![
                Field::new("C.p", DataType::Int),
                Field::new("C.num", DataType::Int),
            ]),
        );
        LogicalQuery::new(
            vec![f, t, c],
            vec![
                JoinPred {
                    id: 1,
                    left_rel: 1,
                    left_col: 0,
                    right_rel: 2,
                    right_col: 1,
                },
                JoinPred {
                    id: 2,
                    left_rel: 2,
                    left_col: 0,
                    right_rel: 3,
                    right_col: 0,
                },
            ],
        )
        .with_agg(QueryAgg {
            group: vec![AggRef { rel: 1, col: 0 }, AggRef { rel: 1, col: 1 }],
            aggs: vec![(
                tukwila_relation::agg::AggFunc::Max,
                AggRef { rel: 3, col: 1 },
            )],
        })
    }

    #[test]
    fn insertion_point_covers_agg_inputs() {
        let q = flights_query();
        let p = preagg_point(&q).unwrap();
        assert_eq!(p.subtree, ExprSig::single(3), "max(num) lives in C");
        // C crosses the boundary via C.p = T.ssn, so C.p must be grouped.
        assert_eq!(p.group_cols, vec![(3, 0)]);
        assert_eq!(p.partial_aggs.len(), 1);
        assert_eq!(p.partial_aggs[0].1, tukwila_relation::agg::AggFunc::Max);
    }

    #[test]
    fn avg_is_decomposed() {
        let mut q = flights_query();
        q.agg.as_mut().unwrap().aggs = vec![(
            tukwila_relation::agg::AggFunc::Avg,
            AggRef { rel: 3, col: 1 },
        )];
        let p = preagg_point(&q).unwrap();
        assert_eq!(p.partial_aggs.len(), 2);
        assert_eq!(p.partial_aggs[0].1, tukwila_relation::agg::AggFunc::Sum);
        assert_eq!(p.partial_aggs[1].1, tukwila_relation::agg::AggFunc::Count);
        assert_eq!(p.partial_aggs[0].0, p.partial_aggs[1].0);
    }

    #[test]
    fn no_point_without_aggregates() {
        let mut q = flights_query();
        q.agg = None;
        assert!(preagg_point(&q).is_none());
    }

    #[test]
    fn no_point_when_aggs_span_everything() {
        let mut q = flights_query();
        q.agg.as_mut().unwrap().aggs = vec![
            (
                tukwila_relation::agg::AggFunc::Max,
                AggRef { rel: 1, col: 3 },
            ),
            (
                tukwila_relation::agg::AggFunc::Max,
                AggRef { rel: 2, col: 0 },
            ),
            (
                tukwila_relation::agg::AggFunc::Max,
                AggRef { rel: 3, col: 1 },
            ),
        ];
        assert!(preagg_point(&q).is_none());
    }

    #[test]
    fn needed_cols_add_agg_inputs_to_group_cols() {
        let q = flights_query();
        // F ⋈ T: F's group columns, T.ssn crossing to C; T.flight and
        // F.fid (the F–T join itself) are inside.
        let ft = ExprSig::new(vec![1, 2]);
        assert_eq!(needed_cols(&q, &ft), Some(vec![(1, 0), (1, 1), (2, 0)]));
        // C alone: the crossing C.p plus the max(num) input.
        assert_eq!(
            needed_cols(&q, &ExprSig::single(3)),
            Some(vec![(3, 0), (3, 1)])
        );
        let mut plain = q.clone();
        plain.agg = None;
        assert_eq!(needed_cols(&plain, &ft), None);
    }

    #[test]
    fn final_group_cols_inside_subtree_are_kept() {
        let mut q = flights_query();
        // Group by C.p as well.
        q.agg
            .as_mut()
            .unwrap()
            .group
            .push(AggRef { rel: 3, col: 0 });
        let p = preagg_point(&q).unwrap();
        assert_eq!(p.group_cols, vec![(3, 0)]);
    }
}
