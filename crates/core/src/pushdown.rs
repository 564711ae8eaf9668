//! Projection pushdown: before a run polls its sources, each source is
//! asked to ship only the base columns its query reads.
//!
//! A source that declares the `projection` capability (a
//! `DelayedSource`, a federated relation) then charges its link for
//! those columns alone, so narrower rows arrive sooner; every other
//! source refuses and ships whole rows. Rows keep the relation's schema
//! either way, and the engine reads no column it did not ask for (see
//! [`tukwila_source::SourceCapabilities::projection`]).

use tukwila_optimizer::preagg::needed_cols;
use tukwila_optimizer::LogicalQuery;
use tukwila_source::{Source, SourceControl};
use tukwila_storage::ExprSig;

/// The base columns of relation `rel_id` that `q` reads, ascending:
/// its join, group-by and aggregate-input columns
/// ([`needed_cols`]) and its scan filter's columns. `None` when `q`
/// does not aggregate (its answer is every column) or does not read
/// `rel_id`.
pub fn read_cols(q: &LogicalQuery, rel_id: u32) -> Option<Vec<usize>> {
    let rel = q.rel(rel_id).ok()?;
    let needed = needed_cols(q, &ExprSig::new(vec![rel_id]))?;
    let mut cols: Vec<usize> = needed.into_iter().map(|(_, c)| c).collect();
    cols.extend(rel.filter.iter().flat_map(|f| f.columns()));
    cols.sort_unstable();
    cols.dedup();
    Some(cols)
}

/// Ask every source of `q`'s run, before its first poll, to ship only
/// the columns [`read_cols`] names. Asks nothing when `q` does not
/// aggregate. A refused request changes nothing: that source ships
/// whole rows, as it would unasked.
pub fn request_projections(q: &LogicalQuery, sources: &mut [Box<dyn Source>]) {
    for src in sources {
        if let Some(cols) = read_cols(q, src.rel_id()) {
            // Instant 0: every run's timeline starts there, and nothing
            // has been polled yet.
            let _ = src.control(0, SourceControl::Project { cols });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_datagen::queries;
    use tukwila_datagen::{Dataset, DatasetConfig, TableId};

    /// The lineitem columns each workload query reads, and what a
    /// lineitem row then costs on the wire, of 241 bytes whole: alone,
    /// and federated, where the relation key (l_orderkey, l_linenumber)
    /// ships too. Q10 and Q10A read the one-byte returned flag.
    #[test]
    fn lineitem_ships_only_what_each_query_reads() {
        let d = Dataset::generate(DatasetConfig {
            scale: 0.001,
            zipf_z: None,
            seed: 1,
        });
        let row = &d.table(TableId::Lineitem)[0];
        assert_eq!(row.approx_bytes(), 241);
        let l = TableId::Lineitem.rel_id();
        for (q, alone, federated) in [
            (queries::q3a(), 48, 72),
            (queries::q10(), 73, 97),
            (queries::q10a(), 73, 97),
        ] {
            let mut cols = read_cols(&q, l).expect("the query aggregates");
            assert_eq!(row.wire_bytes(&cols), alone, "{cols:?}");
            cols.extend(TableId::Lineitem.key_cols());
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(row.wire_bytes(&cols), federated, "{cols:?}");
        }
        let mut unaggregated = queries::q3a();
        unaggregated.agg = None;
        assert_eq!(read_cols(&unaggregated, l), None, "every column is read");
        assert_eq!(read_cols(&queries::q3a(), 999), None, "not in the query");
    }
}
