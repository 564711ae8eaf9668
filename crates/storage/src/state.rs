//! The shared read-view trait over all state structures.

use tukwila_relation::{Key, Tuple};

use crate::hash_table::TupleHashTable;

/// Properties a state structure advertises (paper §3.1: structures
/// "advertise certain properties (e.g., supports key-based access)"). The
/// re-optimizer and the stitch-up join consult these to decide how an
/// existing structure can be reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructProps {
    /// Column on which key-based probes are supported, if any.
    pub keyed_on: Option<usize>,
}

impl StructProps {
    pub fn unkeyed() -> StructProps {
        StructProps { keyed_on: None }
    }

    pub fn keyed(col: usize) -> StructProps {
        StructProps {
            keyed_on: Some(col),
        }
    }
}

/// Read view shared across plans. Owning operators mutate structures through
/// their concrete types; once a phase seals, structures are registered as
/// `Arc<dyn StateStructure>` and other plans (notably stitch-up) read them
/// through this trait.
pub trait StateStructure: Send + Sync {
    /// Number of stored tuples.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Advertised properties.
    fn props(&self) -> StructProps;

    /// Append all tuples matching `key` to `out`. Structures
    /// without keyed access fall back to a filtered scan.
    fn probe_into(&self, key: &Key, out: &mut Vec<Tuple>);

    /// Clone out every tuple. (Tuple cloning is an `Arc` bump.)
    ///
    /// Order contract: a scan is deterministic for a given sequence of
    /// inserts, and each structure documents its order — sort order for
    /// [`crate::SortedList`], and for [`TupleHashTable`] grouped by key in
    /// index order with insertion order within a key. Consumers
    /// (stitch-up's left sides, the registry's readers) rely on that
    /// determinism for byte-identical answers and traces across runs.
    fn scan(&self) -> Vec<Tuple>;

    /// The structure as a hash table, when it is one — the handle
    /// stitch-up uses to probe a sealed table in place instead of
    /// rebuilding it (§3.4.3).
    fn as_hash_table(&self) -> Option<&TupleHashTable> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn props_constructors() {
        let u = StructProps::unkeyed();
        assert!(u.keyed_on.is_none());
        let k = StructProps::keyed(3);
        assert_eq!(k.keyed_on, Some(3));
    }
}
