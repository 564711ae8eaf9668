//! The state-structure registry of paper §3.4.2.
//!
//! Each plan/phase "registers" the state structures it materializes,
//! keyed by the logical expression they hold and annotated with
//! cardinality. The stitch-up optimizer consults the registry to build its
//! exclusion list (subexpressions that must not be recomputed) and to find
//! reusable intermediate results; the registry also keeps the
//! reused-vs-discarded tuple accounting reported in Tables 1 and 2 of the
//! paper.

use std::sync::Arc;

use parking_lot::RwLock;
use tukwila_relation::Schema;

use crate::state::StateStructure;

/// Identity of a logical subexpression within one query: the set of base
/// relations it joins. (Within a single SPJA query, the applicable join and
/// selection predicates are determined by the relation set, so the set is a
/// sufficient key — the paper records "one subexpression selectivity shared
/// across all logically equivalent subexpressions" the same way, §4.2.)
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprSig {
    rels: Box<[u32]>,
}

impl ExprSig {
    /// Build from an unordered set of relation ids.
    pub fn new(mut rels: Vec<u32>) -> ExprSig {
        rels.sort_unstable();
        rels.dedup();
        ExprSig { rels: rels.into() }
    }

    pub fn single(rel: u32) -> ExprSig {
        ExprSig {
            rels: Box::new([rel]),
        }
    }

    pub fn rels(&self) -> &[u32] {
        &self.rels
    }

    pub fn arity(&self) -> usize {
        self.rels.len()
    }

    /// Union of two signatures (join of two subexpressions).
    pub fn union(&self, other: &ExprSig) -> ExprSig {
        let mut v: Vec<u32> = self.rels.iter().chain(other.rels.iter()).copied().collect();
        v.sort_unstable();
        v.dedup();
        ExprSig { rels: v.into() }
    }

    pub fn contains(&self, rel: u32) -> bool {
        self.rels.binary_search(&rel).is_ok()
    }

    pub fn is_subset_of(&self, other: &ExprSig) -> bool {
        self.rels.iter().all(|r| other.contains(*r))
    }
}

impl std::fmt::Display for ExprSig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.rels.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "R{r}")?;
        }
        write!(f, "}}")
    }
}

/// One registered structure.
pub struct RegistryEntry {
    pub sig: ExprSig,
    /// Phase (plan id) that materialized it.
    pub phase: usize,
    pub schema: Schema,
    pub structure: Arc<dyn StateStructure>,
    pub cardinality: usize,
    reused: std::sync::atomic::AtomicBool,
}

impl RegistryEntry {
    pub fn mark_reused(&self) {
        self.reused
            .store(true, std::sync::atomic::Ordering::Relaxed);
    }

    pub fn was_reused(&self) -> bool {
        self.reused.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Reuse accounting across a whole query execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Tuples held in registered intermediate structures that the stitch-up
    /// phase (or a later plan) read back rather than recomputing.
    pub reused_tuples: usize,
    /// Tuples computed in earlier phases that no later phase consumed.
    pub discarded_tuples: usize,
    pub entries_reused: usize,
    pub entries_discarded: usize,
}

/// Thread-safe registry shared between the phase executors, the re-optimizer
/// and the stitch-up executor.
#[derive(Default)]
pub struct StateRegistry {
    entries: RwLock<Vec<Arc<RegistryEntry>>>,
}

impl StateRegistry {
    pub fn new() -> StateRegistry {
        StateRegistry::default()
    }

    /// Register a structure holding the result of `sig` computed by `phase`.
    pub fn register(
        &self,
        sig: ExprSig,
        phase: usize,
        schema: Schema,
        structure: Arc<dyn StateStructure>,
    ) -> Arc<RegistryEntry> {
        let entry = Arc::new(RegistryEntry {
            cardinality: structure.len(),
            sig,
            phase,
            schema,
            structure,
            reused: std::sync::atomic::AtomicBool::new(false),
        });
        self.entries.write().push(entry.clone());
        entry
    }

    /// Find the structure holding exactly `sig` for `phase`, if registered.
    pub fn lookup(&self, sig: &ExprSig, phase: usize) -> Option<Arc<RegistryEntry>> {
        self.entries
            .read()
            .iter()
            .find(|e| e.phase == phase && &e.sig == sig)
            .cloned()
    }

    /// Every registered entry (snapshot).
    pub fn entries(&self) -> Vec<Arc<RegistryEntry>> {
        self.entries.read().clone()
    }

    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate reuse/discard accounting across all registered entries,
    /// leaf partitions included — the paper's Table 1 "reused tuples"
    /// (≈750K for Q3A at SF 0.1) counts the buffered source data that
    /// stitch-up reads back instead of re-fetching.
    pub fn reuse_stats(&self) -> ReuseStats {
        let mut s = ReuseStats::default();
        for e in self.entries.read().iter() {
            if e.was_reused() {
                s.reused_tuples += e.cardinality;
                s.entries_reused += 1;
            } else {
                s.discarded_tuples += e.cardinality;
                s.entries_discarded += 1;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SortedList;
    use tukwila_relation::{DataType, Field, SortKey, Tuple, Value};

    fn list_of(n: usize) -> Arc<dyn StateStructure> {
        let mut l = SortedList::new(vec![SortKey::asc(0)]);
        for i in 0..n {
            l.insert(Tuple::new(vec![Value::Int(i as i64)]));
        }
        Arc::new(l)
    }

    fn schema() -> Schema {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    #[test]
    fn sig_identity_ignores_order_and_dups() {
        assert_eq!(ExprSig::new(vec![3, 1, 2]), ExprSig::new(vec![1, 2, 3, 2]));
        assert_ne!(ExprSig::new(vec![1, 2]), ExprSig::new(vec![1, 3]));
        assert_eq!(ExprSig::new(vec![2, 1]).to_string(), "{R1,R2}");
    }

    #[test]
    fn sig_union_and_subset() {
        let a = ExprSig::new(vec![1, 2]);
        let b = ExprSig::new(vec![2, 3]);
        let u = a.union(&b);
        assert_eq!(u, ExprSig::new(vec![1, 2, 3]));
        assert!(a.is_subset_of(&u));
        assert!(!u.is_subset_of(&a));
        assert!(u.contains(3));
        assert!(!a.contains(3));
    }

    #[test]
    fn register_and_lookup_by_phase() {
        let reg = StateRegistry::new();
        let sig = ExprSig::new(vec![1, 2]);
        reg.register(sig.clone(), 0, schema(), list_of(10));
        reg.register(sig.clone(), 1, schema(), list_of(20));
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.lookup(&sig, 0).unwrap().cardinality, 10);
        assert_eq!(reg.lookup(&sig, 1).unwrap().cardinality, 20);
        assert!(reg.lookup(&sig, 2).is_none());
    }

    #[test]
    fn reuse_stats_split_reused_and_discarded() {
        let reg = StateRegistry::new();
        let a = reg.register(ExprSig::new(vec![1, 2]), 0, schema(), list_of(100));
        reg.register(ExprSig::new(vec![1, 2, 3]), 0, schema(), list_of(7));
        // Leaf partitions don't count either way.
        reg.register(ExprSig::single(1), 0, schema(), list_of(1000));
        a.mark_reused();
        let s = reg.reuse_stats();
        assert_eq!(s.reused_tuples, 100);
        // The unreused intermediate and the unreused leaf partition both
        // count as discarded.
        assert_eq!(s.discarded_tuples, 1007);
        assert_eq!(s.entries_reused, 1);
        assert_eq!(s.entries_discarded, 2);
    }
}
