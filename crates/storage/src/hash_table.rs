//! Equi-key hash table: the state structure behind every plan join (the
//! pipelined hash join) and the complementary join pair's hash side.

use std::collections::hash_map::Entry;

use tukwila_relation::{Key, Tuple};

use crate::fx::FxHashMap;
use crate::state::{StateStructure, StructProps};

/// End-of-chain marker in [`TupleHashTable`]'s `next` array.
const NONE: u32 = u32::MAX;

/// Hash table keyed on one column, stored as one insertion-ordered row
/// store.
///
/// Layout: every row lives in one `Vec<Tuple>` in insertion
/// order; a parallel `next: Vec<u32>` chains each row to the next row with
/// the same key (or `NONE`); an index `Key → (first, last)` finds a key's
/// chain and appends to its tail. An insert is one row push, one `next`
/// push and one index update — no per-key allocation — and dropping the
/// table frees two vectors and one map. Probes walk a chain, so matches
/// come back in insertion order.
pub struct TupleHashTable {
    key_col: usize,
    rows: Vec<Tuple>,
    next: Vec<u32>,
    index: FxHashMap<Key, (u32, u32)>,
}

/// Iterator over one key's chain of rows, in insertion order.
pub struct Matches<'a> {
    rows: &'a [Tuple],
    next: &'a [u32],
    cur: u32,
}

impl<'a> Iterator for Matches<'a> {
    type Item = &'a Tuple;

    #[inline]
    fn next(&mut self) -> Option<&'a Tuple> {
        if self.cur == NONE {
            return None;
        }
        let i = self.cur as usize;
        self.cur = self.next[i];
        Some(&self.rows[i])
    }
}

impl TupleHashTable {
    pub fn new(key_col: usize) -> TupleHashTable {
        TupleHashTable {
            key_col,
            rows: Vec::new(),
            next: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Insert a tuple at the tail of its key's chain.
    pub fn insert(&mut self, t: Tuple) {
        assert!(
            self.rows.len() < NONE as usize,
            "hash table row ids are u32"
        );
        let i = self.rows.len() as u32;
        match self.index.entry(t.key(self.key_col)) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                self.next[chain.1 as usize] = i;
                chain.1 = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
        self.rows.push(t);
        self.next.push(NONE);
    }

    /// All matches of `key`, in insertion order.
    pub fn probe(&self, key: &Key) -> Matches<'_> {
        self.chain(self.index.get(key).map_or(NONE, |&(first, _)| first))
    }

    fn chain(&self, first: u32) -> Matches<'_> {
        Matches {
            rows: &self.rows,
            next: &self.next,
            cur: first,
        }
    }

    /// Iterate the tuples: grouped by key in index order, insertion
    /// order within a key (the [`StateStructure::scan`] order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.index
            .values()
            .flat_map(|&(first, _)| self.chain(first))
    }

    /// Distinct key count (used by selectivity estimation).
    pub fn distinct_keys(&self) -> usize {
        self.index.len()
    }
}

impl StateStructure for TupleHashTable {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn props(&self) -> StructProps {
        StructProps::keyed(self.key_col)
    }

    fn probe_into(&self, key: &Key, out: &mut Vec<Tuple>) {
        out.extend(self.probe(key).cloned());
    }

    fn scan(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.rows.len());
        out.extend(self.iter().cloned());
        out
    }

    fn as_hash_table(&self) -> Option<&TupleHashTable> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::Value;

    fn t(k: i64, v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::Int(v)])
    }

    fn key(k: i64) -> Key {
        Value::Int(k).to_key()
    }

    #[test]
    fn insert_and_probe() {
        let mut h = TupleHashTable::new(0);
        for i in 0..10 {
            h.insert(t(i % 3, i));
        }
        assert_eq!(h.len(), 10);
        assert_eq!(h.probe(&key(0)).count(), 4); // 0,3,6,9
        assert_eq!(h.probe(&key(2)).count(), 3);
        assert!(h.probe(&key(99)).next().is_none());
        assert_eq!(h.distinct_keys(), 3);
    }

    #[test]
    fn scan_matches_inserts() {
        let mut h = TupleHashTable::new(0);
        for i in 0..20 {
            h.insert(t(i % 5, i));
        }
        let mut got: Vec<i64> = h
            .scan()
            .iter()
            .map(|x| x.get(1).as_int().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }
}
