//! Tuple list maintained in sort order.

use std::cmp::Ordering;

use tukwila_relation::{cmp_tuples, Key, SortKey, Tuple};

use crate::state::{StateStructure, StructProps};

/// A list kept sorted under a sequence of sort keys. Appends of in-order
/// data are O(1); out-of-order inserts binary-search their position.
/// Merge joins buffer their consumed inputs here, keeping the ordering
/// property available for later reuse.
#[derive(Debug, Clone)]
pub struct SortedList {
    keys: Vec<SortKey>,
    tuples: Vec<Tuple>,
}

impl SortedList {
    pub fn new(keys: Vec<SortKey>) -> SortedList {
        SortedList {
            keys,
            tuples: Vec::new(),
        }
    }

    /// Insert maintaining order (stable: equal keys keep arrival order).
    pub fn insert(&mut self, t: Tuple) {
        if let Some(last) = self.tuples.last() {
            if cmp_tuples(&self.keys, last, &t) != Ordering::Greater {
                self.tuples.push(t);
                return;
            }
        } else {
            self.tuples.push(t);
            return;
        }
        let pos = self
            .tuples
            .partition_point(|x| cmp_tuples(&self.keys, x, &t) != Ordering::Greater);
        self.tuples.insert(pos, t);
    }

    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Tuples whose *first* sort column equals `key` (binary search).
    pub fn probe_first_col(&self, key: &Key) -> &[Tuple] {
        let col = match self.keys.first() {
            Some(k) => k.col,
            None => return &[],
        };
        let lo = self
            .tuples
            .partition_point(|t| t.key(col).cmp(key) == Ordering::Less);
        let hi = self
            .tuples
            .partition_point(|t| t.key(col).cmp(key) != Ordering::Greater);
        &self.tuples[lo..hi]
    }
}

impl StateStructure for SortedList {
    fn len(&self) -> usize {
        self.tuples.len()
    }

    fn props(&self) -> StructProps {
        StructProps {
            keyed_on: self.keys.first().map(|k| k.col),
        }
    }

    fn probe_into(&self, key: &Key, out: &mut Vec<Tuple>) {
        out.extend_from_slice(self.probe_first_col(key));
    }

    fn scan(&self) -> Vec<Tuple> {
        self.tuples.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::Value;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn asc() -> Vec<SortKey> {
        vec![SortKey::asc(0)]
    }

    #[test]
    fn in_order_appends() {
        let mut l = SortedList::new(asc());
        for i in 0..100 {
            l.insert(t(i));
        }
        assert_eq!(l.len(), 100);
        assert!(tukwila_relation::sort::is_sorted(&asc(), l.tuples()));
    }

    #[test]
    fn out_of_order_inserts_stay_sorted() {
        let mut l = SortedList::new(asc());
        for v in [5, 1, 9, 3, 3, 7, 0] {
            l.insert(t(v));
        }
        assert!(tukwila_relation::sort::is_sorted(&asc(), l.tuples()));
        assert_eq!(l.len(), 7);
    }

    #[test]
    fn probe_finds_all_duplicates() {
        let mut l = SortedList::new(asc());
        for v in [1, 2, 2, 2, 3] {
            l.insert(t(v));
        }
        let hits = l.probe_first_col(&Value::Int(2).to_key());
        assert_eq!(hits.len(), 3);
        let miss = l.probe_first_col(&Value::Int(9).to_key());
        assert!(miss.is_empty());
    }

    #[test]
    fn trait_probe_matches_inherent() {
        let mut l = SortedList::new(asc());
        for v in [4, 4, 8] {
            l.insert(t(v));
        }
        let mut out = Vec::new();
        l.probe_into(&Value::Int(4).to_key(), &mut out);
        assert_eq!(out.len(), 2);
    }
}
