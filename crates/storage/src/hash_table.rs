//! Equi-key hash table with lazy partition-wise spill to disk.
//!
//! This is the workhorse structure behind the pipelined hash join, hybrid
//! hash join, and the complementary join pair. Overflow follows the
//! XJoin/Tukwila recipe referenced in §5: when memory pressure demands it,
//! the table lazily splits its keys into `n` partitions (by a hash that is
//! stable across *all* tables in a join, so co-partitioned tables spill the
//! same key ranges) and swaps chosen partitions to disk; spilled partitions
//! can be restored for stitch-up.

use std::collections::hash_map::Entry;

use tukwila_relation::{Error, Key, Result, Tuple};

use crate::fx::{hash_one, FxHashMap};
use crate::spill::{SpillFile, SpillSegment};
use crate::state::{StateStructure, StructProps};

/// Which partition a key belongs to, given a partition count. Shared so
/// that the two sides of a join agree (co-partitioning).
pub fn partition_of(key: &Key, nparts: usize) -> usize {
    (hash_one(key) as usize) % nparts.max(1)
}

#[derive(Debug, Default)]
struct SpilledPartition {
    segments: Vec<SpillSegment>,
    count: usize,
}

/// End-of-chain marker in [`TupleHashTable`]'s `next` array.
const NONE: u32 = u32::MAX;

/// Hash table keyed on one column, stored as one insertion-ordered row
/// store.
///
/// Layout: every resident row lives in one `Vec<Tuple>` in insertion
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
    bytes: usize,
    /// Set once the table has been partitioned for spilling.
    nparts: usize,
    spilled: Vec<SpilledPartition>,
    spill_file: Option<SpillFile>,
    spilled_count: usize,
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
            bytes: 0,
            nparts: 0,
            spilled: Vec::new(),
            spill_file: None,
            spilled_count: 0,
        }
    }

    pub fn key_col(&self) -> usize {
        self.key_col
    }

    /// Insert a tuple. If its key's partition is currently spilled, the
    /// tuple goes straight to disk.
    pub fn insert(&mut self, t: Tuple) -> Result<()> {
        let key = t.key(self.key_col);
        if self.nparts > 0 {
            let p = partition_of(&key, self.nparts);
            if !self.spilled[p].segments.is_empty() || self.is_partition_spilled(p) {
                return self.append_spilled(p, std::slice::from_ref(&t));
            }
        }
        self.push_resident(key, t);
        Ok(())
    }

    fn push_resident(&mut self, key: Key, t: Tuple) {
        assert!(
            self.rows.len() < NONE as usize,
            "hash table row ids are u32"
        );
        let i = self.rows.len() as u32;
        match self.index.entry(key) {
            Entry::Occupied(mut e) => {
                let chain = e.get_mut();
                self.next[chain.1 as usize] = i;
                chain.1 = i;
            }
            Entry::Vacant(e) => {
                e.insert((i, i));
            }
        }
        self.bytes += t.approx_bytes();
        self.rows.push(t);
        self.next.push(NONE);
    }

    fn is_partition_spilled(&self, p: usize) -> bool {
        self.nparts > 0 && self.spilled[p].count > 0
    }

    fn append_spilled(&mut self, p: usize, tuples: &[Tuple]) -> Result<()> {
        if self.spill_file.is_none() {
            self.spill_file = Some(SpillFile::create()?);
        }
        let seg = self
            .spill_file
            .as_mut()
            .expect("spill file just created")
            .write_tuples(tuples)?;
        self.spilled[p].segments.push(seg);
        self.spilled[p].count += tuples.len();
        self.spilled_count += tuples.len();
        Ok(())
    }

    /// All in-memory matches of `key`, in insertion order.
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

    /// Whether a probe for this key would need a spilled partition (the
    /// caller must then defer the probe to stitch-up, as XJoin does).
    pub fn key_is_spilled(&self, key: &Key) -> bool {
        self.nparts > 0 && self.spilled[partition_of(key, self.nparts)].count > 0
    }

    /// Number of in-memory tuples.
    pub fn resident_len(&self) -> usize {
        self.rows.len()
    }

    /// Number of tuples currently on disk.
    pub fn spilled_len(&self) -> usize {
        self.spilled_count
    }

    /// Iterate in-memory tuples: grouped by key in index order, insertion
    /// order within a key (the [`StateStructure::scan`] order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.index
            .values()
            .flat_map(|&(first, _)| self.chain(first))
    }

    /// Lazily partition the key space into `nparts` and spill partition `p`
    /// to disk, freeing its memory (paper §5: "lazily partitions all four
    /// hash tables along the same boundaries and swaps some of these
    /// regions to disk"). The row store is compacted and the surviving
    /// chains renumbered; survivors keep their relative order.
    pub fn spill_partition(&mut self, p: usize, nparts: usize) -> Result<usize> {
        if self.nparts == 0 {
            self.nparts = nparts;
            self.spilled = (0..nparts).map(|_| SpilledPartition::default()).collect();
        } else if self.nparts != nparts {
            return Err(Error::Exec(format!(
                "hash table already partitioned into {} (asked for {nparts})",
                self.nparts
            )));
        }
        if p >= self.nparts {
            return Err(Error::Exec(format!("partition {p} out of range")));
        }
        let keys: Vec<Key> = self
            .index
            .keys()
            .filter(|k| partition_of(k, nparts) == p)
            .cloned()
            .collect();
        // Victims leave grouped by key in index order, insertion order
        // within a key — the order a restore appends them back in.
        let mut victims: Vec<Tuple> = Vec::new();
        let mut gone = vec![false; self.rows.len()];
        for k in keys {
            if let Some((first, _)) = self.index.remove(&k) {
                let mut i = first;
                while i != NONE {
                    gone[i as usize] = true;
                    victims.push(self.rows[i as usize].clone());
                    i = self.next[i as usize];
                }
            }
        }
        if !victims.is_empty() {
            let rows = std::mem::take(&mut self.rows);
            let next = std::mem::take(&mut self.next);
            let mut renumber = vec![NONE; rows.len()];
            for (i, (t, link)) in rows.into_iter().zip(next).enumerate() {
                if !gone[i] {
                    renumber[i] = self.rows.len() as u32;
                    self.rows.push(t);
                    self.next.push(link);
                }
            }
            // A key's chain is spilled whole, so every surviving link
            // points at a survivor.
            let map = |i: u32| {
                if i == NONE {
                    NONE
                } else {
                    renumber[i as usize]
                }
            };
            for link in &mut self.next {
                *link = map(*link);
            }
            for chain in self.index.values_mut() {
                *chain = (map(chain.0), map(chain.1));
            }
            for t in &victims {
                self.bytes = self.bytes.saturating_sub(t.approx_bytes());
            }
        }
        let n = victims.len();
        if n > 0 || self.spilled[p].count == 0 {
            // Mark the partition spilled even if currently empty so future
            // inserts for it go to disk.
            self.append_spilled(p, &victims)?;
            // append_spilled counts only tuples; ensure empty-marker works.
            if n == 0 {
                self.spilled[p].count = 0;
            }
        }
        Ok(n)
    }

    /// Read a spilled partition back into memory (stitch-up time); its
    /// rows are appended to the row store.
    pub fn restore_partition(&mut self, p: usize) -> Result<Vec<Tuple>> {
        if self.nparts == 0 || p >= self.nparts {
            return Ok(Vec::new());
        }
        let segs = std::mem::take(&mut self.spilled[p].segments);
        let mut out = Vec::with_capacity(self.spilled[p].count);
        if let Some(f) = self.spill_file.as_mut() {
            for seg in segs {
                out.extend(f.read_segment(seg)?);
            }
        }
        self.spilled_count -= self.spilled[p].count;
        self.spilled[p].count = 0;
        for t in &out {
            self.push_resident(t.key(self.key_col), t.clone());
        }
        Ok(out)
    }

    /// Distinct in-memory key count (used by selectivity estimation).
    pub fn distinct_keys(&self) -> usize {
        self.index.len()
    }
}

impl StateStructure for TupleHashTable {
    fn len(&self) -> usize {
        self.rows.len() + self.spilled_count
    }

    fn approx_bytes(&self) -> usize {
        self.bytes
    }

    fn props(&self) -> StructProps {
        StructProps {
            keyed_on: Some(self.key_col),
            sorted_by: Vec::new(),
            requires_sorted_input: false,
            partially_spilled: self.spilled_count > 0,
        }
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
            h.insert(t(i % 3, i)).unwrap();
        }
        assert_eq!(h.len(), 10);
        assert_eq!(h.probe(&key(0)).count(), 4); // 0,3,6,9
        assert_eq!(h.probe(&key(2)).count(), 3);
        assert!(h.probe(&key(99)).next().is_none());
        assert_eq!(h.distinct_keys(), 3);
    }

    #[test]
    fn spill_and_restore_roundtrip() {
        let mut h = TupleHashTable::new(0);
        for i in 0..100 {
            h.insert(t(i, i)).unwrap();
        }
        let before: usize = h.len();
        let mut spilled_total = 0;
        for p in 0..4 {
            spilled_total += h.spill_partition(p, 4).unwrap();
        }
        assert_eq!(spilled_total, 100);
        assert_eq!(h.resident_len(), 0);
        assert_eq!(h.len(), before, "len counts spilled tuples");
        assert!(h.props().partially_spilled);

        // Inserts while spilled go to disk.
        h.insert(t(200, 200)).unwrap();
        assert_eq!(h.resident_len(), 0);

        let mut restored = 0;
        for p in 0..4 {
            restored += h.restore_partition(p).unwrap().len();
        }
        assert_eq!(restored, 101);
        assert_eq!(h.resident_len(), 101);
        assert_eq!(h.probe(&key(200)).count(), 1);
    }

    #[test]
    fn partial_spill_keeps_other_partitions_probeable() {
        let mut h = TupleHashTable::new(0);
        for i in 0..50 {
            h.insert(t(i, i)).unwrap();
        }
        h.spill_partition(1, 4).unwrap();
        let mut in_mem = 0;
        let mut deferred = 0;
        for i in 0..50 {
            if h.key_is_spilled(&key(i)) {
                deferred += 1;
                assert!(h.probe(&key(i)).next().is_none());
            } else {
                in_mem += 1;
                assert_eq!(h.probe(&key(i)).count(), 1);
            }
        }
        assert!(deferred > 0 && in_mem > 0);
        assert_eq!(in_mem + deferred, 50);
    }

    #[test]
    fn co_partitioning_is_stable() {
        for k in 0..1000i64 {
            let kk = key(k);
            assert_eq!(partition_of(&kk, 8), partition_of(&kk, 8));
        }
    }

    #[test]
    fn repartition_with_different_count_is_error() {
        let mut h = TupleHashTable::new(0);
        h.insert(t(1, 1)).unwrap();
        h.spill_partition(0, 4).unwrap();
        assert!(h.spill_partition(0, 8).is_err());
    }

    #[test]
    fn scan_matches_inserts() {
        let mut h = TupleHashTable::new(0);
        for i in 0..20 {
            h.insert(t(i % 5, i)).unwrap();
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
