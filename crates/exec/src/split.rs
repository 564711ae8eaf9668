//! Routers (paper §3.3: the "router module that helps the split operator
//! decide what subplan is most appropriate for an incoming tuple"): the
//! order-conformance test and the priority-queue pre-processing that the
//! complementary join pair (§5) splits its inputs with.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tukwila_relation::{Key, Tuple};

/// Output port chosen by a router.
pub type Port = usize;

/// Decides, per tuple, which subplan receives it.
pub trait Router: Send {
    /// Destination port for `t`, without buffering.
    fn route(&mut self, t: &Tuple) -> Port;

    /// Hand a tuple to the router; it may buffer it (returning `None`) or
    /// release a — possibly different — tuple with its destination.
    /// Buffering routers (priority queue) override this; the default
    /// routes immediately.
    fn offer(&mut self, t: Tuple) -> Option<(Port, Tuple)> {
        let p = self.route(&t);
        Some((p, t))
    }

    /// Flush any internally buffered tuples (port, tuple) at end of input.
    fn drain(&mut self) -> Vec<(Port, Tuple)> {
        Vec::new()
    }
}

/// Routes tuples that continue an ascending run on `key_col` to port 0
/// (the order-exploiting subplan) and order violators to port 1.
pub struct OrderRouter {
    key_col: usize,
    last_in_order: Option<Key>,
}

impl OrderRouter {
    /// A router tracking ascending runs on `key_col`.
    pub fn new(key_col: usize) -> OrderRouter {
        OrderRouter {
            key_col,
            last_in_order: None,
        }
    }

    fn classify(&mut self, t: &Tuple) -> Port {
        let k = t.key(self.key_col);
        match &self.last_in_order {
            Some(last) if k < *last => 1,
            _ => {
                self.last_in_order = Some(k);
                0
            }
        }
    }
}

impl Router for OrderRouter {
    fn route(&mut self, t: &Tuple) -> Port {
        self.classify(t)
    }
}

/// [`OrderRouter`] preceded by a bounded priority queue that re-sorts
/// recently received tuples before routing (the paper's "more
/// sophisticated implementation, which uses a priority queue (holding up
/// to 1024 tuples)").
pub struct PriorityQueueRouter {
    inner: OrderRouter,
    heap: BinaryHeap<Reverse<(Key, u64, TupleBox)>>,
    capacity: usize,
    seq: u64,
}

/// Wrapper giving `Tuple` the `Ord` the heap needs (never actually
/// compared: the `(key, seq)` prefix is unique).
struct TupleBox(Tuple);

impl PartialEq for TupleBox {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for TupleBox {}
impl PartialOrd for TupleBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TupleBox {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl PriorityQueueRouter {
    /// An order router buffering up to `capacity` tuples for re-sorting.
    pub fn new(key_col: usize, capacity: usize) -> PriorityQueueRouter {
        PriorityQueueRouter {
            inner: OrderRouter::new(key_col),
            heap: BinaryHeap::with_capacity(capacity + 1),
            capacity: capacity.max(1),
            seq: 0,
        }
    }

    /// Push a tuple; if the queue overflows, the smallest buffered tuple is
    /// released and routed.
    pub fn push(&mut self, t: Tuple) -> Option<(Port, Tuple)> {
        let key = t.key(self.inner.key_col);
        self.heap.push(Reverse((key, self.seq, TupleBox(t))));
        self.seq += 1;
        if self.heap.len() > self.capacity {
            let Reverse((_, _, TupleBox(out))) = self.heap.pop().expect("non-empty");
            let port = self.inner.classify(&out);
            return Some((port, out));
        }
        None
    }
}

impl Router for PriorityQueueRouter {
    fn route(&mut self, t: &Tuple) -> Port {
        // Immediate-routing fallback: classify without buffering. Callers
        // that want the re-sorting behaviour must use `offer`/`drain`.
        self.inner.classify(t)
    }

    fn offer(&mut self, t: Tuple) -> Option<(Port, Tuple)> {
        self.push(t)
    }

    fn drain(&mut self) -> Vec<(Port, Tuple)> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(Reverse((_, _, TupleBox(t)))) = self.heap.pop() {
            let port = self.inner.classify(&t);
            out.push((port, t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::Value;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    #[test]
    fn order_router_separates_violators() {
        let mut r = OrderRouter::new(0);
        let ports: Vec<Port> = [1, 2, 5, 3, 6, 4, 7]
            .iter()
            .map(|&v| r.route(&t(v)))
            .collect();
        // 3 and 4 violate the ascending run (after 5 and 6).
        assert_eq!(ports, vec![0, 0, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn order_router_equal_keys_stay_in_order() {
        let mut r = OrderRouter::new(0);
        assert_eq!(r.route(&t(5)), 0);
        assert_eq!(r.route(&t(5)), 0);
    }

    #[test]
    fn pq_router_repairs_small_disorder() {
        // Stream with adjacent swaps; queue of 4 should repair everything.
        let mut r = PriorityQueueRouter::new(0, 4);
        let mut merged = 0;
        let mut hashed = 0;
        let stream = [2, 1, 4, 3, 6, 5, 8, 7, 10, 9];
        for v in stream {
            if let Some((p, _)) = r.push(t(v)) {
                if p == 0 {
                    merged += 1;
                } else {
                    hashed += 1;
                }
            }
        }
        for (p, _) in r.drain() {
            if p == 0 {
                merged += 1;
            } else {
                hashed += 1;
            }
        }
        assert_eq!(merged, 10);
        assert_eq!(hashed, 0);
    }

    #[test]
    fn naive_router_fails_where_pq_succeeds() {
        let mut naive = OrderRouter::new(0);
        let stream = [2, 1, 4, 3, 6, 5];
        let violations = stream.iter().filter(|&&v| naive.route(&t(v)) == 1).count();
        assert!(violations >= 2, "naive router misroutes swapped pairs");
    }

    #[test]
    fn pq_drain_emits_in_sorted_order() {
        let mut r = PriorityQueueRouter::new(0, 100);
        for v in [5, 1, 9, 3] {
            assert!(r.push(t(v)).is_none());
        }
        let drained = r.drain();
        let vals: Vec<i64> = drained
            .iter()
            .map(|(_, t)| t.get(0).as_int().unwrap())
            .collect();
        assert_eq!(vals, vec![1, 3, 5, 9]);
        assert!(drained.iter().all(|(p, _)| *p == 0));
    }
}
