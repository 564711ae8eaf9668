//! Delayed sources: constant-bandwidth links and the bursty wireless model
//! (standing in for the paper's Figure 3 / Table 2 network sources).

use std::cmp::Ordering;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tukwila_relation::{Error, Result, Schema, Tuple, Value};

use crate::source::{
    Poll, Source, SourceCapabilities, SourceControl, SourceDescriptor, SourceProgressView,
};

/// How tuple arrival times are generated.
#[derive(Debug, Clone)]
pub enum DelayModel {
    /// Smooth link: `initial_latency_us`, then `bytes_per_sec` throughput.
    Bandwidth {
        bytes_per_sec: f64,
        initial_latency_us: u64,
    },
    /// Bursty 802.11b-style wireless: data flows at `bytes_per_sec` during
    /// "on" bursts; between bursts the link stalls. Burst and gap durations
    /// are drawn from a seeded RNG, so runs are reproducible. Mean burst
    /// length `burst_ms`, mean gap `gap_ms`.
    Wireless {
        bytes_per_sec: f64,
        burst_ms: f64,
        gap_ms: f64,
        seed: u64,
    },
}

/// The arrival clock of a [`DelayModel`], advanced one tuple at a time:
/// each call of [`Cursor::next`] charges one tuple's wire bytes to the
/// link and returns its arrival instant (µs after the schedule's anchor).
/// Arrivals are computed only as far as a consumer reads, so a source
/// that is never polled costs nothing.
#[derive(Debug, Clone)]
enum Cursor {
    Bandwidth {
        bytes_per_sec: f64,
        /// Arrival of the last tuple charged (µs), starting at the link
        /// latency.
        t: f64,
    },
    Wireless {
        bytes_per_sec: f64,
        burst_ms: f64,
        gap_ms: f64,
        rng: StdRng,
        /// Arrival of the last tuple charged (µs).
        now: f64,
        /// Burst time left before the next gap (µs).
        burst_left: f64,
    },
}

impl Cursor {
    /// The model's clock before its first tuple.
    fn start(model: &DelayModel) -> Cursor {
        match *model {
            DelayModel::Bandwidth {
                bytes_per_sec,
                initial_latency_us,
            } => Cursor::Bandwidth {
                bytes_per_sec,
                t: initial_latency_us as f64,
            },
            DelayModel::Wireless {
                bytes_per_sec,
                burst_ms,
                gap_ms,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let burst_left = exp_sample(&mut rng, burst_ms * 1000.0);
                Cursor::Wireless {
                    bytes_per_sec,
                    burst_ms,
                    gap_ms,
                    rng,
                    now: 0.0,
                    burst_left,
                }
            }
        }
    }

    /// Charge a tuple of `bytes` wire bytes to the link; its arrival (µs
    /// after the anchor).
    fn next(&mut self, bytes: usize) -> u64 {
        match self {
            Cursor::Bandwidth { bytes_per_sec, t } => {
                *t += bytes as f64 / *bytes_per_sec * 1e6;
                *t as u64
            }
            Cursor::Wireless {
                bytes_per_sec,
                burst_ms,
                gap_ms,
                rng,
                now,
                burst_left,
            } => {
                let mut need = bytes as f64 / *bytes_per_sec * 1e6;
                // Consume burst time; when a burst is exhausted, idle
                // through a gap and start a new burst.
                while need > *burst_left {
                    need -= *burst_left;
                    *now += *burst_left;
                    *now += exp_sample(rng, *gap_ms * 1000.0); // stall
                    *burst_left = exp_sample(rng, *burst_ms * 1000.0);
                }
                *burst_left -= need;
                *now += need;
                *now as u64
            }
        }
    }
}

/// Exponential sample with the given mean (inverse-CDF method; `rand`'s
/// distribution adapters are not in the offline dependency set).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

/// The positions of a source's tuples it delivers, in delivery order.
#[derive(Debug, Clone)]
enum Scan {
    /// Stored positions `start..end`, in storage order or reversed.
    Run {
        start: usize,
        end: usize,
        descending: bool,
    },
    /// Explicit positions: a key scan over tuples not stored in key
    /// order.
    Picked(Vec<u32>),
}

impl Scan {
    fn len(&self) -> usize {
        match self {
            Scan::Run { start, end, .. } => end - start,
            Scan::Picked(p) => p.len(),
        }
    }

    /// The stored position of the `i`-th tuple delivered.
    fn at(&self, i: usize) -> usize {
        match self {
            Scan::Run {
                descending: false,
                start,
                ..
            } => start + i,
            Scan::Run {
                descending: true,
                end,
                ..
            } => end - 1 - i,
            Scan::Picked(p) => p[i] as usize,
        }
    }
}

/// Lexicographic order of two tuples' keys.
fn cmp_keys(a: &Tuple, b: &Tuple, key_cols: &[usize]) -> Ordering {
    key_cols
        .iter()
        .map(|&c| a.get(c).cmp_total(b.get(c)))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
}

/// Whether `t`'s key lies after `after` (every key lies after `None`).
fn key_after(t: &Tuple, key_cols: &[usize], after: Option<&[Value]>) -> bool {
    let Some(after) = after else {
        return true;
    };
    key_cols
        .iter()
        .zip(after)
        .map(|(&c, v)| t.get(c).cmp_total(v))
        .find(|o| o.is_ne())
        .unwrap_or(Ordering::Equal)
        .is_gt()
}

/// A source whose tuples arrive according to a [`DelayModel`] schedule.
///
/// Arrivals are computed lazily, one tuple ahead of the reader. The
/// source declares two capabilities:
/// * `key_scan`: a [`SourceControl::KeyScan`] request restarts delivery
///   as the requested key range in key order, with the link latency and
///   then the model's bandwidth or burst pattern anchored at the request
///   instant;
/// * `projection`: after a [`SourceControl::Project`] request the model
///   charges each tuple not charged yet only the wire bytes of the
///   requested columns ([`Tuple::wire_bytes`]). Rows are still handed
///   out whole and shared; the request changes only when they arrive.
pub struct DelayedSource {
    rel_id: u32,
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
    model: DelayModel,
    /// What is delivered, in order: every stored tuple, or a key scan.
    scan: Scan,
    /// Tuples of `scan` delivered so far.
    pos: usize,
    /// The model's clock, charged up to the tuple at `pos`.
    cursor: Cursor,
    /// Arrival (µs after the anchor) of the tuple at `pos`, once charged.
    next_arrival: Option<u64>,
    /// The columns shipped, distinct and ascending; `None` ships whole
    /// rows.
    shipped: Option<Vec<usize>>,
    advertise_total: bool,
    /// Offset the schedule by the first poll's timestamp (connect-on-
    /// demand semantics); `None` anchors at timeline zero (broadcast
    /// semantics, the default).
    anchor_at_first_poll: bool,
    /// The schedule's anchor: the first poll when anchored, the instant
    /// of the last request, or timeline zero when `None`.
    anchor_us: Option<u64>,
}

impl DelayedSource {
    pub fn new(
        rel_id: u32,
        name: impl Into<String>,
        schema: Schema,
        tuples: Vec<Tuple>,
        model: &DelayModel,
    ) -> DelayedSource {
        let scan = Scan::Run {
            start: 0,
            end: tuples.len(),
            descending: false,
        };
        DelayedSource {
            rel_id,
            name: name.into(),
            schema,
            tuples,
            model: model.clone(),
            scan,
            pos: 0,
            cursor: Cursor::start(model),
            next_arrival: None,
            shipped: None,
            advertise_total: false,
            anchor_at_first_poll: false,
            anchor_us: None,
        }
    }

    pub fn with_advertised_total(mut self) -> Self {
        self.advertise_total = true;
        self
    }

    /// Anchor the delivery schedule at the *first poll* instead of
    /// timeline zero — connect-on-demand semantics: the link's initial
    /// latency and bandwidth clock start when the consumer first asks,
    /// the way a standby mirror starts streaming only once a hedge wakes
    /// it. The default (unanchored) schedule models a broadcast-style
    /// feed whose tuples arrive at fixed absolute instants whether or
    /// not anyone is listening — under that model, *when* a standby is
    /// woken cannot change *when* its last tuple exists, so failover
    /// timing is invisible in completion times.
    pub fn anchored(mut self) -> Self {
        self.anchor_at_first_poll = true;
        self
    }

    /// Virtual time at which the last tuple of the current scan arrives,
    /// relative to its anchor (the first poll when
    /// [`DelayedSource::anchored`], the instant of the last request).
    /// Walks the whole schedule.
    pub fn completion_time_us(&self) -> u64 {
        let mut cursor = Cursor::start(&self.model);
        (0..self.scan.len())
            .map(|i| cursor.next(self.wire_bytes(&self.tuples[self.scan.at(i)])))
            .last()
            .unwrap_or(0)
    }

    /// What shipping `tp` costs the link: its shipped columns' bytes.
    fn wire_bytes(&self, tp: &Tuple) -> usize {
        match &self.shipped {
            Some(cols) => tp.wire_bytes(cols),
            None => tp.approx_bytes(),
        }
    }

    /// Arrival (µs after the anchor) of the tuple at `pos`, charging it
    /// to the model's clock on first ask.
    fn arrival_at_pos(&mut self) -> u64 {
        match self.next_arrival {
            Some(at) => at,
            None => {
                let bytes = self.wire_bytes(&self.tuples[self.scan.at(self.pos)]);
                let at = self.cursor.next(bytes);
                self.next_arrival = Some(at);
                at
            }
        }
    }

    /// The key scan `key > after` over the stored tuples, in ascending or
    /// descending key order. Tuples already stored in key order (the
    /// common case: relations are clustered on their key) are scanned in
    /// place; others are sorted by key first (stable, so equal keys keep
    /// storage order).
    fn key_scan(&self, key_cols: &[usize], after: Option<&[Value]>, descending: bool) -> Scan {
        let ts = &self.tuples;
        let sorted = ts
            .windows(2)
            .all(|w| cmp_keys(&w[0], &w[1], key_cols).is_le());
        if sorted {
            let start = ts.partition_point(|t| !key_after(t, key_cols, after));
            return Scan::Run {
                start,
                end: ts.len(),
                descending,
            };
        }
        let mut picked: Vec<u32> = (0..ts.len() as u32)
            .filter(|&i| key_after(&ts[i as usize], key_cols, after))
            .collect();
        picked.sort_by(|&a, &b| cmp_keys(&ts[a as usize], &ts[b as usize], key_cols));
        if descending {
            picked.reverse();
        }
        Scan::Picked(picked)
    }
}

impl Source for DelayedSource {
    fn rel_id(&self) -> u32 {
        self.rel_id
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn poll(&mut self, now_us: u64, max_tuples: usize) -> Poll {
        let len = self.scan.len();
        if self.pos >= len {
            return Poll::Eof;
        }
        if self.anchor_at_first_poll && self.anchor_us.is_none() {
            self.anchor_us = Some(now_us);
        }
        let offset = self.anchor_us.unwrap_or(0);
        let first = self.arrival_at_pos() + offset;
        if first > now_us {
            return Poll::Pending {
                next_ready_us: first,
            };
        }
        let cap = (self.pos + max_tuples).min(len);
        let mut batch = Vec::new();
        while self.pos < cap && self.arrival_at_pos() + offset <= now_us {
            batch.push(self.tuples[self.scan.at(self.pos)].clone());
            self.pos += 1;
            self.next_arrival = None;
        }
        Poll::Ready(batch)
    }

    fn progress(&self) -> SourceProgressView {
        let len = self.scan.len();
        SourceProgressView {
            tuples_read: self.pos as u64,
            fraction_read: if self.advertise_total && len > 0 {
                Some(self.pos as f64 / len as f64)
            } else {
                None
            },
            eof: self.pos >= len,
        }
    }

    fn descriptor(&self) -> SourceDescriptor {
        SourceDescriptor {
            rel_id: self.rel_id,
            name: self.name.clone(),
            complete: true,
            key_range: None,
            declared_rate_tuples_per_sec: None,
            capabilities: SourceCapabilities {
                key_scan: true,
                projection: true,
            },
        }
    }

    /// A key scan restarts delivery as the requested scan, anchored at
    /// `now_us`: the link latency first, then the model over the
    /// requested order. An ascending full-range request at instant 0 over
    /// key-sorted tuples reproduces the unrequested schedule exactly.
    ///
    /// A projection charges every tuple not charged yet only its shipped
    /// columns, and survives later key scans; a tuple already charged
    /// (the next one, once a poll found it not yet arrived) keeps its
    /// arrival.
    fn control(&mut self, now_us: u64, request: SourceControl) -> Result<()> {
        let arity = self.schema.arity();
        let (key_cols, after, descending) = match request {
            SourceControl::KeyScan {
                key_cols,
                after,
                descending,
            } => (key_cols, after, descending),
            SourceControl::Project { mut cols } => {
                if let Some(&c) = cols.iter().find(|&&c| c >= arity) {
                    return Err(Error::Plan(format!(
                        "source '{}': cannot ship column {c} of arity {arity}",
                        self.name
                    )));
                }
                cols.sort_unstable();
                cols.dedup();
                self.shipped = Some(cols);
                return Ok(());
            }
        };
        if key_cols.is_empty()
            || key_cols.iter().any(|&c| c >= arity)
            || after.as_ref().is_some_and(|a| a.len() != key_cols.len())
        {
            return Err(Error::Plan(format!(
                "source '{}': key scan over columns {key_cols:?} invalid for arity {arity}",
                self.name
            )));
        }
        self.scan = self.key_scan(&key_cols, after.as_deref(), descending);
        self.pos = 0;
        self.cursor = Cursor::start(&self.model);
        self.next_arrival = None;
        self.anchor_us = Some(now_us);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field};

    fn tuples(n: i64) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(vec![Field::new("t.x", DataType::Int)]);
        let ts = (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        (schema, ts)
    }

    /// The eager per-tuple schedule the source used to build up front,
    /// kept as the oracle for the lazy cursor.
    fn schedule(model: &DelayModel, tuples: &[Tuple]) -> Vec<u64> {
        let sizes: Vec<usize> = tuples.iter().map(Tuple::approx_bytes).collect();
        schedule_of_sizes(model, &sizes)
    }

    /// The eager schedule of tuples of the given wire sizes.
    fn schedule_of_sizes(model: &DelayModel, sizes: &[usize]) -> Vec<u64> {
        match *model {
            DelayModel::Bandwidth {
                bytes_per_sec,
                initial_latency_us,
            } => {
                let mut t = initial_latency_us as f64;
                sizes
                    .iter()
                    .map(|&bytes| {
                        t += bytes as f64 / bytes_per_sec * 1e6;
                        t as u64
                    })
                    .collect()
            }
            DelayModel::Wireless {
                bytes_per_sec,
                burst_ms,
                gap_ms,
                seed,
            } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut now = 0.0f64; // microseconds
                let mut burst_left = exp_sample(&mut rng, burst_ms * 1000.0);
                let mut out = Vec::with_capacity(sizes.len());
                for &bytes in sizes {
                    let mut need = bytes as f64 / bytes_per_sec * 1e6;
                    while need > burst_left {
                        need -= burst_left;
                        now += burst_left;
                        now += exp_sample(&mut rng, gap_ms * 1000.0); // stall
                        burst_left = exp_sample(&mut rng, burst_ms * 1000.0);
                    }
                    burst_left -= need;
                    now += need;
                    out.push(now as u64);
                }
                out
            }
        }
    }

    /// Drain `s` one tuple per poll from `start_us`, jumping to every
    /// `Pending` hint: the instant each tuple was handed out, and its key.
    fn drain_arrivals(s: &mut DelayedSource, start_us: u64) -> Vec<(u64, i64)> {
        let (mut now, mut out) = (start_us, Vec::new());
        loop {
            match s.poll(now, 1) {
                Poll::Ready(b) => out.push((now, b[0].get(0).as_int().unwrap())),
                Poll::Pending { next_ready_us } => {
                    assert!(next_ready_us > now);
                    now = next_ready_us;
                }
                Poll::Eof => return out,
            }
        }
    }

    fn models() -> [DelayModel; 2] {
        [
            DelayModel::Bandwidth {
                bytes_per_sec: 3e4,
                initial_latency_us: 700,
            },
            DelayModel::Wireless {
                bytes_per_sec: 5e4,
                burst_ms: 2.0,
                gap_ms: 5.0,
                seed: 9,
            },
        ]
    }

    #[test]
    fn lazy_arrivals_match_the_eager_schedule_bit_for_bit() {
        let (schema, ts) = tuples(300);
        for model in models() {
            let eager = schedule(&model, &ts);
            let src = || DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
            let times = |got: Vec<(u64, i64)>| got.into_iter().map(|g| g.0).collect::<Vec<_>>();
            assert_eq!(times(drain_arrivals(&mut src(), 0)), eager, "{model:?}");
            assert_eq!(src().completion_time_us(), *eager.last().unwrap());
            // Anchored: the same schedule, shifted to the first poll.
            let shifted: Vec<u64> = eager.iter().map(|a| a + 12_345).collect();
            let mut anchored = src().anchored();
            assert_eq!(times(drain_arrivals(&mut anchored, 12_345)), shifted);
            // An ascending full-range request at instant 0 over key-sorted
            // tuples reproduces the unrequested schedule.
            let mut requested = src();
            requested
                .control(
                    0,
                    SourceControl::KeyScan {
                        key_cols: vec![0],
                        after: None,
                        descending: false,
                    },
                )
                .unwrap();
            assert_eq!(times(drain_arrivals(&mut requested, 0)), eager);
        }
    }

    #[test]
    fn key_scan_requests_are_anchored_at_the_request_instant() {
        let (schema, ts) = tuples(100);
        for model in models() {
            let mut s = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
            let after = Some(vec![Value::Int(59)]);
            let request = SourceControl::KeyScan {
                key_cols: vec![0],
                after,
                descending: true,
            };
            s.control(5_000, request).unwrap();
            let got = drain_arrivals(&mut s, 0);
            let keys: Vec<i64> = got.iter().map(|g| g.1).collect();
            assert_eq!(keys, (60..100).rev().collect::<Vec<_>>(), "{model:?}");
            // The model runs over the requested order from the request.
            let expect: Vec<u64> = schedule(&model, &ts[60..])
                .into_iter()
                .map(|a| a + 5_000)
                .collect();
            let times: Vec<u64> = got.iter().map(|g| g.0).collect();
            assert_eq!(times, expect);
        }
    }

    #[test]
    fn key_scan_sorts_unsorted_tuples_and_rejects_bad_columns() {
        let schema = Schema::new(vec![
            Field::new("t.a", DataType::Int),
            Field::new("t.b", DataType::Int),
        ]);
        let row = |a: i64, b: i64| Tuple::new(vec![Value::Int(a), Value::Int(b)]);
        let ts = vec![row(2, 1), row(1, 2), row(2, 0), row(1, 1), row(3, 0)];
        let model = &models()[0];
        let request = |after: Option<Vec<Value>>, descending| SourceControl::KeyScan {
            key_cols: vec![0, 1],
            after,
            descending,
        };
        let after = || Some(vec![Value::Int(1), Value::Int(1)]);
        for descending in [false, true] {
            let mut s = DelayedSource::new(1, "t", schema.clone(), ts.clone(), model);
            s.control(0, request(after(), descending)).unwrap();
            let Poll::Ready(got) = s.poll(u64::MAX, 10) else {
                panic!("everything has arrived by the end of time");
            };
            let mut expect = vec![row(1, 2), row(2, 0), row(2, 1), row(3, 0)];
            if descending {
                expect.reverse();
            }
            assert_eq!(got, expect);
            assert_eq!(s.poll(u64::MAX, 10), Poll::Eof);
        }
        let mut s = DelayedSource::new(1, "t", schema, ts, model);
        assert!(s
            .control(0, request(Some(vec![Value::Int(1)]), false))
            .is_err());
        let bad = SourceControl::KeyScan {
            key_cols: vec![7],
            after: None,
            descending: false,
        };
        assert!(s.control(0, bad).is_err());
    }

    /// Rows `(key, payload, extra)` whose payload length varies, so a
    /// projection changes each row's wire size by a different amount.
    fn wide(n: i64) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(vec![
            Field::new("t.k", DataType::Int),
            Field::new("t.s", DataType::Str),
            Field::new("t.x", DataType::Int),
        ]);
        let row = |i: i64| {
            let payload = "é".repeat((i % 7) as usize);
            Tuple::new(vec![Value::Int(i), Value::str(&payload), Value::Int(-i)])
        };
        (schema, (0..n).map(row).collect())
    }

    fn project(cols: &[usize]) -> SourceControl {
        SourceControl::Project {
            cols: cols.to_vec(),
        }
    }

    #[test]
    fn a_projected_schedule_charges_only_the_shipped_columns() {
        let (schema, ts) = wide(200);
        for model in models() {
            for cols in [vec![0], vec![1, 0], vec![2, 0, 2]] {
                let mut s = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
                s.control(0, project(&cols)).unwrap();
                let mut shipped = cols.clone();
                shipped.sort_unstable();
                shipped.dedup();
                let sizes: Vec<usize> = ts.iter().map(|t| t.wire_bytes(&shipped)).collect();
                let eager = schedule_of_sizes(&model, &sizes);
                assert_eq!(s.completion_time_us(), *eager.last().unwrap());
                let got = drain_arrivals(&mut s, 0);
                let times: Vec<u64> = got.iter().map(|g| g.0).collect();
                assert_eq!(times, eager, "{model:?} over {cols:?}");
                let keys: Vec<i64> = got.iter().map(|g| g.1).collect();
                assert_eq!(keys, (0..200).collect::<Vec<_>>());
            }
        }
        // Rows stay whole and shared: the projection moves arrivals only.
        let mut s = DelayedSource::new(1, "t", schema, ts.clone(), &models()[0]);
        s.control(0, project(&[0])).unwrap();
        assert_eq!(s.poll(u64::MAX, usize::MAX), Poll::Ready(ts));
    }

    #[test]
    fn key_scan_and_projection_compose_in_either_order() {
        let (schema, ts) = wide(120);
        for model in models() {
            let scan = || SourceControl::KeyScan {
                key_cols: vec![0],
                after: Some(vec![Value::Int(49)]),
                descending: true,
            };
            let mut first = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
            first.control(0, project(&[2])).unwrap();
            first.control(3_000, scan()).unwrap();
            let mut second = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
            second.control(3_000, scan()).unwrap();
            second.control(3_000, project(&[2])).unwrap();
            let expect: Vec<(u64, i64)> = {
                let keys: Vec<&Tuple> = ts[50..].iter().rev().collect();
                let sizes: Vec<usize> = keys.iter().map(|t| t.wire_bytes(&[2])).collect();
                let times = schedule_of_sizes(&model, &sizes);
                let keys = keys.iter().map(|t| t.get(0).as_int().unwrap());
                times.into_iter().map(|a| a + 3_000).zip(keys).collect()
            };
            assert_eq!(drain_arrivals(&mut first, 0), expect, "{model:?}");
            assert_eq!(drain_arrivals(&mut second, 0), expect, "{model:?}");
        }
    }

    #[test]
    fn a_late_projection_charges_only_the_tuples_after_it() {
        let (schema, ts) = wide(60);
        for model in models() {
            let mut s = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
            // Deliver 20 tuples, then find the 21st not yet arrived: it is
            // charged whole, like the 20 before it.
            let mut got = Vec::new();
            let mut now = 0;
            while got.len() < 20 {
                match s.poll(now, 20 - got.len()) {
                    Poll::Ready(b) => got.extend(b),
                    Poll::Pending { next_ready_us } => now = next_ready_us,
                    Poll::Eof => unreachable!(),
                }
            }
            let whole = schedule(&model, &ts);
            assert_eq!(now, whole[19]);
            let pending = s.poll(now, 1);
            s.control(now, project(&[0])).unwrap();
            let mut sizes: Vec<usize> = ts[..21].iter().map(Tuple::approx_bytes).collect();
            sizes.extend(ts[21..].iter().map(|t| t.wire_bytes(&[0])));
            let expect = schedule_of_sizes(&model, &sizes);
            let next_ready_us = expect[20];
            assert_eq!(pending, Poll::Pending { next_ready_us }, "{model:?}");
            let rest: Vec<u64> = drain_arrivals(&mut s, now)
                .into_iter()
                .map(|g| g.0)
                .collect();
            assert_eq!(rest, expect[20..], "{model:?}");
        }
    }

    #[test]
    fn a_projection_past_the_schema_is_refused() {
        let (schema, ts) = wide(10);
        let model = &models()[0];
        let mut s = DelayedSource::new(1, "t", schema, ts.clone(), model);
        assert!(s.descriptor().capabilities.projection);
        assert!(s.control(0, project(&[0, 3])).is_err());
        // A refusal changes nothing: every row still ships whole.
        assert_eq!(
            s.completion_time_us(),
            *schedule(model, &ts).last().unwrap()
        );
    }

    #[test]
    fn bandwidth_schedule_monotone_and_paced() {
        let (schema, ts) = tuples(100);
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e6,
            initial_latency_us: 500,
        };
        let arrivals = schedule(&model, &ts);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals[0] >= 500);
        let s = DelayedSource::new(1, "t", schema, ts, &model);
        assert!(s.completion_time_us() > arrivals[0]);
    }

    #[test]
    fn pending_then_ready() {
        let (schema, ts) = tuples(10);
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1000.0, // slow: ~24ms per tuple
            initial_latency_us: 0,
        };
        let mut s = DelayedSource::new(1, "t", schema, ts, &model);
        match s.poll(0, 10) {
            Poll::Pending { next_ready_us } => assert!(next_ready_us > 0),
            other => panic!("expected pending, got {other:?}"),
        }
        let done = s.completion_time_us();
        match s.poll(done, 100) {
            Poll::Ready(b) => assert_eq!(b.len(), 10),
            other => panic!("expected all ready, got {other:?}"),
        }
        assert_eq!(s.poll(done, 1), Poll::Eof);
    }

    #[test]
    fn ready_respects_max_tuples() {
        let (schema, ts) = tuples(50);
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e9,
            initial_latency_us: 0,
        };
        let mut s = DelayedSource::new(1, "t", schema, ts, &model);
        match s.poll(u64::MAX, 8) {
            Poll::Ready(b) => assert_eq!(b.len(), 8),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wireless_is_bursty_and_deterministic() {
        let (schema, ts) = tuples(2000);
        let model = DelayModel::Wireless {
            bytes_per_sec: 500_000.0,
            burst_ms: 20.0,
            gap_ms: 30.0,
            seed: 42,
        };
        let a = schedule(&model, &ts);
        assert_eq!(a, schedule(&model, &ts), "same seed, same schedule");

        // Burstiness: the largest inter-arrival gap dwarfs the median.
        let mut gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        let max = *gaps.last().unwrap();
        assert!(
            max > median.max(1) * 50,
            "expected bursty gaps, median={median} max={max}"
        );

        // Slower than a smooth link of the same bandwidth (gaps add time).
        let smooth = DelayModel::Bandwidth {
            bytes_per_sec: 500_000.0,
            initial_latency_us: 0,
        };
        let c = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &smooth);
        let w = DelayedSource::new(1, "t", schema, ts, &model);
        assert!(w.completion_time_us() > c.completion_time_us());
    }

    #[test]
    fn different_seeds_differ() {
        let (_, ts) = tuples(500);
        let m = |seed| DelayModel::Wireless {
            bytes_per_sec: 1e6,
            burst_ms: 10.0,
            gap_ms: 10.0,
            seed,
        };
        assert_ne!(schedule(&m(1), &ts), schedule(&m(2), &ts));
    }
}
