//! Delayed sources: constant-bandwidth links and the bursty wireless model
//! (standing in for the paper's Figure 3 / Table 2 network sources).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tukwila_relation::{Schema, Tuple};

use crate::source::{Poll, Source, SourceProgressView};

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

impl DelayModel {
    /// Compute the per-tuple arrival schedule for a relation.
    fn schedule(&self, tuples: &[Tuple]) -> Vec<u64> {
        match *self {
            DelayModel::Bandwidth {
                bytes_per_sec,
                initial_latency_us,
            } => {
                let mut t = initial_latency_us as f64;
                tuples
                    .iter()
                    .map(|tp| {
                        t += tp.approx_bytes() as f64 / bytes_per_sec * 1e6;
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
                let mut out = Vec::with_capacity(tuples.len());
                for tp in tuples {
                    let mut need = tp.approx_bytes() as f64 / bytes_per_sec * 1e6;
                    // Consume burst time; when a burst is exhausted, idle
                    // through a gap and start a new burst.
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
}

/// Exponential sample with the given mean (inverse-CDF method; `rand`'s
/// distribution adapters are not in the offline dependency set).
fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(1e-12..1.0);
    -mean * u.ln()
}

/// A source whose tuples arrive according to a [`DelayModel`] schedule.
pub struct DelayedSource {
    rel_id: u32,
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
    arrivals: Vec<u64>,
    pos: usize,
    advertise_total: bool,
    /// Offset the schedule by the first poll's timestamp (connect-on-
    /// demand semantics); `None` anchors at timeline zero (broadcast
    /// semantics, the default).
    anchor_at_first_poll: bool,
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
        let arrivals = model.schedule(&tuples);
        DelayedSource {
            rel_id,
            name: name.into(),
            schema,
            tuples,
            arrivals,
            pos: 0,
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

    /// Virtual time at which the last tuple arrives (relative to the
    /// anchor when [`DelayedSource::anchored`]).
    pub fn completion_time_us(&self) -> u64 {
        self.arrivals.last().copied().unwrap_or(0)
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
        if self.pos >= self.tuples.len() {
            return Poll::Eof;
        }
        let offset = if self.anchor_at_first_poll {
            *self.anchor_us.get_or_insert(now_us)
        } else {
            0
        };
        if self.arrivals[self.pos] + offset > now_us {
            return Poll::Pending {
                next_ready_us: self.arrivals[self.pos] + offset,
            };
        }
        let mut end = self.pos;
        let cap = (self.pos + max_tuples).min(self.tuples.len());
        while end < cap && self.arrivals[end] + offset <= now_us {
            end += 1;
        }
        let batch = self.tuples[self.pos..end].to_vec();
        self.pos = end;
        Poll::Ready(batch)
    }

    fn progress(&self) -> SourceProgressView {
        SourceProgressView {
            tuples_read: self.pos as u64,
            fraction_read: if self.advertise_total && !self.tuples.is_empty() {
                Some(self.pos as f64 / self.tuples.len() as f64)
            } else {
                None
            },
            eof: self.pos >= self.tuples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tukwila_relation::{DataType, Field, Value};

    fn tuples(n: i64) -> (Schema, Vec<Tuple>) {
        let schema = Schema::new(vec![Field::new("t.x", DataType::Int)]);
        let ts = (0..n).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        (schema, ts)
    }

    #[test]
    fn bandwidth_schedule_monotone_and_paced() {
        let (schema, ts) = tuples(100);
        let model = DelayModel::Bandwidth {
            bytes_per_sec: 1e6,
            initial_latency_us: 500,
        };
        let s = DelayedSource::new(1, "t", schema, ts, &model);
        assert!(s.arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.arrivals[0] >= 500);
        assert!(s.completion_time_us() > s.arrivals[0]);
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
        let a = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
        let b = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &model);
        assert_eq!(a.arrivals, b.arrivals, "same seed, same schedule");

        // Burstiness: the largest inter-arrival gap dwarfs the median.
        let mut gaps: Vec<u64> = a.arrivals.windows(2).map(|w| w[1] - w[0]).collect();
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
        let c = DelayedSource::new(1, "t", schema, ts, &smooth);
        assert!(a.completion_time_us() > c.completion_time_us());
    }

    #[test]
    fn different_seeds_differ() {
        let (schema, ts) = tuples(500);
        let m1 = DelayModel::Wireless {
            bytes_per_sec: 1e6,
            burst_ms: 10.0,
            gap_ms: 10.0,
            seed: 1,
        };
        let m2 = DelayModel::Wireless {
            bytes_per_sec: 1e6,
            burst_ms: 10.0,
            gap_ms: 10.0,
            seed: 2,
        };
        let a = DelayedSource::new(1, "t", schema.clone(), ts.clone(), &m1);
        let b = DelayedSource::new(1, "t", schema, ts, &m2);
        assert_ne!(a.arrivals, b.arrivals);
    }
}
