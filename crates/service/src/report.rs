//! Service-level aggregates: counters, throughput, and latency quantiles.

/// Monotonic event counters for one service lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCounters {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Jobs sorted successfully.
    pub completed: u64,
    /// Jobs refused by admission control.
    pub shed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Completed jobs that degraded to the disk-spilling exchange.
    pub spilled: u64,
    /// `try_submit` calls rejected because the queue was full.
    pub queue_full: u64,
    /// Arena takes served from the pool.
    pub arena_hits: u64,
    /// Arena takes that allocated fresh.
    pub arena_misses: u64,
}

impl ServiceCounters {
    /// Every accepted job is accounted for: completed, shed, or failed.
    /// (`false` only transiently, while jobs are still in flight.)
    pub fn balanced(&self) -> bool {
        self.submitted == self.completed + self.shed + self.failed
    }
}

/// Final aggregate a [`crate::SortService::shutdown`] returns. The
/// percentiles come from fixed-memory log histograms: each is within 1 %
/// of the exact nearest-rank percentile of the jobs' values.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Event counters over the whole service lifetime.
    pub counters: ServiceCounters,
    /// Service lifetime in wall seconds.
    pub wall_s: f64,
    /// Completed jobs per wall second.
    pub jobs_per_sec: f64,
    /// Median queue wait (all non-failed jobs, shed included).
    pub queue_wait_p50_s: f64,
    /// 99th-percentile queue wait.
    pub queue_wait_p99_s: f64,
    /// Median end-to-end latency of completed jobs.
    pub latency_p50_s: f64,
    /// 99th-percentile end-to-end latency of completed jobs.
    pub latency_p99_s: f64,
    /// Median [`crate::JobReport::sort_wall_s`] of completed jobs.
    pub sort_wall_p50_s: f64,
    /// Median [`crate::JobReport::generate_s`] of completed jobs (never
    /// above `sort_wall_p50_s`: each job's generation is inside its wall).
    pub generate_p50_s: f64,
}

/// Smallest value with a bucket of its own (1 ns); anything below reads
/// back as 0.
const LOWEST: f64 = 1e-9;
/// Ratio of consecutive bucket bounds. A bucket reads back as its
/// geometric midpoint, within `√1.02 − 1 < 1 %` of every value in it.
const GROWTH: f64 = 1.02;
/// `[0, LOWEST)`, then `LOWEST · GROWTHⁱ` up to ≈ 1.05·10⁵ (29 hours in
/// seconds); larger values share the last bucket.
const BUCKETS: usize = 1 + 1630;

/// Fixed-memory log-bucketed histogram of non-negative values (seconds):
/// a service records every job into one of these for its whole life and
/// never grows. Its nearest-rank percentiles are within 1 % of
/// [`percentile`] over the same values (below 1 ns: within 1 ns).
pub(crate) struct LogHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl LogHistogram {
    pub(crate) fn new() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    pub(crate) fn record(&mut self, v: f64) {
        let i = if v < LOWEST {
            0
        } else {
            1 + (((v / LOWEST).ln() / GROWTH.ln()) as usize).min(BUCKETS - 2)
        };
        self.counts[i] += 1;
        self.total += 1;
    }

    /// Nearest-rank percentile (`q` in percent), read back as its bucket's
    /// geometric midpoint; 0.0 when empty.
    pub(crate) fn percentile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        let i = self
            .counts
            .iter()
            .position(|&c| {
                seen += c;
                seen >= rank.min(self.total)
            })
            .expect("the counts sum to total");
        if i == 0 {
            0.0
        } else {
            LOWEST * GROWTH.powf(i as f64 - 0.5)
        }
    }
}

/// Nearest-rank percentile (`q` in percent) over unsorted samples; 0.0 for
/// an empty slice.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&mut s, 50.0), 3.0);
        assert_eq!(percentile(&mut s, 99.0), 5.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
        assert_eq!(percentile(&mut [7.5], 99.0), 7.5);
    }

    #[test]
    fn histogram_memory_is_fixed() {
        let mut h = LogHistogram::new();
        let before = std::mem::size_of_val(&h);
        for i in 0..1_000_000u32 {
            h.record(f64::from(i) * 1e-7);
        }
        // No heap field: the array is all there is, before and after.
        assert_eq!(std::mem::size_of_val(&h), before);
        assert_eq!(before, std::mem::size_of::<[u64; BUCKETS + 1]>());
        assert_eq!(h.total, 1_000_000);
    }

    #[test]
    fn histogram_percentiles_within_one_percent() {
        // A known distribution: log-uniform over 1 µs .. 10 s, plus the
        // edges (0, below 1 ns, past the last bucket).
        let mut samples: Vec<f64> = (0..100_000)
            .map(|i| 1e-6 * 1e7f64.powf(f64::from(i) / 1e5))
            .collect();
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        for q in [0.0, 1.0, 50.0, 90.0, 99.0, 100.0] {
            let (got, want) = (h.percentile(q), percentile(&mut samples, q));
            assert!((got / want - 1.0).abs() <= 0.01, "p{q}: {got} vs {want}");
        }
        let mut edges = LogHistogram::new();
        assert_eq!(edges.percentile(50.0), 0.0);
        for v in [0.0, 5e-10, 1e300, f64::INFINITY] {
            edges.record(v);
        }
        assert_eq!(edges.percentile(50.0), 0.0);
        assert!(edges.percentile(100.0) > 1e5);
    }

    #[test]
    fn counters_balance() {
        let mut c = ServiceCounters {
            submitted: 5,
            completed: 3,
            shed: 1,
            failed: 1,
            ..ServiceCounters::default()
        };
        assert!(c.balanced());
        c.submitted = 6;
        assert!(!c.balanced());
    }
}
