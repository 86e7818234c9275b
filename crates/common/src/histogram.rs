//! A log-bucketed latency histogram.
//!
//! The paper reports mean throughput and **tail (99th percentile) latency**
//! per tuple (§5.1.1). Storing every sample for millions of tuples would
//! distort the measurement, so we use an HDR-style histogram: power-of-two
//! magnitude buckets, each split into 16 linear sub-buckets, giving a
//! worst-case quantile error of ~6% while using a fixed ~8 KiB.

/// Number of linear sub-buckets per power-of-two magnitude.
const SUB_BUCKETS: usize = 16;
/// log2 of `SUB_BUCKETS`.
const SUB_BITS: u32 = 4;
/// Number of magnitudes tracked (covers values up to 2^40 ns ≈ 18 min).
const MAGNITUDES: usize = 41;

/// A fixed-size log-bucketed histogram of `u64` samples (nanoseconds by
/// convention, but unit-agnostic).
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Box<[u64; MAGNITUDES * SUB_BUCKETS]>,
    count: u64,
    sum: u128,
    max: u64,
    min: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Box::new([0; MAGNITUDES * SUB_BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    #[inline]
    fn bucket_index(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros(); // >= SUB_BITS here
        let shift = magnitude - SUB_BITS;
        let sub = (value >> shift) as usize & (SUB_BUCKETS - 1);
        let mag_index = (magnitude - SUB_BITS + 1) as usize;
        let idx = mag_index * SUB_BUCKETS + sub;
        idx.min(MAGNITUDES * SUB_BUCKETS - 1)
    }

    /// Lower bound of the bucket at `idx` (the value reported for
    /// quantiles falling in that bucket).
    fn bucket_floor(idx: usize) -> u64 {
        let mag_index = idx / SUB_BUCKETS;
        let sub = (idx % SUB_BUCKETS) as u64;
        if mag_index == 0 {
            return sub;
        }
        let magnitude = mag_index as u32 + SUB_BITS - 1;
        let base = 1u64 << magnitude;
        base + (sub << (magnitude - SUB_BITS))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Records `n` samples of the same value in one update. Used when a
    /// single measured event stands for a batch of logical samples
    /// (e.g. one subscriber frame carrying many results): the histogram
    /// count then equals the logical sample count exactly.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += n;
        self.count += n;
        self.sum += value as u128 * n as u128;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Maximum recorded sample (0 if empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Minimum recorded sample (0 if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q ∈ [0, 1]` (0 if empty). Reports the
    /// midpoint of the winning bucket — halving the worst-case error
    /// versus the raw bucket floor — clamped to the observed
    /// `[min, max]` range. Buckets below `SUB_BUCKETS` hold a single
    /// value each, so small samples are still reported exactly.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let floor = Self::bucket_floor(idx);
                let next = if idx + 1 < MAGNITUDES * SUB_BUCKETS {
                    Self::bucket_floor(idx + 1)
                } else {
                    u64::MAX
                };
                let mid = floor + next.saturating_sub(floor) / 2;
                return mid.min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Total of all recorded samples (exact, not bucket-approximated).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Cumulative bucket counts as `(upper_bound, cumulative_count)`
    /// pairs, one per non-empty bucket, in ascending order — the shape
    /// a Prometheus histogram's `_bucket{le="…"}` series needs. The
    /// upper bound is inclusive (the largest value the bucket can
    /// hold); the final bucket reports `u64::MAX`.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            let le = if idx + 1 < MAGNITUDES * SUB_BUCKETS {
                Self::bucket_floor(idx + 1) - 1
            } else {
                u64::MAX
            };
            out.push((le, cum));
        }
        out
    }

    /// 50th percentile.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile — the paper's "tail latency".
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Clears all samples.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.max = 0;
        self.min = u64::MAX;
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .field("max", &self.max())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.quantile(1.0), 15);
        assert_eq!(h.p50(), 7);
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p99 = h.p99() as f64;
        let exact = 99_000.0;
        let rel = (p99 - exact).abs() / exact;
        assert!(rel < 0.08, "p99={p99} exact={exact} rel={rel}");

        let p50 = h.p50() as f64;
        let rel50 = (p50 - 50_000.0).abs() / 50_000.0;
        assert!(rel50 < 0.08, "p50={p50} rel={rel50}");
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        h.record(10);
        h.record(20);
        h.record(30);
        assert_eq!(h.mean(), 20.0);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in 0..100 {
            a.record(v);
            b.record(v + 1000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 0);
        assert!(a.max() >= 1099);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn bucket_floor_is_monotone() {
        let mut last = 0;
        for idx in 0..(MAGNITUDES * SUB_BUCKETS) {
            let floor = LatencyHistogram::bucket_floor(idx);
            assert!(floor >= last, "idx={idx} floor={floor} last={last}");
            last = floor;
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        // Property: for any sample set and q1 <= q2,
        // quantile(q1) <= quantile(q2). Exercise several distributions
        // (uniform, exponential-ish, point mass, extremes).
        let mut xorshift = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            xorshift ^= xorshift << 13;
            xorshift ^= xorshift >> 7;
            xorshift ^= xorshift << 17;
            xorshift
        };
        let mut sets: Vec<Vec<u64>> =
            vec![(0..1000).collect(), vec![42; 500], vec![0, 1, u64::MAX]];
        let mut random = Vec::new();
        for _ in 0..2000 {
            let r = next();
            random.push(r >> (r % 60) as u32); // spread across magnitudes
        }
        sets.push(random);
        for samples in &sets {
            let mut h = LatencyHistogram::new();
            for &v in samples {
                h.record(v);
            }
            let mut last = 0u64;
            for i in 0..=100 {
                let q = i as f64 / 100.0;
                let v = h.quantile(q);
                assert!(v >= last, "q={q} v={v} last={last}");
                last = v;
            }
            assert!(h.quantile(0.0) >= h.min());
            assert!(h.quantile(1.0) <= h.max());
        }
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..37 {
            a.record(1234);
        }
        b.record_n(1234, 37);
        b.record_n(9999, 0); // no-op
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.min(), b.min());
    }

    #[test]
    fn cumulative_buckets_cover_all_samples() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 5, 5, 100, 100_000, u64::MAX] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        // Ascending le, ascending cumulative, final cum == count.
        let mut last_le = 0u64;
        let mut last_cum = 0u64;
        for &(le, cum) in &buckets {
            assert!(le >= last_le);
            assert!(cum > last_cum);
            last_le = le;
            last_cum = cum;
        }
        assert_eq!(buckets.last().unwrap().1, h.count());
        assert_eq!(buckets.last().unwrap().0, u64::MAX);
    }

    #[test]
    fn bucket_index_floor_round_trip() {
        // floor(bucket(v)) <= v for representative values.
        for &v in &[
            0u64,
            1,
            15,
            16,
            17,
            100,
            1000,
            4095,
            4096,
            1 << 20,
            (1 << 30) + 12345,
        ] {
            let idx = LatencyHistogram::bucket_index(v);
            assert!(LatencyHistogram::bucket_floor(idx) <= v, "v={v}");
        }
    }
}
