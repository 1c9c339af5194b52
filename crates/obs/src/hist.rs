//! A fixed-memory log-bucketed histogram for latency samples.
//!
//! Values are `u64` (nanoseconds in practice). Bucketing is HDR-style:
//! values below `2^SUB_BITS` get exact unit buckets; above that, each
//! power-of-two range is split into `2^SUB_BITS` linear sub-buckets, so the
//! relative bucket width is at most `2^-SUB_BITS` (≈ 3.1 % with the default
//! of 5 sub-bucket bits). Memory is a fixed 1 920 × 8 B counter array
//! regardless of sample count, and percentile queries walk the buckets —
//! O(buckets), not O(n log n) over a cloned sample vector.

/// Sub-bucket resolution: each power-of-two range has `2^SUB_BITS` buckets.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Index space: the linear region (one group) plus one group per exponent
/// from `SUB_BITS` to 63 inclusive.
const BUCKETS: usize = ((64 - SUB_BITS) as usize + 1) * (SUB as usize);

/// Streaming histogram with logarithmic buckets and exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let group = msb - SUB_BITS;
        let sub = ((v >> group) - SUB) as usize;
        ((group as usize) + 1) * (SUB as usize) + sub
    }

    /// Lowest value mapping to bucket `i`.
    fn bucket_lo(i: usize) -> u64 {
        if i < SUB as usize {
            return i as u64;
        }
        let group = (i / SUB as usize - 1) as u32;
        let sub = (i % SUB as usize) as u64;
        (SUB + sub) << group
    }

    /// Width of the bucket containing `v` (1 in the exact region).
    pub fn width_of(v: u64) -> u64 {
        if v < SUB {
            1
        } else {
            1u64 << (63 - v.leading_zeros() - SUB_BITS)
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact minimum recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `p`-th percentile (`0 <= p <= 100`), accurate to one bucket
    /// width. `p = 0` returns the exact minimum and `p = 100` the exact
    /// maximum. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` (including NaN).
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        if self.count == 0 {
            return 0;
        }
        if p <= 0.0 {
            return self.min;
        }
        if p >= 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                // Representative value: bucket upper edge, clamped to the
                // observed range. (`width - 1` first: the top bucket's edge
                // is `u64::MAX` and `lo + width` would overflow.)
                let lo = Self::bucket_lo(i);
                let hi = lo + (Self::width_of(lo) - 1);
                return hi.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Exact percentile over a sample vector, the reference the histogram
    /// is checked against.
    fn exact_percentile(samples: &mut [u64], p: f64) -> u64 {
        samples.sort_unstable();
        let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
        samples[rank.saturating_sub(1).min(samples.len() - 1)]
    }

    fn check_within_one_bucket(samples: Vec<u64>, label: &str) {
        let mut h = LogHistogram::new();
        for &v in &samples {
            h.record(v);
        }
        let mut sorted = samples;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let exact = exact_percentile(&mut sorted, p);
            let approx = h.percentile(p);
            let width = LogHistogram::width_of(exact);
            assert!(
                approx.abs_diff(exact) <= width,
                "{label} p{p}: approx {approx} vs exact {exact} (bucket width {width})"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..SUB {
            h.record(v);
        }
        for v in 0..SUB {
            let p = (v + 1) as f64 / SUB as f64 * 100.0;
            assert_eq!(h.percentile(p), v);
        }
    }

    #[test]
    fn uniform_distribution_percentiles() {
        let mut rng = Rng64::seed_from_u64(11);
        let samples: Vec<u64> = (0..50_000)
            .map(|_| rng.gen_range_u64(1_000, 1_000_000))
            .collect();
        check_within_one_bucket(samples, "uniform");
    }

    #[test]
    fn bimodal_sense_latency_percentiles() {
        // 50 µs / 150 µs shaped: the two sense-latency modes of TLC reads.
        let mut rng = Rng64::seed_from_u64(12);
        let samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let base = if rng.gen_bool(0.6) { 50_000 } else { 150_000 };
                base + rng.gen_range_u64(0, 2_000)
            })
            .collect();
        check_within_one_bucket(samples, "bimodal");
    }

    #[test]
    fn heavy_tail_percentiles() {
        // Pareto-like: u^-2 scaled, exercising buckets across 5 decades.
        let mut rng = Rng64::seed_from_u64(13);
        let samples: Vec<u64> = (0..50_000)
            .map(|_| {
                let u = rng.gen_range_f64(0.01, 1.0);
                (50_000.0 / (u * u)) as u64
            })
            .collect();
        check_within_one_bucket(samples, "heavy-tail");
    }

    #[test]
    fn mean_min_max_are_exact() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 300, 400] {
            h.record(v);
        }
        assert_eq!(h.mean(), 250.0);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 400);
        assert_eq!(h.percentile(100.0), 400);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHistogram::new();
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(h.percentile(p), 0, "p{p} of empty");
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
        assert!(h.mean().is_finite(), "empty mean must not be NaN");
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LogHistogram::new();
        h.record(1_234_567);
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            // Clamping to the observed range makes a lone sample exact.
            assert_eq!(h.percentile(p), 1_234_567, "p{p} of single sample");
        }
        assert_eq!(h.mean(), 1_234_567.0);
    }

    #[test]
    fn zero_percentile_is_the_minimum() {
        let mut h = LogHistogram::new();
        for v in [500u64, 9_000, 70_000] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), 500);
        assert_eq!(h.percentile(100.0), 70_000);
    }

    #[test]
    fn merge_equals_recording_both() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        let mut rng = Rng64::seed_from_u64(5);
        for _ in 0..1000 {
            let v = rng.gen_range_u64(1, 1 << 40);
            if rng.gen_bool(0.5) {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn index_round_trips_bucket_bounds() {
        for i in 0..BUCKETS {
            let lo = LogHistogram::bucket_lo(i);
            assert_eq!(LogHistogram::index(lo), i, "lo of bucket {i}");
            let hi = lo + (LogHistogram::width_of(lo) - 1);
            assert_eq!(LogHistogram::index(hi), i, "hi of bucket {i}");
        }
        assert_eq!(LogHistogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn out_of_range_percentile_rejected() {
        let _ = LogHistogram::new().percentile(100.1);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn nan_percentile_rejected() {
        let _ = LogHistogram::new().percentile(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside [0, 100]")]
    fn negative_percentile_rejected() {
        let _ = LogHistogram::new().percentile(-0.5);
    }
}
