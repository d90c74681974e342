//! Counters, gauges, and log2-bucketed histograms.
//!
//! The types here are the "static registry" layer: metric *sets* are
//! declared as plain structs with named fields (see the `counter_set!`
//! macro and `icc-core`'s `CoreMetrics`), constructed once per node,
//! and merged field-wise for cluster-level readout. There is no global
//! mutable registry — the simulator runs many deterministic clusters
//! in parallel, so every cluster owns its metrics. The hot-path
//! bench's `telemetry_overhead` cell prices them on a share flood.

/// Number of histogram buckets: one per power of two of `u64`, plus
/// bucket 0 for the value `0`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.value = self.value.wrapping_add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.value = self.value.wrapping_add(n);
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
    }

    /// Sum `other` into `self` (cluster aggregation).
    pub fn merge(&mut self, other: &Self) {
        self.value = self.value.wrapping_add(other.value);
    }
}

/// A signed instantaneous level (queue depths, in-flight work).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the level.
    #[inline]
    pub fn set(&mut self, v: i64) {
        self.value = v;
    }

    /// Add `d` (may be negative).
    #[inline]
    pub fn add(&mut self, d: i64) {
        self.value += d;
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value
    }

    /// Sum `other` into `self` (cluster aggregation).
    pub fn merge(&mut self, other: &Self) {
        self.value += other.value;
    }
}

/// A log2-bucketed histogram of `u64` samples (typically
/// microseconds) with cheap `observe` — one `leading_zeros` and
/// two adds — and p50/p90/p99/max readout.
///
/// Bucket `i` (for `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`;
/// bucket `0` holds the value `0`. Quantiles are read as the upper
/// bound of the bucket containing the target rank, clamped to the
/// exact observed maximum, so the relative error is at most 2x —
/// plenty for "did p99 regress by an order of magnitude".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

#[inline]
fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples recorded.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    #[inline]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`): upper bound of the
    /// bucket holding the target rank, clamped to the observed
    /// maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let upper = if i == 0 {
                    0
                } else if i >= 64 {
                    u64::MAX
                } else {
                    (1u64 << i) - 1
                };
                return upper.min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Sum `other` into `self` (cluster aggregation).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Cumulative bucket counts for Prometheus exposition:
    /// `(upper_bound, cumulative_count)` pairs up to the highest
    /// non-empty bucket; `None` as bound means `+Inf`. Empty when
    /// no samples.
    pub fn cumulative_buckets(&self) -> Vec<(Option<u64>, u64)> {
        if self.count == 0 {
            return Vec::new();
        }
        let highest = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
            .min(63);
        let mut out = Vec::with_capacity(highest + 2);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate().take(highest + 1) {
            cum += c;
            let bound = if i == 0 { 0 } else { (1u64 << i) - 1 };
            out.push((Some(bound), cum));
        }
        out.push((None, self.count));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        let mut c2 = Counter::new();
        c2.add(5);
        c.merge(&c2);
        assert_eq!(c.get(), 10);

        let mut g = Gauge::new();
        g.set(3);
        g.add(-5);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        // 90 fast samples around 100µs, 9 at ~1ms, 1 at ~100ms.
        for _ in 0..90 {
            h.observe(100);
        }
        for _ in 0..9 {
            h.observe(1_000);
        }
        h.observe(100_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100_000);
        // p50 lands in the 100µs bucket: [64, 127].
        assert!(h.p50() >= 100 && h.p50() < 128, "p50 = {}", h.p50());
        // p90 still inside the fast mass.
        assert!(h.p90() < 1_024, "p90 = {}", h.p90());
        // p99 reaches the 1ms bucket but not the tail.
        assert!(h.p99() >= 1_000 && h.p99() < 2_048, "p99 = {}", h.p99());
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cumulative_buckets().is_empty());

        let mut h = Histogram::new();
        h.observe(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_merge_matches_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [1u64, 7, 63, 64, 900, 4096, 70_000] {
            a.observe(v);
            all.observe(v);
        }
        for v in [2u64, 500, 8_000, 1 << 40] {
            b.observe(v);
            all.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn quantile_clamped_to_observed_max() {
        let mut h = Histogram::new();
        h.observe(65); // bucket upper bound 127
        assert_eq!(h.p99(), 65);
    }

    #[test]
    fn cumulative_buckets_cover_count() {
        let mut h = Histogram::new();
        for v in [3u64, 3, 100, 5_000] {
            h.observe(v);
        }
        let buckets = h.cumulative_buckets();
        let (last_bound, last_cum) = *buckets.last().unwrap();
        assert_eq!(last_bound, None);
        assert_eq!(last_cum, 4);
        // Cumulative counts are non-decreasing.
        for w in buckets.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }
}
