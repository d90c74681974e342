//! Order statistics and the slice-median rule.
//!
//! Every clock metric is the **median of `SLICES` equal slices** of the
//! measured window: a neighbour's one-second CPU burst then costs one
//! slice, not the run.

/// Number of equal slices a measured window is cut into.
pub const SLICES: usize = 10;

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1).
/// `None` for an empty sample.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(values[lo] + (values[hi] - values[lo]) * frac)
}

/// Median of the slices that produced a value.
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    quantile(&mut values, 0.5)
}

/// First and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the rule the acceptance check uses for run-to-run spread.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, clamped to the sample.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Inter-quartile range as a share of the median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles_exclusive(values)?;
    let med = median(values.to_vec())?;
    if med == 0.0 {
        return None;
    }
    Some((q3 - q1) / med.abs())
}

/// Which slice of a window `[start, start + len)` a timestamp falls in.
pub fn slice_of(at: u64, start: u64, len: u64) -> Option<usize> {
    if at < start || at >= start + len {
        return None;
    }
    Some((((at - start) as u128 * SLICES as u128) / len as u128) as usize)
}

/// A log-linear histogram of nanosecond durations: 16 sub-buckets per
/// power of two (≈ 4 % resolution). Used for span statistics, where
/// keeping every sample would cost more memory than the run itself.
#[derive(Clone)]
pub struct LogHist {
    buckets: Vec<u64>,
    count: u64,
}

const SUB: u64 = 16;

impl Default for LogHist {
    fn default() -> Self {
        LogHist {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
        }
    }
}

impl LogHist {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as u64; // floor(log2 v) ≥ 4
        let sub = (v >> (exp - 4)) - SUB; // next 4 bits below the top one
        ((exp - 3) * SUB + sub) as usize
    }

    fn lower_bound(idx: usize) -> f64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx as f64;
        }
        let exp = idx / SUB + 3;
        let sub = idx % SUB;
        ((SUB + sub) << (exp - 4)) as f64
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// Quantile with linear interpolation inside the bucket; 0 if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q * self.count as f64;
        let mut seen = 0.0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c as f64 >= target {
                let lo = Self::lower_bound(idx);
                let hi = Self::lower_bound(idx + 1);
                return lo + (hi - lo) * ((target - seen) / c as f64).clamp(0.0, 1.0);
            }
            seen += c as f64;
        }
        Self::lower_bound(self.buckets.len() - 1)
    }
}

/// The benchmark's own seeded generator (SplitMix64): command schedule,
/// payload bytes and keys are drawn from it, so the same `--seed` gives
/// the same inputs without depending on a workspace crate.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles_exclusive(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
    }

    #[test]
    fn loghist_quantiles_within_resolution() {
        let mut h = LogHist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.05, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn slices_partition_the_window() {
        assert_eq!(slice_of(0, 0, 100), Some(0));
        assert_eq!(slice_of(99, 0, 100), Some(9));
        assert_eq!(slice_of(100, 0, 100), None);
        assert_eq!(slice_of(5, 10, 100), None);
    }
}
