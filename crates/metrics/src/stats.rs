//! Scalar summary statistics.
//!
//! [`OnlineStats`] implements Welford's online algorithm so that a long
//! simulation can accumulate millions of samples without storing them;
//! [`Summary`] is the finished, serializable result (what a figure harness
//! prints as one table row).

use serde::Serialize;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// Numerically stable for long runs; `merge` allows combining accumulators
/// produced by parallel shards (used by the rayon sweeps in `bench`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance, or `None` when empty.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Sample variance (Bessel-corrected), or `None` with fewer than 2 samples.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> Option<f64> {
        self.sample_variance().map(f64::sqrt)
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (Chan et al. parallel update).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Freezes the accumulator into a serializable [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean().unwrap_or(0.0),
            stddev: self.stddev().unwrap_or(0.0),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// Finished summary of a sample set: what one figure row reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (0 when < 2 samples).
    pub stddev: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl Summary {
    /// Coefficient of variation (stddev / mean); the paper quotes dispersion
    /// as a percentage of the mean (e.g. "5.9 % of the average latency").
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.stddev / self.mean
        }
    }
}

/// Exact percentile over a mutable sample buffer (nearest-rank with linear
/// interpolation, the same definition `numpy.percentile` uses by default).
///
/// Returns `None` on an empty slice. `q` is clamped to `[0, 100]`.
pub fn percentile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    let q = q.clamp(0.0, 100.0);
    let pos = q / 100.0 * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(samples[lo] * (1.0 - frac) + samples[hi] * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_report_none() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.stddev().is_none());
        assert!(s.min().is_none());
        assert!(s.max().is_none());
    }

    #[test]
    fn single_sample() {
        let mut s = OnlineStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), Some(42.0));
        assert_eq!(s.variance(), Some(0.0));
        assert!(s.stddev().is_none(), "sample stddev needs n >= 2");
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn known_mean_and_stddev() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        // population variance is 4.0
        assert!((s.variance().unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let seq: OnlineStats = xs.iter().copied().collect();
        let mut a: OnlineStats = xs[..33].iter().copied().collect();
        let b: OnlineStats = xs[33..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean().unwrap() - seq.mean().unwrap()).abs() < 1e-9);
        assert!((a.stddev().unwrap() - seq.stddev().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn percentile_interpolates() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&mut xs, 0.0), Some(1.0));
        assert_eq!(percentile(&mut xs, 100.0), Some(4.0));
        assert_eq!(percentile(&mut xs, 50.0), Some(2.5));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn summary_relative_helpers() {
        let base = Summary {
            count: 1,
            mean: 100.0,
            stddev: 10.0,
            min: 0.0,
            max: 0.0,
        };
        assert!((base.cv() - 0.1).abs() < 1e-12);
    }
}
