//! Empirical cumulative distribution functions.
//!
//! Figure 8a of the paper plots the CDF of container start-up times under
//! Docker NAT vs BrFusion over 100 runs; [`Cdf`] is the exact-sample ECDF
//! used to regenerate it.

/// Exact empirical CDF built from stored samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (NaNs are rejected by panic — simulation
    /// outputs must be finite).
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "CDF samples must be finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// P(X <= x): fraction of samples at or below `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&s| s <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Quantile: smallest sample `v` with `eval(v) >= q` for `q` in `(0, 1]`.
    /// Returns `None` on an empty CDF or out-of-range `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        if q == 0.0 {
            return self.sorted.first().copied();
        }
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted.get(idx).copied()
    }

    /// Median (0.5 quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Iterates `(x, P(X <= x))` steps, one per sample, for plotting.
    pub fn steps(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i + 1) as f64 / n))
    }

    /// Fraction of paired positions where `self`'s sample is strictly below
    /// `other`'s, comparing order statistics (both CDFs must have the same
    /// sample count). This is how fig. 8a's claim "75 % of the measured
    /// start-up times are slightly better with BrFusion" is quantified.
    pub fn frac_below(&self, other: &Cdf) -> Option<f64> {
        if self.sorted.len() != other.sorted.len() || self.sorted.is_empty() {
            return None;
        }
        let below = self
            .sorted
            .iter()
            .zip(&other.sorted)
            .filter(|(a, b)| a < b)
            .count();
        Some(below as f64 / self.sorted.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_on_known_samples() {
        let c = Cdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c.eval(0.5), 0.0);
        assert_eq!(c.eval(1.0), 0.25);
        assert_eq!(c.eval(2.5), 0.5);
        assert_eq!(c.eval(4.0), 1.0);
        assert_eq!(c.eval(99.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let c = Cdf::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(c.quantile(0.25), Some(10.0));
        assert_eq!(c.median(), Some(20.0));
        assert_eq!(c.quantile(1.0), Some(40.0));
        assert_eq!(c.quantile(0.0), Some(10.0));
        assert_eq!(c.quantile(1.5), None);
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::from_samples(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.eval(1.0), 0.0);
        assert_eq!(c.median(), None);
    }

    #[test]
    fn steps_are_monotone() {
        let c = Cdf::from_samples(vec![3.0, 1.0, 2.0]);
        let pts: Vec<_> = c.steps().collect();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frac_below_orders_pairwise() {
        let a = Cdf::from_samples(vec![1.0, 2.0, 3.0, 10.0]);
        let b = Cdf::from_samples(vec![1.5, 2.5, 3.5, 4.0]);
        // first three order stats of a are below b's, last is above
        assert_eq!(a.frac_below(&b), Some(0.75));
        assert_eq!(a.frac_below(&Cdf::from_samples(vec![1.0])), None);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let _ = Cdf::from_samples(vec![1.0, f64::NAN]);
    }
}
