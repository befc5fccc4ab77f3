//! Fixed-width-bin histograms.
//!
//! Figure 9 of the paper is a frequency histogram of relative cost savings
//! across users; [`Histogram`] reproduces that shape and also backs the
//! latency-distribution plots.

use serde::Deserialize;

/// A histogram over `[lo, hi)` with `bins` equal-width buckets plus
/// underflow/overflow counters.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `bins` buckets.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one sample. Bucket and total counts saturate at `u64::MAX`
    /// instead of wrapping, so a pathological merge-then-record chain can
    /// never corrupt totals.
    pub fn record(&mut self, x: f64) {
        self.total = self.total.saturating_add(1);
        if x < self.lo {
            self.underflow = self.underflow.saturating_add(1);
        } else if x >= self.hi {
            self.overflow = self.overflow.saturating_add(1);
        } else {
            let width = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / width) as usize;
            // Guard against floating-point edge where x is a hair below hi.
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] = self.counts[idx].saturating_add(1);
        }
    }

    /// Number of bins (excluding under/overflow).
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total recorded samples, including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range end.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count in bin `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// `(bin_low_edge, bin_high_edge, count)` for every bin, in order.
    pub fn iter_bins(&self) -> impl Iterator<Item = (f64, f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            let lo = self.lo + i as f64 * width;
            (lo, lo + width, c)
        })
    }

    /// Fraction of in-range samples falling in bins whose *low edge* is at or
    /// above `threshold`. Used for statements like "66.7 % of the savers save
    /// more than 5 %".
    pub fn frac_at_or_above(&self, threshold: f64) -> f64 {
        let in_range: u64 = self.counts.iter().sum();
        if in_range == 0 {
            return 0.0;
        }
        let above: u64 = self
            .iter_bins()
            .filter(|(lo, _, _)| *lo >= threshold)
            .map(|(_, _, c)| c)
            .sum();
        above as f64 / in_range as f64
    }

    /// Merges a histogram with identical geometry. Counts saturate at
    /// `u64::MAX` instead of wrapping.
    ///
    /// # Panics
    /// Panics if ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.lo, other.lo, "histogram lo mismatch");
        assert_eq!(self.hi, other.hi, "histogram hi mismatch");
        assert_eq!(self.counts.len(), other.counts.len(), "bin count mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.underflow = self.underflow.saturating_add(other.underflow);
        self.overflow = self.overflow.saturating_add(other.overflow);
        self.total = self.total.saturating_add(other.total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(0.0);
        h.record(0.5);
        h.record(9.99);
        h.record(5.0);
        assert_eq!(h.count(0), 2);
        assert_eq!(h.count(9), 1);
        assert_eq!(h.count(5), 1);
        assert_eq!(h.total(), 4);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.record(-0.1);
        h.record(1.0); // hi is exclusive
        h.record(2.0);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn frac_at_or_above() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for x in [1.0, 2.0, 3.0, 50.0, 60.0, 70.0] {
            h.record(x);
        }
        // bins with low edge >= 50 hold 3 of 6 in-range samples
        assert!((h.frac_at_or_above(50.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let mut b = Histogram::new(0.0, 10.0, 5);
        a.record(1.0);
        b.record(1.0);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.count(0), 2);
        assert_eq!(a.count(4), 1);
        assert_eq!(a.total(), 3);
    }

    #[test]
    #[should_panic(expected = "bin count mismatch")]
    fn merge_rejects_mismatched_geometry() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        let b = Histogram::new(0.0, 10.0, 6);
        a.merge(&b);
    }

    #[test]
    fn bin_edges_cover_range() {
        let h = Histogram::new(2.0, 4.0, 4);
        let edges: Vec<_> = h.iter_bins().collect();
        assert_eq!(edges.len(), 4);
        assert!((edges[0].0 - 2.0).abs() < 1e-12);
        assert!((edges[3].1 - 4.0).abs() < 1e-12);
    }
}
