//! Parameter-swept result series.
//!
//! The x-axis of figs. 2, 4 and 10 is the Netperf message size; each solution
//! (NAT, BrFusion, NoCont, Hostlo, Overlay, SameNode) contributes one
//! [`Series`] of `(x, summary)` points. The figure harnesses in `bench`
//! serialize these to JSON and print the paper-style tables.

use crate::stats::Summary;
use serde::Serialize;

/// One point of a swept series: parameter value plus summarized samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SeriesPoint {
    /// Swept parameter (e.g. message size in bytes).
    pub x: f64,
    /// Summary of the measured metric at this parameter value.
    pub y: Summary,
}

/// A named, ordered series of measurements over a swept parameter.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Series {
    /// Label shown in the figure legend (e.g. "BrFusion").
    pub name: String,
    /// Metric unit, for table headers (e.g. "Mbit/s", "us").
    pub unit: String,
    /// Points in ascending `x` order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(name: impl Into<String>, unit: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            unit: unit.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point; `x` must be strictly greater than the previous point.
    ///
    /// # Panics
    /// Panics if `x` does not increase (a sweep must be ordered to plot).
    pub fn push(&mut self, x: f64, y: Summary) {
        if let Some(last) = self.points.last() {
            assert!(x > last.x, "series points must have increasing x");
        }
        self.points.push(SeriesPoint { x, y });
    }

    /// Looks up the summary at an exact parameter value.
    pub fn at(&self, x: f64) -> Option<&Summary> {
        self.points.iter().find(|p| p.x == x).map(|p| &p.y)
    }

    /// True when means are non-decreasing along the sweep — the paper's
    /// "scales with message sizes" claim.
    pub fn is_monotone_nondecreasing(&self) -> bool {
        self.points.windows(2).all(|w| w[0].y.mean <= w[1].y.mean)
    }

    /// Merges another series into this one: points interleave in `x`
    /// order, and points sharing an `x` pool their summaries (combined
    /// count, weighted mean, pooled variance, widened min/max). Merging an
    /// empty series is the identity; merging into an empty series copies
    /// `other` (including its unit).
    ///
    /// # Panics
    /// Panics if both series are non-empty and their units differ.
    pub fn merge(&mut self, other: &Series) {
        if other.points.is_empty() {
            return;
        }
        if self.points.is_empty() {
            self.unit = other.unit.clone();
            self.points = other.points.clone();
            return;
        }
        assert_eq!(
            self.unit, other.unit,
            "cannot merge series of different units"
        );
        let mut merged = Vec::with_capacity(self.points.len() + other.points.len());
        let (mut i, mut j) = (0, 0);
        while i < self.points.len() || j < other.points.len() {
            let take_mine = match (self.points.get(i), other.points.get(j)) {
                (Some(a), Some(b)) => {
                    if a.x == b.x {
                        merged.push(SeriesPoint {
                            x: a.x,
                            y: pool(&a.y, &b.y),
                        });
                        i += 1;
                        j += 1;
                        continue;
                    }
                    a.x < b.x
                }
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_mine {
                merged.push(self.points[i]);
                i += 1;
            } else {
                merged.push(other.points[j]);
                j += 1;
            }
        }
        self.points = merged;
    }

    /// Largest relative change between consecutive points:
    /// `max |y[i+1]-y[i]| / y[i]`. Low values mean the series is flat
    /// ("Hostlo's latency remains stable across all message sizes").
    pub fn max_step_change(&self) -> f64 {
        self.points
            .windows(2)
            .filter(|w| w[0].y.mean != 0.0)
            .map(|w| ((w[1].y.mean - w[0].y.mean) / w[0].y.mean).abs())
            .fold(0.0, f64::max)
    }
}

/// Pools two summaries of disjoint sample sets: combined count, weighted
/// mean, pooled (population) variance, widened min/max. Empty sides are
/// identities.
fn pool(a: &Summary, b: &Summary) -> Summary {
    if a.count == 0 {
        return *b;
    }
    if b.count == 0 {
        return *a;
    }
    let (na, nb) = (a.count as f64, b.count as f64);
    let n = na + nb;
    let mean = (a.mean * na + b.mean * nb) / n;
    // Pooled variance: weighted within-group variance plus between-group
    // spread of the two means.
    let var = (na * (a.stddev * a.stddev + (a.mean - mean) * (a.mean - mean))
        + nb * (b.stddev * b.stddev + (b.mean - mean) * (b.mean - mean)))
        / n;
    Summary {
        count: a.count.saturating_add(b.count),
        mean,
        stddev: var.max(0.0).sqrt(),
        min: a.min.min(b.min),
        max: a.max.max(b.max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum(mean: f64) -> Summary {
        Summary {
            count: 1,
            mean,
            stddev: 0.0,
            min: mean,
            max: mean,
        }
    }

    #[test]
    fn push_and_lookup() {
        let mut s = Series::new("NAT", "Mbit/s");
        s.push(64.0, sum(10.0));
        s.push(128.0, sum(20.0));
        assert_eq!(s.at(64.0).unwrap().mean, 10.0);
        assert!(s.at(100.0).is_none());
    }

    #[test]
    #[should_panic(expected = "increasing x")]
    fn push_rejects_unordered() {
        let mut s = Series::new("x", "u");
        s.push(10.0, sum(1.0));
        s.push(10.0, sum(2.0));
    }

    #[test]
    fn merge_interleaves_and_pools() {
        let mut a = Series::new("a", "u");
        a.push(1.0, sum(10.0));
        a.push(3.0, sum(30.0));
        let mut b = Series::new("b", "u");
        b.push(2.0, sum(20.0));
        b.push(3.0, sum(50.0));
        a.merge(&b);
        let xs: Vec<f64> = a.points.iter().map(|p| p.x).collect();
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        let at3 = a.at(3.0).unwrap();
        assert_eq!(at3.count, 2);
        assert!((at3.mean - 40.0).abs() < 1e-12, "pooled mean");
        assert_eq!(at3.min, 30.0);
        assert_eq!(at3.max, 50.0);
    }

    #[test]
    fn merge_empty_is_identity_both_ways() {
        let mut a = Series::new("a", "u");
        a.push(1.0, sum(10.0));
        let orig = a.clone();
        a.merge(&Series::new("b", "other-unit"));
        assert_eq!(a, orig, "empty rhs is identity");
        let mut empty = Series::new("e", "");
        empty.merge(&orig);
        assert_eq!(empty.points, orig.points, "empty lhs copies rhs");
        assert_eq!(empty.unit, "u", "unit adopted from rhs");
    }

    #[test]
    fn monotonicity_and_flatness() {
        let mut s = Series::new("s", "u");
        s.push(1.0, sum(1.0));
        s.push(2.0, sum(1.05));
        s.push(3.0, sum(1.1));
        assert!(s.is_monotone_nondecreasing());
        assert!(s.max_step_change() < 0.06);

        let mut t = Series::new("t", "u");
        t.push(1.0, sum(1.0));
        t.push(2.0, sum(0.5));
        assert!(!t.is_monotone_nondecreasing());
        assert!((t.max_step_change() - 0.5).abs() < 1e-12);
    }
}
