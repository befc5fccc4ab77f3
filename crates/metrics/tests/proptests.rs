//! Property-based tests for the statistics substrate.

extern crate nestless_metrics as metrics;

use metrics::flight::Log2Hist;
use metrics::{Cdf, Histogram, OnlineStats, Series, Summary};
use proptest::prelude::*;

fn finite_samples() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    /// Parallel merge must agree with sequential accumulation.
    #[test]
    fn merge_equals_sequential(xs in finite_samples(), split in 0usize..200) {
        let split = split.min(xs.len());
        let seq: OnlineStats = xs.iter().copied().collect();
        let mut a: OnlineStats = xs[..split].iter().copied().collect();
        let b: OnlineStats = xs[split..].iter().copied().collect();
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean().unwrap() - seq.mean().unwrap()).abs() < 1e-6);
        if xs.len() > 1 {
            prop_assert!((a.stddev().unwrap() - seq.stddev().unwrap()).abs() < 1e-5);
        }
        prop_assert_eq!(a.min(), seq.min());
        prop_assert_eq!(a.max(), seq.max());
    }

    /// The mean always lies between the extremes; variance is non-negative.
    #[test]
    fn mean_bounded_variance_nonnegative(xs in finite_samples()) {
        let s: OnlineStats = xs.iter().copied().collect();
        let m = s.mean().unwrap();
        prop_assert!(s.min().unwrap() <= m + 1e-9);
        prop_assert!(m <= s.max().unwrap() + 1e-9);
        prop_assert!(s.variance().unwrap() >= -1e-9);
    }

    /// Percentiles are monotone in q and bounded by the extremes.
    #[test]
    fn percentiles_monotone(mut xs in finite_samples(), q1 in 0.0..100.0f64, q2 in 0.0..100.0f64) {
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let lo = metrics::stats::percentile(&mut xs, lo_q).unwrap();
        let hi = metrics::stats::percentile(&mut xs, hi_q).unwrap();
        prop_assert!(lo <= hi + 1e-9);
        let min = metrics::stats::percentile(&mut xs, 0.0).unwrap();
        let max = metrics::stats::percentile(&mut xs, 100.0).unwrap();
        prop_assert!(min <= lo + 1e-9 && hi <= max + 1e-9);
    }

    /// Histograms conserve every recorded sample.
    #[test]
    fn histogram_conserves_samples(xs in finite_samples(), bins in 1usize..50) {
        let mut h = Histogram::new(-1e5, 1e5, bins);
        for &x in &xs {
            h.record(x);
        }
        let in_range: u64 = (0..h.bins()).map(|i| h.count(i)).sum();
        prop_assert_eq!(in_range + h.underflow() + h.overflow(), xs.len() as u64);
        prop_assert_eq!(h.total(), xs.len() as u64);
    }

    /// Merging histograms adds counts cell-wise.
    #[test]
    fn histogram_merge_adds(xs in finite_samples(), ys in finite_samples()) {
        let mk = |zs: &[f64]| {
            let mut h = Histogram::new(-1e6, 1e6, 16);
            for &z in zs { h.record(z); }
            h
        };
        let mut a = mk(&xs);
        let b = mk(&ys);
        a.merge(&b);
        let both = mk(&xs.iter().chain(&ys).copied().collect::<Vec<_>>());
        prop_assert_eq!(a, both);
    }

    /// ECDF is monotone and reaches 1 at the max sample.
    #[test]
    fn cdf_monotone_and_complete(xs in finite_samples()) {
        let c = Cdf::from_samples(xs.clone());
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &sorted {
            let p = c.eval(x);
            prop_assert!(p >= prev - 1e-12);
            prev = p;
        }
        prop_assert!((c.eval(sorted[sorted.len() - 1]) - 1.0).abs() < 1e-12);
    }

    /// Quantiles invert the CDF: eval(quantile(q)) >= q.
    #[test]
    fn cdf_quantile_inverts(xs in finite_samples(), q in 0.01..1.0f64) {
        let c = Cdf::from_samples(xs);
        let v = c.quantile(q).unwrap();
        prop_assert!(c.eval(v) + 1e-12 >= q);
    }
}

/// A histogram whose counters sit near `u64::MAX` (built through serde,
/// the only door into the private fields) for saturation edges.
fn near_max_histogram(headroom: u64) -> Histogram {
    let max = u64::MAX - headroom;
    let json = format!(
        "{{\"lo\":0.0,\"hi\":10.0,\"counts\":[{max},0,0,0],\
         \"underflow\":{max},\"overflow\":{max},\"total\":{max}}}"
    );
    serde_json::from_str(&json).expect("histogram shape")
}

fn summaries() -> impl Strategy<Value = Summary> {
    (-1e6..1e6f64, 0.0..1e3f64, 1u64..1000).prop_map(|(mean, spread, count)| Summary {
        count,
        mean,
        stddev: spread,
        min: mean - spread,
        max: mean + spread,
    })
}

fn series_points() -> impl Strategy<Value = Vec<(u32, Summary)>> {
    prop::collection::vec((0u32..1000, summaries()), 0..20).prop_map(|pairs| {
        let dedup: std::collections::BTreeMap<u32, Summary> = pairs.into_iter().collect();
        dedup.into_iter().collect()
    })
}

fn build_series(points: &[(u32, Summary)]) -> Series {
    let mut s = Series::new("s", "u");
    for (x, y) in points {
        s.push(*x as f64, *y);
    }
    s
}

proptest! {
    /// Bucket, flow and total counters saturate at `u64::MAX` instead of
    /// wrapping, both on `record` and on `merge`.
    #[test]
    fn histogram_counts_saturate(headroom in 0u64..4, extra in 1u64..16) {
        let mut h = near_max_histogram(headroom);
        for _ in 0..(headroom + extra) {
            h.record(0.5);   // bucket 0
            h.record(-1.0);  // underflow
            h.record(99.0);  // overflow
        }
        prop_assert_eq!(h.count(0), u64::MAX, "bucket saturates");
        prop_assert_eq!(h.underflow(), u64::MAX);
        prop_assert_eq!(h.overflow(), u64::MAX);
        prop_assert_eq!(h.total(), u64::MAX);

        let mut a = near_max_histogram(headroom);
        let b = near_max_histogram(headroom);
        a.merge(&b);
        prop_assert_eq!(a.count(0), u64::MAX, "merge saturates");
        prop_assert_eq!(a.total(), u64::MAX);
    }

    /// Empty ⊕ nonempty series merges are identities (in both orders),
    /// and a merge of disjoint halves restores the original point set.
    #[test]
    fn series_merge_empty_and_split(points in series_points(), split in 0usize..20) {
        let full = build_series(&points);
        let mut a = full.clone();
        a.merge(&Series::new("e", "u"));
        prop_assert_eq!(&a, &full, "nonempty <- empty is identity");
        let mut e = Series::new("e", "");
        e.merge(&full);
        prop_assert_eq!(&e.points, &full.points, "empty <- nonempty copies");

        let split = split.min(points.len());
        let mut left = build_series(&points[..split]);
        let right = build_series(&points[split..]);
        left.merge(&right);
        prop_assert_eq!(&left.points, &full.points, "disjoint halves reassemble");
    }

    /// Merging series that share x values pools counts and widens extremes.
    #[test]
    fn series_merge_pools_shared_points(points in series_points(), other in summaries()) {
        prop_assume!(!points.is_empty());
        let mut a = build_series(&points);
        let shared_x = points[0].0 as f64;
        let mut b = Series::new("b", "u");
        b.push(shared_x, other);
        a.merge(&b);
        prop_assert_eq!(a.points.len(), points.len(), "no duplicate x after merge");
        let merged = a.at(shared_x).unwrap();
        let orig = &points[0].1;
        prop_assert_eq!(merged.count, orig.count + other.count);
        prop_assert!(merged.min <= orig.min.min(other.min) + 1e-9);
        prop_assert!(merged.max >= orig.max.max(other.max) - 1e-9);
        let lo = orig.mean.min(other.mean);
        let hi = orig.mean.max(other.mean);
        prop_assert!(lo - 1e-6 <= merged.mean && merged.mean <= hi + 1e-6, "pooled mean bounded");
    }

    /// `Log2Hist` merges are exact and commutative.
    #[test]
    fn log2_hist_merge_commutes(xs in prop::collection::vec(0u64..1u64 << 40, 0..100),
                                ys in prop::collection::vec(0u64..1u64 << 40, 0..100)) {
        let mk = |zs: &[u64]| {
            let mut h = Log2Hist::new();
            for &z in zs { h.record(z); }
            h
        };
        let mut ab = mk(&xs);
        ab.merge(&mk(&ys));
        let mut ba = mk(&ys);
        ba.merge(&mk(&xs));
        prop_assert_eq!(ab.buckets(), ba.buckets());
        prop_assert_eq!(ab.count(), (xs.len() + ys.len()) as u64);
    }

    /// Decimation keeps series bounded, ordered, and is idempotent.
    #[test]
    fn decimation_bounded_ordered_idempotent(n in 0u64..5000, cap in 2usize..64) {
        let mut series = metrics::TickSeries::new(cap);
        for i in 0..n {
            series.push(i * 7, i as f64);
        }
        prop_assert!(series.points().len() < cap, "cap enforced");
        let xs: Vec<u64> = series.points().iter().map(|p| p.0).collect();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(&xs, &sorted, "time order survives decimation");
        let mut again = series.clone();
        let before = again.points().to_vec();
        again.decimate();
        prop_assert_eq!(again.points(), &before[..], "decimate is idempotent under cap");
        if n > 0 {
            prop_assert_eq!(series.points()[0].0, 0, "first sample always survives");
            prop_assert_eq!(series.ticks(), n, "every offer is counted");
        }
    }
}
