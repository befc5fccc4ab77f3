//! The fig. 9 experiment: per-user cost savings of Hostlo scheduling.
//!
//! "It shows the frequency of relative cost savings among 492 users in the
//! Google traces. Hostlo reduces costs for about 11.4 % of the clients,
//! among which 66.7 % show a costs reduction of more than 5 %. The maximum
//! relative cost savings are about 40 %; the maximum cost save is about
//! 237 $/h, which represents a 35 % reduction."

use crate::sched::{hostlo_improve, kube_schedule};
use crate::trace::Trace;
use metrics::Histogram;
use rayon::prelude::*;

/// Cost comparison for one user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserSavings {
    /// User id.
    pub user: u32,
    /// Baseline (whole-pod Kubernetes) hourly cost.
    pub base_cost: f64,
    /// Hostlo (cross-VM) hourly cost.
    pub hostlo_cost: f64,
}

impl UserSavings {
    /// Absolute saving, $/h.
    pub fn abs_saving(&self) -> f64 {
        self.base_cost - self.hostlo_cost
    }

    /// Relative saving in `[0, 1]`.
    pub fn rel_saving(&self) -> f64 {
        if self.base_cost == 0.0 {
            0.0
        } else {
            self.abs_saving() / self.base_cost
        }
    }
}

/// The aggregated fig. 9 report.
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsReport {
    /// Per-user results, in user order.
    pub per_user: Vec<UserSavings>,
}

impl SavingsReport {
    /// Users with a strictly positive saving.
    pub fn savers(&self) -> impl Iterator<Item = &UserSavings> {
        self.per_user.iter().filter(|u| u.abs_saving() > 1e-9)
    }

    /// Fraction of users that save anything.
    pub fn frac_users_saving(&self) -> f64 {
        self.savers().count() as f64 / self.per_user.len().max(1) as f64
    }

    /// Among savers, the fraction saving more than `threshold` (relative).
    pub fn frac_savers_above(&self, threshold: f64) -> f64 {
        let savers: Vec<_> = self.savers().collect();
        if savers.is_empty() {
            return 0.0;
        }
        savers.iter().filter(|u| u.rel_saving() > threshold).count() as f64 / savers.len() as f64
    }

    /// Largest relative saving.
    pub fn max_rel_saving(&self) -> f64 {
        self.per_user
            .iter()
            .map(UserSavings::rel_saving)
            .fold(0.0, f64::max)
    }

    /// Largest absolute saving and that user's relative saving.
    pub fn max_abs_saving(&self) -> (f64, f64) {
        self.per_user
            .iter()
            .max_by(|a, b| a.abs_saving().partial_cmp(&b.abs_saving()).expect("finite"))
            .map(|u| (u.abs_saving(), u.rel_saving()))
            .unwrap_or((0.0, 0.0))
    }

    /// The fig. 9 histogram: frequency of relative savings (percent bins
    /// over the savers).
    pub fn histogram(&self, bins: usize) -> Histogram {
        let mut h = Histogram::new(0.0, 50.0, bins);
        for u in self.savers() {
            h.record(u.rel_saving() * 100.0);
        }
        h
    }
}

/// Runs both schedulers over the whole trace (users in parallel: each user
/// is an independent packing problem).
///
/// ```
/// use nestless_cloudsim::{simulate, synthetic_trace};
///
/// let trace = synthetic_trace(50, 7);
/// let report = simulate(&trace);
/// assert_eq!(report.per_user.len(), 50);
/// // Hostlo never costs more than the whole-pod baseline.
/// assert!(report.per_user.iter().all(|u| u.hostlo_cost <= u.base_cost + 1e-9));
/// ```
pub fn simulate(trace: &Trace) -> SavingsReport {
    let per_user = trace
        .users
        .par_iter()
        .map(|u| {
            let base = kube_schedule(u);
            let improved = hostlo_improve(base.clone());
            debug_assert!(improved.is_feasible());
            debug_assert_eq!(improved.container_count(), base.container_count());
            UserSavings {
                user: u.id,
                base_cost: base.cost_per_h(),
                hostlo_cost: improved.cost_per_h(),
            }
        })
        .collect();
    SavingsReport { per_user }
}

/// Headline fig. 9 statistics across several trace seeds, with dispersion
/// (the error bars the paper's single-trace methodology cannot give).
#[derive(Debug, Clone, PartialEq)]
pub struct SavingsBands {
    /// Mean and stddev of the fraction of users saving.
    pub frac_saving: (f64, f64),
    /// Mean and stddev of the savers-above-5% fraction.
    pub frac_savers_above_5pct: (f64, f64),
    /// Mean and stddev of the max relative saving.
    pub max_rel_saving: (f64, f64),
}

/// Runs the full simulation for each seed (in parallel) and aggregates the
/// headline statistics.
pub fn simulate_bands(users: usize, seeds: &[u64]) -> SavingsBands {
    use metrics::OnlineStats;
    assert!(!seeds.is_empty(), "need at least one seed");
    let rows: Vec<(f64, f64, f64)> = seeds
        .par_iter()
        .map(|&seed| {
            let report = simulate(&crate::trace::synthetic_trace(users, seed));
            (
                report.frac_users_saving(),
                report.frac_savers_above(0.05),
                report.max_rel_saving(),
            )
        })
        .collect();
    let summarize = |f: &dyn Fn(&(f64, f64, f64)) -> f64| {
        let s: OnlineStats = rows.iter().map(f).collect();
        (s.mean().unwrap_or(0.0), s.stddev().unwrap_or(0.0))
    };
    SavingsBands {
        frac_saving: summarize(&|r| r.0),
        frac_savers_above_5pct: summarize(&|r| r.1),
        max_rel_saving: summarize(&|r| r.2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{synthetic_trace, PAPER_USER_COUNT};

    #[test]
    fn report_on_paper_population_lands_in_bands() {
        let trace = synthetic_trace(PAPER_USER_COUNT, 2019);
        let report = simulate(&trace);
        assert_eq!(report.per_user.len(), PAPER_USER_COUNT);

        // Paper: ~11.4% of users save.
        let frac = report.frac_users_saving();
        assert!(
            (0.08..=0.25).contains(&frac),
            "fraction of users saving = {frac}"
        );
        // Paper: of the savers, ~66.7% save more than 5%.
        let above5 = report.frac_savers_above(0.05);
        assert!(
            (0.45..=0.90).contains(&above5),
            "savers above 5% = {above5}"
        );
        // Paper: max relative savings ~40%.
        let max_rel = report.max_rel_saving();
        assert!(
            (0.25..=0.50).contains(&max_rel),
            "max relative saving = {max_rel}"
        );
        // Paper: the max absolute saver is a whale with a ~35% reduction.
        let (max_abs, rel_of_max) = report.max_abs_saving();
        assert!(max_abs > 20.0, "max absolute saving = {max_abs} $/h");
        assert!(
            (0.15..=0.45).contains(&rel_of_max),
            "whale relative saving = {rel_of_max}"
        );
        // Savings never negative.
        assert!(report.per_user.iter().all(|u| u.abs_saving() >= -1e-9));
    }

    #[test]
    fn histogram_counts_savers_only() {
        let trace = synthetic_trace(120, 5);
        let report = simulate(&trace);
        let h = report.histogram(20);
        assert_eq!(h.total() as usize, report.savers().count());
    }

    #[test]
    fn simulate_is_deterministic_under_parallelism() {
        let trace = synthetic_trace(100, 9);
        let a = simulate(&trace);
        let b = simulate(&trace);
        assert_eq!(a, b);
    }

    #[test]
    fn bands_aggregate_across_seeds() {
        let bands = simulate_bands(120, &[1, 2, 3, 4]);
        assert!(bands.frac_saving.0 > 0.0);
        assert!(bands.frac_saving.1 >= 0.0);
        assert!((0.0..=1.0).contains(&bands.frac_savers_above_5pct.0));
        assert!((0.0..=1.0).contains(&bands.max_rel_saving.0));
        // Deterministic.
        assert_eq!(bands, simulate_bands(120, &[1, 2, 3, 4]));
    }

    #[test]
    fn zero_cost_user_is_handled() {
        let s = UserSavings {
            user: 0,
            base_cost: 0.0,
            hostlo_cost: 0.0,
        };
        assert_eq!(s.rel_saving(), 0.0);
    }
}
