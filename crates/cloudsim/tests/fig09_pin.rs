//! Pins every number the `fig09_cost_savings` binary emits, bit-for-bit.
//!
//! `simulate` materializes the synthetic trace and places each user's
//! pods through `sched::kube_schedule` (the whole-pod baseline) and
//! `sched::hostlo_improve`; `simulate_bands` repeats that over ten trace
//! seeds. Any drift in the trace generator, the baseline or the Hostlo
//! improvement pass shows up here as an exact-equality failure, not a
//! tolerance miss.

extern crate nestless_cloudsim as cloudsim;

use cloudsim::{simulate, simulate_bands, synthetic_trace, PAPER_USER_COUNT};

#[test]
fn fig09_outputs_are_pinned() {
    let trace = synthetic_trace(PAPER_USER_COUNT, 2019);
    let report = simulate(&trace);

    let bins: Vec<u64> = report
        .histogram(10)
        .iter_bins()
        .map(|(_, _, c)| c)
        .collect();
    assert_eq!(bins, [28, 5, 11, 7, 23, 0, 6, 8, 0, 0]);

    assert_eq!(report.frac_users_saving() * 100.0, 17.886_178_861_788_62);
    assert_eq!(report.frac_savers_above(0.05) * 100.0, 68.18181818181817);
    assert_eq!(report.max_rel_saving() * 100.0, 37.49999999999999);
    let (max_abs, rel_of_max) = report.max_abs_saving();
    assert_eq!(max_abs, 96.9919999999994);
    assert_eq!(rel_of_max * 100.0, 33.30769230769214);

    let bands = simulate_bands(PAPER_USER_COUNT, &(0..10).collect::<Vec<u64>>());
    assert_eq!(bands.frac_saving.0 * 100.0, 19.51219512195122);
    assert_eq!(bands.frac_saving.1 * 100.0, 1.465671250188614);
    assert_eq!(bands.max_rel_saving.0 * 100.0, 37.49999999999999);
    assert_eq!(bands.max_rel_saving.1 * 100.0, 0.0);
}
