//! Figure 9 (+ Table 2): Hostlo cost savings over the user population.
//!
//! "Hostlo reduces costs for about 11.4% of the clients, among which 66.7%
//! show a costs reduction of more than 5%. The maximum relative cost
//! savings are about 40%; the maximum cost save is about 237$/h, which
//! represents a 35% reduction."

use cloudsim::{simulate, synthetic_trace, M5_CATALOG, PAPER_USER_COUNT};
use nestless_bench::{Check, Claim, Figure};

fn main() {
    // Table 2 echo.
    println!("Table 2: AWS EC2 m5 on-demand models");
    println!(
        "{:<14} {:>5} {:>8} {:>10} {:>10} {:>9}",
        "model", "vCPU", "mem GiB", "vCPU rel", "mem rel", "$/h"
    );
    for m in &M5_CATALOG {
        println!(
            "{:<14} {:>5} {:>8} {:>10.4} {:>10.4} {:>9.3}",
            m.name,
            m.vcpus,
            m.memory_gib,
            m.vcpu_rel(),
            m.memory_rel(),
            m.price_per_h
        );
    }
    println!();

    let trace = synthetic_trace(PAPER_USER_COUNT, 2019);
    let report = simulate(&trace);
    let mut fig = Figure::new(
        "fig09",
        "Hostlo cost savings distribution (synthetic Google-like trace)",
    );

    let hist = report.histogram(10);
    for (lo, hi, count) in hist.iter_bins() {
        fig.push_row(format!("savings {lo:.0}-{hi:.0}%"), count as f64, "users");
    }

    // The sentence states magnitudes only: each must land within half to
    // twice the paper's value.
    let about = |what, paper: f64, measured, unit| {
        Claim::new(
            what,
            paper,
            measured,
            unit,
            Check::Within(paper / 2.0, paper * 2.0),
        )
    };
    let (max_abs, rel_of_max) = report.max_abs_saving();
    let savers = report.frac_users_saving() * 100.0;
    fig.push_claim(about("fraction of users saving", 11.4, savers, "%"));
    let above5 = report.frac_savers_above(0.05) * 100.0;
    fig.push_claim(about("savers above 5%", 66.7, above5, "%"));
    let max_rel = report.max_rel_saving() * 100.0;
    fig.push_claim(about("max relative saving", 40.0, max_rel, "%"));
    fig.push_claim(
        about("max absolute saving", 237.0, max_abs, "$/h")
            .deviation("limited by the synthetic whale size: our largest tenant bills about $290/h, the trace's about $680/h"),
    );
    let rel = rel_of_max * 100.0;
    fig.push_claim(about("relative saving of max-abs user", 35.0, rel, "%"));

    // Dispersion across ten trace seeds (beyond the paper's single trace).
    let bands = cloudsim::simulate_bands(PAPER_USER_COUNT, &(0..10).collect::<Vec<u64>>());
    fig.push_row(
        "frac saving, 10-seed mean",
        bands.frac_saving.0 * 100.0,
        "%",
    );
    fig.push_row(
        "frac saving, 10-seed stddev",
        bands.frac_saving.1 * 100.0,
        "%",
    );
    fig.push_row(
        "max rel saving, 10-seed mean",
        bands.max_rel_saving.0 * 100.0,
        "%",
    );
    fig.push_row(
        "max rel saving, 10-seed stddev",
        bands.max_rel_saving.1 * 100.0,
        "%",
    );
    fig.finish();
}
