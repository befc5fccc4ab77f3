//! Figure 8: container start-up time, Docker NAT vs BrFusion, 100 runs.
//!
//! "75% of the measured start up times are slightly better with BrFusion
//! than with Docker NAT."

use contd::fig8_experiment;
use nestless_bench::{Check, Claim, Figure};

fn main() {
    let runs = 100;
    let (nat, brf) = fig8_experiment(runs, 0xF168_u64);
    let mut fig = Figure::new("fig08", "Container start-up time: Docker NAT vs BrFusion");

    // CDF rows at the paper's quartile landmarks.
    for q in [0.25, 0.5, 0.75, 0.9, 0.99] {
        fig.push_row(
            format!("NAT p{:.0}", q * 100.0),
            nat.quantile(q).unwrap(),
            "ms",
        );
        fig.push_row(
            format!("BrFusion p{:.0}", q * 100.0),
            brf.quantile(q).unwrap(),
            "ms",
        );
    }
    fig.push_row("NAT median", nat.median().unwrap(), "ms");
    fig.push_row("BrFusion median", brf.median().unwrap(), "ms");

    let frac = brf.frac_below(&nat).expect("equal run counts");
    fig.push_claim(Claim::new(
        "fraction of runs where BrFusion boots faster",
        75.0,
        frac * 100.0,
        "%",
        Check::Above(50.0),
    ));
    fig.finish();
}
