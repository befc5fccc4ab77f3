//! Figure 10: Hostlo overhead, micro-benchmark — container-to-container
//! Netperf under Hostlo / NAT / Overlay / SameNode.
//!
//! "With a message size of 1024B, Hostlo's throughput is 17.9% higher than
//! NAT's, 27% lower than Overlay's, and 5.3 times lower than SameNode's.
//! [...] Hostlo's latency is 87.3% lower than NAT's, and 89.8% lower than
//! Overlay's. [...] Its latency remains stable across all message sizes."

use nestless::topology::Config;
use nestless_bench::{Check, Claim, Figure, Mode, Sweep};

fn main() {
    let sweep = Sweep::default();
    let configs = [
        Config::Hostlo,
        Config::NatCross,
        Config::Overlay,
        Config::SameNode,
    ];
    let mut fig = Figure::new(
        "fig10",
        "Hostlo vs NAT vs Overlay vs SameNode (cross-VM Netperf)",
    );

    let tput = sweep.run_all(&configs, Mode::Throughput);
    let lat = sweep.run_all(&configs, Mode::Latency);

    let at = 1024.0;
    let t = |i: usize| tput[i].at(at).expect("1024B").mean;
    let l = |i: usize| lat[i].at(at).expect("1024B").mean;
    // indexes: 0 = Hostlo, 1 = NAT, 2 = Overlay, 3 = SameNode
    fig.push_claim(Claim::new(
        "Hostlo tput above NAT @1024B",
        17.9,
        (t(0) / t(1) - 1.0) * 100.0,
        "%",
        Check::Above(0.0),
    ));
    fig.push_claim(Claim::new(
        "Hostlo tput below Overlay @1024B",
        27.0,
        (1.0 - t(0) / t(2)) * 100.0,
        "%",
        Check::Above(0.0),
    ));
    fig.push_claim(Claim::new(
        "SameNode/Hostlo tput @1024B",
        5.3,
        t(3) / t(0),
        "x",
        Check::Within(4.0, 7.0),
    ));
    fig.push_claim(Claim::new(
        "Hostlo latency below NAT @1024B",
        87.3,
        (1.0 - l(0) / l(1)) * 100.0,
        "%",
        Check::Above(75.0),
    ));
    fig.push_claim(Claim::new(
        "Hostlo latency below Overlay @1024B",
        89.8,
        (1.0 - l(0) / l(2)) * 100.0,
        "%",
        Check::Above(0.0),
    ));
    // Implied by the two above: (1 - 87.3 %) / (1 - 89.8 %) = 1.245.
    fig.push_claim(Claim::new(
        "Overlay latency above NAT @1024B",
        24.5,
        (l(2) / l(1) - 1.0) * 100.0,
        "%",
        Check::Above(0.0),
    ));
    fig.push_claim(Claim::new(
        "Hostlo/SameNode latency @1024B",
        2.0,
        l(0) / l(3),
        "x",
        Check::Within(1.5, 2.8),
    ));
    // "Its latency remains stable": Hostlo's dispersion against the
    // noisier of NAT and Overlay.
    let cv = |i: usize| lat[i].at(at).expect("1024B").cv();
    fig.push_claim(Claim::new(
        "Hostlo latency cv relative to max(NAT, Overlay) @1024B",
        1.0,
        cv(0) / cv(1).max(cv(2)),
        "x",
        Check::Below(0.3),
    ));

    // Worst case across the sweep (paper: 6.1x lower tput, 2.1x latency).
    let worst_tput = tput[3]
        .points
        .iter()
        .zip(&tput[0].points)
        .map(|(s, h)| s.y.mean / h.y.mean)
        .fold(0.0f64, f64::max);
    let worst_lat = lat[0]
        .points
        .iter()
        .zip(&lat[3].points)
        .map(|(h, s)| h.y.mean / s.y.mean)
        .fold(0.0f64, f64::max);
    fig.push_claim(Claim::new(
        "worst-case SameNode/Hostlo tput",
        6.1,
        worst_tput,
        "x",
        Check::Within(4.0, 7.0),
    ));
    fig.push_claim(
        Claim::new(
            "worst-case Hostlo/SameNode latency",
            2.1,
            worst_lat,
            "x",
            Check::Within(1.5, 2.8),
        )
        .deviation("byte-dominated TAP copy cost at 8 KiB"),
    );
    fig.push_row(
        "Hostlo latency max step change (stability)",
        lat[0].max_step_change(),
        "frac",
    );

    for s in tput {
        let mut s = s;
        s.name = format!("{} tput", s.name);
        fig.push_series(s);
    }
    for s in lat {
        let mut s = s;
        s.name = format!("{} lat", s.name);
        fig.push_series(s);
    }
    fig.finish();
}
