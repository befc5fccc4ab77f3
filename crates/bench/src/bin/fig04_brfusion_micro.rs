//! Figures 2 and 4: the nested-NAT motivation and BrFusion's gain,
//! micro-benchmark. Fig. 2 is the NAT/NoCont excerpt of fig. 4's sweep.
//!
//! Fig. 2: "We can observe a throughput degradation of 68% and a latency
//! increase of 31% with 1280B messages compared to single-level
//! virtualization."
//!
//! Fig. 4: "With 1280B packets BrFusion's throughput is 2.1 times greater
//! than NAT's and the average latency is 18.4% lower. BrFusion is also
//! within 3.5% of NoCont's performance. Finally, BrFusion scales like
//! NoCont with message sizes, while NAT scales more slowly."

use metrics::Series;
use nestless::topology::Config;
use nestless_bench::{Check, Claim, Figure, Mode, Sweep};

/// Pushes the first `n` configs' throughput series, then their latency
/// series, each named after its config and mode.
fn push_sweep(fig: &mut Figure, tput: &[Series], lat: &[Series], n: usize) {
    for (series, mode) in [(tput, "tput"), (lat, "lat")] {
        for s in &series[..n] {
            let mut s = s.clone();
            s.name = format!("{} {mode}", s.name);
            fig.push_series(s);
        }
    }
}

fn main() {
    let sweep = Sweep::default();
    // indexes: 0 = NAT, 1 = NoCont, 2 = BrFusion
    let configs = [Config::Nat, Config::NoCont, Config::BrFusion];
    let tput = sweep.run_all(&configs, Mode::Throughput);
    let lat = sweep.run_all(&configs, Mode::Latency);

    let at = 1280.0;
    let t = |i: usize| tput[i].at(at).expect("1280B").mean;
    let l = |i: usize| lat[i].at(at).expect("1280B").mean;

    let mut fig02 = Figure::new("fig02", "Nested (NAT) vs single-level (NoCont) Netperf");
    push_sweep(&mut fig02, &tput, &lat, 2);
    fig02.push_claim(Claim::new(
        "throughput degradation @1280B",
        68.0,
        (1.0 - t(0) / t(1)) * 100.0,
        "%",
        Check::Within(45.0, 75.0),
    ));
    fig02.push_claim(Claim::new(
        "latency increase @1280B",
        31.0,
        (l(0) / l(1) - 1.0) * 100.0,
        "%",
        Check::Within(20.0, 45.0),
    ));
    fig02.finish();

    let mut fig = Figure::new("fig04", "BrFusion vs NAT vs NoCont (Netperf sweep)");
    fig.push_claim(Claim::new(
        "BrFusion/NAT throughput @1280B",
        2.1,
        t(2) / t(0),
        "x",
        Check::Within(1.8, 3.2),
    ));
    fig.push_claim(Claim::new(
        "BrFusion latency reduction vs NAT @1280B",
        18.4,
        (1.0 - l(2) / l(0)) * 100.0,
        "%",
        Check::Within(12.0, 35.0),
    ));
    fig.push_claim(Claim::new(
        "BrFusion gap to NoCont (tput) @1280B",
        3.5,
        (t(1) - t(2)).abs() / t(1) * 100.0,
        "%",
        Check::Below(3.5),
    ));
    // "BrFusion scales like NoCont with message sizes, while NAT scales
    // more slowly": each config's 1024 B -> 8192 B throughput growth.
    let grow = |i: usize| {
        tput[i].at(8192.0).expect("8192B").mean / tput[i].at(1024.0).expect("1024B").mean
    };
    fig.push_claim(Claim::new(
        "NAT 1024->8192B tput growth relative to NoCont's",
        1.0,
        grow(0) / grow(1),
        "x",
        Check::Below(1.0),
    ));
    fig.push_claim(Claim::new(
        "BrFusion 1024->8192B tput growth gap to NoCont's",
        0.0,
        (grow(2) - grow(1)).abs() / grow(1) * 100.0,
        "%",
        Check::Below(15.0),
    ));
    fig.push_row(
        "NAT tput max step change (stagnation)",
        tput[0].max_step_change(),
        "frac",
    );
    fig.push_row(
        "BrFusion tput monotone",
        f64::from(tput[2].is_monotone_nondecreasing()),
        "bool",
    );
    push_sweep(&mut fig, &tput, &lat, 3);
    fig.finish();
}
