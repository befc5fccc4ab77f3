//! Ablation 1: which guest stage costs what?
//!
//! BrFusion's thesis is that the guest-level bridge, NAT and veth stages
//! are pure overhead. This ablation zeroes each stage individually in the
//! NAT configuration and reports how much of the latency gap it explains.

use nestless::topology::{build_with, BuildOpts, Config};
use nestless_bench::Figure;
use simnet::costs::StageCost;
use simnet::SimDuration;
use workloads::netperf::Netperf;

/// Mean UDP_RR latency at 1280 B on the NAT path.
fn run_with(opts: &BuildOpts, seed: u64) -> f64 {
    let np = Netperf {
        duration: SimDuration::millis(300),
        warmup: SimDuration::ZERO,
        ..Netperf::with_size(1280)
    };
    np.udp_rr_on(build_with(Config::Nat, seed, opts))
        .latency_us
        .unwrap()
        .mean
}

fn main() {
    let mut fig = Figure::new(
        "ablation_stage_count",
        "Per-stage contribution to the NAT path",
    );
    let base = run_with(&BuildOpts::default(), 1);
    fig.push_row("NAT latency (all stages)", base, "us");

    let zero = StageCost::fixed(1, 0.0, metrics::CpuCategory::Soft);
    #[allow(clippy::type_complexity)]
    let variants: [(&str, Box<dyn Fn(&mut simnet::CostModel)>); 3] = [
        (
            "guest NAT zeroed",
            Box::new(|c: &mut simnet::CostModel| c.guest_nat = zero),
        ),
        (
            "guest bridge zeroed",
            Box::new(|c: &mut simnet::CostModel| c.guest_bridge = zero),
        ),
        (
            "veth zeroed",
            Box::new(|c: &mut simnet::CostModel| c.veth = zero),
        ),
    ];
    for (label, f) in variants {
        let mut opts = BuildOpts::default();
        f(&mut opts.costs);
        let lat = run_with(&opts, 1);
        fig.push_row(format!("NAT latency, {label}"), lat, "us");
        fig.push_row(format!("saving from {label}"), base - lat, "us");
    }
    fig.finish();
}
