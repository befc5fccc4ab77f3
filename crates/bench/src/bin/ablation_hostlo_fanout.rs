//! Ablation 4: hostlo TAP fan-out — broadcast to all queues (the paper's
//! driver) vs excluding the sender's queue.
//!
//! Broadcasting is faithful to §4.2 but wastes one copy per frame on the
//! echo into the sender's own queue; this measures what that copy costs.

use nestless::topology::{build_with, BuildOpts, Config};
use nestless_bench::Figure;
use simnet::SimDuration;
use vmm::FanoutMode;
use workloads::netperf::Netperf;

/// Mean UDP_RR latency at 1024 B and TAP queue copies per transaction.
fn run(mode: FanoutMode) -> (f64, f64) {
    let opts = BuildOpts {
        hostlo_fanout: mode,
        ..BuildOpts::default()
    };
    let np = Netperf {
        duration: SimDuration::millis(300),
        warmup: SimDuration::ZERO,
        ..Netperf::with_size(1024)
    };
    let run = np.udp_rr_on(build_with(Config::Hostlo, 4, &opts));
    let lat = run.latency_us.unwrap();
    let copies = run
        .testbed
        .vmm
        .network()
        .store()
        .counter("hostlo.queue_copies");
    (lat.mean, copies / lat.count as f64)
}

fn main() {
    let mut fig = Figure::new(
        "ablation_hostlo_fanout",
        "Hostlo TAP fan-out: broadcast vs unicast",
    );
    for (label, mode) in [
        ("broadcast (paper)", FanoutMode::AllQueues),
        ("exclude ingress", FanoutMode::ExcludeIngress),
    ] {
        let (lat, copies_per_txn) = run(mode);
        fig.push_row(format!("{label}: RR latency"), lat, "us");
        fig.push_row(
            format!("{label}: TAP copies per transaction"),
            copies_per_txn,
            "copies",
        );
    }
    fig.finish();
}
