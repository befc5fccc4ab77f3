//! Ablation 3: virtio notification suppression on the VM's primary NIC.
//!
//! Suppression (kick only on the idle->busy transition) is what buys the
//! bridged paths their streaming throughput. Turning it off makes every
//! frame pay the notification: streaming throughput falls while the
//! closed-loop latency does not move.

use nestless::topology::{build_with, BuildOpts, Config};
use nestless_bench::Figure;
use simnet::SimDuration;
use workloads::netperf::Netperf;

fn main() {
    let mut fig = Figure::new(
        "ablation_batching",
        "Notification suppression on the primary NIC (NoCont path)",
    );
    let stream = Netperf {
        duration: SimDuration::millis(400),
        warmup: SimDuration::ZERO,
        ..Netperf::with_size(1280)
    };
    let rr = Netperf {
        duration: SimDuration::millis(300),
        ..stream
    };
    for (label, on) in [("suppression on", true), ("suppression off", false)] {
        let opts = BuildOpts {
            suppression_primary: on,
            ..BuildOpts::default()
        };
        let tput = stream.tcp_stream_on(build_with(Config::NoCont, 9, &opts));
        let lat = rr.udp_rr_on(build_with(Config::NoCont, 9, &opts));
        fig.push_row(
            format!("{label}: throughput"),
            tput.throughput_mbps.unwrap().mean,
            "Mbit/s",
        );
        fig.push_row(
            format!("{label}: latency"),
            lat.latency_us.unwrap().mean,
            "us",
        );
    }
    fig.finish();
}
