//! Ablation 2: vhost (host-kernel backend) vs QEMU userspace emulation.
//!
//! §5.1 uses vhost; this ablation inflates the backend costs to a
//! userspace-QEMU-like profile (extra copies and exits) to show why the
//! evaluation setup matters. Both backends are measured with one Netperf
//! setting, so the gain row divides like by like.

use nestless::topology::{build_with, BuildOpts, Config};
use nestless_bench::Figure;
use simnet::SimDuration;
use workloads::netperf::Netperf;

fn main() {
    let mut fig = Figure::new(
        "ablation_vhost",
        "vhost backend vs QEMU userspace emulation",
    );
    let np = Netperf {
        duration: SimDuration::millis(400),
        ..Netperf::with_size(1280)
    };

    let vhost = np.tcp_stream(Config::NoCont, 5).throughput_mbps.unwrap();
    let vhost_lat = np.udp_rr(Config::NoCont, 5).latency_us.unwrap();
    fig.push_row("vhost throughput @1280B", vhost.mean, "Mbit/s");
    fig.push_row("vhost latency @1280B", vhost_lat.mean, "us");

    // Userspace emulation: every frame exits to QEMU (2.4x fixed cost,
    // 1.8x per-byte for the extra copy).
    let mut opts = BuildOpts::default();
    opts.costs.vhost.fixed_ns = (opts.costs.vhost.fixed_ns as f64 * 2.4) as u64;
    opts.costs.vhost.per_byte_ns *= 1.8;
    let user = np
        .tcp_stream_on(build_with(Config::NoCont, 5, &opts))
        .throughput_mbps
        .unwrap();
    let user_lat = np
        .udp_rr_on(build_with(Config::NoCont, 5, &opts))
        .latency_us
        .unwrap();
    fig.push_row("userspace throughput @1280B", user.mean, "Mbit/s");
    fig.push_row("userspace latency @1280B", user_lat.mean, "us");
    fig.push_row("vhost throughput gain", vhost.mean / user.mean, "x");
    fig.finish();
}
