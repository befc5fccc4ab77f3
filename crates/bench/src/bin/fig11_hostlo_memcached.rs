//! Figures 11, 12 and 14: Hostlo macro overhead — Memcached throughput
//! and latency under Hostlo / NAT / Overlay / SameNode, the latency
//! variability of the same runs, and their CPU usage.
//!
//! Fig. 11: "For Memcached, Hostlo unexpectedly reaches the throughput and
//! latency levels of SameNode."
//!
//! Fig. 12: "This is linked to SameNode showing extreme variability in its
//! latencies. To the opposite, queries over Hostlo report stable latency."
//! SameNode's single VM runs client, server and loopback on one guest
//! kernel; under 200 closed-loop connections that shared station saturates
//! and its latencies swing wildly, while Hostlo spreads the two fractions
//! over two VMs.
//!
//! Fig. 14: "The main increase due to Hostlo is the kernel CPU usage of
//! the client and the server [...] From the host, the CPU time given to
//! the guests is increased [...] some CPU time is used by the host kernel
//! on behalf of the VMs [Vhost]."

use nestless::topology::Config;
use nestless_bench::{Claim, Figure};
use workloads::{run_memcached, MemtierParams};

fn main() {
    // indexes: 0 = Hostlo, 1 = NAT, 2 = Overlay, 3 = SameNode.
    let configs = [
        Config::Hostlo,
        Config::NatCross,
        Config::Overlay,
        Config::SameNode,
    ];
    let runs: Vec<_> = configs
        .iter()
        .enumerate()
        .map(|(i, &c)| run_memcached(MemtierParams::paper(), c, 110 + i as u64))
        .collect();

    let mut fig = Figure::new("fig11", "Memcached under Hostlo / NAT / Overlay / SameNode");
    for r in &runs {
        let c = r.config;
        fig.push_row(format!("{c:?} responses/s"), r.throughput_per_s, "/s");
        fig.push_row(format!("{c:?} latency"), r.latency_us.mean, "us");
        fig.push_row(format!("{c:?} latency stddev"), r.latency_us.stddev, "us");
    }
    let lat = |i: usize| runs[i].latency_us.mean;
    fig.push_claim(Claim::new(
        "Hostlo/SameNode throughput",
        1.0,
        runs[0].throughput_per_s / runs[3].throughput_per_s,
        "x",
    ));
    fig.push_claim(Claim::new(
        "Hostlo beats NAT (latency ratio NAT/Hostlo)",
        2.0,
        lat(1) / lat(0),
        "x",
    ));
    fig.push_claim(Claim::new(
        "Hostlo beats Overlay (latency ratio Overlay/Hostlo)",
        2.0,
        lat(2) / lat(0),
        "x",
    ));
    fig.finish();

    let mut fig = Figure::new(
        "fig12",
        "Memcached latency variability (coefficient of variation)",
    );
    for r in &runs {
        let c = r.config;
        fig.push_row(format!("{c:?} latency cv"), r.latency_us.cv(), "frac");
        fig.push_row(format!("{c:?} latency min"), r.latency_us.min, "us");
        fig.push_row(format!("{c:?} latency max"), r.latency_us.max, "us");
    }
    fig.push_claim(Claim::new(
        "Hostlo latency is the most stable (cv(Hostlo) < cv(SameNode))",
        1.0,
        f64::from(runs[0].latency_us.cv() < runs[3].latency_us.cv()),
        "bool",
    ));
    fig.finish();

    let mut fig = Figure::new("fig14", "CPU usage, Memcached (guests + host view)");
    for r in &runs {
        let c = r.config;
        let mut total_vm = 0.0;
        if let Some(vm) = r.cpu_server_vm {
            fig.push_row(format!("{c:?} server VM total"), vm.total(), "cores");
            total_vm += vm.total();
        }
        if let Some(vm) = r.cpu_client_vm {
            fig.push_row(format!("{c:?} client VM total"), vm.total(), "cores");
            total_vm += vm.total();
        }
        fig.push_row(format!("{c:?} guests total"), total_vm, "cores");
        fig.push_row(format!("{c:?} host guest"), r.cpu_host.guest, "cores");
        fig.push_row(
            format!("{c:?} host sys (vhost+hostlo)"),
            r.cpu_host.sys,
            "cores",
        );
    }
    let host = |i: usize| runs[i].cpu_host;
    // Hostlo vs SameNode guest CPU increase (paper: +89.8%, two VMs vs one).
    fig.push_claim(Claim::new(
        "Hostlo guest CPU increase vs SameNode",
        89.8,
        (host(0).guest / host(3).guest - 1.0) * 100.0,
        "%",
    ));
    // Host kernel work on behalf of VMs similar across Hostlo/NAT/Overlay.
    fig.push_claim(Claim::new(
        "host-kernel CPU: Hostlo vs NAT ratio",
        1.0,
        host(0).sys / host(1).sys,
        "x",
    ));
    fig.finish();
}
