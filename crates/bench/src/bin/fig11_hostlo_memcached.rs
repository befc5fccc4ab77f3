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
use nestless_bench::{Check, Claim, Figure};
use rayon::prelude::*;
use workloads::{run_memcached, MemtierParams};

fn main() {
    // indexes: 0 = Hostlo, 1 = NAT, 2 = Overlay, 3 = SameNode.
    let configs = [
        Config::Hostlo,
        Config::NatCross,
        Config::Overlay,
        Config::SameNode,
    ];
    let cells: Vec<(u64, Config)> = (110..).zip(configs).collect();
    let runs: Vec<_> = cells
        .par_iter()
        .map(|&(seed, c)| run_memcached(MemtierParams::paper(), c, seed))
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
        Check::Above(0.75),
    ));
    fig.push_claim(Claim::new(
        "Hostlo beats NAT (latency ratio NAT/Hostlo)",
        2.0,
        lat(1) / lat(0),
        "x",
        Check::Above(1.0),
    ));
    fig.push_claim(Claim::new(
        "Hostlo beats Overlay (latency ratio Overlay/Hostlo)",
        2.0,
        lat(2) / lat(0),
        "x",
        Check::Above(1.0),
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
        "Hostlo/SameNode latency cv",
        1.0,
        runs[0].latency_us.cv() / runs[3].latency_us.cv(),
        "x",
        Check::Below(1.0),
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
        Check::Above(0.0),
    ));
    // Host kernel work on behalf of VMs similar across Hostlo/NAT/Overlay.
    fig.push_claim(
        Claim::new(
            "host-kernel CPU: Hostlo vs NAT ratio",
            1.0,
            host(0).sys / host(1).sys,
            "x",
            Check::Within(0.5, 2.0),
        )
        .deviation(
            "our TAP's copy work lands in host sys and our NAT path pushes less traffic; \
             the paper flags the hostlo module's host-attributed time as mis-attribution (§5.3.4)",
        ),
    );
    fig.finish();
}
