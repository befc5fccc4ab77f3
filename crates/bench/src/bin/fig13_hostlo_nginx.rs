//! Figures 13 and 15: NGINX latency under Hostlo / NAT / Overlay /
//! SameNode, and the CPU usage of the same runs.
//!
//! Fig. 13: "Hostlo shows 49.4% higher latency than SameNode, but performs
//! much better than NAT and Overlay." (Hostlo vs Overlay: "up to 30%
//! higher throughput and 92% lower latency.")
//!
//! Fig. 15: "For NGINX, the CPU increases of Hostlo compared to SameNode
//! are much smaller: client and server CPU usage increases by 17.1%, and
//! guest CPU usage increases by 36.9%."

use nestless::topology::Config;
use nestless_bench::{Claim, Figure};
use workloads::{run_nginx, Wrk2Params};

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
        .map(|(i, &c)| run_nginx(Wrk2Params::paper(), c, 130 + i as u64))
        .collect();

    let mut fig = Figure::new("fig13", "NGINX under Hostlo / NAT / Overlay / SameNode");
    for r in &runs {
        let c = r.config;
        fig.push_row(format!("{c:?} latency"), r.latency_us.mean, "us");
        fig.push_row(format!("{c:?} latency stddev"), r.latency_us.stddev, "us");
        let (p50, p95, p99) = r.latency_percentiles_us;
        fig.push_row(format!("{c:?} latency p50"), p50, "us");
        fig.push_row(format!("{c:?} latency p95"), p95, "us");
        fig.push_row(format!("{c:?} latency p99"), p99, "us");
        fig.push_row(format!("{c:?} responses/s"), r.throughput_per_s, "/s");
    }
    let lat = |i: usize| runs[i].latency_us.mean;
    fig.push_claim(Claim::new(
        "Hostlo above SameNode",
        49.4,
        (lat(0) / lat(3) - 1.0) * 100.0,
        "%",
    ));
    fig.push_claim(Claim::new(
        "Hostlo latency below Overlay",
        92.0,
        (1.0 - lat(0) / lat(2)) * 100.0,
        "%",
    ));
    fig.push_claim(Claim::new(
        "Hostlo latency below NAT",
        80.0,
        (1.0 - lat(0) / lat(1)) * 100.0,
        "%",
    ));
    fig.finish();

    let mut fig = Figure::new("fig15", "CPU usage, NGINX (guests + host view)");
    for r in &runs {
        let c = r.config;
        if let Some(vm) = r.cpu_server_vm {
            fig.push_row(format!("{c:?} server VM total"), vm.total(), "cores");
        }
        if let Some(vm) = r.cpu_client_vm {
            fig.push_row(format!("{c:?} client VM total"), vm.total(), "cores");
        }
        fig.push_row(format!("{c:?} host guest"), r.cpu_host.guest, "cores");
        fig.push_row(format!("{c:?} host sys"), r.cpu_host.sys, "cores");
    }
    fig.push_claim(Claim::new(
        "Hostlo guest CPU increase vs SameNode",
        36.9,
        (runs[0].cpu_host.guest / runs[3].cpu_host.guest - 1.0) * 100.0,
        "%",
    ));
    fig.finish();
}
