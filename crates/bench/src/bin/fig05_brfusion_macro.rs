//! Figures 5, 6 and 7 (+ Table 1): BrFusion macro-benchmarks —
//! Memcached, NGINX, Kafka under NAT / BrFusion / NoCont — and the CPU
//! breakdowns of the same Kafka and NGINX runs.
//!
//! Fig. 5: "For Kafka, BrFusion improves average request latency by 11.8%
//! over NAT, which is 13.1% higher than NoCont. [...] For NGINX, BrFusion
//! improves average request latency by 30.1% over NAT, but this is 120.3%
//! slower than NoCont."
//!
//! Fig. 6: "BrFusion reduces the CPU time spent serving software
//! interrupts by 67.0% compared to NAT [...] NAT rules are applied on
//! packets via hooks executed by software interrupts, and BrFusion simply
//! removes the execution of these hooks."
//!
//! Fig. 7: "Similar observations of higher magnitude can be done for
//! NGINX" — BrFusion removes the guest softirq work of the Netfilter
//! hooks.

use nestless::topology::Config;
use nestless_bench::{Claim, Figure};
use workloads::{
    run_kafka, run_memcached, run_nginx, KafkaParams, MacroResult, MemtierParams, Wrk2Params,
};

/// Figs. 6/7: the server VM's CPU breakdown of each run and BrFusion's
/// softirq cut. `runs` are NAT, BrFusion, NoCont; `vhost` adds the
/// host's `sys` row.
fn cpu_breakdown(id: &str, title: &str, runs: &[MacroResult], vhost: bool) -> Figure {
    let mut fig = Figure::new(id, title);
    let vm = |r: &MacroResult| r.cpu_server_vm.expect("server in VM");
    for r in runs {
        let (c, vm) = (r.config, vm(r));
        fig.push_row(format!("{c:?} VM usr"), vm.usr, "cores");
        fig.push_row(format!("{c:?} VM sys"), vm.sys, "cores");
        fig.push_row(format!("{c:?} VM soft"), vm.soft, "cores");
        fig.push_row(format!("{c:?} VM total"), vm.total(), "cores");
        fig.push_row(format!("{c:?} host guest"), r.cpu_host.guest, "cores");
        if vhost {
            fig.push_row(format!("{c:?} host sys (vhost)"), r.cpu_host.sys, "cores");
        }
    }
    fig.push_claim(Claim::new(
        "BrFusion softirq CPU reduction vs NAT (in VM)",
        67.0,
        (1.0 - vm(&runs[1]).soft / vm(&runs[0]).soft) * 100.0,
        "%",
    ));
    fig
}

fn main() {
    let configs = [Config::Nat, Config::BrFusion, Config::NoCont];
    let mut fig = Figure::new("fig05", "Macro-benchmarks under NAT / BrFusion / NoCont");

    // Table 1 echo.
    let mt = MemtierParams::paper();
    let wk = Wrk2Params::paper();
    let kf = KafkaParams::paper();
    println!(
        "Table 1: Memcached memtier {} thr x {} conn SET:GET {}:{}",
        mt.threads, mt.conns_per_thread, mt.set_weight, mt.get_weight
    );
    println!(
        "Table 1: NGINX wrk2 {} thr, {} conn, {} req/s on {} B file",
        wk.threads, wk.connections, wk.rate_per_s, wk.file_size
    );
    println!(
        "Table 1: Kafka {} msg/s, {} B messages, batch {} B",
        kf.msgs_per_s, kf.msg_size, kf.batch_size
    );

    let mut runs = |label: &str, f: &dyn Fn(Config, u64) -> MacroResult| {
        let mut out = Vec::new();
        for (i, &c) in configs.iter().enumerate() {
            let r = f(c, 100 + i as u64);
            fig.push_row(format!("{label} {:?} latency", c), r.latency_us.mean, "us");
            fig.push_row(
                format!("{label} {:?} throughput", c),
                r.throughput_per_s,
                "/s",
            );
            fig.push_row(
                format!("{label} {:?} latency stddev", c),
                r.latency_us.stddev,
                "us",
            );
            out.push(r);
        }
        out // [nat, brfusion, nocont]
    };

    runs("memcached", &|c, s| run_memcached(mt, c, s));
    let nginx = runs("nginx", &|c, s| run_nginx(wk, c, s));
    let kafka = runs("kafka", &|c, s| run_kafka(kf, c, s));
    let n = |i: usize| nginx[i].latency_us.mean;
    let k = |i: usize| kafka[i].latency_us.mean;

    fig.push_claim(Claim::new(
        "Kafka: BrFusion latency improvement over NAT",
        11.8,
        (1.0 - k(1) / k(0)) * 100.0,
        "%",
    ));
    fig.push_claim(Claim::new(
        "Kafka: BrFusion above NoCont",
        13.1,
        (k(1) / k(2) - 1.0) * 100.0,
        "%",
    ));
    fig.push_claim(Claim::new(
        "NGINX: BrFusion latency improvement over NAT",
        30.1,
        (1.0 - n(1) / n(0)) * 100.0,
        "%",
    ));
    fig.push_claim(Claim::new(
        "NGINX: BrFusion above NoCont",
        120.3,
        (n(1) / n(2) - 1.0) * 100.0,
        "%",
    ));
    fig.finish();

    let title = "CPU usage breakdown, Kafka (usr/sys/soft/guest)";
    cpu_breakdown("fig06", title, &kafka, true).finish();
    let title = "CPU usage breakdown, NGINX (usr/sys/soft/guest)";
    cpu_breakdown("fig07", title, &nginx, false).finish();
}
