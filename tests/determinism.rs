//! Determinism guarantees across the whole stack: a given (topology,
//! workload, seed) triple must reproduce bit-identical results — including
//! under rayon-parallel sweeps — and different seeds must actually differ.

use cloudsim::{simulate, synthetic_trace};
use contd::BootPipeline;
use nestless::topology::Config;
use nestless_bench::{Mode, Sweep};
use simnet::SimDuration;
use simnet::StopCondition;
use workloads::netperf::Netperf;
use workloads::{run_memcached, MemtierParams};

fn quick_np() -> Netperf {
    Netperf {
        msg_size: 1024,
        duration: SimDuration::millis(100),
        warmup: SimDuration::millis(20),
        window: 64,
    }
}

#[test]
fn netperf_is_bit_identical_per_seed() {
    for config in Config::ALL {
        let a = quick_np().udp_rr(config, 99).latency_us.unwrap();
        let b = quick_np().udp_rr(config, 99).latency_us.unwrap();
        assert_eq!(a, b, "{config:?} UDP_RR not reproducible");
        let a = quick_np().tcp_stream(config, 99).throughput_mbps.unwrap();
        let b = quick_np().tcp_stream(config, 99).throughput_mbps.unwrap();
        assert_eq!(a, b, "{config:?} TCP_STREAM not reproducible");
    }
}

#[test]
fn different_seeds_differ() {
    let a = quick_np().udp_rr(Config::Nat, 1).latency_us.unwrap();
    let b = quick_np().udp_rr(Config::Nat, 2).latency_us.unwrap();
    assert_ne!(a.mean, b.mean, "seeds must matter");
}

#[test]
fn parallel_sweep_equals_itself() {
    let sweep = Sweep {
        duration: SimDuration::millis(50),
        warmup: SimDuration::millis(10),
        seed: 5,
    };
    let a = sweep.run_all(&[Config::Nat, Config::Hostlo], Mode::Latency);
    let b = sweep.run_all(&[Config::Nat, Config::Hostlo], Mode::Latency);
    assert_eq!(a, b, "rayon parallelism must not leak nondeterminism");
}

#[test]
fn macro_benchmark_reproducible() {
    let params = MemtierParams {
        duration: SimDuration::millis(100),
        warmup: SimDuration::millis(20),
        ..MemtierParams::paper()
    };
    let a = run_memcached(params, Config::Hostlo, 7);
    let b = run_memcached(params, Config::Hostlo, 7);
    assert_eq!(a.latency_us, b.latency_us);
    assert_eq!(a.throughput_per_s, b.throughput_per_s);
}

#[test]
fn cost_simulation_reproducible() {
    let t = synthetic_trace(150, 11);
    assert_eq!(simulate(&t), simulate(&t));
    assert_eq!(t, synthetic_trace(150, 11));
}

/// A bridge network with lossy links, exercised twice with the same seed:
/// every sample series, every counter and the full event trace must come
/// out bit-identical. This pins down the interned store and pooled event
/// queue — slot recycling and id assignment must not leak into results.
#[test]
fn engine_store_and_trace_bit_identical() {
    use metrics::{CpuCategory, CpuLocation};
    use simnet::bridge::Bridge;
    use simnet::engine::{LinkParams, Network};
    use simnet::testutil::{frame_between, CaptureSink};
    use simnet::{MacAddr, PortId, SharedStation, StageCost};

    let run = |seed: u64| {
        let mut net = Network::new(seed);
        net.set_tracing(true);
        let br = net.add_device(
            "br0",
            CpuLocation::Host,
            Box::new(Bridge::new(
                3,
                StageCost::fixed(800, 0.2, CpuCategory::Sys),
                SharedStation::new(),
            )),
        );
        let s1 = net.add_device("s1", CpuLocation::Host, Box::new(CaptureSink::new("s1")));
        let s2 = net.add_device("s2", CpuLocation::Host, Box::new(CaptureSink::new("s2")));
        let lossy = LinkParams::with_latency(SimDuration::nanos(300)).with_loss(0.3);
        net.connect(br, PortId(1), s1, PortId(0), lossy);
        net.connect(br, PortId(2), s2, PortId(0), lossy);
        for i in 0..200u64 {
            let (src, dst) = if i % 2 == 0 {
                (MacAddr::local(1), MacAddr::local(2))
            } else {
                (MacAddr::local(2), MacAddr::local(1))
            };
            net.inject_frame(
                SimDuration::nanos(i * 50),
                br,
                PortId(usize::try_from(i % 2).unwrap()),
                frame_between(src, dst, 200),
            );
        }
        net.run(StopCondition::Idle);
        let samples: Vec<(String, Vec<f64>)> = net
            .store()
            .sample_names()
            .map(|n| (n.to_string(), net.store().samples(n).to_vec()))
            .collect();
        let counters: Vec<f64> = ["s1.received", "s2.received", "link.lost", "bridge.flooded"]
            .iter()
            .map(|n| net.store().counter(n))
            .collect();
        let trace: Vec<_> = net.trace().to_vec();
        (samples, counters, trace, net.events_processed())
    };

    let a = run(17);
    let b = run(17);
    assert_eq!(a.0, b.0, "sample series must be bit-identical");
    assert_eq!(a.1, b.1, "counters must be bit-identical");
    assert_eq!(a.2, b.2, "event trace must be bit-identical");
    assert_eq!(a.3, b.3);
    assert!(a.1[2] > 0.0, "loss must actually trigger in this scenario");
    assert_ne!(run(18).1, a.1, "a different seed must lose differently");
}

/// The sharded engine produces bit-identical samples, counters, events
/// and CPU at 1, 2, 4 and 8 shards.
#[test]
fn sharded_engine_matches_sequential_at_every_shard_count() {
    use simnet::engine::Network;
    use simnet::testutil::{build_multihost, MultihostSpec};
    use simnet::{SimConfig, SimTime};
    use std::collections::BTreeMap;

    let spec = MultihostSpec {
        hosts: 4,
        local_flows: 2,
        loss: 0.05,
        ..MultihostSpec::default()
    };
    let build = || {
        let mut net = Network::new(0xD15C);
        build_multihost(&mut net, &spec);
        net
    };
    let snapshot = |store: &simnet::SampleStore| {
        let samples: BTreeMap<String, Vec<f64>> = store
            .sample_names()
            .map(|n| (n.to_string(), store.samples(n).to_vec()))
            .collect();
        let counters: BTreeMap<String, f64> = store
            .counter_names()
            .map(|n| (n.to_string(), store.counter(n)))
            .collect();
        (samples, counters)
    };

    let mut seq = build();
    seq.run(StopCondition::Until(SimTime(1_000_000)));
    let expected = snapshot(seq.store());

    for n in [1, 2, 4, 8] {
        let mut sn = SimConfig::new().shards(n).build(build());
        sn.run(StopCondition::Until(SimTime(1_000_000)));
        // The partitioner caps the request at the island count.
        assert_eq!(
            sn.nshards(),
            n.min(5),
            "4 host islands + core = 5 max shards"
        );
        let report = sn.into_report();
        assert_eq!(
            snapshot(&report.store),
            expected,
            "{n}-shard run diverged from sequential"
        );
        assert_eq!(
            seq.events_processed(),
            report.events_processed,
            "{n} shards"
        );
        assert_eq!(seq.cpu(), &report.cpu, "{n} shards");
    }
}

#[test]
fn boot_model_reproducible() {
    assert_eq!(
        BootPipeline::brfusion().run(50, 3),
        BootPipeline::brfusion().run(50, 3)
    );
}

#[test]
fn cpu_accounting_reproducible() {
    let a = quick_np().tcp_stream(Config::Nat, 13);
    let b = quick_np().tcp_stream(Config::Nat, 13);
    assert_eq!(
        a.testbed.vmm.network().cpu().total(),
        b.testbed.vmm.network().cpu().total()
    );
    assert_eq!(
        a.testbed.vmm.network().events_processed(),
        b.testbed.vmm.network().events_processed()
    );
}
