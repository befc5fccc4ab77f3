//! Satellite contract for the hybrid fast path: a steady flow must be
//! analytically modeled (synthesized deliveries, promotion counters), a
//! `FaultPlan` link flap overlapping its learned path mid-run must force
//! it back to packet level (escalation + packet-level fault accounting),
//! and the whole faulted hybrid run must stay bit-identical at 1, 2 and 8
//! shards, configured through [`SimConfig`].

use metrics::CpuAccount;
use nestless_simnet::device::{DeviceId, PortId};
use nestless_simnet::engine::{Network, SampleStore};
use nestless_simnet::testutil::{build_multihost, frame_between, MultihostSpec};
use nestless_simnet::time::{SimDuration, SimTime};
use nestless_simnet::{FaultPlan, Fidelity, MacAddr, SimConfig, StopCondition};
use std::collections::BTreeMap;

const SEED: u64 = 0xF1D0;
const HORIZON: SimTime = SimTime(3_000_000);

fn spec() -> MultihostSpec {
    MultihostSpec {
        hosts: 4,
        local_flows: 2,
        payload_len: 200,
        uplink_latency: SimDuration::micros(20),
        // Lossless: a lossy hop marks probes `ok = false` and the flow
        // would (correctly) never be modeled — this test wants steady
        // flows that DO promote and are then knocked down by the flap.
        loss: 0.0,
        jitter: 0.05,
    }
}

/// `build_multihost` creation order with `local_flows = 2`: core is
/// device 0, then per host `br, f0.a, f0.b, f1.a, f1.b, x` — so host 0's
/// first bouncer pair is devices 2 (a, MAC 1) and 3 (b, MAC 2).
const H0_F0_A: DeviceId = DeviceId(2);
const H0_F0_B: DeviceId = DeviceId(3);

fn mac_a() -> MacAddr {
    MacAddr::local(1)
}

fn mac_b() -> MacAddr {
    MacAddr::local(2)
}

/// Two hard-down windows on the `a → bridge` direction of host 0's first
/// ping-pong pair, starting at 1 ms: by then the pair's flows are long
/// steady, so the flap lands squarely on a modeled path.
fn flap_plan() -> FaultPlan {
    FaultPlan::new().link_flap(
        H0_F0_A,
        PortId::P0,
        SimTime(1_000_000),
        SimDuration::micros(100),
        SimDuration::micros(100),
        2,
    )
}

/// Builds the scenario plus re-kick injections: a frame dropped by the
/// down window kills a ping-pong chain, so fresh frames re-start the
/// faulted pair at fixed times (deterministic, shard-independent) and
/// let the flow re-learn between and after the down windows.
fn build() -> Network {
    let mut net = Network::new(SEED);
    build_multihost(&mut net, &spec());
    for k in 0..10u64 {
        net.inject_frame(
            SimDuration::nanos(1_050_000 + k * 200_000),
            H0_F0_B,
            PortId::P0,
            frame_between(mac_a(), mac_b(), 200),
        );
    }
    net
}

struct Outcome {
    samples: BTreeMap<String, Vec<f64>>,
    counters: BTreeMap<String, f64>,
    cpu: CpuAccount,
    events: u64,
    now: SimTime,
}

fn snapshot(store: &SampleStore) -> (BTreeMap<String, Vec<f64>>, BTreeMap<String, f64>) {
    let samples = store
        .sample_names()
        .map(|n| (n.to_string(), store.samples(n).to_vec()))
        .collect();
    let counters = store
        .counter_names()
        .map(|n| (n.to_string(), store.counter(n)))
        .collect();
    (samples, counters)
}

fn run_hybrid(shards: usize) -> (usize, Outcome) {
    let mut sn = SimConfig::new()
        .shards(shards)
        .fidelity(Fidelity::Hybrid)
        .fault(flap_plan())
        .build(build());
    sn.run(StopCondition::Until(HORIZON));
    let nshards = sn.nshards();
    let report = sn.into_report();
    let (samples, counters) = snapshot(&report.store);
    (
        nshards,
        Outcome {
            samples,
            counters,
            cpu: report.cpu,
            events: report.events_processed,
            now: report.now,
        },
    )
}

#[test]
fn flap_escalates_modeled_flow_bit_identically_across_shards() {
    let (_, base) = run_hybrid(1);

    // The flow was analytically modeled: promotions happened and real
    // frames were synthesized instead of simulated hop by hop.
    let c = |name: &str| base.counters.get(name).copied().unwrap_or(0.0);
    assert!(
        c("flow.steady_promotions") >= 1.0,
        "at least one flow must promote to the fast path, got {}",
        c("flow.steady_promotions")
    );
    assert!(
        c("flow.fastpath_frames") > 0.0,
        "promoted flows must synthesize deliveries"
    );
    assert!(c("flow.probes") > 0.0, "learning/revalidation probes ran");
    assert!(c("flow.adverts") > 0.0, "delivered probes advertised back");

    // The flap forced the modeled flow back to packet level…
    assert!(
        c("flow.escalations") >= 1.0,
        "fault window overlapping a learned hop must escalate"
    );
    // …and the packet-level machinery then applied the fault for real:
    // synthesized frames never touch links, so this counter can only be
    // charged by hop-by-hop frames hitting the down window.
    assert!(
        c("fault.link_down") >= 1.0,
        "escalated frames must be dropped by the down window at packet level"
    );

    // After the flap the re-kicked pair re-learns and re-promotes.
    assert!(
        c("flow.steady_promotions") >= 2.0,
        "flow must re-promote once the flap window has passed, got {}",
        c("flow.steady_promotions")
    );

    assert!(base.events > 10_000, "scenario generates real load");
    assert_eq!(base.now, HORIZON, "run reaches the horizon");

    // Bit-identical across shard counts, faults and fast path included.
    for want in [2usize, 8] {
        let (nshards, out) = run_hybrid(want);
        assert!(
            nshards > 1,
            "≥4-host topology must actually shard at want={want}"
        );
        let label = format!("hybrid, {want} shards (got {nshards})");
        assert_eq!(base.events, out.events, "{label}: events processed");
        assert_eq!(base.now, out.now, "{label}: final clock");
        assert_eq!(base.cpu, out.cpu, "{label}: CPU account");
        assert_eq!(
            base.counters, out.counters,
            "{label}: counters differ (bit-exact f64 compare)"
        );
        assert_eq!(
            base.samples.keys().collect::<Vec<_>>(),
            out.samples.keys().collect::<Vec<_>>(),
            "{label}: sample series sets"
        );
        for (name, vals) in &base.samples {
            assert_eq!(vals, &out.samples[name], "{label}: samples of {name}");
        }
    }
}

#[test]
fn packet_fidelity_never_touches_the_flow_table() {
    let mut sn = SimConfig::new()
        .shards(1)
        .fidelity(Fidelity::Packet)
        .fault(flap_plan())
        .build(build());
    sn.run(StopCondition::Until(HORIZON));
    let report = sn.into_report();
    assert_eq!(report.store.counter("flow.fastpath_frames"), 0.0);
    assert_eq!(report.store.counter("flow.probes"), 0.0);
    assert_eq!(report.store.counter("flow.steady_promotions"), 0.0);
}
