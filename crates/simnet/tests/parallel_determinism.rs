//! The sharded-engine determinism contract: for any shard count a run is
//! bit-identical to the sequential engine — sample-for-sample,
//! counter-for-counter, trace-for-trace, export-for-export — on a ≥4-host
//! topology with jitter and frame loss enabled.

use metrics::{
    CpuAccount, CpuCategory, CpuLocation, SpanId, SpanRecord, StageAgg, StageTable,
    TelemetryConfig, TraceConfig,
};
use nestless_simnet::addr::MacAddr;
use nestless_simnet::bridge::Bridge;
use nestless_simnet::costs::StageCost;
use nestless_simnet::device::{DeviceId, PortId};
use nestless_simnet::engine::{LinkParams, Network, SampleStore, TraceEntry};
use nestless_simnet::shared::SharedStation;
use nestless_simnet::testutil::{build_multihost, frame_between, MacBouncer, MultihostSpec};
use nestless_simnet::time::{SimDuration, SimTime};
use nestless_simnet::{
    chrome_trace_report, snapshot_report, telemetry_report, FaultPlan, LinkFault, LinkFaultKind,
    RunReport, ShardedNetwork, StallWindow, SyncStats,
};
use nestless_simnet::{SimConfig, StopCondition};
use std::collections::BTreeMap;

const SEED: u64 = 0xC0FFEE;

fn spec() -> MultihostSpec {
    MultihostSpec {
        hosts: 4,
        local_flows: 3,
        payload_len: 200,
        uplink_latency: SimDuration::micros(20),
        loss: 0.02,
        jitter: 0.08,
    }
}

fn build() -> Network {
    let mut net = Network::new(SEED);
    build_multihost(&mut net, &spec());
    net.set_tracing(true);
    net.set_trace_config(TraceConfig::full());
    net
}

/// Store contents keyed by name, so enumeration order (which is
/// documented as unspecified for merged stores) does not matter.
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

/// A span with its stage id resolved to a name, so the (unobservable)
/// interner enumeration order of a merged store cannot leak into the
/// comparison. Everything else is compared bit for bit.
type NamedSpan = (u64, SpanId, SpanId, String, u32, u64, u64, u64);

fn named_spans(spans: &[SpanRecord], store: &SampleStore) -> Vec<NamedSpan> {
    spans
        .iter()
        .map(|r| {
            (
                r.trace,
                r.span,
                r.parent,
                store.name_of(r.stage).to_string(),
                r.dev,
                r.enter,
                r.exit,
                r.cpu_ns,
            )
        })
        .collect()
}

fn named_stages(table: &StageTable, store: &SampleStore) -> BTreeMap<String, StageAgg> {
    table
        .iter()
        .map(|(id, agg)| (store.name_of(id).to_string(), agg.clone()))
        .collect()
}

struct Outcome {
    samples: BTreeMap<String, Vec<f64>>,
    counters: BTreeMap<String, f64>,
    cpu: CpuAccount,
    trace: Vec<TraceEntry>,
    trace_dropped: u64,
    spans: Vec<NamedSpan>,
    spans_emitted: u64,
    spans_dropped: u64,
    stages: BTreeMap<String, StageAgg>,
    events: u64,
    dropped: u64,
    now: SimTime,
}

/// Snapshot of a finished run, sequential (`Network::take_report`) or
/// sharded (`ShardedNetwork::into_report`).
fn outcome(report: RunReport) -> Outcome {
    let (samples, counters) = snapshot(&report.store);
    Outcome {
        samples,
        counters,
        cpu: report.cpu,
        trace_dropped: report.trace_dropped,
        spans: named_spans(&report.spans, &report.store),
        spans_emitted: report.spans_emitted,
        spans_dropped: report.spans_dropped,
        stages: named_stages(&report.stages, &report.store),
        trace: report.trace,
        events: report.events_processed,
        dropped: report.dropped_no_link,
        now: report.now,
    }
}

fn sequential() -> Outcome {
    let mut net = build();
    net.run(StopCondition::Until(SimTime(2_000_000)));
    outcome(net.take_report())
}

fn sharded(want: usize) -> (usize, SyncStats, Outcome) {
    let mut sn = ShardedNetwork::new(build(), want);
    sn.run(StopCondition::Until(SimTime(2_000_000)));
    let nshards = sn.nshards();
    let stats = sn.sync_stats();
    (nshards, stats, outcome(sn.into_report()))
}

fn assert_identical(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.events, b.events, "{label}: events processed");
    assert_eq!(a.dropped, b.dropped, "{label}: dropped frames");
    assert_eq!(a.now, b.now, "{label}: final clock");
    assert_eq!(a.cpu, b.cpu, "{label}: CPU account");
    assert_eq!(
        a.counters, b.counters,
        "{label}: counters differ (bit-exact f64 compare)"
    );
    assert_eq!(
        a.samples.keys().collect::<Vec<_>>(),
        b.samples.keys().collect::<Vec<_>>(),
        "{label}: sample series sets"
    );
    for (name, vals) in &a.samples {
        assert_eq!(vals, &b.samples[name], "{label}: samples of {name}");
    }
    assert_eq!(a.trace.len(), b.trace.len(), "{label}: trace length");
    assert_eq!(a.trace, b.trace, "{label}: trace entries");
    assert_eq!(a.trace_dropped, b.trace_dropped, "{label}: trace drops");
    assert_eq!(a.spans.len(), b.spans.len(), "{label}: span count");
    assert_eq!(a.spans, b.spans, "{label}: span records");
    assert_eq!(a.spans_emitted, b.spans_emitted, "{label}: spans emitted");
    assert_eq!(a.spans_dropped, b.spans_dropped, "{label}: spans dropped");
    assert_eq!(a.stages, b.stages, "{label}: per-stage aggregates");
}

#[test]
fn sharded_runs_are_bit_identical_to_sequential() {
    let seq = sequential();
    assert!(seq.events > 10_000, "scenario generates real load");
    assert!(
        seq.counters.get("link.lost").copied().unwrap_or(0.0) > 0.0,
        "loss draws actually exercised"
    );
    assert!(seq.spans_emitted > 1_000, "flight recorder captured spans");
    assert!(!seq.stages.is_empty(), "stage table populated");
    for want in [1, 2, 8] {
        let (nshards, _, out) = sharded(want);
        if want == 1 {
            assert_eq!(nshards, 1);
        } else {
            assert!(nshards > 1, "≥4-host topology must actually shard");
        }
        assert_identical(&format!("{want} shards (got {nshards})"), &seq, &out);
    }
}

/// A seed-derived schedule exercising every fault kind on the multihost
/// uplinks: a flapping host-0 uplink (both directions), lossy/corrupting/
/// duplicating/reordering windows on the other uplinks, plus device stalls.
/// Device ids follow `build_multihost`'s creation order: core is device 0,
/// then each host contributes a bridge, `2 * local_flows` bouncers and a
/// cross bouncer; the uplink leaves each host bridge on its last port.
fn fault_plan(spec: &MultihostSpec) -> FaultPlan {
    let per_host = 2 + 2 * spec.local_flows;
    let host_bridge = |h: usize| DeviceId(1 + h * per_host);
    let uplink_port = PortId(2 * spec.local_flows + 1);
    FaultPlan::new()
        // Host-0 uplink flaps: 4 cable pulls of 100 us, 150 us apart.
        .link_flap(
            host_bridge(0),
            uplink_port,
            SimTime(200_000),
            SimDuration::micros(100),
            SimDuration::micros(150),
            4,
        )
        .link_flap(
            DeviceId(0),
            PortId(0),
            SimTime(200_000),
            SimDuration::micros(100),
            SimDuration::micros(150),
            4,
        )
        .link_fault(LinkFault {
            dev: host_bridge(1),
            port: uplink_port,
            from: SimTime(0),
            until: SimTime(2_000_000),
            kind: LinkFaultKind::Loss(0.2),
        })
        .link_fault(LinkFault {
            dev: DeviceId(0),
            port: PortId(1),
            from: SimTime(300_000),
            until: SimTime(1_500_000),
            kind: LinkFaultKind::Corrupt(0.15),
        })
        .link_fault(LinkFault {
            dev: host_bridge(2),
            port: uplink_port,
            from: SimTime(100_000),
            until: SimTime(1_800_000),
            kind: LinkFaultKind::Duplicate(0.3),
        })
        .link_fault(LinkFault {
            dev: DeviceId(0),
            port: PortId(2),
            from: SimTime(0),
            until: SimTime(2_000_000),
            kind: LinkFaultKind::Reorder {
                prob: 0.25,
                max_extra: SimDuration::micros(30),
            },
        })
        // Stalls land on host bridges: their local-flow forwarding emits
        // throughout the run, so the windows are guaranteed to catch
        // frames (cross-host chains die to loss early on).
        .stall(StallWindow {
            dev: host_bridge(3),
            from: SimTime(500_000),
            until: SimTime(900_000),
            extra: SimDuration::micros(20),
        })
        .stall(StallWindow {
            dev: host_bridge(1),
            from: SimTime(1_000_000),
            until: SimTime(1_100_000),
            extra: SimDuration::micros(5),
        })
}

fn build_faulted() -> Network {
    let mut net = build();
    net.install_fault_plan(fault_plan(&spec()));
    net
}

#[test]
fn faulted_runs_are_bit_identical_across_shard_counts_and_modes() {
    let mut seq_net = build_faulted();
    seq_net.run(StopCondition::Until(SimTime(2_000_000)));
    let seq = outcome(seq_net.take_report());
    // Every fault kind actually fired in the window.
    for name in [
        "fault.link_down",
        "fault.lost",
        "fault.corrupt",
        "fault.duplicated",
        "fault.reordered",
        "fault.stalled",
    ] {
        assert!(
            seq.counters.get(name).copied().unwrap_or(0.0) > 0.0,
            "{name} never fired; the plan does not exercise it"
        );
    }

    for want in [1, 2, 8] {
        let mut sn = ShardedNetwork::new(build_faulted(), want);
        sn.run(StopCondition::Until(SimTime(2_000_000)));
        let nshards = sn.nshards();
        if want > 1 {
            assert!(nshards > 1, "≥4-host topology must actually shard");
        }
        let out = outcome(sn.into_report());
        assert_identical(
            &format!("faulted, {want} shards (got {nshards})"),
            &seq,
            &out,
        );
    }
}

#[test]
fn span_cap_overflow_merges_bit_identically() {
    // A tiny span cap forces drops at every shard ring AND re-drops at
    // the merge; the kept prefix and the drop count must still match the
    // sequential run exactly.
    let build_capped = || {
        let mut net = Network::new(SEED);
        build_multihost(&mut net, &spec());
        net.set_trace_config(TraceConfig::full().with_span_cap(64));
        net
    };
    let mut seq = build_capped();
    seq.run(StopCondition::Until(SimTime(2_000_000)));
    let seq = seq.take_report();
    assert!(seq.spans_dropped > 0, "cap of 64 must overflow");
    assert_eq!(seq.spans.len(), 64);
    let seq_spans = named_spans(&seq.spans, &seq.store);

    for want in [2, 8] {
        let mut sn = ShardedNetwork::new(build_capped(), want);
        sn.run(StopCondition::Until(SimTime(2_000_000)));
        assert!(sn.nshards() > 1);
        let report = sn.into_report();
        assert_eq!(
            named_spans(&report.spans, &report.store),
            seq_spans,
            "{want} shards: kept spans"
        );
        assert_eq!(report.spans_dropped, seq.spans_dropped, "{want} shards");
        assert_eq!(report.spans_emitted, seq.spans_emitted, "{want} shards");
    }
}

/// The three documents every exporter writes for a run, as compact
/// JSON; the coordinator's round count is zeroed, as it describes the
/// shard coordinator rather than the simulation.
fn exports(report: &RunReport) -> [String; 3] {
    let mut telemetry = telemetry_report(report, "exports");
    telemetry.health.rounds = 0;
    [
        serde_json::to_string(&snapshot_report(report, "exports")),
        serde_json::to_string(&chrome_trace_report(report)),
        serde_json::to_string(&telemetry),
    ]
    .map(|doc| doc.expect("every export serializes"))
}

#[test]
fn every_export_is_identical_at_any_shard_count() {
    // Default caps, then caps small enough that spans and journal records
    // overflow, so the exported drop accounting is exercised too.
    for (trace, telemetry) in [
        (TraceConfig::full(), TelemetryConfig::full()),
        (
            TraceConfig::full().with_span_cap(64),
            TelemetryConfig::full().with_journal_cap(3),
        ),
    ] {
        let label = format!("span cap {}", trace.span_cap);
        let mut net = build_faulted();
        net.set_trace_config(trace);
        net.set_telemetry_config(telemetry);
        net.run(StopCondition::Until(SimTime(2_000_000)));
        let report = net.take_report();
        let journal = telemetry_report(&report, "exports");
        assert!(!report.spans.is_empty(), "{label}: spans");
        assert!(journal.journal_count(metrics::JournalKind::FaultOpen) > 0);
        if trace.span_cap == 64 {
            assert!(report.spans_dropped > 0, "{label}: spans must overflow");
            assert!(journal.drops.journal > 0, "{label}: journal must overflow");
        }
        let seq = exports(&report);
        // Caps go through SimConfig: `build` overwrites the network's.
        for shards in [1, 2, 8] {
            let mut sn = SimConfig::new()
                .shards(shards)
                .trace(trace)
                .telemetry(telemetry)
                .build(build_faulted());
            sn.run(StopCondition::Until(SimTime(2_000_000)));
            let got = exports(&sn.into_report());
            for (doc, (got, want)) in ["run snapshot", "chrome trace", "telemetry"]
                .into_iter()
                .zip(got.iter().zip(&seq))
            {
                assert!(got == want, "{label}, {shards} shards: {doc}");
            }
        }
    }
}

#[test]
fn sharded_runs_are_reproducible_across_invocations() {
    // Thread scheduling must not leak into results — or even into the
    // coordinator's synchronization statistics: two identical sharded
    // runs are bit-identical to each other.
    let (n1, s1, a) = sharded(2);
    let (n2, s2, b) = sharded(2);
    assert_eq!(n1, n2);
    assert_eq!(s1, s2, "sync stats are deterministic");
    assert_identical("repeat", &a, &b);
}

#[test]
fn split_runs_match_single_runs() {
    // Regression test for the coordinator shutdown race: the earlier
    // sentinel-close termination could strand a shard's final outbox when
    // a deadline landed between an emission and its delivery. With
    // epoch-tagged termination and persistent rings, driving the clock in
    // four steps must be indistinguishable from one step.
    let mut whole = ShardedNetwork::new(build(), 4);
    whole.run(StopCondition::Until(SimTime(2_000_000)));
    let whole = outcome(whole.into_report());

    let mut split = ShardedNetwork::new(build(), 4);
    for step in 1..=4u64 {
        split.run(StopCondition::Until(SimTime(step * 500_000)));
    }
    let split = outcome(split.into_report());
    assert_identical("split vs whole", &whole, &split);
}

#[test]
fn run_to_idle_matches_sequential() {
    // A finite workload (no local flows; loss kills every cross chain
    // eventually): an idle run across shards equals sequential.
    let finite = MultihostSpec {
        hosts: 4,
        local_flows: 0,
        loss: 0.3,
        ..MultihostSpec::default()
    };
    let build_finite = || {
        let mut net = Network::new(7);
        build_multihost(&mut net, &finite);
        net
    };
    let mut seq = build_finite();
    seq.run(StopCondition::Idle);
    let (seq_samples, seq_counters) = snapshot(seq.store());

    let mut sn = ShardedNetwork::new(build_finite(), 4);
    sn.run(StopCondition::Idle);
    assert_eq!(sn.now(), seq.now(), "idle clock stops at last event");
    let report = sn.into_report();
    let (samples, counters) = snapshot(&report.store);
    assert_eq!(seq_samples, samples);
    assert_eq!(seq_counters, counters);
    assert_eq!(seq.events_processed(), report.events_processed);
}

// ---------------------------------------------------------------------------
// Two-island scenarios: one dense island next to a sparse one, and two
// dense islands joined by a near-idle uplink. Both must shard in two and
// stay bit-identical to the sequential engine.

const BOUNCER_COST_NS: u64 = 600;

fn bouncer_cost() -> StageCost {
    StageCost::fixed(BOUNCER_COST_NS, 0.2, CpuCategory::Usr).with_jitter(0.05)
}

fn bridge_cost() -> StageCost {
    StageCost::fixed(400, 0.1, CpuCategory::Sys).with_jitter(0.05)
}

/// One dense island (bridge + local ping-pong pair) and one sparse
/// single-bouncer island across a 20 µs uplink, with a cross ping-pong
/// chain threaded through both: the sparse shard's replies keep bounding
/// the dense shard's window.
fn dense_sparse_net() -> Network {
    let mut net = Network::new(0xBEEF);
    let (ma1, ma2, mb) = (MacAddr::local(1), MacAddr::local(2), MacAddr::local(3));
    let br = net.add_device(
        "br",
        CpuLocation::Host,
        Box::new(Bridge::new(3, bridge_cost(), SharedStation::new())),
    );
    let a1 = net.add_device(
        "a1",
        CpuLocation::Host,
        Box::new(MacBouncer::new("a1", ma1, 200, bouncer_cost(), false)),
    );
    let a2 = net.add_device(
        "a2",
        CpuLocation::Host,
        Box::new(MacBouncer::new("a2", ma2, 200, bouncer_cost(), false)),
    );
    let b = net.add_device(
        "b",
        CpuLocation::Host,
        Box::new(MacBouncer::new("b", mb, 200, bouncer_cost(), false)),
    );
    net.connect(a1, PortId::P0, br, PortId(0), LinkParams::default());
    net.connect(a2, PortId::P0, br, PortId(1), LinkParams::default());
    net.connect(
        br,
        PortId(2),
        b,
        PortId::P0,
        LinkParams::with_latency(SimDuration::micros(20)),
    );
    // Dense local ping-pong through the bridge.
    net.inject_frame(
        SimDuration::ZERO,
        a2,
        PortId::P0,
        frame_between(ma1, ma2, 200),
    );
    // Cross chain: b replies to a1, a1 replies to b, forever.
    net.inject_frame(
        SimDuration::ZERO,
        b,
        PortId::P0,
        frame_between(ma1, mb, 200),
    );
    net
}

/// Two dense islands joined by an uplink that carries (almost) no
/// traffic: each shard is bounded only by the other's floor plus the
/// uplink latency.
fn two_dense_net() -> Network {
    let mut net = Network::new(0xF00D);
    let mut mac = 0u32;
    let mut next_mac = || {
        mac += 1;
        MacAddr::local(mac)
    };
    let mut bridges = Vec::new();
    for h in 0..2 {
        let br = net.add_device(
            format!("h{h}.br"),
            CpuLocation::Host,
            Box::new(Bridge::new(3, bridge_cost(), SharedStation::new())),
        );
        let (ma, mb) = (next_mac(), next_mac());
        let a = net.add_device(
            format!("h{h}.a"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(
                format!("h{h}.a"),
                ma,
                200,
                bouncer_cost(),
                false,
            )),
        );
        let b = net.add_device(
            format!("h{h}.b"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(
                format!("h{h}.b"),
                mb,
                200,
                bouncer_cost(),
                false,
            )),
        );
        net.connect(a, PortId::P0, br, PortId(0), LinkParams::default());
        net.connect(b, PortId::P0, br, PortId(1), LinkParams::default());
        net.inject_frame(
            SimDuration::nanos(h as u64 * 131),
            b,
            PortId::P0,
            frame_between(ma, mb, 200),
        );
        bridges.push(br);
    }
    net.connect(
        bridges[0],
        PortId(2),
        bridges[1],
        PortId(2),
        LinkParams::with_latency(SimDuration::micros(20)),
    );
    net
}

/// Runs `build` sequentially and at 2 shards for 1 ms of simulated time
/// and asserts the two runs are bit-identical.
fn assert_two_shards_match_sequential(name: &str, build: fn() -> Network) {
    let mut seq = build();
    seq.run(StopCondition::Until(SimTime(1_000_000)));
    let seq = outcome(seq.take_report());
    assert!(seq.events > 1_000, "{name}: dense flow generates real load");

    let mut sn = ShardedNetwork::new(build(), 2);
    assert_eq!(sn.nshards(), 2, "{name}: two islands, two shards");
    sn.run(StopCondition::Until(SimTime(1_000_000)));
    let out = outcome(sn.into_report());
    assert_identical(name, &seq, &out);
}

// The two tests below keep the names they had when the coordinator could
// also speculate; the sharded runs are conservative now, and what stays
// is the bit-identity of each topology at 2 shards.

#[test]
fn forced_straggler_rolls_back_and_stays_bit_identical() {
    assert_two_shards_match_sequential("dense + sparse", dense_sparse_net);
}

#[test]
fn independent_islands_commit_speculation_and_stay_bit_identical() {
    assert_two_shards_match_sequential("two dense", two_dense_net);
}
