//! Filter-table state-match semantics end to end: NEW vs ESTABLISHED vs
//! RELATED in both directions through a NAT router, REJECT vs DROP
//! observability at the endpoint (the REJECT_TAG notification), scheduled
//! install/remove windows as mid-run control events, and bit-identical
//! outcomes at 1, 2 and 8 shards.

extern crate nestless_simnet as simnet;

use metrics::{CpuAccount, CpuCategory, CpuLocation, MetricId, TelemetryConfig};
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::device::{Device, DeviceId, DeviceKind, PortId};
use simnet::engine::{DevCtx, LinkParams, Network, SampleStore};
use simnet::frame::{Frame, Payload, Transport};
use simnet::nat::{DnatRule, Interface, NatRouter, Proto};
use simnet::shared::SharedStation;
use simnet::testutil::{frame_between, CaptureSink, MacBouncer};
use simnet::time::{SimDuration, SimTime};
use simnet::{
    FilterControl, FilterRule, Ip4, Ip4Net, JournalKind, MacAddr, ShardedNetwork, SockAddr,
    StateMask, StopCondition, Verdict, REJECT_TAG,
};
use std::collections::BTreeMap;

fn ext_net() -> Ip4Net {
    Ip4Net::new(Ip4::new(192, 168, 0, 0), 24)
}

fn pod_net() -> Ip4Net {
    Ip4Net::new(Ip4::new(172, 17, 0, 0), 24)
}

/// A sink that, beyond the plain received counter and arrival times, counts
/// frames carrying the REJECT_TAG notification payload — the observable
/// difference between an active refusal and silent discard.
struct TagSink {
    name: String,
    ids: Option<(MetricId, MetricId, MetricId)>,
}

impl TagSink {
    fn new(name: impl Into<String>) -> TagSink {
        TagSink {
            name: name.into(),
            ids: None,
        }
    }
}

impl Device for TagSink {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Endpoint
    }

    fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
        let name = &self.name;
        let (received, rejects, arrival) = *self.ids.get_or_insert_with(|| {
            (
                ctx.metric(&format!("{name}.received")),
                ctx.metric(&format!("{name}.rejects")),
                ctx.metric(&format!("{name}.arrival_ns")),
            )
        });
        ctx.count_id(received, 1.0);
        ctx.record_id(arrival, ctx.now().as_nanos() as f64);
        if let Transport::Udp { payload, .. } = &frame.ip.transport {
            if payload.tag == REJECT_TAG {
                ctx.count_id(rejects, 1.0);
            }
        }
    }
}

/// NAT testbed: ext client network on port 0, pod network on port 1, two
/// published services (8080 → pod:80, 8081 → pod:81).
fn testbed(ext_sink: Box<dyn Device>) -> (Network, DeviceId, FilterControl) {
    let r = NatRouter::new(
        vec![
            Interface::new(MacAddr::local(10), ext_net().host(1), ext_net())
                .with_neigh(ext_net().host(100), MacAddr::local(100)),
            Interface::new(MacAddr::local(11), pod_net().host(1), pod_net())
                .with_neigh(pod_net().host(2), MacAddr::local(2)),
        ],
        StageCost::fixed(100, 0.0, CpuCategory::Soft),
        SharedStation::new(),
    );
    for (published, backend) in [(8080, 80), (8081, 81)] {
        r.control().add_dnat(DnatRule {
            proto: Proto::Udp,
            match_ip: None,
            match_port: published,
            to: SockAddr::new(pod_net().host(2), backend),
        });
    }
    let filter = r.filter();
    let mut net = Network::new(0);
    let nat = net.add_device("nat", CpuLocation::Vm(1), Box::new(r));
    let ext = net.add_device("ext", CpuLocation::Host, ext_sink);
    let pod = net.add_device("pod", CpuLocation::Vm(1), Box::new(CaptureSink::new("pod")));
    net.connect(nat, PortId(0), ext, PortId::P0, LinkParams::default());
    net.connect(nat, PortId(1), pod, PortId::P0, LinkParams::default());
    (net, nat, filter)
}

fn udp(src: SockAddr, dst: SockAddr, src_mac: MacAddr, dst_mac: MacAddr) -> Frame {
    Frame::udp(src_mac, dst_mac, src, dst, Payload::sized(64))
}

/// Client-side frame toward a published service port.
fn from_ext(src_port: u16, published: u16) -> Frame {
    udp(
        SockAddr::new(ext_net().host(100), src_port),
        SockAddr::new(ext_net().host(1), published),
        MacAddr::local(100),
        MacAddr::local(10),
    )
}

/// Pod-side frame toward an external destination.
fn from_pod(src_port: u16, dst: SockAddr) -> Frame {
    udp(
        SockAddr::new(pod_net().host(2), src_port),
        dst,
        MacAddr::local(2),
        MacAddr::local(11),
    )
}

/// The classic stateful-firewall table: replies pass, inbound NEW flows
/// are admitted only toward the published backend port, everything else
/// (pod-originated NEW flows included) is dropped.
fn stateful_table(filter: &FilterControl) {
    filter.install(
        FilterRule::any(Verdict::Accept).states(StateMask::ESTABLISHED.or(StateMask::RELATED)),
    );
    filter.install(
        FilterRule::any(Verdict::Accept)
            .from_net(ext_net())
            .proto(Proto::Udp)
            .port(80)
            .states(StateMask::NEW),
    );
    filter.install(FilterRule::any(Verdict::Drop));
}

#[test]
fn established_replies_pass_where_new_flows_are_dropped() {
    let (mut net, nat, filter) = testbed(Box::new(CaptureSink::new("ext")));
    stateful_table(&filter);

    // Inbound NEW toward the published service: admitted by the NEW rule
    // (FORWARD matches post-DNAT, so the rule names the backend port 80).
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), from_ext(5555, 8080));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("pod.received"), 1.0);

    // The pod's reply on the established flow passes the state rule and is
    // reverse-translated back to the client.
    net.inject_frame(
        SimDuration::ZERO,
        nat,
        PortId(1),
        from_pod(80, SockAddr::new(ext_net().host(100), 5555)),
    );
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("ext.received"), 1.0);
    assert_eq!(net.store().counter("filter.forward.accept"), 2.0);

    // A pod-originated NEW flow to an unrelated external address matches
    // neither the state rule nor the ext-side NEW rule: dropped.
    net.inject_frame(
        SimDuration::ZERO,
        nat,
        PortId(1),
        from_pod(90, SockAddr::new(ext_net().host(200), 7000)),
    );
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("ext.received"), 1.0, "egress blocked");
    assert_eq!(net.store().counter("filter.forward.drop"), 1.0);

    // And an inbound NEW flow to a port outside the admitted set (8081 →
    // pod:81) is dropped too, in the other direction.
    let (mut net2, nat2, filter2) = testbed(Box::new(CaptureSink::new("ext")));
    stateful_table(&filter2);
    net2.inject_frame(SimDuration::ZERO, nat2, PortId(0), from_ext(5555, 8081));
    net2.run(StopCondition::Idle);
    assert_eq!(net2.store().counter("pod.received"), 0.0);
    assert_eq!(net2.store().counter("filter.forward.drop"), 1.0);
}

#[test]
fn related_flows_are_admitted_in_both_directions() {
    let (mut net, nat, filter) = testbed(Box::new(CaptureSink::new("ext")));
    stateful_table(&filter);

    // Control: with no prior traffic between the pair, a flow to the
    // second service (backend port 81) is NEW and gets dropped.
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), from_ext(6666, 8081));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("pod.received"), 0.0);
    assert_eq!(net.store().counter("filter.forward.drop"), 1.0);

    // Establish the primary flow (port 80) between the same address pair.
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), from_ext(5555, 8080));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("pod.received"), 1.0);

    // The same port-81 flow is now RELATED (same address pair, different
    // sockets) and passes the state rule.
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), from_ext(6666, 8081));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("pod.received"), 2.0);

    // RELATED works pod-outward too: a fresh pod socket toward the known
    // peer is admitted where an unknown peer (previous test) was dropped.
    net.inject_frame(
        SimDuration::ZERO,
        nat,
        PortId(1),
        from_pod(70, SockAddr::new(ext_net().host(100), 9000)),
    );
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("ext.received"), 1.0);
    assert_eq!(
        net.store().counter("filter.forward.drop"),
        1.0,
        "no new drops"
    );
}

#[test]
fn reject_is_observable_where_drop_is_silent() {
    let (mut net, nat, filter) = testbed(Box::new(TagSink::new("ext")));
    filter.install(FilterRule::any(Verdict::Reject).port(80));
    filter.install(FilterRule::any(Verdict::Drop).port(81));

    // Port 80 is actively refused: nothing reaches the pod, but the
    // client receives the REJECT_TAG notification frame.
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), from_ext(5555, 8080));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("pod.received"), 0.0);
    assert_eq!(net.store().counter("ext.received"), 1.0);
    assert_eq!(
        net.store().counter("ext.rejects"),
        1.0,
        "REJECT_TAG payload"
    );
    assert_eq!(net.store().counter("filter.forward.reject"), 1.0);

    // Port 81 is silently discarded: same fate for the packet, but the
    // client hears nothing at all.
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), from_ext(5555, 8081));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("pod.received"), 0.0);
    assert_eq!(net.store().counter("ext.received"), 1.0, "no notification");
    assert_eq!(net.store().counter("filter.forward.drop"), 1.0);
}

#[test]
fn scheduled_windows_activate_and_deactivate_midrun() {
    let (mut net, nat, filter) = testbed(Box::new(CaptureSink::new("ext")));
    net.set_telemetry_config(TelemetryConfig::full());

    // A drop rule live in [100 µs, 200 µs): installed and removed through
    // the engine so both mutations land in the control-plane journal.
    let rule = FilterRule::any(Verdict::Drop).port(80);
    let id = net.install_filter(nat, &filter, rule, SimTime(100_000));
    assert!(net.remove_filter(nat, &filter, id, SimTime(200_000)));

    for t_us in [50, 150, 250] {
        net.inject_frame(
            SimDuration::micros(t_us),
            nat,
            PortId(0),
            from_ext(5555, 8080),
        );
    }
    net.run(StopCondition::Idle);

    // Only the frame inside the window was dropped.
    assert_eq!(net.store().counter("pod.received"), 2.0);
    assert_eq!(net.store().counter("filter.forward.drop"), 1.0);

    let kinds: Vec<JournalKind> = net.journal().records().iter().map(|r| r.kind).collect();
    assert!(
        kinds.contains(&JournalKind::FilterInstall),
        "install journaled"
    );
    assert!(
        kinds.contains(&JournalKind::FilterRemove),
        "remove journaled"
    );
    let drop = net
        .journal()
        .records()
        .iter()
        .find(|r| r.kind == JournalKind::FilterDrop)
        .expect("the windowed drop is journaled");
    assert_eq!(drop.a, nat.0 as u64);
    assert_eq!(drop.b, id);
    assert_eq!(drop.c, Verdict::Drop.code());
}

// ---------------------------------------------------------------------------
// The bridge's hook: verdicts on transiting unicast frames are counted and
// journaled, and a REJECT answers out the ingress port when the bridge's own
// stage completes.

/// A three-port bridge (1 µs per frame, host `sys`) with a [`TagSink`] on
/// every port, under full telemetry so verdicts reach the journal.
fn bridge_bed() -> (Network, DeviceId, FilterControl) {
    let mut net = Network::new(0);
    net.set_telemetry_config(TelemetryConfig::full());
    let br = Bridge::new(
        3,
        StageCost::fixed(1_000, 0.0, CpuCategory::Sys),
        SharedStation::new(),
    );
    let filter = br.filter();
    let bridge = net.add_device("br", CpuLocation::Host, Box::new(br));
    for p in 0..3 {
        let sink = net.add_device(
            format!("s{p}"),
            CpuLocation::Host,
            Box::new(TagSink::new(format!("s{p}"))),
        );
        net.connect(bridge, PortId(p), sink, PortId::P0, LinkParams::default());
    }
    (net, bridge, filter)
}

/// A unicast frame from the host behind port 0 toward an unlearned MAC.
fn across(dst_port: u16) -> Frame {
    udp(
        SockAddr::new(Ip4::new(10, 0, 0, 1), 40_000),
        SockAddr::new(Ip4::new(10, 0, 0, 2), dst_port),
        MacAddr::local(1),
        MacAddr::local(2),
    )
}

/// `(device, rule id, verdict code)` of every journaled `FilterDrop`.
fn filter_drops(net: &Network) -> Vec<(u64, u64, u64)> {
    net.journal()
        .records()
        .iter()
        .filter(|r| r.kind == JournalKind::FilterDrop)
        .map(|r| (r.a, r.b, r.c))
        .collect()
}

#[test]
fn bridge_reject_notifies_the_ingress_port_at_stage_completion() {
    let (mut net, bridge, filter) = bridge_bed();
    let id = filter.install(FilterRule::any(Verdict::Reject).port(80));
    net.inject_frame(SimDuration::ZERO, bridge, PortId(0), across(80));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("filter.forward.reject"), 1.0);
    assert_eq!(filter_drops(&net), vec![(bridge.0 as u64, id, 1)]);
    // The notice goes back out the ingress port, and nowhere else...
    assert_eq!(net.store().counter("s0.received"), 1.0);
    assert_eq!(net.store().counter("s0.rejects"), 1.0, "REJECT_TAG payload");
    assert_eq!(net.store().counter("s1.received"), 0.0);
    assert_eq!(net.store().counter("s2.received"), 0.0);
    // ...when the bridge's one service of the frame completes.
    assert_eq!(net.store().samples("s0.arrival_ns"), &[1_000.0]);
    assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Sys), 1_000);
}

#[test]
fn bridge_drop_is_counted_journaled_and_silent() {
    let (mut net, bridge, filter) = bridge_bed();
    let id = filter.install(FilterRule::any(Verdict::Drop).port(80));
    net.inject_frame(SimDuration::ZERO, bridge, PortId(0), across(80));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("filter.forward.drop"), 1.0);
    assert_eq!(filter_drops(&net), vec![(bridge.0 as u64, id, 0)]);
    for p in 0..3 {
        assert_eq!(net.store().counter(&format!("s{p}.received")), 0.0);
    }
    // A frame no rule matches is accepted, counted, and switched on (here
    // flooded: the destination was never learned).
    net.inject_frame(SimDuration::ZERO, bridge, PortId(0), across(81));
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("filter.forward.accept"), 1.0);
    assert_eq!(net.store().counter("s0.received"), 0.0);
    assert_eq!(net.store().counter("s1.received"), 1.0);
    assert_eq!(net.store().counter("s2.received"), 1.0);
    assert_eq!(filter_drops(&net).len(), 1);
}

// ---------------------------------------------------------------------------
// Sharded determinism: a filtered multi-host topology with state rules and
// scheduled verdict windows must stay bit-identical across shard counts.

const SEED: u64 = 0xF11E;
const HOSTS: usize = 4;
const FLOWS: usize = 2;
/// Probe frames use this destination port so windowed rules single them
/// out without touching the steady ping-pong traffic.
const PROBE_PORT: u16 = 7777;

fn probe(dst_mac: MacAddr) -> Frame {
    Frame::udp(
        MacAddr::local(900),
        dst_mac,
        SockAddr::new(Ip4::new(10, 9, 9, 9), 1234),
        SockAddr::new(Ip4::new(10, 0, 0, 2), PROBE_PORT),
        Payload::sized(64),
    )
}

/// Four bridge-and-bouncers hosts joined through a core bridge by 20 µs
/// uplinks (so the topology actually shards), every host bridge carrying
/// a state-accept rule, and two hosts carrying scheduled DROP/REJECT
/// windows exercised by injected probe frames.
fn filtered_net() -> Network {
    let mut net = Network::new(SEED);
    let bouncer_cost = StageCost::fixed(600, 0.2, CpuCategory::Usr).with_jitter(0.05);
    let bridge_cost = StageCost::fixed(1_000, 0.3, CpuCategory::Sys).with_jitter(0.05);
    let core = net.add_device(
        "core",
        CpuLocation::Host,
        Box::new(Bridge::new(
            HOSTS,
            StageCost::fixed(400, 0.05, CpuCategory::Sys),
            SharedStation::new(),
        )),
    );
    let mut mac = 0u32;
    let mut next_mac = || {
        mac += 1;
        MacAddr::local(mac)
    };
    for h in 0..HOSTS {
        let bridge_dev = Bridge::new(2 * FLOWS + 2, bridge_cost, SharedStation::new());
        let filter = bridge_dev.filter();
        // Steady-state traffic is ESTABLISHED after its first transit and
        // keeps matching this rule; the very first frame of each flow is
        // NEW and falls through to the default accept.
        filter.install(
            FilterRule::any(Verdict::Accept).states(StateMask::ESTABLISHED.or(StateMask::RELATED)),
        );
        match h {
            1 => {
                // DROP window [400 µs, 700 µs) on the probe port.
                let id = filter.install_at(
                    FilterRule::any(Verdict::Drop).port(PROBE_PORT),
                    SimTime(400_000),
                );
                filter.remove_at(id, SimTime(700_000));
            }
            2 => {
                // REJECT window [300 µs, 600 µs) on the probe port.
                let id = filter.install_at(
                    FilterRule::any(Verdict::Reject).port(PROBE_PORT),
                    SimTime(300_000),
                );
                filter.remove_at(id, SimTime(600_000));
            }
            _ => {}
        }
        let bridge = net.add_device(format!("h{h}.br"), CpuLocation::Host, Box::new(bridge_dev));
        let mut first_mac = None;
        for f in 0..FLOWS {
            let (ma, mb) = (next_mac(), next_mac());
            first_mac.get_or_insert(ma);
            let mut pair = Vec::with_capacity(2);
            for (i, (name, m)) in [(format!("h{h}.f{f}.a"), ma), (format!("h{h}.f{f}.b"), mb)]
                .into_iter()
                .enumerate()
            {
                let d = net.add_device(
                    name.clone(),
                    CpuLocation::Host,
                    Box::new(MacBouncer::new(name, m, 200, bouncer_cost, false)),
                );
                net.connect(
                    d,
                    PortId::P0,
                    bridge,
                    PortId(2 * f + i),
                    LinkParams::default(),
                );
                pair.push(d);
            }
            // Kick the flow off at B directly (testutil idiom): B bounces
            // and the pair ping-pongs through the filtered bridge forever.
            net.inject_frame(
                SimDuration::nanos((h as u64) * 131 + (f as u64) * 17),
                pair[1],
                PortId::P0,
                frame_between(ma, mb, 200),
            );
        }
        let mx = next_mac();
        let x = net.add_device(
            format!("h{h}.x"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(
                format!("h{h}.x"),
                mx,
                200,
                bouncer_cost,
                false,
            )),
        );
        net.connect(
            x,
            PortId::P0,
            bridge,
            PortId(2 * FLOWS),
            LinkParams::default(),
        );
        net.connect(
            bridge,
            PortId(2 * FLOWS + 1),
            core,
            PortId(h),
            LinkParams::with_latency(SimDuration::micros(20)),
        );
        // Probes: one inside each host's verdict window, one after it.
        let target = first_mac.expect("at least one local flow");
        if h == 1 {
            net.inject_frame(
                SimDuration::micros(450),
                bridge,
                PortId(2 * FLOWS),
                probe(target),
            );
            net.inject_frame(
                SimDuration::micros(800),
                bridge,
                PortId(2 * FLOWS),
                probe(target),
            );
        }
        if h == 2 {
            net.inject_frame(
                SimDuration::micros(350),
                bridge,
                PortId(2 * FLOWS),
                probe(target),
            );
            net.inject_frame(
                SimDuration::micros(650),
                bridge,
                PortId(2 * FLOWS),
                probe(target),
            );
        }
    }
    net
}

struct Outcome {
    samples: BTreeMap<String, Vec<f64>>,
    counters: BTreeMap<String, f64>,
    cpu: CpuAccount,
    events: u64,
    dropped: u64,
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

fn assert_identical(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.events, b.events, "{label}: events processed");
    assert_eq!(a.dropped, b.dropped, "{label}: dropped frames");
    assert_eq!(a.now, b.now, "{label}: final clock");
    assert_eq!(a.cpu, b.cpu, "{label}: CPU account");
    assert_eq!(a.counters, b.counters, "{label}: counters (bit-exact f64)");
    for (name, vals) in &a.samples {
        assert_eq!(vals, &b.samples[name], "{label}: samples of {name}");
    }
    assert_eq!(
        a.samples.keys().collect::<Vec<_>>(),
        b.samples.keys().collect::<Vec<_>>(),
        "{label}: sample series sets"
    );
}

#[test]
fn filtered_runs_are_bit_identical_across_shards_and_modes() {
    let mut seq_net = filtered_net();
    seq_net.run(StopCondition::Until(SimTime(2_000_000)));
    let (samples, counters) = snapshot(seq_net.store());
    let seq = Outcome {
        samples,
        counters,
        cpu: seq_net.cpu().clone(),
        events: seq_net.events_processed(),
        dropped: seq_net.dropped_no_link(),
        now: seq_net.now(),
    };
    // The scenario really exercises every verdict: steady flows hit the
    // state-accept rule, the h1 window drops its probe, the h2 window
    // rejects its probe, and the post-window probes pass.
    assert!(seq.events > 10_000, "scenario generates real load");
    assert!(
        seq.counters["filter.forward.accept"] > 100.0,
        "state rule hit"
    );
    assert!(
        seq.counters["filter.forward.drop"] >= 1.0,
        "drop window fired"
    );
    assert!(
        seq.counters["filter.forward.reject"] >= 1.0,
        "reject window fired"
    );

    for want in [1, 2, 8] {
        let mut sn = ShardedNetwork::new(filtered_net(), want);
        sn.run(StopCondition::Until(SimTime(2_000_000)));
        let nshards = sn.nshards();
        if want > 1 {
            assert!(nshards > 1, "multi-host topology must actually shard");
        }
        let report = sn.into_report();
        let (samples, counters) = snapshot(&report.store);
        let out = Outcome {
            samples,
            counters,
            cpu: report.cpu,
            events: report.events_processed,
            dropped: report.dropped_no_link,
            now: report.now,
        };
        assert_identical(&format!("{want} shards (got {nshards})"), &seq, &out);
    }
}
