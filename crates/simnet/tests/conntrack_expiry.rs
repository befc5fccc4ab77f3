//! Conntrack lifetime semantics: late replies lose their translation.

extern crate nestless_simnet as simnet;

use metrics::{CpuCategory, CpuLocation};
use nestless_simnet::StopCondition;
use simnet::costs::StageCost;
use simnet::device::PortId;
use simnet::engine::{LinkParams, Network};
use simnet::frame::{Frame, Payload};
use simnet::nat::{DnatRule, Interface, NatRouter, Proto};
use simnet::shared::SharedStation;
use simnet::testutil::CaptureSink;
use simnet::{Ip4, Ip4Net, MacAddr, SimDuration, SockAddr};

fn testbed(timeout: SimDuration) -> (Network, simnet::DeviceId) {
    let ext_net = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
    let pod_net = Ip4Net::new(Ip4::new(172, 17, 0, 0), 24);
    let r = NatRouter::new(
        vec![
            Interface::new(MacAddr::local(10), ext_net.host(1), ext_net)
                .with_neigh(ext_net.host(100), MacAddr::local(100)),
            Interface::new(MacAddr::local(11), pod_net.host(1), pod_net)
                .with_neigh(pod_net.host(2), MacAddr::local(2)),
        ],
        StageCost::fixed(100, 0.0, CpuCategory::Soft),
        SharedStation::new(),
    )
    .with_conntrack_timeout(timeout);
    r.control().add_dnat(DnatRule {
        proto: Proto::Udp,
        match_ip: None,
        match_port: 8080,
        to: SockAddr::new(pod_net.host(2), 80),
    });
    let mut net = Network::new(0);
    let nat = net.add_device("nat", CpuLocation::Vm(1), Box::new(r));
    let ext = net.add_device("ext", CpuLocation::Host, Box::new(CaptureSink::new("ext")));
    let pod = net.add_device("pod", CpuLocation::Vm(1), Box::new(CaptureSink::new("pod")));
    net.connect(nat, PortId(0), ext, PortId::P0, LinkParams::default());
    net.connect(nat, PortId(1), pod, PortId::P0, LinkParams::default());
    (net, nat)
}

fn forward() -> Frame {
    Frame::udp(
        MacAddr::local(100),
        MacAddr::local(10),
        SockAddr::new(Ip4::new(192, 168, 0, 100), 5555),
        SockAddr::new(Ip4::new(192, 168, 0, 1), 8080),
        Payload::sized(64),
    )
}

fn reply() -> Frame {
    Frame::udp(
        MacAddr::local(2),
        MacAddr::local(11),
        SockAddr::new(Ip4::new(172, 17, 0, 2), 80),
        SockAddr::new(Ip4::new(192, 168, 0, 100), 5555),
        Payload::sized(64),
    )
}

#[test]
fn reply_within_timeout_is_translated() {
    let (mut net, nat) = testbed(SimDuration::secs(120));
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), forward());
    net.run(StopCondition::Idle);
    net.inject_frame(SimDuration::secs(60), nat, PortId(1), reply());
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("ext.received"), 1.0);
    assert_eq!(net.store().counter("nat.conntrack_hit"), 1.0);
}

#[test]
fn reply_after_timeout_loses_translation() {
    let (mut net, nat) = testbed(SimDuration::secs(120));
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), forward());
    net.run(StopCondition::Idle);
    // The reply arrives long after the entry expired: it is treated as a
    // new flow (src stays the pod address), not reverse-translated.
    net.inject_frame(SimDuration::secs(300), nat, PortId(1), reply());
    net.run(StopCondition::Idle);
    assert_eq!(net.store().counter("nat.conntrack_hit"), 0.0);
    // It still routes (dst is on-link), but as a fresh conntrack entry.
    assert!(net.store().counter("nat.conntrack_new") >= 2.0);
}

#[test]
fn refreshed_entries_survive() {
    let (mut net, nat) = testbed(SimDuration::secs(120));
    net.inject_frame(SimDuration::ZERO, nat, PortId(0), forward());
    net.run(StopCondition::Idle);
    // Keep the flow alive with traffic every 100 s; at t=400 s the entry
    // must still translate because each use refreshed it.
    for t in [100u64, 200, 300, 400] {
        net.inject_frame(
            SimDuration::secs(t) - net.now().since(simnet::SimTime::ZERO),
            nat,
            PortId(0),
            forward(),
        );
        net.run(StopCondition::Idle);
    }
    net.inject_frame(SimDuration::secs(50), nat, PortId(1), reply());
    net.run(StopCondition::Idle);
    assert!(net.store().counter("ext.received") >= 1.0);
    assert!(net.store().counter("nat.conntrack_hit") >= 1.0);
}
