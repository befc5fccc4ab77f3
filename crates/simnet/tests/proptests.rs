//! Property-based tests for the network simulator: addressing algebra,
//! frame encodings, cost sampling bounds, NAT reversibility, bridge
//! learning, and engine determinism.

extern crate nestless_simnet as simnet;

use metrics::{CpuCategory, CpuLocation};
use nestless_simnet::StopCondition;
use proptest::prelude::*;
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::device::PortId;
use simnet::engine::{LinkParams, Network};
use simnet::frame::{Frame, Payload, VXLAN_OVERHEAD};
use simnet::nat::{DnatRule, Interface, NatRouter, Proto};
use simnet::shared::SharedStation;
use simnet::testutil::{frame_between, CaptureSink};
use simnet::{Ip4, Ip4Net, MacAddr, SimDuration, SockAddr};

fn arb_ip() -> impl Strategy<Value = Ip4> {
    any::<u32>().prop_map(Ip4)
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

proptest! {
    /// IPv4 display/parse round-trips.
    #[test]
    fn ip_roundtrip(ip in arb_ip()) {
        let s = ip.to_string();
        prop_assert_eq!(s.parse::<Ip4>().unwrap(), ip);
    }

    /// MAC display/parse round-trips.
    #[test]
    fn mac_roundtrip(mac in arb_mac()) {
        let s = mac.to_string();
        prop_assert_eq!(s.parse::<MacAddr>().unwrap(), mac);
    }

    /// Every host generated inside a subnet is contained by it.
    #[test]
    fn subnet_contains_its_hosts(base in arb_ip(), prefix in 8u8..=30, n in 0u32..255) {
        let net = Ip4Net::new(base, prefix);
        let host_bits = 32 - u32::from(prefix);
        let n = if host_bits >= 32 { n } else { n % (1 << host_bits) };
        prop_assert!(net.contains(net.host(n)));
    }

    /// Masking is idempotent and the mask matches the prefix.
    #[test]
    fn subnet_mask_consistent(base in arb_ip(), prefix in 0u8..=32) {
        let net = Ip4Net::new(base, prefix);
        prop_assert_eq!(Ip4Net::new(net.addr, prefix), net);
        prop_assert_eq!(net.mask().0.count_ones(), u32::from(prefix));
    }

    /// Wire length decomposes into headers + payload.
    #[test]
    fn udp_wire_len_decomposes(len in 0u32..65_000, sp in 1u16.., dp in 1u16..) {
        let f = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            SockAddr::new(Ip4::new(10, 0, 0, 1), sp),
            SockAddr::new(Ip4::new(10, 0, 0, 2), dp),
            Payload::sized(len),
        );
        prop_assert_eq!(f.wire_len(), 18 + 20 + 8 + len);
    }

    /// VXLAN encapsulation adds exactly its overhead and round-trips.
    #[test]
    fn vxlan_roundtrip(len in 0u32..16_000, vni in 0u32..1 << 24) {
        let inner = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            SockAddr::new(Ip4::new(10, 0, 0, 1), 1000),
            SockAddr::new(Ip4::new(10, 0, 0, 2), 2000),
            Payload::sized(len),
        );
        let inner_len = inner.wire_len();
        let outer = inner.clone().vxlan_encap(
            vni,
            MacAddr::local(3),
            MacAddr::local(4),
            Ip4::new(192, 168, 0, 1),
            Ip4::new(192, 168, 0, 2),
        );
        prop_assert_eq!(outer.wire_len(), inner_len + VXLAN_OVERHEAD);
        let (v, back) = outer.vxlan_decap().unwrap();
        prop_assert_eq!(v, vni);
        prop_assert_eq!(back, inner);
    }

    /// Sampled service times stay inside the configured jitter band, and
    /// the mean is linear in the wire length.
    #[test]
    fn stage_cost_bounds(
        fixed in 1u64..1_000_000,
        per_byte in 0.0..100.0f64,
        jitter in 0.0..0.99f64,
        len in 0u32..65_000,
        seed in any::<u64>(),
    ) {
        use rand::SeedableRng;
        let cost = StageCost::fixed(fixed, per_byte, CpuCategory::Sys).with_jitter(jitter);
        let mean = cost.mean_service(len).as_nanos() as f64;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let s = cost.sample_service(len, &mut rng).as_nanos() as f64;
            prop_assert!(s >= mean * (1.0 - jitter) - 2.0);
            prop_assert!(s <= mean * (1.0 + jitter) + 2.0);
        }
        // Linearity in bytes.
        let m0 = cost.mean_service(0).as_nanos();
        let m2 = cost.mean_service(2 * len).as_nanos();
        let m1 = cost.mean_service(len).as_nanos();
        prop_assert!((m2 as i128 - m0 as i128 - 2 * (m1 as i128 - m0 as i128)).abs() <= 2);
    }

    /// NAT translation is reversible: a reply to a translated flow is
    /// delivered back to the original source, whatever the ports involved.
    #[test]
    fn nat_is_reversible(client_port in 1024u16..60_000, publish in 1u16..30_000, backend in 1u16..60_000) {
        let ext_net = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
        let pod_net = Ip4Net::new(Ip4::new(172, 17, 0, 0), 24);
        let client_ip = ext_net.host(100);
        let pod_ip = pod_net.host(2);

        let router = NatRouter::new(
            vec![
                Interface::new(MacAddr::local(10), ext_net.host(1), ext_net)
                    .with_neigh(client_ip, MacAddr::local(100)),
                Interface::new(MacAddr::local(11), pod_net.host(1), pod_net)
                    .with_neigh(pod_ip, MacAddr::local(2)),
            ],
            StageCost::fixed(100, 0.0, CpuCategory::Soft),
            SharedStation::new(),
        );
        router.control().add_dnat(DnatRule {
            proto: Proto::Udp,
            match_ip: None,
            match_port: publish,
            to: SockAddr::new(pod_ip, backend),
        });

        let mut net = Network::new(0);
        let nat = net.add_device("nat", CpuLocation::Vm(1), Box::new(router));
        let ext = net.add_device("ext", CpuLocation::Host, Box::new(CaptureSink::new("ext")));
        let pod = net.add_device("pod", CpuLocation::Vm(1), Box::new(CaptureSink::new("pod")));
        net.connect(nat, PortId(0), ext, PortId::P0, LinkParams::default());
        net.connect(nat, PortId(1), pod, PortId::P0, LinkParams::default());

        // Forward: client -> published port.
        let fwd = Frame::udp(
            MacAddr::local(100),
            MacAddr::local(10),
            SockAddr::new(client_ip, client_port),
            SockAddr::new(ext_net.host(1), publish),
            Payload::sized(64),
        );
        net.inject_frame(SimDuration::ZERO, nat, PortId(0), fwd);
        net.run(StopCondition::Idle);
        prop_assert_eq!(net.store().counter("pod.received"), 1.0);

        // Reply: backend -> whatever source the pod observed.
        let reply = Frame::udp(
            MacAddr::local(2),
            MacAddr::local(11),
            SockAddr::new(pod_ip, backend),
            SockAddr::new(client_ip, client_port),
            Payload::sized(64),
        );
        net.inject_frame(SimDuration::ZERO, nat, PortId(1), reply);
        net.run(StopCondition::Idle);
        prop_assert_eq!(net.store().counter("ext.received"), 1.0);
        prop_assert_eq!(net.store().counter("nat.conntrack_hit"), 1.0);
    }

    /// After learning, a bridge unicasts instead of flooding, for any
    /// number of ports and any ingress choice.
    #[test]
    fn bridge_learns_then_unicasts(nports in 3usize..10, src_port in 0usize..10, dst_port in 0usize..10) {
        let src_port = src_port % nports;
        let dst_port = dst_port % nports;
        prop_assume!(src_port != dst_port);

        let mut net = Network::new(1);
        let bridge = net.add_device(
            "br",
            CpuLocation::Host,
            Box::new(Bridge::new(nports, StageCost::fixed(100, 0.0, CpuCategory::Sys), SharedStation::new())),
        );
        for p in 0..nports {
            let s = net.add_device(format!("s{p}"), CpuLocation::Host, Box::new(CaptureSink::new(format!("s{p}"))));
            net.connect(bridge, PortId(p), s, PortId::P0, LinkParams::default());
        }
        let a = MacAddr::local(50);
        let b = MacAddr::local(51);
        // Teach the bridge both addresses.
        net.inject_frame(SimDuration::ZERO, bridge, PortId(src_port), frame_between(a, b, 10));
        net.inject_frame(SimDuration::ZERO, bridge, PortId(dst_port), frame_between(b, a, 10));
        net.run(StopCondition::Idle);
        let before: f64 = (0..nports).map(|p| net.store().counter(&format!("s{p}.received"))).sum();

        // Now a -> b must land only on dst_port.
        net.inject_frame(SimDuration::ZERO, bridge, PortId(src_port), frame_between(a, b, 10));
        net.run(StopCondition::Idle);
        let after: f64 = (0..nports).map(|p| net.store().counter(&format!("s{p}.received"))).sum();
        prop_assert_eq!(after - before, 1.0, "exactly one delivery after learning");
    }

    /// The engine is deterministic for arbitrary injection schedules.
    #[test]
    fn engine_deterministic(offsets in prop::collection::vec(0u64..1_000_000, 1..40), seed in any::<u64>()) {
        let run = || {
            let mut net = Network::new(seed);
            let bridge = net.add_device(
                "br",
                CpuLocation::Host,
                Box::new(Bridge::new(
                    2,
                    StageCost::fixed(500, 0.5, CpuCategory::Sys).with_jitter(0.2),
                    SharedStation::new(),
                )),
            );
            let sink = net.add_device("s", CpuLocation::Host, Box::new(CaptureSink::new("s")));
            net.connect(bridge, PortId(1), sink, PortId::P0, LinkParams::default());
            for &o in &offsets {
                net.inject_frame(
                    SimDuration::nanos(o),
                    bridge,
                    PortId(0),
                    frame_between(MacAddr::local(1), MacAddr::local(2), (o % 1400) as u32),
                );
            }
            net.run(StopCondition::Idle);
            (
                net.events_processed(),
                net.cpu().total(),
                net.store().samples("s.arrival_ns").to_vec(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
