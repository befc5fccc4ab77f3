//! Docker-overlay-style VXLAN networking.
//!
//! The `Overlay` baseline of §5.3: cross-VM container traffic is VXLAN-
//! encapsulated by a VTEP in each VM kernel and carried over the underlay
//! (the VMs' primary NICs and the host bridge). The paper cites overlay
//! networks as "the only currently viable approach for cross-node pod
//! deployment" and shows they "severely degrade inter-container
//! communications" — the encapsulation bytes, the extra softirq work and
//! the coalesced underlay NICs are all modeled here.

use metrics::MetricId;
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::device::{Device, DeviceId, DeviceKind, PortId};
use simnet::endpoint::IfaceConf;
use simnet::engine::{DevCtx, LinkParams};
use simnet::frame::Frame;
use simnet::hash::FxHashMap;
use simnet::shared::SharedStation;
use simnet::time::SimTime;
use simnet::veth::VethPair;
use simnet::{Ip4, Ip4Net, MacAddr};
use vmm::{NicInfo, VmId, Vmm};

/// The overlay (inner) subnet Docker assigns to the network.
pub const OVERLAY_SUBNET: Ip4Net = Ip4Net {
    addr: Ip4(0x0A00_0000),
    prefix: 24,
}; // 10.0.0.0/24

/// A VXLAN tunnel endpoint living in a VM kernel.
///
/// Port 0 faces the overlay (inner frames), port 1 the underlay (outer
/// frames towards the VM's NIC).
pub struct Vtep {
    vni: u32,
    local_ip: Ip4,
    local_mac: MacAddr,
    /// Inner destination MAC -> (remote VTEP IP, remote underlay MAC).
    /// Docker fills this from its KV store; we configure it statically.
    fdb: FxHashMap<MacAddr, (Ip4, MacAddr)>,
    cost: StageCost,
    station: SharedStation,
    /// Interned counter ids, set on the first frame.
    ids: Option<VtepIds>,
}

/// The VTEP's counters, interned once.
#[derive(Clone, Copy)]
struct VtepIds {
    encapsulated: MetricId,
    decapsulated: MetricId,
    drop_unknown_dst: MetricId,
    drop_wrong_vni: MetricId,
    drop_not_vxlan: MetricId,
}

impl Vtep {
    /// Creates a VTEP with a static forwarding database.
    pub fn new(
        vni: u32,
        local_ip: Ip4,
        local_mac: MacAddr,
        fdb: FxHashMap<MacAddr, (Ip4, MacAddr)>,
        cost: StageCost,
        station: SharedStation,
    ) -> Vtep {
        Vtep {
            vni,
            local_ip,
            local_mac,
            fdb,
            cost,
            station,
            ids: None,
        }
    }

    /// Encapsulates `frame` towards one remote VTEP and sends it down the
    /// underlay.
    fn encap(
        &self,
        frame: Frame,
        (remote_ip, remote_mac): (Ip4, MacAddr),
        done: SimTime,
        counted: MetricId,
        ctx: &mut DevCtx<'_>,
    ) {
        let outer = frame.vxlan_encap(
            self.vni,
            self.local_mac,
            remote_mac,
            self.local_ip,
            remote_ip,
        );
        ctx.count_id(counted, 1.0);
        ctx.transmit_at(done, PortId::P1, outer);
    }
}

impl Device for Vtep {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Other
    }

    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
        let ids = *self.ids.get_or_insert_with(|| VtepIds {
            encapsulated: ctx.metric("vtep.encapsulated"),
            decapsulated: ctx.metric("vtep.decapsulated"),
            drop_unknown_dst: ctx.metric("vtep.drop_unknown_dst"),
            drop_wrong_vni: ctx.metric("vtep.drop_wrong_vni"),
            drop_not_vxlan: ctx.metric("vtep.drop_not_vxlan"),
        });
        let done = self.station.serve(&self.cost, frame.wire_len(), ctx);
        match port {
            // Overlay -> underlay: encapsulate, once per remote VTEP for
            // multicast (in address order), else to the FDB's one entry.
            PortId::P0 if frame.dst_mac.is_multicast() => {
                let mut targets: Vec<_> = self.fdb.values().copied().collect();
                targets.sort();
                targets.dedup();
                for t in targets {
                    self.encap(frame.clone(), t, done, ids.encapsulated, ctx);
                }
            }
            PortId::P0 => match self.fdb.get(&frame.dst_mac) {
                Some(&t) => self.encap(frame, t, done, ids.encapsulated, ctx),
                None => ctx.count_id(ids.drop_unknown_dst, 1.0),
            },
            // Underlay -> overlay: decapsulate.
            PortId::P1 => match frame.vxlan_decap() {
                Ok((vni, inner)) if vni == self.vni => {
                    ctx.count_id(ids.decapsulated, 1.0);
                    ctx.transmit_at(done, PortId::P0, inner);
                }
                Ok(_) => ctx.count_id(ids.drop_wrong_vni, 1.0),
                Err(_) => ctx.count_id(ids.drop_not_vxlan, 1.0),
            },
            _ => panic!("VTEP has two ports"),
        }
    }
}

/// One side of an overlay network inside a VM: veth -> overlay bridge ->
/// VTEP -> (VM NIC).
#[derive(Debug, Clone)]
pub struct OverlayAttachment {
    /// The container attachment (connect the container endpoint here).
    pub attach: (DeviceId, PortId),
    /// Ready-made endpoint interface config on the overlay subnet.
    pub iface: IfaceConf,
    /// Container overlay IP.
    pub ip: Ip4,
    /// Container MAC on the overlay.
    pub mac: MacAddr,
}

/// Builds a two-VM overlay network for one container on each side, the
/// exact topology of the paper's fig. 10 `Overlay` configuration.
///
/// `eth_a`/`eth_b` are dedicated (already provisioned, coalesced) VM NICs
/// used as the underlay; their guest side is taken over by the VTEPs.
/// `ip_a`/`ip_b` are the VMs' underlay addresses.
pub fn build_two_node_overlay(
    vmm: &mut Vmm,
    vni: u32,
    a: (VmId, &NicInfo, Ip4),
    b: (VmId, &NicInfo, Ip4),
) -> (OverlayAttachment, OverlayAttachment) {
    let vtep_cost = vmm.costs().vxlan;
    build_two_node_overlay_with(vmm, vni, a, b, vtep_cost)
}

/// Like [`build_two_node_overlay`] with an explicit VTEP stage cost.
pub fn build_two_node_overlay_with(
    vmm: &mut Vmm,
    vni: u32,
    a: (VmId, &NicInfo, Ip4),
    b: (VmId, &NicInfo, Ip4),
    vtep_cost: StageCost,
) -> (OverlayAttachment, OverlayAttachment) {
    let costs = vmm.costs().clone();
    let mk_side = |vmm: &mut Vmm,
                   (vm, eth, underlay_ip): (VmId, &NicInfo, Ip4),
                   my_idx: u32,
                   peer: (Ip4, MacAddr, MacAddr)| {
        let (peer_underlay_ip, peer_underlay_mac, peer_inner_mac) = peer;
        let station = vmm.guest_station(vm);
        let loc = metrics::CpuLocation::Vm(vm.0);
        let vm_name = vmm.vm(vm).spec.name.clone();

        let my_underlay_mac = MacAddr::local(0x00D0_0000 + my_idx);
        let my_inner_mac = MacAddr::local(0x00D1_0000 + my_idx);
        let my_ip = OVERLAY_SUBNET.host(2 + my_idx);

        let mut fdb = FxHashMap::default();
        fdb.insert(peer_inner_mac, (peer_underlay_ip, peer_underlay_mac));
        let vtep = vmm.network_mut().add_device(
            format!("{vm_name}/vtep"),
            loc,
            Box::new(Vtep::new(
                vni,
                underlay_ip,
                my_underlay_mac,
                fdb,
                vtep_cost,
                station.clone(),
            )),
        );
        let ovl_br = vmm.network_mut().add_device(
            format!("{vm_name}/br-ovl"),
            loc,
            Box::new(Bridge::new(4, costs.guest_bridge, station.clone())),
        );
        let veth = vmm.network_mut().add_device(
            format!("{vm_name}/veth-ovl"),
            loc,
            Box::new(VethPair::new(costs.veth, station)),
        );
        // container <-> veth <-> bridge <-> vtep <-> eth (underlay)
        vmm.network_mut()
            .connect(veth, PortId::P0, ovl_br, PortId(0), LinkParams::default());
        vmm.network_mut()
            .connect(ovl_br, PortId(1), vtep, PortId::P0, LinkParams::default());
        vmm.network_mut().connect(
            vtep,
            PortId::P1,
            eth.guest_attach.0,
            eth.guest_attach.1,
            LinkParams::default(),
        );

        let iface = IfaceConf::new(my_inner_mac, my_ip, OVERLAY_SUBNET)
            .with_neigh(OVERLAY_SUBNET.host(2 + (1 - my_idx)), peer_inner_mac);
        OverlayAttachment {
            attach: (veth, PortId::P1),
            iface,
            ip: my_ip,
            mac: my_inner_mac,
        }
    };

    // Pre-compute both sides' identities so each FDB can point at the peer.
    let a_underlay_mac = MacAddr::local(0x00D0_0000);
    let a_inner_mac = MacAddr::local(0x00D1_0000);
    let b_underlay_mac = MacAddr::local(0x00D0_0001);
    let b_inner_mac = MacAddr::local(0x00D1_0001);

    let side_a = mk_side(vmm, a, 0, (b.2, b_underlay_mac, b_inner_mac));
    let side_b = mk_side(vmm, b, 1, (a.2, a_underlay_mac, a_inner_mac));
    debug_assert_eq!(side_a.mac, a_inner_mac);
    debug_assert_eq!(side_b.mac, b_inner_mac);
    debug_assert_eq!(side_a.iface.neigh.get(&side_b.ip), Some(&b_inner_mac));
    let _ = (a_underlay_mac, b_underlay_mac);
    (side_a, side_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::CpuCategory;
    use metrics::CpuLocation;
    use simnet::engine::Network;
    use simnet::frame::Payload;
    use simnet::testutil::CaptureSink;
    use simnet::time::SimDuration;
    use simnet::SockAddr;
    use simnet::StopCondition;

    fn inner_frame(src_mac: MacAddr, dst_mac: MacAddr) -> Frame {
        Frame::udp(
            src_mac,
            dst_mac,
            SockAddr::new(Ip4::new(10, 0, 0, 2), 1000),
            SockAddr::new(Ip4::new(10, 0, 0, 3), 2000),
            Payload::sized(100),
        )
    }

    #[test]
    fn encap_decap_roundtrip_through_two_vteps() {
        let mut net = Network::new(0);
        let a_mac = MacAddr::local(1);
        let b_mac = MacAddr::local(2);
        let a_ip = Ip4::new(192, 168, 0, 10);
        let b_ip = Ip4::new(192, 168, 0, 11);
        let cost = StageCost::fixed(1_000, 0.0, CpuCategory::Soft);

        let mut fdb_a = FxHashMap::default();
        fdb_a.insert(b_mac, (b_ip, MacAddr::local(12)));
        let vtep_a = net.add_device(
            "vtep-a",
            CpuLocation::Vm(1),
            Box::new(Vtep::new(
                42,
                a_ip,
                MacAddr::local(11),
                fdb_a,
                cost,
                SharedStation::new(),
            )),
        );
        let vtep_b = net.add_device(
            "vtep-b",
            CpuLocation::Vm(2),
            Box::new(Vtep::new(
                42,
                b_ip,
                MacAddr::local(12),
                FxHashMap::default(),
                cost,
                SharedStation::new(),
            )),
        );
        let sink = net.add_device(
            "sink",
            CpuLocation::Vm(2),
            Box::new(CaptureSink::new("sink")),
        );
        // Underlay: direct wire for this unit test.
        net.connect(
            vtep_a,
            PortId::P1,
            vtep_b,
            PortId::P1,
            LinkParams::default(),
        );
        net.connect(vtep_b, PortId::P0, sink, PortId::P0, LinkParams::default());

        net.inject_frame(
            SimDuration::ZERO,
            vtep_a,
            PortId::P0,
            inner_frame(a_mac, b_mac),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("vtep.encapsulated"), 1.0);
        assert_eq!(net.store().counter("vtep.decapsulated"), 1.0);
        assert_eq!(net.store().counter("sink.received"), 1.0);
    }

    #[test]
    fn wrong_vni_is_dropped() {
        let mut net = Network::new(0);
        let cost = StageCost::fixed(100, 0.0, CpuCategory::Soft);
        let vtep = net.add_device(
            "vtep",
            CpuLocation::Vm(1),
            Box::new(Vtep::new(
                42,
                Ip4::new(1, 1, 1, 1),
                MacAddr::local(1),
                FxHashMap::default(),
                cost,
                SharedStation::new(),
            )),
        );
        let inner = inner_frame(MacAddr::local(5), MacAddr::local(6));
        let outer = inner.vxlan_encap(
            99, // wrong VNI
            MacAddr::local(2),
            MacAddr::local(1),
            Ip4::new(2, 2, 2, 2),
            Ip4::new(1, 1, 1, 1),
        );
        net.inject_frame(SimDuration::ZERO, vtep, PortId::P1, outer);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("vtep.drop_wrong_vni"), 1.0);
    }

    #[test]
    fn unknown_inner_dst_is_dropped() {
        let mut net = Network::new(0);
        let cost = StageCost::fixed(100, 0.0, CpuCategory::Soft);
        let vtep = net.add_device(
            "vtep",
            CpuLocation::Vm(1),
            Box::new(Vtep::new(
                42,
                Ip4::new(1, 1, 1, 1),
                MacAddr::local(1),
                FxHashMap::default(),
                cost,
                SharedStation::new(),
            )),
        );
        net.inject_frame(
            SimDuration::ZERO,
            vtep,
            PortId::P0,
            inner_frame(MacAddr::local(5), MacAddr::local(6)),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("vtep.drop_unknown_dst"), 1.0);
    }

    #[test]
    fn non_vxlan_on_underlay_is_dropped() {
        let mut net = Network::new(0);
        let cost = StageCost::fixed(100, 0.0, CpuCategory::Soft);
        let vtep = net.add_device(
            "vtep",
            CpuLocation::Vm(1),
            Box::new(Vtep::new(
                42,
                Ip4::new(1, 1, 1, 1),
                MacAddr::local(1),
                FxHashMap::default(),
                cost,
                SharedStation::new(),
            )),
        );
        net.inject_frame(
            SimDuration::ZERO,
            vtep,
            PortId::P1,
            inner_frame(MacAddr::local(5), MacAddr::local(6)),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("vtep.drop_not_vxlan"), 1.0);
    }

    #[test]
    fn two_node_overlay_builder_wires_everything() {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 8);
        let vm1 = vmm.create_vm(vmm::VmSpec::paper_eval("vm1"));
        let vm2 = vmm.create_vm(vmm::VmSpec::paper_eval("vm2"));
        let eth1 = vmm.add_nic(vm1, br, true, false);
        let eth2 = vmm.add_nic(vm2, br, true, false);
        let (a, b) = build_two_node_overlay(
            &mut vmm,
            7,
            (vm1, &eth1, Ip4::new(192, 168, 0, 10)),
            (vm2, &eth2, Ip4::new(192, 168, 0, 11)),
        );
        assert_ne!(a.ip, b.ip);
        assert!(OVERLAY_SUBNET.contains(a.ip) && OVERLAY_SUBNET.contains(b.ip));
        // Each side's attach point is free for the container endpoint.
        assert_eq!(vmm.network().peer(a.attach.0, a.attach.1), None);
        assert_eq!(vmm.network().peer(b.attach.0, b.attach.1), None);
        // Each side knows the peer's inner MAC.
        assert_eq!(a.iface.neigh.get(&b.ip), Some(&b.mac));
        assert_eq!(b.iface.neigh.get(&a.ip), Some(&a.mac));
    }
}
