//! Learning Ethernet bridge.
//!
//! Both virtualization layers in the paper's fig. 1 rest on a Linux bridge:
//! the host bridge multiplexes the physical NIC between VMs, and the in-VM
//! bridge (the one BrFusion removes) multiplexes the VM's NIC between
//! containers. This implementation is a standard learning switch with a
//! forwarding database (FDB), ageing, and flooding of unknown/broadcast
//! destinations.

use crate::addr::MacAddr;
use crate::costs::StageCost;
use crate::device::{Device, DeviceKind, PortId};
use crate::engine::DevCtx;
use crate::filter::{FilterControl, FilterHook, Verdict};
use crate::frame::Frame;
use crate::hash::FxHashMap;
use crate::shared::SharedStation;
use crate::time::{SimDuration, SimTime};
use metrics::MetricId;

/// Default FDB entry lifetime (Linux default is 300 s).
pub const DEFAULT_AGEING: SimDuration = SimDuration::secs(300);

/// Default FDB capacity (entries). Linux bridges bound their FDB hash
/// table; without a cap, MAC churn grows the map without limit.
pub const DEFAULT_FDB_CAP: usize = 1024;

/// Interned counter ids, resolved on the first frame and cached.
#[derive(Clone, Copy)]
struct BridgeIds {
    flooded: MetricId,
    same_port_drop: MetricId,
    switched: MetricId,
    stage: MetricId,
}

impl BridgeIds {
    fn resolve(ctx: &mut DevCtx<'_>) -> BridgeIds {
        BridgeIds {
            flooded: ctx.metric("bridge.flooded"),
            same_port_drop: ctx.metric("bridge.same_port_drop"),
            switched: ctx.metric("bridge.switched"),
            stage: ctx.metric("stage.bridge"),
        }
    }
}

/// A learning Ethernet switch with `nports` ports.
pub struct Bridge {
    nports: usize,
    cost: StageCost,
    station: SharedStation,
    ageing: SimDuration,
    fdb_cap: usize,
    fdb: FxHashMap<MacAddr, (PortId, SimTime)>,
    ids: Option<BridgeIds>,
    /// FORWARD filter hook (NetworkPolicy chains land here when the CNI
    /// targets the bridge, e.g. BrFusion's fused host bridge), with its own
    /// state tracker: the bridge has no NAT conntrack to consult.
    /// Never-configured tables cost one atomic load per frame.
    filter: FilterHook,
}

impl Bridge {
    /// Creates a bridge with `nports` ports, per-frame switching `cost`, and
    /// the (possibly shared) service station of the kernel it runs in.
    pub fn new(nports: usize, cost: StageCost, station: SharedStation) -> Bridge {
        assert!(nports >= 2, "a bridge needs at least two ports");
        Bridge {
            nports,
            cost,
            station,
            ageing: DEFAULT_AGEING,
            fdb_cap: DEFAULT_FDB_CAP,
            fdb: FxHashMap::default(),
            ids: None,
            filter: FilterHook::default(),
        }
    }

    /// The bridge's FORWARD filter table handle (clone it out before
    /// boxing the device into a network).
    pub fn filter(&self) -> FilterControl {
        self.filter.control()
    }

    /// Overrides the FDB ageing time.
    pub fn with_ageing(mut self, ageing: SimDuration) -> Bridge {
        self.ageing = ageing;
        self
    }

    /// Overrides the FDB capacity.
    ///
    /// # Panics
    /// Panics on a zero capacity.
    pub fn with_fdb_cap(mut self, cap: usize) -> Bridge {
        assert!(cap > 0, "FDB capacity must be positive");
        self.fdb_cap = cap;
        self
    }

    /// Number of ports.
    pub fn nports(&self) -> usize {
        self.nports
    }

    /// Current FDB size. Aged entries are evicted when looked up and when
    /// learning past the capacity, so the count stays bounded by
    /// [`with_fdb_cap`](Bridge::with_fdb_cap) even under MAC churn.
    pub fn fdb_len(&self) -> usize {
        self.fdb.len()
    }

    fn lookup(&mut self, mac: MacAddr, now: SimTime) -> Option<PortId> {
        match self.fdb.get(&mac) {
            Some(&(p, learned)) if now.since(learned) <= self.ageing => Some(p),
            Some(_) => {
                // Stale hit: evict on the miss so the FDB only retains
                // entries that can still switch frames.
                self.fdb.remove(&mac);
                None
            }
            None => None,
        }
    }

    /// Learns `mac` on `port`, evicting past the capacity: aged entries
    /// first, then — if the table is full of live entries — the least
    /// recently learned one (ties broken on the MAC bytes, so eviction
    /// never depends on hash-map iteration order).
    fn learn(&mut self, mac: MacAddr, port: PortId, now: SimTime) {
        if self.fdb.len() >= self.fdb_cap && !self.fdb.contains_key(&mac) {
            let ageing = self.ageing;
            self.fdb
                .retain(|_, &mut (_, learned)| now.since(learned) <= ageing);
            while self.fdb.len() >= self.fdb_cap {
                let victim = self
                    .fdb
                    .iter()
                    .min_by_key(|&(m, &(_, learned))| (learned, m.0))
                    .map(|(m, _)| *m)
                    .expect("non-empty FDB at capacity");
                self.fdb.remove(&victim);
            }
        }
        self.fdb.insert(mac, (port, now));
    }
}

impl Device for Bridge {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Bridge
    }

    fn on_frame(&mut self, port: PortId, mut frame: Frame, ctx: &mut DevCtx<'_>) {
        assert!(port.0 < self.nports, "frame on nonexistent bridge port");
        let ids = *self.ids.get_or_insert_with(|| BridgeIds::resolve(ctx));
        let done = self.station.serve(&self.cost, frame.wire_len(), ctx);
        ctx.stage_frame(ids.stage, &mut frame, done);

        // Learn the source address on the ingress port.
        if !frame.src_mac.is_multicast() {
            self.learn(frame.src_mac, port, ctx.now());
        }

        if frame.dst_mac.is_multicast() {
            ctx.count_id(ids.flooded, 1.0);
            for p in 0..self.nports {
                if p != port.0 && ctx.is_linked(PortId(p)) {
                    ctx.transmit_at(done, PortId(p), frame.clone());
                }
            }
            return;
        }

        // FORWARD filter on transiting unicast transport frames (the
        // br_netfilter path: bridged traffic traverses the filter table).
        // A refused frame's notice leaves when the bridge's stage completes.
        match self.filter.judge_frame(&frame, ctx) {
            Verdict::Accept => {}
            Verdict::Drop => return,
            Verdict::Reject => {
                let notice = FilterHook::notice(&frame, frame.dst_mac, frame.ip.dst);
                ctx.transmit_at(done, port, notice);
                return;
            }
        }

        match self.lookup(frame.dst_mac, ctx.now()) {
            Some(out) if out == port => {
                // Destination learned on the ingress port: the frame does not
                // need switching (fig. 1 step 2 — it is NAT's job, upstream).
                ctx.count_id(ids.same_port_drop, 1.0);
            }
            Some(out) => {
                ctx.count_id(ids.switched, 1.0);
                ctx.transmit_at(done, out, frame);
            }
            None => {
                ctx.count_id(ids.flooded, 1.0);
                for p in 0..self.nports {
                    if p != port.0 && ctx.is_linked(PortId(p)) {
                        ctx.transmit_at(done, PortId(p), frame.clone());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ip4, SockAddr};
    use crate::engine::StopCondition;
    use crate::engine::{LinkParams, Network};
    use crate::frame::Payload;
    use crate::testutil::{frame_between, CaptureSink};
    use metrics::{CpuCategory, CpuLocation};

    fn mk_net() -> (
        Network,
        crate::device::DeviceId,
        Vec<crate::device::DeviceId>,
    ) {
        let mut net = Network::new(1);
        let bridge = net.add_device(
            "br0",
            CpuLocation::Host,
            Box::new(Bridge::new(
                3,
                StageCost::fixed(1_000, 0.0, CpuCategory::Sys),
                SharedStation::new(),
            )),
        );
        let sinks: Vec<_> = (0..3)
            .map(|i| {
                let s = net.add_device(
                    format!("sink{i}"),
                    CpuLocation::Host,
                    Box::new(CaptureSink::new(format!("sink{i}"))),
                );
                net.connect(bridge, PortId(i), s, PortId::P0, LinkParams::default());
                s
            })
            .collect();
        (net, bridge, sinks)
    }

    #[test]
    fn floods_unknown_then_switches_learned() {
        let (mut net, bridge, _sinks) = mk_net();
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);

        // a (on port 0) sends to unknown b: flood to ports 1 and 2.
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(a, b, 100),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("bridge.flooded"), 1.0);
        assert_eq!(net.store().counter("sink1.received"), 1.0);
        assert_eq!(net.store().counter("sink2.received"), 1.0);

        // b replies from port 1: a was learned on port 0 -> unicast switch.
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(1),
            frame_between(b, a, 100),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("bridge.switched"), 1.0);
        assert_eq!(net.store().counter("sink0.received"), 1.0);
        // no extra flood
        assert_eq!(net.store().counter("bridge.flooded"), 1.0);
    }

    #[test]
    fn broadcast_always_floods() {
        let (mut net, bridge, _sinks) = mk_net();
        let a = MacAddr::local(1);
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(2),
            frame_between(a, MacAddr::BROADCAST, 64),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("sink0.received"), 1.0);
        assert_eq!(net.store().counter("sink1.received"), 1.0);
        assert_eq!(
            net.store().counter("sink2.received"),
            0.0,
            "no echo to ingress"
        );
    }

    #[test]
    fn same_port_destination_is_dropped() {
        let (mut net, bridge, _sinks) = mk_net();
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        // Learn a on port 0 (b unknown: floods), then b on port 0 — at which
        // point a is already learned on the ingress port, so it drops.
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(a, b, 64),
        );
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(b, a, 64),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("bridge.same_port_drop"), 1.0);
        // Now a->b arrives on port 0 and b is learned on port 0 too.
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(a, b, 64),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("bridge.same_port_drop"), 2.0);
    }

    #[test]
    fn fdb_entries_age_out() {
        let (mut net, bridge, _sinks) = mk_net();
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(a, b, 64),
        );
        net.run(StopCondition::Idle);
        // After ageing, a is forgotten: a frame to a floods again.
        net.run(StopCondition::Until(
            crate::time::SimTime::ZERO + DEFAULT_AGEING + SimDuration::secs(1),
        ));
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(1),
            frame_between(b, a, 64),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("bridge.flooded"), 2.0);
    }

    #[test]
    fn switching_charges_cpu() {
        let (mut net, bridge, _sinks) = mk_net();
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(MacAddr::local(1), MacAddr::local(2), 64),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Sys), 1_000);
    }

    #[test]
    fn queueing_serializes_service() {
        let (mut net, bridge, _sinks) = mk_net();
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        // Two frames at t=0; 1us service each -> second leaves at 2us.
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(a, b, 64),
        );
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(a, b, 64),
        );
        net.run(StopCondition::Idle);
        let arr = net.store().samples("sink1.arrival_ns").to_vec();
        assert_eq!(arr, vec![1_000.0, 2_000.0]);
    }

    #[test]
    fn multicast_source_not_learned() {
        let (mut net, bridge, _sinks) = mk_net();
        let mcast = MacAddr([0x01, 0, 0x5e, 0, 0, 1]);
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(0),
            frame_between(mcast, MacAddr::local(9), 64),
        );
        net.run(StopCondition::Idle);
        // Frame towards mcast from another port must flood (not unicast).
        net.inject_frame(
            SimDuration::ZERO,
            bridge,
            PortId(1),
            frame_between(MacAddr::local(9), mcast, 64),
        );
        net.run(StopCondition::Idle);
        // Both the unknown-unicast and the multicast frame flooded.
        assert_eq!(net.store().counter("bridge.flooded"), 2.0);
    }

    #[test]
    fn fdb_evicts_aged_on_capacity_and_lookup_miss() {
        let mut br = Bridge::new(
            2,
            StageCost::fixed(1_000, 0.0, CpuCategory::Sys),
            SharedStation::new(),
        )
        .with_fdb_cap(4)
        .with_ageing(SimDuration::secs(1));
        // Fill to capacity at t=0.
        for i in 0..4 {
            br.learn(MacAddr::local(i), PortId(0), SimTime::ZERO);
        }
        assert_eq!(br.fdb_len(), 4);
        // Two seconds later every entry is aged: learning a fifth MAC
        // evicts all of them instead of growing past the cap.
        let later = SimTime::ZERO + SimDuration::secs(2);
        br.learn(MacAddr::local(10), PortId(1), later);
        assert_eq!(br.fdb_len(), 1, "aged entries evicted on insert");
        assert_eq!(br.lookup(MacAddr::local(10), later), Some(PortId(1)));
        // MAC churn with live entries: the least recently learned entry is
        // evicted, and the FDB never exceeds its capacity.
        for i in 0..10u32 {
            br.learn(
                MacAddr::local(100 + i),
                PortId(0),
                later + SimDuration::micros(u64::from(i)),
            );
        }
        assert_eq!(br.fdb_len(), 4, "capacity bounds the live FDB");
        let t = later + SimDuration::micros(20);
        assert_eq!(br.lookup(MacAddr::local(109), t), Some(PortId(0)));
        assert_eq!(
            br.lookup(MacAddr::local(100), t),
            None,
            "oldest churned out"
        );
        // A stale entry found by lookup is dropped on the miss, so
        // fdb_len no longer reports entries that cannot switch frames.
        let much_later = later + SimDuration::secs(5);
        assert_eq!(br.lookup(MacAddr::local(109), much_later), None);
        assert_eq!(br.fdb_len(), 3, "stale entry evicted by the lookup miss");
    }

    #[test]
    fn frame_between_helper_sets_sizes() {
        let f = frame_between(MacAddr::local(1), MacAddr::local(2), 256);
        assert_eq!(f.wire_len(), 18 + 20 + 8 + 256);
        let _ = SockAddr::new(Ip4::UNSPECIFIED, 0);
        let _ = Payload::sized(0);
    }
}
