//! The Hostlo TAP device (§4.2).
//!
//! The paper modifies the Linux TAP driver so that one TAP device:
//!
//! * "provides at least one RX/TX queue for each VM that is served", and
//! * "sends back any received Ethernet frame to all of its queues".
//!
//! Here each queue is a port of the device; the VM-side vhost workers attach
//! to the queues. The broadcast fan-out means the device does per-queue copy
//! work for every frame — that is the host-kernel CPU cost the paper
//! measures in §5.3.4 (and notes is mis-attributed to host `sys`).

use metrics::MetricId;
use simnet::costs::StageCost;
use simnet::device::{Device, DeviceKind, PortId};
use simnet::engine::DevCtx;
use simnet::filter::{FilterControl, FilterHook, Verdict};
use simnet::frame::Frame;
use simnet::shared::SharedStation;

/// How the TAP distributes a received frame to its queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FanoutMode {
    /// Paper-faithful: echo to *all* queues, including the sender's. The
    /// sender's guest stack receives its own frame back and discards it at
    /// the socket layer (no bound socket matches).
    AllQueues,
    /// Echo to all queues except the ingress one (saves one copy per frame;
    /// evaluated by the `ablation_hostlo_fanout` bench).
    ExcludeIngress,
}

/// A multi-queue loopback TAP multiplexed between VMs.
pub struct HostloTap {
    nqueues: usize,
    cost_per_queue: StageCost,
    mode: FanoutMode,
    station: SharedStation,
    /// Interned (frames counter, queue-copies counter, flight stage) ids.
    ids: Option<(MetricId, MetricId, MetricId)>,
    /// FORWARD filter hook, with its own state tracker: the Hostlo CNI
    /// lands NetworkPolicy chains on the TAP so cross-VM pod-localhost
    /// traffic is covered on the host.
    filter: FilterHook,
}

impl HostloTap {
    /// Creates a hostlo TAP with `nqueues` queues (one per served VM).
    pub fn new(
        nqueues: usize,
        cost_per_queue: StageCost,
        mode: FanoutMode,
        station: SharedStation,
    ) -> HostloTap {
        assert!(nqueues >= 2, "a hostlo TAP serves at least two VMs");
        HostloTap {
            nqueues,
            cost_per_queue,
            mode,
            station,
            ids: None,
            filter: FilterHook::default(),
        }
    }

    /// Number of queues.
    pub fn nqueues(&self) -> usize {
        self.nqueues
    }

    /// The TAP's FORWARD filter table handle (clone it out before boxing
    /// the device into a network).
    pub fn filter(&self) -> FilterControl {
        self.filter.control()
    }
}

impl Device for HostloTap {
    fn kind(&self) -> DeviceKind {
        DeviceKind::HostloTap
    }

    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
        assert!(port.0 < self.nqueues, "frame on nonexistent hostlo queue");
        let (frames_id, copies_id, stage) = *self.ids.get_or_insert_with(|| {
            (
                ctx.metric("hostlo.frames"),
                ctx.metric("hostlo.queue_copies"),
                ctx.metric("stage.hostlo"),
            )
        });
        ctx.count_id(frames_id, 1.0);

        // FORWARD filter, evaluated once per ingress frame (not per queue
        // copy): a verdict applies to the frame, not to each fan-out leg.
        // The TAP's worker serves a refused frame once before its notice
        // goes back into the ingress queue.
        match self.filter.judge_frame(&frame, ctx) {
            Verdict::Accept => {}
            Verdict::Drop => return,
            Verdict::Reject => {
                let done = self
                    .station
                    .serve(&self.cost_per_queue, frame.wire_len(), ctx);
                let notice = FilterHook::notice(&frame, frame.dst_mac, frame.ip.dst);
                ctx.transmit_at(done, port, notice);
                return;
            }
        }

        // Copies serialize on the TAP's kernel worker; destination queues
        // are served before the echo back into the sender's own queue, so
        // the echo never delays actual deliveries.
        let order = (0..self.nqueues)
            .filter(|&q| q != port.0)
            .chain(std::iter::once(port.0));
        for q in order {
            if self.mode == FanoutMode::ExcludeIngress && q == port.0 {
                continue;
            }
            if !ctx.is_linked(PortId(q)) {
                continue;
            }
            let done = self
                .station
                .serve(&self.cost_per_queue, frame.wire_len(), ctx);
            ctx.count_id(copies_id, 1.0);
            // One span per queue copy: each clone carries its own parent
            // link, so a recipient's downstream path nests under the copy
            // that actually reached it.
            let mut copy = frame.clone();
            ctx.stage_frame(stage, &mut copy, done);
            ctx.transmit_at(done, PortId(q), copy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{CpuCategory, CpuLocation, JournalKind};
    use simnet::engine::{LinkParams, Network};
    use simnet::filter::{FilterRule, StateMask, REJECT_TAG};
    use simnet::frame::Payload;
    use simnet::testutil::{frame_between, CaptureSink};
    use simnet::time::SimDuration;
    use simnet::StopCondition;
    use simnet::{Ip4, MacAddr, SockAddr};

    fn build(mode: FanoutMode, nqueues: usize) -> (Network, simnet::DeviceId) {
        let mut net = Network::new(0);
        let tap = net.add_device(
            "hostlo0",
            CpuLocation::Host,
            Box::new(HostloTap::new(
                nqueues,
                StageCost::fixed(1_000, 0.0, CpuCategory::Sys),
                mode,
                SharedStation::new(),
            )),
        );
        for q in 0..nqueues {
            let s = net.add_device(
                format!("vm{q}"),
                CpuLocation::Vm(q as u32),
                Box::new(CaptureSink::new(format!("vm{q}"))),
            );
            net.connect(tap, PortId(q), s, PortId::P0, LinkParams::default());
        }
        (net, tap)
    }

    #[test]
    fn broadcasts_to_all_queues_including_sender() {
        let (mut net, tap) = build(FanoutMode::AllQueues, 3);
        net.inject_frame(
            SimDuration::ZERO,
            tap,
            PortId(1),
            frame_between(MacAddr::local(1), MacAddr::BROADCAST, 100),
        );
        net.run(StopCondition::Idle);
        for q in 0..3 {
            assert_eq!(
                net.store().counter(&format!("vm{q}.received")),
                1.0,
                "queue {q}"
            );
        }
        assert_eq!(net.store().counter("hostlo.queue_copies"), 3.0);
    }

    #[test]
    fn exclude_ingress_skips_sender_queue() {
        let (mut net, tap) = build(FanoutMode::ExcludeIngress, 3);
        net.inject_frame(
            SimDuration::ZERO,
            tap,
            PortId(1),
            frame_between(MacAddr::local(1), MacAddr::BROADCAST, 100),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("vm0.received"), 1.0);
        assert_eq!(net.store().counter("vm1.received"), 0.0);
        assert_eq!(net.store().counter("vm2.received"), 1.0);
        assert_eq!(net.store().counter("hostlo.queue_copies"), 2.0);
    }

    #[test]
    fn per_queue_copies_serialize_and_charge_host() {
        let (mut net, tap) = build(FanoutMode::AllQueues, 4);
        net.inject_frame(
            SimDuration::ZERO,
            tap,
            PortId(0),
            frame_between(MacAddr::local(1), MacAddr::BROADCAST, 100),
        );
        net.run(StopCondition::Idle);
        // Four copies at 1us each, serialized: arrivals at 1,2,3,4us.
        let mut arrivals: Vec<f64> = (0..4)
            .flat_map(|q| net.store().samples(&format!("vm{q}.arrival_ns")).to_vec())
            .collect();
        arrivals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(arrivals, vec![1_000.0, 2_000.0, 3_000.0, 4_000.0]);
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Sys), 4_000);
        // The hostlo copy work lands on the host, not on any guest.
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Guest), 0);
    }

    #[test]
    fn unlinked_queue_is_skipped() {
        let mut net = Network::new(0);
        let tap = net.add_device(
            "hostlo0",
            CpuLocation::Host,
            Box::new(HostloTap::new(
                3,
                StageCost::fixed(1_000, 0.0, CpuCategory::Sys),
                FanoutMode::AllQueues,
                SharedStation::new(),
            )),
        );
        // Only queue 2 is linked.
        let s = net.add_device("vm2", CpuLocation::Vm(2), Box::new(CaptureSink::new("vm2")));
        net.connect(tap, PortId(2), s, PortId::P0, LinkParams::default());
        net.inject_frame(
            SimDuration::ZERO,
            tap,
            PortId(0),
            frame_between(MacAddr::local(1), MacAddr::BROADCAST, 100),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("vm2.received"), 1.0);
        assert_eq!(net.store().counter("hostlo.queue_copies"), 1.0);
        assert_eq!(net.dropped_no_link(), 0);
    }

    /// Counts received frames and REJECT notices, and records arrivals.
    struct NoticeSink(String);

    impl Device for NoticeSink {
        fn kind(&self) -> DeviceKind {
            DeviceKind::Endpoint
        }

        fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
            let name = &self.0;
            ctx.count(&format!("{name}.received"), 1.0);
            ctx.record(&format!("{name}.arrival_ns"), ctx.now().as_nanos() as f64);
            if frame
                .ip
                .transport
                .payload()
                .is_some_and(|p| p.tag == REJECT_TAG)
            {
                ctx.count(&format!("{name}.notices"), 1.0);
            }
        }
    }

    /// A three-queue TAP (1 µs per queue service, host `sys`) with a
    /// [`NoticeSink`] on every queue, under full telemetry, plus the TAP's
    /// filter handle.
    fn filtered() -> (Network, simnet::DeviceId, FilterControl) {
        let mut net = Network::new(0);
        net.set_telemetry_config(metrics::TelemetryConfig::full());
        let tap = HostloTap::new(
            3,
            StageCost::fixed(1_000, 0.0, CpuCategory::Sys),
            FanoutMode::AllQueues,
            SharedStation::new(),
        );
        let filter = tap.filter();
        let tap = net.add_device("hostlo0", CpuLocation::Host, Box::new(tap));
        for q in 0..3 {
            let s = net.add_device(
                format!("vm{q}"),
                CpuLocation::Vm(q as u32),
                Box::new(NoticeSink(format!("vm{q}"))),
            );
            net.connect(tap, PortId(q), s, PortId::P0, LinkParams::default());
        }
        (net, tap, filter)
    }

    fn sock(host: u8, port: u16) -> SockAddr {
        SockAddr::new(Ip4::new(10, 0, 0, host), port)
    }

    fn udp(src: SockAddr, dst: SockAddr) -> Frame {
        Frame::udp(
            MacAddr::local(u32::from(src.ip.0 as u8)),
            MacAddr::BROADCAST,
            src,
            dst,
            Payload::sized(100),
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
    fn reject_serves_the_station_then_notifies_the_ingress_queue() {
        let (mut net, tap, filter) = filtered();
        let id = filter.install(FilterRule::any(Verdict::Reject).port(80));
        net.inject_frame(
            SimDuration::ZERO,
            tap,
            PortId(1),
            udp(sock(1, 40_000), sock(2, 80)),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("filter.forward.reject"), 1.0);
        assert_eq!(filter_drops(&net), vec![(tap.0 as u64, id, 1)]);
        // The notice goes back into the ingress queue only, and the frame
        // is never fanned out.
        assert_eq!(net.store().counter("vm1.received"), 1.0);
        assert_eq!(net.store().counter("vm1.notices"), 1.0);
        assert_eq!(net.store().counter("vm0.received"), 0.0);
        assert_eq!(net.store().counter("vm2.received"), 0.0);
        assert_eq!(net.store().counter("hostlo.queue_copies"), 0.0);
        // The TAP's worker serves the refused frame once (1 µs) before the
        // notice leaves.
        assert_eq!(net.store().samples("vm1.arrival_ns"), &[1_000.0]);
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Sys), 1_000);
    }

    #[test]
    fn drop_is_counted_journaled_and_silent() {
        let (mut net, tap, filter) = filtered();
        let id = filter.install(FilterRule::any(Verdict::Drop).port(80));
        net.inject_frame(
            SimDuration::ZERO,
            tap,
            PortId(1),
            udp(sock(1, 40_000), sock(2, 80)),
        );
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("filter.forward.drop"), 1.0);
        assert_eq!(filter_drops(&net), vec![(tap.0 as u64, id, 0)]);
        for q in 0..3 {
            assert_eq!(net.store().counter(&format!("vm{q}.received")), 0.0);
        }
        assert_eq!(net.store().counter("hostlo.queue_copies"), 0.0);
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Sys), 0);
    }

    #[test]
    fn established_rule_admits_the_reverse_of_an_accepted_flow() {
        let (mut net, tap, filter) = filtered();
        filter.install(FilterRule::any(Verdict::Accept).states(StateMask::ESTABLISHED));
        filter.install(
            FilterRule::any(Verdict::Accept)
                .port(80)
                .states(StateMask::NEW),
        );
        filter.install(FilterRule::any(Verdict::Drop));
        let (a, b) = (sock(1, 40_000), sock(2, 80));
        let mut send = |queue: usize, src, dst| {
            net.inject_frame(SimDuration::ZERO, tap, PortId(queue), udp(src, dst));
            net.run(StopCondition::Idle);
            let c = |n: &str| net.store().counter(n);
            (
                c("filter.forward.accept"),
                c("filter.forward.drop"),
                c("vm0.received"),
            )
        };
        // Before any flow, b → a is NEW toward a port no rule admits.
        assert_eq!(send(1, b, a), (0.0, 1.0, 0.0));
        // a opens the flow to port 80: NEW, admitted, fanned out to all
        // three queues (a's own echo included).
        assert_eq!(send(0, a, b), (1.0, 1.0, 1.0));
        // The reverse direction is now ESTABLISHED and reaches a.
        assert_eq!(send(1, b, a), (2.0, 1.0, 2.0));
        // Another socket pair between the same hosts is RELATED, not
        // ESTABLISHED: dropped.
        assert_eq!(send(1, sock(2, 81), a), (2.0, 2.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn needs_two_queues() {
        HostloTap::new(
            1,
            StageCost::fixed(1, 0.0, CpuCategory::Sys),
            FanoutMode::AllQueues,
            SharedStation::new(),
        );
    }
}
