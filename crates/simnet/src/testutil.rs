//! Test helpers shared by simnet's own tests and downstream crates' tests.
//!
//! Exposed behind the default `testutil` feature of the library (always
//! compiled; it is tiny and keeps cross-crate tests honest by reusing the
//! same capture devices everywhere).

use crate::addr::{Ip4, MacAddr, SockAddr};
use crate::costs::StageCost;
use crate::device::{Device, DeviceKind, PortId};
use crate::engine::{DevCtx, LinkParams, Network};
use crate::frame::{Frame, Payload};
use crate::shared::SharedStation;
use crate::time::SimDuration;
use metrics::{CpuCategory, CpuLocation, MetricId};

/// A sink device that records every received frame under
/// `"{name}.received"` (counter), `"{name}.arrival_ns"` (samples) and
/// `"{name}.bytes"` (counter).
pub struct CaptureSink {
    name: String,
    frames: Vec<Frame>,
    ids: Option<SinkIds>,
}

/// Interned metric ids, resolved from the name once on the first frame.
#[derive(Clone, Copy)]
struct SinkIds {
    received: MetricId,
    bytes: MetricId,
    arrival_ns: MetricId,
}

impl CaptureSink {
    /// Creates a sink labelled `name`.
    pub fn new(name: impl Into<String>) -> CaptureSink {
        CaptureSink {
            name: name.into(),
            frames: Vec::new(),
            ids: None,
        }
    }

    /// Frames captured so far (only observable before the device is added to
    /// a network, or in unit tests driving the device directly).
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }
}

impl Device for CaptureSink {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Endpoint
    }

    fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
        let name = &self.name;
        let ids = *self.ids.get_or_insert_with(|| SinkIds {
            received: ctx.metric(&format!("{name}.received")),
            bytes: ctx.metric(&format!("{name}.bytes")),
            arrival_ns: ctx.metric(&format!("{name}.arrival_ns")),
        });
        ctx.count_id(ids.received, 1.0);
        ctx.count_id(ids.bytes, frame.wire_len() as f64);
        ctx.record_id(ids.arrival_ns, ctx.now().as_nanos() as f64);
        self.frames.push(frame);
    }
}

/// Builds a UDP frame of `payload_len` bytes between two MACs with fixed
/// placeholder IPs/ports (for L2-only device tests).
pub fn frame_between(src: MacAddr, dst: MacAddr, payload_len: u32) -> Frame {
    Frame::udp(
        src,
        dst,
        SockAddr::new(Ip4::new(10, 0, 0, 1), 40_000),
        SockAddr::new(Ip4::new(10, 0, 0, 2), 50_000),
        Payload::sized(payload_len),
    )
}

/// A single-port responder: frames addressed to its MAC are served on its
/// station and bounced back to the sender; everything else (bridge floods
/// in transient learning phases) is counted as stray and dropped. The
/// traffic generator of the multi-host scenarios — a pair of bouncers
/// ping-pongs forever without any timer.
pub struct MacBouncer {
    name: String,
    mac: MacAddr,
    payload_len: u32,
    cost: StageCost,
    station: SharedStation,
    record_arrivals: bool,
    ids: Option<BouncerIds>,
}

#[derive(Clone, Copy)]
struct BouncerIds {
    bounced: MetricId,
    stray: MetricId,
    arrival_ns: Option<MetricId>,
}

impl MacBouncer {
    /// Creates a bouncer answering for `mac` with `payload_len`-byte
    /// replies. With `record_arrivals`, every accepted frame's arrival
    /// time is recorded under `"{name}.arrival_ns"`.
    pub fn new(
        name: impl Into<String>,
        mac: MacAddr,
        payload_len: u32,
        cost: StageCost,
        record_arrivals: bool,
    ) -> MacBouncer {
        MacBouncer {
            name: name.into(),
            mac,
            payload_len,
            cost,
            station: SharedStation::new(),
            record_arrivals,
            ids: None,
        }
    }
}

impl Device for MacBouncer {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Endpoint
    }

    fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
        let name = &self.name;
        let record_arrivals = self.record_arrivals;
        let ids = *self.ids.get_or_insert_with(|| BouncerIds {
            bounced: ctx.metric(&format!("{name}.bounced")),
            stray: ctx.metric(&format!("{name}.stray")),
            arrival_ns: record_arrivals.then(|| ctx.metric(&format!("{name}.arrival_ns"))),
        });
        if frame.dst_mac != self.mac {
            ctx.count_id(ids.stray, 1.0);
            return;
        }
        let done = self.station.serve(&self.cost, frame.wire_len(), ctx);
        ctx.count_id(ids.bounced, 1.0);
        if let Some(arrival) = ids.arrival_ns {
            ctx.record_id(arrival, ctx.now().as_nanos() as f64);
        }
        let reply = frame_between(self.mac, frame.src_mac, self.payload_len);
        ctx.transmit_at(done, PortId::P0, reply);
    }
}

/// Shape of the synthetic multi-host topology built by
/// [`build_multihost`]: `hosts` islands of one learning bridge plus
/// bouncer pairs, joined through a core bridge by latency-bearing uplinks.
/// Used by the cross-shard determinism tests and the `engine_throughput`
/// bench.
#[derive(Debug, Clone)]
pub struct MultihostSpec {
    /// Number of host islands (the core bridge forms one more island).
    pub hosts: usize,
    /// Ping-pong bouncer pairs per host (intra-host load).
    pub local_flows: usize,
    /// Reply payload length in bytes.
    pub payload_len: u32,
    /// One-way latency of each host-to-core uplink; this becomes the
    /// partition epoch.
    pub uplink_latency: SimDuration,
    /// Frame loss probability on the uplinks (exercises per-device RNG
    /// loss draws; cross chains die after a loss, local flows persist).
    pub loss: f64,
    /// Service-time jitter fraction for every station in the scenario.
    pub jitter: f64,
}

impl Default for MultihostSpec {
    fn default() -> MultihostSpec {
        MultihostSpec {
            hosts: 4,
            local_flows: 4,
            payload_len: 256,
            uplink_latency: SimDuration::micros(20),
            loss: 0.0,
            jitter: 0.05,
        }
    }
}

/// Builds the multi-host scenario on `net` and injects its initial
/// traffic: per-host ping-pong bouncer pairs behind a learning bridge,
/// one cross-host bouncer per host talking to the next host through the
/// core bridge. All intra-host links are zero-latency (gluing each host
/// into one partition island); only the uplinks carry latency.
pub fn build_multihost(net: &mut Network, spec: &MultihostSpec) {
    use crate::bridge::Bridge;
    assert!(spec.hosts >= 2, "a multi-host scenario needs two hosts");
    let bouncer_cost = StageCost::fixed(600, 0.2, CpuCategory::Usr).with_jitter(spec.jitter);
    let bridge_cost = StageCost::fixed(1_000, 0.3, CpuCategory::Sys).with_jitter(spec.jitter);
    let core_cost = StageCost::fixed(400, 0.05, CpuCategory::Sys).with_jitter(spec.jitter);
    let core = net.add_device(
        "core",
        CpuLocation::Host,
        Box::new(Bridge::new(spec.hosts, core_cost, SharedStation::new())),
    );
    let mut mac = 0u32;
    let mut next_mac = || {
        mac += 1;
        MacAddr::local(mac)
    };
    let mut cross = Vec::with_capacity(spec.hosts);
    for h in 0..spec.hosts {
        let nports = 2 * spec.local_flows + 2;
        let bridge = net.add_device(
            format!("h{h}.br"),
            CpuLocation::Host,
            Box::new(Bridge::new(nports, bridge_cost, SharedStation::new())),
        );
        for f in 0..spec.local_flows {
            let (ma, mb) = (next_mac(), next_mac());
            let a = net.add_device(
                format!("h{h}.f{f}.a"),
                CpuLocation::Host,
                Box::new(MacBouncer::new(
                    format!("h{h}.f{f}.a"),
                    ma,
                    spec.payload_len,
                    bouncer_cost,
                    false,
                )),
            );
            let b = net.add_device(
                format!("h{h}.f{f}.b"),
                CpuLocation::Host,
                Box::new(MacBouncer::new(
                    format!("h{h}.f{f}.b"),
                    mb,
                    spec.payload_len,
                    bouncer_cost,
                    false,
                )),
            );
            net.connect(a, PortId::P0, bridge, PortId(2 * f), LinkParams::default());
            net.connect(
                b,
                PortId::P0,
                bridge,
                PortId(2 * f + 1),
                LinkParams::default(),
            );
            // Kick the flow off: a frame from A arrives at B, which
            // replies, and the pair ping-pongs forever. Staggered starts
            // decorrelate the hosts.
            net.inject_frame(
                SimDuration::nanos((h as u64) * 131 + (f as u64) * 17),
                b,
                PortId::P0,
                frame_between(ma, mb, spec.payload_len),
            );
        }
        let mx = next_mac();
        let x = net.add_device(
            format!("h{h}.x"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(
                format!("h{h}.x"),
                mx,
                spec.payload_len,
                bouncer_cost,
                true,
            )),
        );
        net.connect(
            x,
            PortId::P0,
            bridge,
            PortId(2 * spec.local_flows),
            LinkParams::default(),
        );
        net.connect(
            bridge,
            PortId(2 * spec.local_flows + 1),
            core,
            PortId(h),
            LinkParams::with_latency(spec.uplink_latency).with_loss(spec.loss),
        );
        cross.push((x, mx));
    }
    // One cross-host chain per host: h's cross bouncer pings host h+1's.
    for h in 0..spec.hosts {
        let (_, src_mac) = cross[h];
        let (dst, dst_mac) = cross[(h + 1) % spec.hosts];
        net.inject_frame(
            SimDuration::nanos(7 + (h as u64) * 41),
            dst,
            PortId::P0,
            frame_between(src_mac, dst_mac, spec.payload_len),
        );
    }
}
