//! Application endpoints.
//!
//! An [`Endpoint`] is the socket-owning leaf of the datapath: benchmark
//! servers and clients (Netperf, Memcached, NGINX, Kafka models in the
//! `workloads` crate) implement [`Application`] and are hosted by an
//! endpoint, which provides address configuration, neighbor resolution,
//! transport filtering, and charges socket syscall costs.

use crate::addr::{Ip4, Ip4Net, MacAddr, SockAddr};
use crate::costs::StageCost;
use crate::device::{Device, DeviceKind, PortId};
use crate::engine::DevCtx;
use crate::frame::{Frame, Payload, TcpKind};
use crate::hash::{FxHashMap, FxHashSet};
use crate::shared::SharedStation;
use crate::time::{SimDuration, SimTime};
use metrics::{CpuCategory, MetricId};
use rand::rngs::StdRng;

/// Timer token reserved for application start-up.
pub const START_TOKEN: u64 = u64::MAX;

/// One NIC of an endpoint (port index = interface index).
#[derive(Debug, Clone)]
pub struct IfaceConf {
    /// Interface MAC.
    pub mac: MacAddr,
    /// Interface IP.
    pub ip: Ip4,
    /// On-link subnet.
    pub net: Ip4Net,
    /// Static neighbor table.
    pub neigh: FxHashMap<Ip4, MacAddr>,
    /// Default gateway reachable through this interface, if any.
    pub gateway: Option<(Ip4, MacAddr)>,
    /// When set, frames to unresolved on-link neighbors are sent to the
    /// broadcast MAC instead of being dropped (loopback/hostlo semantics,
    /// where the device floods and receivers filter).
    pub broadcast_unresolved: bool,
}

impl IfaceConf {
    /// Builds an interface with no neighbors and no gateway.
    pub fn new(mac: MacAddr, ip: Ip4, net: Ip4Net) -> IfaceConf {
        IfaceConf {
            mac,
            ip,
            net,
            neigh: FxHashMap::default(),
            gateway: None,
            broadcast_unresolved: false,
        }
    }

    /// Adds a neighbor entry.
    pub fn with_neigh(mut self, ip: Ip4, mac: MacAddr) -> IfaceConf {
        self.neigh.insert(ip, mac);
        self
    }

    /// Sets the default gateway.
    pub fn with_gateway(mut self, ip: Ip4, mac: MacAddr) -> IfaceConf {
        self.gateway = Some((ip, mac));
        self
    }

    /// Enables broadcast fallback for unresolved neighbors.
    pub fn with_broadcast_unresolved(mut self) -> IfaceConf {
        self.broadcast_unresolved = true;
        self
    }
}

/// A message delivered to an application.
#[derive(Debug, Clone)]
pub struct Incoming {
    /// Sender socket address (as seen on the wire, i.e. post-NAT).
    pub src: SockAddr,
    /// Destination socket address.
    pub dst: SockAddr,
    /// Application payload.
    pub payload: Payload,
    /// `(seq, kind)` when the message is TCP.
    pub tcp: Option<(u64, TcpKind)>,
}

/// The application behaviour plugged into an [`Endpoint`].
pub trait Application: Send {
    /// Called once when the endpoint's start timer fires.
    fn on_start(&mut self, api: &mut AppApi<'_, '_>);

    /// Called for every accepted message.
    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>);

    /// Called for application timers.
    fn on_timer(&mut self, token: u64, api: &mut AppApi<'_, '_>) {
        let _ = (token, api);
    }
}

/// Interned metric ids for an endpoint, resolved on first event.
#[derive(Clone, Copy)]
struct EndpointIds {
    filtered_l2: MetricId,
    filtered_l3: MetricId,
    delivered: MetricId,
    sent: MetricId,
    unroutable: MetricId,
    stage: MetricId,
}

impl EndpointIds {
    fn resolve(name: &str, ctx: &mut DevCtx<'_>) -> EndpointIds {
        EndpointIds {
            filtered_l2: ctx.metric(&format!("{name}.filtered_l2")),
            filtered_l3: ctx.metric(&format!("{name}.filtered_l3")),
            delivered: ctx.metric(&format!("{name}.delivered")),
            sent: ctx.metric("endpoint.sent"),
            unroutable: ctx.metric("endpoint.send_unroutable"),
            stage: ctx.metric("stage.endpoint"),
        }
    }
}

/// The capability surface an [`Application`] sees.
pub struct AppApi<'a, 'b> {
    ctx: &'a mut DevCtx<'b>,
    ifaces: &'a [IfaceConf],
    sock_cost: &'a StageCost,
    station: &'a SharedStation,
    ids: EndpointIds,
}

impl AppApi<'_, '_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Seeded RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        self.ctx.rng()
    }

    /// IP of interface `iface` (0 is the primary NIC).
    pub fn local_ip(&self, iface: usize) -> Ip4 {
        self.ifaces[iface].ip
    }

    /// Schedules an application timer.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        assert_ne!(token, START_TOKEN, "token reserved for endpoint start");
        self.ctx.set_timer(delay, token);
    }

    /// Interns a metric name, returning an id for the hash-free
    /// [`record_id`](AppApi::record_id)/[`count_id`](AppApi::count_id)
    /// paths. Applications call this once (first use) and cache the result.
    pub fn metric(&mut self, name: &str) -> MetricId {
        self.ctx.metric(name)
    }

    /// Records a measurement sample under a pre-interned id.
    #[inline]
    pub fn record_id(&mut self, id: MetricId, value: f64) {
        self.ctx.record_id(id, value);
    }

    /// Bumps a counter under a pre-interned id.
    #[inline]
    pub fn count_id(&mut self, id: MetricId, delta: f64) {
        self.ctx.count_id(id, delta);
    }

    /// Records a measurement sample (shim; interns `name` each call).
    pub fn record(&mut self, name: &str, value: f64) {
        self.ctx.record(name, value);
    }

    /// Bumps a counter (shim; interns `name` each call).
    pub fn count(&mut self, name: &str, delta: f64) {
        self.ctx.count(name, delta);
    }

    /// Consumes `d` of application CPU (`usr`), serializing with the
    /// endpoint's sends (single-threaded application model).
    pub fn compute(&mut self, d: SimDuration) {
        let cost = StageCost::fixed(d.as_nanos(), 0.0, CpuCategory::Usr);
        self.station.serve(&cost, 0, self.ctx);
    }

    /// Sends a UDP datagram from `src_port` to `dst`. The payload's
    /// `sent_at` is stamped with the current time if zero.
    pub fn send_udp(&mut self, src_port: u16, dst: SockAddr, payload: Payload) {
        self.send_inner(src_port, dst, None, payload);
    }

    /// Sends a TCP segment (`seq`, `kind`) from `src_port` to `dst`.
    pub fn send_tcp(
        &mut self,
        src_port: u16,
        dst: SockAddr,
        seq: u64,
        kind: TcpKind,
        payload: Payload,
    ) {
        self.send_inner(src_port, dst, Some((seq, kind)), payload);
    }

    fn send_inner(
        &mut self,
        src_port: u16,
        dst: SockAddr,
        tcp: Option<(u64, TcpKind)>,
        mut payload: Payload,
    ) {
        if payload.sent_at == SimTime::ZERO {
            payload.sent_at = self.ctx.now();
        }
        // Route: on-link interface first, then any interface with a gateway.
        let choice = self
            .ifaces
            .iter()
            .enumerate()
            .find(|(_, i)| i.net.contains(dst.ip))
            .map(|(idx, i)| {
                // On-link resolution order: static neighbor entry, then the
                // broadcast fallback (loopback/hostlo), then the gateway as
                // a proxy-ARP stand-in (the kernel would ARP and the router
                // would answer for hosts it fronts).
                let mac = i
                    .neigh
                    .get(&dst.ip)
                    .copied()
                    .or_else(|| i.broadcast_unresolved.then_some(MacAddr::BROADCAST))
                    .or_else(|| i.gateway.map(|(_, mac)| mac));
                (idx, i, mac)
            })
            .or_else(|| {
                self.ifaces
                    .iter()
                    .enumerate()
                    .find(|(_, i)| i.gateway.is_some())
                    .map(|(idx, i)| (idx, i, Some(i.gateway.expect("checked").1)))
            });

        let Some((idx, iface, Some(dst_mac))) = choice else {
            self.ctx.count_id(self.ids.unroutable, 1.0);
            return;
        };
        let src = SockAddr::new(iface.ip, src_port);
        let frame = match tcp {
            None => Frame::udp(iface.mac, dst_mac, src, dst, payload),
            Some((seq, kind)) => Frame::tcp(iface.mac, dst_mac, src, dst, seq, kind, payload),
        };
        let done = self
            .station
            .serve(self.sock_cost, frame.wire_len(), self.ctx);
        self.ctx.count_id(self.ids.sent, 1.0);
        self.ctx.transmit_at(done, PortId(idx), frame);
    }
}

/// The endpoint device: NIC configuration + bound ports + hosted app.
pub struct Endpoint {
    name: String,
    ifaces: Vec<IfaceConf>,
    bound: FxHashSet<u16>,
    app: Option<Box<dyn Application>>,
    sock_cost: StageCost,
    station: SharedStation,
    ids: Option<EndpointIds>,
}

impl Endpoint {
    /// Creates an endpoint hosting `app`.
    ///
    /// `bound` is the set of transport ports the application listens on;
    /// frames to other ports are filtered (the kernel would not deliver
    /// them to any socket). `station` is the kernel station of the node the
    /// endpoint runs on; `sock_cost` is charged per send/receive.
    pub fn new(
        name: impl Into<String>,
        ifaces: Vec<IfaceConf>,
        bound: impl IntoIterator<Item = u16>,
        sock_cost: StageCost,
        station: SharedStation,
        app: Box<dyn Application>,
    ) -> Endpoint {
        assert!(!ifaces.is_empty(), "endpoint needs at least one interface");
        Endpoint {
            name: name.into(),
            ifaces,
            bound: bound.into_iter().collect(),
            app: Some(app),
            sock_cost,
            station,
            ids: None,
        }
    }

    fn ids(&mut self, ctx: &mut DevCtx<'_>) -> EndpointIds {
        let name = &self.name;
        *self
            .ids
            .get_or_insert_with(|| EndpointIds::resolve(name, ctx))
    }

    fn with_app<R>(
        &mut self,
        ctx: &mut DevCtx<'_>,
        f: impl FnOnce(&mut dyn Application, &mut AppApi<'_, '_>) -> R,
    ) -> R {
        let ids = self.ids(ctx);
        let mut app = self.app.take().expect("application re-entered");
        let mut api = AppApi {
            ctx,
            ifaces: &self.ifaces,
            sock_cost: &self.sock_cost,
            station: &self.station,
            ids,
        };
        let r = f(app.as_mut(), &mut api);
        self.app = Some(app);
        r
    }
}

impl Device for Endpoint {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Endpoint
    }

    fn on_frame(&mut self, port: PortId, mut frame: Frame, ctx: &mut DevCtx<'_>) {
        assert!(
            port.0 < self.ifaces.len(),
            "frame on nonexistent endpoint port"
        );
        let ids = self.ids(ctx);
        let iface = &self.ifaces[port.0];

        // L2 filter.
        if frame.dst_mac != iface.mac && !frame.dst_mac.is_multicast() {
            ctx.count_id(ids.filtered_l2, 1.0);
            return;
        }
        // L3/L4 filter: addressed to me, on a bound port.
        let Some(dst) = frame.ip.dst_sock() else {
            ctx.count_id(ids.filtered_l3, 1.0);
            return;
        };
        if dst.ip != iface.ip || !self.bound.contains(&dst.port) {
            ctx.count_id(ids.filtered_l3, 1.0);
            return;
        }
        let Some(src) = frame.ip.src_sock() else {
            ctx.count_id(ids.filtered_l3, 1.0);
            return;
        };

        // Receive syscall cost. The span closes the frame's flight path at
        // its delivery point.
        let done = self.station.serve(&self.sock_cost, frame.wire_len(), ctx);
        ctx.stage_frame(ids.stage, &mut frame, done);
        ctx.count_id(ids.delivered, 1.0);

        let tcp = match &frame.ip.transport {
            crate::frame::Transport::Tcp { seq, kind, .. } => Some((*seq, *kind)),
            _ => None,
        };
        let payload = frame.ip.transport.payload().cloned().unwrap_or_default();
        let msg = Incoming {
            src,
            dst,
            payload,
            tcp,
        };
        self.with_app(ctx, |app, api| app.on_message(msg, api));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut DevCtx<'_>) {
        if token == START_TOKEN {
            self.with_app(ctx, |app, api| app.on_start(api));
        } else {
            self.with_app(ctx, |app, api| app.on_timer(token, api));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StopCondition;
    use crate::engine::{LinkParams, Network};
    use metrics::CpuLocation;

    /// Echoes every message back to its sender, tagging replies.
    struct Echo {
        port: u16,
    }

    impl Application for Echo {
        fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
            api.count("echo.started", 1.0);
        }
        fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
            let mut p = Payload::sized(msg.payload.len);
            p.tag = msg.payload.tag;
            api.send_udp(self.port, msg.src, p);
        }
    }

    /// Sends one request on start; records the RTT of the reply.
    struct Once {
        dst: SockAddr,
        port: u16,
    }

    impl Application for Once {
        fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
            let mut p = Payload::sized(100);
            p.tag = 7;
            api.send_udp(self.port, self.dst, p);
        }
        fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
            assert_eq!(msg.payload.tag, 7);
            api.record("rtt_ns", api.now().as_nanos() as f64);
        }
    }

    fn net_pair() -> Network {
        let subnet = Ip4Net::new(Ip4::new(10, 0, 0, 0), 24);
        let a_mac = MacAddr::local(1);
        let b_mac = MacAddr::local(2);
        let a_ip = subnet.host(1);
        let b_ip = subnet.host(2);
        let mut net = Network::new(0);
        let cost = StageCost::fixed(1_000, 0.0, CpuCategory::Usr);
        let client = Endpoint::new(
            "client",
            vec![IfaceConf::new(a_mac, a_ip, subnet).with_neigh(b_ip, b_mac)],
            [4000],
            cost,
            SharedStation::new(),
            Box::new(Once {
                dst: SockAddr::new(b_ip, 5000),
                port: 4000,
            }),
        );
        let server = Endpoint::new(
            "server",
            vec![IfaceConf::new(b_mac, b_ip, subnet).with_neigh(a_ip, a_mac)],
            [5000],
            cost,
            SharedStation::new(),
            Box::new(Echo { port: 5000 }),
        );
        let c = net.add_device("client", CpuLocation::Host, Box::new(client));
        let s = net.add_device("server", CpuLocation::Host, Box::new(server));
        net.connect(
            c,
            PortId::P0,
            s,
            PortId::P0,
            LinkParams::with_latency(SimDuration::micros(1)),
        );
        net.schedule_timer(SimDuration::ZERO, s, START_TOKEN);
        net.schedule_timer(SimDuration::ZERO, c, START_TOKEN);
        net
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut net = net_pair();
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("echo.started"), 1.0);
        assert_eq!(net.store().samples("rtt_ns").len(), 1);
        // send 1us + link 1us, then the reply send queues behind the
        // server's 1us receive cost (3us), completes at 4us, +1us link.
        assert_eq!(net.store().samples("rtt_ns")[0], 5_000.0);
    }

    #[test]
    fn unbound_port_is_filtered() {
        let mut net = net_pair();
        // Inject a frame to the server on a port nobody bound.
        let f = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            SockAddr::new(Ip4::new(10, 0, 0, 1), 4000),
            SockAddr::new(Ip4::new(10, 0, 0, 2), 9999),
            Payload::sized(10),
        );
        net.inject_frame(SimDuration::ZERO, crate::device::DeviceId(1), PortId::P0, f);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("server.filtered_l3"), 1.0);
    }

    #[test]
    fn wrong_mac_is_filtered() {
        let mut net = net_pair();
        let f = Frame::udp(
            MacAddr::local(1),
            MacAddr::local(77), // not the server's MAC
            SockAddr::new(Ip4::new(10, 0, 0, 1), 4000),
            SockAddr::new(Ip4::new(10, 0, 0, 2), 5000),
            Payload::sized(10),
        );
        net.inject_frame(SimDuration::ZERO, crate::device::DeviceId(1), PortId::P0, f);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("server.filtered_l2"), 1.0);
    }

    #[test]
    fn unroutable_send_is_counted() {
        struct SendNowhere;
        impl Application for SendNowhere {
            fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
                api.send_udp(
                    1,
                    SockAddr::new(Ip4::new(99, 99, 99, 99), 1),
                    Payload::sized(1),
                );
            }
            fn on_message(&mut self, _: Incoming, _: &mut AppApi<'_, '_>) {}
        }
        let mut net = Network::new(0);
        let e = Endpoint::new(
            "e",
            vec![IfaceConf::new(
                MacAddr::local(1),
                Ip4::new(10, 0, 0, 1),
                Ip4Net::new(Ip4::new(10, 0, 0, 0), 24),
            )],
            [1],
            StageCost::fixed(1, 0.0, CpuCategory::Usr),
            SharedStation::new(),
            Box::new(SendNowhere),
        );
        let id = net.add_device("e", CpuLocation::Host, Box::new(e));
        net.schedule_timer(SimDuration::ZERO, id, START_TOKEN);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("endpoint.send_unroutable"), 1.0);
    }

    #[test]
    fn broadcast_unresolved_falls_back_to_flood() {
        struct SendOnLink;
        impl Application for SendOnLink {
            fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
                api.send_udp(
                    1,
                    SockAddr::new(Ip4::new(10, 0, 0, 9), 2),
                    Payload::sized(1),
                );
            }
            fn on_message(&mut self, _: Incoming, _: &mut AppApi<'_, '_>) {}
        }
        let mut net = Network::new(0);
        let e = Endpoint::new(
            "e",
            vec![IfaceConf::new(
                MacAddr::local(1),
                Ip4::new(10, 0, 0, 1),
                Ip4Net::new(Ip4::new(10, 0, 0, 0), 24),
            )
            .with_broadcast_unresolved()],
            [1],
            StageCost::fixed(1, 0.0, CpuCategory::Usr),
            SharedStation::new(),
            Box::new(SendOnLink),
        );
        let id = net.add_device("e", CpuLocation::Host, Box::new(e));
        let sink = net.add_device(
            "sink",
            CpuLocation::Host,
            Box::new(crate::testutil::CaptureSink::new("sink")),
        );
        net.connect(id, PortId::P0, sink, PortId::P0, LinkParams::default());
        net.schedule_timer(SimDuration::ZERO, id, START_TOKEN);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("sink.received"), 1.0);
        assert_eq!(net.store().counter("endpoint.sent"), 1.0);
    }

    #[test]
    fn compute_serializes_with_sends() {
        struct Busy {
            dst: SockAddr,
        }
        impl Application for Busy {
            fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
                api.compute(SimDuration::micros(10));
                api.send_udp(1, self.dst, Payload::sized(1));
            }
            fn on_message(&mut self, _: Incoming, _: &mut AppApi<'_, '_>) {}
        }
        let mut net = Network::new(0);
        let subnet = Ip4Net::new(Ip4::new(10, 0, 0, 0), 24);
        let e = Endpoint::new(
            "e",
            vec![IfaceConf::new(MacAddr::local(1), subnet.host(1), subnet)
                .with_neigh(subnet.host(2), MacAddr::local(2))],
            [1],
            StageCost::fixed(1_000, 0.0, CpuCategory::Usr),
            SharedStation::new(),
            Box::new(Busy {
                dst: SockAddr::new(subnet.host(2), 2),
            }),
        );
        let id = net.add_device("e", CpuLocation::Host, Box::new(e));
        let sink = net.add_device(
            "sink",
            CpuLocation::Host,
            Box::new(crate::testutil::CaptureSink::new("sink")),
        );
        net.connect(id, PortId::P0, sink, PortId::P0, LinkParams::default());
        net.schedule_timer(SimDuration::ZERO, id, START_TOKEN);
        net.run(StopCondition::Idle);
        // 10us compute + 1us socket send
        assert_eq!(net.store().samples("sink.arrival_ns"), &[11_000.0]);
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Usr), 11_000);
    }
}
