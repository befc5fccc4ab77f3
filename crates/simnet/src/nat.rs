//! Netfilter-style NAT router.
//!
//! Docker publishes container ports by installing DNAT rules in the node's
//! PREROUTING chain and masquerading egress traffic; the VMM does the same at
//! the host level. This device models that whole traversal — conntrack
//! lookup, rule walk, rewrite, routing — as a single softirq-charged stage,
//! which is exactly the work BrFusion removes from the guest ("NAT rules are
//! applied on packets via hooks executed by software interrupts", §5.2.3).

use crate::addr::{Ip4, Ip4Net, MacAddr, SockAddr};
use crate::costs::StageCost;
use crate::device::{Device, DeviceKind, PortId};
use crate::engine::DevCtx;
use crate::filter::{ConnState, FilterControl, FilterHook, Verdict};
use crate::frame::{Frame, Transport};
use crate::hash::{FxHashMap, FxHashSet};
use crate::shared::SharedStation;
use crate::time::{SimDuration, SimTime};
use metrics::MetricId;

/// Transport protocol selector for NAT rules and conntrack keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// UDP.
    Udp,
    /// TCP.
    Tcp,
}

impl Proto {
    /// Classifies a transport header; `None` for port-less encapsulations.
    pub fn of(t: &Transport) -> Option<Proto> {
        match t {
            Transport::Udp { .. } => Some(Proto::Udp),
            Transport::Tcp { .. } => Some(Proto::Tcp),
            Transport::Vxlan { .. } => None,
        }
    }
}

/// One network interface of the router (index = port id).
#[derive(Debug, Clone)]
pub struct Interface {
    /// Interface MAC address.
    pub mac: MacAddr,
    /// Interface IPv4 address.
    pub ip: Ip4,
    /// Directly-connected subnet.
    pub net: Ip4Net,
    /// Static neighbor (ARP) table for this interface.
    pub neigh: FxHashMap<Ip4, MacAddr>,
}

impl Interface {
    /// Builds an interface with an empty neighbor table.
    pub fn new(mac: MacAddr, ip: Ip4, net: Ip4Net) -> Interface {
        Interface {
            mac,
            ip,
            net,
            neigh: FxHashMap::default(),
        }
    }

    /// Adds a neighbor entry.
    pub fn with_neigh(mut self, ip: Ip4, mac: MacAddr) -> Interface {
        self.neigh.insert(ip, mac);
        self
    }
}

/// A destination-NAT (port publishing) rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DnatRule {
    /// Protocol the rule applies to.
    pub proto: Proto,
    /// Destination IP to match; `None` matches any of the router's own
    /// interface addresses (Docker's `-p` behaviour).
    pub match_ip: Option<Ip4>,
    /// Destination port to match.
    pub match_port: u16,
    /// Translated destination.
    pub to: SockAddr,
}

/// A load-balancing DNAT rule: new flows rotate round-robin over the
/// backends (iptables' `statistic --mode nth`, what kube-proxy installs
/// for a Service). Established flows stick to their backend via conntrack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LbRule {
    /// Protocol the rule applies to.
    pub proto: Proto,
    /// Virtual (service) address to match.
    pub vip: SockAddr,
    /// Backend endpoints, rotated per new flow.
    pub backends: Vec<SockAddr>,
}

/// A static route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Destination subnet.
    pub net: Ip4Net,
    /// Egress port.
    pub port: PortId,
    /// Next-hop IP; `None` means the destination is on-link.
    pub via: Option<Ip4>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ConnKey {
    proto: Proto,
    src: SockAddr,
    dst: SockAddr,
}

#[derive(Debug, Clone, Copy)]
struct ConnEntry {
    new_src: SockAddr,
    new_dst: SockAddr,
    last_used: crate::time::SimTime,
}

/// Reverse index from a masquerade-side address to the conntrack keys
/// whose entry holds it: as the key's `dst` (a reply key) or as the
/// entry's `new_src` (a forward entry). Only addresses the port allocator
/// can ask about are indexed — the router's own interface IPs at ports
/// from [`NatRouter::NAT_PORT_BASE`] up. A published service address
/// would collect a holder per client flow, growing the heap and making
/// each removal a long list walk, for a question nobody asks.
#[derive(Debug)]
struct PortIndex {
    local: Vec<Ip4>,
    holders: FxHashMap<(Proto, SockAddr), Vec<ConnKey>>,
}

impl PortIndex {
    fn new(local: Vec<Ip4>) -> PortIndex {
        PortIndex {
            local,
            holders: FxHashMap::default(),
        }
    }

    /// The indexed addresses `(k, e)` holds, each once.
    fn held(&self, k: &ConnKey, e: &ConnEntry) -> [Option<SockAddr>; 2] {
        let indexed = |a: SockAddr| {
            (a.port >= NatRouter::NAT_PORT_BASE && self.local.contains(&a.ip)).then_some(a)
        };
        let second = if e.new_src == k.dst {
            None
        } else {
            indexed(e.new_src)
        };
        [indexed(k.dst), second]
    }

    fn link(&mut self, k: ConnKey, e: &ConnEntry) {
        for a in self.held(&k, e).into_iter().flatten() {
            // A masquerade port usually has two holders: the forward
            // entry and the reply key.
            self.holders
                .entry((k.proto, a))
                .or_insert_with(|| Vec::with_capacity(2))
                .push(k);
        }
    }

    fn unlink(&mut self, k: &ConnKey, e: &ConnEntry) {
        for a in self.held(k, e).into_iter().flatten() {
            let slot = (k.proto, a);
            let Some(keys) = self.holders.get_mut(&slot) else {
                continue;
            };
            keys.retain(|x| x != k);
            if keys.is_empty() {
                self.holders.remove(&slot);
            }
        }
    }
}

#[derive(Debug, Default)]
struct NatConfig {
    ifaces: Vec<Interface>,
    dnat: Vec<DnatRule>,
    lb: Vec<(LbRule, usize)>,
    masquerade: FxHashSet<PortId>,
    routes: Vec<Route>,
    /// Conntrack flush requests queued by [`NatControl::remove_dnat`]. The
    /// router drains them on its next frame, and every read path filters
    /// against them, so un-published flows stop translating the instant
    /// the rule is gone (conntrack -D alongside iptables -D).
    flush: Vec<DnatRule>,
    /// Bumped on every translation-affecting mutation. The flow fast path
    /// compares it per emission (see `flow.rs`), so a rule change
    /// escalates overlapping learned flows immediately instead of
    /// coasting for up to `NAT_PROBE_EVERY - 1` synthesized deliveries.
    epoch: u64,
}

impl NatConfig {
    fn is_local_ip(&self, ip: Ip4) -> bool {
        self.ifaces.iter().any(|i| i.ip == ip)
    }

    fn route_for(&self, dst: Ip4) -> Option<Route> {
        // Directly-connected subnets take precedence, then static routes.
        for (idx, iface) in self.ifaces.iter().enumerate() {
            if iface.net.contains(dst) {
                return Some(Route {
                    net: iface.net,
                    port: PortId(idx),
                    via: None,
                });
            }
        }
        self.routes.iter().copied().find(|r| r.net.contains(dst))
    }
}

/// A cloneable handle to a router's runtime-mutable configuration.
///
/// This models `iptables`/`ip` administration: Docker and the orchestrator
/// install DNAT rules, routes and neighbor entries while the datapath is
/// live, long after the router device was inserted into the network.
#[derive(Debug, Clone, Default)]
pub struct NatControl(std::sync::Arc<parking_lot::Mutex<NatConfig>>);

impl NatControl {
    /// Adds a DNAT (port-publishing) rule.
    pub fn add_dnat(&self, rule: DnatRule) {
        let mut cfg = self.0.lock();
        cfg.dnat.push(rule);
        cfg.epoch += 1;
    }

    /// Enables masquerade (source NAT to the interface address) on `port`.
    pub fn masquerade_on(&self, port: PortId) {
        let mut cfg = self.0.lock();
        cfg.masquerade.insert(port);
        cfg.epoch += 1;
    }

    /// Adds a static route. Routes are matched longest-prefix-first.
    pub fn add_route(&self, route: Route) {
        let mut cfg = self.0.lock();
        cfg.routes.push(route);
        cfg.routes.sort_by_key(|r| std::cmp::Reverse(r.net.prefix));
        cfg.epoch += 1;
    }

    /// Adds a neighbor (ARP) entry on interface `port`.
    pub fn add_neigh(&self, port: PortId, ip: Ip4, mac: MacAddr) {
        self.0.lock().ifaces[port.0].neigh.insert(ip, mac);
    }

    /// MAC of interface `port`.
    pub fn iface_mac(&self, port: PortId) -> MacAddr {
        self.0.lock().ifaces[port.0].mac
    }

    /// IP of interface `port`.
    pub fn iface_ip(&self, port: PortId) -> Ip4 {
        self.0.lock().ifaces[port.0].ip
    }

    /// Number of DNAT rules installed.
    pub fn dnat_len(&self) -> usize {
        self.0.lock().dnat.len()
    }

    /// Removes every DNAT rule matching `proto` + `match_port` (an
    /// `iptables -D` analogue; used when a publication moves to a new
    /// backend). Returns how many rules were removed.
    ///
    /// Conntrack entries established through a removed rule are flushed
    /// (the `conntrack -D` every un-publish needs): without the flush,
    /// established flows kept translating to the old backend forever —
    /// after the rule said they must not.
    pub fn remove_dnat(&self, proto: Proto, match_port: u16) -> usize {
        let mut cfg = self.0.lock();
        let mut removed = Vec::new();
        cfg.dnat.retain(|r| {
            let hit = r.proto == proto && r.match_port == match_port;
            if hit {
                removed.push(*r);
            }
            !hit
        });
        let n = removed.len();
        cfg.flush.extend(removed);
        cfg.epoch += 1;
        n
    }

    /// The translation-mutation epoch: bumped by every rule change. The
    /// flow fast path stamps learned paths with it and re-validates a
    /// flow the moment the epoch moves.
    pub fn change_epoch(&self) -> u64 {
        self.0.lock().epoch
    }

    /// Installs a round-robin load-balancing rule for a service VIP.
    ///
    /// # Panics
    /// Panics on an empty backend list.
    pub fn add_lb(&self, rule: LbRule) {
        assert!(
            !rule.backends.is_empty(),
            "a service needs at least one backend"
        );
        let mut cfg = self.0.lock();
        cfg.lb.push((rule, 0));
        cfg.epoch += 1;
    }
}

/// The NAT router device.
pub struct NatRouter {
    cfg: NatControl,
    ct: Conntrack,
    cost: StageCost,
    station: SharedStation,
    /// The FORWARD filter hook, evaluated post-DNAT / pre-SNAT like the
    /// kernel's filter-table hook. Costs one atomic load until engaged.
    filter: FilterHook,
    ids: Option<NatIds>,
}

/// The router's connection-tracking state. It lives apart from the
/// [`NatConfig`] so the frame path can hold the config lock and update
/// conntrack at the same time.
struct Conntrack {
    /// Written only through `insert` and `retain`, which keep `ports` in
    /// step.
    entries: FxHashMap<ConnKey, ConnEntry>,
    ports: PortIndex,
    /// Unordered address-pair index over live conntrack entries, for the
    /// filter table's RELATED state match (canonical low/high ip order).
    pair_last: FxHashMap<(Proto, Ip4, Ip4), SimTime>,
    timeout: SimDuration,
    frames_since_gc: u32,
    next_port: u16,
}

/// Interned counter ids, resolved on the first frame and cached.
#[derive(Clone, Copy)]
struct NatIds {
    not_for_us: MetricId,
    drop_ttl: MetricId,
    drop_no_route: MetricId,
    drop_no_neigh: MetricId,
    drop_port_exhausted: MetricId,
    routed: MetricId,
    conntrack_hit: MetricId,
    conntrack_new: MetricId,
    lb_assigned: MetricId,
    translated: MetricId,
    stage: MetricId,
}

impl NatIds {
    fn resolve(ctx: &mut DevCtx<'_>) -> NatIds {
        NatIds {
            not_for_us: ctx.metric("nat.not_for_us"),
            drop_ttl: ctx.metric("nat.drop_ttl"),
            drop_no_route: ctx.metric("nat.drop_no_route"),
            drop_no_neigh: ctx.metric("nat.drop_no_neigh"),
            drop_port_exhausted: ctx.metric("nat.drop_port_exhausted"),
            routed: ctx.metric("nat.routed"),
            conntrack_hit: ctx.metric("nat.conntrack_hit"),
            conntrack_new: ctx.metric("nat.conntrack_new"),
            lb_assigned: ctx.metric("nat.lb_assigned"),
            translated: ctx.metric("nat.translated"),
            stage: ctx.metric("stage.nat"),
        }
    }
}

impl NatRouter {
    /// First local port used for masquerade allocations (Linux default
    /// ephemeral range starts near here).
    pub const NAT_PORT_BASE: u16 = 32768;

    /// Default conntrack entry lifetime (Linux UDP stream default).
    pub const DEFAULT_CONNTRACK_TIMEOUT: SimDuration = SimDuration::secs(120);

    /// Creates a router with the given interfaces (one per port).
    pub fn new(ifaces: Vec<Interface>, cost: StageCost, station: SharedStation) -> NatRouter {
        assert!(!ifaces.is_empty(), "router needs at least one interface");
        // Interfaces are fixed for the router's life, so the port index
        // keeps its own copy of their addresses.
        let ports = PortIndex::new(ifaces.iter().map(|i| i.ip).collect());
        let cfg = NatControl::default();
        cfg.0.lock().ifaces = ifaces;
        NatRouter {
            cfg,
            ct: Conntrack {
                entries: FxHashMap::default(),
                ports,
                pair_last: FxHashMap::default(),
                timeout: Self::DEFAULT_CONNTRACK_TIMEOUT,
                frames_since_gc: 0,
                next_port: Self::NAT_PORT_BASE,
            },
            cost,
            station,
            filter: FilterHook::default(),
            ids: None,
        }
    }

    /// Overrides the conntrack entry timeout (`nf_conntrack_udp_timeout`
    /// analogue; default 120 s).
    pub fn with_conntrack_timeout(mut self, t: SimDuration) -> NatRouter {
        self.ct.timeout = t;
        self
    }

    /// The runtime configuration handle (clone and keep it to administer
    /// the router after inserting it into the network).
    pub fn control(&self) -> NatControl {
        self.cfg.clone()
    }

    /// The FORWARD filter-chain handle (clone and keep it to install
    /// policy rules after inserting the router into the network).
    pub fn filter(&self) -> FilterControl {
        self.filter.control()
    }

    /// Number of live conntrack entries at `now`: expired entries and
    /// entries covered by a pending `remove_dnat` flush are excluded,
    /// even if the router has been idle on data and its lazy frame-path
    /// GC never ran.
    pub fn conntrack_len(&self, now: SimTime) -> usize {
        let cfg = self.cfg.0.lock();
        self.ct
            .entries
            .iter()
            .filter(|(k, e)| {
                self.ct.entry_live(e, now) && !cfg.flush.iter().any(|r| flush_hits(r, k, e))
            })
            .count()
    }

    /// Resolves the conntrack state the filter table matches on, with
    /// expiry applied: ESTABLISHED for a live tracked tuple (either
    /// direction was installed at flow setup), RELATED for a fresh tuple
    /// between hosts that already carry a live same-protocol flow on
    /// other ports, NEW otherwise. Entries covered by a pending
    /// `remove_dnat` flush never report ESTABLISHED.
    pub fn conn_state(
        &self,
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
        now: SimTime,
    ) -> ConnState {
        let cfg = self.cfg.0.lock();
        self.ct.state(&cfg.flush, proto, src, dst, now)
    }
}

/// True when a flush request queued by `remove_dnat` covers this entry:
/// the forward direction translates *to* the removed rule's backend, the
/// reply direction originates *from* it.
fn flush_hits(rule: &DnatRule, k: &ConnKey, e: &ConnEntry) -> bool {
    k.proto == rule.proto && (e.new_dst == rule.to || k.src == rule.to)
}

/// Canonical (order-free) address-pair key for the RELATED index.
fn pair_key(proto: Proto, a: Ip4, b: Ip4) -> (Proto, Ip4, Ip4) {
    if a.0 <= b.0 {
        (proto, a, b)
    } else {
        (proto, b, a)
    }
}

impl Conntrack {
    /// True when `e` has not expired at `now`. Entries stamped later than
    /// `now` (a query older than the router's last activity) count as
    /// live rather than panicking time-went-backwards.
    fn entry_live(&self, e: &ConnEntry, now: SimTime) -> bool {
        now.0.saturating_sub(e.last_used.0) <= self.timeout.0
    }

    /// [`conn_state`](NatRouter::conn_state) against an explicit pending
    /// flush list (the frame path drains the list first and passes `&[]`;
    /// the public accessor must not re-lock the config).
    fn state(
        &self,
        flush: &[DnatRule],
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
        now: SimTime,
    ) -> ConnState {
        let key = ConnKey { proto, src, dst };
        if self.entries.get(&key).is_some_and(|e| {
            self.entry_live(e, now) && !flush.iter().any(|r| flush_hits(r, &key, e))
        }) {
            return ConnState::Established;
        }
        if self
            .pair_last
            .get(&pair_key(proto, src.ip, dst.ip))
            .is_some_and(|t| now.0.saturating_sub(t.0) <= self.timeout.0)
        {
            return ConnState::Related;
        }
        ConnState::New
    }

    /// Drains pending `remove_dnat` flush requests, purging the entries
    /// they cover. Runs at the head of every frame; read-only accessors
    /// filter against the pending list instead.
    fn drain_flush(&mut self, cfg: &mut NatConfig) {
        if cfg.flush.is_empty() {
            return;
        }
        for rule in std::mem::take(&mut cfg.flush) {
            self.retain(|k, e| !flush_hits(&rule, k, e));
        }
    }

    /// Installs (or replaces) an entry, keeping the port index in step.
    fn insert(&mut self, k: ConnKey, e: ConnEntry) {
        if let Some(old) = self.entries.insert(k, e) {
            self.ports.unlink(&k, &old);
        }
        self.ports.link(k, &e);
    }

    /// Removes every entry `keep` rejects, keeping the port index in step.
    fn retain(&mut self, mut keep: impl FnMut(&ConnKey, &ConnEntry) -> bool) {
        let ports = &mut self.ports;
        self.entries.retain(|k, e| {
            let kept = keep(k, e);
            if !kept {
                ports.unlink(k, e);
            }
            kept
        });
    }

    /// Allocates a masquerade source port on interface address `ip`,
    /// skipping ports still held by a live conntrack entry (the previous
    /// free-running counter handed out in-use ports after wrapping at
    /// `u16::MAX`, letting two flows share a source port). Returns `None`
    /// when every port of the range is genuinely in use.
    ///
    /// A port is held when a live entry carries `(ip, port)` in either
    /// direction: reply keys address the masquerade side as `dst`,
    /// forward entries carry it as `new_src`. The port index lists those
    /// entries per address, so each candidate costs a lookup and a
    /// liveness check of its own holders, not a pass over conntrack.
    fn alloc_port(&mut self, ip: Ip4, proto: Proto, now: SimTime) -> Option<u16> {
        let timeout = self.timeout;
        let range = u32::from(u16::MAX) - u32::from(NatRouter::NAT_PORT_BASE) + 1;
        for _ in 0..range {
            let p = self.next_port;
            self.next_port = self
                .next_port
                .checked_add(1)
                .unwrap_or(NatRouter::NAT_PORT_BASE);
            let held = self
                .ports
                .holders
                .get(&(proto, SockAddr::new(ip, p)))
                .is_some_and(|keys| {
                    keys.iter()
                        .any(|k| now.since(self.entries[k].last_used) <= timeout)
                });
            if !held {
                return Some(p);
            }
        }
        None
    }

    /// The allocator before the port index: one pass over conntrack
    /// collecting every port a live entry holds on `ip`. Kept as the
    /// reference the indexed allocator is tested against.
    #[cfg(test)]
    fn alloc_port_scan(&mut self, ip: Ip4, proto: Proto, now: SimTime) -> Option<u16> {
        let timeout = self.timeout;
        let in_use: std::collections::HashSet<u16> = self
            .entries
            .iter()
            .filter(|(k, e)| k.proto == proto && now.since(e.last_used) <= timeout)
            .flat_map(|(k, e)| {
                [k.dst, e.new_src]
                    .into_iter()
                    .filter(|s| s.ip == ip)
                    .map(|s| s.port)
            })
            .collect();
        let range = u32::from(u16::MAX) - u32::from(NatRouter::NAT_PORT_BASE) + 1;
        for _ in 0..range {
            let p = self.next_port;
            self.next_port = self
                .next_port
                .checked_add(1)
                .unwrap_or(NatRouter::NAT_PORT_BASE);
            if !in_use.contains(&p) {
                return Some(p);
            }
        }
        None
    }
}

impl Device for NatRouter {
    fn kind(&self) -> DeviceKind {
        DeviceKind::NatRouter
    }

    fn on_frame(&mut self, port: PortId, mut frame: Frame, ctx: &mut DevCtx<'_>) {
        let ids = *self.ids.get_or_insert_with(|| NatIds::resolve(ctx));
        let mut cfg = self.cfg.0.lock();
        assert!(
            port.0 < cfg.ifaces.len(),
            "frame on nonexistent router port"
        );

        // Routers only process frames addressed to their own interface (or
        // broadcast); bridge floods towards other hosts are ignored at L2.
        if frame.dst_mac != cfg.ifaces[port.0].mac && !frame.dst_mac.is_multicast() {
            ctx.count_id(ids.not_for_us, 1.0);
            return;
        }
        let done = self.station.serve(&self.cost, frame.wire_len(), ctx);
        // Staged right after service so frames the chain drops (TTL, no
        // route, no neighbour) still leave a span ending at this hop.
        ctx.stage_frame(ids.stage, &mut frame, done);

        if frame.ip.ttl == 0 {
            ctx.count_id(ids.drop_ttl, 1.0);
            return;
        }
        frame.ip.ttl -= 1;

        let (src_sock, dst_sock, proto) = match (
            frame.ip.src_sock(),
            frame.ip.dst_sock(),
            Proto::of(&frame.ip.transport),
        ) {
            (Some(s), Some(d), Some(p)) => (s, d, p),
            // Port-less traffic (e.g. VXLAN between VTEPs) is routed
            // without translation.
            _ => {
                let Some(route) = cfg.route_for(frame.ip.dst) else {
                    ctx.count_id(ids.drop_no_route, 1.0);
                    return;
                };
                let next_hop = route.via.unwrap_or(frame.ip.dst);
                let iface = &cfg.ifaces[route.port.0];
                let Some(&dst_mac) = iface.neigh.get(&next_hop) else {
                    ctx.count_id(ids.drop_no_neigh, 1.0);
                    return;
                };
                frame.src_mac = iface.mac;
                frame.dst_mac = dst_mac;
                ctx.count_id(ids.routed, 1.0);
                ctx.transmit_at(done, route.port, frame);
                return;
            }
        };

        // Periodic conntrack garbage collection (as the kernel's GC
        // worker does): entries idle longer than the timeout vanish.
        let ct = &mut self.ct;
        ct.frames_since_gc += 1;
        if ct.frames_since_gc >= 256 {
            ct.frames_since_gc = 0;
            let now = ctx.now();
            let timeout = ct.timeout;
            ct.retain(|_, e| now.since(e.last_used) <= timeout);
            ct.pair_last.retain(|_, t| now.since(*t) <= timeout);
        }
        // Pending rule-removal flushes land before any lookup, so a flow
        // whose publication was just removed cannot ride its old entry.
        ct.drain_flush(&mut cfg);

        let key = ConnKey {
            proto,
            src: src_sock,
            dst: dst_sock,
        };
        let live = ct
            .entries
            .get(&key)
            .filter(|e| ctx.now().since(e.last_used) <= ct.timeout)
            .copied();
        // A fresh flow's conntrack install is deferred until the FORWARD
        // filter accepts its first packet (kernel semantics: conntrack
        // confirmation happens after the filter hooks, so a dropped NEW
        // packet never creates state).
        let mut pending_insert = None;
        let (new_src, new_dst, state) = if let Some(entry) = live {
            ctx.count_id(ids.conntrack_hit, 1.0);
            let now = ctx.now();
            if let Some(e) = ct.entries.get_mut(&key) {
                e.last_used = now;
            }
            ct.pair_last
                .insert(pair_key(proto, src_sock.ip, entry.new_dst.ip), now);
            (entry.new_src, entry.new_dst, ConnState::Established)
        } else {
            // New flow: service VIP rules first (round-robin over
            // backends, like kube-proxy's statistic-mode chains), then the
            // plain DNAT walk; SNAT decided after routing.
            let mut new_dst = dst_sock;
            let mut lb_matched = false;
            for (rule, next) in &mut cfg.lb {
                if rule.proto == proto && rule.vip == dst_sock {
                    new_dst = rule.backends[*next % rule.backends.len()];
                    *next = (*next + 1) % rule.backends.len();
                    lb_matched = true;
                    ctx.count_id(ids.lb_assigned, 1.0);
                    break;
                }
            }
            for rule in &cfg.dnat {
                if lb_matched {
                    break;
                }
                let ip_match = match rule.match_ip {
                    Some(ip) => ip == dst_sock.ip,
                    None => cfg.is_local_ip(dst_sock.ip),
                };
                if rule.proto == proto && ip_match && rule.match_port == dst_sock.port {
                    new_dst = rule.to;
                    break;
                }
            }
            let Some(route) = cfg.route_for(new_dst.ip) else {
                ctx.count_id(ids.drop_no_route, 1.0);
                return;
            };
            let new_src = if cfg.masquerade.contains(&route.port) {
                let ip = cfg.ifaces[route.port.0].ip;
                match ct.alloc_port(ip, proto, ctx.now()) {
                    Some(p) => SockAddr::new(ip, p),
                    None => {
                        ctx.count_id(ids.drop_port_exhausted, 1.0);
                        return;
                    }
                }
            } else {
                src_sock
            };
            let state = ct.state(&[], proto, src_sock, new_dst, ctx.now());
            pending_insert = Some((new_src, new_dst));
            (new_src, new_dst, state)
        };

        // FORWARD filter: evaluated on the post-DNAT destination with the
        // pre-SNAT source — the kernel's hook order (PREROUTING nat →
        // routing decision → FORWARD filter → POSTROUTING nat). A REJECT
        // notice answers from the ingress interface's address.
        match self.filter.judge(proto, src_sock, new_dst, state, ctx) {
            Verdict::Accept => {}
            Verdict::Drop => return,
            Verdict::Reject => {
                let ingress = &cfg.ifaces[port.0];
                let notice = FilterHook::notice(&frame, ingress.mac, ingress.ip);
                ctx.transmit_at(done, port, notice);
                return;
            }
        }

        if let Some((ns, nd)) = pending_insert {
            // Install both directions.
            let now = ctx.now();
            ct.insert(
                key,
                ConnEntry {
                    new_src: ns,
                    new_dst: nd,
                    last_used: now,
                },
            );
            ct.insert(
                ConnKey {
                    proto,
                    src: nd,
                    dst: ns,
                },
                ConnEntry {
                    new_src: dst_sock,
                    new_dst: src_sock,
                    last_used: now,
                },
            );
            ct.pair_last
                .insert(pair_key(proto, src_sock.ip, nd.ip), now);
            ctx.count_id(ids.conntrack_new, 1.0);
        }

        frame.ip.src = new_src.ip;
        frame.ip.dst = new_dst.ip;
        frame.ip.transport.set_src_port(new_src.port);
        frame.ip.transport.set_dst_port(new_dst.port);

        let Some(route) = cfg.route_for(new_dst.ip) else {
            ctx.count_id(ids.drop_no_route, 1.0);
            return;
        };
        let next_hop = route.via.unwrap_or(new_dst.ip);
        let iface = &cfg.ifaces[route.port.0];
        let Some(&dst_mac) = iface.neigh.get(&next_hop) else {
            ctx.count_id(ids.drop_no_neigh, 1.0);
            return;
        };
        frame.src_mac = iface.mac;
        frame.dst_mac = dst_mac;
        ctx.count_id(ids.translated, 1.0);
        ctx.transmit_at(done, route.port, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StopCondition;
    use crate::engine::{LinkParams, Network};
    use crate::frame::Payload;
    use crate::testutil::CaptureSink;
    use crate::time::SimDuration;
    use metrics::{CpuCategory, CpuLocation};

    const EXT_NET: Ip4Net = Ip4Net {
        addr: Ip4(0xC0A8_0000),
        prefix: 24,
    }; // 192.168.0.0/24
    const POD_NET: Ip4Net = Ip4Net {
        addr: Ip4(0xAC11_0000),
        prefix: 24,
    }; // 172.17.0.0/24

    fn router() -> NatRouter {
        let ext = Interface::new(MacAddr::local(10), Ip4::new(192, 168, 0, 1), EXT_NET)
            .with_neigh(Ip4::new(192, 168, 0, 100), MacAddr::local(100));
        let pod = Interface::new(MacAddr::local(11), Ip4::new(172, 17, 0, 1), POD_NET)
            .with_neigh(Ip4::new(172, 17, 0, 2), MacAddr::local(2));
        let r = NatRouter::new(
            vec![ext, pod],
            StageCost::fixed(1_000, 0.0, CpuCategory::Soft),
            SharedStation::new(),
        );
        // Publish container port: :8080 on the router -> 172.17.0.2:80
        r.control().add_dnat(DnatRule {
            proto: Proto::Udp,
            match_ip: None,
            match_port: 8080,
            to: SockAddr::new(Ip4::new(172, 17, 0, 2), 80),
        });
        r.control().masquerade_on(PortId(0));
        r
    }

    fn wire(
        net: &mut Network,
        r: NatRouter,
    ) -> (
        crate::device::DeviceId,
        crate::device::DeviceId,
        crate::device::DeviceId,
    ) {
        let rid = net.add_device("nat", CpuLocation::Vm(1), Box::new(r));
        let ext = net.add_device("ext", CpuLocation::Host, Box::new(CaptureSink::new("ext")));
        let pod = net.add_device("pod", CpuLocation::Vm(1), Box::new(CaptureSink::new("pod")));
        net.connect(rid, PortId(0), ext, PortId::P0, LinkParams::default());
        net.connect(rid, PortId(1), pod, PortId::P0, LinkParams::default());
        (rid, ext, pod)
    }

    fn udp(src: SockAddr, dst: SockAddr) -> Frame {
        Frame::udp(
            MacAddr::local(100),
            MacAddr::local(10),
            src,
            dst,
            Payload::sized(64),
        )
    }

    #[test]
    fn dnat_publishes_container_port() {
        let mut net = Network::new(0);
        let (rid, _ext, _pod) = wire(&mut net, router());
        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("pod.received"), 1.0);
        assert_eq!(net.store().counter("nat.conntrack_new"), 1.0);
    }

    #[test]
    fn reply_is_reverse_translated() {
        let mut net = Network::new(0);
        let r = router();
        let rid = net.add_device("nat", CpuLocation::Vm(1), Box::new(r));
        let ext = CaptureSink::new("ext");
        let ext_id = net.add_device("ext", CpuLocation::Host, Box::new(ext));
        let pod_id = net.add_device("pod", CpuLocation::Vm(1), Box::new(CaptureSink::new("pod")));
        net.connect(rid, PortId(0), ext_id, PortId::P0, LinkParams::default());
        net.connect(rid, PortId(1), pod_id, PortId::P0, LinkParams::default());

        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);

        // Pod replies: 172.17.0.2:80 -> client (as it saw it).
        let pod_addr = SockAddr::new(Ip4::new(172, 17, 0, 2), 80);
        let reply = Frame::udp(
            MacAddr::local(2),
            MacAddr::local(11),
            pod_addr,
            client,
            Payload::sized(64),
        );
        net.inject_frame(SimDuration::ZERO, rid, PortId(1), reply);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("ext.received"), 1.0);
        assert_eq!(net.store().counter("nat.conntrack_hit"), 1.0);
    }

    #[test]
    fn masquerade_rewrites_source_for_egress() {
        let mut net = Network::new(0);
        let r = router();
        // Route everything unknown out the external interface.
        r.control().add_route(Route {
            net: Ip4Net::new(Ip4::UNSPECIFIED, 0),
            port: PortId(0),
            via: Some(Ip4::new(192, 168, 0, 100)),
        });
        let (rid, _ext, _pod) = wire(&mut net, r);
        // Pod-originated traffic to the outside world.
        let pod_addr = SockAddr::new(Ip4::new(172, 17, 0, 2), 4242);
        let outside = SockAddr::new(Ip4::new(192, 168, 0, 100), 9999);
        let f = Frame::udp(
            MacAddr::local(2),
            MacAddr::local(11),
            pod_addr,
            outside,
            Payload::sized(64),
        );
        net.inject_frame(SimDuration::ZERO, rid, PortId(1), f);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("ext.received"), 1.0);
        assert_eq!(net.store().counter("nat.conntrack_new"), 1.0);
    }

    #[test]
    fn unroutable_is_dropped() {
        let mut net = Network::new(0);
        let (rid, _, _) = wire(&mut net, router());
        let f = udp(
            SockAddr::new(Ip4::new(192, 168, 0, 100), 1),
            SockAddr::new(Ip4::new(8, 8, 8, 8), 53),
        );
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), f);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("nat.drop_no_route"), 1.0);
        assert_eq!(
            net.store().counter("pod.received") + net.store().counter("ext.received"),
            0.0
        );
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut net = Network::new(0);
        let (rid, _, _) = wire(&mut net, router());
        let mut f = udp(
            SockAddr::new(Ip4::new(192, 168, 0, 100), 1),
            SockAddr::new(Ip4::new(192, 168, 0, 1), 8080),
        );
        f.ip.ttl = 0;
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), f);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("nat.drop_ttl"), 1.0);
    }

    #[test]
    fn missing_neighbor_drops() {
        let mut net = Network::new(0);
        let r = router();
        r.control().add_dnat(DnatRule {
            proto: Proto::Udp,
            match_ip: None,
            match_port: 8081,
            to: SockAddr::new(Ip4::new(172, 17, 0, 99), 80), // no ARP entry
        });
        let (rid, _, _) = wire(&mut net, r);
        let f = udp(
            SockAddr::new(Ip4::new(192, 168, 0, 100), 1),
            SockAddr::new(Ip4::new(192, 168, 0, 1), 8081),
        );
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), f);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("nat.drop_no_neigh"), 1.0);
    }

    #[test]
    fn nat_work_is_charged_as_softirq() {
        let mut net = Network::new(0);
        let (rid, _, _) = wire(&mut net, router());
        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        assert_eq!(net.cpu().get(CpuLocation::Vm(1), CpuCategory::Soft), 1_000);
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Guest), 1_000);
    }

    /// A live conntrack pair holding masquerade port `p` towards `remote`.
    fn hold_port(r: &mut NatRouter, ip: Ip4, p: u16, remote: SockAddr, now: crate::time::SimTime) {
        let held = SockAddr::new(ip, p);
        let pod = SockAddr::new(Ip4::new(172, 17, 0, 2), p); // arbitrary inside addr
        r.ct.insert(
            ConnKey {
                proto: Proto::Udp,
                src: pod,
                dst: remote,
            },
            ConnEntry {
                new_src: held,
                new_dst: remote,
                last_used: now,
            },
        );
        r.ct.insert(
            ConnKey {
                proto: Proto::Udp,
                src: remote,
                dst: held,
            },
            ConnEntry {
                new_src: remote,
                new_dst: pod,
                last_used: now,
            },
        );
    }

    #[test]
    fn nat_port_wraparound_skips_live_ports() {
        let mut r = router();
        let ip = Ip4::new(192, 168, 0, 1);
        let now = crate::time::SimTime::ZERO;
        let remote = SockAddr::new(Ip4::new(192, 168, 0, 100), 9999);
        // A live flow holds the first port of the range; pin the allocator
        // to the top so the next allocation wraps.
        hold_port(&mut r, ip, NatRouter::NAT_PORT_BASE, remote, now);
        r.ct.next_port = u16::MAX;
        assert_eq!(r.ct.alloc_port(ip, Proto::Udp, now), Some(u16::MAX));
        // The wrap lands on NAT_PORT_BASE, which is in use: skipped.
        assert_eq!(
            r.ct.alloc_port(ip, Proto::Udp, now),
            Some(NatRouter::NAT_PORT_BASE + 1)
        );
        // An *expired* holder does not block its port.
        let after_timeout = now + NatRouter::DEFAULT_CONNTRACK_TIMEOUT + SimDuration::secs(1);
        r.ct.next_port = NatRouter::NAT_PORT_BASE;
        assert_eq!(
            r.ct.alloc_port(ip, Proto::Udp, after_timeout),
            Some(NatRouter::NAT_PORT_BASE)
        );
    }

    #[test]
    fn nat_port_exhaustion_errors_cleanly() {
        let mut r = router();
        let ip = Ip4::new(192, 168, 0, 1);
        let now = crate::time::SimTime::ZERO;
        // Every port of the masquerade range held by a live flow (each with
        // a distinct remote so the conntrack keys stay unique).
        for p in NatRouter::NAT_PORT_BASE..=u16::MAX {
            let remote = SockAddr::new(Ip4::new(192, 168, 0, 100), p);
            hold_port(&mut r, ip, p, remote, now);
        }
        assert_eq!(r.ct.alloc_port(ip, Proto::Udp, now), None);
        // Releasing one port makes exactly that port allocatable again.
        let freed = NatRouter::NAT_PORT_BASE + 7;
        r.ct.retain(|k, e| {
            k.dst != SockAddr::new(ip, freed) && e.new_src != SockAddr::new(ip, freed)
        });
        r.ct.next_port = NatRouter::NAT_PORT_BASE;
        assert_eq!(r.ct.alloc_port(ip, Proto::Udp, now), Some(freed));
    }

    /// Lends a router to a network while the test keeps a handle on it:
    /// frames run the real frame path, and the test inspects the router
    /// between them.
    struct Lent(std::sync::Arc<parking_lot::Mutex<NatRouter>>);

    impl Device for Lent {
        fn kind(&self) -> DeviceKind {
            DeviceKind::NatRouter
        }

        fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
            self.0.lock().on_frame(port, frame, ctx);
        }
    }

    /// A port index as sorted lists (`Proto` has no order, so TCP ranks
    /// as `true`).
    type Listing = Vec<((bool, SockAddr), Vec<(bool, SockAddr, SockAddr)>)>;

    fn listing(ix: &PortIndex) -> Listing {
        let mut out: Listing = ix
            .holders
            .iter()
            .map(|((proto, addr), keys)| {
                let mut keys: Vec<_> = keys
                    .iter()
                    .map(|k| (k.proto == Proto::Tcp, k.src, k.dst))
                    .collect();
                keys.sort();
                ((*proto == Proto::Tcp, *addr), keys)
            })
            .collect();
        out.sort();
        out
    }

    /// Asserts the port index equals one rebuilt from conntrack, and the
    /// indexed allocator hands out what the conntrack scan does, from the
    /// same cursor, on both protocols.
    fn check_allocator(r: &mut NatRouter, ip: Ip4, now: SimTime) {
        let mut rebuilt = PortIndex::new(r.ct.ports.local.clone());
        for (k, e) in &r.ct.entries {
            rebuilt.link(*k, e);
        }
        assert_eq!(
            listing(&r.ct.ports),
            listing(&rebuilt),
            "port index out of step with conntrack"
        );
        for proto in [Proto::Udp, Proto::Tcp] {
            let cursor = r.ct.next_port;
            let want = r.ct.alloc_port_scan(ip, proto, now);
            let want_cursor = r.ct.next_port;
            r.ct.next_port = cursor;
            assert_eq!(
                r.ct.alloc_port(ip, proto, now),
                want,
                "indexed allocator diverged from the conntrack scan"
            );
            assert_eq!(r.ct.next_port, want_cursor);
        }
    }

    #[test]
    fn indexed_port_allocator_matches_the_conntrack_scan() {
        let timeout = SimDuration::millis(10);
        let r = router().with_conntrack_timeout(timeout);
        r.control().add_route(Route {
            net: Ip4Net::new(Ip4::UNSPECIFIED, 0),
            port: PortId(0),
            via: Some(Ip4::new(192, 168, 0, 100)),
        });
        let ctl = r.control();
        let ip = Ip4::new(192, 168, 0, 1);
        let published = SockAddr::new(ip, 8080);
        let dnat = DnatRule {
            proto: Proto::Udp,
            match_ip: None,
            match_port: 8080,
            to: SockAddr::new(Ip4::new(172, 17, 0, 2), 80),
        };
        let shared = std::sync::Arc::new(parking_lot::Mutex::new(r));
        let mut net = Network::new(0);
        let rid = net.add_device("nat", CpuLocation::Vm(1), Box::new(Lent(shared.clone())));
        let ext = net.add_device("ext", CpuLocation::Host, Box::new(CaptureSink::new("ext")));
        let pod = net.add_device("pod", CpuLocation::Vm(1), Box::new(CaptureSink::new("pod")));
        net.connect(rid, PortId(0), ext, PortId::P0, LinkParams::default());
        net.connect(rid, PortId(1), pod, PortId::P0, LinkParams::default());
        let frame = |proto, ingress: PortId, src, dst| {
            let (src_mac, dst_mac) = if ingress == PortId(0) {
                (MacAddr::local(100), MacAddr::local(10))
            } else {
                (MacAddr::local(2), MacAddr::local(11))
            };
            match proto {
                Proto::Udp => Frame::udp(src_mac, dst_mac, src, dst, Payload::sized(16)),
                Proto::Tcp => Frame::tcp(
                    src_mac,
                    dst_mac,
                    src,
                    dst,
                    0,
                    crate::frame::TcpKind::Data,
                    Payload::sized(16),
                ),
            }
        };
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut rnd = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        // Small address pools, so flows recur: a recurring live flow is a
        // hit, and one that expired but was not yet collected replaces its
        // conntrack keys (forward and reply) with new entries.
        let mut flows: Vec<(Proto, SockAddr, SockAddr)> = Vec::new();
        for _ in 0..3_000 {
            match rnd(100) {
                // A pod-originated flow, masqueraded on the way out.
                0..=44 => {
                    let proto = if rnd(4) == 0 { Proto::Tcp } else { Proto::Udp };
                    let src = SockAddr::new(Ip4::new(172, 17, 0, 2), 1_000 + rnd(64) as u16);
                    let remote =
                        SockAddr::new(Ip4::new(10, 0, 0, 1 + rnd(4) as u8), 9_000 + rnd(4) as u16);
                    flows.push((proto, src, remote));
                    net.inject_frame(
                        SimDuration::ZERO,
                        rid,
                        PortId(1),
                        frame(proto, PortId(1), src, remote),
                    );
                }
                // A reply to a recent flow, at its masquerade address.
                45..=74 if !flows.is_empty() => {
                    let back = rnd(flows.len().min(16) as u64) as usize;
                    let (proto, src, remote) = flows[flows.len() - 1 - back];
                    let key = ConnKey {
                        proto,
                        src,
                        dst: remote,
                    };
                    let masq = shared.lock().ct.entries.get(&key).map(|e| e.new_src);
                    if let Some(masq) = masq {
                        net.inject_frame(
                            SimDuration::ZERO,
                            rid,
                            PortId(0),
                            frame(proto, PortId(0), remote, masq),
                        );
                    }
                }
                // A published-port flow from outside; half of them come
                // from the router's own address in the masquerade range,
                // so non-masquerade entries hold indexed ports too.
                75..=84 => {
                    let src = if rnd(2) == 0 {
                        SockAddr::new(Ip4::new(192, 168, 0, 100), 5_000 + rnd(8) as u16)
                    } else {
                        SockAddr::new(ip, NatRouter::NAT_PORT_BASE + rnd(64) as u16)
                    };
                    net.inject_frame(
                        SimDuration::ZERO,
                        rid,
                        PortId(0),
                        frame(Proto::Udp, PortId(0), src, published),
                    );
                }
                // Time passes, up to three timeouts.
                85..=89 => {
                    let until = net.now() + SimDuration::nanos(rnd(3 * timeout.0));
                    net.run(StopCondition::Until(until));
                }
                // Un-publish and re-publish: queues a conntrack flush the
                // next frame drains.
                90..=92 => {
                    ctl.remove_dnat(Proto::Udp, 8080);
                    ctl.add_dnat(dnat);
                }
                // Cursor at the top of the range: the next allocation wraps.
                93..=95 => shared.lock().ct.next_port = u16::MAX - rnd(4) as u16,
                // Cursor onto ports earlier flows may still hold.
                _ => shared.lock().ct.next_port = NatRouter::NAT_PORT_BASE + rnd(64) as u16,
            }
            net.run(StopCondition::Idle);
            let now = net.now();
            check_allocator(&mut shared.lock(), ip, now);
        }
        assert!(net.store().counter("nat.conntrack_new") > 1_000.0);
        assert!(net.store().counter("nat.conntrack_hit") > 300.0);

        // Every UDP port of the range held: both report exhaustion, then
        // agree again as holders go and as the rest expire.
        let mut r = shared.lock();
        let now = net.now();
        for p in NatRouter::NAT_PORT_BASE..=u16::MAX {
            let remote = SockAddr::new(Ip4::new(192, 168, 0, 100), p);
            hold_port(&mut r, ip, p, remote, now);
        }
        r.ct.next_port = NatRouter::NAT_PORT_BASE + 99;
        check_allocator(&mut r, ip, now);
        r.ct.retain(|k, e| k.dst.port % 97 != 0 && e.new_src.port % 97 != 0);
        check_allocator(&mut r, ip, now);
        check_allocator(&mut r, ip, now + timeout + SimDuration::nanos(1));
    }

    #[test]
    fn masquerade_port_exhaustion_drops_and_counts() {
        let mut net = Network::new(0);
        let mut r = router();
        r.control().add_route(Route {
            net: Ip4Net::new(Ip4::UNSPECIFIED, 0),
            port: PortId(0),
            via: Some(Ip4::new(192, 168, 0, 100)),
        });
        let now = crate::time::SimTime::ZERO;
        let ip = Ip4::new(192, 168, 0, 1);
        for p in NatRouter::NAT_PORT_BASE..=u16::MAX {
            let remote = SockAddr::new(Ip4::new(192, 168, 0, 100), p);
            hold_port(&mut r, ip, p, remote, now);
        }
        let (rid, _ext, _pod) = wire(&mut net, r);
        // A new masquerade flow finds no free port: dropped, counted.
        let f = Frame::udp(
            MacAddr::local(2),
            MacAddr::local(11),
            SockAddr::new(Ip4::new(172, 17, 0, 2), 4242),
            SockAddr::new(Ip4::new(10, 1, 2, 3), 9999),
            Payload::sized(64),
        );
        net.inject_frame(SimDuration::ZERO, rid, PortId(1), f);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("nat.drop_port_exhausted"), 1.0);
        assert_eq!(net.store().counter("ext.received"), 0.0);
    }

    #[test]
    fn five_tuple_flows_get_distinct_masquerade_ports() {
        let mut net = Network::new(0);
        let r = router();
        r.control().add_route(Route {
            net: Ip4Net::new(Ip4::UNSPECIFIED, 0),
            port: PortId(0),
            via: Some(Ip4::new(192, 168, 0, 100)),
        });
        let rid = net.add_device("nat", CpuLocation::Vm(1), Box::new(r));
        let mut sink = CaptureSink::new("ext");
        // Drive the device directly is awkward; instead check conntrack count
        // after two flows through the network.
        let ext_id = net.add_device("ext", CpuLocation::Host, Box::new(CaptureSink::new("ext2")));
        net.connect(rid, PortId(0), ext_id, PortId::P0, LinkParams::default());
        let pod1 = SockAddr::new(Ip4::new(172, 17, 0, 2), 1111);
        let pod2 = SockAddr::new(Ip4::new(172, 17, 0, 2), 2222);
        let outside = SockAddr::new(Ip4::new(192, 168, 0, 100), 9999);
        for s in [pod1, pod2] {
            let f = Frame::udp(
                MacAddr::local(2),
                MacAddr::local(11),
                s,
                outside,
                Payload::sized(10),
            );
            net.inject_frame(SimDuration::ZERO, rid, PortId(1), f);
        }
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("nat.conntrack_new"), 2.0);
        assert_eq!(net.store().counter("ext2.received"), 2.0);
        let _ = &mut sink;
    }

    #[test]
    fn remove_dnat_flushes_established_conntrack() {
        let mut net = Network::new(0);
        let r = router();
        let ctl = r.control();
        let (rid, _ext, _pod) = wire(&mut net, r);
        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("pod.received"), 1.0);
        // Un-publish the port. The flow above established a conntrack
        // entry for its exact 5-tuple; without the flush, re-sending the
        // same tuple would keep translating through that entry and reach
        // the pod even though the rule is gone.
        assert_eq!(ctl.remove_dnat(Proto::Udp, 8080), 1);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        assert_eq!(
            net.store().counter("pod.received"),
            1.0,
            "established flow kept translating after its DNAT rule was removed"
        );
    }

    #[test]
    fn conntrack_len_applies_expiry_without_frame_traffic() {
        let mut r = router().with_conntrack_timeout(SimDuration::secs(1));
        let now = crate::time::SimTime::ZERO;
        let remote = SockAddr::new(Ip4::new(192, 168, 0, 100), 9999);
        hold_port(
            &mut r,
            Ip4::new(192, 168, 0, 1),
            NatRouter::NAT_PORT_BASE,
            remote,
            now,
        );
        assert_eq!(r.conntrack_len(now), 2, "both directions tracked");
        // No frames cross the router, so the lazy frame-path GC never
        // runs; the read path must apply the timeout itself.
        assert_eq!(r.conntrack_len(now + SimDuration::secs(2)), 0);
    }

    #[test]
    fn conn_state_applies_expiry_and_pending_flush() {
        let mut r = router().with_conntrack_timeout(SimDuration::secs(1));
        let now = crate::time::SimTime::ZERO;
        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        let pod = SockAddr::new(Ip4::new(172, 17, 0, 2), 80);
        r.ct.insert(
            ConnKey {
                proto: Proto::Udp,
                src: client,
                dst: published,
            },
            ConnEntry {
                new_src: client,
                new_dst: pod,
                last_used: now,
            },
        );
        r.ct.pair_last
            .insert(pair_key(Proto::Udp, client.ip, pod.ip), now);
        assert_eq!(
            r.conn_state(Proto::Udp, client, published, now),
            ConnState::Established
        );
        // Same hosts, different ports: RELATED via the address pair. The
        // state query runs on the post-DNAT tuple (as the frame path
        // does), so the pair is (client, pod).
        let other = SockAddr::new(client.ip, 7777);
        let pod_other = SockAddr::new(pod.ip, 8081);
        assert_eq!(
            r.conn_state(Proto::Udp, other, pod_other, now),
            ConnState::Related
        );
        // Expired entries must not state-match even though the lazy GC
        // never ran.
        let later = now + SimDuration::secs(2);
        assert_eq!(
            r.conn_state(Proto::Udp, client, published, later),
            ConnState::New
        );
        assert_eq!(
            r.conn_state(Proto::Udp, other, pod_other, later),
            ConnState::New
        );
        // A queued flush (rule removed, frame path not yet run) must hide
        // matching entries from state-match immediately.
        assert_eq!(r.control().remove_dnat(Proto::Udp, 8080), 1);
        assert_eq!(
            r.conn_state(Proto::Udp, client, published, now),
            ConnState::New
        );
    }

    #[test]
    fn forward_filter_drop_is_silent_and_journaled() {
        use crate::filter::{FilterRule, Verdict};
        use metrics::{JournalKind, TelemetryConfig};
        let mut net = Network::new(0);
        net.set_telemetry_config(TelemetryConfig::full());
        let r = router();
        let filter = r.filter();
        // FORWARD matches the post-DNAT destination: the pod's port 80.
        filter.install(FilterRule::any(Verdict::Drop).port(80));
        let (rid, _ext, _pod) = wire(&mut net, r);
        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        // Dropped post-DNAT: nothing reaches the pod, nothing echoes back,
        // and no conntrack entry is confirmed for the refused flow.
        assert_eq!(net.store().counter("pod.received"), 0.0);
        assert_eq!(net.store().counter("ext.received"), 0.0);
        assert_eq!(net.store().counter("nat.conntrack_new"), 0.0);
        assert_eq!(net.store().counter("filter.forward.drop"), 1.0);
        let drops: Vec<_> = net
            .journal()
            .records()
            .iter()
            .filter(|r| r.kind == JournalKind::FilterDrop)
            .collect();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].a, rid.0 as u64);
        assert_eq!(drops[0].c, Verdict::Drop.code());
    }

    #[test]
    fn forward_filter_reject_notifies_the_sender() {
        use crate::filter::{FilterRule, Verdict, REJECT_TAG};
        let mut net = Network::new(0);
        let r = router();
        let filter = r.filter();
        filter.install(FilterRule::any(Verdict::Reject).port(80));
        let (rid, _ext, _pod) = wire(&mut net, r);
        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        // The frame never reaches the pod, but the sender hears about the
        // refusal: a notification frame comes back out the ingress port.
        assert_eq!(net.store().counter("pod.received"), 0.0);
        assert_eq!(net.store().counter("ext.received"), 1.0);
        assert_eq!(net.store().counter("filter.forward.reject"), 1.0);
        let _ = REJECT_TAG; // tag checked in filter_statematch integration test
    }

    #[test]
    fn forward_filter_state_match_admits_replies_only() {
        use crate::filter::{FilterRule, StateMask, Verdict};
        let mut net = Network::new(0);
        let r = router();
        let ctl = r.control();
        let filter = r.filter();
        let (rid, _ext, _pod) = wire(&mut net, r);
        let client = SockAddr::new(Ip4::new(192, 168, 0, 100), 5555);
        let published = SockAddr::new(Ip4::new(192, 168, 0, 1), 8080);
        // First exchange runs unfiltered and establishes conntrack state.
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("pod.received"), 1.0);
        // Lock the table down to established traffic only.
        filter.install(FilterRule::any(Verdict::Accept).states(StateMask::ESTABLISHED));
        filter.install(FilterRule::any(Verdict::Drop));
        // The established flow still passes...
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(client, published));
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("pod.received"), 2.0);
        assert_eq!(net.store().counter("filter.forward.accept"), 1.0);
        // ...but a NEW flow (different source port) is dropped.
        let newcomer = SockAddr::new(Ip4::new(192, 168, 0, 100), 5556);
        net.inject_frame(SimDuration::ZERO, rid, PortId(0), udp(newcomer, published));
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("pod.received"), 2.0);
        assert_eq!(net.store().counter("filter.forward.drop"), 1.0);
        let _ = ctl;
    }
}
