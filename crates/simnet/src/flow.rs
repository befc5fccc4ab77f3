//! Flow-level fast path: analytic models for steady-state flows.
//!
//! Per-packet simulation pays one event per device hop. For long-lived,
//! steady flows (a memcached hot loop, an nginx keep-alive connection)
//! that per-hop work re-derives the same forwarding decision millions of
//! times. The [`FlowTable`] learns each flow's path once — by riding a
//! *probe stamp* on ordinary packet-level frames — and then collapses
//! subsequent emissions into a single synthesized delivery event at the
//! learned latency, replaying the learned per-hop CPU costs into the
//! accounts so figure-level outputs stay comparable.
//!
//! The table is strictly an accelerator: it never invents traffic and it
//! *escalates back to packet level* whenever fidelity matters —
//! connection setup (flows start in [`Learning`]), path or NAT changes
//! (periodic re-probes compare the observed path against the model),
//! active [`FaultPlan`](crate::fault::FaultPlan) windows overlapping a
//! learned hop, idle gaps (a restarting connection must re-learn),
//! pipelined senders (an emission gap under the one-way latency floor
//! means several frames in flight, so per-hop queueing — which the
//! analytic model does not capture — governs throughput; such flows are
//! pinned to packet level for good), and any frame carrying a
//! flight-recorder trace (traced frames always go packet level so span
//! trees stay complete).
//!
//! Determinism: every mutation of a flow's state happens while processing
//! an event *on the origin's shard* — either the origin endpoint's own
//! emission (inside `transmit_at`) or a [`FlowUpdate`] advert event
//! addressed to the origin device. Adverts ride the ordinary event heap
//! (and, sharded, the coordinator's inboxes) with intrinsic tags,
//! so the decision sequence is identical at any shard count.

use crate::addr::{Ip4, MacAddr};
use crate::device::{DeviceId, PortId};
use crate::engine::SampleStore;
use crate::frame::{Frame, Transport};
use crate::hash::FxHashMap;
use crate::time::SimTime;
use metrics::{CpuCategory, CpuLocation, FlowEscalateReason, MetricId};

/// How faithfully the engine simulates traffic (selected through
/// [`SimConfig::fidelity`](crate::SimConfig::fidelity)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fidelity {
    /// Every frame is simulated hop by hop (the default; bit-identical to
    /// all releases before the flow table existed).
    #[default]
    Packet,
    /// Steady flows take the analytic fast path but are periodically
    /// re-probed at packet level so path/NAT changes are caught.
    Hybrid,
}

/// Number of consecutive consistent adverts before a flow is promoted to
/// the steady (fast-path) state.
const STEADY_AFTER: u32 = 3;

/// While learning, every emission is probed until this many emissions
/// have gone by without a promotion; after that probing thins out to
/// [`PROBE_EVERY`] (a flow that never converges, e.g. one behind a
/// flooding bridge, must not probe forever at full rate).
const LEARN_CAP: u64 = 256;

/// Steady-state revalidation cadence: one emission in this many goes
/// packet level to re-verify the learned path.
const PROBE_EVERY: u64 = 32;

/// Revalidation cadence for flows whose path crosses a NAT: conntrack
/// entries can expire or be rewritten, so NAT paths are re-checked more
/// often.
const NAT_PROBE_EVERY: u64 = 8;

/// An emission gap (ns) larger than this demotes a steady flow: the
/// connection paused long enough that setup/teardown effects (conntrack
/// expiry, ARP aging) could have changed the path.
const IDLE_GAP_NS: u64 = 10_000_000;

/// Identity of a flow at its emitting endpoint. The origin device id and
/// MAC pair are part of the key because distinct simulated hosts may
/// legitimately reuse IP/port tuples (test topologies do).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// The emitting endpoint device.
    pub origin: DeviceId,
    /// Ethernet source of the emitted frames.
    pub src_mac: MacAddr,
    /// Ethernet destination of the emitted frames.
    pub dst_mac: MacAddr,
    /// IP source.
    pub src_ip: Ip4,
    /// IP destination.
    pub dst_ip: Ip4,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// True for TCP, false for UDP.
    pub tcp: bool,
}

impl FlowKey {
    /// Classifies an emission; `None` for frames that can never be
    /// flow-modeled (non-UDP/TCP transports, multicast).
    pub fn classify(origin: DeviceId, frame: &Frame) -> Option<FlowKey> {
        if frame.dst_mac.is_multicast() {
            return None;
        }
        let (src_port, dst_port, tcp) = match &frame.ip.transport {
            Transport::Udp {
                src_port, dst_port, ..
            } => (*src_port, *dst_port, false),
            Transport::Tcp {
                src_port, dst_port, ..
            } => (*src_port, *dst_port, true),
            _ => return None,
        };
        Some(FlowKey {
            origin,
            src_mac: frame.src_mac,
            dst_mac: frame.dst_mac,
            src_ip: frame.ip.src,
            dst_ip: frame.ip.dst,
            src_port,
            dst_port,
            tcp,
        })
    }
}

/// Callback asking whether any fault window overlaps a synthesized
/// flight `[from, from+lat)` on any learned hop.
pub(crate) type FaultProbeFn<'a> = dyn Fn(&[(DeviceId, PortId)], SimTime, u64) -> bool + 'a;

/// Callback resolving the policy state of a learned path's hops. Returns
/// `(changed, epoch)`: `changed` is true when any registered filter rule
/// on a hop has an activation/deactivation instant in `(after, upto]`
/// (a scheduled rule window opened or closed inside the un-checked
/// interval); `epoch` sums the mutation epochs of every watched
/// NAT/filter control on the hops (any between-runs rule mutation moves
/// it). Either signal escalates the flow — the same contract FaultPlan
/// windows get, so a rule change is never bypassed by synthesized
/// deliveries.
pub(crate) type PolicyProbeFn<'a> =
    dyn Fn(&[(DeviceId, PortId)], SimTime, SimTime) -> (bool, u64) + 'a;

/// The optional probe stamp a [`Frame`] carries. Like
/// [`FlightStamp`](metrics::FlightStamp) it is transparent to frame
/// equality and defaults to empty, so packet-level runs and frame
/// comparisons are unchanged by its existence.
#[derive(Debug, Clone, Default)]
pub struct FlowTag(pub(crate) Option<Box<FlowProbe>>);

impl FlowTag {
    /// Stamps a probe onto a frame.
    pub(crate) fn stamp(probe: FlowProbe) -> FlowTag {
        FlowTag(Some(Box::new(probe)))
    }

    /// Removes and returns the probe, leaving the tag empty.
    pub(crate) fn take(&mut self) -> Option<Box<FlowProbe>> {
        self.0.take()
    }

    /// True when a probe is riding this frame.
    pub(crate) fn is_some(&self) -> bool {
        self.0.is_some()
    }
}

impl PartialEq for FlowTag {
    fn eq(&self, _: &FlowTag) -> bool {
        true
    }
}

impl Eq for FlowTag {}

/// The probe stamp a learning frame carries across the topology. Each
/// forwarding hop appends itself; the delivering endpoint's engine turns
/// the accumulated stamp into a [`FlowUpdate`] advert back to the origin.
#[derive(Debug, Clone)]
pub struct FlowProbe {
    /// The flow being learned.
    pub key: FlowKey,
    /// Emission time at the origin (per-path latency = delivery − born).
    pub born: SimTime,
    /// Every (device, egress port) the frame crossed, origin included.
    pub hops: Vec<(DeviceId, PortId)>,
    /// CPU charged by intermediate hops (origin and delivery endpoint
    /// excluded — those still run live on the fast path).
    pub cpu: Vec<(CpuLocation, CpuCategory, u64)>,
    /// False once the frame crossed a device that refuses flow bypass
    /// (e.g. a rate shaper) or a lossy link; such paths never go steady.
    pub ok: bool,
    /// True once the frame crossed a NAT (tighter revalidation cadence).
    pub has_nat: bool,
}

/// A delivered probe, advertised back to the origin as an engine event.
#[derive(Debug, Clone)]
pub struct FlowUpdate {
    /// The flow this advert describes.
    pub key: FlowKey,
    /// Device the probe was delivered to.
    pub dst: DeviceId,
    /// Ingress port it was delivered on.
    pub dst_port: PortId,
    /// The frame exactly as delivered (headers may differ from the
    /// emitted ones after NAT rewrites); fast-path frames are synthesized
    /// from this template.
    pub template: Frame,
    /// Observed one-way latency in ns.
    pub lat: u64,
    /// Path hops, copied from the probe.
    pub hops: Vec<(DeviceId, PortId)>,
    /// Intermediate-hop CPU, copied from the probe.
    pub cpu: Vec<(CpuLocation, CpuCategory, u64)>,
    /// Whether every hop allows flow bypass and every link is lossless.
    pub ok: bool,
    /// Whether the path crossed a NAT.
    pub has_nat: bool,
}

/// The analytic model of a converged path.
#[derive(Debug, Clone)]
pub struct LearnedPath {
    /// Delivery device.
    pub dst: DeviceId,
    /// Delivery port.
    pub dst_port: PortId,
    /// Header template for synthesized frames.
    pub template: Frame,
    /// Hops, for fault-window escalation checks.
    pub hops: Vec<(DeviceId, PortId)>,
    /// Per-hop CPU replayed for each fast-path frame.
    pub cpu: Vec<(CpuLocation, CpuCategory, u64)>,
    /// Path crosses a NAT.
    pub has_nat: bool,
    /// EWMA of observed one-way latency (ns), α = 1/8.
    pub lat_ewma: u64,
    /// Minimum observed latency (ns); synthesized deliveries never
    /// undercut it, which keeps the sharded lookahead bound sound.
    pub lat_min: u64,
}

impl LearnedPath {
    fn from_update(u: &FlowUpdate) -> LearnedPath {
        LearnedPath {
            dst: u.dst,
            dst_port: u.dst_port,
            template: u.template.clone(),
            hops: u.hops.clone(),
            cpu: u.cpu.clone(),
            has_nat: u.has_nat,
            lat_ewma: u.lat,
            lat_min: u.lat,
        }
    }

    /// True when an advert re-confirms this model (same endpoints, same
    /// path shape, same post-rewrite headers).
    fn confirmed_by(&self, u: &FlowUpdate) -> bool {
        self.dst == u.dst
            && self.dst_port == u.dst_port
            && self.hops == u.hops
            && self.has_nat == u.has_nat
            && headers_match(&self.template, &u.template)
    }

    /// The latency used for synthesized deliveries.
    pub fn latency(&self) -> u64 {
        self.lat_ewma.max(self.lat_min)
    }
}

/// Header-level equality: everything that identifies the path's rewrite
/// behaviour, ignoring the payload (which varies per message).
fn headers_match(a: &Frame, b: &Frame) -> bool {
    if a.src_mac != b.src_mac
        || a.dst_mac != b.dst_mac
        || a.ip.src != b.ip.src
        || a.ip.dst != b.ip.dst
    {
        return false;
    }
    match (&a.ip.transport, &b.ip.transport) {
        (
            Transport::Udp {
                src_port: asp,
                dst_port: adp,
                ..
            },
            Transport::Udp {
                src_port: bsp,
                dst_port: bdp,
                ..
            },
        ) => asp == bsp && adp == bdp,
        (
            Transport::Tcp {
                src_port: asp,
                dst_port: adp,
                ..
            },
            Transport::Tcp {
                src_port: bsp,
                dst_port: bdp,
                ..
            },
        ) => asp == bsp && adp == bdp,
        _ => false,
    }
}

/// Per-flow learning/steady state.
#[derive(Debug, Default)]
struct FlowState {
    /// Emissions seen (drives probe cadence).
    emits: u64,
    /// Last emission time (drives idle-gap demotion).
    last_emit: SimTime,
    /// Consecutive confirming adverts while learning.
    consistent: u32,
    /// True once promoted to the fast path.
    steady: bool,
    /// True once the flow was caught emitting faster than its one-way
    /// latency: multiple frames in flight means throughput is governed by
    /// per-hop queueing the analytic model does not capture (a windowed
    /// TCP stream would otherwise pump unboundedly past the bottleneck),
    /// so the flow is pinned to packet level for good.
    pipelined: bool,
    /// Policy-epoch sum over the learned path's hops at the last clean
    /// check (see [`PolicyProbeFn`]).
    policy_epoch: u64,
    /// Upper bound of the last clean policy-window check; the next check
    /// covers `(policy_checked, when]`.
    policy_checked: SimTime,
    /// The current path model (kept across demotions as the comparison
    /// target for re-learning).
    path: Option<LearnedPath>,
}

/// Interned metric ids for the flow.* counters.
#[derive(Debug, Clone, Copy)]
struct FlowIds {
    fastpath_frames: MetricId,
    fastpath_bytes: MetricId,
    probes: MetricId,
    adverts: MetricId,
    promotions: MetricId,
    escalations: MetricId,
}

impl FlowIds {
    fn intern(store: &mut SampleStore) -> FlowIds {
        FlowIds {
            fastpath_frames: store.metric_id("flow.fastpath_frames"),
            fastpath_bytes: store.metric_id("flow.fastpath_bytes"),
            probes: store.metric_id("flow.probes"),
            adverts: store.metric_id("flow.adverts"),
            promotions: store.metric_id("flow.steady_promotions"),
            escalations: store.metric_id("flow.escalations"),
        }
    }
}

/// What the engine should do with one emission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EmitAction {
    /// Simulate hop by hop, unstamped.
    Packet,
    /// Simulate hop by hop carrying a probe stamp.
    Probe,
    /// Synthesize the delivery from the learned path.
    Fast,
}

/// A flow-table decision worth journaling. At most one per
/// `on_emit`/`absorb` call; the engine drains it through
/// [`FlowTable::take_event`] immediately after the call that produced it
/// (so the slot is always empty between events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlowEvent {
    /// A flow confirmed its path and was promoted to the fast path.
    Promoted {
        /// Origin endpoint's device index.
        origin: u32,
        /// Confirmed one-way latency (ns) at promotion time.
        lat: u64,
    },
    /// A steady flow fell back to packet level.
    Escalated {
        /// Origin endpoint's device index.
        origin: u32,
        /// Why the flow left the fast path.
        reason: FlowEscalateReason,
    },
    /// A flow was caught pipelining and pinned to packet level for good.
    /// Subsumes the escalation that accompanies a pin of a steady flow.
    Pinned {
        /// Origin endpoint's device index.
        origin: u32,
    },
}

/// The per-engine flow table (present only in `Hybrid` runs).
#[derive(Debug)]
pub(crate) struct FlowTable {
    flows: FxHashMap<FlowKey, FlowState>,
    ids: FlowIds,
    /// Pending journal-worthy decision (see [`FlowEvent`]).
    last_event: Option<FlowEvent>,
}

impl FlowTable {
    pub(crate) fn new(store: &mut SampleStore) -> FlowTable {
        FlowTable {
            flows: FxHashMap::default(),
            ids: FlowIds::intern(store),
            last_event: None,
        }
    }

    /// Drains the decision event produced by the last `on_emit`/`absorb`
    /// call, if any. The engine calls this right after each call so the
    /// slot never outlives the event that filled it.
    #[inline]
    pub(crate) fn take_event(&mut self) -> Option<FlowEvent> {
        self.last_event.take()
    }

    /// The learned path of a steady flow (used to synthesize deliveries).
    pub(crate) fn path(&self, key: &FlowKey) -> Option<&LearnedPath> {
        self.flows.get(key).and_then(|st| st.path.as_ref())
    }

    /// Classifies one emission of `key` at `when`. `fault_active(hops,
    /// from, lat)` must report whether any fault window overlaps the
    /// synthesized flight `[from, from+lat)` on any learned hop;
    /// `policy(hops, after, upto)` resolves rule-change state per
    /// [`PolicyProbeFn`].
    pub(crate) fn on_emit(
        &mut self,
        key: &FlowKey,
        when: SimTime,
        fault_active: &FaultProbeFn<'_>,
        policy: &PolicyProbeFn<'_>,
        store: &mut SampleStore,
    ) -> EmitAction {
        let st = self.flows.entry(*key).or_default();
        st.emits += 1;
        let gap = when.0.saturating_sub(st.last_emit.0);
        st.last_emit = when;

        if !st.steady {
            // Learning flows run at packet level where rules apply for
            // real; keep the policy stamps fresh so a later promotion
            // starts from a clean baseline instead of inheriting a stale
            // epoch that would trigger a spurious escalation.
            let hops: &[(DeviceId, PortId)] = st.path.as_ref().map_or(&[], |p| &p.hops);
            let (_, epoch) = policy(hops, when, when);
            st.policy_epoch = epoch;
            st.policy_checked = when;
        }

        // Pipelining check: a request/response flow cannot emit again
        // before its previous frame was delivered, so an emission gap
        // below the observed one-way latency floor means several frames
        // are in flight and the path's queueing — not the path's latency
        // — governs throughput. Model violation: packet level, for good.
        if st.pipelined {
            return EmitAction::Packet;
        }
        if let Some(path) = &st.path {
            if st.emits > 1 && gap < path.lat_min {
                st.pipelined = true;
                if st.steady {
                    st.steady = false;
                    st.consistent = 0;
                    store.add_id(self.ids.escalations, 1.0);
                }
                self.last_event = Some(FlowEvent::Pinned {
                    origin: key.origin.0 as u32,
                });
                return EmitAction::Packet;
            }
        }

        if st.steady {
            // Idle gap: the connection paused; re-learn from scratch.
            if gap > IDLE_GAP_NS {
                st.steady = false;
                st.consistent = 0;
                store.add_id(self.ids.escalations, 1.0);
                store.add_id(self.ids.probes, 1.0);
                self.last_event = Some(FlowEvent::Escalated {
                    origin: key.origin.0 as u32,
                    reason: FlowEscalateReason::IdleGap,
                });
                return EmitAction::Probe;
            }
            let path = st.path.as_ref().expect("steady flow has a path");
            let lat = path.latency();
            let has_nat = path.has_nat;
            // Fault window overlapping a learned hop: escalate so the
            // packet-level machinery applies the fault faithfully.
            if fault_active(&path.hops, when, lat) {
                st.steady = false;
                st.consistent = 0;
                store.add_id(self.ids.escalations, 1.0);
                store.add_id(self.ids.probes, 1.0);
                self.last_event = Some(FlowEvent::Escalated {
                    origin: key.origin.0 as u32,
                    reason: FlowEscalateReason::FaultWindow,
                });
                return EmitAction::Probe;
            }
            // Rule change on the learned path: a filter window opened or
            // closed in the interval synthesized deliveries skipped over,
            // or a NAT/filter table was mutated between runs (epoch
            // moved). Escalate immediately — the fast path must never
            // deliver a frame the packet-level pipeline would now drop,
            // reject, or translate differently.
            let (changed, epoch) = policy(&path.hops, st.policy_checked, when);
            if changed || epoch != st.policy_epoch {
                st.policy_epoch = epoch;
                st.policy_checked = when;
                st.steady = false;
                st.consistent = 0;
                store.add_id(self.ids.escalations, 1.0);
                store.add_id(self.ids.probes, 1.0);
                self.last_event = Some(FlowEvent::Escalated {
                    origin: key.origin.0 as u32,
                    reason: FlowEscalateReason::RuleChange,
                });
                return EmitAction::Probe;
            }
            st.policy_checked = when;
            // Revalidate the learned path at the steady cadence.
            let cadence = if has_nat {
                NAT_PROBE_EVERY
            } else {
                PROBE_EVERY
            };
            if st.emits.is_multiple_of(cadence) {
                store.add_id(self.ids.probes, 1.0);
                return EmitAction::Probe;
            }
            return EmitAction::Fast;
        }

        // Learning: probe densely at first, then at the steady cadence so
        // never-converging flows don't probe-tax forever.
        if st.emits <= LEARN_CAP || st.emits.is_multiple_of(PROBE_EVERY) {
            store.add_id(self.ids.probes, 1.0);
            EmitAction::Probe
        } else {
            EmitAction::Packet
        }
    }

    /// Absorbs a delivered probe's advert.
    pub(crate) fn absorb(&mut self, update: FlowUpdate, store: &mut SampleStore) {
        store.add_id(self.ids.adverts, 1.0);
        let Some(st) = self.flows.get_mut(&update.key) else {
            // Not a flow this table probed: ignore.
            return;
        };
        if st.pipelined {
            // Pinned to packet level; late adverts must not re-promote.
            return;
        }
        if !update.ok {
            // Path crosses a no-bypass device or lossy link: never model.
            if st.steady {
                store.add_id(self.ids.escalations, 1.0);
                self.last_event = Some(FlowEvent::Escalated {
                    origin: update.key.origin.0 as u32,
                    reason: FlowEscalateReason::PathChanged,
                });
            }
            st.steady = false;
            st.consistent = 0;
            st.path = None;
            return;
        }
        match &mut st.path {
            Some(p) if p.confirmed_by(&update) => {
                p.lat_ewma = (7 * p.lat_ewma + update.lat) / 8;
                p.lat_min = p.lat_min.min(update.lat);
                if !st.steady {
                    st.consistent += 1;
                    if st.consistent >= STEADY_AFTER {
                        st.steady = true;
                        store.add_id(self.ids.promotions, 1.0);
                        self.last_event = Some(FlowEvent::Promoted {
                            origin: update.key.origin.0 as u32,
                            lat: update.lat,
                        });
                    }
                }
            }
            _ => {
                // New or changed path (NAT re-binding, bridge re-learning,
                // rewiring): demote and start confirming the new model.
                if st.steady {
                    store.add_id(self.ids.escalations, 1.0);
                    self.last_event = Some(FlowEvent::Escalated {
                        origin: update.key.origin.0 as u32,
                        reason: FlowEscalateReason::PathChanged,
                    });
                }
                st.steady = false;
                st.consistent = 1;
                st.path = Some(LearnedPath::from_update(&update));
            }
        }
    }

    /// Counter id for synthesized frames (charged by the engine).
    pub(crate) fn fastpath_frames_id(&self) -> MetricId {
        self.ids.fastpath_frames
    }

    /// Counter id for synthesized bytes (charged by the engine).
    pub(crate) fn fastpath_bytes_id(&self) -> MetricId {
        self.ids.fastpath_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Payload;
    use crate::SockAddr;

    fn key() -> FlowKey {
        FlowKey {
            origin: DeviceId(0),
            src_mac: MacAddr::local(1),
            dst_mac: MacAddr::local(2),
            src_ip: Ip4::new(10, 0, 0, 1),
            dst_ip: Ip4::new(10, 0, 0, 2),
            src_port: 4000,
            dst_port: 5000,
            tcp: false,
        }
    }

    fn frame() -> Frame {
        Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            SockAddr::new(Ip4::new(10, 0, 0, 1), 4000),
            SockAddr::new(Ip4::new(10, 0, 0, 2), 5000),
            Payload::sized(64),
        )
    }

    fn update(k: FlowKey, lat: u64) -> FlowUpdate {
        FlowUpdate {
            key: k,
            dst: DeviceId(9),
            dst_port: PortId(0),
            template: frame(),
            lat,
            hops: vec![(DeviceId(0), PortId(0)), (DeviceId(5), PortId(1))],
            cpu: Vec::new(),
            ok: true,
            has_nat: false,
        }
    }

    #[test]
    fn classify_rejects_multicast_and_accepts_udp() {
        let mut f = frame();
        assert!(FlowKey::classify(DeviceId(0), &f).is_some());
        f.dst_mac = MacAddr::BROADCAST;
        assert!(FlowKey::classify(DeviceId(0), &f).is_none());
    }

    #[test]
    fn three_consistent_adverts_promote_then_fast() {
        let mut store = SampleStore::default();
        let mut t = FlowTable::new(&mut store);
        let k = key();
        let no_fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| false;
        let clean = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 0u64);
        for i in 0..3u64 {
            assert_eq!(
                t.on_emit(&k, SimTime(i * 1000), &no_fault, &clean, &mut store),
                EmitAction::Probe
            );
            t.absorb(update(k, 500), &mut store);
        }
        assert_eq!(
            t.on_emit(&k, SimTime(4000), &no_fault, &clean, &mut store),
            EmitAction::Fast
        );
        assert_eq!(store.counter("flow.steady_promotions"), 1.0);
    }

    #[test]
    fn pipelined_emission_pins_flow_to_packet_level() {
        let mut store = SampleStore::default();
        let mut t = FlowTable::new(&mut store);
        let k = key();
        let no_fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| false;
        let clean = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 0u64);
        for i in 0..3u64 {
            t.on_emit(&k, SimTime(i * 1000), &no_fault, &clean, &mut store);
            t.absorb(update(k, 500), &mut store);
        }
        // Steady; now emit again only 100 ns after the last emission —
        // under the 500 ns one-way floor, so several frames are in
        // flight and queueing governs throughput.
        assert_eq!(
            t.on_emit(&k, SimTime(2100), &no_fault, &clean, &mut store),
            EmitAction::Packet
        );
        assert_eq!(store.counter("flow.escalations"), 1.0);
        // Pinned: generous gaps and fresh confirming adverts no longer
        // probe, promote, or fast-path this flow.
        t.absorb(update(k, 500), &mut store);
        for i in 0..8u64 {
            assert_eq!(
                t.on_emit(
                    &k,
                    SimTime(10_000 + i * 1_000),
                    &no_fault,
                    &clean,
                    &mut store
                ),
                EmitAction::Packet
            );
        }
        assert_eq!(store.counter("flow.steady_promotions"), 1.0);
    }

    #[test]
    fn changed_path_demotes() {
        let mut store = SampleStore::default();
        let mut t = FlowTable::new(&mut store);
        let k = key();
        let no_fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| false;
        let clean = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 0u64);
        for i in 0..3u64 {
            t.on_emit(&k, SimTime(i * 1000), &no_fault, &clean, &mut store);
            t.absorb(update(k, 500), &mut store);
        }
        // A re-routed advert (different delivery device) demotes.
        let mut u = update(k, 500);
        u.dst = DeviceId(11);
        t.absorb(u, &mut store);
        assert_eq!(
            t.on_emit(&k, SimTime(5000), &no_fault, &clean, &mut store),
            EmitAction::Probe
        );
        assert_eq!(store.counter("flow.escalations"), 1.0);
    }

    #[test]
    fn fault_window_escalates() {
        let mut store = SampleStore::default();
        let mut t = FlowTable::new(&mut store);
        let k = key();
        let no_fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| false;
        let clean = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 0u64);
        for i in 0..3u64 {
            t.on_emit(&k, SimTime(i * 1000), &no_fault, &clean, &mut store);
            t.absorb(update(k, 500), &mut store);
        }
        let fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| true;
        assert_eq!(
            t.on_emit(&k, SimTime(4000), &fault, &clean, &mut store),
            EmitAction::Probe
        );
        assert_eq!(store.counter("flow.escalations"), 1.0);
    }

    #[test]
    fn rule_change_escalates_steady_flow() {
        let mut store = SampleStore::default();
        let mut t = FlowTable::new(&mut store);
        let k = key();
        let no_fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| false;
        let clean = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 0u64);
        for i in 0..3u64 {
            t.on_emit(&k, SimTime(i * 1000), &no_fault, &clean, &mut store);
            t.absorb(update(k, 500), &mut store);
        }
        assert_eq!(
            t.on_emit(&k, SimTime(4000), &no_fault, &clean, &mut store),
            EmitAction::Fast
        );
        // An epoch bump (a rule was installed/removed on a hop's table)
        // escalates at once, without waiting for a cadence probe.
        let bumped = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 1u64);
        assert_eq!(
            t.on_emit(&k, SimTime(5000), &no_fault, &bumped, &mut store),
            EmitAction::Probe
        );
        assert_eq!(store.counter("flow.escalations"), 1.0);
        // Re-promote under the new epoch; the same epoch no longer fires.
        for i in 0..3u64 {
            t.on_emit(&k, SimTime(6000 + i * 1000), &no_fault, &bumped, &mut store);
            t.absorb(update(k, 500), &mut store);
        }
        assert_eq!(
            t.on_emit(&k, SimTime(9000), &no_fault, &bumped, &mut store),
            EmitAction::Fast
        );
        // A scheduled rule window opening inside the skipped interval
        // fires through the `changed` signal even at a constant epoch.
        let window = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (true, 1u64);
        assert_eq!(
            t.on_emit(&k, SimTime(9500), &no_fault, &window, &mut store),
            EmitAction::Probe
        );
        assert_eq!(store.counter("flow.escalations"), 2.0);
    }

    #[test]
    fn idle_gap_demotes() {
        let mut store = SampleStore::default();
        let mut t = FlowTable::new(&mut store);
        let k = key();
        let no_fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| false;
        let clean = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 0u64);
        for i in 0..3u64 {
            t.on_emit(&k, SimTime(i * 1000), &no_fault, &clean, &mut store);
            t.absorb(update(k, 500), &mut store);
        }
        assert_eq!(
            t.on_emit(&k, SimTime(4000), &no_fault, &clean, &mut store),
            EmitAction::Fast
        );
        // A long pause forces re-learning.
        assert_eq!(
            t.on_emit(
                &k,
                SimTime(4000 + IDLE_GAP_NS + 1),
                &no_fault,
                &clean,
                &mut store
            ),
            EmitAction::Probe
        );
    }

    #[test]
    fn not_ok_paths_never_promote() {
        let mut store = SampleStore::default();
        let mut t = FlowTable::new(&mut store);
        let k = key();
        let no_fault = |_: &[(DeviceId, PortId)], _: SimTime, _: u64| false;
        let clean = |_: &[(DeviceId, PortId)], _: SimTime, _: SimTime| (false, 0u64);
        for i in 0..10u64 {
            t.on_emit(&k, SimTime(i * 1000), &no_fault, &clean, &mut store);
            let mut u = update(k, 500);
            u.ok = false;
            t.absorb(u, &mut store);
        }
        assert_eq!(
            t.on_emit(&k, SimTime(20_000), &no_fault, &clean, &mut store),
            EmitAction::Probe
        );
        assert_eq!(store.counter("flow.steady_promotions"), 0.0);
    }

    #[test]
    fn ewma_never_undercuts_min_latency() {
        let mut p = LearnedPath::from_update(&update(key(), 1000));
        for lat in [1000u64, 1200, 900, 1000, 1100] {
            p.lat_ewma = (7 * p.lat_ewma + lat) / 8;
            p.lat_min = p.lat_min.min(lat);
            assert!(p.latency() >= p.lat_min);
        }
    }
}
