//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is an immutable schedule of link and device faults,
//! installed on a [`Network`](crate::engine::Network) before the run
//! starts. Faults are scoped to *emission*: every fault window is keyed by
//! the emitting `(device, port)` and a half-open time interval, and every
//! probabilistic fault draws from the emitting device's own RNG stream
//! inside that device's own event handling. Because window membership is a
//! pure function of the emission time and draws advance only with the
//! device's own event sequence, a faulted scenario is bit-identical at
//! any shard count — the same property the healthy engine
//! guarantees (see `parallel.rs`).
//!
//! Fault kinds:
//!
//! * [`LinkFaultKind::Down`] — the link is hard down (cable pull / flap);
//!   every frame emitted in the window is dropped *without* an RNG draw,
//!   so surrounding draw sequences are untouched.
//! * [`LinkFaultKind::Loss`] — extra probabilistic loss on top of the
//!   link's base `loss_prob`.
//! * [`LinkFaultKind::Corrupt`] — probabilistic corruption; the receiver's
//!   FCS check discards the frame, so it is modeled as a counted drop.
//! * [`LinkFaultKind::Duplicate`] — probabilistic duplication: the frame
//!   is delivered twice (two consecutive emission sequence numbers).
//! * [`LinkFaultKind::Reorder`] — probabilistic extra delay, letting later
//!   frames overtake the delayed one.
//! * [`StallWindow`] — a per-device stall (vCPU preemption, softirq
//!   starvation): every frame the device emits in the window gains a fixed
//!   extra delay, draw-free.
//!
//! All extra delays are non-negative, so the sharded engine's conservative
//! lookahead epoch (minimum cross-shard link latency) stays safe: faults
//! can only push deliveries later, never earlier.

use crate::device::{DeviceId, PortId};
use crate::engine::SampleStore;
use crate::time::{SimDuration, SimTime};
use metrics::MetricId;
use rand::Rng;

/// What a scheduled link fault does to frames emitted in its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFaultKind {
    /// Hard link outage: every frame is dropped, no RNG draw.
    Down,
    /// Additional probabilistic loss with the given probability.
    Loss(f64),
    /// Probabilistic corruption (dropped at the receiver's FCS check).
    Corrupt(f64),
    /// Probabilistic duplication: the frame arrives twice.
    Duplicate(f64),
    /// Probabilistic reordering: a hit frame gains a uniformly drawn extra
    /// delay in `1..=max_extra`, letting later frames overtake it.
    Reorder {
        /// Probability that a frame is delayed.
        prob: f64,
        /// Upper bound of the drawn extra delay.
        max_extra: SimDuration,
    },
}

/// A link fault scoped to one emitting `(device, port)` and a half-open
/// time window `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Emitting device the fault applies to.
    pub dev: DeviceId,
    /// Emitting port the fault applies to.
    pub port: PortId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// What happens to frames emitted in the window.
    pub kind: LinkFaultKind,
}

/// A per-device stall window: every frame the device emits in
/// `[from, until)` gains `extra` delay (draw-free — models vCPU
/// preemption or softirq starvation rather than a lossy medium).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallWindow {
    /// The stalled device.
    pub dev: DeviceId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Extra delay added to every emission in the window.
    pub extra: SimDuration,
}

/// An immutable schedule of faults, installed via
/// [`Network::install_fault_plan`](crate::engine::Network::install_fault_plan)
/// before the run starts. Windows are evaluated in declaration order, so a
/// plan's draw sequence is itself deterministic.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    link_faults: Vec<LinkFault>,
    stalls: Vec<StallWindow>,
}

/// Result of evaluating a plan for one emission (engine-internal).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FaultOutcome {
    pub(crate) down: bool,
    pub(crate) lost: bool,
    pub(crate) corrupt: bool,
    pub(crate) duplicate: bool,
    pub(crate) reordered: bool,
    pub(crate) stalled: bool,
    pub(crate) extra: SimDuration,
}

impl FaultPlan {
    /// Creates an empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a link fault window.
    ///
    /// # Panics
    /// Panics on an empty window or a probability outside `[0, 1]`.
    pub fn link_fault(mut self, fault: LinkFault) -> FaultPlan {
        assert!(fault.from < fault.until, "fault window must be non-empty");
        let p = match fault.kind {
            LinkFaultKind::Down => None,
            LinkFaultKind::Loss(p) | LinkFaultKind::Corrupt(p) | LinkFaultKind::Duplicate(p) => {
                Some(p)
            }
            LinkFaultKind::Reorder { prob, max_extra } => {
                assert!(max_extra > SimDuration::ZERO, "reorder needs a max delay");
                Some(prob)
            }
        };
        if let Some(p) = p {
            assert!((0.0..=1.0).contains(&p), "fault probability in [0,1]");
        }
        self.link_faults.push(fault);
        self
    }

    /// Adds a per-device stall window.
    ///
    /// # Panics
    /// Panics on an empty window.
    pub fn stall(mut self, stall: StallWindow) -> FaultPlan {
        assert!(stall.from < stall.until, "stall window must be non-empty");
        self.stalls.push(stall);
        self
    }

    /// Adds a periodic link flap: `cycles` hard-down windows of `down_for`,
    /// separated by `up_for` of healthy link, starting at `first_down`.
    /// Flaps affect one emission direction; call once per direction (with
    /// each endpoint's `(device, port)`) for a full cable pull.
    ///
    /// # Panics
    /// Panics if `down_for` is zero or `cycles` is zero.
    pub fn link_flap(
        mut self,
        dev: DeviceId,
        port: PortId,
        first_down: SimTime,
        down_for: SimDuration,
        up_for: SimDuration,
        cycles: u32,
    ) -> FaultPlan {
        assert!(down_for > SimDuration::ZERO, "flap needs a down time");
        assert!(cycles > 0, "flap needs at least one cycle");
        let period = down_for + up_for;
        for k in 0..cycles {
            let from = first_down + period.saturating_mul(u64::from(k));
            self = self.link_fault(LinkFault {
                dev,
                port,
                from,
                until: from + down_for,
                kind: LinkFaultKind::Down,
            });
        }
        self
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.link_faults.is_empty() && self.stalls.is_empty()
    }

    /// The scheduled link fault windows, in declaration order.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.link_faults
    }

    /// The scheduled stall windows, in declaration order.
    pub fn stalls(&self) -> &[StallWindow] {
        &self.stalls
    }

    /// True when any fault window (link fault on a matching hop, or a
    /// stall on a matching device) overlaps `[from, until)` for any of
    /// `hops`. Pure — no RNG draws. The flow table uses this to escalate
    /// steady flows back to packet level whenever a fault could touch a
    /// synthesized flight, so faults are always applied by the real
    /// per-packet machinery.
    pub fn any_active(&self, hops: &[(DeviceId, PortId)], from: SimTime, until: SimTime) -> bool {
        self.link_faults.iter().any(|f| {
            f.from < until && from < f.until && hops.iter().any(|&(d, p)| d == f.dev && p == f.port)
        }) || self
            .stalls
            .iter()
            .any(|s| s.from < until && from < s.until && hops.iter().any(|&(d, _)| d == s.dev))
    }

    /// True when a hard-down window covers an emission from `(dev, port)`
    /// at `when`. Pure (no RNG); harnesses use it to align workload
    /// assertions with the schedule.
    pub fn is_link_down(&self, dev: DeviceId, port: PortId, when: SimTime) -> bool {
        self.link_faults.iter().any(|f| {
            f.kind == LinkFaultKind::Down
                && f.dev == dev
                && f.port == port
                && f.from <= when
                && when < f.until
        })
    }

    /// Evaluates the plan for one emission. Draws (if any) come from the
    /// emitting device's own RNG in declaration order, so the sequence is
    /// a pure function of the device's own event history — the property
    /// that keeps faulted runs bit-identical across shard counts.
    pub(crate) fn outcome<R: Rng>(
        &self,
        dev: DeviceId,
        port: PortId,
        when: SimTime,
        rng: &mut R,
    ) -> FaultOutcome {
        let mut out = FaultOutcome::default();
        for f in &self.link_faults {
            if f.dev != dev || f.port != port || when < f.from || when >= f.until {
                continue;
            }
            match f.kind {
                LinkFaultKind::Down => {
                    out.down = true;
                    break;
                }
                LinkFaultKind::Loss(p) => {
                    if p > 0.0 && rng.gen_bool(p) {
                        out.lost = true;
                        break;
                    }
                }
                LinkFaultKind::Corrupt(p) => {
                    if p > 0.0 && rng.gen_bool(p) {
                        out.corrupt = true;
                        break;
                    }
                }
                LinkFaultKind::Duplicate(p) => {
                    if p > 0.0 && rng.gen_bool(p) {
                        out.duplicate = true;
                    }
                }
                LinkFaultKind::Reorder { prob, max_extra } => {
                    if prob > 0.0 && rng.gen_bool(prob) {
                        let ns = rng.gen_range(1..=max_extra.as_nanos().max(1));
                        out.extra += SimDuration::nanos(ns);
                        out.reordered = true;
                    }
                }
            }
        }
        for s in &self.stalls {
            if s.dev == dev && s.from <= when && when < s.until {
                out.extra += s.extra;
                out.stalled = true;
            }
        }
        out
    }
}

/// Interned counter ids for fault accounting; resolved when a plan is
/// installed (and re-resolved per shard store on split).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FaultIds {
    pub(crate) down: MetricId,
    pub(crate) lost: MetricId,
    pub(crate) corrupt: MetricId,
    pub(crate) duplicated: MetricId,
    pub(crate) reordered: MetricId,
    pub(crate) stalled: MetricId,
}

impl FaultIds {
    pub(crate) fn intern(store: &mut SampleStore) -> FaultIds {
        FaultIds {
            down: store.metric_id("fault.link_down"),
            lost: store.metric_id("fault.lost"),
            corrupt: store.metric_id("fault.corrupt"),
            duplicated: store.metric_id("fault.duplicated"),
            reordered: store.metric_id("fault.reordered"),
            stalled: store.metric_id("fault.stalled"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{Device, DeviceKind};
    use crate::engine::StopCondition;
    use crate::engine::{DevCtx, LinkParams, Network};
    use crate::frame::Frame;
    use crate::testutil::{frame_between, CaptureSink};
    use crate::MacAddr;
    use metrics::CpuLocation;

    /// Forwards every frame from port 0 out of port 1 immediately.
    struct Relay;
    impl Device for Relay {
        fn kind(&self) -> DeviceKind {
            DeviceKind::Other
        }
        fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
            ctx.transmit(PortId::P1, frame);
        }
    }

    fn relay_net(plan: FaultPlan) -> (Network, DeviceId) {
        let mut net = Network::new(9);
        let relay = net.add_device("relay", CpuLocation::Host, Box::new(Relay));
        let sink = net.add_device(
            "sink",
            CpuLocation::Host,
            Box::new(CaptureSink::new("sink")),
        );
        net.connect(
            relay,
            PortId::P1,
            sink,
            PortId::P0,
            LinkParams::with_latency(SimDuration::micros(1)),
        );
        net.install_fault_plan(plan);
        (net, relay)
    }

    fn inject(net: &mut Network, relay: DeviceId, at_us: u64) {
        net.inject_frame(
            SimDuration::micros(at_us),
            relay,
            PortId::P0,
            frame_between(MacAddr::local(1), MacAddr::local(2), 100),
        );
    }

    #[test]
    fn down_window_drops_draw_free() {
        let plan = FaultPlan::new().link_fault(LinkFault {
            dev: DeviceId(0),
            port: PortId::P1,
            from: SimTime(5_000),
            until: SimTime(15_000),
            kind: LinkFaultKind::Down,
        });
        let (mut net, relay) = relay_net(plan);
        inject(&mut net, relay, 0); // before the window: delivered
        inject(&mut net, relay, 10); // inside: dropped
        inject(&mut net, relay, 20); // after: delivered
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("sink.received"), 2.0);
        assert_eq!(net.store().counter("fault.link_down"), 1.0);
    }

    #[test]
    fn link_flap_builds_periodic_down_windows() {
        let plan = FaultPlan::new().link_flap(
            DeviceId(3),
            PortId::P0,
            SimTime(1_000),
            SimDuration::nanos(100),
            SimDuration::nanos(900),
            3,
        );
        assert_eq!(plan.link_faults().len(), 3);
        for (start, down) in [(1_000, true), (1_100, false), (2_050, true), (3_099, true)] {
            assert_eq!(
                plan.is_link_down(DeviceId(3), PortId::P0, SimTime(start)),
                down,
                "at {start}"
            );
        }
        // Other ports and devices are unaffected.
        assert!(!plan.is_link_down(DeviceId(3), PortId::P1, SimTime(1_000)));
        assert!(!plan.is_link_down(DeviceId(2), PortId::P0, SimTime(1_000)));
    }

    #[test]
    fn duplicate_delivers_twice() {
        let plan = FaultPlan::new().link_fault(LinkFault {
            dev: DeviceId(0),
            port: PortId::P1,
            from: SimTime::ZERO,
            until: SimTime(1_000_000),
            kind: LinkFaultKind::Duplicate(1.0),
        });
        let (mut net, relay) = relay_net(plan);
        inject(&mut net, relay, 0);
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("sink.received"), 2.0);
        assert_eq!(net.store().counter("fault.duplicated"), 1.0);
    }

    #[test]
    fn corrupt_and_loss_count_separately() {
        let plan = FaultPlan::new()
            .link_fault(LinkFault {
                dev: DeviceId(0),
                port: PortId::P1,
                from: SimTime::ZERO,
                until: SimTime(5_000),
                kind: LinkFaultKind::Corrupt(1.0),
            })
            .link_fault(LinkFault {
                dev: DeviceId(0),
                port: PortId::P1,
                from: SimTime(5_000),
                until: SimTime(50_000),
                kind: LinkFaultKind::Loss(1.0),
            });
        let (mut net, relay) = relay_net(plan);
        inject(&mut net, relay, 1); // corrupt window
        inject(&mut net, relay, 10); // loss window
        net.run(StopCondition::Idle);
        assert_eq!(net.store().counter("sink.received"), 0.0);
        assert_eq!(net.store().counter("fault.corrupt"), 1.0);
        assert_eq!(net.store().counter("fault.lost"), 1.0);
    }

    #[test]
    fn stall_delays_emission() {
        let plan = FaultPlan::new().stall(StallWindow {
            dev: DeviceId(0),
            from: SimTime::ZERO,
            until: SimTime(10_000),
            extra: SimDuration::micros(50),
        });
        let (mut net, relay) = relay_net(plan);
        inject(&mut net, relay, 0); // stalled: 1us link + 50us stall
        inject(&mut net, relay, 20); // after the window: 1us link only
        net.run(StopCondition::Idle);
        assert_eq!(
            net.store().samples("sink.arrival_ns"),
            &[21_000.0, 51_000.0]
        );
        assert_eq!(net.store().counter("fault.stalled"), 1.0);
    }

    #[test]
    fn reorder_adds_random_delay() {
        let plan = FaultPlan::new().link_fault(LinkFault {
            dev: DeviceId(0),
            port: PortId::P1,
            from: SimTime::ZERO,
            until: SimTime(500),
            kind: LinkFaultKind::Reorder {
                prob: 1.0,
                max_extra: SimDuration::micros(100),
            },
        });
        let (mut net, relay) = relay_net(plan);
        inject(&mut net, relay, 0); // delayed by 1ns..=100us past its 1us link
        inject(&mut net, relay, 1); // outside the window: on time at 2us
        net.run(StopCondition::Idle);
        let mut arrivals = net.store().samples("sink.arrival_ns").to_vec();
        arrivals.sort_by(f64::total_cmp);
        assert_eq!(arrivals.len(), 2);
        assert_eq!(net.store().counter("fault.reordered"), 1.0);
        assert!(arrivals.contains(&2_000.0), "undelayed frame on time");
        let delayed = if arrivals[0] == 2_000.0 {
            arrivals[1]
        } else {
            arrivals[0]
        };
        assert!(
            delayed > 1_000.0 && delayed <= 101_000.0,
            "delayed frame pushed past its nominal 1us arrival ({delayed})"
        );
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let run = || {
            let plan = FaultPlan::new().link_fault(LinkFault {
                dev: DeviceId(0),
                port: PortId::P1,
                from: SimTime::ZERO,
                until: SimTime(1_000_000_000),
                kind: LinkFaultKind::Loss(0.5),
            });
            let (mut net, relay) = relay_net(plan);
            for i in 0..50 {
                inject(&mut net, relay, i);
            }
            net.run(StopCondition::Idle);
            (
                net.store().counter("sink.received"),
                net.store().counter("fault.lost"),
            )
        };
        let (a_recv, a_lost) = run();
        let (b_recv, b_lost) = run();
        assert_eq!((a_recv, a_lost), (b_recv, b_lost));
        assert_eq!(a_recv + a_lost, 50.0);
        assert!(a_lost > 0.0, "loss draws actually exercised");
    }

    #[test]
    #[should_panic(expected = "before running")]
    fn plan_must_be_installed_before_running() {
        let mut net = Network::new(0);
        let sink = net.add_device("sink", CpuLocation::Host, Box::new(CaptureSink::new("s")));
        net.inject_frame(
            SimDuration::ZERO,
            sink,
            PortId::P0,
            frame_between(MacAddr::local(1), MacAddr::local(2), 10),
        );
        net.run(StopCondition::Idle);
        net.install_fault_plan(FaultPlan::new());
    }

    #[test]
    #[should_panic(expected = "probability in [0,1]")]
    fn invalid_probability_rejected() {
        let _ = FaultPlan::new().link_fault(LinkFault {
            dev: DeviceId(0),
            port: PortId::P0,
            from: SimTime::ZERO,
            until: SimTime(1),
            kind: LinkFaultKind::Loss(1.5),
        });
    }
}
