//! The device abstraction: everything on the datapath — bridges, veth pairs,
//! TAP devices, NAT routers, NICs and application endpoints — implements
//! [`Device`] and is driven by the event engine in [`crate::engine`].

use crate::costs::StageCost;
use crate::engine::DevCtx;
use crate::frame::Frame;
use crate::time::SimTime;

/// Index of a device inside a [`crate::engine::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

/// A port (attachment point) on a device. Port numbering is device-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub usize);

impl PortId {
    /// Port 0, the conventional "uplink"/single port.
    pub const P0: PortId = PortId(0);
    /// Port 1.
    pub const P1: PortId = PortId(1);
}

/// Coarse classification of devices, used for tracing and cost defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Learning Ethernet switch.
    Bridge,
    /// Virtual Ethernet pair endpoint (namespace boundary crossing).
    Veth,
    /// TAP device (kernel-side virtual NIC backed by a file descriptor).
    Tap,
    /// The modified multi-queue loopback TAP of Hostlo (§4.2).
    HostloTap,
    /// Netfilter-style router applying NAT chains.
    NatRouter,
    /// In-node loopback interface.
    Loopback,
    /// virtio-net guest NIC frontend.
    VirtioNic,
    /// vhost backend worker (host kernel).
    Vhost,
    /// Physical NIC.
    PhysNic,
    /// Application endpoint (socket owner).
    Endpoint,
    /// Anything else.
    Other,
}

/// A datapath element. Implementations are single-threaded state machines
/// driven by frame arrivals and timers; all interaction with the outside
/// world goes through [`DevCtx`].
pub trait Device: Send {
    /// Device classification.
    fn kind(&self) -> DeviceKind;

    /// Handles a frame arriving on `port`.
    fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut DevCtx<'_>);

    /// Handles a timer previously scheduled with [`DevCtx::set_timer`].
    fn on_timer(&mut self, token: u64, ctx: &mut DevCtx<'_>) {
        let _ = (token, ctx);
    }

    /// Whether the flow-level fast path may skip this device for steady
    /// flows (hybrid fidelity). Pure forwarders keep the default `true`;
    /// devices whose per-frame work changes outcomes — a rate shaper
    /// deciding pacing, for example — must return `false`, which pins
    /// every flow crossing them to packet level.
    fn flow_bypass(&self) -> bool {
        true
    }
}

/// FIFO single-server service station: the queueing discipline shared by all
/// store-and-forward devices.
///
/// A station is busy until `busy_until`; an arrival at `t` starts service at
/// `max(t, busy_until)` and completes after the [`StageCost`] service time.
/// This yields both queueing delay under load and a saturation throughput of
/// `1 / service_time` — the mechanism behind every throughput plateau in the
/// paper's figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Station {
    pub(crate) busy_until: SimTime,
}

impl Station {
    /// A station that has never served a frame.
    pub fn new() -> Station {
        Station::default()
    }

    /// Serves one frame of `wire_len` bytes under `cost`, charging CPU via
    /// `ctx`, and returns the service completion time (when the frame may be
    /// transmitted onward).
    pub fn serve(&mut self, cost: &StageCost, wire_len: u32, ctx: &mut DevCtx<'_>) -> SimTime {
        let service = cost.sample_service(wire_len, ctx.rng());
        let start = self.busy_until.max(ctx.now());
        let done = start + service;
        self.busy_until = done;
        ctx.charge(cost.cpu_cat, service);
        // Stalls delay the frame without occupying the server: latency-only.
        done + cost.sample_stall(ctx.rng())
    }

    /// When the station next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }
}
