//! The per-stage cost model.
//!
//! Every datapath element charges a service time of
//! `fixed + per_byte * wire_len`, optionally perturbed by uniform jitter and
//! rare latency spikes. The CPU time equal to the service time is charged to
//! the stage's [`CpuCategory`] at the device's location.
//!
//! Calibration: [`CostModel::calibrated`] carries the constants tuned so the
//! *motivating* measurement of the paper's §2 is reproduced (≈68 % throughput
//! degradation and ≈31 % latency increase for the nested NAT path vs a single
//! virtualization layer at 1280 B). All other experimental shapes emerge from
//! composing stages, not from per-figure fitting.

use crate::time::SimDuration;
use metrics::CpuCategory;
use rand::Rng;

/// Service cost of one datapath stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageCost {
    /// Fixed per-frame service time, ns.
    pub fixed_ns: u64,
    /// Additional service time per wire byte, ns.
    pub per_byte_ns: f64,
    /// CPU category the work is accounted under.
    pub cpu_cat: CpuCategory,
    /// Uniform multiplicative jitter: service is scaled by
    /// `1 + U(-jitter_frac, +jitter_frac)`.
    pub jitter_frac: f64,
    /// Probability that a frame hits a latency spike (scheduling delay,
    /// cache miss burst, softirq backlog...).
    pub spike_prob: f64,
    /// Multiplier applied to the service time on a spike.
    pub spike_mult: f64,
    /// Probability that a frame is *stalled*: held up without occupying
    /// the station or burning CPU (lock contention, vCPU scheduling delay).
    /// This inflates latency and its variance but not saturation
    /// throughput — the mechanism behind the erratic NAT/Overlay latencies
    /// of the paper's fig. 10 ("vary greatly and in unexpected manners").
    pub stall_prob: f64,
    /// Mean stall duration, ns (sampled uniformly in 0.5x..1.5x).
    pub stall_ns: u64,
}

impl StageCost {
    /// A deterministic cost with no jitter.
    pub fn fixed(fixed_ns: u64, per_byte_ns: f64, cpu_cat: CpuCategory) -> StageCost {
        StageCost {
            fixed_ns,
            per_byte_ns,
            cpu_cat,
            jitter_frac: 0.0,
            spike_prob: 0.0,
            spike_mult: 1.0,
            stall_prob: 0.0,
            stall_ns: 0,
        }
    }

    /// Adds uniform jitter.
    pub fn with_jitter(mut self, frac: f64) -> StageCost {
        assert!(
            (0.0..1.0).contains(&frac),
            "jitter fraction must be in [0,1)"
        );
        self.jitter_frac = frac;
        self
    }

    /// Adds a stall regime (latency-only delays; see `stall_prob`).
    pub fn with_stalls(mut self, prob: f64, mean: SimDuration) -> StageCost {
        assert!(
            (0.0..=1.0).contains(&prob),
            "stall probability must be in [0,1]"
        );
        self.stall_prob = prob;
        self.stall_ns = mean.as_nanos();
        self
    }

    /// Samples the stall delay for one frame (zero for most frames).
    pub fn sample_stall(&self, rng: &mut impl Rng) -> SimDuration {
        if self.stall_prob > 0.0 && rng.gen_bool(self.stall_prob) {
            let f: f64 = rng.gen_range(0.5..1.5);
            SimDuration::nanos((self.stall_ns as f64 * f) as u64)
        } else {
            SimDuration::ZERO
        }
    }

    /// Adds a spike regime.
    pub fn with_spikes(mut self, prob: f64, mult: f64) -> StageCost {
        assert!(
            (0.0..=1.0).contains(&prob),
            "spike probability must be in [0,1]"
        );
        assert!(mult >= 1.0, "spike multiplier must be >= 1");
        self.spike_prob = prob;
        self.spike_mult = mult;
        self
    }

    /// Mean (jitter-free) service time for a frame of `wire_len` bytes.
    pub fn mean_service(&self, wire_len: u32) -> SimDuration {
        SimDuration::nanos(self.fixed_ns + (self.per_byte_ns * wire_len as f64) as u64)
    }

    /// Samples the service time for one frame.
    pub fn sample_service(&self, wire_len: u32, rng: &mut impl Rng) -> SimDuration {
        let mut ns = self.mean_service(wire_len).as_nanos() as f64;
        if self.jitter_frac > 0.0 {
            let u: f64 = rng.gen_range(-1.0..1.0);
            ns *= 1.0 + self.jitter_frac * u;
        }
        if self.spike_prob > 0.0 && rng.gen_bool(self.spike_prob) {
            ns *= self.spike_mult;
        }
        SimDuration::nanos(ns.max(1.0) as u64)
    }
}

/// The calibrated constants for every stage type used by the topology
/// builders. Grouping them here keeps calibration reviewable in one place.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Learning-bridge switching (host side, `sys`).
    pub host_bridge: StageCost,
    /// Learning-bridge switching inside a VM (`soft`: the guest bridge runs
    /// its forwarding in softirq context).
    pub guest_bridge: StageCost,
    /// Netfilter NAT traversal at host level (`soft`).
    pub host_nat: StageCost,
    /// Netfilter NAT traversal inside a VM (`soft`); this is the stage
    /// BrFusion removes. Costlier than the host's: the guest kernel takes
    /// VM exits for its timer/IPIs while walking the rule chains.
    pub guest_nat: StageCost,
    /// veth pair crossing (namespace boundary, `sys`).
    pub veth: StageCost,
    /// virtio-net frontend work in the guest (`soft`: NAPI polling and
    /// descriptor processing run in softirq context). This is the softirq
    /// floor that remains in figs. 6/7 even after BrFusion removes the
    /// Netfilter hooks.
    pub virtio_guest: StageCost,
    /// vhost backend work in the host kernel (`sys` at host).
    pub vhost: StageCost,
    /// Interrupt-coalescing window applied by vhost/virtio notification
    /// suppression on *bridged* paths (NAT and Overlay configurations batch;
    /// per-pod NICs and hostlo endpoints are notification-driven and do not).
    pub coalesce_window: SimDuration,
    /// In-VM loopback (pod-local localhost) cost (`sys`).
    pub loopback: StageCost,
    /// Hostlo TAP queue service on the host (`sys` at host): the modified
    /// TAP driver copying a frame into one VM queue.
    pub hostlo_queue: StageCost,
    /// VXLAN encapsulation/decapsulation work (`soft` in the VM kernel).
    pub vxlan: StageCost,
    /// Physical/endpoint NIC DMA + descriptor handling (`sys`).
    pub phys_nic: StageCost,
    /// Application socket send/receive syscall cost (`usr` side).
    pub socket: StageCost,
    /// Propagation latency of a point-to-point link.
    pub link_latency: SimDuration,
}

impl CostModel {
    /// The calibrated model (see module docs). Constants are in nanoseconds
    /// and nanoseconds-per-byte.
    pub fn calibrated() -> CostModel {
        use CpuCategory::{Soft, Sys, Usr};
        CostModel {
            host_bridge: StageCost::fixed(1_500, 0.30, Sys).with_jitter(0.05),
            guest_bridge: StageCost::fixed(1_200, 0.40, Soft).with_jitter(0.08),
            host_nat: StageCost::fixed(3_200, 0.45, Soft)
                .with_jitter(0.10)
                .with_spikes(0.002, 8.0),
            guest_nat: StageCost::fixed(3_400, 0.90, Soft)
                .with_jitter(0.12)
                .with_spikes(0.012, 14.0),
            veth: StageCost::fixed(600, 0.15, Sys).with_jitter(0.05),
            virtio_guest: StageCost::fixed(2_600, 0.50, Soft).with_jitter(0.06),
            vhost: StageCost::fixed(3_800, 1.05, Sys).with_jitter(0.06),
            coalesce_window: SimDuration::micros(46),
            loopback: StageCost::fixed(800, 1.30, Sys)
                .with_jitter(0.10)
                // Process wakeup on localhost delivery (futex/epoll wake +
                // scheduler): pure latency, does not occupy the softirq.
                .with_stalls(1.0, SimDuration::micros(10)),
            hostlo_queue: StageCost::fixed(1_500, 4.30, Sys).with_jitter(0.12),
            vxlan: StageCost::fixed(1_200, 0.25, Soft)
                .with_jitter(0.10)
                .with_spikes(0.003, 9.0),
            phys_nic: StageCost::fixed(1_200, 0.25, Sys).with_jitter(0.03),
            socket: StageCost::fixed(1_200, 0.08, Usr).with_jitter(0.05),
            link_latency: SimDuration::micros(2),
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_service_is_linear_in_bytes() {
        let c = StageCost::fixed(1_000, 2.0, CpuCategory::Sys);
        assert_eq!(c.mean_service(0), SimDuration::nanos(1_000));
        assert_eq!(c.mean_service(500), SimDuration::nanos(2_000));
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let c = StageCost::fixed(10_000, 0.0, CpuCategory::Sys).with_jitter(0.1);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let s = c.sample_service(0, &mut rng).as_nanos();
            assert!(
                (9_000..=11_000).contains(&s),
                "sample {s} outside jitter bounds"
            );
        }
    }

    #[test]
    fn spikes_occur_at_roughly_configured_rate() {
        let c = StageCost::fixed(1_000, 0.0, CpuCategory::Sys).with_spikes(0.1, 100.0);
        let mut rng = StdRng::seed_from_u64(3);
        let spikes = (0..10_000)
            .filter(|_| c.sample_service(0, &mut rng).as_nanos() > 50_000)
            .count();
        assert!(
            (800..1200).contains(&spikes),
            "spike count {spikes} far from 10%"
        );
    }

    #[test]
    fn deterministic_cost_never_varies() {
        let c = StageCost::fixed(5_000, 1.0, CpuCategory::Soft);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(c.sample_service(100, &mut rng), SimDuration::nanos(5_100));
        }
    }

    #[test]
    fn calibrated_model_orders_paths_correctly() {
        let m = CostModel::calibrated();
        // The guest NAT stage (removed by BrFusion) must dominate the guest
        // bridge, and the loopback must be the cheapest stage of all.
        assert!(m.guest_nat.mean_service(1280) > m.guest_bridge.mean_service(1280));
        assert!(m.veth.mean_service(1280) < m.guest_bridge.mean_service(1280));
        assert!(m.loopback.mean_service(1280) < m.hostlo_queue.mean_service(1280));
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn jitter_bounds_validated() {
        StageCost::fixed(1, 0.0, CpuCategory::Sys).with_jitter(1.5);
    }
}
