//! Container start-up time model (fig. 8).
//!
//! The paper defines start-up time as "the duration between ordering Docker
//! to create the container, and the container sending a message through a
//! TCP socket", measured 100 times via a TSC passed across the virtual
//! boundary. We model the start-up as a pipeline of phases with seeded
//! random durations; the two networking modes differ only in their
//! `network_setup` phase:
//!
//! * **NAT**: create a veth pair, attach to docker0, walk and update the
//!   iptables chains (slow, grows with rule count, moderate variance);
//! * **BrFusion**: one QMP `netdev_add` round-trip plus moving the NIC into
//!   the pod namespace — usually faster (no iptables), but the PCI hot-plug
//!   rescan occasionally stalls, giving a heavier tail.
//!
//! Figure 8a's finding — "75 % of the measured start up times are slightly
//! better with BrFusion" — emerges from those two shapes.

use metrics::Cdf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One phase of the boot pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct BootPhase {
    /// Phase name.
    pub name: String,
    /// Mean duration in milliseconds.
    pub base_ms: f64,
    /// Uniform multiplicative jitter fraction.
    pub jitter_frac: f64,
    /// Probability of a stall.
    pub spike_prob: f64,
    /// Duration multiplier on a stall.
    pub spike_mult: f64,
}

impl BootPhase {
    fn new(name: &str, base_ms: f64, jitter_frac: f64) -> BootPhase {
        BootPhase {
            name: name.into(),
            base_ms,
            jitter_frac,
            spike_prob: 0.0,
            spike_mult: 1.0,
        }
    }

    fn with_spikes(mut self, prob: f64, mult: f64) -> BootPhase {
        self.spike_prob = prob;
        self.spike_mult = mult;
        self
    }

    fn sample(&self, rng: &mut StdRng) -> f64 {
        let mut ms = self.base_ms * (1.0 + self.jitter_frac * rng.gen_range(-1.0..1.0));
        if self.spike_prob > 0.0 && rng.gen_bool(self.spike_prob) {
            ms *= self.spike_mult;
        }
        ms.max(0.1)
    }
}

/// A sampled boot: per-phase durations and the total.
#[derive(Debug, Clone, PartialEq)]
pub struct BootSample {
    /// `(phase name, duration ms)` in pipeline order.
    pub phases: Vec<(String, f64)>,
    /// Total duration in milliseconds.
    pub total_ms: f64,
}

/// The start-up pipeline for one networking mode.
#[derive(Debug, Clone, PartialEq)]
pub struct BootPipeline {
    phases: Vec<BootPhase>,
}

impl BootPipeline {
    /// The vanilla Docker-NAT pipeline.
    pub fn nat() -> BootPipeline {
        BootPipeline {
            phases: vec![
                BootPhase::new("image_check", 12.0, 0.30),
                BootPhase::new("create_rootfs", 160.0, 0.22),
                BootPhase::new("netns_create", 8.0, 0.30),
                // veth + bridge attach + iptables chain update.
                BootPhase::new("network_setup", 46.0, 0.30).with_spikes(0.05, 1.8),
                BootPhase::new("start_process", 90.0, 0.18),
                BootPhase::new("first_tcp_message", 14.0, 0.30),
            ],
        }
    }

    /// The BrFusion pipeline: NIC hot-plug instead of veth+iptables (§5.2.4).
    pub fn brfusion() -> BootPipeline {
        BootPipeline {
            phases: vec![
                BootPhase::new("image_check", 12.0, 0.30),
                BootPhase::new("create_rootfs", 160.0, 0.22),
                BootPhase::new("netns_create", 8.0, 0.30),
                // QMP netdev_add + guest PCI rescan + move NIC to netns.
                // Usually cheaper than iptables, occasionally stalls on the
                // hot-plug rescan.
                BootPhase::new("network_setup", 36.0, 0.28).with_spikes(0.20, 2.2),
                BootPhase::new("start_process", 90.0, 0.18),
                BootPhase::new("first_tcp_message", 14.0, 0.30),
            ],
        }
    }

    /// Phases in pipeline order.
    pub fn phases(&self) -> &[BootPhase] {
        &self.phases
    }

    /// Samples one boot.
    pub fn sample(&self, rng: &mut StdRng) -> BootSample {
        let phases: Vec<(String, f64)> = self
            .phases
            .iter()
            .map(|p| (p.name.clone(), p.sample(rng)))
            .collect();
        let total_ms = phases.iter().map(|(_, ms)| ms).sum();
        BootSample { phases, total_ms }
    }

    /// Runs the experiment of fig. 8: `n` boots, returning the total-time
    /// samples in milliseconds.
    pub fn run(&self, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| self.sample(&mut rng).total_ms).collect()
    }
}

/// The fig. 8 experiment: `runs` boots of each mode, both drawn from
/// `seed`. The two pipelines consume the same draws in every phase (both
/// `network_setup` phases draw a stall, no other phase does), so the
/// phases they share take common random numbers and the modes differ only
/// where their `network_setup` phases do.
pub fn fig8_experiment(runs: usize, seed: u64) -> (Cdf, Cdf) {
    let nat = Cdf::from_samples(BootPipeline::nat().run(runs, seed));
    let brfusion = Cdf::from_samples(BootPipeline::brfusion().run(runs, seed));
    (nat, brfusion)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_and_sum() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = BootPipeline::nat().sample(&mut rng);
        assert_eq!(s.phases.len(), 6);
        assert!(s.phases.iter().all(|(_, ms)| *ms > 0.0));
        let sum: f64 = s.phases.iter().map(|(_, ms)| ms).sum();
        assert!((sum - s.total_ms).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            BootPipeline::nat().run(10, 7),
            BootPipeline::nat().run(10, 7)
        );
        assert_ne!(
            BootPipeline::nat().run(10, 7),
            BootPipeline::nat().run(10, 8)
        );
    }

    #[test]
    fn brfusion_wins_for_roughly_three_quarters_of_runs() {
        // The paper's fig. 8a: ~75% of start-up times are slightly better
        // with BrFusion. Check the order-statistic comparison lands in a
        // sensible band over many runs.
        let (nat, brf) = fig8_experiment(1000, 42);
        let frac = brf.frac_below(&nat).unwrap();
        assert!(
            (0.60..=0.90).contains(&frac),
            "BrFusion better fraction {frac} outside [0.60, 0.90]"
        );
    }

    #[test]
    fn brfusion_wins_the_majority_at_almost_every_seed() {
        // The published cell's scale (100 boots per mode) over 200 seeds:
        // the paper's majority claim must hold at 95 % of them, so no one
        // seed decides it.
        let holds = (0..200u64)
            .filter(|&seed| {
                let (nat, brf) = fig8_experiment(100, seed);
                brf.frac_below(&nat).unwrap() > 0.5
            })
            .count();
        assert!(
            holds >= 190,
            "BrFusion won the majority at {holds}/200 seeds"
        );
    }

    #[test]
    fn medians_are_close() {
        // "slightly better": the two distributions overlap heavily.
        let (nat, brf) = fig8_experiment(1000, 42);
        let rel = (nat.median().unwrap() - brf.median().unwrap()) / nat.median().unwrap();
        assert!(rel > 0.0, "NAT median should be slightly larger");
        assert!(rel < 0.10, "difference should be slight, got {rel}");
    }

    #[test]
    fn network_setup_is_the_differing_phase() {
        let nat = BootPipeline::nat();
        let brf = BootPipeline::brfusion();
        for (a, b) in nat.phases().iter().zip(brf.phases()) {
            if a.name == "network_setup" {
                assert_ne!(a, b);
            } else {
                assert_eq!(a, b, "phase {} should be identical", a.name);
            }
        }
    }
}
