//! One place to configure a simulation run.
//!
//! [`SimConfig`] is the front door for every engine knob: shard count,
//! flight recorder, telemetry journal, the fault plan, and the simulation
//! [`Fidelity`]. (The debugging event trace is switched on the
//! [`Network`] itself, with [`Network::set_tracing`], and survives
//! `build`.) It reads no environment variable; the topology builders
//! honor `SIMNET_FIDELITY` (`packet` or `hybrid`) through
//! [`fidelity_from_env`].
//!
//! Typical use:
//!
//! ```
//! use nestless_simnet::{Network, SimConfig};
//!
//! let net = Network::new(42);
//! // ... build the topology, inject frames/timers ...
//! let mut sim = SimConfig::new().shards(2).build(net);
//! ```

use crate::engine::Network;
use crate::fault::FaultPlan;
use crate::flow::Fidelity;
use crate::parallel::ShardedNetwork;
use metrics::{TelemetryConfig, TraceConfig};

/// Reads the `SIMNET_FIDELITY` environment knob: `packet` or `hybrid`.
/// Unset or unrecognized values read as `None` (caller keeps its
/// programmed default).
pub fn fidelity_from_env() -> Option<Fidelity> {
    let v = std::env::var("SIMNET_FIDELITY").ok()?;
    match v.trim().to_ascii_lowercase().as_str() {
        "packet" => Some(Fidelity::Packet),
        "hybrid" => Some(Fidelity::Hybrid),
        _ => None,
    }
}

/// Builder for a fully configured simulation (see module docs).
///
/// Defaults match a plain `ShardedNetwork::new(net, 1)`: one shard,
/// flight recorder and journal off, no fault plan, packet fidelity.
#[derive(Debug, Clone, Default)]
pub struct SimConfig {
    shards: Option<usize>,
    trace: TraceConfig,
    fault: Option<FaultPlan>,
    fidelity: Fidelity,
    telemetry: TelemetryConfig,
}

impl SimConfig {
    /// A config with every knob at its default.
    pub fn new() -> SimConfig {
        SimConfig::default()
    }

    /// Shard-count target (the partitioner may produce fewer).
    pub fn shards(mut self, n: usize) -> SimConfig {
        self.shards = Some(n.max(1));
        self
    }

    /// Flight-recorder configuration.
    pub fn trace(mut self, cfg: TraceConfig) -> SimConfig {
        self.trace = cfg;
        self
    }

    /// Installs a deterministic fault plan.
    pub fn fault(mut self, plan: FaultPlan) -> SimConfig {
        self.fault = Some(plan);
        self
    }

    /// Simulation fidelity (packet / hybrid).
    pub fn fidelity(mut self, f: Fidelity) -> SimConfig {
        self.fidelity = f;
        self
    }

    /// Telemetry plane configuration (journal mode and ring capacity).
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> SimConfig {
        self.telemetry = cfg;
        self
    }

    /// Applies the whole configuration to `net` (which must not have
    /// processed events yet) and shards it.
    pub fn build(self, mut net: Network) -> ShardedNetwork {
        net.set_trace_config(self.trace);
        if let Some(plan) = self.fault {
            net.install_fault_plan(plan);
        }
        net.set_fidelity(self.fidelity);
        net.set_telemetry_config(self.telemetry);
        ShardedNetwork::new(net, self.shards.unwrap_or(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fidelity_env_knob_parses() {
        std::env::remove_var("SIMNET_FIDELITY");
        assert_eq!(fidelity_from_env(), None);
        std::env::set_var("SIMNET_FIDELITY", "hybrid");
        assert_eq!(fidelity_from_env(), Some(Fidelity::Hybrid));
        std::env::set_var("SIMNET_FIDELITY", " Packet ");
        assert_eq!(fidelity_from_env(), Some(Fidelity::Packet));
        std::env::set_var("SIMNET_FIDELITY", "bogus");
        assert_eq!(fidelity_from_env(), None);
        std::env::remove_var("SIMNET_FIDELITY");
    }

    #[test]
    fn build_wires_every_knob() {
        let net = Network::new(7);
        let sim = SimConfig::new().fidelity(Fidelity::Hybrid).build(net);
        assert_eq!(sim.nshards(), 1, "empty topology is one shard");
    }
}
