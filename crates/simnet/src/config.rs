//! One place to configure a simulation run.
//!
//! [`SimConfig`] is the unified front door for every engine knob that used
//! to be scattered across constructors and ad-hoc `std::env` reads: shard
//! count, flight recorder, telemetry journal, the fault plan, and the
//! simulation [`Fidelity`]. (The debugging event trace is switched on the
//! [`Network`] itself, with [`Network::set_tracing`], and survives
//! `build`.)
//!
//! The `SIMNET_*` environment variables still work, but they are demoted
//! to *overrides parsed here and nowhere else*:
//!
//! | Variable           | Effect                                          |
//! |--------------------|-------------------------------------------------|
//! | `SIMNET_SHARDS`    | shard count (default 1)                         |
//! | `SIMNET_FIDELITY`  | `packet` (default) or `hybrid`                  |
//! | `SIMNET_TELEMETRY` | `off` (default), `counters`, or `full`          |
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
use metrics::{ObsMode, TelemetryConfig, TraceConfig};

/// Reads the `SIMNET_SHARDS` environment knob (default 1). Values below 1
/// or unparsable values read as 1.
pub fn shards_from_env() -> usize {
    std::env::var("SIMNET_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Reads the `SIMNET_TELEMETRY` environment knob: `off`, `counters`, or
/// `full`. Unset or unrecognized values read as `None` (caller keeps its
/// programmed default).
pub fn telemetry_from_env() -> Option<ObsMode> {
    let v = std::env::var("SIMNET_TELEMETRY").ok()?;
    match v.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "none" => Some(ObsMode::Off),
        "counters" => Some(ObsMode::Counters),
        "full" | "journal" => Some(ObsMode::Full),
        _ => None,
    }
}

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

    /// A config seeded entirely from the `SIMNET_*` environment: the
    /// defaults of [`SimConfig::new`] with every set variable applied.
    pub fn from_env() -> SimConfig {
        SimConfig::new().env_overrides()
    }

    /// Applies any set `SIMNET_*` environment variable on top of the
    /// current values — the standard pattern for binaries that program
    /// defaults but let the environment win.
    pub fn env_overrides(mut self) -> SimConfig {
        if std::env::var("SIMNET_SHARDS").is_ok() {
            self.shards = Some(shards_from_env());
        }
        if let Some(f) = fidelity_from_env() {
            self.fidelity = f;
        }
        if let Some(mode) = telemetry_from_env() {
            self.telemetry = TelemetryConfig {
                mode,
                ..self.telemetry
            };
        }
        self
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

    /// The configured telemetry plane (for harness-side branching).
    pub fn telemetry_mode(&self) -> ObsMode {
        self.telemetry.mode
    }

    /// The configured fidelity (for harness-side branching).
    pub fn fidelity_mode(&self) -> Fidelity {
        self.fidelity
    }

    /// The configured shard target (1 when unset).
    pub fn shard_count(&self) -> usize {
        self.shards.unwrap_or(1)
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

    // All env tests share one lock: they mutate process-global state.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn shards_from_env_parses_and_defaults() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::remove_var("SIMNET_SHARDS");
        assert_eq!(shards_from_env(), 1);
        std::env::set_var("SIMNET_SHARDS", "4");
        assert_eq!(shards_from_env(), 4);
        std::env::set_var("SIMNET_SHARDS", "0");
        assert_eq!(shards_from_env(), 1);
        std::env::set_var("SIMNET_SHARDS", "nope");
        assert_eq!(shards_from_env(), 1);
        std::env::remove_var("SIMNET_SHARDS");
    }

    #[test]
    fn inline_and_fidelity_env_knobs_parse() {
        let _g = ENV_LOCK.lock().unwrap();
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
    fn telemetry_env_knob_parses_and_overrides() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::remove_var("SIMNET_TELEMETRY");
        assert_eq!(telemetry_from_env(), None);
        std::env::set_var("SIMNET_TELEMETRY", "counters");
        assert_eq!(telemetry_from_env(), Some(ObsMode::Counters));
        std::env::set_var("SIMNET_TELEMETRY", "FULL");
        assert_eq!(telemetry_from_env(), Some(ObsMode::Full));
        std::env::set_var("SIMNET_TELEMETRY", "off");
        assert_eq!(telemetry_from_env(), Some(ObsMode::Off));
        std::env::set_var("SIMNET_TELEMETRY", "bogus");
        assert_eq!(telemetry_from_env(), None);

        // The override keeps a programmed journal capacity, swapping only
        // the mode.
        std::env::set_var("SIMNET_TELEMETRY", "full");
        let cfg = SimConfig::new()
            .telemetry(TelemetryConfig::counters().with_journal_cap(128))
            .env_overrides();
        assert_eq!(cfg.telemetry_mode(), ObsMode::Full);
        assert_eq!(cfg.telemetry.journal_cap, 128);
        std::env::remove_var("SIMNET_TELEMETRY");
    }

    #[test]
    fn env_overrides_apply_on_top_of_programmed_defaults() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::remove_var("SIMNET_SHARDS");
        std::env::set_var("SIMNET_FIDELITY", "hybrid");
        let cfg = SimConfig::new()
            .shards(4)
            .fidelity(Fidelity::Packet)
            .env_overrides();
        assert_eq!(cfg.shard_count(), 4, "unset vars keep programmed values");
        assert_eq!(cfg.fidelity_mode(), Fidelity::Hybrid, "set vars override");
        std::env::remove_var("SIMNET_FIDELITY");
    }

    #[test]
    fn build_wires_every_knob() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::remove_var("SIMNET_SHARDS");
        let net = Network::new(7);
        let sim = SimConfig::new().fidelity(Fidelity::Hybrid).build(net);
        assert_eq!(sim.nshards(), 1, "empty topology is one shard");
    }
}
