//! # nestless-simnet
//!
//! A deterministic, discrete-event, packet-level network simulator modeling
//! the Linux virtual-networking building blocks that *Nested Virtualization
//! Without the Nest* (ICPP 2019) manipulates: learning bridges, veth pairs,
//! loopback interfaces, Netfilter NAT with connection tracking, virtio/vhost
//! NICs with adaptive interrupt coalescing, and application endpoints.
//!
//! ## Model
//!
//! * Every datapath element is a [`device::Device`] driven by the event
//!   engine in [`engine::Network`].
//! * Each element serves frames through a FIFO single-server
//!   [`device::Station`]; all stages belonging to one kernel (e.g. a guest's
//!   softirq core) can share a station via [`shared::SharedStation`],
//!   reproducing the contention that makes nested virtualization slow.
//! * Service times come from the calibrated [`costs::CostModel`]; CPU time
//!   is attributed to the paper's `usr`/`sys`/`soft`/`guest` categories per
//!   host/VM location.
//!
//! ## Example
//!
//! ```
//! use nestless_simnet::engine::{Network, LinkParams};
//! use nestless_simnet::device::PortId;
//! use nestless_simnet::bridge::Bridge;
//! use nestless_simnet::shared::SharedStation;
//! use nestless_simnet::costs::StageCost;
//! use metrics::{CpuCategory, CpuLocation};
//!
//! let mut net = Network::new(42);
//! let br = net.add_device(
//!     "br0",
//!     CpuLocation::Host,
//!     Box::new(Bridge::new(2, StageCost::fixed(1_000, 0.3, CpuCategory::Sys), SharedStation::new())),
//! );
//! assert_eq!(net.device_name(br), "br0");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
pub mod bridge;
pub mod config;
pub mod costs;
pub mod device;
pub mod endpoint;
pub mod engine;
pub mod fault;
pub mod filter;
pub mod flight;
pub mod flow;
pub mod frame;
pub mod hash;
pub mod nat;
pub mod nic;
mod obs;
pub mod parallel;
pub mod rate;
pub mod shared;
pub mod testutil;
pub mod time;
pub mod veth;

pub use addr::{Ip4, Ip4Net, MacAddr, SockAddr};
pub use config::SimConfig;
pub use costs::{CostModel, StageCost};
pub use device::{Device, DeviceId, DeviceKind, PortId, Station};
pub use endpoint::{AppApi, Application, Endpoint, IfaceConf, Incoming, START_TOKEN};
pub use engine::{DevCtx, LinkParams, Network, SampleStore, StopCondition};
pub use fault::{FaultPlan, LinkFault, LinkFaultKind, StallWindow};
pub use filter::{
    Chain, ConnState, FilterControl, FilterRule, HookIds, StateMask, StateTracker, Verdict,
    NO_RULE, REJECT_TAG,
};
pub use flight::{chrome_counter_tracks, chrome_trace_report, snapshot_report, telemetry_report};
pub use flow::Fidelity;
pub use frame::{Frame, Payload, TcpKind, Transport};
pub use parallel::{PartitionPlan, RunReport, ShardedNetwork, SyncStats};
pub use shared::SharedStation;
pub use time::{SimDuration, SimTime};

// Telemetry-plane vocabulary (defined in the `metrics` crate) re-exported
// so simulation harnesses need only one dependency for journal access.
pub use metrics::{
    FlowEscalateReason, JournalKind, JournalRecord, JournalRing, JournalTag, ObsMode,
    TelemetryConfig, TelemetrySnapshot,
};
