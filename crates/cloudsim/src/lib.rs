//! # nestless-cloudsim
//!
//! The cost-savings simulation of §5.3.1 / fig. 9: how much money cross-VM
//! pod deployment (Hostlo) saves cloud users compared to whole-pod
//! Kubernetes scheduling, priced against the AWS EC2 m5 on-demand catalog
//! (Table 2) over a Google-cluster-like trace.
//!
//! The real 2011 Google trace is not redistributable; [`trace::synthetic_trace`]
//! generates a population with the published shape, and [`trace::parse_csv`]
//! accepts the real trace if available.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod hyper;
pub mod index;
pub mod online;
pub mod resources;
pub mod savings;
pub mod sched;
pub mod trace;

pub use catalog::{cheapest_fitting, res_from_relative, VmModel, LARGEST, M5_CATALOG};
pub use hyper::{
    run_hyperscale, run_hyperscale_with_telemetry, CurvePoint, HyperConfig, HyperReport,
    ScenarioEvent, ScenarioStream,
};
pub use index::{FreeCapIndex, PlacePolicy};
pub use online::{
    run_online, synthetic_online_trace, OnlineEvent, OnlineMode, OnlineReport, OnlineTrace,
};
pub use resources::Res;
pub use savings::{simulate, simulate_bands, SavingsBands, SavingsReport, UserSavings};
pub use sched::{
    hostlo_improve, kube_schedule, kube_schedule_with, GroupingPolicy, Placement, SimVm,
};
pub use trace::{
    parse_csv, synthetic_trace, Trace, TraceContainer, TracePod, TraceUser, PAPER_USER_COUNT,
};
