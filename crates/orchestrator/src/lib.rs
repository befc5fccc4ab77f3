//! # nestless-orchestrator
//!
//! A Kubernetes-like pod orchestrator over the simulated VMM/container
//! stack: pods and nodes, the "most requested" whole-pod scheduler the
//! paper simulates against (§5.3.1), a CNI plugin boundary (the integration
//! point for BrFusion and Hostlo, §3.2/§4.2), in-VM agents that configure
//! hot-plugged NICs by the MAC the VMM reports, and a control plane tying
//! it together.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod agent;
pub mod api;
pub mod cni;
pub mod node;
pub mod pod;
pub mod policy;
pub mod scheduler;
pub mod service;

pub use agent::{ConfiguredNic, VmAgent};
pub use api::{ControlPlane, DeployError, PodRecord};
pub use cni::{
    ClusterCtx, CniError, CniOutcome, CniPlugin, CniStatus, DefaultCni, PodAttachment,
    PodNetHealth, QueueBinding, RepairedPod,
};
pub use node::{Node, NodeId};
pub use pod::{PodId, PodSpec};
pub use policy::{IngressRule, NetworkPolicy};
pub use scheduler::{MostRequestedScheduler, Placement, SchedError, Scheduler};
pub use service::Service;
