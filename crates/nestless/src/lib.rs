//! # nestless
//!
//! The paper's contribution — *Nested Virtualization Without the Nest*
//! (ICPP 2019) — implemented over the simulated Linux/QEMU/Docker/
//! Kubernetes stack of the sibling crates:
//!
//! * [`brfusion`] — network virtualization de-duplication (§3): per-pod
//!   NICs hot-plugged by the VMM over the management channel, plugged
//!   straight into the host bridge, with NAT only at the host level.
//! * [`hostlo`] — cross-VM pod deployments (§4): a host-backed multi-queue
//!   loopback TAP used as the pod's localhost across VMs, plus the spread
//!   scheduler that exploits it.
//! * [`topology`] — builders for every evaluated configuration (NAT,
//!   NoCont, BrFusion, SameNode, Hostlo, cross-VM NAT, Overlay).
//! * [`volumes`] / [`mempipe`] — the §4.3 integration models for shared
//!   volumes (VirtFS) and cross-VM shared memory (MemPipe).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod brfusion;
pub mod deploy;
pub mod hostlo;
pub mod mempipe;
pub mod topology;
pub mod volumes;

pub use brfusion::BrFusionCni;
pub use deploy::{Cluster, ClusterBuilder, CniKind};
pub use hostlo::{HostloCni, SpreadScheduler, HOSTLO_SUBNET, POD_LOCALHOST};
pub use mempipe::{mempipe, MemPipeRx, MemPipeTx, PipeEmpty, PipeFull};
pub use topology::{build, Config, Slot, Testbed, CLIENT_NET, CLIENT_PORT, HOST_NET, SERVER_PORT};
pub use volumes::{Volume, VolumeId, VolumeManager, VolumeMount};
