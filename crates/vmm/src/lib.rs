//! # nestless-vmm
//!
//! A QEMU/KVM-like virtual machine monitor over the `nestless-simnet`
//! network: VM lifecycle with vCPU/memory inventory, virtio-net frontends
//! backed by vhost workers in the host kernel, a QMP-style side-channel
//! management interface supporting NIC hot-plug (the mechanism behind
//! BrFusion, §3.2), and the modified multi-queue loopback TAP device behind
//! Hostlo (§4.2).
//!
//! ```
//! use nestless_vmm::{Vmm, VmSpec, QmpCommand, QmpResponse};
//!
//! let mut vmm = Vmm::new(0);
//! vmm.create_bridge("br0", 8);
//! vmm.create_vm(VmSpec::paper_eval("vm0"));
//! // The orchestrator hot-plugs a pod NIC over the management socket:
//! let resp = vmm.qmp_json(r#"{"NetdevAdd":{"vm":0,"bridge":"br0","coalesce":true}}"#);
//! assert!(resp.contains("NicAdded"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hostlo;
pub mod qmp;
pub mod vm;
#[allow(clippy::module_inception)]
pub mod vmm;

pub use hostlo::{FanoutMode, HostloTap};
pub use qmp::{QmpCommand, QmpNic, QmpResponse};
pub use vm::{NicId, Vm, VmId, VmNic, VmSpec, VmState};
pub use vmm::{BridgeHandle, HostSpec, HostloHandle, NicInfo, Vmm};
