//! Virtual machine model: identity, resources, lifecycle and NIC inventory.

use simnet::device::{DeviceId, PortId};
use simnet::shared::SharedStation;
use simnet::MacAddr;

/// Identifier of a VM within a [`crate::Vmm`]. Also used as the
/// `CpuLocation::Vm` id for accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

/// Identifier of a NIC (unique across the whole VMM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NicId(pub u32);

/// VM lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Defined but not started.
    Created,
    /// Booted and schedulable.
    Running,
    /// Shut down.
    Stopped,
    /// Died unexpectedly (fault injection); restartable.
    Crashed,
}

/// Resources requested for a VM (the evaluation uses 5 vCPUs / 4 GB, §5.1).
#[derive(Debug, Clone, PartialEq)]
pub struct VmSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Memory in MiB.
    pub memory_mib: u64,
}

impl VmSpec {
    /// The paper's evaluation VM shape: 5 vCPUs, 4 GB RAM (§5.1).
    pub fn paper_eval(name: impl Into<String>) -> VmSpec {
        VmSpec {
            name: name.into(),
            vcpus: 5,
            memory_mib: 4096,
        }
    }
}

/// One NIC of a VM.
#[derive(Debug, Clone)]
pub struct VmNic {
    /// NIC id (VMM-global).
    pub id: NicId,
    /// MAC address, the identifier the VMM hands back to the orchestrator.
    pub mac: MacAddr,
    /// The guest-side virtio frontend device.
    pub virtio: DeviceId,
    /// The host-side vhost backend device.
    pub vhost: DeviceId,
    /// Guest-facing attachment point (virtio port 0), to be wired to the
    /// guest's bridge, namespace or endpoint by the in-VM agent.
    pub guest_attach: (DeviceId, PortId),
    /// True when this NIC is an endpoint of a hostlo TAP.
    pub hostlo: bool,
    /// True when the NIC was added after boot through the management
    /// channel (BrFusion's mechanism).
    pub hot_plugged: bool,
    /// False after `device_del`; a detached NIC keeps its devices in the
    /// simulation graph but is no longer reported by the VMM.
    pub active: bool,
}

/// A virtual machine.
#[derive(Debug)]
pub struct Vm {
    /// Identity.
    pub id: VmId,
    /// Requested resources.
    pub spec: VmSpec,
    /// Lifecycle state.
    pub state: VmState,
    /// NIC inventory.
    pub nics: Vec<VmNic>,
    /// The guest kernel's service station (softirq core) shared by every
    /// in-VM network stage.
    pub station: SharedStation,
}

impl Vm {
    /// Active NICs only. A crashed VM reports none: its guest side is gone,
    /// so the management channel and the in-VM agent both come up empty.
    pub fn active_nics(&self) -> impl Iterator<Item = &VmNic> {
        let crashed = self.state == VmState::Crashed;
        self.nics.iter().filter(move |n| n.active && !crashed)
    }

    /// Looks up an active NIC by MAC.
    pub fn nic_by_mac(&self, mac: MacAddr) -> Option<&VmNic> {
        self.active_nics().find(|n| n.mac == mac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_eval_spec() {
        let s = VmSpec::paper_eval("vm0");
        assert_eq!(s.vcpus, 5);
        assert_eq!(s.memory_mib, 4096);
        assert_eq!(s.name, "vm0");
    }
}
