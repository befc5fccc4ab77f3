//! The virtual machine monitor.
//!
//! [`Vmm`] plays QEMU/KVM's role over the simulated network: it owns the
//! [`Network`], creates VMs, provisions virtio/vhost NIC pairs, attaches
//! them to host bridges, and creates hostlo TAPs multiplexed between VMs.
//! The management-socket surface (what the orchestrator's CNI plugin talks
//! to) is in [`crate::qmp`].

use crate::hostlo::{FanoutMode, HostloTap};
use crate::vm::{NicId, Vm, VmId, VmNic, VmSpec, VmState};
use metrics::CpuLocation;
use simnet::bridge::Bridge;
use simnet::costs::CostModel;
use simnet::device::{DeviceId, PortId};
use simnet::engine::{LinkParams, Network};
use simnet::filter::FilterControl;
use simnet::nic::{Vhost, VirtioNic};
use simnet::shared::SharedStation;
use simnet::MacAddr;

/// Handle to a host bridge created by the VMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BridgeHandle(pub usize);

/// Handle to a hostlo TAP created by the VMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostloHandle(pub usize);

/// Everything the orchestrator needs to use a freshly provisioned NIC.
#[derive(Debug, Clone, Copy)]
pub struct NicInfo {
    /// NIC id.
    pub nic: NicId,
    /// Owning VM.
    pub vm: VmId,
    /// MAC address — the identifier sent back over the management channel.
    pub mac: MacAddr,
    /// Guest-side attachment point for the in-VM agent to wire up.
    pub guest_attach: (DeviceId, PortId),
    /// Host-side vhost device (for diagnostics).
    pub vhost: DeviceId,
}

struct BridgeInfo {
    name: String,
    dev: DeviceId,
    capacity: usize,
    next_port: usize,
    /// FORWARD filter-table handle, kept so CNIs can install
    /// NetworkPolicy chains on the bridge after it is boxed away.
    filter: FilterControl,
}

struct HostloInfo {
    tap: DeviceId,
    endpoints: Vec<NicInfo>,
    /// FORWARD filter-table handle of the TAP.
    filter: FilterControl,
}

/// Physical host description.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Physical CPU count (the paper's testbed has 12, §5.1).
    pub cpus: u32,
    /// Physical memory in MiB.
    pub memory_mib: u64,
}

impl Default for HostSpec {
    fn default() -> Self {
        // The evaluation machine: 2x Xeon E5-2420 v2, 12 CPUs, HT off.
        HostSpec {
            cpus: 12,
            memory_mib: 32 * 1024,
        }
    }
}

/// The VMM: owns the simulated network and all virtualization state.
pub struct Vmm {
    net: Network,
    costs: CostModel,
    host: HostSpec,
    host_station: SharedStation,
    host_station_anchor: Option<DeviceId>,
    vms: Vec<Vm>,
    bridges: Vec<BridgeInfo>,
    hostlos: Vec<HostloInfo>,
    nic_seq: u32,
    hostlo_fanout: FanoutMode,
    /// Sim-time windows during which the management socket is unreachable.
    qmp_outages: Vec<(simnet::SimTime, simnet::SimTime)>,
    /// Fail the next N management commands unconditionally.
    qmp_fail_next: u32,
    /// Management commands rejected by injected faults so far.
    qmp_faults_injected: u64,
}

impl Vmm {
    /// Creates a VMM over a fresh network with the calibrated cost model.
    pub fn new(seed: u64) -> Vmm {
        Vmm::with_costs(seed, CostModel::calibrated(), HostSpec::default())
    }

    /// Creates a VMM with explicit costs and host shape (for ablations).
    pub fn with_costs(seed: u64, costs: CostModel, host: HostSpec) -> Vmm {
        Vmm {
            net: Network::new(seed),
            costs,
            host,
            host_station: SharedStation::new(),
            host_station_anchor: None,
            vms: Vec::new(),
            bridges: Vec::new(),
            hostlos: Vec::new(),
            nic_seq: 0,
            hostlo_fanout: FanoutMode::AllQueues,
            qmp_outages: Vec::new(),
            qmp_fail_next: 0,
            qmp_faults_injected: 0,
        }
    }

    /// Overrides the fan-out mode used for hostlo TAPs created over the
    /// management channel (ablation knob; the paper's driver broadcasts).
    pub fn set_hostlo_fanout(&mut self, mode: FanoutMode) {
        self.hostlo_fanout = mode;
    }

    /// The fan-out mode for management-channel hostlo creations.
    pub fn hostlo_fanout(&self) -> FanoutMode {
        self.hostlo_fanout
    }

    /// The simulated network (to attach endpoints, run, read results).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable network access.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// The calibrated cost model in use.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Host description.
    pub fn host(&self) -> &HostSpec {
        &self.host
    }

    /// The host kernel's network-stack station (bridges, host NAT).
    ///
    /// Any device that serves frames on this station must also be
    /// registered with [`Vmm::bind_host_station_user`] so the sharded
    /// engine keeps every sharer in one partition shard.
    pub fn host_station(&self) -> SharedStation {
        self.host_station.clone()
    }

    /// Pins `dev` — a device serving on the shared host station — to the
    /// same partition shard as every other host-station user. A station
    /// shared across shards would be served concurrently and break the
    /// sharded engine's bit-identical determinism, so call this for every
    /// device built on [`Vmm::host_station`]. Bridges created through
    /// [`Vmm::create_bridge`] are registered automatically.
    pub fn bind_host_station_user(&mut self, dev: DeviceId) {
        match self.host_station_anchor {
            Some(anchor) => self.net.bind_same_shard(anchor, dev),
            None => self.host_station_anchor = Some(dev),
        }
    }

    /// Creates a host bridge with room for `capacity` ports.
    pub fn create_bridge(&mut self, name: impl Into<String>, capacity: usize) -> BridgeHandle {
        let name = name.into();
        let bridge = Bridge::new(capacity, self.costs.host_bridge, self.host_station.clone());
        let filter = bridge.filter();
        let dev = self
            .net
            .add_device(name.clone(), CpuLocation::Host, Box::new(bridge));
        self.bind_host_station_user(dev);
        // Register the table with the engine so flow fast-path escalation
        // sees rule mutations on this bridge.
        self.net.attach_filter(dev, filter.clone());
        self.bridges.push(BridgeInfo {
            name,
            dev,
            capacity,
            next_port: 0,
            filter,
        });
        BridgeHandle(self.bridges.len() - 1)
    }

    /// Looks up a bridge by name.
    pub fn bridge_by_name(&self, name: &str) -> Option<BridgeHandle> {
        self.bridges
            .iter()
            .position(|b| b.name == name)
            .map(BridgeHandle)
    }

    /// The bridge's device id.
    pub fn bridge_device(&self, h: BridgeHandle) -> DeviceId {
        self.bridges[h.0].dev
    }

    /// The bridge's FORWARD filter-table handle (NetworkPolicy chains).
    pub fn bridge_filter(&self, h: BridgeHandle) -> FilterControl {
        self.bridges[h.0].filter.clone()
    }

    /// Allocates the next free port on a bridge.
    ///
    /// # Panics
    /// Panics when the bridge is full — size bridges for the experiment.
    pub fn alloc_bridge_port(&mut self, h: BridgeHandle) -> (DeviceId, PortId) {
        let b = &mut self.bridges[h.0];
        assert!(
            b.next_port < b.capacity,
            "bridge {} is out of ports",
            b.name
        );
        let p = PortId(b.next_port);
        b.next_port += 1;
        (b.dev, p)
    }

    /// Defines and boots a VM.
    pub fn create_vm(&mut self, spec: VmSpec) -> VmId {
        let id = VmId(self.vms.len() as u32);
        self.vms.push(Vm {
            id,
            spec,
            state: VmState::Running,
            nics: Vec::new(),
            station: SharedStation::new(),
        });
        id
    }

    /// The VM's guest-kernel station (for in-VM devices and endpoints).
    pub fn guest_station(&self, vm: VmId) -> SharedStation {
        self.vms[vm.0 as usize].station.clone()
    }

    /// Read access to a VM.
    pub fn vm(&self, vm: VmId) -> &Vm {
        &self.vms[vm.0 as usize]
    }

    /// All VMs.
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Total vCPUs across running VMs (oversubscription check helper).
    pub fn provisioned_vcpus(&self) -> u32 {
        self.vms
            .iter()
            .filter(|v| v.state == VmState::Running)
            .map(|v| v.spec.vcpus)
            .sum()
    }

    /// Stops a VM (it stays in the inventory; its devices go quiet because
    /// nothing injects traffic to them anymore).
    pub fn stop_vm(&mut self, vm: VmId) {
        self.vms[vm.0 as usize].state = VmState::Stopped;
    }

    /// Crashes a VM (fault injection). The VM stops reporting NICs and
    /// refuses management commands until [`Vmm::restart_vm`].
    pub fn crash_vm(&mut self, vm: VmId) {
        self.vms[vm.0 as usize].state = VmState::Crashed;
    }

    /// Restarts a crashed or stopped VM. Its NIC inventory survives, as a
    /// rebooted QEMU re-creates devices from its command line.
    pub fn restart_vm(&mut self, vm: VmId) {
        let v = &mut self.vms[vm.0 as usize];
        assert!(
            v.state != VmState::Created,
            "boot VMs through create_vm, not restart_vm"
        );
        v.state = VmState::Running;
    }

    /// Makes the management socket unreachable for the sim-time window
    /// `[from, until)`: every command issued inside it fails. Models a
    /// wedged QEMU main loop or a dropped monitor connection.
    pub fn inject_qmp_outage(&mut self, from: simnet::SimTime, until: simnet::SimTime) {
        assert!(from < until, "outage window must be non-empty");
        self.net
            .journal_external(simnet::JournalKind::QmpOutage, from.0, until.0, 0);
        self.qmp_outages.push((from, until));
    }

    /// Fails the next `n` management commands regardless of sim time.
    pub fn fail_next_qmp(&mut self, n: u32) {
        self.qmp_fail_next += n;
    }

    /// Management commands rejected by injected faults so far.
    pub fn qmp_faults_injected(&self) -> u64 {
        self.qmp_faults_injected
    }

    /// True when an injected fault claims the command issued now; bumps the
    /// injected-fault counter. Called at the top of the QMP dispatcher.
    pub(crate) fn qmp_fault_fires(&mut self) -> bool {
        if self.qmp_fail_next > 0 {
            self.qmp_fail_next -= 1;
            self.qmp_faults_injected += 1;
            return true;
        }
        let now = self.net.now();
        if self.qmp_outages.iter().any(|&(f, u)| f <= now && now < u) {
            self.qmp_faults_injected += 1;
            return true;
        }
        false
    }

    fn next_mac(&mut self) -> (NicId, MacAddr) {
        let id = NicId(self.nic_seq);
        // Leave room under the locally-administered prefix for test MACs.
        let mac = MacAddr::local(0x00A0_0000 + self.nic_seq);
        self.nic_seq += 1;
        (id, mac)
    }

    /// Provisions a virtio/vhost NIC for `vm` and plugs its host side into
    /// `bridge`. `coalesce` enables adaptive interrupt coalescing on the
    /// vhost worker (the default for a VM's shared primary NIC and for
    /// hostlo endpoints; per-pod BrFusion NICs run uncoalesced).
    /// `hot_plugged` records whether this happened after boot.
    pub fn add_nic(
        &mut self,
        vm: VmId,
        bridge: BridgeHandle,
        coalesce: bool,
        hot_plugged: bool,
    ) -> NicInfo {
        let uplink = self.alloc_bridge_port(bridge);
        self.plug_nic(vm, uplink, coalesce, false, hot_plugged)
    }

    /// Builds one virtio/vhost pair for `vm`, links the vhost's host side
    /// to `uplink`, and records the NIC. Hostlo endpoints are named
    /// `hostlo-virtio*`/`hostlo-vhost*`, every other NIC `virtio*`/`vhost*`.
    fn plug_nic(
        &mut self,
        vm: VmId,
        uplink: (DeviceId, PortId),
        coalesce: bool,
        hostlo: bool,
        hot_plugged: bool,
    ) -> NicInfo {
        let (nic_id, mac) = self.next_mac();
        let guest_station = self.guest_station(vm);
        let vm_name = self.vms[vm.0 as usize].spec.name.clone();
        let kind = if hostlo { "hostlo-" } else { "" };

        let virtio = self.net.add_device(
            format!("{vm_name}/{kind}virtio{}", nic_id.0),
            CpuLocation::Vm(vm.0),
            Box::new(VirtioNic::new(self.costs.virtio_guest, guest_station)),
        );
        let kick = simnet::costs::StageCost::fixed(
            self.costs.vhost.fixed_ns,
            0.0,
            self.costs.vhost.cpu_cat,
        );
        let per_frame = simnet::costs::StageCost {
            fixed_ns: self.costs.vhost.fixed_ns / 8,
            ..self.costs.vhost
        };
        let vhost = self.net.add_device(
            format!("{vm_name}/{kind}vhost{}", nic_id.0),
            CpuLocation::Host,
            // Each vhost device gets its own worker thread (as vhost-net
            // does), hence a fresh station.
            Box::new(Vhost::new(per_frame, kick, coalesce, SharedStation::new())),
        );
        self.net
            .connect(virtio, PortId::P1, vhost, PortId::P0, LinkParams::default());
        self.net.connect(
            vhost,
            PortId::P1,
            uplink.0,
            uplink.1,
            LinkParams::with_latency(self.costs.link_latency),
        );

        let info = NicInfo {
            nic: nic_id,
            vm,
            mac,
            guest_attach: (virtio, PortId::P0),
            vhost,
        };
        self.vms[vm.0 as usize].nics.push(VmNic {
            id: nic_id,
            mac,
            virtio,
            vhost,
            guest_attach: info.guest_attach,
            hostlo,
            hot_plugged,
            active: true,
        });
        info
    }

    /// Marks a NIC as removed. The simulation graph is static, so the
    /// devices stay, but the VMM stops reporting the NIC and the agent is
    /// expected to stop using it.
    pub fn detach_nic(&mut self, vm: VmId, nic: NicId) -> bool {
        if let Some(n) = self.vms[vm.0 as usize]
            .nics
            .iter_mut()
            .find(|n| n.id == nic && n.active)
        {
            n.active = false;
            true
        } else {
            false
        }
    }

    /// Creates a hostlo TAP multiplexed between `vms` and hot-plugs one
    /// endpoint NIC into each (§4.2: "creates and adds one
    /// RX/TX queue of it to each VM that needs it").
    pub fn create_hostlo(
        &mut self,
        vms: &[VmId],
        mode: FanoutMode,
    ) -> (HostloHandle, Vec<NicInfo>) {
        assert!(vms.len() >= 2, "hostlo spans at least two VMs");
        let tap_dev = HostloTap::new(
            vms.len(),
            self.costs.hostlo_queue,
            mode,
            SharedStation::new(),
        );
        let filter = tap_dev.filter();
        let tap = self.net.add_device(
            format!("hostlo{}", self.hostlos.len()),
            CpuLocation::Host,
            Box::new(tap_dev),
        );
        self.net.attach_filter(tap, filter.clone());
        // Standard virtio notification suppression on every endpoint, like
        // any NIC; the hostlo TAP itself is the path's added cost.
        let endpoints: Vec<NicInfo> = vms
            .iter()
            .enumerate()
            .map(|(q, &vm)| self.plug_nic(vm, (tap, PortId(q)), true, true, true))
            .collect();
        self.hostlos.push(HostloInfo {
            tap,
            endpoints: endpoints.clone(),
            filter,
        });
        (HostloHandle(self.hostlos.len() - 1), endpoints)
    }

    /// The hostlo TAP device id.
    pub fn hostlo_device(&self, h: HostloHandle) -> DeviceId {
        self.hostlos[h.0].tap
    }

    /// Endpoints of a hostlo TAP.
    pub fn hostlo_endpoints(&self, h: HostloHandle) -> &[NicInfo] {
        &self.hostlos[h.0].endpoints
    }

    /// The TAP's FORWARD filter-table handle (NetworkPolicy chains).
    pub fn hostlo_filter(&self, h: HostloHandle) -> FilterControl {
        self.hostlos[h.0].filter.clone()
    }

    /// Finds the hostlo TAP that owns endpoint NIC `nic` on `vm` — how a
    /// CNI resolves the management channel's endpoint report back to the
    /// TAP it must hang policy chains on.
    pub fn hostlo_for_nic(&self, vm: VmId, nic: NicId) -> Option<HostloHandle> {
        self.hostlos
            .iter()
            .position(|h| h.endpoints.iter().any(|e| e.vm == vm && e.nic == nic))
            .map(HostloHandle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_vm_and_nic_wires_the_chain() {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 8);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let nic = vmm.add_nic(vm, br, true, false);

        assert_eq!(nic.vm, vm);
        // virtio.P1 <-> vhost.P0
        assert_eq!(
            vmm.network().peer(nic.guest_attach.0, PortId::P1),
            Some((nic.vhost, PortId::P0))
        );
        // vhost.P1 <-> bridge port 0
        assert_eq!(
            vmm.network().peer(nic.vhost, PortId::P1),
            Some((vmm.bridge_device(br), PortId(0)))
        );
        // guest side still free
        assert_eq!(vmm.network().peer(nic.guest_attach.0, PortId::P0), None);
        assert_eq!(vmm.vm(vm).nics.len(), 1);
    }

    #[test]
    fn macs_are_unique_and_reported() {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 8);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let a = vmm.add_nic(vm, br, true, false);
        let b = vmm.add_nic(vm, br, true, true);
        assert_ne!(a.mac, b.mac);
        assert_eq!(vmm.vm(vm).nic_by_mac(b.mac).unwrap().id, b.nic);
        assert!(vmm.vm(vm).nic_by_mac(b.mac).unwrap().hot_plugged);
    }

    #[test]
    fn bridge_ports_exhaust() {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 2);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        vmm.add_nic(vm, br, false, false);
        vmm.add_nic(vm, br, false, false);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            vmm.add_nic(vm, br, false, false)
        }));
        assert!(r.is_err(), "third port allocation must panic");
    }

    #[test]
    fn detach_nic_hides_it() {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 8);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let nic = vmm.add_nic(vm, br, false, false);
        assert!(vmm.detach_nic(vm, nic.nic));
        assert!(vmm.vm(vm).nic_by_mac(nic.mac).is_none());
        assert!(!vmm.detach_nic(vm, nic.nic), "double detach fails");
    }

    #[test]
    fn hostlo_creates_one_endpoint_per_vm() {
        let mut vmm = Vmm::new(0);
        let vm1 = vmm.create_vm(VmSpec::paper_eval("vm1"));
        let vm2 = vmm.create_vm(VmSpec::paper_eval("vm2"));
        let vm3 = vmm.create_vm(VmSpec::paper_eval("vm3"));
        let (h, eps) = vmm.create_hostlo(&[vm1, vm2, vm3], FanoutMode::AllQueues);
        assert_eq!(eps.len(), 3);
        let tap = vmm.hostlo_device(h);
        for (q, ep) in eps.iter().enumerate() {
            assert_eq!(
                vmm.network().peer(ep.vhost, PortId::P1),
                Some((tap, PortId(q)))
            );
            assert!(vmm.vm(ep.vm).nic_by_mac(ep.mac).unwrap().hostlo);
        }
    }

    #[test]
    fn provisioned_vcpus_tracks_lifecycle() {
        let mut vmm = Vmm::new(0);
        let a = vmm.create_vm(VmSpec::paper_eval("a"));
        let _b = vmm.create_vm(VmSpec::paper_eval("b"));
        assert_eq!(vmm.provisioned_vcpus(), 10);
        vmm.stop_vm(a);
        assert_eq!(vmm.provisioned_vcpus(), 5);
    }

    #[test]
    fn crash_hides_nics_until_restart() {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 8);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let nic = vmm.add_nic(vm, br, false, false);
        vmm.crash_vm(vm);
        assert_eq!(vmm.vm(vm).state, VmState::Crashed);
        assert!(vmm.vm(vm).nic_by_mac(nic.mac).is_none());
        assert_eq!(vmm.provisioned_vcpus(), 0);
        vmm.restart_vm(vm);
        assert_eq!(vmm.vm(vm).state, VmState::Running);
        assert_eq!(vmm.vm(vm).nic_by_mac(nic.mac).unwrap().id, nic.nic);
        assert_eq!(vmm.provisioned_vcpus(), 5);
    }

    #[test]
    fn bridge_lookup_by_name() {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 4);
        let tenant = vmm.create_bridge("tenant-a", 4);
        assert_eq!(vmm.bridge_by_name("br0"), Some(br));
        assert_eq!(vmm.bridge_by_name("tenant-a"), Some(tenant));
        assert_eq!(vmm.bridge_by_name("nope"), None);
    }
}
