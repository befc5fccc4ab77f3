//! The per-VM container engine (the `dockerd` of one node).

use crate::container::{Container, ContainerId, ContainerSpec, ContainerState};
use crate::dataplane::{ContainerNet, NodeDataplane};
use crate::image::{Image, ImageStore};
use simnet::{Ip4, Ip4Net};
use vmm::{NicInfo, VmId, Vmm};

/// How a container's networking is provided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkMode {
    /// The engine's default bridge + NAT dataplane.
    Bridge,
    /// Networking is provided externally (by a CNI plugin: BrFusion,
    /// Hostlo, or an overlay attachment); the engine only tracks the
    /// container.
    External,
}

/// One entry of the engine's audit log (`docker events`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineEvent {
    /// Monotone sequence number.
    pub seq: u64,
    /// Subject container.
    pub container: ContainerId,
    /// What happened.
    pub kind: EngineEventKind,
}

/// Lifecycle transitions the engine records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineEventKind {
    /// Container created and started.
    Started,
    /// Stopped by request.
    Stopped,
}

/// The container engine of one VM.
pub struct ContainerEngine {
    vm: VmId,
    images: ImageStore,
    containers: Vec<Container>,
    dataplane: Option<NodeDataplane>,
    events: Vec<EngineEvent>,
}

impl ContainerEngine {
    /// An engine without the default bridge (all containers use `External`
    /// networking).
    pub fn new(vm: VmId) -> ContainerEngine {
        ContainerEngine {
            vm,
            images: ImageStore::new(),
            containers: Vec::new(),
            dataplane: None,
            events: Vec::new(),
        }
    }

    /// An engine with the default bridge+NAT dataplane built behind `eth0`.
    pub fn with_default_bridge(
        vmm: &mut Vmm,
        vm: VmId,
        eth0: &NicInfo,
        vm_ip: Ip4,
        host_subnet: Ip4Net,
        bridge_capacity: usize,
    ) -> ContainerEngine {
        let dataplane = Some(NodeDataplane::new(
            vmm,
            vm,
            eth0,
            vm_ip,
            host_subnet,
            bridge_capacity,
        ));
        ContainerEngine {
            vm,
            images: ImageStore::new(),
            containers: Vec::new(),
            dataplane,
            events: Vec::new(),
        }
    }

    /// Owning VM.
    pub fn vm(&self) -> VmId {
        self.vm
    }

    /// The audit log, in order.
    pub fn events(&self) -> &[EngineEvent] {
        &self.events
    }

    fn log(&mut self, container: ContainerId, kind: EngineEventKind) {
        let seq = self.events.len() as u64;
        self.events.push(EngineEvent {
            seq,
            container,
            kind,
        });
    }

    /// Pulls an image into the node-local store; returns MiB transferred.
    pub fn pull(&mut self, image: &Image) -> u64 {
        self.images.pull(image)
    }

    /// The default dataplane, if configured.
    pub fn dataplane(&self) -> Option<&NodeDataplane> {
        self.dataplane.as_ref()
    }

    /// Mutable default dataplane.
    pub fn dataplane_mut(&mut self) -> Option<&mut NodeDataplane> {
        self.dataplane.as_mut()
    }

    /// Installs a dataplane built after construction (a CNI plugin falling
    /// back to the classic bridge+NAT path builds one lazily).
    ///
    /// # Panics
    /// Panics if the engine already has a dataplane or `dp` belongs to a
    /// different VM.
    pub fn install_dataplane(&mut self, dp: NodeDataplane) {
        assert!(
            self.dataplane.is_none(),
            "engine on {:?} already has a dataplane",
            self.vm
        );
        assert_eq!(dp.vm, self.vm, "dataplane belongs to a different VM");
        self.dataplane = Some(dp);
    }

    /// Creates and starts a container.
    ///
    /// With [`NetworkMode::Bridge`] the engine plumbs the default dataplane
    /// and returns the [`ContainerNet`] the caller attaches the workload
    /// endpoint to; with [`NetworkMode::External`] networking is left to
    /// the CNI plugin and `None` is returned.
    ///
    /// # Panics
    /// Panics when the image was not pulled, or `Bridge` mode is requested
    /// without a dataplane.
    pub fn create_container(
        &mut self,
        vmm: &mut Vmm,
        spec: ContainerSpec,
        mode: NetworkMode,
    ) -> (ContainerId, Option<ContainerNet>) {
        assert!(
            self.images.has(&spec.image),
            "image {} not pulled on {:?}",
            spec.image,
            self.vm
        );
        let id = ContainerId(self.containers.len() as u32);
        let net = match mode {
            NetworkMode::Bridge => {
                let dp = self
                    .dataplane
                    .as_mut()
                    .expect("Bridge mode requires a default dataplane");
                Some(dp.attach_container(vmm, &spec.name, &spec.ports))
            }
            NetworkMode::External => None,
        };
        self.containers.push(Container {
            id,
            spec,
            state: ContainerState::Running,
            ip: net.as_ref().map(|n| n.ip),
        });
        self.log(id, EngineEventKind::Started);
        (id, net)
    }

    /// Looks up a container.
    pub fn container(&self, id: ContainerId) -> &Container {
        &self.containers[id.0 as usize]
    }

    /// All containers.
    pub fn containers(&self) -> &[Container] {
        &self.containers
    }

    /// Stops a container.
    pub fn stop(&mut self, id: ContainerId) {
        self.containers[id.0 as usize].state = ContainerState::Exited;
        self.log(id, EngineEventKind::Stopped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::nat::Proto;
    use vmm::VmSpec;

    fn engine_with_bridge() -> (Vmm, ContainerEngine) {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 8);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let eth0 = vmm.add_nic(vm, br, true, false);
        let subnet = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
        let eng =
            ContainerEngine::with_default_bridge(&mut vmm, vm, &eth0, subnet.host(10), subnet, 8);
        (vmm, eng)
    }

    #[test]
    fn bridge_mode_returns_attachment() {
        let (mut vmm, mut eng) = engine_with_bridge();
        eng.pull(&Image::new("memcached", "1.5", &[50]));
        let spec = ContainerSpec::new("mc", "memcached:1.5").with_port(Proto::Udp, 11211, 11211);
        let (id, net) = eng.create_container(&mut vmm, spec, NetworkMode::Bridge);
        let net = net.expect("bridge mode yields attachment");
        assert_eq!(eng.container(id).ip, Some(net.ip));
        assert_eq!(eng.container(id).state, ContainerState::Running);
    }

    #[test]
    fn external_mode_returns_no_attachment() {
        let mut vmm = Vmm::new(0);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let mut eng = ContainerEngine::new(vm);
        eng.pull(&Image::new("app", "1", &[10]));
        let (id, net) = eng.create_container(
            &mut vmm,
            ContainerSpec::new("a", "app:1"),
            NetworkMode::External,
        );
        assert!(net.is_none());
        assert_eq!(eng.container(id).ip, None);
    }

    #[test]
    #[should_panic(expected = "not pulled")]
    fn create_requires_pulled_image() {
        let (mut vmm, mut eng) = engine_with_bridge();
        eng.create_container(
            &mut vmm,
            ContainerSpec::new("x", "ghost:1"),
            NetworkMode::Bridge,
        );
    }

    #[test]
    #[should_panic(expected = "requires a default dataplane")]
    fn bridge_mode_requires_dataplane() {
        let mut vmm = Vmm::new(0);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let mut eng = ContainerEngine::new(vm);
        eng.pull(&Image::new("app", "1", &[10]));
        eng.create_container(
            &mut vmm,
            ContainerSpec::new("a", "app:1"),
            NetworkMode::Bridge,
        );
    }

    #[test]
    fn stop_transitions_state() {
        let (mut vmm, mut eng) = engine_with_bridge();
        eng.pull(&Image::new("app", "1", &[10]));
        let (id, _) = eng.create_container(
            &mut vmm,
            ContainerSpec::new("a", "app:1"),
            NetworkMode::Bridge,
        );
        eng.stop(id);
        assert_eq!(eng.container(id).state, ContainerState::Exited);
    }

    #[test]
    fn audit_log_records_lifecycle() {
        let mut vmm = Vmm::new(0);
        let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
        let mut eng = ContainerEngine::new(vm);
        eng.pull(&Image::new("app", "1", &[10]));
        let (id, _) = eng.create_container(
            &mut vmm,
            ContainerSpec::new("a", "app:1"),
            NetworkMode::External,
        );
        eng.stop(id);
        let kinds: Vec<EngineEventKind> = eng.events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![EngineEventKind::Started, EngineEventKind::Stopped]
        );
        assert!(eng.events().windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
