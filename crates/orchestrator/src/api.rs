//! The control plane: node registry, pod deployment, CNI dispatch.

use crate::cni::{
    ClusterCtx, CniError, CniPlugin, CniStatus, PodAttachment, PodNetHealth, QueueBinding,
    RepairedPod,
};
use crate::node::{Node, NodeId};
use crate::pod::{PodId, PodSpec};
use crate::policy::NetworkPolicy;
use crate::scheduler::{Placement, SchedError, Scheduler};
use contd::{Image, NetworkMode};
use simnet::StopCondition;
use std::fmt;
use vmm::{VmId, Vmm};

/// A deployed pod as the control plane tracks it.
#[derive(Debug)]
pub struct PodRecord {
    /// Identity.
    pub id: PodId,
    /// Spec as deployed.
    pub spec: PodSpec,
    /// Where each container landed.
    pub placement: Placement,
    /// Per-container network attachments from the CNI plugin.
    pub attachments: Vec<PodAttachment>,
    /// Whether the pod got the plugin's preferred wiring or a degraded
    /// fallback (as of deployment; repairs are reported by the plugin).
    pub net_health: PodNetHealth,
    /// Shared-queue bindings (queue-multiplexing plugins only).
    pub queues: Vec<QueueBinding>,
    /// False once deleted (ids stay stable; records are tombstoned).
    pub live: bool,
}

/// Deployment failure.
#[derive(Debug)]
pub enum DeployError {
    /// The scheduler found no placement.
    Unschedulable(SchedError),
    /// The CNI plugin failed.
    Network(crate::cni::CniError),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Unschedulable(e) => write!(f, "{e}"),
            DeployError::Network(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DeployError {}

/// The orchestrator control plane.
pub struct ControlPlane {
    nodes: Vec<Node>,
    pods: Vec<PodRecord>,
    scheduler: Box<dyn Scheduler>,
    cni: Box<dyn CniPlugin>,
    /// Stored NetworkPolicy objects; enforced on matching live pods and
    /// auto-applied to matching pods deployed later.
    policies: Vec<NetworkPolicy>,
}

impl ControlPlane {
    /// How many times a transient CNI failure is retried per deployment
    /// (the initial attempt plus `CNI_RETRIES` more).
    pub const CNI_RETRIES: u32 = 3;

    /// Backoff before the first CNI retry; doubles per further attempt.
    pub const CNI_BACKOFF: simnet::SimDuration = simnet::SimDuration::millis(10);

    /// Creates a control plane with a scheduler and a CNI plugin.
    pub fn new(scheduler: Box<dyn Scheduler>, cni: Box<dyn CniPlugin>) -> ControlPlane {
        ControlPlane {
            nodes: Vec::new(),
            pods: Vec::new(),
            scheduler,
            cni,
            policies: Vec::new(),
        }
    }

    /// Registers a VM as a schedulable node.
    pub fn register_node(&mut self, vmm: &Vmm, vm: VmId) -> NodeId {
        self.nodes.push(Node::from_vm(vm, &vmm.vm(vm).spec));
        NodeId(self.nodes.len() - 1)
    }

    /// Registered nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Deployed pods.
    pub fn pods(&self) -> &[PodRecord] {
        &self.pods
    }

    /// Looks up a pod.
    pub fn pod(&self, id: PodId) -> &PodRecord {
        &self.pods[id.0 as usize]
    }

    /// Deletes a pod: frees its node allocations and tombstones the
    /// record. Simulated network devices stay in the graph (they just go
    /// quiet), like a real pod's veths pending GC.
    ///
    /// # Panics
    /// Panics if the pod is already deleted.
    pub fn delete_pod(&mut self, id: PodId) {
        let rec = &mut self.pods[id.0 as usize];
        assert!(rec.live, "pod {id:?} already deleted");
        rec.live = false;
        for (c, &node) in rec.spec.containers.iter().zip(&rec.placement.assignments) {
            self.nodes[node.0].release(c.resources);
        }
    }

    /// Live (non-deleted) pods.
    pub fn live_pods(&self) -> impl Iterator<Item = &PodRecord> {
        self.pods.iter().filter(|p| p.live)
    }

    /// Cordons and drains a node: marks it unschedulable and re-deploys
    /// every pod that had containers there. Returns the re-deployed pod
    /// ids (paired old -> new). Pods that no longer fit anywhere are
    /// reported in the error side.
    ///
    /// The network attachments of evicted pods are re-wired by the CNI
    /// plugin for the new placement; the old simulated devices stay in the
    /// graph (as a real drain leaves garbage until GC).
    pub fn drain_node(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        node: NodeId,
    ) -> (Vec<(PodId, PodId)>, Vec<PodId>) {
        // Cordon: zero allocatable capacity.
        let drained_vm = self.nodes[node.0].vm;
        self.nodes[node.0].capacity = contd::ResourceRequest::default();
        self.nodes[node.0].allocated = contd::ResourceRequest::default();

        let victims: Vec<PodId> = self
            .pods
            .iter()
            .filter(|p| p.live && p.placement.assignments.contains(&node))
            .map(|p| p.id)
            .collect();
        let mut moved = Vec::new();
        let mut failed = Vec::new();
        for pod in victims {
            let spec = self.pods[pod.0 as usize].spec.clone();
            match self.deploy_pod(ctx, spec) {
                Ok(new_id) => {
                    debug_assert!(self
                        .pods
                        .last()
                        .expect("just deployed")
                        .placement
                        .assignments
                        .iter()
                        .all(|n| self.nodes[n.0].vm != drained_vm));
                    self.pods[pod.0 as usize].live = false;
                    moved.push((pod, new_id));
                }
                Err(_) => failed.push(pod),
            }
        }
        ctx.vmm.network_mut().journal_external(
            simnet::JournalKind::SchedDrain,
            node.0 as u64,
            moved.len() as u64,
            failed.len() as u64,
        );
        (moved, failed)
    }

    /// Deploys a pod: schedule, commit allocations, wire the network via
    /// the CNI plugin, create the containers.
    pub fn deploy_pod(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        spec: PodSpec,
    ) -> Result<PodId, DeployError> {
        let placement = self
            .scheduler
            .place(&spec, &self.nodes)
            .map_err(DeployError::Unschedulable)?;
        assert_eq!(
            placement.assignments.len(),
            spec.containers.len(),
            "scheduler must assign every container"
        );

        // Commit resource allocations.
        for (c, &node) in spec.containers.iter().zip(&placement.assignments) {
            self.nodes[node.0].allocate(c.resources);
        }

        // Resolve node -> VM for the CNI plugin.
        let vm_placement: Vec<VmId> = placement
            .assignments
            .iter()
            .map(|n| self.nodes[n.0].vm)
            .collect();
        // Transient CNI failures (a wedged management socket, a crashed
        // VM mid-restart) are retried with exponential backoff; the wait
        // advances simulated time so outage windows actually pass. A
        // final failure rolls the committed allocations back.
        let mut backoff = Self::CNI_BACKOFF;
        let mut attempt = 0;
        let outcome = loop {
            match self.cni.setup(ctx, &spec, &vm_placement) {
                Ok(outcome) => break outcome,
                Err(e) if e.retryable && attempt < Self::CNI_RETRIES => {
                    attempt += 1;
                    ctx.vmm.network_mut().run(StopCondition::For(backoff));
                    backoff = backoff.saturating_mul(2);
                }
                Err(e) => {
                    for (c, &node) in spec.containers.iter().zip(&placement.assignments) {
                        self.nodes[node.0].release(c.resources);
                    }
                    return Err(DeployError::Network(e));
                }
            }
        };

        // Create the containers (network handled above).
        for (c, &vm) in spec.containers.iter().zip(&vm_placement) {
            let engine = ctx
                .engines
                .get_mut(&vm)
                .unwrap_or_else(|| panic!("no engine on {vm:?} after CNI success"));
            ensure_image(engine, &c.image);
            engine.create_container(ctx.vmm, c.clone(), NetworkMode::External);
        }

        let id = PodId(self.pods.len() as u32);
        ctx.vmm.network_mut().journal_external(
            simnet::JournalKind::SchedPlace,
            u64::from(id.0),
            placement.assignments[0].0 as u64,
            placement.assignments.len() as u64,
        );
        self.pods.push(PodRecord {
            id,
            spec,
            placement,
            attachments: outcome.attachments,
            net_health: outcome.health,
            queues: outcome.queues,
            live: true,
        });

        // NetworkPolicy objects are cluster state: a pod deployed after
        // the policy was applied still gets its chains (K8s semantics).
        let matching: Vec<NetworkPolicy> = self
            .policies
            .iter()
            .filter(|p| p.selects(&self.pods[id.0 as usize].spec))
            .cloned()
            .collect();
        for pol in &matching {
            let rec = &self.pods[id.0 as usize];
            let (spec, atts) = (rec.spec.clone(), rec.attachments.clone());
            self.cni
                .apply_policy(ctx, &spec, &atts, pol)
                .map_err(DeployError::Network)?;
        }
        Ok(id)
    }

    /// Applies a NetworkPolicy: compiles it onto every matching live
    /// pod's enforcement point (the CNI plugin decides where) and stores
    /// it so matching pods deployed later are covered too. Returns the
    /// number of filter rules installed now.
    pub fn apply_policy(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        policy: NetworkPolicy,
    ) -> Result<usize, CniError> {
        let targets: Vec<usize> = self
            .pods
            .iter()
            .enumerate()
            .filter(|(_, p)| p.live && policy.selects(&p.spec))
            .map(|(i, _)| i)
            .collect();
        let mut installed = 0;
        for i in targets {
            let (spec, atts) = {
                let rec = &self.pods[i];
                (rec.spec.clone(), rec.attachments.clone())
            };
            installed += self.cni.apply_policy(ctx, &spec, &atts, &policy)?;
        }
        self.policies.push(policy);
        Ok(installed)
    }

    /// Stored NetworkPolicy objects, in application order.
    pub fn policies(&self) -> &[NetworkPolicy] {
        &self.policies
    }

    /// One repair pass over degraded pod networking: asks the CNI plugin
    /// to restore any pods it downgraded during a fault (BrFusion pods on
    /// the fallback nested path re-promote here). Returns how many pods
    /// were repaired. Call it periodically, like a kubelet sync loop.
    pub fn repair_network(&mut self, ctx: &mut ClusterCtx<'_>) -> usize {
        self.cni.maintain(ctx)
    }

    /// The CNI plugin's fault-handling state (all-zero for plugins without
    /// a degraded mode).
    pub fn cni_status(&self) -> CniStatus {
        self.cni.status()
    }

    /// Drains the pods whose preferred wiring the plugin restored since
    /// the last call, updating their records to the repaired attachments.
    pub fn drain_repaired(&mut self) -> Vec<RepairedPod> {
        let repaired = self.cni.drain_repaired();
        for r in &repaired {
            if let Some(rec) = self
                .pods
                .iter_mut()
                .rev()
                .find(|p| p.live && p.spec.name == r.pod)
            {
                rec.attachments = r.outcome.attachments.clone();
                rec.net_health = r.outcome.health.clone();
                rec.queues = r.outcome.queues.clone();
            }
        }
        repaired
    }
}

/// Pulls a synthetic image for `reference` if the engine does not have it
/// (the orchestrator's imagePull behaviour).
fn ensure_image(engine: &mut contd::ContainerEngine, reference: &str) {
    let (name, tag) = reference.split_once(':').unwrap_or((reference, "latest"));
    engine.pull(&Image::new(name, tag, &[64, 16, 4]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cni::DefaultCni;
    use crate::scheduler::MostRequestedScheduler;
    use contd::{ContainerEngine, ContainerSpec, ResourceRequest};
    use simnet::{Ip4, Ip4Net};
    use std::collections::BTreeMap;
    use vmm::VmSpec;

    fn cluster(n: usize) -> (Vmm, BTreeMap<VmId, ContainerEngine>, ControlPlane) {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 32);
        let subnet = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
        let mut engines = BTreeMap::new();
        let mut cp = ControlPlane::new(Box::new(MostRequestedScheduler), Box::new(DefaultCni));
        for i in 0..n {
            let vm = vmm.create_vm(VmSpec::paper_eval(format!("vm{i}")));
            let eth0 = vmm.add_nic(vm, br, true, false);
            let eng = ContainerEngine::with_default_bridge(
                &mut vmm,
                vm,
                &eth0,
                subnet.host(10 + i as u32),
                subnet,
                16,
            );
            engines.insert(vm, eng);
            cp.register_node(&vmm, vm);
        }
        (vmm, engines, cp)
    }

    fn pod(name: &str, cpu: u64) -> PodSpec {
        PodSpec::new(
            name,
            vec![
                ContainerSpec::new(format!("{name}-a"), "app:1")
                    .with_resources(ResourceRequest::new(cpu, 256)),
                ContainerSpec::new(format!("{name}-b"), "app:1")
                    .with_resources(ResourceRequest::new(cpu, 256)),
            ],
        )
    }

    #[test]
    fn deploy_places_wires_and_creates() {
        let (mut vmm, mut engines, mut cp) = cluster(2);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let id = cp.deploy_pod(&mut ctx, pod("p0", 1000)).unwrap();
        let rec = cp.pod(id);
        assert!(rec.placement.is_single_node());
        assert_eq!(rec.attachments.len(), 2);
        let vm = cp.nodes()[rec.placement.assignments[0].0].vm;
        assert_eq!(engines[&vm].containers().len(), 2);
    }

    #[test]
    fn allocations_accumulate_and_gate() {
        let (mut vmm, mut engines, mut cp) = cluster(1);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        // 2 x 2000 mCPU fits a 5000 node...
        cp.deploy_pod(&mut ctx, pod("p0", 2000)).unwrap();
        // ...but a second such pod does not (4000 + 4000 > 5000).
        let err = cp.deploy_pod(&mut ctx, pod("p1", 2000)).unwrap_err();
        assert!(matches!(err, DeployError::Unschedulable(_)));
        assert_eq!(cp.pods().len(), 1);
    }

    #[test]
    fn delete_pod_frees_allocations() {
        let (mut vmm, mut engines, mut cp) = cluster(1);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let id = cp.deploy_pod(&mut ctx, pod("p0", 2000)).unwrap();
        // The node is full: a second pod is refused...
        assert!(cp.deploy_pod(&mut ctx, pod("p1", 2000)).is_err());
        // ...until the first is deleted.
        cp.delete_pod(id);
        assert_eq!(cp.live_pods().count(), 0);
        let id2 = cp.deploy_pod(&mut ctx, pod("p1", 2000)).unwrap();
        assert_ne!(id, id2);
        assert_eq!(cp.live_pods().count(), 1);
    }

    #[test]
    #[should_panic(expected = "already deleted")]
    fn double_delete_panics() {
        let (mut vmm, mut engines, mut cp) = cluster(1);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let id = cp.deploy_pod(&mut ctx, pod("p0", 100)).unwrap();
        cp.delete_pod(id);
        cp.delete_pod(id);
    }

    #[test]
    fn drain_reschedules_pods_elsewhere() {
        let (mut vmm, mut engines, mut cp) = cluster(2);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let id = cp.deploy_pod(&mut ctx, pod("p0", 500)).unwrap();
        let old_node = cp.pod(id).placement.assignments[0];
        let (moved, failed) = cp.drain_node(&mut ctx, old_node);
        assert_eq!(moved.len(), 1);
        assert!(failed.is_empty());
        let (_, new_id) = moved[0];
        assert_ne!(cp.pod(new_id).placement.assignments[0], old_node);
        // Drained node takes no further pods.
        let id2 = cp.deploy_pod(&mut ctx, pod("p1", 500)).unwrap();
        assert_ne!(cp.pod(id2).placement.assignments[0], old_node);
    }

    #[test]
    fn drain_reports_unschedulable_victims() {
        let (mut vmm, mut engines, mut cp) = cluster(1);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let id = cp.deploy_pod(&mut ctx, pod("p0", 2000)).unwrap();
        let node = cp.pod(id).placement.assignments[0];
        // Only node drained: nowhere to go.
        let (moved, failed) = cp.drain_node(&mut ctx, node);
        assert!(moved.is_empty());
        assert_eq!(failed, vec![id]);
    }

    /// A plugin that fails the first `fail` setups, then delegates to the
    /// default plugin. `retryable` selects the failure class.
    struct FlakyCni {
        fail: u32,
        retryable: bool,
        calls: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl CniPlugin for FlakyCni {
        fn name(&self) -> &str {
            "flaky"
        }
        fn setup(
            &mut self,
            ctx: &mut ClusterCtx<'_>,
            pod: &PodSpec,
            placement: &[VmId],
        ) -> Result<crate::cni::CniOutcome, crate::cni::CniError> {
            self.calls.set(self.calls.get() + 1);
            if self.calls.get() <= self.fail {
                return Err(if self.retryable {
                    crate::cni::CniError::retryable("injected transient fault")
                } else {
                    crate::cni::CniError::fatal("injected permanent fault")
                });
            }
            DefaultCni.setup(ctx, pod, placement)
        }
    }

    fn flaky_cluster(
        fail: u32,
        retryable: bool,
    ) -> (
        Vmm,
        BTreeMap<VmId, ContainerEngine>,
        ControlPlane,
        std::rc::Rc<std::cell::Cell<u32>>,
    ) {
        let (vmm, engines, _) = cluster(1);
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut cp = ControlPlane::new(
            Box::new(MostRequestedScheduler),
            Box::new(FlakyCni {
                fail,
                retryable,
                calls: calls.clone(),
            }),
        );
        for node_vm in engines.keys() {
            cp.register_node(&vmm, *node_vm);
        }
        (vmm, engines, cp, calls)
    }

    #[test]
    fn transient_cni_failure_is_retried_with_backoff() {
        let (mut vmm, mut engines, mut cp, calls) = flaky_cluster(2, true);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let id = cp.deploy_pod(&mut ctx, pod("p0", 100)).unwrap();
        assert_eq!(calls.get(), 3, "two failures then success");
        assert_eq!(cp.pod(id).attachments.len(), 2);
        // The two backoffs (10ms + 20ms) advanced simulated time.
        let now = vmm.network().now();
        assert!(
            now.since(simnet::SimTime::ZERO) >= simnet::SimDuration::millis(30),
            "backoff must advance sim time, now={now:?}"
        );
    }

    #[test]
    fn fatal_cni_failure_rolls_back_allocations() {
        let (mut vmm, mut engines, mut cp, calls) = flaky_cluster(1, false);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        // 2 x 2000 mCPU fills the 5000 node; a fatal CNI error must not
        // leave that committed.
        let err = cp.deploy_pod(&mut ctx, pod("p0", 2000)).unwrap_err();
        assert!(matches!(err, DeployError::Network(ref e) if !e.retryable));
        assert_eq!(calls.get(), 1, "fatal errors are not retried");
        assert_eq!(cp.nodes()[0].allocated, ResourceRequest::default());
        // The freed capacity is immediately usable.
        cp.deploy_pod(&mut ctx, pod("p1", 2000)).unwrap();
    }

    #[test]
    fn retry_budget_is_bounded() {
        let (mut vmm, mut engines, mut cp, calls) = flaky_cluster(u32::MAX, true);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let err = cp.deploy_pod(&mut ctx, pod("p0", 2000)).unwrap_err();
        assert!(matches!(err, DeployError::Network(_)));
        assert_eq!(calls.get(), 1 + ControlPlane::CNI_RETRIES);
        // Allocations rolled back even on retryable exhaustion.
        assert_eq!(cp.nodes()[0].allocated, ResourceRequest::default());
    }

    /// Pins the placements on the seed topology across deploy/delete/drain
    /// churn. Each pod's two containers share one node. On an empty
    /// cluster every node scores the same and `max_by` keeps the last
    /// maximum, so the first pod lands on node 2.
    #[test]
    fn placements_on_seed_topology_are_pinned() {
        let (mut vmm, mut engines, mut cp) = cluster(3);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let mut ids = Vec::new();
        for (name, cpu, node) in [
            ("a", 500, 2),
            ("b", 1200, 2),
            ("c", 700, 2),
            ("d", 300, 1),
            ("e", 900, 1),
        ] {
            let id = cp.deploy_pod(&mut ctx, pod(name, cpu)).unwrap();
            assert_eq!(
                cp.pod(id).placement.assignments,
                vec![NodeId(node); 2],
                "pod {name}"
            );
            ids.push(id);
        }
        cp.delete_pod(ids[1]);
        let id = cp.deploy_pod(&mut ctx, pod("f", 800)).unwrap();
        assert_eq!(
            cp.pod(id).placement.assignments,
            vec![NodeId(2); 2],
            "pod f after delete"
        );
        let drained = cp.pod(ids[0]).placement.assignments[0];
        cp.drain_node(&mut ctx, drained);
        let id = cp.deploy_pod(&mut ctx, pod("g", 400)).unwrap();
        assert_eq!(
            cp.pod(id).placement.assignments,
            vec![NodeId(0); 2],
            "pod g after drain"
        );
        assert_ne!(cp.pod(id).placement.assignments[0], drained);
    }

    #[test]
    fn most_requested_groups_pods() {
        let (mut vmm, mut engines, mut cp) = cluster(3);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let a = cp.deploy_pod(&mut ctx, pod("p0", 500)).unwrap();
        let b = cp.deploy_pod(&mut ctx, pod("p1", 500)).unwrap();
        // Second pod lands on the same (now fullest) node.
        assert_eq!(
            cp.pod(a).placement.assignments[0],
            cp.pod(b).placement.assignments[0]
        );
    }
}
