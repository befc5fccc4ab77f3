//! ReplicaSet-style controllers: maintain N replicas of a pod template.
//!
//! The paper's motivating cloud (ESA's imagery platform, §1) deploys
//! micro-services as replicated pods; this controller is the orchestration
//! loop that keeps the declared replica count running, re-deploying through
//! whatever CNI plugin the control plane carries (default, BrFusion or
//! Hostlo).

use crate::api::{ControlPlane, DeployError};
use crate::cni::ClusterCtx;
use crate::pod::{PodId, PodSpec};
use serde::{Deserialize, Serialize};

/// Identifier of a replica set within a [`ReplicaSetController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ReplicaSetId(pub u32);

/// Declared state of one replica set.
#[derive(Debug, Clone)]
pub struct ReplicaSet {
    /// Identity.
    pub id: ReplicaSetId,
    /// Pod template; replica pods are named `{template}-{ordinal}`.
    pub template: PodSpec,
    /// Desired replica count.
    pub replicas: u32,
    /// Deployed pods, by ordinal.
    pub pods: Vec<PodId>,
    next_ordinal: u32,
}

impl ReplicaSet {
    /// Replicas currently deployed.
    pub fn ready(&self) -> u32 {
        self.pods.len() as u32
    }
}

/// Outcome of one reconciliation pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReconcileReport {
    /// Pods created this pass.
    pub created: u32,
    /// Creations that failed (kept pending for the next pass).
    pub failed: u32,
}

/// The controller: owns replica sets, reconciles them against a control
/// plane.
#[derive(Debug, Default)]
pub struct ReplicaSetController {
    sets: Vec<ReplicaSet>,
}

impl ReplicaSetController {
    /// Creates an empty controller.
    pub fn new() -> ReplicaSetController {
        ReplicaSetController::default()
    }

    /// Declares a replica set.
    pub fn create(&mut self, template: PodSpec, replicas: u32) -> ReplicaSetId {
        let id = ReplicaSetId(self.sets.len() as u32);
        self.sets.push(ReplicaSet {
            id,
            template,
            replicas,
            pods: Vec::new(),
            next_ordinal: 0,
        });
        id
    }

    /// Reads a replica set.
    pub fn get(&self, id: ReplicaSetId) -> &ReplicaSet {
        &self.sets[id.0 as usize]
    }

    /// Rescales a replica set (scale-down only stops tracking the excess
    /// pods; the simulated containers keep their devices, as with real
    /// graceful termination grace periods).
    pub fn scale(&mut self, id: ReplicaSetId, replicas: u32) {
        let set = &mut self.sets[id.0 as usize];
        set.replicas = replicas;
        set.pods.truncate(replicas as usize);
    }

    /// One reconciliation pass: deploy any missing replicas of every set.
    /// Unschedulable replicas are reported and retried on the next pass.
    pub fn reconcile(
        &mut self,
        cp: &mut ControlPlane,
        ctx: &mut ClusterCtx<'_>,
    ) -> ReconcileReport {
        let mut report = ReconcileReport {
            created: 0,
            failed: 0,
        };
        for set in &mut self.sets {
            while set.ready() < set.replicas {
                let mut spec = set.template.clone();
                spec.name = format!("{}-{}", set.template.name, set.next_ordinal);
                match cp.deploy_pod(ctx, spec) {
                    Ok(pod) => {
                        set.pods.push(pod);
                        set.next_ordinal += 1;
                        report.created += 1;
                    }
                    Err(DeployError::Unschedulable(_)) => {
                        report.failed += 1;
                        break; // no capacity now; retry next pass
                    }
                    Err(e) => panic!("CNI failure during reconcile: {e}"),
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cni::DefaultCni;
    use crate::scheduler::MostRequestedScheduler;
    use contd::{ContainerEngine, ContainerSpec, ResourceRequest};
    use simnet::{Ip4, Ip4Net};
    use std::collections::BTreeMap;
    use vmm::{VmId, VmSpec, Vmm};

    fn cluster(nodes: usize) -> (Vmm, BTreeMap<VmId, ContainerEngine>, ControlPlane) {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 64);
        let subnet = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
        let mut engines = BTreeMap::new();
        let mut cp = ControlPlane::new(Box::new(MostRequestedScheduler), Box::new(DefaultCni));
        for i in 0..nodes {
            let vm = vmm.create_vm(VmSpec::paper_eval(format!("vm{i}")));
            let eth0 = vmm.add_nic(vm, br, true, false);
            engines.insert(
                vm,
                ContainerEngine::with_default_bridge(
                    &mut vmm,
                    vm,
                    &eth0,
                    subnet.host(10 + i as u32),
                    subnet,
                    16,
                ),
            );
            cp.register_node(&vmm, vm);
        }
        (vmm, engines, cp)
    }

    fn template(cpu: u64) -> PodSpec {
        PodSpec::new(
            "web",
            vec![ContainerSpec::new("srv", "app:1").with_resources(ResourceRequest::new(cpu, 128))],
        )
    }

    #[test]
    fn reconcile_deploys_declared_replicas() {
        let (mut vmm, mut engines, mut cp) = cluster(2);
        let mut rsc = ReplicaSetController::new();
        let rs = rsc.create(template(500), 4);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let report = rsc.reconcile(&mut cp, &mut ctx);
        assert_eq!(
            report,
            ReconcileReport {
                created: 4,
                failed: 0
            }
        );
        assert_eq!(rsc.get(rs).ready(), 4);
        // Replica pods are named with ordinals.
        assert_eq!(cp.pods()[0].spec.name, "web-0");
        assert_eq!(cp.pods()[3].spec.name, "web-3");
        // Reconcile is idempotent at the fixed point.
        let again = rsc.reconcile(&mut cp, &mut ctx);
        assert_eq!(again.created, 0);
    }

    #[test]
    fn scale_up_adds_only_the_difference() {
        let (mut vmm, mut engines, mut cp) = cluster(2);
        let mut rsc = ReplicaSetController::new();
        let rs = rsc.create(template(500), 2);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        rsc.reconcile(&mut cp, &mut ctx);
        rsc.scale(rs, 5);
        let report = rsc.reconcile(&mut cp, &mut ctx);
        assert_eq!(report.created, 3);
        assert_eq!(rsc.get(rs).ready(), 5);
    }

    #[test]
    fn capacity_exhaustion_reports_failures_and_retries() {
        // One 5-vCPU node; 2000 mCPU replicas: only 2 fit.
        let (mut vmm, mut engines, mut cp) = cluster(1);
        let mut rsc = ReplicaSetController::new();
        let rs = rsc.create(template(2000), 5);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let report = rsc.reconcile(&mut cp, &mut ctx);
        assert_eq!(report.created, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(rsc.get(rs).ready(), 2);
        // More capacity appears -> the next pass finishes the job.
        let vm = ctx.vmm.create_vm(VmSpec {
            name: "big".into(),
            vcpus: 8,
            memory_mib: 8192,
        });
        let br = ctx.vmm.bridge_by_name("br0").unwrap();
        let eth = ctx.vmm.add_nic(vm, br, true, false);
        let subnet = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
        let eng =
            ContainerEngine::with_default_bridge(ctx.vmm, vm, &eth, subnet.host(90), subnet, 16);
        ctx.engines.insert(vm, eng);
        cp.register_node(ctx.vmm, vm);
        let report = rsc.reconcile(&mut cp, &mut ctx);
        assert_eq!(report.created, 3);
        assert_eq!(rsc.get(rs).ready(), 5);
    }

    #[test]
    fn multiple_sets_reconcile_together() {
        let (mut vmm, mut engines, mut cp) = cluster(3);
        let mut rsc = ReplicaSetController::new();
        let a = rsc.create(template(300), 2);
        let b = rsc.create(template(400), 3);
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let report = rsc.reconcile(&mut cp, &mut ctx);
        assert_eq!(report.created, 5);
        assert_eq!(rsc.get(a).ready(), 2);
        assert_eq!(rsc.get(b).ready(), 3);
    }
}
