//! The Container Network Interface plugin boundary.
//!
//! "Extending the Kubernetes orchestrator to ask the VMM for a new NIC when
//! scheduling a pod is easily done with a CNI plugin. CNI plugins follow a
//! standard specification and are used to provide new networking models"
//! (§3.2). The `nestless` crate ships the BrFusion and Hostlo plugins; this
//! module defines the interface plus the default (bridge+NAT) plugin that
//! models vanilla Kubernetes-on-Docker networking.

use crate::pod::PodSpec;
use crate::policy::NetworkPolicy;
use contd::{ContainerEngine, ContainerNet};
use simnet::device::{DeviceId, PortId};
use std::collections::BTreeMap;
use std::fmt;
use vmm::{VmId, Vmm};

/// Everything a CNI plugin may touch while wiring a pod: the VMM (and
/// through it the network) and the per-VM container engines.
pub struct ClusterCtx<'a> {
    /// The datacenter's VMM.
    pub vmm: &'a mut Vmm,
    /// Container engines, one per VM.
    pub engines: &'a mut BTreeMap<VmId, ContainerEngine>,
}

/// Network attachment produced for one container of a pod.
#[derive(Debug, Clone)]
pub struct PodAttachment {
    /// Index into `pod.containers`.
    pub container_idx: usize,
    /// VM the container landed on.
    pub vm: VmId,
    /// Attachment point + interface configuration for the workload
    /// endpoint.
    pub net: ContainerNet,
}

/// How a pod's wiring ended up relative to the plugin's preferred design.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PodNetHealth {
    /// The preferred wiring is in place (fused NIC, hostlo endpoint, ...).
    #[default]
    Nominal,
    /// Functional, but on a degraded fallback path pending repair (e.g.
    /// BrFusion parked the pod on the classic nested dataplane).
    Degraded {
        /// The fault that forced the downgrade.
        reason: String,
    },
}

impl PodNetHealth {
    /// True when the preferred wiring is in place.
    pub fn is_nominal(&self) -> bool {
        matches!(self, PodNetHealth::Nominal)
    }
}

/// One container's binding onto a shared loopback/TAP queue: the device and
/// queue port the pod fraction's localhost traffic rides on. Produced by
/// queue-multiplexing plugins (Hostlo); NIC-per-pod plugins bind none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueBinding {
    /// Index into `pod.containers`.
    pub container_idx: usize,
    /// VM the bound container runs on.
    pub vm: VmId,
    /// The shared loopback/TAP device.
    pub device: DeviceId,
    /// The queue (port) reserved for this container on that device.
    pub queue: PortId,
}

/// Structured result of a CNI setup: the per-container attachments plus
/// everything the control plane previously had to fish out of plugin-
/// specific side channels — wiring health and shared-queue bindings.
#[derive(Debug, Clone, Default)]
pub struct CniOutcome {
    /// Per-container network attachments, indexed like `pod.containers`.
    pub attachments: Vec<PodAttachment>,
    /// Whether the pod got the plugin's preferred wiring.
    pub health: PodNetHealth,
    /// Shared-queue bindings (one per container for queue-multiplexing
    /// plugins, empty otherwise).
    pub queues: Vec<QueueBinding>,
}

impl CniOutcome {
    /// An outcome on the preferred wiring with no queue bindings.
    pub fn nominal(attachments: Vec<PodAttachment>) -> CniOutcome {
        CniOutcome {
            attachments,
            health: PodNetHealth::Nominal,
            queues: Vec::new(),
        }
    }

    /// An outcome parked on a degraded fallback path.
    pub fn degraded(attachments: Vec<PodAttachment>, reason: impl Into<String>) -> CniOutcome {
        CniOutcome {
            attachments,
            health: PodNetHealth::Degraded {
                reason: reason.into(),
            },
            queues: Vec::new(),
        }
    }

    /// Attaches shared-queue bindings to the outcome.
    pub fn with_queues(mut self, queues: Vec<QueueBinding>) -> CniOutcome {
        self.queues = queues;
        self
    }
}

/// Point-in-time report of a plugin's fault-handling state machine,
/// queryable through [`CniPlugin::status`] for any plugin (plugins without
/// a degraded mode report the default all-zero status).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CniStatus {
    /// Pods currently parked on a degraded path.
    pub degraded_pods: usize,
    /// Pods that ever fell back to a degraded path.
    pub fallbacks: u64,
    /// Pods restored to the preferred wiring after a fallback.
    pub repromotions: u64,
    /// Pods abandoned on the degraded path (retry budget exhausted or a
    /// permanent refusal during repair).
    pub abandoned: u64,
    /// The fault that sent each fallen-back pod to the degraded path.
    pub fallback_reasons: Vec<String>,
    /// Time each restored pod spent degraded, in ns.
    pub repromotion_latency_ns: Vec<u64>,
}

/// A pod whose preferred wiring was restored by [`CniPlugin::maintain`];
/// drained via [`CniPlugin::drain_repaired`] so harnesses can re-bind
/// workloads onto the new attachments.
#[derive(Debug, Clone)]
pub struct RepairedPod {
    /// Pod name (as in its [`PodSpec`]).
    pub pod: String,
    /// The restored wiring.
    pub outcome: CniOutcome,
}

/// CNI failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CniError {
    /// Human-readable cause.
    pub reason: String,
    /// True when the fault is transient (e.g. a dead management socket)
    /// and the control plane may retry the setup after a backoff.
    pub retryable: bool,
}

impl CniError {
    /// A permanent failure: retrying the same setup cannot succeed.
    pub fn fatal(reason: impl Into<String>) -> CniError {
        CniError {
            reason: reason.into(),
            retryable: false,
        }
    }

    /// A transient failure worth retrying after a backoff.
    pub fn retryable(reason: impl Into<String>) -> CniError {
        CniError {
            reason: reason.into(),
            retryable: true,
        }
    }
}

impl fmt::Display for CniError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CNI setup failed: {}", self.reason)
    }
}

impl std::error::Error for CniError {}

/// A CNI plugin: wires pod networking for a placement decided by the
/// scheduler.
pub trait CniPlugin {
    /// Plugin name (for logs and assertions).
    fn name(&self) -> &str;

    /// Sets up networking for `pod`; `placement[i]` is the VM of container
    /// `i`.
    fn setup(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        placement: &[VmId],
    ) -> Result<CniOutcome, CniError>;

    /// Periodic repair pass: plugins that degraded a pod's networking
    /// during a fault (e.g. BrFusion falling back to the nested path) try
    /// to restore the preferred wiring here. Returns how many pods were
    /// repaired this pass. The default plugin has nothing to repair.
    fn maintain(&mut self, _ctx: &mut ClusterCtx<'_>) -> usize {
        0
    }

    /// The plugin's fault-handling state, for observability. Plugins
    /// without a degraded mode report the all-zero default.
    fn status(&self) -> CniStatus {
        CniStatus::default()
    }

    /// Drains the pods whose preferred wiring [`CniPlugin::maintain`]
    /// restored since the last call.
    fn drain_repaired(&mut self) -> Vec<RepairedPod> {
        Vec::new()
    }

    /// Compiles `policy` into filter chains at whichever device carries
    /// the pod's traffic for this plugin's wiring, and keeps them there
    /// across wiring changes (degrade / re-promotion). `attachments` is
    /// the pod's current wiring as returned by [`CniPlugin::setup`].
    /// Returns the number of filter rules installed. The default is a
    /// no-op: a plugin without an enforcement point isolates nothing.
    fn apply_policy(
        &mut self,
        _ctx: &mut ClusterCtx<'_>,
        _pod: &PodSpec,
        _attachments: &[PodAttachment],
        _policy: &NetworkPolicy,
    ) -> Result<usize, CniError> {
        Ok(0)
    }
}

/// The default plugin: each container goes through the VM's bridge+NAT
/// dataplane (fig. 1's nested design — the `NAT` baseline).
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultCni;

impl CniPlugin for DefaultCni {
    fn name(&self) -> &str {
        "default-bridge-nat"
    }

    fn setup(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        placement: &[VmId],
    ) -> Result<CniOutcome, CniError> {
        // VM-local network virtualization cannot span VMs (§2, issue 2).
        let first = placement
            .first()
            .ok_or_else(|| CniError::fatal("empty placement"))?;
        if placement.iter().any(|vm| vm != first) {
            return Err(CniError::fatal("default CNI cannot wire a cross-VM pod"));
        }
        let mut out = Vec::with_capacity(pod.containers.len());
        for (idx, c) in pod.containers.iter().enumerate() {
            let vm = placement[idx];
            let engine = ctx
                .engines
                .get_mut(&vm)
                .ok_or_else(|| CniError::fatal(format!("no container engine on {vm:?}")))?;
            let dp = engine
                .dataplane_mut()
                .ok_or_else(|| CniError::fatal(format!("no default dataplane on {vm:?}")))?;
            let net = dp.attach_container(ctx.vmm, &c.name, &c.ports);
            out.push(PodAttachment {
                container_idx: idx,
                vm,
                net,
            });
        }
        Ok(CniOutcome::nominal(out))
    }

    /// Enforcement point: the nested guest's NAT router. Its FORWARD hook
    /// runs post-DNAT, so compiled rules match the container's own socket
    /// (ip, container port) — exactly what the policy talks about.
    fn apply_policy(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        _pod: &PodSpec,
        attachments: &[PodAttachment],
        policy: &NetworkPolicy,
    ) -> Result<usize, CniError> {
        let now = ctx.vmm.network().now();
        let mut installed = 0;
        for att in attachments {
            let engine = ctx
                .engines
                .get(&att.vm)
                .ok_or_else(|| CniError::fatal(format!("no container engine on {:?}", att.vm)))?;
            let dp = engine
                .dataplane()
                .ok_or_else(|| CniError::fatal(format!("no default dataplane on {:?}", att.vm)))?;
            let (dev, ctl) = (dp.nat, dp.nat_filter.clone());
            for rule in policy.compile(att.net.ip) {
                ctx.vmm.network_mut().install_filter(dev, &ctl, rule, now);
                installed += 1;
            }
        }
        Ok(installed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contd::ContainerSpec;
    use simnet::{Ip4, Ip4Net};
    use vmm::VmSpec;

    fn cluster() -> (Vmm, BTreeMap<VmId, ContainerEngine>) {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 16);
        let subnet = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
        let mut engines = BTreeMap::new();
        for i in 0..2 {
            let vm = vmm.create_vm(VmSpec::paper_eval(format!("vm{i}")));
            let eth0 = vmm.add_nic(vm, br, true, false);
            let eng = ContainerEngine::with_default_bridge(
                &mut vmm,
                vm,
                &eth0,
                subnet.host(10 + i),
                subnet,
                8,
            );
            engines.insert(vm, eng);
        }
        (vmm, engines)
    }

    #[test]
    fn default_cni_wires_single_vm_pod() {
        let (mut vmm, mut engines) = cluster();
        let pod = PodSpec::new(
            "p",
            vec![
                ContainerSpec::new("a", "i:1"),
                ContainerSpec::new("b", "i:1"),
            ],
        );
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let out = DefaultCni
            .setup(&mut ctx, &pod, &[VmId(0), VmId(0)])
            .unwrap();
        assert!(out.health.is_nominal());
        assert!(out.queues.is_empty());
        let atts = out.attachments;
        assert_eq!(atts.len(), 2);
        assert_ne!(atts[0].net.ip, atts[1].net.ip);
        assert!(atts.iter().all(|a| a.vm == VmId(0)));
    }

    #[test]
    fn default_cni_rejects_cross_vm() {
        let (mut vmm, mut engines) = cluster();
        let pod = PodSpec::new(
            "p",
            vec![
                ContainerSpec::new("a", "i:1"),
                ContainerSpec::new("b", "i:1"),
            ],
        );
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let err = DefaultCni
            .setup(&mut ctx, &pod, &[VmId(0), VmId(1)])
            .unwrap_err();
        assert!(err.reason.contains("cross-VM"));
    }

    #[test]
    fn default_cni_requires_engine() {
        let (mut vmm, _) = cluster();
        let vm9 = vmm.create_vm(VmSpec::paper_eval("vm9"));
        let pod = PodSpec::new("p", vec![ContainerSpec::new("a", "i:1")]);
        let mut empty = BTreeMap::new();
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut empty,
        };
        let err = DefaultCni.setup(&mut ctx, &pod, &[vm9]).unwrap_err();
        assert!(err.reason.contains("no container engine"));
    }
}
