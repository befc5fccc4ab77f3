//! Hostlo: cross-VM pod deployment (§4).
//!
//! "Our solution is to create on the host a special loopback interface that
//! can be multiplexed between several VMs. In each VM, an endpoint of this
//! interface is used exclusively by the fraction of the pod that is placed
//! there, as its localhost interface" (§4.1).
//!
//! All fractions of the pod share the *same* localhost address on the
//! hostlo subnet and address each other by transport port — exactly like
//! containers of a normal pod talk over `127.0.0.1`. The hostlo TAP floods
//! every frame to all queues and the endpoints filter (§4.2), so no
//! neighbor resolution is needed.

use orchestrator::NodeId;
use orchestrator::{
    ClusterCtx, CniError, CniOutcome, CniPlugin, NetworkPolicy, Node, Placement, PodAttachment,
    PodSpec, QueueBinding, SchedError, Scheduler, VmAgent,
};
use simnet::veth::Loopback;
use simnet::{Ip4, Ip4Net};
use std::collections::BTreeMap;
use vmm::{HostloHandle, NicId, QmpCommand, QmpResponse, VmId};

/// The link-local subnet pods' hostlo interfaces live in.
pub const HOSTLO_SUBNET: Ip4Net = Ip4Net {
    addr: Ip4(0xA9FE_0000),
    prefix: 24,
}; // 169.254.0.0/24

/// The shared pod-localhost address on a hostlo interface.
pub const POD_LOCALHOST: Ip4 = Ip4(0xA9FE_0001); // 169.254.0.1

/// The Hostlo CNI plugin.
///
/// For a multi-VM placement it asks the VMM for a hostlo TAP spanning the
/// involved VMs (§4.1 steps 1-2), then each VM agent configures the
/// reported endpoint as the pod fraction's localhost (steps 3-4). For a
/// single-VM placement it provides a plain in-VM loopback — the `SameNode`
/// baseline.
#[derive(Debug, Default)]
pub struct HostloCni {
    pods_wired: u32,
    /// TAP handle per cross-VM pod, so NetworkPolicy chains can land on
    /// the host queues that carry the pod's localhost traffic.
    taps: BTreeMap<String, HostloHandle>,
}

impl HostloCni {
    /// Creates the plugin.
    pub fn new() -> HostloCni {
        HostloCni::default()
    }
}

impl CniPlugin for HostloCni {
    fn name(&self) -> &str {
        "hostlo"
    }

    fn setup(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        placement: &[VmId],
    ) -> Result<CniOutcome, CniError> {
        if placement.len() != pod.containers.len() {
            return Err(CniError::fatal("placement/container arity mismatch"));
        }
        // Distinct VMs, in first-seen order.
        let mut vms: Vec<VmId> = Vec::new();
        for &vm in placement {
            if !vms.contains(&vm) {
                vms.push(vm);
            }
        }
        self.pods_wired += 1;

        if vms.len() == 1 {
            // Single-VM pod: the usual pod-private loopback.
            return self.wire_same_node(ctx, pod, vms[0]);
        }

        // Step 1-2: one hostlo TAP spanning the pod's VMs, one endpoint per VM.
        let resp = ctx.vmm.qmp(QmpCommand::HostloCreate {
            vms: vms.iter().map(|v| v.0).collect(),
        });
        let QmpResponse::HostloCreated { endpoints } = resp else {
            // A dead management socket or crashed VM is transient: the
            // control plane may retry the whole setup after a backoff.
            let reason = format!("VMM refused hostlo_create: {resp:?}");
            return Err(if crate::brfusion::transient_qmp_error(&reason) {
                CniError::retryable(reason)
            } else {
                CniError::fatal(reason)
            });
        };
        // Resolve the TAP the endpoints hang off, for policy enforcement.
        let ep0 = &endpoints[0];
        if let Some(h) = ctx.vmm.hostlo_for_nic(VmId(ep0.vm), NicId(ep0.nic)) {
            self.taps.insert(pod.name.clone(), h);
        }

        // Step 3-4: each VM agent configures its endpoint as the pod
        // fraction's localhost. Containers co-located in the same VM share
        // that VM's endpoint (it is "used exclusively by the fraction of
        // the pod that is placed there").
        let mut out = Vec::with_capacity(pod.containers.len());
        let mut queues = Vec::with_capacity(pod.containers.len());
        let mut used: Vec<VmId> = Vec::new();
        for (idx, _c) in pod.containers.iter().enumerate() {
            let vm = placement[idx];
            if used.contains(&vm) {
                return Err(CniError::fatal(format!(
                    "two containers of pod {} share VM {vm:?}: a hostlo endpoint is a \
                     single attachment; co-locate them behind one endpoint explicitly",
                    pod.name
                )));
            }
            used.push(vm);
            let ep = endpoints
                .iter()
                .find(|e| e.vm == vm.0)
                .ok_or_else(|| CniError::fatal(format!("no hostlo endpoint for {vm:?}")))?;
            let agent = VmAgent::new(vm);
            let conf = agent
                .configure_hostlo_nic(ctx.vmm, &ep.mac, POD_LOCALHOST, HOSTLO_SUBNET)
                .ok_or_else(|| {
                    CniError::fatal(format!("agent cannot find hostlo endpoint {}", ep.mac))
                })?;
            queues.push(QueueBinding {
                container_idx: idx,
                vm,
                device: conf.attach.0,
                queue: conf.attach.1,
            });
            out.push(PodAttachment {
                container_idx: idx,
                vm,
                net: contd::ContainerNet {
                    ip: POD_LOCALHOST,
                    mac: conf.iface.mac,
                    attach: conf.attach,
                    iface: conf.iface,
                },
            });
        }
        Ok(CniOutcome::nominal(out).with_queues(queues))
    }

    /// Enforcement point: the host's hostlo TAP queues. The TAP's FORWARD
    /// hook sees every pod-localhost frame before the fan-out, so chains
    /// there constrain which ports the pod's fractions may open to each
    /// other even though the traffic never touches a bridge. Single-VM
    /// pods ride an in-VM loopback with no host enforcement point and
    /// install nothing.
    fn apply_policy(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        _attachments: &[PodAttachment],
        policy: &NetworkPolicy,
    ) -> Result<usize, CniError> {
        let Some(&h) = self.taps.get(&pod.name) else {
            return Ok(0);
        };
        let dev = ctx.vmm.hostlo_device(h);
        let ctl = ctx.vmm.hostlo_filter(h);
        let now = ctx.vmm.network().now();
        let mut installed = 0;
        // Every fraction answers on the shared pod-localhost address.
        for rule in policy.compile(POD_LOCALHOST) {
            ctx.vmm.network_mut().install_filter(dev, &ctl, rule, now);
            installed += 1;
        }
        Ok(installed)
    }
}

impl HostloCni {
    fn wire_same_node(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        vm: VmId,
    ) -> Result<CniOutcome, CniError> {
        let n = pod.containers.len();
        if n < 2 {
            return Err(CniError::fatal(
                "a 1-container pod has no intra-pod traffic to wire",
            ));
        }
        let costs = ctx.vmm.costs().clone();
        let station = ctx.vmm.guest_station(vm);
        let lo = ctx.vmm.network_mut().add_device(
            format!("pod{}-lo", self.pods_wired),
            metrics::CpuLocation::Vm(vm.0),
            Box::new(Loopback::new(n, costs.loopback, station)),
        );
        let mut out = Vec::with_capacity(n);
        let mut queues = Vec::with_capacity(n);
        for idx in 0..n {
            let mac = simnet::MacAddr::local(0x00E0_0000 + (self.pods_wired << 8) + idx as u32);
            let iface = simnet::IfaceConf::new(mac, POD_LOCALHOST, HOSTLO_SUBNET)
                .with_broadcast_unresolved();
            queues.push(QueueBinding {
                container_idx: idx,
                vm,
                device: lo,
                queue: simnet::PortId(idx),
            });
            out.push(PodAttachment {
                container_idx: idx,
                vm,
                net: contd::ContainerNet {
                    ip: POD_LOCALHOST,
                    mac,
                    attach: (lo, simnet::PortId(idx)),
                    iface,
                },
            });
        }
        Ok(CniOutcome::nominal(out).with_queues(queues))
    }
}

/// The placement capability Hostlo unlocks: spread a pod's containers over
/// several VMs round-robin (used by the fig. 10 experiments; the offline
/// cost-optimizing variant lives in `cloudsim`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadScheduler;

impl Scheduler for SpreadScheduler {
    fn place(&self, pod: &PodSpec, nodes: &[Node]) -> Result<Placement, SchedError> {
        if nodes.is_empty() {
            return Err(SchedError {
                reason: "no nodes".to_owned(),
            });
        }
        let mut free: Vec<_> = nodes.iter().map(Node::free).collect();
        let mut assignments = Vec::with_capacity(pod.containers.len());
        for (i, c) in pod.containers.iter().enumerate() {
            // Round-robin from the container index, first node with room.
            let chosen = (0..nodes.len())
                .map(|k| (i + k) % nodes.len())
                .find(|&n| c.resources.fits_in(free[n]))
                .ok_or_else(|| SchedError {
                    reason: format!("container {} fits on no node", c.name),
                })?;
            free[chosen] = contd::ResourceRequest::new(
                free[chosen].cpu_millis - c.resources.cpu_millis,
                free[chosen].memory_mib - c.resources.memory_mib,
            );
            assignments.push(NodeId(chosen));
        }
        Ok(Placement { assignments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contd::ContainerSpec;
    use std::collections::BTreeMap;
    use vmm::{VmSpec, Vmm};

    fn two_container_pod() -> PodSpec {
        PodSpec::new(
            "p",
            vec![
                ContainerSpec::new("a", "i:1"),
                ContainerSpec::new("b", "i:1"),
            ],
        )
    }

    #[test]
    fn cross_vm_pod_gets_hostlo_endpoints() {
        let mut vmm = Vmm::new(0);
        vmm.create_vm(VmSpec::paper_eval("vm0"));
        vmm.create_vm(VmSpec::paper_eval("vm1"));
        let mut engines = BTreeMap::new();
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let out = HostloCni::new()
            .setup(&mut ctx, &two_container_pod(), &[VmId(0), VmId(1)])
            .unwrap();
        // Every container's queue binding is reported in the outcome, on
        // distinct VMs.
        assert_eq!(out.queues.len(), 2);
        assert_ne!(out.queues[0].vm, out.queues[1].vm);
        let atts = out.attachments;
        assert_eq!(atts.len(), 2);
        // Both fractions share the pod-localhost address...
        assert_eq!(atts[0].net.ip, POD_LOCALHOST);
        assert_eq!(atts[1].net.ip, POD_LOCALHOST);
        // ...with distinct endpoint MACs on distinct VMs.
        assert_ne!(atts[0].net.mac, atts[1].net.mac);
        assert_ne!(atts[0].vm, atts[1].vm);
        // The endpoints resolve unresolved neighbors by broadcast.
        assert!(atts[0].net.iface.broadcast_unresolved);
    }

    #[test]
    fn single_vm_pod_gets_loopback() {
        let mut vmm = Vmm::new(0);
        vmm.create_vm(VmSpec::paper_eval("vm0"));
        let mut engines = BTreeMap::new();
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let out = HostloCni::new()
            .setup(&mut ctx, &two_container_pod(), &[VmId(0), VmId(0)])
            .unwrap();
        // Same loopback device, distinct queues — and the bindings say so.
        assert_eq!(out.queues.len(), 2);
        assert_eq!(out.queues[0].device, out.queues[1].device);
        assert_ne!(out.queues[0].queue, out.queues[1].queue);
        let atts = out.attachments;
        assert_eq!(atts.len(), 2);
        assert_eq!(atts[0].net.attach.0, atts[1].net.attach.0);
        assert_ne!(atts[0].net.attach.1, atts[1].net.attach.1);
        assert_eq!(atts[0].net.ip, POD_LOCALHOST);
    }

    #[test]
    fn spread_scheduler_uses_distinct_nodes() {
        let nodes: Vec<Node> = (0..2)
            .map(|i| Node::from_vm(VmId(i), &VmSpec::paper_eval(format!("vm{i}"))))
            .collect();
        let placement = SpreadScheduler.place(&two_container_pod(), &nodes).unwrap();
        assert_eq!(placement.nodes().len(), 2);
        assert!(!placement.is_single_node());
    }

    #[test]
    fn spread_scheduler_respects_capacity() {
        let mut nodes: Vec<Node> = (0..2)
            .map(|i| Node::from_vm(VmId(i), &VmSpec::paper_eval(format!("vm{i}"))))
            .collect();
        // Fill node 1 completely; both containers must land on node 0.
        nodes[1].allocate(contd::ResourceRequest::new(5000, 4096));
        let pod = PodSpec::new(
            "p",
            vec![
                ContainerSpec::new("a", "i:1").with_resources(contd::ResourceRequest::new(100, 64)),
                ContainerSpec::new("b", "i:1").with_resources(contd::ResourceRequest::new(100, 64)),
            ],
        );
        let placement = SpreadScheduler.place(&pod, &nodes).unwrap();
        assert_eq!(placement.nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn hostlo_rejects_two_containers_on_same_endpoint() {
        let mut vmm = Vmm::new(0);
        vmm.create_vm(VmSpec::paper_eval("vm0"));
        vmm.create_vm(VmSpec::paper_eval("vm1"));
        let pod = PodSpec::new(
            "p3",
            vec![
                ContainerSpec::new("a", "i:1"),
                ContainerSpec::new("b", "i:1"),
                ContainerSpec::new("c", "i:1"),
            ],
        );
        let mut engines = BTreeMap::new();
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let err = HostloCni::new()
            .setup(&mut ctx, &pod, &[VmId(0), VmId(1), VmId(0)])
            .unwrap_err();
        assert!(err.reason.contains("share VM"));
    }

    #[test]
    fn one_container_pod_has_nothing_to_wire() {
        let mut vmm = Vmm::new(0);
        vmm.create_vm(VmSpec::paper_eval("vm0"));
        let pod = PodSpec::new("p1", vec![ContainerSpec::new("a", "i:1")]);
        let mut engines = BTreeMap::new();
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let err = HostloCni::new()
            .setup(&mut ctx, &pod, &[VmId(0)])
            .unwrap_err();
        assert!(err.reason.contains("intra-pod"));
    }
}
