//! BrFusion: network virtualization de-duplication (§3).
//!
//! "Our solution revolves around the principle of giving each pod its own
//! NIC. Upon spawning the pod, a new NIC is provisioned by the VMM for the
//! target VM. This interface is exclusive to the pod, so it can be directly
//! inserted into the pod's network namespace, without the intermediary of
//! NAT, a bridge and another vNIC in the VM" (§3.1).
//!
//! The CNI plugin implements the four-step interaction of §3.1:
//! 1. ask the VMM (over the QMP side channel) for a new NIC on the chosen
//!    VM, naming the host-level networking domain (bridge);
//! 2. the VMM hot-plugs the NIC and wires its vhost backend to that bridge;
//! 3. the VMM returns the NIC's MAC address;
//! 4. the in-VM agent finds the NIC by MAC, configures it and hands it to
//!    the pod.
//!
//! Host-level configuration is "exactly the same as the current situation —
//! i.e. it includes NAT, at the host level": the plugin publishes the pod's
//! ports on the *host* NAT instead of a guest NAT.

use contd::{NodeDataplane, PortMapping};
use metrics::journal_name_hash;
use orchestrator::{
    ClusterCtx, CniError, CniOutcome, CniPlugin, CniStatus, NetworkPolicy, PodAttachment, PodSpec,
    RepairedPod, VmAgent,
};
use simnet::device::{DeviceId, PortId};
use simnet::filter::FilterControl;
use simnet::nat::{DnatRule, NatControl};
use simnet::{Ip4, Ip4Net, JournalKind, SimDuration, SimTime, SockAddr};
use std::collections::BTreeMap;
use vmm::{NicId, QmpCommand, QmpResponse, VmId, VmState};

/// True for management-channel failures worth retrying: a dead socket or a
/// crashed (restartable) VM, as opposed to a misconfiguration the VMM will
/// refuse forever.
pub(crate) fn transient_qmp_error(desc: &str) -> bool {
    desc.contains("unreachable") || desc.contains("injected") || desc.contains("crashed")
}

/// A container of a pod parked on the degraded (classic nested) path.
#[derive(Debug, Clone)]
struct DegradedContainer {
    idx: usize,
    vm: VmId,
    ports: Vec<PortMapping>,
}

/// A pod on the degraded path, waiting to be re-promoted to fused NICs.
#[derive(Debug, Clone)]
struct DegradedPod {
    pod: String,
    containers: Vec<DegradedContainer>,
    degraded_at: SimTime,
    attempts: u32,
    backoff: SimDuration,
    next_retry: SimTime,
}

/// A per-container fusing failure, split by whether retrying can help.
enum FuseErr {
    Transient(String),
    Fatal(String),
}

/// Filter chains installed at one enforcement point for one pod's policy.
#[derive(Debug, Clone)]
struct InstalledChains {
    dev: DeviceId,
    ctl: FilterControl,
    ids: Vec<u64>,
}

/// A NetworkPolicy the plugin enforces for one pod, with the chains it
/// currently has installed. The enforcement point follows the wiring:
/// host bridge while the pod runs on fused NICs, the fallback guest NAT
/// while it is parked on the nested path.
#[derive(Debug, Clone)]
struct AppliedPolicy {
    policy: NetworkPolicy,
    installed: Vec<InstalledChains>,
}

/// The BrFusion CNI plugin.
pub struct BrFusionCni {
    /// Host bridge (networking domain) pod NICs are plugged into.
    bridge: String,
    /// Subnet pod NICs live in (the host-level subnet).
    subnet: Ip4Net,
    /// Next host index to allocate for a pod NIC.
    next_host: u32,
    /// Host-level NAT administration handle: "the configuration is exactly
    /// the same [...] it includes NAT, at the host level".
    host_nat: NatControl,
    /// Host NAT port facing the bridge (where pod neighbors are learned).
    host_nat_bridge_port: PortId,
    /// docker0 capacity for lazily-built fallback dataplanes.
    fallback_bridge_capacity: usize,
    /// Host-subnet address given to each VM's fallback dataplane.
    fallback_vm_ip: BTreeMap<VmId, Ip4>,
    /// Pods currently on the degraded path, oldest first.
    degraded: Vec<DegradedPod>,
    /// Fault-handling counters reported through [`CniPlugin::status`].
    stats: CniStatus,
    /// Re-promotions accumulated for [`CniPlugin::drain_repaired`].
    repaired: Vec<RepairedPod>,
    /// NetworkPolicies enforced per pod name; chains migrate with the
    /// pod's wiring (bridge <-> fallback guest NAT).
    policies: BTreeMap<String, AppliedPolicy>,
}

impl BrFusionCni {
    /// Creates the plugin.
    ///
    /// * `bridge` — host bridge name passed to the VMM in `netdev_add`;
    /// * `subnet` — the host-level subnet to allocate pod addresses from;
    /// * `first_host` — first host index handed to a pod;
    /// * `host_nat` — the host NAT's control handle;
    /// * `host_nat_bridge_port` — the host NAT interface on the bridge side.
    pub fn new(
        bridge: impl Into<String>,
        subnet: Ip4Net,
        first_host: u32,
        host_nat: NatControl,
        host_nat_bridge_port: PortId,
    ) -> BrFusionCni {
        BrFusionCni {
            bridge: bridge.into(),
            subnet,
            next_host: first_host,
            host_nat,
            host_nat_bridge_port,
            fallback_bridge_capacity: 16,
            fallback_vm_ip: BTreeMap::new(),
            degraded: Vec::new(),
            stats: CniStatus::default(),
            repaired: Vec::new(),
            policies: BTreeMap::new(),
        }
    }

    /// Backoff before the first re-promotion attempt; doubles per retry.
    pub const REPROMOTE_BACKOFF: SimDuration = SimDuration::millis(50);

    /// Re-promotion attempts per degraded pod before giving up on it.
    pub const MAX_REPROMOTE_ATTEMPTS: u32 = 6;

    /// Allocates the next pod IP.
    fn alloc_ip(&mut self) -> Ip4 {
        let ip = self.subnet.host(self.next_host);
        self.next_host += 1;
        ip
    }

    /// Hot-plugs, configures and publishes one fused pod NIC. Shared by
    /// first-try setup and re-promotion; existing publications of the same
    /// ports are replaced (re-promotion points them away from the VM).
    fn fuse_container(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        vm: VmId,
        idx: usize,
        ports: &[PortMapping],
    ) -> Result<(PodAttachment, NicId), FuseErr> {
        // Step 1-2: ask the VMM for a NIC on the pod's networking domain.
        let resp = ctx.vmm.qmp(QmpCommand::NetdevAdd {
            vm: vm.0,
            bridge: self.bridge.clone(),
            coalesce: true,
        });
        // Step 3: the VMM answers with the NIC identifier (MAC).
        let nic = match resp {
            QmpResponse::NicAdded(nic) => nic,
            QmpResponse::Error { ref desc } if transient_qmp_error(desc) => {
                return Err(FuseErr::Transient(format!(
                    "VMM refused netdev_add: {desc}"
                )))
            }
            resp => return Err(FuseErr::Fatal(format!("VMM refused netdev_add: {resp:?}"))),
        };
        // Step 4: the VM agent configures the NIC inside the VM and gives
        // it to the pod.
        let ip = self.alloc_ip();
        let agent = VmAgent::new(vm);
        let conf = agent
            .configure_pod_nic(ctx.vmm, &nic.mac, ip, self.subnet)
            .ok_or_else(|| FuseErr::Fatal(format!("agent cannot find NIC {}", nic.mac)))?;

        // Host-level NAT keeps its usual role: publish the pod's ports and
        // learn the pod as a neighbor on the bridge.
        let mac = conf.iface.mac;
        self.host_nat.add_neigh(self.host_nat_bridge_port, ip, mac);
        for pm in ports {
            self.host_nat.remove_dnat(pm.proto, pm.host_port);
            self.host_nat.add_dnat(DnatRule {
                proto: pm.proto,
                match_ip: None,
                match_port: pm.host_port,
                to: SockAddr::new(ip, pm.container_port),
            });
        }

        // The pod routes outbound traffic via the host NAT.
        let gw_ip = self.host_nat.iface_ip(self.host_nat_bridge_port);
        let gw_mac = self.host_nat.iface_mac(self.host_nat_bridge_port);
        let iface = conf.iface.with_gateway(gw_ip, gw_mac);

        Ok((
            PodAttachment {
                container_idx: idx,
                vm,
                net: contd::ContainerNet {
                    ip,
                    mac,
                    attach: conf.attach,
                    iface,
                },
            },
            NicId(nic.nic),
        ))
    }

    /// Builds (once per VM) the classic bridge+NAT dataplane behind the
    /// VM's boot NIC, for pods that cannot get a fused NIC right now.
    fn ensure_fallback_dataplane(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        vm: VmId,
    ) -> Result<(), CniError> {
        let engine = ctx
            .engines
            .get(&vm)
            .ok_or_else(|| CniError::fatal(format!("no container engine on {vm:?}")))?;
        if engine.dataplane().is_some() {
            if !self.fallback_vm_ip.contains_key(&vm) {
                return Err(CniError::fatal(format!(
                    "{vm:?} runs a foreign default dataplane"
                )));
            }
            return Ok(());
        }
        // The boot (non-hot-plugged) NIC anchors the nested path.
        let eth0 = ctx
            .vmm
            .vm(vm)
            .nics
            .iter()
            .find(|n| n.active && !n.hot_plugged && !n.hostlo)
            .map(|n| vmm::NicInfo {
                nic: n.id,
                vm,
                mac: n.mac,
                guest_attach: n.guest_attach,
                vhost: n.vhost,
            })
            .ok_or_else(|| {
                CniError::retryable(format!("{vm:?} has no boot NIC for the nested fallback"))
            })?;
        let vm_ip = self.alloc_ip();
        let dp = NodeDataplane::new(
            ctx.vmm,
            vm,
            &eth0,
            vm_ip,
            self.subnet,
            self.fallback_bridge_capacity,
        );
        let gw_ip = self.host_nat.iface_ip(self.host_nat_bridge_port);
        let gw_mac = self.host_nat.iface_mac(self.host_nat_bridge_port);
        dp.set_default_route(gw_ip, gw_mac);
        self.host_nat
            .add_neigh(self.host_nat_bridge_port, vm_ip, dp.vm_mac);
        ctx.engines
            .get_mut(&vm)
            .expect("presence checked above")
            .install_dataplane(dp);
        self.fallback_vm_ip.insert(vm, vm_ip);
        Ok(())
    }

    /// Wires the whole pod through the classic nested path (fig. 1's
    /// bridge+NAT inside the VM, double NAT to the outside) and parks it
    /// for re-promotion.
    fn fallback(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        placement: &[VmId],
        reason: String,
    ) -> Result<CniOutcome, CniError> {
        let now = ctx.vmm.network().now();
        let mut out = Vec::with_capacity(pod.containers.len());
        let mut containers = Vec::with_capacity(pod.containers.len());
        for (idx, c) in pod.containers.iter().enumerate() {
            let vm = placement[idx];
            if ctx.vmm.vm(vm).state != VmState::Running {
                return Err(CniError::retryable(format!("{vm:?} is not running")));
            }
            self.ensure_fallback_dataplane(ctx, vm)?;
            let vm_ip = self.fallback_vm_ip[&vm];
            let engine = ctx.engines.get_mut(&vm).expect("dataplane ensured");
            let dp = engine.dataplane_mut().expect("dataplane ensured");
            let net = dp.attach_container(ctx.vmm, &c.name, &c.ports);
            // Publish on the host NAT towards the VM: the guest NAT's own
            // DNAT (installed by attach_container) finishes the job.
            for pm in &c.ports {
                self.host_nat.remove_dnat(pm.proto, pm.host_port);
                self.host_nat.add_dnat(DnatRule {
                    proto: pm.proto,
                    match_ip: None,
                    match_port: pm.host_port,
                    to: SockAddr::new(vm_ip, pm.host_port),
                });
            }
            containers.push(DegradedContainer {
                idx,
                vm,
                ports: c.ports.clone(),
            });
            out.push(PodAttachment {
                container_idx: idx,
                vm,
                net,
            });
        }
        self.stats.fallbacks += 1;
        self.stats.fallback_reasons.push(reason.clone());
        self.stats.degraded_pods += 1;
        ctx.vmm.network_mut().journal_external(
            JournalKind::CniDegrade,
            journal_name_hash(&pod.name),
            pod.containers.len() as u64,
            0,
        );
        self.degraded.push(DegradedPod {
            pod: pod.name.clone(),
            containers,
            degraded_at: now,
            attempts: 0,
            backoff: Self::REPROMOTE_BACKOFF,
            next_retry: now + Self::REPROMOTE_BACKOFF,
        });
        // Chain migration: a pod under a NetworkPolicy stays isolated on
        // the double-NAT path — the chains move to the fallback guest NAT
        // (the bridge no longer sees frames addressed to the pod).
        if self.policies.contains_key(&pod.name) {
            let targets: Vec<(VmId, Ip4)> = out.iter().map(|a| (a.vm, a.net.ip)).collect();
            self.enforce_policy(ctx, &pod.name, &targets, true)?;
        }
        Ok(CniOutcome::degraded(out, reason))
    }

    /// One re-promotion attempt for a degraded pod: hot-plug a fused NIC
    /// per container and move the publications over. On any failure the
    /// attempt unwinds (NICs unplugged, publications re-pointed at the VM)
    /// and the pod stays degraded.
    fn try_repromote(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        dp: &DegradedPod,
    ) -> Result<Vec<PodAttachment>, FuseErr> {
        let mut atts = Vec::with_capacity(dp.containers.len());
        let mut plugged: Vec<(VmId, NicId)> = Vec::new();
        for c in &dp.containers {
            match self.fuse_container(ctx, c.vm, c.idx, &c.ports) {
                Ok((att, nic)) => {
                    plugged.push((c.vm, nic));
                    atts.push(att);
                }
                Err(e) => {
                    for &(vm, nic) in &plugged {
                        ctx.vmm.detach_nic(vm, nic);
                    }
                    for c2 in &dp.containers {
                        let Some(&vm_ip) = self.fallback_vm_ip.get(&c2.vm) else {
                            continue;
                        };
                        for pm in &c2.ports {
                            self.host_nat.remove_dnat(pm.proto, pm.host_port);
                            self.host_nat.add_dnat(DnatRule {
                                proto: pm.proto,
                                match_ip: None,
                                match_port: pm.host_port,
                                to: SockAddr::new(vm_ip, pm.host_port),
                            });
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(atts)
    }

    /// Closes every rule window currently installed for `pod` (at the
    /// present sim time; verdicts already rendered are unaffected). The
    /// stored policy stays — the next [`BrFusionCni::enforce_policy`]
    /// recompiles it at the pod's new enforcement point.
    fn retract_chains(&mut self, ctx: &mut ClusterCtx<'_>, pod: &str) {
        let Some(ap) = self.policies.get_mut(pod) else {
            return;
        };
        let now = ctx.vmm.network().now();
        for chains in ap.installed.drain(..) {
            for id in chains.ids {
                ctx.vmm
                    .network_mut()
                    .remove_filter(chains.dev, &chains.ctl, id, now);
            }
        }
    }

    /// Compiles `policy` for each pod address in `ips` onto one device's
    /// FORWARD table, journaling every install.
    fn install_chains(
        ctx: &mut ClusterCtx<'_>,
        dev: DeviceId,
        ctl: &FilterControl,
        policy: &NetworkPolicy,
        ips: &[Ip4],
    ) -> InstalledChains {
        let now = ctx.vmm.network().now();
        let mut ids = Vec::new();
        for &ip in ips {
            for rule in policy.compile(ip) {
                ids.push(ctx.vmm.network_mut().install_filter(dev, ctl, rule, now));
            }
        }
        InstalledChains {
            dev,
            ctl: ctl.clone(),
            ids,
        }
    }

    /// (Re-)installs the stored policy for `pod` at the enforcement point
    /// implied by its current wiring: the host bridge for fused NICs, or
    /// each VM's fallback guest NAT while `degraded`. `targets` pairs
    /// every container address with its VM. No-op when the pod has no
    /// stored policy.
    fn enforce_policy(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &str,
        targets: &[(VmId, Ip4)],
        degraded: bool,
    ) -> Result<usize, CniError> {
        let Some(policy) = self.policies.get(pod).map(|ap| ap.policy.clone()) else {
            return Ok(0);
        };
        self.retract_chains(ctx, pod);
        let mut installed = Vec::new();
        if degraded {
            // The nested path DNATs twice; the fallback guest NAT's
            // FORWARD hook runs post-DNAT, so frames there carry the
            // container socket the policy talks about.
            for &(vm, ip) in targets {
                let engine = ctx.engines.get(&vm).ok_or_else(|| {
                    CniError::fatal(format!("no container engine on {vm:?} for policy"))
                })?;
                let dp = engine.dataplane().ok_or_else(|| {
                    CniError::fatal(format!("no fallback dataplane on {vm:?} for policy"))
                })?;
                let (dev, ctl) = (dp.nat, dp.nat_filter.clone());
                installed.push(Self::install_chains(ctx, dev, &ctl, &policy, &[ip]));
            }
        } else {
            // Fused NICs hang directly off the host bridge, which sees
            // post-DNAT frames addressed to the pod itself.
            let br = ctx
                .vmm
                .bridge_by_name(&self.bridge)
                .ok_or_else(|| CniError::fatal(format!("no such bridge: {}", self.bridge)))?;
            let dev = ctx.vmm.bridge_device(br);
            let ctl = ctx.vmm.bridge_filter(br);
            let ips: Vec<Ip4> = targets.iter().map(|&(_, ip)| ip).collect();
            installed.push(Self::install_chains(ctx, dev, &ctl, &policy, &ips));
        }
        let count = installed.iter().map(|c| c.ids.len()).sum();
        self.policies.get_mut(pod).expect("stored above").installed = installed;
        Ok(count)
    }
}

impl CniPlugin for BrFusionCni {
    fn name(&self) -> &str {
        "brfusion"
    }

    fn setup(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        placement: &[VmId],
    ) -> Result<CniOutcome, CniError> {
        // BrFusion de-duplicates the stack on one VM; cross-VM pods are
        // Hostlo's job.
        let first = placement
            .first()
            .ok_or_else(|| CniError::fatal("empty placement"))?;
        if placement.iter().any(|vm| vm != first) {
            return Err(CniError::fatal(
                "BrFusion wires per-VM pods; use Hostlo for cross-VM",
            ));
        }

        let mut out = Vec::with_capacity(pod.containers.len());
        let mut plugged: Vec<(VmId, NicId)> = Vec::new();
        for (idx, c) in pod.containers.iter().enumerate() {
            let vm = placement[idx];
            match self.fuse_container(ctx, vm, idx, &c.ports) {
                Ok((att, nic)) => {
                    plugged.push((vm, nic));
                    out.push(att);
                }
                // A transient management-channel fault: unwind whatever was
                // fused for this pod and wire it all through the classic
                // nested path instead (graceful degraded mode).
                Err(FuseErr::Transient(reason)) => {
                    for &(pvm, nic) in &plugged {
                        ctx.vmm.detach_nic(pvm, nic);
                    }
                    return self.fallback(ctx, pod, placement, reason);
                }
                Err(FuseErr::Fatal(reason)) => return Err(CniError::fatal(reason)),
            }
        }
        Ok(CniOutcome::nominal(out))
    }

    fn maintain(&mut self, ctx: &mut ClusterCtx<'_>) -> usize {
        let now = ctx.vmm.network().now();
        let mut repromoted = 0;
        let mut still = Vec::new();
        for mut pod in std::mem::take(&mut self.degraded) {
            if now < pod.next_retry {
                still.push(pod);
                continue;
            }
            let pod_id = journal_name_hash(&pod.pod);
            match self.try_repromote(ctx, &pod) {
                Ok(atts) => {
                    // Chain migration back: enforcement returns to the
                    // host bridge, recompiled for the pod's new addresses.
                    let targets: Vec<(VmId, Ip4)> = atts.iter().map(|a| (a.vm, a.net.ip)).collect();
                    self.enforce_policy(ctx, &pod.pod, &targets, false)
                        .expect("bridge exists after a successful re-promotion");
                    repromoted += 1;
                    self.stats.repromotions += 1;
                    let dwell = now.since(pod.degraded_at).as_nanos();
                    self.stats.repromotion_latency_ns.push(dwell);
                    let net = ctx.vmm.network_mut();
                    net.journal_external(JournalKind::CniRepair, pod_id, 1, 0);
                    net.journal_external(JournalKind::CniRepromote, pod_id, dwell, 0);
                    self.repaired.push(RepairedPod {
                        pod: pod.pod.clone(),
                        outcome: CniOutcome::nominal(atts),
                    });
                }
                Err(FuseErr::Transient(_)) => {
                    ctx.vmm
                        .network_mut()
                        .journal_external(JournalKind::CniRepair, pod_id, 0, 0);
                    pod.attempts += 1;
                    if pod.attempts >= Self::MAX_REPROMOTE_ATTEMPTS {
                        self.stats.abandoned += 1;
                    } else {
                        pod.backoff = pod.backoff.saturating_mul(2);
                        pod.next_retry = now + pod.backoff;
                        still.push(pod);
                    }
                }
                Err(FuseErr::Fatal(_)) => {
                    ctx.vmm
                        .network_mut()
                        .journal_external(JournalKind::CniRepair, pod_id, 0, 0);
                    self.stats.abandoned += 1;
                }
            }
        }
        self.degraded = still;
        self.stats.degraded_pods = self.degraded.len();
        repromoted
    }

    fn status(&self) -> CniStatus {
        CniStatus {
            degraded_pods: self.degraded.len(),
            ..self.stats.clone()
        }
    }

    fn drain_repaired(&mut self) -> Vec<RepairedPod> {
        std::mem::take(&mut self.repaired)
    }

    /// Enforcement point: the host bridge the fused NICs hang off — so
    /// the de-duplicated dataplane stays policy-covered. While the pod is
    /// parked on the degraded nested path the chains live on the fallback
    /// guest NAT instead, and they migrate back on re-promotion.
    fn apply_policy(
        &mut self,
        ctx: &mut ClusterCtx<'_>,
        pod: &PodSpec,
        attachments: &[PodAttachment],
        policy: &NetworkPolicy,
    ) -> Result<usize, CniError> {
        // Replace any earlier policy for the pod.
        self.retract_chains(ctx, &pod.name);
        self.policies.insert(
            pod.name.clone(),
            AppliedPolicy {
                policy: policy.clone(),
                installed: Vec::new(),
            },
        );
        let degraded = self.degraded.iter().any(|d| d.pod == pod.name);
        let targets: Vec<(VmId, Ip4)> = attachments.iter().map(|a| (a.vm, a.net.ip)).collect();
        self.enforce_policy(ctx, &pod.name, &targets, degraded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contd::ContainerSpec;
    use simnet::nat::{Interface, NatRouter, Proto};
    use simnet::shared::SharedStation;
    use std::collections::BTreeMap;
    use vmm::{VmSpec, Vmm};

    fn testbed() -> (Vmm, NatControl, BrFusionCni) {
        let mut vmm = Vmm::new(0);
        let br = vmm.create_bridge("br0", 16);
        let subnet = Ip4Net::new(Ip4::new(192, 168, 0, 0), 24);
        // Host NAT: port 0 towards the external client, port 1 on the bridge.
        let costs = vmm.costs().clone();
        let host_station = vmm.host_station();
        let router = NatRouter::new(
            vec![
                Interface::new(
                    simnet::MacAddr::local(900),
                    Ip4::new(10, 99, 0, 1),
                    Ip4Net::new(Ip4::new(10, 99, 0, 0), 24),
                ),
                Interface::new(simnet::MacAddr::local(901), subnet.host(1), subnet),
            ],
            costs.host_nat,
            host_station,
        );
        let ctl = router.control();
        let nat_dev =
            vmm.network_mut()
                .add_device("host-nat", metrics::CpuLocation::Host, Box::new(router));
        // The NAT serves on the shared host station: co-shard it with the
        // bridges for sharded runs.
        vmm.bind_host_station_user(nat_dev);
        let (br_dev, br_port) = vmm.alloc_bridge_port(br);
        vmm.network_mut()
            .connect(nat_dev, PortId(1), br_dev, br_port, Default::default());

        vmm.create_vm(VmSpec::paper_eval("vm0"));
        let cni = BrFusionCni::new("br0", subnet, 50, ctl.clone(), PortId(1));
        (vmm, ctl, cni)
    }

    fn pod() -> PodSpec {
        PodSpec::new(
            "p",
            vec![ContainerSpec::new("srv", "app:1").with_port(Proto::Udp, 7000, 7000)],
        )
    }

    #[test]
    fn brfusion_hot_plugs_and_configures() {
        let (mut vmm, ctl, mut cni) = testbed();
        let mut engines = BTreeMap::new();
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let out = cni.setup(&mut ctx, &pod(), &[VmId(0)]).unwrap();
        assert!(out.health.is_nominal());
        let atts = out.attachments;
        assert_eq!(atts.len(), 1);
        let a = &atts[0];
        // Pod IP from the host subnet.
        assert_eq!(a.net.ip, Ip4::new(192, 168, 0, 50));
        // The NIC is hot-plugged on the VM.
        let nic = vmm.vm(VmId(0)).nic_by_mac(a.net.mac).expect("NIC exists");
        assert!(nic.hot_plugged);
        // DNAT published at the host level.
        assert_eq!(ctl.dnat_len(), 1);
        // No guest bridge / NAT devices were created for this pod: count
        // devices named like the guest dataplane.
        let names: Vec<String> = (0..vmm.network().device_count())
            .map(|i| vmm.network().device_name(simnet::DeviceId(i)).to_owned())
            .collect();
        assert!(!names
            .iter()
            .any(|n| n.contains("docker0") || n.contains("/nat")));
        let _ = SharedStation::new();
    }

    #[test]
    fn brfusion_allocates_distinct_ips() {
        let (mut vmm, _ctl, mut cni) = testbed();
        let mut engines = BTreeMap::new();
        let two = PodSpec::new(
            "p2",
            vec![
                ContainerSpec::new("a", "i:1"),
                ContainerSpec::new("b", "i:1"),
            ],
        );
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let atts = cni
            .setup(&mut ctx, &two, &[VmId(0), VmId(0)])
            .unwrap()
            .attachments;
        assert_ne!(atts[0].net.ip, atts[1].net.ip);
        assert_ne!(atts[0].net.mac, atts[1].net.mac);
    }

    #[test]
    fn brfusion_rejects_cross_vm() {
        let (mut vmm, _ctl, mut cni) = testbed();
        vmm.create_vm(VmSpec::paper_eval("vm1"));
        let mut engines = BTreeMap::new();
        let two = PodSpec::new(
            "p2",
            vec![
                ContainerSpec::new("a", "i:1"),
                ContainerSpec::new("b", "i:1"),
            ],
        );
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let err = cni.setup(&mut ctx, &two, &[VmId(0), VmId(1)]).unwrap_err();
        assert!(err.reason.contains("Hostlo"));
    }

    #[test]
    fn brfusion_unknown_bridge_fails_cleanly() {
        let (mut vmm, ctl, _) = testbed();
        let mut cni = BrFusionCni::new(
            "ghost",
            Ip4Net::new(Ip4::new(192, 168, 0, 0), 24),
            50,
            ctl,
            PortId(1),
        );
        let mut engines = BTreeMap::new();
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        let err = cni.setup(&mut ctx, &pod(), &[VmId(0)]).unwrap_err();
        assert!(err.reason.contains("netdev_add"));
    }
}
