//! Experiment topologies.
//!
//! One builder per evaluated configuration:
//!
//! * server-behind-VM setups of figs. 2/4–8 — [`Config::Nat`] (vanilla
//!   nested virtualization), [`Config::NoCont`] (no containerization, the
//!   performance target) and [`Config::BrFusion`];
//! * container-to-container setups of figs. 10–15 — [`Config::SameNode`]
//!   (pod-local loopback, the baseline), [`Config::Hostlo`],
//!   [`Config::NatCross`] and [`Config::Overlay`].
//!
//! A [`Testbed`] owns the VMM and exposes two [`Slot`]s (client, server)
//! where workloads install their [`Application`]s.

use crate::brfusion::BrFusionCni;
use crate::hostlo::{HostloCni, POD_LOCALHOST};
use contd::{ContainerSpec, NodeDataplane};
use metrics::CpuLocation;
use orchestrator::{ClusterCtx, CniPlugin, PodSpec};
use simnet::device::{DeviceId, PortId};
use simnet::endpoint::{Application, Endpoint, IfaceConf, START_TOKEN};
use simnet::engine::LinkParams;
use simnet::nat::{Interface, NatRouter, Proto};
use simnet::shared::SharedStation;
use simnet::{Ip4, Ip4Net, MacAddr, SockAddr};
use std::collections::BTreeMap;
use vmm::{VmId, VmSpec, Vmm};

/// The host-bridge subnet of the testbed.
pub const HOST_NET: Ip4Net = Ip4Net {
    addr: Ip4(0xC0A8_0000),
    prefix: 24,
}; // 192.168.0.0/24
/// The external client subnet behind the host NAT.
pub const CLIENT_NET: Ip4Net = Ip4Net {
    addr: Ip4(0x0A63_0000),
    prefix: 24,
}; // 10.99.0.0/24

/// The port every benchmark server binds.
pub const SERVER_PORT: u16 = 7000;
/// The port every benchmark client binds.
pub const CLIENT_PORT: u16 = 7001;

/// The evaluated network configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Config {
    /// Vanilla nested virtualization: container behind guest bridge+NAT.
    Nat,
    /// No containerization: the application runs natively in the VM.
    NoCont,
    /// BrFusion: per-pod hot-plugged NIC on the host bridge.
    BrFusion,
    /// Both containers of the pod in one VM, talking over the pod loopback.
    SameNode,
    /// Pod spread over two VMs, talking over a hostlo TAP.
    Hostlo,
    /// Pod spread over two VMs, talking through both guest NATs.
    NatCross,
    /// Pod spread over two VMs, talking over a VXLAN overlay.
    Overlay,
}

impl Config {
    /// All configurations, in the paper's presentation order.
    pub const ALL: [Config; 7] = [
        Config::Nat,
        Config::NoCont,
        Config::BrFusion,
        Config::SameNode,
        Config::Hostlo,
        Config::NatCross,
        Config::Overlay,
    ];

    /// Display label as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Config::Nat => "NAT",
            Config::NoCont => "NoCont",
            Config::BrFusion => "BrFusion",
            Config::SameNode => "SameNode",
            Config::Hostlo => "Hostlo",
            Config::NatCross => "NAT",
            Config::Overlay => "Overlay",
        }
    }
}

/// A place to install a workload endpoint.
#[derive(Debug, Clone)]
pub struct Slot {
    /// Free device port to connect the endpoint to.
    pub attach: (DeviceId, PortId),
    /// Interface configuration for the endpoint.
    pub iface: IfaceConf,
    /// CPU location of the endpoint (host or VM).
    pub loc: CpuLocation,
    /// Service station for the endpoint's socket work (its own core).
    pub station: SharedStation,
}

/// A built experiment topology.
pub struct Testbed {
    /// The VMM owning the network.
    pub vmm: Vmm,
    /// Loss probability applied to endpoint attachment links.
    pub endpoint_link_loss: f64,
    /// Where the benchmark client goes.
    pub client: Slot,
    /// Where the benchmark server goes.
    pub server: Slot,
    /// The address the client sends requests to.
    pub target: SockAddr,
    /// The configuration this testbed implements.
    pub config: Config,
    /// The server-side VM (for CPU breakdowns), if any.
    pub server_vm: Option<VmId>,
    /// The client-side VM, if any.
    pub client_vm: Option<VmId>,
}

impl Testbed {
    /// Installs an application endpoint in a slot and returns its device id.
    pub fn install(
        &mut self,
        name: &str,
        slot: &Slot,
        bound: impl IntoIterator<Item = u16>,
        app: Box<dyn Application>,
    ) -> DeviceId {
        let sock_cost = self.vmm.costs().socket;
        let ep = Endpoint::new(
            name,
            vec![slot.iface.clone()],
            bound,
            sock_cost,
            slot.station.clone(),
            app,
        );
        let id = self
            .vmm
            .network_mut()
            .add_device(name, slot.loc, Box::new(ep));
        self.vmm.network_mut().connect(
            id,
            PortId::P0,
            slot.attach.0,
            slot.attach.1,
            LinkParams::default().with_loss(self.endpoint_link_loss),
        );
        id
    }

    /// Models vCPU oversubscription for thread-heavy workloads: when both
    /// benchmark processes run in the *same* VM (the `SameNode` setup),
    /// their threads contend for the VM's 5 vCPUs, so their app work
    /// serializes on a shared station. Call before `install` for workloads
    /// whose driver+server thread count exceeds the VM size (memtier's
    /// 4x50 connections, §5.3.3's "extreme variability" on SameNode);
    /// single-stream micro-benchmarks fit comfortably and skip this.
    pub fn share_app_station_if_colocated(&mut self) {
        if self.client_vm.is_some() && self.client_vm == self.server_vm {
            self.client.station = self.server.station.clone();
        }
    }

    /// Schedules the start timers of installed endpoints (servers first by
    /// passing them earlier).
    pub fn start(&mut self, devices: &[DeviceId]) {
        for &d in devices {
            self.vmm
                .network_mut()
                .schedule_timer(simnet::SimDuration::ZERO, d, START_TOKEN);
        }
    }
}

/// Tunables for ablation studies; [`BuildOpts::default`] reproduces the
/// paper's configuration.
#[derive(Debug, Clone)]
pub struct BuildOpts {
    /// Stage cost model (swap for ablations).
    pub costs: simnet::CostModel,
    /// Notification suppression on VM primary NICs (virtio default: on).
    pub suppression_primary: bool,
    /// Hostlo TAP fan-out mode (paper: broadcast to all queues).
    pub hostlo_fanout: vmm::FanoutMode,
    /// Frame-loss probability injected on the endpoint attachment links
    /// (failure injection; 0 = healthy).
    pub endpoint_link_loss: f64,
}

impl Default for BuildOpts {
    fn default() -> Self {
        BuildOpts {
            costs: simnet::CostModel::calibrated(),
            suppression_primary: true,
            hostlo_fanout: vmm::FanoutMode::AllQueues,
            endpoint_link_loss: 0.0,
        }
    }
}

/// Builds the testbed for `config`, seeding all randomness with `seed`.
pub fn build(config: Config, seed: u64) -> Testbed {
    build_with(config, seed, &BuildOpts::default())
}

/// Builds the testbed with explicit ablation options, at the fidelity
/// the `SIMNET_FIDELITY` override names (packet when unset).
pub fn build_with(config: Config, seed: u64, opts: &BuildOpts) -> Testbed {
    let mut tb = build_inner(config, seed, opts);
    tb.endpoint_link_loss = opts.endpoint_link_loss;
    if let Some(f) = simnet::config::fidelity_from_env() {
        tb.vmm.network_mut().set_fidelity(f);
    }
    tb
}

fn build_inner(config: Config, seed: u64, opts: &BuildOpts) -> Testbed {
    match config {
        Config::Nat => build_nat(seed, opts),
        Config::NoCont => build_nocont(seed, opts),
        Config::BrFusion => build_brfusion(seed, opts),
        Config::SameNode => build_same_node(seed, opts),
        Config::Hostlo => build_hostlo(seed, opts),
        Config::NatCross => build_nat_cross(seed, opts),
        Config::Overlay => build_overlay(seed, opts),
    }
}

fn mk_vmm(seed: u64, opts: &BuildOpts) -> Vmm {
    Vmm::with_costs(seed, opts.costs.clone(), vmm::HostSpec::default())
}

/// Host side shared by the server-behind-VM configurations: bridge, host
/// NAT, external client slot.
struct HostSide {
    vmm: Vmm,
    bridge: vmm::BridgeHandle,
    host_nat_ctl: simnet::nat::NatControl,
    client: Slot,
}

const CLIENT_IP_HOST: u32 = 100;

fn build_host_side(seed: u64, opts: &BuildOpts) -> HostSide {
    let mut vmm = mk_vmm(seed, opts);
    let bridge = vmm.create_bridge("br0", 16);

    let client_ip = CLIENT_NET.host(CLIENT_IP_HOST);
    let client_mac = MacAddr::local(0x00F0_0000);
    let nat_ext_mac = MacAddr::local(0x00F0_0001);
    let nat_br_mac = MacAddr::local(0x00F0_0002);

    // Host NAT: port 0 towards the client, port 1 on the bridge.
    let router = NatRouter::new(
        vec![
            Interface::new(nat_ext_mac, CLIENT_NET.host(1), CLIENT_NET)
                .with_neigh(client_ip, client_mac),
            Interface::new(nat_br_mac, HOST_NET.host(1), HOST_NET),
        ],
        vmm.costs().host_nat,
        // RSS/RPS steers Netfilter processing to its own host core,
        // separate from the bridge-forwarding softirq.
        SharedStation::new(),
    );
    let host_nat_ctl = router.control();
    host_nat_ctl.masquerade_on(PortId(1));
    let host_nat = vmm
        .network_mut()
        .add_device("host-nat", CpuLocation::Host, Box::new(router));
    let (br_dev, br_port) = vmm.alloc_bridge_port(bridge);
    let link = LinkParams::with_latency(vmm.costs().link_latency);
    vmm.network_mut()
        .connect(host_nat, PortId(1), br_dev, br_port, link);

    let client = Slot {
        attach: (host_nat, PortId(0)),
        iface: IfaceConf::new(client_mac, client_ip, CLIENT_NET)
            .with_gateway(CLIENT_NET.host(1), nat_ext_mac),
        loc: CpuLocation::Host,
        // "The client runs on different CPUs of the physical host" (§5.1).
        station: SharedStation::new(),
    };
    HostSide {
        vmm,
        bridge,
        host_nat_ctl,
        client,
    }
}

fn vm_ip(i: u32) -> Ip4 {
    HOST_NET.host(10 + i)
}

fn build_nocont(seed: u64, opts: &BuildOpts) -> Testbed {
    let mut hs = build_host_side(seed, opts);
    let vm = hs.vmm.create_vm(VmSpec::paper_eval("vm0"));
    let eth0 = hs
        .vmm
        .add_nic(vm, hs.bridge, opts.suppression_primary, false);
    let ip = vm_ip(0);

    // The server endpoint *is* the guest stack's owner of eth0.
    hs.host_nat_ctl.add_neigh(PortId(1), ip, eth0.mac);
    let server = Slot {
        attach: eth0.guest_attach,
        iface: IfaceConf::new(eth0.mac, ip, HOST_NET)
            .with_gateway(HOST_NET.host(1), hs.host_nat_ctl.iface_mac(PortId(1))),
        loc: CpuLocation::Vm(vm.0),
        station: SharedStation::new(), // the app's own vCPU
    };
    Testbed {
        endpoint_link_loss: 0.0,
        vmm: hs.vmm,
        client: hs.client,
        server,
        target: SockAddr::new(ip, SERVER_PORT),
        config: Config::NoCont,
        server_vm: Some(vm),
        client_vm: None,
    }
}

fn build_nat(seed: u64, opts: &BuildOpts) -> Testbed {
    let mut hs = build_host_side(seed, opts);
    let vm = hs.vmm.create_vm(VmSpec::paper_eval("vm0"));
    let eth0 = hs
        .vmm
        .add_nic(vm, hs.bridge, opts.suppression_primary, false);
    let ip = vm_ip(0);

    let mut dp = NodeDataplane::new(&mut hs.vmm, vm, &eth0, ip, HOST_NET, 8);
    // Publish the server port on the VM address (Docker `-p`), both protos.
    let cn = dp.attach_container(
        &mut hs.vmm,
        "server",
        &[
            contd::PortMapping {
                proto: Proto::Udp,
                host_port: SERVER_PORT,
                container_port: SERVER_PORT,
            },
            contd::PortMapping {
                proto: Proto::Tcp,
                host_port: SERVER_PORT,
                container_port: SERVER_PORT,
            },
        ],
    );
    // Mutual neighbor knowledge across the host bridge.
    hs.host_nat_ctl.add_neigh(PortId(1), ip, dp.vm_mac);
    dp.add_external_neighbor(HOST_NET.host(1), hs.host_nat_ctl.iface_mac(PortId(1)));
    dp.set_default_route(HOST_NET.host(1), hs.host_nat_ctl.iface_mac(PortId(1)));

    let server = Slot {
        attach: cn.attach,
        iface: cn.iface,
        loc: CpuLocation::Vm(vm.0),
        station: SharedStation::new(),
    };
    Testbed {
        endpoint_link_loss: 0.0,
        vmm: hs.vmm,
        client: hs.client,
        server,
        target: SockAddr::new(ip, SERVER_PORT),
        config: Config::Nat,
        server_vm: Some(vm),
        client_vm: None,
    }
}

fn build_brfusion(seed: u64, opts: &BuildOpts) -> Testbed {
    let mut hs = build_host_side(seed, opts);
    let vm = hs.vmm.create_vm(VmSpec::paper_eval("vm0"));
    // The VM keeps a primary NIC (management); pod traffic bypasses it.
    let _eth0 = hs
        .vmm
        .add_nic(vm, hs.bridge, opts.suppression_primary, false);

    let mut cni = BrFusionCni::new("br0", HOST_NET, 50, hs.host_nat_ctl.clone(), PortId(1));
    let pod = PodSpec::new(
        "bench",
        vec![ContainerSpec::new("server", "bench:1")
            .with_port(Proto::Udp, SERVER_PORT, SERVER_PORT)
            .with_port(Proto::Tcp, SERVER_PORT, SERVER_PORT)],
    );
    let mut engines = BTreeMap::new();
    let atts = {
        let mut ctx = ClusterCtx {
            vmm: &mut hs.vmm,
            engines: &mut engines,
        };
        cni.setup(&mut ctx, &pod, &[vm])
            .expect("BrFusion CNI setup")
            .attachments
    };
    let att = &atts[0];

    let server = Slot {
        attach: att.net.attach,
        iface: att.net.iface.clone(),
        loc: CpuLocation::Vm(vm.0),
        station: SharedStation::new(),
    };
    Testbed {
        endpoint_link_loss: 0.0,
        vmm: hs.vmm,
        client: hs.client,
        server,
        target: SockAddr::new(att.net.ip, SERVER_PORT),
        config: Config::BrFusion,
        server_vm: Some(vm),
        client_vm: None,
    }
}

fn pod_two() -> PodSpec {
    PodSpec::new(
        "bench",
        vec![
            ContainerSpec::new("client", "bench:1"),
            ContainerSpec::new("server", "bench:1"),
        ],
    )
}

fn build_same_node(seed: u64, opts: &BuildOpts) -> Testbed {
    let mut vmm = mk_vmm(seed, opts);
    let vm = vmm.create_vm(VmSpec::paper_eval("vm0"));
    let mut engines = BTreeMap::new();
    let atts = {
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        HostloCni::new()
            .setup(&mut ctx, &pod_two(), &[vm, vm])
            .expect("same-node CNI setup")
            .attachments
    };
    let slot = |a: &orchestrator::PodAttachment| Slot {
        attach: a.net.attach,
        iface: a.net.iface.clone(),
        loc: CpuLocation::Vm(vm.0),
        station: SharedStation::new(),
    };
    Testbed {
        endpoint_link_loss: 0.0,
        client: slot(&atts[0]),
        server: slot(&atts[1]),
        vmm,
        target: SockAddr::new(POD_LOCALHOST, SERVER_PORT),
        config: Config::SameNode,
        server_vm: Some(vm),
        client_vm: Some(vm),
    }
}

fn build_hostlo(seed: u64, opts: &BuildOpts) -> Testbed {
    let mut vmm = mk_vmm(seed, opts);
    vmm.set_hostlo_fanout(opts.hostlo_fanout);
    let vm0 = vmm.create_vm(VmSpec::paper_eval("vm0"));
    let vm1 = vmm.create_vm(VmSpec::paper_eval("vm1"));
    let mut engines = BTreeMap::new();
    let atts = {
        let mut ctx = ClusterCtx {
            vmm: &mut vmm,
            engines: &mut engines,
        };
        HostloCni::new()
            .setup(&mut ctx, &pod_two(), &[vm0, vm1])
            .expect("hostlo CNI setup")
            .attachments
    };
    let slot = |a: &orchestrator::PodAttachment, vm: VmId| Slot {
        attach: a.net.attach,
        iface: a.net.iface.clone(),
        loc: CpuLocation::Vm(vm.0),
        station: SharedStation::new(),
    };
    Testbed {
        endpoint_link_loss: 0.0,
        client: slot(&atts[0], vm0),
        server: slot(&atts[1], vm1),
        vmm,
        target: SockAddr::new(POD_LOCALHOST, SERVER_PORT),
        config: Config::Hostlo,
        server_vm: Some(vm1),
        client_vm: Some(vm0),
    }
}

fn build_nat_cross(seed: u64, opts: &BuildOpts) -> Testbed {
    let mut vmm = mk_vmm(seed, opts);
    let bridge = vmm.create_bridge("br0", 16);
    let vm0 = vmm.create_vm(VmSpec::paper_eval("vm0"));
    let vm1 = vmm.create_vm(VmSpec::paper_eval("vm1"));
    let eth0 = vmm.add_nic(vm0, bridge, opts.suppression_primary, false);
    let eth1 = vmm.add_nic(vm1, bridge, opts.suppression_primary, false);

    // The synchronous cross-VM NAT path exhibits the erratic latencies of
    // §5.3.2 ("vary greatly and in unexpected manners"): model them as
    // latency-only conntrack/vCPU-scheduling stalls on the guest NAT stage.
    let nat_cost = vmm
        .costs()
        .guest_nat
        .with_stalls(0.30, simnet::SimDuration::micros(357));
    let mut dp0 =
        NodeDataplane::with_nat_cost(&mut vmm, vm0, &eth0, vm_ip(0), HOST_NET, 8, nat_cost);
    let mut dp1 =
        NodeDataplane::with_nat_cost(&mut vmm, vm1, &eth1, vm_ip(1), HOST_NET, 8, nat_cost);
    let client_cn = dp0.attach_container(&mut vmm, "client", &[]);
    let server_cn = dp1.attach_container(
        &mut vmm,
        "server",
        &[
            contd::PortMapping {
                proto: Proto::Udp,
                host_port: SERVER_PORT,
                container_port: SERVER_PORT,
            },
            contd::PortMapping {
                proto: Proto::Tcp,
                host_port: SERVER_PORT,
                container_port: SERVER_PORT,
            },
        ],
    );
    // The two VMs are L2 neighbors on the host bridge.
    dp0.add_external_neighbor(vm_ip(1), dp1.vm_mac);
    dp1.add_external_neighbor(vm_ip(0), dp0.vm_mac);

    let mk_slot = |cn: &contd::ContainerNet, vm: VmId| Slot {
        attach: cn.attach,
        iface: cn.iface.clone(),
        loc: CpuLocation::Vm(vm.0),
        station: SharedStation::new(),
    };
    Testbed {
        endpoint_link_loss: 0.0,
        client: mk_slot(&client_cn, vm0),
        server: mk_slot(&server_cn, vm1),
        vmm,
        target: SockAddr::new(vm_ip(1), SERVER_PORT),
        config: Config::NatCross,
        server_vm: Some(vm1),
        client_vm: Some(vm0),
    }
}

fn build_overlay(seed: u64, opts: &BuildOpts) -> Testbed {
    let mut vmm = mk_vmm(seed, opts);
    let bridge = vmm.create_bridge("br0", 16);
    let vm0 = vmm.create_vm(VmSpec::paper_eval("vm0"));
    let vm1 = vmm.create_vm(VmSpec::paper_eval("vm1"));
    let eth0 = vmm.add_nic(vm0, bridge, opts.suppression_primary, false);
    let eth1 = vmm.add_nic(vm1, bridge, opts.suppression_primary, false);
    // Same pathology as the cross-VM NAT path, slightly worse (the paper's
    // Overlay latencies are the highest of fig. 10).
    let vtep_cost = vmm
        .costs()
        .vxlan
        .with_stalls(0.35, simnet::SimDuration::micros(400));
    let (a, b) = contd::overlay::build_two_node_overlay_with(
        &mut vmm,
        42,
        (vm0, &eth0, vm_ip(0)),
        (vm1, &eth1, vm_ip(1)),
        vtep_cost,
    );
    let mk_slot = |att: &contd::OverlayAttachment, vm: VmId| Slot {
        attach: att.attach,
        iface: att.iface.clone(),
        loc: CpuLocation::Vm(vm.0),
        station: SharedStation::new(),
    };
    Testbed {
        endpoint_link_loss: 0.0,
        client: mk_slot(&a, vm0),
        server: mk_slot(&b, vm1),
        target: SockAddr::new(b.ip, SERVER_PORT),
        vmm,
        config: Config::Overlay,
        server_vm: Some(vm1),
        client_vm: Some(vm0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::endpoint::{AppApi, Incoming};
    use simnet::frame::Payload;
    use simnet::SimDuration;
    use simnet::StopCondition;

    /// Echo server for smoke tests.
    struct Echo;
    impl Application for Echo {
        fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}
        fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
            let mut p = Payload::sized(msg.payload.len);
            p.tag = msg.payload.tag;
            api.send_udp(SERVER_PORT, msg.src, p);
        }
    }

    /// Sends one request on start, records the reply RTT in us.
    struct OneShot {
        target: SockAddr,
    }
    impl Application for OneShot {
        fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
            let mut p = Payload::sized(256);
            p.tag = 99;
            api.send_udp(CLIENT_PORT, self.target, p);
        }
        fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
            assert_eq!(msg.payload.tag, 99);
            let rtt = api.now().since(msg.payload.sent_at);
            api.record("rtt_us", rtt.as_micros_f64());
        }
    }

    fn smoke(config: Config) -> f64 {
        let mut tb = build(config, 7);
        let target = tb.target;
        let server = tb.install("server", &tb.server.clone(), [SERVER_PORT], Box::new(Echo));
        let client = tb.install(
            "client",
            &tb.client.clone(),
            [CLIENT_PORT],
            Box::new(OneShot { target }),
        );
        tb.start(&[server, client]);
        tb.vmm
            .network_mut()
            .run(StopCondition::For(SimDuration::secs(1)));
        let rtts = tb.vmm.network().store().samples("rtt_us");
        assert_eq!(
            rtts.len(),
            1,
            "{config:?}: exactly one reply expected (drops={} unroutable={})",
            tb.vmm.network().dropped_no_link(),
            tb.vmm.network().store().counter("endpoint.send_unroutable"),
        );
        rtts[0]
    }

    #[test]
    fn nocont_roundtrip_works() {
        assert!(smoke(Config::NoCont) > 0.0);
    }

    #[test]
    fn nat_roundtrip_works() {
        assert!(smoke(Config::Nat) > 0.0);
    }

    #[test]
    fn brfusion_roundtrip_works() {
        assert!(smoke(Config::BrFusion) > 0.0);
    }

    #[test]
    fn same_node_roundtrip_works() {
        assert!(smoke(Config::SameNode) > 0.0);
    }

    #[test]
    fn hostlo_roundtrip_works() {
        assert!(smoke(Config::Hostlo) > 0.0);
    }

    #[test]
    fn nat_cross_roundtrip_works() {
        assert!(smoke(Config::NatCross) > 0.0);
    }

    #[test]
    fn overlay_roundtrip_works() {
        assert!(smoke(Config::Overlay) > 0.0);
    }

    #[test]
    fn unloaded_latency_ordering_matches_paper() {
        // fig. 4: NAT slower than NoCont; BrFusion close to NoCont.
        let nat = smoke(Config::Nat);
        let nocont = smoke(Config::NoCont);
        let brfusion = smoke(Config::BrFusion);
        assert!(nat > nocont, "NAT ({nat}) must exceed NoCont ({nocont})");
        assert!(
            (brfusion - nocont).abs() / nocont < 0.25,
            "BrFusion ({brfusion}) should be near NoCont ({nocont})"
        );
        // fig. 10: SameNode fastest; Hostlo within ~2-3x of SameNode and
        // far below NatCross.
        let same = smoke(Config::SameNode);
        let hostlo = smoke(Config::Hostlo);
        let cross = smoke(Config::NatCross);
        assert!(same < hostlo, "SameNode ({same}) fastest");
        assert!(
            hostlo < cross,
            "Hostlo ({hostlo}) beats NAT cross-VM ({cross})"
        );
    }
}
