//! `cluster_churn`: a BrFusion cluster at hybrid fidelity under control-
//! plane churn. Deploys (some degraded by a QMP outage), per-pod
//! NetworkPolicies (one with ~4k rules), clients behind the host NAT, and
//! a control step every 50 ms of simulated time: repair, a changed
//! policy, and now and then a pod deleted and deployed again. The write
//! side of the data path (conntrack inserts, filter recompiles, flow
//! learning and escalation) does the work here.

use crate::harness::{
    guarded, median, percentile, store_digest, timed, Ctx, Fnv, StoreCounts, Workload,
};
use contd::{ContainerSpec, ResourceRequest};
use metrics::CpuLocation;
use nestless::{Cluster, ClusterBuilder, CniKind, CLIENT_NET};
use orchestrator::{IngressRule, NetworkPolicy, PodAttachment, PodId, PodSpec};
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::device::PortId;
use simnet::endpoint::{AppApi, Application, Endpoint, IfaceConf, Incoming, START_TOKEN};
use simnet::engine::LinkParams;
use simnet::nat::Proto;
use simnet::{Fidelity, MacAddr, Payload, SharedStation, SimDuration, SimTime, SockAddr};

const VMS: usize = 8;
const PODS: usize = 16;
/// Pods `PODS - DEGRADED..PODS` are deployed during a QMP outage and land
/// on the nested NAT path until a repair re-promotes them.
const DEGRADED: usize = 4;
/// The pod whose policy carries [`BIG_RULES`] allow rules.
const BIG_POD: usize = 0;
const BIG_RULES: u16 = 4_000;
/// Container port every pod serves and its policy allows.
const SERVICE_PORT: u16 = 7000;
/// Container port every pod also serves, but no policy ever allows.
const BLOCKED_PORT: u16 = 7001;
/// Host NAT ports publishing pod `i`'s service and blocked ports.
const SERVICE_BASE: u16 = 20_000;
const BLOCKED_BASE: u16 = 21_000;
const STEP: SimDuration = SimDuration::millis(50);
const OUTAGE: SimDuration = SimDuration::millis(20);
/// Deletes-and-redeploys per rep. Every fused NIC takes a host-bridge
/// port for good (the simulated graph is static), and the cluster's
/// bridge has 32: 9 for the host NAT and boot NICs, 12 + 4 for the
/// first deploys and re-promotions, leaving 7.
const REDEPLOYS: u32 = 6;
/// Pods the churn deletes and redeploys, in turn.
const CHURN_POOL: std::ops::Range<usize> = 7..12;
/// Pods the steady clients talk to, the big-policy pod among them. None
/// is ever degraded, re-promoted or redeployed, so no steady request is
/// lost in a move and each steady flow keeps one path for the whole rep.
const STEADY_TARGETS: [usize; 4] = [0, 1, 5, 6];
/// Pods only the denied client talks to. The filters' RELATED state
/// admits a new flow between two addresses that already carry one, and
/// the host NAT masquerades every client to one address, so a denied
/// request to a pod an allowed client talks to would pass as RELATED.
const DENIED_TARGETS: std::ops::Range<usize> = 2..5;

const RR_TIMEOUT: SimDuration = SimDuration::millis(5);
/// Idle time between the fresh-port client's requests: every request is
/// a new conntrack flow, and masquerade port allocation scans conntrack.
const FRESH_THINK: SimDuration = SimDuration::micros(500);
/// Idle time between a steady client's requests. A flow whose emission
/// gap falls under the lowest one-way latency it has seen is pinned to
/// packet level for good, and a flow's first request (address learning
/// on the way) is slower than the round trips that follow, so without a
/// pause longer than any one-way latency here, whether a steady flow
/// stays on the fast path would hinge on the seed.
const STEADY_THINK: SimDuration = SimDuration::micros(100);
const FRESH_PORT_BASE: u16 = 10_000;
const FRESH_PORTS: u16 = 40_000;
const DENIED_GAP: SimDuration = SimDuration::millis(1);
const THINK_TOKEN: u64 = 1 << 63;

/// Answers every request from the port it arrived on.
struct Echo;

impl Application for Echo {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let mut p = Payload::sized(msg.payload.len);
        p.tag = msg.payload.tag;
        p.sent_at = msg.payload.sent_at;
        api.send_udp(msg.dst.port, msg.src, p);
    }
}

/// Closed-loop request/response client: one request in flight,
/// retransmitted after [`RR_TIMEOUT`]. A fresh-port client sends every
/// request from a new source port [`FRESH_THINK`] after the last reply; a
/// steady client keeps one port, so its flow lives long enough to be
/// promoted, and pauses [`STEADY_THINK`].
struct RrClient {
    targets: Vec<SockAddr>,
    port: u16,
    fresh: bool,
    tag: u64,
    outstanding: bool,
}

impl RrClient {
    fn send(&mut self, api: &mut AppApi<'_, '_>) {
        let target = self.targets[(self.tag % self.targets.len() as u64) as usize];
        let src = if self.fresh {
            FRESH_PORT_BASE + (self.tag % u64::from(FRESH_PORTS)) as u16
        } else {
            self.port
        };
        let mut p = Payload::sized(256);
        p.tag = self.tag;
        api.send_udp(src, target, p);
        api.set_timer(RR_TIMEOUT, self.tag);
        self.outstanding = true;
    }

    fn fire(&mut self, api: &mut AppApi<'_, '_>) {
        self.tag += 1;
        self.send(api);
    }
}

impl Application for RrClient {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        self.fire(api);
    }

    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        if !self.outstanding || msg.payload.tag != self.tag {
            return;
        }
        self.outstanding = false;
        let rtt = api.now().since(msg.payload.sent_at);
        api.record("churn.rtt_us", rtt.as_micros_f64());
        if self.fresh {
            api.count("churn.fresh_replies", 1.0);
            api.set_timer(FRESH_THINK, THINK_TOKEN);
        } else {
            api.count("churn.steady_replies", 1.0);
            api.set_timer(STEADY_THINK, THINK_TOKEN);
        }
    }

    fn on_timer(&mut self, token: u64, api: &mut AppApi<'_, '_>) {
        if token == THINK_TOKEN {
            self.fire(api);
        } else if self.outstanding && token == self.tag {
            api.count("churn.timeouts", 1.0);
            self.send(api);
        }
    }
}

/// Sends to ports the policies deny, every [`DENIED_GAP`]; any reply is
/// a policy-violating delivery.
struct DeniedClient {
    targets: Vec<SockAddr>,
    sent: u64,
}

impl Application for DeniedClient {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        self.on_timer(0, api);
    }

    fn on_message(&mut self, _: Incoming, api: &mut AppApi<'_, '_>) {
        api.count("churn.denied_replies", 1.0);
    }

    fn on_timer(&mut self, _: u64, api: &mut AppApi<'_, '_>) {
        let target = self.targets[(self.sent % self.targets.len() as u64) as usize];
        self.sent += 1;
        api.send_udp(FRESH_PORT_BASE, target, Payload::sized(64));
        api.count("churn.denied_sent", 1.0);
        api.set_timer(DENIED_GAP, 0);
    }
}

fn pod(i: usize) -> PodSpec {
    let n = i as u16;
    PodSpec::new(
        format!("svc{i}"),
        vec![ContainerSpec::new("srv", "app:1")
            .with_port(Proto::Udp, SERVICE_BASE + n, SERVICE_PORT)
            .with_port(Proto::Udp, BLOCKED_BASE + n, BLOCKED_PORT)
            // Two pods per 5-vCPU node, so the 16 pods spread over all 8.
            .with_resources(ResourceRequest::new(2_000, 1_024))],
    )
}

/// Deny-all plus the service port for pod `i`; the big pod also allows
/// [`BIG_RULES`] unused ports, and `extra` adds one more unused port.
fn policy(i: usize, extra: Option<u16>) -> NetworkPolicy {
    let mut p = NetworkPolicy::deny_all(format!("pol{i}"), format!("svc{i}"))
        .allow(IngressRule::any().proto(Proto::Udp).port(SERVICE_PORT));
    if i == BIG_POD {
        for k in 0..BIG_RULES {
            p = p.allow(IngressRule::any().proto(Proto::Udp).port(30_000 + k));
        }
    }
    if let Some(port) = extra {
        p = p.allow(IngressRule::any().proto(Proto::Udp).port(port));
    }
    p
}

/// The workload.
#[derive(Default)]
pub struct Churn {
    deploy_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    repair_ms: Vec<f64>,
    run_s: Vec<f64>,
}

/// Attaches an echo server to a pod's (first) attachment.
fn serve(ctx: &mut Ctx, cluster: &mut Cluster, att: &PodAttachment, name: &str) {
    ctx.rec.span("orchestrator", "Cluster::attach_app", || {
        cluster.attach_app(att, name, [SERVICE_PORT, BLOCKED_PORT], Box::new(Echo))
    });
}

/// Wires the external clients: an access switch on the host NAT's
/// client-facing port, one port per client.
fn attach_clients(cluster: &mut Cluster, apps: Vec<(Box<dyn Application>, std::ops::Range<u16>)>) {
    let sw = cluster.vmm.network_mut().add_device(
        "client-sw",
        CpuLocation::Host,
        Box::new(Bridge::new(
            apps.len() + 1,
            StageCost::fixed(200, 0.05, metrics::CpuCategory::Sys),
            SharedStation::new(),
        )),
    );
    cluster.vmm.network_mut().connect(
        sw,
        PortId(0),
        cluster.host_nat,
        PortId(0),
        LinkParams::default(),
    );
    for (k, (app, bound)) in apps.into_iter().enumerate() {
        let host = 100 + k as u32;
        let ip = CLIENT_NET.host(host);
        let mac = MacAddr::local(0x00E9_0000 + host);
        cluster.host_nat_ctl.add_neigh(PortId(0), ip, mac);
        let iface = IfaceConf::new(mac, ip, CLIENT_NET).with_gateway(
            CLIENT_NET.host(1),
            cluster.host_nat_ctl.iface_mac(PortId(0)),
        );
        let name = format!("client{k}");
        let ep = Endpoint::new(
            name.as_str(),
            vec![iface],
            bound,
            cluster.vmm.costs().socket,
            SharedStation::new(),
            app,
        );
        let net = cluster.vmm.network_mut();
        let dev = net.add_device(name, CpuLocation::Host, Box::new(ep));
        net.connect(dev, PortId::P0, sw, PortId(k + 1), LinkParams::default());
        net.schedule_timer(SimDuration::ZERO, dev, START_TOKEN);
    }
}

impl Churn {
    fn deploy(&mut self, ctx: &mut Ctx, cluster: &mut Cluster, i: usize) -> Option<PodId> {
        let (id, secs) = timed(|| {
            ctx.rec.span("orchestrator", "Cluster::deploy", || {
                guarded(|| cluster.deploy(pod(i)))
            })
        });
        self.deploy_ms.push(secs * 1e3);
        let id = id.and_then(Result::ok);
        ctx.tally(id.is_some());
        let id = id?;
        let att = cluster.attachments(id)[0].clone();
        serve(ctx, cluster, &att, &format!("srv{i}.{}", id.0));
        Some(id)
    }

    fn apply(&mut self, ctx: &mut Ctx, cluster: &mut Cluster, p: NetworkPolicy) -> u64 {
        let (n, secs) = timed(|| {
            ctx.rec.span("orchestrator", "Cluster::apply_policy", || {
                guarded(|| cluster.apply_policy(p))
            })
        });
        self.apply_ms.push(secs * 1e3);
        let n = n.and_then(Result::ok);
        ctx.tally(n.is_some());
        n.map_or(u64::MAX, |n| n as u64)
    }

    /// Set-up: cluster, deploys (the last [`DEGRADED`] inside a QMP
    /// outage), policies, servers and clients. Returns the pod ids and
    /// the digests of the set-up ops.
    fn build(&mut self, ctx: &mut Ctx) -> (Cluster, Vec<Option<PodId>>, Vec<u64>) {
        let seed = ctx.seed;
        let mut cluster = ctx.rec.span("orchestrator", "ClusterBuilder::build", || {
            ClusterBuilder::new()
                .cni(CniKind::BrFusion)
                .vms(VMS)
                .seed(seed)
                .fidelity(Fidelity::Hybrid)
                .build()
        });
        let mut ids = Vec::with_capacity(PODS);
        for i in 0..PODS {
            if i == PODS - DEGRADED {
                // Advance the (idle) clock so the outage misses the
                // earlier deploys, then wedge the management socket.
                cluster.run_for(SimDuration::millis(1));
                let now = cluster.vmm.network().now();
                cluster.vmm.inject_qmp_outage(now, now + OUTAGE);
            }
            ids.push(self.deploy(ctx, &mut cluster, i));
        }
        let mut digests: Vec<u64> = ids
            .iter()
            .map(|id| id.map_or(u64::MAX, |id| u64::from(id.0)))
            .collect();
        for i in 0..PODS {
            digests.push(self.apply(ctx, &mut cluster, policy(i, None)));
        }
        let ext = cluster.host_nat_ctl.iface_ip(PortId(0));
        let service = |i: usize| SockAddr::new(ext, SERVICE_BASE + i as u16);
        let mut apps: Vec<(Box<dyn Application>, std::ops::Range<u16>)> = vec![(
            Box::new(RrClient {
                targets: (0..PODS)
                    .filter(|i| !DENIED_TARGETS.contains(i) && !STEADY_TARGETS.contains(i))
                    .map(service)
                    .collect(),
                port: 0,
                fresh: true,
                tag: 0,
                outstanding: false,
            }),
            FRESH_PORT_BASE..FRESH_PORT_BASE + FRESH_PORTS,
        )];
        for (k, &target) in STEADY_TARGETS.iter().enumerate() {
            let port = 9_000 + k as u16;
            apps.push((
                Box::new(RrClient {
                    targets: vec![service(target)],
                    port,
                    fresh: false,
                    tag: 0,
                    outstanding: false,
                }),
                port..port + 1,
            ));
        }
        apps.push((
            Box::new(DeniedClient {
                targets: DENIED_TARGETS
                    .map(|i| SockAddr::new(ext, BLOCKED_BASE + i as u16))
                    .collect(),
                sent: 0,
            }),
            FRESH_PORT_BASE..FRESH_PORT_BASE + 1,
        ));
        ctx.rec.span("orchestrator", "attach clients", || {
            attach_clients(&mut cluster, apps)
        });
        (cluster, ids, digests)
    }
}

impl Workload for Churn {
    fn name(&self) -> &'static str {
        "cluster_churn"
    }

    /// A short cluster: set-up plus two control steps.
    fn warm_up(&mut self, ctx: &mut Ctx) {
        let ok = guarded(|| {
            let (mut cluster, _, _) = self.build(ctx);
            cluster.run_for(STEP.saturating_mul(2));
            cluster.repair();
        })
        .is_some();
        ctx.tally(ok);
        *self = Churn::default();
    }

    fn rep(&mut self, ctx: &mut Ctx) -> Vec<u64> {
        let (mut cluster, mut ids, mut digests) = ctx.setup(|ctx| self.build(ctx));

        let steps = ctx.scale.cluster_steps;
        let every = (steps / REDEPLOYS).max(1);
        let mut redeploys = 0;
        let mut run_s = 0.0;
        for step in 0..steps {
            ctx.op("control step", |ctx| {
                let ((), secs) = timed(|| {
                    ctx.rec
                        .span("engine", "Cluster::run_for", || cluster.run_for(STEP))
                });
                run_s += secs;

                let (repaired, secs) = timed(|| {
                    ctx.rec.span("orchestrator", "Cluster::repair", || {
                        guarded(|| cluster.repair())
                    })
                });
                self.repair_ms.push(secs * 1e3);
                ctx.tally(repaired.is_some());
                digests.push(repaired.map_or(u64::MAX, |n| n as u64));
                for r in cluster.drain_repaired() {
                    serve(
                        ctx,
                        &mut cluster,
                        &r.outcome.attachments[0],
                        &format!("{}.r{step}", r.pod),
                    );
                }

                // A changed policy for one small pod: one more unused port.
                let target = 1 + step as usize % (PODS - 1);
                let extra = 40_000 + (step % 20_000) as u16;
                let n = self.apply(ctx, &mut cluster, policy(target, Some(extra)));
                digests.push(n);

                if (step + 1) % every == 0 && redeploys < REDEPLOYS {
                    let i = CHURN_POOL.start + redeploys as usize % CHURN_POOL.len();
                    redeploys += 1;
                    if let Some(id) = ids[i] {
                        ctx.rec
                            .span("orchestrator", "ControlPlane::delete_pod", || {
                                cluster.control_plane.delete_pod(id)
                            });
                    }
                    ids[i] = self.deploy(ctx, &mut cluster, i);
                    digests.push(ids[i].map_or(u64::MAX, |id| u64::from(id.0)));
                }
            });
        }
        self.run_s.push(run_s);

        let net = cluster.vmm.network();
        let store = net.store();
        // Isolation and liveness: no denied request answered, and both
        // kinds of allowed client served.
        ctx.tally(
            store.counter("churn.denied_replies") == 0.0
                && store.counter("churn.denied_sent") > 0.0
                && store.counter("churn.steady_replies") > 0.0
                && store.counter("churn.fresh_replies") > 0.0,
        );
        let status = cluster.cni_status();
        digests.push(
            Fnv::new()
                .u64(store_digest(store))
                .u64(net.events_processed())
                .u64(status.fallbacks)
                .u64(status.repromotions)
                .u64(status.abandoned)
                .finish(),
        );

        let mut counts = StoreCounts::default();
        counts.add(store, net.events_processed());
        counts.publish(ctx);
        let now: SimTime = net.now();
        ctx.set(
            "filter.rules_live",
            cluster.vmm.bridge_filter(cluster.bridge).live_len(now) as f64,
        );
        ctx.set("engine.run_s", median(&self.run_s));
        ctx.set(
            "engine.ns_per_event",
            run_s * 1e9 / counts.events().max(1.0),
        );
        ctx.set(
            "orchestrator.deploy_ms_p50",
            percentile(&self.deploy_ms, 50.0),
        );
        ctx.set(
            "orchestrator.deploy_ms_p90",
            percentile(&self.deploy_ms, 90.0),
        );
        ctx.set(
            "orchestrator.apply_policy_ms_p50",
            percentile(&self.apply_ms, 50.0),
        );
        ctx.set(
            "orchestrator.apply_policy_ms_p90",
            percentile(&self.apply_ms, 90.0),
        );
        ctx.set(
            "orchestrator.repair_ms_p50",
            percentile(&self.repair_ms, 50.0),
        );
        ctx.set("cni.fallbacks", status.fallbacks as f64);
        ctx.set("cni.repromotions", status.repromotions as f64);
        ctx.set("cni.abandoned", status.abandoned as f64);
        digests
    }
}
