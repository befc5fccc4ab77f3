//! Chaos demo: drives the paper's topologies through a deterministic
//! fault schedule and records how the stack degrades and recovers.
//!
//! ```text
//! cargo run --release -p nestless-bench --bin chaos_demo [seed]
//! ```
//!
//! Two scenarios run back to back:
//!
//! * **BrFusion cluster** — a pod deployed during an injected QMP outage
//!   falls back to the classic nested path (bridge + double NAT), serves
//!   traffic through a lossy/flapping window on the host NAT uplink, and
//!   is re-promoted to a fused NIC by the repair pass once the backoff
//!   elapses. The demo records fallback/re-promotion latency, per-phase
//!   goodput and degraded-vs-fused median RTT.
//! * **Hostlo testbed** — a cross-VM pod's localhost traffic rides
//!   through two hard link-down flaps; goodput collapses during the
//!   flaps and recovers after.
//!
//! The run is captured by the flight recorder: the full [`RunSnapshot`]
//! goes to `results/chaos_demo.snapshot.json` and the summary document to
//! `results/chaos_demo.json`, with its telemetry snapshot in
//! `results/chaos_demo.telemetry.json`. The process exits nonzero if any
//! recovery invariant fails, or unless each document's compact JSON
//! equals its pretty text parsed and reprinted compactly, so CI can gate
//! on it.

use metrics::{RunSnapshot, TraceConfig};
use nestless::topology::{build, Config, CLIENT_PORT, SERVER_PORT};
use nestless::{Cluster, ClusterBuilder, CniKind, CLIENT_NET};
use nestless_bench::harness::{die, median, round_trip, write_artifact};
use orchestrator::PodSpec;
use simnet::device::{DeviceId, PortId};
use simnet::endpoint::{AppApi, Application, Endpoint, IfaceConf, Incoming, START_TOKEN};
use simnet::engine::LinkParams;
use simnet::frame::Payload;
use simnet::nat::Proto;
use simnet::shared::SharedStation;
use simnet::{
    snapshot_report, telemetry_report, FaultPlan, JournalKind, LinkFault, LinkFaultKind, MacAddr,
    SimDuration, SimTime, SockAddr, StallWindow, StopCondition, TelemetryConfig,
};

/// Interval between client requests.
const INTERVAL: SimDuration = SimDuration::micros(50);

/// Echoes every request back to its sender.
struct Echo {
    port: u16,
}
impl Application for Echo {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}
    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let mut p = Payload::sized(8);
        p.tag = msg.payload.tag;
        api.send_udp(self.port, msg.src, p);
    }
}

/// Open-loop load generator: one tagged request per `INTERVAL`, goodput
/// judged by which tags come back. `port_span > 1` cycles the source port
/// so every request opens a fresh NAT flow — conntrack entries of earlier
/// flows would otherwise pin replies to a stale backend after the pod
/// moves.
struct Pulse {
    service: SockAddr,
    total: u64,
    base_port: u16,
    port_span: u16,
    prefix: &'static str,
}
impl Pulse {
    fn fire(&self, seq: u64, api: &mut AppApi<'_, '_>) {
        let src = self.base_port + (seq % u64::from(self.port_span)) as u16;
        let mut p = Payload::sized(100);
        p.tag = seq;
        api.send_udp(src, self.service, p);
        api.count(&format!("{}.sent", self.prefix), 1.0);
        if seq + 1 < self.total {
            api.set_timer(INTERVAL, seq + 1);
        }
    }
}
impl Application for Pulse {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        self.fire(0, api);
    }
    fn on_timer(&mut self, token: u64, api: &mut AppApi<'_, '_>) {
        self.fire(token, api);
    }
    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        api.record(
            &format!("{}.reply_seq", self.prefix),
            msg.payload.tag as f64,
        );
        let rtt = api.now().since(msg.payload.sent_at);
        api.record(&format!("{}.rtt_us", self.prefix), rtt.as_micros_f64());
    }
}

#[derive(serde::Serialize)]
struct PhaseGoodput {
    phase: String,
    sent: u64,
    delivered: u64,
    goodput: f64,
}

#[derive(serde::Serialize)]
struct BrFusionReport {
    fallbacks: u64,
    fallback_reason: String,
    repromotions: u64,
    repromotion_latency_ms: f64,
    abandoned: u64,
    phases: Vec<PhaseGoodput>,
    rtt_degraded_p50_us: f64,
    rtt_fused_p50_us: f64,
    fault_lost: f64,
    fault_link_down: f64,
    spans_kept: u64,
    spans_dropped: u64,
}

#[derive(serde::Serialize)]
struct HostloReport {
    phases: Vec<PhaseGoodput>,
    fault_link_down: f64,
}

#[derive(serde::Serialize)]
struct ChaosReport {
    demo: String,
    seed: u64,
    brfusion: BrFusionReport,
    hostlo: HostloReport,
}

/// Groups delivered tags into phases by the (deterministic) send time of
/// each sequence number: request `seq` leaves at `seq * INTERVAL`.
fn phase_goodput(delivered: &[f64], total: u64, bounds: &[(&str, u64, u64)]) -> Vec<PhaseGoodput> {
    bounds
        .iter()
        .map(|&(name, lo, hi)| {
            let hi = hi.min(total);
            let got = delivered
                .iter()
                .filter(|&&s| (s as u64) >= lo && (s as u64) < hi)
                .count() as u64;
            PhaseGoodput {
                phase: name.to_owned(),
                sent: hi - lo,
                delivered: got,
                goodput: got as f64 / (hi - lo) as f64,
            }
        })
        .collect()
}

/// Wires an external client endpoint onto the cluster's host NAT. Probes
/// target the NAT's published address, so the DNAT rules decide which
/// backend (nested VM path or fused pod NIC) actually serves them.
fn attach_cluster_client(cluster: &mut Cluster, app: Pulse, ports: u16) -> DeviceId {
    let client_ip = CLIENT_NET.host(100);
    let client_mac = MacAddr::local(0x00E9_0000);
    cluster
        .host_nat_ctl
        .add_neigh(PortId(0), client_ip, client_mac);
    let iface = IfaceConf::new(client_mac, client_ip, CLIENT_NET).with_gateway(
        CLIENT_NET.host(1),
        cluster.host_nat_ctl.iface_mac(PortId(0)),
    );
    let sock_cost = cluster.vmm.costs().socket;
    let base = app.base_port;
    let ep = Endpoint::new(
        "chaos-client",
        vec![iface],
        base..base + ports,
        sock_cost,
        SharedStation::new(),
        Box::new(app),
    );
    let dev = cluster.vmm.network_mut().add_device(
        "chaos-client",
        metrics::CpuLocation::Host,
        Box::new(ep),
    );
    cluster.vmm.network_mut().connect(
        dev,
        PortId::P0,
        cluster.host_nat,
        PortId(0),
        LinkParams::default(),
    );
    dev
}

/// BrFusion scenario. Timeline (request `seq` leaves at `seq * 50 us`):
///
/// * `t = 0`: QMP outage `[0, 5 ms)` is live; the pod deploys degraded.
/// * `[0, 20 ms)` — degraded, healthy links (seq 0..400).
/// * `[20, 40 ms)` — degraded, host NAT uplink lossy + flapping
///   (seq 400..800).
/// * `[40, 55 ms)` — degraded, healthy again (seq 800..1100).
/// * `t = 55 ms`: repair pass re-promotes (backoff of 50 ms elapsed,
///   outage long gone); the workload re-binds onto the fused NIC.
/// * `[55, 100 ms)` — fused (seq 1100..2000).
fn run_brfusion(seed: u64) -> BrFusionReport {
    const TOTAL: u64 = 2_000;
    let mut cluster = ClusterBuilder::new()
        .cni(CniKind::BrFusion)
        .vms(1)
        .seed(seed)
        .build();
    cluster
        .vmm
        .network_mut()
        .set_trace_config(TraceConfig::full());
    // A deliberately tiny journal ring: the run emits more control-plane
    // records than 4, so the export below MUST surface a nonzero drop
    // count (silent truncation is the bug class this demo gates on).
    cluster
        .vmm
        .network_mut()
        .set_telemetry_config(TelemetryConfig::full().with_journal_cap(4));

    // The fault schedule must be installed before the first event runs.
    let plan = FaultPlan::new()
        .link_fault(LinkFault {
            dev: cluster.host_nat,
            port: PortId(1),
            from: SimTime(20_000_000),
            until: SimTime(40_000_000),
            kind: LinkFaultKind::Loss(0.35),
        })
        .link_flap(
            cluster.host_nat,
            PortId(1),
            SimTime(25_000_000),
            SimDuration::millis(2),
            SimDuration::millis(3),
            2,
        )
        .stall(StallWindow {
            dev: cluster.vmm.bridge_device(cluster.bridge),
            from: SimTime(30_000_000),
            until: SimTime(35_000_000),
            extra: SimDuration::micros(200),
        });
    cluster.vmm.network_mut().install_fault_plan(plan);

    // Deploy during the outage: the hot-plug request fails, the pod lands
    // on the nested path.
    let now = cluster.vmm.network().now();
    cluster
        .vmm
        .inject_qmp_outage(now, now + SimDuration::millis(5));
    let pod = PodSpec::new(
        "web",
        vec![ContainerSpecExt::udp_service("srv", SERVER_PORT)],
    );
    let id = cluster
        .deploy(pod)
        .unwrap_or_else(|e| die(&format!("deploy under QMP outage must degrade, got {e:?}")));
    if cluster.cni_status().fallbacks != 1 {
        die("deploy under QMP outage did not fall back");
    }
    let atts = cluster.attachments(id).to_vec();
    cluster.attach_app(
        &atts[0],
        "srv-degraded",
        [SERVER_PORT],
        Box::new(Echo { port: SERVER_PORT }),
    );

    let service = SockAddr::new(cluster.host_nat_ctl.iface_ip(PortId(0)), SERVER_PORT);
    let client = attach_cluster_client(
        &mut cluster,
        Pulse {
            service,
            total: TOTAL,
            base_port: 10_000,
            port_span: TOTAL as u16,
            prefix: "chaos",
        },
        TOTAL as u16,
    );
    cluster
        .vmm
        .network_mut()
        .schedule_timer(SimDuration::ZERO, client, START_TOKEN);

    // Degraded phases, then the repair pass, then the fused phase.
    cluster.run_for(SimDuration::millis(55));
    if cluster.repair() != 1 {
        die("repair pass at 55 ms must re-promote the pod");
    }
    let repromoted = cluster.drain_repaired();
    let new_atts = &repromoted[0].outcome.attachments;
    cluster.attach_app(
        &new_atts[0],
        "srv-fused",
        [SERVER_PORT],
        Box::new(Echo { port: SERVER_PORT }),
    );
    cluster.run_for(SimDuration::millis(55));

    let report = cluster.vmm.network_mut().take_report();
    let store = &report.store;
    let delivered = store.samples("chaos.reply_seq").to_vec();
    let phases = phase_goodput(
        &delivered,
        TOTAL,
        &[
            ("degraded-healthy", 0, 400),
            ("degraded-lossy", 400, 800),
            ("degraded-recovered", 800, 1_100),
            ("fused", 1_100, TOTAL),
        ],
    );
    // RTTs attributed by reply tag: requests up to seq 1100 ran degraded.
    let rtts = store.samples("chaos.rtt_us");
    let mut degraded_rtt = Vec::new();
    let mut fused_rtt = Vec::new();
    for (tag, rtt) in delivered.iter().zip(rtts.iter()) {
        if (*tag as u64) < 1_100 {
            degraded_rtt.push(*rtt);
        } else {
            fused_rtt.push(*rtt);
        }
    }
    let stats = cluster.cni_status();
    let latency = stats.repromotion_latency_ns.clone();
    let snapshot: RunSnapshot = snapshot_report(&report, "chaos_demo.brfusion");
    let snapshot_json = round_trip("RunSnapshot", &snapshot);
    write_artifact("results/chaos_demo.snapshot.json", &snapshot_json);

    // The unified telemetry export must surface the fault counters, the
    // control-plane journal (per-kind counts survive the capped ring),
    // and — because the 4-slot ring overflowed — an honest drop count.
    let telem = telemetry_report(&report, "chaos_demo.brfusion");
    let telem_json = round_trip("TelemetrySnapshot", &telem);
    write_artifact("results/chaos_demo.telemetry.json", &telem_json);
    if telem.counters.get("fault.lost").copied().unwrap_or(0) == 0 {
        die("fault.lost must surface in the telemetry snapshot counters");
    }
    if telem.counters.get("fault.link_down").copied().unwrap_or(0) == 0 {
        die("fault.link_down must surface in the telemetry snapshot counters");
    }
    if telem.journal_count(JournalKind::FaultOpen) == 0
        || telem.journal_count(JournalKind::FaultOpen)
            != telem.journal_count(JournalKind::FaultClose)
    {
        die("every journaled fault window must open and close");
    }
    if telem.journal_count(JournalKind::QmpOutage) != 1 {
        die("the injected QMP outage must be journaled exactly once");
    }
    if telem.journal_count(JournalKind::CniDegrade) != 1
        || telem.journal_count(JournalKind::CniRepromote) != 1
    {
        die("the degrade/re-promote cycle must be journaled");
    }
    if telem.journal.len() != 4 {
        die("the 4-slot journal ring must keep exactly its capacity");
    }
    if telem.drops.journal == 0 {
        die("a journal ring at capacity must expose its drop count");
    }

    BrFusionReport {
        fallbacks: stats.fallbacks,
        fallback_reason: stats.fallback_reasons[0].clone(),
        repromotions: stats.repromotions,
        repromotion_latency_ms: latency[0] as f64 / 1e6,
        abandoned: stats.abandoned,
        phases,
        rtt_degraded_p50_us: median(degraded_rtt),
        rtt_fused_p50_us: median(fused_rtt),
        fault_lost: store.counter("fault.lost"),
        fault_link_down: store.counter("fault.link_down"),
        spans_kept: snapshot.spans.kept,
        spans_dropped: snapshot.spans.dropped,
    }
}

/// Hostlo scenario: the cross-VM localhost rides through two 5 ms hard
/// link-down flaps (at 10 ms and 20 ms) on the client's TAP attachment;
/// goodput collapses in the flap window and recovers after.
fn run_hostlo(seed: u64) -> HostloReport {
    const TOTAL: u64 = 1_000;
    let mut tb = build(Config::Hostlo, seed);
    let target = tb.target;
    let server = tb.install(
        "server",
        &tb.server.clone(),
        [SERVER_PORT],
        Box::new(Echo { port: SERVER_PORT }),
    );
    let client = tb.install(
        "client",
        &tb.client.clone(),
        [CLIENT_PORT],
        Box::new(Pulse {
            service: target,
            total: TOTAL,
            base_port: CLIENT_PORT,
            port_span: 1,
            prefix: "hostlo",
        }),
    );
    let plan = FaultPlan::new().link_flap(
        client,
        PortId::P0,
        SimTime(10_000_000),
        SimDuration::millis(5),
        SimDuration::millis(5),
        2,
    );
    tb.vmm.network_mut().install_fault_plan(plan);
    tb.start(&[server, client]);
    tb.vmm
        .network_mut()
        .run(StopCondition::For(SimDuration::millis(60)));

    let store = tb.vmm.network().store();
    let delivered = store.samples("hostlo.reply_seq").to_vec();
    HostloReport {
        phases: phase_goodput(
            &delivered,
            TOTAL,
            &[
                ("healthy", 0, 200),
                ("flapping", 200, 600),
                ("recovered", 600, TOTAL),
            ],
        ),
        fault_link_down: store.counter("fault.link_down"),
    }
}

/// `ContainerSpec` construction helper kept local to the demo.
struct ContainerSpecExt;
impl ContainerSpecExt {
    fn udp_service(name: &str, port: u16) -> contd::ContainerSpec {
        contd::ContainerSpec::new(name, "app:1").with_port(Proto::Udp, port, port)
    }
}

fn goodput(phases: &[PhaseGoodput], name: &str) -> f64 {
    phases
        .iter()
        .find(|p| p.phase == name)
        .unwrap_or_else(|| die(&format!("missing phase {name}")))
        .goodput
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: seed must be an integer, got {s:?}");
                eprintln!("usage: chaos_demo [seed]");
                std::process::exit(2);
            }
        })
        .unwrap_or(42);

    let brfusion = run_brfusion(seed);
    let hostlo = run_hostlo(seed);

    // Recovery invariants: the degraded path serves, loss bites, the
    // fused path comes back at full goodput and lower latency.
    if goodput(&brfusion.phases, "degraded-healthy") < 0.9 {
        die("degraded path must serve ≥90% goodput on healthy links");
    }
    if goodput(&brfusion.phases, "degraded-lossy") >= 0.9 {
        die("the lossy window must visibly dent goodput");
    }
    if goodput(&brfusion.phases, "fused") < 0.9 {
        die("the re-promoted fused path must serve ≥90% goodput");
    }
    if brfusion.repromotions != 1 || brfusion.abandoned != 0 {
        die("exactly one re-promotion, no abandonment, expected");
    }
    if !brfusion.rtt_fused_p50_us.is_finite()
        || brfusion.rtt_fused_p50_us >= brfusion.rtt_degraded_p50_us
    {
        die("fused median RTT must beat the nested (double NAT) path");
    }
    if brfusion.fault_lost <= 0.0 || brfusion.fault_link_down <= 0.0 {
        die("the fault schedule never fired");
    }
    if goodput(&hostlo.phases, "flapping") >= goodput(&hostlo.phases, "healthy") {
        die("hostlo flaps must dent goodput");
    }
    if goodput(&hostlo.phases, "recovered") < 0.9 {
        die("hostlo goodput must recover after the flaps");
    }

    let report = ChaosReport {
        demo: "chaos_demo".to_owned(),
        seed,
        brfusion,
        hostlo,
    };
    let json = round_trip("ChaosReport", &report);
    write_artifact("results/chaos_demo.json", &json);
    println!("{json}");
}
