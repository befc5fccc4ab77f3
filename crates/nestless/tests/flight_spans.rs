//! Flight-recorder coverage of the paper's data paths: a traced run of
//! the Hostlo and BrFusion testbeds must produce span trees spanning
//! every hop (TAP queues / bridge, NICs, endpoints), and the exporters
//! must turn them into a populated snapshot and a valid Chrome trace.

extern crate nestless;

use std::collections::{BTreeMap, BTreeSet};

use metrics::{SpanId, SpanRecord, TraceConfig};
use nestless::topology::{build, Config, CLIENT_PORT, SERVER_PORT};
use simnet::endpoint::{AppApi, Application, Incoming};
use simnet::frame::Payload;
use simnet::{chrome_trace_report, snapshot_report, SimDuration, SockAddr};
use simnet::{RunReport, StopCondition};

/// Echoes every request back to its sender.
struct Echo;
impl Application for Echo {
    fn on_start(&mut self, _: &mut AppApi<'_, '_>) {}
    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        let mut p = Payload::sized(msg.payload.len);
        p.tag = msg.payload.tag;
        api.send_udp(SERVER_PORT, msg.src, p);
    }
}

/// Drives a fixed-length ping-pong so the recorder sees real traffic.
struct Ping {
    target: SockAddr,
    remaining: u64,
}
impl Application for Ping {
    fn on_start(&mut self, api: &mut AppApi<'_, '_>) {
        let mut p = Payload::sized(256);
        p.tag = 1;
        api.send_udp(CLIENT_PORT, self.target, p);
    }
    fn on_message(&mut self, msg: Incoming, api: &mut AppApi<'_, '_>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            let mut p = Payload::sized(256);
            p.tag = msg.payload.tag + 1;
            api.send_udp(CLIENT_PORT, self.target, p);
        }
    }
}

/// Builds `config`, switches the recorder to full tracing *before* any
/// event runs, drives a 16-round ping-pong, and returns the run's report.
fn traced_run(config: Config) -> RunReport {
    let mut tb = build(config, 11);
    tb.vmm.network_mut().set_trace_config(TraceConfig::full());
    let target = tb.target;
    let server = tb.install("server", &tb.server.clone(), [SERVER_PORT], Box::new(Echo));
    let client = tb.install(
        "client",
        &tb.client.clone(),
        [CLIENT_PORT],
        Box::new(Ping {
            target,
            remaining: 16,
        }),
    );
    tb.start(&[server, client]);
    let net = tb.vmm.network_mut();
    net.run(StopCondition::For(SimDuration::secs(1)));
    net.take_report()
}

/// The set of distinct stage names the run's spans touched.
fn span_stages(report: &RunReport) -> BTreeSet<String> {
    report
        .spans
        .iter()
        .map(|r| report.store.name_of(r.stage).to_string())
        .collect()
}

/// Checks the structural invariants every traced run must satisfy:
/// non-NONE parents resolve to a recorded span on the same trace, spans
/// close after they open, and some trace crosses several stages.
fn assert_span_tree(label: &str, report: &RunReport) {
    let spans = &report.spans;
    assert!(!spans.is_empty(), "{label}: no spans recorded");
    assert_eq!(
        report.spans_dropped, 0,
        "{label}: default cap must hold a smoke run"
    );
    let by_id: BTreeMap<(u32, u64), &SpanRecord> = spans
        .iter()
        .map(|r| ((r.span.src, r.span.seq), r))
        .collect();
    let mut linked = 0usize;
    for r in spans {
        assert!(r.exit >= r.enter, "{label}: span closes before it opens");
        if r.parent != SpanId::NONE {
            let p = by_id
                .get(&(r.parent.src, r.parent.seq))
                .unwrap_or_else(|| panic!("{label}: dangling parent {:?}", r.parent));
            assert_eq!(p.trace, r.trace, "{label}: parent on a different trace");
            linked += 1;
        }
    }
    assert!(linked > 0, "{label}: no span ever linked to a parent");
    // At least one frame's flight crossed several distinct stages.
    let mut per_trace: BTreeMap<u64, BTreeSet<u32>> = BTreeMap::new();
    for r in spans {
        per_trace
            .entry(r.trace)
            .or_default()
            .insert(r.stage.index() as u32);
    }
    assert!(
        per_trace.values().any(|stages| stages.len() >= 2),
        "{label}: no trace crossed more than one stage"
    );
}

/// Exporters must produce populated output for a traced run.
fn assert_exports(label: &str, report: &RunReport) {
    let snap = snapshot_report(report, label);
    assert_eq!(snap.trace_mode, "full", "{label}: snapshot trace mode");
    assert!(!snap.stages.is_empty(), "{label}: snapshot stage map");
    assert_eq!(
        snap.spans.kept as usize,
        report.spans.len(),
        "{label}: snapshot span accounting"
    );
    let chrome = chrome_trace_report(report);
    assert!(!chrome.is_empty(), "{label}: chrome trace events");
    // Spans plus at least one process/thread metadata record each.
    assert!(
        chrome.len() > report.spans.len(),
        "{label}: chrome trace is missing metadata events"
    );
}

#[test]
fn hostlo_path_is_fully_traced() {
    let report = traced_run(Config::Hostlo);
    let stages = span_stages(&report);
    assert!(
        stages.contains("stage.hostlo"),
        "hostlo TAP fan-out must be staged, saw {stages:?}"
    );
    assert!(
        stages.contains("stage.endpoint"),
        "delivery must close the flight path, saw {stages:?}"
    );
    assert_span_tree("hostlo", &report);
    assert_exports("hostlo", &report);
}

#[test]
fn brfusion_path_is_fully_traced() {
    let report = traced_run(Config::BrFusion);
    let stages = span_stages(&report);
    assert!(
        stages.contains("stage.bridge"),
        "host bridge must be staged, saw {stages:?}"
    );
    assert!(
        stages.contains("stage.endpoint"),
        "delivery must close the flight path, saw {stages:?}"
    );
    assert_span_tree("brfusion", &report);
    assert_exports("brfusion", &report);
}
