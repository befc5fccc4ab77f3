//! Flight-recorder demo: a fully traced Hostlo run exported as both a
//! [`RunSnapshot`] and a Chrome `trace_event` file.
//!
//! ```text
//! cargo run --release -p nestless-bench --bin flight_demo [rounds]
//! ```
//!
//! Writes `results/flight_demo.snapshot.json` and
//! `results/flight_demo.trace.json` (load the latter at
//! <https://ui.perfetto.dev> or `chrome://tracing`). The process exits
//! nonzero unless each document's compact JSON equals its pretty text
//! parsed and reprinted compactly, so CI's diff of the committed pretty
//! artifacts holds the compact bytes too.

use metrics::{ChromeTrace, RunSnapshot, TraceConfig};
use nestless::topology::{build, Config, Testbed, CLIENT_PORT, SERVER_PORT};
use nestless_bench::harness::{die, round_trip, write_artifact};
use simnet::endpoint::{AppApi, Application, Incoming};
use simnet::frame::Payload;
use simnet::StopCondition;
use simnet::{chrome_trace_report, snapshot_report, SimDuration, SockAddr};
use workloads::UdpEchoServer;

/// Fixed-length ping-pong driver.
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

fn traced_hostlo_run(rounds: u64) -> Testbed {
    let mut tb = build(Config::Hostlo, 11);
    tb.vmm.network_mut().set_trace_config(TraceConfig::full());
    let target = tb.target;
    let server = tb.install(
        "server",
        &tb.server.clone(),
        [SERVER_PORT],
        Box::new(UdpEchoServer),
    );
    let client = tb.install(
        "client",
        &tb.client.clone(),
        [CLIENT_PORT],
        Box::new(Ping {
            target,
            remaining: rounds,
        }),
    );
    tb.start(&[server, client]);
    tb.vmm
        .network_mut()
        .run(StopCondition::For(SimDuration::secs(1)));
    tb
}

fn main() {
    let rounds = std::env::args()
        .nth(1)
        .map(|s| match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("error: rounds must be an integer, got {s:?}");
                eprintln!("usage: flight_demo [rounds]");
                std::process::exit(2);
            }
        })
        .unwrap_or(200);

    let report = traced_hostlo_run(rounds).vmm.network_mut().take_report();
    let snapshot: RunSnapshot = snapshot_report(&report, "flight_demo.hostlo");
    let chrome: ChromeTrace = chrome_trace_report(&report);
    if snapshot.stages.is_empty() {
        die("traced run produced no stage aggregates");
    }
    if chrome.is_empty() {
        die("traced run produced no trace events");
    }

    let snapshot_json = round_trip("RunSnapshot", &snapshot);
    let chrome_json = round_trip("ChromeTrace", &chrome);

    write_artifact("results/flight_demo.snapshot.json", &snapshot_json);
    write_artifact("results/flight_demo.trace.json", &chrome_json);

    println!(
        "{{\"demo\":\"flight_demo\",\"config\":\"hostlo\",\"rounds\":{rounds},\
         \"spans_kept\":{},\"spans_dropped\":{},\"stages\":{},\"trace_events\":{},\
         \"snapshot\":\"results/flight_demo.snapshot.json\",\
         \"trace\":\"results/flight_demo.trace.json\"}}",
        snapshot.spans.kept,
        snapshot.spans.dropped,
        snapshot.stages.len(),
        chrome.len(),
    );
}
