//! Unified telemetry plane demo + invariant gate.
//!
//! One run exercises every piece of the telemetry plane end to end:
//!
//! 1. **Deterministic journal** — a hybrid-fidelity relay-chain scenario
//!    with a lossy fault window runs at 1/2/8 shards. The deterministic
//!    journal lane (records + per-kind counts + drop count) must be
//!    bit-identical across all three runs.
//! 2. **Derived metrics** — a counter, a gauge, a log2 histogram and a
//!    decimating tick series are computed from the canonical run's
//!    journal and added to its snapshot.
//! 3. **Exporters** — the merged [`TelemetrySnapshot`] is written as
//!    versioned JSON, Prometheus text, and a Perfetto counter-track
//!    trace. Each JSON document's compact bytes must equal its pretty
//!    text parsed and reprinted compactly.
//!
//! Every invariant failure exits nonzero, so CI can run the bin as a
//! self-checking smoke test:
//!
//! ```text
//! cargo run --release -p nestless-bench --bin telemetry_demo
//! ```
//!
//! Artifacts land in `results/telemetry_demo.{snapshot.json,prom,trace.json}`.

use metrics::{HistSummary, Log2Hist, ObsMode, TelemetryConfig, TickSeries};
use nestless_bench::harness::{die, relay_chains, round_trip, write_artifact};
use simnet::device::{DeviceId, PortId};
use simnet::time::{SimDuration, SimTime};
use simnet::{
    chrome_counter_tracks, telemetry_report, FaultPlan, Fidelity, JournalKind, LinkFault,
    LinkFaultKind, RunReport, SimConfig, StopCondition, TelemetrySnapshot,
};

/// Parallel relay chains; each is its own partition island, so 1/2/8
/// shard requests all materialize exactly.
const CHAINS: usize = 4;

/// Two-port learning bridges between the bouncer pair of each chain —
/// deep enough that the hybrid fast path promotes and journals flows.
const RELAYS: usize = 12;

/// Simulated horizon: long enough for promotion, the fault window, and
/// the post-fault re-promotion to all land in the journal.
const HORIZON: SimTime = SimTime(5_000_000);

/// A lossy mid-run window on each chain's first relay: exercises
/// `fault.open`/`fault.close` journal records and the `fault.lost`
/// counter without silencing the chains for good.
fn plan(targets: &[DeviceId]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for (i, dev) in targets.iter().enumerate() {
        let from = SimTime(1_500_000 + (i as u64) * 50_000);
        plan = plan.link_fault(LinkFault {
            dev: *dev,
            port: PortId(1),
            from,
            until: from + SimDuration::nanos(400_000),
            kind: LinkFaultKind::Loss(0.3),
        });
    }
    plan
}

fn run(shards: usize) -> RunReport {
    let (net, targets) = relay_chains(0x7E1E, CHAINS, RELAYS);
    let mut sn = SimConfig::new()
        .shards(shards)
        .fidelity(Fidelity::Hybrid)
        .telemetry(TelemetryConfig::full())
        .fault(plan(&targets))
        .build(net);
    sn.run(StopCondition::Until(HORIZON));
    sn.into_report()
}

fn main() {
    // 1. Journal determinism: three shard counts, one journal.
    let configs = [1, 2, 8];
    let mut canonical: Option<RunReport> = None;
    for shards in configs {
        let report = run(shards);
        if report.telemetry_mode != ObsMode::Full {
            die("run must report telemetry mode full");
        }
        if let Some(reference) = &canonical {
            if report.journal != reference.journal
                || report.journal_counts != reference.journal_counts
                || report.journal_dropped != reference.journal_dropped
            {
                die(&format!(
                    "journal diverged at shards={shards}: \
                     {} records vs {} reference",
                    report.journal.len(),
                    reference.journal.len()
                ));
            }
        } else {
            canonical = Some(report);
        }
    }
    let report = canonical.unwrap();
    if report.journal.is_empty() {
        die("hybrid run with faults journaled nothing — scenario is broken");
    }

    // 2. Snapshot: the engine report plus metrics derived from the
    // canonical journal, then exported.
    let mut snap: TelemetrySnapshot = telemetry_report(&report, "telemetry_demo.relay_chains");
    snap.counters.insert(
        "demo.journal_records".to_string(),
        report.journal.len() as u64,
    );
    snap.gauges
        .insert("demo.flow_hit_rate".to_string(), snap.health.flow_hit_rate);
    let mut gaps = Log2Hist::new();
    for pair in report.journal.windows(2) {
        gaps.record(pair[1].tag.at_ns.saturating_sub(pair[0].tag.at_ns));
    }
    snap.histograms
        .insert("demo.record_gap_ns".to_string(), HistSummary::of(&gaps));
    let mut series = TickSeries::new(64);
    for (i, r) in report.journal.iter().enumerate() {
        series.push(r.tag.at_ns, (i + 1) as f64);
    }
    snap.series.push(series.export("demo.journal_cumulative"));

    if snap.journal_count(JournalKind::FlowPromote) == 0 {
        die("hybrid steady chains must journal flow promotions");
    }
    if snap.journal_count(JournalKind::FlowEscalate) == 0 {
        die("the lossy window must journal flow escalations");
    }
    // Window transitions are observed at the faulted device's own
    // emissions; a window whose flow re-promotes before it ends closes
    // unobserved, so closes can lag opens but never outnumber them.
    let open = snap.journal_count(JournalKind::FaultOpen);
    let close = snap.journal_count(JournalKind::FaultClose);
    if open == 0 || close > open {
        die("fault windows must journal opens; closes can never outnumber them");
    }
    if snap.counters.get("fault.lost").copied().unwrap_or(0) == 0 {
        die("the lossy window must surface in fault.lost");
    }
    if snap.drops.journal != 0 {
        die("the default journal ring must not drop in this scenario");
    }
    if snap.series.iter().all(|s| s.points.is_empty()) {
        die("the derived tick series must export points");
    }

    let snapshot_json = round_trip("TelemetrySnapshot", &snap);
    let prom = snap.prometheus_text();
    if !prom.contains("nestless_fault_lost") || !prom.contains("nestless_demo_flow_hit_rate") {
        die("prometheus export is missing expected metric families");
    }
    let trace = chrome_counter_tracks(&snap);
    let trace_json = round_trip("ChromeTrace", &trace);

    write_artifact("results/telemetry_demo.snapshot.json", &snapshot_json);
    write_artifact("results/telemetry_demo.prom", &prom);
    write_artifact("results/telemetry_demo.trace.json", &trace_json);

    let kinds: Vec<String> = snap
        .journal_counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\n  \"benchmark\": \"telemetry_demo (crates/bench/src/bin/telemetry_demo.rs)\",\n  \
         \"schema\": \"{}\",\n  \"configs_checked\": {},\n  \"journal_records\": {},\n  \
         \"journal_counts\": {{ {} }},\n  \"flow_hit_rate\": {:.4},\n  \
         \"drops\": {{\"journal\": {}, \"spans\": {}, \"trace\": {}}},\n  \
         \"artifacts\": [\"results/telemetry_demo.snapshot.json\", \
         \"results/telemetry_demo.prom\", \"results/telemetry_demo.trace.json\"],\n  \
         \"note\": \"journal records, per-kind counts, and drop counts are bit-identical across 1/2/8 shards; the snapshot round-trips losslessly and exports to Prometheus text and Perfetto counter tracks.\"\n}}",
        snap.schema,
        configs.len(),
        snap.journal.len(),
        kinds.join(", "),
        snap.health.flow_hit_rate,
        snap.drops.journal,
        snap.drops.spans,
        snap.drops.trace,
    );
}
