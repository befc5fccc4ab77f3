//! Exporters of the observability plane. Each reads one input, a finished
//! run's [`RunReport`] — from [`Network::take_report`](crate::Network::take_report)
//! for a sequential run, [`ShardedNetwork::into_report`](crate::ShardedNetwork::into_report)
//! for a sharded one — so every export is identical at any shard count:
//!
//! * a [`RunSnapshot`]: counters, sample summaries, CPU attribution by
//!   location × category, per-stage latency CDFs and recorder
//!   bookkeeping, serialized to JSON by benches into `results/`;
//! * a [`ChromeTrace`]: the retained spans as Chrome `trace_event` JSON,
//!   loadable directly in Perfetto or `chrome://tracing`, one process
//!   per CPU location and one thread per device;
//! * a [`TelemetrySnapshot`]: the journal with its per-kind counts, drop
//!   accounting for every bounded ring, and health indicators, plus its
//!   Perfetto counter tracks.
//!
//! Every exporter is a pure read of the report.

use crate::engine::SampleStore;
use crate::parallel::RunReport;
use metrics::flight::{
    cpu_cells, LatencyCdf, SampleSummary, SpanAccounting, StageSnapshot, TraceAccounting,
    SNAPSHOT_SCHEMA,
};
use metrics::{
    ChromeTrace, CpuLocation, HealthSummary, JournalKind, JournalRecord, RunSnapshot, SpanRecord,
    StageTable, TelemetrySnapshot,
};
use std::collections::{BTreeMap, BTreeSet};

/// The Chrome-trace process id of a CPU location: the host is pid 1, VM
/// `i` is pid `1000 + i`.
pub fn pid_of(loc: CpuLocation) -> u64 {
    match loc {
        CpuLocation::Host => 1,
        CpuLocation::Vm(i) => 1000 + u64::from(i),
    }
}

fn counters_map(store: &SampleStore) -> BTreeMap<String, f64> {
    store
        .counter_names()
        .map(|n| (n.to_string(), store.counter(n)))
        .collect()
}

fn samples_map(store: &SampleStore) -> BTreeMap<String, SampleSummary> {
    store
        .sample_names()
        .map(|n| (n.to_string(), SampleSummary::of(store.samples(n))))
        .collect()
}

/// Per-stage snapshots with exact percentiles where the span ring kept
/// every record of a stage, log2-bucket bounds otherwise.
fn stages_map(
    table: &StageTable,
    store: &SampleStore,
    spans: &[SpanRecord],
) -> BTreeMap<String, StageSnapshot> {
    let mut lat: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for r in spans {
        lat.entry(r.stage.index())
            .or_default()
            .push(r.latency_ns() as f64);
    }
    table
        .iter()
        .map(|(id, agg)| {
            let exact = lat.get(&id.index()).map_or(&[][..], Vec::as_slice);
            (
                store.name_of(id).to_string(),
                StageSnapshot {
                    frames: agg.frames,
                    cpu_ns: agg.cpu_ns,
                    latency_ns: LatencyCdf::from_agg_and_latencies(agg, exact),
                },
            )
        })
        .collect()
}

/// Snapshot of a finished run. The `BTreeMap` keys normalize the one
/// thing a merged store may order differently, its name enumeration, so
/// the snapshot is identical at every shard count.
pub fn snapshot_report(report: &RunReport, label: &str) -> RunSnapshot {
    RunSnapshot {
        schema: SNAPSHOT_SCHEMA.to_string(),
        label: label.to_string(),
        sim_now_ns: report.now.0,
        events_processed: report.events_processed,
        dropped_no_link: report.dropped_no_link,
        trace_mode: report.trace_mode.label().to_string(),
        counters: counters_map(&report.store),
        samples: samples_map(&report.store),
        cpu: cpu_cells(&report.cpu),
        stages: stages_map(&report.stages, &report.store, &report.spans),
        spans: SpanAccounting {
            emitted: report.spans_emitted,
            kept: report.spans.len() as u64,
            dropped: report.spans_dropped,
        },
        trace_entries: TraceAccounting {
            kept: report.trace.len() as u64,
            dropped: report.trace_dropped,
        },
    }
}

/// Chrome `trace_event` export of a finished run: metadata rows for every
/// (location, device) seen in the spans, then one `X` event per span.
/// The events are sized up front and each stage's name is stored once,
/// so the export allocates per process, thread and stage, never per
/// span. (Grown by doubling, a full span ring's 262,144 events plus the
/// metadata would take 32 MiB, not 16.)
pub fn chrome_trace_report(report: &RunReport) -> ChromeTrace {
    let mut out = ChromeTrace::new();
    let mut procs: BTreeSet<u64> = BTreeSet::new();
    let mut threads: BTreeSet<(u64, u64)> = BTreeSet::new();
    for r in &report.spans {
        let pid = pid_of(r.loc);
        if procs.insert(pid) {
            out.add_process(pid, r.loc.to_string());
        }
        if threads.insert((pid, u64::from(r.dev))) {
            let name = report.device_names.get(r.dev as usize).cloned();
            let name = name.unwrap_or_else(|| format!("dev{}", r.dev));
            out.add_thread(pid, u64::from(r.dev), name);
        }
    }
    out.reserve(report.spans.len());
    for r in &report.spans {
        out.add_span(r, report.store.name_of(r.stage), pid_of(r.loc));
    }
    out
}

/// Store counters as integer telemetry counters (they are all counts or
/// byte totals, accumulated in `f64` slots).
fn telemetry_counters(store: &SampleStore) -> BTreeMap<String, u64> {
    store
        .counter_names()
        .map(|n| (n.to_string(), store.counter(n) as u64))
        .collect()
}

/// Flow-table hit rate: fast-path frames over all delivered frames (a
/// packet-level delivery records one `flow.adverts` at absorption, a
/// fast-path delivery one `flow.fastpath_frames`). 0.0 when the flow
/// table never ran.
fn flow_hit_rate(store: &SampleStore) -> f64 {
    let fast = store.counter("flow.fastpath_frames");
    let slow = store.counter("flow.adverts");
    if fast + slow > 0.0 {
        fast / (fast + slow)
    } else {
        0.0
    }
}

/// Mean re-promotion dwell (ns) over the journal's `CniRepromote`
/// records, whose operand `b` carries the degraded dwell time.
fn degrade_dwell_ns(journal: &[JournalRecord]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for r in journal {
        if r.kind == JournalKind::CniRepromote {
            sum += r.b as f64;
            n += 1;
        }
    }
    if n > 0 {
        sum / n as f64
    } else {
        0.0
    }
}

/// Unified telemetry export of a finished run: store counters, the
/// journal with its per-kind counts and drop accounting (journal, span
/// ring, event trace), and the derived [`HealthSummary`]. Everything but
/// the coordinator's round count (`rounds`, from
/// [`SyncStats`](crate::SyncStats); zero for sequential runs) is identical
/// at any shard count. `rollback_rate`, `ring_stalls` and
/// `ring_high_water` are always zero: the coordinator never rolls back
/// and has no rings, and v1 keeps the fields.
pub fn telemetry_report(report: &RunReport, label: &str) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot::new(label, report.telemetry_mode.label());
    snap.counters = telemetry_counters(&report.store);
    snap.set_journal(
        report.journal.clone(),
        &report.journal_counts,
        report.journal_dropped,
    );
    snap.drops.spans = report.spans_dropped;
    snap.drops.trace = report.trace_dropped;
    snap.health = HealthSummary {
        rounds: report.sync.rounds,
        rollback_rate: 0.0,
        ring_stalls: 0,
        ring_high_water: 0,
        flow_hit_rate: flow_hit_rate(&report.store),
        degrade_dwell_ns: degrade_dwell_ns(&snap.journal),
    };
    snap
}

/// Perfetto counter tracks for a telemetry snapshot: every decimated
/// tick series becomes one `C`-phase track (pid 1, alongside the host's
/// span rows), plus one cumulative track per journal kind replaying the
/// kept records. Merge with [`chrome_trace_report`] output or load
/// standalone.
pub fn chrome_counter_tracks(snap: &TelemetrySnapshot) -> ChromeTrace {
    let mut out = ChromeTrace::new();
    out.add_process(1, "telemetry");
    for s in &snap.series {
        for &(at_ns, v) in &s.points {
            out.add_counter(&s.name, 1, at_ns, v);
        }
    }
    let mut running = [0u64; metrics::JOURNAL_KINDS];
    for r in &snap.journal {
        running[r.kind as usize] += 1;
        out.add_counter(
            &format!("journal.{}", r.kind.label()),
            1,
            r.tag.at_ns,
            running[r.kind as usize] as f64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pids_separate_host_and_vms() {
        assert_eq!(pid_of(CpuLocation::Host), 1);
        assert_eq!(pid_of(CpuLocation::Vm(0)), 1000);
        assert_eq!(pid_of(CpuLocation::Vm(7)), 1007);
    }

    #[test]
    fn empty_network_snapshots_cleanly() {
        let report = crate::Network::new(1).take_report();
        let snap = snapshot_report(&report, "empty");
        assert_eq!(snap.schema, SNAPSHOT_SCHEMA);
        assert_eq!(snap.label, "empty");
        assert_eq!(snap.trace_mode, "off");
        assert!(snap.stages.is_empty());
        assert_eq!(snap.spans.emitted, 0);
        let trace = chrome_trace_report(&report);
        assert!(trace.is_empty());
    }

    /// Three spans whose timestamps and durations cover 0, 0.001, 1,
    /// 12345.678 and 4294967.295 µs: the first has no parent, the third
    /// runs in a VM, so the trace holds both metadata kinds for two
    /// processes.
    fn pinned_report() -> RunReport {
        let mut report = crate::Network::new(1).take_report();
        let veth = report.store.metric_id("stage.veth");
        let nat = report.store.metric_id("stage.nat");
        report.device_names = vec!["veth0".into(), "nat \"guest\"".into()];
        let span = |seq, parent, stage, dev, loc, enter: u64, dur: u64| SpanRecord {
            trace: 7,
            span: metrics::SpanId { src: dev, seq },
            parent,
            stage,
            dev,
            loc,
            enter,
            exit: enter + dur,
            cpu_ns: seq * 250,
        };
        let first = metrics::SpanId { src: 0, seq: 1 };
        let second = metrics::SpanId { src: 0, seq: 2 };
        report.spans = vec![
            span(1, metrics::SpanId::NONE, veth, 0, CpuLocation::Host, 0, 1),
            span(2, first, veth, 0, CpuLocation::Host, 1_000, 12_345_678),
            span(3, second, nat, 1, CpuLocation::Vm(2), 4_294_967_295, 0),
        ];
        report
    }

    /// A series with two points plus one journal record, at the pinned
    /// timestamps.
    fn pinned_telemetry() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new("pinned", "full");
        snap.series.push(metrics::SeriesExport {
            name: "ring.spans".into(),
            stride: 1,
            points: vec![(12_345_678, 0.5), (4_294_967_295, 3.0)],
        });
        snap.journal.push(JournalRecord {
            tag: metrics::JournalTag {
                at_ns: 1,
                src: 0,
                seq: 1,
            },
            kind: JournalKind::FaultOpen,
            a: 0,
            b: 0,
            c: 0,
        });
        snap
    }

    /// Fixes the exact bytes of every Chrome event shape, compact and
    /// pretty: `X` spans with and without a parent, `M` process and
    /// thread names, and `C` counter points.
    #[test]
    fn chrome_event_bytes_pinned() {
        let trace = chrome_trace_report(&pinned_report());
        let tracks = chrome_counter_tracks(&pinned_telemetry());
        assert_eq!(
            serde_json::to_string(&trace).unwrap(),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"ph":"M","name":"process_name","cat":"__metadata","ts":0.0,"dur":0.0,"pid":1,"tid":0,"args":{"name":"host","trace":null,"parent":null,"cpu_ns":null,"value":null}},"#,
                r#"{"ph":"M","name":"thread_name","cat":"__metadata","ts":0.0,"dur":0.0,"pid":1,"tid":0,"args":{"name":"veth0","trace":null,"parent":null,"cpu_ns":null,"value":null}},"#,
                r#"{"ph":"M","name":"process_name","cat":"__metadata","ts":0.0,"dur":0.0,"pid":1002,"tid":0,"args":{"name":"vm2","trace":null,"parent":null,"cpu_ns":null,"value":null}},"#,
                r#"{"ph":"M","name":"thread_name","cat":"__metadata","ts":0.0,"dur":0.0,"pid":1002,"tid":1,"args":{"name":"nat \"guest\"","trace":null,"parent":null,"cpu_ns":null,"value":null}},"#,
                r#"{"ph":"X","name":"stage.veth","cat":"packet","ts":0.0,"dur":0.001,"pid":1,"tid":0,"args":{"name":null,"trace":7,"parent":null,"cpu_ns":250,"value":null}},"#,
                r#"{"ph":"X","name":"stage.veth","cat":"packet","ts":1.0,"dur":12345.678,"pid":1,"tid":0,"args":{"name":null,"trace":7,"parent":"0:1","cpu_ns":500,"value":null}},"#,
                r#"{"ph":"X","name":"stage.nat","cat":"packet","ts":4294967.295,"dur":0.0,"pid":1002,"tid":1,"args":{"name":null,"trace":7,"parent":"0:2","cpu_ns":750,"value":null}}"#,
                r#"]}"#
            )
        );
        assert_eq!(
            serde_json::to_string(&tracks).unwrap(),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"ph":"M","name":"process_name","cat":"__metadata","ts":0.0,"dur":0.0,"pid":1,"tid":0,"args":{"name":"telemetry","trace":null,"parent":null,"cpu_ns":null,"value":null}},"#,
                r#"{"ph":"C","name":"ring.spans","cat":"telemetry","ts":12345.678,"dur":0.0,"pid":1,"tid":0,"args":{"name":null,"trace":null,"parent":null,"cpu_ns":null,"value":0.5}},"#,
                r#"{"ph":"C","name":"ring.spans","cat":"telemetry","ts":4294967.295,"dur":0.0,"pid":1,"tid":0,"args":{"name":null,"trace":null,"parent":null,"cpu_ns":null,"value":3.0}},"#,
                r#"{"ph":"C","name":"journal.fault.open","cat":"telemetry","ts":0.001,"dur":0.0,"pid":1,"tid":0,"args":{"name":null,"trace":null,"parent":null,"cpu_ns":null,"value":1.0}}"#,
                r#"]}"#
            )
        );
        assert_eq!(
            serde_json::to_string_pretty(&trace).unwrap(),
            r#"{
  "traceEvents": [
    {
      "ph": "M",
      "name": "process_name",
      "cat": "__metadata",
      "ts": 0.0,
      "dur": 0.0,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": "host",
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": null
      }
    },
    {
      "ph": "M",
      "name": "thread_name",
      "cat": "__metadata",
      "ts": 0.0,
      "dur": 0.0,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": "veth0",
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": null
      }
    },
    {
      "ph": "M",
      "name": "process_name",
      "cat": "__metadata",
      "ts": 0.0,
      "dur": 0.0,
      "pid": 1002,
      "tid": 0,
      "args": {
        "name": "vm2",
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": null
      }
    },
    {
      "ph": "M",
      "name": "thread_name",
      "cat": "__metadata",
      "ts": 0.0,
      "dur": 0.0,
      "pid": 1002,
      "tid": 1,
      "args": {
        "name": "nat \"guest\"",
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": null
      }
    },
    {
      "ph": "X",
      "name": "stage.veth",
      "cat": "packet",
      "ts": 0.0,
      "dur": 0.001,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": null,
        "trace": 7,
        "parent": null,
        "cpu_ns": 250,
        "value": null
      }
    },
    {
      "ph": "X",
      "name": "stage.veth",
      "cat": "packet",
      "ts": 1.0,
      "dur": 12345.678,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": null,
        "trace": 7,
        "parent": "0:1",
        "cpu_ns": 500,
        "value": null
      }
    },
    {
      "ph": "X",
      "name": "stage.nat",
      "cat": "packet",
      "ts": 4294967.295,
      "dur": 0.0,
      "pid": 1002,
      "tid": 1,
      "args": {
        "name": null,
        "trace": 7,
        "parent": "0:2",
        "cpu_ns": 750,
        "value": null
      }
    }
  ]
}"#
        );
        assert_eq!(
            serde_json::to_string_pretty(&tracks).unwrap(),
            r#"{
  "traceEvents": [
    {
      "ph": "M",
      "name": "process_name",
      "cat": "__metadata",
      "ts": 0.0,
      "dur": 0.0,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": "telemetry",
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": null
      }
    },
    {
      "ph": "C",
      "name": "ring.spans",
      "cat": "telemetry",
      "ts": 12345.678,
      "dur": 0.0,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": null,
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": 0.5
      }
    },
    {
      "ph": "C",
      "name": "ring.spans",
      "cat": "telemetry",
      "ts": 4294967.295,
      "dur": 0.0,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": null,
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": 3.0
      }
    },
    {
      "ph": "C",
      "name": "journal.fault.open",
      "cat": "telemetry",
      "ts": 0.001,
      "dur": 0.0,
      "pid": 1,
      "tid": 0,
      "args": {
        "name": null,
        "trace": null,
        "parent": null,
        "cpu_ns": null,
        "value": 1.0
      }
    }
  ]
}"#
        );
    }
}
