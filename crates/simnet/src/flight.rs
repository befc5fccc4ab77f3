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
    for r in &report.spans {
        let stage = report.store.name_of(r.stage);
        out.add_span(r, stage, pid_of(r.loc), u64::from(r.dev));
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
    out.add_process(1, "telemetry".to_string());
    for s in &snap.series {
        for &(at_ns, v) in &s.points {
            out.add_counter(s.name.clone(), 1, at_ns, v);
        }
    }
    let mut running = [0u64; metrics::JOURNAL_KINDS];
    for r in &snap.journal {
        running[r.kind as usize] += 1;
        out.add_counter(
            format!("journal.{}", r.kind.label()),
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
}
