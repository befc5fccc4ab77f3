//! The unified telemetry export shapes.
//!
//! The journal (`journal.rs`) answers "what did the control plane
//! decide"; this module answers "what were the rates and levels while it
//! did". Harnesses fill a [`TelemetrySnapshot`] after a run: counters,
//! gauges, [`HistSummary`]s of log2 histograms, and [`TickSeries`] with
//! streaming decimation so week-long simulated horizons stay bounded.
//!
//! Exports:
//!
//! * [`TelemetrySnapshot`] — the versioned JSON shape
//!   (`nestless.telemetry.v1`) bundling counters, gauges, histogram
//!   summaries, decimated series, journal records, per-kind counts, drop
//!   accounting for every bounded ring, and a [`HealthSummary`];
//! * [`TelemetrySnapshot::prometheus_text`] — Prometheus text exposition
//!   (one scrape of the run);
//! * Perfetto counter tracks ride through `ChromeTrace` (see
//!   `flight.rs::ChromeTrace::add_counter`).

use crate::flight::Log2Hist;
use crate::journal::{JournalKind, JournalRecord, JOURNAL_KINDS};
use serde::Serialize;
use std::collections::BTreeMap;

/// Schema tag stamped into every [`TelemetrySnapshot`].
pub const TELEMETRY_SCHEMA: &str = "nestless.telemetry.v1";

/// Default point cap per tick series before decimation halves it.
pub const DEFAULT_SERIES_CAP: usize = 4_096;

/// One tick-sampled series with streaming decimation: when the point
/// buffer reaches its cap, every other point is discarded and the keep
/// stride doubles, so memory stays `O(cap)` for any horizon while the
/// surviving points remain an even subsample.
#[derive(Debug, Clone)]
pub struct TickSeries {
    cap: usize,
    stride: u64,
    ticks: u64,
    points: Vec<(u64, f64)>,
}

impl TickSeries {
    /// An empty series keeping fewer than `cap` points (at least 2; see
    /// [`DEFAULT_SERIES_CAP`]).
    pub fn new(cap: usize) -> TickSeries {
        TickSeries {
            cap: cap.max(2),
            stride: 1,
            ticks: 0,
            points: Vec::new(),
        }
    }

    /// Offers one sample at sim-time `at_ns`. Samples between strides are
    /// skipped; an accepted sample that fills the buffer triggers
    /// decimation.
    pub fn push(&mut self, at_ns: u64, value: f64) {
        let tick = self.ticks;
        self.ticks += 1;
        if !tick.is_multiple_of(self.stride) {
            return;
        }
        self.points.push((at_ns, value));
        if self.points.len() >= self.cap {
            self.decimate();
        }
    }

    /// Enforces the cap by repeatedly discarding every other point (and
    /// doubling the stride). Idempotent: a series already under its cap is
    /// returned unchanged.
    pub fn decimate(&mut self) {
        while self.points.len() >= self.cap {
            let mut keep = 0usize;
            for i in (0..self.points.len()).step_by(2) {
                self.points[keep] = self.points[i];
                keep += 1;
            }
            self.points.truncate(keep);
            self.stride *= 2;
        }
    }

    /// Surviving `(at_ns, value)` points, oldest first.
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Current keep stride (1 until the first decimation).
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// Total samples offered (kept + skipped + decimated away).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The series as a snapshot entry named `name`.
    pub fn export(&self, name: &str) -> SeriesExport {
        SeriesExport {
            name: name.to_string(),
            stride: self.stride,
            points: self.points.clone(),
        }
    }
}

/// Quantile summary of a [`Log2Hist`] (bucket upper bounds, so coarse).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistSummary {
    /// Total observations.
    pub count: u64,
    /// Upper bound of the bucket holding the median.
    pub p50: u64,
    /// Upper bound of the bucket holding the 90th percentile.
    pub p90: u64,
    /// Upper bound of the bucket holding the 99th percentile.
    pub p99: u64,
}

impl HistSummary {
    /// Summarizes a histogram.
    pub fn of(h: &Log2Hist) -> HistSummary {
        HistSummary {
            count: h.count(),
            p50: h.quantile_bound(0.50),
            p90: h.quantile_bound(0.90),
            p99: h.quantile_bound(0.99),
        }
    }
}

/// One decimated series in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SeriesExport {
    /// Metric name.
    pub name: String,
    /// Final keep stride (1 = no decimation happened).
    pub stride: u64,
    /// `(sim time ns, value)` points, oldest first.
    pub points: Vec<(u64, f64)>,
}

/// Drop accounting for every bounded buffer that fed a snapshot — a ring
/// hitting capacity must surface here, never truncate silently.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DropAccounting {
    /// Journal records emitted but not kept.
    pub journal: u64,
    /// Span records emitted but not kept (flight recorder ring).
    pub spans: u64,
    /// Event-trace entries emitted but not kept.
    pub trace: u64,
}

/// Derived health indicators for the run, computed from journal counts
/// and coordinator statistics at export time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct HealthSummary {
    /// Coordinator rounds executed (0 for sequential runs).
    pub rounds: u64,
    /// Always 0.0: the coordinator is conservative and never rolls back.
    /// Kept so `nestless.telemetry.v1` documents stay byte-identical.
    pub rollback_rate: f64,
    /// Always 0: cross-shard frames ride the coordinator's round
    /// messages, so there is no ring to stall. Kept so
    /// `nestless.telemetry.v1` documents stay byte-identical.
    pub ring_stalls: u64,
    /// Always 0, for the same reason as `ring_stalls`.
    pub ring_high_water: u64,
    /// Fast-path frames / (fast-path + packet-path frames), when the flow
    /// table ran (0.0 otherwise).
    pub flow_hit_rate: f64,
    /// Mean ns a degraded pod waited before re-promotion (0.0 when no
    /// re-promotions happened).
    pub degrade_dwell_ns: f64,
}

/// The unified telemetry export: versioned, self-describing, and honest
/// about loss (see [`DropAccounting`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TelemetrySnapshot {
    /// Always [`TELEMETRY_SCHEMA`].
    pub schema: String,
    /// Caller-chosen run label.
    pub label: String,
    /// Telemetry mode label the run used (`off`/`counters`/`full`).
    pub mode: String,
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistSummary>,
    /// Decimated tick series.
    pub series: Vec<SeriesExport>,
    /// Kept journal records, in deterministic emission order.
    pub journal: Vec<JournalRecord>,
    /// Per-kind journal emission counts (kept + dropped), by kind label.
    pub journal_counts: BTreeMap<String, u64>,
    /// Drop accounting for every bounded ring.
    pub drops: DropAccounting,
    /// Derived health indicators.
    pub health: HealthSummary,
}

impl TelemetrySnapshot {
    /// An empty snapshot with the schema stamped.
    pub fn new(label: &str, mode: &str) -> TelemetrySnapshot {
        TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA.to_string(),
            label: label.to_string(),
            mode: mode.to_string(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            series: Vec::new(),
            journal: Vec::new(),
            journal_counts: BTreeMap::new(),
            drops: DropAccounting::default(),
            health: HealthSummary::default(),
        }
    }

    /// Installs journal output: kept records, per-kind counts, drops.
    pub fn set_journal(
        &mut self,
        records: Vec<JournalRecord>,
        counts: &[u64; JOURNAL_KINDS],
        dropped: u64,
    ) {
        self.journal = records;
        self.journal_counts = JournalKind::ALL
            .iter()
            .filter(|k| counts[**k as usize] > 0)
            .map(|k| (k.label().to_string(), counts[*k as usize]))
            .collect();
        self.drops.journal = dropped;
    }

    /// Journal emission count for one kind (0 when absent).
    pub fn journal_count(&self, kind: JournalKind) -> u64 {
        self.journal_counts.get(kind.label()).copied().unwrap_or(0)
    }

    /// Prometheus text exposition of the snapshot: counters and journal
    /// counts as `counter`, gauges and health fields as `gauge`, histogram
    /// quantile bounds as labelled gauges. Metric names are sanitized
    /// (`.` and `-` become `_`) and prefixed `nestless_`.
    pub fn prometheus_text(&self) -> String {
        fn san(name: &str) -> String {
            name.chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect()
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = san(name);
            out.push_str(&format!(
                "# TYPE nestless_{n} counter\nnestless_{n}{{run=\"{}\"}} {v}\n",
                self.label
            ));
        }
        for (name, v) in &self.journal_counts {
            let n = san(name);
            out.push_str(&format!(
                "# TYPE nestless_journal_{n} counter\nnestless_journal_{n}{{run=\"{}\"}} {v}\n",
                self.label
            ));
        }
        for (name, v) in &self.gauges {
            let n = san(name);
            out.push_str(&format!(
                "# TYPE nestless_{n} gauge\nnestless_{n}{{run=\"{}\"}} {v}\n",
                self.label
            ));
        }
        for (name, h) in &self.histograms {
            let n = san(name);
            out.push_str(&format!("# TYPE nestless_{n} summary\n"));
            for (q, v) in [(0.5, h.p50), (0.9, h.p90), (0.99, h.p99)] {
                out.push_str(&format!(
                    "nestless_{n}{{run=\"{}\",quantile=\"{q}\"}} {v}\n",
                    self.label
                ));
            }
            out.push_str(&format!(
                "nestless_{n}_count{{run=\"{}\"}} {}\n",
                self.label, h.count
            ));
        }
        for (name, v) in [
            ("drops_journal", self.drops.journal),
            ("drops_spans", self.drops.spans),
            ("drops_trace", self.drops.trace),
            ("health_rounds", self.health.rounds),
            ("health_ring_stalls", self.health.ring_stalls),
            ("health_ring_high_water", self.health.ring_high_water),
        ] {
            out.push_str(&format!(
                "# TYPE nestless_{name} gauge\nnestless_{name}{{run=\"{}\"}} {v}\n",
                self.label
            ));
        }
        for (name, v) in [
            ("health_rollback_rate", self.health.rollback_rate),
            ("health_flow_hit_rate", self.health.flow_hit_rate),
            ("health_degrade_dwell_ns", self.health.degrade_dwell_ns),
        ] {
            out.push_str(&format!(
                "# TYPE nestless_{name} gauge\nnestless_{name}{{run=\"{}\"}} {v}\n",
                self.label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalTag;

    #[test]
    fn tick_series_decimates_and_stays_bounded() {
        let mut s = TickSeries::new(8);
        for i in 0..1_000u64 {
            s.push(i * 10, i as f64);
        }
        assert!(s.points().len() < 8, "cap enforced");
        assert!(s.stride() >= 2, "decimation kicked in");
        let xs: Vec<u64> = s.points().iter().map(|p| p.0).collect();
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(xs, sorted, "points stay time-ordered");
        assert_eq!(s.points()[0].0, 0, "first point survives decimation");
    }

    #[test]
    fn decimate_is_idempotent_under_cap() {
        let mut s = TickSeries::new(16);
        for i in 0..10u64 {
            s.push(i, i as f64);
        }
        let before = s.points().to_vec();
        let stride = s.stride();
        s.decimate();
        assert_eq!(s.points(), &before[..], "under-cap decimate is identity");
        assert_eq!(s.stride(), stride);
    }

    #[test]
    fn prometheus_text_sanitizes_names() {
        let mut snap = TelemetrySnapshot::new("demo", "full");
        snap.counters.insert("flow.fastpath_frames".into(), 42);
        let text = snap.prometheus_text();
        assert!(text.contains("nestless_flow_fastpath_frames{run=\"demo\"} 42"));
        assert!(!text.contains("flow.fastpath"), "dots sanitized");
    }

    /// Pins the compact JSON of a small snapshot, key order included.
    #[test]
    fn snapshot_json_bytes_pinned() {
        let mut snap = TelemetrySnapshot::new("rt", "counters");
        snap.journal.push(JournalRecord {
            tag: JournalTag {
                at_ns: 5,
                src: 1,
                seq: 2,
            },
            kind: JournalKind::FlowPromote,
            a: 1,
            b: 2,
            c: 3,
        });
        let mut counts = [0u64; JOURNAL_KINDS];
        counts[JournalKind::FlowPromote as usize] = 7;
        snap.set_journal(snap.journal.clone(), &counts, 2);
        assert_eq!(snap.schema, TELEMETRY_SCHEMA);
        assert_eq!(snap.journal_count(JournalKind::FlowPromote), 7);
        assert_eq!(snap.drops.journal, 2);
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            concat!(
                r#"{"schema":"nestless.telemetry.v1","label":"rt","mode":"counters","#,
                r#""counters":{},"gauges":{},"histograms":{},"series":[],"#,
                r#""journal":[{"tag":{"at_ns":5,"src":1,"seq":2},"kind":"FlowPromote","#,
                r#""a":1,"b":2,"c":3}],"journal_counts":{"flow.promote":7},"#,
                r#""drops":{"journal":2,"spans":0,"trace":0},"#,
                r#""health":{"rounds":0,"rollback_rate":0.0,"ring_stalls":0,"#,
                r#""ring_high_water":0,"flow_hit_rate":0.0,"degrade_dwell_ns":0.0}}"#
            )
        );
    }
}
