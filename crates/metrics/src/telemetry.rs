//! Live metrics registry and the unified telemetry export shapes.
//!
//! The journal (`journal.rs`) answers "what did the control plane
//! decide"; this module answers "what were the rates and levels while it
//! did". A [`TelemetryRegistry`] holds interned, fixed-slot counters,
//! gauges and log2 histograms — registration allocates, steady-state
//! updates never do — plus tick-sampled time series with streaming
//! decimation so week-long simulated horizons stay bounded.
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
use crate::intern::{Interner, MetricId};
use crate::journal::{JournalKind, JournalRecord, JOURNAL_KINDS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema tag stamped into every [`TelemetrySnapshot`].
pub const TELEMETRY_SCHEMA: &str = "nestless.telemetry.v1";

/// Default point cap per tick series before decimation halves it.
pub const DEFAULT_SERIES_CAP: usize = 4_096;

/// Handle to a registered counter (monotonic `u64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (`f64` level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered log2 histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// One tick-sampled series with streaming decimation: when the point
/// buffer reaches its cap, every other point is discarded and the keep
/// stride doubles, so memory stays `O(cap)` for any horizon while the
/// surviving points remain an even subsample.
#[derive(Debug, Clone)]
pub struct TickSeries {
    name: MetricId,
    cap: usize,
    stride: u64,
    ticks: u64,
    points: Vec<(u64, f64)>,
}

impl TickSeries {
    fn new(name: MetricId, cap: usize) -> TickSeries {
        TickSeries {
            name,
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
}

/// Interned, fixed-slot metrics registry. Registration (name → handle)
/// allocates; `inc`/`set`/`observe`/`sample` on existing handles do not.
#[derive(Debug, Default)]
pub struct TelemetryRegistry {
    names: Interner,
    counters: Vec<(MetricId, u64)>,
    gauges: Vec<(MetricId, f64)>,
    hists: Vec<(MetricId, Log2Hist)>,
    series: Vec<TickSeries>,
    series_cap: usize,
}

impl TelemetryRegistry {
    /// An empty registry with the default series cap.
    pub fn new() -> TelemetryRegistry {
        TelemetryRegistry {
            series_cap: DEFAULT_SERIES_CAP,
            ..TelemetryRegistry::default()
        }
    }

    /// Same registry with a different per-series point cap.
    pub fn with_series_cap(mut self, cap: usize) -> TelemetryRegistry {
        self.series_cap = cap.max(2);
        self
    }

    /// Registers (or finds) a counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        let id = self.names.intern(name);
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == id) {
            return CounterId(i);
        }
        self.counters.push((id, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        let id = self.names.intern(name);
        if let Some(i) = self.gauges.iter().position(|(n, _)| *n == id) {
            return GaugeId(i);
        }
        self.gauges.push((id, 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a log2 histogram.
    pub fn hist(&mut self, name: &str) -> HistId {
        let id = self.names.intern(name);
        if let Some(i) = self.hists.iter().position(|(n, _)| *n == id) {
            return HistId(i);
        }
        self.hists.push((id, Log2Hist::new()));
        HistId(self.hists.len() - 1)
    }

    /// Registers a tick series and returns its index.
    pub fn series(&mut self, name: &str) -> usize {
        let id = self.names.intern(name);
        if let Some(i) = self.series.iter().position(|s| s.name == id) {
            return i;
        }
        self.series.push(TickSeries::new(id, self.series_cap));
        self.series.len() - 1
    }

    /// Bumps a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 = self.counters[id.0].1.saturating_add(by);
    }

    /// Sets a gauge level.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0].1 = v;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0].1.record(v);
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Current gauge level.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].1
    }

    /// Samples one series at sim-time `at_ns`.
    pub fn sample(&mut self, series: usize, at_ns: u64, value: f64) {
        self.series[series].push(at_ns, value);
    }

    /// The tick series, in registration order.
    pub fn tick_series(&self) -> &[TickSeries] {
        &self.series
    }

    /// Resolves an interned metric name.
    pub fn name_of(&self, id: MetricId) -> &str {
        self.names.name(id)
    }

    /// Folds the registry into an (initially journal-less) snapshot.
    pub fn snapshot(&self, label: &str, mode: &str) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::new(label, mode);
        for (id, v) in &self.counters {
            snap.counters.insert(self.names.name(*id).to_string(), *v);
        }
        for (id, v) in &self.gauges {
            snap.gauges.insert(self.names.name(*id).to_string(), *v);
        }
        for (id, h) in &self.hists {
            snap.histograms
                .insert(self.names.name(*id).to_string(), HistSummary::of(h));
        }
        for s in &self.series {
            snap.series.push(SeriesExport {
                name: self.names.name(s.name).to_string(),
                stride: s.stride,
                points: s.points.iter().map(|&(x, y)| (x, y)).collect(),
            });
        }
        snap
    }
}

/// Quantile summary of a [`Log2Hist`] (bucket upper bounds, so coarse).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropAccounting {
    /// Journal records emitted but not kept.
    pub journal: u64,
    /// Span records emitted but not kept (flight recorder ring).
    pub spans: u64,
    /// Event-trace entries emitted but not kept.
    pub trace: u64,
}

impl DropAccounting {
    /// True when nothing was dropped anywhere.
    pub fn is_clean(&self) -> bool {
        self.journal == 0 && self.spans == 0 && self.trace == 0
    }
}

/// Derived health indicators for the run, computed from journal counts
/// and coordinator statistics at export time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthSummary {
    /// Coordinator rounds executed (0 for sequential runs).
    pub rounds: u64,
    /// Always 0.0: the coordinator is conservative and never rolls back.
    /// Kept so `nestless.telemetry.v1` documents stay byte-identical.
    pub rollback_rate: f64,
    /// Times a cross-shard ring producer had to spin for space.
    pub ring_stalls: u64,
    /// Peak occupancy over all cross-shard rings.
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    fn registry_counters_gauges_hists_round_trip() {
        let mut reg = TelemetryRegistry::new();
        let c = reg.counter("placements");
        let g = reg.gauge("occupancy");
        let h = reg.hist("latency_ns");
        reg.inc(c, 3);
        reg.set(g, 0.75);
        reg.observe(h, 1024);
        reg.observe(h, 2048);
        assert_eq!(reg.counter_value(c), 3);
        assert_eq!(reg.gauge_value(g), 0.75);
        let snap = reg.snapshot("t", "full");
        assert_eq!(snap.counters["placements"], 3);
        assert_eq!(snap.gauges["occupancy"], 0.75);
        assert_eq!(snap.histograms["latency_ns"].count, 2);
        assert_eq!(reg.counter("placements"), c, "re-registration finds");
    }

    #[test]
    fn tick_series_decimates_and_stays_bounded() {
        let mut s = TickSeries::new(MetricId::from_index(0), 8);
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
        let mut s = TickSeries::new(MetricId::from_index(0), 16);
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

    #[test]
    fn snapshot_json_round_trips() {
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
        let json = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.schema, TELEMETRY_SCHEMA);
        assert_eq!(back.journal_count(JournalKind::FlowPromote), 7);
        assert_eq!(back.drops.journal, 2);
    }
}
