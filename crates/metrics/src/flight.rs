//! Packet flight recorder: span records, per-stage aggregates, and the
//! serializable export shapes (`RunSnapshot`, Chrome `trace_event`).
//!
//! The paper's headline results are *path-shape* results: BrFusion wins
//! because it removes per-packet stages, and every figure is a per-stage
//! latency/CPU delta. This module holds the plain-data side of the flight
//! recorder — the simulation engine (crate `nestless-simnet`) emits
//! [`SpanRecord`]s at every per-packet stage, accumulates [`StageTable`]
//! aggregates, and exports runs through the serde types here.
//!
//! Design constraints, in order:
//!
//! 1. *Determinism*: spans carry intrinsic identity (`(src device, seq)`)
//!    so the sharded engine can journal-merge them into the exact
//!    sequential interleaving, bit-identical for any shard count.
//! 2. *Hot-path cost*: a [`SpanRecord`] is `Copy`, stage names are interned
//!    [`MetricId`]s, and aggregation is integer-only ([`Log2Hist`]) so
//!    counters-only mode allocates nothing in steady state and merges are
//!    order-independent.
//! 3. *Bounded memory*: spans ride a [`Ring`](crate::Ring), which keeps
//!    the first `cap` records and counts the rest instead of silently
//!    truncating.

use crate::cdf::Cdf;
use crate::cpu::{CpuCategory, CpuLocation};
use crate::intern::MetricId;
use crate::ring::ObsMode;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Default bound on retained span records: 262,144 records of 80 bytes,
/// 20 MiB when full.
pub const DEFAULT_SPAN_CAP: usize = 262_144;

/// Flight-recorder configuration, set on a network before a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Hot-path mode: `Counters` keeps per-stage aggregates, `Full` adds
    /// span records.
    pub mode: ObsMode,
    /// Maximum span records retained (first-`cap` kept; rest counted as
    /// dropped). Only meaningful in [`ObsMode::Full`].
    pub span_cap: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

impl TraceConfig {
    /// Everything off (the default; zero-alloc, one branch per stage).
    pub fn off() -> TraceConfig {
        TraceConfig {
            mode: ObsMode::Off,
            span_cap: DEFAULT_SPAN_CAP,
        }
    }

    /// Per-stage aggregates only.
    pub fn counters() -> TraceConfig {
        TraceConfig {
            mode: ObsMode::Counters,
            span_cap: DEFAULT_SPAN_CAP,
        }
    }

    /// Full span recording with the default cap.
    pub fn full() -> TraceConfig {
        TraceConfig {
            mode: ObsMode::Full,
            span_cap: DEFAULT_SPAN_CAP,
        }
    }

    /// Same mode with a different span cap.
    pub fn with_span_cap(mut self, cap: usize) -> TraceConfig {
        self.span_cap = cap;
        self
    }
}

/// Intrinsic span identity: the emitting device plus a per-device
/// monotonic sequence number.
///
/// Like the engine's event tags, this identity is a pure function of the
/// simulation (not of sharding or thread scheduling), which is what makes
/// span streams mergeable bit-identically across shard counts.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SpanId {
    /// Emitting device id.
    pub src: u32,
    /// 1-based per-device sequence number; 0 means "no span".
    pub seq: u64,
}

impl SpanId {
    /// The null span id (used as "no parent").
    pub const NONE: SpanId = SpanId { src: 0, seq: 0 };

    /// True for the null id.
    pub fn is_none(self) -> bool {
        self.seq == 0
    }
}

/// Trace context carried inside a [`Frame`](https://docs.rs/) as it moves
/// through the datapath: the per-frame trace id and the span of the stage
/// that most recently handled the frame (the parent of the next span).
///
/// `FlightStamp` deliberately compares equal to everything: frames differ
/// by *content*, and two frames with identical headers and payload are the
/// same frame for every protocol purpose (VXLAN decap round-trips, NAT
/// conntrack keys) regardless of what the recorder scribbled on them.
#[derive(Debug, Clone, Copy, Default)]
pub struct FlightStamp {
    /// Per-frame trace id; 0 until the first traced stage stamps it.
    pub trace: u64,
    /// Span of the previous stage on this frame's path.
    pub parent: SpanId,
}

impl PartialEq for FlightStamp {
    fn eq(&self, _other: &FlightStamp) -> bool {
        true
    }
}

impl Eq for FlightStamp {}

/// One per-stage span: a frame spent `[enter, exit]` sim-time at a stage
/// and was charged `cpu_ns` of CPU there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Per-frame trace id the span belongs to.
    pub trace: u64,
    /// This span's identity.
    pub span: SpanId,
    /// Span of the previous stage on the frame's path ([`SpanId::NONE`] at
    /// the first stage).
    pub parent: SpanId,
    /// Interned stage name (resolved against the run's metric interner).
    pub stage: MetricId,
    /// Device that executed the stage.
    pub dev: u32,
    /// Where the CPU time was charged.
    pub loc: CpuLocation,
    /// Sim-time ns when the stage began handling the frame.
    pub enter: u64,
    /// Sim-time ns when the frame left the stage (service + queueing done).
    pub exit: u64,
    /// CPU nanoseconds charged while handling this frame at this stage.
    pub cpu_ns: u64,
}

impl SpanRecord {
    /// Stage latency in sim nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.exit.saturating_sub(self.enter)
    }
}

/// Power-of-two latency histogram: bucket `i` counts values with
/// `highest_set_bit == i` (bucket 0 counts zero). Integer-only, so merges
/// are exact and order-independent.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Hist {
    counts: [u64; 64],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist { counts: [0; 64] }
    }
}

impl Log2Hist {
    /// An empty histogram.
    pub fn new() -> Log2Hist {
        Log2Hist::default()
    }

    fn bucket_of(v: u64) -> usize {
        // floor(log2(v)) for v > 0; the caller maps v == 0 to bucket 0.
        ((64 - v.leading_zeros()) as usize)
            .saturating_sub(1)
            .min(63)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        let b = if v == 0 { 0 } else { Self::bucket_of(v) };
        self.counts[b] += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Adds another histogram bucket-wise (exact).
    pub fn merge(&mut self, other: &Log2Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Upper bound (exclusive) of the bucket containing quantile `q`
    /// (`0.0..=1.0`); 0 when empty. A coarse estimate — exact CDFs come
    /// from retained spans in full mode.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { 1u64 << (i + 1) };
            }
        }
        u64::MAX
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; 64] {
        &self.counts
    }
}

/// Additive per-stage aggregate: integer sums and a [`Log2Hist`], so
/// shard-local tables merge exactly in any order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageAgg {
    /// Frames that traversed the stage.
    pub frames: u64,
    /// Total CPU ns charged at the stage.
    pub cpu_ns: u64,
    /// Total stage latency (sim ns) across frames.
    pub lat_sum: u64,
    /// Minimum observed stage latency.
    pub lat_min: u64,
    /// Maximum observed stage latency.
    pub lat_max: u64,
    /// Latency distribution (power-of-two buckets).
    pub hist: Log2Hist,
}

impl Default for StageAgg {
    fn default() -> Self {
        StageAgg {
            frames: 0,
            cpu_ns: 0,
            lat_sum: 0,
            lat_min: u64::MAX,
            lat_max: 0,
            hist: Log2Hist::new(),
        }
    }
}

impl StageAgg {
    /// Records one frame with the given stage latency and CPU charge.
    pub fn record(&mut self, latency_ns: u64, cpu_ns: u64) {
        self.frames += 1;
        self.cpu_ns += cpu_ns;
        self.lat_sum += latency_ns;
        self.lat_min = self.lat_min.min(latency_ns);
        self.lat_max = self.lat_max.max(latency_ns);
        self.hist.record(latency_ns);
    }

    /// Adds another aggregate (exact, order-independent).
    pub fn merge(&mut self, other: &StageAgg) {
        self.frames += other.frames;
        self.cpu_ns += other.cpu_ns;
        self.lat_sum += other.lat_sum;
        self.lat_min = self.lat_min.min(other.lat_min);
        self.lat_max = self.lat_max.max(other.lat_max);
        self.hist.merge(&other.hist);
    }

    /// Mean latency in ns (0 when empty).
    pub fn lat_mean(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.lat_sum as f64 / self.frames as f64
        }
    }
}

/// Per-stage aggregates indexed by interned stage id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageTable {
    aggs: Vec<Option<StageAgg>>,
}

impl StageTable {
    /// An empty table.
    pub fn new() -> StageTable {
        StageTable::default()
    }

    /// Records one frame at `stage`.
    pub fn record(&mut self, stage: MetricId, latency_ns: u64, cpu_ns: u64) {
        let i = stage.index();
        if i >= self.aggs.len() {
            self.aggs.resize(i + 1, None);
        }
        self.aggs[i]
            .get_or_insert_with(StageAgg::default)
            .record(latency_ns, cpu_ns);
    }

    /// Aggregate for `stage`, if any frame traversed it.
    pub fn get(&self, stage: MetricId) -> Option<&StageAgg> {
        self.aggs.get(stage.index()).and_then(|a| a.as_ref())
    }

    /// Folds `other` in, translating its stage ids through `remap`
    /// (identity when merging tables that share an interner).
    pub fn merge_with(&mut self, other: &StageTable, mut remap: impl FnMut(MetricId) -> MetricId) {
        for (i, agg) in other.aggs.iter().enumerate() {
            if let Some(agg) = agg {
                let id = remap(MetricId::from_index(i));
                let j = id.index();
                if j >= self.aggs.len() {
                    self.aggs.resize(j + 1, None);
                }
                self.aggs[j]
                    .get_or_insert_with(StageAgg::default)
                    .merge(agg);
            }
        }
    }

    /// Iterates populated `(stage id, aggregate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, &StageAgg)> {
        self.aggs
            .iter()
            .enumerate()
            .filter_map(|(i, a)| a.as_ref().map(|a| (MetricId::from_index(i), a)))
    }

    /// True when no stage has recorded anything.
    pub fn is_empty(&self) -> bool {
        self.aggs.iter().all(|a| a.is_none())
    }
}

// ---------------------------------------------------------------------------
// RunSnapshot: the self-describing JSON export of a finished run.
// ---------------------------------------------------------------------------

/// Schema tag written into every snapshot.
pub const SNAPSHOT_SCHEMA: &str = "nestless.run_snapshot.v1";

/// Summary of one recorded sample series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl SampleSummary {
    /// Summarizes a sample slice (zeros when empty).
    pub fn of(samples: &[f64]) -> SampleSummary {
        if samples.is_empty() {
            return SampleSummary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let sum: f64 = samples.iter().sum();
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        SampleSummary {
            count: samples.len() as u64,
            mean: sum / samples.len() as f64,
            min,
            max,
        }
    }
}

/// One cell of the CPU attribution matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuCell {
    /// Location, via its `Display` form (`host`, `vm0`, ...).
    pub location: String,
    /// Category, via its `Display` form (`usr`, `sys`, `soft`, `guest`).
    pub category: String,
    /// Nanoseconds charged.
    pub ns: u64,
}

/// Latency distribution of one stage as exported in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyCdf {
    /// Frames observed.
    pub count: u64,
    /// Mean latency (ns).
    pub mean: f64,
    /// Minimum latency (ns).
    pub min: u64,
    /// Maximum latency (ns).
    pub max: u64,
    /// Median bound (ns). Exact when built from retained spans, else the
    /// log2-bucket upper bound.
    pub p50: f64,
    /// 90th percentile bound (ns).
    pub p90: f64,
    /// 99th percentile bound (ns).
    pub p99: f64,
    /// True when the percentiles are exact (computed from retained spans
    /// via [`Cdf`]) rather than log2-bucket bounds.
    pub exact: bool,
}

impl LatencyCdf {
    /// Builds from a stage aggregate alone (bucket-bound percentiles).
    pub fn from_agg(agg: &StageAgg) -> LatencyCdf {
        LatencyCdf {
            count: agg.frames,
            mean: agg.lat_mean(),
            min: if agg.frames == 0 { 0 } else { agg.lat_min },
            max: agg.lat_max,
            p50: agg.hist.quantile_bound(0.50) as f64,
            p90: agg.hist.quantile_bound(0.90) as f64,
            p99: agg.hist.quantile_bound(0.99) as f64,
            exact: false,
        }
    }

    /// Builds from an aggregate plus the exact per-frame latencies of the
    /// spans retained for this stage. Falls back to bucket bounds when the
    /// span ring dropped records for the stage (counts disagree).
    pub fn from_agg_and_latencies(agg: &StageAgg, latencies_ns: &[f64]) -> LatencyCdf {
        if latencies_ns.is_empty() || latencies_ns.len() as u64 != agg.frames {
            return LatencyCdf::from_agg(agg);
        }
        let cdf = Cdf::from_samples(latencies_ns.to_vec());
        let q = |p| cdf.quantile(p).unwrap_or(0.0);
        LatencyCdf {
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
            exact: true,
            ..LatencyCdf::from_agg(agg)
        }
    }
}

/// Per-stage entry of a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageSnapshot {
    /// Frames that traversed the stage.
    pub frames: u64,
    /// CPU ns charged at the stage.
    pub cpu_ns: u64,
    /// Latency distribution.
    pub latency_ns: LatencyCdf,
}

/// Span bookkeeping of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanAccounting {
    /// Spans emitted by stages (kept + dropped).
    pub emitted: u64,
    /// Spans retained in the ring.
    pub kept: u64,
    /// Spans dropped at the cap.
    pub dropped: u64,
}

/// Event-trace bookkeeping of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceAccounting {
    /// Entries retained.
    pub kept: u64,
    /// Entries dropped at the trace cap (100,000 entries).
    pub dropped: u64,
}

/// Everything a finished run exports: counters, sample summaries, CPU
/// attribution, per-stage latency CDFs, and recorder bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSnapshot {
    /// Schema tag ([`SNAPSHOT_SCHEMA`]).
    pub schema: String,
    /// Free-form run label set by the harness.
    pub label: String,
    /// Final simulation clock (ns).
    pub sim_now_ns: u64,
    /// Events processed by the engine.
    pub events_processed: u64,
    /// Frames dropped for lack of a link.
    pub dropped_no_link: u64,
    /// Recorder mode the run used.
    pub trace_mode: String,
    /// All counters by name.
    pub counters: BTreeMap<String, f64>,
    /// All sample series, summarized.
    pub samples: BTreeMap<String, SampleSummary>,
    /// CPU attribution by location × category (populated cells only).
    pub cpu: Vec<CpuCell>,
    /// Per-stage latency/CPU attribution by stage name.
    pub stages: BTreeMap<String, StageSnapshot>,
    /// Span bookkeeping.
    pub spans: SpanAccounting,
    /// Debug-trace bookkeeping.
    pub trace_entries: TraceAccounting,
}

/// Builds the CPU attribution cells from an account, in deterministic
/// (location, category) order, populated cells only.
pub fn cpu_cells(account: &crate::cpu::CpuAccount) -> Vec<CpuCell> {
    let mut cells = Vec::new();
    for loc in account.locations() {
        for cat in CpuCategory::ALL {
            let ns = account.get(loc, cat);
            if ns > 0 {
                cells.push(CpuCell {
                    location: loc.to_string(),
                    category: cat.to_string(),
                    ns,
                });
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Chrome trace_event export (Perfetto / chrome://tracing).
// ---------------------------------------------------------------------------

/// `args` payload of a [`TraceEvent`]; fields unused by an event kind
/// serialize as `null` (tolerated by Perfetto, which treats `args` as
/// free-form) so one shape serves both metadata and span events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceArgs {
    /// Process/thread name for `M` metadata events.
    pub name: Option<String>,
    /// Per-frame trace id for `X` span events.
    pub trace: Option<u64>,
    /// Parent span (`"src:seq"`) for `X` span events.
    pub parent: Option<String>,
    /// CPU ns charged during the span.
    pub cpu_ns: Option<u64>,
    /// Counter value for `C` counter-track events.
    pub value: Option<f64>,
}

/// One event in Chrome `trace_event` JSON (the subset Perfetto needs:
/// `X` complete events and `M` metadata events).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Phase: `"X"` (complete) or `"M"` (metadata).
    pub ph: String,
    /// Event name (stage name, or `process_name`/`thread_name`).
    pub name: String,
    /// Category tag.
    pub cat: String,
    /// Timestamp in microseconds.
    pub ts: f64,
    /// Duration in microseconds (`X` events; 0 for metadata).
    pub dur: f64,
    /// Process id (CPU location: host = 1, vm `i` = 1000 + i).
    pub pid: u64,
    /// Thread id (device index).
    pub tid: u64,
    /// Event arguments.
    pub args: TraceArgs,
}

/// A Perfetto-loadable trace: `{"traceEvents": [...]}`.
///
/// The field is literally named `traceEvents` because that is the key the
/// Chrome trace format requires (the vendored serde derive serializes
/// field names verbatim).
#[allow(non_snake_case)]
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChromeTrace {
    /// The event list.
    pub traceEvents: Vec<TraceEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.traceEvents.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.traceEvents.is_empty()
    }

    /// Names a process (one per CPU location).
    pub fn add_process(&mut self, pid: u64, name: impl Into<String>) {
        self.add_metadata("process_name", pid, 0, name.into());
    }

    /// Names a thread (one per device).
    pub fn add_thread(&mut self, pid: u64, tid: u64, name: impl Into<String>) {
        self.add_metadata("thread_name", pid, tid, name.into());
    }

    /// Adds an `M` metadata event naming a process or thread.
    fn add_metadata(&mut self, what: &str, pid: u64, tid: u64, name: String) {
        self.traceEvents.push(TraceEvent {
            ph: "M".into(),
            name: what.into(),
            cat: "__metadata".into(),
            ts: 0.0,
            dur: 0.0,
            pid,
            tid,
            args: TraceArgs {
                name: Some(name),
                ..TraceArgs::default()
            },
        });
    }

    /// Adds one point of a counter track as a `C` counter event, so
    /// control-plane levels (ring occupancy, degraded pods, fast-path
    /// rate) render as graphs above the span trees on the same Perfetto
    /// timeline. `at_ns` is sim time in nanoseconds.
    pub fn add_counter(&mut self, track: impl Into<String>, pid: u64, at_ns: u64, value: f64) {
        self.traceEvents.push(TraceEvent {
            ph: "C".into(),
            name: track.into(),
            cat: "telemetry".into(),
            ts: at_ns as f64 / 1_000.0,
            dur: 0.0,
            pid,
            tid: 0,
            args: TraceArgs {
                value: Some(value),
                ..TraceArgs::default()
            },
        });
    }

    /// Adds one span as an `X` complete event. `stage` is the resolved
    /// stage name; `pid`/`tid` locate it on the Perfetto timeline.
    pub fn add_span(&mut self, rec: &SpanRecord, stage: impl Into<String>, pid: u64, tid: u64) {
        self.traceEvents.push(TraceEvent {
            ph: "X".into(),
            name: stage.into(),
            cat: "packet".into(),
            ts: rec.enter as f64 / 1_000.0,
            dur: rec.latency_ns() as f64 / 1_000.0,
            pid,
            tid,
            args: TraceArgs {
                name: None,
                trace: Some(rec.trace),
                parent: if rec.parent.is_none() {
                    None
                } else {
                    Some(format!("{}:{}", rec.parent.src, rec.parent.seq))
                },
                cpu_ns: Some(rec.cpu_ns),
                value: None,
            },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuAccount;
    use crate::ring::Ring;

    fn rec(seq: u64, enter: u64, exit: u64) -> SpanRecord {
        SpanRecord {
            trace: 1,
            span: SpanId { src: 3, seq },
            parent: SpanId::NONE,
            stage: MetricId::from_index(0),
            dev: 3,
            loc: CpuLocation::Host,
            enter,
            exit,
            cpu_ns: 10,
        }
    }

    #[test]
    fn ring_keeps_first_cap_and_counts_drops() {
        let mut r = Ring::with_cap(2);
        assert!(r.push(rec(1, 0, 5)));
        assert!(r.push(rec(2, 5, 9)));
        assert!(!r.push(rec(3, 9, 12)));
        assert_eq!(r.items().len(), 2);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.emitted(), 3);
        assert_eq!(r.items()[0].span.seq, 1);
    }

    #[test]
    fn log2_hist_buckets_and_quantiles() {
        let mut h = Log2Hist::new();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(3); // bucket 1
        h.record(1024); // bucket 10
        assert_eq!(h.count(), 5);
        // p50 rank=3 lands in bucket 1 → bound 4.
        assert_eq!(h.quantile_bound(0.5), 4);
        // p99 rank=5 lands in bucket 10 → bound 2048.
        assert_eq!(h.quantile_bound(0.99), 2048);
        let mut h2 = Log2Hist::new();
        h2.record(1024);
        h.merge(&h2);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn stage_agg_merge_is_order_independent() {
        let obs = [(5u64, 2u64), (9, 3), (100, 7), (0, 1), (64, 2)];
        let mut whole = StageAgg::default();
        for (l, c) in obs {
            whole.record(l, c);
        }
        let mut a = StageAgg::default();
        let mut b = StageAgg::default();
        for (i, (l, c)) in obs.iter().enumerate() {
            if i % 2 == 0 {
                a.record(*l, *c);
            } else {
                b.record(*l, *c);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn stage_table_merge_remaps_ids() {
        let mut local = StageTable::new();
        local.record(MetricId::from_index(0), 10, 1);
        local.record(MetricId::from_index(0), 20, 1);
        let mut merged = StageTable::new();
        // Local id 0 is global id 5.
        merged.merge_with(&local, |_| MetricId::from_index(5));
        assert!(merged.get(MetricId::from_index(0)).is_none());
        let agg = merged.get(MetricId::from_index(5)).unwrap();
        assert_eq!(agg.frames, 2);
        assert_eq!(agg.lat_sum, 30);
    }

    #[test]
    fn flight_stamp_is_equality_transparent() {
        let a = FlightStamp {
            trace: 7,
            parent: SpanId { src: 1, seq: 2 },
        };
        let b = FlightStamp::default();
        assert_eq!(a, b);
    }

    #[test]
    fn latency_cdf_exact_vs_bounds() {
        let mut agg = StageAgg::default();
        for l in [10u64, 20, 30, 40] {
            agg.record(l, 0);
        }
        let exact = LatencyCdf::from_agg_and_latencies(&agg, &[10.0, 20.0, 30.0, 40.0]);
        assert!(exact.exact);
        // Cdf quantiles are order statistics: p50 of [10,20,30,40] is 20.
        assert!((exact.p50 - 20.0).abs() < 1e-9);
        // Mismatched count (ring dropped spans) falls back to bounds.
        let bounds = LatencyCdf::from_agg_and_latencies(&agg, &[10.0, 20.0]);
        assert!(!bounds.exact);
        assert_eq!(bounds.p50, 32.0); // bucket bound for values 10-40
    }

    #[test]
    fn cpu_cells_skip_empty() {
        let mut acc = CpuAccount::new();
        acc.charge(CpuLocation::Host, CpuCategory::Sys, 5);
        acc.charge(CpuLocation::Vm(2), CpuCategory::Usr, 7);
        let cells = cpu_cells(&acc);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].location, "host");
        assert_eq!(cells[0].category, "sys");
        assert_eq!(cells[1].location, "vm2");
    }

    #[test]
    fn span_id_default_is_none() {
        assert!(SpanId::default().is_none());
        assert!(!SpanId { src: 0, seq: 1 }.is_none());
    }
}
