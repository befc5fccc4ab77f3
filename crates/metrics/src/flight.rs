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
use serde::{Serialize, Serializer};
use std::collections::BTreeMap;

/// Default bound on retained span records: 262,144 records of 80 bytes,
/// 20 MiB when full.
pub const DEFAULT_SPAN_CAP: usize = 262_144;

/// Flight-recorder configuration, set on a network before a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CpuCell {
    /// Location, via its `Display` form (`host`, `vm0`, ...).
    pub location: String,
    /// Category, via its `Display` form (`usr`, `sys`, `soft`, `guest`).
    pub category: String,
    /// Nanoseconds charged.
    pub ns: u64,
}

/// Latency distribution of one stage as exported in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSnapshot {
    /// Frames that traversed the stage.
    pub frames: u64,
    /// CPU ns charged at the stage.
    pub cpu_ns: u64,
    /// Latency distribution.
    pub latency_ns: LatencyCdf,
}

/// Span bookkeeping of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SpanAccounting {
    /// Spans emitted by stages (kept + dropped).
    pub emitted: u64,
    /// Spans retained in the ring.
    pub kept: u64,
    /// Spans dropped at the cap.
    pub dropped: u64,
}

/// Event-trace bookkeeping of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TraceAccounting {
    /// Entries retained.
    pub kept: u64,
    /// Entries dropped at the trace cap (100,000 entries).
    pub dropped: u64,
}

/// Everything a finished run exports: counters, sample summaries, CPU
/// attribution, per-stage latency CDFs, and recorder bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize)]
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

/// One event of a [`ChromeTrace`], kept compact: a span is its
/// [`SpanRecord`] numbers and an index into the trace's name table (64
/// bytes), and only metadata events own their text.
#[derive(Debug, Clone)]
enum ChromeEvent {
    /// `M`: names process `pid` (`tid` 0) or, for `thread`, its thread
    /// `tid`.
    Meta {
        thread: bool,
        pid: u64,
        tid: u64,
        name: String,
    },
    /// `X`: one span on device `dev`'s thread, times in sim ns. The
    /// parent is split from its [`SpanId`] so the padding of that struct
    /// does not grow the event.
    Span {
        stage: u32,
        pid: u64,
        dev: u32,
        enter: u64,
        dur: u64,
        trace: u64,
        parent_src: u32,
        parent_seq: u64,
        cpu_ns: u64,
    },
    /// `C`: one point of a counter track.
    Counter {
        track: u32,
        pid: u64,
        at_ns: u64,
        value: f64,
    },
}

/// Every key of one Chrome event in the order it is written: `ph`,
/// `name`, `cat`, `ts` and `dur` in µs, `pid`, `tid`, then `args` with
/// five keys, each `null` unless the event's phase has that value
/// (Perfetto treats `args` as free-form).
#[derive(Default)]
struct ChromeFields<'a> {
    ph: &'a str,
    name: &'a str,
    cat: &'a str,
    ts_ns: u64,
    dur_ns: u64,
    pid: u64,
    tid: u64,
    /// Process or thread name of an `M` event.
    arg_name: Option<&'a str>,
    /// Per-frame trace id of an `X` event.
    trace: Option<u64>,
    /// Parent span of an `X` event, written `"src:seq"`.
    parent: Option<SpanId>,
    /// CPU ns charged during an `X` event.
    cpu_ns: Option<u64>,
    /// Value of a `C` event.
    value: Option<f64>,
}

impl ChromeEvent {
    fn fields<'a>(&'a self, names: &'a [String]) -> ChromeFields<'a> {
        match *self {
            ChromeEvent::Meta {
                thread,
                pid,
                tid,
                ref name,
            } => ChromeFields {
                ph: "M",
                name: if thread {
                    "thread_name"
                } else {
                    "process_name"
                },
                cat: "__metadata",
                pid,
                tid,
                arg_name: Some(name),
                ..ChromeFields::default()
            },
            ChromeEvent::Span {
                stage,
                pid,
                dev,
                enter,
                dur,
                trace,
                parent_src,
                parent_seq,
                cpu_ns,
            } => ChromeFields {
                ph: "X",
                name: &names[stage as usize],
                cat: "packet",
                ts_ns: enter,
                dur_ns: dur,
                pid,
                tid: u64::from(dev),
                trace: Some(trace),
                parent: (parent_seq != 0).then_some(SpanId {
                    src: parent_src,
                    seq: parent_seq,
                }),
                cpu_ns: Some(cpu_ns),
                ..ChromeFields::default()
            },
            ChromeEvent::Counter {
                track,
                pid,
                at_ns,
                value,
            } => ChromeFields {
                ph: "C",
                name: &names[track as usize],
                cat: "telemetry",
                ts_ns: at_ns,
                pid,
                value: Some(value),
                ..ChromeFields::default()
            },
        }
    }
}

/// Writes the decimal digits of `v` into `buf`, ending before `end`;
/// returns where they start.
fn put_digits(buf: &mut [u8], end: usize, mut v: u64) -> usize {
    let mut i = end;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            return i;
        }
    }
}

/// `"src:seq"` of a span, written into `buf` (10 + 1 + 20 bytes at most)
/// without allocating.
fn span_label(id: SpanId, buf: &mut [u8; 31]) -> &str {
    let colon = put_digits(buf, 31, id.seq) - 1;
    buf[colon] = b':';
    let start = put_digits(buf, colon, u64::from(id.src));
    std::str::from_utf8(&buf[start..]).expect("ASCII digits")
}

/// The µs of a sim-ns time, as the export writes it.
fn micros(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn entry<S: Serializer, V: Serialize + ?Sized>(
    s: &mut S,
    key: &str,
    value: &V,
) -> Result<(), S::Error> {
    s.key()?;
    s.str(key)?;
    value.serialize(s)
}

impl Serialize for ChromeFields<'_> {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.begin_map()?;
        entry(s, "ph", self.ph)?;
        entry(s, "name", self.name)?;
        entry(s, "cat", self.cat)?;
        entry(s, "ts", &micros(self.ts_ns))?;
        entry(s, "dur", &micros(self.dur_ns))?;
        entry(s, "pid", &self.pid)?;
        entry(s, "tid", &self.tid)?;
        s.key()?;
        s.str("args")?;
        s.begin_map()?;
        entry(s, "name", &self.arg_name)?;
        entry(s, "trace", &self.trace)?;
        s.key()?;
        s.str("parent")?;
        match self.parent {
            Some(id) => s.str(span_label(id, &mut [0; 31]))?,
            None => s.null()?,
        }
        entry(s, "cpu_ns", &self.cpu_ns)?;
        entry(s, "value", &self.value)?;
        s.end_map()?;
        s.end_map()
    }
}

/// A Perfetto-loadable trace, `{"traceEvents": [...]}`: `M` metadata
/// events naming processes and threads, `X` span events and `C` counter
/// points, in the order they were added.
///
/// Events are compact and the JSON is written straight from them, so a
/// trace costs 64 bytes per span, not an object with its own strings.
/// Span stage and counter-track names live once in the trace's own name
/// table. The trace is write-only: nothing parses it back.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    /// Every span stage and counter-track name, once each.
    names: Vec<String>,
    /// The `names` index of each span stage, by its [`MetricId`] index.
    stages: Vec<Option<u32>>,
    events: Vec<ChromeEvent>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Makes room for `additional` more events, exactly.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve_exact(additional);
    }

    /// The name table's index of `name`, added on first use.
    fn intern(&mut self, name: &str) -> u32 {
        let i = match self.names.iter().position(|n| n == name) {
            Some(i) => i,
            None => {
                self.names.push(name.to_string());
                self.names.len() - 1
            }
        };
        u32::try_from(i).expect("fewer than 2^32 trace names")
    }

    /// Names a process (one per CPU location).
    pub fn add_process(&mut self, pid: u64, name: impl Into<String>) {
        self.events.push(ChromeEvent::Meta {
            thread: false,
            pid,
            tid: 0,
            name: name.into(),
        });
    }

    /// Names a thread (one per device).
    pub fn add_thread(&mut self, pid: u64, tid: u64, name: impl Into<String>) {
        self.events.push(ChromeEvent::Meta {
            thread: true,
            pid,
            tid,
            name: name.into(),
        });
    }

    /// Adds one point of a counter track as a `C` counter event, so
    /// control-plane levels (ring occupancy, degraded pods, fast-path
    /// rate) render as graphs above the span trees on the same Perfetto
    /// timeline. `at_ns` is sim time in nanoseconds.
    pub fn add_counter(&mut self, track: &str, pid: u64, at_ns: u64, value: f64) {
        let track = self.intern(track);
        self.events.push(ChromeEvent::Counter {
            track,
            pid,
            at_ns,
            value,
        });
    }

    /// Adds one span as an `X` complete event on its device's thread of
    /// process `pid`. `stage` names `rec.stage`: the trace enters it in
    /// its name table at that stage's first span and keeps that name for
    /// the stage's later spans.
    pub fn add_span(&mut self, rec: &SpanRecord, stage: &str, pid: u64) {
        let i = rec.stage.index();
        if i >= self.stages.len() {
            self.stages.resize(i + 1, None);
        }
        let stage = match self.stages[i] {
            Some(stage) => stage,
            None => {
                let stage = self.intern(stage);
                self.stages[i] = Some(stage);
                stage
            }
        };
        self.events.push(ChromeEvent::Span {
            stage,
            pid,
            dev: rec.dev,
            enter: rec.enter,
            dur: rec.latency_ns(),
            trace: rec.trace,
            parent_src: rec.parent.src,
            parent_seq: rec.parent.seq,
            cpu_ns: rec.cpu_ns,
        });
    }
}

impl Serialize for ChromeTrace {
    fn serialize<S: Serializer>(&self, s: &mut S) -> Result<(), S::Error> {
        s.begin_map()?;
        s.key()?;
        s.str("traceEvents")?;
        s.begin_seq()?;
        for e in &self.events {
            s.elem()?;
            e.fields(&self.names).serialize(s)?;
        }
        s.end_seq()?;
        s.end_map()
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
    fn chrome_events_stay_compact_and_stages_keep_their_first_name() {
        assert!(std::mem::size_of::<ChromeEvent>() <= 64);
        let mut trace = ChromeTrace::new();
        trace.add_process(1, "host");
        trace.add_thread(1, 3, "br0");
        trace.add_span(&rec(1, 1_000, 1_500), "stage.bridge", 1);
        trace.add_counter("ring", 1, 2_000, 0.25);
        trace.add_span(&rec(2, 2_000, 2_500), "stage.other", 1);
        assert_eq!(trace.names, ["stage.bridge", "ring"]);
        let text = serde_json::to_string(&trace).unwrap();
        assert_eq!(text.matches(r#""name":"stage.bridge""#).count(), 2);
        assert!(!text.contains("stage.other"));
    }

    /// Pins the compact JSON of a small snapshot, key order included.
    #[test]
    fn run_snapshot_bytes_pinned() {
        let mut agg = StageAgg::default();
        for l in [10u64, 20, 30, 40] {
            agg.record(l, 5);
        }
        let mut acc = CpuAccount::new();
        acc.charge(CpuLocation::Vm(0), CpuCategory::Soft, 20);
        let snap = RunSnapshot {
            schema: SNAPSHOT_SCHEMA.to_string(),
            label: "pin".to_string(),
            sim_now_ns: 1_000,
            events_processed: 12,
            dropped_no_link: 1,
            trace_mode: "full".to_string(),
            counters: BTreeMap::from([("br0.switched".to_string(), 4.0)]),
            samples: BTreeMap::from([("rtt_us".to_string(), SampleSummary::of(&[1.5, 2.5]))]),
            cpu: cpu_cells(&acc),
            stages: BTreeMap::from([(
                "stage.bridge".to_string(),
                StageSnapshot {
                    frames: agg.frames,
                    cpu_ns: agg.cpu_ns,
                    latency_ns: LatencyCdf::from_agg_and_latencies(&agg, &[10.0, 20.0, 30.0, 40.0]),
                },
            )]),
            spans: SpanAccounting {
                emitted: 6,
                kept: 4,
                dropped: 2,
            },
            trace_entries: TraceAccounting {
                kept: 3,
                dropped: 0,
            },
        };
        assert_eq!(
            serde_json::to_string(&snap).unwrap(),
            concat!(
                r#"{"schema":"nestless.run_snapshot.v1","label":"pin","sim_now_ns":1000,"#,
                r#""events_processed":12,"dropped_no_link":1,"trace_mode":"full","#,
                r#""counters":{"br0.switched":4.0},"#,
                r#""samples":{"rtt_us":{"count":2,"mean":2.0,"min":1.5,"max":2.5}},"#,
                r#""cpu":[{"location":"vm0","category":"soft","ns":20}],"#,
                r#""stages":{"stage.bridge":{"frames":4,"cpu_ns":20,"#,
                r#""latency_ns":{"count":4,"mean":25.0,"min":10,"max":40,"#,
                r#""p50":20.0,"p90":40.0,"p99":40.0,"exact":true}}},"#,
                r#""spans":{"emitted":6,"kept":4,"dropped":2},"#,
                r#""trace_entries":{"kept":3,"dropped":0}}"#
            )
        );
    }

    #[test]
    fn span_id_default_is_none() {
        assert!(SpanId::default().is_none());
        assert!(!SpanId { src: 0, seq: 1 }.is_none());
    }
}
