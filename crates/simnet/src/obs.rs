//! The recorder: everything a network records per event, behind one
//! bounded-ring discipline and one merge.
//!
//! A [`Recorder`] holds the event trace, the flight recorder's spans and
//! per-stage aggregates, the control-plane journal and — on shard
//! networks — the event log the merge replays. The three per-record
//! streams (trace entries, spans, journal records) each ride a
//! [`Ring`]: keep the first `cap`, count the rest.
//!
//! # Merge
//!
//! [`merge`] rebuilds a sharded run's streams in exact sequential order.
//! For every event that kept anything, a shard logs the event's intrinsic
//! tag and how many samples, trace entries, spans and journal records it
//! kept. A frontier loop repeatedly consumes the shard whose next logged
//! event has the smallest tag (tags are unique, and each shard's pop
//! order is the sequential order restricted to its devices) and re-pushes
//! that event's items through rings of the global caps.
//!
//! The re-cap is exact. Every shard runs with the global caps, and a
//! shard's emission order is a subsequence of the sequential one, so an
//! item a shard dropped (local index ≥ cap) sits at sequential index
//! ≥ cap: the sequential run dropped it too. The first `cap` replayed
//! items are therefore exactly the sequential kept set, and the rest
//! re-drop at the merge.

use crate::engine::{EventTag, SampleStore, StoreParts, TraceEntry, EXTERNAL_SRC};
use crate::parallel::RunReport;
use crate::time::SimTime;
use metrics::{
    JournalKind, JournalRecord, JournalRing, JournalTag, MetricId, ObsMode, Ring, SpanRecord,
    StageTable, TelemetryConfig, TraceConfig,
};
use std::iter::Peekable;
use std::vec::IntoIter;

/// Cap on stored trace entries (tracing is a debugging aid, not a log).
pub(crate) const TRACE_CAP: usize = 100_000;

/// One event in a shard's log: its tag and how many samples, trace
/// entries, spans and journal records (in that order) it kept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LogEntry {
    tag: JournalTag,
    n: [u32; 4],
}

/// Everything a network records per event (see module docs).
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    /// Flight-recorder configuration (off / counters-only / full spans).
    pub(crate) flight: TraceConfig,
    /// Telemetry-plane configuration (off / counters / full journal).
    pub(crate) telem: TelemetryConfig,
    /// The event trace; `None` unless tracing is on.
    pub(crate) trace: Option<Ring<TraceEntry>>,
    /// Retained span records (only written in full mode).
    pub(crate) spans: Ring<SpanRecord>,
    /// Per-stage frame/latency/CPU aggregates (counters and full modes).
    pub(crate) stages: StageTable,
    /// CPU ns charged so far while handling the current event; consumed
    /// by stage crossings for span attribution.
    pub(crate) event_cpu_ns: u64,
    /// Portion of `event_cpu_ns` already attributed to a stage.
    pub(crate) event_cpu_claimed: u64,
    /// The control-plane journal (see `metrics::journal`).
    pub(crate) journal: JournalRing,
    /// Intrinsic tag of the event being processed — the tag every journal
    /// record emitted while handling it carries.
    pub(crate) cur_tag: JournalTag,
    /// Sequence of journal records emitted outside event processing
    /// (harness calls between runs). Separate from the engine's injection
    /// counter so journaling never perturbs event tags.
    ext_jseq: u64,
    /// The event log; shard networks only.
    log: Option<Vec<LogEntry>>,
    /// Stream lengths when the current event began (shards only).
    mark: [usize; 4],
}

/// The span ring a flight-recorder configuration retains under.
fn span_ring(cfg: TraceConfig) -> Ring<SpanRecord> {
    match cfg.mode {
        ObsMode::Full => Ring::with_cap(cfg.span_cap),
        _ => Ring::default(),
    }
}

impl Recorder {
    /// An empty recorder with this one's configuration and tracing switch.
    pub(crate) fn fresh(&self) -> Recorder {
        Recorder {
            flight: self.flight,
            telem: self.telem,
            trace: self.trace.as_ref().map(|_| Ring::with_cap(TRACE_CAP)),
            spans: span_ring(self.flight),
            journal: JournalRing::new(self.telem),
            ..Recorder::default()
        }
    }

    /// A shard's recorder: this one's configuration with the *global*
    /// caps (see module docs), plus an event log for the merge.
    pub(crate) fn for_shard(&self) -> Recorder {
        Recorder {
            ext_jseq: self.ext_jseq,
            log: Some(Vec::new()),
            ..self.fresh()
        }
    }

    /// Installs a flight-recorder configuration (empties the span ring).
    pub(crate) fn set_flight(&mut self, cfg: TraceConfig) {
        self.flight = cfg;
        self.spans = span_ring(cfg);
    }

    /// Installs a telemetry configuration; the journal is reconfigured in
    /// place (see [`JournalRing::reconfigure`]).
    pub(crate) fn set_telem(&mut self, cfg: TelemetryConfig) {
        self.telem = cfg;
        self.journal.reconfigure(cfg);
    }

    /// Turns the event trace on (empty) or off.
    pub(crate) fn set_tracing(&mut self, on: bool) {
        self.trace = on.then(|| Ring::with_cap(TRACE_CAP));
    }

    /// Lengths of the four logged streams.
    #[inline]
    fn lens(&self, store: &SampleStore) -> [usize; 4] {
        [
            store.journal_len(),
            self.trace.as_ref().map_or(0, |t| t.items().len()),
            self.spans.items().len(),
            self.journal.records().len(),
        ]
    }

    /// Opens event `tag`: journal records now carry its tag, and CPU
    /// attribution restarts. Shards also note the stream lengths, `store`'s
    /// sample journal included, to log the deltas at
    /// [`end_event`](Recorder::end_event).
    #[inline]
    pub(crate) fn begin_event(&mut self, tag: EventTag, store: &SampleStore) {
        self.cur_tag = JournalTag {
            at_ns: tag.at.0,
            src: tag.src,
            seq: tag.seq,
        };
        self.event_cpu_ns = 0;
        self.event_cpu_claimed = 0;
        if self.log.is_some() {
            self.mark = self.lens(store);
        }
    }

    /// Closes the current event. On shards, an event that kept anything
    /// gets a log entry; an event that kept nothing adds nothing to the
    /// merged interleaving, so skipping it keeps the log (and the merge)
    /// proportional to the recorded volume rather than the event volume.
    #[inline]
    pub(crate) fn end_event(&mut self, store: &SampleStore) {
        if self.log.is_none() {
            return;
        }
        let now = self.lens(store);
        let n: [u32; 4] = std::array::from_fn(|i| (now[i] - self.mark[i]) as u32);
        if n != [0; 4] {
            let tag = self.cur_tag;
            if let Some(log) = &mut self.log {
                log.push(LogEntry { tag, n });
            }
        }
    }

    /// Journals a record tagged with the current event. Off-mode cost:
    /// one branch inside [`JournalRing::record`].
    #[inline]
    pub(crate) fn jrec(&mut self, kind: JournalKind, a: u64, b: u64, c: u64) {
        self.journal.record(self.cur_tag, kind, a, b, c);
    }

    /// Journals a record from outside event processing, tagged with the
    /// external source and a dedicated sequence.
    pub(crate) fn journal_external(
        &mut self,
        at: SimTime,
        kind: JournalKind,
        a: u64,
        b: u64,
        c: u64,
    ) {
        if self.telem.mode == ObsMode::Off {
            return;
        }
        let tag = JournalTag {
            at_ns: at.0,
            src: EXTERNAL_SRC,
            seq: self.ext_jseq,
        };
        self.ext_jseq += 1;
        self.journal.record(tag, kind, a, b, c);
    }

    /// The recorded streams as a [`RunReport`] around `store`; the caller
    /// fills in the engine's totals.
    pub(crate) fn into_report(self, store: SampleStore) -> RunReport {
        let (trace, trace_dropped) = self.trace.map(Ring::into_parts).unwrap_or_default();
        let spans_emitted = self.spans.emitted();
        let (spans, spans_dropped) = self.spans.into_parts();
        let (journal, journal_dropped, journal_counts) = self.journal.into_parts();
        RunReport {
            store,
            trace,
            trace_dropped,
            spans_emitted,
            spans,
            spans_dropped,
            stages: self.stages,
            trace_mode: self.flight.mode,
            journal,
            journal_dropped,
            journal_counts,
            telemetry_mode: self.telem.mode,
            ..RunReport::default()
        }
    }
}

/// Maps one shard's metric ids into the merged store, interning each
/// name on first sight.
struct IdMap {
    names: Vec<String>,
    ids: Vec<Option<MetricId>>,
}

impl IdMap {
    fn get(&mut self, store: &mut SampleStore, mid: MetricId) -> MetricId {
        *self.ids[mid.index()].get_or_insert_with(|| store.metric_id(&self.names[mid.index()]))
    }
}

/// One shard's recorded streams, consumed in log order by [`merge`].
struct Replay {
    log: Peekable<IntoIter<LogEntry>>,
    map: IdMap,
    samples: IntoIter<(MetricId, f64)>,
    trace: IntoIter<TraceEntry>,
    spans: IntoIter<SpanRecord>,
    journal: IntoIter<JournalRecord>,
    stages: StageTable,
    counters: Vec<f64>,
}

/// Merges shard recorders and stores into `into`, the master's pre-split
/// recorder, and returns the merged store (see module docs). `into`
/// keeps its pre-split journal records, which precede every event.
pub(crate) fn merge(into: &mut Recorder, shards: Vec<(Recorder, StoreParts)>) -> SampleStore {
    let mut store = SampleStore::default();
    // Samples recorded before the split live in shard 0's per-series
    // vectors and precede every event.
    let first = &shards[0].1;
    for (name, samples) in first.names.iter().zip(&first.samples) {
        if !samples.is_empty() {
            let id = store.metric_id(name);
            for &v in samples {
                store.record_id(id, v);
            }
        }
    }
    let mut replays: Vec<Replay> = Vec::with_capacity(shards.len());
    for (rec, parts) in shards {
        let (trace, trace_dropped) = rec.trace.map(Ring::into_parts).unwrap_or_default();
        let (spans, spans_dropped) = rec.spans.into_parts();
        let (journal, journal_dropped, counts) = rec.journal.into_parts();
        into.journal.add_counts(&counts);
        if let Some(t) = &mut into.trace {
            t.add_dropped(trace_dropped);
        }
        into.spans.add_dropped(spans_dropped);
        into.journal.records_mut().add_dropped(journal_dropped);
        replays.push(Replay {
            log: rec.log.unwrap_or_default().into_iter().peekable(),
            map: IdMap {
                ids: vec![None; parts.names.len()],
                names: parts.names,
            },
            samples: parts.journal.into_iter(),
            trace: trace.into_iter(),
            spans: spans.into_iter(),
            journal: journal.into_iter(),
            stages: rec.stages,
            counters: parts.counters,
        });
    }

    // Frontier merge: always consume the shard whose next logged event
    // has the smallest tag.
    loop {
        let mut best: Option<(usize, JournalTag)> = None;
        for (s, r) in replays.iter_mut().enumerate() {
            if let Some(e) = r.log.peek() {
                if best.is_none_or(|(_, t)| e.tag < t) {
                    best = Some((s, e.tag));
                }
            }
        }
        let Some((s, _)) = best else { break };
        let r = &mut replays[s];
        let [samples, traces, spans, jrecs] = r.log.next().expect("peeked above").n;
        for (mid, v) in r.samples.by_ref().take(samples as usize) {
            let id = r.map.get(&mut store, mid);
            store.record_id(id, v);
        }
        if let Some(t) = &mut into.trace {
            for e in r.trace.by_ref().take(traces as usize) {
                t.push(e);
            }
        }
        for mut rec in r.spans.by_ref().take(spans as usize) {
            rec.stage = r.map.get(&mut store, rec.stage);
            into.spans.push(rec);
        }
        for rec in r.journal.by_ref().take(jrecs as usize) {
            into.journal.records_mut().push(rec);
        }
    }

    // Stage aggregates fold cell-wise (integer sums, min/max, histogram
    // buckets): exact and order-independent. Counters sum per shard in
    // shard order; deltas are integer-valued throughout the codebase, so
    // the f64 sums are exact.
    for r in &mut replays {
        into.stages
            .merge_with(&r.stages, |mid| r.map.get(&mut store, mid));
    }
    for r in &replays {
        for (name, &c) in r.map.names.iter().zip(&r.counters) {
            if c != 0.0 {
                store.add(name, c);
            }
        }
    }
    store
}
