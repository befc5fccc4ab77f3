//! Host-time spans the benchmark records around its own calls into each
//! layer of the stack. Spans stay in memory and are written as Chrome
//! `trace_event` JSON (loadable in Perfetto) when the run ends.

use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer of the benchmark's own glue between calls: every op span
/// belongs to it, so its self time is the part of the timed section no
/// layer call covers.
pub const GLUE: &str = "bench";

/// A layer a span can name, with its two self-time metrics: host
/// seconds, and share of the timed section.
pub struct Layer {
    /// Layer name in spans.
    pub name: &'static str,
    /// Self seconds per rep.
    pub self_s: &'static str,
    /// Self seconds ÷ timed-section seconds.
    pub self_share: &'static str,
}

const fn layer(name: &'static str, self_s: &'static str, self_share: &'static str) -> Layer {
    Layer {
        name,
        self_s,
        self_share,
    }
}

/// Every layer a span inside a timed section can name, in report order.
/// Testbed builds (layer `topology`) run only in set-up, outside it.
pub const LAYERS: [Layer; 7] = [
    layer("workloads", "self_s.workloads", "self_share.workloads"),
    layer("engine", "self_s.engine", "self_share.engine"),
    layer("parallel", "self_s.parallel", "self_share.parallel"),
    layer("flight", "self_s.flight", "self_share.flight"),
    layer(
        "orchestrator",
        "self_s.orchestrator",
        "self_share.orchestrator",
    ),
    layer("cloudsim", "self_s.cloudsim", "self_share.cloudsim"),
    layer(GLUE, "self_s.bench", "self_share.bench"),
];

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the called function belongs to (one of [`LAYERS`], or
    /// `topology`).
    pub layer: &'static str,
    /// The function called.
    pub name: &'static str,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Workload the span ran in.
    pub workload: &'static str,
    /// Rep of that workload.
    pub rep: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span; `None` while recording is off.
#[must_use]
pub struct Open(Option<usize>);

impl Open {
    /// Index of the span in [`Recorder::spans`], when one was recorded.
    pub fn index(&self) -> Option<usize> {
        self.0
    }
}

/// In-memory span recorder. While off, [`Recorder::enter`] and
/// [`Recorder::exit`] are a branch each.
pub struct Recorder {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    workload: &'static str,
    rep: u32,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            workload: "",
            rep: 0,
        }
    }
}

impl Recorder {
    /// Turns recording on or off for the spans that follow. Spans a
    /// panic left open stay unfinished and parent nothing later.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
        self.open.clear();
    }

    /// Tags the spans that follow with `workload` and `rep`.
    pub fn tag(&mut self, workload: &'static str, rep: u32) {
        self.workload = workload;
        self.rep = rep;
    }

    /// Opens a span for a call of `name` in `layer`.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            workload: self.workload,
            rep: self.rep,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::enter`], and any span opened
    /// inside it that a panic left open.
    pub fn exit(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let now = self.origin.elapsed().as_nanos() as u64;
            while let Some(top) = self.open.pop() {
                self.spans[top].end_ns = now;
                if top == idx {
                    break;
                }
            }
        }
    }

    /// True while spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(layer, name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer, in seconds, of the spans at `ops` and every span
/// under them. A span's self time is its duration minus the durations of
/// its direct children; calls nest, so children never overlap.
pub fn self_times(spans: &[Span], ops: &[usize]) -> BTreeMap<&'static str, f64> {
    let Some(&first) = ops.first() else {
        return BTreeMap::new();
    };
    // A span's parent precedes it, so one forward pass finds the subtrees.
    let mut inside = vec![false; spans.len()];
    let mut child_ns = vec![0u64; spans.len()];
    for &op in ops {
        inside[op] = true;
    }
    for i in first + 1..spans.len() {
        if let Some(p) = spans[i].parent.filter(|&p| inside[p]) {
            inside[i] = true;
            child_ns[p] += spans[i].dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|&(i, _)| inside[i]) {
        let own = s.dur_ns().saturating_sub(child_ns[i]);
        *out.entry(s.layer).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Seconds the spans at `ops` last in total.
pub fn total_s(spans: &[Span], ops: &[usize]) -> f64 {
    ops.iter().map(|&i| spans[i].dur_ns()).sum::<u64>() as f64 * 1e-9
}

/// Share of the spans at `ops` covered by their direct children.
pub fn coverage(spans: &[Span], ops: &[usize]) -> f64 {
    let Some(&first) = ops.first() else {
        return 0.0;
    };
    let covered: u64 = spans[first + 1..]
        .iter()
        .filter(|s| s.parent.is_some_and(|p| ops.contains(&p)))
        .map(Span::dur_ns)
        .sum();
    let total: u64 = ops.iter().map(|&i| spans[i].dur_ns()).sum();
    covered as f64 / total.max(1) as f64
}

/// The spans as Chrome `trace_event` JSON: one complete (`X`) event per
/// span on one thread, so nesting renders as a call stack.
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let parent = s
                .parent
                .map_or(Value::Null, |p| Value::Str(spans[p].name.to_string()));
            Value::Map(vec![
                (Value::Str("ph".into()), Value::Str("X".into())),
                (Value::Str("name".into()), Value::Str(s.name.into())),
                (Value::Str("cat".into()), Value::Str(s.layer.into())),
                (Value::Str("ts".into()), Value::F64(s.start_ns as f64 / 1e3)),
                (
                    Value::Str("dur".into()),
                    Value::F64(s.dur_ns() as f64 / 1e3),
                ),
                (Value::Str("pid".into()), Value::U64(1)),
                (Value::Str("tid".into()), Value::U64(1)),
                (
                    Value::Str("args".into()),
                    Value::Map(vec![
                        (Value::Str("workload".into()), Value::Str(s.workload.into())),
                        (Value::Str("rep".into()), Value::U64(u64::from(s.rep))),
                        (Value::Str("parent".into()), parent),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Map(vec![(Value::Str("traceEvents".into()), Value::Seq(events))]);
    serde_json::to_string(&doc).expect("span JSON has only finite numbers")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: layer,
            start_ns: start,
            end_ns: end,
            parent,
            workload: "w",
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_coverage_counts_them() {
        let spans = vec![
            span(GLUE, 0, 100, None),
            span("engine", 10, 60, Some(0)),
            span("flight", 20, 30, Some(1)),
            span("flight", 60, 90, Some(0)),
            // Between ops: outside every op, so counted nowhere.
            span("engine", 100, 150, None),
            span(GLUE, 150, 250, None),
            span("cloudsim", 150, 250, Some(5)),
        ];
        let ops = [0, 5];
        let st = self_times(&spans, &ops);
        assert!((st[GLUE] - 20e-9).abs() < 1e-15);
        assert!((st["engine"] - 40e-9).abs() < 1e-15);
        assert!((st["flight"] - 40e-9).abs() < 1e-15);
        assert!((st["cloudsim"] - 100e-9).abs() < 1e-15);
        assert!((total_s(&spans, &ops) - 200e-9).abs() < 1e-15);
        assert!((coverage(&spans, &ops) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn a_recorder_that_is_off_keeps_nothing() {
        let mut rec = Recorder::default();
        let v = rec.span("engine", "run", || 7);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
        rec.set_on(true);
        rec.span("engine", "run", || ());
        assert_eq!(rec.spans().len(), 1);
        assert!(chrome_json(rec.spans()).contains("\"traceEvents\""));
    }
}
