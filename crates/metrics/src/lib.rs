//! Statistics and accounting substrate for the nestless simulation stack.
//!
//! The paper reports four kinds of quantities and this crate models all of
//! them:
//!
//! * scalar summary statistics with dispersion (average latency ± standard
//!   deviation, as drawn on the error bars of figs. 4, 5, 10–13) — [`stats`];
//! * distributions (the start-up-time CDF of fig. 8, the savings histogram of
//!   fig. 9) — [`histogram`] and [`cdf`];
//! * CPU-time breakdowns between `usr`/`sys`/`soft`/`guest` as measured for
//!   figs. 6, 7, 14 and 15 — [`cpu`];
//! * series indexed by a swept parameter (message size on the x-axis of
//!   figs. 2, 4 and 10) — [`series`].
//!
//! Everything here is plain data: no simulation types leak in, so the crate
//! sits at the bottom of the workspace dependency graph.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cdf;
pub mod cpu;
pub mod flight;
pub mod histogram;
pub mod intern;
pub mod journal;
pub mod ring;
pub mod series;
pub mod stats;
pub mod telemetry;

pub use cdf::Cdf;
pub use cpu::{CpuAccount, CpuBreakdown, CpuCategory, CpuLocation};
pub use flight::{
    ChromeTrace, FlightStamp, Log2Hist, RunSnapshot, SpanAccounting, SpanId, SpanRecord, StageAgg,
    StageTable, TraceAccounting, TraceConfig,
};
pub use histogram::Histogram;
pub use intern::{Interner, MetricId};
pub use journal::{
    journal_name_hash, FlowEscalateReason, JournalKind, JournalRecord, JournalRing, JournalTag,
    TelemetryConfig, DEFAULT_JOURNAL_CAP, JOURNAL_KINDS,
};
pub use ring::{ObsMode, Ring};
pub use series::{Series, SeriesPoint};
pub use stats::{OnlineStats, Summary};
pub use telemetry::{
    DropAccounting, HealthSummary, HistSummary, SeriesExport, TelemetrySnapshot, TickSeries,
    DEFAULT_SERIES_CAP, TELEMETRY_SCHEMA,
};
