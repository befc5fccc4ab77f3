//! Structured control-plane event journal: typed, intrinsically-tagged
//! records for the decisions the packet-level flight recorder never sees
//! — flow-table promotions, fault windows, CNI degrade/repair cycles,
//! scheduler placements, filter rule changes.
//!
//! Design constraints mirror the flight recorder (`flight.rs`):
//!
//! 1. *Determinism*: every record emitted from inside the engine is
//!    tagged with the intrinsic tag of the event being processed
//!    (`(sim time, source device, per-device seq)`), which is a pure
//!    function of the simulation. The sharded engine frontier-merges
//!    per-shard journals back into the exact sequential order, so the
//!    deterministic lane is bit-identical for any shard count.
//! 2. *Hot-path cost*: a [`JournalRecord`] is `Copy` with three `u64`
//!    operands; counters-only mode bumps a fixed per-kind array and
//!    allocates nothing.
//! 3. *Bounded memory*: [`JournalRing`] keeps its records in a
//!    [`Ring`], which keeps the first `cap` and counts the rest — drops
//!    are exported, never silent.

use crate::ring::{ObsMode, Ring};
use serde::Serialize;

/// Intrinsic identity of a journal record: the tag of the simulation
/// event whose processing emitted it.
///
/// Records emitted outside event processing (harness calls between runs)
/// use `src == u32::MAX` (the engine's external source) with a dedicated
/// monotonic sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct JournalTag {
    /// Simulation time in nanoseconds.
    pub at_ns: u64,
    /// Source device id of the emitting event.
    pub src: u32,
    /// Per-source sequence number of the emitting event.
    pub seq: u64,
}

/// What a journal record describes. The discriminant is stable (records
/// serialize the `u8` code) — append new kinds, never renumber.
///
/// The first five kinds are reserved and never emitted: they named
/// coordinator events, which depend on the shard count and so never
/// belonged in a journal that is identical at every shard count. Their
/// codes and labels stay so every later kind keeps its code. Round and
/// ring statistics live in `SyncStats` and the telemetry health fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum JournalKind {
    /// Reserved, never emitted (a coordinator round).
    CoordRound,
    /// Reserved, never emitted: the code of a committed speculative
    /// window from the retired optimistic coordinator. Kept so the `u8`
    /// codes of every later kind stay stable.
    CoordCommit,
    /// Reserved, never emitted (a rolled-back speculative window).
    CoordRollback,
    /// Reserved, never emitted (a speculative result held past its round).
    CoordHold,
    /// Reserved, never emitted (was a cross-shard ring's high-water mark;
    /// the coordinator has no rings).
    RingHighWater,
    /// Flow promoted to the fast path (`a` = flow hash, `b` = hop count).
    FlowPromote,
    /// Flow escalated back to packet fidelity (`a` = flow hash,
    /// `b` = reason code from [`FlowEscalateReason`]).
    FlowEscalate,
    /// Flow pinned to packet fidelity (`a` = flow hash).
    FlowPin,
    /// Fault-plan window opened (`a` = device id, `b` = port,
    /// `c` = window index).
    FaultOpen,
    /// Fault-plan window closed (`a` = device id, `b` = port,
    /// `c` = window index).
    FaultClose,
    /// QMP management-socket outage began (`a` = from ns, `b` = until ns).
    QmpOutage,
    /// CNI parked a pod on a degraded fallback path (`a` = pod/nic id,
    /// `b` = reason code).
    CniDegrade,
    /// CNI re-promoted a degraded pod to the preferred wiring
    /// (`a` = pod/nic id, `b` = dwell ns).
    CniRepromote,
    /// CNI repair attempt (`a` = pod/nic id, `b` = 1 if it succeeded).
    CniRepair,
    /// Scheduler placed a pod (`a` = pod id, `b` = node id).
    SchedPlace,
    /// Scheduler drained a node (`a` = node id, `b` = pods moved).
    SchedDrain,
    /// Filter rule installed (`a` = device id, `b` = rule id,
    /// `c` = activation ns).
    FilterInstall,
    /// Filter rule removal scheduled (`a` = device id, `b` = rule id,
    /// `c` = deactivation ns).
    FilterRemove,
    /// Filter chain dropped a frame (`a` = device id, `b` = rule id,
    /// `c` = verdict code: 0 = DROP, 1 = REJECT).
    FilterDrop,
}

/// Number of [`JournalKind`] variants (size of the per-kind count array).
pub const JOURNAL_KINDS: usize = 19;

/// Reason codes carried in `b` of a [`JournalKind::FlowEscalate`] record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEscalateReason {
    /// The learned path stopped confirming (route change, NAT rebinding).
    PathChanged,
    /// The flow went idle past the idle gap and must re-learn.
    IdleGap,
    /// A fault window covers the flow's first hop.
    FaultWindow,
    /// The device pipelined/reordered, disqualifying the shortcut.
    Pipelined,
    /// A NAT/filter rule change touched the learned path; the flow must
    /// re-validate at packet level immediately.
    RuleChange,
}

impl JournalKind {
    /// Stable lowercase label (used in snapshots and Prometheus names).
    pub fn label(self) -> &'static str {
        match self {
            JournalKind::CoordRound => "coord.round",
            JournalKind::CoordCommit => "coord.commit",
            JournalKind::CoordRollback => "coord.rollback",
            JournalKind::CoordHold => "coord.hold",
            JournalKind::RingHighWater => "ring.high_water",
            JournalKind::FlowPromote => "flow.promote",
            JournalKind::FlowEscalate => "flow.escalate",
            JournalKind::FlowPin => "flow.pin",
            JournalKind::FaultOpen => "fault.open",
            JournalKind::FaultClose => "fault.close",
            JournalKind::QmpOutage => "qmp.outage",
            JournalKind::CniDegrade => "cni.degrade",
            JournalKind::CniRepromote => "cni.repromote",
            JournalKind::CniRepair => "cni.repair",
            JournalKind::SchedPlace => "sched.place",
            JournalKind::SchedDrain => "sched.drain",
            JournalKind::FilterInstall => "filter.install",
            JournalKind::FilterRemove => "filter.remove",
            JournalKind::FilterDrop => "filter.drop",
        }
    }

    /// Every kind, in discriminant order (for iterating count arrays).
    pub const ALL: [JournalKind; JOURNAL_KINDS] = [
        JournalKind::CoordRound,
        JournalKind::CoordCommit,
        JournalKind::CoordRollback,
        JournalKind::CoordHold,
        JournalKind::RingHighWater,
        JournalKind::FlowPromote,
        JournalKind::FlowEscalate,
        JournalKind::FlowPin,
        JournalKind::FaultOpen,
        JournalKind::FaultClose,
        JournalKind::QmpOutage,
        JournalKind::CniDegrade,
        JournalKind::CniRepromote,
        JournalKind::CniRepair,
        JournalKind::SchedPlace,
        JournalKind::SchedDrain,
        JournalKind::FilterInstall,
        JournalKind::FilterRemove,
        JournalKind::FilterDrop,
    ];
}

/// FNV-1a hash of a name, for carrying string identities (pod names,
/// node names) in a journal record's fixed `u64` operands. Deterministic
/// across runs and platforms — never derived from addresses or
/// `RandomState`.
pub fn journal_name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One journal record: an intrinsic tag, a kind, and three opaque
/// operands whose meaning is documented per [`JournalKind`]. Flat and
/// `Copy` so the ring is a plain slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct JournalRecord {
    /// Intrinsic identity (the emitting event's tag).
    pub tag: JournalTag,
    /// Record type.
    pub kind: JournalKind,
    /// First operand (see the kind's docs).
    pub a: u64,
    /// Second operand.
    pub b: u64,
    /// Third operand.
    pub c: u64,
}

/// Default bound on retained journal records: 65,536 records of 56 bytes,
/// 3.5 MiB when full.
pub const DEFAULT_JOURNAL_CAP: usize = 65_536;

/// Telemetry-plane configuration, set on a network before a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Hot-path mode: `Counters` keeps per-kind counts, `Full` adds the
    /// records.
    pub mode: ObsMode,
    /// Maximum journal records retained (first-`cap` kept; rest counted
    /// as dropped). Only meaningful in [`ObsMode::Full`].
    pub journal_cap: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::off()
    }
}

impl TelemetryConfig {
    /// Everything off (the default; zero-alloc, one branch per site).
    pub fn off() -> TelemetryConfig {
        TelemetryConfig {
            mode: ObsMode::Off,
            journal_cap: DEFAULT_JOURNAL_CAP,
        }
    }

    /// Per-kind counts only.
    pub fn counters() -> TelemetryConfig {
        TelemetryConfig {
            mode: ObsMode::Counters,
            journal_cap: DEFAULT_JOURNAL_CAP,
        }
    }

    /// Full record journaling with the default cap.
    pub fn full() -> TelemetryConfig {
        TelemetryConfig {
            mode: ObsMode::Full,
            journal_cap: DEFAULT_JOURNAL_CAP,
        }
    }

    /// Same mode with a different journal cap.
    pub fn with_journal_cap(mut self, cap: usize) -> TelemetryConfig {
        self.journal_cap = cap;
        self
    }
}

/// The journal buffer: per-kind emission counts (kept *and* dropped) in
/// every non-off mode, plus the records themselves in a [`Ring`] in full
/// mode.
#[derive(Debug, Clone, Default)]
pub struct JournalRing {
    mode: ObsMode,
    records: Ring<JournalRecord>,
    counts: [u64; JOURNAL_KINDS],
}

/// The record cap a mode retains under: only full mode keeps records.
fn record_cap(cfg: TelemetryConfig) -> usize {
    match cfg.mode {
        ObsMode::Full => cfg.journal_cap,
        _ => 0,
    }
}

impl JournalRing {
    /// A ring configured by `cfg`. The record buffer grows on demand.
    pub fn new(cfg: TelemetryConfig) -> JournalRing {
        JournalRing {
            mode: cfg.mode,
            records: Ring::with_cap(record_cap(cfg)),
            counts: [0; JOURNAL_KINDS],
        }
    }

    /// Reconfigures the ring in place, preserving already-journaled
    /// state where the new mode retains it: switching to `Off` clears
    /// everything, `Counters` keeps the per-kind counts and the drop
    /// tally but releases the records, `Full` keeps the records too,
    /// re-dropping any beyond the new cap. This is what lets a harness
    /// journal external records during setup and *then* finalize the
    /// configuration (e.g. `SimConfig::build`) without losing them.
    pub fn reconfigure(&mut self, cfg: TelemetryConfig) {
        match cfg.mode {
            ObsMode::Off => *self = JournalRing::new(cfg),
            ObsMode::Counters => {
                let dropped = self.records.dropped();
                self.records = Ring::default();
                self.records.add_dropped(dropped);
            }
            ObsMode::Full => self.records.set_cap(cfg.journal_cap),
        }
        self.mode = cfg.mode;
    }

    /// The configured mode.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Records an event. Off mode is a single branch; counters mode bumps
    /// the per-kind array; full mode also stores the record (first-`cap`
    /// kept, the rest counted as dropped).
    #[inline]
    pub fn record(&mut self, tag: JournalTag, kind: JournalKind, a: u64, b: u64, c: u64) {
        if self.mode == ObsMode::Off {
            return;
        }
        self.counts[kind as usize] += 1;
        if self.mode == ObsMode::Full {
            self.records.push(JournalRecord { tag, kind, a, b, c });
        }
    }

    /// Kept records, in emission order.
    pub fn records(&self) -> &[JournalRecord] {
        self.records.items()
    }

    /// The record ring itself, for the shard merge: it re-pushes replayed
    /// records here and sums the shards' counts through
    /// [`add_counts`](JournalRing::add_counts) instead of re-counting.
    pub fn records_mut(&mut self) -> &mut Ring<JournalRecord> {
        &mut self.records
    }

    /// Records emitted but not kept (ring at capacity).
    pub fn dropped(&self) -> u64 {
        self.records.dropped()
    }

    /// Adds another ring's per-kind counts (shard merge).
    pub fn add_counts(&mut self, other: &[u64; JOURNAL_KINDS]) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.iter()) {
            *mine += theirs;
        }
    }

    /// Per-kind emission counts (kept + dropped), indexed by
    /// `JournalKind as usize`.
    pub fn counts(&self) -> &[u64; JOURNAL_KINDS] {
        &self.counts
    }

    /// Consumes the ring into `(kept records, dropped count, per-kind counts)`.
    pub fn into_parts(self) -> (Vec<JournalRecord>, u64, [u64; JOURNAL_KINDS]) {
        let (records, dropped) = self.records.into_parts();
        (records, dropped, self.counts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag(at: u64, src: u32, seq: u64) -> JournalTag {
        JournalTag {
            at_ns: at,
            src,
            seq,
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut r = JournalRing::new(TelemetryConfig::off());
        r.record(tag(1, 0, 1), JournalKind::FlowPromote, 1, 2, 3);
        assert!(r.records().is_empty());
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.counts()[JournalKind::FlowPromote as usize], 0);
    }

    #[test]
    fn counters_mode_counts_without_keeping() {
        let mut r = JournalRing::new(TelemetryConfig::counters());
        r.record(tag(1, 0, 1), JournalKind::FlowPromote, 1, 2, 3);
        r.record(tag(2, 0, 2), JournalKind::FlowPromote, 1, 2, 3);
        r.record(tag(3, 0, 3), JournalKind::FaultOpen, 9, 9, 9);
        assert!(r.records().is_empty(), "counters mode keeps no records");
        assert_eq!(r.counts()[JournalKind::FlowPromote as usize], 2);
        assert_eq!(r.counts()[JournalKind::FaultOpen as usize], 1);
    }

    #[test]
    fn full_mode_caps_and_counts_drops() {
        let mut r = JournalRing::new(TelemetryConfig::full().with_journal_cap(2));
        for i in 0..5u64 {
            r.record(tag(i, 0, i), JournalKind::SchedPlace, i, 0, 0);
        }
        assert_eq!(r.records().len(), 2, "first-cap kept");
        assert_eq!(r.dropped(), 3, "rest counted");
        assert_eq!(
            r.counts()[JournalKind::SchedPlace as usize],
            5,
            "counts include drops"
        );
        assert_eq!(r.records()[0].a, 0);
        assert_eq!(r.records()[1].a, 1);
    }

    #[test]
    fn kind_labels_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in JournalKind::ALL {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
            assert_eq!(
                JournalKind::ALL[k as usize],
                k,
                "ALL is discriminant-ordered"
            );
        }
    }
}
