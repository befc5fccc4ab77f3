//! The unified telemetry plane's determinism contract: the control-plane
//! journal's **deterministic lane** — kept records, per-kind emission
//! counts, and the drop count — is bit-identical to the sequential
//! engine's for every shard count.
//!
//! Three angles:
//!
//! * the healthy case (default journal cap, nothing dropped),
//! * a deliberately tiny cap, where the frontier merge must re-cap the
//!   replayed records so the kept set *and* the drop count still match
//!   the sequential run exactly (a shard-locally dropped record always
//!   sits at sequential emission index ≥ cap, so it is exactly a record
//!   the sequential run also dropped),
//! * counters mode, which must count every emission identically while
//!   keeping the ring empty.
//!
//! The scenario covers all three record paths: engine records (fault
//! window transitions from a stall plan), harness records emitted before
//! the split (`journal_external`, which seeds the merged ring), and the
//! per-kind count array.

use metrics::{JournalKind, JournalRecord, ObsMode, TelemetryConfig};
use nestless_simnet::device::DeviceId;
use nestless_simnet::engine::Network;
use nestless_simnet::testutil::{build_multihost, MultihostSpec};
use nestless_simnet::time::{SimDuration, SimTime};
use nestless_simnet::{
    telemetry_report, FaultPlan, SimConfig, StallWindow, StopCondition, SyncStats,
};

const HORIZON: SimTime = SimTime(2_000_000);

/// Devices carrying mid-horizon stall windows (journal record sites).
const FAULTED_DEVICES: usize = 6;

fn build(telemetry: TelemetryConfig) -> Network {
    let mut net = Network::new(0xBEEF);
    build_multihost(
        &mut net,
        &MultihostSpec {
            hosts: 4,
            local_flows: 4,
            loss: 0.0,
            ..MultihostSpec::default()
        },
    );
    let mut plan = FaultPlan::new();
    for d in 0..FAULTED_DEVICES {
        plan = plan.stall(StallWindow {
            dev: DeviceId(d),
            from: SimTime(500_000),
            until: SimTime(1_000_000),
            extra: SimDuration::nanos(50),
        });
    }
    net.install_fault_plan(plan);
    net.set_telemetry_config(telemetry);
    // Harness-context records emitted before any run: these ride the
    // master's pre-split ring and must lead the merged journal at every
    // shard count.
    net.journal_external(JournalKind::QmpOutage, 1, 2, 3);
    net.journal_external(JournalKind::SchedPlace, 7, 0, 4);
    net
}

/// (kept records, dropped, per-kind counts) of a sequential reference run.
fn sequential(telemetry: TelemetryConfig) -> (Vec<JournalRecord>, u64, Vec<u64>) {
    let mut net = build(telemetry);
    net.run(StopCondition::Until(HORIZON));
    let j = net.journal();
    (j.records().to_vec(), j.dropped(), j.counts().to_vec())
}

/// Asserts every sharded configuration reproduces the sequential journal
/// lane bit for bit, and returns the sequential drop count.
fn assert_shard_invariant(telemetry: TelemetryConfig) -> u64 {
    let (ref_records, ref_dropped, ref_counts) = sequential(telemetry);
    for shards in [1usize, 2, 4, 8] {
        let mut sn = SimConfig::new()
            .shards(shards)
            .telemetry(telemetry)
            .build(build(telemetry));
        sn.run(StopCondition::Until(HORIZON));
        let report = sn.into_report();
        assert_eq!(
            report.journal, ref_records,
            "kept records diverged at {shards} shards"
        );
        assert_eq!(
            report.journal_dropped, ref_dropped,
            "drop count diverged at {shards} shards"
        );
        assert_eq!(
            report.journal_counts.to_vec(),
            ref_counts,
            "per-kind counts diverged at {shards} shards"
        );
    }
    ref_dropped
}

#[test]
fn journal_bit_identical_across_shards_and_sync_modes() {
    let (records, dropped, counts) = sequential(TelemetryConfig::full());
    assert!(
        records.len() > 2,
        "scenario must journal engine records beyond the two external ones"
    );
    assert_eq!(dropped, 0, "default cap must hold the whole scenario");
    assert_eq!(counts.iter().sum::<u64>(), records.len() as u64);
    // The pre-split external records lead the merged journal.
    assert_eq!(records[0].kind, JournalKind::QmpOutage);
    assert_eq!((records[0].a, records[0].b, records[0].c), (1, 2, 3));
    assert_eq!(records[1].kind, JournalKind::SchedPlace);
    assert!(counts[JournalKind::FaultOpen as usize] > 0);

    assert_shard_invariant(TelemetryConfig::full());
}

#[test]
fn tiny_cap_overflow_drops_are_shard_invariant() {
    // Cap below the scenario's record count: the ring must overflow, and
    // the kept prefix + drop count must still match the sequential run
    // at every shard count.
    let cfg = TelemetryConfig::full().with_journal_cap(3);
    let dropped = assert_shard_invariant(cfg);
    assert!(dropped > 0, "the tiny cap must actually overflow");
    let (records, _, counts) = sequential(cfg);
    assert_eq!(records.len(), 3, "the ring keeps exactly its capacity");
    assert_eq!(
        counts.iter().sum::<u64>(),
        records.len() as u64 + dropped,
        "counts must cover kept and dropped records alike"
    );
}

#[test]
fn counters_mode_counts_every_emission_with_an_empty_ring() {
    let (full_records, _, full_counts) = sequential(TelemetryConfig::full());
    let (records, dropped, counts) = sequential(TelemetryConfig::counters());
    assert!(records.is_empty(), "counters mode must not retain records");
    assert_eq!(dropped, 0, "an empty ring cannot drop");
    assert_eq!(
        counts, full_counts,
        "counters mode must count exactly what full mode journals"
    );
    assert_eq!(counts.iter().sum::<u64>(), full_records.len() as u64);

    assert_shard_invariant(TelemetryConfig::counters());
}

#[test]
fn off_mode_journals_nothing() {
    let (records, dropped, counts) = sequential(TelemetryConfig::off());
    assert!(records.is_empty());
    assert_eq!(dropped, 0);
    assert_eq!(counts.iter().sum::<u64>(), 0);
    assert_eq!(
        build(TelemetryConfig::off()).telemetry_config().mode,
        ObsMode::Off
    );
}

/// Coordinator statistics of an 8-host multihost run driven in four `run`
/// calls: rounds accumulate across the calls to an exact count, and the
/// telemetry export's health fields report them, with the ring fields a
/// constant 0 (frames wait in the coordinator's inboxes).
#[test]
fn coordinator_lane_records_every_round_and_bounded_rings() {
    let build = || {
        let mut net = Network::new(0xBEEF);
        build_multihost(
            &mut net,
            &MultihostSpec {
                hosts: 8,
                local_flows: 4,
                loss: 0.0,
                ..MultihostSpec::default()
            },
        );
        net
    };
    let run = |shards: usize| {
        let mut sn = SimConfig::new()
            .shards(shards)
            .telemetry(TelemetryConfig::full())
            .build(build());
        for step in 1..=4u64 {
            sn.run(StopCondition::Until(SimTime(step * 500_000)));
        }
        (sn.nshards(), sn.into_report())
    };

    let (nshards, report) = run(1);
    assert_eq!(nshards, 1);
    assert_eq!(
        report.sync,
        SyncStats::default(),
        "one shard has no coordinator"
    );

    for shards in [2usize, 8] {
        let label = format!("{shards} shards");
        let (nshards, report) = run(shards);
        assert_eq!(nshards, shards, "{label}: 9 islands split as asked");
        let sync = report.sync;
        // The exact count pins when cross-shard frames become visible:
        // one round after they were sent.
        assert_eq!(sync.rounds, 100, "{label}: coordinator rounds");
        let health = telemetry_report(&report, "coord").health;
        assert_eq!(health.rounds, sync.rounds, "{label}");
        assert_eq!(health.ring_stalls, 0, "{label}");
        assert_eq!(health.ring_high_water, 0, "{label}");
        assert_eq!(health.rollback_rate, 0.0, "{label}");
    }
}
