//! Hyperscale cloudsim replay harness: paired naive-vs-indexed placement
//! throughput, a policy shootout, and (with `--full`) the million-user
//! memory-bound certification run.
//!
//! Three claims are measured and recorded in
//! `results/cloudsim_hyperscale.json`; `tools/perfgate.rs`
//! (`check_cloudsim`) judges all of them:
//!
//! * **speedup** — placements/s of the bucket-indexed engine over the
//!   exhaustive reference scan, as paired per-rep ratios over the *same*
//!   event prefix (shared `max_placements` cap), so machine noise lands
//!   on both sides.
//! * **identical placements** — whether the two engines' decision
//!   digests were bit-equal every rep: the fast path should change
//!   throughput, never placements.
//! * **bounded memory** (`--full` only) — peak heap of a complete
//!   1,000,000-user replay over peak heap of a 100,000-user replay, via a
//!   counting global allocator. Streaming + SoA + interning make live
//!   state scale with the working set (arrival rate x stay), not the user
//!   count, so the ratio stays near 1 despite 10x the users and pods.
//!
//! The shootout replays the scenario at a tenth of the paired users
//! under all three placement policies (indexed engine), with or without
//! `--full`, and records their downsampled cost/utilization curves.
//!
//! ```text
//! cargo run --release -p nestless-bench --bin cloudsim_hyperscale -- [reps] [users] [--full]
//! ```
//!
//! Defaults: 3 reps at 100,000 users, no full run (CI scale). The
//! committed artifact is produced with `-- 3 100000 --full`.
//!
//! One indexed replay (the MostRequested shootout leg, or the `--full`
//! certification run) fills a [`metrics::TelemetrySnapshot`], which lands
//! in `results/cloudsim_hyperscale.telemetry.json` (perfgate checks that
//! it carries placements and curve points). The decision digest stays
//! bit-identical: telemetry fills *after* the replay, never in it.

use cloudsim::{
    run_hyperscale, run_hyperscale_with_telemetry, HyperConfig, HyperReport, PlacePolicy,
};
use metrics::TelemetrySnapshot;
use nestless_bench::harness::{host_cores, median, write_artifact};
use serde::Serialize;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Counting allocator: tracks live and peak heap bytes so the `--full`
/// run can certify constant-in-users memory.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Restarts the peak-heap watermark at the current live size.
fn reset_peak() -> usize {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Decision prefix both paired legs replay: long enough that most of the
/// measurement happens at the steady-state fleet (ramp-up is one mean
/// stay, ~48k placements), short enough that the quadratic naive leg
/// stays CI-sized.
const PAIRED_CAP: u64 = 120_000;

/// Memory-probe scale for the `--full` growth ratio (the certification
/// run is 10x this).
const PROBE_USERS: usize = 100_000;
const FULL_USERS: usize = 1_000_000;

#[derive(Serialize)]
struct PairedRep {
    naive_s: f64,
    indexed_s: f64,
    naive_placements_per_s: f64,
    indexed_placements_per_s: f64,
    ratio: f64,
    digest_equal: bool,
}

#[derive(Serialize)]
struct PairedOut {
    users: usize,
    cap_placements: u64,
    placements: u64,
    live_vms_scanned_peak: usize,
    policy: String,
    reps: usize,
    reps_detail: Vec<PairedRep>,
    naive_placements_per_s_median: f64,
    indexed_placements_per_s_median: f64,
    ratio_median: f64,
    digest_equal: bool,
}

#[derive(Serialize)]
struct MemOut {
    probe_users: usize,
    probe_peak_bytes: usize,
    full_users: usize,
    full_peak_bytes: usize,
    growth_ratio: f64,
}

#[derive(Serialize)]
struct FullOut {
    mem: MemOut,
    /// The certification replay at [`FULL_USERS`].
    run: HyperReport,
}

#[derive(Serialize)]
struct Out {
    benchmark: &'static str,
    host_cores: usize,
    paired: PairedOut,
    /// Indexed-engine replays of the same scenario under each policy
    /// (curves downsampled by the engine itself).
    shootout: Vec<HyperReport>,
    full: Option<FullOut>,
    note: &'static str,
}

fn timed(cfg: &HyperConfig) -> (HyperReport, f64) {
    let start = Instant::now();
    let report = run_hyperscale(cfg);
    (report, start.elapsed().as_secs_f64())
}

fn main() {
    let mut reps: usize = 3;
    let mut users: usize = 100_000;
    let mut full = false;
    let mut positional = 0;
    for arg in std::env::args().skip(1) {
        if arg == "--full" {
            full = true;
            continue;
        }
        let n: usize = arg.parse().unwrap_or_else(|_| {
            panic!("usage: cloudsim_hyperscale [reps] [users] [--full]; got {arg:?}")
        });
        match positional {
            0 => reps = n.max(1),
            _ => users = n.max(1),
        }
        positional += 1;
    }

    let paired_cfg = HyperConfig {
        users,
        max_placements: Some(PAIRED_CAP),
        ..HyperConfig::default()
    };

    // Warm up (page in code, size allocator pools) and pin the reference
    // digest both legs must reproduce.
    let warm = run_hyperscale(&paired_cfg);

    let mut detail = Vec::with_capacity(reps);
    let mut all_digests_equal = true;
    let mut last = None;
    for _ in 0..reps {
        let (naive, naive_s) = timed(&HyperConfig {
            naive: true,
            ..paired_cfg.clone()
        });
        let (indexed, indexed_s) = timed(&paired_cfg);
        let nr = naive.placements as f64 / naive_s;
        let ir = indexed.placements as f64 / indexed_s;
        let equal = naive.digest == indexed.digest && indexed.digest == warm.digest;
        all_digests_equal &= equal;
        detail.push(PairedRep {
            naive_s,
            indexed_s,
            naive_placements_per_s: nr,
            indexed_placements_per_s: ir,
            ratio: ir / nr,
            digest_equal: equal,
        });
        last = Some((naive, indexed));
    }
    let (naive_last, indexed_last) = last.expect("at least one rep");
    let ratio_median = median(detail.iter().map(|r| r.ratio).collect());
    let paired = PairedOut {
        users,
        cap_placements: PAIRED_CAP,
        placements: indexed_last.placements,
        live_vms_scanned_peak: naive_last.peak_vms,
        policy: indexed_last.policy.clone(),
        reps,
        naive_placements_per_s_median: median(
            detail.iter().map(|r| r.naive_placements_per_s).collect(),
        ),
        indexed_placements_per_s_median: median(
            detail.iter().map(|r| r.indexed_placements_per_s).collect(),
        ),
        reps_detail: detail,
        ratio_median,
        digest_equal: all_digests_equal,
    };
    println!(
        "paired @ {users} users / {PAIRED_CAP} placements: indexed {:.0}/s vs naive {:.0}/s \
         -> {ratio_median:.1}x (digests equal: {all_digests_equal})",
        paired.indexed_placements_per_s_median, paired.naive_placements_per_s_median,
    );

    // One replay fills the telemetry snapshot, written next to the
    // results JSON below.
    let mut snap = TelemetrySnapshot::new("", "full");
    let mut telemetry_label = String::new();

    // `--full`: certify memory first — peak heap of a complete 100k-user
    // replay, then of the 1M-user replay, same policy and rates.
    let mut full_out = None;
    if full {
        reset_peak();
        let probe = run_hyperscale(&HyperConfig {
            users: PROBE_USERS,
            ..HyperConfig::default()
        });
        let probe_peak = peak_bytes();
        assert!(probe.completed);
        drop(probe);

        reset_peak();
        let start = Instant::now();
        let run = run_hyperscale_with_telemetry(
            &HyperConfig {
                users: FULL_USERS,
                ..HyperConfig::default()
            },
            &mut snap,
        );
        let secs = start.elapsed().as_secs_f64();
        telemetry_label = format!("cloudsim_hyperscale.full_{FULL_USERS}");
        let full_peak = peak_bytes();
        let growth = full_peak as f64 / probe_peak as f64;
        println!(
            "full: {} users, {} pods, {} ticks in {secs:.1}s; peak heap {:.1} MiB \
             (100k probe {:.1} MiB, growth {growth:.3}x)",
            run.users,
            run.pods_placed,
            run.ticks,
            full_peak as f64 / (1024.0 * 1024.0),
            probe_peak as f64 / (1024.0 * 1024.0),
        );
        full_out = Some(FullOut {
            mem: MemOut {
                probe_users: PROBE_USERS,
                probe_peak_bytes: probe_peak,
                full_users: FULL_USERS,
                full_peak_bytes: full_peak,
                growth_ratio: growth,
            },
            run,
        });
    }

    // Policy shootout on the indexed engine: complete replays with
    // curves. Without `--full`, its MostRequested leg fills the snapshot.
    let mut shootout = Vec::new();
    for policy in [
        PlacePolicy::MostRequested,
        PlacePolicy::BinPack,
        PlacePolicy::Spread,
    ] {
        let cfg = HyperConfig {
            users: (users / 10).max(1_000),
            policy,
            ..HyperConfig::default()
        };
        let start = Instant::now();
        let report = if !full && policy == PlacePolicy::MostRequested {
            telemetry_label = format!("cloudsim_hyperscale.{policy:?}_{}", cfg.users);
            run_hyperscale_with_telemetry(&cfg, &mut snap)
        } else {
            run_hyperscale(&cfg)
        };
        let secs = start.elapsed().as_secs_f64();
        println!(
            "shootout {policy:?}: cost ${:.0}, peak {} VMs / {} pods, {} ticks in {secs:.1}s",
            report.total_cost, report.peak_vms, report.peak_live_pods, report.ticks
        );
        shootout.push(report);
    }

    let out = Out {
        benchmark: "cloudsim_hyperscale (crates/bench/src/bin/cloudsim_hyperscale.rs)",
        host_cores: host_cores(),
        paired,
        shootout,
        full: full_out,
        note: "ratio_median is the median of paired per-rep ratios of placements/s between \
               the bucket-indexed and exhaustive-scan engines replaying the identical event \
               prefix (shared max_placements cap); digest_equal records whether every rep's \
               decision digests were bit-identical, so the index changes throughput, never \
               placements. full.mem measures peak heap via a counting global allocator: \
               growth_ratio is a complete 1M-user replay's peak over the 100k-user probe's, \
               which stays near 1 while live state scales with the working set, not the user \
               count. tools/perfgate.rs judges every field. Shootout entries are \
               indexed-engine replays per policy with engine-downsampled cost/utilization \
               curves.",
    };
    let json = serde_json::to_string_pretty(&out).expect("report serializes");
    write_artifact("results/cloudsim_hyperscale.json", &json);

    snap.label.clone_from(&telemetry_label);
    let telemetry_json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    write_artifact(
        "results/cloudsim_hyperscale.telemetry.json",
        &telemetry_json,
    );
    println!("telemetry: {telemetry_label} -> results/cloudsim_hyperscale.telemetry.json");
}
