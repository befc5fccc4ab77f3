//! CI perf gate: the one place a perf claim of this repository is
//! decided.
//!
//! The gate binaries only measure. `engine_throughput` (its
//! `observability` and `multicore` scenarios), `engine_hybrid`,
//! `cloudsim_hyperscale` and `policy_churn` always write their artifacts
//! under `results/` and exit 0; only bad arguments or a failed write
//! fail them. Every
//! threshold is a constant of this file, and none is read from an
//! artifact. `check` judges every artifact, prints one line per verdict,
//! and fails once at the end with the count, so a missed timing floor
//! never hides the other verdicts. Ratios are paired within one machine,
//! and counts and digests are simulated, so no check compares timings
//! taken on two different hosts.
//!
//! The checks, by artifact:
//!
//! * `observability_overhead.json`
//!   - each mode's `relative_to_off_median` ≥ baseline × (1 − 0.15);
//!   - `telemetry_off` (config-identical to `off`, separately measured)
//!     ≥ 0.95 of `off`;
//!   - `telemetry_full` journals > 0 records per rep (a live branch).
//! * `engine_multicore.json`
//!   - every sweep row `bit_identical`;
//!   - the conservative 4-shard row's `speedup_vs_sequential_peak`
//!     ≥ 0.85 (the coordinator-overhead floor: sharded runs execute on
//!     one thread, so this is the cost of rounds and merge on any host);
//!   - each row's peak speedup ≥ baseline × (1 − 0.15) when the baseline
//!     was recorded with the same `host_cores`.
//! * `engine_hybrid.json`
//!   - every sharded row `bit_identical`;
//!   - `speedup_median` ≥ 10 and ≥ baseline × (1 − 0.15);
//!   - `frames_ratio` and `cpu_ratio` within 1 ± 0.15 (figure
//!     comparability);
//!   - `hybrid.fastpath_frames` > 0;
//!   - `packet.{frames,events,cpu_ns}` and
//!     `hybrid.{frames,events,cpu_ns,fastpath_frames,escalations}` equal
//!     the baseline's exactly.
//! * `cloudsim_hyperscale.json`
//!   - `paired.digest_equal`;
//!   - `paired.ratio_median` ≥ 10 and ≥ baseline × (1 − 0.15);
//!   - with a `full` section: the run completed with ≥ 1M users and
//!     ≥ 10M pods, and `mem.growth_ratio` ≤ 1.5.
//! * `cloudsim_hyperscale.telemetry.json` — a `hyper.placements` counter
//!   > 0 and at least one series with points.
//! * `policy_churn.json`
//!   - `matcher.digest_match` (compiled matcher = naive first-match walk);
//!   - `matcher.digest_small` and `digest_large` equal the baseline's
//!     verbatim (matcher semantics are frozen);
//!   - `overhead_ratio` ≤ 1 + 0.15;
//!   - `churn.purged` > 0;
//!   - every sharded row `bit_identical`.
//!
//! Usage:
//!
//! ```text
//! perfgate check <results_dir> <baselines_dir>
//! perfgate selftest
//! ```
//!
//! `selftest` feeds every check a fixture it must reject, with the exact
//! number of failures expected, plus clean fixtures it must pass; it
//! exits non-zero otherwise. CI runs it first so a silently broken gate
//! cannot pass.

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Allowed relative regression on any gated ratio, and the hybrid
/// fidelity and policy per-packet budgets.
const TOLERANCE: f64 = 0.15;
/// Coordinator-overhead floor: 4 conservative shards on any machine.
const OVERHEAD_FLOOR: f64 = 0.85;
/// Hybrid fast-path floor: effective frames/s of hybrid over packet
/// fidelity on the relay-chain scenario.
const HYBRID_FLOOR: f64 = 10.0;
/// The simulated counts behind the hybrid ratio, gated exactly against
/// the baseline: they reproduce bit for bit on any host.
const HYBRID_COUNTS: [(&str, &str); 8] = [
    ("packet", "frames"),
    ("packet", "events"),
    ("packet", "cpu_ns"),
    ("hybrid", "frames"),
    ("hybrid", "events"),
    ("hybrid", "cpu_ns"),
    ("hybrid", "fastpath_frames"),
    ("hybrid", "escalations"),
];
/// Cloudsim bucket-index floor: the paired placements/s ratio at the
/// 100k-user scenario scale. The pairing makes the ratio
/// machine-independent (both legs replay the identical event prefix on
/// the same runner), so the acceptance target is gated directly.
const CLOUDSIM_FLOOR: f64 = 10.0;
/// The `--full` certification replays at least this many users...
const FULL_USERS_FLOOR: f64 = 1_000_000.0;
/// ...and places at least this many pods.
const FULL_PODS_FLOOR: f64 = 10_000_000.0;
/// Peak heap of the 1M-user replay over the 100k-user probe's. The live
/// working set is the same (same arrival rate and stay), so growth only
/// comes from saturating vocabularies (shapes, curve buffer); an engine
/// that materializes the trace or keeps per-user state blows through it.
const MEM_GROWTH_CEIL: f64 = 1.5;
/// Disabled telemetry must cost nothing: the `telemetry_off` sweep row is
/// config-identical to `off` but separately measured, so its
/// `relative_to_off_median` *is* the zero-cost claim — two independent
/// measurements of the same configuration, gated directly (no baseline
/// needed; the ratio is within-machine).
const TELEMETRY_OFF_FLOOR: f64 = 0.95;

#[derive(Default)]
struct Gate {
    failures: Vec<String>,
}

impl Gate {
    fn fail(&mut self, msg: String) {
        eprintln!("perfgate: FAIL: {msg}");
        self.failures.push(msg);
    }

    /// Gates `cur >= base * (1 - TOLERANCE)` for a higher-is-better ratio.
    fn ratio_floor(&mut self, what: &str, cur: f64, base: f64) {
        let floor = base * (1.0 - TOLERANCE);
        if cur < floor {
            self.fail(format!(
                "{what}: {cur:.3} regressed more than {:.0}% below baseline {base:.3} (floor {floor:.3})",
                TOLERANCE * 100.0
            ));
        } else {
            println!("perfgate: ok: {what}: {cur:.3} (baseline {base:.3}, floor {floor:.3})");
        }
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Loads a baseline; a missing or corrupt file fails the gate instead of
/// silently skipping every comparison against it.
fn load_baseline(gate: &mut Gate, path: &Path) -> Option<Value> {
    load(path).map_err(|e| gate.fail(e)).ok()
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn f64_at(v: &Value, key: &str) -> Option<f64> {
    v.get(key).and_then(as_f64)
}

fn bool_at(v: &Value, key: &str) -> Option<bool> {
    match v.get(key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn str_at<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    v.get(key).and_then(Value::as_str)
}

fn seq_at<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    v.get(key).and_then(Value::as_seq).unwrap_or(&[])
}

/// Every row of `cur`'s `sharded` sweep must be bit-identical to the
/// 1-shard outcome.
fn check_sharded(gate: &mut Gate, what: &str, cur: &Value) {
    for row in seq_at(cur, "sharded") {
        let shards = f64_at(row, "shards_wanted").unwrap_or(0.0) as u64;
        if bool_at(row, "bit_identical") != Some(true) {
            gate.fail(format!(
                "{what} at {shards} shards: not bit-identical to the 1-shard outcome"
            ));
        }
    }
}

/// Gate the flight-recorder overhead ratios against the baseline.
fn check_observability(gate: &mut Gate, cur: &Value, base: &Value) {
    let cur_modes = seq_at(cur, "modes");
    let base_modes = seq_at(base, "modes");
    if base_modes.is_empty() {
        gate.fail("observability baseline has no modes".to_string());
    }
    for bm in base_modes {
        let label = str_at(bm, "mode").unwrap_or("?");
        let Some(base_ratio) = f64_at(bm, "relative_to_off_median") else {
            gate.fail(format!("observability baseline mode {label}: no ratio"));
            continue;
        };
        let Some(cm) = cur_modes.iter().find(|m| str_at(m, "mode") == Some(label)) else {
            gate.fail(format!("observability results are missing mode {label}"));
            continue;
        };
        let Some(cur_ratio) = f64_at(cm, "relative_to_off_median") else {
            gate.fail(format!("observability results mode {label}: no ratio"));
            continue;
        };
        gate.ratio_floor(
            &format!("observability relative_to_off[{label}]"),
            cur_ratio,
            base_ratio,
        );
    }
}

/// Gate the telemetry plane rows of the observability sweep: disabled
/// telemetry must be measurably free, and the full-journal row must have
/// actually journaled records (otherwise the sweep measured a dead
/// branch and its overhead numbers are meaningless).
fn check_telemetry(gate: &mut Gate, cur: &Value) {
    let modes = seq_at(cur, "modes");
    match modes
        .iter()
        .find(|m| str_at(m, "mode") == Some("telemetry_off"))
    {
        None => gate.fail("observability results have no telemetry_off mode".to_string()),
        Some(m) => match f64_at(m, "relative_to_off_median") {
            None => gate.fail("telemetry_off mode has no relative_to_off_median".to_string()),
            Some(r) if r < TELEMETRY_OFF_FLOOR => gate.fail(format!(
                "telemetry_off runs at {r:.3}x of off (floor {TELEMETRY_OFF_FLOOR}): \
                 disabled telemetry is not free"
            )),
            Some(r) => {
                println!("perfgate: ok: telemetry_off {r:.3}x of off (floor {TELEMETRY_OFF_FLOOR})")
            }
        },
    }
    match modes
        .iter()
        .find(|m| str_at(m, "mode") == Some("telemetry_full"))
    {
        None => gate.fail("observability results have no telemetry_full mode".to_string()),
        Some(m) => match f64_at(m, "journal_records_per_rep") {
            Some(n) if n > 0.0 => {
                println!("perfgate: ok: telemetry_full journals {n:.0} records/rep (live branch)")
            }
            _ => gate.fail(
                "telemetry_full journaled no records — the sweep measured a dead branch"
                    .to_string(),
            ),
        },
    }
}

/// Gate the multicore sweep: determinism everywhere, coordinator
/// overhead on the conservative 4-shard row, plus baseline-relative
/// speedups on like-for-like runners.
fn check_multicore(gate: &mut Gate, cur: &Value, base: Option<&Value>) {
    let rows = seq_at(cur, "sweep");
    if rows.is_empty() {
        gate.fail("multicore results have no sweep rows".to_string());
        return;
    }
    for row in rows {
        let mode = str_at(row, "mode").unwrap_or("?");
        let shards = f64_at(row, "shards_got").unwrap_or(0.0) as u64;
        if bool_at(row, "bit_identical") != Some(true) {
            gate.fail(format!(
                "multicore {mode}/{shards} shards: not bit-identical to the sequential engine"
            ));
        }
    }
    let four = rows.iter().find(|r| {
        str_at(r, "mode") == Some("conservative") && f64_at(r, "shards_got") == Some(4.0)
    });
    match four.and_then(|r| f64_at(r, "speedup_vs_sequential_peak")) {
        None => gate.fail("multicore sweep has no conservative 4-shard row".to_string()),
        Some(speedup) if speedup < OVERHEAD_FLOOR => gate.fail(format!(
            "multicore conservative/4 shards: speedup {speedup:.3} below the \
             {OVERHEAD_FLOOR} coordinator-overhead floor"
        )),
        Some(speedup) => println!(
            "perfgate: ok: multicore conservative/4 speedup {speedup:.3} \
             (overhead floor {OVERHEAD_FLOOR})"
        ),
    }
    // Baseline-relative speedups only compare like-for-like hardware.
    if let Some(base) = base {
        if f64_at(base, "host_cores") == f64_at(cur, "host_cores") {
            for brow in seq_at(base, "sweep") {
                let mode = str_at(brow, "mode").unwrap_or("?");
                let shards = f64_at(brow, "shards_wanted").unwrap_or(0.0) as u64;
                let (Some(bs), Some(crow)) = (
                    f64_at(brow, "speedup_vs_sequential_peak"),
                    rows.iter().find(|r| {
                        str_at(r, "mode") == Some(mode)
                            && f64_at(r, "shards_wanted") == f64_at(brow, "shards_wanted")
                    }),
                ) else {
                    continue;
                };
                if let Some(cs) = f64_at(crow, "speedup_vs_sequential_peak") {
                    gate.ratio_floor(&format!("multicore speedup[{mode}/{shards}]"), cs, bs);
                }
            }
        } else {
            println!(
                "perfgate: skip: baseline recorded on different core count; \
                 speedup ratios not compared"
            );
        }
    }
}

/// Gate the hybrid fast path: determinism at every shard count, the
/// absolute speedup floor, the figure-comparability tolerances, a live
/// fast path, and (vs the baseline) no speedup regression and the exact
/// simulated counts. The speedup is a paired within-machine ratio, so it
/// is compared across runners unconditionally.
fn check_hybrid(gate: &mut Gate, cur: &Value, base: Option<&Value>) {
    check_sharded(gate, "hybrid", cur);
    match f64_at(cur, "speedup_median") {
        None => gate.fail("hybrid results have no speedup_median".to_string()),
        Some(speedup) => {
            if speedup < HYBRID_FLOOR {
                gate.fail(format!(
                    "hybrid speedup {speedup:.3} below the {HYBRID_FLOOR}x floor"
                ));
            } else {
                println!("perfgate: ok: hybrid speedup {speedup:.3} (floor {HYBRID_FLOOR})");
            }
            if let Some(bs) = base.and_then(|b| f64_at(b, "speedup_median")) {
                gate.ratio_floor("hybrid speedup_median", speedup, bs);
            }
        }
    }
    for key in ["frames_ratio", "cpu_ratio"] {
        match f64_at(cur, key) {
            None => gate.fail(format!("hybrid results have no {key}")),
            Some(r) if (r - 1.0).abs() > TOLERANCE => gate.fail(format!(
                "hybrid {key} {r:.3} outside the ±{:.0}% figure-comparability budget",
                TOLERANCE * 100.0
            )),
            Some(r) => println!(
                "perfgate: ok: hybrid {key} {r:.3} (within ±{:.0}%)",
                TOLERANCE * 100.0
            ),
        }
    }
    match cur.get("hybrid").and_then(|h| f64_at(h, "fastpath_frames")) {
        Some(n) if n > 0.0 => println!("perfgate: ok: hybrid fast path carried {n:.0} frames"),
        _ => gate.fail("hybrid run never took the fast path (no fastpath_frames)".to_string()),
    }
    let Some(base) = base else { return };
    let count = |v: &Value, section: &str, key: &str| v.get(section).and_then(|s| f64_at(s, key));
    let before = gate.failures.len();
    for (section, key) in HYBRID_COUNTS {
        match (count(cur, section, key), count(base, section, key)) {
            (Some(c), Some(b)) if c == b => {}
            (Some(c), Some(b)) => gate.fail(format!(
                "hybrid counts: {section}.{key} {c:.0} differs from baseline {b:.0} \
                 (a simulated count: identical on every host)"
            )),
            _ => gate.fail(format!(
                "hybrid counts: {section}.{key} missing for baseline comparison"
            )),
        }
    }
    if gate.failures.len() == before {
        println!(
            "perfgate: ok: hybrid counts equal the baseline ({} fields)",
            HYBRID_COUNTS.len()
        );
    }
}

/// Gate the hyperscale cloudsim replay: identical decisions between the
/// indexed and naive engines, the absolute paired speedup floor, no
/// speedup regression against the baseline, and — when the artifact
/// carries a `full` certification section (CI runs `--full`; shorter
/// local runs omit it) — the million-user completion and memory bound.
fn check_cloudsim(gate: &mut Gate, cur: &Value, base: Option<&Value>) {
    let Some(paired) = cur.get("paired") else {
        gate.fail("cloudsim results have no paired section".to_string());
        return;
    };
    if bool_at(paired, "digest_equal") != Some(true) {
        gate.fail(
            "cloudsim paired: indexed and naive engines disagree on placements \
             (decision digests differ)"
                .to_string(),
        );
    } else {
        println!("perfgate: ok: cloudsim paired decision digests bit-identical");
    }
    match f64_at(paired, "ratio_median") {
        None => gate.fail("cloudsim paired results have no ratio_median".to_string()),
        Some(ratio) => {
            if ratio < CLOUDSIM_FLOOR {
                gate.fail(format!(
                    "cloudsim paired speedup {ratio:.2} below the {CLOUDSIM_FLOOR}x floor"
                ));
            } else {
                println!(
                    "perfgate: ok: cloudsim paired speedup {ratio:.2} (floor {CLOUDSIM_FLOOR})"
                );
            }
            if let Some(bs) = base
                .and_then(|b| b.get("paired"))
                .and_then(|p| f64_at(p, "ratio_median"))
            {
                gate.ratio_floor("cloudsim ratio_median", ratio, bs);
            }
        }
    }
    match cur.get("full") {
        None | Some(Value::Null) => {
            println!("perfgate: skip: cloudsim artifact has no full certification section");
        }
        Some(full) => {
            match full.get("run") {
                None => gate.fail("cloudsim full section has no run".to_string()),
                Some(run) => {
                    if bool_at(run, "completed") != Some(true) {
                        gate.fail("cloudsim full run did not complete".to_string());
                    }
                    let users = f64_at(run, "users").unwrap_or(0.0);
                    if users < FULL_USERS_FLOOR {
                        gate.fail(format!(
                            "cloudsim full run replayed {users:.0} users (< {FULL_USERS_FLOOR:.0})"
                        ));
                    }
                    let pods = f64_at(run, "pods_placed").unwrap_or(0.0);
                    if pods < FULL_PODS_FLOOR {
                        gate.fail(format!(
                            "cloudsim full run placed {pods:.0} pods (< {FULL_PODS_FLOOR:.0})"
                        ));
                    }
                    if users >= FULL_USERS_FLOOR && pods >= FULL_PODS_FLOOR {
                        println!(
                            "perfgate: ok: cloudsim full run: {users:.0} users, {pods:.0} pods"
                        );
                    }
                }
            }
            match full.get("mem").and_then(|m| f64_at(m, "growth_ratio")) {
                None => gate.fail("cloudsim full section has no mem.growth_ratio".to_string()),
                Some(growth) if growth > MEM_GROWTH_CEIL => gate.fail(format!(
                    "cloudsim peak heap grew {growth:.3}x from 100k to 1M users \
                     (ceiling {MEM_GROWTH_CEIL}): live state is no longer constant in the \
                     user count"
                )),
                Some(growth) => println!(
                    "perfgate: ok: cloudsim peak-heap growth {growth:.3}x \
                     (ceiling {MEM_GROWTH_CEIL})"
                ),
            }
        }
    }
}

/// Gate the instrumented cloudsim replay's telemetry snapshot: it must
/// surface the placement counter and export decision-curve points.
fn check_cloudsim_telemetry(gate: &mut Gate, snap: &Value) {
    match snap
        .get("counters")
        .and_then(|c| f64_at(c, "hyper.placements"))
    {
        Some(n) if n > 0.0 => {
            println!("perfgate: ok: cloudsim telemetry counts {n:.0} hyper.placements")
        }
        _ => gate.fail("cloudsim telemetry snapshot has no hyper.placements".to_string()),
    }
    if seq_at(snap, "series")
        .iter()
        .any(|s| !seq_at(s, "points").is_empty())
    {
        println!("perfgate: ok: cloudsim telemetry exports decision-curve points");
    } else {
        gate.fail("cloudsim telemetry snapshot exports no decision-curve points".to_string());
    }
}

/// Gate the policy-churn matcher artifact: semantic agreement with the
/// naive walk, digest stability against the committed baseline (the
/// digests are seed-deterministic and machine-independent, so any drift
/// is a matcher semantics change, not noise), the per-packet overhead
/// budget between table scales, expired rules that purge, and sharded
/// determinism.
fn check_policy_churn(gate: &mut Gate, cur: &Value, base: Option<&Value>) {
    let Some(matcher) = cur.get("matcher") else {
        gate.fail("policy_churn results have no matcher section".to_string());
        return;
    };
    if bool_at(matcher, "digest_match") != Some(true) {
        gate.fail(
            "policy_churn: compiled matcher disagrees with the naive first-match walk".to_string(),
        );
    } else {
        println!("perfgate: ok: policy_churn compiled and naive verdict digests agree");
    }
    if let Some(bm) = base.and_then(|b| b.get("matcher")) {
        for key in ["digest_small", "digest_large"] {
            match (str_at(matcher, key), str_at(bm, key)) {
                (Some(c), Some(b)) if c != b => gate.fail(format!(
                    "policy_churn {key}: {c} differs from baseline {b} — matcher semantics drifted"
                )),
                (Some(c), Some(_)) => {
                    println!("perfgate: ok: policy_churn {key} {c} matches baseline")
                }
                _ => gate.fail(format!(
                    "policy_churn: missing {key} for baseline comparison"
                )),
            }
        }
    }
    match f64_at(cur, "overhead_ratio") {
        None => gate.fail("policy_churn results have no overhead_ratio".to_string()),
        Some(r) if r > 1.0 + TOLERANCE => gate.fail(format!(
            "policy_churn: per-packet overhead at 100k rules is {r:.3}x of 1k \
             (budget {:.2})",
            1.0 + TOLERANCE
        )),
        Some(r) => println!(
            "perfgate: ok: policy_churn per-packet overhead {r:.3}x (budget {:.2})",
            1.0 + TOLERANCE
        ),
    }
    match cur.get("churn").and_then(|c| f64_at(c, "purged")) {
        Some(n) if n > 0.0 => println!("perfgate: ok: policy_churn purged {n:.0} expired rules"),
        _ => gate.fail("policy_churn: no expired rule was purgeable (churn.purged)".to_string()),
    }
    check_sharded(gate, "policy_churn", cur);
}

fn run_check(results: &Path, baselines: &Path) -> ExitCode {
    let mut gate = Gate::default();
    match (
        load(&results.join("observability_overhead.json")),
        load(&baselines.join("observability_overhead.json")),
    ) {
        (Ok(cur), Ok(base)) => {
            check_observability(&mut gate, &cur, &base);
            check_telemetry(&mut gate, &cur);
        }
        (Err(e), _) | (_, Err(e)) => gate.fail(e),
    }
    match load(&results.join("engine_multicore.json")) {
        Ok(cur) => {
            let base = load_baseline(&mut gate, &baselines.join("engine_multicore.json"));
            check_multicore(&mut gate, &cur, base.as_ref());
        }
        Err(e) => gate.fail(e),
    }
    match load(&results.join("engine_hybrid.json")) {
        Ok(cur) => {
            let base = load_baseline(&mut gate, &baselines.join("engine_hybrid.json"));
            check_hybrid(&mut gate, &cur, base.as_ref());
        }
        Err(e) => gate.fail(e),
    }
    match load(&results.join("cloudsim_hyperscale.json")) {
        Ok(cur) => {
            let base = load_baseline(&mut gate, &baselines.join("cloudsim_hyperscale.json"));
            check_cloudsim(&mut gate, &cur, base.as_ref());
        }
        Err(e) => gate.fail(e),
    }
    match load(&results.join("cloudsim_hyperscale.telemetry.json")) {
        Ok(snap) => check_cloudsim_telemetry(&mut gate, &snap),
        Err(e) => gate.fail(e),
    }
    match load(&results.join("policy_churn.json")) {
        Ok(cur) => {
            let base = load_baseline(&mut gate, &baselines.join("policy_churn.json"));
            check_policy_churn(&mut gate, &cur, base.as_ref());
        }
        Err(e) => gate.fail(e),
    }
    if gate.failures.is_empty() {
        println!("perfgate: all gates passed");
        ExitCode::SUCCESS
    } else {
        eprintln!("perfgate: {} gate(s) failed", gate.failures.len());
        ExitCode::FAILURE
    }
}

fn fixture(json: &str) -> Value {
    serde_json::from_str(json).expect("selftest fixture must parse")
}

/// Runs `checks` on a fresh gate and returns how many failures it raised.
fn failures(checks: impl FnOnce(&mut Gate)) -> usize {
    let mut gate = Gate::default();
    checks(&mut gate);
    gate.failures.len()
}

/// Feeds every check fixtures it must reject, each with the exact number
/// of failures expected, and clean fixtures it must pass; the gate itself
/// is broken unless every count matches.
fn selftest() -> ExitCode {
    let base = fixture(
        r#"{"modes": [
            {"mode": "off", "relative_to_off_median": 1.0},
            {"mode": "counters", "relative_to_off_median": 0.95},
            {"mode": "full", "relative_to_off_median": 0.80}
        ]}"#,
    );
    let regressed = fixture(
        r#"{"modes": [
            {"mode": "off", "relative_to_off_median": 1.0},
            {"mode": "counters", "relative_to_off_median": 0.94},
            {"mode": "full", "relative_to_off_median": 0.56}
        ]}"#,
    );
    // A non-free disabled plane and a dead-branch full journal.
    let bad_telemetry = fixture(
        r#"{"modes": [
            {"mode": "off", "relative_to_off_median": 1.0},
            {"mode": "telemetry_off", "relative_to_off_median": 0.90},
            {"mode": "telemetry_full", "relative_to_off_median": 0.85,
             "journal_records_per_rep": 0}
        ]}"#,
    );
    let ok_telemetry = fixture(
        r#"{"modes": [
            {"mode": "off", "relative_to_off_median": 1.0},
            {"mode": "telemetry_off", "relative_to_off_median": 0.99},
            {"mode": "telemetry_full", "relative_to_off_median": 0.88,
             "journal_records_per_rep": 1200}
        ]}"#,
    );
    let bad_sweep = fixture(
        r#"{"host_cores": 1, "sweep": [
            {"mode": "conservative", "shards_wanted": 4, "shards_got": 4,
             "speedup_vs_sequential_peak": 0.55, "bit_identical": false}
        ]}"#,
    );
    let ok_sweep = fixture(
        r#"{"host_cores": 1, "sweep": [
            {"mode": "conservative", "shards_wanted": 4, "shards_got": 4,
             "speedup_vs_sequential_peak": 0.9, "bit_identical": true}
        ]}"#,
    );
    // Hybrid fixtures are the clean artifact with one field changed.
    let hybrid = |speedup: &str, fastpath: &str, events: &str| {
        fixture(&format!(
            r#"{{"speedup_median": {speedup}, "frames_ratio": 0.99, "cpu_ratio": 1.01,
                "packet": {{"frames": 3816, "events": 186877, "cpu_ns": 79998012}},
                "hybrid": {{"frames": 3820, "events": {events}, "cpu_ns": 80006640,
                           "fastpath_frames": {fastpath}, "escalations": 0}},
                "sharded": [
                    {{"shards_wanted": 1, "bit_identical": true}},
                    {{"shards_wanted": 2, "bit_identical": true}},
                    {{"shards_wanted": 8, "bit_identical": true}}
                ]}}"#
        ))
    };
    let ok_hybrid = hybrid("11.0", "3660", "11660");
    // A broken fast path (no speedup), a determinism violation, and a
    // fidelity drift.
    let bad_hybrid = fixture(
        r#"{"speedup_median": 1.1, "frames_ratio": 1.3, "cpu_ratio": 1.0,
            "hybrid": {"fastpath_frames": 3660},
            "sharded": [
                {"shards_wanted": 1, "bit_identical": true},
                {"shards_wanted": 8, "bit_identical": false}
            ]}"#,
    );
    let fast_hybrid_base = hybrid("13.0", "3660", "11660");
    let bad_cloudsim = fixture(
        r#"{"paired": {"digest_equal": false, "ratio_median": 3.0},
            "full": {
                "run": {"completed": false, "users": 500000, "pods_placed": 4000000},
                "mem": {"growth_ratio": 2.4}
            }}"#,
    );
    let ok_cloudsim = fixture(
        r#"{"paired": {"digest_equal": true, "ratio_median": 30.0},
            "full": {
                "run": {"completed": true, "users": 1000000, "pods_placed": 15000000},
                "mem": {"growth_ratio": 1.1}
            }}"#,
    );
    // The artifact's own claim of a looser ceiling must not count.
    let self_excused_cloudsim = fixture(
        r#"{"paired": {"digest_equal": true, "ratio_median": 30.0},
            "full": {
                "run": {"completed": true, "users": 1000000, "pods_placed": 15000000},
                "mem": {"growth_ratio": 1.51, "growth_ceiling": 2.0}
            }}"#,
    );
    // A run without `--full` omits the certification; that is no failure.
    let ok_cloudsim_short =
        fixture(r#"{"paired": {"digest_equal": true, "ratio_median": 28.0}, "full": null}"#);
    let regressed_cloudsim = fixture(r#"{"paired": {"digest_equal": true, "ratio_median": 20.0}}"#);
    let bad_cloudsim_telemetry = fixture(
        r#"{"counters": {"hyper.ticks": 10}, "series": [{"name": "hyper.live_vms", "points": []}]}"#,
    );
    let ok_cloudsim_telemetry = fixture(
        r#"{"counters": {"hyper.placements": 1200},
            "series": [{"name": "hyper.live_vms", "points": [[0, 1.0]]}]}"#,
    );
    let policy = |overhead: &str, digest_small: &str, purged: &str| {
        fixture(&format!(
            r#"{{"overhead_ratio": {overhead},
                "matcher": {{"digest_match": true,
                            "digest_small": "{digest_small}", "digest_large": "0xbbbb"}},
                "churn": {{"purged": {purged}}},
                "sharded": [
                    {{"shards_wanted": 1, "bit_identical": true}},
                    {{"shards_wanted": 2, "bit_identical": true}},
                    {{"shards_wanted": 8, "bit_identical": true}}
                ]}}"#
        ))
    };
    let ok_policy = policy("1.03", "0xaaaa", "3312");
    // A matcher/naive disagreement, a blown per-packet overhead budget,
    // and a determinism violation.
    let bad_policy = fixture(
        r#"{"overhead_ratio": 1.6,
            "matcher": {"digest_match": false,
                        "digest_small": "0xaaaa", "digest_large": "0xbbbb"},
            "churn": {"purged": 3312},
            "sharded": [
                {"shards_wanted": 1, "bit_identical": true},
                {"shards_wanted": 8, "bit_identical": false}
            ]}"#,
    );

    let cases: Vec<(&str, usize, usize)> = vec![
        (
            "observability 30% drop",
            1,
            failures(|g| check_observability(g, &regressed, &base)),
        ),
        (
            "telemetry floor, dead journal",
            2,
            failures(|g| check_telemetry(g, &bad_telemetry)),
        ),
        (
            "multicore identity, overhead",
            2,
            failures(|g| check_multicore(g, &bad_sweep, None)),
        ),
        (
            "hybrid identity, floor, frames",
            3,
            failures(|g| check_hybrid(g, &bad_hybrid, None)),
        ),
        ("hybrid 9.99x vs the 10x floor", 1, {
            let cur = hybrid("9.99", "3660", "11660");
            failures(|g| check_hybrid(g, &cur, Some(&ok_hybrid)))
        }),
        ("hybrid 15% below baseline", 1, {
            // Clears the 10x floor but sits more than 15% under 13x.
            failures(|g| check_hybrid(g, &ok_hybrid, Some(&fast_hybrid_base)))
        }),
        ("hybrid fastpath_frames 0", 1, {
            let cur = hybrid("11.0", "0", "11660");
            failures(|g| check_hybrid(g, &cur, None))
        }),
        ("hybrid count off by one", 1, {
            let cur = hybrid("11.0", "3660", "11661");
            failures(|g| check_hybrid(g, &cur, Some(&ok_hybrid)))
        }),
        (
            "cloudsim digest, floor, full run",
            6,
            failures(|g| check_cloudsim(g, &bad_cloudsim, None)),
        ),
        ("cloudsim growth 1.51, claims 2.0", 1, {
            failures(|g| check_cloudsim(g, &self_excused_cloudsim, None))
        }),
        ("cloudsim 15% below baseline", 1, {
            failures(|g| check_cloudsim(g, &regressed_cloudsim, Some(&ok_cloudsim)))
        }),
        ("cloudsim telemetry empty", 2, {
            failures(|g| check_cloudsim_telemetry(g, &bad_cloudsim_telemetry))
        }),
        ("policy match, overhead, identity", 3, {
            failures(|g| check_policy_churn(g, &bad_policy, None))
        }),
        ("policy digest drift", 1, {
            let cur = policy("1.03", "0xcccc", "3312");
            failures(|g| check_policy_churn(g, &cur, Some(&ok_policy)))
        }),
        ("policy churn.purged 0", 1, {
            let cur = policy("1.03", "0xaaaa", "0");
            failures(|g| check_policy_churn(g, &cur, None))
        }),
        ("clean artifacts", 0, {
            failures(|g| {
                check_observability(g, &base, &base);
                check_telemetry(g, &ok_telemetry);
                check_multicore(g, &ok_sweep, None);
                check_hybrid(g, &ok_hybrid, Some(&ok_hybrid));
                check_cloudsim(g, &ok_cloudsim, Some(&ok_cloudsim));
                check_cloudsim(g, &ok_cloudsim_short, Some(&ok_cloudsim));
                check_cloudsim_telemetry(g, &ok_cloudsim_telemetry);
                check_policy_churn(g, &ok_policy, Some(&ok_policy));
            })
        }),
    ];

    let wrong: Vec<String> = cases
        .iter()
        .filter(|(_, want, got)| want != got)
        .map(|(what, want, got)| format!("{what}: {got} failures, expected {want}"))
        .collect();
    if wrong.is_empty() {
        println!(
            "perfgate: selftest passed ({} fixtures, each failure count exact)",
            cases.len()
        );
        ExitCode::SUCCESS
    } else {
        for w in &wrong {
            eprintln!("perfgate: selftest: {w}");
        }
        eprintln!("perfgate: selftest FAILED");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("selftest") => selftest(),
        Some("check") if args.len() == 3 => run_check(Path::new(&args[1]), Path::new(&args[2])),
        _ => {
            eprintln!("usage: perfgate check <results_dir> <baselines_dir> | perfgate selftest");
            ExitCode::from(2)
        }
    }
}
