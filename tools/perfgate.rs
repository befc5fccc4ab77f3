//! CI perf-regression gate for the `engine_throughput` bench outputs.
//!
//! Compares the freshly produced `results/*.json` against baselines
//! committed under `ci/baselines/`, gating only on **machine-independent
//! ratios** (never absolute event rates, which vary with runner hardware):
//!
//! * `observability_overhead.json` — each mode's `relative_to_off_median`
//!   (throughput relative to tracing-off on the *same* machine) may not
//!   regress by more than 15% against the baseline. The telemetry rows
//!   are additionally gated absolutely: `telemetry_off` (config-identical
//!   to `off`, separately measured) must stay ≥ 0.95x of `off`, and
//!   `telemetry_full` must have journaled records (a live branch).
//! * `engine_multicore.json` — every sweep row must be `bit_identical`;
//!   the 4-shard row's `speedup_vs_sequential_peak` (the noise-robust
//!   paired statistic: peak rate over the sequential peak from the same
//!   interleaved run) must stay ≥ 0.85 (the coordinator-overhead floor:
//!   sharded runs execute on one thread, so this is the cost of rounds
//!   and merge on any host); and when the baseline was recorded on a
//!   runner with the same core count, per-row peak speedups may not
//!   regress by more than 15%.
//! * `cloudsim_hyperscale.json` — the indexed and naive placement engines
//!   must produce bit-equal decision digests; the paired placements/s
//!   ratio must stay ≥ 10x and may not regress by more than 15% against
//!   the baseline; artifacts carrying a `full` certification section must
//!   show a completed ≥1M-user / ≥10M-pod replay whose peak heap stayed
//!   within the recorded growth ceiling of the 100k-user probe.
//! * `policy_churn.json` — the compiled filter matcher must agree with
//!   the naive first-match walk (`digest_match`), its machine-independent
//!   verdict digests must equal the committed baseline's verbatim
//!   (matcher semantics are frozen), the per-packet overhead between the
//!   1k- and 100k-rule tables must stay within 15%, and every sharded
//!   row must be bit-identical.
//!
//! Usage:
//!
//! ```text
//! perfgate check <results_dir> <baselines_dir>
//! perfgate selftest
//! ```
//!
//! `selftest` feeds the comparator an injected 30% regression (and a
//! non-bit-identical sweep row) and exits non-zero unless both are
//! caught — CI runs it first so a silently broken gate cannot pass.

use serde_json::Value;
use std::path::Path;
use std::process::ExitCode;

/// Allowed relative regression on any gated ratio.
const TOLERANCE: f64 = 0.15;
/// Coordinator-overhead floor: 4 conservative shards on any machine.
const OVERHEAD_FLOOR: f64 = 0.85;
/// Hybrid fast-path floor: the relay-chain scenario targets ≥10x but the
/// gate floors at 5x so a noisy runner cannot flake the build while a
/// broken fast path (≈1x) still fails loudly.
const HYBRID_FLOOR: f64 = 5.0;
/// Cloudsim bucket-index floor: the paired placements/s ratio at the
/// 100k-user scenario scale. The pairing makes the ratio
/// machine-independent (both legs replay the identical event prefix on
/// the same runner), so the acceptance target is gated directly.
const CLOUDSIM_FLOOR: f64 = 10.0;
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
/// absolute speedup floor, the figure-comparability tolerances, and (vs
/// the baseline) no speedup regression. The speedup is a paired
/// within-machine ratio, so it is compared across runners unconditionally.
fn check_hybrid(gate: &mut Gate, cur: &Value, base: Option<&Value>) {
    for row in seq_at(cur, "sharded") {
        let shards = f64_at(row, "shards_wanted").unwrap_or(0.0) as u64;
        if bool_at(row, "bit_identical") != Some(true) {
            gate.fail(format!(
                "hybrid at {shards} shards: not bit-identical to the 1-shard outcome"
            ));
        }
    }
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
}

/// Gate the hyperscale cloudsim replay: identical decisions between the
/// indexed and naive engines, the absolute paired speedup floor, no
/// speedup regression against the baseline, and — when the artifact
/// carries a `full` certification section (the committed baseline does;
/// CI-scale reruns omit it) — the million-user completion and memory
/// bound.
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
                    if users < 1_000_000.0 {
                        gate.fail(format!(
                            "cloudsim full run replayed {users:.0} users (< 1M)"
                        ));
                    }
                    let pods = f64_at(run, "pods_placed").unwrap_or(0.0);
                    if pods < 10_000_000.0 {
                        gate.fail(format!("cloudsim full run placed {pods:.0} pods (< 10M)"));
                    }
                    if users >= 1_000_000.0 && pods >= 10_000_000.0 {
                        println!(
                            "perfgate: ok: cloudsim full run: {users:.0} users, {pods:.0} pods"
                        );
                    }
                }
            }
            match full.get("mem").and_then(|m| f64_at(m, "growth_ratio")) {
                None => gate.fail("cloudsim full section has no mem.growth_ratio".to_string()),
                Some(growth) => {
                    let ceil = full
                        .get("mem")
                        .and_then(|m| f64_at(m, "growth_ceiling"))
                        .unwrap_or(1.5);
                    if growth > ceil {
                        gate.fail(format!(
                            "cloudsim peak heap grew {growth:.3}x from 100k to 1M users \
                             (ceiling {ceil}): live state is no longer constant in the \
                             user count"
                        ));
                    } else {
                        println!(
                            "perfgate: ok: cloudsim peak-heap growth {growth:.3}x \
                             (ceiling {ceil})"
                        );
                    }
                }
            }
        }
    }
}

/// Gate the policy-churn matcher artifact: semantic agreement with the
/// naive walk, digest stability against the committed baseline (the
/// digests are seed-deterministic and machine-independent, so any drift
/// is a matcher semantics change, not noise), the per-packet overhead
/// budget between table scales, and sharded determinism.
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
    for row in seq_at(cur, "sharded") {
        let shards = f64_at(row, "shards_wanted").unwrap_or(0.0) as u64;
        if bool_at(row, "bit_identical") != Some(true) {
            gate.fail(format!(
                "policy_churn at {shards} shards: not bit-identical to the 1-shard outcome"
            ));
        }
    }
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

/// Feed the comparator a hand-built 30% regression and a determinism
/// violation; the gate itself is broken unless it catches all of them.
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
    let mut gate = Gate::default();
    check_observability(&mut gate, &regressed, &base);
    let caught_ratio = gate.failures.len() == 1;

    // Telemetry gate: a non-free disabled plane and a dead-branch full
    // journal must both be caught.
    let bad_telemetry = fixture(
        r#"{"modes": [
            {"mode": "off", "relative_to_off_median": 1.0},
            {"mode": "telemetry_off", "relative_to_off_median": 0.90},
            {"mode": "telemetry_full", "relative_to_off_median": 0.85,
             "journal_records_per_rep": 0}
        ]}"#,
    );
    let mut gate = Gate::default();
    check_telemetry(&mut gate, &bad_telemetry);
    // Exactly two failures: the off floor and the dead journal branch.
    let caught_telemetry = gate.failures.len() == 2;

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
    let mut gate = Gate::default();
    check_multicore(&mut gate, &bad_sweep, None);
    // Expect exactly two failures: bit_identical and the overhead floor.
    let caught_sweep = gate.failures.len() == 2;

    // Hybrid gate: a broken fast path (no speedup), a determinism
    // violation, and a fidelity drift must all be caught.
    let bad_hybrid = fixture(
        r#"{"speedup_median": 1.1, "frames_ratio": 1.3, "cpu_ratio": 1.0,
            "sharded": [
                {"shards_wanted": 1, "bit_identical": true},
                {"shards_wanted": 8, "bit_identical": false}
            ]}"#,
    );
    let mut gate = Gate::default();
    check_hybrid(&mut gate, &bad_hybrid, None);
    // Expect exactly three failures: bit_identical, the speedup floor,
    // and frames_ratio.
    let caught_hybrid = gate.failures.len() == 3;

    let ok_hybrid = fixture(
        r#"{"speedup_median": 11.0, "frames_ratio": 0.99, "cpu_ratio": 1.01,
            "sharded": [
                {"shards_wanted": 1, "bit_identical": true},
                {"shards_wanted": 2, "bit_identical": true},
                {"shards_wanted": 8, "bit_identical": true}
            ]}"#,
    );
    let regressed_hybrid = fixture(r#"{"speedup_median": 8.0}"#);
    let mut gate = Gate::default();
    check_hybrid(&mut gate, &regressed_hybrid, Some(&ok_hybrid));
    // 8.0 vs baseline 11.0 is a >15% regression (plus two missing-ratio
    // failures for the stripped-down fixture).
    let caught_hybrid_regression = gate.failures.iter().any(|f| f.contains("speedup_median"));

    // Cloudsim gate: a placement divergence, a dead speedup, an
    // incomplete / undersized certification run, and a memory blow-up
    // must all be caught.
    let bad_cloudsim = fixture(
        r#"{"paired": {"digest_equal": false, "ratio_median": 3.0},
            "full": {
                "run": {"completed": false, "users": 500000, "pods_placed": 4000000},
                "mem": {"growth_ratio": 2.4, "growth_ceiling": 1.5}
            }}"#,
    );
    let mut gate = Gate::default();
    check_cloudsim(&mut gate, &bad_cloudsim, None);
    // Exactly six failures: digest, speedup floor, completed, users,
    // pods, memory growth.
    let caught_cloudsim = gate.failures.len() == 6;

    let ok_cloudsim = fixture(
        r#"{"paired": {"digest_equal": true, "ratio_median": 30.0},
            "full": {
                "run": {"completed": true, "users": 1000000, "pods_placed": 15000000},
                "mem": {"growth_ratio": 1.1, "growth_ceiling": 1.5}
            }}"#,
    );
    // A CI-scale rerun omits the full section; that must not fail.
    let ok_cloudsim_ci =
        fixture(r#"{"paired": {"digest_equal": true, "ratio_median": 28.0}, "full": null}"#);
    let regressed_cloudsim = fixture(r#"{"paired": {"digest_equal": true, "ratio_median": 20.0}}"#);
    let mut gate = Gate::default();
    check_cloudsim(&mut gate, &regressed_cloudsim, Some(&ok_cloudsim));
    // 20.0 clears the absolute floor but is a >15% regression vs 30.0.
    let caught_cloudsim_regression = gate.failures.iter().any(|f| f.contains("ratio_median"));

    // Policy-churn gate: a matcher/naive disagreement, a blown per-packet
    // overhead budget, and a determinism violation must all be caught.
    let bad_policy = fixture(
        r#"{"overhead_ratio": 1.6,
            "matcher": {"digest_match": false,
                        "digest_small": "0xaaaa", "digest_large": "0xbbbb"},
            "sharded": [
                {"shards_wanted": 1, "bit_identical": true},
                {"shards_wanted": 8, "bit_identical": false}
            ]}"#,
    );
    let mut gate = Gate::default();
    check_policy_churn(&mut gate, &bad_policy, None);
    // Exactly three failures: digest_match, the overhead budget, and the
    // 8-shard row.
    let caught_policy = gate.failures.len() == 3;

    let ok_policy = fixture(
        r#"{"overhead_ratio": 1.03,
            "matcher": {"digest_match": true,
                        "digest_small": "0xaaaa", "digest_large": "0xbbbb"},
            "sharded": [
                {"shards_wanted": 1, "bit_identical": true},
                {"shards_wanted": 2, "bit_identical": true},
                {"shards_wanted": 8, "bit_identical": true}
            ]}"#,
    );
    // Same shape, different verdict digest: semantics drifted from the
    // committed baseline even though everything else passes.
    let drifted_policy = fixture(
        r#"{"overhead_ratio": 1.03,
            "matcher": {"digest_match": true,
                        "digest_small": "0xcccc", "digest_large": "0xbbbb"},
            "sharded": [{"shards_wanted": 1, "bit_identical": true}]}"#,
    );
    let mut gate = Gate::default();
    check_policy_churn(&mut gate, &drifted_policy, Some(&ok_policy));
    let caught_policy_drift = gate.failures.iter().any(|f| f.contains("digest_small"));

    let ok_sweep = fixture(
        r#"{"host_cores": 1, "sweep": [
            {"mode": "conservative", "shards_wanted": 4, "shards_got": 4,
             "speedup_vs_sequential_peak": 0.9, "bit_identical": true}
        ]}"#,
    );
    let mut gate = Gate::default();
    check_observability(&mut gate, &base, &base);
    check_telemetry(&mut gate, &ok_telemetry);
    check_multicore(&mut gate, &ok_sweep, None);
    check_hybrid(&mut gate, &ok_hybrid, Some(&ok_hybrid));
    check_cloudsim(&mut gate, &ok_cloudsim, Some(&ok_cloudsim));
    check_cloudsim(&mut gate, &ok_cloudsim_ci, Some(&ok_cloudsim));
    check_policy_churn(&mut gate, &ok_policy, Some(&ok_policy));
    let clean_passes = gate.failures.is_empty();

    if caught_ratio
        && caught_telemetry
        && caught_sweep
        && caught_hybrid
        && caught_hybrid_regression
        && caught_cloudsim
        && caught_cloudsim_regression
        && caught_policy
        && caught_policy_drift
        && clean_passes
    {
        println!("perfgate: selftest passed (regressions caught, clean run passes)");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfgate: selftest FAILED (ratio caught: {caught_ratio}, \
             telemetry caught: {caught_telemetry}, \
             sweep caught: {caught_sweep}, hybrid caught: {caught_hybrid}, \
             hybrid regression caught: {caught_hybrid_regression}, \
             cloudsim caught: {caught_cloudsim}, \
             cloudsim regression caught: {caught_cloudsim_regression}, \
             policy caught: {caught_policy}, \
             policy drift caught: {caught_policy_drift}, \
             clean passes: {clean_passes})"
        );
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
