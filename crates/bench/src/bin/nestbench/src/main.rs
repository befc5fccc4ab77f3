//! `nestbench`: one benchmark for the simulator's end-to-end speed,
//! memory and paper accuracy, with per-layer metrics, over five
//! workloads.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/nestbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! ```
//!
//! Each workload prints one JSON line per metric, a summary line (ops,
//! failures, output digest, host cores), and last a result line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exit status: 0 when every op succeeded, 1 when one failed, 2 on a bad
//! argument. See README.md for the workloads and metrics.

mod alloc;
mod calib;
mod cloud;
mod cluster;
mod harness;
mod paper;
mod sharded;
mod trace;

use harness::{median, quartiles, Ctx, Report, Scale, Workload};
use serde_json::Value;

#[global_allocator]
static ALLOC: alloc::PeakAlloc = alloc::PeakAlloc;

/// Workload names, in `all` order.
const WORKLOADS: [&str; 5] = [
    "paper_packet",
    "steady_hybrid",
    "sharded_traced",
    "cluster_churn",
    "cloud_replay",
];

/// End-to-end metrics (name, unit), reported by untraced runs.
const END_TO_END: [(&str, &str); 3] = [("rep_s", "s"), ("setup_s", "s"), ("peak_heap_mib", "MiB")];

/// Per-layer metrics of the traced run's result line (name, unit): the
/// counts, ratios and self-time shares every workload defines. A layer a
/// workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("workloads.cells", "count"),
    ("workloads.msgs", "count"),
    ("engine.events", "count"),
    ("nat.conntrack_hit", "count"),
    ("nat.conntrack_new", "count"),
    ("nat.new_share", "ratio"),
    ("bridge.switched", "count"),
    ("bridge.flooded", "count"),
    ("filter.accept", "count"),
    ("filter.drop", "count"),
    ("filter.reject", "count"),
    ("filter.rules_live", "count"),
    ("flow.fastpath_frames", "count"),
    ("flow.probes", "count"),
    ("flow.promotions", "count"),
    ("flow.escalations", "count"),
    ("flow.fastpath_share", "ratio"),
    ("parallel.shards", "count"),
    ("parallel.rounds", "count"),
    ("parallel.speedup_vs_seq", "x"),
    ("obs.spans_emitted", "count"),
    ("obs.spans_dropped", "count"),
    ("obs.journal_records", "count"),
    ("obs.journal_dropped", "count"),
    ("obs.export_mib", "MiB"),
    ("cni.fallbacks", "count"),
    ("cni.repromotions", "count"),
    ("cni.abandoned", "count"),
    ("cloudsim.placements", "count"),
    ("cloudsim.ticks", "count"),
    ("cloudsim.peak_live_pods", "count"),
    ("cloudsim.shapes", "count"),
    ("claims.count", "count"),
    ("claims.err_pct", "%"),
    ("self_share.workloads", "ratio"),
    ("self_share.engine", "ratio"),
    ("self_share.parallel", "ratio"),
    ("self_share.flight", "ratio"),
    ("self_share.orchestrator", "ratio"),
    ("self_share.cloudsim", "ratio"),
    ("self_share.bench", "ratio"),
    ("trace_coverage", "ratio"),
    ("trace_overhead", "ratio"),
];

/// Layer times (name, unit), printed by the traced run on their own lines
/// for the workloads that call the layer. They stay off the result line,
/// which lists the same metrics for every workload.
const LAYER_TIMES: [(&str, &str); 21] = [
    ("topology.build_us_p50", "us"),
    ("workloads.cell_ms_p50", "ms"),
    ("workloads.cell_ms_p90", "ms"),
    ("engine.ns_per_event", "ns"),
    ("engine.run_s", "s"),
    ("parallel.partition_s", "s"),
    ("parallel.merge_s", "s"),
    ("obs.export_s", "s"),
    ("orchestrator.deploy_ms_p50", "ms"),
    ("orchestrator.deploy_ms_p90", "ms"),
    ("orchestrator.apply_policy_ms_p50", "ms"),
    ("orchestrator.apply_policy_ms_p90", "ms"),
    ("orchestrator.repair_ms_p50", "ms"),
    ("cloudsim.placements_per_s", "1/s"),
    ("self_s.workloads", "s"),
    ("self_s.engine", "s"),
    ("self_s.parallel", "s"),
    ("self_s.flight", "s"),
    ("self_s.orchestrator", "s"),
    ("self_s.cloudsim", "s"),
    ("self_s.bench", "s"),
];

const USAGE: &str = "usage: nestbench --workload <paper_packet|steady_hybrid|sharded_traced|\
cluster_churn|cloud_replay|all> [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]";

/// Checked command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut out = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                out.seed = value
                    .parse()
                    .map_err(|_| format!("--seed must be a non-negative integer, got {value:?}"))?;
            }
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds must be a positive number, got {value:?}"))?;
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
            "--trace-out" => out.trace_out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    out.workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    Ok(out)
}

/// The workload called `name`, and the `SIMNET_FIDELITY` its layer calls
/// must see (Netperf and memcached build their testbeds from it).
fn workload(name: &str) -> (Box<dyn Workload>, Option<&'static str>) {
    match name {
        "paper_packet" => (Box::new(paper::Cells::packet()), Some("packet")),
        "steady_hybrid" => (Box::new(paper::Cells::hybrid()), Some("hybrid")),
        "sharded_traced" => (Box::<sharded::Sharded>::default(), None),
        "cluster_churn" => (Box::<cluster::Churn>::default(), None),
        "cloud_replay" => (Box::<cloud::Replay>::default(), None),
        _ => unreachable!("names are checked by parse_args"),
    }
}

/// Runs one workload with its fidelity set for the duration.
fn run_one(name: &str, ctx: &mut Ctx, seconds: f64, trace: bool) -> Report {
    let (mut w, fidelity) = workload(name);
    if let Some(f) = fidelity {
        std::env::set_var("SIMNET_FIDELITY", f);
    }
    let report = harness::run(w.as_mut(), ctx, seconds, trace);
    if fidelity.is_some() {
        std::env::remove_var("SIMNET_FIDELITY");
    }
    report
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    )
}

fn line(v: &Value) -> String {
    serde_json::to_string(v).expect("output has only finite numbers")
}

/// The result-line metrics: every end-to-end metric, or with `trace`
/// every per-layer metric, as (name, value, unit).
fn result_metrics(r: &Report, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let table: &[(&'static str, &'static str)] = if trace { &PER_LAYER } else { &END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "rep_s" if !trace => r.rep_s,
                "setup_s" if !trace => r.setup_s,
                "peak_heap_mib" if !trace => r.peak_heap_mib,
                _ => r.layer.get(name).copied().unwrap_or(0.0),
            };
            (name, value, unit)
        })
        .collect()
}

/// Every output line of one workload run, the result line last.
fn output(r: &Report, args: &Args, host_cores: usize) -> Vec<String> {
    let w = Value::Str(r.workload.to_string());
    let mut out = Vec::new();
    // A metric's value with the rep count and quartiles of the samples
    // behind it.
    let stat = |metric: &str, value: f64, unit: &str, xs: &[f64]| {
        let (q1, _, q3) = quartiles(xs);
        line(&obj(vec![
            ("workload", w.clone()),
            ("metric", Value::Str(metric.into())),
            ("value", Value::F64(value)),
            ("unit", Value::Str(unit.into())),
            ("n", Value::U64(xs.len() as u64)),
            ("q1", Value::F64(q1)),
            ("q3", Value::F64(q3)),
        ]))
    };
    if args.trace {
        let times = LAYER_TIMES.iter().filter_map(|&(name, unit)| {
            let value = r.layer.get(name).copied().filter(|&v| v > 0.0)?;
            Some((name, value, unit))
        });
        for (name, value, unit) in result_metrics(r, true).into_iter().chain(times) {
            out.push(line(&obj(vec![
                ("workload", w.clone()),
                ("metric", Value::Str(name.into())),
                ("value", Value::F64(value)),
                ("unit", Value::Str(unit.into())),
            ])));
        }
    } else {
        out.push(stat("rep_s", r.rep_s, "s", &r.scaled_s));
        out.push(stat("setup_s", r.setup_s, "s", &r.setup_scaled_s));
        let heap = r.peak_heap_mib;
        out.push(stat("peak_heap_mib", heap, "MiB", &[heap]));
        // The host times behind the two scaled metrics, as measured.
        for (metric, xs) in [
            ("wall_s", &r.wall_s),
            ("setup_wall_s", &r.setup_wall_s),
            ("kernel_s", &r.kernel_s),
        ] {
            out.push(stat(metric, median(xs), "s", xs));
        }
        if !r.claims.is_empty() {
            let errs: Vec<f64> = r.claims.iter().map(harness::Claim::err_pct).collect();
            let mean = harness::claim_err_pct(&r.claims);
            out.push(stat("claim_err_pct", mean, "%", &errs));
        }
        for c in &r.claims {
            out.push(line(&obj(vec![
                ("workload", w.clone()),
                ("claim", Value::Str(c.what.into())),
                ("paper", Value::F64(c.paper)),
                ("measured", Value::F64(c.measured)),
                ("err_pct", Value::F64(c.err_pct())),
            ])));
        }
    }
    out.push(line(&obj(vec![
        ("workload", w.clone()),
        ("metric", Value::Str("fail_rate".into())),
        (
            "value",
            Value::F64(r.failed as f64 / r.attempted.max(1) as f64),
        ),
        ("unit", Value::Str("ratio".into())),
        ("n", Value::U64(r.attempted)),
    ])));
    out.push(line(&obj(vec![
        ("workload", w.clone()),
        ("ops", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        ("outputs_digest", Value::Str(format!("0x{:016x}", r.digest))),
        ("reps", Value::U64(r.wall_s.len() as u64)),
        ("traced_reps", Value::U64(r.traced_reps as u64)),
        ("seed", Value::U64(args.seed)),
        ("host_cores", Value::U64(host_cores as u64)),
    ])));
    let metrics = result_metrics(r, args.trace)
        .into_iter()
        .map(|(name, value, unit)| {
            (
                Value::Str(name.into()),
                obj(vec![
                    ("value", Value::F64(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    out.push(line(&obj(vec![
        ("correct", Value::Bool(r.failed == 0)),
        ("attempted", Value::U64(r.attempted)),
        ("failed", Value::U64(r.failed)),
        ("metrics", Value::Map(metrics)),
    ])));
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(2);
    });
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut ctx = Ctx::new(args.seed, Scale::full());
    let mut failed = false;
    for name in &args.workloads {
        let report = run_one(name, &mut ctx, args.seconds, args.trace);
        failed |= report.failed > 0;
        for l in output(&report, &args, host_cores) {
            println!("{l}");
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace::chrome_json(ctx.rec.spans())) {
            eprintln!("error: writing {path}: {e}");
            std::process::exit(1);
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_rejects_bad_arguments() {
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload all --seed abc")).is_err());
        assert!(parse_args(&argv("--workload all --seed -1")).is_err());
        assert!(parse_args(&argv("--workload all --trace 2")).is_err());
        assert!(parse_args(&argv("--workload all --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload all --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        let a = parse_args(&argv(
            "--workload cloud_replay --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, vec!["cloud_replay"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert_eq!(
            parse_args(&argv("--workload all")).unwrap().workloads.len(),
            5
        );
    }

    /// The metric and workload names the binary emits, with their units,
    /// are exactly those `BENCHMARK.json` declares, each with a direction
    /// (and, end to end, a bound).
    #[test]
    fn schema_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            doc.get(key)
                .and_then(Value::as_seq)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let name = m.get("name").and_then(Value::as_str).expect("name");
                    let unit = m.get("unit").and_then(Value::as_str).map(String::from);
                    if key != "workloads" {
                        let better = m.get("better").and_then(Value::as_str);
                        assert!(
                            matches!(better, Some("higher" | "lower")),
                            "{name}: better must be higher or lower"
                        );
                    }
                    if key == "end_to_end" {
                        assert!(
                            matches!(m.get("bound"), Some(Value::F64(b)) if *b > 0.0 && *b <= 0.25),
                            "{name}: bound must be in (0, 0.25]"
                        );
                    }
                    (name.to_string(), unit)
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            table
                .iter()
                .map(|&(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.to_vec());
    }

    /// Every workload at a tiny scale, run twice: identical digests, no
    /// failed op, and only declared per-layer metrics set.
    #[test]
    fn every_workload_repeats_exactly_at_tiny_scale() {
        let declared: Vec<&str> = PER_LAYER
            .iter()
            .chain(&LAYER_TIMES)
            .map(|&(n, _)| n)
            .collect();
        for name in WORKLOADS {
            let runs: Vec<Report> = (0..2)
                .map(|i| {
                    let mut ctx = Ctx::new(3, Scale::tiny());
                    run_one(name, &mut ctx, 0.0, i == 1)
                })
                .collect();
            for r in &runs {
                assert_eq!(r.failed, 0, "{name}: failed ops");
                assert!(r.attempted > 0, "{name}: no ops");
                assert!(r.rep_s > 0.0, "{name}: rep time");
                assert!(r.setup_s > 0.0, "{name}: set-up time");
                assert!(r.peak_heap_mib > 0.0, "{name}: peak heap");
                for key in r.layer.keys() {
                    assert!(declared.contains(key), "{name}: undeclared metric {key}");
                }
            }
            assert_eq!(runs[0].digest, runs[1].digest, "{name}: digests differ");
            let traced = &runs[1];
            assert!(traced.traced_reps > 0, "{name}: no traced rep");
            let coverage = traced.layer["trace_coverage"];
            assert!(
                coverage > 0.0 && coverage <= 1.0,
                "{name}: coverage {coverage}"
            );
        }
    }
}
