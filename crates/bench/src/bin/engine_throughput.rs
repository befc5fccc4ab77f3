//! Standalone event-throughput harness for the simnet DES engine.
//!
//! Three scenarios, run as a plain binary:
//!
//! * `bridge_forwarding` — the fast-path microbenchmark: one bridge
//!   unicasting `frames` frames into a sink, repeated `reps` times.
//! * `observability_overhead` — the 4-host [`build_multihost`] workload
//!   run under each flight-recorder mode (off / counters / full); rates
//!   and the relative cost land in `results/observability_overhead.json`.
//! * `multicore` — an 8-host topology swept over 1/2/4/8 shards, each
//!   digest-compared against the sequential run; the bit-identity flags,
//!   speedups (the cost of the shard coordinator and merge relative to
//!   the sequential engine), sync statistics and the detected core count
//!   land in `results/engine_multicore.json`.
//!
//! The binary judges nothing: the CI perf gate, `tools/perfgate.rs`,
//! reads both artifacts and decides every claim.
//!
//! ```text
//! cargo run --release -p nestless-bench --bin engine_throughput [reps] [frames] [scenario]
//! ```
//!
//! `scenario` is `all` (default), `bridge`, `observability` or
//! `multicore` — CI jobs use it to run exactly the slice they gate on.

use metrics::{CpuCategory, CpuLocation, TelemetryConfig, TraceConfig};
use nestless_bench::harness::{host_cores, outcome_digest, summarize, write_artifact};
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::device::{DeviceId, PortId};
use simnet::engine::{LinkParams, Network};
use simnet::shared::SharedStation;
use simnet::testutil::{build_multihost, frame_between, CaptureSink, MultihostSpec};
use simnet::StopCondition;
use simnet::{FaultPlan, MacAddr, SimConfig, SimDuration, SimTime, StallWindow};
use std::time::Instant;

/// Simulated horizon of one multihost rep (2 ms keeps a debug-build rep
/// subsecond while still processing ~100k events in release).
const MULTIHOST_HORIZON: SimTime = SimTime(2_000_000);

fn build_net(frames: u64) -> Network {
    let mut net = Network::new(1);
    let br = net.add_device(
        "br",
        CpuLocation::Host,
        Box::new(Bridge::new(
            2,
            StageCost::fixed(1_000, 0.3, CpuCategory::Sys),
            SharedStation::new(),
        )),
    );
    let sink = net.add_device("s", CpuLocation::Host, Box::new(CaptureSink::new("s")));
    net.connect(br, PortId(1), sink, PortId::P0, LinkParams::default());
    // Teach the bridge where the destination lives, then flood it.
    net.inject_frame(
        SimDuration::ZERO,
        br,
        PortId(1),
        frame_between(MacAddr::local(2), MacAddr::local(1), 1),
    );
    for i in 0..frames {
        net.inject_frame(
            SimDuration::nanos(i),
            br,
            PortId(0),
            frame_between(MacAddr::local(1), MacAddr::local(2), 512),
        );
    }
    net
}

fn build_multihost_net() -> Network {
    let mut net = Network::new(0xBEEF);
    // loss = 0 so the ping-pong flows persist for the whole horizon and
    // every rep processes the same number of events.
    build_multihost(
        &mut net,
        &MultihostSpec {
            hosts: 4,
            local_flows: 4,
            loss: 0.0,
            ..MultihostSpec::default()
        },
    );
    net
}

fn bridge_forwarding(reps: usize, frames: u64) {
    // Warm-up rep (page in code, size allocator pools).
    build_net(frames).run(StopCondition::Idle);

    let mut rates = Vec::with_capacity(reps);
    let mut total_events = 0u64;
    for _ in 0..reps {
        let mut net = build_net(frames);
        let start = Instant::now();
        net.run(StopCondition::Idle);
        let elapsed = start.elapsed();
        total_events += net.events_processed();
        rates.push(net.events_processed() as f64 / elapsed.as_secs_f64());
    }
    let (median, peak) = summarize(rates);

    println!(
        "{{\"scenario\":\"bridge_forwarding\",\"reps\":{reps},\"frames_per_rep\":{frames},\
         \"events_total\":{total_events},\
         \"events_per_sec_median\":{median:.0},\"events_per_sec_peak\":{peak:.0}}}"
    );
}

/// Observability overhead: the 4-host multihost workload under each
/// flight-recorder [`TraceConfig`] mode *and* each telemetry-plane
/// [`TelemetryConfig`] mode. `off` (both planes off) is the engine
/// default, so its rate *is* the baseline every other benchmark in this
/// binary measures.
///
/// Every row runs at packet fidelity (hybrid would let trace-full rows
/// pin traced frames to packet level while telemetry rows ride the fast
/// path, comparing different effective engines) and installs the same
/// benign mid-horizon stall plan: fault-window open/close transitions
/// are journal record sites, so `telemetry_full` measures a branch that
/// actually appends records instead of a dead one.
///
/// `telemetry_off` is measured as its own row even though it is
/// config-identical to `off`: its ratio is the "telemetry off costs
/// nothing" claim `check_telemetry` in `tools/perfgate.rs` judges.
fn observability_overhead(reps: usize) {
    /// Devices carrying the benign stall window (journal record sites).
    const FAULTED_DEVICES: usize = 8;
    struct Mode {
        label: &'static str,
        trace: fn() -> TraceConfig,
        telemetry: fn() -> TelemetryConfig,
    }
    let modes = [
        Mode {
            label: "off",
            trace: TraceConfig::default,
            telemetry: TelemetryConfig::off,
        },
        Mode {
            label: "counters",
            trace: TraceConfig::counters,
            telemetry: TelemetryConfig::off,
        },
        Mode {
            label: "full",
            trace: TraceConfig::full,
            telemetry: TelemetryConfig::off,
        },
        Mode {
            label: "telemetry_off",
            trace: TraceConfig::default,
            telemetry: TelemetryConfig::off,
        },
        Mode {
            label: "telemetry_counters",
            trace: TraceConfig::default,
            telemetry: TelemetryConfig::counters,
        },
        Mode {
            label: "telemetry_full",
            trace: TraceConfig::default,
            telemetry: TelemetryConfig::full,
        },
        Mode {
            label: "both_full",
            trace: TraceConfig::full,
            telemetry: TelemetryConfig::full,
        },
    ];

    let build = || {
        let mut net = build_multihost_net();
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
        net
    };
    build().run(StopCondition::Until(MULTIHOST_HORIZON)); // warm-up
    let mut rows = Vec::new();
    let mut off_median = None;
    for mode in &modes {
        let mut rates = Vec::with_capacity(reps);
        let mut spans_emitted = 0;
        let mut stage_rows = 0;
        let mut journal_records = 0u64;
        let mut journal_emitted = 0u64;
        for _ in 0..reps {
            let mut net = build();
            net.set_trace_config((mode.trace)());
            net.set_telemetry_config((mode.telemetry)());
            let start = Instant::now();
            net.run(StopCondition::Until(MULTIHOST_HORIZON));
            let elapsed = start.elapsed();
            rates.push(net.events_processed() as f64 / elapsed.as_secs_f64());
            let report = net.take_report();
            spans_emitted = report.spans_emitted;
            stage_rows = report.stages.iter().count();
            journal_records = report.journal.len() as u64;
            journal_emitted = report.journal_counts.iter().sum::<u64>();
        }
        let (median, peak) = summarize(rates);
        let off = *off_median.get_or_insert(median);
        rows.push(format!(
            "{{\"mode\":\"{}\",\"events_per_sec_median\":{median:.0},\
             \"events_per_sec_peak\":{peak:.0},\"relative_to_off_median\":{:.3},\
             \"spans_emitted_per_rep\":{spans_emitted},\"stage_rows\":{stage_rows},\
             \"journal_records_per_rep\":{journal_records},\
             \"journal_emitted_per_rep\":{journal_emitted}}}",
            mode.label,
            median / off
        ));
    }

    let json = format!(
        "{{\n  \"benchmark\": \"engine_throughput (crates/bench/src/bin/engine_throughput.rs)\",\n  \
         \"scenario\": \"observability_overhead\",\n  \
         \"topology\": {{\"hosts\": 4, \"local_flows\": 4, \"uplink_latency_ns\": 20000, \"loss\": 0.0, \"stall_windows\": {FAULTED_DEVICES}}},\n  \
         \"sim_horizon_ns\": {},\n  \"reps\": {reps},\n  \
         \"modes\": [\n    {}\n  ],\n  \
         \"note\": \"off is the engine default (every device still calls DevCtx::stage_frame, which early-returns); counters adds per-stage integer aggregates + a fixed histogram; full additionally mints trace ids and records one span per stage visit into the bounded ring. telemetry_* rows sweep the control-plane journal the same way: off is one branch per record site, counters bumps a fixed per-kind array, full additionally appends tagged records into the bounded journal ring. Every row installs the same benign stall plan so fault-window transitions keep the journal record sites live. telemetry_off is config-identical to off; its ratio is the telemetry-off-costs-nothing claim judged by perfgate's check_telemetry.\"\n}}\n",
        MULTIHOST_HORIZON.0,
        rows.join(",\n    ")
    );
    print!("{json}");
    write_artifact("results/observability_overhead.json", &json);
}

/// The multicore sweep: an 8-host topology (9 islands, so an 8-shard
/// request really yields 8 shards) swept over shard counts. Every
/// configuration is digest-compared against the sequential run, and the
/// JSON carries everything `tools/perfgate.rs` needs: the bit-identity
/// flags, per-row speedups, sync statistics, and the detected core count
/// (so the gate compares against a baseline only from the same core
/// count).
fn multicore(reps: usize) {
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
    build().run(StopCondition::Until(MULTIHOST_HORIZON)); // warm-up

    // Interleaved, paired design: every rep runs the sequential engine and
    // then each sharded configuration back to back, and each config's
    // speedup is the ratio against *that rep's* sequential rate. Machine
    // noise (frequency drift, a background task waking up) then lands on
    // both sides of each ratio instead of skewing whichever half of the
    // sweep it happened to overlap. Every row is labelled `conservative`,
    // the synchronization protocol; perfgate and the committed baseline
    // key rows on it.
    let configs = [1usize, 2, 4, 8];
    let mut seq_rates = Vec::with_capacity(reps);
    let mut cfg_rates: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); configs.len()];
    let mut cfg_ratios: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); configs.len()];
    let mut cfg_got = vec![0usize; configs.len()];
    let mut cfg_identical = vec![true; configs.len()];
    let mut cfg_rounds = vec![0u64; configs.len()];
    let mut reference = None;
    for _ in 0..reps {
        let mut net = build();
        let start = Instant::now();
        net.run(StopCondition::Until(MULTIHOST_HORIZON));
        let elapsed = start.elapsed();
        let seq_rate = net.events_processed() as f64 / elapsed.as_secs_f64();
        seq_rates.push(seq_rate);
        reference = Some((
            outcome_digest(net.store(), net.events_processed()),
            net.events_processed(),
        ));
        let ref_digest = reference.as_ref().unwrap().0;
        for (c, &want) in configs.iter().enumerate() {
            let mut sn = SimConfig::new().shards(want).build(build());
            cfg_got[c] = sn.nshards();
            let start = Instant::now();
            sn.run(StopCondition::Until(MULTIHOST_HORIZON));
            cfg_rounds[c] = sn.sync_stats().rounds;
            let report = sn.into_report();
            // The merge is part of the cost of getting usable results.
            let elapsed = start.elapsed();
            let rate = report.events_processed as f64 / elapsed.as_secs_f64();
            cfg_rates[c].push(rate);
            cfg_ratios[c].push(rate / seq_rate);
            cfg_identical[c] &=
                outcome_digest(&report.store, report.events_processed) == ref_digest;
        }
    }
    let (seq_median, seq_peak) = summarize(seq_rates);
    let (_, events_per_rep) = reference.unwrap();

    let mut rows = Vec::new();
    for (c, &want) in configs.iter().enumerate() {
        let identical = cfg_identical[c];
        let (median, peak) = summarize(cfg_rates[c].clone());
        let (ratio_median, _) = summarize(cfg_ratios[c].clone());
        rows.push(format!(
            "{{\"mode\":\"conservative\",\"shards_wanted\":{want},\"shards_got\":{},\
             \"events_per_sec_median\":{median:.0},\"events_per_sec_peak\":{peak:.0},\
             \"speedup_vs_sequential_median\":{ratio_median:.3},\
             \"speedup_vs_sequential_peak\":{:.3},\"bit_identical\":{identical},\
             \"sync\":{{\"rounds\":{}}}}}",
            cfg_got[c],
            peak / seq_peak,
            cfg_rounds[c],
        ));
    }

    let host_cores = host_cores();
    let json = format!(
        "{{\n  \"benchmark\": \"engine_throughput (crates/bench/src/bin/engine_throughput.rs)\",\n  \
         \"scenario\": \"multicore\",\n  \
         \"topology\": {{\"hosts\": 8, \"local_flows\": 4, \"uplink_latency_ns\": 20000, \"loss\": 0.0}},\n  \
         \"sim_horizon_ns\": {},\n  \"reps\": {reps},\n  \"events_per_rep\": {events_per_rep},\n  \
         \"host_cores\": {host_cores},\n  \
         \"sequential\": {{\"events_per_sec_median\": {seq_median:.0}, \"events_per_sec_peak\": {seq_peak:.0}}},\n  \
         \"sweep\": [\n    {}\n  ],\n  \
         \"note\": \"bit_identical records whether the merged sharded outcome equals the sequential run's, bit for bit. Reps interleave the sequential engine with every configuration; speedup_vs_sequential_median is the median of paired per-rep ratios and speedup_vs_sequential_peak is peak-rate over sequential peak-rate (the noise-robust statistic the perf gate judges). Every sharded run executes its rounds on one thread, so on any host the rows measure coordinator and merge overhead, not scaling.\"\n}}\n",
        MULTIHOST_HORIZON.0,
        rows.join(",\n    ")
    );
    print!("{json}");
    write_artifact("results/engine_multicore.json", &json);
}

fn arg_or(arg: Option<String>, name: &str, default: u64) -> u64 {
    match arg {
        None => default,
        Some(s) => match s.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("error: {name} must be a positive integer, got {s:?}");
                eprintln!("usage: engine_throughput [reps] [frames] [scenario]");
                std::process::exit(2);
            }
        },
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let reps = usize::try_from(arg_or(args.next(), "reps", 30)).unwrap();
    let frames = arg_or(args.next(), "frames", 10_000);
    let scenario = args.next().unwrap_or_else(|| "all".to_string());

    match scenario.as_str() {
        "all" => {
            bridge_forwarding(reps, frames);
            observability_overhead(reps.min(10));
            multicore(reps.min(5));
        }
        "bridge" => bridge_forwarding(reps, frames),
        "observability" => observability_overhead(reps.min(10)),
        "multicore" => multicore(reps.min(5)),
        other => {
            eprintln!(
                "error: unknown scenario {other:?} \
                 (expected all|bridge|observability|multicore)"
            );
            eprintln!("usage: engine_throughput [reps] [frames] [scenario]");
            std::process::exit(2);
        }
    }
}
