//! `sharded_traced`: the 8-host multi-host topology on two shards with
//! the flight recorder and telemetry journal full, then every exporter.
//! The only workload where coordinator rounds, ring merges, drop
//! accounting and export do real work.

use crate::harness::{guarded, median, store_digest, timed, Ctx, Fnv, StoreCounts, Workload};
use metrics::{TelemetryConfig, TraceConfig};
use simnet::device::DeviceId;
use simnet::testutil::{build_multihost, MultihostSpec};
use simnet::{
    chrome_counter_tracks, chrome_trace_report, snapshot_report, telemetry_report, FaultPlan,
    Network, RunReport, SimConfig, SimDuration, SimTime, StallWindow, StopCondition,
};

const HOSTS: usize = 8;
const LOCAL_FLOWS: usize = 4;
const SHARDS: usize = 2;
/// Devices given a stall window: delays only, so every cross-host chain
/// survives the run while fault-window transitions keep journaling.
const STALLED_DEVICES: usize = 8;

/// The workload.
#[derive(Default)]
pub struct Sharded {
    reference: u64,
    run_s: Vec<f64>,
    partition_s: Vec<f64>,
    merge_s: Vec<f64>,
    export_s: Vec<f64>,
    speedup: Vec<f64>,
}

fn network(seed: u64) -> Network {
    let mut net = Network::new(seed);
    build_multihost(
        &mut net,
        &MultihostSpec {
            hosts: HOSTS,
            local_flows: LOCAL_FLOWS,
            loss: 0.0,
            ..MultihostSpec::default()
        },
    );
    net
}

fn config(shards: usize, horizon: SimDuration) -> SimConfig {
    let quarter = horizon.as_nanos() / 4;
    let plan = (0..STALLED_DEVICES).fold(FaultPlan::new(), |plan, d| {
        plan.stall(StallWindow {
            dev: DeviceId(d),
            from: SimTime(quarter),
            until: SimTime(2 * quarter),
            extra: SimDuration::nanos(50),
        })
    });
    SimConfig::new()
        .shards(shards)
        .trace(TraceConfig::full())
        .telemetry(TelemetryConfig::full())
        .fault(plan)
}

/// Digest of everything a merged run simulated: samples, counters, event
/// count, the deterministic journal lane and the span accounting. Equal
/// at every shard count.
fn run_digest(r: &RunReport) -> u64 {
    let h = Fnv::new()
        .u64(store_digest(&r.store))
        .u64(r.events_processed)
        .u64(r.spans_emitted)
        .u64(r.spans_dropped)
        .u64(r.journal_dropped);
    r.journal
        .iter()
        .fold(h, |h, j| h.u64(j.kind as u64).u64(j.a).u64(j.b).u64(j.c))
        .finish()
}

/// Builds every exporter's document from `report` and serializes each
/// in memory; returns the serialized sizes (0 where one failed).
fn export(ctx: &mut Ctx, report: &RunReport) -> [u64; 4] {
    let snap = ctx.rec.span("flight", "snapshot_report", || {
        snapshot_report(report, "nestbench.sharded_traced")
    });
    let tel = ctx.rec.span("flight", "telemetry_report", || {
        telemetry_report(report, "nestbench.sharded_traced")
    });
    let chrome = ctx.rec.span("flight", "chrome_trace_report", || {
        chrome_trace_report(report)
    });
    let tracks = ctx.rec.span("flight", "chrome_counter_tracks", || {
        chrome_counter_tracks(&tel)
    });
    let len = |r: serde_json::Result<String>| r.map_or(0, |s| s.len() as u64);
    ctx.rec.span("flight", "serde_json::to_string", || {
        [
            len(serde_json::to_string(&snap)),
            len(serde_json::to_string(&tel)),
            len(serde_json::to_string(&chrome)),
            len(serde_json::to_string(&tracks)),
        ]
    })
}

/// Sequential run of the same scenario (one shard keeps the network
/// whole): its digest and its `run` seconds.
fn sequential(seed: u64, horizon: SimDuration) -> (u64, f64) {
    let mut sim = config(1, horizon).build(network(seed));
    let ((), secs) = timed(|| sim.run(StopCondition::For(horizon)));
    (run_digest(&sim.into_report()), secs)
}

impl Workload for Sharded {
    fn name(&self) -> &'static str {
        "sharded_traced"
    }

    /// The warm-up op is the sequential reference every rep must match.
    fn warm_up(&mut self, ctx: &mut Ctx) {
        let seq = guarded(|| sequential(ctx.seed, ctx.scale.sharded));
        ctx.tally(seq.is_some());
        self.reference = seq.map_or(0, |(d, _)| d);
    }

    fn rep(&mut self, ctx: &mut Ctx) -> Vec<u64> {
        let horizon = ctx.scale.sharded;
        let (mut sim, partition_s) = ctx.setup(|ctx| {
            let net = ctx
                .rec
                .span("topology", "build_multihost", || network(ctx.seed));
            timed(|| {
                ctx.rec.span("parallel", "SimConfig::build", || {
                    config(SHARDS, horizon).build(net)
                })
            })
        });
        self.partition_s.push(partition_s);

        let ((), run_s) = ctx.op("run", |ctx| {
            timed(|| {
                ctx.rec.span("engine", "ShardedNetwork::run", || {
                    sim.run(StopCondition::For(horizon))
                })
            })
        });
        let (rounds, shards) = (sim.sync_stats().rounds, sim.nshards());
        let (report, merge_s) = ctx.op("merge", |ctx| {
            timed(|| {
                ctx.rec.span("parallel", "ShardedNetwork::into_report", || {
                    sim.into_report()
                })
            })
        });
        let (sizes, export_s) = ctx.op("export", |ctx| timed(|| export(ctx, &report)));

        let exported = sizes.iter().all(|&n| n > 0);
        let digest = run_digest(&report);
        ctx.tally(report.events_processed > 0 && digest == self.reference);
        ctx.tally(exported);

        if ctx.rec.is_on() {
            let (_, seq_s) = sequential(ctx.seed, horizon);
            self.speedup.push(seq_s / run_s);
        }
        self.run_s.push(run_s);
        self.merge_s.push(merge_s);
        self.export_s.push(export_s);
        let mut counts = StoreCounts::default();
        counts.add(&report.store, report.events_processed);
        counts.publish(ctx);
        ctx.set(
            "engine.ns_per_event",
            run_s * 1e9 / report.events_processed.max(1) as f64,
        );
        ctx.set("engine.run_s", median(&self.run_s));
        ctx.set("parallel.shards", shards as f64);
        ctx.set("parallel.rounds", rounds as f64);
        ctx.set("parallel.partition_s", median(&self.partition_s));
        ctx.set("parallel.merge_s", median(&self.merge_s));
        ctx.set("parallel.speedup_vs_seq", median(&self.speedup));
        ctx.set("obs.spans_emitted", report.spans_emitted as f64);
        ctx.set("obs.spans_dropped", report.spans_dropped as f64);
        ctx.set("obs.journal_records", report.journal.len() as f64);
        ctx.set("obs.journal_dropped", report.journal_dropped as f64);
        ctx.set("obs.export_s", median(&self.export_s));
        ctx.set(
            "obs.export_mib",
            sizes.iter().sum::<u64>() as f64 / (1024.0 * 1024.0),
        );
        vec![
            digest,
            sizes.iter().fold(Fnv::new(), |h, &n| h.u64(n)).finish(),
        ]
    }
}
