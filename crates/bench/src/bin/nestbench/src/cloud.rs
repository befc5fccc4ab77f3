//! `cloud_replay`: streaming hyperscale replays of 100,000 users in all
//! with the MostRequested policy and the placement index — the cost side
//! of the paper. It shares no code with the packet simulator, so a
//! simulator optimisation should leave it unchanged.

use crate::harness::{guarded, median, timed, Ctx, Fnv, Workload};
use cloudsim::{run_hyperscale, HyperConfig, HyperReport, PlacePolicy};

/// Replays per rep, each of an equal share of the users and with a
/// population seed of its own. How long one replay takes depends on its
/// population: at 100,000 users one seed ran 1.45× as long as another
/// (median of seven alternating pairs) with 2% fewer placements. Four
/// populations per rep average that out of the rep's time, and the
/// reference kernel runs between them.
const REPLAYS: u64 = 4;
/// First-placement replays per set-up call, each of a population of its
/// own. The first one after a full replay finds cold caches and takes
/// 35–70 µs against 3–6 µs for the rest; a call of 64 keeps that first
/// one a small part of the time. A replay whose first user owns 40–50
/// pods takes three to four times as long as one whose first user owns a
/// few, so with one population for every replay of the call, set-up time
/// hinged on the seed.
const SETUP_REPLAYS: u64 = 64;

/// The workload.
#[derive(Default)]
pub struct Replay {
    placements_per_s: Vec<f64>,
}

/// Replay `i` of the rep.
fn config(ctx: &Ctx, i: u64) -> HyperConfig {
    HyperConfig {
        users: ctx.scale.cloud_users / REPLAYS as usize,
        seed: ctx.seed.wrapping_mul(REPLAYS).wrapping_add(i),
        policy: PlacePolicy::MostRequested,
        naive: false,
        ..HyperConfig::default()
    }
}

fn digest(r: &HyperReport) -> u64 {
    Fnv::new()
        .u64(r.digest)
        .u64(r.placements)
        .u64(r.pods_placed)
        .u64(r.ticks)
        .f64(r.total_cost)
        .u64(r.peak_vms as u64)
        .u64(r.peak_live_pods as u64)
        .u64(r.shapes as u64)
        .finish()
}

impl Workload for Replay {
    fn name(&self) -> &'static str {
        "cloud_replay"
    }

    /// A replay of about the first tenth of the first population's
    /// placements.
    fn warm_up(&mut self, ctx: &mut Ctx) {
        let cfg = config(ctx, 0);
        let cfg = HyperConfig {
            max_placements: Some(cfg.users as u64),
            ..cfg
        };
        ctx.tally(guarded(|| run_hyperscale(&cfg)).is_some());
    }

    fn rep(&mut self, ctx: &mut Ctx) -> Vec<u64> {
        // `run_hyperscale` sets up inside the call, so set-up is timed as
        // replays that stop at their first placement: the scenario
        // stream, the engine and the first tick.
        let firsts: Vec<HyperConfig> = (0..SETUP_REPLAYS)
            .map(|k| HyperConfig {
                max_placements: Some(1),
                ..config(ctx, k)
            })
            .collect();
        ctx.setup(|ctx| {
            ctx.rec.span("cloudsim", "run_hyperscale", || {
                for first in &firsts {
                    std::hint::black_box(run_hyperscale(first));
                }
            })
        });
        let mut digests = Vec::new();
        let (mut placements, mut ticks, mut peak_pods, mut shapes, mut secs) = (0, 0, 0, 0, 0.0);
        for i in 0..REPLAYS {
            let cfg = config(ctx, i);
            let (report, s) = ctx.op("replay", |ctx| {
                timed(|| {
                    ctx.rec.span("cloudsim", "run_hyperscale", || {
                        guarded(|| run_hyperscale(&cfg))
                    })
                })
            });
            let Some(r) = report.filter(|r| r.completed && r.placements > 0) else {
                ctx.tally(false);
                digests.push(0);
                continue;
            };
            ctx.tally(true);
            digests.push(digest(&r));
            placements += r.placements;
            ticks += r.ticks;
            peak_pods = peak_pods.max(r.peak_live_pods);
            shapes = shapes.max(r.shapes);
            secs += s;
        }
        self.placements_per_s.push(placements as f64 / secs);
        ctx.set("cloudsim.placements", placements as f64);
        ctx.set("cloudsim.placements_per_s", median(&self.placements_per_s));
        ctx.set("cloudsim.ticks", ticks as f64);
        ctx.set("cloudsim.peak_live_pods", peak_pods as f64);
        ctx.set("cloudsim.shapes", shapes as f64);
        digests
    }
}
