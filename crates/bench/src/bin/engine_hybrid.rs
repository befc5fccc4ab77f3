//! Hybrid fast-path throughput harness: how much wall-clock does the
//! flow-level fast path buy on deep forwarding paths?
//!
//! The scenario is built to be the fast path's home turf while staying an
//! honest packet-level workload: `CHAINS` disconnected relay chains, each
//! a ping-pong bouncer pair separated by `RELAYS` two-port learning
//! bridges. Packet level pays one event per bridge hop per frame; hybrid
//! collapses a steady chain crossing into a single synthesized delivery,
//! so the event (and wall-clock) gap is roughly the relay depth, less
//! probe/learning overhead.
//!
//! Reps are paired: each rep runs packet fidelity then hybrid back to
//! back and the speedup is that rep's ratio, so machine noise lands on
//! both sides. The JSON records three things, and `tools/perfgate.rs`
//! (`check_hybrid`) judges all of them:
//!
//! * **speedup** — hybrid effective frames/s over packet,
//! * **fidelity** — hybrid's delivered frames and total CPU over packet
//!   level's on the same simulated horizon (synthesized deliveries
//!   replay learned per-hop CPU, so the accounts stay figure-comparable),
//!   plus the exact frame, event and fast-path counts behind them,
//! * **determinism** — whether the hybrid run's merged outcome digest is
//!   bit-identical at 1/2/8 shards (`SimConfig`-selected, not env).
//!
//! ```text
//! cargo run --release -p nestless-bench --bin engine_hybrid [reps]
//! ```

use nestless_bench::harness::{
    frames_delivered, host_cores, median, outcome_digest, relay_chains, write_artifact,
    RELAY_PAYLOAD,
};
use simnet::engine::Network;
use simnet::time::SimTime;
use simnet::{Fidelity, SimConfig, StopCondition};
use std::time::Instant;

/// Parallel relay chains; each is its own partition island, so 1/2/8
/// shard requests all materialize exactly.
const CHAINS: usize = 8;

/// Two-port learning bridges between the bouncer pair of each chain —
/// the per-frame event depth hybrid gets to skip.
const RELAYS: usize = 48;

/// Simulated horizon; long enough that learning (≤ ~3 round trips per
/// direction) is noise against the steady phase.
const HORIZON: SimTime = SimTime(10_000_000);

fn build() -> Network {
    relay_chains(0x48CB, CHAINS, RELAYS).0
}

struct RunOut {
    frames: f64,
    cpu_ns: u64,
    events: u64,
    elapsed: f64,
    fastpath_frames: f64,
    escalations: f64,
}

fn run_once(fidelity: Fidelity) -> RunOut {
    let mut net = build();
    net.set_fidelity(fidelity);
    let start = Instant::now();
    net.run(StopCondition::Until(HORIZON));
    let elapsed = start.elapsed().as_secs_f64();
    RunOut {
        frames: frames_delivered(net.store()),
        cpu_ns: net.cpu().total(),
        events: net.events_processed(),
        elapsed,
        fastpath_frames: net.store().counter("flow.fastpath_frames"),
        escalations: net.store().counter("flow.escalations"),
    }
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("reps must be a positive integer"))
        .unwrap_or(5)
        .max(1);

    // Warm-up (page in code, size allocator pools).
    run_once(Fidelity::Packet);
    run_once(Fidelity::Hybrid);

    let mut speedups = Vec::with_capacity(reps);
    let mut packet_rates = Vec::with_capacity(reps);
    let mut hybrid_rates = Vec::with_capacity(reps);
    let mut packet = None;
    let mut hybrid = None;
    for _ in 0..reps {
        let p = run_once(Fidelity::Packet);
        let h = run_once(Fidelity::Hybrid);
        let (pr, hr) = (p.frames / p.elapsed, h.frames / h.elapsed);
        packet_rates.push(pr);
        hybrid_rates.push(hr);
        speedups.push(hr / pr);
        packet = Some(p);
        hybrid = Some(h);
    }
    let (packet, hybrid) = (packet.unwrap(), hybrid.unwrap());
    let speedup_median = median(speedups);

    // Fidelity: same horizon, comparable goodput and CPU.
    let frames_ratio = hybrid.frames / packet.frames;
    let cpu_ratio = hybrid.cpu_ns as f64 / packet.cpu_ns as f64;

    // Determinism: hybrid merged outcome bit-identical at 1/2/8 shards.
    let mut shard_rows = Vec::new();
    let mut ref_digest = None;
    let mut bit_identical = true;
    for want in [1usize, 2, 8] {
        let mut sn = SimConfig::new()
            .shards(want)
            .fidelity(Fidelity::Hybrid)
            .build(build());
        let got = sn.nshards();
        sn.run(StopCondition::Until(HORIZON));
        let report = sn.into_report();
        let digest = outcome_digest(&report.store, report.events_processed);
        let identical = *ref_digest.get_or_insert(digest) == digest;
        bit_identical &= identical;
        shard_rows.push(format!(
            "{{\"shards_wanted\":{want},\"shards_got\":{got},\"bit_identical\":{identical}}}"
        ));
    }

    let host_cores = host_cores();
    let json = format!(
        "{{\n  \"benchmark\": \"engine_hybrid (crates/bench/src/bin/engine_hybrid.rs)\",\n  \
         \"scenario\": \"relay_chains\",\n  \
         \"topology\": {{\"chains\": {CHAINS}, \"relays_per_chain\": {RELAYS}, \"payload\": {RELAY_PAYLOAD}}},\n  \
         \"sim_horizon_ns\": {},\n  \"reps\": {reps},\n  \"host_cores\": {host_cores},\n  \
         \"packet\": {{\"frames\": {:.0}, \"events\": {}, \"frames_per_sec_median\": {:.0}, \"cpu_ns\": {}}},\n  \
         \"hybrid\": {{\"frames\": {:.0}, \"events\": {}, \"frames_per_sec_median\": {:.0}, \"cpu_ns\": {}, \
         \"fastpath_frames\": {:.0}, \"escalations\": {:.0}}},\n  \
         \"speedup_median\": {speedup_median:.3},\n  \
         \"event_ratio\": {:.3},\n  \
         \"frames_ratio\": {frames_ratio:.3},\n  \"cpu_ratio\": {cpu_ratio:.3},\n  \
         \"bit_identical\": {bit_identical},\n  \
         \"sharded\": [\n    {}\n  ],\n  \
         \"note\": \"speedup_median is the median of paired per-rep ratios of effective frames/s (frames delivered over wall-clock) between hybrid and packet fidelity on the same topology and horizon. frames_ratio/cpu_ratio compare hybrid's delivered frames and total CPU with packet level's: the fast path synthesizes deliveries and replays learned per-hop CPU, so figure-level outputs remain comparable. bit_identical records whether the merged hybrid outcome digest is equal at 1/2/8 shards. tools/perfgate.rs judges every field.\"\n}}\n",
        HORIZON.0,
        packet.frames,
        packet.events,
        median(packet_rates),
        packet.cpu_ns,
        hybrid.frames,
        hybrid.events,
        median(hybrid_rates),
        hybrid.cpu_ns,
        hybrid.fastpath_frames,
        hybrid.escalations,
        packet.events as f64 / hybrid.events as f64,
        shard_rows.join(",\n    ")
    );
    print!("{json}");
    write_artifact("results/engine_hybrid.json", &json);
}
