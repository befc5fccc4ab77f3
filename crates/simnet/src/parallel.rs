//! The sharded engine: adaptive conservative lookahead, driven by one
//! round loop on the calling thread that also carries the cross-shard
//! frames — without losing a single bit of determinism.
//!
//! # Partitioning
//!
//! [`PartitionPlan::partition`] splits the device graph into *islands* that
//! must never be separated, then balances islands across shards:
//!
//! * devices joined by a **zero-latency link** stay together (a frame could
//!   cross instantly, so no lookahead exists across such a link);
//! * devices located in the **same VM** stay together (they serialize on
//!   shared guest state — stations, kernel queues);
//! * devices bound by [`Network::bind_same_shard`] stay together (coupling
//!   the device graph cannot see, above all a
//!   [`SharedStation`](crate::shared::SharedStation) serialized across
//!   devices — e.g. every host bridge of one machine sharing the host
//!   kernel's station).
//!
//! The paper's topologies are naturally host-shaped: intra-host plumbing
//! (veth, TAP, virtio/vhost, bridges) is glued by these rules while
//! physical inter-host links carry real latency, so islands are host
//! islands and the cut runs exactly along cross-host links.
//!
//! # Adaptive conservative lookahead
//!
//! The plan records a **per-pair minimum latency matrix** over the cut.
//! Each round, shard `d` may safely process every event strictly below
//!
//! ```text
//! bound(d) = min over s≠d with a link s→d of  floor(s) + minlat(s, d)
//! ```
//!
//! where `floor(s)` is `s`'s progress floor (its heap minimum, folded with
//! the minimum arrival time of frames already in flight to `s`). A frame
//! `s` emits at time `τ ≥ floor(s)` arrives no earlier than
//! `τ + minlat(s, d) ≥ bound(d)`, so the window is causally closed. This
//! strictly dominates the fixed global window `[t, t+E)` of the earlier
//! coordinator: a shard is only throttled by the shards that can actually
//! reach it, at the latency of the links that reach it. Shards with no
//! processable events and no pending arrivals are not dispatched at all,
//! so a round costs only what the active shards need.
//!
//! # Rounds
//!
//! The coordinator runs each round on the calling thread. A shard groups
//! the frames it sends to other shards by destination as it emits them;
//! after its window the coordinator files those batches in
//! `inbox[dest][src]` and holds them until `dest`'s next dispatch, when
//! the shard pushes its arrivals into its heap by source shard, then
//! outbox order. Batches move as whole `Vec`s, so no payload is copied.
//! Every dispatched shard's inbox is emptied before any shard of the round
//! runs, so a frame becomes visible exactly one round after it was sent,
//! and every decision the coordinator makes is a pure function of
//! deterministic state.
//!
//! # Bit-identical determinism
//!
//! Three mechanisms make the sharded run reproduce the sequential engine
//! exactly (not just statistically):
//!
//! 1. **Intrinsic event keys** `(time, source, per-source seq)` (see
//!    `engine.rs`): heap order does not depend on insertion order, so each
//!    shard's pop order equals the sequential pop order restricted to that
//!    shard's devices.
//! 2. **Per-device RNG streams** seeded from `(network seed, device id)`:
//!    jitter/loss draws depend only on a device's own event sequence, never
//!    on how unrelated devices interleave.
//! 3. **Merge by frontier order**: each shard's recorder keeps an event
//!    log next to its sample journal, trace, spans and control-plane
//!    journal; [`ShardedNetwork::into_report`] replays them with a k-way
//!    frontier merge (`obs::merge`: always consume the shard whose next
//!    logged event has the smallest key), which provably reconstructs the
//!    exact sequential interleaving — equal-time causal chains never
//!    cross shards because cross-shard links have latency ≥ E > 0.
//!    Re-capping the replay against the global caps reproduces the
//!    sequential kept/dropped split of every bounded stream bit for bit.
//!
//! CPU time is aggregated by folding per-shard [`CpuAccount`]s
//! ([`CpuAccount::fold`] — integer nanoseconds, exact); counters are
//! summed per shard in shard order (counter deltas in this codebase are
//! integer-valued, so f64 addition is exact far beyond any realistic run
//! length).

use crate::device::DeviceId;
use crate::engine::{Network, RemoteEvent, SampleStore, StopCondition, TraceEntry};
use crate::flow::Fidelity;
use crate::obs::{self, Recorder};
use crate::time::{SimDuration, SimTime};
use metrics::{
    CpuAccount, CpuLocation, JournalRecord, ObsMode, SpanRecord, StageTable, JOURNAL_KINDS,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Minimal union-find over device indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Assignment of every device to a shard, plus the lookahead structure
/// derived from the cut. Produced by [`PartitionPlan::partition`].
pub struct PartitionPlan {
    pub(crate) shard_of: Arc<Vec<u32>>,
    nshards: usize,
    epoch: SimDuration,
    /// `nshards × nshards` row-major matrix of the minimum link latency
    /// between each ordered shard pair; `u64::MAX` where no link crosses
    /// that pair. Links are bidirectional, so the matrix is symmetric.
    min_lat: Vec<u64>,
}

impl PartitionPlan {
    /// Partitions `net` into at most `want` shards.
    ///
    /// Islands (see module docs) are kept intact and balanced across
    /// shards longest-processing-time-first; the actual shard count is
    /// `min(want, number of islands)`, so a topology whose devices are all
    /// glued together falls back to a single shard.
    pub fn partition(net: &Network, want: usize) -> PartitionPlan {
        let n = net.device_count();
        let mut uf = UnionFind::new(n);
        let links = net.links();
        for &(a, pa, b, _) in &links {
            let p = net.link_params(a, pa).expect("listed link has params");
            if p.latency == SimDuration::ZERO {
                uf.union(a.0, b.0);
            }
        }
        let mut vm_anchor: HashMap<u32, usize> = HashMap::new();
        for i in 0..n {
            if let CpuLocation::Vm(vm) = net.device_location(DeviceId(i)) {
                match vm_anchor.get(&vm) {
                    Some(&anchor) => uf.union(anchor, i),
                    None => {
                        vm_anchor.insert(vm, i);
                    }
                }
            }
        }
        for &(a, b) in net.affinity() {
            uf.union(a.0, b.0);
        }

        // Islands in order of their smallest device id (deterministic).
        let mut island_of_root: HashMap<usize, usize> = HashMap::new();
        let mut islands: Vec<Vec<usize>> = Vec::new();
        for i in 0..n {
            let r = uf.find(i);
            let idx = *island_of_root.entry(r).or_insert_with(|| {
                islands.push(Vec::new());
                islands.len() - 1
            });
            islands[idx].push(i);
        }

        let nshards = want.max(1).min(islands.len().max(1));
        // LPT greedy balance: biggest islands first (ties: lowest device
        // id), each to the least-loaded shard (ties: lowest shard).
        let mut order: Vec<usize> = (0..islands.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(islands[i].len()), islands[i][0]));
        let mut load = vec![0usize; nshards];
        let mut shard_of = vec![0u32; n];
        for &i in &order {
            let s = (0..nshards).min_by_key(|&s| (load[s], s)).unwrap();
            load[s] += islands[i].len();
            for &d in &islands[i] {
                shard_of[d] = s as u32;
            }
        }

        // Per-pair minimum latency over links whose endpoints landed in
        // different shards, plus the scalar epoch (minimum over the whole
        // cut).
        let mut min_lat = vec![u64::MAX; nshards * nshards];
        let mut epoch: Option<SimDuration> = None;
        if nshards > 1 {
            for &(a, pa, b, _) in &links {
                let (sa, sb) = (shard_of[a.0] as usize, shard_of[b.0] as usize);
                if sa != sb {
                    let lat = net.link_params(a, pa).unwrap().latency;
                    epoch = Some(epoch.map_or(lat, |e| e.min(lat)));
                    let cell = &mut min_lat[sa * nshards + sb];
                    *cell = (*cell).min(lat.0);
                    let cell = &mut min_lat[sb * nshards + sa];
                    *cell = (*cell).min(lat.0);
                }
            }
        }
        let epoch = match epoch {
            Some(e) => {
                debug_assert!(
                    e > SimDuration::ZERO,
                    "zero-latency links are glued, the cut cannot cross one"
                );
                e
            }
            None => {
                if nshards > 1 {
                    SimDuration(u64::MAX)
                } else {
                    SimDuration::ZERO
                }
            }
        };
        PartitionPlan {
            shard_of: Arc::new(shard_of),
            nshards,
            epoch,
            min_lat,
        }
    }

    /// Number of shards in the plan (≥ 1).
    pub fn nshards(&self) -> usize {
        self.nshards
    }

    /// The minimum latency over the whole cut (zero for single-shard
    /// plans, `u64::MAX` ns when no link crosses the cut). The adaptive
    /// coordinator bounds each shard by the per-pair matrix instead; this
    /// scalar is the lookahead a fixed global window would have.
    pub fn epoch(&self) -> SimDuration {
        self.epoch
    }

    /// The shard owning `dev`.
    pub fn shard_of(&self, dev: DeviceId) -> usize {
        self.shard_of[dev.0] as usize
    }

    /// Minimum latency of any link from shard `s` to shard `d`
    /// (`u64::MAX` when no link connects them).
    pub(crate) fn min_lat(&self, s: usize, d: usize) -> u64 {
        self.min_lat[s * self.nshards + d]
    }

    /// Transitively closes the latency matrix (all-pairs shortest paths
    /// over the shard graph). Required whenever a flow table is installed:
    /// a synthesized fast-path delivery (or its advert) crosses directly
    /// from the origin's shard to the destination's, skipping the
    /// intermediate shards' event loops, so *any* connected ordered pair
    /// may exchange events. The closure stays a sound lookahead for both
    /// traffic kinds — a packet hop uses a direct link (≥ the pair's
    /// closed distance) and a synthesized delivery arrives after an
    /// *observed* end-to-end latency, which is at least the link-latency
    /// shortest path between the two shards.
    pub(crate) fn relax(&mut self) {
        let n = self.nshards;
        for k in 0..n {
            for s in 0..n {
                let via = self.min_lat[s * n + k];
                if via == u64::MAX {
                    continue;
                }
                for d in 0..n {
                    let rest = self.min_lat[k * n + d];
                    if rest == u64::MAX {
                        continue;
                    }
                    let cand = via.saturating_add(rest);
                    let cell = &mut self.min_lat[s * n + d];
                    if cand < *cell {
                        *cell = cand;
                    }
                }
            }
        }
        // Cycles can close the diagonal; self-pairs never exchange events.
        for s in 0..n {
            self.min_lat[s * n + s] = u64::MAX;
        }
    }
}

/// Synchronization statistics of a sharded run. Purely observational —
/// the simulation outcome never depends on them. The round count is
/// fully deterministic for a given topology, seed and shard count,
/// because every dispatch decision is a function of the shards'
/// deterministic floors and sends only.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// Coordinator rounds executed.
    pub rounds: u64,
}

/// Everything a finished run yields, and the one input every exporter
/// reads: the sample store, CPU account, trace, spans, stage aggregates,
/// journal and engine counters. A sequential run gets one from
/// [`Network::take_report`], a sharded one from
/// [`ShardedNetwork::into_report`]; for any shard count the contents are
/// bit-identical to the sequential run of the same topology, workload and
/// seed.
#[derive(Default)]
pub struct RunReport {
    /// Merged sample store. Per-name samples and counters match the
    /// sequential run exactly; only the (unobservable) name enumeration
    /// order may differ.
    pub store: SampleStore,
    /// Merged CPU account (integer nanoseconds; exact).
    pub cpu: CpuAccount,
    /// Merged event trace (empty unless tracing was enabled).
    pub trace: Vec<TraceEntry>,
    /// Trace entries dropped at the trace cap (100,000 entries), summed
    /// over shard-local drops and merge re-cap skips — exactly the
    /// sequential drop count.
    pub trace_dropped: u64,
    /// Flight-recorder spans retained under the span cap, in exact
    /// sequential emission order (empty unless the recorder ran in
    /// [`ObsMode::Full`]).
    pub spans: Vec<SpanRecord>,
    /// Spans emitted in total (kept + dropped at the span cap).
    pub spans_emitted: u64,
    /// Spans dropped at the span cap (shard-local drops plus merge
    /// re-cap skips — exactly the sequential drop count).
    pub spans_dropped: u64,
    /// Per-stage latency/CPU aggregates. Stage ids resolve through
    /// [`store`](RunReport::store) (same interner).
    pub stages: StageTable,
    /// The recorder mode the run was configured with.
    pub trace_mode: ObsMode,
    /// Name of every device, indexed by device id (exporters resolve
    /// span `dev` fields through this).
    pub device_names: Vec<String>,
    /// Total events processed across all shards.
    pub events_processed: u64,
    /// Total frames dropped on unlinked ports across all shards.
    pub dropped_no_link: u64,
    /// Final simulated time.
    pub now: SimTime,
    /// Coordinator round statistics (zero for single-shard runs, which
    /// bypass the coordinator).
    pub sync: SyncStats,
    /// Merged control-plane journal, in exact sequential emission order —
    /// bit-identical for any shard count. Empty unless telemetry ran in
    /// [`ObsMode::Full`].
    pub journal: Vec<JournalRecord>,
    /// Journal records emitted but dropped at the cap (never silent).
    pub journal_dropped: u64,
    /// Per-kind journal emission counts (kept + dropped), indexed by
    /// `JournalKind as usize`. Populated in `Counters` and `Full` modes.
    pub journal_counts: [u64; JOURNAL_KINDS],
    /// The telemetry mode the run was configured with.
    pub telemetry_mode: ObsMode,
}

fn omin(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// One round's coordinator decisions.
struct RoundPlan {
    bound: Vec<SimTime>,
    dispatch: Vec<bool>,
}

/// Computes one coordinator round: adaptive per-shard bounds and the
/// dispatch set. Returns `None` when no work remains below the deadline —
/// the run-loop termination condition.
// Matrix-style s/d double-indexing is the clearest shape for the
// relaxations; iterator rewrites obscure the symmetry.
#[allow(clippy::needless_range_loop)]
fn plan_round(
    plan: &PartitionPlan,
    deadline: SimTime,
    floors: &[Option<SimTime>],
    pending_in: &[Option<SimTime>],
) -> Option<RoundPlan> {
    let nshards = floors.len();
    let eff: Vec<Option<SimTime>> = (0..nshards)
        .map(|s| omin(floors[s], pending_in[s]))
        .collect();
    if !eff.iter().flatten().any(|&t| t < deadline) {
        return None;
    }
    // Emission promises: the earliest sim time at which each shard could
    // still emit a cross-shard frame. A shard's own floor/pending is not
    // enough — an idle relay re-emits whatever reaches it, and a shard's
    // *own* output can come back around a cycle — so the promises must be
    // relaxed transitively over the shard graph (Bellman–Ford; cross-shard
    // latencies are positive, so this converges).
    let mut promise = eff;
    loop {
        let mut changed = false;
        for s in 0..nshards {
            let Some(p) = promise[s] else { continue };
            for d in 0..nshards {
                if s == d {
                    continue;
                }
                let lat = plan.min_lat(s, d);
                if lat == u64::MAX {
                    continue;
                }
                let cand = SimTime(p.0.saturating_add(lat));
                if promise[d].is_none_or(|cur| cand < cur) {
                    promise[d] = Some(cand);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // Adaptive bound: the earliest time a frame from any peer could still
    // arrive at `d`, given the relaxed promises and the per-pair minimum
    // latencies. The cap is the deadline itself: shard windows are
    // exclusive (`at < bound`), so events at exactly the deadline stay
    // queued — the same boundary the sequential engine's `run` applies.
    let bound: Vec<SimTime> = (0..nshards)
        .map(|d| {
            let mut b = deadline.0;
            for s in 0..nshards {
                if s == d {
                    continue;
                }
                let lat = plan.min_lat(s, d);
                if lat == u64::MAX {
                    continue;
                }
                if let Some(f) = promise[s] {
                    b = b.min(f.0.saturating_add(lat));
                }
            }
            SimTime(b)
        })
        .collect();
    // Dispatch only shards with something to do: arrivals to push or
    // events below their bound.
    let dispatch = (0..nshards)
        .map(|d| pending_in[d].is_some() || floors[d].is_some_and(|f| f < bound[d]))
        .collect();
    Some(RoundPlan { bound, dispatch })
}

/// The coordinator's state between rounds, persisted across run calls.
struct Coordinator {
    /// Progress floor per shard: its heap minimum after its last round.
    floors: Vec<Option<SimTime>>,
    /// `inbox[d][s]`: the frames shard `s` sent to shard `d`, held until
    /// `d`'s next dispatch.
    inbox: Vec<Vec<Vec<RemoteEvent>>>,
    /// Minimum arrival time of the frames waiting in `inbox[d]`.
    pending_in: Vec<Option<SimTime>>,
    stats: SyncStats,
}

impl Coordinator {
    /// The round loop (see module docs): plan a round, hand each
    /// dispatched shard its arrivals, then run the dispatched shards in
    /// shard order, filing the frames each one sends for its
    /// destination's next dispatch.
    fn run(&mut self, plan: &PartitionPlan, nets: &mut [Network], deadline: SimTime) {
        while let Some(rp) = plan_round(plan, deadline, &self.floors, &self.pending_in) {
            self.stats.rounds += 1;
            let n = nets.len();
            // Every inbox is emptied before any shard runs, so a frame
            // sent this round waits for the next one.
            for d in (0..n).filter(|&d| rp.dispatch[d]) {
                self.pending_in[d] = None;
                for ev in self.inbox[d].iter_mut().flat_map(std::mem::take) {
                    nets[d].push_remote(ev);
                }
            }
            for s in (0..n).filter(|&s| rp.dispatch[s]) {
                let net = &mut nets[s];
                net.run_window(rp.bound[s]);
                self.floors[s] = net.peek_next_at();
                for (d, batch) in net.take_outbox().into_iter().enumerate() {
                    let Some(at) = batch.iter().map(|e| e.tag.at).min() else {
                        continue;
                    };
                    debug_assert_ne!(
                        plan.min_lat(s, d),
                        u64::MAX,
                        "cross-shard frame on a pair without a link"
                    );
                    self.pending_in[d] = omin(self.pending_in[d], Some(at));
                    // A shard with arrivals is dispatched the next round,
                    // which empties its inbox.
                    debug_assert!(self.inbox[d][s].is_empty());
                    self.inbox[d][s] = batch;
                }
            }
        }
    }
}

/// A [`Network`] split across shards, each with its own slab/heap event
/// loop, run round by round on the calling thread and synchronized by
/// adaptive conservative bounds.
///
/// Build a topology on a plain [`Network`] (injecting initial frames and
/// timers as usual), then hand it to [`ShardedNetwork::new`] *before
/// running any event*. [`run`](ShardedNetwork::run) mirrors the
/// sequential API; [`into_report`](ShardedNetwork::into_report) merges the
/// shards back into one [`RunReport`].
pub struct ShardedNetwork {
    nets: Vec<Network>,
    plan: PartitionPlan,
    coord: Coordinator,
    now: SimTime,
    /// The master network's recorder (holding journal records emitted
    /// before the split): the merge target of `into_report`. Unused for
    /// single-shard runs, whose network keeps its own.
    seed: Recorder,
}

impl ShardedNetwork {
    /// Shards `net` into at most `want` shards (see
    /// [`PartitionPlan::partition`] for the actual count).
    ///
    /// # Panics
    /// Panics if `net` has already processed events — sharding must happen
    /// between topology construction and the first run.
    pub fn new(net: Network, want: usize) -> ShardedNetwork {
        let now = net.now();
        let mut plan = PartitionPlan::partition(&net, want);
        if net.fidelity() != Fidelity::Packet {
            // Flow fast-path traffic can cross directly between any two
            // connected shards (see `PartitionPlan::relax`).
            plan.relax();
        }
        let nshards = plan.nshards();
        let (nets, seed) = if nshards == 1 {
            // Single shard: keep the network whole and run it directly —
            // trivially identical to the sequential engine.
            (vec![net], Recorder::default())
        } else {
            net.split(&plan.shard_of, nshards)
        };
        let coord = Coordinator {
            floors: nets.iter().map(Network::peek_next_at).collect(),
            inbox: (0..nshards)
                .map(|_| (0..nshards).map(|_| Vec::new()).collect())
                .collect(),
            pending_in: vec![None; nshards],
            stats: SyncStats::default(),
        };
        ShardedNetwork {
            nets,
            plan,
            coord,
            now,
            seed,
        }
    }

    /// The partition in effect.
    pub fn plan(&self) -> &PartitionPlan {
        &self.plan
    }

    /// Actual number of shards (≥ 1, at most the requested count).
    pub fn nshards(&self) -> usize {
        self.nets.len()
    }

    /// Current simulated time (the deadline of the last `Until`/`For`
    /// run, or the last processed event time after an `Idle` run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Coordinator round statistics accumulated so far.
    pub fn sync_stats(&self) -> SyncStats {
        self.coord.stats
    }

    /// Runs the sharded network until `stop` (see [`StopCondition`]).
    ///
    /// `Until(t)` processes every event with `at < t` — events at exactly
    /// `t` are **excluded**, identically to the sequential
    /// [`Network::run`], so a deadline slices a scenario the same way at
    /// every shard count.
    pub fn run(&mut self, stop: StopCondition) {
        match stop {
            StopCondition::Until(deadline) => {
                self.run_epochs(deadline);
                if self.now < deadline {
                    self.now = deadline;
                }
            }
            StopCondition::For(d) => {
                let deadline = self.now + d;
                self.run(StopCondition::Until(deadline));
            }
            StopCondition::Idle => {
                self.run_epochs(SimTime(u64::MAX));
                let last = self.nets.iter().map(|n| n.now()).max().unwrap_or(self.now);
                if last > self.now {
                    self.now = last;
                }
            }
        }
    }

    /// Runs the coordinator's round loop up to `deadline`.
    fn run_epochs(&mut self, deadline: SimTime) {
        if self.nets.len() == 1 {
            let net = &mut self.nets[0];
            if deadline == SimTime(u64::MAX) {
                net.run(StopCondition::Idle);
            } else {
                net.run(StopCondition::Until(deadline));
            }
            return;
        }
        self.coord.run(&self.plan, &mut self.nets, deadline);
    }

    /// Merges the shards back into one [`RunReport`]: `obs::merge`
    /// replays every shard's recorded streams in exact sequential order
    /// (see module docs).
    pub fn into_report(mut self) -> RunReport {
        let sync = self.coord.stats;
        if self.nets.len() == 1 {
            return RunReport {
                now: self.now,
                sync,
                ..self.nets[0].take_report()
            };
        }
        let device_names = self.nets[0].device_names();
        let (mut events_processed, mut dropped_no_link) = (0, 0);
        let mut cpus = Vec::with_capacity(self.nets.len());
        let mut shards = Vec::with_capacity(self.nets.len());
        for net in &mut self.nets {
            events_processed += net.events_processed();
            dropped_no_link += net.dropped_no_link();
            cpus.push(net.take_cpu());
            shards.push((net.take_obs(), net.take_store().into_parts()));
        }
        let store = obs::merge(&mut self.seed, shards);
        RunReport {
            cpu: CpuAccount::fold(&cpus),
            device_names,
            events_processed,
            dropped_no_link,
            now: self.now,
            sync,
            ..self.seed.into_report(store)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PortId;
    use crate::engine::LinkParams;
    use crate::testutil::CaptureSink;
    use metrics::CpuLocation;

    fn sink(net: &mut Network, name: &str, loc: CpuLocation) -> DeviceId {
        net.add_device(name, loc, Box::new(CaptureSink::new(name)))
    }

    #[test]
    fn every_device_lands_in_exactly_one_shard() {
        let mut net = Network::new(0);
        let lat = LinkParams::with_latency(SimDuration::micros(10));
        let mut firsts = Vec::new();
        for h in 0..4 {
            let a = sink(&mut net, format!("h{h}.a").as_str(), CpuLocation::Host);
            let b = sink(&mut net, format!("h{h}.b").as_str(), CpuLocation::Host);
            net.connect(a, PortId(0), b, PortId(0), LinkParams::default());
            firsts.push(a);
        }
        for w in firsts.windows(2) {
            net.connect(w[0], PortId(1), w[1], PortId(2), lat);
        }
        let plan = PartitionPlan::partition(&net, 4);
        assert_eq!(plan.nshards(), 4);
        let mut count = vec![0usize; plan.nshards()];
        for i in 0..net.device_count() {
            let s = plan.shard_of(DeviceId(i));
            assert!(s < plan.nshards());
            count[s] += 1;
        }
        assert_eq!(count.iter().sum::<usize>(), net.device_count());
        assert!(count.iter().all(|&c| c == 2), "islands balance 2-2-2-2");
    }

    #[test]
    fn cross_shard_links_are_no_shorter_than_the_epoch() {
        let mut net = Network::new(0);
        let a = sink(&mut net, "a", CpuLocation::Host);
        let b = sink(&mut net, "b", CpuLocation::Host);
        let c = sink(&mut net, "c", CpuLocation::Host);
        net.connect(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(5)),
        );
        net.connect(
            b,
            PortId(1),
            c,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(20)),
        );
        let plan = PartitionPlan::partition(&net, 3);
        assert_eq!(plan.nshards(), 3);
        assert_eq!(plan.epoch(), SimDuration::micros(5));
        for (x, px, y, _) in net.links() {
            if plan.shard_of(x) != plan.shard_of(y) {
                assert!(net.link_params(x, px).unwrap().latency >= plan.epoch());
            }
        }
    }

    #[test]
    fn min_lat_matrix_is_per_pair_and_symmetric() {
        // a —5µs— b —20µs— c, three shards: the a↔b pair must see 5µs,
        // the b↔c pair 20µs, and the unlinked a↔c pair no bound at all —
        // the whole point of adaptive lookahead over a scalar epoch.
        let mut net = Network::new(0);
        let a = sink(&mut net, "a", CpuLocation::Host);
        let b = sink(&mut net, "b", CpuLocation::Host);
        let c = sink(&mut net, "c", CpuLocation::Host);
        net.connect(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(5)),
        );
        net.connect(
            b,
            PortId(1),
            c,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(20)),
        );
        let plan = PartitionPlan::partition(&net, 3);
        assert_eq!(plan.nshards(), 3);
        let (sa, sb, sc) = (plan.shard_of(a), plan.shard_of(b), plan.shard_of(c));
        assert_eq!(plan.min_lat(sa, sb), SimDuration::micros(5).0);
        assert_eq!(plan.min_lat(sb, sa), SimDuration::micros(5).0);
        assert_eq!(plan.min_lat(sb, sc), SimDuration::micros(20).0);
        assert_eq!(plan.min_lat(sc, sb), SimDuration::micros(20).0);
        assert_eq!(plan.min_lat(sa, sc), u64::MAX, "no direct link");
        assert_eq!(plan.min_lat(sc, sa), u64::MAX, "no direct link");
    }

    #[test]
    fn zero_latency_cross_host_link_forces_single_shard() {
        // Two would-be hosts joined by a zero-latency link: no lookahead
        // exists, so the partitioner must glue them and fall back to one
        // shard however many were requested.
        let mut net = Network::new(0);
        let a = sink(&mut net, "host0", CpuLocation::Host);
        let b = sink(&mut net, "host1", CpuLocation::Host);
        net.connect(a, PortId(0), b, PortId(0), LinkParams::default());
        let plan = PartitionPlan::partition(&net, 8);
        assert_eq!(plan.nshards(), 1, "zero-latency cut is impossible");
        assert_eq!(plan.epoch(), SimDuration::ZERO);
        let sharded = ShardedNetwork::new(Network::new(0), 8);
        assert_eq!(sharded.nshards(), 1, "empty network is one shard");
    }

    #[test]
    fn same_vm_devices_are_glued() {
        let mut net = Network::new(0);
        let a = sink(&mut net, "vm1.a", CpuLocation::Vm(1));
        let b = sink(&mut net, "vm1.b", CpuLocation::Vm(1));
        let c = sink(&mut net, "vm2.c", CpuLocation::Vm(2));
        net.connect(
            a,
            PortId(0),
            c,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(3)),
        );
        net.connect(
            b,
            PortId(0),
            c,
            PortId(1),
            LinkParams::with_latency(SimDuration::micros(3)),
        );
        let plan = PartitionPlan::partition(&net, 8);
        assert_eq!(plan.nshards(), 2);
        assert_eq!(plan.shard_of(a), plan.shard_of(b), "same VM, same shard");
        assert_ne!(plan.shard_of(a), plan.shard_of(c));
    }

    #[test]
    fn bind_same_shard_affinity_is_honored() {
        let mut net = Network::new(0);
        let a = sink(&mut net, "a", CpuLocation::Host);
        let b = sink(&mut net, "b", CpuLocation::Host);
        net.connect(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(3)),
        );
        assert_eq!(PartitionPlan::partition(&net, 2).nshards(), 2);
        net.bind_same_shard(a, b);
        let plan = PartitionPlan::partition(&net, 2);
        assert_eq!(plan.nshards(), 1, "affinity glued the only two islands");
    }

    #[test]
    fn relax_closes_the_latency_matrix_transitively() {
        let mut net = Network::new(0);
        let a = sink(&mut net, "a", CpuLocation::Host);
        let b = sink(&mut net, "b", CpuLocation::Host);
        let c = sink(&mut net, "c", CpuLocation::Host);
        net.connect(
            a,
            PortId(0),
            b,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(5)),
        );
        net.connect(
            b,
            PortId(1),
            c,
            PortId(0),
            LinkParams::with_latency(SimDuration::micros(20)),
        );
        let mut plan = PartitionPlan::partition(&net, 3);
        let (sa, sc) = (plan.shard_of(a), plan.shard_of(c));
        assert_eq!(plan.min_lat(sa, sc), u64::MAX);
        plan.relax();
        assert_eq!(plan.min_lat(sa, sc), SimDuration::micros(25).0);
        assert_eq!(plan.min_lat(sc, sa), SimDuration::micros(25).0);
        // Direct pairs keep their (already-minimal) latency and the
        // diagonal stays unreachable.
        assert_eq!(plan.min_lat(sa, plan.shard_of(b)), SimDuration::micros(5).0);
        assert_eq!(plan.min_lat(sa, sa), u64::MAX);
    }
}
