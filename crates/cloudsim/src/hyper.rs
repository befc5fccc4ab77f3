//! Hyperscale streaming replay: million-user scenarios over the
//! incremental placement engine.
//!
//! The fig. 9 pipeline materializes the whole trace and rescans the whole
//! fleet per decision — fine for 492 users, hopeless for the ROADMAP's
//! millions. This module is the streaming counterpart: a
//! [`ScenarioStream`] pulls users on demand from [`TraceStream`] and turns
//! them into a time-ordered event feed (diurnal arrival waves, tenant
//! churn, spot reclamation), and [`run_hyperscale`] replays that feed
//! against a fleet kept in struct-of-arrays form behind a
//! [`FreeCapIndex`], so per-event work and live memory depend on the
//! *live* working set (arrival rate x stay), never on the total user
//! count.
//!
//! Determinism: everything derives from the config seed — the user
//! population is bit-identical to `synthetic_trace(users, seed)`, and the
//! indexed and naive engines replay the same decisions (the report's
//! `digest` field hashes every `(decision, vm)` pair; equal digests prove
//! the fast path changed throughput, not placements).

use crate::catalog::cheapest_fitting;
use crate::index::{FreeCapIndex, PlacePolicy};
use crate::resources::Res;
use crate::trace::TraceStream;
use metrics::{HistSummary, Log2Hist, TelemetrySnapshot, TickSeries, DEFAULT_SERIES_CAP};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Hourly arrival multipliers (per-mille of the configured rate), one day
/// long: a trough before dawn, a business-hours plateau, an evening decay.
const DIURNAL_PM: [u64; 24] = [
    727, 647, 597, 567, 547, 567, 647, 777, 927, 1077, 1227, 1347, 1427, 1447, 1427, 1377, 1307,
    1247, 1187, 1127, 1077, 1007, 907, 807,
];

/// Memory quantum for interned pod shapes, MiB. Pod CPU totals are already
/// discrete (multiples of 0.25 vCPU); rounding memory up to this quantum
/// bounds the shape vocabulary (a few thousand entries) so the interner
/// stays constant-size no matter how many pods stream through.
const MEM_QUANTUM_MIB: u64 = 256;

fn quantize_shape(r: Res) -> Res {
    Res::new(
        r.cpu_m,
        r.mem_mib.div_ceil(MEM_QUANTUM_MIB) * MEM_QUANTUM_MIB,
    )
}

/// Configuration of one hyperscale replay.
#[derive(Debug, Clone)]
pub struct HyperConfig {
    /// Users pulled from the synthetic trace stream.
    pub users: usize,
    /// Trace + scenario seed. The user population equals
    /// `synthetic_trace(users, seed)`.
    pub seed: u64,
    /// Mean pod arrivals per tick (one tick = one hour); the diurnal
    /// curve modulates the instantaneous rate around this mean. The
    /// horizon scales with `users`, the live working set does not.
    pub pods_per_tick: usize,
    /// Mean pod stay in ticks (stays are uniform in `1..=2*mean`).
    pub mean_stay_ticks: usize,
    /// Per-tick probability that the oldest live tenant exits early,
    /// departing all of its pods at once.
    pub churn_per_tick: f64,
    /// Per-tick probability of a spot-reclamation wave revoking 0.5-4% of
    /// the fleet (newest VMs first); their pods are rescheduled.
    pub reclaim_per_tick: f64,
    /// Maximum samples kept per cost/utilization curve (streaming
    /// decimation keeps memory bounded on long horizons).
    pub curve_points: usize,
    /// Placement policy under test.
    pub policy: PlacePolicy,
    /// Use the exhaustive reference scan instead of the bucket index
    /// (same decisions, quadratic cost — the bench's paired control).
    pub naive: bool,
    /// Stop after this many placement decisions (paired benches compare
    /// identical event prefixes without replaying a whole horizon).
    pub max_placements: Option<u64>,
}

impl Default for HyperConfig {
    fn default() -> HyperConfig {
        HyperConfig {
            users: 10_000,
            seed: 42,
            pods_per_tick: 1024,
            mean_stay_ticks: 48,
            churn_per_tick: 0.05,
            reclaim_per_tick: 0.02,
            curve_points: 512,
            policy: PlacePolicy::MostRequested,
            naive: false,
            max_placements: None,
        }
    }
}

/// One event of the scenario feed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// A new tick (hour) begins; departures scheduled for it fire first.
    BeginTick {
        /// Tick number from 0.
        tick: u64,
    },
    /// One pod arrives.
    Arrive {
        /// Owning tenant (trace user id).
        tenant: u32,
        /// Quantized whole-pod request.
        req: Res,
        /// Ticks until the pod departs on its own.
        stay: u32,
    },
    /// The oldest live tenant exits early, taking all its pods.
    TenantExit,
    /// A spot-reclamation wave revokes this fraction of the fleet.
    SpotReclaim {
        /// Fleet fraction revoked, per mille.
        per_mille: u64,
    },
}

/// Streaming scenario generator: a deterministic event feed over a
/// [`TraceStream`] population. Memory is bounded by one user's pod list
/// (the stream holds no history).
#[derive(Debug)]
pub struct ScenarioStream {
    users: TraceStream,
    rng: StdRng,
    pods_per_tick: usize,
    mean_stay: usize,
    churn_p: f64,
    reclaim_p: f64,
    pending: VecDeque<Res>,
    pending_tenant: u32,
    tick: u64,
    step: u8,
    quota: usize,
    users_started: u64,
    pods_emitted: u64,
}

impl ScenarioStream {
    /// Builds the feed for `cfg` (the engine flags in `cfg` are ignored).
    pub fn new(cfg: &HyperConfig) -> ScenarioStream {
        ScenarioStream {
            users: TraceStream::new(cfg.users, cfg.seed),
            // Decouple scenario draws from the trace stream's RNG so the
            // population stays bit-identical to `synthetic_trace`.
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5ce9_a12f_77d1_03b4),
            pods_per_tick: cfg.pods_per_tick.max(1),
            mean_stay: cfg.mean_stay_ticks.max(1),
            churn_p: cfg.churn_per_tick,
            reclaim_p: cfg.reclaim_per_tick,
            pending: VecDeque::new(),
            pending_tenant: 0,
            tick: 0,
            step: 0,
            quota: 0,
            users_started: 0,
            pods_emitted: 0,
        }
    }

    /// Users pulled from the trace so far.
    pub fn users_started(&self) -> u64 {
        self.users_started
    }

    /// Pod arrivals emitted so far.
    pub fn pods_emitted(&self) -> u64 {
        self.pods_emitted
    }
}

impl Iterator for ScenarioStream {
    type Item = ScenarioEvent;

    fn next(&mut self) -> Option<ScenarioEvent> {
        loop {
            match self.step {
                // Tick prologue.
                0 => {
                    if self.users.remaining() == 0 && self.pending.is_empty() {
                        return None;
                    }
                    let pm = DIURNAL_PM[(self.tick % 24) as usize];
                    self.quota = ((self.pods_per_tick as u64 * pm / 1000) as usize).max(1);
                    self.step = 1;
                    return Some(ScenarioEvent::BeginTick { tick: self.tick });
                }
                // Tenant churn draw.
                1 => {
                    self.step = 2;
                    if self.rng.gen_bool(self.churn_p) {
                        return Some(ScenarioEvent::TenantExit);
                    }
                }
                // Spot reclamation draw.
                2 => {
                    self.step = 3;
                    if self.rng.gen_bool(self.reclaim_p) {
                        return Some(ScenarioEvent::SpotReclaim {
                            per_mille: self.rng.gen_range(5..40),
                        });
                    }
                }
                // Arrivals until the diurnal quota is spent.
                _ => {
                    if self.quota == 0 {
                        self.step = 0;
                        self.tick += 1;
                        continue;
                    }
                    if self.pending.is_empty() {
                        match self.users.next() {
                            Some(u) => {
                                self.users_started += 1;
                                self.pending_tenant = u.id;
                                self.pending
                                    .extend(u.pods.iter().map(|p| quantize_shape(p.total())));
                            }
                            None => {
                                self.step = 0;
                                self.tick += 1;
                                continue;
                            }
                        }
                    }
                    let req = self.pending.pop_front().expect("pending pod");
                    self.quota -= 1;
                    self.pods_emitted += 1;
                    let stay = 1 + self.rng.gen_range(0..2 * self.mean_stay) as u32;
                    return Some(ScenarioEvent::Arrive {
                        tenant: self.pending_tenant,
                        req,
                        stay,
                    });
                }
            }
        }
    }
}

/// One downsampled point of the cost/utilization curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CurvePoint {
    /// Tick the sample was taken at.
    pub tick: u64,
    /// Fleet burn rate at the sample, dollars per hour.
    pub cost_per_h: f64,
    /// CPU utilization of the fleet, per mille.
    pub util_cpu_pm: u64,
    /// Memory utilization of the fleet, per mille.
    pub util_mem_pm: u64,
    /// Live pods.
    pub live_pods: u64,
    /// Live VMs.
    pub live_vms: u64,
}

/// Outcome of one hyperscale replay.
#[derive(Debug, Clone, Serialize)]
pub struct HyperReport {
    /// Policy replayed.
    pub policy: String,
    /// True when the reference scan produced the decisions.
    pub naive: bool,
    /// Users pulled from the trace stream.
    pub users: u64,
    /// Pod arrivals placed (excluding reclamation reschedules).
    pub pods_placed: u64,
    /// Total placement decisions (arrivals + reschedules).
    pub placements: u64,
    /// Ticks simulated.
    pub ticks: u64,
    /// False when `max_placements` stopped the replay early.
    pub completed: bool,
    /// Integrated bill, dollars.
    pub total_cost: f64,
    /// Peak simultaneous VMs.
    pub peak_vms: usize,
    /// Peak simultaneous pods (the live working set).
    pub peak_live_pods: usize,
    /// VM purchases.
    pub vms_bought: u64,
    /// Spot-reclamation waves absorbed.
    pub reclaims: u64,
    /// Early tenant exits.
    pub tenant_exits: u64,
    /// Distinct interned pod shapes seen.
    pub shapes: usize,
    /// FNV-1a hash over every `(decision#, vm)` pair: equal digests across
    /// the indexed and naive engines prove identical placements.
    pub digest: u64,
    /// Downsampled fleet curve.
    pub curve: Vec<CurvePoint>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The fleet + live-pod state in struct-of-arrays form: parallel vectors
/// indexed by recycled `u32` ids, with resource shapes interned once.
struct Engine {
    policy: PlacePolicy,
    naive: bool,

    idx: FreeCapIndex,
    // Per-VM arrays, indexed by the ids the FreeCapIndex hands out.
    vm_price: Vec<f64>,
    vm_bought_at: Vec<u64>,
    vm_pods: Vec<Vec<u32>>,
    vm_alive: Vec<bool>,
    live_vms: usize,

    // Per-pod arrays, indexed by recycled slot. `gen` invalidates stale
    // calendar entries after an early (churn) departure frees a slot.
    pod_vm: Vec<u32>,
    pod_shape: Vec<u32>,
    pod_tenant: Vec<u32>,
    pod_gen: Vec<u32>,
    pod_alive: Vec<bool>,
    pod_free: Vec<u32>,
    live_pods: usize,

    shapes: Vec<Res>,
    shape_ids: HashMap<Res, u32>,
    tenant_pods: BTreeMap<u32, Vec<u32>>,
    /// Departure ring calendar: slot `(tick % len)` holds `(pod, gen)`.
    calendar: Vec<Vec<(u32, u32)>>,

    // Fleet-wide running totals for the utilization curve.
    cap_cpu: u64,
    cap_mem: u64,
    used_cpu: u64,
    used_mem: u64,
    cost_rate: f64,

    now: u64,
    total_cost: f64,
    placements: u64,
    pods_placed: u64,
    vms_bought: u64,
    reclaims: u64,
    tenant_exits: u64,
    peak_vms: usize,
    peak_pods: usize,
    digest: u64,

    curve: Vec<CurvePoint>,
    curve_cap: usize,
    stride: u64,
}

impl Engine {
    fn new(cfg: &HyperConfig) -> Engine {
        Engine {
            policy: cfg.policy,
            naive: cfg.naive,
            idx: FreeCapIndex::new(),
            vm_price: Vec::new(),
            vm_bought_at: Vec::new(),
            vm_pods: Vec::new(),
            vm_alive: Vec::new(),
            live_vms: 0,
            pod_vm: Vec::new(),
            pod_shape: Vec::new(),
            pod_tenant: Vec::new(),
            pod_gen: Vec::new(),
            pod_alive: Vec::new(),
            pod_free: Vec::new(),
            live_pods: 0,
            shapes: Vec::new(),
            shape_ids: HashMap::new(),
            tenant_pods: BTreeMap::new(),
            calendar: (0..2 * cfg.mean_stay_ticks.max(1) + 2)
                .map(|_| Vec::new())
                .collect(),
            cap_cpu: 0,
            cap_mem: 0,
            used_cpu: 0,
            used_mem: 0,
            cost_rate: 0.0,
            now: 0,
            total_cost: 0.0,
            placements: 0,
            pods_placed: 0,
            vms_bought: 0,
            reclaims: 0,
            tenant_exits: 0,
            peak_vms: 0,
            peak_pods: 0,
            digest: FNV_OFFSET,
            curve: Vec::new(),
            curve_cap: cfg.curve_points.max(2),
            stride: 1,
        }
    }

    fn intern(&mut self, r: Res) -> u32 {
        if let Some(&id) = self.shape_ids.get(&r) {
            return id;
        }
        let id = self.shapes.len() as u32;
        self.shapes.push(r);
        self.shape_ids.insert(r, id);
        id
    }

    /// Picks a VM for `req`, buying one when nothing fits. Returns the VM
    /// id and folds the decision into the digest.
    fn place(&mut self, req: Res) -> u32 {
        let picked = if self.naive {
            self.idx.pick_naive(req, self.policy)
        } else {
            self.idx.pick(req, self.policy)
        };
        let vm = match picked {
            Some(vm) => {
                self.idx.commit(vm, req);
                vm
            }
            None => {
                let model = cheapest_fitting(req).expect("pod exceeds the largest model");
                let cap = model.capacity();
                let vm = self.idx.insert(cap, req);
                let n = vm as usize + 1;
                if self.vm_price.len() < n {
                    self.vm_price.resize(n, 0.0);
                    self.vm_bought_at.resize(n, 0);
                    self.vm_pods.resize_with(n, Vec::new);
                    self.vm_alive.resize(n, false);
                }
                self.vm_price[vm as usize] = model.price_per_h;
                self.vm_bought_at[vm as usize] = self.now;
                self.vm_alive[vm as usize] = true;
                debug_assert!(self.vm_pods[vm as usize].is_empty());
                self.live_vms += 1;
                self.vms_bought += 1;
                self.cap_cpu += cap.cpu_m;
                self.cap_mem += cap.mem_mib;
                self.cost_rate += model.price_per_h;
                vm
            }
        };
        self.used_cpu += req.cpu_m;
        self.used_mem += req.mem_mib;
        self.digest = fnv_mix(fnv_mix(self.digest, self.placements), u64::from(vm));
        self.placements += 1;
        self.peak_vms = self.peak_vms.max(self.live_vms);
        vm
    }

    /// Registers an arriving pod on `vm` and schedules its departure.
    fn admit(&mut self, tenant: u32, shape: u32, vm: u32, stay: u32) {
        let slot = match self.pod_free.pop() {
            Some(s) => s,
            None => {
                let s = self.pod_vm.len() as u32;
                self.pod_vm.push(0);
                self.pod_shape.push(0);
                self.pod_tenant.push(0);
                self.pod_gen.push(0);
                self.pod_alive.push(false);
                s
            }
        };
        let i = slot as usize;
        self.pod_vm[i] = vm;
        self.pod_shape[i] = shape;
        self.pod_tenant[i] = tenant;
        self.pod_alive[i] = true;
        self.vm_pods[vm as usize].push(slot);
        self.tenant_pods.entry(tenant).or_default().push(slot);
        let at = ((self.now + u64::from(stay)) % self.calendar.len() as u64) as usize;
        self.calendar[at].push((slot, self.pod_gen[i]));
        self.live_pods += 1;
        self.pods_placed += 1;
        self.peak_pods = self.peak_pods.max(self.live_pods);
    }

    /// Removes pod `slot` from its VM and every side table, releasing the
    /// VM when it empties. The calendar entry (if still pending) is left
    /// to die against the bumped generation.
    fn depart(&mut self, slot: u32) {
        let i = slot as usize;
        debug_assert!(self.pod_alive[i]);
        let vm = self.pod_vm[i];
        let req = self.shapes[self.pod_shape[i] as usize];
        self.idx.release(vm, req);
        self.used_cpu -= req.cpu_m;
        self.used_mem -= req.mem_mib;
        let pods = &mut self.vm_pods[vm as usize];
        let at = pods.iter().position(|&p| p == slot).expect("pod on vm");
        pods.swap_remove(at);
        let tenant = self.pod_tenant[i];
        if let Some(list) = self.tenant_pods.get_mut(&tenant) {
            if let Some(at) = list.iter().position(|&p| p == slot) {
                list.swap_remove(at);
            }
            if list.is_empty() {
                self.tenant_pods.remove(&tenant);
            }
        }
        self.pod_alive[i] = false;
        self.pod_gen[i] = self.pod_gen[i].wrapping_add(1);
        self.pod_free.push(slot);
        self.live_pods -= 1;
        if self.vm_pods[vm as usize].is_empty() {
            self.retire_vm(vm);
        }
    }

    /// Bills and removes VM `vm` from the fleet.
    fn retire_vm(&mut self, vm: u32) {
        let i = vm as usize;
        debug_assert!(self.vm_alive[i]);
        let cap = self.idx.cap(vm);
        self.total_cost += self.vm_price[i] * (self.now - self.vm_bought_at[i]) as f64;
        self.cost_rate -= self.vm_price[i];
        self.cap_cpu -= cap.cpu_m;
        self.cap_mem -= cap.mem_mib;
        self.idx.remove(vm);
        self.vm_alive[i] = false;
        self.live_vms -= 1;
    }

    /// Fires every departure scheduled for tick `t`.
    fn fire_departures(&mut self, t: u64) {
        let at = (t % self.calendar.len() as u64) as usize;
        let due = std::mem::take(&mut self.calendar[at]);
        for (slot, gen) in due {
            if self.pod_alive[slot as usize] && self.pod_gen[slot as usize] == gen {
                self.depart(slot);
            }
        }
    }

    /// The oldest live tenant exits, departing all its pods at once.
    fn tenant_exit(&mut self) {
        let Some((&tenant, _)) = self.tenant_pods.iter().next() else {
            return;
        };
        let slots = self.tenant_pods.remove(&tenant).expect("tenant pods");
        self.tenant_exits += 1;
        for slot in slots {
            // `depart` re-walks the (now removed) tenant list harmlessly.
            self.depart(slot);
        }
    }

    /// Revokes `per_mille` of the fleet, newest VMs first, and reschedules
    /// every pod that lived on a revoked VM.
    fn spot_reclaim(&mut self, per_mille: u64) {
        if self.live_vms == 0 {
            return;
        }
        let count = ((self.live_vms as u64 * per_mille / 1000) as usize).max(1);
        let mut victims: Vec<(u64, u32)> = (0..self.vm_alive.len() as u32)
            .filter(|&v| self.vm_alive[v as usize])
            .map(|v| (self.vm_bought_at[v as usize], v))
            .collect();
        victims.sort_unstable_by(|a, b| b.cmp(a));
        victims.truncate(count);
        self.reclaims += 1;
        for (_, vm) in victims {
            let orphans = std::mem::take(&mut self.vm_pods[vm as usize]);
            // Drop the revoked VM's usage before rescheduling onto the
            // survivors (place() re-adds each pod's share).
            for &slot in &orphans {
                let req = self.shapes[self.pod_shape[slot as usize] as usize];
                self.used_cpu -= req.cpu_m;
                self.used_mem -= req.mem_mib;
            }
            self.retire_vm(vm);
            for slot in orphans {
                let req = self.shapes[self.pod_shape[slot as usize] as usize];
                let new_vm = self.place(req);
                self.pod_vm[slot as usize] = new_vm;
                self.vm_pods[new_vm as usize].push(slot);
            }
        }
    }

    /// Samples the curve with streaming decimation: the buffer never
    /// exceeds `2 * curve_cap` points.
    fn sample(&mut self, tick: u64) {
        if !tick.is_multiple_of(self.stride) {
            return;
        }
        self.curve.push(CurvePoint {
            tick,
            cost_per_h: self.cost_rate,
            util_cpu_pm: self.used_cpu * 1000 / self.cap_cpu.max(1),
            util_mem_pm: self.used_mem * 1000 / self.cap_mem.max(1),
            live_pods: self.live_pods as u64,
            live_vms: self.live_vms as u64,
        });
        if self.curve.len() >= 2 * self.curve_cap {
            let mut keep = 0;
            self.curve.retain(|_| {
                keep += 1;
                keep % 2 == 1
            });
            self.stride *= 2;
        }
    }
}

/// Replays the scenario described by `cfg` and reports the outcome.
///
/// # Panics
/// Panics if the trace emits a pod no catalog model can host (the
/// generator guarantees otherwise).
pub fn run_hyperscale(cfg: &HyperConfig) -> HyperReport {
    run_hyperscale_inner(cfg, None)
}

/// Same replay as [`run_hyperscale`], additionally writing the decision
/// metrics into `snap`: placement/fleet counters, a
/// `hyper.placements_per_tick` gauge, the end-of-replay
/// [`FreeCapIndex::bucket_occupancy`] histogram, and the fleet curve as
/// decimated tick series (the x axis carries the tick number). The replay
/// itself is untouched — equal digests with the plain run.
pub fn run_hyperscale_with_telemetry(
    cfg: &HyperConfig,
    snap: &mut TelemetrySnapshot,
) -> HyperReport {
    run_hyperscale_inner(cfg, Some(snap))
}

fn run_hyperscale_inner(cfg: &HyperConfig, snap: Option<&mut TelemetrySnapshot>) -> HyperReport {
    let mut stream = ScenarioStream::new(cfg);
    let mut eng = Engine::new(cfg);
    let mut completed = true;
    'replay: for ev in stream.by_ref() {
        match ev {
            ScenarioEvent::BeginTick { tick } => {
                eng.now = tick;
                eng.fire_departures(tick);
                eng.sample(tick);
            }
            ScenarioEvent::TenantExit => eng.tenant_exit(),
            ScenarioEvent::SpotReclaim { per_mille } => eng.spot_reclaim(per_mille),
            ScenarioEvent::Arrive { tenant, req, stay } => {
                let shape = eng.intern(req);
                let vm = eng.place(req);
                eng.admit(tenant, shape, vm, stay);
                if let Some(cap) = cfg.max_placements {
                    if eng.placements >= cap {
                        completed = false;
                        break 'replay;
                    }
                }
            }
        }
    }
    if completed {
        // Drain: no new arrivals; let every live pod run out its stay.
        while eng.live_pods > 0 {
            eng.now += 1;
            let t = eng.now;
            eng.fire_departures(t);
            eng.sample(t);
        }
    } else {
        // Early stop: bill the surviving fleet up to `now`.
        let live: Vec<u32> = (0..eng.vm_alive.len() as u32)
            .filter(|&v| eng.vm_alive[v as usize])
            .collect();
        for vm in live {
            eng.total_cost +=
                eng.vm_price[vm as usize] * (eng.now - eng.vm_bought_at[vm as usize]) as f64;
        }
    }
    let report = HyperReport {
        policy: format!("{:?}", cfg.policy),
        naive: cfg.naive,
        users: stream.users_started(),
        pods_placed: eng.pods_placed,
        placements: eng.placements,
        ticks: eng.now + 1,
        completed,
        total_cost: eng.total_cost,
        peak_vms: eng.peak_vms,
        peak_live_pods: eng.peak_pods,
        vms_bought: eng.vms_bought,
        reclaims: eng.reclaims,
        tenant_exits: eng.tenant_exits,
        shapes: eng.shapes.len(),
        digest: eng.digest,
        curve: eng.curve,
    };
    if let Some(snap) = snap {
        fill_snapshot(snap, &report, &eng.idx);
    }
    report
}

/// Writes one finished replay's metrics into `snap` (see
/// [`run_hyperscale_with_telemetry`]).
fn fill_snapshot(snap: &mut TelemetrySnapshot, report: &HyperReport, idx: &FreeCapIndex) {
    for (name, v) in [
        ("hyper.users", report.users),
        ("hyper.pods_placed", report.pods_placed),
        ("hyper.placements", report.placements),
        ("hyper.vms_bought", report.vms_bought),
        ("hyper.reclaims", report.reclaims),
        ("hyper.tenant_exits", report.tenant_exits),
    ] {
        snap.counters.insert(name.to_string(), v);
    }
    for (name, v) in [
        ("hyper.peak_vms", report.peak_vms as f64),
        ("hyper.peak_live_pods", report.peak_live_pods as f64),
        ("hyper.shapes", report.shapes as f64),
        (
            "hyper.placements_per_tick",
            report.placements as f64 / report.ticks.max(1) as f64,
        ),
    ] {
        snap.gauges.insert(name.to_string(), v);
    }
    let mut hist = Log2Hist::new();
    for n in idx.bucket_occupancy() {
        hist.record(n);
    }
    snap.histograms.insert(
        "hyper.index_bucket_occupancy".to_string(),
        HistSummary::of(&hist),
    );
    for (name, pick) in [
        ("hyper.cost_per_h", 0usize),
        ("hyper.util_cpu_pm", 1),
        ("hyper.live_pods", 2),
        ("hyper.live_vms", 3),
    ] {
        let mut series = TickSeries::new(DEFAULT_SERIES_CAP);
        for p in &report.curve {
            let v = match pick {
                0 => p.cost_per_h,
                1 => p.util_cpu_pm as f64,
                2 => p.live_pods as f64,
                _ => p.live_vms as f64,
            };
            series.push(p.tick, v);
        }
        snap.series.push(series.export(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HyperConfig {
        HyperConfig {
            users: 300,
            seed: 9,
            pods_per_tick: 64,
            mean_stay_ticks: 12,
            ..HyperConfig::default()
        }
    }

    #[test]
    fn replay_is_deterministic() {
        let a = run_hyperscale(&small_cfg());
        let b = run_hyperscale(&small_cfg());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.pods_placed, b.pods_placed);
        assert_eq!(a.total_cost, b.total_cost);
        assert!(a.completed);
        assert!(a.pods_placed > 0);
        assert_eq!(a.users, 300);
    }

    #[test]
    fn naive_and_indexed_replays_are_identical() {
        for policy in [
            PlacePolicy::MostRequested,
            PlacePolicy::BinPack,
            PlacePolicy::Spread,
        ] {
            let fast = run_hyperscale(&HyperConfig {
                policy,
                ..small_cfg()
            });
            let slow = run_hyperscale(&HyperConfig {
                policy,
                naive: true,
                ..small_cfg()
            });
            assert_eq!(fast.digest, slow.digest, "policy {policy:?}");
            assert_eq!(fast.placements, slow.placements);
            assert_eq!(fast.total_cost, slow.total_cost);
            assert_eq!(fast.vms_bought, slow.vms_bought);
            assert_eq!(fast.curve, slow.curve);
        }
    }

    #[test]
    fn policies_disagree_on_placements() {
        let most = run_hyperscale(&small_cfg());
        let spread = run_hyperscale(&HyperConfig {
            policy: PlacePolicy::Spread,
            ..small_cfg()
        });
        assert_ne!(most.digest, spread.digest);
        // Consolidation cannot be pricier than maximal spreading here.
        assert!(most.total_cost <= spread.total_cost);
    }

    #[test]
    fn scenario_stream_is_deterministic_and_bounded() {
        let cfg = small_cfg();
        let a: Vec<ScenarioEvent> = ScenarioStream::new(&cfg).collect();
        let b: Vec<ScenarioEvent> = ScenarioStream::new(&cfg).collect();
        assert_eq!(a, b);
        let arrivals = a
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::Arrive { .. }))
            .count();
        let ticks = a
            .iter()
            .filter(|e| matches!(e, ScenarioEvent::BeginTick { .. }))
            .count();
        assert!(arrivals > 0 && ticks > 0);
        let mut s = ScenarioStream::new(&cfg);
        s.by_ref().for_each(drop);
        assert_eq!(s.users_started(), cfg.users as u64);
        assert_eq!(s.pods_emitted(), arrivals as u64);
    }

    #[test]
    fn max_placements_stops_early() {
        let full = run_hyperscale(&small_cfg());
        let capped = run_hyperscale(&HyperConfig {
            max_placements: Some(100),
            ..small_cfg()
        });
        assert!(!capped.completed);
        // Reclamation reschedules can overshoot the cap slightly; the
        // stop check runs after each arrival.
        assert!(capped.placements >= 100);
        assert!(capped.placements < full.placements);
    }

    #[test]
    fn curve_stays_within_its_budget() {
        let r = run_hyperscale(&HyperConfig {
            curve_points: 16,
            ..small_cfg()
        });
        assert!(r.curve.len() <= 32, "curve {} points", r.curve.len());
        assert!(r.curve.len() >= 2);
        assert!(r.curve.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn churn_and_reclaim_fire() {
        let r = run_hyperscale(&HyperConfig {
            users: 2_000,
            ..small_cfg()
        });
        assert!(r.tenant_exits > 0, "no tenant churn in {} ticks", r.ticks);
        assert!(r.reclaims > 0, "no reclamation in {} ticks", r.ticks);
        assert!(r.completed);
    }

    #[test]
    fn shape_vocabulary_is_bounded() {
        let small = run_hyperscale(&small_cfg());
        let big = run_hyperscale(&HyperConfig {
            users: 3_000,
            ..small_cfg()
        });
        // 10x the users must not mean 10x the shapes: the quantized
        // vocabulary saturates.
        assert!(
            big.shapes < small.shapes * 3,
            "shapes grew {} -> {}",
            small.shapes,
            big.shapes
        );
    }
}
