//! The deterministic discrete-event engine.
//!
//! A [`Network`] owns every [`Device`], the link table, the event queue, the
//! global clock, the CPU account and the sample store. Determinism: events
//! are ordered by the *intrinsic* key `(time, source device, per-source
//! sequence)`, and all randomness flows from per-device RNG streams derived
//! from the network seed, so a given (topology, workload, seed) reproduces
//! bit-identical results — independently of how the event heap happens to
//! interleave unrelated devices, and therefore independently of how the
//! network is later sharded (see `parallel.rs`).
//!
//! # Fast path
//!
//! The three structures every event touches are laid out for throughput
//! (see DESIGN.md, "Engine fast path"):
//!
//! * metrics are interned ([`MetricId`]) so recording is a vector index,
//!   not a `String` hash — the `&str` API survives as a shim;
//! * the link table is a dense per-device, port-indexed vector, making
//!   `peer`/`is_linked`/delivery O(1) array loads;
//! * the heap orders small fixed-size [`EventKey`]s while event payloads
//!   live in a pooled slab, so heap sifts never memcpy a [`Frame`] and the
//!   steady-state loop allocates nothing.
//!
//! # Event ordering
//!
//! Every scheduled event carries an [`EventTag`] `(at, src, seq)`:
//!
//! * `at` — the simulated delivery time;
//! * `src` — the id of the *emitting* device ([`EXTERNAL_SRC`] for frames
//!   and timers injected by the harness);
//! * `seq` — a counter that is monotonic *per source*.
//!
//! The tag is a total order (each source numbers its own emissions), it is a
//! property of the emission itself rather than of global heap insertion
//! order, and simultaneous events from one source still process in FIFO
//! order. This is what makes the sharded engine exact: the sequential pop
//! order restricted to any subset of devices equals that subset's own local
//! pop order, so per-shard executions are slices of the sequential one.

use crate::device::{Device, DeviceId, DeviceKind, PortId};
use crate::fault::{FaultIds, FaultPlan};
use crate::filter::{FilterControl, FilterRule};
use crate::flow::{
    EmitAction, Fidelity, FlowEvent, FlowKey, FlowProbe, FlowTable, FlowTag, FlowUpdate,
};
use crate::frame::{Frame, Transport};
use crate::nat::NatControl;
use crate::obs::Recorder;
use crate::parallel::RunReport;
use crate::time::{SimDuration, SimTime};
use metrics::{
    CpuAccount, CpuCategory, CpuLocation, FlightStamp, Interner, JournalKind, JournalRing,
    MetricId, ObsMode, Ring, SpanId, SpanRecord, TelemetryConfig, TraceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Propagation parameters of a link between two device ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Probability that a frame is silently lost on this link (failure
    /// injection; 0 on healthy links).
    pub loss_prob: f64,
}

impl LinkParams {
    /// A loss-free link with the given latency.
    pub fn with_latency(latency: SimDuration) -> LinkParams {
        LinkParams {
            latency,
            loss_prob: 0.0,
        }
    }

    /// Adds frame loss.
    pub fn with_loss(mut self, p: f64) -> LinkParams {
        assert!((0.0..=1.0).contains(&p), "loss probability in [0,1]");
        self.loss_prob = p;
        self
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency: SimDuration::ZERO,
            loss_prob: 0.0,
        }
    }
}

/// Source id tagged onto harness-injected events ([`Network::inject_frame`],
/// [`Network::schedule_timer`]); real devices use their own (small) ids.
pub(crate) const EXTERNAL_SRC: u32 = u32::MAX;

/// The intrinsic identity of a scheduled event: delivery time, emitting
/// source, and the source's own emission counter. Unique per event and
/// independent of heap insertion order — the determinism anchor for the
/// sharded engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct EventTag {
    pub(crate) at: SimTime,
    pub(crate) src: u32,
    pub(crate) seq: u64,
}

#[derive(Debug)]
enum EventKind {
    Frame {
        dev: DeviceId,
        port: PortId,
        frame: Frame,
    },
    Timer {
        dev: DeviceId,
        token: u64,
    },
    /// A delivered flow probe advertised back to its origin endpoint
    /// (`dev` is the origin, whose shard owns the flow's state). Absorbed
    /// by the engine itself — no device dispatch.
    FlowAdvert {
        dev: DeviceId,
        update: Box<FlowUpdate>,
    },
}

/// What the binary heap actually orders: a small fixed-size key. The
/// payload ([`EventKind`], which embeds a whole [`Frame`]) stays put in the
/// pool slab at `slot`, so heap sifts move a few words instead of ~100+.
#[derive(Debug, Clone, Copy)]
struct EventKey {
    tag: EventTag,
    slot: u32,
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.tag == other.tag
    }
}
impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `(src, seq)` is unique, so the tag is already a total order;
        // `slot` deliberately does not participate.
        self.tag.cmp(&other.tag)
    }
}

/// Slab of in-flight event payloads plus a free list. Slots are recycled,
/// so after warm-up the event loop performs no allocation per event.
#[derive(Debug, Default)]
struct EventPool {
    slots: Vec<Option<EventKind>>,
    free: Vec<u32>,
}

impl EventPool {
    /// Stores `kind`, returning the slot index it now occupies.
    fn insert(&mut self, kind: EventKind) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.slots[slot as usize].is_none());
                self.slots[slot as usize] = Some(kind);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX in-flight events");
                self.slots.push(Some(kind));
                slot
            }
        }
    }

    /// Removes and returns the payload at `slot`, recycling the slot.
    fn take(&mut self, slot: u32) -> EventKind {
        let kind = self.slots[slot as usize]
            .take()
            .expect("event slot already drained");
        self.free.push(slot);
        kind
    }
}

/// SplitMix64 finalizer — used to derive independent per-device RNG seeds
/// from the single network seed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of device `stream`'s RNG from the network seed.
fn mix_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(seed ^ splitmix64(stream))
}

struct DeviceSlot {
    name: String,
    loc: CpuLocation,
    /// Classification captured at [`Network::add_device`] so the flow fast
    /// path can test it without borrowing the device box.
    kind: DeviceKind,
    /// Cached [`Device::flow_bypass`] answer (same reason).
    bypass: bool,
    dev: Option<Box<dyn Device>>,
    /// This device's private RNG stream (jitter, stalls, loss draws for
    /// frames *it* emits). Seeded from `mix_seed(network_seed, id)`, so
    /// draws depend only on this device's own event sequence — never on how
    /// unrelated devices interleave in the heap or across shards.
    rng: StdRng,
    /// Per-source emission counter backing [`EventTag::seq`].
    emit_seq: u64,
    /// Per-device span counter backing [`SpanId::seq`]. Like `emit_seq`,
    /// it advances only with this device's own events, so span identities
    /// are intrinsic — independent of heap interleaving and sharding.
    span_seq: u64,
}

/// One record of the sample journal kept by shard networks: which series,
/// what value, in per-shard chronological order.
type JournalEntry = (MetricId, f64);

/// Collected measurements: named sample vectors (latencies, sizes...) and
/// named counters (bytes delivered, frames dropped...).
///
/// Names are interned to dense [`MetricId`]s; recording through an id is a
/// vector index. The `&str` methods ([`record`](SampleStore::record),
/// [`add`](SampleStore::add), ...) remain as a compatibility shim that
/// interns on the fly — one hash lookup, no allocation once the name has
/// been seen.
#[derive(Debug, Default)]
pub struct SampleStore {
    interner: Interner,
    samples: Vec<Vec<f64>>,
    counters: Vec<f64>,
    /// When set (shard stores only), samples are appended to this single
    /// chronological journal instead of the per-series vectors; the
    /// sharded-run merge replays journals in global event order.
    journal: Option<Vec<JournalEntry>>,
}

impl SampleStore {
    /// Interns `name`, returning the id to record through. Devices cache
    /// this at first use and skip the name hash on every later event.
    pub fn metric_id(&mut self, name: &str) -> MetricId {
        let id = self.interner.intern(name);
        if self.samples.len() <= id.index() {
            self.samples.resize_with(id.index() + 1, Vec::new);
            self.counters.resize(id.index() + 1, 0.0);
        }
        id
    }

    /// Records one sample under `id`.
    #[inline]
    pub fn record_id(&mut self, id: MetricId, value: f64) {
        match &mut self.journal {
            Some(j) => j.push((id, value)),
            None => self.samples[id.index()].push(value),
        }
    }

    /// Adds `delta` to counter `id`.
    #[inline]
    pub fn add_id(&mut self, id: MetricId, delta: f64) {
        self.counters[id.index()] += delta;
    }

    /// All samples recorded under `id`.
    #[inline]
    pub fn samples_by_id(&self, id: MetricId) -> &[f64] {
        &self.samples[id.index()]
    }

    /// Current value of counter `id`.
    #[inline]
    pub fn counter_by_id(&self, id: MetricId) -> f64 {
        self.counters[id.index()]
    }

    /// Records one sample under `name` (shim; interns `name`).
    pub fn record(&mut self, name: &str, value: f64) {
        let id = self.metric_id(name);
        self.record_id(id, value);
    }

    /// Adds `delta` to counter `name` (shim; interns `name`).
    pub fn add(&mut self, name: &str, delta: f64) {
        let id = self.metric_id(name);
        self.add_id(id, delta);
    }

    /// All samples recorded under `name` (empty slice if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.interner
            .get(name)
            .map(|id| self.samples_by_id(id))
            .unwrap_or(&[])
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> f64 {
        self.interner
            .get(name)
            .map_or(0.0, |id| self.counter_by_id(id))
    }

    /// Names of all sample series (in first-intern order — deterministic
    /// for a deterministic run, unlike the old `HashMap` key order).
    ///
    /// For a store merged from a sharded run the order is first-intern
    /// order *of the merge*, which need not match a sequential run's; the
    /// name *set* and every per-name series do match.
    pub fn sample_names(&self) -> impl Iterator<Item = &str> {
        self.interner
            .names()
            .enumerate()
            .filter(|&(i, _)| !self.samples[i].is_empty())
            .map(|(_, n)| n)
    }

    /// Names of all counters with a nonzero value, in first-intern order
    /// (same caveat as [`sample_names`](SampleStore::sample_names) for
    /// merged stores).
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.interner
            .names()
            .enumerate()
            .filter(|&(i, _)| self.counters[i] != 0.0)
            .map(|(_, n)| n)
    }

    /// The name behind an interned id (for exporters resolving stage and
    /// series names).
    ///
    /// # Panics
    /// Panics if `id` was issued by a different store.
    pub fn name_of(&self, id: MetricId) -> &str {
        self.interner.name(id)
    }

    /// Switches the store to journal mode (shard stores). Pre-existing
    /// per-series samples stay put; the merge emits them first.
    pub(crate) fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// Number of journal entries recorded so far (0 when not journaling).
    #[inline]
    pub(crate) fn journal_len(&self) -> usize {
        self.journal.as_ref().map_or(0, Vec::len)
    }

    /// Decomposes the store for the sharded-run merge.
    pub(crate) fn into_parts(self) -> StoreParts {
        StoreParts {
            names: self.interner.names().map(String::from).collect(),
            samples: self.samples,
            counters: self.counters,
            journal: self.journal.unwrap_or_default(),
        }
    }
}

/// A [`SampleStore`] decomposed for merging (see `parallel.rs`).
pub(crate) struct StoreParts {
    pub(crate) names: Vec<String>,
    pub(crate) samples: Vec<Vec<f64>>,
    pub(crate) counters: Vec<f64>,
    pub(crate) journal: Vec<JournalEntry>,
}

/// One entry of the (optional) event trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// When the event fired.
    pub at: SimTime,
    /// Device that handled it.
    pub device: String,
    /// `"frame"` or `"timer"`, plus the frame's one-line rendering.
    pub what: String,
}

/// One endpoint's view of a link: who is on the other side, and with what
/// propagation parameters.
#[derive(Debug, Clone, Copy)]
struct Link {
    peer: DeviceId,
    peer_port: PortId,
    params: LinkParams,
}

/// What a cross-shard event delivers: a frame to a device port, or a flow
/// advert to the flow table of the origin's shard.
#[derive(Debug)]
pub(crate) enum RemotePayload {
    Frame { port: PortId, frame: Frame },
    Advert(Box<FlowUpdate>),
}

/// An event crossing shards: the full intrinsic tag plus the destination
/// device and payload, held in the coordinator's inboxes and
/// pushed into the destination shard's heap (see `parallel.rs`).
#[derive(Debug)]
pub(crate) struct RemoteEvent {
    pub(crate) tag: EventTag,
    pub(crate) dev: DeviceId,
    pub(crate) payload: RemotePayload,
}

/// Control-plane handles the flow fast path consults per fast-path
/// emission: a steady flow escalates back to packet level when any
/// registered filter/NAT control on its learned path reports a rule
/// change (see [`crate::flow::PolicyProbeFn`]). Registered before runs
/// via [`Network::attach_filter`]/[`Network::watch_nat`], shared
/// read-only with every shard on split (controls are mutated only between
/// runs).
#[derive(Debug, Default, Clone)]
struct PolicyRegistry {
    filters: Vec<(DeviceId, FilterControl)>,
    nats: Vec<(DeviceId, NatControl)>,
}

/// A shard network's view of the partition: which shard owns each device,
/// which shard *this* network is, and the outbox of frames addressed to
/// other shards.
struct ShardCtx {
    shard_of: Arc<Vec<u32>>,
    me: u32,
    /// `outbox[d]`: events addressed to shard `d`, in emission order.
    outbox: Vec<Vec<RemoteEvent>>,
}

/// The simulated network: device graph + event queue + clock + accounting.
pub struct Network {
    devices: Vec<DeviceSlot>,
    /// Dense adjacency: `links[dev.0][port.0]` is the link attached to that
    /// port, if any. Rows grow on demand (ports are small integers).
    links: Vec<Vec<Option<Link>>>,
    queue: BinaryHeap<Reverse<EventKey>>,
    pool: EventPool,
    now: SimTime,
    /// Emission counter for harness injections (source [`EXTERNAL_SRC`]).
    inject_seq: u64,
    processed: u64,
    dropped_no_link: u64,
    cpu: CpuAccount,
    seed: u64,
    store: SampleStore,
    link_lost: MetricId,
    /// Event trace, flight recorder, journal and (shards) event log.
    obs: Recorder,
    /// Device pairs the partitioner must keep in one shard (e.g. devices
    /// serializing on one shared station).
    affinity: Vec<(DeviceId, DeviceId)>,
    shard: Option<ShardCtx>,
    /// Scheduled fault plan (see `fault.rs`); shared read-only with every
    /// shard when the network is split.
    fault: Option<Arc<FaultPlan>>,
    /// Fault counter ids, interned into *this* network's store (re-interned
    /// per shard store on split).
    fault_ids: Option<FaultIds>,
    /// Flow-level fast path state (`None` in [`Fidelity::Packet`], the
    /// default — packet runs pay nothing for the table's existence).
    flow: Option<FlowTable>,
    /// CPU charged while handling the current event, broken out per
    /// (location, category) so riding flow probes can record per-hop
    /// costs. Cleared each event; only written while a flow table is
    /// installed.
    event_charges: Vec<(CpuLocation, CpuCategory, u64)>,
    /// Open/closed state per fault-plan window (link faults first, then
    /// stalls), scanned on emission to journal window transitions. Empty
    /// unless telemetry is on and a fault plan is installed.
    fault_open: Vec<bool>,
    /// Filter/NAT controls watched for rule changes by the flow fast
    /// path (see [`PolicyRegistry`]).
    policies: Arc<PolicyRegistry>,
}

impl Network {
    /// Creates an empty network with the given RNG seed.
    pub fn new(seed: u64) -> Network {
        let mut store = SampleStore::default();
        let link_lost = store.metric_id("link.lost");
        Network {
            devices: Vec::new(),
            links: Vec::new(),
            queue: BinaryHeap::new(),
            pool: EventPool::default(),
            now: SimTime::ZERO,
            inject_seq: 0,
            processed: 0,
            dropped_no_link: 0,
            cpu: CpuAccount::new(),
            seed,
            store,
            link_lost,
            obs: Recorder::default(),
            affinity: Vec::new(),
            shard: None,
            fault: None,
            fault_ids: None,
            flow: None,
            event_charges: Vec::new(),
            fault_open: Vec::new(),
            policies: Arc::new(PolicyRegistry::default()),
        }
    }

    /// Installs a deterministic fault plan (see [`FaultPlan`]). Faults draw
    /// from the emitting device's own RNG stream, so a faulted scenario is
    /// bit-identical across shard counts.
    ///
    /// # Panics
    /// Panics if events have already been processed: fault windows are part
    /// of the scenario, not something to mutate mid-run.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(
            self.processed, 0,
            "install fault plans before running the network"
        );
        self.fault_ids = Some(FaultIds::intern(&mut self.store));
        self.fault = Some(Arc::new(plan));
        self.resize_fault_open();
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref()
    }

    /// Selects the simulation fidelity (see [`Fidelity`]). `Packet`
    /// removes the flow table; `Hybrid` installs a fresh one.
    ///
    /// # Panics
    /// Panics if events have already been processed: fidelity is part of
    /// the scenario, not something to flip mid-run.
    pub fn set_fidelity(&mut self, f: Fidelity) {
        assert_eq!(
            self.processed, 0,
            "select fidelity before running the network"
        );
        self.flow = match f {
            Fidelity::Packet => None,
            Fidelity::Hybrid => Some(FlowTable::new(&mut self.store)),
        };
    }

    /// The active simulation fidelity: `Hybrid` whenever a flow table is
    /// installed.
    pub fn fidelity(&self) -> Fidelity {
        if self.flow.is_some() {
            Fidelity::Hybrid
        } else {
            Fidelity::Packet
        }
    }

    /// Configures the flight recorder. Must be called before any event is
    /// processed (devices observe the mode from their first frame on).
    pub fn set_trace_config(&mut self, cfg: TraceConfig) {
        self.obs.set_flight(cfg);
    }

    /// The active flight-recorder configuration.
    pub fn trace_config(&self) -> TraceConfig {
        self.obs.flight
    }

    /// Configures the telemetry plane (control-plane journal). Mirrors
    /// [`set_trace_config`](Network::set_trace_config): call before any
    /// event is processed. The journal ring is reconfigured in place —
    /// records already journaled (e.g. harness records emitted during
    /// setup, before `SimConfig::build` re-applies the configuration)
    /// survive as long as the new mode retains them.
    pub fn set_telemetry_config(&mut self, cfg: TelemetryConfig) {
        self.obs.set_telem(cfg);
        self.resize_fault_open();
    }

    /// The active telemetry configuration.
    pub fn telemetry_config(&self) -> TelemetryConfig {
        self.obs.telem
    }

    /// The control-plane journal collected so far.
    pub fn journal(&self) -> &JournalRing {
        &self.obs.journal
    }

    /// (Re)sizes the fault-window transition state: one open/closed flag
    /// per plan window when both telemetry and a fault plan are active.
    fn resize_fault_open(&mut self) {
        let n = match (&self.fault, self.obs.telem.mode) {
            (Some(plan), ObsMode::Counters | ObsMode::Full) => {
                plan.link_faults().len() + plan.stalls().len()
            }
            _ => 0,
        };
        self.fault_open = vec![false; n];
    }

    /// Emits a journal record from *outside* event processing (harness or
    /// control-plane code between runs). Tagged with the external source
    /// and a dedicated monotonic sequence, so enabling telemetry never
    /// perturbs event tags.
    pub fn journal_external(&mut self, kind: JournalKind, a: u64, b: u64, c: u64) {
        self.obs.journal_external(self.now, kind, a, b, c);
    }

    /// Registers `ctl` as device `dev`'s filter table for the flow fast
    /// path's rule-change escalation check. Harnesses that mutate filter
    /// rules while a `Hybrid` run is live (or between runs)
    /// must register the control, or steady flows crossing `dev` keep
    /// synthesizing deliveries until their next revalidation probe.
    /// Packet-fidelity runs ignore the registry entirely.
    pub fn attach_filter(&mut self, dev: DeviceId, ctl: FilterControl) {
        Arc::make_mut(&mut self.policies).filters.push((dev, ctl));
    }

    /// Registers `ctl` as device `dev`'s NAT control for the flow fast
    /// path's rule-change escalation check (DNAT/route/LB mutations bump
    /// the control's change epoch). See [`attach_filter`](Network::attach_filter).
    pub fn watch_nat(&mut self, dev: DeviceId, ctl: NatControl) {
        Arc::make_mut(&mut self.policies).nats.push((dev, ctl));
    }

    /// Installs a filter rule on `dev`'s table, activating at `from`, and
    /// journals the mutation (`FilterInstall`, a = device, b = rule id,
    /// c = activation ns). Returns the rule id.
    pub fn install_filter(
        &mut self,
        dev: DeviceId,
        ctl: &FilterControl,
        rule: FilterRule,
        from: SimTime,
    ) -> u64 {
        let id = ctl.install_at(rule, from);
        self.journal_external(JournalKind::FilterInstall, dev.0 as u64, id, from.0);
        id
    }

    /// Deactivates filter rule `id` on `dev`'s table at `until`,
    /// journaling the mutation (`FilterRemove`). Returns false when the
    /// rule does not exist.
    pub fn remove_filter(
        &mut self,
        dev: DeviceId,
        ctl: &FilterControl,
        id: u64,
        until: SimTime,
    ) -> bool {
        let ok = ctl.remove_at(id, until);
        if ok {
            self.journal_external(JournalKind::FilterRemove, dev.0 as u64, id, until.0);
        }
        ok
    }

    /// Enables (or disables) event tracing. Traced runs record every
    /// event's time, device and content — invaluable for walking a
    /// packet's hop-by-hop path through a topology (see the `pathfinder`
    /// binary), at a real memory cost. The first 100,000 entries are kept
    /// and the rest counted as dropped. Set it before
    /// [`SimConfig::build`](crate::SimConfig::build) to trace a sharded run.
    pub fn set_tracing(&mut self, on: bool) {
        self.obs.set_tracing(on);
    }

    /// Trace entries collected so far (empty when tracing is off).
    pub fn trace(&self) -> &[TraceEntry] {
        self.obs.trace.as_ref().map_or(&[], Ring::items)
    }

    /// Takes everything the run recorded — store, CPU account, event
    /// trace, spans, stage aggregates and journal — as the [`RunReport`]
    /// every exporter reads. The recorder restarts empty with the same
    /// configuration; the store and CPU account are gone, so the network
    /// is spent.
    pub fn take_report(&mut self) -> RunReport {
        let fresh = self.obs.fresh();
        let obs = std::mem::replace(&mut self.obs, fresh);
        RunReport {
            cpu: self.take_cpu(),
            device_names: self.device_names(),
            events_processed: self.processed,
            dropped_no_link: self.dropped_no_link,
            now: self.now,
            ..obs.into_report(self.take_store())
        }
    }

    /// Name of every device, indexed by device id.
    pub(crate) fn device_names(&self) -> Vec<String> {
        self.devices.iter().map(|d| d.name.clone()).collect()
    }

    /// Adds a device located at `loc` (host or a VM); returns its id.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        loc: CpuLocation,
        dev: Box<dyn Device>,
    ) -> DeviceId {
        let id = DeviceId(self.devices.len());
        let kind = dev.kind();
        let bypass = dev.flow_bypass();
        self.devices.push(DeviceSlot {
            name: name.into(),
            loc,
            kind,
            bypass,
            dev: Some(dev),
            rng: StdRng::seed_from_u64(mix_seed(self.seed, id.0 as u64)),
            emit_seq: 0,
            span_seq: 0,
        });
        self.links.push(Vec::new());
        id
    }

    /// Declares that `a` and `b` must land in the same shard when this
    /// network is partitioned (see `parallel::PartitionPlan`). Needed for
    /// devices coupled through state the device graph cannot see — above
    /// all a [`SharedStation`](crate::shared::SharedStation) serialized
    /// across devices. A no-op for sequential runs.
    pub fn bind_same_shard(&mut self, a: DeviceId, b: DeviceId) {
        self.affinity.push((a, b));
    }

    /// Same-shard constraints declared so far.
    pub(crate) fn affinity(&self) -> &[(DeviceId, DeviceId)] {
        &self.affinity
    }

    /// The link slot for `(dev, port)`, growing the port row to fit.
    fn link_slot(&mut self, dev: DeviceId, port: PortId) -> &mut Option<Link> {
        let row = &mut self.links[dev.0];
        if row.len() <= port.0 {
            row.resize(port.0 + 1, None);
        }
        &mut row[port.0]
    }

    /// The link attached to `(dev, port)`, if any. Out-of-range devices and
    /// ports read as unlinked.
    #[inline]
    fn link_at(&self, dev: DeviceId, port: PortId) -> Option<Link> {
        self.links.get(dev.0)?.get(port.0).copied().flatten()
    }

    /// Connects `(a, pa)` and `(b, pb)` bidirectionally.
    ///
    /// # Panics
    /// Panics if either port is already linked — the port graph is static.
    pub fn connect(&mut self, a: DeviceId, pa: PortId, b: DeviceId, pb: PortId, p: LinkParams) {
        assert!(a.0 < self.devices.len(), "device {a:?} does not exist");
        assert!(b.0 < self.devices.len(), "device {b:?} does not exist");
        let fwd = self.link_slot(a, pa);
        assert!(fwd.is_none(), "port {:?}:{:?} already linked", a, pa);
        *fwd = Some(Link {
            peer: b,
            peer_port: pb,
            params: p,
        });
        let rev = self.link_slot(b, pb);
        assert!(rev.is_none(), "port {:?}:{:?} already linked", b, pb);
        *rev = Some(Link {
            peer: a,
            peer_port: pa,
            params: p,
        });
    }

    /// Peer of `(dev, port)` if linked.
    pub fn peer(&self, dev: DeviceId, port: PortId) -> Option<(DeviceId, PortId)> {
        self.link_at(dev, port).map(|l| (l.peer, l.peer_port))
    }

    /// Propagation parameters of the link at `(dev, port)`, if linked.
    pub fn link_params(&self, dev: DeviceId, port: PortId) -> Option<LinkParams> {
        self.link_at(dev, port).map(|l| l.params)
    }

    /// All links, each reported once as `(a, pa, b, pb)` with `a < b` (or
    /// `pa < pb` for self-links), sorted for determinism.
    pub fn links(&self) -> Vec<(DeviceId, PortId, DeviceId, PortId)> {
        let mut out = Vec::new();
        for (a, row) in self.links.iter().enumerate() {
            for (pa, slot) in row.iter().enumerate() {
                if let Some(l) = slot {
                    let (a, pa) = (DeviceId(a), PortId(pa));
                    if (a, pa) < (l.peer, l.peer_port) {
                        out.push((a, pa, l.peer, l.peer_port));
                    }
                }
            }
        }
        // Dense row-major iteration already yields sorted order; keep the
        // sort as a cheap guarantee of the documented contract.
        out.sort();
        out
    }

    /// Renders the device graph as Graphviz DOT (one node per device,
    /// labelled edges per link) — the fig. 1 diagrams, generated.
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write;
        let mut dot = String::new();
        writeln!(dot, "graph {title:?} {{").unwrap();
        writeln!(
            dot,
            "  label={title:?};
  node [shape=box];"
        )
        .unwrap();
        for (i, d) in self.devices.iter().enumerate() {
            writeln!(dot, "  d{i} [label={:?}];", d.name).unwrap();
        }
        for (a, pa, b, pb) in self.links() {
            writeln!(
                dot,
                "  d{} -- d{} [taillabel=\"{}\", headlabel=\"{}\"];",
                a.0, b.0, pa.0, pb.0
            )
            .unwrap();
        }
        dot.push_str("}\n");
        dot
    }

    /// Device name (for traces and assertions).
    pub fn device_name(&self, id: DeviceId) -> &str {
        &self.devices[id.0].name
    }

    /// Device location.
    pub fn device_location(&self, id: DeviceId) -> CpuLocation {
        self.devices[id.0].loc
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Frames dropped because a device transmitted on an unlinked port.
    pub fn dropped_no_link(&self) -> u64 {
        self.dropped_no_link
    }

    /// CPU account (read at end of run).
    pub fn cpu(&self) -> &CpuAccount {
        &self.cpu
    }

    /// Sample store (read at end of run).
    pub fn store(&self) -> &SampleStore {
        &self.store
    }

    /// Schedules a frame to arrive at `(dev, port)` after `delay`.
    pub fn inject_frame(&mut self, delay: SimDuration, dev: DeviceId, port: PortId, frame: Frame) {
        let tag = self.next_inject_tag(self.now + delay);
        self.route_frame(tag, dev, port, frame);
    }

    /// Schedules a timer for `dev` after `delay` — used to start
    /// applications at t=0 or at staggered offsets.
    pub fn schedule_timer(&mut self, delay: SimDuration, dev: DeviceId, token: u64) {
        let tag = self.next_inject_tag(self.now + delay);
        debug_assert!(
            self.shard
                .as_ref()
                .is_none_or(|sh| sh.shard_of[dev.0] == sh.me),
            "timer scheduled on a foreign shard's device"
        );
        self.push_keyed(tag, EventKind::Timer { dev, token });
    }

    /// Next tag for a harness-injected event.
    fn next_inject_tag(&mut self, at: SimTime) -> EventTag {
        let seq = self.inject_seq;
        self.inject_seq += 1;
        EventTag {
            at,
            src: EXTERNAL_SRC,
            seq,
        }
    }

    /// Queues an event locally.
    fn push_keyed(&mut self, tag: EventTag, kind: EventKind) {
        let slot = self.pool.insert(kind);
        self.queue.push(Reverse(EventKey { tag, slot }));
    }

    /// Routes a frame delivery: into the local heap, or — when this network
    /// is a shard and the destination lives elsewhere — into the outbox.
    fn route_frame(&mut self, tag: EventTag, dev: DeviceId, port: PortId, frame: Frame) {
        if let Some(sh) = &mut self.shard {
            let d = sh.shard_of[dev.0];
            if d != sh.me {
                sh.outbox[d as usize].push(RemoteEvent {
                    tag,
                    dev,
                    payload: RemotePayload::Frame { port, frame },
                });
                return;
            }
        }
        self.push_keyed(tag, EventKind::Frame { dev, port, frame });
    }

    /// Routes a flow advert to the shard owning the flow's origin device
    /// (whose flow table holds the entry), or absorbs it locally.
    fn route_advert(&mut self, tag: EventTag, dev: DeviceId, update: Box<FlowUpdate>) {
        if let Some(sh) = &mut self.shard {
            let d = sh.shard_of[dev.0];
            if d != sh.me {
                sh.outbox[d as usize].push(RemoteEvent {
                    tag,
                    dev,
                    payload: RemotePayload::Advert(update),
                });
                return;
            }
        }
        self.push_keyed(tag, EventKind::FlowAdvert { dev, update });
    }

    /// Pushes an event that arrived from another shard.
    pub(crate) fn push_remote(&mut self, ev: RemoteEvent) {
        debug_assert!(ev.tag.at >= self.now, "remote event in this shard's past");
        let kind = match ev.payload {
            RemotePayload::Frame { port, frame } => EventKind::Frame {
                dev: ev.dev,
                port,
                frame,
            },
            RemotePayload::Advert(update) => EventKind::FlowAdvert {
                dev: ev.dev,
                update,
            },
        };
        self.push_keyed(ev.tag, kind);
    }

    /// Drains the outbox of events addressed to other shards, one batch
    /// per destination shard.
    pub(crate) fn take_outbox(&mut self) -> Vec<Vec<RemoteEvent>> {
        match &mut self.shard {
            Some(sh) => sh.outbox.iter_mut().map(std::mem::take).collect(),
            None => Vec::new(),
        }
    }

    /// Delivery time of the earliest queued event, if any.
    pub(crate) fn peek_next_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(k)| k.tag.at)
    }

    /// Processes every queued event with `at < until` (the epoch window of
    /// the sharded engine).
    pub(crate) fn run_window(&mut self, until: SimTime) {
        while let Some(Reverse(key)) = self.queue.peek() {
            if key.tag.at >= until {
                break;
            }
            self.step();
        }
    }

    /// Takes the recorder (shard merge).
    pub(crate) fn take_obs(&mut self) -> Recorder {
        std::mem::take(&mut self.obs)
    }

    /// Takes the sample store, leaving an empty one behind.
    pub(crate) fn take_store(&mut self) -> SampleStore {
        std::mem::take(&mut self.store)
    }

    /// Takes the CPU account, leaving an empty one behind.
    pub(crate) fn take_cpu(&mut self) -> CpuAccount {
        std::mem::take(&mut self.cpu)
    }

    /// Splits an un-run network into one [`Network`] per shard of `plan`,
    /// returned with the master's recorder (the merge target, holding any
    /// journal records emitted before the split).
    ///
    /// Every shard keeps the full link table and a full-length device vector
    /// (foreign slots are stubs), so device ids keep working unchanged; the
    /// heap contents are distributed by destination device. Shard stores
    /// record through journals and every shard recorder keeps an event log,
    /// which is what lets `obs::merge` reconstruct the exact sequential
    /// interleaving.
    ///
    /// # Panics
    /// Panics if events have already been processed: devices cache
    /// [`MetricId`]s from the store they first record into, so the split
    /// must happen before any device runs.
    pub(crate) fn split(
        mut self,
        shard_of: &Arc<Vec<u32>>,
        nshards: usize,
    ) -> (Vec<Network>, Recorder) {
        assert_eq!(
            self.processed, 0,
            "a network must be sharded before any event is processed"
        );
        assert_eq!(shard_of.len(), self.devices.len());
        // Distribute queued events to their destination shard.
        let mut initial: Vec<Vec<(EventTag, EventKind)>> =
            (0..nshards).map(|_| Vec::new()).collect();
        while let Some(Reverse(key)) = self.queue.pop() {
            let kind = self.pool.take(key.slot);
            let dev = match &kind {
                EventKind::Frame { dev, .. }
                | EventKind::Timer { dev, .. }
                | EventKind::FlowAdvert { dev, .. } => *dev,
            };
            initial[shard_of[dev.0] as usize].push((key.tag, kind));
        }
        let names = self.device_names();
        let locs: Vec<CpuLocation> = self.devices.iter().map(|d| d.loc).collect();
        let mut slots: Vec<Option<DeviceSlot>> = self.devices.into_iter().map(Some).collect();
        let mut master_store = Some(self.store);
        let mut initial = initial.into_iter();
        let nets = (0..nshards)
            .map(|s| {
                let devices: Vec<DeviceSlot> = (0..slots.len())
                    .map(|i| {
                        if shard_of[i] as usize == s {
                            slots[i].take().expect("device assigned to two shards")
                        } else {
                            // Foreign stub: name/location kept for lookups,
                            // no device, a throwaway RNG.
                            DeviceSlot {
                                name: names[i].clone(),
                                loc: locs[i],
                                kind: DeviceKind::Other,
                                bypass: false,
                                dev: None,
                                rng: StdRng::seed_from_u64(0),
                                emit_seq: 0,
                                span_seq: 0,
                            }
                        }
                    })
                    .collect();
                // Shard 0 inherits the master store (pre-run interned ids
                // stay valid there); others start fresh.
                let mut store = if s == 0 {
                    master_store.take().unwrap()
                } else {
                    SampleStore::default()
                };
                store.enable_journal();
                let link_lost = store.metric_id("link.lost");
                let fault_ids = self.fault.as_ref().map(|_| FaultIds::intern(&mut store));
                // Each shard gets a fresh, empty flow table when the master
                // has one: flow state accrues from events, and every event
                // touching a flow's state runs on its origin's shard.
                let flow = self.flow.as_ref().map(|_| FlowTable::new(&mut store));
                let mut net = Network {
                    devices,
                    links: self.links.clone(),
                    queue: BinaryHeap::new(),
                    pool: EventPool::default(),
                    now: self.now,
                    inject_seq: self.inject_seq,
                    processed: 0,
                    dropped_no_link: 0,
                    cpu: CpuAccount::new(),
                    seed: self.seed,
                    store,
                    link_lost,
                    obs: self.obs.for_shard(),
                    affinity: Vec::new(),
                    shard: Some(ShardCtx {
                        shard_of: Arc::clone(shard_of),
                        me: s as u32,
                        outbox: (0..nshards).map(|_| Vec::new()).collect(),
                    }),
                    fault: self.fault.clone(),
                    fault_ids,
                    flow,
                    event_charges: Vec::new(),
                    fault_open: Vec::new(),
                    policies: Arc::clone(&self.policies),
                };
                net.resize_fault_open();
                for (tag, kind) in initial.next().unwrap() {
                    net.push_keyed(tag, kind);
                }
                net
            })
            .collect();
        (nets, self.obs)
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(key)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(key.tag.at >= self.now, "event in the past");
        self.now = key.tag.at;
        self.processed += 1;
        let kind = self.pool.take(key.slot);
        let dev_id = match &kind {
            EventKind::Frame { dev, .. }
            | EventKind::Timer { dev, .. }
            | EventKind::FlowAdvert { dev, .. } => *dev,
        };
        // Journal records emitted while handling this event carry its
        // intrinsic tag — a pure function of the simulation, identical at
        // every shard count.
        self.obs.begin_event(key.tag, &self.store);
        if let Some(trace) = &mut self.obs.trace {
            let device = &self.devices[dev_id.0].name;
            trace.push_with(|| TraceEntry {
                at: key.tag.at,
                device: device.clone(),
                what: match &kind {
                    EventKind::Frame { frame, .. } => format!("frame {frame}"),
                    EventKind::Timer { token, .. } => format!("timer {token}"),
                    EventKind::FlowAdvert { update, .. } => format!(
                        "flow advert {}:{} lat {}ns",
                        update.key.src_port, update.key.dst_port, update.lat
                    ),
                },
            });
        }
        self.event_charges.clear();
        match kind {
            // Adverts are absorbed by the engine itself — the flow table is
            // the addressee; no device is dispatched.
            EventKind::FlowAdvert { update, .. } => {
                if let Some(flow) = &mut self.flow {
                    flow.absorb(*update, &mut self.store);
                    if let Some(ev) = flow.take_event() {
                        self.journal_flow_event(ev);
                    }
                }
            }
            mut kind => {
                // A delivered probe stamp becomes an advert back to the
                // origin before the endpoint sees the frame.
                if let EventKind::Frame { port, frame, .. } = &mut kind {
                    if self.flow.is_some() && frame.flow.is_some() {
                        self.flow_deliver(dev_id, *port, frame);
                    }
                }
                let mut dev = self.devices[dev_id.0]
                    .dev
                    .take()
                    .unwrap_or_else(|| panic!("device {} re-entered", self.devices[dev_id.0].name));
                let loc = self.devices[dev_id.0].loc;
                {
                    let mut ctx = DevCtx {
                        net: self,
                        id: dev_id,
                        loc,
                    };
                    match kind {
                        EventKind::Frame { port, frame, .. } => dev.on_frame(port, frame, &mut ctx),
                        EventKind::Timer { token, .. } => dev.on_timer(token, &mut ctx),
                        EventKind::FlowAdvert { .. } => unreachable!("absorbed above"),
                    }
                }
                self.devices[dev_id.0].dev = Some(dev);
            }
        }
        self.obs.end_event(&self.store);
        true
    }

    /// Translates a flow-table decision into its journal record.
    fn journal_flow_event(&mut self, ev: FlowEvent) {
        let (kind, origin, b) = match ev {
            FlowEvent::Promoted { origin, lat } => (JournalKind::FlowPromote, origin, lat),
            FlowEvent::Escalated { origin, reason } => {
                (JournalKind::FlowEscalate, origin, reason as u64)
            }
            FlowEvent::Pinned { origin } => (JournalKind::FlowPin, origin, 0),
        };
        self.obs.jrec(kind, origin as u64, b, 0);
    }

    /// Runs the network until `stop` is reached (or the queue empties).
    ///
    /// `Until(t)` processes every event with `at < t` — events at exactly
    /// `t` are **excluded** — then advances the clock to `t`. This is the
    /// same window semantics the sharded engine's epochs use, so a
    /// deadline slices a scenario identically at every shard count.
    pub fn run(&mut self, stop: StopCondition) {
        match stop {
            StopCondition::Until(deadline) => {
                self.run_window(deadline);
                if self.now < deadline {
                    self.now = deadline;
                }
            }
            StopCondition::For(d) => {
                let deadline = self.now + d;
                self.run(StopCondition::Until(deadline));
            }
            StopCondition::Idle => while self.step() {},
        }
    }

    fn charge_at(&mut self, loc: CpuLocation, cat: CpuCategory, d: SimDuration) {
        self.cpu.charge(loc, cat, d.as_nanos());
        // Per-hop attribution for flow probes (merged by (loc, cat); the
        // vector stays tiny — an event rarely touches more than two).
        if self.flow.is_some() {
            let ns = d.as_nanos();
            match self
                .event_charges
                .iter_mut()
                .find(|(l, c, _)| *l == loc && *c == cat)
            {
                Some(e) => e.2 += ns,
                None => self.event_charges.push((loc, cat, ns)),
            }
        }
        // Stage attribution: everything charged since the last stage_frame
        // call within this event belongs to the next staged span. One add;
        // the mirror charge below is *not* double-counted (it is the same
        // work, seen from the host).
        self.obs.event_cpu_ns += d.as_nanos();
        // Work executed inside a VM is vCPU time the host hands to the
        // guest: mirror it into the host's `guest` bucket, as `top` on the
        // host would report it (figs. 14/15 rely on this attribution).
        if let CpuLocation::Vm(_) = loc {
            self.cpu
                .charge(CpuLocation::Host, CpuCategory::Guest, d.as_nanos());
        }
    }

    /// Records one per-packet stage crossing: aggregates into the stage
    /// table and, in full mode, emits a span and restamps `frame` so the
    /// next stage parents to this one. Called through
    /// [`DevCtx::stage_frame`], never directly.
    fn flight_stage(
        &mut self,
        id: DeviceId,
        loc: CpuLocation,
        stage: MetricId,
        frame: &mut Frame,
        done: SimTime,
    ) {
        let enter = self.now.as_nanos();
        let exit = done.as_nanos().max(enter);
        let obs = &mut self.obs;
        let cpu_ns = obs.event_cpu_ns - obs.event_cpu_claimed;
        obs.event_cpu_claimed = obs.event_cpu_ns;
        obs.stages.record(stage, exit - enter, cpu_ns);
        if obs.flight.mode != ObsMode::Full {
            return;
        }
        let slot = &mut self.devices[id.0];
        slot.span_seq += 1;
        let span = SpanId {
            src: id.0 as u32,
            seq: slot.span_seq,
        };
        let parent = frame.flight.parent;
        // First staged stage on a frame's path mints the trace id from the
        // span identity: unique, non-zero, and as deterministic as the
        // span sequence itself.
        let trace = if frame.flight.trace != 0 {
            frame.flight.trace
        } else {
            ((span.src as u64 + 1) << 40) | span.seq
        };
        frame.flight = FlightStamp {
            trace,
            parent: span,
        };
        self.obs.spans.push(SpanRecord {
            trace,
            span,
            parent,
            stage,
            dev: span.src,
            loc,
            enter,
            exit,
            cpu_ns,
        });
    }

    /// The flow fast path's emission hook, called from
    /// [`DevCtx::transmit_at`] whenever a flow table is installed.
    ///
    /// Returns `Some(frame)` when the emission must continue packet level
    /// (possibly now carrying a probe stamp), `None` when it was absorbed
    /// analytically — a synthesized delivery event has been scheduled
    /// directly onto the learned path's destination.
    fn flow_emit(
        &mut self,
        id: DeviceId,
        port: PortId,
        when: SimTime,
        mut frame: Frame,
    ) -> Option<Frame> {
        // A riding probe records every hop it crosses: egress point,
        // bypass consent, NAT involvement, link lossiness and the CPU the
        // hop charged while handling this event.
        if frame.flow.is_some() {
            let origin = frame.flow.0.as_ref().map(|p| p.key.origin);
            if origin != Some(id) {
                let slot = &self.devices[id.0];
                let lossless = self
                    .link_at(id, port)
                    .is_none_or(|l| l.params.loss_prob == 0.0);
                let bypass = slot.bypass;
                let nat = slot.kind == DeviceKind::NatRouter;
                let probe = frame.flow.0.as_deref_mut().expect("checked above");
                probe.hops.push((id, port));
                probe.ok &= bypass && lossless;
                probe.has_nat |= nat;
                for &(loc, cat, ns) in &self.event_charges {
                    match probe
                        .cpu
                        .iter_mut()
                        .find(|(l, c, _)| *l == loc && *c == cat)
                    {
                        Some(e) => e.2 += ns,
                        None => probe.cpu.push((loc, cat, ns)),
                    }
                }
            }
            return Some(frame);
        }
        // Only endpoint emissions start flows; traced frames stay packet
        // level end to end so traces and span trees remain complete.
        let slot = &self.devices[id.0];
        if slot.kind != DeviceKind::Endpoint
            || self.obs.trace.is_some()
            || self.obs.flight.mode == ObsMode::Full
            || frame.flight.trace != 0
        {
            return Some(frame);
        }
        let Some(key) = FlowKey::classify(id, &frame) else {
            return Some(frame);
        };
        let bypass = slot.bypass;
        let fault = self.fault.as_deref();
        let fault_active = |hops: &[(DeviceId, PortId)], from: SimTime, lat: u64| {
            fault.is_some_and(|p| {
                let until = SimTime(from.0.saturating_add(lat).saturating_add(1));
                p.any_active(hops, from, until)
            })
        };
        let pol = &*self.policies;
        let policy = |hops: &[(DeviceId, PortId)], after: SimTime, upto: SimTime| {
            if pol.filters.is_empty() && pol.nats.is_empty() {
                return (false, 0u64);
            }
            let mut epoch = 0u64;
            let mut changed = false;
            for &(dev, _) in hops {
                for (d, f) in &pol.filters {
                    if *d == dev {
                        epoch = epoch.wrapping_add(f.epoch());
                        changed |= f.changed_in(after, upto);
                    }
                }
                for (d, n) in &pol.nats {
                    if *d == dev {
                        epoch = epoch.wrapping_add(n.change_epoch());
                    }
                }
            }
            (changed, epoch)
        };
        let flow = self.flow.as_mut().expect("flow_emit requires a table");
        let action = flow.on_emit(&key, when, &fault_active, &policy, &mut self.store);
        if let Some(ev) = flow.take_event() {
            self.journal_flow_event(ev);
        }
        match action {
            EmitAction::Packet => Some(frame),
            EmitAction::Probe => {
                let lossless = self
                    .link_at(id, port)
                    .is_none_or(|l| l.params.loss_prob == 0.0);
                frame.flow = FlowTag::stamp(FlowProbe {
                    key,
                    born: when,
                    hops: vec![(id, port)],
                    cpu: Vec::new(),
                    ok: bypass && lossless,
                    has_nat: false,
                });
                Some(frame)
            }
            EmitAction::Fast => {
                let flow = self.flow.as_ref().expect("table checked above");
                let path = flow.path(&key).expect("fast emission has a learned path");
                let at = when + SimDuration::nanos(path.latency());
                let dst = path.dst;
                let dst_port = path.dst_port;
                let frames_id = flow.fastpath_frames_id();
                let bytes_id = flow.fastpath_bytes_id();
                let mut synth = path.template.clone();
                // The live payload (and TCP stream state) rides the
                // synthesized delivery so endpoint semantics survive.
                match (&mut synth.ip.transport, frame.ip.transport) {
                    (Transport::Udp { payload: tp, .. }, Transport::Udp { payload, .. }) => {
                        *tp = payload;
                    }
                    (
                        Transport::Tcp {
                            payload: tp,
                            seq: ts,
                            kind: tk,
                            ..
                        },
                        Transport::Tcp {
                            payload, seq, kind, ..
                        },
                    ) => {
                        *tp = payload;
                        *ts = seq;
                        *tk = kind;
                    }
                    _ => {}
                }
                synth.flight = FlightStamp::default();
                synth.flow = FlowTag::default();
                let wire = f64::from(synth.wire_len());
                // Replay the learned per-hop CPU (with the Vm→Host guest
                // mirror `charge_at` applies) so figure-level attribution
                // stays comparable to packet runs. No RNG is consulted:
                // the fast path makes no draws, which is what keeps a
                // hybrid scenario bit-identical across shard counts.
                for &(loc, cat, ns) in &path.cpu {
                    self.cpu.charge(loc, cat, ns);
                    if let CpuLocation::Vm(_) = loc {
                        self.cpu.charge(CpuLocation::Host, CpuCategory::Guest, ns);
                    }
                }
                self.store.add_id(frames_id, 1.0);
                self.store.add_id(bytes_id, wire);
                let slot = &mut self.devices[id.0];
                let seq = slot.emit_seq;
                slot.emit_seq += 1;
                let tag = EventTag {
                    at,
                    src: id.0 as u32,
                    seq,
                };
                self.route_frame(tag, dst, dst_port, synth);
                None
            }
        }
    }

    /// Converts a probe delivered to an endpoint into a [`FlowUpdate`]
    /// advert scheduled back to the origin's flow table one observed
    /// path-latency later (an RTT after emission — the soonest a real
    /// stack could learn anything about its path). Non-endpoint
    /// deliveries keep the stamp riding.
    fn flow_deliver(&mut self, dev: DeviceId, port: PortId, frame: &mut Frame) {
        if self.devices[dev.0].kind != DeviceKind::Endpoint {
            return;
        }
        let Some(probe) = frame.flow.take() else {
            return;
        };
        let mut template = frame.clone();
        template.flight = FlightStamp::default();
        let lat = self.now.since(probe.born).as_nanos();
        let origin = probe.key.origin;
        let update = Box::new(FlowUpdate {
            key: probe.key,
            dst: dev,
            dst_port: port,
            template,
            lat,
            hops: probe.hops,
            cpu: probe.cpu,
            ok: probe.ok,
            has_nat: probe.has_nat,
        });
        let slot = &mut self.devices[dev.0];
        let seq = slot.emit_seq;
        slot.emit_seq += 1;
        let tag = EventTag {
            at: self.now + SimDuration::nanos(lat),
            src: dev.0 as u32,
            seq,
        };
        self.route_advert(tag, origin, update);
    }
}

/// When [`Network::run`] (and the sharded engine's `run`) should stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// Process every event strictly before this instant, then advance the
    /// clock to it. Events at exactly the deadline are excluded — the
    /// same window semantics at every shard count.
    Until(SimTime),
    /// [`Until`](StopCondition::Until) at `now + d`.
    For(SimDuration),
    /// Drain the event queue completely.
    Idle,
}

/// The capability handle a device receives while handling an event.
pub struct DevCtx<'a> {
    net: &'a mut Network,
    id: DeviceId,
    loc: CpuLocation,
}

impl<'a> DevCtx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// The handling device's id.
    pub fn self_id(&self) -> DeviceId {
        self.id
    }

    /// The handling device's CPU location.
    pub fn location(&self) -> CpuLocation {
        self.loc
    }

    /// This device's private RNG stream for jitter sampling. Derived from
    /// `(network seed, device id)`, so the draw sequence depends only on
    /// this device's own events — not on global event interleaving.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.net.devices[self.id.0].rng
    }

    /// Charges CPU time in `cat` at this device's location.
    pub fn charge(&mut self, cat: CpuCategory, d: SimDuration) {
        self.net.charge_at(self.loc, cat, d);
    }

    /// Charges CPU time at an explicit location (e.g. a vhost worker charging
    /// the host while logically serving a guest).
    pub fn charge_at(&mut self, loc: CpuLocation, cat: CpuCategory, d: SimDuration) {
        self.net.charge_at(loc, cat, d);
    }

    /// Emits `frame` on `port` at time `when` (usually a station's service
    /// completion); the frame arrives at the link peer after link latency.
    /// Dropped (and counted) if the port is unlinked.
    pub fn transmit_at(&mut self, when: SimTime, port: PortId, frame: Frame) {
        debug_assert!(when >= self.net.now, "transmit in the past");
        // Hybrid fidelity: let the flow table classify this emission
        // first — it may absorb it entirely (synthesized delivery) or
        // hand it back stamped with a path probe.
        let frame = if self.net.flow.is_some() {
            match self.net.flow_emit(self.id, port, when, frame) {
                Some(f) => f,
                None => return,
            }
        } else {
            frame
        };
        match self.net.link_at(self.id, port) {
            Some(Link {
                peer,
                peer_port,
                params,
            }) => {
                if params.loss_prob > 0.0 {
                    use rand::Rng;
                    if self.net.devices[self.id.0].rng.gen_bool(params.loss_prob) {
                        let id = self.net.link_lost;
                        self.net.store.add_id(id, 1.0);
                        return;
                    }
                }
                // Scheduled fault injection, drawn from this device's own
                // RNG *after* the link's base loss draw — plan-free runs
                // keep their exact draw sequences.
                let mut extra = SimDuration::ZERO;
                let mut duplicate = false;
                if self.net.fault.is_some() {
                    let net = &mut *self.net;
                    let plan = net.fault.as_deref().expect("fault plan checked above");
                    // Journal fault-window open/close transitions, observed
                    // at this device's own emissions. Deterministic across
                    // shard counts: a window's device lives on exactly one
                    // shard and its emissions are totally ordered, so the
                    // transition is detected at the same event everywhere.
                    // Empty (one branch) unless telemetry is on. Windows are
                    // indexed link faults first, then stalls (port 0).
                    if !net.fault_open.is_empty() {
                        let links = plan
                            .link_faults()
                            .iter()
                            .map(|w| (w.dev, w.port, w.from, w.until));
                        let stalls = plan
                            .stalls()
                            .iter()
                            .map(|w| (w.dev, PortId(0), w.from, w.until));
                        for (i, (dev, port, from, until)) in links.chain(stalls).enumerate() {
                            if dev != self.id {
                                continue;
                            }
                            let active = from <= when && when < until;
                            if active != net.fault_open[i] {
                                net.fault_open[i] = active;
                                let kind = if active {
                                    JournalKind::FaultOpen
                                } else {
                                    JournalKind::FaultClose
                                };
                                net.obs.jrec(kind, dev.0 as u64, port.0 as u64, i as u64);
                            }
                        }
                    }
                    let out = plan.outcome(self.id, port, when, &mut net.devices[self.id.0].rng);
                    let ids = net.fault_ids.expect("fault ids interned with the plan");
                    if out.down {
                        net.store.add_id(ids.down, 1.0);
                        return;
                    }
                    if out.lost {
                        net.store.add_id(ids.lost, 1.0);
                        return;
                    }
                    if out.corrupt {
                        net.store.add_id(ids.corrupt, 1.0);
                        return;
                    }
                    if out.duplicate {
                        net.store.add_id(ids.duplicated, 1.0);
                        duplicate = true;
                    }
                    if out.reordered {
                        net.store.add_id(ids.reordered, 1.0);
                    }
                    if out.stalled {
                        net.store.add_id(ids.stalled, 1.0);
                    }
                    extra = out.extra;
                }
                let at = when + params.latency + extra;
                let slot = &mut self.net.devices[self.id.0];
                let seq = slot.emit_seq;
                slot.emit_seq += 1;
                let tag = EventTag {
                    at,
                    src: self.id.0 as u32,
                    seq,
                };
                if duplicate {
                    let dup = frame.clone();
                    self.net.route_frame(tag, peer, peer_port, frame);
                    let slot = &mut self.net.devices[self.id.0];
                    let seq = slot.emit_seq;
                    slot.emit_seq += 1;
                    let tag = EventTag {
                        at,
                        src: self.id.0 as u32,
                        seq,
                    };
                    self.net.route_frame(tag, peer, peer_port, dup);
                } else {
                    self.net.route_frame(tag, peer, peer_port, frame);
                }
            }
            None => {
                self.net.dropped_no_link += 1;
            }
        }
    }

    /// Emits `frame` on `port` immediately.
    pub fn transmit(&mut self, port: PortId, frame: Frame) {
        self.transmit_at(self.net.now, port, frame);
    }

    /// True when `port` of this device has a link attached. Bridges use
    /// this to flood only to connected ports, so that hot-pluggable
    /// (pre-sized) bridges do not spray frames at empty slots.
    pub fn is_linked(&self, port: PortId) -> bool {
        self.net.link_at(self.id, port).is_some()
    }

    /// Schedules `on_timer(token)` for this device after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.net.now + delay;
        let slot = &mut self.net.devices[self.id.0];
        let seq = slot.emit_seq;
        slot.emit_seq += 1;
        let tag = EventTag {
            at,
            src: self.id.0 as u32,
            seq,
        };
        self.net.push_keyed(
            tag,
            EventKind::Timer {
                dev: self.id,
                token,
            },
        );
    }

    /// Interns a metric name, returning an id for the allocation-free
    /// [`record_id`](DevCtx::record_id)/[`count_id`](DevCtx::count_id)
    /// paths. Devices call this once (first event) and cache the result.
    pub fn metric(&mut self, name: &str) -> MetricId {
        self.net.store.metric_id(name)
    }

    /// Records a measurement sample under a pre-interned id.
    #[inline]
    pub fn record_id(&mut self, id: MetricId, value: f64) {
        self.net.store.record_id(id, value);
    }

    /// Bumps a counter under a pre-interned id.
    #[inline]
    pub fn count_id(&mut self, id: MetricId, delta: f64) {
        self.net.store.add_id(id, delta);
    }

    /// Records a measurement sample (shim; interns `name` each call).
    pub fn record(&mut self, name: &str, value: f64) {
        self.net.store.record(name, value);
    }

    /// Bumps a counter (shim; interns `name` each call).
    pub fn count(&mut self, name: &str, delta: f64) {
        self.net.store.add(name, delta);
    }

    /// Marks `frame` as having crossed a per-packet stage of this device:
    /// the frame entered at `now()` and leaves at `done` (usually the
    /// station's service-completion time, i.e. what the device passes to
    /// [`transmit_at`](DevCtx::transmit_at)).
    ///
    /// With the recorder off this is a single branch. In counters mode it
    /// feeds the per-stage aggregate table; in full mode it additionally
    /// emits a [`SpanRecord`] — attributing all CPU charged by this device
    /// since its previous staged stage within the current event — and
    /// restamps `frame` so the next stage parents to this span. Call it
    /// once per stage, after the stage's [`charge`](DevCtx::charge)s,
    /// before cloning/transmitting the frame.
    ///
    /// `stage` is an interned stage name (convention: `"stage.<name>"`),
    /// obtained from [`metric`](DevCtx::metric) and cached by the device.
    #[inline]
    pub fn stage_frame(&mut self, stage: MetricId, frame: &mut Frame, done: SimTime) {
        if self.net.obs.flight.mode == ObsMode::Off {
            return;
        }
        self.net.flight_stage(self.id, self.loc, stage, frame, done);
    }

    /// Emits a control-plane journal record carrying the current event's
    /// intrinsic tag (used by devices for datapath-observable policy
    /// decisions, e.g. a filter chain's DROP/REJECT verdicts). Off-mode
    /// cost: one branch.
    #[inline]
    pub fn journal(&mut self, kind: JournalKind, a: u64, b: u64, c: u64) {
        self.net.obs.jrec(kind, a, b, c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{Ip4, MacAddr, SockAddr};
    use crate::device::DeviceKind;
    use crate::frame::Payload;

    /// Forwards everything from port 0 to port 1 and vice versa after a
    /// fixed delay, counting frames.
    struct Pipe {
        delay: SimDuration,
    }

    impl Device for Pipe {
        fn kind(&self) -> DeviceKind {
            DeviceKind::Other
        }
        fn on_frame(&mut self, port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
            ctx.count("pipe.frames", 1.0);
            ctx.charge(CpuCategory::Sys, SimDuration::nanos(10));
            let out = if port == PortId::P0 {
                PortId::P1
            } else {
                PortId::P0
            };
            let when = ctx.now() + self.delay;
            ctx.transmit_at(when, out, frame);
        }
    }

    /// Sink that records arrival times.
    struct Sink;

    impl Device for Sink {
        fn kind(&self) -> DeviceKind {
            DeviceKind::Endpoint
        }
        fn on_frame(&mut self, _port: PortId, _frame: Frame, ctx: &mut DevCtx<'_>) {
            let t = ctx.now().as_nanos() as f64;
            ctx.record("sink.arrivals", t);
        }
    }

    fn test_frame() -> Frame {
        Frame::udp(
            MacAddr::local(1),
            MacAddr::local(2),
            SockAddr::new(Ip4::new(10, 0, 0, 1), 1),
            SockAddr::new(Ip4::new(10, 0, 0, 2), 2),
            Payload::sized(100),
        )
    }

    #[test]
    fn frames_flow_through_links_with_latency() {
        let mut net = Network::new(0);
        let pipe = net.add_device(
            "pipe",
            CpuLocation::Host,
            Box::new(Pipe {
                delay: SimDuration::micros(5),
            }),
        );
        let sink = net.add_device("sink", CpuLocation::Host, Box::new(Sink));
        net.connect(
            pipe,
            PortId::P1,
            sink,
            PortId::P0,
            LinkParams::with_latency(SimDuration::micros(3)),
        );
        net.inject_frame(SimDuration::micros(1), pipe, PortId::P0, test_frame());
        net.run(StopCondition::Idle);
        // 1us inject + 5us pipe delay + 3us link
        assert_eq!(net.store().samples("sink.arrivals"), &[9_000.0]);
        assert_eq!(net.store().counter("pipe.frames"), 1.0);
        assert_eq!(net.events_processed(), 2);
        assert_eq!(net.dropped_no_link(), 0);
    }

    #[test]
    fn unlinked_port_drops_and_counts() {
        let mut net = Network::new(0);
        let pipe = net.add_device(
            "pipe",
            CpuLocation::Host,
            Box::new(Pipe {
                delay: SimDuration::ZERO,
            }),
        );
        net.inject_frame(SimDuration::ZERO, pipe, PortId::P0, test_frame());
        net.run(StopCondition::Idle);
        assert_eq!(net.dropped_no_link(), 1);
    }

    #[test]
    fn vm_work_mirrors_into_host_guest_bucket() {
        let mut net = Network::new(0);
        let pipe = net.add_device(
            "vmpipe",
            CpuLocation::Vm(3),
            Box::new(Pipe {
                delay: SimDuration::ZERO,
            }),
        );
        net.inject_frame(SimDuration::ZERO, pipe, PortId::P0, test_frame());
        net.run(StopCondition::Idle);
        assert_eq!(net.cpu().get(CpuLocation::Vm(3), CpuCategory::Sys), 10);
        assert_eq!(net.cpu().get(CpuLocation::Host, CpuCategory::Guest), 10);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut net = Network::new(0);
        net.run(StopCondition::Until(SimTime(5_000)));
        assert_eq!(net.now(), SimTime(5_000));
    }

    #[test]
    fn events_are_fifo_at_equal_times() {
        let mut net = Network::new(0);
        let sink = net.add_device("sink", CpuLocation::Host, Box::new(Sink));
        // Two frames at the same instant: injection order must be preserved,
        // which the per-source `seq` of the event tag guarantees.
        net.inject_frame(SimDuration::micros(1), sink, PortId::P0, test_frame());
        net.inject_frame(SimDuration::micros(1), sink, PortId::P0, test_frame());
        net.run(StopCondition::Idle);
        assert_eq!(net.store().samples("sink.arrivals").len(), 2);
        assert_eq!(net.events_processed(), 2);
    }

    #[test]
    fn device_emissions_at_equal_times_stay_fifo() {
        // A device emitting several frames due at the same instant must
        // deliver them in emission order (per-source seq is monotonic).
        struct Burst;
        impl Device for Burst {
            fn kind(&self) -> DeviceKind {
                DeviceKind::Other
            }
            fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
                let when = ctx.now();
                for i in 0..4 {
                    let mut payload = Payload::sized(100);
                    payload.tag = i;
                    let f = Frame::udp(
                        frame.src_mac,
                        frame.dst_mac,
                        frame.ip.src_sock().unwrap(),
                        frame.ip.dst_sock().unwrap(),
                        payload,
                    );
                    ctx.transmit_at(when, PortId::P0, f);
                }
            }
        }
        struct TagSink;
        impl Device for TagSink {
            fn kind(&self) -> DeviceKind {
                DeviceKind::Endpoint
            }
            fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
                let tag = frame.ip.transport.payload().unwrap().tag;
                ctx.record("tags", tag as f64);
            }
        }
        let mut net = Network::new(0);
        let b = net.add_device("burst", CpuLocation::Host, Box::new(Burst));
        let s = net.add_device("sink", CpuLocation::Host, Box::new(TagSink));
        net.connect(b, PortId::P0, s, PortId::P0, LinkParams::default());
        net.inject_frame(SimDuration::ZERO, b, PortId::P1, test_frame());
        net.run(StopCondition::Idle);
        assert_eq!(net.store().samples("tags"), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "already linked")]
    fn double_link_rejected() {
        let mut net = Network::new(0);
        let a = net.add_device("a", CpuLocation::Host, Box::new(Sink));
        let b = net.add_device("b", CpuLocation::Host, Box::new(Sink));
        let c = net.add_device("c", CpuLocation::Host, Box::new(Sink));
        net.connect(a, PortId::P0, b, PortId::P0, LinkParams::default());
        net.connect(a, PortId::P0, c, PortId::P0, LinkParams::default());
    }

    #[test]
    fn links_listing_and_dot_export() {
        let mut net = Network::new(0);
        let a = net.add_device("a", CpuLocation::Host, Box::new(Sink));
        let b = net.add_device("b", CpuLocation::Host, Box::new(Sink));
        let c = net.add_device("c", CpuLocation::Host, Box::new(Sink));
        net.connect(a, PortId(0), b, PortId(1), LinkParams::default());
        net.connect(b, PortId(0), c, PortId(2), LinkParams::default());
        let links = net.links();
        assert_eq!(links.len(), 2, "each link reported once");
        assert_eq!(links[0], (a, PortId(0), b, PortId(1)));
        let dot = net.to_dot("test");
        assert!(dot.contains(r#"graph "test""#));
        assert!(dot.contains("d0 -- d1"));
        assert!(dot.contains("d1 -- d2"));
        assert!(dot.contains(r#"[label="a"]"#));
    }

    #[test]
    fn str_shim_and_id_paths_are_equivalent() {
        // The same metric recorded through the &str shim and through its
        // interned id must land in the same series.
        let mut store = SampleStore::default();
        store.record("lat", 1.0);
        let id = store.metric_id("lat");
        store.record_id(id, 2.0);
        store.record("lat", 3.0);
        assert_eq!(store.samples("lat"), &[1.0, 2.0, 3.0]);
        assert_eq!(store.samples_by_id(id), store.samples("lat"));

        store.add("n", 1.0);
        let n = store.metric_id("n");
        store.add_id(n, 2.0);
        assert_eq!(store.counter("n"), 3.0);
        assert_eq!(store.counter_by_id(n), 3.0);

        // Unknown names read as empty/zero without interning them.
        assert!(store.samples("never").is_empty());
        assert_eq!(store.counter("never"), 0.0);
        assert!(store.sample_names().all(|name| name != "never"));
    }

    #[test]
    fn sample_names_follow_first_intern_order() {
        let mut store = SampleStore::default();
        store.record("z", 1.0);
        store.add("counter_only", 1.0);
        store.record("a", 1.0);
        let names: Vec<&str> = store.sample_names().collect();
        // Counters without samples are not sample series.
        assert_eq!(names, ["z", "a"]);
        let counters: Vec<&str> = store.counter_names().collect();
        assert_eq!(counters, ["counter_only"]);
    }

    #[test]
    fn unconnected_and_out_of_range_ports_read_unlinked() {
        let mut net = Network::new(0);
        let a = net.add_device("a", CpuLocation::Host, Box::new(Sink));
        let b = net.add_device("b", CpuLocation::Host, Box::new(Sink));
        // No connect yet: nothing is linked, even far past any grown row.
        assert_eq!(net.peer(a, PortId(0)), None);
        assert_eq!(net.peer(a, PortId(4096)), None);
        net.connect(a, PortId(3), b, PortId(0), LinkParams::default());
        // Ports below the linked one exist in the grown row but stay empty.
        assert_eq!(net.peer(a, PortId(0)), None);
        assert_eq!(net.peer(a, PortId(2)), None);
        assert_eq!(net.peer(a, PortId(3)), Some((b, PortId(0))));
        assert_eq!(net.peer(b, PortId(0)), Some((a, PortId(3))));
        // Beyond the row end is simply unlinked, not a panic.
        assert_eq!(net.peer(a, PortId(4)), None);
        assert_eq!(net.link_params(a, PortId(3)), Some(LinkParams::default()));
        assert_eq!(net.link_params(a, PortId(4)), None);
    }

    #[test]
    fn transmit_on_unlinked_high_port_drops() {
        // A device transmitting on a port index beyond its grown link row
        // must take the dropped_no_link path, not index out of bounds.
        struct Scatter;
        impl Device for Scatter {
            fn kind(&self) -> DeviceKind {
                DeviceKind::Other
            }
            fn on_frame(&mut self, _port: PortId, frame: Frame, ctx: &mut DevCtx<'_>) {
                let when = ctx.now();
                ctx.transmit_at(when, PortId(7), frame);
            }
        }
        let mut net = Network::new(0);
        let s = net.add_device("scatter", CpuLocation::Host, Box::new(Scatter));
        net.inject_frame(SimDuration::ZERO, s, PortId::P0, test_frame());
        net.run(StopCondition::Idle);
        assert_eq!(net.dropped_no_link(), 1);
    }

    #[test]
    fn event_pool_recycles_slots() {
        // Drive far more events through the engine than are ever in flight
        // at once: the pool must stay small by recycling freed slots.
        let mut net = Network::new(0);
        let pipe = net.add_device(
            "pipe",
            CpuLocation::Host,
            Box::new(Pipe {
                delay: SimDuration::nanos(1),
            }),
        );
        let sink = net.add_device("sink", CpuLocation::Host, Box::new(Sink));
        net.connect(pipe, PortId::P1, sink, PortId::P0, LinkParams::default());
        for i in 0..1_000 {
            net.inject_frame(SimDuration::micros(i), pipe, PortId::P0, test_frame());
        }
        net.run(StopCondition::Idle);
        assert_eq!(net.events_processed(), 2_000);
        // At most the initial 1000 injected events were pending at once.
        assert!(
            net.pool.slots.len() <= 1_000,
            "pool grew to {}",
            net.pool.slots.len()
        );
        assert_eq!(
            net.pool.free.len(),
            net.pool.slots.len(),
            "all slots drained"
        );
    }

    #[test]
    fn determinism_same_seed_same_results() {
        // Per-device RNG streams: the draw sequence of each device depends
        // only on (seed, device id) and the device's own event order, so a
        // given seed reproduces results bit-for-bit — including with jitter
        // and loss enabled.
        let run = |seed| {
            let mut net = Network::new(seed);
            let pipe = net.add_device(
                "pipe",
                CpuLocation::Host,
                Box::new(Pipe {
                    delay: SimDuration::micros(2),
                }),
            );
            let sink = net.add_device("sink", CpuLocation::Host, Box::new(Sink));
            net.connect(
                pipe,
                PortId::P1,
                sink,
                PortId::P0,
                LinkParams::default().with_loss(0.2),
            );
            for i in 0..10 {
                net.inject_frame(SimDuration::micros(i), pipe, PortId::P0, test_frame());
            }
            net.run(StopCondition::Idle);
            (
                net.store().samples("sink.arrivals").to_vec(),
                net.store().counter("link.lost"),
            )
        };
        assert_eq!(run(42), run(42));
        // Loss draws actually happened (pipe's stream, loss 0.2 over 10).
        let (arrivals, lost) = run(42);
        assert_eq!(arrivals.len() as f64 + lost, 10.0);
    }

    #[test]
    fn device_rng_streams_are_independent() {
        // Adding an unrelated device (and its draws) must not perturb
        // another device's stream: streams are keyed by device id.
        use rand::Rng;
        let mut a = Network::new(7);
        let d0 = a.add_device("d0", CpuLocation::Host, Box::new(Sink));
        let mut b = Network::new(7);
        let e0 = b.add_device("d0", CpuLocation::Host, Box::new(Sink));
        let _extra = b.add_device("extra", CpuLocation::Host, Box::new(Sink));
        let x: u64 = {
            let mut ctx = DevCtx {
                net: &mut a,
                id: d0,
                loc: CpuLocation::Host,
            };
            ctx.rng().gen()
        };
        let y: u64 = {
            let mut ctx = DevCtx {
                net: &mut b,
                id: e0,
                loc: CpuLocation::Host,
            };
            ctx.rng().gen()
        };
        assert_eq!(x, y, "same (seed, device id) must yield the same stream");
    }
}
