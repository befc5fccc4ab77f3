//! A Netfilter-style FORWARD filter table with a compiled interval-index
//! matcher, and the one hook through which devices consult it.
//!
//! The NAT module models the PREROUTING/POSTROUTING translation chains;
//! this module adds the *filter* table — a FORWARD chain with
//! ACCEPT/DROP/REJECT verdicts and conntrack state-match — so the CNIs can
//! enforce NetworkPolicy-style isolation at whichever device actually
//! carries a pod's traffic (guest NAT, host bridge, hostlo queues). Each of
//! those devices owns a [`FilterHook`]: it judges a frame (evaluate, count,
//! journal) and builds the REJECT notice, so the verdict routine exists
//! once.
//!
//! Two design constraints shape the implementation:
//!
//! 1. *Determinism.* Rule mutations are time-windowed, like `FaultPlan`
//!    windows: every installed rule carries an `[active_from, active_until)`
//!    window and a verdict is a pure function of `(frame, conntrack state,
//!    sim time)`. Control-plane mutations between run windows schedule the
//!    window boundaries; nothing about a verdict depends on shard count or
//!    wall-clock interleaving. The activation instants feed the flow
//!    fast path's escalation check (see `changed_in`), mirroring how
//!    `FaultPlan::any_active` knocks modeled flows back to packet level.
//! 2. *Scale.* A chain walk must not be O(rules): rules are compiled into
//!    an elementary-interval index over destination ports (sorted boundary
//!    array, binary search) with per-interval candidate lists ordered by
//!    install sequence, so a 100k-rule table costs O(log n) + O(candidates)
//!    per packet. Wild port ranges (wider than [`WIDE_SPAN`]) go to a
//!    separate short list merged in priority order.
//!
//! The compiled index is kept up to date lazily, on the first eval after a
//! mutation. A removal only closes a rule's window, which lookups already
//! check, so it leaves the index alone. An install appends the highest
//! rule index so far, and the eval patches it in; a purge (which shifts
//! indices), a first eval, or a pending batch too large to patch rebuilds
//! from scratch. Patched or rebuilt, the index is a pure function of the
//! rule list, so any shard may trigger it with an identical result.
//! Tables that never had a rule installed stay on a single
//! relaxed-atomic fast path and cost one branch per frame.

use crate::addr::{Ip4, Ip4Net, MacAddr, SockAddr};
use crate::engine::DevCtx;
use crate::frame::{Frame, Payload};
use crate::hash::FxHashMap;
use crate::nat::Proto;
use crate::time::{SimDuration, SimTime};
use metrics::{JournalKind, MetricId};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What happens to a matched frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Let the frame through.
    Accept,
    /// Silently discard.
    Drop,
    /// Discard and notify the sender (port-unreachable analogue).
    Reject,
}

impl Verdict {
    /// Journal operand code (`c` of a `FilterDrop` record).
    pub fn code(self) -> u64 {
        match self {
            Verdict::Accept => 2,
            Verdict::Drop => 0,
            Verdict::Reject => 1,
        }
    }
}

/// Conntrack state of the frame being filtered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// First packet of a flow the tracker has not seen.
    New,
    /// Packet of a tracked flow (either direction).
    Established,
    /// New flow between endpoints that already have a tracked flow on
    /// other ports (FTP-data / ICMP-error analogue).
    Related,
}

/// Set of [`ConnState`]s a rule matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateMask(u8);

impl StateMask {
    /// Matches only NEW.
    pub const NEW: StateMask = StateMask(1);
    /// Matches only ESTABLISHED.
    pub const ESTABLISHED: StateMask = StateMask(1 << 1);
    /// Matches only RELATED.
    pub const RELATED: StateMask = StateMask(1 << 2);
    /// Matches every state (a stateless rule).
    pub const ANY: StateMask = StateMask(0b111);

    /// Union of two masks.
    pub fn or(self, other: StateMask) -> StateMask {
        StateMask(self.0 | other.0)
    }

    /// True when `state` is in the mask.
    pub fn matches(self, state: ConnState) -> bool {
        let bit = match state {
            ConnState::New => 1,
            ConnState::Established => 1 << 1,
            ConnState::Related => 1 << 2,
        };
        self.0 & bit != 0
    }
}

/// One filter rule. First match wins, in install order; an empty table
/// (or no matching rule) ACCEPTs, like an iptables chain with policy
/// ACCEPT — default-deny is expressed as a trailing catch-all DROP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterRule {
    /// Protocol to match; `None` matches both.
    pub proto: Option<Proto>,
    /// Source subnet to match; `None` matches any.
    pub src: Option<Ip4Net>,
    /// Destination subnet to match; `None` matches any.
    pub dst: Option<Ip4Net>,
    /// Inclusive destination-port range; `(0, u16::MAX)` matches any.
    pub dst_ports: (u16, u16),
    /// Conntrack states the rule applies to.
    pub states: StateMask,
    /// Verdict on match.
    pub verdict: Verdict,
}

impl FilterRule {
    /// A catch-all rule with the given verdict (any proto, any address,
    /// any port, any state).
    pub fn any(verdict: Verdict) -> FilterRule {
        FilterRule {
            proto: None,
            src: None,
            dst: None,
            dst_ports: (0, u16::MAX),
            states: StateMask::ANY,
            verdict,
        }
    }

    /// Restricts the rule to one protocol.
    pub fn proto(mut self, p: Proto) -> FilterRule {
        self.proto = Some(p);
        self
    }

    /// Restricts the source subnet.
    pub fn from_net(mut self, net: Ip4Net) -> FilterRule {
        self.src = Some(net);
        self
    }

    /// Restricts the destination subnet.
    pub fn to_net(mut self, net: Ip4Net) -> FilterRule {
        self.dst = Some(net);
        self
    }

    /// Restricts the destination to a single address.
    pub fn to_ip(self, ip: Ip4) -> FilterRule {
        self.to_net(Ip4Net::new(ip, 32))
    }

    /// Restricts the destination port range (inclusive).
    pub fn ports(mut self, lo: u16, hi: u16) -> FilterRule {
        assert!(lo <= hi, "port range must be ordered");
        self.dst_ports = (lo, hi);
        self
    }

    /// Restricts the destination to one port.
    pub fn port(self, p: u16) -> FilterRule {
        self.ports(p, p)
    }

    /// Restricts the conntrack states.
    pub fn states(mut self, mask: StateMask) -> FilterRule {
        self.states = mask;
        self
    }

    fn matches(&self, proto: Proto, src: SockAddr, dst: SockAddr, state: ConnState) -> bool {
        self.proto.is_none_or(|p| p == proto)
            && self.dst_ports.0 <= dst.port
            && dst.port <= self.dst_ports.1
            && self.src.is_none_or(|n| n.contains(src.ip))
            && self.dst.is_none_or(|n| n.contains(dst.ip))
            && self.states.matches(state)
    }
}

/// Rule id returned on a default (no-match) ACCEPT verdict.
pub const NO_RULE: u64 = u64::MAX;

/// Port ranges wider than this skip the interval index and go to the
/// wide list (catch-alls; merged at match time in id order).
const WIDE_SPAN: u32 = 1024;

/// Largest batch of installs an eval patches into the compiled index; a
/// larger one is rebuilt. A patch that splits a bucket moves every bucket
/// after it, so both a patched install and a rebuild cost time in
/// proportion to the bucket count, and the break-even is a batch size,
/// not a share of the table.
const PATCH_MAX: usize = 64;

#[derive(Debug, Clone)]
struct Installed {
    rule: FilterRule,
    id: u64,
    from: SimTime,
    until: SimTime,
}

impl Installed {
    /// True when the rule's activity window contains `now`.
    fn live_at(&self, now: SimTime) -> bool {
        self.from <= now && now < self.until
    }
}

/// Compiled form of the table: elementary destination-port intervals with
/// per-interval candidate lists (indices into the installed-rule vec,
/// ascending = priority order) plus the wide-range list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CompiledChain {
    /// Sorted distinct interval starts, excluding the implicit 0.
    bounds: Vec<u16>,
    /// Candidate lists; index `i` covers ports in
    /// `[bounds[i-1], bounds[i])` (`bounds.len()` lists + 1).
    buckets: Vec<Vec<u32>>,
    /// Rules whose port range is wider than [`WIDE_SPAN`].
    wide: Vec<u32>,
}

impl CompiledChain {
    fn build(rules: &[Installed]) -> CompiledChain {
        let mut starts: BTreeSet<u16> = BTreeSet::new();
        let (narrow, wide): (Vec<u32>, Vec<u32>) = (0..rules.len() as u32).partition(|&i| {
            let (lo, hi) = rules[i as usize].rule.dst_ports;
            u32::from(hi) - u32::from(lo) <= WIDE_SPAN
        });
        for &i in &narrow {
            let (lo, hi) = rules[i as usize].rule.dst_ports;
            if lo > 0 {
                starts.insert(lo);
            }
            if hi < u16::MAX {
                starts.insert(hi + 1);
            }
        }
        let bounds: Vec<u16> = starts.into_iter().collect();
        let mut buckets = vec![Vec::new(); bounds.len() + 1];
        for &i in &narrow {
            let (lo, hi) = rules[i as usize].rule.dst_ports;
            // Bucket k covers [prev_bound, bounds[k]); rules span the
            // contiguous run of buckets whose interval intersects [lo, hi].
            let first = bounds.partition_point(|&b| b <= lo);
            let last = bounds.partition_point(|&b| b <= hi);
            for bucket in &mut buckets[first..=last] {
                bucket.push(i);
            }
        }
        CompiledChain {
            bounds,
            buckets,
            wide,
        }
    }

    /// Adds rule `i`, which must be the highest index compiled so far:
    /// the result equals a fresh [`build`](CompiledChain::build) over
    /// the rules up to `i`. Appending keeps every list in priority order.
    fn push(&mut self, i: u32, (lo, hi): (u16, u16)) {
        if u32::from(hi) - u32::from(lo) > WIDE_SPAN {
            self.wide.push(i);
            return;
        }
        if lo > 0 {
            self.split(lo);
        }
        if hi < u16::MAX {
            self.split(hi + 1);
        }
        let first = self.bounds.partition_point(|&b| b <= lo);
        let last = self.bounds.partition_point(|&b| b <= hi);
        for bucket in &mut self.buckets[first..=last] {
            bucket.push(i);
        }
    }

    /// Makes `at` a bound. The bucket it falls in becomes two with the
    /// same candidates: no compiled rule starts or ends at `at`, so each
    /// covers both halves or neither.
    fn split(&mut self, at: u16) {
        let pos = self.bounds.partition_point(|&b| b < at);
        if self.bounds.get(pos) != Some(&at) {
            self.bounds.insert(pos, at);
            let half = self.buckets[pos].clone();
            self.buckets.insert(pos + 1, half);
        }
    }

    /// First matching rule (lowest install id), merging the port bucket
    /// with the wide list in id order.
    fn lookup(
        &self,
        rules: &[Installed],
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
        state: ConnState,
        now: SimTime,
    ) -> (Verdict, u64) {
        let idx = self.bounds.partition_point(|&b| b <= dst.port);
        let bucket = &self.buckets[idx];
        let (mut a, mut b) = (0usize, 0usize);
        loop {
            let next = match (bucket.get(a), self.wide.get(b)) {
                (Some(&x), Some(&y)) => {
                    if x <= y {
                        a += 1;
                        x
                    } else {
                        b += 1;
                        y
                    }
                }
                (Some(&x), None) => {
                    a += 1;
                    x
                }
                (None, Some(&y)) => {
                    b += 1;
                    y
                }
                (None, None) => return (Verdict::Accept, NO_RULE),
            };
            let r = &rules[next as usize];
            if r.live_at(now) && r.rule.matches(proto, src, dst, state) {
                return (r.rule.verdict, r.id);
            }
        }
    }
}

#[derive(Debug, Default)]
struct FilterState {
    /// Installed rules in ascending id order: installs push, purges keep
    /// the order.
    rules: Vec<Installed>,
    next_id: u64,
    /// Bumped on every mutation, for the flow fast path's epoch sums.
    epoch: u64,
    /// Activation/deactivation instants of every mutation, for the flow
    /// fast path's overlap check (`u64::MAX` sentinels are not recorded).
    changes: BTreeSet<u64>,
    /// The index over `rules[..n]`, tagged with `n`. Installs since then
    /// are patched in by the next eval; `None` (no eval yet, or a purge
    /// shifted the indices) rebuilds.
    compiled: Option<(usize, CompiledChain)>,
}

impl FilterState {
    fn note_change(&mut self, at: SimTime) {
        self.epoch += 1;
        if at.0 != u64::MAX {
            self.changes.insert(at.0);
        }
    }

    /// Brings the compiled index up to date with `rules`: patches in a
    /// small batch of installs, rebuilds otherwise.
    fn compile(&mut self) {
        let n = self.rules.len();
        match &mut self.compiled {
            Some((done, _)) if *done == n => {}
            Some((done, index)) if n - *done <= PATCH_MAX => {
                for (i, r) in self.rules.iter().enumerate().skip(*done) {
                    index.push(i as u32, r.rule.dst_ports);
                }
                *done = n;
            }
            _ => self.compiled = Some((n, CompiledChain::build(&self.rules))),
        }
    }
}

/// A cloneable handle to one device's filter table — the `iptables -t
/// filter` administration surface. Created by the devices that host a
/// table (NAT router, bridge, hostlo TAP) and handed to CNIs.
#[derive(Debug, Clone, Default)]
pub struct FilterControl {
    state: Arc<parking_lot::Mutex<FilterState>>,
    /// One relaxed load per frame keeps never-configured tables free.
    engaged: Arc<AtomicBool>,
}

impl FilterControl {
    /// Installs `rule`, active from `from` until removed. Returns the rule
    /// id (install order = match priority; lower wins).
    pub fn install_at(&self, rule: FilterRule, from: SimTime) -> u64 {
        let mut s = self.state.lock();
        let id = s.next_id;
        s.next_id += 1;
        s.rules.push(Installed {
            rule,
            id,
            from,
            until: SimTime(u64::MAX),
        });
        s.note_change(from);
        self.engaged.store(true, Ordering::Release);
        id
    }

    /// Installs `rule` active immediately (setup-time convenience).
    pub fn install(&self, rule: FilterRule) -> u64 {
        self.install_at(rule, SimTime::ZERO)
    }

    /// Schedules rule `id` to deactivate at `until` (`iptables -D`
    /// analogue; pass the current sim time for an immediate removal).
    /// Returns false when no such rule exists. Lookups check every
    /// candidate's window, so the compiled index stays valid.
    pub fn remove_at(&self, id: u64, until: SimTime) -> bool {
        let mut s = self.state.lock();
        let Ok(pos) = s.rules.binary_search_by_key(&id, |r| r.id) else {
            return false;
        };
        s.rules[pos].until = until;
        s.note_change(until);
        true
    }

    /// Number of rules ever installed (including deactivated ones).
    pub fn len(&self) -> usize {
        self.state.lock().rules.len()
    }

    /// True when no rule was ever installed.
    pub fn is_empty(&self) -> bool {
        !self.engaged.load(Ordering::Acquire)
    }

    /// The table's mutation epoch: bumped by every install, removal, and
    /// purge. Zero for a never-configured table. The flow fast path sums
    /// the epochs of the controls on a learned path and escalates when
    /// the sum moves (a between-runs rule mutation that `changed_in`'s
    /// scheduled-instant check would miss, e.g. installing a rule whose
    /// window opened in the past).
    pub fn epoch(&self) -> u64 {
        if !self.engaged.load(Ordering::Acquire) {
            return 0;
        }
        self.state.lock().epoch
    }

    /// Number of rules whose activity window contains `now`.
    pub fn live_len(&self, now: SimTime) -> usize {
        self.state
            .lock()
            .rules
            .iter()
            .filter(|r| r.from <= now && now < r.until)
            .count()
    }

    /// Drops deactivated rules whose window ended at or before `now`
    /// (bounded memory across policy churn). Returns how many were purged.
    pub fn purge_expired(&self, now: SimTime) -> usize {
        let mut s = self.state.lock();
        let before = s.rules.len();
        s.rules.retain(|r| r.until > now);
        let purged = before - s.rules.len();
        if purged > 0 {
            s.epoch += 1;
            s.compiled = None;
        }
        purged
    }

    /// True when any rule activation/deactivation instant falls in
    /// `(after, upto]` — the flow fast path's "did policy change since I
    /// learned this path" check, mirroring `FaultPlan::any_active`.
    pub fn changed_in(&self, after: SimTime, upto: SimTime) -> bool {
        if after >= upto || !self.engaged.load(Ordering::Acquire) {
            return false;
        }
        use std::ops::Bound::{Excluded, Included};
        self.state
            .lock()
            .changes
            .range((Excluded(after.0), Included(upto.0)))
            .next()
            .is_some()
    }

    /// Evaluates the table for a frame. Never-configured tables return
    /// ACCEPT after one atomic load; configured tables take the lock,
    /// patch or rebuild the interval index if installs or a purge left it
    /// behind, and walk it.
    pub fn eval(
        &self,
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
        state: ConnState,
        now: SimTime,
    ) -> (Verdict, u64) {
        if !self.engaged.load(Ordering::Acquire) {
            return (Verdict::Accept, NO_RULE);
        }
        let mut s = self.state.lock();
        s.compile();
        let (_, index) = s.compiled.as_ref().expect("compiled above");
        index.lookup(&s.rules, proto, src, dst, state, now)
    }
}

/// Lifetime of a [`StateTracker`] entry (matches the NAT conntrack
/// default).
const TRACK_TIMEOUT: SimDuration = SimDuration::secs(120);

/// Frames between expiry sweeps of a [`StateTracker`].
const TRACK_GC_EVERY: u32 = 256;

/// A device-local conntrack table for filter attach points that have no
/// NAT conntrack to consult (bridges, hostlo queues). Lives inside the
/// device's hook, so it moves to the device's shard and state resolution
/// stays bit-deterministic.
#[derive(Debug, Default)]
struct StateTracker {
    conns: FxHashMap<(Proto, SockAddr, SockAddr), SimTime>,
    /// Unordered ip-pair index for RELATED lookups (canonical low/high).
    pairs: FxHashMap<(Proto, Ip4, Ip4), SimTime>,
    lookups: u32,
}

impl StateTracker {
    fn pair_key(proto: Proto, a: Ip4, b: Ip4) -> (Proto, Ip4, Ip4) {
        if a.0 <= b.0 {
            (proto, a, b)
        } else {
            (proto, b, a)
        }
    }

    /// Resolves the conntrack state of a frame *without* recording it.
    fn state_of(&mut self, proto: Proto, src: SockAddr, dst: SockAddr, now: SimTime) -> ConnState {
        self.lookups += 1;
        if self.lookups >= TRACK_GC_EVERY {
            self.lookups = 0;
            self.conns.retain(|_, t| now.since(*t) <= TRACK_TIMEOUT);
            self.pairs.retain(|_, t| now.since(*t) <= TRACK_TIMEOUT);
        }
        let live = |t: &SimTime| now.since(*t) <= TRACK_TIMEOUT;
        if self.conns.get(&(proto, src, dst)).is_some_and(live) {
            return ConnState::Established;
        }
        if self
            .pairs
            .get(&Self::pair_key(proto, src.ip, dst.ip))
            .is_some_and(live)
        {
            return ConnState::Related;
        }
        ConnState::New
    }

    /// Records an accepted frame: both directions become ESTABLISHED and
    /// the address pair feeds future RELATED matches.
    fn note(&mut self, proto: Proto, src: SockAddr, dst: SockAddr, now: SimTime) {
        self.conns.insert((proto, src, dst), now);
        self.conns.insert((proto, dst, src), now);
        self.pairs
            .insert(Self::pair_key(proto, src.ip, dst.ip), now);
    }

    /// Number of tracked flow directions still alive at `now`.
    #[cfg(test)]
    fn live_len(&self, now: SimTime) -> usize {
        self.conns
            .values()
            .filter(|t| now.since(**t) <= TRACK_TIMEOUT)
            .count()
    }
}

/// Payload tag carried by the notification frame a REJECT verdict sends
/// back to the sender (the port-unreachable analogue); lets endpoints and
/// tests tell an active refusal from silence.
pub const REJECT_TAG: u64 = 0x7265_6a65_6374; // "reject"

/// Interned verdict counters (`filter.forward.accept` / `.drop` /
/// `.reject`).
#[derive(Debug, Clone, Copy)]
struct HookIds {
    accept: MetricId,
    drop: MetricId,
    reject: MetricId,
}

/// One device's filter attach point: its FORWARD table, the verdict
/// counters (interned on the first frame that reaches an *engaged* table,
/// so policy-free runs never intern filter metrics), and a device-local
/// state tracker for devices with no NAT conntrack to consult.
///
/// The hook judges; the device acts on the verdict: it stops a DROP or
/// REJECT frame, and sends the REJECT [`notice`](FilterHook::notice) when
/// and from where its own model says (the bridge at its stage completion,
/// the hostlo TAP after serving its station, the NAT router from its
/// ingress interface's address).
#[derive(Debug, Default)]
pub struct FilterHook {
    control: FilterControl,
    ids: Option<HookIds>,
    tracker: StateTracker,
}

impl FilterHook {
    /// The table's administration handle (clone it out before boxing the
    /// device into a network).
    pub fn control(&self) -> FilterControl {
        self.control.clone()
    }

    /// Judges a frame from `src` to `dst` in conntrack `state`: evaluates
    /// the table, bumps the verdict's counter and journals a DROP or REJECT
    /// as `FilterDrop` (device, rule id, verdict code). A never-configured
    /// table returns ACCEPT after one atomic load, counting nothing.
    pub(crate) fn judge(
        &mut self,
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
        state: ConnState,
        ctx: &mut DevCtx<'_>,
    ) -> Verdict {
        if self.control.is_empty() {
            return Verdict::Accept;
        }
        let ids = *self.ids.get_or_insert_with(|| HookIds {
            accept: ctx.metric("filter.forward.accept"),
            drop: ctx.metric("filter.forward.drop"),
            reject: ctx.metric("filter.forward.reject"),
        });
        let (verdict, rule_id) = self.control.eval(proto, src, dst, state, ctx.now());
        let counter = match verdict {
            Verdict::Accept => ids.accept,
            Verdict::Drop => ids.drop,
            Verdict::Reject => ids.reject,
        };
        ctx.count_id(counter, 1.0);
        if verdict != Verdict::Accept {
            let dev = ctx.self_id().0 as u64;
            ctx.journal(JournalKind::FilterDrop, dev, rule_id, verdict.code());
        }
        verdict
    }

    /// [`judge`](FilterHook::judge) for a device with no conntrack of its
    /// own (a bridge, a hostlo TAP): the hook's tracker resolves the
    /// frame's state and records every accepted flow, so replies match
    /// ESTABLISHED. Port-less frames (VXLAN) are not filtered.
    pub fn judge_frame(&mut self, frame: &Frame, ctx: &mut DevCtx<'_>) -> Verdict {
        if self.control.is_empty() {
            return Verdict::Accept;
        }
        let (Some(proto), Some(src), Some(dst)) = (
            Proto::of(&frame.ip.transport),
            frame.ip.src_sock(),
            frame.ip.dst_sock(),
        ) else {
            return Verdict::Accept;
        };
        let now = ctx.now();
        let state = self.tracker.state_of(proto, src, dst, now);
        let verdict = self.judge(proto, src, dst, state, ctx);
        if verdict == Verdict::Accept {
            self.tracker.note(proto, src, dst, now);
        }
        verdict
    }

    /// The REJECT notification (the port-unreachable analogue) answering
    /// `refused`: an 8-byte UDP datagram tagged [`REJECT_TAG`], sent from
    /// `from_mac` and `from_ip` at the refused destination port back to
    /// the refused frame's sender.
    pub fn notice(refused: &Frame, from_mac: MacAddr, from_ip: Ip4) -> Frame {
        let (Some(to), Some(port)) = (refused.ip.src_sock(), refused.ip.transport.dst_port())
        else {
            panic!("only transport frames are refused");
        };
        let mut p = Payload::sized(8);
        p.tag = REJECT_TAG;
        Frame::udp(
            from_mac,
            refused.src_mac,
            SockAddr::new(from_ip, port),
            to,
            p,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANY_STATE: ConnState = ConnState::New;

    fn sock(a: u32, port: u16) -> SockAddr {
        SockAddr::new(Ip4(a), port)
    }

    /// Reference matcher: linear first-match walk over the rule list.
    fn linear_eval(
        ctl: &FilterControl,
        proto: Proto,
        src: SockAddr,
        dst: SockAddr,
        state: ConnState,
        now: SimTime,
    ) -> (Verdict, u64) {
        let s = ctl.state.lock();
        for r in &s.rules {
            if r.live_at(now) && r.rule.matches(proto, src, dst, state) {
                return (r.rule.verdict, r.id);
            }
        }
        (Verdict::Accept, NO_RULE)
    }

    #[test]
    fn empty_table_accepts_cheaply() {
        let ctl = FilterControl::default();
        assert!(ctl.is_empty());
        let (v, id) = ctl.eval(Proto::Udp, sock(1, 1), sock(2, 2), ANY_STATE, SimTime::ZERO);
        assert_eq!((v, id), (Verdict::Accept, NO_RULE));
    }

    #[test]
    fn first_match_wins_in_install_order() {
        let ctl = FilterControl::default();
        let allow = ctl.install(FilterRule::any(Verdict::Accept).port(80));
        let deny = ctl.install(FilterRule::any(Verdict::Drop));
        let (v, id) = ctl.eval(
            Proto::Tcp,
            sock(1, 999),
            sock(2, 80),
            ANY_STATE,
            SimTime::ZERO,
        );
        assert_eq!((v, id), (Verdict::Accept, allow));
        let (v, id) = ctl.eval(
            Proto::Tcp,
            sock(1, 999),
            sock(2, 81),
            ANY_STATE,
            SimTime::ZERO,
        );
        assert_eq!((v, id), (Verdict::Drop, deny));
    }

    #[test]
    fn windows_gate_activity() {
        let ctl = FilterControl::default();
        let id = ctl.install_at(FilterRule::any(Verdict::Drop), SimTime(1_000));
        let at = |t: u64| {
            ctl.eval(Proto::Udp, sock(1, 1), sock(2, 2), ANY_STATE, SimTime(t))
                .0
        };
        assert_eq!(at(999), Verdict::Accept, "not yet active");
        assert_eq!(at(1_000), Verdict::Drop, "active from the boundary");
        assert!(ctl.remove_at(id, SimTime(5_000)));
        assert_eq!(at(4_999), Verdict::Drop, "still active");
        assert_eq!(at(5_000), Verdict::Accept, "deactivated at the boundary");
        assert_eq!(ctl.live_len(SimTime(2_000)), 1);
        assert_eq!(ctl.live_len(SimTime(6_000)), 0);
    }

    #[test]
    fn change_instants_feed_the_flow_overlap_check() {
        let ctl = FilterControl::default();
        assert!(!ctl.changed_in(SimTime::ZERO, SimTime(u64::MAX - 1)));
        let id = ctl.install_at(FilterRule::any(Verdict::Drop), SimTime(2_000));
        assert!(
            ctl.changed_in(SimTime(1_000), SimTime(2_000)),
            "inclusive upper"
        );
        assert!(
            !ctl.changed_in(SimTime(2_000), SimTime(3_000)),
            "exclusive lower"
        );
        ctl.remove_at(id, SimTime(9_000));
        assert!(ctl.changed_in(SimTime(8_000), SimTime(9_500)));
    }

    #[test]
    fn state_mask_selects_verdict() {
        let ctl = FilterControl::default();
        ctl.install(FilterRule::any(Verdict::Accept).states(StateMask::ESTABLISHED));
        ctl.install(FilterRule::any(Verdict::Drop));
        let v = |state| {
            ctl.eval(Proto::Udp, sock(1, 1), sock(2, 2), state, SimTime::ZERO)
                .0
        };
        assert_eq!(v(ConnState::Established), Verdict::Accept);
        assert_eq!(v(ConnState::New), Verdict::Drop);
        assert_eq!(v(ConnState::Related), Verdict::Drop);
    }

    #[test]
    fn reject_verdict_and_nets_match() {
        let ctl = FilterControl::default();
        let net = Ip4Net::new(Ip4::new(10, 0, 0, 0), 24);
        ctl.install(
            FilterRule::any(Verdict::Reject)
                .proto(Proto::Tcp)
                .from_net(net)
                .port(22),
        );
        let hit = ctl.eval(
            Proto::Tcp,
            SockAddr::new(Ip4::new(10, 0, 0, 9), 1234),
            sock(7, 22),
            ANY_STATE,
            SimTime::ZERO,
        );
        assert_eq!(hit.0, Verdict::Reject);
        let miss_proto = ctl.eval(
            Proto::Udp,
            SockAddr::new(Ip4::new(10, 0, 0, 9), 1234),
            sock(7, 22),
            ANY_STATE,
            SimTime::ZERO,
        );
        assert_eq!(miss_proto.0, Verdict::Accept);
        let miss_net = ctl.eval(
            Proto::Tcp,
            SockAddr::new(Ip4::new(10, 0, 1, 9), 1234),
            sock(7, 22),
            ANY_STATE,
            SimTime::ZERO,
        );
        assert_eq!(miss_net.0, Verdict::Accept);
    }

    /// A xorshift stream for the rule soups.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// A pseudo-random rule: mostly narrow port ranges, some wide ones,
    /// optional proto and destination net.
    fn soup_rule(step: &mut impl FnMut() -> u64) -> FilterRule {
        let lo = (step() % 60_000) as u16;
        let span = if step().is_multiple_of(5) {
            (step() % 5_000) as u16 // some wide ranges
        } else {
            (step() % 40) as u16
        };
        let hi = lo.saturating_add(span);
        let verdict = match step() % 3 {
            0 => Verdict::Accept,
            1 => Verdict::Drop,
            _ => Verdict::Reject,
        };
        let mut rule = FilterRule::any(verdict).ports(lo, hi);
        if step().is_multiple_of(2) {
            rule = rule.proto(if step().is_multiple_of(2) {
                Proto::Udp
            } else {
                Proto::Tcp
            });
        }
        if step().is_multiple_of(3) {
            rule = rule.to_net(Ip4Net::new(Ip4((step() as u32) & 0xFFFF_FF00), 24));
        }
        rule
    }

    /// Asserts the compiled matcher equals the linear walk for `queries`
    /// pseudo-random frames at times below `horizon`.
    fn agrees_with_linear(
        ctl: &FilterControl,
        step: &mut impl FnMut() -> u64,
        queries: usize,
        horizon: u64,
    ) {
        for _ in 0..queries {
            let proto = if step().is_multiple_of(2) {
                Proto::Udp
            } else {
                Proto::Tcp
            };
            let src = SockAddr::new(Ip4(step() as u32), (step() % 65_536) as u16);
            let dst = SockAddr::new(Ip4(step() as u32), (step() % 65_536) as u16);
            let state = match step() % 3 {
                0 => ConnState::New,
                1 => ConnState::Established,
                _ => ConnState::Related,
            };
            let now = SimTime(step() % horizon);
            assert_eq!(
                ctl.eval(proto, src, dst, state, now),
                linear_eval(ctl, proto, src, dst, state, now),
                "compiled matcher diverged from the linear reference"
            );
        }
    }

    #[test]
    fn interval_index_agrees_with_linear_walk() {
        // Deterministic pseudo-random rule soup, including wide ranges
        // and windows, cross-checked against the reference matcher.
        let ctl = FilterControl::default();
        let mut step = xorshift(0x9E37_79B9_7F4A_7C15);
        for _ in 0..500 {
            let rule = soup_rule(&mut step);
            let from = SimTime(step() % 1_000);
            let id = ctl.install_at(rule, from);
            if step().is_multiple_of(4) {
                ctl.remove_at(id, SimTime(1_000 + step() % 1_000));
            }
        }
        agrees_with_linear(&ctl, &mut step, 2_000, 2_500);
    }

    #[test]
    fn interval_index_stays_exact_under_mutation() {
        // Installs, removals and purges interleaved with evals, so the
        // index is patched, left alone and rebuilt in turn. After every
        // mutation the matcher must equal the linear walk, and the
        // compiled index a fresh build over the current rules.
        fn install(ctl: &FilterControl, step: &mut impl FnMut() -> u64, ids: &mut Vec<u64>) {
            let rule = soup_rule(step);
            ids.push(ctl.install_at(rule, SimTime(step() % 2_000)));
        }
        let ctl = FilterControl::default();
        let mut step = xorshift(0xD1B5_4A32_D192_ED03);
        let mut ids = Vec::new();
        for _ in 0..200 {
            install(&ctl, &mut step, &mut ids);
        }
        for round in 0..300 {
            match step() % 10 {
                0..=4 => {
                    for _ in 0..1 + step() % 3 {
                        install(&ctl, &mut step, &mut ids);
                    }
                }
                5..=7 => {
                    let id = ids[(step() % ids.len() as u64) as usize];
                    ctl.remove_at(id, SimTime(step() % 3_000));
                }
                8 => {
                    ctl.purge_expired(SimTime(step() % 3_000));
                }
                _ => {}
            }
            if round == 150 {
                // One batch too large to patch: the next eval rebuilds.
                for _ in 0..PATCH_MAX + 50 {
                    install(&ctl, &mut step, &mut ids);
                }
            }
            agrees_with_linear(&ctl, &mut step, 20, 3_000);
            let s = ctl.state.lock();
            let (n, index) = s.compiled.as_ref().expect("evaluated above");
            assert_eq!(*n, s.rules.len());
            assert_eq!(*index, CompiledChain::build(&s.rules));
        }
    }

    #[test]
    fn remove_after_purge_hits_the_right_rule() {
        let ctl = FilterControl::default();
        let ids: Vec<u64> = (0..10)
            .map(|p| ctl.install(FilterRule::any(Verdict::Drop).port(p)))
            .collect();
        for &id in ids.iter().step_by(2) {
            assert!(ctl.remove_at(id, SimTime(10)));
        }
        assert_eq!(ctl.purge_expired(SimTime(10)), 5);
        // Survivors sit at shifted positions; the lookup is by id.
        assert!(ctl.remove_at(ids[7], SimTime(20)));
        let at = |port: u16| {
            ctl.eval(
                Proto::Udp,
                sock(1, 1),
                sock(2, port),
                ANY_STATE,
                SimTime(30),
            )
        };
        assert_eq!(at(7), (Verdict::Accept, NO_RULE));
        assert_eq!(at(5), (Verdict::Drop, ids[5]));
        assert_eq!(at(9), (Verdict::Drop, ids[9]));
        // A purged id and one never issued are both unknown.
        assert!(!ctl.remove_at(ids[4], SimTime(40)));
        assert!(!ctl.remove_at(1_000, SimTime(40)));
    }

    #[test]
    fn purge_drops_only_dead_rules() {
        let ctl = FilterControl::default();
        let a = ctl.install(FilterRule::any(Verdict::Drop));
        let b = ctl.install(FilterRule::any(Verdict::Drop));
        ctl.remove_at(a, SimTime(100));
        assert_eq!(ctl.purge_expired(SimTime(100)), 1);
        assert_eq!(ctl.len(), 1);
        let _ = b;
        // The survivor still matches.
        let (v, _) = ctl.eval(Proto::Udp, sock(1, 1), sock(2, 2), ANY_STATE, SimTime(200));
        assert_eq!(v, Verdict::Drop);
    }

    #[test]
    fn state_tracker_resolves_new_established_related() {
        let mut t = StateTracker::default();
        let a = sock(1, 100);
        let b = sock(2, 200);
        let now = SimTime::ZERO;
        assert_eq!(t.state_of(Proto::Udp, a, b, now), ConnState::New);
        t.note(Proto::Udp, a, b, now);
        assert_eq!(t.state_of(Proto::Udp, a, b, now), ConnState::Established);
        assert_eq!(
            t.state_of(Proto::Udp, b, a, now),
            ConnState::Established,
            "reply direction is established"
        );
        // Same hosts, different ports: related.
        assert_eq!(
            t.state_of(Proto::Udp, sock(1, 777), sock(2, 888), now),
            ConnState::Related
        );
        // Different proto: unrelated.
        assert_eq!(t.state_of(Proto::Tcp, a, b, now), ConnState::New);
        // Expired entries stop matching.
        let later = now + TRACK_TIMEOUT + SimDuration::secs(1);
        assert_eq!(t.state_of(Proto::Udp, a, b, later), ConnState::New);
        assert_eq!(t.live_len(later), 0);
    }
}
