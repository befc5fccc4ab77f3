//! Policy-churn harness: does the compiled interval-index matcher keep
//! per-packet cost flat as filter tables grow from 1k to 100k rules, and
//! does it stay semantically identical to a naive first-match walk?
//!
//! Four sections are recorded in the JSON; `tools/perfgate.rs`
//! (`check_policy_churn`) judges every one of them:
//!
//! * **matcher** — a standalone [`FilterControl`] is loaded with a
//!   seed-deterministic rule set and evaluated against a fixed query
//!   stream. Raw eval latency at both scales is informational (it is
//!   machine-dependent); the judged output is the FNV verdict digest of
//!   the compiled matcher's `(verdict, rule_id)` stream, next to whether
//!   an independent naive linear walk over the same rule specs produced
//!   the same digests. The digests are machine-independent, so the
//!   committed baseline freezes matcher *semantics* across runners.
//! * **packet overhead** — the acceptance claim. A hub bridge carrying
//!   steady bouncer traffic is loaded with 1k then 100k non-matching
//!   rules (every rule is source-net constrained away from the traffic,
//!   so each frame walks its port bucket and falls through). Reps are
//!   paired and `overhead_ratio` is the median per-rep ratio of
//!   wall-clock per delivered frame.
//! * **churn** — install/remove latency under load, plus the index
//!   update the first post-mutation eval pays at 100k rules (a patch:
//!   each slice installs a batch small enough to patch in), plus the
//!   rules `purge_expired` reclaims at the end of the horizon.
//! * **sharded** — whether an 8-island topology with engaged (and
//!   mid-run window-activating) tables merges bit-identically at 1/2/8
//!   shards.
//!
//! The binary itself asserts only what its JSON does not carry: dense
//! rule ids on a fresh control, churned rules that still exist when
//! removed, and per rep that both hub tables deliver the same frames,
//! that no hub rule matches the traffic, and that the hub's hook ran.
//!
//! ```text
//! cargo run --release -p nestless-bench --bin policy_churn [reps]
//! ```

use metrics::{CpuCategory, CpuLocation};
use nestless_bench::harness::{
    frames_delivered, host_cores, median, outcome_digest, write_artifact,
};
use simnet::bridge::Bridge;
use simnet::costs::StageCost;
use simnet::device::PortId;
use simnet::engine::{LinkParams, Network};
use simnet::filter::{ConnState, FilterControl, FilterRule, StateMask, Verdict, NO_RULE};
use simnet::nat::Proto;
use simnet::shared::SharedStation;
use simnet::testutil::{frame_between, MacBouncer};
use simnet::time::{SimDuration, SimTime};
use simnet::{Ip4, Ip4Net, MacAddr, SimConfig, SockAddr, StopCondition};
use std::time::Instant;

const RULES_SMALL: usize = 1_000;
const RULES_LARGE: usize = 100_000;
const QUERIES: usize = 200_000;
/// Verdict-digest sample sizes (the naive walk is O(rules) per query, so
/// the large-scale check uses a smaller prefix of the same stream).
const CHECK_SMALL: usize = 50_000;
const CHECK_LARGE: usize = 2_000;

/// Bouncer pairs through the hub bridge hosting the table under test.
const PAIRS: usize = 4;
const PAYLOAD: u32 = 200;
const HORIZON: SimTime = SimTime(10_000_000);

const CHURN_SLICES: u64 = 8;
const CHURN_BATCH: usize = 32;

const ISLANDS: usize = 8;

const SEED: u64 = 0x9C11_F17E;

/// xorshift64 — keeps rule and query generation seed-deterministic (and
/// therefore the verdict digests machine-independent).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn src_nets() -> [Ip4Net; 4] {
    [
        Ip4Net::new(Ip4::new(172, 16, 0, 0), 16),
        Ip4Net::new(Ip4::new(192, 168, 0, 0), 16),
        Ip4Net::new(Ip4::new(100, 64, 0, 0), 16),
        Ip4Net::new(Ip4::new(203, 0, 113, 0), 24),
    ]
}

fn dst_nets() -> [Ip4Net; 2] {
    [
        Ip4Net::new(Ip4::new(10, 42, 0, 0), 24),
        Ip4Net::new(Ip4::new(10, 42, 1, 0), 24),
    ]
}

/// One rule in both representations: the spec is what the naive reference
/// walk matches against, [`RuleSpec::to_rule`] is what gets installed.
/// Every generated rule carries a source-net constraint, so none of them
/// can match the hub traffic (placeholder `10.0.0.x` sockets) — the
/// packet-overhead runs measure pure fall-through cost.
#[derive(Clone)]
struct RuleSpec {
    proto: Option<Proto>,
    src: Option<Ip4Net>,
    dst: Option<Ip4Net>,
    ports: (u16, u16),
    states: StateMask,
    verdict: Verdict,
    from: SimTime,
    until: SimTime,
}

impl RuleSpec {
    fn to_rule(&self) -> FilterRule {
        let mut r = FilterRule::any(self.verdict)
            .ports(self.ports.0, self.ports.1)
            .states(self.states);
        if let Some(p) = self.proto {
            r = r.proto(p);
        }
        if let Some(n) = self.src {
            r = r.from_net(n);
        }
        if let Some(n) = self.dst {
            r = r.to_net(n);
        }
        r
    }
}

fn gen_specs(n: usize, rng: &mut Rng) -> Vec<RuleSpec> {
    let mut specs = Vec::with_capacity(n + 2);
    for i in 0..n {
        let lo = rng.below(65_000) as u16;
        let span: u16 = if i % 97 == 0 { 8 } else { 0 };
        let verdict = match rng.below(10) {
            0..=4 => Verdict::Drop,
            5..=7 => Verdict::Reject,
            _ => Verdict::Accept,
        };
        let states = if rng.below(5) == 0 {
            StateMask::NEW
        } else {
            StateMask::ANY
        };
        let proto = match rng.below(4) {
            0 => None,
            1 => Some(Proto::Tcp),
            _ => Some(Proto::Udp),
        };
        let src = Some(src_nets()[rng.below(4) as usize]);
        let dst = if rng.below(4) == 0 {
            Some(dst_nets()[rng.below(2) as usize])
        } else {
            None
        };
        // A sprinkling of time-windowed rules keeps live_at() on the
        // matched path at every scale.
        let (from, until) = if i % 16 == 9 {
            let f = rng.below(HORIZON.0 / 2);
            let u = if rng.below(2) == 0 {
                f + HORIZON.0 / 4
            } else {
                u64::MAX
            };
            (SimTime(f), SimTime(u))
        } else {
            (SimTime::ZERO, SimTime(u64::MAX))
        };
        specs.push(RuleSpec {
            proto,
            src,
            dst,
            ports: (lo, lo.saturating_add(span)),
            states,
            verdict,
            from,
            until,
        });
    }
    // Two wide-range rules exercise the wide-list merge path; their
    // source nets still exclude the hub traffic.
    specs.push(RuleSpec {
        proto: Some(Proto::Udp),
        src: Some(src_nets()[1]),
        dst: None,
        ports: (2_000, 6_000),
        states: StateMask::ANY,
        verdict: Verdict::Drop,
        from: SimTime::ZERO,
        until: SimTime(u64::MAX),
    });
    specs.push(RuleSpec {
        proto: None,
        src: Some(src_nets()[3]),
        dst: None,
        ports: (40_000, 60_000),
        states: StateMask::NEW,
        verdict: Verdict::Reject,
        from: SimTime::ZERO,
        until: SimTime(u64::MAX),
    });
    specs
}

/// Installs the specs in order; install order is match priority, so the
/// returned ids are the specs' indices on a fresh control.
fn install_specs(ctl: &FilterControl, specs: &[RuleSpec]) {
    for (i, s) in specs.iter().enumerate() {
        let id = ctl.install_at(s.to_rule(), s.from);
        assert_eq!(id, i as u64, "fresh control must assign dense ids");
        if s.until.0 != u64::MAX {
            ctl.remove_at(id, s.until);
        }
    }
}

struct Query {
    proto: Proto,
    src: SockAddr,
    dst: SockAddr,
    state: ConnState,
    now: SimTime,
}

fn gen_queries(n: usize, rng: &mut Rng) -> Vec<Query> {
    let mut qs = Vec::with_capacity(n);
    for _ in 0..n {
        let proto = if rng.below(10) < 7 {
            Proto::Udp
        } else {
            Proto::Tcp
        };
        let src_net = src_nets()[rng.below(4) as usize];
        let src = SockAddr::new(
            src_net.host(2 + rng.below(200) as u32),
            (1_024 + rng.below(60_000)) as u16,
        );
        let dst_ip = if rng.below(2) == 0 {
            dst_nets()[rng.below(2) as usize].host(2 + rng.below(100) as u32)
        } else {
            Ip4::new(10, 99, 0, (1 + rng.below(200)) as u8)
        };
        let dst = SockAddr::new(dst_ip, rng.below(65_536) as u16);
        let state = match rng.below(5) {
            0 | 1 => ConnState::New,
            2 | 3 => ConnState::Established,
            _ => ConnState::Related,
        };
        qs.push(Query {
            proto,
            src,
            dst,
            state,
            now: SimTime(rng.below(HORIZON.0)),
        });
    }
    qs
}

/// Reference semantics: first live matching rule in install order,
/// mirroring `FilterRule::matches` field by field.
fn naive_eval(specs: &[RuleSpec], q: &Query) -> (Verdict, u64) {
    for (i, s) in specs.iter().enumerate() {
        if s.from <= q.now
            && q.now < s.until
            && s.proto.is_none_or(|p| p == q.proto)
            && s.ports.0 <= q.dst.port
            && q.dst.port <= s.ports.1
            && s.src.is_none_or(|n| n.contains(q.src.ip))
            && s.dst.is_none_or(|n| n.contains(q.dst.ip))
            && s.states.matches(q.state)
        {
            return (s.verdict, i as u64);
        }
    }
    (Verdict::Accept, NO_RULE)
}

/// FNV-1a fold — stable across platforms and toolchains, unlike
/// `DefaultHasher`, so the digests can be compared against the committed
/// baseline.
fn fnv(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn compiled_digest(ctl: &FilterControl, queries: &[Query]) -> u64 {
    let mut h = FNV_SEED;
    for (i, q) in queries.iter().enumerate() {
        let (v, id) = ctl.eval(q.proto, q.src, q.dst, q.state, q.now);
        h = fnv(fnv(fnv(h, i as u64), v.code()), id);
    }
    h
}

fn naive_digest(specs: &[RuleSpec], queries: &[Query]) -> u64 {
    let mut h = FNV_SEED;
    for (i, q) in queries.iter().enumerate() {
        let (v, id) = naive_eval(specs, q);
        h = fnv(fnv(fnv(h, i as u64), v.code()), id);
    }
    h
}

/// Nanoseconds per eval over the full query stream (compiled index warm).
fn time_eval(ctl: &FilterControl, queries: &[Query]) -> f64 {
    let mut sink = 0u64;
    let start = Instant::now();
    for q in queries {
        let (v, id) = ctl.eval(q.proto, q.src, q.dst, q.state, q.now);
        sink = sink.wrapping_add(v.code() ^ id);
    }
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    elapsed * 1e9 / queries.len() as f64
}

/// Hub topology: `PAIRS` bouncer pairs, every frame crossing the one
/// bridge that hosts the table under test.
fn build_hub(specs: &[RuleSpec]) -> (Network, FilterControl) {
    let mut net = Network::new(0x9C11);
    let hub = Bridge::new(
        2 * PAIRS,
        StageCost::fixed(400, 0.1, CpuCategory::Sys).with_jitter(0.05),
        SharedStation::new(),
    );
    let ctl = hub.filter();
    install_specs(&ctl, specs);
    let hub_dev = net.add_device("hub", CpuLocation::Host, Box::new(hub));
    let cost = StageCost::fixed(600, 0.2, CpuCategory::Usr).with_jitter(0.05);
    for p in 0..PAIRS {
        let ma = MacAddr::local((2 * p + 1) as u32);
        let mb = MacAddr::local((2 * p + 2) as u32);
        let a = net.add_device(
            format!("p{p}.a"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(format!("p{p}.a"), ma, PAYLOAD, cost, false)),
        );
        let b = net.add_device(
            format!("p{p}.b"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(format!("p{p}.b"), mb, PAYLOAD, cost, false)),
        );
        net.connect(a, PortId::P0, hub_dev, PortId(2 * p), LinkParams::default());
        net.connect(
            b,
            PortId::P0,
            hub_dev,
            PortId(2 * p + 1),
            LinkParams::default(),
        );
        net.inject_frame(
            SimDuration::nanos((p as u64) * 137),
            b,
            PortId::P0,
            frame_between(ma, mb, PAYLOAD),
        );
    }
    (net, ctl)
}

/// Precompiles the table (outside any timed window) with a traffic-shaped
/// probe.
fn warm_compile(ctl: &FilterControl, now: SimTime) {
    std::hint::black_box(ctl.eval(
        Proto::Udp,
        SockAddr::new(Ip4::new(10, 0, 0, 1), 40_000),
        SockAddr::new(Ip4::new(10, 0, 0, 2), 50_000),
        ConnState::New,
        now,
    ));
}

struct HubOut {
    per_frame_ns: f64,
    frames: f64,
    accepts: f64,
    drops: f64,
}

fn run_hub(specs: &[RuleSpec]) -> HubOut {
    let (mut net, ctl) = build_hub(specs);
    warm_compile(&ctl, SimTime::ZERO);
    let start = Instant::now();
    net.run(StopCondition::Until(HORIZON));
    let elapsed = start.elapsed().as_secs_f64();
    let frames = frames_delivered(net.store());
    HubOut {
        per_frame_ns: elapsed * 1e9 / frames,
        frames,
        accepts: net.store().counter("filter.forward.accept"),
        drops: net.store().counter("filter.forward.drop"),
    }
}

struct ChurnOut {
    per_frame_ns: f64,
    install_ns: f64,
    remove_ns: f64,
    recompile_ns: f64,
    purged: usize,
}

/// Same hub and traffic, but the table is mutated between run slices:
/// each boundary removes the previous batch, installs a fresh one live
/// from that instant, and pays (and measures) the index update on the
/// first eval after the mutation.
fn run_churn(specs: &[RuleSpec]) -> ChurnOut {
    let (mut net, ctl) = build_hub(specs);
    warm_compile(&ctl, SimTime::ZERO);
    let mut rng = Rng(SEED ^ 0xC0FF_EE00);
    let mut install_ns = Vec::new();
    let mut remove_ns = Vec::new();
    let mut recompile_ns = Vec::new();
    let mut prev_batch: Vec<u64> = Vec::new();
    let start = Instant::now();
    for k in 1..=CHURN_SLICES {
        let t_prev = SimTime(HORIZON.0 * (k - 1) / CHURN_SLICES);
        for &id in &prev_batch {
            let t0 = Instant::now();
            assert!(ctl.remove_at(id, t_prev), "churn rule {id} must exist");
            remove_ns.push(t0.elapsed().as_nanos() as f64);
        }
        prev_batch.clear();
        for _ in 0..CHURN_BATCH {
            let port = (1_000 + rng.below(30_000)) as u16;
            let rule = FilterRule::any(Verdict::Drop)
                .from_net(src_nets()[rng.below(4) as usize])
                .port(port);
            let t0 = Instant::now();
            prev_batch.push(ctl.install_at(rule, t_prev));
            install_ns.push(t0.elapsed().as_nanos() as f64);
        }
        let t0 = Instant::now();
        warm_compile(&ctl, t_prev);
        recompile_ns.push(t0.elapsed().as_nanos() as f64);
        net.run(StopCondition::Until(SimTime(HORIZON.0 * k / CHURN_SLICES)));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let frames = frames_delivered(net.store());
    let purged = ctl.purge_expired(HORIZON);
    ChurnOut {
        per_frame_ns: elapsed * 1e9 / frames,
        install_ns: median(install_ns),
        remove_ns: median(remove_ns),
        recompile_ns: median(recompile_ns),
        purged,
    }
}

/// Eight disconnected islands, each a bouncer pair through its own
/// filtered bridge; a third of the islands carry a mid-run Drop window on
/// the traffic port, so verdicts (not just fall-throughs) land mid-run.
fn build_islands() -> Network {
    let mut net = Network::new(0x51AB);
    let mut rng = Rng(SEED ^ 0xA5A5);
    let specs = gen_specs(RULES_SMALL, &mut rng);
    let relay_cost = StageCost::fixed(400, 0.1, CpuCategory::Sys).with_jitter(0.05);
    let bouncer_cost = StageCost::fixed(600, 0.2, CpuCategory::Usr).with_jitter(0.05);
    for c in 0..ISLANDS {
        let ma = MacAddr::local((2 * c + 1) as u32);
        let mb = MacAddr::local((2 * c + 2) as u32);
        let a = net.add_device(
            format!("i{c}.a"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(
                format!("i{c}.a"),
                ma,
                PAYLOAD,
                bouncer_cost,
                false,
            )),
        );
        let b = net.add_device(
            format!("i{c}.b"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(
                format!("i{c}.b"),
                mb,
                PAYLOAD,
                bouncer_cost,
                false,
            )),
        );
        let br = Bridge::new(2, relay_cost, SharedStation::new());
        let ctl = br.filter();
        install_specs(&ctl, &specs);
        if c % 3 == 0 {
            let id = ctl.install_at(
                FilterRule::any(Verdict::Drop).port(50_000),
                SimTime(HORIZON.0 / 4),
            );
            ctl.remove_at(id, SimTime(HORIZON.0 / 2));
        }
        let br_dev = net.add_device(format!("i{c}.br"), CpuLocation::Host, Box::new(br));
        net.connect(a, PortId::P0, br_dev, PortId(0), LinkParams::default());
        net.connect(b, PortId::P0, br_dev, PortId(1), LinkParams::default());
        net.inject_frame(
            SimDuration::nanos((c as u64) * 137),
            b,
            PortId::P0,
            frame_between(ma, mb, PAYLOAD),
        );
    }
    net
}

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("reps must be a positive integer"))
        .unwrap_or(3)
        .max(1);

    let small = gen_specs(RULES_SMALL, &mut Rng(SEED));
    let large = gen_specs(RULES_LARGE, &mut Rng(SEED ^ 0x1111));
    let queries = gen_queries(QUERIES, &mut Rng(SEED ^ 0x2222));

    // ---- matcher: raw eval latency + compiled-vs-naive digests --------
    let ctl_small = FilterControl::default();
    install_specs(&ctl_small, &small);
    let ctl_large = FilterControl::default();
    install_specs(&ctl_large, &large);
    time_eval(&ctl_small, &queries); // warm-up (and compile)
    time_eval(&ctl_large, &queries);
    let mut eval_small = Vec::with_capacity(reps);
    let mut eval_large = Vec::with_capacity(reps);
    for _ in 0..reps {
        eval_small.push(time_eval(&ctl_small, &queries));
        eval_large.push(time_eval(&ctl_large, &queries));
    }
    let digest_small = compiled_digest(&ctl_small, &queries[..CHECK_SMALL]);
    let digest_large = compiled_digest(&ctl_large, &queries[..CHECK_LARGE]);
    let digest_match = digest_small == naive_digest(&small, &queries[..CHECK_SMALL])
        && digest_large == naive_digest(&large, &queries[..CHECK_LARGE]);

    // ---- packet overhead: paired 1k-vs-100k hub runs ------------------
    run_hub(&small); // warm-up
    run_hub(&large);
    let mut ratios = Vec::with_capacity(reps);
    let mut small_ns = Vec::with_capacity(reps);
    let mut large_ns = Vec::with_capacity(reps);
    let mut frames = 0.0;
    for _ in 0..reps {
        let s = run_hub(&small);
        let l = run_hub(&large);
        assert_eq!(
            s.frames, l.frames,
            "rule count leaked into the simulated outcome"
        );
        assert_eq!(s.drops + l.drops, 0.0, "no hub rule may match the traffic");
        assert!(s.accepts > 0.0, "the hub table never ran — hook is dead");
        frames = l.frames;
        ratios.push(l.per_frame_ns / s.per_frame_ns);
        small_ns.push(s.per_frame_ns);
        large_ns.push(l.per_frame_ns);
    }
    let overhead_ratio = median(ratios);
    let per_frame_small = median(small_ns);
    let per_frame_large = median(large_ns);

    // ---- churn: mutations under load ----------------------------------
    let churn = run_churn(&large);
    let churn_frame_ratio = churn.per_frame_ns / per_frame_large;

    // ---- sharded determinism ------------------------------------------
    let mut shard_rows = Vec::new();
    let mut ref_digest = None;
    let mut bit_identical = true;
    for want in [1usize, 2, 8] {
        let mut sn = SimConfig::new().shards(want).build(build_islands());
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

    let eval_small_median = median(eval_small);
    let eval_large_median = median(eval_large);
    let host_cores = host_cores();
    let json = format!(
        "{{\n  \"benchmark\": \"policy_churn (crates/bench/src/bin/policy_churn.rs)\",\n  \
         \"scenario\": \"filter_matcher\",\n  \
         \"rules_small\": {RULES_SMALL},\n  \"rules_large\": {RULES_LARGE},\n  \
         \"reps\": {reps},\n  \"host_cores\": {host_cores},\n  \
         \"matcher\": {{\"queries\": {QUERIES}, \"eval_ns_small_median\": {:.1}, \
         \"eval_ns_large_median\": {:.1}, \"eval_ratio\": {:.3}, \
         \"checked_small\": {CHECK_SMALL}, \"checked_large\": {CHECK_LARGE}, \
         \"digest_small\": \"0x{digest_small:016x}\", \
         \"digest_large\": \"0x{digest_large:016x}\", \"digest_match\": {digest_match}}},\n  \
         \"packet\": {{\"pairs\": {PAIRS}, \"sim_horizon_ns\": {}, \"frames\": {frames:.0}, \
         \"per_frame_ns_small_median\": {per_frame_small:.1}, \
         \"per_frame_ns_large_median\": {per_frame_large:.1}}},\n  \
         \"overhead_ratio\": {overhead_ratio:.3},\n  \
         \"churn\": {{\"slices\": {CHURN_SLICES}, \"batch\": {CHURN_BATCH}, \
         \"install_ns_median\": {:.0}, \"remove_ns_median\": {:.0}, \
         \"recompile_ns_median\": {:.0}, \"per_frame_ratio\": {churn_frame_ratio:.3}, \
         \"purged\": {}}},\n  \
         \"bit_identical\": {bit_identical},\n  \
         \"sharded\": [\n    {}\n  ],\n  \
         \"note\": \"overhead_ratio is the median of paired per-rep ratios of wall-clock per delivered frame between the 100k-rule and 1k-rule hub tables (every rule src-net constrained away from the traffic, so each frame pays the full fall-through walk). digest_small/digest_large are FNV-1a folds of the compiled matcher's (verdict, rule_id) stream over a seed-fixed query prefix — machine-independent; digest_match records whether an independent naive linear walk produced the same digests, and the perf gate compares them verbatim against the committed baseline. Raw eval_ns numbers are informational (machine-dependent). churn reports mutation latency under load and the index update (recompile_ns: a patch for a batch this small) paid by the first post-mutation eval. bit_identical records whether the merged filtered outcome digest is equal at 1/2/8 shards. tools/perfgate.rs judges every field.\"\n}}\n",
        eval_small_median,
        eval_large_median,
        eval_large_median / eval_small_median,
        HORIZON.0,
        churn.install_ns,
        churn.remove_ns,
        churn.recompile_ns,
        churn.purged,
        shard_rows.join(",\n    ")
    );
    print!("{json}");
    write_artifact("results/policy_churn.json", &json);
}
