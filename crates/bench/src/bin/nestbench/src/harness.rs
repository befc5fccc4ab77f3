//! The measurement loop every workload shares: warm-up, reps until the
//! time budget is spent, timed ops and set-up calls with the reference
//! kernel sampled between them, op accounting, cross-rep digest checks,
//! and the traced/untraced alternation of `--trace 1`.

use crate::alloc;
use crate::calib::{self, Kernel};
use crate::trace::{self, Recorder, GLUE, LAYERS};
use simnet::SampleStore;
use simnet::SimDuration;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Reps always run, whatever the budget: quartiles need three values.
const MIN_REPS: u32 = 3;
/// Host seconds of timed ops between two reference-kernel samples. The
/// host's speed drifts within seconds, so the samples that scale a
/// stretch of ops must be close to it; at most one sample per op.
const CALIBRATE_EVERY_S: f64 = 0.5;

/// Simulated sizes of every workload. [`Scale::full`] is what the
/// benchmark measures; [`Scale::tiny`] keeps the unit tests quick.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Measured simulated time of one paper-fidelity Netperf cell.
    pub netperf: SimDuration,
    /// Warm-up of one paper-fidelity Netperf cell.
    pub netperf_warmup: SimDuration,
    /// Measured simulated time of one memcached cell.
    pub memcached: SimDuration,
    /// Warm-up of one memcached cell.
    pub memcached_warmup: SimDuration,
    /// Measured simulated time of one hybrid-fidelity Netperf cell.
    pub hybrid: SimDuration,
    /// Warm-up of one hybrid-fidelity Netperf cell.
    pub hybrid_warmup: SimDuration,
    /// Simulated horizon of one sharded run.
    pub sharded: SimDuration,
    /// Control steps (of 50 ms simulated each) in one cluster rep.
    pub cluster_steps: u32,
    /// Users replayed by one cloud rep.
    pub cloud_users: usize,
}

impl Scale {
    /// The benchmark's sizes (the figure binaries' cell lengths).
    pub fn full() -> Scale {
        Scale {
            netperf: SimDuration::millis(400),
            netperf_warmup: SimDuration::millis(50),
            memcached: SimDuration::secs(1),
            memcached_warmup: SimDuration::millis(100),
            hybrid: SimDuration::secs(2),
            hybrid_warmup: SimDuration::millis(100),
            sharded: SimDuration::millis(200),
            cluster_steps: 40,
            cloud_users: 100_000,
        }
    }

    /// Sizes small enough for a unit test in a debug build.
    #[cfg(test)]
    pub fn tiny() -> Scale {
        Scale {
            netperf: SimDuration::millis(20),
            netperf_warmup: SimDuration::millis(5),
            memcached: SimDuration::millis(20),
            memcached_warmup: SimDuration::millis(5),
            hybrid: SimDuration::millis(30),
            hybrid_warmup: SimDuration::millis(5),
            sharded: SimDuration::millis(4),
            cluster_steps: 3,
            cloud_users: 2_000,
        }
    }
}

/// A paper-vs-measured comparison computed by a workload's cells.
#[derive(Debug, Clone)]
pub struct Claim {
    /// What is compared.
    pub what: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// This run's value.
    pub measured: f64,
}

impl Claim {
    /// |measured − paper| / |paper|, in percent.
    pub fn err_pct(&self) -> f64 {
        (self.measured - self.paper).abs() / self.paper.abs() * 100.0
    }
}

/// Host seconds of one kind of call in the current rep, in order.
#[derive(Debug, Default)]
struct Calls {
    /// Calls not yet scaled: no kernel sample since they ran.
    pending: Vec<f64>,
    /// Calls as measured.
    wall: Vec<f64>,
    /// Calls scaled by the kernel samples on either side of them.
    scaled: Vec<f64>,
}

impl Calls {
    /// Scales the pending calls by `factor`.
    fn scale(&mut self, factor: f64) {
        for secs in self.pending.drain(..) {
            self.wall.push(secs);
            self.scaled.push(secs * factor);
        }
    }
}

/// The current rep's timed ops and set-up calls.
#[derive(Debug, Default)]
struct RepTime {
    ops: Calls,
    setup: Calls,
}

/// State a workload reads and writes while it runs.
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Simulated sizes.
    pub scale: Scale,
    /// Span recorder (on only in traced reps).
    pub rec: Recorder,
    layer: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    rep: RepTime,
    /// Spans of the current rep's ops, when traced.
    ops: Vec<usize>,
    kernel: Kernel,
    kernel_s: Vec<f64>,
}

impl Ctx {
    /// A context for `seed` at `scale`.
    pub fn new(seed: u64, scale: Scale) -> Ctx {
        Ctx {
            seed,
            scale,
            rec: Recorder::default(),
            layer: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            rep: RepTime::default(),
            ops: Vec::new(),
            kernel: Kernel::new(),
            kernel_s: Vec::new(),
        }
    }

    /// Times the reference kernel; returns its host seconds.
    fn calibrate(&mut self) -> f64 {
        let secs = self.kernel.sample();
        self.kernel_s.push(secs);
        secs
    }

    /// The last kernel sample.
    fn last_kernel(&self) -> f64 {
        *self
            .kernel_s
            .last()
            .expect("the kernel runs before any timing")
    }

    /// Counts one op, failed unless `ok`.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Sets a per-layer metric (the last rep's value wins; reps repeat).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }

    /// Runs one set-up call of the rep, outside its timed section. Set-up
    /// calls are timed and scaled like ops, so they sample the host's
    /// speed over the whole run rather than at one instant.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.rep.setup.pending.push(start.elapsed().as_secs_f64());
        out
    }

    /// Runs one timed op of the rep inside a span of its own. The rep's
    /// timed section is the sum of its ops; the reference kernel runs
    /// between ops, outside it, once [`CALIBRATE_EVERY_S`] of op time has
    /// gone by.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
        let span = self.rec.enter(GLUE, name);
        let start = Instant::now();
        let out = f(self);
        self.rep.ops.pending.push(start.elapsed().as_secs_f64());
        if let Some(i) = span.index() {
            self.ops.push(i);
        }
        self.rec.exit(span);
        if self.rep.ops.pending.iter().sum::<f64>() >= CALIBRATE_EVERY_S {
            self.flush();
        }
        out
    }

    /// Scales the pending ops and set-up calls by the mean of the kernel
    /// samples on either side of them.
    fn flush(&mut self) {
        if self.rep.ops.pending.is_empty() && self.rep.setup.pending.is_empty() {
            return;
        }
        let before = self.last_kernel();
        let after = self.calibrate();
        let factor = calib::NOMINAL_S / ((before + after) / 2.0);
        self.rep.ops.scale(factor);
        self.rep.setup.scale(factor);
    }
}

/// Runs `f`, turning a panic into `None`.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One workload of the benchmark.
pub trait Workload {
    /// Name on the command line and in the output.
    fn name(&self) -> &'static str;

    /// One untimed op before anything is measured: pages in code and
    /// sizes allocator pools.
    fn warm_up(&mut self, ctx: &mut Ctx);

    /// One rep: runs its set-up calls as [`Ctx::setup`]s and its timed
    /// section as [`Ctx::op`]s, and returns one digest per op, in a fixed
    /// order.
    fn rep(&mut self, ctx: &mut Ctx) -> Vec<u64>;

    /// Paper claims computed by the last rep.
    fn claims(&self) -> Vec<Claim> {
        Vec::new()
    }
}

/// Everything one workload run measured. Host times come twice: as
/// measured, and scaled by the reference kernel sampled next to them
/// (see [`calib`]).
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The run's timed section: the sum over the rep's ops of each op's
    /// median scaled seconds across untraced reps.
    pub rep_s: f64,
    /// Timed-section host seconds of each untraced rep.
    pub wall_s: Vec<f64>,
    /// The same, scaled.
    pub scaled_s: Vec<f64>,
    /// Traced reps run.
    pub traced_reps: usize,
    /// The run's set-up: the sum over the rep's set-up calls of each
    /// call's median scaled seconds across untraced reps.
    pub setup_s: f64,
    /// Set-up host seconds of each untraced rep.
    pub setup_wall_s: Vec<f64>,
    /// The same, scaled.
    pub setup_scaled_s: Vec<f64>,
    /// Host seconds of every reference-kernel sample.
    pub kernel_s: Vec<f64>,
    /// Peak live heap the run added.
    pub peak_heap_mib: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// FNV fold of the first rep's op digests.
    pub digest: u64,
    /// Paper claims.
    pub claims: Vec<Claim>,
    /// Per-layer metrics.
    pub layer: BTreeMap<&'static str, f64>,
}

/// Runs `w`: warm-up, then reps until `budget_s` seconds of reps are
/// spent (at least [`MIN_REPS`]). The reference kernel runs after the
/// warm-up and between ops. With `trace`, every other rep records spans,
/// so traced and untraced reps interleave.
pub fn run(w: &mut dyn Workload, ctx: &mut Ctx, budget_s: f64, trace: bool) -> Report {
    alloc::reset_peak();
    ctx.calibrate();
    w.warm_up(ctx);
    ctx.calibrate();

    let (mut wall_s, mut scaled_ops, mut traced_ops) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setup_wall_s, mut setup_calls) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<u64>> = None;
    let mut self_share: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut self_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut coverage = Vec::new();
    let start = Instant::now();
    let mut reps = 0u32;
    loop {
        let traced = trace && reps % 2 == 1;
        ctx.rec.tag(w.name(), reps);
        ctx.rec.set_on(traced);
        ctx.rep = RepTime::default();
        ctx.ops.clear();
        let outcome = guarded(|| w.rep(ctx));
        ctx.rec.set_on(false);
        ctx.flush();
        match outcome {
            // A panic outside the rep's own op guards: one failed op, and
            // the rep's times are dropped.
            None => ctx.tally(false),
            Some(digests) => {
                let rep = std::mem::take(&mut ctx.rep);
                if traced {
                    traced_ops.push(rep.ops.scaled);
                    let spans = ctx.rec.spans();
                    let op_s = trace::total_s(spans, &ctx.ops);
                    coverage.push(trace::coverage(spans, &ctx.ops));
                    let st = trace::self_times(spans, &ctx.ops);
                    for layer in LAYERS {
                        let secs = st.get(layer.name).copied().unwrap_or(0.0);
                        self_s.entry(layer.self_s).or_default().push(secs);
                        self_share
                            .entry(layer.self_share)
                            .or_default()
                            .push(ratio(secs, op_s));
                    }
                } else {
                    wall_s.push(rep.ops.wall.iter().sum());
                    scaled_ops.push(rep.ops.scaled);
                    setup_wall_s.push(rep.setup.wall.iter().sum());
                    setup_calls.push(rep.setup.scaled);
                }
                match &reference {
                    None => reference = Some(digests),
                    Some(r) => {
                        // An op whose output differs from the first rep's failed.
                        let diff = r.iter().zip(&digests).filter(|(a, b)| a != b).count()
                            + r.len().abs_diff(digests.len());
                        ctx.failed += diff as u64;
                    }
                }
            }
        }
        reps += 1;
        let spent = start.elapsed().as_secs_f64();
        let per_rep = spent / f64::from(reps);
        if reps >= MIN_REPS && spent + per_rep > budget_s {
            break;
        }
    }

    let rep_s = op_median_sum(&scaled_ops);
    let mut layer = std::mem::take(&mut ctx.layer);
    for (name, xs) in self_s.into_iter().chain(self_share) {
        layer.insert(name, median(&xs));
    }
    if trace {
        layer.insert(
            "trace_coverage",
            coverage.iter().copied().reduce(f64::min).unwrap_or(0.0),
        );
        // Traced reps alternate with untraced ones, so both share the
        // host's drift.
        layer.insert("trace_overhead", paired_ratio(&traced_ops, &scaled_ops));
    }
    let claims = w.claims();
    layer.insert("claims.count", claims.len() as f64);
    if !claims.is_empty() {
        layer.insert("claims.err_pct", claim_err_pct(&claims));
    }
    let total =
        |reps: &[Vec<f64>]| -> Vec<f64> { reps.iter().map(|calls| calls.iter().sum()).collect() };
    Report {
        workload: w.name(),
        rep_s,
        wall_s,
        scaled_s: total(&scaled_ops),
        traced_reps: coverage.len(),
        setup_s: op_median_sum(&setup_calls),
        setup_wall_s,
        setup_scaled_s: total(&setup_calls),
        kernel_s: std::mem::take(&mut ctx.kernel_s),
        peak_heap_mib: alloc::peak_mib(),
        attempted: std::mem::take(&mut ctx.attempted),
        failed: std::mem::take(&mut ctx.failed),
        digest: reference
            .unwrap_or_default()
            .iter()
            .fold(Fnv::new(), |h, &d| h.u64(d))
            .finish(),
        claims,
        layer,
    }
}

/// Each op (or set-up call) position's median across `reps`. Only reps
/// with the first rep's op count take part (a rep whose op panicked has
/// fewer).
fn op_medians(reps: &[Vec<f64>]) -> Vec<f64> {
    let Some(n) = reps.first().map(Vec::len) else {
        return Vec::new();
    };
    let whole: Vec<&Vec<f64>> = reps.iter().filter(|r| r.len() == n).collect();
    (0..n)
        .map(|j| median(&whole.iter().map(|r| r[j]).collect::<Vec<f64>>()))
        .collect()
}

/// Sum over op positions of each one's median across `reps`: a rep's
/// typical time that a burst of host noise slowing a few ops of one rep
/// does not move.
pub fn op_median_sum(reps: &[Vec<f64>]) -> f64 {
    op_medians(reps).iter().sum()
}

/// Median over op positions of an op's median time in `traced` reps ÷
/// its median time in `untraced` reps. Pairing ops keeps a burst of host
/// noise during one traced rep out of the ratio, which matters because a
/// run has as few as one traced rep.
fn paired_ratio(traced: &[Vec<f64>], untraced: &[Vec<f64>]) -> f64 {
    let ratios: Vec<f64> = op_medians(traced)
        .iter()
        .zip(op_medians(untraced))
        .map(|(&t, u)| ratio(t, u))
        .collect();
    median(&ratios)
}

/// Mean relative error of `claims` against the paper, in percent.
pub fn claim_err_pct(claims: &[Claim]) -> f64 {
    claims.iter().map(Claim::err_pct).sum::<f64>() / claims.len() as f64
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// `(q1, median, q3)` of `xs`, with the quartiles computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method). One value
/// gives that value three times; no values give zeros.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let med = match n {
        0 => return (0.0, 0.0, 0.0),
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    };
    if n == 1 {
        return (med, med, med);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), med, q(3))
}

/// `p`-th percentile (0–100) by nearest rank (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// FNV-1a folded over 64-bit words instead of bytes: stable across
/// platforms and runs (unlike `DefaultHasher`) and cheap enough to hash
/// every sample of a run inside its timed section.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds one word.
    pub fn u64(self, x: u64) -> Fnv {
        Fnv((self.0 ^ x).wrapping_mul(0x100_0000_01b3))
    }

    /// Folds the bits of a float.
    pub fn f64(self, x: f64) -> Fnv {
        self.u64(x.to_bits())
    }

    /// Folds a string and its length.
    pub fn str(self, s: &str) -> Fnv {
        s.bytes()
            .fold(self.u64(s.len() as u64), |h, b| h.u64(u64::from(b)))
    }

    /// Folds every field of a summary.
    pub fn summary(self, s: &metrics::Summary) -> Fnv {
        self.u64(s.count)
            .f64(s.mean)
            .f64(s.stddev)
            .f64(s.min)
            .f64(s.max)
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every sample and counter in `store`, by sorted name.
pub fn store_digest(store: &SampleStore) -> u64 {
    let mut h = Fnv::new();
    let mut names: Vec<&str> = store.sample_names().collect();
    names.sort_unstable();
    for n in names {
        h = store.samples(n).iter().fold(h.str(n), |h, &v| h.f64(v));
    }
    let mut names: Vec<&str> = store.counter_names().collect();
    names.sort_unstable();
    for n in names {
        h = h.str(n).f64(store.counter(n));
    }
    h.finish()
}

/// Sum of the counters in `store` whose name starts with `prefix` and
/// ends with `suffix` (e.g. every filter chain's accepts).
fn counter_sum(store: &SampleStore, prefix: &str, suffix: &str) -> f64 {
    store
        .counter_names()
        .filter(|n| n.starts_with(prefix) && n.ends_with(suffix))
        .map(|n| store.counter(n))
        .sum()
}

/// Work counts the device layers keep in a run's sample store, summed
/// over the runs of one rep.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreCounts {
    events: f64,
    conntrack_hit: f64,
    conntrack_new: f64,
    switched: f64,
    flooded: f64,
    accept: f64,
    drop: f64,
    reject: f64,
    fastpath_frames: f64,
    probes: f64,
    promotions: f64,
    escalations: f64,
    sent: f64,
}

impl StoreCounts {
    /// Adds one finished run: its store and its engine event count.
    pub fn add(&mut self, store: &SampleStore, events: u64) {
        self.events += events as f64;
        self.conntrack_hit += store.counter("nat.conntrack_hit");
        self.conntrack_new += store.counter("nat.conntrack_new");
        self.switched += store.counter("bridge.switched");
        self.flooded += store.counter("bridge.flooded");
        self.accept += counter_sum(store, "filter.", ".accept");
        self.drop += counter_sum(store, "filter.", ".drop");
        self.reject += counter_sum(store, "filter.", ".reject");
        self.fastpath_frames += store.counter("flow.fastpath_frames");
        self.probes += store.counter("flow.probes");
        self.promotions += store.counter("flow.steady_promotions");
        self.escalations += store.counter("flow.escalations");
        self.sent += store.counter("endpoint.sent");
    }

    /// Engine events counted so far.
    pub fn events(&self) -> f64 {
        self.events
    }

    /// Publishes the counts as per-layer metrics.
    pub fn publish(&self, ctx: &mut Ctx) {
        ctx.set("engine.events", self.events);
        ctx.set("nat.conntrack_hit", self.conntrack_hit);
        ctx.set("nat.conntrack_new", self.conntrack_new);
        ctx.set(
            "nat.new_share",
            ratio(self.conntrack_new, self.conntrack_hit + self.conntrack_new),
        );
        ctx.set("bridge.switched", self.switched);
        ctx.set("bridge.flooded", self.flooded);
        ctx.set("filter.accept", self.accept);
        ctx.set("filter.drop", self.drop);
        ctx.set("filter.reject", self.reject);
        ctx.set("flow.fastpath_frames", self.fastpath_frames);
        ctx.set("flow.probes", self.probes);
        ctx.set("flow.promotions", self.promotions);
        ctx.set("flow.escalations", self.escalations);
        ctx.set(
            "flow.fastpath_share",
            ratio(self.fastpath_frames, self.sent),
        );
        ctx.set("workloads.msgs", self.sent);
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn op_median_sum_takes_each_ops_median() {
        let reps = vec![vec![1.0, 10.0], vec![2.0, 30.0], vec![9.0, 20.0], vec![5.0]];
        assert_eq!(op_median_sum(&reps), 2.0 + 20.0);
        assert_eq!(op_median_sum(&[]), 0.0);
    }

    #[test]
    fn paired_ratio_ignores_a_burst_on_one_op() {
        let untraced = vec![vec![1.0, 10.0, 10.0], vec![3.0, 10.0, 30.0]];
        // One traced op ran during a burst: five times its usual time.
        let traced = vec![vec![2.0, 10.0, 100.0]];
        assert_eq!(paired_ratio(&traced, &untraced), 1.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 9.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }
}
