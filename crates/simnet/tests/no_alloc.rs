//! Flood paths clone a frame once per egress port (`bridge.rs`,
//! `veth.rs`); those clones — and the whole warmed event loop around them
//! — must not allocate. A counting global allocator enforces it.
//!
//! The flight recorder rides the same budget: with tracing *off* (the
//! default; enforced by the warm-flood test, whose bridge now passes
//! through `DevCtx::stage_frame`) and in *counters-only* mode the warmed
//! steady state must stay allocation-free. Only `ObsMode::Full` may
//! allocate (the span ring grows).
//!
//! The counter is thread-local so the tests (which cargo runs on
//! separate threads) cannot interfere with each other.

use metrics::flight::DEFAULT_SPAN_CAP;
use metrics::{CpuCategory, CpuLocation, JournalKind, ObsMode, TelemetryConfig, TraceConfig};
use nestless_simnet::addr::{Ip4, MacAddr, SockAddr};
use nestless_simnet::bridge::Bridge;
use nestless_simnet::costs::StageCost;
use nestless_simnet::device::{DeviceId, PortId};
use nestless_simnet::engine::{LinkParams, Network};
use nestless_simnet::frame::{Frame, Payload};
use nestless_simnet::shared::SharedStation;
use nestless_simnet::testutil::MacBouncer;
use nestless_simnet::time::{SimDuration, SimTime};
use nestless_simnet::{chrome_trace_report, FaultPlan, StallWindow, StopCondition};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count (this thread) across `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn sock(d: u8, port: u16) -> SockAddr {
    SockAddr::new(Ip4::new(10, 0, 0, d), port)
}

/// A bridge flooding to three endpoints that count and drop what they
/// get; returns the bridge.
fn flood_bridge(net: &mut Network) -> DeviceId {
    let bridge = net.add_device(
        "br",
        CpuLocation::Host,
        Box::new(Bridge::new(
            4,
            StageCost::fixed(800, 0.1, CpuCategory::Sys).with_jitter(0.05),
            SharedStation::new(),
        )),
    );
    for p in 1..4u32 {
        let sink = net.add_device(
            format!("sink{p}"),
            CpuLocation::Host,
            Box::new(MacBouncer::new(
                format!("sink{p}"),
                MacAddr::local(100 + p),
                64,
                StageCost::fixed(500, 0.1, CpuCategory::Usr),
                false,
            )),
        );
        net.connect(
            sink,
            PortId::P0,
            bridge,
            PortId(p as usize),
            LinkParams::default(),
        );
    }
    bridge
}

/// One round: a broadcast frame (512 B payload) into the bridge, run
/// until idle.
fn flood_round(net: &mut Network, bridge: DeviceId) {
    net.inject_frame(
        SimDuration::ZERO,
        bridge,
        PortId(0),
        Frame::udp(
            MacAddr::local(1),
            MacAddr::BROADCAST,
            sock(1, 1000),
            sock(255, 2000),
            Payload::sized(512),
        ),
    );
    net.run(StopCondition::Idle);
}

#[test]
fn frame_clone_is_allocation_free() {
    let mut payload = Payload::sized(1024);
    payload.tag = 7;
    let frame = Frame::udp(
        MacAddr::local(1),
        MacAddr::local(2),
        sock(1, 1000),
        sock(2, 2000),
        payload,
    );
    let mut clones: Vec<Frame> = Vec::with_capacity(16);
    let n = allocations(|| {
        for _ in 0..16 {
            clones.push(frame.clone());
        }
    });
    assert_eq!(n, 0, "cloning a frame allocated");
    assert!(
        clones.iter().all(|c| *c == frame),
        "clones equal the original"
    );
}

#[test]
fn warm_bridge_flood_steady_state_is_allocation_free() {
    // A bridge flooding broadcast frames (512 B payloads) to three
    // endpoints that count and drop them. After warm-up — FDB entry
    // learned, metric ids interned, event slab and heap at capacity —
    // whole injection+flood+delivery rounds must not allocate.
    let mut net = Network::new(3);
    let bridge = flood_bridge(&mut net);
    for _ in 0..64 {
        flood_round(&mut net, bridge);
    }
    let n = allocations(|| {
        for _ in 0..512 {
            flood_round(&mut net, bridge);
        }
    });
    assert_eq!(n, 0, "warmed flood steady state allocated");
    // The rounds actually flooded: 64 warm-up + 512 measured, 3 strays each.
    assert_eq!(net.store().counter("bridge.flooded"), 576.0);
    assert_eq!(net.store().counter("sink1.stray"), 576.0);
    // The default config is the recorder's off mode — the budget above
    // therefore proves `ObsMode::Off` adds zero allocations.
    assert_eq!(net.trace_config().mode, ObsMode::Off);
}

#[test]
fn warm_counters_mode_steady_state_is_allocation_free() {
    // Same scenario as above but with the flight recorder in
    // counters-only mode: per-stage aggregates (integer counters plus a
    // fixed 64-bucket histogram) must record without allocating once the
    // stage table row exists.
    let mut net = Network::new(3);
    net.set_trace_config(TraceConfig::counters());
    let bridge = flood_bridge(&mut net);
    for _ in 0..64 {
        flood_round(&mut net, bridge);
    }
    let n = allocations(|| {
        for _ in 0..512 {
            flood_round(&mut net, bridge);
        }
    });
    assert_eq!(n, 0, "warmed counters-only steady state allocated");
    let report = net.take_report();
    let stages: Vec<_> = report.stages.iter().collect();
    assert_eq!(stages.len(), 1, "bridge stage aggregated");
    assert_eq!(stages[0].1.frames, 576, "every flood round recorded");
    assert_eq!(report.spans_emitted, 0, "counters mode emits no spans");
}

#[test]
fn warm_telemetry_counters_steady_state_is_allocation_free() {
    // The control-plane journal's counters mode rides the same budget.
    // A dense stall plan on the bridge keeps the fault-window record
    // sites live across the whole run; each emission only bumps a fixed
    // per-kind count array, so the warmed steady state must not
    // allocate — and the ring stays empty.
    let mut net = Network::new(3);
    net.set_telemetry_config(TelemetryConfig::counters());
    let bridge = flood_bridge(&mut net);
    // Windows every 4 µs (2 µs wide) out past the last measured round,
    // so window transitions keep firing during the measured phase.
    let mut plan = FaultPlan::new();
    for i in 0..2048u64 {
        plan = plan.stall(StallWindow {
            dev: bridge,
            from: SimTime(i * 4_000),
            until: SimTime(i * 4_000 + 2_000),
            extra: SimDuration::nanos(25),
        });
    }
    net.install_fault_plan(plan);
    for _ in 0..64 {
        flood_round(&mut net, bridge);
    }
    let opens_before = net.journal().counts()[JournalKind::FaultOpen as usize];
    let n = allocations(|| {
        for _ in 0..512 {
            flood_round(&mut net, bridge);
        }
    });
    assert_eq!(n, 0, "warmed telemetry counters steady state allocated");
    let j = net.journal();
    let opens = j.counts()[JournalKind::FaultOpen as usize];
    assert!(
        opens > opens_before,
        "stall windows must keep the record sites live during the \
         measured rounds (before={opens_before}, after={opens})"
    );
    assert!(j.records().is_empty(), "counters mode keeps the ring empty");
    assert_eq!(j.dropped(), 0, "an empty ring cannot drop");
}

/// A traced run of `rounds` floods; the bridge spans every frame.
fn traced_flood(rounds: usize) -> nestless_simnet::RunReport {
    let mut net = Network::new(3);
    net.set_trace_config(TraceConfig::full());
    let bridge = flood_bridge(&mut net);
    for _ in 0..rounds {
        flood_round(&mut net, bridge);
    }
    net.take_report()
}

#[test]
fn chrome_export_allocates_per_buffer_not_per_span() {
    // Building and writing the Chrome trace allocates per process,
    // thread, stage and output-buffer doubling, never per span: a run
    // with more than twice the spans costs a few doublings more at most.
    let export = |rounds| {
        let report = traced_flood(rounds);
        let mut bytes = 0;
        let n = allocations(|| {
            let trace = chrome_trace_report(&report);
            bytes = serde_json::to_string(&trace).unwrap().len();
        });
        assert!(bytes > 100 * report.spans.len(), "{bytes} B written");
        (report.spans.len(), n)
    };
    let (small_spans, small) = export(1_000);
    let (large_spans, large) = export(2_500);
    assert!(
        large_spans >= 2 * small_spans && large_spans < DEFAULT_SPAN_CAP,
        "{small_spans} and {large_spans} spans"
    );
    assert!(
        large.abs_diff(small) <= 3,
        "{small} allocations for {small_spans} spans, {large} for {large_spans}"
    );
}
