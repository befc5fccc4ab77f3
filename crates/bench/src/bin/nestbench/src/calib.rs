//! The reference kernel: a fixed piece of work, independent of every
//! crate under test, timed between a rep's ops. On a shared host the
//! speed of the machine drifts by tens of percent within seconds (other
//! tenants, SMT siblings, cache and memory contention); the kernel slows
//! down with it, so host times divided by the kernel's time next to them
//! cancel most of the drift.
//!
//! The kernel has two phases. The first is an event loop's mix held in
//! the core's own caches: priority-queue pushes and pops and writes to a
//! 1 MiB table. On the 2-core calibration host it slowed 1.3–1.7× when the
//! simulator slowed 1.5–2.2×, so it under-corrects under heavy
//! interference. The second phase chases pointers through a 4 MiB random
//! cycle, which misses the private caches on every step and so tracks
//! contention for the shared cache and memory, the part the first phase
//! does not see. In four sets of ten seeds per workload, host times as
//! measured spread (IQR ÷ median) 0.15–0.42 per workload and set; divided
//! by the sum of both phases, 0.04–0.25.
//!
//! The kernel must never change: every recorded result is in its units.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Kernel time on the calibration host (2-core Xeon VM, quiet): scaled
/// host times are "seconds at that host's quiet speed".
pub const NOMINAL_S: f64 = 0.07;

/// Iterations of the event-loop phase.
#[cfg(not(test))]
const ITERS: u32 = 1_000_000;
/// Steps of the pointer-chasing phase.
#[cfg(not(test))]
const CHASE_STEPS: u32 = 400_000;
/// Unit tests check what the workloads compute, not how fast.
#[cfg(test)]
const ITERS: u32 = 10_000;
#[cfg(test)]
const CHASE_STEPS: u32 = 4_000;
/// Pending entries kept in the heap (an event queue's working size).
const QUEUE: usize = 4_096;
/// Table words (1 MiB: larger than L2, like a simulation's state).
const TABLE: usize = 1 << 17;
/// Slots of the pointer cycle (4 MiB of `u32`).
const CHAIN: usize = 1 << 20;

/// One xorshift64 step.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's buffers, allocated once so a call allocates nothing.
pub struct Kernel {
    heap: BinaryHeap<Reverse<u64>>,
    table: Vec<u64>,
    /// `chain[i]` is the slot after `i` on one cycle through every slot.
    chain: Vec<u32>,
}

impl Kernel {
    /// Allocates the buffers and lays out the pointer cycle.
    pub fn new() -> Kernel {
        // Sattolo's shuffle of the identity gives a single cycle.
        let mut chain: Vec<u32> = (0..CHAIN as u32).collect();
        let mut x: u64 = 12_345;
        for i in (1..CHAIN).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            chain.swap(i, j);
        }
        Kernel {
            heap: BinaryHeap::with_capacity(QUEUE + 1),
            table: vec![0; TABLE],
            chain,
        }
    }

    /// Runs the kernel once; returns its host seconds.
    pub fn sample(&mut self) -> f64 {
        self.heap.clear();
        self.table.fill(0);
        let start = Instant::now();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..ITERS {
            xorshift(&mut x);
            self.heap.push(Reverse(x >> 40));
            if self.heap.len() > QUEUE {
                acc = acc.wrapping_add(self.heap.pop().map_or(0, |Reverse(v)| v));
            }
            let slot = &mut self.table[(x as usize) & (TABLE - 1)];
            *slot = slot.wrapping_add(u64::from(i) ^ acc);
            acc ^= *slot;
        }
        let mut p = 0u32;
        for _ in 0..CHASE_STEPS {
            p = self.chain[p as usize];
        }
        std::hint::black_box((acc, p));
        start.elapsed().as_secs_f64()
    }
}
