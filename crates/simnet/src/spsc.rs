//! Bounded lock-free single-producer single-consumer rings.
//!
//! The shard coordinator's data plane: every ordered pair of shards owns
//! one ring carrying per-round batches of cross-shard frames, so frame
//! payloads flow directly between worker threads and never through the
//! coordinator (see `parallel.rs`).
//!
//! The implementation is a classic Lamport queue with monotonic positions:
//! `head`/`tail` count elements ever popped/pushed and index the buffer
//! modulo a power-of-two capacity. The producer publishes a slot with a
//! `Release` store of `tail` and the consumer acquires it with an
//! `Acquire` load (and vice versa for slot reuse), which is the entire
//! synchronization protocol — no locks, no CAS, one atomic store per
//! operation. The consumer caches `tail` and refreshes it only on apparent
//! empty; the producer re-reads `head` after each push, which both frees
//! space early and measures occupancy for the high-water gauge.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    /// Elements ever popped (owned by the consumer, read by the producer).
    head: AtomicUsize,
    /// Elements ever pushed (owned by the producer, read by the consumer).
    tail: AtomicUsize,
}

// The ring hands each `T` from exactly one thread to exactly one other;
// slots are never aliased thanks to the head/tail protocol below.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Both handles are gone; drain whatever was pushed but never popped.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            unsafe {
                self.buf[pos & self.mask].get().read().assume_init_drop();
            }
        }
    }
}

/// The producing half of a ring created by [`channel`].
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    /// Producer-private copy of `tail` (only the producer advances it).
    tail: usize,
    /// Last observed `head`; refreshed after every push and whenever the
    /// ring looks full.
    cached_head: usize,
    /// Peak occupancy observed right after a successful push (telemetry;
    /// an underestimate only by the consumer's concurrent progress).
    high_water: usize,
    /// Pushes that found the ring full at least once before succeeding.
    stalls: u64,
}

/// The consuming half of a ring created by [`channel`].
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    /// Consumer-private copy of `head` (only the consumer advances it).
    head: usize,
    /// Last observed `tail`; refreshed only when the ring looks empty.
    cached_tail: usize,
}

/// Creates a bounded SPSC ring holding at least `capacity` elements
/// (rounded up to a power of two, minimum 2) and returns its two handles.
pub fn channel<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    let cap = capacity.max(2).next_power_of_two();
    let buf = (0..cap)
        .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
        .collect::<Vec<_>>()
        .into_boxed_slice();
    let inner = Arc::new(Inner {
        buf,
        mask: cap - 1,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
    });
    (
        Producer {
            inner: Arc::clone(&inner),
            tail: 0,
            cached_head: 0,
            high_water: 0,
            stalls: 0,
        },
        Consumer {
            inner,
            head: 0,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Capacity of the ring (a power of two).
    pub fn capacity(&self) -> usize {
        self.inner.mask + 1
    }

    /// Peak occupancy observed after any successful push. Telemetry only:
    /// the consumer may have drained concurrently, so this is a lower
    /// bound on the true peak — but it is exact for the inline backend.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Pushes that found the ring full at least once before succeeding
    /// (each is a producer spin — backpressure the coordinator felt).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Pushes `value`, or returns it if the ring is full.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let cap = self.inner.mask + 1;
        if self.tail - self.cached_head == cap {
            // Looks full: refresh the consumer's progress. `Acquire` pairs
            // with the consumer's `Release` store of `head`, so the slot we
            // are about to overwrite has really been read out.
            self.cached_head = self.inner.head.load(Ordering::Acquire);
            if self.tail - self.cached_head == cap {
                return Err(value);
            }
        }
        unsafe {
            (*self.inner.buf[self.tail & self.inner.mask].get()).write(value);
        }
        // `Release` publishes the slot write above to the consumer's
        // matching `Acquire` load of `tail`.
        self.inner.tail.store(self.tail + 1, Ordering::Release);
        self.tail += 1;
        // Measure occupancy against the consumer's published `head`, not
        // a copy last refreshed at an apparent full ring. `Acquire` pairs
        // with the consumer's `Release` store of `head`, as in the full
        // check above, so the refreshed copy is also safe for that check.
        self.cached_head = self.inner.head.load(Ordering::Acquire);
        let occupancy = self.tail - self.cached_head;
        if occupancy > self.high_water {
            self.high_water = occupancy;
        }
        Ok(())
    }

    /// Pushes `value`, spinning (with `yield_now`) while the ring is full.
    /// Callers must guarantee the consumer is alive and draining — in the
    /// shard coordinator this holds because a non-empty ring forces the
    /// receiver to be dispatched, and termination is only signalled after
    /// every producer has gone quiet (see `parallel.rs`).
    pub fn push(&mut self, mut value: T) {
        let mut stalled = false;
        loop {
            match self.try_push(value) {
                Ok(()) => return,
                Err(v) => {
                    if !stalled {
                        stalled = true;
                        self.stalls += 1;
                    }
                    value = v;
                    std::thread::yield_now();
                }
            }
        }
    }
}

impl<T> Consumer<T> {
    /// Pops the oldest element, or `None` if the ring is empty.
    pub fn try_pop(&mut self) -> Option<T> {
        if self.cached_tail == self.head {
            // Looks empty: refresh the producer's progress. `Acquire` pairs
            // with the producer's `Release` store of `tail`, making the
            // slot contents visible.
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
            if self.cached_tail == self.head {
                return None;
            }
        }
        let value = unsafe {
            self.inner.buf[self.head & self.inner.mask]
                .get()
                .read()
                .assume_init()
        };
        // `Release` hands the emptied slot back to the producer's matching
        // `Acquire` load of `head`.
        self.inner.head.store(self.head + 1, Ordering::Release);
        self.head += 1;
        Some(value)
    }

    /// Peeks at the oldest element without consuming it.
    pub fn peek(&mut self) -> Option<&T> {
        if self.cached_tail == self.head {
            self.cached_tail = self.inner.tail.load(Ordering::Acquire);
            if self.cached_tail == self.head {
                return None;
            }
        }
        Some(unsafe { (*self.inner.buf[self.head & self.inner.mask].get()).assume_init_ref() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let (p, _c) = channel::<u32>(0);
        assert_eq!(p.capacity(), 2);
        let (p, _c) = channel::<u32>(5);
        assert_eq!(p.capacity(), 8);
        let (p, _c) = channel::<u32>(8);
        assert_eq!(p.capacity(), 8);
    }

    #[test]
    fn full_and_empty_boundaries() {
        let (mut p, mut c) = channel::<u32>(4);
        assert_eq!(c.try_pop(), None, "fresh ring is empty");
        for i in 0..4 {
            assert!(p.try_push(i).is_ok());
        }
        assert_eq!(p.try_push(99), Err(99), "full ring rejects");
        assert_eq!(c.try_pop(), Some(0));
        assert!(p.try_push(4).is_ok(), "one pop frees one slot");
        assert_eq!(p.try_push(99), Err(99), "and only one");
        for want in 1..=4 {
            assert_eq!(c.try_pop(), Some(want));
        }
        assert_eq!(c.try_pop(), None, "drained ring is empty again");
    }

    #[test]
    fn wraparound_preserves_order_and_values() {
        // Push/pop far more than the capacity so head and tail lap the
        // buffer many times; FIFO order must survive every wrap.
        let (mut p, mut c) = channel::<u64>(4);
        let mut next_pop = 0u64;
        for i in 0..10_000u64 {
            p.push(i);
            // Drain in bursts of 3 to keep occupancy oscillating across
            // the full/empty boundary at misaligned phases.
            if i % 3 == 2 {
                for _ in 0..3 {
                    assert_eq!(c.try_pop(), Some(next_pop));
                    next_pop += 1;
                }
            }
        }
        while let Some(v) = c.try_pop() {
            assert_eq!(v, next_pop);
            next_pop += 1;
        }
        assert_eq!(next_pop, 10_000);
    }

    #[test]
    fn high_water_tracks_occupancy_not_pushes() {
        let (mut p, mut c) = channel::<u32>(16);
        for i in 0..20 {
            p.push(i);
            assert_eq!(c.try_pop(), Some(i));
        }
        assert_eq!(p.high_water(), 1, "never more than one element queued");
        p.push(20);
        p.push(21);
        assert_eq!(p.high_water(), 2);
    }

    #[test]
    fn peek_does_not_consume() {
        let (mut p, mut c) = channel::<u32>(2);
        assert!(c.peek().is_none());
        p.push(7);
        assert_eq!(c.peek(), Some(&7));
        assert_eq!(c.peek(), Some(&7), "peek is idempotent");
        assert_eq!(c.try_pop(), Some(7));
        assert!(c.peek().is_none());
    }

    #[test]
    fn cross_thread_ordering_is_fifo_and_lossless() {
        // A tiny ring forces constant wraparound and full/empty contention
        // while a producer thread races the consuming test thread. Every
        // value must arrive exactly once, in order — this is the
        // Release/Acquire pairing under real contention.
        const N: u64 = 200_000;
        let (mut p, mut c) = channel::<u64>(8);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(i);
            }
        });
        let mut expected = 0u64;
        while expected < N {
            if let Some(v) = c.try_pop() {
                assert_eq!(v, expected, "FIFO order violated");
                expected += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(c.try_pop(), None);
    }

    #[test]
    fn cross_thread_batches_are_seen_fully_written() {
        // Payloads with interior structure: the consumer must observe every
        // element of a pushed Vec, i.e. the Release store publishes the
        // whole slot write, not just the pointer.
        const N: usize = 20_000;
        let (mut p, mut c) = channel::<Vec<usize>>(4);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push(vec![i, i.wrapping_mul(31), i ^ 0xABCD]);
            }
        });
        let mut seen = 0;
        while seen < N {
            if let Some(batch) = c.try_pop() {
                assert_eq!(batch, vec![seen, seen.wrapping_mul(31), seen ^ 0xABCD]);
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn dropping_the_ring_drops_unpopped_elements() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Token;
        impl Drop for Token {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut p, mut c) = channel::<Token>(4);
        for _ in 0..3 {
            p.push(Token);
        }
        drop(c.try_pop()); // one popped and dropped by us
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        drop(p);
        drop(c);
        assert_eq!(DROPS.load(Ordering::SeqCst), 3, "ring drained on drop");
    }
}
