//! The bounded-buffer discipline every recorder stream shares: keep the
//! first `cap` items, count the rest.
//!
//! The event trace, the flight recorder's spans and the control-plane
//! journal all ride a [`Ring`], and the sharded engine merges each of
//! them the same way (see `nestless-simnet`'s `obs` module). Drops are
//! counted and exported, never silent.

/// How much a recorder stream does on the hot path. Shared by the flight
/// recorder ([`TraceConfig`](crate::TraceConfig)) and the control-plane
/// journal ([`TelemetryConfig`](crate::TelemetryConfig)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ObsMode {
    /// No per-site work at all: one branch per record site. The default.
    #[default]
    Off,
    /// Aggregates only (per-stage tables, per-kind counts); nothing
    /// retained per record, so steady state allocates nothing.
    Counters,
    /// Aggregates plus full records, bounded by the configured cap.
    Full,
}

impl ObsMode {
    /// Stable lowercase label (used in snapshots and bench output).
    pub fn label(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Counters => "counters",
            ObsMode::Full => "full",
        }
    }
}

/// Bounded store that keeps the first `cap` items pushed and counts the
/// rest as dropped. Storage grows on demand, so a generous cap reserves
/// nothing up front.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    cap: usize,
    items: Vec<T>,
    dropped: u64,
}

impl<T> Default for Ring<T> {
    /// A ring with cap 0: every push is counted as a drop.
    fn default() -> Self {
        Ring::with_cap(0)
    }
}

impl<T> Ring<T> {
    /// An empty ring retaining at most `cap` items.
    pub fn with_cap(cap: usize) -> Ring<T> {
        Ring {
            cap,
            items: Vec::new(),
            dropped: 0,
        }
    }

    /// Re-caps the ring in place. Items beyond a smaller cap move to the
    /// drop count; the kept prefix and earlier drops stay.
    pub fn set_cap(&mut self, cap: usize) {
        self.cap = cap;
        if self.items.len() > cap {
            self.dropped += (self.items.len() - cap) as u64;
            self.items.truncate(cap);
        }
    }

    /// Records an item; returns `true` if it was kept, `false` if it only
    /// bumped the drop count.
    #[inline]
    pub fn push(&mut self, item: T) -> bool {
        self.push_with(|| item)
    }

    /// Like [`push`](Ring::push), but builds the item only when it is
    /// kept — for entries that cost an allocation to render.
    #[inline]
    pub fn push_with(&mut self, make: impl FnOnce() -> T) -> bool {
        if self.items.len() < self.cap {
            self.items.push(make());
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Items kept, in push order.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Items that did not fit under the cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total items pushed (kept + dropped).
    pub fn emitted(&self) -> u64 {
        self.items.len() as u64 + self.dropped
    }

    /// Adds `n` drops observed elsewhere (a shard's ring that overflowed
    /// before the merge replayed its items).
    pub fn add_dropped(&mut self, n: u64) {
        self.dropped += n;
    }

    /// Consumes the ring, returning `(kept items, dropped count)`.
    pub fn into_parts(self) -> (Vec<T>, u64) {
        (self.items, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_with_builds_only_kept_items() {
        let mut r: Ring<String> = Ring::with_cap(1);
        let mut built = 0;
        for s in ["a", "b", "c"] {
            r.push_with(|| {
                built += 1;
                s.to_string()
            });
        }
        assert_eq!(built, 1, "dropped entries are never rendered");
        assert_eq!(r.items(), ["a"]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn set_cap_moves_the_excess_to_drops() {
        let mut r = Ring::with_cap(4);
        for i in 0..6 {
            r.push(i);
        }
        r.set_cap(2);
        assert_eq!(r.items(), [0, 1]);
        assert_eq!(r.dropped(), 4, "two overflowed, two re-capped");
        assert_eq!(r.emitted(), 6);
        r.set_cap(8);
        assert!(r.push(9), "a larger cap admits new items");
        assert_eq!(r.items(), [0, 1, 9]);
    }
}
