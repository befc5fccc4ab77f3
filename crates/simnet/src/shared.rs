//! Shareable service stations.
//!
//! A guest kernel processes its whole network stack — bridge forwarding,
//! Netfilter hooks, veth crossings, the virtio frontend — on the same
//! softirq core. Modeling each stage as an independent server would let the
//! nested stack pipeline work it cannot actually pipeline, hiding precisely
//! the contention the paper measures. [`SharedStation`] lets all devices of
//! one kernel serialize on one server while remaining separate [`Device`]s.
//!
//! [`Device`]: crate::device::Device

use crate::costs::StageCost;
use crate::device::Station;
use crate::engine::DevCtx;
use crate::time::SimTime;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cloneable handle to a single-server FIFO station, shareable between the
/// devices of one (guest or host) kernel.
///
/// All clones share one `busy_until` cell. `Relaxed` loads and stores
/// suffice: the value publishes no other data, and the devices sharing a
/// station are bound to one shard, which runs on one thread.
#[derive(Clone, Default)]
pub struct SharedStation(Arc<AtomicU64>);

impl SharedStation {
    /// Creates a fresh, idle station.
    pub fn new() -> SharedStation {
        SharedStation::default()
    }

    /// Serves one frame; see [`Station::serve`].
    pub fn serve(&self, cost: &StageCost, wire_len: u32, ctx: &mut DevCtx<'_>) -> SimTime {
        let mut station = Station {
            busy_until: self.busy_until(),
        };
        let done = station.serve(cost, wire_len, ctx);
        self.0.store(station.busy_until().0, Ordering::Relaxed);
        done
    }

    /// When the station next becomes idle.
    pub fn busy_until(&self) -> SimTime {
        SimTime(self.0.load(Ordering::Relaxed))
    }

    /// True if both handles refer to the same underlying station.
    pub fn same_as(&self, other: &SharedStation) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl std::fmt::Debug for SharedStation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStation")
            .field("busy_until", &self.busy_until())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = SharedStation::new();
        let b = a.clone();
        assert!(a.same_as(&b));
        assert!(!a.same_as(&SharedStation::new()));
        assert_eq!(a.busy_until(), SimTime::ZERO);
    }
}
