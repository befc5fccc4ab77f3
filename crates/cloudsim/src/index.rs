//! Incremental free-capacity index over a VM/node fleet.
//!
//! Every placement policy in the simulator ("most requested", bin-pack,
//! spread) is an argmin/argmax of a per-node score that depends only on the
//! node's capacity and its current usage. The naive implementation rescans
//! the whole fleet per pod, so a churn simulation is quadratic in fleet
//! size. This index keeps nodes bucketed by *quantized free share* so a
//! query touches only the few buckets that can contain the winner.
//!
//! # Structure
//!
//! Nodes are grouped into **capacity classes** (one per distinct capacity
//! vector — a handful in practice: the m5 catalog has six models). Each
//! class holds a [`GRID`]`x`[`GRID`] grid of buckets; a node with free
//! vector `(fc, fm)` and capacity `(Cc, Cm)` lives in cell
//! `(floor(fc*G/Cc), floor(fm*G/Cm))`, clamped to `G-1` (axes with zero
//! capacity map to coordinate 0). A request `(rc, rm)` induces *floor*
//! coordinates `(fi, fj)` the same way; every feasible node sits in the
//! quadrant `ci >= fi, cj >= fj`, so a query walks that quadrant in score
//! order — diagonals `ci+cj = L` for the sum-of-shares policies, L-shells
//! `max(ci,cj) = S` for bin-pack — and stops as soon as the best candidate
//! found provably beats everything in the unvisited cells.
//!
//! Each class also keeps one 32-bit occupancy mask per diagonal (bit `ci`
//! of mask `L` is set while cell `(ci, L - ci)` has a member), so the
//! diagonal walk visits only occupied cells: most of a quadrant is empty.
//!
//! # Exactness
//!
//! Scores are compared as exact rationals (`u128` cross-multiplication,
//! or the numerators alone when two scores share a denominator, as every
//! candidate of one class does), never floats, and every candidate is
//! re-checked for exact feasibility,
//! so [`FreeCapIndex::pick`] returns *bit-identically* the same node as the
//! reference full scan [`FreeCapIndex::pick_naive`] — the property tests
//! exercise this under random churn. Coordinates and capacities must stay
//! below `2^31` per axis (2.1M vCPU / 2 PiB — far above any real node) so
//! the cross-products fit in `u128`. Equal scores go to the smallest
//! node id.

use crate::resources::Res;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Buckets per axis in each capacity class's grid.
pub const GRID: usize = 32;

// A diagonal's occupancy mask holds one bit per grid row.
const _: () = assert!(GRID <= u32::BITS as usize);

/// Per-axis magnitude bound (exclusive) for capacities and usage.
const MAX_DIM: u64 = 1 << 31;

/// Placement policy evaluated by [`FreeCapIndex::pick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacePolicy {
    /// Minimize the post-placement sum of free shares: pick the node that
    /// ends up *fullest* on average (the Kubernetes `MostAllocated` /
    /// "most requested" bias that consolidates load).
    MostRequested,
    /// Minimize the post-placement *dominant* free share
    /// `max(free_cpu/Cc, free_mem/Cm)`: classic dominant-resource
    /// bin-packing, tightest fit first.
    BinPack,
    /// Maximize the post-placement sum of free shares: pick the emptiest
    /// node (the `LeastAllocated` spread bias).
    Spread,
}

/// Exact rational score with `u128` cross-multiplied comparison.
///
/// Numerators are bounded by `2 * MAX_DIM^2 = 2^63` and denominators by
/// `MAX_DIM^2 = 2^62`, so cross products stay below `2^125 < 2^128`.
#[derive(Debug, Clone, Copy)]
struct Frac {
    num: u64,
    den: u64,
}

impl Frac {
    fn cmp(self, o: Frac) -> Ordering {
        if self.den == o.den {
            return self.num.cmp(&o.num);
        }
        let a = self.num as u128 * o.den as u128;
        let b = o.num as u128 * self.den as u128;
        a.cmp(&b)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Capacity class, index into `FreeCapIndex::classes`.
    class: u32,
    /// Grid cell `ci * GRID + cj` within the class.
    cell: u32,
    /// Position within the cell's member list.
    slot: u32,
    used: Res,
    live: bool,
}

#[derive(Debug)]
struct CapClass {
    cap: Res,
    /// `GRID * GRID` member lists; cell `(ci, cj)` at `ci * GRID + cj`.
    cells: Vec<Vec<u32>>,
    /// Occupancy per diagonal: bit `ci` of `diag[L]` is set iff cell
    /// `(ci, L - ci)` has a member.
    diag: [u32; 2 * GRID - 1],
    /// Live members in this class.
    len: usize,
}

impl CapClass {
    fn new(cap: Res) -> CapClass {
        CapClass {
            cap,
            cells: (0..GRID * GRID).map(|_| Vec::new()).collect(),
            diag: [0; 2 * GRID - 1],
            len: 0,
        }
    }

    /// Marks cell `(ci, cj)` occupied or empty in its diagonal's mask.
    fn set_occupied(&mut self, ci: usize, cj: usize, occupied: bool) {
        let bit = 1u32 << ci;
        if occupied {
            self.diag[ci + cj] |= bit;
        } else {
            self.diag[ci + cj] &= !bit;
        }
    }
}

/// Quantized free-share coordinate of one axis: `floor(free*G/cap)`
/// clamped to the grid (zero-capacity axes collapse to 0).
fn axis_cell(free: u64, cap: u64) -> usize {
    match (free * GRID as u64).checked_div(cap) {
        None => 0,
        Some(q) => (q as usize).min(GRID - 1),
    }
}

/// An incremental bucket index over node free capacity.
///
/// Ids are dense `u32`s assigned by [`insert`](FreeCapIndex::insert) and
/// recycled by [`remove`](FreeCapIndex::remove); callers typically mirror
/// them 1:1 onto their own node/VM arrays.
#[derive(Debug, Default)]
pub struct FreeCapIndex {
    classes: Vec<CapClass>,
    class_ids: HashMap<Res, u32>,
    entries: Vec<Entry>,
    free_ids: Vec<u32>,
    live: usize,
}

impl FreeCapIndex {
    /// An empty index.
    pub fn new() -> FreeCapIndex {
        FreeCapIndex::default()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no node is indexed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Live-member count of every non-empty grid cell across all
    /// capacity classes — the raw occupancy distribution of the bucket
    /// index, for telemetry histograms (a skewed distribution means the
    /// grid is degenerating towards a linear scan).
    pub fn bucket_occupancy(&self) -> Vec<u64> {
        self.classes
            .iter()
            .flat_map(|k| k.cells.iter())
            .filter(|c| !c.is_empty())
            .map(|c| c.len() as u64)
            .collect()
    }

    /// Current usage of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn used(&self, id: u32) -> Res {
        let e = &self.entries[id as usize];
        assert!(e.live, "node {id} is not live");
        e.used
    }

    /// Capacity of node `id`.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn cap(&self, id: u32) -> Res {
        let e = &self.entries[id as usize];
        assert!(e.live, "node {id} is not live");
        self.classes[e.class as usize].cap
    }

    fn class_for(&mut self, cap: Res) -> u32 {
        if let Some(&k) = self.class_ids.get(&cap) {
            return k;
        }
        let k = self.classes.len() as u32;
        self.classes.push(CapClass::new(cap));
        self.class_ids.insert(cap, k);
        k
    }

    fn attach(&mut self, id: u32, class: u32, used: Res) {
        let k = &mut self.classes[class as usize];
        let free = k.cap.saturating_sub(used);
        let ci = axis_cell(free.cpu_m, k.cap.cpu_m);
        let cj = axis_cell(free.mem_mib, k.cap.mem_mib);
        let cell = (ci * GRID + cj) as u32;
        let members = &mut k.cells[cell as usize];
        let slot = members.len() as u32;
        members.push(id);
        if slot == 0 {
            k.set_occupied(ci, cj, true);
        }
        k.len += 1;
        self.entries[id as usize] = Entry {
            class,
            cell,
            slot,
            used,
            live: true,
        };
    }

    fn detach(&mut self, id: u32) {
        let e = self.entries[id as usize];
        let k = &mut self.classes[e.class as usize];
        let members = &mut k.cells[e.cell as usize];
        members.swap_remove(e.slot as usize);
        if let Some(&moved) = members.get(e.slot as usize) {
            self.entries[moved as usize].slot = e.slot;
        }
        if members.is_empty() {
            let cell = e.cell as usize;
            k.set_occupied(cell / GRID, cell % GRID, false);
        }
        k.len -= 1;
    }

    /// Adds a node with the given capacity and current usage, returning
    /// its id (recycled from removed nodes when possible).
    ///
    /// # Panics
    /// Panics if any axis reaches `2^31` or `used` exceeds `cap`.
    pub fn insert(&mut self, cap: Res, used: Res) -> u32 {
        assert!(
            cap.cpu_m < MAX_DIM && cap.mem_mib < MAX_DIM,
            "capacity axis exceeds the index bound"
        );
        assert!(used.fits_in(cap), "used {used:?} exceeds capacity {cap:?}");
        let class = self.class_for(cap);
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                let id = self.entries.len() as u32;
                self.entries.push(Entry {
                    class: 0,
                    cell: 0,
                    slot: 0,
                    used: Res::ZERO,
                    live: false,
                });
                id
            }
        };
        self.attach(id, class, used);
        self.live += 1;
        id
    }

    /// Removes node `id`; its id may be recycled by a later insert.
    ///
    /// # Panics
    /// Panics if `id` is not live.
    pub fn remove(&mut self, id: u32) {
        assert!(self.entries[id as usize].live, "node {id} is not live");
        self.detach(id);
        self.entries[id as usize].live = false;
        self.free_ids.push(id);
        self.live -= 1;
    }

    /// Replaces node `id`'s usage total (capacity unchanged).
    ///
    /// # Panics
    /// Panics if `id` is not live or `used` exceeds the capacity.
    pub fn update_used(&mut self, id: u32, used: Res) {
        let e = self.entries[id as usize];
        assert!(e.live, "node {id} is not live");
        let k = &self.classes[e.class as usize];
        assert!(
            used.fits_in(k.cap),
            "used {used:?} exceeds capacity {:?}",
            k.cap
        );
        let free = k.cap.saturating_sub(used);
        let ci = axis_cell(free.cpu_m, k.cap.cpu_m);
        let cj = axis_cell(free.mem_mib, k.cap.mem_mib);
        let cell = (ci * GRID + cj) as u32;
        if cell == e.cell {
            self.entries[id as usize].used = used;
        } else {
            let class = e.class;
            self.detach(id);
            self.attach(id, class, used);
        }
    }

    /// Adds `req` to node `id`'s usage (a committed placement).
    ///
    /// # Panics
    /// Panics if the result exceeds the node's capacity.
    pub fn commit(&mut self, id: u32, req: Res) {
        let used = self.used(id) + req;
        self.update_used(id, used);
    }

    /// Subtracts `req` from node `id`'s usage (a departure).
    ///
    /// # Panics
    /// Panics if `req` exceeds the node's current usage.
    pub fn release(&mut self, id: u32, req: Res) {
        let used = self.used(id) - req;
        self.update_used(id, used);
    }

    /// Picks the best feasible node for `req` under `policy`, or `None`
    /// when nothing fits; equal scores go to the smallest id.
    /// Bit-identical to [`pick_naive`](Self::pick_naive).
    pub fn pick(&self, req: Res, policy: PlacePolicy) -> Option<u32> {
        let minimize = !matches!(policy, PlacePolicy::Spread);
        let mut best: Option<(Frac, u32)> = None;
        for k in &self.classes {
            let cand = match policy {
                PlacePolicy::MostRequested => self.scan_sum(k, req, false),
                PlacePolicy::Spread => self.scan_sum(k, req, true),
                PlacePolicy::BinPack => self.scan_binpack(k, req),
            };
            if let Some((f, id)) = cand {
                take_better(&mut best, f, id, minimize);
            }
        }
        best.map(|(_, id)| id)
    }

    /// Reference implementation of [`pick`](Self::pick): an exhaustive
    /// scan over every live node with the same exact-rational scoring.
    pub fn pick_naive(&self, req: Res, policy: PlacePolicy) -> Option<u32> {
        let minimize = !matches!(policy, PlacePolicy::Spread);
        let mut best: Option<(Frac, u32)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.live {
                continue;
            }
            let cap = self.classes[e.class as usize].cap;
            let free = cap.saturating_sub(e.used);
            if !req.fits_in(free) {
                continue;
            }
            let f = score(cap, free, req, policy);
            take_better(&mut best, f, i as u32, minimize);
        }
        best.map(|(_, id)| id)
    }

    /// Diagonal walk for the sum-of-free-shares policies. Ascending levels
    /// minimize (most-requested); descending levels maximize (spread).
    /// Each level visits only the occupied cells its mask names.
    fn scan_sum(&self, k: &CapClass, req: Res, spread: bool) -> Option<(Frac, u32)> {
        if k.len == 0 || !req.fits_in(k.cap) {
            return None;
        }
        let (cc, cm) = (k.cap.cpu_m.max(1), k.cap.mem_mib.max(1));
        let den = cc * cm;
        let fi = axis_cell(req.cpu_m, k.cap.cpu_m);
        let fj = axis_cell(req.mem_mib, k.cap.mem_mib);
        // R = rc/cc + rm/cm as rn/den: the score drop caused by placement.
        let rn = req.cpu_m * cm + req.mem_mib * cc;
        let mut best: Option<(Frac, u32)> = None;
        let (first, last) = (fi + fj, 2 * (GRID - 1));
        for step in 0..=last - first {
            let level = if spread { last - step } else { first + step };
            if let Some((b, _)) = best {
                // A member of level L has free-share sum in
                // [L/G, (L+2)/G], so its post-placement score lies in
                // [L/G - R, (L+2)/G - R]. Stop (strictly — equal scores
                // must still be scanned for the tie-break) once the whole
                // remaining range cannot beat the incumbent.
                let done = if spread {
                    ((level + 2) as u128) * (den as u128)
                        < (b.num as u128 + rn as u128) * (GRID as u128)
                } else {
                    (level as u128) * (den as u128) > (b.num as u128 + rn as u128) * (GRID as u128)
                };
                if done {
                    break;
                }
            }
            let lo = fi.max(level.saturating_sub(GRID - 1));
            let hi = (GRID - 1).min(level - fj);
            // The occupied rows lo..=hi of this diagonal (lo <= hi holds
            // for every level from fi + fj up).
            let span = (u32::MAX >> (u32::BITS as usize - 1 - hi)) & (u32::MAX << lo);
            let mut rows = k.diag[level] & span;
            while rows != 0 {
                let ci = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                let cj = level - ci;
                for &id in &k.cells[ci * GRID + cj] {
                    let e = &self.entries[id as usize];
                    let free = k.cap.saturating_sub(e.used);
                    if !req.fits_in(free) {
                        continue;
                    }
                    let fa_c = free.cpu_m - req.cpu_m;
                    let fa_m = free.mem_mib - req.mem_mib;
                    let f = Frac {
                        num: fa_c * cm + fa_m * cc,
                        den,
                    };
                    take_better(&mut best, f, id, !spread);
                }
            }
        }
        best
    }

    /// L-shell walk for dominant-resource bin-packing: ascending shells
    /// `max(ci, cj) = S`, minimizing the post-placement dominant free
    /// share.
    fn scan_binpack(&self, k: &CapClass, req: Res) -> Option<(Frac, u32)> {
        if k.len == 0 || !req.fits_in(k.cap) {
            return None;
        }
        let (cc, cm) = (k.cap.cpu_m.max(1), k.cap.mem_mib.max(1));
        let den = cc * cm;
        let fi = axis_cell(req.cpu_m, k.cap.cpu_m);
        let fj = axis_cell(req.mem_mib, k.cap.mem_mib);
        // Dominant requested share max(rc/cc, rm/cm), over den.
        let rbp = (req.cpu_m * cm).max(req.mem_mib * cc);
        let mut best: Option<(Frac, u32)> = None;
        for s in fi.max(fj)..GRID {
            if let Some((b, _)) = best {
                // A member of shell S has dominant free share >= S/G, so
                // its post-placement score is >= S/G - rbp/den.
                if (s as u128) * (den as u128) > (b.num as u128 + rbp as u128) * (GRID as u128) {
                    break;
                }
            }
            let visit = |cell: usize, best: &mut Option<(Frac, u32)>| {
                for &id in &k.cells[cell] {
                    let e = &self.entries[id as usize];
                    let free = k.cap.saturating_sub(e.used);
                    if !req.fits_in(free) {
                        continue;
                    }
                    let fa_c = free.cpu_m - req.cpu_m;
                    let fa_m = free.mem_mib - req.mem_mib;
                    let f = Frac {
                        num: (fa_c * cm).max(fa_m * cc),
                        den,
                    };
                    take_better(best, f, id, true);
                }
            };
            // Column ci = s (cj in fj..=s), then row cj = s (ci in fi..s);
            // the corner (s, s) is visited exactly once.
            for cj in fj..=s {
                visit(s * GRID + cj, &mut best);
            }
            for ci in fi..s {
                visit(ci * GRID + s, &mut best);
            }
        }
        best
    }
}

/// Exact post-placement score of one node under `policy`.
fn score(cap: Res, free: Res, req: Res, policy: PlacePolicy) -> Frac {
    let (cc, cm) = (cap.cpu_m.max(1), cap.mem_mib.max(1));
    let fa_c = free.cpu_m - req.cpu_m;
    let fa_m = free.mem_mib - req.mem_mib;
    let num = match policy {
        PlacePolicy::MostRequested | PlacePolicy::Spread => fa_c * cm + fa_m * cc,
        PlacePolicy::BinPack => (fa_c * cm).max(fa_m * cc),
    };
    Frac { num, den: cc * cm }
}

/// Replaces `best` with `(f, id)` when strictly better under the policy
/// direction, or equal with a smaller id.
fn take_better(best: &mut Option<(Frac, u32)>, f: Frac, id: u32, minimize: bool) {
    let better = match *best {
        None => true,
        Some((b, bid)) => match (f.cmp(b), minimize) {
            (Ordering::Less, true) | (Ordering::Greater, false) => true,
            (Ordering::Less, false) | (Ordering::Greater, true) => false,
            (Ordering::Equal, _) => id < bid,
        },
    };
    if better {
        *best = Some((f, id));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::M5_CATALOG;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const POLICIES: [PlacePolicy; 3] = [
        PlacePolicy::MostRequested,
        PlacePolicy::BinPack,
        PlacePolicy::Spread,
    ];

    #[test]
    fn empty_index_picks_nothing() {
        let idx = FreeCapIndex::new();
        for p in POLICIES {
            assert_eq!(idx.pick(Res::new(1, 1), p), None);
        }
    }

    #[test]
    fn most_requested_prefers_the_fullest_node() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(8_000, 32_768);
        let a = idx.insert(cap, Res::new(1_000, 4_096));
        let b = idx.insert(cap, Res::new(6_000, 24_576));
        let c = idx.insert(cap, Res::ZERO);
        let req = Res::new(1_000, 4_096);
        assert_eq!(idx.pick(req, PlacePolicy::MostRequested), Some(b));
        assert_eq!(idx.pick(req, PlacePolicy::Spread), Some(c));
        // Fill b so the request no longer fits there.
        idx.commit(b, Res::new(2_000, 8_000));
        assert_eq!(idx.pick(req, PlacePolicy::MostRequested), Some(a));
    }

    #[test]
    fn binpack_minimizes_dominant_leftover() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(10_000, 10_000);
        // After placing (1000,1000): a leaves max share 0.8, b leaves 0.3.
        let _a = idx.insert(cap, Res::new(1_000, 500));
        let b = idx.insert(cap, Res::new(6_000, 4_000));
        assert_eq!(
            idx.pick(Res::new(1_000, 1_000), PlacePolicy::BinPack),
            Some(b)
        );
    }

    #[test]
    fn infeasible_requests_return_none() {
        let mut idx = FreeCapIndex::new();
        idx.insert(Res::new(1_000, 1_000), Res::new(900, 900));
        for p in POLICIES {
            assert_eq!(idx.pick(Res::new(200, 10), p), None);
        }
    }

    #[test]
    fn equal_scores_pick_the_smallest_id() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(4_000, 4_000);
        let a = idx.insert(cap, Res::ZERO);
        let _b = idx.insert(cap, Res::ZERO);
        let req = Res::new(100, 100);
        for p in POLICIES {
            assert_eq!(idx.pick(req, p), Some(a));
        }
    }

    #[test]
    fn zero_capacity_nodes_only_accept_zero_requests() {
        let mut idx = FreeCapIndex::new();
        let drained = idx.insert(Res::ZERO, Res::ZERO);
        assert_eq!(idx.pick(Res::new(1, 0), PlacePolicy::MostRequested), None);
        assert_eq!(
            idx.pick(Res::ZERO, PlacePolicy::MostRequested),
            Some(drained)
        );
    }

    #[test]
    fn remove_recycles_ids() {
        let mut idx = FreeCapIndex::new();
        let cap = Res::new(1_000, 1_000);
        let a = idx.insert(cap, Res::ZERO);
        let _b = idx.insert(cap, Res::ZERO);
        idx.remove(a);
        assert_eq!(idx.len(), 1);
        let c = idx.insert(cap, Res::new(10, 10));
        assert_eq!(c, a, "freed id is recycled");
        assert_eq!(idx.used(c), Res::new(10, 10));
    }

    /// Every class's diagonal occupancy masks, rebuilt from its member
    /// lists. A bit left set on an emptied cell only costs time, so
    /// `pick == pick_naive` cannot see it; comparing against this can.
    fn rebuilt_masks(idx: &FreeCapIndex) -> Vec<[u32; 2 * GRID - 1]> {
        idx.classes
            .iter()
            .map(|k| {
                let mut diag = [0u32; 2 * GRID - 1];
                for (cell, members) in k.cells.iter().enumerate() {
                    if !members.is_empty() {
                        let (ci, cj) = (cell / GRID, cell % GRID);
                        diag[ci + cj] |= 1 << ci;
                    }
                }
                diag
            })
            .collect()
    }

    /// Exhaustive equivalence under random churn: after every mutation the
    /// occupancy masks must equal a rebuild, the indexed pick must equal
    /// the naive full scan for every policy, and any pick must be feasible.
    #[test]
    fn pick_matches_naive_under_random_churn() {
        let mut rng = StdRng::seed_from_u64(0x1d5eed);
        let mut idx = FreeCapIndex::new();
        let mut live: Vec<u32> = Vec::new();
        for step in 0..4_000 {
            // Mutate: insert, remove, or update a node.
            let op = rng.gen_range(0u32..10);
            if live.is_empty() || op < 4 {
                let cap = if rng.gen_bool(0.8) {
                    let m = &M5_CATALOG[rng.gen_range(0..M5_CATALOG.len())];
                    m.capacity()
                } else {
                    Res::new(rng.gen_range(0u64..5_000), rng.gen_range(0u64..20_000))
                };
                let used = Res::new(rng.gen_range(0..=cap.cpu_m), rng.gen_range(0..=cap.mem_mib));
                live.push(idx.insert(cap, used));
            } else if op < 6 {
                let i = rng.gen_range(0..live.len());
                idx.remove(live.swap_remove(i));
            } else {
                let id = live[rng.gen_range(0..live.len())];
                let cap = idx.cap(id);
                let used = Res::new(rng.gen_range(0..=cap.cpu_m), rng.gen_range(0..=cap.mem_mib));
                idx.update_used(id, used);
            }
            let masks: Vec<_> = idx.classes.iter().map(|k| k.diag).collect();
            assert_eq!(masks, rebuilt_masks(&idx), "occupancy masks at step {step}");
            // Query: a mix of small, large, and degenerate requests.
            let req = match rng.gen_range(0u32..4) {
                0 => Res::ZERO,
                1 => Res::new(rng.gen_range(0u64..2_000), rng.gen_range(0u64..8_192)),
                2 => Res::new(rng.gen_range(0u64..100_000), rng.gen_range(0u64..400_000)),
                _ => Res::new(rng.gen_range(0u64..500), rng.gen_range(0u64..100_000)),
            };
            for p in POLICIES {
                let fast = idx.pick(req, p);
                let slow = idx.pick_naive(req, p);
                assert_eq!(fast, slow, "step {step} policy {p:?} req {req:?}");
                if let Some(id) = fast {
                    assert!(
                        req.fits_in(idx.cap(id).saturating_sub(idx.used(id))),
                        "infeasible pick at step {step}"
                    );
                }
            }
        }
    }
}
