//! CPU-time accounting in the paper's four categories.
//!
//! Figures 6, 7, 14 and 15 break CPU usage down between:
//!
//! * `usr` — software (application) work,
//! * `sys` — kernel work excluding interrupt handling,
//! * `soft` — kernel time servicing software interrupts (where NAT/Netfilter
//!   hooks run, and exactly what BrFusion removes),
//! * `guest` — host CPU time given to a guest VM (only meaningful at the
//!   host location).
//!
//! Accounting is attributed to a *location*: the physical host, or a guest
//! VM. The simulator charges nanoseconds of CPU work as packets traverse the
//! stack; harnesses then normalize by wall-clock time to report "cores used",
//! the unit of the paper's bar charts.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Where CPU time is spent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CpuLocation {
    /// The physical host kernel/userspace.
    Host,
    /// Inside guest VM `id` (as seen from within the VM).
    Vm(u32),
}

impl fmt::Display for CpuLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuLocation::Host => write!(f, "host"),
            CpuLocation::Vm(id) => write!(f, "vm{id}"),
        }
    }
}

/// The paper's CPU usage categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CpuCategory {
    /// Application (user-space) work.
    Usr,
    /// Kernel work excluding interrupt handling.
    Sys,
    /// Kernel time servicing software interrupts (softirq).
    Soft,
    /// Host CPU time handed to a guest vCPU (host location only).
    Guest,
}

impl CpuCategory {
    /// All categories in the paper's plotting order.
    pub const ALL: [CpuCategory; 4] = [
        CpuCategory::Usr,
        CpuCategory::Sys,
        CpuCategory::Soft,
        CpuCategory::Guest,
    ];
}

impl fmt::Display for CpuCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CpuCategory::Usr => "usr",
            CpuCategory::Sys => "sys",
            CpuCategory::Soft => "soft",
            CpuCategory::Guest => "guest",
        };
        f.write_str(s)
    }
}

/// Accumulator of CPU nanoseconds per (location, category).
///
/// One row per charged location, kept sorted by location, with one cell
/// per category. A run charges a handful of locations, so a short scan
/// finds a row faster than a tree walk; the engine charges on nearly
/// every event. A cell exists once anything touched it, even with 0 ns:
/// `==` and [`locations`](CpuAccount::locations) both see it.
#[derive(Clone, Default, PartialEq)]
pub struct CpuAccount {
    rows: Vec<Row>,
}

/// The cells of one location, indexed by `CpuCategory as usize`.
/// Untouched cells hold 0, so derived equality compares cell sets.
#[derive(Clone, Copy, PartialEq)]
struct Row {
    loc: CpuLocation,
    /// Bit `c` is set once cell `c` exists.
    touched: u8,
    ns: [u64; 4],
}

impl CpuAccount {
    /// Creates an empty account.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cell of (location, category), created (at 0) if missing.
    #[inline]
    fn cell(&mut self, loc: CpuLocation, cat: CpuCategory) -> &mut u64 {
        let i = match self.rows.iter().position(|r| r.loc == loc) {
            Some(i) => i,
            None => {
                let i = self.rows.partition_point(|r| r.loc < loc);
                let row = Row {
                    loc,
                    touched: 0,
                    ns: [0; 4],
                };
                self.rows.insert(i, row);
                i
            }
        };
        let row = &mut self.rows[i];
        row.touched |= 1 << cat as u8;
        &mut row.ns[cat as usize]
    }

    /// Every existing cell, ordered by (location, category).
    fn cells(&self) -> impl Iterator<Item = (CpuLocation, CpuCategory, u64)> + '_ {
        self.rows.iter().flat_map(|r| {
            CpuCategory::ALL
                .into_iter()
                .filter(|&c| r.touched & (1 << c as u8) != 0)
                .map(|c| (r.loc, c, r.ns[c as usize]))
        })
    }

    /// Charges `ns` nanoseconds of CPU time.
    #[inline]
    pub fn charge(&mut self, loc: CpuLocation, cat: CpuCategory, ns: u64) {
        *self.cell(loc, cat) += ns;
    }

    /// Total nanoseconds charged to (location, category).
    pub fn get(&self, loc: CpuLocation, cat: CpuCategory) -> u64 {
        self.rows
            .iter()
            .find(|r| r.loc == loc)
            .map_or(0, |r| r.ns[cat as usize])
    }

    /// Total nanoseconds charged at a location across all categories.
    pub fn total_at(&self, loc: CpuLocation) -> u64 {
        self.rows
            .iter()
            .find(|r| r.loc == loc)
            .map_or(0, |r| r.ns.iter().sum())
    }

    /// Total nanoseconds over everything.
    pub fn total(&self) -> u64 {
        self.rows.iter().flat_map(|r| r.ns).sum()
    }

    /// All locations that received any charge, in order.
    pub fn locations(&self) -> Vec<CpuLocation> {
        self.rows.iter().map(|r| r.loc).collect()
    }

    /// Merges another account into this one. Cell-wise integer addition,
    /// so merging is exact, commutative and associative — shard-local
    /// accounts fold to the same total in any order.
    pub fn merge(&mut self, other: &CpuAccount) {
        for (loc, cat, v) in other.cells() {
            *self.cell(loc, cat) += v;
        }
    }

    /// Folds shard-local accounts into one merged account (the journal
    /// merge entry point of the sharded engine).
    pub fn fold<'a>(accounts: impl IntoIterator<Item = &'a CpuAccount>) -> CpuAccount {
        let mut out = CpuAccount::new();
        for a in accounts {
            out.merge(a);
        }
        out
    }

    /// Difference `self - other` per cell, saturating at zero. Used to
    /// isolate the CPU cost of one benchmark phase.
    pub fn saturating_sub(&self, other: &CpuAccount) -> CpuAccount {
        let mut out = self.clone();
        for (loc, cat, v) in other.cells() {
            let e = out.cell(loc, cat);
            *e = e.saturating_sub(v);
        }
        out
    }

    /// Converts to a "cores used" breakdown at a location given the run's
    /// wall-clock duration in nanoseconds (the paper's bar-chart unit).
    ///
    /// # Panics
    /// Panics if `wall_ns == 0`.
    pub fn breakdown(&self, loc: CpuLocation, wall_ns: u64) -> CpuBreakdown {
        assert!(wall_ns > 0, "wall-clock duration must be positive");
        let cores = |cat| self.get(loc, cat) as f64 / wall_ns as f64;
        CpuBreakdown {
            location: loc,
            usr: cores(CpuCategory::Usr),
            sys: cores(CpuCategory::Sys),
            soft: cores(CpuCategory::Soft),
            guest: cores(CpuCategory::Guest),
        }
    }
}

/// Prints the existing cells as a map keyed by (location, category).
impl fmt::Debug for CpuAccount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cells = self.cells().map(|(l, c, v)| ((l, c), v));
        f.debug_map().entries(cells).finish()
    }
}

/// One bar of the paper's CPU figures: cores used per category at a location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuBreakdown {
    /// Which machine the bar describes.
    pub location: CpuLocation,
    /// Cores of application work.
    pub usr: f64,
    /// Cores of kernel (non-interrupt) work.
    pub sys: f64,
    /// Cores servicing software interrupts.
    pub soft: f64,
    /// Cores handed to guest vCPUs (host bars only).
    pub guest: f64,
}

impl CpuBreakdown {
    /// Total cores used across categories.
    pub fn total(&self) -> f64 {
        self.usr + self.sys + self.soft + self.guest
    }
}

impl fmt::Display for CpuBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: usr={:.3} sys={:.3} soft={:.3} guest={:.3} (total {:.3} cores)",
            self.location,
            self.usr,
            self.sys,
            self.soft,
            self.guest,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_get() {
        let mut a = CpuAccount::new();
        a.charge(CpuLocation::Host, CpuCategory::Sys, 100);
        a.charge(CpuLocation::Host, CpuCategory::Sys, 50);
        a.charge(CpuLocation::Vm(1), CpuCategory::Soft, 7);
        assert_eq!(a.get(CpuLocation::Host, CpuCategory::Sys), 150);
        assert_eq!(a.get(CpuLocation::Vm(1), CpuCategory::Soft), 7);
        assert_eq!(a.get(CpuLocation::Vm(2), CpuCategory::Usr), 0);
        assert_eq!(a.total_at(CpuLocation::Host), 150);
        assert_eq!(a.total(), 157);
    }

    #[test]
    fn breakdown_normalizes_to_cores() {
        let mut a = CpuAccount::new();
        // half a second of usr over a one second run = 0.5 cores
        a.charge(CpuLocation::Vm(0), CpuCategory::Usr, 500_000_000);
        a.charge(CpuLocation::Vm(0), CpuCategory::Soft, 250_000_000);
        let b = a.breakdown(CpuLocation::Vm(0), 1_000_000_000);
        assert!((b.usr - 0.5).abs() < 1e-12);
        assert!((b.soft - 0.25).abs() < 1e-12);
        assert!((b.total() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_and_sub() {
        let mut a = CpuAccount::new();
        a.charge(CpuLocation::Host, CpuCategory::Guest, 10);
        let mut b = CpuAccount::new();
        b.charge(CpuLocation::Host, CpuCategory::Guest, 5);
        b.charge(CpuLocation::Host, CpuCategory::Usr, 3);
        a.merge(&b);
        assert_eq!(a.get(CpuLocation::Host, CpuCategory::Guest), 15);
        let d = a.saturating_sub(&b);
        assert_eq!(d.get(CpuLocation::Host, CpuCategory::Guest), 10);
        assert_eq!(d.get(CpuLocation::Host, CpuCategory::Usr), 0);
    }

    #[test]
    fn fold_is_order_independent_and_associative() {
        let mut shards = Vec::new();
        for i in 0..4u64 {
            let mut a = CpuAccount::new();
            a.charge(CpuLocation::Host, CpuCategory::Sys, 100 + i);
            a.charge(CpuLocation::Host, CpuCategory::Soft, 10 * i);
            a.charge(CpuLocation::Vm(i as u32 % 2), CpuCategory::Usr, 7 * i + 1);
            shards.push(a);
        }
        let forward = CpuAccount::fold(&shards);
        let reversed = CpuAccount::fold(shards.iter().rev());
        assert_eq!(forward, reversed, "fold order must not matter");
        // ((a+b)+(c+d)) == fold(a..d): associativity of cell-wise sums.
        let mut left = CpuAccount::fold(&shards[..2]);
        let right = CpuAccount::fold(&shards[2..]);
        left.merge(&right);
        assert_eq!(left, forward);
        assert_eq!(
            forward.get(CpuLocation::Host, CpuCategory::Sys),
            4 * 100 + (1 + 2 + 3)
        );
    }

    #[test]
    fn fold_of_nothing_is_empty() {
        assert_eq!(CpuAccount::fold([]), CpuAccount::new());
    }

    #[test]
    fn locations_listed_once() {
        let mut a = CpuAccount::new();
        a.charge(CpuLocation::Vm(1), CpuCategory::Usr, 1);
        a.charge(CpuLocation::Vm(1), CpuCategory::Sys, 1);
        a.charge(CpuLocation::Host, CpuCategory::Sys, 1);
        assert_eq!(a.locations(), vec![CpuLocation::Host, CpuLocation::Vm(1)]);
    }

    /// Pins which cells exist, not only what they hold: `==` across shard
    /// counts and `locations()` in exports both see a cell charged with
    /// 0 ns, so every operation must create exactly the cells it touches.
    #[test]
    fn cells_exist_once_touched_even_at_zero() {
        use CpuCategory::{Guest, Soft, Sys, Usr};
        use CpuLocation::{Host, Vm};

        let mut zero = CpuAccount::new();
        zero.charge(Vm(3), Soft, 0);
        assert_eq!(zero.locations(), vec![Vm(3)]);
        assert_ne!(zero, CpuAccount::new());
        assert_eq!(zero.total(), 0);

        let mut a = CpuAccount::new();
        a.charge(Vm(10), Usr, 1);
        a.charge(Host, Sys, 2);
        a.charge(Vm(2), Guest, 3);
        assert_eq!(a.locations(), vec![Host, Vm(2), Vm(10)]);

        // merge and fold keep the zero cell next to the charged ones.
        let mut merged = a.clone();
        merged.merge(&zero);
        let mut want = CpuAccount::new();
        want.charge(Vm(3), Soft, 0);
        want.charge(Vm(2), Guest, 3);
        want.charge(Host, Sys, 2);
        want.charge(Vm(10), Usr, 1);
        assert_eq!(merged, want);
        assert_eq!(merged.locations(), vec![Host, Vm(2), Vm(3), Vm(10)]);
        assert_ne!(merged, a, "the merged zero cell must be visible");
        assert_eq!(CpuAccount::fold([&zero, &a]), want);
        assert_eq!(CpuAccount::fold([&zero]), zero);

        // saturating_sub keeps every cell of `self`, floors at 0 and adds
        // a zero cell for each cell only `other` has.
        let mut other = CpuAccount::new();
        other.charge(Vm(2), Guest, 9);
        other.charge(Host, Usr, 5);
        other.charge(Vm(7), Sys, 0);
        let d = a.saturating_sub(&other);
        let mut want = CpuAccount::new();
        want.charge(Vm(10), Usr, 1);
        want.charge(Host, Sys, 2);
        want.charge(Vm(2), Guest, 0);
        want.charge(Host, Usr, 0);
        want.charge(Vm(7), Sys, 0);
        assert_eq!(d, want);
        assert_eq!(d.locations(), vec![Host, Vm(2), Vm(7), Vm(10)]);
        assert_eq!(d.total_at(Host), 2);
        assert_eq!(d.total(), 3);
        assert_eq!(a.saturating_sub(&CpuAccount::new()), a);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn breakdown_rejects_zero_wall() {
        CpuAccount::new().breakdown(CpuLocation::Host, 0);
    }
}
