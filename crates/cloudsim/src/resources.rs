//! Resource vectors for the cost simulation.
//!
//! Kept independent of the packet-level crates: the cost simulation is a
//! standalone offline computation (the paper runs it on Google cluster
//! traces, §5.3.1).

use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A (CPU, memory) request or capacity.
///
/// CPU in millicores, memory in MiB — absolute units anchored to the m5
/// catalog (96 vCPU = 96 000 mc, 384 GiB = 393 216 MiB for the largest
/// model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Res {
    /// CPU request in millicores.
    pub cpu_m: u64,
    /// Memory request in MiB.
    pub mem_mib: u64,
}

impl Res {
    /// Zero resources.
    pub const ZERO: Res = Res {
        cpu_m: 0,
        mem_mib: 0,
    };

    /// Builds a resource vector.
    pub const fn new(cpu_m: u64, mem_mib: u64) -> Res {
        Res { cpu_m, mem_mib }
    }

    /// True when `self` fits inside `capacity` on both axes.
    pub fn fits_in(self, capacity: Res) -> bool {
        self.cpu_m <= capacity.cpu_m && self.mem_mib <= capacity.mem_mib
    }

    /// Component-wise saturating subtraction.
    pub fn saturating_sub(self, other: Res) -> Res {
        Res {
            cpu_m: self.cpu_m.saturating_sub(other.cpu_m),
            mem_mib: self.mem_mib.saturating_sub(other.mem_mib),
        }
    }

    /// Scalar "size" used to order pods/containers (the paper schedules
    /// "biggest first" and moves "smallest containers first"): the max of
    /// the two relative dimensions, which is what binds packing.
    pub fn size_key(self) -> u64 {
        // Normalize memory to the CPU scale: 96 000 mc ~ 393 216 MiB.
        let mem_as_cpu = self.mem_mib * 96_000 / 393_216;
        self.cpu_m.max(mem_as_cpu)
    }
}

impl Add for Res {
    type Output = Res;
    fn add(self, o: Res) -> Res {
        Res {
            cpu_m: self.cpu_m + o.cpu_m,
            mem_mib: self.mem_mib + o.mem_mib,
        }
    }
}

impl AddAssign for Res {
    fn add_assign(&mut self, o: Res) {
        *self = *self + o;
    }
}

impl Sub for Res {
    type Output = Res;
    fn sub(self, o: Res) -> Res {
        Res {
            cpu_m: self.cpu_m.checked_sub(o.cpu_m).expect("CPU underflow"),
            mem_mib: self
                .mem_mib
                .checked_sub(o.mem_mib)
                .expect("memory underflow"),
        }
    }
}

impl Sum for Res {
    fn sum<I: Iterator<Item = Res>>(iter: I) -> Res {
        iter.fold(Res::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_requires_both_axes() {
        let cap = Res::new(1000, 1000);
        assert!(Res::new(1000, 1000).fits_in(cap));
        assert!(!Res::new(1001, 1).fits_in(cap));
        assert!(!Res::new(1, 1001).fits_in(cap));
    }

    #[test]
    fn arithmetic() {
        let a = Res::new(100, 200) + Res::new(1, 2);
        assert_eq!(a, Res::new(101, 202));
        assert_eq!(a - Res::new(1, 2), Res::new(100, 200));
        assert_eq!(
            Res::new(1, 1).saturating_sub(Res::new(5, 0)),
            Res::new(0, 1)
        );
        let total: Res = [Res::new(1, 2), Res::new(3, 4)].into_iter().sum();
        assert_eq!(total, Res::new(4, 6));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn strict_sub_panics() {
        let _ = Res::new(1, 1) - Res::new(2, 0);
    }

    #[test]
    fn size_key_uses_binding_dimension() {
        // CPU-heavy container.
        assert_eq!(Res::new(4_000, 1_024).size_key(), 4_000);
        // Memory-heavy container: 393 216 MiB ~ 96 000 mc.
        let mem_heavy = Res::new(100, 393_216 / 2);
        assert_eq!(mem_heavy.size_key(), 48_000);
    }
}
