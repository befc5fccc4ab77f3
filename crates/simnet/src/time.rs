//! Simulated time.
//!
//! The simulator runs on a single global nanosecond clock. This is by
//! construction an *absolute clock across the virtual boundary* — the
//! property the paper obtained by hacking QEMU to pass the physical TSC
//! through to the guest (§5.2.4).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start (lossy, for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self` (time cannot run backwards).
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is in the future"),
        )
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds from nanoseconds.
    pub const fn nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds from microseconds.
    pub const fn micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds from milliseconds.
    pub const fn millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds from whole seconds.
    pub const fn secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Nanoseconds in this duration.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, fractional.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Seconds, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiply by a count (e.g. per-byte cost x length).
    pub fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(d.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(other.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        *self = *self + other;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(other.0).expect("SimDuration underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.0 as f64 / 1e3)
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.0 as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        let t2 = t + SimDuration::nanos(10);
        assert_eq!(t2.since(t), SimDuration::nanos(10));
    }

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::secs(1), SimDuration::millis(1_000));
        assert_eq!(SimDuration::millis(1), SimDuration::micros(1_000));
        assert_eq!(SimDuration::micros(1), SimDuration::nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "in the future")]
    fn since_rejects_backwards_time() {
        SimTime(5).since(SimTime(10));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::micros(12).to_string(), "12.00us");
        assert_eq!(SimDuration::millis(12).to_string(), "12.00ms");
        assert_eq!(SimDuration::secs(2).to_string(), "2.000s");
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(
            SimDuration::nanos(3).saturating_mul(4),
            SimDuration::nanos(12)
        );
        assert_eq!(
            SimDuration(u64::MAX).saturating_mul(2),
            SimDuration(u64::MAX)
        );
    }
}
