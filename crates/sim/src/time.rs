//! Simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time (equivalently, a duration since time zero),
/// stored as integer **picoseconds**.
///
/// Picosecond resolution is needed because DDR4-3200 runs a 1.6 GHz command
/// clock (tCK = 625 ps) and half-cycle timing parameters appear in the DRAM
/// model. A `u64` of picoseconds covers ~213 days of simulated time, far
/// beyond any experiment in the paper.
///
/// `SimTime` is used both as an absolute timestamp and as a duration; the
/// arithmetic impls (`+`, `-`, scalar `*`, `/`) are the usual ones. Overflow
/// in arithmetic panics in debug builds and wraps in release builds like any
/// other integer arithmetic; simulations stay many orders of magnitude below
/// the limit.
///
/// ```
/// use mcn_sim::SimTime;
/// let t = SimTime::from_us(1) + SimTime::from_ns(500);
/// assert_eq!(t.as_ns(), 1_500);
/// assert_eq!(t * 2, SimTime::from_ns(3_000));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero / the zero duration.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; useful as an "infinity" sentinel when
    /// picking the minimum of several optional deadlines.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000_000)
    }

    /// Creates a time from a floating-point number of seconds, rounding to
    /// the nearest picosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * 1e12).round() as u64)
    }

    /// Creates a time from a floating-point number of nanoseconds, rounding
    /// to the nearest picosecond. Negative inputs clamp to zero.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        SimTime((ns.max(0.0) * 1e3).round() as u64)
    }

    /// This time as picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time as whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// This time as whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// This time as a floating-point number of seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// This time as a floating-point number of nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs > self`.
    #[inline]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow.
    #[inline]
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.0.checked_add(rhs.0) {
            Some(v) => Some(SimTime(v)),
            None => None,
        }
    }

    /// The duration needed to move `bytes` bytes at `bytes_per_sec`.
    ///
    /// This helper appears throughout the link, DMA and memory-copy models.
    /// A zero rate yields [`SimTime::MAX`] ("never completes").
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> SimTime {
        if bytes_per_sec <= 0.0 {
            SimTime::MAX
        } else {
            SimTime::from_secs_f64(bytes as f64 / bytes_per_sec)
        }
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    /// Formats with an auto-selected unit: `1.234 us`, `625 ps`, ...
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == u64::MAX {
            write!(f, "inf")
        } else if ps >= 1_000_000_000_000 {
            write!(f, "{:.3} s", ps as f64 / 1e12)
        } else if ps >= 1_000_000_000 {
            write!(f, "{:.3} ms", ps as f64 / 1e9)
        } else if ps >= 1_000_000 {
            write!(f, "{:.3} us", ps as f64 / 1e6)
        } else if ps >= 1_000 {
            write!(f, "{:.3} ns", ps as f64 / 1e3)
        } else {
            write!(f, "{ps} ps")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_ns(1), SimTime::from_ps(1_000));
        assert_eq!(SimTime::from_us(1), SimTime::from_ns(1_000));
        assert_eq!(SimTime::from_ms(1), SimTime::from_us(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_ms(1_000));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(1.5e-6);
        assert_eq!(t, SimTime::from_ns(1_500));
        assert!((t.as_secs_f64() - 1.5e-6).abs() < 1e-18);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_ns(100);
        let b = SimTime::from_ns(30);
        assert_eq!(a + b, SimTime::from_ns(130));
        assert_eq!(a - b, SimTime::from_ns(70));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a * 3, SimTime::from_ns(300));
        assert_eq!(a / 4, SimTime::from_ns(25));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn for_bytes_rate() {
        // 10 GbE = 1.25e9 B/s; a 1250-byte frame takes exactly 1 us on the wire.
        let t = SimTime::for_bytes(1250, 1.25e9);
        assert_eq!(t, SimTime::from_us(1));
        assert_eq!(SimTime::for_bytes(1, 0.0), SimTime::MAX);
    }

    #[test]
    fn min_max_sum() {
        let a = SimTime::from_ns(5);
        let b = SimTime::from_ns(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: SimTime = [a, b, a].into_iter().sum();
        assert_eq!(total, SimTime::from_ns(19));
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_ps(625).to_string(), "625 ps");
        assert_eq!(SimTime::from_ns(1500).to_string(), "1.500 us");
        assert_eq!(SimTime::MAX.to_string(), "inf");
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_ps(1)), None);
        assert_eq!(
            SimTime::ZERO.checked_add(SimTime::from_ns(1)),
            Some(SimTime::from_ns(1))
        );
    }
}
