//! Virtual time and rate types.
//!
//! All simulation time is carried as [`Nanos`], a `u64` nanosecond
//! count since simulation start. 2^64 ns ≈ 584 years, so overflow is
//! not a practical concern; arithmetic is nevertheless saturating on
//! subtraction to keep invariants local.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    pub const ZERO: Nanos = Nanos(0);
    pub const MAX: Nanos = Nanos(u64::MAX);

    #[must_use]
    pub const fn from_nanos(n: u64) -> Self {
        Nanos(n)
    }
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }
    #[must_use]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }
    #[must_use]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }
    /// Construct from a floating-point second count (e.g. scenario
    /// configs). Negative inputs clamp to zero.
    #[must_use]
    pub fn from_secs_f64(s: f64) -> Self {
        Nanos((s.max(0.0) * 1e9) as u64)
    }

    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }
    #[must_use]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference: `self - other`, or zero when `other`
    /// is later.
    #[must_use]
    pub fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Scale a span by a dimensionless factor (used for jitter).
    #[must_use]
    pub fn mul_f64(self, f: f64) -> Nanos {
        Nanos((self.0 as f64 * f.max(0.0)) as u64)
    }
}

impl Add for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// Panics in debug builds on underflow: a time going backwards is
    /// always a simulation bug worth catching loudly.
    fn sub(self, rhs: Nanos) -> Nanos {
        debug_assert!(self.0 >= rhs.0, "Nanos underflow: {self:?} - {rhs:?}");
        Nanos(self.0 - rhs.0)
    }
}

impl fmt::Debug for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// A data rate. Stored as bits per second to match how the paper
/// reports every throughput number (Gb/s).
#[derive(Clone, Copy, PartialEq, PartialOrd, Debug)]
pub struct Bandwidth {
    bits_per_sec: f64,
}

impl Bandwidth {
    #[must_use]
    pub const fn from_gbps(g: f64) -> Self {
        Bandwidth {
            bits_per_sec: g * 1e9,
        }
    }

    /// Time to serialize `bytes` at this rate.
    #[must_use]
    pub fn tx_time(self, bytes: u64) -> Nanos {
        if self.bits_per_sec <= 0.0 {
            return Nanos::MAX;
        }
        Nanos(((bytes as f64 * 8.0) / self.bits_per_sec * 1e9).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(Nanos::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Nanos::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Nanos::from_micros(1);
        let b = Nanos::from_micros(2);
        assert_eq!(b.saturating_sub(a), Nanos::from_micros(1));
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
    }

    #[test]
    fn bandwidth_tx_time() {
        // 1 Gb/s: 125 bytes take 1 us.
        let bw = Bandwidth::from_gbps(1.0);
        assert_eq!(bw.tx_time(125), Nanos::from_micros(1));
        // 40 GbE: a 1538-byte frame takes ~307.6 ns.
        let bw = Bandwidth::from_gbps(40.0);
        let t = bw.tx_time(1538);
        assert!(t.as_nanos() >= 307 && t.as_nanos() <= 309, "{t:?}");
    }

    #[test]
    fn debug_formats_scale() {
        assert_eq!(format!("{:?}", Nanos(500)), "500ns");
        assert_eq!(format!("{:?}", Nanos::from_secs(2)), "2.000s");
    }
}
