//! # dcn-simcore — deterministic discrete-event simulation core
//!
//! Foundation for the Disk|Crypt|Net reproduction: virtual time, a
//! deterministic event queue, seeded randomness, and the statistics
//! machinery (online mean/CI, histograms, time-bucketed counters) used
//! by every experiment in the paper's evaluation.
//!
//! Design follows the smoltcp idiom: components are passive state
//! machines that report the next instant they need service via
//! `poll_at()`-style methods; an explicit event loop advances them.
//! Nothing here depends on wall-clock time, so a given seed produces a
//! bit-identical run.

pub mod ids;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod zeroed;

pub use ids::{Arena, Id};
pub use queue::{EventQueue, Scheduled};
pub use rng::{prf_bytes, RankPerm, SimRng, Zipf};
pub use stats::{Histogram, MeanCi, SeriesPoint, TimeBuckets};
pub use time::{Bandwidth, Nanos};
pub use zeroed::ZeroedTable;

/// Earliest of two optional deadlines — the standard combinator for
/// merging `poll_at()` results from multiple components.
#[must_use]
pub fn earliest(a: Option<Nanos>, b: Option<Nanos>) -> Option<Nanos> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (Some(x), None) => Some(x),
        (None, y) => y,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_combinator() {
        let a = Some(Nanos::from_micros(5));
        let b = Some(Nanos::from_micros(3));
        assert_eq!(earliest(a, b), b);
        assert_eq!(earliest(a, None), a);
        assert_eq!(earliest(None, None), None);
    }

    #[test]
    fn add_span_distributes_busy_time() {
        let mut tb = TimeBuckets::new(Nanos::from_millis(10));
        // Busy from 5ms to 25ms: half of bucket 0, all of bucket 1,
        // half of bucket 2.
        tb.add_span(Nanos::from_millis(5), Nanos::from_millis(25), 1.0);
        let util = tb.rate_per_sec(Nanos::from_millis(10), Nanos::from_millis(20));
        assert!((util - 1.0).abs() < 1e-9, "util={util}");
        let total = tb.total();
        assert!((total - 0.020).abs() < 1e-9, "total={total}");
    }
}
