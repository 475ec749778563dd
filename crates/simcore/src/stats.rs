//! Statistics used to report experiments the way the paper does:
//! means with 95% confidence intervals (Figs 1/2/11/13 error bars),
//! latency histograms/CDFs (Fig 9), and time-bucketed rate counters
//! (memory-throughput panels).

use crate::time::Nanos;

/// Online mean/variance accumulator (Welford) with a normal-theory
/// 95% confidence half-interval, matching the paper's error bars.
#[derive(Clone, Debug, Default)]
pub struct MeanCi {
    n: u64,
    mean: f64,
    m2: f64,
}

impl MeanCi {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
    #[must_use]
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Half-width of the 95% CI (1.96 σ/√n; adequate for the ≥3-seed
    /// sweeps the harness runs).
    #[must_use]
    pub fn ci95(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        1.96 * self.stddev() / (self.n as f64).sqrt()
    }
}

/// One point of a figure series: x (e.g. #connections), mean y and CI.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    pub x: f64,
    pub y: f64,
    pub ci95: f64,
}

/// Fixed-width histogram over a value range, with quantile and CDF
/// extraction (Fig 9's latency CDFs).
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// `lo..hi` value range divided into `n` buckets; out-of-range
    /// samples clamp into the edge buckets (and still update min/max).
    #[must_use]
    pub fn new(lo: f64, hi: f64, n: usize) -> Self {
        assert!(hi > lo && n > 0);
        Histogram {
            lo,
            hi,
            buckets: vec![0; n],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn add(&mut self, x: f64) {
        let n = self.buckets.len();
        let idx = if x <= self.lo {
            0
        } else if x >= self.hi {
            n - 1
        } else {
            (((x - self.lo) / (self.hi - self.lo)) * n as f64) as usize
        };
        self.buckets[idx.min(n - 1)] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Approximate quantile (bucket upper edge containing the qth
    /// sample).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut acc = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            acc += b;
            if acc >= target.max(1) {
                return self.lo
                    + (i as f64 + 1.0) / self.buckets.len() as f64 * (self.hi - self.lo);
            }
        }
        self.hi
    }

    /// CDF as (value, cumulative fraction) pairs — one per non-empty
    /// bucket — for plotting Fig 9.
    #[must_use]
    pub fn cdf(&self) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let mut acc = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            acc += b;
            let v = self.lo + (i as f64 + 1.0) / self.buckets.len() as f64 * (self.hi - self.lo);
            out.push((v, acc as f64 / self.count as f64));
        }
        out
    }
}

/// Byte/event counters bucketed by virtual time, yielding steady-state
/// rates with warm-up exclusion. The memory/network throughput panels
/// are read out of these.
#[derive(Clone, Debug)]
pub struct TimeBuckets {
    width: Nanos,
    buckets: Vec<f64>,
}

impl TimeBuckets {
    #[must_use]
    pub fn new(width: Nanos) -> Self {
        assert!(width > Nanos::ZERO);
        TimeBuckets {
            width,
            buckets: Vec::new(),
        }
    }

    pub fn add(&mut self, at: Nanos, amount: f64) {
        let idx = (at.as_nanos() / self.width.as_nanos()) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0.0);
        }
        self.buckets[idx] += amount;
    }

    /// Mean per-second rate over buckets fully inside
    /// `[warmup, end)`.
    #[must_use]
    pub fn rate_per_sec(&self, warmup: Nanos, end: Nanos) -> f64 {
        let w = self.width.as_nanos();
        let first = warmup.as_nanos().div_ceil(w);
        let last = end.as_nanos() / w; // exclusive
        if last <= first {
            return 0.0;
        }
        let slice_end = (last as usize).min(self.buckets.len());
        let slice_start = (first as usize).min(slice_end);
        // Fold from +0.0: `sum` of an empty f64 slice is -0.0, which
        // reads out as a negative rate.
        let total = self.buckets[slice_start..slice_end]
            .iter()
            .fold(0.0, |acc, b| acc + b);
        let span_secs = (last - first) as f64 * self.width.as_secs_f64();
        total / span_secs
    }

    #[must_use]
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Add a time span, distributing `amount × overlap-fraction` into
    /// each bucket the span covers. Used for CPU busy-time accounting:
    /// `add_span(start, end, 1.0)` credits busy-seconds per second,
    /// so `rate_per_sec` then reads out utilization directly.
    pub fn add_span(&mut self, start: Nanos, end: Nanos, amount_per_sec: f64) {
        if end <= start {
            return;
        }
        let w = self.width.as_nanos();
        let mut t = start.as_nanos();
        let end = end.as_nanos();
        while t < end {
            let bucket_end = (t / w + 1) * w;
            let seg_end = bucket_end.min(end);
            let frac_secs = (seg_end - t) as f64 / 1e9;
            let idx = (t / w) as usize;
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, 0.0);
            }
            self.buckets[idx] += amount_per_sec * frac_secs;
            t = seg_end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_rate_is_positive_zero() {
        let mut tb = TimeBuckets::new(Nanos::from_millis(10));
        let rate = tb.rate_per_sec(Nanos::ZERO, Nanos::from_millis(100));
        assert_eq!(rate, 0.0);
        assert!(!rate.is_sign_negative());
        // Buckets recorded only before the window: still an empty slice.
        tb.add(Nanos::from_millis(5), 3.0);
        let rate = tb.rate_per_sec(Nanos::from_millis(50), Nanos::from_millis(100));
        assert!(!rate.is_sign_negative());
    }

    #[test]
    fn mean_ci_basics() {
        let mut m = MeanCi::new();
        for x in [2.0, 4.0, 6.0] {
            m.add(x);
        }
        assert_eq!(m.count(), 3);
        assert!((m.mean() - 4.0).abs() < 1e-12);
        assert!((m.variance() - 4.0).abs() < 1e-12);
        assert!(m.ci95() > 0.0);
    }

    #[test]
    fn mean_ci_constant_series_has_zero_ci() {
        let mut m = MeanCi::new();
        for _ in 0..10 {
            m.add(5.0);
        }
        assert_eq!(m.ci95(), 0.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(0.0, 100.0, 1000);
        for i in 0..1000 {
            h.add(i as f64 / 10.0);
        }
        let med = h.quantile(0.5);
        assert!((med - 50.0).abs() < 1.0, "median={med}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99.0).abs() < 1.5, "p99={p99}");
    }

    #[test]
    fn histogram_percentiles_known_distributions() {
        // Uniform 0..1000: pXX ≈ XX% of the range.
        let mut h = Histogram::new(0.0, 1000.0, 10_000);
        for i in 0..10_000 {
            h.add(i as f64 / 10.0);
        }
        assert!(
            (h.quantile(0.50) - 500.0).abs() < 1.0,
            "p50={}",
            h.quantile(0.50)
        );
        assert!(
            (h.quantile(0.99) - 990.0).abs() < 1.0,
            "p99={}",
            h.quantile(0.99)
        );
        assert!(
            (h.quantile(0.999) - 999.0).abs() < 1.0,
            "p999={}",
            h.quantile(0.999)
        );

        // Bimodal: 99% at 10, 1% at 900 — p50 sits on the low mode,
        // p999 on the high one.
        let mut h = Histogram::new(0.0, 1000.0, 1000);
        for i in 0..1000 {
            h.add(if i < 990 { 10.0 } else { 900.0 });
        }
        assert!((h.quantile(0.50) - 10.0).abs() < 2.0);
        assert!((h.quantile(0.98) - 10.0).abs() < 2.0);
        assert!((h.quantile(0.999) - 900.0).abs() < 2.0);

        // Point mass: every quantile is the single value.
        let mut h = Histogram::new(0.0, 100.0, 100);
        for _ in 0..50 {
            h.add(42.0);
        }
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert!(
                (h.quantile(q) - 43.0).abs() < 1.0,
                "q={q} -> {}",
                h.quantile(q)
            );
        }
    }

    #[test]
    fn histogram_single_sample() {
        // One sample: every quantile lands in that sample's bucket,
        // mean/min/max are the sample itself, and the CDF is a single
        // point at fraction 1.0.
        let mut h = Histogram::new(0.0, 100.0, 100);
        h.add(37.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 37.0);
        assert_eq!(h.min(), 37.0);
        assert_eq!(h.max(), 37.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(
                (h.quantile(q) - 38.0).abs() < 1e-9,
                "q={q} -> {}",
                h.quantile(q)
            );
        }
        let cdf = h.cdf();
        assert_eq!(cdf.len(), 1);
        assert!((cdf[0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_empty_is_safe() {
        let h = Histogram::new(0.0, 100.0, 10);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 0.0);
        }
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn histogram_out_of_range_quantile_edges() {
        // Out-of-range samples clamp into the edge buckets, so
        // quantiles stay within [lo, hi] while min/max keep the true
        // extremes.
        let mut h = Histogram::new(0.0, 100.0, 100);
        for _ in 0..500 {
            h.add(-1e9);
        }
        for _ in 0..500 {
            h.add(1e9);
        }
        assert!(h.quantile(0.25) <= 1.0 + 1e-9);
        assert!((h.quantile(0.999) - 100.0).abs() < 1e-9);
        assert_eq!(h.min(), -1e9);
        assert_eq!(h.max(), 1e9);
        // All quantiles bounded by the configured range.
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!((0.0..=100.0).contains(&v), "q={q} -> {v}");
        }
    }

    #[test]
    fn histogram_clamps_out_of_range() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(-5.0);
        h.add(50.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 50.0);
    }

    #[test]
    fn cdf_monotone_ends_at_one() {
        let mut h = Histogram::new(0.0, 1.0, 100);
        let mut r = crate::rng::SimRng::new(1);
        for _ in 0..1000 {
            h.add(r.next_f64());
        }
        let cdf = h.cdf();
        assert!(cdf.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_bucket_rates_exclude_warmup() {
        let mut tb = TimeBuckets::new(Nanos::from_millis(10));
        // 100 units per 10ms bucket from 0..100ms => 10_000/sec.
        for i in 0..10 {
            tb.add(Nanos::from_millis(i * 10 + 5), 100.0);
        }
        let r = tb.rate_per_sec(Nanos::from_millis(20), Nanos::from_millis(100));
        assert!((r - 10_000.0).abs() < 1e-6, "r={r}");
        // Empty window.
        assert_eq!(
            tb.rate_per_sec(Nanos::from_millis(90), Nanos::from_millis(90)),
            0.0
        );
    }
}
