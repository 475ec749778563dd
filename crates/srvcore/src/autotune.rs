//! Online I/O-window autotuner.
//!
//! The paper fixes the fetch watermark at 10×MSS (§3.2): once a
//! connection's usable congestion window falls below it, the stack
//! stops issuing new disk reads. That constant was hand-tuned for one
//! P3700 at one RTT mix, and `examples/tune_io_window.rs` used to
//! re-derive it by manual sweep. This module closes the loop online:
//! a per-core controller watches two signals the stack already has in
//! hand on every completion —
//!
//! * **NVMe completion latency** (submit→complete, straight off the
//!   completion record), tracked as an integer EWMA against a decaying
//!   minimum ("base") that stands in for the drive's unloaded service
//!   time, and
//! * **submission-queue occupancy** (in-flight commands / queue
//!   depth), tracked as the peak since the last adjustment,
//!
//! and every `adjust_period` completions nudges two knobs between a
//! floor and a ceiling:
//!
//! * the **watermark** — the minimum usable window before the next
//!   fetch is issued. Lower = issue earlier and deeper, hiding disk
//!   latency behind congestion-window growth; higher = hold back,
//!   pinning fewer DMA buffers per connection.
//! * the **in-flight cap** — the per-core bound on outstanding reads.
//!
//! The policy is a classic gradient probe: while the drive looks
//! unloaded (EWMA ≤ base × `latency_queue_x100`/100) and the SQ has
//! headroom, decay the watermark toward the floor and widen the cap;
//! when latency inflates past the queueing threshold or the SQ peak
//! crosses `sq_target_x100`, back off multiplicatively. A fast drive
//! therefore converges near the floor (maximum prefetch overlap), a
//! saturated or slow drive settles higher — the operating-point
//! argument of the paper's Fig 6, discovered rather than hand-picked.
//!
//! Everything is integer arithmetic and the only randomness is a
//! seeded [`SimRng`] dithering the adjustment period (so cores don't
//! move in lockstep); two runs with the same seed are bit-identical,
//! which the replay tests assert.

use dcn_simcore::SimRng;

/// Autotuner knobs. `enabled: false` (the default) makes the tuner a
/// transparent pass-through of the configured fixed watermark, so
/// existing configs reproduce the paper's constant exactly.
#[derive(Clone, Copy, Debug)]
pub struct AutotuneConfig {
    pub enabled: bool,
    /// Watermark floor: never require less usable window than this
    /// before issuing (2×MSS keeps at least one segment clocked out
    /// between fetch decisions).
    pub floor_watermark: u64,
    /// Watermark ceiling: never require more than this.
    pub ceiling_watermark: u64,
    /// In-flight read cap bounds (per core, across its queues).
    pub min_inflight: u32,
    pub max_inflight: u32,
    /// Completions between adjustments (dithered ±25% per step).
    pub adjust_period: u32,
    /// Queueing threshold: back off once the latency EWMA exceeds
    /// base × this / 100.
    pub latency_queue_x100: u64,
    /// SQ-occupancy threshold (percent) above which we back off.
    pub sq_target_x100: u64,
    /// EWMA gain as a right-shift: ewma += (sample - ewma) >> shift.
    pub ewma_shift: u32,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            enabled: false,
            floor_watermark: 2 * 1448,
            ceiling_watermark: 32 * 1448,
            min_inflight: 4,
            max_inflight: 64,
            adjust_period: 32,
            latency_queue_x100: 150,
            sq_target_x100: 75,
            ewma_shift: 3,
        }
    }
}

impl AutotuneConfig {
    /// The configuration the benchmarks use: tuning on, everything
    /// else at the defaults.
    #[must_use]
    pub fn on() -> Self {
        AutotuneConfig {
            enabled: true,
            ..AutotuneConfig::default()
        }
    }
}

/// Per-core tuner state. Deterministic: integer EWMAs plus a seeded
/// RNG used only to dither the adjustment period.
#[derive(Debug)]
pub struct IoTuner {
    cfg: AutotuneConfig,
    /// The configured fixed watermark, returned verbatim when tuning
    /// is off and used as the starting point when it is on.
    fixed: u64,
    wm: u64,
    cap: u32,
    /// EWMA of submit→complete latency (ns); 0 = no sample yet.
    ewma_lat: u64,
    /// Decaying minimum of the EWMA — the unloaded-service-time
    /// estimate the queueing threshold is relative to.
    base_lat: u64,
    /// Peak SQ occupancy (percent) since the last adjustment.
    occ_peak_x100: u64,
    seen: u32,
    next_adjust: u32,
    adjustments: u64,
    rng: SimRng,
}

impl IoTuner {
    #[must_use]
    pub fn new(cfg: AutotuneConfig, fixed_watermark: u64, seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x0107_u64.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let next_adjust = Self::dither(&cfg, &mut rng);
        IoTuner {
            cfg,
            fixed: fixed_watermark,
            wm: fixed_watermark.clamp(cfg.floor_watermark, cfg.ceiling_watermark),
            cap: cfg.max_inflight,
            ewma_lat: 0,
            base_lat: 0,
            occ_peak_x100: 0,
            seen: 0,
            next_adjust,
            adjustments: 0,
            rng,
        }
    }

    fn dither(cfg: &AutotuneConfig, rng: &mut SimRng) -> u32 {
        let p = u64::from(cfg.adjust_period.max(4));
        // period ± 25%, never below 4 completions.
        (rng.gen_range(p - p / 4, p + p / 4 + 1) as u32).max(4)
    }

    /// Current fetch watermark (bytes of usable window required before
    /// the next read is issued).
    #[must_use]
    pub fn watermark(&self) -> u64 {
        if self.cfg.enabled {
            self.wm
        } else {
            self.fixed
        }
    }

    /// Current per-core in-flight read cap. `u32::MAX` when tuning is
    /// off (the stack's natural pool/queue limits apply unchanged).
    #[must_use]
    pub fn inflight_cap(&self) -> u32 {
        if self.cfg.enabled {
            self.cap
        } else {
            u32::MAX
        }
    }

    /// Feed one NVMe completion: its submit→complete latency and the
    /// queue's occupancy at completion-drain time.
    pub fn observe_completion(&mut self, latency_ns: u64, inflight: usize, queue_depth: usize) {
        if !self.cfg.enabled {
            return;
        }
        let lat = latency_ns.max(1);
        if self.ewma_lat == 0 {
            self.ewma_lat = lat;
        } else {
            let delta = lat as i64 - self.ewma_lat as i64;
            self.ewma_lat = (self.ewma_lat as i64 + (delta >> self.cfg.ewma_shift)) as u64;
        }
        if self.base_lat == 0 || self.ewma_lat < self.base_lat {
            self.base_lat = self.ewma_lat.max(1);
        }
        let occ = (inflight as u64 * 100) / queue_depth.max(1) as u64;
        self.occ_peak_x100 = self.occ_peak_x100.max(occ);
        self.seen += 1;
        if self.seen >= self.next_adjust {
            self.adjust();
        }
    }

    fn adjust(&mut self) {
        let queued = self.ewma_lat > self.base_lat * self.cfg.latency_queue_x100 / 100;
        let occ_high = self.occ_peak_x100 > self.cfg.sq_target_x100;
        if queued || occ_high {
            // Multiplicative back-off: demand more window headroom
            // before issuing, and narrow the in-flight cap.
            self.wm = (self.wm + (self.wm / 4).max(1)).min(self.cfg.ceiling_watermark);
            self.cap = self
                .cap
                .saturating_sub((self.cap / 4).max(1))
                .max(self.cfg.min_inflight);
        } else {
            // Healthy: issue earlier (decay toward the floor) and
            // widen the cap additively. The base estimate also creeps
            // upward here — only in healthy regimes — so a genuinely
            // slower drive (firmware aging, thermal throttle)
            // re-bases instead of reading as permanent queueing,
            // while sustained queueing keeps the base frozen.
            self.wm = self
                .wm
                .saturating_sub((self.wm / 8).max(1))
                .max(self.cfg.floor_watermark);
            self.cap = (self.cap + 1).min(self.cfg.max_inflight);
            self.base_lat += self.base_lat >> 6;
        }
        self.occ_peak_x100 = 0;
        self.seen = 0;
        self.next_adjust = Self::dither(&self.cfg, &mut self.rng);
        self.adjustments += 1;
    }

    /// Latency EWMA (ns) — 0 before the first completion.
    #[must_use]
    pub fn ewma_latency_ns(&self) -> u64 {
        self.ewma_lat
    }

    /// Number of adjustment steps taken so far.
    #[must_use]
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on() -> AutotuneConfig {
        AutotuneConfig::on()
    }

    #[test]
    fn disabled_tuner_is_a_pass_through() {
        let mut t = IoTuner::new(AutotuneConfig::default(), 14_480, 7);
        for _ in 0..1000 {
            t.observe_completion(1_000_000, 60, 64);
        }
        assert_eq!(t.watermark(), 14_480);
        assert_eq!(t.inflight_cap(), u32::MAX);
        assert_eq!(t.adjustments(), 0);
    }

    #[test]
    fn fast_unloaded_drive_converges_to_the_floor() {
        let cfg = on();
        let mut t = IoTuner::new(cfg, 14_480, 7);
        for _ in 0..2000 {
            t.observe_completion(80_000, 2, 1024);
        }
        assert_eq!(t.watermark(), cfg.floor_watermark);
        assert_eq!(t.inflight_cap(), cfg.max_inflight);
    }

    #[test]
    fn queueing_latency_backs_the_window_off() {
        let cfg = on();
        let mut t = IoTuner::new(cfg, 14_480, 7);
        // Establish a fast base…
        for _ in 0..500 {
            t.observe_completion(80_000, 2, 1024);
        }
        // …then latency inflates 10×: the tuner must retreat from the
        // floor and shrink the cap.
        for _ in 0..2000 {
            t.observe_completion(800_000, 2, 1024);
        }
        assert!(t.watermark() > cfg.floor_watermark, "wm={}", t.watermark());
        assert_eq!(t.inflight_cap(), cfg.min_inflight);
    }

    #[test]
    fn sq_saturation_backs_off_even_at_base_latency() {
        let cfg = on();
        let mut t = IoTuner::new(cfg, 14_480, 7);
        for _ in 0..500 {
            t.observe_completion(80_000, 2, 64);
        }
        let wm_before = t.watermark();
        for _ in 0..500 {
            t.observe_completion(80_000, 60, 64); // 94% occupancy
        }
        assert!(t.watermark() > wm_before);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let cfg = on();
        let run = |seed| {
            let mut t = IoTuner::new(cfg, 14_480, seed);
            let mut points = Vec::new();
            for i in 0..1000u64 {
                t.observe_completion(80_000 + (i % 7) * 1000, (i % 9) as usize, 64);
                points.push((t.watermark(), t.inflight_cap(), t.ewma_latency_ns()));
            }
            points
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "seed must matter to the dither");
    }

    #[test]
    fn bounds_are_respected_under_adversarial_input() {
        let cfg = on();
        let mut t = IoTuner::new(cfg, 14_480, 9);
        for i in 0..5000u64 {
            let lat = if i % 2 == 0 { 1 } else { 100_000_000 };
            t.observe_completion(lat, (i % 128) as usize, 64);
            assert!(t.watermark() >= cfg.floor_watermark);
            assert!(t.watermark() <= cfg.ceiling_watermark);
            assert!(t.inflight_cap() >= cfg.min_inflight);
            assert!(t.inflight_cap() <= cfg.max_inflight);
        }
    }
}
