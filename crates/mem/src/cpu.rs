//! CPU core model: busy-cycle accounting and utilization.
//!
//! Each simulated core is a serial resource: work submitted at time
//! `t` begins at `max(t, busy_until)` and runs for `cycles / freq`.
//! Utilization over a measurement window is busy-time ÷ wall-time,
//! reported per-core and summed the way the paper's CPU plots do
//! (800% = eight saturated cores).
//!
//! A polling stack (Atlas) is special-cased: its cores always report
//! 100% (the paper notes Atlas "CPU utilization measured remains
//! constant at ~400%" because it spins), while *useful* cycles are
//! still tracked separately so saturation can be detected.

use crate::cost::CostParams;
use dcn_obs::ProfHandle;
use dcn_simcore::{Nanos, TimeBuckets};

/// One simulated core.
pub struct CpuCore {
    ghz: f64,
    busy_until: Nanos,
    busy: TimeBuckets,
    pub total_busy: Nanos,
}

impl CpuCore {
    #[must_use]
    pub fn new(ghz: f64, bucket: Nanos) -> Self {
        CpuCore {
            ghz,
            busy_until: Nanos::ZERO,
            busy: TimeBuckets::new(bucket),
            total_busy: Nanos::ZERO,
        }
    }

    /// Run `cycles` of work requested at `now`; returns the completion
    /// time (which is when dependent events should fire).
    pub fn run(&mut self, now: Nanos, cycles: u64) -> Nanos {
        let dur = Nanos::from_nanos((cycles as f64 / self.ghz).ceil() as u64);
        let start = self.busy_until.max(now);
        let end = start + dur;
        self.busy.add_span(start, end, 1.0);
        self.total_busy += dur;
        self.busy_until = end;
        end
    }

    /// Utilization (0..1) over `[warmup, end)`.
    #[must_use]
    pub fn utilization(&self, warmup: Nanos, end: Nanos) -> f64 {
        self.busy.rate_per_sec(warmup, end)
    }
}

/// A set of cores belonging to one stack instance, with round-robin /
/// least-loaded placement helpers.
pub struct CoreSet {
    cores: Vec<CpuCore>,
    /// Polling stacks report 100% per core regardless of useful work.
    polling: bool,
    /// Optional stage profiler: every cycle charge is mirrored into it
    /// under the core's current stage. Never installed unless the
    /// server was built with profiling on, so the common path pays one
    /// `None` check.
    profiler: Option<ProfHandle>,
}

impl CoreSet {
    #[must_use]
    pub fn new(n: usize, costs: &CostParams, bucket: Nanos, polling: bool) -> Self {
        CoreSet {
            cores: (0..n)
                .map(|_| CpuCore::new(costs.cpu_ghz, bucket))
                .collect(),
            polling,
            profiler: None,
        }
    }

    /// Mirror future cycle charges into `prof` (profiling runs only).
    pub fn set_profiler(&mut self, prof: ProfHandle) {
        self.profiler = Some(prof);
    }

    #[must_use]
    pub fn len(&self) -> usize {
        self.cores.len()
    }
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    pub fn core(&mut self, idx: usize) -> &mut CpuCore {
        &mut self.cores[idx]
    }

    /// Run `cycles` on a specific core.
    pub fn run_on(&mut self, idx: usize, now: Nanos, cycles: u64) -> Nanos {
        if let Some(p) = &self.profiler {
            p.borrow_mut().on_cycles(idx, cycles);
        }
        self.cores[idx].run(now, cycles)
    }

    /// Total utilization in percent (the paper's 0–800% axis).
    #[must_use]
    pub fn utilization_pct(&self, warmup: Nanos, end: Nanos) -> f64 {
        if self.polling {
            return self.cores.len() as f64 * 100.0;
        }
        self.cores
            .iter()
            .map(|c| c.utilization(warmup, end) * 100.0)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_execution_queues_work() {
        let mut c = CpuCore::new(1.0, Nanos::from_millis(1)); // 1 GHz: 1 cycle = 1 ns
        let t1 = c.run(Nanos::ZERO, 1000);
        assert_eq!(t1, Nanos::from_nanos(1000));
        // Submitted while busy: starts after.
        let t2 = c.run(Nanos::from_nanos(500), 1000);
        assert_eq!(t2, Nanos::from_nanos(2000));
        // Submitted after idle gap: starts at submission.
        let t3 = c.run(Nanos::from_nanos(5000), 1000);
        assert_eq!(t3, Nanos::from_nanos(6000));
    }

    #[test]
    fn utilization_measures_busy_fraction() {
        let mut c = CpuCore::new(1.0, Nanos::from_millis(1));
        // Busy 2ms within a 10ms window.
        c.run(Nanos::ZERO, 2_000_000);
        let u = c.utilization(Nanos::ZERO, Nanos::from_millis(10));
        assert!((u - 0.2).abs() < 1e-6, "u={u}");
    }

    #[test]
    fn polling_coreset_reports_full_utilization() {
        let costs = CostParams::default();
        let cs = CoreSet::new(4, &costs, Nanos::from_millis(1), true);
        assert_eq!(
            cs.utilization_pct(Nanos::ZERO, Nanos::from_millis(10)),
            400.0
        );
    }
}
