//! Overload protection: hysteretic admission control and the
//! degradation ladder.
//!
//! Atlas has no buffer cache to absorb bursts — every live connection
//! pins DMA buffers and NVMe queue slots (PAPER.md §3), so past
//! saturation the stack must *shed* rather than thrash. This module is
//! the pure-logic policy half: the server feeds it per-core resource
//! observations (connection count, DMA-pool free fraction, NVMe SQ
//! occupancy) and it answers "admit this SYN?" and "which rung of the
//! degradation ladder are we on?". The server owns the mechanism half
//! (RSTs, 503s, conn reaping) in `server.rs`.
//!
//! Watermarks are hysteretic: shedding *enters* when a resource
//! crosses its enter threshold and only *exits* once every resource is
//! back past its (more generous) exit threshold, so the server doesn't
//! flap admit/shed at the boundary. Under sustained pressure the
//! ladder escalates one rung per [`LADDER_ESCALATE_SWEEPS`] sweeps:
//! shed-new → reap-idle → abort-slowest; it de-escalates one rung per
//! pressure-free sweep.

use dcn_simcore::Nanos;

/// A connection that completes the handshake but never delivers a
/// full request head within this deadline is reaped (slowloris
/// defense).
pub const HEADER_TIMEOUT: Nanos = Nanos::from_secs(1);
/// A keepalive connection with no response in flight and no activity
/// for this long is reaped.
pub const IDLE_TIMEOUT: Nanos = Nanos::from_secs(5);
/// Minimum drain rate for a connection that is pinning DMA buffers:
/// measured over [`DRAIN_WINDOW`], an ACK-progress rate below this
/// aborts the connection and returns its buffers.
pub const MIN_DRAIN_BYTES_PER_SEC: u64 = 512;
/// Measurement window for the drain-rate check.
pub const DRAIN_WINDOW: Nanos = Nanos::from_secs(1);
/// How often the server sweeps connections for the deadlines above
/// and re-evaluates the ladder.
pub const SWEEP_INTERVAL: Nanos = Nanos::from_millis(50);
/// Backoff advertised on 503 responses (`Retry-After`).
pub const RETRY_AFTER: Nanos = Nanos::from_millis(200);
/// DMA buffers per queue held back for retransmit re-fetches, so a
/// connection in RTO recovery is never starved behind fresh fetches
/// from newly admitted connections.
pub const RETX_RESERVE_BUFS: u32 = 2;
/// Sweeps of sustained pressure per ladder escalation.
pub const LADDER_ESCALATE_SWEEPS: u32 = 2;

/// Per-core admission policy: the connection cap and the hysteretic
/// resource watermarks.
///
/// Defaults are deliberately generous: they never engage in the
/// ordinary benchmark scenarios (sub-second runs, connection counts in
/// the hundreds) and exist as a backstop. Overload scenarios tighten
/// them explicitly.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Hard cap on established connections per core; SYNs beyond it
    /// are refused with RST.
    pub max_conns_per_core: usize,
    /// Enter shedding when the core's DMA-pool free fraction drops
    /// below this…
    pub pool_low_enter: f64,
    /// …and only stop shedding once it recovers above this.
    pub pool_low_exit: f64,
    /// Enter shedding when NVMe submission-queue occupancy (inflight
    /// commands / queue depth) exceeds this…
    pub sq_high_enter: f64,
    /// …and only stop once it falls below this.
    pub sq_high_exit: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_conns_per_core: 4096,
            pool_low_enter: 0.02,
            pool_low_exit: 0.10,
            sq_high_enter: 0.95,
            sq_high_exit: 0.75,
        }
    }
}

/// Degradation-ladder rung, least to most aggressive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LadderLevel {
    /// No resource pressure.
    Normal,
    /// Refuse new connections (RST at SYN) and defer new requests on
    /// existing connections (503 + Retry-After).
    ShedNew,
    /// Additionally reap idle keepalive connections early to free
    /// their slots.
    ReapIdle,
    /// Additionally abort the slowest-draining buffer-holding
    /// connection each sweep — it is pinning the DMA buffers the rest
    /// of the core needs.
    AbortSlowest,
}

/// One snapshot of a core's resources, fed to the policy.
#[derive(Clone, Copy, Debug)]
pub struct ResourceSnapshot {
    pub conns: usize,
    /// Free fraction of the core's DMA buffer pool (min across its
    /// per-disk queues — one starved queue is enough to stall fills).
    pub pool_free_frac: f64,
    /// NVMe submission-queue occupancy, max across the core's queues.
    pub sq_occupancy: f64,
}

/// Per-core hysteretic overload state.
#[derive(Debug)]
pub struct OverloadState {
    /// Resource-pressure latch (pool / SQ watermarks).
    latched: bool,
    level: LadderLevel,
    /// Consecutive sweeps the latch has been held.
    pressure_sweeps: u32,
}

impl Default for OverloadState {
    fn default() -> Self {
        OverloadState {
            latched: false,
            level: LadderLevel::Normal,
            pressure_sweeps: 0,
        }
    }
}

impl OverloadState {
    /// Update the watermark latch from a fresh snapshot.
    pub fn observe(&mut self, cfg: &AdmissionConfig, snap: ResourceSnapshot) {
        if self.latched {
            // Exit only once *every* resource is comfortably back.
            if snap.pool_free_frac > cfg.pool_low_exit && snap.sq_occupancy < cfg.sq_high_exit {
                self.latched = false;
            }
        } else if snap.pool_free_frac < cfg.pool_low_enter || snap.sq_occupancy > cfg.sq_high_enter
        {
            self.latched = true;
        }
    }

    /// Admission decision for one SYN. Refuses when the watermark
    /// latch is held or the core is at its connection cap. (The cap
    /// needs no hysteresis: it clears exactly when a slot frees.)
    pub fn admit(&mut self, cfg: &AdmissionConfig, snap: ResourceSnapshot) -> bool {
        self.observe(cfg, snap);
        !self.latched && snap.conns < cfg.max_conns_per_core
    }

    /// Periodic sweep tick: walk the ladder. Returns the new level.
    /// Escalation keys on the *resource* latch, not the connection
    /// cap — a full-but-healthy server sheds new conns without ever
    /// churning the admitted ones.
    pub fn on_sweep(&mut self) -> LadderLevel {
        self.walk_ladder(LADDER_ESCALATE_SWEEPS)
    }

    /// One ladder step, escalating every `escalate_sweeps` (≥ 1)
    /// sweeps of sustained pressure.
    fn walk_ladder(&mut self, escalate_sweeps: u32) -> LadderLevel {
        if self.latched {
            self.pressure_sweeps += 1;
            if self.pressure_sweeps.is_multiple_of(escalate_sweeps) {
                self.level = match self.level {
                    LadderLevel::Normal => LadderLevel::ShedNew,
                    LadderLevel::ShedNew => LadderLevel::ReapIdle,
                    _ => LadderLevel::AbortSlowest,
                };
            } else if self.level == LadderLevel::Normal {
                self.level = LadderLevel::ShedNew;
            }
        } else {
            self.pressure_sweeps = 0;
            self.level = match self.level {
                LadderLevel::AbortSlowest => LadderLevel::ReapIdle,
                LadderLevel::ReapIdle => LadderLevel::ShedNew,
                _ => LadderLevel::Normal,
            };
        }
        self.level
    }

    #[must_use]
    pub fn level(&self) -> LadderLevel {
        self.level
    }

    /// Is the resource-pressure latch held?
    #[must_use]
    pub fn latched(&self) -> bool {
        self.latched
    }

    /// Should the cluster dispatcher treat this core as draining?
    /// True while shedding for resource reasons or walking the ladder.
    #[must_use]
    pub fn is_shedding(&self) -> bool {
        self.latched || self.level > LadderLevel::Normal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(conns: usize, pool: f64, sq: f64) -> ResourceSnapshot {
        ResourceSnapshot {
            conns,
            pool_free_frac: pool,
            sq_occupancy: sq,
        }
    }

    #[test]
    fn admits_under_normal_conditions() {
        let cfg = AdmissionConfig::default();
        let mut st = OverloadState::default();
        assert!(st.admit(&cfg, snap(10, 0.9, 0.1)));
        assert!(!st.is_shedding());
    }

    #[test]
    fn conn_cap_refuses_without_latching() {
        let cfg = AdmissionConfig {
            max_conns_per_core: 8,
            ..AdmissionConfig::default()
        };
        let mut st = OverloadState::default();
        assert!(!st.admit(&cfg, snap(8, 0.9, 0.1)));
        assert!(!st.latched(), "cap is not resource pressure");
        // A slot frees: admission resumes immediately, no hysteresis.
        assert!(st.admit(&cfg, snap(7, 0.9, 0.1)));
    }

    #[test]
    fn pool_watermark_is_hysteretic() {
        let cfg = AdmissionConfig::default(); // enter < 0.02, exit > 0.10
        let mut st = OverloadState::default();
        assert!(!st.admit(&cfg, snap(1, 0.01, 0.0)), "below enter: shed");
        // Recovery between enter and exit: still shedding.
        assert!(!st.admit(&cfg, snap(1, 0.05, 0.0)));
        // Past exit: admits again.
        assert!(st.admit(&cfg, snap(1, 0.2, 0.0)));
    }

    #[test]
    fn sq_watermark_is_hysteretic() {
        let cfg = AdmissionConfig::default(); // enter > 0.95, exit < 0.75
        let mut st = OverloadState::default();
        assert!(!st.admit(&cfg, snap(1, 0.9, 0.99)));
        assert!(!st.admit(&cfg, snap(1, 0.9, 0.8)), "between exit and enter");
        assert!(st.admit(&cfg, snap(1, 0.9, 0.5)));
    }

    #[test]
    fn exit_requires_all_resources_healthy() {
        let cfg = AdmissionConfig::default();
        let mut st = OverloadState::default();
        st.observe(&cfg, snap(1, 0.01, 0.99)); // both pressured
        assert!(st.latched());
        st.observe(&cfg, snap(1, 0.5, 0.9)); // pool fine, SQ still high
        assert!(st.latched());
        st.observe(&cfg, snap(1, 0.5, 0.1));
        assert!(!st.latched());
    }

    #[test]
    fn ladder_escalates_under_sustained_pressure_then_recovers() {
        let cfg = AdmissionConfig::default();
        let mut st = OverloadState::default();
        st.observe(&cfg, snap(1, 0.0, 0.0));
        assert_eq!(st.on_sweep(), LadderLevel::ShedNew);
        assert_eq!(st.on_sweep(), LadderLevel::ReapIdle);
        assert_eq!(st.on_sweep(), LadderLevel::ReapIdle);
        assert_eq!(st.on_sweep(), LadderLevel::AbortSlowest);
        assert_eq!(st.on_sweep(), LadderLevel::AbortSlowest, "saturates");
        assert!(st.is_shedding());
        // Pressure clears: one rung back per sweep.
        st.observe(&cfg, snap(1, 0.9, 0.0));
        assert_eq!(st.on_sweep(), LadderLevel::ReapIdle);
        assert_eq!(st.on_sweep(), LadderLevel::ShedNew);
        assert_eq!(st.on_sweep(), LadderLevel::Normal);
        assert!(!st.is_shedding());
    }

    #[test]
    fn single_pressure_sweep_sheds_new_immediately() {
        let cfg = AdmissionConfig::default();
        let mut st = OverloadState::default();
        st.observe(&cfg, snap(1, 0.0, 0.0));
        // Even before the first escalation boundary, pressure means at
        // least shed-new.
        assert_eq!(st.walk_ladder(4), LadderLevel::ShedNew);
    }

    #[test]
    fn default_config_never_engages_in_ordinary_runs() {
        let cfg = AdmissionConfig::default();
        let mut st = OverloadState::default();
        // Typical healthy observation from the existing benchmarks.
        for _ in 0..100 {
            assert!(st.admit(&cfg, snap(64, 0.85, 0.3)));
            assert_eq!(st.on_sweep(), LadderLevel::Normal);
        }
    }
}
