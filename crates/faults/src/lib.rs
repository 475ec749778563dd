//! # dcn-faults — seeded, virtual-time fault injection
//!
//! Every fault schedule in this crate is a pure function of a
//! [`SimRng`] seed and the (deterministic) order in which the
//! simulation consults it. There are no wall clocks and no global
//! state: a failing run replays bit-identically from its seed, which
//! is what makes the regression matrix in `tests/faults.rs` useful.
//!
//! The crate only *decides* faults; it never models their effects.
//! Each subsystem owns its own failure semantics:
//!
//! * NVMe read errors / latency spikes — decided here, applied by
//!   `dcn-nvme` (`NvmeStatus::MediaError` completions, stretched
//!   firmware service times).
//! * Submission-queue rejects — decided here, applied by
//!   `dcn-diskmap`'s `sqsync` (the syscall reports `QueueFull` and
//!   the caller's staged commands survive for resubmission).
//! * Link faults (drop / duplicate / corrupt, uniform or
//!   Gilbert–Elliott bursty) — decided here per wire frame, applied
//!   by the workload's switch model between server NIC and clients.
//! * Client stalls — decided here, applied by the client fleet
//!   (frames are delayed, never lost; the server's RTO covers the
//!   gap).

use dcn_simcore::{Nanos, SimRng};

pub mod link;
pub mod nvme;

pub use link::{FrameFate, FrameInfo, LinkFaults, LossModel};
pub use nvme::{NvmeFaultInjector, SqFaultInjector};

/// Per-component fault probabilities for the NVMe device model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmeFaults {
    /// Probability that a read command completes with a media error
    /// (DMA suppressed, `NvmeStatus::MediaError` posted).
    pub read_error_p: f64,
    /// Probability that a command's firmware service time is
    /// stretched by `latency_spike_mult`.
    pub latency_spike_p: f64,
    /// Service-time multiplier for a latency spike (e.g. 20.0 models
    /// an internal GC pause).
    pub latency_spike_mult: f64,
    /// Probability that an `sqsync` syscall refuses admission for the
    /// remaining staged commands (reported as `QueueFull`), modelling
    /// a device whose submission queue momentarily fills.
    pub sq_reject_p: f64,
}

impl Default for NvmeFaults {
    fn default() -> Self {
        Self {
            read_error_p: 0.0,
            latency_spike_p: 0.0,
            latency_spike_mult: 20.0,
            sq_reject_p: 0.0,
        }
    }
}

impl NvmeFaults {
    pub fn is_active(&self) -> bool {
        self.read_error_p > 0.0 || self.latency_spike_p > 0.0 || self.sq_reject_p > 0.0
    }
}

/// Server→client link faults, applied per TCP data frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaults {
    /// Loss process for data frames.
    pub loss: LossModel,
    /// Probability a delivered data frame is delivered twice.
    pub dup_p: f64,
    /// Probability a data frame is corrupted in flight. With
    /// `fcs_check` on (the default) the NIC's FCS detects it, so the
    /// observable effect is a (separately counted) drop — corrupted
    /// bytes are never delivered upward. With `fcs_check` off the
    /// mangled frame is delivered, and catching it becomes the
    /// application-layer verifier's job.
    pub corrupt_p: f64,
    /// Model the receiving NIC's frame-check-sequence validation.
    /// Bypassing it (false) turns corruption events into
    /// `FrameFate::CorruptDeliver` — the end-to-end test that proves
    /// the fleet's `StreamVerifier` really checks content.
    pub fcs_check: bool,
    /// Deterministic targeted fault: drop exactly the Nth data frame
    /// of every flow (1-based), once per flow. Forces tail loss / RTO
    /// without relying on random schedules.
    pub drop_nth_data_frame: Option<u64>,
    /// Deterministic targeted fault: drop the first N frames that are
    /// classified as retransmissions (re-sent sequence ranges). Tests
    /// "loss of the retransmission itself".
    pub retx_drop: u32,
}

impl Default for NetFaults {
    fn default() -> Self {
        Self {
            loss: LossModel::None,
            dup_p: 0.0,
            corrupt_p: 0.0,
            fcs_check: true,
            drop_nth_data_frame: None,
            retx_drop: 0,
        }
    }
}

impl NetFaults {
    pub fn is_active(&self) -> bool {
        !matches!(self.loss, LossModel::None)
            || self.dup_p > 0.0
            || self.corrupt_p > 0.0
            || self.drop_nth_data_frame.is_some()
            || self.retx_drop > 0
    }
}

/// Client (mis)behaviour: stalls, slowloris readers, and aggressive
/// connection-open schedules. Decided here, applied by the client
/// fleet / workload runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientFaults {
    /// Per-burst probability that a client stops reading / acking for
    /// `stall` of virtual time (frames are delayed, never lost; the
    /// server's RTO covers the gap).
    pub stall_p: f64,
    pub stall: Nanos,
    /// Slowloris attackers: the first N spawned clients complete the
    /// TCP handshake, dribble a *truncated* request head, and then go
    /// silent forever — holding a connection slot (and, on a naive
    /// server, DMA buffers) without ever completing a request. The
    /// server's header-read timeout is the defense under test.
    pub slowloris_conns: u32,
    /// Open-rate attack: spawn every client at t=0 instead of ramping
    /// over the warmup — a thundering-herd SYN flood that exercises
    /// the admission path's burst behaviour.
    pub aggressive_open: bool,
}

impl Default for ClientFaults {
    fn default() -> Self {
        Self {
            stall_p: 0.0,
            stall: Nanos::from_micros(500),
            slowloris_conns: 0,
            aggressive_open: false,
        }
    }
}

impl ClientFaults {
    pub fn is_active(&self) -> bool {
        self.stall_p > 0.0 || self.slowloris_conns > 0 || self.aggressive_open
    }
}

/// A whole-server scenario event: which server, and when (virtual
/// time from run start).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerFault {
    pub server: u32,
    pub at: Nanos,
}

/// Whole-server fault hooks for the cluster layer (`dcn-cluster`).
/// Unlike the per-frame/per-command knobs above these are
/// deterministic scheduled events, not probabilities: a scale-out
/// scenario kills or drains *one specific box* at a known virtual
/// time and measures the fleet's recovery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterFaults {
    /// Hard fail-stop: the server stops transmitting, receiving, and
    /// polling at `at`. In-flight responses are severed mid-stream;
    /// clients must reconnect to a replica and resume by range.
    pub kill: Option<ServerFault>,
    /// Administrative drain: the dispatcher stops routing *new*
    /// requests to the server at `at`; in-flight responses finish
    /// normally.
    pub drain: Option<ServerFault>,
}

impl ClusterFaults {
    pub fn is_active(&self) -> bool {
        self.kill.is_some() || self.drain.is_some()
    }
}

/// What a server's own fault handling counted over a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Injected NVMe media errors and latency spikes fired.
    pub nvme_read_errors: u64,
    pub nvme_latency_spikes: u64,
    /// Submissions the diskmap SQ injector refused (Atlas only).
    pub sq_rejects: u64,
    /// Connections aborted once their fetch retries ran out (Atlas
    /// only).
    pub conns_aborted: u64,
    /// TCP retransmission timeouts fired, summed over every TCB.
    pub rto_fired: u64,
}

/// The full fault schedule for one scenario. `Default` is entirely
/// inactive — every existing scenario runs unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultConfig {
    pub nvme: NvmeFaults,
    pub net: NetFaults,
    pub client: ClientFaults,
    /// Whole-server events; ignored by single-server runners.
    pub cluster: ClusterFaults,
}

impl FaultConfig {
    pub fn is_active(&self) -> bool {
        self.nvme.is_active()
            || self.net.is_active()
            || self.client.is_active()
            || self.cluster.is_active()
    }

    /// The acceptance scenario from the issue: 1% bursty loss plus
    /// 0.1% NVMe read errors.
    pub fn bursty_with_disk_errors() -> Self {
        Self {
            nvme: NvmeFaults {
                read_error_p: 0.001,
                ..NvmeFaults::default()
            },
            net: NetFaults {
                loss: LossModel::gilbert_elliott_for(0.01),
                ..NetFaults::default()
            },
            client: ClientFaults::default(),
            cluster: ClusterFaults::default(),
        }
    }
}

/// Salts for deriving independent fault streams from one scenario
/// seed. Each injector forks its own `SimRng` so adding a fault class
/// never perturbs the schedule of another.
pub mod salt {
    pub const LINK: u64 = 0xFA17_0001;
    pub const CLIENT: u64 = 0xFA17_0002;
    pub const NVME_DEV: u64 = 0xFA17_0003;
    pub const SQ: u64 = 0xFA17_0004;
}

/// Derive the rng for one injector from the scenario seed.
pub fn rng_for(seed: u64, salt: u64) -> SimRng {
    SimRng::new(seed ^ salt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_inactive() {
        let f = FaultConfig::default();
        assert!(!f.is_active());
        assert!(!f.nvme.is_active());
        assert!(!f.net.is_active());
        assert!(!f.client.is_active());
    }

    #[test]
    fn acceptance_config_is_active() {
        let f = FaultConfig::bursty_with_disk_errors();
        assert!(f.is_active());
        assert!(f.nvme.is_active());
        assert!(f.net.is_active());
        assert!(!f.cluster.is_active());
    }

    #[test]
    fn client_misbehaviour_activates_config() {
        let f = FaultConfig {
            client: ClientFaults {
                slowloris_conns: 4,
                ..ClientFaults::default()
            },
            ..FaultConfig::default()
        };
        assert!(f.is_active());
        assert!(f.client.is_active());
        let g = FaultConfig {
            client: ClientFaults {
                aggressive_open: true,
                ..ClientFaults::default()
            },
            ..FaultConfig::default()
        };
        assert!(g.client.is_active());
    }

    #[test]
    fn cluster_faults_activate_config() {
        let f = FaultConfig {
            cluster: ClusterFaults {
                kill: Some(ServerFault {
                    server: 1,
                    at: Nanos::from_millis(300),
                }),
                drain: None,
            },
            ..FaultConfig::default()
        };
        assert!(f.is_active());
        assert!(f.cluster.is_active());
    }
}
