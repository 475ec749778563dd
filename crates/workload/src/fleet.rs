//! What a client fleet is asked to do and what it reports: the
//! workload shape both fleets take, the end-of-run ABR readout, and
//! the frames a client hands the network. The fleets themselves are
//! [`crate::ClientFleet`] (a lone server) and [`crate::MultiFleet`]
//! (a cluster), one client implementation over two connection
//! topologies.

use crate::abr::{AbrConfig, AbrDecision};
use dcn_netdev::WireFrame;
use dcn_obs::qoe::QoeSummary;
use dcn_packet::FlowId;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    pub n_clients: usize,
    /// 0% BC (uniform over the catalog) vs 100% BC (hot set).
    pub cacheable: bool,
    /// Hot-set size for the cacheable workload.
    pub hot_files: u64,
    /// Verify every body byte against the catalog oracle (full
    /// fidelity runs only).
    pub verify: bool,
    /// Adaptive-streaming mode: every (non-attacker) client runs an
    /// [`AbrSession`](crate::AbrSession) over the manifest instead of drawing files from
    /// the popularity distribution. None = the classic fixed-rate
    /// weighttp workload.
    pub abr: Option<AbrConfig>,
    /// Zipf(θ) popularity over the whole catalog, rank-permuted so
    /// the popular head is scattered across the id space. Overrides
    /// `cacheable`; the million-object tiered-catalog workload. Ranks
    /// map to ids through the permutation of
    /// `dcn_simcore::RANK_PERM_SEED`, the one the tier seeds its hot
    /// set from.
    pub zipf: Option<f64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_clients: 64,
            cacheable: false,
            hot_files: 64,
            verify: true,
            abr: None,
            zipf: None,
        }
    }
}

/// End-of-run ABR readout: fleet QoE plus every session's decisions,
/// from which [`AbrReadout::trace`] renders the canonical decision
/// trace (byte-identical across replays of one seed).
#[derive(Clone, Debug, Default)]
pub struct AbrReadout {
    pub qoe: QoeSummary,
    /// Rung decisions across the fleet.
    pub decisions: u64,
    /// Decisions strictly below the previous one (quality drops).
    pub downswitches: u64,
    /// On-off "on" edges: fetches resumed after a full-buffer pause
    /// (how many synchronized bursts the server absorbed). A wake that
    /// pauses again, or a pause still pending when the run ends, is
    /// not one.
    pub paced_wakes: u64,
    /// Each adaptive client's index and its decisions, in client order.
    pub(crate) log: Vec<(usize, Vec<AbrDecision>)>,
}

impl AbrReadout {
    /// The concatenated per-client decision trace lines.
    #[must_use]
    pub fn trace(&self) -> String {
        let lines = self
            .log
            .iter()
            .flat_map(|(i, ds)| ds.iter().map(|d| d.trace_line(*i)));
        lines.collect()
    }

    /// Publish the fleet's QoE as `qoe.*` gauges.
    pub fn publish(&self, reg: &mut dcn_obs::Registry) {
        let q = &self.qoe;
        for (name, v) in [
            ("qoe.sessions", q.sessions as f64),
            ("qoe.started", q.started as f64),
            ("qoe.startup_ms_mean", q.startup_ms_mean),
            ("qoe.startup_ms_max", q.startup_ms_max),
            ("qoe.rebuffer_ratio", q.rebuffer_ratio),
            ("qoe.rebuffer_events", q.rebuffer_events as f64),
            ("qoe.switches", q.switches as f64),
            ("qoe.downswitches", self.downswitches as f64),
            ("qoe.avg_bitrate_mbps", q.avg_bitrate_mbps),
        ] {
            let g = reg.gauge(name);
            reg.set(g, v);
        }
    }
}

/// Frames a client wants transmitted (they enter the middlebox).
pub struct ClientTx {
    pub flow: FlowId,
    pub frames: Vec<WireFrame>,
}
