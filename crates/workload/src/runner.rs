//! The single-server testbed run: builds a [`Testbed`] with one
//! server and a [`ClientFleet`], and reads the paper's panels out of
//! what the loop leaves behind.

use crate::fleet::FleetConfig;
use crate::testbed::{self, Testbed};
use crate::ClientFleet;
use dcn_atlas::{AtlasConfig, AtlasServer};
use dcn_faults::{FaultConfig, LossModel};
use dcn_kstack::{KstackConfig, KstackServer};
use dcn_mem::Fidelity;
use dcn_netdev::DelayMiddlebox;
use dcn_simcore::Nanos;
pub use dcn_srvcore::{HostPages, TierMetrics, VideoServer};
use dcn_store::Catalog;
use std::path::PathBuf;

pub use crate::testbed::corrupt_frame;

/// Which server to run.
#[derive(Clone, Debug)]
pub enum ServerKind {
    Atlas(AtlasConfig),
    Kstack(KstackConfig),
}

/// One experiment configuration.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub server: ServerKind,
    pub fleet: FleetConfig,
    pub catalog: Catalog,
    /// Measurement starts here (connections ramp + TCP slow start
    /// settle during warm-up).
    pub warmup: Nanos,
    /// Simulated end time.
    pub duration: Nanos,
    pub seed: u64,
    /// Probability of dropping each server→client frame (fault
    /// injection; 0.0 for the paper's lossless testbed). Legacy knob:
    /// equivalent to `faults.net.loss = LossModel::Uniform(p)`, and
    /// only consulted when `faults.net.loss` is `LossModel::None`.
    pub data_loss: f64,
    /// Seeded fault injection: NVMe device faults and SQ backpressure
    /// (armed inside the server), link loss/duplication/corruption
    /// and client stalls (applied by this harness). All schedules are
    /// pure functions of `seed` — same seed, same faults.
    pub faults: FaultConfig,
}

impl Scenario {
    /// Sensible defaults for tests/examples: small fleet, full
    /// fidelity, verification on.
    #[must_use]
    pub fn smoke(server: ServerKind, n_clients: usize, seed: u64) -> Scenario {
        Scenario {
            server,
            fleet: FleetConfig {
                n_clients,
                ..FleetConfig::default()
            },
            catalog: Catalog::new(50_000, 300 * 1024, 4, seed),
            warmup: Nanos::from_millis(250),
            duration: Nanos::from_millis(700),
            seed,
            data_loss: 0.0,
            faults: FaultConfig::default(),
        }
    }
}

/// Observability outputs for one run: where to dump the chunk trace
/// (JSONL) and the metrics time-series (CSV). Both default to off, in
/// which case the run is bit-identical to an unobserved one.
#[derive(Clone, Debug, Default)]
pub struct ObsOptions {
    /// Write finished chunk traces as JSON-lines here. Also turns on
    /// the Atlas chunk-lifecycle tracer.
    pub trace_out: Option<PathBuf>,
    /// Write a `t_ms,metric,value` CSV of registry samples here.
    pub metrics_out: Option<PathBuf>,
    /// Virtual-time sampling cadence for the CSV (default 10 ms).
    pub sample_interval: Option<Nanos>,
}

impl ObsOptions {
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    #[must_use]
    pub fn active(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some()
    }
}

/// What the observed run produced beyond the metrics.
#[derive(Clone, Debug, Default)]
pub struct ObsReport {
    /// Chunk traces written to `trace_out`.
    pub traced_chunks: usize,
    /// Per-stage p50/p99 latency table (empty if tracing was off).
    pub stage_summary: String,
}

/// Fault firings and recovery actions observed over one run,
/// assembled from the harness-side injectors and the server's
/// unified registry.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultMetrics {
    /// Server→client data frames dropped by the loss model.
    pub net_dropped: u64,
    /// …delivered twice.
    pub net_duplicated: u64,
    /// …corrupted in flight (detected by FCS, so dropped).
    pub net_corrupt_dropped: u64,
    /// …corrupted in flight and delivered anyway (FCS bypassed).
    pub net_corrupt_delivered: u64,
    /// Subset of `net_dropped` that hit a retransmission.
    pub net_retx_dropped: u64,
    /// Client-side delivery stalls injected.
    pub client_stalls: u64,
    /// NVMe reads completed with an unrecoverable media error.
    pub nvme_read_errors: u64,
    /// NVMe commands hit by a firmware latency spike.
    pub nvme_latency_spikes: u64,
    /// Diskmap SQ admissions rejected (injected backpressure).
    pub sq_rejects: u64,
    /// Disk fetches re-issued after a device error (both stacks).
    pub fetch_retries: u64,
    /// Connections torn down by the degradation policy.
    pub conns_aborted: u64,
    /// Server TCP retransmission timeouts fired.
    pub rto_fired: u64,
}

/// Overload-defense activity observed over one run: server-side shed
/// and reap counters (from the unified registry) plus the client-side
/// view of the same events.
#[derive(Clone, Copy, Debug, Default)]
pub struct OverloadMetrics {
    /// SYNs refused with RST by admission control (both stacks).
    pub shed_new: u64,
    /// Requests answered 503 + Retry-After while shedding.
    pub retry_503: u64,
    /// Idle / header-timeout connections reaped (Atlas).
    pub reaped_idle: u64,
    /// Buffer-holding slow readers aborted (Atlas).
    pub aborted_slow: u64,
    /// Waits on an empty buffer pool, one per wait episode (a
    /// connection's parks up to its next fetch or its close).
    pub empty_waits: u64,
    /// Wakes of a parked connection that found the pool still dry.
    pub futile_wakes: u64,
    /// Clients that observed a server RST (refused or aborted).
    pub client_resets: u64,
    /// 503 responses the fleet received.
    pub client_503s: u64,
    /// Deferred re-requests fired after Retry-After backoff.
    pub client_retries: u64,
    /// p99 time-to-first-body-byte (ms), including retry backoff.
    pub ttfb_p99_ms: f64,
}

/// DMA buffer-pool occupancy over the measurement window, sampled on
/// a fixed virtual-time cadence. The `ablation_abr` readout: on-off
/// ABR bursts show up as deeper minima and higher variance than the
/// fixed-rate workload's steady drain.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PoolOcc {
    pub samples: u64,
    pub capacity: u64,
    /// Fewest free buffers seen at any sample point.
    pub free_min: u64,
    pub free_mean: f64,
    pub free_stddev: f64,
}

impl PoolOcc {
    /// The occupancy of `free`-buffer samples of a pool of `capacity`;
    /// None without samples.
    #[must_use]
    pub fn of(free: &[u64], capacity: u64) -> Option<PoolOcc> {
        let n = free.len() as f64;
        let (sum, sumsq) = free.iter().fold((0.0, 0.0), |(sum, sumsq), &f| {
            (sum + f as f64, sumsq + f as f64 * f as f64)
        });
        let mean = sum / n;
        Some(PoolOcc {
            samples: free.len() as u64,
            capacity,
            free_min: *free.iter().min()?,
            free_mean: mean,
            free_stddev: (sumsq / n - mean * mean).max(0.0).sqrt(),
        })
    }
}

/// Everything the paper's panels need from one run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    pub label: String,
    pub net_gbps: f64,
    pub cpu_pct: f64,
    pub mem_read_gbps: f64,
    pub mem_write_gbps: f64,
    pub read_net_ratio: f64,
    pub llc_miss_e8: f64,
    pub responses: u64,
    pub total_body_bytes: u64,
    pub verified_bytes: u64,
    pub verify_failures: u64,
    pub live_fraction: f64,
    /// Disk read commands completed successfully (Atlas counts these;
    /// 0 for the kernel stack, which counts bytes only).
    pub disk_reads: u64,
    /// Bytes read from disk (both stacks).
    pub disk_read_bytes: u64,
    /// Loss-driven re-fetches from disk (Atlas; the paper's "storage
    /// is the retransmission buffer" path).
    pub retransmit_fetches: u64,
    /// DMA buffers unaccounted for at run end (must be 0).
    pub leaked_buffers: i64,
    /// Host pages at run end: those holding bytes, against those the
    /// server still holds (full fidelity only; 0 and 0 when modeled).
    pub host_pages: HostPages,
    pub faults: FaultMetrics,
    pub overload: OverloadMetrics,
    /// Stage-profiler snapshot, present when the server config set
    /// `profile: true` (the `perf_baseline` gate reads this).
    pub perf: Option<dcn_obs::ProfReport>,
    /// ABR readout (QoE + decision trace), present when the fleet ran
    /// in adaptive mode.
    pub abr: Option<crate::fleet::AbrReadout>,
    /// DMA-pool occupancy over the measurement window (Atlas only).
    pub pool_occ: Option<PoolOcc>,
    /// Tiered-catalog readout, present when the server ran tiered.
    pub tier: Option<TierMetrics>,
    /// The testbed's [`testbed::RunDigest`] of every event it handled.
    pub digest: u64,
}

/// Run one scenario to completion and report metrics.
pub fn run_scenario(sc: &Scenario) -> RunMetrics {
    run_scenario_observed(sc, &ObsOptions::disabled()).0
}

/// Run one scenario with observability outputs. With `obs` disabled
/// this is exactly `run_scenario` (same seed ⇒ identical metrics);
/// with `trace_out` set the Atlas chunk-lifecycle tracer is enabled
/// and dumped as JSONL, and with `metrics_out` set the unified
/// registry is sampled on a fixed virtual-time cadence into a CSV.
pub fn run_scenario_observed(sc: &Scenario, obs: &ObsOptions) -> (RunMetrics, ObsReport) {
    let run = run_lone(sc, obs);
    let (server, fleet, link) = (&run.net.tb.servers[0], &run.client, &run.net.link);
    let end = sc.duration;
    let snap = server.mem_snapshot(sc.warmup, end);
    let net_gbps = fleet.goodput.rate_per_sec(sc.warmup, end) * 8.0 / 1e9;
    let reg = server.registry().expect("both stacks keep a registry");
    let counts = server.fault_counts();
    let served = server.served();
    let faults = FaultMetrics {
        net_dropped: link.dropped,
        net_duplicated: link.duplicated,
        net_corrupt_dropped: link.corrupt_dropped,
        net_corrupt_delivered: link.corrupt_delivered,
        net_retx_dropped: link.retx_dropped,
        client_stalls: run.net.client_stalls,
        nvme_read_errors: counts.nvme_read_errors,
        nvme_latency_spikes: counts.nvme_latency_spikes,
        sq_rejects: counts.sq_rejects,
        fetch_retries: served.fetch_retries,
        conns_aborted: counts.conns_aborted,
        rto_fired: counts.rto_fired,
    };
    let overload = OverloadMetrics {
        shed_new: served.shed_new,
        retry_503: served.retry_503,
        reaped_idle: served.reaped_idle,
        aborted_slow: served.aborted_slow,
        empty_waits: served.empty_waits,
        futile_wakes: served.futile_wakes,
        client_resets: fleet.resets_received(),
        client_503s: fleet.rejections_503(),
        client_retries: fleet.retries_fired,
        ttfb_p99_ms: fleet.ttfb_p99_ms(),
    };
    let metrics = RunMetrics {
        label: server.label(),
        net_gbps,
        cpu_pct: server.cpu_pct(sc.warmup, end),
        mem_read_gbps: snap.read_gbps(),
        mem_write_gbps: snap.write_gbps(),
        read_net_ratio: if net_gbps > 0.0 {
            snap.read_gbps() / net_gbps
        } else {
            0.0
        },
        llc_miss_e8: snap.miss_reads_e8(),
        responses: fleet.responses_completed,
        total_body_bytes: fleet.total_body_bytes,
        verified_bytes: fleet.verify_stats.verified_bytes,
        verify_failures: fleet.verify_stats.failures,
        live_fraction: fleet.live_fraction(),
        disk_reads: served.disk_reads,
        disk_read_bytes: served.disk_read_bytes,
        retransmit_fetches: served.retransmit_fetches,
        leaked_buffers: server.leaked_buffers(),
        host_pages: server.host_pages(),
        faults,
        overload,
        perf: server.prof_report(),
        abr: run.abr,
        pool_occ: run.pool_occ[0],
        tier: server.tier_ids().map(|ids| ids.read(reg)),
        digest: run.digest.0,
    };
    (metrics, run.report)
}

/// The scenario's server and fleet, run through the testbed.
fn run_lone(sc: &Scenario, obs: &ObsOptions) -> testbed::Finished<ClientFleet> {
    let (mut server, fidelity): (Box<dyn VideoServer>, Fidelity) = match &sc.server {
        ServerKind::Atlas(cfg) => {
            let mut cfg = cfg.clone();
            cfg.trace |= obs.trace_out.is_some();
            let fidelity = cfg.fidelity;
            (
                Box::new(AtlasServer::new(cfg, sc.catalog.clone(), sc.seed)),
                fidelity,
            )
        }
        ServerKind::Kstack(cfg) => (
            Box::new(KstackServer::new(cfg.clone(), sc.catalog.clone(), sc.seed)),
            cfg.fidelity,
        ),
    };
    let mut fleet_cfg = sc.fleet;
    // At modeled fidelity there are no real bytes to verify.
    fleet_cfg.verify &= matches!(fidelity, Fidelity::Full);
    // Effective fault configuration: the legacy `data_loss` knob maps
    // onto the uniform loss model when no explicit model is set.
    let mut faults = sc.faults;
    if matches!(faults.net.loss, LossModel::None) && sc.data_loss > 0.0 {
        faults.net.loss = LossModel::Uniform(sc.data_loss);
    }
    server.inject_faults(&faults, sc.seed);
    let testbed = Testbed {
        servers: vec![server],
        middlebox: DelayMiddlebox::paper(sc.seed),
        faults,
        n_clients: sc.fleet.n_clients,
        warmup: sc.warmup,
        duration: sc.duration,
        seed: sc.seed,
        tag_servers: false,
    };
    // Client-fault modes live in the fleet: the first N clients turn
    // into the slowloris attackers the fault config names.
    let clients = ClientFleet::new(fleet_cfg, sc.catalog.clone(), sc.seed)
        .with_attackers(sc.faults.client.slowloris_conns as usize);
    testbed::run(testbed, clients, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_srvcore::ServedWork;

    /// The served counts summed by counter name, as the result
    /// builders once read them.
    fn by_name(reg: &dcn_obs::Registry) -> ServedWork {
        let sum = |names: &[&str]| names.iter().map(|n| reg.sum_prefixed(n)).sum();
        ServedWork {
            responses: sum(&["atlas.responses", "kstack.responses"]),
            http_payload_bytes: sum(&["atlas.http_payload_bytes"]),
            disk_reads: sum(&["atlas.disk_reads"]),
            disk_read_bytes: sum(&["atlas.disk_read_bytes", "kstack.disk_read_bytes"]),
            retransmit_fetches: sum(&["atlas.retransmit_fetches"]),
            fetch_retries: sum(&["atlas.fetch_retries", "kstack.fill_retries"]),
            shed_new: sum(&["atlas.overload.shed_new", "kstack.overload.shed_new"]),
            retry_503: sum(&["atlas.overload.retry_503", "kstack.overload.retry_503"]),
            reaped_idle: sum(&["atlas.overload.reaped_idle"]),
            aborted_slow: sum(&["atlas.overload.aborted_slow"]),
            empty_waits: sum(&["atlas.bufpool.empty_waits", "kstack.bufcache.empty_waits"]),
            futile_wakes: sum(&["atlas.bufpool.futile_wakes", "kstack.bufcache.futile_wakes"]),
        }
    }

    #[test]
    fn served_work_reads_the_counters_its_names_sum() {
        let mut atlas = AtlasConfig {
            encrypted: true,
            bufs_per_queue: 24,
            ..AtlasConfig::default()
        };
        atlas.admission.max_conns_per_core = 4;
        atlas.admission.pool_low_enter = 0.5;
        atlas.admission.pool_low_exit = 0.75;
        let mut kstack = KstackConfig {
            encrypted: true,
            ..KstackConfig::netflix()
        };
        kstack.admission.max_conns_per_core = 2;
        // Atlas also counts commands, payload bytes, re-fetches, 503s,
        // reaps and pool waits; the kernel stack leaves those 0.
        let atlas_only = |w: &ServedWork| {
            [
                w.http_payload_bytes,
                w.disk_reads,
                w.retransmit_fetches,
                w.retry_503,
                w.reaped_idle,
                w.empty_waits,
            ]
        };
        for server in [ServerKind::Atlas(atlas), ServerKind::Kstack(kstack)] {
            let is_atlas = matches!(server, ServerKind::Atlas(_));
            let mut sc = Scenario::smoke(server, 24, 3);
            sc.duration = Nanos::from_millis(1200);
            sc.faults.net.loss = LossModel::Uniform(0.01);
            sc.faults.nvme.read_error_p = 0.01;
            sc.faults.client.slowloris_conns = 2;
            let run = run_lone(&sc, &ObsOptions::disabled());
            let server = &run.net.tb.servers[0];
            let served = server.served();
            assert_eq!(served, by_name(server.registry().expect("registry")));
            // Faults and overload engaged: the comparison is not 0 == 0.
            let engaged = [
                served.responses,
                served.disk_read_bytes,
                served.fetch_retries,
                served.shed_new,
            ];
            assert!(engaged.iter().all(|&n| n > 0), "{served:?}");
            if is_atlas {
                assert!(atlas_only(&served).iter().all(|&n| n > 0), "{served:?}");
            }
        }
    }

    #[test]
    fn rto_fired_reads_the_tcbs_its_gauges_sum() {
        let servers = [
            ServerKind::Atlas(AtlasConfig::default()),
            ServerKind::Kstack(KstackConfig::netflix()),
        ];
        for server in servers {
            let mut sc = Scenario::smoke(server, 8, 17);
            sc.duration = Nanos::from_millis(1200);
            sc.faults.net.loss = LossModel::gilbert_elliott_for(0.03);
            let run = run_lone(&sc, &ObsOptions::disabled());
            let server = &run.net.tb.servers[0];
            let rto_fired = server.fault_counts().rto_fired;
            let reg = server.registry().expect("registry");
            assert_eq!(rto_fired as f64, reg.sum_prefixed_gauge("tcp.rto_fired"));
            // Loss engaged the timer: the comparison is not 0 == 0.
            assert!(rto_fired > 0, "{}", server.label());
        }
    }

    #[test]
    fn record_ciphers_and_oracles_exist_only_when_sealing() {
        // A modeled TLS run charges encryption without sealing bytes,
        // so neither end builds a cipher; a full-fidelity one builds a
        // server cipher and a client oracle per connection, and the
        // oracle checks what the clients received: every byte but the
        // record each connection still has in flight when the run ends
        // (a record verifies once its tag arrives).
        for fidelity in [Fidelity::Modeled, Fidelity::Full] {
            let servers = [
                ServerKind::Atlas(AtlasConfig {
                    encrypted: true,
                    fidelity,
                    ..AtlasConfig::default()
                }),
                ServerKind::Kstack(KstackConfig {
                    encrypted: true,
                    fidelity,
                    ..KstackConfig::netflix()
                }),
            ];
            for server in servers {
                let sc = Scenario::smoke(server, 8, 23);
                let run = run_lone(&sc, &ObsOptions::disabled());
                let (server, fleet) = (&run.net.tb.servers[0], &run.client);
                let full = fidelity == Fidelity::Full;
                let built = if full { fleet.n_clients() } else { 0 };
                let label = server.label();
                assert_eq!(server.record_ciphers(), built, "{label}");
                assert_eq!(fleet.oracles(), built, "{label}");
                assert!(fleet.total_body_bytes > 0, "{label}");
                let stats = fleet.verify_stats;
                assert_eq!(stats.failures, 0, "{label}");
                if full {
                    let cut = fleet.n_clients() as u64 * dcn_crypto::RECORD_PAYLOAD_MAX;
                    let unverified = fleet.total_body_bytes - stats.verified_bytes;
                    assert!(unverified < cut, "{label}: {unverified} B unverified");
                } else {
                    assert_eq!(stats.verified_bytes, 0, "{label}");
                }
            }
        }
    }
}
