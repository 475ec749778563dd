//! The §4 testbed in one deterministic event loop.
//!
//! Topology: server ↔ 40 GbE cut-through switch ↔ clients, with the
//! delay middlebox on the client→server path only (data flows
//! server→client over the LAN with microsecond latency; ACKs and
//! requests take the per-flow 10–40 ms detour — exactly the paper's
//! setup, including its rationale of keeping the middlebox out of
//! the high-rate direction).

use crate::fleet::{ClientFleet, ClientTx, FleetConfig};
use dcn_atlas::{AtlasConfig, AtlasServer};
use dcn_faults::{salt, FaultConfig, FaultCounts, FrameFate, FrameInfo, LinkFaults, LossModel};
use dcn_kstack::{KstackConfig, KstackServer};
use dcn_mem::{Fidelity, MemSnapshot};
use dcn_netdev::parse_frame;
use dcn_netdev::{tcp_frame_info, DelayMiddlebox, SentBurst, WireFrame};
use dcn_obs::export::{stage_summary, write_trace_jsonl, TimeSeries};
use dcn_packet::FlowId;
use dcn_simcore::{EventQueue, Nanos};
use dcn_srvcore::TierIds;
pub use dcn_srvcore::TierMetrics;
use dcn_store::Catalog;
use std::collections::HashMap;
use std::path::PathBuf;

/// Switch forwarding latency (cut-through 40 GbE).
const SWITCH_LATENCY: Nanos = Nanos(2_000);

/// Abstraction over the two server implementations so the harness
/// and every figure binary treat them identically.
pub trait VideoServer {
    /// Frames arrive from the wire; returns bursts that left the NIC.
    fn on_wire_rx(&mut self, now: Nanos, frames: Vec<WireFrame>) -> Vec<SentBurst>;
    /// Next instant internal state needs service.
    fn poll_at(&self) -> Option<Nanos>;
    /// Service internal state (disk completions, timers, worker
    /// threads); returns bursts that left the NIC.
    fn advance(&mut self, now: Nanos) -> Vec<SentBurst>;
    /// DRAM counters over a window.
    fn mem_snapshot(&self, warmup: Nanos, end: Nanos) -> MemSnapshot;
    /// Total CPU utilization in percent over a window.
    fn cpu_pct(&self, warmup: Nanos, end: Nanos) -> f64;
    /// Descriptive label for reports.
    fn label(&self) -> String;
    /// Free-form diagnostics line (stall debugging).
    fn debug_stats(&self) -> String {
        String::new()
    }
    /// Poll-source breakdown (wake-storm debugging).
    fn poll_breakdown(&self) -> String {
        String::new()
    }
    /// Publish sample-point gauges into the server's registry.
    fn publish_obs(&mut self) {}
    /// The server's unified metrics registry, if it has one.
    fn registry(&self) -> Option<&dcn_obs::Registry> {
        None
    }
    /// The chunk-lifecycle tracer (Atlas only).
    fn tracer(&self) -> Option<&dcn_obs::Tracer> {
        None
    }
    /// Stage-profiler snapshot (servers built with `profile: true`).
    fn prof_report(&self) -> Option<dcn_obs::ProfReport> {
        None
    }
    /// Mutable registry access (the harness publishes link/client
    /// fault counters into the server's unified registry so the
    /// metrics CSV carries them).
    fn registry_mut(&mut self) -> Option<&mut dcn_obs::Registry> {
        None
    }
    /// Arm the server-side seeded fault injectors (NVMe device and
    /// submission-queue faults). Link and client faults are applied
    /// by the harness itself.
    fn inject_faults(&mut self, _f: &FaultConfig, _seed: u64) {}
    /// Buffer-pool leak audit (Atlas only): DMA buffers neither free
    /// nor legitimately held. 0 for servers without a DMA pool.
    fn leaked_buffers(&self) -> i64 {
        0
    }
    /// Instantaneous DMA buffer-pool state as (free, capacity). None
    /// for servers without a pool — the harness stops sampling.
    fn pool_snapshot(&self) -> Option<(u64, u64)> {
        None
    }
    /// The `tier.*` handles, registered iff the server was built with
    /// a tier engine (or, on Atlas, the hot-chunk cache).
    fn tier_ids(&self) -> Option<&TierIds> {
        None
    }
    /// What the server's own fault handling counted so far.
    fn fault_counts(&self) -> FaultCounts;
}

impl VideoServer for AtlasServer {
    fn on_wire_rx(&mut self, now: Nanos, frames: Vec<WireFrame>) -> Vec<SentBurst> {
        AtlasServer::on_wire_rx(self, now, frames)
    }
    fn poll_at(&self) -> Option<Nanos> {
        AtlasServer::poll_at(self)
    }
    fn advance(&mut self, now: Nanos) -> Vec<SentBurst> {
        AtlasServer::advance(self, now)
    }
    fn mem_snapshot(&self, warmup: Nanos, end: Nanos) -> MemSnapshot {
        self.mem.counters.snapshot(warmup, end)
    }
    fn cpu_pct(&self, warmup: Nanos, end: Nanos) -> f64 {
        self.cores.utilization_pct(warmup, end)
    }
    fn label(&self) -> String {
        format!(
            "Atlas/{} cores{}",
            self.cfg.cores,
            if self.cfg.encrypted { " TLS" } else { "" }
        )
    }
    fn debug_stats(&self) -> String {
        self.debug_stats_string()
    }
    fn poll_breakdown(&self) -> String {
        self.poll_breakdown()
    }
    fn publish_obs(&mut self) {
        AtlasServer::publish_obs(self);
    }
    fn registry(&self) -> Option<&dcn_obs::Registry> {
        Some(&self.reg)
    }
    fn tracer(&self) -> Option<&dcn_obs::Tracer> {
        Some(&self.tracer)
    }
    fn prof_report(&self) -> Option<dcn_obs::ProfReport> {
        AtlasServer::prof_report(self)
    }
    fn registry_mut(&mut self) -> Option<&mut dcn_obs::Registry> {
        Some(&mut self.reg)
    }
    fn inject_faults(&mut self, f: &FaultConfig, seed: u64) {
        AtlasServer::inject_faults(self, f, seed);
    }
    fn leaked_buffers(&self) -> i64 {
        AtlasServer::leaked_buffers(self)
    }
    fn pool_snapshot(&self) -> Option<(u64, u64)> {
        Some((
            u64::from(self.free_buffers()),
            u64::from(self.pool_capacity()),
        ))
    }
    fn tier_ids(&self) -> Option<&TierIds> {
        self.tier_ids.as_ref()
    }
    fn fault_counts(&self) -> FaultCounts {
        AtlasServer::fault_counts(self)
    }
}

impl VideoServer for KstackServer {
    fn on_wire_rx(&mut self, now: Nanos, frames: Vec<WireFrame>) -> Vec<SentBurst> {
        KstackServer::on_wire_rx(self, now, frames)
    }
    fn poll_at(&self) -> Option<Nanos> {
        KstackServer::poll_at(self)
    }
    fn advance(&mut self, now: Nanos) -> Vec<SentBurst> {
        KstackServer::advance(self, now)
    }
    fn mem_snapshot(&self, warmup: Nanos, end: Nanos) -> MemSnapshot {
        self.mem.counters.snapshot(warmup, end)
    }
    fn cpu_pct(&self, warmup: Nanos, end: Nanos) -> f64 {
        self.cores.utilization_pct(warmup, end)
    }
    fn label(&self) -> String {
        self.variant_label()
    }
    fn publish_obs(&mut self) {
        KstackServer::publish_obs(self);
    }
    fn registry(&self) -> Option<&dcn_obs::Registry> {
        Some(&self.reg)
    }
    fn prof_report(&self) -> Option<dcn_obs::ProfReport> {
        KstackServer::prof_report(self)
    }
    fn registry_mut(&mut self) -> Option<&mut dcn_obs::Registry> {
        Some(&mut self.reg)
    }
    fn inject_faults(&mut self, f: &FaultConfig, seed: u64) {
        KstackServer::inject_faults(self, f, seed);
    }
    fn tier_ids(&self) -> Option<&TierIds> {
        self.tier_ids.as_ref()
    }
    fn fault_counts(&self) -> FaultCounts {
        KstackServer::fault_counts(self)
    }
}

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
    /// Staging/fetch passes parked on an empty buffer pool.
    pub empty_waits: u64,
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
}

/// DMA-pool occupancy sampling cadence (virtual time).
const POOL_SAMPLE_EVERY: Nanos = Nanos(500_000);

enum Ev {
    /// Ramp-up: spawn client `idx`.
    Spawn(usize),
    /// Frames arrive at the server.
    ServerRx(Vec<WireFrame>),
    /// A burst arrives at the clients for `flow` (server→client
    /// direction).
    ClientRx(FlowId, Vec<WireFrame>),
    /// Server internal wake (disk completion / TCP timer).
    ServerWake,
    /// A client's Retry-After backoff expired: re-send shed requests.
    RetryWake,
    /// An ABR client's playout buffer drained to the resume level:
    /// the "on" edge of its on-off cycle.
    AbrWake,
    /// Read the DMA buffer-pool level (observation only — never
    /// mutates simulation state).
    PoolSample,
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
    let mut server: Box<dyn VideoServer> = match &sc.server {
        ServerKind::Atlas(cfg) => {
            let mut cfg = cfg.clone();
            if obs.trace_out.is_some() {
                cfg.trace = true;
            }
            Box::new(AtlasServer::new(cfg, sc.catalog.clone(), sc.seed))
        }
        ServerKind::Kstack(cfg) => {
            Box::new(KstackServer::new(cfg.clone(), sc.catalog.clone(), sc.seed))
        }
    };
    let fidelity_full = matches!(
        &sc.server,
        ServerKind::Atlas(AtlasConfig {
            fidelity: Fidelity::Full,
            ..
        }) | ServerKind::Kstack(KstackConfig {
            fidelity: Fidelity::Full,
            ..
        })
    );
    let mut fleet_cfg = sc.fleet;
    if !fidelity_full {
        fleet_cfg.verify = false; // nothing real to verify
    }
    // Client-fault modes live in the fleet: the first N clients turn
    // into slowloris attackers.
    fleet_cfg.slowloris = (sc.faults.client.slowloris_conns as usize).min(fleet_cfg.n_clients);
    let mut fleet = ClientFleet::new(fleet_cfg, sc.catalog.clone(), sc.seed);
    let middlebox = DelayMiddlebox::paper(sc.seed);
    // Effective fault configuration: the legacy `data_loss` knob maps
    // onto the uniform loss model when no explicit model is set.
    let mut fcfg = sc.faults;
    if matches!(fcfg.net.loss, LossModel::None) && sc.data_loss > 0.0 {
        fcfg.net.loss = LossModel::Uniform(sc.data_loss);
    }
    server.inject_faults(&fcfg, sc.seed);
    let mut link = LinkFaults::new(fcfg.net, sc.seed);
    let mut stall_rng = dcn_faults::rng_for(sc.seed, salt::CLIENT);
    let mut stalled_until: HashMap<FlowId, Nanos> = HashMap::new();
    let mut client_stalls: u64 = 0;
    let mut q: EventQueue<Ev> = EventQueue::new();

    // Ramp clients over the first 150 ms (or the warm-up, whichever
    // is shorter) so the server isn't hit by one synchronized SYN
    // flood — unless the aggressive-open fault is armed, in which
    // case that flood is exactly the point.
    let ramp = if fcfg.client.aggressive_open {
        Nanos::ZERO
    } else {
        sc.warmup.min(Nanos::from_millis(150))
    };
    for idx in 0..sc.fleet.n_clients {
        let at = ramp.mul_f64(idx as f64 / sc.fleet.n_clients.max(1) as f64);
        q.schedule(at, Ev::Spawn(idx));
    }
    q.schedule(Nanos::ZERO, Ev::ServerWake);

    // Metrics CSV sampling (virtual-time cadence; off ⇒ zero work).
    let sample_interval = obs.sample_interval.unwrap_or(Nanos::from_millis(10));
    let mut series = obs.metrics_out.as_ref().map(|_| TimeSeries::new());
    let mut next_sample = sample_interval;

    let mut next_wake = Nanos::MAX;
    let mut next_retry_wake = Nanos::MAX;
    let mut next_paced_wake = Nanos::MAX;
    // DMA-pool occupancy accumulators (post-warmup samples only).
    q.schedule(POOL_SAMPLE_EVERY, Ev::PoolSample);
    let mut pool_samples: u64 = 0;
    let mut pool_min = u64::MAX;
    let mut pool_sum = 0.0;
    let mut pool_sumsq = 0.0;
    let mut pool_cap: u64 = 0;
    let progress = std::env::var_os("DCN_PROGRESS").is_some();
    let mut n_events: u64 = 0;
    let mut counts = [0u64; 7];
    let mut steady_armed = false;
    while let Some(ev) = q.pop() {
        let now = ev.at;
        if !steady_armed && now >= sc.warmup {
            // The scratch arenas have reached steady-state capacity by
            // the end of warm-up; anything that grows them after this
            // point is hot-path heap traffic the zero-alloc tests
            // assert against (DESIGN.md §12).
            dcn_obs::steady::reset();
            steady_armed = true;
        }
        n_events += 1;
        counts[match &ev.event {
            Ev::Spawn(_) => 0,
            Ev::ServerRx(_) => 1,
            Ev::ClientRx(..) => 2,
            Ev::ServerWake => 3,
            Ev::RetryWake => 4,
            Ev::AbrWake => 5,
            Ev::PoolSample => 6,
        }] += 1;
        if progress && n_events.is_multiple_of(1_000_000) {
            eprintln!(
                "  ... {}M events (spawn {} srx {} crx {} wake {}), sim t={:?}, queue={}, poll: {}",
                n_events / 1_000_000,
                counts[0],
                counts[1],
                counts[2],
                counts[3],
                now,
                q.len(),
                server.poll_breakdown()
            );
        }
        if now > sc.duration {
            break;
        }
        if let Some(ts) = series.as_mut() {
            while next_sample <= now {
                server.publish_obs();
                publish_fault_gauges(server.as_mut(), &link, client_stalls);
                if let Some(reg) = server.registry() {
                    ts.sample(next_sample, reg);
                }
                next_sample += sample_interval;
            }
        }
        match ev.event {
            Ev::Spawn(idx) => {
                let tx = fleet.spawn(idx, sc.seed);
                route_client_tx(&mut q, &middlebox, now, tx);
            }
            Ev::ServerRx(frames) => {
                let bursts = server.on_wire_rx(now, frames);
                route_bursts(&mut q, now, bursts, &mut link);
            }
            Ev::ClientRx(flow, frames) => {
                if fcfg.client.is_active() {
                    // Injected client stall: the whole flow's delivery
                    // pauses; everything arriving meanwhile is
                    // deferred (in order) to the stall's end.
                    let until = stalled_until.get(&flow).copied();
                    if let Some(until) = until.filter(|&u| u > now) {
                        q.schedule(until, Ev::ClientRx(flow, frames));
                        continue;
                    }
                    if stall_rng.chance(fcfg.client.stall_p) {
                        client_stalls += 1;
                        let until = now + fcfg.client.stall;
                        stalled_until.insert(flow, until);
                        q.schedule(until, Ev::ClientRx(flow, frames));
                        continue;
                    }
                }
                if let Some(tx) = fleet.on_burst(now, flow, frames) {
                    route_client_tx(&mut q, &middlebox, now, tx);
                }
            }
            Ev::ServerWake => {
                // `next_wake` tracks the earliest wake still in the
                // queue. Only clear it when THAT wake fires; a stale
                // earlier duplicate must not clear it, or every stale
                // pop would re-schedule the same future deadline and
                // wakes would multiply without bound.
                if now >= next_wake {
                    next_wake = Nanos::MAX;
                }
                let bursts = server.advance(now);
                route_bursts(&mut q, now, bursts, &mut link);
            }
            Ev::RetryWake => {
                if now >= next_retry_wake {
                    next_retry_wake = Nanos::MAX;
                }
                for tx in fleet.fire_retries(now) {
                    route_client_tx(&mut q, &middlebox, now, tx);
                }
            }
            Ev::AbrWake => {
                if now >= next_paced_wake {
                    next_paced_wake = Nanos::MAX;
                }
                for tx in fleet.fire_paced(now) {
                    route_client_tx(&mut q, &middlebox, now, tx);
                }
            }
            Ev::PoolSample => {
                if let Some((free, cap)) = server.pool_snapshot() {
                    if now >= sc.warmup {
                        pool_samples += 1;
                        pool_min = pool_min.min(free);
                        pool_sum += free as f64;
                        pool_sumsq += free as f64 * free as f64;
                        pool_cap = cap;
                    }
                    let at = now + POOL_SAMPLE_EVERY;
                    if at <= sc.duration {
                        q.schedule(at, Ev::PoolSample);
                    }
                }
            }
        }
        // Keep exactly one pending wake at the server's next deadline.
        if let Some(at) = server.poll_at() {
            let at = at.max(q.now());
            if at < next_wake {
                q.schedule(at, Ev::ServerWake);
                next_wake = at;
            }
        }
        // Same single-pending-wake discipline for Retry-After timers.
        if let Some(at) = fleet.next_retry_at() {
            let at = at.max(q.now());
            if at < next_retry_wake {
                q.schedule(at, Ev::RetryWake);
                next_retry_wake = at;
            }
        }
        // …and for ABR on-off resumes.
        if let Some(at) = fleet.next_paced_at() {
            let at = at.max(q.now());
            if at < next_paced_wake {
                q.schedule(at, Ev::AbrWake);
                next_paced_wake = at;
            }
        }
    }

    if std::env::var_os("DCN_DEBUG").is_some() {
        eprintln!("server debug: {}", server.debug_stats());
    }
    let end = sc.duration;
    let mut report = ObsReport::default();
    // Close ABR sessions first so the fleet's QoE lands in the
    // registry (and the final CSV sample) alongside goodput/TTFB.
    let abr_readout = fleet.finish_abr(end);
    if let (Some(a), Some(reg)) = (abr_readout.as_ref(), server.registry_mut()) {
        for (name, v) in [
            ("qoe.sessions", a.qoe.sessions as f64),
            ("qoe.started", a.qoe.started as f64),
            ("qoe.startup_ms_mean", a.qoe.startup_ms_mean),
            ("qoe.startup_ms_max", a.qoe.startup_ms_max),
            ("qoe.rebuffer_ratio", a.qoe.rebuffer_ratio),
            ("qoe.rebuffer_events", a.qoe.rebuffer_events as f64),
            ("qoe.switches", a.qoe.switches as f64),
            ("qoe.downswitches", a.downswitches as f64),
            ("qoe.avg_bitrate_mbps", a.qoe.avg_bitrate_mbps),
        ] {
            let g = reg.gauge(name);
            reg.set(g, v);
        }
    }
    // Final publish: gauges (including fault counters) reflect
    // end-of-run state both for the last CSV sample and for the
    // registry reads below.
    server.publish_obs();
    publish_fault_gauges(server.as_mut(), &link, client_stalls);
    if let Some(ts) = series.as_mut() {
        if let Some(reg) = server.registry() {
            ts.sample(end, reg);
        }
    }
    if let (Some(path), Some(ts)) = (obs.metrics_out.as_ref(), series.as_ref()) {
        if let Err(e) = ts.write_csv(path) {
            eprintln!(
                "warning: failed to write metrics CSV {}: {e}",
                path.display()
            );
        }
    }
    if let Some(path) = obs.trace_out.as_ref() {
        if let Some(tr) = server.tracer() {
            if let Err(e) = write_trace_jsonl(path, tr) {
                eprintln!(
                    "warning: failed to write trace JSONL {}: {e}",
                    path.display()
                );
            }
            report.traced_chunks = tr.finished().len();
            report.stage_summary = stage_summary(tr);
        }
    }
    let snap = server.mem_snapshot(sc.warmup, end);
    let net_gbps = fleet.goodput.rate_per_sec(sc.warmup, end) * 8.0 / 1e9;
    let empty_reg = dcn_obs::Registry::new();
    let reg = server.registry().unwrap_or(&empty_reg);
    let counts = server.fault_counts();
    let faults = FaultMetrics {
        net_dropped: link.dropped,
        net_duplicated: link.duplicated,
        net_corrupt_dropped: link.corrupt_dropped,
        net_corrupt_delivered: link.corrupt_delivered,
        net_retx_dropped: link.retx_dropped,
        client_stalls,
        nvme_read_errors: counts.nvme_read_errors,
        nvme_latency_spikes: counts.nvme_latency_spikes,
        sq_rejects: counts.sq_rejects,
        fetch_retries: reg.sum_prefixed("atlas.fetch_retries")
            + reg.sum_prefixed("kstack.fill_retries"),
        conns_aborted: counts.conns_aborted,
        rto_fired: reg.sum_prefixed_gauge("tcp.rto_fired") as u64,
    };
    let overload = OverloadMetrics {
        shed_new: reg.sum_prefixed("atlas.overload.shed_new")
            + reg.sum_prefixed("kstack.overload.shed_new"),
        retry_503: reg.sum_prefixed("atlas.overload.retry_503")
            + reg.sum_prefixed("kstack.overload.retry_503"),
        reaped_idle: reg.sum_prefixed("atlas.overload.reaped_idle"),
        aborted_slow: reg.sum_prefixed("atlas.overload.aborted_slow"),
        empty_waits: reg.sum_prefixed("atlas.bufpool.empty_waits")
            + reg.sum_prefixed("kstack.bufcache.empty_waits"),
        client_resets: fleet.resets_received(),
        client_503s: fleet.rejections_503(),
        client_retries: fleet.retries_fired,
        ttfb_p99_ms: fleet.ttfb_p99_ms(),
    };
    let tier = server.tier_ids().map(|ids| ids.read(reg));
    let disk_reads = reg.sum_prefixed("atlas.disk_reads");
    let disk_read_bytes =
        reg.sum_prefixed("atlas.disk_read_bytes") + reg.sum_prefixed("kstack.disk_read_bytes");
    let retransmit_fetches = reg.sum_prefixed("atlas.retransmit_fetches");
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
        disk_reads,
        disk_read_bytes,
        retransmit_fetches,
        leaked_buffers: server.leaked_buffers(),
        faults,
        overload,
        perf: server.prof_report(),
        abr: abr_readout,
        pool_occ: (pool_samples > 0).then(|| {
            let mean = pool_sum / pool_samples as f64;
            let var = (pool_sumsq / pool_samples as f64 - mean * mean).max(0.0);
            PoolOcc {
                samples: pool_samples,
                capacity: pool_cap,
                free_min: pool_min,
                free_mean: mean,
                free_stddev: var.sqrt(),
            }
        }),
        tier,
    };
    (metrics, report)
}

/// Mirror the harness-side fault counters (link faults, client
/// stalls) into the server's unified registry so the metrics CSV and
/// any exporter see one coherent `faults.*` family.
fn publish_fault_gauges(server: &mut dyn VideoServer, link: &LinkFaults, client_stalls: u64) {
    let Some(reg) = server.registry_mut() else {
        return;
    };
    for (name, v) in [
        ("faults.net_dropped", link.dropped),
        ("faults.net_duplicated", link.duplicated),
        ("faults.net_corrupt_dropped", link.corrupt_dropped),
        ("faults.net_corrupt_delivered", link.corrupt_delivered),
        ("faults.net_retx_dropped", link.retx_dropped),
        ("faults.client_stalls", client_stalls),
    ] {
        let g = reg.gauge(name);
        reg.set(g, v as f64);
    }
}

/// Flip one payload byte of a frame whose corruption the (bypassed)
/// FCS failed to catch. Only materialized payloads can be mangled; at
/// modeled fidelity the bytes don't exist, so the frame passes
/// through (content verification is off there anyway).
pub fn corrupt_frame(mut f: WireFrame) -> WireFrame {
    if let dcn_netdev::PayloadBytes::Real(b) = &mut f.payload {
        if !b.is_empty() {
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
        }
    }
    f
}

fn route_client_tx(q: &mut EventQueue<Ev>, mb: &DelayMiddlebox, now: Nanos, tx: ClientTx) {
    if tx.frames.is_empty() {
        return;
    }
    // Client → middlebox (per-flow constant delay) → switch → server.
    let delay = mb.delay(tx.flow) + SWITCH_LATENCY;
    q.schedule(now + delay, Ev::ServerRx(tx.frames));
}

fn route_bursts(
    q: &mut EventQueue<Ev>,
    _now: Nanos,
    bursts: Vec<SentBurst>,
    link: &mut LinkFaults,
) {
    let active = link.is_active();
    for b in bursts {
        // All frames of one burst belong to one flow (one TX
        // descriptor). Server → switch → client: LAN latency only.
        // The link fault model acts on individual data frames;
        // control frames (SYN-ACKs, bare ACKs) always get through —
        // `data_loss` has always meant *data* loss.
        let frames: Vec<WireFrame> = if active {
            let mut out = Vec::with_capacity(b.frames.len());
            for f in b.frames {
                let info = tcp_frame_info(&f).filter(|i| i.payload_len > 0);
                let Some(i) = info else {
                    out.push(f);
                    continue;
                };
                match link.classify(FrameInfo {
                    flow_key: i.flow_key,
                    seq: i.seq,
                    payload_len: i.payload_len,
                }) {
                    FrameFate::Deliver => out.push(f),
                    FrameFate::Drop | FrameFate::CorruptDrop => {}
                    FrameFate::Duplicate => {
                        out.push(f.clone());
                        out.push(f);
                    }
                    FrameFate::CorruptDeliver => out.push(corrupt_frame(f)),
                }
            }
            out
        } else {
            b.frames
        };
        if frames.is_empty() {
            continue;
        }
        let Some((flow, _, _)) = parse_frame(&frames[0]) else {
            continue;
        };
        q.schedule(b.departed + SWITCH_LATENCY, Ev::ClientRx(flow, frames));
    }
}
