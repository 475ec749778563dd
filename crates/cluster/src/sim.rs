//! N Atlas servers, one virtual-time simulation.
//!
//! A cluster run is `dcn_workload::testbed`'s event loop over N
//! servers: every server sits behind the same cut-through switch; the
//! delay middlebox stays on the client→server path only. This module
//! is the loop's cluster client side (`Pod`) and the result builder.
//! The dispatcher is *control-plane only* — it picks which server a
//! request goes to (the way a CDN's request router or DNS steering
//! does), and the client then talks TCP to that server directly, so
//! the data path is byte-identical to the single-server runs.
//!
//! Failure handling is fail-stop with delayed detection: a killed
//! server's frames (in both directions) vanish, and [`DETECT_DELAY`]
//! later the control loop marks it down, severs its client
//! connections, and re-dispatches every interrupted transfer to a
//! replica with a `Range: bytes=N-` resume.

use crate::dispatcher::{Dispatcher, Health};
use dcn_atlas::{AtlasConfig, AtlasServer};
use dcn_faults::FaultConfig;
use dcn_mem::Fidelity;
use dcn_netdev::{DelayMiddlebox, WireFrame};
use dcn_obs::export::TimeSeries;
use dcn_packet::{FlowId, Ipv4Addr, MacAddr};
use dcn_simcore::Nanos;
use dcn_srvcore::SERVER_ENDPOINT;
use dcn_store::Catalog;
use dcn_tcpstack::Endpoint;
use dcn_workload::fleet::{AbrReadout, FleetConfig};
use dcn_workload::runner::{ObsOptions, ObsReport};
use dcn_workload::testbed::{self, ClientSide, Net, PendingWake, Testbed};
use dcn_workload::{MultiFleet, NeedStep, PoolOcc, RequestNeed, VideoServer};

/// Control-loop failure-detection latency (kill → mark-down +
/// re-dispatch).
pub const DETECT_DELAY: Nanos = Nanos::from_millis(30);

/// One cluster experiment.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    pub n_servers: usize,
    /// Per-server Atlas configuration (the endpoint is overridden per
    /// server: server *i* listens on 10.0.0.(i+1):80).
    pub atlas: AtlasConfig,
    /// Client workload. `hot_files` doubles as the dispatcher's
    /// replicated hot set, so the cacheable workload's popular files
    /// are exactly the ones with standby replicas.
    pub fleet: FleetConfig,
    pub catalog: Catalog,
    /// Owners per hot file (≥2 ⇒ kill-tolerant hot set).
    pub replication: usize,
    /// Virtual nodes per server on the hash ring.
    pub vnodes: usize,
    pub warmup: Nanos,
    pub duration: Nanos,
    pub seed: u64,
    /// Fault schedule; `faults.cluster` drives server kill/drain.
    pub faults: FaultConfig,
    /// Client-path middlebox delay band `[min, max]` (7 bands). The
    /// paper's WAN testbed is 10–40 ms; scale-out experiments model
    /// an edge pod with clients a few ms away, where per-server
    /// capacity (not client round trips) is the bottleneck.
    pub client_delay: (Nanos, Nanos),
}

impl ClusterConfig {
    /// Test-sized cluster: full fidelity, verification on.
    #[must_use]
    pub fn smoke(n_servers: usize, n_clients: usize, seed: u64) -> ClusterConfig {
        ClusterConfig {
            n_servers,
            atlas: AtlasConfig::default(),
            fleet: FleetConfig {
                n_clients,
                ..FleetConfig::default()
            },
            catalog: Catalog::new(50_000, 300 * 1024, 4, seed),
            replication: 2,
            vnodes: 64,
            warmup: Nanos::from_millis(250),
            duration: Nanos::from_millis(700),
            seed,
            faults: FaultConfig::default(),
            client_delay: (Nanos::from_millis(10), Nanos::from_millis(40)),
        }
    }

    /// Server *i*'s endpoint: 10.0.0.(i+1):80, numbered on from the
    /// lone server's [`SERVER_ENDPOINT`].
    #[must_use]
    pub fn endpoints(n_servers: usize) -> Vec<Endpoint> {
        (0..n_servers)
            .map(|i| Endpoint {
                mac: MacAddr::from_host_id(i as u32 + 1),
                ip: Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                ..SERVER_ENDPOINT
            })
            .collect()
    }
}

/// Per-server readout.
#[derive(Clone, Debug)]
pub struct ServerStats {
    pub server: usize,
    pub alive: bool,
    pub responses: u64,
    pub http_payload_bytes: u64,
    pub disk_read_bytes: u64,
    pub cpu_pct: f64,
    pub leaked_buffers: i64,
    /// Tier hot-hit ratio; 1.0 when this server ran without a tier
    /// engine (no `tier.*` metrics registered).
    pub tier_hit_ratio: f64,
    /// Bytes this server pulled from the cold object store.
    pub tier_cold_bytes: u64,
    /// DMA-pool occupancy over the measurement window.
    pub pool_occ: Option<PoolOcc>,
}

/// Goodput before the kill vs after the control loop re-converged.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryStats {
    pub kill_at: Nanos,
    pub detect_at: Nanos,
    /// Aggregate goodput over [warmup, kill).
    pub pre_kill_gbps: f64,
    /// Aggregate goodput over [detect + settle, end) — the
    /// re-converged steady state on the surviving servers.
    pub post_recovery_gbps: f64,
}

/// Everything a cluster run reports.
#[derive(Clone, Debug)]
pub struct ClusterMetrics {
    pub label: String,
    pub n_servers: usize,
    /// Aggregate client goodput over [warmup, end).
    pub net_gbps: f64,
    pub responses: u64,
    pub total_body_bytes: u64,
    pub verified_bytes: u64,
    pub verify_failures: u64,
    pub live_fraction: f64,
    /// Clients re-dispatched after a server failure.
    pub failovers: u64,
    /// Failovers that resumed mid-body via a range request.
    pub resumed_responses: u64,
    /// Plaintext bytes the resumes did not re-download.
    pub resumed_bytes_saved: u64,
    /// Requests served by a non-primary owner.
    pub fallback_routes: u64,
    /// Requests that left the owner set entirely.
    pub overflow_routes: u64,
    /// Requests that found no routable server: every live one was
    /// shedding or draining. Each waits until a server stops shedding…
    pub unroutable: u64,
    /// …and those still waiting when the run ended.
    pub unroutable_pending: u64,
    /// 503 load-shed responses the clients received…
    pub client_503s: u64,
    /// …the requests re-sent after their `Retry-After` backoff…
    pub client_retries: u64,
    /// …and those still backing off when the run ended.
    pub client_retries_pending: u64,
    pub per_server: Vec<ServerStats>,
    /// Present when a kill was scheduled inside the run window.
    pub recovery: Option<RecoveryStats>,
    /// ABR readout (QoE + decision trace), present when the fleet ran
    /// in adaptive mode.
    pub abr: Option<AbrReadout>,
}

/// The cluster's clients: a `MultiFleet` behind the dispatcher, plus
/// the control loop that kills, drains and detects servers.
struct Pod {
    fleet: MultiFleet,
    dispatcher: Dispatcher,
    /// Requests with no routable server…
    unroutable: u64,
    /// …parked until a server stops shedding.
    parked: Vec<RequestNeed>,
    /// Admission-control feedback: servers holding their overload
    /// latch are marked Draining so the dispatcher routes around them;
    /// `shed_marked` remembers which Draining states are ours to undo
    /// (operator drains and kill-detection stay authoritative).
    shed_marked: Vec<bool>,
    operator_drained: Vec<bool>,
    /// The one pending Retry-After wake on the testbed.
    retry_wake: PendingWake,
}

enum PodEv {
    /// Fail-stop: server `s` goes dark (frames black-holed).
    Kill(usize),
    /// Operator drain: `s` takes no new requests, finishes in-flight.
    Drain(usize),
    /// Control loop notices `s` is gone: mark down, sever, re-route.
    Detect(usize),
    /// Client `c`'s ABR playout buffer drained to the resume level:
    /// draw its next need and dispatch it.
    AbrWake(usize),
    /// A client's Retry-After backoff expired: re-send shed requests.
    Retry,
}

impl Pod {
    /// Draw client `idx`'s next need (ABR-aware) and dispatch it; an
    /// on-off pause becomes an `AbrWake` at the session's resume time.
    fn issue_next_need(&mut self, net: &mut Net<PodEv>, now: Nanos, idx: usize) {
        match self.fleet.next_need_at(idx, now) {
            NeedStep::Need(need) => self.issue_request(net, now, need),
            NeedStep::PausedUntil(t) => net.schedule(t, PodEv::AbrWake(idx)),
        }
    }

    /// Route a request to the dispatcher's pick; with no routable
    /// server it parks until one stops shedding.
    fn issue_request(&mut self, net: &mut Net<PodEv>, now: Nanos, need: RequestNeed) {
        match self.dispatcher.route(need.file) {
            Some(server) => {
                let tx = self.fleet.request(need, server);
                net.send(now, server, tx);
            }
            None => {
                self.unroutable += 1;
                self.parked.push(need);
            }
        }
    }
}

impl ClientSide for Pod {
    type Event = PodEv;

    fn start(&mut self, net: &mut Net<PodEv>) {
        let faults = net.tb.faults.cluster;
        if let Some(k) = faults.kill {
            net.schedule(k.at, PodEv::Kill(k.server as usize));
            net.schedule(k.at + DETECT_DELAY, PodEv::Detect(k.server as usize));
        }
        if let Some(d) = faults.drain {
            if (d.server as usize) < net.tb.servers.len() {
                net.schedule(d.at, PodEv::Drain(d.server as usize));
            }
        }
    }

    fn spawn(&mut self, net: &mut Net<PodEv>, now: Nanos, idx: usize) {
        self.fleet.spawn(idx, net.tb.seed);
        self.issue_next_need(net, now, idx);
    }

    fn on_burst(&mut self, net: &mut Net<PodEv>, now: Nanos, flow: FlowId, frames: Vec<WireFrame>) {
        if let Some(out) = self.fleet.on_burst(now, flow, frames) {
            net.send(now, out.server, out.tx);
            for _ in 0..out.completed {
                self.issue_next_need(net, now, out.client);
            }
        }
    }

    fn on_event(&mut self, net: &mut Net<PodEv>, now: Nanos, ev: PodEv) {
        match ev {
            // The server stops mid-whatever; the control loop notices
            // at Detect.
            PodEv::Kill(s) => net.alive[s] = false,
            PodEv::Drain(s) => {
                self.operator_drained[s] = true;
                self.dispatcher.set_health(s, Health::Draining);
            }
            PodEv::Detect(s) => {
                self.dispatcher.set_health(s, Health::Down);
                for plan in self.fleet.fail_server(s) {
                    self.issue_request(net, now, plan);
                }
            }
            PodEv::AbrWake(c) => self.issue_next_need(net, now, c),
            PodEv::Retry => {
                self.retry_wake.fired(now);
                for (server, tx) in self.fleet.fire_retries(now) {
                    net.send(now, server, tx);
                }
            }
        }
    }

    fn after_event(&mut self, net: &mut Net<PodEv>, touched: Option<usize>) {
        if let Some(at) = self.retry_wake.arm(self.fleet.next_retry_at(), net.now()) {
            net.schedule(at, PodEv::Retry);
        }
        // A server shedding load is treated like a draining one: no
        // new requests route to it until its latch clears. Operator
        // drains and detected failures are never undone from here.
        let Some(s) = touched else { return };
        let shedding = net.tb.servers[s].is_shedding();
        if shedding != self.shed_marked[s] && net.alive[s] && !self.operator_drained[s] {
            self.shed_marked[s] = shedding;
            let health = if shedding {
                Health::Draining
            } else {
                Health::Healthy
            };
            self.dispatcher.set_health(s, health);
            if !shedding {
                let now = net.now();
                for need in std::mem::take(&mut self.parked) {
                    self.issue_request(net, now, need);
                }
            }
        }
    }

    /// Cluster-level aggregates no single registry carries.
    fn sample(&self, ts: &mut TimeSeries, at: Nanos, net: &Net<PodEv>) {
        let live = net.alive.iter().filter(|a| **a).count();
        let (fleet, dispatcher) = (&self.fleet, &self.dispatcher);
        for (name, v) in [
            ("cluster.live_servers", live as f64),
            ("cluster.responses", fleet.responses_completed as f64),
            ("cluster.body_bytes", fleet.total_body_bytes as f64),
            (
                "cluster.verify_failures",
                fleet.verify_stats.failures as f64,
            ),
            ("cluster.failovers", fleet.topo.failovers as f64),
            (
                "cluster.resumed_responses",
                fleet.topo.resumed_responses as f64,
            ),
            ("cluster.fallback_routes", dispatcher.fallback_routes as f64),
            ("cluster.overflow_routes", dispatcher.overflow_routes as f64),
            ("cluster.net_dropped", net.link.dropped as f64),
            (
                "cluster.net_corrupt_dropped",
                net.link.corrupt_dropped as f64,
            ),
            ("cluster.client_stalls", net.client_stalls as f64),
        ] {
            ts.push_value(at, name, v);
        }
    }

    fn finish_abr(&mut self, end: Nanos) -> Option<AbrReadout> {
        self.fleet.finish_abr(end)
    }
}

/// Run a cluster scenario and report metrics.
pub fn run_cluster(sc: &ClusterConfig) -> ClusterMetrics {
    run_cluster_observed(sc, &ObsOptions::disabled()).0
}

/// Run with observability: per-server metrics sampled into one CSV
/// (metric names prefixed `s0.`, `s1.`, …, plus `cluster.*`
/// aggregates) and all servers' chunk traces concatenated into one
/// JSONL.
pub fn run_cluster_observed(sc: &ClusterConfig, obs: &ObsOptions) -> (ClusterMetrics, ObsReport) {
    assert!(sc.n_servers > 0, "cluster needs at least one server");
    let endpoints = ClusterConfig::endpoints(sc.n_servers);
    let fcfg = sc.faults;
    assert_eq!(
        fcfg.client.slowloris_conns, 0,
        "faults.client.slowloris_conns: a cluster run has no slowloris clients"
    );
    if let Some(k) = fcfg.cluster.kill {
        assert!(
            (k.server as usize) < sc.n_servers,
            "kill targets server {} of {}",
            k.server,
            sc.n_servers
        );
    }
    let servers: Vec<Box<dyn VideoServer>> = (0..sc.n_servers)
        .map(|i| {
            let mut cfg = sc.atlas.clone();
            cfg.server_endpoint = endpoints[i];
            cfg.trace |= obs.trace_out.is_some();
            // Distinct seed per server: independent NVMe timings,
            // firmware jitter, fault schedules.
            let seed = sc.seed ^ ((i as u64 + 1) << 48);
            let mut srv = AtlasServer::new(cfg, sc.catalog.clone(), seed);
            srv.inject_faults(&fcfg, seed);
            Box::new(srv) as Box<dyn VideoServer>
        })
        .collect();

    let mut fleet_cfg = sc.fleet;
    fleet_cfg.verify &= matches!(sc.atlas.fidelity, Fidelity::Full); // else nothing to verify
    let pod = Pod {
        fleet: MultiFleet::new(fleet_cfg, sc.catalog.clone(), endpoints),
        dispatcher: Dispatcher::new(sc.n_servers, sc.vnodes, sc.replication, sc.fleet.hot_files),
        unroutable: 0,
        parked: Vec::new(),
        shed_marked: vec![false; sc.n_servers],
        operator_drained: vec![false; sc.n_servers],
        retry_wake: PendingWake::IDLE,
    };
    let testbed = Testbed {
        servers,
        middlebox: DelayMiddlebox::new(sc.client_delay.0, sc.client_delay.1, 7, sc.seed),
        faults: fcfg,
        n_clients: sc.fleet.n_clients,
        warmup: sc.warmup,
        duration: sc.duration,
        seed: sc.seed,
        tag_servers: true,
    };
    let run = testbed::run(testbed, pod, obs);

    let end = sc.duration;
    let servers = run.net.tb.servers.iter().enumerate();
    let per_server: Vec<ServerStats> = servers
        .map(|(i, srv)| {
            let tier = srv
                .tier_ids()
                .map(|ids| ids.read(srv.registry().expect("both stacks keep a registry")));
            let served = srv.served();
            ServerStats {
                server: i,
                alive: run.net.alive[i],
                responses: served.responses,
                http_payload_bytes: served.http_payload_bytes,
                disk_read_bytes: served.disk_read_bytes,
                cpu_pct: srv.cpu_pct(sc.warmup, end),
                leaked_buffers: srv.leaked_buffers(),
                tier_hit_ratio: tier.map_or(1.0, |t| t.hit_ratio),
                tier_cold_bytes: tier.map_or(0, |t| t.cold_bytes),
                pool_occ: run.pool_occ[i],
            }
        })
        .collect();

    let fleet = &run.client.fleet;
    let recovery = fcfg
        .cluster
        .kill
        .map(|k| (k.at, k.at + DETECT_DELAY))
        .filter(|&(kill_at, _)| kill_at > sc.warmup && kill_at < end)
        .map(|(kill_at, detect_at)| {
            // Let TCP and the re-dispatched transfers settle before
            // measuring the recovered steady state.
            let settle = detect_at + Nanos::from_millis(100);
            let post_start = settle.min(end);
            RecoveryStats {
                kill_at,
                detect_at,
                pre_kill_gbps: fleet.goodput.rate_per_sec(sc.warmup, kill_at) * 8.0 / 1e9,
                post_recovery_gbps: fleet.goodput.rate_per_sec(post_start, end) * 8.0 / 1e9,
            }
        });

    let dispatcher = &run.client.dispatcher;
    let tls = if sc.atlas.encrypted { " TLS" } else { "" };
    let metrics = ClusterMetrics {
        label: format!("cluster x{}{tls}", sc.n_servers),
        n_servers: sc.n_servers,
        net_gbps: fleet.goodput.rate_per_sec(sc.warmup, end) * 8.0 / 1e9,
        responses: fleet.responses_completed,
        total_body_bytes: fleet.total_body_bytes,
        verified_bytes: fleet.verify_stats.verified_bytes,
        verify_failures: fleet.verify_stats.failures,
        live_fraction: fleet.live_fraction(),
        failovers: fleet.topo.failovers,
        resumed_responses: fleet.topo.resumed_responses,
        resumed_bytes_saved: fleet.topo.resumed_bytes_saved,
        fallback_routes: dispatcher.fallback_routes,
        overflow_routes: dispatcher.overflow_routes,
        unroutable: run.client.unroutable,
        unroutable_pending: run.client.parked.len() as u64,
        client_503s: fleet.rejections_503(),
        client_retries: fleet.retries_fired,
        client_retries_pending: fleet.retries_pending(),
        per_server,
        recovery,
        abr: run.abr,
    };
    (metrics, run.report)
}
