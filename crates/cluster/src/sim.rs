//! N Atlas servers, one virtual-time simulation.
//!
//! The topology generalizes `dcn-workload`'s single-server testbed:
//! every server sits behind the same cut-through switch; the delay
//! middlebox stays on the client→server path only. The dispatcher is
//! *control-plane only* — it picks which server a request goes to
//! (the way a CDN's request router or DNS steering does), and the
//! client then talks TCP to that server directly, so the data path is
//! byte-identical to the single-server runs.
//!
//! Failure handling is fail-stop with delayed detection: a killed
//! server's frames (in both directions) vanish, and `detect_delay`
//! later the control loop marks it down, severs its client
//! connections, and re-dispatches every interrupted transfer to a
//! replica with a `Range: bytes=N-` resume.

use crate::dispatcher::{Dispatcher, Health};
use dcn_atlas::{AtlasConfig, AtlasServer};
use dcn_faults::{salt, FaultConfig, FrameFate, FrameInfo, LinkFaults};
use dcn_mem::Fidelity;
use dcn_netdev::parse_frame;
use dcn_netdev::{tcp_frame_info, DelayMiddlebox, SentBurst, WireFrame};
use dcn_obs::export::{chunk_to_json, stage_summary, TimeSeries};
use dcn_packet::{FlowId, Ipv4Addr, MacAddr};
use dcn_simcore::{EventQueue, Nanos};
use dcn_store::Catalog;
use dcn_tcpstack::Endpoint;
use dcn_workload::fleet::{AbrReadout, ClientTx, FleetConfig};
use dcn_workload::runner::{ObsOptions, ObsReport};
use dcn_workload::{MultiFleet, NeedStep, RequestNeed};
use std::collections::HashMap;
use std::io::Write as _;

/// Switch forwarding latency (same switch as the single-server
/// testbed).
const SWITCH_LATENCY: Nanos = Nanos(2_000);

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
    /// Control-loop failure-detection latency (kill → mark-down +
    /// re-dispatch).
    pub detect_delay: Nanos,
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
            detect_delay: Nanos::from_millis(30),
            client_delay: (Nanos::from_millis(10), Nanos::from_millis(40)),
        }
    }

    /// Server *i*'s endpoint: 10.0.0.(i+1):80.
    #[must_use]
    pub fn endpoints(n_servers: usize) -> Vec<Endpoint> {
        (0..n_servers)
            .map(|i| Endpoint {
                mac: MacAddr::from_host_id(i as u32 + 1),
                ip: Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                port: 80,
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
    /// Requests with no live server at all (clients go idle).
    pub unroutable: u64,
    pub per_server: Vec<ServerStats>,
    /// Present when a kill was scheduled inside the run window.
    pub recovery: Option<RecoveryStats>,
    /// ABR readout (QoE + decision trace), present when the fleet ran
    /// in adaptive mode.
    pub abr: Option<AbrReadout>,
}

enum Ev {
    /// Ramp-up: spawn client `idx` and issue its first request.
    Spawn(usize),
    /// Frames arrive at server `s`.
    ServerRx(usize, Vec<WireFrame>),
    /// A burst arrives at the clients for `flow` (server→client
    /// direction).
    ClientRx(FlowId, Vec<WireFrame>),
    /// Server `s` internal wake (disk completion / TCP timer).
    ServerWake(usize),
    /// Fail-stop: server `s` goes dark (frames black-holed).
    Kill(usize),
    /// Operator drain: `s` takes no new requests, finishes in-flight.
    Drain(usize),
    /// Control loop notices `s` is gone: mark down, sever, re-route.
    Detect(usize),
    /// Client `c`'s ABR playout buffer drained to the resume level:
    /// draw its next need and dispatch it.
    AbrWake(usize),
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
    let ip_to_server: HashMap<Ipv4Addr, usize> = endpoints
        .iter()
        .enumerate()
        .map(|(i, e)| (e.ip, i))
        .collect();

    let fcfg = sc.faults;
    if let Some(k) = fcfg.cluster.kill {
        assert!(
            (k.server as usize) < sc.n_servers,
            "kill targets server {} of {}",
            k.server,
            sc.n_servers
        );
    }
    let mut servers: Vec<AtlasServer> = (0..sc.n_servers)
        .map(|i| {
            let mut cfg = sc.atlas.clone();
            cfg.server_endpoint = endpoints[i];
            if obs.trace_out.is_some() {
                cfg.trace = true;
            }
            // Distinct seed per server: independent NVMe timings,
            // firmware jitter, fault schedules.
            let seed = sc.seed ^ ((i as u64 + 1) << 48);
            let mut srv = AtlasServer::new(cfg, sc.catalog.clone(), seed);
            srv.inject_faults(&fcfg, seed);
            srv
        })
        .collect();

    let mut fleet_cfg = sc.fleet;
    if !matches!(sc.atlas.fidelity, Fidelity::Full) {
        fleet_cfg.verify = false; // nothing real to verify
    }
    let mut fleet = MultiFleet::new(fleet_cfg, sc.catalog.clone(), endpoints);
    let mut dispatcher =
        Dispatcher::new(sc.n_servers, sc.vnodes, sc.replication, sc.fleet.hot_files);
    let middlebox = DelayMiddlebox::new(sc.client_delay.0, sc.client_delay.1, 7, sc.seed);
    let mut link = LinkFaults::new(fcfg.net, sc.seed);
    let mut stall_rng = dcn_faults::rng_for(sc.seed, salt::CLIENT);
    let mut stalled_until: HashMap<FlowId, Nanos> = HashMap::new();
    let mut client_stalls: u64 = 0;
    let mut unroutable: u64 = 0;

    let mut q: EventQueue<Ev> = EventQueue::new();
    let ramp = sc.warmup.min(Nanos::from_millis(150));
    for idx in 0..sc.fleet.n_clients {
        let at = ramp.mul_f64(idx as f64 / sc.fleet.n_clients.max(1) as f64);
        q.schedule(at, Ev::Spawn(idx));
    }
    for s in 0..sc.n_servers {
        q.schedule(Nanos::ZERO, Ev::ServerWake(s));
    }
    // The fault schedule: kill (with delayed detection) and drain.
    let mut kill_times: Option<(Nanos, Nanos)> = None;
    if let Some(k) = fcfg.cluster.kill {
        let detect = k.at + sc.detect_delay;
        q.schedule(k.at, Ev::Kill(k.server as usize));
        q.schedule(detect, Ev::Detect(k.server as usize));
        kill_times = Some((k.at, detect));
    }
    if let Some(d) = fcfg.cluster.drain {
        if (d.server as usize) < sc.n_servers {
            q.schedule(d.at, Ev::Drain(d.server as usize));
        }
    }

    let mut alive = vec![true; sc.n_servers];
    let mut next_wake = vec![Nanos::MAX; sc.n_servers];
    // Admission-control feedback: servers holding their overload
    // latch are marked Draining so the dispatcher routes around them;
    // `shed_marked` remembers which Draining states are ours to undo
    // (operator drains and kill-detection stay authoritative).
    let mut shed_marked = vec![false; sc.n_servers];
    let mut operator_drained = vec![false; sc.n_servers];

    let sample_interval = obs.sample_interval.unwrap_or(Nanos::from_millis(10));
    let mut series = obs.metrics_out.as_ref().map(|_| TimeSeries::new());
    let mut next_sample = sample_interval;

    while let Some(ev) = q.pop() {
        let now = ev.at;
        if now > sc.duration {
            break;
        }
        if let Some(ts) = series.as_mut() {
            while next_sample <= now {
                sample_cluster(
                    ts,
                    next_sample,
                    &mut servers,
                    &alive,
                    &fleet,
                    &dispatcher,
                    &link,
                    client_stalls,
                );
                next_sample += sample_interval;
            }
        }
        // Which server's internal state this event touched (its wake
        // deadline may have moved).
        let mut touched: Option<usize> = None;
        match ev.event {
            Ev::Spawn(idx) => {
                fleet.spawn(idx, sc.seed);
                issue_next_need(
                    &mut q,
                    &middlebox,
                    &ip_to_server,
                    now,
                    &mut fleet,
                    &mut dispatcher,
                    idx,
                    &mut unroutable,
                );
            }
            Ev::ServerRx(s, frames) => {
                if alive[s] {
                    let bursts = servers[s].on_wire_rx(now, frames);
                    route_bursts(&mut q, bursts, &mut link);
                    touched = Some(s);
                }
            }
            Ev::ClientRx(flow, frames) => {
                if fcfg.client.is_active() {
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
                if let Some(out) = fleet.on_burst(now, flow, frames) {
                    route_client_tx(&mut q, &middlebox, &ip_to_server, now, out.tx);
                    for _ in 0..out.completed {
                        issue_next_need(
                            &mut q,
                            &middlebox,
                            &ip_to_server,
                            now,
                            &mut fleet,
                            &mut dispatcher,
                            out.client,
                            &mut unroutable,
                        );
                    }
                }
            }
            Ev::ServerWake(s) => {
                if now >= next_wake[s] {
                    next_wake[s] = Nanos::MAX;
                }
                if alive[s] {
                    let bursts = servers[s].advance(now);
                    route_bursts(&mut q, bursts, &mut link);
                    touched = Some(s);
                }
            }
            Ev::Kill(s) => {
                // Fail-stop: the server stops mid-whatever. Frames to
                // and from it are black-holed from this instant; the
                // control loop notices at Detect.
                alive[s] = false;
            }
            Ev::Drain(s) => {
                operator_drained[s] = true;
                dispatcher.set_health(s, Health::Draining);
            }
            Ev::Detect(s) => {
                dispatcher.set_health(s, Health::Down);
                for plan in fleet.fail_server(s) {
                    issue_request(
                        &mut q,
                        &middlebox,
                        &ip_to_server,
                        now,
                        &mut fleet,
                        &mut dispatcher,
                        plan,
                        &mut unroutable,
                    );
                }
            }
            Ev::AbrWake(c) => {
                issue_next_need(
                    &mut q,
                    &middlebox,
                    &ip_to_server,
                    now,
                    &mut fleet,
                    &mut dispatcher,
                    c,
                    &mut unroutable,
                );
            }
        }
        if let Some(s) = touched {
            // Single-pending-wake per server, as in the single-server
            // runner: only schedule if earlier than the pending one.
            if let Some(at) = servers[s].poll_at() {
                let at = at.max(q.now());
                if at < next_wake[s] {
                    q.schedule(at, Ev::ServerWake(s));
                    next_wake[s] = at;
                }
            }
            // A server shedding load is treated like a draining one:
            // no new requests route to it until its latch clears.
            // Operator drains and detected failures are never undone
            // from here.
            let shedding = servers[s].is_shedding();
            if shedding != shed_marked[s] && alive[s] && !operator_drained[s] {
                shed_marked[s] = shedding;
                dispatcher.set_health(
                    s,
                    if shedding {
                        Health::Draining
                    } else {
                        Health::Healthy
                    },
                );
            }
        }
    }

    let end = sc.duration;
    let mut report = ObsReport::default();
    for srv in servers.iter_mut() {
        srv.publish_obs();
    }
    if let Some(ts) = series.as_mut() {
        sample_cluster(
            ts,
            end,
            &mut servers,
            &alive,
            &fleet,
            &dispatcher,
            &link,
            client_stalls,
        );
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
        match write_cluster_traces(path, &servers) {
            Ok(n) => report.traced_chunks = n,
            Err(e) => eprintln!(
                "warning: failed to write trace JSONL {}: {e}",
                path.display()
            ),
        }
        let mut s = String::new();
        for (i, srv) in servers.iter().enumerate() {
            if srv.tracer.finished().is_empty() {
                continue;
            }
            s.push_str(&format!("server {i}:\n"));
            s.push_str(&stage_summary(&srv.tracer));
        }
        report.stage_summary = s;
    }

    let per_server: Vec<ServerStats> = servers
        .iter()
        .enumerate()
        .map(|(i, srv)| {
            let tier = srv.tier_ids.as_ref().map(|ids| ids.read(&srv.reg));
            ServerStats {
                server: i,
                alive: alive[i],
                responses: srv.reg.sum_prefixed("atlas.responses"),
                http_payload_bytes: srv.reg.sum_prefixed("atlas.http_payload_bytes"),
                disk_read_bytes: srv.reg.sum_prefixed("atlas.disk_read_bytes"),
                cpu_pct: srv.cores.utilization_pct(sc.warmup, end),
                leaked_buffers: srv.leaked_buffers(),
                tier_hit_ratio: tier.map_or(1.0, |t| t.hit_ratio),
                tier_cold_bytes: tier.map_or(0, |t| t.cold_bytes),
            }
        })
        .collect();

    let recovery = kill_times
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

    let metrics = ClusterMetrics {
        label: format!(
            "cluster x{}{}",
            sc.n_servers,
            if sc.atlas.encrypted { " TLS" } else { "" }
        ),
        n_servers: sc.n_servers,
        net_gbps: fleet.goodput.rate_per_sec(sc.warmup, end) * 8.0 / 1e9,
        responses: fleet.responses_completed,
        total_body_bytes: fleet.total_body_bytes,
        verified_bytes: fleet.verify_stats.verified_bytes,
        verify_failures: fleet.verify_stats.failures,
        live_fraction: fleet.live_fraction(),
        failovers: fleet.failovers,
        resumed_responses: fleet.resumed_responses,
        resumed_bytes_saved: fleet.resumed_bytes_saved,
        fallback_routes: dispatcher.fallback_routes,
        overflow_routes: dispatcher.overflow_routes,
        unroutable,
        per_server,
        recovery,
        abr: fleet.finish_abr(end),
    };
    (metrics, report)
}

/// Draw client `idx`'s next need (ABR-aware) and dispatch it; an
/// on-off pause becomes an `AbrWake` at the session's resume time.
#[allow(clippy::too_many_arguments)]
fn issue_next_need(
    q: &mut EventQueue<Ev>,
    mb: &DelayMiddlebox,
    ip_to_server: &HashMap<Ipv4Addr, usize>,
    now: Nanos,
    fleet: &mut MultiFleet,
    dispatcher: &mut Dispatcher,
    idx: usize,
    unroutable: &mut u64,
) {
    match fleet.next_need_at(idx, now) {
        NeedStep::Need(need) => issue_request(
            q,
            mb,
            ip_to_server,
            now,
            fleet,
            dispatcher,
            need,
            unroutable,
        ),
        NeedStep::PausedUntil(t) => q.schedule(t, Ev::AbrWake(idx)),
    }
}

/// Route a request to the dispatcher's pick; clients with no live
/// server go idle.
#[allow(clippy::too_many_arguments)]
fn issue_request(
    q: &mut EventQueue<Ev>,
    mb: &DelayMiddlebox,
    ip_to_server: &HashMap<Ipv4Addr, usize>,
    now: Nanos,
    fleet: &mut MultiFleet,
    dispatcher: &mut Dispatcher,
    need: RequestNeed,
    unroutable: &mut u64,
) {
    match dispatcher.route(need.file) {
        Some(server) => {
            let tx = fleet.request(need, server);
            route_client_tx(q, mb, ip_to_server, now, tx);
        }
        None => *unroutable += 1,
    }
}

fn route_client_tx(
    q: &mut EventQueue<Ev>,
    mb: &DelayMiddlebox,
    ip_to_server: &HashMap<Ipv4Addr, usize>,
    now: Nanos,
    tx: ClientTx,
) {
    if tx.frames.is_empty() {
        return;
    }
    let Some(&server) = ip_to_server.get(&tx.flow.dst_ip) else {
        return;
    };
    // Client → middlebox (per-flow constant delay) → switch → server.
    // A dead server still "receives" (and drops) the frames — the
    // network doesn't know it died.
    let delay = mb.delay(tx.flow) + SWITCH_LATENCY;
    q.schedule(now + delay, Ev::ServerRx(server, tx.frames));
}

fn route_bursts(q: &mut EventQueue<Ev>, bursts: Vec<SentBurst>, link: &mut LinkFaults) {
    let active = link.is_active();
    for b in bursts {
        // Server → switch → client: LAN latency only. Link faults act
        // on data frames; control frames always get through.
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
                    FrameFate::CorruptDeliver => out.push(dcn_workload::runner::corrupt_frame(f)),
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

/// One CSV sample: every server's registry under `s{i}.`, plus
/// cluster-level aggregates no single registry carries.
#[allow(clippy::too_many_arguments)]
fn sample_cluster(
    ts: &mut TimeSeries,
    at: Nanos,
    servers: &mut [AtlasServer],
    alive: &[bool],
    fleet: &MultiFleet,
    dispatcher: &Dispatcher,
    link: &LinkFaults,
    client_stalls: u64,
) {
    for (i, srv) in servers.iter_mut().enumerate() {
        if alive[i] {
            srv.publish_obs();
        }
        ts.sample_labeled(at, &srv.reg, &format!("s{i}."));
        ts.push_value(at, &format!("s{i}.alive"), f64::from(u8::from(alive[i])));
    }
    let live = alive.iter().filter(|a| **a).count();
    for (name, v) in [
        ("cluster.live_servers", live as f64),
        ("cluster.responses", fleet.responses_completed as f64),
        ("cluster.body_bytes", fleet.total_body_bytes as f64),
        (
            "cluster.verify_failures",
            fleet.verify_stats.failures as f64,
        ),
        ("cluster.failovers", fleet.failovers as f64),
        ("cluster.resumed_responses", fleet.resumed_responses as f64),
        ("cluster.fallback_routes", dispatcher.fallback_routes as f64),
        ("cluster.overflow_routes", dispatcher.overflow_routes as f64),
        ("cluster.net_dropped", link.dropped as f64),
        ("cluster.net_corrupt_dropped", link.corrupt_dropped as f64),
        ("cluster.client_stalls", client_stalls as f64),
    ] {
        ts.push_value(at, name, v);
    }
}

/// Concatenate every server's finished chunk traces into one JSONL,
/// tagging each line with its server index (chunk and connection ids
/// are per-server and would collide in the merged file).
fn write_cluster_traces(path: &std::path::Path, servers: &[AtlasServer]) -> std::io::Result<usize> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for (i, srv) in servers.iter().enumerate() {
        for t in srv.tracer.finished() {
            let json = chunk_to_json(t);
            writeln!(w, "{{\"server\":{i},{}", &json[1..])?;
            n += 1;
        }
    }
    w.flush()?;
    Ok(n)
}
