//! Overload-hardening regression suite: admission control, slow-client
//! defense, graceful shedding, and the buffer economy under attack.
//!
//! Every scenario deliberately pushes a server past some resource
//! limit — connection cap, DMA-pool watermark, malicious clients —
//! and checks the three invariants overload handling owes: admitted
//! connections still verify byte-identical, no DMA buffer leaks
//! through any shed/reap/abort path, and the shedding itself is
//! visible in the `atlas.overload.*` counters.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::simcore::Nanos;
use disk_crypt_net::workload::{
    run_scenario, run_scenario_observed, ObsOptions, RunMetrics, Scenario, ServerKind,
};

/// Atlas with a small per-core admission cap so floods at test scale
/// actually hit it (default 4096/core never would).
fn capped_atlas(encrypted: bool, conns_per_core: usize) -> AtlasConfig {
    let mut cfg = AtlasConfig {
        encrypted,
        ..AtlasConfig::default()
    };
    cfg.admission.max_conns_per_core = conns_per_core;
    cfg
}

fn assert_overload_invariants(m: &RunMetrics) {
    assert!(m.responses > 0, "run must make progress: {m:?}");
    assert_eq!(
        m.verify_failures, 0,
        "admitted streams must verify byte-identical"
    );
    assert!(m.verified_bytes > 0);
    assert_eq!(m.leaked_buffers, 0, "no shed path may leak a DMA buffer");
}

#[test]
fn syn_flood_is_shed_at_admission_without_hurting_goodput() {
    // 4x the connection cap, all arriving at t=0 (aggressive_open):
    // surplus SYNs bounce off admission with an RST; the admitted set
    // streams at full rate and verifies clean.
    let cap = 8 * AtlasConfig::default().cores;
    let mut sc = Scenario::smoke(ServerKind::Atlas(capped_atlas(true, 8)), 4 * cap, 31);
    sc.faults.client.aggressive_open = true;
    let m = run_scenario(&sc);
    eprintln!("{:?}", m.overload);
    assert_overload_invariants(&m);
    assert!(
        m.overload.shed_new > 0,
        "flood must be shed: {:?}",
        m.overload
    );
    assert!(
        m.overload.client_resets > 0,
        "refused clients must see the RST"
    );

    // Same server at exactly its capacity: the overloaded run's
    // goodput must hold the plateau (>= 90% of the uncontended run).
    let base = run_scenario(&Scenario::smoke(
        ServerKind::Atlas(capped_atlas(true, 8)),
        cap,
        31,
    ));
    assert!(
        m.net_gbps >= 0.9 * base.net_gbps,
        "goodput collapsed under flood: {:.3} vs {:.3} Gbps",
        m.net_gbps,
        base.net_gbps
    );
}

#[test]
fn slowloris_readers_are_reaped_and_buffers_audited() {
    // Six attackers handshake, dribble a truncated request head, and
    // go silent, pinning connection slots forever on a naive server.
    // The header-read timeout must reap them, the honest clients must
    // be unaffected, and the end-of-run buffer audit must be clean.
    let mut sc = Scenario::smoke(ServerKind::Atlas(capped_atlas(true, 8)), 18, 37);
    sc.faults.client.slowloris_conns = 6;
    sc.duration = Nanos::from_millis(1500);
    let m = run_scenario(&sc);
    eprintln!("{:?}", m.overload);
    assert_overload_invariants(&m);
    assert!(
        m.overload.reaped_idle >= 6,
        "all six slowloris conns must hit the header timeout: {:?}",
        m.overload
    );
    assert!(
        m.overload.client_resets >= 6,
        "reaped attackers observe the RST"
    );
}

#[test]
fn resource_shedding_sends_503_and_clients_retry_to_completion() {
    // Force the DMA-pool watermark to latch essentially immediately
    // (enter below 60% free — the steady-state pool always dips past
    // that) so admitted connections see 503 + Retry-After on their
    // next request. The driver must hold the request, back off, and
    // retry; the eventual 200 verifies against the same oracle entry.
    let mut cfg = capped_atlas(false, 64);
    cfg.bufs_per_queue = 24;
    cfg.admission.pool_low_enter = 0.50;
    cfg.admission.pool_low_exit = 0.75;
    let mut sc = Scenario::smoke(ServerKind::Atlas(cfg), 16, 41);
    sc.duration = Nanos::from_millis(1500);
    let m = run_scenario(&sc);
    eprintln!("{:?}", m.overload);
    assert_overload_invariants(&m);
    assert!(
        m.overload.retry_503 > 0,
        "watermark shedding must answer 503: {:?}",
        m.overload
    );
    assert_eq!(
        m.overload.retry_503, m.overload.client_503s,
        "every 503 the server sent reaches a client"
    );
    assert!(
        m.overload.client_retries > 0,
        "clients must honor Retry-After and re-request"
    );
}

#[test]
fn retransmit_fetches_keep_priority_under_admission_pressure() {
    // Loss recovery competes with fresh fetches for DMA buffers. With
    // a deliberately tiny pool (16 bufs/queue) plus 1% loss, fresh
    // fetches park on the empty pool (`bufpool.empty_waits`) while
    // the retx reserve keeps RTO recovery moving: retransmit fetches
    // complete and no stream is ever corrupted or stalled out.
    let mut cfg = capped_atlas(true, 16);
    cfg.bufs_per_queue = 16;
    let mut sc = Scenario::smoke(ServerKind::Atlas(cfg), 24, 43);
    sc.data_loss = 0.01;
    sc.duration = Nanos::from_millis(1500);
    let m = run_scenario(&sc);
    eprintln!("{:?} empty_waits={}", m.overload, m.overload.empty_waits);
    assert_overload_invariants(&m);
    assert!(
        m.overload.empty_waits > 0,
        "tiny pool must actually exhaust: {:?}",
        m.overload
    );
    assert!(
        m.retransmit_fetches > 0,
        "retx fetches must still get buffers while fresh fetches park"
    );
}

#[test]
fn two_x_overload_smoke() {
    // The CI smoke contract: 2x offered load over the connection cap,
    // TLS, full fidelity. Zero leaked buffers, zero verifier
    // failures, and shedding visibly engaged.
    let cap = 8 * AtlasConfig::default().cores;
    let sc = Scenario::smoke(ServerKind::Atlas(capped_atlas(true, 8)), 2 * cap, 47);
    let m = run_scenario(&sc);
    eprintln!("{:?}", m.overload);
    assert_overload_invariants(&m);
    assert!(
        m.overload.shed_new > 0,
        "2x load must trip admission: {:?}",
        m.overload
    );
}

#[test]
fn kstack_admission_sheds_surplus_syns_too() {
    // The kernel-stack baseline shares the admission policy: SYNs
    // past the cap get RST, streams on admitted conns stay correct.
    let mut cfg = KstackConfig::netflix();
    cfg.admission.max_conns_per_core = 4;
    let cap = 4 * cfg.cores;
    let sc = Scenario::smoke(ServerKind::Kstack(cfg), 3 * cap, 53);
    let m = run_scenario(&sc);
    eprintln!("{:?}", m.overload);
    assert_overload_invariants(&m);
    assert!(
        m.overload.shed_new > 0,
        "kstack must shed past its cap: {:?}",
        m.overload
    );
    assert!(m.overload.client_resets > 0);
}

#[test]
fn min_drain_deadline_aborts_buffer_holders_without_ack_progress() {
    // The ladder is pinned at Normal (no pool or SQ watermark can
    // latch), so only the minimum-drain deadline can count
    // `aborted_slow`. One core serves 250 clients from a 160-buffer
    // pool through a 128-slot TX ring: a record that completes while
    // the ring is full stays parked, and a connection with nothing else
    // in flight then holds its buffer without ACK progress until the
    // deadline returns it.
    let mut cfg = AtlasConfig {
        cores: 1,
        bufs_per_queue: 40,
        ..AtlasConfig::default()
    };
    cfg.nic.ring_slots = 128;
    cfg.nic.port_rate = disk_crypt_net::simcore::Bandwidth::from_gbps(10.0);
    cfg.admission.pool_low_enter = 0.0;
    cfg.admission.pool_low_exit = 0.0;
    cfg.admission.sq_high_enter = f64::INFINITY;
    cfg.admission.sq_high_exit = f64::INFINITY;
    let mut sc = Scenario::smoke(ServerKind::Atlas(cfg), 250, 83);
    sc.duration = Nanos::from_millis(1500);
    let m = run_scenario(&sc);
    eprintln!("{:?}", m.overload);
    assert_overload_invariants(&m);
    assert_eq!(
        m.overload.shed_new + m.overload.retry_503,
        0,
        "ladder stays at Normal"
    );
    assert!(
        m.overload.aborted_slow > 0,
        "the drain deadline must abort a stalled buffer holder: {:?}",
        m.overload
    );
}

#[test]
fn kstack_sq_watermark_defers_with_503_and_retries_verify() {
    // The kernel stack's buffer cache never drains to `pool_low_enter`,
    // so its 503 path is driven from the SQ side: the latch sets as
    // soon as a core has any fill in flight (enter 0) and releases once
    // fewer than ~10 remain (exit 1% of the queue depth). Keepalive
    // requests that land while it is set are answered 503; the client
    // backs off and re-requests, and the retried body verifies against
    // the same oracle entry.
    let mut cfg = KstackConfig::netflix();
    cfg.admission.sq_high_enter = 0.0;
    cfg.admission.sq_high_exit = 0.01;
    let mut sc = Scenario::smoke(ServerKind::Kstack(cfg), 16, 73);
    sc.duration = Nanos::from_millis(2000);
    let m = run_scenario(&sc);
    eprintln!("{:?}", m.overload);
    assert_overload_invariants(&m);
    assert!(
        m.overload.retry_503 > 0,
        "SQ latch must answer 503: {:?}",
        m.overload
    );
    assert_eq!(
        m.overload.retry_503, m.overload.client_503s,
        "every 503 the server sent reaches a client"
    );
    // Each deferred request is re-sent after its backoff, except one
    // whose Retry-After outlasts the run.
    assert!(
        m.overload.client_retries + 1 >= m.overload.retry_503,
        "deferred requests must be retried: {:?}",
        m.overload
    );
    assert_eq!(
        m.verified_bytes, m.total_body_bytes,
        "every delivered body byte, retried ones included, verifies"
    );
}

#[test]
fn overload_counters_export_via_metrics_csv() {
    // The `--metrics-out` CSV must carry the per-core overload series
    // so a shedding incident is diagnosable after the fact.
    let cap = 8 * AtlasConfig::default().cores;
    let sc = Scenario::smoke(ServerKind::Atlas(capped_atlas(false, 8)), 2 * cap, 59);
    let csv = std::env::temp_dir().join("dcn_overload_test_metrics.csv");
    let obs = ObsOptions {
        metrics_out: Some(csv.clone()),
        ..ObsOptions::disabled()
    };
    let (m, _) = run_scenario_observed(&sc, &obs);
    assert_overload_invariants(&m);
    assert!(m.overload.shed_new > 0);
    let body = std::fs::read_to_string(&csv).expect("csv written");
    for series in [
        "atlas.overload.shed_new{core=0}",
        "atlas.overload.reaped_idle{core=0}",
        "atlas.overload.aborted_slow{core=0}",
        "atlas.overload.retry_503{core=0}",
        "atlas.bufpool.empty_waits{core=0}",
    ] {
        assert!(body.contains(series), "missing series {series}");
    }
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn overload_runs_replay_bit_identically() {
    // Shedding, reaping, and deferred 503 retries all ride the seeded
    // event loop: the same overloaded scenario must replay to
    // identical metrics, overload counters included.
    let cap = 8 * AtlasConfig::default().cores;
    let mut sc = Scenario::smoke(ServerKind::Atlas(capped_atlas(true, 8)), 3 * cap, 61);
    sc.faults.client.slowloris_conns = 4;
    // Long enough for the 1s header-read timeout to reap the
    // slowloris conns, so the replay covers the abort paths too.
    sc.duration = Nanos::from_millis(1500);
    let a = run_scenario(&sc);
    let b = run_scenario(&sc);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.overload.shed_new > 0 && a.overload.reaped_idle > 0);
}

#[test]
fn abr_on_off_bursts_do_not_trip_admission_at_sub_capacity() {
    // DASH's on-off cadence is the overload ladder's nightmare
    // workload: every client pauses at a full playout buffer and a
    // shared resume threshold re-synchronizes their "on" edges into
    // fleet-wide request bursts. At sub-capacity (default admission
    // caps, a modest fleet on the fixed lowest rung) none of that
    // burstiness may register as overload: no SYN shed, no 503s, no
    // slow-client aborts — and the burst edges must not leak a single
    // DMA buffer.
    use disk_crypt_net::workload::AbrConfig;
    let cfg = AtlasConfig {
        encrypted: true,
        ..AtlasConfig::default()
    };
    let mut sc = Scenario::smoke(ServerKind::Atlas(cfg), 24, 67);
    sc.fleet.abr = Some(AbrConfig::fixed(0));
    // Long enough for several full on-off cycles (fill to 250 ms,
    // drain to 150 ms, repeat).
    sc.duration = Nanos::from_millis(2000);
    let m = run_scenario(&sc);
    eprintln!(
        "{:?} paced={:?}",
        m.overload,
        m.abr.as_ref().map(|a| a.paced_wakes)
    );
    assert_overload_invariants(&m);
    let abr = m.abr.as_ref().expect("adaptive fleet");
    assert!(
        abr.paced_wakes >= 24,
        "the on-off cadence never engaged: {abr:?}"
    );
    assert_eq!(m.overload.shed_new, 0, "sub-capacity bursts must admit");
    assert_eq!(m.overload.retry_503, 0, "…and never hit the 503 ladder");
    assert_eq!(
        m.overload.aborted_slow, 0,
        "paused clients are not slow readers"
    );
    assert_eq!(abr.qoe.sessions, 24);
    assert_eq!(abr.qoe.started, 24, "every client reaches steady playback");
}

#[test]
fn empty_waits_count_wait_episodes_not_re_parks() {
    // One core's four 4-buffer pools starve 64 clients: fetches park
    // on the dry pools, and every TX drain wakes every parked
    // connection, most of which re-park. A wait episode ends with a
    // fetch or a close, so the episodes cannot outnumber the fetches
    // issued (completed reads plus at most one in flight per buffer)
    // and the connections.
    let cfg = AtlasConfig {
        cores: 1,
        bufs_per_queue: 4,
        ..AtlasConfig::default()
    };
    let sc = Scenario::smoke(ServerKind::Atlas(cfg.clone()), 64, 29);
    let m = run_scenario(&sc);
    eprintln!("{:?} disk_reads={}", m.overload, m.disk_reads);
    assert_overload_invariants(&m);
    let pool = u64::from(cfg.bufs_per_queue) * sc.catalog.n_disks() as u64;
    assert!(m.overload.empty_waits > 0, "{:?}", m.overload);
    assert!(
        m.overload.empty_waits <= m.disk_reads + pool + sc.fleet.n_clients as u64,
        "{} empty waits for {} reads: {:?}",
        m.overload.empty_waits,
        m.disk_reads,
        m.overload
    );
    assert!(m.overload.futile_wakes > 0, "{:?}", m.overload);
}
