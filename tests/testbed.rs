//! Known answers of the testbed event loop.
//!
//! Small runs through `run_scenario` and `run_cluster`, each pinned to
//! the exact counts and goodput bits it produced before the
//! single-server and cluster loops became one. Every path that only
//! one of the two old loops had is covered: bursty link loss with
//! client stalls, slowloris reaping with 503 Retry-After retries, the
//! kernel stack, ABR on-off wakes, a server kill with detection and
//! range-resume failover, and an operator drain. Two tiered runs (one
//! server, three servers) cover servers that ask for a wake before
//! any traffic, where the two old loops re-checked wakes differently.
//! An adaptive cluster run, pinned before the two client fleets
//! became one, covers the cluster's ABR path: its per-client resume
//! wakes and its fleet's ABR readout.
//! A change to event order anywhere in the loop moves at least one of
//! these numbers.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::cluster::{run_cluster, ClusterConfig, ClusterMetrics};
use disk_crypt_net::faults::{ClusterFaults, LossModel, ServerFault};
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::mem::Fidelity;
use disk_crypt_net::simcore::Nanos;
use disk_crypt_net::store::Catalog;
use disk_crypt_net::tier::TierConfig;
use disk_crypt_net::workload::{run_scenario, AbrConfig, RunMetrics, Scenario, ServerKind};

/// What one run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    responses: u64,
    total_body_bytes: u64,
    verified_bytes: u64,
    net_gbps_bits: u64,
    client_retries: u64,
    paced_wakes: u64,
    failovers: u64,
    resumed_bytes_saved: u64,
    per_server_responses: Vec<u64>,
}

fn pin_single(m: &RunMetrics) -> Pin {
    assert_eq!(m.verify_failures, 0, "{m:?}");
    assert_eq!(m.leaked_buffers, 0, "{m:?}");
    Pin {
        responses: m.responses,
        total_body_bytes: m.total_body_bytes,
        verified_bytes: m.verified_bytes,
        net_gbps_bits: m.net_gbps.to_bits(),
        client_retries: m.overload.client_retries,
        paced_wakes: m.abr.as_ref().map_or(0, |a| a.paced_wakes),
        failovers: 0,
        resumed_bytes_saved: 0,
        per_server_responses: vec![m.responses],
    }
}

fn pin_cluster(m: &ClusterMetrics) -> Pin {
    assert_eq!(m.verify_failures, 0, "{m:?}");
    for s in m.per_server.iter().filter(|s| s.alive) {
        assert_eq!(s.leaked_buffers, 0, "{m:?}");
    }
    Pin {
        responses: m.responses,
        total_body_bytes: m.total_body_bytes,
        verified_bytes: m.verified_bytes,
        net_gbps_bits: m.net_gbps.to_bits(),
        client_retries: m.client_retries,
        paced_wakes: m.abr.as_ref().map_or(0, |a| a.paced_wakes),
        failovers: m.failovers,
        resumed_bytes_saved: m.resumed_bytes_saved,
        per_server_responses: m.per_server.iter().map(|s| s.responses).collect(),
    }
}

fn small(server: ServerKind, n_clients: usize, seed: u64) -> Scenario {
    let mut sc = Scenario::smoke(server, n_clients, seed);
    sc.warmup = Nanos::from_millis(200);
    sc.duration = Nanos::from_millis(500);
    sc
}

#[test]
fn atlas_plain_bursty_loss_with_client_stalls() {
    let mut sc = small(ServerKind::Atlas(AtlasConfig::default()), 8, 101);
    sc.faults.net.loss = LossModel::gilbert_elliott_for(0.02);
    sc.faults.client.stall_p = 0.02;
    sc.faults.client.stall = Nanos::from_micros(800);
    let m = run_scenario(&sc);
    assert!(
        m.faults.net_dropped > 0 && m.faults.client_stalls > 0,
        "{m:?}"
    );
    assert_eq!(
        pin_single(&m),
        Pin {
            responses: 10,
            total_body_bytes: 4385696,
            verified_bytes: 4385696,
            net_gbps_bits: 4590317502245986861,
            client_retries: 0,
            paced_wakes: 0,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![10],
        }
    );
}

#[test]
fn atlas_tls_overload_reaps_slowloris_and_retries_503s() {
    let mut cfg = AtlasConfig {
        encrypted: true,
        bufs_per_queue: 24,
        ..AtlasConfig::default()
    };
    cfg.admission.pool_low_enter = 0.50;
    cfg.admission.pool_low_exit = 0.75;
    let mut sc = small(ServerKind::Atlas(cfg), 12, 41);
    sc.faults.client.slowloris_conns = 2;
    sc.duration = Nanos::from_millis(1500);
    let m = run_scenario(&sc);
    assert!(m.overload.reaped_idle > 0, "{:?}", m.overload);
    assert!(m.overload.client_retries > 0, "{:?}", m.overload);
    assert_eq!(
        pin_single(&m),
        Pin {
            responses: 23,
            total_body_bytes: 7648952,
            verified_bytes: 7639040,
            net_gbps_bits: 4585922311236452749,
            client_retries: 41,
            paced_wakes: 0,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![23],
        }
    );
}

#[test]
fn kstack_tls_serves_its_fleet() {
    let cfg = KstackConfig {
        encrypted: true,
        ..KstackConfig::netflix()
    };
    let m = run_scenario(&small(ServerKind::Kstack(cfg), 8, 13));
    assert_eq!(
        pin_single(&m),
        Pin {
            responses: 80,
            total_body_bytes: 24607920,
            verified_bytes: 24576000,
            net_gbps_bits: 4603673088830348672,
            client_retries: 0,
            paced_wakes: 0,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![80],
        }
    );
}

#[test]
fn atlas_abr_on_off_fleet() {
    let cfg = AtlasConfig {
        encrypted: true,
        fidelity: Fidelity::Modeled,
        ..AtlasConfig::default()
    };
    let mut sc = small(ServerKind::Atlas(cfg), 16, 1212);
    sc.fleet.abr = Some(AbrConfig::rate_based());
    sc.duration = Nanos::from_millis(3000);
    let m = run_scenario(&sc);
    assert!(m.abr.as_ref().is_some_and(|a| a.paced_wakes > 0), "{m:?}");
    assert_eq!(
        pin_single(&m),
        Pin {
            responses: 993,
            total_body_bytes: 305445807,
            verified_bytes: 0,
            net_gbps_bits: 4605983472205719265,
            client_retries: 0,
            paced_wakes: 84,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![993],
        }
    );
}

#[test]
fn cluster_kill_detects_and_resumes_mid_body() {
    let mut sc = ClusterConfig::smoke(3, 24, 23);
    sc.atlas.encrypted = true;
    sc.fleet.cacheable = true;
    sc.fleet.hot_files = 64;
    sc.warmup = Nanos::from_millis(200);
    sc.duration = Nanos::from_millis(700);
    sc.faults.cluster = ClusterFaults {
        kill: Some(ServerFault {
            server: 1,
            at: Nanos::from_millis(400),
        }),
        drain: None,
    };
    let m = run_cluster(&sc);
    assert!(m.failovers > 0 && m.resumed_bytes_saved > 0, "{m:?}");
    assert_eq!(
        pin_cluster(&m),
        Pin {
            responses: 92,
            total_body_bytes: 30497378,
            verified_bytes: 30457856,
            net_gbps_bits: 4601546932432661241,
            client_retries: 0,
            paced_wakes: 0,
            failovers: 10,
            resumed_bytes_saved: 393216,
            per_server_responses: vec![54, 8, 30],
        }
    );
}

#[test]
fn cluster_drain_routes_new_work_around_the_server() {
    let mut sc = ClusterConfig::smoke(3, 24, 31);
    sc.warmup = Nanos::from_millis(200);
    sc.duration = Nanos::from_millis(700);
    sc.faults.cluster = ClusterFaults {
        kill: None,
        drain: Some(ServerFault {
            server: 2,
            at: Nanos::from_millis(300),
        }),
    };
    let m = run_cluster(&sc);
    assert!(m.fallback_routes + m.overflow_routes > 0, "{m:?}");
    assert_eq!(
        pin_cluster(&m),
        Pin {
            responses: 129,
            total_body_bytes: 41709568,
            verified_bytes: 41709568,
            net_gbps_bits: 4603440067877865712,
            client_retries: 0,
            paced_wakes: 0,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![60, 49, 20],
        }
    );
}

#[test]
fn cluster_abr_on_off_fleet() {
    let mut sc = ClusterConfig::smoke(3, 18, 2121);
    sc.fleet.abr = Some(AbrConfig::rate_based());
    sc.duration = Nanos::from_millis(2500);
    let m = run_cluster(&sc);
    let abr = m.abr.as_ref().expect("adaptive cluster fleet reports QoE");
    assert!(abr.paced_wakes > 0, "{m:?}");
    assert_eq!(abr.decisions, 672);
    // `paced_wakes` counts resumes; before the fleets became one, the
    // cluster fleet counted pauses entered and read 16 here.
    assert_eq!(
        pin_cluster(&m),
        Pin {
            responses: 685,
            total_body_bytes: 211972096,
            verified_bytes: 211972096,
            net_gbps_bits: 4604783515553818752,
            client_retries: 0,
            paced_wakes: 15,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![243, 250, 192],
        }
    );
}

fn tiered() -> AtlasConfig {
    AtlasConfig {
        fidelity: Fidelity::Modeled,
        tier: Some(TierConfig {
            hot_frac: 0.25,
            ..TierConfig::default()
        }),
        ..AtlasConfig::default()
    }
}

#[test]
fn tiered_atlas_wakes_before_its_first_frame() {
    let mut sc = small(ServerKind::Atlas(tiered()), 12, 83);
    sc.catalog = Catalog::new(2_000, 300 * 1024, 4, 83);
    sc.fleet.verify = false;
    let m = run_scenario(&sc);
    assert!(m.tier.is_some_and(|t| t.cold_misses > 0), "{m:?}");
    assert_eq!(
        pin_single(&m),
        Pin {
            responses: 21,
            total_body_bytes: 7565312,
            verified_bytes: 0,
            net_gbps_bits: 4595806880504369668,
            client_retries: 0,
            paced_wakes: 0,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![21],
        }
    );
}

#[test]
fn tiered_cluster_wakes_before_first_frames() {
    let mut sc = ClusterConfig::smoke(3, 18, 85);
    sc.atlas = tiered();
    sc.catalog = Catalog::new(2_000, 300 * 1024, 4, 85);
    sc.warmup = Nanos::from_millis(200);
    let m = run_cluster(&sc);
    assert!(m.per_server.iter().all(|s| s.tier_cold_bytes > 0), "{m:?}");
    assert_eq!(
        pin_cluster(&m),
        Pin {
            responses: 42,
            total_body_bytes: 15097856,
            verified_bytes: 0,
            net_gbps_bits: 4597210210410862430,
            client_retries: 0,
            paced_wakes: 0,
            failovers: 0,
            resumed_bytes_saved: 0,
            per_server_responses: vec![22, 9, 11],
        }
    );
}
