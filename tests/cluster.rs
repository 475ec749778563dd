//! Cluster smoke: multi-server scale-out, sharding, failover.
//!
//! Every scenario is a pure function of its seed. The invariants: the
//! cluster serves correct bytes (stream verification against the
//! catalog oracle, across reconnects), requests spread over the
//! servers the ring assigns, aggregate goodput scales with servers
//! when one server is the bottleneck, and a fail-stop kill
//! re-converges — zero verification failures and zero leaked DMA
//! buffers on every survivor.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::cluster::{run_cluster, ClusterConfig, ClusterMetrics};
use disk_crypt_net::faults::{ClusterFaults, ServerFault};
use disk_crypt_net::mem::Fidelity;
use disk_crypt_net::simcore::{Bandwidth, Nanos};

fn smoke(n_servers: usize, n_clients: usize, encrypted: bool, seed: u64) -> ClusterConfig {
    let mut sc = ClusterConfig::smoke(n_servers, n_clients, seed);
    sc.atlas = AtlasConfig {
        encrypted,
        ..AtlasConfig::default()
    };
    sc
}

fn assert_clean(m: &ClusterMetrics) {
    assert_eq!(m.verify_failures, 0, "corrupted bytes delivered: {m:?}");
    assert!(m.verified_bytes > 0, "nothing verified: {m:?}");
    for s in &m.per_server {
        if s.alive {
            assert_eq!(
                s.leaked_buffers, 0,
                "server {} leaked DMA buffers: {m:?}",
                s.server
            );
        }
    }
}

#[test]
fn healthy_cluster_serves_and_shards() {
    for encrypted in [false, true] {
        let m = run_cluster(&smoke(3, 24, encrypted, 11));
        assert_clean(&m);
        assert!(m.responses > 0);
        assert!(m.live_fraction > 0.9, "stuck clients: {m:?}");
        assert_eq!(m.failovers, 0);
        assert_eq!(m.fallback_routes, 0, "no failures → primary routing only");
        // The uniform workload must actually spread: every server
        // serves a nontrivial share.
        for s in &m.per_server {
            assert!(s.responses > 0, "server {} served nothing: {m:?}", s.server);
        }
    }
}

#[test]
fn single_server_cluster_matches_its_own_budget() {
    // Degenerate cluster (n=1) must behave like a plain Atlas run:
    // everything routes to server 0, nothing fails over.
    let m = run_cluster(&smoke(1, 16, true, 5));
    assert_clean(&m);
    assert_eq!(m.per_server.len(), 1);
    assert_eq!(m.per_server[0].responses, m.responses);
    assert_eq!(m.fallback_routes + m.overflow_routes, 0);
}

#[test]
fn kill_one_server_reconverges_without_corruption() {
    // Cacheable (hot-set) workload with replication 2: the killed
    // server's popular files already live on a replica.
    let mut sc = smoke(3, 24, true, 23);
    sc.fleet.cacheable = true;
    sc.fleet.hot_files = 64;
    sc.warmup = Nanos::from_millis(250);
    sc.duration = Nanos::from_millis(1200);
    sc.faults.cluster = ClusterFaults {
        kill: Some(ServerFault {
            server: 1,
            at: Nanos::from_millis(500),
        }),
        drain: None,
    };
    let m = run_cluster(&sc);
    assert_clean(&m);
    assert!(m.failovers > 0, "kill severed nobody: {m:?}");
    assert!(
        m.fallback_routes > 0,
        "hot files never failed over to a replica: {m:?}"
    );
    assert_eq!(m.unroutable, 0, "two healthy servers remain");
    let r = m.recovery.expect("kill inside the window → recovery stats");
    assert!(r.post_recovery_gbps > 0.0, "cluster never recovered: {m:?}");
    // Survivors keep serving after the kill; the dead server's
    // counters froze at the kill point.
    assert!(!m.per_server[1].alive);
    assert!(m.per_server[0].alive && m.per_server[2].alive);
}

#[test]
fn kill_resumes_interrupted_streams_mid_body() {
    // Many clients streaming when the server dies: at least one
    // in-flight response should have bytes on the ground and resume
    // via a range request rather than restarting from zero.
    let mut sc = smoke(2, 32, true, 7);
    sc.fleet.cacheable = true;
    sc.fleet.hot_files = 32;
    sc.replication = 2;
    sc.duration = Nanos::from_millis(1200);
    sc.faults.cluster = ClusterFaults {
        kill: Some(ServerFault {
            server: 0,
            at: Nanos::from_millis(600),
        }),
        drain: None,
    };
    let m = run_cluster(&sc);
    assert_clean(&m);
    assert!(m.failovers > 0);
    assert!(
        m.resumed_responses > 0,
        "no interrupted stream resumed mid-body: {m:?}"
    );
    assert!(m.resumed_bytes_saved > 0);
}

#[test]
fn drained_server_finishes_but_takes_no_new_work() {
    let mut sc = smoke(3, 24, false, 31);
    sc.duration = Nanos::from_millis(1200);
    sc.faults.cluster = ClusterFaults {
        kill: None,
        drain: Some(ServerFault {
            server: 2,
            at: Nanos::from_millis(400),
        }),
    };
    let m = run_cluster(&sc);
    assert_clean(&m);
    // Draining is not a failure: no connection is severed.
    assert_eq!(m.failovers, 0);
    // New requests route around the drained server (its primaries go
    // to a replica or overflow).
    assert!(m.fallback_routes + m.overflow_routes > 0, "{m:?}");
}

#[test]
fn goodput_scales_with_servers() {
    // The edge-pod shape from `ablation_cluster`: small per-server
    // NICs (2×5 GbE), clients a few ms away, oversubscribed closed
    // loop. One server saturates its NIC, so adding servers must add
    // goodput (~linear until the demand is met). At the paper's WAN
    // delays (10–40 ms) this inverts — each client's N per-server
    // connections stay cold and slow-start dominates — which is why
    // the scaling claim is pinned to this shape (DESIGN.md §9).
    //
    // Modeled fidelity: capacity is the question, not byte
    // correctness (the other tests cover that at Full).
    let g = |n: usize| {
        let mut sc = smoke(n, 300, true, 13);
        sc.atlas.fidelity = Fidelity::Modeled;
        sc.atlas.nic.port_rate = Bandwidth::from_gbps(5.0);
        sc.client_delay = (Nanos::from_millis(2), Nanos::from_millis(8));
        sc.fleet.cacheable = false;
        sc.fleet.verify = false;
        sc.vnodes = 512;
        sc.warmup = Nanos::from_millis(300);
        sc.duration = Nanos::from_millis(800);
        let m = run_cluster(&sc);
        for s in &m.per_server {
            assert_eq!(
                s.leaked_buffers, 0,
                "server {} leaked DMA buffers: {m:?}",
                s.server
            );
        }
        (m.net_gbps, m)
    };
    let (g1, _) = g(1);
    let (g4, m4) = g(4);
    assert!(g1 > 0.0);
    assert!(
        g4 > 3.0 * g1,
        "4 servers should far outrun 1: {g1:.2} → {g4:.2} Gbps\n{m4:?}"
    );
}

#[test]
fn shed_requests_are_retried_after_their_backoff() {
    // A DMA-pool watermark that latches under ordinary load (enter
    // below 25% free of 32 buffers per queue) makes the servers answer
    // some requests 503 + Retry-After on admitted connections. Each
    // shed client must wait out the backoff and re-send the same
    // request on the same connection, where the eventual 200 verifies
    // against the same oracle entry.
    let mut sc = smoke(3, 24, false, 41);
    sc.atlas.bufs_per_queue = 32;
    sc.atlas.admission.pool_low_enter = 0.25;
    sc.atlas.admission.pool_low_exit = 0.50;
    sc.duration = Nanos::from_millis(1500);
    let m = run_cluster(&sc);
    assert_clean(&m);
    assert!(
        m.client_503s > 0,
        "watermark shedding must answer 503: {m:?}"
    );
    assert!(
        m.client_retries > 0,
        "clients must honour Retry-After: {m:?}"
    );
    assert_eq!(
        m.client_retries,
        m.client_503s - m.client_retries_pending,
        "every 503 whose backoff expired is retried: {m:?}"
    );
    assert!(m.live_fraction > 0.9, "stuck clients: {m:?}");
}

#[test]
fn unroutable_requests_wait_for_a_server_to_stop_shedding() {
    // Two servers whose DMA-pool watermark latches under ordinary load
    // (enter below 30% free of 32 buffers per queue, exit above 50%)
    // at times shed together, so a request finds no routable server.
    // It parks and goes out once a server's latch clears, instead of
    // leaving its client idle for the rest of the run (which held this
    // run to 38 responses).
    let mut sc = smoke(2, 16, false, 7);
    sc.atlas.bufs_per_queue = 32;
    sc.atlas.admission.pool_low_enter = 0.3;
    sc.atlas.admission.pool_low_exit = 0.5;
    sc.duration = Nanos::from_millis(1500);
    let m = run_cluster(&sc);
    assert_clean(&m);
    assert!(m.unroutable > 0, "both servers must shed at once: {m:?}");
    assert_eq!(
        m.unroutable_pending, 0,
        "a parked request never went out: {m:?}"
    );
    assert!(m.responses > 100, "idle clients: {m:?}");
}

// A cluster fleet has no slowloris mode: the fault setting fails the
// run instead of being ignored.
#[test]
#[should_panic(expected = "faults.client.slowloris_conns")]
fn cluster_rejects_slowloris_faults() {
    let mut sc = smoke(2, 4, false, 5);
    sc.faults.client.slowloris_conns = 1;
    run_cluster(&sc);
}
