//! Tiered-catalog gate: million-object catalog split across a hot
//! NVMe tier and a simulated cold object store.
//!
//! The invariants the tier engine owes:
//!
//! * the Zipf workload is a pure function of its seed (and its rank
//!   permutation matches the tier's seeded hot set, so "popular"
//!   means the same objects on both sides);
//! * at the paper-adjacent operating point — 1M objects, Zipf(0.9) —
//!   the hot tier absorbs ≥90% of requests on Atlas, the kstack
//!   baselines, and the cluster;
//! * cold-miss bytes are bit-exact end to end (full-fidelity stream
//!   verification against the catalog oracle, which never saw a
//!   disk placement for cold objects);
//! * no DMA buffer leaks through any cold-miss path;
//! * a faulted tiered run replays to byte-identical metrics.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::cluster::{run_cluster, ClusterConfig};
use disk_crypt_net::faults::FaultConfig;
use disk_crypt_net::httpd::RequestDriver;
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::mem::Fidelity;
use disk_crypt_net::simcore::{Nanos, RankPerm, SimRng, RANK_PERM_SEED};
use disk_crypt_net::store::Catalog;
use disk_crypt_net::tier::TierConfig;
use disk_crypt_net::workload::{
    run_scenario, FleetConfig, RunMetrics, Scenario, ServerKind, TierMetrics,
};
use std::collections::HashSet;

// ---------------------------------------------------------- sampler

#[test]
fn zipf_workload_is_seed_deterministic_and_head_heavy() {
    let n: u64 = 1_000_000;
    let draw = |rng_seed: u64| -> Vec<u64> {
        let mut d = RequestDriver::zipf_perm(n, 0.9, SimRng::new(rng_seed));
        (0..10_000).map(|_| d.next_file().0).collect()
    };
    let a = draw(17);
    let b = draw(17);
    assert_eq!(a, b, "same seed must draw the same request sequence");
    let c = draw(18);
    assert_ne!(a, c, "different seeds must draw different sequences");

    // The permuted Zipf head must carry the mass: the top 10% of
    // ranks hold ~79% of Zipf(0.9) over 1M objects, and they must be
    // the *permuted* ids (the same ids the tier engine seeds hot).
    let perm = RankPerm::new(n, RANK_PERM_SEED);
    let head: HashSet<u64> = (0..n / 10).map(|r| perm.apply(r)).collect();
    let in_head = a.iter().filter(|f| head.contains(f)).count();
    assert!(
        in_head as f64 / a.len() as f64 > 0.70,
        "Zipf head under-represented: {in_head}/10000"
    );
    // And the ids are spread by the permutation, not clustered at the
    // low end of the namespace.
    let low_ids = a.iter().filter(|&&f| f < n / 10).count();
    assert!(
        (low_ids as f64) < 0.25 * a.len() as f64,
        "rank permutation missing: {low_ids}/10000 ids in the low tenth"
    );
}

// --------------------------------------------------- million-object

/// 1M objects, Zipf(0.9), hot tier provisioned for 55% of the
/// catalog: the seeded head must absorb ≥90% of requests.
fn million_tier() -> TierConfig {
    TierConfig {
        hot_frac: 0.55,
        ..TierConfig::default()
    }
}

fn million_scenario(server: ServerKind, seed: u64) -> Scenario {
    Scenario {
        server,
        fleet: FleetConfig {
            n_clients: 48,
            verify: false, // modeled fidelity
            zipf: Some(0.9),
            ..FleetConfig::default()
        },
        catalog: Catalog::new(1_000_000, 300 * 1024, 4, seed),
        warmup: Nanos::from_millis(250),
        duration: Nanos::from_millis(700),
        seed,
        data_loss: 0.0,
        faults: FaultConfig::default(),
    }
}

fn assert_million_invariants(m: &RunMetrics) -> TierMetrics {
    let t = m.tier.expect("tier engine configured");
    assert!(m.responses > 0, "no progress: {m:?}");
    assert_eq!(m.leaked_buffers, 0, "cold-miss path leaked buffers");
    assert!(
        t.cold_misses > 0,
        "tier never exercised — cold tail unreachable? {t:?}"
    );
    assert!(
        t.hit_ratio >= 0.90,
        "hot tier must absorb >=90% of Zipf(0.9): {t:?}"
    );
    assert!(t.cold_bytes > 0 && t.cold_requests > 0 && t.cold_cost_ucents > 0);
    t
}

#[test]
fn million_object_zipf_on_atlas_hits_hot_tier() {
    let cfg = AtlasConfig {
        fidelity: Fidelity::Modeled,
        tier: Some(million_tier()),
        ..AtlasConfig::default()
    };
    let m = run_scenario(&million_scenario(ServerKind::Atlas(cfg), 83));
    let t = assert_million_invariants(&m);
    eprintln!("atlas 1M: {t:?}");
}

#[test]
fn million_object_zipf_on_kstack_hits_hot_tier() {
    let cfg = KstackConfig {
        fidelity: Fidelity::Modeled,
        tier: Some(million_tier()),
        ..KstackConfig::netflix()
    };
    let m = run_scenario(&million_scenario(ServerKind::Kstack(cfg), 84));
    let t = assert_million_invariants(&m);
    assert_eq!(
        (t.cache_hits, t.cache_misses),
        (0, 0),
        "kstack has no DMA cache — the buffer cache plays that role"
    );
    eprintln!("kstack 1M: {t:?}");
}

#[test]
fn million_object_zipf_on_cluster_hits_hot_tier() {
    let mut sc = ClusterConfig::smoke(3, 18, 85);
    sc.catalog = Catalog::new(1_000_000, 300 * 1024, 4, 85);
    sc.fleet.zipf = Some(0.9);
    sc.atlas = AtlasConfig {
        tier: Some(million_tier()),
        ..AtlasConfig::default()
    };
    let m = run_cluster(&sc);
    assert!(m.responses > 0);
    assert_eq!(m.verify_failures, 0, "cold bytes corrupted: {m:?}");
    assert!(m.verified_bytes > 0);
    // Hit ratio weighted by each shard's traffic: the dispatcher
    // splits the catalog but every shard keeps its own Zipf head hot.
    let (mut hits_w, mut resp) = (0.0, 0u64);
    for s in &m.per_server {
        assert_eq!(s.leaked_buffers, 0, "server {} leaked", s.server);
        hits_w += s.tier_hit_ratio * s.responses as f64;
        resp += s.responses;
        assert!(s.responses > 0, "server {} idle: {m:?}", s.server);
    }
    let hit = hits_w / resp as f64;
    assert!(
        hit >= 0.90,
        "cluster-wide hot-tier hit ratio {hit:.3} < 0.90"
    );
    let cold: u64 = m.per_server.iter().map(|s| s.tier_cold_bytes).sum();
    assert!(cold > 0, "cluster never touched the cold store");
}

// ------------------------------------------------- cold-path bytes

/// Full fidelity, tiny hot tier (10%): most requests miss to the
/// cold store, and every delivered byte must still verify against
/// the catalog oracle — which derives expected bytes from (object,
/// offset) alone and never saw a disk placement for cold objects.
fn cold_heavy_scenario(server: ServerKind, seed: u64) -> Scenario {
    let mut sc = Scenario::smoke(server, 12, seed);
    sc.catalog = Catalog::new(2_000, 300 * 1024, 4, seed);
    sc
}

fn assert_cold_bytes_exact(m: &RunMetrics) {
    let t = m.tier.expect("tier engine configured");
    assert!(t.cold_misses > 0, "cold path never taken: {t:?}");
    assert_eq!(m.verify_failures, 0, "cold bytes corrupted: {m:?}");
    assert!(m.verified_bytes > 0);
    assert_eq!(m.leaked_buffers, 0);
}

#[test]
fn cold_miss_bytes_verify_bit_exact_on_atlas() {
    for encrypted in [false, true] {
        let cfg = AtlasConfig {
            encrypted,
            tier: Some(TierConfig {
                hot_frac: 0.1,
                ..TierConfig::default()
            }),
            ..AtlasConfig::default()
        };
        let m = run_scenario(&cold_heavy_scenario(ServerKind::Atlas(cfg), 91));
        assert_cold_bytes_exact(&m);
    }
}

#[test]
fn cold_miss_bytes_verify_bit_exact_on_kstack() {
    // Netflix (async sendfile) and Stock (synchronous sendfile — the
    // blocking semantics must hold for WAN-latency cold reads too).
    for stock in [false, true] {
        let base = if stock {
            KstackConfig::stock()
        } else {
            KstackConfig::netflix()
        };
        let cfg = KstackConfig {
            encrypted: true,
            tier: Some(TierConfig {
                hot_frac: 0.1,
                ..TierConfig::default()
            }),
            ..base
        };
        let m = run_scenario(&cold_heavy_scenario(ServerKind::Kstack(cfg), 92));
        assert_cold_bytes_exact(&m);
    }
}

// ---------------------------------------------------------- replay

#[test]
fn tiered_run_replays_bit_identical_under_faults() {
    let scenario = || {
        let cfg = AtlasConfig {
            encrypted: true,
            fidelity: Fidelity::Modeled,
            tier: Some(TierConfig {
                hot_frac: 0.3,
                ..TierConfig::default()
            }),
            ..AtlasConfig::default()
        };
        let mut sc = million_scenario(ServerKind::Atlas(cfg), 93);
        sc.catalog = Catalog::new(100_000, 300 * 1024, 4, 93);
        sc.faults = FaultConfig::bursty_with_disk_errors();
        sc
    };
    let a = run_scenario(&scenario());
    let b = run_scenario(&scenario());
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "tiered + faulted run must replay bit-identically"
    );
    let t = a.tier.as_ref().expect("tier metrics");
    assert!(t.cold_misses > 0, "replay test never hit the cold path");
    assert!(
        a.faults.net_dropped > 0 || a.faults.nvme_read_errors > 0,
        "fault schedule never fired: {:?}",
        a.faults
    );
}
