//! Paper-shape regression tests: the qualitative relationships from
//! DESIGN.md §4 that define a successful reproduction, at scales small
//! enough for CI. The bench binaries sweep the full ranges.

use dcn_bench::storage::{run_aio, run_diskmap, run_pread};
use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::mem::Fidelity;
use disk_crypt_net::simcore::Nanos;
use disk_crypt_net::store::Catalog;
use disk_crypt_net::workload::{
    run_scenario, run_scenario_observed, FleetConfig, ObsOptions, RunMetrics, Scenario, ServerKind,
};
use std::collections::BTreeMap;

fn run(server: ServerKind, n: usize, cacheable: bool, seed: u64) -> RunMetrics {
    let sc = Scenario {
        server,
        fleet: FleetConfig {
            n_clients: n,
            cacheable,
            hot_files: 128,
            verify: false,
            ..FleetConfig::default()
        },
        catalog: Catalog::paper(seed),
        warmup: Nanos::from_millis(350),
        duration: Nanos::from_millis(800),
        seed,
        data_loss: 0.0,
        faults: Default::default(),
    };
    run_scenario(&sc)
}

fn atlas(encrypted: bool) -> ServerKind {
    ServerKind::Atlas(AtlasConfig {
        encrypted,
        fidelity: Fidelity::Modeled,
        ..AtlasConfig::default()
    })
}

fn netflix(encrypted: bool) -> ServerKind {
    ServerKind::Kstack(KstackConfig {
        encrypted,
        fidelity: Fidelity::Modeled,
        ..KstackConfig::netflix()
    })
}

fn stock(encrypted: bool) -> ServerKind {
    ServerKind::Kstack(KstackConfig {
        encrypted,
        fidelity: Fidelity::Modeled,
        ..KstackConfig::stock()
    })
}

// ---------------------------------------------------------- Fig 6

#[test]
fn fig6_shape_throughput_saturates_latency_grows() {
    let horizon = Nanos::from_millis(150);
    let w1 = run_diskmap(1, 16 * 1024, 1, horizon, 42);
    let w128 = run_diskmap(1, 16 * 1024, 128, horizon, 42);
    let w512 = run_diskmap(1, 16 * 1024, 512, horizon, 42);
    // Saturation near the device limit by window 128, latency < 1 ms.
    assert!(w128.throughput_gbps > 20.0, "{}", w128.throughput_gbps);
    assert!(w128.mean_latency_us < 1000.0, "{}", w128.mean_latency_us);
    assert!(w1.throughput_gbps < w128.throughput_gbps * 0.2);
    // Past saturation latency grows ~linearly, throughput does not.
    assert!(w512.throughput_gbps < w128.throughput_gbps * 1.1);
    assert!(w512.mean_latency_us > w128.mean_latency_us * 2.5);
}

// ---------------------------------------------------------- Fig 8

#[test]
fn fig8_shape_diskmap_beats_aio_beats_pread_at_small_io() {
    let horizon = Nanos::from_millis(100);
    for size in [4096u64, 16 * 1024] {
        let d = run_diskmap(4, size, 128, horizon, 42);
        let a = run_aio(4, size, 128, horizon, 42);
        let p = run_pread(4, size, horizon, 42);
        assert!(
            d.throughput_gbps > 2.0 * a.throughput_gbps,
            "size {size}: diskmap {:.1} vs aio {:.1}",
            d.throughput_gbps,
            a.throughput_gbps
        );
        assert!(
            a.throughput_gbps > 2.0 * p.throughput_gbps,
            "size {size}: aio {:.1} vs pread {:.1}",
            a.throughput_gbps,
            p.throughput_gbps
        );
    }
}

#[test]
fn fig8_shape_aio_converges_to_diskmap_at_128k() {
    let horizon = Nanos::from_millis(100);
    let d = run_diskmap(4, 128 * 1024, 128, horizon, 42);
    let a = run_aio(4, 128 * 1024, 128, horizon, 42);
    assert!(
        a.throughput_gbps > 0.8 * d.throughput_gbps,
        "aio {:.1} vs diskmap {:.1}",
        a.throughput_gbps,
        d.throughput_gbps
    );
}

// ---------------------------------------------------------- Fig 9

#[test]
fn fig9_shape_diskmap_latency_left_of_aio() {
    let horizon = Nanos::from_millis(120);
    let d = run_diskmap(1, 512, 128, horizon, 42);
    let a = run_aio(1, 512, 128, horizon, 42);
    // The body of the distribution shifts right for aio (interrupt +
    // kevent visibility); deep tails are device-queue-dominated and
    // may cross within bucket noise.
    for q in [0.1, 0.25, 0.5] {
        assert!(
            d.latency.quantile(q) <= a.latency.quantile(q) + 2.6,
            "q{q}: diskmap {:.1}us vs aio {:.1}us",
            d.latency.quantile(q),
            a.latency.quantile(q)
        );
    }
    assert!(d.mean_latency_us < a.mean_latency_us + 3.0);
}

// ------------------------------------------------ Figs 11/13 headline

/// The saturated headline point: 2,000 uncachable clients over
/// `Catalog::paper`, 0.4 s warm-up, measured to 1.6 s.
fn headline(server: ServerKind, seed: u64) -> Scenario {
    Scenario {
        server,
        fleet: FleetConfig {
            n_clients: 2000,
            cacheable: false,
            verify: false,
            ..FleetConfig::default()
        },
        catalog: Catalog::paper(seed),
        warmup: Nanos::from_millis(400),
        duration: Nanos::from_millis(1600),
        seed,
        data_loss: 0.0,
        faults: Default::default(),
    }
}

/// Sum over cores of a per-core counter in a `t_ms,metric,value`
/// metrics CSV, keyed by sample time (the last row wins when a time
/// is sampled twice).
fn csv_series(csv: &str, name: &str) -> BTreeMap<u64, f64> {
    let prefix = format!("{name}{{");
    let mut rows: BTreeMap<(u64, String), f64> = BTreeMap::new();
    for line in csv.lines().skip(1) {
        let mut f = line.splitn(3, ',');
        let (t, metric, v) = (f.next().unwrap(), f.next().unwrap(), f.next().unwrap());
        if metric.starts_with(&prefix) {
            let t_ms = t.parse::<f64>().unwrap().round() as u64;
            rows.insert((t_ms, metric.to_string()), v.parse().unwrap());
        }
    }
    let mut series = BTreeMap::new();
    for ((t, _), v) in rows {
        *series.entry(t).or_insert(0.0) += v;
    }
    series
}

#[test]
fn headline_atlas_tls_2k_steady_state_beats_netflix() {
    // Figs 11/13: Atlas on 4 cores matches or beats Netflix-0%BC on 8
    // at 2,000 TLS connections — in steady state, without shedding.
    let seed = 1;
    let csv_path = std::env::temp_dir().join(format!(
        "dcn_paper_shapes_headline_{}.csv",
        std::process::id()
    ));
    let obs = ObsOptions {
        metrics_out: Some(csv_path.clone()),
        sample_interval: Some(Nanos::from_millis(200)),
        ..ObsOptions::disabled()
    };
    let (a, _) = run_scenario_observed(&headline(atlas(true), seed), &obs);
    let csv = std::fs::read_to_string(&csv_path).expect("metrics CSV written");
    let _ = std::fs::remove_file(&csv_path);
    let n = run_scenario(&headline(netflix(true), seed));
    assert!(
        a.net_gbps >= n.net_gbps,
        "atlas {:.1} vs netflix-0%BC {:.1} Gb/s",
        a.net_gbps,
        n.net_gbps
    );
    // The memory half (Fig 13): Atlas serves from the LLC, the kernel
    // stack streams every byte through DRAM.
    assert!(
        a.read_net_ratio < 0.5 * n.read_net_ratio,
        "read:net atlas {:.2} vs netflix-0%BC {:.2}",
        a.read_net_ratio,
        n.read_net_ratio
    );
    assert_eq!(a.overload.retry_503, 0, "atlas answered 503s");
    assert_eq!(a.overload.shed_new, 0, "atlas refused SYNs");
    assert_eq!(a.leaked_buffers, 0);
    // The fair-share read-ahead bound is what keeps the pools off the
    // overload latch here; it must actually engage.
    let limited = csv_series(&csv, "atlas.bufpool.share_limited");
    assert!(
        limited.values().last().copied().unwrap_or(0.0) > 0.0,
        "share rule never engaged"
    );
    // Steady-state detector: the two equal halves of the measurement
    // window (0.4–1.0 s and 1.0–1.6 s) deliver within ±5% of each other.
    let sent = csv_series(&csv, "atlas.http_payload_bytes");
    let at = |t: u64| {
        sent.get(&t)
            .copied()
            .unwrap_or_else(|| panic!("no sample at {t} ms"))
    };
    let first = at(1000) - at(400);
    let second = at(1600) - at(1000);
    assert!(
        (second / first - 1.0).abs() <= 0.05,
        "not steady: {first:.3e} then {second:.3e} payload bytes"
    );
}

// --------------------------------------------------- macro behaviour

#[test]
fn atlas_is_insensitive_to_buffer_cache_ratio() {
    // Atlas has no buffer cache: cacheable and uncachable workloads
    // must perform alike (§4.1).
    let a0 = run(atlas(false), 300, false, 21);
    let a100 = run(atlas(false), 300, true, 21);
    let ratio = a0.net_gbps / a100.net_gbps.max(1e-9);
    assert!(
        (0.8..1.25).contains(&ratio),
        "0%BC {:.1} vs 100%BC {:.1}",
        a0.net_gbps,
        a100.net_gbps
    );
}

#[test]
fn netflix_beats_stock_on_uncachable_plaintext() {
    // Fig 1: async sendfile + VM fixes nearly double 0%BC throughput
    // (the effect binds once demand exceeds what blocking workers can
    // pump, so measure above the request-response knee).
    let n = run(netflix(false), 1200, false, 22);
    let s = run(stock(false), 1200, false, 22);
    assert!(
        n.net_gbps > 1.3 * s.net_gbps,
        "netflix {:.1} vs stock {:.1}",
        n.net_gbps,
        s.net_gbps
    );
}

#[test]
fn stock_tls_collapses_against_ktls() {
    // Fig 2 / §2.1.4: userspace TLS (two copies + two syscalls per
    // record) falls far behind in-kernel TLS.
    let n = run(netflix(true), 1200, false, 23);
    let s = run(stock(true), 1200, false, 23);
    assert!(
        n.net_gbps > 1.5 * s.net_gbps,
        "netflix-ktls {:.1} vs stock-tls {:.1}",
        n.net_gbps,
        s.net_gbps
    );
}

#[test]
fn atlas_memory_ratio_beats_netflix_encrypted() {
    // Fig 13e: Atlas ≈1.5× read:net, Netflix ≈2.6×. At any load the
    // ordering must hold with clear separation.
    let a = run(atlas(true), 600, false, 24);
    let n = run(netflix(true), 600, false, 24);
    assert!(
        a.read_net_ratio < n.read_net_ratio,
        "atlas ratio {:.2} vs netflix {:.2}",
        a.read_net_ratio,
        n.read_net_ratio
    );
}

#[test]
fn atlas_light_load_is_llc_resident() {
    // §4.1: at 2 000 connections the paper sees memory reads at ~65%
    // of network throughput thanks to DDIO; at a few hundred
    // connections the pipeline fits the LLC almost entirely.
    let a = run(atlas(false), 200, false, 25);
    assert!(a.net_gbps > 5.0, "sanity: {:.1}", a.net_gbps);
    assert!(
        a.read_net_ratio < 0.65,
        "light-load Atlas should be mostly LLC-resident: ratio {:.2}",
        a.read_net_ratio
    );
}

#[test]
fn runs_are_deterministic() {
    let m1 = run(atlas(false), 150, false, 77);
    let m2 = run(atlas(false), 150, false, 77);
    assert_eq!(m1.responses, m2.responses);
    assert_eq!(m1.total_body_bytes, m2.total_body_bytes);
    assert!((m1.net_gbps - m2.net_gbps).abs() < 1e-9);
    assert!((m1.mem_read_gbps - m2.mem_read_gbps).abs() < 1e-9);
}
