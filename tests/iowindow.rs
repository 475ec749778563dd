//! I/O-window autotuner and zero-alloc steady-state invariants.
//!
//! The online autotuner (DESIGN.md §12) adjusts the fetch watermark
//! and in-flight cap from completion latency and SQ occupancy. It is
//! seeded and driven entirely by virtual time, so it must preserve
//! the simulator's bit-identical-replay property; and with the tuner
//! disabled the server must behave exactly as it did with the paper's
//! fixed 10×MSS watermark. Separately, the scratch-arena work asserts
//! that after warm-up neither server grows any of its per-sweep
//! buffers (the `dcn_obs::steady` counter, reset by the harness at
//! the warm-up boundary, stays zero).

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::kstack::server::FILL_BYTES;
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::mem::Fidelity;
use disk_crypt_net::workload::{run_scenario, Scenario, ServerKind};

fn atlas_cfg(autotune: bool) -> AtlasConfig {
    AtlasConfig {
        encrypted: true,
        fidelity: Fidelity::Modeled,
        autotune,
        ..AtlasConfig::default()
    }
}

#[test]
fn autotune_on_replays_bit_identically() {
    let run = || {
        let sc = Scenario::smoke(ServerKind::Atlas(atlas_cfg(true)), 24, 9090);
        format!("{:?}", run_scenario(&sc))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "autotuned runs must replay bit-identically");
}

#[test]
fn autotune_off_is_a_pass_through() {
    // A disabled tuner leaves the fixed 10×MSS watermark in charge:
    // the run replays bit-identically, and only switching the tuner
    // on moves it.
    let run = |autotune| {
        let sc = Scenario::smoke(ServerKind::Atlas(atlas_cfg(autotune)), 24, 7171);
        format!("{:?}", run_scenario(&sc))
    };
    let off = run(false);
    assert_eq!(off, run(false), "the fixed-watermark run must replay");
    assert_ne!(
        off,
        run(true),
        "the tuner switch must be what moves the run"
    );
}

#[test]
fn autotune_raises_modeled_atlas_throughput() {
    let chunks = |autotune: bool| {
        let sc = Scenario::smoke(ServerKind::Atlas(atlas_cfg(autotune)), 24, 5151);
        run_scenario(&sc).disk_reads
    };
    let fixed = chunks(false);
    let tuned = chunks(true);
    assert!(
        tuned > fixed,
        "autotuner should beat the fixed watermark: tuned={tuned} fixed={fixed}"
    );
}

#[test]
fn atlas_steady_state_is_zero_alloc() {
    let cfg = AtlasConfig {
        encrypted: true,
        autotune: true,
        ..AtlasConfig::default()
    };
    let sc = Scenario::smoke(ServerKind::Atlas(cfg), 16, 4242);
    let m = run_scenario(&sc);
    assert!(
        m.disk_reads >= 1_000,
        "want ≥1k chunks, got {}",
        m.disk_reads
    );
    assert_eq!(m.verify_failures, 0);
    assert_eq!(
        disk_crypt_net::obs::steady::count(),
        0,
        "Atlas grew a scratch arena after warm-up"
    );
}

#[test]
fn kstack_steady_state_is_zero_alloc() {
    let cfg = KstackConfig {
        encrypted: true,
        ..KstackConfig::netflix()
    };
    let sc = Scenario::smoke(ServerKind::Kstack(cfg), 16, 4343);
    let m = run_scenario(&sc);
    let fills = m.disk_read_bytes / FILL_BYTES;
    assert!(fills * 8 >= 1_000, "want ≥1k records, got {fills} fills");
    assert_eq!(m.verify_failures, 0);
    assert_eq!(
        disk_crypt_net::obs::steady::count(),
        0,
        "kstack grew a scratch arena after warm-up"
    );
}
