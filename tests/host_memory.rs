//! Host memory holds only live bytes: at full fidelity a server's
//! materialized pages never exceed the pages of the memory it still
//! holds. A DMA buffer (Atlas) or a ciphertext socket-buffer region
//! (kstack) going back to its pool drops its pages, so the pages
//! behind each pool's LIFO high-water mark do not stay resident.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::faults::LossModel;
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::workload::{run_scenario, Scenario, ServerKind};

/// A lossy full-fidelity run (loss drives the disk re-fetch and
/// abandoned-retransmit free paths too); every delivered byte is
/// verified, so a page dropped while still readable would show as a
/// verification failure.
fn assert_only_held_pages_resident(server: ServerKind, seed: u64) {
    let mut sc = Scenario::smoke(server, 24, seed);
    sc.faults.net.loss = LossModel::gilbert_elliott_for(0.01);
    let m = run_scenario(&sc);
    let pages = m.host_pages;
    assert_eq!(m.verify_failures, 0, "{}", m.label);
    assert!(
        m.verified_bytes > 1_000_000,
        "{}: {}",
        m.label,
        m.verified_bytes
    );
    assert_eq!(m.leaked_buffers, 0, "{}", m.label);
    assert!(
        pages.resident > 0,
        "{}: full fidelity writes bytes",
        m.label
    );
    assert!(
        pages.resident <= pages.held,
        "{}: {} pages resident, {} held",
        m.label,
        pages.resident,
        pages.held
    );
}

#[test]
fn atlas_plain_host_pages_are_held_pages() {
    assert_only_held_pages_resident(ServerKind::Atlas(AtlasConfig::default()), 1);
}

#[test]
fn atlas_tls_host_pages_are_held_pages() {
    let cfg = AtlasConfig {
        encrypted: true,
        ..AtlasConfig::default()
    };
    assert_only_held_pages_resident(ServerKind::Atlas(cfg), 2);
}

#[test]
fn kstack_tls_host_pages_are_held_pages() {
    let cfg = KstackConfig {
        encrypted: true,
        ..KstackConfig::netflix()
    };
    assert_only_held_pages_resident(ServerKind::Kstack(cfg), 3);
}
