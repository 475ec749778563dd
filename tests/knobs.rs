//! Knob census: the settable fields of every public server and
//! workload config, pinned by name.
//!
//! Each config's field names are read from its default's `{:#?}`, so
//! a new field fails here until this list names it — a new knob shows
//! up as a diff to this file. A value no caller varies belongs in a
//! named `const` next to the code that reads it, not in a config.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::cluster::ClusterConfig;
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::nvme::NvmeConfig;
use disk_crypt_net::srvcore::AdmissionConfig;
use disk_crypt_net::tier::{ColdStoreConfig, TierConfig};
use disk_crypt_net::workload::FleetConfig;
use std::fmt::Debug;

/// Top-level field names of a struct's pretty `Debug` output: the
/// lines indented exactly one level.
fn fields(config: &impl Debug) -> Vec<String> {
    format!("{config:#?}")
        .lines()
        .filter_map(|l| l.strip_prefix("    "))
        .filter(|l| !l.starts_with(' '))
        .filter_map(|l| l.split_once(':').map(|(name, _)| name.to_owned()))
        .collect()
}

#[test]
fn config_fields_are_pinned() {
    let census: [(&str, Vec<String>, &[&str]); 8] = [
        (
            "AdmissionConfig",
            fields(&AdmissionConfig::default()),
            &[
                "max_conns_per_core",
                "pool_low_enter",
                "pool_low_exit",
                "sq_high_enter",
                "sq_high_exit",
            ],
        ),
        (
            "AtlasConfig",
            fields(&AtlasConfig::default()),
            &[
                "cores",
                "bufs_per_queue",
                "watermark",
                "encrypted",
                "tcb",
                "nic",
                "firmware",
                "llc",
                "costs",
                "fidelity",
                "server_endpoint",
                "trace",
                "profile",
                "admission",
                "autotune",
                "tier",
                "tier_cache",
            ],
        ),
        (
            "KstackConfig",
            fields(&KstackConfig::netflix()),
            &[
                "variant",
                "cores",
                "encrypted",
                "tcb",
                "nic",
                "firmware",
                "llc",
                "costs",
                "fidelity",
                "server_endpoint",
                "admission",
                "profile",
                "tier",
            ],
        ),
        (
            "TierConfig",
            fields(&TierConfig::default()),
            &["hot_frac", "cold"],
        ),
        (
            "ColdStoreConfig",
            fields(&ColdStoreConfig::default()),
            &["base_latency"],
        ),
        (
            "FleetConfig",
            fields(&FleetConfig::default()),
            &[
                "n_clients",
                "cacheable",
                "hot_files",
                "verify",
                "abr",
                "zipf",
            ],
        ),
        (
            "NvmeConfig",
            fields(&NvmeConfig::default()),
            &["num_qpairs", "queue_depth", "firmware", "fidelity"],
        ),
        (
            "ClusterConfig",
            fields(&ClusterConfig::smoke(2, 4, 1)),
            &[
                "n_servers",
                "atlas",
                "fleet",
                "catalog",
                "replication",
                "vnodes",
                "warmup",
                "duration",
                "seed",
                "faults",
                "client_delay",
            ],
        ),
    ];
    for (name, got, want) in &census {
        assert_eq!(got, want, "{name}'s fields changed: update this census");
    }
    let total: usize = census.iter().map(|(_, got, _)| got.len()).sum();
    assert_eq!(total, 59, "settable config fields");
}
