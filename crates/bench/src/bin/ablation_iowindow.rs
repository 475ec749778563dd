//! Ablation — online I/O-window autotuner vs the paper's fixed
//! 10×MSS watermark.
//!
//! Fig 6 argues the drive's operating point (window where throughput
//! saturates while latency stays far under WAN RTTs) can be found
//! offline and baked in as a fixed watermark. The autotuner finds the
//! same point online from completion latency and SQ occupancy, and —
//! unlike the baked-in constant — re-converges when the firmware is
//! slower than the one that was profiled. The matrix is
//! {fixed, autotuned} × {plain, TLS} × {fast, slow} firmware, where
//! "slow" triples the controller's fixed command overhead (a drive
//! three generations older, or one busy with GC).

use dcn_atlas::AtlasConfig;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_mem::Fidelity;
use dcn_nvme::FirmwareParams;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{run_scenario, FleetConfig, Scenario, ServerKind};

fn firmware(slow: bool) -> FirmwareParams {
    let fast = FirmwareParams::p3700();
    if slow {
        FirmwareParams {
            cmd_overhead: Nanos::from_nanos(3 * fast.cmd_overhead.as_nanos()),
            ..fast
        }
    } else {
        fast
    }
}

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(29);
    let n = match args.scale {
        Scale::Quick => 32,
        _ => 64,
    };
    let mut rows = Vec::new();
    for (tuner_name, autotune) in [("fixed", false), ("autotuned", true)] {
        for encrypted in [false, true] {
            for slow in [false, true] {
                let cfg = AtlasConfig {
                    encrypted,
                    autotune,
                    firmware: firmware(slow),
                    fidelity: Fidelity::Modeled,
                    ..AtlasConfig::default()
                };
                let sc = Scenario {
                    server: ServerKind::Atlas(cfg),
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
                    warmup: Nanos::from_millis(250),
                    duration: args.scale.duration(),
                    seed,
                    data_loss: 0.0,
                    faults: Default::default(),
                };
                let m = run_scenario(&sc);
                rows.push(vec![
                    format!(
                        "{tuner_name}/{}/{}",
                        if encrypted { "tls" } else { "plain" },
                        if slow { "slow_fw" } else { "fast_fw" }
                    ),
                    format!("{:.2}", m.net_gbps),
                    m.disk_reads.to_string(),
                    format!("{:.2}", m.read_net_ratio),
                    m.responses.to_string(),
                ]);
            }
        }
    }
    print_table(
        &format!("Ablation: I/O-window control at {n} connections (seed {seed})"),
        &["cell", "net_gbps", "chunks", "R:net", "responses"],
        &rows,
    );
    println!(
        "\nReading: at each firmware speed, the autotuned cells should match\n\
         or beat the fixed-watermark cells — the controller finds Fig 6's\n\
         operating point online instead of trusting a profile of a\n\
         different drive."
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
