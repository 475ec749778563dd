//! §4.1 ablation — the 10×MSS fetch watermark.
//!
//! The paper attributes Atlas's ~13% throughput deficit below 4 k
//! connections to delaying I/O until the window clears 10×MSS (in
//! exchange for efficient 16 KiB disk reads). This ablation sweeps
//! the watermark.

use dcn_atlas::AtlasConfig;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_mem::Fidelity;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{run_scenario, FleetConfig, Scenario, ServerKind};

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let seed = args.seed_or(11);
    let n = match scale {
        Scale::Quick => 500,
        _ => 2000,
    };
    let rows: Vec<Vec<String>> = [1usize, 4, 10, 20, 40]
        .iter()
        .map(|&mss_mult| {
            let cfg = AtlasConfig {
                watermark: mss_mult as u64 * 1448,
                fidelity: Fidelity::Modeled,
                ..AtlasConfig::default()
            };
            let sc = Scenario {
                server: ServerKind::Atlas(cfg),
                fleet: FleetConfig {
                    n_clients: n,
                    verify: false,
                    ..FleetConfig::default()
                },
                catalog: Catalog::paper(seed),
                warmup: Nanos::from_millis(400),
                duration: scale.duration(),
                seed,
                data_loss: 0.0,
                faults: Default::default(),
            };
            let m = run_scenario(&sc);
            vec![
                format!("{mss_mult}xMSS"),
                format!("{:.1}", m.net_gbps),
                format!("{:.2}", m.read_net_ratio),
                m.responses.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Ablation: Atlas fetch watermark at {n} connections"),
        &["watermark", "net_gbps", "R:net", "responses"],
        &rows,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
