//! §4.1/§5 ablation — timely TX-completion notification.
//!
//! The paper observes Atlas's memory *writes* exceed its reads
//! because netmap reports TX completions lazily: buffers are not
//! recycled LIFO fast enough, the working set grows, and dirty DMA
//! buffers get evicted to DRAM before reuse. §5 proposes fine-grained
//! completion notification. This ablation sweeps the NIC's
//! completion-report batch (1 = the paper's proposal, larger =
//! netmap's batching) and reads the memory-write rate.

use dcn_atlas::AtlasConfig;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_mem::Fidelity;
use dcn_netdev::NicConfig;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{run_scenario, FleetConfig, Scenario, ServerKind};

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let seed = args.seed_or(31);
    let n = match scale {
        Scale::Quick => 600,
        _ => 2000,
    };
    let rows: Vec<Vec<String>> = [1usize, 8, 32, 128, 512]
        .iter()
        .map(|&batch| {
            let cfg = AtlasConfig {
                nic: NicConfig {
                    tx_report_batch: batch,
                    ..NicConfig::default()
                },
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
                batch.to_string(),
                format!("{:.1}", m.net_gbps),
                format!("{:.1}", m.mem_read_gbps),
                format!("{:.1}", m.mem_write_gbps),
                format!("{:.2}", m.read_net_ratio),
            ]
        })
        .collect();
    print_table(
        &format!("Ablation §5: TX completion report batch, Atlas at {n} connections"),
        &["batch", "net_gbps", "memR", "memW", "R:net"],
        &rows,
    );
    println!(
        "\nSmaller batches = more timely buffer recycling = tighter LIFO reuse\n\
         = smaller working set in the LLC (the paper's §5 design principle)."
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
