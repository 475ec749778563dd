//! Fault ablation — goodput vs injected loss and device error rate.
//!
//! Sweeps the two main fault axes against the Atlas TLS server:
//! bursty (Gilbert–Elliott) link loss on the server→client direction,
//! and NVMe unrecoverable-read-error probability. Every lost data
//! frame costs a full disk re-fetch (storage *is* the retransmission
//! buffer), so goodput degrades with loss faster than a socket-buffer
//! stack would — this table quantifies that trade-off, alongside the
//! recovery work (re-fetches, retries, RTOs) each cell induced.

use dcn_atlas::AtlasConfig;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_faults::{FaultConfig, LossModel};
use dcn_mem::Fidelity;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{run_scenario, FleetConfig, Scenario, ServerKind};

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let seed = args.seed_or(23);
    let n = match scale {
        Scale::Quick => 300,
        _ => 1000,
    };
    let loss_rates = [0.0, 0.001, 0.01];
    let err_rates = [0.0, 0.001, 0.01];
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &loss in &loss_rates {
        for &err_p in &err_rates {
            let cfg = AtlasConfig {
                encrypted: true,
                fidelity: Fidelity::Modeled,
                ..AtlasConfig::default()
            };
            let mut faults = FaultConfig::default();
            if loss > 0.0 {
                faults.net.loss = LossModel::gilbert_elliott_for(loss);
            }
            faults.nvme.read_error_p = err_p;
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
                faults,
            };
            let m = run_scenario(&sc);
            rows.push(vec![
                format!("{:.1}%", loss * 100.0),
                format!("{:.1}%", err_p * 100.0),
                format!("{:.1}", m.net_gbps),
                m.faults.net_dropped.to_string(),
                m.retransmit_fetches.to_string(),
                m.faults.nvme_read_errors.to_string(),
                m.faults.fetch_retries.to_string(),
                m.faults.rto_fired.to_string(),
                m.leaked_buffers.to_string(),
            ]);
        }
    }
    print_table(
        &format!("Ablation: Atlas TLS goodput under bursty loss x NVMe read errors ({n} conns)"),
        &[
            "loss", "nvme_err", "net_gbps", "dropped", "refetch", "dev_err", "retries", "rto",
            "leaked",
        ],
        &rows,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
