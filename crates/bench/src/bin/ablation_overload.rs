//! Overload ablation — goodput and tail latency vs offered load.
//!
//! Sweeps offered load from 0.5× to 4× the admission capacity
//! (`max_conns_per_core` × cores) against the Atlas server, plain and
//! TLS. The point of the admission policy + degradation ladder is the
//! *plateau*: past 1×, goodput must stay ≈ flat — admitted
//! connections stream untouched and verify byte-identical, surplus
//! SYNs bounce off the connection cap with an RST, p99 TTFB stays
//! bounded, and the DMA bufpool audit stays clean. Overload sheds
//! work; it never leaks buffers or corrupts streams.

use dcn_atlas::AtlasConfig;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_faults::FaultConfig;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{run_scenario, FleetConfig, Scenario, ServerKind};

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let seed = args.seed_or(29);
    // Admission capacity for this sweep: 16 connections/core on the
    // default 4 cores. Small enough that 4× offered load is still a
    // fast full-fidelity (verified) run.
    let conns_per_core = 16;
    let capacity = conns_per_core * AtlasConfig::default().cores;
    let multipliers: &[f64] = match scale {
        Scale::Quick => &[1.0, 4.0],
        _ => &[0.5, 1.0, 2.0, 4.0],
    };
    let duration = match scale {
        Scale::Quick => Nanos::from_millis(600),
        _ => Nanos::from_millis(1000),
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    for &encrypted in &[false, true] {
        let mut goodput_1x = 0.0_f64;
        for &mult in multipliers {
            let n_clients = (capacity as f64 * mult).round() as usize;
            let mut cfg = AtlasConfig {
                encrypted,
                ..AtlasConfig::default()
            };
            cfg.admission.max_conns_per_core = conns_per_core;
            let sc = Scenario {
                server: ServerKind::Atlas(cfg),
                fleet: FleetConfig {
                    n_clients,
                    verify: true,
                    ..FleetConfig::default()
                },
                catalog: Catalog::new(50_000, 300 * 1024, 4, seed),
                warmup: Nanos::from_millis(250),
                duration,
                seed,
                data_loss: 0.0,
                faults: FaultConfig::default(),
            };
            let m = run_scenario(&sc);
            assert_eq!(
                m.leaked_buffers, 0,
                "bufpool leak at {mult}x offered load (encrypted={encrypted})"
            );
            assert_eq!(
                m.verify_failures, 0,
                "admitted connections must verify byte-identical at {mult}x"
            );
            if (mult - 1.0).abs() < f64::EPSILON {
                goodput_1x = m.net_gbps;
            }
            let vs_1x = if mult >= 1.0 && goodput_1x > 0.0 {
                format!("{:.0}%", m.net_gbps / goodput_1x * 100.0)
            } else {
                "-".into()
            };
            if mult >= 4.0 && goodput_1x > 0.0 {
                assert!(
                    m.net_gbps >= 0.9 * goodput_1x,
                    "goodput collapsed under overload: {:.2} Gbps at 4x vs {:.2} at 1x",
                    m.net_gbps,
                    goodput_1x
                );
            }
            rows.push(vec![
                if encrypted { "TLS" } else { "plain" }.into(),
                format!("{mult:.1}x"),
                n_clients.to_string(),
                format!("{:.2}", m.net_gbps),
                vs_1x,
                format!("{:.1}", m.overload.ttfb_p99_ms),
                m.overload.shed_new.to_string(),
                m.overload.retry_503.to_string(),
                m.overload.reaped_idle.to_string(),
                m.overload.aborted_slow.to_string(),
                m.overload.client_resets.to_string(),
                m.verify_failures.to_string(),
                m.leaked_buffers.to_string(),
            ]);
        }
    }
    print_table(
        &format!("Ablation: Atlas goodput vs offered load (capacity = {capacity} conns, verified)"),
        &[
            "stack",
            "load",
            "conns",
            "net_gbps",
            "vs_1x",
            "p99_ttfb_ms",
            "shed_new",
            "503s",
            "reaped",
            "aborted",
            "cl_rst",
            "vfail",
            "leaked",
        ],
        &rows,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
