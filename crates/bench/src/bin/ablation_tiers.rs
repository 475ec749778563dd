//! Ablation — tiered catalog: Zipf skew × cold-store latency ×
//! {no-cache, cache} × {fixed, autotuned} I/O window, on Atlas.
//!
//! The paper stores the whole catalog on local NVMe and dismisses a
//! DRAM buffer cache (<10% hit ratio on their traces, §2). The tier
//! engine moves the catalog's cold tail to a simulated object store
//! and keeps only the popular head on NVMe, so two of the paper's
//! assumptions become measurable knobs:
//!
//! * **cache** — the hot-chunk DMA cache on top of the hot tier. The
//!   honest comparison is DRAM-bytes-per-net-byte: every cache fill
//!   and hit readback is charged to the memory system, so if the hit
//!   ratio is low the cache shows up as pure DRAM overhead, which is
//!   exactly the paper's argument.
//! * **skew / latency** — how much popularity concentration the tier
//!   split needs before the cold store's WAN-class latency stops
//!   mattering, and what the residual misses cost (micro-cents).
//!
//! Emits `BENCH_tiers.json` (deterministic, byte-identical across
//! runs; the same ledger writer as `perf_baseline`).
//!
//! Usage:
//!   ablation_tiers                          # table + JSON to stdout
//!   ablation_tiers --out <path>             # write the JSON to <path>
//!   ablation_tiers --out BENCH_tiers.json   # refresh the ledger
//!   ablation_tiers --zipf <θ>               # restrict the skew axis to one θ
//!   ablation_tiers --catalog <n>            # catalog size (default 1M objects)

use dcn_atlas::AtlasConfig;
use dcn_bench::ledger::{self, fmt_f64, LedgerCell};
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_mem::Fidelity;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_tier::{ColdStoreConfig, TierConfig};
use dcn_workload::{run_scenario, FleetConfig, Scenario, ServerKind, TierMetrics};
use std::fmt::Write as _;

/// Bump on any key change.
const TIERS_SCHEMA_VERSION: u64 = 1;

struct Cell {
    name: String,
    zipf: f64,
    cold_latency_ms: u64,
    cache: bool,
    autotuned: bool,
    net_gbps: f64,
    responses: u64,
    dram_per_net_byte: f64,
    tier: TierMetrics,
}

impl LedgerCell for Cell {
    fn to_json(&self, out: &mut String, indent: &str) {
        let i2 = format!("{indent}  ");
        let t = &self.tier;
        let _ = writeln!(out, "{indent}{{");
        let _ = writeln!(out, "{i2}\"name\": \"{}\",", self.name);
        let _ = writeln!(out, "{i2}\"zipf\": {},", fmt_f64(self.zipf));
        let _ = writeln!(out, "{i2}\"cold_latency_ms\": {},", self.cold_latency_ms);
        let _ = writeln!(out, "{i2}\"cache\": {},", self.cache);
        let _ = writeln!(out, "{i2}\"autotuned\": {},", self.autotuned);
        let _ = writeln!(out, "{i2}\"net_gbps\": {},", fmt_f64(self.net_gbps));
        let _ = writeln!(out, "{i2}\"responses\": {},", self.responses);
        let _ = writeln!(
            out,
            "{i2}\"dram_bytes_per_net_byte\": {},",
            fmt_f64(self.dram_per_net_byte)
        );
        let _ = writeln!(out, "{i2}\"hit_ratio\": {},", fmt_f64(t.hit_ratio));
        let _ = writeln!(out, "{i2}\"hot_hits\": {},", t.hot_hits);
        let _ = writeln!(out, "{i2}\"cold_misses\": {},", t.cold_misses);
        let _ = writeln!(out, "{i2}\"hot_count\": {},", t.hot_count);
        let _ = writeln!(out, "{i2}\"cold_bytes\": {},", t.cold_bytes);
        let _ = writeln!(out, "{i2}\"cold_requests\": {},", t.cold_requests);
        let _ = writeln!(out, "{i2}\"cold_cost_ucents\": {},", t.cold_cost_ucents);
        let _ = writeln!(out, "{i2}\"promotions\": {},", t.promotions);
        let _ = writeln!(out, "{i2}\"demotions\": {},", t.demotions);
        let _ = writeln!(out, "{i2}\"promote_deferred\": {},", t.promote_deferred);
        let _ = writeln!(out, "{i2}\"promoted_bytes\": {},", t.promoted_bytes);
        let _ = writeln!(out, "{i2}\"epochs\": {},", t.epochs);
        let _ = writeln!(out, "{i2}\"cache_hits\": {},", t.cache_hits);
        let _ = writeln!(out, "{i2}\"cache_misses\": {},", t.cache_misses);
        let _ = writeln!(
            out,
            "{i2}\"cache_hit_ratio\": {},",
            fmt_f64(t.cache_hit_ratio)
        );
        let _ = writeln!(out, "{i2}\"cache_dram_bytes\": {}", t.cache_dram_bytes);
        let _ = write!(out, "{indent}}}");
    }
}

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(41);
    let n_files = args.catalog_or(1_000_000);
    let clients = match args.scale {
        Scale::Quick => 32,
        _ => 64,
    };
    // `--zipf` collapses the skew axis to one θ; the grid is the
    // default.
    let thetas: Vec<f64> = match (args.zipf, args.scale) {
        (Some(t), _) => vec![t],
        (None, Scale::Quick) => vec![0.9],
        (None, _) => vec![0.7, 0.9, 1.1],
    };
    let latencies_ms: &[u64] = match args.scale {
        Scale::Quick => &[20],
        _ => &[5, 20],
    };
    let tuners: &[bool] = match args.scale {
        Scale::Quick => &[false],
        _ => &[false, true],
    };
    let duration = args.scale.duration();

    let mut cells = Vec::new();
    for &theta in &thetas {
        for &lat_ms in latencies_ms {
            for &cache in &[false, true] {
                for &tuned in tuners {
                    let tier = TierConfig {
                        cold: ColdStoreConfig {
                            base_latency: Nanos::from_millis(lat_ms),
                        },
                        ..TierConfig::default()
                    };
                    let cfg = AtlasConfig {
                        fidelity: Fidelity::Modeled,
                        tier: Some(tier),
                        tier_cache: cache,
                        autotune: tuned,
                        ..AtlasConfig::default()
                    };
                    let sc = Scenario {
                        server: ServerKind::Atlas(cfg),
                        fleet: FleetConfig {
                            n_clients: clients,
                            verify: false, // modeled fidelity
                            zipf: Some(theta),
                            ..FleetConfig::default()
                        },
                        catalog: Catalog::new(n_files, 300 * 1024, 4, seed),
                        warmup: Nanos::from_millis(250),
                        duration,
                        seed,
                        data_loss: 0.0,
                        faults: Default::default(),
                    };
                    let m = run_scenario(&sc);
                    let t = m
                        .tier
                        .expect("tier engine configured, tier metrics present");
                    let name = format!(
                        "z{theta:.1}_cold{lat_ms}ms_{}_{}",
                        if cache { "cache" } else { "nocache" },
                        if tuned { "tuned" } else { "fixed" }
                    );
                    eprintln!(
                        "  [{name}] net={:.2}Gbps hit={:.3} cold={}req cache_hit={:.3}",
                        m.net_gbps, t.hit_ratio, t.cold_requests, t.cache_hit_ratio
                    );
                    cells.push(Cell {
                        name,
                        zipf: theta,
                        cold_latency_ms: lat_ms,
                        cache,
                        autotuned: tuned,
                        net_gbps: m.net_gbps,
                        responses: m.responses,
                        dram_per_net_byte: if m.net_gbps > 0.0 {
                            ((m.mem_read_gbps + m.mem_write_gbps) / m.net_gbps).max(0.0)
                        } else {
                            0.0
                        },
                        tier: t,
                    });
                }
            }
        }
    }

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.2}", c.net_gbps),
                format!("{:.3}", c.tier.hit_ratio),
                c.tier.cold_requests.to_string(),
                format!("{:.1}", c.tier.cold_cost_ucents as f64 / 1e4),
                format!("{}/{}", c.tier.promotions, c.tier.demotions),
                format!("{:.3}", c.tier.cache_hit_ratio),
                format!("{:.3}", c.dram_per_net_byte),
            ]
        })
        .collect();
    print_table(
        &format!("Ablation: tiered catalog, {n_files} objects, {clients} conns (seed {seed})"),
        &[
            "cell",
            "net_gbps",
            "hot_hit",
            "cold_req",
            "cost_c¢",
            "promo/demo",
            "cache_hit",
            "dram/net",
        ],
        &rows,
    );
    println!(
        "\nReading: hot-tier hit ratio should clear 0.9 at θ≥0.9 (the seeded\n\
         hot set covers the Zipf head), cold-store cost scales with the\n\
         residual misses, and the cache cells pay for their hit ratio in\n\
         dram/net — if cache_hit is low, dram/net rises with no net win,\n\
         which is the paper's §2 argument against a buffer cache."
    );

    let doc = ledger::document(
        TIERS_SCHEMA_VERSION,
        "ablation_tiers",
        &[
            ("seed", seed),
            ("clients", clients as u64),
            ("catalog_objects", n_files),
            ("duration_ms", duration.as_nanos() / 1_000_000),
        ],
        &cells,
    );
    ledger::emit(&doc, args.out.as_deref(), "tiers");
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
