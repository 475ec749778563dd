//! Macro-figure sweep driver: run (variant × connection-count ×
//! seed) scenarios and aggregate the paper's series.

use crate::BenchArgs;
use dcn_atlas::AtlasConfig;
use dcn_kstack::KstackConfig;
use dcn_mem::Fidelity;
use dcn_simcore::{MeanCi, Nanos};
use dcn_store::Catalog;
use dcn_workload::{run_scenario, FleetConfig, RunMetrics, Scenario, ServerKind};

/// One curve of a macro figure.
#[derive(Clone, Debug)]
pub struct Curve {
    pub label: String,
    /// x = #connections → aggregated metrics.
    pub points: Vec<(usize, Agg)>,
}

/// Aggregates over seeds at one x.
#[derive(Clone, Debug, Default)]
pub struct Agg {
    pub net_gbps: MeanCi,
    pub cpu_pct: MeanCi,
    pub mem_read_gbps: MeanCi,
    pub mem_write_gbps: MeanCi,
    pub read_net_ratio: MeanCi,
    pub llc_miss_e8: MeanCi,
}

impl Agg {
    fn add(&mut self, m: &RunMetrics) {
        self.net_gbps.add(m.net_gbps);
        self.cpu_pct.add(m.cpu_pct);
        self.mem_read_gbps.add(m.mem_read_gbps);
        self.mem_write_gbps.add(m.mem_write_gbps);
        self.read_net_ratio.add(m.read_net_ratio);
        self.llc_miss_e8.add(m.llc_miss_e8);
    }
}

/// A server variant to sweep.
#[derive(Clone, Debug)]
pub struct Variant {
    pub label: String,
    pub server: ServerKind,
    /// 100% buffer cache workload (hot set)?
    pub cacheable: bool,
}

impl Variant {
    #[must_use]
    pub fn atlas(encrypted: bool) -> Variant {
        Variant {
            label: "Atlas".into(),
            server: ServerKind::Atlas(AtlasConfig {
                encrypted,
                fidelity: Fidelity::Modeled,
                ..AtlasConfig::default()
            }),
            cacheable: false,
        }
    }

    #[must_use]
    pub fn netflix(encrypted: bool, cacheable: bool) -> Variant {
        Variant {
            label: format!("Netflix {}%BC", if cacheable { 100 } else { 0 }),
            server: ServerKind::Kstack(KstackConfig {
                encrypted,
                fidelity: Fidelity::Modeled,
                ..KstackConfig::netflix()
            }),
            cacheable,
        }
    }

    #[must_use]
    pub fn stock(encrypted: bool, cacheable: bool) -> Variant {
        Variant {
            label: format!("Stock {}%BC", if cacheable { 100 } else { 0 }),
            server: ServerKind::Kstack(KstackConfig {
                encrypted,
                fidelity: Fidelity::Modeled,
                ..KstackConfig::stock()
            }),
            cacheable,
        }
    }
}

/// Run the sweep. Honors the shared `--catalog <n>` / `--zipf <θ>`
/// flags: `--catalog` resizes the catalog away from the paper's 2M
/// chunks, `--zipf` switches every variant's fleet to rank-permuted
/// Zipf popularity (tiered-catalog workload shaping).
pub fn sweep(variants: &[Variant], args: &BenchArgs) -> Vec<Curve> {
    let scale = args.scale;
    let conns = scale.conns();
    let seeds = scale.seeds();
    let duration = scale.duration();
    let warmup = Nanos::from_millis(400).min(duration.mul_f64(0.4));
    variants
        .iter()
        .map(|v| {
            let points = conns
                .iter()
                .map(|&n| {
                    let mut agg = Agg::default();
                    for seed in 0..seeds {
                        let sc = Scenario {
                            server: v.server.clone(),
                            fleet: FleetConfig {
                                n_clients: n,
                                cacheable: v.cacheable,
                                // Hot set: fits the buffer cache
                                // easily (100% BC) but is far larger
                                // than the LLC, as in the paper.
                                hot_files: 4000,
                                verify: false, // modeled fidelity
                                zipf: args.zipf,
                                ..FleetConfig::default()
                            },
                            catalog: args.catalog.map_or_else(
                                || Catalog::paper(1000 + seed),
                                |nf| Catalog::new(nf, 300 * 1024, 4, 1000 + seed),
                            ),
                            warmup,
                            duration,
                            seed: 1000 + seed,
                            data_loss: 0.0,
                            faults: Default::default(),
                        };
                        let m = run_scenario(&sc);
                        agg.add(&m);
                        eprintln!(
                            "  [{} n={n} seed={seed}] net={:.1}Gbps cpu={:.0}% memR={:.1} memW={:.1} ratio={:.2} miss={:.2}e8",
                            v.label, m.net_gbps, m.cpu_pct, m.mem_read_gbps, m.mem_write_gbps,
                            m.read_net_ratio, m.llc_miss_e8
                        );
                    }
                    (n, agg)
                })
                .collect();
            Curve { label: v.label.clone(), points }
        })
        .collect()
}

/// Print one metric of all curves as a table (rows = x).
pub fn print_metric(
    title: &str,
    curves: &[Curve],
    metric: impl Fn(&Agg) -> &MeanCi,
    digits: usize,
) {
    let mut headers = vec!["conns".to_string()];
    headers.extend(curves.iter().map(|c| c.label.clone()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let xs: Vec<usize> = curves[0].points.iter().map(|(x, _)| *x).collect();
    let rows: Vec<Vec<String>> = xs
        .iter()
        .enumerate()
        .map(|(i, x)| {
            let mut row = vec![x.to_string()];
            for c in curves {
                row.push(crate::fmt_ci(metric(&c.points[i].1), digits));
            }
            row
        })
        .collect();
    crate::print_table(title, &header_refs, &rows);
}
