//! # dcn-bench — figure regenerators and micro-benchmarks
//!
//! One binary per paper figure/table (see DESIGN.md §4 for the index)
//! plus shared drivers. Every binary prints a self-describing table:
//! the series the paper plots, in the paper's units, with a header
//! naming the figure it reproduces.
//!
//! Conventions:
//! * `--quick` shrinks sweeps for smoke runs;
//! * `--paper` runs the full-scale sweep (2 k–16 k connections);
//! * default is a mid-scale sweep that exhibits the paper's shapes in
//!   minutes of wall time.

pub mod cli;
pub mod ledger;
pub mod perf;
pub mod storage;
pub mod sweep;

pub use cli::BenchArgs;

use dcn_simcore::MeanCi;
use dcn_workload::ObsOptions;

/// Render a simple aligned table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Format a mean ± 95% CI pair.
#[must_use]
pub fn fmt_ci(m: &MeanCi, digits: usize) -> String {
    format!("{:.d$} ±{:.d$}", m.mean(), m.ci95(), d = digits)
}

/// Scale selection from argv.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Scale {
    Quick,
    #[default]
    Default,
    Paper,
}

/// If `obs` asks for a `--trace-out` or `--metrics-out`, run one small
/// full-fidelity TLS Atlas scenario with the chunk-lifecycle tracer
/// on, dump the requested artifacts, and print the per-stage latency
/// summary (p50/p99). No-op without the flags, so every figure binary
/// can call this unconditionally at the end of `main`.
pub fn maybe_run_observed_atlas(obs: &ObsOptions) {
    use dcn_atlas::AtlasConfig;
    use dcn_mem::Fidelity;
    use dcn_workload::{run_scenario_observed, Scenario, ServerKind};

    if !obs.active() {
        return;
    }
    let server = ServerKind::Atlas(AtlasConfig {
        encrypted: true,
        fidelity: Fidelity::Full,
        ..AtlasConfig::default()
    });
    let sc = Scenario::smoke(server, 48, 42);
    let (m, report) = run_scenario_observed(&sc, obs);
    println!("\n=== Observability: traced Atlas run (full fidelity, TLS) ===");
    println!(
        "responses={} net={:.2} Gbps cpu={:.0}%",
        m.responses, m.net_gbps, m.cpu_pct
    );
    if let Some(p) = &obs.trace_out {
        println!(
            "chunk trace: {} chunks -> {}",
            report.traced_chunks,
            p.display()
        );
        print!("{}", report.stage_summary);
    }
    if let Some(p) = &obs.metrics_out {
        println!("metrics CSV -> {}", p.display());
    }
}

impl Scale {
    /// Connection-count sweep for the macro figures.
    #[must_use]
    pub fn conns(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![2000],
            Scale::Default => vec![250, 500, 1000, 2000, 4000],
            Scale::Paper => vec![2000, 4000, 6000, 8000, 10_000, 12_000, 14_000, 16_000],
        }
    }

    /// Seeds per point (error bars).
    #[must_use]
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Default => 2,
            Scale::Paper => 3,
        }
    }

    /// Measured duration per run.
    #[must_use]
    pub fn duration(self) -> dcn_simcore::Nanos {
        match self {
            Scale::Quick => dcn_simcore::Nanos::from_millis(700),
            Scale::Default => dcn_simcore::Nanos::from_millis(1200),
            Scale::Paper => dcn_simcore::Nanos::from_millis(1500),
        }
    }
}
