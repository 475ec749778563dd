//! Fig 9 — I/O latency CDF: diskmap vs aio(4), 512-byte reads, I/O
//! window of 128 requests on one drive.
//!
//! Paper shape: the diskmap CDF sits strictly left of aio's — same
//! hardware, but aio completions are delayed by interrupt delivery +
//! kqueue and its higher per-request CPU cost inflates queueing.

use dcn_bench::storage::{run_aio, run_diskmap};
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_simcore::Nanos;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let horizon = Nanos::from_millis(if scale == Scale::Quick { 80 } else { 300 });
    let d = run_diskmap(1, 512, 128, horizon, 42);
    let a = run_aio(1, 512, 128, horizon, 42);
    let qs = [0.10, 0.25, 0.50, 0.75, 0.90, 0.99];
    let rows: Vec<Vec<String>> = qs
        .iter()
        .map(|&q| {
            vec![
                format!("p{:02.0}", q * 100.0),
                format!("{:.1}", d.latency.quantile(q)),
                format!("{:.1}", a.latency.quantile(q)),
            ]
        })
        .collect();
    print_table(
        "Fig 9: 512 B read latency quantiles (µs), window 128, 1 drive",
        &["quantile", "diskmap", "aio(4)"],
        &rows,
    );
    println!("\nCDF points (µs, fraction):");
    for (name, r) in [("diskmap", &d), ("aio", &a)] {
        let pts = r.latency.cdf();
        let sampled: Vec<String> = pts
            .iter()
            .step_by((pts.len() / 12).max(1))
            .map(|(v, f)| format!("({v:.0},{f:.2})"))
            .collect();
        println!("  {name}: {}", sampled.join(" "));
    }
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
