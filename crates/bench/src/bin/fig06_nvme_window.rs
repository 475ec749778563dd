//! Fig 6 — NVMe controller latency and throughput vs I/O window
//! (16 KiB reads, one P3700-class drive, driven through diskmap).
//!
//! Paper shape: throughput saturates near the device limit by a
//! window of ~128 while request latency stays under 1 ms; past
//! saturation, latency grows linearly with the window (Little's law).

use dcn_bench::storage::run_diskmap;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_simcore::Nanos;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let windows: &[usize] = match scale {
        Scale::Quick => &[1, 8, 64, 256],
        _ => &[1, 2, 4, 8, 16, 32, 64, 96, 128, 192, 256, 384, 512, 600],
    };
    let horizon = Nanos::from_millis(if scale == Scale::Quick { 120 } else { 400 });
    let rows: Vec<Vec<String>> = windows
        .iter()
        .map(|&w| {
            let r = run_diskmap(1, 16 * 1024, w, horizon, 42);
            vec![
                w.to_string(),
                format!("{:.3}", r.mean_latency_us / 1000.0),
                format!("{:.1}", r.throughput_gbps),
                r.ios.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig 6: NVMe latency & throughput vs I/O window (16 KiB reads, 1 drive)",
        &["window", "latency_ms", "gbps", "ios"],
        &rows,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
