//! Fig 3 — Netflix memory read/write throughput while serving
//! encrypted traffic, 0% vs 100% buffer cache.
//!
//! Paper shape: memory read ≈ 2.6× network throughput in both modes
//! (175 Gb/s when serving ~68 Gb/s from cache).

use dcn_bench::sweep::{print_metric, sweep, Variant};
use dcn_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let variants = [Variant::netflix(true, false), Variant::netflix(true, true)];
    let curves = sweep(&variants, &args);
    print_metric(
        "Fig 3: memory READ (Gb/s)",
        &curves,
        |a| &a.mem_read_gbps,
        1,
    );
    print_metric(
        "Fig 3: memory WRITE (Gb/s)",
        &curves,
        |a| &a.mem_write_gbps,
        1,
    );
    print_metric(
        "Fig 3 (context): network throughput (Gb/s)",
        &curves,
        |a| &a.net_gbps,
        1,
    );
    print_metric(
        "Fig 3 (derived): read/net ratio",
        &curves,
        |a| &a.read_net_ratio,
        2,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
