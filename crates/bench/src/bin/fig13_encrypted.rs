//! Fig 13 — Encrypted performance, Netflix (0%/100% BC) vs Atlas:
//! the six panels of Fig 11 with AES-128-GCM on every body byte.
//!
//! Paper shapes: Atlas ≈ 72 Gb/s on four cores vs Netflix-0%BC ≈ 47
//! on eight saturated cores (~1.5×); Netflix memory-read:network ≈
//! 2.6 in both BC modes (out-of-place kTLS + NT stores), Atlas ≈ 1.5.

use dcn_bench::sweep::{print_metric, sweep, Variant};
use dcn_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let variants = [
        Variant::netflix(true, false),
        Variant::netflix(true, true),
        Variant::atlas(true),
    ];
    let curves = sweep(&variants, &args);
    print_metric(
        "Fig 13a: network throughput (Gb/s)",
        &curves,
        |a| &a.net_gbps,
        1,
    );
    print_metric("Fig 13b: CPU utilization (%)", &curves, |a| &a.cpu_pct, 0);
    print_metric(
        "Fig 13c: memory READ (Gb/s)",
        &curves,
        |a| &a.mem_read_gbps,
        1,
    );
    print_metric(
        "Fig 13d: memory WRITE (Gb/s)",
        &curves,
        |a| &a.mem_write_gbps,
        1,
    );
    print_metric(
        "Fig 13e: mem-read / net ratio",
        &curves,
        |a| &a.read_net_ratio,
        2,
    );
    print_metric(
        "Fig 13f: CPU DRAM reads (x1e8/s)",
        &curves,
        |a| &a.llc_miss_e8,
        2,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
