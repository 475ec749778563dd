//! Fig 11 — Plaintext performance, Netflix (0%/100% BC) vs Atlas:
//! (a) network throughput, (b) CPU, (c) memory READ, (d) memory
//! WRITE, (e) read:network ratio, (f) CPU reads served from DRAM.
//!
//! Paper shapes: Atlas ≈ Netflix-100%BC ≈ NIC limit; Netflix-0%BC a
//! bit lower with ~2× the CPU of 100%BC; Atlas memory-read:network
//! ratio ≈ 1.0 (≤0.7 at low connection counts) vs ≈1.5 for Netflix;
//! Atlas CPU-LLC-miss reads ≈ 0.

use dcn_bench::sweep::{print_metric, sweep, Variant};
use dcn_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    let variants = [
        Variant::netflix(false, false),
        Variant::netflix(false, true),
        Variant::atlas(false),
    ];
    let curves = sweep(&variants, &args);
    print_metric(
        "Fig 11a: network throughput (Gb/s)",
        &curves,
        |a| &a.net_gbps,
        1,
    );
    print_metric("Fig 11b: CPU utilization (%)", &curves, |a| &a.cpu_pct, 0);
    print_metric(
        "Fig 11c: memory READ (Gb/s)",
        &curves,
        |a| &a.mem_read_gbps,
        1,
    );
    print_metric(
        "Fig 11d: memory WRITE (Gb/s)",
        &curves,
        |a| &a.mem_write_gbps,
        1,
    );
    print_metric(
        "Fig 11e: mem-read / net ratio",
        &curves,
        |a| &a.read_net_ratio,
        2,
    );
    print_metric(
        "Fig 11f: CPU DRAM reads (x1e8/s)",
        &curves,
        |a| &a.llc_miss_e8,
        2,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
