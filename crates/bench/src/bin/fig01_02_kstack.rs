//! Figs 1 & 2 — Netflix vs stock FreeBSD (§2.2): plaintext (Fig 1)
//! and encrypted (Fig 2) throughput + CPU for 0%/100% buffer-cache
//! workloads.
//!
//! Paper shapes (plaintext): Netflix-0%BC ≈ 1.8× stock-0%BC (72 vs
//! 39 Gb/s); the two stacks tie at 100%BC. Encrypted: the stock
//! stack collapses (userspace TLS copies); Netflix drops ~35% at
//! 0%BC with all cores saturated.

use dcn_bench::sweep::{print_metric, sweep, Variant};
use dcn_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse();
    for (fig, enc) in [("Fig 1 (plaintext)", false), ("Fig 2 (encrypted)", true)] {
        let variants = [
            Variant::netflix(enc, true),
            Variant::netflix(enc, false),
            Variant::stock(enc, true),
            Variant::stock(enc, false),
        ];
        let curves = sweep(&variants, &args);
        print_metric(
            &format!("{fig}: network throughput (Gb/s)"),
            &curves,
            |a| &a.net_gbps,
            1,
        );
        print_metric(
            &format!("{fig}: CPU utilization (%)"),
            &curves,
            |a| &a.cpu_pct,
            0,
        );
    }
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
