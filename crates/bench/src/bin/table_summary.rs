//! Headline summary — the §1/§2.2 numbers in one table.
//!
//! Paper claims reproduced here (shape, not absolute Gb/s):
//! * plaintext 0%BC: Netflix ≈ 1.8× stock (72 vs 39 Gb/s);
//! * encrypted 0%BC: Atlas ≈ 1.5× Netflix, on half the cores;
//! * Atlas throughput insensitive to the buffer-cache ratio (it has
//!   no buffer cache);
//! * stock + userspace TLS collapses (the 40 → 8.5 Gb/s anecdote).

use dcn_bench::sweep::{sweep, Variant};
use dcn_bench::{print_table, BenchArgs};

fn main() {
    let args = BenchArgs::parse();
    let variants = [
        Variant::stock(false, false),
        Variant::netflix(false, false),
        Variant::atlas(false),
        Variant::stock(true, false),
        Variant::netflix(true, false),
        Variant::atlas(true),
    ];
    let labels = [
        "Stock plaintext 0%BC",
        "Netflix plaintext 0%BC",
        "Atlas plaintext",
        "Stock TLS 0%BC",
        "Netflix TLS 0%BC",
        "Atlas TLS",
    ];
    let curves = sweep(&variants, &args);
    let last = curves[0].points.len() - 1;
    let rows: Vec<Vec<String>> = curves
        .iter()
        .zip(labels)
        .map(|(c, label)| {
            let (n, a) = &c.points[last];
            vec![
                label.to_string(),
                n.to_string(),
                format!("{:.1}", a.net_gbps.mean()),
                format!("{:.0}", a.cpu_pct.mean()),
                format!("{:.1}", a.mem_read_gbps.mean()),
                format!("{:.2}", a.read_net_ratio.mean()),
            ]
        })
        .collect();
    print_table(
        "Summary: throughput / CPU / memory at the highest swept load",
        &[
            "configuration",
            "conns",
            "net Gb/s",
            "CPU %",
            "memR Gb/s",
            "R:net",
        ],
        &rows,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
