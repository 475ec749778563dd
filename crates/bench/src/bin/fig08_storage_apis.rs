//! Fig 8 — Read throughput: diskmap vs aio(4) vs pread(2), one
//! driving thread over four NVMe drives, I/O sizes 512 B–128 KiB.
//!
//! Paper shape: diskmap dominates at small sizes (polling, no
//! interrupts, sub-µs per-request CPU); aio converges to diskmap only
//! at ≥64 KiB; pread stays latency-bound and far below both. The
//! diskmap sweet spot is ~16 KiB where it already reaches the disks'
//! aggregate limit.

use dcn_bench::storage::{run_aio, run_diskmap, run_pread};
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_simcore::Nanos;

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let sizes: &[u64] = match scale {
        Scale::Quick => &[512, 4096, 16_384, 131_072],
        _ => &[512, 1024, 2048, 4096, 8192, 16_384, 32_768, 65_536, 131_072],
    };
    let horizon = Nanos::from_millis(if scale == Scale::Quick { 80 } else { 250 });
    let window = 128; // per disk
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&s| {
            let d = run_diskmap(4, s, window, horizon, 42);
            let a = run_aio(4, s, window, horizon, 42);
            let p = run_pread(4, s, horizon, 42);
            vec![
                format!("{}", s / 1024).replace("0", if s < 1024 { "0.5" } else { "0" }),
                format!("{:.2}", d.throughput_gbps),
                format!("{:.2}", a.throughput_gbps),
                format!("{:.2}", p.throughput_gbps),
            ]
        })
        .collect();
    print_table(
        "Fig 8: read throughput by storage API (4 drives, 1 thread)",
        &["KiB", "diskmap", "aio(4)", "pread(2)"],
        &rows,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
