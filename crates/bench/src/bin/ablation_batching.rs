//! §3.1.4 ablation — to batch or not to batch.
//!
//! The paper finds NVMe devices saturate without request batching
//! (unlike NICs), but batching still saves CPU by amortizing the
//! doorbell syscall. This ablation measures diskmap throughput and
//! driver CPU per I/O as the submission batch size varies.

use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_diskmap::{DiskId, DiskmapKernel, IoDesc, NvmeQueue};
use dcn_mem::{CostParams, HostMem, LlcConfig, MemSystem, PhysAlloc};
use dcn_nvme::{Fidelity, NvmeConfig, NvmeDevice, SyntheticBacking};
use dcn_simcore::{Nanos, SimRng};

fn main() {
    let args = BenchArgs::parse();
    let scale = args.scale;
    let horizon = Nanos::from_millis(if scale == Scale::Quick { 60 } else { 250 });
    let mut rows = Vec::new();
    for &batch in &[1usize, 4, 16, 64] {
        let costs = CostParams::default();
        let cfg = NvmeConfig {
            fidelity: Fidelity::Modeled,
            ..NvmeConfig::default()
        };
        let mut kernel = DiskmapKernel::new(vec![NvmeDevice::new(
            cfg,
            Box::new(SyntheticBacking::new(7)),
            1,
        )]);
        let mut mem = MemSystem::new(LlcConfig::xeon_e5_2667v3(), costs, Nanos::from_millis(1));
        let mut host = HostMem::new();
        let mut pa = PhysAlloc::new();
        let mut q =
            NvmeQueue::nvme_open(&mut kernel, DiskId(0), 0, 256, 16 * 1024, &mut pa).unwrap();
        let mut rng = SimRng::new(3);
        let window = 128usize;
        let mut now = Nanos::ZERO;
        let mut staged = 0usize;
        let (mut ios, mut cpu_ns) = (0u64, 0u64);
        // Prime.
        for _ in 0..window {
            let buf = q.pool().alloc().unwrap();
            q.nvme_read(
                IoDesc {
                    user: 0,
                    buf,
                    nsid: 1,
                    offset: rng.gen_range(0, 1 << 20) * 16384,
                    len: 16384,
                },
                &costs,
            );
        }
        cpu_ns += costs.cycles_to_ns(q.nvme_sqsync(&mut kernel, now, &costs).unwrap());
        while now < horizon {
            let Some(t) = kernel.poll_at() else { break };
            now = t;
            kernel.advance(now, &mut mem, &mut host);
            let (done, cyc) = q
                .nvme_consume_completions(&mut kernel, now, usize::MAX >> 1, &costs)
                .unwrap();
            cpu_ns += costs.cycles_to_ns(cyc);
            for io in done {
                ios += 1;
                q.pool().free(io.buf);
                let buf = q.pool().alloc().unwrap();
                q.nvme_read(
                    IoDesc {
                        user: 0,
                        buf,
                        nsid: 1,
                        offset: rng.gen_range(0, 1 << 20) * 16384,
                        len: 16384,
                    },
                    &costs,
                );
                staged += 1;
                if staged >= batch {
                    cpu_ns += costs.cycles_to_ns(q.nvme_sqsync(&mut kernel, now, &costs).unwrap());
                    staged = 0;
                }
            }
        }
        let gbps = ios as f64 * 16384.0 * 8.0 / now.as_secs_f64() / 1e9;
        rows.push(vec![
            batch.to_string(),
            format!("{:.1}", gbps),
            format!("{:.0}", cpu_ns as f64 / ios.max(1) as f64),
            kernel.syscalls.to_string(),
        ]);
    }
    print_table(
        "Ablation §3.1.4: submission batching (16 KiB reads, window 128, 1 drive)",
        &["batch", "gbps", "cpu_ns/io", "syscalls"],
        &rows,
    );
    dcn_bench::maybe_run_observed_atlas(&args.obs);
}
