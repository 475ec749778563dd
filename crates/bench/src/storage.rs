//! Storage-figure drivers (Figs 6, 8, 9): closed-loop load
//! generators over diskmap, aio(4) and pread(2).

use dcn_diskmap::baseline::{aio_visibility_delay, AioContext, PreadFile};
use dcn_diskmap::{DiskId, DiskmapKernel, IoDesc, NvmeQueue};
use dcn_mem::{CostParams, HostMem, LlcConfig, MemSystem, PhysAlloc};
use dcn_nvme::{Fidelity, NvmeConfig, NvmeDevice, SyntheticBacking, LBA_SIZE};
use dcn_simcore::{Histogram, Nanos, SimRng};

/// Shared run output.
#[derive(Clone, Debug)]
pub struct StorageRun {
    pub throughput_gbps: f64,
    pub mean_latency_us: f64,
    pub latency: Histogram,
    pub ios: u64,
    /// CPU busy fraction of one core (the driver thread).
    pub cpu_frac: f64,
}

fn make_kernel(n_disks: usize, seed: u64) -> (DiskmapKernel, MemSystem, HostMem, PhysAlloc) {
    let cfg = NvmeConfig {
        fidelity: Fidelity::Modeled,
        ..NvmeConfig::default()
    };
    let disks = (0..n_disks)
        .map(|d| {
            NvmeDevice::new(
                cfg,
                Box::new(SyntheticBacking::new(7 + d as u64)),
                seed ^ (d as u64) << 8,
            )
        })
        .collect();
    (
        DiskmapKernel::new(disks),
        MemSystem::new(
            LlcConfig::xeon_e5_2667v3(),
            CostParams::default(),
            Nanos::from_millis(1),
        ),
        HostMem::new(),
        PhysAlloc::new(),
    )
}

/// Closed-loop diskmap reads: keep `window` requests outstanding per
/// disk, random offsets, for `horizon` simulated time.
pub fn run_diskmap(
    n_disks: usize,
    io_size: u64,
    window_per_disk: usize,
    horizon: Nanos,
    seed: u64,
) -> StorageRun {
    let (mut kernel, mut mem, mut host, mut pa) = make_kernel(n_disks, seed);
    let costs = CostParams::default();
    let mut rng = SimRng::new(seed);
    let buf_size = io_size.max(LBA_SIZE);
    let mut queues: Vec<NvmeQueue> = (0..n_disks)
        .map(|d| {
            NvmeQueue::nvme_open(
                &mut kernel,
                DiskId(d),
                0,
                (window_per_disk + 4) as u32,
                buf_size,
                &mut pa,
            )
            .expect("attach")
        })
        .collect();
    let span_lbas = 1_000_000u64;
    let mut now = Nanos::ZERO;
    let mut latency = Histogram::new(0.0, 5_000.0, 2_000); // µs
    let mut done_bytes = 0u64;
    let mut ios = 0u64;
    let mut cpu_busy_ns = 0u64;
    // Prime the windows.
    for q in queues.iter_mut() {
        for _ in 0..window_per_disk {
            let buf = q.pool().alloc().expect("sized for window");
            let lba = rng.gen_range(0, span_lbas) * (io_size.div_ceil(LBA_SIZE));
            q.nvme_read(
                IoDesc {
                    user: buf.0 as u64,
                    buf,
                    nsid: 1,
                    offset: lba * LBA_SIZE,
                    len: io_size,
                },
                &costs,
            );
        }
        let cyc = q.nvme_sqsync(&mut kernel, now, &costs).expect("sqsync");
        cpu_busy_ns += costs.cycles_to_ns(cyc);
    }
    while now < horizon {
        let Some(t) = kernel.poll_at() else { break };
        now = t;
        kernel.advance(now, &mut mem, &mut host);
        for q in queues.iter_mut() {
            let (done, cyc) = q
                .nvme_consume_completions(&mut kernel, now, usize::MAX >> 1, &costs)
                .expect("consume");
            cpu_busy_ns += costs.cycles_to_ns(cyc);
            for io in done {
                latency.add((io.completed_at - io.submitted_at).as_micros_f64());
                done_bytes += io.len;
                ios += 1;
                // Refill: LIFO buffer reuse, next random read.
                q.pool().free(io.buf);
                let buf = q.pool().alloc().expect("just freed");
                let lba = rng.gen_range(0, span_lbas) * (io_size.div_ceil(LBA_SIZE));
                q.nvme_read(
                    IoDesc {
                        user: buf.0 as u64,
                        buf,
                        nsid: 1,
                        offset: lba * LBA_SIZE,
                        len: io_size,
                    },
                    &costs,
                );
            }
            if q.staged_count() > 0 {
                let cyc = q.nvme_sqsync(&mut kernel, now, &costs).expect("sqsync");
                cpu_busy_ns += costs.cycles_to_ns(cyc);
            }
        }
    }
    finish(done_bytes, ios, latency, now, cpu_busy_ns)
}

/// Where the online autotuner settled after a closed-loop run.
#[derive(Clone, Copy, Debug)]
pub struct AutotunedPoint {
    /// Converged per-disk in-flight read cap.
    pub inflight_cap: u32,
    /// Converged fetch watermark (bytes).
    pub watermark: u64,
    /// Final completion-latency EWMA (ns).
    pub ewma_latency_ns: u64,
    /// Adjustment steps the controller took.
    pub adjustments: u64,
}

/// Closed-loop diskmap reads where the outstanding window follows the
/// online [`IoTuner`](dcn_srvcore::IoTuner) instead of a fixed
/// `window_per_disk`: every completion feeds the controller, and the
/// refill loop tops the queue up to whatever cap it currently
/// recommends. This is the microbench the autotuner-vs-manual-sweep
/// comparison in `examples/tune_io_window.rs` runs.
pub fn run_diskmap_autotuned(
    n_disks: usize,
    io_size: u64,
    horizon: Nanos,
    seed: u64,
) -> (StorageRun, AutotunedPoint) {
    let (mut kernel, mut mem, mut host, mut pa) = make_kernel(n_disks, seed);
    let costs = CostParams::default();
    let mut rng = SimRng::new(seed);
    let buf_size = io_size.max(LBA_SIZE);
    let depth = (dcn_srvcore::autotune::MAX_INFLIGHT + 4) as usize;
    let mut queues: Vec<NvmeQueue> = (0..n_disks)
        .map(|d| {
            NvmeQueue::nvme_open(&mut kernel, DiskId(d), 0, depth as u32, buf_size, &mut pa)
                .expect("attach")
        })
        .collect();
    let mut tuners: Vec<dcn_srvcore::IoTuner> = (0..n_disks)
        .map(|d| dcn_srvcore::IoTuner::new(true, 10 * 1448, seed ^ ((d as u64 + 1) << 20)))
        .collect();
    let mut outstanding = vec![0usize; n_disks];
    let span_lbas = 1_000_000u64;
    let stride = io_size.div_ceil(LBA_SIZE);
    let mut now = Nanos::ZERO;
    let mut latency = Histogram::new(0.0, 5_000.0, 2_000); // µs
    let mut done_bytes = 0u64;
    let mut ios = 0u64;
    let mut cpu_busy_ns = 0u64;
    // Prime up to the initial cap.
    for (d, q) in queues.iter_mut().enumerate() {
        while outstanding[d] < (tuners[d].inflight_cap() as usize).min(depth - 2) {
            let buf = q.pool().alloc().expect("sized for cap");
            let lba = rng.gen_range(0, span_lbas) * stride;
            q.nvme_read(
                IoDesc {
                    user: buf.0 as u64,
                    buf,
                    nsid: 1,
                    offset: lba * LBA_SIZE,
                    len: io_size,
                },
                &costs,
            );
            outstanding[d] += 1;
        }
        let cyc = q.nvme_sqsync(&mut kernel, now, &costs).expect("sqsync");
        cpu_busy_ns += costs.cycles_to_ns(cyc);
    }
    while now < horizon {
        let Some(t) = kernel.poll_at() else { break };
        now = t;
        kernel.advance(now, &mut mem, &mut host);
        for (d, q) in queues.iter_mut().enumerate() {
            let (done, cyc) = q
                .nvme_consume_completions(&mut kernel, now, usize::MAX >> 1, &costs)
                .expect("consume");
            cpu_busy_ns += costs.cycles_to_ns(cyc);
            for io in done {
                outstanding[d] -= 1;
                let lat = (io.completed_at - io.submitted_at).as_nanos();
                tuners[d].observe_completion(lat, outstanding[d], depth);
                latency.add((io.completed_at - io.submitted_at).as_micros_f64());
                done_bytes += io.len;
                ios += 1;
                q.pool().free(io.buf);
            }
            // Refill to the controller's current recommendation.
            while outstanding[d] < (tuners[d].inflight_cap() as usize).min(depth - 2) {
                let Some(buf) = q.pool().alloc() else { break };
                let lba = rng.gen_range(0, span_lbas) * stride;
                q.nvme_read(
                    IoDesc {
                        user: buf.0 as u64,
                        buf,
                        nsid: 1,
                        offset: lba * LBA_SIZE,
                        len: io_size,
                    },
                    &costs,
                );
                outstanding[d] += 1;
            }
            if q.staged_count() > 0 {
                let cyc = q.nvme_sqsync(&mut kernel, now, &costs).expect("sqsync");
                cpu_busy_ns += costs.cycles_to_ns(cyc);
            }
        }
    }
    let point = AutotunedPoint {
        inflight_cap: tuners[0].inflight_cap(),
        watermark: tuners[0].watermark(),
        ewma_latency_ns: tuners[0].ewma_latency_ns(),
        adjustments: tuners[0].adjustments(),
    };
    (finish(done_bytes, ios, latency, now, cpu_busy_ns), point)
}

/// Closed-loop aio(4) reads with batched submission and
/// interrupt+kevent completion.
pub fn run_aio(
    n_disks: usize,
    io_size: u64,
    window_per_disk: usize,
    horizon: Nanos,
    seed: u64,
) -> StorageRun {
    let (mut kernel, mut mem, mut host, mut pa) = make_kernel(n_disks, seed);
    let costs = CostParams::default();
    let mut rng = SimRng::new(seed);
    let mut ctxs: Vec<AioContext> = (0..n_disks)
        .map(|d| AioContext::new(DiskId(d), 0))
        .collect();
    // O_DIRECT user buffers.
    let bufs: Vec<Vec<dcn_mem::PhysRegion>> = (0..n_disks)
        .map(|_| {
            (0..window_per_disk)
                .map(|_| pa.alloc(io_size.max(LBA_SIZE)))
                .collect()
        })
        .collect();
    let span_lbas = 1_000_000u64;
    let mut now = Nanos::ZERO;
    let mut latency = Histogram::new(0.0, 5_000.0, 2_000);
    let mut done_bytes = 0u64;
    let mut ios = 0u64;
    let mut cpu_busy_ns = 0u64;
    let stride = io_size.div_ceil(LBA_SIZE);
    for (d, ctx) in ctxs.iter_mut().enumerate() {
        let reads: Vec<_> = (0..window_per_disk)
            .map(|i| {
                let lba = rng.gen_range(0, span_lbas) * stride;
                (i as u64, 1u32, lba * LBA_SIZE, io_size, bufs[d][i])
            })
            .collect();
        let cyc = ctx.submit_reads(&mut kernel, now, &reads, &costs);
        cpu_busy_ns += costs.cycles_to_ns(cyc);
    }
    let vis = aio_visibility_delay(&costs);
    while now < horizon {
        let Some(t) = kernel.poll_at() else { break };
        now = t;
        kernel.advance(now, &mut mem, &mut host);
        let wake = now + vis;
        for (d, ctx) in ctxs.iter_mut().enumerate() {
            // The interrupt handler runs only when the device raised
            // one (MSI-X), not on every simulation event.
            if kernel.disk(DiskId(d)).qpair(0).cq_pending() == 0 {
                continue;
            }
            let cyc = ctx.on_interrupt(&mut kernel, wake, &costs);
            cpu_busy_ns += costs.cycles_to_ns(cyc);
            let (done, cyc) = ctx.kevent(wake, &costs);
            cpu_busy_ns += costs.cycles_to_ns(cyc);
            if done.is_empty() {
                continue;
            }
            let mut reads = Vec::new();
            for c in &done {
                latency.add((c.completed_at - c.submitted_at).as_micros_f64());
                done_bytes += io_size;
                ios += 1;
                let lba = rng.gen_range(0, span_lbas) * stride;
                reads.push((
                    c.user,
                    1u32,
                    lba * LBA_SIZE,
                    io_size,
                    bufs[d][c.user as usize],
                ));
            }
            // aio(4) per-request kernel work gates how fast a single
            // thread can resubmit: model the submission as serialized
            // CPU work before the device sees the batch.
            let cyc = ctx.submit_reads(&mut kernel, wake, &reads, &costs);
            cpu_busy_ns += costs.cycles_to_ns(cyc);
        }
    }
    // A single submitting thread saturates at 100% CPU: clamp
    // throughput by CPU if overcommitted.
    let mut out = finish(done_bytes, ios, latency, now, cpu_busy_ns);
    if out.cpu_frac > 1.0 {
        out.throughput_gbps /= out.cpu_frac;
        out.cpu_frac = 1.0;
    }
    out
}

/// Serial blocking pread(2) loop (one thread).
pub fn run_pread(n_disks: usize, io_size: u64, horizon: Nanos, seed: u64) -> StorageRun {
    let (mut kernel, mut mem, mut host, mut pa) = make_kernel(n_disks, seed);
    let costs = CostParams::default();
    let mut rng = SimRng::new(seed);
    let mut files: Vec<PreadFile> = (0..n_disks)
        .map(|d| PreadFile::open(DiskId(d), 0, &mut pa))
        .collect();
    let ubuf = pa.alloc(io_size.max(LBA_SIZE));
    let span_lbas = 1_000_000u64;
    let stride = io_size.div_ceil(LBA_SIZE);
    let mut now = Nanos::ZERO;
    let mut latency = Histogram::new(0.0, 5_000.0, 2_000);
    let mut done_bytes = 0u64;
    let mut ios = 0u64;
    let mut cpu_busy_ns = 0u64;
    let mut d = 0usize;
    while now < horizon {
        let lba = rng.gen_range(0, span_lbas) * stride;
        let start = now;
        let r = files[d].pread(
            &mut kernel,
            now,
            1,
            lba * LBA_SIZE,
            io_size,
            ubuf,
            &mut mem,
            &mut host,
            &costs,
        );
        latency.add((r.done_at - start).as_micros_f64());
        now = r.done_at;
        done_bytes += io_size;
        ios += 1;
        cpu_busy_ns += costs.cycles_to_ns(r.cpu_cycles);
        d = (d + 1) % n_disks;
    }
    finish(done_bytes, ios, latency, now, cpu_busy_ns)
}

fn finish(
    done_bytes: u64,
    ios: u64,
    latency: Histogram,
    now: Nanos,
    cpu_busy_ns: u64,
) -> StorageRun {
    let secs = now.as_secs_f64().max(1e-9);
    StorageRun {
        throughput_gbps: done_bytes as f64 * 8.0 / secs / 1e9,
        mean_latency_us: latency.mean(),
        latency,
        ios,
        cpu_frac: cpu_busy_ns as f64 / now.as_nanos().max(1) as f64,
    }
}
