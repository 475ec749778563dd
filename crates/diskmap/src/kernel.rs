//! The diskmap kernel module.
//!
//! Owns the NVMe devices, detaches datapath queue pairs from the
//! in-kernel stack, pre-allocates the shared non-pageable memory
//! (queues + buffers), programs the per-device IOMMU domain, and
//! exposes the two privileged operations libnvme needs: the attach
//! ioctl and the doorbell syscall. Administrative queue pairs stay
//! kernel-side (device reset / format keep working), exactly as
//! described in §3.1.2.

use crate::bufpool::BufPool;
use crate::iommu::IommuDomain;
use dcn_mem::{HostMem, MemSystem, PhysAlloc};
use dcn_nvme::{NvmeCommand, NvmeDevice};
use dcn_simcore::{earliest, Nanos};

/// Index of a disk within the kernel's device table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DiskId(pub usize);

/// Errors surfaced to userspace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DiskmapError {
    /// Queue pair already attached to another consumer.
    Busy,
    /// No such disk / queue pair.
    NoEntry,
    /// A command referenced memory outside the IOMMU domain.
    IommuFault,
    /// Submission queue full.
    QueueFull,
}

impl std::fmt::Display for DiskmapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DiskmapError::Busy => "queue pair busy",
            DiskmapError::NoEntry => "no such disk or queue pair",
            DiskmapError::IommuFault => "DMA outside IOMMU domain",
            DiskmapError::QueueFull => "submission queue full",
        };
        f.write_str(s)
    }
}

impl std::error::Error for DiskmapError {}

struct Attachment {
    disk: DiskId,
    qid: u16,
    domain: IommuDomain,
}

/// The kernel side of diskmap.
pub struct DiskmapKernel {
    disks: Vec<NvmeDevice>,
    attachments: Vec<Attachment>,
    /// Syscall count (the paper's batching argument, §3.1.4, is about
    /// amortizing exactly these).
    pub syscalls: u64,
    /// Seeded submission-queue reject injection (`None` = never).
    sq_faults: Option<dcn_faults::SqFaultInjector>,
}

impl DiskmapKernel {
    #[must_use]
    pub fn new(disks: Vec<NvmeDevice>) -> Self {
        DiskmapKernel {
            disks,
            attachments: Vec::new(),
            syscalls: 0,
            sq_faults: None,
        }
    }

    /// Arm seeded SQ-reject injection: each non-empty `sqsync` is
    /// refused with probability `reject_p` (reported `QueueFull`,
    /// commands left staged).
    pub fn set_sq_faults(&mut self, reject_p: f64, seed: u64) {
        let inj = dcn_faults::SqFaultInjector::new(reject_p, seed);
        self.sq_faults = if inj.is_active() { Some(inj) } else { None };
    }

    /// Number of injected SQ rejects fired so far.
    #[must_use]
    pub fn sq_rejects(&self) -> u64 {
        self.sq_faults.as_ref().map_or(0, |i| i.rejects)
    }

    /// NVMe media errors and latency spikes fired so far, over all
    /// disks.
    #[must_use]
    pub fn nvme_fault_totals(&self) -> (u64, u64) {
        NvmeDevice::fault_totals(&self.disks)
    }

    /// Publish kernel-side storage counters into a dcn-obs registry
    /// under `diskmap.*` (sample/report points, not the I/O path).
    pub fn publish_metrics(&self, reg: &mut dcn_obs::Registry) {
        let g = reg.gauge("diskmap.syscalls");
        reg.set(g, self.syscalls as f64);
        let g = reg.gauge("diskmap.disks");
        reg.set(g, self.disks.len() as f64);
        let g = reg.gauge("diskmap.attachments");
        reg.set(g, self.attachments.len() as f64);
        let g = reg.gauge("faults.sq_rejects");
        reg.set(g, self.sq_rejects() as f64);
        let (errors, spikes) = self.nvme_fault_totals();
        let g = reg.gauge("faults.nvme_read_errors");
        reg.set(g, errors as f64);
        let g = reg.gauge("faults.nvme_latency_spikes");
        reg.set(g, spikes as f64);
    }

    pub fn disk(&mut self, id: DiskId) -> &mut NvmeDevice {
        &mut self.disks[id.0]
    }

    /// The attach ioctl: detach `(disk, qid)` from the in-kernel
    /// stack, allocate `buf_count` DMA buffers of `buf_size` bytes,
    /// and program the IOMMU with the queue + buffer memory. Returns
    /// the buffer pool (the userspace mapping of the shared memory).
    pub fn attach(
        &mut self,
        disk: DiskId,
        qid: u16,
        buf_count: u32,
        buf_size: u64,
        phys: &mut PhysAlloc,
        enforce_iommu: bool,
    ) -> Result<(BufPool, usize), DiskmapError> {
        if disk.0 >= self.disks.len() || qid >= self.disks[disk.0].config().num_qpairs {
            return Err(DiskmapError::NoEntry);
        }
        if self
            .attachments
            .iter()
            .any(|a| a.disk == disk && a.qid == qid)
        {
            return Err(DiskmapError::Busy);
        }
        let pool = BufPool::new(buf_count, buf_size, phys);
        let mut domain = if enforce_iommu {
            IommuDomain::new()
        } else {
            IommuDomain::passthrough()
        };
        domain.map(pool.extent());
        self.attachments.push(Attachment { disk, qid, domain });
        let token = self.attachments.len() - 1;
        Ok((pool, token))
    }

    /// The doorbell syscall: validate `cmds` against the attachment's
    /// IOMMU domain, push them into the device SQ, and ring the SQ
    /// tail doorbell. Admission is a prefix: on a full SQ (real or
    /// fault-injected) the admitted commands are removed from `cmds`,
    /// the rest are **left in place** for the caller to resubmit, and
    /// the call reports `QueueFull`.
    pub fn sqsync(
        &mut self,
        token: usize,
        now: Nanos,
        cmds: &mut Vec<NvmeCommand>,
    ) -> Result<usize, DiskmapError> {
        self.syscalls += 1;
        let att = self.attachments.get(token).ok_or(DiskmapError::NoEntry)?;
        for cmd in cmds.iter() {
            for prp in &cmd.prp {
                if !att.domain.check(*prp) {
                    return Err(DiskmapError::IommuFault);
                }
            }
        }
        // Fault injection: the device momentarily refuses admission,
        // exactly as if the SQ were full. Nothing is lost — the whole
        // batch stays staged in `cmds`.
        if let Some(inj) = &mut self.sq_faults {
            if !cmds.is_empty() && inj.reject() {
                return Err(DiskmapError::QueueFull);
            }
        }
        let dev = &mut self.disks[att.disk.0];
        let qp = dev.qpair(att.qid);
        // Move the admitted prefix into the SQ; on a full SQ the
        // unadmitted tail stays staged in `cmds`, in order.
        let admitted = cmds.len().min(usize::from(qp.sq_space()));
        for cmd in cmds.drain(..admitted) {
            let pushed = qp.sq_push(cmd);
            debug_assert!(pushed, "SQ had room for the admitted prefix");
        }
        if admitted > 0 {
            dev.ring_sq_doorbell(now, att.qid);
        }
        if !cmds.is_empty() {
            return Err(DiskmapError::QueueFull);
        }
        Ok(admitted)
    }

    /// Userspace-visible completion consumption (CQ is mapped shared
    /// memory; no syscall). The CQ head doorbell write is folded into
    /// the next `sqsync`.
    pub fn consume(
        &mut self,
        token: usize,
        max: usize,
    ) -> Result<Vec<dcn_nvme::CompletionEntry>, DiskmapError> {
        let att = self.attachments.get(token).ok_or(DiskmapError::NoEntry)?;
        let dev = &mut self.disks[att.disk.0];
        Ok(dev.qpair(att.qid).cq_consume(max))
    }

    /// Earliest instant any disk has a completion to post.
    #[must_use]
    pub fn poll_at(&self) -> Option<Nanos> {
        self.disks
            .iter()
            .fold(None, |acc, d| earliest(acc, d.poll_at()))
    }

    /// Advance all devices to `now` (DMA through the memory model).
    pub fn advance(&mut self, now: Nanos, mem: &mut MemSystem, host: &mut HostMem) -> usize {
        self.disks
            .iter_mut()
            .map(|d| d.advance(now, mem, host))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufpool::BufId;
    use dcn_mem::{CostParams, LlcConfig, PhysAddr, PhysRegion, CHUNK_SIZE};
    use dcn_nvme::{NvmeConfig, Opcode, SyntheticBacking};
    use std::ops::Range;

    fn kernel(n_disks: usize) -> DiskmapKernel {
        let disks = (0..n_disks)
            .map(|i| {
                NvmeDevice::new(
                    NvmeConfig::default(),
                    Box::new(SyntheticBacking::new(7 + i as u64)),
                    100 + i as u64,
                )
            })
            .collect();
        DiskmapKernel::new(disks)
    }

    fn mem() -> (MemSystem, HostMem, PhysAlloc) {
        (
            MemSystem::new(
                LlcConfig::xeon_e5_2667v3(),
                CostParams::default(),
                Nanos::from_millis(1),
            ),
            HostMem::new(),
            PhysAlloc::new(),
        )
    }

    fn read_into(buf: PhysRegion, cid: u16, slba: u64, len: u64) -> NvmeCommand {
        let mut prp = Vec::new();
        let mut off = 0;
        while off < len {
            let n = (len - off).min(4096);
            prp.push(buf.slice(off, n));
            off += n;
        }
        NvmeCommand {
            opcode: Opcode::Read,
            cid,
            nsid: 1,
            slba,
            nlb: (len / 512) as u32,
            prp,
        }
    }

    #[test]
    fn attach_then_io_round_trip() {
        let (mut m, mut h, mut pa) = mem();
        let mut k = kernel(1);
        let (mut pool, tok) = k.attach(DiskId(0), 0, 8, 16384, &mut pa, true).unwrap();
        let b = pool.alloc().unwrap();
        let mut cmds = vec![read_into(pool.region(b), 1, 0, 16384)];
        k.sqsync(tok, Nanos::ZERO, &mut cmds).unwrap();
        let mut n = 0;
        while let Some(t) = k.poll_at() {
            n += k.advance(t, &mut m, &mut h);
        }
        assert_eq!(n, 1);
        let entries = k.consume(tok, 16).unwrap();
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn double_attach_is_busy() {
        let mut pa = PhysAlloc::new();
        let mut k = kernel(1);
        k.attach(DiskId(0), 0, 4, 4096, &mut pa, true).unwrap();
        assert!(matches!(
            k.attach(DiskId(0), 0, 4, 4096, &mut pa, true),
            Err(DiskmapError::Busy)
        ));
        // A different queue pair of the same disk is fine (share-free
        // multi-core design).
        assert!(k.attach(DiskId(0), 1, 4, 4096, &mut pa, true).is_ok());
    }

    #[test]
    fn attach_bad_ids_fail() {
        let mut pa = PhysAlloc::new();
        let mut k = kernel(1);
        assert!(matches!(
            k.attach(DiskId(3), 0, 4, 4096, &mut pa, true),
            Err(DiskmapError::NoEntry)
        ));
        assert!(matches!(
            k.attach(DiskId(0), 99, 4, 4096, &mut pa, true),
            Err(DiskmapError::NoEntry)
        ));
    }

    #[test]
    fn iommu_blocks_stray_dma() {
        let (_m, _h, mut pa) = mem();
        let mut k = kernel(1);
        let (_pool, tok) = k.attach(DiskId(0), 0, 4, 16384, &mut pa, true).unwrap();
        // A buffer the kernel never mapped (e.g. arbitrary userspace
        // address) must be rejected at the syscall boundary.
        let stray = pa.alloc(16384);
        let mut cmds = vec![read_into(stray, 1, 0, 16384)];
        assert!(matches!(
            k.sqsync(tok, Nanos::ZERO, &mut cmds),
            Err(DiskmapError::IommuFault)
        ));
    }

    #[test]
    fn syscall_counter_tracks_batching() {
        let (_m, _h, mut pa) = mem();
        let mut k = kernel(1);
        let (mut pool, tok) = k.attach(DiskId(0), 0, 64, 16384, &mut pa, true).unwrap();
        // 32 commands in one sqsync = 1 syscall.
        let mut cmds: Vec<NvmeCommand> = (0..32u16)
            .map(|i| {
                let b = pool.alloc().unwrap();
                read_into(pool.region(b), i, u64::from(i) * 32, 16384)
            })
            .collect();
        k.sqsync(tok, Nanos::ZERO, &mut cmds).unwrap();
        assert_eq!(k.syscalls, 1);
    }

    #[test]
    fn full_sq_admits_prefix_and_preserves_tail() {
        let (mut m, mut h, mut pa) = mem();
        // Tiny SQ so a batch overflows it: depth 8 admits 7.
        let disks = vec![NvmeDevice::new(
            NvmeConfig {
                queue_depth: 8,
                ..NvmeConfig::default()
            },
            Box::new(SyntheticBacking::new(7)),
            100,
        )];
        let mut k = DiskmapKernel::new(disks);
        let (mut pool, tok) = k.attach(DiskId(0), 0, 16, 16384, &mut pa, true).unwrap();
        let mut cmds: Vec<NvmeCommand> = (0..12u16)
            .map(|i| {
                let b = pool.alloc().unwrap();
                read_into(pool.region(b), i, u64::from(i) * 32, 16384)
            })
            .collect();
        assert!(matches!(
            k.sqsync(tok, Nanos::ZERO, &mut cmds),
            Err(DiskmapError::QueueFull)
        ));
        let admitted_first = 12 - cmds.len();
        assert!(admitted_first > 0, "a prefix must be admitted");
        assert!(!cmds.is_empty(), "the tail must survive for resubmission");
        // The unadmitted tail keeps its identity (no silent loss).
        assert_eq!(cmds[0].cid, admitted_first as u16);
        // Drain the device, resubmit the tail: every command
        // eventually completes exactly once.
        let mut completed = Vec::new();
        loop {
            while let Some(t) = k.poll_at() {
                k.advance(t, &mut m, &mut h);
            }
            completed.extend(k.consume(tok, 16).unwrap());
            if cmds.is_empty() {
                break;
            }
            let _ = k.sqsync(tok, Nanos::from_millis(1), &mut cmds);
        }
        while k.poll_at().is_some() {
            let t = k.poll_at().unwrap();
            k.advance(t, &mut m, &mut h);
        }
        completed.extend(k.consume(tok, 16).unwrap());
        let mut cids: Vec<u16> = completed.iter().map(|e| e.cid).collect();
        cids.sort_unstable();
        assert_eq!(cids, (0..12u16).collect::<Vec<_>>());
    }

    #[test]
    fn injected_sq_rejects_keep_commands_staged() {
        let (mut m, mut h, mut pa) = mem();
        let mut k = kernel(1);
        let (mut pool, tok) = k.attach(DiskId(0), 0, 8, 16384, &mut pa, true).unwrap();
        k.set_sq_faults(1.0, 42);
        let b = pool.alloc().unwrap();
        let mut cmds = vec![read_into(pool.region(b), 1, 0, 16384)];
        assert!(matches!(
            k.sqsync(tok, Nanos::ZERO, &mut cmds),
            Err(DiskmapError::QueueFull)
        ));
        assert_eq!(cmds.len(), 1, "rejected batch stays staged");
        assert_eq!(k.sq_rejects(), 1);
        // Disarm and resubmit: the same command goes through.
        k.set_sq_faults(0.0, 42);
        k.sqsync(tok, Nanos::from_micros(1), &mut cmds).unwrap();
        assert!(cmds.is_empty());
        while let Some(t) = k.poll_at() {
            k.advance(t, &mut m, &mut h);
        }
        assert_eq!(k.consume(tok, 16).unwrap().len(), 1);
    }

    #[test]
    fn multiple_disks_complete_independently() {
        let (mut m, mut h, mut pa) = mem();
        let mut k = kernel(4);
        let mut toks = Vec::new();
        for d in 0..4 {
            let (mut pool, tok) = k.attach(DiskId(d), 0, 4, 16384, &mut pa, true).unwrap();
            let b = pool.alloc().unwrap();
            let mut cmds = vec![read_into(pool.region(b), 1, 64, 16384)];
            k.sqsync(tok, Nanos::ZERO, &mut cmds).unwrap();
            toks.push(tok);
        }
        while let Some(t) = k.poll_at() {
            k.advance(t, &mut m, &mut h);
        }
        for tok in toks {
            assert_eq!(k.consume(tok, 8).unwrap().len(), 1);
        }
    }

    /// Atlas's shape on one disk: queue pairs 0–3 each attached with a
    /// pool of 320 × 16 KiB buffers. Returns each attachment's token
    /// and the page span its pool occupies.
    fn atlas_shaped(pa: &mut PhysAlloc) -> (DiskmapKernel, Vec<(usize, Range<u64>)>) {
        let mut k = kernel(1);
        let atts = (0..4)
            .map(|qid| {
                let (pool, tok) = k.attach(DiskId(0), qid, 320, 16384, pa, true).unwrap();
                let pages =
                    pool.region(BufId(0)).chunks().start..pool.region(BufId(319)).chunks().end;
                assert_eq!(pages.end - pages.start, 320 * 4, "a pool is contiguous");
                (tok, pages)
            })
            .collect();
        (k, atts)
    }

    #[test]
    fn attach_maps_each_pool_as_one_run_with_per_buffer_answers() {
        // Buffer sizes on, below and across chunk edges, behind a lead
        // allocation so pools start mid-space.
        for (count, buf_size) in [(1, 16384), (5, 100), (7, 5000), (320, 16384)] {
            let mut pa = PhysAlloc::new();
            pa.alloc(3 * CHUNK_SIZE);
            let mut k = kernel(1);
            let pools: Vec<BufPool> = (0..2)
                .map(|qid| k.attach(DiskId(0), qid, count, buf_size, &mut pa, true))
                .map(|res| res.unwrap().0)
                .collect();
            for (att, pool) in k.attachments.iter().zip(&pools) {
                // The per-buffer mapping attach used to make.
                let mut want = IommuDomain::new();
                let bufs: Vec<PhysRegion> = (0..count).map(|i| pool.region(BufId(i))).collect();
                for &r in &bufs {
                    want.map(r);
                }
                assert_eq!(att.domain.runs().len(), 1, "{count} × {buf_size}");
                assert_eq!(att.domain.runs(), want.runs());
                for r in bufs {
                    let (start, end) = (r.addr.0, r.end());
                    let page_end = r.chunks().end * CHUNK_SIZE;
                    let probes = [
                        PhysRegion::new(PhysAddr(start - CHUNK_SIZE), CHUNK_SIZE),
                        PhysRegion::new(PhysAddr(start - 1), 2),
                        PhysRegion::new(PhysAddr(start), 0),
                        r,
                        PhysRegion::new(PhysAddr(end - 1), 2),
                        PhysRegion::new(PhysAddr(page_end - 1), 1),
                        PhysRegion::new(PhysAddr(page_end), 1),
                        PhysRegion::new(PhysAddr(page_end), CHUNK_SIZE),
                    ];
                    for p in probes {
                        assert_eq!(att.domain.check(p), want.check(p), "{r:?}: probe {p:?}");
                    }
                }
            }
        }
    }

    /// A 4 KiB read into physical page `page`.
    fn page_read(page: u64, cid: u16) -> NvmeCommand {
        let buf = PhysRegion::new(PhysAddr(page * CHUNK_SIZE), CHUNK_SIZE);
        read_into(buf, cid, u64::from(cid) * 8, CHUNK_SIZE)
    }

    fn staged(cmds: &[NvmeCommand]) -> Vec<(u16, Vec<PhysRegion>)> {
        cmds.iter().map(|c| (c.cid, c.prp.clone())).collect()
    }

    #[test]
    fn iommu_is_page_exact_at_atlas_pool_edges() {
        let mut pa = PhysAlloc::new();
        let (mut k, atts) = atlas_shaped(&mut pa);
        for (i, (tok, pages)) in atts.iter().enumerate() {
            let neighbour = &atts[(i + 1) % atts.len()].1;
            let strays = [
                pages.start - 1,
                pages.end,
                (neighbour.start + neighbour.end) / 2,
            ];
            for stray in strays {
                // A valid command ahead of the stray one is not admitted
                // either: the whole batch faults and stays as it was.
                let mut cmds = vec![page_read(pages.start, 1), page_read(stray, 2)];
                let before = staged(&cmds);
                assert_eq!(
                    k.sqsync(*tok, Nanos::ZERO, &mut cmds),
                    Err(DiskmapError::IommuFault),
                    "queue {i}: page {stray} is outside pages {pages:?}"
                );
                assert_eq!(staged(&cmds), before);
            }
            let mut cmds = vec![page_read(pages.end - 1, 3)];
            assert_eq!(k.sqsync(*tok, Nanos::ZERO, &mut cmds), Ok(1));
            assert!(cmds.is_empty());
        }
    }

    #[test]
    fn sqsync_moves_admitted_prefix_and_resubmits_tail_in_order() {
        let (mut m, mut h, mut pa) = mem();
        let (mut k, atts) = atlas_shaped(&mut pa);
        let (tok, pages) = &atts[0];
        // One read per page of the pool: 1,280 commands against an SQ
        // with 1,023 free slots.
        let mut cmds: Vec<NvmeCommand> = pages
            .clone()
            .zip(0u16..)
            .map(|(page, cid)| page_read(page, cid))
            .collect();
        let space = usize::from(k.disk(DiskId(0)).qpair(0).sq_space());
        assert!(cmds.len() > space);
        let tail = staged(&cmds[space..]);
        assert_eq!(
            k.sqsync(*tok, Nanos::ZERO, &mut cmds),
            Err(DiskmapError::QueueFull)
        );
        assert_eq!(
            staged(&cmds),
            tail,
            "the unadmitted tail stays staged in order"
        );
        let mut completed = Vec::new();
        let mut drain = |k: &mut DiskmapKernel| {
            while let Some(t) = k.poll_at() {
                k.advance(t, &mut m, &mut h);
                completed.extend(k.consume(*tok, 1024).unwrap().iter().map(|e| e.cid));
            }
        };
        drain(&mut k);
        assert_eq!(
            k.sqsync(*tok, Nanos::from_millis(10), &mut cmds),
            Ok(tail.len())
        );
        assert!(cmds.is_empty());
        drain(&mut k);
        completed.sort_unstable();
        let all: Vec<u16> = (0..pages.end - pages.start).map(|c| c as u16).collect();
        assert_eq!(completed, all, "every command completes exactly once");
    }
}
