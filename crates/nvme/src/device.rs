//! The NVMe device: queue pairs + firmware + DMA engine.
//!
//! The host interacts exactly the way a driver does (§3.1.1): write
//! SQEs into a submission queue, ring the SQ tail doorbell, poll (or
//! take an interrupt for) completion entries, ring the CQ head
//! doorbell. Data for READ commands is DMA-written into the PRP
//! pages — through the LLC model (DDIO) and, at full fidelity, into
//! simulated host memory byte-for-byte from the backing store.

use crate::backing::BlockBacking;
use crate::firmware::{Firmware, FirmwareParams};
use crate::queue::{CompletionEntry, NvmeCommand, NvmeStatus, Opcode, QueuePair};
use crate::LBA_SIZE;
use dcn_faults::NvmeFaultInjector;
use dcn_mem::{Agent, HostMem, MemSystem};
use dcn_simcore::Nanos;
use std::collections::HashMap;

pub use dcn_mem::Fidelity;

/// Device geometry and behaviour.
#[derive(Clone, Copy, Debug)]
pub struct NvmeConfig {
    /// Number of I/O queue pairs (NVMe supports many; one per core in
    /// the paper's share-free design).
    pub num_qpairs: u16,
    /// Slots per SQ/CQ.
    pub queue_depth: u16,
    /// Namespace capacity in LBAs.
    pub ns_lbas: u64,
    pub firmware: FirmwareParams,
    /// Interrupt moderation: a completion raises an interrupt only if
    /// none was raised within this window (0 = every completion).
    pub irq_coalesce: Nanos,
    /// Delay from completion to interrupt delivery.
    pub irq_latency: Nanos,
    pub fidelity: Fidelity,
}

impl Default for NvmeConfig {
    fn default() -> Self {
        NvmeConfig {
            num_qpairs: 8,
            queue_depth: 1024,
            // 800 GB at 512 B LBAs.
            ns_lbas: 800_000_000_000 / LBA_SIZE,
            firmware: FirmwareParams::p3700(),
            irq_coalesce: Nanos::from_micros(20),
            irq_latency: Nanos::from_micros(6),
            fidelity: Fidelity::Full,
        }
    }
}

/// A simulated NVMe SSD.
pub struct NvmeDevice {
    cfg: NvmeConfig,
    qpairs: Vec<QueuePair>,
    firmware: Firmware,
    backing: Box<dyn BlockBacking>,
    /// Commands accepted but not yet completed, needed to perform the
    /// DMA at completion time: (qid, cid) → command, plus whether the
    /// fault layer doomed this command to a media error (decided at
    /// doorbell time so firmware reordering can't change the
    /// schedule).
    pending: HashMap<(u16, u16), (NvmeCommand, bool)>,
    /// Latest doorbell time seen on any queue.
    latest_doorbell: Nanos,
    /// Seeded fault decisions (media errors, latency spikes). `None`
    /// in every scenario that doesn't inject faults.
    faults: Option<NvmeFaultInjector>,
    last_irq: Nanos,
    irq_pending_at: Option<Nanos>,
    /// Lifetime stats.
    pub completed_reads: u64,
    pub completed_writes: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    /// Submissions rung at a time earlier than a doorbell the device
    /// had already seen, with their summed and largest lag behind it.
    /// Each core rings its own queue on its own clock, so these count
    /// how far out of time order the firmware receives its work.
    pub late_submissions: u64,
    pub late_lag_sum: Nanos,
    pub late_lag_max: Nanos,
}

impl NvmeDevice {
    pub fn new(cfg: NvmeConfig, backing: Box<dyn BlockBacking>, seed: u64) -> Self {
        NvmeDevice {
            qpairs: (0..cfg.num_qpairs)
                .map(|q| QueuePair::new(q, cfg.queue_depth))
                .collect(),
            firmware: Firmware::new(cfg.firmware, seed),
            backing,
            pending: HashMap::new(),
            latest_doorbell: Nanos::ZERO,
            faults: None,
            cfg,
            last_irq: Nanos::ZERO,
            irq_pending_at: None,
            completed_reads: 0,
            completed_writes: 0,
            read_bytes: 0,
            write_bytes: 0,
            late_submissions: 0,
            late_lag_sum: Nanos::ZERO,
            late_lag_max: Nanos::ZERO,
        }
    }

    #[must_use]
    pub fn config(&self) -> &NvmeConfig {
        &self.cfg
    }

    /// Arm seeded fault injection on this device. Inactive configs
    /// are dropped so the happy path never consults the rng.
    pub fn set_faults(&mut self, cfg: dcn_faults::NvmeFaults, seed: u64) {
        let inj = NvmeFaultInjector::new(cfg, seed);
        self.faults = if inj.is_active() { Some(inj) } else { None };
    }

    /// Fault counters (media errors fired, latency spikes), if armed.
    #[must_use]
    pub fn fault_injector(&self) -> Option<&NvmeFaultInjector> {
        self.faults.as_ref()
    }

    /// Media errors and latency spikes fired across `devices`' armed
    /// fault injectors.
    pub fn fault_totals<'a>(devices: impl IntoIterator<Item = &'a NvmeDevice>) -> (u64, u64) {
        devices
            .into_iter()
            .filter_map(NvmeDevice::fault_injector)
            .fold((0, 0), |(e, s), f| {
                (e + f.read_errors, s + f.latency_spikes)
            })
    }

    /// Host access to a queue pair (the driver owns these
    /// structurally; the device borrows them during `advance`).
    pub fn qpair(&mut self, qid: u16) -> &mut QueuePair {
        &mut self.qpairs[usize::from(qid)]
    }

    /// Ring the SQ tail doorbell of `qid`: the device fetches newly
    /// submitted commands, validates them, and hands them to the
    /// firmware. Invalid commands complete immediately with an error
    /// status.
    pub fn ring_sq_doorbell(&mut self, now: Nanos, qid: u16) {
        let q = usize::from(qid);
        // Completions report the SQ head after the whole fetch, which is
        // the doorbell tail.
        let sq_head = self.qpairs[q].sq_tail();
        while let Some(cmd) = self.qpairs[q].device_fetch() {
            let status = self.validate(&cmd);
            if status != NvmeStatus::Success {
                self.qpairs[q].cq_post(CompletionEntry {
                    cid: cmd.cid,
                    status,
                    sq_head,
                });
                continue;
            }
            let (fail, mult) = match &mut self.faults {
                Some(inj) => {
                    let fail = cmd.opcode == Opcode::Read && inj.read_error();
                    (fail, inj.latency_mult())
                }
                None => (false, 1.0),
            };
            if now < self.latest_doorbell {
                let lag = self.latest_doorbell - now;
                self.late_submissions += 1;
                self.late_lag_sum += lag;
                self.late_lag_max = self.late_lag_max.max(lag);
            }
            self.latest_doorbell = self.latest_doorbell.max(now);
            self.firmware.submit_scaled(now, qid, sq_head, &cmd, mult);
            let cid = cmd.cid;
            let dup = self.pending.insert((qid, cid), (cmd, fail));
            assert!(dup.is_none(), "cid {cid} already in flight on queue {qid}");
        }
        debug_assert_eq!(self.qpairs[q].sq_head, sq_head);
    }

    fn validate(&self, cmd: &NvmeCommand) -> NvmeStatus {
        let end = cmd.slba + u64::from(cmd.nlb);
        if cmd.nsid == 0 || cmd.nsid > 4 {
            return NvmeStatus::InvalidField;
        }
        match cmd.opcode {
            Opcode::Flush => NvmeStatus::Success,
            Opcode::Read | Opcode::Write => {
                if cmd.nlb == 0 || cmd.prp.is_empty() {
                    NvmeStatus::InvalidField
                } else if end > self.cfg.ns_lbas {
                    NvmeStatus::LbaOutOfRange
                } else if cmd.data_len() != u64::from(cmd.nlb) * LBA_SIZE {
                    NvmeStatus::InvalidField
                } else {
                    NvmeStatus::Success
                }
            }
        }
    }

    /// Next instant the device has work to expose (a completion to
    /// post).
    #[must_use]
    pub fn poll_at(&self) -> Option<Nanos> {
        self.firmware.poll_at()
    }

    /// Advance device time: post completions for everything the
    /// firmware finished by `now`, performing the data DMA. Returns
    /// the number of completions posted.
    pub fn advance(&mut self, now: Nanos, mem: &mut MemSystem, host: &mut HostMem) -> usize {
        let finished = self.firmware.drain_finished(now);
        let n = finished.len();
        for (qid, cid, sq_head) in finished {
            let (cmd, failed) = self
                .pending
                .remove(&(qid, cid))
                .expect("completion for unknown command");
            if failed {
                // Media error: no data transfer happened; the host
                // buffer is untouched and must be treated as garbage.
                self.qpairs[usize::from(qid)].cq_post(CompletionEntry {
                    cid,
                    status: NvmeStatus::MediaError,
                    sq_head,
                });
                if now.saturating_sub(self.last_irq) >= self.cfg.irq_coalesce {
                    self.last_irq = now;
                    let at = now + self.cfg.irq_latency;
                    self.irq_pending_at = Some(match self.irq_pending_at {
                        Some(t) => t.min(at),
                        None => at,
                    });
                }
                continue;
            }
            self.dma(now, &cmd, mem, host);
            match cmd.opcode {
                Opcode::Read => {
                    self.completed_reads += 1;
                    self.read_bytes += cmd.data_len();
                }
                Opcode::Write => {
                    self.completed_writes += 1;
                    self.write_bytes += cmd.data_len();
                }
                Opcode::Flush => {}
            }
            self.qpairs[usize::from(qid)].cq_post(CompletionEntry {
                cid,
                status: NvmeStatus::Success,
                sq_head,
            });
            // Interrupt moderation.
            if now.saturating_sub(self.last_irq) >= self.cfg.irq_coalesce {
                self.last_irq = now;
                let at = now + self.cfg.irq_latency;
                self.irq_pending_at = Some(match self.irq_pending_at {
                    Some(t) => t.min(at),
                    None => at,
                });
            }
        }
        n
    }

    fn dma(&mut self, now: Nanos, cmd: &NvmeCommand, mem: &mut MemSystem, host: &mut HostMem) {
        match cmd.opcode {
            Opcode::Read => {
                let mut off = 0u64;
                for region in &cmd.prp {
                    mem.dma_write(now, Agent::DiskDma, *region);
                    if self.cfg.fidelity == Fidelity::Full {
                        let mut buf = vec![0u8; region.len as usize];
                        self.backing.read(cmd.nsid, cmd.slba, off, &mut buf);
                        host.write(region.addr, &buf);
                    }
                    off += region.len;
                }
            }
            Opcode::Write => {
                let mut off = 0u64;
                for region in &cmd.prp {
                    mem.dma_read(now, Agent::DiskDma, *region);
                    if self.cfg.fidelity == Fidelity::Full {
                        let buf = host.read_region(*region);
                        self.backing.write(cmd.nsid, cmd.slba, off, &buf);
                    }
                    off += region.len;
                }
            }
            Opcode::Flush => {}
        }
    }

    /// Take a pending interrupt if one is due at `now` (interrupt-
    /// driven drivers: the in-kernel stack and the aio(4) baseline).
    pub fn take_interrupt(&mut self, now: Nanos) -> bool {
        match self.irq_pending_at {
            Some(t) if t <= now => {
                self.irq_pending_at = None;
                true
            }
            _ => false,
        }
    }

    /// When the pending interrupt (if any) fires.
    #[must_use]
    pub fn irq_at(&self) -> Option<Nanos> {
        self.irq_pending_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::{SparseBacking, SyntheticBacking};
    use dcn_mem::{CostParams, LlcConfig, PhysAlloc, PhysRegion};

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

    fn dev() -> NvmeDevice {
        NvmeDevice::new(NvmeConfig::default(), Box::new(SyntheticBacking::new(7)), 1)
    }

    fn read_cmd(cid: u16, slba: u64, bytes: u64, buf: PhysRegion) -> NvmeCommand {
        // Split into 4 KiB PRP pages as a driver would.
        let mut prp = Vec::new();
        let mut off = 0;
        while off < bytes {
            let n = (bytes - off).min(4096);
            prp.push(buf.slice(off, n));
            off += n;
        }
        NvmeCommand {
            opcode: Opcode::Read,
            cid,
            nsid: 1,
            slba,
            nlb: (bytes / LBA_SIZE) as u32,
            prp,
        }
    }

    fn run_to_completion(d: &mut NvmeDevice, mem: &mut MemSystem, host: &mut HostMem) -> usize {
        let mut n = 0;
        while let Some(t) = d.poll_at() {
            n += d.advance(t, mem, host);
        }
        n
    }

    #[test]
    fn read_delivers_correct_bytes() {
        let (mut m, mut h, mut pa) = mem();
        let mut d = dev();
        let buf = pa.alloc(16384);
        d.qpair(0).sq_push(read_cmd(1, 100, 16384, buf));
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        assert_eq!(run_to_completion(&mut d, &mut m, &mut h), 1);
        let entries = d.qpair(0).cq_consume(16);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].status, NvmeStatus::Success);
        // Verify against the backing's expected content.
        let got = h.read_region(buf);
        let mut want = vec![0u8; 16384];
        SyntheticBacking::new(7).expected(1, 100 * LBA_SIZE, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn out_of_range_read_errors() {
        let (_m, _h, mut pa) = mem();
        let mut d = dev();
        let buf = pa.alloc(4096);
        let lbas = d.config().ns_lbas;
        d.qpair(0).sq_push(read_cmd(1, lbas - 1, 4096, buf));
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        let entries = d.qpair(0).cq_consume(16);
        assert_eq!(entries.len(), 1, "error completes immediately");
        assert_eq!(entries[0].status, NvmeStatus::LbaOutOfRange);
    }

    #[test]
    fn malformed_prp_rejected() {
        let (_m, _h, mut pa) = mem();
        let mut d = dev();
        let buf = pa.alloc(2048); // half the data the nlb claims
        let cmd = NvmeCommand {
            opcode: Opcode::Read,
            cid: 9,
            nsid: 1,
            slba: 0,
            nlb: 8,
            prp: vec![buf],
        };
        d.qpair(0).sq_push(cmd);
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        let entries = d.qpair(0).cq_consume(16);
        assert_eq!(entries[0].status, NvmeStatus::InvalidField);
    }

    #[test]
    fn write_then_read_round_trip() {
        let (mut m, mut h, mut pa) = mem();
        let mut d = NvmeDevice::new(NvmeConfig::default(), Box::new(SparseBacking::new(7)), 1);
        let wbuf = pa.alloc(4096);
        let payload: Vec<u8> = (0..4096u32).map(|i| (i * 7 % 256) as u8).collect();
        h.write(wbuf.addr, &payload);
        let wcmd = NvmeCommand {
            opcode: Opcode::Write,
            cid: 1,
            nsid: 1,
            slba: 64,
            nlb: 8,
            prp: vec![wbuf],
        };
        d.qpair(0).sq_push(wcmd);
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        run_to_completion(&mut d, &mut m, &mut h);
        assert_eq!(d.qpair(0).cq_consume(16).len(), 1);

        let rbuf = pa.alloc(4096);
        d.qpair(0).sq_push(read_cmd(2, 64, 4096, rbuf));
        d.ring_sq_doorbell(Nanos::from_millis(1), 0);
        run_to_completion(&mut d, &mut m, &mut h);
        assert_eq!(d.qpair(0).cq_consume(16).len(), 1);
        assert_eq!(h.read_region(rbuf), payload);
    }

    #[test]
    fn dma_lands_in_llc() {
        let (mut m, mut h, mut pa) = mem();
        let mut d = dev();
        let buf = pa.alloc(16384);
        d.qpair(0).sq_push(read_cmd(1, 0, 16384, buf));
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        run_to_completion(&mut d, &mut m, &mut h);
        // Immediately DMA-able to a NIC without touching DRAM.
        let t = Nanos::from_millis(1);
        let out = m.dma_read(t, Agent::NicDma, buf);
        assert_eq!(
            out.dram_read_bytes, 0,
            "DDIO must keep fresh disk data in LLC"
        );
    }

    #[test]
    fn interrupts_fire_and_coalesce() {
        let (mut m, mut h, mut pa) = mem();
        let mut d = dev();
        let buf = pa.alloc(4096);
        d.qpair(0).sq_push(read_cmd(1, 0, 4096, buf));
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        let t = loop {
            let t = d.poll_at().expect("completion pending");
            if d.advance(t, &mut m, &mut h) > 0 {
                break t;
            }
        };
        let irq_at = d.irq_at().expect("interrupt scheduled");
        assert!(irq_at > t);
        assert!(!d.take_interrupt(t), "not before latency elapses");
        assert!(d.take_interrupt(irq_at));
        assert!(!d.take_interrupt(irq_at), "taken once");
    }

    #[test]
    fn injected_media_errors_suppress_dma_and_post_error_status() {
        let (mut m, mut h, mut pa) = mem();
        let mut d = dev();
        d.set_faults(
            dcn_faults::NvmeFaults {
                read_error_p: 0.2,
                ..dcn_faults::NvmeFaults::default()
            },
            77,
        );
        let n = 128u16;
        let bufs: Vec<PhysRegion> = (0..n).map(|_| pa.alloc(4096)).collect();
        for (i, buf) in bufs.iter().enumerate() {
            assert!(d
                .qpair(0)
                .sq_push(read_cmd(i as u16, i as u64 * 8, 4096, *buf)));
        }
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        run_to_completion(&mut d, &mut m, &mut h);
        let entries = d.qpair(0).cq_consume(usize::from(n) + 1);
        assert_eq!(entries.len(), usize::from(n));
        let errors = entries
            .iter()
            .filter(|e| e.status == NvmeStatus::MediaError)
            .count();
        assert!(errors > 5 && errors < 60, "errors={errors}");
        assert_eq!(
            errors as u64,
            d.fault_injector().unwrap().read_errors,
            "counter tracks fired errors"
        );
        // Failed reads transferred nothing; successful ones match the
        // backing store byte-for-byte.
        let mut by_cid: Vec<NvmeStatus> = vec![NvmeStatus::Success; usize::from(n)];
        for e in &entries {
            by_cid[usize::from(e.cid)] = e.status;
        }
        for (i, buf) in bufs.iter().enumerate() {
            let got = h.read_region(*buf);
            let mut want = vec![0u8; 4096];
            SyntheticBacking::new(7).expected(1, i as u64 * 8 * LBA_SIZE, &mut want);
            match by_cid[i] {
                NvmeStatus::Success => assert_eq!(got, want, "cid {i}"),
                NvmeStatus::MediaError => {
                    assert_eq!(got, vec![0u8; 4096], "cid {i}: DMA must be suppressed")
                }
                s => panic!("unexpected status {s:?}"),
            }
        }
        // Stats only count successful transfers.
        assert_eq!(d.completed_reads, (usize::from(n) - errors) as u64);
    }

    #[test]
    fn latency_spikes_stretch_individual_commands() {
        let (mut m, mut h, mut pa) = mem();
        let spiky = |p: f64, seed: u64| {
            let mut d = NvmeDevice::new(
                NvmeConfig {
                    firmware: FirmwareParams {
                        jitter_sigma: 0.0,
                        ..FirmwareParams::p3700()
                    },
                    ..NvmeConfig::default()
                },
                Box::new(SyntheticBacking::new(7)),
                1,
            );
            d.set_faults(
                dcn_faults::NvmeFaults {
                    latency_spike_p: p,
                    latency_spike_mult: 50.0,
                    ..dcn_faults::NvmeFaults::default()
                },
                seed,
            );
            d
        };
        // Baseline: QD1 16 KiB completion time without spikes.
        let mut d0 = spiky(0.0, 1);
        let b = pa.alloc(16384);
        d0.qpair(0).sq_push(read_cmd(1, 0, 16384, b));
        d0.ring_sq_doorbell(Nanos::ZERO, 0);
        let base = d0.poll_at().unwrap();
        // With spike_p = 1.0 every command is stretched.
        let mut d1 = spiky(1.0, 1);
        let b1 = pa.alloc(16384);
        d1.qpair(0).sq_push(read_cmd(1, 0, 16384, b1));
        d1.ring_sq_doorbell(Nanos::ZERO, 0);
        let spiked = d1.poll_at().unwrap();
        assert!(
            spiked.as_nanos() > base.as_nanos() * 10,
            "spiked {spiked:?} vs base {base:?}"
        );
        run_to_completion(&mut d1, &mut m, &mut h);
        assert_eq!(d1.fault_injector().unwrap().latency_spikes, 1);
    }

    #[test]
    fn doorbells_behind_the_latest_are_counted_with_their_lag() {
        let (mut m, mut h, mut pa) = mem();
        let mut d = dev();
        let mut ring = |d: &mut NvmeDevice, qid: u16, cid: u16, at_us: u64, cmds: u16| {
            for i in 0..cmds {
                let buf = pa.alloc(4096);
                assert!(d.qpair(qid).sq_push(read_cmd(cid + i, 0, 4096, buf)));
            }
            d.ring_sq_doorbell(Nanos::from_micros(at_us), qid);
        };
        ring(&mut d, 0, 0, 100, 1);
        ring(&mut d, 1, 10, 100, 1); // same time: not late
        ring(&mut d, 1, 20, 70, 2); // two commands 30 µs behind
        ring(&mut d, 0, 30, 300, 1);
        ring(&mut d, 0, 40, 200, 1); // 100 µs behind
        assert_eq!(d.late_submissions, 3);
        assert_eq!(d.late_lag_sum, Nanos::from_micros(160));
        assert_eq!(d.late_lag_max, Nanos::from_micros(100));
        assert_eq!(run_to_completion(&mut d, &mut m, &mut h), 6);
    }

    #[test]
    fn many_outstanding_commands_complete() {
        let (mut m, mut h, mut pa) = mem();
        let mut d = dev();
        let n = 64;
        for i in 0..n {
            let buf = pa.alloc(16384);
            assert!(d
                .qpair(0)
                .sq_push(read_cmd(i, u64::from(i) * 32, 16384, buf)));
        }
        d.ring_sq_doorbell(Nanos::ZERO, 0);
        assert_eq!(run_to_completion(&mut d, &mut m, &mut h), usize::from(n));
        assert_eq!(
            d.qpair(0).cq_consume(usize::from(n) + 1).len(),
            usize::from(n)
        );
        assert_eq!(d.completed_reads, u64::from(n));
        assert_eq!(d.read_bytes, u64::from(n) * 16384);
    }
}
