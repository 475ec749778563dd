//! NVMe queue-pair data structures: submission queues, completion
//! queues, and doorbells, mirroring the NVMe 1.2 host interface the
//! paper's diskmap is built against (§3.1.1).

use dcn_mem::PhysRegion;
use std::collections::VecDeque;

/// NVMe I/O command opcodes (the subset a streaming server uses).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Opcode {
    Read,
    Write,
    Flush,
}

/// Completion status codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NvmeStatus {
    Success,
    /// LBA out of namespace range.
    LbaOutOfRange,
    /// Malformed command (zero-length data pointer, bad opcode...).
    InvalidField,
    /// Unrecoverable media read error (NVMe 1.2 §4.6.1 status 0x281):
    /// the command's data transfer did not happen. Injected by the
    /// fault layer; the host must treat the buffer as undefined.
    MediaError,
}

/// One submission-queue entry. Real SQEs carry PRP1/PRP2 with
/// page-list indirection; the model carries the resolved page list —
/// the diskmap layer builds it exactly the way a PRP list is built
/// (first entry may be unaligned, the rest are page-aligned).
#[derive(Clone, Debug)]
pub struct NvmeCommand {
    pub opcode: Opcode,
    /// Command identifier: echoed in the completion entry so the host
    /// can match completions to requests (out-of-order completion).
    pub cid: u16,
    /// Namespace id (1-based, as in NVMe).
    pub nsid: u32,
    /// Starting logical block address.
    pub slba: u64,
    /// Number of logical blocks (1-based count, unlike the wire
    /// format's 0-based field — kept human-safe here).
    pub nlb: u32,
    /// Resolved data pages (PRP list equivalent).
    pub prp: Vec<PhysRegion>,
}

impl NvmeCommand {
    /// Total data length described by the PRP list.
    #[must_use]
    pub fn data_len(&self) -> u64 {
        self.prp.iter().map(|r| r.len).sum()
    }
}

/// One completion-queue entry.
#[derive(Clone, Copy, Debug)]
pub struct CompletionEntry {
    pub cid: u16,
    pub status: NvmeStatus,
    /// SQ head pointer at completion time (flow control, as in NVMe).
    pub sq_head: u16,
}

/// A submission/completion queue pair in host memory.
///
/// The host writes commands into the SQ and rings the tail doorbell;
/// the device consumes them and posts completions into the CQ, which
/// the host consumes and acknowledges via the CQ head doorbell.
///
/// Both rings hold `depth` slots, but only queued entries are stored:
/// each side is a FIFO of the entries between its head and tail, so a
/// queue pair costs what it holds rather than `depth` slots. The
/// doorbell counters still wrap modulo `depth`, and the ring limits are
/// kept exactly: the SQ is full at `depth − 1` entries and a CQ with
/// `depth` pending entries overflows.
pub struct QueuePair {
    pub qid: u16,
    depth: u16,
    /// Pushed, not yet fetched by the device, oldest first.
    sq: VecDeque<NvmeCommand>,
    pub(crate) sq_head: u16,
    sq_tail_db: u16,
    /// Posted, not yet consumed by the host, oldest first.
    cq: VecDeque<CompletionEntry>,
    cq_head_db: u16,
}

impl QueuePair {
    #[must_use]
    pub fn new(qid: u16, depth: u16) -> Self {
        assert!(depth >= 2, "NVMe queues need at least 2 entries");
        QueuePair {
            qid,
            depth,
            sq: VecDeque::new(),
            sq_head: 0,
            sq_tail_db: 0,
            cq: VecDeque::new(),
            cq_head_db: 0,
        }
    }

    #[must_use]
    pub fn depth(&self) -> u16 {
        self.depth
    }

    /// Host side: free SQ slots (tail may not catch up to head-1).
    #[must_use]
    pub fn sq_space(&self) -> u16 {
        self.depth - 1 - self.sq.len() as u16
    }

    /// Host side: place a command in the next SQ slot. Returns false
    /// when the queue is full (caller must back off — this is the
    /// "queue full" condition a driver handles).
    pub fn sq_push(&mut self, cmd: NvmeCommand) -> bool {
        if self.sq_space() == 0 {
            return false;
        }
        self.sq.push_back(cmd);
        self.sq_tail_db = (self.sq_tail_db + 1) % self.depth;
        true
    }

    /// Host-visible SQ tail doorbell value (what `nvme_sqsync` writes
    /// to the device register).
    #[must_use]
    pub fn sq_tail(&self) -> u16 {
        self.sq_tail_db
    }

    /// Device side: fetch the oldest command the doorbell exposes,
    /// advancing the SQ head; `None` once the head reaches the tail.
    pub(crate) fn device_fetch(&mut self) -> Option<NvmeCommand> {
        let cmd = self.sq.pop_front()?;
        self.sq_head = (self.sq_head + 1) % self.depth;
        Some(cmd)
    }

    /// Device side: post a completion. Panics on CQ overflow — a real
    /// device would be fatally misconfigured; the driver sizes CQ ==
    /// SQ so it cannot happen.
    pub(crate) fn cq_post(&mut self, entry: CompletionEntry) {
        assert!(self.cq.len() < usize::from(self.depth), "CQ overflow");
        self.cq.push_back(entry);
    }

    /// Host side: consume up to `max` completions, advancing the CQ
    /// head doorbell.
    pub fn cq_consume(&mut self, max: usize) -> Vec<CompletionEntry> {
        let mut out = Vec::new();
        self.cq_consume_into(max, &mut out);
        out
    }

    /// Like [`Self::cq_consume`] but appends into a caller-provided
    /// vector, so a polling loop can reuse one scratch buffer instead
    /// of allocating per sweep. Returns how many entries were taken.
    pub fn cq_consume_into(&mut self, max: usize, out: &mut Vec<CompletionEntry>) -> usize {
        let taken = max.min(self.cq.len());
        out.extend(self.cq.drain(..taken));
        self.cq_head_db = ((usize::from(self.cq_head_db) + taken) % usize::from(self.depth)) as u16;
        taken
    }

    /// Host side: completions waiting without consuming.
    #[must_use]
    pub fn cq_pending(&self) -> usize {
        self.cq.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_mem::{PhysAddr, PhysRegion};
    use dcn_simcore::SimRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn cmd(cid: u16) -> NvmeCommand {
        NvmeCommand {
            opcode: Opcode::Read,
            cid,
            nsid: 1,
            slba: 0,
            nlb: 8,
            prp: vec![PhysRegion::new(PhysAddr(4096), 4096)],
        }
    }

    fn fetch_all(qp: &mut QueuePair) -> Vec<NvmeCommand> {
        std::iter::from_fn(|| qp.device_fetch()).collect()
    }

    fn done(cid: u16, sq_head: u16) -> CompletionEntry {
        CompletionEntry {
            cid,
            status: NvmeStatus::Success,
            sq_head,
        }
    }

    fn key(e: &CompletionEntry) -> (u16, NvmeStatus, u16) {
        (e.cid, e.status, e.sq_head)
    }

    #[test]
    fn sq_push_fetch_round_trip() {
        let mut qp = QueuePair::new(1, 8);
        assert!(qp.sq_push(cmd(1)));
        assert!(qp.sq_push(cmd(2)));
        let fetched = fetch_all(&mut qp);
        assert_eq!(fetched.len(), 2);
        assert_eq!(fetched[0].cid, 1);
        assert_eq!(fetched[1].cid, 2);
        assert_eq!(qp.sq_head, qp.sq_tail());
    }

    #[test]
    fn sq_full_is_reported() {
        let mut qp = QueuePair::new(1, 4);
        // depth-1 usable slots.
        assert!(qp.sq_push(cmd(1)));
        assert!(qp.sq_push(cmd(2)));
        assert!(qp.sq_push(cmd(3)));
        assert!(!qp.sq_push(cmd(4)), "queue must report full");
        // Drain and reuse.
        fetch_all(&mut qp);
        assert!(qp.sq_push(cmd(4)));
    }

    #[test]
    fn sq_full_at_depth_minus_one_after_wrap_at_any_depth() {
        // Depths that do not divide 2^16 too: the doorbells wrap modulo
        // `depth`, and the SQ still holds exactly `depth - 1` entries.
        for depth in [3u16, 6, 1000] {
            let mut qp = QueuePair::new(1, depth);
            for round in 0..3 * depth {
                assert!(qp.sq_push(cmd(round)));
                assert_eq!(fetch_all(&mut qp).len(), 1);
            }
            for cid in 0..depth - 1 {
                assert_eq!(qp.sq_space(), depth - 1 - cid);
                assert!(qp.sq_push(cmd(cid)), "depth {depth}: push {cid}");
            }
            assert_eq!(qp.sq_space(), 0);
            assert!(!qp.sq_push(cmd(depth)), "depth {depth}: full");
        }
    }

    #[test]
    fn cq_post_consume_fifo() {
        let mut qp = QueuePair::new(1, 8);
        for cid in [5u16, 3, 9] {
            qp.cq_post(done(cid, 0));
        }
        assert_eq!(qp.cq_pending(), 3);
        let got = qp.cq_consume(2);
        assert_eq!(got.iter().map(|e| e.cid).collect::<Vec<_>>(), vec![5, 3]);
        let got = qp.cq_consume(10);
        assert_eq!(got.len(), 1);
        assert_eq!(qp.cq_pending(), 0);
        assert_eq!(qp.cq_head_db, 3);
    }

    #[test]
    fn ring_wraparound_many_times() {
        let mut qp = QueuePair::new(1, 4);
        for round in 0..100u16 {
            assert!(qp.sq_push(cmd(round)));
            let f = fetch_all(&mut qp);
            assert_eq!(f.len(), 1);
            qp.cq_post(done(round, qp.sq_head));
            let c = qp.cq_consume(4);
            assert_eq!(c.len(), 1);
            assert_eq!(c[0].cid, round);
        }
    }

    /// The slot-array ring `QueuePair` was before it stored only queued
    /// entries: `depth` slots a side, every slot filled at
    /// construction. It is the reference the FIFO layout must match.
    struct SlotRing {
        depth: u16,
        sq: Vec<Option<u16>>,
        sq_head: u16,
        sq_tail: u16,
        cq: Vec<Option<CompletionEntry>>,
        cq_tail: u16,
        cq_head: u16,
    }

    impl SlotRing {
        fn new(depth: u16) -> Self {
            SlotRing {
                depth,
                sq: vec![None; usize::from(depth)],
                sq_head: 0,
                sq_tail: 0,
                cq: vec![None; usize::from(depth)],
                cq_tail: 0,
                cq_head: 0,
            }
        }

        fn sq_space(&self) -> u16 {
            let used = self.sq_tail.wrapping_sub(self.sq_head) % self.depth;
            self.depth - 1 - used
        }

        fn sq_push(&mut self, cid: u16) -> bool {
            if self.sq_space() == 0 {
                return false;
            }
            let slot = usize::from(self.sq_tail % self.depth);
            assert!(self.sq[slot].is_none(), "overwriting unconsumed SQE");
            self.sq[slot] = Some(cid);
            self.sq_tail = (self.sq_tail + 1) % self.depth;
            true
        }

        fn fetch(&mut self) -> Vec<u16> {
            let mut out = Vec::new();
            while self.sq_head != self.sq_tail {
                let slot = usize::from(self.sq_head % self.depth);
                out.push(self.sq[slot].take().expect("device fetched empty SQE"));
                self.sq_head = (self.sq_head + 1) % self.depth;
            }
            out
        }

        fn cq_post(&mut self, entry: CompletionEntry) {
            let slot = usize::from(self.cq_tail % self.depth);
            assert!(self.cq[slot].is_none(), "CQ overflow");
            self.cq[slot] = Some(entry);
            self.cq_tail = (self.cq_tail + 1) % self.depth;
        }

        fn cq_consume(&mut self, max: usize) -> Vec<CompletionEntry> {
            let mut out = Vec::new();
            while out.len() < max {
                let slot = usize::from(self.cq_head % self.depth);
                match self.cq[slot].take() {
                    Some(e) => {
                        out.push(e);
                        self.cq_head = (self.cq_head + 1) % self.depth;
                    }
                    None => break,
                }
            }
            out
        }

        fn cq_pending(&self) -> usize {
            let mut n = 0;
            let mut h = self.cq_head;
            while self.cq[usize::from(h % self.depth)].is_some() {
                n += 1;
                h = (h + 1) % self.depth;
                if n >= usize::from(self.depth) {
                    break;
                }
            }
            n
        }
    }

    fn assert_same(qp: &QueuePair, r: &SlotRing, step: usize) {
        assert_eq!(qp.sq_space(), r.sq_space(), "step {step}: sq_space");
        assert_eq!(qp.sq_tail(), r.sq_tail, "step {step}: sq_tail");
        assert_eq!(qp.sq_head, r.sq_head, "step {step}: sq_head");
        assert_eq!(qp.cq_pending(), r.cq_pending(), "step {step}: cq_pending");
        assert_eq!(qp.cq_head_db, r.cq_head, "step {step}: cq_head");
    }

    /// Seeded bursts of push, doorbell, post and consume against the
    /// slot-array ring: every return value and doorbell must agree.
    /// Bursts run up to a whole ring, so the SQ fills (full at
    /// `depth - 1`), the CQ fills to `depth`, and both wrap many times.
    fn matches_slot_ring(depth: u16, seed: u64, steps: usize) {
        let mut rng = SimRng::new(seed);
        let mut qp = QueuePair::new(3, depth);
        let mut r = SlotRing::new(depth);
        // Fetched by the device, not yet completed: (cid, sq_head).
        let mut in_device: Vec<(u16, u16)> = Vec::new();
        let mut next_cid = 0u16;
        let (mut fulls, mut wraps) = (0, 0);
        let burst = |rng: &mut SimRng| rng.gen_range(1, u64::from(depth) + 2) as usize;
        for step in 0..steps {
            match rng.gen_range(0, 4) {
                0 => {
                    for _ in 0..burst(&mut rng) {
                        let ok = qp.sq_push(cmd(next_cid));
                        assert_eq!(ok, r.sq_push(next_cid), "step {step}: push");
                        if !ok {
                            fulls += 1;
                            break;
                        }
                        next_cid = next_cid.wrapping_add(1);
                    }
                }
                1 => {
                    let before = qp.sq_head;
                    let got: Vec<u16> = fetch_all(&mut qp).iter().map(|c| c.cid).collect();
                    assert_eq!(got, r.fetch(), "step {step}: fetch");
                    if qp.sq_head < before {
                        wraps += 1;
                    }
                    in_device.extend(got.iter().map(|&c| (c, qp.sq_head)));
                }
                2 => {
                    let room = usize::from(depth) - r.cq_pending();
                    let n = burst(&mut rng).min(room).min(in_device.len());
                    for (cid, head) in in_device.drain(..n) {
                        qp.cq_post(done(cid, head));
                        r.cq_post(done(cid, head));
                    }
                }
                _ => {
                    let max = burst(&mut rng);
                    let got: Vec<_> = qp.cq_consume(max).iter().map(key).collect();
                    let want: Vec<_> = r.cq_consume(max).iter().map(key).collect();
                    assert_eq!(got, want, "step {step}: consume {max}");
                }
            }
            assert_same(&qp, &r, step);
        }
        assert!(
            fulls > 0 && wraps > 2,
            "depth {depth}: {fulls} fulls, {wraps} wraps"
        );
    }

    #[test]
    fn fifo_rings_match_slot_array_ring_at_depth_4_and_1024() {
        for seed in 0..16 {
            matches_slot_ring(4, seed, 400);
        }
        for seed in 0..4 {
            matches_slot_ring(1024, seed, 400);
        }
    }

    #[test]
    fn cq_overflows_at_depth_pending_entries_like_slot_array_ring() {
        for depth in [4u16, 1024] {
            let mut qp = QueuePair::new(1, depth);
            let mut r = SlotRing::new(depth);
            // Wrap the CQ once so the overflow hits mid-ring.
            for cid in 0..depth + depth / 2 {
                qp.cq_post(done(cid, 0));
                r.cq_post(done(cid, 0));
                qp.cq_consume(1);
                r.cq_consume(1);
            }
            for cid in 0..depth {
                qp.cq_post(done(cid, 0));
                r.cq_post(done(cid, 0));
            }
            assert_eq!(qp.cq_pending(), usize::from(depth));
            assert_eq!(r.cq_pending(), usize::from(depth));
            let fifo = catch_unwind(AssertUnwindSafe(|| qp.cq_post(done(0, 0))));
            let slot = catch_unwind(AssertUnwindSafe(|| r.cq_post(done(0, 0))));
            for (name, res) in [("fifo", fifo), ("slot", slot)] {
                let msg = res.expect_err(name);
                assert_eq!(msg.downcast_ref::<&str>(), Some(&"CQ overflow"), "{name}");
            }
        }
    }

    #[test]
    fn data_len_sums_prp() {
        let c = NvmeCommand {
            opcode: Opcode::Read,
            cid: 0,
            nsid: 1,
            slba: 0,
            nlb: 24,
            prp: vec![
                PhysRegion::new(PhysAddr(4096), 4096),
                PhysRegion::new(PhysAddr(8192), 4096),
                PhysRegion::new(PhysAddr(12288), 4096),
            ],
        };
        assert_eq!(c.data_len(), 12288);
    }
}
