//! Conventional-stack connection state: the socket buffer.

use dcn_crypto::{record_header, GCM_TAG_LEN, RECORD_HEADER_LEN, RECORD_PAYLOAD_MAX};
use dcn_mem::{PhysAddr, PhysRegion};
use dcn_netdev::{SgChunk, SgList};
use dcn_srvcore::Answer;
use dcn_store::FileId;
use std::collections::VecDeque;

/// Wire bytes a kTLS record adds to its plaintext: the 5-byte header
/// and the 16-byte GCM tag.
const RECORD_FRAMING: u64 = (RECORD_HEADER_LEN + GCM_TAG_LEN) as u64;

/// Size of one ciphertext socket-buffer pool region: a full record's
/// ciphertext plus slack.
pub const CT_REGION_LEN: u64 = RECORD_PAYLOAD_MAX + 64;

/// What one socket-buffer chunk holds.
#[derive(Debug)]
enum Payload {
    /// A response header.
    Head(SgList),
    /// One plaintext sendfile fill: its buffer-cache pages, mapped
    /// straight into the socket buffer, and the run of consecutive
    /// file pages they pin until acknowledged.
    Sendfile {
        sg: SgList,
        file: FileId,
        first_page: u32,
        pages: u32,
    },
    /// One kTLS record of `plain` ciphertext bytes between its header
    /// and tag. The ciphertext sits at the front of the pool region at
    /// `pool` ([`CT_REGION_LEN`] bytes), freed when the record is
    /// acknowledged; the header follows from the length. The wire
    /// pieces are built when the bytes are sent, so a record
    /// allocates nothing.
    Record {
        pool: PhysAddr,
        plain: u32,
        tag: [u8; GCM_TAG_LEN],
    },
}

/// One run of sendable bytes in the socket buffer.
#[derive(Debug)]
struct SendChunk {
    /// Stream offset of the first byte.
    stream_off: u64,
    payload: Payload,
}

impl SendChunk {
    fn len(&self) -> u64 {
        match &self.payload {
            Payload::Head(sg) | Payload::Sendfile { sg, .. } => sg.len(),
            Payload::Record { plain, .. } => u64::from(*plain) + RECORD_FRAMING,
        }
    }
    fn end(&self) -> u64 {
        self.stream_off + self.len()
    }

    /// Append this chunk's bytes `[from, from + n)` to `out`, as the
    /// scatter-gather pieces TSO segments and the NIC reads: inline
    /// header bytes, buffer-cache or pool regions, inline tag bytes.
    fn push_to(&self, from: u64, n: u64, out: &mut SgList) {
        match &self.payload {
            Payload::Head(sg) | Payload::Sendfile { sg, .. } => out.push_window(&sg.0, from, n),
            Payload::Record { pool, plain, tag } => {
                let plain = u64::from(*plain);
                let pieces = [
                    SgChunk::inline(&record_header(plain)),
                    SgChunk::Region(PhysRegion::new(*pool, plain)),
                    SgChunk::inline(tag),
                ];
                out.push_window(&pieces, from, n);
            }
        }
    }
}

/// An in-flight response being staged into the socket buffer.
#[derive(Clone, Debug)]
pub struct StagedResponse {
    pub file: FileId,
    /// File offset the body starts at: 0, or the record-aligned start
    /// of a `Range` resume. Record framing and GCM nonces count from
    /// here.
    pub body_off: u64,
    /// File offset one past the body's last byte.
    pub end: u64,
    /// Next file offset to request from disk / the cache.
    pub next_fill: u64,
}

/// The kernel stack's per-connection state (the TCB, request parser
/// and cipher live in the shared front end's slot).
#[derive(Default)]
pub struct KConn {
    /// Socket send buffer: chunks not yet fully acknowledged,
    /// ordered by stream offset.
    sendq: VecDeque<SendChunk>,
    /// Index in `sendq` of the first chunk not wholly handed to TCP.
    next_tx: usize,
    /// Stream offset of the first byte not yet handed to TCP.
    tx_sent: u64,
    /// Answered requests whose header is not in the socket buffer
    /// yet: each waits until every earlier body is.
    pub answered: VecDeque<Answer>,
    /// Responses whose bodies still need staging, oldest first.
    pub staging: VecDeque<StagedResponse>,
    /// Socket-buffer bytes currently held (flow control against
    /// sb_max).
    pub sb_bytes: u64,
    /// Next stream offset to append at.
    tx_cursor: u64,
    /// Disk fills in flight for this connection.
    pub fills_inflight: u32,
    pub responses_completed: u64,
}

impl KConn {
    fn enqueue(&mut self, payload: Payload) {
        let chunk = SendChunk {
            stream_off: self.tx_cursor,
            payload,
        };
        let len = chunk.len();
        debug_assert!(len > 0);
        self.sendq.push_back(chunk);
        self.tx_cursor += len;
        self.sb_bytes += len;
    }

    /// Append a response header to the socket buffer.
    pub fn enqueue_head(&mut self, header: Vec<u8>) {
        self.enqueue(Payload::Head(SgList::from_bytes(header)));
    }

    /// Append a plaintext sendfile fill: `sg` maps `pages` pinned
    /// buffer-cache pages of `file`, consecutive from `first_page`.
    pub fn enqueue_sendfile(&mut self, sg: SgList, file: FileId, first_page: u64, pages: u32) {
        self.enqueue(Payload::Sendfile {
            sg,
            file,
            first_page: u32::try_from(first_page).expect("page index fits u32"),
            pages,
        });
    }

    /// Append one kTLS record of `plain` bytes whose ciphertext sits
    /// at the front of the pool region at `pool`.
    pub fn enqueue_record(&mut self, pool: PhysAddr, plain: u64, tag: [u8; GCM_TAG_LEN]) {
        assert!(
            plain > 0 && plain <= CT_REGION_LEN,
            "record outside its pool region"
        );
        self.enqueue(Payload::Record {
            pool,
            plain: plain as u32,
            tag,
        });
    }

    /// Unsent bytes sitting in the socket buffer.
    #[must_use]
    pub fn unsent(&self) -> u64 {
        self.tx_cursor - self.tx_sent
    }

    /// Take up to `budget` unsent bytes as one scatter-gather list
    /// (the TSO send unit).
    pub fn take_for_tx(&mut self, budget: u64) -> Option<(u64, SgList)> {
        let n = budget.min(self.unsent());
        if n == 0 {
            return None;
        }
        let (start, end) = (self.tx_sent, self.tx_sent + n);
        let mut out = SgList::empty();
        let mut off = start;
        while off < end {
            let chunk = &self.sendq[self.next_tx];
            let chunk_end = chunk.end();
            let to = end.min(chunk_end);
            chunk.push_to(off - chunk.stream_off, to - off, &mut out);
            if to == chunk_end {
                self.next_tx += 1;
            }
            off = to;
        }
        self.tx_sent = end;
        Some((start, out))
    }

    /// Rebuild previously-sent bytes `[offset, offset+len)` from the
    /// socket buffer (retransmission — data is still here because it
    /// is unacknowledged), up to the end of the chunk `offset` is in.
    #[must_use]
    pub fn slice_sent(&self, offset: u64, len: u64) -> Option<SgList> {
        let i = self
            .sendq
            .partition_point(|c| c.stream_off <= offset)
            .checked_sub(1)?;
        let chunk = &self.sendq[i];
        let (rel, chunk_len) = (offset - chunk.stream_off, chunk.len());
        if rel >= chunk_len {
            return None;
        }
        let mut out = SgList::empty();
        chunk.push_to(rel, len.min(chunk_len - rel), &mut out);
        Some(out)
    }

    /// Release chunks fully covered by the cumulative ACK: `unpin`
    /// gets each buffer-cache page they pinned, `free` each ciphertext
    /// pool region. Returns the bytes released.
    pub fn release_acked(
        &mut self,
        acked_to: u64,
        mut unpin: impl FnMut(FileId, u64),
        mut free: impl FnMut(PhysRegion),
    ) -> u64 {
        let mut released = 0;
        while let Some(c) = self.sendq.front() {
            if c.end() > acked_to {
                break;
            }
            match c.payload {
                Payload::Head(_) => {}
                Payload::Sendfile {
                    file,
                    first_page,
                    pages,
                    ..
                } => (first_page..first_page + pages).for_each(|p| unpin(file, u64::from(p))),
                Payload::Record { pool, .. } => free(PhysRegion::new(pool, CT_REGION_LEN)),
            }
            released += c.len();
            self.sendq.pop_front();
            self.next_tx = self
                .next_tx
                .checked_sub(1)
                .expect("acknowledged bytes were never sent");
        }
        self.sb_bytes -= released;
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_mem::PhysAddr;
    use dcn_simcore::SimRng;

    // A fresh connection's stream starts at offset 0, the default.
    fn conn() -> KConn {
        KConn::default()
    }

    fn region(addr: u64, len: u64) -> PhysRegion {
        PhysRegion::new(PhysAddr(addr), len)
    }

    /// Drain an ACK, collecting what it hands back.
    fn release(c: &mut KConn, acked_to: u64) -> (Vec<(FileId, u64)>, Vec<PhysRegion>, u64) {
        let (mut pages, mut regions) = (Vec::new(), Vec::new());
        let n = c.release_acked(acked_to, |f, p| pages.push((f, p)), |r| regions.push(r));
        (pages, regions, n)
    }

    #[test]
    fn a_chunk_is_at_most_48_bytes() {
        assert!(std::mem::size_of::<SendChunk>() <= 48);
    }

    #[test]
    fn enqueue_take_release_cycle() {
        let mut c = conn();
        c.enqueue_sendfile(SgList::from_region(region(0, 1000)), FileId(1), 0, 1);
        c.enqueue_sendfile(SgList::from_region(region(4096, 500)), FileId(1), 1, 1);
        assert_eq!(c.sb_bytes, 1500);
        assert_eq!(c.unsent(), 1500);
        // Send 1200 bytes across chunk boundary.
        let (off, sg) = c.take_for_tx(1200).unwrap();
        assert_eq!(off, 0);
        assert_eq!(sg.len(), 1200);
        assert_eq!(c.unsent(), 300);
        // Ack only the first chunk.
        let (pages, _regions, released) = release(&mut c, 1000);
        assert_eq!(pages, vec![(FileId(1), 0)]);
        assert_eq!(released, 1000);
        assert_eq!(c.sb_bytes, 500);
        // Partial-chunk ack releases nothing more.
        let (pages, _, released) = release(&mut c, 1200);
        assert!(pages.is_empty());
        assert_eq!(released, 0);
    }

    #[test]
    fn retransmit_slice_comes_from_socket_buffer() {
        let mut c = conn();
        c.enqueue_head((0..100u8).collect());
        c.take_for_tx(100);
        let sg = c.slice_sent(10, 20).unwrap();
        assert_eq!(sg.len(), 20);
        let dcn_netdev::SgChunk::Bytes(b) = &sg.0[0] else {
            panic!()
        };
        assert_eq!(b[0], 10);
        assert_eq!(b[19], 29);
        // Beyond the buffer: nothing.
        assert!(c.slice_sent(5000, 10).is_none());
    }

    #[test]
    fn take_for_tx_respects_budget_and_resumes() {
        let mut c = conn();
        c.enqueue_head(vec![7; 10_000]);
        let (o1, s1) = c.take_for_tx(4000).unwrap();
        let (o2, s2) = c.take_for_tx(100_000).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(s1.len(), 4000);
        assert_eq!(o2, 4000);
        assert_eq!(s2.len(), 6000);
        assert!(c.take_for_tx(100).is_none(), "nothing unsent");
    }

    /// The socket buffer before records lost their spine: every chunk
    /// owns its full scatter-gather list (a kTLS record's is header,
    /// ciphertext region, tag), its pinned pages one by one, and a
    /// per-chunk sent count.
    #[derive(Default)]
    struct RefQueue {
        chunks: VecDeque<RefChunk>,
        tx_cursor: u64,
        sb_bytes: u64,
    }

    struct RefChunk {
        stream_off: u64,
        sg: SgList,
        pinned_pages: Vec<(FileId, u64)>,
        ct_region: Option<PhysRegion>,
        sent: u64,
    }

    impl RefChunk {
        fn end(&self) -> u64 {
            self.stream_off + self.sg.len()
        }
    }

    impl RefQueue {
        fn enqueue(&mut self, sg: SgList, pinned: Vec<(FileId, u64)>, ct: Option<PhysRegion>) {
            let len = sg.len();
            self.chunks.push_back(RefChunk {
                stream_off: self.tx_cursor,
                sg,
                pinned_pages: pinned,
                ct_region: ct,
                sent: 0,
            });
            self.tx_cursor += len;
            self.sb_bytes += len;
        }

        fn unsent(&self) -> u64 {
            self.chunks.iter().map(|c| c.sg.len() - c.sent).sum()
        }

        fn take_for_tx(&mut self, budget: u64) -> Option<(u64, SgList)> {
            let mut out = SgList::empty();
            let mut start_off = None;
            let mut budget = budget;
            for chunk in &mut self.chunks {
                if budget == 0 {
                    break;
                }
                let avail = chunk.sg.len() - chunk.sent;
                if avail == 0 {
                    continue;
                }
                let n = avail.min(budget);
                let mut rest = chunk.sg.clone();
                let _ = rest.split_front(chunk.sent);
                let piece = rest.split_front(n);
                start_off.get_or_insert(chunk.stream_off + chunk.sent);
                chunk.sent += n;
                budget -= n;
                out.append(piece);
            }
            start_off.map(|off| (off, out))
        }

        fn slice_sent(&self, offset: u64, len: u64) -> Option<SgList> {
            let chunk = self
                .chunks
                .iter()
                .find(|c| offset >= c.stream_off && offset < c.end())?;
            let rel = offset - chunk.stream_off;
            let n = len.min(chunk.sg.len() - rel);
            let mut sg = chunk.sg.clone();
            let _ = sg.split_front(rel);
            Some(sg.split_front(n))
        }

        fn release_acked(&mut self, acked_to: u64) -> (Vec<(FileId, u64)>, Vec<PhysRegion>, u64) {
            let (mut pages, mut regions, mut released) = (Vec::new(), Vec::new(), 0);
            while self.chunks.front().is_some_and(|c| c.end() <= acked_to) {
                let c = self.chunks.pop_front().expect("peeked");
                pages.extend(c.pinned_pages);
                regions.extend(c.ct_region);
                released += c.sg.len();
                self.sb_bytes -= c.sg.len();
            }
            (pages, regions, released)
        }
    }

    /// The compact queue against the reference, operation for
    /// operation, over seeded heads, sendfile fills and kTLS records
    /// (random tags, as at full fidelity). TX budgets are aimed at the
    /// 5-byte headers and 16-byte tags and across record boundaries.
    #[test]
    fn compact_queue_matches_spined_reference() {
        let mut rng = SimRng::new(0x50c6_e7b0);
        let (mut c, mut r) = (conn(), RefQueue::default());
        let (mut next_page_addr, mut next_pool) = (1 << 30, 1 << 40);
        let (mut split_header, mut split_tag, mut crossings, mut retransmits) = (0, 0, 0, 0);
        for step in 0..20_000u64 {
            let roll = rng.next_f64();
            if roll < 0.3 || c.unsent() == 0 {
                match rng.gen_range(0, 10) {
                    0 => {
                        let head: Vec<u8> = (0..rng.gen_range(40, 400))
                            .map(|_| rng.next_u64() as u8)
                            .collect();
                        r.enqueue(SgList::from_bytes(head.clone()), Vec::new(), None);
                        c.enqueue_head(head);
                    }
                    1..=3 => {
                        let file = FileId(rng.gen_range(0, 1_000));
                        let first = rng.gen_range(0, 64);
                        let pages = rng.gen_range(1, 33);
                        let mut sg = SgList::empty();
                        for p in 0..pages {
                            let n = if p + 1 == pages {
                                rng.gen_range(1, 4097)
                            } else {
                                4096
                            };
                            sg.push_region(region(next_page_addr, n));
                            next_page_addr += 4096;
                        }
                        let pinned = (first..first + pages).map(|p| (file, p)).collect();
                        r.enqueue(sg.clone(), pinned, None);
                        c.enqueue_sendfile(sg, file, first, pages as u32);
                    }
                    _ => {
                        let plain = if rng.next_f64() < 0.7 {
                            16 * 1024
                        } else {
                            rng.gen_range(1, 16 * 1024)
                        };
                        let pool = region(next_pool, CT_REGION_LEN);
                        next_pool += CT_REGION_LEN;
                        let mut tag = [0u8; 16];
                        tag.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                        let mut sg = SgList::empty();
                        sg.push_inline(&record_header(plain));
                        sg.push_region(pool.slice(0, plain));
                        sg.push_inline(&tag);
                        r.enqueue(sg, Vec::new(), Some(pool));
                        c.enqueue_record(pool.addr, plain, tag);
                    }
                }
            } else if roll < 0.75 {
                // Aim the cut near the end of the chunk the send starts
                // in: inside its tag, or a few bytes into the next one.
                let left = c.sendq[c.next_tx].end() - c.tx_sent;
                let budget = match rng.gen_range(0, 4) {
                    0 => rng.gen_range(0, 30),
                    1 => left.saturating_sub(rng.gen_range(0, 17)),
                    2 => left + rng.gen_range(1, 7),
                    _ => rng.gen_range(1, 70_000),
                };
                let first = c.next_tx;
                let got = c.take_for_tx(budget);
                assert_eq!(got, r.take_for_tx(budget), "step {step}");
                if got.is_some() {
                    crossings += u64::from(c.next_tx > first + 1);
                    let end = c.tx_sent;
                    let i = c.sendq.partition_point(|ch| ch.stream_off < end);
                    if let Some(ch) = i.checked_sub(1).map(|i| &c.sendq[i]) {
                        if matches!(ch.payload, Payload::Record { .. }) && end < ch.end() {
                            split_header += u64::from(end - ch.stream_off < 5);
                            split_tag += u64::from(ch.end() - end < 16);
                        }
                    }
                }
            } else if roll < 0.9 {
                let lo = c.sendq.front().map_or(c.tx_sent, |f| f.stream_off);
                let offset = rng.gen_range(lo.saturating_sub(10), c.tx_sent + 10);
                let len = rng.gen_range(0, 40_000);
                let got = c.slice_sent(offset, len);
                retransmits += u64::from(got.is_some());
                assert_eq!(got, r.slice_sent(offset, len), "step {step}");
            } else {
                let lo = c.sendq.front().map_or(c.tx_sent, |f| f.stream_off);
                let acked_to = rng.gen_range(lo, c.tx_sent + 1);
                assert_eq!(
                    release(&mut c, acked_to),
                    r.release_acked(acked_to),
                    "step {step}"
                );
            }
            assert_eq!((c.unsent(), c.sb_bytes), (r.unsent(), r.sb_bytes));
            assert_eq!(c.tx_cursor, r.tx_cursor);
        }
        assert!(
            split_header > 100 && split_tag > 100,
            "{split_header} {split_tag}"
        );
        assert!(
            crossings > 500 && retransmits > 1_000,
            "{crossings} {retransmits}"
        );
    }

    #[test]
    fn conn_slot_size_budget() {
        // The record cipher lives out of line and only on a server
        // that seals; the socket buffer's chunks live on the heap.
        let size = std::mem::size_of::<dcn_srvcore::ConnSlot<KConn>>();
        assert!(
            size <= 536,
            "ConnSlot<KConn> is {size} B, over its 536 B budget: is \
             `ConnSlot::cipher` (a {} B RecordCipher) inline again?",
            std::mem::size_of::<dcn_crypto::RecordCipher>()
        );
    }
}
