//! Conventional-stack connection state: the socket buffer.

use dcn_mem::PhysRegion;
use dcn_netdev::SgList;
use dcn_srvcore::Answer;
use dcn_store::FileId;
use std::collections::VecDeque;

/// One run of sendable bytes in the socket buffer.
#[derive(Clone, Debug)]
pub struct SendChunk {
    /// Stream offset of the first byte.
    pub stream_off: u64,
    /// The data: header bytes inline, payload as pinned buffer-cache
    /// pages (plaintext) or an owned ciphertext region (kTLS), TLS
    /// framing inline.
    pub sg: SgList,
    /// Pages to unpin when this chunk is fully acknowledged.
    pub pinned_pages: Vec<(FileId, u64)>,
    /// Ciphertext socket-buffer region to free when acknowledged.
    pub ct_region: Option<PhysRegion>,
    /// How many bytes from the front have been handed to TCP.
    pub sent: u64,
}

impl SendChunk {
    #[must_use]
    pub fn len(&self) -> u64 {
        self.sg.len()
    }
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sg.is_empty()
    }
    #[must_use]
    pub fn end(&self) -> u64 {
        self.stream_off + self.len()
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
    pub sendq: VecDeque<SendChunk>,
    /// Answered requests whose header is not in the socket buffer
    /// yet: each waits until every earlier body is.
    pub answered: VecDeque<Answer>,
    /// Responses whose bodies still need staging, oldest first.
    pub staging: VecDeque<StagedResponse>,
    /// Socket-buffer bytes currently held (flow control against
    /// sb_max).
    pub sb_bytes: u64,
    /// Next stream offset to append at.
    pub tx_cursor: u64,
    /// Disk fills in flight for this connection.
    pub fills_inflight: u32,
    pub responses_completed: u64,
}

impl KConn {
    /// Append a chunk to the socket buffer.
    pub fn enqueue(&mut self, sg: SgList, pinned: Vec<(FileId, u64)>, ct: Option<PhysRegion>) {
        let len = sg.len();
        debug_assert!(len > 0);
        self.sendq.push_back(SendChunk {
            stream_off: self.tx_cursor,
            sg,
            pinned_pages: pinned,
            ct_region: ct,
            sent: 0,
        });
        self.tx_cursor += len;
        self.sb_bytes += len;
    }

    /// Unsent bytes sitting in the socket buffer.
    #[must_use]
    pub fn unsent(&self) -> u64 {
        self.sendq.iter().map(|c| c.len() - c.sent).sum()
    }

    /// Take up to `budget` unsent bytes as one scatter-gather list
    /// (the TSO send unit).
    pub fn take_for_tx(&mut self, budget: u64) -> Option<(u64, SgList)> {
        let mut out = SgList::empty();
        let mut start_off = None;
        let mut budget = budget;
        for chunk in self.sendq.iter_mut() {
            if budget == 0 {
                break;
            }
            let avail = chunk.len() - chunk.sent;
            if avail == 0 {
                continue;
            }
            let n = avail.min(budget);
            let mut rest = chunk.sg.clone();
            let _ = rest.split_front(chunk.sent);
            let mut piece = rest;
            let piece = piece.split_front(n);
            if start_off.is_none() {
                start_off = Some(chunk.stream_off + chunk.sent);
            }
            chunk.sent += n;
            budget -= n;
            out.append(piece);
        }
        start_off.map(|off| (off, out))
    }

    /// Rebuild previously-sent bytes `[offset, offset+len)` from the
    /// socket buffer (retransmission — data is still here because it
    /// is unacknowledged).
    #[must_use]
    pub fn slice_sent(&self, offset: u64, len: u64) -> Option<SgList> {
        for chunk in &self.sendq {
            if offset >= chunk.stream_off && offset < chunk.end() {
                let rel = offset - chunk.stream_off;
                let n = len.min(chunk.len() - rel);
                let mut sg = chunk.sg.clone();
                let _ = sg.split_front(rel);
                let mut sg2 = sg;
                return Some(sg2.split_front(n));
            }
        }
        None
    }

    /// Release chunks fully covered by the cumulative ACK. Returns
    /// (pages to unpin, ciphertext regions to free, bytes released).
    pub fn release_acked(&mut self, acked_to: u64) -> (Vec<(FileId, u64)>, Vec<PhysRegion>, u64) {
        let mut pages = Vec::new();
        let mut regions = Vec::new();
        let mut released = 0;
        while let Some(front) = self.sendq.front() {
            if front.end() > acked_to {
                break;
            }
            let c = self.sendq.pop_front().expect("peeked");
            let len = c.len();
            pages.extend(c.pinned_pages);
            regions.extend(c.ct_region);
            released += len;
            self.sb_bytes -= len;
        }
        (pages, regions, released)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A fresh connection's stream starts at offset 0, the default.
    fn conn() -> KConn {
        KConn::default()
    }

    #[test]
    fn enqueue_take_release_cycle() {
        let mut c = conn();
        c.enqueue(
            SgList::from_bytes(vec![1; 1000]),
            vec![(FileId(1), 0)],
            None,
        );
        c.enqueue(SgList::from_bytes(vec![2; 500]), vec![(FileId(1), 1)], None);
        assert_eq!(c.sb_bytes, 1500);
        assert_eq!(c.unsent(), 1500);
        // Send 1200 bytes across chunk boundary.
        let (off, sg) = c.take_for_tx(1200).unwrap();
        assert_eq!(off, 0);
        assert_eq!(sg.len(), 1200);
        assert_eq!(c.unsent(), 300);
        // Ack only the first chunk.
        let (pages, _regions, released) = c.release_acked(1000);
        assert_eq!(pages, vec![(FileId(1), 0)]);
        assert_eq!(released, 1000);
        assert_eq!(c.sb_bytes, 500);
        // Partial-chunk ack releases nothing more.
        let (pages, _, released) = c.release_acked(1200);
        assert!(pages.is_empty());
        assert_eq!(released, 0);
    }

    #[test]
    fn retransmit_slice_comes_from_socket_buffer() {
        let mut c = conn();
        c.enqueue(SgList::from_bytes((0..100u8).collect()), vec![], None);
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
        c.enqueue(SgList::from_bytes(vec![7; 10_000]), vec![], None);
        let (o1, s1) = c.take_for_tx(4000).unwrap();
        let (o2, s2) = c.take_for_tx(100_000).unwrap();
        assert_eq!(o1, 0);
        assert_eq!(s1.len(), 4000);
        assert_eq!(o2, 4000);
        assert_eq!(s2.len(), 6000);
        assert!(c.take_for_tx(100).is_none(), "nothing unsent");
    }
}
