//! netmap-semantics TX/RX rings.
//!
//! Ownership of ring slots alternates between host and NIC exactly as
//! in netmap: the host fills TX slots and calls `txsync` (a syscall)
//! to hand them to hardware; it calls `rxsync` to harvest received
//! frames and return RX slots. Completion reporting on TX is
//! **lazy**: the host only learns that the NIC finished a slot (so
//! its buffer can be recycled) at a later sync, and the NIC updates
//! its completed-count in batches — the behaviour §4.1 identifies as
//! the source of Atlas's extra memory writes ("netmap does not
//! provide timely enough TX completion notifications to allow
//! buffers to be immediately reused").

use crate::sg::SgList;
use dcn_simcore::Nanos;
use std::collections::VecDeque;

/// What the stack puts in a TX slot.
#[derive(Clone, Debug)]
pub struct TxDescriptor {
    /// Ethernet+IP+TCP header template (real bytes, checksummed by
    /// the NIC when TSO is used).
    pub headers: Vec<u8>,
    /// Payload scatter-gather list (may be empty for pure ACKs).
    pub payload: SgList,
    /// When set, the NIC segments the payload into MSS-sized wire
    /// frames, adjusting sequence numbers per frame (TSO).
    pub tso_mss: Option<u16>,
    /// Opaque token reported back on completion (Atlas: the diskmap
    /// buffer to recycle; 0 = nothing to report).
    pub completion: u64,
    /// Offset of the TCP sequence-number field within `headers`
    /// (TSO needs to patch it per segment); `usize::MAX` if none.
    pub tcp_seq_off: usize,
}

/// A TX ring: queue of descriptors handed to the NIC plus the lazy
/// completion pipeline.
pub struct TxRing {
    pub(crate) slots: usize,
    /// Handed to NIC, not yet transmitted.
    pub(crate) pending: VecDeque<TxDescriptor>,
    /// Transmitted by the NIC but not yet *reported* to the host.
    pub(crate) done_unreported: Vec<u64>,
    /// Reported tokens waiting for the host to collect at next sync.
    pub(crate) reported: Vec<u64>,
    /// NIC reports completions only in batches of this many (netmap's
    /// interrupt-moderated completion behaviour).
    pub(crate) report_batch: usize,
    /// In-flight count (pending + transmitted-but-unreported).
    inflight: usize,
}

impl TxRing {
    #[must_use]
    pub fn new(slots: usize, report_batch: usize) -> Self {
        TxRing {
            slots,
            pending: VecDeque::new(),
            done_unreported: Vec::new(),
            reported: Vec::new(),
            report_batch: report_batch.max(1),
            inflight: 0,
        }
    }

    /// Free TX slots (descriptors the host may still enqueue).
    #[must_use]
    pub fn space(&self) -> usize {
        self.slots - self.inflight
    }

    /// Host: place a descriptor in the ring. Returns false when full
    /// — the stack must back off (and this backpressure is what
    /// couples the TCP loop to the NIC).
    pub fn push(&mut self, desc: TxDescriptor) -> bool {
        if self.inflight >= self.slots {
            return false;
        }
        self.inflight += 1;
        self.pending.push_back(desc);
        true
    }

    /// NIC: take the next descriptor to transmit.
    pub(crate) fn nic_take(&mut self) -> Option<TxDescriptor> {
        self.pending.pop_front()
    }

    /// NIC: mark a descriptor transmitted; its completion token joins
    /// the unreported set and is published in batches.
    pub(crate) fn nic_done(&mut self, token: u64) {
        self.done_unreported.push(token);
        if self.done_unreported.len() >= self.report_batch {
            self.publish();
        }
    }

    fn publish(&mut self) {
        let n = self.done_unreported.len();
        self.reported.append(&mut self.done_unreported);
        self.inflight -= n;
    }

    /// Host `txsync`: collect completion tokens published so far.
    /// (The enqueue side of txsync is `push` + the NIC advancing.)
    pub fn txsync_collect(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.reported)
    }

    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight
    }

    /// Descriptors handed to the NIC and not yet transmitted.
    #[must_use]
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Nonzero completion tokens the stack has not yet collected via
    /// `txsync_collect`: still queued for transmit, transmitted but
    /// unreported (lazy batching), or reported but uncollected. The
    /// buffer-pool leak audit counts these as legitimately held.
    #[must_use]
    pub fn unreclaimed_tokens(&self) -> u64 {
        (self.pending.iter().filter(|d| d.completion != 0).count()
            + self.done_unreported.iter().filter(|t| **t != 0).count()
            + self.reported.iter().filter(|t| **t != 0).count()) as u64
    }
}

/// A received frame as seen by the host after `rxsync`.
#[derive(Clone, Debug)]
pub struct RxFrame {
    pub at: Nanos,
    pub frame: crate::wire::WireFrame,
}

/// An RX ring: frames DMA'd by the NIC await `rxsync`.
pub struct RxRing {
    pub(crate) slots: usize,
    pub(crate) queued: VecDeque<RxFrame>,
    /// Frames dropped because the ring was full (host too slow).
    pub drops: u64,
}

impl RxRing {
    #[must_use]
    pub fn new(slots: usize) -> Self {
        RxRing {
            slots,
            queued: VecDeque::new(),
            drops: 0,
        }
    }

    pub(crate) fn nic_deliver(&mut self, f: RxFrame) {
        if self.queued.len() >= self.slots {
            self.drops += 1;
            return;
        }
        self.queued.push_back(f);
    }

    /// Host `rxsync`: harvest up to `max` frames.
    pub fn rxsync(&mut self, max: usize) -> Vec<RxFrame> {
        let n = max.min(self.queued.len());
        self.queued.drain(..n).collect()
    }

    #[must_use]
    pub fn pending(&self) -> usize {
        self.queued.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(token: u64) -> TxDescriptor {
        TxDescriptor {
            headers: vec![0; 54],
            payload: SgList::empty(),
            tso_mss: None,
            completion: token,
            tcp_seq_off: usize::MAX,
        }
    }

    #[test]
    fn tx_ring_backpressure() {
        let mut r = TxRing::new(2, 1);
        assert!(r.push(desc(1)));
        assert!(r.push(desc(2)));
        assert!(!r.push(desc(3)), "full ring rejects");
        // NIC sends one; with batch=1 it is immediately reported.
        let d = r.nic_take().unwrap();
        r.nic_done(d.completion);
        assert_eq!(r.space(), 1);
        assert!(r.push(desc(3)));
        assert_eq!(r.txsync_collect(), vec![1]);
    }

    #[test]
    fn lazy_completion_reporting_batches() {
        let mut r = TxRing::new(64, 4);
        for i in 0..6 {
            r.push(desc(i));
        }
        for _ in 0..3 {
            let d = r.nic_take().unwrap();
            r.nic_done(d.completion);
        }
        // Three done but below the batch: nothing visible, slots not
        // reclaimed.
        assert!(r.txsync_collect().is_empty());
        assert_eq!(r.space(), 64 - 6);
        let d = r.nic_take().unwrap();
        r.nic_done(d.completion);
        // Batch of 4 reached: all four published.
        assert_eq!(r.txsync_collect(), vec![0, 1, 2, 3]);
        assert_eq!(r.space(), 64 - 2);
    }

    #[test]
    fn rx_ring_drops_when_full() {
        let mut r = RxRing::new(2);
        let mk = || RxFrame {
            at: Nanos::ZERO,
            frame: crate::wire::WireFrame::single(vec![0; 54], crate::sg::PayloadBytes::Virtual(0)),
        };
        r.nic_deliver(mk());
        r.nic_deliver(mk());
        r.nic_deliver(mk());
        assert_eq!(r.drops, 1);
        assert_eq!(r.rxsync(10).len(), 2);
        assert_eq!(r.pending(), 0);
    }
}
