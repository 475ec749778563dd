//! Per-connection state: response layouts and the stream map.
//!
//! An Atlas connection keeps no payload. What it keeps is *layout*:
//! for each response not yet fully acknowledged, where its header and
//! body sit in the TCP stream, so that any byte the peer loses can be
//! regenerated — header bytes from the request metadata, body bytes
//! by re-fetching the file range from disk and re-encrypting with the
//! stream-offset-derived nonce.

use dcn_crypto::RECORD_PAYLOAD_MAX;
use dcn_httpd::response::{RECORD_OVERHEAD, RECORD_WIRE};
use dcn_store::FileId;

/// Where a stream byte of a response body falls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BodyPos {
    /// Record index within the body.
    pub record: u64,
    /// Offset within the record's wire bytes (0 = first framing
    /// byte).
    pub off_in_record: u64,
}

/// The layout of one HTTP response on this connection's TCP stream.
#[derive(Clone, Debug)]
pub struct ResponseLayout {
    /// Stable id (pruning shifts positions, never ids).
    pub id: u64,
    /// Stream offset of the first header byte.
    pub start: u64,
    /// The header block (regenerable, kept because it is tiny).
    /// Shared (`Arc`) so cloning a layout for a completion, or slicing
    /// header bytes into a retransmit scatter-gather list, is a
    /// refcount bump instead of a heap copy.
    pub header: std::sync::Arc<[u8]>,
    pub file: FileId,
    /// Plaintext file offset where the body starts (non-zero for
    /// range-resumed responses; always record-aligned so disk fetches
    /// stay LBA-aligned).
    pub file_off: u64,
    /// Plaintext body length (file/chunk size minus `file_off`).
    pub body_len: u64,
    pub encrypted: bool,
}

impl ResponseLayout {
    /// Stream offset of the first body byte.
    #[must_use]
    pub fn body_start(&self) -> u64 {
        self.start + self.header.len() as u64
    }

    /// Wire length of the body.
    #[must_use]
    pub fn body_wire_len(&self) -> u64 {
        if self.encrypted {
            let records = self.body_len.div_ceil(RECORD_PAYLOAD_MAX).max(1);
            self.body_len + records * RECORD_OVERHEAD
        } else {
            self.body_len
        }
    }

    /// Stream offset one past the last byte of this response.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.body_start() + self.body_wire_len()
    }

    /// Number of records (encrypted) or 16 KiB fetch units
    /// (plaintext) in the body.
    #[must_use]
    pub fn n_records(&self) -> u64 {
        self.body_len.div_ceil(RECORD_PAYLOAD_MAX).max(1)
    }

    /// Plaintext length of record `i`.
    #[must_use]
    pub fn record_plain_len(&self, i: u64) -> u64 {
        let start = i * RECORD_PAYLOAD_MAX;
        (self.body_len - start).min(RECORD_PAYLOAD_MAX)
    }

    /// Wire length of record `i`.
    #[must_use]
    pub fn record_wire_len(&self, i: u64) -> u64 {
        self.record_plain_len(i) + if self.encrypted { RECORD_OVERHEAD } else { 0 }
    }

    /// Stream offset of record `i`'s first wire byte.
    #[must_use]
    pub fn record_stream_off(&self, i: u64) -> u64 {
        let per = if self.encrypted {
            RECORD_WIRE
        } else {
            RECORD_PAYLOAD_MAX
        };
        self.body_start() + i * per
    }

    /// File offset of record `i`'s plaintext.
    #[must_use]
    pub fn record_file_off(&self, i: u64) -> u64 {
        self.file_off + i * RECORD_PAYLOAD_MAX
    }

    /// Locate a body stream offset. Returns None for header bytes or
    /// out-of-response offsets.
    #[must_use]
    pub fn locate_body(&self, stream_off: u64) -> Option<BodyPos> {
        if stream_off < self.body_start() || stream_off >= self.end() {
            return None;
        }
        let rel = stream_off - self.body_start();
        let per = if self.encrypted {
            RECORD_WIRE
        } else {
            RECORD_PAYLOAD_MAX
        };
        Some(BodyPos {
            record: rel / per,
            off_in_record: rel % per,
        })
    }

    /// Does `stream_off` fall within the header block?
    #[must_use]
    pub fn in_header(&self, stream_off: u64) -> bool {
        stream_off >= self.start && stream_off < self.body_start()
    }
}

/// A fetch in flight for a connection.
#[derive(Clone, Copy, Debug)]
pub struct InflightFetch {
    /// Which response (stable layout id) and record.
    pub layout_id: u64,
    pub record: u64,
    /// Retransmission? Then only `[retx_off, retx_off+retx_len)` of
    /// the record's wire bytes are (re)sent.
    pub retx: Option<(u64, u64)>,
}

/// Atlas's per-connection state (the TCB, request parser and cipher
/// live in the shared front end's slot).
#[derive(Default)]
pub struct AtlasConn {
    /// Responses with unacknowledged bytes, oldest first. The last
    /// one may still be transmitting.
    pub layouts: Vec<ResponseLayout>,
    /// Next record of the active (last) layout to fetch.
    pub next_record: u64,
    /// Completed records (and headers) waiting for their turn on the
    /// TCP stream: disk completions arrive out of order, but a TCP
    /// stream is transmitted in order. Keyed by stream offset.
    pub ready_tx: std::collections::BTreeMap<u64, ReadyTx>,
    pub next_layout_id: u64,
    /// Window bytes reserved by issued-but-unsent fetches.
    pub reserved: u64,
    /// Retransmit ranges waiting for a disk fetch.
    pub retx_inflight: u32,
    pub fetches_inflight: u32,
    /// Consecutive disk-fetch failures (reset on any success); the
    /// degradation policy aborts the connection past a bound.
    pub fetch_failures: u32,
    /// Torn down by the error-recovery policy: no further service,
    /// late disk completions just return their buffers.
    pub aborted: bool,
    /// Statistics.
    pub responses_completed: u64,
    /// When the connection was accepted (header-read deadline base).
    pub established_at: dcn_simcore::Nanos,
    /// Last forward progress: a request parsed or new bytes acked.
    /// Idle-keepalive reaping keys on this.
    pub last_progress: dcn_simcore::Nanos,
    /// Has at least one complete request head ever arrived? Until it
    /// does, the connection is on the slowloris clock.
    pub got_request: bool,
    /// Highest cumulatively acked stream offset seen (drain-rate
    /// measurement input).
    pub acked_stream_off: u64,
    /// Drain-rate window: acked offset at the window start…
    pub drain_mark: u64,
    /// …and when the window started. Reset whenever the connection
    /// stops holding DMA buffers.
    pub drain_mark_at: dcn_simcore::Nanos,
    /// Acked offset at the last overload sweep (abort-slowest ranking).
    pub sweep_acked: u64,
    /// Completion-sweep serial of the last record packetized for this
    /// connection. Matching the server's current sweep means the TCB
    /// is hot from the previous record of the same batch, so the
    /// packetize pass charges the batched (amortized) TX op cost.
    pub tx_sweep: u64,
}

impl AtlasConn {
    /// Is the connection pinning DMA buffers right now (in-flight
    /// fetches, retransmit fetches, or completed records parked for
    /// their stream turn)?
    #[must_use]
    pub fn holds_buffers(&self) -> bool {
        self.fetches_inflight > 0
            || self.retx_inflight > 0
            || self.ready_tx.values().any(|r| r.token != 0)
    }

    /// DMA buffers pinned by fresh read-ahead: fetches in flight plus
    /// fetched records parked for their stream turn. Retransmit
    /// fetches are not counted.
    #[must_use]
    pub fn read_ahead(&self) -> usize {
        self.fetches_inflight as usize + self.ready_tx.values().filter(|r| r.token != 0).count()
    }

    /// No response in flight in any form — the keepalive-idle state.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.layouts.is_empty()
            && self.ready_tx.is_empty()
            && self.fetches_inflight == 0
            && self.retx_inflight == 0
    }

    /// The response currently being transmitted (if any records
    /// remain to fetch).
    #[must_use]
    pub fn active_layout(&self) -> Option<&ResponseLayout> {
        let l = self.layouts.last()?;
        (self.next_record < l.n_records()).then_some(l)
    }

    /// Drop layouts whose every byte is acknowledged.
    pub fn prune_acked(&mut self, acked_to: u64) {
        let keep_from = self
            .layouts
            .iter()
            .position(|l| l.end() > acked_to)
            .unwrap_or(self.layouts.len());
        if keep_from > 0 {
            self.layouts.drain(..keep_from);
        }
    }

    /// Find the layout containing `stream_off`.
    #[must_use]
    pub fn layout_at(&self, stream_off: u64) -> Option<usize> {
        self.layouts
            .iter()
            .position(|l| stream_off >= l.start && stream_off < l.end())
    }

    /// Find a layout by its stable id.
    #[must_use]
    pub fn layout_by_id(&self, id: u64) -> Option<&ResponseLayout> {
        self.layouts.iter().find(|l| l.id == id)
    }
}

/// A transmission-ready item parked until the stream reaches its
/// offset.
pub struct ReadyTx {
    pub sg: dcn_netdev::SgList,
    /// NIC completion token (diskmap buffer to recycle; 0 = none).
    pub token: u64,
    /// Responses completed when this goes out (metrics).
    pub completes_response: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(body: u64, encrypted: bool) -> ResponseLayout {
        ResponseLayout {
            id: 0,
            start: 1000,
            header: vec![0u8; 100].into(),
            file: FileId(3),
            file_off: 0,
            body_len: body,
            encrypted,
        }
    }

    #[test]
    fn plaintext_layout_maps_linearly() {
        let l = layout(300 * 1024, false);
        assert_eq!(l.body_start(), 1100);
        assert_eq!(l.body_wire_len(), 300 * 1024);
        assert_eq!(l.n_records(), 19);
        let p = l.locate_body(1100 + 20_000).unwrap();
        assert_eq!(p.record, 1);
        assert_eq!(p.off_in_record, 20_000 - 16384);
        // File offset of a record equals record × 16 KiB.
        assert_eq!(l.record_file_off(p.record), 16384);
    }

    #[test]
    fn encrypted_layout_accounts_for_framing() {
        let l = layout(300 * 1024, true);
        assert_eq!(l.body_wire_len(), 300 * 1024 + 19 * RECORD_OVERHEAD);
        // Record 1 starts one full wire record after the body start.
        assert_eq!(l.record_stream_off(1), l.body_start() + RECORD_WIRE);
        // Last record is short: 300KiB = 18*16KiB + 12288.
        assert_eq!(l.record_plain_len(18), 12288);
        assert_eq!(l.record_wire_len(18), 12288 + RECORD_OVERHEAD);
        // end() is consistent with summing records.
        let sum: u64 = (0..19).map(|i| l.record_wire_len(i)).sum();
        assert_eq!(l.end(), l.body_start() + sum);
    }

    #[test]
    fn locate_body_rejects_header_and_past_end() {
        let l = layout(16384, false);
        assert!(l.in_header(1000));
        assert!(l.in_header(1099));
        assert!(!l.in_header(1100));
        assert!(l.locate_body(1099).is_none());
        assert!(l.locate_body(1100).is_some());
        assert!(l.locate_body(l.end()).is_none());
        assert!(l.locate_body(l.end() - 1).is_some());
    }

    #[test]
    fn resumed_layout_offsets_records_into_the_file() {
        let l = ResponseLayout {
            file_off: 5 * RECORD_PAYLOAD_MAX,
            body_len: 300 * 1024 - 5 * RECORD_PAYLOAD_MAX,
            ..layout(0, true)
        };
        // Record framing is response-relative…
        assert_eq!(l.record_stream_off(1), l.body_start() + RECORD_WIRE);
        // …but disk reads are file-relative.
        assert_eq!(l.record_file_off(0), 5 * RECORD_PAYLOAD_MAX);
        assert_eq!(l.record_file_off(2), 7 * RECORD_PAYLOAD_MAX);
        assert_eq!(l.n_records(), 19 - 5);
    }

    #[test]
    fn tiny_body_is_one_record() {
        let l = layout(100, true);
        assert_eq!(l.n_records(), 1);
        assert_eq!(l.record_plain_len(0), 100);
        assert_eq!(l.body_wire_len(), 100 + RECORD_OVERHEAD);
    }

    #[test]
    fn conn_slot_size_budget() {
        // A connection keeps layout, not payload (§3). The record
        // cipher lives out of line and only on a server that seals.
        let size = std::mem::size_of::<dcn_srvcore::ConnSlot<AtlasConn>>();
        assert!(
            size <= 544,
            "ConnSlot<AtlasConn> is {size} B, over its 544 B budget: is \
             `ConnSlot::cipher` (a {} B RecordCipher) inline again?",
            std::mem::size_of::<dcn_crypto::RecordCipher>()
        );
    }
}
