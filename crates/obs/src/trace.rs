//! Chunk-lifecycle tracer.
//!
//! Each 300 KB chunk the server pumps is stamped, in virtual time, at
//! every pipeline stage it crosses. The trace answers the two
//! questions aggregate counters cannot: *which stage delayed this
//! chunk*, and *was the chunk's buffer still LLC-resident when the
//! CPU encrypted it / when the NIC DMA'd it out* (the paper's
//! Fig 12/14 classification, per chunk).
//!
//! Disabled (the default), every entry point is an inlined
//! early-return — no allocation, no map lookup, no branch beyond the
//! flag test — so Modeled-fidelity sweeps pay nothing.

use dcn_simcore::{Histogram, Nanos};
use std::collections::HashMap;

/// Pipeline stages, in lifecycle order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// Client ACK opened window; server pump considered the stream.
    AckArrival = 0,
    /// Low-watermark rule decided to fetch this chunk from disk.
    WatermarkTrigger = 1,
    /// NVMe command placed on the SQ (doorbell rung at next sqsync).
    NvmeSubmit = 2,
    /// Device firmware posted the completion (data now in host LLC
    /// via DDIO, or DRAM if the DDIO way-cap evicted it).
    FirmwareComplete = 3,
    /// CPU began the in-place AES-GCM pass over the buffer.
    EncryptStart = 4,
    /// In-place encrypt finished; chunk queued for TX.
    EncryptEnd = 5,
    /// TSO packetization: TCP handed the sg-list to the NIC ring.
    TsoPacketize = 6,
    /// NIC read the buffer over DMA at wire transmit time.
    NicTxDma = 7,
    /// TX completion collected; buffer returned to the pool (LIFO).
    BufferRecycle = 8,
}

pub const STAGE_COUNT: usize = 9;

impl Stage {
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::AckArrival,
        Stage::WatermarkTrigger,
        Stage::NvmeSubmit,
        Stage::FirmwareComplete,
        Stage::EncryptStart,
        Stage::EncryptEnd,
        Stage::TsoPacketize,
        Stage::NicTxDma,
        Stage::BufferRecycle,
    ];

    /// snake_case name used in JSONL keys and summary tables.
    pub fn name(self) -> &'static str {
        match self {
            Stage::AckArrival => "ack_arrival",
            Stage::WatermarkTrigger => "watermark_trigger",
            Stage::NvmeSubmit => "nvme_submit",
            Stage::FirmwareComplete => "firmware_complete",
            Stage::EncryptStart => "encrypt_start",
            Stage::EncryptEnd => "encrypt_end",
            Stage::TsoPacketize => "tso_packetize",
            Stage::NicTxDma => "nic_tx_dma",
            Stage::BufferRecycle => "buffer_recycle",
        }
    }
}

/// What kind of fetch produced this chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// First-time fetch driven by the watermark rule.
    Fresh,
    /// Re-fetch from disk to service a TCP retransmission (§3.2:
    /// Atlas keeps no payload in memory, so loss re-reads the disk).
    RetransmitFetch,
}

impl ChunkKind {
    pub fn name(self) -> &'static str {
        match self {
            ChunkKind::Fresh => "fresh",
            ChunkKind::RetransmitFetch => "retransmit_fetch",
        }
    }
}

const UNSET: u64 = u64::MAX;

/// One chunk's journey through the pipeline.
#[derive(Debug, Clone)]
pub struct ChunkTrace {
    /// Fetch token — the NVMe `user` cookie, unique per fetch.
    pub chunk: u64,
    pub conn: u64,
    pub core: u32,
    /// Stream offset of the chunk's first payload byte.
    pub offset: u64,
    pub len: u64,
    pub kind: ChunkKind,
    /// Virtual-time stamp per stage, nanos; `u64::MAX` = not reached.
    pub stamps: [u64; STAGE_COUNT],
    /// Buffer LLC-resident when the CPU started encrypting?
    pub llc_at_encrypt: Option<bool>,
    /// Buffer LLC-resident when the NIC DMA'd it at transmit?
    pub llc_at_nic_dma: Option<bool>,
}

impl ChunkTrace {
    pub fn stamp_of(&self, s: Stage) -> Option<Nanos> {
        let v = self.stamps[s as usize];
        (v != UNSET).then_some(Nanos::from_nanos(v))
    }

    /// Latency of `s` measured from the closest earlier stamped
    /// stage (stages can be legitimately skipped, e.g. a retransmit
    /// fetch has no watermark trigger).
    pub fn stage_latency(&self, s: Stage) -> Option<Nanos> {
        let i = s as usize;
        if self.stamps[i] == UNSET {
            return None;
        }
        let prev = self.stamps[..i].iter().rev().find(|&&v| v != UNSET)?;
        Some(Nanos::from_nanos(self.stamps[i].saturating_sub(*prev)))
    }

    /// End-to-end: first stamp to last stamp.
    pub fn total_latency(&self) -> Option<Nanos> {
        let first = self.stamps.iter().find(|&&v| v != UNSET)?;
        let last = self.stamps.iter().rev().find(|&&v| v != UNSET)?;
        Some(Nanos::from_nanos(last.saturating_sub(*first)))
    }
}

/// Histogram range for per-stage latencies: 0–50 ms in µs.
const STAGE_HIST_HI_US: f64 = 50_000.0;
const STAGE_HIST_BUCKETS: usize = 2_500;

#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    live: HashMap<u64, ChunkTrace>,
    /// TX completion token → chunk token (the server's tx token
    /// encodes (core, disk, buf), not the fetch that filled the buf).
    tx_map: HashMap<u64, u64>,
    done: Vec<ChunkTrace>,
    /// Per-stage latency histograms, µs. Empty when disabled.
    stage_hists: Vec<Histogram>,
}

impl Tracer {
    /// The default: every entry point is a no-op. `Vec::new` /
    /// `HashMap::new` do not allocate, so a disabled tracer is free.
    pub fn disabled() -> Self {
        Self::default()
    }

    pub fn enabled() -> Self {
        Tracer {
            enabled: true,
            stage_hists: (0..STAGE_COUNT)
                .map(|_| Histogram::new(0.0, STAGE_HIST_HI_US, STAGE_HIST_BUCKETS))
                .collect(),
            ..Self::default()
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a trace for a chunk at fetch-decision time.
    #[inline]
    pub fn begin(
        &mut self,
        chunk: u64,
        conn: u64,
        core: u32,
        offset: u64,
        len: u64,
        kind: ChunkKind,
    ) {
        if !self.enabled {
            return;
        }
        self.live.insert(
            chunk,
            ChunkTrace {
                chunk,
                conn,
                core,
                offset,
                len,
                kind,
                stamps: [UNSET; STAGE_COUNT],
                llc_at_encrypt: None,
                llc_at_nic_dma: None,
            },
        );
    }

    /// Stamp `stage` for a live chunk at virtual time `now`.
    #[inline]
    pub fn stamp(&mut self, chunk: u64, stage: Stage, now: Nanos) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.live.get_mut(&chunk) {
            t.stamps[stage as usize] = now.as_nanos();
        }
    }

    #[inline]
    pub fn llc_at_encrypt(&mut self, chunk: u64, resident: bool) {
        if !self.enabled {
            return;
        }
        if let Some(t) = self.live.get_mut(&chunk) {
            t.llc_at_encrypt = Some(resident);
        }
    }

    /// Bind the TX completion token the NIC will echo back to this
    /// chunk, so transmit-side stamps can find the trace.
    #[inline]
    pub fn map_tx(&mut self, tx_token: u64, chunk: u64) {
        if !self.enabled {
            return;
        }
        self.tx_map.insert(tx_token, chunk);
    }

    /// Stamp a transmit-side stage through the TX-token indirection.
    #[inline]
    pub fn stamp_tx(&mut self, tx_token: u64, stage: Stage, now: Nanos) {
        if !self.enabled {
            return;
        }
        if let Some(&chunk) = self.tx_map.get(&tx_token) {
            self.stamp(chunk, stage, now);
        }
    }

    #[inline]
    pub fn llc_at_nic_dma_tx(&mut self, tx_token: u64, resident: bool) {
        if !self.enabled {
            return;
        }
        if let Some(&chunk) = self.tx_map.get(&tx_token) {
            if let Some(t) = self.live.get_mut(&chunk) {
                t.llc_at_nic_dma = Some(resident);
            }
        }
    }

    /// Drop a live chunk without completing it (failed I/O, response
    /// pruned while the fetch was in flight).
    #[inline]
    pub fn discard(&mut self, chunk: u64) {
        if !self.enabled {
            return;
        }
        self.live.remove(&chunk);
    }

    /// Close a chunk's lifecycle at buffer-recycle time: stamp the
    /// final stage, fold its per-stage latencies into the histograms,
    /// and move it to the finished list.
    #[inline]
    pub fn finish_tx(&mut self, tx_token: u64, now: Nanos) {
        if !self.enabled {
            return;
        }
        let Some(chunk) = self.tx_map.remove(&tx_token) else {
            return;
        };
        let Some(mut t) = self.live.remove(&chunk) else {
            return;
        };
        t.stamps[Stage::BufferRecycle as usize] = now.as_nanos();
        for s in Stage::ALL {
            if let Some(lat) = t.stage_latency(s) {
                self.stage_hists[s as usize].add(lat.as_micros_f64());
            }
        }
        self.done.push(t);
    }

    // -------------------------------------------------------- reads

    /// Finished chunk traces, in completion order.
    pub fn finished(&self) -> &[ChunkTrace] {
        &self.done
    }

    /// Per-stage latency histogram (µs). `None` when disabled.
    pub fn stage_hist(&self, s: Stage) -> Option<&Histogram> {
        self.stage_hists.get(s as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.begin(1, 0, 0, 0, 300_000, ChunkKind::Fresh);
        t.stamp(1, Stage::AckArrival, Nanos::from_micros(1));
        t.map_tx(99, 1);
        t.finish_tx(99, Nanos::from_micros(2));
        assert!(t.finished().is_empty());
        assert!(t.stage_hist(Stage::AckArrival).is_none());
    }

    #[test]
    fn lifecycle_stamps_and_latencies() {
        let mut t = Tracer::enabled();
        t.begin(7, 3, 1, 600_000, 300_000, ChunkKind::Fresh);
        let us = Nanos::from_micros;
        t.stamp(7, Stage::AckArrival, us(10));
        t.stamp(7, Stage::WatermarkTrigger, us(10));
        t.stamp(7, Stage::NvmeSubmit, us(12));
        t.stamp(7, Stage::FirmwareComplete, us(112));
        t.stamp(7, Stage::EncryptStart, us(113));
        t.llc_at_encrypt(7, true);
        t.stamp(7, Stage::EncryptEnd, us(140));
        t.map_tx(0xBEEF, 7);
        t.stamp_tx(0xBEEF, Stage::TsoPacketize, us(150));
        t.stamp_tx(0xBEEF, Stage::NicTxDma, us(160));
        t.llc_at_nic_dma_tx(0xBEEF, true);
        t.finish_tx(0xBEEF, us(170));

        assert_eq!(t.finished().len(), 1);
        let tr = &t.finished()[0];
        assert_eq!(tr.kind, ChunkKind::Fresh);
        assert_eq!(tr.llc_at_encrypt, Some(true));
        assert_eq!(tr.llc_at_nic_dma, Some(true));
        assert_eq!(tr.stage_latency(Stage::FirmwareComplete), Some(us(100)));
        assert_eq!(tr.stage_latency(Stage::BufferRecycle), Some(us(10)));
        assert_eq!(tr.total_latency(), Some(us(160)));
        assert_eq!(t.stage_hist(Stage::FirmwareComplete).unwrap().count(), 1);
    }

    #[test]
    fn skipped_stage_latency_bridges_gap() {
        // A retransmit fetch never crosses WatermarkTrigger: the
        // NvmeSubmit latency must bridge back to AckArrival.
        let mut t = Tracer::enabled();
        t.begin(1, 0, 0, 0, 4096, ChunkKind::RetransmitFetch);
        let us = Nanos::from_micros;
        t.stamp(1, Stage::AckArrival, us(5));
        t.stamp(1, Stage::NvmeSubmit, us(9));
        t.map_tx(2, 1);
        t.finish_tx(2, us(20));
        let tr = &t.finished()[0];
        assert_eq!(tr.stage_latency(Stage::NvmeSubmit), Some(us(4)));
        assert_eq!(tr.stage_latency(Stage::WatermarkTrigger), None);
        assert_eq!(tr.kind, ChunkKind::RetransmitFetch);
    }
}
