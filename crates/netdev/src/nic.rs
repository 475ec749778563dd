//! The NIC: TSO segmentation, per-port serialization, RSS RX
//! steering, DMA through the memory model.
//!
//! The evaluation server drives two 40 GbE ports (§4). Each TX ring
//! is bound to a port; the NIC drains rings in arrival order,
//! serializing frames at line rate. With TSO, one descriptor becomes
//! a train of MSS-sized wire frames whose TCP sequence numbers are
//! patched per frame and whose checksums are computed in hardware —
//! the train leaves back-to-back and is delivered to the wire as one
//! burst (the receiver's GRO view).

use crate::rings::{RxFrame, RxRing, TxRing};
use crate::sg::{PayloadBytes, SgList};
use crate::wire::WireFrame;
use dcn_mem::{Agent, Fidelity, HostMem, MemSystem};
use dcn_packet::{FlowId, Ipv4Repr, TcpRepr, ETH_HEADER_LEN};
use dcn_simcore::{Bandwidth, Nanos};

/// The L3/L4 identity of one wire frame, as the switch/fault layer
/// sees it: enough to classify retransmissions and tell data frames
/// from pure control frames, without materializing the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpFrameInfo {
    /// Direction-sensitive flow key (all four tuple fields folded).
    pub flow_key: u64,
    /// TCP sequence number of the first payload byte.
    pub seq: u32,
    /// TCP payload bytes (inline or scatter-gather).
    pub payload_len: u32,
}

/// A parsed frame's TCP payload, borrowed from the frame. Parsing
/// allocates nothing: a virtual (length-only) payload is never
/// materialized as a `Vec` of zeros unless a caller asks for one.
/// Servers copy into a reusable scratch via [`FramePayload::copy_into`],
/// clients append in-order bytes to one delivery buffer via
/// [`FramePayload::append_to`]; flow-routing callers that only look
/// at headers never touch it.
#[derive(Debug)]
pub enum FramePayload<'a> {
    /// Payload bytes present in the frame.
    Slice(&'a [u8]),
    /// Virtual payload: `n` bytes of zeros, by convention.
    Virtual(u64),
}

impl FramePayload<'_> {
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            FramePayload::Slice(b) => b.len(),
            FramePayload::Virtual(n) => *n as usize,
        }
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the payload into a reusable scratch buffer (cleared
    /// first; the buffer's capacity persists across calls).
    pub fn copy_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.append_to(out);
    }

    /// Append the payload to `out` (a virtual payload appends zeros).
    pub fn append_to(&self, out: &mut Vec<u8>) {
        match self {
            FramePayload::Slice(b) => out.extend_from_slice(b),
            FramePayload::Virtual(n) => out.resize(out.len() + *n as usize, 0),
        }
    }
}

/// Parse the flow/TCP header out of a wire frame (what RSS and a
/// stack's demux do). No checksum verification, no payload copy;
/// `None` for anything that doesn't parse as Ethernet + IPv4 + TCP.
#[must_use]
pub fn parse_frame(frame: &WireFrame) -> Option<(FlowId, TcpRepr, FramePayload<'_>)> {
    let h = &frame.headers;
    if h.len() < ETH_HEADER_LEN {
        return None;
    }
    let extra = frame.payload.len() as usize;
    let (ip, ip_off) = Ipv4Repr::parse_with_extra(&h[ETH_HEADER_LEN..], extra).ok()?;
    let (tcp, tcp_off) = TcpRepr::parse(&h[ETH_HEADER_LEN + ip_off..], None).ok()?;
    let flow = FlowId {
        src_ip: ip.src,
        dst_ip: ip.dst,
        src_port: tcp.src_port,
        dst_port: tcp.dst_port,
    };
    // Payload may live in headers (inline frames) or in the payload
    // field (data frames).
    let inline = &h[ETH_HEADER_LEN + ip_off + tcp_off..];
    let payload = if !inline.is_empty() {
        FramePayload::Slice(inline)
    } else {
        match &frame.payload {
            PayloadBytes::Real(b) => FramePayload::Slice(b),
            PayloadBytes::Virtual(n) => FramePayload::Virtual(*n),
        }
    };
    Some((flow, tcp, payload))
}

/// Peek at a frame's TCP header: [`parse_frame`] reduced to the
/// switch/fault layer's view.
#[must_use]
pub fn tcp_frame_info(frame: &WireFrame) -> Option<TcpFrameInfo> {
    let (flow, tcp, payload) = parse_frame(frame)?;
    let flow_key = (u64::from(flow.src_ip.0) << 32)
        ^ u64::from(flow.dst_ip.0)
        ^ (u64::from(flow.src_port) << 48)
        ^ (u64::from(flow.dst_port) << 16);
    Some(TcpFrameInfo {
        flow_key,
        seq: tcp.seq.0,
        payload_len: payload.len() as u32,
    })
}

pub use dcn_mem::Fidelity as NicFidelity;

/// NIC geometry and behaviour.
#[derive(Clone, Copy, Debug)]
pub struct NicConfig {
    /// Physical ports (each serializes independently).
    pub ports: usize,
    /// Line rate per port.
    pub port_rate: Bandwidth,
    /// TX/RX ring pairs (one per stack core; ring i transmits on port
    /// `i % ports`).
    pub rings: usize,
    pub ring_slots: usize,
    /// TX completions are reported in batches of this many (netmap's
    /// lazy reporting; 1 = timely, the §5 proposal).
    pub tx_report_batch: usize,
    /// Hardware TSO available (Chelsio T580 + the paper's netmap
    /// driver changes).
    pub tso: bool,
    pub fidelity: Fidelity,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            ports: 2,
            port_rate: Bandwidth::from_gbps(40.0),
            rings: 4,
            ring_slots: 1024,
            tx_report_batch: 32,
            tso: true,
            fidelity: Fidelity::Full,
        }
    }
}

/// A burst of frames that left one port back-to-back (one TSO train,
/// or a single frame). Delivered to the wire as a unit.
#[derive(Debug)]
pub struct SentBurst {
    /// When the last bit of the burst left the port.
    pub departed: Nanos,
    pub port: usize,
    pub ring: usize,
    /// The descriptor's completion token (0 = none) — lets callers
    /// correlate the burst back to the buffer / chunk it carried.
    pub completion: u64,
    /// DRAM bytes the payload DMA read actually touched. Zero means
    /// the whole payload was still LLC-resident at transmit time
    /// (the paper's ideal disk→LLC→wire path).
    pub dma_dram_bytes: u64,
    pub frames: Vec<WireFrame>,
}

struct Port {
    busy_until: Nanos,
}

/// The NIC device.
pub struct Nic {
    cfg: NicConfig,
    ports: Vec<Port>,
    pub tx_rings: Vec<TxRing>,
    pub rx_rings: Vec<RxRing>,
    /// Wire bytes transmitted (all ports).
    pub tx_wire_bytes: u64,
    /// Data payload bytes transmitted (excludes all headers).
    pub tx_payload_bytes: u64,
    pub tx_frames: u64,
}

impl Nic {
    #[must_use]
    pub fn new(cfg: NicConfig) -> Self {
        Nic {
            ports: (0..cfg.ports)
                .map(|_| Port {
                    busy_until: Nanos::ZERO,
                })
                .collect(),
            tx_rings: (0..cfg.rings)
                .map(|_| TxRing::new(cfg.ring_slots, cfg.tx_report_batch))
                .collect(),
            rx_rings: (0..cfg.rings)
                .map(|_| RxRing::new(cfg.ring_slots))
                .collect(),
            cfg,
            tx_wire_bytes: 0,
            tx_payload_bytes: 0,
            tx_frames: 0,
        }
    }

    #[must_use]
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    fn port_of_ring(&self, ring: usize) -> usize {
        ring % self.cfg.ports
    }

    /// Transmit pending descriptors on `ring` whose serialization can
    /// begin by `now`, at the port's line rate. Each TX descriptor
    /// becomes one burst. The payload DMA read happens **at transmit
    /// time**, not enqueue time — under backlog, data waits in the
    /// ring and may be evicted from the LLC before the NIC fetches it
    /// (the working-set effect §4.1 observes past 4 k connections).
    /// Descriptors whose start time is still in the future stay
    /// queued; [`Nic::poll_at`] says when to come back.
    pub fn tx_drain(
        &mut self,
        ring: usize,
        now: Nanos,
        mem: &mut MemSystem,
        host: &HostMem,
    ) -> Vec<SentBurst> {
        let port_idx = self.port_of_ring(ring);
        let mut out = Vec::new();
        loop {
            let start = self.ports[port_idx].busy_until.max(now);
            if self.ports[port_idx].busy_until > now {
                break; // port still serializing an earlier burst
            }
            let Some(desc) = self.tx_rings[ring].nic_take() else {
                break;
            };
            // DMA-read the payload regions (cache accounting) at the
            // moment the wire actually consumes them.
            let mut dma_dram_bytes = 0u64;
            for r in desc.payload.regions() {
                dma_dram_bytes += mem.dma_read(start, Agent::NicDma, r).dram_read_bytes;
            }
            let payload_len = desc.payload.len();
            let token = desc.completion;
            let frames = self.segment(desc, host);
            let burst_wire: u64 = frames.iter().map(WireFrame::wire_len).sum();
            let t = self.cfg.port_rate.tx_time(burst_wire);
            let departed = start + t;
            self.ports[port_idx].busy_until = departed;
            self.tx_wire_bytes += burst_wire;
            self.tx_payload_bytes += payload_len;
            self.tx_frames += frames.len() as u64;
            out.push(SentBurst {
                departed,
                port: port_idx,
                ring,
                completion: token,
                dma_dram_bytes,
                frames,
            });
            self.tx_rings[ring].nic_done(token);
        }
        out
    }

    /// Drain every ring (the per-core stacks each own one, but the
    /// ports are shared — a server's advance() services them all).
    pub fn tx_drain_all(
        &mut self,
        now: Nanos,
        mem: &mut MemSystem,
        host: &HostMem,
    ) -> Vec<SentBurst> {
        let mut out = Vec::new();
        for ring in 0..self.tx_rings.len() {
            out.extend(self.tx_drain(ring, now, mem, host));
        }
        out
    }

    /// Next instant a queued descriptor can start serializing.
    #[must_use]
    pub fn poll_at(&self) -> Option<Nanos> {
        let mut at: Option<Nanos> = None;
        for (ring, r) in self.tx_rings.iter().enumerate() {
            if r.pending_len() > 0 {
                let t = self.ports[self.port_of_ring(ring)].busy_until;
                at = Some(at.map_or(t, |a: Nanos| a.min(t)));
            }
        }
        at
    }

    /// TSO: split one descriptor into MSS-sized frames, patching the
    /// TCP sequence number per frame. Without TSO the descriptor
    /// must already be ≤ MSS and maps to exactly one frame, which
    /// takes the descriptor's header bytes (as does a Modeled train).
    fn segment(&self, desc: crate::rings::TxDescriptor, host: &HostMem) -> Vec<WireFrame> {
        let total = desc.payload.len();
        let mss = match desc.tso_mss {
            Some(m) if self.cfg.tso && total > u64::from(m) => u64::from(m),
            _ => {
                // Single frame.
                let payload = self.payload_bytes(&desc.payload, host);
                return vec![WireFrame::single(desc.headers, payload)];
            }
        };
        if self.cfg.fidelity == Fidelity::Modeled {
            // One aggregated frame per train: identical protocol
            // semantics at the GRO receiver, a fraction of the
            // simulation cost. Wire accounting still charges every
            // segment's headers (see WireFrame::wire_len).
            let n = total.div_ceil(mss) as u32;
            let mut headers = desc.headers;
            patch_ip_len(&mut headers, total);
            return vec![WireFrame {
                headers,
                payload: self.payload_bytes(&desc.payload, host),
                aggregated: n,
            }];
        }
        let mut frames = Vec::with_capacity((total / mss + 2) as usize);
        let mut rest = desc.payload;
        let mut off = 0u64;
        let base_seq = if desc.tcp_seq_off != usize::MAX {
            u32::from_be_bytes(
                desc.headers[desc.tcp_seq_off..desc.tcp_seq_off + 4]
                    .try_into()
                    .expect("seq field"),
            )
        } else {
            0
        };
        while !rest.is_empty() {
            let n = rest.len().min(mss);
            let chunk = rest.split_front(n);
            let mut headers = desc.headers.clone();
            if desc.tcp_seq_off != usize::MAX {
                let seq = base_seq.wrapping_add(off as u32);
                headers[desc.tcp_seq_off..desc.tcp_seq_off + 4].copy_from_slice(&seq.to_be_bytes());
            }
            // Patch the IP total length for this frame and restore a
            // valid header checksum — TSO hardware rewrites both per
            // derived frame (standard 14-byte Ethernet framing).
            patch_ip_len(&mut headers, n);
            frames.push(WireFrame::single(headers, self.payload_bytes(&chunk, host)));
            off += n;
        }
        frames
    }

    fn payload_bytes(&self, sg: &SgList, host: &HostMem) -> PayloadBytes {
        match self.cfg.fidelity {
            Fidelity::Full => PayloadBytes::Real(sg.materialize(host)),
            Fidelity::Modeled => {
                // Protocol bytes (HTTP headers, record framing) must
                // survive — receivers parse them — while bulk content
                // is zero-filled instead of read from host memory.
                let mut out = vec![0u8; sg.len() as usize];
                let mut pos = 0usize;
                for chunk in &sg.0 {
                    match chunk.as_slice() {
                        Some(b) => {
                            out[pos..pos + b.len()].copy_from_slice(b);
                            pos += b.len();
                        }
                        None => pos += chunk.len() as usize,
                    }
                }
                PayloadBytes::Real(out)
            }
        }
    }

    /// Deliver a frame arriving from the wire into RX ring
    /// `ring` (RSS steering is the caller's hash-based choice —
    /// symmetric with how connections are sharded across cores).
    /// DMA-writes the frame into host memory via the cache model.
    pub fn rx_deliver(
        &mut self,
        ring: usize,
        now: Nanos,
        frame: WireFrame,
        mem: &mut MemSystem,
        rx_slot_region: dcn_mem::PhysRegion,
    ) {
        mem.dma_write(
            now,
            Agent::NicDma,
            rx_slot_region.slice(0, frame.frame_len().min(rx_slot_region.len)),
        );
        self.rx_rings[ring].nic_deliver(RxFrame { at: now, frame });
    }

    /// Publish NIC counters into a dcn-obs registry under `nic.*`
    /// (idempotent registration; called at sample/report points, not
    /// on the per-frame hot path).
    pub fn publish_metrics(&self, reg: &mut dcn_obs::Registry) {
        let g = reg.gauge("nic.tx_wire_bytes");
        reg.set(g, self.tx_wire_bytes as f64);
        let g = reg.gauge("nic.tx_payload_bytes");
        reg.set(g, self.tx_payload_bytes as f64);
        let g = reg.gauge("nic.tx_frames");
        reg.set(g, self.tx_frames as f64);
        for (ring, r) in self.tx_rings.iter().enumerate() {
            let g = reg.gauge(&dcn_obs::registry::labeled(
                "nic.tx_ring_pending",
                &[("ring", ring as u64)],
            ));
            reg.set(g, r.pending_len() as f64);
        }
    }
}

/// Rewrite the IPv4 total-length field (and header checksum) for a
/// frame carrying `payload_len` L4 payload bytes past the TCP header
/// (standard 14-byte Ethernet + 20-byte IP framing).
fn patch_ip_len(headers: &mut [u8], payload_len: u64) {
    if headers.len() < 14 + 20 {
        return;
    }
    let l4_len = headers.len() as u64 - 14 - 20 + payload_len;
    let total = (20 + l4_len) as u16;
    headers[16..18].copy_from_slice(&total.to_be_bytes());
    headers[24..26].copy_from_slice(&[0, 0]);
    let csum = dcn_packet::internet_checksum(0, &headers[14..34]);
    headers[24..26].copy_from_slice(&csum.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rings::TxDescriptor;
    use dcn_mem::{CostParams, LlcConfig, PhysAlloc};

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

    fn data_desc(payload: SgList, mss: Option<u16>, seq: u32, token: u64) -> TxDescriptor {
        let mut headers = vec![0u8; 54];
        headers[38..42].copy_from_slice(&seq.to_be_bytes()); // 14+20+4
        TxDescriptor {
            headers,
            payload,
            tso_mss: mss,
            completion: token,
            tcp_seq_off: 38,
        }
    }

    #[test]
    fn tso_segments_and_patches_seq() {
        let (mut m, mut h, mut pa) = mem();
        let mut nic = Nic::new(NicConfig::default());
        let buf = pa.alloc(16384);
        h.fill_region(buf, |b| {
            b.iter_mut().enumerate().for_each(|(i, x)| *x = i as u8)
        });
        let desc = data_desc(SgList::from_region(buf), Some(1448), 1000, 7);
        nic.tx_rings[0].push(desc);
        let bursts = nic.tx_drain(0, Nanos::ZERO, &mut m, &h);
        assert_eq!(bursts.len(), 1);
        let frames = &bursts[0].frames;
        assert_eq!(frames.len(), 12); // ceil(16384/1448)
                                      // Sequence numbers advance by payload length.
        let seq_of = |f: &WireFrame| u32::from_be_bytes(f.headers[38..42].try_into().unwrap());
        assert_eq!(seq_of(&frames[0]), 1000);
        assert_eq!(seq_of(&frames[1]), 1000 + 1448);
        assert_eq!(seq_of(&frames[11]), 1000 + 11 * 1448);
        // Reassembled payload equals the buffer contents.
        let mut reassembled = Vec::new();
        for f in frames {
            let PayloadBytes::Real(b) = &f.payload else {
                panic!("full fidelity")
            };
            reassembled.extend_from_slice(b);
        }
        assert_eq!(reassembled, h.read_region(buf));
    }

    #[test]
    fn serialization_takes_line_rate_time() {
        let (mut m, h, mut pa) = mem();
        let mut nic = Nic::new(NicConfig {
            fidelity: Fidelity::Modeled,
            ..NicConfig::default()
        });
        let buf = pa.alloc(16384);
        let desc = data_desc(SgList::from_region(buf), Some(1448), 0, 1);
        nic.tx_rings[0].push(desc);
        let bursts = nic.tx_drain(0, Nanos::ZERO, &mut m, &h);
        let d = bursts[0].departed;
        // 16384B + 12*(54+24) overhead ≈ 17320B at 40Gb/s ≈ 3.46us.
        let us = d.as_micros_f64();
        assert!((3.0..4.5).contains(&us), "departure {us}us");
        // Next burst on the same port waits for the port: draining
        // while it is busy yields nothing (the descriptor stays
        // queued; poll_at says when to retry)...
        let buf2 = pa.alloc(16384);
        nic.tx_rings[0].push(data_desc(SgList::from_region(buf2), Some(1448), 0, 2));
        assert!(nic.tx_drain(0, Nanos::ZERO, &mut m, &h).is_empty());
        assert_eq!(nic.poll_at(), Some(d));
        // ...and draining at the port-free instant transmits it.
        let b2 = nic.tx_drain(0, d, &mut m, &h);
        assert!(b2[0].departed > d);
        assert_eq!(nic.poll_at(), None);
    }

    #[test]
    fn rings_map_to_ports_round_robin() {
        let nic = Nic::new(NicConfig::default());
        assert_eq!(nic.port_of_ring(0), 0);
        assert_eq!(nic.port_of_ring(1), 1);
        assert_eq!(nic.port_of_ring(2), 0);
        assert_eq!(nic.port_of_ring(3), 1);
    }

    #[test]
    fn ports_serialize_independently() {
        let (mut m, h, mut pa) = mem();
        let mut nic = Nic::new(NicConfig {
            fidelity: Fidelity::Modeled,
            ..NicConfig::default()
        });
        let b0 = pa.alloc(16384);
        let b1 = pa.alloc(16384);
        nic.tx_rings[0].push(data_desc(SgList::from_region(b0), Some(1448), 0, 1));
        nic.tx_rings[1].push(data_desc(SgList::from_region(b1), Some(1448), 0, 2));
        let d0 = nic.tx_drain(0, Nanos::ZERO, &mut m, &h)[0].departed;
        let d1 = nic.tx_drain(1, Nanos::ZERO, &mut m, &h)[0].departed;
        assert_eq!(
            d0, d1,
            "different ports do not serialize against each other"
        );
    }

    #[test]
    fn non_tso_descriptor_is_single_frame() {
        let (mut m, h, _pa) = mem();
        let mut nic = Nic::new(NicConfig::default());
        let desc = TxDescriptor {
            headers: vec![0; 54],
            payload: SgList::from_bytes(vec![9; 100]),
            tso_mss: None,
            completion: 0,
            tcp_seq_off: usize::MAX,
        };
        nic.tx_rings[0].push(desc);
        let bursts = nic.tx_drain(0, Nanos::ZERO, &mut m, &h);
        assert_eq!(bursts[0].frames.len(), 1);
        assert_eq!(bursts[0].frames[0].payload.len(), 100);
    }

    #[test]
    fn tx_dma_counts_against_cache_model() {
        let (mut m, h, mut pa) = mem();
        let mut nic = Nic::new(NicConfig {
            fidelity: Fidelity::Modeled,
            ..NicConfig::default()
        });
        let buf = pa.alloc(16384);
        // Buffer NOT in LLC → NIC DMA reads from DRAM.
        nic.tx_rings[0].push(data_desc(SgList::from_region(buf), Some(1448), 0, 1));
        nic.tx_drain(0, Nanos::ZERO, &mut m, &h);
        assert_eq!(m.counters.totals().dram_read_bytes, 16384);
    }
}
