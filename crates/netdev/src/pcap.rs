//! pcap capture of simulated traffic.
//!
//! Any point in the simulated network (server TX, client TX, the
//! middlebox) can be tapped into a classic libpcap file and opened in
//! Wireshark — the same debugging affordance smoltcp's examples
//! provide, and the fastest way to diagnose a protocol bug in the
//! simulated stacks. Timestamps are the simulation's virtual clock.

use crate::wire::WireFrame;
use dcn_simcore::Nanos;

/// Classic pcap global header values.
const PCAP_MAGIC_NS: u32 = 0xA1B2_3C4D; // nanosecond-resolution pcap
const PCAP_VERSION_MAJOR: u16 = 2;
const PCAP_VERSION_MINOR: u16 = 4;
const LINKTYPE_ETHERNET: u32 = 1;

/// An in-memory pcap writer (callers flush the bytes to disk when the
/// run completes; the simulator itself never does I/O).
pub struct PcapWriter {
    buf: Vec<u8>,
    snaplen: u32,
    frames: u64,
}

impl Default for PcapWriter {
    fn default() -> Self {
        Self::new(65535)
    }
}

impl PcapWriter {
    #[must_use]
    pub fn new(snaplen: u32) -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&PCAP_MAGIC_NS.to_le_bytes());
        buf.extend_from_slice(&PCAP_VERSION_MAJOR.to_le_bytes());
        buf.extend_from_slice(&PCAP_VERSION_MINOR.to_le_bytes());
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&snaplen.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        PcapWriter {
            buf,
            snaplen,
            frames: 0,
        }
    }

    /// Record one frame at virtual time `at`. The payload portion is
    /// whatever bytes the frame carries (real at full fidelity,
    /// zero-filled content at modeled fidelity — headers are always
    /// real, so Wireshark dissects the capture either way).
    pub fn record(&mut self, at: Nanos, frame: &WireFrame) {
        let secs = (at.as_nanos() / 1_000_000_000) as u32;
        let nanos = (at.as_nanos() % 1_000_000_000) as u32;
        let mut bytes = frame.headers.clone();
        match &frame.payload {
            crate::sg::PayloadBytes::Real(b) => bytes.extend_from_slice(b),
            crate::sg::PayloadBytes::Virtual(n) => {
                bytes.extend(std::iter::repeat_n(0u8, *n as usize));
            }
        }
        let orig_len = bytes.len() as u32;
        let incl = orig_len.min(self.snaplen);
        bytes.truncate(incl as usize);
        self.buf.extend_from_slice(&secs.to_le_bytes());
        self.buf.extend_from_slice(&nanos.to_le_bytes());
        self.buf.extend_from_slice(&incl.to_le_bytes());
        self.buf.extend_from_slice(&orig_len.to_le_bytes());
        self.buf.extend_from_slice(&bytes);
        self.frames += 1;
    }

    #[must_use]
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The complete pcap file contents.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow the bytes written so far.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sg::PayloadBytes;

    fn frame(n: usize) -> WireFrame {
        WireFrame::single(vec![0xEEu8; 54], PayloadBytes::Real(vec![0x11; n]))
    }

    #[test]
    fn header_is_valid_pcap() {
        let w = PcapWriter::default();
        let b = w.bytes();
        assert_eq!(&b[0..4], &PCAP_MAGIC_NS.to_le_bytes());
        assert_eq!(u16::from_le_bytes([b[4], b[5]]), 2);
        assert_eq!(u16::from_le_bytes([b[6], b[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([b[20], b[21], b[22], b[23]]),
            LINKTYPE_ETHERNET
        );
        assert_eq!(b.len(), 24);
    }

    #[test]
    fn records_carry_timestamps_and_lengths() {
        let mut w = PcapWriter::default();
        w.record(Nanos::from_secs(3) + Nanos::from_nanos(123), &frame(100));
        let b = w.bytes();
        let rec = &b[24..];
        assert_eq!(u32::from_le_bytes(rec[0..4].try_into().unwrap()), 3);
        assert_eq!(u32::from_le_bytes(rec[4..8].try_into().unwrap()), 123);
        assert_eq!(u32::from_le_bytes(rec[8..12].try_into().unwrap()), 154);
        assert_eq!(u32::from_le_bytes(rec[12..16].try_into().unwrap()), 154);
        assert_eq!(rec[16..].len(), 154);
        assert_eq!(w.frames(), 1);
    }

    #[test]
    fn snaplen_truncates_but_keeps_orig_len() {
        let mut w = PcapWriter::new(64);
        w.record(Nanos::ZERO, &frame(1000));
        let b = w.bytes();
        let rec = &b[24..];
        assert_eq!(u32::from_le_bytes(rec[8..12].try_into().unwrap()), 64);
        assert_eq!(u32::from_le_bytes(rec[12..16].try_into().unwrap()), 1054);
        assert_eq!(rec[16..].len(), 64);
    }

    #[test]
    fn virtual_payload_is_zero_filled() {
        let mut w = PcapWriter::default();
        let f = WireFrame::single(vec![0xAA; 54], PayloadBytes::Virtual(10));
        w.record(Nanos::ZERO, &f);
        let b = w.bytes();
        let data = &b[24 + 16..];
        assert_eq!(data.len(), 64);
        assert!(data[54..].iter().all(|&x| x == 0));
    }

    #[test]
    fn multiple_records_append() {
        let mut w = PcapWriter::default();
        for f in [frame(10), frame(20)] {
            w.record(Nanos::from_micros(5), &f);
        }
        assert_eq!(w.frames(), 2);
        let total = w.finish().len();
        assert_eq!(total, 24 + (16 + 64) + (16 + 74));
    }
}
