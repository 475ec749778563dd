//! TCP header handling with wrapping sequence arithmetic.

use crate::{internet_checksum, ParseError};

/// Minimum TCP header length (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// A TCP sequence number with RFC 793 modular comparison semantics.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct SeqNumber(pub u32);

impl SeqNumber {
    #[must_use]
    pub fn wrapping_add(self, n: u32) -> SeqNumber {
        SeqNumber(self.0.wrapping_add(n))
    }
    /// Signed distance `self - other` (correct across wraparound for
    /// spans < 2^31).
    #[must_use]
    pub fn dist(self, other: SeqNumber) -> i32 {
        self.0.wrapping_sub(other.0) as i32
    }
    #[must_use]
    pub fn lt(self, other: SeqNumber) -> bool {
        self.dist(other) < 0
    }
    #[must_use]
    pub fn le(self, other: SeqNumber) -> bool {
        self.dist(other) <= 0
    }
    #[must_use]
    pub fn gt(self, other: SeqNumber) -> bool {
        self.dist(other) > 0
    }
    #[must_use]
    pub fn ge(self, other: SeqNumber) -> bool {
        self.dist(other) >= 0
    }
    #[must_use]
    pub fn max_seq(self, other: SeqNumber) -> SeqNumber {
        if self.ge(other) {
            self
        } else {
            other
        }
    }
}

bitflags_lite! {
    /// TCP header flags.
    pub struct TcpFlags: u8 {
        const FIN = 0x01;
        const SYN = 0x02;
        const RST = 0x04;
        const PSH = 0x08;
        const ACK = 0x10;
    }
}

/// Tiny local bitflags implementation (keeps dependencies to the
/// approved list).
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $(const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name(pub $ty);
        impl $name {
            $(pub const $flag: $name = $name($val);)*
            pub const EMPTY: $name = $name(0);
            #[must_use]
            pub fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
        }
        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }
        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                let mut names: Vec<&str> = Vec::new();
                $(if self.contains($name::$flag) { names.push(stringify!($flag)); })*
                write!(f, "{}", if names.is_empty() { "·".to_string() } else { names.join("|") })
            }
        }
    };
}
use bitflags_lite;

/// Parsed TCP header (the options the stack uses, MSS, are surfaced;
/// others are skipped).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TcpRepr {
    pub src_port: u16,
    pub dst_port: u16,
    pub seq: SeqNumber,
    pub ack: SeqNumber,
    pub flags: TcpFlags,
    pub window: u16,
    /// MSS option (SYN segments only).
    pub mss: Option<u16>,
    /// Window-scale option (SYN segments only), RFC 7323.
    pub wscale: Option<u8>,
}

impl TcpRepr {
    /// Header length this repr will emit (options are padded to a
    /// 4-byte multiple).
    #[must_use]
    pub fn header_len(&self) -> usize {
        let opt =
            if self.mss.is_some() { 4 } else { 0 } + if self.wscale.is_some() { 3 } else { 0 };
        TCP_HEADER_LEN + (opt as usize).div_ceil(4) * 4
    }

    /// Parse a TCP header from `data`, verifying the checksum against
    /// the provided pseudo-header sum (pass `None` to skip — e.g. when
    /// NIC RX checksum offload already validated it).
    pub fn parse(data: &[u8], pseudo_sum: Option<u32>) -> Result<(TcpRepr, usize), ParseError> {
        if data.len() < TCP_HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let data_off = usize::from(data[12] >> 4) * 4;
        if !(TCP_HEADER_LEN..=60).contains(&data_off) || data.len() < data_off {
            return Err(ParseError::BadHeaderLen);
        }
        if let Some(ps) = pseudo_sum {
            if internet_checksum(ps, data) != 0 {
                return Err(ParseError::BadChecksum);
            }
        }
        // Scan options for MSS and window scale.
        let mut mss = None;
        let mut wscale = None;
        let mut i = TCP_HEADER_LEN;
        while i < data_off {
            match data[i] {
                0 => break,  // EOL
                1 => i += 1, // NOP
                2 if i + 4 <= data_off => {
                    mss = Some(u16::from_be_bytes([data[i + 2], data[i + 3]]));
                    i += 4;
                }
                3 if i + 3 <= data_off => {
                    wscale = Some(data[i + 2]);
                    i += 3;
                }
                _ => {
                    // Any other option: skip by its length byte.
                    if i + 1 >= data_off {
                        break;
                    }
                    let l = usize::from(data[i + 1]);
                    if l < 2 {
                        return Err(ParseError::BadHeaderLen);
                    }
                    i += l;
                }
            }
        }
        Ok((
            TcpRepr {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: SeqNumber(u32::from_be_bytes([data[4], data[5], data[6], data[7]])),
                ack: SeqNumber(u32::from_be_bytes([data[8], data[9], data[10], data[11]])),
                flags: TcpFlags(data[13] & 0x1F),
                window: u16::from_be_bytes([data[14], data[15]]),
                mss,
                wscale,
            },
            data_off,
        ))
    }

    /// Emit header + options into `buf` and compute the checksum over
    /// header and `payload` with the given pseudo-header sum. `buf`
    /// must be at least `header_len()` bytes.
    pub fn emit(&self, buf: &mut [u8], pseudo_sum: u32, payload: &[u8]) {
        let hl = self.header_len();
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.0.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.0.to_be_bytes());
        buf[12] = ((hl / 4) as u8) << 4;
        buf[13] = self.flags.0;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..18].copy_from_slice(&[0, 0]); // checksum placeholder
        buf[18..20].copy_from_slice(&[0, 0]); // urgent
        let mut o = TCP_HEADER_LEN;
        if let Some(mss) = self.mss {
            buf[o] = 2;
            buf[o + 1] = 4;
            buf[o + 2..o + 4].copy_from_slice(&mss.to_be_bytes());
            o += 4;
        }
        if let Some(ws) = self.wscale {
            buf[o] = 3;
            buf[o + 1] = 3;
            buf[o + 2] = ws;
            o += 3;
        }
        // Pad with NOPs to the emitted header length.
        while o < hl {
            buf[o] = 1;
            o += 1;
        }
        // Checksum over header then payload (chained).
        let head_sum = {
            let mut s = pseudo_sum;
            let mut chunks = buf[..hl].chunks_exact(2);
            for c in &mut chunks {
                s += u32::from(u16::from_be_bytes([c[0], c[1]]));
            }
            s
        };
        let csum = internet_checksum(head_sum, payload);
        buf[16..18].copy_from_slice(&csum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(payload_len: u16, hl: u16) -> u32 {
        // A fake but consistent pseudo-header sum.
        0x0A01_u32 + 0x0001 + 0x0A02 + 0x0063 + 6 + u32::from(payload_len + hl)
    }

    #[test]
    fn round_trip_with_payload_checksum() {
        let r = TcpRepr {
            src_port: 80,
            dst_port: 51234,
            seq: SeqNumber(0xDEAD_BEEF),
            ack: SeqNumber(0x0102_0304),
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 0xFFFF,
            mss: None,
            wscale: None,
        };
        let payload = b"hello video world";
        let mut buf = vec![0u8; r.header_len()];
        let ps = pseudo(payload.len() as u16, r.header_len() as u16);
        r.emit(&mut buf, ps, payload);
        let mut whole = buf.clone();
        whole.extend_from_slice(payload);
        let (parsed, off) = TcpRepr::parse(&whole, Some(ps)).unwrap();
        assert_eq!(parsed, r);
        assert_eq!(off, TCP_HEADER_LEN);
    }

    #[test]
    fn syn_mss_option_round_trip() {
        let r = TcpRepr {
            src_port: 51234,
            dst_port: 80,
            seq: SeqNumber(1),
            ack: SeqNumber(0),
            flags: TcpFlags::SYN,
            window: 65535,
            mss: Some(1460),
            wscale: Some(7),
        };
        let mut buf = vec![0u8; r.header_len()];
        let ps = pseudo(0, r.header_len() as u16);
        r.emit(&mut buf, ps, &[]);
        let (parsed, off) = TcpRepr::parse(&buf, Some(ps)).unwrap();
        assert_eq!(parsed.mss, Some(1460));
        assert_eq!(parsed.wscale, Some(7));
        assert_eq!(off, 28);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let r = TcpRepr {
            src_port: 80,
            dst_port: 51234,
            seq: SeqNumber(77),
            ack: SeqNumber(88),
            flags: TcpFlags::ACK,
            window: 1000,
            mss: None,
            wscale: None,
        };
        let payload = b"data data data";
        let mut buf = vec![0u8; r.header_len()];
        let ps = pseudo(payload.len() as u16, 20);
        r.emit(&mut buf, ps, payload);
        let mut whole = buf;
        whole.extend_from_slice(payload);
        whole[25] ^= 0x01;
        assert_eq!(
            TcpRepr::parse(&whole, Some(ps)),
            Err(ParseError::BadChecksum)
        );
    }

    #[test]
    fn seq_arithmetic_wraps() {
        let a = SeqNumber(u32::MAX - 10);
        let b = a.wrapping_add(20);
        assert_eq!(b.0, 9);
        assert!(a.lt(b));
        assert!(b.gt(a));
        assert_eq!(b.dist(a), 20);
        assert_eq!(a.dist(b), -20);
        assert_eq!(a.max_seq(b), b);
    }

    #[test]
    fn flags_bit_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::FIN));
        assert_eq!(format!("{f:?}"), "SYN|ACK");
    }

    #[test]
    fn parse_skips_unknown_options() {
        // Build a header with NOP, NOP, MSS manually.
        let r = TcpRepr {
            src_port: 1,
            dst_port: 2,
            seq: SeqNumber(0),
            ack: SeqNumber(0),
            flags: TcpFlags::SYN,
            window: 100,
            mss: None,
            wscale: None,
        };
        let mut buf = vec![0u8; 28];
        r.emit(&mut buf, 0, &[]);
        buf[12] = 7 << 4; // 28-byte header
        buf[20] = 1; // NOP
        buf[21] = 1; // NOP
        buf[22] = 2; // MSS
        buf[23] = 4;
        buf[24..26].copy_from_slice(&1200u16.to_be_bytes());
        buf[26] = 0; // EOL
        let (parsed, off) = TcpRepr::parse(&buf, None).unwrap();
        assert_eq!(parsed.mss, Some(1200));
        assert_eq!(off, 28);
    }
}
