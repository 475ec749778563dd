//! Ethernet II framing.

use crate::ParseError;

pub const ETH_HEADER_LEN: usize = 14;

/// A MAC address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Locally-administered address derived from a small host id —
    /// handy for generating fleets of simulated clients.
    #[must_use]
    pub const fn from_host_id(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

/// EtherType values the stack understands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EtherType {
    Ipv4,
    Arp,
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Unknown(other),
        }
    }
}

impl EtherType {
    #[must_use]
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Unknown(v) => v,
        }
    }
}

/// Parsed Ethernet header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EthernetRepr {
    pub dst: MacAddr,
    pub src: MacAddr,
    pub ethertype: EtherType,
}

impl EthernetRepr {
    /// Parse the header from the front of `frame`; returns the repr
    /// and the payload offset.
    pub fn parse(frame: &[u8]) -> Result<(EthernetRepr, usize), ParseError> {
        if frame.len() < ETH_HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&frame[0..6]);
        src.copy_from_slice(&frame[6..12]);
        let et = u16::from_be_bytes([frame[12], frame[13]]);
        Ok((
            EthernetRepr {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype: et.into(),
            },
            ETH_HEADER_LEN,
        ))
    }

    /// Emit the header into the front of `frame`.
    pub fn emit(&self, frame: &mut [u8]) {
        frame[0..6].copy_from_slice(&self.dst.0);
        frame[6..12].copy_from_slice(&self.src.0);
        frame[12..14].copy_from_slice(&self.ethertype.to_u16().to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let repr = EthernetRepr {
            dst: MacAddr::from_host_id(7),
            src: MacAddr::from_host_id(9),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = [0u8; ETH_HEADER_LEN];
        repr.emit(&mut buf);
        let (parsed, off) = EthernetRepr::parse(&buf).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(off, ETH_HEADER_LEN);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(EthernetRepr::parse(&[0u8; 13]), Err(ParseError::Truncated));
    }

    #[test]
    fn host_id_macs_are_local_and_unique() {
        let a = MacAddr::from_host_id(1);
        let b = MacAddr::from_host_id(2);
        assert_ne!(a, b);
        assert_eq!(a.0[0] & 0x02, 0x02, "locally administered bit");
        assert_eq!(a.0[0] & 0x01, 0x00, "unicast");
    }

    #[test]
    fn unknown_ethertype_preserved() {
        let et: EtherType = 0x88CCu16.into();
        assert_eq!(et.to_u16(), 0x88CC);
    }
}
