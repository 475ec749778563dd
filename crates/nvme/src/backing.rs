//! Block backing stores: where the device's LBAs get their bytes.
//!
//! The paper's catalog is ~3 TB of 300 KB video chunks per server —
//! far too large to materialize. [`SyntheticBacking`] generates the
//! byte at any (namespace, LBA, offset) from a positional PRF, so any
//! read is reproducible and any client can verify content
//! independently. [`SparseBacking`] overlays real written data for
//! tests that exercise the write path.

use crate::LBA_SIZE;
use dcn_simcore::prf_bytes;
use std::collections::HashMap;

/// Source of bytes for device reads / sink for writes.
pub trait BlockBacking {
    /// Fill `out` with the content at byte offset `lba * LBA_SIZE +
    /// offset` of namespace `nsid`.
    fn read(&self, nsid: u32, lba: u64, offset: u64, out: &mut [u8]);
    /// Store `data` at the given location.
    fn write(&mut self, nsid: u32, lba: u64, offset: u64, data: &[u8]);
}

/// Infinite deterministic content: byte `i` of namespace `n` is
/// `PRF(seed ^ n)[i]`. Writes are rejected (the streaming workload is
/// read-only; use [`SparseBacking`] when writes matter).
pub struct SyntheticBacking {
    seed: u64,
}

impl SyntheticBacking {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SyntheticBacking { seed }
    }

    fn ns_seed(&self, nsid: u32) -> u64 {
        self.seed ^ (u64::from(nsid) << 32) ^ 0xD15C_0000_0000_0000
    }

    /// The expected content at a location — used by clients to verify
    /// received data end to end.
    pub fn expected(&self, nsid: u32, byte_offset: u64, out: &mut [u8]) {
        prf_bytes(self.ns_seed(nsid), byte_offset, out);
    }
}

impl BlockBacking for SyntheticBacking {
    fn read(&self, nsid: u32, lba: u64, offset: u64, out: &mut [u8]) {
        prf_bytes(self.ns_seed(nsid), lba * LBA_SIZE + offset, out);
    }

    fn write(&mut self, _nsid: u32, _lba: u64, _offset: u64, _data: &[u8]) {
        panic!("SyntheticBacking is read-only; use SparseBacking for write tests");
    }
}

/// Synthetic base content with written data overlaid sparsely
/// (LBA-granular).
pub struct SparseBacking {
    base: SyntheticBacking,
    written: HashMap<(u32, u64), Box<[u8]>>,
}

impl SparseBacking {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SparseBacking {
            base: SyntheticBacking::new(seed),
            written: HashMap::new(),
        }
    }
}

impl BlockBacking for SparseBacking {
    fn read(&self, nsid: u32, lba: u64, offset: u64, out: &mut [u8]) {
        // Serve per-LBA, switching between overlay and base.
        let mut pos = lba * LBA_SIZE + offset;
        let mut done = 0usize;
        while done < out.len() {
            let cur_lba = pos / LBA_SIZE;
            let in_lba = (pos % LBA_SIZE) as usize;
            let n = (LBA_SIZE as usize - in_lba).min(out.len() - done);
            match self.written.get(&(nsid, cur_lba)) {
                Some(block) => out[done..done + n].copy_from_slice(&block[in_lba..in_lba + n]),
                None => self
                    .base
                    .read(nsid, cur_lba, in_lba as u64, &mut out[done..done + n]),
            }
            done += n;
            pos += n as u64;
        }
    }

    fn write(&mut self, nsid: u32, lba: u64, offset: u64, data: &[u8]) {
        let mut pos = lba * LBA_SIZE + offset;
        let mut done = 0usize;
        while done < data.len() {
            let cur_lba = pos / LBA_SIZE;
            let in_lba = (pos % LBA_SIZE) as usize;
            let n = (LBA_SIZE as usize - in_lba).min(data.len() - done);
            let block = self.written.entry((nsid, cur_lba)).or_insert_with(|| {
                // Read-modify-write against base content.
                let mut b = vec![0u8; LBA_SIZE as usize].into_boxed_slice();
                self.base.read(nsid, cur_lba, 0, &mut b);
                b
            });
            block[in_lba..in_lba + n].copy_from_slice(&data[done..done + n]);
            done += n;
            pos += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_reads_are_positional() {
        let b = SyntheticBacking::new(7);
        let mut whole = vec![0u8; 2048];
        b.read(1, 0, 0, &mut whole);
        // Read LBA 2 directly and compare to the slice.
        let mut part = vec![0u8; 512];
        b.read(1, 2, 0, &mut part);
        assert_eq!(&whole[1024..1536], &part[..]);
        // Sub-LBA offsets too.
        let mut tail = vec![0u8; 100];
        b.read(1, 2, 412, &mut tail);
        assert_eq!(&whole[1436..1536], &tail[..]);
    }

    #[test]
    fn namespaces_have_distinct_content() {
        let b = SyntheticBacking::new(7);
        let mut a = vec![0u8; 64];
        let mut c = vec![0u8; 64];
        b.read(1, 0, 0, &mut a);
        b.read(2, 0, 0, &mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn sparse_overlay_read_back() {
        let mut s = SparseBacking::new(7);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        // Unaligned write spanning 3 LBAs.
        s.write(1, 4, 200, &data);
        let mut back = vec![0u8; 1000];
        s.read(1, 4, 200, &mut back);
        assert_eq!(back, data);
        assert_eq!(s.written.len(), 3);
        // Bytes before the write keep base content.
        let base = SyntheticBacking::new(7);
        let mut got = vec![0u8; 200];
        let mut want = vec![0u8; 200];
        s.read(1, 4, 0, &mut got);
        base.read(1, 4, 0, &mut want);
        assert_eq!(got, want);
    }

    #[test]
    fn expected_matches_read() {
        let b = SyntheticBacking::new(9);
        let mut via_read = vec![0u8; 300];
        b.read(3, 10, 17, &mut via_read);
        let mut via_expected = vec![0u8; 300];
        b.expected(3, 10 * LBA_SIZE + 17, &mut via_expected);
        assert_eq!(via_read, via_expected);
    }
}
