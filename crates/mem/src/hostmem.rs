//! Sparse simulated host DRAM contents.
//!
//! The cache model in [`crate::llc`] tracks *residency*; this module
//! stores the actual *bytes* at physical addresses, so DMA in the
//! simulation really moves data: the NVMe model writes video content
//! into diskmap buffers, the TCP stack encrypts it in place, the NIC
//! reads frames out, and the client verifies every byte.
//!
//! Storage is a sparse page map holding only pages with live bytes: a
//! page materializes on its first write, and [`HostMem::discard`]
//! drops it again when its owner recycles the memory (a DMA buffer
//! going back to its pool). A simulated multi-terabyte address space
//! so costs memory proportional to the bytes in use, not to every
//! buffer ever touched.

use crate::phys::{PhysAddr, PhysRegion, CHUNK_SIZE};
use std::collections::HashMap;

const PAGE: usize = CHUNK_SIZE as usize;

/// Byte-addressable sparse physical memory.
#[derive(Default)]
pub struct HostMem {
    pages: HashMap<u64, Box<[u8; PAGE]>>,
}

impl HostMem {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of materialized 4 KiB pages (diagnostics).
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    fn page_mut(&mut self, pno: u64) -> &mut [u8; PAGE] {
        self.pages
            .entry(pno)
            .or_insert_with(|| Box::new([0u8; PAGE]))
    }

    /// Drop every whole page inside `region`: its bytes are dead, and
    /// it reads as zeros until written again. Pages the region only
    /// partly covers are kept, since bytes outside it may be live.
    pub fn discard(&mut self, region: PhysRegion) {
        let first = region.addr.0.div_ceil(CHUNK_SIZE);
        let end = region.end() / CHUNK_SIZE;
        for pno in first..end {
            self.pages.remove(&pno);
        }
    }

    /// Copy `data` into memory at `addr` (scatter across pages).
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) {
        let mut off = 0usize;
        let mut pos = addr.0;
        while off < data.len() {
            let pno = pos / CHUNK_SIZE;
            let in_page = (pos % CHUNK_SIZE) as usize;
            let n = (PAGE - in_page).min(data.len() - off);
            self.page_mut(pno)[in_page..in_page + n].copy_from_slice(&data[off..off + n]);
            off += n;
            pos += n as u64;
        }
    }

    /// Copy memory at `addr` into `out` (gather across pages). Pages
    /// never written read as zeros.
    pub fn read(&self, addr: PhysAddr, out: &mut [u8]) {
        let mut off = 0usize;
        let mut pos = addr.0;
        while off < out.len() {
            let pno = pos / CHUNK_SIZE;
            let in_page = (pos % CHUNK_SIZE) as usize;
            let n = (PAGE - in_page).min(out.len() - off);
            match self.pages.get(&pno) {
                Some(p) => out[off..off + n].copy_from_slice(&p[in_page..in_page + n]),
                None => out[off..off + n].fill(0),
            }
            off += n;
            pos += n as u64;
        }
    }

    /// Read an entire region into a fresh Vec.
    #[must_use]
    pub fn read_region(&self, region: PhysRegion) -> Vec<u8> {
        let mut v = vec![0u8; region.len as usize];
        self.read(region.addr, &mut v);
        v
    }

    /// Mutate a region in place (gather → closure → scatter). Used for
    /// in-place encryption: the closure sees the full contiguous
    /// logical buffer even when it spans pages.
    pub fn update_region<R>(&mut self, region: PhysRegion, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut v = self.read_region(region);
        let r = f(&mut v);
        self.write(region.addr, &v);
        r
    }

    /// Fill a region by generator: `f(byte_offset_within_region, out)`.
    pub fn fill_region(&mut self, region: PhysRegion, f: impl FnOnce(&mut [u8])) {
        let mut v = vec![0u8; region.len as usize];
        f(&mut v);
        self.write(region.addr, &v);
    }

    /// Copy `len` bytes between physical regions (the conventional
    /// stack's buffer copies).
    pub fn copy(&mut self, src: PhysAddr, dst: PhysAddr, len: u64) {
        let mut tmp = vec![0u8; len as usize];
        self.read(src, &mut tmp);
        self.write(dst, &tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip_across_pages() {
        let mut m = HostMem::new();
        let addr = PhysAddr(CHUNK_SIZE - 100); // straddles a boundary
        let data: Vec<u8> = (0..300).map(|i| (i % 251) as u8).collect();
        m.write(addr, &data);
        let mut out = vec![0u8; 300];
        m.read(addr, &mut out);
        assert_eq!(out, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = HostMem::new();
        let mut out = vec![0xAAu8; 64];
        m.read(PhysAddr(1 << 40), &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn update_region_in_place() {
        let mut m = HostMem::new();
        let r = PhysRegion::new(PhysAddr(8000), 1000);
        m.fill_region(r, |b| b.fill(7));
        m.update_region(r, |b| {
            for x in b.iter_mut() {
                *x += 1;
            }
        });
        assert!(m.read_region(r).iter().all(|&b| b == 8));
    }

    #[test]
    fn discard_drops_interior_pages_and_keeps_partial_edges() {
        let mut m = HostMem::new();
        // Pages 1..=4 written in full; the region covers the tail of
        // page 1, pages 2 and 3 whole, and the head of page 4.
        let written = PhysRegion::new(PhysAddr(CHUNK_SIZE), 4 * CHUNK_SIZE);
        m.fill_region(written, |b| b.fill(9));
        assert_eq!(m.resident_pages(), 4);
        m.discard(PhysRegion::new(PhysAddr(CHUNK_SIZE + 10), 3 * CHUNK_SIZE));
        assert_eq!(m.resident_pages(), 2, "pages 2 and 3 dropped");
        let page = |pno: u64| {
            let mut out = vec![0xAAu8; PAGE];
            m.read(PhysAddr(pno * CHUNK_SIZE), &mut out);
            out
        };
        assert!(page(1).iter().all(|&b| b == 9), "partial head page kept");
        assert!(page(4).iter().all(|&b| b == 9), "partial tail page kept");
        assert!(
            page(2).iter().all(|&b| b == 0),
            "discarded page reads zeros"
        );
        assert!(page(3).iter().all(|&b| b == 0));
    }

    #[test]
    fn write_after_discard_rematerializes_the_page() {
        let mut m = HostMem::new();
        let r = PhysRegion::new(PhysAddr(2 * CHUNK_SIZE), 2 * CHUNK_SIZE);
        m.fill_region(r, |b| b.fill(5));
        m.discard(r);
        assert_eq!(m.resident_pages(), 0);
        m.write(PhysAddr(2 * CHUNK_SIZE + 100), &[7; 8]);
        assert_eq!(m.resident_pages(), 1);
        let got = m.read_region(r);
        assert_eq!(&got[100..108], &[7; 8]);
        let rest = got[..100].iter().chain(&got[108..]);
        assert!(rest.copied().all(|b| b == 0), "no stale bytes return");
        // A region inside one page discards nothing.
        m.discard(PhysRegion::new(
            PhysAddr(2 * CHUNK_SIZE + 1),
            CHUNK_SIZE - 2,
        ));
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn copy_between_regions() {
        let mut m = HostMem::new();
        let src = PhysRegion::new(PhysAddr(4096), 512);
        m.fill_region(src, |b| {
            for (i, x) in b.iter_mut().enumerate() {
                *x = i as u8;
            }
        });
        m.copy(src.addr, PhysAddr(1_000_000), 512);
        let mut out = vec![0u8; 512];
        m.read(PhysAddr(1_000_000), &mut out);
        assert_eq!(out[255], 255);
        assert_eq!(out[0], 0);
    }
}
