//! Simulated physical address space.
//!
//! All DMA-visible memory (diskmap buffers, NIC rings, buffer-cache
//! pages, socket buffers) is carved out of a single flat physical
//! address space by [`PhysAlloc`]. The LLC model tracks residency at
//! [`CHUNK_SIZE`] granularity, so the allocator hands out chunk-aligned
//! regions: distinct buffers never share a chunk, which keeps the
//! cache model honest about working-set size.

/// Cache-model granularity. 4 KiB is coarse enough to track hundreds
/// of MB of working set cheaply and fine enough to resolve per-buffer
/// residency (diskmap buffers are 4–128 KiB).
pub const CHUNK_SIZE: u64 = 4096;

/// A simulated physical address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct PhysAddr(pub u64);

/// A contiguous physical byte range.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PhysRegion {
    pub addr: PhysAddr,
    pub len: u64,
}

impl PhysRegion {
    #[must_use]
    pub fn new(addr: PhysAddr, len: u64) -> Self {
        PhysRegion { addr, len }
    }

    #[must_use]
    pub fn end(&self) -> u64 {
        self.addr.0 + self.len
    }

    /// Sub-range `[off, off+len)` of this region. Panics when out of
    /// bounds — slicing past a DMA buffer is a driver bug.
    #[must_use]
    pub fn slice(&self, off: u64, len: u64) -> PhysRegion {
        assert!(
            off + len <= self.len,
            "slice {off}+{len} out of region len {}",
            self.len
        );
        PhysRegion {
            addr: PhysAddr(self.addr.0 + off),
            len,
        }
    }

    /// Chunk ids (page numbers) this region overlaps, as the half-open
    /// range `first..end` (empty for a zero-length region).
    #[must_use]
    pub fn chunks(&self) -> std::ops::Range<u64> {
        let first = self.addr.0 / CHUNK_SIZE;
        let last = if self.len == 0 {
            first
        } else {
            (self.end() - 1) / CHUNK_SIZE + 1
        };
        first..last
    }

    /// Bytes of this region that fall within `chunk`.
    #[must_use]
    pub fn len_within(&self, chunk: u64) -> u64 {
        let cs = chunk * CHUNK_SIZE;
        let ce = cs + CHUNK_SIZE;
        let s = self.addr.0.max(cs);
        let e = self.end().min(ce);
        e.saturating_sub(s)
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Bump allocator over the simulated physical address space.
///
/// Regions are never returned to the allocator: simulation components
/// (buffer pools, ring buffers, the buffer cache) allocate their
/// arenas once at startup and recycle internally — exactly how the
/// paper's diskmap pre-allocates all non-pageable memory at attach
/// time (§3.1.2).
#[derive(Debug, Default)]
pub struct PhysAlloc {
    next: u64,
}

impl PhysAlloc {
    #[must_use]
    pub fn new() -> Self {
        PhysAlloc { next: CHUNK_SIZE } // keep address 0 unused
    }

    /// Allocate a chunk-aligned region of at least `len` bytes.
    pub fn alloc(&mut self, len: u64) -> PhysRegion {
        let addr = PhysAddr(self.next);
        let span = len.div_ceil(CHUNK_SIZE) * CHUNK_SIZE;
        self.next += span.max(CHUNK_SIZE);
        PhysRegion { addr, len }
    }

    /// Total simulated physical memory handed out.
    #[must_use]
    pub fn allocated(&self) -> u64 {
        self.next - CHUNK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_chunk_aligned_and_disjoint() {
        let mut a = PhysAlloc::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(5000);
        let r3 = a.alloc(4096);
        assert_eq!(r1.addr.0 % CHUNK_SIZE, 0);
        assert_eq!(r2.addr.0 % CHUNK_SIZE, 0);
        assert!(r1.end() <= r2.addr.0);
        assert!(r2.addr.0 + 8192 <= r3.addr.0 + 8192); // r2 spans 2 chunks
        let c1: Vec<_> = r1.chunks().collect();
        let c2: Vec<_> = r2.chunks().collect();
        assert!(
            c1.iter().all(|c| !c2.contains(c)),
            "chunks must not be shared"
        );
    }

    #[test]
    fn chunks_iteration() {
        let r = PhysRegion {
            addr: PhysAddr(4096),
            len: 8192,
        };
        assert_eq!(r.chunks().collect::<Vec<_>>(), vec![1, 2]);
        let r = PhysRegion {
            addr: PhysAddr(4096),
            len: 1,
        };
        assert_eq!(r.chunks().collect::<Vec<_>>(), vec![1]);
        let r = PhysRegion {
            addr: PhysAddr(4000),
            len: 200,
        };
        assert_eq!(r.chunks().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn len_within_partial_chunks() {
        let r = PhysRegion {
            addr: PhysAddr(4000),
            len: 200,
        };
        assert_eq!(r.len_within(0), 96);
        assert_eq!(r.len_within(1), 104);
        assert_eq!(r.len_within(2), 0);
        assert_eq!(r.chunks().map(|c| r.len_within(c)).sum::<u64>(), r.len);
    }

    #[test]
    fn slice_within_bounds() {
        let r = PhysRegion {
            addr: PhysAddr(8192),
            len: 4096,
        };
        let s = r.slice(100, 200);
        assert_eq!(s.addr.0, 8292);
        assert_eq!(s.len, 200);
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn slice_out_of_bounds_panics() {
        let r = PhysRegion {
            addr: PhysAddr(0),
            len: 100,
        };
        let _ = r.slice(50, 100);
    }

    #[test]
    fn empty_region_has_no_chunks() {
        let r = PhysRegion {
            addr: PhysAddr(4096),
            len: 0,
        };
        assert_eq!(r.chunks().count(), 0);
        assert!(r.is_empty());
    }
}
