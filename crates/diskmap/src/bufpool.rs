//! Diskmap DMA buffer pool.
//!
//! All buffers are pre-allocated, non-pageable, and shared between
//! the NVMe hardware and the application (§3.1.2). Each buffer carries
//! the metadata the paper lists: a unique index, the current length,
//! and the physical address libnvme uses when constructing commands.
//!
//! The pool is one chunk-aligned physical allocation: buffer `i`
//! starts `i` strides past the base, a stride being the buffer size
//! rounded up to whole chunks. That is the layout one `PhysAlloc` call
//! per buffer would give, so addresses come from arithmetic and only
//! the length and in-use flag are stored per buffer.
//!
//! The free list is a **LIFO stack** on purpose: §4.1 argues that
//! strict LIFO recycling of DMA buffers minimizes the stack's working
//! set and maximizes DDIO efficacy (the most-recently-freed buffer is
//! the one most likely still resident in the LLC). Never-used buffers
//! sit below every recycled one in index order, so the stack holds only
//! recycled buffers and a counter hands out the rest: pop order is
//! 0, 1, 2, … with recycled buffers first.

use dcn_mem::{PhysAddr, PhysAlloc, PhysRegion, CHUNK_SIZE};

/// Index of a diskmap buffer within its pool.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufId(pub u32);

#[derive(Clone, Copy, Default, Debug)]
struct BufState {
    len: u64,
    in_use: bool,
}

/// Fixed-size pool of equal-sized DMA buffers.
pub struct BufPool {
    base: PhysAddr,
    /// Distance between buffer starts (whole chunks).
    stride: u64,
    buf_size: u64,
    bufs: Vec<BufState>,
    /// Recycled buffers, most recently freed on top.
    free: Vec<u32>,
    /// Buffers `fresh..capacity` have never been handed out.
    fresh: u32,
}

impl BufPool {
    /// Pre-allocate `count` buffers of `buf_size` bytes from the
    /// simulated physical address space.
    #[must_use]
    pub fn new(count: u32, buf_size: u64, phys: &mut PhysAlloc) -> Self {
        assert!(buf_size > 0, "diskmap buffers must hold at least one byte");
        let stride = buf_size.div_ceil(CHUNK_SIZE) * CHUNK_SIZE;
        let base = if count == 0 {
            PhysAddr::default()
        } else {
            phys.alloc(u64::from(count) * stride).addr
        };
        BufPool {
            base,
            stride,
            buf_size,
            bufs: vec![BufState::default(); count as usize],
            free: Vec::new(),
            fresh: 0,
        }
    }

    #[must_use]
    pub fn buf_size(&self) -> u64 {
        self.buf_size
    }
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.bufs.len() as u32
    }
    #[must_use]
    pub fn available(&self) -> u32 {
        self.free.len() as u32 + self.capacity() - self.fresh
    }

    /// Pop the most-recently-freed buffer (LIFO), else the lowest
    /// never-used one.
    pub fn alloc(&mut self) -> Option<BufId> {
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None if self.fresh < self.capacity() => {
                self.fresh += 1;
                self.fresh - 1
            }
            None => return None,
        };
        let d = &mut self.bufs[idx as usize];
        debug_assert!(!d.in_use);
        d.in_use = true;
        d.len = 0;
        Some(BufId(idx))
    }

    /// Return a buffer to the pool.
    pub fn free(&mut self, id: BufId) {
        let d = &mut self.bufs[id.0 as usize];
        assert!(d.in_use, "double free of diskmap buffer {id:?}");
        d.in_use = false;
        self.free.push(id.0);
    }

    /// The buffer's whole physical region.
    #[must_use]
    pub fn region(&self, id: BufId) -> PhysRegion {
        assert!(id.0 < self.capacity(), "no diskmap buffer {id:?}");
        PhysRegion::new(
            PhysAddr(self.base.0 + u64::from(id.0) * self.stride),
            self.buf_size,
        )
    }

    /// Every page of every buffer, as one region (the attach ioctl maps
    /// it into the IOMMU domain).
    #[must_use]
    pub fn extent(&self) -> PhysRegion {
        PhysRegion::new(self.base, u64::from(self.capacity()) * self.stride)
    }

    /// Current valid-data length (set by completed reads).
    #[must_use]
    pub fn len(&self, id: BufId) -> u64 {
        self.bufs[id.0 as usize].len
    }

    pub fn set_len(&mut self, id: BufId, len: u64) {
        assert!(len <= self.buf_size);
        self.bufs[id.0 as usize].len = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_simcore::SimRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn alloc_free_lifo_order() {
        let mut phys = PhysAlloc::new();
        let mut p = BufPool::new(4, 16384, &mut phys);
        let a = p.alloc().unwrap();
        let b = p.alloc().unwrap();
        assert_ne!(a, b);
        p.free(a);
        p.free(b);
        // LIFO: b comes back first.
        assert_eq!(p.alloc().unwrap(), b);
        assert_eq!(p.alloc().unwrap(), a);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut phys = PhysAlloc::new();
        let mut p = BufPool::new(2, 4096, &mut phys);
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_some());
        assert!(p.alloc().is_none());
        assert_eq!(p.available(), 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut phys = PhysAlloc::new();
        let mut p = BufPool::new(2, 4096, &mut phys);
        let a = p.alloc().unwrap();
        p.free(a);
        p.free(a);
    }

    #[test]
    fn regions_are_disjoint_and_sized() {
        let mut phys = PhysAlloc::new();
        let p = BufPool::new(8, 16384, &mut phys);
        let regions: Vec<PhysRegion> = (0..8).map(|i| p.region(BufId(i))).collect();
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r.len, 16384);
            for other in &regions[i + 1..] {
                assert!(r.end() <= other.addr.0 || other.end() <= r.addr.0);
            }
        }
    }

    #[test]
    fn len_tracking() {
        let mut phys = PhysAlloc::new();
        let mut p = BufPool::new(1, 16384, &mut phys);
        let a = p.alloc().unwrap();
        p.set_len(a, 300);
        assert_eq!(p.len(a), 300);
        p.free(a);
        let b = p.alloc().unwrap();
        assert_eq!(p.len(b), 0, "len resets on alloc");
    }

    #[test]
    fn empty_pool_allocates_nothing() {
        let mut phys = PhysAlloc::new();
        let mut p = BufPool::new(0, 16384, &mut phys);
        assert_eq!(phys.allocated(), 0);
        assert_eq!(p.available(), 0);
        assert!(p.alloc().is_none());
        assert!(p.extent().is_empty());
    }

    /// The pool as it was before it became one allocation: a
    /// `PhysAlloc` call and a descriptor per buffer, and a free stack
    /// seeded with every index. The reference the layout must match.
    struct EagerPool {
        regions: Vec<PhysRegion>,
        lens: Vec<u64>,
        in_use: Vec<bool>,
        free: Vec<u32>,
    }

    impl EagerPool {
        fn new(count: u32, buf_size: u64, phys: &mut PhysAlloc) -> Self {
            EagerPool {
                regions: (0..count).map(|_| phys.alloc(buf_size)).collect(),
                lens: vec![0; count as usize],
                in_use: vec![false; count as usize],
                free: (0..count).rev().collect(),
            }
        }

        fn alloc(&mut self) -> Option<BufId> {
            let idx = self.free.pop()?;
            self.in_use[idx as usize] = true;
            self.lens[idx as usize] = 0;
            Some(BufId(idx))
        }

        fn free(&mut self, id: BufId) {
            assert!(
                self.in_use[id.0 as usize],
                "double free of diskmap buffer {id:?}"
            );
            self.in_use[id.0 as usize] = false;
            self.free.push(id.0);
        }
    }

    /// Seeded alloc / free / set_len / double-free against the eager
    /// pool, behind `lead` bytes of earlier allocations: same ids in
    /// the same order, same `available` and `len`, same regions, and
    /// both `PhysAlloc`s end at the same address.
    fn matches_eager_pool(count: u32, buf_size: u64, lead: u64, seed: u64) {
        let mut rng = SimRng::new(seed);
        let (mut pa, mut ra) = (PhysAlloc::new(), PhysAlloc::new());
        pa.alloc(lead);
        ra.alloc(lead);
        let mut p = BufPool::new(count, buf_size, &mut pa);
        let mut r = EagerPool::new(count, buf_size, &mut ra);
        assert_eq!(pa.allocated(), ra.allocated(), "PhysAlloc ends apart");
        for i in 0..count {
            assert_eq!(p.region(BufId(i)), r.regions[i as usize], "buffer {i}");
        }
        let mut held: Vec<BufId> = Vec::new();
        let mut double_frees = 0;
        for step in 0..40 * count {
            match rng.gen_range(0, 8) {
                0..=2 => {
                    let got = p.alloc();
                    assert_eq!(got, r.alloc(), "step {step}: alloc");
                    if let Some(id) = got {
                        assert_eq!(p.len(id), 0, "step {step}: len resets on alloc");
                        p.set_len(id, rng.gen_range(1, buf_size + 1));
                        held.push(id);
                    }
                }
                3..=5 if !held.is_empty() => {
                    let id = held.swap_remove(rng.gen_range(0, held.len() as u64) as usize);
                    p.free(id);
                    r.free(id);
                }
                6 => {
                    // Free a buffer nobody holds: both pools refuse.
                    let id = BufId(rng.gen_range(0, u64::from(count)) as u32);
                    if !held.contains(&id) {
                        let fast = catch_unwind(AssertUnwindSafe(|| p.free(id)));
                        let slow = catch_unwind(AssertUnwindSafe(|| r.free(id)));
                        assert!(fast.is_err() && slow.is_err(), "step {step}: {id:?}");
                        double_frees += 1;
                    }
                }
                _ => {}
            }
            assert_eq!(p.available() as usize, r.free.len(), "step {step}");
            for &id in &held {
                assert_eq!(p.region(id), r.regions[id.0 as usize]);
            }
        }
        assert!(double_frees > 0);
    }

    #[test]
    fn one_allocation_pool_matches_eager_per_buffer_pool() {
        for (seed, (count, buf_size, lead)) in [
            (1, 16384, 0),
            (4, 16384, 100),
            (9, 100, 4096),
            (17, 5000, 12_288),
            (320, 16384, 1),
        ]
        .into_iter()
        .enumerate()
        {
            matches_eager_pool(count, buf_size, lead, seed as u64);
        }
    }
}
