//! The conventional stack's disk buffer cache + VM pressure model.
//!
//! Page-granular (4 KiB) cache of file content with LRU reclamation.
//! Each resident page owns a physical region, so its cache-hierarchy
//! behaviour (LLC residency, evictions) is tracked by `dcn-mem` like
//! every other buffer in the system.
//!
//! The VM model captures §2.1.2: when the working set exceeds
//! capacity, every new page allocation must reclaim one, at
//! `vm_reclaim_page_cycles` plus a contention surcharge that grows
//! with core count (stock FreeBSD) or is damped (Netflix's fake-NUMA
//! partitioning and batched re-enqueueing).
//!
//! A multi-GiB cache has over a million frames, so the bookkeeping is
//! kept flat: frames live in one index-addressed arena that fills
//! lazily, a frame's physical region is derived from its index, the
//! page map is an open-addressed table of frame indices that reads
//! each key from the arena, and the LRU order of the unpinned frames
//! is a doubly linked list threaded through the arena. A page's key
//! is its dense index in the catalog, `file × pages_per_file + page`,
//! which fits a `u32` for any catalog the cache accepts (the paper's
//! takes 150 M of the 4.29 G keys). A frame costs 12 bytes plus its
//! share of the table, 5.3 bytes at the kstack's 6 GiB cap: 17.3
//! bytes in all.

use crate::catalog::{Catalog, FileId};
use dcn_mem::{CostParams, PhysAddr, PhysAlloc, PhysRegion, CHUNK_SIZE};
use dcn_simcore::ZeroedTable;

/// Null link in the LRU list.
const NIL: u32 = u32::MAX;

/// `Frame::next` of a pinned frame, whose `prev` holds the pin count.
const PINNED: u32 = u32::MAX - 1;

/// A resident cache page handed to sendfile.
#[derive(Clone, Copy, Debug)]
pub struct CachePageRef {
    pub region: PhysRegion,
    /// Pin count > 0 ⇒ not reclaimable (mapped into a socket buffer).
    pub pinned: bool,
}

/// One page frame of the arena. Pinned pages are not eligible for
/// reclaim, so they stay off the LRU list and reclaim never walks
/// past them; a pinned frame needs no links, and its two link words
/// hold the pin count instead.
struct Frame {
    /// Key of the page this frame holds (while it is mapped).
    key: u32,
    /// Unpinned: the LRU predecessor (`NIL` at the head).
    /// Pinned: the pin count, at least 1.
    prev: u32,
    /// Unpinned: the LRU successor (`NIL` at the tail).
    /// Pinned: `PINNED`.
    next: u32,
}

impl Frame {
    fn pinned(&self) -> bool {
        self.next == PINNED
    }
}

/// Resident pages: an open-addressed table of frame indices, keyed by
/// the page key the frame itself holds. Linear probing; deletion
/// shifts the rest of the probe run back, so there are no tombstones.
/// A slot holds `index + 1`, so an empty table is all zeros, and its
/// slots are a [`ZeroedTable`]: fresh zero pages that construction does
/// not write, whatever the process allocated and freed before (a heap
/// `calloc` of the kstack's 8 MiB would zero-fill it on the spot).
struct PageIndex {
    slots: ZeroedTable<u32>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: usize,
}

impl PageIndex {
    /// A table for up to `capacity` entries, at most 7/8 full.
    fn new(capacity: usize) -> Self {
        let n = (capacity * 8).div_ceil(7).next_power_of_two().max(2);
        PageIndex {
            slots: ZeroedTable::new(n),
            shift: 64 - n.trailing_zeros(),
            len: 0,
        }
    }

    /// Home slot of `key` (Fibonacci hashing).
    fn home(&self, key: u32) -> usize {
        (u64::from(key).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The slot holding `key`, or the empty slot that ends its probe
    /// run.
    fn probe(&self, key: u32, frames: &[Frame]) -> (usize, Option<u32>) {
        let mut i = self.home(key);
        loop {
            match self.slots[i] {
                0 => return (i, None),
                s if frames[s as usize - 1].key == key => return (i, Some(s - 1)),
                _ => i = (i + 1) & self.mask(),
            }
        }
    }

    fn get(&self, key: u32, frames: &[Frame]) -> Option<u32> {
        self.probe(key, frames).1
    }

    /// Map `frames[idx].key` to `idx`; returns the frame it replaces.
    fn insert(&mut self, idx: u32, frames: &[Frame]) -> Option<u32> {
        let (i, old) = self.probe(frames[idx as usize].key, frames);
        if old.is_none() {
            self.len += 1;
        }
        self.slots[i] = idx + 1;
        old
    }

    fn remove(&mut self, key: u32, frames: &[Frame]) -> Option<u32> {
        let (mut hole, found) = self.probe(key, frames);
        found?;
        self.len -= 1;
        // Backward-shift: pull each later entry of the run into the
        // hole unless that would move it before its home slot.
        let mask = self.mask();
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s == 0 {
                break;
            }
            let home = self.home(frames[s as usize - 1].key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = j;
            }
        }
        self.slots[hole] = 0;
        found
    }
}

/// VM pressure statistics for one measurement window.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VmPressure {
    pub lookups: u64,
    pub hits: u64,
    pub inserts: u64,
    pub reclaims: u64,
    /// Allocations that had to spin on the reclaim path with every
    /// page pinned (the stall condition Netflix's patches attack).
    pub reclaim_stalls: u64,
}

/// The disk buffer cache.
pub struct BufferCache {
    capacity_pages: usize,
    /// Catalog geometry for page keys: files, and pages per file.
    n_files: u64,
    pages_per_file: u64,
    /// Start of the cache's physical range. Frames are handed out
    /// from its top down (frame `i` is page `capacity − 1 − i`); the
    /// committed `BENCH_*.json` files depend on this address order.
    base: u64,
    /// Frames handed out so far, by index (the VM page pool). Never
    /// shrinks: frames are recycled forever.
    frames: Vec<Frame>,
    /// Frames released by a racing insert; reused (last in, first
    /// out) before never-used frames.
    free: Vec<u32>,
    /// Resident pages: page key → frame index.
    pages: PageIndex,
    /// Unpinned (reclaimable) frames, least recently unpinned first.
    lru_head: u32,
    lru_tail: u32,
    lru_len: usize,
    pub stats: VmPressure,
}

impl BufferCache {
    /// A cache of `capacity_bytes` over `catalog`'s pages, reserving
    /// its whole physical range from `phys` up front. Panics if the
    /// catalog has more pages than a `u32` key can name.
    #[must_use]
    pub fn new(capacity_bytes: u64, catalog: &Catalog, phys: &mut PhysAlloc) -> Self {
        let capacity_pages = (capacity_bytes / CHUNK_SIZE) as usize;
        assert!(capacity_pages > 0);
        assert!(
            capacity_pages < PINNED as usize,
            "too many buffer-cache frames"
        );
        let n_files = catalog.n_files();
        let pages_per_file = catalog.file_size().div_ceil(CHUNK_SIZE);
        assert!(
            n_files
                .checked_mul(pages_per_file)
                .is_some_and(|keys| keys <= u64::from(u32::MAX)),
            "{n_files} files × {pages_per_file} pages do not fit a u32 buffer-cache key"
        );
        let base = phys.alloc(capacity_pages as u64 * CHUNK_SIZE).addr.0;
        BufferCache {
            capacity_pages,
            n_files,
            pages_per_file,
            base,
            frames: Vec::with_capacity(capacity_pages),
            free: Vec::new(),
            pages: PageIndex::new(capacity_pages),
            lru_head: NIL,
            lru_tail: NIL,
            lru_len: 0,
            stats: VmPressure::default(),
        }
    }

    /// The dense key of `(file, page index)`. Panics on a page outside
    /// the catalog, so two pages can never alias.
    fn page_key(&self, file: FileId, page: u64) -> u32 {
        assert!(
            file.0 < self.n_files && page < self.pages_per_file,
            "page {page} of file {} does not fit the buffer-cache key",
            file.0
        );
        (file.0 * self.pages_per_file + page) as u32
    }

    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len
    }

    /// Frames handed out so far (resident, reclaimed or released):
    /// every frame whose memory ever held a page.
    #[must_use]
    pub fn frames_used(&self) -> usize {
        self.frames.len()
    }

    #[must_use]
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Fraction of frames an allocation could claim right now: free
    /// frames plus resident-but-unpinned (reclaimable) pages. 0.0
    /// means every page is pinned by socket buffers — the VM-pressure
    /// wedge the admission policy watches for.
    #[must_use]
    pub fn allocatable_frac(&self) -> f64 {
        let unused = self.capacity_pages - self.frames.len();
        (self.free.len() + unused + self.lru_len) as f64 / self.capacity_pages as f64
    }

    /// Cache hit ratio so far.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.stats.lookups == 0 {
            0.0
        } else {
            self.stats.hits as f64 / self.stats.lookups as f64
        }
    }

    /// Look up the page holding `(file, page_index)`. A hit pins the
    /// page (removing it from the reclaimable set). Returns the page
    /// and the CPU cycles the lookup cost.
    pub fn lookup(
        &mut self,
        file: FileId,
        page: u64,
        costs: &CostParams,
    ) -> (Option<CachePageRef>, u64) {
        let key = self.page_key(file, page);
        self.stats.lookups += 1;
        let Some(idx) = self.pages.get(key, &self.frames) else {
            return (None, costs.bufcache_page_cycles);
        };
        self.stats.hits += 1;
        if self.frames[idx as usize].pinned() {
            self.frames[idx as usize].prev += 1;
        } else {
            self.unlink(idx);
            let f = &mut self.frames[idx as usize];
            f.prev = 1;
            f.next = PINNED;
        }
        let r = CachePageRef {
            region: self.region(idx),
            pinned: true,
        };
        (Some(r), costs.bufcache_page_cycles)
    }
    /// Allocate (insert) a page for `(file, page_index)` about to be
    /// filled by disk I/O; the page comes back pinned. Returns the
    /// page and the cycles charged (lookup + any reclaim work,
    /// including the `contention` multiplier for `cores` cores).
    /// Panics when every page is pinned — callers that can back off
    /// should use [`BufferCache::try_insert`].
    pub fn insert(
        &mut self,
        file: FileId,
        page: u64,
        costs: &CostParams,
        cores: usize,
    ) -> (CachePageRef, u64) {
        self.try_insert(file, page, costs, cores)
            .expect("buffer cache wedged: every page pinned (socket buffers ate the VM)")
    }

    /// Like [`BufferCache::insert`], but returns None when no frame
    /// can be allocated (all pages pinned) — VM pressure the caller
    /// must absorb by stalling staging until ACKs unpin pages.
    pub fn try_insert(
        &mut self,
        file: FileId,
        page: u64,
        costs: &CostParams,
        cores: usize,
    ) -> Option<(CachePageRef, u64)> {
        let key = self.page_key(file, page);
        self.stats.inserts += 1;
        let mut cycles = costs.bufcache_page_cycles;
        let frame = Frame {
            key,
            prev: 1,
            next: PINNED,
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.frames[idx as usize] = frame;
            idx
        } else if self.frames.len() < self.capacity_pages {
            self.frames.push(frame);
            (self.frames.len() - 1) as u32
        } else {
            if self.lru_head == NIL {
                self.stats.reclaim_stalls += 1;
                return None;
            }
            // Reclaim the LRU unpinned page (proactive scan in the
            // allocation context, as the Netflix patches do).
            let (idx, reclaim_cycles) = self.reclaim_one(costs, cores);
            cycles += reclaim_cycles;
            self.frames[idx as usize] = frame;
            idx
        };
        if let Some(old) = self.pages.insert(idx, &self.frames) {
            // Racing insert of the same page: return the old frame.
            if !self.frames[old as usize].pinned() {
                self.unlink(old);
            }
            self.free.push(old);
        }
        // Pinned on insert: joins the LRU list at unpin.
        Some((
            CachePageRef {
                region: self.region(idx),
                pinned: true,
            },
            cycles,
        ))
    }

    /// Evict the LRU unpinned page (callers check the list is
    /// non-empty); returns its frame and the reclaim cycles.
    fn reclaim_one(&mut self, costs: &CostParams, cores: usize) -> (u32, u64) {
        let contention = 1.0 + costs.vm_contention_per_core * cores.saturating_sub(1) as f64;
        let idx = self.lru_head;
        self.unlink(idx);
        let victim = self
            .pages
            .remove(self.frames[idx as usize].key, &self.frames);
        debug_assert_eq!(victim, Some(idx), "victim resident");
        self.stats.reclaims += 1;
        (
            idx,
            (costs.vm_reclaim_page_cycles as f64 * contention) as u64,
        )
    }

    /// Unpin a page (socket buffer released it after the NIC consumed
    /// the data); it becomes reclaimable at MRU position.
    pub fn unpin(&mut self, file: FileId, page: u64) {
        if let Some(idx) = self.pages.get(self.page_key(file, page), &self.frames) {
            let f = &mut self.frames[idx as usize];
            assert!(f.pinned(), "unpin of unpinned page");
            f.prev -= 1;
            if f.prev == 0 {
                self.push_tail(idx);
            }
        }
    }

    fn region(&self, idx: u32) -> PhysRegion {
        let page = (self.capacity_pages - 1 - idx as usize) as u64;
        PhysRegion::new(PhysAddr(self.base + page * CHUNK_SIZE), CHUNK_SIZE)
    }

    fn push_tail(&mut self, idx: u32) {
        let tail = self.lru_tail;
        let f = &mut self.frames[idx as usize];
        f.prev = tail;
        f.next = NIL;
        if tail == NIL {
            self.lru_head = idx;
        } else {
            self.frames[tail as usize].next = idx;
        }
        self.lru_tail = idx;
        self.lru_len += 1;
    }

    fn unlink(&mut self, idx: u32) {
        let Frame { prev, next, .. } = self.frames[idx as usize];
        if prev == NIL {
            self.lru_head = next;
        } else {
            self.frames[prev as usize].next = next;
        }
        if next == NIL {
            self.lru_tail = prev;
        } else {
            self.frames[next as usize].prev = prev;
        }
        self.lru_len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_simcore::SimRng;
    use std::collections::{BTreeMap, HashMap};

    /// The test catalog: 128 files of 64 pages each.
    fn catalog() -> Catalog {
        Catalog::new(128, 64 * CHUNK_SIZE, 1, 0)
    }

    fn cache(pages: u64) -> (BufferCache, CostParams) {
        let mut phys = PhysAlloc::new();
        (
            BufferCache::new(pages * CHUNK_SIZE, &catalog(), &mut phys),
            CostParams::default(),
        )
    }

    #[test]
    fn miss_then_hit() {
        let (mut c, costs) = cache(8);
        let (miss, _) = c.lookup(FileId(1), 0, &costs);
        assert!(miss.is_none());
        let (_page, _) = c.insert(FileId(1), 0, &costs, 1);
        c.unpin(FileId(1), 0);
        let (hit, _) = c.lookup(FileId(1), 0, &costs);
        assert!(hit.is_some());
        assert_eq!(c.stats.hits, 1);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn lru_reclaim_picks_oldest_unpinned() {
        let (mut c, costs) = cache(3);
        for i in 0..3 {
            c.insert(FileId(i), 0, &costs, 1);
            c.unpin(FileId(i), 0);
        }
        // Touch file 0 so file 1 is LRU.
        c.lookup(FileId(0), 0, &costs);
        c.unpin(FileId(0), 0);
        let (_p, cycles) = c.insert(FileId(9), 0, &costs, 1);
        assert!(cycles > costs.bufcache_page_cycles, "reclaim work charged");
        assert!(c.lookup(FileId(1), 0, &costs).0.is_none(), "file 1 evicted");
        assert!(c.lookup(FileId(0), 0, &costs).0.is_some());
        assert_eq!(c.stats.reclaims, 1);
    }

    #[test]
    fn pinned_pages_survive_reclaim() {
        let (mut c, costs) = cache(2);
        c.insert(FileId(0), 0, &costs, 1); // stays pinned
        c.insert(FileId(1), 0, &costs, 1);
        c.unpin(FileId(1), 0);
        // Needs a frame: pinned file 0 is not reclaimable, file 1 is.
        c.insert(FileId(2), 0, &costs, 1);
        assert!(c.lookup(FileId(0), 0, &costs).0.is_some());
        assert!(c.lookup(FileId(1), 0, &costs).0.is_none());
        assert_eq!(c.stats.reclaims, 1);
    }

    #[test]
    fn contention_grows_with_cores() {
        let (mut c1, costs) = cache(1);
        c1.insert(FileId(0), 0, &costs, 1);
        c1.unpin(FileId(0), 0);
        let (_, cyc1) = c1.insert(FileId(1), 0, &costs, 1);

        let (mut c8, _) = cache(1);
        c8.insert(FileId(0), 0, &costs, 8);
        c8.unpin(FileId(0), 0);
        let (_, cyc8) = c8.insert(FileId(1), 0, &costs, 8);
        assert!(
            cyc8 > cyc1,
            "8-core reclaim must cost more ({cyc8} vs {cyc1})"
        );
    }

    #[test]
    fn frames_are_recycled_not_leaked() {
        let (mut c, costs) = cache(4);
        for i in 0..100 {
            c.insert(FileId(i), 0, &costs, 1);
            c.unpin(FileId(i), 0);
        }
        assert_eq!(c.resident_pages(), 4);
    }

    #[test]
    #[should_panic(expected = "wedged")]
    fn all_pinned_wedges_loudly() {
        let (mut c, costs) = cache(1);
        c.insert(FileId(0), 0, &costs, 1);
        c.insert(FileId(1), 0, &costs, 1);
    }

    #[test]
    fn try_insert_backs_off_when_all_pinned() {
        let (mut c, costs) = cache(1);
        c.insert(FileId(0), 0, &costs, 1);
        assert!(c.try_insert(FileId(1), 0, &costs, 1).is_none());
        // Unpinning makes progress possible again.
        c.unpin(FileId(0), 0);
        assert!(c.try_insert(FileId(1), 0, &costs, 1).is_some());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_page_index_fails_loudly() {
        let (mut c, costs) = cache(4);
        c.lookup(FileId(0), 64, &costs);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_file_id_fails_loudly() {
        let (mut c, costs) = cache(4);
        c.lookup(FileId(128), 0, &costs);
    }

    #[test]
    fn largest_keys_do_not_alias() {
        let (mut c, costs) = cache(4);
        c.insert(FileId(0), 63, &costs, 1);
        c.insert(FileId(127), 0, &costs, 1);
        assert!(c.lookup(FileId(1), 0, &costs).0.is_none());
        assert!(c.lookup(FileId(0), 0, &costs).0.is_none());
        assert!(c.lookup(FileId(0), 63, &costs).0.is_some());
        assert!(c.lookup(FileId(127), 0, &costs).0.is_some());
    }

    #[test]
    fn a_catalog_of_u32_max_keys_reaches_the_last_key() {
        // 65,535 files × 65,537 pages = u32::MAX keys, 0..=u32::MAX − 1.
        let big = Catalog::new(65_535, 65_537 * CHUNK_SIZE, 1, 0);
        let mut c = BufferCache::new(4 * CHUNK_SIZE, &big, &mut PhysAlloc::new());
        let costs = CostParams::default();
        assert_eq!(c.page_key(FileId(65_534), 65_536), u32::MAX - 1);
        c.insert(FileId(65_534), 65_536, &costs, 1);
        assert!(c.lookup(FileId(0), 0, &costs).0.is_none());
        assert!(c.lookup(FileId(65_534), 65_536, &costs).0.is_some());
    }

    #[test]
    #[should_panic(expected = "do not fit a u32")]
    fn a_catalog_too_large_for_u32_keys_fails_at_construction() {
        // 2^32 pages: one more than a u32 key can name.
        let big = Catalog::new(1 << 16, (1 << 16) * CHUNK_SIZE, 1, 0);
        let _ = BufferCache::new(4 * CHUNK_SIZE, &big, &mut PhysAlloc::new());
    }

    #[test]
    fn frame_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<Frame>(), 12);
    }

    #[test]
    fn page_index_is_at_most_eight_mib_at_the_frame_cap() {
        let frames = (6u64 << 30) / CHUNK_SIZE;
        let index = PageIndex::new(frames as usize);
        assert_eq!(index.slots.len() * 4, 8 << 20);
        assert_eq!(PageIndex::new(1).slots.len(), 2);
        assert_eq!(PageIndex::new(7).slots.len(), 8);
        assert_eq!(PageIndex::new(8).slots.len(), 16);
    }

    #[test]
    fn a_cache_built_after_a_dropped_one_starts_empty() {
        // At the kstack's 6 GiB cap, so the second page index is the
        // same size as the first and could be handed its memory.
        let costs = CostParams::default();
        let keys = || (0..128).flat_map(|f| (0..64).map(move |p| (FileId(f), p)));
        let mut first = BufferCache::new(6 << 30, &catalog(), &mut PhysAlloc::new());
        for (f, p) in keys() {
            first.insert(f, p, &costs, 1);
            first.unpin(f, p);
        }
        assert_eq!(first.resident_pages(), 128 * 64);
        drop(first);
        let mut second = BufferCache::new(6 << 30, &catalog(), &mut PhysAlloc::new());
        assert_eq!(second.resident_pages(), 0);
        for (f, p) in keys() {
            assert!(second.lookup(f, p, &costs).0.is_none(), "{f:?} page {p}");
        }
        assert_eq!(second.stats.hits, 0);
    }

    /// Every entry is reachable from its home slot without crossing an
    /// empty slot, which is what backward-shift deletion must keep.
    fn assert_probe_runs_intact(index: &PageIndex, frames: &[Frame]) {
        let mask = index.mask();
        for (i, &s) in index.slots.iter().enumerate() {
            if s == 0 {
                continue;
            }
            let mut j = index.home(frames[s as usize - 1].key);
            while j != i {
                assert_ne!(index.slots[j], 0, "slot {i} cut off from its home");
                j = (j + 1) & mask;
            }
        }
    }

    #[test]
    fn page_index_matches_hashmap_under_collisions_and_wrap() {
        // A 16-slot table holding up to 14 keys drawn from a pool in
        // which every key shares one of two home slots: the last slot
        // (so runs wrap around to slot 0) and slot 7.
        const CAP: usize = 14;
        let mut index = PageIndex::new(CAP);
        assert_eq!(index.slots.len(), 16);
        let last = index.mask();
        let pool: Vec<u32> = (0u32..)
            .filter(|&k| index.home(k) == 7 || index.home(k) == last)
            .take(40)
            .collect();
        assert!(pool.iter().filter(|&&k| index.home(k) == last).count() > 10);
        let mut frames: Vec<Frame> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut reference: HashMap<u32, u32> = HashMap::new();
        let mut rng = SimRng::new(0x1de8);
        let (mut wrapped, mut shifted) = (0u64, 0u64);
        for _ in 0..50_000 {
            let key = pool[rng.gen_range(0, pool.len() as u64) as usize];
            let insert = rng.next_f64() < 0.55;
            if insert && (reference.len() < CAP || reference.contains_key(&key)) {
                let frame = Frame {
                    key,
                    prev: 1,
                    next: PINNED,
                };
                let idx = if let Some(i) = free.pop() {
                    frames[i as usize] = frame;
                    i
                } else {
                    frames.push(frame);
                    frames.len() as u32 - 1
                };
                let old = index.insert(idx, &frames);
                assert_eq!(old, reference.insert(key, idx));
                free.extend(old);
            } else {
                let before = index.slots.to_vec();
                let got = index.remove(key, &frames);
                assert_eq!(got, reference.remove(&key));
                free.extend(got);
                let moved = before
                    .iter()
                    .zip(index.slots.iter())
                    .filter(|(a, b)| a != b)
                    .count();
                shifted += u64::from(moved > 1);
            }
            wrapped += u64::from(index.slots[0] != 0 && index.slots[last] != 0);
            assert_eq!(index.len, reference.len());
            for &k in &pool {
                assert_eq!(index.get(k, &frames), reference.get(&k).copied(), "{k}");
            }
            assert_probe_runs_intact(&index, &frames);
        }
        assert!(wrapped > 1_000 && shifted > 1_000, "{wrapped} {shifted}");
    }

    /// The straightforward cache the arena replaces: a map of owned
    /// regions, a stamp-ordered LRU index and an eagerly built free
    /// list. `BufferCache` must match it operation for operation.
    struct RefCache {
        capacity_pages: usize,
        pages: HashMap<(FileId, u64), RefPage>,
        by_stamp: BTreeMap<u64, (FileId, u64)>,
        next_stamp: u64,
        free_frames: Vec<PhysRegion>,
        stats: VmPressure,
    }

    struct RefPage {
        region: PhysRegion,
        stamp: u64,
        pins: u32,
    }

    impl RefCache {
        fn new(capacity_bytes: u64, phys: &mut PhysAlloc) -> Self {
            let capacity_pages = (capacity_bytes / CHUNK_SIZE) as usize;
            RefCache {
                capacity_pages,
                pages: HashMap::new(),
                by_stamp: BTreeMap::new(),
                next_stamp: 0,
                free_frames: (0..capacity_pages)
                    .map(|_| phys.alloc(CHUNK_SIZE))
                    .collect(),
                stats: VmPressure::default(),
            }
        }

        fn pins(&self, file: FileId, page: u64) -> Option<u32> {
            self.pages.get(&(file, page)).map(|p| p.pins)
        }

        fn allocatable_frac(&self) -> f64 {
            (self.free_frames.len() + self.by_stamp.len()) as f64 / self.capacity_pages as f64
        }

        fn lookup(&mut self, file: FileId, page: u64) -> Option<PhysRegion> {
            self.stats.lookups += 1;
            let p = self.pages.get_mut(&(file, page))?;
            self.stats.hits += 1;
            if p.pins == 0 {
                self.by_stamp.remove(&p.stamp);
            }
            p.pins += 1;
            Some(p.region)
        }

        fn try_insert(
            &mut self,
            file: FileId,
            page: u64,
            costs: &CostParams,
            cores: usize,
        ) -> Option<(PhysRegion, u64)> {
            self.stats.inserts += 1;
            let mut cycles = costs.bufcache_page_cycles;
            let frame = if let Some(f) = self.free_frames.pop() {
                f
            } else {
                let (&stamp, &victim) = self.by_stamp.iter().next().or_else(|| {
                    self.stats.reclaim_stalls += 1;
                    None
                })?;
                let contention =
                    1.0 + costs.vm_contention_per_core * cores.saturating_sub(1) as f64;
                let p = self.pages.remove(&victim).expect("victim resident");
                self.by_stamp.remove(&stamp);
                self.stats.reclaims += 1;
                cycles += (costs.vm_reclaim_page_cycles as f64 * contention) as u64;
                p.region
            };
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            let new = RefPage {
                region: frame,
                stamp,
                pins: 1,
            };
            if let Some(old) = self.pages.insert((file, page), new) {
                if old.pins == 0 {
                    self.by_stamp.remove(&old.stamp);
                }
                self.free_frames.push(old.region);
            }
            Some((frame, cycles))
        }

        fn unpin(&mut self, file: FileId, page: u64) {
            let stamp = self.next_stamp;
            self.next_stamp += 1;
            if let Some(p) = self.pages.get_mut(&(file, page)) {
                assert!(p.pins > 0, "unpin of unpinned page");
                p.pins -= 1;
                if p.pins == 0 {
                    p.stamp = stamp;
                    self.by_stamp.insert(stamp, (file, page));
                }
            }
        }
    }

    /// Both caches under test, stepped in lockstep.
    struct Pair {
        arena: BufferCache,
        reference: RefCache,
        costs: CostParams,
        /// Pins the driver holds, one entry per pin.
        held: Vec<(FileId, u64)>,
        /// Hits on a page that was already pinned.
        multi_pin_hits: u64,
        /// Inserts of a resident key, by the old page's pin state.
        racing_unpinned: u64,
        racing_pinned: u64,
        /// Unpins of a key no longer resident (no-ops).
        stray_unpins: u64,
    }

    impl Pair {
        fn lookup(&mut self, file: FileId, page: u64) -> bool {
            if matches!(self.reference.pins(file, page), Some(n) if n > 0) {
                self.multi_pin_hits += 1;
            }
            let (got, cycles) = self.arena.lookup(file, page, &self.costs);
            let want = self.reference.lookup(file, page);
            assert_eq!(got.map(|r| (r.region, r.pinned)), want.map(|r| (r, true)));
            assert_eq!(cycles, self.costs.bufcache_page_cycles);
            got.is_some()
        }

        fn try_insert(&mut self, file: FileId, page: u64, cores: usize) -> bool {
            match self.reference.pins(file, page) {
                Some(0) => self.racing_unpinned += 1,
                Some(_) => self.racing_pinned += 1,
                None => {}
            }
            let got = self.arena.try_insert(file, page, &self.costs, cores);
            let want = self.reference.try_insert(file, page, &self.costs, cores);
            assert_eq!(
                got.map(|(r, cyc)| (r.region, r.pinned, cyc)),
                want.map(|(r, cyc)| (r, true, cyc))
            );
            got.is_some()
        }

        fn unpin(&mut self, file: FileId, page: u64) {
            match self.reference.pins(file, page) {
                // A racing insert dropped the old page's pins, so this
                // pin outlived the count; both caches would panic.
                Some(0) => return,
                None => self.stray_unpins += 1,
                Some(_) => {}
            }
            self.arena.unpin(file, page);
            self.reference.unpin(file, page);
        }

        fn check(&self) {
            assert_eq!(self.arena.stats, self.reference.stats);
            assert_eq!(self.arena.resident_pages(), self.reference.pages.len());
            assert_eq!(
                self.arena.allocatable_frac().to_bits(),
                self.reference.allocatable_frac().to_bits()
            );
        }
    }

    #[test]
    fn arena_matches_reference_model_op_for_op() {
        const FRAMES: u64 = 64;
        let mut phys_arena = PhysAlloc::new();
        let mut phys_ref = PhysAlloc::new();
        phys_arena.alloc(3 * CHUNK_SIZE);
        phys_ref.alloc(3 * CHUNK_SIZE);
        let mut t = Pair {
            arena: BufferCache::new(FRAMES * CHUNK_SIZE, &catalog(), &mut phys_arena),
            reference: RefCache::new(FRAMES * CHUNK_SIZE, &mut phys_ref),
            costs: CostParams::default(),
            held: Vec::new(),
            multi_pin_hits: 0,
            racing_unpinned: 0,
            racing_pinned: 0,
            stray_unpins: 0,
        };
        // Both leave the allocator at the same place for later buffers.
        assert_eq!(phys_arena.allocated(), phys_ref.allocated());
        let mut rng = SimRng::new(0x00b0_f0ca);
        let mut partial_hits = 0;
        for step in 0..100_000u64 {
            // Fill phases pile up pins until allocation stalls; drain
            // phases release them so reclaim has victims again.
            let unpin_p = if (step / 2_000) % 2 == 0 { 0.25 } else { 0.6 };
            // 6 files × 32 pages = 192 keys over 64 frames.
            let file = FileId(rng.gen_range(0, 6));
            let page = rng.gen_range(0, 32);
            let cores = rng.gen_range(1, 9) as usize;
            let roll = rng.next_f64();
            if roll < unpin_p {
                if !t.held.is_empty() {
                    let i = rng.gen_range(0, t.held.len() as u64) as usize;
                    let (f, p) = t.held.swap_remove(i);
                    t.unpin(f, p);
                }
            } else if roll < unpin_p + 0.1 {
                // The kernel stack's staging pattern: pin a run of
                // pages; on the first miss unpin the hits and insert
                // the whole run, racing the pages that were resident.
                let run = page..page + rng.gen_range(1, 5);
                let mut hits = Vec::new();
                for p in run.clone() {
                    if !t.lookup(file, p) {
                        break;
                    }
                    hits.push(p);
                }
                if hits.len() as u64 == run.end - run.start {
                    t.held.extend(hits.into_iter().map(|p| (file, p)));
                } else {
                    partial_hits += u64::from(!hits.is_empty());
                    for p in hits {
                        t.unpin(file, p);
                    }
                    let mut inserted = Vec::new();
                    for p in run {
                        if !t.try_insert(file, p, cores) {
                            for q in inserted.drain(..) {
                                t.unpin(file, q);
                            }
                            break;
                        }
                        inserted.push(p);
                    }
                    t.held.extend(inserted.into_iter().map(|p| (file, p)));
                }
            } else if roll < unpin_p + 0.45 {
                if t.lookup(file, page) {
                    t.held.push((file, page));
                }
            } else if t.try_insert(file, page, cores) {
                t.held.push((file, page));
            }
            t.check();
        }
        let s = t.arena.stats;
        assert!(s.hits > 1_000 && s.lookups - s.hits > 1_000, "{s:?}");
        assert!(s.reclaims > 1_000 && s.reclaim_stalls > 100, "{s:?}");
        assert!(t.multi_pin_hits > 100 && partial_hits > 100);
        assert!(t.racing_unpinned > 100 && t.racing_pinned > 100);
        assert!(t.stray_unpins > 0);
    }
}
