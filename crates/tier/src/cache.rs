//! A small hot-chunk DMA cache — the buffer-cache *ablation*.
//!
//! Atlas deleted the OS buffer cache on the paper's evidence that BC
//! hit ratios are <10% for large catalogs. A tiered, Zipf-skewed
//! catalog changes the math: the popular head is small and re-read
//! constantly. This module is the index only — an LRU over fixed-size
//! slots identified by index. The server owns the slot memory (DMA
//! regions) and charges the memory system for every copy in and out,
//! so the ablation answers the paper's actual question: does the hit
//! ratio re-earn the extra DRAM bandwidth of filling the cache?
//!
//! Keys are `(file, file_offset)` of a record-aligned disk fetch; a
//! hit must match the stored length exactly (a different span is a
//! miss — chunk fetches are record-aligned, so in practice keys are
//! stable).

use dcn_store::FileId;
use std::collections::HashMap;

/// Cache capacity: deliberately small (64 MB ≈ one P3700's worth of
/// in-flight DMA) — the point of the ablation is the marginal value
/// of a *small* cache, not re-growing the kernel page cache.
pub const CAPACITY_BYTES: u64 = 64 << 20;
/// Slot granularity; must be ≥ the largest disk fetch it will hold
/// (Atlas fetches are one TLS record's plaintext).
pub const SLOT_BYTES: u64 = 16 * 1024;
/// Only insert chunks whose object heat is at least this — filters
/// one-hit wonders out of the cache.
pub const INSERT_MIN_HEAT: u8 = 6;

#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub inserts: u64,
    pub evictions: u64,
}

#[derive(Clone, Copy)]
struct Slot {
    key: (u64, u64),
    len: u64,
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;

/// Fixed-slot LRU index. O(1) lookup/insert/evict; no allocation
/// after construction.
pub struct HotChunkCache {
    slot_bytes: u64,
    map: HashMap<(u64, u64), u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// LRU list: head = most recent, tail = eviction victim.
    head: u32,
    tail: u32,
    pub stats: CacheStats,
}

impl Default for HotChunkCache {
    /// The ablation's cache: [`CAPACITY_BYTES`] in [`SLOT_BYTES`]
    /// slots.
    fn default() -> Self {
        Self::with_slots((CAPACITY_BYTES / SLOT_BYTES) as usize, SLOT_BYTES)
    }
}

impl HotChunkCache {
    fn with_slots(n: usize, slot_bytes: u64) -> Self {
        HotChunkCache {
            slot_bytes,
            map: HashMap::with_capacity(n * 2),
            slots: vec![
                Slot {
                    key: (0, 0),
                    len: 0,
                    prev: NIL,
                    next: NIL,
                };
                n
            ],
            free: (0..n as u32).rev().collect(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    #[must_use]
    pub fn slot_bytes(&self) -> u64 {
        self.slot_bytes
    }

    fn unlink(&mut self, i: u32) {
        let (p, n) = (self.slots[i as usize].prev, self.slots[i as usize].next);
        if p == NIL {
            self.head = n;
        } else {
            self.slots[p as usize].next = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.slots[n as usize].prev = p;
        }
    }

    fn push_front(&mut self, i: u32) {
        self.slots[i as usize].prev = NIL;
        self.slots[i as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Look up `(file, offset, len)`; a hit returns the slot index and
    /// refreshes recency.
    pub fn lookup(&mut self, file: FileId, offset: u64, len: u64) -> Option<usize> {
        match self.map.get(&(file.0, offset)).copied() {
            Some(i) if self.slots[i as usize].len == len => {
                self.stats.hits += 1;
                self.unlink(i);
                self.push_front(i);
                Some(i as usize)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Insert a chunk, evicting the LRU slot if full. Returns the slot
    /// index the server should copy the plaintext into. `len` must fit
    /// a slot. No-op (None) if the key is already cached.
    pub fn insert(&mut self, file: FileId, offset: u64, len: u64) -> Option<usize> {
        assert!(len <= self.slot_bytes, "{len} > slot {}", self.slot_bytes);
        if self.map.contains_key(&(file.0, offset)) {
            return None;
        }
        let i = match self.free.pop() {
            Some(i) => i,
            None => {
                let victim = self.tail;
                debug_assert_ne!(victim, NIL);
                self.unlink(victim);
                self.map.remove(&self.slots[victim as usize].key);
                self.stats.evictions += 1;
                victim
            }
        };
        let s = &mut self.slots[i as usize];
        s.key = (file.0, offset);
        s.len = len;
        self.map.insert((file.0, offset), i);
        self.push_front(i);
        self.stats.inserts += 1;
        Some(i as usize)
    }

    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            return 0.0;
        }
        self.stats.hits as f64 / total as f64
    }

    /// DRAM traffic the cache itself cost so far, assuming every
    /// insert writes `len` bytes and every hit reads them back (the
    /// servers charge the memory system exactly; this is the summary
    /// view for reports).
    #[must_use]
    pub fn approx_dram_bytes(&self) -> u64 {
        (self.stats.inserts + self.stats.hits) * self.slot_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(n_slots: usize) -> HotChunkCache {
        HotChunkCache::with_slots(n_slots, 1024)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = cache(4);
        assert_eq!(c.lookup(FileId(1), 0, 1024), None);
        let slot = c.insert(FileId(1), 0, 1024).unwrap();
        assert_eq!(c.lookup(FileId(1), 0, 1024), Some(slot));
        // Length mismatch is a miss.
        assert_eq!(c.lookup(FileId(1), 0, 512), None);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn lru_evicts_oldest_not_recently_used() {
        let mut c = cache(2);
        c.insert(FileId(1), 0, 1024);
        c.insert(FileId(2), 0, 1024);
        // Touch file 1 so file 2 is the LRU victim.
        assert!(c.lookup(FileId(1), 0, 1024).is_some());
        c.insert(FileId(3), 0, 1024);
        assert_eq!(c.stats.evictions, 1);
        assert!(c.lookup(FileId(1), 0, 1024).is_some());
        assert_eq!(c.lookup(FileId(2), 0, 1024), None);
        assert!(c.lookup(FileId(3), 0, 1024).is_some());
    }

    #[test]
    fn duplicate_insert_is_a_noop() {
        let mut c = cache(2);
        assert!(c.insert(FileId(1), 0, 1024).is_some());
        assert!(c.insert(FileId(1), 0, 1024).is_none());
        assert_eq!(c.stats.inserts, 1);
    }

    #[test]
    fn no_allocation_after_construction() {
        // All slots cycle through the free list / LRU without growing.
        let mut c = cache(8);
        for i in 0..1000u64 {
            c.insert(FileId(i), 0, 1024);
        }
        assert_eq!(c.n_slots(), 8);
        assert_eq!(c.stats.evictions, 1000 - 8);
    }
}
