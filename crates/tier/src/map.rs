//! Compact per-object tier metadata.
//!
//! A million-object catalog cannot afford a `HashMap<FileId, _>` per
//! concern. [`TierMap`] keeps exactly three flat arrays — a hot-tier
//! residency bitmap, a promotion-queued bitmap, and one saturating
//! heat byte per object — 1.25 MB per million objects, allocated
//! once at construction and never resized.

use dcn_store::FileId;

/// Residency + access-heat metadata for every catalog object.
pub struct TierMap {
    n: u64,
    /// Bit set ⇒ object is resident on the hot tier.
    hot: Vec<u64>,
    /// Bit set ⇒ object is already in the promotion queue (dedup).
    queued: Vec<u64>,
    /// Saturating access-heat counter, halved every epoch.
    heat: Vec<u8>,
    hot_count: u64,
}

impl TierMap {
    #[must_use]
    pub fn new(n: u64) -> Self {
        assert!(n > 0);
        let words = n.div_ceil(64) as usize;
        TierMap {
            n,
            hot: vec![0; words],
            queued: vec![0; words],
            heat: vec![0; n as usize],
            hot_count: 0,
        }
    }

    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    #[must_use]
    pub fn hot_count(&self) -> u64 {
        self.hot_count
    }

    #[inline]
    fn idx(f: FileId) -> (usize, u64) {
        ((f.0 / 64) as usize, 1u64 << (f.0 % 64))
    }

    #[must_use]
    pub fn is_hot(&self, f: FileId) -> bool {
        let (w, b) = Self::idx(f);
        self.hot[w] & b != 0
    }

    pub fn set_hot(&mut self, f: FileId) {
        let (w, b) = Self::idx(f);
        if self.hot[w] & b == 0 {
            self.hot[w] |= b;
            self.hot_count += 1;
        }
    }

    pub fn clear_hot(&mut self, f: FileId) {
        let (w, b) = Self::idx(f);
        if self.hot[w] & b != 0 {
            self.hot[w] &= !b;
            self.hot_count -= 1;
        }
    }

    #[must_use]
    pub fn is_queued(&self, f: FileId) -> bool {
        let (w, b) = Self::idx(f);
        self.queued[w] & b != 0
    }

    pub fn set_queued(&mut self, f: FileId) {
        let (w, b) = Self::idx(f);
        self.queued[w] |= b;
    }

    pub fn clear_queued(&mut self, f: FileId) {
        let (w, b) = Self::idx(f);
        self.queued[w] &= !b;
    }

    #[must_use]
    pub fn heat(&self, f: FileId) -> u8 {
        self.heat[f.0 as usize]
    }

    /// Record one access; returns the new heat.
    pub fn touch(&mut self, f: FileId, step: u8) -> u8 {
        let h = &mut self.heat[f.0 as usize];
        *h = h.saturating_add(step);
        *h
    }

    /// Epoch decay: halve every heat counter. O(n) over one byte per
    /// object — ~1 MB scanned per epoch for a million objects.
    pub fn decay(&mut self) {
        for h in &mut self.heat {
            *h >>= 1;
        }
    }

    /// Scan up to `limit` objects starting at `*cursor` (wrapping) for
    /// a hot, unqueued object with heat ≤ `threshold` — a demotion
    /// victim. Advances the cursor past the scanned range.
    pub fn find_cold_victim(&self, cursor: &mut u64, limit: u64, threshold: u8) -> Option<FileId> {
        for _ in 0..limit.min(self.n) {
            let f = FileId(*cursor);
            *cursor = (*cursor + 1) % self.n;
            if self.is_hot(f) && !self.is_queued(f) && self.heat(f) <= threshold {
                return Some(f);
            }
        }
        None
    }

    /// Approximate resident-set bytes of the metadata itself.
    #[must_use]
    pub fn metadata_bytes(&self) -> u64 {
        (self.hot.len() * 8 + self.queued.len() * 8 + self.heat.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_bitmap_round_trips() {
        let mut m = TierMap::new(1_000_000);
        assert_eq!(m.hot_count(), 0);
        m.set_hot(FileId(0));
        m.set_hot(FileId(999_999));
        m.set_hot(FileId(999_999)); // idempotent
        assert_eq!(m.hot_count(), 2);
        assert!(m.is_hot(FileId(0)) && m.is_hot(FileId(999_999)));
        assert!(!m.is_hot(FileId(63)));
        m.clear_hot(FileId(0));
        assert_eq!(m.hot_count(), 1);
        assert!(!m.is_hot(FileId(0)));
    }

    #[test]
    fn heat_saturates_and_decays() {
        let mut m = TierMap::new(64);
        for _ in 0..200 {
            m.touch(FileId(7), 3);
        }
        assert_eq!(m.heat(FileId(7)), u8::MAX);
        m.decay();
        assert_eq!(m.heat(FileId(7)), 127);
        assert_eq!(m.heat(FileId(8)), 0);
    }

    #[test]
    fn metadata_is_compact_at_a_million_objects() {
        let m = TierMap::new(1_000_000);
        // Hard bound from the issue: compact metadata, no per-object
        // allocation. 1 byte heat + 2 bits of bitmaps per object.
        assert!(m.metadata_bytes() < 2_000_000, "{}", m.metadata_bytes());
    }

    #[test]
    fn victim_scan_skips_queued_and_hot_enough() {
        let mut m = TierMap::new(128);
        m.set_hot(FileId(5));
        m.set_hot(FileId(6));
        m.set_hot(FileId(7));
        m.touch(FileId(5), 200); // too hot to demote
        m.set_queued(FileId(6)); // already migrating
        let mut cur = 0;
        assert_eq!(m.find_cold_victim(&mut cur, 128, 10), Some(FileId(7)));
        let mut cur2 = 8;
        // Wraps around the end of the id space.
        assert_eq!(m.find_cold_victim(&mut cur2, 128, 10), Some(FileId(7)));
    }
}
