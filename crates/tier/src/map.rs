//! Compact per-object tier metadata.
//!
//! A million-object catalog cannot afford a `HashMap<FileId, _>` per
//! concern. [`TierMap`] keeps two flat bitmaps — a residency flip
//! bitmap and a promotion-queued bitmap, 250 KB per million objects,
//! never resized — and a sparse heat map. Each bitmap starts all
//! zeros, so each is a [`ZeroedTable`]: construction writes none of
//! it, and a page costs its first-touch fault when the run first uses
//! it.
//!
//! Heat is non-zero only for recently requested objects: a touch adds
//! at most 255 and every epoch halves it, so an object nobody asked
//! for in 8 epochs reads 0. The heat map holds only those live
//! entries; an absent object reads 0, and [`TierMap::decay`] walks
//! the live entries and drops the ones that reach 0, so its cost and
//! memory follow the recent request stream, not the catalog.
//!
//! Residency is stored relative to the seeded hot set: the `seeded`
//! most popular objects under the catalog's [`RankPerm`] start hot,
//! and an object's flip bit is set only while its residency differs
//! from that. So `is_hot(f) = (rank_of(f) < seeded) != flipped[f]`,
//! and seeding a 400k-object hot set writes nothing.

use dcn_simcore::{RankPerm, ZeroedTable};
use dcn_store::FileId;
use std::collections::HashMap;

/// Residency + access-heat metadata for every catalog object.
pub struct TierMap {
    /// Popularity rank ↔ object id over the whole catalog.
    perm: RankPerm,
    /// Objects of rank < `seeded` start resident on the hot tier.
    seeded: u64,
    /// Bit set ⇒ residency differs from the seeded head.
    flipped: ZeroedTable<u64>,
    /// Bit set ⇒ object is already in the promotion queue (dedup).
    queued: ZeroedTable<u64>,
    /// Saturating access-heat counter, halved every epoch, for the
    /// objects whose heat is non-zero (keyed by object id). Nothing
    /// iterates it in an order that reaches an output: `decay` halves
    /// every entry alike.
    heat: HashMap<u32, u8>,
    hot_count: u64,
}

impl TierMap {
    /// A map over `perm.len()` objects whose `seeded` most popular
    /// ones start hot.
    #[must_use]
    pub fn new(perm: RankPerm, seeded: u64) -> Self {
        let n = perm.len();
        assert!(seeded <= n);
        assert!(n <= 1 << 32, "object ids must fit the heat map's u32 keys");
        let words = n.div_ceil(64) as usize;
        TierMap {
            perm,
            seeded,
            flipped: ZeroedTable::new(words),
            queued: ZeroedTable::new(words),
            heat: HashMap::new(),
            hot_count: seeded,
        }
    }

    #[must_use]
    pub fn len(&self) -> u64 {
        self.perm.len()
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The popularity permutation (rank → object id) the seeded head
    /// is drawn from.
    #[must_use]
    pub fn perm(&self) -> &RankPerm {
        &self.perm
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
        (self.perm.rank_of(f.0) < self.seeded) != (self.flipped[w] & b != 0)
    }

    pub fn set_hot(&mut self, f: FileId) {
        if !self.is_hot(f) {
            let (w, b) = Self::idx(f);
            self.flipped[w] ^= b;
            self.hot_count += 1;
        }
    }

    pub fn clear_hot(&mut self, f: FileId) {
        if self.is_hot(f) {
            let (w, b) = Self::idx(f);
            self.flipped[w] ^= b;
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
        self.heat.get(&(f.0 as u32)).copied().unwrap_or(0)
    }

    /// Record one access; returns the new heat.
    pub fn touch(&mut self, f: FileId, step: u8) -> u8 {
        let h = self.heat.entry(f.0 as u32).or_insert(0);
        *h = h.saturating_add(step);
        *h
    }

    /// Epoch decay: halve every heat counter. Walks only the live
    /// entries and drops those that reach 0 — O(live), not O(catalog).
    pub fn decay(&mut self) {
        self.heat.retain(|_, h| {
            *h >>= 1;
            *h != 0
        });
    }

    /// Live heat entries: the objects touched since their heat last
    /// decayed to 0.
    #[cfg(test)]
    pub(crate) fn live_heat(&self) -> usize {
        self.heat.len()
    }

    /// Scan up to `limit` objects starting at `*cursor` (wrapping) for
    /// a hot, unqueued object with heat ≤ `threshold` — a demotion
    /// victim. Advances the cursor past the scanned range. Residency
    /// is a permutation inverse, so it is tested after the heat
    /// lookup and the bit read.
    pub fn find_cold_victim(&self, cursor: &mut u64, limit: u64, threshold: u8) -> Option<FileId> {
        let n = self.len();
        for _ in 0..limit.min(n) {
            let f = FileId(*cursor);
            *cursor = (*cursor + 1) % n;
            if self.heat(f) <= threshold && !self.is_queued(f) && self.is_hot(f) {
                return Some(f);
            }
        }
        None
    }

    /// Approximate resident-set bytes of the metadata itself: the two
    /// bitmaps plus each live heat entry (key, value and the hash
    /// table's control byte).
    #[must_use]
    pub fn metadata_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<(u32, u8)>() + 1;
        (self.flipped.len() * 8 + self.queued.len() * 8 + self.heat.len() * entry) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_simcore::SimRng;

    /// A map with nothing seeded hot.
    fn unseeded(n: u64) -> TierMap {
        TierMap::new(RankPerm::new(n, 1), 0)
    }

    #[test]
    fn residency_bitmap_round_trips() {
        let mut m = unseeded(1_000_000);
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
        let mut m = unseeded(64);
        for _ in 0..200 {
            m.touch(FileId(7), 3);
        }
        assert_eq!(m.heat(FileId(7)), u8::MAX);
        m.decay();
        assert_eq!(m.heat(FileId(7)), 127);
        assert_eq!(m.heat(FileId(8)), 0);
    }

    #[test]
    fn decay_drops_every_entry_it_halves_to_zero() {
        const K: u64 = 1000;
        let mut m = unseeded(1_000_000);
        for id in 0..K {
            m.touch(FileId(id * 997), u8::MAX);
        }
        assert_eq!(m.live_heat(), K as usize);
        // 255 needs eight halvings to reach 0.
        let mut want = u8::MAX;
        for epoch in 1..=8 {
            m.decay();
            want >>= 1;
            let left = if epoch < 8 { K as usize } else { 0 };
            assert_eq!(m.live_heat(), left, "after {epoch} decays");
            assert_eq!(m.heat(FileId(997)), want);
        }
        assert!(m.heat.is_empty());
    }

    #[test]
    fn metadata_is_compact_at_a_million_objects() {
        let mut m = unseeded(1_000_000);
        // Hard bound: compact metadata, no per-object allocation. 2
        // bits of bitmaps per object, plus only the live heat entries.
        assert!(m.metadata_bytes() < 2_000_000, "{}", m.metadata_bytes());
        let bitmaps = m.metadata_bytes();
        assert!(bitmaps < 300_000, "{bitmaps}");
        for id in 0..10_000 {
            m.touch(FileId(id), 3);
        }
        let entry = m.metadata_bytes() - bitmaps;
        assert_eq!(entry % 10_000, 0);
        assert!((5..=16).contains(&(entry / 10_000)), "{entry}");
        m.decay();
        m.decay();
        assert_eq!(m.metadata_bytes(), bitmaps, "decayed entries still counted");
    }

    #[test]
    fn victim_scan_skips_queued_and_hot_enough() {
        let mut m = unseeded(128);
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

    #[test]
    fn a_map_built_after_a_dropped_one_reads_only_the_seeded_head() {
        // A million objects, as the tier serves, so the second map's
        // bitmaps are the size of the first's; the first map's heat
        // holds every object, the second's none.
        const N: u64 = 1_000_000;
        let perm = RankPerm::new(N, 0x5eed);
        let seeded = N * 2 / 5;
        let mut first = TierMap::new(perm, seeded);
        for id in 0..N {
            let f = FileId(id);
            if first.is_hot(f) {
                first.clear_hot(f);
            } else {
                first.set_hot(f);
            }
            first.touch(f, 200);
            first.set_queued(f);
        }
        assert_eq!(first.hot_count(), N - seeded);
        assert_eq!(first.live_heat(), N as usize);
        drop(first);
        let second = TierMap::new(perm, seeded);
        assert_eq!(second.hot_count(), seeded);
        assert_eq!(second.live_heat(), 0);
        for id in 0..N {
            let f = FileId(id);
            assert_eq!(second.is_hot(f), perm.rank_of(id) < seeded, "id {id}");
            assert_eq!((second.heat(f), second.is_queued(f)), (0, false), "id {id}");
        }
    }

    /// The map as it was stored before residency became a flip from
    /// the seeded head: one hot bit per object, seeded by setting the
    /// `k` most popular objects hot one at a time.
    struct Reference {
        hot: Vec<bool>,
        queued: Vec<bool>,
        heat: Vec<u8>,
        hot_count: u64,
    }

    impl Reference {
        fn new(perm: &RankPerm, k: u64) -> Self {
            let n = perm.len() as usize;
            let mut r = Reference {
                hot: vec![false; n],
                queued: vec![false; n],
                heat: vec![0; n],
                hot_count: 0,
            };
            for rank in 0..k {
                r.set_hot(FileId(perm.apply(rank)));
            }
            r
        }

        fn set_hot(&mut self, f: FileId) {
            let h = &mut self.hot[f.0 as usize];
            self.hot_count += u64::from(!*h);
            *h = true;
        }

        fn clear_hot(&mut self, f: FileId) {
            let h = &mut self.hot[f.0 as usize];
            self.hot_count -= u64::from(*h);
            *h = false;
        }

        fn find_cold_victim(&self, cursor: &mut u64, limit: u64, threshold: u8) -> Option<FileId> {
            let n = self.hot.len() as u64;
            for _ in 0..limit.min(n) {
                let f = *cursor as usize;
                *cursor = (*cursor + 1) % n;
                if self.hot[f] && !self.queued[f] && self.heat[f] <= threshold {
                    return Some(FileId(f as u64));
                }
            }
            None
        }
    }

    fn assert_same_residency(m: &TierMap, r: &Reference, ctx: &str) {
        assert_eq!(m.hot_count(), r.hot_count, "{ctx}");
        for id in 0..m.len() {
            assert_eq!(m.is_hot(FileId(id)), r.hot[id as usize], "{ctx} id {id}");
        }
    }

    #[test]
    fn seeded_flips_match_a_bitmap_reference() {
        for n in [1u64, 64, 65, 1000, 1_000_000] {
            for k in [0, 1, n / 2, n] {
                let perm = RankPerm::new(n, dcn_simcore::RANK_PERM_SEED);
                let mut m = TierMap::new(perm, k);
                let mut r = Reference::new(&perm, k);
                let ctx = format!("n={n} k={k}");
                assert_same_residency(&m, &r, &ctx);
                let mut rng = SimRng::new(n ^ k.rotate_left(32));
                let (mut f, mut cursor) = (FileId(0), 0);
                let sweep_every = (n / 16).max(1);
                for step in 0..2000u64 {
                    // Half the ops reuse the previous object, so repeated
                    // and no-op sets and clears come up often.
                    if rng.chance(0.5) {
                        f = FileId(rng.gen_range(0, n));
                    }
                    match rng.gen_range(0, 16) {
                        0..=3 => {
                            m.set_hot(f);
                            r.set_hot(f);
                        }
                        4..=7 => {
                            m.clear_hot(f);
                            r.clear_hot(f);
                        }
                        8..=10 => {
                            let by = [1, 3, 50, 200][rng.gen_range(0, 4) as usize];
                            let h = m.touch(f, by);
                            let rh = &mut r.heat[f.0 as usize];
                            *rh = rh.saturating_add(by);
                            assert_eq!(h, *rh, "{ctx} step {step}");
                        }
                        11 => {
                            m.decay();
                            r.heat.iter_mut().for_each(|h| *h >>= 1);
                        }
                        12 | 13 => {
                            let q = rng.chance(0.5);
                            if q {
                                m.set_queued(f);
                            } else {
                                m.clear_queued(f);
                            }
                            r.queued[f.0 as usize] = q;
                        }
                        _ => {
                            if rng.chance(0.3) {
                                cursor = rng.gen_range(0, n);
                            }
                            let limit = [1, 17, 64, 8192][rng.gen_range(0, 4) as usize];
                            let threshold = rng.gen_range(0, 12) as u8;
                            let mut rc = cursor;
                            let got = m.find_cold_victim(&mut cursor, limit, threshold);
                            let want = r.find_cold_victim(&mut rc, limit, threshold);
                            assert_eq!((got, cursor), (want, rc), "{ctx} step {step}");
                            if let Some(v) = got {
                                m.clear_hot(v);
                                r.clear_hot(v);
                            }
                        }
                    }
                    assert_eq!(m.hot_count(), r.hot_count, "{ctx} step {step}");
                    if step % sweep_every == 0 {
                        assert_same_residency(&m, &r, &format!("{ctx} step {step}"));
                    }
                }
                assert_same_residency(&m, &r, &ctx);
                for id in 0..n {
                    let f = FileId(id);
                    assert_eq!(m.heat(f), r.heat[id as usize], "{ctx} id {id}");
                    assert_eq!(m.is_queued(f), r.queued[id as usize], "{ctx} id {id}");
                }
                let live = r.heat.iter().filter(|&&h| h != 0).count();
                assert_eq!(m.live_heat(), live, "{ctx}");
            }
        }
    }
}
