//! Multi-bitrate (ABR/DASH) catalog layout over the flat namespace.
//!
//! Adaptive streaming stores the *same* content at several quality
//! ladders ("rungs") and lets the client pick a rung per segment. The
//! flat catalog stays exactly what the paper built — equal-sized
//! chunks, one contiguous extent each — and this manifest carves it
//! the way a DASH packager lays out an origin bucket: each title owns
//! a contiguous run of chunks; within a title, segments are laid out
//! in playout order; within a segment, the rungs' chunk ranges sit
//! back to back, lowest rung first.
//!
//! A rung's "bitrate" falls out of the geometry: rung `r` of a
//! segment spans `ladder[r]` whole catalog chunks, and one segment
//! represents `seg_duration` of playout, so
//! `bitrate_r = ladder[r] · chunk_size · 8 / seg_duration`. Clients
//! fetch whole chunks (`GET /chunk/<id>`), so the server-side request
//! path is untouched — the manifest is client/verifier knowledge, the
//! way a real MPD is.

use crate::catalog::{Catalog, FileId};
use dcn_simcore::Nanos;

/// The manifest: maps `(title, segment, rung)` to the chunk range
/// that stores it. Pure arithmetic over the flat catalog — cheap to
/// clone, trivially consistent across clients, servers and the
/// verifier.
#[derive(Clone, Debug, PartialEq)]
pub struct AbrManifest {
    /// Chunks per segment at each rung, strictly ascending (rung 0 is
    /// the lowest bitrate).
    ladder: Vec<u32>,
    /// Segments per title (playout wraps around at the end — an
    /// endless loop channel, which keeps long runs in steady state).
    segs_per_title: u32,
    /// Playout duration one segment represents.
    seg_duration: Nanos,
    /// Underlying chunk (catalog file) size in bytes.
    chunk_size: u64,
    /// Titles carved out of the catalog.
    n_titles: u64,
    /// Sum of the ladder: chunks one segment occupies across rungs.
    chunks_per_seg: u64,
}

impl AbrManifest {
    /// Carve `catalog` into as many titles as fit. Panics if the
    /// ladder is empty/not ascending or the catalog is too small for
    /// even one title.
    #[must_use]
    pub fn carve(
        catalog: &Catalog,
        ladder: &[u32],
        segs_per_title: u32,
        seg_duration: Nanos,
    ) -> Self {
        assert!(!ladder.is_empty() && segs_per_title > 0);
        assert!(seg_duration > Nanos::ZERO);
        assert!(
            ladder.windows(2).all(|w| w[0] < w[1]),
            "ladder must be strictly ascending: {ladder:?}"
        );
        assert!(ladder[0] > 0, "rung 0 must span at least one chunk");
        let chunks_per_seg: u64 = ladder.iter().map(|&c| u64::from(c)).sum();
        let chunks_per_title = chunks_per_seg * u64::from(segs_per_title);
        let n_titles = catalog.n_files() / chunks_per_title;
        assert!(
            n_titles > 0,
            "catalog of {} chunks cannot hold one title of {chunks_per_title}",
            catalog.n_files()
        );
        AbrManifest {
            ladder: ladder.to_vec(),
            segs_per_title,
            seg_duration,
            chunk_size: catalog.file_size(),
            n_titles,
            chunks_per_seg,
        }
    }

    /// The default evaluation ladder: four rungs at 1/2/4/8 chunks
    /// per segment (a 2-4-8× bitrate spread, like a 240p→1080p DASH
    /// ladder), 50 ms of playout per segment so sub-second simulated
    /// runs cover many ABR decisions.
    #[must_use]
    pub fn eval(catalog: &Catalog) -> Self {
        Self::carve(catalog, &[1, 2, 4, 8], 64, Nanos::from_millis(50))
    }

    #[must_use]
    pub fn n_rungs(&self) -> usize {
        self.ladder.len()
    }
    #[must_use]
    pub fn n_titles(&self) -> u64 {
        self.n_titles
    }
    #[must_use]
    pub fn segs_per_title(&self) -> u32 {
        self.segs_per_title
    }
    #[must_use]
    pub fn seg_duration(&self) -> Nanos {
        self.seg_duration
    }
    #[must_use]
    pub fn chunk_size(&self) -> u64 {
        self.chunk_size
    }

    /// Bytes one segment occupies at `rung`.
    #[must_use]
    pub fn seg_bytes(&self, rung: usize) -> u64 {
        u64::from(self.ladder[rung]) * self.chunk_size
    }

    /// Encoded bitrate of `rung` in bits/sec (geometry-derived).
    #[must_use]
    pub fn bitrate_bps(&self, rung: usize) -> f64 {
        self.seg_bytes(rung) as f64 * 8.0 / self.seg_duration.as_secs_f64()
    }

    /// The chunk range storing `(title, seg, rung)`: first chunk id
    /// and chunk count. Panics on out-of-range coordinates.
    #[must_use]
    pub fn rung_range(&self, title: u64, seg: u32, rung: usize) -> (FileId, u32) {
        assert!(title < self.n_titles, "no such title {title}");
        assert!(seg < self.segs_per_title, "no such segment {seg}");
        let rung_off: u64 = self.ladder[..rung].iter().map(|&c| u64::from(c)).sum();
        let base = title * self.chunks_per_seg * u64::from(self.segs_per_title)
            + u64::from(seg) * self.chunks_per_seg
            + rung_off;
        (FileId(base), self.ladder[rung])
    }

    /// Does `file` belong to the chunk range of `(title, seg, rung)`?
    /// The verifier's wrong-rung check.
    #[must_use]
    pub fn in_rung(&self, file: FileId, title: u64, seg: u32, rung: usize) -> bool {
        let (start, count) = self.rung_range(title, seg, rung);
        file.0 >= start.0 && file.0 < start.0 + u64::from(count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> AbrManifest {
        // 1000 chunks; one title = (1+2+4)*8 = 56 chunks → 17 titles.
        let cat = Catalog::new(1000, 300 * 1024, 4, 7);
        AbrManifest::carve(&cat, &[1, 2, 4], 8, Nanos::from_millis(50))
    }

    #[test]
    fn rung_ranges_tile_each_segment_without_overlap() {
        let m = manifest();
        let mut seen = std::collections::HashSet::new();
        for title in 0..m.n_titles() {
            for seg in 0..m.segs_per_title() {
                for rung in 0..m.n_rungs() {
                    let (start, count) = m.rung_range(title, seg, rung);
                    for i in 0..u64::from(count) {
                        assert!(
                            seen.insert(start.0 + i),
                            "chunk {} claimed twice",
                            start.0 + i
                        );
                    }
                }
            }
        }
        // Titles tile the front of the catalog contiguously.
        assert_eq!(seen.len() as u64, m.n_titles() * 56);
        assert!(seen.contains(&0) && seen.contains(&(m.n_titles() * 56 - 1)));
    }

    #[test]
    fn bitrates_ascend_with_the_ladder() {
        let m = manifest();
        for r in 1..m.n_rungs() {
            assert!(m.bitrate_bps(r) > m.bitrate_bps(r - 1));
        }
        // Geometry check: rung 0 is one 300 KiB chunk per 50 ms.
        let want = 300.0 * 1024.0 * 8.0 / 0.050;
        assert!((m.bitrate_bps(0) - want).abs() < 1.0);
    }

    #[test]
    fn in_rung_accepts_own_range_and_rejects_neighbours() {
        let m = manifest();
        let (start, count) = m.rung_range(2, 3, 1);
        assert!(m.in_rung(start, 2, 3, 1));
        assert!(m.in_rung(FileId(start.0 + u64::from(count) - 1), 2, 3, 1));
        assert!(!m.in_rung(FileId(start.0 + u64::from(count)), 2, 3, 1));
        // The same chunk is NOT part of another rung of the segment.
        assert!(!m.in_rung(start, 2, 3, 0));
        assert!(!m.in_rung(start, 2, 3, 2));
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn non_ascending_ladder_is_rejected() {
        let cat = Catalog::new(1000, 300 * 1024, 4, 7);
        let _ = AbrManifest::carve(&cat, &[2, 2], 8, Nanos::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "cannot hold one title")]
    fn too_small_catalog_is_rejected() {
        let cat = Catalog::new(10, 300 * 1024, 4, 7);
        let _ = AbrManifest::carve(&cat, &[1, 2, 4], 8, Nanos::from_millis(50));
    }
}
