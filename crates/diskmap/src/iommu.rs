//! IOMMU protection domain.
//!
//! Diskmap's memory safety story (§3.1.2): at attach time the kernel
//! maps exactly the pre-allocated queue and buffer memory into the
//! PCIe device's IOMMU page table. Because the set is static there
//! are no transient map/unmap operations on the datapath (which would
//! devastate performance — the paper cites vIOMMU and the
//! copy-vs-zero-copy IOMMU work). A DMA request that falls outside
//! the domain faults instead of corrupting memory.
//!
//! The mapped set is kept as sorted, maximal runs of pages rather
//! than one entry per page. A buffer pool is one physical allocation,
//! so attach maps it as a single run and a check is one binary search,
//! while the set itself stays exactly page-granular.

use dcn_mem::PhysRegion;
use std::ops::Range;

/// A device's set of DMA-permitted pages.
#[derive(Default, Debug, Clone)]
pub struct IommuDomain {
    /// Half-open page runs `[first_page, end_page)`, sorted, with no
    /// two runs overlapping or adjacent (adjacent maps merge).
    runs: Vec<(u64, u64)>,
    enabled: bool,
}

impl IommuDomain {
    /// An enforcing domain with nothing mapped.
    #[must_use]
    pub fn new() -> Self {
        IommuDomain {
            runs: Vec::new(),
            enabled: true,
        }
    }

    /// A pass-through domain (the paper notes diskmap can run unsafely
    /// with direct physical addresses when the IOMMU is disabled; the
    /// API is unchanged either way).
    #[must_use]
    pub fn passthrough() -> Self {
        IommuDomain {
            runs: Vec::new(),
            enabled: false,
        }
    }

    #[must_use]
    pub fn is_enforcing(&self) -> bool {
        self.enabled
    }

    /// Map a region (page-granular, as IOMMUs are).
    pub fn map(&mut self, region: PhysRegion) {
        let Range { start: first, end } = region.chunks();
        if first == end {
            return;
        }
        // Merge: runs[lo..hi] overlap or touch [first, end).
        let lo = self.runs.partition_point(|r| r.1 < first);
        let hi = self.runs.partition_point(|r| r.0 <= end);
        if lo == hi {
            self.runs.insert(lo, (first, end));
        } else {
            let merged = (first.min(self.runs[lo].0), end.max(self.runs[hi - 1].1));
            self.runs[lo] = merged;
            self.runs.drain(lo + 1..hi);
        }
    }

    /// The mapped page runs (tests inspect the layout).
    #[cfg(test)]
    pub(crate) fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Number of mapped pages (diagnostics).
    #[must_use]
    pub fn mapped_pages(&self) -> usize {
        self.runs.iter().map(|r| (r.1 - r.0) as usize).sum()
    }

    /// Would a DMA touching `region` be allowed?
    #[must_use]
    pub fn check(&self, region: PhysRegion) -> bool {
        if !self.enabled {
            return true;
        }
        let pages = region.chunks();
        if pages.is_empty() {
            return true;
        }
        // The run holding the first page is the last run starting at or
        // before it; the region passes iff it also ends inside that run.
        let i = self.runs.partition_point(|r| r.0 <= pages.start);
        i > 0 && pages.end <= self.runs[i - 1].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_mem::{PhysAddr, CHUNK_SIZE};
    use dcn_simcore::SimRng;
    use std::collections::HashSet;

    #[test]
    fn mapped_region_passes_unmapped_faults() {
        let mut d = IommuDomain::new();
        let r = PhysRegion::new(PhysAddr(CHUNK_SIZE * 10), CHUNK_SIZE * 2);
        d.map(r);
        assert!(d.check(r));
        assert!(d.check(r.slice(100, 1000)));
        // A region one page past the mapping faults.
        let stray = PhysRegion::new(PhysAddr(CHUNK_SIZE * 12), 64);
        assert!(!d.check(stray));
        // A region straddling the boundary faults too.
        let straddle = PhysRegion::new(PhysAddr(CHUNK_SIZE * 11 + 100), CHUNK_SIZE);
        assert!(!d.check(straddle));
    }

    #[test]
    fn passthrough_allows_everything() {
        let d = IommuDomain::passthrough();
        assert!(d.check(PhysRegion::new(PhysAddr(0xDEAD_0000), 4096)));
        assert!(!d.is_enforcing());
    }

    #[test]
    fn mapping_is_page_granular() {
        let mut d = IommuDomain::new();
        d.map(PhysRegion::new(PhysAddr(CHUNK_SIZE + 100), 8));
        // The whole containing page is mapped (hardware granularity).
        assert!(d.check(PhysRegion::new(PhysAddr(CHUNK_SIZE), CHUNK_SIZE)));
        assert_eq!(d.mapped_pages(), 1);
    }

    /// Pages the differential tests draw regions from.
    const SPACE: u64 = 256;

    fn region(addr: u64, len: u64) -> PhysRegion {
        PhysRegion::new(PhysAddr(addr), len)
    }

    /// A region at any byte past page 0, up to three pages long, and
    /// zero-length one time in eight.
    fn random_region(rng: &mut SimRng) -> PhysRegion {
        let addr = rng.gen_range(CHUNK_SIZE, (SPACE - 4) * CHUNK_SIZE);
        let len = if rng.gen_range(0, 8) == 0 {
            0
        } else {
            rng.gen_range(1, 3 * CHUNK_SIZE + 1)
        };
        region(addr, len)
    }

    /// Probes at the edges of `r`'s page span: the pages just before
    /// and after it, two-byte straddles of both edges, zero-length
    /// regions on both edges, and the whole span.
    fn edge_probes(r: PhysRegion) -> [PhysRegion; 7] {
        let first = r.chunks().start * CHUNK_SIZE;
        let end = r.chunks().end * CHUNK_SIZE;
        [
            region(first - CHUNK_SIZE, CHUNK_SIZE),
            region(first - 1, 2),
            region(first, 0),
            region(first, end - first),
            region(end - 1, 2),
            region(end, 0),
            region(end, 1),
        ]
    }

    /// Map `maps` in order into a domain and into a page-set reference;
    /// after every map the two must agree on `mapped_pages` and on
    /// `check` of every edge probe so far plus random probes, and the
    /// runs must stay sorted and maximal.
    fn assert_matches_page_set(maps: &[PhysRegion], rng: &mut SimRng) {
        let mut d = IommuDomain::new();
        let mut pages = HashSet::new();
        for (step, &m) in maps.iter().enumerate() {
            d.map(m);
            pages.extend(m.chunks());
            assert_eq!(d.mapped_pages(), pages.len(), "step {step}: {m:?}");
            assert!(
                d.runs.iter().all(|r| r.0 < r.1) && d.runs.windows(2).all(|w| w[0].1 < w[1].0),
                "step {step}: runs not sorted and maximal: {:?}",
                d.runs
            );
            let random: Vec<PhysRegion> = (0..32).map(|_| random_region(rng)).collect();
            let probes = maps[..=step].iter().flat_map(|&r| edge_probes(r));
            for p in probes.chain(random) {
                let want = p.chunks().all(|pg| pages.contains(&pg));
                assert_eq!(d.check(p), want, "step {step}: probe {p:?} after {m:?}");
            }
        }
    }

    #[test]
    fn runs_match_page_set_in_ascending_descending_and_random_order() {
        let mut rng = SimRng::new(1);
        // A pool-like layout: page-aligned regions of 1–4 pages, each
        // adjacent to the one before or separated by a gap.
        let mut layout = Vec::new();
        let mut page = 1;
        while page < SPACE - 8 {
            let n = rng.gen_range(1, 5);
            layout.push(region(page * CHUNK_SIZE, n * CHUNK_SIZE));
            page += n + rng.gen_range(0, 3);
        }
        assert_matches_page_set(&layout, &mut rng);
        layout.reverse();
        assert_matches_page_set(&layout, &mut rng);
        for i in (1..layout.len()).rev() {
            layout.swap(i, rng.gen_range(0, i as u64 + 1) as usize);
        }
        assert_matches_page_set(&layout, &mut rng);
    }

    #[test]
    fn runs_match_page_set_under_overlapping_duplicate_and_empty_maps() {
        for seed in 0..8 {
            let mut rng = SimRng::new(seed);
            let mut maps: Vec<PhysRegion> = Vec::new();
            for _ in 0..120 {
                // One map in six repeats an earlier one verbatim.
                let m = if !maps.is_empty() && rng.gen_range(0, 6) == 0 {
                    maps[rng.gen_range(0, maps.len() as u64) as usize]
                } else {
                    random_region(&mut rng)
                };
                maps.push(m);
            }
            assert_matches_page_set(&maps, &mut rng);
        }
    }
}
