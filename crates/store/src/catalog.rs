//! The flat-namespace content catalog (Atlas's "filesystem").
//!
//! No directories, no inodes, no indirection: file `f` of size `s`
//! occupies `ceil(s / LBA)` consecutive logical blocks on one disk,
//! at an extent base assigned round-robin across disks at catalog
//! build time. This is the paper's §3.2 design and also how the
//! conventional-stack model addresses disk blocks (their VFS layer
//! adds cost, not layout).

use dcn_nvme::{BlockBacking, LBA_SIZE};
use dcn_simcore::prf_bytes;

/// A file (video chunk) identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Where a byte range of a file lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkLoc {
    /// Disk index in the kernel's device table.
    pub disk: usize,
    /// NVMe namespace on that disk.
    pub nsid: u32,
    /// Starting byte offset on the namespace (LBA-aligned).
    pub dev_offset: u64,
}

/// The catalog: `n_files` equal-sized files striped over `n_disks`.
///
/// The paper's workload uses ~300 KB files ("each corresponding to
/// the equivalent of a video chunk", §4); per-file placement spreads
/// load evenly, and within a file all blocks are consecutive on one
/// disk, so a chunk fetch is exactly one contiguous NVMe read.
#[derive(Clone, Debug)]
pub struct Catalog {
    n_files: u64,
    file_size: u64,
    n_disks: usize,
    /// Blocks each file's extent occupies (rounded up to LBA).
    extent_lbas: u64,
    seed: u64,
}

impl Catalog {
    #[must_use]
    pub fn new(n_files: u64, file_size: u64, n_disks: usize, seed: u64) -> Self {
        assert!(n_files > 0 && file_size > 0 && n_disks > 0);
        Catalog {
            n_files,
            file_size,
            n_disks,
            extent_lbas: file_size.div_ceil(LBA_SIZE),
            seed,
        }
    }

    /// The paper's evaluation catalog: 300 KB chunks over 4 disks,
    /// sized so the catalog far exceeds RAM (0% BC workloads always
    /// miss).
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        // 2 million chunks ≈ 600 GB of content.
        Catalog::new(2_000_000, 300 * 1024, 4, seed)
    }

    #[must_use]
    pub fn n_files(&self) -> u64 {
        self.n_files
    }
    #[must_use]
    pub fn file_size(&self) -> u64 {
        self.file_size
    }
    #[must_use]
    pub fn n_disks(&self) -> usize {
        self.n_disks
    }

    /// Locate `offset` within `file`. Panics on out-of-range access —
    /// the HTTP layer validates requests first.
    #[must_use]
    pub fn locate(&self, file: FileId, offset: u64) -> ChunkLoc {
        assert!(file.0 < self.n_files, "no such file {file:?}");
        assert!(offset < self.file_size, "offset {offset} beyond file size");
        let disk = (file.0 % self.n_disks as u64) as usize;
        let index_on_disk = file.0 / self.n_disks as u64;
        let base_lba = index_on_disk * self.extent_lbas;
        ChunkLoc {
            disk,
            nsid: 1,
            dev_offset: base_lba * LBA_SIZE + (offset / LBA_SIZE) * LBA_SIZE,
        }
    }

    /// LBA-aligned read covering `[offset, offset+len)` of the file:
    /// returns (location, aligned length, byte slack before `offset`).
    #[must_use]
    pub fn read_span(&self, file: FileId, offset: u64, len: u64) -> (ChunkLoc, u64, u64) {
        let loc = self.locate(file, offset);
        let pre = offset % LBA_SIZE;
        let aligned = (pre + len).div_ceil(LBA_SIZE) * LBA_SIZE;
        (
            loc,
            aligned.min((self.file_size - (offset - pre)).div_ceil(LBA_SIZE) * LBA_SIZE),
            pre,
        )
    }

    /// Expected content of `file` at `offset` — verification oracle
    /// for clients: must equal what any tier returns through any
    /// stack. A pure function of (file id, offset) — no placement
    /// lookup and no prebuilt table — so the oracle exists even for
    /// cold objects whose bytes never materialize on the hot tier
    /// (they are synthesized on demand by whichever backend serves
    /// the fetch).
    pub fn expected(&self, file: FileId, offset: u64, out: &mut [u8]) {
        assert!(file.0 < self.n_files, "no such file {file:?}");
        prf_bytes(self.file_seed(file), offset, out);
    }

    /// Whether `got` is the content of `file` at `offset`: the
    /// oracle of [`Catalog::expected`], generated block by block into
    /// a fixed stack buffer, so checking delivered bytes where they
    /// sit allocates nothing.
    #[must_use]
    pub fn matches(&self, file: FileId, offset: u64, got: &[u8]) -> bool {
        assert!(file.0 < self.n_files, "no such file {file:?}");
        let seed = self.file_seed(file);
        let mut want = [0u8; 4096];
        let mut off = offset;
        got.chunks(want.len()).all(|g| {
            let want = &mut want[..g.len()];
            prf_bytes(seed, off, want);
            off += g.len() as u64;
            g == want
        })
    }

    /// Per-file content seed: the PRF stream key for `file`'s bytes.
    /// Every storage backend (NVMe flat namespace, cold object store,
    /// hot-chunk cache) serves bytes from this same function, so
    /// promotion and demotion can never change content.
    #[must_use]
    pub fn file_seed(&self, file: FileId) -> u64 {
        // SplitMix64-style mix so nearby ids give unrelated streams.
        let mut z = self
            .seed
            .wrapping_add(file.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31) ^ 0xCA7A_1060_0000_0000
    }

    /// Bytes each file's extent occupies on disk (LBA-rounded).
    #[must_use]
    pub fn extent_bytes(&self) -> u64 {
        self.extent_lbas * LBA_SIZE
    }
}

/// [`BlockBacking`] that serves the catalog's content convention from
/// raw device coordinates: it inverts the placement function —
/// (disk, LBA) → (file, in-file offset) — and synthesizes that file's
/// PRF bytes. This is what the hot tier's NVMe devices are built
/// with, so disk reads, cold-store fetches, and the client oracle all
/// agree byte-for-byte.
pub struct CatalogBacking {
    catalog: Catalog,
    disk: usize,
}

impl CatalogBacking {
    #[must_use]
    pub fn new(catalog: &Catalog, disk: usize) -> Self {
        assert!(disk < catalog.n_disks());
        CatalogBacking {
            catalog: catalog.clone(),
            disk,
        }
    }
}

impl BlockBacking for CatalogBacking {
    fn read(&self, _nsid: u32, lba: u64, offset: u64, out: &mut [u8]) {
        let extent = self.catalog.extent_bytes();
        let mut pos = lba * LBA_SIZE + offset;
        let mut done = 0usize;
        while done < out.len() {
            let index_on_disk = pos / extent;
            let file = FileId(index_on_disk * self.catalog.n_disks() as u64 + self.disk as u64);
            let in_file = pos % extent;
            // Tail slack past file_size (LBA rounding) and reads past
            // the last extent continue the same PRF streams: never
            // verified, but deterministic.
            let n = ((extent - in_file) as usize).min(out.len() - done);
            prf_bytes(
                self.catalog.file_seed(file),
                in_file,
                &mut out[done..done + n],
            );
            done += n;
            pos += n as u64;
        }
    }

    fn write(&mut self, _nsid: u32, _lba: u64, _offset: u64, _data: &[u8]) {
        panic!("CatalogBacking is read-only (the streaming catalog is immutable)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_stripe_round_robin() {
        let c = Catalog::new(100, 300 * 1024, 4, 7);
        assert_eq!(c.locate(FileId(0), 0).disk, 0);
        assert_eq!(c.locate(FileId(1), 0).disk, 1);
        assert_eq!(c.locate(FileId(5), 0).disk, 1);
    }

    #[test]
    fn extents_are_consecutive_and_disjoint() {
        let c = Catalog::new(100, 300 * 1024, 4, 7);
        // Files 0 and 4 are consecutive extents on disk 0.
        let a = c.locate(FileId(0), 0);
        let b = c.locate(FileId(4), 0);
        let extent_bytes = (300 * 1024u64).div_ceil(LBA_SIZE) * LBA_SIZE;
        assert_eq!(b.dev_offset - a.dev_offset, extent_bytes);
        // Offsets within a file are consecutive.
        let mid = c.locate(FileId(0), 150 * 1024);
        assert_eq!(mid.dev_offset - a.dev_offset, 150 * 1024);
    }

    #[test]
    fn read_span_aligns_to_lba() {
        let c = Catalog::new(100, 300 * 1024, 4, 7);
        let (loc, aligned, pre) = c.read_span(FileId(3), 1000, 16 * 1024);
        assert_eq!(pre, 1000 % LBA_SIZE);
        assert_eq!(loc.dev_offset % LBA_SIZE, 0);
        assert!(aligned >= 16 * 1024);
        assert_eq!(aligned % LBA_SIZE, 0);
    }

    #[test]
    #[should_panic(expected = "beyond file size")]
    fn out_of_range_offset_panics() {
        let c = Catalog::new(100, 300 * 1024, 4, 7);
        let _ = c.locate(FileId(0), 400 * 1024);
    }

    #[test]
    fn backing_serves_the_oracle_bytes() {
        // A disk read at the placement coordinates must return exactly
        // what the client oracle predicts, including unaligned offsets
        // and extent boundaries.
        let c = Catalog::new(100, 300 * 1024, 4, 7);
        for (file, off, len) in [
            (FileId(0), 0u64, 4096usize),
            (FileId(5), 1000, 2000),
            (FileId(9), 300 * 1024 - 100, 100),
            (FileId(42), 150 * 1024 + 17, 8192),
        ] {
            let loc = c.locate(file, off);
            let backing = CatalogBacking::new(&c, loc.disk);
            let mut via_disk = vec![0u8; len];
            backing.read(
                loc.nsid,
                loc.dev_offset / LBA_SIZE,
                off % LBA_SIZE,
                &mut via_disk,
            );
            let mut via_oracle = vec![0u8; len];
            c.expected(file, off, &mut via_oracle);
            assert_eq!(via_disk, via_oracle, "{file:?} @{off}+{len}");
        }
    }

    #[test]
    fn oracle_needs_no_placement_for_any_object() {
        // A million-object catalog: the oracle for the very last file
        // is computable without touching any per-object state.
        let c = Catalog::new(1_000_000, 300 * 1024, 4, 7);
        let mut a = vec![0u8; 256];
        c.expected(FileId(999_999), 12_345, &mut a);
        let mut b = vec![0u8; 256];
        c.expected(FileId(999_999), 12_345, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
    }

    #[test]
    fn matches_agrees_with_expected() {
        let c = Catalog::new(100, 300 * 1024, 4, 7);
        for (off, len) in [(0u64, 0usize), (3, 1), (1000, 4096), (17, 10_000)] {
            let mut want = vec![0u8; len];
            c.expected(FileId(9), off, &mut want);
            assert!(c.matches(FileId(9), off, &want), "@{off}+{len}");
            if len > 0 {
                // A flip in the last block is still seen.
                want[len - 1] ^= 1;
                assert!(!c.matches(FileId(9), off, &want), "flip @{off}+{len}");
            }
        }
        let mut other = vec![0u8; 64];
        c.expected(FileId(10), 0, &mut other);
        assert!(!c.matches(FileId(9), 0, &other), "wrong file");
    }

    #[test]
    fn expected_content_is_deterministic_and_positional() {
        let c = Catalog::new(100, 300 * 1024, 4, 7);
        let mut whole = vec![0u8; 2048];
        c.expected(FileId(9), 0, &mut whole);
        let mut tail = vec![0u8; 1024];
        c.expected(FileId(9), 1024, &mut tail);
        assert_eq!(&whole[1024..], &tail[..]);
        // Different files differ.
        let mut other = vec![0u8; 2048];
        c.expected(FileId(10), 0, &mut other);
        assert_ne!(whole, other);
    }
}
