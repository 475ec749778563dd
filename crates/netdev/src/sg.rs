//! Scatter-gather payload lists.
//!
//! A TCP segment's payload is a sequence of chunks: small inline byte
//! runs (record headers, GCM tags, HTTP headers) and references into
//! DMA buffer memory (the video data — never copied). TSO splits an
//! SgList at arbitrary byte boundaries without touching payload
//! bytes.

use dcn_mem::{HostMem, PhysRegion};
use std::sync::Arc;

/// Capacity of an [`SgChunk::Inline`] chunk: enough for a TLS record
/// header (5 B) plus a GCM tag (16 B), the two tiny byte runs the
/// per-record hot path emits.
pub const SG_INLINE_CAP: usize = 24;

/// One chunk of payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SgChunk {
    /// Materialized bytes owned by the segment (framing, tags, HTTP).
    Bytes(Vec<u8>),
    /// Small byte run stored inline — no heap allocation. Used for
    /// per-record TLS framing so the steady state stays alloc-free.
    Inline { len: u8, data: [u8; SG_INLINE_CAP] },
    /// Slice of shared immutable bytes (response headers: built once
    /// per response, referenced by the initial send and any
    /// retransmit without copying).
    Shared {
        bytes: Arc<[u8]>,
        off: u32,
        len: u32,
    },
    /// Zero-copy reference into DMA-visible memory.
    Region(PhysRegion),
}

impl SgChunk {
    /// An [`SgChunk::Inline`] holding `b`. Panics past
    /// [`SG_INLINE_CAP`].
    #[must_use]
    pub fn inline(b: &[u8]) -> Self {
        assert!(b.len() <= SG_INLINE_CAP, "inline chunk over capacity");
        let mut data = [0u8; SG_INLINE_CAP];
        data[..b.len()].copy_from_slice(b);
        SgChunk::Inline {
            len: b.len() as u8,
            data,
        }
    }

    /// Bytes `[from, to)` of this chunk, sliced without touching
    /// payload memory. A cut-off front keeps an inline chunk's array
    /// (and length `to`); a cut-off back shifts it down, so either
    /// half stays inline.
    fn window(&self, from: u64, to: u64) -> SgChunk {
        if from == 0 && to == self.len() {
            return self.clone();
        }
        let n = to - from;
        match self {
            SgChunk::Bytes(b) => SgChunk::Bytes(b[from as usize..to as usize].to_vec()),
            SgChunk::Inline { len, data } => {
                let mut out = *data;
                if from > 0 {
                    out = [0u8; SG_INLINE_CAP];
                    let rest = &data[from as usize..usize::from(*len)];
                    out[..rest.len()].copy_from_slice(rest);
                }
                SgChunk::Inline {
                    len: n as u8,
                    data: out,
                }
            }
            SgChunk::Shared { bytes, off, len: _ } => SgChunk::Shared {
                bytes: Arc::clone(bytes),
                off: off + from as u32,
                len: n as u32,
            },
            SgChunk::Region(r) => SgChunk::Region(r.slice(from, n)),
        }
    }

    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            SgChunk::Bytes(b) => b.len() as u64,
            SgChunk::Inline { len, .. } => u64::from(*len),
            SgChunk::Shared { len, .. } => u64::from(*len),
            SgChunk::Region(r) => r.len,
        }
    }
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Byte view for every in-memory variant (None for a Region —
    /// those bytes live in simulated host memory).
    #[must_use]
    pub fn as_slice(&self) -> Option<&[u8]> {
        match self {
            SgChunk::Bytes(b) => Some(b),
            SgChunk::Inline { len, data } => Some(&data[..usize::from(*len)]),
            SgChunk::Shared { bytes, off, len } => {
                Some(&bytes[*off as usize..(*off + *len) as usize])
            }
            SgChunk::Region(_) => None,
        }
    }
}

/// A scatter-gather list (mbuf-chain equivalent).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SgList(pub Vec<SgChunk>);

impl SgList {
    #[must_use]
    pub fn empty() -> Self {
        SgList(Vec::new())
    }

    #[must_use]
    pub fn from_bytes(b: Vec<u8>) -> Self {
        SgList(vec![SgChunk::Bytes(b)])
    }

    #[must_use]
    pub fn from_region(r: PhysRegion) -> Self {
        SgList(vec![SgChunk::Region(r)])
    }

    pub fn push_bytes(&mut self, b: Vec<u8>) {
        if !b.is_empty() {
            self.0.push(SgChunk::Bytes(b));
        }
    }

    /// Push a small byte run without allocating. Panics past
    /// [`SG_INLINE_CAP`] — callers use this only for record framing,
    /// whose size is a protocol constant.
    pub fn push_inline(&mut self, b: &[u8]) {
        let chunk = SgChunk::inline(b);
        if !b.is_empty() {
            self.0.push(chunk);
        }
    }

    /// Push a slice of shared immutable bytes (refcount bump, no
    /// copy).
    pub fn push_shared(&mut self, bytes: Arc<[u8]>, off: usize, len: usize) {
        assert!(off + len <= bytes.len(), "shared slice past end");
        if len > 0 {
            self.0.push(SgChunk::Shared {
                bytes,
                off: off as u32,
                len: len as u32,
            });
        }
    }

    #[must_use]
    pub fn from_shared(bytes: Arc<[u8]>, off: usize, len: usize) -> Self {
        let mut sg = SgList::empty();
        sg.push_shared(bytes, off, len);
        sg
    }

    pub fn push_region(&mut self, r: PhysRegion) {
        if r.len > 0 {
            self.0.push(SgChunk::Region(r));
        }
    }

    pub fn append(&mut self, mut other: SgList) {
        self.0.append(&mut other.0);
    }

    #[must_use]
    pub fn len(&self) -> u64 {
        self.0.iter().map(SgChunk::len).sum()
    }
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All physical regions referenced (for DMA accounting).
    pub fn regions(&self) -> impl Iterator<Item = PhysRegion> + '_ {
        self.0.iter().filter_map(|c| match c {
            SgChunk::Region(r) => Some(*r),
            _ => None,
        })
    }

    /// Split off the first `at` bytes; `self` keeps the remainder.
    /// Chunks are sliced, not copied (a Region split yields two
    /// sub-regions of the same buffer).
    pub fn split_front(&mut self, at: u64) -> SgList {
        assert!(at <= self.len(), "split past end");
        let mut front = Vec::new();
        let mut need = at;
        let mut rest = std::mem::take(&mut self.0).into_iter();
        for chunk in rest.by_ref() {
            if need == 0 {
                self.0.push(chunk);
                break;
            }
            let l = chunk.len();
            if l <= need {
                need -= l;
                front.push(chunk);
            } else {
                front.push(chunk.window(0, need));
                self.0.push(chunk.window(need, l));
                need = 0;
            }
        }
        self.0.extend(rest);
        SgList(front)
    }

    /// Append bytes `[off, off + len)` of the payload `chunks` spell,
    /// exactly the pieces cloning them into a list and splitting it at
    /// `off`, then at `len`, would leave in front — without cloning
    /// the chunks outside the window. `chunks` holds no empty chunk
    /// (the `push_*` methods never add one).
    pub fn push_window(&mut self, chunks: &[SgChunk], off: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = off + len;
        let mut at = 0;
        for c in chunks {
            if at >= end {
                break;
            }
            let l = c.len();
            if at + l > off {
                let from = off.saturating_sub(at);
                let to = (end - at).min(l);
                self.0.push(c.window(from, to));
            }
            at += l;
        }
        assert!(at >= end, "window past end");
    }

    /// Materialize the full payload (what the NIC's DMA engine reads
    /// onto the wire). Regions are read from simulated host memory.
    #[must_use]
    pub fn materialize(&self, host: &HostMem) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len() as usize);
        for c in &self.0 {
            match c.as_slice() {
                Some(b) => out.extend_from_slice(b),
                None => match c {
                    SgChunk::Region(r) => out.extend_from_slice(&host.read_region(*r)),
                    _ => unreachable!(),
                },
            }
        }
        out
    }
}

/// Wire payload representation: real bytes at full fidelity, a length
/// at modeled fidelity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadBytes {
    Real(Vec<u8>),
    Virtual(u64),
}

impl PayloadBytes {
    #[must_use]
    pub fn len(&self) -> u64 {
        match self {
            PayloadBytes::Real(b) => b.len() as u64,
            PayloadBytes::Virtual(n) => *n,
        }
    }
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_mem::PhysAddr;

    fn region(addr: u64, len: u64) -> PhysRegion {
        PhysRegion::new(PhysAddr(addr), len)
    }

    #[test]
    fn push_window_matches_clone_and_split_at_every_window() {
        // Every chunk kind, plus an inline chunk whose array runs past
        // its length (the front of an earlier split).
        let mut cut = SgList::empty();
        cut.push_inline(&[1, 2, 3, 4, 5, 6, 7]);
        let cut = cut.split_front(4).0.remove(0);
        let mut src = SgList::empty();
        src.push_bytes((10..17).collect());
        src.push_inline(&[0x17, 3, 3, 0, 9]);
        src.push_shared((0..20).collect::<Vec<u8>>().into(), 4, 9);
        src.push_region(region(8192, 13));
        src.0.push(cut);
        src.push_inline(&[0xAB; 16]);
        let total = src.len();
        for off in 0..=total {
            for len in 0..=total - off {
                let mut want = src.clone();
                let _ = want.split_front(off);
                let want = want.split_front(len);
                let mut got = SgList::from_bytes(vec![0xEE]);
                got.push_window(&src.0, off, len);
                assert_eq!(got.0[0], SgChunk::Bytes(vec![0xEE]));
                assert_eq!(got.0[1..], want.0[..], "window [{off}, +{len})");
            }
        }
    }

    #[test]
    fn length_sums_chunks() {
        let mut sg = SgList::empty();
        sg.push_bytes(vec![1, 2, 3]);
        sg.push_region(region(4096, 1000));
        sg.push_bytes(vec![9; 16]);
        assert_eq!(sg.len(), 3 + 1000 + 16);
    }

    #[test]
    fn split_front_within_bytes_chunk() {
        let mut sg = SgList::from_bytes(vec![0, 1, 2, 3, 4, 5]);
        let front = sg.split_front(2);
        assert_eq!(front, SgList::from_bytes(vec![0, 1]));
        assert_eq!(sg, SgList::from_bytes(vec![2, 3, 4, 5]));
    }

    #[test]
    fn split_front_within_region_chunk() {
        let mut sg = SgList::from_region(region(8192, 4096));
        let front = sg.split_front(1500);
        assert_eq!(front.len(), 1500);
        assert_eq!(sg.len(), 2596);
        // The split regions tile the original.
        let SgChunk::Region(fr) = front.0[0] else {
            panic!()
        };
        let SgChunk::Region(re) = sg.0[0] else {
            panic!()
        };
        assert_eq!(fr.addr.0, 8192);
        assert_eq!(re.addr.0, 8192 + 1500);
    }

    #[test]
    fn split_front_across_chunks() {
        let mut sg = SgList::empty();
        sg.push_bytes(vec![7; 100]);
        sg.push_region(region(4096, 200));
        sg.push_bytes(vec![8; 50]);
        let front = sg.split_front(250);
        assert_eq!(front.len(), 250);
        assert_eq!(sg.len(), 100);
        assert_eq!(front.0.len(), 2);
        assert_eq!(sg.0.len(), 2); // 50-byte region tail + 50 bytes
    }

    #[test]
    fn split_at_boundary_and_zero() {
        let mut sg = SgList::from_bytes(vec![1; 10]);
        let f = sg.split_front(0);
        assert!(f.is_empty());
        assert_eq!(sg.len(), 10);
        let f = sg.split_front(10);
        assert_eq!(f.len(), 10);
        assert!(sg.is_empty());
    }

    #[test]
    fn materialize_reads_regions_from_host_memory() {
        let mut host = HostMem::new();
        host.write(PhysAddr(4096), &[0xAB; 100]);
        let mut sg = SgList::empty();
        sg.push_bytes(vec![1, 2]);
        sg.push_region(region(4096, 100));
        sg.push_bytes(vec![3]);
        let m = sg.materialize(&host);
        assert_eq!(m.len(), 103);
        assert_eq!(&m[..2], &[1, 2]);
        assert!(m[2..102].iter().all(|&b| b == 0xAB));
        assert_eq!(m[102], 3);
    }

    #[test]
    #[should_panic(expected = "split past end")]
    fn split_past_end_panics() {
        let mut sg = SgList::from_bytes(vec![0; 4]);
        sg.split_front(5);
    }

    #[test]
    fn inline_chunks_round_trip_and_split_without_heap_vecs() {
        let host = HostMem::new();
        let mut sg = SgList::empty();
        sg.push_inline(&[0x17, 0x03, 0x03, 0x40, 0x11]);
        sg.push_region(region(4096, 100));
        sg.push_inline(&[0xAA; 16]);
        assert_eq!(sg.len(), 5 + 100 + 16);
        // Split inside the leading inline chunk: both halves inline.
        let front = sg.split_front(3);
        assert!(matches!(front.0[0], SgChunk::Inline { len: 3, .. }));
        assert!(matches!(sg.0[0], SgChunk::Inline { len: 2, .. }));
        assert_eq!(front.materialize(&host), vec![0x17, 0x03, 0x03]);
        assert_eq!(sg.0[0].as_slice(), Some(&[0x40, 0x11][..]));
    }

    #[test]
    #[should_panic(expected = "inline chunk over capacity")]
    fn inline_overflow_panics() {
        let mut sg = SgList::empty();
        sg.push_inline(&[0u8; SG_INLINE_CAP + 1]);
    }

    #[test]
    fn shared_chunks_slice_without_copying() {
        let host = HostMem::new();
        let header: Arc<[u8]> = (0u8..100).collect::<Vec<u8>>().into();
        let mut sg = SgList::from_shared(Arc::clone(&header), 0, 100);
        assert_eq!(sg.len(), 100);
        let front = sg.split_front(30);
        // Both halves reference the same backing allocation.
        let SgChunk::Shared {
            bytes: f,
            off: 0,
            len: 30,
        } = &front.0[0]
        else {
            panic!("{front:?}");
        };
        let SgChunk::Shared {
            bytes: t,
            off: 30,
            len: 70,
        } = &sg.0[0]
        else {
            panic!("{sg:?}");
        };
        assert!(Arc::ptr_eq(f, t) && Arc::ptr_eq(f, &header));
        assert_eq!(front.materialize(&host), (0u8..30).collect::<Vec<u8>>());
        assert_eq!(sg.materialize(&host), (30u8..100).collect::<Vec<u8>>());
        // A mid-header retransmit slice reads the right window.
        let retx = SgList::from_shared(header, 10, 5);
        assert_eq!(retx.materialize(&host), vec![10, 11, 12, 13, 14]);
    }

    #[test]
    fn empty_inline_and_shared_pushes_are_elided() {
        let mut sg = SgList::empty();
        sg.push_inline(&[]);
        sg.push_shared(Arc::from(vec![1u8, 2].into_boxed_slice()), 1, 0);
        assert!(sg.0.is_empty());
    }
}
