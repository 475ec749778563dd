//! Randomized tests over the core data structures and protocol
//! invariants. Cases are generated from a seeded [`SimRng`] so every
//! run explores the same (large) input set deterministically — the
//! container builds offline, so this replaces an external
//! property-testing framework with the simulator's own PRNG.

use disk_crypt_net::crypto::{derive_nonce, AesGcm128, RecordCipher, RECORD_PAYLOAD_MAX};
use disk_crypt_net::mem::{
    CostParams, HostMem, Llc, LlcConfig, MemSystem, PhysAddr, PhysRegion, CHUNK_SIZE,
};
use disk_crypt_net::netdev::{SgChunk, SgList};
use disk_crypt_net::packet::{Ipv4Addr, Ipv4Repr, SeqNumber, TcpFlags, TcpRepr};
use disk_crypt_net::simcore::{prf_bytes, Histogram, Nanos, SimRng};

const CASES: u64 = 128;

fn rand_bytes(rng: &mut SimRng, lo: u64, hi: u64) -> Vec<u8> {
    let n = rng.gen_range(lo, hi) as usize;
    let mut v = vec![0u8; n];
    prf_bytes(rng.next_u64(), 0, &mut v);
    v
}

// ------------------------------------------------------ scatter-gather

/// split_front at any point conserves both length and content.
#[test]
fn sg_split_conserves_bytes() {
    let mut rng = SimRng::new(0x5611);
    for case in 0..CASES {
        let mut host = HostMem::new();
        let mut sg = SgList::empty();
        let n_chunks = rng.gen_range(0, 8) as usize;
        for i in 0..n_chunks {
            if rng.chance(0.5) {
                sg.push_bytes(rand_bytes(&mut rng, 0, 64));
            } else {
                let page = rng.gen_range(0, 32);
                let len = rng.gen_range(1, 4096);
                let region =
                    PhysRegion::new(PhysAddr((1000 + 100 * i as u64 + page) * CHUNK_SIZE), len);
                host.fill_region(region, |buf| prf_bytes(i as u64, 0, buf));
                sg.push_region(region);
            }
        }
        let total = sg.len();
        let whole = sg.materialize(&host);
        let at = (total as f64 * rng.next_f64()) as u64;
        let mut rest = sg;
        let front = rest.split_front(at);
        assert_eq!(front.len(), at, "case {case}");
        assert_eq!(rest.len(), total - at, "case {case}");
        let mut rejoined = front.materialize(&host);
        rejoined.extend(rest.materialize(&host));
        assert_eq!(rejoined, whole, "case {case}");
    }
}

// -------------------------------------------------------- wire formats

/// Any TcpRepr emits to bytes and parses back identically, with a
/// checksum that verifies over arbitrary payloads.
#[test]
fn tcp_header_roundtrip() {
    let mut rng = SimRng::new(0x7C9);
    for case in 0..CASES {
        let repr = TcpRepr {
            src_port: rng.next_u64() as u16,
            dst_port: rng.next_u64() as u16,
            seq: SeqNumber(rng.next_u64() as u32),
            ack: SeqNumber(rng.next_u64() as u32),
            flags: TcpFlags(rng.gen_range(0, 32) as u8),
            window: rng.next_u64() as u16,
            mss: rng.chance(0.5).then(|| rng.gen_range(536, 9000) as u16),
            wscale: rng.chance(0.5).then(|| rng.gen_range(0, 15) as u8),
        };
        let payload = rand_bytes(&mut rng, 0, 256);
        let ip = Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 1, 2, 3),
            protocol: disk_crypt_net::packet::IpProtocol::Tcp,
            payload_len: (repr.header_len() + payload.len()) as u16,
            ttl: 64,
        };
        let mut buf = vec![0u8; repr.header_len()];
        repr.emit(&mut buf, ip.pseudo_header_sum(), &payload);
        let mut whole = buf.clone();
        whole.extend_from_slice(&payload);
        let (parsed, off) = TcpRepr::parse(&whole, Some(ip.pseudo_header_sum())).unwrap();
        assert_eq!(parsed, repr, "case {case}");
        assert_eq!(off, repr.header_len(), "case {case}");
    }
}

/// Flipping any single bit of a TCP segment breaks its checksum.
#[test]
fn tcp_checksum_detects_any_bitflip() {
    let mut rng = SimRng::new(0xB17F);
    for case in 0..CASES {
        let repr = TcpRepr {
            src_port: 80,
            dst_port: 9999,
            seq: SeqNumber(1),
            ack: SeqNumber(2),
            flags: TcpFlags::ACK,
            window: 100,
            mss: None,
            wscale: None,
        };
        let payload = rand_bytes(&mut rng, 1, 128);
        let ps = 0xBEEFu32;
        let mut whole = vec![0u8; repr.header_len()];
        repr.emit(&mut whole, ps, &payload);
        whole.extend_from_slice(&payload);
        let idx = rng.gen_range(0, whole.len() as u64) as usize;
        let bit = rng.gen_range(0, 8) as u8;
        whole[idx] ^= 1 << bit;
        // The corruption must never parse cleanly as the SAME header:
        // either the parse fails (checksum/structure) or the repr
        // changed (the flip hit a header field, breaking equality).
        let same_header_survived = matches!(
            TcpRepr::parse(&whole, Some(ps)),
            Ok((parsed, off)) if parsed == repr && off == repr.header_len()
        );
        assert!(!same_header_survived, "case {case} idx {idx} bit {bit}");
    }
}

// -------------------------------------------------------------- crypto

/// Seal/open round-trips for arbitrary payloads, keys, nonces; any
/// tamper of ciphertext is rejected.
#[test]
fn gcm_roundtrip_and_tamper() {
    let mut rng = SimRng::new(0x6C6);
    for case in 0..CASES {
        let mut key = [0u8; 16];
        prf_bytes(rng.next_u64(), 0, &mut key);
        let mut nonce = [0u8; 12];
        prf_bytes(rng.next_u64(), 0, &mut nonce);
        let aad = rand_bytes(&mut rng, 0, 64);
        let mut data = rand_bytes(&mut rng, 0, 512);
        let gcm = AesGcm128::new(&key);
        let original = data.clone();
        let tag = gcm.seal_in_place(&nonce, &aad, &mut data);
        if !original.is_empty() {
            assert_ne!(
                &data, &original,
                "case {case}: ciphertext differs from plaintext"
            );
            let mut tampered = data.clone();
            let idx = rng.gen_range(0, tampered.len() as u64) as usize;
            tampered[idx] ^= 0x01;
            assert!(
                !gcm.open_in_place(&nonce, &aad, &mut tampered, &tag),
                "case {case}: tamper must be rejected"
            );
        }
        assert!(
            gcm.open_in_place(&nonce, &aad, &mut data, &tag),
            "case {case}"
        );
        assert_eq!(data, original, "case {case}");
    }
}

/// Record re-encryption at the same stream offset is bit-identical
/// (the stateless-retransmission property §3.2 rests on).
#[test]
fn record_reencryption_deterministic() {
    let mut rng = SimRng::new(0xD7);
    for case in 0..CASES {
        let mut key = [0u8; 16];
        prf_bytes(rng.next_u64(), 0, &mut key);
        let salt = rng.next_u64() as u32;
        let record_idx = rng.gen_range(0, 1_000_000);
        let data = rand_bytes(&mut rng, 1, 256);
        let rc = RecordCipher::new(&key, salt);
        let off = record_idx * RECORD_PAYLOAD_MAX;
        let mut a = data.clone();
        let mut b = data;
        let ta = rc.seal_record(off, &mut a);
        let tb = rc.seal_record(off, &mut b);
        assert_eq!(a, b, "case {case}");
        assert_eq!(ta, tb, "case {case}");
    }
}

/// Nonce discipline of the stateless-retransmission design: every
/// record of a connection gets a distinct GCM nonce (offset-derived,
/// so no counter state can slip), any byte offset WITHIN a record
/// maps to that record's nonce, and a re-fetch retransmission at the
/// same stream offset reuses the identical nonce — reusing a nonce
/// across different plaintexts would break GCM, while deriving a
/// fresh one on retransmit would desync the client's keystream.
#[test]
fn gcm_nonces_unique_across_records_identical_on_refetch() {
    let mut rng = SimRng::new(0x4E4F);
    for case in 0..CASES {
        let salt = rng.next_u64() as u32;
        let n_records = rng.gen_range(2, 400);
        let mut seen = std::collections::HashSet::new();
        for i in 0..n_records {
            let off = i * RECORD_PAYLOAD_MAX;
            let nonce = derive_nonce(salt, off);
            assert!(
                seen.insert(nonce),
                "case {case}: record {i} repeats an earlier nonce"
            );
            // Any offset inside the record derives the same nonce.
            let within = off + rng.gen_range(0, RECORD_PAYLOAD_MAX);
            assert_eq!(derive_nonce(salt, within), nonce, "case {case}");
        }
        // Original transmission vs re-fetch retransmission: same
        // stream offset, same key → identical nonce, ciphertext, tag.
        let mut key = [0u8; 16];
        prf_bytes(rng.next_u64(), 0, &mut key);
        let rc = RecordCipher::new(&key, salt);
        let record = rng.gen_range(0, n_records);
        let off = record * RECORD_PAYLOAD_MAX;
        let plain = rand_bytes(&mut rng, 1, 512);
        let mut original = plain.clone();
        let mut refetch = plain;
        let tag_orig = rc.seal_record(off, &mut original);
        let tag_retx = rc.seal_record(off, &mut refetch);
        assert_eq!(original, refetch, "case {case}: ciphertext must match");
        assert_eq!(tag_orig, tag_retx, "case {case}: tag must match");
    }
}

// ----------------------------------------------------------------- PRF

/// Content PRF is positional: any sub-range equals the same slice of
/// the whole stream.
#[test]
fn prf_subrange_consistency() {
    let mut rng = SimRng::new(0x9F);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let start = rng.gen_range(0, 500);
        let len = rng.gen_range(1, 200) as usize;
        let mut whole = vec![0u8; 700];
        prf_bytes(seed, 0, &mut whole);
        let mut part = vec![0u8; len];
        prf_bytes(seed, start, &mut part);
        assert_eq!(
            &whole[start as usize..start as usize + len],
            &part[..],
            "case {case}"
        );
    }
}

// ----------------------------------------------------------------- LLC

/// LLC residency never exceeds capacity, and the DDIO population never
/// exceeds its cap, under arbitrary op sequences.
#[test]
fn llc_capacity_invariants() {
    let mut rng = SimRng::new(0x11C);
    for case in 0..CASES {
        let mut llc = Llc::new(LlcConfig {
            capacity_chunks: 16,
            ddio_chunks: 4,
        });
        let ops = rng.gen_range(1, 300);
        for _ in 0..ops {
            let chunk = rng.gen_range(0, 64);
            match rng.gen_range(0, 5) {
                0 => {
                    llc.insert_dma(chunk);
                }
                1 => {
                    llc.insert_cpu(chunk, false);
                }
                2 => {
                    llc.insert_cpu(chunk, true);
                }
                3 => {
                    llc.touch(chunk, false);
                }
                _ => {
                    llc.invalidate(chunk);
                }
            }
            assert!(llc.resident() <= 16, "case {case}: capacity exceeded");
            assert!(llc.dma_resident() <= 4, "case {case}: DDIO cap exceeded");
            assert!(llc.dma_resident() <= llc.resident(), "case {case}");
        }
    }
}

/// DRAM traffic conservation: bytes read via CPU misses equal the
/// counter total; discarding never writes back.
#[test]
fn mem_counters_track_misses() {
    let mut rng = SimRng::new(0x77);
    for case in 0..CASES {
        let mut mem = MemSystem::new(
            LlcConfig {
                capacity_chunks: 32,
                ddio_chunks: 8,
            },
            CostParams::default(),
            Nanos::from_millis(1),
        );
        let mut expect_rd = 0u64;
        let n = rng.gen_range(1, 100);
        for _ in 0..n {
            let p = rng.gen_range(0, 512);
            let r = PhysRegion::new(PhysAddr(p * CHUNK_SIZE), CHUNK_SIZE);
            let out = mem.cpu_read(Nanos::ZERO, r);
            expect_rd += out.dram_read_bytes;
        }
        assert_eq!(
            mem.counters.totals().dram_read_bytes,
            expect_rd,
            "case {case}"
        );
    }
}

// ----------------------------------------------------------- statistics

/// Histogram quantiles are monotone in q and bounded by the range.
#[test]
fn histogram_quantiles_monotone() {
    let mut rng = SimRng::new(0x415);
    for case in 0..CASES {
        let mut h = Histogram::new(0.0, 100.0, 64);
        let n = rng.gen_range(1, 200);
        for _ in 0..n {
            h.add(rng.next_f64() * 100.0);
        }
        let mut last = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "case {case}: quantiles must be monotone");
            assert!((0.0..=100.0).contains(&v), "case {case}");
            last = v;
        }
    }
}

#[test]
fn sg_chunks_are_well_formed() {
    // Anchor: an empty SgList materializes to nothing.
    let host = HostMem::new();
    assert!(SgList::empty().materialize(&host).is_empty());
    let sg = SgList(vec![SgChunk::Bytes(vec![1, 2, 3])]);
    assert_eq!(sg.materialize(&host), vec![1, 2, 3]);
}

// ------------------------------------------------------------- catalog

/// Catalog placement invariants, over random catalog shapes: every
/// extent is LBA-aligned, extents on one disk never overlap, every
/// extent fits inside the NVMe namespace, and the round-robin stripe
/// spreads files evenly (per-disk counts differ by at most one).
#[test]
fn catalog_placement_invariants() {
    use disk_crypt_net::nvme::{LBA_SIZE, NS_LBAS};
    use disk_crypt_net::store::{Catalog, FileId};

    let ns_bytes = NS_LBAS * LBA_SIZE;
    let mut rng = SimRng::new(0xCA7A);
    for case in 0..CASES {
        let n_files = rng.gen_range(1, 5_000);
        let file_size = rng.gen_range(1, 2 * 1024 * 1024);
        let n_disks = rng.gen_range(1, 9) as usize;
        let c = Catalog::new(n_files, file_size, n_disks, rng.next_u64());
        let extent_bytes = file_size.div_ceil(LBA_SIZE) * LBA_SIZE;

        // Per-disk extents as (start, end) on the namespace, plus the
        // stripe census.
        let mut per_disk: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n_disks];
        for f in 0..n_files {
            let loc = c.locate(FileId(f), 0);
            assert!(loc.disk < n_disks, "case {case}");
            assert_eq!(
                loc.dev_offset % LBA_SIZE,
                0,
                "case {case}: unaligned extent"
            );
            assert!(
                loc.dev_offset + extent_bytes <= ns_bytes,
                "case {case}: file {f} spills past the namespace"
            );
            // Every byte of the file lands inside that extent, on the
            // same disk (spot-check a random interior offset).
            let off = rng.gen_range(0, file_size);
            let mid = c.locate(FileId(f), off);
            assert_eq!(mid.disk, loc.disk, "case {case}");
            assert!(
                mid.dev_offset >= loc.dev_offset
                    && mid.dev_offset + LBA_SIZE <= loc.dev_offset + extent_bytes,
                "case {case}: offset {off} escapes the extent"
            );
            per_disk[loc.disk].push((loc.dev_offset, loc.dev_offset + extent_bytes));
        }

        // No overlap between extents sharing a disk.
        for (disk, extents) in per_disk.iter_mut().enumerate() {
            extents.sort_unstable();
            for w in extents.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "case {case}: overlapping extents on disk {disk}: {w:?}"
                );
            }
        }

        // Round-robin balance: max and min per-disk file counts are
        // at most one apart.
        let counts: Vec<usize> = per_disk.iter().map(Vec::len).collect();
        let (lo, hi) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(hi - lo <= 1, "case {case}: uneven stripe {counts:?}");
    }
}
