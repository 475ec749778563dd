//! Stream verification: the client-side oracle check.
//!
//! The verifier re-parses the response byte stream (headers, record
//! framing), decrypts records with the session cipher, and compares
//! plaintext against the catalog oracle. It is wholly independent of
//! the `RequestDriver`'s accounting, so the two cross-check each
//! other — a flipped byte the driver happily counts as goodput shows
//! up here as a verification failure.
//!
//! Responses may be *resumed*: a client that reconnected to a replica
//! after its server died asks for `Range: bytes=base-`, so the
//! response body starts at plaintext file offset `base`. Record
//! framing (and GCM nonces) restart at the response, but oracle
//! comparison uses the absolute file offset `base + resp_off`.

use dcn_crypto::{RecordCipher, GCM_TAG_LEN, RECORD_HEADER_LEN, RECORD_PAYLOAD_MAX};
use dcn_httpd::response::scan_response_head;
use dcn_store::{AbrManifest, Catalog, FileId};
use std::collections::VecDeque;
use std::rc::Rc;

/// Outcome counters of stream verification.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct VerifyStats {
    pub verified_bytes: u64,
    pub failures: u64,
    /// Responses whose delivered chunk was not part of the manifest
    /// range the ABR client claimed to be fetching (wrong-rung
    /// delivery). Counted into `failures` as well.
    pub rung_mismatches: u64,
}

/// An ABR client's statement of intent: "this request is segment
/// `seg` of `title` at quality `rung`". Checked against the manifest
/// when the response body starts — a server (or dispatcher) handing
/// back a chunk outside that rung's range is a verification failure
/// even though the bytes themselves match the catalog oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RungClaim {
    pub title: u64,
    pub seg: u32,
    pub rung: usize,
}

/// One expected response: the file, the plaintext file offset its
/// body starts at (0 for full responses, the resume base for ranged
/// ones), and — for ABR clients — the manifest claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Expected {
    pub file: FileId,
    pub base: u64,
    pub claim: Option<RungClaim>,
}

impl Expected {
    /// A fixed-workload expectation (no manifest claim).
    #[must_use]
    pub fn plain(file: FileId, base: u64) -> Self {
        Expected {
            file,
            base,
            claim: None,
        }
    }

    /// An ABR expectation carrying the (title, seg, rung) claim.
    #[must_use]
    pub fn claimed(file: FileId, base: u64, claim: RungClaim) -> Self {
        Expected {
            file,
            base,
            claim: Some(claim),
        }
    }
}

/// Most bytes a verifier carries from one push to the next: one whole
/// TLS record as it sits on the wire. An incomplete response head is
/// far smaller.
const CARRY_MAX: usize = RECORD_HEADER_LEN + RECORD_PAYLOAD_MAX as usize + GCM_TAG_LEN;

/// Where the verifier is in the response stream.
#[derive(Clone, Copy, Debug)]
enum Position {
    /// Between responses: the next bytes are a response head.
    Head,
    /// Inside a response body: the file, the base file offset, the
    /// response-relative plaintext offset, and whether the body is
    /// record-framed ciphertext.
    Body {
        file: FileId,
        base: u64,
        resp_off: u64,
        encrypted: bool,
    },
    /// A response head that does not parse: the stream cannot be
    /// framed any further, so nothing after it is verified.
    Lost,
}

/// Incremental per-connection verifier.
///
/// Delivered bytes are checked where they sit: plaintext body slices
/// straight against the catalog oracle, TLS records after opening
/// them in the carry buffer. The only bytes kept between pushes are
/// an incomplete response head or an incomplete TLS record, so a
/// verifier never holds more than one wire record (16 KiB + 21 B).
pub struct StreamVerifier {
    /// Bytes carried between pushes (see above); also where a TLS
    /// record is assembled and opened.
    buf: Vec<u8>,
    pos: Position,
    /// ABR manifest for rung-claim checks (None for fixed workloads),
    /// shared with the fleet.
    manifest: Option<Rc<AbrManifest>>,
}

impl Default for StreamVerifier {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamVerifier {
    #[must_use]
    pub fn new() -> Self {
        StreamVerifier {
            buf: Vec::new(),
            pos: Position::Head,
            manifest: None,
        }
    }

    /// A verifier that additionally checks each response's delivered
    /// chunk against the manifest range of the client's rung claim.
    #[must_use]
    pub fn with_manifest(manifest: impl Into<Rc<AbrManifest>>) -> Self {
        StreamVerifier {
            manifest: Some(manifest.into()),
            ..Self::new()
        }
    }

    /// Verify the next delivered stream bytes. A plaintext body is
    /// checked slice by slice — one failure per mismatching slice of
    /// one push — and a TLS body record by record.
    pub fn push(
        &mut self,
        mut data: &[u8],
        outstanding: &mut VecDeque<Expected>,
        catalog: &Catalog,
        cipher: &RecordCipher,
        stats: &mut VerifyStats,
    ) {
        loop {
            match self.pos {
                Position::Lost => return,
                Position::Head => {
                    let Some(end) = head_end(&self.buf, data) else {
                        if self.buf.len() + data.len() > CARRY_MAX {
                            // No response head is this long.
                            self.pos = Position::Lost;
                            self.buf = Vec::new();
                        } else {
                            self.buf.extend_from_slice(data);
                        }
                        return;
                    };
                    let head = if self.buf.is_empty() {
                        scan_response_head(&data[..end])
                    } else {
                        self.buf.extend_from_slice(&data[..end]);
                        scan_response_head(&self.buf)
                    };
                    self.buf.clear();
                    data = &data[end..];
                    let Some(head) = head else {
                        self.pos = Position::Lost;
                        return;
                    };
                    if head.status == 503 {
                        // Load shed: zero-length body and the request
                        // stays outstanding — the client retries it
                        // after the Retry-After backoff, and the
                        // eventual 200 verifies against the same
                        // expected entry.
                        continue;
                    }
                    if head.status != 200 && head.status != 206 {
                        // Other bodiless errors (404/431) consume the
                        // request without a verifiable body.
                        outstanding.pop_front();
                        continue;
                    }
                    let exp = outstanding.front().copied().expect("response w/o request");
                    if let (Some(m), Some(c)) = (self.manifest.as_ref(), exp.claim) {
                        if !m.in_rung(exp.file, c.title, c.seg, c.rung) {
                            stats.failures += 1;
                            stats.rung_mismatches += 1;
                        }
                    }
                    self.pos = Position::Body {
                        file: exp.file,
                        base: exp.base,
                        resp_off: 0,
                        encrypted: head.encrypted,
                    };
                }
                Position::Body {
                    file,
                    base,
                    resp_off,
                    encrypted,
                } => {
                    let abs_off = base + resp_off;
                    let left = catalog.file_size().saturating_sub(abs_off);
                    if left == 0 {
                        self.pos = Position::Head;
                        outstanding.pop_front();
                        continue;
                    }
                    if data.is_empty() {
                        return;
                    }
                    let n = if encrypted {
                        let rec_plain = left.min(RECORD_PAYLOAD_MAX) as usize;
                        let rec_wire = RECORD_HEADER_LEN + rec_plain + GCM_TAG_LEN;
                        let take = (rec_wire - self.buf.len()).min(data.len());
                        self.buf.reserve_exact(rec_wire - self.buf.len());
                        self.buf.extend_from_slice(&data[..take]);
                        data = &data[take..];
                        if self.buf.len() < rec_wire {
                            return;
                        }
                        let (record, tag) = self.buf.split_at_mut(rec_wire - GCM_TAG_LEN);
                        let ct = &mut record[RECORD_HEADER_LEN..];
                        let tag: &[u8; GCM_TAG_LEN] = (&*tag).try_into().expect("tag");
                        // GCM nonces are response-relative (the
                        // serving replica framed from scratch); the
                        // oracle offset is file-absolute.
                        if cipher.open_record(resp_off, ct, tag)
                            && catalog.matches(file, abs_off, ct)
                        {
                            stats.verified_bytes += rec_plain as u64;
                        } else {
                            stats.failures += 1;
                        }
                        self.buf.clear();
                        rec_plain
                    } else {
                        let n = left.min(data.len() as u64) as usize;
                        let (got, rest) = data.split_at(n);
                        if catalog.matches(file, abs_off, got) {
                            stats.verified_bytes += n as u64;
                        } else {
                            stats.failures += 1;
                        }
                        data = rest;
                        n
                    };
                    self.pos = Position::Body {
                        file,
                        base,
                        resp_off: resp_off + n as u64,
                        encrypted,
                    };
                }
            }
        }
    }
}

/// How many bytes of `data` complete the response head begun in
/// `carried` (which holds no terminator yet): the end of the first
/// `\r\n\r\n` in `carried ++ data`, which may straddle the two.
fn head_end(carried: &[u8], data: &[u8]) -> Option<usize> {
    const END: &[u8] = b"\r\n\r\n";
    let keep = carried.len().min(END.len() - 1);
    let take = data.len().min(END.len() - 1);
    let mut seam = [0u8; 6];
    seam[..keep].copy_from_slice(&carried[carried.len() - keep..]);
    seam[keep..keep + take].copy_from_slice(&data[..take]);
    if let Some(i) = seam[..keep + take].windows(4).position(|w| w == END) {
        return Some(i + END.len() - keep);
    }
    data.windows(4)
        .position(|w| w == END)
        .map(|i| i + END.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_httpd::response::{response_header, ResponseInfo};

    fn catalog() -> Catalog {
        Catalog::new(1000, 300 * 1024, 4, 7)
    }

    #[test]
    fn resumed_response_verifies_against_absolute_offsets() {
        let cat = catalog();
        let base = 4 * RECORD_PAYLOAD_MAX;
        let file_size = cat.file_size();
        let mut outstanding: VecDeque<Expected> = VecDeque::new();
        outstanding.push_back(Expected::plain(FileId(11), base));
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let mut v = StreamVerifier::new();
        let mut stats = VerifyStats::default();
        let mut stream = response_header(
            ResponseInfo::Partial {
                body_len: file_size - base,
                offset: base,
            },
            false,
        );
        let mut body = vec![0u8; (file_size - base) as usize];
        cat.expected(FileId(11), base, &mut body);
        stream.extend_from_slice(&body);
        for chunk in stream.chunks(997) {
            v.push(chunk, &mut outstanding, &cat, &cipher, &mut stats);
        }
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.verified_bytes, file_size - base);
        assert!(outstanding.is_empty());
    }

    #[test]
    fn resumed_response_with_wrong_content_fails() {
        let cat = catalog();
        let base = 2 * RECORD_PAYLOAD_MAX;
        let file_size = cat.file_size();
        let mut outstanding: VecDeque<Expected> = VecDeque::new();
        outstanding.push_back(Expected::plain(FileId(5), base));
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let mut v = StreamVerifier::new();
        let mut stats = VerifyStats::default();
        let mut stream = response_header(
            ResponseInfo::Partial {
                body_len: file_size - base,
                offset: base,
            },
            false,
        );
        // Content for offset 0 delivered at resume offset `base`:
        // oracle mismatch.
        let mut body = vec![0u8; (file_size - base) as usize];
        cat.expected(FileId(5), 0, &mut body);
        stream.extend_from_slice(&body);
        v.push(&stream, &mut outstanding, &cat, &cipher, &mut stats);
        assert!(stats.failures > 0);
    }

    fn manifest(cat: &Catalog) -> AbrManifest {
        AbrManifest::carve(cat, &[1, 2, 4], 8, dcn_simcore::Nanos::from_millis(50))
    }

    /// Build a full oracle-correct response stream for `file`.
    fn ok_stream(cat: &Catalog, file: FileId) -> Vec<u8> {
        let mut stream = response_header(
            ResponseInfo::Ok {
                body_len: cat.file_size(),
            },
            false,
        );
        let mut body = vec![0u8; cat.file_size() as usize];
        cat.expected(file, 0, &mut body);
        stream.extend_from_slice(&body);
        stream
    }

    #[test]
    fn matching_rung_claim_verifies_clean() {
        let cat = catalog();
        let m = manifest(&cat);
        let (start, _) = m.rung_range(1, 2, 1);
        let mut outstanding: VecDeque<Expected> = VecDeque::new();
        outstanding.push_back(Expected::claimed(
            start,
            0,
            RungClaim {
                title: 1,
                seg: 2,
                rung: 1,
            },
        ));
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let mut v = StreamVerifier::with_manifest(m);
        let mut stats = VerifyStats::default();
        v.push(
            &ok_stream(&cat, start),
            &mut outstanding,
            &cat,
            &cipher,
            &mut stats,
        );
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.rung_mismatches, 0);
        assert_eq!(stats.verified_bytes, cat.file_size());
    }

    #[test]
    fn wrong_rung_claim_is_a_verification_failure() {
        // The delivered chunk is oracle-correct — but it belongs to
        // rung 0, while the client claimed rung 2. The manifest check
        // must fire even though every body byte matches.
        let cat = catalog();
        let m = manifest(&cat);
        let (rung0_chunk, _) = m.rung_range(1, 2, 0);
        assert!(!m.in_rung(rung0_chunk, 1, 2, 2));
        let mut outstanding: VecDeque<Expected> = VecDeque::new();
        outstanding.push_back(Expected::claimed(
            rung0_chunk,
            0,
            RungClaim {
                title: 1,
                seg: 2,
                rung: 2,
            },
        ));
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let mut v = StreamVerifier::with_manifest(m);
        let mut stats = VerifyStats::default();
        v.push(
            &ok_stream(&cat, rung0_chunk),
            &mut outstanding,
            &cat,
            &cipher,
            &mut stats,
        );
        assert_eq!(stats.rung_mismatches, 1);
        assert!(stats.failures >= 1, "wrong rung counts as a failure");
    }

    #[test]
    fn claims_are_ignored_without_a_manifest() {
        // A plain verifier can't check claims; bodies still verify.
        let cat = catalog();
        let m = manifest(&cat);
        let (chunk, _) = m.rung_range(0, 0, 0);
        let mut outstanding: VecDeque<Expected> = VecDeque::new();
        outstanding.push_back(Expected::claimed(
            chunk,
            0,
            RungClaim {
                title: 3,
                seg: 1,
                rung: 2,
            },
        ));
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let mut v = StreamVerifier::new();
        let mut stats = VerifyStats::default();
        v.push(
            &ok_stream(&cat, chunk),
            &mut outstanding,
            &cat,
            &cipher,
            &mut stats,
        );
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.rung_mismatches, 0);
    }

    /// `file` from plaintext offset `base` to its end, as a server puts
    /// it on the wire: raw, or as sealed records whose nonces restart
    /// at the response.
    fn wire_body(
        cat: &Catalog,
        cipher: &RecordCipher,
        file: FileId,
        base: u64,
        encrypted: bool,
    ) -> Vec<u8> {
        let mut plain = vec![0u8; (cat.file_size() - base) as usize];
        cat.expected(file, base, &mut plain);
        if !encrypted {
            return plain;
        }
        let mut wire = Vec::new();
        for (i, rec) in plain.chunks_mut(RECORD_PAYLOAD_MAX as usize).enumerate() {
            let tag = cipher.seal_record(i as u64 * RECORD_PAYLOAD_MAX, rec);
            let len = (rec.len() + GCM_TAG_LEN) as u16;
            wire.extend_from_slice(&[0x17, 0x03, 0x03]);
            wire.extend_from_slice(&len.to_be_bytes());
            wire.extend_from_slice(rec);
            wire.extend_from_slice(&tag);
        }
        wire
    }

    /// One connection's traffic: a 200, a ranged 206 resume, a 503
    /// followed by the retried 200, a 404, and two back-to-back 200s.
    /// Returns the stream, the requests it answers, the plaintext body
    /// bytes it carries, and the stream index of one body byte.
    fn mixed_stream(
        cat: &Catalog,
        cipher: &RecordCipher,
        encrypted: bool,
    ) -> (Vec<u8>, VecDeque<Expected>, u64, usize) {
        let size = cat.file_size();
        let resume = RECORD_PAYLOAD_MAX;
        let mut stream = Vec::new();
        let mut outstanding = VecDeque::new();
        let mut plain = 0;
        let mut body_byte = 0;
        let mut respond = |stream: &mut Vec<u8>, file: FileId, base: u64| {
            let info = if base == 0 {
                ResponseInfo::Ok { body_len: size }
            } else {
                ResponseInfo::Partial {
                    body_len: size - base,
                    offset: base,
                }
            };
            stream.extend(response_header(info, encrypted));
            stream.extend(wire_body(cat, cipher, file, base, encrypted));
            plain += size - base;
        };
        let shed = response_header(
            ResponseInfo::ServiceUnavailable {
                retry_after_ms: 1500,
            },
            encrypted,
        );
        for (file, base) in [(1, 0), (2, resume)] {
            outstanding.push_back(Expected::plain(FileId(file), base));
            if base > 0 {
                body_byte = stream.len() + 400;
            }
            respond(&mut stream, FileId(file), base);
        }
        outstanding.push_back(Expected::plain(FileId(3), 0));
        stream.extend(&shed);
        respond(&mut stream, FileId(3), 0);
        outstanding.push_back(Expected::plain(FileId(4), 0));
        stream.extend(response_header(ResponseInfo::NotFound, encrypted));
        for file in [5, 6] {
            outstanding.push_back(Expected::plain(FileId(file), 0));
            respond(&mut stream, FileId(file), 0);
        }
        (stream, outstanding, plain, body_byte)
    }

    /// Push `stream` in pieces ending at `cuts` (ascending; the end of
    /// the stream is implied) and return the stats and what is still
    /// outstanding.
    fn verify_split(
        cat: &Catalog,
        cipher: &RecordCipher,
        stream: &[u8],
        mut outstanding: VecDeque<Expected>,
        cuts: &[usize],
    ) -> (VerifyStats, VecDeque<Expected>) {
        let mut v = StreamVerifier::new();
        let mut stats = VerifyStats::default();
        let mut from = 0;
        for &to in cuts.iter().chain([stream.len()].iter()) {
            v.push(&stream[from..to], &mut outstanding, cat, cipher, &mut stats);
            from = to;
        }
        assert!(v.buf.is_empty(), "stream ends on a response boundary");
        (stats, outstanding)
    }

    /// The three ways a stream is cut: not at all, after every byte,
    /// and at seeded random points.
    fn splits(len: usize) -> [Vec<usize>; 3] {
        let mut rng = dcn_simcore::SimRng::new(16);
        let mut random = Vec::new();
        let mut at = 0;
        loop {
            at += rng.gen_range(1, 3000) as usize;
            if at >= len {
                break;
            }
            random.push(at);
        }
        [Vec::new(), (1..len).collect(), random]
    }

    fn small_catalog() -> Catalog {
        // Two full records and a short last one.
        Catalog::new(16, 2 * RECORD_PAYLOAD_MAX + 1000, 4, 7)
    }

    #[test]
    fn verdict_is_independent_of_how_the_stream_is_cut() {
        let cat = small_catalog();
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        for encrypted in [false, true] {
            let (stream, outstanding, plain, _) = mixed_stream(&cat, &cipher, encrypted);
            for cuts in splits(stream.len()) {
                let (stats, left) =
                    verify_split(&cat, &cipher, &stream, outstanding.clone(), &cuts);
                assert_eq!(
                    stats,
                    VerifyStats {
                        verified_bytes: plain,
                        failures: 0,
                        rung_mismatches: 0,
                    },
                    "encrypted={encrypted}, {} pieces",
                    cuts.len() + 1
                );
                assert!(left.is_empty(), "every response consumed");
            }
        }
    }

    #[test]
    fn one_flipped_body_byte_is_one_failure_however_cut() {
        let cat = small_catalog();
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        for encrypted in [false, true] {
            let (mut stream, outstanding, _, body_byte) = mixed_stream(&cat, &cipher, encrypted);
            stream[body_byte] ^= 0x20;
            for cuts in splits(stream.len()) {
                let (stats, left) =
                    verify_split(&cat, &cipher, &stream, outstanding.clone(), &cuts);
                assert_eq!(
                    stats.failures,
                    1,
                    "encrypted={encrypted}, {} pieces",
                    cuts.len() + 1
                );
                assert!(left.is_empty());
            }
        }
    }

    #[test]
    fn carry_over_is_at_most_one_wire_record() {
        let cat = catalog();
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let bound = RECORD_HEADER_LEN + RECORD_PAYLOAD_MAX as usize + GCM_TAG_LEN;
        for encrypted in [false, true] {
            let info = ResponseInfo::Ok {
                body_len: cat.file_size(),
            };
            let mut push = response_header(info, encrypted);
            push.extend(wire_body(&cat, &cipher, FileId(8), 0, encrypted));
            let next_head = response_header(info, encrypted);
            push.extend_from_slice(&next_head[..next_head.len() / 2]);
            let mut outstanding: VecDeque<Expected> =
                [FileId(8), FileId(9)].map(|f| Expected::plain(f, 0)).into();
            let mut v = StreamVerifier::new();
            let mut stats = VerifyStats::default();
            v.push(&push, &mut outstanding, &cat, &cipher, &mut stats);
            assert_eq!(stats.verified_bytes, cat.file_size());
            assert!(
                v.buf.capacity() <= bound,
                "encrypted={encrypted}: {} bytes of capacity kept",
                v.buf.capacity()
            );
        }
    }
}
