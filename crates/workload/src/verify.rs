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

/// Outcome counters of stream verification.
#[derive(Clone, Copy, Default, Debug)]
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

/// Incremental per-connection verifier.
pub struct StreamVerifier {
    buf: Vec<u8>,
    /// Current response state: (file, base file offset,
    /// response-relative plaintext offset, encrypted?).
    body: Option<(FileId, u64, u64, bool)>,
    /// ABR manifest for rung-claim checks (None for fixed workloads).
    manifest: Option<AbrManifest>,
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
            body: None,
            manifest: None,
        }
    }

    /// A verifier that additionally checks each response's delivered
    /// chunk against the manifest range of the client's rung claim.
    #[must_use]
    pub fn with_manifest(manifest: AbrManifest) -> Self {
        StreamVerifier {
            manifest: Some(manifest),
            ..Self::new()
        }
    }

    pub fn push(
        &mut self,
        data: &[u8],
        outstanding: &mut VecDeque<Expected>,
        catalog: &Catalog,
        cipher: &RecordCipher,
        stats: &mut VerifyStats,
    ) {
        self.buf.extend_from_slice(data);
        loop {
            match self.body {
                None => {
                    let Some(head) = scan_response_head(&self.buf) else {
                        return;
                    };
                    self.buf.drain(..head.header_len);
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
                    self.body = Some((exp.file, exp.base, 0, head.encrypted));
                }
                Some((file, base, resp_off, encrypted)) => {
                    let file_size = catalog.file_size();
                    let abs_off = base + resp_off;
                    if abs_off >= file_size {
                        self.body = None;
                        outstanding.pop_front();
                        continue;
                    }
                    if encrypted {
                        let rec_plain = (file_size - abs_off).min(RECORD_PAYLOAD_MAX) as usize;
                        let rec_wire = RECORD_HEADER_LEN + rec_plain + GCM_TAG_LEN;
                        if self.buf.len() < rec_wire {
                            return;
                        }
                        let record: Vec<u8> = self.buf.drain(..rec_wire).collect();
                        let mut ct =
                            record[RECORD_HEADER_LEN..RECORD_HEADER_LEN + rec_plain].to_vec();
                        let tag: [u8; GCM_TAG_LEN] =
                            record[rec_wire - GCM_TAG_LEN..].try_into().expect("tag");
                        // GCM nonces are response-relative (the
                        // serving replica framed from scratch); the
                        // oracle offset is file-absolute.
                        if cipher.open_record(resp_off, &mut ct, &tag) {
                            let mut want = vec![0u8; ct.len()];
                            catalog.expected(file, abs_off, &mut want);
                            if ct == want {
                                stats.verified_bytes += ct.len() as u64;
                            } else {
                                stats.failures += 1;
                            }
                        } else {
                            stats.failures += 1;
                        }
                        self.body = Some((file, base, resp_off + rec_plain as u64, encrypted));
                    } else {
                        if self.buf.is_empty() {
                            return;
                        }
                        let n = (file_size - abs_off).min(self.buf.len() as u64) as usize;
                        let got: Vec<u8> = self.buf.drain(..n).collect();
                        let mut want = vec![0u8; n];
                        catalog.expected(file, abs_off, &mut want);
                        if got == want {
                            stats.verified_bytes += n as u64;
                        } else {
                            stats.failures += 1;
                        }
                        self.body = Some((file, base, resp_off + n as u64, encrypted));
                    }
                }
            }
        }
    }
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
}
