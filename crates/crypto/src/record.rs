//! TLS-style record framing with TCP-sequence-derived nonces.
//!
//! The paper emulates TLS overheads by encrypting and authenticating
//! payload with dummy keys while leaving HTTP headers in plaintext
//! (§4.2). It chooses AES-GCM precisely because the GCM counter "can
//! be easily derived from the TCP sequence numbers, including for
//! retransmissions" (§3.2) — so a server that keeps no socket buffers
//! can re-fetch lost data from disk and re-encrypt it statelessly.
//!
//! This module implements that scheme: the stream is divided into
//! fixed-size records aligned on *stream byte offsets*; the nonce of
//! a record is `salt(4B) ‖ record_index(8B)`, and the record index is
//! `stream_offset / RECORD_PAYLOAD_MAX`. Any segment of the stream
//! can be (re-)encrypted knowing only the session key/salt and the
//! TCP sequence offset.

use crate::gcm::{AesGcm128, TAG_LEN};

/// Bytes of GCM tag per record.
pub const GCM_TAG_LEN: usize = TAG_LEN;
/// TLS record header (type, version, length).
pub const RECORD_HEADER_LEN: usize = 5;
/// Max plaintext per record. 16 KiB — one diskmap sweet-spot read
/// (§3.1.3) maps to exactly one record.
pub const RECORD_PAYLOAD_MAX: u64 = 16 * 1024;

/// Per-record wire overhead.
#[must_use]
pub fn record_overhead() -> usize {
    RECORD_HEADER_LEN + GCM_TAG_LEN
}

/// The TLS 1.2 application-data record header for `plain_len`
/// plaintext bytes (the length field counts the GCM tag too).
#[must_use]
pub fn record_header(plain_len: u64) -> [u8; RECORD_HEADER_LEN] {
    let len = u16::try_from(plain_len + GCM_TAG_LEN as u64).expect("record fits u16");
    let [hi, lo] = len.to_be_bytes();
    [0x17, 0x03, 0x03, hi, lo]
}

/// Derive the GCM nonce for the record containing stream byte
/// `stream_offset`. Deterministic: a retransmission recomputes the
/// identical nonce, so the keystream matches what the client already
/// has.
#[must_use]
pub fn derive_nonce(salt: u32, stream_offset: u64) -> [u8; 12] {
    let record_index = stream_offset / RECORD_PAYLOAD_MAX;
    let mut n = [0u8; 12];
    n[..4].copy_from_slice(&salt.to_be_bytes());
    n[4..].copy_from_slice(&record_index.to_be_bytes());
    n
}

/// A session's record cipher: key + salt, as negotiated by the (out
/// of scope, per the paper) TLS handshake.
pub struct RecordCipher {
    gcm: AesGcm128,
    salt: u32,
}

impl RecordCipher {
    #[must_use]
    pub fn new(key: &[u8; 16], salt: u32) -> Self {
        RecordCipher {
            gcm: AesGcm128::new(key),
            salt,
        }
    }

    /// Encrypt one record's payload in place. `stream_offset` is the
    /// byte offset of this record within the encrypted stream (must
    /// be record-aligned) and doubles as the AAD so records cannot be
    /// reordered.
    pub fn seal_record(&self, stream_offset: u64, payload: &mut [u8]) -> [u8; GCM_TAG_LEN] {
        assert!(payload.len() as u64 <= RECORD_PAYLOAD_MAX);
        assert_eq!(
            stream_offset % RECORD_PAYLOAD_MAX,
            0,
            "records are aligned on stream offsets"
        );
        let nonce = derive_nonce(self.salt, stream_offset);
        self.gcm
            .seal_in_place(&nonce, &stream_offset.to_be_bytes(), payload)
    }

    /// Seal a run of stream-contiguous records in one pass.
    ///
    /// `payload` holds the plaintext of one or more consecutive
    /// records starting at the record-aligned `stream_offset`; every
    /// record is `RECORD_PAYLOAD_MAX` bytes except possibly the last.
    /// Tags are appended to `tags` (one per record, in order). The
    /// session's AES key schedule and GHASH tables are shared state:
    /// a completion sweep that gathered N ready records pays the
    /// cipher setup once for the whole batch instead of re-entering
    /// per record — the crypto half of the batched
    /// encrypt+packetize sweep.
    pub fn seal_records(
        &self,
        stream_offset: u64,
        payload: &mut [u8],
        tags: &mut Vec<[u8; GCM_TAG_LEN]>,
    ) {
        assert_eq!(
            stream_offset % RECORD_PAYLOAD_MAX,
            0,
            "batch starts on a record boundary"
        );
        for (i, rec) in payload.chunks_mut(RECORD_PAYLOAD_MAX as usize).enumerate() {
            tags.push(self.seal_record(stream_offset + i as u64 * RECORD_PAYLOAD_MAX, rec));
        }
    }

    /// Decrypt + verify one record in place. Returns false on a bad
    /// tag.
    pub fn open_record(
        &self,
        stream_offset: u64,
        payload: &mut [u8],
        tag: &[u8; GCM_TAG_LEN],
    ) -> bool {
        let nonce = derive_nonce(self.salt, stream_offset);
        self.gcm
            .open_in_place(&nonce, &stream_offset.to_be_bytes(), payload, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nonce_is_stable_within_record_and_changes_across() {
        let a = derive_nonce(7, 0);
        let b = derive_nonce(7, RECORD_PAYLOAD_MAX - 1);
        let c = derive_nonce(7, RECORD_PAYLOAD_MAX);
        assert_eq!(a, b, "same record, same nonce");
        assert_ne!(a, c, "next record, next nonce");
        assert_ne!(derive_nonce(8, 0), a, "salt matters");
    }

    #[test]
    fn retransmission_reencrypts_identically() {
        // The core property §3.2 relies on: encrypt, "lose" the
        // buffer, re-encrypt fresh data from disk, get identical
        // ciphertext.
        let rc = RecordCipher::new(b"sessionkey123456", 0xDEAD_BEEF);
        let original: Vec<u8> = (0..16384u32).map(|i| (i % 256) as u8).collect();
        let off = 5 * RECORD_PAYLOAD_MAX;

        let mut first = original.clone();
        let tag1 = rc.seal_record(off, &mut first);
        let mut retx = original.clone();
        let tag2 = rc.seal_record(off, &mut retx);
        assert_eq!(first, retx);
        assert_eq!(tag1, tag2);
    }

    #[test]
    fn records_cannot_be_transplanted() {
        let rc = RecordCipher::new(b"sessionkey123456", 1);
        let mut data = vec![9u8; 100];
        let tag = rc.seal_record(0, &mut data);
        // Replaying record 0's bytes at record 1's offset fails.
        assert!(!rc.open_record(RECORD_PAYLOAD_MAX, &mut data, &tag));
        assert!(rc.open_record(0, &mut data, &tag));
        assert_eq!(data, vec![9u8; 100]);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn unaligned_record_offset_asserts() {
        let rc = RecordCipher::new(b"sessionkey123456", 1);
        let mut data = vec![0u8; 10];
        rc.seal_record(100, &mut data);
    }

    #[test]
    fn batch_seal_matches_per_record_seal() {
        let rc = RecordCipher::new(b"sessionkey123456", 3);
        let base = 4 * RECORD_PAYLOAD_MAX;
        let stream: Vec<u8> = (0..2 * RECORD_PAYLOAD_MAX as usize + 777)
            .map(|i| (i * 17 % 256) as u8)
            .collect();

        let mut batch = stream.clone();
        let mut tags = Vec::new();
        rc.seal_records(base, &mut batch, &mut tags);
        assert_eq!(tags.len(), 3);

        let mut singly = stream.clone();
        for (i, rec) in singly.chunks_mut(RECORD_PAYLOAD_MAX as usize).enumerate() {
            let tag = rc.seal_record(base + i as u64 * RECORD_PAYLOAD_MAX, rec);
            assert_eq!(tag, tags[i]);
        }
        assert_eq!(batch, singly);
    }

    #[test]
    fn stream_split_into_records_round_trips() {
        let rc = RecordCipher::new(b"sessionkey123456", 2);
        let stream: Vec<u8> = (0..100_000u32).map(|i| (i * 31 % 256) as u8).collect();
        let mut reassembled = Vec::new();
        for (i, chunk) in stream.chunks(RECORD_PAYLOAD_MAX as usize).enumerate() {
            let off = i as u64 * RECORD_PAYLOAD_MAX;
            let mut ct = chunk.to_vec();
            let tag = rc.seal_record(off, &mut ct);
            assert!(rc.open_record(off, &mut ct, &tag));
            reassembled.extend_from_slice(&ct);
        }
        assert_eq!(reassembled, stream);
    }
}
