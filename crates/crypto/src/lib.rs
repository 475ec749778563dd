//! # dcn-crypto — AES-128-GCM for the streaming data path
//!
//! The paper streams over HTTPS using AES-128 in Galois/Counter Mode
//! (RFC 5288 ciphersuites), chosen specifically because GCM has **no
//! inter-packet dependencies**: the counter for any byte of the
//! stream can be derived from the TCP sequence number, so a
//! retransmitted segment can be re-encrypted statelessly after
//! re-fetching its data from disk (§3.2). This crate implements:
//!
//! * real AES-128 ([`aes`]): portable software implementation plus an
//!   AES-NI fast path with runtime detection, cross-checked against
//!   each other and the FIPS-197 vector;
//! * real GHASH/GCM ([`gcm`]): 4-bit-table GHASH, NIST-vector tested,
//!   with in-place seal/open;
//! * record framing and the TCP-sequence nonce derivation ([`record`])
//!   used by both Atlas (in-place, from diskmap buffers) and the
//!   kernel-TLS model (out-of-place, through the buffer cache);
//! * the cycle-cost hook: encryption work is charged at
//!   [`dcn_mem::CostParams::aes_gcm_cycles_per_byte`] with cache
//!   effects coming from the memory model, matching the paper's "1
//!   cycle/byte when warm in LLC" observation.

pub mod aes;
pub mod gcm;
pub mod record;

pub use aes::Aes128;
pub use gcm::AesGcm128;
pub use record::{
    derive_nonce, record_header, RecordCipher, GCM_TAG_LEN, RECORD_HEADER_LEN, RECORD_PAYLOAD_MAX,
};
