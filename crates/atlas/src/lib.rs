//! # dcn-atlas — the Atlas video-streaming stack
//!
//! The paper's core contribution (§3): a specialized, synchronous,
//! buffer-cache-free stack that puts the SSD directly in the TCP
//! control loop. Per core (four of them in the evaluation), one
//! stack instance owns:
//!
//! * netmap-style TX/RX rings on the shared NIC,
//! * one diskmap queue pair per NVMe disk with a pool of 16 KiB DMA
//!   buffers (the device's throughput sweet spot, §3.1.3, and
//!   exactly one TLS record),
//! * the userspace TCP engine and HTTP layer for its share of
//!   connections (RSS-hashed),
//! * per-session AES-128-GCM record ciphers when encryption is on.
//!
//! The control loop implements §3's five steps:
//!
//! 1. a TCP ACK arrives and opens congestion-window space;
//! 2. once the space clears the high-watermark (10×MSS) the stack
//!    issues an NVMe read for the next 16 KiB of the file — no
//!    read-ahead, no buffer cache;
//! 3. the read completes into a DMA buffer that DDIO placed in the
//!    LLC;
//! 4. the completion handler encrypts the buffer **in place**, frames
//!    it as a TLS record, attaches TCP/IP headers and hands it to the
//!    NIC as one TSO descriptor (process-to-completion on one core);
//! 5. the NIC TX completion recycles the buffer (LIFO) for the next
//!    read.
//!
//! Retransmissions re-fetch from disk and re-encrypt with the nonce
//! derived from the stream offset (§3.2) — there are no socket
//! buffers anywhere.

pub mod conn;
pub mod server;

pub use conn::{AtlasConn, ResponseLayout};
pub use server::{Atlas, AtlasConfig, AtlasServer};
