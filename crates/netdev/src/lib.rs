//! # dcn-netdev — NIC model, netmap-style rings, and the test network
//!
//! The server-side network hardware of the reproduction:
//!
//! * [`sg`] — scatter-gather payload lists: the zero-copy unit the
//!   TCP stack hands to the NIC (header bytes + references into DMA
//!   buffer memory — the moral equivalent of an mbuf chain of
//!   `sf_buf`s, or of netmap slots pointing into diskmap buffers);
//! * [`rings`] — netmap-semantics TX/RX rings: `txsync`/`rxsync`
//!   syscalls move slot ownership between host and NIC; TX-completion
//!   visibility is **batched**, reproducing the delayed-notification
//!   artifact the paper blames for Atlas's extra memory writes
//!   (Fig 12a) and calls out as a netmap improvement opportunity;
//! * [`nic`] — the NIC itself: per-port serialization at 40 Gb/s,
//!   TSO segmentation with checksum offload (the Chelsio T580
//!   modification of §3.2), RSS steering of received frames, DMA
//!   through the LLC/DDIO model;
//! * [`wire`] — wire frames, and the latency middlebox of §4 that
//!   applies a constant per-flow delay drawn from 10–40 ms bands to
//!   client→server traffic.

pub mod nic;
pub mod rings;
pub mod sg;
pub mod wire;

pub use nic::{parse_frame, tcp_frame_info, FramePayload, Nic, NicConfig, SentBurst, TcpFrameInfo};
pub use rings::{RxRing, TxDescriptor, TxRing};
pub use sg::{PayloadBytes, SgChunk, SgList};
pub use wire::{DelayMiddlebox, WireFrame, ETH_WIRE_OVERHEAD};
