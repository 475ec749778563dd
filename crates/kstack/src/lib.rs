//! # dcn-kstack — conventional-stack baselines
//!
//! Models of the two systems the paper measures Atlas against (§2,
//! §4), running over the *same* simulated hardware (NVMe firmware,
//! NIC, LLC/DDIO, DRAM counters) and the same TCP engine:
//!
//! * **Stock** — nginx on unmodified FreeBSD: synchronous `sendfile`
//!   (a buffer-cache miss blocks the worker's whole event loop),
//!   unassisted LRO, userspace OpenSSL for TLS (read → encrypt →
//!   write, two copies and two syscalls per record).
//! * **Netflix** — the production changes of §2.1: asynchronous
//!   sendfile (never blocks; the socket is armed when I/O lands), VM
//!   scaling fixes (cheaper page reclaim, damped lock contention),
//!   RSS-assisted LRO (discounted per-ACK cost), and in-kernel TLS
//!   (sendfile survives; dedicated kernel threads encrypt
//!   out-of-place with ISA-L-style non-temporal stores — which is
//!   exactly why the data cannot stay in the LLC and the memory
//!   read:network ratio hits ~2.6×).
//!
//! Unlike Atlas, this stack has socket buffers: sent data is held
//! until acknowledged, so retransmissions come from memory, not disk
//! — and every page of content crosses the buffer cache.

pub mod conn;
pub mod server;

pub use conn::KConn;
pub use server::{Kstack, KstackConfig, KstackServer, StackVariant};
