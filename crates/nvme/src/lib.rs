//! # dcn-nvme — NVMe device model
//!
//! A behavioural model of a PCIe NVMe SSD (calibrated to the Intel
//! P3700 the paper evaluates on) that exposes the real NVMe host
//! interface: submission/completion queue pairs in host memory,
//! doorbell registers, PRP-list data pointers, command identifiers,
//! and out-of-order completion. The diskmap layer above this crate is
//! a faithful reimplementation of the paper's driver; this crate is
//! the "hardware".
//!
//! Timing comes from a firmware service model ([`firmware`]): each
//! command is split into NAND-page-sized stripes that are serviced by
//! a pool of parallel channels with log-normal jitter. That single
//! mechanism reproduces all three storage behaviours the paper
//! measures: the latency/throughput/window relationship (Fig 6), the
//! throughput-vs-I/O-size curve (Fig 8), and the small-read latency
//! distribution (Fig 9).

pub mod backing;
pub mod device;
pub mod firmware;
pub mod queue;

pub use backing::{BlockBacking, SparseBacking, SyntheticBacking};
pub use device::{Fidelity, NvmeConfig, NvmeDevice, NS_LBAS};
pub use firmware::FirmwareParams;
pub use queue::{CompletionEntry, NvmeCommand, NvmeStatus, Opcode, QueuePair};

/// NVMe logical block size used throughout the reproduction (the
/// paper's P3700s are formatted with 512-byte LBAs).
pub const LBA_SIZE: u64 = 512;
