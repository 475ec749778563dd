//! # dcn-srvcore — the server core both stacks share
//!
//! Atlas (`dcn-atlas`) and the FreeBSD/nginx model (`dcn-kstack`)
//! differ only in where TX bytes come from. Everything in front of
//! that lives here once:
//!
//! * [`server`] — the server shell: [`Server`] builds the hardware
//!   models and runs the RX loop, request intake, timers, the TX-drain
//!   tail, the parked-connection wake loop and the readouts, once; a
//!   [`Stack`] plugs in its TX data source as hooks.
//! * [`front`] — the connection front end: flow→slot table, TCB
//!   timers, SYN admission and accept, the per-segment RX path, and
//!   the request classifier (200/206/404/503/431).
//! * [`control`] — the per-server control plane: admission at SYN,
//!   503-while-shedding, live-connection accounting, one I/O tuner
//!   per core. Servers pass in the resource snapshot they compute.
//! * [`overload`] — hysteretic admission control and the degradation
//!   ladder.
//! * [`autotune`] — the online I/O-window autotuner: a deterministic,
//!   seeded per-core controller that drives the fetch watermark and
//!   the in-flight read cap from EWMAs of NVMe completion latency and
//!   submission-queue occupancy, replacing the paper's hand-tuned
//!   fixed 10×MSS constant.
//! * [`tier`] — the `tier.*` metric handles both stacks publish.

pub mod autotune;
pub mod control;
pub mod front;
pub mod overload;
pub mod server;
pub mod tier;

pub use autotune::IoTuner;
pub use control::{CoreControl, ServerControl};
pub use front::{session_cipher, Answer, ConnSlot, Front, FrontConfig, Rx, ServedWork, Syn};
pub use overload::{AdmissionConfig, LadderLevel, OverloadState, ResourceSnapshot};
pub use server::{HostPages, Server, Shell, Stack, VideoServer, NVME_QUEUE_DEPTH, SERVER_ENDPOINT};
pub use tier::{TierIds, TierMetrics};
