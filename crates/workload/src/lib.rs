//! # dcn-workload — the evaluation harness
//!
//! Wires servers (Atlas or a conventional-stack variant), the §4
//! testbed network (40 GbE switch + delay middlebox), and a fleet of
//! weighttp-style clients into one deterministic discrete-event run
//! ([`testbed`]: one loop over N ≥ 1 servers, which `dcn-cluster`
//! drives too), then reads out every metric the paper plots: network throughput,
//! CPU utilization, DRAM read/write throughput, the read:network
//! ratio, and LLC-miss rates. The clients are written once: a lone
//! server's [`ClientFleet`] and a cluster's [`MultiFleet`] differ only
//! in how their clients connect.
//!
//! At full fidelity the fleet **verifies content end to end**: every
//! response body is reassembled from TCP, (for encrypted runs)
//! de-framed and GCM-opened with the session key, and compared
//! byte-for-byte against the catalog's PRF oracle. A stack that
//! corrupts, reorders, or mis-encrypts anything fails the run.

pub mod abr;
mod client;
pub mod fleet;
mod lone;
mod multi;
mod receive;
pub mod runner;
pub mod testbed;
pub mod verify;

pub use abr::{AbrConfig, AbrDecision, AbrPolicy, AbrSession, FetchStep};
pub use fleet::{AbrReadout, FleetConfig};
pub use lone::ClientFleet;
pub use multi::{BurstOut, MultiFleet, NeedStep, RequestNeed};
pub use runner::{
    run_scenario, run_scenario_observed, FaultMetrics, ObsOptions, ObsReport, PoolOcc, RunMetrics,
    Scenario, ServerKind, TierMetrics, VideoServer,
};
pub use verify::{Expected, RungClaim, StreamVerifier, VerifyStats};
