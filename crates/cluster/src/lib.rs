//! # dcn-cluster — scale-out Atlas
//!
//! Runs N independent [`dcn_atlas::AtlasServer`] instances in one
//! virtual-time simulation behind a content-aware dispatcher:
//!
//! * [`ring`] — consistent-hash placement (`FileId` → owners) with
//!   virtual nodes, so membership changes move a minimal file set.
//! * [`dispatcher`] — health-aware routing: hot files carry
//!   `replication` owners, cold files one; requests prefer the
//!   primary, fail over to replicas, and overflow past the owner set
//!   when everything it names is down.
//! * [`sim`] — the cluster's client side on `dcn-workload`'s testbed
//!   loop (the §4 testbed over N servers) plus a fail-stop
//!   kill/drain/detect control loop. Interrupted transfers reconnect to a replica and
//!   resume with HTTP range requests; stream verification carries
//!   across the reconnect at absolute file offsets.
//!
//! See DESIGN.md §9 for the model and its deliberate simplifications.

pub mod dispatcher;
pub mod ring;
pub mod sim;

pub use dispatcher::{Dispatcher, Health};
pub use ring::HashRing;
pub use sim::{
    run_cluster, run_cluster_observed, ClusterConfig, ClusterMetrics, RecoveryStats, ServerStats,
};
