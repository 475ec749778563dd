//! # dcn-tier — million-object tiered storage
//!
//! The paper's catalog is benchmark-sized and entirely hot: every
//! chunk lives in the NVMe flat namespace. Real VoD fleets serve
//! million-title catalogs where a small hot set dominates traffic and
//! the long tail lives on cheaper, slower object storage. This crate
//! adds that split without giving up the reproduction's two
//! invariants — *virtual time* and *bit-identical replay*:
//!
//! * [`backend`] — the [`StorageBackend`] trait (byte-range
//!   `get_range`, modeled on the object-store local/S3 split) with two
//!   implementations: [`NvmeFlatBackend`] (the paper's flat namespace
//!   as the hot tier) and [`ColdObjectStore`] (configurable base
//!   latency + seeded jitter, a shared bandwidth pipe, and
//!   per-request/per-byte cost accounting).
//! * [`map`] — [`TierMap`]: compact residency + heat metadata: two
//!   bitmaps, 250 KB per million objects, and a sparse heat map of
//!   the recently requested objects only; no per-object allocation.
//! * [`engine`] — [`TierEngine`]: hysteretic promotion/demotion driven
//!   by access heat, with epoch decay and a bounded promotion
//!   bandwidth budget so migrations cannot starve serving.
//! * [`cache`] — [`HotChunkCache`]: a small LRU index over
//!   server-owned DMA slots; the cache *ablation* for the paper's
//!   "<10% buffer-cache hit ratio" claim (Atlas deleted the BC — this
//!   measures where a cache re-earns its memory bandwidth).
//!
//! Content never changes across tiers: every backend serves the bytes
//! of `Catalog::expected(file, offset)`, so promotion/demotion and
//! cache hits are invisible to the stream verifier.

pub mod backend;
pub mod cache;
pub mod engine;
pub mod map;

pub use backend::{ColdObjectStore, ColdStoreConfig, GetTicket, NvmeFlatBackend, StorageBackend};
pub use cache::{CacheStats, HotChunkCache};
pub use engine::{Placement, TierConfig, TierEngine, TierStats, PROMO_TOKEN_BIT};
pub use map::TierMap;
