//! Storage backends: where a chunk's bytes come from and what the
//! fetch costs in (virtual) time and money.
//!
//! The trait is deliberately byte-range shaped (`get_range`), like an
//! object-store GET with a `Range:` header — the same abstraction
//! whether the bytes come from the local NVMe flat namespace or a
//! remote cold store. Completion is pull-based to match the
//! reproduction's sweep discipline: the server calls
//! [`StorageBackend::drain_completed`] from its `advance()` loop at
//! the times [`StorageBackend::poll_at`] names, so everything stays
//! on the virtual clock and replays bit-identically.

use dcn_simcore::{Bandwidth, Nanos, SimRng};
use dcn_store::{Catalog, FileId};
use std::collections::BTreeMap;

/// A completed byte-range fetch, handed back by
/// [`StorageBackend::drain_completed`].
#[derive(Clone, Copy, Debug)]
pub struct GetTicket {
    /// Caller's correlation token (Atlas uses its fetch token, kstack
    /// its command id).
    pub token: u64,
    pub file: FileId,
    pub offset: u64,
    pub len: u64,
    pub issued_at: Nanos,
    pub done_at: Nanos,
}

/// A tier that can fetch byte ranges of catalog objects.
pub trait StorageBackend {
    /// Short name for tables and metrics.
    fn label(&self) -> &'static str;

    /// Begin fetching `[offset, offset+len)` of `file`; returns the
    /// (virtual) completion time. The ticket comes back from
    /// [`Self::drain_completed`] once `now` reaches it.
    fn get_range(&mut self, now: Nanos, file: FileId, offset: u64, len: u64, token: u64) -> Nanos;

    /// Earliest time a pending fetch completes, if any.
    fn poll_at(&self) -> Option<Nanos>;

    /// Move every fetch with `done_at <= now` into `out` (ascending
    /// completion order, ties by issue order).
    fn drain_completed(&mut self, now: Nanos, out: &mut Vec<GetTicket>);
}

/// Uniform ± fraction applied to the cold store's base latency, drawn
/// from the store's own seeded stream (bit-identical replay).
pub const JITTER_FRAC: f64 = 0.2;
/// Shared transfer pipe for all in-flight GETs (serving and
/// promotions alike — migrations contend with misses): a 10 Gb/s
/// backbone egress.
pub const BANDWIDTH: Bandwidth = Bandwidth::from_gbps(10.0);
/// Flat fee per GET, in micro-cents (≈ $0.40 per million requests).
pub const COST_PER_REQ_UCENTS: u64 = 40;
/// Egress fee per GiB, in micro-cents (≈ $0.01/GiB backbone rate).
pub const COST_PER_GIB_UCENTS: u64 = 10_000;

/// Cold-tier parameters. The default models a same-region object
/// store reached over the backbone: ~20 ms to first byte, then the
/// shared [`BANDWIDTH`] pipe and S3-shaped pricing (flat per-request
/// fee plus per-byte egress).
#[derive(Clone, Copy, Debug)]
pub struct ColdStoreConfig {
    /// Request latency before the transfer starts (auth + index +
    /// first byte).
    pub base_latency: Nanos,
}

impl Default for ColdStoreConfig {
    fn default() -> Self {
        ColdStoreConfig {
            base_latency: Nanos::from_micros(20_000),
        }
    }
}

/// Running cold-tier totals (exact integers; exported as `tier.*`
/// metrics by the servers).
#[derive(Clone, Copy, Debug, Default)]
pub struct ColdStats {
    pub requests: u64,
    pub bytes: u64,
    pub cost_ucents: u64,
}

/// The simulated cold object store: per-request latency with seeded
/// jitter, one shared bandwidth pipe, and cost metering. Purely
/// virtual-time — identical call sequences yield identical
/// completion times and costs.
pub struct ColdObjectStore {
    cfg: ColdStoreConfig,
    jitter_frac: f64,
    rng: SimRng,
    /// When the shared transfer pipe frees up.
    next_free: Nanos,
    /// Pending completions, keyed (done_at, seq) so ties drain in
    /// issue order.
    pending: BTreeMap<(Nanos, u64), GetTicket>,
    seq: u64,
    pub stats: ColdStats,
}

impl ColdObjectStore {
    #[must_use]
    pub fn new(cfg: ColdStoreConfig, seed: u64) -> Self {
        Self::with_jitter(cfg, JITTER_FRAC, seed)
    }

    fn with_jitter(cfg: ColdStoreConfig, jitter_frac: f64, seed: u64) -> Self {
        ColdObjectStore {
            cfg,
            jitter_frac,
            rng: SimRng::new(seed ^ 0xC01D_5708_0000_0000),
            next_free: Nanos::ZERO,
            pending: BTreeMap::new(),
            seq: 0,
            stats: ColdStats::default(),
        }
    }
}

impl StorageBackend for ColdObjectStore {
    fn label(&self) -> &'static str {
        "cold-object-store"
    }

    fn get_range(&mut self, now: Nanos, file: FileId, offset: u64, len: u64, token: u64) -> Nanos {
        let jitter = 1.0 + self.jitter_frac * (2.0 * self.rng.next_f64() - 1.0);
        let latency = Nanos::from_nanos((self.cfg.base_latency.as_nanos() as f64 * jitter) as u64);
        let xfer = BANDWIDTH.tx_time(len);
        // The request spends `latency` before its transfer can start;
        // transfers serialize on the shared pipe.
        let start = (now + latency).max(self.next_free);
        let done = start + xfer;
        self.next_free = done;
        self.stats.requests += 1;
        self.stats.bytes += len;
        self.stats.cost_ucents += COST_PER_REQ_UCENTS + ((len * COST_PER_GIB_UCENTS) >> 30);
        self.seq += 1;
        self.pending.insert(
            (done, self.seq),
            GetTicket {
                token,
                file,
                offset,
                len,
                issued_at: now,
                done_at: done,
            },
        );
        done
    }

    fn poll_at(&self) -> Option<Nanos> {
        self.pending.keys().next().map(|&(t, _)| t)
    }

    fn drain_completed(&mut self, now: Nanos, out: &mut Vec<GetTicket>) {
        while let Some((&(t, s), _)) = self.pending.first_key_value() {
            if t > now {
                break;
            }
            out.push(self.pending.remove(&(t, s)).unwrap());
        }
    }
}

/// The paper's NVMe flat namespace behind the same trait: per-disk
/// pipes (command overhead + transfer at the drive's sequential
/// rate), routed by the catalog's placement function. Atlas and
/// kstack keep their native diskmap/kernel NVMe paths for serving —
/// this backend exists so the two tiers can be compared like-for-like
/// through one interface (unit tests, `ablation_tiers` sanity rows).
pub struct NvmeFlatBackend {
    catalog: Catalog,
    /// Fixed per-command firmware overhead (P3700-class).
    cmd_overhead: Nanos,
    /// Per-disk sequential-read bandwidth.
    bandwidth: Bandwidth,
    next_free: Vec<Nanos>,
    pending: BTreeMap<(Nanos, u64), GetTicket>,
    seq: u64,
    pub read_bytes: u64,
}

impl NvmeFlatBackend {
    #[must_use]
    pub fn new(catalog: Catalog) -> Self {
        let n = catalog.n_disks();
        NvmeFlatBackend {
            catalog,
            cmd_overhead: Nanos::from_micros(80),
            bandwidth: Bandwidth::from_gbps(22.4), // 2.8 GB/s per drive
            next_free: vec![Nanos::ZERO; n],
            pending: BTreeMap::new(),
            seq: 0,
            read_bytes: 0,
        }
    }
}

impl StorageBackend for NvmeFlatBackend {
    fn label(&self) -> &'static str {
        "nvme-flat"
    }

    fn get_range(&mut self, now: Nanos, file: FileId, offset: u64, len: u64, token: u64) -> Nanos {
        let disk = self
            .catalog
            .locate(file, offset.min(self.catalog.file_size() - 1))
            .disk;
        let start = now.max(self.next_free[disk]);
        let done = start + self.cmd_overhead + self.bandwidth.tx_time(len);
        self.next_free[disk] = done;
        self.read_bytes += len;
        self.seq += 1;
        self.pending.insert(
            (done, self.seq),
            GetTicket {
                token,
                file,
                offset,
                len,
                issued_at: now,
                done_at: done,
            },
        );
        done
    }

    fn poll_at(&self) -> Option<Nanos> {
        self.pending.keys().next().map(|&(t, _)| t)
    }

    fn drain_completed(&mut self, now: Nanos, out: &mut Vec<GetTicket>) {
        while let Some((&(t, s), _)) = self.pending.first_key_value() {
            if t > now {
                break;
            }
            out.push(self.pending.remove(&(t, s)).unwrap());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::new(1000, 300 * 1024, 4, 7)
    }

    #[test]
    fn cold_store_is_slower_than_hot() {
        let c = catalog();
        let mut cold = ColdObjectStore::new(ColdStoreConfig::default(), 1);
        let mut hot = NvmeFlatBackend::new(c);
        let t0 = Nanos::ZERO;
        let d_cold = cold.get_range(t0, FileId(1), 0, 300 * 1024, 1);
        let d_hot = hot.get_range(t0, FileId(1), 0, 300 * 1024, 1);
        assert!(
            d_cold.as_nanos() > 10 * d_hot.as_nanos(),
            "cold {d_cold:?} vs hot {d_hot:?}"
        );
    }

    #[test]
    fn cold_pipe_serializes_transfers() {
        let mut cold = ColdObjectStore::with_jitter(ColdStoreConfig::default(), 0.0, 1);
        let len = 300 * 1024u64;
        let d1 = cold.get_range(Nanos::ZERO, FileId(1), 0, len, 1);
        let d2 = cold.get_range(Nanos::ZERO, FileId(2), 0, len, 2);
        let xfer = BANDWIDTH.tx_time(len);
        // Same latency (no jitter); the second transfer waits for the
        // first to release the pipe.
        assert_eq!(d2.as_nanos() - d1.as_nanos(), xfer.as_nanos());
    }

    #[test]
    fn cold_replay_is_bit_identical_and_costed() {
        let run = |seed: u64| {
            let mut cold = ColdObjectStore::new(ColdStoreConfig::default(), seed);
            let mut times = Vec::new();
            for i in 0..100u64 {
                times.push(
                    cold.get_range(Nanos::from_micros(i * 50), FileId(i), 0, 300 * 1024, i)
                        .as_nanos(),
                );
            }
            (times, cold.stats)
        };
        let (t1, s1) = run(9);
        let (t2, s2) = run(9);
        assert_eq!(t1, t2);
        assert_eq!(s1.cost_ucents, s2.cost_ucents);
        assert_eq!(s1.requests, 100);
        assert_eq!(s1.bytes, 100 * 300 * 1024);
        assert!(s1.cost_ucents >= 100 * COST_PER_REQ_UCENTS);
        let (t3, _) = run(10);
        assert_ne!(t1, t3, "different seeds must jitter differently");
    }

    #[test]
    fn drain_respects_virtual_time() {
        let mut cold = ColdObjectStore::new(ColdStoreConfig::default(), 3);
        let done = cold.get_range(Nanos::ZERO, FileId(0), 0, 1024, 7);
        let mut out = Vec::new();
        cold.drain_completed(done - Nanos::from_nanos(1), &mut out);
        assert!(out.is_empty());
        assert_eq!(cold.poll_at(), Some(done));
        cold.drain_completed(done, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token, 7);
        assert_eq!(cold.poll_at(), None);
    }
}
