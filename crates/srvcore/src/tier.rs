//! The `tier.*` registry handles both stacks publish. Only present
//! when a server is built with tiering (or, on Atlas, the hot-chunk
//! DMA cache), so flat-namespace runs publish no tier metrics at all.

use dcn_obs::{CounterId, GaugeId, HistId, Registry};
use dcn_store::FileId;
use dcn_tier::{GetTicket, HotChunkCache, Placement, TierEngine};

/// Tiered-catalog activity over one run, assembled from the `tier.*`
/// registry family (present when the server ran with a tier engine
/// and/or the hot-chunk DMA cache).
#[derive(Clone, Copy, Debug, Default)]
pub struct TierMetrics {
    /// Requests classified hot / cold (per request, not per fetch).
    pub hot_hits: u64,
    pub cold_misses: u64,
    /// hot_hits / (hot_hits + cold_misses).
    pub hit_ratio: f64,
    /// Objects resident on the hot tier at run end.
    pub hot_count: u64,
    /// Bytes delivered from the cold object store (demand misses).
    pub cold_bytes: u64,
    /// Cold-store GETs (demand + promotion reads).
    pub cold_requests: u64,
    /// Simulated cold-store bill, micro-cents.
    pub cold_cost_ucents: u64,
    pub promotions: u64,
    pub demotions: u64,
    pub promote_deferred: u64,
    pub promoted_bytes: u64,
    pub epochs: u64,
    /// Hot-chunk DMA cache (Atlas ablation; zero on kstack).
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_hit_ratio: f64,
    /// DRAM traffic the cache itself cost (fills + hit readbacks).
    pub cache_dram_bytes: u64,
}

/// Pre-registered `tier.*` handles (per-core counters indexed by
/// core). The kernel stack has no DMA cache, so its `tier.cache_*`
/// series stay zero.
pub struct TierIds {
    hot_hits: Vec<CounterId>,
    cold_misses: Vec<CounterId>,
    /// Cold-tier egress actually delivered into server memory.
    cold_bytes: Vec<CounterId>,
    pub cache_hits: Vec<CounterId>,
    pub cache_misses: Vec<CounterId>,
    /// Demand cold-fetch latency (issue → bytes landed), nanoseconds.
    cold_fetch_ns: HistId,
    hot_count: GaugeId,
    hit_ratio: GaugeId,
    cold_requests: GaugeId,
    cold_cost_ucents: GaugeId,
    promotions: GaugeId,
    demotions: GaugeId,
    promote_deferred: GaugeId,
    promoted_bytes: GaugeId,
    epochs: GaugeId,
    cache_inserts: GaugeId,
    cache_evictions: GaugeId,
    cache_hit_ratio: GaugeId,
    cache_dram_bytes: GaugeId,
}

impl TierIds {
    pub fn register(reg: &mut Registry, cores: usize) -> Self {
        TierIds {
            hot_hits: reg.counters_per_core("tier.hot_hits", cores),
            cold_misses: reg.counters_per_core("tier.cold_misses", cores),
            cold_bytes: reg.counters_per_core("tier.cold_bytes", cores),
            cache_hits: reg.counters_per_core("tier.cache_hits", cores),
            cache_misses: reg.counters_per_core("tier.cache_misses", cores),
            cold_fetch_ns: reg.histogram("tier.cold_fetch_ns", 1e5, 1e9, 40),
            hot_count: reg.gauge("tier.hot_count"),
            hit_ratio: reg.gauge("tier.hit_ratio"),
            cold_requests: reg.gauge("tier.cold_requests"),
            cold_cost_ucents: reg.gauge("tier.cold_cost_ucents"),
            promotions: reg.gauge("tier.promotions"),
            demotions: reg.gauge("tier.demotions"),
            promote_deferred: reg.gauge("tier.promote_deferred"),
            promoted_bytes: reg.gauge("tier.promoted_bytes"),
            epochs: reg.gauge("tier.epochs"),
            cache_inserts: reg.gauge("tier.cache_inserts"),
            cache_evictions: reg.gauge("tier.cache_evictions"),
            cache_hit_ratio: reg.gauge("tier.cache_hit_ratio"),
            cache_dram_bytes: reg.gauge("tier.cache_dram_bytes"),
        }
    }

    /// Classify one admitted request (not one fetch): bump the
    /// object's heat once, count the hot hit or cold miss, and let the
    /// engine queue a promotion if the object crossed its threshold.
    pub fn note_request(&self, reg: &mut Registry, tier: &mut TierEngine, core: usize, f: FileId) {
        match tier.classify(f) {
            Placement::Hot => reg.inc(self.hot_hits[core]),
            Placement::Cold => reg.inc(self.cold_misses[core]),
        }
    }

    /// Count one demand cold fetch landing on `core`.
    pub fn note_cold_fill(&self, reg: &mut Registry, core: usize, tk: &GetTicket) {
        reg.add(self.cold_bytes[core], tk.len);
        reg.observe(
            self.cold_fetch_ns,
            tk.done_at.saturating_sub(tk.issued_at).as_nanos() as f64,
        );
    }

    /// Refresh the sample-point gauges from the engine and the cache.
    pub fn publish(
        &self,
        reg: &mut Registry,
        tier: Option<&TierEngine>,
        cache: Option<&HotChunkCache>,
    ) {
        if let Some(tier) = tier {
            reg.set(self.hot_count, tier.hot_count() as f64);
            reg.set(self.hit_ratio, tier.hit_ratio());
            reg.set(self.cold_requests, tier.cold.stats.requests as f64);
            reg.set(self.cold_cost_ucents, tier.cold.stats.cost_ucents as f64);
            reg.set(self.promotions, tier.stats.promotions as f64);
            reg.set(self.demotions, tier.stats.demotions as f64);
            reg.set(self.promote_deferred, tier.stats.promote_deferred as f64);
            reg.set(self.promoted_bytes, tier.stats.promoted_bytes as f64);
            reg.set(self.epochs, tier.stats.epochs as f64);
        }
        if let Some(cache) = cache {
            reg.set(self.cache_inserts, cache.stats.inserts as f64);
            reg.set(self.cache_evictions, cache.stats.evictions as f64);
            reg.set(self.cache_hit_ratio, cache.hit_ratio());
            reg.set(self.cache_dram_bytes, cache.approx_dram_bytes() as f64);
        }
    }

    /// Read the family back through the handles, as of the last
    /// [`Self::publish`].
    #[must_use]
    pub fn read(&self, reg: &Registry) -> TierMetrics {
        let sum = |ids: &[CounterId]| ids.iter().map(|&id| reg.counter_value(id)).sum();
        let count = |id: GaugeId| reg.gauge_value(id) as u64;
        TierMetrics {
            hot_hits: sum(&self.hot_hits),
            cold_misses: sum(&self.cold_misses),
            hit_ratio: reg.gauge_value(self.hit_ratio),
            hot_count: count(self.hot_count),
            cold_bytes: sum(&self.cold_bytes),
            cold_requests: count(self.cold_requests),
            cold_cost_ucents: count(self.cold_cost_ucents),
            promotions: count(self.promotions),
            demotions: count(self.demotions),
            promote_deferred: count(self.promote_deferred),
            promoted_bytes: count(self.promoted_bytes),
            epochs: count(self.epochs),
            cache_hits: sum(&self.cache_hits),
            cache_misses: sum(&self.cache_misses),
            cache_hit_ratio: reg.gauge_value(self.cache_hit_ratio),
            cache_dram_bytes: count(self.cache_dram_bytes),
        }
    }
}
