//! The `tier.*` registry handles both stacks publish. Only present
//! when a server is built with tiering (or, on Atlas, the hot-chunk
//! DMA cache), so flat-namespace runs publish no tier metrics at all.

use dcn_obs::{CounterId, GaugeId, HistId, Registry};
use dcn_store::FileId;
use dcn_tier::{GetTicket, HotChunkCache, Placement, TierEngine};

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
}
