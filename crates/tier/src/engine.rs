//! The tiering engine: residency classification, hysteretic
//! promotion/demotion, and the epoch clock.
//!
//! Policy shape:
//!
//! * every access bumps the object's heat ([`TierMap::touch`]); every
//!   epoch halves it — heat is an exponentially-decayed access count;
//! * a cold object whose heat crosses [`PROMOTE_AT`] is queued for
//!   promotion (once — a bitmap dedups the queue);
//! * promotions launch at epoch boundaries within a byte budget and
//!   ride the *same* cold-store pipe as demand misses, so migrations
//!   contend with serving but can never exceed the configured budget;
//! * demotion is metadata-only (the cold store keeps the canonical
//!   copy of every immutable object) and happens only under capacity
//!   pressure, taking victims with heat ≤ [`DEMOTE_BELOW`].
//!
//! Hysteresis: [`PROMOTE_AT`] ≫ [`DEMOTE_BELOW`] and the decay clock mean
//! a just-promoted object needs several quiet epochs before it is
//! even *eligible* for demotion — oscillating popularity cannot
//! thrash an object back and forth (tested below).

use crate::backend::{ColdObjectStore, ColdStoreConfig, GetTicket, StorageBackend};
use crate::map::TierMap;
use dcn_simcore::{Nanos, RankPerm, RANK_PERM_SEED};
use dcn_store::{Catalog, FileId};
use std::collections::VecDeque;

/// High bit of a cold-store token marks an internal promotion read
/// (never surfaced to the serving path).
pub const PROMO_TOKEN_BIT: u64 = 1 << 63;

/// Heat added per access.
pub const TOUCH_STEP: u8 = 3;
/// Cold object at/above this heat ⇒ queue for promotion.
pub const PROMOTE_AT: u8 = 12;
/// Hot object at/below this heat ⇒ demotion victim (only under
/// capacity pressure).
pub const DEMOTE_BELOW: u8 = 2;
/// Decay + migration cadence.
pub const EPOCH: Nanos = Nanos::from_millis(50);
/// Max bytes of promotions launched per epoch: small enough that
/// migrations can never crowd out demand misses.
pub const PROMOTE_BUDGET_BYTES: u64 = 8 << 20;

/// Tiering knobs. `Default` models a 40%-hot split with S3-shaped
/// cold storage.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// Fraction of the catalog resident on the hot tier at any time
    /// (capacity, and the initially-seeded popular set).
    pub hot_frac: f64,
    pub cold: ColdStoreConfig,
}

impl Default for TierConfig {
    fn default() -> Self {
        TierConfig {
            hot_frac: 0.4,
            cold: ColdStoreConfig::default(),
        }
    }
}

/// Where a requested object currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    Hot,
    Cold,
}

/// Plain counters, mirrored into `tier.*` registry metrics by the
/// servers.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierStats {
    pub hot_hits: u64,
    pub cold_misses: u64,
    pub promotions: u64,
    pub demotions: u64,
    /// Promotions deferred because no demotion victim was cold enough
    /// (capacity full of genuinely hot objects).
    pub promote_deferred: u64,
    pub promoted_bytes: u64,
    pub epochs: u64,
}

/// One engine per server: owns the cold store, the residency map, and
/// the migration policy. All state advances on the virtual clock.
pub struct TierEngine {
    pub cfg: TierConfig,
    map: TierMap,
    pub cold: ColdObjectStore,
    file_size: u64,
    promo_q: VecDeque<FileId>,
    next_epoch: Nanos,
    demote_cursor: u64,
    scratch: Vec<GetTicket>,
    pub stats: TierStats,
}

impl TierEngine {
    #[must_use]
    pub fn new(cfg: TierConfig, catalog: &Catalog, seed: u64) -> Self {
        let n = catalog.n_files();
        // Seed the hot tier with the popular head: ranks 0..capacity
        // through the same rank→id permutation the Zipf workload uses,
        // so "popular" means the same thing on both sides. The map
        // answers residency from the permutation, so this writes
        // nothing per object.
        let perm = RankPerm::new(n, RANK_PERM_SEED);
        let map = TierMap::new(perm, Self::capacity_for(cfg.hot_frac, n));
        TierEngine {
            cfg,
            map,
            cold: ColdObjectStore::new(cfg.cold, seed ^ 0x7E1A_C01D),
            file_size: catalog.file_size(),
            promo_q: VecDeque::with_capacity(1024),
            next_epoch: EPOCH,
            demote_cursor: 0,
            scratch: Vec::with_capacity(64),
            stats: TierStats::default(),
        }
    }

    fn capacity_for(hot_frac: f64, n: u64) -> u64 {
        ((n as f64 * hot_frac) as u64).clamp(1, n)
    }

    /// Hot-tier object capacity.
    #[must_use]
    pub fn capacity(&self) -> u64 {
        Self::capacity_for(self.cfg.hot_frac, self.map.len())
    }

    #[must_use]
    pub fn is_hot(&self, f: FileId) -> bool {
        self.map.is_hot(f)
    }

    #[must_use]
    pub fn hot_count(&self) -> u64 {
        self.map.hot_count()
    }

    #[must_use]
    pub fn heat(&self, f: FileId) -> u8 {
        self.map.heat(f)
    }

    /// The shared popularity permutation (rank → object id).
    #[must_use]
    pub fn perm(&self) -> &RankPerm {
        self.map.perm()
    }

    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.stats.hot_hits + self.stats.cold_misses;
        if total == 0 {
            return 1.0;
        }
        self.stats.hot_hits as f64 / total as f64
    }

    /// Classify an object access: bump heat, count the hit/miss, and
    /// queue a promotion candidate when a cold object crosses the
    /// threshold. Call once per request (not per byte-range fetch).
    pub fn classify(&mut self, f: FileId) -> Placement {
        let heat = self.map.touch(f, TOUCH_STEP);
        if self.map.is_hot(f) {
            self.stats.hot_hits += 1;
            Placement::Hot
        } else {
            self.stats.cold_misses += 1;
            if heat >= PROMOTE_AT && !self.map.is_queued(f) {
                self.map.set_queued(f);
                self.promo_q.push_back(f);
            }
            Placement::Cold
        }
    }

    /// Residency without side effects (per-fetch path; classification
    /// and heat accounting happen once per request in `classify`).
    #[must_use]
    pub fn placement(&self, f: FileId) -> Placement {
        if self.map.is_hot(f) {
            Placement::Hot
        } else {
            Placement::Cold
        }
    }

    /// Start a cold fetch for the serving path; completion arrives via
    /// [`Self::drain_serving`]. `token` must not set
    /// [`PROMO_TOKEN_BIT`].
    pub fn cold_fetch(
        &mut self,
        now: Nanos,
        file: FileId,
        offset: u64,
        len: u64,
        token: u64,
    ) -> Nanos {
        debug_assert_eq!(token & PROMO_TOKEN_BIT, 0);
        self.cold.get_range(now, file, offset, len, token)
    }

    /// Drain completed cold reads: serving tickets go to `out`;
    /// promotion reads are absorbed (the object becomes hot).
    pub fn drain_serving(&mut self, now: Nanos, out: &mut Vec<GetTicket>) {
        self.scratch.clear();
        self.cold.drain_completed(now, &mut self.scratch);
        for i in 0..self.scratch.len() {
            let t = self.scratch[i];
            if t.token & PROMO_TOKEN_BIT != 0 {
                self.map.set_hot(t.file);
                self.map.clear_queued(t.file);
                self.stats.promotions += 1;
                self.stats.promoted_bytes += t.len;
            } else {
                out.push(t);
            }
        }
    }

    /// Run epoch work (decay + migration launches) if due. Returns
    /// true if an epoch boundary was processed.
    pub fn maybe_epoch(&mut self, now: Nanos) -> bool {
        if now < self.next_epoch {
            return false;
        }
        // Lazy catch-up: an idle stretch spanning K epochs decays K
        // times (the server only calls us when it has other service
        // to do, so quiet periods batch here).
        while self.next_epoch <= now {
            self.next_epoch += EPOCH;
            self.stats.epochs += 1;
            self.map.decay();
        }
        self.launch_promotions(now);
        true
    }

    fn launch_promotions(&mut self, now: Nanos) {
        let mut budget = PROMOTE_BUDGET_BYTES;
        let capacity = self.capacity();
        while budget >= self.file_size {
            let Some(f) = self.promo_q.pop_front() else {
                break;
            };
            if self.map.is_hot(f) {
                self.map.clear_queued(f);
                continue;
            }
            // Still worth promoting? Heat decays while queued; an
            // object that cooled below the *demotion* floor would be
            // the next demotion victim — skip it.
            if self.map.heat(f) <= DEMOTE_BELOW {
                self.map.clear_queued(f);
                continue;
            }
            // Make room first (metadata-only demotion; cold store
            // retains the canonical copy of every immutable object).
            if self.map.hot_count() >= capacity {
                let mut cursor = self.demote_cursor;
                let victim = self.map.find_cold_victim(&mut cursor, 8192, DEMOTE_BELOW);
                self.demote_cursor = cursor;
                match victim {
                    Some(v) => {
                        self.map.clear_hot(v);
                        self.stats.demotions += 1;
                    }
                    None => {
                        // Capacity is full of genuinely warm objects:
                        // defer, keep the candidate queued for a
                        // later epoch.
                        self.stats.promote_deferred += 1;
                        self.promo_q.push_front(f);
                        break;
                    }
                }
            }
            // The promotion read rides the shared cold pipe, so it
            // contends with (and is visible to) demand misses.
            budget -= self.file_size;
            self.cold
                .get_range(now, f, 0, self.file_size, PROMO_TOKEN_BIT | f.0);
        }
    }

    /// Earliest time this engine needs the server to advance it:
    /// pending cold completions, or the next epoch boundary when
    /// promotions are queued. Decay-only epochs don't wake an
    /// otherwise-idle server — [`Self::maybe_epoch`] catches up
    /// lazily, so a quiescent deployment stays quiescent.
    #[must_use]
    pub fn poll_at(&self) -> Nanos {
        let cold = self.cold.poll_at().unwrap_or(Nanos::MAX);
        if self.promo_q.is_empty() {
            cold
        } else {
            cold.min(self.next_epoch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(n: u64, hot_frac: f64) -> TierEngine {
        let catalog = Catalog::new(n, 300 * 1024, 4, 7);
        let cfg = TierConfig {
            hot_frac,
            ..TierConfig::default()
        };
        TierEngine::new(cfg, &catalog, 42)
    }

    fn run_epoch(e: &mut TierEngine, now: Nanos) {
        assert!(e.maybe_epoch(now));
        // Let every launched promotion land.
        let mut out = Vec::new();
        e.drain_serving(Nanos::MAX - Nanos::from_millis(1), &mut out);
        assert!(out.is_empty(), "promotions must not surface as serving");
    }

    #[test]
    fn seeds_the_popular_head_hot() {
        let e = engine(10_000, 0.3);
        assert_eq!(e.hot_count(), 3000);
        // The top-ranked objects (through the permutation) are hot.
        for rank in 0..3000 {
            assert!(e.is_hot(FileId(e.perm().apply(rank))));
        }
        for rank in 3000..3100 {
            assert!(!e.is_hot(FileId(e.perm().apply(rank))));
        }
        // The benchmark's shape: the default 40% of a million objects.
        let catalog = Catalog::new(1_000_000, 300 * 1024, 4, 7);
        let e = TierEngine::new(TierConfig::default(), &catalog, 42);
        assert_eq!(e.hot_count(), 400_000);
        for rank in 399_990..400_010 {
            let hot = e.is_hot(FileId(e.perm().apply(rank)));
            assert_eq!(hot, rank < 400_000, "rank {rank}");
        }
    }

    #[test]
    fn repeated_access_promotes_within_budget() {
        let mut e = engine(1000, 0.1);
        let cold_obj = FileId(e.perm().apply(500)); // deep in the tail
        assert!(!e.is_hot(cold_obj));
        for _ in 0..4 {
            assert_eq!(e.classify(cold_obj), Placement::Cold);
        }
        run_epoch(&mut e, Nanos::from_millis(50));
        assert!(e.is_hot(cold_obj), "crossed promote_at => promoted");
        assert_eq!(e.stats.promotions, 1);
        assert_eq!(e.stats.demotions, 1, "capacity was full: one victim");
        assert_eq!(e.hot_count(), 100);
    }

    #[test]
    fn promotion_bandwidth_is_bounded() {
        let mut e = engine(10_000, 0.01);
        // Make 200 tail objects promotion candidates in one epoch.
        for rank in 5000..5200 {
            let f = FileId(e.perm().apply(rank));
            for _ in 0..4 {
                e.classify(f);
            }
        }
        let before = e.cold.stats.bytes;
        assert!(e.maybe_epoch(Nanos::from_millis(50)));
        let launched = e.cold.stats.bytes - before;
        assert!(
            launched <= PROMOTE_BUDGET_BYTES,
            "epoch launched {launched} > budget {PROMOTE_BUDGET_BYTES}"
        );
        // The rest stay queued: the next epoch launches more.
        assert!(e.maybe_epoch(Nanos::from_millis(100)));
        assert!(e.cold.stats.bytes > before + launched);
    }

    #[test]
    fn oscillating_popularity_does_not_thrash() {
        // Object A is accessed in bursts every other epoch; the hot
        // tier is at capacity the whole time. Hysteresis (promote_at
        // ≫ demote_below + halving decay) must keep A resident after
        // its first promotion instead of cycling it in and out.
        let mut e = engine(1000, 0.1);
        let a = FileId(e.perm().apply(700));
        let mut now = Nanos::ZERO;
        for epoch in 0..20 {
            if epoch % 2 == 0 {
                for _ in 0..6 {
                    e.classify(a);
                }
            }
            now += EPOCH;
            run_epoch(&mut e, now);
        }
        assert!(e.is_hot(a));
        let promos_of_a = e.stats.promotions;
        assert_eq!(promos_of_a, 1, "object must be promoted exactly once");
        // And it was never demoted: demotions only ever took decayed
        // seeded objects, never A (A stays hot => at most one victim
        // per promotion, and A is resident at the end).
        assert_eq!(e.stats.demotions, 1);
    }

    #[test]
    fn demotion_only_under_capacity_pressure() {
        let mut e = engine(1000, 0.1);
        // Many epochs pass with no promotions queued: nothing is
        // demoted even though every seeded object's heat decays to 0.
        let mut now = Nanos::ZERO;
        for _ in 0..10 {
            now += EPOCH;
            run_epoch(&mut e, now);
        }
        assert_eq!(e.stats.demotions, 0);
        assert_eq!(e.hot_count(), 100);
    }

    #[test]
    fn epoch_replay_is_deterministic() {
        let run = || {
            let mut e = engine(5000, 0.05);
            let mut now = Nanos::ZERO;
            for i in 0..2000u64 {
                let f = FileId(e.perm().apply(i * 7 % 5000));
                e.classify(f);
                if i % 100 == 99 {
                    now += EPOCH;
                    e.maybe_epoch(now);
                    let mut out = Vec::new();
                    e.drain_serving(now, &mut out);
                }
            }
            (
                e.stats.hot_hits,
                e.stats.cold_misses,
                e.stats.promotions,
                e.stats.demotions,
                e.cold.stats.cost_ucents,
                e.hot_count(),
            )
        };
        assert_eq!(run(), run());
    }
}
