//! Per-stage cycle / DRAM-traffic profiler.
//!
//! The tracer answers *where a single chunk spent its time*; the
//! profiler answers *where the machine spent its cycles and DRAM
//! bandwidth* — the paper's budget argument (each chunk must cross
//! DRAM ~once, and cycles/chunk must stay low enough to fill 40 GbE
//! per core) in aggregate form.
//!
//! Attribution model: the server sweep loops declare a *current
//! stage* per core ([`StageProfiler::set_context`]) before charging
//! CPU cycles or touching the memory system. `CoreSet::run_on` and
//! every `MemSystem` access method then report into the profiler
//! through an optional handle, so cycles and DRAM bytes land on the
//! stage that caused them without the cost model knowing anything
//! about pipeline structure.
//!
//! Disabled (the default), no profiler exists: the [`Prof`] handle is
//! `None`, so each hook costs one `None` check and nothing allocates.
//! The profiler is purely observational: it never alters completion
//! times, so a seed produces bit-identical runs with profiling on or
//! off.

use crate::registry::Registry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared handle: the server, its `CoreSet`, and its `MemSystem` all
/// report into one profiler. The simulation is single-threaded, so
/// `Rc<RefCell>` is the whole story.
pub type ProfHandle = Rc<RefCell<StageProfiler>>;

/// The profiler handle a server holds: `None` unless profiling is on,
/// so every hook below costs one `None` check when it is off.
#[derive(Clone, Debug, Default)]
pub struct Prof(Option<ProfHandle>);

impl Prof {
    /// An enabled profiler over `n_cores` cores, or the no-op handle.
    #[must_use]
    pub fn new(enabled: bool, n_cores: usize) -> Self {
        Prof(enabled.then(|| Rc::new(RefCell::new(StageProfiler::new(n_cores)))))
    }

    /// The shared handle, for installing into the `CoreSet` and
    /// `MemSystem` hooks.
    #[must_use]
    pub fn handle(&self) -> Option<&ProfHandle> {
        self.0.as_ref()
    }

    /// [`StageProfiler::set_context`].
    #[inline]
    pub fn stage(&self, core: usize, stage: ProfStage) {
        if let Some(p) = &self.0 {
            p.borrow_mut().set_context(core, stage);
        }
    }

    /// [`StageProfiler::chunk_sample`].
    #[inline]
    pub fn chunk(&self, stage: ProfStage, cycles: u64) {
        if let Some(p) = &self.0 {
            p.borrow_mut().chunk_sample(stage, cycles);
        }
    }

    /// [`StageProfiler::stall`].
    #[inline]
    pub fn stall(&self, kind: StallKind) {
        if let Some(p) = &self.0 {
            p.borrow_mut().stall(kind);
        }
    }

    /// [`StageProfiler::add_encrypt_bytes`].
    #[inline]
    pub fn encrypt_bytes(&self, bytes: u64) {
        if let Some(p) = &self.0 {
            p.borrow_mut().add_encrypt_bytes(bytes);
        }
    }

    /// [`StageProfiler::chunk_done`].
    #[inline]
    pub fn chunk_done(&self, core: usize) {
        if let Some(p) = &self.0 {
            p.borrow_mut().chunk_done(core);
        }
    }

    /// Snapshot of the profile (`None` when profiling is off).
    #[must_use]
    pub fn report(&self) -> Option<ProfReport> {
        self.0.as_ref().map(|p| p.borrow().report())
    }

    /// Publish the `prof.*` metrics (no-op when profiling is off).
    pub fn publish(&self, reg: &mut Registry) {
        if let Some(p) = &self.0 {
            p.borrow().report().publish(reg);
        }
    }
}

/// Pipeline stages cycles and DRAM traffic are attributed to. Coarser
/// than the tracer's nine stamps: these are the five cost centres the
/// paper budgets (plus a catch-all for sweep bookkeeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ProfStage {
    /// RX frame delivery, ACK/request parsing, watermark decisions.
    Parse = 0,
    /// NVMe submit/doorbell, completion reaping, buffer-cache fill.
    Fetch = 1,
    /// In-place AES-GCM (or the kstack copy-and-encrypt path).
    Encrypt = 2,
    /// TSO packetization: TCP segment construction, sg-list handoff.
    Packetize = 3,
    /// TX-completion collection and buffer recycling (incl. NIC TX
    /// DMA reads, which are charged while draining the wire).
    TxComplete = 4,
    /// Anything charged outside a declared section.
    Other = 5,
}

pub const PROF_STAGE_COUNT: usize = 6;

impl ProfStage {
    pub const ALL: [ProfStage; PROF_STAGE_COUNT] = [
        ProfStage::Parse,
        ProfStage::Fetch,
        ProfStage::Encrypt,
        ProfStage::Packetize,
        ProfStage::TxComplete,
        ProfStage::Other,
    ];

    /// snake_case name used in `BENCH_*.json` keys and `prof.*` metrics.
    pub fn name(self) -> &'static str {
        match self {
            ProfStage::Parse => "parse",
            ProfStage::Fetch => "fetch",
            ProfStage::Encrypt => "encrypt",
            ProfStage::Packetize => "packetize",
            ProfStage::TxComplete => "tx_complete",
            ProfStage::Other => "other",
        }
    }
}

/// Why the sweep loop stopped making forward progress. CPU-busy is
/// the complement (cycles charged), derived at report time; these
/// three are counted as events at the specific break/park points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum StallKind {
    /// Send window / socket buffer full — waiting on client ACKs.
    CwndLimited = 0,
    /// Fetch issued but buffer pool (or VM page budget) empty.
    PoolEmpty = 1,
    /// In-order TX blocked on an NVMe read still in flight.
    NvmeWait = 2,
}

pub const STALL_KIND_COUNT: usize = 3;

impl StallKind {
    pub const ALL: [StallKind; STALL_KIND_COUNT] = [
        StallKind::CwndLimited,
        StallKind::PoolEmpty,
        StallKind::NvmeWait,
    ];

    pub fn name(self) -> &'static str {
        match self {
            StallKind::CwndLimited => "cwnd_limited",
            StallKind::PoolEmpty => "pool_empty",
            StallKind::NvmeWait => "nvme_wait",
        }
    }
}

#[derive(Debug, Default)]
pub struct StageProfiler {
    /// Stage each core is currently executing (sweep loops update it).
    cur_stage: Vec<ProfStage>,
    /// Core whose section last changed — DRAM accesses attribute here
    /// (the sim is serial, so "the core driving the memory system" is
    /// exactly the last `set_context` caller).
    cur_core: usize,
    /// Total cycles charged per core per stage.
    cycles: Vec<[u64; PROF_STAGE_COUNT]>,
    /// DRAM bytes read/written while each stage was current.
    dram_rd: [u64; PROF_STAGE_COUNT],
    dram_wr: [u64; PROF_STAGE_COUNT],
    /// Per-chunk cycle samples per stage, recorded at the per-chunk
    /// charge points as an exact value → count histogram. The cost
    /// model yields few distinct values, so memory stays bounded by
    /// them rather than by the chunks served, and quantiles read off
    /// cumulative counts equal those of the full sorted sample set.
    chunk_cycles: Vec<BTreeMap<u64, u64>>,
    /// Completed chunks per core.
    chunks: Vec<u64>,
    /// Stall events by kind.
    stalls: [u64; STALL_KIND_COUNT],
    /// Device-DMA reads split by where the line was found.
    dma_read_hit_bytes: u64,
    dma_read_dram_bytes: u64,
    /// Plaintext bytes passed through the encrypt stage.
    encrypt_bytes: u64,
}

impl StageProfiler {
    /// A profiler over `n_cores` cores.
    pub fn new(n_cores: usize) -> Self {
        StageProfiler {
            cur_stage: vec![ProfStage::Other; n_cores],
            cycles: vec![[0; PROF_STAGE_COUNT]; n_cores],
            chunk_cycles: vec![BTreeMap::new(); PROF_STAGE_COUNT],
            chunks: vec![0; n_cores],
            ..Self::default()
        }
    }

    /// Declare the stage `core` is about to execute. Subsequent cycle
    /// charges on that core and DRAM traffic attribute to `stage`.
    #[inline]
    pub fn set_context(&mut self, core: usize, stage: ProfStage) {
        if let Some(s) = self.cur_stage.get_mut(core) {
            *s = stage;
            self.cur_core = core;
        }
    }

    /// Hook: `CoreSet::run_on` reports every cycle charge here.
    #[inline]
    pub fn on_cycles(&mut self, core: usize, cycles: u64) {
        if let Some(per_core) = self.cycles.get_mut(core) {
            let stage = self.cur_stage[core];
            per_core[stage as usize] += cycles;
        }
    }

    /// Hook: `MemSystem` reports DRAM traffic caused by each access.
    #[inline]
    pub fn on_dram(&mut self, rd_bytes: u64, wr_bytes: u64) {
        let stage = self
            .cur_stage
            .get(self.cur_core)
            .copied()
            .unwrap_or(ProfStage::Other);
        self.dram_rd[stage as usize] += rd_bytes;
        self.dram_wr[stage as usize] += wr_bytes;
    }

    /// Hook: `MemSystem::dma_read` additionally splits device reads by
    /// LLC hit vs DRAM — the paper's "NIC DMA still found it in LLC"
    /// fraction.
    #[inline]
    pub fn on_dma_read(&mut self, dram_bytes: u64, hit_bytes: u64) {
        self.dma_read_dram_bytes += dram_bytes;
        self.dma_read_hit_bytes += hit_bytes;
    }

    /// Record one chunk's cycle cost through `stage` (the per-chunk
    /// p50/p99 sample, distinct from the aggregate `on_cycles` total).
    #[inline]
    pub fn chunk_sample(&mut self, stage: ProfStage, cycles: u64) {
        *self.chunk_cycles[stage as usize].entry(cycles).or_insert(0) += 1;
    }

    /// Count plaintext bytes entering the encrypt stage (denominator
    /// for the LLC-resident-encrypt fraction).
    #[inline]
    pub fn add_encrypt_bytes(&mut self, bytes: u64) {
        self.encrypt_bytes += bytes;
    }

    /// One chunk fully served (payload queued to the wire) on `core`.
    #[inline]
    pub fn chunk_done(&mut self, core: usize) {
        if let Some(c) = self.chunks.get_mut(core) {
            *c += 1;
        }
    }

    /// Count a sweep stall event.
    #[inline]
    pub fn stall(&mut self, kind: StallKind) {
        self.stalls[kind as usize] += 1;
    }

    /// Snapshot the profile.
    pub fn report(&self) -> ProfReport {
        let mut stage_cycles = [0u64; PROF_STAGE_COUNT];
        for per_core in &self.cycles {
            for (tot, c) in stage_cycles.iter_mut().zip(per_core) {
                *tot += c;
            }
        }
        let mut p50 = [0u64; PROF_STAGE_COUNT];
        let mut p99 = [0u64; PROF_STAGE_COUNT];
        let mut samples = [0u64; PROF_STAGE_COUNT];
        for (i, hist) in self.chunk_cycles.iter().enumerate() {
            samples[i] = hist.values().sum();
            p50[i] = exact_quantile(hist, samples[i], 0.50);
            p99[i] = exact_quantile(hist, samples[i], 0.99);
        }
        ProfReport {
            chunks_per_core: self.chunks.clone(),
            stage_cycles,
            stage_dram_rd: self.dram_rd,
            stage_dram_wr: self.dram_wr,
            chunk_cycles_p50: p50,
            chunk_cycles_p99: p99,
            chunk_samples: samples,
            stalls: self.stalls,
            dma_read_hit_bytes: self.dma_read_hit_bytes,
            dma_read_dram_bytes: self.dma_read_dram_bytes,
            encrypt_bytes: self.encrypt_bytes,
        }
    }
}

/// Exact quantile over a value → count histogram holding `n`
/// samples: the nearest-rank value, 0 when empty. Deterministic — no
/// interpolation.
fn exact_quantile(hist: &BTreeMap<u64, u64>, n: u64, q: f64) -> u64 {
    if n == 0 {
        return 0;
    }
    let rank = (((n as f64) * q).ceil() as u64).clamp(1, n);
    let mut seen = 0;
    for (&value, &count) in hist {
        seen += count;
        if seen >= rank {
            return value;
        }
    }
    unreachable!("rank {rank} within {n} samples")
}

/// Snapshot of a [`StageProfiler`], with the derived headline numbers
/// the bench layer turns into `BENCH_perf_baseline.json`.
#[derive(Debug, Clone, Default)]
pub struct ProfReport {
    pub chunks_per_core: Vec<u64>,
    /// Total cycles per stage, all cores.
    pub stage_cycles: [u64; PROF_STAGE_COUNT],
    pub stage_dram_rd: [u64; PROF_STAGE_COUNT],
    pub stage_dram_wr: [u64; PROF_STAGE_COUNT],
    /// Nearest-rank per-chunk cycle quantiles per stage.
    pub chunk_cycles_p50: [u64; PROF_STAGE_COUNT],
    pub chunk_cycles_p99: [u64; PROF_STAGE_COUNT],
    pub chunk_samples: [u64; PROF_STAGE_COUNT],
    pub stalls: [u64; STALL_KIND_COUNT],
    pub dma_read_hit_bytes: u64,
    pub dma_read_dram_bytes: u64,
    pub encrypt_bytes: u64,
}

impl ProfReport {
    pub fn total_chunks(&self) -> u64 {
        self.chunks_per_core.iter().sum()
    }

    pub fn total_cycles(&self) -> u64 {
        self.stage_cycles.iter().sum()
    }

    pub fn stall(&self, kind: StallKind) -> u64 {
        self.stalls[kind as usize]
    }

    /// Fraction of device-DMA read bytes served from the LLC (DDIO
    /// kept the line hot). 1.0 when no DMA reads happened.
    pub fn llc_resident_dma_frac(&self) -> f64 {
        let total = self.dma_read_hit_bytes + self.dma_read_dram_bytes;
        if total == 0 {
            return 1.0;
        }
        self.dma_read_hit_bytes as f64 / total as f64
    }

    /// Fraction of encrypt-stage input that did *not* come back from
    /// DRAM — an approximation: DRAM reads charged while a core was
    /// in the encrypt section, over plaintext bytes encrypted.
    pub fn llc_resident_encrypt_frac(&self) -> f64 {
        if self.encrypt_bytes == 0 {
            return 1.0;
        }
        let miss =
            self.stage_dram_rd[ProfStage::Encrypt as usize] as f64 / self.encrypt_bytes as f64;
        (1.0 - miss).clamp(0.0, 1.0)
    }

    /// Publish as `prof.*` gauges into a registry.
    pub fn publish(&self, reg: &mut Registry) {
        for st in ProfStage::ALL {
            let i = st as usize;
            let g = reg.gauge(&format!("prof.cycles.{}", st.name()));
            reg.set(g, self.stage_cycles[i] as f64);
            let g = reg.gauge(&format!("prof.dram_rd_bytes.{}", st.name()));
            reg.set(g, self.stage_dram_rd[i] as f64);
            let g = reg.gauge(&format!("prof.dram_wr_bytes.{}", st.name()));
            reg.set(g, self.stage_dram_wr[i] as f64);
            let g = reg.gauge(&format!("prof.chunk_cycles_p50.{}", st.name()));
            reg.set(g, self.chunk_cycles_p50[i] as f64);
            let g = reg.gauge(&format!("prof.chunk_cycles_p99.{}", st.name()));
            reg.set(g, self.chunk_cycles_p99[i] as f64);
        }
        for k in StallKind::ALL {
            let g = reg.gauge(&format!("prof.stalls.{}", k.name()));
            reg.set(g, self.stalls[k as usize] as f64);
        }
        let g = reg.gauge("prof.chunks");
        reg.set(g, self.total_chunks() as f64);
        let g = reg.gauge("prof.llc_resident_dma_frac");
        reg.set(g, self.llc_resident_dma_frac());
        let g = reg.gauge("prof.llc_resident_encrypt_frac");
        reg.set(g, self.llc_resident_encrypt_frac());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_and_dram_attribute_to_current_stage() {
        let mut p = StageProfiler::new(2);
        p.set_context(0, ProfStage::Fetch);
        p.on_cycles(0, 450);
        p.on_dram(4096, 0);
        p.set_context(1, ProfStage::Encrypt);
        p.on_cycles(1, 300_000);
        p.on_dram(0, 128);
        // Core 0's stage is remembered even after core 1 took over
        // the DRAM attribution context.
        p.on_cycles(0, 50);
        let r = p.report();
        assert_eq!(r.stage_cycles[ProfStage::Fetch as usize], 500);
        assert_eq!(r.stage_cycles[ProfStage::Encrypt as usize], 300_000);
        assert_eq!(r.stage_dram_rd[ProfStage::Fetch as usize], 4096);
        assert_eq!(r.stage_dram_wr[ProfStage::Encrypt as usize], 128);
    }

    #[test]
    fn chunk_quantiles_are_exact_nearest_rank() {
        let mut p = StageProfiler::new(1);
        for c in [100u64, 200, 300, 400, 500] {
            p.chunk_sample(ProfStage::Packetize, c);
        }
        let r = p.report();
        let i = ProfStage::Packetize as usize;
        assert_eq!(r.chunk_samples[i], 5);
        assert_eq!(r.chunk_cycles_p50[i], 300);
        assert_eq!(r.chunk_cycles_p99[i], 500);
        // Stages with no samples report zero, not garbage.
        assert_eq!(r.chunk_cycles_p50[ProfStage::Parse as usize], 0);
    }

    /// Nearest-rank over a sorted vector: the reference the histogram
    /// must reproduce.
    fn sorted_quantile(sorted: &[u64], q: f64) -> u64 {
        if sorted.is_empty() {
            return 0;
        }
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn histogram_quantiles_match_the_sorted_sample_vector() {
        let mut p = StageProfiler::new(1);
        let mut raw: Vec<Vec<u64>> = vec![Vec::new(); PROF_STAGE_COUNT];
        // Seeded xorshift; few distinct values per stage so most
        // samples are duplicates. `Other` stays empty.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for n in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let stage = ProfStage::ALL[(n % 5) as usize];
            let cycles = 100 + (x % 37) * (x % 3 + 1) * 50;
            p.chunk_sample(stage, cycles);
            raw[stage as usize].push(cycles);
        }
        let r = p.report();
        for st in ProfStage::ALL {
            let i = st as usize;
            let mut v = raw[i].clone();
            v.sort_unstable();
            assert_eq!(r.chunk_samples[i], v.len() as u64, "{st:?}");
            assert_eq!(r.chunk_cycles_p50[i], sorted_quantile(&v, 0.50), "{st:?}");
            assert_eq!(r.chunk_cycles_p99[i], sorted_quantile(&v, 0.99), "{st:?}");
        }
        let other = ProfStage::Other as usize;
        assert_eq!(r.chunk_samples[other], 0);
        assert_eq!(r.chunk_cycles_p50[other], 0);
        assert_eq!(r.chunk_cycles_p99[other], 0);
    }

    #[test]
    fn llc_fractions() {
        let mut p = StageProfiler::new(1);
        p.on_dma_read(300, 700); // 70% of DMA reads hit LLC
        p.set_context(0, ProfStage::Encrypt);
        p.on_dram(250, 0);
        p.add_encrypt_bytes(1000);
        let r = p.report();
        assert!((r.llc_resident_dma_frac() - 0.7).abs() < 1e-9);
        assert!((r.llc_resident_encrypt_frac() - 0.75).abs() < 1e-9);
        // Empty profiler: both fractions defined as 1.0.
        let empty = StageProfiler::new(1).report();
        assert_eq!(empty.llc_resident_dma_frac(), 1.0);
        assert_eq!(empty.llc_resident_encrypt_frac(), 1.0);
    }

    #[test]
    fn stalls_and_chunks_count() {
        let mut p = StageProfiler::new(2);
        p.stall(StallKind::CwndLimited);
        p.stall(StallKind::CwndLimited);
        p.stall(StallKind::NvmeWait);
        p.chunk_done(0);
        p.chunk_done(1);
        p.chunk_done(1);
        let r = p.report();
        assert_eq!(r.stall(StallKind::CwndLimited), 2);
        assert_eq!(r.stall(StallKind::NvmeWait), 1);
        assert_eq!(r.stall(StallKind::PoolEmpty), 0);
        assert_eq!(r.total_chunks(), 3);
        assert_eq!(r.chunks_per_core, vec![1, 2]);
    }

    #[test]
    fn publish_emits_prof_gauges() {
        let mut p = StageProfiler::new(1);
        p.set_context(0, ProfStage::Parse);
        p.on_cycles(0, 42);
        p.chunk_done(0);
        let mut reg = Registry::new();
        p.report().publish(&mut reg);
        assert_eq!(reg.find_gauge("prof.cycles.parse"), Some(42.0));
        assert_eq!(reg.find_gauge("prof.chunks"), Some(1.0));
        assert_eq!(reg.find_gauge("prof.llc_resident_dma_frac"), Some(1.0));
    }
}
