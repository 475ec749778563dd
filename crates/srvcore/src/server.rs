//! The server shell both stacks run.
//!
//! Atlas and the kernel-stack model differ in where TX bytes come from
//! and in what that costs (DESIGN §5.3). Everything else about a
//! server is this shell, once: building the hardware models, the RX
//! frame loop, request intake, the TCB-timer loop, the TX-drain tail,
//! the parked-connection wake loop, the shared terms of `poll_at`, and
//! the shared part of the observability readouts. A stack plugs in as
//! a [`Stack`]: its own state, plus hooks the shell calls at fixed
//! points. Every hook receives the whole [`Server`], so a stack reads
//! the shell's parts (front end, NIC, cores, registry) directly.

use crate::control::ServerControl;
use crate::front::{Answer, Front, FrontConfig, Rx, ServedWork};
use crate::overload::{AdmissionConfig, ResourceSnapshot, RETRY_AFTER};
use crate::tier::TierIds;
use dcn_faults::{FaultConfig, FaultCounts};
use dcn_mem::{
    CoreSet, CostParams, Fidelity, HostMem, LlcConfig, MemSnapshot, MemSystem, PhysAlloc,
    PhysRegion,
};
use dcn_netdev::{Nic, NicConfig, SentBurst, WireFrame};
use dcn_nvme::{FirmwareParams, NvmeConfig, NvmeDevice};
use dcn_obs::{CounterId, Prof, ProfReport, ProfStage, Registry, Tracer};
use dcn_packet::{Ipv4Addr, MacAddr};
use dcn_simcore::{earliest, Nanos, SimRng};
use dcn_store::{Catalog, CatalogBacking};
use dcn_tcpstack::{Endpoint, TcbEvent};
use dcn_tier::{HotChunkCache, TierConfig, TierEngine};
use std::collections::BTreeSet;

/// Where a lone server listens: 10.0.0.1:80. A cluster numbers its
/// servers on from here (server *i* at 10.0.0.(*i*+1)).
pub const SERVER_ENDPOINT: Endpoint = Endpoint {
    mac: MacAddr::from_host_id(1),
    ip: Ipv4Addr::new(10, 0, 0, 1),
    port: 80,
};

/// Slots per submission/completion queue of every NVMe device a
/// server builds; the stacks' SQ-occupancy readings divide by it.
pub const NVME_QUEUE_DEPTH: u16 = 1024;

/// What the shell builds a server from, read off a stack's config,
/// plus the per-stack constants of the build.
pub struct Shell {
    pub cores: usize,
    pub front: FrontConfig,
    pub nic: NicConfig,
    pub firmware: FirmwareParams,
    pub llc: LlcConfig,
    pub costs: CostParams,
    pub fidelity: Fidelity,
    pub admission: AdmissionConfig,
    /// Do the per-core I/O tuners tune?
    pub autotune: bool,
    /// The tuners' starting window (their fixed one when untuned).
    pub window: u64,
    pub profile: bool,
    pub tier: Option<TierConfig>,
    pub tier_cache: bool,
    /// Names of the front end's per-core counters: refused SYNs, 503s
    /// and 431s.
    pub front_metrics: [&'static str; 3],
    /// Names of the per-core buffer-wait counters: empty waits and
    /// futile wakes.
    pub wait_metrics: [&'static str; 2],
    /// Do the cores busy-poll (charge idle time as busy)?
    pub polls: bool,
    /// I/O queue pairs per NVMe device.
    pub nvme_qpairs: u16,
    /// CPU cycles of one request's userspace work.
    pub request_cycles: u64,
    /// Seed salts of the front end's ISS draws and of the I/O tuners.
    pub front_salt: u64,
    pub ctl_salt: u64,
}

/// One stack's TX data source and its costs: its state, plus the hooks
/// the shell calls. Every behavioural difference between the stacks is
/// one of these hooks or a [`Shell`] constant.
pub trait Stack: Sized {
    type Config;
    /// The stack's per-connection state, next to the front end's.
    type Conn: Default;

    /// The shell's build inputs for `cfg`.
    fn shell(cfg: &Self::Config) -> Shell;
    /// Build the stack's own state: take the NVMe devices, allocate its
    /// memory (before the shell's RX slots) and register its metrics
    /// (before the shell's tier and front-end families).
    fn build(
        cfg: &Self::Config,
        catalog: &Catalog,
        disks: Vec<NvmeDevice>,
        phys: &mut PhysAlloc,
        reg: &mut Registry,
    ) -> Self;
    /// Descriptive label for reports.
    fn label(s: &Server<Self>) -> String;

    /// One core's resources, as the admission policy sees them.
    fn snapshot(s: &Server<Self>, core: usize) -> ResourceSnapshot;
    /// Should requests arriving now on `core` be answered 503?
    fn shedding(s: &mut Server<Self>, core: usize) -> bool;
    /// Queue one answered request on `slot`; its request work ends at
    /// `done`.
    fn queue_response(s: &mut Server<Self>, slot: usize, answer: Answer, done: Nanos);
    /// The peer acknowledged the stream up to `off`.
    fn on_acked(s: &mut Server<Self>, now: Nanos, slot: usize, off: u64);
    /// The TCB asks for `[offset, offset + len)` again.
    fn on_retransmit(s: &mut Server<Self>, now: Nanos, slot: usize, offset: u64, len: u64);
    /// After a batch of TCB events on `slot`: move data toward the wire.
    fn after_events(s: &mut Server<Self>, now: Nanos, slot: usize);
    /// Service a connection parked by [`Server::park`], and re-index
    /// its timer.
    fn wake(s: &mut Server<Self>, now: Nanos, slot: usize);
    /// The stack's own work at a wake-up: storage completions, retries,
    /// sweeps, tier service.
    fn advance_io(s: &mut Server<Self>, now: Nanos);
    /// The stack's own next service instant.
    fn next_io_at(s: &Server<Self>) -> Option<Nanos>;
    /// Refresh the stack's gauges (called between the NIC's and the
    /// memory system's, which fixes where lazily registered series
    /// land in the export).
    fn publish(s: &mut Server<Self>);
    /// The stack's served work, over the front end's share.
    fn stack_served(s: &Server<Self>, front: ServedWork) -> ServedWork;
    /// Device and stack fault counts (the shell adds RTOs).
    fn stack_faults(s: &Server<Self>) -> FaultCounts;
    /// Arm the seeded device fault injectors.
    fn inject_faults(s: &mut Server<Self>, f: &FaultConfig, seed: u64);
    /// Host pages of the memory the stack holds right now: the only
    /// stack memory whose bytes may still be read.
    fn held_pages(s: &Server<Self>) -> usize;

    /// A new connection was admitted into `slot`.
    fn on_accept(_s: &mut Server<Self>, _now: Nanos, _slot: usize) {}
    /// A wire event (RX frame or TCB timer) is being serviced at `now`.
    fn on_wire_event(_s: &mut Server<Self>, _now: Nanos) {}
    /// `answers` were just parsed off `slot`.
    fn note_requests(_s: &mut Server<Self>, _now: Nanos, _slot: usize, _answers: &[Answer]) {}
    /// After the RX frames, before the TX drain.
    fn before_rx_drain(_s: &mut Server<Self>) {}
    /// The NIC just sent `bursts`: collect its TX completions (which
    /// carry no buffer tokens unless the stack gave them some).
    fn on_tx_drained(s: &mut Server<Self>, _now: Nanos, _bursts: &[SentBurst]) {
        for ring in &mut s.nic.tx_rings {
            let _ = ring.txsync_collect();
        }
    }
    /// DMA buffers neither free nor legitimately held.
    fn leaked_buffers(_s: &Server<Self>) -> i64 {
        0
    }
    /// DMA buffer pools as (free, capacity), for a stack that has them.
    fn pool(_s: &Server<Self>) -> Option<(u32, u32)> {
        None
    }
    /// The chunk-lifecycle tracer, for a stack that keeps one.
    fn tracer(_s: &Server<Self>) -> Option<&Tracer> {
        None
    }
}

/// Host-memory pages of a server, for the live-bytes audit: a server
/// drops the pages of memory it recycles, so `resident` never exceeds
/// `held`. A modeled run writes no bytes, so none are resident.
#[derive(Clone, Copy, Debug)]
pub struct HostPages {
    /// Pages holding bytes now.
    pub resident: usize,
    /// Pages of the memory still held: the stack's held buffers, the
    /// RX slots and the DMA-cache slots.
    pub held: usize,
}

/// A server: the shell's parts plus one stack's state.
pub struct Server<S: Stack> {
    pub cfg: S::Config,
    pub mem: MemSystem,
    pub host: HostMem,
    pub nic: Nic,
    pub cores: CoreSet,
    pub catalog: Catalog,
    pub phys: PhysAlloc,
    /// The connection front end: flow table, TCB timers,
    /// admission/accept, RX demux, request classifier.
    pub front: Front<S::Conn>,
    /// Per-core control plane: admission latch, degradation ladder,
    /// live-connection count, I/O tuner.
    pub ctl: ServerControl,
    /// Unified dcn-obs registry: every subsystem publishes here.
    pub reg: Registry,
    /// Per-stage cycle/DRAM profiler, shared with the CoreSet and the
    /// MemSystem; a no-op unless the config asks for it.
    pub prof: Prof,
    /// Connections parked on an empty buffer pool; each is
    /// re-serviced by [`Server::wake_waiters`].
    waiters: Waiters,
    /// Tiering engine (`None` unless the config sets a tier).
    pub tier: Option<TierEngine>,
    /// `tier.*` metric handles (present with a tier or a DMA cache).
    pub tier_ids: Option<TierIds>,
    /// Hot-chunk DMA cache index and its slot memory (`None` unless
    /// the config sets one).
    pub cache: Option<HotChunkCache>,
    pub cache_slots: Vec<PhysRegion>,
    /// CPU cycles of one request's userspace work.
    request_cycles: u64,
    pub stack: S,
}

impl<S: Stack> Server<S> {
    /// Build the server: the memory system, cores and profiler, one
    /// NVMe device per catalog disk, the stack's own state, the RX
    /// slots, the tier engine and DMA cache, the front end, the NIC and
    /// the control plane.
    #[must_use]
    pub fn new(cfg: S::Config, catalog: Catalog, seed: u64) -> Self {
        let sh = S::shell(&cfg);
        let mut phys = PhysAlloc::new();
        let mut mem = MemSystem::new(sh.llc, sh.costs, Nanos::from_millis(1));
        let mut cores = CoreSet::new(sh.cores, &sh.costs, Nanos::from_millis(1), sh.polls);
        let prof = Prof::new(sh.profile, sh.cores);
        if let Some(p) = prof.handle() {
            cores.set_profiler(p.clone());
            mem.set_profiler(p.clone());
        }
        let nvme_cfg = NvmeConfig {
            num_qpairs: sh.nvme_qpairs,
            queue_depth: NVME_QUEUE_DEPTH,
            firmware: sh.firmware,
            fidelity: sh.fidelity,
        };
        let disks = (0..catalog.n_disks())
            .map(|d| {
                NvmeDevice::new(
                    nvme_cfg,
                    Box::new(CatalogBacking::new(&catalog, d)),
                    seed ^ (d as u64) << 8,
                )
            })
            .collect();
        let mut reg = Registry::new();
        let stack = S::build(&cfg, &catalog, disks, &mut phys, &mut reg);
        let rx_slots = (0..sh.cores).map(|_| phys.alloc(2048)).collect();
        let tier = sh.tier.map(|tc| TierEngine::new(tc, &catalog, seed));
        let cache = sh.tier_cache.then(HotChunkCache::default);
        let cache_slots = cache
            .as_ref()
            .map(|c| {
                (0..c.n_slots())
                    .map(|_| phys.alloc(c.slot_bytes()))
                    .collect()
            })
            .unwrap_or_default();
        let waiters = Waiters::register(&mut reg, sh.wait_metrics, sh.cores);
        let tier_ids =
            (tier.is_some() || cache.is_some()).then(|| TierIds::register(&mut reg, sh.cores));
        // A modeled run charges encryption without sealing bytes, so
        // only a full-fidelity TLS server needs record ciphers.
        let seals = sh.front.encrypted && sh.fidelity == Fidelity::Full;
        let front = Front::new(
            sh.front,
            seals,
            &mut reg,
            sh.front_metrics,
            SimRng::new(seed ^ sh.front_salt),
            rx_slots,
            prof.clone(),
        );
        Server {
            nic: Nic::new(NicConfig {
                rings: sh.cores,
                fidelity: sh.fidelity,
                ..sh.nic
            }),
            ctl: ServerControl::new(
                sh.admission,
                sh.autotune,
                sh.window,
                seed ^ sh.ctl_salt,
                sh.cores,
            ),
            waiters,
            cfg,
            mem,
            host: HostMem::new(),
            cores,
            catalog,
            phys,
            front,
            reg,
            prof,
            tier,
            tier_ids,
            cache,
            cache_slots,
            request_cycles: sh.request_cycles,
            stack,
        }
    }

    /// NIC TX DMA reads (payload leaving over the wire) attribute to
    /// the TX-completion stage; the stack then collects completions.
    fn tx_drain(&mut self, now: Nanos) -> Vec<SentBurst> {
        self.prof.stage(0, ProfStage::TxComplete);
        let bursts = self.nic.tx_drain_all(now, &mut self.mem, &self.host);
        S::on_tx_drained(self, now, &bursts);
        bursts
    }

    fn process_conn_events(&mut self, now: Nanos, slot: usize) {
        for ev in self.front.slots[slot].tcb.take_events() {
            match ev {
                TcbEvent::Data(bytes) => self.on_request_bytes(now, slot, &bytes),
                TcbEvent::AckedTo(off) => S::on_acked(self, now, slot, off),
                TcbEvent::NeedRetransmit { offset, len } => {
                    S::on_retransmit(self, now, slot, offset, len);
                }
                _ => {}
            }
        }
        S::after_events(self, now, slot);
        self.front.sync_timer(slot);
    }

    /// Request intake: parse, answer (503 while the stack sheds),
    /// charge each request's work to the parse stage, classify it for
    /// the tier engine, and hand it to the stack.
    fn on_request_bytes(&mut self, now: Nanos, slot: usize, bytes: &[u8]) {
        let core = self.front.slots[slot].core;
        let shedding = S::shedding(self, core);
        let mut answers = self.front.parse_requests(
            slot,
            bytes,
            shedding,
            RETRY_AFTER,
            &self.catalog,
            &mut self.reg,
        );
        S::note_requests(self, now, slot, &answers);
        for (info, file) in answers.drain(..) {
            self.prof.stage(core, ProfStage::Parse);
            let done = self.cores.run_on(core, now, self.request_cycles);
            if let (Some(f), Some(tier)) = (file, self.tier.as_mut()) {
                let ids = self.tier_ids.as_ref().expect("tier ids registered");
                ids.note_request(&mut self.reg, tier, core, f);
            }
            S::queue_response(self, slot, (info, file), done);
        }
        self.front.recycle(answers);
    }

    /// Re-service every parked connection, core by core. A connection
    /// still short of buffers parks itself again: a futile wake.
    pub fn wake_waiters(&mut self, now: Nanos) {
        for core in 0..self.waiters.parked.len() {
            for slot in std::mem::take(&mut self.waiters.parked[core]) {
                S::wake(self, now, slot);
                if self.waiters.parked[core].contains(&slot) {
                    self.reg.inc(self.waiters.futile_wakes[core]);
                }
            }
        }
    }

    /// Park `slot` on `core`'s waiter list: its allocation came up
    /// empty. The first park of a wait episode counts one empty wait.
    pub fn park(&mut self, core: usize, slot: usize) {
        let w = &mut self.waiters;
        w.parked[core].insert(slot);
        if w.waiting.len() <= slot {
            w.waiting.resize(slot + 1, false);
        }
        if !std::mem::replace(&mut w.waiting[slot], true) {
            self.reg.inc(w.empty_waits[core]);
        }
    }

    /// `slot` issued its fetch: its wait episode, if any, is over.
    pub fn end_wait(&mut self, slot: usize) {
        if let Some(w) = self.waiters.waiting.get_mut(slot) {
            *w = false;
        }
    }

    /// `slot` closed: take it off `core`'s waiter list and end its
    /// wait episode.
    pub fn unpark(&mut self, core: usize, slot: usize) {
        self.waiters.parked[core].remove(&slot);
        self.end_wait(slot);
    }

    /// DMA buffers currently free across pools (0 without pools).
    #[must_use]
    pub fn free_buffers(&self) -> u32 {
        S::pool(self).map_or(0, |(free, _)| free)
    }

    /// Total DMA buffer-pool capacity (0 without pools).
    #[must_use]
    pub fn pool_capacity(&self) -> u32 {
        S::pool(self).map_or(0, |(_, cap)| cap)
    }
}

/// Connections parked on an empty buffer pool, per core, and how they
/// wait. A wait episode starts at a connection's first park and ends
/// when it issues its fetch or closes; `empty_waits` counts episodes
/// and `futile_wakes` the wakes that re-parked.
struct Waiters {
    parked: Vec<BTreeSet<usize>>,
    /// Per slot: inside a wait episode?
    waiting: Vec<bool>,
    empty_waits: Vec<CounterId>,
    futile_wakes: Vec<CounterId>,
}

impl Waiters {
    fn register(reg: &mut Registry, [empty, futile]: [&str; 2], cores: usize) -> Self {
        Waiters {
            parked: vec![BTreeSet::new(); cores],
            waiting: Vec::new(),
            empty_waits: reg.counters_per_core(empty, cores),
            futile_wakes: reg.counters_per_core(futile, cores),
        }
    }
}

/// What the harness and every figure binary drive a server through.
pub trait VideoServer {
    /// Frames arrive from the wire; returns bursts that left the NIC.
    fn on_wire_rx(&mut self, now: Nanos, frames: Vec<WireFrame>) -> Vec<SentBurst>;
    /// Next instant internal state needs service.
    fn poll_at(&self) -> Option<Nanos>;
    /// Service internal state (disk completions, timers, worker
    /// threads); returns bursts that left the NIC.
    fn advance(&mut self, now: Nanos) -> Vec<SentBurst>;
    /// DRAM counters over a window.
    fn mem_snapshot(&self, warmup: Nanos, end: Nanos) -> MemSnapshot;
    /// Total CPU utilization in percent over a window.
    fn cpu_pct(&self, warmup: Nanos, end: Nanos) -> f64;
    /// Descriptive label for reports.
    fn label(&self) -> String;
    /// Publish sample-point gauges into the server's registry.
    fn publish_obs(&mut self);
    /// The server's unified metrics registry.
    fn registry(&self) -> Option<&Registry>;
    /// Mutable registry access (the testbed publishes link/client
    /// fault counters into a lone server's registry so the metrics
    /// CSV carries them).
    fn registry_mut(&mut self) -> Option<&mut Registry>;
    /// The chunk-lifecycle tracer (Atlas only).
    fn tracer(&self) -> Option<&Tracer>;
    /// Stage-profiler snapshot (servers built with `profile: true`).
    fn prof_report(&self) -> Option<ProfReport>;
    /// Arm the server-side seeded fault injectors (NVMe device and
    /// submission-queue faults). Link and client faults are applied
    /// by the testbed itself.
    fn inject_faults(&mut self, f: &FaultConfig, seed: u64);
    /// Buffer-pool leak audit (Atlas only): DMA buffers neither free
    /// nor legitimately held. 0 for servers without a DMA pool.
    fn leaked_buffers(&self) -> i64;
    /// Instantaneous DMA buffer-pool state as (free, capacity). None
    /// for servers without a pool — the testbed stops sampling.
    fn pool_snapshot(&self) -> Option<(u64, u64)>;
    /// The `tier.*` handles, registered iff the server was built with
    /// a tier engine (or, on Atlas, the hot-chunk cache).
    fn tier_ids(&self) -> Option<&TierIds>;
    /// What the server's own fault handling counted so far.
    fn fault_counts(&self) -> FaultCounts;
    /// Whether admission control is shedding load right now: a core's
    /// resource latch held, its degradation ladder walked, or its
    /// connection cap reached. The cluster dispatcher treats a
    /// shedding server like `Draining`.
    fn is_shedding(&self) -> bool;
    /// The work served so far, read through the counter handles.
    fn served(&self) -> ServedWork;
    /// Connections holding a record cipher: only a server that seals
    /// bytes builds them.
    fn record_ciphers(&self) -> usize;
    /// Materialized host pages against the pages the server holds.
    fn host_pages(&self) -> HostPages;
}

impl<S: Stack> VideoServer for Server<S> {
    /// Runs each frame through the front end and the stack, then drains
    /// the NIC.
    fn on_wire_rx(&mut self, now: Nanos, frames: Vec<WireFrame>) -> Vec<SentBurst> {
        for frame in frames {
            let (ctl, nic, mem, cores) = (&self.ctl, &mut self.nic, &mut self.mem, &mut self.cores);
            let Some(rx) = self.front.rx(now, frame, ctl, nic, mem, cores) else {
                continue;
            };
            S::on_wire_event(self, now);
            match rx {
                Rx::Syn(syn) => {
                    let snap = S::snapshot(self, syn.core);
                    let (ctl, nic, reg) = (&mut self.ctl, &mut self.nic, &mut self.reg);
                    if let Some(slot) = self.front.accept(now, syn, snap, ctl, nic, reg) {
                        S::on_accept(self, now, slot);
                    }
                }
                Rx::Segment { slot, done } => self.process_conn_events(done, slot),
                Rx::Stray => {}
            }
        }
        S::before_rx_drain(self);
        self.tx_drain(now)
    }

    /// The stack's own wake-up, a TCB timer, the NIC freeing a port,
    /// or the tier engine.
    fn poll_at(&self) -> Option<Nanos> {
        let tier = self
            .tier
            .as_ref()
            .map(TierEngine::poll_at)
            .filter(|&at| at != Nanos::MAX);
        earliest(
            earliest(S::next_io_at(self), self.front.next_timer()),
            earliest(self.nic.poll_at(), tier),
        )
    }

    /// The stack's storage and tier work, then due TCB timers, then
    /// the NIC.
    fn advance(&mut self, now: Nanos) -> Vec<SentBurst> {
        // Storage-completion DMA writes (and any DDIO-cap evictions
        // they force) attribute to the fetch stage.
        self.prof.stage(0, ProfStage::Fetch);
        S::advance_io(self, now);
        for slot in self.front.due_timers(now) {
            S::on_wire_event(self, now);
            self.front.slots[slot].tcb.on_timer(now);
            self.process_conn_events(now, slot);
        }
        self.tx_drain(now)
    }

    fn mem_snapshot(&self, warmup: Nanos, end: Nanos) -> MemSnapshot {
        self.mem.counters.snapshot(warmup, end)
    }

    fn cpu_pct(&self, warmup: Nanos, end: Nanos) -> f64 {
        self.cores.utilization_pct(warmup, end)
    }

    fn label(&self) -> String {
        S::label(self)
    }

    /// Called at sample and report points, never on the per-chunk hot
    /// path.
    fn publish_obs(&mut self) {
        self.front.publish_tcb_metrics(&mut self.reg);
        self.nic.publish_metrics(&mut self.reg);
        S::publish(self);
        self.mem.counters.publish_metrics(&mut self.reg);
        if let Some(ids) = &self.tier_ids {
            ids.publish(&mut self.reg, self.tier.as_ref(), self.cache.as_ref());
        }
        self.prof.publish(&mut self.reg);
    }

    fn registry(&self) -> Option<&Registry> {
        Some(&self.reg)
    }

    fn registry_mut(&mut self) -> Option<&mut Registry> {
        Some(&mut self.reg)
    }

    fn tracer(&self) -> Option<&Tracer> {
        S::tracer(self)
    }

    fn prof_report(&self) -> Option<ProfReport> {
        self.prof.report()
    }

    fn inject_faults(&mut self, f: &FaultConfig, seed: u64) {
        S::inject_faults(self, f, seed);
    }

    fn leaked_buffers(&self) -> i64 {
        S::leaked_buffers(self)
    }

    fn pool_snapshot(&self) -> Option<(u64, u64)> {
        S::pool(self).map(|(free, cap)| (u64::from(free), u64::from(cap)))
    }

    fn tier_ids(&self) -> Option<&TierIds> {
        self.tier_ids.as_ref()
    }

    fn fault_counts(&self) -> FaultCounts {
        FaultCounts {
            rto_fired: self.front.rto_fired(),
            ..S::stack_faults(self)
        }
    }

    fn is_shedding(&self) -> bool {
        self.ctl.is_shedding()
    }

    fn served(&self) -> ServedWork {
        let w = &self.waiters;
        let front = ServedWork {
            empty_waits: self.reg.counter_sum(&w.empty_waits),
            futile_wakes: self.reg.counter_sum(&w.futile_wakes),
            ..self.front.served(&self.reg)
        };
        S::stack_served(self, front)
    }

    fn record_ciphers(&self) -> usize {
        let slots = &self.front.slots;
        slots.iter().filter(|s| s.cipher.is_some()).count()
    }

    fn host_pages(&self) -> HostPages {
        let slots = self.front.rx_slots().iter().chain(&self.cache_slots);
        let shell: usize = slots.map(|r| r.chunks().count()).sum();
        HostPages {
            resident: self.host.resident_pages(),
            held: S::held_pages(self) + shell,
        }
    }
}
