//! The conventional-stack server: nginx + FreeBSD (stock or
//! Netflix-optimized) over the shared hardware models.

use crate::conn::{KConn, StagedResponse, CT_REGION_LEN};
use dcn_crypto::RECORD_PAYLOAD_MAX;
use dcn_httpd::response_header;
use dcn_mem::{
    Agent, CoreSet, CostParams, Fidelity, HostMem, LlcConfig, MemSystem, PhysAlloc, PhysRegion,
    CHUNK_SIZE,
};
use dcn_netdev::{Nic, NicConfig, SentBurst, SgList, WireFrame};
use dcn_nvme::{FirmwareParams, NvmeCommand, NvmeConfig, NvmeDevice, NvmeStatus, Opcode, LBA_SIZE};
use dcn_obs::{CounterId, GaugeId, Prof, ProfStage, Registry, StallKind};
use dcn_simcore::{earliest, prf_bytes, Nanos, SimRng};
use dcn_srvcore::{
    AdmissionConfig, AutotuneConfig, Front, FrontConfig, ResourceSnapshot, Rx, ServedWork,
    ServerControl, TierIds,
};
use dcn_store::{BufferCache, Catalog, CatalogBacking};
use dcn_tcpstack::{Endpoint, TcbConfig, TcbEvent};
use dcn_tier::{GetTicket, Placement, TierConfig, TierEngine};
use std::collections::HashMap;

/// Which baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackVariant {
    /// Unmodified nginx/FreeBSD.
    Stock,
    /// The Netflix production stack (§2.1's optimizations).
    Netflix,
}

/// Configuration.
#[derive(Clone, Debug)]
pub struct KstackConfig {
    pub variant: StackVariant,
    /// The paper's baseline uses all 8 cores.
    pub cores: usize,
    pub encrypted: bool,
    /// Disk buffer cache capacity (the eval server has 128 GB RAM;
    /// most of it is page cache).
    pub bufcache_bytes: u64,
    /// Per-connection socket-buffer cap.
    pub sb_max: u64,
    /// Fraction of payload bytes the kernel TX path incidentally
    /// touches (mbuf/sf_buf handling, LRO merge inspection) —
    /// calibrated against Fig 11e's ~1.5× read ratio; see
    /// EXPERIMENTS.md.
    pub touch_fraction: f64,
    /// Fill granularity per disk I/O (FreeBSD MAXPHYS-style
    /// read-ahead unit).
    pub fill_bytes: u64,
    pub tcb: TcbConfig,
    pub nic: NicConfig,
    pub firmware: FirmwareParams,
    pub llc: LlcConfig,
    pub costs: CostParams,
    pub fidelity: Fidelity,
    pub server_endpoint: Endpoint,
    /// Overload policy: the same hysteretic admission watermarks the
    /// Atlas stack uses (connection cap + RST at SYN, 503 +
    /// Retry-After while the VM-pressure latch holds). The kernel
    /// stack's scarce resource is buffer-cache frames, not DMA
    /// buffers, so `pool_low_*` watches the cache's allocatable
    /// fraction; the slow-client sweeps are Atlas-only (socket
    /// buffers, not DMA buffers, absorb slow readers here).
    pub admission: AdmissionConfig,
    /// Install the per-stage cycle/DRAM profiler. Off by default: no
    /// handle is installed anywhere, so sweeps pay one `None` check.
    /// The run is bit-identical either way (purely observational).
    pub profile: bool,
    /// Tiered catalog: objects outside the hot tier are fetched from
    /// a simulated cold object store over the network instead of the
    /// local NVMe namespace. `None` keeps the paper's all-hot flat
    /// namespace. The kernel stack gets no extra DMA cache knob — its
    /// buffer cache already absorbs repeat reads of promoted/cold
    /// objects.
    pub tier: Option<TierConfig>,
}

impl KstackConfig {
    #[must_use]
    pub fn netflix() -> Self {
        KstackConfig {
            variant: StackVariant::Netflix,
            cores: 8,
            encrypted: false,
            bufcache_bytes: 96 << 30,
            sb_max: 2 << 20,
            touch_fraction: 0.45,
            fill_bytes: 128 * 1024,
            tcb: TcbConfig::default(),
            nic: NicConfig {
                rings: 8,
                ..NicConfig::default()
            },
            firmware: FirmwareParams::p3700(),
            llc: LlcConfig::xeon_e5_2667v3(),
            costs: CostParams::default(),
            fidelity: Fidelity::Full,
            server_endpoint: Endpoint {
                mac: dcn_packet::MacAddr::from_host_id(1),
                ip: dcn_packet::Ipv4Addr::new(10, 0, 0, 1),
                port: 80,
            },
            admission: AdmissionConfig::default(),
            profile: false,
            tier: None,
        }
    }

    #[must_use]
    pub fn stock() -> Self {
        KstackConfig {
            variant: StackVariant::Stock,
            ..Self::netflix()
        }
    }
}

/// A disk fill in flight.
struct Fill {
    conn_slot: usize,
    /// The response being filled, at the fill's file offset.
    st: StagedResponse,
    len: u64,
    /// Cache page held by `frames[0]`; `frames[i]` holds page
    /// `first_page + i`.
    first_page: u64,
    frames: Vec<PhysRegion>,
    issued_at: Nanos,
    /// How many times this fill has been (re)issued; device read
    /// errors retry up to [`MAX_FILL_ATTEMPTS`].
    attempts: u32,
}

/// Bounded retry for fills that complete with a device error — the
/// kernel-stack analogue of the buffered-I/O EIO retry path.
const MAX_FILL_ATTEMPTS: u32 = 4;

/// Pre-registered counter handles (per-core), resolved once at
/// construction so the hot path is a plain indexed add.
struct KstackIds {
    responses: Vec<CounterId>,
    disk_read_bytes: Vec<CounterId>,
    fill_retries: Vec<CounterId>,
    /// Staging passes parked on buffer-cache VM pressure.
    empty_waits: Vec<CounterId>,
    /// Sample-point gauges, pre-registered so timed metric sampling
    /// does no per-sample name scans (`find_*`/`sum_prefixed` stay
    /// reserved for end-of-run export).
    bufcache_hit_ratio: GaugeId,
    nvme_read_errors: GaugeId,
    nvme_latency_spikes: GaugeId,
}

impl KstackIds {
    fn register(reg: &mut Registry, cores: usize) -> Self {
        KstackIds {
            responses: reg.counters_per_core("kstack.responses", cores),
            disk_read_bytes: reg.counters_per_core("kstack.disk_read_bytes", cores),
            fill_retries: reg.counters_per_core("kstack.fill_retries", cores),
            empty_waits: reg.counters_per_core("kstack.bufcache.empty_waits", cores),
            bufcache_hit_ratio: reg.gauge("kstack.bufcache_hit_ratio"),
            nvme_read_errors: reg.gauge("faults.nvme_read_errors"),
            nvme_latency_spikes: reg.gauge("faults.nvme_latency_spikes"),
        }
    }
}

/// The server.
pub struct KstackServer {
    pub cfg: KstackConfig,
    pub mem: MemSystem,
    pub host: HostMem,
    pub nic: Nic,
    pub cores: CoreSet,
    pub catalog: Catalog,
    pub bufcache: BufferCache,
    disks: Vec<NvmeDevice>,
    /// The connection front end shared with Atlas: flow table, TCB
    /// timers, admission/accept, RX demux, request classifier.
    front: Front<KConn>,
    fills: HashMap<u16, Fill>,
    /// Tiering engine (`cfg.tier`); owns the cold store and the
    /// promotion/demotion policy.
    tier: Option<TierEngine>,
    /// `tier.*` metric handles (`None` unless `cfg.tier`).
    pub tier_ids: Option<TierIds>,
    /// Cold-store fills in flight, keyed by cold-store token (its own
    /// counter — NVMe cids are u16 and must stay a disjoint space).
    cold_fills: HashMap<u64, Fill>,
    next_cold: u64,
    /// Reusable cold-completion drain scratch.
    cold_scratch: Vec<GetTicket>,
    /// Ciphertext socket-buffer frame pool (kTLS output).
    ct_pool: Vec<PhysRegion>,
    /// Stock only: is this worker's event loop blocked in a
    /// synchronous sendfile I/O? (One outstanding fill per worker.)
    sync_busy: Vec<bool>,
    /// Stock only: connections whose staging is waiting for the
    /// worker to unblock.
    stage_waiting: Vec<std::collections::BTreeSet<usize>>,
    next_cid: u16,
    /// Per-core control-plane state (admission latch, I/O tuner,
    /// live-connection count).
    ctl: ServerControl,
    /// Connections whose staging hit buffer-cache VM pressure, parked
    /// until ACKs unpin pages.
    alloc_waiting: Vec<std::collections::BTreeSet<usize>>,
    /// Reusable CQ-drain scratch for `advance`.
    cq_scratch: Vec<dcn_nvme::CompletionEntry>,
    /// Reusable plaintext→ciphertext staging scratch for the
    /// full-fidelity batch seal (one fill's records at a time).
    crypt_scratch: Vec<u8>,
    /// Reusable per-fill record-tag scratch (full fidelity).
    tag_scratch: Vec<[u8; 16]>,
    /// Reusable per-record plaintext source-region scratch.
    src_scratch: Vec<PhysRegion>,
    /// Unified metrics registry (`kstack.*{core=N}`); counters are
    /// bumped on the hot path through pre-registered handles.
    pub reg: Registry,
    ids: KstackIds,
    /// Per-stage cycle/DRAM profiler; a no-op unless `cfg.profile`.
    prof: Prof,
    phys: PhysAlloc,
}

impl KstackServer {
    #[must_use]
    pub fn new(cfg: KstackConfig, catalog: Catalog, seed: u64) -> Self {
        let mut phys = PhysAlloc::new();
        let mut mem = MemSystem::new(cfg.llc, cfg.costs, Nanos::from_millis(1));
        let nvme_cfg = NvmeConfig {
            num_qpairs: 1, // the in-kernel stack uses shared kernel queues
            firmware: cfg.firmware,
            fidelity: cfg.fidelity,
            ..NvmeConfig::default()
        };
        let disks: Vec<NvmeDevice> = (0..catalog.n_disks())
            .map(|d| {
                NvmeDevice::new(
                    nvme_cfg,
                    Box::new(CatalogBacking::new(&catalog, d)),
                    seed ^ (d as u64) << 8,
                )
            })
            .collect();
        // Cap simulated cache frames: the model only needs enough
        // frames to exceed the LLC by a wide margin; beyond that more
        // DRAM-resident frames change nothing but memory usage of the
        // simulator itself.
        let cache_bytes = cfg.bufcache_bytes.min(6 << 30);
        let bufcache = BufferCache::new(cache_bytes, &catalog, &mut phys);
        let ct_pool = (0..4096).map(|_| phys.alloc(CT_REGION_LEN)).collect();
        let rx_slots = (0..cfg.cores).map(|_| phys.alloc(2048)).collect();
        let mut reg = Registry::new();
        let ids = KstackIds::register(&mut reg, cfg.cores);
        let tier = cfg.tier.map(|tc| TierEngine::new(tc, &catalog, seed));
        let tier_ids = tier
            .is_some()
            .then(|| TierIds::register(&mut reg, cfg.cores));
        let mut cores = CoreSet::new(cfg.cores, &cfg.costs, Nanos::from_millis(1), false);
        let prof = Prof::new(cfg.profile, cfg.cores);
        if let Some(p) = prof.handle() {
            cores.set_profiler(p.clone());
            mem.set_profiler(p.clone());
        }
        // Per-ACK kernel RX cost; Netflix's RSS-assisted LRO saves a
        // chunk of it (§2.1.3).
        let mut rx_ack_cycles = cfg.costs.kstack_rx_ack_cycles;
        if cfg.variant == StackVariant::Netflix {
            rx_ack_cycles = (rx_ack_cycles as f64 * (1.0 - cfg.costs.lro_rx_discount)) as u64;
        }
        let front = Front::new(
            FrontConfig {
                endpoint: cfg.server_endpoint,
                tcb: cfg.tcb,
                encrypted: cfg.encrypted,
                rx_ack_cycles,
            },
            &mut reg,
            "kstack",
            SimRng::new(seed ^ 0x6B57),
            rx_slots,
            prof.clone(),
        );
        KstackServer {
            nic: Nic::new(NicConfig {
                rings: cfg.cores,
                fidelity: cfg.fidelity,
                ..cfg.nic
            }),
            cores,
            mem,
            host: HostMem::new(),
            catalog,
            bufcache,
            disks,
            front,
            fills: HashMap::new(),
            tier,
            tier_ids,
            cold_fills: HashMap::new(),
            next_cold: 0,
            cold_scratch: Vec::with_capacity(64),
            ct_pool,
            sync_busy: vec![false; cfg.cores],
            stage_waiting: vec![std::collections::BTreeSet::new(); cfg.cores],
            next_cid: 0,
            ctl: ServerControl::new(
                cfg.admission,
                // The kernel stack has no per-connection fetch window
                // for a tuner to steer (read-ahead is a global kernel
                // heuristic), so its tuners stay at the defaults, unfed.
                AutotuneConfig::default(),
                cfg.fill_bytes,
                seed ^ 0x6B70,
                cfg.cores,
            ),
            alloc_waiting: vec![std::collections::BTreeSet::new(); cfg.cores],
            cq_scratch: Vec::new(),
            crypt_scratch: Vec::new(),
            tag_scratch: Vec::new(),
            src_scratch: Vec::new(),
            reg,
            ids,
            prof,
            cfg,
            phys,
        }
    }

    /// Snapshot of the stage profiler, if this server was built with
    /// `cfg.profile`.
    #[must_use]
    pub fn prof_report(&self) -> Option<dcn_obs::ProfReport> {
        self.prof.report()
    }

    /// Served work so far, read through the counter handles. The
    /// kernel stack counts bytes, not disk commands, and has no
    /// slow-reader ladder or HTTP payload counter; those stay 0.
    #[must_use]
    pub fn served(&self) -> ServedWork {
        let (reg, ids) = (&self.reg, &self.ids);
        ServedWork {
            responses: reg.counter_sum(&ids.responses),
            disk_read_bytes: reg.counter_sum(&ids.disk_read_bytes),
            fetch_retries: reg.counter_sum(&ids.fill_retries),
            empty_waits: reg.counter_sum(&ids.empty_waits),
            ..self.front.served(reg)
        }
    }

    /// Publish sample-point gauges (TCP, NIC, buffer cache) into the
    /// registry. Called at report/sample time, never on the hot path.
    pub fn publish_obs(&mut self) {
        self.front.publish_tcb_metrics(&mut self.reg);
        self.nic.publish_metrics(&mut self.reg);
        self.mem.counters.publish_metrics(&mut self.reg);
        self.reg
            .set(self.ids.bufcache_hit_ratio, self.bufcache.hit_ratio());
        let faults = self.fault_counts();
        self.reg
            .set(self.ids.nvme_read_errors, faults.nvme_read_errors as f64);
        self.reg.set(
            self.ids.nvme_latency_spikes,
            faults.nvme_latency_spikes as f64,
        );
        if let Some(ids) = &self.tier_ids {
            ids.publish(&mut self.reg, self.tier.as_ref(), None);
        }
        self.prof.publish(&mut self.reg);
    }

    /// Device faults and TCP RTOs fired so far. The kernel stack has
    /// no diskmap SQ and retries fills rather than aborting
    /// connections, so those counts stay 0.
    #[must_use]
    pub fn fault_counts(&self) -> dcn_faults::FaultCounts {
        let (nvme_read_errors, nvme_latency_spikes) = NvmeDevice::fault_totals(&self.disks);
        dcn_faults::FaultCounts {
            nvme_read_errors,
            nvme_latency_spikes,
            rto_fired: self.front.rto_fired(),
            ..dcn_faults::FaultCounts::default()
        }
    }

    /// The tiering engine, when `cfg.tier` is set.
    #[must_use]
    pub fn tier(&self) -> Option<&TierEngine> {
        self.tier.as_ref()
    }

    #[must_use]
    pub fn variant_label(&self) -> String {
        format!(
            "{}{}",
            match self.cfg.variant {
                StackVariant::Stock => "Stock FreeBSD/nginx",
                StackVariant::Netflix => "Netflix",
            },
            if self.cfg.encrypted { " TLS" } else { "" }
        )
    }

    /// One core's resource observation: live connections, the buffer
    /// cache's allocatable-frame fraction (the kernel stack's scarce
    /// pool), and this core's share of in-flight disk fills against
    /// the kernel queue depth.
    fn resource_snapshot(&self, core: usize) -> ResourceSnapshot {
        let depth = f64::from(NvmeConfig::default().queue_depth);
        let fills = self
            .fills
            .values()
            .filter(|f| self.front.slots[f.conn_slot].core == core)
            .count();
        ResourceSnapshot {
            conns: self.ctl[core].live_conns,
            pool_free_frac: self.bufcache.allocatable_frac(),
            sq_occupancy: fills as f64 / depth,
        }
    }

    /// Is any core shedding (latch held) or at its connection cap?
    #[must_use]
    pub fn is_shedding(&self) -> bool {
        self.ctl.is_shedding()
    }

    // -------------------------------------------------------------- RX

    pub fn on_wire_rx(&mut self, now: Nanos, frames: Vec<WireFrame>) -> Vec<SentBurst> {
        for frame in frames {
            let (ctl, nic, mem, cores) = (&self.ctl, &mut self.nic, &mut self.mem, &mut self.cores);
            match self.front.rx(now, frame, ctl, nic, mem, cores) {
                Some(Rx::Syn(syn)) => {
                    let snap = self.resource_snapshot(syn.core);
                    let (ctl, nic, reg) = (&mut self.ctl, &mut self.nic, &mut self.reg);
                    self.front.accept(now, syn, snap, ctl, nic, reg);
                }
                Some(Rx::Segment { slot, done }) => self.process_conn_events(done, slot),
                Some(Rx::Stray) | None => {}
            }
        }
        self.prof.stage(0, ProfStage::TxComplete);
        let bursts = self.nic.tx_drain_all(now, &mut self.mem, &self.host);
        self.collect_tx_completions();
        bursts
    }

    // ---------------------------------------------------------- events

    fn process_conn_events(&mut self, now: Nanos, slot_idx: usize) {
        let events = self.front.slots[slot_idx].tcb.take_events();
        for ev in events {
            match ev {
                TcbEvent::Data(bytes) => self.on_request_bytes(now, slot_idx, &bytes),
                TcbEvent::AckedTo(off) => {
                    let (bufcache, ct_pool) = (&mut self.bufcache, &mut self.ct_pool);
                    let mut unpinned = false;
                    self.front.slots[slot_idx].conn.release_acked(
                        off,
                        |f, p| {
                            bufcache.unpin(f, p);
                            unpinned = true;
                        },
                        |r| ct_pool.push(r),
                    );
                    if unpinned {
                        self.wake_alloc_waiters(now);
                    }
                }
                TcbEvent::NeedRetransmit { offset, len } => {
                    // Socket-buffer semantics: the data is still here.
                    let core = self.front.slots[slot_idx].core;
                    let slot = &mut self.front.slots[slot_idx];
                    if let Some(sg) = slot.conn.slice_sent(offset, len) {
                        let out = slot.tcb.send_retransmit(now, offset, sg);
                        self.nic.tx_rings[core].push(out.into_tx(0));
                    }
                }
                _ => {}
            }
        }
        self.stage(now, slot_idx);
        self.pump_tx(now, slot_idx);
        self.front.sync_timer(slot_idx);
    }

    fn on_request_bytes(&mut self, now: Nanos, slot_idx: usize, bytes: &[u8]) {
        let core = self.front.slots[slot_idx].core;
        let costs = self.cfg.costs;
        // Refresh the hysteretic latch against current resources so
        // keepalive requests on long-lived connections see the same
        // watermark state new SYNs do.
        let snap = self.resource_snapshot(core);
        let shedding = self.ctl.defer_request(core, snap);
        let mut answers = self.front.parse_requests(
            slot_idx,
            bytes,
            shedding,
            self.cfg.admission.retry_after,
            &self.catalog,
            &mut self.reg,
        );
        for (info, file) in answers.drain(..) {
            // nginx userspace work + the sendfile syscall. The response
            // is queued at `now`, not when this work completes.
            self.prof.stage(core, ProfStage::Parse);
            let _ = self.cores.run_on(
                core,
                now,
                costs.nginx_request_cycles + costs.sendfile_call_cycles,
            );
            if let (Some(f), Some(tier)) = (file, self.tier.as_mut()) {
                let ids = self.tier_ids.as_ref().expect("tier ids registered");
                ids.note_request(&mut self.reg, tier, core, f);
            }
            self.front.slots[slot_idx]
                .conn
                .answered
                .push_back((info, file));
        }
        self.front.recycle(answers);
    }

    /// Retry staging for connections parked on buffer-cache VM
    /// pressure: ACKs just unpinned pages, so frames may be
    /// allocatable again. Each parked connection gets one attempt and
    /// re-parks itself if still pressured.
    fn wake_alloc_waiters(&mut self, now: Nanos) {
        for core in 0..self.cfg.cores {
            if self.alloc_waiting[core].is_empty() {
                continue;
            }
            let waiting = std::mem::take(&mut self.alloc_waiting[core]);
            for slot_idx in waiting {
                self.stage(now, slot_idx);
                self.pump_tx(now, slot_idx);
                self.front.sync_timer(slot_idx);
            }
        }
    }

    /// sendfile staging: move body bytes from the buffer cache (or
    /// disk) into the socket buffer, up to sb_max.
    fn stage(&mut self, now: Nanos, slot_idx: usize) {
        let costs = self.cfg.costs;
        let fill_bytes = self.cfg.fill_bytes;
        let cores_n = self.cfg.cores;
        loop {
            let core = self.front.slots[slot_idx].core;
            let slot = &mut self.front.slots[slot_idx];
            // A response's header enters the socket buffer only once
            // every earlier body is in it, so pipelined responses never
            // interleave.
            if slot.conn.staging.is_empty() && slot.conn.fills_inflight == 0 {
                if let Some((info, file)) = slot.conn.answered.pop_front() {
                    let header = response_header(info, self.cfg.encrypted);
                    slot.conn.enqueue_head(header);
                    if let Some(((body_off, body_len), file)) = info.body().zip(file) {
                        slot.conn.staging.push_back(StagedResponse {
                            file,
                            body_off,
                            end: body_off + body_len,
                            next_fill: body_off,
                        });
                    }
                    continue;
                }
            }
            let Some(st) = slot.conn.staging.front().cloned() else {
                break;
            };
            if st.next_fill >= st.end {
                slot.conn.staging.pop_front();
                slot.conn.responses_completed += 1;
                self.reg.inc(self.ids.responses[core]);
                continue;
            }
            if slot.conn.sb_bytes >= self.cfg.sb_max {
                self.prof.stall(StallKind::CwndLimited);
                break; // socket buffer full: wait for ACKs
            }
            if slot.conn.fills_inflight > 0 && self.cfg.variant == StackVariant::Netflix {
                // Async sendfile pipelines one fill per connection.
                self.prof.stall(StallKind::NvmeWait);
                break;
            }
            if self.cfg.variant == StackVariant::Stock && self.sync_busy[core] {
                // Synchronous sendfile: this worker is blocked inside
                // an earlier conn's I/O; nothing else stages on this
                // core until it returns (§2.1.1).
                self.prof.stall(StallKind::NvmeWait);
                self.stage_waiting[core].insert(slot_idx);
                break;
            }
            let want = fill_bytes.min(st.end - st.next_fill);
            // Page-by-page cache lookup.
            let first_page = st.next_fill / CHUNK_SIZE;
            let last_page = (st.next_fill + want - 1) / CHUNK_SIZE;
            let mut all_hit = true;
            let mut lookup_cycles = 0;
            let mut pages = Vec::new();
            for p in first_page..=last_page {
                let (hit, cyc) = self.bufcache.lookup(st.file, p, &costs);
                lookup_cycles += cyc;
                match hit {
                    Some(r) => pages.push(r.region),
                    None => {
                        all_hit = false;
                        // Unpin what we already pinned this round.
                        for pp in first_page..p {
                            self.bufcache.unpin(st.file, pp);
                        }
                        pages.clear();
                        break;
                    }
                }
            }
            self.prof.stage(core, ProfStage::Fetch);
            let t_work = self.cores.run_on(core, now, lookup_cycles);
            if all_hit {
                // Cache hit: enqueue immediately.
                self.enqueue_body(t_work, slot_idx, st, want, first_page, pages);
                let slot = &mut self.front.slots[slot_idx];
                if let Some(front) = slot.conn.staging.front_mut() {
                    front.next_fill += want;
                }
                continue;
            }
            // Miss: allocate pages + issue the disk I/O. Allocation
            // can fail under extreme VM pressure (every page pinned
            // by socket buffers): back off until ACKs unpin pages.
            let mut frames = Vec::new();
            let mut alloc_cycles = 0;
            let mut pressured = false;
            for p in first_page..=last_page {
                match self.bufcache.try_insert(st.file, p, &costs, cores_n) {
                    Some((r, cyc)) => {
                        alloc_cycles += cyc;
                        frames.push(r.region);
                    }
                    None => {
                        pressured = true;
                        break;
                    }
                }
            }
            if pressured {
                for p in first_page..first_page + frames.len() as u64 {
                    self.bufcache.unpin(st.file, p);
                }
                self.cores.run_on(core, now, alloc_cycles);
                // Park: retried when ACKs unpin socket-buffer pages.
                self.prof.stall(StallKind::PoolEmpty);
                if self.alloc_waiting[core].insert(slot_idx) {
                    self.reg.inc(self.ids.empty_waits[core]);
                }
                break;
            }
            self.prof
                .chunk(ProfStage::Fetch, alloc_cycles + costs.kernel_io_cycles);
            let t_alloc = self
                .cores
                .run_on(core, now, alloc_cycles + costs.kernel_io_cycles);
            // Cold objects fetch from the object store over the
            // network instead of the local NVMe namespace; the frames
            // land in the same buffer cache either way, so repeat
            // reads of a cold object hit the page cache above.
            let cold = self
                .tier
                .as_ref()
                .is_some_and(|t| t.placement(st.file) == Placement::Cold);
            let fill = Fill {
                conn_slot: slot_idx,
                st,
                len: want,
                first_page,
                frames,
                issued_at: t_alloc,
                attempts: 1,
            };
            if cold {
                self.issue_cold_fill(fill);
            } else {
                self.issue_fill(fill);
            }
            let slot = &mut self.front.slots[slot_idx];
            if let Some(front) = slot.conn.staging.front_mut() {
                front.next_fill += want;
            }
            slot.conn.fills_inflight += 1;
            if self.cfg.variant == StackVariant::Stock {
                // The worker now blocks until this I/O completes.
                self.sync_busy[core] = true;
                break;
            }
        }
    }

    /// Submit `fill` as one NVMe read into its cache frames, at its
    /// `issued_at`.
    fn issue_fill(&mut self, fill: Fill) {
        let now = fill.issued_at;
        let loc = self.catalog.locate(fill.st.file, fill.st.next_fill);
        let aligned = fill.len.div_ceil(LBA_SIZE) * LBA_SIZE;
        let cid = self.next_cid;
        self.next_cid = self.next_cid.wrapping_add(1);
        // PRP list = the cache page frames.
        let mut prp: Vec<PhysRegion> = Vec::new();
        let mut remaining = aligned;
        for frame in &fill.frames {
            let n = remaining.min(CHUNK_SIZE);
            prp.push(frame.slice(0, n));
            remaining -= n;
            if remaining == 0 {
                break;
            }
        }
        let dev = &mut self.disks[loc.disk];
        let pushed = dev.qpair(0).sq_push(NvmeCommand {
            opcode: Opcode::Read,
            cid,
            nsid: loc.nsid,
            slba: loc.dev_offset / LBA_SIZE,
            nlb: (aligned / LBA_SIZE) as u32,
            prp,
        });
        assert!(pushed, "kernel NVMe queue overflow");
        dev.ring_sq_doorbell(now, 0);
        let core = self.front.slots[fill.conn_slot].core;
        self.reg.add(self.ids.disk_read_bytes[core], aligned);
        self.fills.insert(cid, fill);
    }

    /// Issue a cold-tier byte-range GET into freshly allocated buffer
    /// cache frames. Mirrors [`Self::issue_fill`] but the bytes arrive
    /// over the NIC — no SQE, no doorbell. Stock's synchronous-sendfile
    /// block applies here too: the worker would block inside a remote
    /// read exactly as it does on a local one.
    fn issue_cold_fill(&mut self, fill: Fill) {
        let aligned = fill.len.div_ceil(LBA_SIZE) * LBA_SIZE;
        let token = self.next_cold;
        self.next_cold += 1;
        let tier = self.tier.as_mut().expect("cold fill without tier");
        tier.cold_fetch(
            fill.issued_at,
            fill.st.file,
            fill.st.next_fill,
            aligned,
            token,
        );
        let core = self.front.slots[fill.conn_slot].core;
        self.reg.add(self.ids.disk_read_bytes[core], aligned);
        self.cold_fills.insert(token, fill);
    }

    /// A fill came back with a device error: re-issue the same read
    /// into the same cache frames, up to [`MAX_FILL_ATTEMPTS`] total
    /// attempts; past that the fill is abandoned (the connection
    /// degrades — its stream stalls at the missing range).
    fn retry_fill(&mut self, now: Nanos, cid: u16) {
        let Some(fill) = self.fills.remove(&cid) else {
            return;
        };
        let slot_idx = fill.conn_slot;
        let core = self.front.slots[slot_idx].core;
        self.prof.stage(core, ProfStage::Fetch);
        self.cores.run_on(
            core,
            now + Nanos::from_nanos(self.cfg.costs.interrupt_latency_ns),
            self.cfg.costs.interrupt_cycles,
        );
        if self.cfg.variant == StackVariant::Stock {
            // The synchronous worker was blocked for the failed
            // attempt too; charge that interval before re-blocking
            // (or unblocking, if we give up).
            let blocked_ns = (now.saturating_sub(fill.issued_at)).as_nanos();
            self.cores.run_on(
                core,
                fill.issued_at,
                self.cfg.costs.ns_to_cycles(blocked_ns),
            );
        }
        if fill.attempts >= MAX_FILL_ATTEMPTS {
            let slot = &mut self.front.slots[slot_idx];
            slot.conn.fills_inflight -= 1;
            if self.cfg.variant == StackVariant::Stock {
                self.sync_busy[core] = false;
            }
            self.front.sync_timer(slot_idx);
            return;
        }
        self.reg.inc(self.ids.fill_retries[core]);
        self.issue_fill(Fill {
            issued_at: now,
            attempts: fill.attempts + 1,
            ..fill
        });
    }

    /// Arm the seeded device fault injectors. The in-kernel stack has
    /// no diskmap SQ, so `sq_reject_p` does not apply here; link and
    /// client faults live in the workload harness.
    pub fn inject_faults(&mut self, f: &dcn_faults::FaultConfig, seed: u64) {
        for (d, dev) in self.disks.iter_mut().enumerate() {
            dev.set_faults(f.nvme, seed ^ ((d as u64 + 1) << 32));
        }
    }

    /// Disk fill completed: enqueue the body bytes (and for stock,
    /// unblock the core).
    fn complete_fill(&mut self, now: Nanos, cid: u16) {
        let Some(fill) = self.fills.remove(&cid) else {
            return;
        };
        self.finish_fill(now, fill);
    }

    /// Shared completion tail for NVMe and cold-tier fills: interrupt
    /// and completion cost, the stock blocked-interval charge, body
    /// enqueue, and the restage/unblock cascade.
    fn finish_fill(&mut self, now: Nanos, fill: Fill) {
        let slot_idx = fill.conn_slot;
        let core = self.front.slots[slot_idx].core;
        // Interrupt + completion handling.
        self.prof.stage(core, ProfStage::Fetch);
        let irq_done = self.cores.run_on(
            core,
            now + Nanos::from_nanos(self.cfg.costs.interrupt_latency_ns),
            self.cfg.costs.interrupt_cycles,
        );
        if self.cfg.variant == StackVariant::Stock {
            // Synchronous sendfile (§2.1.1): the worker's whole event
            // loop was blocked from issue to completion — nothing
            // else ran on this core meanwhile, which is the
            // throughput collapse Fig 1 shows for stock at 0% BC.
            let blocked_ns = (now.saturating_sub(fill.issued_at)).as_nanos();
            self.cores.run_on(
                core,
                fill.issued_at,
                self.cfg.costs.ns_to_cycles(blocked_ns),
            );
            self.sync_busy[core] = false;
        }
        self.enqueue_body(
            irq_done,
            slot_idx,
            fill.st,
            fill.len,
            fill.first_page,
            fill.frames,
        );
        let slot = &mut self.front.slots[slot_idx];
        slot.conn.fills_inflight -= 1;
        self.stage(irq_done, slot_idx);
        self.pump_tx(irq_done, slot_idx);
        self.front.sync_timer(slot_idx);
        // Stock: the unblocked worker services connections that were
        // waiting on it, until it blocks again.
        let core2 = self.front.slots[slot_idx].core;
        while !self.sync_busy[core2] {
            let Some(&waiting) = self.stage_waiting[core2].iter().next() else {
                break;
            };
            self.stage_waiting[core2].remove(&waiting);
            self.stage(irq_done, waiting);
            self.pump_tx(irq_done, waiting);
            self.front.sync_timer(waiting);
        }
    }

    /// Move body bytes into the socket buffer, encrypting per the
    /// variant's TLS design. `frames[i]` holds cache page
    /// `first_page + i`.
    fn enqueue_body(
        &mut self,
        now: Nanos,
        slot_idx: usize,
        st: StagedResponse,
        len: u64,
        first_page: u64,
        frames: Vec<PhysRegion>,
    ) {
        let costs = self.cfg.costs;
        let core = self.front.slots[slot_idx].core;
        let encrypted = self.cfg.encrypted;
        let variant = self.cfg.variant;
        let file_off = st.next_fill;

        if !encrypted {
            // Plaintext sendfile: map the pinned pages straight into
            // the socket buffer (sf_buf). The kernel still touches a
            // fraction of the data on the TX path.
            let mut sg = SgList::empty();
            let mut remaining = len;
            let mut pinned = 0u32;
            for frame in &frames {
                let n = remaining.min(CHUNK_SIZE);
                sg.push_region(frame.slice(0, n));
                pinned += 1;
                remaining -= n;
                if remaining == 0 {
                    break;
                }
            }
            // At full fidelity the cache pages must really hold the
            // file content (the NIC materializes from them). Fills
            // wrote them via device DMA; cache hits reuse them.
            let slot = &mut self.front.slots[slot_idx];
            slot.conn.enqueue_sendfile(sg, st.file, first_page, pinned);
            // Plaintext "chunk" = one sendfile fill staged into the
            // socket buffer.
            self.prof.chunk_done(core);
            return;
        }

        // Encrypted: record-ize the plaintext. At full fidelity the
        // fill's stream-contiguous records are sealed in one batch
        // pass up front ([`RecordCipher::seal_records`] shares the
        // cipher setup across the run); the per-record loop below
        // models the costs and stages each ciphertext region.
        if self.cfg.fidelity == Fidelity::Full {
            let cap_before = self.crypt_scratch.capacity();
            self.crypt_scratch.clear();
            self.crypt_scratch.resize(len as usize, 0);
            dcn_obs::steady::note_growth(cap_before, self.crypt_scratch.capacity());
            let mut off = 0usize;
            for frame in &frames {
                if off >= len as usize {
                    break;
                }
                let n = (len as usize - off).min(CHUNK_SIZE as usize);
                self.host
                    .read(frame.addr, &mut self.crypt_scratch[off..off + n]);
                off += n;
            }
            let tag_cap_before = self.tag_scratch.capacity();
            self.tag_scratch.clear();
            let cipher = self.front.slots[slot_idx]
                .cipher
                .as_ref()
                .expect("encrypted conn");
            // GCM framing restarts at the response body, so a ranged
            // response seals from record 0 of its own stream.
            let rec_off = file_off - st.body_off;
            cipher.seal_records(rec_off, &mut self.crypt_scratch, &mut self.tag_scratch);
            dcn_obs::steady::note_growth(tag_cap_before, self.tag_scratch.capacity());
        }
        let mut off_in_fill = 0u64;
        while off_in_fill < len {
            self.prof.stage(core, ProfStage::Encrypt);
            let rec_plain_off = file_off + off_in_fill;
            debug_assert_eq!(rec_plain_off % RECORD_PAYLOAD_MAX, 0);
            let rec_plain = (st.end - rec_plain_off)
                .min(RECORD_PAYLOAD_MAX)
                .min(len - off_in_fill);
            // Gather the plaintext source regions into the reusable
            // scratch (no per-record SgList spine allocation).
            let src_cap_before = self.src_scratch.capacity();
            self.src_scratch.clear();
            let mut remaining = rec_plain;
            let mut page_cursor = (off_in_fill / CHUNK_SIZE) as usize;
            let mut in_page = off_in_fill % CHUNK_SIZE;
            while remaining > 0 {
                let frame = frames[page_cursor];
                let n = remaining.min(CHUNK_SIZE - in_page);
                self.src_scratch.push(frame.slice(in_page, n));
                remaining -= n;
                in_page = 0;
                page_cursor += 1;
            }
            dcn_obs::steady::note_growth(src_cap_before, self.src_scratch.capacity());
            let ct_region = self.ct_pool.pop().unwrap_or_else(|| {
                // The pool grows on demand: the real bound on
                // ciphertext socket-buffer memory is sb_max per
                // connection, enforced at staging time.
                self.phys.alloc(CT_REGION_LEN)
            });
            let ct_region = ct_region.slice(0, rec_plain);
            let mut cycles = (rec_plain as f64 * costs.aes_gcm_cycles_per_byte) as u64;
            match variant {
                StackVariant::Netflix => {
                    // kTLS: the sendfile path hands the record to a
                    // dedicated TLS kernel thread (§2.1.4). By the
                    // time that thread runs, the DMA-fresh pages have
                    // aged out of the LLC (Fig 4's second flush), so
                    // the plaintext read comes from DRAM; the
                    // ciphertext goes out with ISA-L non-temporal
                    // stores.
                    for i in 0..self.src_scratch.len() {
                        let r = self.src_scratch[i];
                        self.mem.flush_delayed(now, r);
                        cycles += self.mem.cpu_read(now, r).stall_cycles;
                    }
                    self.mem.cpu_write_nt(now, ct_region);
                }
                StackVariant::Stock => {
                    // Userspace OpenSSL: read() copy to user, encrypt,
                    // write() copy to socket buffer: two copies + two
                    // syscalls per record.
                    cycles += 2 * costs.syscall_cycles;
                    cycles += (2.0 * rec_plain as f64 * costs.memcpy_cycles_per_byte) as u64;
                    for i in 0..self.src_scratch.len() {
                        let r = self.src_scratch[i];
                        cycles += self.mem.cpu_read(now, r).stall_cycles;
                    }
                    // user buffer write + read back
                    cycles += self.mem.cpu_write(now, ct_region).stall_cycles;
                    cycles += self.mem.cpu_read(now, ct_region).stall_cycles;
                    cycles += self.mem.cpu_write(now, ct_region).stall_cycles;
                }
            }
            // Encrypted "chunk" = one TLS record through the variant's
            // crypto path.
            self.prof.encrypt_bytes(rec_plain);
            self.prof.chunk(ProfStage::Encrypt, cycles);
            self.prof.chunk_done(core);
            let t_enc = self.cores.run_on(core, now, cycles);
            // Real encryption at full fidelity: the batch pre-pass
            // already sealed this record in the scratch; copy its
            // ciphertext into the socket-buffer region.
            let tag = if self.cfg.fidelity == Fidelity::Full {
                let s = off_in_fill as usize;
                self.host.write(
                    ct_region.addr,
                    &self.crypt_scratch[s..s + rec_plain as usize],
                );
                self.tag_scratch[(off_in_fill / RECORD_PAYLOAD_MAX) as usize]
            } else {
                [0u8; 16]
            };
            // The record keeps its pool region and tag; its header
            // and wire pieces are rebuilt when sent, so the socket
            // buffer allocates nothing per record.
            self.front.slots[slot_idx]
                .conn
                .enqueue_record(ct_region.addr, rec_plain, tag);
            off_in_fill += rec_plain;
            let _ = t_enc;
        }
        // Encrypted path: unpin all the fill's pages now.
        for p in first_page..first_page + frames.len() as u64 {
            self.bufcache.unpin(st.file, p);
        }
    }

    /// Send from socket buffers as windows allow.
    fn pump_tx(&mut self, now: Nanos, slot_idx: usize) {
        let core = self.front.slots[slot_idx].core;
        let costs = self.cfg.costs;
        // Batched packetize: the first TSO send of this pump pays the
        // full per-op cost; subsequent sends of the same connection in
        // the same pass reuse the hot TCB/socket state and the shared
        // doorbell at the reduced batched cost (mirrors Atlas's
        // per-sweep batching).
        let mut first_op = true;
        loop {
            // TX-ring backpressure: unsent data stays in the socket
            // buffer until slots free up.
            if self.nic.tx_rings[core].space() == 0 {
                break;
            }
            self.prof.stage(core, ProfStage::Packetize);
            let slot = &mut self.front.slots[slot_idx];
            let usable = slot.tcb.usable_window();
            let tso_max = u64::from(slot.tcb.cfg.tso_max);
            let budget = usable.min(tso_max);
            if budget < u64::from(slot.tcb.cfg.mss) && slot.conn.unsent() > budget {
                break;
            }
            let Some((_, sg)) = slot.conn.take_for_tx(budget) else {
                break;
            };
            let n_segs = sg.len().div_ceil(u64::from(slot.tcb.cfg.mss));
            let tx_op = if first_op {
                costs.tcp_tx_op_cycles
            } else {
                costs.tcp_tx_batched_op_cycles
            };
            first_op = false;
            let mut cycles = tx_op + n_segs * costs.kstack_tx_segment_cycles;
            // The TCP output path walks the mbuf chain at transmit
            // time: consume-once touches of a fraction of the payload
            // (sf_buf mapping, LRO bookkeeping) — by now the data has
            // usually aged out of the LLC.
            let touch = self.cfg.touch_fraction;
            for r in sg.regions() {
                let t = r.slice(0, ((r.len as f64) * touch) as u64);
                if t.len > 0 {
                    cycles += self.mem.cpu_read_once(now, t).stall_cycles;
                }
            }
            let out = slot.tcb.send_data(now, sg, false);
            self.nic.tx_rings[core].push(out.into_tx(0));
            self.prof.chunk(ProfStage::Packetize, cycles);
            self.cores.run_on(core, now, cycles);
        }
    }

    /// Run tier epoch work and land completed cold-store fills. The
    /// bytes arrive over the NIC into the buffer-cache frames the fill
    /// pinned at issue, then take the normal fill-completion tail.
    fn drain_cold(&mut self, now: Nanos) {
        let Some(tier) = self.tier.as_mut() else {
            return;
        };
        tier.maybe_epoch(now);
        let mut tickets = std::mem::take(&mut self.cold_scratch);
        tickets.clear();
        tier.drain_serving(now, &mut tickets);
        for tk in tickets.drain(..) {
            let Some(fill) = self.cold_fills.remove(&tk.token) else {
                continue;
            };
            let core = self.front.slots[fill.conn_slot].core;
            self.prof.stage(core, ProfStage::Fetch);
            // NIC DMA writes the object bytes into the cache frames,
            // page by page — same layout the NVMe PRP list would use.
            let mut remaining = tk.len;
            for (p, frame) in (fill.first_page..).zip(&fill.frames) {
                let n = remaining.min(CHUNK_SIZE);
                let region = frame.slice(0, n);
                if self.cfg.fidelity == Fidelity::Full {
                    let seed = self.catalog.file_seed(fill.st.file);
                    self.host
                        .update_region(region, |data| prf_bytes(seed, p * CHUNK_SIZE, data));
                }
                self.mem.dma_write(now, Agent::NicDma, region);
                remaining -= n;
                if remaining == 0 {
                    break;
                }
            }
            if let Some(ids) = &self.tier_ids {
                ids.note_cold_fill(&mut self.reg, core, &tk);
            }
            self.finish_fill(now, fill);
        }
        self.cold_scratch = tickets;
    }

    // ------------------------------------------------------- timekeeping

    #[must_use]
    pub fn poll_at(&self) -> Option<Nanos> {
        let disks = self
            .disks
            .iter()
            .fold(None, |acc, d| earliest(acc, d.poll_at()));
        let timer = self.front.next_timer();
        let tier = self
            .tier
            .as_ref()
            .map(TierEngine::poll_at)
            .filter(|&at| at != Nanos::MAX);
        earliest(earliest(earliest(disks, timer), self.nic.poll_at()), tier)
    }

    pub fn advance(&mut self, now: Nanos) -> Vec<SentBurst> {
        // Disk completions. Disk-controller DMA into cache frames is
        // fetch-stage memory traffic.
        self.prof.stage(0, ProfStage::Fetch);
        let mut done = std::mem::take(&mut self.cq_scratch);
        let cap_before = done.capacity();
        for disk in &mut self.disks {
            disk.advance(now, &mut self.mem, &mut self.host);
            disk.qpair(0).cq_consume_into(64, &mut done);
        }
        dcn_obs::steady::note_growth(cap_before, done.capacity());
        for e in done.drain(..) {
            if e.status == NvmeStatus::Success {
                self.complete_fill(now, e.cid);
            } else {
                self.retry_fill(now, e.cid);
            }
        }
        self.cq_scratch = done;
        // Cold-tier completions + epoch work (no-op without a tier).
        if self.tier.is_some() {
            self.drain_cold(now);
        }
        // TCP timers.
        for slot_idx in self.front.due_timers(now) {
            self.front.slots[slot_idx].tcb.on_timer(now);
            self.process_conn_events(now, slot_idx);
        }
        self.prof.stage(0, ProfStage::TxComplete);
        let bursts = self.nic.tx_drain_all(now, &mut self.mem, &self.host);
        self.collect_tx_completions();
        bursts
    }

    fn collect_tx_completions(&mut self) {
        for core in 0..self.cfg.cores {
            // The kernel stack keeps data until ACKed (not until TX),
            // so completions carry no buffer tokens; just drain them.
            let _ = self.nic.tx_rings[core].txsync_collect();
        }
    }

    /// Buffer-cache hit ratio observed (checks the BC workload knobs).
    #[must_use]
    pub fn cache_hit_ratio(&self) -> f64 {
        self.bufcache.hit_ratio()
    }

    pub fn phys_mut(&mut self) -> &mut PhysAlloc {
        &mut self.phys
    }
}
