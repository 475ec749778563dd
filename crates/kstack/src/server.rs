//! The conventional-stack server: nginx + FreeBSD (stock or
//! Netflix-optimized) over the shared hardware models. This module is
//! the kernel stack's TX data source; the server shell around it lives
//! in `dcn_srvcore::server`.

use crate::conn::{KConn, StagedResponse, CT_REGION_LEN};
use dcn_crypto::RECORD_PAYLOAD_MAX;
use dcn_faults::{FaultConfig, FaultCounts};
use dcn_httpd::response_header;
use dcn_mem::{Agent, CostParams, Fidelity, LlcConfig, PhysAlloc, PhysRegion, CHUNK_SIZE};
use dcn_netdev::{NicConfig, SgList};
use dcn_nvme::{FirmwareParams, NvmeCommand, NvmeDevice, NvmeStatus, Opcode, LBA_SIZE};
use dcn_obs::{CounterId, GaugeId, ProfStage, Registry, StallKind};
use dcn_simcore::{earliest, prf_bytes, Nanos};
use dcn_srvcore::{
    AdmissionConfig, Answer, FrontConfig, ResourceSnapshot, ServedWork, Server, Shell, Stack,
    NVME_QUEUE_DEPTH, SERVER_ENDPOINT,
};
use dcn_store::{BufferCache, Catalog};
use dcn_tcpstack::{Endpoint, TcbConfig};
use dcn_tier::{GetTicket, Placement, TierConfig};
use std::collections::{BTreeSet, HashMap};

/// Which baseline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StackVariant {
    /// Unmodified nginx/FreeBSD.
    Stock,
    /// The Netflix production stack (§2.1's optimizations).
    Netflix,
}

/// Disk buffer cache capacity. The eval server has 128 GB of RAM,
/// most of it page cache (~96 GiB); the model simulates 6 GiB of it,
/// which already exceeds the LLC by a wide margin — more DRAM-resident
/// frames would change no modeled number, only the simulator's own
/// memory (the cache's bookkeeping is per frame).
pub const BUFCACHE_BYTES: u64 = 6 << 30;
/// Per-connection socket-buffer cap.
pub const SB_MAX: u64 = 2 << 20;
/// Fill granularity per disk I/O (FreeBSD MAXPHYS-style read-ahead
/// unit).
pub const FILL_BYTES: u64 = 128 * 1024;

/// Configuration.
#[derive(Clone, Debug)]
pub struct KstackConfig {
    pub variant: StackVariant,
    /// The paper's baseline uses all 8 cores.
    pub cores: usize,
    pub encrypted: bool,
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
            tcb: TcbConfig::default(),
            nic: NicConfig {
                rings: 8,
                ..NicConfig::default()
            },
            firmware: FirmwareParams::p3700(),
            llc: LlcConfig::xeon_e5_2667v3(),
            costs: CostParams::default(),
            fidelity: Fidelity::Full,
            server_endpoint: SERVER_ENDPOINT,
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
            bufcache_hit_ratio: reg.gauge("kstack.bufcache_hit_ratio"),
            nvme_read_errors: reg.gauge("faults.nvme_read_errors"),
            nvme_latency_spikes: reg.gauge("faults.nvme_latency_spikes"),
        }
    }
}

/// The kernel stack's TX data source: buffer-cache and sendfile fill,
/// then (with TLS) kTLS or userspace OpenSSL into socket buffers. The
/// rest of the server is the shell in `dcn-srvcore`.
pub struct Kstack {
    bufcache: BufferCache,
    disks: Vec<NvmeDevice>,
    fills: HashMap<u16, Fill>,
    /// Cold-store fills in flight, keyed by cold-store token (its own
    /// counter — NVMe cids are u16 and must stay a disjoint space).
    cold_fills: HashMap<u64, Fill>,
    next_cold: u64,
    /// Reusable cold-completion drain scratch.
    cold_scratch: Vec<GetTicket>,
    /// Ciphertext socket-buffer frame pool (kTLS output).
    ct_pool: Vec<PhysRegion>,
    /// Ciphertext regions allocated: the pool's plus those held by
    /// socket buffers.
    ct_regions: usize,
    /// Stock only: is this worker's event loop blocked in a
    /// synchronous sendfile I/O? (One outstanding fill per worker.)
    sync_busy: Vec<bool>,
    /// Stock only: connections whose staging is waiting for the
    /// worker to unblock.
    stage_waiting: Vec<BTreeSet<usize>>,
    next_cid: u16,
    /// Reusable CQ-drain scratch for `advance`.
    cq_scratch: Vec<dcn_nvme::CompletionEntry>,
    /// Reusable plaintext→ciphertext staging scratch for the
    /// full-fidelity batch seal (one fill's records at a time).
    crypt_scratch: Vec<u8>,
    /// Reusable per-fill record-tag scratch (full fidelity).
    tag_scratch: Vec<[u8; 16]>,
    /// Reusable per-record plaintext source-region scratch.
    src_scratch: Vec<PhysRegion>,
    ids: KstackIds,
}

/// The conventional-stack server (nginx + FreeBSD, stock or Netflix).
pub type KstackServer = Server<Kstack>;

impl Stack for Kstack {
    type Config = KstackConfig;
    type Conn = KConn;

    fn shell(cfg: &KstackConfig) -> Shell {
        // Per-ACK kernel RX cost; Netflix's RSS-assisted LRO saves a
        // chunk of it (§2.1.3).
        let mut rx_ack_cycles = cfg.costs.kstack_rx_ack_cycles;
        if cfg.variant == StackVariant::Netflix {
            rx_ack_cycles = (rx_ack_cycles as f64 * (1.0 - cfg.costs.lro_rx_discount)) as u64;
        }
        Shell {
            cores: cfg.cores,
            front: FrontConfig {
                endpoint: cfg.server_endpoint,
                tcb: cfg.tcb,
                encrypted: cfg.encrypted,
                rx_ack_cycles,
            },
            nic: cfg.nic,
            firmware: cfg.firmware,
            llc: cfg.llc,
            costs: cfg.costs,
            fidelity: cfg.fidelity,
            admission: cfg.admission,
            // The kernel stack has no per-connection fetch window for a
            // tuner to steer (read-ahead is a global kernel heuristic),
            // so its tuners stay off, unfed.
            autotune: false,
            window: FILL_BYTES,
            profile: cfg.profile,
            tier: cfg.tier,
            tier_cache: false,
            front_metrics: [
                "kstack.overload.shed_new",
                "kstack.overload.retry_503",
                "kstack.overload.bad_requests",
            ],
            wait_metrics: [
                "kstack.bufcache.empty_waits",
                "kstack.bufcache.futile_wakes",
            ],
            polls: false,
            // The in-kernel stack uses shared kernel queues.
            nvme_qpairs: 1,
            // nginx userspace work + the sendfile syscall.
            request_cycles: cfg.costs.nginx_request_cycles + cfg.costs.sendfile_call_cycles,
            front_salt: 0x6B57,
            ctl_salt: 0x6B70,
        }
    }

    fn build(
        cfg: &KstackConfig,
        catalog: &Catalog,
        disks: Vec<NvmeDevice>,
        phys: &mut PhysAlloc,
        reg: &mut Registry,
    ) -> Self {
        // The cache's physical range comes before the pool's: the
        // committed BENCH files depend on this address order.
        let bufcache = BufferCache::new(BUFCACHE_BYTES, catalog, phys);
        let ct_pool: Vec<PhysRegion> = (0..4096).map(|_| phys.alloc(CT_REGION_LEN)).collect();
        Kstack {
            bufcache,
            ct_regions: ct_pool.len(),
            ct_pool,
            disks,
            fills: HashMap::new(),
            cold_fills: HashMap::new(),
            next_cold: 0,
            cold_scratch: Vec::with_capacity(64),
            sync_busy: vec![false; cfg.cores],
            stage_waiting: vec![BTreeSet::new(); cfg.cores],
            next_cid: 0,
            cq_scratch: Vec::new(),
            crypt_scratch: Vec::new(),
            tag_scratch: Vec::new(),
            src_scratch: Vec::new(),
            ids: KstackIds::register(reg, cfg.cores),
        }
    }

    fn label(s: &KstackServer) -> String {
        format!(
            "{}{}",
            match s.cfg.variant {
                StackVariant::Stock => "Stock FreeBSD/nginx",
                StackVariant::Netflix => "Netflix",
            },
            if s.cfg.encrypted { " TLS" } else { "" }
        )
    }

    /// Live connections, the buffer cache's allocatable-frame fraction
    /// (the kernel stack's scarce pool), and this core's share of
    /// in-flight disk fills against the kernel queue depth.
    fn snapshot(s: &KstackServer, core: usize) -> ResourceSnapshot {
        let depth = f64::from(NVME_QUEUE_DEPTH);
        let fills = s
            .stack
            .fills
            .values()
            .filter(|f| s.front.slots[f.conn_slot].core == core)
            .count();
        ResourceSnapshot {
            conns: s.ctl[core].live_conns,
            pool_free_frac: s.stack.bufcache.allocatable_frac(),
            sq_occupancy: fills as f64 / depth,
        }
    }

    /// Refresh the hysteretic latch against current resources so
    /// keepalive requests on long-lived connections see the same
    /// watermark state new SYNs do.
    fn shedding(s: &mut KstackServer, core: usize) -> bool {
        let snap = Kstack::snapshot(s, core);
        s.ctl.defer_request(core, snap)
    }

    /// The response is queued at the request's arrival, not when its
    /// request work completes.
    fn queue_response(s: &mut KstackServer, slot_idx: usize, answer: Answer, _done: Nanos) {
        s.front.slots[slot_idx].conn.answered.push_back(answer);
    }

    /// Unpin acknowledged socket-buffer pages; staging parked on VM
    /// pressure may proceed now.
    fn on_acked(s: &mut KstackServer, now: Nanos, slot_idx: usize, off: u64) {
        let (bufcache, ct_pool) = (&mut s.stack.bufcache, &mut s.stack.ct_pool);
        let host = &mut s.host;
        let mut unpinned = false;
        s.front.slots[slot_idx].conn.release_acked(
            off,
            |f, p| {
                bufcache.unpin(f, p);
                unpinned = true;
            },
            // The peer has the ciphertext: its pages go with the
            // region. Cache frames keep theirs, since hits read them.
            |r| {
                host.discard(r);
                ct_pool.push(r);
            },
        );
        if unpinned {
            s.wake_waiters(now);
        }
    }

    /// Socket-buffer semantics: the data is still here.
    fn on_retransmit(s: &mut KstackServer, now: Nanos, slot_idx: usize, offset: u64, len: u64) {
        let slot = &mut s.front.slots[slot_idx];
        let core = slot.core;
        if let Some(sg) = slot.conn.slice_sent(offset, len) {
            let out = slot.tcb.send_retransmit(now, offset, sg);
            s.nic.tx_rings[core].push(out.into_tx(0));
        }
    }

    fn after_events(s: &mut KstackServer, now: Nanos, slot_idx: usize) {
        Self::stage(s, now, slot_idx);
        Self::pump_tx(s, now, slot_idx);
    }

    /// Retry staging for a connection parked on buffer-cache VM
    /// pressure; it re-parks itself if still pressured.
    fn wake(s: &mut KstackServer, now: Nanos, slot_idx: usize) {
        Self::stage(s, now, slot_idx);
        Self::pump_tx(s, now, slot_idx);
        s.front.sync_timer(slot_idx);
    }

    /// Disk completions (device DMA into cache frames is fetch-stage
    /// memory traffic), then cold-tier completions and epoch work.
    fn advance_io(s: &mut KstackServer, now: Nanos) {
        let mut done = std::mem::take(&mut s.stack.cq_scratch);
        let cap_before = done.capacity();
        for disk in &mut s.stack.disks {
            disk.advance(now, &mut s.mem, &mut s.host);
            disk.qpair(0).cq_consume_into(64, &mut done);
        }
        dcn_obs::steady::note_growth(cap_before, done.capacity());
        for e in done.drain(..) {
            let Some(fill) = s.stack.fills.remove(&e.cid) else {
                continue;
            };
            if e.status == NvmeStatus::Success {
                Self::finish_fill(s, now, fill);
            } else {
                Self::retry_fill(s, now, fill);
            }
        }
        s.stack.cq_scratch = done;
        if s.tier.is_some() {
            Self::drain_cold(s, now);
        }
    }

    fn next_io_at(s: &KstackServer) -> Option<Nanos> {
        s.stack
            .disks
            .iter()
            .fold(None, |acc, d| earliest(acc, d.poll_at()))
    }

    /// Buffer-cache hit ratio and device fault gauges.
    fn publish(s: &mut KstackServer) {
        s.reg
            .set(s.stack.ids.bufcache_hit_ratio, s.stack.bufcache.hit_ratio());
        let faults = Kstack::stack_faults(s);
        s.reg
            .set(s.stack.ids.nvme_read_errors, faults.nvme_read_errors as f64);
        s.reg.set(
            s.stack.ids.nvme_latency_spikes,
            faults.nvme_latency_spikes as f64,
        );
    }

    /// The kernel stack counts bytes, not disk commands, and has no
    /// slow-reader ladder or HTTP payload counter; those stay 0.
    fn stack_served(s: &KstackServer, front: ServedWork) -> ServedWork {
        let (reg, ids) = (&s.reg, &s.stack.ids);
        ServedWork {
            responses: reg.counter_sum(&ids.responses),
            disk_read_bytes: reg.counter_sum(&ids.disk_read_bytes),
            fetch_retries: reg.counter_sum(&ids.fill_retries),
            ..front
        }
    }

    /// Device faults only: the kernel stack has no diskmap SQ and
    /// retries fills rather than aborting connections.
    fn stack_faults(s: &KstackServer) -> FaultCounts {
        let (nvme_read_errors, nvme_latency_spikes) = NvmeDevice::fault_totals(&s.stack.disks);
        FaultCounts {
            nvme_read_errors,
            nvme_latency_spikes,
            ..FaultCounts::default()
        }
    }

    /// The in-kernel stack has no diskmap SQ, so `sq_reject_p` does
    /// not apply here.
    fn inject_faults(s: &mut KstackServer, f: &FaultConfig, seed: u64) {
        for (d, dev) in s.stack.disks.iter_mut().enumerate() {
            dev.set_faults(f.nvme, seed ^ ((d as u64 + 1) << 32));
        }
    }

    /// Ciphertext regions out of the pool, and every buffer-cache
    /// frame ever handed out.
    fn held_pages(s: &KstackServer) -> usize {
        let ct_out = s.stack.ct_regions - s.stack.ct_pool.len();
        ct_out * CT_REGION_LEN.div_ceil(CHUNK_SIZE) as usize + s.stack.bufcache.frames_used()
    }
}

/// The data path over the shell's parts.
impl Kstack {
    /// sendfile staging: move body bytes from the buffer cache (or
    /// disk) into the socket buffer, up to [`SB_MAX`].
    fn stage(s: &mut KstackServer, now: Nanos, slot_idx: usize) {
        let costs = s.cfg.costs;
        let cores_n = s.cfg.cores;
        loop {
            let core = s.front.slots[slot_idx].core;
            let slot = &mut s.front.slots[slot_idx];
            // A response's header enters the socket buffer only once
            // every earlier body is in it, so pipelined responses never
            // interleave.
            if slot.conn.staging.is_empty() && slot.conn.fills_inflight == 0 {
                if let Some((info, file)) = slot.conn.answered.pop_front() {
                    let header = response_header(info, s.cfg.encrypted);
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
                s.reg.inc(s.stack.ids.responses[core]);
                continue;
            }
            if slot.conn.sb_bytes >= SB_MAX {
                s.prof.stall(StallKind::CwndLimited);
                break; // socket buffer full: wait for ACKs
            }
            if slot.conn.fills_inflight > 0 && s.cfg.variant == StackVariant::Netflix {
                // Async sendfile pipelines one fill per connection.
                s.prof.stall(StallKind::NvmeWait);
                break;
            }
            if s.cfg.variant == StackVariant::Stock && s.stack.sync_busy[core] {
                // Synchronous sendfile: this worker is blocked inside
                // an earlier conn's I/O; nothing else stages on this
                // core until it returns (§2.1.1).
                s.prof.stall(StallKind::NvmeWait);
                s.stack.stage_waiting[core].insert(slot_idx);
                break;
            }
            let want = FILL_BYTES.min(st.end - st.next_fill);
            // Page-by-page cache lookup.
            let first_page = st.next_fill / CHUNK_SIZE;
            let last_page = (st.next_fill + want - 1) / CHUNK_SIZE;
            let mut all_hit = true;
            let mut lookup_cycles = 0;
            let mut pages = Vec::new();
            for p in first_page..=last_page {
                let (hit, cyc) = s.stack.bufcache.lookup(st.file, p, &costs);
                lookup_cycles += cyc;
                match hit {
                    Some(r) => pages.push(r.region),
                    None => {
                        all_hit = false;
                        // Unpin what we already pinned this round.
                        for pp in first_page..p {
                            s.stack.bufcache.unpin(st.file, pp);
                        }
                        pages.clear();
                        break;
                    }
                }
            }
            s.prof.stage(core, ProfStage::Fetch);
            let t_work = s.cores.run_on(core, now, lookup_cycles);
            if all_hit {
                // Cache hit: enqueue immediately.
                Self::enqueue_body(s, t_work, slot_idx, st, want, first_page, pages);
                let slot = &mut s.front.slots[slot_idx];
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
                match s.stack.bufcache.try_insert(st.file, p, &costs, cores_n) {
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
                    s.stack.bufcache.unpin(st.file, p);
                }
                s.cores.run_on(core, now, alloc_cycles);
                // Park: retried when ACKs unpin socket-buffer pages.
                s.prof.stall(StallKind::PoolEmpty);
                s.park(core, slot_idx);
                break;
            }
            s.end_wait(slot_idx);
            s.prof
                .chunk(ProfStage::Fetch, alloc_cycles + costs.kernel_io_cycles);
            let t_alloc = s
                .cores
                .run_on(core, now, alloc_cycles + costs.kernel_io_cycles);
            // Cold objects fetch from the object store over the
            // network instead of the local NVMe namespace; the frames
            // land in the same buffer cache either way, so repeat
            // reads of a cold object hit the page cache above.
            let cold = s
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
                Self::issue_cold_fill(s, fill);
            } else {
                Self::issue_fill(s, fill);
            }
            let slot = &mut s.front.slots[slot_idx];
            if let Some(front) = slot.conn.staging.front_mut() {
                front.next_fill += want;
            }
            slot.conn.fills_inflight += 1;
            if s.cfg.variant == StackVariant::Stock {
                // The worker now blocks until this I/O completes.
                s.stack.sync_busy[core] = true;
                break;
            }
        }
    }

    /// Submit `fill` as one NVMe read into its cache frames, at its
    /// `issued_at`.
    fn issue_fill(s: &mut KstackServer, fill: Fill) {
        let now = fill.issued_at;
        let loc = s.catalog.locate(fill.st.file, fill.st.next_fill);
        let aligned = fill.len.div_ceil(LBA_SIZE) * LBA_SIZE;
        let cid = s.stack.next_cid;
        s.stack.next_cid = s.stack.next_cid.wrapping_add(1);
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
        let dev = &mut s.stack.disks[loc.disk];
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
        let core = s.front.slots[fill.conn_slot].core;
        s.reg.add(s.stack.ids.disk_read_bytes[core], aligned);
        s.stack.fills.insert(cid, fill);
    }

    /// Issue a cold-tier byte-range GET into freshly allocated buffer
    /// cache frames. Mirrors [`Self::issue_fill`] but the bytes arrive
    /// over the NIC — no SQE, no doorbell. Stock's synchronous-sendfile
    /// block applies here too: the worker would block inside a remote
    /// read exactly as it does on a local one.
    fn issue_cold_fill(s: &mut KstackServer, fill: Fill) {
        let aligned = fill.len.div_ceil(LBA_SIZE) * LBA_SIZE;
        let token = s.stack.next_cold;
        s.stack.next_cold += 1;
        let tier = s.tier.as_mut().expect("cold fill without tier");
        tier.cold_fetch(
            fill.issued_at,
            fill.st.file,
            fill.st.next_fill,
            aligned,
            token,
        );
        let core = s.front.slots[fill.conn_slot].core;
        s.reg.add(s.stack.ids.disk_read_bytes[core], aligned);
        s.stack.cold_fills.insert(token, fill);
    }

    /// A fill came back with a device error: re-issue the same read
    /// into the same cache frames, up to [`MAX_FILL_ATTEMPTS`] total
    /// attempts; past that the fill is abandoned (the connection
    /// degrades — its stream stalls at the missing range).
    fn retry_fill(s: &mut KstackServer, now: Nanos, fill: Fill) {
        let slot_idx = fill.conn_slot;
        let core = s.front.slots[slot_idx].core;
        s.prof.stage(core, ProfStage::Fetch);
        s.cores.run_on(
            core,
            now + Nanos::from_nanos(s.cfg.costs.interrupt_latency_ns),
            s.cfg.costs.interrupt_cycles,
        );
        if s.cfg.variant == StackVariant::Stock {
            // The synchronous worker was blocked for the failed
            // attempt too; charge that interval before re-blocking
            // (or unblocking, if we give up).
            let blocked_ns = (now.saturating_sub(fill.issued_at)).as_nanos();
            s.cores
                .run_on(core, fill.issued_at, s.cfg.costs.ns_to_cycles(blocked_ns));
        }
        if fill.attempts >= MAX_FILL_ATTEMPTS {
            let slot = &mut s.front.slots[slot_idx];
            slot.conn.fills_inflight -= 1;
            if s.cfg.variant == StackVariant::Stock {
                s.stack.sync_busy[core] = false;
            }
            s.front.sync_timer(slot_idx);
            return;
        }
        s.reg.inc(s.stack.ids.fill_retries[core]);
        Self::issue_fill(
            s,
            Fill {
                issued_at: now,
                attempts: fill.attempts + 1,
                ..fill
            },
        );
    }

    /// Shared completion tail for NVMe and cold-tier fills: interrupt
    /// and completion cost, the stock blocked-interval charge, body
    /// enqueue, and the restage/unblock cascade.
    fn finish_fill(s: &mut KstackServer, now: Nanos, fill: Fill) {
        let slot_idx = fill.conn_slot;
        let core = s.front.slots[slot_idx].core;
        // Interrupt + completion handling.
        s.prof.stage(core, ProfStage::Fetch);
        let irq_done = s.cores.run_on(
            core,
            now + Nanos::from_nanos(s.cfg.costs.interrupt_latency_ns),
            s.cfg.costs.interrupt_cycles,
        );
        if s.cfg.variant == StackVariant::Stock {
            // Synchronous sendfile (§2.1.1): the worker's whole event
            // loop was blocked from issue to completion — nothing
            // else ran on this core meanwhile, which is the
            // throughput collapse Fig 1 shows for stock at 0% BC.
            let blocked_ns = (now.saturating_sub(fill.issued_at)).as_nanos();
            s.cores
                .run_on(core, fill.issued_at, s.cfg.costs.ns_to_cycles(blocked_ns));
            s.stack.sync_busy[core] = false;
        }
        Self::enqueue_body(
            s,
            irq_done,
            slot_idx,
            fill.st,
            fill.len,
            fill.first_page,
            fill.frames,
        );
        let slot = &mut s.front.slots[slot_idx];
        slot.conn.fills_inflight -= 1;
        Self::stage(s, irq_done, slot_idx);
        Self::pump_tx(s, irq_done, slot_idx);
        s.front.sync_timer(slot_idx);
        // Stock: the unblocked worker services connections that were
        // waiting on it, until it blocks again.
        let core2 = s.front.slots[slot_idx].core;
        while !s.stack.sync_busy[core2] {
            let Some(&waiting) = s.stack.stage_waiting[core2].iter().next() else {
                break;
            };
            s.stack.stage_waiting[core2].remove(&waiting);
            Self::stage(s, irq_done, waiting);
            Self::pump_tx(s, irq_done, waiting);
            s.front.sync_timer(waiting);
        }
    }

    /// Move body bytes into the socket buffer, encrypting per the
    /// variant's TLS design. `frames[i]` holds cache page
    /// `first_page + i`.
    fn enqueue_body(
        s: &mut KstackServer,
        now: Nanos,
        slot_idx: usize,
        st: StagedResponse,
        len: u64,
        first_page: u64,
        frames: Vec<PhysRegion>,
    ) {
        let costs = s.cfg.costs;
        let core = s.front.slots[slot_idx].core;
        let encrypted = s.cfg.encrypted;
        let variant = s.cfg.variant;
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
            let slot = &mut s.front.slots[slot_idx];
            slot.conn.enqueue_sendfile(sg, st.file, first_page, pinned);
            // Plaintext "chunk" = one sendfile fill staged into the
            // socket buffer.
            s.prof.chunk_done(core);
            return;
        }

        // Encrypted: record-ize the plaintext. At full fidelity the
        // fill's stream-contiguous records are sealed in one batch
        // pass up front ([`RecordCipher::seal_records`] shares the
        // cipher setup across the run); the per-record loop below
        // models the costs and stages each ciphertext region.
        if s.cfg.fidelity == Fidelity::Full {
            let cap_before = s.stack.crypt_scratch.capacity();
            s.stack.crypt_scratch.clear();
            s.stack.crypt_scratch.resize(len as usize, 0);
            dcn_obs::steady::note_growth(cap_before, s.stack.crypt_scratch.capacity());
            let mut off = 0usize;
            for frame in &frames {
                if off >= len as usize {
                    break;
                }
                let n = (len as usize - off).min(CHUNK_SIZE as usize);
                s.host
                    .read(frame.addr, &mut s.stack.crypt_scratch[off..off + n]);
                off += n;
            }
            let tag_cap_before = s.stack.tag_scratch.capacity();
            s.stack.tag_scratch.clear();
            let cipher = s.front.slots[slot_idx]
                .cipher
                .as_deref()
                .expect("a full-fidelity TLS server seals");
            // GCM framing restarts at the response body, so a ranged
            // response seals from record 0 of its own stream.
            let rec_off = file_off - st.body_off;
            cipher.seal_records(
                rec_off,
                &mut s.stack.crypt_scratch,
                &mut s.stack.tag_scratch,
            );
            dcn_obs::steady::note_growth(tag_cap_before, s.stack.tag_scratch.capacity());
        }
        let mut off_in_fill = 0u64;
        while off_in_fill < len {
            s.prof.stage(core, ProfStage::Encrypt);
            let rec_plain_off = file_off + off_in_fill;
            debug_assert_eq!(rec_plain_off % RECORD_PAYLOAD_MAX, 0);
            let rec_plain = (st.end - rec_plain_off)
                .min(RECORD_PAYLOAD_MAX)
                .min(len - off_in_fill);
            // Gather the plaintext source regions into the reusable
            // scratch (no per-record SgList spine allocation).
            let src_cap_before = s.stack.src_scratch.capacity();
            s.stack.src_scratch.clear();
            let mut remaining = rec_plain;
            let mut page_cursor = (off_in_fill / CHUNK_SIZE) as usize;
            let mut in_page = off_in_fill % CHUNK_SIZE;
            while remaining > 0 {
                let frame = frames[page_cursor];
                let n = remaining.min(CHUNK_SIZE - in_page);
                s.stack.src_scratch.push(frame.slice(in_page, n));
                remaining -= n;
                in_page = 0;
                page_cursor += 1;
            }
            dcn_obs::steady::note_growth(src_cap_before, s.stack.src_scratch.capacity());
            let ct_region = s.stack.ct_pool.pop().unwrap_or_else(|| {
                // The pool grows on demand: the real bound on
                // ciphertext socket-buffer memory is `SB_MAX` per
                // connection, enforced at staging time.
                s.stack.ct_regions += 1;
                s.phys.alloc(CT_REGION_LEN)
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
                    for i in 0..s.stack.src_scratch.len() {
                        let r = s.stack.src_scratch[i];
                        s.mem.flush_delayed(now, r);
                        cycles += s.mem.cpu_read(now, r).stall_cycles;
                    }
                    s.mem.cpu_write_nt(now, ct_region);
                }
                StackVariant::Stock => {
                    // Userspace OpenSSL: read() copy to user, encrypt,
                    // write() copy to socket buffer: two copies + two
                    // syscalls per record.
                    cycles += 2 * costs.syscall_cycles;
                    cycles += (2.0 * rec_plain as f64 * costs.memcpy_cycles_per_byte) as u64;
                    for i in 0..s.stack.src_scratch.len() {
                        let r = s.stack.src_scratch[i];
                        cycles += s.mem.cpu_read(now, r).stall_cycles;
                    }
                    // user buffer write + read back
                    cycles += s.mem.cpu_write(now, ct_region).stall_cycles;
                    cycles += s.mem.cpu_read(now, ct_region).stall_cycles;
                    cycles += s.mem.cpu_write(now, ct_region).stall_cycles;
                }
            }
            // Encrypted "chunk" = one TLS record through the variant's
            // crypto path.
            s.prof.encrypt_bytes(rec_plain);
            s.prof.chunk(ProfStage::Encrypt, cycles);
            s.prof.chunk_done(core);
            s.cores.run_on(core, now, cycles);
            // Real encryption at full fidelity: the batch pre-pass
            // already sealed this record in the scratch; copy its
            // ciphertext into the socket-buffer region.
            let tag = if s.cfg.fidelity == Fidelity::Full {
                let at = off_in_fill as usize;
                s.host.write(
                    ct_region.addr,
                    &s.stack.crypt_scratch[at..at + rec_plain as usize],
                );
                s.stack.tag_scratch[(off_in_fill / RECORD_PAYLOAD_MAX) as usize]
            } else {
                [0u8; 16]
            };
            // The record keeps its pool region and tag; its header
            // and wire pieces are rebuilt when sent, so the socket
            // buffer allocates nothing per record.
            s.front.slots[slot_idx]
                .conn
                .enqueue_record(ct_region.addr, rec_plain, tag);
            off_in_fill += rec_plain;
        }
        // Encrypted path: unpin all the fill's pages now.
        for p in first_page..first_page + frames.len() as u64 {
            s.stack.bufcache.unpin(st.file, p);
        }
    }

    /// Send from socket buffers as windows allow.
    fn pump_tx(s: &mut KstackServer, now: Nanos, slot_idx: usize) {
        let core = s.front.slots[slot_idx].core;
        let costs = s.cfg.costs;
        // Batched packetize: the first TSO send of this pump pays the
        // full per-op cost; subsequent sends of the same connection in
        // the same pass reuse the hot TCB/socket state and the shared
        // doorbell at the reduced batched cost (mirrors Atlas's
        // per-sweep batching).
        let mut first_op = true;
        loop {
            // TX-ring backpressure: unsent data stays in the socket
            // buffer until slots free up.
            if s.nic.tx_rings[core].space() == 0 {
                break;
            }
            s.prof.stage(core, ProfStage::Packetize);
            let slot = &mut s.front.slots[slot_idx];
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
            let touch = costs.kstack_touch_fraction;
            for r in sg.regions() {
                let t = r.slice(0, ((r.len as f64) * touch) as u64);
                if t.len > 0 {
                    cycles += s.mem.cpu_read_once(now, t).stall_cycles;
                }
            }
            let out = slot.tcb.send_data(now, sg, false);
            s.nic.tx_rings[core].push(out.into_tx(0));
            s.prof.chunk(ProfStage::Packetize, cycles);
            s.cores.run_on(core, now, cycles);
        }
    }

    /// Run tier epoch work and land completed cold-store fills. The
    /// bytes arrive over the NIC into the buffer-cache frames the fill
    /// pinned at issue, then take the normal fill-completion tail.
    fn drain_cold(s: &mut KstackServer, now: Nanos) {
        let Some(tier) = s.tier.as_mut() else {
            return;
        };
        tier.maybe_epoch(now);
        let mut tickets = std::mem::take(&mut s.stack.cold_scratch);
        tickets.clear();
        tier.drain_serving(now, &mut tickets);
        for tk in tickets.drain(..) {
            let Some(fill) = s.stack.cold_fills.remove(&tk.token) else {
                continue;
            };
            let core = s.front.slots[fill.conn_slot].core;
            s.prof.stage(core, ProfStage::Fetch);
            // NIC DMA writes the object bytes into the cache frames,
            // page by page — same layout the NVMe PRP list would use.
            let mut remaining = tk.len;
            for (p, frame) in (fill.first_page..).zip(&fill.frames) {
                let n = remaining.min(CHUNK_SIZE);
                let region = frame.slice(0, n);
                if s.cfg.fidelity == Fidelity::Full {
                    let seed = s.catalog.file_seed(fill.st.file);
                    s.host
                        .update_region(region, |data| prf_bytes(seed, p * CHUNK_SIZE, data));
                }
                s.mem.dma_write(now, Agent::NicDma, region);
                remaining -= n;
                if remaining == 0 {
                    break;
                }
            }
            if let Some(ids) = &s.tier_ids {
                ids.note_cold_fill(&mut s.reg, core, &tk);
            }
            Self::finish_fill(s, now, fill);
        }
        s.stack.cold_scratch = tickets;
    }
}
