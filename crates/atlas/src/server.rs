//! The Atlas server: four single-core stack instances over shared
//! hardware (NIC, disks, memory system), each running the §3 control
//! loop process-to-completion. This module is Atlas's TX data source;
//! the server shell around it lives in `dcn_srvcore::server`.

use crate::conn::{AtlasConn, InflightFetch, ResponseLayout};
use dcn_crypto::{record_header, RECORD_PAYLOAD_MAX};
use dcn_diskmap::{BufId, DiskId, DiskmapKernel, IoDesc, NvmeQueue};
use dcn_faults::{FaultConfig, FaultCounts};
use dcn_httpd::{response_header, ResponseInfo};
use dcn_mem::{Agent, CostParams, Fidelity, LlcConfig, PhysAlloc};
/// The frame demux Atlas's RX path uses, re-exported for harnesses
/// that route frames by flow.
pub use dcn_netdev::parse_frame;
use dcn_netdev::{NicConfig, SentBurst, SgList};
use dcn_nvme::{FirmwareParams, NvmeDevice};
use dcn_obs::{ChunkKind, CounterId, GaugeId, ProfStage, Registry, Stage, StallKind, Tracer};
use dcn_simcore::{earliest, prf_bytes, Nanos};
use dcn_srvcore::overload::{
    DRAIN_WINDOW, HEADER_TIMEOUT, IDLE_TIMEOUT, MIN_DRAIN_BYTES_PER_SEC, RETX_RESERVE_BUFS,
    SWEEP_INTERVAL,
};
use dcn_srvcore::{
    AdmissionConfig, Answer, FrontConfig, LadderLevel, ResourceSnapshot, ServedWork, Server, Shell,
    Stack, NVME_QUEUE_DEPTH, SERVER_ENDPOINT,
};
use dcn_store::Catalog;
use dcn_tcpstack::{Endpoint, TcbConfig};
use dcn_tier::cache::INSERT_MIN_HEAT;
use dcn_tier::{GetTicket, Placement, TierConfig};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Atlas deployment configuration.
#[derive(Clone, Debug)]
pub struct AtlasConfig {
    /// Stack instances, one per core (the paper uses 4 of 8).
    pub cores: usize,
    /// Diskmap buffers per (core, disk) queue pair.
    pub bufs_per_queue: u32,
    /// Buffer size == fetch unit == TLS record (16 KiB sweet spot).
    pub buf_size: u64,
    /// Fetch watermark: delay I/O until this much window is free
    /// (§3.2: 10×MSS).
    pub watermark: u64,
    /// Encrypt bodies (AES-128-GCM)?
    pub encrypted: bool,
    pub tcb: TcbConfig,
    pub nic: NicConfig,
    pub firmware: FirmwareParams,
    pub llc: LlcConfig,
    pub costs: CostParams,
    pub fidelity: Fidelity,
    pub server_endpoint: Endpoint,
    /// Enable the dcn-obs chunk-lifecycle tracer. Off by default:
    /// the disabled tracer adds no per-chunk allocations and the
    /// run is bit-identical either way (residency queries use the
    /// non-mutating LLC probe).
    pub trace: bool,
    /// Enable the dcn-obs per-stage cycle/DRAM profiler. Off by
    /// default: without it, no profiler handle is installed anywhere
    /// (the CPU/memory hooks are a `None` check), and the run is
    /// bit-identical either way — the profiler only records, it never
    /// alters completion times.
    pub profile: bool,
    /// Overload policy: the connection cap and the admission
    /// watermarks (defaults never engage in ordinary runs).
    pub admission: AdmissionConfig,
    /// Online I/O-window autotuner. Off by default: `watermark` is
    /// used verbatim, reproducing the paper's fixed 10×MSS constant.
    /// When on, each core's tuner moves the fetch watermark and an
    /// in-flight read cap between a floor and a ceiling, driven by
    /// NVMe completion latency and SQ occupancy.
    pub autotune: bool,
    /// Tiered catalog. When set, only the popular head of the catalog
    /// is resident on the NVMe flat namespace; everything else is
    /// fetched on demand from a simulated cold object store, with
    /// popularity-driven promotion/demotion between the tiers. `None`
    /// (the default) reproduces the flat-namespace server
    /// bit-identically.
    pub tier: Option<TierConfig>,
    /// Hot-chunk DMA cache — the buffer-cache ablation. Independent
    /// switch so `ablation_tiers` can sweep {no-cache, cache} × {flat,
    /// tiered}. Cache fills/hits charge the memory system for every
    /// copy, so DRAM-bytes-per-net-byte reports the cache's true cost.
    pub tier_cache: bool,
}

impl Default for AtlasConfig {
    fn default() -> Self {
        AtlasConfig {
            cores: 4,
            bufs_per_queue: 320,
            buf_size: RECORD_PAYLOAD_MAX,
            watermark: 10 * 1448,
            encrypted: false,
            tcb: TcbConfig::default(),
            nic: NicConfig {
                rings: 4,
                ..NicConfig::default()
            },
            firmware: FirmwareParams::p3700(),
            llc: LlcConfig::xeon_e5_2667v3(),
            costs: CostParams::default(),
            fidelity: Fidelity::Full,
            server_endpoint: SERVER_ENDPOINT,
            trace: false,
            profile: false,
            admission: AdmissionConfig::default(),
            autotune: false,
            tier: None,
            tier_cache: false,
        }
    }
}

/// Recovery policy: how many times a failed *fresh* disk read is
/// retried (with exponential backoff) before the connection is
/// degraded. Failed retransmit fetches don't consume this budget
/// per-fetch — the RTO re-drives them — but count toward
/// [`MAX_CONN_FAILURES`].
pub const MAX_FETCH_RETRIES: u32 = 3;
/// Recovery policy: consecutive fetch failures (any kind, reset by
/// any success) after which the connection is aborted — the graceful
/// per-connection degradation bound.
pub const MAX_CONN_FAILURES: u32 = 8;
/// Base delay before re-issuing a failed fetch (doubles per attempt).
pub const FETCH_RETRY_BACKOFF: Nanos = Nanos::from_micros(50);

/// Pre-registered registry handles for the per-chunk hot path: one
/// counter per (signal, core), indexed by core — incrementing is a
/// `Vec` index add, no hashing or allocation.
struct AtlasIds {
    conns: CounterId,
    conns_aborted: CounterId,
    responses: Vec<CounterId>,
    http_payload_bytes: Vec<CounterId>,
    disk_read_bytes: Vec<CounterId>,
    retransmit_fetches: Vec<CounterId>,
    /// Successful record reads completed (every served record, fresh
    /// or retransmit, is exactly one of these — the satellite tests'
    /// "fresh disk fetch" witness).
    disk_reads: Vec<CounterId>,
    /// Failed reads observed (any status != Ok).
    fetch_errors: Vec<CounterId>,
    /// Failed fresh reads re-issued by the backoff policy.
    fetch_retries: Vec<CounterId>,
    /// Overload ladder actions (the front end counts refused SYNs,
    /// 503s and 431s): idle / never-sent-a-request connections reaped.
    reaped_idle: Vec<CounterId>,
    /// …slow-draining buffer-holders aborted.
    aborted_slow: Vec<CounterId>,
    /// Pumps stopped by the fair-share read-ahead bound (see `pump`).
    share_limited: Vec<CounterId>,
    /// Gauges refreshed by [`AtlasServer::publish_obs`] at every
    /// metric sample point — pre-registered so sampled runs do no
    /// per-sample name scans (`find_*`/`sum_prefixed` stay reserved
    /// for end-of-run export).
    pool_free_bufs: Vec<GaugeId>,
    overload_level: Vec<GaugeId>,
    live_conns: Vec<GaugeId>,
    leaked_bufs: GaugeId,
}

impl AtlasIds {
    fn register(reg: &mut Registry, cores: usize) -> Self {
        AtlasIds {
            conns: reg.counter("atlas.conns"),
            conns_aborted: reg.counter("atlas.conns_aborted"),
            responses: reg.counters_per_core("atlas.responses", cores),
            http_payload_bytes: reg.counters_per_core("atlas.http_payload_bytes", cores),
            disk_read_bytes: reg.counters_per_core("atlas.disk_read_bytes", cores),
            retransmit_fetches: reg.counters_per_core("atlas.retransmit_fetches", cores),
            disk_reads: reg.counters_per_core("atlas.disk_reads", cores),
            fetch_errors: reg.counters_per_core("atlas.fetch_errors", cores),
            fetch_retries: reg.counters_per_core("atlas.fetch_retries", cores),
            reaped_idle: reg.counters_per_core("atlas.overload.reaped_idle", cores),
            aborted_slow: reg.counters_per_core("atlas.overload.aborted_slow", cores),
            share_limited: reg.counters_per_core("atlas.bufpool.share_limited", cores),
            pool_free_bufs: reg.gauges_per_core("atlas.pool_free_bufs", cores),
            overload_level: reg.gauges_per_core("atlas.overload.level", cores),
            live_conns: reg.gauges_per_core("atlas.live_conns", cores),
            leaked_bufs: reg.gauge("atlas.leaked_bufs"),
        }
    }
}

/// Where an in-flight record fetch is being served from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FetchSrc {
    /// NVMe flat namespace (the hot tier — the only source when
    /// tiering is off).
    Nvme,
    /// Simulated cold object store (tiered demand miss).
    Cold,
    /// Hot-chunk DMA cache (ablation; no storage round trip).
    Cache,
}

/// A failed fresh fetch waiting for its backoff deadline.
struct RetryEntry {
    slot_idx: usize,
    fetch: InflightFetch,
    attempt: u32,
}

/// Atlas's TX data source: ACK-clocked disk fetch into a DMA buffer,
/// in-place encryption, recycling on TX completion. The rest of the
/// server is the shell in `dcn-srvcore`.
pub struct Atlas {
    kernel: DiskmapKernel,
    /// Diskmap queue pairs, one per (core, disk), each with its DMA
    /// buffer pool.
    queues: Vec<Vec<NvmeQueue>>,
    /// user-token → fetch bookkeeping. Token encodes (slot, seq of
    /// fetch); details live here.
    fetches: HashMap<u64, (usize, InflightFetch, BufId, usize, u32, FetchSrc)>, // slot, fetch, buf, disk, attempt, source
    next_token: u64,
    /// Failed fresh fetches awaiting their backoff deadline, keyed
    /// (deadline, serial).
    retries: BTreeMap<(Nanos, u64), RetryEntry>,
    next_retry: u64,
    /// When to re-`sqsync` commands a QueueFull left staged (SQ
    /// backpressure recovery). `None` = nothing staged anywhere.
    resync_at: Option<Nanos>,
    /// Chunk-lifecycle tracer (no-op unless `cfg.trace`).
    tracer: Tracer,
    ids: AtlasIds,
    /// Virtual time of the wire event (RX frame or timer) that the
    /// current control-loop pass is servicing — the AckArrival stamp
    /// for any fetch that pass issues.
    trace_rx_at: Nanos,
    /// Next overload sweep (slow-client deadlines + ladder tick).
    next_sweep: Nanos,
    /// (core, disk) queues with reads staged during the current
    /// control-loop pass, mapped to the latest staging time; one
    /// `nvme_sqsync` per dirty queue at pass end rings the doorbell
    /// for the whole batch. Always empty between public calls.
    dirty_doorbells: BTreeMap<(usize, usize), Nanos>,
    /// Reusable per-pass scratch for harvested disk completions
    /// (capacity established during warm-up; growth is a counted
    /// steady-state allocation fallback).
    completed_scratch: Vec<dcn_diskmap::CompletedIo>,
    /// Completion-sweep serial: bumped once per (core, advance) batch
    /// so connections can tell "first record this sweep" (full TCP TX
    /// op cost) from "later record, hot TCB" (batched cost).
    sweep_serial: u64,
    /// Cache-hit completions synthesized off the NVMe path; `advance`
    /// delivers each at its virtual completion time.
    cache_ready: Vec<dcn_diskmap::CompletedIo>,
    /// Reusable scratch for drained cold-store tickets.
    cold_scratch: Vec<GetTicket>,
}

/// The Atlas server: four single-core stack instances over shared
/// hardware (NIC, disks, memory system).
pub type AtlasServer = Server<Atlas>;

impl Atlas {
    /// Diskmap buffers (free, capacity), summed over every pool.
    fn pool_totals(&self) -> (u32, u32) {
        self.queues.iter().flatten().fold((0, 0), |(free, cap), q| {
            (
                free + q.pool_ref().available(),
                cap + q.pool_ref().capacity(),
            )
        })
    }
}

impl Stack for Atlas {
    type Config = AtlasConfig;
    type Conn = AtlasConn;

    fn shell(cfg: &AtlasConfig) -> Shell {
        Shell {
            cores: cfg.cores,
            front: FrontConfig {
                endpoint: cfg.server_endpoint,
                tcb: cfg.tcb,
                encrypted: cfg.encrypted,
                rx_ack_cycles: cfg.costs.tcp_rx_ack_cycles,
            },
            nic: cfg.nic,
            firmware: cfg.firmware,
            llc: cfg.llc,
            costs: cfg.costs,
            fidelity: cfg.fidelity,
            admission: cfg.admission,
            autotune: cfg.autotune,
            window: cfg.watermark,
            profile: cfg.profile,
            tier: cfg.tier,
            tier_cache: cfg.tier_cache,
            front_metrics: [
                "atlas.overload.shed_new",
                "atlas.overload.retry_503",
                "atlas.overload.bad_requests",
            ],
            wait_metrics: ["atlas.bufpool.empty_waits", "atlas.bufpool.futile_wakes"],
            // One busy-polling stack instance per core, each with its
            // own queue pair on every disk.
            polls: true,
            nvme_qpairs: cfg.cores as u16,
            request_cycles: cfg.costs.atlas_request_cycles,
            front_salt: 0xA71A5,
            ctl_salt: 0xA070,
        }
    }

    /// Attach `cfg.cores` stack instances to every disk, each with its
    /// own DMA buffer pool per queue pair.
    fn build(
        cfg: &AtlasConfig,
        catalog: &Catalog,
        disks: Vec<NvmeDevice>,
        phys: &mut PhysAlloc,
        reg: &mut Registry,
    ) -> Self {
        let mut kernel = DiskmapKernel::new(disks);
        let mut queues = Vec::new();
        for core in 0..cfg.cores {
            let per_disk = (0..catalog.n_disks())
                .map(|d| {
                    NvmeQueue::nvme_open(
                        &mut kernel,
                        DiskId(d),
                        core as u16,
                        cfg.bufs_per_queue,
                        cfg.buf_size,
                        phys,
                    )
                    .expect("attach")
                })
                .collect();
            queues.push(per_disk);
        }
        Atlas {
            kernel,
            queues,
            fetches: HashMap::new(),
            next_token: 1,
            retries: BTreeMap::new(),
            next_retry: 0,
            resync_at: None,
            tracer: if cfg.trace {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            },
            ids: AtlasIds::register(reg, cfg.cores),
            trace_rx_at: Nanos::ZERO,
            next_sweep: SWEEP_INTERVAL,
            dirty_doorbells: BTreeMap::new(),
            completed_scratch: Vec::new(),
            sweep_serial: 0,
            cache_ready: Vec::new(),
            cold_scratch: Vec::with_capacity(64),
        }
    }

    fn label(s: &AtlasServer) -> String {
        let tls = if s.cfg.encrypted { " TLS" } else { "" };
        format!("Atlas/{} cores{tls}", s.cfg.cores)
    }

    /// Live connections, worst (minimum) DMA-pool free fraction and
    /// worst (maximum) NVMe SQ occupancy across the core's per-disk
    /// queues.
    fn snapshot(s: &AtlasServer, core: usize) -> ResourceSnapshot {
        let sq_depth = f64::from(NVME_QUEUE_DEPTH);
        let mut pool_free_frac = 1.0f64;
        let mut sq_occupancy = 0.0f64;
        for q in &s.stack.queues[core] {
            let cap = f64::from(q.pool_ref().capacity()).max(1.0);
            pool_free_frac = pool_free_frac.min(f64::from(q.pool_ref().available()) / cap);
            sq_occupancy = sq_occupancy.max(q.inflight() as f64 / sq_depth);
        }
        ResourceSnapshot {
            conns: s.ctl[core].live_conns,
            pool_free_frac,
            sq_occupancy,
        }
    }

    /// The latch as the last sweep or SYN left it: while the core
    /// sheds, requests on established keepalive connections are
    /// answered 503 + Retry-After instead of entering the fetch
    /// pipeline.
    fn shedding(s: &mut AtlasServer, core: usize) -> bool {
        s.ctl[core].overload.is_shedding()
    }

    /// Lay the response out on the stream and send its header.
    fn queue_response(s: &mut AtlasServer, slot_idx: usize, (info, file): Answer, done: Nanos) {
        let encrypted = s.cfg.encrypted;
        // Shared header block: the layout keeps one reference for
        // retransmit regeneration, the send path slices it into the
        // scatter-gather list without copying.
        let header: Arc<[u8]> = response_header(info, encrypted).into();
        let slot = &mut s.front.slots[slot_idx];
        // The next response starts where the previous one ends — or,
        // with nothing outstanding, at snd_nxt's stream offset. The
        // header goes out immediately (it is tiny and the initial
        // window always covers it).
        let cursor = slot
            .conn
            .layouts
            .last()
            .map(|l| l.end())
            .unwrap_or_else(|| slot.tcb.stream_offset_of_snd_nxt());
        let at = match info.body().zip(file) {
            Some(((file_off, body_len), file)) => {
                let id = slot.conn.next_layout_id;
                slot.conn.next_layout_id += 1;
                if slot.conn.active_layout().is_none() {
                    slot.conn.next_record = 0;
                }
                slot.conn.layouts.push(ResponseLayout {
                    id,
                    start: cursor,
                    header: header.clone(),
                    file,
                    file_off,
                    body_len,
                    encrypted,
                });
                cursor
            }
            // A bodiless answer queues behind whatever is parked.
            None => slot
                .conn
                .ready_tx
                .last_key_value()
                .map(|(k, v)| *k + v.sg.len())
                .unwrap_or(cursor)
                .max(cursor),
        };
        let hdr_len = header.len();
        slot.conn.ready_tx.insert(
            at,
            crate::conn::ReadyTx {
                sg: SgList::from_shared(header, 0, hdr_len),
                token: 0,
                completes_response: false,
            },
        );
        Self::drain_tx(s, done, slot_idx);
    }

    fn on_acked(s: &mut AtlasServer, now: Nanos, slot_idx: usize, off: u64) {
        let conn = &mut s.front.slots[slot_idx].conn;
        conn.prune_acked(off);
        if off > conn.acked_stream_off {
            conn.acked_stream_off = off;
            conn.last_progress = now;
        }
    }

    /// Storage is the retransmission buffer: re-fetch the record that
    /// holds the range and send exactly that slice of it again.
    fn on_retransmit(s: &mut AtlasServer, now: Nanos, slot_idx: usize, offset: u64, len: u64) {
        let slot = &mut s.front.slots[slot_idx];
        let Some(layout_idx) = slot.conn.layout_at(offset) else {
            // Nothing known at this offset (already pruned?): nothing
            // we can do; the RTO path will re-ask.
            return;
        };
        let layout = &slot.conn.layouts[layout_idx];
        if layout.in_header(offset) {
            // Header bytes: slice the shared header block into the
            // scatter-gather list — a refcount bump, no copy.
            let rel = (offset - layout.start) as usize;
            let end = (rel + len as usize).min(layout.header.len());
            let sg = SgList::from_shared(layout.header.clone(), rel, end - rel);
            let out = slot.tcb.send_retransmit(now, offset, sg);
            let core = slot.core;
            s.nic.tx_rings[core].push(out.into_tx(0));
            return;
        }
        let Some(pos) = layout.locate_body(offset) else {
            return;
        };
        // Re-fetch the containing record; on completion, slice out
        // exactly [off_in_record, off_in_record+len).
        let record = pos.record;
        let file = layout.file;
        let plain = layout.record_plain_len(record);
        let file_off = layout.record_file_off(record);
        let wire_len = layout.record_wire_len(record);
        let retx_len = len.min(wire_len - pos.off_in_record);
        let layout_id = layout.id;
        slot.conn.retx_inflight += 1;
        let issued = Self::issue_fetch(
            s,
            now,
            slot_idx,
            InflightFetch {
                layout_id,
                record,
                retx: Some((pos.off_in_record, retx_len)),
            },
            file,
            file_off,
            plain,
            0,
        );
        if !issued {
            // No buffer for the retransmit right now: tell the TCB so
            // the RTO (or further dup ACKs) can re-request it.
            let slot = &mut s.front.slots[slot_idx];
            slot.conn.retx_inflight -= 1;
            slot.tcb.retransmit_abandoned();
        }
    }

    fn after_events(s: &mut AtlasServer, now: Nanos, slot_idx: usize) {
        Self::drain_tx(s, now, slot_idx);
        Self::pump(s, now, slot_idx);
    }

    /// Re-pump a connection parked for a DMA buffer; `pump` re-parks
    /// it if the pool is still dry.
    fn wake(s: &mut AtlasServer, now: Nanos, slot_idx: usize) {
        if s.front.slots[slot_idx].conn.aborted {
            return;
        }
        Self::pump(s, now, slot_idx);
        Self::drain_tx(s, now, slot_idx);
        s.front.sync_timer(slot_idx);
    }

    /// Harvest disk completions (§3 steps 3–5), re-drive SQ
    /// backpressure and failed fetches, run the overload sweep, and
    /// serve the tier.
    fn advance_io(s: &mut AtlasServer, now: Nanos) {
        s.stack.kernel.advance(now, &mut s.mem, &mut s.host);
        if s.stack.resync_at.is_some_and(|t| t <= now) {
            s.stack.resync_at = None;
            Self::resync_staged(s, now);
        }
        Self::fire_retries(s, now);
        if now >= s.stack.next_sweep {
            Self::overload_sweep(s, now);
            s.stack.next_sweep = now + SWEEP_INTERVAL;
        }
        // Batched completion sweep: gather every finished read for a
        // core (across all of its per-disk queues) into one reusable
        // scratch, feed the I/O tuner its latency/occupancy signals,
        // then run a single crypto+packetize pass over the batch —
        // consecutive records of one connection ride the hot TCB at
        // the batched TX-op cost, and the DMA buffers are still
        // LLC-resident when the pass reaches them.
        let n_disks = s.catalog.n_disks();
        let depth = usize::from(NVME_QUEUE_DEPTH);
        for core in 0..s.cfg.cores {
            s.stack.sweep_serial += 1;
            let mut batch = std::mem::take(&mut s.stack.completed_scratch);
            debug_assert!(batch.is_empty());
            let cap_before = batch.capacity();
            for disk in 0..n_disks {
                let mark = batch.len();
                let cycles = {
                    let q = &mut s.stack.queues[core][disk];
                    q.nvme_consume_completions_into(
                        &mut s.stack.kernel,
                        now,
                        64,
                        &s.cfg.costs,
                        &mut batch,
                    )
                    .expect("consume")
                };
                if cycles > 0 {
                    s.prof.stage(core, ProfStage::Fetch);
                    s.cores.run_on(core, now, cycles);
                }
                if batch.len() > mark {
                    let q = &s.stack.queues[core][disk];
                    let outstanding = q.inflight() + q.staged_count();
                    for io in &batch[mark..] {
                        let lat = (io.completed_at - io.submitted_at).as_nanos();
                        s.ctl[core]
                            .tuner
                            .observe_completion(lat, outstanding, depth);
                    }
                }
            }
            dcn_obs::steady::note_growth(cap_before, batch.capacity());
            for io in batch.drain(..) {
                Self::complete_fetch(s, now, io);
            }
            s.stack.completed_scratch = batch;
        }
        Self::drain_tier(s, now);
    }

    /// Stamp NIC-DMA time (and LLC residency at that instant) for every
    /// chunk a drained burst carried — a burst whose payload DMA read
    /// touched zero DRAM bytes was served entirely from the LLC, the
    /// paper's ideal disk→LLC→wire path. Then §3 step 5: NIC TX
    /// completions recycle buffers (LIFO), and connections parked on a
    /// dry pool are re-pumped.
    fn on_tx_drained(s: &mut AtlasServer, now: Nanos, bursts: &[SentBurst]) {
        if s.stack.tracer.is_enabled() {
            for b in bursts.iter().filter(|b| b.completion != 0) {
                let tracer = &mut s.stack.tracer;
                tracer.stamp_tx(b.completion, Stage::NicTxDma, b.departed);
                tracer.llc_at_nic_dma_tx(b.completion, b.dma_dram_bytes == 0);
            }
        }
        for core in 0..s.cfg.cores {
            for token in s.nic.tx_rings[core].txsync_collect() {
                if token != 0 {
                    s.stack.tracer.finish_tx(token, now);
                    let (c, disk, buf) = untx_token(token);
                    s.stack.queues[c][disk].pool().free(buf);
                }
            }
        }
        s.wake_waiters(now);
        Self::flush_doorbells(s);
    }

    /// Disk completions, fetch retries, SQ resubmission, the overload
    /// sweep and cache-hit completions.
    fn next_io_at(s: &AtlasServer) -> Option<Nanos> {
        let st = &s.stack;
        let retry = st.retries.keys().next().map(|&(d, _)| d);
        // The overload sweep only needs to run while connections
        // exist; an empty server stays fully quiescent.
        let sweep = (s.ctl.live_conns() > 0).then_some(st.next_sweep);
        let cache = st.cache_ready.iter().map(|io| io.completed_at).min();
        earliest(
            earliest(st.kernel.poll_at(), retry),
            earliest(earliest(st.resync_at, sweep), cache),
        )
    }

    /// Buffer-pool depth, ladder rung and live connections per core,
    /// the diskmap kernel's totals, and the leak audit.
    fn publish(s: &mut AtlasServer) {
        for core in 0..s.cfg.cores {
            let free: u32 = s.stack.queues[core]
                .iter()
                .map(|q| q.pool_ref().available())
                .sum();
            s.reg.set(s.stack.ids.pool_free_bufs[core], f64::from(free));
            s.reg.set(
                s.stack.ids.overload_level[core],
                s.ctl[core].overload.level() as u8 as f64,
            );
            s.reg
                .set(s.stack.ids.live_conns[core], s.ctl[core].live_conns as f64);
        }
        s.stack.kernel.publish_metrics(&mut s.reg);
        let leaked = Atlas::leaked_buffers(s);
        s.reg.set(s.stack.ids.leaked_bufs, leaked as f64);
    }

    fn stack_served(s: &AtlasServer, front: ServedWork) -> ServedWork {
        let (reg, ids) = (&s.reg, &s.stack.ids);
        ServedWork {
            responses: reg.counter_sum(&ids.responses),
            http_payload_bytes: reg.counter_sum(&ids.http_payload_bytes),
            disk_reads: reg.counter_sum(&ids.disk_reads),
            disk_read_bytes: reg.counter_sum(&ids.disk_read_bytes),
            retransmit_fetches: reg.counter_sum(&ids.retransmit_fetches),
            fetch_retries: reg.counter_sum(&ids.fetch_retries),
            reaped_idle: reg.counter_sum(&ids.reaped_idle),
            aborted_slow: reg.counter_sum(&ids.aborted_slow),
            ..front
        }
    }

    /// Device faults and SQ rejects from the diskmap kernel, aborted
    /// connections through their counter.
    fn stack_faults(s: &AtlasServer) -> FaultCounts {
        let (nvme_read_errors, nvme_latency_spikes) = s.stack.kernel.nvme_fault_totals();
        FaultCounts {
            nvme_read_errors,
            nvme_latency_spikes,
            sq_rejects: s.stack.kernel.sq_rejects(),
            conns_aborted: s.reg.counter_value(s.stack.ids.conns_aborted),
            ..FaultCounts::default()
        }
    }

    /// Device-level read errors and latency spikes per disk, SQ
    /// admission rejects in the kernel.
    fn inject_faults(s: &mut AtlasServer, f: &FaultConfig, seed: u64) {
        for d in 0..s.catalog.n_disks() {
            s.stack
                .kernel
                .disk(DiskId(d))
                .set_faults(f.nvme, seed ^ ((d as u64 + 1) << 32));
        }
        s.stack.kernel.set_sq_faults(f.nvme.sq_reject_p, seed);
    }

    fn on_accept(s: &mut AtlasServer, now: Nanos, slot_idx: usize) {
        let conn = &mut s.front.slots[slot_idx].conn;
        conn.established_at = now;
        conn.last_progress = now;
        conn.drain_mark_at = now;
        s.reg.inc(s.stack.ids.conns);
    }

    /// Any fetch this event's processing issues is stamped with the
    /// event's time.
    fn on_wire_event(s: &mut AtlasServer, now: Nanos) {
        s.stack.trace_rx_at = now;
    }

    /// A complete request head (not a 431) is progress for the
    /// header-read and idle deadlines.
    fn note_requests(s: &mut AtlasServer, now: Nanos, slot_idx: usize, answers: &[Answer]) {
        if answers
            .iter()
            .any(|(info, _)| *info != ResponseInfo::HeaderTooLarge)
        {
            let conn = &mut s.front.slots[slot_idx].conn;
            conn.got_request = true;
            conn.last_progress = now;
        }
    }

    /// Ring the doorbells for the fetches the RX frames staged before
    /// the NIC drains.
    fn before_rx_drain(s: &mut AtlasServer) {
        Self::flush_doorbells(s);
    }

    /// DMA buffers not free and not accounted for by any legitimate
    /// holder (in-flight fetch, parked record, NIC TX pipeline, or a
    /// scheduled retry — which holds no buffer). Nonzero means a leak.
    fn leaked_buffers(s: &AtlasServer) -> i64 {
        let (free, capacity) = s.stack.pool_totals();
        let inflight = s.stack.fetches.len() as i64;
        let parked: i64 = s
            .front
            .slots
            .iter()
            .map(|slot| slot.conn.ready_tx.values().filter(|r| r.token != 0).count() as i64)
            .sum();
        let in_nic: i64 = s
            .nic
            .tx_rings
            .iter()
            .map(|r| r.unreclaimed_tokens() as i64)
            .sum();
        i64::from(capacity) - i64::from(free) - inflight - parked - in_nic
    }

    fn pool(s: &AtlasServer) -> Option<(u32, u32)> {
        Some(s.stack.pool_totals())
    }

    fn tracer(s: &AtlasServer) -> Option<&Tracer> {
        Some(&s.stack.tracer)
    }
}

/// The data path over the shell's parts.
impl Atlas {
    /// Transmit ready items whose stream offset has arrived — disk
    /// completions may arrive out of order, the TCP stream goes out
    /// in order.
    fn drain_tx(s: &mut AtlasServer, now: Nanos, slot_idx: usize) {
        let core = s.front.slots[slot_idx].core;
        loop {
            // TX-ring backpressure: if the ring is full the item
            // stays parked in `ready_tx`. TX completions do not retry
            // it: only this connection's next TCB event (ACK, request,
            // timer), its next disk completion, or a wake from the
            // buffer-waiter list drains it again. A connection with
            // none of those coming holds the record's buffer until
            // the minimum-drain deadline aborts it.
            if s.nic.tx_rings[core].space() == 0 {
                break;
            }
            let slot = &mut s.front.slots[slot_idx];
            let cursor = slot.tcb.stream_offset_of_snd_nxt();
            let Some((&off, _)) = slot.conn.ready_tx.first_key_value() else {
                break;
            };
            debug_assert!(
                off >= cursor,
                "ready item behind the stream: {off} < {cursor}"
            );
            if off != cursor {
                // A hole: an earlier record's disk read is still in
                // flight — the in-order stream is NVMe-wait stalled.
                s.prof.stall(StallKind::NvmeWait);
                break;
            }
            let item = slot.conn.ready_tx.remove(&off).expect("just peeked");
            let len = item.sg.len();
            slot.conn.reserved = slot.conn.reserved.saturating_sub(len);
            if item.completes_response {
                slot.conn.responses_completed += 1;
                s.reg.inc(s.stack.ids.responses[core]);
            }
            let out = slot.tcb.send_data(now, item.sg, false);
            s.nic.tx_rings[core].push(out.into_tx(item.token));
            if item.token != 0 {
                s.stack
                    .tracer
                    .stamp_tx(item.token, Stage::TsoPacketize, now);
            }
        }
    }

    /// §3 steps 1–2: issue on-demand reads for the active response
    /// while window space clears the watermark.
    fn pump(s: &mut AtlasServer, now: Nanos, slot_idx: usize) {
        let core = s.front.slots[slot_idx].core;
        // Tuned per-core operating point (the fixed `cfg.watermark`
        // and an unbounded cap when autotuning is off).
        let watermark = s.ctl[core].tuner.watermark();
        let inflight_cap = s.ctl[core].tuner.inflight_cap();
        loop {
            let slot = &mut s.front.slots[slot_idx];
            // Start the next queued request if the active one is done.
            let Some(layout) = slot.conn.active_layout() else {
                break;
            };
            let record = slot.conn.next_record;
            let wire = layout.record_wire_len(record);
            let usable = slot.tcb.usable_window().saturating_sub(slot.conn.reserved);
            // The §3.2 watermark rule: issue the I/O once the window
            // clears 10×MSS (or the whole remaining tail, whichever is
            // smaller). A full 16 KiB record may overshoot the window
            // by up to record−watermark bytes — the paper sizes the
            // watermark so the fetched data is consumable immediately.
            //
            // Fallback (also §3.2): "if a TCP connection experiences a
            // retransmit timeout, or the effective window is smaller
            // than this high-watermark value and all sent data is
            // acknowledged, then we fall back issuing smaller I/O
            // requests" — without it, a post-loss cwnd below the
            // watermark with nothing in flight would deadlock the ACK
            // clock.
            let idle = slot.tcb.inflight() == 0
                && slot.conn.fetches_inflight == 0
                && slot.conn.retx_inflight == 0
                && slot.conn.ready_tx.is_empty();
            if usable < watermark.min(wire) && !idle {
                // Window below the watermark with data in flight: the
                // pipeline is waiting on client ACKs, not on us.
                s.prof.stall(StallKind::CwndLimited);
                break;
            }
            // Tuned in-flight cap: when the tuner has backed off
            // (queueing latency or SQ saturation), stop issuing once
            // the core's outstanding reads reach the cap.
            if inflight_cap != u32::MAX {
                let outstanding: u32 = s.stack.queues[core]
                    .iter()
                    .map(|q| (q.inflight() + q.staged_count()) as u32)
                    .sum();
                if outstanding >= inflight_cap {
                    s.prof.stall(StallKind::NvmeWait);
                    break;
                }
            }
            let file = layout.file;
            let plain = layout.record_plain_len(record);
            let file_off = layout.record_file_off(record);
            let layout_id = layout.id;
            // Fair-share read-ahead: once the target (core, disk) pool
            // is down to half free, a connection already holding its
            // share of the core's buffers waits for its own next
            // completion or ACK instead of reserving the whole usable
            // window — a keep-alive cwnd of ~14 records per response
            // would otherwise drain the pool into the overload latch.
            // Uncontended pools keep deep read-ahead (cold-tier
            // fetches need it).
            let pool = s.stack.queues[core][s.catalog.locate(file, file_off).disk].pool_ref();
            if pool.available() * 2 <= pool.capacity() {
                let pool_bufs = s.cfg.bufs_per_queue as usize * s.catalog.n_disks();
                let share = (pool_bufs / s.ctl[core].live_conns.max(1)).max(1);
                if slot.conn.read_ahead() >= share {
                    s.reg.inc(s.stack.ids.share_limited[core]);
                    break;
                }
            }
            slot.conn.next_record += 1;
            slot.conn.reserved += wire;
            slot.conn.fetches_inflight += 1;
            let issued = Self::issue_fetch(
                s,
                now,
                slot_idx,
                InflightFetch {
                    layout_id,
                    record,
                    retx: None,
                },
                file,
                file_off,
                plain,
                0,
            );
            if !issued {
                // Buffer pool exhausted (TX completions will recycle
                // buffers shortly): undo, park on the waiter list —
                // the reclaim path re-pumps parked connections the
                // moment a buffer frees — and stop this round.
                let slot = &mut s.front.slots[slot_idx];
                slot.conn.next_record -= 1;
                slot.conn.reserved -= wire;
                slot.conn.fetches_inflight -= 1;
                s.park(core, slot_idx);
                s.prof.stall(StallKind::PoolEmpty);
                break;
            }
            s.end_wait(slot_idx);
        }
    }

    /// Stage + submit one disk read. Returns false when the buffer
    /// pool is exhausted (caller decides how to back off). `attempt`
    /// is 0 for first issues; the retry policy re-enters with 1..=N.
    #[allow(clippy::too_many_arguments)]
    fn issue_fetch(
        s: &mut AtlasServer,
        now: Nanos,
        slot_idx: usize,
        fetch: InflightFetch,
        file: dcn_store::FileId,
        file_off: u64,
        plain_len: u64,
        attempt: u32,
    ) -> bool {
        let core = s.front.slots[slot_idx].core;
        let (loc, aligned_len, _pre) = s.catalog.read_span(file, file_off, plain_len);
        let q = &mut s.stack.queues[core][loc.disk];
        // Retransmit-fetch priority: hold the last few buffers back
        // from fresh fetches so a connection in RTO recovery is never
        // starved behind newly admitted traffic. (Clamped so tiny
        // test pools aren't wedged by the reserve its.)
        let reserve = RETX_RESERVE_BUFS.min(q.pool_ref().capacity() / 4);
        if fetch.retx.is_none() && q.pool_ref().available() <= reserve {
            return false;
        }
        let Some(buf) = q.pool().alloc() else {
            return false;
        };
        let token = s.stack.next_token;
        s.stack.next_token += 1;
        let aligned = aligned_len.min(q.pool_ref().buf_size());
        // Route the fetch: DMA-cache probe first (a resident chunk
        // needs no storage round trip at all, hot or cold), then tier
        // residency — cold objects GET from the object store, hot
        // objects read the NVMe flat namespace as always. Every route
        // holds a pool buffer from here to TX reclaim, so cold misses
        // exert the same pool pressure admission control watches.
        let mut src = FetchSrc::Nvme;
        let mut cache_slot = 0usize;
        if let Some(cache) = s.cache.as_mut() {
            let ids = s.tier_ids.as_ref().expect("tier ids registered");
            match cache.lookup(file, file_off, plain_len) {
                Some(hit) => {
                    src = FetchSrc::Cache;
                    cache_slot = hit;
                    s.reg.inc(ids.cache_hits[core]);
                }
                None => s.reg.inc(ids.cache_misses[core]),
            }
        }
        if src == FetchSrc::Nvme {
            if let Some(tier) = s.tier.as_ref() {
                if tier.placement(file) == Placement::Cold {
                    src = FetchSrc::Cold;
                }
            }
        }
        match src {
            FetchSrc::Nvme => {
                q.nvme_read(
                    IoDesc {
                        user: token,
                        buf,
                        nsid: loc.nsid,
                        offset: loc.dev_offset,
                        len: aligned,
                    },
                    &s.cfg.costs,
                );
                // Doorbell batching: the command is staged now; one
                // `nvme_sqsync` per dirty (core, disk) queue at the end of
                // the control-loop pass rings the doorbell for every fetch
                // the pass produced, amortizing the syscall across the batch.
                // The per-command SQE-build cycles are accrued inside the
                // queue and charged at flush; the per-chunk profiler sample
                // here is the command's own share of the submit work.
                s.stack
                    .dirty_doorbells
                    .entry((core, loc.disk))
                    .and_modify(|t| *t = (*t).max(now))
                    .or_insert(now);
                s.prof.stage(core, ProfStage::Fetch);
                s.prof
                    .chunk(ProfStage::Fetch, s.cfg.costs.nvme_submit_cycles);
            }
            FetchSrc::Cold => {
                // Issue a byte-range GET to the cold store. No SQE, no
                // doorbell — the request leaves over the NIC; its cost
                // here is the same submit-side CPU work as a disk read.
                let tier = s.tier.as_mut().expect("cold route without tier");
                tier.cold_fetch(now, file, file_off, aligned, token);
                s.prof.stage(core, ProfStage::Fetch);
                s.prof
                    .chunk(ProfStage::Fetch, s.cfg.costs.nvme_submit_cycles);
                s.cores.run_on(core, now, s.cfg.costs.nvme_submit_cycles);
            }
            FetchSrc::Cache => {
                // Serve from the DMA cache: copy slot → pool buffer,
                // charging the memory system both sides of the copy —
                // the DRAM bandwidth the ablation is asking about.
                let buf_region = s.stack.queues[core][loc.disk].buf_region(buf, plain_len);
                let slot_region = s.cache_slots[cache_slot];
                let rd = s.mem.cpu_read(now, slot_region);
                let wr = s.mem.cpu_write(now, buf_region);
                let cycles = rd.stall_cycles
                    + wr.stall_cycles
                    + (plain_len as f64 * s.cfg.costs.memcpy_cycles_per_byte) as u64;
                s.prof.stage(core, ProfStage::Fetch);
                s.prof.chunk(ProfStage::Fetch, cycles);
                let done = s.cores.run_on(core, now, cycles);
                if s.cfg.fidelity == Fidelity::Full {
                    let data = s.host.read_region(slot_region);
                    s.host.update_region(buf_region, |d| {
                        let n = d.len();
                        d.copy_from_slice(&data[..n]);
                    });
                }
                s.stack.cache_ready.push(dcn_diskmap::CompletedIo {
                    user: token,
                    buf,
                    len: aligned,
                    status: dcn_diskmap::IoStatus::Ok,
                    submitted_at: now,
                    completed_at: done,
                });
            }
        }
        s.stack
            .fetches
            .insert(token, (slot_idx, fetch, buf, loc.disk, attempt, src));
        if fetch.retx.is_some() {
            s.reg.inc(s.stack.ids.retransmit_fetches[core]);
        }
        if s.stack.tracer.is_enabled() {
            let kind = if fetch.retx.is_some() {
                ChunkKind::RetransmitFetch
            } else {
                ChunkKind::Fresh
            };
            s.stack
                .tracer
                .begin(token, slot_idx as u64, core as u32, file_off, aligned, kind);
            s.stack
                .tracer
                .stamp(token, Stage::AckArrival, s.stack.trace_rx_at);
            if fetch.retx.is_none() {
                // A retransmit fetch is loss-driven, not watermark-
                // driven; the stage is legitimately absent for it.
                s.stack.tracer.stamp(token, Stage::WatermarkTrigger, now);
            }
            // Staging time; the doorbell rings at pass end, at the
            // latest staging time recorded for this queue.
            s.stack.tracer.stamp(token, Stage::NvmeSubmit, now);
        }
        true
    }

    /// Ring the doorbell once per (core, disk) queue that staged
    /// reads during this control-loop pass: one `nvme_sqsync` syscall
    /// covers every command the pass produced for that queue (the §3
    /// batching argument, applied to the storage side). Called at the
    /// end of every public entry point; between public calls no
    /// intentionally-staged command remains (QueueFull leftovers are
    /// re-driven via `resync_at`).
    fn flush_doorbells(s: &mut AtlasServer) {
        while let Some(((core, disk), at)) = s.stack.dirty_doorbells.pop_first() {
            let q = &mut s.stack.queues[core][disk];
            if q.staged_count() == 0 {
                continue;
            }
            let cycles = q
                .nvme_sqsync(&mut s.stack.kernel, at, &s.cfg.costs)
                .expect("sqsync");
            if q.staged_count() > 0 {
                // The SQ refused (part of) the batch — QueueFull
                // backpressure, real or injected. The commands stay
                // staged; schedule a resubmission pass.
                let t = at + RESYNC_DELAY;
                s.stack.resync_at = Some(s.stack.resync_at.map_or(t, |x| x.min(t)));
            }
            s.prof.stage(core, ProfStage::Fetch);
            s.cores.run_on(core, at, cycles);
        }
    }

    /// Tiered-catalog service, run each `advance` after the NVMe
    /// sweep: epoch work (heat decay, promotion launches), cold-store
    /// completions, and deferred cache-hit completions. Cold demand
    /// misses materialize their bytes into the DMA buffer reserved at
    /// issue (arriving over the NIC, charged as NIC DMA) and then ride
    /// the ordinary encrypt→packetize path; promotion reads are
    /// absorbed inside the engine. Deliberately *not* fed to the
    /// I/O-window tuner — cold latency is not an NVMe signal.
    fn drain_tier(s: &mut AtlasServer, now: Nanos) {
        if let Some(tier) = s.tier.as_mut() {
            tier.maybe_epoch(now);
            let mut tickets = std::mem::take(&mut s.stack.cold_scratch);
            debug_assert!(tickets.is_empty());
            tier.drain_serving(now, &mut tickets);
            if !tickets.is_empty() {
                s.stack.sweep_serial += 1;
                for tk in tickets.drain(..) {
                    let Some(&(slot_idx, _, buf, disk, _, _)) = s.stack.fetches.get(&tk.token)
                    else {
                        continue;
                    };
                    let core = s.front.slots[slot_idx].core;
                    let region = s.stack.queues[core][disk].buf_region(buf, tk.len);
                    if s.cfg.fidelity == Fidelity::Full {
                        let seed = s.catalog.file_seed(tk.file);
                        s.host
                            .update_region(region, |data| prf_bytes(seed, tk.offset, data));
                    }
                    s.prof.stage(core, ProfStage::Fetch);
                    s.mem.dma_write(now, Agent::NicDma, region);
                    if let Some(ids) = &s.tier_ids {
                        ids.note_cold_fill(&mut s.reg, core, &tk);
                    }
                    Self::complete_fetch(
                        s,
                        now,
                        dcn_diskmap::CompletedIo {
                            user: tk.token,
                            buf,
                            len: tk.len,
                            status: dcn_diskmap::IoStatus::Ok,
                            submitted_at: tk.issued_at,
                            completed_at: tk.done_at,
                        },
                    );
                }
            }
            s.stack.cold_scratch = tickets;
        }
        if !s.stack.cache_ready.is_empty() {
            s.stack.sweep_serial += 1;
            let mut i = 0;
            while i < s.stack.cache_ready.len() {
                if s.stack.cache_ready[i].completed_at <= now {
                    let io = s.stack.cache_ready.swap_remove(i);
                    Self::complete_fetch(s, now, io);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// §3 step 4: read completion → (encrypt in place) → packetize →
    /// transmit.
    fn complete_fetch(s: &mut AtlasServer, now: Nanos, io: dcn_diskmap::CompletedIo) {
        let Some((slot_idx, fetch, buf, disk, attempt, src)) = s.stack.fetches.remove(&io.user)
        else {
            return;
        };
        s.stack
            .tracer
            .stamp(io.user, Stage::FirmwareComplete, io.completed_at);
        let core = s.front.slots[slot_idx].core;
        let costs = s.cfg.costs;
        if s.front.slots[slot_idx].conn.aborted {
            // Late completion for a torn-down connection: the only
            // obligation left is returning the buffer to its pool.
            s.stack.queues[core][disk].pool().free(buf);
            s.stack.tracer.discard(io.user);
            return;
        }
        if io.status != dcn_diskmap::IoStatus::Ok {
            Self::fetch_failed(s, now, io.user, slot_idx, fetch, buf, disk, attempt);
            return;
        }
        let slot = &mut s.front.slots[slot_idx];
        slot.conn.fetch_failures = 0;
        let Some(layout) = slot.conn.layout_by_id(fetch.layout_id) else {
            // The response was fully acked and pruned while this
            // (retransmit) fetch was in flight: drop it, and undo the
            // in-flight accounting so the idle-fallback logic doesn't
            // see a phantom fetch forever.
            match fetch.retx {
                Some(_) => {
                    slot.conn.retx_inflight = slot.conn.retx_inflight.saturating_sub(1);
                    slot.tcb.retransmit_abandoned();
                }
                None => {
                    slot.conn.fetches_inflight = slot.conn.fetches_inflight.saturating_sub(1);
                }
            }
            s.stack.queues[core][disk].pool().free(buf);
            s.stack.tracer.discard(io.user);
            return;
        };
        let layout = layout.clone();
        let plain_len = layout.record_plain_len(fetch.record);
        let buf_region = s.stack.queues[core][disk].buf_region(buf, plain_len);
        // Batched packetize: the second and later records of the same
        // connection within one completion sweep reuse the hot TCB
        // state, the previous record's header template and the shared
        // TX-ring doorbell, at the reduced batched op cost.
        let batched = slot.conn.tx_sweep == s.stack.sweep_serial;
        slot.conn.tx_sweep = s.stack.sweep_serial;
        let tx_op_cycles = if batched {
            costs.tcp_tx_batched_op_cycles
        } else {
            costs.tcp_tx_op_cycles
        };
        let mut cycles = tx_op_cycles;

        // DMA-cache fill: capture the plaintext record before the
        // in-place encrypt below scrambles the buffer. Fresh fetches
        // only, and only for objects hot enough to filter one-hit
        // wonders; a record already resident (including the one this
        // completion was itself served from) is a no-op. Both sides of
        // the copy are charged to the memory system — the cache's
        // DRAM cost is never free.
        if fetch.retx.is_none() && src != FetchSrc::Cache {
            if let Some(cache) = s.cache.as_mut() {
                let hot_enough = s
                    .tier
                    .as_ref()
                    .is_none_or(|t| t.heat(layout.file) >= INSERT_MIN_HEAT);
                if hot_enough && plain_len <= cache.slot_bytes() {
                    let rec_file_off = layout.record_file_off(fetch.record);
                    if let Some(slot_i) = cache.insert(layout.file, rec_file_off, plain_len) {
                        let slot_region = s.cache_slots[slot_i];
                        let rd = s.mem.cpu_read(now, buf_region);
                        let wr = s.mem.cpu_write(now, slot_region);
                        cycles += rd.stall_cycles
                            + wr.stall_cycles
                            + (plain_len as f64 * costs.memcpy_cycles_per_byte) as u64;
                        if s.cfg.fidelity == Fidelity::Full {
                            let data = s.host.read_region(buf_region);
                            s.host.update_region(slot_region, |d| {
                                d[..data.len()].copy_from_slice(&data);
                            });
                        }
                    }
                }
            }
        }

        // Encrypt in place (the LLC-resident DMA buffer), derive the
        // nonce from the record's position in the stream.
        let mut framing_tag: Option<([u8; 5], [u8; 16])> = None;
        if layout.encrypted {
            // Fig 12/14 classification, per chunk: is the DMA'd
            // buffer still LLC-resident as the CPU starts the
            // in-place encrypt? (Non-mutating probe — tracing on or
            // off, the simulation is bit-identical.)
            if s.stack.tracer.is_enabled() {
                let resident = s.mem.probe_region(buf_region);
                s.stack.tracer.llc_at_encrypt(io.user, resident);
                s.stack.tracer.stamp(io.user, Stage::EncryptStart, now);
            }
            s.prof.stage(core, ProfStage::Encrypt);
            s.prof.encrypt_bytes(plain_len);
            let rmw = s.mem.cpu_rmw(now, buf_region);
            let enc_cycles =
                rmw.stall_cycles + (plain_len as f64 * costs.aes_gcm_cycles_per_byte) as u64;
            cycles += enc_cycles;
            s.prof.chunk(ProfStage::Encrypt, enc_cycles);
            let record_plain_off = fetch.record * RECORD_PAYLOAD_MAX;
            // Only a server that seals bytes holds a cipher.
            let tag = if let Some(cipher) = slot.cipher.as_deref() {
                s.host.update_region(buf_region, |data| {
                    cipher.seal_record(record_plain_off, data)
                })
            } else {
                [0u8; 16]
            };
            framing_tag = Some((record_header(plain_len), tag));
        } else {
            // Plaintext path still touches headers only; payload goes
            // DMA→DMA untouched (the paper's Fig 5 ideal).
            s.prof.stage(core, ProfStage::Packetize);
        }

        // Build the record's wire SgList. TLS framing (5-byte record
        // header, 16-byte GCM tag) rides inline in the chunk — no
        // heap allocation per record.
        let mut sg = SgList::empty();
        if let Some((hdr, tag)) = &framing_tag {
            sg.push_inline(hdr);
            sg.push_region(buf_region);
            sg.push_inline(tag);
        } else {
            sg.push_region(buf_region);
        }

        s.prof.chunk(ProfStage::Packetize, tx_op_cycles);
        s.prof.chunk_done(core);
        let done_at = s.cores.run_on(core, now, cycles);
        if layout.encrypted {
            s.stack.tracer.stamp(io.user, Stage::EncryptEnd, done_at);
        }
        let token = tx_token(core, disk, buf);
        s.stack.tracer.map_tx(token, io.user);
        match fetch.retx {
            None => {
                slot.conn.fetches_inflight -= 1;
                s.reg.inc(s.stack.ids.disk_reads[core]);
                s.reg.add(s.stack.ids.http_payload_bytes[core], sg.len());
                // `disk_read_bytes` counts storage reads (NVMe or the
                // cold store); a cache hit moved no storage bytes.
                if src != FetchSrc::Cache {
                    s.reg.add(s.stack.ids.disk_read_bytes[core], io.len);
                }
                let last = fetch.record + 1 == layout.n_records()
                    && fetch.layout_id + 1 == slot.conn.next_layout_id;
                // Park at the record's stream offset; drain sends
                // everything in order.
                let prev = slot.conn.ready_tx.insert(
                    layout.record_stream_off(fetch.record),
                    crate::conn::ReadyTx {
                        sg,
                        token,
                        completes_response: last,
                    },
                );
                debug_assert!(
                    prev.is_none(),
                    "duplicate fetch parked at one stream offset (would leak a buffer)"
                );
                Self::drain_tx(s, done_at, slot_idx);
            }
            Some((off, len)) => {
                slot.conn.retx_inflight -= 1;
                s.reg.inc(s.stack.ids.disk_reads[core]);
                if s.nic.tx_rings[core].space() == 0 {
                    // TX ring full: a push would be rejected and the
                    // descriptor — with its DMA buffer — dropped on
                    // the floor. Same policy as a failed retransmit
                    // read: recycle the buffer and abandon to the
                    // RTO, which re-drives the range.
                    slot.tcb.retransmit_abandoned();
                    s.stack.queues[core][disk].pool().free(buf);
                    s.stack.tracer.discard(io.user);
                } else {
                    // Slice exactly the requested wire range out of
                    // the regenerated record; retransmissions bypass
                    // the ordered queue (their stream position is
                    // explicit).
                    let mut rest = sg;
                    let _ = rest.split_front(off);
                    let mut want = rest;
                    let piece = want.split_front(len.min(want.len()));
                    let stream_off = layout.record_stream_off(fetch.record) + off;
                    let out = slot.tcb.send_retransmit(done_at, stream_off, piece);
                    s.nic.tx_rings[core].push(out.into_tx(token));
                    s.stack.tracer.stamp_tx(token, Stage::TsoPacketize, done_at);
                }
            }
        }
        // Keep pumping: completing a fetch freed a buffer slot and the
        // window may allow more.
        Self::pump(s, done_at, slot_idx);
        s.front.sync_timer(slot_idx);
    }

    /// Recovery policy for a read that completed with an error. The
    /// buffer is returned immediately (the DMA never happened; its
    /// content is garbage). Fresh fetches retry with exponential
    /// backoff up to [`MAX_FETCH_RETRIES`]; retransmit fetches are
    /// abandoned to the RTO, which re-drives them — the mechanism
    /// that survives a second failure. Past [`MAX_CONN_FAILURES`]
    /// consecutive errors the connection is degraded away.
    #[allow(clippy::too_many_arguments)]
    fn fetch_failed(
        s: &mut AtlasServer,
        now: Nanos,
        user: u64,
        slot_idx: usize,
        fetch: InflightFetch,
        buf: BufId,
        disk: usize,
        attempt: u32,
    ) {
        let core = s.front.slots[slot_idx].core;
        s.stack.queues[core][disk].pool().free(buf);
        s.stack.tracer.discard(user);
        s.reg.inc(s.stack.ids.fetch_errors[core]);
        let slot = &mut s.front.slots[slot_idx];
        slot.conn.fetch_failures += 1;
        let failures = slot.conn.fetch_failures;
        match fetch.retx {
            Some(_) => {
                slot.conn.retx_inflight -= 1;
                slot.tcb.retransmit_abandoned();
                if failures > MAX_CONN_FAILURES {
                    Self::abort_conn(s, now, slot_idx);
                } else {
                    // The RTO timer is armed (unacked data exists by
                    // definition of a retransmission); it will ask
                    // again.
                    s.front.sync_timer(slot_idx);
                }
            }
            None => {
                if attempt >= MAX_FETCH_RETRIES || failures > MAX_CONN_FAILURES {
                    Self::abort_conn(s, now, slot_idx);
                } else {
                    s.reg.inc(s.stack.ids.fetch_retries[core]);
                    let backoff =
                        Nanos::from_nanos(FETCH_RETRY_BACKOFF.as_nanos() << attempt.min(16));
                    let serial = s.stack.next_retry;
                    s.stack.next_retry += 1;
                    // fetches_inflight / reserved / next_record keep
                    // counting this record — it is still logically in
                    // flight until the retry resolves it.
                    s.stack.retries.insert(
                        (now + backoff, serial),
                        RetryEntry {
                            slot_idx,
                            fetch,
                            attempt: attempt + 1,
                        },
                    );
                }
            }
        }
    }

    /// Re-issue failed fresh fetches whose backoff deadline passed.
    fn fire_retries(s: &mut AtlasServer, now: Nanos) {
        while let Some((&(deadline, serial), _)) = s.stack.retries.first_key_value() {
            if deadline > now {
                break;
            }
            let entry = s.stack.retries.remove(&(deadline, serial)).expect("peeked");
            let slot = &mut s.front.slots[entry.slot_idx];
            if slot.conn.aborted {
                continue; // teardown already reconciled the counters
            }
            let Some(layout) = slot.conn.layout_by_id(entry.fetch.layout_id) else {
                // Unreachable for fresh fetches in practice (an unsent
                // record's layout can't be pruned); reconcile anyway.
                slot.conn.fetches_inflight = slot.conn.fetches_inflight.saturating_sub(1);
                continue;
            };
            let file = layout.file;
            let plain = layout.record_plain_len(entry.fetch.record);
            let file_off = layout.record_file_off(entry.fetch.record);
            s.stack.trace_rx_at = now;
            let issued = Self::issue_fetch(
                s,
                now,
                entry.slot_idx,
                entry.fetch,
                file,
                file_off,
                plain,
                entry.attempt,
            );
            if !issued {
                // Pool exhausted: try again one backoff later without
                // consuming an attempt.
                let serial = s.stack.next_retry;
                s.stack.next_retry += 1;
                s.stack.retries.insert(
                    (now + FETCH_RETRY_BACKOFF, serial),
                    RetryEntry {
                        attempt: entry.attempt,
                        ..entry
                    },
                );
            }
        }
    }

    /// Resubmit staged-but-unadmitted NVMe commands after SQ
    /// backpressure (QueueFull, real or injected).
    fn resync_staged(s: &mut AtlasServer, now: Nanos) {
        let mut still_staged = false;
        for core in 0..s.cfg.cores {
            for disk in 0..s.catalog.n_disks() {
                let q = &mut s.stack.queues[core][disk];
                if q.staged_count() == 0 {
                    continue;
                }
                let cycles = q
                    .nvme_sqsync(&mut s.stack.kernel, now, &s.cfg.costs)
                    .expect("sqsync");
                s.prof.stage(core, ProfStage::Fetch);
                s.cores.run_on(core, now, cycles);
                if q.staged_count() > 0 {
                    still_staged = true;
                }
            }
        }
        if still_staged {
            let at = now + RESYNC_DELAY;
            s.stack.resync_at = Some(s.stack.resync_at.map_or(at, |t| t.min(at)));
        }
    }

    /// Periodic overload sweep: update the hysteretic latch, walk the
    /// degradation ladder, and enforce the slow-client deadlines —
    /// header-read timeout, idle keepalive reaping, and the
    /// minimum-drain-rate check for connections pinning DMA buffers.
    fn overload_sweep(s: &mut AtlasServer, now: Nanos) {
        let acfg = s.cfg.admission;
        for core in 0..s.cfg.cores {
            let snap = Self::snapshot(s, core);
            s.ctl[core].overload.observe(&acfg, snap);
            let level = s.ctl[core].overload.on_sweep();
            // Under pressure idle conns are reaped much sooner: a
            // few sweeps of silence instead of the full keepalive
            // allowance (kept above a WAN RTT so a healthy client
            // between requests isn't collateral damage).
            let idle_cut = if level >= LadderLevel::ReapIdle {
                IDLE_TIMEOUT.min(Nanos::from_nanos(SWEEP_INTERVAL.as_nanos() * 4))
            } else {
                IDLE_TIMEOUT
            };
            let min_drain_per_window = u128::from(MIN_DRAIN_BYTES_PER_SEC)
                * u128::from(DRAIN_WINDOW.as_nanos())
                / 1_000_000_000;
            let slot_ids: Vec<usize> = (0..s.front.slots.len())
                .filter(|&i| s.front.slots[i].core == core && !s.front.slots[i].conn.aborted)
                .collect();
            let mut slowest: Option<(u64, usize)> = None;
            for slot_idx in slot_ids {
                let conn = &mut s.front.slots[slot_idx].conn;
                // Slowloris defense: handshake done, no complete
                // request head within the deadline.
                if !conn.got_request && now - conn.established_at > HEADER_TIMEOUT {
                    Self::abort_conn(s, now, slot_idx);
                    s.reg.inc(s.stack.ids.reaped_idle[core]);
                    continue;
                }
                // Idle keepalive reaping.
                if conn.got_request && conn.is_idle() && now - conn.last_progress > idle_cut {
                    Self::abort_conn(s, now, slot_idx);
                    s.reg.inc(s.stack.ids.reaped_idle[core]);
                    continue;
                }
                // Minimum-drain-rate check: a reader that holds DMA
                // buffers must ack at least `MIN_DRAIN_BYTES_PER_SEC`
                // over the window, or it loses the buffers.
                let holding = conn.holds_buffers();
                if !holding {
                    conn.drain_mark = conn.acked_stream_off;
                    conn.drain_mark_at = now;
                } else if now - conn.drain_mark_at >= DRAIN_WINDOW {
                    let drained = u128::from(conn.acked_stream_off - conn.drain_mark);
                    if drained < min_drain_per_window {
                        Self::abort_conn(s, now, slot_idx);
                        s.reg.inc(s.stack.ids.aborted_slow[core]);
                        continue;
                    }
                    conn.drain_mark = conn.acked_stream_off;
                    conn.drain_mark_at = now;
                }
                // Abort-slowest candidate ranking: least ack progress
                // since the previous sweep among buffer holders.
                let progressed = conn.acked_stream_off - conn.sweep_acked;
                conn.sweep_acked = conn.acked_stream_off;
                if holding && slowest.is_none_or(|(p, _)| progressed < p) {
                    slowest = Some((progressed, slot_idx));
                }
            }
            if level == LadderLevel::AbortSlowest {
                if let Some((_, victim)) = slowest {
                    Self::abort_conn(s, now, victim);
                    s.reg.inc(s.stack.ids.aborted_slow[core]);
                }
            }
        }
    }

    /// Graceful per-connection degradation: tear one connection down
    /// while keeping the server's buffer economy intact. Every DMA
    /// buffer the connection holds goes back to its LIFO pool — the
    /// parked records here, in-flight fetches when they complete, and
    /// frames already on the NIC TX path via normal completion
    /// collection.
    fn abort_conn(s: &mut AtlasServer, now: Nanos, slot_idx: usize) {
        let slot = &mut s.front.slots[slot_idx];
        if slot.conn.aborted {
            return;
        }
        slot.conn.aborted = true;
        let core = slot.core;
        // Tell the peer: one RST (best-effort — a full TX ring just
        // drops it and the client's RTO discovers the teardown).
        let rst = slot.tcb.send_rst();
        if s.nic.tx_rings[core].space() > 0 {
            s.nic.tx_rings[core].push(rst.into_tx(0));
        }
        let slot = &mut s.front.slots[slot_idx];
        let ready = std::mem::take(&mut slot.conn.ready_tx);
        slot.conn.reserved = 0;
        slot.conn.layouts.clear();
        for item in ready.into_values() {
            if item.token != 0 {
                s.stack.tracer.finish_tx(item.token, now);
                let (c, d, b) = untx_token(item.token);
                s.stack.queues[c][d].pool().free(b);
            }
        }
        s.front.close(slot_idx);
        s.unpark(core, slot_idx);
        s.ctl.note_conn_closed(core);
        s.reg.inc(s.stack.ids.conns_aborted);
    }
}

/// How long to wait before resubmitting staged NVMe commands after SQ
/// backpressure. Short relative to a stripe service time: a real
/// driver would retry on the next doorbell opportunity.
const RESYNC_DELAY: Nanos = Nanos::from_micros(5);

fn tx_token(core: usize, disk: usize, buf: BufId) -> u64 {
    1 | (core as u64) << 1 | (disk as u64) << 9 | u64::from(buf.0) << 17
}

fn untx_token(token: u64) -> (usize, usize, BufId) {
    (
        ((token >> 1) & 0xFF) as usize,
        ((token >> 9) & 0xFF) as usize,
        BufId((token >> 17) as u32),
    )
}
