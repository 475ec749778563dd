//! The connection front end both stacks run.
//!
//! Atlas and the kernel-stack model serve video over the same TCP/HTTP
//! front end; they differ only in where TX bytes come from (DESIGN
//! §5.3). This module is that front end, once: the flow→slot table and
//! the TCB timer set, SYN admission and accept, the per-segment RX path,
//! and the request classifier that turns each parsed head into a
//! 200/206/404/416/503/431. A server embeds one [`Front`] over its own
//! per-connection state `C` and keeps only its body path and its costs,
//! which it hands in as plain values.

use crate::control::ServerControl;
use crate::overload::ResourceSnapshot;
use dcn_crypto::{RecordCipher, RECORD_PAYLOAD_MAX};
use dcn_httpd::{parse_chunk_path, HttpRequest, RequestParser, ResponseInfo};
use dcn_mem::{CoreSet, MemSystem, PhysRegion};
use dcn_netdev::{parse_frame, Nic, WireFrame};
use dcn_obs::{CounterId, Prof, ProfStage, Registry};
use dcn_packet::{FlowId, MacAddr, SeqNumber, TcpFlags, TcpRepr};
use dcn_simcore::{Nanos, SimRng};
use dcn_store::{Catalog, FileId};
use dcn_tcpstack::{rst_for_syn, Endpoint, Tcb, TcbConfig};
use std::collections::{BTreeSet, HashMap};

/// The work a server has served so far, read through its counter
/// handles rather than by name, so a renamed counter cannot read 0.
/// A stack that does not count one of these leaves it 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServedWork {
    pub responses: u64,
    pub http_payload_bytes: u64,
    /// Successful disk read commands.
    pub disk_reads: u64,
    pub disk_read_bytes: u64,
    /// Loss-driven re-fetches from disk.
    pub retransmit_fetches: u64,
    /// Disk fetches (Atlas) or fills (kstack) re-issued after a
    /// device error.
    pub fetch_retries: u64,
    /// SYNs refused with RST by admission control.
    pub shed_new: u64,
    /// Requests answered 503 + Retry-After while shedding.
    pub retry_503: u64,
    /// Idle / header-timeout connections reaped.
    pub reaped_idle: u64,
    /// Buffer-holding slow readers aborted.
    pub aborted_slow: u64,
    /// Waits on an empty buffer pool: one per wait episode (a
    /// connection's parks up to its next fetch or its close).
    pub empty_waits: u64,
    /// Wakes of a parked connection that found the pool still dry.
    pub futile_wakes: u64,
}

/// What the front end needs to know about its server.
#[derive(Clone, Copy, Debug)]
pub struct FrontConfig {
    pub endpoint: Endpoint,
    pub tcb: TcbConfig,
    /// The stack serves TLS records.
    pub encrypted: bool,
    /// CPU cycles the stack charges per received (non-SYN) segment.
    pub rx_ack_cycles: u64,
}

/// One accepted connection: the front end's part (TCB, request
/// parser, cipher) plus the stack's own state `conn`.
pub struct ConnSlot<C> {
    pub tcb: Tcb,
    pub parser: RequestParser,
    /// Per-session record cipher, present only while the server seals
    /// bytes (TLS at `Fidelity::Full`). A modeled TLS run charges the
    /// encryption's cycles and memory traffic without the cipher, so
    /// its connections do not carry one; boxed, so they carry 8 B
    /// instead of its 464.
    pub cipher: Option<Box<RecordCipher>>,
    pub core: usize,
    pub flow: FlowId,
    pub conn: C,
}

/// A SYN for a flow the table does not hold yet.
#[derive(Clone, Copy, Debug)]
pub struct Syn {
    pub core: usize,
    pub flow: FlowId,
    pub tcp: TcpRepr,
}

/// What [`Front::rx`] made of one parsed frame.
#[derive(Debug)]
pub enum Rx {
    /// A new connection asks in: the server answers with
    /// [`Front::accept`].
    Syn(Syn),
    /// The segment went through `slot`'s TCB; its events are ready to
    /// process at `done`, when the RX work finishes.
    Segment { slot: usize, done: Nanos },
    /// A segment for no known flow, or a duplicate SYN.
    Stray,
}

/// How one parsed request is answered: the response, and for a
/// 200/206 the file whose body follows.
pub type Answer = (ResponseInfo, Option<FileId>);

/// The connection table, admission, RX demux and request classifier.
pub struct Front<C> {
    cfg: FrontConfig,
    /// Build a record cipher per accepted connection.
    seals: bool,
    pub slots: Vec<ConnSlot<C>>,
    conns: HashMap<FlowId, usize>,
    /// (deadline, slot) index of armed TCB timers.
    timers: BTreeSet<(Nanos, usize)>,
    timer_of: Vec<Option<Nanos>>,
    /// Draws initial sequence numbers.
    rng: SimRng,
    /// Per-core RX slot DMA targets (one small region per ring, reused:
    /// RX traffic is ACKs and request heads).
    rx_slots: Vec<PhysRegion>,
    /// Reusable RX-payload scratch: frames' TCP payloads are copied
    /// here instead of materializing a fresh `Vec` per frame.
    rx_scratch: Vec<u8>,
    /// Reusable per-call scratch for parsed-but-unanswered requests.
    answers: Vec<Answer>,
    prof: Prof,
    /// SYNs refused with RST by the admission policy.
    shed_new: Vec<CounterId>,
    /// Requests answered 503 + Retry-After while shedding.
    retry_503: Vec<CounterId>,
    /// Oversized / malformed request heads answered 431.
    bad_requests: Vec<CounterId>,
}

impl<C: Default> Front<C> {
    /// A front end with one RX slot per core, counting its refused
    /// SYNs, 503s and 431s per core under the three given names. With
    /// `seals`, every accepted connection gets a record cipher.
    #[must_use]
    pub fn new(
        cfg: FrontConfig,
        seals: bool,
        reg: &mut Registry,
        [shed_new, retry_503, bad_requests]: [&str; 3],
        rng: SimRng,
        rx_slots: Vec<PhysRegion>,
        prof: Prof,
    ) -> Self {
        let cores = rx_slots.len();
        Front {
            shed_new: reg.counters_per_core(shed_new, cores),
            retry_503: reg.counters_per_core(retry_503, cores),
            bad_requests: reg.counters_per_core(bad_requests, cores),
            cfg,
            seals,
            slots: Vec::new(),
            conns: HashMap::new(),
            timers: BTreeSet::new(),
            timer_of: Vec::new(),
            rng,
            rx_slots,
            rx_scratch: Vec::new(),
            answers: Vec::new(),
            prof,
        }
    }

    /// Demultiplex one wire frame: steer it to its core, DMA it into
    /// that core's RX slot, and run a data segment through its TCB
    /// (charging the stack's RX cost). `None` when the frame does not
    /// parse as TCP.
    pub fn rx(
        &mut self,
        now: Nanos,
        frame: WireFrame,
        ctl: &ServerControl,
        nic: &mut Nic,
        mem: &mut MemSystem,
        cores: &mut CoreSet,
    ) -> Option<Rx> {
        let (flow, tcp, payload) = parse_frame(&frame)?;
        let core = ctl.core_of_flow(flow);
        self.prof.stage(core, ProfStage::Parse);
        // Growth past the warm-up high-water mark is a counted
        // fallback allocation.
        let cap_before = self.rx_scratch.capacity();
        payload.copy_into(&mut self.rx_scratch);
        dcn_obs::steady::note_growth(cap_before, self.rx_scratch.capacity());
        nic.rx_deliver(core, now, frame, mem, self.rx_slots[core]);
        if tcp.flags.contains(TcpFlags::SYN) && !tcp.flags.contains(TcpFlags::ACK) {
            if self.conns.contains_key(&flow) {
                return Some(Rx::Stray);
            }
            return Some(Rx::Syn(Syn { core, flow, tcp }));
        }
        let Some(&slot) = self.conns.get(&flow) else {
            return Some(Rx::Stray);
        };
        self.prof.stage(core, ProfStage::Parse);
        let done = cores.run_on(core, now, self.cfg.rx_ack_cycles);
        for out in self.slots[slot].tcb.on_segment(now, &tcp, &self.rx_scratch) {
            nic.tx_rings[core].push(out.into_tx(0));
        }
        Some(Rx::Segment { slot, done })
    }

    /// Admission control, then accept. The policy sees `snap` (the
    /// server's resources right now) before anything is spent on the
    /// connection: a refused SYN gets an RST — no TCB, no buffer. An
    /// admitted one gets a TCB with a fresh ISS, its record cipher if
    /// the server seals, a slot with default stack state, and a
    /// SYN-ACK. Returns the slot.
    pub fn accept(
        &mut self,
        now: Nanos,
        syn: Syn,
        snap: ResourceSnapshot,
        ctl: &mut ServerControl,
        nic: &mut Nic,
        reg: &mut Registry,
    ) -> Option<usize> {
        let Syn { core, flow, tcp } = syn;
        let remote = Endpoint {
            mac: MacAddr::from_host_id(flow.src_ip.0),
            ip: flow.src_ip,
            port: flow.src_port,
        };
        if !ctl.admit_syn(core, snap) {
            let rst = rst_for_syn(self.cfg.endpoint, remote, &tcp);
            nic.tx_rings[core].push(rst.into_tx(0));
            reg.inc(self.shed_new[core]);
            return None;
        }
        let iss = SeqNumber(self.rng.next_u64() as u32);
        let (tcb, synack) = Tcb::accept(self.cfg.tcb, self.cfg.endpoint, remote, &tcp, iss, now);
        let cipher = self.seals.then(|| Box::new(session_cipher(flow)));
        let slot = self.slots.len();
        self.slots.push(ConnSlot {
            tcb,
            parser: RequestParser::new(),
            cipher,
            core,
            flow,
            conn: C::default(),
        });
        self.timer_of.push(None);
        self.conns.insert(flow, slot);
        ctl.note_conn_opened(core);
        nic.tx_rings[core].push(synack.into_tx(0));
        self.sync_timer(slot);
        Some(slot)
    }
}

impl<C> Front<C> {
    /// Feed `bytes` to `slot`'s request parser and answer every head it
    /// completes, in order. While `shedding`, every request gets a 503
    /// carrying `retry_after`. A parse error is answered 431 and ends
    /// the stream: the parser ignores everything after it, but the
    /// socket stays up. Hand the drained vector back with
    /// [`Front::recycle`].
    pub fn parse_requests(
        &mut self,
        slot: usize,
        bytes: &[u8],
        shedding: bool,
        retry_after: Nanos,
        catalog: &Catalog,
        reg: &mut Registry,
    ) -> Vec<Answer> {
        let retry_after_ms = (retry_after.as_nanos() / 1_000_000).max(1);
        let core = self.slots[slot].core;
        let parser = &mut self.slots[slot].parser;
        parser.push(bytes);
        let mut answers = std::mem::take(&mut self.answers);
        debug_assert!(answers.is_empty());
        let cap_before = answers.capacity();
        loop {
            match parser.next_request() {
                Ok(Some(_)) if shedding => {
                    answers.push((ResponseInfo::ServiceUnavailable { retry_after_ms }, None));
                    reg.inc(self.retry_503[core]);
                }
                Ok(Some(req)) => answers.push(classify(&req, catalog)),
                Ok(None) => break,
                Err(_) => {
                    answers.push((ResponseInfo::HeaderTooLarge, None));
                    reg.inc(self.bad_requests[core]);
                    break;
                }
            }
        }
        dcn_obs::steady::note_growth(cap_before, answers.capacity());
        answers
    }

    /// Return the answer scratch once drained.
    pub fn recycle(&mut self, answers: Vec<Answer>) {
        debug_assert!(answers.is_empty());
        self.answers = answers;
    }

    /// Re-index `slot`'s TCB timer after anything that may have moved
    /// its deadline.
    pub fn sync_timer(&mut self, slot: usize) {
        let new = self.slots[slot].tcb.poll_at();
        let old = self.timer_of[slot];
        if old == new {
            return;
        }
        if let Some(d) = old {
            self.timers.remove(&(d, slot));
        }
        if let Some(d) = new {
            self.timers.insert((d, slot));
        }
        self.timer_of[slot] = new;
    }

    /// Slots whose TCB timer is due at `now`, earliest first.
    #[must_use]
    pub fn due_timers(&self, now: Nanos) -> Vec<usize> {
        self.timers
            .range(..=(now, usize::MAX))
            .map(|&(_, s)| s)
            .collect()
    }

    /// The front end's share of [`ServedWork`]: its admission counts.
    #[must_use]
    pub fn served(&self, reg: &Registry) -> ServedWork {
        ServedWork {
            shed_new: reg.counter_sum(&self.shed_new),
            retry_503: reg.counter_sum(&self.retry_503),
            ..ServedWork::default()
        }
    }

    /// The earliest armed TCB timer.
    #[must_use]
    pub fn next_timer(&self) -> Option<Nanos> {
        self.timers.first().map(|&(d, _)| d)
    }

    /// Tear `slot` out of the table: disarm its timer and forget its
    /// flow. The slot itself stays (indices are stable).
    pub fn close(&mut self, slot: usize) {
        if let Some(d) = self.timer_of[slot].take() {
            self.timers.remove(&(d, slot));
        }
        self.conns.remove(&self.slots[slot].flow);
    }

    /// The per-core RX slot regions.
    #[must_use]
    pub fn rx_slots(&self) -> &[PhysRegion] {
        &self.rx_slots
    }

    /// Retransmission timeouts fired over every slot's TCB (slots
    /// outlive their connections, so this is a lifetime total).
    #[must_use]
    pub fn rto_fired(&self) -> u64 {
        self.slots.iter().map(|s| s.tcb.rto_fired).sum()
    }

    /// Publish the per-core `tcp.*` gauges over every slot's TCB.
    pub fn publish_tcb_metrics(&self, reg: &mut Registry) {
        for core in 0..self.rx_slots.len() {
            let tcbs = self.slots.iter().filter(|s| s.core == core);
            dcn_tcpstack::publish_tcb_metrics(reg, core, tcbs.map(|s| &s.tcb));
        }
    }
}

/// The record cipher of the session on `flow`. Its key material is
/// derived from the flow (dummy keys, as in §4.2's TLS emulation — the
/// handshake is out of scope), so the client derives the same one.
#[must_use]
pub fn session_cipher(flow: FlowId) -> RecordCipher {
    let mut key = [0u8; 16];
    dcn_simcore::prf_bytes(u64::from(flow.rss_hash()) ^ 0x6B65_7931, 0, &mut key);
    RecordCipher::new(&key, flow.rss_hash())
}

/// 200, 206, 404 or 416 for one parsed GET. A `Range: bytes=N-` resume
/// is floored to a record boundary: records are the unit of both disk
/// fetches and GCM framing, and reconnecting clients only ever ask for
/// record-aligned offsets anyway. A range starting at or past the end
/// of the file cannot be satisfied (416).
fn classify(req: &HttpRequest, catalog: &Catalog) -> Answer {
    let file_size = catalog.file_size();
    let start = req.range_start.unwrap_or(0) / RECORD_PAYLOAD_MAX * RECORD_PAYLOAD_MAX;
    let past_end = req.range_start.is_some_and(|s| s >= file_size);
    match parse_chunk_path(&req.path) {
        Some(f) if f.0 < catalog.n_files() && past_end => {
            (ResponseInfo::RangeNotSatisfiable { size: file_size }, None)
        }
        Some(f) if f.0 < catalog.n_files() && start == 0 => (
            ResponseInfo::Ok {
                body_len: file_size,
            },
            Some(f),
        ),
        Some(f) if f.0 < catalog.n_files() => (
            ResponseInfo::Partial {
                body_len: file_size - start,
                offset: start,
            },
            Some(f),
        ),
        _ => (ResponseInfo::NotFound, None),
    }
}
