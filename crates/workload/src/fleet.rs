//! The client fleet: protocol + application + verification.

use crate::abr::{AbrConfig, AbrSession, FetchStep};
use crate::receive::{frame_of, ClientStream, Receiver};
use crate::testbed::{ClientSide, Net, PendingWake};
use crate::verify::{Expected, RungClaim, VerifyStats};
use dcn_httpd::{chunk_path, parser::build_get, RequestDriver};
use dcn_netdev::WireFrame;
use dcn_obs::qoe::{QoeStats, QoeSummary};
use dcn_packet::{FlowId, Ipv4Addr, MacAddr, SeqNumber};
use dcn_simcore::{Nanos, SimRng, TimeBuckets};
use dcn_srvcore::SERVER_ENDPOINT;
use dcn_store::{AbrManifest, Catalog};
use dcn_tcpstack::{ClientConn, Endpoint};
use std::collections::HashMap;
use std::rc::Rc;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    pub n_clients: usize,
    /// 0% BC (uniform over the catalog) vs 100% BC (hot set).
    pub cacheable: bool,
    /// Hot-set size for the cacheable workload.
    pub hot_files: u64,
    /// Verify every body byte against the catalog oracle (full
    /// fidelity runs only).
    pub verify: bool,
    /// The first `slowloris` clients are attackers: they complete the
    /// handshake, dribble a truncated request head, and go silent —
    /// the server's header-read timeout must reap them. Excluded from
    /// `live_fraction`.
    pub slowloris: usize,
    /// Adaptive-streaming mode: every (non-attacker) client runs an
    /// [`AbrSession`] over the manifest instead of drawing files from
    /// the popularity distribution. None = the classic fixed-rate
    /// weighttp workload.
    pub abr: Option<AbrConfig>,
    /// Zipf(θ) popularity over the whole catalog, rank-permuted so
    /// the popular head is scattered across the id space. Overrides
    /// `cacheable`; the million-object tiered-catalog workload. Ranks
    /// map to ids through the permutation of
    /// `dcn_simcore::RANK_PERM_SEED`, the one the tier seeds its hot
    /// set from.
    pub zipf: Option<f64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            n_clients: 64,
            cacheable: false,
            hot_files: 64,
            verify: true,
            slowloris: 0,
            abr: None,
            zipf: None,
        }
    }
}

/// Application behaviour of one fleet member.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ClientMode {
    Normal,
    /// Sends a truncated request head after the handshake, then
    /// nothing — a connection-slot squatter.
    Slowloris,
}

struct Client {
    stream: ClientStream,
    driver: RequestDriver,
    done_at_least_one: bool,
    first_request_sent: bool,
    mode: ClientMode,
    /// Send time of the oldest unanswered request (TTFB clock; spans
    /// 503 retries, so backoff shows up in the latency tail).
    ttfb_pending: Option<Nanos>,
    /// Adaptive-streaming state (Some iff `FleetConfig::abr`), out of
    /// line so a fixed-rate client carries 8 B for it.
    abr: Option<Box<AbrSession>>,
}

/// The fleet.
pub struct ClientFleet {
    cfg: FleetConfig,
    catalog: Catalog,
    clients: Vec<Client>,
    by_flow: HashMap<FlowId, usize>,
    /// The one delivery buffer every client's bursts pass through.
    rx: Receiver,
    /// Response-body bytes received per time bucket — the network
    /// goodput the paper's throughput panels plot.
    pub goodput: TimeBuckets,
    pub total_body_bytes: u64,
    pub responses_completed: u64,
    pub verify_stats: VerifyStats,
    /// Deferred re-requests scheduled by Retry-After backoff:
    /// (due time, client index), fired by the harness via
    /// [`ClientFleet::fire_retries`].
    pending_retries: std::collections::BTreeSet<(Nanos, usize)>,
    /// Retries actually re-sent after a 503 backoff.
    pub retries_fired: u64,
    /// Time-to-first-body-byte samples (request send → first body
    /// byte), including any 503 backoff.
    pub ttfb: Vec<Nanos>,
    /// The ABR manifest (Some iff `FleetConfig::abr`), shared by every
    /// session and verifier.
    manifest: Option<Rc<AbrManifest>>,
    /// On-off pauses: (resume time, client index), fired by the
    /// harness via [`ClientFleet::fire_paced`] — the same deferred-
    /// wake discipline as `pending_retries`.
    pending_paced: std::collections::BTreeSet<(Nanos, usize)>,
    /// Fetches re-started after an on-off pause.
    pub paced_fired: u64,
    /// The one pending Retry-After wake on the testbed…
    retry_wake: PendingWake,
    /// …and the one pending on-off resume.
    paced_wake: PendingWake,
}

/// End-of-run ABR readout: fleet QoE plus the canonical decision
/// trace (byte-identical across replays of one seed).
#[derive(Clone, Debug, Default)]
pub struct AbrReadout {
    pub qoe: QoeSummary,
    /// Rung decisions across the fleet.
    pub decisions: u64,
    /// Decisions strictly below the previous one (quality drops).
    pub downswitches: u64,
    /// Concatenated per-client decision trace lines.
    pub trace: String,
    /// On-off "on" edges: fetches resumed after a full-buffer pause
    /// (how many synchronized bursts the server absorbed).
    pub paced_wakes: u64,
}

impl AbrReadout {
    /// Publish the fleet's QoE as `qoe.*` gauges.
    pub fn publish(&self, reg: &mut dcn_obs::Registry) {
        let q = &self.qoe;
        for (name, v) in [
            ("qoe.sessions", q.sessions as f64),
            ("qoe.started", q.started as f64),
            ("qoe.startup_ms_mean", q.startup_ms_mean),
            ("qoe.startup_ms_max", q.startup_ms_max),
            ("qoe.rebuffer_ratio", q.rebuffer_ratio),
            ("qoe.rebuffer_events", q.rebuffer_events as f64),
            ("qoe.switches", q.switches as f64),
            ("qoe.downswitches", self.downswitches as f64),
            ("qoe.avg_bitrate_mbps", q.avg_bitrate_mbps),
        ] {
            let g = reg.gauge(name);
            reg.set(g, v);
        }
    }
}

/// Frames a client wants transmitted (they enter the middlebox).
pub struct ClientTx {
    pub flow: FlowId,
    pub frames: Vec<WireFrame>,
}

impl ClientFleet {
    #[must_use]
    pub fn new(cfg: FleetConfig, catalog: Catalog, _seed: u64) -> Self {
        let manifest = cfg.abr.map(|_| Rc::new(AbrManifest::eval(&catalog)));
        ClientFleet {
            cfg,
            catalog,
            clients: Vec::new(),
            by_flow: HashMap::new(),
            rx: Receiver::default(),
            goodput: TimeBuckets::new(Nanos::from_millis(1)),
            total_body_bytes: 0,
            responses_completed: 0,
            verify_stats: VerifyStats::default(),
            pending_retries: std::collections::BTreeSet::new(),
            retries_fired: 0,
            ttfb: Vec::new(),
            manifest,
            pending_paced: std::collections::BTreeSet::new(),
            paced_fired: 0,
            retry_wake: PendingWake::IDLE,
            paced_wake: PendingWake::IDLE,
        }
    }

    #[must_use]
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    fn endpoint_of(idx: usize) -> Endpoint {
        // Clients spread over many source IPs and ports, as two load
        // generator machines with many sockets would.
        let ip = Ipv4Addr::new(10, 1, (idx / 250) as u8, (idx % 250) as u8 + 1);
        Endpoint {
            mac: MacAddr::from_host_id(1000 + idx as u32),
            ip,
            port: 10_000 + (idx % 50_000) as u16,
        }
    }

    /// Spawn the next client: returns its SYN.
    pub fn spawn(&mut self, idx: usize, seed: u64) -> ClientTx {
        assert_eq!(idx, self.clients.len(), "spawn in order");
        let local = Self::endpoint_of(idx);
        let mut rng = SimRng::new(seed ^ (idx as u64) << 20);
        let iss = SeqNumber(rng.next_u64() as u32);
        let (conn, syn) = ClientConn::connect(local, SERVER_ENDPOINT, iss, 4 << 20);
        let flow = conn.flow();
        let driver = if let Some(theta) = self.cfg.zipf {
            RequestDriver::zipf_perm(self.catalog.n_files(), theta, rng.fork(1))
        } else if self.cfg.cacheable {
            RequestDriver::cacheable(self.catalog.n_files(), self.cfg.hot_files, rng.fork(1))
        } else {
            RequestDriver::uncachable(self.catalog.n_files(), rng.fork(1))
        };
        // ABR clients each stream one seeded-random title; the
        // verifier carries the manifest so every response is checked
        // against the claimed rung's chunk range.
        let abr = self.cfg.abr.map(|acfg| {
            let m = self.manifest.as_ref().expect("manifest built with abr");
            Box::new(AbrSession::new(
                Rc::clone(m),
                acfg,
                rng.gen_range(0, m.n_titles()),
            ))
        });
        self.clients.push(Client {
            stream: ClientStream::new(conn, self.manifest.as_ref(), self.cfg.verify),
            driver,
            done_at_least_one: false,
            first_request_sent: false,
            mode: if idx < self.cfg.slowloris {
                ClientMode::Slowloris
            } else {
                ClientMode::Normal
            },
            ttfb_pending: None,
            abr,
        });
        self.by_flow.insert(flow, idx);
        ClientTx {
            flow,
            frames: vec![frame_of(syn)],
        }
    }

    /// A burst of frames arrived at the clients (one flow per burst;
    /// `flow` is the server→client direction). Returns frames the
    /// client sends back (ACKs, the next request).
    pub fn on_burst(
        &mut self,
        now: Nanos,
        flow: FlowId,
        frames: Vec<WireFrame>,
    ) -> Option<ClientTx> {
        let &idx = self.by_flow.get(&flow.reversed())?;
        let client = &mut self.clients[idx];
        let (mut out, delivered) = self.rx.on_burst(
            now,
            &frames,
            &mut client.stream,
            &mut client.driver,
            &self.catalog,
            &mut self.verify_stats,
        );

        // Application layer: account the delivered stream bytes.
        let mut completed = 0;
        if let Some(d) = delivered {
            completed = d.completed;
            let body_new = d.body_bytes;
            self.goodput.add(now, body_new as f64);
            self.total_body_bytes += body_new;
            self.responses_completed += completed;
            if body_new > 0 {
                if let Some(t0) = client.ttfb_pending.take() {
                    self.ttfb.push(now.saturating_sub(t0));
                }
            }
            if let Some(backoff_ms) = client.driver.take_retry_after() {
                // Honour the server's Retry-After: park the re-request
                // until the harness fires it.
                self.pending_retries
                    .insert((now + Nanos::from_millis(backoff_ms), idx));
            }
            if completed > 0 {
                client.done_at_least_one = true;
                // Each completed response is one manifest chunk;
                // credit the playout buffer before deciding the next
                // fetch below.
                if let Some(abr) = client.abr.as_mut() {
                    for _ in 0..completed {
                        abr.on_chunk_done(now);
                    }
                }
            }
        }
        // Fire follow-up requests: one per completed response, plus
        // the very first request when the handshake completes.
        let client = &mut self.clients[idx];
        let established = matches!(
            client.stream.conn.state,
            dcn_tcpstack::client::ClientState::Established
        );
        if client.mode == ClientMode::Slowloris {
            // The attack: a truncated request head, then silence. The
            // connection keeps ACKing (it is alive at the TCP layer)
            // but never completes a request.
            if !client.first_request_sent && established {
                client.first_request_sent = true;
                let f = client.stream.conn.send(b"GET /chunk/00000000 HT".to_vec());
                out.push(frame_of(f));
            }
            return Some(ClientTx {
                flow: flow.reversed(),
                frames: out,
            });
        }
        let mut to_send = completed;
        if !client.first_request_sent && established {
            client.first_request_sent = true;
            to_send += 1;
        }
        if established {
            for _ in 0..to_send {
                out.extend(self.next_request(now, idx));
            }
        }
        Some(ClientTx {
            flow: flow.reversed(),
            frames: out,
        })
    }

    /// Issue the client's next request. None when its ABR session is
    /// in the "off" phase — the resume is parked in `pending_paced`
    /// and fired by the harness.
    fn next_request(&mut self, now: Nanos, idx: usize) -> Option<WireFrame> {
        let client = &mut self.clients[idx];
        let (file, claim) = if let Some(abr) = client.abr.as_mut() {
            abr.note_first_request(now);
            match abr.next_fetch(now) {
                FetchStep::Chunk(f) => {
                    client.driver.request_file(f);
                    let claim = abr.current_claim().map(|(title, seg, rung)| RungClaim {
                        title,
                        seg,
                        rung,
                    });
                    (f, claim)
                }
                FetchStep::PausedUntil(at) => {
                    self.pending_paced.insert((at, idx));
                    return None;
                }
            }
        } else {
            (client.driver.next_file(), None)
        };
        client.stream.expect(Expected {
            file,
            base: 0,
            claim,
        });
        if client.ttfb_pending.is_none() {
            client.ttfb_pending = Some(now);
        }
        let req = build_get(&chunk_path(file), "cdn.test");
        let f = client.stream.conn.send(req);
        Some(frame_of(f))
    }

    /// Earliest pending Retry-After deadline (for harness scheduling).
    #[must_use]
    pub fn next_retry_at(&self) -> Option<Nanos> {
        self.pending_retries.iter().next().map(|&(at, _)| at)
    }

    /// Re-send shed requests whose 503 backoff has expired. Returns
    /// one ClientTx per retried client.
    pub fn fire_retries(&mut self, now: Nanos) -> Vec<ClientTx> {
        let mut txs = Vec::new();
        while let Some(&(at, idx)) = self.pending_retries.iter().next() {
            if at > now {
                break;
            }
            self.pending_retries.remove(&(at, idx));
            let client = &mut self.clients[idx];
            if !matches!(
                client.stream.conn.state,
                dcn_tcpstack::client::ClientState::Established
            ) {
                continue; // reset meanwhile; nothing to retry on
            }
            // Same file, same outstanding entry: the verifier's
            // expected front still describes this request.
            let Some(file) = client.driver.current_file() else {
                continue;
            };
            let req = build_get(&chunk_path(file), "cdn.test");
            let f = client.stream.conn.send(req);
            let flow = client.stream.conn.flow();
            self.retries_fired += 1;
            txs.push(ClientTx {
                flow,
                frames: vec![frame_of(f)],
            });
        }
        txs
    }

    /// Earliest on-off resume deadline (for harness scheduling).
    #[must_use]
    pub fn next_paced_at(&self) -> Option<Nanos> {
        self.pending_paced.iter().next().map(|&(at, _)| at)
    }

    /// Resume fetching for ABR clients whose playout buffer has
    /// drained to the resume level. Returns one ClientTx per resumed
    /// client — the "on" edge of the on-off burst.
    pub fn fire_paced(&mut self, now: Nanos) -> Vec<ClientTx> {
        let mut txs = Vec::new();
        while let Some(&(at, idx)) = self.pending_paced.iter().next() {
            if at > now {
                break;
            }
            self.pending_paced.remove(&(at, idx));
            if !matches!(
                self.clients[idx].stream.conn.state,
                dcn_tcpstack::client::ClientState::Established
            ) {
                continue; // reset meanwhile; the session is dead
            }
            if let Some(frame) = self.next_request(now, idx) {
                self.paced_fired += 1;
                let flow = self.clients[idx].stream.conn.flow();
                txs.push(ClientTx {
                    flow,
                    frames: vec![frame],
                });
            }
        }
        txs
    }

    /// Close every ABR session and aggregate the fleet's QoE plus the
    /// canonical decision trace. None for fixed-rate fleets.
    pub fn finish_abr(&mut self, now: Nanos) -> Option<AbrReadout> {
        self.cfg.abr?;
        let mut out = AbrReadout::default();
        let mut stats: Vec<QoeStats> = Vec::new();
        for (i, c) in self.clients.iter_mut().enumerate() {
            let Some(abr) = c.abr.take() else { continue };
            out.decisions += abr.decisions.len() as u64;
            out.downswitches += abr.downswitches();
            for d in &abr.decisions {
                out.trace.push_str(&d.trace_line(i));
            }
            stats.push(abr.finish(now));
        }
        out.qoe = QoeSummary::aggregate(&stats, now);
        out.paced_wakes = self.paced_fired;
        Some(out)
    }

    /// Clients whose connection the server reset (refused SYNs plus
    /// slow-client aborts).
    #[must_use]
    pub fn resets_received(&self) -> u64 {
        self.clients
            .iter()
            .filter(|c| c.stream.conn.reset_received)
            .count() as u64
    }

    /// 503 load-shed responses observed across the fleet.
    #[must_use]
    pub fn rejections_503(&self) -> u64 {
        self.clients.iter().map(|c| c.driver.rejections_503).sum()
    }

    /// p99 time-to-first-body-byte in milliseconds (0 when no sample).
    #[must_use]
    pub fn ttfb_p99_ms(&self) -> f64 {
        if self.ttfb.is_empty() {
            return 0.0;
        }
        let mut v: Vec<u64> = self.ttfb.iter().map(|n| n.as_nanos()).collect();
        v.sort_unstable();
        let i = ((v.len() - 1) as f64 * 0.99).round() as usize;
        v[i] as f64 / 1e6
    }

    /// Fraction of well-behaved clients that completed at least one
    /// response (liveness check for tests; slowloris attackers are
    /// excluded — they never complete by design).
    #[must_use]
    pub fn live_fraction(&self) -> f64 {
        let normal: Vec<_> = self
            .clients
            .iter()
            .filter(|c| c.mode == ClientMode::Normal)
            .collect();
        if normal.is_empty() {
            return 0.0;
        }
        normal.iter().filter(|c| c.done_at_least_one).count() as f64 / normal.len() as f64
    }

    /// Clients whose connection carries an oracle.
    #[cfg(test)]
    pub(crate) fn oracles(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| c.stream.oracle.is_some())
            .count()
    }

    /// Total dup-ACKs the fleet generated (loss diagnostics).
    #[must_use]
    pub fn dupacks(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.stream.conn.dupacks_sent)
            .sum()
    }
}

/// A lone server's client-side timers.
pub enum FleetWake {
    /// A client's Retry-After backoff expired: re-send shed requests.
    Retry,
    /// An ABR client's playout buffer drained to the resume level:
    /// the "on" edge of its on-off cycle.
    Paced,
}

/// The lone-server client side: every client talks to server 0.
impl ClientSide for ClientFleet {
    type Event = FleetWake;

    fn spawn(&mut self, net: &mut Net<FleetWake>, now: Nanos, idx: usize) {
        let tx = ClientFleet::spawn(self, idx, net.tb.seed);
        net.send(now, 0, tx);
    }

    fn on_burst(
        &mut self,
        net: &mut Net<FleetWake>,
        now: Nanos,
        flow: FlowId,
        frames: Vec<WireFrame>,
    ) {
        if let Some(tx) = ClientFleet::on_burst(self, now, flow, frames) {
            net.send(now, 0, tx);
        }
    }

    fn on_event(&mut self, net: &mut Net<FleetWake>, now: Nanos, ev: FleetWake) {
        let txs = match ev {
            FleetWake::Retry => {
                self.retry_wake.fired(now);
                self.fire_retries(now)
            }
            FleetWake::Paced => {
                self.paced_wake.fired(now);
                self.fire_paced(now)
            }
        };
        for tx in txs {
            net.send(now, 0, tx);
        }
    }

    fn after_event(&mut self, net: &mut Net<FleetWake>, _touched: Option<usize>) {
        let now = net.now();
        if let Some(at) = self.retry_wake.arm(self.next_retry_at(), now) {
            net.schedule(at, FleetWake::Retry);
        }
        if let Some(at) = self.paced_wake.arm(self.next_paced_at(), now) {
            net.schedule(at, FleetWake::Paced);
        }
    }

    fn finish_abr(&mut self, end: Nanos) -> Option<AbrReadout> {
        ClientFleet::finish_abr(self, end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::StreamVerifier;
    use dcn_crypto::RecordCipher;
    use dcn_netdev::{parse_frame, PayloadBytes};
    use dcn_store::FileId;
    use std::collections::VecDeque;

    fn catalog() -> Catalog {
        Catalog::new(1000, 300 * 1024, 4, 7)
    }

    #[test]
    fn spawn_emits_syn_and_registers_flow() {
        let mut fleet = ClientFleet::new(FleetConfig::default(), catalog(), 1);
        let tx = fleet.spawn(0, 1);
        assert_eq!(tx.frames.len(), 1);
        let (flow, tcp, _) = parse_frame(&tx.frames[0]).expect("parsable SYN");
        assert!(tcp.flags.contains(dcn_packet::TcpFlags::SYN));
        assert_eq!(flow, tx.flow);
        assert_eq!(fleet.n_clients(), 1);
    }

    #[test]
    fn clients_have_distinct_flows() {
        let mut fleet = ClientFleet::new(
            FleetConfig {
                n_clients: 500,
                ..FleetConfig::default()
            },
            catalog(),
            1,
        );
        let mut flows = std::collections::HashSet::new();
        for i in 0..500 {
            let tx = fleet.spawn(i, 1);
            assert!(flows.insert(tx.flow), "duplicate flow at client {i}");
        }
    }

    #[test]
    fn burst_for_unknown_flow_is_ignored() {
        let mut fleet = ClientFleet::new(FleetConfig::default(), catalog(), 1);
        fleet.spawn(0, 1);
        let bogus = dcn_packet::FlowId {
            src_ip: dcn_packet::Ipv4Addr::new(1, 2, 3, 4),
            dst_ip: dcn_packet::Ipv4Addr::new(5, 6, 7, 8),
            src_port: 1,
            dst_port: 2,
        };
        let frame = WireFrame::single(vec![0u8; 54], PayloadBytes::Real(vec![]));
        assert!(fleet.on_burst(Nanos::ZERO, bogus, vec![frame]).is_none());
    }

    #[test]
    fn verifier_counts_failures_on_corrupt_plaintext() {
        // Feed a hand-built response whose body does NOT match the
        // catalog oracle: the verifier must flag it.
        let cat = catalog();
        let mut outstanding: VecDeque<Expected> = VecDeque::new();
        outstanding.push_back(Expected::plain(FileId(3), 0));
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let mut v = StreamVerifier::new();
        let mut stats = VerifyStats::default();
        let mut stream = dcn_httpd::response::response_header(
            dcn_httpd::response::ResponseInfo::Ok { body_len: 100 },
            false,
        );
        stream.extend_from_slice(&[0xEE; 100]); // wrong content
        v.push(&stream, &mut outstanding, &cat, &cipher, &mut stats);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.verified_bytes, 0);
    }

    #[test]
    fn verifier_accepts_oracle_plaintext() {
        let cat = catalog();
        let mut outstanding: VecDeque<Expected> = VecDeque::new();
        outstanding.push_back(Expected::plain(FileId(3), 0));
        let cipher = RecordCipher::new(b"0123456789abcdef", 1);
        let mut v = StreamVerifier::new();
        let mut stats = VerifyStats::default();
        let file_size = cat.file_size();
        let mut stream = dcn_httpd::response::response_header(
            dcn_httpd::response::ResponseInfo::Ok {
                body_len: file_size,
            },
            false,
        );
        let mut body = vec![0u8; file_size as usize];
        cat.expected(FileId(3), 0, &mut body);
        stream.extend_from_slice(&body);
        // Deliver in awkward fragment sizes.
        for chunk in stream.chunks(1013) {
            v.push(chunk, &mut outstanding, &cat, &cipher, &mut stats);
        }
        assert_eq!(stats.failures, 0);
        assert_eq!(stats.verified_bytes, file_size);
        assert!(outstanding.is_empty(), "response consumed");
    }

    #[test]
    fn client_size_budget() {
        // A modeled run's clients carry neither the oracle nor, at a
        // fixed rate, an ABR session: both live out of line.
        let size = std::mem::size_of::<Client>();
        assert!(
            size <= 432,
            "fleet Client is {size} B, over its 432 B budget: is \
             `ClientStream::oracle` ({} B) or `Client::abr` ({} B) inline again?",
            std::mem::size_of::<crate::receive::Oracle>(),
            std::mem::size_of::<AbrSession>()
        );
    }
}
