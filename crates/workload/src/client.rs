//! What every client does, whatever server it talks to.
//!
//! The paper's clients are weighttp-style (§4): each keeps a
//! connection open and sends its next request as soon as the previous
//! one is served. [`Fleet`] holds that behaviour once — each client's
//! seeded request driver and ABR session, the receive-side accounting,
//! the ABR fetch step, the Retry-After queue and the end-of-run
//! readouts — over a [`Topology`], the one thing that differs between
//! a lone server's fleet ([`crate::ClientFleet`]: one connection per
//! client, opened when it joins) and a cluster's
//! ([`crate::MultiFleet`]: one per server the dispatcher sends it to,
//! opened on first use, with range-resume failover).

use crate::abr::{AbrSession, FetchStep};
use crate::fleet::{AbrReadout, ClientTx, FleetConfig};
use crate::multi::{NeedStep, RequestNeed};
use crate::receive::{ClientStream, Delivered, Receiver};
use crate::verify::{RungClaim, VerifyStats};
use dcn_httpd::RequestDriver;
use dcn_netdev::WireFrame;
use dcn_obs::qoe::{QoeStats, QoeSummary};
use dcn_packet::{FlowId, Ipv4Addr, MacAddr, SeqNumber};
use dcn_simcore::{Nanos, SimRng, TimeBuckets};
use dcn_store::{AbrManifest, Catalog, FileId};
use dcn_tcpstack::{ClientConn, Endpoint};
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

/// How a fleet's clients reach their servers.
pub trait Topology {
    /// What one client keeps of its connections.
    type Link;
    /// `link`'s connection to `server`, if it has one.
    fn stream(link: &mut Self::Link, server: usize) -> Option<&mut ClientStream>;
    /// Every connection `link` holds.
    fn streams(link: &Self::Link) -> impl Iterator<Item = &ClientStream>;
    /// The (file, resume base) of `client`'s request to `server`, if
    /// one is still in flight there: what a Retry-After wake re-sends.
    fn in_flight(client: &Client<Self::Link>, server: usize) -> Option<(FileId, u64)>;
}

/// One fleet member.
pub struct Client<L> {
    pub(crate) driver: RequestDriver,
    /// Adaptive-streaming state (Some iff `FleetConfig::abr`), out of
    /// line so a fixed-rate client carries 8 B for it.
    pub(crate) abr: Option<Box<AbrSession>>,
    pub(crate) link: L,
}

/// A client fleet over the connection topology `T`.
pub struct Fleet<T: Topology> {
    pub(crate) cfg: FleetConfig,
    catalog: Catalog,
    pub(crate) clients: Vec<Client<T::Link>>,
    /// The first `attackers` clients are slowloris attackers (a lone
    /// fleet's only; see [`crate::ClientFleet::with_attackers`]).
    pub(crate) attackers: usize,
    /// (client, server) of every client→server flow.
    pub(crate) by_flow: HashMap<FlowId, (usize, usize)>,
    /// The one delivery buffer every connection's bursts pass through.
    rx: Receiver,
    /// Response-body bytes received per time bucket — the network
    /// goodput the paper's throughput panels plot.
    pub goodput: TimeBuckets,
    pub total_body_bytes: u64,
    pub responses_completed: u64,
    pub verify_stats: VerifyStats,
    /// Deferred re-requests scheduled by Retry-After backoff: (due
    /// time, client, server), fired by the harness.
    pub(crate) pending_retries: BTreeSet<(Nanos, usize, usize)>,
    /// Retries actually re-sent after a 503 backoff.
    pub retries_fired: u64,
    /// Time-to-first-body-byte samples (request send → first body
    /// byte), including any 503 backoff. Only a lone server's fleet
    /// takes them.
    pub ttfb: Vec<Nanos>,
    /// The ABR manifest (Some iff `FleetConfig::abr`), shared by every
    /// session and verifier.
    manifest: Option<Rc<AbrManifest>>,
    /// What the topology keeps fleet-wide.
    pub topo: T,
}

impl<T: Topology> Fleet<T> {
    pub(crate) fn with(cfg: FleetConfig, catalog: Catalog, topo: T) -> Self {
        let manifest = cfg.abr.map(|_| Rc::new(AbrManifest::eval(&catalog)));
        Fleet {
            cfg,
            catalog,
            clients: Vec::new(),
            attackers: 0,
            by_flow: HashMap::new(),
            rx: Receiver::default(),
            goodput: TimeBuckets::new(Nanos::from_millis(1)),
            total_body_bytes: 0,
            responses_completed: 0,
            verify_stats: VerifyStats::default(),
            pending_retries: BTreeSet::new(),
            retries_fired: 0,
            ttfb: Vec::new(),
            manifest,
            topo,
        }
    }

    #[must_use]
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// Client `idx`'s RNG, seeded from the run's; clients join in
    /// order.
    pub(crate) fn client_rng(&self, idx: usize, seed: u64) -> SimRng {
        assert_eq!(idx, self.clients.len(), "spawn in order");
        SimRng::new(seed ^ (idx as u64) << 20)
    }

    /// The next client joins: its request driver and (ABR fleets) its
    /// session's title draw from `rng`, which `link` then gets.
    pub(crate) fn join(&mut self, mut rng: SimRng, link: impl FnOnce(SimRng) -> T::Link) {
        let n = self.catalog.n_files();
        let driver = if let Some(theta) = self.cfg.zipf {
            RequestDriver::zipf_perm(n, theta, rng.fork(1))
        } else if self.cfg.cacheable {
            RequestDriver::cacheable(n, self.cfg.hot_files, rng.fork(1))
        } else {
            RequestDriver::uncachable(n, rng.fork(1))
        };
        // ABR clients each stream one seeded-random title; the
        // verifier carries the manifest so every response is checked
        // against the claimed rung's chunk range.
        let abr = self.cfg.abr.map(|acfg| {
            let m = self.manifest.as_ref().expect("manifest built with abr");
            let title = rng.gen_range(0, m.n_titles());
            Box::new(AbrSession::new(Rc::clone(m), acfg, title))
        });
        self.clients.push(Client {
            driver,
            abr,
            link: link(rng),
        });
    }

    /// Open a connection from client `idx`'s local `port` to `server`
    /// at `remote`. Returns it and its SYN. Clients spread over many
    /// source IPs, as two load-generator machines with many sockets
    /// would.
    pub(crate) fn connect(
        &mut self,
        idx: usize,
        server: usize,
        remote: Endpoint,
        port: u16,
        iss: u32,
    ) -> (ClientStream, WireFrame) {
        let local = Endpoint {
            mac: MacAddr::from_host_id(1000 + idx as u32),
            ip: Ipv4Addr::new(10, 1, (idx / 250) as u8, (idx % 250) as u8 + 1),
            port,
        };
        let (conn, syn) = ClientConn::connect(local, remote, SeqNumber(iss), 4 << 20);
        self.by_flow.insert(conn.flow(), (idx, server));
        let stream = ClientStream::new(conn, self.manifest.as_ref(), self.cfg.verify);
        (stream, crate::receive::frame_of(syn))
    }

    /// A burst of frames arrived at the clients (one flow per burst;
    /// `flow` is the server→client direction). Runs it through its
    /// connection and accounts what it delivered. Returns the client,
    /// the server, the ACK frames and the delivery (zero without
    /// new stream bytes).
    pub(crate) fn receive(
        &mut self,
        now: Nanos,
        flow: FlowId,
        frames: Vec<WireFrame>,
    ) -> Option<(usize, usize, Vec<WireFrame>, Delivered)> {
        let &(idx, server) = self.by_flow.get(&flow.reversed())?;
        let c = &mut self.clients[idx];
        let stream = T::stream(&mut c.link, server)?;
        let (acks, delivered) = self.rx.on_burst(
            now,
            &frames,
            stream,
            &mut c.driver,
            &self.catalog,
            &mut self.verify_stats,
        );
        let Some(d) = delivered else {
            return Some((idx, server, acks, Delivered::default()));
        };
        self.goodput.add(now, d.body_bytes as f64);
        self.total_body_bytes += d.body_bytes;
        self.responses_completed += d.completed;
        if let Some(backoff_ms) = c.driver.take_retry_after() {
            // Honour the server's Retry-After: park the re-request
            // until the harness fires it.
            let at = now + Nanos::from_millis(backoff_ms);
            self.pending_retries.insert((at, idx, server));
        }
        // Each completed response is one manifest chunk; credit the
        // playout buffer before the next fetch is decided.
        if let Some(abr) = c.abr.as_mut() {
            for _ in 0..d.completed {
                abr.on_chunk_done(now);
            }
        }
        Some((idx, server, acks, d))
    }

    /// Client `idx`'s next request: its ABR session's next chunk (or
    /// its on-off pause), else a draw from its popularity
    /// distribution.
    pub(crate) fn next_step(&mut self, idx: usize, now: Nanos) -> NeedStep {
        let c = &mut self.clients[idx];
        let file = match c.abr.as_mut() {
            None => c.driver.next_file(),
            Some(abr) => {
                abr.note_first_request(now);
                match abr.next_fetch(now) {
                    FetchStep::Chunk(f) => {
                        c.driver.request_file(f);
                        f
                    }
                    FetchStep::PausedUntil(t) => return NeedStep::PausedUntil(t),
                }
            }
        };
        NeedStep::Need(RequestNeed {
            client: idx,
            file,
            base: 0,
        })
    }

    /// The (title, seg, rung) claim of client `idx`'s current chunk,
    /// so the verifier catches a wrong-rung delivery from any server.
    pub(crate) fn claim(&self, idx: usize) -> Option<RungClaim> {
        let abr = self.clients[idx].abr.as_ref()?;
        let (title, seg, rung) = abr.current_claim()?;
        Some(RungClaim { title, seg, rung })
    }

    /// Earliest pending Retry-After deadline (for harness scheduling).
    #[must_use]
    pub fn next_retry_at(&self) -> Option<Nanos> {
        self.pending_retries.first().map(|&(at, _, _)| at)
    }

    /// Re-send shed requests whose 503 backoff has expired, each on
    /// the connection that was shed. Returns (server, frames) per
    /// retried client.
    pub(crate) fn retry_due(&mut self, now: Nanos) -> Vec<(usize, ClientTx)> {
        let mut txs = Vec::new();
        while let Some(&(at, idx, server)) = self.pending_retries.first() {
            if at > now {
                break;
            }
            self.pending_retries.pop_first();
            let c = &mut self.clients[idx];
            // Failed over or reset meanwhile: nothing to retry here.
            let Some((file, base)) = T::in_flight(c, server) else {
                continue;
            };
            let Some(stream) = T::stream(&mut c.link, server).filter(|s| s.established()) else {
                continue;
            };
            // Same request, same expected entry: the verifier's
            // expected front still describes it.
            let frame = stream.get(file, base);
            self.retries_fired += 1;
            let flow = stream.conn.flow();
            txs.push((
                server,
                ClientTx {
                    flow,
                    frames: vec![frame],
                },
            ));
        }
        txs
    }

    /// Close every ABR session and aggregate the fleet's QoE, keeping
    /// each session's decisions for the trace. None for fixed-rate
    /// fleets.
    pub fn finish_abr(&mut self, now: Nanos) -> Option<AbrReadout> {
        self.cfg.abr?;
        let mut out = AbrReadout::default();
        let mut stats: Vec<QoeStats> = Vec::new();
        for (i, c) in self.clients.iter_mut().enumerate() {
            let Some(mut abr) = c.abr.take() else {
                continue;
            };
            out.decisions += abr.decisions.len() as u64;
            out.downswitches += abr.downswitches();
            out.paced_wakes += abr.resumes;
            out.log.push((i, std::mem::take(&mut abr.decisions)));
            stats.push(abr.finish(now));
        }
        out.qoe = QoeSummary::aggregate(&stats, now);
        Some(out)
    }

    /// 503 load-shed responses observed across the fleet.
    #[must_use]
    pub fn rejections_503(&self) -> u64 {
        self.clients.iter().map(|c| c.driver.rejections_503).sum()
    }

    /// Fraction of well-behaved clients that completed at least one
    /// response (slowloris attackers, the first `attackers` clients,
    /// never complete by design).
    #[must_use]
    pub fn live_fraction(&self) -> f64 {
        let normal = self.clients.iter().skip(self.attackers);
        let n = normal.len();
        if n == 0 {
            return 0.0;
        }
        let live = normal.filter(|c| c.driver.responses_done > 0).count();
        live as f64 / n as f64
    }

    /// Total dup-ACKs the fleet generated (loss diagnostics).
    #[must_use]
    pub fn dupacks(&self) -> u64 {
        let streams = self.clients.iter().flat_map(|c| T::streams(&c.link));
        streams.map(|s| s.conn.dupacks_sent).sum()
    }

    /// Connections that carry an oracle.
    #[cfg(test)]
    pub(crate) fn oracles(&self) -> usize {
        let streams = self.clients.iter().flat_map(|c| T::streams(&c.link));
        streams.filter(|s| s.oracle.is_some()).count()
    }
}
