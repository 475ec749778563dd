//! A client fleet that targets **multiple server endpoints** — the
//! workload side of the cluster layer (`dcn-cluster`).
//!
//! Each client runs one request at a time, but keeps a persistent
//! connection per server it has talked to (opened lazily the first
//! time the dispatcher routes it there — the way a real player keeps
//! a socket per CDN edge it gets directed to). Routing itself lives
//! in `dcn-cluster`; this fleet only needs to know *which* endpoint a
//! given request goes to, via [`MultiFleet::request`].
//!
//! When a server dies mid-stream, [`MultiFleet::fail_server`] severs
//! its connections and reports, per affected client, where the
//! interrupted transfer can resume (`Range: bytes=N-` on a replica).
//! Stream verification carries across the reconnect: resumed
//! responses are checked against the catalog oracle at their absolute
//! file offsets.

use crate::abr::{AbrSession, FetchStep};
use crate::receive::{frame_of, ClientStream, Receiver};
use crate::verify::{Expected, RungClaim, VerifyStats};
use dcn_httpd::{
    chunk_path,
    parser::{build_get, build_get_range},
    RequestDriver,
};
use dcn_netdev::WireFrame;
use dcn_obs::qoe::{QoeStats, QoeSummary};
use dcn_packet::{FlowId, Ipv4Addr, MacAddr, SeqNumber};
use dcn_simcore::{Nanos, SimRng, TimeBuckets};
use dcn_store::{AbrManifest, Catalog, FileId};
use dcn_tcpstack::{client::ClientState, ClientConn, Endpoint};
use std::collections::HashMap;
use std::rc::Rc;

use crate::fleet::{AbrReadout, ClientTx, FleetConfig};

/// "Client `client` wants `file`, starting at plaintext offset
/// `base`" — handed to the dispatcher, which picks the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestNeed {
    pub client: usize,
    pub file: FileId,
    /// Resume base (0 for fresh requests).
    pub base: u64,
}

/// A client whose in-flight transfer was severed by a server failure,
/// ready to reconnect elsewhere.
pub type FailoverPlan = RequestNeed;

/// What an ABR-aware need draw produced: either a request to
/// dispatch, or "the playout buffer is full — ask again at `t`" (the
/// caller schedules a wake; see `dcn-cluster`'s `Ev::AbrWake`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NeedStep {
    Need(RequestNeed),
    PausedUntil(Nanos),
}

/// One connection to one server.
struct ConnState {
    stream: ClientStream,
    /// Request waiting for the handshake to complete.
    pending: Option<Expected>,
}

struct MClient {
    driver: RequestDriver,
    rng: SimRng,
    /// Open connection per server (index-aligned with endpoints).
    conns: Vec<Option<ConnState>>,
    /// (server, file, base) of the in-flight request, if any.
    current: Option<(usize, FileId, u64)>,
    /// Next local port — bumped per connection so a reconnect never
    /// reuses a flow id.
    next_port: u16,
    done_at_least_one: bool,
    /// Adaptive-streaming state (Some iff `FleetConfig::abr`), out of
    /// line so a fixed-rate client carries 8 B for it.
    abr: Option<Box<AbrSession>>,
}

/// What `on_burst` produced: reply frames plus how many responses
/// completed (the sim issues that many follow-up requests for
/// `client`).
pub struct BurstOut {
    pub tx: ClientTx,
    pub client: usize,
    /// The server the burst came from (and `tx` goes to).
    pub server: usize,
    pub completed: u64,
}

/// The multi-endpoint fleet.
pub struct MultiFleet {
    cfg: FleetConfig,
    catalog: Catalog,
    endpoints: Vec<Endpoint>,
    clients: Vec<MClient>,
    /// Keyed by the client→server flow.
    by_flow: HashMap<FlowId, (usize, usize)>,
    /// The one delivery buffer every connection's bursts pass through.
    rx: Receiver,
    pub goodput: TimeBuckets,
    pub total_body_bytes: u64,
    pub responses_completed: u64,
    pub verify_stats: VerifyStats,
    /// Clients re-pointed at a replica by `fail_server`.
    pub failovers: u64,
    /// Failovers that resumed mid-body (base > 0) rather than
    /// restarting the chunk.
    pub resumed_responses: u64,
    /// On-off pauses entered by ABR clients (the cluster harness
    /// schedules the matching resume wake).
    paced: u64,
    /// Plaintext bytes the range resumes did *not* re-download.
    pub resumed_bytes_saved: u64,
    /// The ABR manifest (Some iff `FleetConfig::abr`), shared by every
    /// session and verifier.
    manifest: Option<Rc<AbrManifest>>,
}

impl MultiFleet {
    #[must_use]
    pub fn new(cfg: FleetConfig, catalog: Catalog, endpoints: Vec<Endpoint>) -> Self {
        assert!(!endpoints.is_empty(), "need at least one server");
        let manifest = cfg.abr.map(|_| Rc::new(AbrManifest::eval(&catalog)));
        MultiFleet {
            cfg,
            catalog,
            endpoints,
            manifest,
            clients: Vec::new(),
            by_flow: HashMap::new(),
            rx: Receiver::default(),
            goodput: TimeBuckets::new(Nanos::from_millis(1)),
            total_body_bytes: 0,
            responses_completed: 0,
            verify_stats: VerifyStats::default(),
            failovers: 0,
            resumed_responses: 0,
            resumed_bytes_saved: 0,
            paced: 0,
        }
    }

    #[must_use]
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.endpoints.len()
    }

    /// Create client `idx` (no traffic yet — follow with `next_need`
    /// → dispatch → `request`).
    pub fn spawn(&mut self, idx: usize, seed: u64) {
        assert_eq!(idx, self.clients.len(), "spawn in order");
        let mut rng = SimRng::new(seed ^ (idx as u64) << 20);
        let driver = if let Some(theta) = self.cfg.zipf {
            RequestDriver::zipf_perm(
                self.catalog.n_files(),
                theta,
                self.cfg.zipf_perm_seed,
                rng.fork(1),
            )
        } else if self.cfg.cacheable {
            RequestDriver::cacheable(self.catalog.n_files(), self.cfg.hot_files, rng.fork(1))
        } else {
            RequestDriver::uncachable(self.catalog.n_files(), rng.fork(1))
        };
        let abr = self.cfg.abr.map(|acfg| {
            let m = self.manifest.as_ref().expect("manifest built with abr");
            Box::new(AbrSession::new(
                Rc::clone(m),
                acfg,
                rng.gen_range(0, m.n_titles()),
            ))
        });
        self.clients.push(MClient {
            driver,
            rng,
            conns: (0..self.endpoints.len()).map(|_| None).collect(),
            current: None,
            next_port: 10_000,
            done_at_least_one: false,
            abr,
        });
    }

    /// Draw the next file for `client` from its workload
    /// distribution.
    pub fn next_need(&mut self, client: usize) -> RequestNeed {
        RequestNeed {
            client,
            file: self.clients[client].driver.next_file(),
            base: 0,
        }
    }

    /// ABR-aware need draw: the client's session picks the next chunk
    /// (possibly deciding a new segment's rung), or reports its
    /// on-off pause. Falls back to `next_need` for fixed workloads.
    pub fn next_need_at(&mut self, client: usize, now: Nanos) -> NeedStep {
        let c = &mut self.clients[client];
        let Some(abr) = c.abr.as_mut() else {
            return NeedStep::Need(self.next_need(client));
        };
        abr.note_first_request(now);
        match abr.next_fetch(now) {
            FetchStep::Chunk(file) => {
                c.driver.request_file(file);
                NeedStep::Need(RequestNeed {
                    client,
                    file,
                    base: 0,
                })
            }
            FetchStep::PausedUntil(t) => {
                self.paced = self.paced.saturating_add(1);
                NeedStep::PausedUntil(t)
            }
        }
    }

    fn local_endpoint(idx: usize, port: u16) -> Endpoint {
        Endpoint {
            mac: MacAddr::from_host_id(1000 + idx as u32),
            ip: Ipv4Addr::new(10, 1, (idx / 250) as u8, (idx % 250) as u8 + 1),
            port,
        }
    }

    /// Send `need` to `server` (the dispatcher's pick). Opens a
    /// connection lazily; the request rides once the handshake is
    /// done. Returns frames to inject into the network.
    pub fn request(&mut self, need: RequestNeed, server: usize) -> ClientTx {
        let idx = need.client;
        let client = &mut self.clients[idx];
        client.current = Some((server, need.file, need.base));
        // ABR clients attach their (title, seg, rung) claim so the
        // verifier catches wrong-rung deliveries from any replica.
        let claim = client
            .abr
            .as_ref()
            .and_then(|a| a.current_claim())
            .map(|(title, seg, rung)| RungClaim { title, seg, rung });
        let expected = Expected {
            file: need.file,
            base: need.base,
            claim,
        };
        if let Some(cs) = client.conns[server].as_mut() {
            if matches!(cs.stream.conn.state, ClientState::Established) {
                cs.stream.expect(expected);
                let f = cs.stream.conn.send(get_bytes(need));
                return ClientTx {
                    flow: cs.stream.conn.flow(),
                    frames: vec![frame_of(f)],
                };
            }
            cs.pending = Some(expected);
            return ClientTx {
                flow: cs.stream.conn.flow(),
                frames: Vec::new(),
            };
        }
        // Fresh connection to this server.
        let local = Self::local_endpoint(idx, client.next_port);
        client.next_port = client.next_port.wrapping_add(1).max(10_000);
        let iss = SeqNumber(client.rng.next_u64() as u32);
        let (conn, syn) = ClientConn::connect(local, self.endpoints[server], iss, 4 << 20);
        let flow = conn.flow();
        client.conns[server] = Some(ConnState {
            stream: ClientStream::new(conn, self.manifest.as_ref(), self.cfg.verify),
            pending: Some(expected),
        });
        self.by_flow.insert(flow, (idx, server));
        ClientTx {
            flow,
            frames: vec![frame_of(syn)],
        }
    }

    /// A burst of frames arrived from a server (`flow` is the
    /// server→client direction).
    pub fn on_burst(
        &mut self,
        now: Nanos,
        flow: FlowId,
        frames: Vec<WireFrame>,
    ) -> Option<BurstOut> {
        let &(idx, server) = self.by_flow.get(&flow.reversed())?;
        let client = &mut self.clients[idx];
        let cs = client.conns[server].as_mut()?;
        let (mut out, delivered) = self.rx.on_burst(
            now,
            &frames,
            &mut cs.stream,
            &mut client.driver,
            &self.catalog,
            &mut self.verify_stats,
        );

        let mut completed = 0;
        if let Some(d) = delivered {
            completed = d.completed;
            self.goodput.add(now, d.body_bytes as f64);
            self.total_body_bytes += d.body_bytes;
            self.responses_completed += completed;
            if completed > 0 {
                client.done_at_least_one = true;
                client.current = None;
                // Each completed response is one manifest chunk.
                if let Some(abr) = client.abr.as_mut() {
                    for _ in 0..completed {
                        abr.on_chunk_done(now);
                    }
                }
            }
        }
        // Handshake completed → release the parked request.
        if matches!(cs.stream.conn.state, ClientState::Established) {
            if let Some(exp) = cs.pending.take() {
                cs.stream.expect(exp);
                let need = RequestNeed {
                    client: idx,
                    file: exp.file,
                    base: exp.base,
                };
                let f = cs.stream.conn.send(get_bytes(need));
                out.push(frame_of(f));
            }
        }
        Some(BurstOut {
            tx: ClientTx {
                flow: flow.reversed(),
                frames: out,
            },
            client: idx,
            server,
            completed,
        })
    }

    /// Server `server` is gone (fail-stop): sever its connections and
    /// report which clients need re-dispatching — each with the file
    /// offset its interrupted transfer can resume from.
    pub fn fail_server(&mut self, server: usize) -> Vec<FailoverPlan> {
        let mut plans = Vec::new();
        for (idx, client) in self.clients.iter_mut().enumerate() {
            let Some(cs) = client.conns[server].take() else {
                continue;
            };
            self.by_flow.remove(&cs.stream.conn.flow());
            let Some((cur_server, cur_file, cur_base)) = client.current else {
                continue; // idle connection, nothing in flight
            };
            if cur_server != server {
                continue; // in-flight request targets another server
            }
            // The driver knows the in-order wire progress of the
            // aborted response and floors it to a record boundary.
            let resumed = client.driver.disconnect().map_or(0, |p| p.offset);
            let base = cur_base + resumed;
            client.current = None;
            self.failovers += 1;
            if base > 0 {
                self.resumed_responses += 1;
                self.resumed_bytes_saved += base;
            }
            plans.push(RequestNeed {
                client: idx,
                file: cur_file,
                base,
            });
        }
        plans
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
        out.paced_wakes = self.paced;
        Some(out)
    }

    /// Fraction of clients that completed at least one response.
    #[must_use]
    pub fn live_fraction(&self) -> f64 {
        if self.clients.is_empty() {
            return 0.0;
        }
        self.clients.iter().filter(|c| c.done_at_least_one).count() as f64
            / self.clients.len() as f64
    }

    /// Total dup-ACKs across every live connection.
    #[must_use]
    pub fn dupacks(&self) -> u64 {
        self.clients
            .iter()
            .flat_map(|c| c.conns.iter().flatten())
            .map(|cs| cs.stream.conn.dupacks_sent)
            .sum()
    }
}

fn get_bytes(need: RequestNeed) -> Vec<u8> {
    let path = chunk_path(need.file);
    if need.base > 0 {
        build_get_range(&path, "cdn.test", need.base)
    } else {
        build_get(&path, "cdn.test")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| Endpoint {
                mac: MacAddr::from_host_id(i as u32 + 1),
                ip: Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                port: 80,
            })
            .collect()
    }

    #[test]
    fn lazy_connections_one_per_server() {
        let cat = Catalog::new(1000, 300 * 1024, 4, 7);
        let mut fleet = MultiFleet::new(FleetConfig::default(), cat, endpoints(3));
        fleet.spawn(0, 9);
        let need = fleet.next_need(0);
        let tx = fleet.request(need, 2);
        assert_eq!(tx.frames.len(), 1, "SYN to server 2");
        assert_eq!(tx.flow.dst_ip, Ipv4Addr::new(10, 0, 0, 3));
        // A second request to the same (unestablished) server parks.
        let tx2 = fleet.request(
            RequestNeed {
                client: 0,
                file: FileId(1),
                base: 0,
            },
            2,
        );
        assert!(tx2.frames.is_empty());
    }

    #[test]
    fn reconnects_use_fresh_flows() {
        let cat = Catalog::new(1000, 300 * 1024, 4, 7);
        let mut fleet = MultiFleet::new(FleetConfig::default(), cat, endpoints(2));
        fleet.spawn(0, 9);
        let t1 = fleet.request(
            RequestNeed {
                client: 0,
                file: FileId(1),
                base: 0,
            },
            0,
        );
        let plans = fleet.fail_server(0);
        assert_eq!(plans.len(), 1);
        assert_eq!(
            plans[0],
            RequestNeed {
                client: 0,
                file: FileId(1),
                base: 0
            }
        );
        let t2 = fleet.request(plans[0], 1);
        assert_ne!(t1.flow, t2.flow);
        assert_eq!(fleet.failovers, 1);
        assert_eq!(fleet.resumed_responses, 0, "no body bytes yet → restart");
    }

    #[test]
    fn fail_server_skips_idle_and_other_targets() {
        let cat = Catalog::new(1000, 300 * 1024, 4, 7);
        let mut fleet = MultiFleet::new(FleetConfig::default(), cat, endpoints(2));
        fleet.spawn(0, 9);
        // In-flight request targets server 1; server 0 has no conn.
        fleet.request(
            RequestNeed {
                client: 0,
                file: FileId(4),
                base: 0,
            },
            1,
        );
        assert!(fleet.fail_server(0).is_empty());
        // Killing server 1 yields the plan.
        assert_eq!(fleet.fail_server(1).len(), 1);
    }

    #[test]
    fn client_size_budget() {
        // Connections live in `MClient::conns` on the heap; the ABR
        // session lives out of line.
        let size = std::mem::size_of::<MClient>();
        assert!(
            size <= 408,
            "MultiFleet MClient is {size} B, over its 408 B budget: is \
             `MClient::abr` ({} B) inline again?",
            std::mem::size_of::<AbrSession>()
        );
    }

    #[test]
    fn oracles_exist_only_when_verifying() {
        for verify in [false, true] {
            let cat = Catalog::new(1000, 300 * 1024, 4, 7);
            let cfg = FleetConfig {
                verify,
                ..FleetConfig::default()
            };
            let mut fleet = MultiFleet::new(cfg, cat, endpoints(1));
            fleet.spawn(0, 9);
            let need = fleet.next_need(0);
            fleet.request(need, 0);
            let cs = fleet.clients[0].conns[0].as_ref().expect("opened");
            assert_eq!(cs.stream.oracle.is_some(), verify);
        }
    }
}
