//! The client fleet that drives a cluster — the workload side of
//! `dcn-cluster`.
//!
//! Each client runs one request at a time, but keeps a persistent
//! connection per server it has talked to (opened lazily the first
//! time the dispatcher routes it there — the way a real player keeps
//! a socket per CDN edge it gets directed to). Routing itself lives
//! in `dcn-cluster`; this fleet only needs to know *which* endpoint a
//! given request goes to, via [`MultiFleet::request`]. Everything else
//! a client does — its request driver and ABR session, the receive
//! accounting, the ABR fetch step and the Retry-After queue — is the
//! crate's one shared fleet, the same as a lone server's.
//!
//! When a server dies mid-stream, [`MultiFleet::fail_server`] severs
//! its connections and reports, per affected client, where the
//! interrupted transfer can resume (`Range: bytes=N-` on a replica).
//! Stream verification carries across the reconnect: resumed
//! responses are checked against the catalog oracle at their absolute
//! file offsets.
//!
//! A 503 leaves the request outstanding: the client waits out the
//! server's `Retry-After` and re-sends the same request on the same
//! connection ([`MultiFleet::fire_retries`]), so the verifier's
//! expected entry still describes it.

use crate::client::{Client, Fleet, Topology};
use crate::fleet::{ClientTx, FleetConfig};
use crate::receive::ClientStream;
use crate::verify::Expected;
use dcn_netdev::WireFrame;
use dcn_packet::FlowId;
use dcn_simcore::{Nanos, SimRng};
use dcn_store::{Catalog, FileId};
use dcn_tcpstack::Endpoint;

/// "Client `client` wants `file`, starting at plaintext offset
/// `base`" — handed to the dispatcher, which picks the server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestNeed {
    pub client: usize,
    pub file: FileId,
    /// Resume base (0 for fresh requests).
    pub base: u64,
}

/// What an ABR-aware need draw produced: either a request to
/// dispatch, or "the playout buffer is full — ask again at `t`" (the
/// caller schedules a wake; see `dcn-cluster`'s `Ev::AbrWake`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NeedStep {
    Need(RequestNeed),
    PausedUntil(Nanos),
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

/// One connection to one server.
struct ConnState {
    stream: ClientStream,
    /// Request waiting for the handshake to complete.
    pending: Option<Expected>,
}

/// The cluster fleet.
pub type MultiFleet = Fleet<Cluster>;

/// A cluster's topology: one connection per (client, server), opened
/// on first use, and the failover readout.
pub struct Cluster {
    endpoints: Vec<Endpoint>,
    /// Clients re-pointed at a replica by `fail_server`.
    pub failovers: u64,
    /// Failovers that resumed mid-body (base > 0) rather than
    /// restarting the chunk.
    pub resumed_responses: u64,
    /// Plaintext bytes the range resumes did *not* re-download.
    pub resumed_bytes_saved: u64,
}

/// A cluster client's connections.
pub struct ClusterLink {
    /// Draws each new connection's ISS.
    rng: SimRng,
    /// Open connection per server (index-aligned with endpoints).
    conns: Vec<Option<ConnState>>,
    /// (server, file, base) of the in-flight request, if any.
    current: Option<(usize, FileId, u64)>,
    /// Next local port — bumped per connection so a reconnect never
    /// reuses a flow id.
    next_port: u16,
}

impl Topology for Cluster {
    type Link = ClusterLink;

    fn stream(link: &mut ClusterLink, server: usize) -> Option<&mut ClientStream> {
        link.conns[server].as_mut().map(|cs| &mut cs.stream)
    }

    fn streams(link: &ClusterLink) -> impl Iterator<Item = &ClientStream> {
        link.conns.iter().flatten().map(|cs| &cs.stream)
    }

    fn in_flight(client: &Client<ClusterLink>, server: usize) -> Option<(FileId, u64)> {
        let (s, file, base) = client.link.current?;
        (s == server).then_some((file, base))
    }
}

impl MultiFleet {
    #[must_use]
    pub fn new(cfg: FleetConfig, catalog: Catalog, endpoints: Vec<Endpoint>) -> Self {
        assert!(!endpoints.is_empty(), "need at least one server");
        let cluster = Cluster {
            endpoints,
            failovers: 0,
            resumed_responses: 0,
            resumed_bytes_saved: 0,
        };
        Fleet::with(cfg, catalog, cluster)
    }

    #[must_use]
    pub fn n_servers(&self) -> usize {
        self.topo.endpoints.len()
    }

    /// Create client `idx` (no traffic yet — follow with
    /// `next_need_at` → dispatch → `request`).
    pub fn spawn(&mut self, idx: usize, seed: u64) {
        let rng = self.client_rng(idx, seed);
        let n = self.n_servers();
        self.join(rng, |rng| ClusterLink {
            rng,
            conns: (0..n).map(|_| None).collect(),
            current: None,
            next_port: 10_000,
        });
    }

    /// The client's next need: its ABR session picks the next chunk
    /// (possibly deciding a new segment's rung) or reports its on-off
    /// pause; a fixed-rate client draws from its workload
    /// distribution.
    pub fn next_need_at(&mut self, client: usize, now: Nanos) -> NeedStep {
        self.next_step(client, now)
    }

    /// Send `need` to `server` (the dispatcher's pick). Opens a
    /// connection lazily; the request rides once the handshake is
    /// done. Returns frames to inject into the network.
    pub fn request(&mut self, need: RequestNeed, server: usize) -> ClientTx {
        let idx = need.client;
        let expected = Expected {
            file: need.file,
            base: need.base,
            claim: self.claim(idx),
        };
        let link = &mut self.clients[idx].link;
        link.current = Some((server, need.file, need.base));
        if let Some(cs) = link.conns[server].as_mut() {
            let flow = cs.stream.conn.flow();
            let mut frames = Vec::new();
            if cs.stream.established() {
                frames.push(cs.stream.request(expected));
            } else {
                cs.pending = Some(expected);
            }
            return ClientTx { flow, frames };
        }
        // Fresh connection to this server.
        let port = link.next_port;
        link.next_port = port.wrapping_add(1).max(10_000);
        let iss = link.rng.next_u64() as u32;
        let remote = self.topo.endpoints[server];
        let (stream, syn) = self.connect(idx, server, remote, port, iss);
        let flow = stream.conn.flow();
        self.clients[idx].link.conns[server] = Some(ConnState {
            stream,
            pending: Some(expected),
        });
        ClientTx {
            flow,
            frames: vec![syn],
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
        let (idx, server, mut out, got) = self.receive(now, flow, frames)?;
        let link = &mut self.clients[idx].link;
        if got.completed > 0 {
            link.current = None;
        }
        // Handshake completed → release the parked request.
        let cs = link.conns[server].as_mut().expect("the burst's connection");
        if cs.stream.established() {
            if let Some(exp) = cs.pending.take() {
                out.push(cs.stream.request(exp));
            }
        }
        Some(BurstOut {
            tx: ClientTx {
                flow: flow.reversed(),
                frames: out,
            },
            client: idx,
            server,
            completed: got.completed,
        })
    }

    /// Re-send shed requests whose 503 backoff has expired, each on the
    /// connection that was shed. Returns (server, frames) per retried
    /// client.
    pub fn fire_retries(&mut self, now: Nanos) -> Vec<(usize, ClientTx)> {
        self.retry_due(now)
    }

    /// Shed requests still waiting out their backoff.
    #[must_use]
    pub fn retries_pending(&self) -> u64 {
        self.pending_retries.len() as u64
    }

    /// Server `server` is gone (fail-stop): sever its connections and
    /// report which clients need re-dispatching — each with the file
    /// offset its interrupted transfer can resume from.
    pub fn fail_server(&mut self, server: usize) -> Vec<RequestNeed> {
        let mut plans = Vec::new();
        for (idx, client) in self.clients.iter_mut().enumerate() {
            let Some(cs) = client.link.conns[server].take() else {
                continue;
            };
            self.by_flow.remove(&cs.stream.conn.flow());
            let Some((cur_server, cur_file, cur_base)) = client.link.current else {
                continue; // idle connection, nothing in flight
            };
            if cur_server != server {
                continue; // in-flight request targets another server
            }
            // The driver knows the in-order wire progress of the
            // aborted response and floors it to a record boundary.
            let resumed = client.driver.disconnect().map_or(0, |p| p.offset);
            let base = cur_base + resumed;
            client.link.current = None;
            let topo = &mut self.topo;
            topo.failovers += 1;
            if base > 0 {
                topo.resumed_responses += 1;
                topo.resumed_bytes_saved += base;
            }
            plans.push(RequestNeed {
                client: idx,
                file: cur_file,
                base,
            });
        }
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_packet::{Ipv4Addr, MacAddr};

    fn endpoints(n: usize) -> Vec<Endpoint> {
        (0..n)
            .map(|i| Endpoint {
                mac: MacAddr::from_host_id(i as u32 + 1),
                ip: Ipv4Addr::new(10, 0, 0, i as u8 + 1),
                port: 80,
            })
            .collect()
    }

    fn first_need(fleet: &mut MultiFleet) -> RequestNeed {
        match fleet.next_need_at(0, Nanos::ZERO) {
            NeedStep::Need(need) => need,
            NeedStep::PausedUntil(t) => panic!("a fresh client paused until {t:?}"),
        }
    }

    #[test]
    fn lazy_connections_one_per_server() {
        let cat = Catalog::new(1000, 300 * 1024, 4, 7);
        let mut fleet = MultiFleet::new(FleetConfig::default(), cat, endpoints(3));
        fleet.spawn(0, 9);
        let need = first_need(&mut fleet);
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
        assert_eq!(fleet.topo.failovers, 1);
        assert_eq!(
            fleet.topo.resumed_responses, 0,
            "no body bytes yet → restart"
        );
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
        // Connections live in `ClusterLink::conns` on the heap; the
        // ABR session lives out of line.
        let size = std::mem::size_of::<Client<ClusterLink>>();
        assert!(
            size <= 408,
            "MultiFleet client is {size} B, over its 408 B budget: is \
             `Client::abr` ({} B) inline again?",
            std::mem::size_of::<crate::AbrSession>()
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
            let need = first_need(&mut fleet);
            fleet.request(need, 0);
            assert_eq!(fleet.oracles(), usize::from(verify));
        }
    }
}
