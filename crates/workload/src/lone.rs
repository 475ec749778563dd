//! The fleet that drives a lone server: every client opens one
//! connection to server 0 when it joins. What clients do whatever
//! their topology is the crate's shared fleet; this module adds the
//! lone topology's eager connections, slowloris attackers,
//! time-to-first-byte samples and on-off resume queue, and plugs the
//! fleet into the testbed loop.

use crate::client::{Client, Fleet, Topology};
use crate::fleet::{AbrReadout, ClientTx, FleetConfig};
use crate::multi::NeedStep;
use crate::receive::{frame_of, ClientStream};
use crate::testbed::{ClientSide, Net, PendingWake};
use crate::verify::Expected;
use dcn_netdev::WireFrame;
use dcn_packet::FlowId;
use dcn_simcore::Nanos;
use dcn_srvcore::SERVER_ENDPOINT;
use dcn_store::{Catalog, FileId};
use std::collections::BTreeSet;

/// The lone-server fleet.
pub type ClientFleet = Fleet<Lone>;

/// A lone server's topology: one connection per client, opened when
/// the client joins.
pub struct Lone {
    /// On-off pauses: (resume time, client index), fired by the
    /// harness via [`ClientFleet::fire_paced`] — the same deferred-
    /// wake discipline as the Retry-After queue.
    pending_paced: BTreeSet<(Nanos, usize)>,
    /// The one pending Retry-After wake on the testbed…
    retry_wake: PendingWake,
    /// …and the one pending on-off resume.
    paced_wake: PendingWake,
}

/// A lone-server client's connection.
pub struct LoneLink {
    stream: ClientStream,
    first_request_sent: bool,
    /// Send time of the oldest unanswered request (TTFB clock; spans
    /// 503 retries, so backoff shows up in the latency tail).
    ttfb_pending: Option<Nanos>,
}

impl Topology for Lone {
    type Link = LoneLink;

    fn stream(link: &mut LoneLink, _server: usize) -> Option<&mut ClientStream> {
        Some(&mut link.stream)
    }

    fn streams(link: &LoneLink) -> impl Iterator<Item = &ClientStream> {
        std::iter::once(&link.stream)
    }

    fn in_flight(client: &Client<LoneLink>, _server: usize) -> Option<(FileId, u64)> {
        client.driver.current_file().map(|f| (f, 0))
    }
}

impl ClientFleet {
    #[must_use]
    pub fn new(cfg: FleetConfig, catalog: Catalog, _seed: u64) -> Self {
        let lone = Lone {
            pending_paced: BTreeSet::new(),
            retry_wake: PendingWake::IDLE,
            paced_wake: PendingWake::IDLE,
        };
        Fleet::with(cfg, catalog, lone)
    }

    /// Make the first `n` clients slowloris attackers: they complete
    /// the handshake, dribble a truncated request head, and go silent,
    /// so the server's header-read timeout must reap them. Excluded
    /// from `live_fraction`.
    #[must_use]
    pub(crate) fn with_attackers(mut self, n: usize) -> Self {
        self.attackers = n.min(self.cfg.n_clients);
        self
    }

    /// Spawn the next client: returns its SYN. The first `attackers`
    /// clients are attackers.
    pub fn spawn(&mut self, idx: usize, seed: u64) -> ClientTx {
        let mut rng = self.client_rng(idx, seed);
        let iss = rng.next_u64() as u32;
        let port = 10_000 + (idx % 50_000) as u16;
        let (stream, syn) = self.connect(idx, 0, SERVER_ENDPOINT, port, iss);
        let flow = stream.conn.flow();
        self.join(rng, |_| LoneLink {
            stream,
            first_request_sent: false,
            ttfb_pending: None,
        });
        ClientTx {
            flow,
            frames: vec![syn],
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
        let (idx, _, mut out, got) = self.receive(now, flow, frames)?;
        let link = &mut self.clients[idx].link;
        if got.body_bytes > 0 {
            if let Some(t0) = link.ttfb_pending.take() {
                self.ttfb.push(now.saturating_sub(t0));
            }
        }
        // Fire follow-up requests: one per completed response, plus
        // the very first request when the handshake completes.
        let established = link.stream.established();
        let first = established && !link.first_request_sent;
        link.first_request_sent |= established;
        if idx < self.attackers {
            // The attack: a truncated request head, then silence. The
            // connection keeps ACKing (it is alive at the TCP layer)
            // but never completes a request.
            if first {
                let f = link.stream.conn.send(b"GET /chunk/00000000 HT".to_vec());
                out.push(frame_of(f));
            }
        } else if established {
            for _ in 0..got.completed + u64::from(first) {
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
        let file = match self.next_step(idx, now) {
            NeedStep::Need(need) => need.file,
            NeedStep::PausedUntil(at) => {
                self.topo.pending_paced.insert((at, idx));
                return None;
            }
        };
        let claim = self.claim(idx);
        let link = &mut self.clients[idx].link;
        link.ttfb_pending.get_or_insert(now);
        Some(link.stream.request(Expected {
            file,
            base: 0,
            claim,
        }))
    }

    /// Re-send shed requests whose 503 backoff has expired. Returns
    /// one ClientTx per retried client.
    pub fn fire_retries(&mut self, now: Nanos) -> Vec<ClientTx> {
        self.retry_due(now).into_iter().map(|(_, tx)| tx).collect()
    }

    /// Earliest on-off resume deadline (for harness scheduling).
    #[must_use]
    pub fn next_paced_at(&self) -> Option<Nanos> {
        self.topo.pending_paced.first().map(|&(at, _)| at)
    }

    /// Resume fetching for ABR clients whose playout buffer has
    /// drained to the resume level. Returns one ClientTx per resumed
    /// client — the "on" edge of the on-off burst.
    pub fn fire_paced(&mut self, now: Nanos) -> Vec<ClientTx> {
        let mut txs = Vec::new();
        while let Some(&(at, idx)) = self.topo.pending_paced.first() {
            if at > now {
                break;
            }
            self.topo.pending_paced.pop_first();
            if !self.clients[idx].link.stream.established() {
                continue; // reset meanwhile; the session is dead
            }
            if let Some(frame) = self.next_request(now, idx) {
                let flow = self.clients[idx].link.stream.conn.flow();
                txs.push(ClientTx {
                    flow,
                    frames: vec![frame],
                });
            }
        }
        txs
    }

    /// Clients whose connection the server reset (refused SYNs plus
    /// slow-client aborts).
    #[must_use]
    pub fn resets_received(&self) -> u64 {
        let reset = self
            .clients
            .iter()
            .filter(|c| c.link.stream.conn.reset_received);
        reset.count() as u64
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
                self.topo.retry_wake.fired(now);
                self.fire_retries(now)
            }
            FleetWake::Paced => {
                self.topo.paced_wake.fired(now);
                self.fire_paced(now)
            }
        };
        for tx in txs {
            net.send(now, 0, tx);
        }
    }

    fn after_event(&mut self, net: &mut Net<FleetWake>, _touched: Option<usize>) {
        let now = net.now();
        if let Some(at) = self.topo.retry_wake.arm(self.next_retry_at(), now) {
            net.schedule(at, FleetWake::Retry);
        }
        if let Some(at) = self.topo.paced_wake.arm(self.next_paced_at(), now) {
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
    use crate::verify::{StreamVerifier, VerifyStats};
    use dcn_crypto::RecordCipher;
    use dcn_netdev::{parse_frame, PayloadBytes};
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
        let size = std::mem::size_of::<Client<LoneLink>>();
        assert!(
            size <= 432,
            "fleet Client is {size} B, over its 432 B budget: is \
             `ClientStream::oracle` ({} B) or `Client::abr` ({} B) inline again?",
            std::mem::size_of::<crate::receive::Oracle>(),
            std::mem::size_of::<crate::AbrSession>()
        );
    }
}
