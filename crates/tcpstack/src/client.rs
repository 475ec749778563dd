//! Client-side TCP receiver — the simulated weighttp fleet (§4).
//!
//! Each client holds a lightweight connection: it completes the
//! handshake, sends HTTP requests, reassembles the response stream
//! (with out-of-order buffering so that retransmissions heal gaps),
//! and generates cumulative ACKs — one per received burst, matching a
//! GRO-enabled Linux receiver, plus duplicate ACKs for out-of-order
//! arrivals so the server's fast-retransmit machinery engages.
//!
//! Client CPU is free (the paper sizes its client machines so they
//! are never the bottleneck); only protocol behaviour matters here.

use crate::tcb::Endpoint;
use dcn_netdev::FramePayload;
use dcn_packet::{
    EtherType, EthernetRepr, FlowId, IpProtocol, Ipv4Repr, SeqNumber, TcpFlags, TcpRepr,
    ETH_HEADER_LEN, IPV4_HEADER_LEN,
};
use dcn_simcore::Nanos;
use std::collections::BTreeMap;

/// Client connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ClientState {
    SynSent,
    Established,
    Closed,
}

/// What the client wants to put on the wire after an input.
#[derive(Debug)]
pub struct ClientFrame {
    pub headers: Vec<u8>,
    pub payload: Vec<u8>,
}

/// A lightweight client connection.
pub struct ClientConn {
    pub state: ClientState,
    local: Endpoint,
    remote: Endpoint,
    iss: SeqNumber,
    snd_nxt: SeqNumber,
    rcv_nxt: SeqNumber,
    /// Advertised receive window (bytes) with scale 8.
    rcv_wnd: u32,
    /// Out-of-order segments waiting for the gap to fill — the only
    /// payload bytes the receiver copies, because they must outlive
    /// the frame that carried them.
    ooo: BTreeMap<u32, Vec<u8>>,
    /// Total in-order stream bytes delivered to the application.
    pub delivered: u64,
    /// Duplicate ACKs generated (diagnostics).
    pub dupacks_sent: u64,
    /// The server reset this connection (admission shed or slow-client
    /// abort). The owner decides whether to reconnect.
    pub reset_received: bool,
}

const CLIENT_WSCALE: u8 = 8;

impl ClientConn {
    /// Create and return the SYN frame.
    pub fn connect(
        local: Endpoint,
        remote: Endpoint,
        iss: SeqNumber,
        rcv_wnd: u32,
    ) -> (Self, ClientFrame) {
        let mut c = ClientConn {
            state: ClientState::SynSent,
            local,
            remote,
            iss,
            snd_nxt: iss.wrapping_add(1),
            rcv_nxt: SeqNumber(0),
            rcv_wnd,
            ooo: BTreeMap::new(),
            delivered: 0,
            dupacks_sent: 0,
            reset_received: false,
        };
        let syn = c.frame(iss, TcpFlags::SYN, Vec::new(), Some((1460, CLIENT_WSCALE)));
        (c, syn)
    }

    #[must_use]
    pub fn flow(&self) -> FlowId {
        FlowId {
            src_ip: self.local.ip,
            dst_ip: self.remote.ip,
            src_port: self.local.port,
            dst_port: self.remote.port,
        }
    }

    fn frame(
        &mut self,
        seq: SeqNumber,
        flags: TcpFlags,
        payload: Vec<u8>,
        opts: Option<(u16, u8)>,
    ) -> ClientFrame {
        let tcp = TcpRepr {
            src_port: self.local.port,
            dst_port: self.remote.port,
            seq,
            ack: self.rcv_nxt,
            flags,
            window: (self.rcv_wnd >> CLIENT_WSCALE).min(0xFFFF) as u16,
            mss: opts.map(|(m, _)| m),
            wscale: opts.map(|(_, w)| w),
        };
        let tcp_len = tcp.header_len();
        let ip = Ipv4Repr {
            src: self.local.ip,
            dst: self.remote.ip,
            protocol: IpProtocol::Tcp,
            payload_len: (tcp_len + payload.len()) as u16,
            ttl: 64,
        };
        let eth = EthernetRepr {
            dst: self.remote.mac,
            src: self.local.mac,
            ethertype: EtherType::Ipv4,
        };
        let mut headers = vec![0u8; ETH_HEADER_LEN + IPV4_HEADER_LEN + tcp_len];
        eth.emit(&mut headers);
        ip.emit(&mut headers[ETH_HEADER_LEN..]);
        tcp.emit(
            &mut headers[ETH_HEADER_LEN + IPV4_HEADER_LEN..],
            ip.pseudo_header_sum(),
            &payload,
        );
        ClientFrame { headers, payload }
    }

    /// Send application data (an HTTP request). Requests are small,
    /// so no segmentation or windowing is modeled on the client send
    /// side.
    pub fn send(&mut self, data: Vec<u8>) -> ClientFrame {
        assert_eq!(self.state, ClientState::Established);
        let seq = self.snd_nxt;
        self.snd_nxt = self.snd_nxt.wrapping_add(data.len() as u32);
        self.frame(seq, TcpFlags::ACK | TcpFlags::PSH, data, None)
    }

    /// Send FIN.
    pub fn close(&mut self) -> ClientFrame {
        let seq = self.snd_nxt;
        self.snd_nxt = self.snd_nxt.wrapping_add(1);
        self.state = ClientState::Closed;
        self.frame(seq, TcpFlags::ACK | TcpFlags::FIN, Vec::new(), None)
    }

    /// Process a burst of arriving frames (one TSO train = one call)
    /// and return the ACKs to send — one cumulative ACK per burst in
    /// the common case, plus one duplicate ACK per out-of-order
    /// frame.
    ///
    /// Payloads are borrowed from their frames. `inbox` is cleared,
    /// then receives the stream bytes the burst delivered in order
    /// (healed out-of-order segments included), so one caller-owned
    /// buffer can serve every burst of every connection.
    pub fn on_burst<'a>(
        &mut self,
        _now: Nanos,
        frames: impl IntoIterator<Item = (TcpRepr, FramePayload<'a>)>,
        inbox: &mut Vec<u8>,
    ) -> Vec<ClientFrame> {
        inbox.clear();
        let mut acks = Vec::new();
        let mut progress = false;
        for (tcp, payload) in frames {
            match self.state {
                ClientState::SynSent => {
                    if tcp.flags.contains(TcpFlags::RST) && tcp.ack == self.iss.wrapping_add(1) {
                        // Connection refused (admission control).
                        self.state = ClientState::Closed;
                        self.reset_received = true;
                        continue;
                    }
                    if tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK)
                        && tcp.ack == self.iss.wrapping_add(1)
                    {
                        self.rcv_nxt = tcp.seq.wrapping_add(1);
                        self.state = ClientState::Established;
                        progress = true;
                    }
                }
                ClientState::Established | ClientState::Closed => {
                    if tcp.flags.contains(TcpFlags::RST) {
                        self.state = ClientState::Closed;
                        self.reset_received = true;
                        continue;
                    }
                    if payload.is_empty() && !tcp.flags.contains(TcpFlags::FIN) {
                        continue; // pure ACK from server
                    }
                    if tcp.seq == self.rcv_nxt {
                        self.accept_in_order(&payload, inbox);
                        if tcp.flags.contains(TcpFlags::FIN) {
                            self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
                        }
                        self.drain_ooo(inbox);
                        progress = true;
                    } else if tcp.seq.gt(self.rcv_nxt) {
                        // Out of order: keep a copy + immediate dup ACK.
                        let mut seg = Vec::with_capacity(payload.len());
                        payload.append_to(&mut seg);
                        self.ooo.insert(tcp.seq.0, seg);
                        self.dupacks_sent += 1;
                        acks.push(self.frame(self.snd_nxt, TcpFlags::ACK, Vec::new(), None));
                    } else {
                        // Old duplicate (retransmission overlap):
                        // cumulative ACK reasserts our position.
                        progress = true;
                    }
                }
            }
        }
        if progress {
            acks.push(self.frame(self.snd_nxt, TcpFlags::ACK, Vec::new(), None));
        }
        acks
    }

    fn accept_in_order(&mut self, payload: &FramePayload<'_>, inbox: &mut Vec<u8>) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(payload.len() as u32);
        self.delivered += payload.len() as u64;
        payload.append_to(inbox);
    }

    fn drain_ooo(&mut self, inbox: &mut Vec<u8>) {
        while let Some((&seq, _)) = self.ooo.iter().next() {
            let s = SeqNumber(seq);
            if s.gt(self.rcv_nxt) {
                break;
            }
            let payload = self.ooo.remove(&seq).expect("just seen");
            if s == self.rcv_nxt {
                self.accept_in_order(&FramePayload::Slice(&payload), inbox);
            }
            // s < rcv_nxt: stale duplicate, drop.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_packet::{Ipv4Addr, MacAddr};

    fn eps() -> (Endpoint, Endpoint) {
        (
            Endpoint {
                mac: MacAddr::from_host_id(10),
                ip: Ipv4Addr::new(10, 1, 0, 1),
                port: 7000,
            },
            Endpoint {
                mac: MacAddr::from_host_id(1),
                ip: Ipv4Addr::new(10, 0, 0, 1),
                port: 80,
            },
        )
    }

    fn server_seg(seq: u32, flags: TcpFlags, payload: &[u8]) -> (TcpRepr, FramePayload<'_>) {
        (
            TcpRepr {
                src_port: 80,
                dst_port: 7000,
                seq: SeqNumber(seq),
                ack: SeqNumber(1),
                flags,
                window: 1000,
                mss: None,
                wscale: None,
            },
            FramePayload::Slice(payload),
        )
    }

    fn established() -> ClientConn {
        let (local, remote) = eps();
        let (mut c, _syn) = ClientConn::connect(local, remote, SeqNumber(0), 4 << 20);
        let synack = (
            TcpRepr {
                src_port: 80,
                dst_port: 7000,
                seq: SeqNumber(999),
                ack: SeqNumber(1),
                flags: TcpFlags::SYN | TcpFlags::ACK,
                window: 1000,
                mss: Some(1448),
                wscale: Some(8),
            },
            FramePayload::Slice(&[]),
        );
        let acks = c.on_burst(Nanos::ZERO, [synack], &mut Vec::new());
        assert_eq!(acks.len(), 1);
        assert_eq!(c.state, ClientState::Established);
        c
    }

    #[test]
    fn handshake_completes() {
        let c = established();
        assert_eq!(c.rcv_nxt, SeqNumber(1000));
    }

    #[test]
    fn in_order_burst_single_cumulative_ack() {
        let mut c = established();
        let burst = vec![
            server_seg(1000, TcpFlags::ACK, &[1; 100]),
            server_seg(1100, TcpFlags::ACK, &[2; 100]),
            server_seg(1200, TcpFlags::ACK, &[3; 100]),
        ];
        let mut inbox = Vec::new();
        let acks = c.on_burst(Nanos::ZERO, burst, &mut inbox);
        assert_eq!(acks.len(), 1, "GRO-style: one ACK per burst");
        let (t, _) = TcpRepr::parse(&acks[0].headers[34..], None).unwrap();
        assert_eq!(t.ack, SeqNumber(1300));
        assert_eq!(c.delivered, 300);
        assert_eq!(inbox.len(), 300);
    }

    #[test]
    fn gap_generates_dupack_then_heals() {
        let mut c = established();
        let mut inbox = Vec::new();
        // Segment 2 arrives without segment 1.
        let acks = c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1100, TcpFlags::ACK, &[2; 100])],
            &mut inbox,
        );
        assert_eq!(acks.len(), 1);
        let (t, _) = TcpRepr::parse(&acks[0].headers[34..], None).unwrap();
        assert_eq!(t.ack, SeqNumber(1000), "dup ACK at the gap");
        assert_eq!(c.delivered, 0);
        assert_eq!(c.ooo.len(), 1);
        // The hole fills: cumulative ACK jumps past both.
        let acks = c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1000, TcpFlags::ACK, &[1; 100])],
            &mut inbox,
        );
        let (t, _) = TcpRepr::parse(&acks.last().unwrap().headers[34..], None).unwrap();
        assert_eq!(t.ack, SeqNumber(1200));
        assert_eq!(c.delivered, 200);
        assert_eq!(c.ooo.len(), 0);
        // Stream order preserved.
        assert_eq!(inbox.len(), 200);
        assert!(inbox[..100].iter().all(|&b| b == 1));
        assert!(inbox[100..].iter().all(|&b| b == 2));
    }

    #[test]
    fn stale_duplicate_reacked_not_delivered_twice() {
        let mut c = established();
        let mut inbox = Vec::new();
        c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1000, TcpFlags::ACK, &[1; 100])],
            &mut inbox,
        );
        let acks = c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1000, TcpFlags::ACK, &[1; 100])],
            &mut inbox,
        );
        assert_eq!(acks.len(), 1, "re-ACK the duplicate");
        assert_eq!(c.delivered, 100, "not delivered twice");
        assert!(inbox.is_empty(), "the duplicate delivers nothing");
    }

    #[test]
    fn request_send_advances_sequence() {
        let mut c = established();
        let f1 = c.send(b"GET /a HTTP/1.1\r\n\r\n".to_vec());
        let f2 = c.send(b"GET /b HTTP/1.1\r\n\r\n".to_vec());
        let (t1, _) = TcpRepr::parse(&f1.headers[34..], None).unwrap();
        let (t2, _) = TcpRepr::parse(&f2.headers[34..], None).unwrap();
        assert_eq!(t2.seq.dist(t1.seq) as usize, f1.payload.len());
    }

    #[test]
    fn syn_answered_by_rst_refuses_connection() {
        let (local, remote) = eps();
        let (mut c, syn) = ClientConn::connect(local, remote, SeqNumber(500), 4 << 20);
        // Server admission control refuses with the canonical RST.
        let (syn_tcp, _) = TcpRepr::parse(&syn.headers[34..], None).unwrap();
        let rst = crate::tcb::rst_for_syn(remote, local, &syn_tcp);
        let (rst_tcp, _) = TcpRepr::parse(&rst.headers[34..], None).unwrap();
        assert!(rst_tcp.flags.contains(TcpFlags::RST));
        let acks = c.on_burst(
            Nanos::ZERO,
            [(rst_tcp, FramePayload::Slice(&[]))],
            &mut Vec::new(),
        );
        assert!(acks.is_empty(), "no reply to an RST");
        assert_eq!(c.state, ClientState::Closed);
        assert!(c.reset_received);
    }

    #[test]
    fn rst_with_wrong_ack_ignored_in_syn_sent() {
        let (local, remote) = eps();
        let (mut c, _syn) = ClientConn::connect(local, remote, SeqNumber(500), 4 << 20);
        let mut seg = server_seg(0, TcpFlags::RST | TcpFlags::ACK, &[]);
        seg.0.ack = SeqNumber(999); // not iss+1: stale/spoofed
        c.on_burst(Nanos::ZERO, [seg], &mut Vec::new());
        assert_eq!(c.state, ClientState::SynSent);
        assert!(!c.reset_received);
    }

    #[test]
    fn rst_closes_established_connection() {
        let mut c = established();
        let acks = c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1000, TcpFlags::RST | TcpFlags::ACK, &[])],
            &mut Vec::new(),
        );
        assert!(acks.is_empty());
        assert_eq!(c.state, ClientState::Closed);
        assert!(c.reset_received);
    }

    #[test]
    fn fin_consumes_sequence_space() {
        let mut c = established();
        let acks = c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1000, TcpFlags::ACK | TcpFlags::FIN, &[9; 10])],
            &mut Vec::new(),
        );
        let (t, _) = TcpRepr::parse(&acks[0].headers[34..], None).unwrap();
        assert_eq!(t.ack, SeqNumber(1011), "payload + FIN");
    }

    #[test]
    fn out_of_order_segment_outlives_its_frame_and_inbox_is_per_burst() {
        let mut c = established();
        let mut inbox = Vec::new();
        // Burst 1: bytes 0..100 in order, 200..300 ahead of a gap. The
        // frame buffer is dropped once the burst has been processed.
        let frame: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        c.on_burst(
            Nanos::ZERO,
            vec![
                server_seg(1000, TcpFlags::ACK, &frame[..100]),
                server_seg(1200, TcpFlags::ACK, &frame[200..]),
            ],
            &mut inbox,
        );
        assert_eq!(inbox, frame[..100]);
        let expected_tail = frame[100..].to_vec();
        drop(frame);
        // Burst 2 fills the gap from a different buffer; the parked
        // segment must come back intact, and the reused inbox must
        // hold only this burst's bytes.
        let refill = expected_tail[..100].to_vec();
        c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1100, TcpFlags::ACK, &refill)],
            &mut inbox,
        );
        assert_eq!(
            inbox, expected_tail,
            "gap fill + healed segment, no stale bytes"
        );
        assert_eq!(c.delivered, 300);
        // Burst 3: a pure ACK delivers nothing and leaves nothing behind.
        c.on_burst(
            Nanos::ZERO,
            vec![server_seg(1300, TcpFlags::ACK, &[])],
            &mut inbox,
        );
        assert!(inbox.is_empty());
    }

    #[test]
    fn virtual_payload_delivers_zeros() {
        let mut c = established();
        let mut inbox = vec![7u8; 5];
        let (tcp, _) = server_seg(1000, TcpFlags::ACK, &[]);
        c.on_burst(Nanos::ZERO, [(tcp, FramePayload::Virtual(64))], &mut inbox);
        assert_eq!(inbox, vec![0u8; 64]);
        assert_eq!(c.delivered, 64);
    }
}
