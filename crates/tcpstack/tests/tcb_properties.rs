//! Randomized tests of the TCP control block: under arbitrary
//! (well-formed) sequences of peer behaviour, the TCB's invariants
//! hold and no arithmetic ever goes backwards. Sequences are driven
//! by a seeded [`SimRng`] so the explored input set is deterministic
//! (the container builds offline, so this replaces an external
//! property-testing framework).

use dcn_netdev::SgList;
use dcn_packet::{Ipv4Addr, MacAddr, SeqNumber, TcpFlags, TcpRepr};
use dcn_simcore::{Nanos, SimRng};
use dcn_tcpstack::{Endpoint, Tcb, TcbConfig, TcbEvent, TcbState};

fn server_ep() -> Endpoint {
    Endpoint {
        mac: MacAddr::from_host_id(1),
        ip: Ipv4Addr::new(10, 0, 0, 1),
        port: 80,
    }
}
fn client_ep() -> Endpoint {
    Endpoint {
        mac: MacAddr::from_host_id(2),
        ip: Ipv4Addr::new(10, 0, 0, 2),
        port: 5555,
    }
}

fn established() -> Tcb {
    let syn = TcpRepr {
        src_port: 5555,
        dst_port: 80,
        seq: SeqNumber(1000),
        ack: SeqNumber(0),
        flags: TcpFlags::SYN,
        window: 65535,
        mss: Some(1448),
        wscale: Some(8),
    };
    let (mut tcb, _) = Tcb::accept(
        TcbConfig::default(),
        server_ep(),
        client_ep(),
        &syn,
        SeqNumber(50_000),
        Nanos::ZERO,
    );
    let ack = TcpRepr {
        src_port: 5555,
        dst_port: 80,
        seq: SeqNumber(1001),
        ack: SeqNumber(50_001),
        flags: TcpFlags::ACK,
        window: 4096,
        mss: None,
        wscale: None,
    };
    tcb.on_segment(Nanos::from_millis(1), &ack, &[]);
    tcb.take_events();
    tcb
}

/// One step of simulated peer behaviour.
#[derive(Clone, Debug)]
enum Step {
    /// Owner sends `n` fresh bytes (clamped to the usable window).
    Send(u16),
    /// Peer cumulatively ACKs `frac`% of the outstanding data.
    AckFraction(u8),
    /// Peer repeats its last ACK (duplicate).
    DupAck,
    /// Time passes; fire due timers.
    Tick(u8),
    /// Owner services one pending retransmit request with data.
    ServeRetransmit,
}

fn random_step(rng: &mut SimRng) -> Step {
    match rng.gen_range(0, 5) {
        0 => Step::Send(rng.gen_range(1, 20_000) as u16),
        1 => Step::AckFraction(rng.gen_range(0, 101) as u8),
        2 => Step::DupAck,
        3 => Step::Tick(rng.gen_range(1, 100) as u8),
        _ => Step::ServeRetransmit,
    }
}

#[test]
fn tcb_invariants_under_arbitrary_peer() {
    let mut rng = SimRng::new(0x7CB);
    for case in 0..64 {
        let steps: Vec<Step> = (0..rng.gen_range(1, 80))
            .map(|_| random_step(&mut rng))
            .collect();
        check_invariants(case, steps);
    }
}

/// A case an earlier property-test run shrank to and recorded: five
/// 1-byte sends, three duplicate ACKs (fast retransmit asks for the
/// head), a cumulative ACK of one byte (0% rounds up to 1), then the
/// retransmit request is served.
#[test]
fn fast_retransmit_after_tiny_sends_keeps_invariants() {
    let mut steps = vec![Step::Send(1); 5];
    steps.extend([Step::DupAck, Step::DupAck, Step::DupAck]);
    steps.extend([Step::AckFraction(0), Step::ServeRetransmit]);
    check_invariants(0, steps);
}

/// Drive one TCB through `steps`, checking its events and its global
/// invariants after every step.
fn check_invariants(case: usize, steps: Vec<Step>) {
    let mut tcb = established();
    let mut now = Nanos::from_millis(2);
    let mut highest_sent: u64 = 0; // stream offset of snd_max
    let mut acked: u64 = 0;
    let mut pending_retx: Vec<(u64, u64)> = Vec::new();

    for step in steps {
        match step {
            Step::Send(n) => {
                let usable = tcb.usable_window();
                if usable == 0 {
                    continue;
                }
                let n = u64::from(n).min(usable);
                if n == 0 {
                    continue;
                }
                let before = tcb.stream_offset_of_snd_nxt();
                let _out = tcb.send_data(now, SgList::from_bytes(vec![7; n as usize]), false);
                let after = tcb.stream_offset_of_snd_nxt();
                assert_eq!(
                    after,
                    before + n,
                    "case {case}: snd_nxt advances by exactly n"
                );
                highest_sent = highest_sent.max(after);
            }
            Step::AckFraction(frac) => {
                let outstanding = highest_sent.saturating_sub(acked);
                if outstanding == 0 {
                    continue;
                }
                let newly = (outstanding * u64::from(frac) / 100).max(1);
                acked += newly;
                let ack = TcpRepr {
                    src_port: 5555,
                    dst_port: 80,
                    seq: SeqNumber(1001),
                    ack: tcb.seq_at(acked),
                    flags: TcpFlags::ACK,
                    window: 4096,
                    mss: None,
                    wscale: None,
                };
                now += Nanos::from_millis(1);
                tcb.on_segment(now, &ack, &[]);
            }
            Step::DupAck => {
                let ack = TcpRepr {
                    src_port: 5555,
                    dst_port: 80,
                    seq: SeqNumber(1001),
                    ack: tcb.seq_at(acked),
                    flags: TcpFlags::ACK,
                    window: 4096,
                    mss: None,
                    wscale: None,
                };
                now += Nanos::from_micros(100);
                tcb.on_segment(now, &ack, &[]);
            }
            Step::Tick(ms) => {
                now += Nanos::from_millis(u64::from(ms) * 10);
                tcb.on_timer(now);
            }
            Step::ServeRetransmit => {
                if let Some((off, len)) = pending_retx.pop() {
                    let len = len.min(highest_sent - off);
                    if len > 0 {
                        tcb.send_retransmit(now, off, SgList::from_bytes(vec![7; len as usize]));
                    } else {
                        tcb.retransmit_abandoned();
                    }
                }
            }
        }
        // Collect events and check their invariants.
        for ev in tcb.take_events() {
            match ev {
                TcbEvent::AckedTo(off) => {
                    assert!(off <= highest_sent, "case {case}: cannot ack unsent data");
                    assert_eq!(off, acked, "case {case}: cumulative ack tracks peer");
                }
                TcbEvent::NeedRetransmit { offset, len } => {
                    assert!(offset >= acked, "case {case}: never retransmit acked data");
                    assert!(
                        offset < highest_sent,
                        "case {case}: retransmit within sent data"
                    );
                    assert!(len > 0, "case {case}");
                    pending_retx.push((offset, len));
                }
                TcbEvent::WindowOpen(n) => assert!(n > 0, "case {case}"),
                _ => {}
            }
        }
        // Global invariants after every step.
        assert!(
            tcb.inflight() <= highest_sent - acked + 1_000_000,
            "case {case}"
        );
        assert_eq!(tcb.state, TcbState::Established, "case {case}");
        assert!(tcb.cc.cwnd() >= 1448, "case {case}: cwnd never below 1 MSS");
        let off = tcb.stream_offset_of_snd_nxt();
        assert!(off >= acked, "case {case}: snd_nxt never behind snd_una");
    }
}

/// Sending exactly the permitted window never triggers the overshoot
/// guard, for any sequence of sends and full ACKs.
#[test]
fn window_accounting_is_exact() {
    let mut rng = SimRng::new(0xACC7);
    for case in 0..64 {
        let sizes: Vec<u64> = (0..rng.gen_range(1, 40))
            .map(|_| rng.gen_range(1, 100_000))
            .collect();
        let mut tcb = established();
        let mut now = Nanos::from_millis(2);
        let mut sent_total = 0u64;
        for s in sizes {
            let usable = tcb.usable_window();
            let n = s.min(usable);
            if n > 0 {
                tcb.send_data(now, SgList::from_bytes(vec![1; n as usize]), false);
                sent_total += n;
            }
            // Peer acks everything.
            let ack = TcpRepr {
                src_port: 5555,
                dst_port: 80,
                seq: SeqNumber(1001),
                ack: tcb.seq_at(sent_total),
                flags: TcpFlags::ACK,
                window: 4096,
                mss: None,
                wscale: None,
            };
            now += Nanos::from_millis(20);
            tcb.on_segment(now, &ack, &[]);
            tcb.take_events();
            assert_eq!(tcb.inflight(), 0, "case {case}");
        }
    }
}
