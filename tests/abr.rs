//! Adaptive-streaming (ABR/DASH) workload suite: controller
//! properties, end-to-end QoE on both stacks, rung-claim
//! verification, and bit-identical decision replay.
//!
//! The controller property tests drive an [`AbrSession`] directly at
//! synthetic throughputs; the end-to-end cells run the full
//! deterministic harness with `FleetConfig::abr` set and read the QoE
//! block out of `RunMetrics`. A Gilbert–Elliott loss scenario proves
//! the adaptive machinery actually reacts: the fleet must rebuffer
//! and switch down. And because every ABR decision is a pure function
//! of virtual time and the seed, the serialized decision trace (and
//! the whole metrics Debug form) must be byte-identical across
//! replays.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::faults::LossModel;
use disk_crypt_net::kstack::KstackConfig;
use disk_crypt_net::mem::Fidelity;
use disk_crypt_net::simcore::Nanos;
use disk_crypt_net::store::{AbrManifest, Catalog};
use disk_crypt_net::workload::{
    run_scenario, AbrConfig, AbrPolicy, AbrSession, FetchStep, RunMetrics, Scenario, ServerKind,
};

fn manifest(seed: u64) -> AbrManifest {
    let cat = Catalog::new(10_000, 300 * 1024, 4, seed);
    AbrManifest::carve(&cat, &[1, 2, 4, 8], 16, Nanos::from_millis(50))
}

/// Drive a session through `n` whole segments at a fixed synthetic
/// throughput (bytes/sec of virtual time).
fn run_segments(s: &mut AbrSession, n: usize, bps: f64, mut now: Nanos) -> Nanos {
    s.note_first_request(now);
    for _ in 0..n {
        loop {
            match s.next_fetch(now) {
                FetchStep::Chunk(_) => {
                    now += Nanos::from_secs_f64(s.manifest().chunk_size() as f64 / bps);
                    if s.on_chunk_done(now) {
                        break;
                    }
                }
                FetchStep::PausedUntil(t) => now = t,
            }
        }
    }
    now
}

// ---------------------------------------------------------------
// Controller properties (no server in the loop).
// ---------------------------------------------------------------

#[test]
fn buffer_based_never_bets_above_the_estimate() {
    // Whatever the throughput, a buffer-based decision may never pick
    // a rung whose bitrate exceeds headroom × the estimate it was
    // made with (rung 0 before any sample). est_kbps is truncated in
    // the trace, so allow one kbit of quantization slack.
    let cfg = AbrConfig::buffer_based();
    for (seed, bps) in [(1u64, 5e6), (2, 20e6), (3, 80e6), (4, 300e6)] {
        let m = manifest(seed);
        let mut s = AbrSession::new(m.clone(), cfg, seed % m.n_titles());
        run_segments(&mut s, 50, bps, Nanos::ZERO);
        assert!(s.decisions.len() >= 50);
        for d in &s.decisions {
            if d.est_kbps == 0 {
                assert_eq!(d.rung, 0, "no sample yet must mean the lowest rung");
            } else {
                let budget = cfg.headroom * ((d.est_kbps + 1) as f64) * 1000.0;
                assert!(
                    m.bitrate_bps(d.rung as usize) <= budget,
                    "decision {d:?} bets above headroom×estimate at {bps} B/s"
                );
            }
        }
    }
}

#[test]
fn rate_based_upswitches_respect_hysteresis() {
    // A fast pipe from a cold start: the controller wants to climb
    // the whole ladder, but may only move one rung per decision and
    // never on two consecutive decisions (up_hysteresis = 2 resets
    // the vote counter after every climb).
    let cfg = AbrConfig::rate_based();
    assert_eq!(cfg.up_hysteresis, 2);
    let m = manifest(9);
    let mut s = AbrSession::new(m.clone(), cfg, 0);
    run_segments(&mut s, 40, 500e6, Nanos::ZERO);
    let rungs: Vec<u8> = s.decisions.iter().map(|d| d.rung).collect();
    let mut prev_climbed = false;
    for w in rungs.windows(2) {
        let climbed = w[1] > w[0];
        if climbed {
            assert_eq!(w[1], w[0] + 1, "up-switches climb one rung at a time");
            assert!(
                !prev_climbed,
                "hysteresis must space up-switches apart: {rungs:?}"
            );
        }
        prev_climbed = climbed;
    }
    assert_eq!(
        *rungs.last().expect("decisions") as usize,
        m.n_rungs() - 1,
        "a 500 Mb/s pipe must eventually reach the top rung: {rungs:?}"
    );
}

#[test]
fn segment_indices_are_monotone_for_every_policy() {
    for policy in [
        AbrPolicy::Fixed(2),
        AbrPolicy::BufferBased,
        AbrPolicy::RateBased,
    ] {
        let cfg = AbrConfig {
            policy,
            ..AbrConfig::rate_based()
        };
        let m = manifest(5);
        let mut s = AbrSession::new(m, cfg, 1);
        run_segments(&mut s, 35, 30e6, Nanos::ZERO);
        for (i, d) in s.decisions.iter().enumerate() {
            assert_eq!(
                d.seg_index, i as u64,
                "{policy:?}: segments fetched in playout order, no skips"
            );
        }
    }
}

// ---------------------------------------------------------------
// End-to-end: both stacks serve the adaptive fleet clean.
// ---------------------------------------------------------------

fn abr_scenario(server: ServerKind, n_clients: usize, seed: u64, abr: AbrConfig) -> Scenario {
    let mut sc = Scenario::smoke(server, n_clients, seed);
    sc.fleet.abr = Some(abr);
    sc
}

fn assert_abr_clean(m: &RunMetrics, n_clients: u64) {
    assert!(m.responses > 0, "no chunks served: {m:?}");
    assert_eq!(m.verify_failures, 0, "ABR streams must verify: {m:?}");
    assert_eq!(m.leaked_buffers, 0);
    let abr = m.abr.as_ref().expect("adaptive fleet must report QoE");
    assert_eq!(abr.qoe.sessions, n_clients);
    assert!(abr.qoe.started > 0, "nobody started playback: {abr:?}");
    assert!(abr.decisions > 0);
    assert!(abr.qoe.avg_bitrate_mbps > 0.0);
    assert!(!abr.trace().is_empty(), "decision trace must be recorded");
}

#[test]
fn atlas_serves_an_adaptive_fleet_clean() {
    let cfg = AtlasConfig {
        encrypted: true,
        fidelity: Fidelity::Modeled,
        ..AtlasConfig::default()
    };
    let sc = abr_scenario(ServerKind::Atlas(cfg), 16, 1212, AbrConfig::rate_based());
    let m = run_scenario(&sc);
    assert_abr_clean(&m, 16);
    let occ = m.pool_occ.expect("Atlas reports DMA-pool occupancy");
    assert!(occ.samples > 0 && occ.capacity > 0);
    assert!(occ.free_mean <= occ.capacity as f64);
}

#[test]
fn kstack_serves_an_adaptive_fleet_clean() {
    let cfg = KstackConfig {
        encrypted: true,
        ..KstackConfig::netflix()
    };
    let sc = abr_scenario(ServerKind::Kstack(cfg), 16, 1313, AbrConfig::buffer_based());
    let m = run_scenario(&sc);
    assert_abr_clean(&m, 16);
    assert!(
        m.pool_occ.is_none(),
        "the kernel stack has no DMA pool to sample"
    );
}

// ---------------------------------------------------------------
// Adaptation under loss: Gilbert–Elliott bursts must force both a
// rebuffer and a quality drop somewhere in the fleet.
// ---------------------------------------------------------------

#[test]
fn gilbert_elliott_loss_forces_rebuffer_and_downswitch() {
    let cfg = AtlasConfig {
        encrypted: true,
        fidelity: Fidelity::Modeled,
        ..AtlasConfig::default()
    };
    // Buffer-based at a burst rate mild enough that clients still
    // climb the ladder between loss bursts — there has to be a rung
    // to fall from.
    let mut sc = abr_scenario(ServerKind::Atlas(cfg), 8, 7272, AbrConfig::buffer_based());
    sc.duration = Nanos::from_millis(2000);
    sc.faults.net.loss = LossModel::gilbert_elliott_for(0.01);
    let m = run_scenario(&sc);
    let abr = m.abr.as_ref().expect("adaptive fleet");
    assert!(
        abr.qoe.rebuffer_ratio > 0.05,
        "bursty 1% loss must stall someone: {:?}",
        abr.qoe
    );
    assert!(
        abr.downswitches > 0,
        "estimate collapse under loss must drop a rung: {abr:?}"
    );
    assert_eq!(m.leaked_buffers, 0, "loss paths may not leak buffers");
}

// ---------------------------------------------------------------
// Rung-claim verification: a server that answers with an
// oracle-correct chunk from the *wrong quality rung* must still fail
// stream verification (the manifest is the source of truth).
// ---------------------------------------------------------------

#[test]
fn wrong_rung_delivery_is_caught_by_the_verifier() {
    use disk_crypt_net::crypto::RecordCipher;
    use disk_crypt_net::httpd::response::{response_header, ResponseInfo};
    use disk_crypt_net::workload::{Expected, RungClaim, StreamVerifier, VerifyStats};
    use std::collections::VecDeque;

    let cat = Catalog::new(10_000, 300 * 1024, 4, 17);
    let m = AbrManifest::carve(&cat, &[1, 2, 4, 8], 16, Nanos::from_millis(50));
    let cipher = RecordCipher::new(b"0123456789abcdef", 1);

    // The client asked for (title 2, seg 3, rung 3) but a buggy
    // server hands back the rung-0 chunk of the same segment. Every
    // body byte matches the catalog oracle for that chunk — only the
    // manifest cross-check can catch the quality substitution.
    let (rung0_chunk, _) = m.rung_range(2, 3, 0);
    assert!(!m.in_rung(rung0_chunk, 2, 3, 3));
    let mut outstanding: VecDeque<Expected> = VecDeque::new();
    outstanding.push_back(Expected::claimed(
        rung0_chunk,
        0,
        RungClaim {
            title: 2,
            seg: 3,
            rung: 3,
        },
    ));
    let mut stream = response_header(
        ResponseInfo::Ok {
            body_len: cat.file_size(),
        },
        false,
    );
    let mut body = vec![0u8; cat.file_size() as usize];
    cat.expected(rung0_chunk, 0, &mut body);
    stream.extend_from_slice(&body);

    let mut v = StreamVerifier::with_manifest(m);
    let mut stats = VerifyStats::default();
    for piece in stream.chunks(1461) {
        v.push(piece, &mut outstanding, &cat, &cipher, &mut stats);
    }
    assert!(stats.rung_mismatches > 0, "substitution must be flagged");
    assert!(stats.failures > 0, "…and counted as a verification failure");
}

// ---------------------------------------------------------------
// Cluster: the dispatcher serves an adaptive fleet too.
// ---------------------------------------------------------------

#[test]
fn cluster_serves_an_adaptive_fleet_clean() {
    use disk_crypt_net::cluster::{run_cluster, ClusterConfig};

    let mut sc = ClusterConfig::smoke(3, 18, 2121);
    sc.fleet.abr = Some(AbrConfig::rate_based());
    let m = run_cluster(&sc);
    assert_eq!(m.verify_failures, 0, "ABR streams must verify: {m:?}");
    let abr = m.abr.as_ref().expect("adaptive cluster fleet reports QoE");
    assert_eq!(abr.qoe.sessions, 18);
    assert!(abr.qoe.started > 0, "nobody started playback: {abr:?}");
    assert!(abr.decisions > 0);
    for s in &m.per_server {
        assert!(s.responses > 0, "server {} served nothing: {m:?}", s.server);
        assert_eq!(s.leaked_buffers, 0);
    }
}

// ---------------------------------------------------------------
// Replay identity: same seed ⇒ byte-identical decisions and QoE.
// ---------------------------------------------------------------

#[test]
fn abr_decisions_replay_bit_identically() {
    let run = || {
        let cfg = AtlasConfig {
            encrypted: true,
            fidelity: Fidelity::Modeled,
            ..AtlasConfig::default()
        };
        run_scenario(&abr_scenario(
            ServerKind::Atlas(cfg),
            16,
            4646,
            AbrConfig::rate_based(),
        ))
    };
    let (a, b) = (run(), run());
    let (ta, tb) = (
        a.abr.as_ref().expect("abr").trace(),
        b.abr.as_ref().expect("abr").trace(),
    );
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "decision traces must be byte-identical");
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "QoE and every other metric must replay exactly"
    );
}
