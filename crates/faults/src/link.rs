//! Link-level fault processes: loss (uniform or Gilbert–Elliott
//! bursty), duplication, and FCS-detected corruption, plus the
//! deterministic targeted faults used by the regression tests.
//!
//! The injector is consulted once per server→client TCP **data**
//! frame, in wire order. Pure control frames (SYN-ACK, bare ACKs,
//! FIN without payload) are never faulted: the loss knobs model the
//! data path — exactly what `Scenario::data_loss` always meant — and
//! keep bursty schedules from wedging a connection before it exists.

use dcn_simcore::SimRng;
use std::collections::HashMap;

/// Frame-loss process for the server→client direction.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum LossModel {
    #[default]
    None,
    /// Independent per-frame loss with probability `p`.
    Uniform(f64),
    /// Two-state Markov (Gilbert–Elliott) loss: the channel moves
    /// between a Good and a Bad state per frame; each state has its
    /// own loss probability. Models the bursty tail loss that
    /// dominates real video-streaming incidents.
    GilbertElliott {
        /// P(Good → Bad) per frame.
        p_enter_bad: f64,
        /// P(Bad → Good) per frame.
        p_exit_bad: f64,
        /// Loss probability while Good.
        loss_good: f64,
        /// Loss probability while Bad.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A Gilbert–Elliott channel tuned so the *average* loss rate is
    /// `target` while losses cluster in bursts: the Bad state drops
    /// half its frames and is entered rarely but held for ~10 frames.
    pub fn gilbert_elliott_for(target: f64) -> Self {
        // Stationary P(Bad) = p_enter / (p_enter + p_exit); average
        // loss = P(Bad) * loss_bad (loss_good = 0). With p_exit = 0.1
        // and loss_bad = 0.5: p_enter = target * p_exit / (loss_bad *
        // (1 - target/loss_bad)) ≈ 0.2 * target for small targets.
        let loss_bad = 0.5;
        let p_exit = 0.1;
        let frac_bad = (target / loss_bad).min(0.9);
        let p_enter = p_exit * frac_bad / (1.0 - frac_bad);
        LossModel::GilbertElliott {
            p_enter_bad: p_enter,
            p_exit_bad: p_exit,
            loss_good: 0.0,
            loss_bad,
        }
    }
}

/// What happens to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFate {
    Deliver,
    /// Lost by the loss process.
    Drop,
    /// Delivered twice (switch-level duplication).
    Duplicate,
    /// Corrupted in flight; the receiving NIC's FCS catches it, so
    /// observably a drop — but counted separately and asserted never
    /// to reach a client as bytes.
    CorruptDrop,
    /// Corrupted in flight *and* FCS checking is bypassed
    /// (`NetFaults::fcs_check == false`): the harness flips a payload
    /// byte and delivers the frame. The application-layer verifier
    /// must catch it.
    CorruptDeliver,
}

/// The identity of one TCP data frame, as extracted from its wire
/// headers by the netdev helper (`dcn_netdev::tcp_frame_info`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameInfo {
    /// Stable per-connection key (e.g. the flow's RSS hash).
    pub flow_key: u64,
    /// TCP sequence number of the first payload byte.
    pub seq: u32,
    /// TCP payload length in bytes.
    pub payload_len: u32,
}

#[derive(Debug, Default)]
struct FlowState {
    /// Highest end-of-payload sequence seen (wrapping), for
    /// classifying re-sent ranges as retransmissions.
    max_end: u32,
    seen_any: bool,
    /// Count of data frames observed (for `drop_nth_data_frame`).
    data_frames: u64,
    nth_dropped: bool,
}

/// Per-run link fault injector. One instance covers every flow; the
/// Gilbert–Elliott channel state is shared across flows (it models
/// the server's uplink, not per-client paths).
#[derive(Debug)]
pub struct LinkFaults {
    cfg: crate::NetFaults,
    rng: SimRng,
    in_bad_state: bool,
    flows: HashMap<u64, FlowState>,
    retx_drops_left: u32,
    // ---- counters (read by the workload at end of run) ----
    pub dropped: u64,
    pub duplicated: u64,
    pub corrupt_dropped: u64,
    /// Corrupted frames delivered because FCS checking was bypassed.
    pub corrupt_delivered: u64,
    /// Subset of `dropped` that hit a frame classified as a
    /// retransmission.
    pub retx_dropped: u64,
    pub data_frames_seen: u64,
}

impl LinkFaults {
    pub fn new(cfg: crate::NetFaults, seed: u64) -> Self {
        Self {
            cfg,
            rng: crate::rng_for(seed, crate::salt::LINK),
            in_bad_state: false,
            flows: HashMap::new(),
            retx_drops_left: cfg.retx_drop,
            dropped: 0,
            duplicated: 0,
            corrupt_dropped: 0,
            corrupt_delivered: 0,
            retx_dropped: 0,
            data_frames_seen: 0,
        }
    }

    pub fn is_active(&self) -> bool {
        self.cfg.is_active()
    }

    fn loss_roll(&mut self) -> bool {
        match self.cfg.loss {
            LossModel::None => false,
            LossModel::Uniform(p) => self.rng.chance(p),
            LossModel::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                // State transition first, then a loss roll in the new
                // state — both from the same seeded stream.
                if self.in_bad_state {
                    if self.rng.chance(p_exit_bad) {
                        self.in_bad_state = false;
                    }
                } else if self.rng.chance(p_enter_bad) {
                    self.in_bad_state = true;
                }
                let p = if self.in_bad_state {
                    loss_bad
                } else {
                    loss_good
                };
                self.rng.chance(p)
            }
        }
    }

    /// Decide the fate of one data frame. Must be called in wire
    /// order; every call advances the seeded schedule. Control frames
    /// (payload_len == 0) must not be passed here.
    pub fn classify(&mut self, info: FrameInfo) -> FrameFate {
        debug_assert!(info.payload_len > 0, "control frames are never faulted");
        self.data_frames_seen += 1;
        let flow = self.flows.entry(info.flow_key).or_default();
        flow.data_frames += 1;
        let end = info.seq.wrapping_add(info.payload_len);
        // Wrapping "is this frame entirely behind the high-water
        // mark" check: a re-sent range is a retransmission.
        let is_retx = flow.seen_any && (flow.max_end.wrapping_sub(end) as i32) >= 0;
        if !flow.seen_any || (end.wrapping_sub(flow.max_end) as i32) > 0 {
            flow.max_end = end;
            flow.seen_any = true;
        }

        // Targeted deterministic faults take precedence over the
        // random schedule (and do not consume rng draws).
        if let Some(nth) = self.cfg.drop_nth_data_frame {
            if !flow.nth_dropped && flow.data_frames == nth {
                flow.nth_dropped = true;
                self.dropped += 1;
                if is_retx {
                    self.retx_dropped += 1;
                }
                return FrameFate::Drop;
            }
        }
        if is_retx && self.retx_drops_left > 0 {
            self.retx_drops_left -= 1;
            self.dropped += 1;
            self.retx_dropped += 1;
            return FrameFate::Drop;
        }

        if self.loss_roll() {
            self.dropped += 1;
            if is_retx {
                self.retx_dropped += 1;
            }
            return FrameFate::Drop;
        }
        if self.cfg.corrupt_p > 0.0 && self.rng.chance(self.cfg.corrupt_p) {
            if self.cfg.fcs_check {
                self.corrupt_dropped += 1;
                return FrameFate::CorruptDrop;
            }
            self.corrupt_delivered += 1;
            return FrameFate::CorruptDeliver;
        }
        if self.cfg.dup_p > 0.0 && self.rng.chance(self.cfg.dup_p) {
            self.duplicated += 1;
            return FrameFate::Duplicate;
        }
        FrameFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetFaults;

    fn frame(flow: u64, seq: u32, len: u32) -> FrameInfo {
        FrameInfo {
            flow_key: flow,
            seq,
            payload_len: len,
        }
    }

    #[test]
    fn uniform_loss_rate_converges() {
        let cfg = NetFaults {
            loss: LossModel::Uniform(0.05),
            ..NetFaults::default()
        };
        let mut lf = LinkFaults::new(cfg, 1);
        let n = 200_000u64;
        for i in 0..n {
            lf.classify(frame(0, (i as u32) * 1448, 1448));
        }
        let rate = lf.dropped as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_hits_target_mean_and_bursts() {
        let target = 0.01;
        let model = LossModel::gilbert_elliott_for(target);
        let cfg = NetFaults {
            loss: model,
            ..NetFaults::default()
        };
        let mut lf = LinkFaults::new(cfg, 2);
        let n = 400_000u64;
        let mut drops = Vec::new();
        for i in 0..n {
            let fate = lf.classify(frame(0, (i as u32).wrapping_mul(1448), 1448));
            drops.push(fate == FrameFate::Drop);
        }
        let rate = lf.dropped as f64 / n as f64;
        assert!((rate - target).abs() < 0.25 * target, "rate={rate}");
        // Burstiness: P(drop | previous dropped) must be far above the
        // unconditional rate (≈ loss_bad * P(stay bad) ≈ 0.45).
        let mut after_drop = 0u64;
        let mut both = 0u64;
        for w in drops.windows(2) {
            if w[0] {
                after_drop += 1;
                if w[1] {
                    both += 1;
                }
            }
        }
        let cond = both as f64 / after_drop as f64;
        assert!(cond > 10.0 * rate, "cond={cond} rate={rate}");
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = NetFaults {
            loss: LossModel::gilbert_elliott_for(0.05),
            dup_p: 0.01,
            corrupt_p: 0.01,
            ..NetFaults::default()
        };
        let run = |seed| {
            let mut lf = LinkFaults::new(cfg, seed);
            (0..10_000u32)
                .map(|i| lf.classify(frame(u64::from(i % 7), i * 999, 1448)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn retransmissions_are_classified_by_sequence_range() {
        let cfg = NetFaults {
            retx_drop: 1,
            ..NetFaults::default()
        };
        let mut lf = LinkFaults::new(cfg, 3);
        assert_eq!(lf.classify(frame(1, 0, 1448)), FrameFate::Deliver);
        assert_eq!(lf.classify(frame(1, 1448, 1448)), FrameFate::Deliver);
        // Re-sent range → retransmission → eaten by retx_drop.
        assert_eq!(lf.classify(frame(1, 0, 1448)), FrameFate::Drop);
        assert_eq!(lf.retx_dropped, 1);
        // Budget exhausted: the next retransmission goes through.
        assert_eq!(lf.classify(frame(1, 0, 1448)), FrameFate::Deliver);
        // New data on another flow is not a retransmission.
        assert_eq!(lf.classify(frame(2, 0, 1448)), FrameFate::Deliver);
        assert_eq!(lf.retx_dropped, 1);
    }

    #[test]
    fn nth_data_frame_drop_fires_once_per_flow() {
        let cfg = NetFaults {
            drop_nth_data_frame: Some(3),
            ..NetFaults::default()
        };
        let mut lf = LinkFaults::new(cfg, 4);
        for flow in [10u64, 20u64] {
            for i in 0..6u32 {
                let fate = lf.classify(frame(flow, i * 1448, 1448));
                if i == 2 {
                    assert_eq!(fate, FrameFate::Drop, "flow {flow} frame {i}");
                } else {
                    assert_eq!(fate, FrameFate::Deliver, "flow {flow} frame {i}");
                }
            }
        }
        assert_eq!(lf.dropped, 2);
    }

    #[test]
    fn fcs_bypass_delivers_corrupted_frames() {
        let cfg = NetFaults {
            corrupt_p: 1.0,
            fcs_check: false,
            ..NetFaults::default()
        };
        let mut lf = LinkFaults::new(cfg, 6);
        assert_eq!(lf.classify(frame(1, 0, 1448)), FrameFate::CorruptDeliver);
        assert_eq!(lf.corrupt_delivered, 1);
        assert_eq!(lf.corrupt_dropped, 0);

        // With FCS on, the same knob is an (observed) drop.
        let mut lf = LinkFaults::new(
            NetFaults {
                corrupt_p: 1.0,
                ..NetFaults::default()
            },
            6,
        );
        assert_eq!(lf.classify(frame(1, 0, 1448)), FrameFate::CorruptDrop);
        assert_eq!(lf.corrupt_dropped, 1);
        assert_eq!(lf.corrupt_delivered, 0);
    }

    #[test]
    fn seq_wraparound_not_misclassified() {
        let cfg = NetFaults::default();
        let mut lf = LinkFaults::new(cfg, 5);
        let near_wrap = u32::MAX - 1000;
        lf.classify(frame(1, near_wrap, 1448));
        // Crosses the 2^32 boundary: still *new* data, not a retx.
        let flow = lf.flows.get(&1).unwrap();
        assert!(flow.seen_any);
        lf.classify(frame(1, near_wrap.wrapping_add(1448), 1448));
        let flow = lf.flows.get(&1).unwrap();
        assert_eq!(flow.max_end, near_wrap.wrapping_add(2 * 1448));
    }
}
