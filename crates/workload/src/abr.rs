//! Adaptive-bitrate (ABR) client logic: per-session rung selection,
//! the virtual playout buffer, and the on-off fetch cadence.
//!
//! One [`AbrSession`] per client walks a title's segments in playout
//! order. For every segment it picks a quality rung (buffer-based,
//! rate-based, or fixed), fetches that rung's chunk range from the
//! manifest one `GET /chunk/<id>` at a time, credits the virtual
//! playout buffer on segment completion, and — the traffic shape the
//! paper's steady ACK clock never sees — *pauses* fetching when the
//! buffer is full, resuming only after playback drains it below the
//! resume threshold. That pause/resume cycle is DASH's on-off burst
//! pattern; what it does to DMA-pool occupancy and the fetch
//! watermark is the `ablation_abr` question.
//!
//! Every rung decision is appended to a per-session trace with
//! integer-quantized inputs, so two runs of one seed must produce
//! byte-identical traces (asserted in `tests/abr.rs`).

use dcn_obs::qoe::{PlayoutSim, QoeStats};
use dcn_simcore::Nanos;
use dcn_store::{AbrManifest, FileId};
use std::rc::Rc;

/// Rung-selection policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbrPolicy {
    /// Always request rung `r` (clamped to the ladder) — the
    /// non-adaptive control each adaptive variant is compared to.
    Fixed(usize),
    /// BBA-style: map buffer level linearly onto the ladder, capped
    /// at the highest rung the throughput estimate can support with
    /// `headroom` (never bet more than the pipe has shown).
    BufferBased,
    /// Throughput-driven: highest rung whose bitrate fits within
    /// `safety × estimate`, with up-switch hysteresis (climb one rung
    /// only after `up_hysteresis` consecutive supporting segments;
    /// fall immediately).
    RateBased,
}

/// ABR knobs. Thresholds are in buffered-playout time; sensible
/// defaults assume the manifest's 50 ms eval segments.
#[derive(Clone, Copy, Debug)]
pub struct AbrConfig {
    pub policy: AbrPolicy,
    /// Playback starts (and restarts after a stall) at this level.
    pub startup: Nanos,
    /// Stop fetching at/above this level (the "off" phase)…
    pub target: Nanos,
    /// …and resume below this one.
    pub resume: Nanos,
    /// Rate-based affordability factor (< 1 leaves margin).
    pub safety: f64,
    /// Buffer-based cap factor (> 1: optimism the buffer can absorb).
    pub headroom: f64,
    /// Consecutive supporting segments before an up-switch.
    pub up_hysteresis: u32,
    /// EWMA weight of the newest throughput sample.
    pub est_alpha: f64,
}

impl AbrConfig {
    #[must_use]
    pub fn buffer_based() -> Self {
        AbrConfig {
            policy: AbrPolicy::BufferBased,
            ..Self::rate_based()
        }
    }

    #[must_use]
    pub fn rate_based() -> Self {
        AbrConfig {
            policy: AbrPolicy::RateBased,
            startup: Nanos::from_millis(100),
            target: Nanos::from_millis(250),
            resume: Nanos::from_millis(150),
            safety: 0.8,
            headroom: 2.0,
            up_hysteresis: 2,
            est_alpha: 0.3,
        }
    }

    #[must_use]
    pub fn fixed(rung: usize) -> Self {
        AbrConfig {
            policy: AbrPolicy::Fixed(rung),
            ..Self::rate_based()
        }
    }
}

/// One rung decision, quantized to integers so the serialized trace
/// is byte-stable across replays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AbrDecision {
    pub at: Nanos,
    /// Monotone playout index (wraps over `segs_per_title` only in
    /// the manifest coordinates, never here).
    pub seg_index: u64,
    pub rung: u8,
    /// Throughput estimate at decision time, kbit/s (0 = no sample).
    pub est_kbps: u64,
    /// Buffer level at decision time, ms.
    pub buffer_ms: u64,
}

impl AbrDecision {
    /// One canonical trace line (replay identity is byte equality).
    #[must_use]
    pub fn trace_line(&self, client: usize) -> String {
        format!(
            "c{client} t={} seg={} rung={} est_kbps={} buf_ms={}\n",
            self.at.as_nanos(),
            self.seg_index,
            self.rung,
            self.est_kbps,
            self.buffer_ms
        )
    }
}

/// What the client should do next.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FetchStep {
    /// Request this chunk now.
    Chunk(FileId),
    /// Buffer full: the "off" phase. Ask again at the given time.
    PausedUntil(Nanos),
}

/// In-progress segment download.
#[derive(Clone, Copy, Debug)]
struct SegFetch {
    /// Manifest coordinates.
    seg: u32,
    rung: usize,
    start: FileId,
    count: u32,
    /// Chunks completed so far.
    done: u32,
    /// Chunks requested so far.
    requested: u32,
    started_at: Nanos,
}

/// Per-client adaptive-streaming state machine.
pub struct AbrSession {
    /// Shared by every session of a fleet.
    manifest: Rc<AbrManifest>,
    cfg: AbrConfig,
    title: u64,
    /// Monotone playout position; manifest segment = this mod
    /// `segs_per_title` (looping channel).
    next_seg: u64,
    rung: usize,
    cur: Option<SegFetch>,
    play: PlayoutSim,
    /// EWMA throughput estimate, bits/sec (0 = no sample yet).
    est_bps: f64,
    up_votes: u32,
    pub decisions: Vec<AbrDecision>,
}

impl AbrSession {
    #[must_use]
    pub fn new(manifest: impl Into<Rc<AbrManifest>>, cfg: AbrConfig, title: u64) -> Self {
        let manifest = manifest.into();
        assert!(title < manifest.n_titles());
        assert!(cfg.startup <= cfg.target && cfg.resume < cfg.target);
        AbrSession {
            manifest,
            cfg,
            title,
            next_seg: 0,
            rung: 0,
            cur: None,
            play: PlayoutSim::new(cfg.startup),
            est_bps: 0.0,
            up_votes: 0,
            decisions: Vec::new(),
        }
    }

    #[must_use]
    pub fn manifest(&self) -> &AbrManifest {
        &self.manifest
    }

    #[must_use]
    pub fn title(&self) -> u64 {
        self.title
    }

    /// Manifest coordinates + rung of the in-flight segment (what the
    /// verifier's rung claim is built from).
    #[must_use]
    pub fn current_claim(&self) -> Option<(u64, u32, usize)> {
        self.cur.map(|c| (self.title, c.seg, c.rung))
    }

    /// The startup-delay clock starts with the first request.
    pub fn note_first_request(&mut self, now: Nanos) {
        self.play.on_first_request(now);
    }

    /// Highest rung whose bitrate fits in `factor ×` the current
    /// estimate; rung 0 before any sample.
    fn max_affordable(&self, factor: f64) -> usize {
        if self.est_bps <= 0.0 {
            return 0;
        }
        let budget = factor * self.est_bps;
        (0..self.manifest.n_rungs())
            .rev()
            .find(|&r| self.manifest.bitrate_bps(r) <= budget)
            .unwrap_or(0)
    }

    /// Pick the rung for the next segment at `now` and record the
    /// decision.
    fn decide(&mut self, now: Nanos) -> usize {
        let level = self.play.level_at(now);
        let n = self.manifest.n_rungs();
        let chosen = match self.cfg.policy {
            AbrPolicy::Fixed(r) => r.min(n - 1),
            AbrPolicy::BufferBased => {
                let by_buffer = ((level.as_nanos() as u128 * n as u128)
                    / self.cfg.target.as_nanos().max(1) as u128)
                    .min(n as u128 - 1) as usize;
                by_buffer.min(self.max_affordable(self.cfg.headroom))
            }
            AbrPolicy::RateBased => {
                let afford = self.max_affordable(self.cfg.safety);
                if afford > self.rung {
                    self.up_votes += 1;
                    if self.up_votes >= self.cfg.up_hysteresis {
                        self.up_votes = 0;
                        self.rung + 1 // climb one rung at a time
                    } else {
                        self.rung
                    }
                } else {
                    self.up_votes = 0;
                    afford
                }
            }
        };
        self.rung = chosen;
        self.decisions.push(AbrDecision {
            at: now,
            seg_index: self.next_seg,
            rung: chosen as u8,
            est_kbps: (self.est_bps / 1000.0) as u64,
            buffer_ms: level.as_nanos() / 1_000_000,
        });
        chosen
    }

    /// The client is ready to issue a request: next chunk of the
    /// current segment, the first chunk of a freshly decided segment,
    /// or a pause when the buffer is full.
    pub fn next_fetch(&mut self, now: Nanos) -> FetchStep {
        if let Some(cur) = &mut self.cur {
            debug_assert!(cur.requested < cur.count, "one request outstanding");
            let id = FileId(cur.start.0 + u64::from(cur.requested));
            cur.requested += 1;
            return FetchStep::Chunk(id);
        }
        // Segment boundary: the on-off gate. Only a started session
        // pauses — before playback the buffer never drains, and the
        // point of startup is to fill it as fast as possible.
        let level = self.play.level_at(now);
        if self.play.started() && level >= self.cfg.target {
            // Playback drains 1 s of media per second: the level hits
            // `resume` exactly `level - resume` from now.
            return FetchStep::PausedUntil(now + (level - self.cfg.resume));
        }
        let rung = self.decide(now);
        let seg = (self.next_seg % u64::from(self.manifest.segs_per_title())) as u32;
        self.next_seg += 1;
        let (start, count) = self.manifest.rung_range(self.title, seg, rung);
        self.cur = Some(SegFetch {
            seg,
            rung,
            start,
            count,
            done: 0,
            requested: 1,
            started_at: now,
        });
        FetchStep::Chunk(start)
    }

    /// A chunk response completed at `now`. Returns true when it
    /// finished the whole segment (buffer credited, estimate
    /// updated).
    pub fn on_chunk_done(&mut self, now: Nanos) -> bool {
        let Some(cur) = &mut self.cur else {
            return false;
        };
        cur.done += 1;
        if cur.done < cur.count {
            return false;
        }
        let cur = self.cur.take().expect("checked");
        let bytes = self.manifest.seg_bytes(cur.rung);
        let dt = now.saturating_sub(cur.started_at).max(Nanos(1));
        let sample_bps = bytes as f64 * 8.0 / dt.as_secs_f64();
        self.est_bps = if self.est_bps <= 0.0 {
            sample_bps
        } else {
            self.cfg.est_alpha * sample_bps + (1.0 - self.cfg.est_alpha) * self.est_bps
        };
        self.play.on_segment(
            now,
            self.manifest.seg_duration(),
            self.manifest.bitrate_bps(cur.rung),
            cur.rung,
        );
        true
    }

    /// Down-switches in the decision trace (rung strictly below the
    /// previous decision's).
    #[must_use]
    pub fn downswitches(&self) -> u64 {
        self.decisions
            .windows(2)
            .filter(|w| w[1].rung < w[0].rung)
            .count() as u64
    }

    /// Close the session and read out its QoE.
    #[must_use]
    pub fn finish(self, now: Nanos) -> QoeStats {
        self.play.finish(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_store::Catalog;

    fn manifest() -> AbrManifest {
        let cat = Catalog::new(10_000, 300 * 1024, 4, 7);
        AbrManifest::carve(&cat, &[1, 2, 4, 8], 16, Nanos::from_millis(50))
    }

    /// Drive a session through whole segments at a synthetic
    /// throughput (bytes/sec), returning fetch→completion times.
    fn run_segments(s: &mut AbrSession, n: usize, bps: f64, mut now: Nanos) -> Nanos {
        s.note_first_request(now);
        for _ in 0..n {
            loop {
                match s.next_fetch(now) {
                    FetchStep::Chunk(_) => {
                        now += Nanos::from_secs_f64(s.manifest.chunk_size() as f64 / bps);
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

    #[test]
    fn first_segment_is_lowest_rung() {
        let mut s = AbrSession::new(manifest(), AbrConfig::rate_based(), 0);
        s.note_first_request(Nanos::ZERO);
        match s.next_fetch(Nanos::ZERO) {
            FetchStep::Chunk(f) => {
                let (start, _) = s.manifest.rung_range(0, 0, 0);
                assert_eq!(f, start, "no estimate yet ⇒ rung 0");
            }
            other => panic!("expected a chunk, got {other:?}"),
        }
        assert_eq!(s.decisions[0].rung, 0);
        assert_eq!(s.decisions[0].est_kbps, 0);
    }

    #[test]
    fn on_off_pause_resumes_at_the_resume_level() {
        let mut s = AbrSession::new(manifest(), AbrConfig::fixed(0), 0);
        // Infinite-speed network: every chunk completes instantly, so
        // the buffer fills to the target and the session must pause.
        let mut now = Nanos::ZERO;
        s.note_first_request(now);
        let pause_at = loop {
            match s.next_fetch(now) {
                FetchStep::Chunk(_) => {
                    now += Nanos(1);
                    s.on_chunk_done(now);
                }
                FetchStep::PausedUntil(t) => break t,
            }
        };
        let level = s.play.level_at(now);
        assert!(level >= s.cfg.target, "paused only at/above target");
        assert_eq!(
            pause_at,
            now + (level - s.cfg.resume),
            "wake exactly when playback drains to the resume level"
        );
        // At the wake time the gate opens again.
        match s.next_fetch(pause_at) {
            FetchStep::Chunk(_) => {}
            other => panic!("expected resumed fetch, got {other:?}"),
        }
    }

    #[test]
    fn segment_indices_are_monotone() {
        let mut s = AbrSession::new(manifest(), AbrConfig::buffer_based(), 1);
        // Fast enough to climb, slow enough to keep draining.
        run_segments(&mut s, 40, 40e6, Nanos::ZERO);
        for (i, d) in s.decisions.iter().enumerate() {
            assert_eq!(d.seg_index, i as u64, "playout order, no skips");
        }
        assert!(s.decisions.len() >= 40);
    }
}
