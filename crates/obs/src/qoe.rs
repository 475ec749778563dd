//! Quality-of-experience accounting for adaptive streaming clients.
//!
//! A [`PlayoutSim`] models one viewer's playout buffer in virtual
//! time: downloaded segments credit buffered media, playback (once
//! started) drains it second-for-second, and an empty buffer is a
//! rebuffer event. Everything is exact arithmetic on [`Nanos`] — no
//! sampling — so the derived QoE metrics replay bit-identically with
//! the rest of the simulation.
//!
//! The metrics are the standard QoE quartet:
//!
//! * **startup delay** — first request → playback start;
//! * **rebuffer ratio** — stalled time / (played + stalled) time,
//!   with the convention that a session that requested media but
//!   never reached its startup threshold is *all* stall (ratio 1.0);
//! * **bitrate-switch count** — segment-to-segment rung changes;
//! * **time-weighted average bitrate** — ∫bitrate·dt over played
//!   time (what the viewer actually watched, not what was fetched).

use dcn_simcore::Nanos;

/// Playback state of one session.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum PlayState {
    /// No media requested yet.
    Idle,
    /// Requested, buffering toward the startup threshold.
    Starting,
    /// Playing; buffer drains in real (virtual) time.
    Playing,
    /// Buffer hit empty mid-playback; refilling to the startup
    /// threshold.
    Rebuffering,
}

/// One viewer's virtual playout buffer + QoE accumulator.
#[derive(Clone, Debug)]
pub struct PlayoutSim {
    /// Buffered media ahead of the playhead.
    level: Nanos,
    /// Playback begins (and resumes after a stall) at this level.
    startup: Nanos,
    state: PlayState,
    /// When the first request was sent / the current state began.
    first_request: Option<Nanos>,
    state_since: Nanos,
    /// Accumulators (final values assembled by [`Self::finish`]).
    startup_delay: Option<Nanos>,
    play_time: Nanos,
    rebuffer_time: Nanos,
    rebuffer_events: u64,
    switches: u64,
    /// ∫ bitrate · dt over played time, in bit·seconds… dimensionally
    /// bits; divided by play time for the time-weighted average.
    bitrate_dt: f64,
    /// Bitrate currently at the playhead (of the most recently
    /// *consumed* segment; segment granularity is fine at our segment
    /// durations).
    playing_bps: f64,
    last_rung: Option<usize>,
}

/// Finished per-session QoE readout.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QoeStats {
    /// None ⇒ playback never started.
    pub startup_delay: Option<Nanos>,
    pub play_time: Nanos,
    pub rebuffer_time: Nanos,
    pub rebuffer_events: u64,
    pub switches: u64,
    /// Time-weighted average bitrate over played time (bps). 0 when
    /// nothing played.
    pub avg_bitrate_bps: f64,
    /// Stall fraction; see module docs for the never-started edge.
    pub rebuffer_ratio: f64,
}

impl PlayoutSim {
    #[must_use]
    pub fn new(startup: Nanos) -> Self {
        assert!(startup > Nanos::ZERO);
        PlayoutSim {
            level: Nanos::ZERO,
            startup,
            state: PlayState::Idle,
            first_request: None,
            state_since: Nanos::ZERO,
            startup_delay: None,
            play_time: Nanos::ZERO,
            rebuffer_time: Nanos::ZERO,
            rebuffer_events: 0,
            switches: 0,
            bitrate_dt: 0.0,
            playing_bps: 0.0,
            last_rung: None,
        }
    }

    /// The session's first request left at `now`: the startup-delay
    /// clock starts here.
    pub fn on_first_request(&mut self, now: Nanos) {
        if self.first_request.is_none() {
            self.first_request = Some(now);
            self.state = PlayState::Starting;
            self.state_since = now;
        }
    }

    /// Advance the playhead to `now`: drain the buffer over elapsed
    /// time, booking play/rebuffer time and any stall transition that
    /// happened in between.
    fn advance(&mut self, now: Nanos) {
        debug_assert_eq!(self.state, PlayState::Playing);
        let elapsed = now.saturating_sub(self.state_since);
        if elapsed <= self.level {
            self.level = self.level.saturating_sub(elapsed);
            self.play_time += elapsed;
            self.bitrate_dt += self.playing_bps * elapsed.as_secs_f64();
            self.state_since = now;
            return;
        }
        // Ran dry mid-interval: played `level`, then stalled.
        let played = self.level;
        self.play_time += played;
        self.bitrate_dt += self.playing_bps * played.as_secs_f64();
        self.level = Nanos::ZERO;
        self.state = PlayState::Rebuffering;
        self.rebuffer_events += 1;
        self.state_since += played;
        let stalled = now.saturating_sub(self.state_since);
        self.rebuffer_time += stalled;
        self.state_since = now;
    }

    /// A whole segment of `duration` playout at `bitrate_bps` (rung
    /// index `rung`) finished downloading at `now`.
    pub fn on_segment(&mut self, now: Nanos, duration: Nanos, bitrate_bps: f64, rung: usize) {
        self.advance_clock(now);
        if let Some(prev) = self.last_rung {
            if prev != rung {
                self.switches += 1;
            }
        }
        self.last_rung = Some(rung);
        self.level += duration;
        // Segment-granular playhead bitrate: good enough, and keeps
        // the accounting O(1) per segment.
        self.playing_bps = bitrate_bps;
        match self.state {
            PlayState::Starting if self.level >= self.startup => {
                self.startup_delay =
                    Some(now.saturating_sub(self.first_request.unwrap_or(Nanos::ZERO)));
                self.state = PlayState::Playing;
                self.state_since = now;
            }
            PlayState::Rebuffering if self.level >= self.startup => {
                self.state = PlayState::Playing;
                self.state_since = now;
            }
            _ => {}
        }
    }

    /// Book elapsed play/rebuffer time up to `now` (public so pacing
    /// decisions can read a current buffer level).
    pub fn advance_clock(&mut self, now: Nanos) {
        match self.state {
            PlayState::Playing => self.advance(now),
            PlayState::Rebuffering => {
                // Post-start stall: dead air, booked as rebuffering.
                self.rebuffer_time += now.saturating_sub(self.state_since);
                self.state_since = now;
            }
            PlayState::Starting => {
                // Pre-start wait is startup delay (measured from the
                // first request when playback begins), not rebuffer.
                self.state_since = now;
            }
            PlayState::Idle => {}
        }
    }

    /// Current buffered media at `now`.
    #[must_use]
    pub fn level_at(&mut self, now: Nanos) -> Nanos {
        self.advance_clock(now);
        self.level
    }

    /// Has playback started at least once?
    #[must_use]
    pub fn started(&self) -> bool {
        self.startup_delay.is_some()
    }

    /// Close the session at `now` and read out its QoE.
    #[must_use]
    pub fn finish(mut self, now: Nanos) -> QoeStats {
        self.advance_clock(now);
        let started = self.startup_delay.is_some();
        let requested = self.first_request.is_some();
        let watched = self.play_time + self.rebuffer_time;
        let rebuffer_ratio = if !requested {
            0.0
        } else if !started {
            // Viewer stared at a spinner for the whole session.
            1.0
        } else if watched == Nanos::ZERO {
            0.0
        } else {
            self.rebuffer_time.as_secs_f64() / watched.as_secs_f64()
        };
        let avg_bitrate_bps = if self.play_time > Nanos::ZERO {
            self.bitrate_dt / self.play_time.as_secs_f64()
        } else {
            0.0
        };
        QoeStats {
            startup_delay: self.startup_delay,
            play_time: self.play_time,
            rebuffer_time: self.rebuffer_time,
            rebuffer_events: self.rebuffer_events,
            switches: self.switches,
            avg_bitrate_bps,
            rebuffer_ratio,
        }
    }
}

/// Fleet-wide QoE aggregate (the `qoe.*` registry family and the
/// `RunMetrics::qoe` field).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QoeSummary {
    pub sessions: u64,
    /// Sessions whose playback started.
    pub started: u64,
    /// Mean startup delay over started sessions, ms.
    pub startup_ms_mean: f64,
    /// Worst startup delay, ms.
    pub startup_ms_max: f64,
    /// Σ rebuffer / Σ (play + rebuffer) over started sessions, plus
    /// never-started sessions counted as all-stall.
    pub rebuffer_ratio: f64,
    pub rebuffer_events: u64,
    pub switches: u64,
    /// Play-time-weighted average bitrate across the fleet, Mbps.
    pub avg_bitrate_mbps: f64,
}

impl QoeSummary {
    /// Aggregate per-session stats. `horizon` is the session span
    /// used to weigh never-started sessions as all-stall.
    #[must_use]
    pub fn aggregate(stats: &[QoeStats], horizon: Nanos) -> QoeSummary {
        let mut s = QoeSummary {
            sessions: stats.len() as u64,
            ..QoeSummary::default()
        };
        let mut startup_sum_ms = 0.0;
        let mut play = 0.0;
        let mut stall = 0.0;
        let mut bitrate_dt = 0.0;
        for q in stats {
            if let Some(d) = q.startup_delay {
                s.started += 1;
                let ms = d.as_millis_f64();
                startup_sum_ms += ms;
                s.startup_ms_max = s.startup_ms_max.max(ms);
                play += q.play_time.as_secs_f64();
                stall += q.rebuffer_time.as_secs_f64();
            } else {
                stall += horizon.as_secs_f64();
            }
            s.rebuffer_events += q.rebuffer_events;
            s.switches += q.switches;
            bitrate_dt += q.avg_bitrate_bps * q.play_time.as_secs_f64();
        }
        if s.started > 0 {
            s.startup_ms_mean = startup_sum_ms / s.started as f64;
        }
        if play + stall > 0.0 {
            s.rebuffer_ratio = stall / (play + stall);
        }
        if play > 0.0 {
            s.avg_bitrate_mbps = bitrate_dt / play / 1e6;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    /// Hand-computed: startup threshold 150 ms, two 100 ms segments
    /// arrive at t=40 ms and t=60 ms (start at 60 ms, level 200 ms),
    /// playback then drains undisturbed until the close at t=200 ms.
    /// No rebuffering anywhere.
    #[test]
    fn zero_rebuffer_fixture() {
        let mut p = PlayoutSim::new(Nanos(150 * MS));
        p.on_first_request(Nanos(10 * MS));
        p.on_segment(Nanos(40 * MS), Nanos(100 * MS), 1e6, 0);
        assert!(!p.started(), "one segment is below the startup level");
        p.on_segment(Nanos(60 * MS), Nanos(100 * MS), 1e6, 0);
        assert!(p.started());
        let q = p.finish(Nanos(200 * MS));
        assert_eq!(q.startup_delay, Some(Nanos(50 * MS)), "10 ms → 60 ms");
        assert_eq!(q.play_time, Nanos(140 * MS), "60 ms → 200 ms");
        assert_eq!(q.rebuffer_time, Nanos::ZERO);
        assert_eq!(q.rebuffer_events, 0);
        assert_eq!(q.rebuffer_ratio, 0.0);
        assert_eq!(q.switches, 0);
        assert!((q.avg_bitrate_bps - 1e6).abs() < 1e-6);
    }

    /// Hand-computed rebuffer: start with exactly the startup level
    /// (100 ms) at t=0, then the next segment only lands at t=250 ms.
    /// The buffer runs dry at t=100 ms ⇒ 150 ms of stall; the refill
    /// (100 ms < startup… two segments needed) resumes at t=260 ms.
    #[test]
    fn rebuffer_interval_is_exact() {
        let mut p = PlayoutSim::new(Nanos(100 * MS));
        p.on_first_request(Nanos::ZERO);
        p.on_segment(Nanos::ZERO, Nanos(100 * MS), 2e6, 1);
        assert!(p.started());
        p.on_segment(Nanos(250 * MS), Nanos(50 * MS), 1e6, 0);
        assert_eq!(
            p.state,
            PlayState::Rebuffering,
            "50 ms refill < 100 ms startup"
        );
        p.on_segment(Nanos(260 * MS), Nanos(50 * MS), 1e6, 0);
        assert_ne!(p.state, PlayState::Rebuffering);
        let q = p.finish(Nanos(300 * MS));
        assert_eq!(q.rebuffer_events, 1);
        // Stall from t=100 ms to t=260 ms.
        assert_eq!(q.rebuffer_time, Nanos(160 * MS));
        // Played 0→100 and 260→300.
        assert_eq!(q.play_time, Nanos(140 * MS));
        let want = 160.0 / (160.0 + 140.0);
        assert!((q.rebuffer_ratio - want).abs() < 1e-12);
        assert_eq!(q.switches, 1, "rung 1 → rung 0");
    }

    /// Never-started edge: media was requested but the buffer never
    /// reached the startup threshold — all spinner, ratio 1.0.
    #[test]
    fn never_started_is_all_stall() {
        let mut p = PlayoutSim::new(Nanos(100 * MS));
        p.on_first_request(Nanos::ZERO);
        p.on_segment(Nanos(50 * MS), Nanos(40 * MS), 1e6, 0);
        let q = p.finish(Nanos(500 * MS));
        assert_eq!(q.startup_delay, None);
        assert_eq!(q.rebuffer_ratio, 1.0);
        assert_eq!(q.play_time, Nanos::ZERO);
        assert_eq!(q.avg_bitrate_bps, 0.0);
    }

    /// A session that never even requested media is not penalized.
    #[test]
    fn idle_session_has_zero_ratio() {
        let p = PlayoutSim::new(Nanos(100 * MS));
        let q = p.finish(Nanos(500 * MS));
        assert_eq!(q.rebuffer_ratio, 0.0);
        assert_eq!(q.startup_delay, None);
    }

    #[test]
    fn aggregate_weighs_never_started_as_stall() {
        let horizon = Nanos(1_000 * MS);
        let started = QoeStats {
            startup_delay: Some(Nanos(100 * MS)),
            play_time: Nanos(900 * MS),
            rebuffer_time: Nanos(100 * MS),
            rebuffer_events: 1,
            switches: 2,
            avg_bitrate_bps: 4e6,
            rebuffer_ratio: 0.1,
        };
        let spinner = QoeStats {
            rebuffer_ratio: 1.0,
            ..QoeStats::default()
        };
        let s = QoeSummary::aggregate(&[started, spinner], horizon);
        assert_eq!(s.sessions, 2);
        assert_eq!(s.started, 1);
        assert!((s.startup_ms_mean - 100.0).abs() < 1e-9);
        // stall = 0.1 s + 1.0 s horizon; play = 0.9 s.
        let want = 1.1 / 2.0;
        assert!((s.rebuffer_ratio - want).abs() < 1e-12);
        assert!((s.avg_bitrate_mbps - 4.0).abs() < 1e-9);
        assert_eq!(s.switches, 2);
    }
}
