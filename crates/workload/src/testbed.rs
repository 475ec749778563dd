//! The §4 testbed as one deterministic event loop over N ≥ 1 servers.
//!
//! Topology: servers ↔ 40 GbE cut-through switch ↔ clients, with the
//! delay middlebox on the client→server path only (data flows
//! server→client over the LAN with microsecond latency; ACKs and
//! requests take the per-flow detour — exactly the paper's setup,
//! including its rationale of keeping the middlebox out of the
//! high-rate direction).
//!
//! The loop owns what every run shares: the event queue and the
//! client ramp, one pending wake per server, an alive flag per server
//! (a killed server's frames vanish in both directions), the wire
//! (middlebox, link faults, client stalls), DMA-pool sampling, the
//! steady-state allocation audit, and the metrics CSV and chunk trace.
//! What differs between a lone server's fleet and a dispatched
//! cluster sits behind [`ClientSide`].

use crate::fleet::{AbrReadout, ClientTx};
use crate::runner::{ObsOptions, ObsReport, PoolOcc, VideoServer};
use dcn_faults::{salt, FaultConfig, FrameFate, FrameInfo, LinkFaults};
use dcn_netdev::{parse_frame, tcp_frame_info, DelayMiddlebox, SentBurst, WireFrame};
use dcn_obs::export::{chunk_to_json, stage_summary, TimeSeries};
use dcn_obs::Registry;
use dcn_packet::FlowId;
use dcn_simcore::{EventQueue, Nanos};
use std::collections::HashMap;

/// Switch forwarding latency (cut-through 40 GbE).
const SWITCH_LATENCY: Nanos = Nanos(2_000);

/// DMA-pool occupancy sampling cadence (virtual time).
const POOL_SAMPLE_EVERY: Nanos = Nanos(500_000);

/// What one run is made of, apart from its clients.
pub struct Testbed {
    /// The servers, indexed the way the client side addresses them.
    pub servers: Vec<Box<dyn VideoServer>>,
    /// The client→server delay (`DelayMiddlebox::paper` or a band).
    pub middlebox: DelayMiddlebox,
    /// Link faults, client stalls and the aggressive-open ramp apply
    /// here; the caller arms server faults, and `faults.cluster` is
    /// the client side's.
    pub faults: FaultConfig,
    pub n_clients: usize,
    pub warmup: Nanos,
    pub duration: Nanos,
    pub seed: u64,
    /// Tag every server's CSV series `s{i}.` (plus an `s{i}.alive`
    /// row), its trace lines `"server":i` and its stage summary.
    /// Untagged, the lone server's registry is the testbed's own: the
    /// wire's `faults.*` gauges and the fleet's `qoe.*` land in it.
    pub tag_servers: bool,
}

/// The running testbed, as the client side sees it.
pub struct Net<E> {
    pub tb: Testbed,
    /// False once a server was killed.
    pub alive: Vec<bool>,
    pub link: LinkFaults,
    /// Client stalls injected so far.
    pub client_stalls: u64,
    q: EventQueue<Ev<E>>,
}

/// The clients, as the loop sees them: the lone server's
/// `ClientFleet`, or `dcn-cluster`'s `Pod` (a `MultiFleet` behind its
/// dispatcher). The two fleets are one client implementation over two
/// connection topologies; a client side adds only how its requests
/// are routed and its wakes scheduled.
pub trait ClientSide {
    /// Timers and control-plane actions the client side schedules.
    type Event;
    /// Schedule start-up events (queued after the ramp and the
    /// servers' first wakes).
    fn start(&mut self, _net: &mut Net<Self::Event>) {}
    /// Client `idx` joins.
    fn spawn(&mut self, net: &mut Net<Self::Event>, now: Nanos, idx: usize);
    /// A burst for `flow` (server→client) reached the clients.
    fn on_burst(
        &mut self,
        net: &mut Net<Self::Event>,
        now: Nanos,
        flow: FlowId,
        frames: Vec<WireFrame>,
    );
    /// One of the client side's own events fired.
    fn on_event(&mut self, net: &mut Net<Self::Event>, now: Nanos, ev: Self::Event);
    /// After every event but a burst a client stall deferred;
    /// `touched` is the server whose state the event changed.
    fn after_event(&mut self, net: &mut Net<Self::Event>, touched: Option<usize>);
    /// Rows of its own at a metrics sample point.
    fn sample(&self, _ts: &mut TimeSeries, _at: Nanos, _net: &Net<Self::Event>) {}
    /// Close every ABR session at the end of the run.
    fn finish_abr(&mut self, end: Nanos) -> Option<AbrReadout>;
}

/// What a finished run leaves for the result builders.
pub struct Finished<C: ClientSide> {
    pub net: Net<C::Event>,
    pub client: C,
    /// Per server: DMA-pool occupancy over the measurement window.
    pub pool_occ: Vec<Option<PoolOcc>>,
    pub abr: Option<AbrReadout>,
    pub report: ObsReport,
}

enum Ev<E> {
    /// Ramp-up: spawn client `idx`.
    Spawn(usize),
    /// Frames arrive at server `s`.
    ServerRx(usize, Vec<WireFrame>),
    /// A burst arrives at the clients for `flow` (server→client).
    ClientRx(FlowId, Vec<WireFrame>),
    /// Server `s` internal wake (disk completion / TCP timer).
    ServerWake(usize),
    /// Read the DMA buffer-pool levels (observation only).
    PoolSample,
    Client(E),
}

/// One pending wake per timer: a wake is scheduled only if it beats
/// the one already queued.
#[derive(Clone, Copy)]
pub struct PendingWake(Nanos);

impl PendingWake {
    /// Nothing pending.
    pub const IDLE: PendingWake = PendingWake(Nanos::MAX);

    /// A wake fired at `now`. Forget it only if it was the pending
    /// one: a stale earlier duplicate must not, or every stale pop
    /// would re-schedule the same future deadline and wakes would
    /// multiply without bound.
    pub fn fired(&mut self, now: Nanos) {
        if now >= self.0 {
            self.0 = Nanos::MAX;
        }
    }

    /// When to schedule a wake for `deadline`, if it beats the
    /// pending one (a deadline in the past fires now).
    pub fn arm(&mut self, deadline: Option<Nanos>, now: Nanos) -> Option<Nanos> {
        let at = deadline?.max(now);
        (at < self.0).then(|| {
            self.0 = at;
            at
        })
    }
}

impl<E> Net<E> {
    #[must_use]
    pub fn now(&self) -> Nanos {
        self.q.now()
    }

    /// Schedule one of the client side's own events.
    pub fn schedule(&mut self, at: Nanos, ev: E) {
        self.q.schedule(at, Ev::Client(ev));
    }

    /// Client → middlebox (per-flow constant delay) → switch → server
    /// `server`. A dead server still "receives" (and drops) the
    /// frames — the network doesn't know it died.
    pub fn send(&mut self, now: Nanos, server: usize, tx: ClientTx) {
        if !tx.frames.is_empty() {
            let delay = self.tb.middlebox.delay(tx.flow) + SWITCH_LATENCY;
            self.q
                .schedule(now + delay, Ev::ServerRx(server, tx.frames));
        }
    }

    /// Server → switch → client: LAN latency only. All frames of one
    /// burst belong to one flow (one TX descriptor).
    fn route_bursts(&mut self, bursts: Vec<SentBurst>) {
        for b in bursts {
            let frames = if self.link.is_active() {
                let mut out = Vec::with_capacity(b.frames.len());
                for f in b.frames {
                    through_link(&mut self.link, f, &mut out);
                }
                out
            } else {
                b.frames
            };
            if let Some((flow, _, _)) = frames.first().and_then(parse_frame) {
                let at = b.departed + SWITCH_LATENCY;
                self.q.schedule(at, Ev::ClientRx(flow, frames));
            }
        }
    }

    /// The registry that carries the testbed's own series: the lone
    /// server's, when series are untagged.
    fn testbed_registry(&mut self) -> Option<&mut Registry> {
        let lone = !self.tb.tag_servers;
        self.tb.servers[0].registry_mut().filter(|_| lone)
    }

    /// Mirror the wire's fault counters into the testbed registry so
    /// the metrics CSV carries one coherent `faults.*` family.
    fn publish_wire_gauges(&mut self) {
        let link = &self.link;
        let counts = [
            ("faults.net_dropped", link.dropped),
            ("faults.net_duplicated", link.duplicated),
            ("faults.net_corrupt_dropped", link.corrupt_dropped),
            ("faults.net_corrupt_delivered", link.corrupt_delivered),
            ("faults.net_retx_dropped", link.retx_dropped),
            ("faults.client_stalls", self.client_stalls),
        ];
        if let Some(reg) = self.testbed_registry() {
            for (name, v) in counts {
                let g = reg.gauge(name);
                reg.set(g, v as f64);
            }
        }
    }

    /// One CSV sample point: every server's registry (live ones
    /// republished first), then the client side's rows.
    fn sample<C: ClientSide<Event = E>>(&mut self, ts: &mut TimeSeries, at: Nanos, client: &C) {
        for i in 0..self.tb.servers.len() {
            if self.alive[i] {
                self.tb.servers[i].publish_obs();
            }
            self.publish_wire_gauges();
            let tag = self.tb.tag_servers;
            let prefix = if tag { format!("s{i}.") } else { String::new() };
            if let Some(reg) = self.tb.servers[i].registry() {
                ts.sample_labeled(at, reg, &prefix);
            }
            if tag {
                let alive = f64::from(u8::from(self.alive[i]));
                ts.push_value(at, &format!("{prefix}alive"), alive);
            }
        }
        client.sample(ts, at, self);
    }
}

/// What the link does to one frame: data frames meet the fault model,
/// control frames (SYN-ACKs, bare ACKs) always get through.
fn through_link(link: &mut LinkFaults, f: WireFrame, out: &mut Vec<WireFrame>) {
    let Some(i) = tcp_frame_info(&f).filter(|i| i.payload_len > 0) else {
        return out.push(f);
    };
    match link.classify(FrameInfo {
        flow_key: i.flow_key,
        seq: i.seq,
        payload_len: i.payload_len,
    }) {
        FrameFate::Deliver => out.push(f),
        FrameFate::Drop | FrameFate::CorruptDrop => {}
        FrameFate::Duplicate => out.extend([f.clone(), f]),
        FrameFate::CorruptDeliver => out.push(corrupt_frame(f)),
    }
}

/// Flip one payload byte of a frame whose corruption the (bypassed)
/// FCS failed to catch. Only materialized payloads can be mangled; at
/// modeled fidelity the bytes don't exist, so the frame passes
/// through (content verification is off there anyway).
#[must_use]
pub fn corrupt_frame(mut f: WireFrame) -> WireFrame {
    if let dcn_netdev::PayloadBytes::Real(b) = &mut f.payload {
        if !b.is_empty() {
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
        }
    }
    f
}

/// Run the testbed to `tb.duration`. With `obs` disabled nothing is
/// written and the run is bit-identical to an observed one.
pub fn run<C: ClientSide>(tb: Testbed, mut client: C, obs: &ObsOptions) -> Finished<C> {
    let n = tb.servers.len();
    assert!(n > 0, "the testbed needs at least one server");
    let (faults, warmup, duration) = (tb.faults, tb.warmup, tb.duration);
    let mut stall_rng = dcn_faults::rng_for(tb.seed, salt::CLIENT);
    let mut stalled_until: HashMap<FlowId, Nanos> = HashMap::new();
    let mut net = Net {
        alive: vec![true; n],
        link: LinkFaults::new(faults.net, tb.seed),
        client_stalls: 0,
        q: EventQueue::new(),
        tb,
    };

    // Ramp clients over the first 150 ms (or the warm-up, whichever
    // is shorter) so the servers aren't hit by one synchronized SYN
    // flood — unless the aggressive-open fault is armed, in which
    // case that flood is exactly the point.
    let ramp = if faults.client.aggressive_open {
        Nanos::ZERO
    } else {
        warmup.min(Nanos::from_millis(150))
    };
    for idx in 0..net.tb.n_clients {
        let at = ramp.mul_f64(idx as f64 / net.tb.n_clients.max(1) as f64);
        net.q.schedule(at, Ev::Spawn(idx));
    }
    for s in 0..n {
        net.q.schedule(Nanos::ZERO, Ev::ServerWake(s));
    }
    client.start(&mut net);
    net.q.schedule(POOL_SAMPLE_EVERY, Ev::PoolSample);

    let sample_interval = obs.sample_interval.unwrap_or(Nanos::from_millis(10));
    let mut series = obs.metrics_out.as_ref().map(|_| TimeSeries::new());
    let mut next_sample = sample_interval;
    let mut wakes = vec![PendingWake::IDLE; n];
    // Per server: free buffers at each post-warm-up sample, capacity.
    let mut pools = vec![(Vec::new(), 0); n];
    let mut steady_armed = false;
    while let Some(ev) = net.q.pop() {
        let now = ev.at;
        if !steady_armed && now >= warmup {
            // The scratch arenas have reached steady-state capacity by
            // the end of warm-up; anything that grows them after this
            // point is hot-path heap traffic the zero-alloc tests
            // assert against (DESIGN.md §12).
            dcn_obs::steady::reset();
            steady_armed = true;
        }
        if now > duration {
            break;
        }
        if let Some(ts) = series.as_mut() {
            while next_sample <= now {
                net.sample(ts, next_sample, &client);
                next_sample += sample_interval;
            }
        }
        let mut touched = None;
        match ev.event {
            Ev::Spawn(idx) => client.spawn(&mut net, now, idx),
            Ev::ServerRx(s, frames) => {
                if net.alive[s] {
                    let bursts = net.tb.servers[s].on_wire_rx(now, frames);
                    net.route_bursts(bursts);
                    touched = Some(s);
                }
            }
            Ev::ClientRx(flow, frames) => {
                if faults.client.is_active() {
                    // Injected client stall: the whole flow's delivery
                    // pauses; everything arriving meanwhile is
                    // deferred (in order) to the stall's end.
                    let until = stalled_until.get(&flow).copied();
                    if let Some(until) = until.filter(|&u| u > now) {
                        net.q.schedule(until, Ev::ClientRx(flow, frames));
                        continue;
                    }
                    if stall_rng.chance(faults.client.stall_p) {
                        net.client_stalls += 1;
                        let until = now + faults.client.stall;
                        stalled_until.insert(flow, until);
                        net.q.schedule(until, Ev::ClientRx(flow, frames));
                        continue;
                    }
                }
                client.on_burst(&mut net, now, flow, frames);
            }
            Ev::ServerWake(s) => {
                wakes[s].fired(now);
                if net.alive[s] {
                    let bursts = net.tb.servers[s].advance(now);
                    net.route_bursts(bursts);
                    touched = Some(s);
                }
            }
            Ev::PoolSample => {
                let mut pooled = false;
                for (s, (free, cap)) in pools.iter_mut().enumerate() {
                    let snap = net.tb.servers[s].pool_snapshot();
                    if let Some((f, c)) = snap.filter(|_| net.alive[s]) {
                        pooled = true;
                        if now >= warmup {
                            free.push(f);
                            *cap = c;
                        }
                    }
                }
                let at = now + POOL_SAMPLE_EVERY;
                if pooled && at <= duration {
                    net.q.schedule(at, Ev::PoolSample);
                }
            }
            Ev::Client(e) => client.on_event(&mut net, now, e),
        }
        // Keep exactly one pending wake at the touched server's next
        // deadline (only an event that touched a server can move it).
        if let Some(s) = touched {
            let deadline = net.tb.servers[s].poll_at();
            if let Some(at) = wakes[s].arm(deadline, net.q.now()) {
                net.q.schedule(at, Ev::ServerWake(s));
            }
        }
        client.after_event(&mut net, touched);
    }

    // Close ABR sessions first so the fleet's QoE lands in the
    // testbed registry (and the final CSV sample).
    let abr = client.finish_abr(duration);
    if let (Some(a), Some(reg)) = (abr.as_ref(), net.testbed_registry()) {
        a.publish(reg);
    }
    // Final publish: gauges reflect end-of-run state both for the last
    // CSV sample and for the result builders' reads.
    for srv in &mut net.tb.servers {
        srv.publish_obs();
    }
    net.publish_wire_gauges();
    if let (Some(path), Some(ts)) = (obs.metrics_out.as_ref(), series.as_mut()) {
        net.sample(ts, duration, &client);
        if let Err(e) = ts.write_csv(path) {
            let path = path.display();
            eprintln!("warning: failed to write metrics CSV {path}: {e}");
        }
    }
    let report = match &obs.trace_out {
        Some(path) => write_traces(path, &net.tb.servers, net.tb.tag_servers),
        None => ObsReport::default(),
    };
    let pool_occ = pools.iter().map(|(free, cap)| PoolOcc::of(free, *cap));
    Finished {
        pool_occ: pool_occ.collect(),
        net,
        client,
        abr,
        report,
    }
}

/// Every server's finished chunk traces as one JSONL, plus the
/// per-stage summary. Tagged lines carry their server index (chunk and
/// connection ids are per-server and would collide in one file).
/// Nothing is written when no server keeps a tracer.
fn write_traces(
    path: &std::path::Path,
    servers: &[Box<dyn VideoServer>],
    tagged: bool,
) -> ObsReport {
    let mut report = ObsReport::default();
    let mut jsonl = String::new();
    let tracers = servers.iter().enumerate();
    let tracers: Vec<_> = tracers
        .filter_map(|(i, s)| Some((i, s.tracer()?)))
        .collect();
    for &(i, tr) in &tracers {
        for t in tr.finished() {
            let json = chunk_to_json(t);
            let open = if tagged {
                format!("{{\"server\":{i},")
            } else {
                "{".into()
            };
            jsonl += &format!("{open}{}\n", &json[1..]);
        }
        report.traced_chunks += tr.finished().len();
        if !tagged {
            report.stage_summary = stage_summary(tr);
        } else if !tr.finished().is_empty() {
            report.stage_summary += &format!("server {i}:\n{}", stage_summary(tr));
        }
    }
    if !tracers.is_empty() {
        if let Err(e) = std::fs::write(path, jsonl) {
            let path = path.display();
            eprintln!("warning: failed to write trace JSONL {path}: {e}");
        }
    }
    report
}
