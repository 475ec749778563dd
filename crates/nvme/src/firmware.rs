//! SSD firmware service model.
//!
//! Commands are split into NAND-page-sized **stripes**; a pool of
//! parallel flash channels services stripes with round-robin
//! interleaving across in-flight commands (stripe *j* of a command
//! belongs to wave *j / channels*, and channels serve lower waves
//! first — the fair scheduling real controllers implement so a small
//! read is not starved behind a large one). Each stripe takes
//! `stripe_overhead + bytes/channel_bw` with log-normal jitter, plus a
//! fixed per-command controller latency. A command completes when its
//! last stripe finishes — possibly out of submission order, which is
//! why NVMe matches completions by CID.
//!
//! One parameter set gives all three storage behaviours the paper
//! measures:
//!
//! * QD1 latency ≈ `cmd_overhead + stripe time` (~90 µs for 16 KiB,
//!   matching Fig 6's low-window latencies);
//! * saturation throughput ≈ `channels × stripe/stripe_time`
//!   (~25 Gb/s per drive, Fig 6's plateau);
//! * latency ∝ queue depth past saturation (Little's law — Fig 6's
//!   linear latency growth);
//! * intra-command parallelism, so one large read is striped across
//!   channels (why serial `pread` throughput grows with I/O size in
//!   Fig 8).

use crate::queue::{NvmeCommand, Opcode};
use dcn_simcore::{Nanos, SimRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Firmware/flash timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct FirmwareParams {
    /// Parallel NAND channels (dies × planes the controller keeps in
    /// flight).
    pub channels: usize,
    /// Stripe size: data serviced per channel grant. Reads below this
    /// still occupy a full stripe slot (NAND page granularity).
    pub stripe_bytes: u64,
    /// Per-stripe channel occupancy overhead.
    pub stripe_overhead: Nanos,
    /// Channel streaming bandwidth in bytes/ns (e.g. 0.4 = 400 MB/s).
    pub channel_bytes_per_ns: f64,
    /// Fixed controller latency added to every command (fetch, LBA
    /// translation, completion posting).
    pub cmd_overhead: Nanos,
    /// Log-normal sigma applied to each stripe's service time.
    pub jitter_sigma: f64,
    /// Write-path bandwidth derating (P3700: ~1.9 GB/s writes vs
    /// ~2.8 GB/s reads → ≈ 0.65).
    pub write_derate: f64,
}

impl Default for FirmwareParams {
    fn default() -> Self {
        Self::p3700()
    }
}

impl FirmwareParams {
    /// Calibrated to the Intel P3700 800 GB used in the paper: ~25
    /// Gb/s sequential read, ~90–110 µs 16 KiB QD1 latency, ~450–800 K
    /// small-read IOPS. See EXPERIMENTS.md §Fig 6 for the validation.
    #[must_use]
    pub fn p3700() -> Self {
        FirmwareParams {
            channels: 25,
            stripe_bytes: 4096,
            stripe_overhead: Nanos::from_micros(20),
            channel_bytes_per_ns: 0.40,
            cmd_overhead: Nanos::from_micros(55),
            jitter_sigma: 0.18,
            write_derate: 0.65,
        }
    }

    /// Mean stripe service time for `bytes` of payload.
    #[must_use]
    pub fn stripe_time(&self, bytes: u64, opcode: Opcode) -> Nanos {
        let bw = match opcode {
            Opcode::Write => self.channel_bytes_per_ns * self.write_derate,
            _ => self.channel_bytes_per_ns,
        };
        // NAND page granularity: short reads still move a full page
        // off the die.
        let effective = bytes.max(self.stripe_bytes);
        self.stripe_overhead + Nanos::from_nanos((effective as f64 / bw) as u64)
    }
}

/// One command in flight.
struct InFlightCmd {
    qid: u16,
    cid: u16,
    sq_head_at_fetch: u16,
}

/// The firmware execution engine.
///
/// Stripes are committed to channels **eagerly at submission time**:
/// stripe *j* of a command goes to channel `(seq + j) % channels` and
/// starts when that channel frees up. This keeps the simulation's
/// event count at one per command (the completion) instead of one per
/// stripe — essential at tens of Gb/s — at the cost of one fairness
/// nuance: a command cannot preempt stripes of earlier commands that
/// have not physically started yet. Commands of similar size (the
/// streaming workload is nearly uniform 16 KiB/128 KiB reads) are
/// still interleaved fairly by the rotating base channel.
pub struct Firmware {
    params: FirmwareParams,
    /// `free_at` per channel.
    channels: Vec<Nanos>,
    cmds: HashMap<u64, InFlightCmd>,
    next_seq: u64,
    completions: BinaryHeap<Reverse<(Nanos, u64)>>, // (finish, cmd seq)
    rng: SimRng,
}

impl Firmware {
    #[must_use]
    pub fn new(params: FirmwareParams, seed: u64) -> Self {
        Firmware {
            channels: vec![Nanos::ZERO; params.channels],
            params,
            cmds: HashMap::new(),
            next_seq: 0,
            completions: BinaryHeap::new(),
            rng: SimRng::new(seed),
        }
    }

    #[must_use]
    pub fn params(&self) -> &FirmwareParams {
        &self.params
    }

    /// Accept a command at `now`: schedule its stripes and record the
    /// completion time.
    pub fn submit(&mut self, now: Nanos, qid: u16, sq_head: u16, cmd: &NvmeCommand) {
        self.submit_scaled(now, qid, sq_head, cmd, 1.0);
    }

    /// [`Firmware::submit`] with every stripe's service time stretched
    /// by `mult` — how the fault layer models internal firmware pauses
    /// (GC, thermal throttling) on individual commands. `mult = 1.0`
    /// is byte-identical to `submit`, including the jitter rng draws.
    pub fn submit_scaled(
        &mut self,
        now: Nanos,
        qid: u16,
        sq_head: u16,
        cmd: &NvmeCommand,
        mult: f64,
    ) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let len = cmd.data_len().max(1);
        let nstripes = len.div_ceil(self.params.stripe_bytes).max(1) as u32;
        let arrival = now + self.params.cmd_overhead;
        let nch = self.channels.len() as u32;
        let base_ch = (seq as u32) % nch;
        let mut remaining = len;
        let mut last_finish = arrival;
        for j in 0..nstripes {
            let bytes = remaining.min(self.params.stripe_bytes);
            remaining -= bytes;
            let mean = self.params.stripe_time(bytes, cmd.opcode);
            let mut service = if self.params.jitter_sigma > 0.0 {
                mean.mul_f64(self.rng.log_normal(1.0, self.params.jitter_sigma))
            } else {
                mean
            };
            if mult != 1.0 {
                service = service.mul_f64(mult);
            }
            let ch = ((base_ch + j) % nch) as usize;
            let start = self.channels[ch].max(arrival);
            let end = start + service;
            self.channels[ch] = end;
            last_finish = last_finish.max(end);
        }
        self.cmds.insert(
            seq,
            InFlightCmd {
                qid,
                cid: cmd.cid,
                sq_head_at_fetch: sq_head,
            },
        );
        self.completions.push(Reverse((last_finish, seq)));
    }

    /// Next command-completion instant.
    #[must_use]
    pub fn poll_at(&self) -> Option<Nanos> {
        self.completions.peek().map(|Reverse((t, _))| *t)
    }

    /// Commands finished by `now`, in completion-time order (possibly
    /// out of submission order — real NVMe semantics). Each item is
    /// `(qid, cid, sq_head_at_fetch)`.
    pub fn drain_finished(&mut self, now: Nanos) -> Vec<(u16, u16, u16)> {
        let mut out = Vec::new();
        while let Some(Reverse((t, seq))) = self.completions.peek().copied() {
            if t > now {
                break;
            }
            self.completions.pop();
            let cmd = self.cmds.remove(&seq).expect("completion without command");
            out.push((cmd.qid, cmd.cid, cmd.sq_head_at_fetch));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_mem::{PhysAddr, PhysRegion};

    fn read_cmd(cid: u16, bytes: u64) -> NvmeCommand {
        NvmeCommand {
            opcode: Opcode::Read,
            cid,
            nsid: 1,
            slba: 0,
            nlb: (bytes / 512) as u32,
            prp: vec![PhysRegion::new(PhysAddr(4096), bytes)],
        }
    }

    #[test]
    fn qd1_16k_latency_matches_p3700() {
        // Paper Fig 6: ~0.1 ms request latency at small windows.
        let mut fw = Firmware::new(
            FirmwareParams {
                jitter_sigma: 0.0,
                ..FirmwareParams::p3700()
            },
            1,
        );
        fw.submit(Nanos::ZERO, 1, 0, &read_cmd(1, 16384));
        let (done, t) = loop {
            let t = fw.poll_at().unwrap();
            let d = fw.drain_finished(t);
            if !d.is_empty() {
                break (d, t);
            }
        };
        assert_eq!(done.len(), 1);
        let us = t.as_micros_f64();
        assert!((60.0..160.0).contains(&us), "16KiB QD1 latency {us}us");
    }

    fn completion_time(fw: &mut Firmware, horizon: Nanos) -> Vec<(Nanos, u16)> {
        let mut out = Vec::new();
        while let Some(t) = fw.poll_at() {
            if t > horizon {
                break;
            }
            for (_, cid, _) in fw.drain_finished(t) {
                out.push((t, cid));
            }
        }
        out
    }

    #[test]
    fn large_command_is_striped_not_serial() {
        // A 128 KiB read must complete far faster than 32 serial
        // stripes would take.
        let p = FirmwareParams {
            jitter_sigma: 0.0,
            ..FirmwareParams::p3700()
        };
        let serial = p.stripe_time(4096, Opcode::Read).as_nanos() * 32;
        let mut fw = Firmware::new(p, 1);
        fw.submit(Nanos::ZERO, 1, 0, &read_cmd(1, 131072));
        let done = completion_time(&mut fw, Nanos::from_secs(1));
        let t = done[0].0.as_nanos();
        assert!(t < serial / 4, "striped {t}ns vs serial {serial}ns");
    }

    #[test]
    fn out_of_order_completion() {
        // A 1 MiB read followed by several 4 KiB reads: the big
        // command finishes when its *slowest* stripe does, so with
        // realistic per-stripe jitter some small reads complete first
        // even though they were submitted later. NVMe explicitly
        // permits this; the host matches completions by CID.
        let mut fw = Firmware::new(FirmwareParams::p3700(), 5);
        fw.submit(Nanos::ZERO, 1, 0, &read_cmd(1, 1 << 20)); // 1 MiB
        for cid in 2..=10 {
            fw.submit(Nanos::ZERO, 1, 0, &read_cmd(cid, 4096));
        }
        let done = completion_time(&mut fw, Nanos::from_secs(1));
        assert_eq!(done.len(), 10);
        let big_pos = done.iter().position(|d| d.1 == 1).unwrap();
        assert!(big_pos > 0, "a later small read completed first: {done:?}");
    }

    #[test]
    fn drain_respects_now() {
        let mut fw = Firmware::new(FirmwareParams::p3700(), 1);
        fw.submit(Nanos::ZERO, 1, 0, &read_cmd(1, 16384));
        assert!(fw.drain_finished(Nanos::from_micros(1)).is_empty());
        assert_eq!(fw.cmds.len(), 1);
        assert_eq!(fw.drain_finished(Nanos::from_millis(10)).len(), 1);
        assert_eq!(fw.cmds.len(), 0);
    }

    #[test]
    fn writes_slower_than_reads() {
        let p = FirmwareParams::p3700();
        let r = p.stripe_time(4096, Opcode::Read);
        let w = p.stripe_time(4096, Opcode::Write);
        assert!(w > r);
    }

    #[test]
    fn throughput_rises_with_window_and_saturates() {
        // Mini Fig 6: measure completed bytes/time for windows 1..256.
        let mut last_gbps = 0.0;
        let mut results = Vec::new();
        for window in [1usize, 4, 16, 64, 256] {
            let mut fw = Firmware::new(FirmwareParams::p3700(), 42);
            let mut now = Nanos::ZERO;
            let mut next_cid = 0u16;
            let mut inflight = 0usize;
            let mut done_bytes = 0u64;
            let horizon = Nanos::from_millis(50);
            while now < horizon {
                while inflight < window {
                    fw.submit(now, 1, 0, &read_cmd(next_cid, 16384));
                    next_cid = next_cid.wrapping_add(1);
                    inflight += 1;
                }
                let Some(t) = fw.poll_at() else { break };
                now = t;
                let fin = fw.drain_finished(now);
                inflight -= fin.len();
                done_bytes += fin.len() as u64 * 16384;
            }
            let gbps = done_bytes as f64 * 8.0 / horizon.as_secs_f64() / 1e9;
            results.push((window, gbps));
            assert!(
                gbps >= last_gbps * 0.95,
                "throughput should not collapse: {results:?}"
            );
            last_gbps = gbps;
        }
        let max = results.last().unwrap().1;
        assert!(
            (18.0..30.0).contains(&max),
            "saturation {max} Gb/s: {results:?}"
        );
        assert!(
            results[0].1 < max * 0.2,
            "QD1 far below saturation: {results:?}"
        );
    }
}
