//! # dcn-obs — cross-stack observability for the Disk|Crypt|Net stack
//!
//! Zero-overhead-when-disabled instrumentation, in four pieces:
//!
//! * [`Tracer`] — a chunk-lifecycle tracer that stamps every 300 KB
//!   chunk at each pipeline stage (ACK arrival → watermark trigger →
//!   NVMe submit → firmware completion → encrypt start/end → TSO
//!   packetize → NIC TX DMA → buffer recycle) in virtual time, and
//!   records whether the chunk's buffer was still LLC-resident when
//!   the CPU encrypted it and when the NIC DMA'd it out (the paper's
//!   Fig 12/14 "sub-optimal memory access pattern" classification,
//!   per chunk instead of inferred from aggregate counters).
//! * [`StageProfiler`] — aggregate per-stage cycle and DRAM-traffic
//!   attribution: the sweep loops declare a current stage per core,
//!   and the CPU/memory models report every cycle charge and DRAM
//!   byte into it, yielding chunks/sec/core, cycles/chunk quantiles,
//!   DRAM-bytes-per-net-byte, and stall attribution for the
//!   `perf_baseline` regression gate.
//! * [`Registry`] — named counters / gauges / histograms behind cheap
//!   integer handles. Registration stores each base name once and
//!   keys per-core series by (base, core); the hot path is a `Vec`
//!   index increment. All stack components publish into one
//!   registry per server so experiments query a single surface.
//! * [`export`] — hand-rolled JSON-lines and CSV emitters (the
//!   container builds offline; no serde), wired into the workload
//!   runner and `fig*` binaries behind `--trace-out`/`--metrics-out`.
//!
//! Everything here is *observational*: with tracing enabled or
//! disabled, the simulation makes bit-identical decisions (LLC
//! residency queries use the non-mutating [`probe`] path), so a seed
//! produces the same figures either way.
//!
//! [`probe`]: https://en.wikipedia.org/wiki/Cache_placement_policies

pub mod export;
pub mod profile;
pub mod qoe;
pub mod registry;
pub mod steady;
pub mod trace;

pub use profile::{
    Prof, ProfHandle, ProfReport, ProfStage, StageProfiler, StallKind, PROF_STAGE_COUNT,
    STALL_KIND_COUNT,
};
pub use qoe::{PlayoutSim, QoeStats, QoeSummary};
pub use registry::{CounterId, GaugeId, HistId, Registry};
pub use trace::{ChunkKind, ChunkTrace, Stage, Tracer, STAGE_COUNT};
