//! `perf_baseline` support: the cells of the perf matrix and their
//! headline metrics, written into `BENCH_perf_baseline.json` by the
//! one ledger writer ([`crate::ledger`]).

use crate::ledger::{fmt_f64, LedgerCell};
use dcn_obs::{ProfReport, ProfStage, StallKind};
use dcn_workload::RunMetrics;
use std::fmt::Write as _;

/// Schema version stamped into the JSON; bump on any key change.
pub const PERF_SCHEMA_VERSION: u64 = 1;

/// One cell of the perf matrix with its derived headline metrics.
#[derive(Debug, Clone)]
pub struct PerfCell {
    pub name: String,
    pub net_gbps: f64,
    pub chunks: u64,
    pub chunks_per_sec_per_core: f64,
    pub dram_bytes_per_net_byte: f64,
    pub cpu_busy_frac: f64,
    pub llc_resident_dma_frac: f64,
    pub llc_resident_encrypt_frac: f64,
    pub stalls: [u64; dcn_obs::STALL_KIND_COUNT],
    pub report: ProfReport,
}

impl PerfCell {
    /// Derive the headline numbers from a profiled run.
    ///
    /// `duration_secs` is the full simulated time (chunk counts cover
    /// the whole run, warm-up included); `ghz` and `cores` come from
    /// the server config.
    #[must_use]
    pub fn derive(name: &str, m: &RunMetrics, cores: usize, ghz: f64, duration_secs: f64) -> Self {
        let report = m.perf.clone().unwrap_or_default();
        let chunks = report.total_chunks();
        let dram_gbps = m.mem_read_gbps + m.mem_write_gbps;
        PerfCell {
            name: name.to_string(),
            net_gbps: m.net_gbps,
            chunks,
            chunks_per_sec_per_core: chunks as f64 / duration_secs / cores as f64,
            dram_bytes_per_net_byte: if m.net_gbps > 0.0 {
                (dram_gbps / m.net_gbps).max(0.0)
            } else {
                0.0
            },
            cpu_busy_frac: report.total_cycles() as f64
                / (cores as f64 * duration_secs * ghz * 1e9),
            llc_resident_dma_frac: report.llc_resident_dma_frac(),
            llc_resident_encrypt_frac: report.llc_resident_encrypt_frac(),
            stalls: report.stalls,
            report,
        }
    }
}

impl LedgerCell for PerfCell {
    fn to_json(&self, out: &mut String, indent: &str) {
        let i2 = format!("{indent}  ");
        let i3 = format!("{indent}    ");
        let _ = writeln!(out, "{indent}{{");
        let _ = writeln!(out, "{i2}\"name\": \"{}\",", self.name);
        let _ = writeln!(out, "{i2}\"net_gbps\": {},", fmt_f64(self.net_gbps));
        let _ = writeln!(out, "{i2}\"chunks\": {},", self.chunks);
        let _ = writeln!(
            out,
            "{i2}\"chunks_per_sec_per_core\": {},",
            fmt_f64(self.chunks_per_sec_per_core)
        );
        let _ = writeln!(
            out,
            "{i2}\"dram_bytes_per_net_byte\": {},",
            fmt_f64(self.dram_bytes_per_net_byte)
        );
        let _ = writeln!(
            out,
            "{i2}\"cpu_busy_frac\": {},",
            fmt_f64(self.cpu_busy_frac)
        );
        let _ = writeln!(
            out,
            "{i2}\"llc_resident_dma_frac\": {},",
            fmt_f64(self.llc_resident_dma_frac)
        );
        let _ = writeln!(
            out,
            "{i2}\"llc_resident_encrypt_frac\": {},",
            fmt_f64(self.llc_resident_encrypt_frac)
        );
        let _ = writeln!(out, "{i2}\"stalls\": {{");
        for (j, k) in StallKind::ALL.iter().enumerate() {
            let comma = if j + 1 < StallKind::ALL.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "{i3}\"{}\": {}{comma}", k.name(), self.stalls[j]);
        }
        let _ = writeln!(out, "{i2}}},");
        let _ = writeln!(out, "{i2}\"stages\": [");
        let r = &self.report;
        for (j, st) in ProfStage::ALL.iter().enumerate() {
            let k = *st as usize;
            let comma = if j + 1 < ProfStage::ALL.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{i3}{{\"stage\": \"{}\", \"cycles\": {}, \"dram_rd_bytes\": {}, \"dram_wr_bytes\": {}, \"chunk_samples\": {}, \"chunk_cycles_p50\": {}, \"chunk_cycles_p99\": {}}}{comma}",
                st.name(),
                r.stage_cycles[k],
                r.stage_dram_rd[k],
                r.stage_dram_wr[k],
                r.chunk_samples[k],
                r.chunk_cycles_p50[k],
                r.chunk_cycles_p99[k],
            );
        }
        let _ = writeln!(out, "{i2}]");
        let _ = write!(out, "{indent}}}");
    }
}
