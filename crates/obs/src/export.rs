//! Structured export: JSON-lines chunk traces and CSV metric
//! time-series. Hand-rolled emitters — the container builds offline,
//! and nothing here needs more than numbers, booleans, and fixed
//! snake_case keys.

use crate::registry::Registry;
use crate::trace::{ChunkTrace, Stage, Tracer};
use dcn_simcore::Nanos;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Serialize one chunk trace as a single JSON object (no newline).
pub fn chunk_to_json(t: &ChunkTrace) -> String {
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"chunk\":{},\"conn\":{},\"core\":{},\"offset\":{},\"len\":{},\"kind\":\"{}\"",
        t.chunk,
        t.conn,
        t.core,
        t.offset,
        t.len,
        t.kind.name()
    );
    s.push_str(",\"stages_ns\":{");
    let mut first = true;
    for st in Stage::ALL {
        let _ = match t.stamp_of(st) {
            Some(at) => write!(
                s,
                "{}\"{}\":{}",
                if first { "" } else { "," },
                st.name(),
                at.as_nanos()
            ),
            None => write!(s, "{}\"{}\":null", if first { "" } else { "," }, st.name()),
        };
        first = false;
    }
    s.push_str("},\"latency_ns\":{");
    let mut first = true;
    for st in Stage::ALL {
        let _ = match t.stage_latency(st) {
            Some(l) => write!(
                s,
                "{}\"{}\":{}",
                if first { "" } else { "," },
                st.name(),
                l.as_nanos()
            ),
            None => write!(s, "{}\"{}\":null", if first { "" } else { "," }, st.name()),
        };
        first = false;
    }
    s.push('}');
    let flag = |b: Option<bool>| match b {
        Some(true) => "true",
        Some(false) => "false",
        None => "null",
    };
    let _ = write!(
        s,
        ",\"llc_at_encrypt\":{},\"llc_at_nic_dma\":{}",
        flag(t.llc_at_encrypt),
        flag(t.llc_at_nic_dma)
    );
    if let Some(total) = t.total_latency() {
        let _ = write!(s, ",\"total_ns\":{}", total.as_nanos());
    } else {
        s.push_str(",\"total_ns\":null");
    }
    s.push('}');
    s
}

/// Per-stage p50/p99 summary table, for run footers.
pub fn stage_summary(tracer: &Tracer) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<20} {:>8} {:>12} {:>12} {:>12}",
        "stage", "count", "p50_us", "p99_us", "max_us"
    );
    for st in Stage::ALL {
        if let Some(h) = tracer.stage_hist(st) {
            if h.count() == 0 {
                continue;
            }
            let _ = writeln!(
                s,
                "{:<20} {:>8} {:>12.1} {:>12.1} {:>12.1}",
                st.name(),
                h.count(),
                h.quantile(0.50),
                h.quantile(0.99),
                h.max()
            );
        }
    }
    s
}

/// A long-format CSV time-series of registry values, sampled at a
/// fixed virtual-time cadence by the run loop.
#[derive(Debug, Default)]
pub struct TimeSeries {
    rows: Vec<(u64, String, f64)>, // (t_ns, metric, value)
}

impl TimeSeries {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot every counter and gauge in `reg` at time `now`.
    pub fn sample(&mut self, now: Nanos, reg: &Registry) {
        for (name, v) in reg.counters() {
            self.rows.push((now.as_nanos(), name.to_string(), v as f64));
        }
        for (name, v) in reg.gauges() {
            self.rows.push((now.as_nanos(), name.to_string(), v));
        }
    }

    /// Snapshot every counter and gauge in `reg` with `prefix`
    /// prepended to each metric name (e.g. `s2.`): the cluster runner
    /// interleaves N per-server registries into one CSV this way.
    pub fn sample_labeled(&mut self, now: Nanos, reg: &Registry, prefix: &str) {
        for (name, v) in reg.counters() {
            self.rows
                .push((now.as_nanos(), format!("{prefix}{name}"), v as f64));
        }
        for (name, v) in reg.gauges() {
            self.rows
                .push((now.as_nanos(), format!("{prefix}{name}"), v));
        }
    }

    /// Append one ad-hoc row (cluster-level aggregates that live in
    /// no single server's registry).
    pub fn push_value(&mut self, now: Nanos, metric: &str, value: f64) {
        self.rows.push((now.as_nanos(), metric.to_string(), value));
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `t_ms,metric,value` rows, one line per sampled metric.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        writeln!(w, "t_ms,metric,value")?;
        for (t, name, v) in &self.rows {
            writeln!(w, "{:.3},{},{}", *t as f64 / 1e6, name, v)?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ChunkKind;

    #[test]
    fn jsonl_has_all_stage_keys() {
        let mut t = Tracer::enabled();
        t.begin(1, 2, 0, 0, 300_000, ChunkKind::Fresh);
        t.stamp(1, Stage::AckArrival, Nanos::from_micros(3));
        t.llc_at_encrypt(1, true);
        t.map_tx(9, 1);
        t.finish_tx(9, Nanos::from_micros(40));
        let line = chunk_to_json(&t.finished()[0]);
        for st in Stage::ALL {
            assert!(
                line.contains(&format!("\"{}\":", st.name())),
                "missing {}",
                st.name()
            );
        }
        assert!(line.contains("\"llc_at_encrypt\":true"));
        assert!(line.contains("\"llc_at_nic_dma\":null"));
        assert!(line.contains("\"kind\":\"fresh\""));
        assert!(line.starts_with('{') && line.ends_with('}'));
    }

    #[test]
    fn timeseries_csv_shape() {
        let mut reg = Registry::new();
        let c = reg.counter("x.count");
        reg.inc(c);
        let mut ts = TimeSeries::new();
        ts.sample(Nanos::from_millis(5), &reg);
        assert!(!ts.is_empty());
        assert_eq!(ts.rows.len(), 1);
        assert_eq!(ts.rows[0], (5_000_000, "x.count".to_string(), 1.0));
    }

    #[test]
    fn labeled_samples_carry_server_prefix() {
        let mut reg = Registry::new();
        let c = reg.counter("atlas.responses");
        reg.inc(c);
        let mut ts = TimeSeries::new();
        ts.sample_labeled(Nanos::from_millis(1), &reg, "s3.");
        ts.push_value(Nanos::from_millis(1), "cluster.responses", 1.0);
        assert_eq!(ts.rows[0].1, "s3.atlas.responses");
        assert_eq!(ts.rows[1].1, "cluster.responses");
    }
}
