//! A unified metrics registry: named counters, gauges, and
//! histograms behind cheap integer handles.
//!
//! Naming scheme: `<subsystem>.<signal>`, with labels appended in
//! fixed order inside braces — e.g. `atlas.retransmit_fetches{core=2}`
//! or `tcp.rto_fired{core=0}`. Labels are baked into the metric name
//! at registration time (setup path, allocation fine); the hot path
//! is `inc`/`add`/`set`/`observe` on a `Vec` index — no hashing, no
//! allocation, no branching beyond bounds checks.

use dcn_simcore::Histogram;

/// Handle to a monotonically increasing counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle to a last-value-wins gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(u32);

/// Handle to a latency/value histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(u32);

/// Format a metric name with labels: `name{k1=v1,k2=v2}`.
pub fn labeled(name: &str, labels: &[(&str, u64)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut s = String::with_capacity(name.len() + 16 * labels.len());
    s.push_str(name);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push('=');
        s.push_str(&v.to_string());
    }
    s.push('}');
    s
}

#[derive(Debug, Default)]
pub struct Registry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<f64>,
    hist_names: Vec<String>,
    hists: Vec<Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------- registration

    /// Register (or re-find) a counter by exact name. Idempotent so
    /// components can register independently without coordination.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(i as u32);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId((self.counters.len() - 1) as u32)
    }

    /// Register a per-core counter: `name{core=N}`.
    pub fn counter_core(&mut self, name: &str, core: usize) -> CounterId {
        self.counter(&labeled(name, &[("core", core as u64)]))
    }

    /// One `name{core=N}` counter per core, indexed by core.
    pub fn counters_per_core(&mut self, name: &str, cores: usize) -> Vec<CounterId> {
        (0..cores).map(|c| self.counter_core(name, c)).collect()
    }

    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(i as u32);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(0.0);
        GaugeId((self.gauges.len() - 1) as u32)
    }

    pub fn gauge_core(&mut self, name: &str, core: usize) -> GaugeId {
        self.gauge(&labeled(name, &[("core", core as u64)]))
    }

    /// One `name{core=N}` gauge per core, indexed by core.
    pub fn gauges_per_core(&mut self, name: &str, cores: usize) -> Vec<GaugeId> {
        (0..cores).map(|c| self.gauge_core(name, c)).collect()
    }

    pub fn histogram(&mut self, name: &str, lo: f64, hi: f64, buckets: usize) -> HistId {
        if let Some(i) = self.hist_names.iter().position(|n| n == name) {
            return HistId(i as u32);
        }
        self.hist_names.push(name.to_string());
        self.hists.push(Histogram::new(lo, hi, buckets));
        HistId((self.hists.len() - 1) as u32)
    }

    // ----------------------------------------------------- hot path

    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0 as usize] += n;
    }

    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0 as usize] = v;
    }

    #[inline]
    pub fn observe(&mut self, id: HistId, v: f64) {
        self.hists[id.0 as usize].add(v);
    }

    // -------------------------------------------------------- reads

    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Sum of a family of counters read through their handles (one
    /// per core, say).
    pub fn counter_sum(&self, ids: &[CounterId]) -> u64 {
        ids.iter().map(|&id| self.counter_value(id)).sum()
    }

    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0 as usize]
    }

    pub fn hist_ref(&self, id: HistId) -> &Histogram {
        &self.hists[id.0 as usize]
    }

    /// Look a counter up by exact name (views / tests / exporters).
    pub fn find_counter(&self, name: &str) -> Option<u64> {
        self.counter_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.counters[i])
    }

    /// Sum of every counter whose name starts with `prefix` — the way
    /// views aggregate a per-core family (`tcp.rto_fired{core=*}`).
    pub fn sum_prefixed(&self, prefix: &str) -> u64 {
        self.counter_names
            .iter()
            .zip(&self.counters)
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Look a gauge up by exact name (views / tests / exporters).
    pub fn find_gauge(&self, name: &str) -> Option<f64> {
        self.gauge_names
            .iter()
            .position(|n| n == name)
            .map(|i| self.gauges[i])
    }

    /// Sum of every gauge whose name starts with `prefix` —
    /// aggregates a per-core gauge family the way [`Self::sum_prefixed`]
    /// does for counters.
    pub fn sum_prefixed_gauge(&self, prefix: &str) -> f64 {
        self.gauge_names
            .iter()
            .zip(&self.gauges)
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .map(|s| s.as_str())
            .zip(self.counters.iter().copied())
    }

    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_names
            .iter()
            .map(|s| s.as_str())
            .zip(self.gauges.iter().copied())
    }

    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hist_names
            .iter()
            .map(|s| s.as_str())
            .zip(self.hists.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut r = Registry::new();
        let a = r.counter("atlas.responses");
        let b = r.counter("atlas.responses");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 2);
        assert_eq!(r.counter_value(a), 3);
        assert_eq!(r.find_counter("atlas.responses"), Some(3));
        assert_eq!(r.find_counter("nope"), None);
    }

    #[test]
    fn per_core_labels_and_prefix_sum() {
        let mut r = Registry::new();
        let c0 = r.counter_core("tcp.rto_fired", 0);
        let c1 = r.counter_core("tcp.rto_fired", 1);
        assert_ne!(c0, c1);
        r.add(c0, 5);
        r.add(c1, 7);
        assert_eq!(r.find_counter("tcp.rto_fired{core=1}"), Some(7));
        assert_eq!(r.sum_prefixed("tcp.rto_fired"), 12);
    }

    #[test]
    fn gauges_and_histograms() {
        let mut r = Registry::new();
        let g = r.gauge_core("atlas.pool_free", 3);
        r.set(g, 128.0);
        assert_eq!(r.gauge_value(g), 128.0);
        let h = r.histogram("stage.encrypt_us", 0.0, 1000.0, 100);
        r.observe(h, 10.0);
        r.observe(h, 20.0);
        assert_eq!(r.hist_ref(h).count(), 2);
        assert_eq!(r.histograms().count(), 1);
    }

    #[test]
    fn labeled_formatting() {
        assert_eq!(labeled("a.b", &[]), "a.b");
        assert_eq!(
            labeled("a.b", &[("core", 2), ("conn", 9)]),
            "a.b{core=2,conn=9}"
        );
    }
}
