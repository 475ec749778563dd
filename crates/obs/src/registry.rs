//! A unified metrics registry: named counters, gauges, and
//! histograms behind cheap integer handles.
//!
//! Naming scheme: `<subsystem>.<signal>`, with labels appended in
//! fixed order inside braces — e.g. `atlas.retransmit_fetches{core=2}`
//! or `tcp.rto_fired{core=0}`. Each stack runs one instance per core,
//! so most signals are per-core families. The registry stores each
//! distinct base name once and keys every series by (base, core label
//! or none); a family costs one base lookup, and a base seen for the
//! first time pushes its series without a scan. A name passed as a
//! string is split into that key only when it ends in exactly
//! `{core=<canonical decimal>}`, so `counter("x{core=2}")`,
//! `counter_core("x", 2)` and `counters_per_core("x", 4)[2]` are one
//! series; any other label (`{ring=N}`, several labels, `{core=01}`)
//! stays part of a literal base. The `name{core=N}` text is rendered
//! only when an exporter or a by-name reader asks for it. The hot
//! path is `inc`/`add`/`set`/`observe` on a `Vec` index — no hashing,
//! no allocation, no branching beyond bounds checks.

use dcn_simcore::Histogram;
use std::fmt;

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

/// The core label of a series registered without one.
const NO_CORE: u32 = u32::MAX;

/// Split `name` into its (base, core label) key: only a trailing
/// `{core=N}` with `N` in canonical decimal is a core label.
fn split(name: &str) -> (&str, u32) {
    name.strip_suffix('}')
        .and_then(|s| s.rsplit_once("{core="))
        .and_then(|(base, n)| {
            let canonical =
                n.bytes().all(|b| b.is_ascii_digit()) && (n == "0" || !n.starts_with('0'));
            let core = n.parse().ok().filter(|&c| canonical && c != NO_CORE)?;
            Some((base, core))
        })
        .unwrap_or((name, NO_CORE))
}

/// A series name as exporters print it: the base, then `{core=N}` for
/// a per-core series. Formatting it is the only place that text exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesName<'a> {
    base: &'a str,
    core: u32,
}

impl SeriesName<'_> {
    /// Whether the rendered name starts with `prefix`; renders only
    /// when `prefix` runs past the base into a core label.
    fn starts_with(&self, prefix: &str) -> bool {
        match prefix.strip_prefix(self.base) {
            None => self.base.starts_with(prefix),
            Some(rest) => {
                rest.is_empty() || (self.core != NO_CORE && self.to_string().starts_with(prefix))
            }
        }
    }
}

impl fmt::Display for SeriesName<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.base)?;
        if self.core != NO_CORE {
            write!(f, "{{core={}}}", self.core)?;
        }
        Ok(())
    }
}

/// One kind of series: each distinct base once, and per series (in
/// registration order, which is export order) its key and value.
#[derive(Debug)]
struct Series<T> {
    bases: Vec<String>,
    /// (index into `bases`, core label or [`NO_CORE`]).
    keys: Vec<(u32, u32)>,
    values: Vec<T>,
}

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series {
            bases: Vec::new(),
            keys: Vec::new(),
            values: Vec::new(),
        }
    }
}

impl<T> Series<T> {
    fn base(&self, base: &str) -> Option<u32> {
        self.bases.iter().position(|b| b == base).map(|b| b as u32)
    }

    fn push(&mut self, key: (u32, u32), v: T) -> u32 {
        self.keys.push(key);
        self.values.push(v);
        (self.values.len() - 1) as u32
    }

    /// The index of `base`, and whether this call added it.
    fn intern(&mut self, base: &str) -> (u32, bool) {
        match self.base(base) {
            Some(b) => (b, false),
            None => {
                self.bases.push(base.to_string());
                ((self.bases.len() - 1) as u32, true)
            }
        }
    }

    /// Series `(b, core)`, registered with `init` if missing. A base
    /// that `intern` just added has no series yet: no scan.
    fn get_or_push(&mut self, (b, fresh): (u32, bool), core: u32, init: impl FnOnce() -> T) -> u32 {
        let found = if fresh {
            None
        } else {
            self.keys.iter().position(|&k| k == (b, core))
        };
        found.map_or_else(|| self.push((b, core), init()), |i| i as u32)
    }

    fn by_name(&mut self, name: &str, init: impl FnOnce() -> T) -> u32 {
        let (base, core) = split(name);
        let b = self.intern(base);
        self.get_or_push(b, core, init)
    }

    fn core(&mut self, base: &str, core: usize, init: impl FnOnce() -> T) -> u32 {
        match u32::try_from(core).ok().filter(|&c| c != NO_CORE) {
            Some(c) => {
                let b = self.intern(base);
                self.get_or_push(b, c, init)
            }
            None => self.by_name(&labeled(base, &[("core", core as u64)]), init),
        }
    }

    /// One series of `base` per core label `0..cores`, in that order.
    fn per_core<I>(
        &mut self,
        base: &str,
        cores: usize,
        init: impl Fn() -> T,
        id: impl Fn(u32) -> I,
    ) -> Vec<I> {
        let cores = u32::try_from(cores).expect("core labels fit in u32");
        let b = self.intern(base);
        (0..cores)
            .map(|c| id(self.get_or_push(b, c, &init)))
            .collect()
    }

    fn iter(&self) -> impl Iterator<Item = (SeriesName<'_>, &T)> {
        self.keys.iter().zip(&self.values).map(|(&(b, core), v)| {
            let base = self.bases[b as usize].as_str();
            (SeriesName { base, core }, v)
        })
    }

    fn find(&self, name: &str) -> Option<&T> {
        let (base, core) = split(name);
        let b = self.base(base)?;
        let i = self.keys.iter().position(|&k| k == (b, core))?;
        Some(&self.values[i])
    }

    fn prefixed<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = &'a T> {
        self.iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(_, v)| v)
    }
}

#[derive(Debug, Default)]
pub struct Registry {
    counters: Series<u64>,
    gauges: Series<f64>,
    hists: Series<Histogram>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    // ------------------------------------------------- registration

    /// Register (or re-find) a counter by exact name. Idempotent so
    /// components can register independently without coordination.
    pub fn counter(&mut self, name: &str) -> CounterId {
        CounterId(self.counters.by_name(name, || 0))
    }

    /// Register a per-core counter: `name{core=N}`.
    pub fn counter_core(&mut self, name: &str, core: usize) -> CounterId {
        CounterId(self.counters.core(name, core, || 0))
    }

    /// One `name{core=N}` counter per core, indexed by core.
    pub fn counters_per_core(&mut self, name: &str, cores: usize) -> Vec<CounterId> {
        self.counters.per_core(name, cores, || 0, CounterId)
    }

    pub fn gauge(&mut self, name: &str) -> GaugeId {
        GaugeId(self.gauges.by_name(name, || 0.0))
    }

    pub fn gauge_core(&mut self, name: &str, core: usize) -> GaugeId {
        GaugeId(self.gauges.core(name, core, || 0.0))
    }

    /// One `name{core=N}` gauge per core, indexed by core.
    pub fn gauges_per_core(&mut self, name: &str, cores: usize) -> Vec<GaugeId> {
        self.gauges.per_core(name, cores, || 0.0, GaugeId)
    }

    pub fn histogram(&mut self, name: &str, lo: f64, hi: f64, buckets: usize) -> HistId {
        HistId(self.hists.by_name(name, || Histogram::new(lo, hi, buckets)))
    }

    // ----------------------------------------------------- hot path

    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters.values[id.0 as usize] += 1;
    }

    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters.values[id.0 as usize] += n;
    }

    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges.values[id.0 as usize] = v;
    }

    #[inline]
    pub fn observe(&mut self, id: HistId, v: f64) {
        self.hists.values[id.0 as usize].add(v);
    }

    // -------------------------------------------------------- reads

    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters.values[id.0 as usize]
    }

    /// Sum of a family of counters read through their handles (one
    /// per core, say).
    pub fn counter_sum(&self, ids: &[CounterId]) -> u64 {
        ids.iter().map(|&id| self.counter_value(id)).sum()
    }

    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges.values[id.0 as usize]
    }

    pub fn hist_ref(&self, id: HistId) -> &Histogram {
        &self.hists.values[id.0 as usize]
    }

    /// Look a counter up by exact name (views / tests / exporters).
    pub fn find_counter(&self, name: &str) -> Option<u64> {
        self.counters.find(name).copied()
    }

    /// Sum of every counter whose name starts with `prefix` — the way
    /// views aggregate a per-core family (`tcp.rto_fired{core=*}`).
    pub fn sum_prefixed(&self, prefix: &str) -> u64 {
        self.counters.prefixed(prefix).sum()
    }

    /// Look a gauge up by exact name (views / tests / exporters).
    pub fn find_gauge(&self, name: &str) -> Option<f64> {
        self.gauges.find(name).copied()
    }

    /// Sum of every gauge whose name starts with `prefix` —
    /// aggregates a per-core gauge family the way [`Self::sum_prefixed`]
    /// does for counters.
    pub fn sum_prefixed_gauge(&self, prefix: &str) -> f64 {
        self.gauges.prefixed(prefix).sum()
    }

    pub fn counters(&self) -> impl Iterator<Item = (SeriesName<'_>, u64)> {
        self.counters.iter().map(|(n, &v)| (n, v))
    }

    pub fn gauges(&self) -> impl Iterator<Item = (SeriesName<'_>, f64)> {
        self.gauges.iter().map(|(n, &v)| (n, v))
    }

    pub fn histograms(&self) -> impl Iterator<Item = (SeriesName<'_>, &Histogram)> {
        self.hists.iter()
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

    #[test]
    fn per_core_forms_are_one_series() {
        let mut r = Registry::new();
        let by_name = r.counter("x{core=2}");
        assert_eq!(r.counter_core("x", 2), by_name);
        assert_eq!(r.counters_per_core("x", 4)[2], by_name);
        let g = r.gauges_per_core("y", 3);
        assert_eq!(r.gauge("y{core=1}"), g[1]);
        assert_eq!(r.gauge_core("y", 0), g[0]);
        let h = r.histogram("z{core=5}", 0.0, 1.0, 4);
        assert_eq!(r.histogram("z{core=5}", 0.0, 9.0, 2), h);
        // Any other label, or a non-canonical core, is a literal base.
        for literal in [
            "x{core=01}",
            "x{ring=2}",
            "x{core=2,ring=1}",
            "x{core=}",
            "x{core=+2}",
        ] {
            assert_ne!(r.counter(literal), by_name, "{literal}");
        }
        r.add(by_name, 3);
        assert_eq!(r.find_counter("x{core=2}"), Some(3));
        assert_eq!(r.find_counter("x{core=01}"), Some(0));
        let names: Vec<String> = r.counters().map(|(n, _)| n.to_string()).collect();
        assert_eq!(
            names,
            [
                "x{core=2}",
                "x{core=0}",
                "x{core=1}",
                "x{core=3}",
                "x{core=01}",
                "x{ring=2}",
                "x{core=2,ring=1}",
                "x{core=}",
                "x{core=+2}",
            ]
        );
    }

    /// The string-scan registry the keyed one replaced: each series
    /// under its own formatted name, found by a linear scan. The
    /// differential test holds the keyed registry to its answers.
    #[derive(Default)]
    struct ScanRegistry {
        counters: Vec<(String, u64)>,
        gauges: Vec<(String, f64)>,
        hists: Vec<(String, Histogram)>,
    }

    fn scan_get<T>(series: &mut Vec<(String, T)>, name: &str, init: impl FnOnce() -> T) -> u32 {
        if let Some(i) = series.iter().position(|(n, _)| n == name) {
            return i as u32;
        }
        series.push((name.to_string(), init()));
        (series.len() - 1) as u32
    }

    fn scan_find<T: Copy>(series: &[(String, T)], name: &str) -> Option<T> {
        series.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    fn scan_sum<T: Copy + std::iter::Sum<T>>(series: &[(String, T)], prefix: &str) -> T {
        series
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|&(_, v)| v)
            .sum()
    }

    fn core_name(base: &str, core: usize) -> String {
        labeled(base, &[("core", core as u64)])
    }

    fn rendered<'a, T: fmt::Debug + 'a>(
        it: impl Iterator<Item = (SeriesName<'a>, T)>,
    ) -> Vec<String> {
        it.map(|(n, v)| format!("{n} {v:?}")).collect()
    }

    fn scan_rendered<T: fmt::Debug>(series: &[(String, T)]) -> Vec<String> {
        series.iter().map(|(n, v)| format!("{n} {v:?}")).collect()
    }

    #[test]
    fn keyed_registry_matches_string_scan_reference() {
        const BASES: [&str; 9] = [
            "atlas.responses",
            "atlas.responses_x",
            "atlas",
            "tcp.rto_fired",
            "x{ring=1}",
            "x",
            "x{core=",
            "",
            "a{core=1}",
        ];
        const LABELS: [&str; 15] = [
            "",
            "{core=0}",
            "{core=3}",
            "{core=12}",
            "{core=01}",
            "{core=00}",
            "{core=}",
            "{core=+1}",
            "{ring=2}",
            "{core=1,ring=2}",
            "{ring=2,core=1}",
            "{core=4294967294}",
            "{core=4294967295}",
            "{core=99999999999}",
            "}",
        ];
        const CORES: [usize; 8] = [0, 1, 2, 3, 12, 4_294_967_294, 4_294_967_295, 1 << 40];
        for seed in 0..24 {
            let mut rng = dcn_simcore::SimRng::new(seed);
            let mut pick = |n: usize| rng.gen_range(0, n as u64) as usize;
            let (mut r, mut s) = (Registry::new(), ScanRegistry::default());
            for _ in 0..400 {
                let base = BASES[pick(BASES.len())];
                let name = format!("{base}{}", LABELS[pick(LABELS.len())]);
                let core = CORES[pick(CORES.len())];
                let cores = pick(6);
                match pick(12) {
                    0 => assert_eq!(r.counter(&name).0, scan_get(&mut s.counters, &name, || 0)),
                    1 => assert_eq!(
                        r.counter_core(base, core).0,
                        scan_get(&mut s.counters, &core_name(base, core), || 0)
                    ),
                    2 => {
                        let ids: Vec<u32> = r
                            .counters_per_core(base, cores)
                            .iter()
                            .map(|id| id.0)
                            .collect();
                        let want: Vec<u32> = (0..cores)
                            .map(|c| scan_get(&mut s.counters, &core_name(base, c), || 0))
                            .collect();
                        assert_eq!(ids, want, "{base} x{cores}");
                    }
                    3 => assert_eq!(r.gauge(&name).0, scan_get(&mut s.gauges, &name, || 0.0)),
                    4 => assert_eq!(
                        r.gauge_core(base, core).0,
                        scan_get(&mut s.gauges, &core_name(base, core), || 0.0)
                    ),
                    5 => {
                        let ids: Vec<u32> = r
                            .gauges_per_core(base, cores)
                            .iter()
                            .map(|id| id.0)
                            .collect();
                        let want: Vec<u32> = (0..cores)
                            .map(|c| scan_get(&mut s.gauges, &core_name(base, c), || 0.0))
                            .collect();
                        assert_eq!(ids, want, "{base} x{cores}");
                    }
                    6 => {
                        let buckets = 1 + cores;
                        let new = || Histogram::new(0.0, 100.0, buckets);
                        assert_eq!(
                            r.histogram(&name, 0.0, 100.0, buckets).0,
                            scan_get(&mut s.hists, &name, new)
                        );
                    }
                    7 if !s.counters.is_empty() => {
                        let i = pick(s.counters.len());
                        let n = pick(100) as u64;
                        r.add(CounterId(i as u32), n);
                        s.counters[i].1 += n;
                    }
                    8 if !s.gauges.is_empty() => {
                        let i = pick(s.gauges.len());
                        let v = pick(1000) as f64 / 8.0;
                        r.set(GaugeId(i as u32), v);
                        s.gauges[i].1 = v;
                    }
                    9 if !s.hists.is_empty() => {
                        let i = pick(s.hists.len());
                        let v = pick(120) as f64;
                        r.observe(HistId(i as u32), v);
                        s.hists[i].1.add(v);
                    }
                    _ => {
                        // By-name reads: whole names, and prefixes cut
                        // anywhere in a registered name.
                        let known = s
                            .counters
                            .iter()
                            .map(|(n, _)| n)
                            .chain(s.gauges.iter().map(|(n, _)| n));
                        let known: Vec<&String> = known.collect();
                        let prefix = match known.len() {
                            0 => name.clone(),
                            n => {
                                let k = known[pick(n)];
                                k[..pick(k.len() + 1)].to_string()
                            }
                        };
                        for q in [&name, &prefix] {
                            assert_eq!(r.find_counter(q), scan_find(&s.counters, q), "{q}");
                            assert_eq!(r.find_gauge(q), scan_find(&s.gauges, q), "{q}");
                            assert_eq!(r.sum_prefixed(q), scan_sum(&s.counters, q), "{q}");
                            let (got, want) = (r.sum_prefixed_gauge(q), scan_sum(&s.gauges, q));
                            assert_eq!(got.to_bits(), want.to_bits(), "{q}");
                        }
                    }
                }
            }
            assert_eq!(
                rendered(r.counters()),
                scan_rendered(&s.counters),
                "seed {seed}"
            );
            assert_eq!(
                rendered(r.gauges()),
                scan_rendered(&s.gauges),
                "seed {seed}"
            );
            assert_eq!(
                rendered(r.histograms()),
                scan_rendered(&s.hists),
                "seed {seed}"
            );
        }
    }
}
