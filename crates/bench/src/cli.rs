//! Shared command-line parsing for the figure/ablation binaries.
//!
//! Every `fig*` / `ablation_*` binary takes the same small flag set;
//! before this module each one re-scanned `std::env::args()` with its
//! own copy of the logic (and the ablations hard-coded their seeds).
//! One strict pass over argv yields everything (an unknown flag or a
//! value that does not parse exits 2 with [`USAGE`]):
//!
//! * `--quick` / `--paper` — sweep scale;
//! * `--seed <n>` — override the binary's default base seed;
//! * `--trace-out <path>` — chunk-lifecycle JSONL dump;
//! * `--metrics-out <path>` — registry time-series CSV;
//! * `--catalog <n>` — catalog size in objects (tiered runs);
//! * `--zipf <theta>` — Zipf popularity skew for the client fleet;
//! * `--out <path>` — write the binary's `BENCH_*.json` ledger there
//!   (`perf_baseline`, `ablation_tiers`).

use crate::Scale;
use dcn_workload::ObsOptions;
use std::path::PathBuf;

/// The one usage line, printed with every command-line error.
pub const USAGE: &str = "usage: <bin> [--quick | --paper] [--seed <u64>] [--trace-out <path>] \
[--metrics-out <path>] [--catalog <n>] [--zipf <theta>] [--out <path>]";

/// Parsed flags. Parsing is strict: an unknown flag, a missing value or
/// a value that does not parse is an error, never a silent default.
#[derive(Clone, Debug, Default)]
pub struct BenchArgs {
    pub scale: Scale,
    /// `--seed <n>`, if given. Use [`BenchArgs::seed_or`] to fall back
    /// to the binary's documented default.
    pub seed: Option<u64>,
    pub obs: ObsOptions,
    /// `--catalog <n>`: catalog size in objects. Use
    /// [`BenchArgs::catalog_or`] for the binary's default.
    pub catalog: Option<u64>,
    /// `--zipf <theta>`: Zipf popularity skew for the client fleet
    /// (rank-permuted; pairs with the servers' tier engine).
    pub zipf: Option<f64>,
    /// `--out <path>`: write the binary's JSON ledger here.
    pub out: Option<PathBuf>,
}

impl BenchArgs {
    /// Parse the process argv; on an error, print it with the usage
    /// line and exit 2.
    #[must_use]
    pub fn parse() -> Self {
        Self::try_parse_from(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        })
    }

    /// Parse an explicit argument list (tests).
    pub fn try_parse_from<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut a = BenchArgs::default();
        let mut paper = false;
        let mut it = args.into_iter().map(Into::into);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--quick" => a.scale = Scale::Quick,
                "--paper" => paper = true,
                "--seed" => a.seed = Some(parse_value(&flag, &value()?)?),
                "--catalog" => a.catalog = Some(parse_value(&flag, &value()?)?),
                "--zipf" => a.zipf = Some(parse_value(&flag, &value()?)?),
                "--trace-out" => a.obs.trace_out = Some(value()?.into()),
                "--metrics-out" => a.obs.metrics_out = Some(value()?.into()),
                "--out" => a.out = Some(value()?.into()),
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        if paper {
            a.scale = Scale::Paper;
        }
        Ok(a)
    }

    /// The run seed: `--seed` if given, else the binary's default.
    #[must_use]
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Catalog size: `--catalog` if given, else the binary's default.
    #[must_use]
    pub fn catalog_or(&self, default: u64) -> u64 {
        self.catalog.unwrap_or(default).max(1)
    }
}

fn parse_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("{flag} does not take {v:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_common_flags() {
        let a = BenchArgs::try_parse_from([
            "--paper",
            "--seed",
            "99",
            "--trace-out",
            "/tmp/t.jsonl",
            "--metrics-out",
            "/tmp/m.csv",
            "--catalog",
            "1000000",
            "--zipf",
            "0.9",
            "--out",
            "/tmp/o.json",
        ])
        .expect("parses");
        assert_eq!(a.scale, Scale::Paper);
        assert_eq!(a.seed_or(23), 99);
        assert_eq!(a.catalog_or(1000), 1_000_000);
        assert_eq!(a.zipf, Some(0.9));
        assert_eq!(a.obs.trace_out.as_deref(), Some("/tmp/t.jsonl".as_ref()));
        assert_eq!(a.obs.metrics_out.as_deref(), Some("/tmp/m.csv".as_ref()));
        assert!(a.obs.active());
        assert_eq!(a.out.as_deref(), Some("/tmp/o.json".as_ref()));
    }

    #[test]
    fn defaults_without_flags() {
        let a = BenchArgs::try_parse_from(Vec::<String>::new()).expect("parses");
        assert_eq!(a.scale, Scale::Default);
        assert_eq!(a.seed, None);
        assert_eq!(a.seed_or(23), 23);
        assert!(!a.obs.active());
        assert_eq!(a.catalog_or(500), 500);
        assert_eq!(a.zipf, None);
        assert_eq!(a.out, None);
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        let err = |args: &[&str]| BenchArgs::try_parse_from(args.iter().copied()).unwrap_err();
        assert!(err(&["--frobnicate", "7"]).contains("--frobnicate"));
        assert!(err(&["--seed", "not-a-number"]).contains("--seed"));
        assert!(err(&["--zipf", "x"]).contains("--zipf"));
        assert!(err(&["--catalog", "-1"]).contains("--catalog"));
        assert!(err(&["--out"]).contains("needs a value"));
        // A ledger is refreshed with `--out` and gated with `cmp`: no
        // check or write flag.
        assert!(err(&["--check", "x"]).contains("--check"));
        assert!(err(&["--write"]).contains("--write"));
    }
}
