//! The committed `BENCH_*.json` ledgers (`perf_baseline`,
//! `ablation_tiers`): one writer frames both documents.
//!
//! The simulator is deterministic, so the same code on the same seed
//! emits byte-identical JSON. `ci.sh` regenerates each ledger and
//! `cmp`s it against the committed file: any difference fails, better
//! or worse, and a change that moves modeled numbers refreshes the
//! ledger (`--out BENCH_x.json`) in the same commit.
//!
//! The container builds offline (no serde), so the writer is
//! hand-rolled. A fixed key order and a fixed float format (`{:.6}`)
//! are what make the byte-identity checkable with `cmp`.

use std::fmt::Write as _;
use std::path::Path;

/// Format a float exactly the way the ledgers do. NaN and infinities
/// (possible when a cell moved no bytes) clamp to 0 so the output
/// stays valid JSON.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        // `+ 0.0` turns -0.0 into 0.0 so no cell prints "-0.000000".
        format!("{:.6}", x + 0.0)
    } else {
        "0.000000".to_string()
    }
}

/// One entry of a ledger's `cells` array.
pub trait LedgerCell {
    /// Append this cell as a JSON object opening at `indent`, without
    /// a trailing newline.
    fn to_json(&self, out: &mut String, indent: &str);
}

/// Render a ledger: `schema_version`, `bench`, the integer `header`
/// fields in order, then the `cells` array, with a trailing newline.
#[must_use]
pub fn document(
    schema_version: u64,
    bench: &str,
    header: &[(&str, u64)],
    cells: &[impl LedgerCell],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema_version\": {schema_version},");
    let _ = writeln!(out, "  \"bench\": \"{bench}\",");
    for (key, value) in header {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        c.to_json(&mut out, "    ");
        let _ = writeln!(out, "{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Write `doc` to `out` and name the file on stdout (`what JSON ->
/// path`), or print `doc` to stdout when there is no `--out`.
pub fn emit(doc: &str, out: Option<&Path>, what: &str) {
    match out {
        Some(path) => {
            let shown = path.display();
            std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {shown}: {e}"));
            println!("{what} JSON -> {shown}");
        }
        None => print!("{doc}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Cell(&'static str);

    impl LedgerCell for Cell {
        fn to_json(&self, out: &mut String, indent: &str) {
            let _ = write!(out, "{indent}{{\"name\": \"{}\"}}", self.0);
        }
    }

    #[test]
    fn document_frames_header_and_cells() {
        let doc = document(
            3,
            "demo",
            &[("seed", 7), ("clients", 64)],
            &[Cell("a"), Cell("b")],
        );
        assert_eq!(
            doc,
            "{\n  \"schema_version\": 3,\n  \"bench\": \"demo\",\n  \"seed\": 7,\n  \
             \"clients\": 64,\n  \"cells\": [\n    {\"name\": \"a\"},\n    {\"name\": \"b\"}\n  \
             ]\n}\n"
        );
    }

    #[test]
    fn floats_print_fixed_and_never_negative_zero_or_non_finite() {
        assert_eq!(fmt_f64(1.25), "1.250000");
        assert_eq!(fmt_f64(-0.0), "0.000000");
        assert_eq!(fmt_f64(f64::NAN), "0.000000");
        assert_eq!(fmt_f64(f64::INFINITY), "0.000000");
    }
}
