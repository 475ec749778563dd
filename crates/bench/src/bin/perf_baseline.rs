//! Perf-trajectory baseline: a fixed seeded matrix profiled end to
//! end, emitted as schema-versioned JSON, and compared against the
//! committed `BENCH_perf_baseline.json` as a regression gate.
//!
//! The matrix is {Atlas, Netflix kstack} × {plaintext, TLS} at one
//! fixed operating point (64 clients, seed 7001, 700 ms simulated,
//! 250 ms warm-up, modeled fidelity) with the stage profiler on. The
//! simulator is deterministic, so the same code always produces
//! byte-identical JSON; CI exploits that by requiring two consecutive
//! runs to `cmp` equal before applying the tolerance-based comparator.
//!
//! Usage:
//!   perf_baseline                      # run + print the table & JSON to stdout
//!   perf_baseline --out <path>         # also write the JSON to <path>
//!   perf_baseline --check <baseline>   # exit 1 if regressed vs <baseline>
//!   perf_baseline --write              # refresh BENCH_perf_baseline.json (CWD)

use dcn_atlas::AtlasConfig;
use dcn_bench::perf::{compare_perf, perf_document, PerfCell};
use dcn_bench::{print_table, BenchArgs};
use dcn_kstack::KstackConfig;
use dcn_mem::Fidelity;
use dcn_workload::{run_scenario, Scenario, ServerKind};

const SEED: u64 = 7001;
const CLIENTS: usize = 64;
const DURATION_MS: u64 = 700;
const WARMUP_MS: u64 = 250;

fn run_cell(name: &str, encrypted: bool, atlas: bool) -> PerfCell {
    let (server, cores, ghz) = if atlas {
        let cfg = AtlasConfig {
            encrypted,
            fidelity: Fidelity::Modeled,
            profile: true,
            // The online I/O-window autotuner is the production
            // operating point now: it converges below the paper's
            // fixed 10×MSS watermark on the modeled P3700, overlapping
            // more of the ~100 µs read latency with ACK-clock waits.
            autotune: true,
            ..AtlasConfig::default()
        };
        let (cores, ghz) = (cfg.cores, cfg.costs.cpu_ghz);
        (ServerKind::Atlas(cfg), cores, ghz)
    } else {
        let cfg = KstackConfig {
            encrypted,
            fidelity: Fidelity::Modeled,
            profile: true,
            ..KstackConfig::netflix()
        };
        let (cores, ghz) = (cfg.cores, cfg.costs.cpu_ghz);
        (ServerKind::Kstack(cfg), cores, ghz)
    };
    let sc = Scenario::smoke(server, CLIENTS, SEED);
    debug_assert_eq!(sc.warmup.as_nanos(), WARMUP_MS * 1_000_000);
    debug_assert_eq!(sc.duration.as_nanos(), DURATION_MS * 1_000_000);
    let m = run_scenario(&sc);
    PerfCell::derive(name, &m, cores, ghz, DURATION_MS as f64 / 1e3)
}

fn main() {
    let args = BenchArgs::parse();

    let cells = vec![
        run_cell("atlas_plain", false, true),
        run_cell("atlas_tls", true, true),
        run_cell("kstack_plain", false, false),
        run_cell("kstack_tls", true, false),
    ];
    let doc = perf_document(SEED, CLIENTS, DURATION_MS, WARMUP_MS, &cells);

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.2}", c.net_gbps),
                c.chunks.to_string(),
                format!("{:.0}", c.chunks_per_sec_per_core),
                format!("{:.3}", c.dram_bytes_per_net_byte),
                format!("{:.3}", c.cpu_busy_frac),
                format!("{:.3}", c.llc_resident_dma_frac),
                format!("{:.3}", c.llc_resident_encrypt_frac),
                format!("{}/{}/{}", c.stalls[0], c.stalls[1], c.stalls[2]),
            ]
        })
        .collect();
    print_table(
        &format!(
            "perf_baseline: seed {SEED}, {CLIENTS} clients, {DURATION_MS} ms (stalls: cwnd/pool/nvme)"
        ),
        &[
            "cell",
            "net_gbps",
            "chunks",
            "chunks/s/core",
            "dram/net",
            "cpu_busy",
            "dma_llc",
            "enc_llc",
            "stalls",
        ],
        &rows,
    );

    let mut wrote = false;
    if let Some(path) = &args.out {
        let shown = path.display();
        std::fs::write(path, &doc).unwrap_or_else(|e| panic!("write {shown}: {e}"));
        println!("perf JSON -> {shown}");
        wrote = true;
    }
    if args.write {
        let path = "BENCH_perf_baseline.json";
        std::fs::write(path, &doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("baseline refreshed -> {path}");
        wrote = true;
    }
    if let Some(check) = &args.check {
        let path = check.display();
        let baseline =
            std::fs::read_to_string(check).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        match compare_perf(&baseline, &doc) {
            Ok(regs) if regs.is_empty() => {
                println!("perf gate: OK vs {path}");
            }
            Ok(regs) => {
                eprintln!("perf gate: {} regression(s) vs {path}:", regs.len());
                for r in &regs {
                    eprintln!("  REGRESSION {r}");
                }
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perf gate: cannot compare: {e}");
                std::process::exit(1);
            }
        }
        wrote = true;
    }
    if !wrote {
        print!("{doc}");
    }
}
