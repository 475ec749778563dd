//! Ablation — adaptive-streaming (ABR) workload vs the fixed-rate
//! fleet, crossed with the I/O-window autotuner.
//!
//! The paper's evaluation drives Atlas with a weighttp-style
//! fixed-rate fleet: every client fetches back-to-back, so the ACK
//! clock and the disk fetch watermark see a steady request stream.
//! Real DASH players don't behave like that. They fill a playout
//! buffer, go silent ("off"), then wake and burst ("on") — and a
//! fleet of them partially synchronizes on the shared resume
//! threshold. This ablation asks two questions:
//!
//! 1. What does that cadence do to the DMA buffer pool? (The "burst
//!    microscope" section: a deliberately sub-capacity on-off fleet
//!    vs a fixed-rate fleet, pool occupancy swing per delivered
//!    gigabit.)
//! 2. Does the online autotuner's goodput gain (DESIGN.md §12)
//!    survive the bursty arrival process, or was it an artifact of
//!    steady arrivals? (Matrix: the autotuned ABR cells should keep
//!    ≥ half of the tuner's fixed-rate gain.)
//!
//! Matrix: {fixed-rate, abr-fixed, abr-buffer, abr-rate} ×
//! {plain, tls} × {fixed watermark, autotuned}. `abr-fixed` pins the
//! lowest rung with deep on-off hysteresis (fill to 400 ms, drain to
//! 100 ms) — pure burst cadence, no adaptation; the adaptive variants
//! use their default thresholds.

use dcn_atlas::AtlasConfig;
use dcn_bench::{print_table, BenchArgs, Scale};
use dcn_mem::Fidelity;
use dcn_simcore::Nanos;
use dcn_store::Catalog;
use dcn_workload::{run_scenario, AbrConfig, FleetConfig, RunMetrics, Scenario, ServerKind};

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Load {
    FixedRate,
    AbrFixed,
    AbrBuffer,
    AbrRate,
}

impl Load {
    fn name(self) -> &'static str {
        match self {
            Load::FixedRate => "fixed-rate",
            Load::AbrFixed => "abr-fixed",
            Load::AbrBuffer => "abr-buffer",
            Load::AbrRate => "abr-rate",
        }
    }

    fn abr(self) -> Option<AbrConfig> {
        match self {
            Load::FixedRate => None,
            // Deep hysteresis: long off phases, hard on edges.
            Load::AbrFixed => Some(AbrConfig {
                target: Nanos::from_millis(400),
                resume: Nanos::from_millis(100),
                ..AbrConfig::fixed(0)
            }),
            Load::AbrBuffer => Some(AbrConfig::buffer_based()),
            Load::AbrRate => Some(AbrConfig::rate_based()),
        }
    }
}

fn run_cell(
    load: Load,
    encrypted: bool,
    autotune: bool,
    n: usize,
    seed: u64,
    duration: Nanos,
) -> RunMetrics {
    let cfg = AtlasConfig {
        encrypted,
        autotune,
        fidelity: Fidelity::Modeled,
        ..AtlasConfig::default()
    };
    let sc = Scenario {
        server: ServerKind::Atlas(cfg),
        fleet: FleetConfig {
            n_clients: n,
            verify: false,
            abr: load.abr(),
            ..FleetConfig::default()
        },
        catalog: Catalog::paper(seed),
        warmup: Nanos::from_millis(250),
        duration,
        seed,
        data_loss: 0.0,
        faults: Default::default(),
    };
    run_scenario(&sc)
}

fn row(label: String, m: &RunMetrics) -> Vec<String> {
    let (reb, mbps, paced) = m
        .abr
        .as_ref()
        .map(|a| (a.qoe.rebuffer_ratio, a.qoe.avg_bitrate_mbps, a.paced_wakes))
        .unwrap_or((0.0, 0.0, 0));
    let (dip, fsd) = m
        .pool_occ
        .map(|p| (p.free_mean - p.free_min as f64, p.free_stddev))
        .unwrap_or((0.0, 0.0));
    vec![
        label,
        format!("{:.2}", m.net_gbps),
        m.responses.to_string(),
        format!("{reb:.3}"),
        format!("{mbps:.0}"),
        paced.to_string(),
        format!("{dip:.0}"),
        format!("{fsd:.1}"),
    ]
}

const COLS: [&str; 8] = [
    "cell",
    "net_gbps",
    "responses",
    "rebuf",
    "avg_mbps",
    "on_wakes",
    "pool_dip",
    "pool_sd",
];

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(83);
    let n = match args.scale {
        Scale::Quick => 32,
        _ => 64,
    };
    let duration = args.scale.duration();

    // ---- main matrix -------------------------------------------
    let mut rows = Vec::new();
    let mut net = std::collections::HashMap::new();
    for load in [
        Load::FixedRate,
        Load::AbrFixed,
        Load::AbrBuffer,
        Load::AbrRate,
    ] {
        for encrypted in [false, true] {
            for (tuner_name, tuned) in [("fixed", false), ("autotuned", true)] {
                let m = run_cell(load, encrypted, tuned, n, seed, duration);
                net.insert((load, encrypted, tuned), m.net_gbps);
                rows.push(row(
                    format!(
                        "{}/{}/{tuner_name}",
                        load.name(),
                        if encrypted { "tls" } else { "plain" }
                    ),
                    &m,
                ));
            }
        }
    }
    print_table(
        &format!("Ablation: ABR workloads at {n} clients (seed {seed})"),
        &COLS,
        &rows,
    );

    // Autotuner gain retention: the tuner's fixed-rate (steady
    // arrival) gain vs what it still delivers under each adaptive
    // workload's bursty arrivals.
    for encrypted in [false, true] {
        let tls = if encrypted { "tls" } else { "plain" };
        let steady =
            net[&(Load::FixedRate, encrypted, true)] - net[&(Load::FixedRate, encrypted, false)];
        for load in [Load::AbrBuffer, Load::AbrRate] {
            let bursty = net[&(load, encrypted, true)] - net[&(load, encrypted, false)];
            let pct = if steady.abs() > f64::EPSILON {
                100.0 * bursty / steady
            } else {
                0.0
            };
            println!(
                "[{tls}] autotuner gain on {}: {bursty:+.2} Gb/s vs {steady:+.2} \
                 steady-state — {pct:.0}% retained",
                load.name()
            );
        }
    }

    // ---- burst microscope --------------------------------------
    // Sub-capacity fleet: every on-off client actually reaches its
    // buffer target and cycles, so the pool sees the synchronized
    // "on" edges. Compare its occupancy swing to a fixed-rate fleet
    // of the same size, normalized per delivered gigabit (the on-off
    // fleet moves far fewer bytes).
    let micro_n = 16;
    let mut rows = Vec::new();
    let mut swing = std::collections::HashMap::new();
    for load in [Load::FixedRate, Load::AbrFixed] {
        for (tuner_name, tuned) in [("fixed", false), ("autotuned", true)] {
            let m = run_cell(load, true, tuned, micro_n, seed, duration);
            if let Some(p) = m.pool_occ {
                swing.insert((load, tuned), p.free_stddev / m.net_gbps.max(1e-9));
            }
            rows.push(row(format!("{}/tls/{tuner_name}", load.name()), &m));
        }
    }
    print_table(
        &format!("Burst microscope: sub-capacity on-off fleet ({micro_n} clients)"),
        &COLS,
        &rows,
    );
    println!(
        "\npool occupancy stddev per delivered Gb/s (fixed watermark): \
         fixed-rate={:.1} abr-fixed={:.1}\n\
         pool occupancy stddev per delivered Gb/s (autotuned):       \
         fixed-rate={:.1} abr-fixed={:.1}",
        swing[&(Load::FixedRate, false)],
        swing[&(Load::AbrFixed, false)],
        swing[&(Load::FixedRate, true)],
        swing[&(Load::AbrFixed, true)],
    );
    println!(
        "\nReading: the adaptive cells trade raw goodput for playout-buffer\n\
         stability — the on-off cadence idles the pipe on purpose, and per\n\
         delivered gigabit it keeps the DMA pool swinging roughly twice as\n\
         hard as the steady fleet. The autotuner's goodput gain must not be\n\
         an artifact of steady arrivals: the abr-buffer cells should retain\n\
         at least half of its fixed-rate gain."
    );
    maybe_run_observed_abr();
}

/// `--trace-out`/`--metrics-out` hook: like
/// [`dcn_bench::maybe_run_observed_atlas`], but the observed fleet is
/// adaptive so the `qoe.*` gauge family lands in the metrics CSV.
fn maybe_run_observed_abr() {
    let obs = dcn_bench::obs_from_args();
    if !obs.active() {
        return;
    }
    let server = ServerKind::Atlas(AtlasConfig {
        encrypted: true,
        fidelity: Fidelity::Full,
        ..AtlasConfig::default()
    });
    let mut sc = Scenario::smoke(server, 48, 42);
    sc.fleet.abr = Some(AbrConfig::rate_based());
    let (m, report) = dcn_workload::run_scenario_observed(&sc, &obs);
    println!("\n=== Observability: traced adaptive Atlas run (full fidelity, TLS) ===");
    println!(
        "responses={} net={:.2} Gbps cpu={:.0}%",
        m.responses, m.net_gbps, m.cpu_pct
    );
    if let Some(a) = &m.abr {
        println!(
            "qoe: sessions={} rebuffer_ratio={:.3} avg_bitrate={:.0} Mb/s",
            a.qoe.sessions, a.qoe.rebuffer_ratio, a.qoe.avg_bitrate_mbps
        );
    }
    if let Some(p) = &obs.trace_out {
        println!(
            "chunk trace: {} chunks -> {}",
            report.traced_chunks,
            p.display()
        );
        print!("{}", report.stage_summary);
    }
    if let Some(p) = &obs.metrics_out {
        println!("metrics CSV -> {}", p.display());
    }
}
