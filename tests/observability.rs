//! Cross-stack observability, end to end: the chunk-lifecycle tracer
//! must (a) see the paper's disk→LLC→wire path — chunks still
//! LLC-resident when the CPU starts the in-place encrypt, (b) record
//! loss-driven retransmit fetches as a distinct chunk kind, and
//! (c) perturb nothing: the same seed with tracing on or off yields
//! bit-identical run metrics.

use disk_crypt_net::atlas::AtlasConfig;
use disk_crypt_net::simcore::Nanos;
use disk_crypt_net::workload::{
    run_scenario, run_scenario_observed, ObsOptions, Scenario, ServerKind,
};
use std::path::PathBuf;

fn trace_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dcn_obs_test_{name}.jsonl"))
}

fn trace_only(path: &std::path::Path) -> ObsOptions {
    ObsOptions {
        trace_out: Some(path.to_path_buf()),
        ..ObsOptions::disabled()
    }
}

#[test]
fn encrypt_time_reads_are_llc_resident() {
    // Full-fidelity TLS Atlas run: DDIO lands the disk DMA in the
    // LLC and the ACK-clocked watermark keeps the working set small,
    // so when encryption starts the chunk should still be there
    // (§3.3 / Fig 12's "resident" class).
    let cfg = AtlasConfig {
        encrypted: true,
        ..AtlasConfig::default()
    };
    let sc = Scenario::smoke(ServerKind::Atlas(cfg), 16, 43);
    let path = trace_path("llc");
    let (m, report) = run_scenario_observed(&sc, &trace_only(&path));
    assert!(m.responses > 10, "responses={}", m.responses);
    assert_eq!(m.verify_failures, 0);
    assert!(
        report.traced_chunks > 100,
        "traced={}",
        report.traced_chunks
    );
    assert!(report.stage_summary.contains("encrypt_end"));

    let body = std::fs::read_to_string(&path).expect("trace written");
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), report.traced_chunks);
    let flagged = lines
        .iter()
        .filter(|l| l.contains("\"llc_at_encrypt\":true") || l.contains("\"llc_at_encrypt\":false"))
        .count();
    let resident = lines
        .iter()
        .filter(|l| l.contains("\"llc_at_encrypt\":true"))
        .count();
    assert!(flagged > 100, "flagged={flagged}");
    let frac = resident as f64 / flagged as f64;
    assert!(
        frac >= 0.90,
        "LLC-resident at encrypt: {resident}/{flagged} = {frac:.3}"
    );
    // Every trace line carries the full stage clock.
    for key in [
        "ack_arrival",
        "nvme_submit",
        "firmware_complete",
        "buffer_recycle",
    ] {
        assert!(lines[0].contains(&format!("\"{key}\":")), "missing {key}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn retransmit_fetches_trace_as_distinct_kind() {
    // Stateless retransmission (§3.2) goes back to disk; those
    // fetches must be classified RetransmitFetch, not Fresh, and
    // must legitimately skip the watermark stage.
    let cfg = AtlasConfig {
        encrypted: true,
        ..AtlasConfig::default()
    };
    let mut sc = Scenario::smoke(ServerKind::Atlas(cfg), 8, 7);
    sc.data_loss = 0.02;
    sc.duration = Nanos::from_millis(1200);
    sc.warmup = Nanos::from_millis(300);
    let path = trace_path("retx");
    let (m, report) = run_scenario_observed(&sc, &trace_only(&path));
    assert!(m.responses > 5, "progress under loss: {}", m.responses);
    assert_eq!(m.verify_failures, 0);
    assert!(report.traced_chunks > 0);

    let body = std::fs::read_to_string(&path).expect("trace written");
    let fresh = body
        .lines()
        .filter(|l| l.contains("\"kind\":\"fresh\""))
        .count();
    let retx: Vec<&str> = body
        .lines()
        .filter(|l| l.contains("\"kind\":\"retransmit_fetch\""))
        .collect();
    assert!(fresh > 0, "no fresh chunks traced");
    assert!(!retx.is_empty(), "2% loss must produce retransmit fetches");
    for l in &retx {
        assert!(
            l.contains("\"watermark_trigger\":null"),
            "retransmit fetches are loss-driven, not watermark-driven: {l}"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    // The acceptance bar for "zero-overhead when disabled" has a
    // stronger cousin: even when ENABLED the tracer only observes
    // (non-mutating LLC probes, no extra memory traffic), so the
    // metrics must be bit-identical with tracing on or off.
    let cfg = AtlasConfig {
        encrypted: true,
        ..AtlasConfig::default()
    };
    let sc = Scenario::smoke(ServerKind::Atlas(cfg), 12, 99);
    let base = run_scenario(&sc);
    let path = trace_path("det");
    let (traced, report) = run_scenario_observed(&sc, &trace_only(&path));
    assert!(report.traced_chunks > 0);
    assert_eq!(
        format!("{base:?}"),
        format!("{traced:?}"),
        "tracing changed the simulation"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_schedule_replays_bit_identically_under_observation() {
    // Seeded fault injection composed with the tracer: two runs of the
    // same scenario — same seed, nonzero fault schedule (bursty loss +
    // NVMe read errors) — must emit byte-identical JSONL traces and
    // metrics CSVs. Any hidden nondeterminism in the fault streams,
    // the recovery paths, or the observer itself shows up as a diff.
    let cfg = AtlasConfig {
        encrypted: true,
        ..AtlasConfig::default()
    };
    let mut sc = Scenario::smoke(ServerKind::Atlas(cfg), 12, 83);
    sc.faults = disk_crypt_net::faults::FaultConfig::bursty_with_disk_errors();
    let mut outputs = Vec::new();
    for run in ["a", "b"] {
        let trace = trace_path(&format!("replay_{run}"));
        let csv = std::env::temp_dir().join(format!("dcn_obs_test_replay_{run}.csv"));
        let obs = ObsOptions {
            trace_out: Some(trace.clone()),
            metrics_out: Some(csv.clone()),
            ..ObsOptions::disabled()
        };
        let (m, report) = run_scenario_observed(&sc, &obs);
        assert!(m.responses > 0, "progress under faults");
        assert_eq!(m.verify_failures, 0);
        assert_eq!(m.leaked_buffers, 0);
        assert!(m.faults.net_dropped > 0, "fault schedule must be nonzero");
        assert!(m.faults.nvme_read_errors > 0);
        assert!(report.traced_chunks > 0);
        let trace_body = std::fs::read_to_string(&trace).expect("trace written");
        let csv_body = std::fs::read_to_string(&csv).expect("csv written");
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&csv);
        outputs.push((format!("{m:?}"), trace_body, csv_body));
    }
    let (m_a, trace_a, csv_a) = &outputs[0];
    let (m_b, trace_b, csv_b) = &outputs[1];
    assert_eq!(m_a, m_b, "run metrics must replay identically");
    assert_eq!(trace_a, trace_b, "chunk trace must replay byte-identically");
    assert_eq!(csv_a, csv_b, "metrics CSV must replay byte-identically");
}

#[test]
fn unstamped_chunk_json_round_trips() {
    // A chunk that died before reaching any stage serializes every
    // stage as `null`; the emitted JSONL line is pinned byte for byte,
    // nulls and numeric fields included.
    use disk_crypt_net::obs::export::chunk_to_json;
    use disk_crypt_net::obs::{ChunkKind, ChunkTrace, Stage, STAGE_COUNT};

    const NULLS: &str = r#""ack_arrival":null,"watermark_trigger":null,"nvme_submit":null,"firmware_complete":null,"encrypt_start":null,"encrypt_end":null,"tso_packetize":null,"nic_tx_dma":null,"buffer_recycle":null"#;
    const HEAD: &str = r#"{"chunk":17,"conn":3,"core":2,"offset":65536,"len":16384,"kind":"fresh""#;
    const LLC: &str = r#""llc_at_encrypt":null,"llc_at_nic_dma":null"#;

    let t = ChunkTrace {
        chunk: 17,
        conn: 3,
        core: 2,
        offset: 65_536,
        len: 16_384,
        kind: ChunkKind::Fresh,
        stamps: [u64::MAX; STAGE_COUNT],
        llc_at_encrypt: None,
        llc_at_nic_dma: None,
    };
    assert_eq!(
        chunk_to_json(&t),
        format!(
            r#"{HEAD},"stages_ns":{{{NULLS}}},"latency_ns":{{{NULLS}}},{LLC},"total_ns":null}}"#
        )
    );

    // A partially stamped chunk keeps stamped values numeric while
    // later stages (and a first stage's latency) stay null.
    let mut t2 = t.clone();
    t2.stamps[Stage::AckArrival as usize] = 5_000;
    let stamped = NULLS.replace(r#""ack_arrival":null"#, r#""ack_arrival":5000"#);
    assert_eq!(
        chunk_to_json(&t2),
        format!(
            r#"{HEAD},"stages_ns":{{{stamped}}},"latency_ns":{{{NULLS}}},{LLC},"total_ns":0}}"#
        )
    );
}

#[test]
fn profiling_does_not_perturb_the_run() {
    // The stage profiler mirrors the accounting the simulation
    // already does; with `profile: true` the run must make byte-for-
    // byte identical decisions and only *add* the ProfReport.
    for encrypted in [false, true] {
        let base_cfg = AtlasConfig {
            encrypted,
            ..AtlasConfig::default()
        };
        let prof_cfg = AtlasConfig {
            profile: true,
            ..base_cfg.clone()
        };
        let sc_base = Scenario::smoke(ServerKind::Atlas(base_cfg), 12, 61);
        let sc_prof = Scenario::smoke(ServerKind::Atlas(prof_cfg), 12, 61);
        let base = run_scenario(&sc_base);
        let mut prof = run_scenario(&sc_prof);
        let report = prof.perf.take().expect("profile:true yields a ProfReport");
        assert!(base.perf.is_none(), "profile:false installs no profiler");
        assert!(report.total_chunks() > 0, "profiler saw no chunks");
        assert!(report.total_cycles() > 0, "profiler saw no cycles");
        assert_eq!(
            format!("{base:?}"),
            format!("{prof:?}"),
            "profiling changed the simulation (encrypted={encrypted})"
        );
    }
}

#[test]
fn metrics_csv_has_per_core_series() {
    // The CSV export must carry per-core labelled registry series,
    // including at least one previously uninstrumented signal (TCP
    // RTO firings and the buffer-pool depth).
    let cfg = AtlasConfig::default();
    let sc = Scenario::smoke(ServerKind::Atlas(cfg), 8, 5);
    let csv = std::env::temp_dir().join("dcn_obs_test_metrics.csv");
    let obs = ObsOptions {
        metrics_out: Some(csv.clone()),
        ..ObsOptions::disabled()
    };
    let (m, _) = run_scenario_observed(&sc, &obs);
    assert!(m.responses > 5);
    let body = std::fs::read_to_string(&csv).expect("csv written");
    assert!(body.starts_with("t_ms,metric,value"));
    for series in [
        "atlas.responses{core=0}",
        "tcp.rto_fired{core=0}",
        "atlas.pool_free_bufs{core=0}",
        "mem.dram_read_bytes",
        "diskmap.syscalls",
    ] {
        assert!(body.contains(series), "missing series {series}");
    }
    let _ = std::fs::remove_file(&csv);
}
