//! Micro-benchmarks for the hot primitives: AES-GCM sealing, TCP
//! wire codecs, NVMe firmware submit/drain, the LLC model, and the
//! set-up costs of the kstack buffer cache, metric registration and
//! an Atlas server.
//!
//! This is a plain `harness = false` binary (the container builds
//! offline, so no external bench framework): each case is warmed up,
//! then timed over enough iterations to smooth scheduler noise, and
//! reported as ns/iter plus throughput where bytes are meaningful.

use dcn_atlas::{AtlasConfig, AtlasServer};
use dcn_crypto::{AesGcm128, RecordCipher};
use dcn_mem::{CostParams, LlcConfig, MemSystem, PhysAddr, PhysAlloc, PhysRegion, CHUNK_SIZE};
use dcn_nvme::{FirmwareParams, NvmeCommand, Opcode};
use dcn_obs::Registry;
use dcn_packet::{internet_checksum, SeqNumber, TcpFlags, TcpRepr};
use dcn_simcore::Nanos;
use dcn_srvcore::TierIds;
use dcn_store::{BufferCache, Catalog};
use std::hint::black_box;
use std::time::Instant;

/// Run `f` for ~`target_ms` of wall time and report ns/iter.
fn bench(name: &str, bytes_per_iter: u64, mut f: impl FnMut()) {
    const WARMUP: u32 = 50;
    for _ in 0..WARMUP {
        f();
    }
    // Calibrate: start small, grow until the batch takes >= 20ms.
    let mut iters: u64 = 100;
    let (elapsed, iters) = loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t.elapsed();
        if dt.as_millis() >= 20 || iters >= 100_000_000 {
            break (dt, iters);
        }
        iters *= 4;
    };
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    if bytes_per_iter > 0 {
        let gibps = bytes_per_iter as f64 / ns; // bytes/ns == GB/s
        println!("{name:<34} {ns:>12.1} ns/iter  {gibps:>8.2} GB/s");
    } else {
        println!("{name:<34} {ns:>12.1} ns/iter");
    }
}

fn bench_crypto() {
    let gcm = AesGcm128::new(b"0123456789abcdef");
    let mut buf = vec![0xA5u8; 16 * 1024];
    bench("crypto/aes128gcm_seal_16k", buf.len() as u64, || {
        black_box(gcm.seal_in_place(&[7u8; 12], &[], &mut buf));
    });
    let rc = RecordCipher::new(b"0123456789abcdef", 99);
    bench("crypto/record_seal_16k", 16 * 1024, || {
        black_box(rc.seal_record(0, &mut buf[..16 * 1024]));
    });
}

fn bench_packet() {
    let repr = TcpRepr {
        src_port: 80,
        dst_port: 5555,
        seq: SeqNumber(12345),
        ack: SeqNumber(999),
        flags: TcpFlags::ACK | TcpFlags::PSH,
        window: 4096,
        mss: None,
        wscale: None,
    };
    let mut hdr = vec![0u8; 20];
    repr.emit(&mut hdr, 0x1234, &[]);
    bench("packet/tcp_parse", 0, || {
        black_box(TcpRepr::parse(black_box(&hdr), None).unwrap());
    });
    bench("packet/tcp_emit", 0, || {
        let mut h = [0u8; 20];
        repr.emit(&mut h, 0x1234, &[]);
        black_box(h);
    });
    let payload = vec![0x5Au8; 1448];
    bench("packet/checksum_1448", 1448, || {
        black_box(internet_checksum(0, black_box(&payload)));
    });
}

fn bench_nvme() {
    bench("nvme/firmware_submit_drain_16k", 0, || {
        let mut fw = dcn_nvme::firmware::Firmware::new(FirmwareParams::p3700(), 1);
        let cmd = NvmeCommand {
            opcode: Opcode::Read,
            cid: 1,
            nsid: 1,
            slba: 0,
            nlb: 32,
            prp: vec![PhysRegion::new(PhysAddr(4096), 16 * 1024)],
        };
        fw.submit(Nanos::ZERO, 0, 0, &cmd);
        black_box(fw.drain_finished(Nanos::from_millis(10)));
    });
}

fn bench_llc() {
    let mut mem = MemSystem::new(
        LlcConfig::xeon_e5_2667v3(),
        CostParams::default(),
        Nanos::from_millis(1),
    );
    let mut page = 0u64;
    bench("mem/llc_dma_write_read_16k", 16 * 1024, || {
        page = (page + 4) % 100_000;
        let r = PhysRegion::new(PhysAddr(page * CHUNK_SIZE), 16 * 1024);
        mem.dma_write(Nanos::ZERO, dcn_mem::Agent::DiskDma, r);
        black_box(mem.dma_read(Nanos::ZERO, dcn_mem::Agent::NicDma, r));
    });
}

/// Build and drop a buffer cache at the kstack's 6 GiB cap over the
/// paper catalog: the per-construction cost a `netflix_tls_2k` set-up
/// sample pays (wall clock, advisory).
fn bench_store() {
    let catalog = Catalog::paper(1);
    bench("store/bufcache_new_6g", 0, || {
        black_box(BufferCache::new(6 << 30, &catalog, &mut PhysAlloc::new()));
    });
}

/// Per-core counter families an Atlas server registers for itself.
const ATLAS_COUNTER_FAMILIES: [&str; 10] = [
    "atlas.responses",
    "atlas.http_payload_bytes",
    "atlas.disk_read_bytes",
    "atlas.retransmit_fetches",
    "atlas.disk_reads",
    "atlas.fetch_errors",
    "atlas.fetch_retries",
    "atlas.overload.reaped_idle",
    "atlas.overload.aborted_slow",
    "atlas.bufpool.share_limited",
];

/// Set-up costs an Atlas `setup_s` sample pays (wall clock, advisory):
/// a fresh registry with the 4-core Atlas, buffer-wait, tier and
/// front-end families in `AtlasServer::new`'s order, then a whole
/// default server built and dropped.
fn bench_atlas_setup() {
    let cores = 4;
    bench("obs/register_atlas_tier_ids", 0, || {
        let mut reg = Registry::new();
        reg.counter("atlas.conns");
        reg.counter("atlas.conns_aborted");
        for name in ATLAS_COUNTER_FAMILIES {
            black_box(reg.counters_per_core(name, cores));
        }
        for name in [
            "atlas.pool_free_bufs",
            "atlas.overload.level",
            "atlas.live_conns",
        ] {
            black_box(reg.gauges_per_core(name, cores));
        }
        reg.gauge("atlas.leaked_bufs");
        for name in ["atlas.bufpool.empty_waits", "atlas.bufpool.futile_wakes"] {
            black_box(reg.counters_per_core(name, cores));
        }
        black_box(TierIds::register(&mut reg, cores));
        for name in [
            "atlas.overload.shed_new",
            "atlas.overload.retry_503",
            "atlas.overload.bad_requests",
        ] {
            black_box(reg.counters_per_core(name, cores));
        }
        black_box(reg);
    });
    let catalog = Catalog::paper(1);
    bench("atlas/server_new", 0, || {
        black_box(AtlasServer::new(AtlasConfig::default(), catalog.clone(), 1));
    });
}

fn main() {
    println!("{:-<34} {:->12}--------  {:->8}-----", "", "", "");
    bench_crypto();
    bench_packet();
    bench_nvme();
    bench_llc();
    bench_store();
    bench_atlas_setup();
}
