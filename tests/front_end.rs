//! The connection front end both stacks share, driven by one
//! hand-fed client over a short fixed-delay link: a `Range` resume is
//! answered 206 from the record-aligned offset and verifies at absolute
//! file offsets, a range past the end of the file gets a bodiless 416,
//! and an oversized request head gets exactly one 431
//! that ends parsing on that stream while the socket stays up. The
//! kernel stack's buffer-cache gauges read its cache's own counts.

use disk_crypt_net::atlas::{AtlasConfig, AtlasServer};
use disk_crypt_net::crypto::{RecordCipher, RECORD_PAYLOAD_MAX};
use disk_crypt_net::httpd::parser::{build_get, build_get_range};
use disk_crypt_net::httpd::response::scan_response_head;
use disk_crypt_net::kstack::{KstackConfig, KstackServer};
use disk_crypt_net::netdev::{parse_frame, PayloadBytes, WireFrame};
use disk_crypt_net::packet::{Ipv4Addr, MacAddr, SeqNumber};
use disk_crypt_net::simcore::{prf_bytes, Nanos};
use disk_crypt_net::store::{Catalog, FileId};
use disk_crypt_net::tcpstack::client::ClientFrame;
use disk_crypt_net::tcpstack::{ClientConn, Endpoint};
use disk_crypt_net::workload::{Expected, StreamVerifier, VerifyStats, VideoServer};
use std::collections::VecDeque;

const ONE_WAY: Nanos = Nanos::from_micros(100);

/// One client, one server, frames delivered after `ONE_WAY` in order.
struct Rig<S: VideoServer> {
    server: S,
    catalog: Catalog,
    client: ClientConn,
    cipher: RecordCipher,
    now: Nanos,
    /// (deliver at, to server?, frames), kept in time order.
    wire: VecDeque<(Nanos, bool, Vec<WireFrame>)>,
    /// Every response byte the client received, in order.
    stream: Vec<u8>,
}

impl<S: VideoServer> Rig<S> {
    fn new(server: S, catalog: Catalog) -> Self {
        let local = Endpoint {
            mac: MacAddr::from_host_id(Ipv4Addr::new(10, 1, 0, 1).0),
            ip: Ipv4Addr::new(10, 1, 0, 1),
            port: 40_000,
        };
        let remote = AtlasConfig::default().server_endpoint;
        let (client, syn) = ClientConn::connect(local, remote, SeqNumber(7), 4 << 20);
        let flow = client.flow();
        let mut key = [0u8; 16];
        prf_bytes(u64::from(flow.rss_hash()) ^ 0x6B65_7931, 0, &mut key);
        let mut rig = Rig {
            server,
            catalog,
            client,
            cipher: RecordCipher::new(&key, flow.rss_hash()),
            now: Nanos::ZERO,
            wire: VecDeque::new(),
            stream: Vec::new(),
        };
        rig.send_frames(vec![syn]);
        rig.run_for(Nanos::from_millis(5));
        rig
    }

    fn send_frames(&mut self, frames: Vec<ClientFrame>) {
        let frames = frames
            .into_iter()
            .map(|f| WireFrame::single(f.headers, PayloadBytes::Real(f.payload)))
            .collect();
        self.push(self.now + ONE_WAY, true, frames);
    }

    fn push(&mut self, at: Nanos, to_server: bool, frames: Vec<WireFrame>) {
        let i = self.wire.partition_point(|(t, _, _)| *t <= at);
        self.wire.insert(i, (at, to_server, frames));
    }

    /// Send `data` as back-to-back segments of at most one MSS.
    fn send(&mut self, data: &[u8]) {
        let frames = data
            .chunks(1448)
            .map(|c| self.client.send(c.to_vec()))
            .collect();
        self.send_frames(frames);
    }

    fn run_for(&mut self, span: Nanos) {
        let end = self.now + span;
        loop {
            let wire_at = self.wire.front().map(|w| w.0);
            let server_at = self.server.poll_at();
            let next = match (wire_at, server_at) {
                (Some(a), Some(b)) => a.min(b),
                (a, b) => match a.or(b) {
                    Some(t) => t,
                    None => break,
                },
            };
            if next > end {
                break;
            }
            self.now = self.now.max(next);
            let bursts = if wire_at == Some(next) {
                let (_, to_server, frames) = self.wire.pop_front().expect("peeked");
                if to_server {
                    self.server.on_wire_rx(self.now, frames)
                } else {
                    let segs = frames
                        .iter()
                        .filter_map(parse_frame)
                        .map(|(_, tcp, payload)| (tcp, payload));
                    let mut inbox = Vec::new();
                    let acks = self.client.on_burst(self.now, segs, &mut inbox);
                    self.stream.extend(inbox);
                    self.send_frames(acks);
                    continue;
                }
            } else {
                self.server.advance(self.now)
            };
            for b in bursts {
                self.push(b.departed.max(self.now) + ONE_WAY, false, b.frames);
            }
        }
        self.now = end;
    }

    /// Status codes of every complete response received so far.
    fn statuses(&self) -> Vec<u16> {
        let mut out = Vec::new();
        let mut rest = &self.stream[..];
        while let Some(head) = scan_response_head(rest) {
            out.push(head.status);
            rest = &rest[(head.header_len + head.content_length as usize).min(rest.len())..];
        }
        out
    }

    /// Verify the received stream against the catalog, given the
    /// expected (file, base offset) of each answered request in order.
    fn verify(&self, expected: &[Expected]) -> VerifyStats {
        let mut outstanding: VecDeque<Expected> = expected.iter().copied().collect();
        let mut stats = VerifyStats::default();
        StreamVerifier::new().push(
            &self.stream,
            &mut outstanding,
            &self.catalog,
            &self.cipher,
            &mut stats,
        );
        stats
    }

    fn counter(&self, prefix: &str) -> u64 {
        self.server
            .registry()
            .expect("registry")
            .sum_prefixed(prefix)
    }
}

fn catalog() -> Catalog {
    Catalog::new(64, 300 * 1024, 4, 11)
}

fn atlas(encrypted: bool) -> Rig<AtlasServer> {
    let cfg = AtlasConfig {
        encrypted,
        ..AtlasConfig::default()
    };
    Rig::new(AtlasServer::new(cfg, catalog(), 5), catalog())
}

fn kstack(encrypted: bool) -> Rig<KstackServer> {
    let cfg = KstackConfig {
        encrypted,
        ..KstackConfig::netflix()
    };
    Rig::new(KstackServer::new(cfg, catalog(), 5), catalog())
}

/// A resumed GET asks for a mid-record offset; the server answers 206
/// from the record boundary below it, and every delivered byte matches
/// the file at its absolute offset.
fn ranged_get_is_a_verified_206<S: VideoServer>(mut rig: Rig<S>) {
    let file = FileId(9);
    let base = 5 * RECORD_PAYLOAD_MAX;
    rig.send(&build_get_range("/chunk/9", "h", base + 1000));
    rig.run_for(Nanos::from_millis(200));
    assert_eq!(rig.statuses(), vec![206]);
    let v = rig.verify(&[Expected::plain(file, base)]);
    assert_eq!(v.failures, 0, "{v:?}");
    assert_eq!(v.verified_bytes, rig.catalog.file_size() - base, "{v:?}");
    assert_eq!(rig.server.leaked_buffers(), 0);
}

#[test]
fn kstack_plain_serves_range_as_206() {
    ranged_get_is_a_verified_206(kstack(false));
}

#[test]
fn kstack_tls_serves_range_as_206() {
    ranged_get_is_a_verified_206(kstack(true));
}

#[test]
fn atlas_plain_serves_range_as_206() {
    ranged_get_is_a_verified_206(atlas(false));
}

#[test]
fn atlas_tls_serves_range_as_206() {
    ranged_get_is_a_verified_206(atlas(true));
}

/// Ranges starting at the end of the file, and inside the last record
/// but past the end, are each answered 416 with the file's size in
/// `Content-Range` and no body (RFC 9110); a plain GET pipelined after
/// them is still served and verifies.
fn range_past_the_end_gets_416<S: VideoServer>(mut rig: Rig<S>) {
    let size = rig.catalog.file_size();
    assert!(size % RECORD_PAYLOAD_MAX > 1000, "the file ends mid-record");
    let mut data = build_get_range("/chunk/9", "h", size);
    data.extend(build_get_range("/chunk/9", "h", size + 1000));
    data.extend(build_get("/chunk/9", "h"));
    rig.send(&data);
    rig.run_for(Nanos::from_millis(200));
    assert_eq!(rig.statuses(), vec![416, 416, 200]);
    let head = String::from_utf8_lossy(&rig.stream[..200]);
    assert!(
        head.contains(&format!("Content-Range: bytes */{size}\r\n")),
        "{head}"
    );
    let v = rig.verify(&[Expected::plain(FileId(9), 0); 3]);
    assert_eq!(v.failures, 0, "{v:?}");
    assert_eq!(v.verified_bytes, size, "{v:?}");
    assert_eq!(rig.server.leaked_buffers(), 0);
}

#[test]
fn kstack_plain_answers_range_past_end_with_416() {
    range_past_the_end_gets_416(kstack(false));
}

#[test]
fn kstack_tls_answers_range_past_end_with_416() {
    range_past_the_end_gets_416(kstack(true));
}

#[test]
fn atlas_plain_answers_range_past_end_with_416() {
    range_past_the_end_gets_416(atlas(false));
}

#[test]
fn atlas_tls_answers_range_past_end_with_416() {
    range_past_the_end_gets_416(atlas(true));
}

/// A good request, then an oversized head, then another good request,
/// pipelined: the first is served in full, the second gets the one
/// 431, and nothing after it is parsed — even a request sent later —
/// while the connection stays open.
fn oversized_head_gets_one_431_and_keeps_the_socket<S: VideoServer>(mut rig: Rig<S>, prefix: &str) {
    let mut data = build_get("/chunk/3", "h");
    data.extend_from_slice(b"GET /chunk/4 HTTP/1.1\r\nX-Pad: ");
    data.extend(std::iter::repeat_n(b'a', 9000));
    data.extend_from_slice(b"\r\n\r\n");
    data.extend(build_get("/chunk/5", "h"));
    rig.send(&data);
    rig.run_for(Nanos::from_millis(200));
    rig.send(&build_get("/chunk/6", "h"));
    rig.run_for(Nanos::from_millis(200));

    assert_eq!(rig.statuses(), vec![200, 431]);
    let v = rig.verify(&[Expected::plain(FileId(3), 0), Expected::plain(FileId(4), 0)]);
    assert_eq!(v.failures, 0, "{v:?}");
    assert_eq!(v.verified_bytes, rig.catalog.file_size(), "{v:?}");
    assert!(!rig.client.reset_received, "the socket stays up");
    assert_eq!(rig.counter(&format!("{prefix}.overload.bad_requests")), 1);
    assert_eq!(rig.server.leaked_buffers(), 0);
}

#[test]
fn atlas_answers_oversized_head_with_one_431() {
    oversized_head_gets_one_431_and_keeps_the_socket(atlas(true), "atlas");
}

#[test]
fn kstack_answers_oversized_head_with_one_431() {
    oversized_head_gets_one_431_and_keeps_the_socket(kstack(true), "kstack");
}

/// The buffer cache's VM-pressure gauges, published next to its hit
/// ratio, read the cache's own counts after a few pipelined GETs.
#[test]
fn kstack_bufcache_gauges_equal_the_cache_stats() {
    let mut rig = kstack(true);
    let mut data = build_get("/chunk/3", "h");
    data.extend(build_get("/chunk/4", "h"));
    data.extend(build_get("/chunk/3", "h"));
    rig.send(&data);
    rig.run_for(Nanos::from_millis(200));
    assert_eq!(rig.statuses(), vec![200, 200, 200]);
    rig.server.publish_obs();
    let vm = rig.server.stack.vm_pressure();
    let gauge = |name: &str| rig.server.reg.find_gauge(name).expect(name);
    assert_eq!(gauge("kstack.bufcache.inserts"), vm.inserts as f64);
    assert_eq!(gauge("kstack.bufcache.reclaims"), vm.reclaims as f64);
    assert_eq!(
        gauge("kstack.bufcache.reclaim_stalls"),
        vm.reclaim_stalls as f64
    );
    // Two files' pages went in once each; the repeat GET hit them.
    let pages = rig.catalog.file_size().div_ceil(4096);
    assert_eq!(vm.inserts, 2 * pages, "{vm:?}");
    assert_eq!(vm.hits, pages, "{vm:?}");
}
