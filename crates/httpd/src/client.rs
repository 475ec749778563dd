//! The weighttp-like request driver (client application layer).
//!
//! "Each client establishes a long-lived TCP connection to the
//! server, and generates a series of HTTP requests with a new request
//! sent immediately after the previous one is served" (§4). The
//! driver consumes the response byte stream (headers + body),
//! verifies progress, and decides when to fire the next request.

use crate::response::{scan_response_head, RECORD_WIRE};
use dcn_crypto::RECORD_PAYLOAD_MAX;
use dcn_simcore::{RankPerm, SimRng, Zipf};
use dcn_store::FileId;

/// Where to pick up a response after its server died mid-stream: the
/// file being fetched and the record-aligned plaintext offset already
/// delivered in order. The reconnecting client sends
/// `Range: bytes=offset-` (relative to the *file*, so a resume of a
/// resume composes by adding bases).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResumePlan {
    pub file: FileId,
    /// Plaintext offset relative to the start of the aborted
    /// *response* (the caller adds any earlier resume base). Always a
    /// multiple of the record size, for both encrypted and plaintext
    /// bodies, so re-encrypted replica responses re-frame cleanly.
    pub offset: u64,
}

/// Per-connection request state machine.
pub struct RequestDriver {
    catalog_files: u64,
    /// Popularity skew; None = uniform over distinct files (the
    /// uncachable 0% BC workload), Some(zipf) for cacheable ones.
    zipf: Option<Zipf>,
    /// Rank → object-id permutation applied to Zipf samples. Scatters
    /// the popular head across the id space; with the seed shared by
    /// the tier engine, "popular" means the same objects on both
    /// sides. None = rank IS the id (legacy zipf workload).
    perm: Option<RankPerm>,
    /// For the 100% BC workload the paper pins requests to a small
    /// hot set that always fits in cache.
    hot_set: Option<u64>,
    rng: SimRng,
    /// Bytes of the current response still expected (None = waiting
    /// for header).
    body_remaining: Option<u64>,
    /// Wire Content-Length of the in-progress response (None until
    /// its header has been parsed). `body_total - body_remaining` is
    /// the in-order wire progress used to compute resume offsets.
    body_total: Option<u64>,
    /// File of the most recent request (cleared on completion) —
    /// what a reconnect would re-request.
    current_file: Option<FileId>,
    header_buf: Vec<u8>,
    pub requests_issued: u64,
    pub responses_done: u64,
    pub body_bytes: u64,
    /// Encrypted-body flag of the in-progress response.
    pub current_encrypted: bool,
    /// Responses abandoned mid-stream by `disconnect` (server died).
    pub responses_abandoned: u64,
    /// 503 load-shed responses received (each leaves the request
    /// outstanding; the caller retries after `take_retry_after`).
    pub rejections_503: u64,
    /// Pending server-requested backoff from the latest 503, in
    /// virtual milliseconds. Consumed by `take_retry_after`.
    retry_after_pending: Option<u64>,
}

impl RequestDriver {
    /// Uniform random requests over the whole catalog — effectively
    /// uncachable (the paper's 0% BC workload: "each video chunk is
    /// only requested once during the duration of the test").
    #[must_use]
    pub fn uncachable(catalog_files: u64, rng: SimRng) -> Self {
        RequestDriver {
            catalog_files,
            zipf: None,
            perm: None,
            hot_set: None,
            rng,
            body_remaining: None,
            body_total: None,
            current_file: None,
            header_buf: Vec::new(),
            requests_issued: 0,
            responses_done: 0,
            body_bytes: 0,
            current_encrypted: false,
            responses_abandoned: 0,
            rejections_503: 0,
            retry_after_pending: None,
        }
    }

    /// Requests confined to a hot set that fits in the buffer cache
    /// (the 100% BC workload).
    #[must_use]
    pub fn cacheable(catalog_files: u64, hot_files: u64, rng: SimRng) -> Self {
        let mut d = Self::uncachable(catalog_files, rng);
        d.hot_set = Some(hot_files.min(catalog_files));
        d
    }

    /// Zipf-popular requests (realistic mixed workloads, used by the
    /// examples).
    #[must_use]
    pub fn zipf(catalog_files: u64, alpha: f64, rng: SimRng) -> Self {
        let mut d = Self::uncachable(catalog_files, rng);
        d.zipf = Some(Zipf::new(catalog_files, alpha));
        d
    }

    /// Zipf-popular requests with the rank → object-id permutation the
    /// tiering engine seeds its hot set with: rank 0 is the hottest
    /// *object* (scattered somewhere in the id space), not id 0.
    #[must_use]
    pub fn zipf_perm(catalog_files: u64, alpha: f64, perm_seed: u64, rng: SimRng) -> Self {
        let mut d = Self::zipf(catalog_files, alpha, rng);
        d.perm = Some(RankPerm::new(catalog_files, perm_seed));
        d
    }

    /// Pick the next file to request.
    pub fn next_file(&mut self) -> FileId {
        let f = if let Some(hot) = self.hot_set {
            FileId(self.rng.gen_range(0, hot))
        } else if let Some(z) = &self.zipf {
            let rank = z.sample(&mut self.rng);
            FileId(self.perm.as_ref().map_or(rank, |p| p.apply(rank)))
        } else {
            FileId(self.rng.gen_range(0, self.catalog_files))
        };
        self.request_file(f);
        f
    }

    /// Issue a request for a caller-chosen file — ABR clients pick
    /// from the manifest instead of the popularity distribution, but
    /// still need the driver tracking `current_file` for 503 retries
    /// and resume plans.
    pub fn request_file(&mut self, f: FileId) {
        self.requests_issued += 1;
        self.current_file = Some(f);
    }

    /// File of the in-flight request, if any.
    #[must_use]
    pub fn current_file(&self) -> Option<FileId> {
        self.current_file
    }

    /// The connection carrying the in-flight response died: drop the
    /// partially parsed response and report where a reconnect should
    /// resume. Returns None when no request was outstanding. The
    /// request stays "issued but not done", so `awaiting_response`
    /// keeps gating until the resumed response completes.
    pub fn disconnect(&mut self) -> Option<ResumePlan> {
        let file = self.current_file?;
        let wire_got = match (self.body_total, self.body_remaining) {
            (Some(total), Some(rem)) => total - rem,
            // Header not (fully) received: restart from scratch.
            _ => 0,
        };
        // Only whole in-order records are safely consumable by the
        // client; resume at the last record boundary. Plaintext bodies
        // use the same granularity because the server floors range
        // starts to record boundaries (keeps encrypted re-framing
        // aligned with disk reads).
        let offset = if self.current_encrypted {
            (wire_got / RECORD_WIRE) * RECORD_PAYLOAD_MAX
        } else {
            (wire_got / RECORD_PAYLOAD_MAX) * RECORD_PAYLOAD_MAX
        };
        if self.body_remaining.is_some() || !self.header_buf.is_empty() {
            self.responses_abandoned += 1;
        }
        self.body_remaining = None;
        self.body_total = None;
        self.header_buf.clear();
        Some(ResumePlan { file, offset })
    }

    /// A 503 arrived: take the server-requested backoff (ms). The
    /// caller should re-send a GET for `current_file()` after waiting.
    pub fn take_retry_after(&mut self) -> Option<u64> {
        self.retry_after_pending.take()
    }

    /// Is a response currently outstanding?
    #[must_use]
    pub fn awaiting_response(&self) -> bool {
        self.body_remaining.is_some() || !self.header_buf.is_empty() || {
            self.requests_issued > self.responses_done
        }
    }

    /// Consume received stream bytes. Returns the number of
    /// *responses completed* by this data (each completion means the
    /// driver should send the next request). Body bytes are counted
    /// where they arrive; only a head split across calls is carried
    /// over, and only its own bytes.
    pub fn on_bytes(&mut self, mut data: &[u8]) -> u64 {
        let mut completed = 0;
        while !data.is_empty() {
            match self.body_remaining {
                Some(rem) => {
                    let n = rem.min(data.len() as u64);
                    self.body_bytes += n;
                    data = &data[n as usize..];
                    let left = rem - n;
                    if left == 0 {
                        self.body_remaining = None;
                        self.body_total = None;
                        self.current_file = None;
                        self.responses_done += 1;
                        completed += 1;
                    } else {
                        self.body_remaining = Some(left);
                    }
                }
                None => {
                    if self.header_buf.ends_with(HEAD_END) {
                        // A complete head that did not parse: the
                        // stream is unreadable until the connection
                        // is dropped.
                        break;
                    }
                    let Some(end) = head_end(&self.header_buf, data) else {
                        self.header_buf.extend_from_slice(data);
                        break;
                    };
                    self.header_buf.extend_from_slice(&data[..end]);
                    data = &data[end..];
                    let Some(head) = scan_response_head(&self.header_buf) else {
                        break;
                    };
                    self.header_buf.clear();
                    self.current_encrypted = head.encrypted;
                    let cl = head.content_length;
                    if head.status == 503 {
                        // Load shed: the request stays outstanding
                        // (`current_file` keeps the file to retry)
                        // and we honour the server's backoff.
                        self.rejections_503 += 1;
                        self.retry_after_pending = Some(head.retry_after_ms.unwrap_or(1000));
                    } else if cl == 0 {
                        self.current_file = None;
                        self.responses_done += 1;
                        completed += 1;
                    } else {
                        self.body_remaining = Some(cl);
                        self.body_total = Some(cl);
                    }
                }
            }
        }
        completed
    }
}

/// The blank line that ends a response head.
const HEAD_END: &[u8] = b"\r\n\r\n";

/// How many bytes of `data` complete the head whose first bytes are
/// `carry`, or None when `data` does not reach its end.
fn head_end(carry: &[u8], data: &[u8]) -> Option<usize> {
    // The blank line may straddle the two: `k` of its bytes in `data`.
    let straddle = (1..HEAD_END.len()).find(|&k| {
        k <= data.len()
            && carry.ends_with(&HEAD_END[..HEAD_END.len() - k])
            && data.starts_with(&HEAD_END[HEAD_END.len() - k..])
    });
    straddle.or_else(|| {
        data.windows(HEAD_END.len())
            .position(|w| w == HEAD_END)
            .map(|i| i + HEAD_END.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::{response_header, ResponseInfo};

    #[test]
    fn completes_response_across_fragments() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(1));
        let _f = d.next_file();
        let mut stream = response_header(ResponseInfo::Ok { body_len: 1000 }, false);
        stream.extend_from_slice(&vec![7u8; 1000]);
        let mid = stream.len() / 2;
        assert_eq!(d.on_bytes(&stream[..mid]), 0);
        assert_eq!(d.on_bytes(&stream[mid..]), 1);
        assert_eq!(d.body_bytes, 1000);
        assert_eq!(d.responses_done, 1);
    }

    #[test]
    fn back_to_back_responses_in_one_burst() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(1));
        let mut stream = Vec::new();
        for _ in 0..3 {
            stream.extend(response_header(ResponseInfo::Ok { body_len: 10 }, false));
            stream.extend_from_slice(&[0u8; 10]);
        }
        assert_eq!(d.on_bytes(&stream), 3);
    }

    #[test]
    fn uncachable_spreads_over_catalog() {
        let mut d = RequestDriver::uncachable(1_000_000, SimRng::new(2));
        let distinct: std::collections::HashSet<u64> = (0..1000).map(|_| d.next_file().0).collect();
        assert!(distinct.len() > 990, "uniform over 1M files ⇒ few repeats");
    }

    #[test]
    fn cacheable_stays_in_hot_set() {
        let mut d = RequestDriver::cacheable(1_000_000, 50, SimRng::new(2));
        for _ in 0..1000 {
            assert!(d.next_file().0 < 50);
        }
    }

    #[test]
    fn disconnect_mid_body_resumes_at_record_boundary() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(1));
        let f = d.next_file();
        // Encrypted 300 KiB body; deliver header + 2.5 wire records.
        let mut stream = response_header(
            ResponseInfo::Ok {
                body_len: 300 * 1024,
            },
            true,
        );
        let hl = stream.len();
        stream.extend_from_slice(&vec![0u8; (2 * RECORD_WIRE + RECORD_WIRE / 2) as usize]);
        assert_eq!(d.on_bytes(&stream), 0);
        let plan = d.disconnect().unwrap();
        assert_eq!(plan.file, f);
        assert_eq!(plan.offset, 2 * RECORD_PAYLOAD_MAX);
        assert_eq!(d.responses_abandoned, 1);
        assert!(d.awaiting_response(), "request still outstanding");
        // The resumed (partial) response then completes normally.
        let mut resumed = response_header(
            ResponseInfo::Partial {
                body_len: 300 * 1024 - plan.offset,
                offset: plan.offset,
            },
            true,
        );
        let wire = crate::response::encrypted_body_len(300 * 1024 - plan.offset);
        resumed.extend_from_slice(&vec![0u8; wire as usize]);
        assert_eq!(d.on_bytes(&resumed), 1);
        assert!(!d.awaiting_response());
        let _ = hl;
    }

    #[test]
    fn disconnect_before_header_restarts_from_zero() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(3));
        let f = d.next_file();
        d.on_bytes(b"HTTP/1.1 200 OK\r\nConte"); // torn header
        let plan = d.disconnect().unwrap();
        assert_eq!(plan, ResumePlan { file: f, offset: 0 });
        assert_eq!(d.responses_abandoned, 1);
    }

    #[test]
    fn disconnect_with_nothing_outstanding_is_none() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(3));
        assert!(d.disconnect().is_none());
        let _f = d.next_file();
        let h = response_header(ResponseInfo::Ok { body_len: 5 }, false);
        d.on_bytes(&h);
        d.on_bytes(&[0u8; 5]);
        assert!(d.disconnect().is_none(), "completed response, idle conn");
        assert_eq!(d.responses_abandoned, 0);
    }

    #[test]
    fn plaintext_disconnect_floors_to_record_size() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(4));
        let _f = d.next_file();
        let mut stream = response_header(
            ResponseInfo::Ok {
                body_len: 300 * 1024,
            },
            false,
        );
        stream.extend_from_slice(&vec![0u8; 50_000]);
        d.on_bytes(&stream);
        let plan = d.disconnect().unwrap();
        assert_eq!(
            plan.offset,
            (50_000 / RECORD_PAYLOAD_MAX) * RECORD_PAYLOAD_MAX
        );
    }

    #[test]
    fn rejected_503_keeps_request_outstanding_for_retry() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(9));
        let f = d.next_file();
        let h = response_header(
            ResponseInfo::ServiceUnavailable { retry_after_ms: 75 },
            false,
        );
        assert_eq!(d.on_bytes(&h), 0, "a shed request does not complete");
        assert_eq!(d.rejections_503, 1);
        assert_eq!(d.take_retry_after(), Some(75));
        assert_eq!(d.take_retry_after(), None, "backoff consumed once");
        assert_eq!(d.current_file(), Some(f), "same file retried");
        assert!(d.awaiting_response());
        // The retried request is eventually served normally.
        let mut ok = response_header(ResponseInfo::Ok { body_len: 10 }, false);
        ok.extend_from_slice(&[0u8; 10]);
        assert_eq!(d.on_bytes(&ok), 1);
        assert!(!d.awaiting_response());
    }

    /// One response of a scripted stream and what it should do to the
    /// driver once its last byte arrives.
    struct Scripted {
        bytes: Vec<u8>,
        completes: bool,
        body: u64,
    }

    fn scripted(info: ResponseInfo, encrypted: bool) -> Scripted {
        let mut bytes = response_header(info, encrypted);
        let body = match info.body() {
            Some((_, len)) if encrypted => crate::response::encrypted_body_len(len),
            Some((_, len)) => len,
            None => 0,
        };
        bytes.extend((0..body).map(|i| (i % 251) as u8));
        Scripted {
            bytes,
            completes: !matches!(info, ResponseInfo::ServiceUnavailable { .. }),
            body,
        }
    }

    /// 200, a shed 503 with Retry-After, an encrypted 206, a zero-length
    /// body, two small back-to-back responses and a 64 KiB body.
    fn script() -> Vec<Scripted> {
        vec![
            scripted(ResponseInfo::Ok { body_len: 1000 }, false),
            scripted(
                ResponseInfo::ServiceUnavailable {
                    retry_after_ms: 250,
                },
                false,
            ),
            scripted(
                ResponseInfo::Partial {
                    body_len: 300 * 1024,
                    offset: 16 * 1024,
                },
                true,
            ),
            scripted(ResponseInfo::Ok { body_len: 0 }, false),
            scripted(ResponseInfo::Ok { body_len: 10 }, false),
            scripted(ResponseInfo::Ok { body_len: 10 }, false),
            scripted(
                ResponseInfo::Ok {
                    body_len: 64 * 1024,
                },
                false,
            ),
        ]
    }

    /// Feed the scripted stream cut at `cuts` and check each call's
    /// completions and the driver's totals against the script.
    fn feed(cuts: &[usize]) -> (u64, u64, u64, Option<u64>) {
        let script = script();
        let mut ends = Vec::new();
        let mut stream = Vec::new();
        for r in &script {
            stream.extend_from_slice(&r.bytes);
            ends.push((stream.len(), r.completes));
        }
        let mut d = RequestDriver::uncachable(100, SimRng::new(1));
        let mut at = 0;
        for &cut in cuts.iter().chain(std::iter::once(&stream.len())) {
            let cut = cut.clamp(at, stream.len());
            let got = d.on_bytes(&stream[at..cut]);
            let want = ends
                .iter()
                .filter(|&&(e, done)| done && e > at && e <= cut)
                .count() as u64;
            assert_eq!(got, want, "completions of bytes {at}..{cut}");
            at = cut;
        }
        assert!(!d.awaiting_response() || d.requests_issued > d.responses_done);
        assert_eq!(d.body_bytes, script.iter().map(|r| r.body).sum::<u64>());
        (
            d.responses_done,
            d.body_bytes,
            d.rejections_503,
            d.take_retry_after(),
        )
    }

    #[test]
    fn head_parsing_is_invariant_to_how_the_stream_is_cut() {
        let len: usize = script().iter().map(|r| r.bytes.len()).sum();
        let whole = feed(&[]);
        let body = 1000 + crate::response::encrypted_body_len(300 * 1024) + 20 + 64 * 1024;
        assert_eq!(whole, (6, body, 1, Some(250)));
        assert_eq!(feed(&(1..len).collect::<Vec<_>>()), whole, "byte by byte");
        for seed in 0..20 {
            let mut rng = SimRng::new(seed);
            let mut cuts = Vec::new();
            let mut at = 0;
            while at < len {
                // Mostly short cuts, so heads and blank lines straddle
                // calls, plus some that span whole responses.
                at += if rng.next_f64() < 0.8 {
                    rng.gen_range(1, 40)
                } else {
                    rng.gen_range(1, 100_000)
                } as usize;
                cuts.push(at);
            }
            assert_eq!(feed(&cuts), whole, "seed {seed}");
        }
    }

    #[test]
    fn head_carry_stays_within_the_head() {
        let head = response_header(ResponseInfo::Ok { body_len: 1 << 20 }, false);
        let body = vec![0u8; 64 * 1024];
        // Whole, then split across two bursts: either way the carry
        // holds the head's own bytes only.
        let (first, second) = head.split_at(head.len() / 2);
        for bursts in [vec![&head[..0], &head[..]], vec![first, second]] {
            let mut d = RequestDriver::uncachable(100, SimRng::new(1));
            d.on_bytes(bursts[0]);
            let mut burst = bursts[1].to_vec();
            burst.extend_from_slice(&body);
            assert_eq!(d.on_bytes(&burst), 0);
            assert!(d.header_buf.is_empty());
            assert!(
                d.header_buf.capacity() <= 2 * head.len(),
                "carry kept {} bytes for a {}-byte head",
                d.header_buf.capacity(),
                head.len()
            );
            assert_eq!(d.body_bytes, body.len() as u64);
        }
    }

    #[test]
    fn unparsable_head_stalls_the_stream() {
        let mut d = RequestDriver::uncachable(100, SimRng::new(1));
        let _f = d.next_file();
        assert_eq!(d.on_bytes(b"HTTP/1.1 200 OK\r\n\r\nbody"), 0);
        assert_eq!(
            d.on_bytes(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"),
            0
        );
        assert_eq!(d.body_bytes, 0);
        assert!(d.awaiting_response());
        assert!(d.disconnect().is_some());
        assert_eq!(d.responses_abandoned, 1);
    }

    #[test]
    fn encrypted_flag_surfaces() {
        let mut d = RequestDriver::uncachable(10, SimRng::new(1));
        let h = response_header(ResponseInfo::Ok { body_len: 100 }, true);
        d.on_bytes(&h);
        assert!(d.current_encrypted);
    }
}
