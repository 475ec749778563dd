//! Incremental HTTP/1.1 request parser.

/// A parsed GET request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpRequest {
    pub path: String,
    /// `Connection: close` requested (default for HTTP/1.1 is
    /// keep-alive).
    pub close: bool,
    /// Open-ended range request (`Range: bytes=N-`): resume the body
    /// at plaintext offset N. Used by clients reconnecting to a
    /// replica after their server died mid-stream. Other range forms
    /// are ignored (full response served).
    pub range_start: Option<u64>,
}

/// Parse failures (connection-fatal, as in nginx).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HttpError {
    BadRequestLine,
    UnsupportedMethod,
    HeaderTooLarge,
    RequestLineTooLong,
}

/// Hard cap on a request head (request line + all headers). Anything
/// larger is rejected (the server answers 431) before it can pin server
/// memory — the parser never buffers past this.
pub const MAX_HEADER: usize = 8 * 1024;
/// Cap on the request line alone (nginx: large_client_header_buffers).
pub const MAX_REQUEST_LINE: usize = 2 * 1024;

/// Accumulates bytes until full request heads are available.
/// Pipelined requests are surfaced one per call. The first parse error
/// is final: the stream has no request boundary left to resynchronize
/// on, so the parser drops its buffer and ignores everything after.
#[derive(Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    failed: bool,
}

impl RequestParser {
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed received bytes.
    pub fn push(&mut self, data: &[u8]) {
        if !self.failed {
            self.buf.extend_from_slice(data);
        }
    }

    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to extract the next complete request. After an error
    /// every later call returns `Ok(None)`.
    pub fn next_request(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        if self.failed {
            return Ok(None);
        }
        let next = self.parse_head();
        if next.is_err() {
            self.failed = true;
            self.buf = Vec::new();
        }
        next
    }

    fn parse_head(&mut self) -> Result<Option<HttpRequest>, HttpError> {
        let Some(end) = find_double_crlf(&self.buf) else {
            if self.buf.len() > MAX_HEADER {
                return Err(HttpError::HeaderTooLarge);
            }
            // No complete head yet, but an unterminated first line can
            // already be over the cap — reject early instead of
            // buffering a slowly trickled oversized request line.
            if find_crlf(&self.buf).is_none() && self.buf.len() > MAX_REQUEST_LINE {
                return Err(HttpError::RequestLineTooLong);
            }
            return Ok(None);
        };
        if end > MAX_HEADER {
            // A complete head can still be oversized when it arrives
            // in one push (the no-terminator check above never saw it).
            return Err(HttpError::HeaderTooLarge);
        }
        let head = &self.buf[..end];
        if find_crlf(head).unwrap_or(head.len()) > MAX_REQUEST_LINE {
            return Err(HttpError::RequestLineTooLong);
        }
        let text = std::str::from_utf8(head).map_err(|_| HttpError::BadRequestLine)?;
        let mut lines = text.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::BadRequestLine)?;
        let mut parts = request_line.split(' ');
        let method = parts.next().ok_or(HttpError::BadRequestLine)?;
        let path = parts.next().ok_or(HttpError::BadRequestLine)?;
        let version = parts.next().ok_or(HttpError::BadRequestLine)?;
        if method != "GET" {
            return Err(HttpError::UnsupportedMethod);
        }
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::BadRequestLine);
        }
        let mut close = false;
        let mut range_start = None;
        for line in lines {
            if let Some((k, v)) = line.split_once(':') {
                if k.eq_ignore_ascii_case("connection") && v.trim().eq_ignore_ascii_case("close") {
                    close = true;
                } else if k.eq_ignore_ascii_case("range") {
                    range_start = parse_range_start(v.trim());
                }
            }
        }
        let req = HttpRequest {
            path: path.to_string(),
            close,
            range_start,
        };
        self.buf.drain(..end + 4);
        Ok(Some(req))
    }
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// `bytes=N-` → Some(N); any other range form is unsupported.
fn parse_range_start(v: &str) -> Option<u64> {
    let spec = v.strip_prefix("bytes=")?;
    let start = spec.strip_suffix('-')?;
    start.parse().ok()
}

/// Build a GET request (what the client fleet sends).
#[must_use]
pub fn build_get(path: &str, host: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: dcn-weighttp/0.1\r\n\r\n")
        .into_bytes()
}

/// Build a resuming GET: `Range: bytes=start-` asks the server to
/// serve the body from plaintext offset `start` to the end.
#[must_use]
pub fn build_get_range(path: &str, host: &str, start: u64) -> Vec<u8> {
    format!(
        "GET {path} HTTP/1.1\r\nHost: {host}\r\nUser-Agent: dcn-weighttp/0.1\r\n\
         Range: bytes={start}-\r\n\r\n"
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_complete_request() {
        let mut p = RequestParser::new();
        p.push(&build_get("/chunk/42", "cdn.example"));
        let r = p.next_request().unwrap().unwrap();
        assert_eq!(r.path, "/chunk/42");
        assert!(!r.close);
        assert!(p.next_request().unwrap().is_none());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn handles_split_arrival() {
        let req = build_get("/chunk/7", "h");
        let mut p = RequestParser::new();
        p.push(&req[..10]);
        assert!(p.next_request().unwrap().is_none());
        p.push(&req[10..]);
        assert_eq!(p.next_request().unwrap().unwrap().path, "/chunk/7");
    }

    #[test]
    fn handles_pipelined_requests() {
        let mut p = RequestParser::new();
        p.push(&build_get("/chunk/1", "h"));
        p.push(&build_get("/chunk/2", "h"));
        assert_eq!(p.next_request().unwrap().unwrap().path, "/chunk/1");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/chunk/2");
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn range_request_round_trips() {
        let mut p = RequestParser::new();
        p.push(&build_get_range("/chunk/9", "h", 163_840));
        let r = p.next_request().unwrap().unwrap();
        assert_eq!(r.path, "/chunk/9");
        assert_eq!(r.range_start, Some(163_840));
    }

    #[test]
    fn plain_get_has_no_range() {
        let mut p = RequestParser::new();
        p.push(&build_get("/chunk/9", "h"));
        assert_eq!(p.next_request().unwrap().unwrap().range_start, None);
    }

    #[test]
    fn unsupported_range_forms_ignored() {
        for v in ["bytes=0-99", "bytes=-500", "records=3-"] {
            let mut p = RequestParser::new();
            p.push(format!("GET /x HTTP/1.1\r\nRange: {v}\r\n\r\n").as_bytes());
            assert_eq!(p.next_request().unwrap().unwrap().range_start, None);
        }
    }

    #[test]
    fn connection_close_detected() {
        let mut p = RequestParser::new();
        p.push(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(p.next_request().unwrap().unwrap().close);
    }

    #[test]
    fn rejects_non_get() {
        let mut p = RequestParser::new();
        p.push(b"POST /x HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request(), Err(HttpError::UnsupportedMethod));
    }

    #[test]
    fn rejects_garbage() {
        let mut p = RequestParser::new();
        p.push(b"\xff\xfe\x00bogus\r\n\r\n");
        assert!(p.next_request().is_err());
    }

    #[test]
    fn oversized_header_rejected() {
        let mut p = RequestParser::new();
        p.push(&vec![b'a'; 9000]);
        assert_eq!(p.next_request(), Err(HttpError::HeaderTooLarge));
    }

    #[test]
    fn first_error_ends_the_stream() {
        let mut p = RequestParser::new();
        p.push(b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/a");
        assert_eq!(p.next_request(), Err(HttpError::UnsupportedMethod));
        p.push(b"GET /c HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request(), Ok(None));
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn oversized_complete_head_in_one_push_rejected() {
        // Terminated head over the cap, delivered whole: the
        // no-terminator path never fires, the explicit end-check must.
        let mut req = b"GET /x HTTP/1.1\r\n".to_vec();
        while req.len() <= MAX_HEADER {
            req.extend_from_slice(b"X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        req.extend_from_slice(b"\r\n");
        let mut p = RequestParser::new();
        p.push(&req);
        assert_eq!(p.next_request(), Err(HttpError::HeaderTooLarge));
    }

    #[test]
    fn oversized_request_line_rejected_before_terminator() {
        let mut p = RequestParser::new();
        let mut line = b"GET /".to_vec();
        line.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 100));
        p.push(&line); // no CRLF yet
        assert_eq!(p.next_request(), Err(HttpError::RequestLineTooLong));
    }

    #[test]
    fn oversized_request_line_with_valid_headers_rejected() {
        let mut p = RequestParser::new();
        let mut req = b"GET /".to_vec();
        req.extend(std::iter::repeat_n(b'b', MAX_REQUEST_LINE));
        req.extend_from_slice(b" HTTP/1.1\r\nHost: h\r\n\r\n");
        p.push(&req);
        assert_eq!(p.next_request(), Err(HttpError::RequestLineTooLong));
    }

    #[test]
    fn request_line_just_under_cap_parses() {
        let path_len = MAX_REQUEST_LINE - "GET  HTTP/1.1".len() - 1;
        let path: String = std::iter::repeat_n('p', path_len).collect();
        let mut p = RequestParser::new();
        p.push(format!("GET /{} HTTP/1.1\r\n\r\n", &path[1..]).as_bytes());
        assert!(p.next_request().unwrap().is_some());
    }

    // ---- malformed-request property tests: whatever arrives, the ----
    // ---- parser returns Ok/Err without panicking or unbounded buf ----

    #[test]
    fn prop_truncated_requests_never_panic() {
        let req = build_get_range("/chunk/123456", "host.example", 98_304);
        for cut in 0..req.len() {
            let mut p = RequestParser::new();
            p.push(&req[..cut]);
            let _ = p.next_request();
            p.push(&req[cut..]);
            assert_eq!(p.next_request().unwrap().unwrap().path, "/chunk/123456");
        }
    }

    #[test]
    fn prop_random_garbage_never_panics() {
        let mut rng = dcn_simcore::SimRng::new(0x6A5F);
        for trial in 0..200 {
            let mut p = RequestParser::new();
            let n = rng.gen_range(1, 12_000) as usize;
            let mut junk = vec![0u8; n];
            for b in &mut junk {
                *b = rng.next_u64() as u8;
            }
            // Interleave garbage in random-sized pushes.
            let mut off = 0;
            while off < junk.len() {
                let step = rng.gen_range(1, 700) as usize;
                let end = (off + step).min(junk.len());
                p.push(&junk[off..end]);
                let _ = p.next_request(); // must not panic
                off = end;
            }
            // Buffer stays bounded: either an error was surfaced or
            // we're still under the cap waiting for a terminator.
            assert!(
                p.buffered() <= MAX_HEADER + 12_000,
                "trial {trial}: unbounded buffering"
            );
        }
    }

    #[test]
    fn prop_garbage_interleaved_with_valid_requests() {
        let mut rng = dcn_simcore::SimRng::new(0xBEEF);
        for _ in 0..100 {
            let mut p = RequestParser::new();
            let mut junk = vec![0u8; rng.gen_range(1, 64) as usize];
            for b in &mut junk {
                *b = rng.next_u64() as u8;
            }
            // Valid request, then garbage fused onto the stream: the
            // valid one parses, the garbage errors or waits — no panic.
            p.push(&build_get("/chunk/1", "h"));
            p.push(&junk);
            assert_eq!(p.next_request().unwrap().unwrap().path, "/chunk/1");
            let _ = p.next_request();
        }
    }

    #[test]
    fn prop_byte_at_a_time_arrival() {
        let req = build_get("/chunk/77", "h");
        let mut p = RequestParser::new();
        for &b in &req {
            p.push(&[b]);
            if let Ok(Some(r)) = p.next_request() {
                assert_eq!(r.path, "/chunk/77");
                return;
            }
        }
        panic!("request never parsed");
    }
}
