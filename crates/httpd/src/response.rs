//! HTTP response header construction.
//!
//! Headers are always plaintext on the wire (even for "TLS" runs,
//! matching the paper's measurement setup §4.2); the body follows —
//! raw file content for plaintext runs, GCM-sealed records for
//! encrypted ones.

use dcn_crypto::{GCM_TAG_LEN, RECORD_HEADER_LEN, RECORD_PAYLOAD_MAX};

/// What the server decided about a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResponseInfo {
    /// Serve this many body bytes (the chunk size).
    Ok {
        body_len: u64,
    },
    /// Range resume: serve `body_len` body bytes starting at plaintext
    /// file offset `offset` (206). Record framing restarts at the
    /// response body, so the wire length formula matches `Ok`.
    Partial {
        body_len: u64,
        offset: u64,
    },
    NotFound,
    /// 416: the `Range` starts at or past the end of a file of `size`
    /// bytes (RFC 9110 §15.5.17). No body; `Content-Range: bytes
    /// */size` tells the client the current length.
    RangeNotSatisfiable {
        size: u64,
    },
    /// Load shed: the server is over its admission watermarks and
    /// refuses the request. `Retry-After` tells a well-behaved client
    /// when to knock again (milliseconds surfaced via
    /// `X-Retry-After-Ms`; the standard header carries whole seconds,
    /// rounded up).
    ServiceUnavailable {
        retry_after_ms: u64,
    },
    /// 431-style reject for oversized request lines / header blocks.
    /// The server stops parsing that request stream but keeps the
    /// socket; its idle deadlines bound how long it lives.
    HeaderTooLarge,
}

impl ResponseInfo {
    /// `(file offset, body length)` of the body a 200/206 carries;
    /// `None` for the bodiless answers.
    #[must_use]
    pub fn body(self) -> Option<(u64, u64)> {
        match self {
            ResponseInfo::Ok { body_len } => Some((0, body_len)),
            ResponseInfo::Partial { body_len, offset } => Some((offset, body_len)),
            _ => None,
        }
    }
}

/// Build the response header block.
#[must_use]
pub fn response_header(info: ResponseInfo, encrypted: bool) -> Vec<u8> {
    match info {
        ResponseInfo::Ok { body_len } => {
            // Encrypted bodies are longer on the wire (record framing
            // + GCM tags); Content-Length describes the wire body so
            // the client knows when the response ends.
            let wire_len = if encrypted {
                crate::response::encrypted_body_len(body_len)
            } else {
                body_len
            };
            format!(
                "HTTP/1.1 200 OK\r\nServer: atlas/0.1\r\nContent-Type: video/mp4\r\n\
                 Content-Length: {wire_len}\r\nX-Body-Encrypted: {}\r\n\r\n",
                if encrypted { "1" } else { "0" }
            )
            .into_bytes()
        }
        ResponseInfo::Partial { body_len, offset } => {
            let wire_len = if encrypted {
                crate::response::encrypted_body_len(body_len)
            } else {
                body_len
            };
            // Content-Range carries plaintext offsets; Content-Length
            // stays the wire body length so the client scanner works
            // identically for full and partial responses.
            let last = offset + body_len.saturating_sub(1);
            format!(
                "HTTP/1.1 206 Partial Content\r\nServer: atlas/0.1\r\nContent-Type: video/mp4\r\n\
                 Content-Range: bytes {offset}-{last}/*\r\n\
                 Content-Length: {wire_len}\r\nX-Body-Encrypted: {}\r\n\r\n",
                if encrypted { "1" } else { "0" }
            )
            .into_bytes()
        }
        ResponseInfo::NotFound => b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n".to_vec(),
        ResponseInfo::RangeNotSatisfiable { size } => format!(
            "HTTP/1.1 416 Range Not Satisfiable\r\nServer: atlas/0.1\r\n\
             Content-Range: bytes */{size}\r\nContent-Length: 0\r\n\r\n"
        )
        .into_bytes(),
        ResponseInfo::ServiceUnavailable { retry_after_ms } => format!(
            "HTTP/1.1 503 Service Unavailable\r\nServer: atlas/0.1\r\n\
             Retry-After: {}\r\nX-Retry-After-Ms: {retry_after_ms}\r\n\
             Content-Length: 0\r\n\r\n",
            retry_after_ms.div_ceil(1000).max(1)
        )
        .into_bytes(),
        ResponseInfo::HeaderTooLarge => b"HTTP/1.1 431 Request Header Fields Too Large\r\n\
              Connection: close\r\nContent-Length: 0\r\n\r\n"
            .to_vec(),
    }
}

/// Wire bytes per full record (payload + header + GCM tag).
pub const RECORD_WIRE: u64 = RECORD_PAYLOAD_MAX + RECORD_OVERHEAD;
/// Record framing overhead: 5-byte header + 16-byte GCM tag.
pub const RECORD_OVERHEAD: u64 = (RECORD_HEADER_LEN + GCM_TAG_LEN) as u64;

/// Wire length of an encrypted body: one TLS-style record per
/// RECORD_PAYLOAD_MAX plaintext bytes, each adding header + tag.
#[must_use]
pub fn encrypted_body_len(plain_len: u64) -> u64 {
    let records = plain_len.div_ceil(RECORD_PAYLOAD_MAX).max(1);
    plain_len + records * RECORD_OVERHEAD
}

/// Fully parsed response head (client side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResponseHead {
    pub header_len: usize,
    pub content_length: u64,
    pub encrypted: bool,
    /// HTTP status code from the status line (200, 206, 503, ...).
    pub status: u16,
    /// Server-requested backoff (503 only), in virtual milliseconds.
    pub retry_after_ms: Option<u64>,
}

/// Minimal response-header scanner for the client side: returns
/// (header_len, content_length, encrypted) once the full header block
/// is buffered.
#[must_use]
pub fn scan_response_header(buf: &[u8]) -> Option<(usize, u64, bool)> {
    scan_response_head(buf).map(|h| (h.header_len, h.content_length, h.encrypted))
}

/// Scanner variant that also surfaces the status code and any
/// Retry-After backoff, for clients that react to load shedding.
#[must_use]
pub fn scan_response_head(buf: &[u8]) -> Option<ResponseHead> {
    let end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = std::str::from_utf8(&buf[..end]).ok()?;
    let mut lines = text.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = None;
    let mut encrypted = false;
    let mut retry_after_ms = None;
    let mut retry_after_s = None;
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            if k.eq_ignore_ascii_case("content-length") {
                content_length = v.trim().parse().ok();
            } else if k.eq_ignore_ascii_case("x-body-encrypted") {
                encrypted = v.trim() == "1";
            } else if k.eq_ignore_ascii_case("x-retry-after-ms") {
                retry_after_ms = v.trim().parse().ok();
            } else if k.eq_ignore_ascii_case("retry-after") {
                retry_after_s = v.trim().parse::<u64>().ok();
            }
        }
    }
    Some(ResponseHead {
        header_len: end,
        content_length: content_length?,
        encrypted,
        status,
        retry_after_ms: retry_after_ms.or(retry_after_s.map(|s| s * 1000)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ok_header_round_trips_through_scanner() {
        let h = response_header(
            ResponseInfo::Ok {
                body_len: 300 * 1024,
            },
            false,
        );
        let (hl, cl, enc) = scan_response_header(&h).unwrap();
        assert_eq!(hl, h.len());
        assert_eq!(cl, 300 * 1024);
        assert!(!enc);
    }

    #[test]
    fn encrypted_length_accounts_for_records() {
        // 300 KiB = 18.75 → 19 records of 16 KiB.
        let plain = 300 * 1024;
        let wire = encrypted_body_len(plain);
        assert_eq!(wire, plain + 19 * 21);
        let h = response_header(ResponseInfo::Ok { body_len: plain }, true);
        let (_, cl, enc) = scan_response_header(&h).unwrap();
        assert_eq!(cl, wire);
        assert!(enc);
    }

    #[test]
    fn scanner_waits_for_full_header() {
        let h = response_header(ResponseInfo::Ok { body_len: 10 }, false);
        assert!(scan_response_header(&h[..h.len() - 3]).is_none());
    }

    #[test]
    fn partial_header_scans_like_full() {
        let h = response_header(
            ResponseInfo::Partial {
                body_len: 100 * 1024,
                offset: 200 * 1024,
            },
            true,
        );
        let (hl, cl, enc) = scan_response_header(&h).unwrap();
        assert_eq!(hl, h.len());
        // 100 KiB = 6.25 → 7 records.
        assert_eq!(cl, 100 * 1024 + 7 * 21);
        assert!(enc);
        assert!(std::str::from_utf8(&h).unwrap().contains("206 Partial"));
    }

    #[test]
    fn not_found_has_zero_length() {
        let h = response_header(ResponseInfo::NotFound, false);
        let (_, cl, _) = scan_response_header(&h).unwrap();
        assert_eq!(cl, 0);
    }

    #[test]
    fn range_not_satisfiable_is_zero_length_416_with_size() {
        let h = response_header(ResponseInfo::RangeNotSatisfiable { size: 307_200 }, true);
        let head = scan_response_head(&h).unwrap();
        assert_eq!(head.status, 416);
        assert_eq!(head.content_length, 0);
        assert!(std::str::from_utf8(&h)
            .unwrap()
            .contains("Content-Range: bytes */307200\r\n"));
    }

    #[test]
    fn service_unavailable_round_trips_retry_after() {
        let h = response_header(
            ResponseInfo::ServiceUnavailable {
                retry_after_ms: 250,
            },
            true,
        );
        let head = scan_response_head(&h).unwrap();
        assert_eq!(head.status, 503);
        assert_eq!(head.content_length, 0);
        assert_eq!(head.retry_after_ms, Some(250));
        // The standard header carries whole seconds, rounded up.
        assert!(std::str::from_utf8(&h)
            .unwrap()
            .contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn header_too_large_is_zero_length_431() {
        let h = response_header(ResponseInfo::HeaderTooLarge, false);
        let head = scan_response_head(&h).unwrap();
        assert_eq!(head.status, 431);
        assert_eq!(head.content_length, 0);
    }

    #[test]
    fn scanner_surfaces_status_for_ok_responses() {
        let h = response_header(ResponseInfo::Ok { body_len: 10 }, false);
        let head = scan_response_head(&h).unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.retry_after_ms, None);
    }

    #[test]
    fn retry_after_seconds_fallback_when_ms_header_absent() {
        let h = b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 2\r\nContent-Length: 0\r\n\r\n";
        assert_eq!(scan_response_head(h).unwrap().retry_after_ms, Some(2000));
    }
}
