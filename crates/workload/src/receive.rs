//! A client connection and its receive path.
//!
//! A connection sends GETs (plain, or ranged to resume mid-file) and
//! queues each response its oracle should expect.
//!
//! A burst of frames goes through the connection's TCP receiver into
//! one fleet-owned delivery buffer, the ACKs become wire frames, and
//! the delivered bytes go to the request driver and — when the fleet
//! verifies — the connection's oracle. Payloads stay borrowed from
//! their frames up to the delivery buffer, and the verifier checks them
//! there, so no client keeps a copy of a burst once it is processed.

use crate::verify::{Expected, StreamVerifier, VerifyStats};
use dcn_crypto::RecordCipher;
use dcn_httpd::{
    chunk_path,
    parser::{build_get, build_get_range},
    RequestDriver,
};
use dcn_netdev::{parse_frame, PayloadBytes, WireFrame};
use dcn_simcore::Nanos;
use dcn_store::{AbrManifest, Catalog, FileId};
use dcn_tcpstack::{
    client::{ClientFrame, ClientState},
    ClientConn,
};
use std::collections::VecDeque;
use std::rc::Rc;

/// One client connection: the TCP endpoint and, when the fleet
/// verifies, its oracle.
pub struct ClientStream {
    pub(crate) conn: ClientConn,
    /// Present only when the fleet verifies (full fidelity). Boxed: a
    /// modeled run's connections carry 8 B instead of its 560.
    pub(crate) oracle: Option<Box<Oracle>>,
}

/// What checks one connection's delivered bytes: the session cipher,
/// and the verifier with the responses it expects.
pub(crate) struct Oracle {
    cipher: RecordCipher,
    verifier: StreamVerifier,
    /// Requested files, front = response currently arriving.
    outstanding: VecDeque<Expected>,
}

impl ClientStream {
    /// Wrap a fresh connection, with an oracle if the fleet verifies.
    /// Its session key is derived from the flow the same way the
    /// server derives it (§4.2's TLS emulation: handshake out of
    /// scope, keys pre-shared). ABR fleets also check every response
    /// against the manifest.
    pub(crate) fn new(conn: ClientConn, manifest: Option<&Rc<AbrManifest>>, verify: bool) -> Self {
        let oracle = verify.then(|| {
            Box::new(Oracle {
                cipher: dcn_srvcore::session_cipher(conn.flow()),
                verifier: manifest.map_or_else(StreamVerifier::new, |m| {
                    StreamVerifier::with_manifest(Rc::clone(m))
                }),
                outstanding: VecDeque::new(),
            })
        });
        ClientStream { conn, oracle }
    }

    /// Send the GET for `exp` and verify its response after those
    /// already expected.
    pub(crate) fn request(&mut self, exp: Expected) -> WireFrame {
        if let Some(oracle) = self.oracle.as_mut() {
            oracle.outstanding.push_back(exp);
        }
        self.get(exp.file, exp.base)
    }

    pub(crate) fn established(&self) -> bool {
        matches!(self.conn.state, ClientState::Established)
    }

    /// Send a GET for `file` from plaintext offset `base` (a range
    /// request when it resumes mid-file). A 503 retry re-sends one
    /// this way: the response it expects is already queued.
    pub(crate) fn get(&mut self, file: FileId, base: u64) -> WireFrame {
        let path = chunk_path(file);
        let req = if base > 0 {
            build_get_range(&path, "cdn.test", base)
        } else {
            build_get(&path, "cdn.test")
        };
        frame_of(self.conn.send(req))
    }
}

/// What the application saw of a burst that delivered stream bytes.
#[derive(Default)]
pub(crate) struct Delivered {
    /// Response-body bytes (headers excluded).
    pub(crate) body_bytes: u64,
    /// Responses the burst completed.
    pub(crate) completed: u64,
}

/// The delivery buffer a fleet reuses for every burst of every
/// client; it holds one burst's in-order bytes at a time.
#[derive(Default)]
pub(crate) struct Receiver {
    inbox: Vec<u8>,
}

impl Receiver {
    /// Run one burst through `stream` and `driver`. Returns the ACK
    /// frames to send and, if the burst delivered stream bytes, what
    /// the application made of them. A stream with an oracle verifies
    /// every delivered byte into `stats`.
    pub(crate) fn on_burst(
        &mut self,
        now: Nanos,
        frames: &[WireFrame],
        stream: &mut ClientStream,
        driver: &mut RequestDriver,
        catalog: &Catalog,
        stats: &mut VerifyStats,
    ) -> (Vec<WireFrame>, Option<Delivered>) {
        let segments = frames
            .iter()
            .filter_map(|f| parse_frame(f).map(|(_, tcp, payload)| (tcp, payload)));
        let acks = stream.conn.on_burst(now, segments, &mut self.inbox);
        let acks = acks.into_iter().map(frame_of).collect();
        if self.inbox.is_empty() {
            return (acks, None);
        }
        let body_before = driver.body_bytes;
        let completed = driver.on_bytes(&self.inbox);
        if let Some(o) = stream.oracle.as_mut() {
            o.verifier
                .push(&self.inbox, &mut o.outstanding, catalog, &o.cipher, stats);
        }
        let delivered = Delivered {
            body_bytes: driver.body_bytes - body_before,
            completed,
        };
        (acks, Some(delivered))
    }
}

/// A client frame as it enters the network.
pub(crate) fn frame_of(f: ClientFrame) -> WireFrame {
    WireFrame::single(f.headers, PayloadBytes::Real(f.payload))
}
