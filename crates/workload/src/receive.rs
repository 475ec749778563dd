//! The client receive path both fleets share.
//!
//! A burst of frames goes through the connection's TCP receiver into
//! one fleet-owned delivery buffer, the ACKs become wire frames, and
//! the delivered bytes go to the request driver and — at full
//! fidelity — the stream verifier. Payloads stay borrowed from their
//! frames up to the delivery buffer, and the verifier checks them
//! there, so no client keeps a copy of a burst once it is processed.

use crate::verify::{Expected, StreamVerifier, VerifyStats};
use dcn_crypto::RecordCipher;
use dcn_httpd::RequestDriver;
use dcn_netdev::{parse_frame, PayloadBytes, WireFrame};
use dcn_simcore::Nanos;
use dcn_store::{AbrManifest, Catalog};
use dcn_tcpstack::{client::ClientFrame, ClientConn};
use std::collections::VecDeque;

/// One client connection's receive side: the TCP receiver, the
/// session cipher, and the verifier with the responses it expects.
pub(crate) struct ClientStream {
    pub(crate) conn: ClientConn,
    pub(crate) cipher: RecordCipher,
    pub(crate) verifier: StreamVerifier,
    /// Requested files, front = response currently arriving.
    pub(crate) outstanding: VecDeque<Expected>,
}

impl ClientStream {
    /// Wrap a fresh connection. The session key is derived from the
    /// flow the same way the server derives it (§4.2's TLS emulation:
    /// handshake out of scope, keys pre-shared). ABR fleets that
    /// verify check every response against the manifest too.
    pub(crate) fn new(conn: ClientConn, manifest: Option<&AbrManifest>, verify: bool) -> Self {
        let flow = conn.flow();
        let mut key = [0u8; 16];
        dcn_simcore::prf_bytes(u64::from(flow.rss_hash()) ^ 0x6B65_7931, 0, &mut key);
        let verifier = match (manifest, verify) {
            (Some(m), true) => StreamVerifier::with_manifest(m.clone()),
            _ => StreamVerifier::new(),
        };
        ClientStream {
            conn,
            cipher: RecordCipher::new(&key, flow.rss_hash()),
            verifier,
            outstanding: VecDeque::new(),
        }
    }
}

/// What the application saw of a burst that delivered stream bytes.
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
    /// the application made of them. With `oracle` set, every
    /// delivered byte is verified into its stats.
    pub(crate) fn on_burst(
        &mut self,
        now: Nanos,
        frames: &[WireFrame],
        stream: &mut ClientStream,
        driver: &mut RequestDriver,
        oracle: Option<(&Catalog, &mut VerifyStats)>,
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
        if let Some((catalog, stats)) = oracle {
            stream.verifier.push(
                &self.inbox,
                &mut stream.outstanding,
                catalog,
                &stream.cipher,
                stats,
            );
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
