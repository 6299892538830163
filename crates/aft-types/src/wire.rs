//! The aft-net wire protocol: versioned, length-prefixed request/response
//! frames.
//!
//! AFT is a *shim* fronting storage for many concurrent serverless clients
//! (§2): the service boundary between a client SDK and an AFT node pool is a
//! first-class part of the system, and this module defines its vocabulary.
//! Every message travels as one frame:
//!
//! ```text
//! [u32 LE payload length][payload]
//! payload = [u8 wire version][u8 kind][u64 LE request id][body ...]
//! ```
//!
//! The request id is chosen by the client and echoed verbatim in the
//! response, so a connection may carry many requests concurrently
//! (pipelining) and responses may complete out of order — the id, not frame
//! order, pairs them back up. Kinds `0x01..=0x06` are requests, `0x81..=0x87`
//! are responses; the high bit keeps the namespaces disjoint so a stray
//! response fed to [`decode_request`] fails loudly instead of aliasing.
//!
//! The body reuses the [`codec`](crate::codec) primitives (length-prefixed
//! strings and byte blobs, little-endian integers), and every decode
//! verifies the version byte first and `Reader::expect_end` last, so
//! truncated frames and trailing garbage are both rejected.
//!
//! The verb set mirrors Table 1 plus operability: `Get` / `GetAll` /
//! `Commit` / `Abort` for transactions, `Ping` / `Stats` for health. Writes
//! do not get their own verb: the client SDK buffers a transaction's writes
//! locally (the Atomic Write Buffer of §3.3 starts client-side) and ships
//! the whole write set inside `Commit`, which makes `Commit` a
//! self-contained, *idempotently retryable* message — the server
//! deduplicates on the transaction UUID, so a client whose connection died
//! in §4.2's lost-ack window can resend the identical frame and receive the
//! original outcome.

use bytes::Bytes;

use crate::codec::{Reader, Writer};
use crate::error::{AftError, AftResult};
use crate::key::Key;
use crate::txid::TransactionId;
use crate::value::Value;

/// Version written as the first byte of every frame payload.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on one frame's payload, enforced by both peers before
/// allocating: a corrupted or hostile length prefix must not OOM the
/// process.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

// Request kinds (high bit clear).
const KIND_PING: u8 = 0x01;
const KIND_STATS: u8 = 0x02;
const KIND_GET: u8 = 0x03;
const KIND_GET_ALL: u8 = 0x04;
const KIND_COMMIT: u8 = 0x05;
const KIND_ABORT: u8 = 0x06;

// Response kinds (high bit set).
const KIND_PONG: u8 = 0x81;
const KIND_STATS_REPLY: u8 = 0x82;
const KIND_VALUE: u8 = 0x83;
const KIND_VALUES: u8 = 0x84;
const KIND_COMMITTED: u8 = 0x85;
const KIND_ABORTED: u8 = 0x86;
const KIND_ERROR: u8 = 0x87;

/// A client→server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Liveness probe; the server answers [`WireResponse::Pong`].
    Ping,
    /// Asks for the server's service counters.
    Stats,
    /// `Get(txid, key)` — one read in the context of `txid` (Table 1).
    Get {
        /// The reading transaction.
        txid: TransactionId,
        /// The key to read.
        key: Key,
    },
    /// A multi-key read whose storage fetches the server may overlap.
    GetAll {
        /// The reading transaction.
        txid: TransactionId,
        /// The keys to read, in reply order.
        keys: Vec<Key>,
    },
    /// Commits `txid` with its full client-buffered write set. `reads`
    /// carries the versions the client observed so the server can verify
    /// read atomicity where the metadata lives. Safe to resend verbatim:
    /// the server deduplicates on `txid.uuid`.
    Commit {
        /// The committing transaction (start timestamp + UUID).
        txid: TransactionId,
        /// Every key/value the transaction wrote, in write order.
        writes: Vec<(Key, Value)>,
        /// The versions the client's reads observed, for the atomicity
        /// check.
        reads: Vec<(Key, TransactionId)>,
    },
    /// Discards `txid`'s server-side state. Idempotent: aborting an unknown
    /// transaction is acknowledged, not an error.
    Abort {
        /// The transaction to abort.
        txid: TransactionId,
    },
}

impl WireRequest {
    /// A short verb label for logs and fault schedules.
    pub fn verb(&self) -> &'static str {
        match self {
            WireRequest::Ping => "ping",
            WireRequest::Stats => "stats",
            WireRequest::Get { .. } => "get",
            WireRequest::GetAll { .. } => "get_all",
            WireRequest::Commit { .. } => "commit",
            WireRequest::Abort { .. } => "abort",
        }
    }
}

/// Point-in-time counters of a serving AFT endpoint, in the
/// `NodeStats` snapshot style.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Connections accepted since the server started.
    pub connections_accepted: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Requests decoded and executed.
    pub requests: u64,
    /// Commits applied (excluding deduplicated duplicates).
    pub commits: u64,
    /// Duplicate `Commit`s acknowledged from the dedup ledger without
    /// re-applying (§4.2's lost-ack window, closed end to end).
    pub duplicate_commits: u64,
    /// Error responses returned.
    pub errors: u64,
    /// Requests rejected at admission because the server's request queues
    /// were at its admission limit ([`AftError::Overloaded`] on the wire).
    pub overload_rejections: u64,
    /// Admitted requests shed before execution because they aged past the
    /// queue deadline ([`AftError::Overloaded`] on the wire).
    pub shed_requests: u64,
    /// AFT nodes currently active behind the router.
    pub active_nodes: u64,
}

/// A server→client message. The paired request id travels in the frame
/// header, not here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireResponse {
    /// Reply to [`WireRequest::Ping`].
    Pong,
    /// Reply to [`WireRequest::Stats`].
    Stats(WireStats),
    /// Reply to [`WireRequest::Get`]: the value and the committed
    /// transaction that wrote it, or `None` for the NULL version (§3.2).
    Value(Option<(Value, TransactionId)>),
    /// Reply to [`WireRequest::GetAll`], in request key order.
    Values(Vec<Option<Value>>),
    /// Reply to [`WireRequest::Commit`].
    Committed {
        /// The final transaction id (commit timestamp assigned server-side).
        txid: TransactionId,
        /// Whether the reported read set was an Atomic Readset against the
        /// committing node's metadata.
        atomic: bool,
        /// True when this acknowledgement was served from the dedup ledger
        /// (a retried `Commit` — the original already applied).
        duplicate: bool,
    },
    /// Reply to [`WireRequest::Abort`].
    Aborted,
    /// The request failed; the error round-trips with full fidelity so the
    /// client can classify it (retryable or not) exactly like a local call.
    Error(AftError),
}

fn put_txid(w: &mut Writer, txid: &TransactionId) {
    w.put_tid(txid);
}

fn put_key(w: &mut Writer, key: &Key) {
    w.put_str(key.as_str());
}

fn get_key(r: &mut Reader<'_>) -> AftResult<Key> {
    Ok(Key::from(r.get_str()?))
}

fn put_value(w: &mut Writer, value: &Value) {
    w.put_bytes(value);
}

fn get_value(r: &mut Reader<'_>) -> AftResult<Value> {
    Ok(Bytes::from(r.get_bytes()?))
}

/// Starts a payload after whatever `buf` already holds, with room for the
/// 10-byte header and a `cap`-byte body.
fn header(buf: &mut Vec<u8>, kind: u8, request_id: u64, cap: usize) -> Writer {
    let mut w = Writer::appending(std::mem::take(buf));
    w.reserve(cap + 10);
    w.put_u8(WIRE_VERSION);
    w.put_u8(kind);
    w.put_u64(request_id);
    w
}

fn read_header(buf: &[u8]) -> AftResult<(Reader<'_>, u8, u64)> {
    let mut r = Reader::new(buf);
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(AftError::Codec(format!(
            "unsupported wire version {version}, expected {WIRE_VERSION}"
        )));
    }
    let kind = r.get_u8()?;
    let request_id = r.get_u64()?;
    Ok((r, kind, request_id))
}

/// Encodes a request frame payload (version, kind, request id, body).
pub fn encode_request(request_id: u64, request: &WireRequest) -> Bytes {
    let mut buf = Vec::new();
    encode_request_into(&mut buf, request_id, request);
    Bytes::from(buf)
}

/// Appends a request frame payload to `buf`, after whatever it already
/// holds: a frame's reserved length prefix, so the payload is encoded once
/// and never copied into a frame.
pub fn encode_request_into(buf: &mut Vec<u8>, request_id: u64, request: &WireRequest) {
    let w = match request {
        WireRequest::Ping => header(buf, KIND_PING, request_id, 0),
        WireRequest::Stats => header(buf, KIND_STATS, request_id, 0),
        WireRequest::Get { txid, key } => {
            let mut w = header(buf, KIND_GET, request_id, 32 + key.len());
            put_txid(&mut w, txid);
            put_key(&mut w, key);
            w
        }
        WireRequest::GetAll { txid, keys } => {
            let mut w = header(buf, KIND_GET_ALL, request_id, 32 + keys.len() * 24);
            put_txid(&mut w, txid);
            w.put_u32(keys.len() as u32);
            for key in keys {
                put_key(&mut w, key);
            }
            w
        }
        WireRequest::Commit {
            txid,
            writes,
            reads,
        } => {
            let payload: usize = writes.iter().map(|(k, v)| k.len() + v.len() + 8).sum();
            let mut w = header(
                buf,
                KIND_COMMIT,
                request_id,
                40 + payload + reads.len() * 48,
            );
            put_txid(&mut w, txid);
            w.put_u32(writes.len() as u32);
            for (key, value) in writes {
                put_key(&mut w, key);
                put_value(&mut w, value);
            }
            w.put_u32(reads.len() as u32);
            for (key, tid) in reads {
                put_key(&mut w, key);
                put_txid(&mut w, tid);
            }
            w
        }
        WireRequest::Abort { txid } => {
            let mut w = header(buf, KIND_ABORT, request_id, 24);
            put_txid(&mut w, txid);
            w
        }
    };
    *buf = w.into_vec();
}

/// Decodes a request frame payload into `(request id, request)`.
pub fn decode_request(buf: &[u8]) -> AftResult<(u64, WireRequest)> {
    let (mut r, kind, request_id) = read_header(buf)?;
    let request = match kind {
        KIND_PING => WireRequest::Ping,
        KIND_STATS => WireRequest::Stats,
        KIND_GET => WireRequest::Get {
            txid: r.get_tid()?,
            key: get_key(&mut r)?,
        },
        KIND_GET_ALL => {
            let txid = r.get_tid()?;
            let n = r.get_u32()? as usize;
            // Untrusted length prefix; never pre-allocate from it directly.
            let mut keys = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                keys.push(get_key(&mut r)?);
            }
            WireRequest::GetAll { txid, keys }
        }
        KIND_COMMIT => {
            let txid = r.get_tid()?;
            let n = r.get_u32()? as usize;
            let mut writes = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = get_key(&mut r)?;
                let value = get_value(&mut r)?;
                writes.push((key, value));
            }
            let n = r.get_u32()? as usize;
            let mut reads = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let key = get_key(&mut r)?;
                let tid = r.get_tid()?;
                reads.push((key, tid));
            }
            WireRequest::Commit {
                txid,
                writes,
                reads,
            }
        }
        KIND_ABORT => WireRequest::Abort { txid: r.get_tid()? },
        other => {
            return Err(AftError::Codec(format!(
                "unknown request kind {other:#04x}"
            )))
        }
    };
    r.expect_end()?;
    Ok((request_id, request))
}

fn put_stats(w: &mut Writer, stats: &WireStats) {
    w.put_u64(stats.connections_accepted);
    w.put_u64(stats.connections_active);
    w.put_u64(stats.requests);
    w.put_u64(stats.commits);
    w.put_u64(stats.duplicate_commits);
    w.put_u64(stats.errors);
    w.put_u64(stats.overload_rejections);
    w.put_u64(stats.shed_requests);
    w.put_u64(stats.active_nodes);
}

fn get_stats(r: &mut Reader<'_>) -> AftResult<WireStats> {
    Ok(WireStats {
        connections_accepted: r.get_u64()?,
        connections_active: r.get_u64()?,
        requests: r.get_u64()?,
        commits: r.get_u64()?,
        duplicate_commits: r.get_u64()?,
        errors: r.get_u64()?,
        overload_rejections: r.get_u64()?,
        shed_requests: r.get_u64()?,
        active_nodes: r.get_u64()?,
    })
}

// Error discriminants for the wire form of [`AftError`].
const ERR_UNKNOWN_TXN: u8 = 1;
const ERR_TXN_ABORTED: u8 = 2;
const ERR_NO_VALID_VERSION: u8 = 3;
const ERR_KEY_NOT_FOUND: u8 = 4;
const ERR_STORAGE: u8 = 5;
const ERR_STORAGE_TRANSIENT: u8 = 6;
const ERR_STORAGE_CONFLICT: u8 = 7;
const ERR_UNAVAILABLE: u8 = 8;
const ERR_FUNCTION_FAILED: u8 = 9;
const ERR_CODEC: u8 = 10;
const ERR_INVALID_REQUEST: u8 = 11;
const ERR_OVERLOADED: u8 = 12;

fn put_error(w: &mut Writer, error: &AftError) {
    match error {
        AftError::UnknownTransaction(id) => {
            w.put_u8(ERR_UNKNOWN_TXN);
            w.put_tid(id);
        }
        AftError::TransactionAborted(id) => {
            w.put_u8(ERR_TXN_ABORTED);
            w.put_tid(id);
        }
        AftError::NoValidVersion { key, txn } => {
            w.put_u8(ERR_NO_VALID_VERSION);
            put_key(w, key);
            w.put_tid(txn);
        }
        AftError::KeyNotFound(key) => {
            w.put_u8(ERR_KEY_NOT_FOUND);
            put_key(w, key);
        }
        AftError::Storage(msg) => {
            w.put_u8(ERR_STORAGE);
            w.put_str(msg);
        }
        AftError::StorageTransient(msg) => {
            w.put_u8(ERR_STORAGE_TRANSIENT);
            w.put_str(msg);
        }
        AftError::StorageConflict(msg) => {
            w.put_u8(ERR_STORAGE_CONFLICT);
            w.put_str(msg);
        }
        AftError::Unavailable(msg) => {
            w.put_u8(ERR_UNAVAILABLE);
            w.put_str(msg);
        }
        AftError::Overloaded(msg) => {
            w.put_u8(ERR_OVERLOADED);
            w.put_str(msg);
        }
        AftError::FunctionFailed(msg) => {
            w.put_u8(ERR_FUNCTION_FAILED);
            w.put_str(msg);
        }
        AftError::Codec(msg) => {
            w.put_u8(ERR_CODEC);
            w.put_str(msg);
        }
        AftError::InvalidRequest(msg) => {
            w.put_u8(ERR_INVALID_REQUEST);
            w.put_str(msg);
        }
    }
}

fn get_error(r: &mut Reader<'_>) -> AftResult<AftError> {
    let tag = r.get_u8()?;
    Ok(match tag {
        ERR_UNKNOWN_TXN => AftError::UnknownTransaction(r.get_tid()?),
        ERR_TXN_ABORTED => AftError::TransactionAborted(r.get_tid()?),
        ERR_NO_VALID_VERSION => AftError::NoValidVersion {
            key: get_key(r)?,
            txn: r.get_tid()?,
        },
        ERR_KEY_NOT_FOUND => AftError::KeyNotFound(get_key(r)?),
        ERR_STORAGE => AftError::Storage(r.get_str()?),
        ERR_STORAGE_TRANSIENT => AftError::StorageTransient(r.get_str()?),
        ERR_STORAGE_CONFLICT => AftError::StorageConflict(r.get_str()?),
        ERR_UNAVAILABLE => AftError::Unavailable(r.get_str()?),
        ERR_OVERLOADED => AftError::Overloaded(r.get_str()?),
        ERR_FUNCTION_FAILED => AftError::FunctionFailed(r.get_str()?),
        ERR_CODEC => AftError::Codec(r.get_str()?),
        ERR_INVALID_REQUEST => AftError::InvalidRequest(r.get_str()?),
        other => {
            return Err(AftError::Codec(format!(
                "unknown wire error discriminant {other}"
            )))
        }
    })
}

/// Encodes a response frame payload (version, kind, request id, body).
pub fn encode_response(request_id: u64, response: &WireResponse) -> Bytes {
    let mut buf = Vec::new();
    encode_response_into(&mut buf, request_id, response);
    Bytes::from(buf)
}

/// Appends a response frame payload to `buf`, after whatever it already
/// holds; the response twin of [`encode_request_into`].
pub fn encode_response_into(buf: &mut Vec<u8>, request_id: u64, response: &WireResponse) {
    let w = match response {
        WireResponse::Pong => header(buf, KIND_PONG, request_id, 0),
        WireResponse::Stats(stats) => {
            let mut w = header(buf, KIND_STATS_REPLY, request_id, 64);
            put_stats(&mut w, stats);
            w
        }
        WireResponse::Value(found) => {
            let mut w = header(
                buf,
                KIND_VALUE,
                request_id,
                found.as_ref().map_or(1, |(v, _)| v.len() + 32),
            );
            match found {
                None => w.put_u8(0),
                Some((value, tid)) => {
                    w.put_u8(1);
                    put_value(&mut w, value);
                    w.put_tid(tid);
                }
            }
            w
        }
        WireResponse::Values(values) => {
            let payload: usize = values
                .iter()
                .map(|v| 1 + v.as_ref().map_or(0, |v| v.len() + 4))
                .sum();
            let mut w = header(buf, KIND_VALUES, request_id, 4 + payload);
            w.put_u32(values.len() as u32);
            for value in values {
                match value {
                    None => w.put_u8(0),
                    Some(value) => {
                        w.put_u8(1);
                        put_value(&mut w, value);
                    }
                }
            }
            w
        }
        WireResponse::Committed {
            txid,
            atomic,
            duplicate,
        } => {
            let mut w = header(buf, KIND_COMMITTED, request_id, 32);
            w.put_tid(txid);
            w.put_u8(u8::from(*atomic));
            w.put_u8(u8::from(*duplicate));
            w
        }
        WireResponse::Aborted => header(buf, KIND_ABORTED, request_id, 0),
        WireResponse::Error(error) => {
            let mut w = header(buf, KIND_ERROR, request_id, 64);
            put_error(&mut w, error);
            w
        }
    };
    *buf = w.into_vec();
}

fn get_flag(r: &mut Reader<'_>) -> AftResult<bool> {
    match r.get_u8()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(AftError::Codec(format!("invalid flag byte {other}"))),
    }
}

/// Decodes a response frame payload into `(request id, response)`.
pub fn decode_response(buf: &[u8]) -> AftResult<(u64, WireResponse)> {
    let (mut r, kind, request_id) = read_header(buf)?;
    let response = match kind {
        KIND_PONG => WireResponse::Pong,
        KIND_STATS_REPLY => WireResponse::Stats(get_stats(&mut r)?),
        KIND_VALUE => {
            if get_flag(&mut r)? {
                let value = get_value(&mut r)?;
                let tid = r.get_tid()?;
                WireResponse::Value(Some((value, tid)))
            } else {
                WireResponse::Value(None)
            }
        }
        KIND_VALUES => {
            let n = r.get_u32()? as usize;
            let mut values = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                values.push(if get_flag(&mut r)? {
                    Some(get_value(&mut r)?)
                } else {
                    None
                });
            }
            WireResponse::Values(values)
        }
        KIND_COMMITTED => WireResponse::Committed {
            txid: r.get_tid()?,
            atomic: get_flag(&mut r)?,
            duplicate: get_flag(&mut r)?,
        },
        KIND_ABORTED => WireResponse::Aborted,
        KIND_ERROR => WireResponse::Error(get_error(&mut r)?),
        other => {
            return Err(AftError::Codec(format!(
                "unknown response kind {other:#04x}"
            )))
        }
    };
    r.expect_end()?;
    Ok((request_id, response))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uuid::Uuid;

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    fn sample_requests() -> Vec<WireRequest> {
        vec![
            WireRequest::Ping,
            WireRequest::Stats,
            WireRequest::Get {
                txid: tid(7, 9),
                key: Key::new("cart:alice"),
            },
            WireRequest::GetAll {
                txid: tid(1, 2),
                keys: vec![Key::new("a"), Key::new("b/c")],
            },
            WireRequest::Commit {
                txid: tid(3, 4),
                writes: vec![
                    (Key::new("k"), Value::from_static(b"v1")),
                    (Key::new("l"), Value::from_static(b"")),
                ],
                reads: vec![(Key::new("m"), tid(2, 2)), (Key::new("n"), tid(0, 0))],
            },
            WireRequest::Abort { txid: tid(5, 6) },
        ]
    }

    fn sample_responses() -> Vec<WireResponse> {
        vec![
            WireResponse::Pong,
            WireResponse::Stats(WireStats {
                connections_accepted: 3,
                connections_active: 2,
                requests: 100,
                commits: 40,
                duplicate_commits: 1,
                errors: 2,
                overload_rejections: 5,
                shed_requests: 4,
                active_nodes: 3,
            }),
            WireResponse::Value(None),
            WireResponse::Value(Some((Value::from_static(b"payload"), tid(9, 9)))),
            WireResponse::Values(vec![Some(Value::from_static(b"x")), None]),
            WireResponse::Committed {
                txid: tid(11, 12),
                atomic: true,
                duplicate: false,
            },
            WireResponse::Aborted,
            WireResponse::Error(AftError::NoValidVersion {
                key: Key::new("hot"),
                txn: tid(4, 4),
            }),
            WireResponse::Error(AftError::Unavailable("no nodes".to_owned())),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (i, request) in sample_requests().into_iter().enumerate() {
            let encoded = encode_request(i as u64, &request);
            let (id, decoded) = decode_request(&encoded).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn responses_round_trip() {
        for (i, response) in sample_responses().into_iter().enumerate() {
            let encoded = encode_response(1000 + i as u64, &response);
            let (id, decoded) = decode_response(&encoded).unwrap();
            assert_eq!(id, 1000 + i as u64);
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn encoding_into_a_buffer_appends_after_its_prefix() {
        let prefix = [0xEEu8; 4];
        for request in sample_requests() {
            let mut buf = prefix.to_vec();
            encode_request_into(&mut buf, 5, &request);
            assert_eq!(buf[..4], prefix);
            assert_eq!(buf[4..], encode_request(5, &request)[..]);
        }
        for response in sample_responses() {
            let mut buf = prefix.to_vec();
            encode_response_into(&mut buf, 6, &response);
            assert_eq!(buf[..4], prefix);
            assert_eq!(buf[4..], encode_response(6, &response)[..]);
        }
    }

    #[test]
    fn request_and_response_namespaces_are_disjoint() {
        let request = encode_request(1, &WireRequest::Ping);
        assert!(decode_response(&request).is_err());
        let response = encode_response(1, &WireResponse::Pong);
        assert!(decode_request(&response).is_err());
    }

    #[test]
    fn truncated_frames_fail_cleanly() {
        let encoded = encode_request(
            42,
            &WireRequest::Commit {
                txid: tid(1, 2),
                writes: vec![(Key::new("k"), Value::from_static(b"vvv"))],
                reads: vec![(Key::new("k"), tid(1, 1))],
            },
        );
        for cut in 0..encoded.len() {
            assert!(
                decode_request(&encoded[..cut]).is_err(),
                "a {cut}-byte prefix must not decode"
            );
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut raw = encode_request(1, &WireRequest::Ping).to_vec();
        raw[0] = 99;
        assert!(decode_request(&raw).is_err());
        let mut raw = encode_response(1, &WireResponse::Pong).to_vec();
        raw[0] = 0;
        assert!(decode_response(&raw).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut raw = encode_request(1, &WireRequest::Abort { txid: tid(1, 2) }).to_vec();
        raw.push(0);
        assert!(decode_request(&raw).is_err());
    }

    #[test]
    fn every_error_variant_round_trips() {
        let errors = vec![
            AftError::UnknownTransaction(tid(1, 2)),
            AftError::TransactionAborted(tid(3, 4)),
            AftError::NoValidVersion {
                key: Key::new("k"),
                txn: tid(5, 6),
            },
            AftError::KeyNotFound(Key::new("missing")),
            AftError::Storage("disk on fire".to_owned()),
            AftError::StorageTransient("throttled".to_owned()),
            AftError::StorageConflict("txn conflict".to_owned()),
            AftError::Unavailable("no nodes".to_owned()),
            AftError::Overloaded("queue full".to_owned()),
            AftError::FunctionFailed("oops".to_owned()),
            AftError::Codec("bad bytes".to_owned()),
            AftError::InvalidRequest("commit twice".to_owned()),
        ];
        for error in errors {
            let encoded = encode_response(7, &WireResponse::Error(error.clone()));
            let (_, decoded) = decode_response(&encoded).unwrap();
            assert_eq!(decoded, WireResponse::Error(error));
        }
    }

    #[test]
    fn retryability_survives_the_wire() {
        // The client's retry loop classifies errors exactly like a local
        // caller would; the classification must survive encoding.
        for error in [
            AftError::Unavailable("down".to_owned()),
            AftError::Overloaded("shedding".to_owned()),
            AftError::StorageTransient("drop".to_owned()),
            AftError::Codec("bad".to_owned()),
        ] {
            let encoded = encode_response(1, &WireResponse::Error(error.clone()));
            let (_, decoded) = decode_response(&encoded).unwrap();
            let WireResponse::Error(wire_error) = decoded else {
                panic!("expected error response");
            };
            assert_eq!(wire_error.is_retryable(), error.is_retryable());
        }
    }
}
