//! Property-based tests for the aft-net wire protocol codec.
//!
//! The wire codec is the trust boundary of the networked service: every
//! frame arrives from a socket, so beyond encode→decode identity the suite
//! checks the rejection properties — every strict prefix of a valid frame
//! fails to decode (truncated-frame rejection), every non-current version
//! byte fails (bad-version rejection), and arbitrary corruption never
//! panics.

use aft_types::wire::{
    decode_request, decode_response, encode_request, encode_response, WireRequest, WireResponse,
    WireStats, WIRE_VERSION,
};
use aft_types::{AftError, Key, TransactionId, Uuid, Value};
use proptest::prelude::*;

fn arb_tid() -> impl Strategy<Value = TransactionId> {
    (any::<u64>(), any::<u128>())
        .prop_map(|(ts, uuid)| TransactionId::new(ts, Uuid::from_u128(uuid)))
}

fn arb_key() -> impl Strategy<Value = Key> {
    "[a-zA-Z0-9_/:.-]{1,32}".prop_map(Key::from)
}

fn arb_value() -> impl Strategy<Value = Value> {
    proptest::collection::vec(any::<u8>(), 0..512).prop_map(Value::from)
}

fn arb_error() -> impl Strategy<Value = AftError> {
    let msg = "[ -~]{0,48}".prop_map(String::from);
    prop_oneof![
        arb_tid().prop_map(AftError::UnknownTransaction),
        arb_tid().prop_map(AftError::TransactionAborted),
        (arb_key(), arb_tid()).prop_map(|(key, txn)| AftError::NoValidVersion { key, txn }),
        arb_key().prop_map(AftError::KeyNotFound),
        msg.clone().prop_map(AftError::Storage),
        msg.clone().prop_map(AftError::StorageTransient),
        msg.clone().prop_map(AftError::StorageConflict),
        msg.clone().prop_map(AftError::Unavailable),
        msg.clone().prop_map(AftError::Overloaded),
        msg.clone().prop_map(AftError::FunctionFailed),
        msg.clone().prop_map(AftError::Codec),
        msg.prop_map(AftError::InvalidRequest),
    ]
}

fn arb_request() -> impl Strategy<Value = WireRequest> {
    prop_oneof![
        Just(WireRequest::Ping),
        Just(WireRequest::Stats),
        (arb_tid(), arb_key()).prop_map(|(txid, key)| WireRequest::Get { txid, key }),
        (arb_tid(), proptest::collection::vec(arb_key(), 0..8))
            .prop_map(|(txid, keys)| WireRequest::GetAll { txid, keys }),
        (
            arb_tid(),
            proptest::collection::vec((arb_key(), arb_value()), 0..8),
            proptest::collection::vec((arb_key(), arb_tid()), 0..8),
        )
            .prop_map(|(txid, writes, reads)| WireRequest::Commit {
                txid,
                writes,
                reads
            }),
        arb_tid().prop_map(|txid| WireRequest::Abort { txid }),
    ]
}

fn arb_stats() -> impl Strategy<Value = WireStats> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (connections_accepted, connections_active, requests, commits, duplicate_commits),
                (errors, overload_rejections, shed_requests, active_nodes),
            )| WireStats {
                connections_accepted,
                connections_active,
                requests,
                commits,
                duplicate_commits,
                errors,
                overload_rejections,
                shed_requests,
                active_nodes,
            },
        )
}

fn arb_response() -> impl Strategy<Value = WireResponse> {
    prop_oneof![
        Just(WireResponse::Pong),
        arb_stats().prop_map(WireResponse::Stats),
        proptest::option::of((arb_value(), arb_tid())).prop_map(WireResponse::Value),
        proptest::collection::vec(proptest::option::of(arb_value()), 0..8)
            .prop_map(WireResponse::Values),
        (arb_tid(), any::<bool>(), any::<bool>()).prop_map(|(txid, atomic, duplicate)| {
            WireResponse::Committed {
                txid,
                atomic,
                duplicate,
            }
        }),
        Just(WireResponse::Aborted),
        arb_error().prop_map(WireResponse::Error),
    ]
}

proptest! {
    #[test]
    fn request_codec_round_trips(id in any::<u64>(), request in arb_request()) {
        let encoded = encode_request(id, &request);
        let (decoded_id, decoded) = decode_request(&encoded).unwrap();
        prop_assert_eq!(decoded_id, id);
        prop_assert_eq!(decoded, request);
    }

    #[test]
    fn response_codec_round_trips(id in any::<u64>(), response in arb_response()) {
        let encoded = encode_response(id, &response);
        let (decoded_id, decoded) = decode_response(&encoded).unwrap();
        prop_assert_eq!(decoded_id, id);
        prop_assert_eq!(decoded, response);
    }

    #[test]
    fn truncated_request_frames_are_rejected(request in arb_request()) {
        let encoded = encode_request(1, &request);
        for cut in 0..encoded.len() {
            prop_assert!(
                decode_request(&encoded[..cut]).is_err(),
                "a {}-byte prefix of a {}-byte frame must not decode",
                cut,
                encoded.len()
            );
        }
    }

    #[test]
    fn truncated_response_frames_are_rejected(response in arb_response()) {
        let encoded = encode_response(1, &response);
        for cut in 0..encoded.len() {
            prop_assert!(decode_response(&encoded[..cut]).is_err());
        }
    }

    #[test]
    fn bad_version_bytes_are_rejected(request in arb_request(), version in any::<u8>()) {
        prop_assume!(version != WIRE_VERSION);
        let mut raw = encode_request(1, &request).to_vec();
        raw[0] = version;
        prop_assert!(decode_request(&raw).is_err());
    }

    #[test]
    fn corrupted_request_frames_never_panic(
        request in arb_request(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        let mut raw = encode_request(9, &request).to_vec();
        for (idx, byte) in flips {
            let i = idx.index(raw.len());
            raw[i] ^= byte;
        }
        // Corruption must either fail cleanly or decode to *some* request;
        // it must never panic or over-allocate.
        let _ = decode_request(&raw);
    }

    #[test]
    fn corrupted_response_frames_never_panic(
        response in arb_response(),
        flips in proptest::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 1..8)
    ) {
        let mut raw = encode_response(9, &response).to_vec();
        for (idx, byte) in flips {
            let i = idx.index(raw.len());
            raw[i] ^= byte;
        }
        let _ = decode_response(&raw);
    }

    #[test]
    fn error_retryability_is_wire_transparent(error in arb_error()) {
        // The client SDK's retry loop classifies server errors exactly like
        // local ones; encoding must preserve the classification.
        let encoded = encode_response(3, &WireResponse::Error(error.clone()));
        let (_, decoded) = decode_response(&encoded).unwrap();
        match decoded {
            WireResponse::Error(wire_error) => {
                prop_assert_eq!(wire_error.is_retryable(), error.is_retryable());
                prop_assert_eq!(wire_error, error);
            }
            other => prop_assert!(false, "expected an error response, got {:?}", other),
        }
    }
}
