//! Core data types shared by every crate in the AFT reproduction.
//!
//! AFT ("Atomic Fault Tolerance") is a shim that sits between a
//! Functions-as-a-Service platform and a durable key-value store and provides
//! read atomic isolation for logical requests that span multiple functions
//! (Sreekanti et al., *A Fault-Tolerance Shim for Serverless Computing*,
//! EuroSys 2020).
//!
//! This crate defines the vocabulary of that protocol:
//!
//! * [`TransactionId`] — the `<timestamp, uuid>` pair that identifies and
//!   orders transactions (§3.1 of the paper).
//! * [`Key`], [`Value`], [`KeyVersion`] — client-visible keys, opaque values,
//!   and the per-transaction key versions AFT writes to storage (§3.2).
//! * [`TransactionRecord`] — the commit record persisted to the Transaction
//!   Commit Set at the end of the write-ordering protocol (§3.3).
//! * [`slot_tag`] — which part of a storage key places it on a sharded
//!   store: the last byte of the transaction UUID its data and record keys
//!   share, so one slot holds 256ths of the transactions.
//! * [`codec`] — a small, dependency-free binary codec used to turn records
//!   and tagged values into the opaque blobs the storage layer persists. AFT
//!   only relies on the storage engine for durability, so everything it stores
//!   is just bytes.
//! * [`wire`] — the aft-net service protocol: versioned, length-prefixed
//!   request/response frames with client-chosen request ids, so AFT can be
//!   served over a socket and pipelined clients can complete out of order.
//! * [`clock`] — the clock abstraction. AFT does not rely on clock
//!   synchronisation for correctness; timestamps only provide relative
//!   freshness, and ties are broken by UUID.
//! * [`AftError`] — the error type used across the workspace.
//! * [`seeded_stream`] and [`fnv1a`] — the seeded draws every simulated
//!   fault and latency takes, each a function of its own call.

pub mod clock;
pub mod codec;
pub mod error;
pub mod key;
pub mod phase;
pub mod record;
pub mod txid;
pub mod uuid;
pub mod value;
pub mod wire;

pub use clock::{Clock, MockClock, SharedClock, SystemClock};
pub use error::{AftError, AftResult};
pub use key::{Key, KeyVersion};
pub use phase::CommitPhase;
pub use record::{TransactionRecord, WriteSet};
pub use txid::{Timestamp, TransactionId};
pub use uuid::Uuid;
pub use value::{payload_of_size, TaggedValue, Value};
pub use wire::{WireRequest, WireResponse, WireStats};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Storage key prefix under which AFT stores key-version data blobs.
pub(crate) const DATA_PREFIX: &str = "data";

/// Storage key prefix under which AFT stores commit records (the Transaction
/// Commit Set of §3.1/§3.3).
pub(crate) const COMMIT_PREFIX: &str = "commit";

/// The part of a storage key that picks its hash slot on a sharded store:
/// the last two hex digits of the writing transaction's 32-hex-digit UUID,
/// which ends every data key (`data/{key}/{uuid}`) and every commit-record
/// key (`commit/{ts}_{uuid}`). A slot thus holds one of 256 groups of
/// transactions, chosen by the UUID's last byte: a transaction's versions
/// and its record always share one, so a multi-key call limited to one slot
/// can carry them together, and it can also carry the keys of every other
/// transaction of its group. Any other key (a bare key written by a
/// baseline without AFT) is its own tag.
pub fn slot_tag(storage_key: &str) -> &str {
    let under = |prefix: &str| {
        storage_key
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_prefix('/'))
    };
    let suffix = match (under(DATA_PREFIX), under(COMMIT_PREFIX)) {
        (Some(rest), _) => rest.rsplit_once('/'),
        (_, Some(rest)) => rest.rsplit_once('_'),
        _ => None,
    };
    match suffix {
        Some((_, uuid)) if uuid.len() == 32 && uuid.bytes().all(|b| b.is_ascii_hexdigit()) => {
            &uuid[30..]
        }
        _ => storage_key,
    }
}

/// The RNG that draw `index` of stream `stream` takes its numbers from under
/// `seed`: SplitMix-style mixing, so a draw depends on its seed, stream and
/// index alone, never on the order streams are drawn from. A fault leg's
/// stream is its salt; a simulated latency's is its key's [`fnv1a`] hash, a
/// node's id or a platform's salt, and its index counts the draws before it
/// on that stream (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
/// 3", SC 2011).
pub fn seeded_stream(seed: u64, stream: u64, index: u64) -> StdRng {
    let mixed = (seed ^ stream)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    StdRng::seed_from_u64(mixed)
}

/// 64-bit FNV-1a over `bytes`. Its specification fixes it, unlike std's
/// `DefaultHasher`, whose algorithm may change between releases, so what
/// it picks is the same on every toolchain: the links a seeded partition
/// cuts.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_are_distinct() {
        assert_ne!(DATA_PREFIX, COMMIT_PREFIX);
    }

    #[test]
    fn fnv1a_matches_its_published_test_vectors() {
        assert_eq!(fnv1a(*b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(*b"foobar"), 0x8594_4171_f739_67e8);
    }
}
