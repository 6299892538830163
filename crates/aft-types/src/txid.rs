//! Transaction identifiers.
//!
//! Each transaction is identified by a `<timestamp, uuid>` pair (§3.1). The
//! timestamp is taken from the committing node's local clock at commit time;
//! the UUID is assigned at `StartTransaction`. AFT never relies on clock
//! synchronisation for correctness — timestamps only provide relative
//! freshness of reads — and ties are broken by comparing UUIDs
//! lexicographically, so IDs form a total order without coordination.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::error::AftError;
use crate::uuid::Uuid;

/// Milliseconds since the UNIX epoch (or since simulation start for mock
/// clocks). The unit is irrelevant to correctness; only the ordering matters.
pub type Timestamp = u64;

/// A transaction's globally unique, totally ordered identifier.
///
/// Ordering is `(timestamp, uuid)` lexicographic: a transaction with a larger
/// commit timestamp is newer, and ties are broken on the UUID. This is exactly
/// the comparison the paper's protocols use when deciding which key version is
/// "newer" (§3.2) and whether a transaction is superseded (§4.1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TransactionId {
    /// Commit timestamp from the committing node's local clock.
    pub timestamp: Timestamp,
    /// Random identifier assigned at `StartTransaction`.
    pub uuid: Uuid,
}

// Every index bucket, version-list slot, read-set entry and debited pair
// holds one: a field added here, or a `Uuid` back on a `u128`, costs 8 bytes in each.
const _: () = assert!(
    std::mem::size_of::<TransactionId>() == 24 && std::mem::align_of::<TransactionId>() == 8
);

impl TransactionId {
    /// The identifier of the implicit `NULL` version every key has before any
    /// transaction writes it (§3.2). It is older than every real transaction.
    pub const NULL: TransactionId = TransactionId {
        timestamp: 0,
        uuid: Uuid::NIL,
    };

    /// Creates a transaction ID from its parts.
    pub const fn new(timestamp: Timestamp, uuid: Uuid) -> Self {
        TransactionId { timestamp, uuid }
    }

    /// Returns true if this is the [`TransactionId::NULL`] identifier.
    pub fn is_null(&self) -> bool {
        *self == Self::NULL
    }

    /// Renders the ID in the fixed-width form embedded in storage keys:
    /// `"{timestamp:020}_{uuid:032x}"`.
    ///
    /// Zero-padding the timestamp makes the *string* order of storage keys
    /// equal to the numeric order of IDs, which lets list-by-prefix scans of
    /// the Transaction Commit Set return records in commit-time order.
    pub fn storage_suffix(&self) -> String {
        let mut suffix = String::with_capacity(STORAGE_SUFFIX_LEN);
        self.push_storage_suffix(&mut suffix);
        suffix
    }

    /// Appends [`storage_suffix`](TransactionId::storage_suffix) to `out`,
    /// digit by digit rather than through `fmt`: every commit record key is
    /// built this way.
    pub(crate) fn push_storage_suffix(&self, out: &mut String) {
        push_padded_timestamp(self.timestamp, out);
        out.push('_');
        self.uuid.push_hex(out);
    }

    /// Parses the fixed-width form produced by [`storage_suffix`].
    ///
    /// [`storage_suffix`]: TransactionId::storage_suffix
    pub fn from_storage_suffix(s: &str) -> Result<Self, AftError> {
        let (ts, uuid) = s.split_once('_').ok_or_else(|| {
            AftError::Codec(format!("transaction id suffix {s:?} missing '_' separator"))
        })?;
        let timestamp: Timestamp = ts
            .parse()
            .map_err(|e| AftError::Codec(format!("bad timestamp in {s:?}: {e}")))?;
        let uuid: Uuid = uuid.parse()?;
        Ok(TransactionId { timestamp, uuid })
    }
}

/// Length of a [`TransactionId::storage_suffix`]: 20 timestamp digits, `_`
/// and 32 hex digits.
pub(crate) const STORAGE_SUFFIX_LEN: usize = 20 + 1 + 32;

/// Appends `timestamp` as 20 zero-padded decimal digits — every `u64` fits,
/// so string order is numeric order.
pub(crate) fn push_padded_timestamp(mut timestamp: Timestamp, out: &mut String) {
    let mut digits = [b'0'; 20];
    for digit in digits.iter_mut().rev() {
        *digit = b'0' + (timestamp % 10) as u8;
        timestamp /= 10;
    }
    out.push_str(std::str::from_utf8(&digits).expect("decimal digits are ASCII"));
}

impl fmt::Display for TransactionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.uuid, self.timestamp)
    }
}

impl FromStr for TransactionId {
    type Err = AftError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (uuid, ts) = s
            .split_once('@')
            .ok_or_else(|| AftError::Codec(format!("transaction id {s:?} missing '@'")))?;
        Ok(TransactionId {
            timestamp: ts
                .parse()
                .map_err(|e| AftError::Codec(format!("bad timestamp in {s:?}: {e}")))?,
            uuid: uuid.parse()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    #[test]
    fn ordering_is_timestamp_then_uuid() {
        assert!(tid(1, 5) < tid(2, 1), "larger timestamp wins");
        assert!(tid(3, 1) < tid(3, 2), "ties broken by uuid");
        assert_eq!(tid(3, 2), tid(3, 2));
    }

    #[test]
    fn null_is_older_than_everything() {
        assert!(TransactionId::NULL < tid(1, 1));
        assert!(TransactionId::NULL.is_null());
        assert!(!tid(1, 1).is_null());
    }

    #[test]
    fn storage_suffix_round_trips() {
        let id = tid(1_234_567, 0xabcdef);
        let s = id.storage_suffix();
        assert_eq!(TransactionId::from_storage_suffix(&s).unwrap(), id);
    }

    #[test]
    fn storage_suffix_order_matches_id_order() {
        // The whole point of the zero padding: string order == numeric order,
        // even across very different magnitudes.
        let ids = [tid(9, u128::MAX), tid(10, 0), tid(10, 1), tid(1_000, 0)];
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
            assert!(
                w[0].storage_suffix() < w[1].storage_suffix(),
                "{} vs {}",
                w[0].storage_suffix(),
                w[1].storage_suffix()
            );
        }
    }

    #[test]
    fn display_round_trips() {
        let id = tid(42, 7);
        let parsed: TransactionId = id.to_string().parse().unwrap();
        assert_eq!(parsed, id);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(TransactionId::from_storage_suffix("garbage").is_err());
        assert!("no-at-sign".parse::<TransactionId>().is_err());
    }
}
