//! Transaction commit records and write sets.
//!
//! The write-ordering protocol (§3.3) persists a transaction's data blobs
//! first and only then writes a *commit record* — the transaction's write
//! set, stored under a key that names its ID — to the Transaction Commit Set
//! in storage. A transaction is committed if and only if its commit record
//! is durable; everything else (metadata caches, key version indexes,
//! multicast state) is soft state that can be rebuilt from the commit set.

use std::fmt;

use crate::error::AftError;
use crate::key::{Key, KeyVersion};
use crate::txid::{push_padded_timestamp, Timestamp, TransactionId, STORAGE_SUFFIX_LEN};
use crate::COMMIT_PREFIX;

/// The set of keys written by a transaction.
///
/// The cowritten set of every key version written by the transaction is
/// exactly this set (§3.2). It is built once and only read afterwards, so it
/// is a sorted slice without repeats: iteration is in key order, which keeps
/// the codec canonical, and membership is a binary search. A two-key set
/// costs its two 16-byte keys; an ordered tree would allocate a 192-byte
/// leaf for them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSet(Box<[Key]>);

impl WriteSet {
    /// The keys in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, Key> {
        self.0.iter()
    }

    /// The number of keys.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns true if the transaction wrote nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Returns true if `key` is in the set.
    pub fn contains(&self, key: &Key) -> bool {
        self.0.binary_search(key).is_ok()
    }
}

impl FromIterator<Key> for WriteSet {
    /// Sorts the keys and drops repeats.
    fn from_iter<I: IntoIterator<Item = Key>>(keys: I) -> Self {
        let mut keys: Vec<Key> = keys.into_iter().collect();
        keys.sort_unstable();
        keys.dedup();
        WriteSet(keys.into_boxed_slice())
    }
}

impl<'a> IntoIterator for &'a WriteSet {
    type Item = &'a Key;
    type IntoIter = std::slice::Iter<'a, Key>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Lifecycle of a transaction as tracked by an AFT node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransactionStatus {
    /// The transaction has started and may still issue reads and writes.
    Running,
    /// CommitTransaction was called; data blobs are being persisted but the
    /// commit record is not yet durable. Not visible to other transactions.
    Committing,
    /// The commit record is durable; the transaction's writes are visible.
    Committed,
    /// The transaction was aborted; its buffered writes were discarded.
    Aborted,
}

impl fmt::Display for TransactionStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TransactionStatus::Running => "running",
            TransactionStatus::Committing => "committing",
            TransactionStatus::Committed => "committed",
            TransactionStatus::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

/// A committed transaction's entry in the Transaction Commit Set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionRecord {
    /// The transaction's `<timestamp, uuid>` identifier.
    pub id: TransactionId,
    /// Every key the transaction wrote.
    pub write_set: WriteSet,
}

impl TransactionRecord {
    /// Creates a commit record.
    pub fn new(id: TransactionId, write_set: impl IntoIterator<Item = Key>) -> Self {
        TransactionRecord {
            id,
            write_set: write_set.into_iter().collect(),
        }
    }

    /// The storage key of this record in the Transaction Commit Set:
    /// `commit/{timestamp:020}_{uuid}`.
    pub fn storage_key(&self) -> String {
        Self::storage_key_for(&self.id)
    }

    /// The commit-set storage key for an arbitrary transaction ID.
    pub fn storage_key_for(id: &TransactionId) -> String {
        let mut key = String::with_capacity(COMMIT_PREFIX.len() + 1 + STORAGE_SUFFIX_LEN);
        key.push_str(COMMIT_PREFIX);
        key.push('/');
        id.push_storage_suffix(&mut key);
        key
    }

    /// The prefix under which all commit records live; bootstrap and the fault
    /// manager scan this prefix (§3.1, §4.2).
    pub fn storage_prefix() -> String {
        format!("{COMMIT_PREFIX}/")
    }

    /// `commit/{timestamp:020}`: every record committed at `timestamp` or
    /// later sorts after it and every earlier one before it, so a listing
    /// that starts after this key sees exactly the records from `timestamp`
    /// on (the fault manager's floor, §4.2).
    pub fn storage_floor_key(timestamp: Timestamp) -> String {
        let mut key = String::with_capacity(COMMIT_PREFIX.len() + 1 + 20);
        key.push_str(COMMIT_PREFIX);
        key.push('/');
        push_padded_timestamp(timestamp, &mut key);
        key
    }

    /// Parses the transaction ID back out of a commit-set storage key.
    pub fn id_from_storage_key(storage_key: &str) -> Result<TransactionId, AftError> {
        let suffix = storage_key
            .strip_prefix(COMMIT_PREFIX)
            .and_then(|r| r.strip_prefix('/'))
            .ok_or_else(|| {
                AftError::Codec(format!(
                    "storage key {storage_key:?} is not a commit record"
                ))
            })?;
        TransactionId::from_storage_suffix(suffix)
    }

    /// Returns true if this transaction wrote `key`.
    pub fn wrote(&self, key: &Key) -> bool {
        self.write_set.contains(key)
    }

    /// The key versions this transaction produced: one per written key, all
    /// carrying the transaction's own ID.
    pub fn key_versions(&self) -> impl Iterator<Item = KeyVersion> + '_ {
        self.write_set
            .iter()
            .map(move |k| KeyVersion::new(k.clone(), self.id))
    }

    /// The cowritten set of any key version written by this transaction is the
    /// transaction's write set (§3.2).
    pub fn cowritten(&self) -> &WriteSet {
        &self.write_set
    }
}

impl fmt::Display for TransactionRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T[{}]{{", self.id)?;
        for (i, k) in self.write_set.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uuid::Uuid;

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    fn record(ts: u64, keys: &[&str]) -> TransactionRecord {
        TransactionRecord::new(tid(ts, ts as u128), keys.iter().map(Key::new))
    }

    #[test]
    fn storage_key_round_trips() {
        let r = record(77, &["a", "b"]);
        let sk = r.storage_key();
        assert!(sk.starts_with("commit/"));
        assert_eq!(TransactionRecord::id_from_storage_key(&sk).unwrap(), r.id);
    }

    #[test]
    fn commit_keys_sort_in_commit_order() {
        let older = record(5, &["x"]).storage_key();
        let newer = record(50, &["x"]).storage_key();
        assert!(older < newer);
    }

    #[test]
    fn the_floor_key_splits_the_commit_set_at_its_timestamp() {
        let floor = TransactionRecord::storage_floor_key(50);
        assert_eq!(floor, "commit/00000000000000000050");
        for (ts, uuid, after) in [(49, u128::MAX, false), (50, 0, true), (51, 0, true)] {
            let key = TransactionRecord::storage_key_for(&tid(ts, uuid));
            assert_eq!(key > floor, after, "{key}");
        }
        assert!(
            TransactionRecord::storage_key_for(&tid(0, 0))
                > TransactionRecord::storage_floor_key(0)
        );
    }

    #[test]
    fn wrote_and_cowritten() {
        let r = record(1, &["k", "l"]);
        assert!(r.wrote(&Key::new("k")));
        assert!(!r.wrote(&Key::new("m")));
        assert_eq!(r.cowritten().len(), 2);
    }

    #[test]
    fn key_versions_carry_the_transaction_id() {
        let r = record(9, &["a", "b", "c"]);
        let versions: Vec<_> = r.key_versions().collect();
        assert_eq!(versions.len(), 3);
        assert!(versions.iter().all(|kv| kv.tid == r.id));
    }

    #[test]
    fn duplicate_keys_collapse_in_write_set() {
        let r = TransactionRecord::new(tid(1, 1), vec![Key::new("k"), Key::new("k")]);
        assert_eq!(r.write_set.len(), 1);
    }

    #[test]
    fn a_transactions_data_keys_and_record_key_share_one_slot_tag() {
        use crate::slot_tag;
        let r = TransactionRecord::new(
            TransactionId::new(1_700_000_000_123, Uuid::from_u128(0xabc)),
            ["cart/7", "a", "photos/user/42"].map(Key::new),
        );
        // The tag is the UUID's last byte: "…abc" is in group "bc".
        let record_key = r.storage_key();
        assert_eq!(slot_tag(&record_key), "bc");
        for kv in r.key_versions() {
            assert_eq!(slot_tag(&kv.storage_key()), "bc", "{kv}");
        }
        // So is every other transaction whose UUID ends in that byte.
        let peer = TransactionId::new(5, Uuid::from_u128(0xf00d_00bc));
        assert_eq!(slot_tag(&TransactionRecord::storage_key_for(&peer)), "bc");
        // Keys that carry no transaction UUID are their own tag.
        for bare in [
            "ckptmeta/00000000000000000003",
            "ckptdata/00000000000000000003/000001",
            "key-00000042",
            "data/missing-suffix",
            "data/k/not-a-uuid",
            "commit/garbage",
            "commitx/00000000000000000001_00000000000000000000000000000abc",
        ] {
            assert_eq!(slot_tag(bare), bare);
        }
    }

    #[test]
    fn counter_style_uuids_spread_over_all_256_slot_groups() {
        let groups: std::collections::HashSet<String> = (0..256u128)
            .map(|n| TransactionRecord::storage_key_for(&tid(1, n)))
            .map(|key| crate::slot_tag(&key).to_owned())
            .collect();
        assert_eq!(groups.len(), 256);
    }

    #[test]
    fn id_from_storage_key_rejects_data_keys() {
        assert!(TransactionRecord::id_from_storage_key("data/k/000_1").is_err());
    }

    #[test]
    fn status_display() {
        assert_eq!(TransactionStatus::Running.to_string(), "running");
        assert_eq!(TransactionStatus::Committed.to_string(), "committed");
    }
}
