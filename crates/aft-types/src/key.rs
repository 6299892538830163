//! Client-visible keys and per-transaction key versions.
//!
//! Clients of AFT read and write *keys*; AFT internally maps each write to a
//! *key version* — a `(key, transaction id)` pair stored under its own unique
//! storage key so that commits never overwrite data in place (§3.3). Key
//! versions are hidden from users: the read protocol (Algorithm 1) picks which
//! version satisfies each request.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

use crate::error::AftError;
use crate::txid::TransactionId;
use crate::uuid::Uuid;
use crate::DATA_PREFIX;

/// A client-visible key.
///
/// Keys are immutable strings shared behind an [`Arc`], because the protocols
/// copy keys into write sets, cowritten sets, read sets, the key-version
/// index, and commit records; cloning must be cheap.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Arc<str>);

impl Key {
    /// Creates a key from anything string-like.
    pub fn new(name: impl AsRef<str>) -> Self {
        Key(Arc::from(name.as_ref()))
    }

    /// Returns the key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Returns the length of the key in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns true if the key is the empty string.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(Arc::from(s.as_str()))
    }
}

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A specific version of a key: the value written for `key` by the transaction
/// identified by `tid`.
///
/// The cowritten set of a key version `k_i` is exactly the write set of
/// transaction `T_i` (§3.2), so we never store cowritten sets per version —
/// they are looked up from the committed
/// [`TransactionRecord`](crate::TransactionRecord).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyVersion {
    /// The client-visible key.
    pub key: Key,
    /// The transaction that wrote this version.
    pub tid: TransactionId,
}

impl KeyVersion {
    /// Creates a key version.
    pub fn new(key: impl Into<Key>, tid: TransactionId) -> Self {
        KeyVersion {
            key: key.into(),
            tid,
        }
    }

    /// The unique storage key under which this version's data blob is stored:
    /// `data/{key}/{uuid}`.
    ///
    /// One storage key per version is the heart of the coordination-free write
    /// protocol: concurrent committers can never clobber each other because
    /// they always write to distinct locations (§3.3). The storage key is
    /// derived from the transaction's *UUID only*, not its commit timestamp:
    /// a saturated Atomic Write Buffer may spill intermediary data to storage
    /// before the commit timestamp is assigned (§3.3), and the spilled blobs
    /// must land at the same location the commit record will later refer to.
    ///
    /// Built by appending into one sized `String`, not through `fmt`: a key
    /// is made for every written version, every read miss and every version
    /// the global GC deletes.
    pub fn storage_key(&self) -> String {
        let mut key = String::with_capacity(DATA_PREFIX.len() + self.key.len() + 2 + 32);
        key.push_str(DATA_PREFIX);
        key.push('/');
        key.push_str(self.key.as_str());
        key.push('/');
        self.tid.uuid.push_hex(&mut key);
        key
    }

    /// Parses a storage key produced by [`storage_key`](KeyVersion::storage_key),
    /// returning the client key and the writing transaction's UUID.
    ///
    /// The commit timestamp is *not* recoverable from a data storage key; the
    /// authoritative mapping from UUID to full transaction ID lives in the
    /// commit records.
    pub fn parse_storage_key(storage_key: &str) -> Result<(Key, Uuid), AftError> {
        let rest = storage_key
            .strip_prefix(DATA_PREFIX)
            .and_then(|r| r.strip_prefix('/'))
            .ok_or_else(|| {
                AftError::Codec(format!("storage key {storage_key:?} is not a data key"))
            })?;
        // The key itself may contain '/', but the uuid suffix never does, so
        // split on the *last* separator.
        let (key, suffix) = rest.rsplit_once('/').ok_or_else(|| {
            AftError::Codec(format!(
                "storage key {storage_key:?} missing version suffix"
            ))
        })?;
        Ok((Key::new(key), suffix.parse()?))
    }

    /// The prefix under which every version of `key` lives; used by index
    /// rebuilds and garbage collection scans.
    pub fn storage_prefix(key: &Key) -> String {
        format!("{DATA_PREFIX}/{key}/")
    }
}

impl fmt::Display for KeyVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.key, self.tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uuid::Uuid;

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    #[test]
    fn key_clone_is_cheap_and_equal() {
        let k = Key::new("cart:user-17");
        let k2 = k.clone();
        assert_eq!(k, k2);
        assert_eq!(k.as_str(), "cart:user-17");
        assert_eq!(k.len(), 12);
        assert!(!k.is_empty());
    }

    #[test]
    fn storage_key_round_trips() {
        let kv = KeyVersion::new("photos/user/42", tid(99, 3));
        let sk = kv.storage_key();
        assert!(sk.starts_with("data/photos/user/42/"));
        let (key, uuid) = KeyVersion::parse_storage_key(&sk).unwrap();
        assert_eq!(key, kv.key);
        assert_eq!(uuid, kv.tid.uuid);
    }

    #[test]
    fn storage_key_ignores_commit_timestamp() {
        // The commit timestamp is assigned at commit time, after intermediary
        // data may already have been spilled, so it must not appear in the
        // storage key.
        let spilled = KeyVersion::new("k", tid(0, 9)).storage_key();
        let committed = KeyVersion::new("k", tid(1234, 9)).storage_key();
        assert_eq!(spilled, committed);
    }

    #[test]
    fn storage_prefix_contains_all_versions() {
        let kv = KeyVersion::new("k", tid(1, 1));
        assert!(kv
            .storage_key()
            .starts_with(&KeyVersion::storage_prefix(&Key::new("k"))));
    }

    #[test]
    fn parse_storage_key_rejects_non_data_keys() {
        assert!(KeyVersion::parse_storage_key("commit/00000000000000000001_x").is_err());
        assert!(KeyVersion::parse_storage_key("data/missing-suffix").is_err());
    }

    #[test]
    fn key_borrow_allows_str_lookup() {
        use std::collections::HashMap;
        let mut m: HashMap<Key, u32> = HashMap::new();
        m.insert(Key::new("a"), 1);
        assert_eq!(m.get("a"), Some(&1));
    }
}
