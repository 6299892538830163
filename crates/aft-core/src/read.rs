//! The atomic read protocol — Algorithm 1.
//!
//! Given a requested key `k` and the transaction's read set so far, the
//! protocol picks a committed version of `k` such that the read set plus the
//! chosen version still forms an Atomic Readset (Definition 1 of the paper):
//!
//! * **Lower bound** (case 1): if any earlier read `l_i` was cowritten with a
//!   version of `k`, the chosen version must be at least as new as `i`.
//! * **Validity** (case 2): the chosen version `k_t` must not have been
//!   cowritten with a key `l` that the transaction already read at an *older*
//!   version (`l_j`, `j < t`) — otherwise the earlier read already fractured.
//!
//! Unlike the original RAMP protocol, read sets are built incrementally — no
//! pre-declared read sets — which is what makes AFT usable for interactive
//! serverless applications (§2.2), at the cost of potentially staler reads or
//! (rarely) an abort when no valid version exists (§3.6).
//!
//! # Cost of a read
//!
//! Both cases relate the read set `R` to one transaction's write set `W`, and
//! neither needs to walk `W`. The lower bound asks of each prior read whether
//! its writer also wrote `k`: one probe of a sorted write set per read,
//! O(|R|·log|W|). The validity check `∀ (l, j) ∈ R: l ∈ W ⇒ j ≥ t` is the same
//! predicate as `∀ l ∈ W: (l, j) ∈ R ⇒ j ≥ t`, so it walks whichever set is
//! smaller and probes the other: O(min(|R|·log|W|, |W|)) per candidate, and
//! the first candidate is valid unless a newer cowritten version raced the
//! transaction. A bulk load's 500-key commit record therefore costs a
//! ten-read transaction ten probes, not five hundred hash lookups. The whole
//! selection runs under one [`MetadataView`]:
//! one lock acquisition, no `Arc` traffic, candidates walked newest-first in
//! place. [`is_atomic_readset`] checks Definition 1 the same way. The
//! definitional loops (over `W`) live on in `tests/proptest_read_atomicity.rs`
//! as the reference these are compared against.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use aft_types::{Key, TransactionId, TransactionRecord};

use crate::metadata::{MetadataCache, MetadataView};

/// The versions a transaction has read so far: key → transaction that wrote
/// the version it read.
///
/// The read set only tracks reads that went through Algorithm 1; reads served
/// from the transaction's own write buffer (read-your-writes, §3.5) do not
/// participate.
#[derive(Debug, Clone, Default)]
pub struct ReadSet {
    versions: HashMap<Key, TransactionId>,
}

impl ReadSet {
    /// Creates an empty read set.
    pub fn new() -> Self {
        ReadSet::default()
    }

    /// The version of `key` this transaction has read, if any.
    pub fn version_of(&self, key: &Key) -> Option<TransactionId> {
        self.versions.get(key).copied()
    }

    /// Records that the transaction read version `tid` of `key`.
    pub fn record(&mut self, key: Key, tid: TransactionId) {
        self.versions.insert(key, tid);
    }

    /// Number of distinct keys read.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Returns true if nothing has been read yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterates over `(key, version)` pairs in the read set.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &TransactionId)> {
        self.versions.iter()
    }
}

/// The outcome of Algorithm 1 for one read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VersionChoice {
    /// The key has never been written (and no constraint forces a version):
    /// the read observes the NULL version.
    NotFound,
    /// The chosen committed version to read.
    Version(TransactionId),
    /// Versions exist, but none is compatible with the read set; the
    /// transaction must abort and retry (§3.6).
    NoValidVersion,
}

/// Algorithm 1: choose which committed version of `key` the transaction may
/// read, given its read set so far and the node's committed-transaction
/// metadata.
///
/// This function is pure with respect to the metadata cache — it never
/// touches storage — which is what keeps reads cheap: the only storage I/O a
/// read performs is fetching the chosen version's payload (unless the data
/// cache already holds it).
pub fn select_version(key: &Key, read_set: &ReadSet, metadata: &MetadataCache) -> VersionChoice {
    select_version_in(key, read_set, &metadata.view())
}

/// [`select_version`] over a view the caller holds, so that what it then
/// looks up about the chosen version is what the selection saw.
pub(crate) fn select_version_in(
    key: &Key,
    read_set: &ReadSet,
    metadata: &MetadataView<'_>,
) -> VersionChoice {
    // Lines 3-5: compute the lower bound from prior reads whose cowritten
    // sets include `key` (case 1 of the proof of Theorem 1). A prior read of
    // the same key also bounds the result from below (repeatable read is the
    // corollary of Theorem 1). Only a read newer than the bound so far can
    // raise it, so the others are not looked up.
    let mut lower = TransactionId::NULL;
    for (read_key, read_tid) in read_set.iter() {
        if *read_tid > lower
            && (read_key == key
                || metadata
                    .record(read_tid)
                    .is_some_and(|record| record.wrote(key)))
        {
            lower = *read_tid;
        }
    }

    // Lines 7-9: if the node knows no version of the key and nothing forces
    // one to exist, the read observes NULL. With a bound, a prior read was
    // cowritten with a version of `key` at least as new as `lower`, but the
    // node no longer has (or never had) any version ≥ lower — e.g. it was
    // garbage collected (§5.2.1).
    let mut versions = metadata.versions_newest_first(key).peekable();
    if versions.peek().is_none() && lower.is_null() {
        return VersionChoice::NotFound;
    }

    // Lines 11-23: walk candidate versions newest-first, skipping versions
    // older than the lower bound, and return the first one whose cowritten
    // set does not conflict with a prior read (case 2 of the proof). The
    // cache keeps index and commit set in step; an indexed version without a
    // record would be unreadable.
    for candidate in versions {
        if candidate < lower {
            break;
        }
        let valid = metadata.record(&candidate).is_some_and(|record| {
            cowritten_reads_are_as_new(&read_set.versions, record, &candidate)
        });
        if valid {
            return VersionChoice::Version(candidate);
        }
    }

    VersionChoice::NoValidVersion
}

/// Case 2's validity predicate for version `t` written by `record`, over the
/// reads `R`: `∀ (l, j) ∈ R: l ∈ T.writeset ⇒ j ≥ t`. The same predicate is
/// `∀ l ∈ T.writeset: (l, j) ∈ R ⇒ j ≥ t`, so the smaller of the two sets is
/// walked and the other one probed.
fn cowritten_reads_are_as_new<K: Borrow<Key> + Eq + Hash>(
    reads: &HashMap<K, TransactionId>,
    record: &TransactionRecord,
    t: &TransactionId,
) -> bool {
    if reads.len() <= record.write_set.len() {
        reads
            .iter()
            .all(|(l, j)| j >= t || !record.wrote(l.borrow()))
    } else {
        record
            .write_set
            .iter()
            .all(|l| reads.get(l).is_none_or(|j| j >= t))
    }
}

/// Checks that a set of `(key, version)` observations forms an Atomic Readset
/// (Definition 1) with respect to the cowritten sets recorded in `metadata`.
///
/// Used by tests, the property-based suite, and the anomaly detectors to
/// verify Theorem 1 end-to-end: for every read version `k_i`, if the reading
/// transaction also read a key `l` that `T_i` cowrote, the version of `l` it
/// read must be at least as new as `i`. Like [`select_version`] it walks the
/// smaller of the observations and `T_i`'s write set.
pub fn is_atomic_readset(reads: &[(Key, TransactionId)], metadata: &MetadataCache) -> bool {
    let metadata = metadata.view();
    let by_key: HashMap<&Key, TransactionId> = reads.iter().map(|(k, t)| (k, *t)).collect();
    reads.iter().all(|(_, tid)| {
        tid.is_null()
            || metadata
                .record(tid)
                .is_none_or(|record| cowritten_reads_are_as_new(&by_key, record, tid))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_types::{TransactionRecord, Uuid};
    use std::sync::Arc;

    fn tid(ts: u64) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(ts as u128))
    }

    fn commit(cache: &MetadataCache, ts: u64, keys: &[&str]) -> TransactionId {
        let id = tid(ts);
        cache.insert(Arc::new(TransactionRecord::new(
            id,
            keys.iter().map(Key::new),
        )));
        id
    }

    #[test]
    fn unknown_key_reads_null() {
        let cache = MetadataCache::new();
        let reads = ReadSet::new();
        assert_eq!(
            select_version(&Key::new("nope"), &reads, &cache),
            VersionChoice::NotFound
        );
    }

    #[test]
    fn latest_version_is_preferred() {
        let cache = MetadataCache::new();
        commit(&cache, 1, &["k"]);
        let newest = commit(&cache, 2, &["k"]);
        let reads = ReadSet::new();
        assert_eq!(
            select_version(&Key::new("k"), &reads, &cache),
            VersionChoice::Version(newest)
        );
    }

    #[test]
    fn cowritten_read_forces_newer_version() {
        // T1: {l}, T2: {k, l}. After reading k2, a read of l must not return l1.
        let cache = MetadataCache::new();
        let _t1 = commit(&cache, 1, &["l"]);
        let t2 = commit(&cache, 2, &["k", "l"]);

        let mut reads = ReadSet::new();
        reads.record(Key::new("k"), t2);
        assert_eq!(
            select_version(&Key::new("l"), &reads, &cache),
            VersionChoice::Version(t2),
            "the cowritten l2 is the only valid choice"
        );
    }

    #[test]
    fn older_read_invalidates_newer_cowritten_candidate() {
        // The staleness example of §3.6: Tr reads l1; later T2: {k, l} commits.
        // A read of k cannot return k2 (cowritten with l2 > l1). If k2 is the
        // only version of k, the read has no valid version.
        let cache = MetadataCache::new();
        let t1 = commit(&cache, 1, &["l"]);
        let t2 = commit(&cache, 2, &["k", "l"]);

        let mut reads = ReadSet::new();
        reads.record(Key::new("l"), t1);
        assert_eq!(
            select_version(&Key::new("k"), &reads, &cache),
            VersionChoice::NoValidVersion
        );

        // With an older, non-conflicting version of k available, that version
        // is chosen instead — the read is just staler than it would have been.
        let cache2 = MetadataCache::new();
        let t0 = commit(&cache2, 0, &["k"]);
        commit(&cache2, 1, &["l"]);
        commit(&cache2, 2, &["k", "l"]);
        let mut reads2 = ReadSet::new();
        reads2.record(Key::new("l"), t1);
        assert_eq!(
            select_version(&Key::new("k"), &reads2, &cache2),
            VersionChoice::Version(t0)
        );
        let _ = t2;
    }

    #[test]
    fn repeatable_read_returns_the_same_version() {
        let cache = MetadataCache::new();
        let first = commit(&cache, 1, &["k"]);
        let mut reads = ReadSet::new();
        reads.record(Key::new("k"), first);
        // A newer version arrives after our first read.
        commit(&cache, 5, &["k"]);
        // Corollary 1.1: the same version must be returned again... unless the
        // newer version does not conflict. Definition 1 alone allows a newer
        // version; strict repeatable read comes from the lower-bound rule plus
        // case (2): reading k again is bounded below by our own prior read,
        // and any *newer* version of k is only valid if it doesn't conflict.
        // The paper's Corollary 1.1 derives equality, because the newer
        // version k5 cowrites k, and our read of k at version 1 < 5 makes k5
        // invalid by case (2).
        assert_eq!(
            select_version(&Key::new("k"), &reads, &cache),
            VersionChoice::Version(first)
        );
    }

    #[test]
    fn missing_required_version_reports_no_valid_version() {
        // Read set says we read l from T2 which cowrote k, but every version
        // of k has been garbage collected.
        let cache = MetadataCache::new();
        let t2 = commit(&cache, 2, &["k", "l"]);
        cache.remove(&t2);
        // Re-insert only l's newer writer so l remains readable but k has no
        // versions at all.
        commit(&cache, 3, &["l"]);

        let mut reads = ReadSet::new();
        reads.record(Key::new("l"), t2);
        // The record for t2 is gone, so the lower bound cannot be derived from
        // it; with no versions of k and no constraint, the read sees NULL.
        assert_eq!(
            select_version(&Key::new("k"), &reads, &cache),
            VersionChoice::NotFound
        );
    }

    #[test]
    fn lower_bound_with_no_surviving_versions_aborts() {
        // The §5.2.1 hazard: Ta{k}, Tb{l}, Tc{k,l}; Tr reads ka, then lb is
        // garbage collected and only lc remains... here we model the *worse*
        // case where no version of l survives at all.
        let cache = MetadataCache::new();
        let ta = commit(&cache, 1, &["k", "l"]);
        let mut reads = ReadSet::new();
        reads.record(Key::new("k"), ta);
        // Remove ta and every version of l; ta's record is still needed to
        // derive the lower bound, so keep it but drop l from the index by
        // removing ta and re-adding a k-only record with the same id.
        cache.remove(&ta);
        cache.insert(Arc::new(TransactionRecord::new(
            ta,
            vec![Key::new("k"), Key::new("l")],
        )));
        // Simulate GC of the data/metadata for l by removing ta's index entry
        // for l via a fresh cache.
        let gc_cache = MetadataCache::new();
        gc_cache.insert(Arc::new(TransactionRecord::new(
            ta,
            vec![Key::new("k"), Key::new("l")],
        )));
        // Note: in the real system the record and index are removed together;
        // this test documents that a constrained read with zero surviving
        // versions reports NoValidVersion rather than silently returning NULL.
        let empty_l_cache = MetadataCache::new();
        empty_l_cache.insert(Arc::new(TransactionRecord::new(ta, vec![Key::new("k")])));
        // Force the lower bound via a same-key prior read: reads of l bounded
        // by a prior read of l itself.
        let mut reads_l = ReadSet::new();
        reads_l.record(Key::new("l"), ta);
        assert_eq!(
            select_version(&Key::new("l"), &reads_l, &empty_l_cache),
            VersionChoice::NoValidVersion
        );
        let _ = reads;
    }

    #[test]
    fn atomic_readset_checker_agrees_with_definition() {
        let cache = MetadataCache::new();
        let t1 = commit(&cache, 1, &["l"]);
        let t2 = commit(&cache, 2, &["k", "l"]);

        // {k2, l2} is atomic; {k2, l1} is fractured.
        assert!(is_atomic_readset(
            &[(Key::new("k"), t2), (Key::new("l"), t2)],
            &cache
        ));
        assert!(!is_atomic_readset(
            &[(Key::new("k"), t2), (Key::new("l"), t1)],
            &cache
        ));
        // A single read is always atomic.
        assert!(is_atomic_readset(&[(Key::new("k"), t2)], &cache));
        // NULL reads never fracture anything.
        assert!(is_atomic_readset(
            &[(Key::new("k"), TransactionId::NULL), (Key::new("l"), t1)],
            &cache
        ));
    }
}
