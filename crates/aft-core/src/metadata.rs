//! The node-local metadata cache: the Commit Set Cache, the key version
//! index, the superseded set and the debited versions.
//!
//! Every AFT node caches the IDs (and write sets) of recently committed
//! transactions and maintains an index from each key to the committed
//! versions of that key (§3.1). Algorithm 1 consults only this cache, so a
//! version becomes readable on a node exactly when that node learns of the
//! commit — either by committing locally, by receiving a multicast from a
//! peer (§4), or by being told by the fault manager (§4.2).
//!
//! The cache also keeps Algorithm 2's verdict for every record it holds.
//! Key version sets only grow (§4.1), so a cached record stops being the
//! newest version of one of its keys exactly when a newer version of that key
//! is inserted: each commit-set entry counts the keys its record is still
//! newest for, and the records whose count reached zero form the superseded
//! set that both garbage collectors sweep (§5.1, §5.2). A maintenance round
//! therefore costs what was superseded since the last one, not what is
//! cached. [`is_superseded`](crate::is_superseded) remains the definition:
//! the set is `{r cached : is_superseded(r)}` at all times.
//!
//! The same debit tells the collectors about single versions. A record that
//! loses one key but is still the newest version of another is not
//! superseded, yet the version it lost can never again be the one a fresh
//! read chooses. Each such `(transaction, key)` pair is *debited*: kept, in
//! transaction-ID order, until a collector [retires](MetadataCache::retire)
//! it — the version leaves its key's list while the record, which still names
//! a live version, stays — or the record itself is superseded, when the pair
//! goes and the whole record is collected instead. A late record is debited
//! for the keys it arrives already overwritten on. The debited set is
//! therefore `{(r, k) : r cached and not superseded, k ∈ r's write set, k's
//! version by r still indexed and not k's newest}`, and like the superseded
//! set it costs a sweep what was debited since the last one. (The paper
//! collects only whole transactions, §5.1–§5.2; one cold key would otherwise
//! pin every dead version its transaction wrote.)
//!
//! # What it costs
//!
//! All of this is soft state that every node holds and the fault manager
//! holds again (its view is this same type), so a deployment pays a key's
//! cost once per node plus once. Algorithm 2 and the collectors make one
//! version per key the normal case, and the index is shaped for it: a key is
//! one 48-byte bucket — the key's pointer, and its versions as a list that
//! holds a single 24-byte id inline — so about 100 bytes resident once the
//! table's power-of-two slack is counted. (An ordered set per key would
//! allocate a whole 11-slot tree leaf for that one id: some 350 bytes more.)
//! A second version moves the list to a heap `Vec` (48 bytes for two ids),
//! and it comes back inline when GC leaves one. A record costs its 40-byte
//! commit-set bucket, besides the record itself, which the nodes of one
//! process share: a 56-byte `Arc` block (id and write-set pointer) plus
//! 16 bytes per key written, so 88 bytes for a two-key transaction. (A
//! write set kept as an ordered tree cost a 192-byte leaf on top.) A debited
//! pair is a 40-byte tree entry that lives from the overwrite to the next
//! sweep. `tests/metadata_footprint.rs` pins these bytes under a counting
//! allocator.
//!
//! Time is bounded the same way, for the whole maintenance round and not
//! only its collectors: they walk the superseded and debited sets, the fault
//! manager lists the commit set from its floor, and every batch — the records
//! a drain hands the fault manager, a dissemination edge's merge, a sweep's
//! or a global GC round's [removals](MetadataCache::remove_all) — takes the
//! write lock once. A
//! round costs what changed since the last one, not what is cached.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord};
use parking_lot::{RwLock, RwLockReadGuard};

/// The committed-transaction metadata cache of one AFT node.
#[derive(Debug, Default)]
pub struct MetadataCache {
    inner: RwLock<Inner>,
}

/// What [`MetadataCache::merge`] did with one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Merged {
    /// Superseded by what the cache holds, so not inserted (§4.1).
    Superseded,
    /// Already cached.
    Known,
    /// Inserted.
    New,
}

#[derive(Debug, Default)]
struct Inner {
    /// Commit Set Cache: every committed transaction this node knows about,
    /// with the number of keys in its write set for which it is the newest
    /// cached version. The count shares the entry so it costs no memory: a
    /// 24-byte id and an 8-byte `Arc` make 32, and with or without the 4-byte
    /// count the 8-aligned bucket is 40.
    committed: HashMap<TransactionId, (Arc<TransactionRecord>, u32)>,
    /// Key version index: for each key, the committed transactions that wrote
    /// it, in transaction-ID order.
    key_index: HashMap<Key, Versions>,
    /// The cached records whose count is zero — Algorithm 2's superseded
    /// transactions — in transaction-ID order.
    superseded: BTreeSet<TransactionId>,
    /// The overwritten versions of records that are not superseded, in
    /// transaction-ID order (see the module docs).
    debited: BTreeSet<(TransactionId, Key)>,
}

impl Inner {
    /// See [`MetadataCache::insert`].
    fn insert(&mut self, record: Arc<TransactionRecord>) -> bool {
        let id = record.id;
        if self.committed.contains_key(&id) {
            return false;
        }
        // The write set is a set, so a key counts once however often the
        // transaction wrote it.
        let mut newest_for = 0u32;
        let mut late = false;
        for key in &record.write_set {
            let previous = match self.key_index.entry(key.clone()) {
                Entry::Occupied(slot) => {
                    let versions = slot.into_mut();
                    let previous = versions.newest();
                    versions.insert(id);
                    previous
                }
                Entry::Vacant(slot) => {
                    slot.insert(Versions::One(id));
                    newest_for += 1;
                    continue;
                }
            };
            // Otherwise it arrived out of order: the key already has a newer
            // version, so this record is never its newest.
            if previous < id {
                newest_for += 1;
                self.debit(previous, key);
            } else {
                late = true;
            }
        }
        self.committed.insert(id, (record, newest_for));
        // An empty write set (a read-only transaction) is superseded at once.
        if newest_for == 0 {
            self.superseded.insert(id);
        } else if late {
            self.debit_overwritten(id);
        }
        true
    }

    /// See [`MetadataCache::remove`].
    fn remove(&mut self, id: &TransactionId) -> Option<Arc<TransactionRecord>> {
        let Inner {
            committed,
            key_index,
            superseded,
            debited,
        } = self;
        let (record, count) = committed.remove(id)?;
        superseded.remove(id);
        if count > 0 && !debited.is_empty() {
            for key in &record.write_set {
                debited.remove(&(*id, key.clone()));
            }
        }
        let mut revived = Vec::new();
        for key in &record.write_set {
            let Some(versions) = key_index.get_mut(key) else {
                continue;
            };
            let was_newest = versions.newest() == *id;
            if versions.remove(id) {
                key_index.remove(key);
            } else if was_newest {
                let predecessor = versions.newest();
                let (_, count) = committed
                    .get_mut(&predecessor)
                    .expect("every indexed version has a commit-set entry");
                if *count == 0 {
                    superseded.remove(&predecessor);
                    revived.push(predecessor);
                } else {
                    debited.remove(&(predecessor, key.clone()));
                }
                *count += 1;
            }
        }
        // A revived record's other overwritten versions are debited again.
        for predecessor in revived {
            self.debit_overwritten(predecessor);
        }
        Some(record)
    }

    /// Algorithm 2 against what the cache holds: every key `record` wrote
    /// has a newer indexed version. `record` itself need not be cached.
    fn is_superseded(&self, record: &TransactionRecord) -> bool {
        record.write_set.iter().all(|key| {
            self.key_index
                .get(key)
                .is_some_and(|versions| versions.newest() > record.id)
        })
    }

    /// Charges `id` for losing `key` to a newer version: the record is
    /// superseded once it is the newest of none of its keys, and its debited
    /// pairs go with it; otherwise the lost version is debited.
    fn debit(&mut self, id: TransactionId, key: &Key) {
        let (record, count) = self
            .committed
            .get_mut(&id)
            .expect("every indexed version has a commit-set entry");
        *count -= 1;
        if *count > 0 {
            self.debited.insert((id, key.clone()));
            return;
        }
        self.superseded.insert(id);
        if record.write_set.len() > 1 {
            for key in &record.write_set {
                self.debited.remove(&(id, key.clone()));
            }
        }
    }

    /// Debits every version of `id` that is indexed but not its key's newest
    /// (a late record on arrival, a superseded one revived by a removal).
    fn debit_overwritten(&mut self, id: TransactionId) {
        let record = Arc::clone(&self.committed[&id].0);
        for key in &record.write_set {
            if self
                .key_index
                .get(key)
                .is_some_and(|versions| versions.newest() != id && versions.holds(&id))
            {
                self.debited.insert((id, key.clone()));
            }
        }
    }
}

/// One key's committed versions in ascending id order; never empty. One
/// version — what most keys have — is held inline, so indexing a key
/// allocates nothing beyond its table bucket.
#[derive(Debug)]
enum Versions {
    One(TransactionId),
    /// Two or more.
    Many(Vec<TransactionId>),
}

impl Versions {
    fn as_slice(&self) -> &[TransactionId] {
        match self {
            Versions::One(id) => std::slice::from_ref(id),
            Versions::Many(ids) => ids,
        }
    }

    fn newest(&self) -> TransactionId {
        *self
            .as_slice()
            .last()
            .expect("a version list is never empty")
    }

    fn holds(&self, id: &TransactionId) -> bool {
        self.as_slice().binary_search(id).is_ok()
    }

    /// Adds `id` in order, shifting only the ids newer than it: none for an
    /// in-order commit, a handful for a peer's late record. An id already
    /// present stays once.
    fn insert(&mut self, id: TransactionId) {
        match self {
            Versions::One(only) if *only == id => {}
            Versions::One(only) => {
                let only = *only;
                *self = Versions::Many(vec![only.min(id), only.max(id)]);
            }
            Versions::Many(ids) => {
                if let Err(at) = ids.binary_search(&id) {
                    ids.insert(at, id);
                }
            }
        }
    }

    /// Removes `id` if present and returns true if no version is left (the
    /// caller drops the key). A hot key may gather a hundred versions between
    /// two GC rounds and is then swept back to one: the list returns to the
    /// inline form at one version, and on the way down gives capacity back
    /// once three quarters of it are unused.
    fn remove(&mut self, id: &TransactionId) -> bool {
        match self {
            Versions::One(only) => only == id,
            Versions::Many(ids) => {
                if let Ok(at) = ids.binary_search(id) {
                    ids.remove(at);
                }
                if let [only] = ids[..] {
                    *self = Versions::One(only);
                } else if ids.len() <= ids.capacity() / 4 {
                    ids.shrink_to(ids.len() * 2);
                }
                false
            }
        }
    }
}

impl MetadataCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        MetadataCache::default()
    }

    /// Inserts a committed transaction record, updating the key version
    /// index, the superseded set and the debited versions. Returns `false` if
    /// the record was already known.
    pub fn insert(&self, record: Arc<TransactionRecord>) -> bool {
        self.inner.write().insert(record)
    }

    /// Inserts every record, in order, under one write lock (the fault
    /// manager's unpruned stream, a scan's recovered records); returns how
    /// many were new.
    pub fn insert_all(&self, records: impl IntoIterator<Item = Arc<TransactionRecord>>) -> usize {
        let mut inner = self.inner.write();
        let mut new = 0;
        for record in records {
            new += usize::from(inner.insert(record));
        }
        new
    }

    /// Merges records a peer sent, in order, under one write lock: a record
    /// Algorithm 2 finds superseded by what the cache holds — the batch's
    /// earlier records included — is left out (§4.1), one already known is
    /// left alone, and the rest are inserted. Returns what became of each.
    pub(crate) fn merge(&self, records: &[Arc<TransactionRecord>]) -> Vec<Merged> {
        let mut inner = self.inner.write();
        records
            .iter()
            .map(|record| {
                if inner.is_superseded(record) {
                    Merged::Superseded
                } else if inner.insert(Arc::clone(record)) {
                    Merged::New
                } else {
                    Merged::Known
                }
            })
            .collect()
    }

    /// Returns true if `id` is a committed transaction this node knows about.
    pub fn is_committed(&self, id: &TransactionId) -> bool {
        self.view().is_committed(id)
    }

    /// Returns the commit record for `id`, if known.
    pub fn record(&self, id: &TransactionId) -> Option<Arc<TransactionRecord>> {
        self.inner
            .read()
            .committed
            .get(id)
            .map(|(record, _)| Arc::clone(record))
    }

    /// Takes the cache's read lock once and returns a view to run a whole
    /// read-path computation against: Algorithm 1 looks at several records
    /// and one key's versions per read, and pays for the lock and for an
    /// `Arc` per record otherwise. Commits and GC wait while a view is alive,
    /// so keep it for one computation and take no second view (or any other
    /// method of the cache) on the same thread meanwhile.
    pub fn view(&self) -> MetadataView<'_> {
        MetadataView(self.inner.read())
    }

    /// Returns the newest committed version of `key` known to this node.
    pub fn latest_version_of(&self, key: &Key) -> Option<TransactionId> {
        self.view().latest_version_of(key)
    }

    /// Returns true if a committed version of `key` newer than `than` exists.
    pub fn has_newer_version(&self, key: &Key, than: &TransactionId) -> bool {
        self.latest_version_of(key)
            .is_some_and(|latest| latest > *than)
    }

    /// Removes a transaction's metadata (garbage collection, §5.1 and §5.2).
    ///
    /// The collectors only remove superseded records, but any record may be
    /// removed: taking away the newest version of a key makes its predecessor
    /// the newest again, so the predecessor is re-credited, leaves the
    /// superseded set and is no longer debited for that key. (The predecessor
    /// is the newest version still indexed: a retired version stays retired.)
    /// The caller is responsible for evicting any cached data; this method
    /// only touches metadata. Returns the removed record, if it was present.
    pub fn remove(&self, id: &TransactionId) -> Option<Arc<TransactionRecord>> {
        self.inner.write().remove(id)
    }

    /// Removes every listed transaction, as [`remove`](MetadataCache::remove)
    /// does, under one write lock (a GC sweep's or round's whole batch);
    /// returns how many were present.
    pub fn remove_all<'a>(&self, ids: impl IntoIterator<Item = &'a TransactionId>) -> usize {
        let mut inner = self.inner.write();
        ids.into_iter()
            .filter(|id| inner.remove(id).is_some())
            .count()
    }

    /// Retires debited versions (§5.1 at the grain of a version): each one
    /// leaves its key's version list and the debited set, so Algorithm 1 can
    /// never choose it again, while its record stays cached — the record is
    /// still the newest version of another key, and its write set still
    /// bounds what a reader of that key may read next. A version that is not
    /// debited (already retired, its record superseded or removed since) is
    /// left alone. The caller evicts cached data. Returns how many were
    /// retired.
    pub fn retire<'a>(&self, versions: impl IntoIterator<Item = &'a KeyVersion>) -> usize {
        let mut inner = self.inner.write();
        let Inner {
            key_index, debited, ..
        } = &mut *inner;
        let mut retired = 0;
        for version in versions {
            if debited.remove(&(version.tid, version.key.clone())) {
                // Never the key's last version: a newer one debited it.
                key_index
                    .get_mut(&version.key)
                    .expect("a debited version is indexed")
                    .remove(&version.tid);
                retired += 1;
            }
        }
        retired
    }

    /// Number of committed transactions currently cached.
    pub fn len(&self) -> usize {
        self.inner.read().committed.len()
    }

    /// Returns true if no committed transactions are cached.
    pub fn is_empty(&self) -> bool {
        self.inner.read().committed.is_empty()
    }

    /// Number of keys present in the key version index.
    pub fn indexed_keys(&self) -> usize {
        self.inner.read().key_index.len()
    }

    /// A snapshot of every cached commit record (used by checkpoints and by
    /// tests).
    pub fn all_records(&self) -> Vec<Arc<TransactionRecord>> {
        self.inner
            .read()
            .committed
            .values()
            .map(|(record, _)| Arc::clone(record))
            .collect()
    }

    /// A snapshot of the cached records that are superseded (Algorithm 2),
    /// oldest first — the order both garbage collectors sweep in (§5.2.1).
    /// Costs the size of the superseded set, not of the cache.
    pub fn superseded_oldest_first(&self) -> Vec<Arc<TransactionRecord>> {
        let inner = self.inner.read();
        inner
            .superseded
            .iter()
            .map(|id| Arc::clone(&inner.committed[id].0))
            .collect()
    }

    /// A snapshot of the debited versions, oldest transaction first — what
    /// the collectors retire one by one. Costs the size of the debited set,
    /// not of the cache.
    pub fn debited_oldest_first(&self) -> Vec<KeyVersion> {
        self.view().debited().collect()
    }
}

/// A consistent view of a [`MetadataCache`], held under its read lock (see
/// [`MetadataCache::view`]).
pub struct MetadataView<'a>(RwLockReadGuard<'a, Inner>);

impl MetadataView<'_> {
    /// True if `id` is a committed transaction this node knows about.
    pub fn is_committed(&self, id: &TransactionId) -> bool {
        self.0.committed.contains_key(id)
    }

    /// The commit record for `id`, if known.
    pub fn record(&self, id: &TransactionId) -> Option<&TransactionRecord> {
        self.0.committed.get(id).map(|(record, _)| &**record)
    }

    /// The newest committed version of `key` known to this node.
    pub fn latest_version_of(&self, key: &Key) -> Option<TransactionId> {
        self.0.key_index.get(key).map(Versions::newest)
    }

    /// The debited versions, oldest transaction first, as they are asked
    /// for: a caller that stops early pays for what it looked at.
    pub fn debited(&self) -> impl Iterator<Item = KeyVersion> + '_ {
        self.0
            .debited
            .iter()
            .map(|(id, key)| KeyVersion::new(key.clone(), *id))
    }

    /// True if `id`'s version of `key` is one this node may still choose:
    /// indexed, neither retired nor collected with its record.
    pub fn holds(&self, key: &Key, id: &TransactionId) -> bool {
        self.0
            .key_index
            .get(key)
            .is_some_and(|versions| versions.holds(id))
    }

    /// The committed versions of `key` known to this node, newest first —
    /// the order Algorithm 1 tries them in.
    pub fn versions_newest_first(&self, key: &Key) -> impl Iterator<Item = TransactionId> + '_ {
        self.0
            .key_index
            .get(key)
            .into_iter()
            .flat_map(|versions| versions.as_slice().iter().rev().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_types::Uuid;

    fn tid(ts: u64, id: u128) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(id))
    }

    fn record(ts: u64, keys: &[&str]) -> Arc<TransactionRecord> {
        Arc::new(TransactionRecord::new(
            tid(ts, ts as u128),
            keys.iter().map(Key::new),
        ))
    }

    fn versions_of(cache: &MetadataCache, key: &str) -> Vec<TransactionId> {
        cache.view().versions_newest_first(&Key::new(key)).collect()
    }

    fn superseded_ids(cache: &MetadataCache) -> Vec<TransactionId> {
        cache
            .superseded_oldest_first()
            .iter()
            .map(|r| r.id)
            .collect()
    }

    #[test]
    fn insert_updates_commit_set_and_index() {
        let cache = MetadataCache::new();
        assert!(cache.insert(record(1, &["a", "b"])));
        assert!(cache.insert(record(2, &["b"])));
        assert!(
            !cache.insert(record(2, &["b"])),
            "duplicate insert is a no-op"
        );

        assert_eq!(cache.len(), 2);
        assert!(cache.is_committed(&tid(1, 1)));
        assert!(!cache.is_committed(&tid(3, 3)));
        assert_eq!(versions_of(&cache, "b"), vec![tid(2, 2), tid(1, 1)]);
        assert_eq!(cache.latest_version_of(&Key::new("b")), Some(tid(2, 2)));
        assert_eq!(cache.latest_version_of(&Key::new("a")), Some(tid(1, 1)));
        assert_eq!(cache.latest_version_of(&Key::new("zzz")), None);
        assert_eq!(cache.indexed_keys(), 2);
    }

    #[test]
    fn has_newer_version_compares_full_ids() {
        let cache = MetadataCache::new();
        cache.insert(record(5, &["k"]));
        assert!(cache.has_newer_version(&Key::new("k"), &tid(4, 0)));
        assert!(!cache.has_newer_version(&Key::new("k"), &tid(5, 5)));
        assert!(!cache.has_newer_version(&Key::new("k"), &tid(9, 0)));
        assert!(!cache.has_newer_version(&Key::new("unknown"), &tid(0, 0)));
    }

    #[test]
    fn remove_cleans_the_index() {
        let cache = MetadataCache::new();
        cache.insert(record(1, &["a", "b"]));
        cache.insert(record(2, &["b"]));

        let removed = cache.remove(&tid(1, 1)).expect("record was present");
        assert_eq!(removed.id, tid(1, 1));
        assert!(
            cache.remove(&tid(1, 1)).is_none(),
            "second remove is a no-op"
        );

        // "a" had only the removed version; its index entry disappears.
        assert!(versions_of(&cache, "a").is_empty());
        // "b" still has the newer version.
        assert_eq!(versions_of(&cache, "b"), vec![tid(2, 2)]);
        assert_eq!(cache.indexed_keys(), 1);
    }

    #[test]
    fn a_new_newest_version_supersedes_its_predecessor() {
        let cache = MetadataCache::new();
        cache.insert(record(10, &["a", "b"]));
        cache.insert(record(20, &["a"]));
        assert!(superseded_ids(&cache).is_empty(), "b is still current");
        cache.insert(record(40, &["b"]));
        assert_eq!(superseded_ids(&cache), vec![tid(10, 10)]);
        // An older id arriving late is never the newest of its key.
        cache.insert(record(30, &["b"]));
        assert_eq!(superseded_ids(&cache), vec![tid(10, 10), tid(30, 30)]);
        // A read-only transaction wrote nothing anyone could still need.
        cache.insert(record(5, &[]));
        assert_eq!(
            superseded_ids(&cache),
            vec![tid(5, 5), tid(10, 10), tid(30, 30)]
        );
    }

    #[test]
    fn removing_a_newest_version_revives_its_predecessor() {
        let cache = MetadataCache::new();
        cache.insert(record(1, &["a", "b"]));
        cache.insert(record(2, &["a", "b"]));
        cache.insert(record(3, &["a"]));
        assert_eq!(superseded_ids(&cache), vec![tid(1, 1)]);

        // T2 is still the newest "b"; without it T1 is again.
        cache.remove(&tid(2, 2));
        assert!(superseded_ids(&cache).is_empty());
        // Removing a superseded record changes nobody else's verdict.
        cache.insert(record(4, &["b"]));
        assert_eq!(superseded_ids(&cache), vec![tid(1, 1)]);
        cache.remove(&tid(1, 1));
        assert!(superseded_ids(&cache).is_empty());
        assert_eq!(cache.len(), 2);
    }

    fn debited(cache: &MetadataCache) -> Vec<(u64, String)> {
        cache
            .debited_oldest_first()
            .into_iter()
            .map(|v| (v.tid.timestamp, v.key.to_string()))
            .collect()
    }

    fn pair(ts: u64, key: &str) -> KeyVersion {
        KeyVersion::new(key, tid(ts, ts as u128))
    }

    #[test]
    fn an_overwritten_version_of_a_live_record_is_debited_then_retired() {
        let cache = MetadataCache::new();
        cache.insert(record(10, &["a", "b"]));
        cache.insert(record(20, &["a"]));
        assert!(superseded_ids(&cache).is_empty(), "b is still current");
        assert_eq!(debited(&cache), [(10, "a".into())]);

        assert_eq!(cache.retire(&[pair(10, "a"), pair(10, "b")]), 1);
        assert_eq!(versions_of(&cache, "a"), [tid(20, 20)]);
        assert_eq!(versions_of(&cache, "b"), [tid(10, 10)]);
        assert!(cache.is_committed(&tid(10, 10)), "the record stays");
        assert!(!cache.view().holds(&Key::new("a"), &tid(10, 10)));
        assert!(debited(&cache).is_empty());
        assert_eq!(cache.retire(&[pair(10, "a")]), 0, "retired once");

        // Losing its last key supersedes the record as before.
        cache.insert(record(40, &["b"]));
        assert_eq!(superseded_ids(&cache), [tid(10, 10)]);
        assert!(debited(&cache).is_empty());
        cache.remove(&tid(10, 10));
        assert_eq!(versions_of(&cache, "a"), [tid(20, 20)]);
    }

    #[test]
    fn a_late_record_is_debited_for_the_keys_it_arrives_overwritten_on() {
        let cache = MetadataCache::new();
        cache.insert(record(30, &["a"]));
        cache.insert(record(20, &["a", "b"]));
        assert_eq!(debited(&cache), [(20, "a".into())]);
        // Late on every key: superseded on arrival, nothing debited.
        cache.insert(record(10, &["a", "b"]));
        assert_eq!(superseded_ids(&cache), [tid(10, 10)]);
        assert_eq!(debited(&cache), [(20, "a".into())]);
    }

    #[test]
    fn a_superseded_record_takes_its_debited_versions_with_it() {
        let cache = MetadataCache::new();
        cache.insert(record(10, &["a", "b", "c"]));
        cache.insert(record(20, &["a"]));
        cache.insert(record(30, &["b"]));
        assert_eq!(debited(&cache), [(10, "a".into()), (10, "b".into())]);
        cache.insert(record(40, &["c"]));
        assert_eq!(superseded_ids(&cache), [tid(10, 10)]);
        assert!(debited(&cache).is_empty());
        assert_eq!(cache.retire(&[pair(10, "a")]), 0);
        assert_eq!(versions_of(&cache, "a"), [tid(20, 20), tid(10, 10)]);
    }

    #[test]
    fn removing_a_newest_version_moves_the_debits_back() {
        let cache = MetadataCache::new();
        cache.insert(record(1, &["a", "b"]));
        cache.insert(record(2, &["a"]));
        assert_eq!(debited(&cache), [(1, "a".into())]);
        cache.remove(&tid(2, 2));
        assert!(debited(&cache).is_empty(), "T1 is a's newest again");

        // A superseded record revived by a removal is debited for the keys
        // it is still not the newest of.
        cache.insert(record(3, &["a"]));
        cache.insert(record(4, &["b"]));
        assert_eq!(superseded_ids(&cache), [tid(1, 1)]);
        assert!(debited(&cache).is_empty());
        cache.remove(&tid(4, 4));
        assert!(superseded_ids(&cache).is_empty());
        assert_eq!(debited(&cache), [(1, "a".into())]);
        // Removing a debited record drops its debits.
        cache.remove(&tid(1, 1));
        assert!(debited(&cache).is_empty());
    }

    #[test]
    fn a_version_list_gives_capacity_back_on_the_way_down() {
        let mut versions = Versions::One(tid(0, 0));
        for ts in (1..100).rev() {
            versions.insert(tid(ts, u128::from(ts)));
        }
        versions.insert(tid(50, 50));
        assert_eq!(versions.as_slice().len(), 100);
        assert!(versions.as_slice().windows(2).all(|w| w[0] < w[1]));

        for ts in 0..99 {
            assert!(!versions.remove(&tid(ts, u128::from(ts))));
            match &versions {
                Versions::Many(ids) => assert!(ids.len() > ids.capacity() / 4, "at {ts}"),
                Versions::One(only) => assert_eq!((ts, *only), (98, tid(99, 99))),
            }
        }
        assert!(!versions.remove(&tid(7, 7)), "an absent id is not the last");
        assert!(versions.remove(&tid(99, 99)));
    }

    #[test]
    fn a_merge_is_algorithm_2_then_insert_record_by_record() {
        let cache = MetadataCache::new();
        cache.insert(record(10, &["a"]));
        let batch = [
            record(5, &["a"]), // older than the cached a
            record(20, &["a", "b"]),
            record(15, &["b"]),      // older than the batch's own b
            record(20, &["a", "b"]), // known
            record(12, &["a", "c"]), // late on a, newest of c
        ];
        assert_eq!(
            cache.merge(&batch),
            [
                Merged::Superseded,
                Merged::New,
                Merged::Superseded,
                Merged::Known,
                Merged::New
            ]
        );
        assert_eq!(cache.len(), 3);
        assert_eq!(superseded_ids(&cache), [tid(10, 10)]);
        assert_eq!(debited(&cache), [(12, "a".into())]);
    }

    #[test]
    fn batched_inserts_and_removals_match_one_at_a_time() {
        let records = [
            record(1, &["a", "b"]),
            record(2, &["a"]),
            record(3, &["b", "c"]),
            record(4, &["c"]),
            record(2, &["a"]),
        ];
        let (batched, single) = (MetadataCache::new(), MetadataCache::new());
        assert_eq!(batched.insert_all(records.iter().cloned()), 4);
        for record in &records {
            single.insert(Arc::clone(record));
        }
        let gone = [tid(1, 1), tid(4, 4), tid(9, 9)];
        assert_eq!(batched.remove_all(&gone), 2);
        for id in &gone {
            single.remove(id);
        }
        for cache in [&batched, &single] {
            assert_eq!(cache.len(), 2);
            assert_eq!(versions_of(cache, "c"), [tid(3, 3)]);
        }
        assert_eq!(superseded_ids(&batched), superseded_ids(&single));
        assert_eq!(debited(&batched), debited(&single));
    }

    #[test]
    fn record_lookup_returns_write_set() {
        let cache = MetadataCache::new();
        cache.insert(record(7, &["k", "l"]));
        let r = cache.record(&tid(7, 7)).unwrap();
        assert!(r.wrote(&Key::new("k")));
        assert!(cache.record(&tid(8, 8)).is_none());
    }
}
