//! The node-local data cache.
//!
//! In addition to the metadata cache, each AFT node keeps a data cache that
//! stores payloads for a subset of the key versions it knows about (§3.1).
//! The cache avoids a storage round trip for frequently read versions; its
//! effect — modest over Redis, up to ~15-17% over DynamoDB, growing with
//! access skew — is evaluated in §6.2 (Figure 4).
//!
//! Entries are keyed by `(Key, TransactionId)` and are only ever inserted for
//! *committed* versions (the commit path and the read path both insert after
//! the commit record is known), so a cache hit can never leak dirty data.
//!
//! # Policy
//!
//! Each stripe is a byte-bounded *segmented LRU*: a slab of entries threaded
//! on two intrusive lists, **probation** and **protected**. A fill enters
//! probation at its head; a hit moves the entry to the head of protected;
//! when protected outgrows its share its tail is handed back to the head of
//! probation. The victim is always a list tail — probation's while it has
//! one, never the entry being inserted — so a cold version read once leaves
//! before a version that has been read again, and `get`, `insert` and `evict`
//! each touch a constant number of entries per byte they move: nothing on
//! those paths walks a stripe.
//!
//! The bound is on what the cache keeps alive: an entry is charged its
//! value's whole buffer. A value sliced out of an inline commit record
//! shares the record's buffer with its siblings, so each is charged the
//! record's length, and an entry whose siblings have left cannot hold their
//! bytes uncounted.
//!
//! **Version succession.** AFT never overwrites: a commit adds a new version
//! and Algorithm 1 sends almost every later read to it, so the version it
//! superseded is dead weight exactly where an LRU keeps it longest, while the
//! new one would start with no history. Inserting a version newer than every
//! cached version of its key therefore *takes over* the best standing among
//! them (protected if any was) and moves them to the victim end of probation.
//! They are demoted, not removed: a transaction that Algorithm 1 pins to an
//! older version still hits while there is room, and a cache that never fills
//! behaves exactly like one without the rule. Inserting a version *older*
//! than one already cached (a pinned reader's fill) demotes nothing. On a
//! trace shaped like the benchmark's `node-read-miss` workload
//! (`tests/cache_policy_trace.rs`, which pins the first and last of these)
//! plain LRU misses 3.91 times per transaction, the segmented lists alone
//! 4.43 — *worse*: the dead version sits in protected — and the segmented
//! lists with succession 3.14.
//!
//! **Why 80% is a constant.** On that trace a protected share of 50 / 80 /
//! 90 / 95% gives 3.32 / 3.14 / 3.14 / 3.15 misses per transaction: flat from
//! 80% up, so there is nothing for an operator to tune.
//!
//! # Striping
//!
//! The cache is lock-striped by the *user key* — `hash(key) → stripe`, each
//! stripe an independent cache over `capacity / stripes` bytes — so every
//! cached version of a key lives in one stripe (succession needs to see them
//! together) and concurrent readers of different keys never serialise on one
//! mutex. Small caches (below [`MIN_STRIPE_BYTES`] per stripe) collapse to a
//! single stripe and are byte-exact: one list pair over the whole capacity,
//! so tests and tiny configurations can predict every eviction.

use std::collections::HashMap;

use aft_storage::stripe_of;
use aft_types::{Key, TransactionId, Value};
use parking_lot::Mutex;

/// Maximum stripe count for a data cache.
pub const MAX_CACHE_STRIPES: usize = 16;

/// Minimum per-stripe capacity; caches smaller than `2 * MIN_STRIPE_BYTES`
/// use a single stripe.
pub const MIN_STRIPE_BYTES: usize = 1024 * 1024;

/// The share of a stripe's bytes its protected segment may hold, in percent.
pub const PROTECTED_PERCENT: usize = 80;

/// A byte-bounded segmented-LRU cache from key versions to payloads.
#[derive(Debug)]
pub struct DataCache {
    stripes: Box<[Mutex<Stripe>]>,
    capacity_bytes: usize,
    stripe_capacity: usize,
    protected_capacity: usize,
}

/// "No slot": the end of a list or of a key's version chain.
const NIL: u32 = u32::MAX;

/// The bytes an entry counts against its stripe: the whole buffer its value
/// keeps alive. A value sliced out of an inline commit record keeps the
/// record's buffer, so it is charged the record's length however few of the
/// record's values are still cached.
fn charge(value: &Value) -> usize {
    value.buffer_len()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation = 0,
    Protected = 1,
}

#[derive(Debug)]
struct Entry {
    key: Key,
    tid: TransactionId,
    value: Value,
    segment: Segment,
    /// Neighbour towards the head of the segment list (used more recently).
    prev: u32,
    /// Neighbour towards the tail of the segment list (evicted sooner).
    next: u32,
    /// The next older cached version of the same key.
    older: u32,
}

#[derive(Debug)]
struct List {
    head: u32,
    tail: u32,
    bytes: usize,
}

#[derive(Debug)]
struct Stripe {
    /// Key → slot of its newest cached version; the older ones hang off it
    /// through [`Entry::older`], newest first.
    index: HashMap<Key, u32>,
    slab: Vec<Option<Entry>>,
    free: Vec<u32>,
    /// Indexed by [`Segment`].
    lists: [List; 2],
}

impl Stripe {
    fn new() -> Self {
        let empty = || List {
            head: NIL,
            tail: NIL,
            bytes: 0,
        };
        Stripe {
            index: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            lists: [empty(), empty()],
        }
    }

    fn entry(&self, slot: u32) -> &Entry {
        self.slab[slot as usize]
            .as_ref()
            .expect("a linked slot is occupied")
    }

    fn entry_mut(&mut self, slot: u32) -> &mut Entry {
        self.slab[slot as usize]
            .as_mut()
            .expect("a linked slot is occupied")
    }

    fn bytes(&self) -> usize {
        self.lists[0].bytes + self.lists[1].bytes
    }

    fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// The slot caching version `tid` among a key's cached versions, walked
    /// newest first from `newest`.
    fn find_from(&self, newest: u32, tid: &TransactionId) -> Option<u32> {
        let mut at = newest;
        while at != NIL {
            let entry = self.entry(at);
            if entry.tid <= *tid {
                return (entry.tid == *tid).then_some(at);
            }
            at = entry.older;
        }
        None
    }

    fn newest_of(&self, key: &Key) -> u32 {
        self.index.get(key).copied().unwrap_or(NIL)
    }

    fn find(&self, key: &Key, tid: &TransactionId) -> Option<u32> {
        self.find_from(self.newest_of(key), tid)
    }

    /// Takes `slot` off its segment list.
    fn unlink(&mut self, slot: u32) {
        let (prev, next, segment, len) = {
            let e = self.entry(slot);
            (e.prev, e.next, e.segment, charge(&e.value))
        };
        match prev {
            NIL => self.lists[segment as usize].head = next,
            _ => self.entry_mut(prev).next = next,
        }
        match next {
            NIL => self.lists[segment as usize].tail = prev,
            _ => self.entry_mut(next).prev = prev,
        }
        self.lists[segment as usize].bytes -= len;
    }

    /// Puts an unlinked `slot` into `segment` between `prev` and `next`, one
    /// of which is `NIL`: the list's head or its tail.
    fn link(&mut self, slot: u32, segment: Segment, prev: u32, next: u32) {
        let len = {
            let e = self.entry_mut(slot);
            e.segment = segment;
            e.prev = prev;
            e.next = next;
            charge(&e.value)
        };
        match prev {
            NIL => self.lists[segment as usize].head = slot,
            _ => self.entry_mut(prev).next = slot,
        }
        match next {
            NIL => self.lists[segment as usize].tail = slot,
            _ => self.entry_mut(next).prev = slot,
        }
        self.lists[segment as usize].bytes += len;
    }

    /// Puts an unlinked `slot` at the head of `segment`.
    fn push_head(&mut self, slot: u32, segment: Segment) {
        self.link(slot, segment, NIL, self.lists[segment as usize].head);
    }

    /// Puts an unlinked `slot` at the tail of `segment`, its victim end.
    fn push_tail(&mut self, slot: u32, segment: Segment) {
        self.link(slot, segment, self.lists[segment as usize].tail, NIL);
    }

    /// Hands protected's tail back to probation until protected fits its
    /// share. The entry just placed at protected's head fits on its own, so
    /// it is never the one handed back.
    fn rebalance(&mut self, protected_capacity: usize) {
        while self.lists[Segment::Protected as usize].bytes > protected_capacity {
            let tail = self.lists[Segment::Protected as usize].tail;
            self.unlink(tail);
            self.push_head(tail, Segment::Probation);
        }
    }

    /// Records a hit on `slot`: it moves to the head of protected (of
    /// probation if it alone would overflow protected's share).
    fn touch(&mut self, slot: u32, protected_capacity: usize) {
        let segment = if charge(&self.entry(slot).value) <= protected_capacity {
            Segment::Protected
        } else {
            Segment::Probation
        };
        self.unlink(slot);
        self.push_head(slot, segment);
        self.rebalance(protected_capacity);
    }

    /// Drops `slot` from its list, its key's version chain and the slab.
    fn remove(&mut self, slot: u32) {
        self.unlink(slot);
        let entry = self.slab[slot as usize]
            .take()
            .expect("a linked slot is occupied");
        let newest = self.index[&entry.key];
        if newest != slot {
            let mut at = newest;
            while self.entry(at).older != slot {
                at = self.entry(at).older;
            }
            self.entry_mut(at).older = entry.older;
        } else if entry.older == NIL {
            self.index.remove(&entry.key);
        } else {
            *self
                .index
                .get_mut(&entry.key)
                .expect("an indexed key was just read") = entry.older;
        }
        self.free.push(slot);
    }

    fn insert(
        &mut self,
        key: Key,
        tid: TransactionId,
        value: Value,
        protected_capacity: usize,
        capacity: usize,
    ) {
        // A version cached already is replaced and keeps its standing.
        let mut standing = Segment::Probation;
        let mut newest = self.newest_of(&key);
        if let Some(old) = self.find_from(newest, &tid) {
            standing = self.entry(old).segment;
            self.remove(old);
            newest = self.newest_of(&key);
        }

        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                assert!(self.slab.len() < NIL as usize, "data cache slab is full");
                self.slab.push(None);
                (self.slab.len() - 1) as u32
            }
        };
        // Link the version into its key's chain. If it is the newest one
        // cached it succeeds the others: they go to the victim end of
        // probation, newest first so that the oldest is evicted first, and
        // their best standing passes to it.
        let older;
        if newest == NIL || self.entry(newest).tid < tid {
            older = newest;
            let mut at = older;
            while at != NIL {
                let superseded = self.entry(at);
                let next = superseded.older;
                if superseded.segment == Segment::Protected {
                    standing = Segment::Protected;
                }
                self.unlink(at);
                self.push_tail(at, Segment::Probation);
                at = next;
            }
            self.index.insert(key.clone(), slot);
        } else {
            let mut at = newest;
            loop {
                let next = self.entry(at).older;
                if next == NIL || self.entry(next).tid < tid {
                    break;
                }
                at = next;
            }
            older = std::mem::replace(&mut self.entry_mut(at).older, slot);
        }
        if charge(&value) > protected_capacity {
            standing = Segment::Probation;
        }
        self.slab[slot as usize] = Some(Entry {
            key,
            tid,
            value,
            segment: standing,
            prev: NIL,
            next: NIL,
            older,
        });
        self.push_head(slot, standing);
        self.rebalance(protected_capacity);

        // Evict list tails, probation's first, until the stripe fits. The new
        // entry fits a stripe on its own, so when it is the tail that comes
        // up there is another one to take.
        while self.bytes() > capacity {
            let tail = self.lists[Segment::Probation as usize].tail;
            let victim = if tail != NIL && tail != slot {
                tail
            } else {
                self.lists[Segment::Protected as usize].tail
            };
            debug_assert!(victim != slot && victim != NIL);
            self.remove(victim);
        }
    }
}

impl DataCache {
    /// Creates a cache bounded to `capacity_bytes` of value buffers. A capacity of
    /// zero disables caching entirely (every lookup misses). The stripe
    /// count scales with capacity: one stripe per [`MIN_STRIPE_BYTES`], at
    /// most [`MAX_CACHE_STRIPES`].
    pub fn new(capacity_bytes: usize) -> Self {
        let stripes = (capacity_bytes / MIN_STRIPE_BYTES).clamp(1, MAX_CACHE_STRIPES);
        Self::striped(capacity_bytes, stripes)
    }

    /// Creates a cache with an explicit stripe count (clamped to ≥ 1). Each
    /// stripe is an independent cache over `capacity_bytes / stripes` bytes.
    pub fn striped(capacity_bytes: usize, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        let stripe_capacity = capacity_bytes / stripes;
        DataCache {
            stripes: (0..stripes).map(|_| Mutex::new(Stripe::new())).collect(),
            capacity_bytes,
            stripe_capacity,
            // floor(stripe_capacity × share), in a form that cannot overflow.
            protected_capacity: stripe_capacity / 100 * PROTECTED_PERCENT
                + stripe_capacity % 100 * PROTECTED_PERCENT / 100,
        }
    }

    /// A disabled cache.
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Returns true if the cache can never hold anything.
    pub fn is_disabled(&self) -> bool {
        self.capacity_bytes == 0
    }

    /// Number of lock stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe(&self, key: &Key) -> &Mutex<Stripe> {
        &self.stripes[stripe_of(key.as_str(), self.stripes.len())]
    }

    /// Looks up the payload cached for version `tid` of `key`; a hit counts
    /// as a use of the entry.
    pub fn get(&self, key: &Key, tid: &TransactionId) -> Option<Value> {
        if self.is_disabled() {
            return None;
        }
        let mut stripe = self.stripe(key).lock();
        let slot = stripe.find(key, tid)?;
        stripe.touch(slot, self.protected_capacity);
        Some(stripe.entry(slot).value.clone())
    }

    /// Looks up the payload cached for version `tid` of `key` without
    /// counting as a use: the entry keeps its place on its list. An origin
    /// answers a peer's pull this way
    /// ([`AftNode::peek_cached`](crate::AftNode::peek_cached)), so serving
    /// its peers' read misses leaves its own cache's order as its reads
    /// made it.
    pub fn peek(&self, key: &Key, tid: &TransactionId) -> Option<Value> {
        if self.is_disabled() {
            return None;
        }
        let stripe = self.stripe(key).lock();
        let slot = stripe.find(key, tid)?;
        Some(stripe.entry(slot).value.clone())
    }

    /// Caches the payload of version `tid` of `key`, evicting from the tails
    /// of its stripe's lists if needed (see the module docs for where the
    /// entry starts and what it does to older versions of `key`). Values
    /// whose buffer is larger than a stripe are ignored.
    pub fn insert(&self, key: Key, tid: TransactionId, value: Value) {
        if self.is_disabled() || charge(&value) > self.stripe_capacity {
            return;
        }
        let mut stripe = self.stripe(&key).lock();
        stripe.insert(
            key,
            tid,
            value,
            self.protected_capacity,
            self.stripe_capacity,
        );
    }

    /// Removes the entry for version `tid` of `key` (garbage collection
    /// evicts data for deleted transactions).
    pub fn evict(&self, key: &Key, tid: &TransactionId) {
        let mut stripe = self.stripe(key).lock();
        if let Some(slot) = stripe.find(key, tid) {
            stripe.remove(slot);
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().len()).sum()
    }

    /// Returns true if the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes the cached entries are charged: each value's whole
    /// buffer.
    pub fn bytes(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().bytes()).sum()
    }

    /// Payload bytes in each stripe's protected segment; each is at most
    /// [`PROTECTED_PERCENT`] of a stripe's capacity.
    pub fn protected_bytes(&self) -> Vec<usize> {
        self.stripes
            .iter()
            .map(|s| s.lock().lists[Segment::Protected as usize].bytes)
            .collect()
    }

    /// Every cached version, read off the index without counting as a use
    /// (diagnostics and tests; this is the one walk over whole stripes).
    pub fn resident(&self) -> Vec<(Key, TransactionId)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            let stripe = stripe.lock();
            for &newest in stripe.index.values() {
                let mut at = newest;
                while at != NIL {
                    let entry = stripe.entry(at);
                    out.push((entry.key.clone(), entry.tid));
                    at = entry.older;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aft_types::Uuid;
    use bytes::Bytes;

    fn val(n: usize) -> Value {
        Bytes::from(vec![7u8; n])
    }

    fn tid(ts: u64) -> TransactionId {
        TransactionId::new(ts, Uuid::from_u128(ts as u128))
    }

    fn put(cache: &DataCache, key: &str, ts: u64, n: usize) {
        cache.insert(Key::new(key), tid(ts), val(n));
    }

    fn get(cache: &DataCache, key: &str, ts: u64) -> Option<Value> {
        cache.get(&Key::new(key), &tid(ts))
    }

    /// Residency without counting as a use.
    fn holds(cache: &DataCache, key: &str, ts: u64) -> bool {
        cache.resident().contains(&(Key::new(key), tid(ts)))
    }

    #[test]
    fn hit_and_miss() {
        let cache = DataCache::new(1024);
        assert!(get(&cache, "a", 1).is_none());
        put(&cache, "a", 1, 10);
        assert_eq!(get(&cache, "a", 1).unwrap().len(), 10);
        assert!(get(&cache, "a", 2).is_none(), "another version is a miss");
        assert_eq!(cache.bytes(), 10);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_slice_is_charged_the_buffer_it_keeps_alive() {
        // Thirty 16-byte values sliced out of one 600-byte record.
        let record = val(600);
        let cache = DataCache::new(2_000);
        for i in 0..30 {
            let value = record.slice(i * 20..i * 20 + 16);
            cache.insert(Key::new(format!("k{i}")), tid(1), value);
        }
        // Each entry pins the record: three of them fill the cache, not 30.
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.bytes(), 1_800);
        // The last one cached outlives its siblings and is still charged
        // the whole record it keeps alive.
        cache.evict(&Key::new("k28"), &tid(1));
        cache.evict(&Key::new("k27"), &tid(1));
        assert_eq!(cache.bytes(), 600);
        assert_eq!(get(&cache, "k29", 1).unwrap().len(), 16);
        // A record longer than a stripe is not cached through a short slice.
        let big = val(3_000);
        cache.insert(Key::new("big"), tid(2), big.slice(..10));
        assert!(get(&cache, "big", 2).is_none());
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let cache = DataCache::new(100);
        put(&cache, "cold", 1, 40);
        put(&cache, "hot", 1, 40);
        // "hot" is read again and moves to protected; "cold" was filled
        // after nothing and never read, however recently it arrived.
        get(&cache, "hot", 1);
        put(&cache, "colder", 1, 10);
        // 40 more bytes need one victim: probation's tail, the oldest
        // one-touch entry.
        put(&cache, "new", 1, 40);
        assert!(!holds(&cache, "cold", 1), "one-touch entry goes first");
        assert!(holds(&cache, "hot", 1), "re-read entry survives");
        assert!(holds(&cache, "colder", 1) && holds(&cache, "new", 1));
        // The next victims are still one-touch entries, in arrival order,
        // not the re-read one that was used longest ago.
        put(&cache, "newer", 1, 40);
        assert!(!holds(&cache, "colder", 1) && !holds(&cache, "new", 1));
        assert!(holds(&cache, "hot", 1) && holds(&cache, "newer", 1));
        assert!(cache.bytes() <= 100);
    }

    #[test]
    fn a_successor_inherits_and_the_demoted_version_is_the_next_victim() {
        let cache = DataCache::new(100);
        put(&cache, "k", 1, 30);
        get(&cache, "k", 1);
        put(&cache, "one-touch", 1, 30);
        assert_eq!(cache.protected_bytes(), vec![30]);
        // A newer version of "k" takes over its protected standing; the old
        // one is demoted behind even the one-touch entry, but stays while
        // there is room.
        put(&cache, "k", 2, 30);
        assert_eq!(cache.protected_bytes(), vec![30]);
        assert!(get(&cache, "k", 2).is_some());
        assert!(holds(&cache, "k", 1), "demoted, not removed");
        assert_eq!(cache.len(), 3);
        put(&cache, "filler", 1, 30);
        assert!(!holds(&cache, "k", 1), "the demoted version goes first");
        assert!(holds(&cache, "one-touch", 1) && holds(&cache, "k", 2));
    }

    #[test]
    fn an_older_version_demotes_nothing() {
        let cache = DataCache::new(100);
        put(&cache, "k", 5, 30);
        get(&cache, "k", 5);
        // A reader pinned to an older version fills it: plain probation
        // entry, and the newer version keeps its place.
        put(&cache, "k", 3, 30);
        assert_eq!(cache.protected_bytes(), vec![30]);
        put(&cache, "a", 1, 30);
        put(&cache, "b", 1, 30);
        assert!(!holds(&cache, "k", 3), "the older fill was the oldest fill");
        assert!(holds(&cache, "k", 5));
        // Versions between two cached ones are found again too.
        put(&cache, "k", 4, 5);
        assert!(get(&cache, "k", 4).is_some() && get(&cache, "k", 5).is_some());
    }

    #[test]
    fn the_entry_being_inserted_is_never_its_own_victim() {
        let cache = DataCache::new(100);
        put(&cache, "a", 1, 45);
        put(&cache, "b", 1, 45);
        get(&cache, "a", 1);
        get(&cache, "b", 1);
        // Protected holds 80 at most, so "a" was handed back to probation.
        assert_eq!(cache.protected_bytes(), vec![45]);
        // The newcomer is probation's head; both others must go to fit it,
        // the second of them from protected.
        put(&cache, "big", 1, 100);
        assert!(holds(&cache, "big", 1));
        assert_eq!((cache.len(), cache.bytes()), (1, 100));
        // Alone in probation and over the protected share, it stays put on
        // a hit, and the next insert takes it as the victim.
        assert!(get(&cache, "big", 1).is_some());
        assert_eq!(cache.protected_bytes(), vec![0]);
        put(&cache, "c", 1, 1);
        assert!(!holds(&cache, "big", 1) && holds(&cache, "c", 1));
    }

    #[test]
    fn a_peek_is_not_a_use() {
        let cache = DataCache::new(100);
        put(&cache, "peeked", 1, 40);
        put(&cache, "other", 1, 40);
        assert_eq!(cache.peek(&Key::new("peeked"), &tid(1)).unwrap().len(), 40);
        assert!(cache.peek(&Key::new("peeked"), &tid(2)).is_none());
        assert_eq!(cache.protected_bytes(), vec![0], "nothing promoted");
        // Still probation's tail, so the next fill evicts it first.
        put(&cache, "new", 1, 40);
        assert!(!holds(&cache, "peeked", 1) && holds(&cache, "other", 1));
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let cache = DataCache::new(16);
        put(&cache, "big", 1, 64);
        assert!(cache.is_empty());
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = DataCache::disabled();
        assert!(cache.is_disabled());
        put(&cache, "a", 1, 1);
        assert!(get(&cache, "a", 1).is_none());
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn reinsert_replaces_and_accounts_bytes() {
        let cache = DataCache::new(100);
        put(&cache, "a", 1, 30);
        put(&cache, "a", 1, 50);
        assert_eq!(cache.bytes(), 50);
        assert_eq!(cache.len(), 1);
        assert_eq!(get(&cache, "a", 1).unwrap().len(), 50);
        // A replaced entry keeps its (now protected) standing.
        put(&cache, "a", 1, 20);
        assert_eq!(cache.protected_bytes(), vec![20]);
        assert_eq!((cache.len(), cache.bytes()), (1, 20));
    }

    #[test]
    fn evict_removes_specific_entry() {
        let cache = DataCache::new(100);
        put(&cache, "a", 1, 10);
        put(&cache, "a", 2, 10);
        put(&cache, "b", 1, 10);
        cache.evict(&Key::new("a"), &tid(1));
        cache.evict(&Key::new("a"), &tid(9));
        assert!(get(&cache, "a", 1).is_none());
        assert!(get(&cache, "a", 2).is_some());
        assert!(get(&cache, "b", 1).is_some());
        assert_eq!(cache.bytes(), 20);
        cache.evict(&Key::new("a"), &tid(2));
        cache.evict(&Key::new("b"), &tid(1));
        assert!(cache.is_empty() && cache.resident().is_empty());
    }

    #[test]
    fn many_inserts_respect_capacity() {
        let cache = DataCache::new(1000);
        for i in 0..200 {
            put(&cache, &format!("k{}", i % 50), i, 17);
            get(&cache, &format!("k{}", i % 7), i);
        }
        assert!(cache.bytes() <= 1000);
        assert!(cache.len() <= 1000 / 17);
        assert_eq!(cache.len(), cache.resident().len());
        assert!(cache.protected_bytes()[0] <= 800);
    }

    #[test]
    fn stripe_count_scales_with_capacity() {
        // Tiny caches stay single-stripe so byte-exact eviction tests hold.
        assert_eq!(DataCache::new(1000).stripe_count(), 1);
        assert_eq!(DataCache::new(0).stripe_count(), 1);
        // Node-sized caches stripe up to the cap.
        assert_eq!(DataCache::new(4 * 1024 * 1024).stripe_count(), 4);
        assert_eq!(DataCache::new(256 * 1024 * 1024).stripe_count(), 16);
    }

    #[test]
    fn striped_cache_keeps_total_bytes_within_capacity() {
        let capacity = 8 * 1024 * 1024;
        let cache = DataCache::striped(capacity, 8);
        assert_eq!(cache.stripe_count(), 8);
        for i in 0..1000 {
            put(&cache, &format!("k/{i}"), 1, 64 * 1024);
        }
        assert!(cache.bytes() <= capacity);
        assert!(!cache.is_empty());
        // Values larger than one stripe's share are ignored, keeping the
        // per-stripe eviction loop well-defined.
        let before = cache.len();
        put(&cache, "big", 1, capacity / 8 + 1);
        assert_eq!(cache.len(), before);
        // Every version of a key lands in the key's stripe, whatever its id.
        let small = DataCache::striped(8 * 100, 8);
        for ts in 1..=5 {
            put(&small, "one-key", ts, 20);
        }
        assert_eq!((small.len(), small.bytes()), (5, 100));
    }
}
