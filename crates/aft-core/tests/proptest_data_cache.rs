//! Property test of the data cache against a naive model of its policy.
//!
//! [`DataCache`] keeps its entries in a slab threaded on intrusive lists with
//! a per-key version chain, so that no operation walks a stripe. The model
//! below states the same policy (see the `data_cache` module docs) the
//! obvious way — two `Vec`s per stripe, searched and shifted linearly — and
//! random operation sequences must leave both with the same hit-or-miss
//! answers and the same resident set after every step.

use std::collections::BTreeSet;

use aft_core::data_cache::PROTECTED_PERCENT;
use aft_core::DataCache;
use aft_storage::stripe_of;
use aft_types::{Key, TransactionId, Uuid};
use bytes::Bytes;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Get(u8, u64),
    Insert(u8, u64, usize),
    Evict(u8, u64),
}

/// One stripe's capacity in the caches under test.
const STRIPE_BYTES: usize = 64;

fn arb_op() -> impl Strategy<Value = Op> {
    // Few keys and few versions so that gets hit, versions of a key arrive in
    // and out of id order, and reinsertion happens; mostly small values so a
    // stripe holds several, with some around the protected share (51) and
    // the stripe itself, and one just over it.
    let len = prop_oneof![
        6 => 1..12usize,
        2 => 12..40usize,
        1 => 48..=STRIPE_BYTES + 1,
    ];
    prop_oneof![
        4 => (0..6u8, 1..5u64).prop_map(|(k, v)| Op::Get(k, v)),
        4 => (0..6u8, 1..5u64, len).prop_map(|(k, v, n)| Op::Insert(k, v, n)),
        1 => (0..6u8, 1..5u64).prop_map(|(k, v)| Op::Evict(k, v)),
    ]
}

fn key(k: u8) -> Key {
    Key::new(format!("key-{k}"))
}

fn version(v: u64) -> TransactionId {
    TransactionId::new(v, Uuid::from_u128(v as u128))
}

#[derive(Debug, Clone, PartialEq)]
struct ModelEntry {
    key: u8,
    version: u64,
    len: usize,
}

/// One stripe of the model: each segment a `Vec`, index 0 its head (used most
/// recently), the last element its tail (the victim end).
#[derive(Debug, Default)]
struct ModelStripe {
    probation: Vec<ModelEntry>,
    protected: Vec<ModelEntry>,
}

fn bytes_of(list: &[ModelEntry]) -> usize {
    list.iter().map(|e| e.len).sum()
}

impl ModelStripe {
    /// Removes and returns the entry, with whether it was protected.
    fn take(&mut self, key: u8, version: u64) -> Option<(ModelEntry, bool)> {
        let is = |e: &ModelEntry| e.key == key && e.version == version;
        if let Some(i) = self.probation.iter().position(is) {
            return Some((self.probation.remove(i), false));
        }
        let i = self.protected.iter().position(is)?;
        Some((self.protected.remove(i), true))
    }

    fn rebalance(&mut self, protected_capacity: usize) {
        while bytes_of(&self.protected) > protected_capacity {
            let tail = self.protected.pop().expect("over its share");
            self.probation.insert(0, tail);
        }
    }

    /// The length of the value a lookup returns, if it hits.
    fn get(&mut self, key: u8, version: u64, protected_capacity: usize) -> Option<usize> {
        let (entry, _) = self.take(key, version)?;
        let len = entry.len;
        if len <= protected_capacity {
            self.protected.insert(0, entry);
            self.rebalance(protected_capacity);
        } else {
            self.probation.insert(0, entry);
        }
        Some(len)
    }

    fn insert(&mut self, new: ModelEntry, protected_capacity: usize, capacity: usize) {
        let mut protected = self
            .take(new.key, new.version)
            .is_some_and(|(_, was_protected)| was_protected);

        // Succession: the newest cached version of its key takes the best
        // standing of the others and sends them to probation's victim end,
        // the oldest last.
        let others = |e: &&ModelEntry| e.key == new.key;
        let mut older: Vec<ModelEntry> = self
            .probation
            .iter()
            .chain(&self.protected)
            .filter(others)
            .cloned()
            .collect();
        if older.iter().all(|e| e.version < new.version) {
            protected |= self.protected.iter().any(|e| e.key == new.key);
            self.probation.retain(|e| e.key != new.key);
            self.protected.retain(|e| e.key != new.key);
            older.sort_by_key(|e| std::cmp::Reverse(e.version));
            self.probation.extend(older);
        }

        if protected && new.len <= protected_capacity {
            self.protected.insert(0, new.clone());
            self.rebalance(protected_capacity);
        } else {
            self.probation.insert(0, new.clone());
        }
        while bytes_of(&self.probation) + bytes_of(&self.protected) > capacity {
            if self.probation.last().is_some_and(|tail| *tail != new) {
                self.probation.pop();
            } else {
                self.protected.pop().expect("something else to evict");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn the_cache_behaves_like_the_naive_model_of_its_policy(
        stripes in 1..4usize,
        ops in proptest::collection::vec(arb_op(), 1..200),
    ) {
        let capacity = STRIPE_BYTES * stripes;
        let protected_capacity = STRIPE_BYTES * PROTECTED_PERCENT / 100;
        let cache = DataCache::striped(capacity, stripes);
        let mut model: Vec<ModelStripe> = (0..stripes).map(|_| ModelStripe::default()).collect();

        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Get(k, v) => {
                    let stripe = &mut model[stripe_of(key(k).as_str(), stripes)];
                    let expected = stripe.get(k, v, protected_capacity);
                    let got = cache.get(&key(k), &version(v)).map(|value| value.len());
                    prop_assert_eq!(got, expected, "step {}: get {} v{}", step, k, v);
                }
                Op::Insert(k, v, len) => {
                    cache.insert(key(k), version(v), Bytes::from(vec![k; len]));
                    if len <= STRIPE_BYTES {
                        let entry = ModelEntry { key: k, version: v, len };
                        model[stripe_of(key(k).as_str(), stripes)]
                            .insert(entry, protected_capacity, STRIPE_BYTES);
                    }
                }
                Op::Evict(k, v) => {
                    cache.evict(&key(k), &version(v));
                    model[stripe_of(key(k).as_str(), stripes)].take(k, v);
                }
            }

            let resident: BTreeSet<(Key, TransactionId)> = cache.resident().into_iter().collect();
            let expected: BTreeSet<(Key, TransactionId)> = model
                .iter()
                .flat_map(|s| s.probation.iter().chain(&s.protected))
                .map(|e| (key(e.key), version(e.version)))
                .collect();
            prop_assert_eq!(&resident, &expected, "step {}: resident set", step);
            prop_assert_eq!(cache.len(), resident.len(), "step {}: len() is the index size", step);
            let model_bytes: usize =
                model.iter().map(|s| bytes_of(&s.probation) + bytes_of(&s.protected)).sum();
            prop_assert_eq!(cache.bytes(), model_bytes, "step {}: bytes", step);
            prop_assert!(cache.bytes() <= capacity);
            let protected: Vec<usize> = model.iter().map(|s| bytes_of(&s.protected)).collect();
            prop_assert_eq!(cache.protected_bytes(), protected.clone(), "step {}: protected", step);
            prop_assert!(protected.iter().all(|&b| b <= protected_capacity));
        }
    }
}
