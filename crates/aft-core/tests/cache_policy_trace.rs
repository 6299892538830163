//! A deterministic gate on the data cache's *policy*.
//!
//! The benchmark's `node-read-miss` workload is where the cache's eviction
//! policy shows (working set 8× the cache), but a benchmark run is not part
//! of tier-1. This test replays a seeded, single-threaded trace of the same
//! shape straight through [`DataCache`] and through a reference plain-LRU
//! model, and compares exact miss counts — no clock, no threads — so a policy
//! regression fails `cargo test`.
//!
//! The shape: 64 000 keys preloaded in key order, then transactions of ten
//! Zipf(0.9) reads of each key's newest version (a miss is filled, as
//! `AftNode::get` does) and two Zipf(0.9) writes that commit a new version of
//! their keys at the end of the transaction; 1 KiB values, 8 MiB cache.

use std::collections::{BTreeMap, HashMap};

use aft_core::DataCache;
use aft_types::{Key, TransactionId, Uuid, Value};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: usize = 64_000;
const ZIPF: f64 = 0.9;
const VALUE_BYTES: usize = 1024;
const CACHE_BYTES: usize = 8 << 20;
const READS: usize = 10;
const WRITES: usize = 2;
const WARMUP_STEPS: usize = 8_000;
const MEASURED_STEPS: usize = 24_000;

/// What the trace drives: the cache under test or the reference model.
trait Cache {
    fn get(&mut self, key: &Key, version: TransactionId) -> bool;
    fn insert(&mut self, key: &Key, version: TransactionId);
}

struct UnderTest {
    cache: DataCache,
    value: Value,
}

impl Cache for UnderTest {
    fn get(&mut self, key: &Key, version: TransactionId) -> bool {
        self.cache.get(key, &version).is_some()
    }

    fn insert(&mut self, key: &Key, version: TransactionId) {
        self.cache.insert(key.clone(), version, self.value.clone());
    }
}

/// The policy the data cache had before it was segmented: one recency order
/// over versions, the least recently used one evicted first. Every entry is
/// `VALUE_BYTES` long, so the byte bound is an entry count.
#[derive(Default)]
struct PlainLru {
    tick: u64,
    last_used: HashMap<(Key, TransactionId), u64>,
    by_age: BTreeMap<u64, (Key, TransactionId)>,
}

impl PlainLru {
    fn touch(&mut self, id: (Key, TransactionId)) {
        self.tick += 1;
        if let Some(old) = self.last_used.insert(id.clone(), self.tick) {
            self.by_age.remove(&old);
        }
        self.by_age.insert(self.tick, id);
    }
}

impl Cache for PlainLru {
    fn get(&mut self, key: &Key, version: TransactionId) -> bool {
        let id = (key.clone(), version);
        let hit = self.last_used.contains_key(&id);
        if hit {
            self.touch(id);
        }
        hit
    }

    fn insert(&mut self, key: &Key, version: TransactionId) {
        self.touch((key.clone(), version));
        while self.last_used.len() > CACHE_BYTES / VALUE_BYTES {
            let (_, oldest) = self.by_age.pop_first().expect("over capacity");
            self.last_used.remove(&oldest);
        }
    }
}

/// Inverse-CDF Zipf sampler over `0..KEYS` (rank 0 the most popular).
struct Zipf(Vec<f64>);

impl Zipf {
    fn new() -> Self {
        let mut cdf: Vec<f64> = Vec::with_capacity(KEYS);
        let mut total = 0.0;
        for rank in 1..=KEYS {
            total += 1.0 / (rank as f64).powf(ZIPF);
            cdf.push(total);
        }
        cdf.iter_mut().for_each(|c| *c /= total);
        Zipf(cdf)
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.0.partition_point(|c| *c < u).min(KEYS - 1)
    }
}

fn version(n: u64) -> TransactionId {
    TransactionId::new(n, Uuid::from_u128(n as u128))
}

/// Replays the trace and returns the misses of the measured steps.
fn replay(cache: &mut dyn Cache) -> usize {
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::new(format!("key-{i:08}"))).collect();
    let mut newest = vec![version(1); KEYS];
    for key in &keys {
        cache.insert(key, version(1));
    }

    let zipf = Zipf::new();
    let mut rng = StdRng::seed_from_u64(20_200_427);
    let mut misses = 0;
    for step in 0..WARMUP_STEPS + MEASURED_STEPS {
        let mut written = [0usize; WRITES];
        for function in 0..WRITES {
            for _ in 0..READS / WRITES {
                let k = zipf.sample(&mut rng);
                // A read of a key this transaction already wrote is served
                // by its write buffer and never reaches the cache.
                if written[..function].contains(&k) {
                    continue;
                }
                if !cache.get(&keys[k], newest[k]) {
                    cache.insert(&keys[k], newest[k]);
                    if step >= WARMUP_STEPS {
                        misses += 1;
                    }
                }
            }
            written[function] = zipf.sample(&mut rng);
        }
        // Commit: the written keys get a new newest version, cached at once.
        let committed = version(step as u64 + 2);
        for &k in &written {
            newest[k] = committed;
            cache.insert(&keys[k], committed);
        }
    }
    misses
}

#[test]
fn the_segmented_cache_misses_less_than_plain_lru_on_a_read_miss_trace() {
    let mut under_test = UnderTest {
        cache: DataCache::new(CACHE_BYTES),
        value: Bytes::from(vec![7u8; VALUE_BYTES]),
    };
    let segmented = replay(&mut under_test) as f64 / MEASURED_STEPS as f64;
    let plain = replay(&mut PlainLru::default()) as f64 / MEASURED_STEPS as f64;
    println!("misses per step: segmented {segmented:.4}, plain LRU {plain:.4}");

    assert!(
        plain >= 3.7,
        "the trace no longer stresses the cache: plain LRU misses {plain:.4} per step"
    );
    assert!(
        segmented <= 3.3,
        "policy regression: {segmented:.4} misses per step (plain LRU: {plain:.4})"
    );
    // The trace fills every stripe with equal-sized values, so the cache ends
    // exactly full.
    assert_eq!(under_test.cache.bytes(), CACHE_BYTES);
    assert_eq!(under_test.cache.len(), CACHE_BYTES / VALUE_BYTES);
}
