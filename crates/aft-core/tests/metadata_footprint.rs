//! An exact gate on what the metadata cache keeps resident.
//!
//! Every node holds a [`MetadataCache`] and the fault manager holds another,
//! so a key's cost in it is paid N+1 times per deployment — and it reaches
//! the benchmark only as a share of `peak_rss_mb`. This binary has a counting
//! allocator of its own and reads the cache's live bytes (allocated minus
//! freed) directly: no clock, no threads, the same figure on every run.
//! `-- --nocapture` prints them.
//!
//! Keys and records are built before a measurement's baseline is taken unless
//! it says otherwise, so what is counted is the cache: its two tables, its
//! version lists and its superseded and debited sets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use aft_core::MetadataCache;
use aft_types::{Key, TransactionId, TransactionRecord, Uuid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct CountingAllocator;

thread_local! {
    /// Bytes this thread has allocated and not freed. Per thread, so tests
    /// running beside each other (and the harness) do not see one another.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter touches no allocator state, and the thread-local is
// a `const`-initialised `Cell` with no destructor, so reading it never
// allocates or runs during its own teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

fn tid(ts: u64) -> TransactionId {
    TransactionId::new(ts, Uuid::from_u128(u128::from(ts)))
}

fn record(ts: u64, keys: impl IntoIterator<Item = Key>) -> Arc<TransactionRecord> {
    Arc::new(TransactionRecord::new(tid(ts), keys))
}

fn keys(n: usize) -> Vec<Key> {
    (0..n).map(|i| Key::new(format!("key/{i:08}"))).collect()
}

/// The bulk load every benchmark workload starts from: `keys` in records of
/// 500, timestamps from 1.
fn preload(keys: &[Key]) -> Vec<Arc<TransactionRecord>> {
    keys.chunks(500)
        .zip(1..)
        .map(|(chunk, ts)| record(ts, chunk.iter().cloned()))
        .collect()
}

/// Live bytes of a cache holding exactly `records`.
fn resident(records: &[Arc<TransactionRecord>]) -> (MetadataCache, isize) {
    let before = live_bytes();
    let cache = MetadataCache::new();
    for record in records {
        assert!(cache.insert(Arc::clone(record)));
    }
    let bytes = live_bytes() - before;
    (cache, bytes)
}

#[test]
fn a_one_version_key_costs_its_bucket() {
    for n in [64_000, 10_000] {
        let keys = keys(n);
        let records = preload(&keys);
        let (cache, bytes) = resident(&records);
        assert_eq!(cache.indexed_keys(), n);
        let per_key = bytes as f64 / n as f64;
        println!(
            "{n} one-version keys in {} records: {bytes} B resident, {per_key:.1} B/key",
            records.len()
        );
        // 48-byte bucket + 1 control byte, times the table's power-of-two
        // slack (at most 16/7): under 115. A per-key allocation of any kind
        // does not fit under the bound.
        assert!(per_key <= 160.0, "{per_key:.1} B/key at {n} keys");
    }
}

#[test]
fn the_node_read_miss_end_state_fits_in_20_mb() {
    // 64 000 preloaded keys, then 21 700 transactions that each wrote two of
    // them: ≈1.7 versions per key, nothing collected. The transactions' own
    // records are counted here (their keys are the preloaded ones), as the
    // first copy in a process pays for them.
    let keys = keys(64_000);
    let loaded = preload(&keys);
    let mut rng = StdRng::seed_from_u64(64_000);
    let before = live_bytes();
    let cache = MetadataCache::new();
    for record in &loaded {
        cache.insert(Arc::clone(record));
    }
    for ts in 0..21_700 {
        let pair = [(); 2].map(|()| keys[rng.gen_range(0..keys.len())].clone());
        cache.insert(record(1_000 + ts, pair));
    }
    let bytes = live_bytes() - before;
    let debited = cache.debited_oldest_first();
    println!(
        "node-read-miss end state ({} records, {} keys, {} debited versions): {:.1} MB resident",
        cache.len(),
        cache.indexed_keys(),
        debited.len(),
        bytes as f64 / 1e6
    );
    assert!(bytes <= 20_000_000, "{bytes} B");

    // Unswept, the state carries a debited pair per overwritten version of
    // a live record (2.4 MB here); the sweep that retires them gives the
    // pairs back and their keys' version lists return inline, below the
    // 11.8 MB this state held before versions were collected.
    assert_eq!(cache.retire(&debited), debited.len());
    drop(debited);
    let swept = live_bytes() - before;
    println!(
        "after a sweep retires them: {:.1} MB resident",
        swept as f64 / 1e6
    );
    assert!(swept <= 11_000_000, "{swept} B");
}

#[test]
fn a_key_swept_back_to_one_version_keeps_nothing() {
    let k = Key::new("hot");
    for (survivor, removal_order) in [
        (12, (1..12).collect::<Vec<u64>>()),
        (1, (2..=12).rev().collect()),
    ] {
        // The twin sees the same records come and go, but only the survivor
        // ever wrote the key; the other eleven wrote nothing.
        let writers: Vec<_> = (1..=12).map(|ts| record(ts, [k.clone()])).collect();
        let bystanders: Vec<_> = (1..=12)
            .map(|ts| record(ts, (ts == survivor).then(|| k.clone())))
            .collect();
        let sweep = |records: &[Arc<TransactionRecord>]| {
            let (cache, _) = resident(records);
            for ts in &removal_order {
                assert!(cache.remove(&tid(*ts)).is_some());
            }
            cache
        };

        let before = live_bytes();
        let cache = sweep(&writers);
        let swept = live_bytes() - before;
        let twin = sweep(&bystanders);
        let never_grew = live_bytes() - before - swept;

        assert_eq!(cache.latest_version_of(&k), Some(tid(survivor)));
        assert_eq!(twin.latest_version_of(&k), Some(tid(survivor)));
        println!(
            "12 versions swept to version {survivor}: {swept} B resident, \
             twin that only ever had it {never_grew} B"
        );
        assert_eq!(swept, never_grew);
    }
}
