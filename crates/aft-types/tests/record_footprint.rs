//! An exact gate on what one commit record keeps resident.
//!
//! Every committed transaction a node knows of is held as one shared
//! `Arc<TransactionRecord>`: in the metadata cache of each node of a process,
//! in the fault manager's view, and in the dissemination buffers. This binary
//! has a counting allocator of its own and reads a record's live bytes
//! (allocated minus freed) directly: no clock, no threads, the same figure on
//! every run. `-- --nocapture` prints them.
//!
//! The keys are built before the baseline is taken, so what is counted is the
//! record: the `Arc`'s allocation and the write set's. With the write set
//! held as an ordered tree, a two-key record was 256 B (a 64-byte `Arc` and a
//! 192-byte leaf) and a 500-key record 9 568 B. The flag that says whether
//! the stored record carries its values took the `Arc`'s block from 56 to
//! 64 B.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use aft_types::{Key, TransactionId, TransactionRecord, Uuid};

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

/// Live bytes of one shared record over `n` distinct keys, given in reverse
/// order so the write set has to sort them.
fn record_bytes(n: usize) -> isize {
    let keys: Vec<Key> = (0..n)
        .rev()
        .map(|i| Key::new(format!("key/{i:08}")))
        .collect();
    let before = live_bytes();
    let record = Arc::new(TransactionRecord::new(
        TransactionId::new(1, Uuid::from_u128(1)),
        keys.iter().cloned(),
    ));
    let bytes = live_bytes() - before;
    assert_eq!(record.write_set.len(), n);
    println!("{n}-key record: {bytes} B resident");
    bytes
}

#[test]
fn a_record_costs_its_arc_and_one_key_slice() {
    // The `Arc`'s block: two counts (16), the id (24), the write set's
    // slice pointer (16) and the inline flag (1, padded to 8) make 64. Then
    // 16 bytes per key, no more.
    assert_eq!(record_bytes(2), 64 + 2 * 16);
    assert_eq!(record_bytes(500), 64 + 500 * 16);
}
