//! A small free-list of byte buffers for the reactors, and the one rule
//! for how much frame-buffer capacity aft-net keeps warm.
//!
//! The server encodes every outgoing response straight into a contiguous
//! `[len][payload]` frame buffer and would otherwise allocate one `Vec` per
//! response. [`BufferPool`] recycles those buffers across reactors and
//! connections: `take` hands out an empty buffer with warm capacity, `give`
//! returns it once the frame is written unless it grew beyond
//! [`KEEP_CAPACITY`] or the pool already holds [`POOL_BYTES`], so a single
//! huge frame cannot pin its allocation forever.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Capacity a frame buffer keeps between frames, everywhere in aft-net: a
/// pooled response buffer, a session's decoder, a client connection's send
/// and receive buffers. A frame larger than this has its buffer released
/// once it is done with. It holds a `GetAll` of eight 16 KiB values.
pub(crate) const KEEP_CAPACITY: usize = 256 * 1024;

/// Capacity the pool's free list holds at most, summed over its buffers.
const POOL_BYTES: usize = 4 * 1024 * 1024;

/// Recycles byte buffers between the reactors.
#[derive(Debug)]
pub(crate) struct BufferPool {
    free: Mutex<Free>,
    /// Free-list length cap; beyond it, returned buffers are dropped.
    max_pooled: usize,
    allocations: AtomicU64,
    reuses: AtomicU64,
}

/// The free list and its buffers' summed capacity.
#[derive(Debug, Default)]
struct Free {
    buffers: Vec<Vec<u8>>,
    bytes: usize,
}

impl BufferPool {
    pub(crate) fn new(max_pooled: usize) -> Self {
        BufferPool {
            free: Mutex::new(Free::default()),
            max_pooled: max_pooled.max(1),
            allocations: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// An empty buffer, recycled when one is pooled.
    pub(crate) fn take(&self) -> Vec<u8> {
        let recycled = {
            let mut free = self.free.lock();
            let buf = free.buffers.pop();
            free.bytes -= buf.as_ref().map_or(0, Vec::capacity);
            buf
        };
        if let Some(mut buf) = recycled {
            buf.clear();
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return buf;
        }
        self.allocations.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }

    /// Returns a buffer to the pool, or drops it if it is oversized or the
    /// pool is full by count or by bytes.
    pub(crate) fn give(&self, buf: Vec<u8>) {
        let capacity = buf.capacity();
        if capacity == 0 || capacity > KEEP_CAPACITY {
            return;
        }
        let mut free = self.free.lock();
        if free.buffers.len() < self.max_pooled && free.bytes + capacity <= POOL_BYTES {
            free.bytes += capacity;
            free.buffers.push(buf);
        }
    }

    /// Buffers currently sitting in the free list.
    pub(crate) fn pooled(&self) -> usize {
        self.free.lock().buffers.len()
    }

    /// The summed capacity of the buffers in the free list.
    pub(crate) fn pooled_bytes(&self) -> usize {
        self.free.lock().bytes
    }

    /// (fresh allocations, pool reuses) so far.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (
            self.allocations.load(Ordering::Relaxed),
            self.reuses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_recycled_and_cleared() {
        let pool = BufferPool::new(4);
        let mut a = pool.take();
        a.extend_from_slice(b"stale");
        pool.give(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffer comes back empty");
        assert!(b.capacity() >= 5, "capacity survives the round trip");
        let (allocs, reuses) = pool.counters();
        assert_eq!((allocs, reuses), (1, 1));
    }

    #[test]
    fn oversized_buffers_are_dropped_not_pooled() {
        let pool = BufferPool::new(4);
        let mut big = pool.take();
        big.reserve(KEEP_CAPACITY + 1);
        pool.give(big);
        assert_eq!(pool.pooled(), 0, "oversized buffer was not retained");
    }

    #[test]
    fn pool_length_is_capped() {
        let pool = BufferPool::new(2);
        for _ in 0..5 {
            let mut buf = pool.take();
            buf.push(1);
            pool.give(buf);
        }
        assert!(pool.pooled() <= 2);
    }

    #[test]
    fn pooled_bytes_are_capped() {
        // Many buffers at the keep bound: the pool holds POOL_BYTES of them,
        // not its count cap's worth.
        let pool = BufferPool::new(4096);
        let buffers: Vec<Vec<u8>> = (0..64).map(|_| Vec::with_capacity(KEEP_CAPACITY)).collect();
        buffers.into_iter().for_each(|buf| pool.give(buf));
        assert_eq!(pool.pooled(), POOL_BYTES / KEEP_CAPACITY);
        assert_eq!(pool.free.lock().bytes, POOL_BYTES);
        // A taken buffer frees its bytes for the next one given.
        let taken = pool.take();
        assert_eq!(pool.free.lock().bytes, POOL_BYTES - taken.capacity());
        pool.give(taken);
        pool.give(Vec::with_capacity(64));
        assert_eq!(pool.pooled(), POOL_BYTES / KEEP_CAPACITY, "full by bytes");
    }
}
