//! A small free-list of byte buffers for the reactors.
//!
//! The server encodes every outgoing response straight into a contiguous
//! `[len][payload]` frame buffer and would otherwise allocate one `Vec` per
//! response. [`BufferPool`] recycles those buffers across reactors and
//! connections: `take` hands out an empty buffer with warm capacity, `give`
//! returns it once the frame is written unless it grew beyond the pool's
//! bound, so a single huge frame cannot pin its allocation forever.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Recycles byte buffers between the reactors.
#[derive(Debug)]
pub(crate) struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    /// Buffers returned with more capacity than this are dropped instead of
    /// pooled (keeps the pool's resident memory bounded by
    /// `max_pooled * max_buffer_capacity`).
    max_buffer_capacity: usize,
    /// Free-list length cap; beyond it, returned buffers are dropped.
    max_pooled: usize,
    allocations: AtomicU64,
    reuses: AtomicU64,
}

impl BufferPool {
    pub(crate) fn new(max_buffer_capacity: usize, max_pooled: usize) -> Self {
        BufferPool {
            free: Mutex::new(Vec::new()),
            max_buffer_capacity: max_buffer_capacity.max(64),
            max_pooled: max_pooled.max(1),
            allocations: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// An empty buffer, recycled when one is pooled.
    pub(crate) fn take(&self) -> Vec<u8> {
        if let Some(mut buf) = self.free.lock().pop() {
            buf.clear();
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return buf;
        }
        self.allocations.fetch_add(1, Ordering::Relaxed);
        Vec::new()
    }

    /// Returns a buffer to the pool (or drops it if oversized / pool full).
    pub(crate) fn give(&self, buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > self.max_buffer_capacity {
            return;
        }
        let mut free = self.free.lock();
        if free.len() < self.max_pooled {
            free.push(buf);
        }
    }

    /// Buffers currently sitting in the free list.
    pub(crate) fn pooled(&self) -> usize {
        self.free.lock().len()
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
        let pool = BufferPool::new(1024, 4);
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
        let pool = BufferPool::new(64, 4);
        let mut big = pool.take();
        big.reserve(4096);
        pool.give(big);
        assert_eq!(pool.pooled(), 0, "oversized buffer was not retained");
    }

    #[test]
    fn pool_length_is_capped() {
        let pool = BufferPool::new(1024, 2);
        for _ in 0..5 {
            let mut buf = pool.take();
            buf.push(1);
            pool.give(buf);
        }
        assert!(pool.pooled() <= 2);
    }
}
