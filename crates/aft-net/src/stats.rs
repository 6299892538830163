//! Server counters, in the `NodeStats` atomic style: what the `Stats` verb
//! answers ([`ServiceStats`]) and what
//! [`AftServer::event_snapshot`](crate::AftServer::event_snapshot) reads
//! ([`EventSnapshot`]). Each has a reader outside its own tests: the
//! experiments' sheets, `benchmark/`'s per-layer metrics, or a test that
//! pins a count of the request path.

use std::sync::atomic::{AtomicU64, Ordering};

use aft_types::wire::WireStats;

use crate::buffer::BufferPool;

/// Monotonic counters of one serving endpoint. Cheap to bump from any
/// thread; snapshotted into a [`WireStats`] for the `Stats` verb.
#[derive(Debug, Default)]
pub struct ServiceStats {
    connections_accepted: AtomicU64,
    connections_active: AtomicU64,
    requests: AtomicU64,
    commits: AtomicU64,
    duplicate_commits: AtomicU64,
    errors: AtomicU64,
    overload_rejections: AtomicU64,
    shed_requests: AtomicU64,
}

impl ServiceStats {
    /// Records an accepted connection.
    pub fn record_accept(&self) {
        self.connections_accepted.fetch_add(1, Ordering::Relaxed);
        self.connections_active.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a connection teardown.
    pub fn record_close(&self) {
        self.connections_active.fetch_sub(1, Ordering::Relaxed);
    }

    /// Records one executed request.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an applied (non-duplicate) commit.
    pub fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duplicate commit acknowledged from the dedup ledger.
    pub fn record_duplicate_commit(&self) {
        self.duplicate_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an error response.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request rejected at admission because the server's queue
    /// was over its admission limit (the request never executed).
    pub fn record_overload_rejection(&self) {
        self.overload_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a queued request shed before execution because it exceeded
    /// the queue-age deadline (the request never executed).
    pub fn record_shed(&self) {
        self.shed_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Duplicate commits acknowledged so far.
    pub fn duplicate_commits(&self) -> u64 {
        self.duplicate_commits.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot; `active_nodes` comes from the cluster
    /// registry, which the stats object does not own.
    pub fn snapshot(&self, active_nodes: u64) -> WireStats {
        WireStats {
            connections_accepted: self.connections_accepted.load(Ordering::Relaxed),
            connections_active: self.connections_active.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            duplicate_commits: self.duplicate_commits.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            overload_rejections: self.overload_rejections.load(Ordering::Relaxed),
            shed_requests: self.shed_requests.load(Ordering::Relaxed),
            active_nodes,
        }
    }
}

/// Monotonic counters and gauges of the server's connection I/O, summed
/// over its sessions.
#[derive(Debug, Default)]
pub(crate) struct EventStats {
    pub(crate) conns_open: AtomicU64,
    pub(crate) frames_read: AtomicU64,
    pub(crate) frames_written: AtomicU64,
    pub(crate) bytes_read: AtomicU64,
    pub(crate) bytes_written: AtomicU64,
    pub(crate) writev_calls: AtomicU64,
    pub(crate) pauses: AtomicU64,
    pub(crate) buffered_bytes: AtomicU64,
    /// What the open sessions hold, as each last counted itself
    /// (`Session::account`).
    pub(crate) held_bytes: AtomicU64,
}

/// Point-in-time view of the server's socket I/O counters, exposed through
/// [`AftServer::event_snapshot`](crate::AftServer::event_snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EventSnapshot {
    /// Connections currently open.
    pub conns_open: u64,
    /// Complete request frames decoded.
    pub frames_read: u64,
    /// Response frames fully flushed.
    pub frames_written: u64,
    /// Raw bytes read off connections.
    pub bytes_read: u64,
    /// Raw bytes written to connections.
    pub bytes_written: u64,
    /// Vectored write syscalls issued, one per flush of up to
    /// `WRITE_BATCH` frames (`frames_written / writev_calls` is the realized
    /// write-batching factor).
    pub writev_calls: u64,
    /// Times a connection paused on a full request queue (backpressure).
    pub pauses: u64,
    /// Response bytes queued awaiting flush right now.
    pub buffered_bytes: u64,
    /// Frame buffers sitting warm in the pool.
    pub pooled_buffers: u64,
    /// Bytes the server holds for its open connections right now: the
    /// entry each is kept in (a reactor's slab slot, a pipe), the capacity
    /// of the buffers its session holds, and the frame buffers pooled for
    /// them all.
    pub conn_bytes: u64,
    /// Fresh frame-buffer allocations ever made.
    pub buffer_allocations: u64,
    /// Frame buffers served from the pool instead of the allocator.
    pub buffer_reuses: u64,
}

impl EventStats {
    pub(crate) fn snapshot(&self, pool: &BufferPool) -> EventSnapshot {
        let (buffer_allocations, buffer_reuses) = pool.counters();
        EventSnapshot {
            conns_open: self.conns_open.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            frames_written: self.frames_written.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            pauses: self.pauses.load(Ordering::Relaxed),
            buffered_bytes: self.buffered_bytes.load(Ordering::Relaxed),
            pooled_buffers: pool.pooled() as u64,
            conn_bytes: self.held_bytes.load(Ordering::Relaxed) + pool.pooled_bytes() as u64,
            buffer_allocations,
            buffer_reuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let stats = ServiceStats::default();
        stats.record_accept();
        stats.record_accept();
        stats.record_close();
        for _ in 0..5 {
            stats.record_request();
        }
        stats.record_commit();
        stats.record_duplicate_commit();
        stats.record_error();
        stats.record_overload_rejection();
        stats.record_shed();

        let snap = stats.snapshot(3);
        assert_eq!(snap.connections_accepted, 2);
        assert_eq!(snap.connections_active, 1);
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.commits, 1);
        assert_eq!(snap.duplicate_commits, 1);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.overload_rejections, 1);
        assert_eq!(snap.shed_requests, 1);
        assert_eq!(snap.active_nodes, 3);
    }
}
