//! The readiness-driven I/O core of [`AftServer`](crate::AftServer).
//!
//! One event-loop thread owns the listener and the read side of every
//! accepted connection (nonblocking, registered with the vendored
//! [`polling`] poller under oneshot semantics), a slab of per-connection
//! state machines, and the admission of requests into the worker pool.
//! Thread count is O(workers), never O(connections).
//!
//! Per connection the machine cycles through four phases:
//!
//! * **read** — drain the socket into an incremental [`FrameDecoder`]
//!   (arbitrary byte splits are fine; a slow-loris peer just parks cheap
//!   buffered state here);
//! * **parse** — pull complete frames, decode them into requests;
//! * **dispatch** — enqueue jobs for the shared worker pool, tagging each
//!   with the connection's generation-checked `ConnHandle`. When the queue
//!   is full the connection *pauses*: decoded requests wait in a local
//!   pending deque and the socket stops being read (TCP backpressure), so a
//!   pipelining flood is bounded without ever blocking the loop;
//! * **write** — the worker that executed a request writes its framed
//!   response straight to the socket when the connection has nothing queued
//!   (see `respond`), so a request wakes the loop once, to read it. Only a
//!   backlog, a partial write or a reset goes back through a wakeable
//!   completion queue ([`Poller::notify`] interrupts the wait); the loop
//!   then flushes the connection's queue with *vectored* writes, up to
//!   `WRITE_BATCH` frames per syscall.
//!
//! Every write to a socket — a worker's direct one or the loop's flush —
//! happens under the connection's one write lock, so frames never
//! interleave, and the tail of a partial direct write is queued under that
//! same lock, ahead of anything queued later. The loop never runs request
//! logic (routing, affinity, commit dedup/single-flight, the
//! `ResponseFilter` chaos hook all stay on the workers), so a slow commit
//! cannot stall unrelated sockets.
//!
//! ## Lifecycle corners
//!
//! A clean-boundary EOF with responses still in flight is a *half-open*
//! connection: the read side is done but the write side lingers until every
//! pending job has flushed, then the slot is torn down. The worker that
//! answers such a connection's last job tells the loop, so the loop is never
//! woken per response on an ordinary connection. EOF mid-frame is a
//! truncation and tears down immediately. Only the loop tears down, once
//! per slot (the slab removal is the guard), so a close is accounted exactly
//! once however it came about (EOF, worker reset, server shutdown).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use aft_types::wire::{decode_request, WireRequest, WireResponse};
use aft_types::{AftError, AftResult};
use parking_lot::Mutex;
use polling::{Event, Events, Poller};

use crate::buffer::BufferPool;
use crate::frame::{response_frame, FrameDecoder};
use crate::server::{Job, ServerShared};

/// Poller key of the listening socket (`usize::MAX` is the poller's own
/// notifier); connection keys are their slab slots.
const LISTENER_KEY: usize = usize::MAX - 1;

/// Reads drained from one socket per readiness event before yielding to
/// other connections (fairness under a firehose peer).
const MAX_READS_PER_EVENT: usize = 16;

/// Bytes read per socket syscall.
const READ_CHUNK: usize = 16 * 1024;

/// Response frames coalesced into one vectored write syscall.
const WRITE_BATCH: usize = 64;

/// Unflushed response bytes a connection may buffer before the loop stops
/// reading more requests from it (per-connection write throttle).
const WRITE_BUFFER_CAP: usize = 4 * 1024 * 1024;

/// OS readiness API: epoll on Linux, poll(2) elsewhere.
const POLLER_BACKEND: polling::Backend = polling::Backend::Auto;

/// The pool of frame buffers shared by the loop and the workers.
pub(crate) fn frame_pool(slab_capacity: usize) -> BufferPool {
    BufferPool::new(READ_CHUNK * 4, slab_capacity.min(4096))
}

/// One event-loop connection as the loop and the workers share it.
///
/// Slots are recycled, so completions carry the `(slot, generation)` pair;
/// a completion whose generation no longer matches the slab entry belongs to
/// a dead connection and is dropped (its work is durable — this is exactly
/// the §4.2 lost-ack window the commit ledger covers).
#[derive(Debug)]
pub(crate) struct ConnHandle {
    pub(crate) slot: usize,
    pub(crate) generation: u64,
    /// Server-wide connection id — the fair-queuing lane key.
    pub(crate) id: u64,
    /// The socket, shared rather than duplicated: the loop reads it, and
    /// whoever holds `out` writes it.
    stream: TcpStream,
    /// The write side; every write to `stream` happens under this lock.
    out: Mutex<Outbox>,
    /// Jobs enqueued but not yet answered; decremented under `out`.
    pub(crate) inflight: AtomicUsize,
}

/// A connection's queued output, guarded by its handle's write lock.
#[derive(Debug, Default)]
struct Outbox {
    /// Framed responses awaiting flush; the front frame is written up to
    /// `pos`.
    frames: VecDeque<Vec<u8>>,
    pos: usize,
    /// Unflushed bytes across `frames`.
    bytes: usize,
    /// The loop reads no more requests, so the worker answering the last
    /// job in flight must have it finish the connection.
    read_closed: bool,
    /// Torn down: later responses are dropped, as a dead peer would drop
    /// them.
    closed: bool,
}

impl ConnHandle {
    pub(crate) fn new(slot: usize, generation: u64, id: u64, stream: TcpStream) -> Self {
        ConnHandle {
            slot,
            generation,
            id,
            stream,
            out: Mutex::new(Outbox::default()),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Counts one job answered. Called under the write lock, which the
    /// loop's finish check also takes, so one of the two sees the other:
    /// `true` when this was the last job of a connection whose read side is
    /// done and whose queue is empty, i.e. the loop must finish it.
    fn job_done(&self, out: &Outbox) -> bool {
        let left = self.inflight.fetch_sub(1, Ordering::AcqRel) - 1;
        left == 0 && out.read_closed && out.frames.is_empty()
    }
}

impl Outbox {
    /// Queues `frame`, of which the first `written` bytes already left.
    fn push(&mut self, frame: Vec<u8>, written: usize, stats: &EventStats) {
        if self.frames.is_empty() {
            self.pos = written;
        }
        let unflushed = frame.len() - written;
        self.bytes += unflushed;
        stats
            .buffered_bytes
            .fetch_add(unflushed as u64, Ordering::Relaxed);
        self.frames.push_back(frame);
    }

    /// Writes queued frames until the queue is empty (`Ok(true)`) or the
    /// socket is full (`Ok(false)`), batching up to `WRITE_BATCH` frames per
    /// vectored syscall. An error means the connection is dead.
    fn flush(
        &mut self,
        stream: &TcpStream,
        stats: &EventStats,
        pool: &BufferPool,
    ) -> io::Result<bool> {
        while !self.frames.is_empty() {
            let slices: Vec<IoSlice<'_>> = self
                .frames
                .iter()
                .take(WRITE_BATCH)
                .enumerate()
                .map(|(i, frame)| IoSlice::new(&frame[if i == 0 { self.pos } else { 0 }..]))
                .collect();
            match (&*stream).write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    stats.count_write(n);
                    self.advance(n, stats, pool);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Consumes `written` bytes off the front of the queue, recycling fully
    /// flushed frame buffers.
    fn advance(&mut self, written: usize, stats: &EventStats, pool: &BufferPool) {
        self.bytes -= written;
        stats
            .buffered_bytes
            .fetch_sub(written as u64, Ordering::Relaxed);
        let mut remaining = written;
        while remaining > 0 {
            let Some(front) = self.frames.front() else {
                break;
            };
            let left = front.len() - self.pos;
            if remaining < left {
                self.pos += remaining;
                break;
            }
            remaining -= left;
            self.pos = 0;
            if let Some(frame) = self.frames.pop_front() {
                stats.frames_written.fetch_add(1, Ordering::Relaxed);
                pool.give(frame);
            }
        }
    }

    /// Drops everything queued (the connection is gone).
    fn discard(&mut self, stats: &EventStats, pool: &BufferPool) {
        stats
            .buffered_bytes
            .fetch_sub(self.bytes as u64, Ordering::Relaxed);
        self.bytes = 0;
        self.pos = 0;
        for frame in self.frames.drain(..) {
            pool.give(frame);
        }
    }
}

/// Sends a worker's framed response on its connection: straight to the
/// socket when nothing is queued ahead of it, and behind the queue
/// otherwise. The loop is told only when it has something to do — flush
/// what a full socket left queued, reset a dead connection, or finish a
/// half-open one whose last job this was.
pub(crate) fn respond(shared: &ServerShared, handle: Arc<ConnHandle>, frame: Vec<u8>) {
    let stats = &shared.event_stats;
    let action = {
        let mut out = handle.out.lock();
        let mut action = None;
        if out.closed {
            shared.pool.give(frame);
        } else if !out.frames.is_empty() {
            // The loop already knows of this backlog and flushes it.
            out.push(frame, 0, stats);
        } else {
            match write_once(&handle.stream, &frame) {
                Ok(n) if n == frame.len() => {
                    stats.count_write(n);
                    stats.direct_writes.fetch_add(1, Ordering::Relaxed);
                    stats.frames_written.fetch_add(1, Ordering::Relaxed);
                    shared.pool.give(frame);
                }
                // A full socket took part of the frame, or none of it: the
                // rest waits, ahead of anything queued later, for the loop.
                Ok(n) if n > 0 => {
                    stats.count_write(n);
                    out.push(frame, n, stats);
                    action = Some(CompletionAction::Flush);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    out.push(frame, 0, stats);
                    action = Some(CompletionAction::Flush);
                }
                _ => {
                    shared.pool.give(frame);
                    action = Some(CompletionAction::Reset);
                }
            }
        }
        let finished = handle.job_done(&out);
        action.or(finished.then_some(CompletionAction::Flush))
    };
    if let Some(action) = action {
        shared.push_completion(Completion { handle, action });
    }
}

/// Has the loop reset a connection whose response a worker will not send.
pub(crate) fn reset(shared: &ServerShared, handle: Arc<ConnHandle>) {
    handle.job_done(&handle.out.lock());
    shared.push_completion(Completion {
        handle,
        action: CompletionAction::Reset,
    });
}

/// One `write` syscall, retried only on `EINTR`.
fn write_once(stream: &TcpStream, frame: &[u8]) -> io::Result<usize> {
    loop {
        match (&*stream).write(frame) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// What a worker needs the loop to do on a connection.
pub(crate) enum CompletionAction {
    /// Flush what is queued, and finish the connection if it then owes
    /// nothing more.
    Flush,
    /// Reset the connection without responding (the `ResponseFilter` ate
    /// the acknowledgement, or the socket failed under a worker).
    Reset,
}

/// A worker→loop completion, routed by the handle's slot + generation.
pub(crate) struct Completion {
    pub(crate) handle: Arc<ConnHandle>,
    pub(crate) action: CompletionAction,
}

/// Monotonic counters and gauges of the server's socket I/O.
#[derive(Debug, Default)]
pub(crate) struct EventStats {
    conns_open: AtomicU64,
    frames_read: AtomicU64,
    frames_written: AtomicU64,
    direct_writes: AtomicU64,
    completions: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    writev_calls: AtomicU64,
    pauses: AtomicU64,
    buffered_bytes: AtomicU64,
}

/// Point-in-time view of the server's socket I/O counters, exposed through
/// [`AftServer::event_snapshot`](crate::AftServer::event_snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct EventSnapshot {
    /// Connections currently registered with the loop.
    pub conns_open: u64,
    /// Complete request frames decoded.
    pub frames_read: u64,
    /// Response frames fully flushed, by a worker or by the loop.
    pub frames_written: u64,
    /// Response frames a worker wrote whole, straight to the socket,
    /// without waking the loop.
    pub direct_writes: u64,
    /// Worker completions the loop woke for: a backlog or partial write to
    /// flush, a reset, or a half-open connection's last answer.
    pub completions: u64,
    /// Raw bytes read off sockets.
    pub bytes_read: u64,
    /// Raw bytes written to sockets.
    pub bytes_written: u64,
    /// Write syscalls issued, a worker's direct `write` or the loop's
    /// vectored one (`frames_written / writev_calls` is the realized
    /// write-batching factor).
    pub writev_calls: u64,
    /// Times a connection paused on a full worker queue (backpressure).
    pub pauses: u64,
    /// Response bytes queued awaiting flush right now.
    pub buffered_bytes: u64,
    /// Frame buffers sitting warm in the pool.
    pub pooled_buffers: u64,
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
            direct_writes: self.direct_writes.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            pauses: self.pauses.load(Ordering::Relaxed),
            buffered_bytes: self.buffered_bytes.load(Ordering::Relaxed),
            pooled_buffers: pool.pooled() as u64,
            buffer_allocations,
            buffer_reuses,
        }
    }

    /// One write syscall that moved `bytes`.
    fn count_write(&self, bytes: usize) {
        self.writev_calls.fetch_add(1, Ordering::Relaxed);
        self.bytes_written
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Why a connection is being torn down (decides the socket's send-off).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Teardown {
    /// Flushed everything it owed; a clean close.
    Finished,
    /// Protocol/I-O failure or chaos reset; both halves are shut down so the
    /// peer observes a reset rather than a lingering half-close.
    Reset,
}

/// One connection's read-side state machine, owned exclusively by the loop
/// thread; the write side lives in the shared handle.
struct ConnState {
    handle: Arc<ConnHandle>,
    decoder: FrameDecoder,
    /// Requests decoded while the worker queue was full, waiting to submit.
    pending: VecDeque<(u64, WireRequest)>,
    read_open: bool,
    /// Flush what is queued, then close (set by the garbage-frame path).
    close_after_flush: bool,
    /// Submission is suspended on a full worker queue; reads stay disarmed.
    paused: bool,
    /// Present in the loop's dirty list (re-arm needed this iteration).
    dirty: bool,
}

impl ConnState {
    fn new(handle: Arc<ConnHandle>) -> Self {
        ConnState {
            handle,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
            read_open: true,
            close_after_flush: false,
            paused: false,
            dirty: false,
        }
    }

    /// Stops reading; the workers learn it through the outbox.
    fn close_read(&mut self) {
        self.read_open = false;
        self.handle.out.lock().read_closed = true;
    }
}

/// Slab of connection slots; vacant slots remember the next generation so
/// recycled slots can never satisfy a stale completion.
enum Slot {
    Vacant { next_generation: u64 },
    Occupied(Box<ConnState>),
}

struct Slab {
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
}

impl Slab {
    fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Claims a slot, returning `(slot, generation)` for the handle.
    fn claim(&mut self) -> (usize, u64) {
        if let Some(slot) = self.free.pop() {
            let generation = match self.slots[slot] {
                Slot::Vacant { next_generation } => next_generation,
                Slot::Occupied(_) => unreachable!("free list held an occupied slot"),
            };
            (slot, generation)
        } else {
            self.slots.push(Slot::Vacant { next_generation: 0 });
            (self.slots.len() - 1, 0)
        }
    }

    fn occupy(&mut self, slot: usize, conn: Box<ConnState>) {
        self.slots[slot] = Slot::Occupied(conn);
        self.live += 1;
    }

    /// Releases a claimed-but-never-occupied slot (registration failed).
    fn release(&mut self, slot: usize, generation: u64) {
        self.slots[slot] = Slot::Vacant {
            next_generation: generation + 1,
        };
        self.free.push(slot);
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut ConnState> {
        match self.slots.get_mut(slot) {
            Some(Slot::Occupied(conn)) => Some(conn),
            _ => None,
        }
    }

    fn remove(&mut self, slot: usize) -> Option<Box<ConnState>> {
        match self.slots.get_mut(slot) {
            Some(entry @ Slot::Occupied(_)) => {
                let Slot::Occupied(conn) =
                    std::mem::replace(entry, Slot::Vacant { next_generation: 0 })
                else {
                    unreachable!()
                };
                self.slots[slot] = Slot::Vacant {
                    next_generation: conn.handle.generation + 1,
                };
                self.free.push(slot);
                self.live -= 1;
                Some(conn)
            }
            _ => None,
        }
    }

    fn occupied_slots(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Slot::Occupied(_)).then_some(i))
            .collect()
    }
}

/// The loop itself; constructed on the caller's thread (so bind/registration
/// errors surface from `serve`), then moved onto its own thread by `spawn`.
pub(crate) struct EventLoop {
    shared: Arc<ServerShared>,
    listener: TcpListener,
    poller: Arc<Poller>,
    slab: Slab,
    /// Slots needing an interest re-arm at the end of the iteration.
    dirty: Vec<usize>,
    /// Slots paused on worker-queue backpressure.
    paused: Vec<usize>,
    /// Read scratch, recycled across every connection.
    scratch: Vec<u8>,
}

impl EventLoop {
    /// Registers `listener` with a fresh poller. Errors here (backend
    /// construction, registration) fail `serve` before any thread starts.
    pub(crate) fn new(shared: Arc<ServerShared>, listener: TcpListener) -> AftResult<EventLoop> {
        fn unavailable(what: &str, e: io::Error) -> AftError {
            AftError::Unavailable(format!("event loop: {what}: {e}"))
        }
        listener
            .set_nonblocking(true)
            .map_err(|e| unavailable("nonblocking listener", e))?;
        let poller =
            Arc::new(Poller::with_backend(POLLER_BACKEND).map_err(|e| unavailable("poller", e))?);
        poller
            .add(&listener, Event::readable(LISTENER_KEY))
            .map_err(|e| unavailable("register listener", e))?;
        let slab = Slab::with_capacity(shared.config.slab_capacity);
        Ok(EventLoop {
            shared,
            listener,
            poller,
            slab,
            dirty: Vec::new(),
            paused: Vec::new(),
            scratch: vec![0u8; READ_CHUNK],
        })
    }

    pub(crate) fn poller(&self) -> Arc<Poller> {
        Arc::clone(&self.poller)
    }

    pub(crate) fn spawn(self) -> JoinHandle<()> {
        std::thread::Builder::new()
            .name("aft-net-io".to_owned())
            .spawn(move || self.run())
            .expect("spawn event loop thread")
    }

    fn run(mut self) {
        let mut events = Events::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.drain_completions();
            self.resume_paused();
            self.rearm_dirty();
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if self.poller.wait(&mut events, None).is_err() {
                break;
            }
            let mut accept_ready = false;
            for event in events.iter() {
                if event.key == LISTENER_KEY {
                    accept_ready = true;
                    continue;
                }
                self.on_conn_event(event);
            }
            if accept_ready {
                self.accept_ready();
            }
        }
        self.teardown_all();
    }

    // ---- accept ---------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Oneshot disarmed the listener when this event fired; re-arm it.
        let _ = self
            .poller
            .modify(&self.listener, Event::readable(LISTENER_KEY));
    }

    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let (slot, generation) = self.slab.claim();
        if self.poller.add(&stream, Event::readable(slot)).is_err() {
            self.slab.release(slot, generation);
            return;
        }
        let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let handle = Arc::new(ConnHandle::new(slot, generation, id, stream));
        self.slab.occupy(slot, Box::new(ConnState::new(handle)));
        self.shared.stats.record_accept();
        self.shared
            .event_stats
            .conns_open
            .fetch_add(1, Ordering::Relaxed);
    }

    // ---- per-connection events ------------------------------------------

    fn on_conn_event(&mut self, event: Event) {
        let slot = event.key;
        if self.slab.get_mut(slot).is_none() {
            return;
        }
        self.mark_dirty(slot);
        if event.readable {
            self.do_read(slot);
        }
        if event.writable && self.slab.get_mut(slot).is_some() {
            self.do_write(slot);
        }
    }

    /// Drains the socket into the decoder, then parses + dispatches.
    fn do_read(&mut self, slot: usize) {
        let mut chunk = std::mem::take(&mut self.scratch);
        let mut saw_eof = false;
        let mut failed = false;
        for _ in 0..MAX_READS_PER_EVENT {
            let Some(conn) = self.slab.get_mut(slot) else {
                break;
            };
            if !conn.read_open {
                break;
            }
            match (&conn.handle.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.close_read();
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.shared
                        .event_stats
                        .bytes_read
                        .fetch_add(n as u64, Ordering::Relaxed);
                    conn.decoder.push(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        self.scratch = chunk;
        if failed {
            self.teardown(slot, Teardown::Reset);
            return;
        }
        if !self.parse_and_dispatch(slot) {
            return;
        }
        if saw_eof {
            let Some(conn) = self.slab.get_mut(slot) else {
                return;
            };
            if conn.decoder.has_partial() {
                // EOF mid-frame: a message was cut in half; same verdict as
                // the blocking `read_frame` path.
                self.teardown(slot, Teardown::Reset);
                return;
            }
            self.maybe_finish(slot);
        }
    }

    /// Pulls complete frames out of the decoder and turns them into jobs.
    /// Returns `false` if the connection was torn down.
    fn parse_and_dispatch(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.slab.get_mut(slot) else {
                return false;
            };
            if conn.close_after_flush {
                return true;
            }
            match conn.decoder.next_frame() {
                Ok(Some(payload)) => match decode_request(&payload) {
                    Ok((request_id, request)) => {
                        self.shared
                            .event_stats
                            .frames_read
                            .fetch_add(1, Ordering::Relaxed);
                        self.submit(slot, request_id, request);
                    }
                    Err(e) => {
                        // A peer speaking garbage gets one error frame and
                        // the door — but only after queued responses flush.
                        self.shared.stats.record_error();
                        self.queue_response(slot, 0, &WireResponse::Error(e));
                        if let Some(conn) = self.slab.get_mut(slot) {
                            conn.close_after_flush = true;
                            conn.close_read();
                        }
                        self.do_write(slot);
                        return self.slab.get_mut(slot).is_some();
                    }
                },
                Ok(None) => break,
                Err(_) => {
                    // Framing itself is broken (oversized length prefix):
                    // nothing sensible can be written back.
                    self.shared.stats.record_error();
                    self.teardown(slot, Teardown::Reset);
                    return false;
                }
            }
        }
        if let Some(conn) = self.slab.get_mut(slot) {
            conn.decoder.shed(READ_CHUNK * 4);
        }
        true
    }

    /// Hands one decoded request to the worker pool, or parks it locally
    /// (pausing the connection) when the queue is full.
    fn submit(&mut self, slot: usize, request_id: u64, request: WireRequest) {
        let capacity = self.shared.config.queue_capacity.max(1);
        let admission = self.shared.config.admission_limit;
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        if conn.paused {
            conn.pending.push_back((request_id, request));
            return;
        }
        let handle = Arc::clone(&conn.handle);
        let mut queue = self.shared.queue.lock();
        if admission > 0
            && queue.depth() >= admission
            && !matches!(request, WireRequest::Commit { .. })
        {
            // Admission control: answer `Overloaded` now, while the client
            // can still usefully back off, instead of parking the request
            // behind a queue that is already too deep. Commits are exempt —
            // the server already executed this transaction's reads, and
            // refusing the commit would convert that work into waste;
            // overload is shed at the pipeline entry (the reads) instead,
            // and commits stay bounded by `queue_capacity` backpressure.
            drop(queue);
            self.shared.stats.record_overload_rejection();
            let rejection = WireResponse::Error(AftError::Overloaded(
                "worker queue is full; retry with backoff".to_owned(),
            ));
            self.queue_response(slot, request_id, &rejection);
            self.do_write(slot);
            return;
        }
        if queue.depth() >= capacity {
            drop(queue);
            conn.paused = true;
            conn.pending.push_back((request_id, request));
            self.shared
                .event_stats
                .pauses
                .fetch_add(1, Ordering::Relaxed);
            self.mark_dirty(slot);
            if !self.paused.contains(&slot) {
                self.paused.push(slot);
            }
            return;
        }
        handle.inflight.fetch_add(1, Ordering::AcqRel);
        queue.push(Job {
            handle,
            request_id,
            request,
            enqueued: Instant::now(),
        });
        drop(queue);
        self.shared.queue_cv.notify_one();
    }

    /// Moves pending requests of paused connections into freed queue space.
    fn resume_paused(&mut self) {
        if self.paused.is_empty() {
            return;
        }
        let capacity = self.shared.config.queue_capacity.max(1);
        let paused = std::mem::take(&mut self.paused);
        for slot in paused {
            let Some(conn) = self.slab.get_mut(slot) else {
                continue;
            };
            if !conn.paused {
                continue;
            }
            let handle = Arc::clone(&conn.handle);
            let mut submitted = 0usize;
            let mut full = false;
            {
                // Pending requests were already accepted (they pre-date the
                // pause), so resuming them bypasses admission control and
                // contends only with `queue_capacity`.
                let mut queue = self.shared.queue.lock();
                while let Some((request_id, request)) = conn.pending.pop_front() {
                    if queue.depth() >= capacity {
                        conn.pending.push_front((request_id, request));
                        full = true;
                        break;
                    }
                    handle.inflight.fetch_add(1, Ordering::AcqRel);
                    queue.push(Job {
                        handle: Arc::clone(&handle),
                        request_id,
                        request,
                        enqueued: Instant::now(),
                    });
                    submitted += 1;
                }
            }
            for _ in 0..submitted {
                self.shared.queue_cv.notify_one();
            }
            if full {
                self.paused.push(slot);
            } else {
                conn.paused = false;
                self.mark_dirty(slot);
                // Reads resume; anything still undecoded parses next event.
                self.maybe_finish(slot);
            }
        }
    }

    // ---- completions (workers → loop) -----------------------------------

    fn drain_completions(&mut self) {
        loop {
            let batch: VecDeque<Completion> = {
                let mut completions = self.shared.completions.lock();
                if completions.is_empty() {
                    return;
                }
                std::mem::take(&mut *completions)
            };
            self.shared
                .event_stats
                .completions
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            for completion in batch {
                self.apply_completion(completion);
            }
        }
    }

    fn apply_completion(&mut self, completion: Completion) {
        let handle = completion.handle;
        let slot = handle.slot;
        let live = self
            .slab
            .get_mut(slot)
            .is_some_and(|conn| conn.handle.generation == handle.generation);
        if !live {
            // The connection died first; the response is dropped exactly as
            // a dead TCP peer would drop it. Any commit it carried is in the
            // dedup ledger for the client's retry.
            return;
        }
        match completion.action {
            CompletionAction::Flush => self.do_write(slot),
            CompletionAction::Reset => self.teardown(slot, Teardown::Reset),
        }
    }

    // ---- write path ------------------------------------------------------

    /// Frames a response the loop itself answers (an admission rejection or
    /// a garbage-frame error) and queues it on `slot`.
    fn queue_response(&mut self, slot: usize, request_id: u64, response: &WireResponse) {
        let mut frame = self.shared.pool.take();
        if response_frame(&mut frame, request_id, response).is_err() {
            // Responses are encoded server-side and never exceed the cap;
            // defensively reset rather than send an unframeable reply.
            self.shared.pool.give(frame);
            self.teardown(slot, Teardown::Reset);
            return;
        }
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        conn.handle
            .out
            .lock()
            .push(frame, 0, &self.shared.event_stats);
        self.mark_dirty(slot);
    }

    /// Flushes as much of the connection's queue as the socket accepts,
    /// then finishes the connection if it owes nothing more.
    fn do_write(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        let handle = &conn.handle;
        let flushed =
            handle
                .out
                .lock()
                .flush(&handle.stream, &self.shared.event_stats, &self.shared.pool);
        let condemned = conn.close_after_flush;
        match flushed {
            Err(_) => self.teardown(slot, Teardown::Reset),
            Ok(false) => self.mark_dirty(slot),
            Ok(true) if condemned => self.teardown(slot, Teardown::Finished),
            Ok(true) => {
                self.mark_dirty(slot);
                self.maybe_finish(slot);
            }
        }
    }

    // ---- lifecycle -------------------------------------------------------

    /// Tears the connection down if it owes nothing more: read side closed,
    /// no pending or in-flight requests, write queue flushed.
    fn maybe_finish(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        let done = !conn.read_open && !conn.decoder.has_partial() && conn.pending.is_empty() && {
            // Under the write lock, against a worker's `job_done`.
            let out = conn.handle.out.lock();
            out.frames.is_empty() && conn.handle.inflight.load(Ordering::Acquire) == 0
        };
        if done {
            self.teardown(slot, Teardown::Finished);
        }
    }

    fn teardown(&mut self, slot: usize, kind: Teardown) {
        let Some(conn) = self.slab.remove(slot) else {
            return;
        };
        let handle = &conn.handle;
        let _ = self.poller.delete(&handle.stream);
        self.shared.stats.record_close();
        // The descriptor closes with the handle's last holder, which may be
        // a worker still finishing a job; the shutdown tells the peer now.
        let how = match kind {
            Teardown::Finished => Shutdown::Write,
            Teardown::Reset => Shutdown::Both,
        };
        let _ = handle.stream.shutdown(how);
        {
            let mut out = handle.out.lock();
            out.closed = true;
            out.discard(&self.shared.event_stats, &self.shared.pool);
        }
        self.shared
            .event_stats
            .conns_open
            .fetch_sub(1, Ordering::Relaxed);
        self.paused.retain(|&s| s != slot);
    }

    fn teardown_all(&mut self) {
        for slot in self.slab.occupied_slots() {
            self.teardown(slot, Teardown::Reset);
        }
        let _ = self.poller.delete(&self.listener);
    }

    // ---- interest management --------------------------------------------

    fn mark_dirty(&mut self, slot: usize) {
        if let Some(conn) = self.slab.get_mut(slot) {
            if !conn.dirty {
                conn.dirty = true;
                self.dirty.push(slot);
            }
        }
    }

    /// Re-registers interest for every connection touched this iteration.
    /// Oneshot delivery disarms a source, so *any* event or state change
    /// requires an explicit `modify` to keep receiving readiness.
    fn rearm_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        for slot in dirty {
            let Some(conn) = self.slab.get_mut(slot) else {
                continue;
            };
            conn.dirty = false;
            let (queued_bytes, writable) = {
                let out = conn.handle.out.lock();
                (out.bytes, !out.frames.is_empty())
            };
            // Read interest stops while paused (backpressure), after the
            // read side closed, once the conn is condemned, or while the
            // peer refuses to drain its responses (write throttle).
            let readable = conn.read_open
                && !conn.paused
                && !conn.close_after_flush
                && queued_bytes < WRITE_BUFFER_CAP;
            let interest = Event {
                key: slot,
                readable,
                writable,
            };
            if self.poller.modify(&conn.handle.stream, interest).is_err() {
                self.teardown(slot, Teardown::Reset);
            }
        }
    }
}

/// A connected loopback socket, for tests that need a handle.
#[cfg(test)]
pub(crate) fn test_handle(slot: usize, generation: u64, id: u64) -> Arc<ConnHandle> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    Arc::new(ConnHandle::new(slot, generation, id, stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_recycles_slots_with_fresh_generations() {
        let mut slab = Slab::with_capacity(4);
        let (slot, generation) = slab.claim();
        assert_eq!((slot, generation), (0, 0));
        slab.occupy(
            slot,
            Box::new(ConnState::new(test_handle(slot, generation, 0))),
        );
        assert_eq!(slab.live, 1);
        assert!(slab.remove(slot).is_some());
        assert_eq!(slab.live, 0);
        let (slot2, generation2) = slab.claim();
        assert_eq!(slot2, slot, "slot is recycled");
        assert_eq!(generation2, 1, "generation advanced");
    }

    #[test]
    fn released_slots_are_reusable() {
        let mut slab = Slab::with_capacity(2);
        let (slot, generation) = slab.claim();
        slab.release(slot, generation);
        let (slot2, generation2) = slab.claim();
        assert_eq!(slot2, slot);
        assert_eq!(generation2, generation + 1);
    }

    #[test]
    fn a_partly_written_frame_keeps_its_place_ahead_of_later_ones() {
        let stats = EventStats::default();
        let pool = BufferPool::new(1024, 4);
        let mut out = Outbox::default();
        out.push(vec![1; 10], 4, &stats);
        out.push(vec![2; 5], 0, &stats);
        assert_eq!((out.pos, out.bytes), (4, 11));
        out.advance(8, &stats, &pool);
        assert_eq!(out.frames.len(), 1, "the first frame's tail left");
        assert_eq!((out.pos, out.bytes), (2, 3));
        assert_eq!(stats.frames_written.load(Ordering::Relaxed), 1);
        out.discard(&stats, &pool);
        assert_eq!(stats.buffered_bytes.load(Ordering::Relaxed), 0);
    }
}
