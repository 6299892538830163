//! The readiness-driven reactors of [`AftServer`](crate::AftServer).
//!
//! The server runs `workers` reactor threads (`aft-net-r0`, `aft-net-r1`,
//! …) and no other. Each reactor owns its own [`polling`] poller (oneshot
//! semantics), a slab of per-connection state machines, and a queue of
//! decoded requests. Every reactor watches the shared listener; whichever
//! wakes first accepts, numbers the connection, and gives it to reactor
//! `id % workers` (round robin by connection id), handing it over through
//! that reactor's inbox when it is not its own. From then on one thread
//! reads, runs and answers everything the connection sends, so a request
//! never crosses threads. Thread count is `workers`, never O(connections).
//!
//! One reactor iteration:
//!
//! * **read** — drain each ready socket into an incremental [`FrameDecoder`]
//!   (arbitrary byte splits are fine; a slow-loris peer just parks cheap
//!   buffered state here);
//! * **queue** — decode complete frames and queue them. Admission control
//!   and `queue_capacity` backpressure read one server-wide depth, the
//!   requests queued on every reactor. A connection that meets a full queue
//!   *pauses*: its decoded requests wait in a local pending deque and its
//!   socket stops being read (TCP backpressure);
//! * **run** — pop each queued request (FIFO, or round robin over
//!   connections under fair queuing), shed it if it waited past the queue
//!   deadline, otherwise run it through `ServerShared::execute` and the
//!   `ResponseFilter` hook, and encode the response straight into its frame;
//! * **write** — a connection's last queued response is written at once,
//!   together with any frames queued ahead of it: one `write` when it is
//!   alone, one vectored write for up to `WRITE_BATCH` frames otherwise.
//!   A full socket keeps the rest queued and arms write interest.
//!
//! Within one connection, responses leave in the order the requests
//! arrived, admission rejections included: a pipelining client reads its
//! replies back in the order it sent them. A request that blocks (a commit
//! waiting on storage) holds up its own reactor's connections only; the
//! other reactors keep reading and answering theirs.
//!
//! ## Lifecycle corners
//!
//! A clean-boundary EOF with requests still queued is a *half-open*
//! connection: the read side is done but the write side lingers until every
//! queued request is answered and flushed, then the slot is torn down. A
//! garbage frame is answered with one error frame and closes the read side
//! the same way. EOF mid-frame is a truncation and tears down immediately.
//! A torn-down connection's queued requests are dropped unrun, as a dead
//! peer's would be, and its slot's generation changes, so a recycled slot
//! never receives them. Only the owning reactor tears down, once per slot
//! (the slab removal is the guard), so a close is accounted exactly once
//! however it came about (EOF, reset, server shutdown).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use aft_types::wire::{decode_request, WireRequest, WireResponse};
use aft_types::{AftError, AftResult};
use parking_lot::Mutex;
use polling::{Event, Events, Poller};

use crate::buffer::BufferPool;
use crate::frame::{response_frame, FrameDecoder};
use crate::server::{Job, JobQueue, ServerShared, Work};

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

/// Unflushed response bytes a connection may buffer before its reactor
/// stops reading more requests from it (per-connection write throttle).
const WRITE_BUFFER_CAP: usize = 4 * 1024 * 1024;

/// OS readiness API: epoll on Linux, poll(2) elsewhere.
const POLLER_BACKEND: polling::Backend = polling::Backend::Auto;

fn unavailable(what: &str, e: io::Error) -> AftError {
    AftError::Unavailable(format!("reactor: {what}: {e}"))
}

/// The pool of frame buffers shared by the reactors.
pub(crate) fn frame_pool(slab_capacity: usize) -> BufferPool {
    BufferPool::new(READ_CHUNK * 4, slab_capacity.min(4096))
}

/// What other threads may do to a reactor: wake it, and give it a
/// connection another reactor accepted.
pub(crate) struct ReactorHandle {
    poller: Poller,
    inbox: Mutex<Vec<(u64, TcpStream)>>,
}

impl ReactorHandle {
    pub(crate) fn new() -> AftResult<ReactorHandle> {
        Ok(ReactorHandle {
            poller: Poller::with_backend(POLLER_BACKEND).map_err(|e| unavailable("poller", e))?,
            inbox: Mutex::new(Vec::new()),
        })
    }

    /// Interrupts the reactor's poll wait.
    pub(crate) fn wake(&self) {
        let _ = self.poller.notify();
    }
}

/// A connection's queued output: framed responses awaiting flush, the front
/// one written up to `pos`.
#[derive(Debug, Default)]
struct Outbox {
    frames: VecDeque<Vec<u8>>,
    pos: usize,
    /// Unflushed bytes across `frames`.
    bytes: usize,
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

/// One `write` syscall, retried only on `EINTR`.
fn write_once(stream: &TcpStream, frame: &[u8]) -> io::Result<usize> {
    loop {
        match (&*stream).write(frame) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => return result,
        }
    }
}

/// Monotonic counters and gauges of the server's socket I/O, summed over
/// the reactors.
#[derive(Debug, Default)]
pub(crate) struct EventStats {
    conns_open: AtomicU64,
    frames_read: AtomicU64,
    frames_written: AtomicU64,
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
    /// Connections currently registered with a reactor.
    pub conns_open: u64,
    /// Complete request frames decoded.
    pub frames_read: u64,
    /// Response frames fully flushed.
    pub frames_written: u64,
    /// Raw bytes read off sockets.
    pub bytes_read: u64,
    /// Raw bytes written to sockets.
    pub bytes_written: u64,
    /// Write syscalls issued, a lone response's `write` or a batch's
    /// vectored one (`frames_written / writev_calls` is the realized
    /// write-batching factor).
    pub writev_calls: u64,
    /// Times a connection paused on a full request queue (backpressure).
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
    /// Answered everything it asked; a clean close.
    Finished,
    /// Protocol/I-O failure or chaos reset; both halves are shut down so the
    /// peer observes a reset rather than a lingering half-close.
    Reset,
}

/// One connection's state machine, owned by its reactor.
struct Conn {
    id: u64,
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Outbox,
    /// Requests decoded while the queue was full, waiting to be queued.
    pending: VecDeque<(u64, Work)>,
    /// This connection's jobs in the reactor's queue.
    queued: usize,
    read_open: bool,
    /// Queuing is suspended on a full queue; reads stay disarmed.
    paused: bool,
    /// Present in the reactor's dirty list (re-arm needed this iteration).
    dirty: bool,
}

/// Slab of connection slots; vacant slots remember the next generation so
/// a job queued for a torn-down connection never reaches the slot's next
/// occupant.
enum Slot<T> {
    Vacant { next_generation: u64 },
    Occupied { generation: u64, value: T },
}

struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<usize>,
    live: usize,
}

impl<T> Slab<T> {
    fn with_capacity(capacity: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Claims a slot, returning `(slot, generation)`.
    fn claim(&mut self) -> (usize, u64) {
        if let Some(slot) = self.free.pop() {
            let generation = match self.slots[slot] {
                Slot::Vacant { next_generation } => next_generation,
                Slot::Occupied { .. } => unreachable!("free list held an occupied slot"),
            };
            (slot, generation)
        } else {
            self.slots.push(Slot::Vacant { next_generation: 0 });
            (self.slots.len() - 1, 0)
        }
    }

    fn occupy(&mut self, slot: usize, generation: u64, value: T) {
        self.slots[slot] = Slot::Occupied { generation, value };
        self.live += 1;
    }

    /// Releases a claimed-but-never-occupied slot (registration failed).
    fn release(&mut self, slot: usize, generation: u64) {
        self.slots[slot] = Slot::Vacant {
            next_generation: generation + 1,
        };
        self.free.push(slot);
    }

    /// The slot's generation and occupant.
    fn entry(&mut self, slot: usize) -> Option<(u64, &mut T)> {
        match self.slots.get_mut(slot) {
            Some(Slot::Occupied { generation, value }) => Some((*generation, value)),
            _ => None,
        }
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.entry(slot).map(|(_, value)| value)
    }

    /// The slot's occupant, if it is still the one of `generation`.
    fn get_live(&mut self, slot: usize, generation: u64) -> Option<&mut T> {
        self.entry(slot)
            .and_then(|(current, value)| (current == generation).then_some(value))
    }

    fn remove(&mut self, slot: usize) -> Option<T> {
        let (generation, _) = self.entry(slot)?;
        let vacant = Slot::Vacant {
            next_generation: generation + 1,
        };
        let Slot::Occupied { value, .. } = std::mem::replace(&mut self.slots[slot], vacant) else {
            unreachable!()
        };
        self.free.push(slot);
        self.live -= 1;
        Some(value)
    }

    fn occupied_slots(&self) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| matches!(s, Slot::Occupied { .. }).then_some(i))
            .collect()
    }
}

/// Registers `listener` with every reactor's poller and starts one thread
/// per reactor. Registration errors fail `serve` before any thread starts.
pub(crate) fn spawn(
    shared: &Arc<ServerShared>,
    listener: TcpListener,
) -> AftResult<Vec<JoinHandle<()>>> {
    listener
        .set_nonblocking(true)
        .map_err(|e| unavailable("nonblocking listener", e))?;
    for reactor in &shared.reactors {
        reactor
            .poller
            .add(&listener, Event::readable(LISTENER_KEY))
            .map_err(|e| unavailable("register listener", e))?;
    }
    let listener = Arc::new(listener);
    let slab_capacity = shared.config.slab_capacity.div_ceil(shared.reactors.len());
    let threads = (0..shared.reactors.len())
        .map(|index| {
            let reactor = Reactor {
                index,
                shared: Arc::clone(shared),
                listener: Arc::clone(&listener),
                slab: Slab::with_capacity(slab_capacity),
                queue: JobQueue::new(shared.config.fair_queuing),
                dirty: Vec::new(),
                paused: Vec::new(),
                scratch: vec![0u8; READ_CHUNK],
            };
            std::thread::Builder::new()
                .name(format!("aft-net-r{index}"))
                .spawn(move || reactor.run())
                .expect("spawn reactor thread")
        })
        .collect();
    Ok(threads)
}

/// One reactor: its connections, its queue, and the thread that runs both.
struct Reactor {
    index: usize,
    shared: Arc<ServerShared>,
    listener: Arc<TcpListener>,
    slab: Slab<Conn>,
    queue: JobQueue,
    /// Slots needing an interest re-arm at the end of the iteration.
    dirty: Vec<usize>,
    /// Slots paused on a full queue.
    paused: Vec<usize>,
    /// Read scratch, recycled across every connection.
    scratch: Vec<u8>,
}

impl Reactor {
    fn poller(&self) -> &Poller {
        &self.shared.reactors[self.index].poller
    }

    fn run(mut self) {
        let mut events = Events::new();
        while !self.shared.shutdown.load(Ordering::Acquire) {
            self.adopt_handed_over();
            loop {
                self.resume_paused();
                if !self.run_queue() {
                    break;
                }
            }
            self.rearm_dirty();
            if self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if self.poller().wait(&mut events, None).is_err() {
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
        let reactors = self.shared.reactors.len() as u64;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                    let owner = (id % reactors) as usize;
                    if owner == self.index {
                        self.register(id, stream);
                    } else {
                        let reactor = &self.shared.reactors[owner];
                        reactor.inbox.lock().push((id, stream));
                        reactor.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Oneshot disarmed the listener when this event fired; re-arm it.
        let _ = self
            .poller()
            .modify(&*self.listener, Event::readable(LISTENER_KEY));
    }

    /// Registers the connections other reactors accepted for this one.
    fn adopt_handed_over(&mut self) {
        let handed = std::mem::take(&mut *self.shared.reactors[self.index].inbox.lock());
        for (id, stream) in handed {
            self.register(id, stream);
        }
    }

    fn register(&mut self, id: u64, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let (slot, generation) = self.slab.claim();
        if self.poller().add(&stream, Event::readable(slot)).is_err() {
            self.slab.release(slot, generation);
            return;
        }
        let conn = Conn {
            id,
            stream,
            decoder: FrameDecoder::new(),
            out: Outbox::default(),
            pending: VecDeque::new(),
            queued: 0,
            read_open: true,
            paused: false,
            dirty: false,
        };
        self.slab.occupy(slot, generation, conn);
        self.shared.stats.record_accept();
        self.shared
            .event_stats
            .conns_open
            .fetch_add(1, Ordering::Relaxed);
    }

    // ---- reading --------------------------------------------------------

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

    /// Drains the socket into the decoder, then decodes and queues.
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
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.read_open = false;
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
        if !self.decode_and_queue(slot) {
            return;
        }
        if saw_eof {
            if self
                .slab
                .get_mut(slot)
                .is_some_and(|conn| conn.decoder.has_partial())
            {
                // EOF mid-frame: a message was cut in half; same verdict as
                // the blocking `read_frame` path.
                self.teardown(slot, Teardown::Reset);
                return;
            }
            self.maybe_finish(slot);
        }
    }

    /// Pulls complete frames out of the decoder and queues them. Returns
    /// `false` if the connection was torn down.
    fn decode_and_queue(&mut self, slot: usize) -> bool {
        loop {
            let Some(conn) = self.slab.get_mut(slot) else {
                return false;
            };
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
                        // A peer speaking garbage gets one error frame, after
                        // the answers it is owed, and the door.
                        conn.read_open = false;
                        self.shared.stats.record_error();
                        let answer = Work::Answer(WireResponse::Error(e));
                        if conn.paused {
                            conn.pending.push_back((0, answer));
                        } else {
                            self.enqueue(slot, 0, answer);
                        }
                        return true;
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

    /// Queues one decoded request, answers it `Overloaded` at once under
    /// admission control, or parks it (pausing the connection) when the
    /// queue is full.
    fn submit(&mut self, slot: usize, request_id: u64, request: WireRequest) {
        let capacity = self.shared.config.queue_capacity.max(1);
        let admission = self.shared.config.admission_limit;
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        if conn.paused {
            conn.pending.push_back((request_id, Work::Run(request)));
            return;
        }
        let depth = self.shared.depth.load(Ordering::Acquire);
        if admission > 0 && depth >= admission && !matches!(request, WireRequest::Commit { .. }) {
            // Admission control: answer `Overloaded` now, while the client
            // can still usefully back off, instead of parking the request
            // behind a queue that is already too deep. Commits are exempt —
            // the server already executed this transaction's reads, and
            // refusing the commit would convert that work into waste;
            // overload is shed at the pipeline entry (the reads) instead,
            // and commits stay bounded by `queue_capacity` backpressure.
            self.shared.stats.record_overload_rejection();
            let rejection = WireResponse::Error(AftError::Overloaded(
                "request queue is full; retry with backoff".to_owned(),
            ));
            self.enqueue(slot, request_id, Work::Answer(rejection));
            return;
        }
        if depth >= capacity {
            conn.paused = true;
            conn.pending.push_back((request_id, Work::Run(request)));
            self.shared
                .event_stats
                .pauses
                .fetch_add(1, Ordering::Relaxed);
            self.mark_dirty(slot);
            self.paused.push(slot);
            return;
        }
        self.enqueue(slot, request_id, Work::Run(request));
    }

    /// Puts a job on the queue; a request to run counts toward the
    /// server-wide depth.
    fn enqueue(&mut self, slot: usize, request_id: u64, work: Work) {
        let Some((generation, conn)) = self.slab.entry(slot) else {
            return;
        };
        conn.queued += 1;
        if matches!(work, Work::Run(_)) {
            self.shared.depth.fetch_add(1, Ordering::AcqRel);
        }
        self.queue.push(Job {
            slot,
            generation,
            conn: conn.id,
            request_id,
            work,
            enqueued: Instant::now(),
        });
    }

    /// Moves pending requests of paused connections into freed queue space.
    /// Pending requests were already accepted (they pre-date the pause), so
    /// they bypass admission control and contend only with
    /// `queue_capacity`.
    fn resume_paused(&mut self) {
        if self.paused.is_empty() {
            return;
        }
        let capacity = self.shared.config.queue_capacity.max(1);
        for slot in std::mem::take(&mut self.paused) {
            while let Some(conn) = self.slab.get_mut(slot) {
                if self.shared.depth.load(Ordering::Acquire) >= capacity {
                    self.paused.push(slot);
                    break;
                }
                let Some((request_id, work)) = conn.pending.pop_front() else {
                    conn.paused = false;
                    // Reads resume at the re-arm.
                    self.mark_dirty(slot);
                    break;
                };
                self.enqueue(slot, request_id, work);
            }
        }
    }

    // ---- running --------------------------------------------------------

    /// Runs every queued job, answering each on its connection. Returns
    /// whether any ran.
    fn run_queue(&mut self) -> bool {
        let capacity = self.shared.config.queue_capacity.max(1);
        let deadline = self.shared.config.queue_deadline;
        let mut ran = false;
        while let Some(job) = self.queue.pop() {
            ran = true;
            let response = match job.work {
                Work::Answer(response) => response,
                Work::Run(request) => {
                    if self.shared.depth.fetch_sub(1, Ordering::AcqRel) == capacity {
                        // The queue just dropped below capacity: paused
                        // connections on other reactors may now have room.
                        for (i, reactor) in self.shared.reactors.iter().enumerate() {
                            if i != self.index {
                                reactor.wake();
                            }
                        }
                    }
                    if self.slab.get_live(job.slot, job.generation).is_none() {
                        continue;
                    }
                    // Shedding: a job past its queue-age deadline is
                    // answered `Overloaded` without executing. Safe by
                    // construction — nothing was applied and nothing acked,
                    // so the client's retry is the first execution, not a
                    // duplicate.
                    let response = if !deadline.is_zero() && job.enqueued.elapsed() > deadline {
                        self.shared.stats.record_shed();
                        WireResponse::Error(AftError::Overloaded(format!(
                            "request shed after waiting past the {deadline:?} queue deadline"
                        )))
                    } else {
                        let response = self.shared.execute(&request);
                        if matches!(response, WireResponse::Error(_)) {
                            self.shared.stats.record_error();
                        }
                        response
                    };
                    let deliver = {
                        let filter = self.shared.filter.lock().clone();
                        filter.is_none_or(|f| f.deliver(job.request_id, &response))
                    };
                    if !deliver {
                        // The chaos hook ate the ack: the work (if any) is
                        // done and durable, the client never hears about
                        // it, and the connection resets — exactly the
                        // crash-after-commit interleaving.
                        self.shared.stats.record_dropped_ack();
                        self.teardown(job.slot, Teardown::Reset);
                        continue;
                    }
                    response
                }
            };
            self.respond(job.slot, job.generation, job.request_id, &response);
        }
        ran
    }

    /// Frames `response` onto its connection and writes it once it is the
    /// connection's last queued one.
    fn respond(&mut self, slot: usize, generation: u64, request_id: u64, response: &WireResponse) {
        let shared = &self.shared;
        let Some(conn) = self.slab.get_live(slot, generation) else {
            return;
        };
        conn.queued -= 1;
        // Encoded once, into the frame that goes on the wire.
        let mut frame = shared.pool.take();
        if response_frame(&mut frame, request_id, response).is_err() {
            // Responses never exceed the cap; defensively reset rather than
            // send an unframeable reply.
            shared.pool.give(frame);
            self.teardown(slot, Teardown::Reset);
            return;
        }
        if conn.queued > 0 || !conn.out.frames.is_empty() {
            // More answers follow, and leave together; or frames wait
            // ahead of this one.
            conn.out.push(frame, 0, &shared.event_stats);
            if conn.queued == 0 {
                self.do_write(slot);
            }
            return;
        }
        match write_once(&conn.stream, &frame) {
            Ok(n) if n == frame.len() => {
                shared.event_stats.count_write(n);
                shared
                    .event_stats
                    .frames_written
                    .fetch_add(1, Ordering::Relaxed);
                shared.pool.give(frame);
                self.maybe_finish(slot);
            }
            // A full socket took part of the frame, or none of it: the rest
            // waits for write readiness.
            Ok(n) if n > 0 => {
                shared.event_stats.count_write(n);
                conn.out.push(frame, n, &shared.event_stats);
                self.mark_dirty(slot);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.out.push(frame, 0, &shared.event_stats);
                self.mark_dirty(slot);
            }
            _ => {
                shared.pool.give(frame);
                self.teardown(slot, Teardown::Reset);
            }
        }
    }

    /// Flushes as much of the connection's queue as the socket accepts,
    /// then finishes the connection if it owes nothing more.
    fn do_write(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        let flushed = conn
            .out
            .flush(&conn.stream, &self.shared.event_stats, &self.shared.pool);
        match flushed {
            Err(_) => self.teardown(slot, Teardown::Reset),
            Ok(false) => self.mark_dirty(slot),
            Ok(true) => {
                self.mark_dirty(slot);
                self.maybe_finish(slot);
            }
        }
    }

    // ---- lifecycle -------------------------------------------------------

    /// Tears the connection down if it owes nothing more: read side closed,
    /// no pending or queued requests, write queue flushed.
    fn maybe_finish(&mut self, slot: usize) {
        let done = self.slab.get_mut(slot).is_some_and(|conn| {
            !conn.read_open
                && conn.pending.is_empty()
                && conn.queued == 0
                && conn.out.frames.is_empty()
        });
        if done {
            self.teardown(slot, Teardown::Finished);
        }
    }

    fn teardown(&mut self, slot: usize, kind: Teardown) {
        let Some(mut conn) = self.slab.remove(slot) else {
            return;
        };
        let _ = self.poller().delete(&conn.stream);
        self.shared.stats.record_close();
        let how = match kind {
            Teardown::Finished => Shutdown::Write,
            Teardown::Reset => Shutdown::Both,
        };
        let _ = conn.stream.shutdown(how);
        conn.out
            .discard(&self.shared.event_stats, &self.shared.pool);
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
        let _ = self.poller().delete(&*self.listener);
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
        for slot in std::mem::take(&mut self.dirty) {
            let Some(conn) = self.slab.get_mut(slot) else {
                continue;
            };
            conn.dirty = false;
            // Read interest stops while paused (backpressure), after the
            // read side closed, or while the peer refuses to drain its
            // responses (write throttle).
            let interest = Event {
                key: slot,
                readable: conn.read_open && !conn.paused && conn.out.bytes < WRITE_BUFFER_CAP,
                writable: !conn.out.frames.is_empty(),
            };
            let stream = &conn.stream;
            if self.shared.reactors[self.index]
                .poller
                .modify(stream, interest)
                .is_err()
            {
                self.teardown(slot, Teardown::Reset);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_recycles_slots_with_fresh_generations() {
        let mut slab = Slab::with_capacity(4);
        let (slot, generation) = slab.claim();
        assert_eq!((slot, generation), (0, 0));
        slab.occupy(slot, generation, "first");
        assert_eq!(slab.live, 1);
        assert_eq!(slab.remove(slot), Some("first"));
        assert_eq!(slab.live, 0);
        let (slot2, generation2) = slab.claim();
        assert_eq!(slot2, slot, "slot is recycled");
        assert_eq!(generation2, 1, "generation advanced");
        slab.occupy(slot2, generation2, "second");
        assert_eq!(slab.get_live(slot, generation), None, "a stale job misses");
        assert_eq!(slab.get_live(slot2, generation2), Some(&mut "second"));
    }

    #[test]
    fn released_slots_are_reusable() {
        let mut slab = Slab::<()>::with_capacity(2);
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
