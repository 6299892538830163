//! The poller driver of [`AftServer`](crate::AftServer): reactor threads
//! that move bytes between sockets and their connections' sessions.
//!
//! The server runs `workers` reactor threads (`aft-net-r0`, `aft-net-r1`,
//! …) and no other. Each owns a [`polling`] poller (oneshot semantics), a
//! slab of connections and a queue of decoded requests. Every reactor
//! watches the shared listener; whichever wakes first accepts, numbers the
//! connection, and gives it to reactor `id % workers`, through that
//! reactor's inbox when it is not its own. From then on one thread reads,
//! runs and answers everything the connection sends, so a request never
//! crosses threads, and thread count is `workers`, never O(connections).
//!
//! A reactor makes the syscalls and no protocol decision: decoding,
//! admission, answer order and every lifecycle verdict are its
//! connection's [`Session`]'s. Each iteration it reads ready sockets into
//! their sessions, runs the queued requests in arrival order through
//! [`ServerShared::run_job`], writes a connection's outbox once its last
//! queued request is answered, and re-arms every connection it touched
//! with its session's interest. A request that blocks (a commit waiting on
//! storage) holds up its own reactor's connections only. A torn-down
//! connection's queued requests are dropped unrun, and its slot's
//! generation moves on, so a recycled slot never receives them. Only the
//! owning reactor tears down, once per slot (the slab removal is the
//! guard), so a close is counted exactly once however it came about (EOF,
//! reset, server shutdown).

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use aft_types::{AftError, AftResult};
use parking_lot::Mutex;
use polling::{Event, Events, Poller};

use crate::server::{Job, ServerShared, Work};
use crate::session::{Session, Verdict, READ_CHUNK, WRITE_BATCH};

/// Poller key of the listening socket (`usize::MAX` is the poller's own
/// notifier); connection keys are their slab slots.
const LISTENER_KEY: usize = usize::MAX - 1;

/// Reads drained from one socket per readiness event before yielding to
/// other connections (fairness under a firehose peer).
const MAX_READS_PER_EVENT: usize = 16;

/// OS readiness API: epoll on Linux, poll(2) elsewhere.
const POLLER_BACKEND: polling::Backend = polling::Backend::Auto;

fn unavailable(what: &str, e: io::Error) -> AftError {
    AftError::Unavailable(format!("reactor: {what}: {e}"))
}

/// What other threads may do to a reactor: wake it, and give it a
/// connection another reactor accepted.
pub(crate) struct ReactorHandle {
    poller: Poller,
    inbox: Mutex<Vec<TcpStream>>,
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

/// One connection, owned by its reactor.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// Present in the reactor's dirty list (re-arm needed this iteration).
    dirty: bool,
}

/// The queue entry of a request a session on `slot` queued.
fn job(slot: usize, generation: u64, request_id: u64, work: Work) -> Job {
    Job {
        slot,
        generation,
        request_id,
        work,
        enqueued: Instant::now(),
    }
}

/// Writes `session`'s outbox until it is empty (`Ok(true)`) or the socket
/// is full (`Ok(false)`). An error means the connection is dead.
fn flush(stream: &TcpStream, session: &mut Session, shared: &ServerShared) -> io::Result<bool> {
    loop {
        let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
        let unsent = session.unsent(&mut slices);
        if unsent.is_empty() {
            return Ok(true);
        }
        match (&*stream).write_vectored(unsent) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                let events = &shared.event_stats;
                events.writev_calls.fetch_add(1, Ordering::Relaxed);
                session.wrote(shared, n);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Connection slots, each with a generation that moves on when the slot
/// empties, so a job queued for a torn-down connection never reaches the
/// slot's next occupant.
struct Slab<T> {
    slots: Vec<(u64, Option<T>)>,
    free: Vec<usize>,
}

impl<T> Slab<T> {
    fn with_capacity(capacity: usize) -> Self {
        let slots = Vec::with_capacity(capacity);
        Slab {
            slots,
            free: Vec::new(),
        }
    }

    /// The slot the next [`Slab::insert`] fills, and its generation.
    fn vacant(&self) -> (usize, u64) {
        let slot = self.free.last().copied().unwrap_or(self.slots.len());
        (
            slot,
            self.slots
                .get(slot)
                .map_or(0, |(generation, _)| *generation),
        )
    }

    fn insert(&mut self, value: T) {
        match self.free.pop() {
            Some(slot) => self.slots[slot].1 = Some(value),
            None => self.slots.push((0, Some(value))),
        }
    }

    /// The slot's generation and occupant.
    fn entry(&mut self, slot: usize) -> Option<(u64, &mut T)> {
        let (generation, value) = self.slots.get_mut(slot)?;
        Some((*generation, value.as_mut()?))
    }

    fn get_mut(&mut self, slot: usize) -> Option<&mut T> {
        self.entry(slot).map(|(_, value)| value)
    }

    /// The slot's occupant, if it is still the one of `generation`.
    fn get_live(&mut self, slot: usize, generation: u64) -> Option<&mut T> {
        let (current, value) = self.entry(slot)?;
        (current == generation).then_some(value)
    }

    fn remove(&mut self, slot: usize) -> Option<T> {
        let (generation, value) = self.slots.get_mut(slot)?;
        let value = value.take()?;
        *generation += 1;
        self.free.push(slot);
        Some(value)
    }

    fn occupied_slots(&self) -> Vec<usize> {
        let occupied = |slot: &usize| self.slots[*slot].1.is_some();
        (0..self.slots.len()).filter(occupied).collect()
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
                queue: VecDeque::new(),
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
    queue: VecDeque<Job>,
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

    fn accept_ready(&mut self) {
        let reactors = self.shared.reactors.len() as u64;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let id = self.shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                    let owner = (id % reactors) as usize;
                    if owner == self.index {
                        self.register(stream);
                    } else {
                        let reactor = &self.shared.reactors[owner];
                        reactor.inbox.lock().push(stream);
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
        for stream in handed {
            self.register(stream);
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        let (slot, _) = self.slab.vacant();
        if stream.set_nonblocking(true).is_err()
            || self.poller().add(&stream, Event::readable(slot)).is_err()
        {
            return;
        }
        let session = Session::open(&self.shared);
        self.slab.insert(Conn {
            stream,
            session,
            dirty: false,
        });
    }

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

    /// Drains the socket into the session, then lets it decode and queue.
    fn do_read(&mut self, slot: usize) {
        let mut chunk = std::mem::take(&mut self.scratch);
        let mut eof = false;
        let mut failed = false;
        for _ in 0..MAX_READS_PER_EVENT {
            let Some(conn) = self.slab.get_mut(slot) else {
                break;
            };
            if !conn.session.read_open() {
                break;
            }
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(n) => {
                    conn.session.receive(&self.shared, &chunk[..n]);
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
            return self.teardown(slot, Verdict::Reset);
        }
        let Some((generation, conn)) = self.slab.entry(slot) else {
            return;
        };
        let (was_paused, queue) = (conn.session.paused(), &mut self.queue);
        let verdict = conn
            .session
            .decode(&self.shared, eof, &mut |request_id, work| {
                queue.push_back(job(slot, generation, request_id, work))
            });
        if conn.session.paused() && !was_paused {
            self.paused.push(slot);
        }
        self.teardown(slot, verdict);
    }

    /// Lets paused sessions queue what they hold into freed queue space.
    fn resume_paused(&mut self) {
        for slot in std::mem::take(&mut self.paused) {
            let Some((generation, conn)) = self.slab.entry(slot) else {
                continue;
            };
            let queue = &mut self.queue;
            let mut queue =
                |request_id, work| queue.push_back(job(slot, generation, request_id, work));
            if conn.session.resume(&self.shared, &mut queue) {
                // Reads resume at the re-arm.
                self.mark_dirty(slot);
            } else {
                self.paused.push(slot);
            }
        }
    }

    /// Runs every queued job, answering each on its connection. Returns
    /// whether any ran.
    fn run_queue(&mut self) -> bool {
        let mut ran = false;
        while let Some(job) = self.queue.pop_front() {
            ran = true;
            let own = Some(self.index);
            let Some(conn) = self.slab.get_live(job.slot, job.generation) else {
                // A torn-down connection's request is dropped unrun.
                if matches!(job.work, Work::Run(_)) {
                    self.shared.dequeued(own);
                }
                continue;
            };
            let response = self.shared.run_job(own, job.work, job.enqueued.elapsed());
            match conn.session.answer(&self.shared, job.request_id, &response) {
                None => self.teardown(job.slot, Verdict::Reset),
                Some(true) => self.do_write(job.slot),
                Some(false) => {}
            }
        }
        ran
    }

    /// Writes as much of the connection's outbox as the socket accepts,
    /// then acts on the session's verdict once it is all written.
    fn do_write(&mut self, slot: usize) {
        let Some(conn) = self.slab.get_mut(slot) else {
            return;
        };
        let flushed = flush(&conn.stream, &mut conn.session, &self.shared);
        let verdict = conn.session.verdict();
        self.mark_dirty(slot);
        match flushed {
            Err(_) => self.teardown(slot, Verdict::Reset),
            Ok(false) => {}
            Ok(true) => self.teardown(slot, verdict),
        }
    }

    /// Tears the connection down unless its verdict is [`Verdict::Open`].
    fn teardown(&mut self, slot: usize, verdict: Verdict) {
        let conn = (verdict != Verdict::Open).then(|| self.slab.remove(slot));
        let Some(Some(conn)) = conn else {
            return;
        };
        let _ = self.poller().delete(&conn.stream);
        let how = match verdict {
            Verdict::Finished => Shutdown::Write,
            _ => Shutdown::Both,
        };
        let _ = conn.stream.shutdown(how);
        conn.session.close(&self.shared);
        self.paused.retain(|&s| s != slot);
    }

    fn teardown_all(&mut self) {
        for slot in self.slab.occupied_slots() {
            self.teardown(slot, Verdict::Reset);
        }
        let _ = self.poller().delete(&*self.listener);
    }

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
            let (readable, writable) = conn.session.interest();
            let interest = Event {
                key: slot,
                readable,
                writable,
            };
            let stream = &conn.stream;
            if self.shared.reactors[self.index]
                .poller
                .modify(stream, interest)
                .is_err()
            {
                self.teardown(slot, Verdict::Reset);
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
        let (slot, generation) = slab.vacant();
        assert_eq!((slot, generation), (0, 0));
        slab.insert("first");
        assert_eq!(slab.remove(slot), Some("first"));
        assert_eq!(slab.occupied_slots(), Vec::<usize>::new());
        let (slot2, generation2) = slab.vacant();
        assert_eq!(slot2, slot, "slot is recycled");
        assert_eq!(generation2, 1, "generation advanced");
        slab.insert("second");
        assert_eq!(slab.get_live(slot, generation), None, "a stale job misses");
        assert_eq!(slab.get_live(slot2, generation2), Some(&mut "second"));
    }

    #[test]
    fn released_slots_are_reusable() {
        // A registration that fails fills nothing: the slot it was named
        // stays the next one filled, at the same generation.
        let mut slab = Slab::<()>::with_capacity(2);
        let named = slab.vacant();
        assert_eq!(slab.vacant(), named);
        slab.insert(());
        assert_eq!(slab.get_live(named.0, named.1), Some(&mut ()));
        assert_eq!(slab.vacant(), (1, 0));
    }
}
