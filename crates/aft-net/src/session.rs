//! One connection's protocol, with no I/O: the state machine both of the
//! server's drivers run, the reactors (`event_loop`) and the in-memory
//! pipe (`pipe`).
//!
//! A [`Session`] is handed the bytes its peer sent, the peer's EOF, the
//! server-wide queue depth and the answers to the requests it queued. It
//! hands back requests to run, the slices of its outbox to write, its read
//! and write interest, and a [`Verdict`] on the connection. It holds no
//! socket and makes no syscall:
//!
//! * bytes accumulate in an incremental [`FrameDecoder`], split anywhere;
//! * admission control and [`QUEUE_CAPACITY`] backpressure read the depth
//!   queued on every driver. A session that meets a full queue *pauses*:
//!   its decoded requests wait in a local deque and it stops reading;
//! * answers are framed straight into the outbox in the order the requests
//!   arrived, admission rejections included. Once the last queued request
//!   is answered the driver writes, up to [`WRITE_BATCH`] frames at once;
//! * an EOF with answers owed is a *half-open* connection: it is
//!   [`Verdict::Finished`] once they are written. A garbage frame gets one
//!   error frame and closes the read side the same way; what follows it is
//!   ignored. EOF mid-frame and broken framing are [`Verdict::Reset`];
//! * it counts what it holds for its connection into the server's
//!   [`EventSnapshot::conn_bytes`](crate::EventSnapshot::conn_bytes): the
//!   entry it is kept in (a reactor's slab slot, a pipe) and its buffers'
//!   capacity, updated as they grow or shrink and dropped when it closes.

use std::collections::VecDeque;
use std::io::IoSlice;
use std::mem::size_of;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};

use aft_types::wire::{decode_request, WireRequest, WireResponse};
use aft_types::AftError;

use crate::buffer::{BufferPool, KEEP_CAPACITY};
use crate::frame::{response_frame, FrameDecoder};
use crate::server::{ServerShared, Work};
use crate::stats::EventStats;

/// Bytes a driver reads per call.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

/// Decoded requests allowed to wait to run, summed over the drivers, before
/// sessions stop reading (backpressure): a client that pipelines faster than
/// the server drains is throttled by TCP instead of growing server memory
/// without bound.
pub(crate) const QUEUE_CAPACITY: usize = 1_024;

/// Response frames coalesced into one vectored write.
pub(crate) const WRITE_BATCH: usize = 64;

/// Unflushed response bytes a session may hold before it stops reading
/// (per-connection write throttle).
const WRITE_BUFFER_CAP: usize = 4 * 1024 * 1024;

/// A session's verdict on its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// It may read more, or still owes answers.
    Open,
    /// Its peer is done and owed nothing more: a clean close.
    Finished,
    /// Truncated or broken framing, or a dropped answer: both halves go, so
    /// the peer sees a reset rather than a lingering half-close.
    Reset,
}

/// Where a session puts each request it queues, by request id: its
/// driver's queue.
pub(crate) type Queue<'a> = dyn FnMut(u64, Work) + 'a;

/// One connection's protocol state.
pub(crate) struct Session {
    decoder: FrameDecoder,
    out: Outbox,
    /// Requests decoded while the queue was full, waiting to be queued.
    pending: VecDeque<(u64, Work)>,
    /// This session's jobs on its driver's queue, not yet answered.
    queued: usize,
    read_open: bool,
    /// Queuing is suspended on a full queue; reads with it.
    paused: bool,
    /// The bytes of the entry it is kept in, and what it last counted into
    /// the server's held bytes: that entry and its buffers' capacity.
    entry: usize,
    held: usize,
}

impl Session {
    /// A fresh connection's session, counted open, kept in an entry of
    /// `entry` bytes.
    pub(crate) fn open(shared: &ServerShared, entry: usize) -> Session {
        shared.stats.record_accept();
        shared.event_stats.conns_open.fetch_add(1, Relaxed);
        let mut session = Session {
            decoder: FrameDecoder::new(),
            out: Outbox::default(),
            pending: VecDeque::new(),
            queued: 0,
            read_open: true,
            paused: false,
            entry,
            held: 0,
        };
        session.account(&shared.event_stats);
        session
    }

    /// Brings the server's held bytes up to what this session holds now.
    fn account(&mut self, events: &EventStats) {
        let held = self.entry
            + self.decoder.capacity()
            + self.out.held()
            + self.pending.capacity() * size_of::<(u64, Work)>();
        // A shrink adds the difference's two's complement: the sum wraps.
        let change = (held as u64).wrapping_sub(self.held as u64);
        events.held_bytes.fetch_add(change, Relaxed);
        self.held = held;
    }

    /// Takes bytes the peer sent; once the read side closed they are
    /// dropped.
    pub(crate) fn receive(&mut self, shared: &ServerShared, bytes: &[u8]) {
        let events = &shared.event_stats;
        events.bytes_read.fetch_add(bytes.len() as u64, Relaxed);
        if self.read_open {
            self.decoder.push(bytes);
            self.account(events);
        }
    }

    /// Decodes every complete frame received so far and queues it (or
    /// answers it at once, or parks it while paused); `eof` says the peer's
    /// write side closed after those bytes.
    pub(crate) fn decode(
        &mut self,
        shared: &ServerShared,
        eof: bool,
        queue: &mut Queue,
    ) -> Verdict {
        while self.read_open {
            let request = match self.decoder.next_frame() {
                Ok(Some(payload)) => decode_request(&payload),
                Ok(None) => {
                    self.decoder.shed(KEEP_CAPACITY);
                    self.read_open = !eof;
                    if eof && self.decoder.has_partial() {
                        return Verdict::Reset;
                    }
                    break;
                }
                Err(_) => {
                    shared.stats.record_error();
                    return Verdict::Reset;
                }
            };
            match request {
                Ok((request_id, request)) => {
                    shared.event_stats.frames_read.fetch_add(1, Relaxed);
                    self.submit(shared, request_id, request, queue);
                }
                Err(e) => {
                    // A peer speaking garbage gets one error frame, after the
                    // answers it is owed, and the door.
                    self.read_open = false;
                    shared.stats.record_error();
                    self.admit(shared, 0, Work::Answer(WireResponse::Error(e)), queue);
                }
            }
        }
        self.account(&shared.event_stats);
        self.verdict()
    }

    /// Queues one decoded request, answers it `Overloaded` at once under
    /// admission control, or parks it (pausing) when the queue is full.
    fn submit(&mut self, shared: &ServerShared, id: u64, request: WireRequest, queue: &mut Queue) {
        let admission = shared.config.admission_limit;
        let depth = shared.depth.load(Acquire);
        let exempt = self.paused || matches!(request, WireRequest::Commit { .. });
        if admission > 0 && depth >= admission && !exempt {
            // Admission control: answer `Overloaded` now, while the client
            // can still usefully back off, instead of parking the request
            // behind a queue that is already too deep. Commits are exempt —
            // the server already executed this transaction's reads, and
            // refusing the commit would convert that work into waste;
            // overload is shed at the pipeline entry (the reads) instead,
            // and commits stay bounded by `QUEUE_CAPACITY` backpressure.
            shared.stats.record_overload_rejection();
            let rejection =
                AftError::Overloaded("request queue is full; retry with backoff".into());
            return self.enqueue(
                shared,
                id,
                Work::Answer(WireResponse::Error(rejection)),
                queue,
            );
        }
        if !self.paused && depth >= QUEUE_CAPACITY {
            self.paused = true;
            shared.event_stats.pauses.fetch_add(1, Relaxed);
        }
        self.admit(shared, id, Work::Run(request), queue);
    }

    /// Queues `work`, or parks it behind the others while paused.
    fn admit(&mut self, shared: &ServerShared, id: u64, work: Work, queue: &mut Queue) {
        if self.paused {
            self.pending.push_back((id, work));
        } else {
            self.enqueue(shared, id, work, queue);
        }
    }

    /// Puts a job on the queue; a request to run counts toward the
    /// server-wide depth.
    fn enqueue(&mut self, shared: &ServerShared, id: u64, work: Work, queue: &mut Queue) {
        self.queued += 1;
        if matches!(work, Work::Run(_)) {
            shared.depth.fetch_add(1, AcqRel);
        }
        queue(id, work);
    }

    /// Moves requests decoded while paused into freed queue space. They were
    /// accepted before the pause, so they skip admission control and contend
    /// only with `QUEUE_CAPACITY`. False while the session stays paused.
    pub(crate) fn resume(&mut self, shared: &ServerShared, queue: &mut Queue) -> bool {
        while self.paused {
            if shared.depth.load(Acquire) >= QUEUE_CAPACITY {
                return false;
            }
            match self.pending.pop_front() {
                Some((id, work)) => self.enqueue(shared, id, work, queue),
                None => self.paused = false,
            }
        }
        true
    }

    /// Frames the answer to this session's oldest queued request into its
    /// outbox: `Some(true)` when it was the last one queued, so the outbox
    /// leaves now (a pipelined burst's answers in one write); `None` if the
    /// answer cannot be framed, and the connection resets.
    pub(crate) fn answer(
        &mut self,
        shared: &ServerShared,
        id: u64,
        response: &WireResponse,
    ) -> Option<bool> {
        self.queued -= 1;
        let mut frame = shared.pool.take();
        if response_frame(&mut frame, id, response).is_err() {
            // Responses never exceed the cap; defensively reset rather than
            // send an unframeable reply.
            shared.pool.give(frame);
            return None;
        }
        self.out.push(frame, &shared.event_stats);
        self.account(&shared.event_stats);
        Some(self.queued == 0)
    }

    /// The outbox's next frames, at most [`WRITE_BATCH`], the first from
    /// where the last write left off; empty once all is written.
    pub(crate) fn unsent<'a, 'b>(
        &'a self,
        into: &'b mut [IoSlice<'a>; WRITE_BATCH],
    ) -> &'b [IoSlice<'a>] {
        let frames = self.out.frames.iter().take(WRITE_BATCH);
        let mut n = 0;
        for (slot, frame) in into.iter_mut().zip(frames) {
            *slot = IoSlice::new(&frame[if n == 0 { self.out.pos } else { 0 }..]);
            n += 1;
        }
        &into[..n]
    }

    /// `written` bytes of [`Session::unsent`]'s slices left.
    pub(crate) fn wrote(&mut self, shared: &ServerShared, written: usize) {
        let events = &shared.event_stats;
        events.bytes_written.fetch_add(written as u64, Relaxed);
        self.out.advance(written, events, &shared.pool);
        self.account(events);
    }

    /// Whether the read side is still open.
    pub(crate) fn read_open(&self) -> bool {
        self.read_open
    }

    /// Whether queuing is suspended on a full queue.
    pub(crate) fn paused(&self) -> bool {
        self.paused
    }

    /// Whether the session wants to read (it is open, not paused, and its
    /// peer drains its answers) and whether it has bytes to write.
    pub(crate) fn interest(&self) -> (bool, bool) {
        let readable = self.read_open && !self.paused && self.out.bytes < WRITE_BUFFER_CAP;
        (readable, !self.out.frames.is_empty())
    }

    /// [`Verdict::Finished`] once it owes nothing more: read side closed,
    /// nothing pending or queued, outbox written.
    pub(crate) fn verdict(&self) -> Verdict {
        let owed = self.queued + self.pending.len() + self.out.frames.len();
        if self.read_open || owed > 0 {
            Verdict::Open
        } else {
            Verdict::Finished
        }
    }

    /// Counts the connection closed and drops whatever it still queued for
    /// writing.
    pub(crate) fn close(mut self, shared: &ServerShared) {
        let events = &shared.event_stats;
        shared.stats.record_close();
        self.out.discard(events, &shared.pool);
        events.conns_open.fetch_sub(1, Relaxed);
        events.held_bytes.fetch_sub(self.held as u64, Relaxed);
    }
}

/// A session's queued output: framed responses awaiting flush, the front
/// one written up to `pos`.
#[derive(Debug, Default)]
struct Outbox {
    frames: VecDeque<Vec<u8>>,
    pos: usize,
    /// Unflushed bytes across `frames`.
    bytes: usize,
    /// The capacity of `frames`' buffers.
    capacity: usize,
}

impl Outbox {
    /// The bytes its queue and its frames' buffers hold.
    fn held(&self) -> usize {
        self.frames.capacity() * size_of::<Vec<u8>>() + self.capacity
    }

    fn push(&mut self, frame: Vec<u8>, events: &EventStats) {
        self.bytes += frame.len();
        self.capacity += frame.capacity();
        events.buffered_bytes.fetch_add(frame.len() as u64, Relaxed);
        self.frames.push_back(frame);
    }

    /// Consumes `written` bytes off the front of the queue, recycling fully
    /// flushed frame buffers.
    fn advance(&mut self, written: usize, events: &EventStats, pool: &BufferPool) {
        self.bytes -= written;
        events.buffered_bytes.fetch_sub(written as u64, Relaxed);
        let mut remaining = written;
        while let Some(front) = self.frames.front() {
            let left = front.len() - self.pos;
            if remaining < left {
                self.pos += remaining;
                break;
            }
            remaining -= left;
            self.pos = 0;
            if let Some(frame) = self.frames.pop_front() {
                events.frames_written.fetch_add(1, Relaxed);
                self.capacity -= frame.capacity();
                pool.give(frame);
            }
        }
    }

    /// Drops everything queued (the connection is gone).
    fn discard(&mut self, events: &EventStats, pool: &BufferPool) {
        events.buffered_bytes.fetch_sub(self.bytes as u64, Relaxed);
        (self.bytes, self.pos, self.capacity) = (0, 0, 0);
        self.frames.drain(..).for_each(|frame| pool.give(frame));
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::sync::Arc;
    use std::time::Duration;

    use aft_cluster::{Cluster, ClusterConfig};
    use aft_storage::InMemoryStore;
    use aft_types::clock::TickingClock;
    use aft_types::wire::decode_response;
    use aft_types::{Key, TransactionId, Uuid, Value};
    use proptest::prelude::*;

    use super::*;
    use crate::frame::{frame_into, request_frame};
    use crate::server::ServerConfig;

    #[test]
    fn a_partly_written_frame_keeps_its_place_ahead_of_later_ones() {
        let events = EventStats::default();
        let pool = BufferPool::new(4);
        let mut out = Outbox::default();
        out.push(vec![1; 10], &events);
        out.push(vec![2; 5], &events);
        out.advance(4, &events, &pool);
        assert_eq!((out.pos, out.bytes), (4, 11));
        out.advance(8, &events, &pool);
        assert_eq!(out.frames.len(), 1, "the first frame's tail left");
        assert_eq!((out.pos, out.bytes), (2, 3));
        assert_eq!(events.frames_written.load(Relaxed), 1);
        out.discard(&events, &pool);
        assert_eq!(events.buffered_bytes.load(Relaxed), 0);
    }

    /// A pipelined burst: a `Ping` (id 1), a `Get` (id 2), and, if
    /// `garbage`, a frame that is no request.
    fn burst(garbage: bool) -> Vec<u8> {
        let (mut wire, mut frame) = (Vec::new(), Vec::new());
        let txid = TransactionId::new(1, Uuid::from_u128(7));
        let get = WireRequest::Get {
            txid,
            key: Key::new("k"),
        };
        for (id, request) in [(1, WireRequest::Ping), (2, get)] {
            request_frame(&mut frame, id, &request).unwrap();
            wire.extend_from_slice(&frame);
        }
        if garbage {
            frame_into(&mut frame, b"not a request").unwrap();
            wire.extend_from_slice(&frame);
        }
        wire
    }

    /// Hands `wire` to a fresh session in the runs `cuts` make, then its
    /// EOF if `eof`; answers every queued request and writes the outbox
    /// out. The bytes written and the last verdict.
    fn deliver(
        shared: &ServerShared,
        wire: &[u8],
        cuts: &[usize],
        eof: bool,
    ) -> (Vec<u8>, Verdict) {
        let mut session = Session::open(shared, 0);
        let mut jobs = VecDeque::new();
        let (mut verdict, mut at) = (Verdict::Open, 0);
        for end in cuts.iter().copied().chain([wire.len()]) {
            session.receive(shared, &wire[at..end]);
            verdict = session.decode(shared, false, &mut |id, work| jobs.push_back((id, work)));
            at = end;
        }
        if eof {
            verdict = session.decode(shared, true, &mut |id, work| jobs.push_back((id, work)));
        }
        while let Some((id, work)) = jobs.pop_front() {
            let response = shared.run_job(None, work, Duration::ZERO);
            assert!(session.answer(shared, id, &response).is_some());
        }
        let mut written = Vec::new();
        loop {
            let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
            match written.write_vectored(session.unsent(&mut slices)).unwrap() {
                0 => break,
                n => session.wrote(shared, n),
            }
        }
        match verdict {
            Verdict::Reset => (written, verdict),
            _ => (written, session.verdict()),
        }
    }

    fn server() -> Arc<ServerShared> {
        let (storage, clock) = (InMemoryStore::shared(), TickingClock::shared(1, 1));
        let cluster = Cluster::with_clock(ClusterConfig::test(1), storage, clock).unwrap();
        ServerShared::new(cluster, ServerConfig::default(), Vec::new())
    }

    #[test]
    fn a_decoder_that_took_an_8_mib_frame_sheds_back_to_the_keep_bound() {
        let shared = server();
        let mut session = Session::open(&shared, 0);
        let mut jobs = Vec::new();
        let mut arrive = |session: &mut Session, values: usize, size: usize| {
            let writes = (0..values)
                .map(|i| (Key::new(format!("k{i}")), Value::from(vec![7u8; size])))
                .collect();
            let txid = TransactionId::new(1, Uuid::from_u128(values as u128));
            let commit = WireRequest::Commit {
                txid,
                writes,
                reads: Vec::new(),
            };
            let mut frame = Vec::new();
            request_frame(&mut frame, 1, &commit).unwrap();
            for piece in frame.chunks(READ_CHUNK) {
                session.receive(&shared, piece);
                session.decode(&shared, false, &mut |id, work| jobs.push((id, work)));
            }
            frame.len()
        };
        assert!(arrive(&mut session, 128, 64 << 10) > 8 << 20);
        assert_eq!(session.decoder.capacity(), KEEP_CAPACITY);
        // A 4 x 16 KiB commit then arrives without growing the buffer.
        assert!(arrive(&mut session, 4, 16 << 10) > 64 << 10);
        assert_eq!(session.decoder.capacity(), KEEP_CAPACITY);
        assert_eq!(jobs.len(), 2, "both commits decoded");
    }

    #[test]
    fn a_session_counts_what_it_holds_until_it_closes() {
        // Its entry at once, then its decoder's and outbox's capacity as
        // they grow; closing takes it all back, and the frames it wrote
        // wait in the pool for the next connection.
        let shared = server();
        let held = || shared.event_stats.snapshot(&shared.pool).conn_bytes;
        let mut session = Session::open(&shared, 100);
        assert_eq!(held(), 100);
        let mut jobs = VecDeque::new();
        session.receive(&shared, &burst(false));
        session.decode(&shared, false, &mut |id, work| jobs.push_back((id, work)));
        let decoder = session.decoder.capacity() as u64;
        assert!(decoder > 0);
        assert_eq!(held(), 100 + decoder);
        while let Some((id, work)) = jobs.pop_front() {
            let response = shared.run_job(None, work, Duration::ZERO);
            session.answer(&shared, id, &response).unwrap();
        }
        assert!(held() > 100 + decoder + session.out.bytes as u64);
        let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
        let unsent: usize = session.unsent(&mut slices).iter().map(|s| s.len()).sum();
        session.wrote(&shared, unsent);
        assert_eq!(
            held(),
            session.held as u64 + shared.pool.pooled_bytes() as u64
        );
        session.close(&shared);
        assert_eq!(held(), shared.pool.pooled_bytes() as u64);
        assert!(held() > 0, "the written frames are pooled");
    }

    #[test]
    fn an_eof_mid_frame_resets() {
        let (shared, wire) = (server(), burst(false));
        let truncated = &wire[..wire.len() - 1];
        assert_eq!(deliver(&shared, truncated, &[], true).1, Verdict::Reset);
    }

    proptest! {
        #[test]
        fn a_burst_split_anywhere_answers_as_one_delivery(
            cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
            garbage in any::<bool>(),
            eof in any::<bool>(),
        ) {
            let (shared, wire) = (server(), burst(garbage));
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c.index(wire.len() + 1)).collect();
            cuts.sort_unstable();
            let whole = deliver(&shared, &wire, &[], eof);
            prop_assert_eq!(&deliver(&shared, &wire, &cuts, eof), &whole);
            // In arrival order: the ping, the get, the garbage's error.
            let (mut written, mut ids) = (whole.0.as_slice(), Vec::new());
            while let [a, b, c, d, rest @ ..] = written {
                let len = u32::from_le_bytes([*a, *b, *c, *d]) as usize;
                ids.push(decode_response(&rest[..len]).unwrap().0);
                written = &rest[len..];
            }
            let expected: &[u64] = if garbage { &[1, 2, 0] } else { &[1, 2] };
            prop_assert_eq!(ids, expected);
            let closed = if garbage || eof { Verdict::Finished } else { Verdict::Open };
            prop_assert_eq!(whole.1, closed);
        }
    }
}
