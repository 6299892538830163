//! The in-memory driver: a client connection whose session runs on its
//! caller's thread.
//!
//! A [`Pipe`] hands the bytes its client sends to a [`Session`], takes the
//! job step ([`ServerShared::run_job`]) on each request they complete, and
//! hands the session the answer, all before `send` returns; the client
//! then reads the framed answers out of the session's outbox. No poller
//! waits and no thread starts, so a run over pipes is a function of its
//! callers' order alone: a request whose connection resets after it was
//! sent has already run when its caller retries it.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::server::ServerShared;
use crate::session::{Session, Verdict, WRITE_BATCH};

/// One connection over a pipe. The caller that sends holds the session
/// while its requests run.
pub(crate) struct Pipe {
    shared: Arc<ServerShared>,
    /// `None` once torn down.
    session: Mutex<Option<Session>>,
}

impl Pipe {
    /// Opens a connection to `shared`'s server.
    pub(crate) fn open(shared: &Arc<ServerShared>) -> Pipe {
        Pipe {
            session: Mutex::new(Some(Session::open(shared))),
            shared: Arc::clone(shared),
        }
    }

    /// Delivers `bytes` and runs every request they complete, answering
    /// each in order.
    pub(crate) fn send(&self, bytes: &[u8]) -> io::Result<()> {
        let shared = &*self.shared;
        let mut slot = self.session.lock();
        let Some(session) = slot.as_mut() else {
            return Err(io::ErrorKind::BrokenPipe.into());
        };
        session.receive(shared, bytes);
        let mut jobs = VecDeque::new();
        let mut verdict = session.decode(shared, false, &mut |id, work| jobs.push_back((id, work)));
        while verdict == Verdict::Open {
            let Some((request_id, work)) = jobs.pop_front() else {
                // A paused session queues what it holds once there is room.
                session.resume(shared, &mut |id, work| jobs.push_back((id, work)));
                if jobs.is_empty() {
                    break;
                }
                continue;
            };
            let response = shared.run_job(None, request_id, work, Instant::now());
            if response
                .and_then(|r| session.answer(shared, request_id, &r))
                .is_none()
            {
                verdict = Verdict::Reset;
            }
        }
        if verdict != Verdict::Open {
            drop(slot);
            self.close();
        }
        Ok(())
    }

    /// Copies written answers into `buf`; `Ok(0)` once the connection is
    /// closed or owes nothing.
    pub(crate) fn recv(&self, buf: &mut [u8]) -> io::Result<usize> {
        let mut slot = self.session.lock();
        let Some(session) = slot.as_mut() else {
            return Ok(0);
        };
        let mut slices = [IoSlice::new(&[]); WRITE_BATCH];
        let copied = (&mut buf[..]).write_vectored(session.unsent(&mut slices))?;
        session.wrote(&self.shared, copied);
        Ok(copied)
    }

    /// Tears the connection down, dropping whatever it still owes.
    pub(crate) fn close(&self) {
        if let Some(session) = self.session.lock().take() {
            session.close(&self.shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, Ordering};

    use aft_cluster::{Cluster, ClusterConfig};
    use aft_core::api::AftApi;
    use aft_core::{CommitPhase, NetFault, PhaseHook};
    use aft_storage::InMemoryStore;
    use aft_types::clock::TickingClock;
    use aft_types::{AftResult, Key, TransactionRecord, Value};

    use super::*;
    use crate::AftClient;

    /// Resets the first `Commit`'s connection after its send.
    #[derive(Debug, Default)]
    struct LoseFirstCommitAck(AtomicBool);

    impl PhaseHook for LoseFirstCommitAck {
        fn at(&self, _: &str, _: CommitPhase) -> AftResult<()> {
            Ok(())
        }

        fn deliver(&self, verb: &str) -> NetFault {
            let first = verb == "commit" && !self.0.swap(true, Ordering::Relaxed);
            if first {
                NetFault::ResetAfterSend
            } else {
                NetFault::None
            }
        }
    }

    #[test]
    fn a_commit_reset_after_its_send_ran_and_its_retry_is_a_duplicate() {
        let (storage, clock) = (InMemoryStore::shared(), TickingClock::shared(1, 1));
        let cluster = Cluster::with_clock(ClusterConfig::test(1), storage, clock).unwrap();
        let client = AftClient::builder()
            .phase_hook(Arc::new(LoseFirstCommitAck::default()))
            .pipe(Arc::clone(&cluster));
        let txid = client.begin().unwrap();
        client
            .put(&txid, Key::new("pay"), Value::from_static(b"once"))
            .unwrap();
        let outcome = client.commit(&txid, &[]).unwrap();
        assert!(outcome.duplicate, "the retry is acked from the ledger");
        assert_eq!(outcome.final_id.uuid, txid.uuid);
        let listed = |prefix: &str| cluster.storage().list_prefix(prefix).unwrap().len();
        assert_eq!(
            listed(&TransactionRecord::storage_prefix()),
            1,
            "one record"
        );
        assert_eq!(listed("data/pay/"), 1, "one data version");
        let stats = client.stats();
        assert_eq!((stats.transport_retries, stats.connects), (1, 2));
    }
}
