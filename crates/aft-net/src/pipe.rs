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
//!
//! A request runs holding one of its server's `workers` permits
//! ([`Permits`](aft_storage::latency::Permits)) and counts toward the
//! server's queue depth while it waits for one, so admission control sees
//! the queue, and the permit's wait is the queue age that shedding reads.
//! A seated caller waits in virtual time. It holds no lock while its job
//! runs or waits (the `Turns` rule): callers that share a pipe may run
//! their jobs at once, and answers come back in the order the jobs end,
//! each under its request id.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Write};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::server::{ServerShared, Work};
use crate::session::{Session, Verdict, WRITE_BATCH};

/// One connection over a pipe.
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
    /// each as it ends.
    pub(crate) fn send(&self, bytes: &[u8]) -> io::Result<()> {
        let shared = &*self.shared;
        let mut jobs = VecDeque::new();
        let mut verdict = {
            let mut slot = self.session.lock();
            let Some(session) = slot.as_mut() else {
                return Err(io::ErrorKind::BrokenPipe.into());
            };
            session.receive(shared, bytes);
            session.decode(shared, false, &mut |id, work| jobs.push_back((id, work)))
        };
        while verdict == Verdict::Open {
            let Some((request_id, work)) = jobs.pop_front() else {
                // A paused session queues what it holds once there is room.
                let mut slot = self.session.lock();
                if let Some(session) = slot.as_mut() {
                    session.resume(shared, &mut |id, work| jobs.push_back((id, work)));
                }
                if jobs.is_empty() {
                    break;
                }
                continue;
            };
            let response = match work {
                Work::Run(_) => {
                    let (_worker, waited) = shared.workers.acquire();
                    shared.run_job(None, work, waited)
                }
                Work::Answer(_) => shared.run_job(None, work, Duration::ZERO),
            };
            let mut slot = self.session.lock();
            let answered = slot
                .as_mut()
                .and_then(|session| session.answer(shared, request_id, &response));
            if answered.is_none() {
                verdict = Verdict::Reset;
            }
        }
        // A torn-down connection's requests are dropped unrun.
        for (_, work) in jobs {
            if matches!(work, Work::Run(_)) {
                shared.dequeued(None);
            }
        }
        if verdict != Verdict::Open {
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
    use aft_core::{CommitPhase, NetFault, NodeConfig, PhaseHook};
    use aft_storage::io::RetryConfig;
    use aft_storage::latency::{LatencyProfile, Turns};
    use aft_storage::InMemoryStore;
    use aft_types::clock::TickingClock;
    use aft_types::wire::WireStats;
    use aft_types::{AftResult, Key, TransactionRecord, Value};

    use super::*;
    use crate::{AftClient, AftServer, PipeServer, ServerBuilder};

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
        let cluster = Cluster::with_clock(ClusterConfig::test(3), storage, clock).unwrap();
        let server = AftServer::builder().pipe(Arc::clone(&cluster));
        let client = AftClient::builder()
            .phase_hook(Arc::new(LoseFirstCommitAck::default()))
            .pipe(&server);
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
        let server_stats = client.server_stats().unwrap();
        assert_eq!(
            (server_stats.commits, server_stats.duplicate_commits),
            (1, 1),
            "one apply, one ack from the ledger"
        );
        // The value is durable and visible on every node after one round.
        cluster.run_maintenance_round().unwrap();
        let once = Some((Value::from_static(b"once"), Some(outcome.final_id)));
        for node in cluster.active_nodes() {
            let reader = node.start_transaction();
            assert_eq!(node.get_versioned(&reader, &Key::new("pay")).unwrap(), once);
        }
    }

    /// A one-node cluster over memory whose every node call charges
    /// exactly `rpc`, served over pipes by `server`.
    fn piped(rpc: Duration, server: ServerBuilder) -> PipeServer {
        let us = rpc.as_secs_f64() * 1e6;
        let node_template = NodeConfig {
            rpc_profile: LatencyProfile::new(us, us),
            ..NodeConfig::test()
        };
        let config = ClusterConfig {
            node_template,
            ..ClusterConfig::test(1)
        };
        let (storage, clock) = (InMemoryStore::shared(), TickingClock::shared(1, 1));
        server.pipe(Cluster::with_clock(config, storage, clock).unwrap())
    }

    /// Runs `body` on `clients` threads seated at one table, each inside
    /// its seat's scope.
    fn seated(clients: usize, body: impl Fn(usize) + Sync) {
        let turns = Turns::new(clients);
        std::thread::scope(|scope| {
            for i in 0..clients {
                let (turns, body) = (&turns, &body);
                scope.spawn(move || turns.seat(i).scope(|| body(i)));
            }
        });
    }

    /// Each of `clients` seated clients, on a connection of its own, sends
    /// one `Get` at t = 0 and takes no retry; the server's counters after.
    fn one_get_each(server: &PipeServer, clients: usize) -> WireStats {
        let retry = RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        };
        seated(clients, |i| {
            let client = AftClient::builder().retry(retry).rng_seed(i as u64);
            let client = client.pipe(server);
            let txid = client.begin().unwrap();
            let _ = client.get_versioned(&txid, &Key::new("k"));
        });
        AftClient::builder().pipe(server).server_stats().unwrap()
    }

    #[test]
    fn queue_age_shedding_sheds_an_exact_count() {
        // One worker, a 10 ms Get, a 25 ms deadline, eight Gets at t = 0:
        // the k-th to get the worker waited 10k ms, so those at 0, 10 and
        // 20 ms run and the five that waited 30 ms are shed at once.
        let ms = Duration::from_millis;
        let server = piped(
            ms(10),
            AftServer::builder().workers(1).queue_deadline(ms(25)),
        );
        let stats = one_get_each(&server, 8);
        assert_eq!((stats.shed_requests, stats.overload_rejections), (5, 0));
        // The three Gets that ran, then the `Stats` call itself.
        assert_eq!(stats.requests, 3 + 1);
    }

    #[test]
    fn admission_control_rejects_an_exact_count() {
        // One worker, an admission limit of 3, eight Gets at t = 0: the
        // first takes the worker, the next three queue, and the last four
        // find three queued and are rejected.
        let server = piped(
            Duration::from_millis(10),
            AftServer::builder().workers(1).admission_limit(3),
        );
        let stats = one_get_each(&server, 8);
        assert_eq!((stats.overload_rejections, stats.shed_requests), (4, 0));
        assert_eq!(stats.requests, 4 + 1);
    }

    #[test]
    fn large_transactions_reuse_the_pools_buffers_once_warm() {
        // svc-large's shape: an 8 x 16 KiB `GetAll` and a 4 x 16 KiB
        // commit a transaction. Its ~130 KiB replies fit the keep bound,
        // so after the first response every frame buffer is a reused one.
        let server = piped(Duration::ZERO, AftServer::builder());
        let client = AftClient::builder().pool_size(1).pipe(&server);
        let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
        let value = Value::from(vec![7u8; 16 << 10]);
        let txid = client.begin().unwrap();
        for key in &keys {
            client.put(&txid, key.clone(), value.clone()).unwrap();
        }
        client.commit(&txid, &[]).unwrap();
        let warm = server.0.pool.counters();
        for i in 0..50 {
            let txid = client.begin().unwrap();
            let read = client.get_all(&txid, &keys).unwrap();
            assert!(read.iter().all(|v| v.as_ref() == Some(&value)));
            for key in keys.iter().cycle().skip(i).take(4) {
                client.put(&txid, key.clone(), value.clone()).unwrap();
            }
            client.commit(&txid, &[]).unwrap();
        }
        let (allocations, reuses) = server.0.pool.counters();
        assert_eq!(allocations, warm.0, "no allocation once warm");
        assert_eq!(reuses - warm.1, 100, "every reply reused a buffer");
    }

    #[test]
    fn seated_callers_sharing_one_connection_and_one_worker_finish() {
        // Four seated callers share one pooled connection and one worker;
        // each Get and commit charges 1 ms while its caller holds no lock.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let server = piped(Duration::from_millis(1), AftServer::builder().workers(1));
            let client = AftClient::builder().pool_size(1).pipe(&server);
            seated(4, |i| {
                for _ in 0..5 {
                    let txid = client.begin().unwrap();
                    let key = Key::new(format!("k{i}"));
                    client.get_versioned(&txid, &key).unwrap();
                    client.put(&txid, key, Value::from_static(b"v")).unwrap();
                    client.commit(&txid, &[]).unwrap();
                }
            });
            let _ = done.send(client.server_stats().unwrap().commits);
        });
        let commits = finished.recv_timeout(Duration::from_secs(60));
        assert_eq!(commits, Ok(20), "seated callers sharing a pipe deadlocked");
    }
}
