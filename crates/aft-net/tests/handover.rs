//! The request path's threads, over real loopback sockets: the reactor
//! that reads a connection runs and answers its requests, and a waiting
//! caller reads its own reply, handing other callers theirs. Each test
//! pins a count, an order or a race the request path could get wrong.

use std::io::Write;
use std::net::{Shutdown, TcpListener};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::NodeConfig;
use aft_net::frame::{read_frame, request_frame};
use aft_net::{AftClient, AftServer, EventSnapshot, ServerBuilder};
use aft_storage::io::RetryConfig;
use aft_storage::{Cut, CutHook, CutStore, InMemoryStore};
use aft_types::clock::TickingClock;
use aft_types::wire::{decode_response, WireRequest, WireResponse};
use aft_types::{AftError, Key, TransactionId, Uuid, Value};

mod common;
use common::{accepted, commit, pipeline, receive, round_trip, serve_latched};

fn serve(builder: ServerBuilder) -> AftServer {
    let cluster = Cluster::with_clock(
        ClusterConfig::test(1),
        InMemoryStore::shared(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    builder.serve(cluster, "127.0.0.1:0").unwrap()
}

/// A client whose every call rides one connection.
fn one_connection(server: &AftServer) -> Arc<AftClient> {
    AftClient::builder()
        .pool_size(1)
        .request_timeout(Duration::from_secs(20))
        .connect(server.local_addr())
        .unwrap()
}

/// Commits `pairs` in one transaction.
fn preload(client: &AftClient, pairs: impl IntoIterator<Item = (Key, Value)>) {
    let txid = client.begin().unwrap();
    for (key, value) in pairs {
        client.put(&txid, key, value).unwrap();
    }
    client.commit(&txid, &[]).unwrap();
}

/// The server's I/O counters once `frames` responses are counted: a writer
/// counts a frame just after it left, so a client can hold the last reply a
/// moment before its count lands.
fn counted(server: &AftServer, frames: u64) -> EventSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let event = server.event_snapshot().unwrap();
        if event.frames_written >= frames || Instant::now() >= deadline {
            return event;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn sequential_pings_wake_neither_the_loop_nor_another_caller() {
    let server = serve(AftServer::builder().workers(2));
    let client = one_connection(&server);
    for _ in 0..1_000 {
        client.ping().unwrap();
    }
    let event = counted(&server, 1_000);
    assert_eq!(event.frames_read, 1_000);
    assert_eq!(event.frames_written, 1_000);
    assert_eq!(event.writev_calls, 1_000, "one syscall per response");
    assert_eq!(client.stats().handoffs, 0, "a lone caller reads its own");
    server.shutdown();
}

/// Records the name of the thread making each storage read (a call of no
/// units; `common::Latch` takes the writes).
#[derive(Default)]
struct ReadThreads(Mutex<Vec<String>>);

impl CutHook for ReadThreads {
    fn cut(&self, _: &str, units: usize) -> Cut {
        if units == 0 {
            let name = std::thread::current().name().unwrap_or("").to_owned();
            self.0.lock().unwrap().push(name);
        }
        Cut::Pass
    }
}

#[test]
fn which_threads_run_the_gets_of_one_connection() {
    // No data cache, so every Get reads storage on the thread running it.
    let names = Arc::new(ReadThreads::default());
    let storage = CutStore::new(
        InMemoryStore::shared(),
        Arc::clone(&names) as Arc<dyn CutHook>,
    );
    let config = ClusterConfig {
        node_template: NodeConfig::test_without_cache(),
        ..ClusterConfig::test(1)
    };
    let cluster = Cluster::with_clock(config, storage, TickingClock::shared(1, 1)).unwrap();
    let server = AftServer::builder()
        .workers(2)
        .serve(cluster, "127.0.0.1:0")
        .unwrap();
    let client = one_connection(&server);
    let key = Key::new("one");
    preload(&client, [(key.clone(), Value::from_static(b"v"))]);
    names.0.lock().unwrap().clear();

    let txid = client.begin().unwrap();
    for _ in 0..1_000 {
        client.get_versioned(&txid, &key).unwrap().unwrap();
    }
    let names = names.0.lock().unwrap().clone();
    assert_eq!(names.len(), 1_000);
    assert!(names[0].starts_with("aft-net-r"), "{}", names[0]);
    assert!(
        names.iter().all(|name| *name == names[0]),
        "the reactor that reads a connection runs every one of its Gets"
    );
    server.shutdown();
}

#[test]
fn a_commit_parked_in_storage_holds_up_only_its_own_reactor() {
    let (server, latch) = serve_latched(AftServer::builder().workers(2));
    // Connections 0 and 1, so reactors 0 and 1.
    let mut parked = accepted(&server);
    let mut other = accepted(&server);
    latch.arm();
    pipeline(&mut parked, &[commit(1)]);
    assert_eq!(
        latch.await_parked(),
        "aft-net-r0",
        "the commit runs on its reader"
    );
    for id in 1..=10 {
        assert_eq!(
            round_trip(&mut other, id, &WireRequest::Ping),
            WireResponse::Pong,
            "reactor 1 answers while reactor 0 waits on storage"
        );
    }
    latch.open();
    let (id, response) = receive(&mut parked);
    assert_eq!(id, 1);
    assert!(
        matches!(
            response,
            WireResponse::Committed {
                duplicate: false,
                ..
            }
        ),
        "{response:?}"
    );
    server.shutdown();
}

#[test]
fn pipelined_requests_on_one_connection_come_back_in_arrival_order() {
    const REQUESTS: u64 = 200;
    let server = serve(AftServer::builder().workers(4));
    let key = |i: u64| Key::new(format!("order/{}", i % 16));
    preload(
        &one_connection(&server),
        (0..16).map(|i| (key(i), Value::from(format!("v{i}")))),
    );
    let txid = |i: u64| TransactionId::new(1, Uuid::from_u128(u128::from(i)));
    let requests: Vec<WireRequest> = (0..REQUESTS)
        .map(|i| match i % 4 {
            0 => WireRequest::Ping,
            1 => WireRequest::Get {
                txid: txid(i),
                key: key(i),
            },
            2 => WireRequest::GetAll {
                txid: txid(i),
                keys: (i..i + 4).map(key).collect(),
            },
            _ => WireRequest::Abort { txid: txid(i - 2) },
        })
        .collect();
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    pipeline(&mut sock, &requests);
    let answered: Vec<u64> = (0..REQUESTS).map(|_| receive(&mut sock).0).collect();
    assert_eq!(answered, (1..=REQUESTS).collect::<Vec<_>>());
    server.shutdown();
}

#[test]
fn concurrent_callers_on_one_connection_each_get_their_own_response() {
    const THREADS: usize = 8;
    const GETS: usize = 200;
    let server = serve(AftServer::builder().workers(2));
    let client = one_connection(&server);
    let key = |t: usize, i: usize| Key::new(format!("t{t}/k{i}"));
    let value = |t: usize, i: usize| Value::from(format!("v-{t}-{i}"));
    preload(
        &client,
        (0..THREADS).flat_map(|t| (0..GETS).map(move |i| (key(t, i), value(t, i)))),
    );

    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (client, start) = (&client, &start);
            scope.spawn(move || {
                let txid = client.begin().unwrap();
                start.wait();
                for i in 0..GETS {
                    let (got, _) = client.get_versioned(&txid, &key(t, i)).unwrap().unwrap();
                    assert_eq!(got, value(t, i), "thread {t} get {i}");
                }
                client.abort(&txid).unwrap();
            });
        }
    });

    let stats = client.stats();
    assert!(stats.handoffs > 0, "callers read for each other");
    // A waiter stranded by a hand-over would time out, reset the
    // connection and retry on a new one.
    assert_eq!(stats.transport_retries, 0);
    assert_eq!(stats.connects, 1);
    server.shutdown();
}

#[test]
fn a_reset_fails_the_reading_and_the_waiting_caller_fast() {
    // A peer that takes requests and never answers them.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let timeout = Duration::from_secs(30);
    let client = AftClient::builder()
        .pool_size(1)
        .request_timeout(timeout)
        .retry(RetryConfig {
            max_attempts: 1,
            ..RetryConfig::default()
        })
        .connect(listener.local_addr().unwrap())
        .unwrap();
    let (mut peer, _) = listener.accept().unwrap();

    let started = Instant::now();
    std::thread::scope(|scope| {
        let callers: Vec<_> = (0..2).map(|_| scope.spawn(|| client.ping())).collect();
        // Both requests are on the wire, so both callers are past sending:
        // one reads the socket, the other waits on it. The pause only makes
        // it likelier that both have parked; any earlier reset must fail
        // them just as fast.
        for _ in 0..2 {
            read_frame(&mut peer).unwrap().expect("a request");
        }
        std::thread::sleep(Duration::from_millis(50));
        peer.shutdown(Shutdown::Both).unwrap();
        for caller in callers {
            let err = caller.join().unwrap().unwrap_err();
            assert!(matches!(err, AftError::Unavailable(_)), "{err:?}");
        }
    });
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "failed after {:?}, not well before the {timeout:?} timeout",
        started.elapsed()
    );
}

#[test]
fn large_replies_a_full_socket_splits_arrive_whole_beside_loop_queued_frames() {
    const KEYS: usize = 8;
    const REQUESTS: u64 = 96;
    // One reactor; an admission limit of 72 makes it answer the requests
    // read beyond the first 72 with `Overloaded`, in their places.
    let server = serve(AftServer::builder().workers(1).admission_limit(72));
    let keys: Vec<Key> = (0..KEYS).map(|i| Key::new(format!("big/{i}"))).collect();
    let value = |i: usize| Value::from(vec![i as u8; 16 * 1024]);
    preload(
        &one_connection(&server),
        keys.iter().cloned().enumerate().map(|(i, k)| (k, value(i))),
    );

    // Pipeline every request and read nothing until 128 KiB replies meet a
    // full socket: a vectored write stops part-way, and the rest waits for
    // write readiness.
    let mut sock = std::net::TcpStream::connect(server.local_addr()).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut wire = Vec::new();
    let mut frame = Vec::new();
    for id in 1..=REQUESTS {
        let request = WireRequest::GetAll {
            txid: TransactionId::new(1, Uuid::from_u128(u128::from(id))),
            keys: keys.clone(),
        };
        request_frame(&mut frame, id, &request).unwrap();
        wire.extend_from_slice(&frame);
    }
    sock.write_all(&wire).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.event_snapshot().unwrap().buffered_bytes == 0 {
        assert!(Instant::now() < deadline, "the socket never filled");
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut answered = Vec::new();
    let mut values = 0;
    for _ in 0..REQUESTS {
        let payload = read_frame(&mut sock)
            .unwrap()
            .expect("every request answered");
        let (id, response) = decode_response(&payload).expect("frames never interleave");
        match response {
            WireResponse::Values(got) => {
                let expected: Vec<_> = (0..KEYS).map(|i| Some(value(i))).collect();
                assert_eq!(got, expected, "reply {id} is intact");
                values += 1;
            }
            WireResponse::Error(AftError::Overloaded(_)) => {}
            other => panic!("unexpected reply to {id}: {other:?}"),
        }
        answered.push(id);
    }
    assert_eq!(
        answered,
        (1..=REQUESTS).collect::<Vec<_>>(),
        "one reply each, in request order"
    );
    assert!(values > 0, "the reactor ran some requests");

    // The preload's commit, then every request.
    let event = counted(&server, 1 + REQUESTS);
    assert_eq!(event.frames_written, 1 + REQUESTS);
    assert_eq!(event.buffered_bytes, 0, "everything flushed");
    server.shutdown();
}
