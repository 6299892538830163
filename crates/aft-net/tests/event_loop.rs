//! Integration tests of the readiness-driven server core over real
//! loopback sockets: a resident fleet must not grow the thread count,
//! hostile connections (slow-loris dribbles, half-open sockets, mid-frame
//! disconnects) must be contained to themselves, and shutdown must be
//! clean with sockets still open.

use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use aft_cluster::{Cluster, ClusterConfig};
use aft_net::frame::{read_frame, write_frame};
use aft_net::AftServer;
use aft_storage::InMemoryStore;
use aft_types::clock::TickingClock;
use aft_types::wire::{decode_response, encode_request, WireRequest, WireResponse};

/// Serializes the tests in this binary: they assert on process-wide thread
/// counts, so they must not create servers under each other.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn served(workers: usize, slab_capacity: usize) -> (AftServer, Arc<Cluster>) {
    let cluster = Cluster::with_clock(
        ClusterConfig::test(1),
        InMemoryStore::shared(),
        TickingClock::shared(1, 1),
    )
    .unwrap();
    let server = AftServer::builder()
        .workers(workers)
        .slab_capacity(slab_capacity)
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .unwrap();
    (server, cluster)
}

fn connect(server: &AftServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
}

fn ping(stream: &mut TcpStream) {
    write_frame(stream, &encode_request(7, &WireRequest::Ping)).unwrap();
    let frame = read_frame(stream).unwrap().expect("server answered");
    let (id, response) = decode_response(&frame).unwrap();
    assert_eq!(id, 7);
    assert!(matches!(response, WireResponse::Pong));
}

/// Live threads spawned by `aft-net` (every one is named `aft-net-*`; a
/// per-connection reader would be `aft-net-rd`). Counting by name keeps the
/// test harness's own threads, which come and go as other tests in this
/// binary start and finish, out of an exact comparison.
fn server_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("aft-net-"))
        .count()
}

/// Waits until every thread of a fresh `workers`-worker server has started
/// (a thread names itself as it starts) and returns the count: `workers`
/// reactors and nothing else.
fn await_server_threads(workers: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server_threads() != workers {
        assert!(
            Instant::now() < deadline,
            "{} server threads, expected {workers} reactors",
            server_threads()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    workers
}

/// Waits until the reactors' open-connection gauge reaches `expected`.
fn await_conns_open(server: &AftServer, expected: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = server.event_snapshot().expect("event-driven").conns_open;
        if open == expected {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "reactors still own {open} connections, expected {expected}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn resident_fleet_adds_no_threads_and_shuts_down_clean() {
    let _guard = serial();
    let (server, _cluster) = served(2, 512);

    let threads_before = await_server_threads(2);
    let mut socks: Vec<TcpStream> = (0..256).map(|_| connect(&server)).collect();
    for sock in &mut socks {
        ping(sock);
    }

    // Every socket is live and served, yet the thread count is exactly what
    // it was with zero connections: the reactors own all of them.
    assert_eq!(
        server_threads(),
        threads_before,
        "no thread may be spawned per connection"
    );
    let snapshot = server.event_snapshot().unwrap();
    assert_eq!(snapshot.conns_open, 256);
    assert_eq!(snapshot.frames_read, 256);

    // An active subset keeps working while the rest of the fleet idles.
    for sock in socks.iter_mut().take(8) {
        for _ in 0..20 {
            ping(sock);
        }
    }
    assert_eq!(server_threads(), threads_before);

    // Shutdown with the whole fleet still connected: returns promptly and
    // every socket observes the close.
    server.shutdown();
    for sock in &mut socks {
        let mut byte = [0u8; 1];
        use std::io::Read;
        match sock.read(&mut byte) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("expected EOF or reset, read {n} bytes"),
        }
    }
}

#[test]
fn slow_loris_partial_frames_do_not_stall_other_connections() {
    let _guard = serial();
    let (server, _cluster) = served(2, 64);

    let mut loris = connect(&server);
    let mut honest = connect(&server);

    // Dribble a valid ping frame one byte at a time; between every byte the
    // honest connection must still get immediate service.
    let mut frame = Vec::new();
    let payload = encode_request(9, &WireRequest::Ping);
    frame.extend_from_slice(&u32::try_from(payload.len()).unwrap().to_le_bytes());
    frame.extend_from_slice(&payload);
    for byte in &frame {
        loris.write_all(std::slice::from_ref(byte)).unwrap();
        loris.flush().unwrap();
        ping(&mut honest);
    }

    // Once the last byte lands, the dribbled request completes too.
    let answer = read_frame(&mut loris).unwrap().expect("loris answered");
    let (id, response) = decode_response(&answer).unwrap();
    assert_eq!(id, 9);
    assert!(matches!(response, WireResponse::Pong));
    server.shutdown();
}

#[test]
fn half_open_sockets_get_their_response_then_a_clean_close() {
    let _guard = serial();
    let (server, _cluster) = served(2, 64);

    let mut half_open = connect(&server);
    let mut bystander = connect(&server);
    ping(&mut bystander);

    // Send a request and immediately close our write side: the server sees
    // EOF at a clean frame boundary with work in flight. It must flush the
    // response before finishing the connection.
    write_frame(&mut half_open, &encode_request(3, &WireRequest::Ping)).unwrap();
    half_open.shutdown(Shutdown::Write).unwrap();
    let answer = read_frame(&mut half_open).unwrap().expect("response first");
    let (id, response) = decode_response(&answer).unwrap();
    assert_eq!(id, 3);
    assert!(matches!(response, WireResponse::Pong));
    assert!(
        read_frame(&mut half_open).unwrap().is_none(),
        "then a clean EOF"
    );

    await_conns_open(&server, 1);
    ping(&mut bystander);
    server.shutdown();
}

#[test]
fn mid_frame_disconnect_resets_only_that_connection() {
    let _guard = serial();
    let (server, _cluster) = served(2, 64);

    let mut bystander = connect(&server);
    ping(&mut bystander);

    // A connection dies with half a length prefix on the wire: truncation,
    // not a clean goodbye. Its reactor must tear it down without disturbing
    // anyone else.
    {
        let mut doomed = connect(&server);
        ping(&mut doomed);
        doomed.write_all(&[0x05, 0x00]).unwrap();
        doomed.flush().unwrap();
    }
    await_conns_open(&server, 1);

    ping(&mut bystander);
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 2);
    assert_eq!(stats.connections_active, 1);
    server.shutdown();
}

#[test]
fn connection_churn_counts_opens_and_closes_exactly_once() {
    let _guard = serial();
    let (server, _cluster) = served(2, 64);

    for _ in 0..20 {
        let mut sock = connect(&server);
        ping(&mut sock);
    }
    await_conns_open(&server, 0);
    let stats = server.stats();
    assert_eq!(stats.connections_accepted, 20);
    assert_eq!(
        stats.connections_active, 0,
        "every closed connection recorded exactly one close"
    );
    server.shutdown();
}
