//! Helpers shared by the socket suites: a storage latch that parks a commit
//! inside storage on the thread running it, and raw-frame connections whose
//! requests the test orders exactly.

use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use aft_cluster::{Cluster, ClusterConfig};
use aft_net::frame::{read_frame, request_frame};
use aft_net::{AftServer, ServerBuilder};
use aft_storage::{Cut, CutHook, CutStore, InMemoryStore};
use aft_types::clock::TickingClock;
use aft_types::wire::{decode_response, WireRequest, WireResponse};
use aft_types::{Key, TransactionId, Uuid, Value};

/// Once armed, parks every storage write on the thread making it until the
/// latch opens. No clock: the test waits for a write to park, then acts.
#[derive(Default)]
pub(crate) struct Latch {
    /// Armed, and the names of the threads parked so far.
    state: Mutex<(bool, Vec<String>)>,
    changed: Condvar,
}

impl CutHook for Latch {
    fn cut(&self, _: &str, units: usize) -> Cut {
        let mut state = self.state.lock().unwrap();
        if state.0 && units > 0 {
            let name = std::thread::current().name().unwrap_or("").to_owned();
            state.1.push(name);
            self.changed.notify_all();
            while state.0 {
                state = self.changed.wait(state).unwrap();
            }
        }
        Cut::Pass
    }
}

impl Latch {
    pub(crate) fn arm(&self) {
        self.state.lock().unwrap().0 = true;
    }

    /// Waits for a write to park and returns the name of its thread.
    pub(crate) fn await_parked(&self) -> String {
        let state = self.state.lock().unwrap();
        let (state, _) = self
            .changed
            .wait_timeout_while(state, Duration::from_secs(10), |state| state.1.is_empty())
            .unwrap();
        state.1.first().cloned().expect("no write ever parked")
    }

    pub(crate) fn open(&self) {
        self.state.lock().unwrap().0 = false;
        self.changed.notify_all();
    }
}

/// Serves a one-node cluster whose storage writes pass through a latch.
pub(crate) fn serve_latched(builder: ServerBuilder) -> (AftServer, Arc<Latch>) {
    let latch = Arc::new(Latch::default());
    let storage = CutStore::new(
        InMemoryStore::shared(),
        Arc::clone(&latch) as Arc<dyn CutHook>,
    );
    let cluster =
        Cluster::with_clock(ClusterConfig::test(1), storage, TickingClock::shared(1, 1)).unwrap();
    (builder.serve(cluster, "127.0.0.1:0").unwrap(), latch)
}

/// A raw connection that has been accepted and answered once, so the
/// server numbered it before any connection opened after it.
pub(crate) fn accepted(server: &AftServer) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    assert_eq!(
        round_trip(&mut stream, 0, &WireRequest::Ping),
        WireResponse::Pong
    );
    stream
}

/// Writes `requests`, numbered from 1, in one write.
pub(crate) fn pipeline(stream: &mut TcpStream, requests: &[WireRequest]) {
    use std::io::Write;
    let mut wire = Vec::new();
    let mut frame = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        request_frame(&mut frame, i as u64 + 1, request).unwrap();
        wire.extend_from_slice(&frame);
    }
    stream.write_all(&wire).unwrap();
}

/// Reads one response and its request id.
pub(crate) fn receive(stream: &mut TcpStream) -> (u64, WireResponse) {
    let payload = read_frame(stream).unwrap().expect("a response");
    decode_response(&payload).unwrap()
}

pub(crate) fn round_trip(
    stream: &mut TcpStream,
    request_id: u64,
    request: &WireRequest,
) -> WireResponse {
    use std::io::Write;
    let mut frame = Vec::new();
    request_frame(&mut frame, request_id, request).unwrap();
    stream.write_all(&frame).unwrap();
    let (id, response) = receive(stream);
    assert_eq!(id, request_id);
    response
}

/// A fresh transaction's one-key commit.
pub(crate) fn commit(n: u128) -> WireRequest {
    WireRequest::Commit {
        txid: TransactionId::new(1, Uuid::from_u128(n)),
        writes: vec![(Key::new(format!("latched/{n}")), Value::from_static(b"v"))],
        reads: vec![],
    }
}
