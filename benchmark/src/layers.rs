//! Direct timed calls into the layers' public functions, single-threaded,
//! on the workload's own message mix and the deployment's end-of-run state.

use std::hint::black_box;
use std::time::Instant;

use aft_core::read::{is_atomic_readset, select_version, ReadSet};
use aft_net::frame::{frame_into, FrameDecoder};
use aft_storage::StorageRequest;
use aft_types::codec::{decode_commit_record, encode_commit_record, encode_tagged_value};
use aft_types::wire::{decode_request, decode_response, encode_request, encode_response};
use aft_types::{
    payload_of_size, Key, KeyVersion, TaggedValue, TransactionId, TransactionRecord, Uuid,
    WireRequest, WireResponse,
};
use aft_workload::{TransactionPlan, WorkloadGenerator};

use crate::host;
use crate::metrics::percentile_ns;
use crate::spec::{Deployment, Spec};

/// Bytes the server reads per `read` call (`ServerConfig`'s default
/// `read_chunk`); the frame decoder is fed in pieces of this size.
const READ_CHUNK: usize = 16 * 1024;

/// The transactions whose messages are replayed.
pub fn sample_plans(spec: &Spec, seed: u64, num_keys: usize) -> Vec<TransactionPlan> {
    let transactions = if spec.large { 200 } else { 2_000 };
    let mut generator = WorkloadGenerator::new(spec.workload(num_keys), seed + 1);
    (0..transactions).map(|_| generator.next_plan()).collect()
}

/// The request/response pairs aft-net carries for `plan`: reads the client
/// SDK answers from its own write buffer cross no wire, and `Put`s ride in
/// `Commit`.
fn messages(
    spec: &Spec,
    sequence: u64,
    plan: &TransactionPlan,
) -> Vec<(WireRequest, WireResponse)> {
    let txid = TransactionId::new(
        1_700_000_000_000 + sequence,
        Uuid::from_u128(u128::from(sequence) + 1),
    );
    let version = TransactionId::new(1_700_000_000_000, Uuid::from_u128(7));
    let committed = WireResponse::Committed {
        txid,
        atomic: true,
        duplicate: false,
    };
    let mut out = Vec::new();
    if spec.large {
        let function = &plan.functions[0];
        let write_set = crate::large::dedup(&function.writes);
        let value = encode_tagged_value(&TaggedValue::new(
            txid,
            write_set.clone(),
            payload_of_size(spec.value_size),
        ));
        out.push((
            WireRequest::GetAll {
                txid,
                keys: function.reads.clone(),
            },
            WireResponse::Values(function.reads.iter().map(|_| Some(value.clone())).collect()),
        ));
        out.push((
            WireRequest::Commit {
                txid,
                writes: write_set.into_iter().map(|k| (k, value.clone())).collect(),
                reads: Vec::new(),
            },
            committed,
        ));
        return out;
    }
    let value = payload_of_size(spec.value_size);
    let mut writes: Vec<(Key, _)> = Vec::new();
    let mut reads = Vec::new();
    for function in &plan.functions {
        for key in &function.reads {
            if writes.iter().any(|(k, _)| k == key) {
                continue;
            }
            reads.push((key.clone(), version));
            out.push((
                WireRequest::Get {
                    txid,
                    key: key.clone(),
                },
                WireResponse::Value(Some((value.clone(), version))),
            ));
        }
        for key in &function.writes {
            if !writes.iter().any(|(k, _)| k == key) {
                writes.push((key.clone(), value.clone()));
            }
        }
    }
    out.push((
        WireRequest::Commit {
            txid,
            writes,
            reads,
        },
        committed,
    ));
    out
}

/// Per-message costs of the wire codec and the framing, and the exact bytes
/// a transaction puts on the wire.
#[derive(Default)]
pub struct WireReplay {
    pub encode_request_ns: f64,
    pub decode_request_ns: f64,
    pub encode_response_ns: f64,
    pub decode_response_ns: f64,
    pub allocs_per_msg: f64,
    pub bytes_per_txn: f64,
    pub frame_encode_ns: f64,
    pub frame_decode_ns: f64,
    pub messages_per_txn: f64,
}

impl WireReplay {
    /// Codec nanoseconds one transaction's messages cost, both directions.
    pub fn types_ns_per_txn(&self) -> f64 {
        (self.encode_request_ns
            + self.decode_request_ns
            + self.encode_response_ns
            + self.decode_response_ns)
            * self.messages_per_txn
    }

    /// Framing nanoseconds one transaction's messages cost (each message is
    /// framed once and deframed once per direction).
    pub fn frame_ns_per_txn(&self) -> f64 {
        (self.frame_encode_ns + self.frame_decode_ns) * 2.0 * self.messages_per_txn
    }
}

fn per_item(started: Instant, items: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / items.max(1) as f64
}

pub fn replay_wire(spec: &Spec, plans: &[TransactionPlan]) -> WireReplay {
    let pairs: Vec<(WireRequest, WireResponse)> = plans
        .iter()
        .enumerate()
        .flat_map(|(i, plan)| messages(spec, i as u64, plan))
        .collect();
    let n = pairs.len();
    let mut requests = Vec::with_capacity(n);
    let mut responses = Vec::with_capacity(n);

    host::count_allocations(true);
    let allocations_before = host::thread_allocations();
    let started = Instant::now();
    for (i, (request, _)) in pairs.iter().enumerate() {
        requests.push(encode_request(i as u64, black_box(request)));
    }
    let encode_request_ns = per_item(started, n);
    let started = Instant::now();
    for bytes in &requests {
        black_box(decode_request(black_box(bytes)).expect("own encoding decodes"));
    }
    let decode_request_ns = per_item(started, n);
    let started = Instant::now();
    for (i, (_, response)) in pairs.iter().enumerate() {
        responses.push(encode_response(i as u64, black_box(response)));
    }
    let encode_response_ns = per_item(started, n);
    let started = Instant::now();
    for bytes in &responses {
        black_box(decode_response(black_box(bytes)).expect("own encoding decodes"));
    }
    let decode_response_ns = per_item(started, n);
    let allocations = host::thread_allocations() - allocations_before;
    host::count_allocations(false);

    let payloads: Vec<&[u8]> = requests
        .iter()
        .chain(&responses)
        .map(|b| b.as_ref())
        .collect();
    let wire_bytes: usize = payloads.iter().map(|p| p.len() + 4).sum();
    let mut frame = Vec::new();
    let mut stream = Vec::with_capacity(wire_bytes);
    let started = Instant::now();
    for payload in &payloads {
        frame_into(&mut frame, payload).expect("messages fit a frame");
        black_box(&frame);
    }
    let frame_encode_ns = per_item(started, payloads.len());
    for payload in &payloads {
        frame_into(&mut frame, payload).expect("messages fit a frame");
        stream.extend_from_slice(&frame);
    }
    let mut decoder = FrameDecoder::new();
    let mut frames = 0;
    let started = Instant::now();
    for chunk in stream.chunks(READ_CHUNK) {
        decoder.push(chunk);
        while let Some(payload) = decoder.next_frame().expect("own framing decodes") {
            black_box(payload);
            frames += 1;
        }
    }
    let frame_decode_ns = per_item(started, frames);
    assert_eq!(frames, payloads.len(), "every frame came back out");

    WireReplay {
        encode_request_ns,
        decode_request_ns,
        encode_response_ns,
        decode_response_ns,
        allocs_per_msg: allocations as f64 / n.max(1) as f64,
        bytes_per_txn: wire_bytes as f64 / plans.len().max(1) as f64,
        frame_encode_ns,
        frame_decode_ns,
        messages_per_txn: n as f64 / plans.len().max(1) as f64,
    }
}

/// `(encode ns, decode ns)` per commit record of the workload's write sets.
pub fn record_codec(plans: &[TransactionPlan]) -> (f64, f64) {
    let records: Vec<TransactionRecord> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let id =
                TransactionId::new(1_700_000_000_000 + i as u64, Uuid::from_u128(i as u128 + 1));
            TransactionRecord::new(id, plan.write_set())
        })
        .collect();
    let mut encoded = Vec::with_capacity(records.len());
    let started = Instant::now();
    for record in &records {
        encoded.push(encode_commit_record(black_box(record)));
    }
    let encode_ns = per_item(started, records.len());
    let started = Instant::now();
    for bytes in &encoded {
        black_box(decode_commit_record(black_box(bytes)).expect("own encoding decodes"));
    }
    (encode_ns, per_item(started, encoded.len()))
}

/// Timings taken against the live deployment after its measured phase.
#[derive(Default)]
pub struct Probes {
    pub route_ns: f64,
    pub select_version_ns: f64,
    pub is_atomic_readset_ns: f64,
    pub io_execute_p50_us: f64,
    pub ping_p50_us: f64,
}

pub fn probe(spec: &Spec, dep: &Deployment, plans: &[TransactionPlan]) -> Probes {
    let mut out = Probes::default();
    let routes = 100_000;
    let started = Instant::now();
    for _ in 0..routes {
        black_box(dep.cluster.route().expect("a node is active"));
    }
    out.route_ns = per_item(started, routes);

    let node = dep.cluster.route().expect("a node is active");
    let metadata = node.metadata();
    let keys: Vec<&Key> = plans
        .iter()
        .flat_map(|p| p.functions.iter().flat_map(|f| f.reads.iter()))
        .collect();
    let empty = ReadSet::new();
    let started = Instant::now();
    for key in &keys {
        black_box(select_version(black_box(key), &empty, metadata));
    }
    out.select_version_ns = per_item(started, keys.len());

    let read_sets: Vec<Vec<(Key, TransactionId)>> = plans
        .iter()
        .map(|plan| {
            plan.functions
                .iter()
                .flat_map(|f| f.reads.iter())
                .filter_map(|key| Some((key.clone(), metadata.latest_version_of(key)?)))
                .collect()
        })
        .collect();
    let started = Instant::now();
    for reads in &read_sets {
        black_box(is_atomic_readset(black_box(reads), metadata));
    }
    out.is_atomic_readset_ns = per_item(started, read_sets.len());

    // A warm single-key read handed through the I/O engine: the hand-off
    // cost on memory, the simulated round trip on Redis.
    let executions = if spec.redis { 300 } else { 2_000 };
    let storage_keys: Vec<String> = keys
        .iter()
        .filter_map(|key| {
            let tid = metadata.latest_version_of(key)?;
            Some(KeyVersion::new((*key).clone(), tid).storage_key())
        })
        .take(executions)
        .collect();
    let mut samples: Vec<u32> = storage_keys
        .into_iter()
        .map(|key| {
            let started = Instant::now();
            black_box(node.io().execute(StorageRequest::Get(key)));
            started.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32
        })
        .collect();
    out.io_execute_p50_us = percentile_ns(&mut samples, 0.5) / 1e3;

    if let Some(client) = &dep.client {
        let mut samples: Vec<u32> = (0..2_000)
            .filter_map(|_| client.ping().ok())
            .map(|rtt| rtt.as_nanos().min(u128::from(u32::MAX)) as u32)
            .collect();
        out.ping_p50_us = percentile_ns(&mut samples, 0.5) / 1e3;
    }
    out
}
