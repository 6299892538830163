// The commit path's tests (`node/commit_path.rs`), compiled into `node::tests`.

#[test]
fn abort_discards_updates() {
    let node = test_node();
    let t = node.start_transaction();
    node.put(&t, Key::new("k"), val("v")).unwrap();
    node.abort(&t).unwrap();
    let t2 = node.start_transaction();
    assert!(node.get(&t2, &Key::new("k")).unwrap().is_none());
    // The aborted transaction is gone.
    assert!(matches!(
        node.get(&t, &Key::new("k")),
        Err(AftError::UnknownTransaction(_))
    ));
}

#[test]
fn commit_writes_data_and_commit_record_to_storage() {
    let storage = InMemoryStore::shared();
    let shared: SharedStorage = storage.clone();
    let node = AftNode::with_clock(
        NodeConfig::test(),
        shared,
        MockClock::starting_at(5).shared(),
    )
    .unwrap();
    let t = node.start_transaction();
    node.put(&t, Key::new("a"), large("1")).unwrap();
    node.put(&t, Key::new("b"), large("2")).unwrap();
    let id = node.commit(&t).unwrap();

    let commits = node.storage().list_prefix("commit/").unwrap();
    assert_eq!(commits.len(), 1);
    assert!(commits[0].contains(&id.storage_suffix()));
    let data = node.storage().list_prefix("data/").unwrap();
    assert_eq!(data.len(), 2);
    assert!(!node.metadata().record(&id).unwrap().inline);
}

#[test]
fn a_small_commit_is_one_record_whose_buffer_the_cache_shares() {
    let storage = InMemoryStore::shared();
    let node = AftNode::with_clock(
        NodeConfig::test(),
        storage.clone() as SharedStorage,
        MockClock::starting_at(5).shared(),
    )
    .unwrap();
    let t = node.start_transaction();
    node.put(&t, Key::new("a"), val("1")).unwrap();
    node.put(&t, Key::new("b"), val("2")).unwrap();
    let before = storage.stats().snapshot();
    let id = node.commit(&t).unwrap();

    // One write: the record, holding both values, and no `data/` key.
    let calls = storage.stats().snapshot().delta_since(&before);
    assert_eq!(calls.total_calls(), 1);
    assert!(storage.list_prefix("data/").unwrap().is_empty());
    let record_key = TransactionRecord::storage_key_for(&id);
    let blob = storage.get(&record_key).unwrap().unwrap();
    let record = aft_types::codec::decode_keyed_commit_record(&record_key, &blob).unwrap();
    assert_eq!(
        record,
        TransactionRecord::new_inline(id, [Key::new("a"), Key::new("b")])
    );
    assert_eq!(*node.metadata().record(&id).unwrap(), record);

    // The cached values are slices of the buffer storage holds.
    let inside = |value: &Value| {
        let at = value.as_ptr() as usize - blob.as_ptr() as usize;
        at + value.len() <= blob.len()
    };
    for (key, want) in [("a", "1"), ("b", "2")] {
        let cached = node.data_cache().peek(&Key::new(key), &id).unwrap();
        assert_eq!(cached, val(want));
        assert!(inside(&cached), "{key}");
    }
    // Each is charged the whole record it keeps alive, not its own bytes.
    assert_eq!(node.data_cache().bytes(), 2 * blob.len());
}

#[test]
fn write_buffer_spill_keeps_data_invisible_until_commit() {
    let storage = InMemoryStore::shared();
    let shared: SharedStorage = storage.clone();
    let config = NodeConfig {
        write_buffer_spill_bytes: 8, // spill after ~8 buffered bytes
        ..NodeConfig::test()
    };
    let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();

    let t = node.start_transaction();
    node.put(&t, Key::new("big"), val("0123456789abcdef"))
        .unwrap();
    // The intermediary data has been spilled to storage...
    assert_eq!(storage.list_prefix("data/").unwrap().len(), 1);
    // ...but no commit record exists and other transactions cannot see it.
    let reader = node.start_transaction();
    assert!(node.get(&reader, &Key::new("big")).unwrap().is_none());
    // The writer still reads its own write.
    assert_eq!(
        node.get(&t, &Key::new("big")).unwrap().unwrap(),
        val("0123456789abcdef")
    );
    node.commit(&t).unwrap();
    let reader2 = node.start_transaction();
    assert!(node.get(&reader2, &Key::new("big")).unwrap().is_some());
}

#[test]
fn abort_cleans_up_spilled_data() {
    let storage = InMemoryStore::shared();
    let shared: SharedStorage = storage.clone();
    let config = NodeConfig {
        write_buffer_spill_bytes: 4,
        ..NodeConfig::test()
    };
    let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();
    let t = node.start_transaction();
    node.put(&t, Key::new("k"), val("spilled-data")).unwrap();
    assert_eq!(storage.list_prefix("data/").unwrap().len(), 1);
    node.abort(&t).unwrap();
    assert!(storage.list_prefix("data/").unwrap().is_empty());
}

#[test]
fn a_spilling_transaction_writes_each_value_once() {
    let storage = InMemoryStore::shared();
    let shared: SharedStorage = storage.clone();
    let config = NodeConfig {
        write_buffer_spill_bytes: 8,
        ..NodeConfig::test()
    };
    let node = AftNode::with_clock(config, shared, MockClock::starting_at(1).shared()).unwrap();
    let t = node.start_transaction();
    // Every put spills: each spill carries the one value written since
    // the last, and the commit finds every value already durable.
    for i in 0..10 {
        let value = format!("sixteen-bytes-{i:02}");
        node.put(&t, Key::new(format!("k{i}")), val(&value[..16]))
            .unwrap();
    }
    let id = node.commit(&t).unwrap();
    let record = encode_keyed_commit_record(&node.metadata().record(&id).unwrap());
    assert_eq!(
        storage.stats().snapshot().bytes_written,
        10 * 16 + record.len() as u64,
        "ten values once each, and the record"
    );
    let reader = node.start_transaction();
    for i in 0..10 {
        let key = Key::new(format!("k{i}"));
        assert_eq!(node.get(&reader, &key).unwrap().unwrap().len(), 16);
    }
}

#[test]
fn a_failed_spill_leaves_its_keys_to_the_commit() {
    use aft_storage::{Cut, CutStore};
    // While set, every attempt of every call is dropped.
    static DROPPING: AtomicBool = AtomicBool::new(false);
    let hook = |_: &str, _| match DROPPING.load(Ordering::Relaxed) {
        true => Cut::Transient { applied: false },
        false => Cut::Pass,
    };
    let inner = InMemoryStore::shared();
    let storage = CutStore::new(inner.clone(), Arc::new(hook));
    let config = NodeConfig {
        write_buffer_spill_bytes: 8,
        ..NodeConfig::test()
    };
    let node = AftNode::with_clock(config, storage, MockClock::starting_at(1).shared()).unwrap();

    let t = node.start_transaction();
    DROPPING.store(true, Ordering::Relaxed);
    assert!(node
        .put(&t, Key::new("big"), val("0123456789abcdef"))
        .is_err());
    DROPPING.store(false, Ordering::Relaxed);
    assert!(inner.list_prefix("data/").unwrap().is_empty());
    node.commit(&t).unwrap();
    assert_eq!(inner.list_prefix("data/").unwrap().len(), 1);
    let reader = node.start_transaction();
    assert_eq!(
        node.get(&reader, &Key::new("big")).unwrap().unwrap(),
        val("0123456789abcdef")
    );
}

#[test]
fn commit_timestamps_come_from_the_clock() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = MockClock::starting_at(1_000);
    let node = AftNode::with_clock(NodeConfig::test(), storage, clock.shared()).unwrap();
    let t = node.start_transaction();
    clock.advance(500);
    node.put(&t, Key::new("k"), val("v")).unwrap();
    let committed = node.commit(&t).unwrap();
    assert_eq!(committed.timestamp, 1_500);
    assert_eq!(committed.uuid, t.uuid);
}

#[test]
fn read_only_transactions_commit_with_empty_write_set() {
    let node = test_node();
    let t = node.start_transaction();
    assert!(node.get(&t, &Key::new("missing")).unwrap().is_none());
    let id = node.commit(&t).unwrap();
    let record = node.metadata().record(&id).unwrap();
    assert!(record.write_set.is_empty());
}

#[test]
fn commit_probe_observes_every_phase_in_protocol_order() {
    let (node, hook) = crashing_at(None, InMemoryStore::shared());
    let t = node.start_transaction();
    node.put(&t, Key::new("k"), val("v")).unwrap();
    node.commit(&t).unwrap();
    let bootstrap = CommitPhase::DuringBootstrap;
    let phases: Vec<CommitPhase> = [bootstrap].into_iter().chain(CommitPhase::ALL).collect();
    assert_eq!(hook.seen.lock().as_slice(), phases);
    // A hooked commit is durable, visible and counted like any other:
    // it ran the one flush there is.
    let t2 = node.start_transaction();
    assert_eq!(node.get(&t2, &Key::new("k")).unwrap().unwrap(), val("v"));
    let stats = node.commit_batch_stats();
    assert_eq!(
        (stats.submitted, stats.flushes, stats.largest_batch),
        (1, 1, 1)
    );
    assert!(!node.crashed());
}

#[test]
fn crash_before_data_put_leaves_storage_untouched() {
    let storage = InMemoryStore::shared();
    let phase = Some(CommitPhase::BeforeDataPut);
    let (node, _) = crashing_at(phase, storage.clone() as SharedStorage);
    let t = node.start_transaction();
    node.put(&t, Key::new("k"), val("v")).unwrap();
    let err = node.commit(&t).unwrap_err();
    assert!(matches!(err, AftError::Unavailable(_)));
    assert!(storage.list_prefix("data/").unwrap().is_empty());
    assert!(storage.list_prefix("commit/").unwrap().is_empty());
    // The crash lost the in-memory transaction (write buffer gone), and
    // a crashed node fails every later commit.
    assert_eq!(node.in_flight(), 0);
    assert!(node.crashed());
    let t = node.start_transaction();
    node.put(&t, Key::new("k"), val("v")).unwrap();
    assert!(matches!(node.commit(&t), Err(AftError::Unavailable(_))));
}

#[test]
fn crash_before_record_append_orphans_invisible_data() {
    use aft_storage::{make_backend, BackendConfig, BackendKind};
    // Where data and record are two calls, the crash falls between them
    // and orphans the data. Where they are one all-or-nothing call
    // (Redis), the crash falls before it and storage stays empty.
    for (kind, orphans) in [
        (BackendKind::Memory, 1),
        (BackendKind::S3, 1),
        (BackendKind::DynamoDb, 1),
        (BackendKind::Redis, 0),
    ] {
        let storage = make_backend(BackendConfig::test(kind));
        let phase = Some(CommitPhase::BeforeRecordAppend);
        let (node, _) = crashing_at(phase, storage.clone());
        let t = node.start_transaction();
        node.put(&t, Key::new("k"), large("v")).unwrap();
        assert!(node.commit(&t).is_err(), "{kind}");
        // No commit record, so no reader can ever observe orphaned data
        // (no dirty reads even across the crash).
        assert_eq!(
            storage.list_prefix("data/").unwrap().len(),
            orphans,
            "{kind}"
        );
        assert!(storage.list_prefix("commit/").unwrap().is_empty(), "{kind}");
        let reader = node.start_transaction();
        assert!(
            node.get(&reader, &Key::new("k")).unwrap().is_none(),
            "{kind}"
        );
    }
}

#[test]
fn a_small_commits_crash_before_its_record_leaves_storage_untouched() {
    use aft_storage::{make_backend, BackendConfig, BackendKind};
    // An inline commit has no data call: its one write is after both data
    // phases, so a crash at either leaves storage empty on every row.
    for kind in [
        BackendKind::Memory,
        BackendKind::S3,
        BackendKind::DynamoDb,
        BackendKind::Redis,
    ] {
        for phase in [CommitPhase::BeforeDataPut, CommitPhase::BeforeRecordAppend] {
            let storage = make_backend(BackendConfig::test(kind));
            let (node, hook) = crashing_at(Some(phase), storage.clone());
            let t = node.start_transaction();
            node.put(&t, Key::new("k"), val("v")).unwrap();
            let before = storage.stats().snapshot();
            assert!(node.commit(&t).is_err(), "{kind}");
            let calls = storage.stats().snapshot().delta_since(&before);
            assert_eq!(calls.total_calls(), 0, "{kind} {phase:?}");
            assert_eq!(hook.seen.lock().last(), Some(&phase), "{kind}");
        }
    }
}

#[test]
fn ensure_transaction_is_idempotent() {
    let node = test_node();
    let t = node.start_transaction();
    node.ensure_transaction(t);
    assert_eq!(node.in_flight(), 1);
    node.abort(&t).unwrap();
    // A retry can re-register the same ID after the state was lost.
    node.ensure_transaction(t);
    assert_eq!(node.in_flight(), 1);
    node.put(&t, Key::new("k"), val("v")).unwrap();
    node.commit(&t).unwrap();
}

#[test]
fn an_rpc_hop_moves_no_transaction_id() {
    // A peer pull charges the reader one hop. Whether one comes first must
    // not change the ids the node mints after it.
    let ids = |hops: usize| {
        let config = NodeConfig {
            rpc_profile: aft_storage::latency::LatencyProfile::new(1_000.0, 5_000.0),
            ..NodeConfig::test()
        };
        let storage: SharedStorage = InMemoryStore::shared();
        let clock = aft_types::clock::TickingClock::shared(1_000, 1);
        let node = AftNode::with_clock(config, storage, clock).unwrap();
        for _ in 0..hops {
            node.rpc();
        }
        (0..4).map(|_| node.start_transaction()).collect::<Vec<_>>()
    };
    assert_eq!(ids(0), ids(1));
}

#[test]
fn a_commit_charges_nothing_but_storage() {
    use aft_storage::io::IoConfig;
    use aft_storage::latency::{measure_cost, LatencyProfile};
    use aft_storage::{
        LatencyMode, LatencyModel, SequentialEngine, Service, ServiceProfile, SimStore,
        DEFAULT_STRIPES,
    };
    // Every call of this row costs exactly `x`: no variance, no per-item or
    // per-KB cost, and no multi-key call, so the charges below are counts
    // of round trips on the node's critical path, and a node call that
    // charged anything else (an RPC, a second round trip) would show.
    let x = Duration::from_millis(1);
    let fixed = LatencyProfile::new(1_000.0, 1_000.0);
    let service = Service {
        profile: ServiceProfile {
            read: fixed,
            write: fixed,
            delete: fixed,
            list: fixed,
        },
        batch_delete: None,
        ..Service::S3
    };
    let keys: Vec<Key> = (0..8).map(|i| Key::new(format!("k{i}"))).collect();
    // Past `INLINE_BYTES`, a commit is its data and then its record; below
    // it, the record's one write, and the eight misses one read of it.
    for (size, pipelined, commit_cost, read_cost) in [
        (INLINE_BYTES + 1, true, 2 * x, x),
        (INLINE_BYTES + 1, false, 9 * x, 8 * x),
        (1, true, x, x),
        (1, false, x, x),
    ] {
        let latency = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let store: SharedStorage = Arc::new(SimStore::of(service, latency, 5, DEFAULT_STRIPES));
        let (storage, io): (SharedStorage, _) = if pipelined {
            (store, IoConfig::pipelined())
        } else {
            (SequentialEngine::new(store), IoConfig::sequential())
        };
        let config = NodeConfig {
            io,
            rpc_profile: LatencyProfile::ZERO,
            ..NodeConfig::test_without_cache()
        };
        let clock = aft_types::clock::TickingClock::shared(1_000, 1);
        let node = AftNode::with_clock(config, storage, clock).unwrap();
        let writer = node.start_transaction();
        for key in &keys {
            node.put(&writer, key.clone(), Bytes::from(vec![b'v'; size]))
                .unwrap();
        }
        let what = format!("{size} B values, pipelined {pipelined}");
        let (committed, charged) = measure_cost(|| node.commit(&writer));
        committed.unwrap();
        assert_eq!(charged, commit_cost, "8-key commit, {what}");
        let reader = node.start_transaction();
        let (read, charged) = measure_cost(|| node.get_all(&reader, &keys));
        assert!(read.unwrap().iter().all(Option::is_some));
        assert_eq!(charged, read_cost, "8-key read, {what}");
    }
}
