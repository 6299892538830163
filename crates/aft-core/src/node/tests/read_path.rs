// The read path's tests (`node/read_path.rs`), compiled into `node::tests`.

#[test]
fn write_then_read_within_transaction() {
    let node = test_node();
    let t = node.start_transaction();
    assert!(node.get(&t, &Key::new("k")).unwrap().is_none());
    node.put(&t, Key::new("k"), val("v")).unwrap();
    // Read-your-writes before commit.
    assert_eq!(node.get(&t, &Key::new("k")).unwrap().unwrap(), val("v"));
    let committed = node.commit(&t).unwrap();
    assert_eq!(committed.uuid, t.uuid);

    // A later transaction sees the committed value.
    let t2 = node.start_transaction();
    assert_eq!(node.get(&t2, &Key::new("k")).unwrap().unwrap(), val("v"));
    node.commit(&t2).unwrap();
}

#[test]
fn uncommitted_data_is_invisible_to_others() {
    let node = test_node();
    let writer = node.start_transaction();
    node.put(&writer, Key::new("k"), val("dirty")).unwrap();

    let reader = node.start_transaction();
    assert!(
        node.get(&reader, &Key::new("k")).unwrap().is_none(),
        "no dirty reads"
    );
    node.abort(&writer).unwrap();
    assert!(node.get(&reader, &Key::new("k")).unwrap().is_none());
}

#[test]
fn fractured_reads_are_prevented() {
    // T1 writes {l}; T2 writes {k, l}. A reader that saw k from T2 must
    // not see l from T1.
    let node = test_node();
    let t1 = node.start_transaction();
    node.put(&t1, Key::new("l"), val("l1")).unwrap();
    node.commit(&t1).unwrap();

    let t2 = node.start_transaction();
    node.put(&t2, Key::new("k"), val("k2")).unwrap();
    node.put(&t2, Key::new("l"), val("l2")).unwrap();
    node.commit(&t2).unwrap();

    let reader = node.start_transaction();
    assert_eq!(
        node.get(&reader, &Key::new("k")).unwrap().unwrap(),
        val("k2")
    );
    assert_eq!(
        node.get(&reader, &Key::new("l")).unwrap().unwrap(),
        val("l2"),
        "reading l1 would be a fractured read"
    );
}

#[test]
fn repeatable_reads_across_concurrent_commits() {
    let node = test_node();
    let t1 = node.start_transaction();
    node.put(&t1, Key::new("k"), val("old")).unwrap();
    node.commit(&t1).unwrap();

    let reader = node.start_transaction();
    assert_eq!(
        node.get(&reader, &Key::new("k")).unwrap().unwrap(),
        val("old")
    );

    // Another transaction commits a newer version mid-flight.
    let t2 = node.start_transaction();
    node.put(&t2, Key::new("k"), val("new")).unwrap();
    node.commit(&t2).unwrap();

    assert_eq!(
        node.get(&reader, &Key::new("k")).unwrap().unwrap(),
        val("old"),
        "repeatable read"
    );
}

#[test]
fn staleness_can_force_no_valid_version() {
    // §3.6: Tr reads l1, then T2:{k,l} commits, and k only has the version
    // cowritten with l2 — the read of k must fail rather than fracture.
    let node = test_node();
    let t1 = node.start_transaction();
    node.put(&t1, Key::new("l"), val("l1")).unwrap();
    node.commit(&t1).unwrap();

    let reader = node.start_transaction();
    assert_eq!(
        node.get(&reader, &Key::new("l")).unwrap().unwrap(),
        val("l1")
    );

    let t2 = node.start_transaction();
    node.put(&t2, Key::new("k"), val("k2")).unwrap();
    node.put(&t2, Key::new("l"), val("l2")).unwrap();
    node.commit(&t2).unwrap();

    match node.get(&reader, &Key::new("k")) {
        Err(AftError::NoValidVersion { key, .. }) => assert_eq!(key.as_str(), "k"),
        other => panic!("expected NoValidVersion, got {other:?}"),
    }
    assert_eq!(node.stats().no_valid_version_aborts(), 1);
}

#[test]
fn get_all_overlaps_fetches_and_respects_buffered_writes() {
    let storage: SharedStorage = InMemoryStore::shared();
    // No data cache: every committed read must hit storage.
    let node = AftNode::with_clock(
        NodeConfig::test_without_cache(),
        storage,
        aft_types::clock::TickingClock::shared(1_000, 1),
    )
    .unwrap();
    let writer = node.start_transaction();
    for i in 0..6 {
        node.put(&writer, Key::new(format!("k{i}")), val(&format!("v{i}")))
            .unwrap();
    }
    node.commit(&writer).unwrap();

    let reader = node.start_transaction();
    node.put(&reader, Key::new("own"), val("mine")).unwrap();
    let keys: Vec<Key> = (0..6)
        .map(|i| Key::new(format!("k{i}")))
        .chain([Key::new("own"), Key::new("missing")])
        .collect();
    let calls = || node.storage().stats().total_calls();
    let before = calls();
    let values = node.get_all(&reader, &keys).unwrap();
    for i in 0..6 {
        assert_eq!(values[i].as_ref().unwrap(), &val(&format!("v{i}")));
    }
    assert_eq!(
        values[6].as_ref().unwrap(),
        &val("mine"),
        "read-your-writes"
    );
    assert!(values[7].is_none(), "missing key reads NULL");
    // The six committed keys were fetched from storage in one call, the
    // memory row's multi-key read.
    assert_eq!(node.stats().reads_from_storage(), 6);
    assert_eq!(calls() - before, 1);
    // Every fetched version entered the read set.
    let repeat = node.get_all(&reader, &keys[..6]).unwrap();
    assert_eq!(repeat.len(), 6);
    node.commit(&reader).unwrap();
}

#[test]
fn get_all_never_fractures_across_cowritten_keys() {
    // T1 writes {l}; T2 writes {k, l}. A get_all of [k, l] must return
    // the cowritten pair — the sequential version selection inside
    // get_all records k's choice before selecting l.
    let node = test_node();
    let t1 = node.start_transaction();
    node.put(&t1, Key::new("l"), val("l1")).unwrap();
    node.commit(&t1).unwrap();
    let t2 = node.start_transaction();
    node.put(&t2, Key::new("k"), val("k2")).unwrap();
    node.put(&t2, Key::new("l"), val("l2")).unwrap();
    node.commit(&t2).unwrap();

    let reader = node.start_transaction();
    let values = node
        .get_all(&reader, &[Key::new("k"), Key::new("l")])
        .unwrap();
    assert_eq!(values[0].as_ref().unwrap(), &val("k2"));
    assert_eq!(
        values[1].as_ref().unwrap(),
        &val("l2"),
        "returning l1 next to k2 would be a fractured read"
    );
}

#[test]
fn data_cache_serves_repeat_reads() {
    let node = test_node();
    let t = node.start_transaction();
    node.put(&t, Key::new("k"), val("v")).unwrap();
    node.commit(&t).unwrap();

    let r1 = node.start_transaction();
    node.get(&r1, &Key::new("k")).unwrap();
    let r2 = node.start_transaction();
    node.get(&r2, &Key::new("k")).unwrap();
    // The commit inserted the value into the cache, so no storage reads
    // were needed at all.
    assert_eq!(node.stats().reads_from_storage(), 0);
    assert!(node.stats().reads_from_data_cache() >= 2);
}

/// A store whose read of one armed key — alone or inside a batch —
/// returns only once the test lets it: the reader is held between version
/// selection and the cache fill, which is where a GC sweep has to land
/// for the races below. A watchdog turns a lost wake-up into an error
/// instead of a hang.
#[derive(Default)]
struct GatedGet {
    inner: Arc<InMemoryStore>,
    gate: Mutex<Gate>,
    changed: parking_lot::Condvar,
}

#[derive(Default)]
struct Gate {
    armed: Option<String>,
    arrived: bool,
    released: bool,
}

impl GatedGet {
    fn update(&self, change: impl FnOnce(&mut Gate)) {
        change(&mut self.gate.lock());
        self.changed.notify_all();
    }

    /// Holds a read naming the armed key until the test releases it.
    fn hold<'k>(&self, mut keys: impl Iterator<Item = &'k str>) -> AftResult<()> {
        let armed = self.gate.lock().armed.clone();
        if armed.is_some_and(|armed| keys.any(|key| key == armed)) {
            self.update(|gate| gate.arrived = true);
            if !self.wait_until(|gate| gate.released) {
                return Err(AftError::Storage("the gate was never released".into()));
            }
        }
        Ok(())
    }

    fn wait_until(&self, ready: impl Fn(&Gate) -> bool) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut gate = self.gate.lock();
        while !ready(&gate) {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let _ = self.changed.wait_for(&mut gate, left);
        }
        true
    }
}

impl StorageEngine for GatedGet {
    fn name(&self) -> &'static str {
        "gated-get"
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.hold(std::iter::once(key))?;
        self.inner.get(key)
    }

    fn get_batch(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        self.hold(keys.iter().map(String::as_str))?;
        self.inner.get_batch(keys)
    }

    fn supports_batch_get(&self) -> bool {
        self.inner.supports_batch_get()
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.inner.put(key, value)
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        self.inner.put_batch(items)
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.inner.delete(key)
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        self.inner.delete_batch(keys)
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.inner.list_prefix(prefix)
    }

    fn supports_batch_put(&self) -> bool {
        self.inner.supports_batch_put()
    }

    fn stats(&self) -> Arc<aft_storage::StorageStats> {
        self.inner.stats()
    }
}

#[test]
fn a_fill_that_lost_a_race_with_local_gc_leaves_nothing_in_the_cache() {
    // The sweep removes `old`'s whole record, or — when `old` also wrote
    // a key nobody overwrites — retires just its version of `k`. The fetch
    // reads `old`'s data key, or its inline record.
    for also in [None, Some(("other", "o"))] {
        for inline in [false, true] {
            a_fill_races_a_sweep(also, inline);
        }
    }
}

#[test]
fn an_inline_version_swept_between_select_and_fetch_is_read_from_its_record() {
    // `a_fill_races_a_sweep` with the sweep one step earlier: the reader
    // has selected `old` and missed the cache, and the sweep drops `old`'s
    // record before the fetch decides which storage key to read. The select
    // step has already noted that the record carries the value, so the
    // fetch reads the record, which is still in storage.
    let node = test_node();
    let key = Key::new("k");
    let t = node.start_transaction();
    node.put(&t, key.clone(), val("old")).unwrap();
    let old = node.commit(&t).unwrap();
    assert!(node.metadata().record(&old).unwrap().inline);
    node.data_cache().evict(&key, &old);

    let t = node.start_transaction();
    let keys = std::slice::from_ref(&key);
    let (out, misses) = node.select_all(&t, keys).unwrap();
    let t2 = node.start_transaction();
    node.put(&t2, key.clone(), val("new")).unwrap();
    node.commit(&t2).unwrap();
    // The reader ends: no read set names `old`, as for a sweep whose
    // snapshot of the read sets predates the select.
    node.abort(&t).unwrap();
    assert_eq!(node.run_local_gc().deleted, 1);
    assert!(node.metadata().record(&old).is_none());

    let read = node.fetch(&t, keys, out, misses).unwrap();
    assert_eq!(read, vec![Some((val("old"), Some(old)))]);
    assert!(!node.data_cache().resident().contains(&(key, old)));
}

fn a_fill_races_a_sweep(also: Option<(&str, &str)>, inline: bool) {
    let value = |s: &str| if inline { val(s) } else { large(s) };
    let key = Key::new("k");
    let store = Arc::new(GatedGet::default());
    let node = AftNode::with_clock(
        NodeConfig::test(),
        store.clone() as SharedStorage,
        aft_types::clock::TickingClock::shared(1_000, 1),
    )
    .unwrap();

    let t = node.start_transaction();
    for (k, v) in [[("k", "old")].as_slice(), also.as_slice()].concat() {
        node.put(&t, Key::new(k), value(v)).unwrap();
    }
    let old = node.commit(&t).unwrap();
    let record = node.metadata().record(&old).unwrap();
    assert_eq!(record.inline, inline);
    // The payload has aged out of the cache, so the read must fetch it.
    node.data_cache().evict(&key, &old);
    let fetched = if inline {
        record.storage_key()
    } else {
        KeyVersion::new(key.clone(), old).storage_key()
    };
    store.update(|gate| gate.armed = Some(fetched));

    let t = node.start_transaction();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| node.get_versioned(&t, &key));
        // The reader has selected `old`, recorded it, and is inside the
        // storage fetch, so a sweep keeps `old` for it.
        assert!(store.wait_until(|gate| gate.arrived), "reader arrived");
        let t2 = node.start_transaction();
        node.put(&t2, key.clone(), val("new")).unwrap();
        node.commit(&t2).unwrap();
        let swept = node.run_local_gc();
        assert_eq!(
            (swept.deleted, swept.retired),
            (0, 0),
            "read set holds `old`"
        );
        assert_eq!(swept.retained_for_readers, 1);
        // Its transaction ends mid-fetch: now no read set names `old`, as
        // for a sweep whose snapshot predates the record.
        node.abort(&t).unwrap();
        let swept = node.run_local_gc();
        let dropped = if also.is_some() { (0, 1) } else { (1, 0) };
        assert_eq!(
            (swept.deleted, swept.retired),
            dropped,
            "no reader of `old`"
        );
        assert!(!node.metadata().view().holds(&key, &old));
        store.update(|gate| gate.released = true);

        let (read, version) = reader.join().unwrap().unwrap().unwrap();
        assert_eq!((read, version), (value("old"), Some(old)));
    });
    // No transaction can select `old` any more and no sweep will visit it
    // again, so the fill must not have left it behind.
    let resident = node.data_cache().resident();
    assert!(!resident.contains(&(key.clone(), old)), "{resident:?}");
    let live = 1 + usize::from(also.is_some());
    assert_eq!(resident.len(), live, "only live versions: {resident:?}");
}

#[test]
fn get_all_fails_cleanly_when_global_gc_deletes_a_batched_version() {
    // The batched form of the race above: both versions are selected and
    // recorded, and the one multi-key read carrying them is in flight when
    // a global GC round deletes `l`'s version. The read must abort with
    // NoValidVersion, never return `k` beside a hole where `l` was.
    let (k, l) = (Key::new("k"), Key::new("l"));
    let store = Arc::new(GatedGet::default());
    let node = AftNode::with_clock(
        NodeConfig::test_without_cache(),
        store.clone() as SharedStorage,
        aft_types::clock::TickingClock::shared(1_000, 1),
    )
    .unwrap();
    let t1 = node.start_transaction();
    node.put(&t1, k.clone(), large("k1")).unwrap();
    node.put(&t1, l.clone(), large("l1")).unwrap();
    let written = node.commit(&t1).unwrap();
    store.update(|gate| gate.armed = Some(KeyVersion::new(k.clone(), written).storage_key()));

    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let t = node.start_transaction();
            node.get_all(&t, &[k.clone(), l.clone()])
        });
        assert!(store.wait_until(|gate| gate.arrived), "reader arrived");
        let l_version = KeyVersion::new(l.clone(), written).storage_key();
        store.inner.delete(&l_version).unwrap();
        store.update(|gate| gate.released = true);
        match reader.join().unwrap() {
            Err(AftError::NoValidVersion { key, .. }) => assert_eq!(key, l),
            other => panic!("expected NoValidVersion for l, got {other:?}"),
        }
    });
    assert_eq!(node.stats().no_valid_version_aborts(), 1);
    let calls = store.stats();
    assert_eq!(calls.calls(aft_storage::OpKind::BatchGet), 1, "one read");
    assert_eq!(calls.calls(aft_storage::OpKind::Get), 0);
}

/// Peers that answer from a list of nodes and log each lookup: the origin
/// and how many versions it was asked for. An origin not in the list is
/// down.
#[derive(Default)]
struct LoggedPeers {
    nodes: Vec<Arc<AftNode>>,
    asked: Mutex<Vec<(Origin, usize)>>,
}

impl Peers for LoggedPeers {
    fn pull(
        &self,
        _reader: &AftNode,
        origin: Origin,
        wanted: &[(Key, TransactionId)],
    ) -> Option<Vec<Option<Value>>> {
        self.asked.lock().push((origin, wanted.len()));
        let node = self.nodes.iter().find(|node| node.origin() == origin)?;
        Some(node.peek_cached(wanted))
    }
}

#[test]
fn a_miss_asks_each_origin_once_and_storage_for_what_is_left() {
    // Origin `a` committed a0 and a1 together and a2 alone, origin `b`
    // committed b0 and has since evicted it, and origin `gone` committed g0
    // and is down. The reader learns the records with their origins, and
    // one `GetAll` of the five keys asks each origin once, in the order it
    // first misses on them, with all of its versions there. The two
    // unanswered versions go to storage in one call, after one hop.
    let storage = aft_storage::make_backend(BackendConfig::test(BackendKind::Memory));
    let clock = aft_types::clock::TickingClock::shared(1_000, 1);
    let node = |config: NodeConfig| AftNode::with_clock(config, storage.clone(), clock.clone());
    let [a, b, gone] =
        ["a", "b", "gone"].map(|id| node(NodeConfig::test().with_node_id(id)).unwrap());
    let hop = aft_storage::latency::LatencyProfile::new(1_000.0, 1_000.0);
    let reader = node(NodeConfig {
        rpc_profile: hop,
        ..NodeConfig::test().with_node_id("reader")
    })
    .unwrap();
    let a01 = commit_writes(&a, &[("a0", "x0"), ("a1", "x1")]);
    commit_writes(&a, &[("a2", "x2")]);
    let b0 = commit_writes(&b, &[("b0", "y0")]);
    commit_writes(&gone, &[("g0", "z0")]);
    b.data_cache().evict(&Key::new("b0"), &b0);
    for origin in [&a, &b, &gone] {
        let tag = Some(origin.origin());
        let drained = origin.drain_recent_commits().records;
        let tagged: Vec<_> = drained.into_iter().map(|record| (record, tag)).collect();
        assert_eq!(reader.receive_peer_commits(&tagged).len(), tagged.len());
    }
    let peers = Arc::new(LoggedPeers {
        nodes: vec![Arc::clone(&a), Arc::clone(&b)],
        ..LoggedPeers::default()
    });
    let weak: std::sync::Weak<LoggedPeers> = Arc::downgrade(&peers);
    reader.join(weak);

    let keys = ["a0", "b0", "a1", "g0", "a2"].map(Key::new);
    let t = reader.start_transaction();
    let before = storage.stats().snapshot();
    let (read, cost) = aft_storage::latency::measure_cost(|| reader.get_all(&t, &keys).unwrap());
    let calls = storage.stats().snapshot().delta_since(&before);
    let values = ["x0", "y0", "x1", "z0", "x2"].map(|v| Some(val(v)));
    assert_eq!(read, values);
    assert_eq!(
        *peers.asked.lock(),
        [(a.origin(), 3), (b.origin(), 1), (gone.origin(), 1)]
    );
    assert_eq!(calls.calls(aft_storage::OpKind::BatchGet), 1);
    assert_eq!(calls.total_calls(), 1);
    assert_eq!(
        cost,
        Duration::from_millis(2),
        "the request's hop and the pull's"
    );
    let stats = reader.stats().snapshot();
    assert_eq!((stats.reads_from_peers, stats.reads_from_storage), (3, 2));
    // A pulled value fills the reader's cache under its own version, and
    // the origin's entry is only peeked.
    assert_eq!(
        reader.data_cache().peek(&Key::new("a0"), &a01),
        Some(val("x0"))
    );

    // A version the reader committed, or learned with no origin, asks no
    // one; neither does a request that hits its cache.
    peers.asked.lock().clear();
    let mine = commit_writes(&reader, &[("r0", "w0")]);
    reader.data_cache().evict(&Key::new("r0"), &mine);
    let (read, cost) = aft_storage::latency::measure_cost(|| {
        reader
            .get_all(&t, &[Key::new("r0"), Key::new("a0")])
            .unwrap()
    });
    assert_eq!(read, [Some(val("w0")), Some(val("x0"))]);
    assert!(peers.asked.lock().is_empty());
    assert_eq!(cost, Duration::from_millis(1), "the request's hop alone");
}
