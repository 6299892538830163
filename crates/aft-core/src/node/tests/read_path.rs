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
    // a key nobody overwrites — retires just its version of `k`.
    for also in [None, Some(("other", "o"))] {
        a_fill_races_a_sweep(also);
    }
}

fn a_fill_races_a_sweep(also: Option<(&str, &str)>) {
    let key = Key::new("k");
    let store = Arc::new(GatedGet::default());
    let node = AftNode::with_clock(
        NodeConfig::test(),
        store.clone() as SharedStorage,
        aft_types::clock::TickingClock::shared(1_000, 1),
    )
    .unwrap();

    let old = commit_writes(
        &node,
        &[[("k", "old")].as_slice(), also.as_slice()].concat(),
    );
    // The payload has aged out of the cache, so the read must fetch it.
    node.data_cache().evict(&key, &old);
    store.update(|gate| gate.armed = Some(KeyVersion::new(key.clone(), old).storage_key()));

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

        let (value, version) = reader.join().unwrap().unwrap().unwrap();
        assert_eq!((value, version), (val("old"), Some(old)));
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
    node.put(&t1, k.clone(), val("k1")).unwrap();
    node.put(&t1, l.clone(), val("l1")).unwrap();
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
