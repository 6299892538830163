// The maintenance tests (`node/maintenance.rs`), compiled into `node::tests`.

#[test]
fn peer_commits_become_visible_unless_superseded() {
    let node = test_node();
    // A peer committed k at t=9999.
    let peer_new = Arc::new(TransactionRecord::new(
        TransactionId::new(9_999, Uuid::from_u128(1)),
        vec![Key::new("peer-key")],
    ));
    let fresh = node.receive_peer_commits(std::slice::from_ref(&peer_new));
    assert_eq!(fresh, [Arc::clone(&peer_new)]);
    assert!(node.metadata().is_committed(&peer_new.id));

    // An older peer commit of the same key is superseded and ignored, and
    // a repeated one is known.
    let peer_old = Arc::new(TransactionRecord::new(
        TransactionId::new(10, Uuid::from_u128(2)),
        vec![Key::new("peer-key")],
    ));
    let fresh = node.receive_peer_commits(&[Arc::clone(&peer_old), peer_new]);
    assert!(fresh.is_empty());
    assert!(!node.metadata().is_committed(&peer_old.id));
}

#[test]
fn drain_recent_commits_hands_records_to_the_multicaster() {
    let node = test_node();
    let t = node.start_transaction();
    node.put(&t, Key::new("k"), val("v")).unwrap();
    let id = node.commit(&t).unwrap();
    let drained = node.drain_recent_commits();
    assert_eq!(drained.records.len(), 1);
    assert_eq!(drained.records[0].id, id);
    assert_eq!(drained.floor, None, "nothing failed");
    assert!(
        node.drain_recent_commits().records.is_empty(),
        "drain is destructive"
    );
}

#[test]
fn a_commit_is_reported_once_by_a_drain_or_a_poll() {
    let node = test_node();
    let first = commit_writes(&node, &[("a", "1")]);
    let second = commit_writes(&node, &[("b", "2")]);
    // A node nobody drains points at its oldest unreported commit, once;
    // its records stay for a drain.
    assert_eq!(node.undrained_floor(), Some(first.timestamp));
    assert_eq!(node.undrained_floor(), None);
    assert_eq!(node.drain_recent_commits().records.len(), 2);
    // A drain reports what it hands out, so a poll after it has nothing.
    commit_writes(&node, &[("c", "3")]);
    node.drain_recent_commits();
    assert_eq!(node.undrained_floor(), None);
    assert!(second.timestamp > first.timestamp);
}

#[test]
fn local_gc_removes_superseded_transactions_only() {
    let node = test_node();
    let ids: Vec<TransactionId> = (0..3)
        .map(|i| commit_writes(&node, &[("hot", &format!("v{i}"))]))
        .collect();
    assert_eq!(node.metadata().len(), 3);
    let outcome = node.run_local_gc();
    // The two older versions are superseded; the newest survives.
    assert_eq!(outcome.deleted, 2);
    assert_eq!(node.metadata().len(), 1);
    let view = node.metadata().view();
    assert!(!view.is_committed(&ids[0]) && !view.is_committed(&ids[1]));
    assert!(view.is_committed(&ids[2]));
    drop(view);
    assert_eq!(node.stats().gc_deleted(), 2);
}

#[test]
fn a_reader_pinned_to_a_retired_version_gets_no_valid_version_and_its_retry_commits() {
    let node = test_node();
    let (a, c) = (Key::new("a"), Key::new("c"));
    commit_writes(&node, &[("c", "c0")]);
    let t1 = commit_writes(&node, &[("a", "a1"), ("b", "b1")]);
    let reader = node.start_transaction();
    assert_eq!(node.get(&reader, &c).unwrap(), Some(val("c0")));
    // T2 overwrites a and c together; T1 is still b's newest writer.
    commit_writes(&node, &[("a", "a2"), ("c", "c2")]);

    // The reader read from T0, not from T1: T0 is kept, T1's a retired.
    let swept = node.run_local_gc();
    assert_eq!((swept.deleted, swept.retained_for_readers), (0, 1));
    assert_eq!(swept.retired, 1);
    assert!(node.metadata().is_committed(&t1), "T1 still names b1");
    assert!(!node.metadata().view().holds(&a, &t1));
    assert!(!node.data_cache().resident().contains(&(a.clone(), t1)));

    // a2 was cowritten with a newer c than the reader saw, and a1 — the
    // one version the read set allowed — is gone: retry, not fracture.
    match node.get(&reader, &a) {
        Err(AftError::NoValidVersion { key, .. }) => assert_eq!(key, a),
        other => panic!("expected NoValidVersion, got {other:?}"),
    }
    node.abort(&reader).unwrap();
    let retry = node.start_transaction();
    assert_eq!(node.get(&retry, &c).unwrap(), Some(val("c2")));
    assert_eq!(node.get(&retry, &a).unwrap(), Some(val("a2")));
    node.commit(&retry).unwrap();
}

#[test]
fn an_overwritten_version_is_kept_while_its_transaction_has_a_reader() {
    let node = test_node();
    let a = Key::new("a");
    let t1 = commit_writes(&node, &[("a", "a1"), ("b", "b1")]);
    let reader = node.start_transaction();
    assert_eq!(node.get(&reader, &Key::new("b")).unwrap(), Some(val("b1")));
    commit_writes(&node, &[("a", "a2")]);

    let swept = node.run_local_gc();
    assert_eq!((swept.retired, swept.retained_for_readers), (0, 1));
    assert!(node.metadata().view().holds(&a, &t1));
    assert_eq!(node.get(&reader, &a).unwrap(), Some(val("a2")));

    node.commit(&reader).unwrap();
    let swept = node.run_local_gc();
    assert_eq!(
        (swept.retired, swept.deleted),
        (1, 1),
        "and the reader's record"
    );
    assert!(!node.metadata().view().holds(&a, &t1));
    assert!(!node.data_cache().resident().contains(&(a, t1)));
}

#[test]
fn local_gc_spares_transactions_with_active_readers() {
    let node = test_node();
    let t1 = node.start_transaction();
    node.put(&t1, Key::new("k"), val("old")).unwrap();
    let committed_old = node.commit(&t1).unwrap();

    // A long-running reader depends on the old version.
    let reader = node.start_transaction();
    assert_eq!(
        node.get(&reader, &Key::new("k")).unwrap().unwrap(),
        val("old")
    );

    let t2 = node.start_transaction();
    node.put(&t2, Key::new("k"), val("new")).unwrap();
    node.commit(&t2).unwrap();

    let outcome = node.run_local_gc();
    assert_eq!(outcome.deleted, 0);
    assert_eq!(outcome.retained_for_readers, 1);
    assert!(node.metadata().is_committed(&committed_old));

    // Once the reader commits, the old version can go.
    node.commit(&reader).unwrap();
    let outcome = node.run_local_gc();
    assert_eq!(
        outcome.deleted, 2,
        "old k version and the reader's empty txn"
    );
}
