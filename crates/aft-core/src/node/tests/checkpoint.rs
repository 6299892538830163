// The checkpoint driver's tests (`node/checkpoint.rs`), compiled into `node::tests`.

fn commit_n(node: &Arc<AftNode>, n: usize, key: &str) {
    for i in 0..n {
        let t = node.start_transaction();
        node.put(&t, Key::new(key), val(&format!("v{i}"))).unwrap();
        node.commit(&t).unwrap();
    }
}

#[test]
fn checkpoint_policy_knobs() {
    assert!(!CheckpointPolicy::disabled().is_enabled());
    assert!(!CheckpointPolicy::default().is_enabled());
    assert!(CheckpointPolicy::every_commits(10).is_enabled());
    // every_commits(0) clamps to 1: an enabled policy always fires.
    assert_eq!(CheckpointPolicy::every_commits(0).every_commits, 1);
}

#[test]
fn maybe_checkpoint_fires_on_commit_count_and_rearms() {
    let storage: SharedStorage = InMemoryStore::shared();
    let node = AftNode::with_clock(
        NodeConfig::test().with_checkpoint(CheckpointPolicy::every_commits(3)),
        storage,
        aft_types::clock::TickingClock::shared(1_000, 1),
    )
    .unwrap();
    commit_n(&node, 2, "k");
    assert!(node.maybe_checkpoint(None).unwrap().is_none(), "not due");
    commit_n(&node, 1, "k");
    let outcome = node.maybe_checkpoint(None).unwrap().expect("due");
    assert_eq!(outcome.write.records, 3);
    assert!(outcome.compaction.is_none());
    // The counter was reset: not due again until 3 more commits.
    assert!(node.maybe_checkpoint(None).unwrap().is_none());
}

#[test]
fn checkpoint_and_compaction_preserve_bootstrap_state() {
    let storage: SharedStorage = InMemoryStore::shared();
    let clock = aft_types::clock::TickingClock::shared(1_000, 1);
    let node = AftNode::with_clock(NodeConfig::test(), storage.clone(), clock.clone()).unwrap();
    for i in 0..8 {
        let t = node.start_transaction();
        node.put(&t, Key::new(format!("k{}", i % 4)), val("x"))
            .unwrap();
        node.commit(&t).unwrap();
    }
    let before = node.storage().list_prefix("commit/").unwrap().len();
    assert_eq!(before, 8);

    let outcome = node.checkpoint_now(true).unwrap();
    let compaction = outcome.compaction.expect("compaction requested");
    assert!(compaction.deleted_covered > 0 || compaction.deleted_superseded > 0);
    let after = node.storage().list_prefix("commit/").unwrap().len();
    assert!(after < before, "compaction must shrink the commit log");

    // A cold replacement on the same storage reaches the same state.
    let replacement = AftNode::with_clock(NodeConfig::test(), storage, clock).unwrap();
    for i in 0..4 {
        let key = Key::new(format!("k{i}"));
        assert_eq!(
            replacement.metadata().latest_version_of(&key),
            node.metadata().latest_version_of(&key),
            "checkpoint+tail bootstrap must match the live node for {key:?}"
        );
    }
}

#[test]
fn crash_during_checkpoint_write_leaves_previous_checkpoint_live() {
    let storage: SharedStorage = InMemoryStore::shared();
    let node = AftNode::with_clock(
        NodeConfig::test(),
        storage.clone(),
        aft_types::clock::TickingClock::shared(1_000, 1),
    )
    .unwrap();
    commit_n(&node, 3, "k");
    let first = node.checkpoint_now(false).unwrap();

    let phase = Some(CommitPhase::DuringCheckpointWrite);
    let (crashing, _) = crashing_at(phase, storage);
    commit_n(&crashing, 3, "k");
    let err = crashing.checkpoint_now(false).unwrap_err();
    assert!(matches!(err, AftError::Unavailable(_)));

    // Chunks of the torn checkpoint may exist, but the manifest pointer
    // was never published: a loader still sees the first checkpoint.
    let load = aft_storage::load_latest_checkpoint(node.io()).unwrap();
    let live = load.checkpoint.expect("previous checkpoint live");
    assert_eq!(live.id, first.write.id);

    // A live node's next checkpoint succeeds and supersedes it.
    let second = node.checkpoint_now(false).unwrap();
    assert!(second.write.id > first.write.id);
    let load = aft_storage::load_latest_checkpoint(node.io()).unwrap();
    assert_eq!(load.checkpoint.unwrap().id, second.write.id);
}

#[test]
fn checkpoint_ids_are_monotonic_per_node() {
    let node = test_node();
    commit_n(&node, 1, "k");
    let a = node.checkpoint_now(false).unwrap();
    let b = node.checkpoint_now(false).unwrap();
    let c = node.checkpoint_now(false).unwrap();
    assert!(a.write.id < b.write.id && b.write.id < c.write.id);
}
