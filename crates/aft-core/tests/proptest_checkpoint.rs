//! Property-based tests of checkpointed recovery: bootstrapping from a
//! checkpoint plus the commit-log tail must be indistinguishable from a full
//! replay of the entire history, for *arbitrary* commit/supersedence
//! interleavings, arbitrary checkpoint cut points, and with or without log
//! compaction.

use std::collections::HashSet;
use std::sync::Arc;

use aft_core::bootstrap::{warm_metadata_cache_checkpointed, warm_metadata_cache_pipelined};
use aft_core::{AftNode, MetadataCache, NodeConfig};
use aft_storage::{InMemoryStore, SharedStorage};
use aft_types::clock::TickingClock;
use aft_types::Key;
use bytes::Bytes;
use proptest::prelude::*;

fn key_name(k: u8) -> Key {
    Key::new(format!("key-{k}"))
}

fn node() -> Arc<AftNode> {
    let storage: SharedStorage = InMemoryStore::shared();
    AftNode::with_clock(NodeConfig::test(), storage, TickingClock::shared(1, 1)).unwrap()
}

/// Commits one transaction writing the given (non-empty) key set.
fn commit_keys(node: &AftNode, keys: &[u8]) -> aft_types::TransactionId {
    let t = node.start_transaction();
    for k in keys {
        node.put(&t, key_name(*k), Bytes::from(format!("v{k}")))
            .unwrap();
    }
    node.commit(&t).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any interleaving of multi-key commits (each later commit
    /// supersedes earlier versions of the keys it overwrites), any cut
    /// point for the checkpoint, and either compaction choice, a fresh
    /// cache bootstrapped from checkpoint + tail observes exactly the
    /// state a full replay of the uncompacted history would: the same
    /// newest version for every key, and every committed transaction
    /// either present or strictly superseded.
    #[test]
    fn checkpoint_plus_tail_equals_full_replay(
        writes in proptest::collection::vec(
            proptest::collection::vec(0..8u8, 1..4), 1..40),
        cut_frac in 0.0..1.0f64,
        compact in any::<bool>(),
    ) {
        let origin = node();
        let cut = ((writes.len() as f64) * cut_frac) as usize;

        let mut committed = Vec::new();
        for keys in &writes[..cut] {
            committed.push((commit_keys(&origin, keys), keys.clone()));
        }
        let outcome = origin.checkpoint_now(compact).unwrap();
        prop_assert_eq!(outcome.compaction.is_some(), compact);
        for keys in &writes[cut..] {
            committed.push((commit_keys(&origin, keys), keys.clone()));
        }

        // The recovering node's view: checkpoint + tail.
        let recovered = MetadataCache::new();
        let boot = warm_metadata_cache_checkpointed(
            origin.io(), &recovered, "recovering", None).unwrap();
        prop_assert!(boot.used_checkpoint);
        prop_assert_eq!(boot.rejected_checkpoints, 0);

        // Reference 1: the origin node's own metadata cache holds the full
        // uncompacted history (GC never ran). Newest-version equivalence
        // must hold per key regardless of compaction.
        for k in 0..8u8 {
            prop_assert_eq!(
                recovered.latest_version_of(&key_name(k)),
                origin.metadata().latest_version_of(&key_name(k)),
                "newest version of {} diverged", key_name(k)
            );
        }

        // Every acked commit is either present or strictly superseded on
        // every key it wrote — nothing is silently lost.
        for (id, keys) in &committed {
            if recovered.is_committed(id) {
                continue;
            }
            for k in keys {
                let newest = recovered.latest_version_of(&key_name(*k));
                prop_assert!(
                    newest.is_some_and(|n| n > *id),
                    "commit {id:?} of {} lost without a superseding version", key_name(*k)
                );
            }
        }

        // Nothing phantom: every recovered record is one of the commits.
        let acked: HashSet<_> = committed.iter().map(|(id, _)| *id).collect();
        for record in recovered.all_records() {
            prop_assert!(acked.contains(&record.id), "phantom record {:?}", record.id);
        }

        // Reference 2: without compaction the commit log is intact, so the
        // recovered cache must hold the *identical* record set a plain
        // full replay loads.
        if !compact {
            let replayed = MetadataCache::new();
            warm_metadata_cache_pipelined(origin.io(), &replayed).unwrap();
            let mut recovered_ids: Vec<_> =
                recovered.all_records().iter().map(|r| r.id).collect();
            let mut replayed_ids: Vec<_> =
                replayed.all_records().iter().map(|r| r.id).collect();
            recovered_ids.sort();
            replayed_ids.sort();
            prop_assert_eq!(recovered_ids, replayed_ids);
        }
    }

    /// Stacked checkpoints: a second checkpoint taken later (with
    /// compaction under it) still yields full-replay-equivalent bootstrap
    /// state — the newest checkpoint wins and the tail shrinks to what it
    /// does not cover.
    #[test]
    fn stacked_checkpoints_stay_equivalent(
        phases in proptest::collection::vec(
            proptest::collection::vec(0..6u8, 1..3), 3..24),
        first_frac in 0.0..1.0f64,
    ) {
        let origin = node();
        let first = ((phases.len() as f64) * first_frac) as usize;
        let mid = first + (phases.len() - first) / 2;

        for keys in &phases[..first] {
            commit_keys(&origin, keys);
        }
        origin.checkpoint_now(true).unwrap();
        for keys in &phases[first..mid] {
            commit_keys(&origin, keys);
        }
        let second = origin.checkpoint_now(true).unwrap();
        for keys in &phases[mid..] {
            commit_keys(&origin, keys);
        }

        let recovered = MetadataCache::new();
        let boot = warm_metadata_cache_checkpointed(
            origin.io(), &recovered, "recovering", None).unwrap();
        prop_assert!(boot.used_checkpoint);
        // The newest checkpoint is the one bootstrapped from.
        let latest = aft_storage::load_latest_checkpoint(origin.io()).unwrap();
        prop_assert_eq!(latest.checkpoint.unwrap().id, second.write.id);

        for k in 0..6u8 {
            prop_assert_eq!(
                recovered.latest_version_of(&key_name(k)),
                origin.metadata().latest_version_of(&key_name(k)),
                "newest version of {} diverged", key_name(k)
            );
        }
    }
}
