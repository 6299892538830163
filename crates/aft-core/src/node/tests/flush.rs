//! The commit flush's unit tests: `flush`, in `node/commit_path.rs`, driven
//! on its own over an [`IoEngine`]. The crate root compiles this file as
//! `commit_batcher`, so each test keeps its name
//! `commit_batcher::tests::<name>`.

use aft_storage::io::IoEngine;
use aft_types::{AftResult, CommitPhase, Value};

use crate::node::flush;

mod tests {
    use super::*;
    use aft_storage::io::IoConfig;
    use aft_storage::{InMemoryStore, OpKind, SharedStorage, StorageEngine};
    use bytes::Bytes;
    use parking_lot::{Condvar, Mutex};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn val(s: &str) -> Value {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn engine_over(store: &Arc<InMemoryStore>) -> IoEngine {
        IoEngine::new(store.clone() as SharedStorage, IoConfig::pipelined())
    }

    /// A flush of one transaction that no phase stops.
    fn commit(io: &IoEngine, data: Vec<(String, Value)>, record_key: &str) -> AftResult<()> {
        flush(io, data, (record_key.to_owned(), val("r")), |_| Ok(()))
    }

    #[test]
    fn single_commit_flushes_immediately() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        commit(&io, vec![("data/k/1".into(), val("v"))], "commit/1").unwrap();
        assert!(store.get("data/k/1").unwrap().is_some());
        assert!(store.get("commit/1").unwrap().is_some());
        assert_eq!(
            store.stats().calls(OpKind::Put),
            2,
            "one data put, one record put"
        );
    }

    #[test]
    fn read_only_commits_write_only_the_record() {
        let store = InMemoryStore::shared();
        let io = engine_over(&store);
        commit(&io, Vec::new(), "commit/ro").unwrap();
        assert_eq!(store.stats().calls(OpKind::BatchPut), 0);
        assert_eq!(store.stats().calls(OpKind::Put), 1);
    }

    #[test]
    fn a_visible_commit_record_implies_its_data_under_concurrent_commits() {
        // §3.3's guarantee, observed from outside while 16 committers race:
        // whenever a commit record can be listed, the data it covers can be
        // read. The keys are real data and record keys, so over Redis each
        // commit is one all-or-nothing MSET, and over memory a batched data
        // put, then the record.
        use aft_storage::{BackendConfig, BackendKind};
        use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
        const COMMITTERS: u64 = 16;
        let data_keys = |id: TransactionId| {
            ["a", "b"].map(|key| KeyVersion::new(Key::new(key), id).storage_key())
        };
        for (kind, record_puts) in [(BackendKind::Redis, 0), (BackendKind::Memory, COMMITTERS)] {
            let store: SharedStorage = aft_storage::make_backend(BackendConfig::test(kind));
            let io = IoEngine::new(store.clone(), IoConfig::pipelined());
            let check_visible = || {
                let records = store.list_prefix("commit/").unwrap();
                for record in &records {
                    let id = TransactionRecord::id_from_storage_key(record).unwrap();
                    for key in data_keys(id) {
                        assert!(
                            store.get(&key).unwrap().is_some(),
                            "{kind:?}: {record} is visible before {key}"
                        );
                    }
                }
                records.len() as u64
            };
            std::thread::scope(|scope| {
                for t in 1..=COMMITTERS {
                    let io = &io;
                    scope.spawn(move || {
                        let id = TransactionId::new(t, Uuid::from_u128(t.into()));
                        let data = data_keys(id).map(|key| (key, val("v"))).into();
                        let record = TransactionRecord::storage_key_for(&id);
                        commit(io, data, &record).unwrap();
                    });
                }
                while check_visible() < COMMITTERS {
                    std::thread::yield_now();
                }
            });
            let stats = store.stats();
            assert_eq!(stats.calls(OpKind::BatchPut), COMMITTERS, "{kind:?}");
            assert_eq!(stats.calls(OpKind::Put), record_puts, "{kind:?}");
        }
    }

    #[test]
    fn a_one_call_flush_lands_after_both_data_phases() {
        use aft_storage::{BackendConfig, BackendKind};
        use aft_types::{Key, KeyVersion, TransactionId, TransactionRecord, Uuid};
        let id = TransactionId::new(1, Uuid::from_u128(1));
        // Keys in storage as each phase is announced: over memory the data
        // lands between the two data phases, over Redis the one MSET lands
        // after both.
        for (kind, landed) in [
            (BackendKind::Memory, [0, 2, 3]),
            (BackendKind::Redis, [0, 0, 3]),
        ] {
            let store: SharedStorage = aft_storage::make_backend(BackendConfig::test(kind));
            let io = IoEngine::new(store.clone(), IoConfig::pipelined());
            let data = ["a", "b"]
                .map(|key| (KeyVersion::new(Key::new(key), id).storage_key(), val("v")))
                .into();
            let record = (TransactionRecord::storage_key_for(&id), val("r"));
            let mut phases = Vec::new();
            flush(&io, data, record, |phase| {
                phases.push((phase, store.list_prefix("").unwrap().len()));
                Ok(())
            })
            .unwrap();
            assert_eq!(
                phases,
                CommitPhase::ALL.into_iter().zip(landed).collect::<Vec<_>>(),
                "{kind:?}"
            );
        }
    }

    /// A store whose put of `commit/A` blocks until `data/B` has been put:
    /// satisfiable only if B's flush can start while A's is between its two
    /// round trips. A watchdog turns a flush path that serialises commits
    /// into an error instead of a hang.
    struct LatchStore {
        inner: Arc<InMemoryStore>,
        seen: Mutex<std::collections::HashSet<String>>,
        arrived: Condvar,
    }

    impl LatchStore {
        fn new() -> Arc<Self> {
            Arc::new(LatchStore {
                inner: InMemoryStore::shared(),
                seen: Mutex::new(Default::default()),
                arrived: Condvar::new(),
            })
        }

        /// Blocks until `key` has been put; false if the watchdog fired.
        fn await_put(&self, key: &str) -> bool {
            let deadline = Instant::now() + Duration::from_secs(5);
            let mut seen = self.seen.lock();
            while !seen.contains(key) {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return false;
                }
                let _ = self.arrived.wait_for(&mut seen, left);
            }
            true
        }

        fn observe(&self, key: &str) -> AftResult<()> {
            if key == "commit/A" && !self.await_put("data/B") {
                return Err(aft_types::AftError::Storage(
                    "commit/A never saw data/B: flushes do not overlap".into(),
                ));
            }
            self.seen.lock().insert(key.to_owned());
            self.arrived.notify_all();
            Ok(())
        }
    }

    impl StorageEngine for LatchStore {
        fn name(&self) -> &'static str {
            "latch"
        }

        fn get(&self, key: &str) -> AftResult<Option<Value>> {
            self.inner.get(key)
        }

        fn put(&self, key: &str, value: Value) -> AftResult<()> {
            self.observe(key)?;
            self.inner.put(key, value)
        }

        fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
            for (key, _) in &items {
                self.observe(key)?;
            }
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
    fn a_second_flush_starts_while_the_first_appends_its_record() {
        let store = LatchStore::new();
        let io = IoEngine::new(store.clone() as SharedStorage, IoConfig::pipelined());
        let commit = |t: &str| {
            let data = vec![(format!("data/{t}"), val("v"))];
            commit(&io, data, &format!("commit/{t}"))
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| commit("A"));
            // B arrives only once A's flush is under way, so A always holds
            // whatever there is to hold.
            assert!(store.await_put("data/A"));
            commit("B").unwrap();
            a.join().unwrap().unwrap();
        });
        assert!(store.inner.get("commit/A").unwrap().is_some());
        assert!(store.inner.get("commit/B").unwrap().is_some());
    }

    #[test]
    fn flush_reports_its_charged_storage_latency() {
        use aft_storage::latency::{measure_cost, LatencyProfile};
        use aft_storage::{
            LatencyMode, LatencyModel, Service, ServiceProfile, SimStore, DEFAULT_STRIPES,
        };
        // A fixed 20ms write latency (no variance) makes the accounting
        // exact: an 8-key commit charges one overlapped data round trip plus
        // the record append — 40ms — where sequential charging would be
        // 9 × 20ms.
        let profile = ServiceProfile {
            write: LatencyProfile::new(20_000.0, 20_000.0),
            ..ServiceProfile::zero()
        };
        let service = Service {
            profile,
            ..Service::S3
        };
        let latency = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let storage: SharedStorage = Arc::new(SimStore::of(service, latency, 5, DEFAULT_STRIPES));
        let io = IoEngine::new(storage, IoConfig::pipelined());
        let data: Vec<(String, Value)> =
            (0..8).map(|i| (format!("data/k/{i}"), val("v"))).collect();
        let (flushed, cost) = measure_cost(|| commit(&io, data, "commit/1"));
        flushed.unwrap();
        assert!(
            cost >= Duration::from_millis(39) && cost <= Duration::from_millis(42),
            "barrier(max of 8 × 20ms) + record(20ms) ≈ 40ms, got {cost:?}"
        );
    }
}
