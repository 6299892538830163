//! The simulated key-value service, written once.
//!
//! [`SimStore`] is a [`ShardedMap`] behind the accounting and latency of one
//! [`Service`] row. Every call is billed in [`StorageStats`] and draws its
//! latency from its key's own stream ([`seeded_stream`] at the key's
//! [`fnv1a`] hash): the draw of a key's `n`th call depends on the store's
//! seed, the key and `n` alone, so a call on one key moves no other key's
//! latency. The counts are kept per stripe (a lock held only to count) and
//! the latency is charged outside every lock, so concurrent requests never
//! serialise on the simulator. The calls of one batch are issued together
//! and the caller waits for the slowest: a batch charges the *maximum* of
//! its draws, not their sum (sequential charging survives only in
//! [`SequentialEngine`](crate::SequentialEngine)). Where a row's multi-key
//! call may carry keys of one hash slot only (Redis), a batch is split by
//! [`slot_tag`] — the group of transactions whose UUIDs end in one byte —
//! before it is cut to the call's limit, and a key alone in its slot goes
//! out as the single-key call. A call whose profile is free — every call of
//! the memory row — takes no hash, no lock and no count.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use aft_types::{fnv1a, seeded_stream, slot_tag, AftResult, Value};
use parking_lot::Mutex;

use crate::counters::{OpKind, StorageStats};
use crate::engine::StorageEngine;
use crate::latency::{LatencyModel, LatencyProfile};
use crate::profiles::{MultiKeyCall, Service};
use crate::sharded::ShardedMap;

/// One simulated storage service: the engine behind every [`Service`] row.
#[derive(Debug)]
pub struct SimStore {
    service: Service,
    map: ShardedMap,
    latency: Arc<LatencyModel>,
    seed: u64,
    /// How many calls have drawn on each key, by the key's hash, split into
    /// stripes by that hash: the next call's index on the key's stream. A
    /// delete drops the key's count.
    draws: Box<[Mutex<HashMap<u64, u64>>]>,
    stats: Arc<StorageStats>,
}

impl Default for SimStore {
    fn default() -> Self {
        let memory = Service::MEMORY;
        Self::of(memory, LatencyModel::disabled(), 0, memory.stripes)
    }
}

impl SimStore {
    /// An empty zero-latency store ([`Service::MEMORY`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty zero-latency store behind a shared handle.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// An empty store simulating `service`: `stripes` placement stripes
    /// (clamped to ≥ 1), each with its own lock and its own map of draw
    /// counts. Each key's latency stream is seeded from `seed`.
    /// [`make_backend`](crate::make_backend) passes the row's own
    /// [`Service::stripes`].
    pub fn of(service: Service, latency: Arc<LatencyModel>, seed: u64, stripes: usize) -> Self {
        let map = ShardedMap::new(stripes);
        SimStore {
            service,
            draws: (0..map.stripe_count()).map(|_| Mutex::default()).collect(),
            map,
            latency,
            seed,
            stats: StorageStats::new_shared(),
        }
    }

    /// Number of placement stripes.
    pub fn stripe_count(&self) -> usize {
        self.map.stripe_count()
    }

    /// Number of keys stored; useful for GC assertions in tests.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns true if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The counts of the stripe that key hash `stream` falls in.
    fn draws_of(&self, stream: u64) -> &Mutex<HashMap<u64, u64>> {
        &self.draws[(stream % self.draws.len() as u64) as usize]
    }

    /// Draws one call's latency: the next draw on `key`'s stream.
    fn draw(&self, profile: &LatencyProfile, key: &str, bytes: usize) -> Duration {
        if profile.is_free() {
            return Duration::ZERO;
        }
        let stream = fnv1a(key.bytes());
        let n = {
            let mut draws = self.draws_of(stream).lock();
            let count = draws.entry(stream).or_insert(0);
            *count += 1;
            *count - 1
        };
        let mut rng = seeded_stream(self.seed, stream, n);
        self.latency.draw(profile, &mut rng, bytes)
    }

    /// Drops the counts of `keys`, which a call of `profile` deleted: a key
    /// written again later starts its stream over.
    fn forget<'k>(&self, profile: &LatencyProfile, keys: impl IntoIterator<Item = &'k str>) {
        if profile.is_free() {
            return;
        }
        for key in keys {
            let stream = fnv1a(key.bytes());
            self.draws_of(stream).lock().remove(&stream);
        }
    }

    /// Waits out (sleeps, records or defers) the slowest of the calls issued
    /// together.
    fn wait(&self, slowest: Option<Duration>) {
        if let Some(duration) = slowest.filter(|d| !d.is_zero()) {
            self.latency.finish(duration);
        }
    }

    /// Draws and waits out one call of `profile` on `key`.
    pub(crate) fn charge(&self, profile: &LatencyProfile, key: &str, bytes: usize) {
        self.wait(Some(self.draw(profile, key, bytes)));
    }

    /// The blob at `key`, its bytes counted as read.
    pub(crate) fn read(&self, key: &str) -> Option<Value> {
        let value = self.map.get(key);
        if let Some(v) = &value {
            self.stats.record_read_bytes(v.len());
        }
        value
    }

    /// Stores `value` at `key`, its bytes counted as written.
    pub(crate) fn write(&self, key: &str, value: Value) {
        self.stats.record_written_bytes(value.len());
        self.map.put(key, value);
    }

    /// Bills one call of a batch that carries `keys` keys and returns its
    /// latency profile: the row's multi-key `call`, billed as `kind`, except
    /// that a lone key on a one-slot row goes out as the single-key call
    /// `lone`.
    fn bill(
        &self,
        kind: OpKind,
        call: &MultiKeyCall,
        keys: usize,
        lone: (OpKind, LatencyProfile),
    ) -> LatencyProfile {
        let (kind, profile) = if call.one_slot && keys == 1 {
            lone
        } else {
            (kind, call.cost(keys))
        };
        self.stats.record_call(kind);
        profile
    }

    /// Applies one call's writes (`Some`) and deletes (`None`): as one step
    /// where the row's call is all-or-nothing, key by key otherwise.
    fn apply<'k>(&self, call: &MultiKeyCall, ops: impl Iterator<Item = (&'k str, Option<Value>)>) {
        if call.atomic {
            return self.map.apply_all(ops);
        }
        for (key, value) in ops {
            match value {
                Some(value) => self.map.put(key, value),
                None => self.map.remove(key),
            };
        }
    }
}

/// The API calls that carry one batch, in issue order, each as the indices of
/// the keys it carries. A call confined to one hash slot first groups the keys
/// by [`slot_tag`] (groups in order of first appearance, keys in batch order);
/// each group is then cut, in order, into calls of at most the call's limit,
/// so only a group's last call may carry fewer. The global GC plans its
/// deletes with it over [`StorageEngine::delete_call`].
pub fn calls_of<'k>(call: &MultiKeyCall, keys: impl Iterator<Item = &'k str>) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if call.one_slot {
        let mut group_of: HashMap<&str, usize> = HashMap::new();
        for (i, key) in keys.enumerate() {
            let group = *group_of.entry(slot_tag(key)).or_insert(groups.len());
            if group == groups.len() {
                groups.push(Vec::new());
            }
            groups[group].push(i);
        }
    } else {
        groups.push((0..keys.count()).collect());
    }
    groups
        .iter()
        .flat_map(|group| group.chunks(call.limit))
        .map(<[usize]>::to_vec)
        .collect()
}

/// Whether [`calls_of`] cuts a batch into exactly one call, decided without
/// building it: a key or more, at most the call's limit, and every key in the
/// first one's slot where the call is confined to one. A commit asks it once,
/// through [`StorageEngine::writes_atomically`].
fn one_call(call: &MultiKeyCall, keys: &[&str]) -> bool {
    let Some(first) = keys.first() else {
        return false;
    };
    let slot = slot_tag(first);
    keys.len() <= call.limit && (!call.one_slot || keys.iter().all(|key| slot_tag(key) == slot))
}

impl StorageEngine for SimStore {
    fn name(&self) -> &'static str {
        self.service.name
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.stats.record_call(OpKind::Get);
        let value = self.read(key);
        let bytes = value.as_ref().map_or(0, |v| v.len());
        self.charge(&self.service.profile.read, key, bytes);
        Ok(value)
    }

    fn get_batch(&self, keys: &[String]) -> AftResult<Vec<Option<Value>>> {
        let (kind, call) = self.service.read_call();
        let lone = (OpKind::Get, self.service.profile.read);
        let mut values = vec![None; keys.len()];
        let calls = calls_of(&call, keys.iter().map(String::as_str))
            .into_iter()
            .map(|chunk| {
                let profile = self.bill(kind, &call, chunk.len(), lone);
                let mut bytes = 0;
                for &i in &chunk {
                    values[i] = self.read(&keys[i]);
                    bytes += values[i].as_ref().map_or(0, |v| v.len());
                }
                self.draw(&profile, &keys[chunk[0]], bytes)
            });
        self.wait(calls.max());
        Ok(values)
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.stats.record_call(OpKind::Put);
        self.charge(&self.service.profile.write, key, value.len());
        self.write(key, value);
        Ok(())
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        let (kind, call) = self.service.write_call();
        let lone = (OpKind::Put, self.service.profile.write);
        let calls = calls_of(&call, items.iter().map(|(k, _)| k.as_str()))
            .into_iter()
            .map(|chunk| {
                let profile = self.bill(kind, &call, chunk.len(), lone);
                let bytes = chunk.iter().map(|&i| items[i].1.len()).sum();
                self.stats.record_written_bytes(bytes);
                let writes = chunk
                    .iter()
                    .map(|&i| (items[i].0.as_str(), Some(items[i].1.clone())));
                self.apply(&call, writes);
                self.draw(&profile, &items[chunk[0]].0, bytes)
            });
        self.wait(calls.max());
        Ok(())
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.stats.record_call(OpKind::Delete);
        let profile = self.service.profile.delete;
        self.charge(&profile, key, 0);
        self.map.remove(key);
        self.forget(&profile, [key]);
        Ok(())
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        let (kind, call) = self.service.delete_call();
        let lone = (OpKind::Delete, self.service.profile.delete);
        let calls = calls_of(&call, keys.iter().map(String::as_str))
            .into_iter()
            .map(|chunk| {
                let profile = self.bill(kind, &call, chunk.len(), lone);
                let carried = || chunk.iter().map(|&i| keys[i].as_str());
                self.apply(&call, carried().map(|key| (key, None)));
                let drawn = self.draw(&profile, &keys[chunk[0]], 0);
                self.forget(&profile, carried());
                drawn
            });
        self.wait(calls.max());
        Ok(())
    }

    fn delete_call(&self) -> MultiKeyCall {
        self.service.delete_call().1
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.stats.record_call(OpKind::List);
        self.charge(&self.service.profile.list, prefix, 0);
        Ok(self.map.keys_with_prefix(prefix))
    }

    fn list_prefix_after(&self, prefix: &str, after: &str) -> AftResult<Vec<String>> {
        self.stats.record_call(OpKind::List);
        self.charge(&self.service.profile.list, prefix, 0);
        Ok(self.map.keys_with_prefix_after(prefix, after))
    }

    fn supports_batch_get(&self) -> bool {
        self.service.batch_get.is_some()
    }

    fn supports_batch_put(&self) -> bool {
        self.service.batch_put.is_some()
    }

    fn writes_atomically(&self, keys: &[&str]) -> bool {
        let (_, call) = self.service.write_call();
        call.atomic && one_call(&call, keys)
    }

    fn stats(&self) -> Arc<StorageStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{measure_cost, LatencyMode};

    /// What each call of a fixed script on keys `k1`..`k16` charges, on a
    /// Virtual-mode store of `service`: single-key puts, gets and deletes,
    /// and a batch of each kind. With `extra`, a listing of `ckptmeta/` and
    /// a read of `k0` come first.
    fn script_costs(service: Service, extra: bool) -> Vec<Duration> {
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let store = SimStore::of(service, model, 7, service.stripes);
        if extra {
            store.list_prefix("ckptmeta/").unwrap();
            store.get("k0").unwrap();
        }
        let keys: Vec<String> = (1..=16).map(|i| format!("k{i}")).collect();
        let value = Value::from_static(b"v");
        let items = || keys.iter().map(|k| (k.clone(), value.clone())).collect();
        let mut costs = Vec::new();
        let mut cost = |call: &dyn Fn() -> AftResult<()>| costs.push(measure_cost(call).1);
        for key in &keys {
            cost(&|| store.put(key, value.clone()));
            cost(&|| store.get(key).map(drop));
        }
        cost(&|| store.put_batch(items()));
        cost(&|| store.get_batch(&keys).map(drop));
        cost(&|| store.delete_batch(&keys[..8]));
        for key in &keys[8..] {
            cost(&|| store.delete(key));
        }
        costs
    }

    #[test]
    fn calls_on_one_key_move_no_other_keys_latency() {
        for service in [Service::S3, Service::DYNAMODB, Service::REDIS] {
            let costs = script_costs(service, false);
            assert!(costs.iter().all(|c| !c.is_zero()), "{}", service.name);
            assert_eq!(costs, script_costs(service, true), "{}", service.name);
        }
    }

    #[test]
    fn first_draws_across_keys_follow_the_profile() {
        // Each key's first call is draw 0 of its own stream; over many keys
        // those draws have the profile's median and tail, as one stream's
        // draws do.
        let model = LatencyModel::new(LatencyMode::Virtual, 1.0);
        let store = SimStore::of(Service::S3, model, 7, Service::S3.stripes);
        let profile = LatencyProfile::new(1_000.0, 5_000.0);
        let mut draws: Vec<f64> = (0..5_000)
            .map(|i| store.draw(&profile, &format!("data/k{i}"), 0))
            .map(|draw| draw.as_secs_f64() * 1e6)
            .collect();
        draws.sort_by(f64::total_cmp);
        let (median, p99) = (draws[2_500], draws[4_950]);
        assert!((median - 1_000.0).abs() < 150.0, "median {median} µs");
        assert!((p99 - 5_000.0).abs() < 1_750.0, "p99 {p99} µs");
    }

    #[test]
    fn one_call_is_whether_a_batch_is_cut_into_one_call() {
        // Data and record keys of a few transactions, some sharing a slot,
        // plus keys that are their own slot; and forty keys of one slot.
        let mixed: Vec<String> = (0..300u32)
            .map(|i| match i % 3 {
                0 => format!("data/k{i}/{:032x}", i % 7),
                1 => format!("commit/{i:020}_{:032x}", i % 7),
                _ => format!("bare/{i}"),
            })
            .collect();
        let one_slot: Vec<String> = (0..40).map(|i| format!("data/k{i}/{:032x}", 7)).collect();
        for service in [
            Service::MEMORY,
            Service::S3,
            Service::DYNAMODB,
            Service::REDIS,
        ] {
            for (_, call) in [
                service.read_call(),
                service.write_call(),
                service.delete_call(),
            ] {
                for keys in [&mixed, &one_slot] {
                    for n in [0, 1, 2, 16, 17, 25, 26, 40] {
                        let batch: Vec<&str> = keys[..n].iter().map(String::as_str).collect();
                        assert_eq!(
                            one_call(&call, &batch),
                            calls_of(&call, batch.iter().copied()).len() == 1,
                            "{} with {n} keys",
                            service.name
                        );
                    }
                }
            }
        }
    }
}
