//! The simulated services, one `const` row of facts each.
//!
//! AFT asks one thing of storage — an update is durable once acknowledged
//! (§3.1) — and runs unchanged over S3, DynamoDB and Redis (§6.1.2), so the
//! stand-ins differ only in facts: how slow each call is, how many keys one
//! read, write or delete call may carry, and where a key is placed. A
//! [`Service`] holds those facts and [`SimStore`](crate::SimStore) is the one
//! engine that acts on them; the table itself is in the [crate docs](crate).
//!
//! The absolute numbers are the magnitudes reported in the paper's
//! evaluation (Figures 2 and 3) and public characterisations of the
//! services: DynamoDB single-digit-millisecond reads/writes with a moderate
//! tail, Redis sub-millisecond operations, S3 tens-of-milliseconds object
//! operations with a very heavy tail for small objects. What matters for
//! reproducing the figures is not the absolute values but the ratios and
//! tail shapes, which survive the global scale factor applied by
//! [`LatencyModel`](crate::LatencyModel).

use crate::counters::OpKind;
use crate::latency::LatencyProfile;
use crate::sharded::DEFAULT_STRIPES;

/// The real DynamoDB's `BatchWriteItem` limit (puts and deletes alike).
pub const DYNAMO_BATCH_LIMIT: usize = 25;

/// The real DynamoDB's `BatchGetItem` limit.
pub const DYNAMO_BATCH_GET_LIMIT: usize = 100;

/// The real S3's `DeleteObjects` limit.
pub const S3_DELETE_OBJECTS_LIMIT: usize = 1000;

/// Redis shards, matching the paper's deployment ("cluster mode with 2
/// shards", §6).
pub const DEFAULT_REDIS_SHARDS: usize = 2;

/// Most keys one Redis `MSET` or `DEL` carries. At this size an `MSET` costs
/// about one `SET`'s p99 (650 + 16 × 60 µs); a larger write, such as a
/// preload's 500-key commit, is several calls issued together rather than
/// one call that grows with the batch.
pub const REDIS_MULTI_KEY_LIMIT: usize = 16;

/// Latency of the four single-key calls every service has.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceProfile {
    /// Single-key read.
    pub read: LatencyProfile,
    /// Single-key write.
    pub write: LatencyProfile,
    /// Single-key delete.
    pub delete: LatencyProfile,
    /// Prefix scan / list.
    pub list: LatencyProfile,
}

impl ServiceProfile {
    /// A profile with no latency at all — the memory row, and unit tests.
    pub const fn zero() -> Self {
        ServiceProfile {
            read: LatencyProfile::ZERO,
            write: LatencyProfile::ZERO,
            delete: LatencyProfile::ZERO,
            list: LatencyProfile::ZERO,
        }
    }
}

/// One multi-key API call a service offers: how many keys it may carry and
/// what it costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiKeyCall {
    /// Most keys one call carries; a larger batch is several calls.
    pub limit: usize,
    /// Cost of the call itself.
    pub base: LatencyProfile,
    /// Additional cost per key in the call, in microseconds.
    pub per_item_us: f64,
    /// Whether one call may only carry keys of one hash slot (Redis Cluster
    /// rejects a cross-slot multi-key command). The slot of a key is its
    /// [`slot_tag`](aft_types::slot_tag); a batch is split by slot before it
    /// is cut to `limit`, and a lone key goes out as the single-key call.
    pub one_slot: bool,
    /// Whether the service applies one call all-or-nothing: no reader ever
    /// sees part of it, and a failed call leaves none of it behind (Redis
    /// `MSET`/`DEL` within one slot). `BatchWriteItem` applies item by item,
    /// and `DeleteObjects` object by object.
    pub atomic: bool,
}

impl MultiKeyCall {
    /// A call that carries any number of keys for free (the memory row). It
    /// models no real service, so it claims no atomicity.
    pub const FREE: MultiKeyCall = MultiKeyCall {
        limit: usize::MAX,
        base: LatencyProfile::ZERO,
        per_item_us: 0.0,
        one_slot: false,
        atomic: false,
    };

    /// The latency profile of one call carrying `items` keys.
    pub fn cost(&self, items: usize) -> LatencyProfile {
        let per_item = self.per_item_us * items as f64;
        LatencyProfile {
            median_us: self.base.median_us + per_item,
            p99_us: self.base.p99_us + per_item,
            ..self.base
        }
    }
}

/// Redis `MSET`, the Redis row's multi-key write: slightly more than a single
/// `SET`, plus 60 µs per key, over the keys of one hash slot only, applied
/// atomically.
pub const MSET: MultiKeyCall = MultiKeyCall {
    limit: REDIS_MULTI_KEY_LIMIT,
    base: LatencyProfile::new(650.0, 1_900.0).with_per_kb(4.0),
    per_item_us: 60.0,
    one_slot: true,
    atomic: true,
};

/// Redis's single-key delete.
const REDIS_DELETE: LatencyProfile = LatencyProfile::new(500.0, 1_400.0);

/// Redis multi-key `DEL`, the Redis row's multi-key delete: one `DEL`'s round
/// trip plus, as for `MSET`, 60 µs per key, over the keys of one hash slot
/// only, applied atomically.
pub const DEL: MultiKeyCall = MultiKeyCall {
    limit: REDIS_MULTI_KEY_LIMIT,
    base: REDIS_DELETE,
    per_item_us: 60.0,
    one_slot: true,
    atomic: true,
};

/// S3's delete round trip, whether it carries one key or `DeleteObjects`' 1000.
const S3_DELETE: LatencyProfile = LatencyProfile::new(18_000.0, 90_000.0);

/// DynamoDB's single-item read (`GetItem`).
const DYNAMO_READ: LatencyProfile = LatencyProfile::new(2_500.0, 9_000.0).with_per_kb(15.0);

/// DynamoDB's `BatchWriteItem` round trip, before the per-item cost of puts.
const BATCH_WRITE_ITEM: LatencyProfile = LatencyProfile::new(3_200.0, 12_000.0).with_per_kb(10.0);

/// Everything that distinguishes one simulated service from another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Service {
    /// What [`StorageEngine::name`](crate::StorageEngine::name) reports.
    pub name: &'static str,
    /// Latency of the single-key calls.
    pub profile: ServiceProfile,
    /// The multi-key read call; `None` means one read call per key.
    pub batch_get: Option<MultiKeyCall>,
    /// The multi-key write call; `None` means one write call per key.
    pub batch_put: Option<MultiKeyCall>,
    /// The multi-key delete call; `None` means one delete call per key.
    pub batch_delete: Option<MultiKeyCall>,
    /// Placement stripes: each locks its keys and, apart, their latency
    /// draw counts.
    pub stripes: usize,
}

impl Service {
    /// Zero latency, unlimited batches (tests, protocol microbenchmarks).
    pub const MEMORY: Service = Service {
        name: "memory",
        profile: ServiceProfile::zero(),
        batch_get: Some(MultiKeyCall::FREE),
        batch_put: Some(MultiKeyCall::FREE),
        batch_delete: Some(MultiKeyCall::FREE),
        stripes: DEFAULT_STRIPES,
    };

    /// AWS S3: throughput-oriented object store; slow, very heavy-tailed
    /// writes for small objects, no batch read or write (a GET names one
    /// object), `DeleteObjects`.
    pub const S3: Service = Service {
        name: "s3",
        profile: ServiceProfile {
            read: LatencyProfile::new(14_000.0, 80_000.0).with_per_kb(8.0),
            write: LatencyProfile::new(28_000.0, 250_000.0).with_per_kb(10.0),
            delete: S3_DELETE,
            list: LatencyProfile::new(40_000.0, 150_000.0),
        },
        batch_get: None,
        batch_put: None,
        batch_delete: Some(MultiKeyCall {
            limit: S3_DELETE_OBJECTS_LIMIT,
            base: S3_DELETE,
            per_item_us: 0.0,
            one_slot: false,
            atomic: false,
        }),
        stripes: DEFAULT_STRIPES,
    };

    /// AWS DynamoDB: single-digit-millisecond KVS whose `BatchWriteItem`
    /// carries puts and deletes, and whose `BatchGetItem` carries up to 100
    /// reads. The service reads a `BatchGetItem`'s items in parallel, so the
    /// call costs one `GetItem` round trip (its per-KB charge over the whole
    /// response) plus 20 µs per item for the work that does grow with the
    /// item count: each key is parsed, routed to its partition and its item
    /// marshalled into the one response.
    pub const DYNAMODB: Service = Service {
        name: "dynamodb",
        profile: ServiceProfile {
            read: DYNAMO_READ,
            write: LatencyProfile::new(3_000.0, 11_000.0).with_per_kb(20.0),
            delete: LatencyProfile::new(2_800.0, 10_000.0),
            list: LatencyProfile::new(6_000.0, 25_000.0),
        },
        batch_get: Some(MultiKeyCall {
            limit: DYNAMO_BATCH_GET_LIMIT,
            base: DYNAMO_READ,
            per_item_us: 20.0,
            one_slot: false,
            atomic: false,
        }),
        batch_put: Some(MultiKeyCall {
            limit: DYNAMO_BATCH_LIMIT,
            base: BATCH_WRITE_ITEM,
            per_item_us: 350.0,
            one_slot: false,
            atomic: false,
        }),
        batch_delete: Some(MultiKeyCall {
            limit: DYNAMO_BATCH_LIMIT,
            base: BATCH_WRITE_ITEM,
            per_item_us: 0.0,
            one_slot: false,
            atomic: false,
        }),
        stripes: DEFAULT_STRIPES,
    };

    /// AWS ElastiCache / Redis in cluster mode: memory-speed KVS, every key
    /// on exactly one of its shards, and multi-key calls (`MSET`, `DEL`) only
    /// within one hash slot. AFT reads versions of different transactions,
    /// which share no slot, so the row has no multi-key read.
    pub const REDIS: Service = Service {
        name: "redis",
        profile: ServiceProfile {
            read: LatencyProfile::new(500.0, 1_400.0).with_per_kb(4.0),
            write: LatencyProfile::new(550.0, 1_600.0).with_per_kb(5.0),
            delete: REDIS_DELETE,
            list: LatencyProfile::new(2_000.0, 6_000.0),
        },
        batch_get: None,
        batch_put: Some(MSET),
        batch_delete: Some(DEL),
        stripes: DEFAULT_REDIS_SHARDS,
    };

    /// How a read batch is billed: as the multi-key call, or — without one —
    /// as single reads, one key per call.
    pub(crate) fn read_call(&self) -> (OpKind, MultiKeyCall) {
        match self.batch_get {
            Some(call) => (OpKind::BatchGet, call),
            None => (OpKind::Get, single(self.profile.read)),
        }
    }

    /// How a write batch is billed; see [`Service::read_call`].
    pub(crate) fn write_call(&self) -> (OpKind, MultiKeyCall) {
        match self.batch_put {
            Some(call) => (OpKind::BatchPut, call),
            None => (OpKind::Put, single(self.profile.write)),
        }
    }

    /// How a delete batch is billed; see [`Service::write_call`].
    pub(crate) fn delete_call(&self) -> (OpKind, MultiKeyCall) {
        match self.batch_delete {
            Some(call) => (OpKind::BatchDelete, call),
            None => (OpKind::Delete, single(self.profile.delete)),
        }
    }
}

/// A single-key call seen as a batch call of one key.
fn single(base: LatencyProfile) -> MultiKeyCall {
    MultiKeyCall {
        limit: 1,
        base,
        per_item_us: 0.0,
        one_slot: false,
        atomic: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_ordering_matches_the_paper() {
        // The property every figure depends on: Redis < DynamoDB << S3.
        let d = Service::DYNAMODB.profile;
        let r = Service::REDIS.profile;
        let s = Service::S3.profile;
        assert!(r.read.median_us < d.read.median_us);
        assert!(d.read.median_us < s.read.median_us);
        assert!(r.write.median_us < d.write.median_us);
        assert!(d.write.median_us < s.write.median_us);
    }

    #[test]
    fn s3_tail_is_much_heavier_than_dynamo() {
        let d = Service::DYNAMODB.profile;
        let s = Service::S3.profile;
        let d_ratio = d.write.p99_us / d.write.median_us;
        let s_ratio = s.write.p99_us / s.write.median_us;
        assert!(
            s_ratio > 2.0 * d_ratio,
            "S3 writes must have a much heavier tail"
        );
    }

    #[test]
    fn dynamo_batch_beats_sequential_for_multi_writes() {
        // 10 sequential writes vs one batch of 10.
        let sequential = 10.0 * Service::DYNAMODB.profile.write.median_us;
        let batched = Service::DYNAMODB.batch_put.unwrap().cost(10).median_us;
        assert!(batched < sequential / 2.0);
    }

    #[test]
    fn zero_profile_is_free() {
        let z = ServiceProfile::zero();
        assert!(z.read.is_free() && z.write.is_free() && z.delete.is_free() && z.list.is_free());
        assert!(MultiKeyCall::FREE.cost(1_000).is_free());
    }
}
