//! Property-based test: a lock-striped map is observationally equivalent to
//! the single-lock map it replaced.
//!
//! The striping in [`ShardedMap`] must be invisible to callers — every
//! operation sequence must produce byte-identical results whether the map
//! has one stripe (the historical single-global-lock layout) or many. The
//! whole PR rests on this equivalence: if it holds, swapping stripe counts
//! can only change performance, never protocol behaviour.

use aft_storage::ShardedMap;
use aft_types::Value;
use bytes::Bytes;
use proptest::prelude::*;

/// One operation of a randomly generated map workload.
#[derive(Debug, Clone)]
enum Op {
    Put(String, Vec<u8>),
    Get(String),
    Remove(String),
    ListPrefix(String),
    Len,
    PayloadBytes,
}

fn arb_namespace() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("data"), Just("commit"), Just("idx")]
}

fn arb_key() -> impl Strategy<Value = String> {
    // A small alphabet so puts/gets/removes collide often and prefixes
    // overlap (the interesting cases for a striped sorted map).
    (arb_namespace(), "[ab]{0,3}[0-9]{0,2}").prop_map(|(ns, tail)| format!("{ns}/{tail}"))
}

fn arb_prefix() -> impl Strategy<Value = String> {
    (arb_namespace(), "[/]{0,1}[ab]{0,1}").prop_map(|(ns, tail)| format!("{ns}{tail}"))
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (arb_key(), proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(k, v)| Op::Put(k, v)),
        3 => arb_key().prop_map(Op::Get),
        2 => arb_key().prop_map(Op::Remove),
        2 => arb_prefix().prop_map(Op::ListPrefix),
        1 => Just(Op::Len),
        1 => Just(Op::PayloadBytes),
    ]
}

fn apply(map: &ShardedMap, op: &Op) -> String {
    // Each op's observable outcome, rendered so outcomes can be compared
    // across maps with different stripe counts.
    match op {
        Op::Put(k, v) => format!("{:?}", map.put(k, Value::from(Bytes::from(v.clone())))),
        Op::Get(k) => format!("{:?}", map.get(k)),
        Op::Remove(k) => format!("{:?}", map.remove(k)),
        Op::ListPrefix(p) => format!("{:?}", map.keys_with_prefix(p)),
        Op::Len => format!("{}", map.len()),
        Op::PayloadBytes => format!("{}", map.payload_bytes()),
    }
}

proptest! {
    #[test]
    fn striped_map_is_observationally_equivalent_to_single_lock(
        ops in proptest::collection::vec(arb_op(), 1..120),
        stripes in 2usize..32,
    ) {
        let single = ShardedMap::new(1);
        let striped = ShardedMap::new(stripes);
        for (i, op) in ops.iter().enumerate() {
            let expected = apply(&single, op);
            let actual = apply(&striped, op);
            prop_assert_eq!(
                &actual, &expected,
                "op #{} {:?} diverged with {} stripes", i, op, stripes
            );
        }
        prop_assert_eq!(striped.len(), single.len());
        prop_assert_eq!(striped.payload_bytes(), single.payload_bytes());
        prop_assert_eq!(striped.is_empty(), single.is_empty());
        // Full-scan equivalence at the end, including empty-prefix scans.
        prop_assert_eq!(striped.keys_with_prefix(""), single.keys_with_prefix(""));
    }
}
