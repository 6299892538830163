//! Property tests for the cross-layer fault schedule.
//!
//! The invariant the whole crate exists for: one seed yields an identical
//! cross-layer fault schedule *regardless of the interleaving order* in
//! which layers query it. The storage planner always had this property per
//! layer; a unified trial (storage + net + faas racing on different
//! threads) needs it across layers, or a replayed seed would not reproduce
//! the failing run.

use std::time::Duration;

use aft_chaos::{ChaosSpec, FaasChaos, FaultKind, Layer, NetChaos, StorageChaos};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = ChaosSpec> {
    (
        any::<u64>(),
        0.0f64..0.5,
        (0.0f64..0.5, 0.0f64..0.5),
        (0.0f64..0.3, 0.0f64..0.3, 0.0f64..0.3),
    )
        .prop_map(
            |(seed, error_rate, (reset_rate, delay_rate), (before, after, mid))| {
                ChaosSpec::new(seed)
                    .storage(StorageChaos::transient_errors(error_rate))
                    .net(NetChaos::resets_and_delays(
                        reset_rate,
                        delay_rate,
                        Duration::from_millis(1),
                    ))
                    .faas(FaasChaos {
                        before_body: before,
                        after_body: after,
                        mid_body: mid,
                    })
            },
        )
}

/// A query identifies one decision: (layer, op_index, key choice).
fn arb_queries() -> impl Strategy<Value = Vec<(usize, u64, usize)>> {
    proptest::collection::vec((0usize..3, 0u64..200, 0usize..4), 1..200)
}

const KEYS: [&str; 4] = ["k", "commit", "data/cart/7", "fn:checkout"];

proptest! {
    /// Querying the schedule in an arbitrary cross-layer interleaving —
    /// including repeats — returns exactly what materialising each layer
    /// up front returns: decisions depend only on (seed, layer, index, key).
    #[test]
    fn schedule_is_independent_of_cross_layer_query_order(
        spec in arb_spec(),
        queries in arb_queries(),
    ) {
        let schedule = spec.schedule();
        // Materialise the reference answers first, layer by layer, key by
        // key, in one fixed order.
        let reference: Vec<Vec<Vec<FaultKind>>> = Layer::ALL
            .iter()
            .map(|&layer| {
                KEYS.iter()
                    .map(|key| schedule.materialize(layer, 200, key))
                    .collect()
            })
            .collect();
        // Replay the scrambled interleaving; every answer must match.
        for (layer_idx, op_index, key_idx) in queries {
            let layer = Layer::ALL[layer_idx];
            let got = schedule.decide(layer, op_index, KEYS[key_idx]);
            prop_assert_eq!(
                got,
                reference[layer_idx][key_idx][op_index as usize],
                "layer {} op {} key {}",
                layer.label(),
                op_index,
                KEYS[key_idx]
            );
        }
    }

    /// Two schedules built from the same spec are indistinguishable, and
    /// re-querying is idempotent (nothing is consumed by deciding).
    #[test]
    fn same_seed_same_schedule(spec in arb_spec()) {
        let a = spec.schedule();
        let b = spec.clone().schedule();
        for layer in Layer::ALL {
            prop_assert_eq!(a.materialize(layer, 100, "k"), b.materialize(layer, 100, "k"));
            prop_assert_eq!(a.materialize(layer, 100, "k"), a.materialize(layer, 100, "k"));
        }
    }
}
