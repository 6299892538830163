//! The metric catalogue: every name, unit, direction and bound the
//! benchmark reports, and the `BENCHMARK.json` text generated from it (a
//! test keeps the checked-in file equal to it).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::spec::SPECS;

/// Seconds one run measures for; every workload's count is its calibrated
/// rate times this.
pub const RUN_SECONDS: u64 = 8;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The four timing metrics the issue lists as end-to-end (`txn_per_s`,
/// `txn_p50_ms`, `txn_p99_ms`, `cpu_ms_per_txn`) could not hold a tenth on
/// the reference host, so by the issue's own rule they are reported under
/// the same names in [`PER_LAYER`], unbounded. `setup_s` takes the largest
/// bound, as the benchmark contract asks.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("peak_rss_mb", "MiB", false, 0.10),
    e2e("storage_ops_per_txn", "ops", false, 0.03),
    e2e("storage_write_amp", "ratio", false, 0.03),
    e2e("committed_share", "share", true, 0.001),
    e2e("anomaly_free_share", "share", true, 0.001),
    e2e("setup_s", "s", false, 0.25),
];

/// `(name, unit, higher is better)` of every per-layer metric, grouped by
/// layer in the order the traced pass prints them.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("txn_per_s", "1/s", true),
    ("txn_p50_ms", "ms", false),
    ("txn_p99_ms", "ms", false),
    ("cpu_ms_per_txn", "ms", false),
    ("aft-types.wire.encode_request_ns", "ns", false),
    ("aft-types.wire.decode_request_ns", "ns", false),
    ("aft-types.wire.encode_response_ns", "ns", false),
    ("aft-types.wire.decode_response_ns", "ns", false),
    ("aft-types.wire.allocs_per_msg", "count", false),
    ("aft-types.wire.bytes_per_txn", "B", false),
    ("aft-types.codec.record_encode_ns", "ns", false),
    ("aft-types.codec.record_decode_ns", "ns", false),
    ("aft-types.self_us_per_txn", "us", false),
    ("aft-net.frame.encode_ns", "ns", false),
    ("aft-net.frame.decode_ns", "ns", false),
    ("aft-net.ping_p50_us", "us", false),
    ("aft-net.client.get_p50_us", "us", false),
    ("aft-net.client.get_all_p50_us", "us", false),
    ("aft-net.client.commit_p50_us", "us", false),
    ("aft-net.client.commit_p99_us", "us", false),
    ("aft-net.boundary_us_per_req", "us", false),
    ("aft-net.event.frames_per_writev", "ratio", true),
    ("aft-net.event.bytes_read_per_txn", "B", false),
    ("aft-net.event.bytes_written_per_txn", "B", false),
    ("aft-net.event.pauses", "count", false),
    ("aft-net.event.buffer_reuse_share", "share", true),
    ("aft-net.server.requests_per_txn", "count", false),
    ("aft-net.server.errors", "count", false),
    ("aft-net.client.transport_retries", "count", false),
    ("aft-net.client.overload_retries", "count", false),
    ("aft-net.self_us_per_txn", "us", false),
    ("aft-faas.run_request_self_us", "us", false),
    ("aft-faas.attempts_per_request", "ratio", false),
    ("aft-cluster.route_ns", "ns", false),
    ("aft-cluster.maintenance_ms_per_round", "ms", false),
    ("aft-cluster.maintenance_share", "share", false),
    ("aft-cluster.dissem.records_per_round", "count", false),
    ("aft-cluster.dissem.bytes_per_txn", "B", false),
    ("aft-cluster.dissem.pruned_share", "share", true),
    ("aft-cluster.gc.deleted_per_txn", "count", true),
    ("aft-core.begin_ns", "ns", false),
    ("aft-core.put_ns", "ns", false),
    ("aft-core.get_p50_us", "us", false),
    ("aft-core.get_p99_us", "us", false),
    ("aft-core.get_all_p50_us", "us", false),
    ("aft-core.commit_p50_us", "us", false),
    ("aft-core.commit_p99_us", "us", false),
    ("aft-core.select_version_ns", "ns", false),
    ("aft-core.is_atomic_readset_ns", "ns", false),
    ("aft-core.read.cache_hit_share", "share", true),
    ("aft-core.read.storage_share", "share", false),
    ("aft-core.read.write_buffer_share", "share", true),
    ("aft-core.read.no_valid_version_aborts", "count", false),
    ("aft-core.batch.commits_per_flush", "ratio", true),
    ("aft-core.batch.largest", "count", true),
    ("aft-core.metadata.records_end", "count", false),
    ("aft-core.metadata.indexed_keys_end", "count", false),
    ("aft-core.data_cache.bytes_end", "B", false),
    ("aft-core.self_us_per_txn", "us", false),
    ("aft-storage.io.execute_p50_us", "us", false),
    ("aft-storage.io.peak_in_flight", "count", false),
    ("aft-storage.io.deferred_share", "share", true),
    ("aft-storage.io.retries", "count", false),
    ("aft-storage.backend.get_p50_us", "us", false),
    ("aft-storage.backend.put_batch_p50_us", "us", false),
    ("aft-storage.backend.busy_share", "share", false),
    ("aft-storage.calls.get_per_txn", "ops", false),
    ("aft-storage.calls.put_per_txn", "ops", false),
    ("aft-storage.calls.batch_put_per_txn", "ops", false),
    ("aft-storage.calls.delete_per_txn", "ops", false),
    ("aft-storage.calls.list_per_txn", "ops", false),
    ("aft-storage.bytes_read_per_txn", "B", false),
    ("aft-storage.bytes_written_per_txn", "B", false),
    ("aft-storage.blocked_us_per_txn", "us", false),
    ("harness.trace_overhead_share", "share", false),
    ("harness.unattributed_share", "share", false),
    ("harness.allocs_per_txn", "count", false),
    ("harness.alloc_bytes_per_txn", "B", false),
    ("harness.nonvoluntary_ctxsw_per_s", "1/s", false),
    ("harness.steal_share", "share", false),
    ("harness.plan_hash", "hash", true),
];

/// `(name, unit)` of every metric a result carries: the per-layer list for a
/// traced invocation, the end-to-end list otherwise.
pub fn catalogue(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// Named values of one pass, in insertion-independent (sorted) order.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let clash = self.0.insert(name, value);
        assert!(clash.is_none(), "metric {name} reported twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, spec) in SPECS.iter().enumerate() {
        let comma = if i + 1 < SPECS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            spec.name, spec.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, higher)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}",
            better(*higher)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`, with one `{value, unit}` per catalogue entry.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    traced: bool,
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in catalogue(traced).iter().enumerate() {
        let value = values
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was never measured"));
        assert!(value.is_finite(), "metric {name} is not finite");
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

/// Median by sorting; the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an unsorted sample of nanosecond readings.
pub fn percentile_ns(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    f64::from(samples[rank])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_checked_in_manifest_is_the_catalogue() {
        assert_eq!(manifest(), include_str!("../../BENCHMARK.json"));
    }

    #[test]
    fn the_catalogue_keeps_the_contracts_limits() {
        let mut names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        for name in &names {
            assert!(is_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        for spec in SPECS {
            assert!(
                spec.why.len() <= 200 && !spec.why.contains(['\n', '"']),
                "{}",
                spec.name
            );
        }
        for m in END_TO_END {
            assert!(
                is_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25,
                "{}",
                m.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|(_, unit, _)| is_unit(unit)));
        assert!((2..=8).contains(&SPECS.len()) && (1..=60).contains(&RUN_SECONDS));
    }
}
