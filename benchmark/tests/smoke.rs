//! `cargo test` of the benchmark package: the smoke mode, and the
//! determinism of the inputs and of the counts that are exact.

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_aft-benchmark");

#[test]
fn smoke_mode_passes() {
    let output = Command::new(EXE)
        .arg("--check")
        .output()
        .expect("the benchmark starts");
    assert!(
        output.status.success(),
        "--check failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The result line of a small traced svc-small pass on `seed`.
fn traced_result(seed: u64) -> String {
    let output = Command::new(EXE)
        .args([
            "--workload",
            "svc-small",
            "--seconds",
            "1",
            "--scale",
            "0.2",
            "--trace",
            "1",
        ])
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("the benchmark starts");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout.lines().last().expect("a result line").to_owned()
}

fn field<'a>(result: &'a str, after: &str) -> &'a str {
    let rest = result
        .split_once(after)
        .unwrap_or_else(|| panic!("{after} missing"))
        .1;
    rest.split([',', '}']).next().expect("a value")
}

fn metric<'a>(result: &'a str, name: &str) -> &'a str {
    field(result, &format!("\"{name}\": {{\"value\": "))
}

#[test]
fn same_seed_same_plan_and_exact_counts() {
    let (first, second, other) = (traced_result(7), traced_result(7), traced_result(8));
    for name in [
        "harness.plan_hash",
        "aft-types.wire.bytes_per_txn",
        "aft-net.server.requests_per_txn",
    ] {
        assert_eq!(
            metric(&first, name),
            metric(&second, name),
            "{name} differs on one seed"
        );
    }
    assert_eq!(
        field(&first, "\"attempted\": "),
        field(&second, "\"attempted\": ")
    );
    assert_ne!(
        metric(&first, "harness.plan_hash"),
        metric(&other, "harness.plan_hash"),
        "another seed must give other plans"
    );
}
