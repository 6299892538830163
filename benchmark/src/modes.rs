//! Modes that run the benchmark's own executable once per workload and
//! pass: the default everything-run, the smoke check, and the same-code
//! agreement tool.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use crate::metrics::{catalogue, median, END_TO_END};
use crate::spec::SPECS;
use crate::Args;

/// The smoke mode runs `--seconds 1` at this scale: about 1% of the counts
/// of a full run.
const CHECK_SCALE: f64 = 0.1;

/// Runs one workload pass in a process of its own and returns its standard
/// output; standard error passes through.
fn spawn(
    workload: &str,
    seed: u64,
    seconds: u64,
    scale: f64,
    traced: bool,
) -> Result<String, String> {
    spawn_with(
        workload,
        seed,
        seconds,
        scale,
        &["--trace", if traced { "1" } else { "0" }],
    )
}

/// Sets `workload` up once in a process of its own (so that what it leaves
/// behind in the allocator never reaches the measuring process's peak RSS)
/// and returns the seconds it took.
pub fn setup_once(workload: &str, seed: u64, seconds: u64, scale: f64) -> Result<f64, String> {
    let stdout = spawn_with(workload, seed, seconds, scale, &["--setup-only"])?;
    stdout
        .lines()
        .find_map(|line| line.strip_prefix("setup_s "))
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| format!("set-up of {workload} reported no time"))
}

fn spawn_with(
    workload: &str,
    seed: u64,
    seconds: u64,
    scale: f64,
    extra: &[&str],
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(extra)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "{workload} {extra:?} exited with {}",
            output.status
        ));
    }
    Ok(stdout)
}

/// `"name": {"value": X` pairs of a result line, and its `correct` flag.
fn parse_result(stdout: &str) -> Result<(bool, BTreeMap<String, f64>), String> {
    let line = stdout.lines().last().ok_or("no output")?;
    if !line.starts_with("{\"correct\": ") {
        return Err(format!("last line is not a result: {line}"));
    }
    let correct = line.starts_with("{\"correct\": true");
    let mut values = BTreeMap::new();
    let metrics = line
        .split_once("\"metrics\": {")
        .ok_or("result has no metrics")?
        .1;
    for entry in metrics.split("\"}") {
        let Some((name, rest)) = entry.split_once("\": {\"value\": ") else {
            continue;
        };
        let name = name.trim_start_matches([',', ' ', '"']);
        let number = rest.split(',').next().unwrap_or("");
        let value: f64 = number
            .parse()
            .map_err(|e| format!("{name}: {number:?}: {e}"))?;
        values.insert(name.to_owned(), value);
    }
    Ok((correct, values))
}

/// Every workload, untraced then traced, each in its own process.
pub fn all(args: &Args) -> Result<(), String> {
    let mut failures = Vec::new();
    for spec in SPECS {
        for traced in [false, true] {
            let stdout = spawn(spec.name, args.seed, args.seconds, args.scale, traced)?;
            print!("{stdout}");
            if !parse_result(&stdout)?.0 {
                failures.push(format!("{} (trace {})", spec.name, u8::from(traced)));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!("incorrect: {}", failures.join(", ")))
    }
}

/// Smoke mode: every workload at about 1% of its count; every catalogued
/// metric must be printed exactly once with its unit and a finite value,
/// both shares must be 1 and the audit must pass.
pub fn check() -> Result<(), String> {
    for spec in SPECS {
        for traced in [false, true] {
            let stdout = spawn(spec.name, crate::DEFAULT_SEED, 1, CHECK_SCALE, traced)?;
            let catalogue = catalogue(traced);
            let context = format!("{} (trace {})", spec.name, u8::from(traced));
            for (name, unit) in &catalogue {
                let printed: Vec<&str> = stdout
                    .lines()
                    .filter(|line| line.split(' ').next() == Some(name))
                    .collect();
                let [line] = printed.as_slice() else {
                    return Err(format!("{context}: {name} printed {} times", printed.len()));
                };
                let fields: Vec<&str> = line.split(' ').collect();
                let finite = fields
                    .get(1)
                    .and_then(|v| v.parse::<f64>().ok())
                    .is_some_and(f64::is_finite);
                if fields.len() != 3 || !finite || fields[2] != *unit {
                    return Err(format!("{context}: malformed metric line {line:?}"));
                }
            }
            let (correct, values) = parse_result(&stdout)?;
            if values.len() != catalogue.len() {
                return Err(format!(
                    "{context}: result has {} metrics, catalogue {}",
                    values.len(),
                    catalogue.len()
                ));
            }
            if !correct || !stdout.contains("# audit passed") {
                return Err(format!("{context}: not correct\n{stdout}"));
            }
            if !traced && (values["committed_share"] != 1.0 || values["anomaly_free_share"] != 1.0)
            {
                return Err(format!("{context}: a share is not 1"));
            }
        }
        println!("check: {} ok", spec.name);
    }
    Ok(())
}

/// Same-code agreement, the way the driver judges it: two alternating sets
/// of `--runs` untraced runs per workload, run `i` of both sets on seed
/// `--seed + i`. Prints, per workload and metric, both set medians, their
/// relative difference in the worse direction, the spread of each set
/// (interquartile range over median) and the bound; fails on any breach.
pub fn agreement(args: &Args) -> Result<(), String> {
    let mut breaches = Vec::new();
    println!(
        "| workload | metric | median A | median B | B worse by | spread A | spread B | bound |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for spec in SPECS {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for run in 0..args.runs {
            for set in 0..2 {
                // Alternate which set goes first.
                let set = if run % 2 == 0 { set } else { 1 - set };
                let stdout = spawn(
                    spec.name,
                    args.seed + run as u64,
                    args.seconds,
                    args.scale,
                    false,
                )?;
                let (correct, values) = parse_result(&stdout)?;
                if !correct {
                    return Err(format!(
                        "{} seed {} is not correct",
                        spec.name,
                        args.seed + run as u64
                    ));
                }
                for (name, value) in values {
                    sets[set].entry(name).or_default().push(value);
                }
            }
        }
        for metric in END_TO_END {
            let (a, b) = (&sets[0][metric.name], &sets[1][metric.name]);
            let (ma, mb) = (median(a), median(b));
            let worse = if metric.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let (sa, sb) = (spread(a), spread(b));
            let mut breach = worse > metric.bound;
            if metric.name != "setup_s" {
                breach |= sa > metric.bound || sb > metric.bound;
            }
            println!(
                "| {} | {} | {ma:.4} | {mb:.4} | {:+.2}% | {:.2}% | {:.2}% | {:.1}%{} |",
                spec.name,
                metric.name,
                worse * 100.0,
                sa * 100.0,
                sb * 100.0,
                metric.bound * 100.0,
                if breach { " BREACH" } else { "" }
            );
            if breach {
                breaches.push(format!("{}/{}", spec.name, metric.name));
            }
        }
    }
    if breaches.is_empty() {
        Ok(())
    } else {
        Err(format!("bounds breached: {}", breaches.join(", ")))
    }
}

/// Interquartile range over median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method).
fn spread(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return 0.0;
    }
    let quantile = |k: usize| {
        let position = k as f64 * (n + 1) as f64 / 4.0;
        let j = (position.floor() as usize).clamp(1, n - 1);
        let fraction = position - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * fraction
    };
    (quantile(3) - quantile(1)) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn result_lines_parse_back() {
        let mut values = crate::metrics::Values::default();
        for m in END_TO_END {
            values.set(m.name, 1.5);
        }
        let line = crate::metrics::result_line(true, 10, 0, false, &values);
        let (correct, parsed) = parse_result(&line).unwrap();
        assert!(correct);
        assert_eq!(parsed.len(), END_TO_END.len());
        assert_eq!(parsed["setup_s"], 1.5);
    }
}
