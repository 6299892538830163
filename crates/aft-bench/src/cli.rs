//! The `aft-bench` command line: one registry of experiments, one argument
//! parser, one driver.
//!
//! ```text
//! aft-bench <experiment> [--out PATH] [--seed N] [--skip-gate] [experiment flags]
//! aft-bench all [--seed N] [--skip-gate] [experiment flags]
//! aft-bench list
//! aft-bench trajectory [--check]
//! ```
//!
//! Every experiment of the evaluation is one `Experiment` in `REGISTRY`.
//! Each writes a `BENCH_*.json` report (`--out`, default in the registry),
//! checks a gate over it (`--skip-gate` for exploration runs; CI keeps it
//! on), and derives every random choice from one seed (`--seed`, default in
//! the experiment's configuration) so that a failure replays — the driver
//! prints the exact command. `figures` is the paper's Figures 2–10 and
//! Table 2, each with its shape check; the other five are this
//! repository's own sweeps. Every experiment returns a `Report`, packaged
//! one way (`Outcome::report`): the driver prints a table per sheet and a
//! line per named check, writes the report's document and gates on the
//! checks. `fig8_service` mixes clocks: its chaos leg is virtual, its other
//! legs wall, and each of its sheets' titles names its clock. `all` runs the
//! registry in order, forwards each experiment the flags it declares, writes
//! every report under its default name and exits non-zero if any gate
//! failed; because it is a loop over the registry, a gate cannot be left out
//! of it. Exit status: 0 clean, 1 a gate failed or a report could not be
//! written, 2 the command line was wrong.
//!
//! The driver stamps every report with one `run` object — `{fast, seed,
//! clock, host_cores}` — so a number is never read without the mode, the
//! seed, the clock kind and the core count it was measured under.

use crate::json::Json;
use crate::report::Report;
use crate::setup::BenchEnv;
use crate::{dissemination, experiments, history, overload, recovery, service};

/// The clock an experiment's latencies are measured on. Virtual-clock
/// numbers are charged, never slept: deterministic per seed and independent
/// of the host. Wall-clock numbers depend on the host and its load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Clock {
    /// `LatencyMode::Virtual` (or a manually advanced `MockClock`).
    Virtual,
    /// Real sleeps, real sockets.
    Wall,
    /// Legs on both clocks; each sheet's title names its clock.
    Mixed,
}

impl Clock {
    /// `"virtual"` / `"wall"`, as reports and `list` print it.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Wall => "wall",
            Clock::Mixed => "mixed",
        }
    }
}

/// A flag one experiment declares beyond `--out`/`--seed`/
/// `--skip-gate`. Every such flag takes a value.
#[derive(Debug)]
pub(crate) struct Flag {
    /// The flag as typed, e.g. `--mode`.
    pub(crate) name: &'static str,
    /// The value's placeholder in usage text, e.g. `LABEL`.
    pub(crate) value: &'static str,
    /// One line of help.
    pub(crate) about: &'static str,
}

/// What an experiment hands the driver.
#[derive(Debug)]
pub(crate) struct Outcome {
    /// The seed the run derived everything from (the `--seed` override or
    /// the configuration's default).
    pub(crate) seed: u64,
    /// What the run was sized to; the driver adds the experiment's name,
    /// mode, seed and clock.
    pub(crate) banner: String,
    /// What the run measured and how it is checked: the driver prints a
    /// table per sheet and a line per check, writes the report's document
    /// and gates on its checks.
    pub(crate) report: Report,
    /// Values of the experiment's own flags that narrow a failing gate's
    /// replay to what failed (fig10: the failing cell's `--mode`); each
    /// overrides the value given on the command line.
    pub(crate) replay: Vec<(&'static str, String)>,
}

impl Outcome {
    /// A report's outcome; the banner is the sweep's whole configuration.
    pub(crate) fn report(seed: u64, config: &dyn std::fmt::Debug, report: Report) -> Self {
        Outcome {
            seed,
            banner: format!("{config:?}"),
            report,
            replay: Vec::new(),
        }
    }
}

/// One entry of the registry.
pub(crate) struct Experiment {
    /// The name typed on the command line.
    pub(crate) name: &'static str,
    /// One line saying what it measures.
    pub(crate) about: &'static str,
    /// The clock its numbers are on.
    pub(crate) clock: Clock,
    /// Default report file name.
    pub(crate) report: &'static str,
    /// The experiment's own flags.
    pub(crate) flags: &'static [Flag],
    /// Sizes the sweep from the arguments, runs it, packages the result.
    /// `Err` means an argument's value was unusable.
    pub(crate) run: fn(&Args) -> Result<Outcome, String>,
}

/// Every experiment, in the order `all` runs them: the paper's figures
/// first, then this repository's own sweeps.
pub(crate) const REGISTRY: &[Experiment] = &[
    Experiment {
        name: "figures",
        about: "Figures 2-10 and Table 2 of the paper, each with its shape check",
        clock: Clock::Virtual,
        report: "BENCH_figures.json",
        flags: &[],
        run: experiments::run,
    },
    Experiment {
        name: "fig10_recovery",
        about: "chaos matrix: fault mode x commit-phase node kill x backend",
        clock: Clock::Virtual,
        report: "BENCH_recovery.json",
        flags: recovery::FLAGS,
        run: recovery::run,
    },
    Experiment {
        name: "fig8_service",
        about: "networked service: client sweep and connection scale over loopback (wall), \
                connection chaos over pipes (virtual)",
        clock: Clock::Mixed,
        report: "BENCH_service.json",
        flags: &[],
        run: service::run,
    },
    Experiment {
        name: "fig11_overload",
        about: "overload protection: goodput and tail latency at 1x-8x offered load, over pipes",
        clock: Clock::Virtual,
        report: "BENCH_overload.json",
        flags: &[],
        run: overload::run,
    },
    Experiment {
        name: "fig12_dissemination",
        about:
            "commit-metadata dissemination: the tree sweep vs flat by cluster size, partition leg",
        clock: Clock::Virtual,
        report: "BENCH_dissemination.json",
        flags: &[],
        run: dissemination::run,
    },
    Experiment {
        name: "fig13_history",
        about: "recovery cost against history: full replay with and without GC",
        clock: Clock::Virtual,
        report: "BENCH_history.json",
        flags: &[],
        run: history::run,
    },
];

const USAGE: &str = "usage: aft-bench <experiment> [--out PATH] [--seed N] [--skip-gate] \
                     [experiment flags]\n       aft-bench all [--seed N] [--skip-gate] \
                     [experiment flags]\n       aft-bench list\n       aft-bench trajectory [--check]";

/// What `aft-bench list` prints: every experiment with its clock, default
/// report and own flags.
pub(crate) fn list() -> String {
    let mut out = String::new();
    for e in REGISTRY {
        out.push_str(&format!(
            "{:<24} {:<8} {:<25} {}\n",
            e.name,
            e.clock.label(),
            e.report,
            e.about
        ));
        for f in e.flags {
            out.push_str(&format!("    {} {}: {}\n", f.name, f.value, f.about));
        }
    }
    out
}

/// The parsed command line, as every experiment receives it.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// The size mode from the environment.
    pub(crate) env: BenchEnv,
    /// `--out PATH`: where to write the report instead of the default.
    pub(crate) out: Option<String>,
    /// `--seed N`: overrides the configuration's base seed.
    pub(crate) seed: Option<u64>,
    /// `--skip-gate`: report without a verdict.
    pub(crate) skip_gate: bool,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// The value given for an experiment flag (the last, if repeated).
    pub(crate) fn flag(&self, name: &str) -> Option<&str> {
        let given = self.flags.iter().rev().find(|(n, _)| *n == name);
        given.map(|(_, value)| value.as_str())
    }
}

fn declared<'a>(experiments: &'a [Experiment], flag: &str) -> Option<&'a Flag> {
    let mut flags = experiments.iter().flat_map(|e| e.flags);
    flags.find(|f| f.name == flag)
}

/// Parses `argv` (without the program name) into the experiments it names —
/// one, or the whole registry for `all` — and their arguments. Errors are
/// usage errors.
pub(crate) fn parse(
    argv: &[String],
    env: BenchEnv,
) -> Result<(&'static [Experiment], Args), String> {
    let (name, rest) = argv.split_first().ok_or("no experiment named")?;
    let experiments = match REGISTRY.iter().find(|e| e.name == name) {
        Some(one) => std::slice::from_ref(one),
        None if name == "all" => REGISTRY,
        None if name == "list" => return Err("list takes no arguments".to_owned()),
        None => return Err(format!("unknown experiment {name} (try `aft-bench list`)")),
    };
    let mut args = Args {
        env,
        out: None,
        seed: None,
        skip_gate: false,
        flags: Vec::new(),
    };
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            let value = rest.next().cloned();
            value.ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            // One path cannot name six reports.
            "--out" if name != "all" => args.out = Some(value()?),
            "--seed" => {
                let seed = value().ok().and_then(|v| v.parse().ok());
                args.seed = Some(seed.ok_or("missing or invalid value for --seed")?);
            }
            "--skip-gate" => args.skip_gate = true,
            other => match declared(experiments, other) {
                Some(declared) => args.flags.push((declared.name, value()?)),
                None if other == "--out" || declared(REGISTRY, other).is_some() => {
                    return Err(format!("{name} does not take {other}"))
                }
                None => return Err(format!("unknown flag {other}")),
            },
        }
    }
    Ok((experiments, args))
}

/// `json` with the driver's `run` object appended.
fn stamped(json: Json, env: &BenchEnv, seed: u64, clock: Clock) -> Json {
    let Json::Obj(mut pairs) = json else {
        return json;
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    pairs.push((
        "run".to_owned(),
        Json::obj(vec![
            ("fast", Json::Bool(env.fast)),
            // Exact up to 2^53; the replay line always prints it exactly.
            ("seed", Json::Num(seed as f64)),
            ("clock", Json::str(clock.label())),
            ("host_cores", Json::Num(cores as f64)),
        ]),
    ));
    Json::Obj(pairs)
}

/// Runs one experiment: prints its tables, writes the report and prints the
/// verdict. `Ok(Some(passed))` when a gate was checked; `Err((status,
/// message))` when the run could not be done.
fn run_one(exp: &Experiment, args: &Args) -> Result<Option<bool>, (i32, String)> {
    let fast = args.env.fast;
    let outcome = (exp.run)(args).map_err(|e| (2, e))?;
    println!(
        "{} (fast={fast}, seed={:#x}): {}, {} clock\n",
        exp.name,
        outcome.seed,
        outcome.banner,
        exp.clock.label()
    );
    let report = &outcome.report;
    for sheet in &report.sheets {
        println!("{}", sheet.render());
    }
    let verdicts = report.verdicts();
    for (check, verdict) in &verdicts {
        let verdict = verdict
            .as_ref()
            .map_or_else(|e| format!("FAILED — {e}"), |()| "ok".to_owned());
        println!("{check}: {verdict}");
    }

    let rendered = stamped(report.to_json(), &args.env, outcome.seed, exp.clock).render();
    let path = args.out.as_deref().unwrap_or(exp.report);
    std::fs::write(path, rendered).map_err(|e| (1, format!("failed to write {path}: {e}")))?;
    println!("wrote {path}");
    if args.skip_gate {
        return Ok(None);
    }
    let gate = report.gate();
    match &gate {
        Ok(()) => println!("gate OK [{}]: all {} checks hold", exp.name, verdicts.len()),
        Err(message) => eprintln!(
            "gate FAILED [{}]: {message}\nreplay locally with: {}",
            exp.name,
            replay_line(exp, args, outcome.seed, &outcome.replay)
        ),
    }
    Ok(Some(gate.is_ok()))
}

/// The failing invocation again, with the mode and the seed pinned and only
/// the flags this experiment declares, `narrowed` to what failed (see
/// [`Outcome::replay`]).
fn replay_line(
    exp: &Experiment,
    args: &Args,
    seed: u64,
    narrowed: &[(&'static str, String)],
) -> String {
    let mode = if args.env.fast {
        "AFT_BENCH_FAST=1 "
    } else {
        ""
    };
    let mut replay = format!("{mode}aft-bench {} --seed {seed}", exp.name);
    for f in exp.flags {
        let narrowed = narrowed.iter().find(|(name, _)| *name == f.name);
        let value = narrowed.map(|(_, value)| value.as_str());
        if let Some(value) = value.or_else(|| args.flag(f.name)) {
            replay.push_str(&format!(" {} {value}", f.name));
        }
    }
    replay
}

/// The whole program: parses `argv` (without the program name), runs what
/// it names under `env`, and returns the exit status.
pub fn main(argv: &[String], env: BenchEnv) -> i32 {
    if argv == ["list"] {
        print!("{}", list());
        return 0;
    }
    if let Some(("trajectory", rest)) = argv.split_first().map(|(n, r)| (n.as_str(), r)) {
        return crate::trajectory::main(rest, std::path::Path::new(crate::trajectory::REPORT));
    }
    let (experiments, args) = match parse(argv, env) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 2;
        }
    };
    let mut verdicts = 0;
    let mut failed = Vec::new();
    for exp in experiments {
        match run_one(exp, &args) {
            Ok(None) => {}
            Ok(Some(true)) => verdicts += 1,
            Ok(Some(false)) => {
                verdicts += 1;
                failed.push(exp.name);
            }
            Err((status, message)) => {
                eprintln!("error: {message}");
                return status;
            }
        }
    }
    if experiments.len() > 1 {
        println!(
            "{} experiments run (fast={}), {verdicts} gate verdicts, {} failed {failed:?}",
            experiments.len(),
            env.fast,
            failed.len(),
        );
    }
    i32::from(!failed.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(&'static [Experiment], Args), String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&argv, BenchEnv::test())
    }

    fn usage_error(line: &str) -> String {
        match parse_line(line) {
            Ok(_) => panic!("`{line}` must be rejected"),
            Err(e) => e,
        }
    }

    /// The experiments CI gates on: the `experiment:` input of each `*-gate`
    /// job in the workflow itself.
    fn ci_gates() -> Vec<&'static str> {
        include_str!("../../../.github/workflows/ci.yml")
            .lines()
            .filter_map(|line| line.trim().strip_prefix("experiment: "))
            .collect()
    }

    #[test]
    fn registry_names_and_reports_are_unique_and_list_prints_every_experiment() {
        assert_eq!(REGISTRY.len(), 6);
        let listing = list();
        for (i, e) in REGISTRY.iter().enumerate() {
            assert!(!["list", "all"].contains(&e.name));
            assert!(
                REGISTRY[..i].iter().all(|other| other.name != e.name),
                "{} is registered twice",
                e.name
            );
            let line = listing.lines().find(|l| l.starts_with(e.name));
            assert!(line.is_some_and(|l| l.contains(e.about)), "{}", e.name);
        }
        let reports: Vec<&str> = REGISTRY.iter().map(|e| e.report).collect();
        for (i, report) in reports.iter().enumerate() {
            assert!(report.starts_with("BENCH_") && report.ends_with(".json"));
            assert!(!reports[..i].contains(report), "{report} is written twice");
        }
    }

    #[test]
    fn all_visits_every_gate_ci_runs() {
        let (all, args) = parse_line("all --seed 9 --mode partition").unwrap();
        let mut gated: Vec<&str> = all.iter().map(|e| e.name).collect();
        let mut ci = ci_gates();
        assert_eq!((all.len(), ci.len()), (6, 6));
        gated.sort_unstable();
        ci.sort_unstable();
        assert_eq!(gated, ci, "`all` and CI must gate the same experiments");
        // `all` takes every flag some experiment declares, and only those.
        assert_eq!(args.seed, Some(9));
        assert_eq!(args.flag("--mode"), Some("partition"));
        assert_eq!(usage_error("all --out x.json"), "all does not take --out");
    }

    #[test]
    fn every_gated_experiment_takes_out_seed_and_skip_gate() {
        for name in ci_gates() {
            let line = format!("{name} --out r.json --seed 42 --skip-gate");
            let (one, args) = parse_line(&line).unwrap();
            assert_eq!((one.len(), one[0].name), (1, name));
            assert_eq!(args.out.as_deref(), Some("r.json"));
            assert_eq!(args.seed, Some(42));
            assert!(args.skip_gate);
        }
    }

    #[test]
    fn wrong_command_lines_are_usage_errors() {
        for (line, error) in [
            ("", "no experiment named"),
            ("figures --bogus", "unknown flag --bogus"),
            (
                "fig13_history --seed",
                "missing or invalid value for --seed",
            ),
            (
                "fig13_history --seed twelve",
                "missing or invalid value for --seed",
            ),
            ("figures --out", "missing value for --out"),
            // A flag another experiment declares.
            ("figures --mode cross_layer", "figures does not take --mode"),
            ("list --skip-gate", "list takes no arguments"),
        ] {
            assert_eq!(usage_error(line), error, "`{line}`");
        }
        assert!(usage_error("fig99_nothing").starts_with("unknown experiment fig99_nothing"));
        let argv = ["figures".to_owned(), "--bogus".to_owned()];
        assert_eq!(main(&argv, BenchEnv::test()), 2, "usage errors exit 2");
    }

    #[test]
    fn experiment_flags_reach_their_experiment() {
        let (_, args) = parse_line("fig10_recovery --mode cross_layer --seed 20260809").unwrap();
        let (config, cells_only) = recovery::plan(&args).unwrap();
        assert_eq!(config.fault_modes, [recovery::FaultMode::CrossLayer]);
        assert_eq!(config.seed, 20260809);
        assert!(cells_only, "--mode gates on the cell checks alone");
        let (full, cells_only) = recovery::plan(&parse_line("fig10_recovery").unwrap().1).unwrap();
        assert_eq!(full.fault_modes.len(), 3);
        assert!(!cells_only, "the full matrix gates on every check");
        let (_, args) = parse_line("fig10_recovery --mode sideways").unwrap();
        assert!(recovery::plan(&args).unwrap_err().contains("cross_layer"));
    }

    #[test]
    fn a_failing_fig10_cell_narrows_the_replay_to_its_mode() {
        use aft_types::CommitPhase;
        use recovery::{FaultMode, TrialResult};
        // Every fault mode at every commit phase, each cell one clean trial.
        let mut cells = recovery::cells_sheet();
        let trial = TrialResult {
            converged: true,
            ..TrialResult::default()
        };
        for mode in FaultMode::ALL {
            for kill in CommitPhase::ALL {
                let labels = ["Redis", mode.label(), kill.label()].map(str::to_owned);
                cells.push(labels.to_vec(), recovery::cell_row(&[trial]));
            }
        }
        let clean = Report {
            experiment: "fig10_recovery",
            sheets: vec![cells],
            checks: recovery::checks,
        };
        // One anomaly planted in one cell.
        let mut report = clean.clone();
        let cell = ["Redis", "partition", "before_broadcast"];
        let cells = report.sheet_mut("cells");
        cells.set(&cell, "anomalies", 1.0);
        cells.set(&cell, "first_anomaly_trial", 0.0);
        cells.set(&cell, "first_anomaly_step", 42.0);
        let (exp, args) = parse_line("fig10_recovery").unwrap();
        let (config, cells_only) = recovery::plan(&args).unwrap();
        let outcome = recovery::outcome(&config, report, cells_only);
        assert_eq!(
            outcome.report.gate(),
            Err(
                "0 read-atomicity anomalies: Redis/partition/before_broadcast: \
                 anomalies 1, first at step 42 of trial 0"
                    .to_owned()
            )
        );
        assert_eq!(
            replay_line(&exp[0], &args, outcome.seed, &outcome.replay),
            "AFT_BENCH_FAST=1 aft-bench fig10_recovery --seed 988688 --mode partition"
        );
        // A clean report narrows nothing.
        assert!(recovery::outcome(&config, clean, cells_only)
            .replay
            .is_empty());
    }

    #[test]
    fn the_run_stamp_is_appended_and_moves_no_key() {
        let report = Json::obj(vec![
            ("experiment", Json::str("x")),
            ("points", Json::Arr(vec![])),
        ]);
        let Json::Obj(pairs) = stamped(report, &BenchEnv::test(), 0xF1610, Clock::Virtual) else {
            panic!("a stamped report stays an object");
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["experiment", "points", "run"]);
        let run = &pairs[2].1;
        assert_eq!(run.get("fast"), Some(&Json::Bool(true)));
        assert_eq!(run.get("seed").and_then(Json::as_f64), Some(988_688.0));
        assert_eq!(run.get("clock").and_then(Json::as_str), Some("virtual"));
        assert!(run.get("host_cores").and_then(Json::as_f64).is_some());
    }
}
