//! The repo's one benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! aft-benchmark                       every workload, both passes, each in its own process
//! aft-benchmark --workload W --seed N --seconds S --trace 0|1
//!                                     one pass set over one workload; the last line of
//!                                     standard output is the result as one JSON object
//! aft-benchmark --check               smoke mode: every workload at about 1% of its count
//! aft-benchmark aa [--runs R] [--seed N] [--seconds S]
//!                                     same-code agreement: two alternating sets of R runs
//! aft-benchmark --manifest            prints BENCHMARK.json
//! ```

mod analysis;
mod host;
mod large;
mod layers;
mod metrics;
mod modes;
mod report;
mod run;
mod spec;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// Default `--seed`; also the first of the seeds `aa` uses.
pub const DEFAULT_SEED: u64 = 20_200_427;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Multiplier on every count; `--check` runs at 0.01.
    pub scale: f64,
    pub runs: usize,
    /// Internal: set up once, print how long it took, and exit.
    pub setup_only: bool,
}

fn parse(mut argv: std::env::Args) -> Result<(Option<String>, Args), String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: metrics::RUN_SECONDS,
        trace: false,
        scale: 1.0,
        runs: 5,
        setup_only: false,
    };
    let mut mode = None;
    argv.next();
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--scale" => {
                args.scale = value("--scale")?
                    .parse()
                    .map_err(|e| format!("--scale: {e}"))?
            }
            "--runs" => {
                args.runs = value("--runs")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--setup-only" => args.setup_only = true,
            "--check" | "--manifest" | "aa" => mode = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 || args.scale <= 0.0 || args.runs == 0 {
        return Err("--seconds, --scale and --runs must be positive".to_owned());
    }
    Ok((mode, args))
}

fn main() -> ExitCode {
    let (mode, args) = match parse(std::env::args()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("aft-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (mode.as_deref(), &args.workload) {
        (Some("--manifest"), _) => {
            print!("{}", metrics::manifest());
            Ok(())
        }
        (Some("--check"), _) => modes::check(),
        (Some("aa"), _) => modes::agreement(&args),
        (_, Some(name)) => match spec::Spec::by_name(name) {
            Some(spec) => report::run_one(spec, &args),
            None => Err(format!("unknown workload {name}")),
        },
        (_, None) => modes::all(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("aft-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
