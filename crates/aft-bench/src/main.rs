//! `aft-bench <experiment> [flags]` — see [`aft_bench::cli`].

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(aft_bench::cli::main(
        &argv,
        aft_bench::setup::BenchEnv::from_env(),
    ));
}
