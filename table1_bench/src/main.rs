//! Table 1 benchmark for ReStore.
//!
//! ```text
//! table1_bench --workload NAME --seed N --seconds S --trace 0|1
//! table1_bench steady --workload NAME --runs K [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The first form runs one workload (`table1_build`, `serve_warm`,
//! `serve_cold`, `fleet_rebuild`) and prints, as its last line, one JSON
//! object with `correct`, `attempted`, `failed` and the metrics: the
//! end-to-end ones untraced, the per-layer ones with `--trace 1`. The
//! second runs the first K times with seeds N, N+1, … and prints each
//! metric's median, quartiles and spreads. See README.md.

mod build;
mod checks;
mod child;
mod fleet;
mod layers;
mod procfs;
mod replay;
mod report;
mod serve;
mod stats;
mod steady;
mod tenants;
mod trace;
mod workload;

use std::process::ExitCode;

use workload::Workload;

const USAGE: &str = "usage: table1_bench --workload NAME --seed N --seconds S --trace 0|1\n\
                     \x20      table1_bench steady --workload NAME --runs K [--seed N] [--seconds S] [--trace 0|1]\n\
                     workloads: table1_build serve_warm serve_cold fleet_rebuild";

struct Args {
    steady: bool,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        steady: false,
        workload: Workload::Build,
        seed: 7,
        seconds: 10,
        trace: false,
        runs: 10,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "steady" => args.steady = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--runs" => args.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if args.seconds == 0 || args.runs < 2 {
        return Err("--seconds must be positive and --runs at least 2".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("table1_bench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("table1_bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_context());
    if args.steady {
        return match steady::run(
            args.workload,
            args.runs,
            args.seed,
            args.seconds,
            args.trace,
        ) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("table1_bench steady: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = match args.workload {
        Workload::Build => build::run(args.seed, args.seconds, args.trace),
        Workload::ServeWarm | Workload::ServeCold => {
            serve::run(args.workload, args.seed, args.seconds, args.trace)
        }
        Workload::Fleet => fleet::run(args.seed, args.seconds, args.trace),
    };
    let expected: &[(&str, &str)] = if args.trace {
        &layers::PER_LAYER
    } else {
        &report::END_TO_END
    };
    match result.and_then(|o| o.check_metric_set(expected).map(|()| o)) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            for e in &outcome.check_errors {
                println!("check failed: {e}");
            }
            println!("{}", outcome.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("table1_bench {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}
