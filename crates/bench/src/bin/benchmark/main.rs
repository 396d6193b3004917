//! The repo's benchmark: four workloads, thirteen bounded end-to-end
//! metrics (plus `failed_share`, carried as attempted/failed counts) and
//! a per-layer table. See `README.md` beside this file.
//!
//! ```text
//! benchmark [--seed N] [--seconds S] [--workload W] [--quick] [--traced] [--repeat N]
//! benchmark --workload W --seed N --seconds S --trace 0|1      one run, result line last
//! ```
//!
//! Without `--trace` the process only orchestrates: it prints the host
//! envelope and runs every workload in a child process of its own (the
//! second form), so arenas, thread pools and peak RSS never leak from one
//! workload into the next. The second form starts itself once more under
//! `taskset`, on one CPU (see `host::rerun_on_one_cpu`).

mod host;
mod inputs;
mod layers;
mod metrics;
mod report;
mod scenario;
mod stats;
mod targets;
mod trace;

use std::process::ExitCode;

use scenario::Workload;

pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub workload: Option<Workload>,
    /// `Some` selects the single-run form.
    pub trace: Option<bool>,
    pub quick: bool,
    pub traced_only: bool,
    pub repeat: usize,
}

const USAGE: &str =
    "flags: --seed <u64> --seconds <n> --workload <fleet_rptcn|fleet_wire|serve_local|train_eval> \
--quick --traced --repeat <n> | --trace <0|1> (one run of one workload) | --print-benchmark-json";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 2018,
        seconds: metrics::RUN_SECONDS,
        workload: None,
        trace: None,
        quick: false,
        traced_only: false,
        repeat: 0,
    };
    let mut it = argv;
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--quick" => args.quick = true,
            "--traced" => args.traced_only = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if args.seconds == 0 || args.seconds > 600 {
        return Err("--seconds must be between 1 and 600".into());
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace runs one workload: name it with --workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.trace, args.workload) {
        (Some(traced), Some(workload)) => report::run_single(&args, workload, traced),
        _ => report::orchestrate(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
