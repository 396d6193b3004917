//! CLI driver: `rptcn-analysis check [--root DIR]` walks the workspace,
//! prints `file:line: [Rn] message` diagnostics and exits non-zero when
//! any rule fires — wired into CI as the `analysis` job.
//! `rptcn-analysis rules` prints the rule catalogue.

// R2: no panics outside tests.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
// R5: documented public API.
#![warn(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use analysis::{check_workspace, Rule};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    match cmd.as_str() {
        "check" => {
            let mut root = PathBuf::from(".");
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => {
                        let Some(dir) = args.next() else {
                            eprintln!("--root needs a directory argument");
                            return ExitCode::from(2);
                        };
                        root = PathBuf::from(dir);
                    }
                    other => {
                        eprintln!("unknown argument `{other}`");
                        return usage();
                    }
                }
            }
            let diags = match check_workspace(&root) {
                Ok(d) => d,
                Err(e) => {
                    eprintln!(
                        "rptcn-analysis: cannot walk workspace at `{}`: {e}",
                        root.display()
                    );
                    return ExitCode::from(2);
                }
            };
            for d in &diags {
                println!("{d}");
            }
            if diags.is_empty() {
                eprintln!("rptcn-analysis: workspace clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("rptcn-analysis: {} finding(s)", diags.len());
                ExitCode::FAILURE
            }
        }
        "rules" => {
            for rule in Rule::all() {
                println!("{}: {}", rule.id(), rule.describe());
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: rptcn-analysis <check [--root DIR] | rules>");
    ExitCode::from(2)
}
