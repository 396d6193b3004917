//! Output: the lines one run prints, the orchestrator that runs each
//! workload in a child process, the stored results, and the `--repeat`
//! spread table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::host::Host;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::scenario::{output_dir, run_end_to_end, run_traced, Workload};
use crate::stats::{median, quartiles};
use crate::Args;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit)
}

/// Run one workload in this process and print its metrics as
/// `workload metric value unit n=samples`, then notes, then the result
/// line. Returns whether every output check held.
pub fn run_single(args: &Args, workload: Workload, traced: bool) -> bool {
    if let Some(ok) = crate::host::rerun_on_one_cpu() {
        return ok;
    }
    let seconds = if args.quick {
        (args.seconds / 10).max(1)
    } else {
        args.seconds
    };
    let started = Instant::now();
    let mut out = if traced {
        run_traced(workload, args.seed, seconds, args.quick)
    } else {
        run_end_to_end(workload, args.seed, seconds, args.quick)
    };
    let wall = started.elapsed().as_secs_f64();
    let w = workload.name();
    let catalogue: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut json_metrics = String::new();
    for name in &catalogue {
        let found = out.metrics.iter().find(|m| m.name == *name);
        let (mut value, samples) = found.map_or((f64::NAN, 0), |m| (m.value, m.samples));
        if !value.is_finite() {
            out.checks
                .error(format!("{name} has no finite value ({value})"));
            value = 0.0;
        }
        let unit = unit_of(name);
        println!("{w} {name} {value} {unit} n={samples}");
        let sep = if json_metrics.is_empty() { "" } else { ", " };
        let _ = write!(
            json_metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    let checks = &out.checks;
    let failed_share = checks.failed as f64 / checks.attempted.max(1) as f64;
    println!(
        "{w} failed_share {failed_share} share n={}",
        checks.attempted
    );
    for note in &out.notes {
        println!("# {w}: {note}");
    }
    let ops: Vec<String> = out.ops.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "# {w}: ops {} seed={} seconds={seconds}{}",
        ops.join(" "),
        args.seed,
        if args.quick {
            " QUICK (smoke run: op counts cut tenfold, figures not comparable)"
        } else {
            ""
        }
    );
    println!(
        "# {w}: wall {wall:.2} s ({}, {})",
        if traced { "traced" } else { "untraced" },
        match crate::host::pinned_cpu() {
            Some(cpu) => format!("on cpu {cpu} only"),
            None => "NOT PINNED: taskset did not start".into(),
        }
    );
    for e in &checks.errors {
        println!("# {w}: CHECK FAILED: {e}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json_metrics}}}}}",
        checks.correct(),
        checks.attempted.max(1),
        checks.failed
    );
    checks.correct()
}

/// What the orchestrator keeps of one child run.
struct ChildRun {
    workload: Workload,
    traced: bool,
    wall_s: f64,
    ok: bool,
    /// Whether the run had one CPU (its `wall` line says when it had not).
    one_cpu: bool,
    /// `metric -> (value, unit, samples)`.
    metrics: BTreeMap<String, (f64, String, String)>,
}

/// Run one workload in a child process of this executable, echo its
/// output and parse its metric lines.
fn run_child(args: &Args, workload: Workload, traced: bool) -> ChildRun {
    let exe = std::env::current_exe().expect("own executable path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let started = Instant::now();
    let mut child = command.spawn().expect("child process starts");
    let stdout = child.stdout.take().expect("child stdout is piped");
    let mut metrics = BTreeMap::new();
    let mut one_cpu = true;
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        one_cpu &= !line.contains("NOT PINNED");
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if let [w, name, value, unit, samples] = tokens[..] {
            if w == workload.name() {
                if let Ok(value) = value.parse::<f64>() {
                    let samples = samples.trim_start_matches("n=").to_string();
                    metrics.insert(name.to_string(), (value, unit.to_string(), samples));
                }
            }
        }
        if !line.starts_with('{') {
            println!("{line}");
        }
    }
    let status = child.wait().expect("child process ends");
    ChildRun {
        workload,
        traced,
        wall_s: started.elapsed().as_secs_f64(),
        ok: status.success(),
        one_cpu,
        metrics,
    }
}

fn results_json(args: &Args, host: &Host, runs: &[ChildRun]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{\n  \"host\": {},", host.to_json());
    let _ = writeln!(
        s,
        "  \"seed\": {}, \"seconds\": {}, \"quick\": {},\n  \"runs\": [",
        args.seed, args.seconds, args.quick
    );
    for (i, run) in runs.iter().enumerate() {
        let metrics: Vec<String> = run
            .metrics
            .iter()
            .map(|(name, (value, unit, samples))| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\", \"samples\": {samples}}}")
            })
            .collect();
        let sep = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"traced\": {}, \"wall_s\": {:.3}, \"correct\": {}, \"one_cpu\": {}, \"metrics\": {{{}}}}}{sep}",
            run.workload.name(),
            run.traced,
            run.wall_s,
            run.ok,
            run.one_cpu,
            metrics.join(", ")
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Per end-to-end metric and workload: median, quartiles, and the spread
/// of the sets against the metric's bound. Returns whether every spread
/// stayed inside.
fn spread_table(runs: &[ChildRun], workloads: &[Workload]) -> bool {
    println!("# spread over sets: workload metric median q1 q3 iqr/median (max-min)/median bound");
    let mut inside = true;
    for &w in workloads {
        for m in END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == w && !r.traced)
                .filter_map(|r| r.metrics.get(m.name).map(|v| v.0))
                .collect();
            let Some((q1, _, q3)) = quartiles(&values) else {
                continue;
            };
            let mid = median(&values);
            let max = values.iter().cloned().fold(f64::MIN, f64::max);
            let min = values.iter().cloned().fold(f64::MAX, f64::min);
            let range = (max - min) / mid.abs().max(f64::MIN_POSITIVE);
            let outside = range > m.bound;
            inside &= !outside;
            println!(
                "{} {} {mid} {q1} {q3} {:.4} {range:.4} {}{}",
                w.name(),
                m.name,
                (q3 - q1) / mid.abs().max(f64::MIN_POSITIVE),
                m.bound,
                if outside { "  OUTSIDE" } else { "" }
            );
        }
    }
    inside
}

/// Print the host envelope, run every selected workload in child
/// processes, store the results and (with `--repeat`) gate on the spread.
pub fn orchestrate(args: &Args) -> bool {
    let host = Host::describe();
    println!("# host git_rev={} cpu=\"{}\"", host.git_rev, host.cpu_model);
    println!(
        "# host nproc={} available_parallelism={} gemm_tier={}",
        host.nproc, host.available_parallelism, host.gemm_tier
    );
    println!(
        "# run seed={} seconds={} repeat={}{}",
        args.seed,
        args.seconds,
        args.repeat,
        if args.quick {
            " QUICK (smoke run only)"
        } else {
            ""
        }
    );
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes: &[bool] = match (args.repeat > 0, args.traced_only) {
        (true, _) => &[false],
        (false, true) => &[true],
        (false, false) => &[false, true],
    };
    let mut runs = Vec::new();
    for _ in 0..args.repeat.max(1) {
        for &w in &workloads {
            for &traced in passes {
                runs.push(run_child(args, w, traced));
            }
        }
    }
    for run in &runs {
        println!(
            "# wall {} {} {:.2} s{}",
            run.workload.name(),
            if run.traced { "traced" } else { "untraced" },
            run.wall_s,
            if run.ok { "" } else { "  FAILED" }
        );
    }
    let mut ok = runs.iter().all(|r| r.ok);
    let dir = output_dir();
    let stored = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("results.json"), results_json(args, &host, &runs)));
    match stored {
        Ok(()) => println!("# results stored in {}", dir.join("results.json").display()),
        Err(e) => {
            println!("# storing results failed: {e}");
            ok = false;
        }
    }
    if args.repeat > 1 {
        ok &= spread_table(&runs, &workloads);
    }
    ok
}
