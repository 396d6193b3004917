//! The host envelope: which machine and which commit produced a set of
//! numbers. Printed first and stored with the results.

use std::fs;
use std::process::Command;

pub struct Host {
    pub git_rev: String,
    pub cpu_model: String,
    /// Processors the OS lists.
    pub nproc: usize,
    /// Threads this process may run at once (cgroup/affinity aware).
    pub available_parallelism: usize,
    pub gemm_tier: &'static str,
}

/// Current commit, read from `.git` by hand (no `git` needed); a driver
/// checkout is not a repository ("unknown").
fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn cpuinfo() -> (String, usize) {
    let text = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = text
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown".to_string(), |m| m.trim().to_string());
    let nproc = text.lines().filter(|l| l.starts_with("processor")).count();
    (model, nproc)
}

impl Host {
    pub fn describe() -> Host {
        let (cpu_model, nproc) = cpuinfo();
        let available_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host {
            git_rev: git_rev(),
            cpu_model,
            nproc: nproc.max(1),
            available_parallelism,
            gemm_tier: tensor::gemm::active_tier().name(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"cpu_model\": \"{}\", \"nproc\": {}, \"available_parallelism\": {}, \"gemm_tier\": \"{}\"}}",
            self.git_rev,
            self.cpu_model.replace('"', "'"),
            self.nproc,
            self.available_parallelism,
            self.gemm_tier
        )
    }
}

/// Set in a process that [`rerun_on_one_cpu`] started: the CPU it runs on.
const PINNED_ENV: &str = "RPTCN_BENCHMARK_CPU";

/// The CPU this process was pinned to by [`rerun_on_one_cpu`], if it was.
pub fn pinned_cpu() -> Option<usize> {
    std::env::var(PINNED_ENV).ok()?.parse().ok()
}

/// The last CPU this process may run on (`Cpus_allowed_list` ends with
/// `..-N` or `..,N`).
fn last_allowed_cpu() -> Option<usize> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?
        .split(':')
        .nth(1)?
        .trim();
    list.rsplit([',', '-']).next()?.parse().ok()
}

/// Run this executable again with the same arguments under `taskset`, on
/// one CPU, and wait for it; its output goes where ours would. `None` when
/// this process is already such a child, or when `taskset` cannot be
/// started (the caller then runs the workload itself, unpinned);
/// otherwise whether the child succeeded.
///
/// A request is a serial chain of thread hand-offs (client, socket,
/// connection thread, shard, and back). Spread over the vCPUs of a shared
/// VM every hand-off wakes a halted vCPU, which costs 10-40 us depending
/// on the hypervisor's mood and is up to four fifths of the request; on
/// one CPU a hand-off is a context switch and the figure is the program's.
pub fn rerun_on_one_cpu() -> Option<bool> {
    if pinned_cpu().is_some() {
        return None;
    }
    let cpu = last_allowed_cpu()?;
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, cpu.to_string())
        .status()
        .ok()?;
    Some(status.success())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
