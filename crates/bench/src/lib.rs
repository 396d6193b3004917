//! # bench_harness — shared machinery for the experiment binaries
//!
//! Every table and figure of the paper has a binary in `src/bin/`; this
//! library keeps them thin:
//!
//! * [`args`] — common `--seed/--steps/--entities/--quick/--out` flags.
//! * [`runners`] — standard datasets (containers, machines, the Fig. 8
//!   mutation machine, the fleet), model construction and per-cell runs.
//! * [`table`] — aligned text tables + CSV export.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `fig1_traces` | Fig. 1 — high-dynamic container utilisation |
//! | `fig2_cpu_boxplot` | Fig. 2 — fleet CPU boxplot per 6 h |
//! | `fig3_underused` | Fig. 3 — % machines below 50 % CPU |
//! | `fig7_correlation` | Fig. 7 — indicator PCC matrix + top-4 |
//! | `table2_accuracy` | Table II — MSE/MAE for all models × scenarios |
//! | `fig8_pred_vs_true` | Fig. 8 — predictions across a mutation point |
//! | `fig9_10_convergence` | Figs. 9–10 — loss convergence curves |
//! | `ablation_components` | FC / attention contribution (§V-C) |
//! | `ablation_expansion` | expansion variants (§III-C, §V-C) |
//! | `ablation_receptive_field` | kernel/level sweep (§V-C) |
//! | `ablation_vertical_vs_horizontal` | Fig. 4a vs 4b at fixed history |
//! | `ablation_horizon` | multi-step k = 1/3/6 (Algorithm 1 output) |
//! | `table2_extended` | full model zoo incl. GRU/ETS/Linear/TCN/Naive |

pub mod args;
pub mod runners;
pub mod table;

pub use args::ExperimentArgs;
pub use runners::ModelKind;
pub use table::TextTable;

/// The machine a report's figures were taken on, as a JSON object: CPU
/// model, the threads this process may run at once, and RAM.
pub fn host_json() -> String {
    let field = |path: &str, key: &str| {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split(':').nth(1))
            .map_or("unknown".to_string(), |v| v.trim().replace('"', "'"))
    };
    format!(
        "{{\"cpu_model\": \"{}\", \"available_parallelism\": {}, \"mem_total\": \"{}\"}}",
        field("/proc/cpuinfo", "model name"),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        field("/proc/meminfo", "MemTotal"),
    )
}
