//! Fleet-level trace generation: machines, the containers placed on them,
//! co-location interference and CSV export. This is the stand-in for
//! downloading Alibaba trace v2018.

use tensor::Rng;
use timeseries::TimeSeriesFrame;

use crate::container::{self, ContainerConfig, WorkloadClass};
use crate::interference::InterferenceModel;
use crate::machine::{self, MachineConfig};

/// Knobs for a synthetic cluster trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    pub num_machines: usize,
    pub containers_per_machine: usize,
    /// Number of samples per entity.
    pub steps: usize,
    /// Sampling interval in seconds (the paper uses 10 s).
    pub interval_secs: u32,
    /// Steps per diurnal period. With 10 s sampling a day is 8640 steps;
    /// experiment-sized traces compress this so periodicity stays visible.
    pub diurnal_period: usize,
    /// Fraction of containers running online services (the rest split
    /// between batch and high-dynamic mixes).
    pub online_fraction: f64,
    pub interference: InterferenceModel,
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            num_machines: 20,
            containers_per_machine: 4,
            steps: 4000,
            interval_secs: 10,
            diurnal_period: 720, // two-hour "days" keep periodicity visible
            online_fraction: 0.4,
            interference: InterferenceModel::default(),
            seed: 2018,
        }
    }
}

/// One monitored entity (machine or container) of the trace.
#[derive(Debug, Clone)]
pub struct EntityTrace {
    /// Identifier in the trace's naming convention (`m_…` / `c_…`).
    pub id: String,
    /// Index of the hosting machine, for containers.
    pub host: Option<usize>,
    pub frame: TimeSeriesFrame,
}

/// A generated cluster trace.
#[derive(Debug, Clone)]
pub struct Trace {
    pub config: TraceConfig,
    pub machines: Vec<EntityTrace>,
    pub containers: Vec<EntityTrace>,
}

impl Trace {
    /// Generate a full trace. Every entity derives its randomness from a
    /// forked, per-entity seed.
    pub fn generate(config: TraceConfig) -> Trace {
        let mut seeder = Rng::seed_from(config.seed);
        // Pre-draw per-machine seeds and mean utilisations, so a machine's
        // series does not depend on how much randomness its neighbours use.
        let machine_plans: Vec<(u64, f32, u64)> = (0..config.num_machines)
            .map(|_| {
                (
                    seeder.fork_seed(),
                    machine::sample_mean_util(&mut seeder),
                    seeder.fork_seed(),
                )
            })
            .collect();

        let per_machine: Vec<(EntityTrace, Vec<EntityTrace>)> = machine_plans
            .iter()
            .enumerate()
            .map(|(mi, &(mseed, mean_util, cseed))| {
                let mcfg = MachineConfig {
                    steps: config.steps,
                    diurnal_period: config.diurnal_period,
                    mean_util,
                    mutation: None,
                    seed: mseed,
                };
                let mframe = machine::generate_machine(&mcfg);
                let host_load = mframe.column("cpu_util_percent").unwrap().to_vec();

                let mut crng = Rng::seed_from(cseed);
                let containers = (0..config.containers_per_machine)
                    .map(|ci| {
                        let class = draw_class(config.online_fraction, &mut crng);
                        let ccfg = ContainerConfig {
                            class,
                            steps: config.steps,
                            diurnal_period: config.diurnal_period,
                            mutation: None,
                            seed: crng.fork_seed(),
                        };
                        let mut frame = container::generate_container(&ccfg);
                        // Co-location interference from the host's load.
                        config
                            .interference
                            .inflate_cpi(frame.column_mut("cpi").unwrap(), &host_load);
                        config
                            .interference
                            .inflate_mpki(frame.column_mut("mpki").unwrap(), &host_load);
                        clamp_unit(frame.column_mut("cpi").unwrap());
                        clamp_unit(frame.column_mut("mpki").unwrap());
                        EntityTrace {
                            id: format!("c_{}", mi * config.containers_per_machine + ci),
                            host: Some(mi),
                            frame,
                        }
                    })
                    .collect();

                (
                    EntityTrace {
                        id: format!("m_{mi}"),
                        host: None,
                        frame: mframe,
                    },
                    containers,
                )
            })
            .collect();

        let mut machines = Vec::with_capacity(config.num_machines);
        let mut containers = Vec::new();
        for (m, cs) in per_machine {
            machines.push(m);
            containers.extend(cs);
        }
        Trace {
            config,
            machines,
            containers,
        }
    }

    /// Fleet CPU matrix `[steps, num_machines]` for the Fig. 2/3 analyses.
    pub fn machine_cpu_matrix(&self) -> Vec<Vec<f32>> {
        self.machines
            .iter()
            .map(|m| m.frame.column("cpu_util_percent").unwrap().to_vec())
            .collect()
    }
}

fn clamp_unit(col: &mut [f32]) {
    for v in col {
        *v = v.clamp(0.0, 1.0);
    }
}

fn draw_class(online_fraction: f64, rng: &mut Rng) -> WorkloadClass {
    if rng.chance(online_fraction) {
        WorkloadClass::OnlineService
    } else if rng.chance(0.5) {
        WorkloadClass::BatchJob
    } else {
        WorkloadClass::HighDynamic
    }
}

/// Convenience: seed-forking helper so parallel entity generation stays
/// deterministic.
trait ForkSeed {
    fn fork_seed(&mut self) -> u64;
}

impl ForkSeed for Rng {
    fn fork_seed(&mut self) -> u64 {
        // Draw a 64-bit seed through two uniform draws.
        let hi = (self.uniform(0.0, 1.0) as f64 * u32::MAX as f64) as u64;
        let lo = (self.uniform(0.0, 1.0) as f64 * u32::MAX as f64) as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TraceConfig {
        TraceConfig {
            num_machines: 3,
            containers_per_machine: 2,
            steps: 600,
            ..TraceConfig::default()
        }
    }

    #[test]
    fn generation_produces_expected_counts() {
        let t = Trace::generate(tiny());
        assert_eq!(t.machines.len(), 3);
        assert_eq!(t.containers.len(), 6);
        for e in t.machines.iter().chain(&t.containers) {
            assert_eq!(e.frame.len(), 600);
            assert_eq!(e.frame.num_columns(), 8);
            assert!(e.frame.is_clean());
        }
    }

    #[test]
    fn containers_know_their_host() {
        let t = Trace::generate(tiny());
        for (i, c) in t.containers.iter().enumerate() {
            assert_eq!(c.host, Some(i / 2));
            assert!(c.id.starts_with("c_"));
        }
        assert!(t.machines.iter().all(|m| m.host.is_none()));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Trace::generate(tiny());
        let b = Trace::generate(tiny());
        assert_eq!(a.machines[0].frame, b.machines[0].frame);
        assert_eq!(a.containers[3].frame, b.containers[3].frame);
        let c = Trace::generate(TraceConfig { seed: 99, ..tiny() });
        assert_ne!(a.machines[0].frame, c.machines[0].frame);
    }

    #[test]
    fn fleet_is_mostly_underutilised() {
        let cfg = TraceConfig {
            num_machines: 40,
            steps: 800,
            ..TraceConfig::default()
        };
        let t = Trace::generate(cfg);
        let means: Vec<f64> = t
            .machine_cpu_matrix()
            .iter()
            .map(|cpu| tensor::stats::mean(cpu))
            .collect();
        let below_half = means.iter().filter(|&&m| m < 0.5).count();
        assert!(
            below_half as f64 / means.len() as f64 > 0.6,
            "only {below_half}/40 machines under 50% mean CPU"
        );
    }

    #[test]
    fn interference_raises_container_cpi_on_busy_hosts() {
        // Compare the same container seed with and without interference by
        // zeroing the model's strengths.
        let base_cfg = TraceConfig {
            interference: InterferenceModel {
                cpi_alpha: 0.0,
                mpki_alpha: 0.0,
            },
            ..tiny()
        };
        let quiet = Trace::generate(base_cfg.clone());
        let noisy = Trace::generate(TraceConfig {
            interference: InterferenceModel {
                cpi_alpha: 2.0,
                mpki_alpha: 2.0,
            },
            ..base_cfg
        });
        let q_mean = tensor::stats::mean(quiet.containers[0].frame.column("cpi").unwrap());
        let n_mean = tensor::stats::mean(noisy.containers[0].frame.column("cpi").unwrap());
        assert!(
            n_mean > q_mean,
            "interference had no effect: {q_mean} vs {n_mean}"
        );
    }
}
