//! Deterministic, seeded fault injection for chaos-testing the serving
//! stack. A [`FaultPlan`] is built by a test (or a staging harness), handed
//! to [`ServiceConfig::faults`](crate::ServiceConfig), and consulted by the
//! shard workers and the refit pool at well-defined points:
//!
//! - **Poisoned samples**: corrupt a fraction of an entity's ingested
//!   samples with `NaN` *before* validation, exercising the repair /
//!   quarantine guardrails.
//! - **Panicking models**: unwind the shard worker while it processes a
//!   chosen entity's forecast, exercising supervision and restart.
//! - **Failing / slow refits**: make background refits for an entity fail
//!   permanently or sleep before training, exercising retry, backoff and
//!   timeout handling.
//! - **Queue saturation**: stall a shard for a duration per message so
//!   bounded queues fill and backpressure fires.
//!
//! All randomness derives from the plan's seed plus per-entity counters
//! (splitmix64), so a chaos run replays bit-identically.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::router::entity_hash;
use crate::stats::lock_recover;

/// What the refit pool should do with a job for a planned entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RefitFault {
    /// Every attempt fails (training is skipped and reported failed).
    Fail,
    /// Sleep this long before each training attempt (drives timeouts).
    Slow(Duration),
}

#[derive(Debug)]
struct PoisonRule {
    /// Fraction of this entity's samples to corrupt (0.0–1.0).
    rate: f64,
    /// Samples seen so far — the deterministic RNG counter.
    seen: u64,
}

#[derive(Debug, Default)]
struct Inner {
    seed: u64,
    poison: Mutex<HashMap<String, PoisonRule>>,
    /// Entity → remaining forecast-time panics.
    panic_forecast: Mutex<HashMap<String, u32>>,
    refit: Mutex<HashMap<String, RefitFault>>,
    /// Shard → (per-message stall, remaining stalled messages).
    stall: Mutex<HashMap<usize, (Duration, u32)>>,
}

/// A reproducible schedule of faults to inject into a
/// [`PredictionService`](crate::PredictionService).
///
/// Cloning is cheap and shares the underlying state, so the service and
/// the test observe the same remaining-fault budgets.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    inner: Arc<Inner>,
}

impl FaultPlan {
    /// An empty plan with a deterministic seed.
    // lint: allow(r10) fault injection: the empty plan every chaos suite starts from
    pub fn seeded(seed: u64) -> Self {
        Self {
            inner: Arc::new(Inner {
                seed,
                ..Inner::default()
            }),
        }
    }

    /// Corrupt `rate` (0.0–1.0) of `entity`'s ingested samples with `NaN`
    /// before shard-boundary validation runs.
    // lint: allow(r10) fault injection: chaos.rs poisons an entity's samples
    pub fn poison_entity(self, entity: &str, rate: f64) -> Self {
        lock_recover(&self.inner.poison).insert(
            entity.to_string(),
            PoisonRule {
                rate: rate.clamp(0.0, 1.0),
                seen: 0,
            },
        );
        self
    }

    /// Panic the shard worker the next `times` times it forecasts for
    /// `entity` — simulating a model whose panic escapes into the worker.
    // lint: allow(r10) fault injection: chaos.rs and batched_forecasts.rs crash a shard worker
    pub fn panic_on_forecast(self, entity: &str, times: u32) -> Self {
        lock_recover(&self.inner.panic_forecast).insert(entity.to_string(), times);
        self
    }

    /// Make every background refit for `entity` fail.
    // lint: allow(r10) fault injection: chaos.rs fails an entity's refits
    pub fn fail_refit(self, entity: &str) -> Self {
        lock_recover(&self.inner.refit).insert(entity.to_string(), RefitFault::Fail);
        self
    }

    /// Delay every background refit attempt for `entity` by `delay`
    /// (drives the per-entity refit timeout).
    // lint: allow(r10) fault injection: chaos.rs drives the refit timeout
    pub fn slow_refit(self, entity: &str, delay: Duration) -> Self {
        lock_recover(&self.inner.refit).insert(entity.to_string(), RefitFault::Slow(delay));
        self
    }

    /// Stall `shard` for `delay` on each of its next `messages` messages,
    /// saturating its bounded queue.
    // lint: allow(r10) fault injection: chaos.rs and cluster_failover.rs saturate a shard queue
    pub fn stall_shard(self, shard: usize, delay: Duration, messages: u32) -> Self {
        lock_recover(&self.inner.stall).insert(shard, (delay, messages));
        self
    }

    /// Hook: possibly corrupt `sample` for `entity`. Returns `true` when a
    /// value was poisoned. Deterministic in (seed, entity, sample index).
    pub(crate) fn corrupt_sample(&self, entity: &str, sample: &mut [f32]) -> bool {
        let mut poison = lock_recover(&self.inner.poison);
        let Some(rule) = poison.get_mut(entity) else {
            return false;
        };
        let draw = splitmix64(
            self.inner
                .seed
                .wrapping_add(entity_hash(entity))
                .wrapping_add(rule.seen.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        rule.seen += 1;
        if sample.is_empty() || (draw >> 11) as f64 / (1u64 << 53) as f64 >= rule.rate {
            return false;
        }
        let idx = (splitmix64(draw) % sample.len() as u64) as usize;
        sample[idx] = f32::NAN;
        true
    }

    /// Hook: should the shard panic while forecasting `entity`? Consumes
    /// one unit of the panic budget.
    pub(crate) fn take_forecast_panic(&self, entity: &str) -> bool {
        let mut panics = lock_recover(&self.inner.panic_forecast);
        match panics.get_mut(entity) {
            Some(left) if *left > 0 => {
                *left -= 1;
                true
            }
            _ => false,
        }
    }

    /// Deliberately unwind to emulate a model crash mid-forecast. The
    /// panic lives here — not on the serving path — so `shard.rs` stays
    /// free of panicking macros; the supervisor catches the unwind and
    /// degrades the entity exactly like a real model crash.
    #[expect(
        clippy::panic,
        reason = "the injected fault itself; unwinding is this fn's contract"
    )]
    pub(crate) fn forecast_panic_now(entity: &str) -> ! {
        panic!("fault injection: model panic while forecasting `{entity}`")
    }

    /// Hook: the planned fault for a refit of `entity`, if any.
    pub(crate) fn refit_fault(&self, entity: &str) -> Option<RefitFault> {
        lock_recover(&self.inner.refit).get(entity).copied()
    }

    /// Hook: how long shard `shard` should stall on the current message.
    pub(crate) fn message_stall(&self, shard: usize) -> Option<Duration> {
        let mut stall = lock_recover(&self.inner.stall);
        match stall.get_mut(&shard) {
            Some((delay, left)) if *left > 0 => {
                *left -= 1;
                Some(*delay)
            }
            _ => None,
        }
    }
}

/// splitmix64: tiny, high-quality mixing function — the standard choice
/// for deriving independent deterministic streams from a seed.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoning_is_deterministic_per_seed() {
        let corrupt_pattern = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::seeded(seed).poison_entity("c_1", 0.5);
            (0..64)
                .map(|_| {
                    let mut s = vec![1.0f32, 2.0, 3.0];
                    plan.corrupt_sample("c_1", &mut s)
                })
                .collect()
        };
        let a = corrupt_pattern(7);
        let b = corrupt_pattern(7);
        let c = corrupt_pattern(8);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((10..=54).contains(&hits), "rate 0.5 wildly off: {hits}/64");
    }

    #[test]
    fn full_rate_poisons_every_sample_with_nan() {
        let plan = FaultPlan::seeded(1).poison_entity("e", 1.0);
        for _ in 0..16 {
            let mut s = vec![1.0f32, 2.0];
            assert!(plan.corrupt_sample("e", &mut s));
            assert!(s.iter().any(|v| v.is_nan()));
        }
        // Unplanned entities are untouched.
        let mut s = vec![1.0f32];
        assert!(!plan.corrupt_sample("other", &mut s));
        assert_eq!(s, vec![1.0]);
    }

    #[test]
    fn panic_budget_is_consumed() {
        let plan = FaultPlan::seeded(0).panic_on_forecast("e", 2);
        assert!(plan.take_forecast_panic("e"));
        assert!(plan.take_forecast_panic("e"));
        assert!(!plan.take_forecast_panic("e"));
        assert!(!plan.take_forecast_panic("other"));
    }

    #[test]
    fn refit_faults_and_stalls_are_scoped() {
        let plan = FaultPlan::seeded(0)
            .fail_refit("bad")
            .slow_refit("slow", Duration::from_millis(5))
            .stall_shard(1, Duration::from_millis(2), 1);
        assert_eq!(plan.refit_fault("bad"), Some(RefitFault::Fail));
        assert_eq!(
            plan.refit_fault("slow"),
            Some(RefitFault::Slow(Duration::from_millis(5)))
        );
        assert_eq!(plan.refit_fault("fine"), None);
        assert_eq!(plan.message_stall(1), Some(Duration::from_millis(2)));
        assert_eq!(plan.message_stall(1), None, "stall budget exhausted");
        assert_eq!(plan.message_stall(0), None);
    }

    #[test]
    fn clones_share_fault_budgets() {
        let plan = FaultPlan::seeded(0).panic_on_forecast("e", 1);
        let clone = plan.clone();
        assert!(clone.take_forecast_panic("e"));
        assert!(!plan.take_forecast_panic("e"));
    }
}
