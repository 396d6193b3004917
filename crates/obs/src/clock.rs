//! Injectable time sources. Every timing decision in the serving stack —
//! span durations, refit backoff, injected stalls, watchdog deadlines —
//! goes through a [`Clock`], so production uses the monotonic system
//! clock while tests substitute a [`SimClock`] they advance by hand.
//! That single seam is what makes the chaos and poison suites
//! deterministic: a "400 ms slow refit" advances virtual time instantly
//! instead of sleeping real wall-time.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotone time source plus the ability to wait on it.
///
/// `now_nanos` is relative to the clock's own epoch (construction time
/// for the production clock, zero for [`SimClock`]); only differences
/// are meaningful. `sleep` blocks the caller in *this clock's* time: the
/// production clock parks the thread, while a virtual clock advances
/// itself and returns immediately.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since this clock's epoch.
    fn now_nanos(&self) -> u64;

    /// Wait for `d` in this clock's time.
    fn sleep(&self, d: Duration);
}

/// How clocks are shared between the service, its shard workers and the
/// refit pool.
pub type SharedClock = Arc<dyn Clock>;

/// Production clock: monotone nanoseconds since construction, real
/// thread sleeps.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A clock whose epoch is the moment of construction.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one real-time read; everything downstream goes through the Clock trait"
    )]
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
        }
    }

    /// The default shared production clock.
    pub fn shared() -> SharedClock {
        Arc::new(Self::new())
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Manually-advanced virtual clock for deterministic tests.
///
/// Starts at zero and only moves when [`SimClock::advance`] is called —
/// including from [`Clock::sleep`], which advances the clock by the
/// requested duration and returns immediately. Cloning shares the
/// underlying instant, so a test and the service it drives observe the
/// same timeline.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
}

impl SimClock {
    /// A virtual clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// This clock as a [`SharedClock`], still advanceable through `self`.
    pub fn shared(&self) -> SharedClock {
        Arc::new(self.clone())
    }

    /// Move virtual time forward by `d`.
    pub fn advance(&self, d: Duration) {
        self.now.fetch_add(d.as_nanos() as u64, Ordering::Release);
    }

    /// Move virtual time forward by `nanos` nanoseconds.
    pub fn advance_nanos(&self, nanos: u64) {
        self.now.fetch_add(nanos, Ordering::Release);
    }
}

impl Clock for SimClock {
    fn now_nanos(&self) -> u64 {
        self.now.load(Ordering::Acquire)
    }

    /// Virtual sleep: advance the clock by `d` and return immediately.
    /// A worker that "sleeps 400 ms" under a `SimClock` therefore costs
    /// no wall-time while still being observable in timestamps.
    fn sleep(&self, d: Duration) {
        self.advance(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_moves_forward() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.now_nanos() > a);
    }

    #[test]
    fn sim_clock_only_moves_when_advanced() {
        let c = SimClock::new();
        assert_eq!(c.now_nanos(), 0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(c.now_nanos(), 0, "virtual time must not follow wall time");
        c.advance(Duration::from_millis(5));
        assert_eq!(c.now_nanos(), 5_000_000);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "holds virtual sleep against wall time"
    )]
    fn sim_clock_sleep_is_instant_and_visible() {
        let c = SimClock::new();
        let start = Instant::now();
        c.sleep(Duration::from_secs(3600));
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "virtual sleep must not block"
        );
        assert_eq!(c.now_nanos(), 3_600_000_000_000);
    }

    #[test]
    fn sim_clock_clones_share_the_timeline() {
        let c = SimClock::new();
        let shared = c.shared();
        c.advance(Duration::from_nanos(42));
        assert_eq!(shared.now_nanos(), 42);
    }
}
