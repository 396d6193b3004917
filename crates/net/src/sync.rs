//! Poison-recovering lock helpers for the serving tier.
//!
//! Node servers share a `RwLock<PredictionService>` across connection
//! handler threads; a panic inside one handler must not wedge the whole
//! node, so every acquisition goes through these helpers (the analysis
//! R4 rule bans bare `.lock()`/`.read()`/`.write()` in this crate).
//! Mutex acquisition reuses [`serve::lock_recover`].

use std::sync::{Condvar, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

pub use serve::lock_recover;

/// Wait on a condvar with a timeout, recovering from poisoning like
/// [`lock_recover`]. Returns the re-acquired guard and whether the wait
/// timed out (spurious wakeups surface as `timed_out == false`; callers
/// must re-check their predicate either way).
pub fn wait_timeout_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cv.wait_timeout(guard, timeout) {
        Ok((g, t)) => (g, t.timed_out()),
        Err(poisoned) => {
            let (g, t) = poisoned.into_inner();
            (g, t.timed_out())
        }
    }
}

/// Acquire a read guard, recovering from poisoning (a panicked writer
/// leaves the data in whatever consistent state it last reached; counters
/// and entity maps tolerate that).
#[expect(clippy::disallowed_methods, reason = "the blessed read path")]
pub fn read_recover<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|p| p.into_inner())
}

/// Acquire a write guard, recovering from poisoning.
#[expect(clippy::disallowed_methods, reason = "the blessed write path")]
pub fn write_recover<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "poisons the lock on purpose")]
    fn recovers_after_writer_panic() {
        let lock = std::sync::Arc::new(RwLock::new(7u32));
        let l2 = lock.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.write().expect("fresh lock");
            panic!("poison it");
        })
        .join();
        assert_eq!(*read_recover(&lock), 7);
        *write_recover(&lock) = 8;
        assert_eq!(*read_recover(&lock), 8);
    }
}
