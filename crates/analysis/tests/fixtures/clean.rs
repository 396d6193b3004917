//! Clean fixture: every rule satisfied at once — allocation-free hot
//! paths, locks taken in one order, one live allowlist entry and a test
//! module (exempt from every rule).

use std::sync::{Mutex, MutexGuard};

/// Two independently locked fields.
pub struct Pair {
    left: Mutex<Vec<f32>>,
    right: Mutex<Vec<f32>>,
}

impl Pair {
    /// Takes `left` then `right`, the only order in this file.
    pub fn both(&self) -> usize {
        let l = lock_recover(&self.left);
        let r = lock_recover(&self.right);
        l.len() + r.len()
    }

    /// Takes `right` alone.
    pub fn right(&self) -> usize {
        lock_recover(&self.right).len()
    }
}

/// Poison-recovering lock helper, mirroring `serve::stats::lock_recover`.
pub fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// hot-path: per-sample scoring, must not allocate
/// Sum of the window.
pub fn score(xs: &[f32]) -> f32 {
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
    }
    acc
}

// hot-path: one copy per call is this fn's contract
/// A copy of the window; the allowlist entry below is live.
pub fn snapshot(xs: &[f32]) -> Vec<f32> {
    xs.to_vec() // lint: allow(r3) — the copy is the result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_modules_are_exempt() {
        let v = vec![1.0f32];
        assert_eq!(score(&v), 1.0);
    }
}
