//! R9 fixture: one live marker, one stale marker, one unknown rule id and
//! the marker of a rule the compiler checks now.

// hot-path: the marker below genuinely suppresses R3
pub fn take(xs: &[f32]) -> Vec<f32> {
    xs.to_vec() // lint: allow(r3) — fixture-blessed copy
}

/// Nothing on this line violates anything; the marker is stale.
pub fn quiet() -> u32 {
    7 // lint: allow(r3) — silences nothing
}

/// Unknown rule ids are typos, not suppressions.
pub fn typo() -> u32 {
    9 // lint: allow(r42)
}

/// R2 is `clippy::unwrap_used` now: its marker names no rule here.
pub fn moved(v: Option<u32>) -> u32 {
    v.unwrap() // lint: allow(r2)
}
