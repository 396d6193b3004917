//! R10 fixture, the library file: which `pub fn`s a walk from the roots
//! (`r10_example.rs`, `r10_bin.rs`) reaches.

/// Called by nothing but this file's unit test: a finding.
pub fn only_unit_tested() -> u32 {
    1
}

/// Named by a `pub use` in `r10_facade.rs` and nowhere else: a finding.
pub fn reexported_only() -> u32 {
    2
}

/// Called from the example's `main`.
pub fn called_from_example() -> u32 {
    first_hop()
}

/// Called from the bin's `main`.
pub fn called_from_bin() -> u32 {
    3
}

/// One hop from a root (through `called_from_example`).
pub fn first_hop() -> u32 {
    second_hop()
}

/// Two hops from a root.
pub fn second_hop() -> u32 {
    4
}

/// Unreached, and kept on purpose.
// lint: allow(r10) test: an integration suite drives this hook
pub fn kept_for_tests() -> u32 {
    under_kept()
}

/// Reached only through `kept_for_tests`: the marker above covers it.
pub fn under_kept() -> u32 {
    5
}

/// Reached from the example, so its marker silences nothing (R9).
// lint: allow(r10) test: stale, the example calls this
pub fn live_but_marked() -> u32 {
    6
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unreached like its subject, but test modules are not audited.
    pub fn helper() -> u32 {
        only_unit_tested()
    }

    #[test]
    fn unit_test_is_not_a_caller() {
        assert_eq!(helper(), 1);
    }
}
