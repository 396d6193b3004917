//! R10 fixture: a re-export is not a reference.

pub use r10_lib::reexported_only;
