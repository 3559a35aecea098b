//! Examples-only crate; each example is a `[[bin]]` target.
