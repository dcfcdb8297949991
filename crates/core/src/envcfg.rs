//! Shared environment-variable parsing with the one-time-warning
//! discipline.
//!
//! Every numeric knob in this crate (`EGEMM_THREADS`,
//! `EGEMM_CACHE_BYTES`, `EGEMM_PROBE_RATE`, `EGEMM_JIT`) follows the
//! same contract: the variable is read once, a value that does not
//! parse is *ignored* (never a panic, never silent), and exactly one
//! warning naming the variable, the rejected value, and the fallback is
//! printed to stderr for the whole process lifetime. [`read_usize`] and
//! [`warn_once`] are that contract factored out, so a new knob cannot
//! drift from it by copy-paste.

use std::sync::Once;

/// Outcome of reading one environment variable as a `usize`.
pub enum EnvNum {
    /// The variable is not set.
    Unset,
    /// Parsed; the raw text is kept for warnings that treat some parsed
    /// values (e.g. `0` where zero is invalid) as ignorable.
    Parsed(usize, String),
    /// Set but not a `usize` (garbage, negative, overflow).
    Garbage(String),
}

/// Read `var` as a (trimmed) `usize`.
pub fn read_usize(var: &str) -> EnvNum {
    match std::env::var(var) {
        Err(_) => EnvNum::Unset,
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(v) => EnvNum::Parsed(v, raw),
            Err(_) => EnvNum::Garbage(raw),
        },
    }
}

/// Print `msg()` to stderr at most once per process per `once` guard.
pub fn warn_once(once: &Once, msg: impl FnOnce() -> String) {
    once.call_once(|| eprintln!("{}", msg()));
}
