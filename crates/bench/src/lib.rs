#![forbid(unsafe_code)]
//! # asterix-bench — the reproduction harness
//!
//! One module per experiment in DESIGN.md's experiment index (E1–E13), each
//! regenerating the paper-shaped table for one figure or empirical claim of
//! "AsterixDB Mid-Flight" (ICDE 2019). The `repro` binary runs them and
//! prints the tables recorded in EXPERIMENTS.md. It is the crate's only
//! harness: its `hotpath`, `serving` and `feeds` suites write the measured
//! `BENCH_*.json` baselines, and `chaos` and `profile` drive the fault and
//! per-operator profile runs.

pub mod chaos;
pub mod experiments;
pub mod feeds;
pub mod hotpath;
pub mod profile;
pub mod report;
pub mod serving;

pub use report::ExpReport;

/// Wall-clock helper.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds with two decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}
