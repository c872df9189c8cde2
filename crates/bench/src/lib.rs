//! # openserdes-bench
//!
//! The bins that write the committed reports: `repro` records the
//! paper's results with their bands ([`repro`], `BENCH_repro.json`),
//! and `fault`, `sta`, `lint`, `analog_bench` and `profile` write the
//! other `BENCH_*.json` files and `LINT.json`. Timing lives in the
//! separate `benchmark/` package. See DESIGN.md for the experiment
//! index (E1–E9) and EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]

pub mod report;
pub mod repro;
