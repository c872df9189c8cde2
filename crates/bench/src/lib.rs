//! # openserdes-bench
//!
//! The figure-regeneration binaries: one computation per paper
//! figure/table ([`figures`]), printed by the binaries in `src/bin/`,
//! plus the bins that write the committed `BENCH_*.json` and
//! `LINT.json` reports. Timing lives in the separate `benchmark/`
//! package. See DESIGN.md for the experiment index (E1–E9) and
//! EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]

pub mod figures;
pub mod report;
