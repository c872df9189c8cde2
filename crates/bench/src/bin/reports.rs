//! Writes every committed report: the fault-campaign matrix
//! (`BENCH_fault.json`), the timing signoff (`BENCH_sta.json`), the
//! design lint (`LINT.json`) and the paper's results with their bands
//! (`BENCH_repro.json`). Each runs once, under one fixed policy, and
//! the lint and the STA share each design's tt synthesis.
//!
//! The run writes every file, then exits nonzero naming each failure:
//! a fault-matrix proof that does not hold, an Error-level STA finding,
//! any Error- or Warn-level lint finding, or a band miss.

use openserdes_bench::{fault, lint, repro, sta, Shipped};
use openserdes_core::sweep::parallel::default_threads;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: reports (takes no arguments)");
        return ExitCode::from(2);
    }
    let failures = match run() {
        Ok(failures) => failures,
        Err(e) => {
            eprintln!("reports failed: {e}");
            return ExitCode::from(2);
        }
    };
    for failure in &failures {
        eprintln!("{failure}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes each report and prints its text; returns every failure.
fn run() -> Result<Vec<String>, Box<dyn std::error::Error>> {
    let mut failures = Vec::new();
    let mut write = |report: openserdes_bench::Report| {
        std::fs::write(report.file, &report.json)?;
        println!("{}", report.text);
        failures.extend(report.failures);
        Ok::<_, std::io::Error>(())
    };
    write(fault::report())?;
    let shipped = Shipped::synthesize();
    write(sta::report(&shipped)?)?;
    write(lint::report(&shipped))?;
    write(repro::report(default_threads())?)?;
    Ok(failures)
}
