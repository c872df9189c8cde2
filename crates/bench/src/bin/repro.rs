//! Regenerates the paper's results, R1–R7 and E1–E9, as checked data.
//!
//! Every headline number and figure series is computed once at the
//! paper's operating point and written to `BENCH_repro.json` with its
//! unit, the paper's value and its band (validated in CI by
//! `schemas/validate.py repro`, and byte-diffed). Prints the Fig. 4(b),
//! 6(b) and 8 oscillograms and the results table.
//!
//! Exit status is nonzero if any recorded value lies outside its band.

use openserdes_bench::repro::{format, Repro};
use openserdes_core::sweep::parallel::default_threads;
use std::process::ExitCode;

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: repro (takes no arguments)");
        return ExitCode::from(2);
    }
    let repro = match Repro::compute(default_threads()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro failed: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", repro.oscillograms());
    println!("OpenSerDes results — paper vs this reproduction\n");
    println!("{}", repro.table());
    if let Err(e) = std::fs::write("BENCH_repro.json", repro.to_json()) {
        eprintln!("cannot write BENCH_repro.json: {e}");
        return ExitCode::from(2);
    }
    let mut misses = 0;
    for e in repro.misses() {
        let value = format(e.measured, e.unit);
        let source = e.band.as_ref().map_or("", |b| b.source);
        eprintln!(
            "band miss: {} = {value} {} outside {} ({source})",
            e.id,
            e.unit,
            e.band_text()
        );
        misses += 1;
    }
    let banded = repro.entries.iter().filter(|e| e.band.is_some()).count();
    let results = repro.entries.len();
    println!("{results} results, {banded} banded, {misses} band miss(es): BENCH_repro.json");
    if misses == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
