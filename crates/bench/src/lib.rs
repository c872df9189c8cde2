//! # openserdes-bench
//!
//! The reports the repository commits, and the bins that write them.
//! The `reports` bin runs each report once and writes the four files
//! CI regenerates and byte-diffs: the paper's results with their bands
//! ([`repro`], `BENCH_repro.json`), the fault-campaign matrix
//! ([`fault`], `BENCH_fault.json`), the timing signoff ([`sta`],
//! `BENCH_sta.json`) and the design lint ([`lint`], `LINT.json`).
//! `analog_bench` and `profile` write `BENCH_analog.json` and
//! `BENCH_profile.json`. Timing lives in the separate `benchmark/`
//! package. See DESIGN.md for the experiment index (E1–E9) and
//! EXPERIMENTS.md for paper-vs-measured results.

#![warn(missing_docs)]

pub mod fault;
pub mod lint;
pub mod report;
pub mod repro;
pub mod sta;

use openserdes_core::{
    cdr_design, deserializer_design, scan_chain_design, serdes_digital_top, serializer_design,
};
use openserdes_flow::ir::Design;
use openserdes_flow::{synthesize, SynthResult};
use openserdes_netlist::NetlistError;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;

/// One committed report as a run produces it.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The file the report is written to, relative to the repository
    /// root.
    pub file: &'static str,
    /// The file's contents.
    pub json: String,
    /// What the run prints for it.
    pub text: String,
    /// Each way the run broke its fixed policy, named.
    pub failures: Vec<String>,
}

/// The five shipped designs, listed once, each with its synthesis at
/// the nominal corner (tt). The lint and the STA's tt corner both read
/// that one synthesis.
pub struct Shipped {
    /// The nominal (tt) library.
    pub tt_library: Library,
    /// Each design with its tt synthesis.
    pub designs: Vec<(Design, Result<SynthResult, NetlistError>)>,
}

impl Shipped {
    /// Synthesizes the serializer, the deserializer, the 5× CDR, the
    /// scan chain and the 5× digital top at tt.
    pub fn synthesize() -> Self {
        let tt_library = Library::sky130(Pvt::nominal());
        let designs = [
            serializer_design(),
            deserializer_design(),
            cdr_design(5),
            scan_chain_design(),
            serdes_digital_top(5),
        ];
        let designs = designs
            .into_iter()
            .map(|design| {
                let tt = synthesize(&design, &tt_library);
                (design, tt)
            })
            .collect();
        Self {
            tt_library,
            designs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lint_and_sta_files_regenerate_byte_for_byte() {
        let shipped = Shipped::synthesize();
        let lint = lint::report(&shipped).json;
        assert!(
            lint == include_str!("../../../LINT.json"),
            "LINT.json is stale: run `reports`"
        );
        let sta = sta::report(&shipped).expect("every design times").json;
        let committed = include_str!("../../../BENCH_sta.json");
        assert!(sta == committed, "BENCH_sta.json is stale: run `reports`");
    }
}
