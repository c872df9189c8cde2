//! The design lint behind `LINT.json`: the static-analysis suite over
//! every shipped design and the PHY analog blocks.
//!
//! For each digital design the IR lint (`IR0xx`) runs on the RTL and
//! the netlist ERC (`NL0xx`, with PDK drive-strength data) runs on its
//! tt synthesis from [`Shipped`]; the TX driver and RX front end get
//! the analog DRC (`AN0xx`). Reports print as human text and are
//! written together as machine-readable JSON to `LINT.json`.
//!
//! Any Error- or Warn-level finding is a failure of the run.

use crate::{Report, Shipped};
use openserdes_lint::{Finding, LintConfig, LintReport, Rule, Severity};
use openserdes_pdk::corner::Pvt;
use openserdes_phy::{DriverConfig, FrontEndConfig, RxFrontEnd, TxDriver};
use std::fmt::Write as _;

/// Lints every shipped design, IR and netlist, and both PHY circuits.
pub fn report(shipped: &Shipped) -> Report {
    let cfg = LintConfig::default();
    let pvt = Pvt::nominal();
    let mut reports = Vec::new();
    for (design, tt) in &shipped.designs {
        reports.push(design.lint(&cfg));
        match tt {
            Ok(synth) => reports.push(synth.netlist.lint_with_library(&shipped.tt_library, &cfg)),
            Err(e) => {
                // Surface synthesis failures through the same gate: a
                // design that cannot synthesize cannot be linted clean.
                let mut r = LintReport::new(design.name(), "netlist");
                let failed = format!("synthesis failed: {e}");
                r.add(&cfg, Finding::new(Rule::BadReference, failed));
                reports.push(r);
            }
        }
    }
    reports.push(TxDriver::new(DriverConfig::paper_default(), pvt).lint());
    reports.push(RxFrontEnd::new(FrontEndConfig::paper_default(), pvt).lint());

    let mut text = String::new();
    let mut failures = Vec::new();
    let (mut errors, mut warnings) = (0, 0);
    for r in &reports {
        let (e, w) = (r.count(Severity::Error), r.count(Severity::Warn));
        if e + w > 0 {
            failures.push(format!(
                "lint: `{}` {}: {e} error(s), {w} warning(s)",
                r.design(),
                r.domain()
            ));
        }
        errors += e;
        warnings += w;
        let _ = writeln!(text, "{r}");
    }

    let json: Vec<String> = reports.iter().map(LintReport::to_json).collect();
    let json = format!("[\n{}\n]\n", json.join(",\n"));
    let _ = writeln!(
        text,
        "linted {} report(s): {errors} error(s), {warnings} warning(s) — JSON in LINT.json",
        reports.len()
    );
    Report {
        file: "LINT.json",
        json,
        text,
        failures,
    }
}
