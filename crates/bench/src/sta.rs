//! Timing signoff behind `BENCH_sta.json`: static timing analysis over
//! every shipped design at the TT/SS/FF corners and a 2 GHz clock.
//!
//! Each design is synthesized against the corner's characterized
//! library (tt reads [`Shipped`]'s synthesis) and pushed through the
//! full STA engine (forward/backward passes, early/late hold split,
//! per-clock domains, TM rule audit). Per-corner fmax/WNS/TNS/hold
//! numbers land in `BENCH_sta.json` (validated in CI by
//! `schemas/validate.py sta`), and the worst path of each design prints
//! as an OpenSTA-style `report_checks` block at tt.
//!
//! An Error-level TM finding is a failure of the run.

use crate::{Report, Shipped};
use openserdes_flow::{synthesize, Sta, StaConfig};
use openserdes_lint::{LintConfig, Severity};
use openserdes_netlist::NetlistError;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::units::Hertz;
use std::borrow::Cow;
use std::error::Error;
use std::fmt::Write as _;

/// Times every shipped design at tt, ss and ff.
///
/// # Errors
///
/// Fails, naming the design and the corner, if a design does not
/// synthesize or time.
pub fn report(shipped: &Shipped) -> Result<Report, Box<dyn Error>> {
    let clock = Hertz::from_ghz(2.0);
    let corners = [
        ("tt", Pvt::nominal()),
        ("ss", Pvt::worst_case()),
        ("ff", Pvt::best_case()),
    ];
    let lint_cfg = LintConfig::default();

    let mut text = String::new();
    let mut failures = Vec::new();
    let (mut errors, mut warnings) = (0usize, 0usize);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"openserdes-bench-sta/1\",");
    let _ = writeln!(json, "  \"clock_ghz\": {:.3},", clock.ghz());
    let _ = writeln!(json, "  \"designs\": [");

    for (di, (design, tt)) in shipped.designs.iter().enumerate() {
        let name = design.name();
        let mut corner_rows = Vec::new();
        let mut cells = 0usize;
        let mut flops = 0usize;
        for (label, pvt) in corners {
            let library = Library::sky130(pvt);
            let failed =
                |e: &NetlistError| format!("synthesis failed for `{name}` at {label}: {e}");
            let synth = match label {
                "tt" => Cow::Borrowed(tt.as_ref().map_err(failed)?),
                _ => Cow::Owned(synthesize(design, &library).map_err(|e| failed(&e))?),
            };
            let mut cfg = StaConfig::at_clock(clock);
            cfg.multicycle = synth.multicycle.clone();
            let report = Sta::new()
                .with_config(cfg)
                .run(&synth.netlist, &library, None)
                .map_err(|e| format!("sta failed for `{name}` at {label}: {e}"))?;
            cells = synth.netlist.cell_count();
            flops = synth.netlist.flop_count();
            let lint = report.to_lint(&lint_cfg);
            let corner_errors = lint.count(Severity::Error);
            if corner_errors > 0 {
                failures.push(format!(
                    "sta: `{name}` at {label}: {corner_errors} Error-level finding(s)"
                ));
            }
            errors += corner_errors;
            warnings += lint.count(Severity::Warn);
            let _ = writeln!(
                text,
                "[{label}] {:<12} fmax {:>6.3} GHz, wns {:>8.1} ps, tns {:>9.1} ps, {} violation(s), hold wns {:>6.1} ps, {} finding(s)",
                name,
                report.fmax.ghz(),
                report.wns.ps(),
                report.tns.ps(),
                report.violations,
                report.hold_wns.ps(),
                report.findings().len(),
            );
            if label == "tt" {
                if let Some(p) = report.paths.first() {
                    let _ = writeln!(text, "{p}");
                }
            }
            corner_rows.push(format!(
                "        {{ \"corner\": \"{label}\", \"fmax_ghz\": {:.6}, \"wns_ps\": {:.3}, \"tns_ps\": {:.3}, \"violations\": {}, \"hold_wns_ps\": {:.3}, \"hold_violations\": {}, \"endpoints\": {}, \"domains\": {}, \"findings\": {} }}",
                report.fmax.ghz(),
                report.wns.ps(),
                report.tns.ps(),
                report.violations,
                report.hold_wns.ps(),
                report.hold_violations,
                report.endpoints.len(),
                report.domains.len(),
                report.findings().len(),
            ));
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{name}\",");
        let _ = writeln!(json, "      \"cells\": {cells},");
        let _ = writeln!(json, "      \"flops\": {flops},");
        let _ = writeln!(json, "      \"corners\": [");
        let _ = writeln!(json, "{}", corner_rows.join(",\n"));
        let _ = writeln!(json, "      ]");
        let last = di + 1 == shipped.designs.len();
        let _ = writeln!(json, "    }}{}", if last { "" } else { "," });
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let _ = writeln!(
        text,
        "timed {} design(s) × {} corner(s): {errors} error(s), {warnings} warning(s) — JSON in BENCH_sta.json",
        shipped.designs.len(),
        corners.len(),
    );
    Ok(Report {
        file: "BENCH_sta.json",
        json,
        text,
        failures,
    })
}
