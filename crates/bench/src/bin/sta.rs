//! Timing-signoff CI driver: static timing analysis over every shipped
//! example design at the TT/SS/FF corners.
//!
//! Each design is synthesized against the corner's characterized
//! library and pushed through the full STA engine (forward/backward
//! passes, early/late hold split, per-clock domains, TM rule audit).
//! Per-corner fmax/WNS/TNS/hold numbers land in `BENCH_sta.json`
//! (validated in CI by `schemas/validate.py sta`), and the worst path
//! of each design prints as an OpenSTA-style `report_checks` block.
//!
//! Exit status is nonzero if any Error-level TM finding survives — or
//! any Warn-level finding when `--deny warn` is passed.

use openserdes_core::{
    cdr_design, deserializer_design, scan_chain_design, serdes_digital_top, serializer_design,
};
use openserdes_flow::{synthesize, Sta, StaConfig};
use openserdes_lint::{LintConfig, Severity};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::units::Hertz;
use std::fmt::Write as _;

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (smoke, deny_warn) = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => (false, false),
        ["--smoke"] => (true, false),
        ["--deny", "warn"] => (false, true),
        ["--smoke", "--deny", "warn"] | ["--deny", "warn", "--smoke"] => (true, true),
        _ => {
            eprintln!("usage: sta [--smoke] [--deny warn]");
            return std::process::ExitCode::from(2);
        }
    };

    let clock = Hertz::from_ghz(2.0);
    let stages = if smoke { 3 } else { 5 };
    let designs = [
        serializer_design(),
        deserializer_design(),
        cdr_design(stages),
        scan_chain_design(),
        serdes_digital_top(stages),
    ];
    let corners = [
        ("tt", Pvt::nominal()),
        ("ss", Pvt::worst_case()),
        ("ff", Pvt::best_case()),
    ];
    let lint_cfg = LintConfig::default();

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"openserdes-bench-sta/1\",");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"clock_ghz\": {:.3},", clock.ghz());
    let _ = writeln!(json, "  \"designs\": [");

    for (di, design) in designs.iter().enumerate() {
        let mut corner_rows = Vec::new();
        let mut cells = 0usize;
        let mut flops = 0usize;
        for (label, pvt) in corners {
            let library = Library::sky130(pvt);
            let synth = match synthesize(design, &library) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("synthesis failed for `{}` at {label}: {e}", design.name());
                    return std::process::ExitCode::from(2);
                }
            };
            let mut cfg = StaConfig::at_clock(clock);
            cfg.multicycle = synth.multicycle.clone();
            let report = match Sta::new()
                .with_config(cfg)
                .run(&synth.netlist, &library, None)
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("sta failed for `{}` at {label}: {e}", design.name());
                    return std::process::ExitCode::from(2);
                }
            };
            cells = synth.netlist.cell_count();
            flops = synth.netlist.flop_count();
            let lint = report.to_lint(&lint_cfg);
            errors += lint.count(Severity::Error);
            warnings += lint.count(Severity::Warn);
            println!(
                "[{label}] {:<12} fmax {:>6.3} GHz, wns {:>8.1} ps, tns {:>9.1} ps, {} violation(s), hold wns {:>6.1} ps, {} finding(s)",
                design.name(),
                report.fmax.ghz(),
                report.wns.ps(),
                report.tns.ps(),
                report.violations,
                report.hold_wns.ps(),
                report.findings().len(),
            );
            if label == "tt" {
                if let Some(p) = report.paths.first() {
                    println!("{p}");
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
        let _ = writeln!(json, "      \"name\": \"{}\",", design.name());
        let _ = writeln!(json, "      \"cells\": {cells},");
        let _ = writeln!(json, "      \"flops\": {flops},");
        let _ = writeln!(json, "      \"corners\": [");
        let _ = writeln!(json, "{}", corner_rows.join(",\n"));
        let _ = writeln!(json, "      ]");
        let _ = writeln!(
            json,
            "    }}{}",
            if di + 1 < designs.len() { "," } else { "" }
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    if let Err(e) = std::fs::write("BENCH_sta.json", &json) {
        eprintln!("cannot write BENCH_sta.json: {e}");
        return std::process::ExitCode::from(2);
    }
    println!(
        "timed {} design(s) × {} corner(s): {errors} error(s), {warnings} warning(s) — JSON in BENCH_sta.json",
        designs.len(),
        corners.len()
    );
    if errors > 0 || (deny_warn && warnings > 0) {
        std::process::ExitCode::FAILURE
    } else {
        std::process::ExitCode::SUCCESS
    }
}
