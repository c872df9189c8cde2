//! Flow-level errors: structural netlist failures and lint gate rejections.

use openserdes_lint::LintReport;
use openserdes_netlist::NetlistError;
use std::error::Error;
use std::fmt;

/// Why [`crate::Flow::run`] refused to produce a layout.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// A netlist-level structural error (from synthesis or STA).
    Netlist(NetlistError),
    /// The design-lint gate found Error-level diagnostics; the full
    /// report is carried for display and triage.
    Lint(LintReport),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::Netlist(e) => write!(f, "netlist error: {e}"),
            FlowError::Lint(report) => write!(
                f,
                "design rejected by lint gate ({} error(s)):\n{report}",
                report.count(openserdes_lint::Severity::Error)
            ),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Netlist(e) => Some(e),
            FlowError::Lint(_) => None,
        }
    }
}

impl From<NetlistError> for FlowError {
    fn from(e: NetlistError) -> Self {
        FlowError::Netlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_error_wraps_and_displays() {
        let e = FlowError::from(NetlistError::CombinationalLoop(Vec::new()));
        assert!(e.to_string().contains("combinational loop"));
    }

    #[test]
    fn lint_error_carries_report() {
        use openserdes_lint::{Finding, LintConfig, LintReport, Rule};
        let mut report = LintReport::new("dut", "ir");
        report.add(
            &LintConfig::default(),
            Finding::new(Rule::UnconnectedRegister, "register r0 unconnected"),
        );
        let e = FlowError::Lint(report);
        let s = e.to_string();
        assert!(s.contains("lint gate") && s.contains("IR001"));
    }
}
