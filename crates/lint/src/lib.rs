//! # openserdes-lint
//!
//! The shared diagnostics core of the design-lint engine (DESIGN.md §12):
//! the static DRC/ERC layer that rejects broken designs *before* they
//! reach synthesis, placement or a transient solve — the role yosys'
//! `check` and OpenSTA's sanity passes play in the paper's OpenLANE flow.
//!
//! This crate deliberately contains **no analysis passes**, only the
//! vocabulary they share:
//!
//! * [`Rule`] — the complete rule catalog (`NL0xx` netlist ERC, `IR0xx`
//!   RTL-IR checks, `AN0xx` analog DRC) with default severities,
//! * [`Finding`] / [`Location`] — one diagnostic, anchored to a named
//!   cell/net/signal/element,
//! * [`LintReport`] — a pass result that renders human text
//!   ([`std::fmt::Display`]) and machine JSON ([`LintReport::to_json`]),
//! * [`LintConfig`] — per-rule allow/downgrade/promote overrides.
//!
//! The passes themselves live next to the data structures they check —
//! `openserdes_netlist::lint` (gate-level ERC),
//! `openserdes_flow::lint` (RTL IR), `openserdes_analog::drc` (circuit
//! DRC) — because the flow and solver crates *gate* on lint results and
//! therefore must be allowed to depend on this crate without a cycle.
//! The `reports` binary in `openserdes-bench` aggregates all three over
//! every shipped design for CI.
//!
//! ```
//! use openserdes_lint::{Finding, LintConfig, LintReport, Rule, Severity};
//!
//! let cfg = LintConfig::default();
//! let mut report = LintReport::new("my_design", "netlist");
//! report.add(
//!     &cfg,
//!     Finding::new(Rule::UndrivenNet, "net `fb` is read but never driven")
//!         .at_net("fb", 7),
//! );
//! assert!(report.has_errors());
//! assert_eq!(report.findings()[0].rule.code(), "NL002");
//!
//! // The same finding can be suppressed per rule.
//! let relaxed = LintConfig::default().allow(Rule::UndrivenNet);
//! let mut quiet = LintReport::new("my_design", "netlist");
//! quiet.add(
//!     &relaxed,
//!     Finding::new(Rule::UndrivenNet, "net `fb` is read but never driven"),
//! );
//! assert!(quiet.is_clean());
//! ```

mod config;
mod report;
mod rules;

pub use config::{LintConfig, LintLevel};
pub use report::{EntityKind, Finding, LintReport, Location};
pub use rules::{Rule, Severity};
