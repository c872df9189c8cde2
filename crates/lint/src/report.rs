//! Findings, locations and the [`LintReport`] container with its text
//! and JSON renderings.

use std::fmt;

use crate::config::LintConfig;
use crate::rules::{Rule, Severity};

/// What kind of design entity a finding is anchored to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EntityKind {
    /// A gate-level cell instance (`CellId`).
    Cell,
    /// A gate-level net (`NetId`).
    Net,
    /// An RTL IR signal (`Sig`).
    Sig,
    /// An RTL IR register index.
    Reg,
    /// An analog MNA node (`Node`).
    Node,
    /// An analog element (resistor/capacitor/MOS), by element index.
    Element,
    /// An independent source, by source index.
    Source,
}

impl EntityKind {
    /// Lower-case label used in text and JSON renderings.
    pub fn label(self) -> &'static str {
        match self {
            EntityKind::Cell => "cell",
            EntityKind::Net => "net",
            EntityKind::Sig => "sig",
            EntityKind::Reg => "reg",
            EntityKind::Node => "node",
            EntityKind::Element => "element",
            EntityKind::Source => "source",
        }
    }
}

/// Where in the design a finding points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Location {
    /// The entity class the `name`/`id` pair refers to.
    pub kind: EntityKind,
    /// Human name of the entity (instance name, net name, node name…).
    pub name: String,
    /// Arena index of the entity inside its container.
    pub id: usize,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} `{}` (#{})", self.kind.label(), self.name, self.id)
    }
}

/// One diagnostic produced by an analysis pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Effective severity (default, unless a [`LintConfig`] remapped it
    /// when the finding was added to a report).
    pub severity: Severity,
    /// Human-readable description of this specific violation.
    pub message: String,
    /// Primary anchor, if the violation points at a single entity.
    pub location: Option<Location>,
    /// Secondary entities involved (e.g. every cell on a loop).
    pub related: Vec<Location>,
}

impl Finding {
    /// A finding for `rule` at its default severity, not yet anchored.
    pub fn new(rule: Rule, message: impl Into<String>) -> Self {
        Finding {
            rule,
            severity: rule.default_severity(),
            message: message.into(),
            location: None,
            related: Vec::new(),
        }
    }

    /// Anchor the finding to an entity.
    pub fn at(mut self, kind: EntityKind, name: impl Into<String>, id: usize) -> Self {
        self.location = Some(Location {
            kind,
            name: name.into(),
            id,
        });
        self
    }

    /// Anchor the finding to a cell instance.
    pub fn at_cell(self, name: impl Into<String>, id: usize) -> Self {
        self.at(EntityKind::Cell, name, id)
    }

    /// Anchor the finding to a net.
    pub fn at_net(self, name: impl Into<String>, id: usize) -> Self {
        self.at(EntityKind::Net, name, id)
    }

    /// Anchor the finding to an IR signal.
    pub fn at_sig(self, name: impl Into<String>, id: usize) -> Self {
        self.at(EntityKind::Sig, name, id)
    }

    /// Anchor the finding to an IR register.
    pub fn at_reg(self, name: impl Into<String>, id: usize) -> Self {
        self.at(EntityKind::Reg, name, id)
    }

    /// Anchor the finding to an analog node.
    pub fn at_node(self, name: impl Into<String>, id: usize) -> Self {
        self.at(EntityKind::Node, name, id)
    }

    /// Anchor the finding to an analog element.
    pub fn at_element(self, name: impl Into<String>, id: usize) -> Self {
        self.at(EntityKind::Element, name, id)
    }

    /// Anchor the finding to an independent source.
    pub fn at_source(self, name: impl Into<String>, id: usize) -> Self {
        self.at(EntityKind::Source, name, id)
    }

    /// Attach a secondary entity (chainable).
    pub fn with_related(mut self, kind: EntityKind, name: impl Into<String>, id: usize) -> Self {
        self.related.push(Location {
            kind,
            name: name.into(),
            id,
        });
        self
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}",
            self.severity,
            self.rule.code(),
            self.message
        )?;
        if let Some(loc) = &self.location {
            write!(f, " — at {loc}")?;
        }
        if !self.related.is_empty() {
            write!(f, " (involving")?;
            for (i, r) in self.related.iter().enumerate() {
                write!(f, "{} {r}", if i == 0 { "" } else { "," })?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// The result of running one lint pass over one design.
///
/// `Display` renders a human summary; [`LintReport::to_json`] renders a
/// machine-readable object for CI.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    design: String,
    domain: String,
    findings: Vec<Finding>,
    suppressed: usize,
}

impl LintReport {
    /// An empty report for `design`, produced by the `domain` pass
    /// (`"netlist"`, `"ir"` or `"analog"`).
    pub fn new(design: impl Into<String>, domain: impl Into<String>) -> Self {
        LintReport {
            design: design.into(),
            domain: domain.into(),
            findings: Vec::new(),
            suppressed: 0,
        }
    }

    /// The design name this report describes.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// The pass domain (`"netlist"`, `"ir"`, `"analog"`).
    pub fn domain(&self) -> &str {
        &self.domain
    }

    /// Record a finding, applying `cfg`'s per-rule overrides. Findings
    /// for allowed rules are dropped (counted as suppressed).
    pub fn add(&mut self, cfg: &LintConfig, mut finding: Finding) {
        match cfg.effective(finding.rule) {
            Some(sev) => {
                finding.severity = sev;
                self.findings.push(finding);
            }
            None => self.suppressed += 1,
        }
    }

    /// Merge another report's findings into this one (used by the lint
    /// bin to aggregate passes over the same design).
    pub fn absorb(&mut self, other: LintReport) {
        self.findings.extend(other.findings);
        self.suppressed += other.suppressed;
    }

    /// All recorded findings, in emission order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Number of findings dropped by `LintConfig::allow`.
    pub fn suppressed(&self) -> usize {
        self.suppressed
    }

    /// Count of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// The most severe finding level, if any finding was recorded.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// True if any Error-level finding was recorded.
    pub fn has_errors(&self) -> bool {
        self.worst() == Some(Severity::Error)
    }

    /// True if any Warn-or-worse finding was recorded.
    pub fn has_warnings(&self) -> bool {
        self.worst() >= Some(Severity::Warn)
    }

    /// True if no findings at all were recorded.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Render the report as a JSON object (no external deps: the
    /// encoder is hand-rolled, with its own string escaper).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 160 * self.findings.len());
        s.push_str("{\"design\":\"");
        s.push_str(&json_escape(&self.design));
        s.push_str("\",\"domain\":\"");
        s.push_str(&json_escape(&self.domain));
        s.push_str("\",\"errors\":");
        s.push_str(&self.count(Severity::Error).to_string());
        s.push_str(",\"warnings\":");
        s.push_str(&self.count(Severity::Warn).to_string());
        s.push_str(",\"infos\":");
        s.push_str(&self.count(Severity::Info).to_string());
        s.push_str(",\"suppressed\":");
        s.push_str(&self.suppressed.to_string());
        s.push_str(",\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("{\"rule\":\"");
            s.push_str(f.rule.code());
            s.push_str("\",\"title\":\"");
            s.push_str(f.rule.title());
            s.push_str("\",\"severity\":\"");
            s.push_str(f.severity.label());
            s.push_str("\",\"message\":\"");
            s.push_str(&json_escape(&f.message));
            s.push('"');
            if let Some(loc) = &f.location {
                s.push_str(",\"location\":");
                push_location(&mut s, loc);
            }
            if !f.related.is_empty() {
                s.push_str(",\"related\":[");
                for (j, r) in f.related.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    push_location(&mut s, r);
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push_str("]}");
        s
    }
}

fn push_location(s: &mut String, loc: &Location) {
    s.push_str("{\"kind\":\"");
    s.push_str(loc.kind.label());
    s.push_str("\",\"name\":\"");
    s.push_str(&json_escape(&loc.name));
    s.push_str("\",\"id\":");
    s.push_str(&loc.id.to_string());
    s.push('}');
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint report for `{}` ({}): {} error(s), {} warning(s), {} info(s){}",
            self.design,
            self.domain,
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
            if self.suppressed > 0 {
                format!(", {} suppressed", self.suppressed)
            } else {
                String::new()
            }
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Escape a string for embedding inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LintLevel;

    fn sample() -> LintReport {
        let cfg = LintConfig::default();
        let mut r = LintReport::new("dut", "netlist");
        r.add(
            &cfg,
            Finding::new(Rule::UndrivenNet, "net `a` never driven").at_net("a", 3),
        );
        r.add(
            &cfg,
            Finding::new(Rule::DanglingOutput, "cell `u1` output unused")
                .at_cell("u1", 0)
                .with_related(EntityKind::Net, "y", 9),
        );
        r
    }

    #[test]
    fn counts_and_worst() {
        let r = sample();
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warn), 1);
        assert_eq!(r.worst(), Some(Severity::Error));
        assert!(r.has_errors() && r.has_warnings() && !r.is_clean());
    }

    #[test]
    fn config_overrides_apply_on_add() {
        let cfg = LintConfig::default()
            .allow(Rule::UndrivenNet)
            .set_level(Rule::DanglingOutput, LintLevel::Error);
        let mut r = LintReport::new("dut", "netlist");
        r.add(&cfg, Finding::new(Rule::UndrivenNet, "gone"));
        r.add(&cfg, Finding::new(Rule::DanglingOutput, "promoted"));
        assert_eq!(r.suppressed(), 1);
        assert_eq!(r.findings().len(), 1);
        assert_eq!(r.findings()[0].severity, Severity::Error);
    }

    #[test]
    fn display_lists_findings() {
        let text = sample().to_string();
        assert!(text.contains("1 error(s), 1 warning(s)"));
        assert!(text.contains("error [NL002]"));
        assert!(text.contains("net `a` (#3)"));
        assert!(text.contains("involving net `y` (#9)"));
    }

    #[test]
    fn json_is_well_formed() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rule\":\"NL002\""));
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"location\":{\"kind\":\"net\",\"name\":\"a\",\"id\":3}"));
        // Balanced braces/brackets (the encoder is hand-rolled).
        let open = j.matches('{').count();
        let close = j.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn json_escape_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn absorb_merges() {
        let mut a = sample();
        let b = sample();
        a.absorb(b);
        assert_eq!(a.findings().len(), 4);
    }
}
