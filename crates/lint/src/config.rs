//! Per-rule severity overrides: allow, downgrade or promote any rule.

use crate::rules::{Rule, Severity};

/// What a [`LintConfig`] maps a rule to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintLevel {
    /// Drop findings for this rule entirely.
    Allow,
    /// Report at Info.
    Info,
    /// Report at Warn.
    Warn,
    /// Report at Error.
    Error,
}

impl LintLevel {
    /// The severity this level maps to, or `None` for [`LintLevel::Allow`].
    pub fn severity(self) -> Option<Severity> {
        match self {
            LintLevel::Allow => None,
            LintLevel::Info => Some(Severity::Info),
            LintLevel::Warn => Some(Severity::Warn),
            LintLevel::Error => Some(Severity::Error),
        }
    }
}

/// Per-rule overrides applied when findings are added to a
/// [`crate::LintReport`]. The default config reports every rule at its
/// catalog severity.
///
/// Built fluently:
///
/// ```
/// use openserdes_lint::{LintConfig, LintLevel, Rule, Severity};
/// let cfg = LintConfig::default()
///     .allow(Rule::UnusedInput)
///     .set_level(Rule::DanglingOutput, LintLevel::Error);
/// assert_eq!(cfg.effective(Rule::UnusedInput), None);
/// assert_eq!(cfg.effective(Rule::DanglingOutput), Some(Severity::Error));
/// assert_eq!(cfg.effective(Rule::UndrivenNet), Some(Severity::Error));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LintConfig {
    overrides: Vec<(Rule, LintLevel)>,
}

impl LintConfig {
    /// A config with no overrides (all rules at default severity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set an explicit level for `rule`, replacing any earlier override.
    pub fn set_level(mut self, rule: Rule, level: LintLevel) -> Self {
        self.overrides.retain(|(r, _)| *r != rule);
        self.overrides.push((rule, level));
        self
    }

    /// Suppress `rule` entirely.
    pub fn allow(self, rule: Rule) -> Self {
        self.set_level(rule, LintLevel::Allow)
    }

    /// Downgrade `rule` to Warn (the common "known issue" escape hatch).
    pub fn warn(self, rule: Rule) -> Self {
        self.set_level(rule, LintLevel::Warn)
    }

    /// The severity findings for `rule` get under this config, or
    /// `None` if the rule is allowed (findings dropped).
    pub fn effective(&self, rule: Rule) -> Option<Severity> {
        match self.overrides.iter().find(|(r, _)| *r == rule) {
            Some((_, level)) => level.severity(),
            None => Some(rule.default_severity()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_uses_catalog_severity() {
        let cfg = LintConfig::default();
        for rule in Rule::ALL {
            assert_eq!(cfg.effective(rule), Some(rule.default_severity()));
        }
    }

    #[test]
    fn later_override_wins() {
        let cfg = LintConfig::default()
            .set_level(Rule::DeadLogic, LintLevel::Error)
            .allow(Rule::DeadLogic);
        assert_eq!(cfg.effective(Rule::DeadLogic), None);
        // Replacement, not accumulation.
        assert_eq!(cfg.overrides.len(), 1);
    }

    #[test]
    fn warn_downgrades() {
        let cfg = LintConfig::default().warn(Rule::UndrivenNet);
        assert_eq!(cfg.effective(Rule::UndrivenNet), Some(Severity::Warn));
    }
}
