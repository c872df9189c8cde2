//! RTL-IR checks: the `IR0xx` rules of the design-lint engine.
//!
//! The IR is acyclic by construction (operands always refer to earlier
//! signals), so unlike the gate-level ERC there is no loop rule here;
//! what can go wrong is connectivity — registers left dangling, logic
//! that never reaches an output, stuck state — and port/exception
//! bookkeeping. The pass runs on the public [`Design`] accessors and
//! never mutates the IR.

use crate::ir::{Design, NodeOp, Sig};
use openserdes_lint::{Finding, LintConfig, LintReport, Rule};
use std::collections::HashMap;

/// Three-valued constant lattice: a signal is a known boolean until two
/// different values (or an unknown input) merge into ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lattice {
    Known(bool),
    Top,
}

impl Lattice {
    fn join(self, other: Lattice) -> Lattice {
        match (self, other) {
            (Lattice::Known(a), Lattice::Known(b)) if a == b => self,
            _ => Lattice::Top,
        }
    }
}

impl Design {
    /// Run the `IR0xx` rule set over this design.
    pub fn lint(&self, cfg: &LintConfig) -> LintReport {
        let mut report = LintReport::new(self.name(), "ir");

        // IR001 — unconnected registers.
        let mut unconnected = vec![false; self.reg_count()];
        for (idx, flag) in unconnected.iter_mut().enumerate() {
            if self.reg_d_opt(idx).is_none() {
                *flag = true;
                report.add(
                    cfg,
                    Finding::new(
                        Rule::UnconnectedRegister,
                        format!("register r{idx} has no data input connected"),
                    )
                    .at_reg(format!("r{idx}"), idx),
                );
            }
        }

        // Liveness: reverse reachability from the primary outputs, walking
        // operands and crossing registers via their D inputs.
        let nodes = self.nodes();
        let live = live_nodes(self);

        // IR002 — dead logic nodes. One aggregate finding: a dead subtree
        // can hold hundreds of nodes and per-node findings would drown the
        // report. Inputs and constants are exempt (IR004 covers inputs).
        let dead: Vec<usize> = (0..nodes.len())
            .filter(|&i| !live[i] && !matches!(nodes[i], NodeOp::Input(_) | NodeOp::Const(_)))
            .collect();
        if !dead.is_empty() {
            let examples: Vec<String> = dead.iter().take(5).map(|i| format!("s{i}")).collect();
            report.add(
                cfg,
                Finding::new(
                    Rule::DeadNode,
                    format!(
                        "{} logic node(s) cannot reach any primary output (e.g. {})",
                        dead.len(),
                        examples.join(", ")
                    ),
                )
                .at_sig(format!("s{}", dead[0]), dead[0]),
            );
        }

        // IR003 — constant registers, by three-valued constant propagation:
        // inputs are unknown (⊤), registers start from their power-up value
        // (0) and accumulate every value their D input can take.
        for (idx, value) in constant_registers(self, &unconnected) {
            report.add(
                cfg,
                Finding::new(
                    Rule::ConstantRegister,
                    format!(
                        "register r{idx} provably never leaves its power-up value \
                     ({}): dead state",
                        u8::from(value)
                    ),
                )
                .at_reg(format!("r{idx}"), idx),
            );
        }

        // IR004 — unused primary inputs: no node reads them and they are not
        // wired straight to an output.
        let mut input_read = vec![false; self.input_names().len()];
        for op in nodes {
            for s in operands(op) {
                if let NodeOp::Input(idx) = nodes[s.index()] {
                    input_read[idx] = true;
                }
            }
        }
        for &(_, sig) in self.outputs() {
            if let NodeOp::Input(idx) = nodes[sig.index()] {
                input_read[idx] = true;
            }
        }
        for (idx, name) in self.input_names().iter().enumerate() {
            if !input_read[idx] {
                report.add(
                    cfg,
                    Finding::new(
                        Rule::UnusedInput,
                        format!("primary input `{name}` drives nothing"),
                    )
                    .at_sig(name, idx),
                );
            }
        }

        // IR005 — ragged buses: `name[i]` ports must cover 0..n contiguously.
        for (base, indices) in bus_indices(self.input_names().iter().map(String::as_str))
            .into_iter()
            .chain(bus_indices(self.outputs().iter().map(|(n, _)| n.as_str())))
        {
            let mut sorted = indices.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let contiguous = sorted.len() == indices.len()
                && sorted.first() == Some(&0)
                && sorted.len() == sorted.last().map_or(0, |l| l + 1);
            if !contiguous {
                report.add(
                    cfg,
                    Finding::new(
                        Rule::RaggedBus,
                        format!(
                            "bus port `{base}` has non-contiguous or duplicate bit indices \
                         ({} bit(s), highest index {})",
                            indices.len(),
                            sorted.last().copied().unwrap_or(0)
                        ),
                    )
                    .at_sig(base, sorted.first().copied().unwrap_or(0)),
                );
            }
        }

        // IR006 — duplicate multicycle exceptions on one register.
        let mut seen: HashMap<usize, u32> = HashMap::new();
        for &(reg, factor) in self.multicycle() {
            if let Some(&prev) = seen.get(&reg) {
                report.add(
                    cfg,
                    Finding::new(
                        Rule::DuplicateMulticycle,
                        format!(
                            "register r{reg} carries more than one multicycle exception \
                         (×{prev} then ×{factor}); only one is honoured"
                        ),
                    )
                    .at_reg(format!("r{reg}"), reg),
                );
            } else {
                seen.insert(reg, factor);
            }
        }

        report
    }
}

fn operands(op: &NodeOp) -> Vec<Sig> {
    match *op {
        NodeOp::Input(_) | NodeOp::Const(_) | NodeOp::RegQ(_) => Vec::new(),
        NodeOp::Not(a) => vec![a],
        NodeOp::And(a, b) | NodeOp::Or(a, b) | NodeOp::Xor(a, b) => vec![a, b],
        NodeOp::Mux { a, b, sel } => vec![a, b, sel],
    }
}

/// Reverse reachability from the outputs; registers propagate liveness
/// from their Q node to their D cone.
fn live_nodes(design: &Design) -> Vec<bool> {
    let nodes = design.nodes();
    let mut live = vec![false; nodes.len()];
    let mut stack: Vec<usize> = design.outputs().iter().map(|&(_, s)| s.index()).collect();
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        for s in operands(&nodes[i]) {
            stack.push(s.index());
        }
        if let NodeOp::RegQ(idx) = nodes[i] {
            if let Some(d) = design.reg_d_opt(idx) {
                stack.push(d.index());
            }
        }
    }
    live
}

/// Fixpoint three-valued evaluation; returns `(reg index, stuck value)`
/// for registers that provably never change.
fn constant_registers(design: &Design, unconnected: &[bool]) -> Vec<(usize, bool)> {
    let nodes = design.nodes();
    // Power-up state: every register is 0.
    let mut reg_val = vec![Lattice::Known(false); design.reg_count()];
    let mut values = vec![Lattice::Top; nodes.len()];
    // Each round widens at least one register or terminates, so
    // reg_count + 1 rounds suffice.
    for _ in 0..=design.reg_count() {
        for (i, op) in nodes.iter().enumerate() {
            values[i] = match *op {
                NodeOp::Input(_) => Lattice::Top,
                NodeOp::Const(v) => Lattice::Known(v),
                NodeOp::Not(a) => match values[a.index()] {
                    Lattice::Known(v) => Lattice::Known(!v),
                    Lattice::Top => Lattice::Top,
                },
                NodeOp::And(a, b) => match (values[a.index()], values[b.index()]) {
                    (Lattice::Known(false), _) | (_, Lattice::Known(false)) => {
                        Lattice::Known(false)
                    }
                    (Lattice::Known(x), Lattice::Known(y)) => Lattice::Known(x & y),
                    _ => Lattice::Top,
                },
                NodeOp::Or(a, b) => match (values[a.index()], values[b.index()]) {
                    (Lattice::Known(true), _) | (_, Lattice::Known(true)) => Lattice::Known(true),
                    (Lattice::Known(x), Lattice::Known(y)) => Lattice::Known(x | y),
                    _ => Lattice::Top,
                },
                NodeOp::Xor(a, b) => match (values[a.index()], values[b.index()]) {
                    (Lattice::Known(x), Lattice::Known(y)) => Lattice::Known(x ^ y),
                    _ => Lattice::Top,
                },
                NodeOp::Mux { a, b, sel } => match values[sel.index()] {
                    Lattice::Known(false) => values[a.index()],
                    Lattice::Known(true) => values[b.index()],
                    Lattice::Top => values[a.index()].join(values[b.index()]),
                },
                NodeOp::RegQ(idx) => reg_val[idx],
            };
        }
        let mut changed = false;
        for (idx, rv) in reg_val.iter_mut().enumerate() {
            let next = match design.reg_d_opt(idx) {
                Some(d) => rv.join(values[d.index()]),
                None => *rv,
            };
            if next != *rv {
                *rv = next;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    reg_val
        .iter()
        .enumerate()
        .filter_map(|(idx, v)| match v {
            // An unconnected register trivially never changes; IR001
            // already reports it.
            Lattice::Known(b) if !unconnected[idx] => Some((idx, *b)),
            _ => None,
        })
        .collect()
}

/// Group `name[i]` port names by base name.
fn bus_indices<'a>(names: impl Iterator<Item = &'a str>) -> HashMap<String, Vec<usize>> {
    let mut buses: HashMap<String, Vec<usize>> = HashMap::new();
    for name in names {
        let Some(open) = name.rfind('[') else {
            continue;
        };
        let Some(stripped) = name[open + 1..].strip_suffix(']') else {
            continue;
        };
        let Ok(idx) = stripped.parse::<usize>() else {
            continue;
        };
        buses.entry(name[..open].to_string()).or_default().push(idx);
    }
    buses
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_lint::Severity;

    fn rules_of(report: &LintReport) -> Vec<Rule> {
        report.findings().iter().map(|f| f.rule).collect()
    }

    fn counter(width: usize) -> Design {
        let mut d = Design::new("cnt");
        let q = d.reg_bus(width);
        let next = d.incr(&q);
        d.connect_reg_bus(&q, &next);
        d.output_bus("q", &q);
        d
    }

    #[test]
    fn clean_counter_is_clean() {
        let r = counter(4).lint(&LintConfig::default());
        assert!(r.is_clean(), "unexpected findings: {r}");
    }

    #[test]
    fn ir001_unconnected_register() {
        let mut d = Design::new("bad");
        let q = d.reg();
        d.output("q", q);
        let r = d.lint(&LintConfig::default());
        assert!(rules_of(&r).contains(&Rule::UnconnectedRegister));
        assert!(r.has_errors());
    }

    #[test]
    fn ir002_dead_node() {
        let mut d = Design::new("dead");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.and(a, b);
        d.output("y", y);
        let _orphan = d.xor(a, b); // never reaches an output
        let r = d.lint(&LintConfig::default());
        let dead: Vec<_> = r
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::DeadNode)
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].severity, Severity::Warn);
    }

    #[test]
    fn ir003_constant_register() {
        // d.reg() powering up at 0, fed its own AND with 0: stuck at 0.
        let mut d = Design::new("stuck");
        let q = d.reg();
        let zero = d.constant(false);
        let next = d.and(q, zero);
        d.connect_reg(q, next);
        d.output("q", q);
        let r = d.lint(&LintConfig::default());
        assert!(rules_of(&r).contains(&Rule::ConstantRegister));
    }

    #[test]
    fn ir003_toggling_register_not_flagged() {
        // q' = !q toggles every cycle: must not be called constant.
        let mut d = Design::new("toggle");
        let q = d.reg();
        let n = d.not(q);
        d.connect_reg(q, n);
        d.output("q", q);
        let r = d.lint(&LintConfig::default());
        assert!(!rules_of(&r).contains(&Rule::ConstantRegister));
    }

    #[test]
    fn ir004_unused_input() {
        let mut d = Design::new("io");
        let a = d.input("a");
        let _unused = d.input("nc");
        d.output("y", a);
        let r = d.lint(&LintConfig::default());
        let f: Vec<_> = r
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::UnusedInput)
            .collect();
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("`nc`"));
        assert_eq!(f[0].severity, Severity::Info);
    }

    #[test]
    fn ir005_ragged_bus() {
        let mut d = Design::new("ragged");
        let a = d.input("bus[0]");
        let b = d.input("bus[2]"); // gap: no bus[1]
        let y = d.and(a, b);
        d.output("y", y);
        let r = d.lint(&LintConfig::default());
        assert!(rules_of(&r).contains(&Rule::RaggedBus));
    }

    #[test]
    fn ir005_contiguous_bus_ok() {
        let mut d = Design::new("ok");
        let bus = d.input_bus("b", 4);
        let y = d.and_reduce(&bus);
        d.output("y", y);
        let r = d.lint(&LintConfig::default());
        assert!(!rules_of(&r).contains(&Rule::RaggedBus));
    }

    #[test]
    fn ir006_duplicate_multicycle() {
        let mut d = counter(2);
        let q0 = d.outputs()[0].1;
        d.set_multicycle(q0, 4);
        d.set_multicycle(q0, 8);
        let r = d.lint(&LintConfig::default());
        assert!(rules_of(&r).contains(&Rule::DuplicateMulticycle));
    }

    #[test]
    fn lint_is_read_only() {
        let d = counter(3);
        let before = format!("{d:?}");
        let _ = d.lint(&LintConfig::default());
        assert_eq!(format!("{d:?}"), before);
    }
}
