//! The `AN0xx` half of the design-lint engine: static design-rule
//! checks over a flat [`Circuit`] before it reaches the solver.
//!
//! MNA failures are miserable to debug from the solver side — a
//! singular Jacobian at `t = 0` says nothing about *which* node is
//! floating or *which* element carries a nonsensical value. These
//! checks catch the common structural mistakes up front and name the
//! offending node or element:
//!
//! | rule  | severity | meaning |
//! |-------|----------|---------|
//! | AN001 | error    | node has no DC path to ground (only capacitors / MOS gates touch it) |
//! | AN002 | error    | non-positive or non-finite R/C value, or MOS with non-positive W/L |
//! | AN003 | warn     | element shorted to itself (R/C with `a == b`, MOS with `d == s`) |
//! | AN004 | warn     | declared node touched by no element or source |
//! | AN005 | error    | two sources fight over one node, or a source drives ground |
//! | AN006 | error    | non-finite stimulus value, empty waveform, or non-monotonic PWL |
//!
//! The MOS *channel* (drain–source) conducts DC; the *gate* does not —
//! so the paper's AC-coupled receiver front end, whose input bias comes
//! only through a PMOS pseudo-resistor channel, is correctly clean.
//! [`debug_check`], the gate the solver entry points run in debug
//! builds, downgrades `AN001` to a warning because gmin stepping
//! deliberately tolerates DC-floating internal nodes.

use crate::circuit::{Circuit, Element, Node, Stimulus};
use openserdes_lint::{Finding, LintConfig, LintLevel, LintReport, Rule};

impl Circuit {
    /// Runs every `AN0xx` check over this circuit and returns the
    /// report. `design` names the circuit in the report (a [`Circuit`]
    /// itself is anonymous).
    pub fn lint(&self, design: &str, config: &LintConfig) -> LintReport {
        let mut report = LintReport::new(design, "analog");
        check_elements(self, config, &mut report);
        check_sources(self, config, &mut report);
        check_topology(self, config, &mut report);
        report
    }
}

/// The [`LintConfig`] the solver entry points apply in debug builds:
/// everything at catalog severity except [`Rule::NoDcPath`], downgraded
/// to a warning because the solver's gmin stepping parks DC-floating
/// nodes at ground by design (see `floating_node_reported_or_stabilized`
/// in the solver tests).
fn gate_config() -> LintConfig {
    LintConfig::default().set_level(Rule::NoDcPath, LintLevel::Warn)
}

/// Debug-build DRC gate: lints `circuit` under `gate_config` and
/// panics with the full report if any Error-level finding remains.
/// Compiled to a no-op in release builds, like `debug_assert!`.
///
/// # Panics
///
/// Panics in debug builds when the circuit has Error-level DRC findings.
pub fn debug_check(circuit: &Circuit) {
    if cfg!(debug_assertions) {
        let report = circuit.lint("circuit", &gate_config());
        assert!(
            !report.has_errors(),
            "analog DRC rejected the circuit (compile with --release to skip this gate):\n{report}"
        );
    }
}

/// Per-element value and degeneracy checks: AN002 and AN003.
fn check_elements(circuit: &Circuit, config: &LintConfig, report: &mut LintReport) {
    for (i, e) in circuit.elements().iter().enumerate() {
        match *e {
            Element::Resistor { a, b, ohms } => {
                if !(ohms.is_finite() && ohms > 0.0) {
                    report.add(
                        config,
                        Finding::new(
                            Rule::NonPositiveElement,
                            format!(
                                "resistor between `{}` and `{}` has non-positive value {ohms:e} Ω",
                                circuit.node_name(a),
                                circuit.node_name(b)
                            ),
                        )
                        .at_element(format!("R{i}"), i),
                    );
                }
                if a == b {
                    report.add(
                        config,
                        Finding::new(
                            Rule::DegenerateElement,
                            format!(
                                "resistor shorted to itself on `{}` (stamps nothing)",
                                circuit.node_name(a)
                            ),
                        )
                        .at_element(format!("R{i}"), i),
                    );
                }
            }
            Element::Capacitor { a, b, farads } => {
                if !(farads.is_finite() && farads > 0.0) {
                    report.add(
                        config,
                        Finding::new(
                            Rule::NonPositiveElement,
                            format!(
                                "capacitor between `{}` and `{}` has non-positive value {farads:e} F",
                                circuit.node_name(a),
                                circuit.node_name(b)
                            ),
                        )
                        .at_element(format!("C{i}"), i),
                    );
                }
                if a == b {
                    report.add(
                        config,
                        Finding::new(
                            Rule::DegenerateElement,
                            format!(
                                "capacitor shorted to itself on `{}` (stamps nothing)",
                                circuit.node_name(a)
                            ),
                        )
                        .at_element(format!("C{i}"), i),
                    );
                }
            }
            Element::Mos {
                ref device,
                d,
                g,
                s,
            } => {
                let (w, l) = (device.w_um, device.l_um);
                if !(w.is_finite() && w > 0.0 && l.is_finite() && l > 0.0) {
                    report.add(
                        config,
                        Finding::new(
                            Rule::NonPositiveElement,
                            format!("MOS has non-positive geometry W/L = {w}/{l} µm"),
                        )
                        .at_element(format!("M{i}"), i),
                    );
                }
                // Gate tied to source is the pseudo-resistor idiom and
                // legitimate; a drain–source short never conducts
                // anything but its own channel and is a wiring bug.
                if d == s {
                    report.add(
                        config,
                        Finding::new(
                            Rule::DegenerateElement,
                            format!(
                                "MOS drain and source both tied to `{}` (gate on `{}`)",
                                circuit.node_name(d),
                                circuit.node_name(g)
                            ),
                        )
                        .at_element(format!("M{i}"), i),
                    );
                }
            }
        }
    }
}

/// Source sanity: AN005 (conflicts) and AN006 (bad stimulus values).
fn check_sources(circuit: &Circuit, config: &LintConfig, report: &mut LintReport) {
    let mut first_on: Vec<Option<usize>> = vec![None; circuit.node_count()];
    for (i, (node, stim)) in circuit.sources().iter().enumerate() {
        let name = circuit.node_name(*node).to_string();
        if *node == circuit.gnd() {
            report.add(
                config,
                Finding::new(
                    Rule::SourceConflict,
                    "source drives the ground node (gnd is the 0 V reference)",
                )
                .at_source(&name, i),
            );
        }
        match first_on[node.index()] {
            None => first_on[node.index()] = Some(i),
            Some(prev) => {
                report.add(
                    config,
                    Finding::new(
                        Rule::SourceConflict,
                        format!("two sources fight over node `{name}` (MNA keeps only one)"),
                    )
                    .at_source(&name, i)
                    .with_related(
                        openserdes_lint::EntityKind::Source,
                        &name,
                        prev,
                    ),
                );
            }
        }
        let bad = |msg: String| Finding::new(Rule::BadStimulus, msg).at_source(&name, i);
        match stim {
            Stimulus::Dc(v) => {
                if !v.is_finite() {
                    report.add(config, bad(format!("DC stimulus value {v} is not finite")));
                }
            }
            Stimulus::Wave(w) => {
                if w.is_empty() {
                    report.add(config, bad("waveform stimulus has no samples".to_string()));
                } else if let Some(k) = w.samples().iter().position(|s| !s.is_finite()) {
                    report.add(
                        config,
                        bad(format!("waveform stimulus sample {k} is not finite")),
                    );
                }
            }
            Stimulus::Pwl(points) => {
                if points.is_empty() {
                    report.add(config, bad("PWL stimulus has no points".to_string()));
                }
                for (k, &(t, v)) in points.iter().enumerate() {
                    if !t.is_finite() || !v.is_finite() {
                        report.add(
                            config,
                            bad(format!("PWL point {k} ({t}, {v}) is not finite")),
                        );
                        break;
                    }
                    if k > 0 && t < points[k - 1].0 {
                        report.add(
                            config,
                            bad(format!(
                                "PWL time axis goes backwards at point {k} ({:e} → {t:e} s)",
                                points[k - 1].0
                            )),
                        );
                        break;
                    }
                }
            }
        }
    }
}

/// Connectivity: AN004 (unused nodes) and AN001 (no DC path to ground).
///
/// DC conduction: resistors conduct between their terminals, the MOS
/// channel conducts drain↔source. Capacitors block DC and the MOS gate
/// draws no current, so nodes touched only through those are floating
/// at DC — the gmin-rescued case the solver parks at 0 V.
fn check_topology(circuit: &Circuit, config: &LintConfig, report: &mut LintReport) {
    let n = circuit.node_count();
    let mut touched = vec![false; n];
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let link = |adj: &mut Vec<Vec<usize>>, a: Node, b: Node| {
        adj[a.index()].push(b.index());
        adj[b.index()].push(a.index());
    };
    for e in circuit.elements() {
        match *e {
            Element::Resistor { a, b, .. } => {
                touched[a.index()] = true;
                touched[b.index()] = true;
                link(&mut adj, a, b);
            }
            Element::Capacitor { a, b, .. } => {
                touched[a.index()] = true;
                touched[b.index()] = true;
            }
            Element::Mos { d, g, s, .. } => {
                touched[d.index()] = true;
                touched[g.index()] = true;
                touched[s.index()] = true;
                link(&mut adj, d, s);
            }
        }
    }

    // Flood from ground and every forced node over DC-conductive edges.
    let mut reached = vec![false; n];
    let mut stack = vec![0usize];
    for (node, _) in circuit.sources() {
        touched[node.index()] = true;
        stack.push(node.index());
    }
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut reached[v], true) {
            continue;
        }
        stack.extend(adj[v].iter().copied());
    }

    for i in 1..n {
        if !touched[i] {
            report.add(
                config,
                Finding::new(
                    Rule::UnusedNode,
                    format!(
                        "node `{}` is declared but nothing connects to it",
                        circuit.node_name(Node(i))
                    ),
                )
                .at_node(circuit.node_name(Node(i)), i),
            );
        } else if !reached[i] {
            report.add(
                config,
                Finding::new(
                    Rule::NoDcPath,
                    format!(
                        "node `{}` has no DC path to ground (capacitors and MOS gates block DC)",
                        circuit.node_name(Node(i))
                    ),
                )
                .at_node(circuit.node_name(Node(i)), i),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_lint::Severity;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::mos::{MosDevice, MosParams};

    fn nmos() -> MosDevice {
        MosDevice::new(MosParams::sky130_nmos(&Pvt::nominal()), 1.0, 0.15)
    }

    fn pmos() -> MosDevice {
        MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 2.0, 0.15)
    }

    /// A healthy inverter with an AC-coupled, pseudo-resistor-biased
    /// input — the front-end topology that must lint clean.
    fn clean_frontend() -> Circuit {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let src = c.node("src");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(1.8));
        c.vsource(src, Stimulus::Dc(0.9));
        c.capacitor(src, vin, 1e-12);
        c.mos(nmos(), vout, vin, c.gnd());
        c.mos(pmos(), vout, vin, vdd);
        // Input bias through the pseudo-resistor channel only.
        c.pseudo_resistor(pmos(), vout, vin);
        c.capacitor(vout, c.gnd(), 5e-15);
        c
    }

    #[test]
    fn clean_circuit_is_clean() {
        let report = clean_frontend().lint("fe", &LintConfig::default());
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn an001_capacitor_only_node_is_floating() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let x = c.node("x");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.capacitor(vin, x, 1e-15);
        let report = c.lint("t", &LintConfig::default());
        let f = &report.findings()[0];
        assert_eq!(f.rule, Rule::NoDcPath);
        assert_eq!(f.severity, Severity::Error);
        assert!(f.message.contains("`x`"), "{}", f.message);
    }

    #[test]
    fn an001_gate_only_node_is_floating() {
        // Gate draws no DC current: a node driving only a gate floats.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let bias = c.node("bias");
        let out = c.node("out");
        c.vsource(vdd, Stimulus::Dc(1.8));
        c.resistor(vdd, out, 1e3);
        c.mos(nmos(), out, bias, c.gnd());
        c.capacitor(bias, c.gnd(), 1e-15);
        let report = c.lint("t", &LintConfig::default());
        assert!(report
            .findings()
            .iter()
            .any(|f| f.rule == Rule::NoDcPath && f.message.contains("`bias`")));
    }

    #[test]
    fn an001_mos_channel_conducts_dc() {
        // Biasing purely through a pseudo-resistor channel is fine.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        c.vsource(vdd, Stimulus::Dc(1.8));
        c.pseudo_resistor(pmos(), vdd, vin);
        c.capacitor(vin, c.gnd(), 1e-15);
        let report = c.lint("t", &LintConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn an002_nonpositive_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Stimulus::Dc(1.0));
        c.push_element(Element::Resistor {
            a,
            b: c.gnd(),
            ohms: -50.0,
        });
        let report = c.lint("t", &LintConfig::default());
        let f = &report.findings()[0];
        assert_eq!(f.rule, Rule::NonPositiveElement);
        assert!(f.message.contains("-5e1"), "{}", f.message);
    }

    #[test]
    fn an002_zero_capacitor_and_nan_resistor() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Stimulus::Dc(1.0));
        c.push_element(Element::Capacitor {
            a,
            b: c.gnd(),
            farads: 0.0,
        });
        c.push_element(Element::Resistor {
            a,
            b: c.gnd(),
            ohms: f64::NAN,
        });
        let report = c.lint("t", &LintConfig::default());
        assert_eq!(
            report
                .findings()
                .iter()
                .filter(|f| f.rule == Rule::NonPositiveElement)
                .count(),
            2
        );
    }

    #[test]
    fn an002_mos_with_zero_width() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Stimulus::Dc(1.0));
        let mut dev = nmos();
        dev.w_um = 0.0;
        c.push_element(Element::Mos {
            device: dev,
            d: a,
            g: a,
            s: c.gnd(),
        });
        let report = c.lint("t", &LintConfig::default());
        assert!(report
            .findings()
            .iter()
            .any(|f| f.rule == Rule::NonPositiveElement && f.message.contains("W/L")));
    }

    #[test]
    fn an003_self_shorted_elements() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Stimulus::Dc(1.0));
        c.resistor(a, a, 1e3);
        c.mos(nmos(), a, a, a);
        let report = c.lint("t", &LintConfig::default());
        let hits: Vec<_> = report
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::DegenerateElement)
            .collect();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].severity, Severity::Warn);
    }

    #[test]
    fn an003_pseudo_resistor_not_flagged() {
        // Gate tied to source (g == s, d distinct) is the legitimate
        // pseudo-resistor idiom, not a degenerate device.
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Stimulus::Dc(1.0));
        c.pseudo_resistor(pmos(), a, b);
        c.resistor(b, c.gnd(), 1e3);
        let report = c.lint("t", &LintConfig::default());
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn an004_unused_node() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _orphan = c.node("orphan");
        c.vsource(a, Stimulus::Dc(1.0));
        c.resistor(a, c.gnd(), 1e3);
        let report = c.lint("t", &LintConfig::default());
        let f = &report.findings()[0];
        assert_eq!(f.rule, Rule::UnusedNode);
        assert!(f.message.contains("orphan"));
    }

    #[test]
    fn an005_conflicting_sources_and_grounded_source() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Stimulus::Dc(1.0));
        c.vsource(a, Stimulus::Dc(0.5));
        c.vsource(c.gnd(), Stimulus::Dc(0.3));
        c.resistor(a, c.gnd(), 1e3);
        let report = c.lint("t", &LintConfig::default());
        let hits: Vec<_> = report
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::SourceConflict)
            .collect();
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().any(|f| f.message.contains("fight")));
        assert!(hits.iter().any(|f| f.message.contains("ground")));
    }

    #[test]
    fn an006_bad_stimuli() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let d = c.node("d");
        c.vsource(a, Stimulus::Dc(f64::INFINITY));
        c.vsource(b, Stimulus::Pwl(vec![(0.0, 0.0), (2e-9, 1.0), (1e-9, 0.5)]));
        c.vsource(d, Stimulus::Pwl(vec![(0.0, f64::NAN)]));
        c.resistor(a, c.gnd(), 1e3);
        c.resistor(b, c.gnd(), 1e3);
        c.resistor(d, c.gnd(), 1e3);
        let report = c.lint("t", &LintConfig::default());
        let hits: Vec<_> = report
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::BadStimulus)
            .collect();
        assert_eq!(hits.len(), 3, "{report}");
        assert!(hits.iter().any(|f| f.message.contains("backwards")));
    }

    #[test]
    fn gate_config_downgrades_floating_nodes_only() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let x = c.node("x");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.capacitor(vin, x, 1e-15);
        let report = c.lint("t", &gate_config());
        assert!(!report.has_errors());
        assert_eq!(report.count(Severity::Warn), 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "analog DRC rejected"))]
    fn debug_check_panics_on_errors_in_debug_builds_only() {
        // Release builds skip the gate entirely — this returns.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.vsource(a, Stimulus::Dc(f64::NAN));
        c.resistor(a, c.gnd(), 1e3);
        debug_check(&c);
    }

    #[test]
    fn lint_is_read_only() {
        let c = clean_frontend();
        let before = format!("{c:?}");
        let _ = c.lint("fe", &LintConfig::default());
        assert_eq!(format!("{c:?}"), before);
    }
}
