//! Gate-level ERC: the `NL0xx` rules of the design-lint engine.
//!
//! This module is the netlist half of the lint engine described in
//! DESIGN.md §12. It reads the design through one [`Connectivity`],
//! built once the `NL008` references hold, and never mutates it. Entry
//! points:
//!
//! * [`Netlist::lint`] — the full structural rule set (`NL001`–`NL006`,
//!   `NL008`),
//! * [`Netlist::lint_with_library`] — adds the `NL007` drive/fanout
//!   audit, which needs characterized pin capacitances from a
//!   [`openserdes_pdk::library::Library`],
//! * [`Netlist::check`] — the Error-level structural subset as a typed
//!   [`NetlistError`], used by the flow/simulator gates.

use crate::connectivity::Connectivity;
use crate::error::NetlistError;
use crate::ids::{CellId, NetId};
use crate::netlist::Netlist;
use openserdes_lint::{EntityKind, Finding, LintConfig, LintReport, Rule};
use openserdes_pdk::library::Library;
use openserdes_pdk::units::Farad;
use std::collections::{HashSet, VecDeque};

impl Netlist {
    /// Run the gate-level ERC rules that need no library data.
    ///
    /// Rules `NL001`–`NL006` and `NL008`. If the netlist has corrupt
    /// structure (`NL008`: out-of-range net ids or clockless flops) only
    /// those findings are reported — every other rule assumes indexable
    /// tables.
    pub fn lint(&self, cfg: &LintConfig) -> LintReport {
        lint_impl(self, None, cfg)
    }

    /// Run the full gate-level ERC rule set, including the `NL007`
    /// drive-strength audit against `library`'s pin capacitances.
    pub fn lint_with_library(&self, library: &Library, cfg: &LintConfig) -> LintReport {
        lint_impl(self, Some(library), cfg)
    }
}

fn lint_impl(nl: &Netlist, library: Option<&Library>, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::new(nl.name(), "netlist");

    // NL008 first: if any instance points outside the arena the rest of
    // the passes cannot even build their tables.
    let bad = bad_references(nl);
    if !bad.is_empty() {
        for b in bad {
            report.add(cfg, b.into_finding(nl));
        }
        return report;
    }
    let conn = Connectivity::new(nl);

    // NL001 — driver conflicts.
    for (net, drivers) in driver_conflicts(nl) {
        let pi = nl.is_primary_input(net);
        let mut f = Finding::new(
            Rule::MultiplyDrivenNet,
            if pi {
                format!(
                    "primary input `{}` is also driven by {} cell output(s)",
                    nl.net_name(net),
                    drivers.len()
                )
            } else {
                format!(
                    "net `{}` is driven by {} cell outputs",
                    nl.net_name(net),
                    drivers.len()
                )
            },
        )
        .at_net(nl.net_name(net), net.index());
        for d in drivers {
            f = f.with_related(EntityKind::Cell, &nl.instance(d).name, d.index());
        }
        report.add(cfg, f);
    }

    // NL002 — undriven-but-read nets.
    for net in conn.undriven(nl) {
        report.add(
            cfg,
            Finding::new(
                Rule::UndrivenNet,
                format!("net `{}` is read but never driven", nl.net_name(net)),
            )
            .at_net(nl.net_name(net), net.index()),
        );
    }

    // NL003 — combinational loops (Tarjan SCCs).
    for scc in conn.loop_pass(nl).0 {
        let names: Vec<&str> = scc.iter().map(|&c| nl.instance(c).name.as_str()).collect();
        let mut f = Finding::new(
            Rule::CombinationalLoop,
            format!(
                "combinational loop through {} cell(s): {}",
                scc.len(),
                names.join(" -> ")
            ),
        )
        .at_cell(names[0], scc[0].index());
        for &c in &scc[1..] {
            f = f.with_related(EntityKind::Cell, &nl.instance(c).name, c.index());
        }
        report.add(cfg, f);
    }

    // NL004 — dangling cell outputs.
    let mut dangling: HashSet<CellId> = HashSet::new();
    for (id, inst) in nl.instances() {
        if conn.sinks(inst.output).is_empty() && !nl.is_primary_output(inst.output) {
            dangling.insert(id);
            report.add(
                cfg,
                Finding::new(
                    Rule::DanglingOutput,
                    format!(
                        "output of cell `{}` (net `{}`) has no readers and is not a primary output",
                        inst.name,
                        nl.net_name(inst.output)
                    ),
                )
                .at_cell(&inst.name, id.index())
                .with_related(
                    EntityKind::Net,
                    nl.net_name(inst.output),
                    inst.output.index(),
                ),
            );
        }
    }

    // NL005 — dead logic (transitively unobservable). Dangling-output
    // cells are already reported by NL004; only flag cells whose output
    // *is* read yet still cannot reach a primary output.
    for id in dead_cells(nl, &conn) {
        if dangling.contains(&id) {
            continue;
        }
        let inst = nl.instance(id);
        report.add(
            cfg,
            Finding::new(
                Rule::DeadLogic,
                format!(
                    "cell `{}` is outside the fan-in cone of every primary output",
                    inst.name
                ),
            )
            .at_cell(&inst.name, id.index()),
        );
    }

    // NL006 — clock-domain crossing audit.
    for c in clock_crossings(nl, &conn) {
        let dst = nl.instance(c.dst);
        let src = nl.instance(c.src);
        let how = if c.through_logic {
            "through multi-input combinational logic"
        } else {
            "without a recognizable 2-flop synchronizer"
        };
        report.add(
            cfg,
            Finding::new(
                Rule::UnsyncClockCrossing,
                format!(
                    "flop `{}` (clock root `{}`) captures data from flop `{}` (clock root `{}`) {how}",
                    dst.name,
                    nl.net_name(c.dst_domain),
                    src.name,
                    nl.net_name(c.src_domain),
                ),
            )
            .at_cell(&dst.name, c.dst.index())
            .with_related(EntityKind::Cell, &src.name, c.src.index()),
        );
    }

    // NL007 — drive-strength overload (needs the library).
    if let Some(lib) = library {
        for o in drive_overloads(nl, &conn, lib) {
            let inst = nl.instance(o.cell);
            report.add(
                cfg,
                Finding::new(
                    Rule::DriveOverload,
                    format!(
                        "cell `{}` ({} {:?}) drives {:.1} fF of pin load, exceeding its max_load {:.1} fF",
                        inst.name,
                        inst.function,
                        inst.drive,
                        o.load.ff(),
                        o.max_load.ff()
                    ),
                )
                .at_cell(&inst.name, o.cell.index())
                .with_related(EntityKind::Net, nl.net_name(inst.output), inst.output.index()),
            );
        }
    }

    report
}

impl Netlist {
    /// Structural check: the Error-level subset of the gate-level ERC
    /// rules (`NL008` bad references, `NL001` driver conflicts, `NL002`
    /// undriven nets, `NL003` combinational loops), returning the first
    /// violation as a typed [`NetlistError`].
    ///
    /// This is [`Connectivity::checked`] without its tables, the checker
    /// behind the flow/simulator gates; the full diagnostic catalog
    /// (dead logic, CDC, drive audits…) is available through
    /// [`Netlist::lint`] / [`Netlist::lint_with_library`].
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found, checking the rules in
    /// the order listed above.
    pub fn check(&self) -> Result<(), NetlistError> {
        Connectivity::checked(self).map(|_| ())
    }
}

/// A corrupt structural reference (`NL008`).
pub(crate) enum BadRef {
    /// An instance pin refers to a net id outside the arena.
    Dangling { cell: CellId, net: NetId },
    /// A sequential cell with no clock connection.
    NoClock(CellId),
}

impl BadRef {
    fn into_finding(self, nl: &Netlist) -> Finding {
        match self {
            BadRef::Dangling { cell, net } => Finding::new(
                Rule::BadReference,
                format!(
                    "cell `{}` references nonexistent net {net}",
                    nl.instance(cell).name
                ),
            )
            .at_cell(&nl.instance(cell).name, cell.index()),
            BadRef::NoClock(cell) => Finding::new(
                Rule::BadReference,
                format!(
                    "sequential cell `{}` has no clock connection",
                    nl.instance(cell).name
                ),
            )
            .at_cell(&nl.instance(cell).name, cell.index()),
        }
    }
}

pub(crate) fn bad_references(nl: &Netlist) -> Vec<BadRef> {
    let nets = nl.net_count();
    let mut out = Vec::new();
    for (id, inst) in nl.instances() {
        for &n in inst.inputs.iter().chain(inst.clock.iter()) {
            if n.index() >= nets {
                out.push(BadRef::Dangling { cell: id, net: n });
            }
        }
        if inst.output.index() >= nets {
            out.push(BadRef::Dangling {
                cell: id,
                net: inst.output,
            });
        }
        if inst.is_sequential() && inst.clock.is_none() {
            out.push(BadRef::NoClock(id));
        }
    }
    out
}

/// Every net with more than one driver, or driven and a primary input
/// (`NL001`), with all its drivers in cell order.
pub(crate) fn driver_conflicts(nl: &Netlist) -> Vec<(NetId, Vec<CellId>)> {
    let mut drivers: Vec<Vec<CellId>> = vec![Vec::new(); nl.net_count()];
    for (id, inst) in nl.instances() {
        drivers[inst.output.index()].push(id);
    }
    let mut out = Vec::new();
    for (ni, d) in drivers.into_iter().enumerate() {
        let net = NetId(ni as u32);
        if d.len() > 1 || (nl.is_primary_input(net) && !d.is_empty()) {
            out.push((net, d));
        }
    }
    out
}

/// Cells outside the reverse fan-in cone of every primary output
/// (traced through data and clock pins).
fn dead_cells(nl: &Netlist, conn: &Connectivity) -> Vec<CellId> {
    let mut live = vec![false; nl.cell_count()];
    let mut seen = vec![false; nl.net_count()];
    let mut queue: VecDeque<NetId> = nl.primary_outputs().iter().map(|(_, n)| *n).collect();
    while let Some(net) = queue.pop_front() {
        if seen[net.index()] {
            continue;
        }
        seen[net.index()] = true;
        if let Some(c) = conn.driver(net) {
            if !live[c.index()] {
                live[c.index()] = true;
                let inst = nl.instance(c);
                for &n in inst.inputs.iter().chain(inst.clock.iter()) {
                    queue.push_back(n);
                }
            }
        }
    }
    nl.cell_ids().filter(|&c| !live[c.index()]).collect()
}

/// One unsafe clock-domain crossing.
struct Crossing {
    /// The capturing flop.
    dst: CellId,
    /// The launching flop in another domain.
    src: CellId,
    dst_domain: NetId,
    src_domain: NetId,
    /// The data path traverses a gate with more than one input.
    through_logic: bool,
}

fn clock_crossings(nl: &Netlist, conn: &Connectivity) -> Vec<Crossing> {
    // Clock domain per flop.
    let domains: Vec<Option<NetId>> = nl
        .instances()
        .map(|(_, inst)| inst.clock.map(|c| conn.clock_root(nl, c).0))
        .collect();

    let mut out = Vec::new();
    let mut marks = vec![0u32; 2 * nl.net_count()];
    for ((dst, inst), stamp) in nl.instances().zip(1..) {
        let Some(dst_domain) = domains[dst.index()] else {
            continue;
        };
        // The combinational fan-in cone of the flop's data pins, with
        // whether each path crossed multi-input logic. Primary inputs
        // and floating nets have no known domain.
        let (sources, _) = conn.fanin_sources(nl, &inst.inputs, &mut marks, stamp);
        let mut flagged: HashSet<CellId> = HashSet::new();
        for (src, through_logic) in sources {
            let Some(src_domain) = domains[src.index()] else {
                continue;
            };
            if src_domain == dst_domain || flagged.contains(&src) {
                continue;
            }
            // A clean (buffer-only) crossing into the first stage of a
            // two-flop synchronizer is the one safe pattern.
            if !through_logic && is_sync_stage(nl, conn, &domains, dst, dst_domain) {
                continue;
            }
            flagged.insert(src);
            out.push(Crossing {
                dst,
                src,
                dst_domain,
                src_domain,
                through_logic,
            });
        }
    }
    out
}

/// True if `flop`'s Q feeds (through buffer/inverter chains only)
/// nothing but the data pins of flops in the same `domain` — the shape
/// of a synchronizer's first stage.
fn is_sync_stage(
    nl: &Netlist,
    conn: &Connectivity,
    domains: &[Option<NetId>],
    flop: CellId,
    domain: NetId,
) -> bool {
    let mut saw_capture = false;
    let mut visited: HashSet<NetId> = HashSet::new();
    let mut stack = vec![nl.instance(flop).output];
    while let Some(net) = stack.pop() {
        if !visited.insert(net) {
            continue;
        }
        if nl.is_primary_output(net) {
            return false; // Q escapes the module before resynchronizing
        }
        for &sink in conn.sinks(net) {
            let s = nl.instance(sink);
            if s.is_sequential() {
                if s.clock == Some(net) || domains[sink.index()] != Some(domain) {
                    return false;
                }
                saw_capture = true;
            } else if s.inputs.len() == 1 {
                stack.push(s.output);
            } else {
                return false; // Q fans into real logic: not a synchronizer
            }
        }
    }
    saw_capture
}

/// One `NL007` overload: `cell` drives more pin capacitance than its
/// library `max_load`.
struct Overload {
    cell: CellId,
    load: Farad,
    max_load: Farad,
}

fn drive_overloads(nl: &Netlist, conn: &Connectivity, lib: &Library) -> Vec<Overload> {
    let mut out = Vec::new();
    for (id, inst) in nl.instances() {
        let Ok(cell) = lib.cell(inst.function, inst.drive) else {
            continue;
        };
        let mut load = Farad::from_ff(0.0);
        for (sink, last) in conn.sink_pins(inst.output) {
            let s = nl.instance(sink);
            let Ok(sc) = lib.cell(s.function, s.drive) else {
                continue;
            };
            load += s.pin_cap(sc, inst.output, last);
        }
        if cell.overloaded(load) {
            out.push(Overload {
                cell: id,
                load,
                max_load: cell.max_load,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_lint::Severity;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};

    fn rules_of(report: &LintReport) -> Vec<Rule> {
        report.findings().iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_design_is_clean() {
        let mut nl = Netlist::new("ok");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.gate(LogicFn::And2, DriveStrength::X1, &[a, b]);
        nl.mark_output("y", y);
        let r = nl.lint(&LintConfig::default());
        assert!(r.is_clean(), "unexpected findings: {r}");
    }

    #[test]
    fn nl001_multiple_drivers() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let y = nl.add_net("y");
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[a], y);
        nl.gate_into(LogicFn::Buf, DriveStrength::X1, &[a], y);
        nl.mark_output("y", y);
        let r = nl.lint(&LintConfig::default());
        assert!(rules_of(&r).contains(&Rule::MultiplyDrivenNet));
        assert!(r.has_errors());
    }

    #[test]
    fn nl002_undriven_net() {
        let mut nl = Netlist::new("bad");
        let float = nl.add_net("float");
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[float]);
        nl.mark_output("y", y);
        let r = nl.lint(&LintConfig::default());
        let f = &r.findings()[0];
        assert_eq!(f.rule, Rule::UndrivenNet);
        assert_eq!(f.location.as_ref().unwrap().name, "float");
    }

    #[test]
    fn nl003_combinational_loop_via_tarjan() {
        let mut nl = Netlist::new("latchy");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[a, fb]);
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[x], fb);
        nl.mark_output("y", x);
        let r = nl.lint(&LintConfig::default());
        let loops: Vec<_> = r
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::CombinationalLoop)
            .collect();
        assert_eq!(loops.len(), 1);
        // Both cells of the loop are named (anchor + related).
        assert_eq!(loops[0].related.len(), 1);
    }

    #[test]
    fn nl004_dangling_output() {
        let mut nl = Netlist::new("waste");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
        nl.mark_output("y", y);
        let _unused = nl.gate(LogicFn::Buf, DriveStrength::X1, &[a]);
        let r = nl.lint(&LintConfig::default());
        assert!(rules_of(&r).contains(&Rule::DanglingOutput));
        assert_eq!(r.worst(), Some(Severity::Warn));
    }

    #[test]
    fn nl005_dead_logic_with_local_readers() {
        // u1 -> u2, but u2's output dangles; u1 is dead logic (its
        // output IS read), u2 is the dangling output.
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
        nl.mark_output("y", y);
        let m = nl.gate(LogicFn::Buf, DriveStrength::X1, &[a]);
        let _end = nl.gate(LogicFn::Inv, DriveStrength::X1, &[m]);
        let r = nl.lint(&LintConfig::default());
        let rules = rules_of(&r);
        assert!(rules.contains(&Rule::DeadLogic));
        assert!(rules.contains(&Rule::DanglingOutput));
        // The dead cell and the dangling cell are distinct findings.
        assert_eq!(
            r.findings()
                .iter()
                .filter(|f| f.rule == Rule::DeadLogic)
                .count(),
            1
        );
    }

    #[test]
    fn nl006_unsynchronized_crossing_flagged() {
        let mut nl = Netlist::new("cdc");
        let clka = nl.add_input("clka");
        let clkb = nl.add_input("clkb");
        let d = nl.add_input("d");
        let qa = nl.dff(d, clka, DriveStrength::X1);
        // Straight into logic in domain B: unsafe.
        let other = nl.add_input("other");
        let mixed = nl.gate(LogicFn::And2, DriveStrength::X1, &[qa, other]);
        let qb = nl.dff(mixed, clkb, DriveStrength::X1);
        nl.mark_output("qb", qb);
        let r = nl.lint(&LintConfig::default());
        let cdc: Vec<_> = r
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::UnsyncClockCrossing)
            .collect();
        assert_eq!(cdc.len(), 1);
        assert!(cdc[0].message.contains("multi-input combinational logic"));
    }

    #[test]
    fn nl006_two_flop_synchronizer_is_exempt() {
        let mut nl = Netlist::new("sync");
        let clka = nl.add_input("clka");
        let clkb = nl.add_input("clkb");
        let d = nl.add_input("d");
        let qa = nl.dff(d, clka, DriveStrength::X1);
        let s1 = nl.dff(qa, clkb, DriveStrength::X1); // stage 1: crossing, exempt
        let s2 = nl.dff(s1, clkb, DriveStrength::X1); // stage 2: same-domain source
        nl.mark_output("q", s2);
        let r = nl.lint(&LintConfig::default());
        assert!(
            !rules_of(&r).contains(&Rule::UnsyncClockCrossing),
            "2-flop synchronizer must not be flagged: {r}"
        );
    }

    #[test]
    fn nl006_same_domain_through_clock_buffer() {
        // clk -> buf -> clkb; flops on clk and on buffered clk share a
        // root and must not be flagged.
        let mut nl = Netlist::new("bufclk");
        let clk = nl.add_input("clk");
        let clkb = nl.gate(LogicFn::Buf, DriveStrength::X4, &[clk]);
        let d = nl.add_input("d");
        let q1 = nl.dff(d, clk, DriveStrength::X1);
        let q2 = nl.dff(q1, clkb, DriveStrength::X1);
        nl.mark_output("q", q2);
        let r = nl.lint(&LintConfig::default());
        assert!(!rules_of(&r).contains(&Rule::UnsyncClockCrossing));
    }

    #[test]
    fn nl007_drive_overload() {
        let lib = Library::sky130(Pvt::nominal());
        let mut nl = Netlist::new("fanout_bomb");
        let a = nl.add_input("a");
        let weak = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
        for i in 0..200 {
            let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[weak]);
            nl.mark_output(format!("y{i}"), y);
        }
        let r = nl.lint_with_library(&lib, &LintConfig::default());
        assert!(rules_of(&r).contains(&Rule::DriveOverload));
        // The plain structural pass must not require the library.
        assert!(!rules_of(&nl.lint(&LintConfig::default())).contains(&Rule::DriveOverload));
    }

    #[test]
    fn nl007_counts_each_pin_of_a_sink_once() {
        // An X1 inverter into NAND2s that read its output on both pins:
        // three of them load it with 27.5 fF of pins, under its 30 fF
        // max_load; four with 36.6 fF.
        let lib = Library::sky130(Pvt::nominal());
        let overloads = |sinks: usize| -> Vec<String> {
            let mut nl = Netlist::new("twice");
            let a = nl.add_input("a");
            let weak = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
            for i in 0..sinks {
                let y = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[weak, weak]);
                nl.mark_output(format!("y{i}"), y);
            }
            let r = nl.lint_with_library(&lib, &LintConfig::default());
            r.findings()
                .iter()
                .filter(|f| f.rule == Rule::DriveOverload)
                .map(|f| f.message.clone())
                .collect()
        };
        assert_eq!(overloads(3), Vec::<String>::new());
        let four = overloads(4);
        assert_eq!(four.len(), 1);
        assert!(four[0].contains("drives 36.6 fF"), "{}", four[0]);
    }

    #[test]
    fn nl008_missing_clock_via_instance_mut() {
        let mut nl = Netlist::new("corrupt");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q = nl.dff(d, clk, DriveStrength::X1);
        nl.mark_output("q", q);
        let id = nl.cell_ids().next().unwrap();
        nl.instance_mut(id).clock = None;
        let r = nl.lint(&LintConfig::default());
        assert_eq!(rules_of(&r), vec![Rule::BadReference]);
        assert!(r.has_errors());
        assert_eq!(nl.check(), Err(NetlistError::MissingClock(id)));
    }

    #[test]
    fn nl008_dangling_reference_via_instance_mut() {
        let mut nl = Netlist::new("corrupt");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
        nl.mark_output("y", y);
        let id = nl.cell_ids().next().unwrap();
        let foreign = NetId(999);
        nl.instance_mut(id).inputs[0] = foreign;
        let r = nl.lint(&LintConfig::default());
        assert_eq!(rules_of(&r), vec![Rule::BadReference]);
        assert_eq!(
            nl.check(),
            Err(NetlistError::DanglingNet {
                cell: id,
                net: foreign
            })
        );
    }

    #[test]
    fn check_matches_legacy_validate_order() {
        // Undriven net AND a loop: historical validate() reported the
        // undriven net first.
        let mut nl = Netlist::new("multi");
        let float = nl.add_net("float");
        let fb = nl.add_net("fb");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[float, fb]);
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[x], fb);
        nl.mark_output("y", x);
        assert_eq!(nl.check(), Err(NetlistError::UndrivenNet(float)));
    }

    #[test]
    fn lint_is_read_only() {
        let mut nl = Netlist::new("frozen");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[a, fb]);
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[x], fb);
        let before = format!("{nl:?}");
        let _ = nl.lint(&LintConfig::default());
        let _ = nl.check();
        assert_eq!(format!("{nl:?}"), before);
    }

    #[test]
    fn config_can_silence_a_rule() {
        let mut nl = Netlist::new("waste");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
        nl.mark_output("y", y);
        let _unused = nl.gate(LogicFn::Buf, DriveStrength::X1, &[a]);
        let cfg = LintConfig::default().allow(Rule::DanglingOutput);
        let r = nl.lint(&cfg);
        assert!(r.is_clean());
        assert_eq!(r.suppressed(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// A combinational chain (gate k's first input is gate k-1's
        /// output) with the second inputs drawn randomly from earlier
        /// nets — acyclic by construction.
        fn chain_dag(picks: &[usize]) -> (Netlist, Vec<crate::ids::NetId>) {
            let mut nl = Netlist::new("dag");
            let a = nl.add_input("a");
            let b = nl.add_input("b");
            let mut nets = vec![a, b];
            for &p in picks {
                let side = nets[p % nets.len()];
                let prev = *nets.last().expect("non-empty");
                let out = nl.gate(LogicFn::And2, DriveStrength::X1, &[prev, side]);
                nets.push(out);
            }
            nl.mark_output("y", *nets.last().expect("non-empty"));
            (nl, nets)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn random_dags_never_report_loops(
                picks in prop::collection::vec(0usize..1_000_000, 2..40),
            ) {
                let (nl, _) = chain_dag(&picks);
                let report = nl.lint(&LintConfig::default());
                prop_assert!(
                    report.findings().iter().all(|f| f.rule != Rule::CombinationalLoop),
                    "false loop on an acyclic netlist:\n{}",
                    report
                );
            }

            #[test]
            fn mutated_back_edge_always_loops(
                picks in prop::collection::vec(0usize..1_000_000, 3..40),
                lo in 0usize..1_000_000,
                hi in 0usize..1_000_000,
            ) {
                let (mut nl, nets) = chain_dag(&picks);
                // Rewire gate i's chain input to gate j's output (i < j):
                // the chain guarantees a path i → j, so this back-edge
                // always closes a cycle.
                let n = picks.len();
                let i = lo % (n - 1);
                let j = i + 1 + hi % (n - 1 - i);
                let cell = nl.cell_ids().nth(i).expect("cell exists");
                nl.instance_mut(cell).inputs[0] = nets[2 + j];
                let report = nl.lint(&LintConfig::default());
                prop_assert!(
                    report.findings().iter().any(|f| f.rule == Rule::CombinationalLoop),
                    "missed the injected back-edge (i = {}, j = {}):\n{}",
                    i, j, report
                );
            }
        }
    }
}
