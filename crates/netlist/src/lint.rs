//! Gate-level ERC: the `NL0xx` rules of the design-lint engine.
//!
//! This module is the netlist half of the lint engine described in
//! DESIGN.md §12. It runs entirely on the public [`Netlist`] query API
//! and never mutates the design. Entry points:
//!
//! * [`Netlist::lint`] — the full structural rule set (`NL001`–`NL006`,
//!   `NL008`),
//! * [`Netlist::lint_with_library`] — adds the `NL007` drive/fanout
//!   audit, which needs characterized pin capacitances from a
//!   [`openserdes_pdk::library::Library`],
//! * [`Netlist::check`] — the Error-level structural subset as a typed
//!   [`NetlistError`], used by the flow/simulator gates.

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
    for net in undriven_nets(nl) {
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
    for scc in combinational_sccs(nl) {
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
    let fanout = nl.fanout_table();
    let mut dangling: HashSet<CellId> = HashSet::new();
    for (id, inst) in nl.instances() {
        if fanout[inst.output.index()].is_empty() && !nl.is_primary_output(inst.output) {
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
    for id in dead_cells(nl) {
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
    for c in clock_crossings(nl) {
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
        for o in drive_overloads(nl, lib) {
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
    /// This is the single checker behind the flow/simulator gates; the
    /// full diagnostic catalog (dead logic, CDC, drive audits…) is
    /// available through [`Netlist::lint`] /
    /// [`Netlist::lint_with_library`].
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] found, checking the rules in
    /// the order listed above.
    pub fn check(&self) -> Result<(), NetlistError> {
        if let Some(b) = bad_references(self).into_iter().next() {
            return Err(match b {
                BadRef::Dangling { cell, net } => NetlistError::DanglingNet { cell, net },
                BadRef::NoClock(cell) => NetlistError::MissingClock(cell),
            });
        }
        if let Some((net, drivers)) = driver_conflicts(self).into_iter().next() {
            return Err(NetlistError::MultipleDrivers { net, drivers });
        }
        if let Some(net) = undriven_nets(self).into_iter().next() {
            return Err(NetlistError::UndrivenNet(net));
        }
        if let Some(scc) = combinational_sccs(self).into_iter().next() {
            return Err(NetlistError::CombinationalLoop(scc));
        }
        Ok(())
    }
}

/// A corrupt structural reference (`NL008`).
enum BadRef {
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

fn bad_references(nl: &Netlist) -> Vec<BadRef> {
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

fn driver_conflicts(nl: &Netlist) -> Vec<(NetId, Vec<CellId>)> {
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

fn undriven_nets(nl: &Netlist) -> Vec<NetId> {
    let driver = nl.driver_table();
    let fanout = nl.fanout_table();
    let mut out = Vec::new();
    for ni in 0..nl.net_count() {
        let net = NetId(ni as u32);
        let read = !fanout[ni].is_empty() || nl.is_primary_output(net);
        if read && driver[ni].is_none() && !nl.is_primary_input(net) {
            out.push(net);
        }
    }
    out
}

/// Tarjan's SCC over the combinational cell graph: edge `u -> v` when
/// combinational `v` reads combinational `u`'s output. Returns only the
/// cyclic components (size > 1, or a self-loop).
fn combinational_sccs(nl: &Netlist) -> Vec<Vec<CellId>> {
    let n = nl.cell_count();
    let comb: Vec<bool> = nl.instances().map(|(_, i)| !i.is_sequential()).collect();
    // Successor lists (combinational only).
    let fanout = nl.fanout_table();
    let succs: Vec<Vec<usize>> = (0..n)
        .map(|u| {
            if !comb[u] {
                return Vec::new();
            }
            fanout[nl.instance(CellId(u as u32)).output.index()]
                .iter()
                .map(|c| c.index())
                .filter(|&v| comb[v])
                .collect()
        })
        .collect();

    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut sccs = Vec::new();

    for root in 0..n {
        if !comb[root] || index[root] != UNVISITED {
            continue;
        }
        // Iterative Tarjan: frames of (node, next successor position).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        while !frames.is_empty() {
            let (v, si) = {
                let frame = frames.last_mut().expect("frames is nonempty");
                let v = frame.0;
                if frame.1 == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let si = frame.1;
                frame.1 += 1;
                (v, si)
            };
            if let Some(&w) = succs[v].get(si) {
                if index[w] == UNVISITED {
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        scc.push(CellId(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    let cyclic = scc.len() > 1 || {
                        let inst = nl.instance(scc[0]);
                        inst.inputs.contains(&inst.output)
                    };
                    if cyclic {
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
    }
    sccs.sort_unstable();
    sccs
}

/// Cells outside the reverse fan-in cone of every primary output
/// (traced through data and clock pins).
fn dead_cells(nl: &Netlist) -> Vec<CellId> {
    let driver = nl.driver_table();
    let mut live = vec![false; nl.cell_count()];
    let mut seen = vec![false; nl.net_count()];
    let mut queue: VecDeque<NetId> = nl.primary_outputs().iter().map(|(_, n)| *n).collect();
    while let Some(net) = queue.pop_front() {
        if seen[net.index()] {
            continue;
        }
        seen[net.index()] = true;
        if let Some(c) = driver[net.index()] {
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

/// Trace a clock net back through buffer/inverter chains to its root
/// (a primary input, a flop output, a multi-input gate output, or a
/// floating net).
fn clock_root(nl: &Netlist, driver: &[Option<CellId>], net: NetId) -> NetId {
    let mut cur = net;
    for _ in 0..=nl.net_count() {
        match driver[cur.index()] {
            Some(c) => {
                let inst = nl.instance(c);
                if !inst.is_sequential() && inst.inputs.len() == 1 {
                    cur = inst.inputs[0];
                } else {
                    return cur;
                }
            }
            None => return cur,
        }
    }
    cur
}

fn clock_crossings(nl: &Netlist) -> Vec<Crossing> {
    let driver = nl.driver_table();
    let fanout = nl.fanout_table();
    // Clock domain per flop.
    let domains: Vec<Option<NetId>> = nl
        .instances()
        .map(|(_, inst)| inst.clock.map(|c| clock_root(nl, &driver, c)))
        .collect();

    let mut out = Vec::new();
    for (dst, inst) in nl.instances() {
        let Some(dst_domain) = domains[dst.index()] else {
            continue;
        };
        // DFS over the combinational fan-in cone of the flop's data
        // pins, tracking whether the path crossed multi-input logic.
        let mut sources: Vec<(CellId, bool)> = Vec::new();
        let mut visited: HashSet<(NetId, bool)> = HashSet::new();
        let mut stack: Vec<(NetId, bool)> = inst.inputs.iter().map(|&n| (n, false)).collect();
        while let Some((net, cx)) = stack.pop() {
            if !visited.insert((net, cx)) {
                continue;
            }
            let Some(c) = driver[net.index()] else {
                continue; // primary input or floating: no known domain
            };
            let src_inst = nl.instance(c);
            if src_inst.is_sequential() {
                sources.push((c, cx));
            } else {
                let deeper = cx || src_inst.inputs.len() > 1;
                for &n in &src_inst.inputs {
                    stack.push((n, deeper));
                }
            }
        }
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
            if !through_logic && is_sync_stage(nl, &fanout, &domains, dst, dst_domain) {
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
    fanout: &[Vec<CellId>],
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
        for &sink in &fanout[net.index()] {
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

fn drive_overloads(nl: &Netlist, lib: &Library) -> Vec<Overload> {
    let fanout = nl.fanout_table();
    let mut out = Vec::new();
    for (id, inst) in nl.instances() {
        let Ok(cell) = lib.cell(inst.function, inst.drive) else {
            continue;
        };
        let mut load = Farad::from_ff(0.0);
        for &sink in &fanout[inst.output.index()] {
            let s = nl.instance(sink);
            let Ok(sc) = lib.cell(s.function, s.drive) else {
                continue;
            };
            let pins = s.inputs.iter().filter(|&&n| n == inst.output).count();
            load += sc.input_cap * pins as f64;
            if s.clock == Some(inst.output) {
                load += sc.clock_cap;
            }
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
