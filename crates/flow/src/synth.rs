//! Logic synthesis: RTL IR → optimized, technology-mapped netlist.
//!
//! This pass plays the role yosys + ABC play inside OpenLANE:
//!
//! 1. **Constant folding & algebraic simplification** — `x & 0 = 0`,
//!    `x ^ x = 0`, double-negation removal, mux with constant select, …
//! 2. **Structural hashing** — identical subexpressions share one gate.
//! 3. **Technology mapping** — fuses inverters into the library's
//!    inverting cells (`Nand2`, `Nor2`, `Xnor2`, `Aoi21`, `Oai21`) when
//!    the inner node has no other fanout, and emits `And2`/`Or2`/`Xor2`/
//!    `Mux2`/`Inv` otherwise; registers become `Dff` cells on a shared
//!    clock.
//! 4. **Drive sizing** — each gate is up-sized until its library
//!    `max_load` covers the capacitance it actually drives.
//!
//! Constants that survive folding (e.g. a register fed a literal) surface
//! as the auto-created `const0`/`const1` primary inputs recorded in
//! [`SynthResult`]; testbenches tie them.

use crate::ir::{Design, NodeOp, Sig};
use openserdes_netlist::{CellId, Connectivity, NetId, Netlist, NetlistError};
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
use std::collections::HashMap;

/// Folded-graph node (post constant-propagation, pre-mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FNode {
    Input(usize),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    Mux { a: u32, b: u32, sel: u32 },
    RegQ(usize),
}

/// A folded signal: either a known constant or a folded-graph node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FVal {
    Const(bool),
    Node(u32),
}

/// Result of synthesizing a [`Design`].
#[derive(Debug, Clone)]
pub struct SynthResult {
    /// The mapped gate-level netlist.
    pub netlist: Netlist,
    /// The shared clock net.
    pub clk: NetId,
    /// Primary-input nets, aligned with [`Design::input_names`].
    pub inputs: Vec<NetId>,
    /// Output `(name, net)` pairs, aligned with [`Design::outputs`].
    pub outputs: Vec<(String, NetId)>,
    /// Net for a constant-0 source, if the design needed one.
    pub const0: Option<NetId>,
    /// Net for a constant-1 source, if the design needed one.
    pub const1: Option<NetId>,
    /// Number of IR nodes eliminated by folding and hashing.
    pub nodes_eliminated: usize,
    /// Multicycle exceptions carried over from the design, as
    /// `(flop instance, factor)`.
    pub multicycle: Vec<(CellId, u32)>,
}

struct Folder {
    fnodes: Vec<FNode>,
    hash: HashMap<FNode, u32>,
}

impl Folder {
    fn intern(&mut self, n: FNode) -> FVal {
        if let Some(&id) = self.hash.get(&n) {
            return FVal::Node(id);
        }
        let id = self.fnodes.len() as u32;
        self.fnodes.push(n);
        self.hash.insert(n, id);
        FVal::Node(id)
    }

    fn not(&mut self, a: FVal) -> FVal {
        match a {
            FVal::Const(v) => FVal::Const(!v),
            FVal::Node(n) => {
                // Double negation: Not(Not(x)) = x.
                if let FNode::Not(inner) = self.fnodes[n as usize] {
                    FVal::Node(inner)
                } else {
                    self.intern(FNode::Not(n))
                }
            }
        }
    }

    fn and(&mut self, a: FVal, b: FVal) -> FVal {
        match (a, b) {
            (FVal::Const(false), _) | (_, FVal::Const(false)) => FVal::Const(false),
            (FVal::Const(true), x) | (x, FVal::Const(true)) => x,
            (FVal::Node(x), FVal::Node(y)) => {
                if x == y {
                    return FVal::Node(x);
                }
                if self.complementary(x, y) {
                    return FVal::Const(false);
                }
                let (x, y) = (x.min(y), x.max(y));
                self.intern(FNode::And(x, y))
            }
        }
    }

    fn or(&mut self, a: FVal, b: FVal) -> FVal {
        match (a, b) {
            (FVal::Const(true), _) | (_, FVal::Const(true)) => FVal::Const(true),
            (FVal::Const(false), x) | (x, FVal::Const(false)) => x,
            (FVal::Node(x), FVal::Node(y)) => {
                if x == y {
                    return FVal::Node(x);
                }
                if self.complementary(x, y) {
                    return FVal::Const(true);
                }
                let (x, y) = (x.min(y), x.max(y));
                self.intern(FNode::Or(x, y))
            }
        }
    }

    fn xor(&mut self, a: FVal, b: FVal) -> FVal {
        match (a, b) {
            (FVal::Const(va), FVal::Const(vb)) => FVal::Const(va ^ vb),
            (FVal::Const(false), x) | (x, FVal::Const(false)) => x,
            (FVal::Const(true), x) | (x, FVal::Const(true)) => self.not(x),
            (FVal::Node(x), FVal::Node(y)) => {
                if x == y {
                    return FVal::Const(false);
                }
                if self.complementary(x, y) {
                    return FVal::Const(true);
                }
                let (x, y) = (x.min(y), x.max(y));
                self.intern(FNode::Xor(x, y))
            }
        }
    }

    fn mux(&mut self, a: FVal, b: FVal, sel: FVal) -> FVal {
        match sel {
            FVal::Const(false) => a,
            FVal::Const(true) => b,
            FVal::Node(s) => {
                if a == b {
                    return a;
                }
                match (a, b) {
                    // mux(0, b, s) = s & b ; mux(a, 1, s) = a | s, etc.
                    (FVal::Const(false), bb) => self.and(FVal::Node(s), bb),
                    (FVal::Const(true), bb) => {
                        let ns = self.not(FVal::Node(s));
                        self.or(ns, bb)
                    }
                    (aa, FVal::Const(false)) => {
                        let ns = self.not(FVal::Node(s));
                        self.and(ns, aa)
                    }
                    (aa, FVal::Const(true)) => self.or(FVal::Node(s), aa),
                    (FVal::Node(x), FVal::Node(y)) => {
                        self.intern(FNode::Mux { a: x, b: y, sel: s })
                    }
                }
            }
        }
    }

    fn complementary(&self, x: u32, y: u32) -> bool {
        matches!(self.fnodes[x as usize], FNode::Not(i) if i == y)
            || matches!(self.fnodes[y as usize], FNode::Not(i) if i == x)
    }
}

/// Synthesizes a design into a mapped netlist using `library` for cell
/// selection and drive sizing.
///
/// # Errors
///
/// Returns a [`NetlistError`] if the produced netlist fails validation —
/// which would indicate a bug in synthesis, but is surfaced rather than
/// hidden.
///
/// # Panics
///
/// Panics if the design has unconnected registers.
pub fn synthesize(design: &Design, library: &Library) -> Result<SynthResult, NetlistError> {
    design.assert_complete();

    // ---- fold & hash ---------------------------------------------------
    let mut folder = Folder {
        fnodes: Vec::new(),
        hash: HashMap::new(),
    };
    let mut fold_of: Vec<FVal> = Vec::with_capacity(design.nodes().len());
    for op in design.nodes() {
        let v = match *op {
            NodeOp::Input(idx) => folder.intern(FNode::Input(idx)),
            NodeOp::Const(v) => FVal::Const(v),
            NodeOp::Not(a) => {
                let a = fold_of[a.index()];
                folder.not(a)
            }
            NodeOp::And(a, b) => {
                let (a, b) = (fold_of[a.index()], fold_of[b.index()]);
                folder.and(a, b)
            }
            NodeOp::Or(a, b) => {
                let (a, b) = (fold_of[a.index()], fold_of[b.index()]);
                folder.or(a, b)
            }
            NodeOp::Xor(a, b) => {
                let (a, b) = (fold_of[a.index()], fold_of[b.index()]);
                folder.xor(a, b)
            }
            NodeOp::Mux { a, b, sel } => {
                let (a, b, sel) = (fold_of[a.index()], fold_of[b.index()], fold_of[sel.index()]);
                folder.mux(a, b, sel)
            }
            NodeOp::RegQ(idx) => folder.intern(FNode::RegQ(idx)),
        };
        fold_of.push(v);
    }
    let fold = |s: Sig| fold_of[s.index()];

    // ---- reachability & use counts --------------------------------------
    let roots: Vec<FVal> = design
        .outputs()
        .iter()
        .map(|(_, s)| fold(*s))
        .chain((0..design.reg_count()).map(|i| fold(design.reg_d(i))))
        .collect();
    let n = folder.fnodes.len();
    let mut used = vec![false; n];
    let mut uses = vec![0u32; n];
    let mut stack: Vec<u32> = roots
        .iter()
        .filter_map(|v| match v {
            FVal::Node(i) => Some(*i),
            FVal::Const(_) => None,
        })
        .collect();
    for &r in &stack {
        uses[r as usize] += 1;
    }
    while let Some(i) = stack.pop() {
        if used[i as usize] {
            continue;
        }
        used[i as usize] = true;
        let visit = |j: u32, uses: &mut Vec<u32>, stack: &mut Vec<u32>| {
            uses[j as usize] += 1;
            stack.push(j);
        };
        match folder.fnodes[i as usize] {
            FNode::Input(_) | FNode::RegQ(_) => {}
            FNode::Not(a) => visit(a, &mut uses, &mut stack),
            FNode::And(a, b) | FNode::Or(a, b) | FNode::Xor(a, b) => {
                visit(a, &mut uses, &mut stack);
                visit(b, &mut uses, &mut stack);
            }
            FNode::Mux { a, b, sel } => {
                visit(a, &mut uses, &mut stack);
                visit(b, &mut uses, &mut stack);
                visit(sel, &mut uses, &mut stack);
            }
        }
    }

    // ---- emit netlist ----------------------------------------------------
    let mut nl = Netlist::new(design.name());
    let clk = nl.add_input("clk");
    let input_nets: Vec<NetId> = design
        .input_names()
        .iter()
        .map(|name| nl.add_input(name.clone()))
        .collect();
    // Register Q nets exist up front so feedback works.
    let reg_nets: Vec<NetId> = (0..design.reg_count())
        .map(|i| nl.add_net(format!("reg_q_{i}")))
        .collect();

    struct Emitter<'l> {
        nl: Netlist,
        lib_has_aoi: bool,
        memo: Vec<Option<NetId>>,
        const0: Option<NetId>,
        const1: Option<NetId>,
        input_nets: Vec<NetId>,
        reg_nets: Vec<NetId>,
        _lib: &'l Library,
    }

    impl Emitter<'_> {
        fn const_net(&mut self, v: bool) -> NetId {
            let slot = if v {
                &mut self.const1
            } else {
                &mut self.const0
            };
            if let Some(n) = *slot {
                return n;
            }
            let n = self.nl.add_input(if v { "const1" } else { "const0" });
            *slot = Some(n);
            n
        }

        fn emit_val(&mut self, folder: &Folder, uses: &[u32], v: FVal) -> NetId {
            match v {
                FVal::Const(c) => self.const_net(c),
                FVal::Node(i) => self.emit(folder, uses, i),
            }
        }

        fn emit(&mut self, folder: &Folder, uses: &[u32], i: u32) -> NetId {
            if let Some(n) = self.memo[i as usize] {
                return n;
            }
            let d = DriveStrength::X1;
            let net = match folder.fnodes[i as usize] {
                FNode::Input(idx) => self.input_nets[idx],
                FNode::RegQ(r) => self.reg_nets[r],
                FNode::Not(a) => {
                    // Inverter fusion when the inner node is single-use.
                    let single = uses[a as usize] == 1;
                    match folder.fnodes[a as usize] {
                        FNode::And(x, y) if single && self.lib_has_aoi => {
                            // OAI21 pattern: Not(And(Or(p,q), r)).
                            if let FNode::Or(p, q) = folder.fnodes[x as usize] {
                                if uses[x as usize] == 1 {
                                    let np = self.emit(folder, uses, p);
                                    let nq = self.emit(folder, uses, q);
                                    let ny = self.emit(folder, uses, y);
                                    let out = self.nl.gate(LogicFn::Oai21, d, &[np, nq, ny]);
                                    self.memo[i as usize] = Some(out);
                                    return out;
                                }
                            }
                            if let FNode::Or(p, q) = folder.fnodes[y as usize] {
                                if uses[y as usize] == 1 {
                                    let np = self.emit(folder, uses, p);
                                    let nq = self.emit(folder, uses, q);
                                    let nx = self.emit(folder, uses, x);
                                    let out = self.nl.gate(LogicFn::Oai21, d, &[np, nq, nx]);
                                    self.memo[i as usize] = Some(out);
                                    return out;
                                }
                            }
                            let nx = self.emit(folder, uses, x);
                            let ny = self.emit(folder, uses, y);
                            self.nl.gate(LogicFn::Nand2, d, &[nx, ny])
                        }
                        FNode::And(x, y) if single => {
                            let nx = self.emit(folder, uses, x);
                            let ny = self.emit(folder, uses, y);
                            self.nl.gate(LogicFn::Nand2, d, &[nx, ny])
                        }
                        FNode::Or(x, y) if single && self.lib_has_aoi => {
                            if let FNode::And(p, q) = folder.fnodes[x as usize] {
                                if uses[x as usize] == 1 {
                                    let np = self.emit(folder, uses, p);
                                    let nq = self.emit(folder, uses, q);
                                    let ny = self.emit(folder, uses, y);
                                    let out = self.nl.gate(LogicFn::Aoi21, d, &[np, nq, ny]);
                                    self.memo[i as usize] = Some(out);
                                    return out;
                                }
                            }
                            if let FNode::And(p, q) = folder.fnodes[y as usize] {
                                if uses[y as usize] == 1 {
                                    let np = self.emit(folder, uses, p);
                                    let nq = self.emit(folder, uses, q);
                                    let nx = self.emit(folder, uses, x);
                                    let out = self.nl.gate(LogicFn::Aoi21, d, &[np, nq, nx]);
                                    self.memo[i as usize] = Some(out);
                                    return out;
                                }
                            }
                            let nx = self.emit(folder, uses, x);
                            let ny = self.emit(folder, uses, y);
                            self.nl.gate(LogicFn::Nor2, d, &[nx, ny])
                        }
                        FNode::Or(x, y) if single => {
                            let nx = self.emit(folder, uses, x);
                            let ny = self.emit(folder, uses, y);
                            self.nl.gate(LogicFn::Nor2, d, &[nx, ny])
                        }
                        FNode::Xor(x, y) if single => {
                            let nx = self.emit(folder, uses, x);
                            let ny = self.emit(folder, uses, y);
                            self.nl.gate(LogicFn::Xnor2, d, &[nx, ny])
                        }
                        _ => {
                            let na = self.emit(folder, uses, a);
                            self.nl.gate(LogicFn::Inv, d, &[na])
                        }
                    }
                }
                FNode::And(a, b) => {
                    let na = self.emit(folder, uses, a);
                    let nb = self.emit(folder, uses, b);
                    self.nl.gate(LogicFn::And2, d, &[na, nb])
                }
                FNode::Or(a, b) => {
                    let na = self.emit(folder, uses, a);
                    let nb = self.emit(folder, uses, b);
                    self.nl.gate(LogicFn::Or2, d, &[na, nb])
                }
                FNode::Xor(a, b) => {
                    let na = self.emit(folder, uses, a);
                    let nb = self.emit(folder, uses, b);
                    self.nl.gate(LogicFn::Xor2, d, &[na, nb])
                }
                FNode::Mux { a, b, sel } => {
                    let na = self.emit(folder, uses, a);
                    let nb = self.emit(folder, uses, b);
                    let ns = self.emit(folder, uses, sel);
                    self.nl.gate(LogicFn::Mux2, d, &[na, nb, ns])
                }
            };
            self.memo[i as usize] = Some(net);
            net
        }
    }

    let mut em = Emitter {
        nl,
        lib_has_aoi: library.cell(LogicFn::Aoi21, DriveStrength::X1).is_ok(),
        memo: vec![None; n],
        const0: None,
        const1: None,
        input_nets: input_nets.clone(),
        reg_nets: reg_nets.clone(),
        _lib: library,
    };

    // Registers first (so Q nets get drivers), then outputs.
    let mut reg_cells = Vec::with_capacity(design.reg_count());
    for (r, &q_net) in reg_nets.iter().enumerate() {
        let d_net = em.emit_val(&folder, &uses, fold(design.reg_d(r)));
        reg_cells.push(em.nl.dff_into(d_net, clk, DriveStrength::X1, q_net));
    }
    let mut outputs = Vec::new();
    for (name, sig) in design.outputs() {
        let net = em.emit_val(&folder, &uses, fold(*sig));
        em.nl.mark_output(name.clone(), net);
        outputs.push((name.clone(), net));
    }

    let mut netlist = em.nl;
    let (const0, const1) = (em.const0, em.const1);

    // ---- high-fanout buffering & drive sizing ------------------------------
    // Sizing changes drive strengths only, so the checked structure
    // serves it.
    buffer_high_fanout(&mut netlist, MAX_FANOUT);
    let (conn, _) = Connectivity::checked(&netlist)?;
    resize_drives(&mut netlist, &conn, library);
    let mapped_nodes = netlist.cell_count();
    let multicycle = design
        .multicycle()
        .iter()
        .map(|&(reg_idx, factor)| (reg_cells[reg_idx], factor))
        .collect();
    Ok(SynthResult {
        nodes_eliminated: design.nodes().len().saturating_sub(mapped_nodes),
        netlist,
        clk,
        inputs: input_nets,
        outputs,
        const0,
        const1,
        multicycle,
    })
}

/// Fanout cap enforced by [`buffer_high_fanout`] during synthesis.
const MAX_FANOUT: usize = 12;

/// Inserts buffer trees on nets whose fanout exceeds `max_fanout` (the
/// OpenLANE `hfns` step): sinks are regrouped behind `Buf` cells,
/// recursively, so no net drives more than `max_fanout` pins. Clock pins
/// are left alone — the CTS stage owns the clock network.
///
/// Nets are visited in id order, and an offending net is revisited until
/// it fits: buffering net k rewires only net k's data sinks and appends
/// the buffers and their nets, so no earlier net changes. One set of
/// per-net sink lists, copied from a [`Connectivity`], serves the whole
/// pass. After each buffering only net k's list and the new nets' lists
/// are updated in place, so the pass runs in time linear in the pins it
/// rewires.
///
/// A list holds a cell once per pin, so a cell reading the net on m
/// pins yields each of its sink pins m times, and the later group's
/// buffer wins. Below a cap of 7 that count can give a buffer net its
/// parent's sink list exactly, so buffering would never end. A net with
/// no clock readers whose every pin would land behind the last buffer is
/// left as it is: its distinct pins already fit one group.
fn buffer_high_fanout(netlist: &mut Netlist, max_fanout: usize) {
    assert!(max_fanout >= 2, "fanout cap must be at least 2");
    let mut fanout = sink_lists(netlist);
    let mut nets: Vec<NetId> = netlist.net_ids().collect();
    let mut k = 0;
    while k < nets.len() {
        let net = nets[k];
        let readers = &fanout[net.index()];
        let sinks = data_sinks(netlist, readers, net);
        if sinks.len() <= max_fanout
            || regrouping_repeats(netlist, readers, net, &sinks, max_fanout)
        {
            k += 1;
            continue;
        }
        // Move every sink group behind a fresh buffer: the net's new
        // fanout is ceil(n / max_fanout), strictly smaller, so the
        // revisits end; oversized buffer levels are visited in turn.
        let first_new = netlist.net_count();
        let mut buffers = Vec::new();
        for group in sinks.chunks(max_fanout) {
            let buffered = netlist.gate(LogicFn::Buf, DriveStrength::X4, &[net]);
            buffers.push(netlist.cell_ids().next_back().expect("buffer cell"));
            nets.push(buffered);
            for &(cell, pin) in group {
                netlist.instance_mut(cell).inputs[pin] = buffered;
            }
        }
        // The net keeps its clock-pin readers, once each, and gains the
        // buffers; each rewired cell reads its new nets once per pin.
        let entry = &mut fanout[net.index()];
        entry.retain(|&cell| netlist.instance(cell).clock == Some(net));
        entry.dedup();
        entry.extend(buffers);
        fanout.resize(netlist.net_count(), Vec::new());
        let mut rewired: Vec<CellId> = sinks.iter().map(|&(cell, _)| cell).collect();
        rewired.dedup();
        for cell in rewired {
            for &input in &netlist.instance(cell).inputs {
                if input.index() >= first_new {
                    fanout[input.index()].push(cell);
                }
            }
        }
    }
    debug_assert!(fanout == sink_lists(netlist), "kept sink lists drifted");
}

/// Every net's sinks as a list of its own, in [`Connectivity::sinks`]
/// order.
fn sink_lists(netlist: &Netlist) -> Vec<Vec<CellId>> {
    let conn = Connectivity::new(netlist);
    netlist
        .net_ids()
        .map(|net| conn.sinks(net).to_vec())
        .collect()
}

/// `true` when regrouping `sinks` would leave every data pin of `net`
/// behind the last group's buffer while `net` has no clock readers. That
/// buffer's net would then have `net`'s sink list exactly, and so would
/// each buffer after it. The pins all fit one group, so `net` already
/// meets the cap.
fn regrouping_repeats(
    netlist: &Netlist,
    readers: &[CellId],
    net: NetId,
    sinks: &[(CellId, usize)],
    max_fanout: usize,
) -> bool {
    let (head, last) = sinks.split_at((sinks.len() - 1) / max_fanout * max_fanout);
    head.iter().all(|sink| last.contains(sink))
        && readers
            .iter()
            .all(|&cell| netlist.instance(cell).clock != Some(net))
}

/// The `(cell, data pin)` pairs reading `net`, in the order of its
/// sink list `readers`; clock pins are not listed.
fn data_sinks(netlist: &Netlist, readers: &[CellId], net: NetId) -> Vec<(CellId, usize)> {
    let mut sinks = Vec::new();
    for &cell in readers {
        for (pin, &input) in netlist.instance(cell).inputs.iter().enumerate() {
            if input == net {
                sinks.push((cell, pin));
            }
        }
    }
    sinks
}

/// Up-sizes every instance until its cell's `max_load` covers the load of
/// its output net ([`Connectivity::estimated_load`]: pin caps plus
/// wireload), with `conn` the netlist's connectivity. One pass is enough
/// because input pin caps are drive-capped in the library model.
fn resize_drives(netlist: &mut Netlist, conn: &Connectivity, library: &Library) {
    let loads: Vec<_> = netlist
        .net_ids()
        .map(|net| conn.estimated_load(netlist, library, net))
        .collect();
    let ids: Vec<_> = netlist.cell_ids().collect();
    for id in ids {
        let out = netlist.instance(id).output;
        let function = netlist.instance(id).function;
        let chosen = library.pick_drive(function, loads[out.index()]);
        netlist.instance_mut(id).drive = chosen.drive;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Design;
    use openserdes_digital::{CycleSim, Logic};
    use openserdes_netlist::NetlistStats;
    use openserdes_pdk::corner::Pvt;

    fn lib() -> Library {
        Library::sky130(Pvt::nominal())
    }

    /// Drives the mapped netlist and the IR interpreter with the same
    /// stimulus and compares every output for `cycles` clock cycles.
    fn check_equivalence(design: &Design, vectors: &[u64], input_bits: usize) {
        let library = lib();
        let res = synthesize(design, &library).expect("synthesizable");
        let mut gate = CycleSim::new(&res.netlist).expect("valid netlist");
        gate.reset_flops();
        if let Some(c0) = res.const0 {
            gate.set_bit(c0, false);
        }
        if let Some(c1) = res.const1 {
            gate.set_bit(c1, true);
        }
        let mut golden = crate::ir::IrSim::new(design);
        for &vec in vectors {
            for (i, &net) in res.inputs.iter().enumerate() {
                let bit = vec >> (i % input_bits.max(1)) & 1 == 1;
                gate.set_bit(net, bit);
            }
            for (i, name) in design.input_names().iter().enumerate() {
                let bit = vec >> (i % input_bits.max(1)) & 1 == 1;
                golden.set_by_name(name, bit);
            }
            gate.tick();
            golden.tick();
            for ((name, net), (gname, gsig)) in res.outputs.iter().zip(design.outputs()) {
                assert_eq!(name, gname);
                assert_eq!(
                    gate.value(*net),
                    Logic::from_bool(golden.get(*gsig)),
                    "output {name} diverged on vector {vec:#x}"
                );
            }
        }
    }

    #[test]
    fn counter_equivalent_after_mapping() {
        let mut d = Design::new("cnt4");
        let q = d.reg_bus(4);
        let en = d.input("en");
        let inc = d.incr(&q);
        let next = d.mux_bus(&q, &inc, en);
        d.connect_reg_bus(&q, &next);
        d.output_bus("q", &q);
        check_equivalence(&d, &[1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 1);
    }

    #[test]
    fn comparator_equivalent() {
        let mut d = Design::new("cmp");
        let b = d.input_bus("b", 6);
        let hit = d.eq_const(&b, 0b101101);
        d.output("hit", hit);
        let vectors: Vec<u64> = (0..64).collect();
        check_equivalence(&d, &vectors, 6);
    }

    #[test]
    fn random_expressions_equivalent() {
        // A mixed expression with sharing, constants and all operators.
        let mut d = Design::new("expr");
        let a = d.input("a");
        let b = d.input("b");
        let c = d.input("c");
        let t1 = d.and(a, b);
        let t2 = d.or(t1, c);
        let t3 = d.not(t2); // candidate AOI21
        let t4 = d.xor(t1, c); // t1 shared: no fusion allowed
        let one = d.constant(true);
        let t5 = d.xor(t4, one); // = Xnor
        let t6 = d.mux(t3, t5, a);
        d.output("y", t6);
        let vectors: Vec<u64> = (0..8).chain(0..8).collect();
        check_equivalence(&d, &vectors, 3);
    }

    #[test]
    fn constants_fold_away() {
        let mut d = Design::new("fold");
        let a = d.input("a");
        let zero = d.constant(false);
        let one = d.constant(true);
        let t1 = d.and(a, one); // = a
        let t2 = d.or(t1, zero); // = a
        let t3 = d.xor(t2, zero); // = a
        let t4 = d.not(t3);
        let t5 = d.not(t4); // = a
        d.output("y", t5);
        let res = synthesize(&d, &lib()).expect("ok");
        // Output should be wired straight to the input: zero gates.
        assert_eq!(res.netlist.cell_count(), 0);
        assert!(res.const0.is_none() && res.const1.is_none());
    }

    #[test]
    fn structural_hashing_dedupes() {
        let mut d = Design::new("dup");
        let a = d.input("a");
        let b = d.input("b");
        let x1 = d.and(a, b);
        let x2 = d.and(a, b); // identical
        let x3 = d.and(b, a); // commuted — also identical after sorting
        let y1 = d.xor(x1, x2); // = 0
        let y2 = d.or(x1, x3); // = x1
        d.output("y1", y1);
        d.output("y2", y2);
        let res = synthesize(&d, &lib()).expect("ok");
        // y1 folded to const0, y2 is one AND gate.
        assert_eq!(res.netlist.cell_count(), 1);
        assert!(res.const0.is_some());
    }

    #[test]
    fn nand_fusion_happens() {
        let mut d = Design::new("nand");
        let a = d.input("a");
        let b = d.input("b");
        let t = d.and(a, b);
        let y = d.not(t);
        d.output("y", y);
        let res = synthesize(&d, &lib()).expect("ok");
        assert_eq!(res.netlist.cell_count(), 1);
        let (_, inst) = res.netlist.instances().next().unwrap();
        assert_eq!(inst.function, LogicFn::Nand2);
    }

    #[test]
    fn aoi_fusion_happens() {
        let mut d = Design::new("aoi");
        let a = d.input("a");
        let b = d.input("b");
        let c = d.input("c");
        let t1 = d.and(a, b);
        let t2 = d.or(t1, c);
        let y = d.not(t2);
        d.output("y", y);
        let res = synthesize(&d, &lib()).expect("ok");
        assert_eq!(res.netlist.cell_count(), 1);
        let (_, inst) = res.netlist.instances().next().unwrap();
        assert_eq!(inst.function, LogicFn::Aoi21);
    }

    #[test]
    fn shared_node_not_fused() {
        let mut d = Design::new("shared");
        let a = d.input("a");
        let b = d.input("b");
        let t = d.and(a, b);
        let y1 = d.not(t);
        d.output("y1", y1);
        d.output("t", t); // t has external fanout
        let res = synthesize(&d, &lib()).expect("ok");
        // Must keep And2 + Inv (no Nand fusion).
        assert_eq!(res.netlist.cell_count(), 2);
        let funcs: Vec<LogicFn> = res.netlist.instances().map(|(_, i)| i.function).collect();
        assert!(funcs.contains(&LogicFn::And2));
        assert!(funcs.contains(&LogicFn::Inv));
    }

    #[test]
    fn registers_become_dffs() {
        let mut d = Design::new("sr2");
        let din = d.input("din");
        let q0 = d.reg();
        let q1 = d.reg();
        d.connect_reg(q0, din);
        d.connect_reg(q1, q0);
        d.output("dout", q1);
        let res = synthesize(&d, &lib()).expect("ok");
        assert_eq!(res.netlist.flop_count(), 2);
    }

    #[test]
    fn heavy_fanout_gets_buffered_and_stays_correct() {
        let mut d = Design::new("fan");
        let a = d.input("a");
        let inv = d.not(a);
        // 40 consumers of the inverted signal.
        for i in 0..40 {
            let b = d.input(format!("b{i}"));
            let y = d.xor(inv, b);
            d.output(format!("y{i}"), y);
        }
        let res = synthesize(&d, &lib()).expect("ok");
        // The fanout cap holds on every net.
        let max_fanout = NetlistStats::compute(&res.netlist, &lib()).max_fanout;
        assert!(
            max_fanout <= crate::synth::MAX_FANOUT + 1,
            "max fanout = {max_fanout}"
        );
        // Buffers were inserted.
        let bufs = res
            .netlist
            .instances()
            .filter(|(_, i)| i.function == LogicFn::Buf)
            .count();
        assert!(bufs >= 3, "expected a buffer tree, got {bufs} buffers");
        // And the function is preserved.
        check_equivalence(&d, &[0, 1, 2, 0x55, u64::MAX], 41);
    }

    #[test]
    fn buffering_leaves_small_nets_alone() {
        let mut d = Design::new("small");
        let a = d.input("a");
        let b = d.input("b");
        let y = d.and(a, b);
        d.output("y", y);
        let res = synthesize(&d, &lib()).expect("ok");
        assert_eq!(res.netlist.cell_count(), 1, "no gratuitous buffers");
    }

    /// The buffering loop before the sink lists were kept: rebuild the
    /// connectivity and rescan from net 0 after every buffered net. Returns
    /// `false` if it has not finished after `max_steps` buffered nets.
    fn buffer_high_fanout_reference(
        netlist: &mut Netlist,
        max_fanout: usize,
        max_steps: usize,
    ) -> bool {
        for _ in 0..=max_steps {
            let conn = Connectivity::new(netlist);
            let mut offender: Option<(NetId, Vec<(CellId, usize)>)> = None;
            for net in netlist.net_ids() {
                let mut sinks = Vec::new();
                for &cell in conn.sinks(net) {
                    for (pin, &input) in netlist.instance(cell).inputs.iter().enumerate() {
                        if input == net {
                            sinks.push((cell, pin));
                        }
                    }
                }
                if sinks.len() > max_fanout {
                    offender = Some((net, sinks));
                    break;
                }
            }
            let Some((net, sinks)) = offender else {
                return true;
            };
            for group in sinks.chunks(max_fanout) {
                let buffered = netlist.gate(LogicFn::Buf, DriveStrength::X4, &[net]);
                for &(cell, pin) in group {
                    netlist.instance_mut(cell).inputs[pin] = buffered;
                }
            }
        }
        false
    }

    /// A random netlist with hub nets. A fixed skeleton holds a flop
    /// clocked by data net `a` and a flop reading `clk` on its data and
    /// clock pins. Each random cell (inverter, NAND2, MUX2, or a flop
    /// clocked by any net) draws half its inputs from the first six
    /// nets, so those fan out past every cap. For half the seeds the
    /// skeleton adds a NAND2 reading `a` on both pins, and random NAND2s
    /// and picks may read one net on several pins; for the other half
    /// every cell reads distinct nets.
    fn hub_netlist(seed: u64) -> Netlist {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x1 = DriveStrength::X1;
        let twice = rng.gen_range(0..2usize) == 0;
        let mut nl = Netlist::new("hubs");
        let clk = nl.add_input("clk");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut nets = vec![clk, a, b];
        nets.push(nl.dff(b, a, x1));
        nets.push(nl.dff(clk, clk, x1));
        let nand_inputs = if twice { [a, a] } else { [a, b] };
        nets.push(nl.gate(LogicFn::Nand2, x1, &nand_inputs));
        for _ in 0..rng.gen_range(0..150usize) {
            let kind = rng.gen_range(0..5usize);
            let mut inputs = Vec::new();
            while inputs.len() < [1, 2, 3, 2, 2][kind] {
                let pool = if rng.gen_range(0..2usize) == 0 {
                    6
                } else {
                    nets.len()
                };
                let net = nets[rng.gen_range(0..pool)];
                if twice || !inputs.contains(&net) {
                    inputs.push(net);
                }
            }
            let out = match kind {
                0 => nl.gate(LogicFn::Inv, x1, &inputs),
                2 => nl.gate(LogicFn::Mux2, x1, &inputs),
                3 => nl.dff(inputs[0], inputs[1], x1),
                4 if twice => nl.gate(LogicFn::Nand2, x1, &[inputs[0], inputs[0]]),
                _ => nl.gate(LogicFn::Nand2, x1, &inputs),
            };
            nets.push(out);
        }
        for k in 0..rng.gen_range(0..4usize) {
            nl.mark_output(format!("y{k}"), nets[rng.gen_range(0..nets.len())]);
        }
        nl
    }

    #[test]
    fn clock_readers_keep_a_net_with_repeated_pins_buffered() {
        // A flop reading `n` on its data, reset and clock pins lists its
        // two data pins three times each: six sinks over a cap of 4. All
        // its pins land behind the last buffer, whose net lists them
        // twice each (four, which fits), so the net is buffered, as the
        // rescan does.
        let mut nl = Netlist::new("rstn");
        let n = nl.add_input("n");
        let q = nl.dff_rstn(n, n, n, DriveStrength::X1);
        nl.mark_output("q", q);
        let mut full = nl.clone();
        buffer_high_fanout(&mut nl, 4);
        assert!(buffer_high_fanout_reference(&mut full, 4, 100));
        assert_eq!(nl, full);
        assert_eq!(nl.cell_count(), 3, "the flop and two buffers");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn kept_sink_lists_buffer_like_the_full_rescan(
                seed in any::<u64>(),
                cap in 2usize..13,
            ) {
                let mut fast = hub_netlist(seed);
                let mut full = fast.clone();
                buffer_high_fanout(&mut fast, cap);
                if buffer_high_fanout_reference(&mut full, cap, 2_000) {
                    prop_assert!(fast == full, "seed {} cap {}", seed, cap);
                } else {
                    // The rescan buffers forever here; every net of the
                    // kept-list result reads at most `cap` distinct pins.
                    let conn = Connectivity::new(&fast);
                    for net in fast.net_ids() {
                        let mut pins = data_sinks(&fast, conn.sinks(net), net);
                        pins.sort_unstable();
                        pins.dedup();
                        prop_assert!(pins.len() <= cap, "seed {} cap {}", seed, cap);
                    }
                }
            }
        }
    }

    #[test]
    fn constant_register_input_uses_tie_net() {
        let mut d = Design::new("tie");
        let one = d.constant(true);
        let q = d.reg();
        d.connect_reg(q, one);
        d.output("q", q);
        let res = synthesize(&d, &lib()).expect("ok");
        assert!(res.const1.is_some());
        assert_eq!(res.netlist.flop_count(), 1);
    }
}
