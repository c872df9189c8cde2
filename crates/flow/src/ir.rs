//! Word-friendly RTL intermediate representation.
//!
//! The paper writes its serializer, deserializer and CDR in Verilog and
//! hands them to yosys. Our substitute is a small structural IR: a
//! [`Design`] is a sea of boolean nodes (`Not`/`And`/`Or`/`Xor`/`Mux`)
//! plus registers, with bus-level builder helpers (counters, comparators,
//! muxes) so FSMs read naturally. The IR has a reference interpreter
//! ([`IrSim`]) that serves as the golden model for synthesis equivalence
//! checks.
//!
//! Feedback is only legal through registers: combinational nodes can only
//! reference signals created before them, which makes the IR acyclic by
//! construction and evaluation a single in-order sweep.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a signal (node output) within one [`Design`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sig(u32);

impl Sig {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Node operations. All operands refer to earlier signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeOp {
    /// Primary input (index into the input list).
    Input(usize),
    /// Constant 0/1.
    Const(bool),
    /// Logical NOT.
    Not(Sig),
    /// Logical AND.
    And(Sig, Sig),
    /// Logical OR.
    Or(Sig, Sig),
    /// Logical XOR.
    Xor(Sig, Sig),
    /// 2:1 mux: `sel ? b : a`.
    Mux {
        /// Selected when `sel` is 0.
        a: Sig,
        /// Selected when `sel` is 1.
        b: Sig,
        /// Select signal.
        sel: Sig,
    },
    /// Register output (index into the register list).
    RegQ(usize),
}

/// A register: powers up at 0, captures `d` every clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reg {
    d: Option<Sig>,
}

/// A synthesizable RTL design.
#[derive(Debug, Clone, Default)]
pub struct Design {
    name: String,
    nodes: Vec<NodeOp>,
    input_names: Vec<String>,
    outputs: Vec<(String, Sig)>,
    regs: Vec<Reg>,
    multicycle: Vec<(usize, u32)>,
}

impl Design {
    /// Creates an empty design.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push(&mut self, op: NodeOp) -> Sig {
        let id = Sig(self.nodes.len() as u32);
        self.nodes.push(op);
        id
    }

    /// Declares a single-bit primary input.
    pub fn input(&mut self, name: impl Into<String>) -> Sig {
        let idx = self.input_names.len();
        self.input_names.push(name.into());
        self.push(NodeOp::Input(idx))
    }

    /// Declares a bus input `name[0..width]`, LSB first.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<Sig> {
        (0..width)
            .map(|i| self.input(format!("{name}[{i}]")))
            .collect()
    }

    /// A constant signal.
    pub fn constant(&mut self, value: bool) -> Sig {
        self.push(NodeOp::Const(value))
    }

    /// A constant bus, LSB first.
    pub fn const_bus(&mut self, width: usize, value: u64) -> Vec<Sig> {
        (0..width)
            .map(|i| self.constant(value >> i & 1 == 1))
            .collect()
    }

    /// Logical NOT.
    pub fn not(&mut self, a: Sig) -> Sig {
        self.push(NodeOp::Not(a))
    }

    /// Logical AND.
    pub fn and(&mut self, a: Sig, b: Sig) -> Sig {
        self.push(NodeOp::And(a, b))
    }

    /// Logical OR.
    pub fn or(&mut self, a: Sig, b: Sig) -> Sig {
        self.push(NodeOp::Or(a, b))
    }

    /// Logical XOR.
    pub fn xor(&mut self, a: Sig, b: Sig) -> Sig {
        self.push(NodeOp::Xor(a, b))
    }

    /// 2:1 mux: `sel ? b : a`.
    pub fn mux(&mut self, a: Sig, b: Sig, sel: Sig) -> Sig {
        self.push(NodeOp::Mux { a, b, sel })
    }

    /// Bitwise mux over two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub fn mux_bus(&mut self, a: &[Sig], b: &[Sig], sel: Sig) -> Vec<Sig> {
        assert_eq!(a.len(), b.len(), "mux_bus requires equal widths");
        a.iter()
            .zip(b)
            .map(|(&x, &y)| self.mux(x, y, sel))
            .collect()
    }

    /// AND-reduce of a slice as a balanced tree (log depth; returns
    /// constant 1 for empty input).
    pub(crate) fn and_reduce(&mut self, sigs: &[Sig]) -> Sig {
        match sigs {
            [] => self.constant(true),
            [s] => *s,
            _ => {
                let mut level = sigs.to_vec();
                while level.len() > 1 {
                    level = level
                        .chunks(2)
                        .map(|p| {
                            if p.len() == 2 {
                                self.and(p[0], p[1])
                            } else {
                                p[0]
                            }
                        })
                        .collect();
                }
                level[0]
            }
        }
    }

    /// OR-reduce of a slice as a balanced tree (log depth; returns
    /// constant 0 for empty input).
    pub fn or_reduce(&mut self, sigs: &[Sig]) -> Sig {
        match sigs {
            [] => self.constant(false),
            [s] => *s,
            _ => {
                let mut level = sigs.to_vec();
                while level.len() > 1 {
                    level = level
                        .chunks(2)
                        .map(|p| {
                            if p.len() == 2 {
                                self.or(p[0], p[1])
                            } else {
                                p[0]
                            }
                        })
                        .collect();
                }
                level[0]
            }
        }
    }

    /// Unsigned `a > b` comparator over equal-width buses (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width or are empty.
    pub fn gt(&mut self, a: &[Sig], b: &[Sig]) -> Sig {
        assert_eq!(a.len(), b.len(), "gt requires equal widths");
        assert!(!a.is_empty(), "gt requires at least one bit");
        // From MSB down: greater if a_i > b_i while all higher bits equal.
        let mut greater = self.constant(false);
        let mut equal = self.constant(true);
        for i in (0..a.len()).rev() {
            let nb = self.not(b[i]);
            let ai_gt = self.and(a[i], nb);
            let here = self.and(equal, ai_gt);
            greater = self.or(greater, here);
            // The equality chain feeds only lower bit positions; an
            // update at the LSB would be dead logic.
            if i > 0 {
                let same = self.xnor(a[i], b[i]);
                equal = self.and(equal, same);
            }
        }
        greater
    }

    /// XNOR convenience.
    fn xnor(&mut self, a: Sig, b: Sig) -> Sig {
        let x = self.xor(a, b);
        self.not(x)
    }

    /// `bus == value` comparator.
    pub fn eq_const(&mut self, bus: &[Sig], value: u64) -> Sig {
        let bits: Vec<Sig> = bus
            .iter()
            .enumerate()
            .map(|(i, &s)| if value >> i & 1 == 1 { s } else { self.not(s) })
            .collect();
        self.and_reduce(&bits)
    }

    /// N:1 multiplexer tree: selects `leaves[sel]` using the select bus
    /// (LSB first). Leaves beyond the last are never selected but must
    /// exist: `leaves.len()` must equal `2^sel.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves.len() != 2^sel.len()`.
    pub fn mux_tree(&mut self, leaves: &[Sig], sel: &[Sig]) -> Sig {
        assert_eq!(
            leaves.len(),
            1usize << sel.len(),
            "mux tree needs 2^sel leaves"
        );
        if sel.is_empty() {
            return leaves[0];
        }
        let mut level: Vec<Sig> = leaves.to_vec();
        for &s in sel {
            level = level
                .chunks(2)
                .map(|pair| self.mux(pair[0], pair[1], s))
                .collect();
        }
        level[0]
    }

    /// `bus + 1` incrementer (wraps at 2^width). Carries are computed as
    /// balanced prefix ANDs, giving logarithmic logic depth — the
    /// fast-counter structure a 2 GHz bit counter needs.
    pub fn incr(&mut self, bus: &[Sig]) -> Vec<Sig> {
        (0..bus.len())
            .map(|i| {
                let carry = self.and_reduce(&bus[..i]);
                self.xor(bus[i], carry)
            })
            .collect()
    }

    /// Declares a register whose data input is connected later with
    /// [`Design::connect_reg`]; returns its Q signal. Registers power up
    /// at 0.
    pub fn reg(&mut self) -> Sig {
        let idx = self.regs.len();
        self.regs.push(Reg { d: None });
        self.push(NodeOp::RegQ(idx))
    }

    /// Declares a bus of registers, LSB first.
    pub fn reg_bus(&mut self, width: usize) -> Vec<Sig> {
        (0..width).map(|_| self.reg()).collect()
    }

    /// Connects the data input of register `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a register output or is already connected.
    pub fn connect_reg(&mut self, q: Sig, d: Sig) {
        match self.nodes[q.index()] {
            NodeOp::RegQ(idx) => {
                assert!(self.regs[idx].d.is_none(), "register already connected");
                self.regs[idx].d = Some(d);
            }
            _ => panic!("{q} is not a register output"),
        }
    }

    /// Connects a whole register bus.
    ///
    /// # Panics
    ///
    /// Panics on width mismatch or non-register signals.
    pub fn connect_reg_bus(&mut self, q: &[Sig], d: &[Sig]) {
        assert_eq!(q.len(), d.len(), "bus width mismatch");
        for (&qq, &dd) in q.iter().zip(d) {
            self.connect_reg(qq, dd);
        }
    }

    /// Declares a primary output.
    pub fn output(&mut self, name: impl Into<String>, sig: Sig) {
        self.outputs.push((name.into(), sig));
    }

    /// Declares a bus output, LSB first.
    pub fn output_bus(&mut self, name: &str, bus: &[Sig]) {
        for (i, &s) in bus.iter().enumerate() {
            self.output(format!("{name}[{i}]"), s);
        }
    }

    /// Node table accessor (for synthesis).
    pub fn nodes(&self) -> &[NodeOp] {
        &self.nodes
    }

    /// Input names in declaration order.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// The signal of the input named `name`, if it exists.
    pub fn input_sig(&self, name: &str) -> Option<Sig> {
        let idx = self.input_names.iter().position(|n| n == name)?;
        self.nodes.iter().enumerate().find_map(|(i, op)| match op {
            NodeOp::Input(j) if *j == idx => Some(Sig(i as u32)),
            _ => None,
        })
    }

    /// Outputs as `(name, signal)` pairs.
    pub fn outputs(&self) -> &[(String, Sig)] {
        &self.outputs
    }

    /// Number of registers.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// The data input of register `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the register was never connected.
    pub fn reg_d(&self, idx: usize) -> Sig {
        self.regs[idx].d.expect("register data input connected")
    }

    /// The data input of register `idx`, or `None` if it was never
    /// connected (the non-panicking form the lint pass uses).
    pub fn reg_d_opt(&self, idx: usize) -> Option<Sig> {
        self.regs[idx].d
    }

    /// Imports another design as a sub-block (hierarchical composition,
    /// flattened on the spot): `bindings` maps the child's input signals
    /// to signals of `self`; unbound child inputs become new inputs of
    /// `self` named `prefix.<name>`. Returns the child's outputs as
    /// `(name, signal-in-self)` pairs. Registers, their connections and
    /// multicycle exceptions are carried over; the child's output
    /// declarations are *not* re-exported (wire them explicitly).
    ///
    /// # Panics
    ///
    /// Panics if the child has unconnected registers or a binding maps a
    /// non-input child signal.
    pub fn import(
        &mut self,
        child: &Design,
        prefix: &str,
        bindings: &[(Sig, Sig)],
    ) -> Vec<(String, Sig)> {
        child.assert_complete();
        for &(child_sig, _) in bindings {
            assert!(
                matches!(child.nodes[child_sig.index()], NodeOp::Input(_)),
                "{child_sig} is not an input of the child design"
            );
        }
        let reg_base = self.regs.len();
        // Pre-create the child's registers (feedback targets).
        for _ in 0..child.regs.len() {
            self.regs.push(Reg { d: None });
        }
        let mut map: Vec<Sig> = Vec::with_capacity(child.nodes.len());
        for (i, op) in child.nodes.iter().enumerate() {
            let here = match *op {
                NodeOp::Input(idx) => {
                    let child_sig = Sig(i as u32);
                    match bindings.iter().find(|(c, _)| *c == child_sig) {
                        Some(&(_, bound)) => bound,
                        None => self.input(format!("{prefix}.{}", child.input_names[idx])),
                    }
                }
                NodeOp::Const(v) => self.constant(v),
                NodeOp::Not(a) => self.not(map[a.index()]),
                NodeOp::And(a, b) => self.and(map[a.index()], map[b.index()]),
                NodeOp::Or(a, b) => self.or(map[a.index()], map[b.index()]),
                NodeOp::Xor(a, b) => self.xor(map[a.index()], map[b.index()]),
                NodeOp::Mux { a, b, sel } => {
                    self.mux(map[a.index()], map[b.index()], map[sel.index()])
                }
                NodeOp::RegQ(r) => self.push(NodeOp::RegQ(reg_base + r)),
            };
            map.push(here);
        }
        for (r, reg) in child.regs.iter().enumerate() {
            let d = reg.d.expect("child is complete");
            self.regs[reg_base + r].d = Some(map[d.index()]);
        }
        for &(r, factor) in &child.multicycle {
            self.multicycle.push((reg_base + r, factor));
        }
        child
            .outputs
            .iter()
            .map(|(name, sig)| (name.clone(), map[sig.index()]))
            .collect()
    }

    /// Declares a multicycle timing exception on register `q`: paths
    /// ending at its data input have `factor` clock periods to resolve
    /// (the consumer only samples the result every `factor` cycles).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a register output or `factor == 0`.
    pub fn set_multicycle(&mut self, q: Sig, factor: u32) {
        assert!(factor >= 1, "multicycle factor must be at least 1");
        match self.nodes[q.index()] {
            NodeOp::RegQ(idx) => self.multicycle.push((idx, factor)),
            _ => panic!("{q} is not a register output"),
        }
    }

    /// Declared multicycle exceptions as `(register index, factor)`.
    pub fn multicycle(&self) -> &[(usize, u32)] {
        &self.multicycle
    }

    /// Verifies that every register is connected.
    ///
    /// # Panics
    ///
    /// Panics naming the first dangling register.
    pub fn assert_complete(&self) {
        for (i, r) in self.regs.iter().enumerate() {
            assert!(r.d.is_some(), "register {i} has no data input");
        }
    }
}

/// Reference interpreter for a [`Design`]: the golden functional model.
#[derive(Debug, Clone)]
pub struct IrSim<'a> {
    design: &'a Design,
    inputs: Vec<bool>,
    state: Vec<bool>,
    values: Vec<bool>,
    input_index: HashMap<&'a str, usize>,
}

impl<'a> IrSim<'a> {
    /// Creates an interpreter with all inputs 0 and all registers 0.
    ///
    /// # Panics
    ///
    /// Panics if the design has unconnected registers.
    pub fn new(design: &'a Design) -> Self {
        design.assert_complete();
        let input_index = design
            .input_names()
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), i))
            .collect();
        let mut sim = Self {
            inputs: vec![false; design.input_names().len()],
            state: vec![false; design.reg_count()],
            values: vec![false; design.nodes().len()],
            design,
            input_index,
        };
        sim.settle();
        sim
    }

    /// Sets an input by signal (must be an input node).
    ///
    /// # Panics
    ///
    /// Panics if `sig` is not an input.
    pub fn set(&mut self, sig: Sig, value: bool) {
        match self.design.nodes()[sig.index()] {
            NodeOp::Input(idx) => self.inputs[idx] = value,
            _ => panic!("{sig} is not an input"),
        }
    }

    /// Sets an input by name.
    ///
    /// # Panics
    ///
    /// Panics if no input has this name.
    pub fn set_by_name(&mut self, name: &str, value: bool) {
        let idx = *self
            .input_index
            .get(name)
            .unwrap_or_else(|| panic!("no input named {name}"));
        self.inputs[idx] = value;
    }

    /// Recomputes all combinational values.
    pub fn settle(&mut self) {
        for (i, op) in self.design.nodes().iter().enumerate() {
            self.values[i] = match *op {
                NodeOp::Input(idx) => self.inputs[idx],
                NodeOp::Const(v) => v,
                NodeOp::Not(a) => !self.values[a.index()],
                NodeOp::And(a, b) => self.values[a.index()] & self.values[b.index()],
                NodeOp::Or(a, b) => self.values[a.index()] | self.values[b.index()],
                NodeOp::Xor(a, b) => self.values[a.index()] ^ self.values[b.index()],
                NodeOp::Mux { a, b, sel } => {
                    if self.values[sel.index()] {
                        self.values[b.index()]
                    } else {
                        self.values[a.index()]
                    }
                }
                NodeOp::RegQ(idx) => self.state[idx],
            };
        }
    }

    /// One clock edge: settle, then capture every register.
    pub fn tick(&mut self) {
        self.settle();
        let next: Vec<bool> = (0..self.design.reg_count())
            .map(|i| self.values[self.design.reg_d(i).index()])
            .collect();
        self.state = next;
        self.settle();
    }

    /// Reads any signal's current value.
    pub fn get(&self, sig: Sig) -> bool {
        self.values[sig.index()]
    }

    /// Resets every register to 0.
    pub fn reset(&mut self) {
        self.state.iter_mut().for_each(|s| *s = false);
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sets a bus of inputs from an integer, LSB first.
    fn set_bus(sim: &mut IrSim<'_>, bus: &[Sig], value: u64) {
        for (i, &s) in bus.iter().enumerate() {
            sim.set(s, value >> i & 1 == 1);
        }
    }

    /// Reads a bus as an integer, LSB first.
    fn get_bus(sim: &IrSim<'_>, bus: &[Sig]) -> u64 {
        bus.iter()
            .enumerate()
            .fold(0, |acc, (i, &s)| acc | (sim.get(s) as u64) << i)
    }

    #[test]
    fn counter_counts_and_wraps() {
        let mut d = Design::new("cnt");
        let q = d.reg_bus(3);
        let next = d.incr(&q);
        d.connect_reg_bus(&q, &next);
        d.output_bus("q", &q);
        let mut sim = IrSim::new(&d);
        for expect in 1..=9u64 {
            sim.tick();
            assert_eq!(get_bus(&sim, &q), expect % 8);
        }
    }

    #[test]
    fn eq_const_matches_exactly() {
        let mut d = Design::new("eq");
        let b = d.input_bus("b", 4);
        let hit = d.eq_const(&b, 0b1010);
        d.output("hit", hit);
        let mut sim = IrSim::new(&d);
        for v in 0..16 {
            set_bus(&mut sim, &b, v);
            sim.settle();
            assert_eq!(sim.get(hit), v == 0b1010, "v = {v}");
        }
    }

    #[test]
    fn mux_bus_selects() {
        let mut d = Design::new("m");
        let a = d.input_bus("a", 4);
        let b = d.input_bus("b", 4);
        let sel = d.input("sel");
        let y = d.mux_bus(&a, &b, sel);
        d.output_bus("y", &y);
        let mut sim = IrSim::new(&d);
        set_bus(&mut sim, &a, 0x3);
        set_bus(&mut sim, &b, 0xC);
        sim.set(sel, false);
        sim.settle();
        assert_eq!(get_bus(&sim, &y), 0x3);
        sim.set(sel, true);
        sim.settle();
        assert_eq!(get_bus(&sim, &y), 0xC);
    }

    #[test]
    fn reductions() {
        let mut d = Design::new("r");
        let b = d.input_bus("b", 3);
        let all = d.and_reduce(&b);
        let any = d.or_reduce(&b);
        d.output("all", all);
        d.output("any", any);
        let mut sim = IrSim::new(&d);
        for v in 0..8 {
            set_bus(&mut sim, &b, v);
            sim.settle();
            assert_eq!(sim.get(all), v == 7);
            assert_eq!(sim.get(any), v != 0);
        }
    }

    #[test]
    fn shift_register_delays_by_n() {
        let mut d = Design::new("sr");
        let din = d.input("din");
        let taps = d.reg_bus(4);
        d.connect_reg(taps[0], din);
        for i in 1..4 {
            d.connect_reg(taps[i], taps[i - 1]);
        }
        d.output("dout", taps[3]);
        let mut sim = IrSim::new(&d);
        let pattern = [true, false, true, true, false, false, true, false];
        let mut seen = Vec::new();
        for &bit in &pattern {
            sim.set(din, bit);
            sim.tick();
            seen.push(sim.get(taps[3]));
        }
        // Four flops, sampled after each edge: the bit fed in on edge k
        // appears at the output on edge k+3 (zeros flush out first).
        assert_eq!(&seen[..3], &[false; 3]);
        assert_eq!(&seen[3..], &pattern[..5]);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = Design::new("c");
        let q = d.reg_bus(2);
        let n = d.incr(&q);
        d.connect_reg_bus(&q, &n);
        let mut sim = IrSim::new(&d);
        sim.tick();
        sim.tick();
        assert_eq!(get_bus(&sim, &q), 2);
        sim.reset();
        assert_eq!(get_bus(&sim, &q), 0);
    }

    #[test]
    #[should_panic(expected = "register 0 has no data input")]
    fn dangling_register_detected() {
        let mut d = Design::new("bad");
        let _q = d.reg();
        let _ = IrSim::new(&d);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_rejected() {
        let mut d = Design::new("bad");
        let q = d.reg();
        let one = d.constant(true);
        d.connect_reg(q, one);
        d.connect_reg(q, one);
    }

    #[test]
    fn gt_is_exact_and_has_no_dead_logic() {
        let mut d = Design::new("gt");
        let a = d.input_bus("a", 4);
        let b = d.input_bus("b", 4);
        let y = d.gt(&a, &b);
        d.output("y", y);
        let mut sim = IrSim::new(&d);
        for av in 0..16 {
            for bv in 0..16 {
                set_bus(&mut sim, &a, av);
                set_bus(&mut sim, &b, bv);
                sim.settle();
                assert_eq!(sim.get(y), av > bv, "a = {av}, b = {bv}");
            }
        }
        // Regression: the equality chain used to be updated at the LSB
        // too, leaving an XNOR/AND pair outside every output cone
        // (IR002 dead logic in every comparator).
        let report = d.lint(&openserdes_lint::LintConfig::default());
        assert!(
            report
                .findings()
                .iter()
                .all(|f| f.rule != openserdes_lint::Rule::DeadNode),
            "gt must not synthesize dead logic:\n{report}"
        );
    }

    #[test]
    fn const_bus_encodes_value() {
        let mut d = Design::new("k");
        let k = d.const_bus(8, 0xA5);
        d.output_bus("k", &k);
        let sim = IrSim::new(&d);
        assert_eq!(get_bus(&sim, &k), 0xA5);
    }
}
