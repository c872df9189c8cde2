//! Zero-delay cycle-based simulation.
//!
//! [`CycleSim`] evaluates the combinational cloud in topological order and
//! advances all flip-flops together on [`CycleSim::tick`] — the fast
//! functional view used for equivalence checks between RTL and mapped
//! netlists, and for multi-thousand-cycle FSM runs where event-level
//! timing is irrelevant.
//!
//! All flops are assumed to share one clock (true for every block in the
//! paper's SerDes); the clock nets themselves are ignored. The async
//! reset of `DffRstN` is honoured combinationally: while `rst_n` is low
//! the flop output is forced to zero at the next settle.

use crate::logic::Logic;
use openserdes_netlist::{CellId, Connectivity, NetId, Netlist, NetlistError};
use openserdes_pdk::stdcell::LogicFn;

/// A cycle-accurate, zero-delay simulator for a single-clock netlist.
#[derive(Debug, Clone)]
pub struct CycleSim<'a> {
    netlist: &'a Netlist,
    values: Vec<Logic>,
    order: Vec<CellId>,
    flops: Vec<CellId>,
    cycles: u64,
}

impl<'a> CycleSim<'a> {
    /// Builds a cycle simulator; the netlist must validate.
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found during validation (including
    /// combinational loops, which a cycle simulator cannot execute).
    pub fn new(netlist: &'a Netlist) -> Result<Self, NetlistError> {
        let (_, order) = Connectivity::checked(netlist)?;
        let flops = netlist
            .instances()
            .filter(|(_, i)| i.is_sequential())
            .map(|(id, _)| id)
            .collect();
        Ok(Self {
            netlist,
            values: vec![Logic::X; netlist.net_count()],
            order,
            flops,
            cycles: 0,
        })
    }

    /// Number of [`CycleSim::tick`]s executed.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Sets a primary input (takes effect at the next settle).
    pub fn set_input(&mut self, net: NetId, value: Logic) {
        self.values[net.index()] = value;
    }

    /// Convenience: sets an input from a `bool`.
    pub fn set_bit(&mut self, net: NetId, value: bool) {
        self.set_input(net, Logic::from_bool(value));
    }

    /// Current value of a net (valid after [`CycleSim::settle`] or
    /// [`CycleSim::tick`]).
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Propagates the combinational logic to a fixed point (one pass in
    /// topological order suffices for an acyclic cloud).
    pub fn settle(&mut self) {
        for &id in &self.order {
            let inst = self.netlist.instance(id);
            let inputs: Vec<Logic> = inst
                .inputs
                .iter()
                .map(|&n| self.values[n.index()])
                .collect();
            self.values[inst.output.index()] = Logic::eval_fn(inst.function, &inputs);
        }
        // Async reset overrides flop outputs while asserted.
        for &id in &self.flops {
            let inst = self.netlist.instance(id);
            if inst.function == LogicFn::DffRstN
                && self.values[inst.inputs[1].index()] == Logic::Zero
            {
                self.values[inst.output.index()] = Logic::Zero;
            }
        }
    }

    /// One clock cycle: settle, sample every flop's D, apply all Qs
    /// simultaneously, settle again.
    pub fn tick(&mut self) {
        self.settle();
        let next: Vec<(NetId, Logic)> = self
            .flops
            .iter()
            .map(|&id| {
                let inst = self.netlist.instance(id);
                let d = self.values[inst.inputs[0].index()];
                let q = match inst.function {
                    LogicFn::Dff => d,
                    LogicFn::DffRstN => d & self.values[inst.inputs[1].index()],
                    _ => unreachable!("only flops are sequential"),
                };
                (inst.output, q)
            })
            .collect();
        for (net, q) in next {
            self.values[net.index()] = q;
        }
        self.cycles += 1;
        self.settle();
    }

    /// Resets every flop output to zero and re-settles (a testbench
    /// convenience standing in for a global reset sequence).
    pub fn reset_flops(&mut self) {
        for &id in &self.flops {
            let out = self.netlist.instance(id).output;
            self.values[out.index()] = Logic::Zero;
        }
        self.settle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::stdcell::DriveStrength;

    #[test]
    fn combinational_settles_in_topo_order() {
        let mut nl = Netlist::new("maj");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let ab = nl.gate(LogicFn::And2, DriveStrength::X1, &[a, b]);
        let bc = nl.gate(LogicFn::And2, DriveStrength::X1, &[b, c]);
        let ac = nl.gate(LogicFn::And2, DriveStrength::X1, &[a, c]);
        let o1 = nl.gate(LogicFn::Or2, DriveStrength::X1, &[ab, bc]);
        let maj = nl.gate(LogicFn::Or2, DriveStrength::X1, &[o1, ac]);
        nl.mark_output("maj", maj);
        let mut sim = CycleSim::new(&nl).expect("valid");
        for bits in 0..8u8 {
            sim.set_bit(a, bits & 1 != 0);
            sim.set_bit(b, bits & 2 != 0);
            sim.set_bit(c, bits & 4 != 0);
            sim.settle();
            let expect = (bits.count_ones() >= 2) as u8;
            assert_eq!(
                sim.value(maj),
                Logic::from_bool(expect == 1),
                "majority({bits:03b})"
            );
        }
    }

    #[test]
    fn three_bit_counter_counts() {
        // q0 toggles every cycle, classic ripple-free sync counter:
        // d0 = !q0; d1 = q1 ^ q0; d2 = q2 ^ (q1 & q0).
        let mut nl = Netlist::new("cnt3");
        let clk = nl.add_input("clk");
        let q0 = nl.add_net("q0");
        let q1 = nl.add_net("q1");
        let q2 = nl.add_net("q2");
        let d0 = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q0]);
        let d1 = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[q1, q0]);
        let q10 = nl.gate(LogicFn::And2, DriveStrength::X1, &[q1, q0]);
        let d2 = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[q2, q10]);
        nl.dff_into(d0, clk, DriveStrength::X1, q0);
        nl.dff_into(d1, clk, DriveStrength::X1, q1);
        nl.dff_into(d2, clk, DriveStrength::X1, q2);
        nl.mark_output("q0", q0);
        nl.mark_output("q1", q1);
        nl.mark_output("q2", q2);
        let mut sim = CycleSim::new(&nl).expect("valid");
        sim.reset_flops();
        for expected in 1..=10u64 {
            sim.tick();
            let want = expected % 8;
            assert_eq!(
                [q0, q1, q2].map(|n| sim.value(n).to_bool()),
                [0, 1, 2].map(|i| Some(want >> i & 1 == 1))
            );
        }
        assert_eq!(sim.cycles(), 10);
    }

    #[test]
    fn x_propagates_until_reset() {
        let mut nl = Netlist::new("ff");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        let d = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q]);
        nl.dff_into(d, clk, DriveStrength::X1, q);
        nl.mark_output("q", q);
        let mut sim = CycleSim::new(&nl).expect("valid");
        sim.tick();
        assert_eq!(sim.value(q), Logic::X, "uninitialized state is X");
        sim.reset_flops();
        sim.tick();
        assert_eq!(sim.value(q), Logic::One);
        sim.tick();
        assert_eq!(sim.value(q), Logic::Zero);
    }

    #[test]
    fn dff_rstn_clears_while_reset_low() {
        let mut nl = Netlist::new("r");
        let clk = nl.add_input("clk");
        let rst_n = nl.add_input("rst_n");
        let one = nl.add_input("one");
        let q = nl.dff_rstn(one, rst_n, clk, DriveStrength::X1);
        nl.mark_output("q", q);
        let mut sim = CycleSim::new(&nl).expect("valid");
        sim.set_bit(one, true);
        sim.set_bit(rst_n, false);
        sim.tick();
        assert_eq!(sim.value(q), Logic::Zero);
        sim.set_bit(rst_n, true);
        sim.tick();
        assert_eq!(sim.value(q), Logic::One);
    }

    #[test]
    fn loops_are_rejected() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[a, fb]);
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[x], fb);
        nl.mark_output("y", x);
        assert!(CycleSim::new(&nl).is_err());
    }
}
