//! Flat gate-level netlists with builder, validation and graph queries.
//!
//! A [`Netlist`] is the contract between the synthesis side of the flow
//! (which produces one), the digital simulator (which executes one), the
//! placer and the timing/power analyzers (which annotate one). It is a
//! flat arena of [`Instance`]s connected by nets, mirroring what OpenLANE
//! hands from yosys to OpenSTA in the paper's flow.
//!
//! ```
//! use openserdes_netlist::Netlist;
//! use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
//!
//! let mut nl = Netlist::new("half_adder");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let sum = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[a, b]);
//! let carry = nl.gate(LogicFn::And2, DriveStrength::X1, &[a, b]);
//! nl.mark_output("sum", sum);
//! nl.mark_output("carry", carry);
//! assert!(nl.check().is_ok());
//! ```

use crate::ids::{CellId, NetId};
use openserdes_pdk::stdcell::{DriveStrength, LogicFn, StdCell};
use openserdes_pdk::units::Farad;
use std::fmt;

/// One placed-and-routable cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// The library function this instance implements.
    pub function: LogicFn,
    /// Drive strength of the chosen cell.
    pub drive: DriveStrength,
    /// Data input nets, in pin order (`function.input_count()` entries).
    pub inputs: Vec<NetId>,
    /// Output net.
    pub output: NetId,
    /// Clock net for sequential cells, `None` for combinational.
    pub clock: Option<NetId>,
}

impl Instance {
    /// `true` if this instance is a flip-flop.
    pub fn is_sequential(&self) -> bool {
        self.function.is_sequential()
    }

    /// The capacitance this instance presents to `net` through one of
    /// its entries in [`crate::Connectivity::sinks`], given its library
    /// `cell` and whether the entry is the `last` of the instance's
    /// run of entries there ([`crate::Connectivity::sink_pins`]). The
    /// clock pin's entry comes last, so the last entry of an instance
    /// clocked by `net` is priced at `clock_cap`, every other entry at
    /// one data pin's `input_cap`.
    pub fn pin_cap(&self, cell: &StdCell, net: NetId, last: bool) -> Farad {
        if last && self.clock == Some(net) {
            cell.clock_cap
        } else {
            cell.input_cap
        }
    }
}

/// A flat gate-level netlist.
#[derive(Clone, PartialEq, Default)]
pub struct Netlist {
    name: String,
    net_names: Vec<String>,
    instances: Vec<Instance>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    /// Per-net "is a primary input" flag, kept in step with `inputs`.
    is_input: Vec<bool>,
    /// Per-net "is a primary output" flag, kept in step with `outputs`.
    is_output: Vec<bool>,
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The port flags restate `inputs` and `outputs`; leave them out.
        f.debug_struct("Netlist")
            .field("name", &self.name)
            .field("net_names", &self.net_names)
            .field("instances", &self.instances)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an internal net and returns its id.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.into());
        self.is_input.push(false);
        self.is_output.push(false);
        id
    }

    /// Adds a primary input (also creates its net).
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        self.inputs.push(id);
        self.is_input[id.index()] = true;
        id
    }

    /// Declares `net` as the primary output called `name`.
    pub fn mark_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
        // A net id outside the arena stays unflagged; the lint reports
        // such references.
        if let Some(flag) = self.is_output.get_mut(net.index()) {
            *flag = true;
        }
    }

    /// Instantiates a combinational gate reading `inputs`, creating and
    /// returning a fresh output net.
    ///
    /// # Panics
    ///
    /// Panics if `function` is sequential (use [`Netlist::dff`]) or if the
    /// input count does not match the function arity.
    pub fn gate(&mut self, function: LogicFn, drive: DriveStrength, inputs: &[NetId]) -> NetId {
        let out = self.add_net(format!("{}_{}", function, self.instances.len()));
        self.gate_into(function, drive, inputs, out);
        out
    }

    /// Instantiates a combinational gate driving an existing net.
    ///
    /// # Panics
    ///
    /// Panics on sequential functions or arity mismatch.
    pub fn gate_into(
        &mut self,
        function: LogicFn,
        drive: DriveStrength,
        inputs: &[NetId],
        output: NetId,
    ) -> CellId {
        assert!(
            !function.is_sequential(),
            "use dff()/dff_rstn() for sequential cells"
        );
        assert_eq!(
            inputs.len(),
            function.input_count(),
            "{function} expects {} inputs",
            function.input_count()
        );
        let id = CellId(self.instances.len() as u32);
        self.instances.push(Instance {
            name: format!("u_{}_{}", function, id.0),
            function,
            drive,
            inputs: inputs.to_vec(),
            output,
            clock: None,
        });
        id
    }

    /// Instantiates a D flip-flop clocked by `clk`, returning its Q net.
    pub fn dff(&mut self, d: NetId, clk: NetId, drive: DriveStrength) -> NetId {
        let q = self.add_net(format!("dff_q_{}", self.instances.len()));
        self.dff_into(d, clk, drive, q);
        q
    }

    /// Instantiates a D flip-flop driving an existing Q net.
    pub fn dff_into(&mut self, d: NetId, clk: NetId, drive: DriveStrength, q: NetId) -> CellId {
        let id = CellId(self.instances.len() as u32);
        self.instances.push(Instance {
            name: format!("u_dff_{}", id.0),
            function: LogicFn::Dff,
            drive,
            inputs: vec![d],
            output: q,
            clock: Some(clk),
        });
        id
    }

    /// Instantiates a resettable D flip-flop (active-low async reset),
    /// returning its Q net.
    pub fn dff_rstn(&mut self, d: NetId, rst_n: NetId, clk: NetId, drive: DriveStrength) -> NetId {
        let q = self.add_net(format!("dffr_q_{}", self.instances.len()));
        let id = CellId(self.instances.len() as u32);
        self.instances.push(Instance {
            name: format!("u_dffr_{}", id.0),
            function: LogicFn::DffRstN,
            drive,
            inputs: vec![d, rst_n],
            output: q,
            clock: Some(clk),
        });
        let _ = id;
        q
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets (including primary inputs).
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Number of flip-flops.
    pub fn flop_count(&self) -> usize {
        self.instances.iter().filter(|i| i.is_sequential()).count()
    }

    /// The instance with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn instance(&self, id: CellId) -> &Instance {
        &self.instances[id.index()]
    }

    /// Mutable access to an instance (used by post-synthesis passes such
    /// as drive resizing).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn instance_mut(&mut self, id: CellId) -> &mut Instance {
        &mut self.instances[id.index()]
    }

    /// Iterates over `(CellId, &Instance)` pairs.
    pub fn instances(&self) -> impl Iterator<Item = (CellId, &Instance)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (CellId(i as u32), inst))
    }

    /// Iterates over all cell ids, in order (so `next_back` is the
    /// newest cell).
    pub fn cell_ids(&self) -> impl DoubleEndedIterator<Item = CellId> {
        (0..self.instances.len() as u32).map(CellId)
    }

    /// Iterates over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> {
        (0..self.net_names.len() as u32).map(NetId)
    }

    /// The name of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_name(&self, net: NetId) -> &str {
        &self.net_names[net.index()]
    }

    /// Primary inputs, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs, in declaration order.
    pub fn primary_outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// `true` if `net` is a primary input.
    pub fn is_primary_input(&self, net: NetId) -> bool {
        self.is_input.get(net.index()).copied().unwrap_or(false)
    }

    /// `true` if `net` is a primary output (under any port name).
    pub fn is_primary_output(&self, net: NetId) -> bool {
        self.is_output.get(net.index()).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::NetlistError;

    fn half_adder() -> Netlist {
        let mut nl = Netlist::new("half_adder");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[a, b]);
        let c = nl.gate(LogicFn::And2, DriveStrength::X1, &[a, b]);
        nl.mark_output("sum", s);
        nl.mark_output("carry", c);
        nl
    }

    #[test]
    fn builder_produces_valid_netlist() {
        let nl = half_adder();
        assert_eq!(nl.cell_count(), 2);
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.flop_count(), 0);
        assert!(nl.check().is_ok());
    }

    #[test]
    fn port_flags_follow_inputs_and_outputs() {
        let mut nl = half_adder();
        let (a, b) = (nl.primary_inputs()[0], nl.primary_inputs()[1]);
        let (sum, carry) = (nl.primary_outputs()[0].1, nl.primary_outputs()[1].1);
        let spare = nl.add_net("spare");
        nl.mark_output("a_through", a);
        nl.mark_output("carry_again", carry);
        for net in nl.net_ids() {
            assert_eq!(nl.is_primary_input(net), nl.primary_inputs().contains(&net));
            assert_eq!(
                nl.is_primary_output(net),
                nl.primary_outputs().iter().any(|(_, n)| *n == net)
            );
        }
        assert!(nl.is_primary_input(a) && nl.is_primary_output(a));
        assert!(nl.is_primary_input(b) && !nl.is_primary_output(b));
        assert!(!nl.is_primary_input(sum) && nl.is_primary_output(sum));
        assert!(!nl.is_primary_input(spare) && !nl.is_primary_output(spare));
        let foreign = NetId(999);
        assert!(!nl.is_primary_input(foreign) && !nl.is_primary_output(foreign));
        nl.mark_output("foreign", foreign);
        assert!(!nl.is_primary_output(foreign));
        // Debug prints the ports once, as the declaration lists.
        assert!(!format!("{nl:?}").contains("is_"));
    }

    #[test]
    fn multiple_drivers_detected() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let out = nl.add_net("out");
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[a], out);
        nl.gate_into(LogicFn::Buf, DriveStrength::X1, &[a], out);
        nl.mark_output("out", out);
        assert!(matches!(
            nl.check(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn driving_a_primary_input_is_an_error() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[a], b);
        assert!(matches!(
            nl.check(),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn undriven_net_detected() {
        let mut nl = Netlist::new("bad");
        let float = nl.add_net("floating");
        let out = nl.gate(LogicFn::Inv, DriveStrength::X1, &[float]);
        nl.mark_output("out", out);
        assert_eq!(nl.check(), Err(NetlistError::UndrivenNet(float)));
    }

    #[test]
    fn combinational_loop_detected() {
        let mut nl = Netlist::new("latchy");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[a, fb]);
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[x], fb);
        nl.mark_output("out", x);
        assert!(matches!(
            nl.check(),
            Err(NetlistError::CombinationalLoop(_))
        ));
    }

    #[test]
    fn loop_through_flop_is_legal() {
        // Classic toggle flop: q -> inv -> d -> q.
        let mut nl = Netlist::new("toggle");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        let d = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q]);
        nl.dff_into(d, clk, DriveStrength::X1, q);
        nl.mark_output("q", q);
        assert!(nl.check().is_ok());
        assert_eq!(nl.flop_count(), 1);
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn arity_mismatch_panics() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let _ = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[a]);
    }

    #[test]
    #[should_panic(expected = "sequential")]
    fn sequential_via_gate_panics() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let _ = nl.gate(LogicFn::Dff, DriveStrength::X1, &[a]);
    }

    #[test]
    fn dff_rstn_builds() {
        let mut nl = Netlist::new("reg");
        let clk = nl.add_input("clk");
        let rst_n = nl.add_input("rst_n");
        let d = nl.add_input("d");
        let q = nl.dff_rstn(d, rst_n, clk, DriveStrength::X1);
        nl.mark_output("q", q);
        assert!(nl.check().is_ok());
        assert_eq!(nl.flop_count(), 1);
    }
}
