//! The one read of a netlist's structure, the role OpenDB plays for
//! the OpenROAD tools of the paper's flow, and the only walks of their
//! kind: the loop check that also yields the topological order, the
//! clock-root trace and the fan-in cone walk (DESIGN.md §24).

use crate::error::NetlistError;
use crate::ids::{CellId, NetId};
use crate::lint::{bad_references, driver_conflicts, BadRef};
use crate::netlist::Netlist;
use openserdes_pdk::library::Library;
use openserdes_pdk::units::Farad;
use openserdes_pdk::wire::WireloadModel;

/// Each net's driver and sinks.
///
/// A net's sinks list every cell reading it once per pin, in cell
/// order, and within one cell its data pins in pin order and then its
/// clock pin. A net with several drivers records the last one in cell
/// order; primary inputs and floating nets have none.
#[derive(Debug, Clone, PartialEq)]
pub struct Connectivity {
    drivers: Vec<Option<CellId>>,
    /// Net `k`'s sinks are `sinks[start[k]..start[k + 1]]`.
    start: Vec<u32>,
    sinks: Vec<CellId>,
}

impl Connectivity {
    /// Builds the tables of `netlist`.
    ///
    /// # Panics
    ///
    /// Panics if a pin names a net outside the netlist (lint rule
    /// `NL008`; [`Connectivity::checked`] reports it instead).
    pub fn new(netlist: &Netlist) -> Self {
        let nets = netlist.net_count();
        let mut drivers = vec![None; nets];
        let mut start = vec![0u32; nets + 1];
        for (id, inst) in netlist.instances() {
            drivers[inst.output.index()] = Some(id);
            for n in inst.inputs.iter().chain(&inst.clock) {
                start[n.index() + 1] += 1;
            }
        }
        for k in 0..nets {
            start[k + 1] += start[k];
        }
        let mut fill: Vec<u32> = start[..nets].to_vec();
        let mut sinks = vec![CellId(0); start[nets] as usize];
        for (id, inst) in netlist.instances() {
            for n in inst.inputs.iter().chain(&inst.clock) {
                let slot = &mut fill[n.index()];
                sinks[*slot as usize] = id;
                *slot += 1;
            }
        }
        Self {
            drivers,
            start,
            sinks,
        }
    }

    /// Runs the structural check and builds the tables: the first
    /// `NL008` bad reference, then the first `NL001` driver conflict,
    /// `NL002` undriven net and `NL003` combinational loop, as a typed
    /// [`NetlistError`]. On success it also returns the combinational
    /// cells in topological order (every driver before its sinks).
    ///
    /// # Errors
    ///
    /// Returns the first violation, checking the rules in the order
    /// listed above.
    pub fn checked(netlist: &Netlist) -> Result<(Self, Vec<CellId>), NetlistError> {
        if let Some(b) = bad_references(netlist).into_iter().next() {
            return Err(match b {
                BadRef::Dangling { cell, net } => NetlistError::DanglingNet { cell, net },
                BadRef::NoClock(cell) => NetlistError::MissingClock(cell),
            });
        }
        let conn = Self::new(netlist);
        // A net with two drivers records only the later one.
        let conflict = netlist.instances().any(|(id, inst)| {
            conn.driver(inst.output) != Some(id) || netlist.is_primary_input(inst.output)
        });
        if conflict {
            let (net, drivers) = driver_conflicts(netlist).swap_remove(0);
            return Err(NetlistError::MultipleDrivers { net, drivers });
        }
        if let Some(net) = conn.undriven(netlist).next() {
            return Err(NetlistError::UndrivenNet(net));
        }
        let (loops, order) = conn.loop_pass(netlist);
        if let Some(scc) = loops.into_iter().next() {
            return Err(NetlistError::CombinationalLoop(scc));
        }
        Ok((conn, order))
    }

    /// The cell driving `net`, if any.
    pub fn driver(&self, net: NetId) -> Option<CellId> {
        self.drivers[net.index()]
    }

    /// The cells reading `net`, once per pin.
    pub fn sinks(&self, net: NetId) -> &[CellId] {
        &self.sinks[self.start[net.index()] as usize..self.start[net.index() + 1] as usize]
    }

    /// [`Connectivity::sinks`] of `net`, each entry paired with whether
    /// it is the last of its cell's consecutive entries: the entry
    /// [`crate::Instance::pin_cap`] prices as the clock pin when the
    /// cell is clocked by `net`.
    pub fn sink_pins(&self, net: NetId) -> impl Iterator<Item = (CellId, bool)> + '_ {
        let sinks = self.sinks(net);
        sinks
            .iter()
            .enumerate()
            .map(move |(i, &s)| (s, sinks.get(i + 1) != Some(&s)))
    }

    /// The largest sink count over all nets.
    pub(crate) fn max_fanout(&self) -> usize {
        self.start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0) as usize
    }

    /// Nets that a pin or a primary output reads but nothing drives,
    /// primary inputs aside (`NL002`), in net order.
    pub(crate) fn undriven<'a>(&'a self, netlist: &'a Netlist) -> impl Iterator<Item = NetId> + 'a {
        netlist.net_ids().filter(move |&net| {
            let read = !self.sinks(net).is_empty() || netlist.is_primary_output(net);
            read && self.driver(net).is_none() && !netlist.is_primary_input(net)
        })
    }

    /// Tarjan's SCC algorithm over the combinational cell graph: edge
    /// `u -> v` when combinational `v` reads combinational `u`'s output
    /// (`NL003`). Returns the cyclic components (more than one cell, or
    /// one cell reading its own output), each sorted, in sorted order.
    ///
    /// Tarjan emits every component after all the components its cells
    /// reach, so when no component is cyclic the emission order,
    /// reversed, is a topological order of the combinational cells; that
    /// order is returned second.
    pub(crate) fn loop_pass(&self, netlist: &Netlist) -> (Vec<Vec<CellId>>, Vec<CellId>) {
        let n = netlist.cell_count();
        let comb: Vec<bool> = netlist
            .instances()
            .map(|(_, i)| !i.is_sequential())
            .collect();
        const UNVISITED: usize = usize::MAX;
        let mut index = vec![UNVISITED; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut next = 0usize;
        let mut sccs = Vec::new();
        let mut emitted = Vec::with_capacity(n);

        for root in 0..n {
            if !comb[root] || index[root] != UNVISITED {
                continue;
            }
            // Iterative Tarjan: frames of (node, next sink position).
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            while let Some(frame) = frames.last_mut() {
                let v = frame.0;
                if frame.1 == 0 {
                    index[v] = next;
                    low[v] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                let sinks = self.sinks(netlist.instance(CellId(v as u32)).output);
                let mut si = frame.1;
                while si < sinks.len() && !comb[sinks[si].index()] {
                    si += 1;
                }
                frame.1 = si + 1;
                if let Some(w) = sinks.get(si).map(|c| c.index()) {
                    if index[w] == UNVISITED {
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
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
                    emitted.extend_from_slice(&scc);
                    let cyclic = scc.len() > 1 || {
                        let inst = netlist.instance(scc[0]);
                        inst.inputs.contains(&inst.output)
                    };
                    if cyclic {
                        scc.sort_unstable();
                        sccs.push(scc);
                    }
                }
            }
        }
        sccs.sort_unstable();
        emitted.reverse();
        (sccs, emitted)
    }

    /// Traces a clock net back through single-input combinational
    /// drivers to its root: a primary input, a flop output, a
    /// multi-input gate's output or a floating net. Returns the root and
    /// the buffers and inverters passed, in root-to-sink order.
    ///
    /// The walk takes at most one step more than the netlist has nets,
    /// which ends it on a clock driven by an inverter ring (a netlist
    /// that fails [`Connectivity::checked`]); the net it stands on then
    /// is the root.
    pub fn clock_root(&self, netlist: &Netlist, net: NetId) -> (NetId, Vec<CellId>) {
        let mut root = net;
        let mut chain = Vec::new();
        for _ in 0..=netlist.net_count() {
            match self.driver(root).map(|c| (c, netlist.instance(c))) {
                Some((c, inst)) if !inst.is_sequential() && inst.inputs.len() == 1 => {
                    chain.push(c);
                    root = inst.inputs[0];
                }
                _ => break,
            }
        }
        chain.reverse();
        (root, chain)
    }

    /// Walks the combinational fan-in cone of `starts` back to the flops
    /// launching into it, depth first, the last start first. Returns
    /// each flop as reached, with whether the path passed a gate of more
    /// than one input (once per flag value it is reached with), and
    /// whether the cone reaches an undriven net. Visits are keyed on the
    /// net and that flag, in `marks` (two slots per net): a slot equal
    /// to `stamp` is visited, so one table serves every fresh stamp.
    ///
    /// # Panics
    ///
    /// Panics if `marks` holds fewer than two slots per net.
    pub fn fanin_sources(
        &self,
        netlist: &Netlist,
        starts: &[NetId],
        marks: &mut [u32],
        stamp: u32,
    ) -> (Vec<(CellId, bool)>, bool) {
        let mut stack: Vec<(NetId, bool)> = starts.iter().map(|&n| (n, false)).collect();
        let mut sources = Vec::new();
        let mut reached_input = false;
        while let Some((net, through_logic)) = stack.pop() {
            let slot = &mut marks[2 * net.index() + usize::from(through_logic)];
            if *slot == stamp {
                continue;
            }
            *slot = stamp;
            match self.driver(net) {
                Some(c) => {
                    let inst = netlist.instance(c);
                    if inst.is_sequential() {
                        sources.push((c, through_logic));
                    } else {
                        let deeper = through_logic || inst.inputs.len() > 1;
                        stack.extend(inst.inputs.iter().map(|&n| (n, deeper)));
                    }
                }
                None => reached_input = true,
            }
        }
        (sources, reached_input)
    }

    /// The pre-layout load of `net` that sizing and the event simulator
    /// use: the small-block wireload of its sink count, plus one data
    /// pin's capacitance per sink, summed in sink order.
    ///
    /// # Panics
    ///
    /// Panics if a sink's cell is missing from `library`.
    pub fn estimated_load(&self, netlist: &Netlist, library: &Library, net: NetId) -> Farad {
        let sinks = self.sinks(net);
        let mut c = WireloadModel::small_block()
            .capacitance(sinks.len())
            .value();
        for &s in sinks {
            let inst = netlist.instance(s);
            c += library
                .cell(inst.function, inst.drive)
                .expect("netlist uses library cells")
                .input_cap
                .value();
        }
        Farad::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};

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
    fn driver_and_sink_queries() {
        let nl = half_adder();
        let conn = Connectivity::new(&nl);
        let a = nl.primary_inputs()[0];
        assert_eq!(conn.driver(a), None);
        assert_eq!(conn.sinks(a).len(), 2);
        let (_, sum_net) = nl.primary_outputs()[0].clone();
        let d = conn.driver(sum_net).expect("sum is driven");
        assert_eq!(nl.instance(d).function, LogicFn::Xor2);
        assert!(conn.sinks(sum_net).is_empty());
    }

    #[test]
    fn sinks_list_every_pin_in_cell_order_with_the_clock_last() {
        let mut nl = Netlist::new("pins");
        let n = nl.add_input("n");
        let other = nl.add_input("other");
        nl.gate(LogicFn::Nand2, DriveStrength::X1, &[n, n]);
        nl.dff_rstn(other, n, n, DriveStrength::X1);
        nl.gate(LogicFn::Inv, DriveStrength::X1, &[n]);
        let conn = Connectivity::new(&nl);
        let c = |i: u32| CellId(i);
        assert_eq!(conn.sinks(n), [c(0), c(0), c(1), c(1), c(2)]);
        assert_eq!(conn.sinks(other), [c(1)]);
        assert_eq!(conn.max_fanout(), 5);
    }

    #[test]
    fn a_clock_pin_on_a_data_net_is_priced_as_a_clock_pin() {
        use openserdes_pdk::corner::Pvt;
        let lib = Library::sky130(Pvt::nominal());
        let mut nl = Netlist::new("pins");
        let n = nl.add_input("n");
        let clk = nl.add_input("clk");
        nl.dff(n, n, DriveStrength::X1);
        nl.gate(LogicFn::Nand2, DriveStrength::X1, &[n, n]);
        nl.dff(clk, n, DriveStrength::X1);
        nl.dff(n, clk, DriveStrength::X1);
        let conn = Connectivity::new(&nl);
        let load: Vec<f64> = conn
            .sink_pins(n)
            .map(|(s, last)| {
                let inst = nl.instance(s);
                let cell = lib.cell(inst.function, inst.drive).expect("library cell");
                inst.pin_cap(cell, n, last).value()
            })
            .collect();
        let cap = |f: LogicFn| lib.cell(f, DriveStrength::X1).expect("library cell");
        let (dff, nand) = (cap(LogicFn::Dff), cap(LogicFn::Nand2));
        assert_eq!(
            load,
            [
                dff.input_cap.value(),
                dff.clock_cap.value(),
                nand.input_cap.value(),
                nand.input_cap.value(),
                dff.clock_cap.value(),
                dff.input_cap.value(),
            ]
        );
    }

    #[test]
    fn the_last_of_several_drivers_is_recorded() {
        let mut nl = Netlist::new("bad");
        let a = nl.add_input("a");
        let out = nl.add_net("out");
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[a], out);
        let last = nl.gate_into(LogicFn::Buf, DriveStrength::X1, &[a], out);
        assert_eq!(Connectivity::new(&nl).driver(out), Some(last));
    }

    #[test]
    fn checked_order_puts_drivers_before_sinks() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let x1 = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
        let x2 = nl.gate(LogicFn::Inv, DriveStrength::X1, &[x1]);
        let x3 = nl.gate(LogicFn::Inv, DriveStrength::X1, &[x2]);
        nl.mark_output("y", x3);
        let (_, order) = Connectivity::checked(&nl).expect("acyclic");
        assert_eq!(order.len(), 3);
        for w in order.windows(2) {
            let early = nl.instance(w[0]).output;
            assert!(nl.instance(w[1]).inputs.contains(&early));
        }
    }

    #[test]
    fn max_fanout_counts_all_pins() {
        let mut nl = Netlist::new("fan");
        let a = nl.add_input("a");
        for _ in 0..5 {
            let o = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
            nl.mark_output(format!("o{o}"), o);
        }
        assert_eq!(Connectivity::new(&nl).max_fanout(), 5);
        assert_eq!(Connectivity::new(&Netlist::new("empty")).max_fanout(), 0);
    }

    #[test]
    fn clock_root_returns_the_buffer_chain_root_first() {
        let mut nl = Netlist::new("tree");
        let clk = nl.add_input("clk");
        let b1 = nl.gate(LogicFn::Buf, DriveStrength::X1, &[clk]);
        let b2 = nl.gate(LogicFn::Inv, DriveStrength::X1, &[b1]);
        let conn = Connectivity::new(&nl);
        let (root, chain) = conn.clock_root(&nl, b2);
        assert_eq!(root, clk);
        assert_eq!(chain, [conn.driver(b1).unwrap(), conn.driver(b2).unwrap()]);
        assert_eq!(conn.clock_root(&nl, clk), (clk, Vec::new()));
    }

    #[test]
    fn clock_root_through_an_inverter_ring_ends_at_the_step_bound() {
        // Nets: ring, r, clk. The walk from `clk` steps to `r`, then
        // alternates between `ring` and `r`; after net_count + 1 = 4
        // steps it stands on `ring`.
        let mut nl = Netlist::new("ring");
        let ring = nl.add_net("ring");
        let r = nl.gate(LogicFn::Inv, DriveStrength::X1, &[ring]);
        nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[r], ring);
        let clk = nl.gate(LogicFn::Buf, DriveStrength::X1, &[r]);
        let conn = Connectivity::new(&nl);
        let (root, chain) = conn.clock_root(&nl, clk);
        assert_eq!(root, ring);
        assert_eq!(chain.len(), 4);
    }
}
