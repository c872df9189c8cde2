//! Event-driven gate-level simulation with library-accurate delays.
//!
//! [`EventSim`] executes a mapped [`Netlist`] the way a timing simulator
//! does: every net transition is an event, gate outputs are scheduled
//! after their NLDM-derived propagation delay, and flip-flops sample on
//! the rising edge of their clock net and emit Q after clk→Q. Transport
//! delay semantics are used, so glitches propagate — which is exactly what
//! the paper's CDR glitch-correction logic exists to clean up.

use crate::logic::Logic;
use crate::trace::Trace;
use openserdes_netlist::{CellId, Connectivity, NetId, Netlist, NetlistError};
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::LogicFn;
use openserdes_pdk::units::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Default input slew assumed for delay lookups, in ps.
const DEFAULT_SLEW_PS: f64 = 40.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time_ps: u64,
    seq: u64,
    net: NetId,
    value_tag: u8,
}

fn tag(l: Logic) -> u8 {
    match l {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::X => 2,
        Logic::Z => 3,
    }
}

fn untag(t: u8) -> Logic {
    match t {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => Logic::X,
        _ => Logic::Z,
    }
}

/// An event-driven simulator bound to one netlist and library.
#[derive(Debug)]
pub struct EventSim<'a> {
    netlist: &'a Netlist,
    values: Vec<Logic>,
    delays_ps: Vec<u64>,
    clk_to_q_ps: Vec<u64>,
    conn: Connectivity,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    time_ps: u64,
    trace: Trace,
    events_processed: u64,
}

impl<'a> EventSim<'a> {
    /// Builds a simulator, validating the netlist and pre-computing every
    /// cell's propagation delay from its library timing table and the
    /// capacitive load of its output net (pin caps plus a fanout-based
    /// wireload estimate).
    ///
    /// # Errors
    ///
    /// Returns any [`NetlistError`] found during validation.
    pub fn new(netlist: &'a Netlist, library: &Library) -> Result<Self, NetlistError> {
        let (conn, _) = Connectivity::checked(netlist)?;
        let mut delays = Vec::with_capacity(netlist.cell_count());
        let mut clk_to_q = Vec::with_capacity(netlist.cell_count());
        for (_, inst) in netlist.instances() {
            let cell = library
                .cell(inst.function, inst.drive)
                .expect("netlist uses library cells");
            let load = conn.estimated_load(netlist, library, inst.output);
            let arc = cell.arc(Time::from_ps(DEFAULT_SLEW_PS), load);
            delays.push((arc.delay.ps().round() as u64).max(1));
            clk_to_q.push(
                cell.seq
                    .map(|s| (s.clk_to_q.ps().round() as u64).max(1))
                    .unwrap_or(1),
            );
        }
        Ok(Self {
            netlist,
            values: vec![Logic::X; netlist.net_count()],
            delays_ps: delays,
            clk_to_q_ps: clk_to_q,
            conn,
            queue: BinaryHeap::new(),
            seq: 0,
            time_ps: 0,
            trace: Trace::new(netlist.net_count()),
            events_processed: 0,
        })
    }

    /// Current simulation time in ps.
    pub fn time_ps(&self) -> u64 {
        self.time_ps
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Total events processed so far (a determinism/performance metric).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The recorded trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Schedules a primary-input change at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `time_ps` is in the simulator's past.
    pub fn schedule(&mut self, time_ps: u64, net: NetId, value: Logic) {
        assert!(time_ps >= self.time_ps, "cannot schedule in the past");
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time_ps,
            seq: self.seq,
            net,
            value_tag: tag(value),
        }));
    }

    /// Sets a primary input at the current time.
    pub fn set_input(&mut self, net: NetId, value: Logic) {
        self.schedule(self.time_ps, net, value);
    }

    /// Schedules a full clock waveform on `net`: rising edges at
    /// `offset_ps + k·period_ps`, 50 % duty, until `until_ps`.
    pub fn drive_clock(&mut self, net: NetId, period_ps: u64, offset_ps: u64, until_ps: u64) {
        assert!(period_ps >= 2, "period too small");
        self.schedule(self.time_ps, net, Logic::Zero);
        let mut t = offset_ps.max(self.time_ps);
        while t <= until_ps {
            self.schedule(t, net, Logic::One);
            if t + period_ps / 2 <= until_ps {
                self.schedule(t + period_ps / 2, net, Logic::Zero);
            }
            t += period_ps;
        }
    }

    /// Schedules an NRZ bit pattern on `net`, one bit every `bit_ps`
    /// starting at `start_ps`.
    pub fn drive_bits(&mut self, net: NetId, start_ps: u64, bit_ps: u64, bits: &[bool]) {
        for (i, &b) in bits.iter().enumerate() {
            self.schedule(start_ps + i as u64 * bit_ps, net, Logic::from_bool(b));
        }
    }

    /// Runs until the event queue is exhausted or `until_ps` is reached.
    pub fn run_until(&mut self, until_ps: u64) {
        while let Some(&Reverse(ev)) = self.queue.peek() {
            if ev.time_ps > until_ps {
                break;
            }
            let Reverse(ev) = self.queue.pop().expect("peeked");
            self.apply(ev);
        }
        self.time_ps = self.time_ps.max(until_ps);
    }

    fn apply(&mut self, ev: Event) {
        self.time_ps = ev.time_ps;
        self.events_processed += 1;
        let new = untag(ev.value_tag);
        let old = self.values[ev.net.index()];
        if old == new {
            return;
        }
        self.values[ev.net.index()] = new;
        self.trace.record(ev.net, ev.time_ps, new);

        for i in 0..self.conn.sinks(ev.net).len() {
            let cell = self.conn.sinks(ev.net)[i];
            let inst = self.netlist.instance(cell);
            if inst.is_sequential() {
                self.eval_sequential(cell, ev.net, old, new);
            } else {
                let inputs: Vec<Logic> = inst
                    .inputs
                    .iter()
                    .map(|&n| self.values[n.index()])
                    .collect();
                let out = Logic::eval_fn(inst.function, &inputs);
                let t = ev.time_ps + self.delays_ps[cell.index()];
                self.schedule_internal(t, inst.output, out);
            }
        }
    }

    fn eval_sequential(&mut self, cell: CellId, changed: NetId, old: Logic, new: Logic) {
        let inst = self.netlist.instance(cell);
        let t_q = self.time_ps + self.clk_to_q_ps[cell.index()];
        match inst.function {
            LogicFn::Dff => {
                if inst.clock == Some(changed) && old == Logic::Zero && new == Logic::One {
                    let d = self.values[inst.inputs[0].index()];
                    self.schedule_internal(t_q, inst.output, d);
                }
            }
            LogicFn::DffRstN => {
                let rst_n = self.values[inst.inputs[1].index()];
                if inst.inputs[1] == changed && new == Logic::Zero {
                    // Asynchronous reset assertion clears Q immediately.
                    self.schedule_internal(t_q, inst.output, Logic::Zero);
                } else if inst.clock == Some(changed)
                    && old == Logic::Zero
                    && new == Logic::One
                    && rst_n != Logic::Zero
                {
                    let d = self.values[inst.inputs[0].index()] & rst_n;
                    self.schedule_internal(t_q, inst.output, d);
                }
            }
            _ => unreachable!("only flops are sequential"),
        }
    }

    fn schedule_internal(&mut self, time_ps: u64, net: NetId, value: Logic) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time_ps,
            seq: self.seq,
            net,
            value_tag: tag(value),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::stdcell::DriveStrength;

    fn lib() -> Library {
        Library::sky130(Pvt::nominal())
    }

    #[test]
    fn inverter_chain_propagates_with_delay() {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let mut n = a;
        for _ in 0..4 {
            n = nl.gate(LogicFn::Inv, DriveStrength::X1, &[n]);
        }
        nl.mark_output("y", n);
        let lib = lib();
        let mut sim = EventSim::new(&nl, &lib).expect("valid");
        sim.set_input(a, Logic::Zero);
        sim.run_until(10_000);
        // Even number of inverters: y follows a.
        assert_eq!(sim.value(n), Logic::Zero);
        sim.set_input(a, Logic::One);
        sim.run_until(20_000);
        assert_eq!(sim.value(n), Logic::One);
        // The output changed strictly later than the input.
        assert_eq!(sim.trace().value_at(n, 10_000), Logic::Zero);
    }

    #[test]
    fn nand_gate_function_in_time() {
        let mut nl = Netlist::new("nand");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[a, b]);
        nl.mark_output("y", y);
        let lib = lib();
        let mut sim = EventSim::new(&nl, &lib).expect("valid");
        sim.set_input(a, Logic::One);
        sim.set_input(b, Logic::Zero);
        sim.run_until(1_000);
        assert_eq!(sim.value(y), Logic::One);
        sim.set_input(b, Logic::One);
        sim.run_until(2_000);
        assert_eq!(sim.value(y), Logic::Zero);
    }

    #[test]
    fn dff_samples_on_rising_edge_only() {
        let mut nl = Netlist::new("ff");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q = nl.dff(d, clk, DriveStrength::X1);
        nl.mark_output("q", q);
        let lib = lib();
        let mut sim = EventSim::new(&nl, &lib).expect("valid");
        sim.set_input(clk, Logic::Zero);
        sim.set_input(d, Logic::One);
        sim.run_until(1_000);
        assert_eq!(sim.value(q), Logic::X, "no edge yet");
        // Falling edge must not sample.
        sim.schedule(1_100, clk, Logic::Zero);
        sim.run_until(1_500);
        assert_eq!(sim.value(q), Logic::X);
        // Rising edge samples d=1.
        sim.schedule(2_000, clk, Logic::One);
        sim.run_until(3_000);
        assert_eq!(sim.value(q), Logic::One);
        // Change d; q holds until next rising edge.
        sim.schedule(3_100, d, Logic::Zero);
        sim.run_until(4_000);
        assert_eq!(sim.value(q), Logic::One);
        sim.schedule(4_100, clk, Logic::Zero);
        sim.schedule(5_000, clk, Logic::One);
        sim.run_until(6_000);
        assert_eq!(sim.value(q), Logic::Zero);
    }

    #[test]
    fn toggle_flop_divides_clock_by_two() {
        let mut nl = Netlist::new("divider");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        let d = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q]);
        nl.dff_into(d, clk, DriveStrength::X1, q);
        nl.mark_output("q", q);
        let lib = lib();
        let mut sim = EventSim::new(&nl, &lib).expect("valid");
        // Break the X deadlock with a defined init via long settling:
        // X inverted is X, so seed q through the first sample of inv(X)=X…
        // A real design uses a resettable flop; emulate by forcing q once.
        sim.schedule(10, q, Logic::Zero);
        sim.drive_clock(clk, 1_000, 500, 20_000);
        sim.run_until(25_000);
        let toggles = sim.trace().toggle_count(q);
        // 20 clock rising edges -> ~20 q toggles.
        assert!((16..=24).contains(&toggles), "q toggled {toggles} times");
    }

    #[test]
    fn async_reset_clears_q() {
        let mut nl = Netlist::new("rst");
        let clk = nl.add_input("clk");
        let rst_n = nl.add_input("rst_n");
        let d = nl.add_input("d");
        let q = nl.dff_rstn(d, rst_n, clk, DriveStrength::X1);
        nl.mark_output("q", q);
        let lib = lib();
        let mut sim = EventSim::new(&nl, &lib).expect("valid");
        sim.set_input(rst_n, Logic::One);
        sim.set_input(d, Logic::One);
        sim.set_input(clk, Logic::Zero);
        sim.schedule(1_000, clk, Logic::One);
        sim.run_until(2_000);
        assert_eq!(sim.value(q), Logic::One);
        // Assert reset with the clock idle: q clears asynchronously.
        sim.schedule(3_000, rst_n, Logic::Zero);
        sim.run_until(4_000);
        assert_eq!(sim.value(q), Logic::Zero);
    }

    #[test]
    fn deterministic_event_counts() {
        let mut nl = Netlist::new("xor_tree");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[a, b]);
        let y = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[x, c]);
        nl.mark_output("y", y);
        let lib = lib();
        let run = || {
            let mut sim = EventSim::new(&nl, &lib).expect("valid");
            for (i, n) in [a, b, c].into_iter().enumerate() {
                sim.drive_bits(n, 100 * i as u64, 500, &[true, false, true, true]);
            }
            sim.run_until(10_000);
            (sim.events_processed(), sim.value(y))
        };
        assert_eq!(run(), run(), "simulation must be deterministic");
    }

    #[test]
    fn drive_bits_produces_pattern() {
        let mut nl = Netlist::new("wire");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Buf, DriveStrength::X1, &[a]);
        nl.mark_output("y", y);
        let lib = lib();
        let mut sim = EventSim::new(&nl, &lib).expect("valid");
        sim.drive_bits(a, 0, 100, &[true, false, true]);
        sim.run_until(1_000);
        assert_eq!(sim.trace().toggle_count(a), 2);
        assert_eq!(sim.trace().value_at(a, 50), Logic::One);
        assert_eq!(sim.trace().value_at(a, 150), Logic::Zero);
        assert_eq!(sim.trace().value_at(a, 250), Logic::One);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn past_scheduling_rejected() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Buf, DriveStrength::X1, &[a]);
        nl.mark_output("y", y);
        let lib = lib();
        let mut sim = EventSim::new(&nl, &lib).expect("valid");
        sim.schedule(1_000, a, Logic::One);
        sim.run_until(5_000);
        sim.schedule(100, a, Logic::Zero);
    }

    #[test]
    fn invalid_netlist_rejected() {
        let mut nl = Netlist::new("bad");
        let f = nl.add_net("floating");
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[f]);
        nl.mark_output("y", y);
        let lib = lib();
        assert!(EventSim::new(&nl, &lib).is_err());
    }
}
