//! Power analysis: switching, internal, clock-tree and leakage power.
//!
//! Implements the standard activity-based decomposition a signoff power
//! tool reports:
//!
//! * **net switching** — `0.5 · α · C_net · VDD² · f` per net, where `α`
//!   is the toggle rate in transitions per clock cycle (clock nets toggle
//!   twice per cycle by definition),
//! * **cell internal** — short-circuit and parasitic energy per output
//!   event from the library characterization,
//! * **leakage** — the sum of per-cell static leakage.
//!
//! Activities default to a uniform factor, or come per net from toggle
//! counts: [`PowerConfig::from_trace`] reads them from an
//! event-simulation [`Trace`], and the paper's Fig. 10 budget
//! (`core::budget`) counts each net's toggles over a cycle-level
//! (`CycleSim`) run of the mapped netlist under PRBS traffic and passes
//! them as [`PowerConfig::net_activity`].

use crate::route::RouteResult;
use openserdes_digital::Trace;
use openserdes_netlist::{Connectivity, NetId, Netlist};
use openserdes_pdk::library::Library;
use openserdes_pdk::units::{Hertz, Watt};
use openserdes_pdk::wire::WireloadModel;
use std::fmt;

/// Power analysis configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Clock frequency.
    pub clock: Hertz,
    /// Default toggle rate for data nets, in transitions per cycle.
    pub activity: f64,
    /// Optional per-net toggle rates overriding the default
    /// (transitions per cycle, indexed by net).
    pub net_activity: Option<Vec<f64>>,
}

impl PowerConfig {
    /// Uniform-activity configuration (α = 0.2, a common default).
    pub fn at_clock(clock: Hertz) -> Self {
        Self {
            clock,
            activity: 0.2,
            net_activity: None,
        }
    }

    /// Derives per-net toggle rates from a recorded simulation trace
    /// spanning `cycles` clock cycles.
    pub fn from_trace(clock: Hertz, netlist: &Netlist, trace: &Trace, cycles: u64) -> Self {
        let rates = netlist
            .net_ids()
            .map(|n| trace.toggle_count(n) as f64 / cycles.max(1) as f64)
            .collect();
        Self {
            clock,
            activity: 0.2,
            net_activity: Some(rates),
        }
    }
}

/// The decomposed power report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Net switching power (data nets).
    pub switching: Watt,
    /// Cell-internal power.
    pub internal: Watt,
    /// Clock network power (clock nets + flop clock pins).
    pub clock_tree: Watt,
    /// Static leakage.
    pub leakage: Watt,
}

impl PowerReport {
    /// Total power.
    pub fn total(&self) -> Watt {
        self.switching + self.internal + self.clock_tree + self.leakage
    }
}

impl fmt::Display for PowerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "power report:")?;
        writeln!(f, "  switching : {:>10.3} mW", self.switching.mw())?;
        writeln!(f, "  internal  : {:>10.3} mW", self.internal.mw())?;
        writeln!(f, "  clock tree: {:>10.3} mW", self.clock_tree.mw())?;
        writeln!(f, "  leakage   : {:>10.3} mW", self.leakage.mw())?;
        writeln!(f, "  total     : {:>10.3} mW", self.total().mw())
    }
}

/// Analyzes the power of a mapped (optionally routed) netlist.
pub fn analyze_power(
    netlist: &Netlist,
    library: &Library,
    route: Option<&RouteResult>,
    config: &PowerConfig,
) -> PowerReport {
    let vdd = library.vdd().value();
    let f = config.clock.value();
    let wireload = WireloadModel::small_block();
    let conn = Connectivity::new(netlist);

    // Identify clock nets: any net driving a clock pin.
    let is_clock: Vec<bool> = netlist
        .net_ids()
        .map(|net| {
            conn.sinks(net)
                .iter()
                .any(|&s| netlist.instance(s).clock == Some(net))
        })
        .collect();

    let act = |net: NetId| -> f64 {
        if is_clock[net.index()] {
            2.0
        } else {
            match &config.net_activity {
                Some(v) => v[net.index()],
                None => config.activity,
            }
        }
    };

    let mut switching = 0.0;
    let mut clock_tree = 0.0;
    for net in netlist.net_ids() {
        let sinks = conn.sinks(net);
        let mut c = match route {
            Some(r) => r.net(net).capacitance().value(),
            None => wireload.capacitance(sinks.len()).value(),
        };
        for (s, last) in conn.sink_pins(net) {
            let inst = netlist.instance(s);
            let cell = library
                .cell(inst.function, inst.drive)
                .expect("library cell");
            c += inst.pin_cap(cell, net, last).value();
        }
        let p = 0.5 * act(net) * c * vdd * vdd * f;
        if is_clock[net.index()] {
            clock_tree += p;
        } else {
            switching += p;
        }
    }

    let mut internal = 0.0;
    let mut leakage = 0.0;
    for (_, inst) in netlist.instances() {
        let cell = library
            .cell(inst.function, inst.drive)
            .expect("library cell");
        leakage += cell.leakage_w;
        // Output toggles drive the internal energy; flops also burn
        // internal energy on every clock edge pair.
        let out_act = act(inst.output);
        internal += cell.internal_energy_j * out_act * f;
        if inst.is_sequential() {
            internal += cell.internal_energy_j * f; // clock-driven internal
        }
    }

    PowerReport {
        switching: Watt::new(switching),
        internal: Watt::new(internal),
        clock_tree: Watt::new(clock_tree),
        leakage: Watt::new(leakage),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};

    fn lib() -> Library {
        Library::sky130(Pvt::nominal())
    }

    fn register_file(n: usize) -> Netlist {
        let mut nl = Netlist::new("regs");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let mut s = d;
        for _ in 0..n {
            s = nl.dff(s, clk, DriveStrength::X1);
        }
        nl.mark_output("q", s);
        nl
    }

    #[test]
    fn power_scales_with_frequency() {
        let l = lib();
        let nl = register_file(8);
        let p1 = analyze_power(&nl, &l, None, &PowerConfig::at_clock(Hertz::from_ghz(1.0)));
        let p2 = analyze_power(&nl, &l, None, &PowerConfig::at_clock(Hertz::from_ghz(2.0)));
        let dyn1 = p1.total().value() - p1.leakage.value();
        let dyn2 = p2.total().value() - p2.leakage.value();
        assert!((dyn2 / dyn1 - 2.0).abs() < 1e-9, "dynamic power ∝ f");
        assert_eq!(p1.leakage, p2.leakage, "leakage is frequency independent");
    }

    #[test]
    fn clock_tree_power_nonzero_with_flops() {
        let l = lib();
        let nl = register_file(16);
        let p = analyze_power(&nl, &l, None, &PowerConfig::at_clock(Hertz::from_ghz(2.0)));
        assert!(p.clock_tree.value() > 0.0);
        assert!(p.total().value() > p.clock_tree.value());
    }

    #[test]
    fn higher_activity_more_switching() {
        let l = lib();
        let mut nl = Netlist::new("comb");
        let a = nl.add_input("a");
        let mut s = a;
        for _ in 0..10 {
            s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[s]);
        }
        nl.mark_output("y", s);
        let mut quiet = PowerConfig::at_clock(Hertz::from_ghz(1.0));
        quiet.activity = 0.05;
        let mut busy = quiet.clone();
        busy.activity = 1.0;
        let pq = analyze_power(&nl, &l, None, &quiet);
        let pb = analyze_power(&nl, &l, None, &busy);
        assert!(pb.switching.value() > pq.switching.value() * 10.0);
    }

    #[test]
    fn zero_activity_leaves_only_leakage_and_clock() {
        let l = lib();
        let nl = register_file(4);
        let mut cfg = PowerConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.activity = 0.0;
        let p = analyze_power(&nl, &l, None, &cfg);
        assert_eq!(p.switching.value(), 0.0);
        assert!(p.leakage.value() > 0.0);
        assert!(p.clock_tree.value() > 0.0);
    }

    #[test]
    fn display_has_all_sections() {
        let l = lib();
        let nl = register_file(2);
        let p = analyze_power(&nl, &l, None, &PowerConfig::at_clock(Hertz::from_ghz(1.0)));
        let s = p.to_string();
        for key in ["switching", "internal", "clock tree", "leakage", "total"] {
            assert!(s.contains(key), "missing {key}");
        }
    }
}
