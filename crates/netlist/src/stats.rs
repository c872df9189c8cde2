//! Netlist statistics: cell histograms, area and pin-cap rollups.
//!
//! These are the numbers a synthesis report prints, and the raw material
//! for the paper's Fig. 10/11 area breakdowns.

use crate::connectivity::Connectivity;
use crate::netlist::Netlist;
use openserdes_pdk::library::Library;
use openserdes_pdk::units::{AreaUm2, Farad};
use std::collections::BTreeMap;
use std::fmt;

/// Aggregate statistics of a netlist against a characterized library.
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistStats {
    /// Module name.
    pub name: String,
    /// Total instance count.
    pub cell_count: usize,
    /// Flip-flop count.
    pub flop_count: usize,
    /// Net count.
    pub net_count: usize,
    /// Maximum net fanout.
    pub max_fanout: usize,
    /// Total placed cell area.
    pub area: AreaUm2,
    /// Total leakage power in watts.
    pub leakage_w: f64,
    /// Total input pin capacitance (a proxy for switched capacitance).
    pub total_pin_cap: Farad,
    /// Instance histogram keyed by cell name.
    pub by_cell: BTreeMap<String, usize>,
}

impl NetlistStats {
    /// Computes statistics for `netlist` using cell data from `library`.
    pub fn compute(netlist: &Netlist, library: &Library) -> Self {
        let mut area = 0.0;
        let mut leakage = 0.0;
        let mut pin_cap = 0.0;
        let mut by_cell: BTreeMap<String, usize> = BTreeMap::new();
        for (_, inst) in netlist.instances() {
            let cell = library
                .cell(inst.function, inst.drive)
                .expect("netlist uses library cells");
            area += cell.area.value();
            leakage += cell.leakage_w;
            pin_cap += cell.input_cap.value() * inst.inputs.len() as f64 + cell.clock_cap.value();
            *by_cell.entry(cell.name.clone()).or_default() += 1;
        }
        Self {
            name: netlist.name().to_string(),
            cell_count: netlist.cell_count(),
            flop_count: netlist.flop_count(),
            net_count: netlist.net_count(),
            max_fanout: Connectivity::new(netlist).max_fanout(),
            area: AreaUm2::new(area),
            leakage_w: leakage,
            total_pin_cap: Farad::new(pin_cap),
            by_cell,
        }
    }
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "module {}:", self.name)?;
        writeln!(
            f,
            "  {} cells ({} flops), {} nets, max fanout {}",
            self.cell_count, self.flop_count, self.net_count, self.max_fanout
        )?;
        writeln!(
            f,
            "  area {:.1} µm², leakage {:.1} nW, pin cap {:.1} fF",
            self.area.value(),
            self.leakage_w * 1e9,
            self.total_pin_cap.ff()
        )?;
        for (cell, n) in &self.by_cell {
            writeln!(f, "    {cell:<24} {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};

    fn sample() -> (Netlist, Library) {
        let mut nl = Netlist::new("sample");
        let clk = nl.add_input("clk");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X2, &[a, b]);
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[x]);
        let q = nl.dff(y, clk, DriveStrength::X1);
        nl.mark_output("q", q);
        (nl, Library::sky130(Pvt::nominal()))
    }

    #[test]
    fn counts_and_histogram() {
        let (nl, lib) = sample();
        let s = NetlistStats::compute(&nl, &lib);
        assert_eq!(s.cell_count, 3);
        assert_eq!(s.flop_count, 1);
        assert_eq!(s.by_cell.len(), 3);
        assert_eq!(s.by_cell["osd130_nand2_2"], 1);
        assert_eq!(s.by_cell["osd130_dfxtp_1"], 1);
    }

    #[test]
    fn area_is_sum_of_cells() {
        let (nl, lib) = sample();
        let s = NetlistStats::compute(&nl, &lib);
        let expected = lib
            .cell(LogicFn::Nand2, DriveStrength::X2)
            .unwrap()
            .area
            .value()
            + lib
                .cell(LogicFn::Inv, DriveStrength::X1)
                .unwrap()
                .area
                .value()
            + lib
                .cell(LogicFn::Dff, DriveStrength::X1)
                .unwrap()
                .area
                .value();
        assert!((s.area.value() - expected).abs() < 1e-9);
    }

    #[test]
    fn display_mentions_module_and_cells() {
        let (nl, lib) = sample();
        let out = NetlistStats::compute(&nl, &lib).to_string();
        assert!(out.contains("module sample"));
        assert!(out.contains("osd130_inv_1"));
    }
}
