//! DEF-style layout export — the flow's equivalent of the paper's GDS
//! hand-off (the final "Export" step of OpenLANE's Fig. 12).
//!
//! [`to_def`] serializes a placed netlist in the (simplified) DEF syntax
//! physical tools exchange: die area, placement rows, placed components,
//! I/O pins and net connectivity. Coordinates are in DEF database units
//! (1000 per µm).

use crate::floorplan::{Floorplan, ROW_HEIGHT_UM};
use crate::place::Placement;
use openserdes_netlist::{Connectivity, Netlist};
use openserdes_pdk::library::Library;
use std::fmt::Write as _;

/// Database units per µm, the usual DEF convention.
const DBU: f64 = 1000.0;

fn dbu(um: f64) -> i64 {
    (um * DBU).round() as i64
}

/// Serializes a placed design as a DEF document.
///
/// The output is structurally valid DEF 5.8: `DIEAREA`, `ROW`,
/// `COMPONENTS` (with `PLACED` coordinates), `PINS` and `NETS` sections.
pub fn to_def(
    netlist: &Netlist,
    library: &Library,
    placement: &Placement,
    floorplan: &Floorplan,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "VERSION 5.8 ;");
    let _ = writeln!(out, "DESIGN {} ;", netlist.name());
    let _ = writeln!(out, "UNITS DISTANCE MICRONS {} ;", DBU as i64);
    let _ = writeln!(
        out,
        "DIEAREA ( 0 0 ) ( {} {} ) ;",
        dbu(floorplan.width.value()),
        dbu(floorplan.height.value())
    );
    for r in 0..floorplan.rows {
        let _ = writeln!(
            out,
            "ROW row_{r} unithd 0 {} N DO {} BY 1 STEP 460 0 ;",
            dbu(r as f64 * ROW_HEIGHT_UM),
            (floorplan.width.value() / 0.46).floor() as i64
        );
    }

    let _ = writeln!(out, "COMPONENTS {} ;", netlist.cell_count());
    for (id, inst) in netlist.instances() {
        let cell = library
            .cell(inst.function, inst.drive)
            .expect("library cell");
        let (x, y) = placement.position(id);
        let _ = writeln!(
            out,
            "- {} {} + PLACED ( {} {} ) N ;",
            inst.name,
            cell.name,
            dbu(x),
            dbu(y)
        );
    }
    let _ = writeln!(out, "END COMPONENTS");

    let pins = netlist.primary_inputs().len() + netlist.primary_outputs().len();
    let _ = writeln!(out, "PINS {pins} ;");
    for (net, (x, y)) in placement.io_pins() {
        let dir = if netlist.is_primary_input(net) {
            "INPUT"
        } else {
            "OUTPUT"
        };
        let _ = writeln!(
            out,
            "- {} + NET {} + DIRECTION {} + PLACED ( {} {} ) N ;",
            netlist.net_name(net),
            netlist.net_name(net),
            dir,
            dbu(x),
            dbu(y)
        );
    }
    let _ = writeln!(out, "END PINS");

    let _ = writeln!(out, "NETS {} ;", netlist.net_count());
    let conn = Connectivity::new(netlist);
    for net in netlist.net_ids() {
        let _ = write!(out, "- {}", netlist.net_name(net));
        if let Some(d) = conn.driver(net) {
            let _ = write!(out, " ( {} Y )", netlist.instance(d).name);
        }
        // A cell's entries on a net are adjacent and follow its pins
        // that read the net: data pins in order, then the clock.
        let sinks = conn.sinks(net);
        for (k, &s) in sinks.iter().enumerate() {
            let nth = sinks[..k].iter().rev().take_while(|&&c| c == s).count();
            let inst = netlist.instance(s);
            let _ = match (0..inst.inputs.len())
                .filter(|&i| inst.inputs[i] == net)
                .nth(nth)
            {
                Some(i) => write!(out, " ( {} A{i} )", inst.name),
                None => write!(out, " ( {} CLK )", inst.name),
            };
        }
        let _ = writeln!(out, " ;");
    }
    let _ = writeln!(out, "END NETS");
    let _ = writeln!(out, "END DESIGN");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::place_greedy;
    use openserdes_netlist::NetlistStats;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};

    fn placed() -> (Netlist, Library, Placement, Floorplan) {
        let mut nl = Netlist::new("def_test");
        let clk = nl.add_input("clk");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X2, &[a, b]);
        let q = nl.dff(x, clk, DriveStrength::X1);
        nl.mark_output("q", q);
        let lib = Library::sky130(Pvt::nominal());
        let stats = NetlistStats::compute(&nl, &lib);
        let fp = Floorplan::for_area(stats.area, 0.5, 1.0);
        let p = place_greedy(&nl, &lib, &fp);
        (nl, lib, p, fp)
    }

    #[test]
    fn def_has_all_sections() {
        let (nl, lib, p, fp) = placed();
        let def = to_def(&nl, &lib, &p, &fp);
        for section in [
            "VERSION 5.8",
            "DESIGN def_test",
            "DIEAREA",
            "COMPONENTS 2 ;",
            "END COMPONENTS",
            "PINS 4 ;",
            "END PINS",
            "NETS",
            "END NETS",
            "END DESIGN",
        ] {
            assert!(def.contains(section), "missing `{section}`");
        }
    }

    #[test]
    fn components_carry_cell_names_and_coordinates() {
        let (nl, lib, p, fp) = placed();
        let def = to_def(&nl, &lib, &p, &fp);
        assert!(def.contains("osd130_nand2_2"));
        assert!(def.contains("osd130_dfxtp_1"));
        assert!(def.contains("+ PLACED ("));
    }

    #[test]
    fn clock_pins_labelled() {
        let (nl, lib, p, fp) = placed();
        let def = to_def(&nl, &lib, &p, &fp);
        assert!(def.contains("CLK )"), "clock sink pin labelled CLK");
    }

    #[test]
    fn each_pin_reading_a_net_is_named_once() {
        let mut nl = Netlist::new("twice");
        let a = nl.add_input("a");
        let x = nl.gate(LogicFn::Nand2, DriveStrength::X1, &[a, a]);
        let q = nl.dff(x, x, DriveStrength::X1);
        nl.mark_output("q", q);
        let lib = Library::sky130(Pvt::nominal());
        let fp = Floorplan::for_area(NetlistStats::compute(&nl, &lib).area, 0.5, 1.0);
        let def = to_def(&nl, &lib, &place_greedy(&nl, &lib, &fp), &fp);
        assert!(
            def.contains("- a ( u_nand2_0 A0 ) ( u_nand2_0 A1 ) ;"),
            "{def}"
        );
        assert!(
            def.contains("- nand2_0 ( u_nand2_0 Y ) ( u_dff_1 A0 ) ( u_dff_1 CLK ) ;"),
            "{def}"
        );
    }

    #[test]
    fn coordinates_within_die() {
        let (nl, lib, p, fp) = placed();
        let def = to_def(&nl, &lib, &p, &fp);
        let max = dbu(fp.width.value().max(fp.height.value()));
        for line in def.lines().filter(|l| l.contains("PLACED")) {
            let nums: Vec<i64> = line
                .split(['(', ')'])
                .nth(1)
                .expect("coords")
                .split_whitespace()
                .map(|s| s.parse().expect("number"))
                .collect();
            assert!(nums.iter().all(|&n| n >= 0 && n <= max + 1000), "{line}");
        }
    }
}
