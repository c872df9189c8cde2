//! Global routing estimate: per-net wirelength, layer assignment and RC.
//!
//! OpenLANE's FastRoute/TritonRoute produce exact geometry; for timing and
//! power what matters is each net's length and layer, which a classic
//! global-route estimate captures: HPWL of the placed pins times a detour
//! factor, with longer nets promoted to higher (faster) metals. A simple
//! row-based congestion metric flags over-utilized placements.

use crate::place::{NetBox, Placement};
use openserdes_netlist::{Connectivity, NetId, Netlist};
use openserdes_pdk::units::{Farad, Micron, Ohm};
use openserdes_pdk::wire::MetalLayer;

/// Detour factor over HPWL (routed nets are never straight lines).
const DETOUR: f64 = 1.15;

/// One routed net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoutedNet {
    /// The net.
    pub net: NetId,
    /// Estimated routed length.
    pub length: Micron,
    /// Assigned metal layer.
    pub layer: MetalLayer,
}

impl RoutedNet {
    /// Wire resistance of the routed net.
    pub fn resistance(&self) -> Ohm {
        self.layer.r_per_um() * self.length.value()
    }

    /// Wire capacitance of the routed net.
    pub fn capacitance(&self) -> Farad {
        self.layer.c_per_um() * self.length.value()
    }
}

/// Result of the global-routing estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteResult {
    nets: Vec<RoutedNet>,
    /// Total routed wirelength.
    pub total_length: Micron,
    /// Routing demand / supply on the busiest row band (> 1.0 means
    /// likely congestion).
    pub peak_congestion: f64,
}

impl RouteResult {
    /// The routed entry for `net`.
    pub fn net(&self, net: NetId) -> &RoutedNet {
        &self.nets[net.index()]
    }

    /// Iterates over all routed nets.
    pub fn iter(&self) -> impl Iterator<Item = &RoutedNet> {
        self.nets.iter()
    }
}

fn assign_layer(length_um: f64) -> MetalLayer {
    match length_um {
        l if l < 25.0 => MetalLayer::M1,
        l if l < 100.0 => MetalLayer::M2,
        l if l < 400.0 => MetalLayer::M3,
        l if l < 1500.0 => MetalLayer::M4,
        _ => MetalLayer::M5,
    }
}

/// Estimates routing for every net of a placed netlist.
pub fn global_route(netlist: &Netlist, placement: &Placement) -> RouteResult {
    let conn = Connectivity::new(netlist);
    let mut nets = Vec::with_capacity(netlist.net_count());
    let mut total = 0.0;
    // Congestion: demand per horizontal band = sum of net spans crossing it.
    let bands = placement.floorplan.rows.max(1);
    let band_h = placement.floorplan.height.value() / bands as f64;
    let mut demand = vec![0.0f64; bands];

    // Fixed I/O pins by net. A net that is both a primary input and a
    // primary output has two, and both count.
    let mut io_pins: Vec<Vec<(f64, f64)>> = vec![Vec::new(); netlist.net_count()];
    for (net, xy) in placement.io_pins() {
        io_pins[net.index()].push(xy);
    }

    for net in netlist.net_ids() {
        let mut b = NetBox::EMPTY;
        if let Some(d) = conn.driver(net) {
            b.add(placement.position(d));
        }
        for &xy in &io_pins[net.index()] {
            b.add(xy);
        }
        for &s in conn.sinks(net) {
            b.add(placement.position(s));
        }
        // Multi-pin nets need extra Steiner length: scale by pin count.
        let steiner = if b.pins > 3 {
            1.0 + 0.15 * (b.pins as f64 - 3.0).sqrt()
        } else {
            1.0
        };
        let length = b.hpwl() * DETOUR * steiner;
        total += length;
        if b.pins >= 2 && band_h > 0.0 {
            let lo = ((b.min_y / band_h).floor().max(0.0) as usize).min(bands - 1);
            let hi = ((b.max_y / band_h).floor().max(0.0) as usize).min(bands - 1);
            let width = (b.max_x - b.min_x).max(1.0);
            for d in demand.iter_mut().take(hi + 1).skip(lo) {
                *d += width;
            }
        }
        nets.push(RoutedNet {
            net,
            length: Micron::new(length),
            layer: assign_layer(length),
        });
    }

    // Supply per band: the die width times an assumed 0.46 µm track pitch
    // with ~10 horizontal tracks available per row band across layers.
    let supply = placement.floorplan.width.value() * 10.0;
    let peak = demand.iter().fold(0.0f64, |m, &d| {
        m.max(if supply > 0.0 { d / supply } else { 0.0 })
    });

    RouteResult {
        nets,
        total_length: Micron::new(total),
        peak_congestion: peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Floorplan;
    use crate::place::place_greedy;
    use openserdes_netlist::NetlistStats;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::library::Library;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};

    fn routed(n: usize) -> (Netlist, RouteResult) {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let mut s = a;
        for _ in 0..n {
            s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[s]);
        }
        nl.mark_output("y", s);
        let lib = Library::sky130(Pvt::nominal());
        let stats = NetlistStats::compute(&nl, &lib);
        let fp = Floorplan::for_area(stats.area, 0.6, 1.0);
        let p = place_greedy(&nl, &lib, &fp);
        let r = global_route(&nl, &p);
        (nl, r)
    }

    #[test]
    fn every_net_routed() {
        let (nl, r) = routed(20);
        assert_eq!(r.iter().count(), nl.net_count());
        assert!(r.total_length.value() > 0.0);
    }

    #[test]
    fn short_nets_on_lower_layers() {
        assert_eq!(assign_layer(5.0), MetalLayer::M1);
        assert_eq!(assign_layer(50.0), MetalLayer::M2);
        assert_eq!(assign_layer(200.0), MetalLayer::M3);
        assert_eq!(assign_layer(1000.0), MetalLayer::M4);
        assert_eq!(assign_layer(5000.0), MetalLayer::M5);
    }

    #[test]
    fn rc_positive_for_connected_nets() {
        let (nl, r) = routed(10);
        for net in nl.net_ids() {
            let rn = r.net(net);
            if rn.length.value() > 0.0 {
                assert!(rn.resistance().value() > 0.0);
                assert!(rn.capacitance().ff() > 0.0);
            }
        }
    }

    #[test]
    fn congestion_finite_and_nonnegative() {
        let (_, r) = routed(100);
        assert!(r.peak_congestion.is_finite());
        assert!(r.peak_congestion >= 0.0);
    }

    #[test]
    fn total_is_sum_of_nets() {
        let (_, r) = routed(15);
        let sum: f64 = r.iter().map(|n| n.length.value()).sum();
        assert!((sum - r.total_length.value()).abs() < 1e-9);
    }

    #[test]
    fn a_net_that_is_input_and_output_counts_both_io_pins() {
        // `a` is a primary input, a primary output and the inverter's
        // input: three pins, two of them fixed pads on opposite edges.
        let mut nl = Netlist::new("through");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
        nl.mark_output("a_out", a);
        nl.mark_output("y", y);
        let lib = Library::sky130(Pvt::nominal());
        let fp = Floorplan::for_area(NetlistStats::compute(&nl, &lib).area, 0.6, 1.0);
        let p = place_greedy(&nl, &lib, &fp);
        let inv = nl.cell_ids().next().expect("one cell");
        let pins: Vec<(f64, f64)> = p
            .io_pins()
            .filter(|&(net, _)| net == a)
            .map(|(_, xy)| xy)
            .chain([p.position(inv)])
            .collect();
        assert_eq!(pins.len(), 3);
        let span = |coord: fn(&(f64, f64)) -> f64| {
            let lo = pins.iter().map(coord).fold(f64::INFINITY, f64::min);
            let hi = pins.iter().map(coord).fold(f64::NEG_INFINITY, f64::max);
            hi - lo
        };
        let want = (span(|p| p.0) + span(|p| p.1)) * DETOUR;
        let got = global_route(&nl, &p).net(a).length.value();
        assert_eq!(got.to_bits(), want.to_bits());
    }
}
