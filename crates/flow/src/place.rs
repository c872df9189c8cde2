//! Placement: greedy row packing refined by simulated annealing.
//!
//! The OpenLANE placer (RePlAce + OpenDP) minimizes half-perimeter
//! wirelength (HPWL); we reproduce the same objective with a two-step
//! approach: a connectivity-ordered greedy row packing for the initial
//! solution, then simulated annealing over cell swaps with a geometric
//! cooling schedule. Primary I/O pins sit on the left (inputs) and right
//! (outputs) die edges.

use crate::floorplan::{Floorplan, ROW_HEIGHT_UM};
use openserdes_netlist::{CellId, Connectivity, NetId, Netlist};
use openserdes_pdk::library::Library;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Cell and pin coordinates for one placed netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Per-cell centre coordinates in µm, indexed by `CellId`.
    positions: Vec<(f64, f64)>,
    /// Per-net pin coordinates of primary inputs (left edge).
    io_in: Vec<(NetId, (f64, f64))>,
    /// Pin coordinates of primary outputs (right edge).
    io_out: Vec<(NetId, (f64, f64))>,
    /// Per-net fixed pin position, if the net reaches an I/O pad.
    io_pin_of: Vec<Option<(f64, f64)>>,
    /// The floorplan placed into.
    pub floorplan: Floorplan,
}

impl Placement {
    /// Centre position of a cell in µm.
    pub fn position(&self, cell: CellId) -> (f64, f64) {
        self.positions[cell.index()]
    }

    /// All fixed I/O pin positions (net, xy).
    pub fn io_pins(&self) -> impl Iterator<Item = (NetId, (f64, f64))> + '_ {
        self.io_in.iter().chain(self.io_out.iter()).copied()
    }
}

/// Statistics from the annealing refinement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealStats {
    /// HPWL of the greedy initial placement, µm.
    pub initial_hpwl: f64,
    /// HPWL after annealing, µm.
    pub final_hpwl: f64,
    /// Number of accepted moves.
    pub accepted: usize,
    /// Number of attempted moves.
    pub attempted: usize,
}

/// Greedy initial placement: BFS order from the primary inputs, packing
/// cells into rows left to right so connected cells land near each other.
pub fn place_greedy(netlist: &Netlist, library: &Library, floorplan: &Floorplan) -> Placement {
    let widths: Vec<f64> = netlist
        .instances()
        .map(|(_, inst)| {
            library
                .cell(inst.function, inst.drive)
                .expect("library cell")
                .area
                .value()
                / ROW_HEIGHT_UM
        })
        .collect();

    // BFS over the connectivity graph starting from cells fed by primary
    // inputs, falling back to unvisited cells (disconnected components).
    let conn = Connectivity::new(netlist);
    let mut order: Vec<CellId> = Vec::with_capacity(netlist.cell_count());
    let mut seen = vec![false; netlist.cell_count()];
    let mut queue: VecDeque<CellId> = VecDeque::new();
    for &pi in netlist.primary_inputs() {
        for &c in conn.sinks(pi) {
            if !seen[c.index()] {
                seen[c.index()] = true;
                queue.push_back(c);
            }
        }
    }
    let mut fallback = netlist.cell_ids();
    loop {
        while let Some(c) = queue.pop_front() {
            order.push(c);
            let out = netlist.instance(c).output;
            for &s in conn.sinks(out) {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    queue.push_back(s);
                }
            }
        }
        match fallback.find(|c| !seen[c.index()]) {
            Some(c) => {
                seen[c.index()] = true;
                queue.push_back(c);
            }
            None => break,
        }
    }

    // Pack in BFS order, wrapping rows.
    let mut positions = vec![(0.0, 0.0); netlist.cell_count()];
    let mut row = 0usize;
    let mut x = 0.0f64;
    for &c in &order {
        let w = widths[c.index()].max(0.1);
        if x + w > floorplan.width.value() && row + 1 < floorplan.rows {
            row += 1;
            x = 0.0;
        }
        positions[c.index()] = (x + w / 2.0, floorplan.row_y(row % floorplan.rows).value());
        x += w;
    }

    // I/O pins: inputs spread along the left edge, outputs along the right.
    let h = floorplan.height.value();
    let ins = netlist.primary_inputs();
    let io_in: Vec<(NetId, (f64, f64))> = ins
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let y = (i as f64 + 0.5) / ins.len().max(1) as f64 * h;
            (n, (0.0, y))
        })
        .collect();
    let outs = netlist.primary_outputs();
    let io_out: Vec<(NetId, (f64, f64))> = outs
        .iter()
        .enumerate()
        .map(|(i, (_, n))| {
            let y = (i as f64 + 0.5) / outs.len().max(1) as f64 * h;
            (*n, (floorplan.width.value(), y))
        })
        .collect();

    let mut io_pin_of: Vec<Option<(f64, f64)>> = vec![None; netlist.net_count()];
    for &(n, xy) in io_in.iter().chain(&io_out) {
        io_pin_of[n.index()] = Some(xy);
    }

    Placement {
        positions,
        io_in,
        io_out,
        io_pin_of,
        floorplan: *floorplan,
    }
}

/// The bounding box of one net's pins, the unit of the HPWL cost model.
///
/// Min and max are exact in floating point and independent of the order
/// pins are added in, so a box kept up to date move by move equals a
/// fresh scan of the same pin positions bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NetBox {
    pub(crate) min_x: f64,
    pub(crate) max_x: f64,
    pub(crate) min_y: f64,
    pub(crate) max_y: f64,
    /// Pins counted with multiplicity (a cell reading the net on two
    /// pins counts twice).
    pub(crate) pins: usize,
}

impl NetBox {
    /// The box of a net with no pins.
    pub(crate) const EMPTY: NetBox = NetBox {
        min_x: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        min_y: f64::INFINITY,
        max_y: f64::NEG_INFINITY,
        pins: 0,
    };

    /// Adds one pin at `xy`.
    pub(crate) fn add(&mut self, xy: (f64, f64)) {
        self.cover(xy);
        self.pins += 1;
    }

    /// Grows the box to cover `(x, y)` without counting a pin.
    fn cover(&mut self, (x, y): (f64, f64)) {
        self.min_x = self.min_x.min(x);
        self.max_x = self.max_x.max(x);
        self.min_y = self.min_y.min(y);
        self.max_y = self.max_y.max(y);
    }

    /// `true` if a pin at `(x, y)` inside the box touches one of its
    /// edges, so the box may shrink when that pin leaves.
    fn on_edge(&self, (x, y): (f64, f64)) -> bool {
        x == self.min_x || x == self.max_x || y == self.min_y || y == self.max_y
    }

    /// Half-perimeter wirelength in µm; 0 for nets of fewer than two pins.
    pub(crate) fn hpwl(&self) -> f64 {
        if self.pins < 2 {
            0.0
        } else {
            (self.max_x - self.min_x) + (self.max_y - self.min_y)
        }
    }
}

/// Pins up to which a net's [`NetRecord`] holds the net's pins itself.
const SMALL_NET: usize = 4;

/// A placement as flat arrays: every cell position, then one fixed
/// pseudo-cell per I/O pad, and each net's pins as indices into them.
struct PinMap {
    /// Cell positions in `CellId` order, then the pads.
    xy: Vec<(f64, f64)>,
    /// Net `k`'s pins are `pins[start[k]..start[k + 1]]`.
    start: Vec<u32>,
    /// Per net: its recorded driver, its I/O pad, then its sinks, one
    /// entry per pin (a cell reading the net on two pins is listed twice).
    pins: Vec<u32>,
}

impl PinMap {
    fn new(netlist: &Netlist, conn: &Connectivity, placement: &Placement) -> Self {
        let mut xy = placement.positions.clone();
        let mut start = vec![0];
        let mut pins = Vec::new();
        for net in netlist.net_ids() {
            pins.extend(conn.driver(net).map(|driver| driver.index() as u32));
            if let Some(pad) = placement.io_pin_of[net.index()] {
                pins.push(xy.len() as u32);
                xy.push(pad);
            }
            pins.extend(conn.sinks(net).iter().map(|sink| sink.index() as u32));
            start.push(pins.len() as u32);
        }
        Self { xy, start, pins }
    }

    /// Net `k`'s pin indices.
    fn pins(&self, k: usize) -> &[u32] {
        &self.pins[self.start[k] as usize..self.start[k + 1] as usize]
    }

    /// The box of every pin of net `k`.
    fn scan(&self, k: usize) -> NetBox {
        let mut b = NetBox::EMPTY;
        for &pin in self.pins(k) {
            b.add(self.xy[pin as usize]);
        }
        b
    }

    /// The box of a net of `pins` pins, 1 to [`SMALL_NET`] of them,
    /// from its padded pin list: a fixed number of gathers and no edge
    /// test. A pin read twice changes no min or max.
    fn gather(&self, small: &[u32; SMALL_NET], pins: usize) -> NetBox {
        let mut b = NetBox {
            pins,
            ..NetBox::EMPTY
        };
        for &pin in small {
            b.cover(self.xy[pin as usize]);
        }
        b
    }
}

/// One net as the annealer keeps it, in one 64-byte record: the box of
/// its pins, that box's HPWL, and for a net of at most [`SMALL_NET`]
/// pins those pins, cycled to fill the array.
#[derive(Debug)]
struct NetRecord {
    bbox: NetBox,
    hpwl: f64,
    small: [u32; SMALL_NET],
}

impl NetRecord {
    fn new(map: &PinMap, k: usize) -> Self {
        let bbox = map.scan(k);
        let pins = map.pins(k);
        let mut small = [0; SMALL_NET];
        if (1..=SMALL_NET).contains(&pins.len()) {
            for (i, slot) in small.iter_mut().enumerate() {
                *slot = pins[i % pins.len()];
            }
        }
        Self {
            bbox,
            hpwl: bbox.hpwl(),
            small,
        }
    }
}

/// Total HPWL of the placement in µm.
pub fn hpwl(netlist: &Netlist, placement: &Placement) -> f64 {
    let map = PinMap::new(netlist, &Connectivity::new(netlist), placement);
    (0..netlist.net_count()).map(|k| map.scan(k).hpwl()).sum()
}

/// The nets each cell touches through any pin, sorted and deduplicated,
/// each flagged `true` if the cell's position is one of the net's pins.
/// Only a driver that [`Connectivity::driver`] does not record (one of
/// several on a multiply driven net) touches a net without being a pin.
fn cell_nets(netlist: &Netlist, conn: &Connectivity) -> Vec<Vec<(NetId, bool)>> {
    netlist
        .instances()
        .map(|(id, inst)| {
            let mut nets: Vec<(NetId, bool)> = inst.inputs.iter().map(|&n| (n, true)).collect();
            nets.push((inst.output, conn.driver(inst.output) == Some(id)));
            nets.extend(inst.clock.map(|c| (c, true)));
            // A net the cell is a pin of sorts first, so dedup keeps it.
            nets.sort_unstable_by_key(|&(net, pin)| (net, !pin));
            nets.dedup_by_key(|&mut (net, _)| net);
            nets
        })
        .collect()
}

/// Merges the sorted net lists of two cells into `out` as
/// `(net, on_a, on_b)`: every net either cell touches, once, in net
/// order, with whether each cell is one of its pins.
fn merge_nets(a: &[(NetId, bool)], b: &[(NetId, bool)], out: &mut Vec<(NetId, bool, bool)>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    loop {
        let entry = match (a.get(i), b.get(j)) {
            (Some(&(n, p)), Some(&(m, q))) if n == m => {
                i += 1;
                j += 1;
                (n, p, q)
            }
            (Some(&(n, p)), Some(&(m, _))) if n < m => {
                i += 1;
                (n, p, false)
            }
            (Some(&(n, p)), None) => {
                i += 1;
                (n, p, false)
            }
            (_, Some(&(m, q))) => {
                j += 1;
                (m, false, q)
            }
            (None, None) => return,
        };
        out.push(entry);
    }
}

/// Refines a placement with simulated annealing over cell-pair swaps.
///
/// Deterministic for a given `seed`. `iterations` is the number of
/// attempted moves; the temperature decays geometrically from an initial
/// value derived from the starting HPWL.
///
/// The cost is incremental. The run works on flat arrays built once:
/// the cell positions with the I/O pads appended as fixed pseudo-cells,
/// one pin list per net, and one 64-byte record per net holding its
/// box, its HPWL and, for a net of at most four pins, those pins. A move
/// re-evaluates only the nets of the two swapped cells. A net both
/// cells are pins of keeps its box (the swap only permutes its pins).
/// A small net with one moving pin is rescanned from its record: four
/// gathers, no edge test. A larger one grows its box to the pin's new
/// spot, and is rescanned only if the old spot lay on an edge. A
/// rejected move leaves the records untouched. Every move sums the same
/// per-net values in the same net order as rescanning every touched net
/// would, so every delta, and with it the whole run, is bit-identical
/// to that.
pub fn anneal(
    netlist: &Netlist,
    placement: &mut Placement,
    seed: u64,
    iterations: usize,
) -> AnnealStats {
    let n = netlist.cell_count();
    let conn = Connectivity::new(netlist);
    let mut map = PinMap::new(netlist, &conn, placement);
    let mut records: Vec<NetRecord> = (0..netlist.net_count())
        .map(|k| NetRecord::new(&map, k))
        .collect();
    let initial: f64 = records.iter().map(|r| r.hpwl).sum();
    if n < 2 || iterations == 0 {
        return AnnealStats {
            initial_hpwl: initial,
            final_hpwl: initial,
            accepted: 0,
            attempted: 0,
        };
    }
    let cell_nets = cell_nets(netlist, &conn);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut cost = initial;
    let mut temp = (initial / n as f64).max(1.0);
    let cooling = 0.999_f64.powf(1000.0 / iterations.max(1) as f64);
    let mut accepted = 0usize;
    let mut touched: Vec<(NetId, bool, bool)> = Vec::new();
    let mut fresh: Vec<(NetBox, f64)> = Vec::new();

    for _ in 0..iterations {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a == b {
            continue;
        }
        merge_nets(&cell_nets[a], &cell_nets[b], &mut touched);
        let before: f64 = touched
            .iter()
            .map(|&(net, ..)| records[net.index()].hpwl)
            .sum();
        let (pa, pb) = (map.xy[a], map.xy[b]);
        map.xy.swap(a, b);
        fresh.clear();
        fresh.extend(touched.iter().map(|&(net, on_a, on_b)| {
            let record = &records[net.index()];
            if on_a == on_b {
                // Both cells are pins, or neither: same pin positions.
                return (record.bbox, record.hpwl);
            }
            let bbox = if record.bbox.pins <= SMALL_NET {
                map.gather(&record.small, record.bbox.pins)
            } else {
                let (from, to) = if on_a { (pa, pb) } else { (pb, pa) };
                if record.bbox.on_edge(from) {
                    map.scan(net.index())
                } else {
                    let mut grown = record.bbox;
                    grown.cover(to);
                    grown
                }
            };
            (bbox, bbox.hpwl())
        }));
        let after: f64 = fresh.iter().map(|&(_, hpwl)| hpwl).sum();
        let delta = after - before;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
        if accept {
            cost += delta;
            accepted += 1;
            for (&(net, ..), &(bbox, hpwl)) in touched.iter().zip(&fresh) {
                let record = &mut records[net.index()];
                record.bbox = bbox;
                record.hpwl = hpwl;
            }
        } else {
            map.xy.swap(a, b);
        }
        temp *= cooling;
    }

    placement.positions.copy_from_slice(&map.xy[..n]);
    debug_assert!(
        records
            .iter()
            .enumerate()
            .all(|(k, r)| r.bbox == map.scan(k) && r.hpwl.to_bits() == r.bbox.hpwl().to_bits()),
        "cached net boxes drifted from the final positions"
    );
    AnnealStats {
        initial_hpwl: initial,
        final_hpwl: cost,
        accepted,
        attempted: iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
    use openserdes_pdk::units::{AreaUm2, Micron};
    use proptest::prelude::*;

    fn chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let mut s = a;
        for _ in 0..n {
            s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[s]);
        }
        nl.mark_output("y", s);
        nl
    }

    fn setup(n: usize) -> (Netlist, Library, Floorplan) {
        let nl = chain(n);
        let lib = Library::sky130(Pvt::nominal());
        let stats = openserdes_netlist::NetlistStats::compute(&nl, &lib);
        let fp = Floorplan::for_area(stats.area, 0.6, 1.0);
        (nl, lib, fp)
    }

    #[test]
    fn greedy_places_all_cells_inside_core() {
        let (nl, lib, fp) = setup(50);
        let p = place_greedy(&nl, &lib, &fp);
        for id in nl.cell_ids() {
            let (x, y) = p.position(id);
            assert!(x >= 0.0 && x <= fp.width.value() + 1.0, "x = {x}");
            assert!(y >= 0.0 && y <= fp.height.value(), "y = {y}");
        }
    }

    #[test]
    fn greedy_beats_reversed_order_on_a_chain() {
        // Connectivity-ordered packing should give near-minimal HPWL for
        // a pure chain; compare against a deliberately bad placement.
        let (nl, lib, fp) = setup(40);
        let p = place_greedy(&nl, &lib, &fp);
        let good = hpwl(&nl, &p);
        let mut bad = p.clone();
        bad.positions.reverse();
        // Reversing misaligns I/O pins and chain order.
        let worse = hpwl(&nl, &bad);
        assert!(good <= worse, "greedy {good} vs reversed {worse}");
    }

    #[test]
    fn anneal_never_worsens_a_shuffled_placement() {
        let (nl, lib, fp) = setup(60);
        let mut p = place_greedy(&nl, &lib, &fp);
        // Shuffle deterministically to create slack for improvement.
        let n = nl.cell_count();
        for i in 0..n {
            p.positions.swap(i, (i * 7 + 3) % n);
        }
        let before = hpwl(&nl, &p);
        let stats = anneal(&nl, &mut p, 42, 4000);
        let after = hpwl(&nl, &p);
        assert!(stats.final_hpwl <= before * 1.001);
        // Incremental bookkeeping must agree with full recomputation.
        assert!(
            (stats.final_hpwl - after).abs() < 1e-6 * after.max(1.0),
            "incremental {} vs full {}",
            stats.final_hpwl,
            after
        );
        assert!(after < before, "annealing should improve a shuffle");
    }

    #[test]
    fn anneal_is_deterministic_per_seed() {
        let (nl, lib, fp) = setup(30);
        let run = |seed| {
            let mut p = place_greedy(&nl, &lib, &fp);
            anneal(&nl, &mut p, seed, 1000);
            hpwl(&nl, &p)
        };
        assert_eq!(run(7).to_bits(), run(7).to_bits());
    }

    #[test]
    fn hpwl_zero_for_empty_netlist() {
        let nl = Netlist::new("empty");
        let lib = Library::sky130(Pvt::nominal());
        let fp = Floorplan::for_area(AreaUm2::new(10.0), 0.5, 1.0);
        let p = place_greedy(&nl, &lib, &fp);
        assert_eq!(hpwl(&nl, &p), 0.0);
        let mut p2 = p;
        let stats = anneal(&nl, &mut p2, 1, 100);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn io_pins_on_die_edges() {
        let (nl, lib, fp) = setup(10);
        let p = place_greedy(&nl, &lib, &fp);
        let pins: Vec<_> = p.io_pins().collect();
        assert_eq!(pins.len(), 2); // one input, one output
        assert_eq!(pins[0].1 .0, 0.0);
        assert!((pins[1].1 .0 - fp.width.value()).abs() < 1e-9);
    }

    /// The box of every pin of `net`, read straight from the netlist:
    /// its recorded driver, its I/O pin, its sinks.
    fn full_scan(placement: &Placement, net: NetId, conn: &Connectivity) -> NetBox {
        let mut b = NetBox::EMPTY;
        if let Some(driver) = conn.driver(net) {
            b.add(placement.position(driver));
        }
        if let Some(xy) = placement.io_pin_of[net.index()] {
            b.add(xy);
        }
        for &sink in conn.sinks(net) {
            b.add(placement.position(sink));
        }
        b
    }

    /// The full-rescan annealer the incremental one replaced, kept as
    /// the reference: every move rescans every pin of every net either
    /// cell touches, once before and once after the swap, through
    /// [`full_scan`] rather than the annealer's pin lists.
    fn anneal_reference(
        netlist: &Netlist,
        placement: &mut Placement,
        seed: u64,
        iterations: usize,
    ) -> AnnealStats {
        let conn = Connectivity::new(netlist);
        let net_hpwl = |p: &Placement, net: NetId| full_scan(p, net, &conn).hpwl();
        let n = netlist.cell_count();
        let initial: f64 = netlist.net_ids().map(|net| net_hpwl(placement, net)).sum();
        if n < 2 || iterations == 0 {
            return AnnealStats {
                initial_hpwl: initial,
                final_hpwl: initial,
                accepted: 0,
                attempted: 0,
            };
        }
        let mut cell_nets: Vec<Vec<NetId>> = vec![Vec::new(); n];
        for (id, inst) in netlist.instances() {
            let mut nets: Vec<NetId> = inst.inputs.clone();
            nets.push(inst.output);
            if let Some(c) = inst.clock {
                nets.push(c);
            }
            nets.sort_unstable();
            nets.dedup();
            cell_nets[id.index()] = nets;
        }
        let cells: Vec<CellId> = netlist.cell_ids().collect();

        let mut rng = StdRng::seed_from_u64(seed);
        let mut cost = initial;
        let mut temp = (initial / n as f64).max(1.0);
        let cooling = 0.999_f64.powf(1000.0 / iterations.max(1) as f64);
        let mut accepted = 0usize;

        for _ in 0..iterations {
            let a = cells[rng.gen_range(0..n)];
            let b = cells[rng.gen_range(0..n)];
            if a == b {
                continue;
            }
            let mut affected: Vec<NetId> = cell_nets[a.index()].clone();
            affected.extend(&cell_nets[b.index()]);
            affected.sort_unstable();
            affected.dedup();
            let before: f64 = affected.iter().map(|&net| net_hpwl(placement, net)).sum();
            placement.positions.swap(a.index(), b.index());
            let after: f64 = affected.iter().map(|&net| net_hpwl(placement, net)).sum();
            let delta = after - before;
            let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temp).exp();
            if accept {
                cost += delta;
                accepted += 1;
            } else {
                placement.positions.swap(a.index(), b.index());
            }
            temp *= cooling;
        }

        AnnealStats {
            initial_hpwl: initial,
            final_hpwl: cost,
            accepted,
            attempted: iterations,
        }
    }

    /// A random small netlist. A fixed skeleton holds one of each corner
    /// of the cost model: a NAND2 reading one net on both pins, a net
    /// that is both a primary input and a primary output, an input that
    /// feeds nothing and an inverter whose output goes nowhere (both
    /// single-pin nets). Around the annealer's small-net bound it holds
    /// a net of exactly four pins and one of exactly five (ops never
    /// read either), and five flops on the shared clock, each reading
    /// one input: two nets with an I/O pin and five sinks. Each op then
    /// adds a cell reading earlier nets: an inverter, a NAND2, a NAND2
    /// on one net twice, a flop on the shared clock, or a NAND2 driving
    /// an earlier net (a multiply driven net, whose unrecorded driver
    /// touches a net without being one of its pins). An op packs its
    /// kind and two net picks as `kind + 5 * (p + 1000 * q)`.
    fn random_netlist(ops: &[usize], outputs: &[usize]) -> Netlist {
        let x1 = DriveStrength::X1;
        let mut nl = Netlist::new("random");
        let clk = nl.add_input("clk");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let fan = nl.add_input("fan");
        nl.add_input("spare");
        nl.mark_output("a_through", a);
        let mut nets = vec![clk, a, b, fan, nl.gate(LogicFn::Nand2, x1, &[a, a])];
        let flops: Vec<NetId> = (0..5).map(|_| nl.dff(fan, clk, x1)).collect();
        // A driver and three sinks, and a driver and four.
        let four = nl.gate(LogicFn::Inv, x1, &[flops[0]]);
        let five = nl.gate(LogicFn::Inv, x1, &[flops[1]]);
        for _ in 0..3 {
            nets.push(nl.gate(LogicFn::Nand2, x1, &[four, five]));
        }
        nets.push(nl.gate(LogicFn::Inv, x1, &[five]));
        nets.extend(flops);
        for &op in ops {
            let (kind, p, q) = (op % 5, op / 5 % 1000, op / 5000);
            let (x, y) = (nets[p % nets.len()], nets[q % nets.len()]);
            let out = match kind {
                0 => nl.gate(LogicFn::Inv, x1, &[x]),
                1 => nl.gate(LogicFn::Nand2, x1, &[x, y]),
                2 => nl.gate(LogicFn::Nand2, x1, &[x, x]),
                3 => nl.dff(x, clk, x1),
                _ => {
                    nl.gate_into(LogicFn::Nand2, x1, &[x, y], y);
                    continue;
                }
            };
            nets.push(out);
        }
        for (k, &o) in outputs.iter().enumerate() {
            nl.mark_output(format!("y{k}"), nets[o % nets.len()]);
        }
        let last = *nets.last().expect("skeleton nets");
        nl.gate(LogicFn::Inv, x1, &[last]);
        nl
    }

    #[test]
    fn random_skeleton_straddles_the_small_net_bound() {
        let nl = random_netlist(&[], &[]);
        let lib = Library::sky130(Pvt::nominal());
        let p = placed(&nl, &lib, false);
        let conn = Connectivity::new(&nl);
        let pins: Vec<usize> = nl
            .net_ids()
            .map(|net| full_scan(&p, net, &conn).pins)
            .collect();
        assert!(pins.contains(&SMALL_NET) && pins.contains(&(SMALL_NET + 1)));
        assert!(nl
            .net_ids()
            .any(|net| p.io_pin_of[net.index()].is_some() && conn.sinks(net).len() >= 5));
        let clk = nl.primary_inputs()[0];
        let clocked = nl.instances().filter(|(_, i)| i.clock == Some(clk));
        assert!(clocked.count() >= 5);
    }

    /// Greedy placement of `nl`, into a single row if `one_row` (every
    /// cell pin then sits on a y edge of its nets' boxes).
    fn placed(nl: &Netlist, lib: &Library, one_row: bool) -> Placement {
        let area = openserdes_netlist::NetlistStats::compute(nl, lib).area;
        let fp = if one_row {
            Floorplan {
                width: Micron::new(area.value() / ROW_HEIGHT_UM),
                height: Micron::new(ROW_HEIGHT_UM),
                rows: 1,
                utilization: 1.0,
            }
        } else {
            Floorplan::for_area(area, 0.6, 1.0)
        };
        place_greedy(nl, lib, &fp)
    }

    fn stats_bits(s: &AnnealStats) -> (u64, u64, usize, usize) {
        (
            s.initial_hpwl.to_bits(),
            s.final_hpwl.to_bits(),
            s.accepted,
            s.attempted,
        )
    }

    fn position_bits(p: &Placement) -> Vec<(u64, u64)> {
        p.positions
            .iter()
            .map(|&(x, y)| (x.to_bits(), y.to_bits()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn incremental_anneal_equals_full_rescan(
            ops in prop::collection::vec(0usize..5_000_000, 0..40),
            outputs in prop::collection::vec(0usize..1_000, 0..4),
            seed in any::<u64>(),
            iterations in prop::sample::select(vec![0usize, 1, 2, 40, 600, 3_000]),
            one_row in any::<bool>(),
        ) {
            let nl = random_netlist(&ops, &outputs);
            let lib = Library::sky130(Pvt::nominal());
            let mut fast = placed(&nl, &lib, one_row);
            let mut full = fast.clone();
            let got = anneal(&nl, &mut fast, seed, iterations);
            let want = anneal_reference(&nl, &mut full, seed, iterations);
            prop_assert_eq!(stats_bits(&got), stats_bits(&want), "{} cells", nl.cell_count());
            prop_assert_eq!(position_bits(&fast), position_bits(&full));
        }
    }
}
