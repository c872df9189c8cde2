//! Standard-cell definitions and liberty-style timing tables.
//!
//! The OpenLANE flow that the paper uses consumes the
//! `sky130_fd_sc_hd` standard-cell library characterized as liberty NLDM
//! tables (delay and output slew indexed by input slew and output load).
//! This module reproduces that abstraction: a [`StdCell`] carries area,
//! pin capacitance, leakage and an [`Nldm`] timing table; the tables are
//! *characterized* from the compact MOS model in [`crate::mos`] rather
//! than copied from the PDK, which keeps the library process-portable —
//! re-characterizing at a new PVT point is just a function call.

use crate::units::{AreaUm2, Farad, Time};
use std::fmt;

/// Boolean function implemented by a combinational cell, or the
/// sequential element kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicFn {
    /// Inverter.
    Inv,
    /// Non-inverting buffer.
    Buf,
    /// 2-input NAND.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// 2:1 multiplexer; inputs are `[a, b, sel]`, output `sel ? b : a`.
    Mux2,
    /// AND-OR-invert: `!((a & b) | c)`.
    Aoi21,
    /// OR-AND-invert: `!((a | b) & c)`.
    Oai21,
    /// Positive-edge D flip-flop; inputs `[d]` plus a clock pin.
    Dff,
    /// Positive-edge D flip-flop with active-low async reset;
    /// inputs `[d, rst_n]` plus a clock pin.
    DffRstN,
    /// Clock buffer (balanced rise/fall, used by CTS).
    ClkBuf,
}

impl LogicFn {
    /// All functions, for library construction and sweep tests.
    pub const ALL: [LogicFn; 16] = [
        LogicFn::Inv,
        LogicFn::Buf,
        LogicFn::Nand2,
        LogicFn::Nand3,
        LogicFn::Nor2,
        LogicFn::Nor3,
        LogicFn::And2,
        LogicFn::Or2,
        LogicFn::Xor2,
        LogicFn::Xnor2,
        LogicFn::Mux2,
        LogicFn::Aoi21,
        LogicFn::Oai21,
        LogicFn::Dff,
        LogicFn::DffRstN,
        LogicFn::ClkBuf,
    ];

    /// Number of data input pins (excludes the clock pin of sequential
    /// cells).
    pub fn input_count(self) -> usize {
        match self {
            LogicFn::Inv | LogicFn::Buf | LogicFn::ClkBuf | LogicFn::Dff => 1,
            LogicFn::Nand2
            | LogicFn::Nor2
            | LogicFn::And2
            | LogicFn::Or2
            | LogicFn::Xor2
            | LogicFn::Xnor2
            | LogicFn::DffRstN => 2,
            LogicFn::Nand3 | LogicFn::Nor3 | LogicFn::Mux2 | LogicFn::Aoi21 | LogicFn::Oai21 => 3,
        }
    }

    /// `true` for flip-flops (cells with a clock pin and state).
    pub fn is_sequential(self) -> bool {
        matches!(self, LogicFn::Dff | LogicFn::DffRstN)
    }

    /// Evaluates the combinational function on boolean inputs.
    ///
    /// For sequential cells this evaluates the *next-state* function
    /// (`d` for a DFF; `d & rst_n` for a resettable DFF since reset
    /// clears the state).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.input_count()`.
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "{self:?} expects {} inputs, got {}",
            self.input_count(),
            inputs.len()
        );
        match self {
            LogicFn::Inv => !inputs[0],
            LogicFn::Buf | LogicFn::ClkBuf | LogicFn::Dff => inputs[0],
            LogicFn::Nand2 => !(inputs[0] & inputs[1]),
            LogicFn::Nand3 => !(inputs[0] & inputs[1] & inputs[2]),
            LogicFn::Nor2 => !(inputs[0] | inputs[1]),
            LogicFn::Nor3 => !(inputs[0] | inputs[1] | inputs[2]),
            LogicFn::And2 => inputs[0] & inputs[1],
            LogicFn::Or2 => inputs[0] | inputs[1],
            LogicFn::Xor2 => inputs[0] ^ inputs[1],
            LogicFn::Xnor2 => !(inputs[0] ^ inputs[1]),
            LogicFn::Mux2 => {
                if inputs[2] {
                    inputs[1]
                } else {
                    inputs[0]
                }
            }
            LogicFn::Aoi21 => !((inputs[0] & inputs[1]) | inputs[2]),
            LogicFn::Oai21 => !((inputs[0] | inputs[1]) & inputs[2]),
            LogicFn::DffRstN => inputs[0] & inputs[1],
        }
    }
}

impl fmt::Display for LogicFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LogicFn::Inv => "inv",
            LogicFn::Buf => "buf",
            LogicFn::Nand2 => "nand2",
            LogicFn::Nand3 => "nand3",
            LogicFn::Nor2 => "nor2",
            LogicFn::Nor3 => "nor3",
            LogicFn::And2 => "and2",
            LogicFn::Or2 => "or2",
            LogicFn::Xor2 => "xor2",
            LogicFn::Xnor2 => "xnor2",
            LogicFn::Mux2 => "mux2",
            LogicFn::Aoi21 => "aoi21",
            LogicFn::Oai21 => "oai21",
            LogicFn::Dff => "dfxtp",
            LogicFn::DffRstN => "dfrtp",
            LogicFn::ClkBuf => "clkbuf",
        };
        f.write_str(s)
    }
}

/// Drive strength of a cell, mirroring the `_1` … `_16` suffixes of the
/// sky130 library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DriveStrength {
    /// Minimum-size drive.
    X1,
    /// 2× drive.
    X2,
    /// 4× drive.
    X4,
    /// 8× drive.
    X8,
    /// 16× drive.
    X16,
}

impl DriveStrength {
    /// All strengths, weakest first.
    pub const ALL: [DriveStrength; 5] = [
        DriveStrength::X1,
        DriveStrength::X2,
        DriveStrength::X4,
        DriveStrength::X8,
        DriveStrength::X16,
    ];

    /// The width/current multiplier relative to X1.
    pub fn factor(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X2 => 2.0,
            DriveStrength::X4 => 4.0,
            DriveStrength::X8 => 8.0,
            DriveStrength::X16 => 16.0,
        }
    }

    /// The numeric suffix used in cell names.
    pub fn suffix(self) -> u32 {
        self.factor() as u32
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.suffix())
    }
}

/// A non-linear delay model table: delay and output slew as functions of
/// input slew and output load, with bilinear interpolation and linear
/// extrapolation at the table edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Nldm {
    slews_ps: Vec<f64>,
    loads_ff: Vec<f64>,
    delay_ps: Vec<Vec<f64>>,
    out_slew_ps: Vec<Vec<f64>>,
}

/// The result of an NLDM lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingArc {
    /// Propagation delay (50 % in → 50 % out).
    pub delay: Time,
    /// Output transition time (20–80 %).
    pub out_slew: Time,
}

impl Nldm {
    /// Builds a table by sampling `f(slew_ps, load_ff) -> (delay_ps,
    /// out_slew_ps)` on the given grid.
    ///
    /// # Panics
    ///
    /// Panics if either axis has fewer than two points or is not strictly
    /// increasing.
    pub fn characterize<F>(slews_ps: Vec<f64>, loads_ff: Vec<f64>, f: F) -> Self
    where
        F: Fn(f64, f64) -> (f64, f64),
    {
        assert!(slews_ps.len() >= 2 && loads_ff.len() >= 2, "grid too small");
        assert!(
            slews_ps.windows(2).all(|w| w[0] < w[1]),
            "slew axis must be strictly increasing"
        );
        assert!(
            loads_ff.windows(2).all(|w| w[0] < w[1]),
            "load axis must be strictly increasing"
        );
        let mut delay = Vec::with_capacity(slews_ps.len());
        let mut slew = Vec::with_capacity(slews_ps.len());
        for &s in &slews_ps {
            let mut drow = Vec::with_capacity(loads_ff.len());
            let mut srow = Vec::with_capacity(loads_ff.len());
            for &l in &loads_ff {
                let (d, os) = f(s, l);
                drow.push(d);
                srow.push(os);
            }
            delay.push(drow);
            slew.push(srow);
        }
        Self {
            slews_ps,
            loads_ff,
            delay_ps: delay,
            out_slew_ps: slew,
        }
    }

    fn axis_pos(axis: &[f64], x: f64) -> (usize, f64) {
        // Index of the lower grid point and the fractional position;
        // fractions outside [0,1] extrapolate linearly.
        let n = axis.len();
        let mut i = 0;
        while i + 2 < n && x >= axis[i + 1] {
            i += 1;
        }
        let t = (x - axis[i]) / (axis[i + 1] - axis[i]);
        (i, t)
    }

    fn bilinear(table: &[Vec<f64>], si: usize, st: f64, li: usize, lt: f64) -> f64 {
        let a = table[si][li] + (table[si][li + 1] - table[si][li]) * lt;
        let b = table[si + 1][li] + (table[si + 1][li + 1] - table[si + 1][li]) * lt;
        a + (b - a) * st
    }

    /// Looks up delay and output slew for the given input slew and load.
    fn lookup(&self, in_slew: Time, load: Farad) -> TimingArc {
        let (si, st) = Self::axis_pos(&self.slews_ps, in_slew.ps());
        let (li, lt) = Self::axis_pos(&self.loads_ff, load.ff());
        TimingArc {
            delay: Time::from_ps(Self::bilinear(&self.delay_ps, si, st, li, lt)),
            out_slew: Time::from_ps(Self::bilinear(&self.out_slew_ps, si, st, li, lt)),
        }
    }
}

/// Sequential timing constraints of a flip-flop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeqTiming {
    /// Setup time: data must be stable this long before the clock edge.
    pub setup: Time,
    /// Hold time: data must be stable this long after the clock edge.
    pub hold: Time,
    /// Clock-to-output delay.
    pub clk_to_q: Time,
}

/// A characterized standard cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StdCell {
    /// Full library-style name, e.g. `sky130_osd_inv_x4`.
    pub name: String,
    /// Implemented function.
    pub function: LogicFn,
    /// Drive strength.
    pub drive: DriveStrength,
    /// Placed area.
    pub area: AreaUm2,
    /// Capacitance of each data input pin.
    pub input_cap: Farad,
    /// Capacitance of the clock pin (sequential cells only, else zero).
    pub clock_cap: Farad,
    /// Maximum output load the cell may legally drive.
    pub max_load: Farad,
    /// Timing table for the data-input → output arc (clock → Q for
    /// sequential cells). Worst-case (late) arcs: setup analysis.
    pub timing: Nldm,
    /// Best-case (early) arc table for the same pin pair: the genuinely
    /// fast transition through the cell (fastest pull branch, reduced
    /// intrinsic). Hold analysis must use these, never `timing`.
    pub timing_min: Nldm,
    /// Sequential constraints, present only for flip-flops.
    pub seq: Option<SeqTiming>,
    /// Static leakage power in watts.
    pub leakage_w: f64,
    /// Internal (short-circuit + parasitic) energy per output switching
    /// event, in joules. Load energy `C·V²` is accounted separately by
    /// power analysis.
    pub internal_energy_j: f64,
}

impl StdCell {
    /// Delay and output slew driving `load` with the given input slew
    /// (worst-case/late arc, used for setup analysis).
    pub fn arc(&self, in_slew: Time, load: Farad) -> TimingArc {
        self.timing.lookup(in_slew, load)
    }

    /// Best-case (early) delay and output slew for the same transition —
    /// the min-delay arc hold analysis races against.
    pub fn min_arc(&self, in_slew: Time, load: Farad) -> TimingArc {
        self.timing_min.lookup(in_slew, load)
    }

    /// `true` if `load` exceeds the cell's legal maximum.
    pub fn overloaded(&self, load: Farad) -> bool {
        load > self.max_load
    }
}

impl fmt::Display for StdCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:.2} µm²)", self.name, self.area.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_counts() {
        assert_eq!(LogicFn::Inv.input_count(), 1);
        assert_eq!(LogicFn::Nand2.input_count(), 2);
        assert_eq!(LogicFn::Mux2.input_count(), 3);
        assert_eq!(LogicFn::DffRstN.input_count(), 2);
    }

    #[test]
    fn truth_tables() {
        assert!(LogicFn::Inv.eval(&[false]));
        assert!(!LogicFn::Inv.eval(&[true]));
        assert!(LogicFn::Nand2.eval(&[true, false]));
        assert!(!LogicFn::Nand2.eval(&[true, true]));
        assert!(!LogicFn::Nor2.eval(&[true, false]));
        assert!(LogicFn::Nor2.eval(&[false, false]));
        assert!(LogicFn::Xor2.eval(&[true, false]));
        assert!(!LogicFn::Xor2.eval(&[true, true]));
        assert!(LogicFn::Xnor2.eval(&[true, true]));
        // Mux: sel=0 -> a, sel=1 -> b.
        assert!(LogicFn::Mux2.eval(&[true, false, false]));
        assert!(!LogicFn::Mux2.eval(&[true, false, true]));
        // AOI21: !((a&b)|c)
        assert!(!LogicFn::Aoi21.eval(&[true, true, false]));
        assert!(!LogicFn::Aoi21.eval(&[false, false, true]));
        assert!(LogicFn::Aoi21.eval(&[true, false, false]));
        // OAI21: !((a|b)&c)
        assert!(!LogicFn::Oai21.eval(&[true, false, true]));
        assert!(LogicFn::Oai21.eval(&[false, false, true]));
        assert!(LogicFn::Oai21.eval(&[true, true, false]));
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_arity_checked() {
        let _ = LogicFn::Nand2.eval(&[true]);
    }

    #[test]
    fn sequential_classification() {
        assert!(LogicFn::Dff.is_sequential());
        assert!(LogicFn::DffRstN.is_sequential());
        assert!(!LogicFn::Mux2.is_sequential());
    }

    #[test]
    fn drive_factors_double() {
        let f: Vec<f64> = DriveStrength::ALL.iter().map(|d| d.factor()).collect();
        assert_eq!(f, [1.0, 2.0, 4.0, 8.0, 16.0]);
        assert!(DriveStrength::X1 < DriveStrength::X16);
    }

    fn linear_table() -> Nldm {
        // delay = 10 + 2*slew + 3*load; out_slew = 5 + slew + load.
        Nldm::characterize(vec![10.0, 50.0, 100.0], vec![1.0, 10.0, 100.0], |s, l| {
            (10.0 + 2.0 * s + 3.0 * l, 5.0 + s + l)
        })
    }

    #[test]
    fn nldm_exact_on_grid_points() {
        let t = linear_table();
        let arc = t.lookup(Time::from_ps(50.0), Farad::from_ff(10.0));
        assert!((arc.delay.ps() - 140.0).abs() < 1e-9);
        assert!((arc.out_slew.ps() - 65.0).abs() < 1e-9);
    }

    #[test]
    fn nldm_interpolates_linearly() {
        let t = linear_table();
        let arc = t.lookup(Time::from_ps(30.0), Farad::from_ff(5.5));
        assert!((arc.delay.ps() - (10.0 + 60.0 + 16.5)).abs() < 1e-9);
    }

    #[test]
    fn nldm_extrapolates_beyond_edges() {
        let t = linear_table();
        // Beyond the largest load the linear model must keep holding.
        let arc = t.lookup(Time::from_ps(50.0), Farad::from_ff(200.0));
        assert!((arc.delay.ps() - (10.0 + 100.0 + 600.0)).abs() < 1e-9);
        // Below the smallest slew too.
        let arc = t.lookup(Time::from_ps(0.0), Farad::from_ff(1.0));
        assert!((arc.delay.ps() - 13.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "grid too small")]
    fn nldm_needs_two_points() {
        let _ = Nldm::characterize(vec![1.0], vec![1.0, 2.0], |_, _| (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn nldm_axes_must_increase() {
        let _ = Nldm::characterize(vec![2.0, 1.0], vec![1.0, 2.0], |_, _| (0.0, 0.0));
    }
}
