//! Library construction: characterizing the standard cells at a PVT point.
//!
//! This is the "process portability" mechanism the paper leans on: the RTL
//! never changes; only this characterization step (and the device model it
//! consumes) re-runs when the design is retargeted. [`Library::sky130`]
//! builds the full cell set — every [`LogicFn`] at every
//! [`DriveStrength`] — with delay/slew NLDM tables derived from the
//! alpha-power MOS model, plus area, pin caps, leakage and switching
//! energy.
//!
//! ```
//! use openserdes_pdk::library::Library;
//! use openserdes_pdk::corner::Pvt;
//! use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
//! use openserdes_pdk::units::{Farad, Time};
//!
//! let lib = Library::sky130(Pvt::nominal());
//! let inv = lib.cell(LogicFn::Inv, DriveStrength::X4).unwrap();
//! let arc = inv.arc(Time::from_ps(50.0), Farad::from_ff(20.0));
//! assert!(arc.delay.ps() > 0.0);
//! ```

use crate::corner::Pvt;
use crate::error::PdkError;
use crate::mos::{MosDevice, MosParams};
use crate::stdcell::{DriveStrength, LogicFn, Nldm, SeqTiming, StdCell};
use crate::units::{AreaUm2, Farad, Time, Volt};
use std::collections::HashMap;

/// Per-function physical recipe at X1 drive.
struct CellRecipe {
    /// Pull-down width in µm (total per branch).
    wn: f64,
    /// Pull-up width in µm (total per branch).
    wp: f64,
    /// Number of series NMOS devices in the worst pull-down path.
    stack_n: u32,
    /// Number of series PMOS devices in the worst pull-up path.
    stack_p: u32,
    /// Gate width (µm) hanging off each data input pin (NMOS + PMOS).
    input_w: f64,
    /// Placed area at X1 in µm².
    area: f64,
    /// Extra intrinsic delay in ps (internal stages, e.g. the first
    /// inverter of a buffer or the latch stages of a flop).
    intrinsic_ps: f64,
    /// Total device width for leakage estimation.
    total_w: f64,
}

fn recipe(function: LogicFn) -> CellRecipe {
    // Widths follow the sky130_fd_sc_hd sizing style: Wn = 0.65 µm,
    // Wp = 1.0 µm for a unit inverter; series stacks are up-sized to keep
    // the worst-case pull path resistance comparable to the inverter.
    match function {
        LogicFn::Inv => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 1,
            stack_p: 1,
            input_w: 1.65,
            area: 3.75,
            intrinsic_ps: 0.0,
            total_w: 1.65,
        },
        LogicFn::Buf | LogicFn::ClkBuf => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 1,
            stack_p: 1,
            input_w: 0.85,
            area: 5.0,
            intrinsic_ps: 18.0,
            total_w: 2.5,
        },
        LogicFn::Nand2 => CellRecipe {
            wn: 1.3,
            wp: 1.0,
            stack_n: 2,
            stack_p: 1,
            input_w: 2.3,
            area: 5.0,
            intrinsic_ps: 2.0,
            total_w: 4.6,
        },
        LogicFn::Nand3 => CellRecipe {
            wn: 1.95,
            wp: 1.0,
            stack_n: 3,
            stack_p: 1,
            input_w: 2.95,
            area: 6.25,
            intrinsic_ps: 4.0,
            total_w: 8.85,
        },
        LogicFn::Nor2 => CellRecipe {
            wn: 0.65,
            wp: 2.0,
            stack_n: 1,
            stack_p: 2,
            input_w: 2.65,
            area: 5.0,
            intrinsic_ps: 2.0,
            total_w: 5.3,
        },
        LogicFn::Nor3 => CellRecipe {
            wn: 0.65,
            wp: 3.0,
            stack_n: 1,
            stack_p: 3,
            input_w: 3.65,
            area: 6.25,
            intrinsic_ps: 4.0,
            total_w: 10.95,
        },
        LogicFn::And2 => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 1,
            stack_p: 1,
            input_w: 2.3,
            area: 6.25,
            intrinsic_ps: 22.0,
            total_w: 6.25,
        },
        LogicFn::Or2 => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 1,
            stack_p: 1,
            input_w: 2.65,
            area: 6.25,
            intrinsic_ps: 24.0,
            total_w: 6.95,
        },
        LogicFn::Xor2 | LogicFn::Xnor2 => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 2,
            stack_p: 2,
            input_w: 3.3,
            area: 8.75,
            intrinsic_ps: 28.0,
            total_w: 9.9,
        },
        LogicFn::Mux2 => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 2,
            stack_p: 2,
            input_w: 2.3,
            area: 8.75,
            intrinsic_ps: 30.0,
            total_w: 9.2,
        },
        LogicFn::Aoi21 | LogicFn::Oai21 => CellRecipe {
            wn: 1.3,
            wp: 2.0,
            stack_n: 2,
            stack_p: 2,
            input_w: 2.3,
            area: 6.25,
            intrinsic_ps: 4.0,
            total_w: 6.9,
        },
        LogicFn::Dff => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 1,
            stack_p: 1,
            input_w: 1.2,
            area: 19.6,
            intrinsic_ps: 150.0,
            total_w: 16.0,
        },
        LogicFn::DffRstN => CellRecipe {
            wn: 0.65,
            wp: 1.0,
            stack_n: 1,
            stack_p: 1,
            input_w: 1.2,
            area: 25.0,
            intrinsic_ps: 165.0,
            total_w: 20.0,
        },
    }
}

/// A characterized standard-cell library bound to one PVT point.
#[derive(Debug, Clone)]
pub struct Library {
    pvt: Pvt,
    cells: Vec<StdCell>,
    index: HashMap<(LogicFn, DriveStrength), usize>,
}

impl Library {
    /// Characterizes the full sky130-class library at the given PVT point.
    pub fn sky130(pvt: Pvt) -> Self {
        let nmos_params = MosParams::sky130_nmos(&pvt);
        let pmos_params = MosParams::sky130_pmos(&pvt);
        let vdd = pvt.vdd.value();

        let mut cells = Vec::new();
        let mut index = HashMap::new();

        for &function in &LogicFn::ALL {
            let r = recipe(function);
            for &drive in &DriveStrength::ALL {
                let k = drive.factor();
                let nmos = MosDevice::new(nmos_params, r.wn * k, 0.15);
                let pmos = MosDevice::new(pmos_params, r.wp * k, 0.15);
                // Worst-path switching resistance: a series stack of N
                // devices has N× the single-device resistance.
                let rn = nmos.switching_resistance(vdd) * r.stack_n as f64;
                let rp = pmos.switching_resistance(vdd) * r.stack_p as f64;
                let r_eff = 0.5 * (rn + rp);
                // Output parasitics: drain junctions of the output stage.
                let c_par_ff = (r.wn + r.wp) * k * nmos_params.cj_ff_per_um;
                let intrinsic = r.intrinsic_ps;

                let timing = Nldm::characterize(
                    vec![5.0, 20.0, 60.0, 150.0, 400.0],
                    vec![1.0, 5.0, 20.0, 80.0, 320.0],
                    |slew_ps, load_ff| {
                        let c_total = (load_ff + c_par_ff) * 1.0e-15;
                        let d = intrinsic + 0.69 * r_eff * c_total * 1.0e12 + slew_ps / 6.0;
                        let s = 1.4 * r_eff * c_total * 1.0e12 + slew_ps / 10.0 + 2.0;
                        (d, s)
                    },
                );
                // Early (min-delay) arcs: the fastest transition through
                // the cell — the stronger pull branch alone, a reduced
                // intrinsic (the fast internal path, ~80 % of nominal)
                // and a shallower slew dependence. Every table entry is
                // strictly below the late table, so hold races use a
                // genuinely fast arc rather than the nominal one.
                let r_fast = rn.min(rp);
                let timing_min = Nldm::characterize(
                    vec![5.0, 20.0, 60.0, 150.0, 400.0],
                    vec![1.0, 5.0, 20.0, 80.0, 320.0],
                    |slew_ps, load_ff| {
                        let c_total = (load_ff + c_par_ff) * 1.0e-15;
                        let d = 0.8 * intrinsic + 0.55 * r_fast * c_total * 1.0e12 + slew_ps / 8.0;
                        let s = 1.1 * r_fast * c_total * 1.0e12 + slew_ps / 12.0 + 1.5;
                        (d, s)
                    },
                );

                let input_cap_ff = r.input_w
                    * k.clamp(1.0, 4.0)
                    * (0.15 * nmos_params.cox_ff_per_um2 + 2.0 * nmos_params.cov_ff_per_um);
                let seq = function.is_sequential().then(|| SeqTiming {
                    setup: Time::from_ps(90.0 / pvt.speed_index().max(0.1) * 0.6),
                    hold: Time::from_ps(20.0),
                    clk_to_q: Time::from_ps(intrinsic),
                });
                // Subthreshold leakage ≈ 30 pA per µm of device width.
                let leakage_w = r.total_w * k * 30.0e-12 * vdd;
                let internal_energy_j = 0.6 * c_par_ff * 1.0e-15 * vdd * vdd;

                let name = format!("osd130_{}_{}", function, drive.suffix());
                let idx = cells.len();
                index.insert((function, drive), idx);
                cells.push(StdCell {
                    name,
                    function,
                    drive,
                    area: AreaUm2::new(r.area * (1.0 + 0.55 * (k - 1.0))),
                    input_cap: Farad::from_ff(input_cap_ff),
                    clock_cap: if function.is_sequential() {
                        Farad::from_ff(1.5)
                    } else {
                        Farad::new(0.0)
                    },
                    max_load: Farad::from_ff(30.0 * k),
                    timing,
                    timing_min,
                    seq,
                    leakage_w,
                    internal_energy_j,
                });
            }
        }

        Self { pvt, cells, index }
    }

    /// The PVT point this library was characterized at.
    pub fn pvt(&self) -> Pvt {
        self.pvt
    }

    /// The supply voltage of the characterization point.
    pub fn vdd(&self) -> Volt {
        self.pvt.vdd
    }

    /// Looks up a cell by function and drive strength.
    ///
    /// # Errors
    ///
    /// Returns [`PdkError::UnknownCell`] if no such cell exists in the
    /// library (cannot happen for the built-in generator, but guards
    /// future partial libraries).
    pub fn cell(&self, function: LogicFn, drive: DriveStrength) -> Result<&StdCell, PdkError> {
        self.index
            .get(&(function, drive))
            .map(|&i| &self.cells[i])
            .ok_or_else(|| PdkError::UnknownCell(format!("{function}_{}", drive.suffix())))
    }

    /// The weakest drive strength whose legal load limit covers `load`;
    /// falls back to the strongest cell when the load exceeds every limit.
    pub fn pick_drive(&self, function: LogicFn, load: Farad) -> &StdCell {
        for &drive in &DriveStrength::ALL {
            if let Ok(cell) = self.cell(function, drive) {
                if !cell.overloaded(load) {
                    return cell;
                }
            }
        }
        self.cell(function, DriveStrength::X16)
            .expect("built-in library covers every function")
    }

    /// Iterates over all cells in the library.
    pub fn iter(&self) -> impl Iterator<Item = &StdCell> {
        self.cells.iter()
    }

    /// Number of cells in the library.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` if the library contains no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::ProcessCorner;

    fn lib() -> Library {
        Library::sky130(Pvt::nominal())
    }

    #[test]
    fn full_matrix_generated() {
        let l = lib();
        assert_eq!(l.len(), LogicFn::ALL.len() * DriveStrength::ALL.len());
        for &f in &LogicFn::ALL {
            for &d in &DriveStrength::ALL {
                assert!(l.cell(f, d).is_ok(), "missing {f} {d}");
            }
        }
    }

    #[test]
    fn stronger_drive_is_faster_under_load() {
        let l = lib();
        let load = Farad::from_ff(100.0);
        let slew = Time::from_ps(40.0);
        let d1 = l
            .cell(LogicFn::Inv, DriveStrength::X1)
            .unwrap()
            .arc(slew, load);
        let d8 = l
            .cell(LogicFn::Inv, DriveStrength::X8)
            .unwrap()
            .arc(slew, load);
        assert!(d8.delay < d1.delay);
        assert!(d8.out_slew < d1.out_slew);
    }

    #[test]
    fn delay_monotonic_in_load() {
        let l = lib();
        let inv = l.cell(LogicFn::Inv, DriveStrength::X2).unwrap();
        let slew = Time::from_ps(30.0);
        let mut prev = Time::new(0.0);
        for ff in [1.0, 4.0, 16.0, 64.0, 256.0] {
            let arc = inv.arc(slew, Farad::from_ff(ff));
            assert!(arc.delay > prev);
            prev = arc.delay;
        }
    }

    #[test]
    fn fo4_delay_in_expected_range() {
        // Fanout-of-4 inverter delay should land in the tens of
        // picoseconds for a fast 130 nm library (needed for 2 GHz logic).
        let l = lib();
        let inv = l.cell(LogicFn::Inv, DriveStrength::X1).unwrap();
        let fo4 = inv.input_cap * 4.0;
        let arc = inv.arc(Time::from_ps(20.0), fo4);
        let ps = arc.delay.ps();
        assert!((10.0..120.0).contains(&ps), "FO4 = {ps} ps");
    }

    #[test]
    fn slow_corner_library_is_slower() {
        let tt = lib();
        let ss = Library::sky130(Pvt::new(ProcessCorner::SlowSlow, 1.62, 125.0));
        let load = Farad::from_ff(20.0);
        let slew = Time::from_ps(40.0);
        let d_tt = tt
            .cell(LogicFn::Nand2, DriveStrength::X2)
            .unwrap()
            .arc(slew, load);
        let d_ss = ss
            .cell(LogicFn::Nand2, DriveStrength::X2)
            .unwrap()
            .arc(slew, load);
        assert!(d_ss.delay > d_tt.delay);
    }

    #[test]
    fn flops_have_seq_timing_and_clock_cap() {
        let l = lib();
        let dff = l.cell(LogicFn::Dff, DriveStrength::X1).unwrap();
        let seq = dff.seq.expect("dff has sequential timing");
        assert!(seq.setup.ps() > 0.0);
        assert!(seq.clk_to_q.ps() > 0.0);
        assert!(dff.clock_cap.ff() > 0.0);
        let inv = l.cell(LogicFn::Inv, DriveStrength::X1).unwrap();
        assert!(inv.seq.is_none());
        assert_eq!(inv.clock_cap.ff(), 0.0);
    }

    #[test]
    fn pick_drive_scales_with_load() {
        let l = lib();
        let small = l.pick_drive(LogicFn::Inv, Farad::from_ff(5.0));
        let big = l.pick_drive(LogicFn::Inv, Farad::from_ff(200.0));
        assert!(small.drive < big.drive);
        // Huge loads saturate at the strongest cell.
        let max = l.pick_drive(LogicFn::Inv, Farad::from_pf(10.0));
        assert_eq!(max.drive, DriveStrength::X16);
    }

    #[test]
    fn min_arc_strictly_faster_than_late_arc() {
        // The early/late split is only sound if the min table is below
        // the late table everywhere the STA will look it up.
        let l = lib();
        for c in l.iter() {
            for slew_ps in [5.0, 40.0, 150.0, 400.0, 800.0] {
                for load_ff in [1.0, 20.0, 320.0, 600.0] {
                    let slew = Time::from_ps(slew_ps);
                    let load = Farad::from_ff(load_ff);
                    let late = c.arc(slew, load);
                    let early = c.min_arc(slew, load);
                    assert!(
                        early.delay < late.delay,
                        "{}: early {} >= late {} at {slew_ps} ps / {load_ff} fF",
                        c.name,
                        early.delay.ps(),
                        late.delay.ps()
                    );
                    assert!(early.out_slew <= late.out_slew, "{}", c.name);
                    assert!(early.delay.ps() > 0.0, "{}", c.name);
                }
            }
        }
    }

    #[test]
    fn area_grows_with_drive() {
        let l = lib();
        let a1 = l.cell(LogicFn::Inv, DriveStrength::X1).unwrap().area;
        let a16 = l.cell(LogicFn::Inv, DriveStrength::X16).unwrap().area;
        assert!(a16.value() > a1.value() * 4.0);
    }

    #[test]
    fn dff_dominates_inverter_area() {
        // The paper's deserializer area dominance comes from flop-heavy
        // blocks: a flop must cost several inverters.
        let l = lib();
        let dff = l.cell(LogicFn::Dff, DriveStrength::X1).unwrap().area;
        let inv = l.cell(LogicFn::Inv, DriveStrength::X1).unwrap().area;
        assert!(dff.value() > 4.0 * inv.value());
    }

    #[test]
    fn leakage_positive_and_small() {
        let l = lib();
        for c in l.iter() {
            assert!(c.leakage_w > 0.0);
            assert!(c.leakage_w < 1e-6, "{} leaks {} W", c.name, c.leakage_w);
        }
    }
}
