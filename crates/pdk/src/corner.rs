//! Process / voltage / temperature (PVT) corners.
//!
//! The Skywater 130 nm PDK characterizes libraries at the usual five process
//! corners with supply and temperature variations. Our reproduction keeps
//! the same vocabulary: a [`ProcessCorner`] selects per-device speed
//! multipliers and threshold shifts, and a [`Pvt`] bundles it with supply
//! voltage and junction temperature.
//!
//! ```
//! use openserdes_pdk::corner::{Pvt, ProcessCorner};
//! let slow = Pvt::new(ProcessCorner::SlowSlow, 1.62, 125.0);
//! let fast = Pvt::new(ProcessCorner::FastFast, 1.98, -40.0);
//! assert!(slow.speed_index() < fast.speed_index());
//! ```

use crate::units::Volt;
use std::fmt;

/// Nominal supply for the sky130 1.8 V standard-cell domain.
const NOMINAL_VDD: Volt = Volt::new(1.8);

/// Nominal characterization temperature in Celsius.
const NOMINAL_TEMP_C: f64 = 25.0;

/// The five classic process corners.
///
/// The first letter refers to the NMOS device, the second to the PMOS
/// device: e.g. `SlowFast` means slow NMOS, fast PMOS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessCorner {
    /// Typical NMOS / typical PMOS — the nominal process.
    #[default]
    Typical,
    /// Slow NMOS / slow PMOS — worst-case speed.
    SlowSlow,
    /// Fast NMOS / fast PMOS — best-case speed, worst leakage.
    FastFast,
    /// Slow NMOS / fast PMOS — worst-case for pull-down-critical paths.
    SlowFast,
    /// Fast NMOS / slow PMOS — worst-case for pull-up-critical paths.
    FastSlow,
}

impl ProcessCorner {
    /// All corners in a canonical order, useful for corner sweeps.
    pub const ALL: [ProcessCorner; 5] = [
        ProcessCorner::Typical,
        ProcessCorner::SlowSlow,
        ProcessCorner::FastFast,
        ProcessCorner::SlowFast,
        ProcessCorner::FastSlow,
    ];

    /// Short canonical name (`tt`, `ss`, `ff`, `sf`, `fs`) matching PDK
    /// library naming.
    fn short_name(self) -> &'static str {
        match self {
            ProcessCorner::Typical => "tt",
            ProcessCorner::SlowSlow => "ss",
            ProcessCorner::FastFast => "ff",
            ProcessCorner::SlowFast => "sf",
            ProcessCorner::FastSlow => "fs",
        }
    }

    /// Mobility multiplier for the NMOS device (1.0 at typical).
    pub fn nmos_mobility_factor(self) -> f64 {
        match self {
            ProcessCorner::Typical => 1.0,
            ProcessCorner::SlowSlow | ProcessCorner::SlowFast => 0.85,
            ProcessCorner::FastFast | ProcessCorner::FastSlow => 1.15,
        }
    }

    /// Mobility multiplier for the PMOS device (1.0 at typical).
    pub fn pmos_mobility_factor(self) -> f64 {
        match self {
            ProcessCorner::Typical => 1.0,
            ProcessCorner::SlowSlow | ProcessCorner::FastSlow => 0.85,
            ProcessCorner::FastFast | ProcessCorner::SlowFast => 1.15,
        }
    }

    /// Threshold-voltage shift (in volts) for the NMOS device.
    pub fn nmos_vth_shift(self) -> f64 {
        match self {
            ProcessCorner::Typical => 0.0,
            ProcessCorner::SlowSlow | ProcessCorner::SlowFast => 0.06,
            ProcessCorner::FastFast | ProcessCorner::FastSlow => -0.06,
        }
    }

    /// Threshold-voltage magnitude shift (in volts) for the PMOS device.
    pub fn pmos_vth_shift(self) -> f64 {
        match self {
            ProcessCorner::Typical => 0.0,
            ProcessCorner::SlowSlow | ProcessCorner::FastSlow => 0.06,
            ProcessCorner::FastFast | ProcessCorner::SlowFast => -0.06,
        }
    }
}

impl fmt::Display for ProcessCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.short_name())
    }
}

/// A complete process/voltage/temperature operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pvt {
    /// Process corner.
    pub corner: ProcessCorner,
    /// Supply voltage.
    pub vdd: Volt,
    /// Junction temperature in degrees Celsius.
    pub temp_c: f64,
}

impl Pvt {
    /// Creates a PVT point from a corner, a supply in volts and a
    /// temperature in Celsius.
    pub fn new(corner: ProcessCorner, vdd_v: f64, temp_c: f64) -> Self {
        Self {
            corner,
            vdd: Volt::new(vdd_v),
            temp_c,
        }
    }

    /// The nominal operating point: `tt`, 1.8 V, 25 °C.
    pub fn nominal() -> Self {
        Self {
            corner: ProcessCorner::Typical,
            vdd: NOMINAL_VDD,
            temp_c: NOMINAL_TEMP_C,
        }
    }

    /// The classic worst-case setup corner: `ss`, VDD − 10 %, 125 °C.
    pub fn worst_case() -> Self {
        Self::new(ProcessCorner::SlowSlow, NOMINAL_VDD.value() * 0.9, 125.0)
    }

    /// The classic best-case hold corner: `ff`, VDD + 10 %, −40 °C.
    pub fn best_case() -> Self {
        Self::new(ProcessCorner::FastFast, NOMINAL_VDD.value() * 1.1, -40.0)
    }

    /// Temperature-dependent mobility degradation factor relative to 25 °C.
    ///
    /// Uses the standard `(T/T0)^-1.5` power law with absolute temperatures.
    pub fn mobility_temp_factor(&self) -> f64 {
        let t = self.temp_c + 273.15;
        let t0 = NOMINAL_TEMP_C + 273.15;
        (t / t0).powf(-1.5)
    }

    /// Temperature-induced threshold shift in volts relative to 25 °C
    /// (−1 mV/K, i.e. thresholds drop as temperature rises).
    pub fn vth_temp_shift(&self) -> f64 {
        -(self.temp_c - NOMINAL_TEMP_C) * 1.0e-3
    }

    /// A scalar "how fast is this corner" figure of merit.
    ///
    /// Computed as the product of average mobility factor, supply headroom
    /// and the temperature factor; larger means faster logic. Only relative
    /// comparisons are meaningful.
    pub fn speed_index(&self) -> f64 {
        let mob = 0.5
            * (self.corner.nmos_mobility_factor() + self.corner.pmos_mobility_factor())
            * self.mobility_temp_factor();
        // Alpha-power-style drive dependence on overdrive, alpha ≈ 1.3.
        let overdrive = (self.vdd.value() - 0.45 - self.corner.nmos_vth_shift()).max(0.05);
        mob * overdrive.powf(1.3) / self.vdd.value()
    }
}

impl Default for Pvt {
    fn default() -> Self {
        Self::nominal()
    }
}

impl fmt::Display for Pvt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{:.2}V/{:.0}C",
            self.corner,
            self.vdd.value(),
            self.temp_c
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corner_names_match_pdk_convention() {
        let names: Vec<_> = ProcessCorner::ALL.iter().map(|c| c.short_name()).collect();
        assert_eq!(names, ["tt", "ss", "ff", "sf", "fs"]);
    }

    #[test]
    fn slow_corner_is_slower_than_fast() {
        assert!(Pvt::worst_case().speed_index() < Pvt::nominal().speed_index());
        assert!(Pvt::nominal().speed_index() < Pvt::best_case().speed_index());
    }

    #[test]
    fn skewed_corners_skew_the_right_device() {
        let sf = ProcessCorner::SlowFast;
        assert!(sf.nmos_mobility_factor() < 1.0);
        assert!(sf.pmos_mobility_factor() > 1.0);
        let fs = ProcessCorner::FastSlow;
        assert!(fs.nmos_mobility_factor() > 1.0);
        assert!(fs.pmos_mobility_factor() < 1.0);
    }

    #[test]
    fn hot_silicon_is_slower() {
        let hot = Pvt::new(ProcessCorner::Typical, 1.8, 125.0);
        let cold = Pvt::new(ProcessCorner::Typical, 1.8, -40.0);
        assert!(hot.mobility_temp_factor() < 1.0);
        assert!(cold.mobility_temp_factor() > 1.0);
        assert!(hot.speed_index() < cold.speed_index());
    }

    #[test]
    fn vth_drops_when_hot() {
        let hot = Pvt::new(ProcessCorner::Typical, 1.8, 125.0);
        assert!(hot.vth_temp_shift() < 0.0);
    }

    #[test]
    fn higher_supply_is_faster() {
        let lo = Pvt::new(ProcessCorner::Typical, 1.62, 25.0);
        let hi = Pvt::new(ProcessCorner::Typical, 1.98, 25.0);
        assert!(lo.speed_index() < hi.speed_index());
    }

    #[test]
    fn nominal_is_default() {
        assert_eq!(Pvt::default(), Pvt::nominal());
        assert_eq!(Pvt::nominal().vdd, NOMINAL_VDD);
    }

    #[test]
    fn display_round_trip_contains_corner() {
        let s = format!("{}", Pvt::worst_case());
        assert!(s.starts_with("ss@"));
    }
}
