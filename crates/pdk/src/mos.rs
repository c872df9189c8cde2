//! Compact MOSFET model for a sky130-class 130 nm node.
//!
//! The paper's receiver hinges on analog behaviour of digital devices (a
//! resistive-feedback inverter biased at its switching threshold), so the
//! reproduction needs a device model that is
//!
//! * accurate enough to show the right VTC, self-bias point, gain and
//!   drive-current shape, and
//! * smooth enough (continuous value and first derivatives) for the
//!   Newton–Raphson transient solver in `openserdes-analog`.
//!
//! We use the Sakurai–Newton **alpha-power law** with a softplus-smoothed
//! overdrive so that the subthreshold-to-saturation transition is C¹. The
//! parameters are calibrated to published sky130 headline figures:
//! VDD = 1.8 V, |Vth| ≈ 0.45–0.5 V, NMOS drive ≈ 0.6 mA/µm and PMOS drive
//! ≈ 0.3 mA/µm at full gate drive, gate capacitance ≈ 2 fF/µm.
//!
//! ```
//! use openserdes_pdk::mos::{MosDevice, MosParams};
//! use openserdes_pdk::corner::Pvt;
//!
//! let nmos = MosDevice::new(MosParams::sky130_nmos(&Pvt::nominal()), 1.0, 0.15);
//! let on = nmos.ids(1.8, 1.8);
//! let off = nmos.ids(0.0, 1.8);
//! assert!(on > 1e-4 && off < 1e-8);
//! ```

use crate::corner::Pvt;
use crate::units::Farad;

/// Channel polarity of a MOS device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosType {
    /// N-channel device (pull-down network).
    Nmos,
    /// P-channel device (pull-up network).
    Pmos,
}

/// Alpha-power-law model parameters.
///
/// All voltages are magnitudes: a PMOS device is described by the same
/// positive parameters and evaluated with source-referred magnitudes
/// (`vsg`, `vsd`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosParams {
    /// Polarity (used by circuit builders to orient the device).
    pub mos_type: MosType,
    /// Threshold voltage magnitude in volts.
    pub vth: f64,
    /// Velocity-saturation index (2.0 = long channel, →1 fully
    /// velocity-saturated; ≈1.3 for a 130 nm node).
    pub alpha: f64,
    /// Transconductance coefficient in A/V^alpha for a W/L = 1 device.
    pub beta: f64,
    /// Saturation-voltage coefficient: `Vdsat = pv · Vov^(alpha/2)`.
    pub pv: f64,
    /// Channel-length modulation in 1/V.
    pub lambda: f64,
    /// Softplus smoothing width for the overdrive, in volts.
    pub smoothing: f64,
    /// Effective channel length in µm (drawn L minus diffusion).
    pub leff_um: f64,
    /// Gate-oxide capacitance in fF/µm².
    pub cox_ff_per_um2: f64,
    /// Gate-source/drain overlap capacitance in fF/µm of width, per side.
    pub cov_ff_per_um: f64,
    /// Drain/source junction capacitance in fF/µm of width.
    pub cj_ff_per_um: f64,
}

impl MosParams {
    /// sky130-calibrated NMOS parameters at the given PVT point.
    pub fn sky130_nmos(pvt: &Pvt) -> Self {
        let mob = pvt.corner.nmos_mobility_factor() * pvt.mobility_temp_factor();
        Self {
            mos_type: MosType::Nmos,
            vth: (0.45 + pvt.corner.nmos_vth_shift() + pvt.vth_temp_shift()).max(0.05),
            alpha: 1.3,
            beta: 6.1e-5 * mob,
            pv: 0.58,
            lambda: 0.05,
            smoothing: 0.06,
            leff_um: 0.15,
            cox_ff_per_um2: 8.6,
            cov_ff_per_um: 0.35,
            cj_ff_per_um: 0.8,
        }
    }

    /// Returns a copy with the threshold shifted by `dv` volts —
    /// the hook Monte-Carlo mismatch analysis uses to model local
    /// Vth variation between matched devices.
    pub fn with_vth_offset(mut self, dv: f64) -> Self {
        self.vth = (self.vth + dv).max(0.05);
        self
    }

    /// sky130-calibrated PMOS parameters at the given PVT point.
    ///
    /// Voltage arguments to the evaluation methods must be source-referred
    /// magnitudes (`vsg`, `vsd`).
    pub fn sky130_pmos(pvt: &Pvt) -> Self {
        let mob = pvt.corner.pmos_mobility_factor() * pvt.mobility_temp_factor();
        Self {
            mos_type: MosType::Pmos,
            vth: (0.50 + pvt.corner.pmos_vth_shift() + pvt.vth_temp_shift()).max(0.05),
            alpha: 1.35,
            beta: 3.2e-5 * mob,
            pv: 0.60,
            lambda: 0.06,
            smoothing: 0.06,
            leff_um: 0.15,
            cox_ff_per_um2: 8.6,
            cov_ff_per_um: 0.35,
            cj_ff_per_um: 0.8,
        }
    }
}

/// Evaluated drain current and its small-signal derivatives.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MosEval {
    /// Drain current magnitude in amperes.
    pub id: f64,
    /// Transconductance ∂Id/∂Vgs in siemens.
    pub gm: f64,
    /// Output conductance ∂Id/∂Vds in siemens.
    pub gds: f64,
}

/// A sized MOS transistor instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MosDevice {
    /// Model parameters.
    pub params: MosParams,
    /// Drawn channel width in µm.
    pub w_um: f64,
    /// Drawn channel length in µm.
    pub l_um: f64,
}

impl MosDevice {
    /// Creates a device with the given width and length in µm.
    ///
    /// # Panics
    ///
    /// Panics if `w_um` or `l_um` is not strictly positive and finite.
    pub fn new(params: MosParams, w_um: f64, l_um: f64) -> Self {
        assert!(w_um > 0.0 && w_um.is_finite(), "width must be positive");
        assert!(l_um > 0.0 && l_um.is_finite(), "length must be positive");
        Self { params, w_um, l_um }
    }

    /// Smoothed overdrive voltage and its derivative w.r.t. `vgs`.
    fn overdrive(&self, vgs: f64) -> (f64, f64) {
        let st = self.params.smoothing;
        let x = (vgs - self.params.vth) / st;
        // Numerically stable softplus and logistic.
        let (sp, sig) = if x > 30.0 {
            (x, 1.0)
        } else if x < -30.0 {
            (x.exp(), x.exp())
        } else {
            ((1.0 + x.exp()).ln(), 1.0 / (1.0 + (-x).exp()))
        };
        (st * sp, sig)
    }

    /// Effective W/L shape factor referenced to the effective length.
    fn shape(&self) -> f64 {
        let leff = (self.l_um - (0.15 - self.params.leff_um)).max(self.params.leff_um * 0.5);
        self.w_um / leff
    }

    /// Evaluates drain current and derivatives at the given source-referred
    /// bias. For NMOS pass (`vgs`, `vds`); for PMOS pass (`vsg`, `vsd`).
    ///
    /// Negative `vds` is evaluated by symmetry (source/drain swap) so the
    /// transient solver can hand in either polarity; `gm` is then the
    /// derivative with respect to the *same* `vgs` argument.
    pub fn eval(&self, vgs: f64, vds: f64) -> MosEval {
        if vds < 0.0 {
            // Swap source and drain: Id(vgs, vds) = -Id(vgd, -vds).
            let sw = self.eval(vgs - vds, -vds);
            return MosEval {
                id: -sw.id,
                // d(-Id(vgs-vds,-vds))/dvgs = -gm'
                gm: -sw.gm,
                // d/dvds = -(gm'·(-1)·(-1)... ) expand: f(vgs,vds) = -g(vgs-vds, -vds)
                // df/dvds = -( g_1·(-1) + g_2·(-1) ) = g_1 + g_2
                gds: sw.gm + sw.gds,
            };
        }
        let (vov, dvov) = self.overdrive(vgs);
        let shape = self.shape();
        let beta = self.params.beta * shape;
        let alpha = self.params.alpha;
        let isat0 = beta * vov.powf(alpha);
        let disat0_dvov = beta * alpha * vov.powf(alpha - 1.0);
        let vdsat = self.params.pv * vov.powf(alpha / 2.0);
        let dvdsat_dvov = self.params.pv * (alpha / 2.0) * vov.powf(alpha / 2.0 - 1.0);
        let clm = 1.0 + self.params.lambda * vds;

        if vds >= vdsat || vdsat <= 0.0 {
            MosEval {
                id: isat0 * clm,
                gm: disat0_dvov * dvov * clm,
                gds: isat0 * self.params.lambda,
            }
        } else {
            let x = vds / vdsat;
            let f = (2.0 - x) * x;
            let df_dvds = (2.0 - 2.0 * x) / vdsat;
            let df_dvov = (2.0 - 2.0 * x) * (-vds / (vdsat * vdsat)) * dvdsat_dvov;
            MosEval {
                id: isat0 * f * clm,
                gm: (disat0_dvov * f + isat0 * df_dvov) * dvov * clm,
                gds: isat0 * clm * df_dvds + isat0 * f * self.params.lambda,
            }
        }
    }

    /// Drain current magnitude in amperes at the given bias.
    pub fn ids(&self, vgs: f64, vds: f64) -> f64 {
        self.eval(vgs, vds).id
    }

    /// Total gate capacitance (channel plus both overlaps).
    pub fn gate_cap(&self) -> Farad {
        let ff =
            self.w_um * (self.l_um * self.params.cox_ff_per_um2 + 2.0 * self.params.cov_ff_per_um);
        Farad::from_ff(ff)
    }

    /// Drain junction capacitance.
    pub fn drain_cap(&self) -> Farad {
        Farad::from_ff(self.w_um * self.params.cj_ff_per_um)
    }

    /// Effective switching resistance for RC delay estimation:
    /// `R ≈ VDD / (2·Idsat(VDD))`.
    pub fn switching_resistance(&self, vdd: f64) -> f64 {
        let idsat = self.ids(vdd, vdd);
        vdd / (2.0 * idsat.max(1e-15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::{ProcessCorner, Pvt};

    fn nmos_1um() -> MosDevice {
        MosDevice::new(MosParams::sky130_nmos(&Pvt::nominal()), 1.0, 0.15)
    }

    fn pmos_1um() -> MosDevice {
        MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 1.0, 0.15)
    }

    #[test]
    fn calibrated_drive_currents() {
        // Headline sky130 numbers: NMOS ≈ 0.6 mA/µm, PMOS ≈ 0.3 mA/µm
        // (±25 % tolerance; we reproduce shapes, not SPICE decks).
        let idn = nmos_1um().ids(1.8, 1.8);
        let idp = pmos_1um().ids(1.8, 1.8);
        assert!((idn - 0.6e-3).abs() / 0.6e-3 < 0.25, "idn = {idn}");
        assert!((idp - 0.3e-3).abs() / 0.3e-3 < 0.25, "idp = {idp}");
    }

    #[test]
    fn off_current_is_small() {
        assert!(nmos_1um().ids(0.0, 1.8) < 1e-8);
        assert!(pmos_1um().ids(0.0, 1.8) < 1e-8);
    }

    #[test]
    fn current_monotonic_in_vgs() {
        let d = nmos_1um();
        let mut prev = -1.0;
        for i in 0..=36 {
            let vgs = i as f64 * 0.05;
            let id = d.ids(vgs, 1.8);
            assert!(id >= prev, "Id must not decrease with Vgs");
            prev = id;
        }
    }

    #[test]
    fn current_monotonic_in_vds() {
        let d = nmos_1um();
        let mut prev = -1.0;
        for i in 0..=36 {
            let vds = i as f64 * 0.05;
            let id = d.ids(1.2, vds);
            assert!(id >= prev, "Id must not decrease with Vds (CLM)");
            prev = id;
        }
    }

    #[test]
    fn linear_region_below_saturation() {
        let d = nmos_1um();
        // Small Vds: device behaves like a resistor, current roughly
        // proportional to Vds.
        let i1 = d.ids(1.8, 0.05);
        let i2 = d.ids(1.8, 0.10);
        let ratio = i2 / i1;
        assert!((1.7..2.1).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let d = nmos_1um();
        let h = 1e-6;
        for &(vgs, vds) in &[
            (0.3, 0.9),
            (0.6, 0.1),
            (0.9, 0.9),
            (1.2, 0.2),
            (1.8, 1.8),
            (0.9, 0.45),
        ] {
            let e = d.eval(vgs, vds);
            let gm_fd = (d.ids(vgs + h, vds) - d.ids(vgs - h, vds)) / (2.0 * h);
            let gds_fd = (d.ids(vgs, vds + h) - d.ids(vgs, vds - h)) / (2.0 * h);
            let tol = 1e-3 * (e.id.abs() / 0.1 + 1e-9) + 1e-9;
            assert!(
                (e.gm - gm_fd).abs() < tol.max(1e-6 * gm_fd.abs().max(1.0)),
                "gm mismatch at ({vgs},{vds}): {} vs {}",
                e.gm,
                gm_fd
            );
            assert!(
                (e.gds - gds_fd).abs() < tol.max(1e-6 * gds_fd.abs().max(1.0)),
                "gds mismatch at ({vgs},{vds}): {} vs {}",
                e.gds,
                gds_fd
            );
        }
    }

    #[test]
    fn reverse_vds_antisymmetric() {
        let d = nmos_1um();
        // With vgs measured from the same terminal, swapping drain/source
        // mirrors the current: Id(vgs, -vds) = -Id(vgs + vds, vds).
        let fwd = d.ids(1.2 + 0.5, 0.5);
        let rev = d.ids(1.2, -0.5);
        assert!((fwd + rev).abs() < 1e-12, "fwd={fwd} rev={rev}");
    }

    #[test]
    fn reverse_vds_derivatives_match_fd() {
        let d = nmos_1um();
        let h = 1e-6;
        let (vgs, vds) = (1.0, -0.4);
        let e = d.eval(vgs, vds);
        let gm_fd = (d.ids(vgs + h, vds) - d.ids(vgs - h, vds)) / (2.0 * h);
        let gds_fd = (d.ids(vgs, vds + h) - d.ids(vgs, vds - h)) / (2.0 * h);
        assert!((e.gm - gm_fd).abs() < 1e-6 + 1e-4 * gm_fd.abs());
        assert!((e.gds - gds_fd).abs() < 1e-6 + 1e-4 * gds_fd.abs());
    }

    #[test]
    fn slow_corner_drives_less() {
        let tt = nmos_1um().ids(1.8, 1.8);
        let ss = MosDevice::new(
            MosParams::sky130_nmos(&Pvt::new(ProcessCorner::SlowSlow, 1.8, 25.0)),
            1.0,
            0.15,
        )
        .ids(1.8, 1.8);
        let ff = MosDevice::new(
            MosParams::sky130_nmos(&Pvt::new(ProcessCorner::FastFast, 1.8, 25.0)),
            1.0,
            0.15,
        )
        .ids(1.8, 1.8);
        assert!(ss < tt && tt < ff);
    }

    #[test]
    fn gate_cap_near_2ff_per_um() {
        let c = nmos_1um().gate_cap().ff();
        assert!((1.5..2.5).contains(&c), "gate cap = {c} fF/µm");
    }

    #[test]
    fn width_scales_current_and_cap() {
        let d1 = nmos_1um();
        let d4 = MosDevice::new(d1.params, 4.0, 0.15);
        let r = d4.ids(1.8, 1.8) / d1.ids(1.8, 1.8);
        assert!((r - 4.0).abs() < 1e-9);
        let rc = d4.gate_cap().ff() / d1.gate_cap().ff();
        assert!((rc - 4.0).abs() < 1e-9);
    }

    #[test]
    fn switching_resistance_order_of_magnitude() {
        // ~1 µm NMOS: R ≈ 1.8/(2·0.6 mA) ≈ 1.5 kΩ.
        let r = nmos_1um().switching_resistance(1.8);
        assert!((1.0e3..3.0e3).contains(&r), "R = {r}");
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_rejected() {
        let _ = MosDevice::new(MosParams::sky130_nmos(&Pvt::nominal()), 0.0, 0.15);
    }

    #[test]
    fn longer_channel_reduces_current() {
        let short = nmos_1um();
        let long = MosDevice::new(short.params, 1.0, 0.5);
        assert!(long.ids(1.8, 1.8) < short.ids(1.8, 1.8));
    }
}
