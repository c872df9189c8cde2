//! The voltage-mode CMOS transmit driver (paper §IV-A-b, Fig. 4).
//!
//! A tapered three-stage inverter chain sized to drive the 2 pF channel
//! termination rail-to-rail at multi-Gb/s. Voltage-mode drivers burn less
//! power than current-mode drivers; the cost is edge rate into heavy
//! loads, which the taper handles.

use openserdes_analog::primitives::{add_inverter_chain, InverterSize};
use openserdes_analog::solver::{
    reference, transient, SolverError, SolverStats, TransientConfig, TransientResult,
};
use openserdes_analog::{Circuit, Node, Stimulus, Waveform};
use openserdes_lint::{LintConfig, LintReport};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::mos::{MosDevice, MosParams};
use openserdes_pdk::units::{AreaUm2, Farad, Hertz, Time, Watt};

/// Transmit driver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverConfig {
    /// Number of inverter stages.
    pub stages: usize,
    /// Per-stage size multiplication factor.
    pub taper: f64,
    /// Scale of the first stage relative to a unit inverter.
    pub first_stage_scale: f64,
    /// Capacitive load at the channel input.
    pub load: Farad,
}

impl DriverConfig {
    /// The paper's driver: three stages into 2 pF.
    ///
    /// With a unit first stage and the default taper the final stage is
    /// large enough to slew 2 pF rail-to-rail inside a 500 ps unit
    /// interval.
    pub fn paper_default() -> Self {
        Self {
            stages: 3,
            taper: 8.0,
            first_stage_scale: 1.5,
            load: Farad::from_pf(2.0),
        }
    }

    /// The per-stage inverter sizes.
    pub fn sizes(&self) -> Vec<InverterSize> {
        (0..self.stages)
            .map(|i| InverterSize::scaled(self.first_stage_scale * self.taper.powi(i as i32)))
            .collect()
    }
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Waveforms captured from a driver transient run.
#[derive(Debug, Clone)]
pub struct DriverWaveforms {
    /// The ideal rail-to-rail input.
    pub input: Waveform,
    /// The driver output at the channel input (across the load).
    pub output: Waveform,
    /// Every intermediate stage output.
    pub stages: Vec<Waveform>,
    /// Solver work done for this transient.
    pub stats: SolverStats,
}

/// The sized transmit driver bound to a PVT point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxDriver {
    config: DriverConfig,
    pvt: Pvt,
}

impl TxDriver {
    /// Creates a driver.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero stages.
    pub fn new(config: DriverConfig, pvt: Pvt) -> Self {
        assert!(config.stages >= 1, "driver needs at least one stage");
        Self { config, pvt }
    }

    /// The configuration.
    pub fn config(&self) -> &DriverConfig {
        &self.config
    }

    /// Runs the `AN0xx` analog DRC over the assembled driver circuit —
    /// the same checks the solver applies in debug builds, but
    /// available unconditionally for signoff and CI.
    pub fn lint(&self) -> LintReport {
        let (c, _, _) = self.build(&[false, true], Time::from_ps(500.0));
        c.lint("tx-driver", &LintConfig::default())
    }

    /// Builds the driver circuit; returns `(circuit, input, stage outs)`.
    fn build(&self, bits: &[bool], bit_time: Time) -> (Circuit, Waveform, Vec<Node>) {
        let vdd_v = self.pvt.vdd.value();
        let ui = bit_time.value();
        let input = Waveform::nrz(bits, ui, ui / 20.0, 0.0, vdd_v, 64);

        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        c.vsource(vdd, Stimulus::Dc(vdd_v));
        c.vsource(vin, Stimulus::Wave(input.clone()));
        let outs = add_inverter_chain(&mut c, &self.pvt, &self.config.sizes(), vin, vdd);
        let out = *outs.last().expect("at least one stage");
        c.capacitor(out, c.gnd(), self.config.load.value());
        (c, input, outs)
    }

    fn collect(input: Waveform, outs: &[Node], res: &TransientResult) -> DriverWaveforms {
        let out = *outs.last().expect("at least one stage");
        DriverWaveforms {
            input,
            output: res.waveform(out).clone(),
            stages: outs.iter().map(|&n| res.waveform(n).clone()).collect(),
            stats: *res.stats(),
        }
    }

    /// Runs a transient of the driver transmitting `bits` at `bit_time`,
    /// including one trailing bit period for settling.
    ///
    /// Uses adaptive time-stepping: the driver output slews hard at bit
    /// edges but is flat between them, so the step-doubling controller
    /// skips most of each UI while the LTE bound keeps edges sharp. The
    /// result is resampled onto the same uniform grid a fixed run uses.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn drive(&self, bits: &[bool], bit_time: Time) -> Result<DriverWaveforms, SolverError> {
        let (c, input, outs) = self.build(bits, bit_time);
        let ui = bit_time.value();
        let t_end = (bits.len() + 1) as f64 * ui;
        let dt = (ui / 250.0).min(2.0e-12);
        let res = transient(
            &c,
            &TransientConfig::until(t_end).with_adaptive_steps(dt, 128.0 * dt, 8.0e-3),
        )?;
        Ok(Self::collect(input, &outs, &res))
    }

    /// [`TxDriver::drive`] through the pre-optimization reference solver
    /// (dense rebuilds, fixed stepping) — the baseline the benchmarks
    /// compare against.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn drive_reference(
        &self,
        bits: &[bool],
        bit_time: Time,
    ) -> Result<DriverWaveforms, SolverError> {
        let (c, input, outs) = self.build(bits, bit_time);
        let ui = bit_time.value();
        let t_end = (bits.len() + 1) as f64 * ui;
        let dt = (ui / 250.0).min(2.0e-12);
        let res = reference::transient(&c, &TransientConfig::until(t_end).with_fixed_dt(dt))?;
        Ok(Self::collect(input, &outs, &res))
    }

    /// Dynamic power estimate at the given data rate: `α·C·V²·f` over the
    /// load and every stage's input/parasitic capacitance, α = 0.5
    /// (random data toggles half the cycles). The termination sits
    /// behind the attenuating channel network, so only part of it swings
    /// the full rail — modelled by a 0.55 effective-load fraction.
    pub fn power(&self, data_rate: Hertz) -> Watt {
        let vdd = self.pvt.vdd.value();
        let mut c_total = self.config.load.value() * 0.55;
        for size in self.config.sizes() {
            let nmos = MosDevice::new(MosParams::sky130_nmos(&self.pvt), size.wn, 0.15);
            let pmos = MosDevice::new(MosParams::sky130_pmos(&self.pvt), size.wp, 0.15);
            c_total += nmos.gate_cap().value()
                + pmos.gate_cap().value()
                + nmos.drain_cap().value()
                + pmos.drain_cap().value();
        }
        // Short-circuit current adds ~15 % on top of C·V²·f in a well-
        // tapered chain.
        Watt::new(0.5 * c_total * vdd * vdd * data_rate.value() * 1.15)
    }

    /// Layout-area estimate: total device width at the standard-cell
    /// density (≈ 2.3 µm² per µm of transistor width for diffusion,
    /// poly and local routing).
    pub fn area(&self) -> AreaUm2 {
        let total_w: f64 = self.config.sizes().iter().map(|s| s.wn + s.wp).sum();
        AreaUm2::new(total_w * 2.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> TxDriver {
        TxDriver::new(DriverConfig::paper_default(), Pvt::nominal())
    }

    #[test]
    fn rail_to_rail_at_2gbps_into_2pf() {
        // The paper's Fig. 4(b): full swing at 2 Gb/s with 2 pF.
        let bits = [true, false, true, true, false, false, true, false];
        let w = driver()
            .drive(&bits, Time::from_ps(500.0))
            .expect("transient runs");
        let swing = w.output.amplitude();
        assert!(swing > 1.7, "output swing = {swing:.3} V");
        // Sliced at bit centres the output reproduces the pattern
        // (three inverting stages -> inverted polarity).
        let sliced = w
            .output
            .slice_bits(500e-12, 0.75 * 500e-12, 0.9, bits.len());
        let expected: Vec<bool> = bits.iter().map(|&b| !b).collect();
        assert_eq!(sliced, expected);
    }

    #[test]
    fn mid_rail_delay_is_positive() {
        // Fig. 4(b)'s pattern: the input's first rising mid-rail crossing
        // to the next falling one at the (inverted) output.
        let bits = [true, false, true, true, false, false, true, false];
        let w = driver()
            .drive(&bits, Time::from_ps(500.0))
            .expect("transient runs");
        let t_in = w.input.crossings(0.9, true)[0];
        let falls = w.output.crossings(0.9, false);
        let t_out = falls
            .into_iter()
            .find(|&t| t >= t_in)
            .expect("an output edge");
        let delay_ps = (t_out - t_in) * 1e12;
        assert!(delay_ps > 0.0, "delay = {delay_ps:.1} ps");
    }

    #[test]
    fn output_edges_fit_in_a_ui() {
        let bits = [false, true, false];
        let w = driver()
            .drive(&bits, Time::from_ps(500.0))
            .expect("transient runs");
        let rt = w.output.rise_time();
        // 20–80 % edge must fit comfortably inside the 500 ps UI.
        let rt = rt.expect("output falls then rises? at least one edge") * 1e12;
        assert!(rt < 350.0, "rise time = {rt:.0} ps");
    }

    #[test]
    fn smaller_load_is_faster() {
        let mut cfg = DriverConfig::paper_default();
        cfg.load = Farad::from_ff(200.0);
        let light = TxDriver::new(cfg, Pvt::nominal());
        let bits = [false, true, false];
        let heavy_w = driver().drive(&bits, Time::from_ps(500.0)).expect("ok");
        let light_w = light.drive(&bits, Time::from_ps(500.0)).expect("ok");
        let rt_heavy = heavy_w.output.rise_time().expect("edge");
        let rt_light = light_w.output.rise_time().expect("edge");
        assert!(rt_light < rt_heavy);
    }

    #[test]
    fn taper_produces_growing_stages() {
        let sizes = DriverConfig::paper_default().sizes();
        assert_eq!(sizes.len(), 3);
        assert!(sizes[1].wn > sizes[0].wn * 4.0);
        assert!(sizes[2].wn > sizes[1].wn * 4.0);
    }

    #[test]
    fn power_scales_with_rate_and_is_mw_scale() {
        let d = driver();
        let p2g = d.power(Hertz::from_ghz(2.0));
        let p1g = d.power(Hertz::from_ghz(1.0));
        assert!((p2g.value() / p1g.value() - 2.0).abs() < 1e-12);
        // The paper's TX burns 4.5 mW at 2 GHz; ours must land within a
        // small factor (same order).
        assert!(
            (1.0..12.0).contains(&p2g.mw()),
            "TX power = {:.2} mW",
            p2g.mw()
        );
    }

    #[test]
    fn area_is_tiny_fraction_of_a_square_mm() {
        // Fig. 11: the driver is ~0.2 % of 0.24 mm² ≈ 480 µm².
        let a = driver().area();
        assert!(
            (50.0..2000.0).contains(&a.value()),
            "driver area = {:.0} µm²",
            a.value()
        );
    }

    #[test]
    fn driver_circuit_lints_clean() {
        let report = driver().lint();
        assert!(report.is_clean(), "DRC findings:\n{report}");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_rejected() {
        let mut cfg = DriverConfig::paper_default();
        cfg.stages = 0;
        let _ = TxDriver::new(cfg, Pvt::nominal());
    }
}
