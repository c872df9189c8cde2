//! The all-digital receiver front end (paper §IV-B, Figs. 5–6).
//!
//! An AC-coupling capacitor feeds a **resistive-feedback inverter**: a
//! CMOS inverter whose PMOS pseudo-resistor feedback self-biases the
//! input at the switching threshold (≈ 0.5·VDD), where both devices are
//! in saturation and the stage behaves as a high-gain amplifier for
//! millivolt inputs. A second CMOS inverter restores rail-to-rail
//! levels for the flip-flop sampler. The price of synthesizability is a
//! static current (both devices always on) — quantified by
//! [`RxFrontEnd::static_power`].
//!
//! Besides full transient simulation ([`RxFrontEnd::receive`]), the type
//! exposes a small-signal characterization
//! ([`RxFrontEnd::small_signal`]) from which a fast behavioural
//! sensitivity model is derived ([`RxFrontEnd::sensitivity`]): the
//! minimum input swing that still restores clean logic levels at a given
//! data rate. This is the model behind the paper's Fig. 9 sweeps.

use openserdes_analog::par::bisect_speculative;
use openserdes_analog::primitives::{
    add_inverter, add_resistive_feedback_inverter, FeedbackKind, InverterSize,
};
use openserdes_analog::solver::{
    dc_operating_point, dc_sweep_with_threads, reference, transient, SolverError, SolverStats,
    TransientConfig, TransientResult,
};
use openserdes_analog::{Circuit, Node, Stimulus, Waveform};
use openserdes_lint::{LintConfig, LintReport};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::mos::{MosDevice, MosParams};
use openserdes_pdk::units::{AreaUm2, Farad, Hertz, Volt, Watt};

/// Receiver front-end configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontEndConfig {
    /// Scale of the gain-stage inverter relative to a unit inverter.
    pub gain_stage_scale: f64,
    /// Scale of the restoring inverter.
    pub restorer_scale: f64,
    /// Feedback element.
    pub feedback: FeedbackKind,
    /// AC-coupling capacitor (off-chip in the paper).
    pub coupling_cap: Farad,
    /// Overdrive the restorer input needs past its threshold to slew
    /// rail-to-rail within a bit, plus mismatch/offset guardband between
    /// the amplifier bias and the restorer threshold.
    pub offset_margin: Volt,
    /// Multiplicative guardband for noise, jitter and PVT in the
    /// behavioural sensitivity model.
    pub snr_margin: f64,
}

impl FrontEndConfig {
    /// The paper's front end.
    pub fn paper_default() -> Self {
        Self {
            gain_stage_scale: 24.0,
            restorer_scale: 24.0,
            feedback: FeedbackKind::PseudoResistor { w: 1.0, l: 0.5 },
            coupling_cap: Farad::from_pf(10.0),
            offset_margin: Volt::from_mv(260.0),
            snr_margin: 2.0,
        }
    }
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Waveforms from a front-end transient run.
#[derive(Debug, Clone)]
pub struct FrontEndWaveforms {
    /// The incoming (channel output) waveform.
    pub input: Waveform,
    /// The AC-coupled, self-biased amplifier input node.
    pub coupled: Waveform,
    /// The gain-stage output.
    pub amplified: Waveform,
    /// The restored rail-to-rail output.
    pub restored: Waveform,
    /// Solver work done for this transient.
    pub stats: SolverStats,
}

/// Small-signal characterization of the front end at its bias point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallSignal {
    /// Self-bias voltage of the amplifier input/output.
    pub bias: Volt,
    /// Low-frequency voltage gain (positive magnitude).
    pub gain: f64,
    /// Output resistance of the gain stage.
    pub rout: f64,
    /// Capacitive load at the gain-stage output.
    pub cout: Farad,
    /// Dominant pole frequency.
    pub pole: Hertz,
}

impl SmallSignal {
    /// Effective gain for an NRZ pulse of one unit interval: the
    /// single-pole step response sampled at the end of the bit,
    /// `A·(1 − e^(−T/τ))`.
    fn gain_at_rate(&self, data_rate: Hertz) -> f64 {
        let t = 1.0 / data_rate.value();
        let tau = self.rout * self.cout.value();
        self.gain * (1.0 - (-t / tau).exp())
    }
}

/// The receiver front end bound to a PVT point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxFrontEnd {
    config: FrontEndConfig,
    pvt: Pvt,
}

impl RxFrontEnd {
    /// Creates a front end.
    pub fn new(config: FrontEndConfig, pvt: Pvt) -> Self {
        Self { config, pvt }
    }

    /// The configuration.
    pub fn config(&self) -> &FrontEndConfig {
        &self.config
    }

    /// Runs the `AN0xx` analog DRC over the assembled front-end circuit
    /// with the source bound to its bias point — the same checks the
    /// solver applies in debug builds, but available unconditionally
    /// for signoff and CI. In particular this proves the AC-coupled
    /// input bias has a DC path through the pseudo-resistor channel.
    pub fn lint(&self) -> LintReport {
        let mut c = Circuit::new();
        let (src, _, _, _) = self.build(&mut c);
        c.vsource(src, Stimulus::Dc(0.5 * self.pvt.vdd.value()));
        c.lint("rx-frontend", &LintConfig::default())
    }

    /// Builds the front-end circuit; returns `(src, vin, vmid, vout)`.
    fn build(&self, c: &mut Circuit) -> (Node, Node, Node, Node) {
        let vdd_v = self.pvt.vdd.value();
        let vdd = c.node("vdd");
        c.vsource(vdd, Stimulus::Dc(vdd_v));
        let src = c.node("rx_src");
        let vin = c.node("rx_in");
        let vmid = c.node("rx_amp");
        let vout = c.node("rx_out");
        c.capacitor(src, vin, self.config.coupling_cap.value());
        add_resistive_feedback_inverter(
            c,
            &self.pvt,
            InverterSize::scaled(self.config.gain_stage_scale),
            self.config.feedback,
            vin,
            vmid,
            vdd,
        );
        add_inverter(
            c,
            &self.pvt,
            InverterSize::scaled(self.config.restorer_scale),
            vmid,
            vout,
            vdd,
        );
        // Sampler load at the restored output.
        c.capacitor(vout, c.gnd(), 5e-15);
        (src, vin, vmid, vout)
    }

    /// Builds the receive circuit with the source bound to `input`;
    /// returns `(circuit, vin, vmid, vout)`.
    fn receive_setup(&self, input: &Waveform) -> (Circuit, Node, Node, Node) {
        let mut c = Circuit::new();
        let (src, vin, vmid, vout) = self.build(&mut c);
        // The AC-coupling capacitor's steady-state charge centres the
        // signal on its mean (reached after ~R_fb·C_c, far beyond any
        // transient span). Model it by pinning the source's first few
        // samples to the mean so the DC operating point charges the cap
        // to the steady-state value.
        let mean = input.mean();
        let settle = input.t0() + 3.0 * input.dt();
        let centered = Waveform::from_fn(input.t0(), input.dt(), input.len(), |t| {
            if t < settle {
                mean
            } else {
                input.sample_at(t)
            }
        });
        c.vsource(src, Stimulus::Wave(centered));
        (c, vin, vmid, vout)
    }

    fn collect(
        input: &Waveform,
        (vin, vmid, vout): (Node, Node, Node),
        res: &TransientResult,
    ) -> FrontEndWaveforms {
        FrontEndWaveforms {
            input: input.clone(),
            coupled: res.waveform(vin).clone(),
            amplified: res.waveform(vmid).clone(),
            restored: res.waveform(vout).clone(),
            stats: *res.stats(),
        }
    }

    /// Transient run of the front end on an incoming waveform.
    ///
    /// Uses adaptive time-stepping: the front end is quiescent between
    /// bit transitions, so the controller stretches steps there and
    /// shrinks them through the amplified edges, with the LTE bound
    /// keeping the restored waveform faithful on the output grid.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn receive(&self, input: &Waveform) -> Result<FrontEndWaveforms, SolverError> {
        let (c, vin, vmid, vout) = self.receive_setup(input);
        let dt = (input.dt()).min(2.0e-12);
        let res = transient(
            &c,
            &TransientConfig::until(input.t_end()).with_adaptive_steps(dt, 128.0 * dt, 8.0e-3),
        )?;
        Ok(Self::collect(input, (vin, vmid, vout), &res))
    }

    /// [`RxFrontEnd::receive`] through the pre-optimization reference
    /// solver (dense rebuilds, fixed stepping) — the baseline the
    /// benchmarks compare against.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn receive_reference(&self, input: &Waveform) -> Result<FrontEndWaveforms, SolverError> {
        let (c, vin, vmid, vout) = self.receive_setup(input);
        let dt = (input.dt()).min(2.0e-12);
        let res =
            reference::transient(&c, &TransientConfig::until(input.t_end()).with_fixed_dt(dt))?;
        Ok(Self::collect(input, (vin, vmid, vout), &res))
    }

    /// Builds the quiescent bias circuit (source grounded); returns the
    /// amplifier input node.
    fn bias_setup(&self, c: &mut Circuit) -> Node {
        let (src, vin, _, _) = self.build(c);
        c.vsource(src, Stimulus::Dc(0.0));
        vin
    }

    /// The DC self-bias point of the amplifier input.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn self_bias(&self) -> Result<Volt, SolverError> {
        let mut c = Circuit::new();
        let vin = self.bias_setup(&mut c);
        let v = dc_operating_point(&c)?;
        Ok(Volt::new(v[vin.index()]))
    }

    /// DC voltage-transfer curve of the bare gain-stage inverter
    /// (Fig. 6a), as `(vin, vout)` pairs at `points` inputs evenly
    /// spaced from 0 to VDD, fanned across `threads` workers. Each
    /// point is its own robust DC solve, so the result is
    /// worker-count-independent **and** bit-identical to a DC operating
    /// point of the circuit at each input.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn vtc_with_threads(
        &self,
        points: usize,
        threads: usize,
    ) -> Result<Vec<(f64, f64)>, SolverError> {
        let vdd_v = self.pvt.vdd.value();
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        c.vsource(vdd, Stimulus::Dc(vdd_v));
        let vin = c.node("vin");
        c.vsource(vin, Stimulus::Dc(0.0));
        let vout = c.node("vout");
        add_inverter(
            &mut c,
            &self.pvt,
            InverterSize::scaled(self.config.gain_stage_scale),
            vin,
            vout,
            vdd,
        );
        let xs: Vec<f64> = (0..points)
            .map(|i| vdd_v * i as f64 / (points - 1) as f64)
            .collect();
        // The swept source is `vin`, index 1.
        let sweep = dc_sweep_with_threads(&c, 1, &xs, threads)?;
        Ok(xs
            .into_iter()
            .zip(sweep.iter().map(|v| v[vout.index()]))
            .collect())
    }

    /// Small-signal characterization at the self-bias point.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn small_signal(&self) -> Result<SmallSignal, SolverError> {
        Ok(self.small_signal_with_bias(self.self_bias()?))
    }

    /// Small-signal characterization at a *known* bias point — the
    /// solver-free half of [`RxFrontEnd::small_signal`], for callers
    /// that already hold the bias from [`RxFrontEnd::self_bias`].
    fn small_signal_with_bias(&self, bias: Volt) -> SmallSignal {
        let bias = bias.value();
        let vdd = self.pvt.vdd.value();
        let k = self.config.gain_stage_scale;
        let nmos = MosDevice::new(MosParams::sky130_nmos(&self.pvt), 0.65 * k, 0.15);
        let pmos = MosDevice::new(MosParams::sky130_pmos(&self.pvt), 1.0 * k, 0.15);
        let en = nmos.eval(bias, bias);
        let ep = pmos.eval(vdd - bias, vdd - bias);
        let g_fb = match self.config.feedback {
            FeedbackKind::Ideal(r) => 1.0 / r,
            FeedbackKind::PseudoResistor { w, l } => {
                let dev = MosDevice::new(MosParams::sky130_pmos(&self.pvt), w, l);
                // Conductance of the near-off device around zero bias.
                dev.eval(0.0, 0.05).id / 0.05
            }
        };
        let gm = en.gm + ep.gm;
        let gout = en.gds + ep.gds + g_fb;
        let rk = self.config.restorer_scale;
        let rest_n = MosDevice::new(MosParams::sky130_nmos(&self.pvt), 0.65 * rk, 0.15);
        let rest_p = MosDevice::new(MosParams::sky130_pmos(&self.pvt), 1.0 * rk, 0.15);
        let cout = rest_n.gate_cap().value()
            + rest_p.gate_cap().value()
            + nmos.drain_cap().value()
            + pmos.drain_cap().value();
        let rout = 1.0 / gout;
        SmallSignal {
            bias: Volt::new(bias),
            gain: gm * rout,
            rout,
            cout: Farad::new(cout),
            pole: Hertz::new(1.0 / (2.0 * std::f64::consts::PI * rout * cout)),
        }
    }

    /// Behavioural sensitivity: the minimum peak-to-peak input swing
    /// that still yields rail-to-rail restored output at `data_rate`.
    ///
    /// Model: the restorer needs its input to move
    /// `VDD/2 / A_eff + offset_margin` past its threshold within a bit;
    /// the gain stage provides `A_eff`; `snr_margin` guards noise,
    /// jitter and PVT.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the characterization.
    pub fn sensitivity(&self, data_rate: Hertz) -> Result<Volt, SolverError> {
        Ok(self.sensitivity_with(&self.small_signal()?, data_rate))
    }

    /// [`RxFrontEnd::sensitivity`] evaluated against an existing
    /// characterization — infallible, so sweeps characterize once
    /// (one DC solve) and evaluate every data rate from it.
    pub fn sensitivity_with(&self, ss: &SmallSignal, data_rate: Hertz) -> Volt {
        let a_eff = ss.gain_at_rate(data_rate).max(1e-3);
        let vdd = self.pvt.vdd.value();
        let restorer_need = 0.5 * vdd / a_eff + self.config.offset_margin.value();
        Volt::new(2.0 * restorer_need / a_eff * self.config.snr_margin)
    }

    /// Maximum tolerable channel loss in dB at `data_rate` for a
    /// transmitter swing of `tx_swing`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn max_loss_db(&self, data_rate: Hertz, tx_swing: Volt) -> Result<f64, SolverError> {
        let sens = self.sensitivity(data_rate)?;
        Ok(20.0 * (tx_swing.value() / sens.value()).log10())
    }

    /// Measured sensitivity: bisects the peak-to-peak input swing with
    /// full transient runs, probing whether an 8-bit pattern at
    /// `data_rate` still restores rail-to-rail at the output. Unlike the
    /// behavioural [`RxFrontEnd::sensitivity`] it carries no
    /// noise/offset guardbands — it is the raw circuit threshold.
    ///
    /// The bisection runs on the speculative engine
    /// ([`bisect_speculative`]), so the probe sequence — and therefore
    /// the returned value, bit for bit — is identical for any `threads`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the probes the bisection uses.
    pub fn sensitivity_measured(
        &self,
        data_rate: Hertz,
        threads: usize,
    ) -> Result<Volt, SolverError> {
        let ui = 1.0 / data_rate.value();
        let bits = [true, false, true, true, false, false, true, false];
        let vdd = self.pvt.vdd.value();
        let mid = 0.5 * vdd;
        let restores = |swing_pp: f64| -> Result<bool, SolverError> {
            let input = Waveform::nrz(
                &bits,
                ui,
                ui / 10.0,
                mid - 0.5 * swing_pp,
                mid + 0.5 * swing_pp,
                32,
            );
            let waves = self.receive(&input)?;
            Ok(waves.restored.amplitude() > 0.8 * vdd)
        };
        let (lo, hi) = (0.2e-3, 50.0e-3);
        if restores(lo)? {
            return Ok(Volt::new(lo));
        }
        if !restores(hi)? {
            return Ok(Volt::new(hi));
        }
        // Bracket invariant: `lo` fails, `hi` restores; the probe returns
        // `true` (move `lo` up) while the swing still fails.
        let (_, hi) = bisect_speculative(lo, hi, 0.5e-3, threads, |swing| {
            restores(swing).map(|ok| !ok)
        })?;
        Ok(Volt::new(hi))
    }

    /// Static power: the quiescent current of both always-on inverters
    /// times the supply — the cost of the synthesizable analog front end
    /// the paper calls out.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn static_power(&self) -> Result<Watt, SolverError> {
        let bias = self.self_bias()?.value();
        let vdd = self.pvt.vdd.value();
        let mut current = 0.0;
        for k in [self.config.gain_stage_scale, self.config.restorer_scale] {
            let nmos = MosDevice::new(MosParams::sky130_nmos(&self.pvt), 0.65 * k, 0.15);
            current += nmos.ids(bias, bias);
        }
        Ok(Watt::new(current * vdd))
    }

    /// Area estimate (device width at standard-cell density plus the
    /// pseudo-resistor and local routing).
    pub fn area(&self) -> AreaUm2 {
        let w_total = (0.65 + 1.0) * (self.config.gain_stage_scale + self.config.restorer_scale);
        AreaUm2::new(w_total * 2.3 + 20.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fe() -> RxFrontEnd {
        RxFrontEnd::new(FrontEndConfig::paper_default(), Pvt::nominal())
    }

    #[test]
    fn frontend_circuit_lints_clean() {
        // The AC-coupled input is biased only through the PMOS
        // pseudo-resistor channel — AN001 must accept that DC path.
        let report = fe().lint();
        assert!(report.is_clean(), "DRC findings:\n{report}");
    }

    #[test]
    fn self_bias_near_half_vdd() {
        let b = fe().self_bias().expect("solves").value();
        assert!((0.7..1.1).contains(&b), "bias = {b:.3} V (Fig. 6a)");
    }

    #[test]
    fn vtc_is_an_inverter_curve() {
        let vtc = fe().vtc_with_threads(37, 1).expect("sweeps");
        assert!(vtc.first().expect("points").1 > 1.7);
        assert!(vtc.last().expect("points").1 < 0.1);
        for w in vtc.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6, "monotone falling");
        }
    }

    #[test]
    fn small_signal_gain_is_high() {
        let ss = fe().small_signal().expect("solves");
        assert!(ss.gain > 10.0, "A0 = {:.1}", ss.gain);
        assert!(ss.pole.mhz() > 50.0, "pole = {:.0} MHz", ss.pole.mhz());
        // Effective gain falls with data rate.
        let g1 = ss.gain_at_rate(Hertz::from_ghz(1.0));
        let g4 = ss.gain_at_rate(Hertz::from_ghz(4.0));
        assert!(g4 < g1);
    }

    #[test]
    fn sensitivity_tens_of_mv_at_2g() {
        // Paper: ≈ 32 mV at 2 GHz.
        let s = fe().sensitivity(Hertz::from_ghz(2.0)).expect("solves");
        assert!(
            (10.0..120.0).contains(&s.mv()),
            "sensitivity = {:.1} mV",
            s.mv()
        );
    }

    #[test]
    fn sensitivity_degrades_with_rate() {
        let f = fe();
        let mut prev = 0.0;
        for ghz in [0.5, 1.0, 2.0, 3.0] {
            let s = f.sensitivity(Hertz::from_ghz(ghz)).expect("solves").mv();
            assert!(s > prev, "sensitivity must grow with rate ({ghz} GHz)");
            prev = s;
        }
    }

    #[test]
    fn max_loss_falls_with_rate() {
        let f = fe();
        let l1 = f
            .max_loss_db(Hertz::from_ghz(1.0), Volt::new(1.8))
            .expect("ok");
        let l3 = f
            .max_loss_db(Hertz::from_ghz(3.0), Volt::new(1.8))
            .expect("ok");
        assert!(l1 > l3, "loss tolerance must shrink with rate");
        assert!((20.0..50.0).contains(&l1), "max loss @1G = {l1:.1} dB");
    }

    #[test]
    fn static_power_nonzero() {
        // The paper's §IV-B-a: always-on path from supply to ground.
        let p = fe().static_power().expect("solves");
        assert!(p.mw() > 0.1, "static power = {:.3} mW", p.mw());
        assert!(p.mw() < 20.0);
    }

    #[test]
    fn recovers_attenuated_pattern_end_to_end() {
        // 60 mV swing around mid-rail at 1 Gb/s — must restore cleanly.
        let bits = [true, false, true, true, false, false, true, false];
        let input = Waveform::nrz(&bits, 1e-9, 50e-12, 0.87, 0.93, 128);
        let f = fe();
        let waves = f.receive(&input).expect("transient runs");
        assert!(
            waves.restored.amplitude() > 1.5,
            "restored swing = {:.2} V",
            waves.restored.amplitude()
        );
        // The gain stage inverts; the restorer inverts again: polarity
        // preserved. Skip the first 2 bits (bias settling).
        let got = waves.restored.slice_bits(1e-9, 2.5e-9, 0.9, bits.len() - 3);
        let expect: Vec<bool> = bits[2..bits.len() - 1].to_vec();
        assert_eq!(got[..expect.len().min(got.len())], expect[..]);
        // The adaptive controller must actually be coarsening: fewer
        // steps taken than the uniform output grid has points.
        let s = waves.stats;
        assert!(s.steps_taken > 0, "stats must be populated");
        assert!(
            s.steps_taken < waves.restored.len() as u64,
            "adaptive took {} steps for a {}-point grid",
            s.steps_taken,
            waves.restored.len()
        );
    }

    #[test]
    fn reference_receive_agrees_with_adaptive() {
        let bits = [true, false, false, true];
        let input = Waveform::nrz(&bits, 1e-9, 50e-12, 0.84, 0.96, 64);
        let f = fe();
        let fast = f.receive(&input).expect("adaptive runs");
        let slow = f.receive_reference(&input).expect("reference runs");
        // Same uniform grid, waveforms close after bias settling.
        let err = fast.restored.max_abs_diff(&slow.restored);
        assert!(err < 0.2, "restored max |diff| = {err:.3} V");
        assert!(slow.stats.steps_taken == 0, "reference reports no stats");
    }

    #[test]
    fn vtc_with_threads_is_worker_count_independent() {
        let f = fe();
        let base = f.vtc_with_threads(33, 1).expect("sweeps");
        for w in base.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-6, "monotone falling");
        }
        for threads in [2, 4, 8] {
            let vtc = f.vtc_with_threads(33, threads).expect("sweeps");
            assert_eq!(vtc.len(), base.len());
            for (a, b) in vtc.iter().zip(&base) {
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn measured_sensitivity_is_mv_scale_and_thread_independent() {
        let f = fe();
        let rate = Hertz::from_ghz(2.0);
        let s1 = f.sensitivity_measured(rate, 1).expect("bisects");
        assert!(
            (0.2..60.0).contains(&s1.mv()),
            "measured sensitivity = {:.2} mV",
            s1.mv()
        );
        let s4 = f.sensitivity_measured(rate, 4).expect("bisects");
        assert_eq!(
            s1.value().to_bits(),
            s4.value().to_bits(),
            "{} vs {} mV",
            s1.mv(),
            s4.mv()
        );
        // The raw circuit threshold carries no guardbands, so it must be
        // at least as good as the behavioural model's number.
        let model = f.sensitivity(rate).expect("characterizes");
        assert!(s1.value() <= model.value());
    }

    #[test]
    fn sensitivity_with_matches_sensitivity() {
        let f = fe();
        let ss = f.small_signal().expect("characterizes");
        for ghz in [0.5, 1.0, 2.0, 4.0] {
            let rate = Hertz::from_ghz(ghz);
            let a = f.sensitivity(rate).expect("solves").value();
            let b = f.sensitivity_with(&ss, rate).value();
            assert_eq!(a.to_bits(), b.to_bits(), "{ghz} GHz");
        }
    }

    #[test]
    fn area_is_small() {
        let a = fe().area().value();
        assert!((50.0..5000.0).contains(&a), "area = {a:.0} µm²");
    }
}
