//! End-to-end PHY pipelines at two fidelity levels.
//!
//! * [`AnalogLink`] — the full transistor-level path (driver transient →
//!   channel → front-end transient → sampler) used to regenerate the
//!   paper's waveform figures and to validate the fast model.
//! * [`BehavioralLink`] — a bit-level statistical model calibrated from
//!   the same device physics (the front end's small-signal
//!   characterization), fast enough for the million-bit BER and
//!   sensitivity sweeps behind Fig. 9.

use crate::channel::ChannelModel;
use crate::driver::{DriverConfig, DriverWaveforms, TxDriver};
use crate::frontend::{FrontEndConfig, FrontEndWaveforms, RxFrontEnd};
use crate::sampler::Sampler;
use openserdes_analog::solver::{SolverError, SolverStats};
use openserdes_analog::Waveform;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::{Hertz, Time, Volt};
use openserdes_telemetry as telemetry;

/// Artifacts of one analog end-to-end transmission.
#[derive(Debug, Clone)]
pub struct LinkRun {
    /// Driver waveforms (input, stages, output).
    pub tx: DriverWaveforms,
    /// The waveform arriving at the receiver.
    pub channel_out: Waveform,
    /// Receiver front-end waveforms.
    pub rx: FrontEndWaveforms,
    /// The transmitted bits (for scoring).
    pub sent: Vec<bool>,
    /// Unit interval used.
    pub bit_time: Time,
    /// Combined solver work across the driver and front-end transients.
    pub solver_stats: SolverStats,
}

impl LinkRun {
    /// Recovers the received bits by scanning sampling phase (in 1/16-UI
    /// steps) and polarity for the alignment that best matches `sent` —
    /// the measurement-time equivalent of what the CDR does in hardware.
    /// Returns `(bits, errors)` for the best alignment, ignoring the
    /// first `skip` bits (settling).
    pub fn recover(&self, sampler: &Sampler, skip: usize) -> (Vec<bool>, usize) {
        let ui = self.bit_time.value();
        let n = self.sent.len();
        let mut best: Option<(Vec<bool>, usize)> = None;
        for lag in 0..3usize {
            for ph16 in 0..16 {
                let t0 = (skip as f64 + lag as f64 + ph16 as f64 / 16.0) * ui;
                for invert in [false, true] {
                    let samples = sampler.sample_stream(&self.rx.restored, t0, ui, n - skip - lag);
                    let bits: Vec<bool> = samples
                        .iter()
                        .map(|s| s.bit().unwrap_or(false) ^ invert)
                        .collect();
                    let errors = bits
                        .iter()
                        .zip(&self.sent[skip..])
                        .filter(|(a, b)| a != b)
                        .count()
                        + samples.iter().filter(|s| s.bit().is_none()).count();
                    if best.as_ref().map(|(_, e)| errors < *e).unwrap_or(true) {
                        best = Some((bits, errors));
                    }
                }
            }
        }
        best.expect("at least one alignment evaluated")
    }
}

/// The full analog TX→channel→RX path.
#[derive(Debug, Clone)]
pub struct AnalogLink {
    /// Transmit driver.
    pub driver: TxDriver,
    /// Channel model.
    pub channel: ChannelModel,
    /// Receiver front end.
    pub frontend: RxFrontEnd,
    /// Sampling flip-flop.
    pub sampler: Sampler,
}

impl AnalogLink {
    /// The paper's link at a PVT point with the given channel.
    pub fn paper_default(pvt: Pvt, channel: ChannelModel) -> Self {
        Self {
            driver: TxDriver::new(DriverConfig::paper_default(), pvt),
            channel,
            frontend: RxFrontEnd::new(FrontEndConfig::paper_default(), pvt),
            sampler: Sampler::paper_default(pvt.vdd),
        }
    }

    /// Transmits `bits` at `bit_time` through the full analog path.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from either transient.
    pub fn transmit(&self, bits: &[bool], bit_time: Time) -> Result<LinkRun, SolverError> {
        let _span = telemetry::span("phy.analog_link");
        telemetry::counter("phy.bits_transmitted", bits.len() as u64);
        let tx = {
            let _s = telemetry::span("phy.drive");
            self.driver.drive(bits, bit_time)?
        };
        let channel_out = {
            let _s = telemetry::span("phy.channel");
            self.channel.apply(&tx.output)
        };
        let rx = {
            let _s = telemetry::span("phy.frontend");
            self.frontend.receive(&channel_out)?
        };
        let mut solver_stats = tx.stats;
        solver_stats.merge(&rx.stats);
        Ok(LinkRun {
            tx,
            channel_out,
            rx,
            sent: bits.to_vec(),
            bit_time,
            solver_stats,
        })
    }

    /// [`AnalogLink::transmit`] through the pre-optimization reference
    /// solver (dense rebuilds, fixed stepping) at both ends — the
    /// apples-to-apples baseline for the benchmark suite.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from either transient.
    pub fn transmit_reference(
        &self,
        bits: &[bool],
        bit_time: Time,
    ) -> Result<LinkRun, SolverError> {
        let _span = telemetry::span("phy.analog_link_reference");
        telemetry::counter("phy.bits_transmitted", bits.len() as u64);
        let tx = {
            let _s = telemetry::span("phy.drive");
            self.driver.drive_reference(bits, bit_time)?
        };
        let channel_out = {
            let _s = telemetry::span("phy.channel");
            self.channel.apply(&tx.output)
        };
        let rx = {
            let _s = telemetry::span("phy.frontend");
            self.frontend.receive_reference(&channel_out)?
        };
        let mut solver_stats = tx.stats;
        solver_stats.merge(&rx.stats);
        Ok(LinkRun {
            tx,
            channel_out,
            rx,
            sent: bits.to_vec(),
            bit_time,
            solver_stats,
        })
    }
}

/// BER measurement summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BerEstimate {
    /// Bits evaluated.
    pub bits: u64,
    /// Errors observed.
    pub errors: u64,
}

impl BerEstimate {
    /// The measured bit-error ratio.
    pub fn ber(&self) -> f64 {
        self.errors as f64 / self.bits.max(1) as f64
    }

    /// Upper 95 % confidence bound on the BER (rule-of-three when no
    /// errors were seen).
    pub fn ber_upper95(&self) -> f64 {
        if self.errors == 0 {
            3.0 / self.bits.max(1) as f64
        } else {
            let p = self.ber();
            p + 1.96 * (p * (1.0 - p) / self.bits as f64).sqrt()
        }
    }
}

/// The fast bit-level link model calibrated from the analog blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct BehavioralLink {
    /// Transmit swing (pp) at the channel input.
    pub tx_swing: Volt,
    /// Channel under test.
    pub channel: ChannelModel,
    /// Minimum detectable pp swing at the data rate (the front end's
    /// sensitivity, pre-computed via
    /// [`RxFrontEnd::sensitivity`]).
    pub rx_sensitivity: Volt,
    /// Effective RMS noise at the decision point, referred to the
    /// receiver input.
    pub noise_sigma: Volt,
    /// Unit interval.
    pub ui: Time,
    /// Fraction of the UI eroded per second of edge-time jitter (how
    /// much timing error converts to amplitude margin loss).
    pub jitter_slope: f64,
}

impl BehavioralLink {
    /// Builds the model from an analog link at the given data rate.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the front-end characterization.
    pub fn from_analog(link: &AnalogLink, data_rate: Hertz) -> Result<Self, SolverError> {
        let _span = telemetry::span("phy.characterize");
        let pvt_vdd = link.sampler.threshold.value() * 2.0;
        let sens = link.frontend.sensitivity(data_rate)?;
        Ok(Self {
            tx_swing: Volt::new(pvt_vdd),
            channel: link.channel.clone(),
            rx_sensitivity: sens,
            noise_sigma: link.channel.noise_sigma,
            ui: Time::new(1.0 / data_rate.value()),
            jitter_slope: 2.0,
        })
    }

    /// Received signal pp swing after channel attenuation.
    fn rx_swing(&self) -> Volt {
        Volt::new(self.tx_swing.value() * self.channel.gain())
    }

    /// Amplitude margin: half the received swing minus half the
    /// sensitivity (negative = eye closed).
    pub fn margin(&self) -> Volt {
        Volt::new(0.5 * (self.rx_swing().value() - self.rx_sensitivity.value()))
    }

    /// Per-sample flip probability from amplitude noise alone,
    /// `Q(margin/σ)` (0.5 when the eye is closed). No jitter erosion —
    /// for consumers that model edge jitter explicitly per sample, where
    /// folding jitter in a second time would double-count it. The
    /// bathtub sweep (`core::Sweep::bathtub`) reads this one.
    pub fn flip_probability(&self) -> f64 {
        let margin = self.margin().value();
        if margin <= 0.0 {
            return 0.5;
        }
        q_function(margin / self.noise_sigma.value().max(1e-9))
    }

    /// Per-sample flip probability with RJ + DJ folded into the
    /// amplitude margin as erosion (`jitter_slope` converts the UI
    /// fraction the jitter consumes into lost margin) — for consumers
    /// that do not model edges at all. The fast link path's statistical
    /// PHY (`core::link`, behind the oversampled CDR) draws its noise
    /// flips from this one although it also jitters every edge by RJ,
    /// so there RJ counts twice: once as edge jitter, once as erosion.
    pub fn flip_probability_jitter_eroded(&self) -> f64 {
        // Jitter erodes margin proportionally to how much of the UI the
        // RMS jitter consumes.
        let jitter_frac = self.channel.rj_sigma.value() / self.ui.value()
            + 0.5 * self.channel.dj_pp.value() / self.ui.value();
        let margin = self.margin().value() * (1.0 - self.jitter_slope * jitter_frac).max(0.0);
        if margin <= 0.0 {
            return 0.5;
        }
        q_function(margin / self.noise_sigma.value().max(1e-9))
    }
}

/// The Gaussian tail probability `Q(x) = 0.5·erfc(x/√2)` via the
/// Abramowitz–Stegun erfc approximation (|ε| < 1.5e-7).
fn q_function(x: f64) -> f64 {
    if x < 0.0 {
        return 1.0 - q_function(-x);
    }
    let z = x / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.3275911 * z);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    0.5 * poly * (-z * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_function_known_values() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-7);
        assert!((q_function(1.0) - 0.158_655).abs() < 1e-4);
        assert!((q_function(3.0) - 1.349_9e-3).abs() < 1e-5);
        assert!((q_function(-1.0) - 0.841_345).abs() < 1e-4);
    }

    #[test]
    fn ber_estimate_math() {
        let e = BerEstimate {
            bits: 1000,
            errors: 0,
        };
        assert_eq!(e.ber(), 0.0);
        assert!((e.ber_upper95() - 3e-3).abs() < 1e-9);
        let e = BerEstimate {
            bits: 1_000_000,
            errors: 100,
        };
        assert!((e.ber() - 1e-4).abs() < 1e-12);
    }

    fn behavioral(att_db: f64) -> BehavioralLink {
        let link = AnalogLink::paper_default(Pvt::nominal(), ChannelModel::lossy(att_db));
        BehavioralLink::from_analog(&link, Hertz::from_ghz(2.0)).expect("characterizes")
    }

    #[test]
    fn low_loss_is_error_free() {
        let l = behavioral(10.0);
        assert!(l.margin().value() > 0.0);
        assert!(l.flip_probability_jitter_eroded() < 1e-9);
    }

    #[test]
    fn extreme_loss_fails() {
        let l = behavioral(50.0);
        assert!(l.margin().value() < 0.0, "50 dB closes the eye");
        assert_eq!(l.flip_probability_jitter_eroded(), 0.5);
    }

    #[test]
    fn ber_monotonic_in_loss() {
        let mut prev = 0.0;
        for db in [20.0, 30.0, 36.0, 40.0] {
            let b = behavioral(db).flip_probability_jitter_eroded();
            assert!(b >= prev, "BER must grow with loss ({db} dB)");
            prev = b;
        }
    }

    #[test]
    fn flip_probabilities_order_sensibly() {
        let l = behavioral(34.0);
        assert!(
            l.flip_probability() <= l.flip_probability_jitter_eroded(),
            "jitter erosion can only raise the flip probability"
        );
        let closed = behavioral(50.0);
        assert_eq!(closed.flip_probability(), 0.5);
        assert_eq!(closed.flip_probability_jitter_eroded(), 0.5);
    }

    #[test]
    fn analog_link_round_trip_clean_channel() {
        // Full transistor-level path at 1 Gb/s over a mild channel.
        let link = AnalogLink::paper_default(Pvt::nominal(), ChannelModel::lossy(20.0));
        let bits = [
            true, false, true, true, false, false, true, false, true, false,
        ];
        let run = link
            .transmit(&bits, Time::from_ps(1000.0))
            .expect("transients run");
        let (_, errors) = run.recover(&link.sampler, 3);
        assert_eq!(errors, 0, "clean channel must recover all bits");
    }
}
