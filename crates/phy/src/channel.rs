//! Lossy serial-channel models.
//!
//! The paper characterizes its channel by attenuation (up to 34–40 dB)
//! into a capacitive termination. For BER work we add the impairments
//! that actually close an eye: a low-pass pole (ISI), additive Gaussian
//! noise, and random + deterministic jitter — all seeded and
//! reproducible. Presets cover the application scenarios of §VI-b: PCIe
//! lanes and EMIB-style chiplet interconnects.

use openserdes_analog::noise::{add_gaussian_noise, apply_jitter};
use openserdes_analog::Waveform;
use openserdes_pdk::units::{Hertz, Time, Volt};

/// A serial channel: attenuation, bandwidth and impairments.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelModel {
    /// Flat attenuation in dB (positive = loss).
    pub attenuation_db: f64,
    /// Single-pole low-pass bandwidth.
    pub bandwidth: Hertz,
    /// RMS additive voltage noise at the receiver input.
    pub noise_sigma: Volt,
    /// RMS random jitter.
    pub rj_sigma: Time,
    /// Peak-to-peak deterministic (sinusoidal) jitter.
    pub dj_pp: Time,
    /// Frequency of the deterministic jitter tone.
    pub dj_freq: Hertz,
    /// PRNG seed for the stochastic impairments.
    pub seed: u64,
}

impl ChannelModel {
    /// An impairment-free wire (useful for calibration).
    pub fn ideal() -> Self {
        Self {
            attenuation_db: 0.0,
            bandwidth: Hertz::from_ghz(1000.0),
            noise_sigma: Volt::new(0.0),
            rj_sigma: Time::new(0.0),
            dj_pp: Time::new(0.0),
            dj_freq: Hertz::from_mhz(100.0),
            seed: 1,
        }
    }

    /// A flat attenuator of `db` with mild wideband behaviour — the
    /// paper's evaluation channel (34 dB at 2 Gb/s).
    pub fn lossy(db: f64) -> Self {
        Self {
            attenuation_db: db,
            bandwidth: Hertz::from_ghz(6.0),
            noise_sigma: Volt::from_mv(0.3),
            rj_sigma: Time::from_ps(1.5),
            dj_pp: Time::from_ps(3.0),
            dj_freq: Hertz::from_mhz(123.0),
            seed: 0xC0FFEE,
        }
    }

    /// An EMIB-style short-reach chiplet link: 1–5 dB loss, clean.
    pub fn emib(db: f64) -> Self {
        assert!((0.0..=6.0).contains(&db), "EMIB channels lose 1-5 dB");
        Self {
            attenuation_db: db,
            bandwidth: Hertz::from_ghz(20.0),
            noise_sigma: Volt::from_mv(0.5),
            rj_sigma: Time::from_ps(1.0),
            dj_pp: Time::from_ps(2.0),
            dj_freq: Hertz::from_mhz(200.0),
            seed: 0xE1B,
        }
    }

    /// A PCIe-class board channel: moderate loss, band-limited.
    pub fn pcie(db: f64) -> Self {
        Self {
            attenuation_db: db,
            bandwidth: Hertz::from_ghz(4.0),
            noise_sigma: Volt::from_mv(2.0),
            rj_sigma: Time::from_ps(3.0),
            dj_pp: Time::from_ps(6.0),
            dj_freq: Hertz::from_mhz(33.0),
            seed: 0x9C1E,
        }
    }

    /// Linear amplitude factor corresponding to the attenuation.
    pub fn gain(&self) -> f64 {
        10.0f64.powf(-self.attenuation_db / 20.0)
    }

    /// Propagates a waveform through the channel: attenuate, low-pass,
    /// jitter, noise. The waveform mean is preserved as the common-mode
    /// reference (the receiver AC-couples anyway).
    pub fn apply(&self, input: &Waveform) -> Waveform {
        let g = self.gain();
        let mid = 0.5 * (input.max() + input.min());
        let attenuated = input.map(|v| mid + (v - mid) * g);

        // Single-pole IIR low-pass.
        let tau = 1.0 / (2.0 * std::f64::consts::PI * self.bandwidth.value());
        let alpha = input.dt() / (tau + input.dt());
        let mut y = attenuated.samples()[0];
        let filtered: Vec<f64> = attenuated
            .samples()
            .iter()
            .map(|&x| {
                y += alpha * (x - y);
                y
            })
            .collect();
        let filtered = Waveform::new(input.t0(), input.dt(), filtered);

        let jittered = apply_jitter(
            &filtered,
            self.rj_sigma.value(),
            self.dj_pp.value(),
            self.dj_freq.value(),
            self.seed,
        );
        add_gaussian_noise(&jittered, self.noise_sigma.value(), self.seed ^ 0x5EED)
    }
}

impl Default for ChannelModel {
    fn default() -> Self {
        Self::lossy(34.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern() -> Waveform {
        let bits: Vec<bool> = (0..40).map(|i| (i * 7) % 3 == 0).collect();
        Waveform::nrz(&bits, 500e-12, 25e-12, 0.0, 1.8, 64)
    }

    #[test]
    fn attenuation_is_db_accurate() {
        let mut ch = ChannelModel::ideal();
        ch.attenuation_db = 34.0;
        let out = ch.apply(&pattern());
        let expected = 1.8 * 10f64.powf(-34.0 / 20.0);
        let got = out.amplitude();
        assert!(
            (got - expected).abs() / expected < 0.1,
            "amplitude {got:.4} vs {expected:.4}"
        );
    }

    #[test]
    fn gain_of_34db_is_2_percent() {
        let ch = ChannelModel::lossy(34.0);
        assert!((ch.gain() - 0.01995).abs() < 1e-4);
    }

    #[test]
    fn common_mode_preserved() {
        let mut ch = ChannelModel::ideal();
        ch.attenuation_db = 20.0;
        let out = ch.apply(&pattern());
        assert!((out.mean() - 0.9).abs() < 0.05, "mean = {}", out.mean());
    }

    #[test]
    fn low_bandwidth_slows_edges() {
        let mut fast = ChannelModel::ideal();
        fast.bandwidth = Hertz::from_ghz(50.0);
        let mut slow = ChannelModel::ideal();
        slow.bandwidth = Hertz::from_ghz(1.0);
        let rt_fast = fast.apply(&pattern()).rise_time().expect("edge");
        let rt_slow = slow.apply(&pattern()).rise_time().expect("edge");
        assert!(rt_slow > rt_fast * 2.0, "{rt_slow} vs {rt_fast}");
    }

    #[test]
    fn impairments_are_reproducible() {
        let ch = ChannelModel::lossy(20.0);
        let a = ch.apply(&pattern());
        let b = ch.apply(&pattern());
        assert_eq!(a.samples(), b.samples());
    }

    #[test]
    fn ideal_channel_is_transparent() {
        let ch = ChannelModel::ideal();
        let input = pattern();
        let out = ch.apply(&input);
        let err: f64 = input
            .samples()
            .iter()
            .zip(out.samples())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 0.05, "max deviation {err}");
    }

    #[test]
    #[should_panic(expected = "EMIB")]
    fn emib_range_checked() {
        let _ = ChannelModel::emib(30.0);
    }
}
