//! Uniformly-sampled analog waveforms and measurements.
//!
//! The transient solver produces a [`Waveform`] per circuit node; the PHY
//! layers measure them (swing, edges, delay, sampled bits) the way the
//! paper reads its Virtuoso plots (Figs. 4, 6, 8). Samples are voltages
//! in volts on a uniform time grid in seconds.

use std::fmt;

/// A uniformly-sampled real-valued waveform.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Waveform {
    t0: f64,
    dt: f64,
    samples: Vec<f64>,
}

impl Waveform {
    /// Creates a waveform from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0` or `samples` is empty.
    pub fn new(t0: f64, dt: f64, samples: Vec<f64>) -> Self {
        assert!(dt > 0.0 && dt.is_finite(), "dt must be positive");
        assert!(!samples.is_empty(), "waveform needs at least one sample");
        Self { t0, dt, samples }
    }

    /// A constant waveform of `n` samples.
    pub fn constant(value: f64, t0: f64, dt: f64, n: usize) -> Self {
        Self::new(t0, dt, vec![value; n])
    }

    /// Samples `f(t)` on a uniform grid of `n` points starting at `t0`.
    pub fn from_fn(t0: f64, dt: f64, n: usize, f: impl Fn(f64) -> f64) -> Self {
        Self::new(t0, dt, (0..n).map(|i| f(t0 + i as f64 * dt)).collect())
    }

    /// An ideal NRZ bit pattern with linear transitions.
    ///
    /// `bit_time` is the unit interval, `rise` the 0→100 % transition
    /// time, `v0`/`v1` the low/high levels; `oversample` samples are
    /// produced per unit interval.
    pub fn nrz(
        bits: &[bool],
        bit_time: f64,
        rise: f64,
        v0: f64,
        v1: f64,
        oversample: usize,
    ) -> Self {
        assert!(oversample >= 2, "need at least 2 samples per UI");
        let dt = bit_time / oversample as f64;
        let n = bits.len() * oversample;
        let level = |bit: bool| if bit { v1 } else { v0 };
        Self::from_fn(0.0, dt, n, |t| {
            let k = (t / bit_time).floor() as usize;
            let k = k.min(bits.len() - 1);
            let target = level(bits[k]);
            let prev = if k == 0 { target } else { level(bits[k - 1]) };
            let into = t - k as f64 * bit_time;
            if into >= rise || prev == target {
                target
            } else {
                prev + (target - prev) * (into / rise)
            }
        })
    }

    /// Start time.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Sample spacing.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// End time (time of the last sample).
    pub fn t_end(&self) -> f64 {
        self.t0 + (self.samples.len() - 1) as f64 * self.dt
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the waveform has no samples (cannot happen for
    /// constructed waveforms, kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Raw sample slice.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Linear interpolation at time `t` (clamped to the ends).
    pub fn sample_at(&self, t: f64) -> f64 {
        let x = (t - self.t0) / self.dt;
        if x <= 0.0 {
            return self.samples[0];
        }
        let last = self.samples.len() - 1;
        if x >= last as f64 {
            return self.samples[last];
        }
        let i = x.floor() as usize;
        let frac = x - i as f64;
        self.samples[i] * (1.0 - frac) + self.samples[i + 1] * frac
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value.
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Peak-to-peak amplitude.
    pub fn amplitude(&self) -> f64 {
        self.max() - self.min()
    }

    /// Mean value.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Times of threshold crossings in the given direction (linear
    /// interpolation between samples).
    pub fn crossings(&self, threshold: f64, rising: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 1..self.samples.len() {
            let (a, b) = (self.samples[i - 1], self.samples[i]);
            let crossed = if rising {
                a < threshold && b >= threshold
            } else {
                a > threshold && b <= threshold
            };
            if crossed {
                let frac = (threshold - a) / (b - a);
                out.push(self.t0 + (i as f64 - 1.0 + frac) * self.dt);
            }
        }
        out
    }

    /// 20–80 % rise time of the first rising edge, if one exists.
    pub fn rise_time(&self) -> Option<f64> {
        let lo = self.min() + 0.2 * self.amplitude();
        let hi = self.min() + 0.8 * self.amplitude();
        let t_lo = *self.crossings(lo, true).first()?;
        let t_hi = self.crossings(hi, true).into_iter().find(|&t| t > t_lo)?;
        Some(t_hi - t_lo)
    }

    /// Samples the waveform at the centre of each unit interval and
    /// slices against `threshold`, returning the recovered bits.
    pub fn slice_bits(&self, bit_time: f64, phase: f64, threshold: f64, count: usize) -> Vec<bool> {
        (0..count)
            .map(|k| self.sample_at(self.t0 + phase + k as f64 * bit_time) > threshold)
            .collect()
    }

    /// Returns a new waveform with `f` applied to every sample.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Waveform {
        Waveform {
            t0: self.t0,
            dt: self.dt,
            samples: self.samples.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Largest pointwise absolute difference against `other`, sampled
    /// on this waveform's grid (the other waveform is resampled by
    /// interpolation). The metric the adaptive-step accuracy contract
    /// is stated in.
    pub fn max_abs_diff(&self, other: &Waveform) -> f64 {
        (0..self.samples.len())
            .map(|i| {
                let t = self.t0 + i as f64 * self.dt;
                (self.samples[i] - other.sample_at(t)).abs()
            })
            .fold(0.0f64, f64::max)
    }
}

impl fmt::Display for Waveform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "waveform[{} pts, {:.3}..{:.3} ns, {:.3}..{:.3} V]",
            self.len(),
            self.t0 * 1e9,
            self.t_end() * 1e9,
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_between_samples() {
        let w = Waveform::new(0.0, 1.0, vec![0.0, 1.0, 0.0]);
        assert_eq!(w.sample_at(0.5), 0.5);
        assert_eq!(w.sample_at(1.5), 0.5);
        assert_eq!(w.sample_at(-1.0), 0.0, "clamped left");
        assert_eq!(w.sample_at(9.0), 0.0, "clamped right");
    }

    #[test]
    fn min_max_amplitude_mean() {
        let w = Waveform::new(0.0, 1.0, vec![0.2, 1.8, 1.0]);
        assert_eq!(w.min(), 0.2);
        assert_eq!(w.max(), 1.8);
        assert!((w.amplitude() - 1.6).abs() < 1e-12);
        assert!((w.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crossings_found_with_subsample_accuracy() {
        // Phase-shifted sine so no sample grazes the threshold exactly.
        let w = Waveform::from_fn(0.0, 0.01, 100, |t| {
            (2.0 * std::f64::consts::PI * t - 0.25).sin()
        });
        let rising = w.crossings(0.0, true);
        assert_eq!(rising.len(), 1);
        assert!((rising[0] - 0.0398).abs() < 0.02, "rising at {}", rising[0]);
        let falling = w.crossings(0.0, false);
        assert_eq!(falling.len(), 1);
        assert!((falling[0] - 0.5398).abs() < 0.02);
    }

    #[test]
    fn nrz_pattern_levels_and_edges() {
        let bits = [false, true, true, false];
        let w = Waveform::nrz(&bits, 500e-12, 50e-12, 0.0, 1.8, 32);
        // Sample mid-UI: should match the bit levels.
        for (k, &b) in bits.iter().enumerate() {
            let v = w.sample_at((k as f64 + 0.5) * 500e-12);
            assert!((v - if b { 1.8 } else { 0.0 }).abs() < 1e-9, "bit {k}");
        }
        // One rising edge and one falling edge at bit boundaries.
        assert_eq!(w.crossings(0.9, true).len(), 1);
        assert_eq!(w.crossings(0.9, false).len(), 1);
    }

    #[test]
    fn rise_time_of_linear_ramp() {
        // 0→1 V linear over 100 samples of 1 ns: 20–80 % takes 60 ns.
        let w = Waveform::from_fn(0.0, 1e-9, 101, |t| (t / 100e-9).min(1.0));
        let rt = w.rise_time().expect("has a rising edge");
        assert!((rt - 60e-9).abs() < 2e-9, "rt = {rt}");
    }

    #[test]
    fn slice_bits_recovers_pattern() {
        let bits = [true, false, true, true, false, false, true, false];
        let w = Waveform::nrz(&bits, 500e-12, 50e-12, 0.0, 1.8, 16);
        let sliced = w.slice_bits(500e-12, 250e-12, 0.9, bits.len());
        assert_eq!(sliced, bits);
    }

    #[test]
    fn map_applies_per_sample() {
        let w = Waveform::new(0.0, 1.0, vec![1.0, 2.0]);
        let half = w.map(|v| v / 2.0);
        assert_eq!(half.samples(), &[0.5, 1.0]);
    }

    #[test]
    fn max_abs_diff_resamples_other_grid() {
        let a = Waveform::new(0.0, 1.0, vec![0.0, 1.0, 2.0]);
        let same = Waveform::new(0.0, 0.5, vec![0.0, 0.5, 1.0, 1.5, 2.0]);
        assert!(a.max_abs_diff(&same) < 1e-12, "identical ramps");
        let off = Waveform::new(0.0, 1.0, vec![0.0, 1.25, 2.0]);
        assert!((a.max_abs_diff(&off) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let _ = Waveform::new(0.0, 0.0, vec![1.0]);
    }

    #[test]
    fn display_mentions_range() {
        let w = Waveform::constant(0.9, 0.0, 1e-12, 10);
        let s = w.to_string();
        assert!(s.contains("10 pts"));
    }
}
