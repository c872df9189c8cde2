//! Transmit feed-forward equalization (FFE) — the TX equalization block
//! of the paper's generic SerDes architecture (§III, Fig. 3).
//!
//! The paper's own all-digital implementation omits equalization (its
//! channels are flat), but the architecture section motivates it: an FFE
//! pre-distorts the transmitted symbol over a few bit periods to cancel
//! the channel's inter-symbol interference. This module provides a
//! voltage-mode FIR FFE as an extension: per-bit levels from the tap
//! filter, a multi-level waveform generator, and eye-based evaluation
//! against band-limited channels.

use crate::channel::ChannelModel;
use openserdes_analog::{EyeDiagram, Waveform};

/// A transmit FIR equalizer. Tap 0 is the cursor (main) tap; taps 1..
/// apply to *previous* bits (post-cursors). Taps are normalized so the
/// peak output magnitude never exceeds the supply: `Σ|tap| = 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct TxFfe {
    taps: Vec<f64>,
}

impl TxFfe {
    /// A pass-through (no equalization) single-tap FFE.
    fn passthrough() -> Self {
        Self { taps: vec![1.0] }
    }

    /// The classic 2-tap de-emphasis FFE: `post` is the post-cursor
    /// strength in `0.0..1.0` (e.g. 0.25 ≈ −2.5 dB de-emphasis).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= post < 1.0`.
    pub fn two_tap(post: f64) -> Self {
        assert!((0.0..1.0).contains(&post), "post-cursor in 0.0..1.0");
        Self::new(vec![1.0 - post, -post])
    }

    /// An FFE from raw tap weights (cursor first), normalized to
    /// `Σ|tap| = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `taps` is empty or all-zero.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "need at least the cursor tap");
        let norm: f64 = taps.iter().map(|t| t.abs()).sum();
        assert!(norm > 0.0, "taps must not all be zero");
        Self {
            taps: taps.into_iter().map(|t| t / norm).collect(),
        }
    }

    /// Per-bit output levels in `[-1, 1]` (bits map to ±1 before
    /// filtering; bits before the start are taken as the first bit).
    pub fn levels(&self, bits: &[bool]) -> Vec<f64> {
        let sym = |i: isize| -> f64 {
            let idx = i.clamp(0, bits.len() as isize - 1) as usize;
            if bits[idx] {
                1.0
            } else {
                -1.0
            }
        };
        (0..bits.len() as isize)
            .map(|i| {
                self.taps
                    .iter()
                    .enumerate()
                    .map(|(k, &t)| t * sym(i - k as isize))
                    .sum()
            })
            .collect()
    }

    /// Builds the multi-level transmit waveform: levels ride around
    /// `vdd/2` with full-scale swing `vdd`, linear transitions of `rise`
    /// seconds, `oversample` samples per UI.
    pub fn waveform(
        &self,
        bits: &[bool],
        ui: f64,
        rise: f64,
        vdd: f64,
        oversample: usize,
    ) -> Waveform {
        assert!(oversample >= 2, "need at least 2 samples per UI");
        let levels = self.levels(bits);
        let volt = |l: f64| 0.5 * vdd * (1.0 + l);
        let dt = ui / oversample as f64;
        Waveform::from_fn(0.0, dt, bits.len() * oversample, |t| {
            let k = ((t / ui).floor() as usize).min(levels.len() - 1);
            let target = volt(levels[k]);
            let prev = if k == 0 { target } else { volt(levels[k - 1]) };
            let into = t - k as f64 * ui;
            if into >= rise || (prev - target).abs() < 1e-12 {
                target
            } else {
                prev + (target - prev) * (into / rise)
            }
        })
    }

    /// Measures the post-channel eye height for `bits` through `channel`
    /// at the given UI, with and without this FFE. Returns
    /// `(without, with)` eye heights in volts (0 when the eye is closed
    /// or unmeasurable).
    pub fn eye_improvement(
        &self,
        bits: &[bool],
        ui: f64,
        vdd: f64,
        channel: &ChannelModel,
    ) -> (f64, f64) {
        let measure = |ffe: &TxFfe| -> f64 {
            let tx = ffe.waveform(bits, ui, ui / 10.0, vdd, 32);
            let rx = channel.apply(&tx);
            EyeDiagram::analyze(&rx, ui, 4.0 * ui, rx.mean())
                .map(|e| e.height.max(0.0))
                .unwrap_or(0.0)
        };
        (measure(&TxFfe::passthrough()), measure(self))
    }
}

impl Default for TxFfe {
    fn default() -> Self {
        Self::passthrough()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_pdk::units::Hertz;

    fn test_bits() -> Vec<bool> {
        // Mixed run lengths: the patterns ISI hurts most.
        let mut x = 0x5Au32;
        (0..96)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                (x >> 16) & 1 == 1
            })
            .collect()
    }

    #[test]
    fn passthrough_levels_are_binary() {
        let ffe = TxFfe::passthrough();
        let bits = [true, false, true, true];
        assert_eq!(ffe.levels(&bits), vec![1.0, -1.0, 1.0, 1.0]);
    }

    #[test]
    fn two_tap_deemphasizes_repeats() {
        // After a transition the level is full scale; on a repeated bit
        // it relaxes toward the de-emphasized level.
        let ffe = TxFfe::two_tap(0.25);
        let levels = ffe.levels(&[false, true, true, true]);
        assert!(levels[1] > levels[2], "transition bit boosted");
        assert!((levels[2] - levels[3]).abs() < 1e-12, "steady state flat");
        assert!(
            (levels[1] - 1.0).abs() < 1e-12,
            "transition hits full scale"
        );
        assert!((levels[2] - 0.5).abs() < 1e-12, "repeat at 1−2·post");
    }

    #[test]
    fn taps_normalized() {
        let ffe = TxFfe::new(vec![3.0, -1.0]);
        let s: f64 = ffe.taps.iter().map(|t| t.abs()).sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn waveform_never_exceeds_rails() {
        let ffe = TxFfe::two_tap(0.3);
        let w = ffe.waveform(&test_bits(), 500e-12, 50e-12, 1.8, 16);
        assert!(w.min() >= -1e-9);
        assert!(w.max() <= 1.8 + 1e-9);
    }

    #[test]
    fn ffe_opens_the_eye_on_a_band_limited_channel() {
        // A single-pole channel with memory a = e^(−T/τ) is perfectly
        // equalized by a 2-tap FFE with post = a/(1+a). At 2 Gb/s over a
        // 350 MHz pole: a ≈ 0.33 → post ≈ 0.25. The heavy ISI without
        // equalization must give way to a visibly wider eye with it.
        let mut ch = ChannelModel::ideal();
        ch.bandwidth = Hertz::from_mhz(350.0);
        ch.attenuation_db = 6.0;
        let ffe = TxFfe::two_tap(0.25);
        let (without, with) = ffe.eye_improvement(&test_bits(), 500e-12, 1.8, &ch);
        assert!(
            with > without * 1.25,
            "FFE must open the eye: {with:.4} vs {without:.4}"
        );
    }

    #[test]
    fn optimal_tap_tracks_channel_memory() {
        // Sweep the post tap against a fixed channel: the best tap sits
        // near the analytic optimum, not at the extremes.
        let mut ch = ChannelModel::ideal();
        ch.bandwidth = Hertz::from_mhz(350.0);
        let bits = test_bits();
        let eye_at = |post: f64| {
            let ffe = if post == 0.0 {
                TxFfe::passthrough()
            } else {
                TxFfe::two_tap(post)
            };
            ffe.eye_improvement(&bits, 500e-12, 1.8, &ch).1
        };
        let weak = eye_at(0.05);
        let good = eye_at(0.25);
        let strong = eye_at(0.6);
        assert!(good > weak, "0.25 beats under-equalizing: {good} vs {weak}");
        assert!(
            good > strong,
            "0.25 beats over-equalizing: {good} vs {strong}"
        );
    }

    #[test]
    fn ffe_unnecessary_on_a_clean_channel() {
        // On a wideband channel de-emphasis just wastes swing.
        let ch = ChannelModel::ideal();
        let ffe = TxFfe::two_tap(0.3);
        let (without, with) = ffe.eye_improvement(&test_bits(), 500e-12, 1.8, &ch);
        assert!(without > with, "de-emphasis costs swing when ISI-free");
    }

    #[test]
    #[should_panic(expected = "post-cursor in 0.0..1.0")]
    fn post_tap_range_checked() {
        let _ = TxFfe::two_tap(1.5);
    }
}
