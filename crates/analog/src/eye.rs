//! Eye-diagram analysis.
//!
//! Folds a waveform modulo the unit interval and extracts eye height and
//! eye width — the link-quality metrics behind the paper's sensitivity
//! and maximum-channel-loss sweeps (Fig. 9): a closed eye at the sampler
//! is what limits both.

use crate::waveform::Waveform;

/// Eye metrics extracted from a waveform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EyeDiagram {
    /// Unit interval used for folding, in seconds.
    pub ui: f64,
    /// Vertical opening at the sampling instant, in volts
    /// (`min(highs) − max(lows)`, negative when the eye is closed).
    pub height: f64,
    /// Horizontal opening, in seconds (UI minus peak-to-peak crossing
    /// jitter).
    pub width: f64,
    /// Sampling phase (offset from the mean crossing plus half a UI).
    pub sampling_phase: f64,
    /// Number of unit intervals analyzed.
    pub intervals: usize,
}

impl EyeDiagram {
    /// Analyzes `waveform` with unit interval `ui`, ignoring everything
    /// before `skip` (settling). `threshold` is the decision level.
    ///
    /// Returns `None` if fewer than two crossings or two intervals are
    /// available — too little data to form an eye.
    pub fn analyze(waveform: &Waveform, ui: f64, skip: f64, threshold: f64) -> Option<EyeDiagram> {
        let mut crossings: Vec<f64> = waveform
            .crossings(threshold, true)
            .into_iter()
            .chain(waveform.crossings(threshold, false))
            .filter(|&t| t >= skip)
            .collect();
        crossings.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        if crossings.len() < 2 {
            return None;
        }

        // Crossing phases folded into [0, ui), unwrapped around the first
        // crossing to avoid the wrap seam.
        let ref_phase = crossings[0] % ui;
        let deviations: Vec<f64> = crossings
            .iter()
            .map(|&t| {
                let mut d = (t % ui) - ref_phase;
                if d > ui / 2.0 {
                    d -= ui;
                }
                if d < -ui / 2.0 {
                    d += ui;
                }
                d
            })
            .collect();
        let min_dev = deviations.iter().copied().fold(f64::INFINITY, f64::min);
        let max_dev = deviations.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = ui - (max_dev - min_dev);
        let mean_dev = deviations.iter().sum::<f64>() / deviations.len() as f64;
        let sampling_phase = (ref_phase + mean_dev + ui / 2.0).rem_euclid(ui);

        // Vertical opening: sample mid-UI across the run.
        let start = (skip / ui).ceil() as usize;
        let stop = (waveform.t_end() / ui).floor() as usize;
        if stop <= start + 1 {
            return None;
        }
        let mut highs = Vec::new();
        let mut lows = Vec::new();
        for k in start..stop {
            let v = waveform.sample_at(k as f64 * ui + sampling_phase);
            if v > threshold {
                highs.push(v);
            } else {
                lows.push(v);
            }
        }
        if highs.is_empty() || lows.is_empty() {
            return None;
        }
        let height = highs.iter().copied().fold(f64::INFINITY, f64::min)
            - lows.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        Some(EyeDiagram {
            ui,
            height,
            width,
            sampling_phase,
            intervals: stop - start,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prbs_like() -> Vec<bool> {
        // A deterministic pseudo-random pattern with both run lengths.
        let mut x = 0b1011011u32;
        (0..64)
            .map(|_| {
                let bit = (x ^ (x >> 1)) & 1 == 1;
                x = (x >> 1) | (((x ^ (x >> 3)) & 1) << 6);
                bit
            })
            .collect()
    }

    #[test]
    fn clean_nrz_has_wide_open_eye() {
        let ui = 500e-12;
        let bits = prbs_like();
        let w = Waveform::nrz(&bits, ui, 50e-12, 0.0, 1.8, 32);
        let eye = EyeDiagram::analyze(&w, ui, 2.0 * ui, 0.9).expect("eye");
        assert!(eye.height > 1.5, "height = {}", eye.height);
        assert!(eye.width > 0.8 * ui, "width = {}", eye.width);
        assert!(eye.intervals > 50);
    }

    #[test]
    fn slow_edges_narrow_the_eye() {
        // Edges slower than the UI never settle: ISI closes the eye.
        let ui = 500e-12;
        let bits = prbs_like();
        let fast = Waveform::nrz(&bits, ui, 50e-12, 0.0, 1.8, 64);
        let slow = Waveform::nrz(&bits, ui, 650e-12, 0.0, 1.8, 64);
        let e_fast = EyeDiagram::analyze(&fast, ui, 2.0 * ui, 0.9).expect("eye");
        let e_slow = EyeDiagram::analyze(&slow, ui, 2.0 * ui, 0.9).expect("eye");
        assert!(
            e_slow.height < e_fast.height,
            "slow {} vs fast {}",
            e_slow.height,
            e_fast.height
        );
    }

    #[test]
    fn attenuated_signal_shrinks_height() {
        let ui = 500e-12;
        let bits = prbs_like();
        let big = Waveform::nrz(&bits, ui, 50e-12, 0.85, 0.95, 32);
        let eye = EyeDiagram::analyze(&big, ui, 2.0 * ui, 0.9).expect("eye");
        assert!(eye.height < 0.2, "height = {}", eye.height);
        assert!(eye.height > 0.0);
    }

    #[test]
    fn constant_waveform_has_no_eye() {
        let w = Waveform::constant(1.8, 0.0, 1e-12, 1000);
        assert!(EyeDiagram::analyze(&w, 500e-12, 0.0, 0.9).is_none());
    }

    #[test]
    fn too_short_run_rejected() {
        let w = Waveform::nrz(&[false, true], 500e-12, 50e-12, 0.0, 1.8, 16);
        assert!(EyeDiagram::analyze(&w, 500e-12, 400e-12, 0.9).is_none());
    }
}
