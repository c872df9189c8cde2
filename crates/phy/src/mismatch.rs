//! Monte-Carlo mismatch analysis of the receiver front end.
//!
//! The paper's silicon sensitivity (≈32 mV) is far above what an ideal
//! mismatch-free pair of inverters would need — local Vth variation
//! between the gain stage and the restorer shifts their switching
//! thresholds apart, and that offset eats directly into the input
//! budget. This module quantifies it: perturb every device's threshold
//! with the classic Pelgrom-style `σ(ΔVth) = A_vt / √(W·L)` model,
//! recompute both inverter thresholds, and refer the offset to the
//! front-end input. The statistics justify the `offset_margin`
//! guardband baked into [`crate::FrontEndConfig`].

use crate::frontend::{FrontEndConfig, RxFrontEnd};
use openserdes_analog::SolverError;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::mos::{MosDevice, MosParams};
use openserdes_pdk::units::Volt;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pelgrom matching coefficient for a sky130-class node, in V·µm
/// (σ(ΔVth) ≈ 5 mV for a 1 µm² device).
const PELGROM_AVT: f64 = 5.0e-3;

/// Result of a mismatch Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchStats {
    /// Number of samples drawn.
    pub samples: usize,
    /// Mean input-referred offset (V); ≈0 by construction.
    pub mean: Volt,
    /// Standard deviation of the input-referred offset.
    pub sigma: Volt,
    /// 99.7th-percentile magnitude (≈3σ for a Gaussian).
    pub p997: Volt,
    /// Worst sample seen.
    pub worst: Volt,
}

impl MismatchStats {
    /// `true` if `margin` covers the 3σ offset population.
    pub fn covered_by(&self, margin: Volt) -> bool {
        self.p997.value() <= margin.value()
    }
}

/// Switching threshold of an inverter built from (possibly perturbed)
/// devices: the `vin = vout` point, found by bisection on the current
/// balance `Idn(v, v) = Idp(vdd−v, vdd−v)`.
fn switching_threshold(nmos: &MosDevice, pmos: &MosDevice, vdd: f64) -> f64 {
    let balance = |v: f64| nmos.ids(v, v) - pmos.ids(vdd - v, vdd - v);
    let (mut lo, mut hi) = (0.0, vdd);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if balance(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// σ(ΔVth) for a device of the given geometry, per the Pelgrom model.
fn vth_sigma(w_um: f64, l_um: f64) -> f64 {
    PELGROM_AVT / (w_um * l_um).sqrt()
}

/// Runs a mismatch Monte-Carlo on the front end: every one of the four
/// devices (gain-stage N/P, restorer N/P) receives an independent
/// Gaussian Vth perturbation; the input-referred offset is the gain
/// stage's threshold shift plus the restorer's shift divided by the
/// gain-stage DC gain.
///
/// # Errors
///
/// Propagates solver failures from the nominal characterization.
pub fn monte_carlo(
    frontend: &RxFrontEnd,
    pvt: &Pvt,
    samples: usize,
    seed: u64,
) -> Result<MismatchStats, SolverError> {
    let cfg: &FrontEndConfig = frontend.config();
    let vdd = pvt.vdd.value();
    let gain = frontend.small_signal()?.gain;
    let nominal_n = MosParams::sky130_nmos(pvt);
    let nominal_p = MosParams::sky130_pmos(pvt);

    let build = |params_n: MosParams, params_p: MosParams, scale: f64| {
        (
            MosDevice::new(params_n, 0.65 * scale, 0.15),
            MosDevice::new(params_p, 1.0 * scale, 0.15),
        )
    };
    let (nom_gn, nom_gp) = build(nominal_n, nominal_p, cfg.gain_stage_scale);
    let (nom_rn, nom_rp) = build(nominal_n, nominal_p, cfg.restorer_scale);
    let vm_gain_nom = switching_threshold(&nom_gn, &nom_gp, vdd);
    let vm_rest_nom = switching_threshold(&nom_rn, &nom_rp, vdd);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut gauss = move |sigma: f64| -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen::<f64>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sigma
    };

    let mut offsets = Vec::with_capacity(samples);
    for _ in 0..samples {
        let sg_n = vth_sigma(0.65 * cfg.gain_stage_scale, 0.15);
        let sg_p = vth_sigma(1.0 * cfg.gain_stage_scale, 0.15);
        let sr_n = vth_sigma(0.65 * cfg.restorer_scale, 0.15);
        let sr_p = vth_sigma(1.0 * cfg.restorer_scale, 0.15);
        let (gn, gp) = (
            MosDevice::new(
                nominal_n.with_vth_offset(gauss(sg_n)),
                0.65 * cfg.gain_stage_scale,
                0.15,
            ),
            MosDevice::new(
                nominal_p.with_vth_offset(gauss(sg_p)),
                1.0 * cfg.gain_stage_scale,
                0.15,
            ),
        );
        let (rn, rp) = (
            MosDevice::new(
                nominal_n.with_vth_offset(gauss(sr_n)),
                0.65 * cfg.restorer_scale,
                0.15,
            ),
            MosDevice::new(
                nominal_p.with_vth_offset(gauss(sr_p)),
                1.0 * cfg.restorer_scale,
                0.15,
            ),
        );
        let d_gain = switching_threshold(&gn, &gp, vdd) - vm_gain_nom;
        let d_rest = switching_threshold(&rn, &rp, vdd) - vm_rest_nom;
        // The gain-stage threshold shift appears directly at the input
        // (the feedback re-biases there); the restorer's shift is
        // attenuated by the gain stage.
        offsets.push(d_gain + d_rest / gain);
    }

    let n = offsets.len() as f64;
    let mean = offsets.iter().sum::<f64>() / n;
    let var = offsets.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / n;
    let mut mags: Vec<f64> = offsets.iter().map(|o| o.abs()).collect();
    mags.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let p997 = mags[((mags.len() as f64 * 0.997) as usize).min(mags.len() - 1)];
    let worst = *mags.last().expect("nonempty");

    Ok(MismatchStats {
        samples,
        mean: Volt::new(mean),
        sigma: Volt::new(var.sqrt()),
        p997: Volt::new(p997),
        worst: Volt::new(worst),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::FrontEndConfig;

    fn fe() -> RxFrontEnd {
        RxFrontEnd::new(FrontEndConfig::paper_default(), Pvt::nominal())
    }

    #[test]
    fn threshold_bisection_near_midrail() {
        let pvt = Pvt::nominal();
        let n = MosDevice::new(MosParams::sky130_nmos(&pvt), 0.65, 0.15);
        let p = MosDevice::new(MosParams::sky130_pmos(&pvt), 1.0, 0.15);
        let vm = switching_threshold(&n, &p, 1.8);
        assert!((0.7..1.1).contains(&vm), "V_M = {vm}");
        // Shifting the NMOS threshold up moves V_M up.
        let n_hi = MosDevice::new(
            MosParams::sky130_nmos(&pvt).with_vth_offset(0.1),
            0.65,
            0.15,
        );
        assert!(switching_threshold(&n_hi, &p, 1.8) > vm);
    }

    #[test]
    fn pelgrom_sigma_shrinks_with_area() {
        assert!(vth_sigma(1.0, 0.15) > vth_sigma(10.0, 0.15));
        // A 1 µm² device: 5 mV by definition of the coefficient.
        assert!((vth_sigma(1.0, 1.0) - 5.0e-3).abs() < 1e-12);
    }

    #[test]
    fn monte_carlo_statistics_sane() {
        let pvt = Pvt::nominal();
        let stats = monte_carlo(&fe(), &pvt, 500, 7).expect("runs");
        assert_eq!(stats.samples, 500);
        assert!(stats.mean.value().abs() < 2e-3, "mean ≈ 0: {}", stats.mean);
        assert!(stats.sigma.mv() > 0.1, "nonzero spread");
        assert!(stats.p997.value() >= stats.sigma.value());
        assert!(stats.worst.value() >= stats.p997.value());
    }

    #[test]
    fn configured_margin_covers_mismatch_population() {
        // The offset_margin guardband in the sensitivity model must
        // cover the 3σ mismatch population — this is the calibration's
        // justification.
        let pvt = Pvt::nominal();
        let frontend = fe();
        let stats = monte_carlo(&frontend, &pvt, 1_000, 42).expect("runs");
        assert!(
            stats.covered_by(frontend.config().offset_margin),
            "margin {} must cover p99.7 offset {}",
            frontend.config().offset_margin,
            stats.p997
        );
    }

    #[test]
    fn bigger_devices_match_better() {
        let pvt = Pvt::nominal();
        let small = {
            let mut c = FrontEndConfig::paper_default();
            c.gain_stage_scale = 2.0;
            c.restorer_scale = 2.0;
            RxFrontEnd::new(c, pvt)
        };
        let s_small = monte_carlo(&small, &pvt, 400, 3).expect("runs");
        let s_big = monte_carlo(&fe(), &pvt, 400, 3).expect("runs");
        assert!(
            s_big.sigma.value() < s_small.sigma.value(),
            "σ: big {} vs small {}",
            s_big.sigma,
            s_small.sigma
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let pvt = Pvt::nominal();
        let a = monte_carlo(&fe(), &pvt, 100, 9).expect("runs");
        let b = monte_carlo(&fe(), &pvt, 100, 9).expect("runs");
        assert_eq!(a, b);
    }
}
