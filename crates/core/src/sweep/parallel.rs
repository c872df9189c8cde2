//! Parallel sweep engine.
//!
//! Monte-Carlo sweeps — bathtub phases, bisection probes, data-rate
//! points, PVT corners — are embarrassingly parallel *if* every work
//! item owns its randomness. The engine here guarantees that:
//!
//! * every item derives its own RNG stream from the caller's seed and
//!   the item index alone ([`derive_seed`], the same derivation the
//!   sequential code uses), and
//! * results come back in input order, regardless of which worker
//!   finished first.
//!
//! Consequently every [`Sweep`] run is **bit-identical** for any
//! [`Sweep::with_threads`] value — parallelism changes wall time, never
//! results. [`Sweep::max_loss`] keeps that promise for an inherently
//! sequential loop by *speculating* ([`bisect_speculative`]): it
//! evaluates the whole midpoint tree the bisection could visit next and
//! then walks it, so the bracket sequence is exactly the sequential one.
//!
//! Each link-level sweep fans out once, in its fault-isolated form:
//! every item runs under `catch_unwind` and reports its own result or
//! panic message. The [`Sweep`] methods return the first failure in
//! input order and re-raise a panicked item with its own message, so
//! which item fails never depends on worker scheduling.
//!
//! Built on `std::thread::scope` — no runtime dependency.
//!
//! The generic primitives (order-preserving map, speculative bisection)
//! live in [`openserdes_analog::par`] so the analog sweeps share the
//! same engine; this module re-exports them and keeps the link-level
//! sweeps.

use super::{BathtubPoint, Slot, Sweep, SweepPoint};
use crate::error::Error;
use crate::link::LinkConfig;
pub use openserdes_analog::par::{
    bisect_speculative, default_threads, map, map_with_threads, try_map_with_threads,
};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::{Hertz, Volt};
use openserdes_phy::{FrontEndConfig, RxFrontEnd};
use openserdes_telemetry as telemetry;

/// Derives work item `k`'s RNG seed from the run seed. This is the
/// contract the sequential sweeps already use (a Weyl-style odd
/// multiplier decorrelates neighbouring indices); parallel fan-out keeps
/// it so each item's random stream is identical either way.
pub fn derive_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9)
}

/// The bathtub fan-out, one isolated item per phase. Each phase's RNG
/// is derived from `(seed, phase index)`, so the curve is seed-identical
/// at any worker count. The shared setup (PRBS stream, statistical
/// model) fails the whole call — without it no phase is meaningful.
pub(crate) fn bathtub(
    sweep: &Sweep,
    config: &LinkConfig,
) -> Result<Vec<Slot<BathtubPoint>>, Error> {
    let _span = telemetry::span("sweep.bathtub");
    let (bits, model) = super::bathtub_setup(config, sweep.nbits)?;
    let ks: Vec<usize> = (0..sweep.phases).collect();
    Ok(try_map_with_threads(&ks, sweep.threads, |_, &k| {
        Ok(super::bathtub_point(
            &bits,
            &model,
            k,
            sweep.phases,
            sweep.seed,
        ))
    }))
}

/// The rate-sweep fan-out, one isolated item per rate in `rates` order;
/// each item runs the sequential loss bisection on its point's
/// sensitivity. The front-end characterization depends only on the PVT
/// point, so it is solved once and shared; if it fails, each point
/// re-solves its own sensitivity inside its isolated item instead of
/// failing the sweep.
pub(crate) fn rate_sweep(
    sweep: &Sweep,
    base: &LinkConfig,
    rates: &[Hertz],
) -> Vec<Slot<SweepPoint>> {
    let _span = telemetry::span("sweep.rate_sweep");
    let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), base.pvt);
    let ss = fe.small_signal().ok();
    try_map_with_threads(rates, sweep.threads, |_, &rate| {
        telemetry::counter("sweep.rate_points", 1);
        let mut cfg = base.clone();
        cfg.data_rate = rate;
        let sensitivity = match &ss {
            Some(ss) => fe.sensitivity_with(ss, rate),
            None => fe.sensitivity(rate)?,
        };
        let max_loss_db = super::bisect_loss(&cfg, sensitivity, sweep.frames, sweep.tol_db)?;
        Ok(SweepPoint {
            data_rate: rate,
            sensitivity,
            max_loss_db,
        })
    })
}

/// One corner sweep entry: the PVT point, its measured loss budget and
/// its front-end sensitivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerPoint {
    /// The process/voltage/temperature point.
    pub pvt: Pvt,
    /// Maximum error-free channel attenuation at that corner.
    pub max_loss_db: f64,
    /// Behavioural front-end sensitivity at the base data rate:
    /// [`RxFrontEnd::sensitivity`] of the corner's own front end, whose
    /// bias point is one sequential DC solve.
    pub sensitivity: Volt,
}

/// The corner-sweep fan-out over the three classic PVT corners
/// (tt/ss/ff), one isolated item per corner in
/// `[nominal, worst_case, best_case]` order. Each item characterizes
/// its own front end once, and bisects its own loss budget on that
/// sensitivity.
pub(crate) fn corner_sweep(sweep: &Sweep, base: &LinkConfig) -> Vec<Slot<CornerPoint>> {
    let _span = telemetry::span("sweep.corner_sweep");
    let corners = [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()];
    try_map_with_threads(&corners, sweep.threads, |_, &pvt| {
        telemetry::counter("sweep.corner_points", 1);
        let mut cfg = base.clone();
        cfg.pvt = pvt;
        let sensitivity = crate::link::front_end_sensitivity(&cfg)?;
        Ok(CornerPoint {
            pvt,
            max_loss_db: super::bisect_loss(&cfg, sensitivity, sweep.frames, sweep.tol_db)?,
            sensitivity,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{bathtub_impl, max_loss_impl, Sweep};

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..57).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_with_threads(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map(&empty, |_, &x: &usize| x).is_empty());
    }

    #[test]
    fn derive_seed_decorrelates_indices() {
        let s0 = derive_seed(42, 0);
        let s1 = derive_seed(42, 1);
        let s2 = derive_seed(42, 2);
        assert_eq!(s0, 42, "index 0 keeps the run seed");
        assert!(s0 != s1 && s1 != s2 && s0 != s2);
    }

    #[test]
    fn parallel_bathtub_is_seed_identical() {
        let cfg = LinkConfig::paper_default();
        let seq = bathtub_impl(&cfg, 4_000, 12, 9).expect("sequential");
        for threads in [1, 2, 4] {
            let par = Sweep::new()
                .with_bits(4_000)
                .with_phases(12)
                .with_seed(9)
                .with_threads(threads)
                .bathtub(&cfg)
                .expect("parallel");
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_bisect_is_seed_identical() {
        let base = LinkConfig::paper_default();
        let seq = max_loss_impl(&base, 4, 1.0).expect("sequential");
        for threads in [1, 3, 4] {
            let par = Sweep::new()
                .with_frames(4)
                .with_tolerance_db(1.0)
                .with_threads(threads)
                .max_loss(&base)
                .expect("parallel");
            assert_eq!(
                par.to_bits(),
                seq.to_bits(),
                "threads = {threads}: {par} vs {seq}"
            );
        }
    }

    #[test]
    fn corner_sweep_orders_and_ranks_corners() {
        let base = LinkConfig::paper_default();
        let sweep = Sweep::new()
            .with_frames(4)
            .with_tolerance_db(1.0)
            .with_threads(4);
        let pts = sweep.corner_sweep(&base).expect("runs");
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].pvt, Pvt::nominal());
        assert_eq!(pts[1].pvt, Pvt::worst_case());
        assert_eq!(pts[2].pvt, Pvt::best_case());
        assert!(
            pts[1].max_loss_db <= pts[0].max_loss_db,
            "ss must not beat tt: {} vs {}",
            pts[1].max_loss_db,
            pts[0].max_loss_db
        );
        // Each corner reports its own front end's characterization.
        for p in &pts {
            let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), p.pvt);
            let want = fe.sensitivity(base.data_rate).expect("solves").value();
            let got = p.sensitivity.value();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "corner {:?}: sweep sensitivity {got} vs direct {want}",
                p.pvt
            );
        }
    }

    #[test]
    fn rate_sweep_matches_pointwise_bisection() {
        let base = LinkConfig::paper_default();
        let rates = [Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)];
        let sweep = Sweep::new()
            .with_frames(4)
            .with_tolerance_db(1.0)
            .with_threads(4);
        let pts = sweep.rate_sweep(&base, &rates).expect("runs");
        assert_eq!(pts.len(), 2);
        for (pt, &rate) in pts.iter().zip(&rates) {
            let mut cfg = base.clone();
            cfg.data_rate = rate;
            let seq = max_loss_impl(&cfg, 4, 1.0).expect("sequential");
            assert_eq!(pt.data_rate, rate);
            assert_eq!(pt.max_loss_db.to_bits(), seq.to_bits());
        }
        assert!(
            pts[1].max_loss_db <= pts[0].max_loss_db,
            "loss falls with rate"
        );
    }
}
