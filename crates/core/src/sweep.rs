//! Parameter sweeps: sensitivity and maximum channel loss vs data rate
//! (the paper's Fig. 9).
//!
//! Two independent routes to the same curve, both reachable through the
//! [`Sweep`] options builder:
//!
//! * [`Sweep::sensitivity`] — the model route: the front end's
//!   small-signal characterization evaluated across rates,
//! * [`Sweep::max_loss`] — the measurement route: bisect channel
//!   attenuation at each rate for the zero-BER boundary using the full
//!   link (serializer + statistical PHY + CDR + deserializer).
//!
//! Agreement between the two validates the behavioural model.

use crate::ber::BerTest;
use crate::bitstream::BitVec;
use crate::error::Error;
use crate::link::{self, LinkConfig};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::{Hertz, Volt};
use openserdes_phy::{ChannelModel, FrontEndConfig, RxFrontEnd};
use openserdes_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

pub mod parallel;

/// One point of the Fig. 9 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Data rate.
    pub data_rate: Hertz,
    /// Receiver sensitivity (minimum pp input swing).
    pub sensitivity: Volt,
    /// Maximum channel loss for error-free operation at full TX swing.
    pub max_loss_db: f64,
}

/// The loss bisection's frame, shared by [`Sweep::max_loss`] and the
/// per-point bisections of the rate and corner sweeps: a link already
/// failing at 0 dB reports 0, one still error-free at 60 dB reports 60,
/// and otherwise `bisect` narrows the `[0, 60]` dB bracket with the
/// error-free probe and returns its known-good end.
///
/// Only the attenuation changes between probes, so every probe runs on
/// `rx_sensitivity`, the front end's sensitivity at `base`'s PVT point
/// and rate, solved once by the caller.
fn max_loss_with(
    base: &LinkConfig,
    rx_sensitivity: Volt,
    frames: usize,
    bisect: impl FnOnce(f64, f64, &(dyn Fn(f64) -> Result<bool, Error> + Sync)) -> Result<f64, Error>,
) -> Result<f64, Error> {
    let _span = telemetry::span("sweep.max_loss_bisect");
    let error_free = |db: f64| -> Result<bool, Error> {
        telemetry::counter("sweep.bisect_probes", 1);
        let mut cfg = base.clone();
        cfg.channel = ChannelModel {
            attenuation_db: db,
            ..base.channel.clone()
        };
        let test = BerTest::prbs31(cfg, frames);
        let report = link::run_frames_characterized(
            &test.link,
            &test.stimulus(),
            test.seed,
            rx_sensitivity,
        )?;
        Ok(report.bit_errors == 0)
    };
    let (lo, hi) = (0.0f64, 60.0f64);
    if !error_free(lo)? {
        return Ok(0.0);
    }
    if error_free(hi)? {
        return Ok(hi);
    }
    bisect(lo, hi, &error_free)
}

/// Bisects the maximum channel attenuation (dB) at which a PRBS link run
/// of `frames` frames is still error-free, to within `tol_db`, on the
/// calling thread.
#[cfg(test)]
pub(crate) fn max_loss_impl(base: &LinkConfig, frames: usize, tol_db: f64) -> Result<f64, Error> {
    bisect_loss(base, link::front_end_sensitivity(base)?, frames, tol_db)
}

/// The sequential loss bisection of one rate or corner item, on the
/// front end's sensitivity there ([`max_loss_with`]).
fn bisect_loss(
    base: &LinkConfig,
    rx_sensitivity: Volt,
    frames: usize,
    tol_db: f64,
) -> Result<f64, Error> {
    max_loss_with(
        base,
        rx_sensitivity,
        frames,
        |mut lo, mut hi, error_free| {
            while hi - lo > tol_db {
                let mid = 0.5 * (lo + hi);
                // Adjacent floats: the midpoint rounds onto an end and the
                // bracket cannot narrow any further.
                if mid <= lo || mid >= hi {
                    break;
                }
                if error_free(mid)? {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Ok(lo)
        },
    )
}

/// One point of a BER bathtub curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BathtubPoint {
    /// Sampling phase within the unit interval, `0.0..1.0`.
    pub phase_ui: f64,
    /// Measured bit-error ratio at that phase.
    pub ber: f64,
}

/// The sequential bathtub the parallel fan-out must reproduce.
#[cfg(test)]
pub(crate) fn bathtub_impl(
    config: &LinkConfig,
    nbits: usize,
    phases: usize,
    seed: u64,
) -> Result<Vec<BathtubPoint>, Error> {
    let _span = telemetry::span("sweep.bathtub");
    let (bits, model) = bathtub_setup(config, nbits)?;
    Ok((0..phases)
        .map(|k| bathtub_point(&bits, &model, k, phases, seed))
        .collect())
}

/// The per-UI statistics one bathtub needs, extracted once so each phase
/// (and each parallel worker) shares the identical model.
#[derive(Debug, Clone, Copy)]
struct BathtubModel {
    flip: f64,
    rj_ui: f64,
    dj_ui: f64,
    blur_ui: f64,
}

impl BathtubModel {
    /// A bound on a bit's rounded jitter, `rj·g + dj·sin(…)`, over every
    /// draw with `|g| ≤ radius`, padded for rounding. NaN or infinite
    /// for a NaN or infinite `rj` or `dj`.
    fn reach(&self, radius: f64) -> f64 {
        (self.rj_ui.abs() * radius + self.dj_ui.abs()) * crate::cdr::BOUND_PAD
    }
}

/// How a bathtub bit is sampled, as far as a bound on its jitter
/// decides it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    /// Its own value.
    Own,
    /// The previous bit: the leading edge came after the sampling point.
    Prev,
    /// The next bit: the trailing edge came before it.
    Next,
    /// A blur coin on the leading edge: heads reads the previous bit.
    CoinPrev,
    /// A blur coin on the trailing edge: heads reads the next bit.
    CoinNext,
    /// The bound cannot decide; the bit takes its full draw.
    Exact,
}

/// One phase's bits settled from bounds on their jitter, by edge
/// pattern (bit 0: a transition into the bit, bit 1: one out of it).
/// A bit whose `u1` is at least `u1_min` takes `inner`, every other
/// bit `outer`.
///
/// A bit's jitter is `rj·g + dj·sin(…)`, where `|g| ≤ R` for every draw
/// (`cdr::max_gauss_radius`), and `|g| ≤ r` wherever `u1` is at least
/// `exp(−(r/BOUND_PAD)²/2)`, for a radius `r ≥ 1`. So the rounded
/// jitter lies within `±(|rj|·r + |dj|)·BOUND_PAD`. Each distance the
/// per-bit loop tests is a rounded difference that is monotone in the
/// jitter, so evaluating the loop's tests at both ends of that interval
/// decides them for every jitter in it, or finds that they differ.
#[derive(Debug)]
struct PhaseBounds {
    u1_min: f64,
    inner: [Branch; 4],
    outer: [Branch; 4],
}

impl PhaseBounds {
    /// The bounds at `phase`. The inner radius keeps the jitter interval
    /// clear of every value at which one of the loop's tests changes
    /// its answer. It gets a threshold only when it is at least 1,
    /// where the threshold's rounding is far inside `BOUND_PAD`. A NaN
    /// or infinite `rj` or `dj` makes every bound NaN or infinite, and
    /// every bit with an edge exact.
    fn new(model: &BathtubModel, phase: f64) -> Self {
        use crate::cdr::{max_gauss_radius, BOUND_PAD};
        let half = model.blur_ui / 2.0;
        let table = |reach: f64| {
            std::array::from_fn(|p| branch(phase, half, reach, p & 1 == 1, p & 2 == 2))
        };
        let turns = [
            phase - half,
            phase + half,
            phase,
            phase - 1.0 - half,
            phase - 1.0 + half,
            phase - 1.0,
        ];
        let clearance = turns.iter().fold(f64::INFINITY, |m, t| m.min(t.abs()));
        let radius = ((clearance / BOUND_PAD / BOUND_PAD - model.dj_ui.abs()) / model.rj_ui.abs())
            .min(max_gauss_radius());
        let u1_min = if radius >= 1.0 {
            (-0.5 * (radius / BOUND_PAD).powi(2)).exp()
        } else {
            f64::INFINITY
        };
        Self {
            u1_min,
            inner: table(model.reach(radius)),
            outer: table(model.reach(max_gauss_radius())),
        }
    }
}

/// The branch of the per-bit loop for a bit with a leading and/or
/// trailing transition at `phase`, for every jitter in
/// `[−reach, reach]`: the loop's tests in its order, each evaluated at
/// the interval's two ends.
fn branch(phase: f64, half_blur: f64, reach: f64, lead: bool, trail: bool) -> Branch {
    // The distances `phase − jitter` and `phase − (1 + jitter)` at
    // jitter `reach` and `−reach`, as (smallest, largest).
    let lead_d = (phase - reach, phase - -reach);
    let trail_d = (phase - (1.0 + reach), phase - (1.0 + -reach));
    // `Some(answer)` where the test agrees over the interval.
    let decided = |all: bool, none: bool| (all || none).then_some(all);
    let in_blur = |(lo, hi): (f64, f64)| {
        decided(
            lo > -half_blur && hi < half_blur,
            lo >= half_blur || hi <= -half_blur,
        )
    };
    let tests = [
        (lead, in_blur(lead_d), Branch::CoinPrev),
        (trail, in_blur(trail_d), Branch::CoinNext),
        (lead, decided(lead_d.1 < 0.0, lead_d.0 >= 0.0), Branch::Prev),
        (
            trail,
            decided(trail_d.0 > 0.0, trail_d.1 <= 0.0),
            Branch::Next,
        ),
    ];
    for (edge, answer, taken) in tests {
        match answer {
            _ if !edge => {}
            Some(true) => return taken,
            Some(false) => {}
            None => return Branch::Exact,
        }
    }
    Branch::Own
}

/// # Panics
///
/// Panics if `nbits < 2`: a bathtub scores bits `1..n` against their
/// predecessors, so fewer bits score nothing.
fn bathtub_setup(config: &LinkConfig, nbits: usize) -> Result<(BitVec, BathtubModel), Error> {
    use crate::prbs::{PrbsGenerator, PrbsOrder};
    use openserdes_phy::{AnalogLink, BehavioralLink};

    assert!(nbits >= 2, "a bathtub needs bits >= 2, got bits = {nbits}");

    let analog = AnalogLink::paper_default(config.pvt, config.channel.clone());
    let behavioural = BehavioralLink::from_analog(&analog, config.data_rate)?;
    let ui = 1.0 / config.data_rate.value();
    let model = BathtubModel {
        // Edge jitter is modelled explicitly per UI below, so the flip
        // probability is the noise-only one.
        flip: behavioural.flip_probability(),
        rj_ui: config.channel.rj_sigma.value() / ui,
        dj_ui: 0.5 * config.channel.dj_pp.value() / ui,
        // Finite transition time of the restored edge at the sampler:
        // within this window around a data edge the slicer output is
        // indeterminate (the restored rise/fall occupies ~15 % of the UI
        // at 2 Gb/s).
        blur_ui: 0.15,
    };
    let bits = PrbsGenerator::new(PrbsOrder::Prbs31).take_bitvec(nbits);
    Ok((bits, model))
}

/// One bathtub phase. The RNG is derived from `seed` and the phase index
/// alone ([`parallel::derive_seed`]), so any execution order — or a
/// parallel fan-out — produces the identical point.
fn bathtub_point(
    bits: &BitVec,
    model: &BathtubModel,
    k: usize,
    phases: usize,
    seed: u64,
) -> BathtubPoint {
    let _span = telemetry::span("sweep.eye_phase");
    telemetry::counter("sweep.eye_phases", 1);
    let phase = (k as f64 + 0.5) / phases as f64;
    let mut rng = StdRng::seed_from_u64(parallel::derive_seed(seed, k));
    let bounds = PhaseBounds::new(model, phase);
    let errors = if bounds.outer != [Branch::Own; 4] {
        settled_errors(bits, model, phase, &bounds, &mut rng)
    } else if model.flip > 0.0 {
        // Every bit samples its own value, so only noise flips err. Each
        // bit still steps the generator past its two jitter uniforms.
        let mut errors = 0u64;
        for _ in 1..bits.len() {
            rng.next_u64();
            rng.next_u64();
            if rng.gen::<f64>() < model.flip {
                errors += 1;
            }
        }
        errors
    } else {
        // No draw falls below a flip probability that is 0 or NaN.
        0
    };
    telemetry::record_value("sweep.phase_errors", errors);
    BathtubPoint {
        phase_ui: phase,
        ber: errors as f64 / (bits.len() - 1) as f64,
    }
}

/// Bit errors at `phase` with every edge jittered by a Box–Muller RJ
/// draw plus the sinusoidal DJ, a coin inside the blur window and a
/// noise flip per bit. Each bit draws the generator exactly as the
/// per-bit model does (`u1`, `u2`, a coin where the blur decides, the
/// noise uniform), but evaluates its jitter only where `bounds` leave
/// its branch open.
fn settled_errors(
    bits: &BitVec,
    model: &BathtubModel,
    phase: f64,
    bounds: &PhaseBounds,
    rng: &mut StdRng,
) -> u64 {
    use crate::cdr::{box_muller, uniform_u1, uniform_u2};
    let mut errors = 0u64;
    for i in 1..bits.len() {
        let (w1, w2) = (rng.next_u64(), rng.next_u64());
        let (prev, own) = (bits.get(i - 1), bits.get(i));
        let next = i + 1 < bits.len() && bits.get(i + 1);
        let lead = prev != own;
        let trail = i + 1 < bits.len() && own != next;
        let u1 = uniform_u1(w1);
        let table = if u1 >= bounds.u1_min {
            &bounds.inner
        } else {
            &bounds.outer
        };
        let sampled = match table[usize::from(lead) | usize::from(trail) << 1] {
            Branch::Own => own,
            Branch::Prev => prev,
            Branch::Next => next,
            Branch::CoinPrev => coin(rng, prev, own),
            Branch::CoinNext => coin(rng, next, own),
            Branch::Exact => {
                // The edge ahead of bit i sits at offset `jitter` into the UI.
                let jitter = box_muller(u1, uniform_u2(w2), model.rj_ui)
                    + model.dj_ui * (2.0 * std::f64::consts::PI * 0.01 * i as f64).sin();
                // Distance to the nearest data edge (leading edge of this
                // UI or trailing edge into the next one), where an edge
                // exists.
                let lead = lead.then_some(phase - jitter);
                let trail = trail.then_some(phase - (1.0 + jitter));
                let in_blur = |d: f64| d.abs() < model.blur_ui / 2.0;
                match (lead, trail) {
                    (Some(d), _) if in_blur(d) => coin(rng, prev, own),
                    (_, Some(d)) if in_blur(d) => coin(rng, next, own),
                    (Some(d), _) if d < 0.0 => prev,
                    (_, Some(d)) if d > 0.0 => next,
                    _ => own,
                }
            }
        };
        let noise_flip = rng.gen::<f64>() < model.flip;
        if (sampled != own) ^ noise_flip {
            errors += 1;
        }
    }
    errors
}

/// A blur coin: heads reads `heads`, tails `tails`.
fn coin(rng: &mut StdRng, heads: bool, tails: bool) -> bool {
    if rng.gen::<bool>() {
        heads
    } else {
        tails
    }
}

/// One fault-isolated work item's result: `Err(message)` when the item
/// panicked, otherwise what it returned.
pub(crate) type Slot<T> = Result<Result<T, Error>, String>;

/// The collector behind [`Sweep::bathtub`], [`Sweep::rate_sweep`] and
/// [`Sweep::corner_sweep`]: every value in input order, or else the
/// first failure in input order — a returned error as itself, a
/// panicked item re-raised with its own message.
fn first_failure<T>(slots: Vec<Slot<T>>) -> Result<Vec<T>, Error> {
    slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|message| std::panic::resume_unwind(Box::new(message))))
        .collect()
}

/// Sweep options on the consuming-builder pattern — the one knob set
/// shared by every Monte-Carlo sweep entry point (bathtub, loss
/// bisection, rate and corner sweeps). Construct with [`Sweep::new`],
/// adjust with the `with_*` methods, then call a run method:
///
/// ```
/// use openserdes_core::{LinkConfig, Sweep};
///
/// let cfg = LinkConfig::paper_default();
/// let curve = Sweep::new().with_bits(4_000).with_phases(8).bathtub(&cfg)?;
/// assert_eq!(curve.len(), 8);
/// # Ok::<(), openserdes_core::Error>(())
/// ```
///
/// Every run fans out across [`Sweep::with_threads`] workers and is
/// bit-identical for any worker count (see [`parallel`]); telemetry
/// recorded under an enabled scope merges deterministically too.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sweep {
    nbits: usize,
    phases: usize,
    frames: usize,
    tol_db: f64,
    seed: u64,
    threads: usize,
}

impl Default for Sweep {
    fn default() -> Self {
        Self::new()
    }
}

impl Sweep {
    /// Paper-default sweep options: 10 000 bits over 32 phases per
    /// bathtub, 8-frame probes bisected to 0.5 dB, seed 1, one worker
    /// per host core.
    pub fn new() -> Self {
        Self {
            nbits: 10_000,
            phases: 32,
            frames: 8,
            tol_db: 0.5,
            seed: 1,
            threads: parallel::default_threads(),
        }
    }

    /// PRBS bits measured per bathtub phase.
    #[must_use]
    pub fn with_bits(mut self, nbits: usize) -> Self {
        self.nbits = nbits;
        self
    }

    /// Sampling phases across the unit interval.
    #[must_use]
    pub fn with_phases(mut self, phases: usize) -> Self {
        self.phases = phases;
        self
    }

    /// Frames per error-free probe in the loss bisections.
    #[must_use]
    pub fn with_frames(mut self, frames: usize) -> Self {
        self.frames = frames;
        self
    }

    /// Bisection tolerance in dB.
    #[must_use]
    pub fn with_tolerance_db(mut self, tol_db: f64) -> Self {
        self.tol_db = tol_db;
        self
    }

    /// Monte-Carlo run seed; per-item streams derive from it and the
    /// item index alone ([`parallel::derive_seed`]).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads. Results are bit-identical for any value; only
    /// wall time changes.
    ///
    /// Contract: `0` is clamped to `1` — a sweep always has at least
    /// one worker, so wire-supplied configs can never poison the pool.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker count (always ≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// PRBS bits measured per bathtub phase.
    pub fn bits(&self) -> usize {
        self.nbits
    }

    /// Sampling phases across the unit interval.
    pub fn phases(&self) -> usize {
        self.phases
    }

    /// Frames per error-free probe in the loss bisections.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Bisection tolerance in dB.
    pub fn tolerance_db(&self) -> f64 {
        self.tol_db
    }

    /// Monte-Carlo BER bathtub at the operating point, one
    /// [`BathtubPoint`] per configured phase: the sampling phase swept
    /// across the unit interval, the BER measured at each phase over
    /// the configured PRBS bits — the classic serial-link margin plot
    /// (high BER walls at the bit edges, a floor at the centre).
    ///
    /// The per-bit model matches the fast link path: transition edges
    /// carry the channel's RJ (Gaussian) and DJ (sinusoidal) jitter;
    /// sampling on the wrong side of a jittered edge misreads the bit;
    /// amplitude noise adds `Q(margin/σ)` flips everywhere.
    ///
    /// Each phase runs as an isolated item, and the first failed
    /// phase, in phase order, is the whole call's failure.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the front-end characterization.
    ///
    /// # Panics
    ///
    /// Panics if the configured [`Sweep::bits`] is below 2. Re-raises
    /// the first panicked phase with its own message.
    pub fn bathtub(&self, config: &LinkConfig) -> Result<Vec<BathtubPoint>, Error> {
        first_failure(parallel::bathtub(self, config)?)
    }

    /// Maximum error-free channel attenuation (dB) at the configured
    /// operating point, the bisection's next midpoints probed
    /// speculatively across the workers.
    ///
    /// # Errors
    ///
    /// Propagates link failures from the probes the bisection uses.
    pub fn max_loss(&self, config: &LinkConfig) -> Result<f64, Error> {
        let rx_sensitivity = link::front_end_sensitivity(config)?;
        max_loss_with(config, rx_sensitivity, self.frames, |lo, hi, error_free| {
            Ok(parallel::bisect_speculative(lo, hi, self.tol_db, self.threads, error_free)?.0)
        })
    }

    /// Maximum channel loss at each data rate (Fig. 9's measured curve).
    ///
    /// The front-end characterization behind each point's sensitivity
    /// is rate-independent, so it is solved **once** and shared across
    /// all rate points rather than re-solved per item.
    ///
    /// Each rate runs as an isolated item, and the first failed rate,
    /// in rate order, is the whole call's failure.
    ///
    /// # Errors
    ///
    /// Propagates the first link failure in rate order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicked rate point with its own message.
    pub fn rate_sweep(
        &self,
        config: &LinkConfig,
        rates: &[Hertz],
    ) -> Result<Vec<SweepPoint>, Error> {
        first_failure(parallel::rate_sweep(self, config, rates))
    }

    /// Maximum channel loss and front-end sensitivity at the three
    /// classic PVT corners, in `[nominal, worst_case, best_case]`
    /// order. The corners fan out as isolated items; each one solves
    /// its own front-end bias point and bisects its own loss budget.
    ///
    /// The first failed corner, in corner order, is the whole call's
    /// failure.
    ///
    /// # Errors
    ///
    /// Propagates the first link failure in corner order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicked corner with its own message.
    pub fn corner_sweep(&self, config: &LinkConfig) -> Result<Vec<parallel::CornerPoint>, Error> {
        first_failure(parallel::corner_sweep(self, config))
    }

    /// Model-route sensitivity sweep across `rates` (the fast half of
    /// Fig. 9; no Monte-Carlo options apply).
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the characterization.
    pub fn sensitivity(&self, pvt: Pvt, rates: &[Hertz]) -> Result<Vec<SweepPoint>, Error> {
        let _span = telemetry::span("sweep.sensitivity");
        let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), pvt);
        let tx_swing = pvt.vdd;
        rates
            .iter()
            .map(|&rate| {
                telemetry::counter("sweep.rate_points", 1);
                let sensitivity = fe.sensitivity(rate)?;
                let max_loss_db = fe.max_loss_db(rate, tx_swing)?;
                Ok(SweepPoint {
                    data_rate: rate,
                    sensitivity,
                    max_loss_db,
                })
            })
            .collect()
    }
}

/// Horizontal eye opening at a BER target: the widest contiguous span of
/// bathtub phases at or below `target` BER, in UI fractions.
///
/// The bathtub is circular — phase 0 and phase 1 are the same data edge
/// — so a clean span may wrap around the end of the curve (an eye whose
/// centre sits near a phase boundary). Wrapped runs are joined.
pub fn eye_width_at(curve: &[BathtubPoint], target: f64) -> f64 {
    let n = curve.len();
    if n == 0 {
        return 0.0;
    }
    let step = 1.0 / n as f64;
    if curve.iter().all(|p| p.ber <= target) {
        return 1.0;
    }
    // Scan two concatenated periods; since at least one point is above
    // target, no run can exceed one period.
    let mut best = 0usize;
    let mut run = 0usize;
    for i in 0..2 * n {
        if curve[i % n].ber <= target {
            run += 1;
            best = best.max(run);
        } else {
            run = 0;
        }
    }
    best.min(n) as f64 * step
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bathtub phase as first written, kept as the oracle for
    /// [`bathtub_point`]: a Box–Muller draw, a blur coin where the edge
    /// is near and a noise draw on every bit of every phase.
    fn bathtub_point_reference(
        bits: &BitVec,
        model: &BathtubModel,
        k: usize,
        phases: usize,
        seed: u64,
    ) -> BathtubPoint {
        let phase = (k as f64 + 0.5) / phases as f64;
        let mut rng = StdRng::seed_from_u64(parallel::derive_seed(seed, k));
        let mut errors = 0u64;
        for i in 1..bits.len() {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            let jitter = model.rj_ui * gauss
                + model.dj_ui * (2.0 * std::f64::consts::PI * 0.01 * i as f64).sin();
            let lead = (bits.get(i - 1) != bits.get(i)).then_some(phase - jitter);
            let trail = (i + 1 < bits.len() && bits.get(i) != bits.get(i + 1))
                .then_some(phase - (1.0 + jitter));
            let in_blur = |d: f64| d.abs() < model.blur_ui / 2.0;
            let sampled = match (lead, trail) {
                (Some(d), _) if in_blur(d) => rng.gen::<bool>().then_some(bits.get(i - 1)),
                (_, Some(d)) if in_blur(d) => rng.gen::<bool>().then_some(bits.get(i + 1)),
                (Some(d), _) if d < 0.0 => Some(bits.get(i - 1)),
                (_, Some(d)) if d > 0.0 => Some(bits.get(i + 1)),
                _ => Some(bits.get(i)),
            };
            let sampled = sampled.unwrap_or_else(|| bits.get(i));
            let noise_flip = rng.gen::<f64>() < model.flip;
            if (sampled != bits.get(i)) ^ noise_flip {
                errors += 1;
            }
        }
        BathtubPoint {
            phase_ui: phase,
            ber: errors as f64 / (bits.len() - 1) as f64,
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Jitter amplitudes (UI) beyond random ones: the paper
        /// channel's 0.003, negative, NaN, infinite, underflowing and
        /// eye-closing values.
        const JITTERS: [f64; 11] = [
            0.0,
            0.003,
            -0.003,
            -0.02,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            0.05,
            0.3,
            -1e300,
        ];
        const FLIPS: [f64; 5] = [0.0, -0.1, f64::NAN, 1e-3, 0.3];

        /// The two adjacent positive floats in `[lo, hi]` between which
        /// the monotone test `past` turns true: the last before and the
        /// first at or past the crossing.
        fn crossing(lo: f64, hi: f64, past: impl Fn(f64) -> bool) -> Option<[f64; 2]> {
            let (mut lo, mut hi) = (lo.to_bits(), hi.to_bits());
            if past(f64::from_bits(lo)) || !past(f64::from_bits(hi)) {
                return None;
            }
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if past(f64::from_bits(mid)) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            Some([f64::from_bits(lo), f64::from_bits(hi)])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(300))]

            /// Random, hostile and bound-edge models. For one phase,
            /// `bound_pick` 0–3 take `rj = 0` and the `dj` on either side
            /// of where an end of the outer jitter bound reaches the blur
            /// half-width or zero, at the leading or the trailing edge:
            /// the second lands exactly on it wherever a `dj` can. 4 and 5
            /// put the inner `u1` threshold just below, and at or above,
            /// the first bit's drawn `u1`.
            #[test]
            fn bathtub_point_matches_reference(
                phases in 1usize..40,
                nbits in 2usize..300,
                rj_pick in 0usize..14,
                rj_rand in 0.0f64..0.05,
                dj_pick in 0usize..14,
                dj_rand in 0.0f64..0.05,
                flip_pick in 0usize..7,
                flip_rand in 0.0f64..0.01,
                target in 0usize..40,
                bound_pick in 0usize..9,
                seed in any::<u64>(),
            ) {
                let mut model = BathtubModel {
                    flip: FLIPS.get(flip_pick).copied().unwrap_or(flip_rand),
                    rj_ui: JITTERS.get(rj_pick).copied().unwrap_or(rj_rand),
                    dj_ui: JITTERS.get(dj_pick).copied().unwrap_or(dj_rand),
                    blur_ui: 0.15,
                };
                let k = target % phases;
                let phase = (k as f64 + 0.5) / phases as f64;
                let half = model.blur_ui / 2.0;
                let sign = if seed & 1 == 1 { -1.0 } else { 1.0 };
                // The outer bound's ends at the leading and trailing edge.
                let radius = crate::cdr::max_gauss_radius();
                let reach = |dj: f64| BathtubModel { rj_ui: 0.0, dj_ui: dj, ..model }.reach(radius);
                let lead = |dj: f64| phase - reach(dj);
                let trail = |dj: f64| phase - (1.0 + -reach(dj));
                let djs = match bound_pick {
                    0 => crossing(1e-9, 1.0, |dj| lead(dj) <= half),
                    1 => crossing(1e-9, 1.0, |dj| lead(dj) <= 0.0),
                    2 => crossing(1e-9, 1.0, |dj| trail(dj) >= -half),
                    3 => crossing(1e-9, 1.0, |dj| trail(dj) >= 0.0),
                    _ => None,
                };
                if let Some(djs) = djs {
                    (model.rj_ui, model.dj_ui) = (0.0, sign * djs[(seed >> 1 & 1) as usize]);
                }
                if let 4 | 5 = bound_pick {
                    let mut draws = StdRng::seed_from_u64(parallel::derive_seed(seed, k));
                    let u1 = crate::cdr::uniform_u1(draws.next_u64());
                    let u1_min = |rj: f64| {
                        PhaseBounds::new(&BathtubModel { rj_ui: rj, ..model }, phase).u1_min
                    };
                    if let Some(rjs) = crossing(1e-6, 1.0, |rj| u1 <= u1_min(rj)) {
                        model.rj_ui = sign * rjs[bound_pick - 4];
                    }
                }
                let mut rng = StdRng::seed_from_u64(!seed);
                let bits: BitVec = (0..nbits).map(|_| rng.gen::<bool>()).collect();
                for k in 0..phases {
                    let got = bathtub_point(&bits, &model, k, phases, seed);
                    let want = bathtub_point_reference(&bits, &model, k, phases, seed);
                    prop_assert_eq!(
                        (got.phase_ui.to_bits(), got.ber.to_bits()),
                        (want.phase_ui.to_bits(), want.ber.to_bits()),
                        "phase {} of {}, {:?}", k, phases, model
                    );
                }
            }
        }
    }

    #[test]
    fn fig9_shapes_hold() {
        // Sensitivity grows and max loss falls with data rate, with the
        // paper's anchor points: ≈32 mV and ≈34 dB at 2 GHz.
        let rates: Vec<Hertz> = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
            .iter()
            .map(|&g| Hertz::from_ghz(g))
            .collect();
        let pts = Sweep::new()
            .sensitivity(Pvt::nominal(), &rates)
            .expect("sweeps");
        for w in pts.windows(2) {
            assert!(w[1].sensitivity > w[0].sensitivity, "sensitivity rises");
            assert!(w[1].max_loss_db < w[0].max_loss_db, "loss budget falls");
        }
        let at2g = &pts[3];
        assert!(
            (20.0..48.0).contains(&at2g.sensitivity.mv()),
            "sens@2G = {:.1} mV (paper: 32)",
            at2g.sensitivity.mv()
        );
        assert!(
            (30.0..40.0).contains(&at2g.max_loss_db),
            "loss@2G = {:.1} dB (paper: 34)",
            at2g.max_loss_db
        );
    }

    #[test]
    fn bisected_loss_agrees_with_model() {
        let base = LinkConfig::paper_default();
        let measured = Sweep::new().max_loss(&base).expect("bisects");
        let model = Sweep::new()
            .sensitivity(Pvt::nominal(), &[base.data_rate])
            .expect("sweeps")[0]
            .max_loss_db;
        assert!(
            (measured - model).abs() < 4.0,
            "measured {measured:.1} dB vs model {model:.1} dB"
        );
        assert!(measured >= 30.0, "paper claims 34 dB at 2 Gb/s");
    }

    #[test]
    #[should_panic(expected = "a bathtub needs bits >= 2, got bits = 0")]
    fn bathtub_of_no_bits_is_refused() {
        // Used to underflow `bits.len() - 1` in debug and report a BER
        // of 0 over zero scored bits in release.
        let _ = Sweep::new()
            .with_bits(0)
            .with_phases(4)
            .bathtub(&LinkConfig::paper_default());
    }

    #[test]
    #[should_panic(expected = "a bathtub needs bits >= 2, got bits = 1")]
    fn bathtub_of_one_bit_is_refused() {
        // Used to report a NaN BER (0 errors over 0 scored bits).
        let _ = Sweep::new()
            .with_bits(1)
            .with_phases(4)
            .bathtub(&LinkConfig::paper_default());
    }

    #[test]
    fn bathtub_of_two_bits_scores_one() {
        let curve = Sweep::new()
            .with_bits(2)
            .with_phases(4)
            .bathtub(&LinkConfig::paper_default())
            .expect("runs");
        assert_eq!(curve.len(), 4);
        for point in curve {
            assert!(
                point.ber == 0.0 || point.ber == 1.0,
                "one scored bit: {point:?}"
            );
        }
    }

    #[test]
    fn bathtub_has_walls_and_a_floor() {
        let cfg = LinkConfig::paper_default();
        let curve = Sweep::new()
            .with_bits(20_000)
            .with_phases(20)
            .with_seed(3)
            .bathtub(&cfg)
            .expect("runs");
        assert_eq!(curve.len(), 20);
        let edge_left = curve.first().expect("points").ber;
        let edge_right = curve.last().expect("points").ber;
        let centre = curve[10].ber;
        assert!(
            edge_left > 1e-3 || edge_right > 1e-3,
            "edges must show errors: {edge_left:.2e}/{edge_right:.2e}"
        );
        assert!(centre < 1e-3, "centre must be clean: {centre:.2e}");
        // Usable eye width at BER 1e-3 covers most of the UI.
        let width = eye_width_at(&curve, 1e-3);
        assert!((0.5..=1.0).contains(&width), "eye width = {width} UI");
    }

    #[test]
    fn bathtub_narrows_with_more_jitter() {
        let clean = LinkConfig::paper_default();
        let mut dirty = clean.clone();
        dirty.channel.rj_sigma = openserdes_pdk::units::Time::from_ps(30.0);
        let sweep = Sweep::new().with_phases(20).with_seed(5);
        let w_clean = eye_width_at(&sweep.bathtub(&clean).expect("ok"), 1e-3);
        let w_dirty = eye_width_at(&sweep.bathtub(&dirty).expect("ok"), 1e-3);
        assert!(
            w_dirty < w_clean,
            "jitter must narrow the eye: {w_dirty} vs {w_clean}"
        );
    }

    #[test]
    fn eye_width_helper() {
        let mk = |bers: &[f64]| -> Vec<BathtubPoint> {
            bers.iter()
                .enumerate()
                .map(|(i, &ber)| BathtubPoint {
                    phase_ui: i as f64 / bers.len() as f64,
                    ber,
                })
                .collect()
        };
        let c = mk(&[0.5, 1e-6, 1e-6, 1e-6, 0.5]);
        assert!((eye_width_at(&c, 1e-3) - 0.6).abs() < 1e-12);
        let closed = mk(&[0.5, 0.5]);
        assert_eq!(eye_width_at(&closed, 1e-3), 0.0);
        assert_eq!(eye_width_at(&[], 1e-3), 0.0);
    }

    #[test]
    fn eye_width_wraps_around_phase_zero() {
        let mk = |bers: &[f64]| -> Vec<BathtubPoint> {
            bers.iter()
                .enumerate()
                .map(|(i, &ber)| BathtubPoint {
                    phase_ui: i as f64 / bers.len() as f64,
                    ber,
                })
                .collect()
        };
        // The eye centre straddles phase 0: two clean points at the
        // start and one at the end form a single contiguous 3-point
        // span on the circular phase axis. A linear scan saw two runs
        // of 2 and 1 and underreported the eye as 0.4 UI.
        let c = mk(&[1e-6, 1e-6, 0.5, 0.5, 1e-6]);
        assert!((eye_width_at(&c, 1e-3) - 0.6).abs() < 1e-12);
        // A fully clean curve is one whole UI, not an unbounded run.
        let open = mk(&[1e-6, 1e-6, 1e-6]);
        assert_eq!(eye_width_at(&open, 1e-3), 1.0);
    }

    #[test]
    fn plain_collector_keeps_the_first_failure_in_input_order() {
        let items: Vec<u64> = (0..8).collect();
        for threads in [1, 4] {
            // Items 2 and 5 fail: the lower index wins at any worker count.
            let slots = parallel::try_map_with_threads(&items, threads, |_, &x| match x {
                2 | 5 => Err(Error::Parse(format!("item {x}"))),
                _ => Ok(x),
            });
            assert_eq!(
                first_failure(slots),
                Err(Error::Parse("item 2".into())),
                "threads = {threads}"
            );
            // A panicked item ahead of an erroring one is re-raised with
            // its own message, not a generic worker-panic label.
            let slots = parallel::try_map_with_threads(&items, threads, |_, &x| {
                assert!(x != 3, "poisoned item {x}");
                if x == 6 {
                    Err(Error::Parse(format!("item {x}")))
                } else {
                    Ok(x)
                }
            });
            let payload = std::panic::catch_unwind(|| first_failure(slots))
                .expect_err("the panicked slot is re-raised");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some("poisoned item 3"),
                "threads = {threads}"
            );
            let clean = parallel::try_map_with_threads(&items, threads, |_, &x| Ok(x));
            assert_eq!(first_failure(clean).expect("clean"), items);
        }
    }

    #[test]
    fn slow_corner_shrinks_loss_budget() {
        let rates = [Hertz::from_ghz(2.0)];
        let tt = Sweep::new()
            .sensitivity(Pvt::nominal(), &rates)
            .expect("tt")[0];
        let ss = Sweep::new()
            .sensitivity(Pvt::worst_case(), &rates)
            .expect("ss")[0];
        assert!(ss.max_loss_db < tt.max_loss_db);
    }
}
