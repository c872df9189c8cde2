//! Nonlinear DC and transient solver (Newton–Raphson + backward Euler).
//!
//! A compact SPICE core sufficient for the paper's analog content:
//! inverter chains, pseudo-resistors, coupling capacitors and RC
//! channels. Voltage sources are grounded and handled by node
//! elimination; the Jacobian uses the analytic `gm`/`gds` of the PDK MOS
//! model; `gmin` stepping provides DC convergence for the
//! high-impedance self-biased nodes the receiver relies on.
//!
//! # Architecture
//!
//! The solver is built around three reusable pieces (DESIGN.md §11):
//!
//! * `StampPlan` — per-topology compilation pass. Every element's
//!   matrix positions (flat row-major indices into the Jacobian and
//!   residual) are resolved **once**, so assembly is a linear walk over
//!   precomputed slots with zero allocation and zero index translation
//!   per Newton iteration.
//! * [`Solver`] — the plan plus a workspace of flat buffers
//!   (Jacobian/LU banks, pivots, residual) that every solve reuses. The
//!   LU factorization is cached: pure-linear circuits (RC channels)
//!   factorize exactly once per `(dt, gmin)` pair for an entire
//!   transient; nonlinear circuits reuse a stale factorization under
//!   modified Newton when the adaptive path is active.
//! * [`StepMode`] — `Fixed(dt)` replays the historical fixed-step
//!   backward-Euler loop **bit-identically** (guarded by regression
//!   tests against the [`reference`](mod@reference) module);
//!   `Adaptive` adds local truncation error control that walks
//!   coarsely over settled spans and refines at NRZ edges, resampled
//!   onto the uniform [`Waveform`] grid. Each step after the first
//!   accepted span is one backward-Euler solve, its error estimated
//!   from the second divided difference across the last two spans;
//!   only a step with no solution history (the start of the run) is
//!   step-doubled, solved once at `h` and twice at `h/2`.
//!
//! Every public entry point reports [`SolverStats`] so benches and
//! callers can see Newton iteration counts, factorization reuse rates
//! and step acceptance without instrumenting the hot loop themselves.

use crate::circuit::{Circuit, Element, Node};
use crate::waveform::Waveform;
use openserdes_pdk::mos::{MosDevice, MosType};
use openserdes_telemetry as telemetry;
use std::error::Error;
use std::fmt;
use std::ops::Deref;

pub mod batched;
pub mod reference;

/// Solver failures.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// Newton iteration failed to converge.
    NonConvergence {
        /// Simulation time at the failing step (0 for DC).
        time: f64,
        /// Newton iterations spent before giving up (0 when the
        /// failure was assembled without running an iteration, e.g.
        /// the adaptive step-budget guard).
        iterations: u64,
        /// Name of the node with the largest residual magnitude at
        /// the abandoned operating point, when known.
        worst_node: Option<String>,
    },
    /// The Jacobian became singular (floating node or bad topology).
    SingularMatrix {
        /// Simulation time at the failing step (0 for DC).
        time: f64,
    },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::NonConvergence {
                time,
                iterations,
                worst_node,
            } => {
                write!(f, "newton iteration did not converge at t = {time:.3e} s")?;
                if *iterations > 0 {
                    write!(f, " after {iterations} iterations")?;
                }
                if let Some(node) = worst_node {
                    write!(f, " (worst residual at node `{node}`)")?;
                }
                Ok(())
            }
            SolverError::SingularMatrix { time } => {
                write!(f, "singular jacobian at t = {time:.3e} s (floating node?)")
            }
        }
    }
}

impl Error for SolverError {}

/// Time-stepping strategy for [`transient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepMode {
    /// Uniform backward-Euler steps of the given size in seconds. This
    /// is the historical behavior and stays bit-identical to the
    /// pre-refactor solver (see the [`reference`](mod@reference)
    /// module).
    Fixed(f64),
    /// LTE control: each step after the first accepted span is one
    /// backward-Euler solve, its local truncation error estimated as
    /// `h²·v''/4` from the second divided difference across the last
    /// two spans. A step with no solution history (the start of the
    /// run) is step-doubled instead: solved once at `h` and twice at
    /// `h/2`, the difference bounding the error. Steps shrink (down to
    /// `dt_min`) when the estimate exceeds `lte_tol` volts and double
    /// (up to `dt_max`) when it is comfortably inside. Output is
    /// resampled onto a uniform grid of `dt_min`.
    Adaptive {
        /// Smallest allowed step and the output grid pitch, seconds.
        dt_min: f64,
        /// Largest allowed step, seconds.
        dt_max: f64,
        /// Accepted per-step local truncation error bound, volts.
        lte_tol: f64,
    },
}

/// Transient analysis configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransientConfig {
    /// Time-stepping strategy (fixed step by default).
    pub step: StepMode,
    /// End time in seconds (the run covers `0..=t_end`).
    pub t_end: f64,
    /// Maximum Newton iterations per step.
    pub max_newton: usize,
    /// Convergence tolerance on voltage updates, in volts.
    pub tol: f64,
    /// Stabilizing conductance from every node to ground, in siemens.
    pub gmin: f64,
}

impl TransientConfig {
    /// The canonical constructor: fixed 1 ps steps up to `t_end`, the
    /// solver's default Newton budget and tolerances. Refine with the
    /// consuming `with_*` builders:
    ///
    /// ```
    /// use openserdes_analog::solver::{StepMode, TransientConfig};
    ///
    /// let cfg = TransientConfig::until(5e-9)
    ///     .with_fixed_dt(2e-12)
    ///     .with_max_newton(200);
    /// assert_eq!(cfg.step, StepMode::Fixed(2e-12));
    /// ```
    pub fn until(t_end: f64) -> Self {
        Self {
            step: StepMode::Fixed(1.0e-12),
            t_end,
            max_newton: 120,
            tol: 1.0e-7,
            gmin: 1.0e-12,
        }
    }

    /// Uniform backward-Euler steps of `dt` seconds.
    #[must_use]
    pub fn with_fixed_dt(mut self, dt: f64) -> Self {
        self.step = StepMode::Fixed(dt);
        self
    }

    /// LTE-controlled steps between `dt_min` and `dt_max` (see
    /// [`StepMode::Adaptive`]), with the accepted per-step error bound
    /// `lte_tol` volts; the output waveform grid is `dt_min`.
    #[must_use]
    pub fn with_adaptive_steps(mut self, dt_min: f64, dt_max: f64, lte_tol: f64) -> Self {
        self.step = StepMode::Adaptive {
            dt_min,
            dt_max,
            lte_tol,
        };
        self
    }

    /// Maximum Newton iterations per step.
    #[must_use]
    pub fn with_max_newton(mut self, max_newton: usize) -> Self {
        self.max_newton = max_newton;
        self
    }

    /// Panics, naming the field, on a configuration whose run could
    /// not end or could not fill a waveform grid. Every transient checks
    /// its configuration here before it solves anything.
    fn check(&self) {
        assert!(
            self.t_end.is_finite() && self.t_end >= 0.0,
            "t_end must be finite and non-negative, got {}",
            self.t_end
        );
        match self.step {
            StepMode::Fixed(dt) => {
                assert!(
                    dt.is_finite() && dt > 0.0,
                    "fixed dt must be finite and positive, got {dt}"
                );
            }
            StepMode::Adaptive {
                dt_min,
                dt_max,
                lte_tol,
            } => {
                assert!(
                    dt_min.is_finite() && dt_min > 0.0,
                    "dt_min must be finite and positive, got {dt_min}"
                );
                assert!(dt_max >= dt_min, "dt_max must be >= dt_min");
                assert!(lte_tol > 0.0, "lte_tol must be positive");
            }
        }
    }
}

/// Counters from one or more solves: enough to see where the work went
/// without profiling. Wall time is the enclosing `analog.*` span's.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Newton iterations across all solves.
    pub newton_iterations: u64,
    /// Residual-vector assemblies (one per Newton iteration).
    pub residual_builds: u64,
    /// Jacobian assemblies (≤ residual builds when the LU is reused).
    pub jacobian_builds: u64,
    /// LU factorizations performed.
    pub factorizations: u64,
    /// Newton iterations that reused a previously computed LU.
    pub factorization_reuses: u64,
    /// Accepted time steps.
    pub steps_taken: u64,
    /// Rejected time steps (adaptive mode: LTE too large or Newton
    /// failed at a step larger than `dt_min`).
    pub steps_rejected: u64,
    /// Steps that entered the non-convergence recovery ladder
    /// (gmin-stepping → source-stepping → dt-cut).
    pub recovery_attempts: u64,
    /// Recoveries resolved by the gmin-stepping rung.
    pub recovered_gmin: u64,
    /// Recoveries resolved by the source-stepping rung.
    pub recovered_source: u64,
    /// Recoveries resolved by the dt-cut rung.
    pub recovered_dt_cut: u64,
    /// Points that entered the lockstep kernel of
    /// [`Solver::run_transient_batched`] (retired ones included).
    pub batched_points: u64,
    /// Points the kernel retired (DC or step failure) and re-solved
    /// sequentially through the full recovery ladder.
    pub batch_retirements: u64,
    /// LU factorizations performed inside the kernel (a subset of
    /// `factorizations`); each one serves every point of the batch.
    pub batched_factorizations: u64,
}

impl SolverStats {
    /// Fraction of Newton iterations that skipped the factorization,
    /// in `0.0..=1.0`.
    pub fn reuse_rate(&self) -> f64 {
        let total = self.factorizations + self.factorization_reuses;
        if total == 0 {
            0.0
        } else {
            self.factorization_reuses as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (for summing per-stage stats).
    pub fn merge(&mut self, other: &SolverStats) {
        self.newton_iterations += other.newton_iterations;
        self.residual_builds += other.residual_builds;
        self.jacobian_builds += other.jacobian_builds;
        self.factorizations += other.factorizations;
        self.factorization_reuses += other.factorization_reuses;
        self.steps_taken += other.steps_taken;
        self.steps_rejected += other.steps_rejected;
        self.recovery_attempts += other.recovery_attempts;
        self.recovered_gmin += other.recovered_gmin;
        self.recovered_source += other.recovered_source;
        self.recovered_dt_cut += other.recovered_dt_cut;
        self.batched_points += other.batched_points;
        self.batch_retirements += other.batch_retirements;
        self.batched_factorizations += other.batched_factorizations;
    }

    /// Emits these counters into the active telemetry scope under the
    /// `analog.*` namespace — the bridge that generalizes this struct
    /// into the workspace-wide observability layer (DESIGN.md §14)
    /// without changing its public fields. `residual_builds` surfaces
    /// as `analog.device_eval_passes` (each residual assembly is one
    /// full device-evaluation pass) and `factorization_reuses` as
    /// `analog.lu_cache_hits`.
    pub fn record_telemetry(&self) {
        if !telemetry::is_enabled() {
            return;
        }
        telemetry::counter("analog.newton_iterations", self.newton_iterations);
        telemetry::counter("analog.device_eval_passes", self.residual_builds);
        telemetry::counter("analog.jacobian_builds", self.jacobian_builds);
        telemetry::counter("analog.lu_factorizations", self.factorizations);
        telemetry::counter("analog.lu_cache_hits", self.factorization_reuses);
        telemetry::counter("analog.steps_taken", self.steps_taken);
        telemetry::counter("analog.lte_rejections", self.steps_rejected);
        telemetry::counter("analog.recovery_attempts", self.recovery_attempts);
        telemetry::counter("analog.recovered_gmin", self.recovered_gmin);
        telemetry::counter("analog.recovered_source", self.recovered_source);
        telemetry::counter("analog.recovered_dt_cut", self.recovered_dt_cut);
        telemetry::counter("analog.batched_points", self.batched_points);
        telemetry::counter("analog.batch_retirements", self.batch_retirements);
        telemetry::counter("analog.batched_factorizations", self.batched_factorizations);
    }

    /// The counters accrued since `earlier` (a snapshot of the same
    /// accumulator).
    fn since(&self, earlier: &SolverStats) -> SolverStats {
        SolverStats {
            newton_iterations: self.newton_iterations - earlier.newton_iterations,
            residual_builds: self.residual_builds - earlier.residual_builds,
            jacobian_builds: self.jacobian_builds - earlier.jacobian_builds,
            factorizations: self.factorizations - earlier.factorizations,
            factorization_reuses: self.factorization_reuses - earlier.factorization_reuses,
            steps_taken: self.steps_taken - earlier.steps_taken,
            steps_rejected: self.steps_rejected - earlier.steps_rejected,
            recovery_attempts: self.recovery_attempts - earlier.recovery_attempts,
            recovered_gmin: self.recovered_gmin - earlier.recovered_gmin,
            recovered_source: self.recovered_source - earlier.recovered_source,
            recovered_dt_cut: self.recovered_dt_cut - earlier.recovered_dt_cut,
            batched_points: self.batched_points - earlier.batched_points,
            batch_retirements: self.batch_retirements - earlier.batch_retirements,
            batched_factorizations: self.batched_factorizations - earlier.batched_factorizations,
        }
    }
}

/// The result of a transient run: one waveform per node.
#[derive(Debug, Clone)]
pub struct TransientResult {
    waveforms: Vec<Waveform>,
    stats: SolverStats,
}

impl TransientResult {
    /// The waveform of a node (ground is the all-zero waveform).
    pub fn waveform(&self, node: Node) -> &Waveform {
        &self.waveforms[node.index()]
    }

    /// Solver counters for this run.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

/// A DC solution: the node-voltage vector plus solver counters. Derefs
/// to `[f64]` so existing `v[node.index()]` call sites keep working.
#[derive(Debug, Clone)]
pub struct DcSolution {
    voltages: Vec<f64>,
    stats: SolverStats,
}

impl DcSolution {
    /// Solver counters for this solve.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Consumes the solution, returning the raw voltage vector.
    pub fn into_voltages(self) -> Vec<f64> {
        self.voltages
    }
}

impl Deref for DcSolution {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.voltages
    }
}

/// A DC sweep result: one node-voltage vector per sweep value, plus
/// solver counters. Derefs to `[Vec<f64>]` so existing iteration sites
/// keep working.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    points: Vec<Vec<f64>>,
    stats: SolverStats,
}

impl DcSweepResult {
    /// Solver counters for the whole sweep.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

impl Deref for DcSweepResult {
    type Target = [Vec<f64>];
    fn deref(&self) -> &[Vec<f64>] {
        &self.points
    }
}

/// Flat-matrix slot for a node pair that is ground/source-driven on at
/// least one side (no equation or no column to stamp).
const ABSENT: usize = usize::MAX;

/// Precomputed slots for a two-terminal conductance-like stamp
/// (resistor or capacitor companion): raw node indices for the voltage
/// reads plus resolved residual and flat Jacobian positions.
#[derive(Debug, Clone, Copy)]
struct PairSlots {
    /// Raw node indices (into the full `v` vector).
    a: usize,
    b: usize,
    /// Residual slots (`ABSENT` when the node is known).
    res_a: usize,
    res_b: usize,
    /// Flat row-major Jacobian slots (`ABSENT` when either side is
    /// known).
    jaa: usize,
    jab: usize,
    jba: usize,
    jbb: usize,
}

/// One element's precompiled stamp. Slot order inside each variant is
/// the exact order the pre-refactor assembler applied its `+=`s — this
/// matters for bit-identity when two slots alias (a pseudo-resistor's
/// gate and source are the same node, so two "different" Jacobian
/// entries land on the same flat position and addition order shows).
#[derive(Debug, Clone, Copy)]
enum Stamp {
    /// Resistor with precomputed conductance `g = 1/ohms`.
    Conductance { g: f64, p: PairSlots },
    /// Capacitor; the companion conductance `farads/dt` is formed at
    /// assembly time (transient only, open at DC).
    Capacitor { farads: f64, p: PairSlots },
    /// MOS device; `d/g/s` are raw node indices, residual and Jacobian
    /// slots are stored in application order.
    Mos {
        device: MosDevice,
        nmos: bool,
        d: usize,
        g: usize,
        s: usize,
        /// Residual slots in application order (drain/source for NMOS,
        /// source/drain for PMOS — first gets `+id`, second `-id`).
        res0: usize,
        res1: usize,
        /// Six Jacobian slots in the historical stamp order.
        jac: [usize; 6],
    },
}

/// The compiled topology: node→unknown mapping plus the flattened
/// stamp list. Building one is `O(elements)` and happens once per
/// `Solver`; every assembly afterwards is allocation-free.
#[derive(Debug, Clone)]
struct StampPlan {
    n_nodes: usize,
    n_unknown: usize,
    /// Unknown index per node (`None` = ground or source-driven).
    index: Vec<Option<usize>>,
    stamps: Vec<Stamp>,
    /// `(raw node, residual slot, diagonal slot)` for the gmin pass,
    /// in ascending node order like the historical loop.
    gmin_rows: Vec<(usize, usize, usize)>,
    /// No MOS devices: the Jacobian depends only on `(dt, gmin)`, so
    /// one factorization serves the whole transient.
    linear: bool,
}

impl StampPlan {
    fn new(circuit: &Circuit) -> Self {
        let n = circuit.node_count();
        let mut known = vec![false; n];
        known[0] = true;
        for (node, _) in circuit.sources() {
            known[node.index()] = true;
        }
        let mut index = vec![None; n];
        let mut k = 0;
        for (i, idx) in index.iter_mut().enumerate() {
            if !known[i] {
                *idx = Some(k);
                k += 1;
            }
        }
        let n_unknown = k;

        let res_slot = |node: Node| index[node.index()].unwrap_or(ABSENT);
        let jac_slot = |row: Node, col: Node| match (index[row.index()], index[col.index()]) {
            (Some(r), Some(c)) => r * n_unknown + c,
            _ => ABSENT,
        };
        let pair = |a: Node, b: Node| PairSlots {
            a: a.index(),
            b: b.index(),
            res_a: res_slot(a),
            res_b: res_slot(b),
            jaa: jac_slot(a, a),
            jab: jac_slot(a, b),
            jba: jac_slot(b, a),
            jbb: jac_slot(b, b),
        };

        let mut linear = true;
        let stamps = circuit
            .elements()
            .iter()
            .map(|el| match *el {
                Element::Resistor { a, b, ohms } => Stamp::Conductance {
                    g: 1.0 / ohms,
                    p: pair(a, b),
                },
                Element::Capacitor { a, b, farads } => Stamp::Capacitor {
                    farads,
                    p: pair(a, b),
                },
                Element::Mos { device, d, g, s } => {
                    linear = false;
                    let nmos = matches!(device.params.mos_type, MosType::Nmos);
                    // Historical stamp order (see `reference::Assembler::build`):
                    // NMOS: res d,s; J (d,d)(d,g)(d,s)(s,d)(s,g)(s,s)
                    // PMOS: res s,d; J (s,s)(s,g)(s,d)(d,s)(d,g)(d,d)
                    let (res0, res1, jac) = if nmos {
                        (
                            res_slot(d),
                            res_slot(s),
                            [
                                jac_slot(d, d),
                                jac_slot(d, g),
                                jac_slot(d, s),
                                jac_slot(s, d),
                                jac_slot(s, g),
                                jac_slot(s, s),
                            ],
                        )
                    } else {
                        (
                            res_slot(s),
                            res_slot(d),
                            [
                                jac_slot(s, s),
                                jac_slot(s, g),
                                jac_slot(s, d),
                                jac_slot(d, s),
                                jac_slot(d, g),
                                jac_slot(d, d),
                            ],
                        )
                    };
                    Stamp::Mos {
                        device,
                        nmos,
                        d: d.index(),
                        g: g.index(),
                        s: s.index(),
                        res0,
                        res1,
                        jac,
                    }
                }
            })
            .collect();

        let mut gmin_rows = Vec::with_capacity(n_unknown);
        for (node_idx, &slot) in index.iter().enumerate() {
            if let Some(i) = slot {
                gmin_rows.push((node_idx, i, i * n_unknown + i));
            }
        }

        Self {
            n_nodes: n,
            n_unknown,
            index,
            stamps,
            gmin_rows,
            linear,
        }
    }

    /// Assembles the residual (always) and the Jacobian (when `jac` is
    /// given) at the operating point `v`, in place. Stamp application
    /// order matches the historical assembler exactly, so the filled
    /// values are bit-identical to the old `build()`.
    fn assemble(
        &self,
        v: &[f64],
        prev_dt: Option<(&[f64], f64)>,
        gmin: f64,
        res: &mut [f64],
        mut jac: Option<&mut [f64]>,
    ) {
        res.fill(0.0);
        if let Some(j) = jac.as_deref_mut() {
            j.fill(0.0);
        }
        let add_res = |res: &mut [f64], slot: usize, x: f64| {
            if slot != ABSENT {
                res[slot] += x;
            }
        };
        let add_jac = |jac: &mut Option<&mut [f64]>, slot: usize, x: f64| {
            if slot != ABSENT {
                if let Some(j) = jac.as_deref_mut() {
                    j[slot] += x;
                }
            }
        };
        let pair_stamp =
            |res: &mut [f64], jac: &mut Option<&mut [f64]>, p: &PairSlots, g: f64, i: f64| {
                add_res(res, p.res_a, i);
                add_res(res, p.res_b, -i);
                add_jac(jac, p.jaa, g);
                add_jac(jac, p.jab, -g);
                add_jac(jac, p.jba, -g);
                add_jac(jac, p.jbb, g);
            };

        for stamp in &self.stamps {
            match *stamp {
                Stamp::Conductance { g, ref p } => {
                    let i = (v[p.a] - v[p.b]) * g;
                    pair_stamp(res, &mut jac, p, g, i);
                }
                Stamp::Capacitor { farads, ref p } => {
                    if let Some((prev, dt)) = prev_dt {
                        let g = farads / dt;
                        let vbr = v[p.a] - v[p.b];
                        let vbr_prev = prev[p.a] - prev[p.b];
                        let i = g * (vbr - vbr_prev);
                        pair_stamp(res, &mut jac, p, g, i);
                    }
                }
                Stamp::Mos {
                    ref device,
                    nmos,
                    d,
                    g,
                    s,
                    res0,
                    res1,
                    jac: ref j,
                } => {
                    let (vd, vg, vs) = (v[d], v[g], v[s]);
                    // Same terminal convention as the historical
                    // assembler: NMOS conducts d→s, PMOS s→d.
                    let e = if nmos {
                        device.eval(vg - vs, vd - vs)
                    } else {
                        device.eval(vs - vg, vs - vd)
                    };
                    add_res(res, res0, e.id);
                    add_res(res, res1, -e.id);
                    let gsum = e.gm + e.gds;
                    let vals = if nmos {
                        [e.gds, e.gm, -gsum, -e.gds, -e.gm, gsum]
                    } else {
                        [gsum, -e.gm, -e.gds, -gsum, e.gm, e.gds]
                    };
                    for (slot, val) in j.iter().zip(vals) {
                        add_jac(&mut jac, *slot, val);
                    }
                }
            }
        }

        // gmin to ground stabilizes floating/self-biased nodes.
        for &(node_idx, res_i, diag) in &self.gmin_rows {
            res[res_i] += gmin * v[node_idx];
            if let Some(j) = jac.as_deref_mut() {
                j[diag] += gmin;
            }
        }
    }
}

/// One cached LU factorization with the `(dt, gmin)` key it was
/// assembled under.
#[derive(Debug, Clone)]
struct LuBank {
    /// `n × n` row-major: Jacobian on assembly, LU after factorization
    /// (unit-lower multipliers below the diagonal, U on and above).
    a: Vec<f64>,
    /// Pivot row chosen at each elimination column.
    piv: Vec<usize>,
    /// The factorization in `a` is usable for another solve.
    valid: bool,
    /// Companion-step key of the cached LU (`f64::to_bits`, `0.0` = DC).
    dt: u64,
    /// gmin key of the cached LU.
    gmin: u64,
}

/// Reusable flat buffers for one solver: two LU banks (Jacobians
/// factorized in place) and the residual/solution vector. Two banks
/// because the adaptive transient's step-doubling probe solves at `h`
/// and `h/2` in alternation — with a single cache each would evict the
/// other every composite step. Sized once per topology; no solve allocates.
#[derive(Debug, Clone)]
struct Workspace {
    n: usize,
    /// Residual in, Newton update out (solved in place).
    rhs: Vec<f64>,
    banks: [LuBank; 2],
    /// Most-recently-used bank; the other one is the eviction target.
    mru: usize,
}

impl Workspace {
    fn new(n: usize) -> Self {
        let bank = LuBank {
            a: vec![0.0; n * n],
            piv: vec![0; n],
            valid: false,
            dt: 0,
            gmin: 0,
        };
        Self {
            n,
            rhs: vec![0.0; n],
            banks: [bank.clone(), bank],
            mru: 0,
        }
    }

    /// Bank holding a valid factorization for `(dt, gmin)`, if any.
    fn matching(&self, dt: u64, gmin: u64) -> Option<usize> {
        self.banks
            .iter()
            .position(|b| b.valid && b.dt == dt && b.gmin == gmin)
    }

    /// Bank to refactorize into for `(dt, gmin)`: one already keyed to
    /// it (stale) if present, else the least-recently-used bank.
    fn evict_target(&self, dt: u64, gmin: u64) -> usize {
        self.banks
            .iter()
            .position(|b| b.dt == dt && b.gmin == gmin)
            .unwrap_or(1 - self.mru)
    }

    /// Drops both cached factorizations.
    fn invalidate(&mut self) {
        for b in &mut self.banks {
            b.valid = false;
        }
    }
}

/// LU factorization with partial pivoting, in place on a flat
/// row-major `n×n` matrix. Full rows are swapped (multipliers travel
/// with their row), multipliers are stored below the diagonal. Returns
/// `false` if singular.
///
/// The elimination applies the exact same `-= f * pivot` operation
/// sequence as the historical one-shot Gaussian elimination, so a
/// factorize-then-solve round trip is bit-identical to it.
fn factorize(a: &mut [f64], piv: &mut [usize], n: usize) -> bool {
    for col in 0..n {
        let mut p = col;
        let mut best = a[col * n + col].abs();
        for r in col + 1..n {
            let x = a[r * n + col].abs();
            if x > best {
                best = x;
                p = r;
            }
        }
        if best < 1e-300 {
            return false;
        }
        piv[col] = p;
        if p != col {
            for c in 0..n {
                a.swap(col * n + c, p * n + c);
            }
        }
        let pivot = a[col * n + col];
        for r in col + 1..n {
            let f = a[r * n + col] / pivot;
            a[r * n + col] = f;
            if f == 0.0 {
                continue;
            }
            for c in col + 1..n {
                a[r * n + c] -= f * a[col * n + c];
            }
        }
    }
    true
}

/// Solves `LU x = b` in place on `b`: pivot swaps first (they were
/// full-row swaps, so the stored multipliers line up with the permuted
/// right-hand side), then column-major unit-lower forward substitution
/// — the identical op order Gaussian elimination applies to `b` — then
/// back substitution.
fn lu_solve(a: &[f64], piv: &[usize], n: usize, b: &mut [f64]) {
    for (col, &p) in piv.iter().enumerate() {
        if p != col {
            b.swap(col, p);
        }
    }
    for col in 0..n {
        let bc = b[col];
        for r in col + 1..n {
            let f = a[r * n + col];
            if f == 0.0 {
                continue;
            }
            b[r] -= f * bc;
        }
    }
    for r in (0..n).rev() {
        let mut acc = b[r];
        for c in r + 1..n {
            let f = a[r * n + c];
            // Skip structural zeros: on banded systems (RC ladders,
            // inverter chains) most of U is empty, and the batched
            // plane solve skips the same entries so the per-column
            // operation sequences stay aligned.
            if f == 0.0 {
                continue;
            }
            acc -= f * b[c];
        }
        b[r] = acc / a[r * n + r];
    }
}

/// Gmin ladder used by the robust DC solve.
const DC_LADDER: [f64; 8] = [1e-3, 1e-5, 1e-7, 1e-9, 1e-10, 1e-11, 3e-12, 1e-12];
/// A step whose Newton solve needed this many iterations invalidates
/// the cached LU (the operating point moved a lot).
const SLOW_STEP_ITERS: usize = 10;
/// Source jump across a step (volts) that invalidates the cached LU.
/// Device transconductances vary on a ~VDD/10 scale, so smaller ramps
/// leave the stale Jacobian a good Newton matrix.
const SOURCE_JUMP_V: f64 = 0.15;
/// A damped Newton update below this magnitude (volts) leaves the MOS
/// small-signal parameters within a modest factor of the cached
/// Jacobian's (`gm` varies on the thermal-voltage scale, ~e^(dv/35mV)
/// in subthreshold), so the next iteration may ride the stale LU and
/// still contract strongly. Above it, refactorize — a bad Newton matrix
/// costs whole extra device-evaluation passes, which is the dominant
/// expense on these small MNA systems.
const JAC_STALE_DV: f64 = 0.02;
/// Consecutive stale-LU iterations allowed before a mandatory
/// refactorization, bounding how far modified Newton can drift from the
/// quadratic path.
const JAC_STALE_RUN: usize = 2;

/// A reusable solver bound to one circuit: compiled stamp plan,
/// workspace and accumulated [`SolverStats`]. The free functions
/// ([`transient`], [`dc_operating_point`], …) construct one per call;
/// hold a `Solver` yourself to amortize the plan across repeated
/// solves (sweeps do).
#[derive(Debug, Clone)]
pub struct Solver<'c> {
    circuit: &'c Circuit,
    plan: StampPlan,
    ws: Workspace,
    stats: SolverStats,
    /// `(source index, value)` override used by DC sweeps in place of
    /// cloning the circuit per point.
    source_override: Option<(usize, f64)>,
}

impl<'c> Solver<'c> {
    /// Compiles the circuit's stamp plan and sizes the workspace.
    pub fn new(circuit: &'c Circuit) -> Self {
        let plan = StampPlan::new(circuit);
        let ws = Workspace::new(plan.n_unknown);
        Self {
            circuit,
            plan,
            ws,
            stats: SolverStats::default(),
            source_override: None,
        }
    }

    /// Counters accumulated across every solve this instance ran.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Overrides source `index`'s value for subsequent solves (DC
    /// sweeps); `None` restores the circuit's own stimulus.
    pub fn set_source_override(&mut self, over: Option<(usize, f64)>) {
        self.source_override = over;
    }

    fn source_value(&self, i: usize, stim: &crate::circuit::Stimulus, t: f64) -> f64 {
        match self.source_override {
            Some((idx, val)) if idx == i => val,
            _ => stim.value_at(t),
        }
    }

    /// Fills known node voltages into `v` for time `t`.
    fn apply_sources(&self, v: &mut [f64], t: f64) {
        v[0] = 0.0;
        for (i, (node, stim)) in self.circuit.sources().iter().enumerate() {
            v[node.index()] = self.source_value(i, stim, t);
        }
    }

    /// Fills known node voltages with every source lerped between its
    /// values at `t0` and `t1`: `(1-alpha)·v(t0) + alpha·v(t1)`. The
    /// source-stepping recovery rung walks `alpha` from 0 to 1 so a
    /// step change too violent for one Newton solve becomes a short
    /// continuation.
    fn apply_sources_blend(&self, v: &mut [f64], t0: f64, t1: f64, alpha: f64) {
        v[0] = 0.0;
        for (i, (node, stim)) in self.circuit.sources().iter().enumerate() {
            let a = self.source_value(i, stim, t0);
            let b = self.source_value(i, stim, t1);
            v[node.index()] = a + alpha * (b - a);
        }
    }

    /// Builds the enriched [`SolverError::NonConvergence`]: assembles
    /// the residual at the abandoned operating point `v` and names the
    /// node with the largest `|F|` entry. Runs only on the failure
    /// path, so the extra device-evaluation pass costs nothing in
    /// converging solves (and is deliberately left out of
    /// [`SolverStats`] — it is diagnostics, not solver work).
    fn nonconvergence(
        &mut self,
        v: &[f64],
        prev_dt: Option<(&[f64], f64)>,
        gmin: f64,
        iterations: u64,
        time: f64,
    ) -> SolverError {
        self.plan.assemble(v, prev_dt, gmin, &mut self.ws.rhs, None);
        let mut worst_slot = None;
        let mut worst_abs = 0.0f64;
        for (slot, &r) in self.ws.rhs.iter().enumerate() {
            if r.abs() > worst_abs {
                worst_abs = r.abs();
                worst_slot = Some(slot);
            }
        }
        let worst_node = worst_slot.and_then(|slot| {
            self.plan
                .index
                .iter()
                .position(|&s| s == Some(slot))
                .map(|node_idx| self.circuit.node_name(Node(node_idx)).to_string())
        });
        SolverError::NonConvergence {
            time,
            iterations,
            worst_node,
        }
    }

    /// Largest source magnitude at `t` (the historical mid-supply
    /// guess is half of it).
    fn max_source_abs(&self, t: f64) -> f64 {
        self.circuit
            .sources()
            .iter()
            .enumerate()
            .map(|(i, (_, s))| self.source_value(i, s, t).abs())
            .fold(0.0f64, f64::max)
    }

    /// Largest source value change between `t0` and `t1`.
    fn source_jump(&self, t0: f64, t1: f64) -> f64 {
        self.circuit
            .sources()
            .iter()
            .enumerate()
            .map(|(i, (_, s))| (self.source_value(i, s, t1) - self.source_value(i, s, t0)).abs())
            .fold(0.0f64, f64::max)
    }

    /// Assembles, factorizes into `bank` and records the LU cache key.
    fn refactorize(
        &mut self,
        v: &[f64],
        prev_dt: Option<(&[f64], f64)>,
        gmin: f64,
        time: f64,
        bank: usize,
    ) -> Result<(), SolverError> {
        self.plan.assemble(
            v,
            prev_dt,
            gmin,
            &mut self.ws.rhs,
            Some(&mut self.ws.banks[bank].a),
        );
        self.stats.residual_builds += 1;
        self.stats.jacobian_builds += 1;
        let n = self.ws.n;
        let b = &mut self.ws.banks[bank];
        if !factorize(&mut b.a, &mut b.piv, n) {
            b.valid = false;
            return Err(SolverError::SingularMatrix { time });
        }
        self.stats.factorizations += 1;
        b.valid = true;
        b.dt = prev_dt.map_or(0.0, |(_, dt)| dt).to_bits();
        b.gmin = gmin.to_bits();
        self.ws.mru = bank;
        Ok(())
    }

    /// Applies the damped Newton update to `v`; returns the damped
    /// update magnitude used for the convergence test.
    fn apply_update(&mut self, v: &mut [f64]) -> f64 {
        let dv = &self.ws.rhs;
        let max_dv = dv.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let scale = if max_dv > 0.4 { 0.4 / max_dv } else { 1.0 };
        for (node_idx, &slot) in self.plan.index.iter().enumerate() {
            if let Some(i) = slot {
                v[node_idx] += scale * dv[i];
            }
        }
        max_dv * scale
    }

    /// The non-convergence recovery ladder for transient steps,
    /// invoked only after the plain Newton solve of the backward-Euler
    /// step `prev → t` has failed — so a transient in which every step
    /// converges first try never enters this function and stays
    /// bit-identical to the historical arithmetic.
    ///
    /// Escalation, cheapest first; each rung restarts from `prev`:
    ///
    /// 1. **gmin-stepping** — re-solve the same step down a gmin
    ///    ladder ending at `config.gmin`,
    /// 2. **source-stepping** — walk the sources from their `t − dt`
    ///    values to their `t` values in quarter blends, solving at
    ///    each as a continuation,
    /// 3. **dt-cut** — integrate the span as four backward-Euler
    ///    substeps of `dt/4` (a finer discretization of the same span;
    ///    its endpoint stands in for the failed full step).
    ///
    /// On success `v` holds the recovered step solution and the
    /// winning rung is counted in [`SolverStats`]; when every rung
    /// fails, the original enriched error is returned.
    fn recover_step(
        &mut self,
        v: &mut [f64],
        prev: &[f64],
        dt: f64,
        t: f64,
        config: &TransientConfig,
        err: SolverError,
    ) -> Result<(), SolverError> {
        self.stats.recovery_attempts += 1;
        // A small user Newton budget is often *why* the step failed;
        // recovery runs with a generous one.
        let iters = config.max_newton.max(200);

        // Rung 1: gmin-stepping down to the configured gmin.
        v.copy_from_slice(prev);
        self.apply_sources(v, t);
        let mut ok = true;
        for g in [1e-6, 1e-8, 1e-10, config.gmin] {
            let g = g.max(config.gmin);
            if self
                .newton_full(v, Some((prev, dt)), g, iters, config.tol, t)
                .is_err()
            {
                ok = false;
                break;
            }
        }
        if ok {
            self.stats.recovered_gmin += 1;
            return Ok(());
        }

        // Rung 2: source-stepping from the previous step's values.
        v.copy_from_slice(prev);
        ok = true;
        for alpha in [0.25, 0.5, 0.75, 1.0] {
            self.apply_sources_blend(v, t - dt, t, alpha);
            if self
                .newton_full(v, Some((prev, dt)), config.gmin, iters, config.tol, t)
                .is_err()
            {
                ok = false;
                break;
            }
        }
        if ok {
            self.stats.recovered_source += 1;
            return Ok(());
        }

        // Rung 3: dt-cut into four backward-Euler substeps.
        v.copy_from_slice(prev);
        let sub = 0.25 * dt;
        let mut sub_prev = prev.to_vec();
        ok = true;
        for j in 1..=4u32 {
            let tj = t - dt + f64::from(j) * sub;
            self.apply_sources(v, tj);
            if self
                .newton_full(
                    v,
                    Some((&sub_prev, sub)),
                    config.gmin,
                    iters,
                    config.tol,
                    tj,
                )
                .is_err()
            {
                ok = false;
                break;
            }
            sub_prev.copy_from_slice(v);
        }
        if ok {
            self.stats.recovered_dt_cut += 1;
            return Ok(());
        }

        Err(err)
    }

    /// Full Newton: Jacobian rebuilt and refactorized every iteration,
    /// matching the historical solver's arithmetic bit-for-bit. The
    /// single deviation: pure-linear circuits reuse the cached LU when
    /// the `(dt, gmin)` key matches — the matrix would have been
    /// bit-identical, so the factors are too.
    fn newton_full(
        &mut self,
        v: &mut [f64],
        prev_dt: Option<(&[f64], f64)>,
        gmin: f64,
        max_iter: usize,
        tol: f64,
        time: f64,
    ) -> Result<(), SolverError> {
        let dt_key = prev_dt.map_or(0.0, |(_, dt)| dt).to_bits();
        let gmin_key = gmin.to_bits();
        for _ in 0..max_iter {
            self.stats.newton_iterations += 1;
            let hit = if self.plan.linear {
                self.ws.matching(dt_key, gmin_key)
            } else {
                None
            };
            let bank = match hit {
                Some(i) => {
                    self.plan.assemble(v, prev_dt, gmin, &mut self.ws.rhs, None);
                    self.stats.residual_builds += 1;
                    self.stats.factorization_reuses += 1;
                    self.ws.mru = i;
                    i
                }
                None => {
                    let b = self.ws.evict_target(dt_key, gmin_key);
                    self.refactorize(v, prev_dt, gmin, time, b)?;
                    b
                }
            };
            for r in self.ws.rhs.iter_mut() {
                *r = -*r;
            }
            let b = &self.ws.banks[bank];
            lu_solve(&b.a, &b.piv, self.ws.n, &mut self.ws.rhs);
            if self.apply_update(v) < tol {
                return Ok(());
            }
        }
        Err(self.nonconvergence(v, prev_dt, gmin, max_iter as u64, time))
    }

    /// Modified Newton for the adaptive path. The measured cost model
    /// on these small MNA systems is blunt: device evaluation dominates
    /// every iteration whether or not the Jacobian is refreshed, and
    /// the LU factorization itself is nearly free — so a stale Jacobian
    /// only pays when it does not cost extra iterations. Two situations
    /// qualify:
    ///
    /// * **Across steps** — `stale_start` carries the controller's
    ///   prediction in: when the previous solve converged immediately
    ///   (a flat span where the warm start is already the answer),
    ///   iteration 0 rides the cached LU and skips the factorization.
    /// * **Across iterations** — once an iteration's damped update
    ///   drops below [`JAC_STALE_DV`], the operating point has moved
    ///   little enough that the just-factorized LU is still an
    ///   excellent Newton matrix; the next iterations (at most
    ///   [`JAC_STALE_RUN`] in a row) reuse it. A stale iteration that
    ///   fails to contract the update forces a fresh factorization
    ///   immediately, so convergence never stalls on a frozen Jacobian.
    ///
    /// The stale-Jacobian iterates differ from full Newton's, which is
    /// fine under the LTE contract but would break `Fixed` mode's
    /// bit-identity guarantee — hence adaptive-only.
    ///
    /// Returns the number of iterations used.
    #[allow(clippy::too_many_arguments)]
    fn newton_modified(
        &mut self,
        v: &mut [f64],
        prev_dt: Option<(&[f64], f64)>,
        gmin: f64,
        max_iter: usize,
        tol: f64,
        time: f64,
        stale_start: bool,
    ) -> Result<usize, SolverError> {
        let dt_key = prev_dt.map_or(0.0, |(_, dt)| dt).to_bits();
        let gmin_key = gmin.to_bits();
        let mut last_dv = f64::INFINITY;
        let mut stale_run = 0usize;
        for iter in 0..max_iter {
            self.stats.newton_iterations += 1;
            let want_stale = if iter == 0 {
                stale_start
            } else {
                last_dv < JAC_STALE_DV && stale_run < JAC_STALE_RUN
            };
            let hit = if want_stale {
                self.ws.matching(dt_key, gmin_key)
            } else {
                None
            };
            let stale = hit.is_some();
            let bank = match hit {
                Some(i) => {
                    self.plan.assemble(v, prev_dt, gmin, &mut self.ws.rhs, None);
                    self.stats.residual_builds += 1;
                    self.stats.factorization_reuses += 1;
                    self.ws.mru = i;
                    i
                }
                None => {
                    let b = self.ws.evict_target(dt_key, gmin_key);
                    self.refactorize(v, prev_dt, gmin, time, b)?;
                    b
                }
            };
            for r in self.ws.rhs.iter_mut() {
                *r = -*r;
            }
            let b = &self.ws.banks[bank];
            lu_solve(&b.a, &b.piv, self.ws.n, &mut self.ws.rhs);
            let upd = self.apply_update(v);
            if upd < tol {
                return Ok(iter + 1);
            }
            if stale {
                stale_run += 1;
                // Not contracting on the frozen Jacobian: force a
                // fresh factorization next iteration.
                last_dv = if upd >= last_dv { f64::INFINITY } else { upd };
            } else {
                stale_run = 0;
                last_dv = upd;
            }
        }
        Err(self.nonconvergence(v, prev_dt, gmin, max_iter as u64, time))
    }

    /// Robust DC solve at time `t`: mid-supply then zero initial
    /// guesses, each with a direct attempt, a gmin ladder and a final
    /// direct attempt. Identical flow to the historical `dc_at_time`,
    /// except failures now report the actual `t` instead of `0.0`.
    fn dc_at(&mut self, t: f64) -> Result<Vec<f64>, SolverError> {
        // Mid-supply initial guess: the natural basin for self-biased
        // CMOS (the resistive-feedback inverter settles near 0.5·VDD).
        let v_mid = 0.5 * self.max_source_abs(t);
        let mut best_err = SolverError::NonConvergence {
            time: t,
            iterations: 0,
            worst_node: None,
        };
        for guess in [v_mid, 0.0] {
            let mut v = vec![guess; self.plan.n_nodes];
            self.apply_sources(&mut v, t);
            // Direct attempt at the target gmin, then a gmin ladder.
            if self.newton_full(&mut v, None, 1e-12, 400, 1e-9, t).is_ok() {
                return Ok(v);
            }
            let mut ok = true;
            for gmin in DC_LADDER {
                match self.newton_full(&mut v, None, gmin, 400, 1e-9, t) {
                    Ok(()) => {}
                    Err(e) => {
                        best_err = e;
                        ok = false;
                    }
                }
            }
            if ok {
                return Ok(v);
            }
            // Final ladder step failed but earlier ones may have landed
            // close: one more direct attempt from wherever we are.
            if self.newton_full(&mut v, None, 1e-12, 400, 1e-9, t).is_ok() {
                return Ok(v);
            }
        }
        Err(best_err)
    }

    /// DC solve from a seeded guess (SPICE `.nodeset`). Tracks every
    /// gmin rung's outcome (not just the last) and finishes with a
    /// direct attempt, mirroring [`Solver::dc_at`].
    fn dc_nodeset(&mut self, nodeset: &[(Node, f64)]) -> Result<Vec<f64>, SolverError> {
        let v_mid = 0.5 * self.max_source_abs(0.0);
        let mut v = vec![v_mid; self.plan.n_nodes];
        for &(node, guess) in nodeset {
            v[node.index()] = guess;
        }
        self.apply_sources(&mut v, 0.0);
        if self
            .newton_full(&mut v, None, 1e-12, 400, 1e-9, 0.0)
            .is_ok()
        {
            return Ok(v);
        }
        // Gmin ladder from the seeded point, every rung tracked.
        let mut best_err = SolverError::NonConvergence {
            time: 0.0,
            iterations: 0,
            worst_node: None,
        };
        let mut ok = true;
        for gmin in [1e-6, 1e-9, 1e-12] {
            match self.newton_full(&mut v, None, gmin, 400, 1e-9, 0.0) {
                Ok(()) => {}
                Err(e) => {
                    best_err = e;
                    ok = false;
                }
            }
        }
        if ok {
            return Ok(v);
        }
        if self
            .newton_full(&mut v, None, 1e-12, 400, 1e-9, 0.0)
            .is_ok()
        {
            return Ok(v);
        }
        Err(best_err)
    }

    /// Runs a transient from the DC operating point using `config`'s
    /// step mode.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError`] on DC or per-step Newton failure.
    ///
    /// # Panics
    ///
    /// Panics, naming the field, unless `t_end` is finite and
    /// non-negative and the step is finite and positive (for adaptive
    /// runs: `dt_min`, with `dt_max >= dt_min` and `lte_tol > 0`).
    pub fn run_transient(
        &mut self,
        config: &TransientConfig,
    ) -> Result<TransientResult, SolverError> {
        config.check();
        let _span = telemetry::span("analog.transient");
        let before = self.stats;
        let waveforms = match config.step {
            StepMode::Fixed(dt) => self.transient_fixed(dt, config),
            StepMode::Adaptive {
                dt_min,
                dt_max,
                lte_tol,
            } => self.transient_adaptive(dt_min, dt_max, lte_tol, config),
        }?;
        let stats = self.stats.since(&before);
        stats.record_telemetry();
        telemetry::record_value("analog.newton_per_transient", stats.newton_iterations);
        telemetry::record_value("analog.steps_per_transient", stats.steps_taken);
        Ok(TransientResult { waveforms, stats })
    }

    /// Historical fixed-step loop, with samples streamed into per-node
    /// buffers instead of cloning the node vector every step.
    fn transient_fixed(
        &mut self,
        dt: f64,
        config: &TransientConfig,
    ) -> Result<Vec<Waveform>, SolverError> {
        let mut v = self.dc_at(0.0)?;
        let steps = (config.t_end / dt).ceil() as usize;
        let mut bufs: Vec<Vec<f64>> = (0..self.plan.n_nodes)
            .map(|_| Vec::with_capacity(steps + 1))
            .collect();
        for (buf, &x) in bufs.iter_mut().zip(&v) {
            buf.push(x);
        }
        let mut prev = v.clone();
        for k in 1..=steps {
            let t = k as f64 * dt;
            self.apply_sources(&mut v, t);
            if let Err(e) = self.newton_full(
                &mut v,
                Some((&prev, dt)),
                config.gmin,
                config.max_newton,
                config.tol,
                t,
            ) {
                // Escalate through the recovery ladder before giving
                // up; a fully convergent run never reaches this branch
                // and stays bit-identical to the reference solver.
                self.recover_step(&mut v, &prev, dt, t, config, e)?;
            }
            for (buf, &x) in bufs.iter_mut().zip(&v) {
                buf.push(x);
            }
            prev.copy_from_slice(&v);
            self.stats.steps_taken += 1;
        }
        Ok(bufs
            .into_iter()
            .map(|samples| Waveform::new(0.0, dt, samples))
            .collect())
    }

    /// Adaptive loop. With an accepted span behind it, a step is one
    /// backward-Euler solve whose LTE, `0.25·h²·v''`, comes from the
    /// second divided difference across the last two spans. A step with
    /// no history (the start of the run) is solved once at `h` and twice
    /// at `h/2`, and `max |v_h − v_{h/2,h/2}|` bounds its LTE. Steps at
    /// the `dt_min` floor are taken unchecked. Accepted spans are
    /// linearly resampled onto the uniform `dt_min` output grid.
    fn transient_adaptive(
        &mut self,
        dt_min: f64,
        dt_max: f64,
        lte_tol: f64,
        config: &TransientConfig,
    ) -> Result<Vec<Waveform>, SolverError> {
        let n_nodes = self.plan.n_nodes;
        let out_dt = dt_min;
        let n_out = (config.t_end / out_dt).ceil() as usize;
        let t_stop = n_out as f64 * out_dt;

        let v0 = self.dc_at(0.0)?;
        let mut bufs: Vec<Vec<f64>> = (0..n_nodes)
            .map(|_| Vec::with_capacity(n_out + 1))
            .collect();
        for (buf, &x) in bufs.iter_mut().zip(&v0) {
            buf.push(x);
        }
        // Next output-grid index to fill; lerp accepted spans onto it.
        let mut next_out = 1usize;
        let emit = |bufs: &mut Vec<Vec<f64>>,
                    next_out: &mut usize,
                    t0: f64,
                    va: &[f64],
                    t1: f64,
                    vb: &[f64]| {
            while *next_out <= n_out {
                let tg = *next_out as f64 * out_dt;
                if tg > t1 + 1e-9 * out_dt {
                    break;
                }
                let alpha = if t1 > t0 {
                    ((tg - t0) / (t1 - t0)).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                for (buf, (&a, &b)) in bufs.iter_mut().zip(va.iter().zip(vb)) {
                    buf.push(a + alpha * (b - a));
                }
                *next_out += 1;
            }
        };

        let mut t = 0.0f64;
        let mut v = v0;
        let mut v_big = vec![0.0; n_nodes];
        let mut v_half = vec![0.0; n_nodes];
        let mut v_end = vec![0.0; n_nodes];
        let mut h = dt_min;
        let mut floor_streak = 0usize;
        // History of the last accepted span, for the divided-difference
        // LTE estimate of plain (single-solve) steps. `h_prev == 0`
        // means no usable history: the next step must be a doubling
        // probe.
        let mut v_prevstep = vec![0.0; n_nodes];
        let mut h_prev = 0.0f64;
        // Did the last Newton solve converge immediately? If so the
        // cached LU is still the converged Jacobian of a flat span and
        // the next solve may open on it without refactorizing.
        let mut fast_streak = false;
        // Runaway guard: an accepted floor step advances at least
        // dt_min and a rejection halves h, so this bound is generous.
        let mut budget = 16 * n_out as u64 + 4096;

        while next_out <= n_out {
            if t_stop - t < 0.5 * out_dt * 1e-6 {
                break;
            }
            budget = budget.saturating_sub(1);
            if budget == 0 {
                return Err(SolverError::NonConvergence {
                    time: t,
                    iterations: 0,
                    worst_node: None,
                });
            }
            let h_eff = h.min(t_stop - t);
            // A fast source move shifts the operating point: the
            // cached LU no longer approximates the Jacobian there.
            // Solution history stays — the divided-difference LTE sees
            // any real discontinuity as huge curvature and rejects the
            // step on its own, which is exactly the right response.
            if self.source_jump(t, t + h_eff) > SOURCE_JUMP_V {
                self.ws.invalidate();
            }
            // The LTE bound, not the Newton tolerance, limits accuracy
            // in this mode — solving each step far below the accepted
            // truncation error only burns device evaluations. The big
            // step exists purely as the LTE probe, so it gets an even
            // looser target.
            let ntol = config.tol.max(0.03 * lte_tol);
            let ntol_big = config.tol.max(0.1 * lte_tol);
            if h_eff <= dt_min * (1.0 + 1e-9) {
                // At the floor there is nothing to refine against:
                // take the backward-Euler step and accept it.
                v_end.copy_from_slice(&v);
                self.apply_sources(&mut v_end, t + h_eff);
                let solved = self.newton_modified(
                    &mut v_end,
                    Some((&v, h_eff)),
                    config.gmin,
                    config.max_newton,
                    ntol,
                    t + h_eff,
                    fast_streak,
                );
                let iters = match solved {
                    Ok(i) => i,
                    Err(e) => {
                        // At the floor there is no smaller step to
                        // retry at — escalate through the recovery
                        // ladder, then resume with a cold LU cache.
                        self.recover_step(&mut v_end, &v, h_eff, t + h_eff, config, e)?;
                        self.ws.invalidate();
                        SLOW_STEP_ITERS
                    }
                };
                fast_streak = iters <= 1;
                if iters > SLOW_STEP_ITERS {
                    self.ws.invalidate();
                }
                self.stats.steps_taken += 1;
                emit(&mut bufs, &mut next_out, t, &v, t + h_eff, &v_end);
                v_prevstep.copy_from_slice(&v);
                h_prev = h_eff;
                v.copy_from_slice(&v_end);
                t += h_eff;
                floor_streak += 1;
                if floor_streak >= 4 {
                    // Probe growth: the next step is LTE-tested, so a
                    // wrong guess costs one rejection, not accuracy.
                    h = (2.0 * dt_min).min(dt_max);
                    floor_streak = 0;
                }
                continue;
            }
            floor_streak = 0;

            // Plain step: with an accepted span behind us, one
            // backward-Euler solve suffices — the LTE comes free from
            // the second divided difference across the last two spans,
            // scale-matched to the doubling defect (both are h²·v''/4
            // estimators) and valid for growth candidates too since it
            // reads the freshly solved span. Only history-less steps
            // (start of the run) fall through to the rigorous
            // step-doubling probe.
            if h_prev > 0.0 {
                // Warm start by linear extrapolation of the last span.
                for (x, (&a, &b)) in v_end.iter_mut().zip(v.iter().zip(&v_prevstep)) {
                    *x = a + (a - b) * (h_eff / h_prev);
                }
                self.apply_sources(&mut v_end, t + h_eff);
                let solved = self.newton_modified(
                    &mut v_end,
                    Some((&v, h_eff)),
                    config.gmin,
                    config.max_newton,
                    ntol,
                    t + h_eff,
                    fast_streak,
                );
                let iters = match solved {
                    Ok(i) => i,
                    Err(_) => {
                        self.ws.invalidate();
                        fast_streak = false;
                        self.stats.steps_rejected += 1;
                        h = (0.5 * h_eff).max(dt_min);
                        continue;
                    }
                };
                fast_streak = iters <= 1;
                let mut lte = 0.0f64;
                for i in 0..n_nodes {
                    let d1 = (v_end[i] - v[i]) / h_eff;
                    let d0 = (v[i] - v_prevstep[i]) / h_prev;
                    let vpp = 2.0 * (d1 - d0) / (h_eff + h_prev);
                    lte = lte.max((0.25 * h_eff * h_eff * vpp).abs());
                }
                if lte <= lte_tol {
                    if iters > SLOW_STEP_ITERS {
                        self.ws.invalidate();
                    }
                    self.stats.steps_taken += 1;
                    emit(&mut bufs, &mut next_out, t, &v, t + h_eff, &v_end);
                    v_prevstep.copy_from_slice(&v);
                    h_prev = h_eff;
                    v.copy_from_slice(&v_end);
                    t += h_eff;
                    h = if lte < 0.25 * lte_tol {
                        (2.0 * h_eff).min(dt_max)
                    } else if lte < 0.6 * lte_tol {
                        h_eff.min(dt_max)
                    } else {
                        (0.8 * h_eff).max(dt_min)
                    };
                } else {
                    self.stats.steps_rejected += 1;
                    let shrink = (0.9 * (lte_tol / lte).sqrt()).clamp(0.1, 0.5);
                    h = (shrink * h_eff).max(dt_min);
                }
                continue;
            }
            let half = 0.5 * h_eff;
            // Warm starts: the half-step solves start from the big-step
            // solution (midpoint lerp, then the endpoint itself) — pure
            // initial guesses; the Newton tolerance decides accuracy.
            let attempt = (|this: &mut Self, fs: bool| -> Result<usize, SolverError> {
                v_big.copy_from_slice(&v);
                this.apply_sources(&mut v_big, t + h_eff);
                let i1 = this.newton_modified(
                    &mut v_big,
                    Some((&v, h_eff)),
                    config.gmin,
                    config.max_newton,
                    ntol_big,
                    t + h_eff,
                    fs,
                )?;
                for (x, (&a, &b)) in v_half.iter_mut().zip(v.iter().zip(&v_big)) {
                    *x = 0.5 * (a + b);
                }
                this.apply_sources(&mut v_half, t + half);
                let i2 = this.newton_modified(
                    &mut v_half,
                    Some((&v, half)),
                    config.gmin,
                    config.max_newton,
                    ntol,
                    t + half,
                    i1 <= 1,
                )?;
                v_end.copy_from_slice(&v_big);
                this.apply_sources(&mut v_end, t + h_eff);
                let i3 = this.newton_modified(
                    &mut v_end,
                    Some((&v_half, half)),
                    config.gmin,
                    config.max_newton,
                    ntol,
                    t + h_eff,
                    i2 <= 1,
                )?;
                Ok(i1.max(i2).max(i3))
            })(self, fast_streak);
            let worst_iters = match attempt {
                Ok(i) => i,
                Err(_) => {
                    // Newton failure above the floor: treat as a step
                    // rejection and retry smaller with a fresh LU.
                    self.ws.invalidate();
                    fast_streak = false;
                    self.stats.steps_rejected += 1;
                    h = (0.5 * h_eff).max(dt_min);
                    continue;
                }
            };
            fast_streak = worst_iters <= 1;
            let lte = v_big
                .iter()
                .zip(&v_end)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if lte <= lte_tol {
                if worst_iters > SLOW_STEP_ITERS {
                    self.ws.invalidate();
                }
                self.stats.steps_taken += 2;
                emit(&mut bufs, &mut next_out, t, &v, t + half, &v_half);
                emit(
                    &mut bufs,
                    &mut next_out,
                    t + half,
                    &v_half,
                    t + h_eff,
                    &v_end,
                );
                v_prevstep.copy_from_slice(&v);
                h_prev = h_eff;
                v.copy_from_slice(&v_end);
                t += h_eff;
                h = if lte < 0.25 * lte_tol {
                    (2.0 * h_eff).min(dt_max)
                } else if lte < 0.6 * lte_tol {
                    h_eff.min(dt_max)
                } else {
                    // Hysteresis: an LTE brushing the bound would
                    // oscillate accept/reject at a fixed h; back off a
                    // little while still accepting.
                    (0.8 * h_eff).max(dt_min)
                };
            } else {
                // Proportional back-off: the doubling defect of a
                // first-order method scales as h², so jump straight to
                // the step the measured LTE implies instead of cascading
                // through halvings (each rejection wastes three solves).
                self.stats.steps_rejected += 1;
                let shrink = (0.9 * (lte_tol / lte).sqrt()).clamp(0.1, 0.5);
                h = (shrink * h_eff).max(dt_min);
            }
        }
        // Float drift can leave the last grid point unfilled; hold the
        // final value.
        for buf in bufs.iter_mut() {
            while buf.len() < n_out + 1 {
                let last = *buf.last().expect("has the DC sample");
                buf.push(last);
            }
        }
        Ok(bufs
            .into_iter()
            .map(|samples| Waveform::new(0.0, out_dt, samples))
            .collect())
    }
}

/// Solves the DC operating point with sources at their `t = 0` values,
/// using gmin stepping for robustness.
///
/// # Errors
///
/// Returns [`SolverError`] if Newton fails even at the largest gmin.
///
/// # Panics
///
/// In debug builds, panics if the circuit fails the [`crate::drc`]
/// gate (non-positive elements, source conflicts, bad stimuli).
pub fn dc_operating_point(circuit: &Circuit) -> Result<DcSolution, SolverError> {
    crate::drc::debug_check(circuit);
    let _span = telemetry::span("analog.dc");
    let mut solver = Solver::new(circuit);
    let voltages = solver.dc_at(0.0)?;
    solver.stats.record_telemetry();
    Ok(DcSolution {
        voltages,
        stats: solver.stats,
    })
}

/// Solves the DC operating point from user-supplied initial guesses on
/// selected nodes — SPICE's `.nodeset`. Needed for bistable circuits
/// (latches, cross-coupled pairs) where plain Newton converges to the
/// metastable solution.
///
/// # Errors
///
/// Returns [`SolverError`] if Newton fails from the seeded guess even
/// after gmin stepping.
///
/// # Panics
///
/// In debug builds, panics if the circuit fails the [`crate::drc`] gate.
pub fn dc_operating_point_with_nodeset(
    circuit: &Circuit,
    nodeset: &[(Node, f64)],
) -> Result<DcSolution, SolverError> {
    crate::drc::debug_check(circuit);
    let _span = telemetry::span("analog.dc");
    let mut solver = Solver::new(circuit);
    let voltages = solver.dc_nodeset(nodeset)?;
    solver.stats.record_telemetry();
    Ok(DcSolution {
        voltages,
        stats: solver.stats,
    })
}

/// DC sweep: overrides source `source_index`'s value across `values`
/// and returns the full node-voltage vector per point, fanned across
/// `threads` workers. Each point is its own robust `Solver::dc_at`
/// solve, so results come back in input order, bit-identical for any
/// thread count and to a [`dc_operating_point`] of each point's
/// circuit.
///
/// # Errors
///
/// Returns the first solver failure in input order.
///
/// # Panics
///
/// Panics if `source_index` is out of range, or (in debug builds) if
/// the circuit fails the [`crate::drc`] gate.
pub fn dc_sweep_with_threads(
    circuit: &Circuit,
    source_index: usize,
    values: &[f64],
    threads: usize,
) -> Result<DcSweepResult, SolverError> {
    crate::drc::debug_check(circuit);
    assert!(
        source_index < circuit.sources().len(),
        "source index out of range"
    );
    let _span = telemetry::span("analog.dc_sweep");
    let results = crate::par::map_with_threads(values, threads, |_, &x| {
        let mut solver = Solver::new(circuit);
        solver.set_source_override(Some((source_index, x)));
        solver.dc_at(0.0).map(|v| (v, solver.stats))
    });
    let mut points = Vec::with_capacity(values.len());
    let mut stats = SolverStats::default();
    for r in results {
        let (v, point_stats) = r?;
        points.push(v);
        stats.merge(&point_stats);
    }
    stats.record_telemetry();
    Ok(DcSweepResult { points, stats })
}

/// Runs a transient analysis from the DC operating point.
///
/// # Errors
///
/// Returns [`SolverError`] on DC or per-step Newton failure.
///
/// # Panics
///
/// In debug builds, panics if the circuit fails the [`crate::drc`]
/// gate. The [`reference`](mod@reference) solver stays ungated: it is the
/// pre-optimization baseline and must accept whatever the old code did.
pub fn transient(
    circuit: &Circuit,
    config: &TransientConfig,
) -> Result<TransientResult, SolverError> {
    crate::drc::debug_check(circuit);
    Solver::new(circuit).run_transient(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Stimulus;
    use openserdes_pdk::corner::Pvt;
    use openserdes_pdk::mos::{MosDevice, MosParams};

    const VDD: f64 = 1.8;

    #[test]
    fn resistive_divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.vsource(vin, Stimulus::Dc(1.8));
        c.resistor(vin, mid, 1e3);
        c.resistor(mid, c.gnd(), 3e3);
        let v = dc_operating_point(&c).expect("solves");
        assert!(
            (v[mid.index()] - 1.35).abs() < 1e-6,
            "mid = {}",
            v[mid.index()]
        );
    }

    /// The most a DC solve can move any node of a linear resistive
    /// network away from its gmin-free closed form. `dc_operating_point`
    /// solves (G + gmin·I)·v' = G·v, where v is the exact solution and
    /// G the nodal conductance matrix of the `nodes` unknown nodes. So
    /// v − v' = gmin·(G + gmin·I)⁻¹·v. That inverse is entrywise
    /// nonnegative and at most G⁻¹, whose entries are transfer
    /// resistances, each at most a driving-point resistance, which is
    /// at most the resistance `r_sum` of all resistors in series. So
    /// 0 ≤ v − v' ≤ nodes·gmin·r_sum·v_max at every node. Rounding in
    /// the LU solve is of order nodes·ε·v_max, nine orders below.
    fn gmin_bound(nodes: usize, r_sum: f64, v_max: f64) -> f64 {
        // The gmin `dc_at` solves at.
        const DC_GMIN: f64 = 1e-12;
        nodes as f64 * DC_GMIN * r_sum * v_max
    }

    /// Asserts `got` sits at or below `want` by at most `bound`: gmin
    /// to ground only pulls a positive node toward 0 V.
    fn assert_gmin_close(name: &str, got: f64, want: f64, bound: f64) {
        assert!(
            (0.0..=bound).contains(&(want - got)),
            "{name}: {got:e} vs closed form {want:e} (bound {bound:e})"
        );
    }

    #[test]
    fn r2r_ladder_halves_at_every_node() {
        // Source → R → n1 → R → n2 … → n8, a 2R shunt at every node and
        // a 2R terminator at n8. Every node looks into R toward ground
        // (2R ‖ 2R at n8, then 2R ‖ (R + R) upward), so each series R
        // halves the voltage: n_k = VDD / 2^k.
        const R: f64 = 1e3;
        const RUNGS: usize = 8;
        let mut c = Circuit::new();
        let top = c.node("top");
        c.vsource(top, Stimulus::Dc(VDD));
        let mut nodes = Vec::new();
        let mut above = top;
        for k in 1..=RUNGS {
            let node = c.node(format!("n{k}"));
            c.resistor(above, node, R);
            c.resistor(node, c.gnd(), 2.0 * R);
            nodes.push(node);
            above = node;
        }
        c.resistor(above, c.gnd(), 2.0 * R);
        let v = dc_operating_point(&c).expect("solves");
        let r_sum = RUNGS as f64 * 3.0 * R + 2.0 * R;
        let bound = gmin_bound(RUNGS, r_sum, VDD);
        for (k, node) in nodes.iter().enumerate() {
            let want = VDD / f64::from(1u32 << (k + 1));
            assert_gmin_close(&format!("n{}", k + 1), v[node.index()], want, bound);
        }
    }

    #[test]
    fn unbalanced_wheatstone_bridge_dc() {
        // Arms R1 (top–a), R2 (a–gnd), R3 (top–b), R4 (b–gnd), bridge
        // R5 (a–b), with R1/R2 ≠ R3/R4. The closed form is Thévenin's:
        // each arm is a source of V·R2/(R1+R2) behind R1‖R2 (and
        // likewise for b), and the bridge current runs through the two
        // Thévenin resistances and R5 in series.
        let (r1, r2, r3, r4, r5) = (1e3, 2e3, 2.2e3, 1.5e3, 470.0);
        let mut c = Circuit::new();
        let top = c.node("top");
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(top, Stimulus::Dc(VDD));
        c.resistor(top, a, r1);
        c.resistor(a, c.gnd(), r2);
        c.resistor(top, b, r3);
        c.resistor(b, c.gnd(), r4);
        c.resistor(a, b, r5);
        let v = dc_operating_point(&c).expect("solves");

        let (va_open, ra) = (VDD * r2 / (r1 + r2), r1 * r2 / (r1 + r2));
        let (vb_open, rb) = (VDD * r4 / (r3 + r4), r3 * r4 / (r3 + r4));
        let bridge = (va_open - vb_open) / (ra + r5 + rb);
        let bound = gmin_bound(2, r1 + r2 + r3 + r4 + r5, VDD);
        assert_gmin_close("a", v[a.index()], va_open - bridge * ra, bound);
        assert_gmin_close("b", v[b.index()], vb_open + bridge * rb, bound);
        assert!(bridge > 1e-5, "the bridge must carry current: {bridge:e} A");
    }

    /// An ideal step of `swing` volts at t = 0 (two PWL points) into
    /// R = 1 kΩ, C = 1 pF: τ = 1 ns.
    fn rc_step(swing: f64) -> (Circuit, Node) {
        rc_driven(Stimulus::Pwl(vec![(0.0, 0.0), (0.0, swing)]))
    }

    /// A 1 kΩ / 1 pF low-pass (τ = 1 ns) driven by `source`.
    fn rc_driven(source: Stimulus) -> (Circuit, Node) {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, source);
        c.resistor(vin, out, 1e3);
        c.capacitor(out, c.gnd(), 1e-12);
        (c, out)
    }

    /// Asserts that `samples` follow the backward-Euler recurrence of
    /// [`rc_step`], `v_k = (a·v_{k−1} + g·u_k)/(a + g + gmin)` with
    /// `a = C/dt` and `g = 1/R`, from the DC point `v_0 = 0` (the
    /// source reads 0 V at t = 0 and `swing` after).
    fn assert_rc_recurrence(samples: &[f64], swing: f64, dt: f64, gmin: f64) {
        let (a, g) = (1e-12 / dt, 1e-3);
        let mut want = 0.0;
        for (k, &got) in samples.iter().enumerate() {
            if k > 0 {
                want = (a * want + g * swing) / (a + g + gmin);
            }
            assert!(
                (got - want).abs() <= 1e-12,
                "dt {dt:e}, swing {swing}, sample {k}: {got:e} vs {want:e}"
            );
        }
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let tau = 1e-9;
        let swings = [0.8, 1.0, 1.2];
        let mut max_errs = Vec::new();
        for dt in [20e-12, 10e-12, 5e-12, 2.5e-12] {
            let cfg = TransientConfig::until(5.0 * tau).with_fixed_dt(dt);
            let (c, out) = rc_step(1.0);
            let res = transient(&c, &cfg).expect("runs");
            let w = res.waveform(out).samples();
            assert_rc_recurrence(w, 1.0, dt, cfg.gmin);
            let err = w
                .iter()
                .enumerate()
                .map(|(k, &v)| (v - (1.0 - (-(k as f64) * dt / tau).exp())).abs())
                .fold(0.0f64, f64::max);
            max_errs.push(err);
            // The batched kernel on three swing corners of the same
            // circuit, checked against the arithmetic rather than
            // against the sequential solver.
            let points: Vec<batched::PointOverride> = swings
                .iter()
                .map(|&s| {
                    batched::PointOverride::new()
                        .with_source(0, Stimulus::Pwl(vec![(0.0, 0.0), (0.0, s)]))
                })
                .collect();
            let batch = Solver::new(&c).run_transient_batched(&points, &cfg);
            let stats = batch.stats();
            assert_eq!(stats.batched_points, 3, "the kernel runs the corners");
            assert_eq!(stats.batch_retirements, 0, "and solves every one");
            for (r, &s) in batch.results().iter().zip(&swings) {
                let w = r.as_ref().expect("runs").waveform(out).samples();
                assert_rc_recurrence(w, s, dt, cfg.gmin);
            }
        }
        // Backward Euler is first order: halving dt halves the error
        // against 1 − e^(−t/τ).
        for (pair, dt) in max_errs.windows(2).zip([20e-12, 10e-12, 5e-12]) {
            let ratio = pair[0] / pair[1];
            assert!(
                (1.9..=2.1).contains(&ratio),
                "error ratio {ratio} halving dt from {dt:e} ({:e} -> {:e})",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn rc_ramp_response_matches_analytic() {
        // The source ramps at `slope` V/s to `t_ramp`, then holds. Up to
        // t_ramp the output lags the ramp, v(t) = k·(t − τ·(1 − e^(−t/τ)));
        // after it, v settles exponentially onto k·t_ramp.
        let (tau, slope, t_ramp) = (1e-9, 0.5e9, 2e-9);
        let exact = |t: f64| {
            let at = |t: f64| slope * (t - tau * (1.0 - (-t / tau).exp()));
            if t <= t_ramp {
                at(t)
            } else {
                let hold = slope * t_ramp;
                hold - (hold - at(t_ramp)) * (-(t - t_ramp) / tau).exp()
            }
        };
        let mut max_errs = Vec::new();
        for dt in [20e-12, 10e-12, 5e-12, 2.5e-12] {
            let cfg = TransientConfig::until(5.0 * tau).with_fixed_dt(dt);
            let (c, out) = rc_driven(Stimulus::Pwl(vec![(0.0, 0.0), (t_ramp, slope * t_ramp)]));
            let res = transient(&c, &cfg).expect("runs");
            let err = res
                .waveform(out)
                .samples()
                .iter()
                .enumerate()
                .map(|(k, &v)| (v - exact(k as f64 * dt)).abs())
                .fold(0.0f64, f64::max);
            // Each backward-Euler step errs by at most (dt²/2)·|v''|, and
            // |v''| ≤ k/τ on both the ramp and the settle. The step
            // divides carried error by 1 + dt/τ, so the sum stays below
            // (dt²/2)·(k/τ)·(τ/dt) = k·dt/2.
            let bound = slope * dt / 2.0;
            assert!(err <= bound, "dt {dt:e}: error {err:e} above {bound:e}");
            max_errs.push(err);
        }
        // First order: halving dt halves the error.
        for (pair, dt) in max_errs.windows(2).zip([20e-12, 10e-12, 5e-12]) {
            let ratio = pair[0] / pair[1];
            assert!(
                (1.9..=2.1).contains(&ratio),
                "error ratio {ratio} halving dt from {dt:e} ({:e} -> {:e})",
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "fixed dt must be finite and positive")]
    fn zero_fixed_dt_panics_naming_the_field() {
        let (c, _) = rc_step(1.0);
        let _ = transient(&c, &TransientConfig::until(1e-9).with_fixed_dt(0.0));
    }

    #[test]
    #[should_panic(expected = "t_end must be finite and non-negative")]
    fn infinite_t_end_panics_naming_the_field() {
        let (c, _) = rc_step(1.0);
        let cfg = TransientConfig::until(f64::INFINITY).with_fixed_dt(1e-12);
        let _ = Solver::new(&c).run_transient_batched(&[batched::PointOverride::new()], &cfg);
    }

    fn inverter(c: &mut Circuit, vin: Node, vout: Node, vdd: Node, wn: f64, wp: f64) {
        let pvt = Pvt::nominal();
        let nmos = MosDevice::new(MosParams::sky130_nmos(&pvt), wn, 0.15);
        let pmos = MosDevice::new(MosParams::sky130_pmos(&pvt), wp, 0.15);
        c.mos(nmos, vout, vin, c.gnd());
        c.mos(pmos, vout, vin, vdd);
    }

    #[test]
    fn inverter_dc_levels() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(vin, Stimulus::Dc(0.0));
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        let v = dc_operating_point(&c).expect("solves");
        assert!(
            v[vout.index()] > VDD - 0.05,
            "out high: {}",
            v[vout.index()]
        );
    }

    #[test]
    fn inverter_vtc_monotonic_with_midpoint() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(vin, Stimulus::Dc(0.0));
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        let xs: Vec<f64> = (0..=36).map(|i| i as f64 * 0.05).collect();
        let sweep = dc_sweep_with_threads(&c, 1, &xs, 1).expect("sweeps");
        let vtc: Vec<f64> = sweep.iter().map(|v| v[vout.index()]).collect();
        // Monotonically non-increasing.
        for w in vtc.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall: {w:?}");
        }
        // Switching threshold (vout = vin) near mid-supply.
        let vm = xs
            .iter()
            .zip(&vtc)
            .find(|(x, y)| **y <= **x)
            .map(|(x, _)| *x)
            .expect("crosses");
        assert!((0.6..1.2).contains(&vm), "V_M = {vm}");
        // Full rail at the ends.
        assert!(vtc[0] > VDD - 0.05);
        assert!(vtc.last().unwrap() < &0.05);
    }

    #[test]
    fn inverter_transient_inverts_pulse() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(
            vin,
            Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 0.0), (1.05e-9, VDD), (3e-9, VDD)]),
        );
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        c.capacitor(vout, c.gnd(), 10e-15);
        let res = transient(&c, &TransientConfig::until(3e-9).with_fixed_dt(2e-12)).expect("runs");
        let w = res.waveform(vout);
        assert!(w.sample_at(0.9e-9) > VDD - 0.1, "high before edge");
        assert!(w.sample_at(2.5e-9) < 0.1, "low after edge");
        // The output transition is a falling edge shortly after 1 ns.
        let falls = w.crossings(VDD / 2.0, false);
        assert_eq!(falls.len(), 1);
        assert!(falls[0] > 1e-9 && falls[0] < 1.4e-9, "fall at {}", falls[0]);
    }

    #[test]
    fn pseudo_resistor_is_giga_ohm_for_small_bias() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Stimulus::Dc(0.9));
        c.vsource(b, Stimulus::Dc(0.95));
        let pmos = MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 1.0, 0.5);
        c.pseudo_resistor(pmos, a, b);
        // Measure the current by reading the device equation directly:
        // both terminals are sources, so solve trivially and compute I.
        let dev = MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 1.0, 0.5);
        let e = dev.eval(0.9 - 0.9, 0.9 - 0.95);
        let r = 0.05 / e.id.abs().max(1e-30);
        assert!(r > 1e8, "pseudo-resistor R = {r:.3e} Ω");
        let _ = dc_operating_point(&c).expect("solves");
    }

    #[test]
    fn floating_node_reported_or_stabilized() {
        // A node connected only through a capacitor has no DC path; gmin
        // keeps the matrix solvable and parks it at 0.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let x = c.node("x");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.capacitor(vin, x, 1e-15);
        let v = dc_operating_point(&c).expect("gmin rescues");
        assert!(v[x.index()].abs() < 1e-6);
    }

    #[test]
    fn cross_coupled_latch_settles_to_a_rail() {
        // Two cross-coupled inverters (an SRAM cell) are bistable: the
        // DC solve must land on one of the two stable states, not the
        // metastable midpoint.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(vdd, Stimulus::Dc(VDD));
        inverter(&mut c, a, b, vdd, 0.65, 1.0);
        inverter(&mut c, b, a, vdd, 0.65, 1.0);
        // Nodeset (SPICE .nodeset) seeds the intended state; without it
        // Newton lands on the valid-but-metastable midpoint.
        let v = dc_operating_point_with_nodeset(&c, &[(a, 0.0), (b, VDD)]).expect("solves");
        let (va, vb) = (v[a.index()], v[b.index()]);
        assert!(va < 0.2, "a pulled low: {va}");
        assert!(vb > VDD - 0.2, "b latched high: {vb}");
    }

    #[test]
    fn mos_in_triode_acts_as_resistor() {
        // An NMOS with full gate drive and small Vds conducts linearly:
        // doubling a series resistor's share halves the node voltage
        // movement as expected from a voltage divider.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let gate = c.node("gate");
        let mid = c.node("mid");
        c.vsource(vdd, Stimulus::Dc(0.2)); // small Vds regime
        c.vsource(gate, Stimulus::Dc(VDD));
        let nmos = MosDevice::new(MosParams::sky130_nmos(&Pvt::nominal()), 2.0, 0.15);
        let r_on = nmos.switching_resistance(1.8); // rough scale only
        c.mos(nmos, mid, gate, c.gnd());
        c.resistor(vdd, mid, r_on);
        let v = dc_operating_point(&c).expect("solves");
        // The divider midpoint sits well below the 0.2 V source and
        // above ground: the device is resistive, not off.
        assert!(
            v[mid.index()] > 0.01 && v[mid.index()] < 0.19,
            "mid = {}",
            v[mid.index()]
        );
    }

    #[test]
    fn finer_timestep_converges_to_same_waveform() {
        let build = || {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let out = c.node("out");
            c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (0.5e-9, 1.0)]));
            c.resistor(vin, out, 2.0e3);
            c.capacitor(out, c.gnd(), 0.5e-12);
            (c, out)
        };
        let (c, out) = build();
        let coarse = transient(&c, &TransientConfig::until(4e-9).with_fixed_dt(8e-12)).expect("ok");
        let fine = transient(&c, &TransientConfig::until(4e-9).with_fixed_dt(1e-12)).expect("ok");
        for k in 0..40 {
            let t = k as f64 * 0.1e-9;
            let d = (coarse.waveform(out).sample_at(t) - fine.waveform(out).sample_at(t)).abs();
            assert!(d < 0.02, "dt-refinement divergence {d} at t={t}");
        }
    }

    #[test]
    fn series_caps_divide_a_step() {
        // Two equal series caps: the midpoint sees half the step.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let mid = c.node("mid");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (10e-12, 1.0)]));
        c.capacitor(vin, mid, 1e-12);
        c.capacitor(mid, c.gnd(), 1e-12);
        let res = transient(&c, &TransientConfig::until(1e-9).with_fixed_dt(1e-12)).expect("ok");
        let v = res.waveform(mid).sample_at(0.5e-9);
        assert!((v - 0.5).abs() < 0.02, "cap divider mid = {v}");
    }

    #[test]
    fn transient_is_deterministic() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]));
        c.resistor(vin, out, 10e3);
        c.capacitor(out, c.gnd(), 50e-15);
        let cfg = TransientConfig::until(2e-9).with_fixed_dt(1e-12);
        let a = transient(&c, &cfg).expect("ok");
        let b = transient(&c, &cfg).expect("ok");
        assert_eq!(a.waveform(out).samples(), b.waveform(out).samples());
    }

    // ---- regression: bit-identity of Fixed mode vs the reference ----

    /// The circuits the historical unit tests exercise, rebuilt for
    /// pairwise comparison runs.
    fn regression_circuits() -> Vec<(&'static str, Circuit, Vec<Node>, TransientConfig)> {
        let mut out = Vec::new();
        {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let node_out = c.node("out");
            c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (1e-12, 1.0)]));
            c.resistor(vin, node_out, 1e3);
            c.capacitor(node_out, c.gnd(), 1e-12);
            out.push((
                "rc",
                c,
                vec![vin, node_out],
                TransientConfig::until(5e-9).with_fixed_dt(5e-12),
            ));
        }
        {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin = c.node("vin");
            let vout = c.node("vout");
            c.vsource(vdd, Stimulus::Dc(VDD));
            c.vsource(
                vin,
                Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 0.0), (1.05e-9, VDD), (3e-9, VDD)]),
            );
            inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
            c.capacitor(vout, c.gnd(), 10e-15);
            out.push((
                "inverter",
                c,
                vec![vin, vout],
                TransientConfig::until(3e-9).with_fixed_dt(2e-12),
            ));
        }
        {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let mid = c.node("mid");
            c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (10e-12, 1.0)]));
            c.capacitor(vin, mid, 1e-12);
            c.capacitor(mid, c.gnd(), 1e-12);
            out.push((
                "series-caps",
                c,
                vec![vin, mid],
                TransientConfig::until(1e-9).with_fixed_dt(1e-12),
            ));
        }
        out
    }

    #[test]
    fn fixed_mode_is_bit_identical_to_reference_transients() {
        for (name, c, nodes, cfg) in regression_circuits() {
            let new = transient(&c, &cfg).expect("new solver runs");
            let old = reference::transient(&c, &cfg).expect("reference runs");
            for node in nodes {
                let a = new.waveform(node).samples();
                let b = old.waveform(node).samples();
                assert_eq!(a.len(), b.len(), "{name}: sample count");
                for (k, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name}: sample {k} differs: {x:e} vs {y:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn dc_is_bit_identical_to_reference() {
        // DC solves across the historical test circuits, including the
        // pseudo-resistor's aliased-slot stamps (g == s).
        let mut circuits: Vec<Circuit> = Vec::new();
        {
            let mut c = Circuit::new();
            let vin = c.node("vin");
            let mid = c.node("mid");
            c.vsource(vin, Stimulus::Dc(1.8));
            c.resistor(vin, mid, 1e3);
            c.resistor(mid, c.gnd(), 3e3);
            circuits.push(c);
        }
        {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let vin = c.node("vin");
            let vout = c.node("vout");
            c.vsource(vdd, Stimulus::Dc(VDD));
            c.vsource(vin, Stimulus::Dc(0.0));
            inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
            circuits.push(c);
        }
        {
            let mut c = Circuit::new();
            let a = c.node("a");
            let b = c.node("b");
            let x = c.node("x");
            c.vsource(a, Stimulus::Dc(0.9));
            c.vsource(b, Stimulus::Dc(0.95));
            let pmos = MosDevice::new(MosParams::sky130_pmos(&Pvt::nominal()), 1.0, 0.5);
            c.pseudo_resistor(pmos, a, x);
            c.resistor(x, b, 1e6);
            circuits.push(c);
        }
        for (i, c) in circuits.iter().enumerate() {
            let new = dc_operating_point(c).expect("new");
            let old = reference::dc_operating_point(c).expect("old");
            assert_eq!(new.len(), old.len());
            for (k, (x, y)) in new.iter().zip(&old).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "circuit {i} node {k}: {x:e} vs {y:e}"
                );
            }
        }
    }

    // ---- adaptive mode ----

    #[test]
    fn adaptive_rc_tracks_fixed_reference() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (50e-12, 1.0)]));
        c.resistor(vin, out, 1e3);
        c.capacitor(out, c.gnd(), 1e-12);
        let lte_tol = 1e-3;
        let fixed =
            transient(&c, &TransientConfig::until(5e-9).with_fixed_dt(1e-12)).expect("fixed");
        let adaptive = transient(
            &c,
            &TransientConfig::until(5e-9).with_adaptive_steps(1e-12, 64e-12, lte_tol),
        )
        .expect("adaptive");
        let err = adaptive.waveform(out).max_abs_diff(fixed.waveform(out));
        assert!(err < 10.0 * lte_tol, "adaptive error {err:.3e}");
        // The point of the exercise: far fewer steps than the grid.
        let grid_steps = fixed.stats().steps_taken;
        let taken = adaptive.stats().steps_taken;
        assert!(
            taken * 3 < grid_steps,
            "adaptive must walk coarsely: {taken} vs {grid_steps}"
        );
    }

    #[test]
    fn linear_circuit_factorizes_once_per_transient() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 1.0)]));
        c.resistor(vin, out, 10e3);
        c.capacitor(out, c.gnd(), 50e-15);
        let res = transient(&c, &TransientConfig::until(2e-9).with_fixed_dt(1e-12)).expect("ok");
        let s = res.stats();
        // One factorization per distinct (dt, gmin) key: the DC solve
        // ladder uses several gmins, the transient exactly one more.
        assert!(
            s.factorizations <= DC_LADDER.len() as u64 + 3,
            "linear transient must reuse its LU: {} factorizations",
            s.factorizations
        );
        assert!(
            s.factorization_reuses > s.steps_taken,
            "every step after the first must reuse: {s:?}"
        );
        assert!(s.reuse_rate() > 0.9, "reuse rate {}", s.reuse_rate());
    }

    #[test]
    fn stats_report_steps_and_merge() {
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.resistor(vin, out, 1e3);
        c.capacitor(out, c.gnd(), 1e-12);
        let res = transient(&c, &TransientConfig::until(1e-9).with_fixed_dt(1e-12)).expect("ok");
        let s = res.stats();
        let expect = (1e-9f64 / 1e-12).ceil() as u64;
        assert_eq!(s.steps_taken, expect);
        assert!(s.newton_iterations >= s.steps_taken);
        let mut sum = SolverStats::default();
        sum.merge(s);
        sum.merge(s);
        assert_eq!(sum.steps_taken, 2 * s.steps_taken);
    }

    #[test]
    fn dc_failure_reports_actual_time() {
        // A floating gate between two capacitors with zero gmin paths
        // still solves (gmin), so force failure differently: a
        // source-free circuit whose only element is a reversed MOS has
        // no issue either — instead check the plumbing directly: the
        // sweep entry point passes its `t` through to errors.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.vsource(vin, Stimulus::Dc(1.0));
        c.resistor(vin, out, 1e3);
        let mut solver = Solver::new(&c);
        // Sanity: this healthy circuit solves at any t…
        let v = solver.dc_at(3.5e-9).expect("solves");
        assert!((v[out.index()] - 1.0).abs() < 1e-6);
        // …and the error constructor carries the time through Display,
        // along with the enriched iteration/node diagnostics.
        let e = SolverError::NonConvergence {
            time: 3.5e-9,
            iterations: 120,
            worst_node: Some("out".into()),
        };
        let msg = e.to_string();
        assert!(msg.contains("3.500e-9"));
        assert!(msg.contains("120 iterations"));
        assert!(msg.contains("`out`"));
    }

    #[test]
    fn parallel_dc_sweep_is_worker_count_independent() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(vin, Stimulus::Dc(0.0));
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        let xs: Vec<f64> = (0..=36).map(|i| i as f64 * 0.05).collect();
        let base = dc_sweep_with_threads(&c, 1, &xs, 1).expect("sweeps");
        for threads in [2, 4, 8] {
            let par = dc_sweep_with_threads(&c, 1, &xs, threads).expect("sweeps");
            assert_eq!(par.len(), base.len());
            for (i, (a, b)) in par.iter().zip(base.iter()).enumerate() {
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "threads={threads} point {i}: {x} vs {y}"
                    );
                }
            }
        }
        // And the parallel result is a valid VTC.
        let vtc: Vec<f64> = base.iter().map(|v| v[vout.index()]).collect();
        for w in vtc.windows(2) {
            assert!(w[1] <= w[0] + 1e-6, "VTC must fall");
        }
    }

    #[test]
    fn nodeset_survives_intermediate_rung_failure_tracking() {
        // The happy path must be unchanged by the rung-tracking fix.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(vdd, Stimulus::Dc(VDD));
        inverter(&mut c, a, b, vdd, 0.65, 1.0);
        inverter(&mut c, b, a, vdd, 0.65, 1.0);
        let v = dc_operating_point_with_nodeset(&c, &[(a, VDD), (b, 0.0)]).expect("solves");
        assert!(v[a.index()] > VDD - 0.2, "a latched high");
        assert!(v[b.index()] < 0.2, "b pulled low");
    }

    /// An inverter driven by a sharp edge with a starved Newton budget:
    /// the 0.4 V damping cap makes a full-swing step need ≥ 5
    /// iterations, so `max_newton = 2` cannot converge mid-transition.
    fn starved_inverter() -> (Circuit, Node, TransientConfig) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(
            vin,
            Stimulus::Pwl(vec![(0.0, 0.0), (1e-9, 0.0), (1.05e-9, VDD), (3e-9, VDD)]),
        );
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        c.capacitor(vout, c.gnd(), 10e-15);
        let cfg = TransientConfig::until(3e-9)
            .with_fixed_dt(2e-12)
            .with_max_newton(2);
        (c, vout, cfg)
    }

    #[test]
    fn recovery_ladder_rescues_starved_fixed_transient() {
        let (c, vout, cfg) = starved_inverter();
        // The reference solver (no ladder) gives up on this fixture…
        assert!(
            reference::transient(&c, &cfg).is_err(),
            "fixture must be non-convergent without recovery"
        );
        // …while the stamped solver escalates through the ladder and
        // still produces the inverted pulse.
        let res = transient(&c, &cfg).expect("recovered");
        assert!(
            res.stats().recovery_attempts > 0,
            "recovery must have triggered: {:?}",
            res.stats()
        );
        let resolved = res.stats().recovered_gmin
            + res.stats().recovered_source
            + res.stats().recovered_dt_cut;
        assert!(resolved > 0, "some rung must have resolved the steps");
        let w = res.waveform(vout);
        assert!(w.sample_at(0.9e-9) > VDD - 0.1, "high before edge");
        assert!(w.sample_at(2.5e-9) < 0.1, "low after edge");
    }

    #[test]
    fn recovery_ladder_rescues_starved_adaptive_floor_step() {
        let (c, vout, _) = starved_inverter();
        let cfg = TransientConfig::until(3e-9)
            .with_adaptive_steps(2e-12, 50e-12, 1e-3)
            .with_max_newton(2);
        let res = transient(&c, &cfg).expect("recovered");
        assert!(
            res.stats().recovery_attempts > 0,
            "floor-step recovery must have triggered: {:?}",
            res.stats()
        );
        let w = res.waveform(vout);
        assert!(w.sample_at(0.9e-9) > VDD - 0.1, "high before edge");
        assert!(w.sample_at(2.5e-9) < 0.1, "low after edge");
    }

    #[test]
    fn convergent_transients_never_enter_the_ladder() {
        let (c, _, _) = starved_inverter();
        let cfg = TransientConfig::until(3e-9).with_fixed_dt(2e-12);
        let res = transient(&c, &cfg).expect("runs");
        assert_eq!(res.stats().recovery_attempts, 0);
        assert_eq!(res.stats().recovered_gmin, 0);
        assert_eq!(res.stats().recovered_source, 0);
        assert_eq!(res.stats().recovered_dt_cut, 0);
    }

    #[test]
    fn nonconvergence_error_names_worst_residual_node() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("vin");
        let vout = c.node("vout");
        c.vsource(vdd, Stimulus::Dc(VDD));
        c.vsource(vin, Stimulus::Dc(0.0));
        inverter(&mut c, vin, vout, vdd, 0.65, 1.0);
        let mut solver = Solver::new(&c);
        // One damped iteration from an all-zero guess cannot pull the
        // output to VDD, so this must fail — with diagnostics.
        let mut v = vec![0.0; c.node_count()];
        solver.apply_sources(&mut v, 0.0);
        let err = solver
            .newton_full(&mut v, None, 1e-12, 1, 1e-9, 0.0)
            .expect_err("one iteration cannot converge");
        match err {
            SolverError::NonConvergence {
                iterations,
                worst_node,
                ..
            } => {
                assert_eq!(iterations, 1);
                assert_eq!(worst_node.as_deref(), Some("vout"));
            }
            other => panic!("expected NonConvergence, got {other}"),
        }
    }
}
