//! Multi-point transient batches (DESIGN.md §16).
//!
//! Sweeps and corner fans solve one topology at many points. A batch
//! names its points as value-only [`PointOverride`]s against a base
//! circuit, and [`Solver::run_transient_batched`] solves them all.
//!
//! One shape pays for solving the points in lockstep: a linear circuit
//! on a fixed step whose points differ only in their source stimuli.
//! Every point then has the same Jacobian, so the **kernel** here
//! factorizes once per `(dt, gmin)` key for the whole batch and runs
//! the residuals, triangular solves and damped updates over
//! point-fastest planes (`plane[node * n_points + p]`), whose inner
//! loops walk contiguous runs of points. Every other batch solves each
//! point's circuit with [`Solver::run_transient`]: on nonlinear
//! circuits, DC solves and adaptive steps, lockstep Newton measured
//! slower than that plain loop.
//!
//! # Determinism contract
//!
//! Each point's result is **bit-identical** to a sequential
//! [`Solver::run_transient`] of that point's circuit
//! ([`PointOverride::circuit_for_point`]), for every batch size and
//! composition. The kernel applies each point's scalar operations in
//! the sequential solver's order — stamp order, damped-update fold,
//! the zero skips of the triangular solves — on that point's plane
//! column. A point whose DC solve or time step fails in the kernel is
//! *retired* (counted in `SolverStats::batch_retirements`) and re-solved
//! sequentially from scratch, where the full recovery ladder applies.

use super::{
    factorize, telemetry, Circuit, PairSlots, Solver, SolverError, SolverStats, Stamp, StampPlan,
    StepMode, TransientConfig, TransientResult, Waveform, ABSENT,
};
use crate::circuit::{Element, Stimulus};

/// Value-only deltas applied to a base circuit to form one point of a
/// batch: replacement elements and replacement source stimuli. Built
/// with the consuming `with_*` methods; later overrides of the same
/// index win.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointOverride {
    elements: Vec<(usize, Element)>,
    sources: Vec<(usize, Stimulus)>,
}

impl PointOverride {
    /// An empty override: the point is the base circuit itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces element `index` (by position in
    /// [`Circuit::elements`]) for this point.
    #[must_use]
    pub fn with_element(mut self, index: usize, e: Element) -> Self {
        self.elements.push((index, e));
        self
    }

    /// Replaces the stimulus of voltage source `index` (by position in
    /// [`Circuit::sources`]) for this point.
    #[must_use]
    pub fn with_source(mut self, index: usize, stimulus: Stimulus) -> Self {
        self.sources.push((index, stimulus));
        self
    }

    /// Shorthand for a constant-voltage source override.
    #[must_use]
    pub fn with_source_dc(self, index: usize, volts: f64) -> Self {
        self.with_source(index, Stimulus::Dc(volts))
    }

    /// `true` when the override changes nothing (the point is the base
    /// circuit).
    pub fn is_identity(&self) -> bool {
        self.elements.is_empty() && self.sources.is_empty()
    }

    /// Materializes this point's circuit: a clone of `base` with the
    /// overrides applied via [`Circuit::set_element`] /
    /// [`Circuit::set_source_stimulus`]. Batches outside the kernel,
    /// and points the kernel retires, run the sequential solver on
    /// exactly this circuit.
    ///
    /// # Panics
    ///
    /// Panics if an override index is out of range or a replacement
    /// value fails the builder validations.
    pub fn circuit_for_point(&self, base: &Circuit) -> Circuit {
        let mut c = base.clone();
        for (i, e) in &self.elements {
            c.set_element(*i, e.clone());
        }
        for (i, s) in &self.sources {
            c.set_source_stimulus(*i, s.clone());
        }
        c
    }
}

/// The uniform-linear fixed-step lockstep kernel: SoA planes over
/// `[n_nodes × n_points]` (point-fastest) and the one LU every point
/// shares.
struct Kernel<'a> {
    plan: &'a StampPlan,
    /// `(raw node index, one stimulus per point)` per voltage source,
    /// in circuit order.
    srcs: Vec<(usize, Vec<&'a Stimulus>)>,
    np: usize,
    /// Voltage plane, `v[node * np + p]`.
    v: Vec<f64>,
    /// Previous-step voltage plane (backward-Euler companion).
    prev: Vec<f64>,
    /// Residual / Newton-update plane, `res[slot * np + p]`.
    res: Vec<f64>,
    /// The shared Jacobian, LU-factorized in place, and its pivots.
    lu: Vec<f64>,
    piv: Vec<usize>,
    /// The next Newton iteration is the first on a fresh factorization
    /// (so it does not count as a reuse).
    fresh: bool,
    /// Points still iterating in the current Newton solve.
    run: Vec<bool>,
    /// Per-point damped-update magnitude and damping scale.
    maxdv: Vec<f64>,
    scale: Vec<f64>,
    /// One point row (`np`) for the plane forward substitution.
    row: Vec<f64>,
    /// One point row (`np`) staging pair-stamp currents.
    cur: Vec<f64>,
    /// Batch-level counters, merged into the owning solver afterwards.
    stats: SolverStats,
    /// Per-point share of the counters that are cleanly attributable
    /// (Newton iterations, residual builds, reuses, accepted steps).
    /// Each shared factorization is counted once, in `stats`.
    pstats: Vec<SolverStats>,
}

impl<'a> Kernel<'a> {
    /// Lays out the planes for `points`, which override only source
    /// stimuli of `circuit`, compiled as `plan`.
    ///
    /// # Panics
    ///
    /// Panics when a source override index is out of range.
    fn new(plan: &'a StampPlan, circuit: &'a Circuit, points: &'a [PointOverride]) -> Self {
        let np = points.len();
        let nn = plan.n_nodes;
        let nu = plan.n_unknown;
        let n_sources = circuit.sources().len();
        for ov in points {
            for (i, _) in &ov.sources {
                assert!(*i < n_sources, "source index out of range");
            }
        }
        let srcs = circuit
            .sources()
            .iter()
            .enumerate()
            .map(|(si, (node, base))| {
                // The last override of a source wins, as in
                // `circuit_for_point`.
                let per_point = points
                    .iter()
                    .map(|ov| {
                        ov.sources
                            .iter()
                            .rev()
                            .find(|(i, _)| *i == si)
                            .map_or(base, |(_, s)| s)
                    })
                    .collect();
                (node.index(), per_point)
            })
            .collect();
        Self {
            plan,
            srcs,
            np,
            v: vec![0.0; nn * np],
            prev: vec![0.0; nn * np],
            res: vec![0.0; nu * np],
            lu: vec![0.0; nu * nu],
            piv: vec![0; nu],
            fresh: false,
            run: vec![false; np],
            maxdv: vec![0.0; np],
            scale: vec![0.0; np],
            row: vec![0.0; np],
            cur: vec![0.0; np],
            stats: SolverStats::default(),
            pstats: vec![SolverStats::default(); np],
        }
    }

    /// Fills the ground row and every source row for time `t` — the
    /// plane counterpart of `Solver::apply_sources`. Retired columns
    /// are filled too; nothing reads them.
    fn apply_sources(&mut self, t: f64) {
        let np = self.np;
        self.v[..np].fill(0.0);
        for (node, stims) in &self.srcs {
            let row = &mut self.v[node * np..node * np + np];
            for (x, s) in row.iter_mut().zip(stims) {
                *x = s.value_at(t);
            }
        }
    }

    /// Assembles the shared Jacobian with [`StampPlan::assemble`] and
    /// factorizes it in place. A linear plan's Jacobian does not depend
    /// on the operating point, so it is assembled at zero. Returns
    /// `false` when the matrix is singular.
    fn factor(&mut self, dt: Option<f64>, gmin: f64) -> bool {
        let zero = vec![0.0; self.plan.n_nodes];
        let mut res = vec![0.0; self.plan.n_unknown];
        self.plan.assemble(
            &zero,
            dt.map(|dt| (&zero[..], dt)),
            gmin,
            &mut res,
            Some(&mut self.lu),
        );
        self.stats.jacobian_builds += 1;
        if !factorize(&mut self.lu, &mut self.piv, self.plan.n_unknown) {
            return false;
        }
        self.stats.factorizations += 1;
        self.stats.batched_factorizations += 1;
        self.fresh = true;
        true
    }

    /// Retires every `live` point: each is re-solved sequentially.
    fn retire_all(&mut self, live: &mut [bool]) {
        for l in live.iter_mut().filter(|l| **l) {
            *l = false;
            self.stats.batch_retirements += 1;
        }
    }

    /// Plane residual assembly: the batched counterpart of
    /// [`StampPlan::assemble`] for a linear plan, in its stamp order.
    /// Residuals are written for every column; dead columns hold values
    /// nothing reads.
    fn assemble_residual(&mut self, dt: Option<f64>, gmin: f64) {
        let np = self.np;
        self.res.fill(0.0);
        for stamp in &self.plan.stamps {
            match *stamp {
                Stamp::Conductance { g, ref p } => {
                    pair_plane(&mut self.res, &self.v, None, np, p, g, &mut self.cur);
                }
                Stamp::Capacitor { farads, ref p } => {
                    if let Some(dt) = dt {
                        let prev = Some(&self.prev[..]);
                        pair_plane(
                            &mut self.res,
                            &self.v,
                            prev,
                            np,
                            p,
                            farads / dt,
                            &mut self.cur,
                        );
                    }
                }
                Stamp::Mos { .. } => unreachable!("the kernel runs linear plans only"),
            }
        }
        for &(node, slot, _) in &self.plan.gmin_rows {
            let v = &self.v[node * np..node * np + np];
            let res = &mut self.res[slot * np..slot * np + np];
            for (r, &x) in res.iter_mut().zip(v) {
                *r += gmin * x;
            }
        }
    }

    /// Lockstep damped Newton on the shared LU over the `live` points.
    /// Each point stops iterating the moment its own damped update
    /// passes `tol`; a point still iterating after `max_iter` is
    /// retired (cleared from `live`). Per point this is
    /// `Solver::newton_full`'s arithmetic on a linear plan.
    fn newton(&mut self, dt: Option<f64>, gmin: f64, max_iter: usize, tol: f64, live: &mut [bool]) {
        let np = self.np;
        let nu = self.plan.n_unknown;
        self.run.copy_from_slice(live);
        for _ in 0..max_iter {
            let n_run = self.run.iter().filter(|&&r| r).count();
            if n_run == 0 {
                return;
            }
            self.assemble_residual(dt, gmin);
            let reused = !std::mem::take(&mut self.fresh);
            let n = n_run as u64;
            self.stats.newton_iterations += n;
            self.stats.residual_builds += n;
            if reused {
                self.stats.factorization_reuses += n;
            }
            for (ps, _) in self.pstats.iter_mut().zip(&self.run).filter(|(_, &r)| r) {
                ps.newton_iterations += 1;
                ps.residual_builds += 1;
                if reused {
                    ps.factorization_reuses += 1;
                }
            }
            for x in &mut self.res {
                *x = -*x;
            }
            plane_lu_solve(&self.lu, &self.piv, nu, np, &mut self.res, &mut self.row);
            // Damped update: per-point max fold in slot order, then the
            // node-order application — the sequential sequence.
            self.maxdv.fill(0.0);
            for row in self.res.chunks_exact(np) {
                for (m, &x) in self.maxdv.iter_mut().zip(row) {
                    *m = m.max(x.abs());
                }
            }
            for (s, &m) in self.scale.iter_mut().zip(&self.maxdv) {
                *s = if m > 0.4 { 0.4 / m } else { 1.0 };
            }
            let all_run = n_run == np;
            for (node, &slot) in self.plan.index.iter().enumerate() {
                let Some(i) = slot else { continue };
                let v = &mut self.v[node * np..node * np + np];
                let r = &self.res[i * np..i * np + np];
                if all_run {
                    // Every point is live: the unmasked form applies
                    // the identical per-column operation.
                    for ((x, &d), &s) in v.iter_mut().zip(r).zip(&self.scale) {
                        *x += s * d;
                    }
                } else {
                    for (p, x) in v.iter_mut().enumerate() {
                        // Branch, don't multiply by a masked zero:
                        // adding `scale * 0.0` to a frozen column would
                        // flip -0.0 to +0.0 and break bit-identity.
                        if self.run[p] {
                            *x += self.scale[p] * r[p];
                        }
                    }
                }
            }
            for p in 0..np {
                if self.run[p] && self.maxdv[p] * self.scale[p] < tol {
                    self.run[p] = false;
                }
            }
        }
        for (l, &r) in live.iter_mut().zip(&self.run) {
            if r {
                *l = false;
                self.stats.batch_retirements += 1;
            }
        }
    }

    /// The fixed-step lockstep transient: the kernel's mirror of
    /// `Solver::transient_fixed`. Retired points come back as `None`.
    fn run(
        mut self,
        dt: f64,
        config: &TransientConfig,
    ) -> (Vec<Option<TransientResult>>, SolverStats) {
        let np = self.np;
        let nn = self.plan.n_nodes;
        let mut live = vec![true; np];
        // DC: the direct attempt `Solver::dc_at` opens with — the
        // mid-supply guess solved at gmin 1e-12. Its gmin ladder is
        // the sequential retirement path's business.
        for p in 0..np {
            let v_mid = 0.5
                * self
                    .srcs
                    .iter()
                    .map(|(_, s)| s[p].value_at(0.0).abs())
                    .fold(0.0f64, f64::max);
            for node in 0..nn {
                self.v[node * np + p] = v_mid;
            }
        }
        self.apply_sources(0.0);
        if self.factor(None, 1e-12) {
            self.newton(None, 1e-12, 400, 1e-9, &mut live);
        } else {
            self.retire_all(&mut live);
        }
        let steps = (config.t_end / dt).ceil() as usize;
        // One preallocated buffer per `(node, point)` waveform, in the
        // voltage plane's `node * np + p` order: recording a step is
        // one sweep zipping `v` against the buffers, and each buffer is
        // handed to its `Waveform` without a copy. Retired points keep
        // garbage past their retirement; the output skips them.
        let mut bufs: Vec<Vec<f64>> = self
            .v
            .iter()
            .map(|&x| {
                let mut b = vec![0.0; steps + 1];
                b[0] = x;
                b
            })
            .collect();
        self.prev.copy_from_slice(&self.v);
        if live.contains(&true) && !self.factor(Some(dt), config.gmin) {
            self.retire_all(&mut live);
        }
        for k in 1..=steps {
            if !live.contains(&true) {
                break;
            }
            self.apply_sources(k as f64 * dt);
            self.newton(
                Some(dt),
                config.gmin,
                config.max_newton,
                config.tol,
                &mut live,
            );
            for (buf, &x) in bufs.iter_mut().zip(&self.v) {
                buf[k] = x;
            }
            self.prev.copy_from_slice(&self.v);
            for (ps, _) in self.pstats.iter_mut().zip(&live).filter(|(_, &l)| l) {
                ps.steps_taken += 1;
                self.stats.steps_taken += 1;
            }
        }
        let out = (0..np)
            .map(|p| {
                live[p].then(|| TransientResult {
                    waveforms: (0..nn)
                        .map(|node| {
                            Waveform::new(0.0, dt, std::mem::take(&mut bufs[node * np + p]))
                        })
                        .collect(),
                    stats: self.pstats[p],
                })
            })
            .collect();
        (out, self.stats)
    }
}

/// Plane version of the two-terminal pair stamp: resistor current
/// (`i = g·Δv`, `prev` is `None`) or capacitor companion current
/// (`i = g·(Δv − Δv_prev)` with `g = C/dt`), accumulated into the
/// residual rows in the sequential order (`res_a += i` then
/// `res_b -= i`).
///
/// The per-point currents are staged in `cur` (length `np`), so every
/// inner loop is a straight slice-to-slice pass the compiler can
/// vectorize. The arithmetic per point is exactly the scalar stamp's.
fn pair_plane(
    res: &mut [f64],
    v: &[f64],
    prev: Option<&[f64]>,
    np: usize,
    p: &PairSlots,
    g: f64,
    cur: &mut [f64],
) {
    let va = &v[p.a * np..p.a * np + np];
    let vb = &v[p.b * np..p.b * np + np];
    match prev {
        None => {
            for ((c, &a), &b) in cur.iter_mut().zip(va).zip(vb) {
                *c = (a - b) * g;
            }
        }
        Some(prev) => {
            let pa = &prev[p.a * np..p.a * np + np];
            let pb = &prev[p.b * np..p.b * np + np];
            for k in 0..np {
                cur[k] = g * ((va[k] - vb[k]) - (pa[k] - pb[k]));
            }
        }
    }
    if p.res_a != ABSENT {
        let row = &mut res[p.res_a * np..p.res_a * np + np];
        for (x, &i) in row.iter_mut().zip(cur.iter()) {
            *x += i;
        }
    }
    if p.res_b != ABSENT {
        let row = &mut res[p.res_b * np..p.res_b * np + np];
        for (x, &i) in row.iter_mut().zip(cur.iter()) {
            *x -= i;
        }
    }
}

/// Triangular solve of one shared LU against the whole residual plane
/// (`b[slot * np + k]`), columns in lockstep. Per point this applies
/// the exact scalar operation sequence of `lu_solve` — pivot swaps
/// first, zero-skipping column-major forward substitution, then back
/// substitution — so the kernel stays bit-identical to scalar solves
/// against the same factors.
fn plane_lu_solve(a: &[f64], piv: &[usize], nu: usize, np: usize, b: &mut [f64], row: &mut [f64]) {
    for (col, &p) in piv.iter().enumerate() {
        if p != col {
            for k in 0..np {
                b.swap(col * np + k, p * np + k);
            }
        }
    }
    for col in 0..nu {
        row.copy_from_slice(&b[col * np..col * np + np]);
        for r in col + 1..nu {
            let f = a[r * nu + col];
            if f == 0.0 {
                continue;
            }
            let br = &mut b[r * np..r * np + np];
            for (x, &rc) in br.iter_mut().zip(row.iter()) {
                *x -= f * rc;
            }
        }
    }
    for r in (0..nu).rev() {
        for c in r + 1..nu {
            let f = a[r * nu + c];
            // Mirrors the scalar `lu_solve` zero skip entry for entry.
            if f == 0.0 {
                continue;
            }
            let (lo, hi) = b.split_at_mut(c * np);
            let br = &mut lo[r * np..r * np + np];
            let bc = &hi[..np];
            for (x, &y) in br.iter_mut().zip(bc) {
                *x -= f * y;
            }
        }
        let d = a[r * nu + r];
        for x in &mut b[r * np..r * np + np] {
            *x /= d;
        }
    }
}

/// Per-point outcomes of [`Solver::run_transient_batched`]: one
/// `Result` per input [`PointOverride`], in input order, plus the
/// merged batch statistics (kernel work and per-point solves
/// combined).
#[derive(Debug)]
pub struct BatchedTransientResult {
    results: Vec<Result<TransientResult, SolverError>>,
    stats: SolverStats,
}

impl BatchedTransientResult {
    /// The per-point results, in input order.
    pub fn results(&self) -> &[Result<TransientResult, SolverError>] {
        &self.results
    }

    /// Statistics for the whole batch (kernel plus per-point solves).
    /// The kernel's counters (`batched_points`, `batch_retirements`,
    /// `batched_factorizations`) live here.
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }
}

impl Solver<'_> {
    /// Solves one transient per [`PointOverride`] against this
    /// solver's circuit. Results come back in input order, and each
    /// point's entry is bit for bit what a sequential
    /// [`Solver::run_transient`] of
    /// [`PointOverride::circuit_for_point`] returns.
    ///
    /// The lockstep kernel runs the batch when the circuit is linear,
    /// the step is [`StepMode::Fixed`] and every override replaces only
    /// source stimuli: one factorization per `(dt, gmin)` then serves
    /// every point. Any other batch solves each point's circuit with
    /// [`Solver::run_transient`].
    ///
    /// # Panics
    ///
    /// Panics if a source override is set (encode sweep values as
    /// [`PointOverride`] sources instead), if an override index is out
    /// of range, or if `config` fails the transient checks of
    /// [`Solver::run_transient`].
    pub fn run_transient_batched(
        &mut self,
        points: &[PointOverride],
        config: &TransientConfig,
    ) -> BatchedTransientResult {
        assert!(
            self.source_override.is_none(),
            "run_transient_batched does not compose with set_source_override; \
             encode per-point sweep values as PointOverride sources"
        );
        config.check();
        let _span = telemetry::span("analog.batched_transient");
        let before = self.stats;
        let mut solved: Vec<Option<TransientResult>> = vec![None; points.len()];
        match config.step {
            StepMode::Fixed(dt)
                if self.plan.linear
                    && !points.is_empty()
                    && points.iter().all(|p| p.elements.is_empty()) =>
            {
                self.stats.batched_points += points.len() as u64;
                let (out, kstats) = Kernel::new(&self.plan, self.circuit, points).run(dt, config);
                solved = out;
                self.stats.merge(&kstats);
                // Emit the kernel's share now: each per-point solve
                // below runs `run_transient`, which emits its own.
                self.stats.since(&before).record_telemetry();
            }
            _ => {}
        }
        let results = solved
            .into_iter()
            .zip(points)
            .map(|(out, ov)| match out {
                Some(r) => Ok(r),
                None => {
                    let pc = ov.circuit_for_point(self.circuit);
                    let mut seq = Solver::new(&pc);
                    let r = seq.run_transient(config);
                    self.stats.merge(&seq.stats);
                    r
                }
            })
            .collect();
        let stats = self.stats.since(&before);
        BatchedTransientResult { results, stats }
    }
}
