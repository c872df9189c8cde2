//! The fully digital oversampling clock-and-data recovery block
//! (paper §IV-C, Fig. 7).
//!
//! A phase generator derives N clock phases from the external reference;
//! the received data is sampled N times per unit interval and pushed
//! through FIFO registers into a decision block that histograms where
//! transitions land and selects the sampling phase farthest from the
//! data edges. Scan-configurable **glitch correction** (majority-of-3
//! sample smoothing) and **jitter correction** (phase-update hysteresis)
//! clean up the decision, exactly as the paper's external scan bits do.
//!
//! Two implementations, behaviourally identical where their feature sets
//! overlap:
//!
//! * [`OversamplingCdr`] — the cycle-accurate behavioural model used in
//!   link simulation,
//! * [`cdr_design`] — synthesizable RTL (edge detector, per-phase edge
//!   counters, argmax comparator tree, phase register, output mux) for
//!   the flow's area/power budget.

use crate::bitstream::BitVec;
use openserdes_flow::ir::Design;
use std::ops::{Range, RangeInclusive};

/// CDR configuration (the paper's scan bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdrConfig {
    /// Samples per unit interval (number of clock phases).
    pub oversampling: usize,
    /// Enable majority-of-3 sample smoothing (glitch correction).
    pub glitch_filter: bool,
    /// Consecutive agreeing evaluations required before the sampling
    /// phase moves (jitter correction). 1 = move immediately.
    pub phase_hysteresis: u32,
    /// Unit intervals per decision window.
    pub window: usize,
}

impl CdrConfig {
    /// The paper's configuration: 5× oversampling, both corrections on.
    pub fn paper_default() -> Self {
        Self {
            oversampling: 5,
            glitch_filter: true,
            phase_hysteresis: 2,
            window: 32,
        }
    }

    /// The configuration the RTL implements: no glitch filter,
    /// hysteresis of one (the RTL keeps the decision datapath minimal
    /// and leaves smoothing to the scan-bypassable wrapper).
    pub fn rtl_equivalent(oversampling: usize) -> Self {
        Self {
            oversampling,
            glitch_filter: false,
            phase_hysteresis: 1,
            window: 32,
        }
    }
}

impl Default for CdrConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Behavioural oversampling CDR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OversamplingCdr {
    cfg: CdrConfig,
    phase: usize,
    edge_hist: Vec<u32>,
    win_count: usize,
    pending_target: Option<usize>,
    pending_votes: u32,
    last_sample: bool,
    locked: bool,
    phase_updates: u64,
    uis: u64,
    // Resilience bookkeeping (fault campaigns): pure observers of the
    // decision stream — they never influence phase moves or recovered
    // bits, so the fault-free path stays bit-identical.
    lock_losses: u64,
    unlock_at_ui: Option<u64>,
    relock_times: Vec<u64>,
}

/// The oversampling factors [`OversamplingCdr::new`] accepts: at least
/// three samples per UI, and one UI must fit a 64-bit sample word.
pub(crate) const OVERSAMPLING: RangeInclusive<usize> = 3..=64;

impl OversamplingCdr {
    /// Creates a CDR starting at the centre phase.
    ///
    /// # Panics
    ///
    /// Panics if `oversampling` is outside `3..=64` or `window == 0`.
    pub fn new(cfg: CdrConfig) -> Self {
        assert!(
            cfg.oversampling >= *OVERSAMPLING.start(),
            "need at least 3x oversampling"
        );
        assert!(
            cfg.oversampling <= *OVERSAMPLING.end(),
            "one UI must fit a 64-bit sample word"
        );
        assert!(cfg.window > 0, "decision window must be positive");
        Self {
            phase: cfg.oversampling / 2,
            edge_hist: vec![0; cfg.oversampling],
            win_count: 0,
            pending_target: None,
            pending_votes: 0,
            last_sample: false,
            locked: false,
            phase_updates: 0,
            uis: 0,
            lock_losses: 0,
            unlock_at_ui: None,
            relock_times: Vec::new(),
            cfg,
        }
    }

    /// The currently selected sampling phase index.
    pub fn selected_phase(&self) -> usize {
        self.phase
    }

    /// `true` once a decision window confirmed the current phase.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Number of phase changes so far (a jitter-tracking metric).
    pub fn phase_updates(&self) -> u64 {
        self.phase_updates
    }

    /// Times the decision block, after first lock, found the data eye
    /// disagreeing with the selected phase (the resilience metric fault
    /// campaigns quantify: each loss pairs with a re-lock time once the
    /// CDR re-acquires).
    pub fn lock_losses(&self) -> u64 {
        self.lock_losses
    }

    /// Re-acquisition time of each completed lock-loss episode, in UIs
    /// from the disagreeing decision window to the next agreeing one.
    pub fn relock_times_ui(&self) -> &[u64] {
        &self.relock_times
    }

    /// Single-event upset: flips bit `bit` of the phase register. The
    /// result is folded back into range (a real SEU leaves the register
    /// arbitrary; the decision mux masks it the same way). Pure state
    /// corruption — lock flags and metrics are left for the decision
    /// logic to discover.
    pub fn inject_phase_flip(&mut self, bit: u32) {
        self.phase = (self.phase ^ (1usize << (bit % usize::BITS))) % self.cfg.oversampling;
    }

    fn evaluate(&mut self) {
        let n = self.cfg.oversampling;
        if self.edge_hist.iter().all(|&c| c == 0) {
            // No transitions (long run): keep the phase, keep lock state.
            return;
        }
        // Modal edge position; first maximum wins (matches the RTL fold).
        let mut best = 0usize;
        for i in 1..n {
            if self.edge_hist[i] > self.edge_hist[best] {
                best = i;
            }
        }
        let target = (best + n / 2) % n;
        if target == self.phase {
            if let Some(since) = self.unlock_at_ui.take() {
                self.relock_times.push(self.uis - since);
            }
            self.locked = true;
            self.pending_target = None;
            self.pending_votes = 0;
            return;
        }
        // Resilience metric: a post-lock window disagreeing with the
        // selected phase opens a lock-loss episode; it closes at the
        // next agreeing window (directly above, or after a hysteresis
        // move below). Observers only — phase decisions are unchanged.
        if self.locked && self.unlock_at_ui.is_none() {
            self.lock_losses += 1;
            self.unlock_at_ui = Some(self.uis);
        }
        // Jitter correction: require `phase_hysteresis` consecutive
        // windows agreeing on the same move.
        if self.pending_target == Some(target) {
            self.pending_votes += 1;
        } else {
            self.pending_target = Some(target);
            self.pending_votes = 1;
        }
        if self.pending_votes >= self.cfg.phase_hysteresis {
            self.phase = target;
            self.phase_updates += 1;
            if let Some(since) = self.unlock_at_ui.take() {
                self.relock_times.push(self.uis - since);
            }
            self.locked = true;
            self.pending_target = None;
            self.pending_votes = 0;
        }
    }

    /// Convenience: processes a flattened oversampled stream
    /// (`len = k · oversampling`), returning the recovered bits.
    ///
    /// # Panics
    ///
    /// Panics if the stream length is not a whole number of UIs.
    pub fn recover(&mut self, stream: &[bool]) -> Vec<bool> {
        self.recover_packed(&BitVec::from_bools(stream)).to_bools()
    }

    /// Packed fast path of [`Self::recover`]: the recovered bits come
    /// back packed, bit-identical to stepping the UIs one at a time.
    ///
    /// # Panics
    ///
    /// Panics if the stream length is not a whole number of UIs.
    pub fn recover_packed(&mut self, stream: &BitVec) -> BitVec {
        self.recover_with_phase_flips(stream, &[])
    }

    /// [`Self::recover_packed`] with the phase register upset before
    /// some UIs: each `(ui, bit)` of `flips`, in UI order, applies
    /// [`Self::inject_phase_flip`]`(bit)` just before UI `ui` (clamped
    /// to the stream) is processed. This is how the fault runner lands
    /// SEU strikes between UIs.
    ///
    /// # Panics
    ///
    /// Panics if the stream length is not a whole number of UIs.
    pub(crate) fn recover_with_phase_flips(
        &mut self,
        stream: &BitVec,
        flips: &[(usize, u32)],
    ) -> BitVec {
        let n = self.cfg.oversampling;
        assert_eq!(stream.len() % n, 0, "stream must be whole UIs");
        let uis = stream.len() / n;
        let mut out = BitVec::with_capacity(uis);
        let mut from = 0;
        for &(at, bit) in flips {
            let at = at.clamp(from, uis);
            self.recover_span(stream, from..at, &mut out);
            self.inject_phase_flip(bit);
            from = at;
        }
        self.recover_span(stream, from..uis, &mut out);
        out
    }

    /// Recovers UIs `span` of `stream` into `out`, one decision window
    /// at a time, with the same bits and state as stepping the UIs one
    /// by one (DESIGN.md §23).
    ///
    /// Within a window the sampling phase is fixed: only the window's
    /// last UI evaluates, after taking its own bit. So each stretch up
    /// to and including that UI is read as whole UIs per 64-bit word.
    /// Per word: majority-of-3 smoothing, where the left neighbour of
    /// sample 0 is the previous UI's last sample (raw and smoothed
    /// agree there, because a last sample is its own right neighbour)
    /// and the right neighbour of a last sample is itself; edges
    /// against the same left neighbours, tallied per phase for every UI
    /// but the evaluating one; and the bits at the phase.
    fn recover_span(&mut self, stream: &BitVec, span: Range<usize>, out: &mut BitVec) {
        let n = self.cfg.oversampling;
        let per_word = 64 / n;
        // Each UI's last sample in a word, and the phase of each bit.
        let lasts = (0..per_word).fold(0u64, |m, u| m | 1 << (u * n + n - 1));
        let phase_of: [u8; 64] = std::array::from_fn(|p| (p % n) as u8);
        let mut k = span.start;
        while k < span.end {
            let counting = self.cfg.window - 1 - self.win_count;
            let run = (span.end - k).min(counting + 1);
            let counted = run.min(counting);
            let mut u = 0;
            while u < run {
                let m = (run - u).min(per_word);
                let width = m * n;
                let mask = low_mask(width);
                let raw = stream.window64((k + u) * n) & mask;
                let carry = u64::from(self.last_sample);
                let smoothed = if self.cfg.glitch_filter {
                    let prev = raw << 1 | carry;
                    let next = (raw >> 1 & !lasts) | (raw & lasts);
                    (prev & raw | prev & next | raw & next) & mask
                } else {
                    raw
                };
                let live = low_mask(counted.saturating_sub(u).min(m) * n);
                let mut edges = (smoothed ^ (smoothed << 1 | carry)) & live;
                while edges != 0 {
                    self.edge_hist[usize::from(phase_of[edges.trailing_zeros() as usize])] += 1;
                    edges &= edges - 1;
                }
                let mut bits = 0u64;
                for v in 0..m {
                    bits |= (smoothed >> (v * n + self.phase) & 1) << v;
                }
                out.push_word(bits, m);
                self.last_sample = smoothed >> (width - 1) & 1 == 1;
                u += m;
            }
            self.win_count += counted;
            self.uis += counted as u64;
            if run > counted {
                // The window's last UI: decide, then clear for the next.
                self.evaluate();
                self.edge_hist.fill(0);
                self.win_count = 0;
                self.uis += 1;
            }
            k += run;
        }
    }
}

/// The low `bits` bits set, for `bits` in `0..=64`.
fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Generates an oversampled sample stream from a bit sequence: `n`
/// samples per UI, the whole stream shifted by `phase_frac` of a UI,
/// each edge additionally jittered by a deterministic per-edge offset
/// drawn from a seeded Gaussian of `rj_sigma_ui` UIs.
///
/// Jitter is symmetric: a positive draw moves an edge late (early
/// samples of the bit still see the previous bit), a negative draw
/// moves it early (late samples of the previous bit already see the
/// next bit).
pub fn oversample_bits(
    bits: &[bool],
    n: usize,
    phase_frac: f64,
    rj_sigma_ui: f64,
    seed: u64,
) -> Vec<bool> {
    oversample_bits_packed(&BitVec::from_bools(bits), n, phase_frac, rj_sigma_ui, seed).to_bools()
}

/// Packed fast path of [`oversample_bits`]: same stream, bit for bit.
///
/// Edge `e` (the start of bit `e`) moves by the Box–Muller draw
/// `√(−2 ln u1)·cos(2π·u2)·σ` from the `e`-th pair of uniforms of a
/// generator seeded with `seed`. Sample `j` of UI `i` sits at
/// `t = i + (j + 0.5)/n + phase_frac`, and reads the bit its jittered
/// edges put it in.
///
/// The stream is built from whole words (DESIGN.md §23): a slot whose
/// position within its UI stays farther from both edges than any draw
/// can reach reads the same bit offset at every UI, so the body of the
/// stream is the source with each bit repeated `n` times. A sample can
/// differ from that only on a slot near an edge, at UIs where that
/// edge is a transition. A slot exactly on its leading edge is settled
/// there 64 UIs at a time from each edge's raw `u2` word; the exact
/// per-sample rule runs on the rest, and on the UIs and inputs the
/// argument does not cover.
pub fn oversample_bits_packed(
    bits: &BitVec,
    n: usize,
    phase_frac: f64,
    rj_sigma_ui: f64,
    seed: u64,
) -> BitVec {
    let len = bits.len();
    let mut rule = SampleRule::new(bits, n, phase_frac, rj_sigma_ui, seed);
    let mut out = BitVec::with_capacity(len * n);
    match rule.body() {
        Some(body) => {
            rule.push_exact(0..body.lo, &mut out);
            body.fill(bits, n, &mut out);
            rule.patch(&body, &mut out);
            rule.push_exact(body.hi..len, &mut out);
        }
        None => rule.push_exact(0..len, &mut out),
    }
    out
}

/// The exact per-sample rule of [`oversample_bits_packed`], with the
/// jitter bounds that settle most comparisons before any draw.
struct SampleRule<'a> {
    bits: &'a BitVec,
    /// Each slot's offset into its UI, `(j + 0.5)/n`.
    offsets: Vec<f64>,
    phase: f64,
    /// `J`, a bound on `|jitter|` over every draw.
    reach: f64,
    /// A sample with `reach <= frac < far_hi` keeps its own bit.
    far_hi: f64,
    by_sign: bool,
    edges: EdgeJitter,
}

/// The UIs `lo..hi` that [`oversample_bits_packed`] fills from words,
/// and how: slot `j` reads bit `i + 1` for the last `shift` slots and
/// bit `i` before them, except where a `near` slot's edge is a
/// transition.
struct Body {
    lo: usize,
    hi: usize,
    shift: usize,
    /// `(slot, edge offset)`: the slot of UI `i` is within reach of
    /// edge `i + offset` and of no other.
    near: Vec<(usize, usize)>,
    /// The near slot whose first-UI position `c` is exactly its leading
    /// edge (`f == 0`), with that edge's offset `d`.
    on_edge: Option<(usize, usize)>,
}

impl<'a> SampleRule<'a> {
    fn new(bits: &'a BitVec, n: usize, phase: f64, sigma: f64, seed: u64) -> Self {
        let edges = EdgeJitter::new(sigma, seed);
        // NaN and infinite sigmas give an empty far range.
        let reach = edges.reach();
        Self {
            bits,
            offsets: (0..n).map(|j| (j as f64 + 0.5) / n as f64).collect(),
            phase,
            reach,
            far_hi: 1.0 - 2.0 * reach,
            by_sign: edges.sign_decides(),
            edges,
        }
    }

    /// Sample `j` of UI `i`.
    fn sample(&mut self, i: usize, j: usize) -> bool {
        let bits = self.bits;
        let len = bits.len();
        // Sample time in UI units, then locate the governing bit.
        let t = i as f64 + self.offsets[j] + self.phase;
        // Truncation is `floor` for `t >= 0`, saturation included.
        let idx = if t >= 0.0 {
            t as isize
        } else {
            t.floor() as isize
        };
        let frac = t - idx as f64;
        let idx = idx.clamp(0, len as isize - 1) as usize;
        // The edge at the start of bit `idx` moves by jitter[idx], the
        // one at its end by jitter[idx + 1]; either can hand the sample
        // to a neighbouring bit.
        if self.reach <= frac && frac < self.far_hi {
            bits.get(idx)
        } else if frac == 0.0 && self.by_sign {
            // On the leading edge: the trailing edge is out of reach, so
            // only the sign of this edge's draw matters.
            if idx > 0 && self.edges.is_late(idx) {
                bits.get(idx - 1)
            } else {
                bits.get(idx)
            }
        } else if idx > 0 && frac < self.edges.jitter(idx) {
            bits.get(idx - 1)
        } else if idx + 1 < len && frac >= 1.0 + self.edges.jitter(idx + 1) {
            bits.get(idx + 1)
        } else {
            bits.get(idx)
        }
    }

    /// Every sample of UIs `uis` by the exact rule, 64 per pushed word.
    fn push_exact(&mut self, uis: Range<usize>, out: &mut BitVec) {
        let (mut word, mut fill) = (0u64, 0usize);
        for i in uis {
            for j in 0..self.offsets.len() {
                word |= u64::from(self.sample(i, j)) << fill;
                fill += 1;
                if fill == 64 {
                    out.push_word(word, 64);
                    (word, fill) = (0, 0);
                }
            }
        }
        out.push_word(word, fill);
    }

    /// Where the word-level fill is exact, or `None` for inputs outside
    /// its argument: a phase outside `[0, 1)`, a non-finite bound,
    /// `J ≥ 1/3` (with rounding margins), or no samples per UI.
    ///
    /// Slot `j`'s position in UI `i` is `fl(fl(i + o_j) + phase)`. It
    /// differs from the slot's first-UI position `c = fl(o_j + phase)`
    /// moved by `i` by less than `delta` over the whole stream, so a
    /// slot whose fractional part `f = c − ⌊c⌋` lies in
    /// `[J + δ, 1 − 2J − δ)` meets the far rule at every UI and reads
    /// bit `i + ⌊c⌋`. Every other slot is within `J + 2δ` of one edge
    /// and, with `J < 1/3`, out of reach of every other one. UI 0 and
    /// the last two UIs can read a clamped bit index, so they take the
    /// exact rule.
    fn body(&self) -> Option<Body> {
        let len = self.bits.len();
        let (phase, reach) = (self.phase, self.reach);
        let delta = 4.0 * (len as f64 + 2.0 + phase.abs()) * f64::EPSILON + 1e-15;
        // False for a NaN phase or bound.
        let covered = (0.0..1.0).contains(&phase) && 3.0 * reach + 4.0 * delta < 1.0;
        if len < 4 || self.offsets.is_empty() || !covered {
            return None;
        }
        let mut shift = 0;
        let mut near = Vec::new();
        let mut on_edge = None;
        for (j, &offset) in self.offsets.iter().enumerate() {
            let c = offset + phase;
            let d = usize::from(c >= 1.0);
            let f = c - d as f64;
            shift += d;
            if f - delta < reach {
                near.push((j, d));
                if f == 0.0 {
                    on_edge = Some((j, d));
                }
            } else if f + delta >= self.far_hi {
                near.push((j, d + 1));
            }
        }
        Some(Body {
            lo: 1,
            hi: len - 2,
            shift,
            near,
            on_edge,
        })
    }

    /// Corrects each near sample of the body whose edge is a transition,
    /// 64 UIs at a time. Anywhere else the sample can only read the one
    /// value both sides of its edge share, which the fill already wrote.
    ///
    /// The on-edge slot's sample at UI `i` reads bit `e − 1` in place of
    /// the filled bit `e = i + d` exactly where its position is the
    /// edge (`frac == 0`), edge `e` is a transition and its draw is
    /// late (the sign rule of [`Self::sample`]). Where [`late_word`]
    /// settles the sign from the raw word, that is one XOR of the
    /// slot's samples with `transitions & late`. Every other corrected
    /// sample runs the exact rule. The ring keeps every edge a block's
    /// samples read, so each slot's samples run in turn.
    fn patch(&mut self, body: &Body, out: &mut BitVec) {
        if body.near.is_empty() {
            return;
        }
        let bits = self.bits;
        let n = self.offsets.len();
        let by_words = body.on_edge.filter(|_| self.edges.words_decide());
        let mut i0 = body.lo;
        while i0 < body.hi {
            let m = (body.hi - i0).min(64);
            for &(j, g) in &body.near {
                // UIs whose edge at this slot is a transition.
                let mut due = (bits.window64(i0 + g) ^ bits.window64(i0 + g - 1)) & low_mask(m);
                if by_words == Some((j, g)) {
                    let (late, band) = self.edges.word_signs(i0 + g);
                    let settled = due & self.on_edge_uis(i0, j, g) & !band;
                    let mut flips = settled & late;
                    while flips != 0 {
                        out.toggle((i0 + flips.trailing_zeros() as usize) * n + j);
                        flips &= flips - 1;
                    }
                    due &= !settled;
                }
                while due != 0 {
                    let i = i0 + due.trailing_zeros() as usize;
                    due &= due - 1;
                    let bit = self.sample(i, j);
                    out.set(i * n + j, bit);
                }
            }
            i0 += m;
        }
    }

    /// The UIs `i0..i0 + 64` at which sample `j` is computed exactly on
    /// edge `i + d`, where [`Self::sample`] finds `frac == 0`: all of
    /// them, or none when any may be off. The slot's first-UI position is that edge, and its
    /// position at any body UI is within `δ < 1/2` of it, so an
    /// integral position can only be the edge itself.
    ///
    /// A body needs `16·len·ε < 1`, so every UI is below 2^48. Within
    /// one binade of `i`, `fl(i + o_j) = i + ρ` with `ρ` fixed (`i` is
    /// even on the grid, so ties round alike), and `t = fl(i + ρ + phase)`
    /// is the integer `i + d` exactly when `ρ + phase − d` lies within
    /// half the gaps around `i + d`, gaps that never shrink as `i`
    /// grows. So once a UI of a binade is on its edge, every later UI
    /// of that binade is too, and the block needs checking only at its
    /// first UI and at each power of two it reaches (one at most, from
    /// UI 64 on).
    fn on_edge_uis(&self, i0: usize, j: usize, d: usize) -> u64 {
        let on_edge = |i: usize| i as f64 + self.offsets[j] + self.phase == (i + d) as f64;
        let binades = std::iter::successors(Some((i0 + 1).next_power_of_two()), |p| Some(p * 2));
        if std::iter::once(i0)
            .chain(binades.take_while(|&p| p < i0 + 64))
            .all(on_edge)
        {
            u64::MAX
        } else {
            0
        }
    }
}

impl Body {
    /// Writes UIs `lo..hi`: the source with each bit repeated `n`
    /// times, read from `shift` samples into bit `lo`.
    fn fill(&self, bits: &BitVec, n: usize, out: &mut BitVec) {
        out.push_run(bits.get(self.lo), n - self.shift);
        // Whole source chunks of `per` bits expand through a table.
        let per = (64 / n).min(8);
        if per == 0 {
            for x in self.lo + 1..self.hi {
                out.push_run(bits.get(x), n);
            }
        } else {
            let ones = low_mask(n);
            let table: Vec<u64> = (0..1usize << per)
                .map(|v| {
                    (0..per)
                        .filter(|b| v >> b & 1 == 1)
                        .fold(0, |w, b| w | ones << (b * n))
                })
                .collect();
            let mut x = self.lo + 1;
            while x < self.hi {
                let take = (self.hi - x).min(per);
                let chunk = bits.window64(x) & low_mask(take);
                out.push_word(table[chunk as usize], take * n);
                x += take;
            }
        }
        out.push_run(bits.get(self.hi), self.shift);
    }
}

/// `√(−2 ln ε)`: the largest radius a Box–Muller draw reaches with
/// `u1` drawn from `[ε, 1)`, evaluated as the draw evaluates it.
pub(crate) fn max_gauss_radius() -> f64 {
    (-2.0 * f64::EPSILON.ln()).sqrt()
}

/// Relative padding on the jitter bounds. One radius, one cosine and
/// two products round to within a few ulps of the bound; this is
/// nine orders of magnitude more.
pub(crate) const BOUND_PAD: f64 = 1.0 + 1e-9;

/// Half-width of the bands around `u2 = 1/4` and `u2 = 3/4` where the
/// sign of `cos(2π·u2)` is taken from the cosine itself. The argument
/// `2π·u2` rounds by under 1e-15, and `2π·0.25` lands just below π/2
/// (its cosine is positive), so `u2 < 1/4` alone would misread it.
const SIGN_BAND: f64 = 1.0 / 17_592_186_044_416.0; // 2^-44

/// Smallest sigma the sign rule trusts. Outside the bands
/// `|√(−2 ln u1)·cos(2π·u2)| > 5e-21`, so the product with any sigma
/// from here up is a normal number, never an underflowed zero.
const SIGN_SIGMA_MIN: f64 = 1e-280;

/// One Box–Muller edge offset, `√(−2 ln u1)·cos(2π·u2)·σ`.
pub(crate) fn box_muller(u1: f64, u2: f64, sigma: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * sigma
}

/// The sign of `cos(2π·u2)` for `u2` in `[0, 1)`, or `None` inside the
/// bands around its zeros, where the rounded argument decides.
fn cos_turn_sign(u2: f64) -> Option<bool> {
    let near = |zero: f64| (zero - SIGN_BAND..=zero + SIGN_BAND).contains(&u2);
    if near(0.25) || near(0.75) {
        None
    } else {
        Some(!(0.25..0.75).contains(&u2))
    }
}

/// `0.0 < box_muller(u1, u2, sigma)` for `u1` in `[ε, 1)` and `u2` in
/// `[0, 1)`: the sign of the cosine where it is certain and `sigma`
/// cannot underflow the product, the full draw otherwise.
fn draw_is_positive(u1: f64, u2: f64, sigma: f64) -> bool {
    match cos_turn_sign(u2) {
        Some(positive) if sigma >= SIGN_SIGMA_MIN => positive,
        _ => 0.0 < box_muller(u1, u2, sigma),
    }
}

/// [`cos_turn_sign`] of the `u2` that generator word `w` converts to,
/// read from the word as `(late, in a band)`: `u2 = m·2^-53` exactly,
/// with `m = w >> 11`, so `u2 < 1/4 || u2 ≥ 3/4` is
/// `m < 2^51 || m ≥ 3·2^51`, and the 2^-44 bands are
/// `|m − 2^51| ≤ 2^9` and `|m − 3·2^51| ≤ 2^9`. Each test is one
/// wrapping subtraction and compare.
fn late_word(w: u64) -> (bool, bool) {
    const QUARTER: u64 = 1 << 51;
    const BAND: u64 = 1 << 9;
    let m = w >> 11;
    let late = m.wrapping_sub(QUARTER) >= 2 * QUARTER;
    let band = m.wrapping_sub(QUARTER - BAND) <= 2 * BAND
        || m.wrapping_sub(3 * QUARTER - BAND) <= 2 * BAND;
    (late, band)
}

/// The per-edge jitter of [`oversample_bits_packed`], drawn lazily.
///
/// Edge `e` owns the generator's `e`-th `(u1, u2)` pair, so edges are
/// drawn in order into a ring: samples never move backwards, one
/// sample reads at most its bit's two edges, and the word rule reads
/// the 64 edges of its block. The generator is local, so drawing past
/// the last edge read changes nothing.
struct EdgeJitter {
    sigma: f64,
    rng: rand::rngs::StdRng,
    drawn: usize,
    /// Edge `e`'s two raw generator words and, once evaluated, its
    /// jitter, at `e % RING`.
    ring: [(u64, u64, Option<f64>); RING],
    /// Bit `e % RING`: [`late_word`] of edge `e`'s `u2` word.
    late: u128,
    band: u128,
}

/// Edges [`EdgeJitter`] keeps. It draws [`DRAW`] at a time, so after
/// drawing to the last edge of a 64-edge block the first is still
/// kept, and so is every edge the exact rule reads in that block.
const RING: usize = 128;

/// Edges [`EdgeJitter`] draws per pass.
const DRAW: usize = 32;

/// Hands one stored generator word to the `rand` conversions, so a
/// uniform converted late equals the one drawn in place.
struct Replay(u64);

impl rand::RngCore for Replay {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// `u1` from its generator word, as `gen_range(ε..1)` converts it.
pub(crate) fn uniform_u1(word: u64) -> f64 {
    rand::Rng::gen_range(&mut Replay(word), f64::EPSILON..1.0)
}

/// `u2` from its generator word, as `gen::<f64>()` converts it.
pub(crate) fn uniform_u2(word: u64) -> f64 {
    rand::Rng::gen(&mut Replay(word))
}

impl EdgeJitter {
    fn new(sigma: f64, seed: u64) -> Self {
        use rand::SeedableRng;
        Self {
            sigma,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            drawn: 0,
            ring: [(0, 0, None); RING],
            late: 0,
            band: 0,
        }
    }

    /// A bound on `|jitter|` over every possible draw: `J = |σ|·√(−2 ln ε)`,
    /// padded. NaN or infinite for a NaN or infinite sigma.
    fn reach(&self) -> f64 {
        self.sigma.abs() * max_gauss_radius() * BOUND_PAD
    }

    /// Whether a sample exactly on an edge is decided by that edge's
    /// sign alone: a positive sigma (a non-positive one draws no
    /// jitter) with the next edge out of its reach (`J < 1/2`).
    fn sign_decides(&self) -> bool {
        self.sigma > 0.0 && 1.0 - 2.0 * self.reach() > 0.0
    }

    /// Whether [`late_word`] decides that sign wherever it answers:
    /// [`Self::sign_decides`], with a sigma [`draw_is_positive`] reads
    /// the cosine's sign for.
    fn words_decide(&self) -> bool {
        self.sign_decides() && self.sigma >= SIGN_SIGMA_MIN
    }

    /// Edge `e`'s slot, drawing forward to it. `gen_range(ε..1)` and
    /// `gen::<f64>()` each consume exactly one `next_u64`, so the words
    /// are drawn raw, [`DRAW`] edges per pass of a fixed-length local
    /// loop, and converted only when read.
    fn slot(&mut self, e: usize) -> &mut (u64, u64, Option<f64>) {
        use rand::RngCore;
        assert!(e + RING >= self.drawn, "edges are read in order");
        if e >= self.drawn {
            let mut rng = self.rng.clone();
            while e >= self.drawn {
                let (mut late, mut band) = (0u32, 0u32);
                for k in 0..DRAW {
                    let (u1, u2) = (rng.next_u64(), rng.next_u64());
                    self.ring[(self.drawn + k) % RING] = (u1, u2, None);
                    let (is_late, in_band) = late_word(u2);
                    late |= u32::from(is_late) << k;
                    band |= u32::from(in_band) << k;
                }
                let at = self.drawn % RING;
                let keep = !(u128::from(u32::MAX) << at);
                self.late = self.late & keep | u128::from(late) << at;
                self.band = self.band & keep | u128::from(band) << at;
                self.drawn += DRAW;
            }
            self.rng = rng;
        }
        &mut self.ring[e % RING]
    }

    /// [`late_word`] of edges `e0..e0 + 64`, bit `k` for edge `e0 + k`:
    /// the edges whose draw is late, and those it leaves undecided.
    fn word_signs(&mut self, e0: usize) -> (u64, u64) {
        self.slot(e0 + 63);
        let at = (e0 % RING) as u32;
        (
            self.late.rotate_right(at) as u64,
            self.band.rotate_right(at) as u64,
        )
    }

    /// Edge `e`'s offset in UI, exactly as drawn (zero for `σ <= 0`).
    fn jitter(&mut self, e: usize) -> f64 {
        if self.sigma <= 0.0 {
            return 0.0;
        }
        let sigma = self.sigma;
        let (u1, u2, jitter) = self.slot(e);
        *jitter.get_or_insert_with(|| box_muller(uniform_u1(*u1), uniform_u2(*u2), sigma))
    }

    /// `0.0 < jitter(e)`. Only for sigmas that pass
    /// [`Self::sign_decides`].
    fn is_late(&mut self, e: usize) -> bool {
        let sigma = self.sigma;
        let (u1, u2, _) = *self.slot(e);
        draw_is_positive(uniform_u1(u1), uniform_u2(u2), sigma)
    }
}

/// Emits the CDR decision datapath as synthesizable RTL (for the area
/// and power budget): edge detector, per-phase 6-bit edge counters, a
/// 5-bit window counter, an argmax comparator tree, the phase register
/// and the output sample mux. Implements
/// [`CdrConfig::rtl_equivalent`] semantics.
///
/// # Panics
///
/// Panics if `oversampling` is not in `3..=8`.
pub fn cdr_design(oversampling: usize) -> Design {
    assert!((3..=8).contains(&oversampling), "RTL supports 3..=8 phases");
    let n = oversampling;
    let mut d = Design::new("cdr");
    let samples = d.input_bus("samples", n);
    let last = d.reg();
    d.connect_reg(last, samples[n - 1]);

    // Edge detector.
    let edges: Vec<_> = (0..n)
        .map(|i| {
            let prev = if i == 0 { last } else { samples[i - 1] };
            d.xor(prev, samples[i])
        })
        .collect();

    // Window counter: 0..=31.
    let win = d.reg_bus(5);
    let win_inc = d.incr(&win);
    let window_end = d.eq_const(&win, 31);
    let zero5 = d.const_bus(5, 0);
    let win_next = d.mux_bus(&win_inc, &zero5, window_end);
    d.connect_reg_bus(&win, &win_next);

    // Per-phase 6-bit edge counters, cleared at window end.
    let zero6 = d.const_bus(6, 0);
    let counters: Vec<Vec<_>> = (0..n)
        .map(|i| {
            let cnt = d.reg_bus(6);
            let inc = d.incr(&cnt);
            let bumped = d.mux_bus(&cnt, &inc, edges[i]);
            let next = d.mux_bus(&bumped, &zero6, window_end);
            d.connect_reg_bus(&cnt, &next);
            cnt
        })
        .collect();

    // Argmax fold: first maximum wins (strict greater-than to advance).
    let mut best_val = counters[0].clone();
    let mut best_idx = d.const_bus(3, 0);
    for (i, cnt) in counters.iter().enumerate().skip(1) {
        let is_gt = d.gt(cnt, &best_val);
        // The running maximum feeds only later comparisons; updating
        // it on the final iteration would be dead logic.
        if i + 1 < counters.len() {
            best_val = d.mux_bus(&best_val, cnt, is_gt);
        }
        let idx_const = d.const_bus(3, i as u64);
        best_idx = d.mux_bus(&best_idx, &idx_const, is_gt);
    }

    // Any edges seen this window?
    let all_cnt_bits: Vec<_> = counters.iter().flatten().copied().collect();
    let any_edges = d.or_reduce(&all_cnt_bits);

    // The register stores the modal *edge* position; at power-up (0) the
    // sampling phase is the centre `n/2`, matching the behavioural model.
    let edge_pos = d.reg_bus(3);
    let update = d.and(window_end, any_edges);
    let edge_next = d.mux_bus(&edge_pos, &best_idx, update);
    d.connect_reg_bus(&edge_pos, &edge_next);
    // The argmax is consumed only once per 32-UI window and the link
    // tolerates the phase decision landing several UIs late, so the
    // comparator tree is a declared multicycle path (factor 8,
    // conservative against the 32-cycle window).
    for &q in &edge_pos {
        d.set_multicycle(q, 8);
    }

    // Sampling phase = (edge_pos + n/2) mod n, via constant lookup.
    let sel: Vec<_> = (0..3)
        .map(|b| {
            let leaves: Vec<_> = (0..8)
                .map(|idx| {
                    let t = if idx < n { (idx + n / 2) % n } else { 0 };
                    d.constant(t >> b & 1 == 1)
                })
                .collect();
            d.mux_tree(&leaves, &edge_pos)
        })
        .collect();

    // Recovered bit: samples[sel] (leaves padded to 8).
    let padded: Vec<_> = (0..8).map(|i| samples[i.min(n - 1)]).collect();
    let bit = d.mux_tree(&padded, &sel);
    d.output("bit_out", bit);
    d.output_bus("phase", &sel);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prbs::{PrbsGenerator, PrbsOrder};
    use openserdes_flow::ir::IrSim;

    fn prbs_bits(n: usize) -> Vec<bool> {
        PrbsGenerator::new(PrbsOrder::Prbs15).take_bits(n)
    }

    #[test]
    fn locks_and_recovers_clean_stream() {
        let bits = prbs_bits(2_000);
        let stream = oversample_bits(&bits, 5, 0.0, 0.0, 1);
        let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
        let out = cdr.recover(&stream);
        assert!(cdr.is_locked());
        // After the first decision window everything matches.
        let skip = 2 * 32;
        assert_eq!(out[skip..], bits[skip..], "post-lock recovery is exact");
    }

    #[test]
    fn finds_optimal_phase_for_offset_stream() {
        // Shift the eye by 2/5 UI: the edge lands near sample 0/1, so the
        // best sampling phase moves away from the initial centre.
        let bits = prbs_bits(3_000);
        for frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let stream = oversample_bits(&bits, 5, frac, 0.0, 1);
            let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
            let out = cdr.recover(&stream);
            let skip = 4 * 32;
            // Allow ±1 bit of alignment slack: phase offsets near a UI
            // boundary legitimately shift the recovered stream by one
            // bit (leading or lagging).
            let errors_at = |lag: isize| -> usize {
                out[skip..]
                    .iter()
                    .zip(&bits[(skip as isize + lag) as usize..])
                    .filter(|(a, b)| a != b)
                    .count()
            };
            let best = [-1, 0, 1].map(errors_at);
            assert!(
                best.contains(&0),
                "offset {frac}: errors at lags -1/0/+1 = {best:?}"
            );
        }
    }

    #[test]
    fn locks_at_every_offset_under_jitter() {
        // Fig. 7 with the glitch filter and hysteresis on: 0.02 UI RJ.
        let bits = prbs_bits(3_000);
        for frac in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let stream = oversample_bits(&bits, 5, frac, 0.02, 11);
            let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
            let out = cdr.recover(&stream);
            assert!(cdr.is_locked(), "offset {frac} must lock");
            // Post-lock errors at the best alignment within ±1 bit.
            let skip = 4 * 32;
            let errors_at = |lag: usize| {
                let sent = &bits[skip + lag - 1..];
                out[skip..].iter().zip(sent).filter(|(a, b)| a != b).count()
            };
            let errors = (0..3).map(errors_at).min().expect("three lags");
            assert!(errors <= 2, "offset {frac}: {errors} errors");
        }
    }

    #[test]
    fn tracks_jittered_stream() {
        let bits = prbs_bits(5_000);
        let stream = oversample_bits(&bits, 5, 0.1, 0.05, 7);
        let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
        let out = cdr.recover(&stream);
        let skip = 4 * 32;
        let errors = out[skip..]
            .iter()
            .zip(&bits[skip..])
            .filter(|(a, b)| a != b)
            .count();
        let ber = errors as f64 / (out.len() - skip) as f64;
        assert!(ber < 0.01, "jittered BER = {ber}");
        assert!(cdr.is_locked());
    }

    #[test]
    fn glitch_filter_cleans_single_sample_glitches() {
        let bits = prbs_bits(2_000);
        let mut stream = oversample_bits(&bits, 5, 0.0, 0.0, 1);
        // Inject isolated glitch samples (every 37th sample flipped).
        for i in (0..stream.len()).step_by(37) {
            stream[i] = !stream[i];
        }
        let run = |filter: bool| {
            let mut cfg = CdrConfig::paper_default();
            cfg.glitch_filter = filter;
            let mut cdr = OversamplingCdr::new(cfg);
            let out = cdr.recover(&stream);
            let skip = 4 * 32;
            out[skip..]
                .iter()
                .zip(&bits[skip..])
                .filter(|(a, b)| a != b)
                .count()
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with < without,
            "glitch filter must help: {with} vs {without}"
        );
        assert_eq!(with, 0, "filtered stream recovers perfectly");
    }

    #[test]
    fn hysteresis_suppresses_phase_hunting() {
        // Alternate the stream offset every window to tempt the CDR into
        // hunting; high hysteresis should move the phase less.
        let bits = prbs_bits(4_000);
        let run = |hyst: u32| {
            let mut cfg = CdrConfig::paper_default();
            cfg.phase_hysteresis = hyst;
            let mut cdr = OversamplingCdr::new(cfg);
            for (k, chunk) in bits.chunks(32).enumerate() {
                let frac = if k % 2 == 0 { 0.05 } else { 0.25 };
                let stream = oversample_bits(chunk, 5, frac, 0.0, 3);
                let _ = cdr.recover(&stream);
            }
            cdr.phase_updates()
        };
        let nervous = run(1);
        let calm = run(4);
        assert!(calm <= nervous, "hysteresis: {calm} vs {nervous}");
    }

    #[test]
    fn long_runs_hold_phase() {
        // All-zero data has no edges: the CDR must keep its phase.
        let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
        let before = cdr.selected_phase();
        let stream = vec![false; 5 * 500];
        let out = cdr.recover(&stream);
        assert_eq!(cdr.selected_phase(), before);
        assert!(out.iter().all(|&b| !b));
        assert_eq!(cdr.phase_updates(), 0);
    }

    #[test]
    fn rtl_matches_behavioural_on_clean_stream() {
        let bits = prbs_bits(1_500);
        let stream = oversample_bits(&bits, 5, 0.3, 0.0, 1);
        // Behavioural reference in RTL-equivalent mode.
        let mut cdr = OversamplingCdr::new(CdrConfig::rtl_equivalent(5));
        let expect = cdr.recover(&stream);

        let design = cdr_design(5);
        let mut sim = IrSim::new(&design);
        let out_sig = design
            .outputs()
            .iter()
            .find(|(n, _)| n == "bit_out")
            .expect("bit_out")
            .1;
        let mut got = Vec::new();
        for ui in stream.chunks(5) {
            for (i, &s) in ui.iter().enumerate() {
                sim.set_by_name(&format!("samples[{i}]"), s);
            }
            // Output is combinational from the current samples + phase.
            sim.settle();
            got.push(sim.get(out_sig));
            sim.tick();
        }
        assert_eq!(got, expect, "RTL and behavioural CDR must agree");
    }

    #[test]
    fn rtl_synthesizes() {
        let lib = openserdes_pdk::library::Library::sky130(openserdes_pdk::corner::Pvt::nominal());
        let res = openserdes_flow::synthesize(&cdr_design(5), &lib).expect("ok");
        // 1 last + 5 win + 5×6 counters + 3 phase = 39 flops.
        assert_eq!(res.netlist.flop_count(), 39);
        assert!(res.netlist.cell_count() > 100);
    }

    #[test]
    fn rtl_has_no_dead_logic() {
        // Regression: the argmax fold used to refresh its running
        // maximum after the final comparison, leaving a 6-bit mux bank
        // outside every output cone (IR002 dead logic per CDR).
        let report = cdr_design(5).lint(&openserdes_lint::LintConfig::default());
        assert!(
            report
                .findings()
                .iter()
                .all(|f| f.rule != openserdes_lint::Rule::DeadNode),
            "cdr_design must not carry dead IR nodes:\n{report}"
        );
    }

    #[test]
    #[should_panic(expected = "at least 3x")]
    fn low_oversampling_rejected() {
        let mut cfg = CdrConfig::paper_default();
        cfg.oversampling = 2;
        let _ = OversamplingCdr::new(cfg);
    }

    #[test]
    fn jitter_moves_edges_both_directions() {
        // One rising edge at t = 1.0 UI; Gaussian jitter must shift it
        // early about as often as late. The old sampler only honoured
        // positive draws, so the recovered edge could never land early.
        let bits = [false, true];
        let n = 50;
        let (mut early, mut late) = (0u32, 0u32);
        for seed in 0..400 {
            let s = oversample_bits(&bits, n, 0.0, 0.2, seed);
            let edge = s.iter().position(|&b| b).unwrap_or(2 * n);
            match edge.cmp(&n) {
                std::cmp::Ordering::Less => early += 1,
                std::cmp::Ordering::Greater => late += 1,
                std::cmp::Ordering::Equal => {}
            }
        }
        assert!(early > 50, "edges must move early too: {early}");
        assert!(late > 50, "edges must still move late: {late}");
        let ratio = early as f64 / late as f64;
        assert!((0.5..2.0).contains(&ratio), "early/late = {early}/{late}");
    }

    /// The sampler as first written, kept as the oracle for
    /// [`oversample_bits_packed`]: one Box–Muller draw per edge into a
    /// jitter vector, then `floor` and one bit per sample.
    fn oversample_reference(
        bits: &[bool],
        n: usize,
        phase_frac: f64,
        rj_sigma_ui: f64,
        seed: u64,
    ) -> Vec<bool> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let jitter: Vec<f64> = (0..=bits.len())
            .map(|_| {
                if rj_sigma_ui <= 0.0 {
                    0.0
                } else {
                    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                    let u2: f64 = rng.gen::<f64>();
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos() * rj_sigma_ui
                }
            })
            .collect();
        let len = bits.len();
        let mut out = Vec::with_capacity(len * n);
        for i in 0..len {
            for j in 0..n {
                let t = i as f64 + (j as f64 + 0.5) / n as f64 + phase_frac;
                let idx = t.floor() as isize;
                let frac = t - idx as f64;
                let idx = idx.clamp(0, len as isize - 1) as usize;
                let bit = if idx > 0 && frac < jitter[idx] {
                    bits[idx - 1]
                } else if idx + 1 < len && frac >= 1.0 + jitter[idx + 1] {
                    bits[idx + 1]
                } else {
                    bits[idx]
                };
                out.push(bit);
            }
        }
        out
    }

    /// One UI stepped as the CDR was first written, kept as the oracle
    /// for the window kernel: the UI packed into the low `oversampling`
    /// bits of a word (sample 0 in bit 0; higher bits ignored).
    fn step_ui(cdr: &mut OversamplingCdr, samples: u64) -> bool {
        let n = cdr.cfg.oversampling;
        let mask = low_mask(n);
        let samples = samples & mask;

        // Glitch correction: majority-of-3 smoothing over the sample
        // window (previous UI's last sample patches the left edge, the
        // right edge duplicates the last sample), computed word-wide.
        let smoothed = if cdr.cfg.glitch_filter {
            let prev = (samples << 1) | cdr.last_sample as u64;
            let next = (samples >> 1) | (samples & (1u64 << (n - 1)));
            ((prev & samples) | (prev & next) | (samples & next)) & mask
        } else {
            samples
        };

        let bit = smoothed >> cdr.phase & 1 == 1;

        // Window bookkeeping matches the RTL: on the window's last UI the
        // decision is evaluated from the accumulated histogram and the
        // histogram clears (that UI's edges are not counted).
        if cdr.win_count == cdr.cfg.window - 1 {
            cdr.evaluate();
            cdr.edge_hist.iter_mut().for_each(|c| *c = 0);
            cdr.win_count = 0;
        } else {
            let mut edges = (smoothed ^ ((smoothed << 1) | cdr.last_sample as u64)) & mask;
            while edges != 0 {
                cdr.edge_hist[edges.trailing_zeros() as usize] += 1;
                edges &= edges - 1;
            }
            cdr.win_count += 1;
        }

        cdr.last_sample = smoothed >> (n - 1) & 1 == 1;
        cdr.uis += 1;
        bit
    }

    #[test]
    fn fault_free_run_reports_no_lock_losses() {
        let bits = prbs_bits(4_000);
        let stream = oversample_bits(&bits, 5, 0.0, 0.0, 7);
        let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
        let _ = cdr.recover(&stream);
        assert!(cdr.is_locked());
        assert_eq!(cdr.lock_losses(), 0);
        assert!(cdr.relock_times_ui().is_empty());
        assert_eq!(cdr.unlock_at_ui, None);
    }

    #[test]
    fn injected_phase_flip_is_detected_and_relocked() {
        let bits = prbs_bits(4_000);
        let stream = oversample_bits(&bits, 5, 0.0, 0.0, 1);
        let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
        // Lock on the first half.
        let half = stream.len() / 2 / 5 * 5;
        let _ = cdr.recover(&stream[..half]);
        assert!(cdr.is_locked());
        let before = cdr.selected_phase();
        cdr.inject_phase_flip(1);
        assert_ne!(cdr.selected_phase(), before, "flip must change the phase");
        let _ = cdr.recover(&stream[half..]);
        assert_eq!(cdr.lock_losses(), 1, "the upset must be detected");
        assert_eq!(cdr.relock_times_ui().len(), 1);
        // Re-lock takes the disagreeing window plus `hysteresis` voting
        // windows — bound it at a handful of windows.
        assert!(
            cdr.relock_times_ui()[0] <= 4 * 32,
            "re-lock in {} UIs",
            cdr.relock_times_ui()[0]
        );
        assert_eq!(cdr.unlock_at_ui, None, "episode must be closed");
        assert_eq!(cdr.selected_phase(), before, "phase recovers");
    }

    #[test]
    fn oversample_helper_produces_n_per_bit() {
        let bits = [true, false, true];
        let s = oversample_bits(&bits, 4, 0.0, 0.0, 1);
        assert_eq!(s.len(), 12);
        assert_eq!(&s[..4], &[true; 4]);
        assert_eq!(&s[4..8], &[false; 4]);
    }

    /// The `u2` values the sign rule is checked on: the `2^16`
    /// consecutive doubles on each side of 1/4 and of 3/4, and the first
    /// and last `2^16` doubles of `[0, 1)`.
    fn sign_rule_inputs() -> impl Iterator<Item = f64> {
        const K: u64 = 1 << 16;
        let around = |x: f64| (x.to_bits() - K..=x.to_bits() + K).map(f64::from_bits);
        let one = 1.0f64.to_bits();
        around(0.25)
            .chain(around(0.75))
            .chain((0..K).map(f64::from_bits))
            .chain((one - K..one).map(f64::from_bits))
    }

    #[test]
    fn sign_rule_matches_the_full_draw_exhaustively() {
        // 2π·0.25 rounds to just below π/2, where the cosine is still
        // positive: a rule without a band would call u2 = 0.25 early.
        assert!(0.0 < box_muller(0.5, 0.25, 0.003));
        let largest_below_one = 1.0 - f64::EPSILON / 2.0;
        // At 1e-300 the product can underflow and the full draw
        // decides; at the smallest subnormal most products do.
        for sigma in [0.003, 1e-300, 5e-324] {
            for u1 in [f64::EPSILON, 0.5, largest_below_one] {
                for u2 in sign_rule_inputs() {
                    assert_eq!(
                        draw_is_positive(u1, u2, sigma),
                        0.0 < box_muller(u1, u2, sigma),
                        "u1 = {u1:e}, u2 = {u2:e}, sigma = {sigma:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_sign_matches_the_sign_rule_around_each_band_edge() {
        // The 2^16 values of `m` on each side of each band edge, each
        // as a word with its 11 unread low bits clear and set.
        const K: u64 = 1 << 16;
        const QUARTER: u64 = 1 << 51;
        let edges = [
            QUARTER - 512,
            QUARTER + 512,
            3 * QUARTER - 512,
            3 * QUARTER + 512,
        ];
        let words: Vec<u64> = edges
            .into_iter()
            .flat_map(|edge| edge - K..=edge + K)
            .flat_map(|m| [m << 11, m << 11 | 0x7FF])
            .collect();
        let largest_below_one = 1.0 - f64::EPSILON / 2.0;
        for sigma in [0.003, 1e-300, 5e-324] {
            // Below the sigma floor the word rule leaves every edge to
            // the exact rule, which takes the full draw there.
            let decides = EdgeJitter::new(sigma, 0).words_decide();
            assert_eq!(decides, sigma >= SIGN_SIGMA_MIN, "sigma = {sigma:e}");
            for u1 in [f64::EPSILON, 0.5, largest_below_one] {
                for &w in &words {
                    let u2 = uniform_u2(w);
                    let (late, band) = late_word(w);
                    assert_eq!(band, cos_turn_sign(u2).is_none(), "w = {w:#x}");
                    if decides && !band {
                        assert_eq!(
                            late,
                            draw_is_positive(u1, u2, sigma),
                            "u1 = {u1:e}, w = {w:#x}, sigma = {sigma:e}"
                        );
                        assert_eq!(late, 0.0 < box_muller(u1, u2, sigma));
                    }
                }
            }
        }
    }

    /// The word rule and its per-UI fallback against the reference at
    /// the link's lengths. Some on-edge phases leave a few early UIs'
    /// positions an ulp off the edge; sigmas near 1e-15 UI put draws
    /// between such a position and the edge, where the sign alone would
    /// misread them.
    #[test]
    fn packed_sampler_matches_reference_at_link_lengths() {
        use rand::{Rng, SeedableRng};
        // Phases that put the slot's first-UI position exactly on its
        // edge, the last four leaving UIs 4–7, 2, 1 and 2 just off it.
        let cases = [
            (16_384, 5, 0.3, 0.003, 11),
            (40_000, 4, 0.125, 0.003, 12),
            (65_536, 8, 0.0625, 0.003, 13),
            (50_000, 7, 1.0 - 6.5 / 7.0, 0.003, 14),
            (16_384, 9, (1.0f64 - 5.5 / 9.0).next_down(), 1e-15, 15),
            (65_536, 9, (1.0f64 - 5.5 / 9.0).next_down(), 2e-15, 16),
            (16_384, 5, (1.0f64 - 3.5 / 5.0).next_up(), 1e-15, 17),
            (65_536, 5, (1.0f64 - 4.5 / 5.0).next_down(), 2e-15, 18),
            (40_000, 7, (1.0f64 - 6.5 / 7.0).next_up(), 1e-15, 19),
        ];
        let (mut settled, mut left) = (0, 0);
        for (len, n, phase, sigma, seed) in cases {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let packed = BitVec::from_bools(&bits);
            let rule = SampleRule::new(&packed, n, phase, sigma, seed);
            let body = rule.body().expect("the word fill covers the case");
            let (j, d) = body.on_edge.expect("a slot on its edge");
            for i0 in (body.lo..body.hi).step_by(64) {
                if rule.on_edge_uis(i0, j, d) == 0 {
                    left += 1;
                } else {
                    settled += 1;
                }
            }
            assert_eq!(
                oversample_bits_packed(&packed, n, phase, sigma, seed).to_bools(),
                oversample_reference(&bits, n, phase, sigma, seed),
                "len {len}, n {n}, phase {phase:e}, sigma {sigma:e}"
            );
        }
        assert!(
            settled > 0 && left > 0,
            "{settled} blocks settled, {left} left"
        );
    }

    #[test]
    fn reach_bounds_every_draw() {
        let largest_below_one = 1.0 - f64::EPSILON / 2.0;
        let u2s = (0..4_096)
            .map(|k| f64::from(k) / 4_096.0)
            .chain(sign_rule_inputs());
        let u2s: Vec<f64> = u2s.collect();
        for sigma in [0.003, 0.2, -0.003, 1e-300, 5e-324, 1e300] {
            let reach = EdgeJitter::new(sigma, 0).reach();
            for u1 in [f64::EPSILON, largest_below_one] {
                for &u2 in &u2s {
                    let jitter = box_muller(u1, u2, sigma);
                    assert!(
                        jitter.abs() <= reach,
                        "|{jitter:e}| > {reach:e} at u1 = {u1:e}, u2 = {u2:e}"
                    );
                    // The bathtub bounds the unscaled draw by the radius.
                    assert!(box_muller(u1, u2, 1.0).abs() <= max_gauss_radius());
                }
            }
        }
        assert!((max_gauss_radius() - 8.49).abs() < 0.01);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Phases and sigmas the samplers must agree on beyond random
        /// ones: samples exactly on an edge (0.3 at n = 5, 0.25 at
        /// n = 2, 0.125 at n = 4), negative, NaN, infinite and huge
        /// values, and sigmas that underflow or reach past half a UI.
        const PHASES: [f64; 12] = [
            0.0,
            0.3,
            -0.3,
            1.5,
            0.25,
            0.125,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
        ];
        /// `(n, phase)`: a phase that puts a slot of ratio `n` exactly
        /// on an edge, within 1e-12 UI of one, or within 1e-14 UI of
        /// one. At 1e-14, rounding moves the sample across the edge at
        /// some UIs of a stream of a few hundred bits, so a slot
        /// classified from its first UI alone reads the wrong bit there.
        const EDGE_PHASES: [(usize, f64); 15] = [
            (3, 0.5),
            (3, 0.5 - 1e-12),
            (3, 0.5 - 1e-14),
            (4, 0.125),
            (4, 0.125 + 1e-12),
            (4, 0.125 - 1e-14),
            (5, 0.3),
            (5, 0.3 + 1e-12),
            (5, 0.3 - 1e-14),
            (7, 1.0 - 6.5 / 7.0),
            (7, 1.0 - 6.5 / 7.0 - 1e-12),
            (7, 1.0 - 6.5 / 7.0 + 1e-14),
            (8, 0.0625),
            (8, 0.0625 + 1e-12),
            (8, 0.0625 - 1e-14),
        ];
        const SIGMAS: [f64; 13] = [
            0.0,
            -0.0,
            0.003,
            0.2,
            -0.003,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-300,
            5e-324,
            0.45,
            0.26,
            0.03,
        ];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(800))]

            /// Lengths up to 3 000 run the word-level body and both
            /// exact ends; half the cases take an edge phase with the
            /// ratio it targets.
            #[test]
            fn packed_sampler_matches_reference(
                len_pick in 0usize..3_000,
                short in any::<bool>(),
                n_pick in 0usize..65,
                on_edge in any::<bool>(),
                edge_pick in 0usize..EDGE_PHASES.len(),
                phase_pick in 0usize..18,
                phase_rand in -2.0f64..2.0,
                sigma_pick in 0usize..16,
                sigma_rand in 0.0f64..0.3,
                seed in any::<u64>(),
            ) {
                use rand::{Rng, SeedableRng};
                let len = if short { len_pick % 160 } else { len_pick };
                let (n, phase) = if on_edge {
                    EDGE_PHASES[edge_pick]
                } else {
                    (n_pick, PHASES.get(phase_pick).copied().unwrap_or(phase_rand))
                };
                let sigma = SIGMAS.get(sigma_pick).copied().unwrap_or(sigma_rand);
                let mut rng = rand::rngs::StdRng::seed_from_u64(!seed);
                let bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
                let got = oversample_bits_packed(&BitVec::from_bools(&bits), n, phase, sigma, seed);
                prop_assert_eq!(
                    got.to_bools(),
                    oversample_reference(&bits, n, phase, sigma, seed),
                    "len {}, n {}, phase {:e}, sigma {:e}, seed {}",
                    len, n, phase, sigma, seed
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(300))]

            /// The window kernel against per-UI stepping: a random
            /// config, a jittered stream with noise flips, split into
            /// random chunks (empty ones too) that go through `recover`,
            /// `recover_packed` or the fault path with phase-register
            /// strikes at random UIs. After every chunk the bits and the
            /// whole CDR state must match.
            #[test]
            fn window_kernel_matches_per_ui_oracle(
                n in 3usize..65,
                window in 1usize..71,
                phase_hysteresis in 1u32..4,
                glitch_filter in any::<bool>(),
                uis in 0usize..700,
                phase in 0.0f64..1.0,
                sigma in 0.0f64..0.08,
                flips_per_mille in 0u32..80,
                seed in any::<u64>(),
            ) {
                use rand::{Rng, SeedableRng};
                let cfg = CdrConfig { oversampling: n, glitch_filter, phase_hysteresis, window };
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let bits: BitVec = (0..uis).map(|_| rng.gen::<bool>()).collect();
                let mut stream = oversample_bits_packed(&bits, n, phase, sigma, seed);
                for s in 0..stream.len() {
                    if rng.gen_range(0u32..1_000) < flips_per_mille {
                        stream.toggle(s);
                    }
                }
                let mut kernel = OversamplingCdr::new(cfg);
                let mut oracle = OversamplingCdr::new(cfg);
                let mut k = 0;
                while k < uis {
                    let m = rng.gen_range(0..(uis - k).min(3 * window + 2) + 1);
                    let chunk: BitVec = (k * n..(k + m) * n).map(|s| stream.get(s)).collect();
                    let route = rng.gen_range(0u32..3);
                    let mut strikes: Vec<(usize, u32)> = Vec::new();
                    if route == 2 {
                        for _ in 0..rng.gen_range(0usize..4) {
                            strikes.push((rng.gen_range(0..m + 1), rng.gen_range(0u32..8)));
                        }
                        strikes.sort_by_key(|&(at, _)| at);
                    }
                    let got = match route {
                        0 => kernel.recover(&chunk.to_bools()),
                        1 => kernel.recover_packed(&chunk).to_bools(),
                        _ => kernel.recover_with_phase_flips(&chunk, &strikes).to_bools(),
                    };
                    let mut want = Vec::with_capacity(m);
                    let mut pending = strikes.iter().peekable();
                    for u in 0..=m {
                        while let Some(&(_, bit)) = pending.next_if(|&&(at, _)| at == u) {
                            oracle.inject_phase_flip(bit);
                        }
                        if u < m {
                            want.push(step_ui(&mut oracle, chunk.window64(u * n)));
                        }
                    }
                    prop_assert_eq!(
                        &got, &want,
                        "bits of UIs {}..{}, cfg {:?}, route {}", k, k + m, cfg, route
                    );
                    prop_assert_eq!(
                        &kernel, &oracle,
                        "state after UIs {}..{}, cfg {:?}, route {}", k, k + m, cfg, route
                    );
                    k += m;
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The resilience contract the fault campaigns rely on: after
            /// an SEU flips any bit of the phase register at any stream
            /// alignment, `paper_default` detects the upset and re-locks
            /// within a bounded number of decision windows.
            #[test]
            fn paper_default_relocks_bounded_after_phase_glitch(
                phase_pm in 0u32..100,
                bit in 0u32..3,
            ) {
                let cfg = CdrConfig::paper_default();
                let bits = prbs_bits(4_000);
                let phase_frac = f64::from(phase_pm) / 125.0; // 0.0..0.8 UI
                let stream = oversample_bits(&bits, cfg.oversampling, phase_frac, 0.0, 1);
                let half = stream.len() / 2 / cfg.oversampling * cfg.oversampling;

                let mut cdr = OversamplingCdr::new(cfg);
                let _ = cdr.recover(&stream[..half]);
                prop_assert!(cdr.is_locked(), "must lock on the clean half");
                let baseline = cdr.lock_losses();
                prop_assert_eq!(baseline, 0, "clean jitter-free stream");

                let before = cdr.selected_phase();
                cdr.inject_phase_flip(bit);
                prop_assert!(cdr.selected_phase() != before, "flip must move the phase");
                let _ = cdr.recover(&stream[half..]);

                prop_assert!(cdr.lock_losses() >= 1, "the upset must be detected");
                prop_assert_eq!(cdr.unlock_at_ui, None, "episode must close");
                let bound = 6 * cfg.window as u64;
                for &t in cdr.relock_times_ui() {
                    prop_assert!(t <= bound, "re-lock took {t} UIs (bound {bound})");
                }
            }
        }
    }
}
