//! Contract of multi-point transient batches (DESIGN.md §16): on
//! random circuits and batch compositions, `run_transient_batched` must
//! be **bit-identical per point** to a sequential solve of that point's
//! materialized circuit, in `Fixed` and `Adaptive` mode, including
//! batches where the lockstep kernel retires points into the sequential
//! recovery ladder. Only uniform linear fixed-step batches may take the
//! kernel. `dc_sweep_with_threads` must return exactly the per-point DC
//! operating points at every thread count.

use openserdes::analog::primitives::{add_inverter_chain, InverterSize};
use openserdes::analog::solver::{dc_sweep_with_threads, Solver, TransientConfig};
use openserdes::analog::{
    dc_operating_point, Circuit, Element, Node, PointOverride, SolverError, Stimulus,
    TransientResult, Waveform,
};
use openserdes::core::{LinkConfig, Sweep};
use openserdes::pdk::corner::Pvt;
use openserdes::phy::{FrontEndConfig, RxFrontEnd};
use proptest::prelude::*;

/// The batch sizes the contract is exercised at: degenerate (1), tiny,
/// odd (not a lane multiple) and large.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 32];

const LTE_TOL: f64 = 1.0e-3;

fn pattern(mask: u8, n: usize) -> Vec<bool> {
    (0..n).map(|i| mask >> i & 1 == 1).collect()
}

/// A single-pole RC low-pass driven by an NRZ source. Stimulus-only
/// overrides (per-point swing) keep the batch uniform and linear: the
/// shape the lockstep kernel runs.
fn rc_fixture(r_ohms: f64, c_farads: f64, mask: u8) -> (Circuit, Vec<Node>, f64, f64) {
    let bits = pattern(mask, 4);
    let ui = 200e-12;
    let input = Waveform::nrz(&bits, ui, ui / 10.0, 0.0, 1.8, 32);
    let mut c = Circuit::new();
    let vin = c.node("vin");
    let vout = c.node("vout");
    c.vsource(vin, Stimulus::Wave(input));
    c.resistor(vin, vout, r_ohms);
    c.capacitor(vout, c.gnd(), c_farads);
    let t_end = (bits.len() + 1) as f64 * ui;
    (c, vec![vin, vout], t_end, 2e-12)
}

/// Per-point swings for the RC fixture: override source 0 with a
/// rescaled copy of the NRZ drive.
fn rc_points(mask: u8, np: usize) -> Vec<PointOverride> {
    let bits = pattern(mask, 4);
    let ui = 200e-12;
    (0..np)
        .map(|p| {
            let swing = 0.6 + 0.05 * p as f64;
            let wave = Waveform::nrz(&bits, ui, ui / 10.0, 0.0, swing, 32);
            PointOverride::new().with_source(0, Stimulus::Wave(wave))
        })
        .collect()
}

/// A two-stage inverter chain into a load cap. Its MOS stamps (and the
/// per-point load overrides) keep the batch out of the kernel: every
/// point runs its own sequential solve.
fn chain_fixture(mask: u8, scale: f64) -> (Circuit, Vec<Node>, usize, f64, f64) {
    let pvt = Pvt::nominal();
    let bits = pattern(mask, 4);
    let ui = 200e-12;
    let input = Waveform::nrz(&bits, ui, ui / 10.0, 0.0, pvt.vdd.value(), 32);
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    c.vsource(vdd, Stimulus::Dc(pvt.vdd.value()));
    c.vsource(vin, Stimulus::Wave(input));
    let sizes = [
        InverterSize::scaled(scale),
        InverterSize::scaled(scale * 3.0),
    ];
    let outs = add_inverter_chain(&mut c, &pvt, &sizes, vin, vdd);
    let out = *outs.last().expect("stages");
    c.capacitor(out, c.gnd(), 50e-15);
    let load_index = c.elements().len() - 1;
    let t_end = (bits.len() + 1) as f64 * ui;
    (c, vec![vin, out], load_index, t_end, 2e-12)
}

fn chain_points(base: &Circuit, load_index: usize, out: Node, np: usize) -> Vec<PointOverride> {
    (0..np)
        .map(|p| {
            PointOverride::new().with_element(
                load_index,
                Element::Capacitor {
                    a: out,
                    b: base.gnd(),
                    farads: (20.0 + 15.0 * p as f64) * 1e-15,
                },
            )
        })
        .collect()
}

/// Asserts every batched point's waveforms match a sequential
/// `run_transient` of the materialized circuit bit for bit at `nodes`,
/// and that the batch took the kernel exactly when `kernel` says so.
fn assert_batched_bit_identical(
    base: &Circuit,
    points: &[PointOverride],
    cfg: &TransientConfig,
    nodes: &[Node],
    kernel: bool,
) {
    let mut solver = Solver::new(base);
    let batched = solver.run_transient_batched(points, cfg);
    assert_eq!(batched.results().len(), points.len());
    let kernel_points = if kernel { points.len() as u64 } else { 0 };
    assert_eq!(
        batched.stats().batched_points,
        kernel_points,
        "kernel selection"
    );
    for (p, (ov, got)) in points.iter().zip(batched.results()).enumerate() {
        let pc = ov.circuit_for_point(base);
        let want = Solver::new(&pc).run_transient(cfg);
        match (got, &want) {
            (Ok(got), Ok(want)) => {
                for &node in nodes {
                    let g = got.waveform(node).samples();
                    let w = want.waveform(node).samples();
                    assert_eq!(g.len(), w.len(), "point {p}: sample count");
                    for (i, (a, b)) in g.iter().zip(w).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "point {p}, node {node}, sample {i}: {a:e} vs {b:e}"
                        );
                    }
                }
            }
            (Err(ge), Err(we)) => {
                assert_eq!(ge.to_string(), we.to_string(), "point {p}: error mismatch")
            }
            (g, w) => panic!("point {p}: outcome mismatch: {g:?} vs {w:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The kernel: uniform linear fixed-step batches are bit-identical
    /// to the sequential solver at every batch size.
    #[test]
    fn fixed_batched_rc_bit_identical(
        r in 100.0f64..10_000.0,
        cap_ff in 100.0f64..5_000.0,
        mask in any::<u8>(),
        bs_idx in 0usize..4,
    ) {
        let np = BATCH_SIZES[bs_idx];
        let (c, nodes, t_end, dt) = rc_fixture(r, cap_ff * 1e-15, mask);
        let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
        assert_batched_bit_identical(&c, &rc_points(mask, np), &cfg, &nodes, true);
    }

    /// Nonlinear batches with element overrides solve per point, bit
    /// for bit as the sequential solver does.
    #[test]
    fn fixed_batched_chain_bit_identical(
        mask in any::<u8>(),
        scale in 1.0f64..6.0,
        bs_idx in 0usize..4,
    ) {
        let np = BATCH_SIZES[bs_idx].min(7); // MOS batches are pricey; cap the sweep
        let (c, nodes, load_index, t_end, dt) = chain_fixture(mask, scale);
        let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
        let points = chain_points(&c, load_index, nodes[1], np);
        assert_batched_bit_identical(&c, &points, &cfg, &nodes, false);
    }

    /// Adaptive batches solve per point, so they are bit-identical to
    /// sequential adaptive runs too, even on a linear circuit the
    /// kernel would take at a fixed step.
    #[test]
    fn adaptive_batched_rc_bit_identical(
        r in 100.0f64..10_000.0,
        cap_ff in 100.0f64..5_000.0,
        mask in any::<u8>(),
        bs_idx in 0usize..4,
    ) {
        let np = BATCH_SIZES[bs_idx];
        let (c, nodes, t_end, dt) = rc_fixture(r, cap_ff * 1e-15, mask);
        let cfg = TransientConfig::until(t_end).with_adaptive_steps(dt, 64.0 * dt, LTE_TOL);
        assert_batched_bit_identical(&c, &rc_points(mask, np), &cfg, &nodes, false);
    }
}

/// A kernel batch where some points retire into the recovery ladder
/// and others don't: with one Newton iteration per step, the
/// sharp-edged points cannot converge at their edges, while the flat
/// drives sit at their operating point and converge at once. Every
/// point — retired or not — must still match its sequential solve bit
/// for bit, and the retirements must be counted.
#[test]
fn mixed_recovery_batch_stays_bit_identical() {
    let (c, nodes, t_end, dt) = rc_fixture(1e3, 1e-12, 0b0101);
    let sharp = Waveform::nrz(&[true, false, true, false], 200e-12, 5e-12, 0.0, 1.8, 32);
    let points = vec![
        PointOverride::new().with_source_dc(0, 0.0),
        PointOverride::new().with_source(0, Stimulus::Wave(sharp.clone())),
        PointOverride::new().with_source_dc(0, 1.8),
        PointOverride::new().with_source(0, Stimulus::Wave(sharp)),
    ];
    let cfg = TransientConfig::until(t_end)
        .with_fixed_dt(dt)
        .with_max_newton(1);
    let mut solver = Solver::new(&c);
    let batched = solver.run_transient_batched(&points, &cfg);
    let stats = batched.stats();
    assert_eq!(
        stats.batch_retirements, 2,
        "expected exactly the sharp-edged points to retire (stats: {stats:?})"
    );
    assert!(
        stats.recovery_attempts > 0,
        "the retired points must have run the recovery ladder (stats: {stats:?})"
    );
    assert_batched_bit_identical(&c, &points, &cfg, &nodes, true);
}

/// The identity override on an empty batch and a one-point batch both
/// behave: no points, no stats; one point, the base circuit's solution.
#[test]
fn empty_and_identity_batches() {
    let (c, nodes, t_end, dt) = rc_fixture(1e3, 1e-12, 0b0011);
    let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
    let mut solver = Solver::new(&c);
    let empty = solver.run_transient_batched(&[], &cfg);
    assert!(empty.results().is_empty());
    assert_eq!(empty.stats().batched_points, 0);
    let ov = PointOverride::new();
    assert!(ov.is_identity());
    assert_batched_bit_identical(&c, &[ov], &cfg, &nodes, true);
}

/// The 70-point sweep circuit: a two-stage inverter chain with its
/// input (source 1) swept across the rail.
fn dc_sweep_fixture() -> (Circuit, Vec<f64>) {
    let pvt = Pvt::nominal();
    let vdd_v = pvt.vdd.value();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("vin");
    c.vsource(vdd, Stimulus::Dc(vdd_v));
    c.vsource(vin, Stimulus::Dc(0.0));
    let sizes = [InverterSize::unit(), InverterSize::scaled(2.0)];
    let outs = add_inverter_chain(&mut c, &pvt, &sizes, vin, vdd);
    c.capacitor(*outs.last().expect("stages"), c.gnd(), 10e-15);
    let xs = (0..70).map(|i| vdd_v * i as f64 / 69.0).collect();
    (c, xs)
}

/// `dc_sweep_with_threads` must return exactly the DC operating point
/// of each point's materialized circuit, bit for bit, at every worker
/// count.
#[test]
fn dc_sweep_with_threads_matches_per_point_dc_exactly() {
    let (c, xs) = dc_sweep_fixture();
    let want: Vec<Vec<f64>> = xs
        .iter()
        .map(|&x| {
            let pc = PointOverride::new()
                .with_source_dc(1, x)
                .circuit_for_point(&c);
            dc_operating_point(&pc).expect("solves").into_voltages()
        })
        .collect();
    for threads in [1usize, 2, 4, 8] {
        let got = dc_sweep_with_threads(&c, 1, &xs, threads).expect("threaded sweep");
        assert_eq!(got.len(), want.len());
        for (i, (gp, wp)) in got.iter().zip(&want).enumerate() {
            assert_eq!(gp.len(), wp.len());
            for (j, (a, b)) in gp.iter().zip(wp).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "threads={threads}, point {i}, node {j}: {a:e} vs {b:e}"
                );
            }
        }
    }
}

/// FNV-1a over the little-endian bit patterns of `values`: a digest
/// that needs no second implementation to agree with.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a`] over every point's samples at `nodes`, in point order,
/// then node order.
fn batch_digest(results: &[Result<TransientResult, SolverError>], nodes: &[Node]) -> u64 {
    fnv1a(results.iter().flat_map(|r| {
        let r = r.as_ref().expect("point solves");
        nodes
            .iter()
            .flat_map(move |&n| r.waveform(n).samples().iter().copied())
    }))
}

/// Independent anchors for the batch outputs, captured from the
/// lockstep engine before it was cut down to the linear kernel, so they
/// hold whichever path solves each batch.
#[test]
fn batch_outputs_match_literals_captured_from_the_lockstep_engine() {
    let mask = 0b1011_0110;
    let (c, nodes, t_end, dt) = rc_fixture(2_200.0, 470e-15, mask);
    let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
    for (np, want) in [
        (1, 0xb633_b56e_4005_5969_u64),
        (7, 0xea16_efac_ac5a_c397),
        (32, 0xbee5_83b4_2bc3_a99a),
    ] {
        let out = Solver::new(&c).run_transient_batched(&rc_points(mask, np), &cfg);
        assert_eq!(batch_digest(out.results(), &nodes), want, "rc, {np} points");
    }
    let (c, nodes, load_index, t_end, dt) = chain_fixture(0b0110, 2.0);
    let cfg = TransientConfig::until(t_end).with_fixed_dt(dt);
    let out =
        Solver::new(&c).run_transient_batched(&chain_points(&c, load_index, nodes[1], 3), &cfg);
    assert_eq!(
        batch_digest(out.results(), &nodes),
        0xbb66_e508_1aef_5393,
        "chain"
    );

    let (c, xs) = dc_sweep_fixture();
    for threads in [1usize, 2, 4, 8] {
        let sweep = dc_sweep_with_threads(&c, 1, &xs, threads).expect("sweeps");
        assert_eq!(
            fnv1a(sweep.iter().flatten().copied()),
            0xbdb2_0486_bc1f_9c98,
            "dc sweep at {threads} workers"
        );
    }
}

/// The corner bias points and the corner sweep at tt/ss/ff, captured
/// while the corner sweep still solved its biases in one lockstep DC
/// batch.
#[test]
fn corner_outputs_match_literals_captured_from_the_batched_bias_pass() {
    let corners = [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()];
    let biases = [
        0x3fea_c27e_c3b1_0892_u64,
        0x3fe7_fda5_051f_ad83,
        0x3fed_7502_4e3d_be08,
    ];
    for (pvt, want) in corners.iter().zip(biases) {
        let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), *pvt);
        let bias = fe.self_bias().expect("solves").value();
        assert_eq!(bias.to_bits(), want, "{:?} self bias {bias}", pvt.corner);
    }
    let points = Sweep::new()
        .with_frames(4)
        .with_tolerance_db(1.0)
        .corner_sweep(&LinkConfig::paper_default())
        .expect("corners");
    // (max_loss_db, sensitivity) per corner, as `f64::to_bits`.
    let want = [
        (0x4040_e000_0000_0000_u64, 0x3fa0_54a0_458a_077f_u64),
        (0x403d_1000_0000_0000, 0x3fa9_dde2_3cf3_2284),
        (0x4042_4800_0000_0000, 0x3f9b_1196_6e20_8b1b),
    ];
    assert_eq!(points.len(), want.len());
    for ((p, pvt), (loss, sens)) in points.iter().zip(&corners).zip(want) {
        assert_eq!(p.pvt, *pvt);
        assert_eq!(p.max_loss_db.to_bits(), loss, "{:?} max loss", pvt.corner);
        assert_eq!(
            p.sensitivity.value().to_bits(),
            sens,
            "{:?} sensitivity",
            pvt.corner
        );
    }
}
