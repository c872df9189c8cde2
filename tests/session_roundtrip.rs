//! The Session API contract: every `Session` method and the builder or
//! engine it fronts drive the *same engine*, so the outputs agree
//! exactly — the session adds an operating point and telemetry, never a
//! different result.

use openserdes::core::link::run_frames;
use openserdes::core::{cdr_design, LinkConfig, PrbsGenerator, PrbsOrder, Sweep, LANES};
use openserdes::flow::{Flow, FlowConfig};
use openserdes::pdk::corner::Pvt;
use openserdes::pdk::units::Hertz;
use openserdes::Session;

fn prbs_frames(count: usize) -> Vec<[u32; LANES]> {
    let mut g = PrbsGenerator::new(PrbsOrder::Prbs31);
    (0..count)
        .map(|_| {
            let mut f = [0u32; LANES];
            for w in f.iter_mut() {
                for b in 0..32 {
                    if g.next_bit() {
                        *w |= 1 << b;
                    }
                }
            }
            f
        })
        .collect()
}

#[test]
fn link_reports_are_identical() {
    let frames = prbs_frames(6);
    let direct = run_frames(&LinkConfig::paper_default(), &frames, 17).expect("engine runs");
    let via = Session::new()
        .with_seed(17)
        .run_link(&frames)
        .expect("session runs");
    assert_eq!(direct, via, "Session must reproduce the link engine");
}

#[test]
fn flow_results_are_identical() {
    let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(1.0));
    cfg.anneal_iterations = 1_000;
    let design = cdr_design(5);
    let direct = Flow::new()
        .with_config(cfg.clone())
        .run(&design)
        .expect("flow runs");
    let via = Session::new()
        .with_flow_config(cfg)
        .run_flow(&design)
        .expect("session runs");
    assert_eq!(direct.stats.cell_count, via.stats.cell_count);
    assert_eq!(direct.stats.flop_count, via.stats.flop_count);
    assert_eq!(
        direct.area().value().to_bits(),
        via.area().value().to_bits()
    );
    assert_eq!(
        direct.timing.fmax.value().to_bits(),
        via.timing.fmax.value().to_bits()
    );
    assert_eq!(
        direct.total_power().value().to_bits(),
        via.total_power().value().to_bits()
    );
    assert_eq!(direct.log, via.log, "stage logs must match line for line");
}

#[test]
fn lint_reports_are_identical() {
    let design = cdr_design(5);
    let direct = design.lint(&openserdes::lint::LintConfig::default());
    let via = Session::new().lint(&design);
    assert_eq!(direct.findings().len(), via.findings().len());
    for (a, b) in direct.findings().iter().zip(via.findings()) {
        assert_eq!(a.rule, b.rule);
        assert_eq!(a.message, b.message);
    }
}

#[test]
fn sweeps_are_identical() {
    let cfg = LinkConfig::paper_default();

    // Bathtub: Sweep builder vs Session.
    let via_builder = Sweep::new()
        .with_bits(2_000)
        .with_phases(8)
        .with_seed(5)
        .bathtub(&cfg)
        .expect("builder bathtub");
    let via_session = Session::new()
        .with_sweep(Sweep::new().with_bits(2_000).with_phases(8))
        .with_seed(5)
        .bathtub()
        .expect("session bathtub");
    assert_eq!(via_builder, via_session);

    // Loss bisection.
    let via_builder = Sweep::new()
        .with_frames(4)
        .with_tolerance_db(1.0)
        .max_loss(&cfg)
        .expect("builder bisect");
    let via_session = Session::new()
        .with_sweep(Sweep::new().with_frames(4).with_tolerance_db(1.0))
        .max_loss()
        .expect("session bisect");
    assert_eq!(via_builder.to_bits(), via_session.to_bits());

    // Sensitivity sweep.
    let rates = [Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)];
    let via_builder = Sweep::new()
        .sensitivity(Pvt::nominal(), &rates)
        .expect("builder sweep");
    let via_session = Session::new()
        .sensitivity_sweep(&rates)
        .expect("session sweep");
    assert_eq!(via_builder, via_session);
}
