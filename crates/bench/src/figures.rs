//! Data-producing routines for every figure and table of the paper.
//!
//! Each `figNN_*` function computes the rows/series the corresponding
//! paper figure reports, and the `src/bin/` binaries print them.

use openserdes_analog::{EyeDiagram, Waveform};
use openserdes_core::{
    cost::{cost_model, CostPoint},
    oversample_bits, CdrConfig, Error, LinkBudget, LinkConfig, LinkReport, OversamplingCdr,
    PrbsGenerator, PrbsOrder, SweepPoint,
};
use openserdes_flow::{Flow, FlowConfig, FlowResult};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::{Hertz, Time, Volt};
use openserdes_phy::{
    DriverConfig, DriverWaveforms, FrontEndConfig, FrontEndWaveforms, RxFrontEnd, SmallSignal,
    TxDriver,
};

/// Fig. 2: relative chip cost, traditional vs open PDK, per node.
pub fn fig02_cost() -> Vec<CostPoint> {
    cost_model()
}

/// Fig. 4(b) data: driver input/output waveforms at 2 Gb/s into 2 pF.
pub struct Fig04 {
    /// The driver transient record.
    pub waves: DriverWaveforms,
    /// Measured output swing in volts.
    pub swing: f64,
    /// 20–80 % output rise time in ps.
    pub rise_time_ps: Option<f64>,
    /// Input-to-output propagation delay in ps (mid-rail, falling at the
    /// output since the chain inverts).
    pub delay_ps: Option<f64>,
}

/// Computes Fig. 4: the paper's 2 Gb/s / 2 pF driver demonstration.
///
/// # Errors
///
/// Propagates solver failures.
pub fn fig04_driver() -> Result<Fig04, openserdes_analog::SolverError> {
    let driver = TxDriver::new(DriverConfig::paper_default(), Pvt::nominal());
    let bits = [true, false, true, true, false, false, true, false];
    let waves = driver.drive(&bits, Time::from_ps(500.0))?;
    let swing = waves.output.amplitude();
    let rise_time_ps = waves.output.rise_time().map(|t| t * 1e12);
    let delay_ps = waves.input.crossings(0.9, true).first().and_then(|&t_in| {
        waves
            .output
            .crossings(0.9, false)
            .into_iter()
            .find(|&t| t >= t_in)
            .map(|t| (t - t_in) * 1e12)
    });
    Ok(Fig04 {
        waves,
        swing,
        rise_time_ps,
        delay_ps,
    })
}

/// Fig. 6 data: resistive-feedback inverter operating point and
/// small-signal behaviour.
pub struct Fig06 {
    /// The gain-stage VTC, `(vin, vout)` pairs.
    pub vtc: Vec<(f64, f64)>,
    /// The self-bias operating point.
    pub bias: Volt,
    /// Small-signal characterization at the bias.
    pub small_signal: SmallSignal,
    /// Transient of a 50 mV input (Fig. 6b).
    pub waves: FrontEndWaveforms,
}

/// Computes Fig. 6: operating point (a) and waveforms (b).
///
/// # Errors
///
/// Propagates solver failures.
pub fn fig06_frontend() -> Result<Fig06, openserdes_analog::SolverError> {
    let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), Pvt::nominal());
    let vtc = fe.vtc_with_threads(37, openserdes_analog::par::default_threads())?;
    let bias = fe.self_bias()?;
    let small_signal = fe.small_signal()?;
    let bits = [true, false, true, true, false, false, true, false];
    let input = Waveform::nrz(&bits, 1e-9, 50e-12, 0.875, 0.925, 128);
    let waves = fe.receive(&input)?;
    Ok(Fig06 {
        vtc,
        bias,
        small_signal,
        waves,
    })
}

/// Fig. 7 data: CDR behaviour per phase offset.
pub struct Fig07Row {
    /// The applied phase offset in UI fractions.
    pub offset_ui: f64,
    /// Phase the CDR settled on.
    pub selected_phase: usize,
    /// Whether lock was declared.
    pub locked: bool,
    /// Phase movements during the run.
    pub phase_updates: u64,
    /// Post-lock bit errors (best alignment in ±1 bit).
    pub errors: usize,
}

/// Computes Fig. 7: CDR lock behaviour across input phase offsets, with
/// glitch/jitter correction active.
pub fn fig07_cdr() -> Vec<Fig07Row> {
    let bits = PrbsGenerator::new(PrbsOrder::Prbs15).take_bits(3_000);
    [0.0, 0.2, 0.4, 0.6, 0.8]
        .iter()
        .map(|&offset| {
            let stream = oversample_bits(&bits, 5, offset, 0.02, 11);
            let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
            let out = cdr.recover(&stream);
            let skip = 4 * 32;
            let errors = [-1isize, 0, 1]
                .iter()
                .map(|&lag| {
                    out[skip..]
                        .iter()
                        .zip(&bits[(skip as isize + lag) as usize..])
                        .filter(|(a, b)| a != b)
                        .count()
                })
                .min()
                .expect("three lags");
            Fig07Row {
                offset_ui: offset,
                selected_phase: cdr.selected_phase(),
                locked: cdr.is_locked(),
                phase_updates: cdr.phase_updates(),
                errors,
            }
        })
        .collect()
}

/// Fig. 8 data: the full link at 2 Gb/s, PRBS-31, 34 dB loss.
pub struct Fig08 {
    /// Fast-path link report over many frames.
    pub report: LinkReport,
    /// Eye metrics at the receiver input (channel output) from a short
    /// analog transient.
    pub rx_eye: Option<EyeDiagram>,
    /// Analog waveform record of a short pattern (TX out, channel out,
    /// restored).
    pub tx_out: Waveform,
    /// The attenuated waveform reaching the receiver.
    pub rx_in: Waveform,
    /// The restored rail-to-rail output.
    pub restored: Waveform,
}

/// Computes Fig. 8: waveforms from a short transistor-level run plus a
/// statistically meaningful fast-path BER run.
///
/// # Errors
///
/// Propagates link failures.
pub fn fig08_link(frames: usize) -> Result<Fig08, Error> {
    let cfg = LinkConfig::paper_default();

    let stimulus = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(frames);
    let report = openserdes_core::link::run_frames(&cfg, &stimulus, 0xF168)?;

    // Short analog record for the waveform plot.
    let analog = openserdes_phy::AnalogLink::paper_default(cfg.pvt, cfg.channel.clone());
    let bits = PrbsGenerator::new(PrbsOrder::Prbs31).take_bits(24);
    let run = analog.transmit(&bits, Time::from_ps(500.0))?;
    let rx_eye = EyeDiagram::analyze(&run.channel_out, 500e-12, 2e-9, run.channel_out.mean());
    Ok(Fig08 {
        report,
        rx_eye,
        tx_out: run.tx.output,
        rx_in: run.channel_out,
        restored: run.rx.restored,
    })
}

/// Fig. 9: sensitivity and maximum loss vs data rate (model route).
///
/// # Errors
///
/// Propagates solver failures.
pub fn fig09_sensitivity() -> Result<Vec<SweepPoint>, Error> {
    let rates: Vec<Hertz> = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
        .iter()
        .map(|&g| Hertz::from_ghz(g))
        .collect();
    openserdes_core::Sweep::new().sensitivity(Pvt::nominal(), &rates)
}

/// Fig. 10: power budget and area breakdown.
///
/// # Errors
///
/// Propagates link failures.
pub fn fig10_budget() -> Result<LinkBudget, Error> {
    LinkBudget::compute(Pvt::nominal(), Hertz::from_ghz(2.0))
}

/// Fig. 11: per-block flow results (floorplans) for the layout view.
///
/// # Errors
///
/// Propagates synthesis failures.
pub fn fig11_floorplan() -> Result<Vec<(&'static str, FlowResult)>, Error> {
    let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(2.0));
    cfg.anneal_iterations = 5_000;
    let blocks: Vec<(&'static str, openserdes_flow::ir::Design)> = vec![
        ("serializer", openserdes_core::serializer_design()),
        ("deserializer", openserdes_core::deserializer_design()),
        ("cdr", openserdes_core::cdr_design(5)),
    ];
    blocks
        .into_iter()
        .map(|(name, design)| {
            Flow::new()
                .with_config(cfg.clone())
                .run(&design)
                .map(|r| (name, r))
                .map_err(Error::from)
        })
        .collect()
}

/// The §V headline numbers, paper vs measured.
pub struct HeadlineRow {
    /// Metric id (R1..R7 in DESIGN.md).
    pub id: &'static str,
    /// What the metric is.
    pub metric: &'static str,
    /// The paper's value, as printed in the text.
    pub paper: &'static str,
    /// Our measured value.
    pub measured: String,
}

/// Computes the headline table (R1–R7).
///
/// # Errors
///
/// Propagates link failures.
pub fn headline() -> Result<Vec<HeadlineRow>, Error> {
    let sweep = fig09_sensitivity()?;
    let at2g = sweep
        .iter()
        .find(|p| (p.data_rate.ghz() - 2.0).abs() < 1e-9)
        .expect("2 GHz in sweep");
    let budget = fig10_budget()?;
    let frames = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(40);
    let report = openserdes_core::link::run_frames(&LinkConfig::paper_default(), &frames, 0x4EAD)?;

    Ok(vec![
        HeadlineRow {
            id: "R1",
            metric: "data rate (PRBS-31, error-free)",
            paper: "2 Gb/s",
            measured: format!(
                "2 Gb/s ({} bits, {} errors)",
                report.bits, report.bit_errors
            ),
        },
        HeadlineRow {
            id: "R2",
            metric: "RX sensitivity @ 2 GHz",
            paper: "≈32 mV",
            measured: format!("{:.1} mV", at2g.sensitivity.mv()),
        },
        HeadlineRow {
            id: "R3",
            metric: "max channel loss @ 2 GHz",
            paper: "34 dB",
            measured: format!("{:.1} dB", at2g.max_loss_db),
        },
        HeadlineRow {
            id: "R4",
            metric: "link power (TX+RX)",
            paper: "15.7 mW (4.5 + 11.2)",
            measured: format!(
                "{:.1} mW ({:.1} + {:.1})",
                budget.link_power().mw(),
                budget.block("tx_driver").power.mw(),
                budget.block("rx_frontend").power.mw()
            ),
        },
        HeadlineRow {
            id: "R5",
            metric: "total power incl. SER/DES/CDR",
            paper: "437.7 mW (235/128/59)",
            measured: format!(
                "{:.1} mW ({:.1}/{:.1}/{:.1})",
                budget.total_power().mw(),
                budget.block("serializer").power.mw(),
                budget.block("deserializer").power.mw(),
                budget.block("cdr").power.mw()
            ),
        },
        HeadlineRow {
            id: "R6",
            metric: "energy efficiency",
            paper: "219 pJ/bit",
            measured: format!("{:.1} pJ/bit", budget.energy_per_bit().pj()),
        },
        HeadlineRow {
            id: "R7",
            metric: "area (deserializer share)",
            paper: "0.24 mm² (60 %)",
            measured: format!(
                "{:.4} mm² ({:.0} %)",
                budget.total_area().mm2(),
                budget.area_share_percent("deserializer")
            ),
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig02_has_six_nodes() {
        assert_eq!(fig02_cost().len(), 6);
    }

    #[test]
    fn fig04_swings_rail_to_rail() {
        let f = fig04_driver().expect("runs");
        assert!(f.swing > 1.7);
        assert!(f.rise_time_ps.expect("edge") < 350.0);
        assert!(f.delay_ps.expect("edge") > 0.0);
    }

    #[test]
    fn fig07_locks_everywhere() {
        for row in fig07_cdr() {
            assert!(row.locked, "offset {} must lock", row.offset_ui);
            assert!(
                row.errors <= 2,
                "offset {}: {} errors",
                row.offset_ui,
                row.errors
            );
        }
    }

    #[test]
    fn fig09_matches_paper_anchors() {
        let pts = fig09_sensitivity().expect("sweeps");
        assert_eq!(pts.len(), 6);
        let at2 = &pts[3];
        assert!((20.0..48.0).contains(&at2.sensitivity.mv()));
    }

    #[test]
    fn headline_rows_complete() {
        let rows = headline().expect("computes");
        assert_eq!(rows.len(), 7);
        assert!(rows.iter().all(|r| !r.measured.is_empty()));
    }
}
