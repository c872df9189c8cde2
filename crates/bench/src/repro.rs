//! The paper's results as checked data: the headline numbers (R1–R7),
//! the figure series (E1–E9) and the X1 bathtub, each computed once and
//! recorded with its unit, the paper's value and the band its verdict
//! rests on, in `BENCH_repro.json`.
//!
//! A band is an interval on one recorded scalar: the bound an existing
//! test asserts on that quantity, or the ordering EXPERIMENTS.md states,
//! recorded as a difference or a ratio. Descriptive numbers carry no
//! band. Values are written with fixed decimals per unit, so a last-ulp
//! libm difference between hosts does not change the file, and bands are
//! checked on the written value, so the run and `schemas/validate.py`
//! judge the same number. A band miss is a failure of the run.

use crate::report::{sparkline, table};
use crate::Report;
use openserdes_analog::{EyeDiagram, Waveform};
use openserdes_core::cost::cost_model;
use openserdes_core::{
    eye_width_at, oversample_bits, BathtubPoint, CdrConfig, Error, LinkBudget, LinkConfig,
    OversamplingCdr, PrbsGenerator, PrbsOrder, Sweep,
};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::{Hertz, Time};
use openserdes_phy::{AnalogLink, DriverConfig, FrontEndConfig, RxFrontEnd, TxDriver};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every result the file records, in file order, one per line:
/// `id | unit | paper value | band | band source | quantity`, with `-`
/// for none. A band is one or two limits, each `ge`, `gt`, `le` or `lt`
/// and its bound, as the file writes them. A `{a,b}` group in an id
/// stands for one result per alternative, which fills the `{}` of the
/// quantity.
const RESULTS: &str = "
R1.bit_errors | count | 0 | le 0 | core link::tests::paper_operating_point_error_free | bit errors, 40 PRBS-31 frames at 2 Gb/s over 34 dB
R1.cdr_locked | flag | 1 | ge 1 | core link::tests::paper_operating_point_error_free | CDR locked (1) or not (0) after those frames
R1.bits | count | - | gt 9000 | core link::tests::paper_operating_point_error_free | bits compared in those frames
R1.frames | count | - | - | - | frames sent
R2.sensitivity | mV | 32 | ge 20, lt 48 | core sweep::tests::fig9_shapes_hold | RX sensitivity at 2 GHz, front-end model
R3.max_loss_model | dB | 34 | ge 30, lt 40 | core sweep::tests::fig9_shapes_hold | max channel loss at 2 GHz, front-end model
R3.max_loss_bisected | dB | 34 | ge 30 | core sweep::tests::bisected_loss_agrees_with_model | max channel loss at 2 GHz, zero-BER bisection on the full link
R3.bisected_minus_model | dB | - | gt -4, lt 4 | core sweep::tests::bisected_loss_agrees_with_model | bisected minus model max loss at 2 GHz
R4.tx_power | mW | 4.5 | - | - | TX driver power at 2 GHz
R4.rx_power | mW | 11.2 | - | - | RX front-end power at 2 GHz
R4.link_power | mW | 15.7 | - | - | link power (TX + RX) at 2 GHz
R4.rx_minus_tx_power | mW | 6.7 | gt 0 | EXPERIMENTS.md R4: RX > TX | RX minus TX power
R5.serializer_power | mW | 235 | - | - | serializer power at 2 GHz
R5.deserializer_power | mW | 128 | - | - | deserializer power at 2 GHz
R5.cdr_power | mW | 59 | - | - | CDR power at 2 GHz
R5.total_power | mW | 437.7 | - | - | total power incl. SER/DES/CDR at 2 GHz
R5.ser_minus_des_power | mW | 107 | ge 0 | EXPERIMENTS.md R5: SER >= DES | serializer minus deserializer power
R5.des_minus_cdr_power | mW | 69 | gt 0 | core budget::tests::cdr_is_the_cheapest_digital_block | deserializer minus CDR power
R5.digital_over_link_power | ratio | 26.879 | gt 2 | core budget::tests::serdes_blocks_dwarf_link_power | (SER + DES + CDR) power / link power
R5.cdr_over_link_power | ratio | 3.758 | - | - | CDR power / link power (the paper's CDR >> link does not reproduce)
R6.energy_per_bit | pJ/bit | 219 | gt 0.5 | core budget::tests::energy_per_bit_consistent | energy efficiency at 2 Gb/s
R6.energy_minus_power_over_rate | pJ/bit | 0.15 | gt -0.000000001, lt 0.000000001 | core budget::tests::energy_per_bit_consistent | energy per bit minus total power / 2 Gb/s
R7.total_area | µm² | 240000 | - | - | total area
R7.deserializer_area_share | % | 60 | gt 40 | core budget::tests::deserializer_dominates_area | deserializer share of the total area
R7.tx_driver_area_share | % | 0.2 | lt 5 | core budget::tests::deserializer_dominates_area | TX driver share of the total area
R7.rx_frontend_area_share | % | 1.1 | lt 8 | core budget::tests::deserializer_dominates_area | RX front-end share of the total area
R7.{serializer,cdr}_area_share | % | - | - | - | {} share of the total area
E1.nodes | count | - | ge 6, le 6 | core cost::tests::the_chart_has_six_nodes | process nodes in the cost chart
E1.{180,130,90,65,40,28}nm.fabrication | x 130 nm fab | - | - | - | fabrication cost at {} nm
E1.{180,130,90,65,40,28}nm.licensing | x 130 nm fab | - | - | - | PDK licensing cost at {} nm
E1.{180,130,90,65,40,28}nm.traditional | x 130 nm fab | - | - | - | traditional-PDK cost at {} nm
E1.traditional_min_step | x 130 nm fab | - | gt 0 | core cost::tests::advanced_nodes_cost_more | smallest traditional-cost rise to the next finer node
E1.130nm.open_pdk | x 130 nm fab | - | - | - | open-PDK cost at 130 nm
E1.130nm.open_pdk_saving | % | - | ge 25, lt 45 | core cost::tests::open_pdk_saves_the_license_share | open-PDK saving at 130 nm
E1.{180,90,65,40,28}nm.open_pdk_saving | % | - | - | - | open-PDK saving at {} nm (no open PDK)
E2.swing | V | 1.8 | gt 1.7 | phy driver::tests::rail_to_rail_at_2gbps_into_2pf | driver output swing into 2 pF at 2 Gb/s
E2.rise_time | ps | - | lt 350 | phy driver::tests::output_edges_fit_in_a_ui | driver 20-80 % output rise time
E2.delay | ps | - | gt 0 | phy driver::tests::mid_rail_delay_is_positive | driver mid-rail propagation delay
E3.self_bias | V | 0.9 | ge 0.7, lt 1.1 | phy frontend::tests::self_bias_near_half_vdd | front-end self-bias point
E3.dc_gain | V/V | - | gt 10 | phy frontend::tests::small_signal_gain_is_high | gain-stage DC gain at the bias
E3.pole | MHz | - | gt 50 | phy frontend::tests::small_signal_gain_is_high | gain-stage dominant pole
E3.vtc@0.00V | V | - | gt 1.7 | phy frontend::tests::vtc_is_an_inverter_curve | gain-stage VTC output at vin = 0.00 V
E3.vtc@{0.20,0.40,0.60,0.80,1.00,1.20,1.40,1.60}V | V | - | - | - | gain-stage VTC output at vin = {} V
E3.vtc@1.80V | V | - | lt 0.1 | phy frontend::tests::vtc_is_an_inverter_curve | gain-stage VTC output at vin = 1.80 V
E3.vtc_max_step | mV | - | le 0.001 | phy frontend::tests::vtc_is_an_inverter_curve | largest VTC output change between adjacent inputs (never rises)
E4.rx_swing | mV | 36 | - | - | received swing after the 34 dB channel, 24-bit transient
E4.eye_height | mV | - | gt 0 | EXPERIMENTS.md E4: the receiver-input eye is open | receiver-input eye height
E4.eye_width | ps | - | gt 0 | EXPERIMENTS.md E4: the receiver-input eye is open | receiver-input eye width
E5.sensitivity@{0.5,1,1.5,2.5,3}GHz | mV | - | - | - | RX sensitivity at {} GHz, front-end model
E5.max_loss_model@{0.5,1,1.5,2.5,3}GHz | dB | - | - | - | max channel loss at {} GHz, front-end model
E5.sensitivity_min_step | mV | - | gt 0 | core sweep::tests::fig9_shapes_hold | smallest sensitivity rise between adjacent rates
E5.max_loss_max_step | dB | - | lt 0 | core sweep::tests::fig9_shapes_hold | largest max-loss change between adjacent rates
E5.max_loss_bisected@{1,3}GHz | dB | - | - | - | max channel loss at {} GHz, zero-BER bisection on the full link
E6.{tx_driver,rx_frontend,serializer,deserializer,cdr}_area | µm² | - | - | - | {} area
E7.{serializer,deserializer,cdr}.cells | count | - | - | - | {} cells
E7.{serializer,deserializer,cdr}.flops | count | - | - | - | {} flops
E7.{serializer,deserializer,cdr}.die_width | µm | - | - | - | {} die width
E7.{serializer,deserializer,cdr}.die_height | µm | - | - | - | {} die height
E7.{serializer,deserializer,cdr}.digital_area_share | % | - | - | - | {} share of the three digital blocks' area
E7.{serializer,deserializer,cdr}.wirelength | mm | - | - | - | {} routed wirelength
E7.{serializer,deserializer,cdr}.fmax | GHz | - | - | - | {} STA fmax
E9.locked@{0.0,0.2,0.4,0.6,0.8}UI | flag | - | ge 1 | core cdr::tests::locks_at_every_offset_under_jitter | CDR locked (1) or not (0), PRBS-15 at a {} UI offset
E9.errors@{0.0,0.2,0.4,0.6,0.8}UI | count | - | le 2 | core cdr::tests::locks_at_every_offset_under_jitter | post-lock bit errors at a {} UI offset
E9.phase@{0.0,0.2,0.4,0.6,0.8}UI | index | - | - | - | phase picked at a {} UI offset
E9.phase_updates@{0.0,0.2,0.4,0.6,0.8}UI | count | - | - | - | phase updates at a {} UI offset
X1.bits | count | - | - | - | bits scored per bathtub phase, PRBS-31 at 2 Gb/s over 34 dB
X1.errors@{0.021,0.062,0.104,0.146,0.188,0.229,0.271,0.312,0.354,0.396,0.438,0.479,0.521,0.562,0.604,0.646,0.688,0.729,0.771,0.812,0.854,0.896,0.938,0.979}UI | count | - | - | - | bit errors sampled at phase {} UI
X1.eye_width | UI | - | - | - | horizontal eye width at BER 1e-3
";

/// The decimals every value in `unit` is written with.
fn decimals(unit: &str) -> usize {
    match unit {
        "count" | "flag" | "index" => 0,
        "µm" | "µm²" | "MHz" => 1,
        "ps" | "V/V" => 2,
        "V" | "GHz" => 4,
        _ => 3,
    }
}

/// `value` as written in `unit`: fixed decimals, no negative zero, and
/// `null` for a value that could not be measured.
pub fn format(value: f64, unit: &str) -> String {
    if !value.is_finite() {
        return "null".into();
    }
    let text = format!("{value:.*}", decimals(unit));
    match text.strip_prefix('-') {
        Some(magnitude) if magnitude.bytes().all(|b| b == b'0' || b == b'.') => magnitude.into(),
        _ => text,
    }
}

/// An interval on one recorded scalar, with the check it comes from.
#[derive(Debug, Clone, PartialEq)]
pub struct Band {
    /// Each limit: `ge`, `gt`, `le` or `lt`, and its bound.
    pub limits: Vec<(&'static str, f64)>,
    /// The test or EXPERIMENTS.md verdict the bound comes from.
    pub source: &'static str,
}

impl Band {
    /// Whether `value` lies in the band (never for NaN).
    fn holds(&self, value: f64) -> bool {
        self.limits.iter().all(|&(op, bound)| match op {
            "ge" => value >= bound,
            "gt" => value > bound,
            "le" => value <= bound,
            _ => value < bound,
        })
    }

    /// Each limit as `limit(op, bound)` writes it, joined by commas.
    fn join(&self, limit: impl Fn(&str, f64) -> String) -> String {
        let limits: Vec<String> = self.limits.iter().map(|&(op, b)| limit(op, b)).collect();
        limits.join(", ")
    }
}

/// One recorded result.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Result id: the paper result (R1–R7, E1–E9), a dot, the quantity.
    pub id: String,
    /// What was measured, and where.
    pub quantity: String,
    /// The unit, which fixes the written decimals.
    pub unit: &'static str,
    /// The paper's value, where it states one.
    pub paper: Option<f64>,
    /// This reproduction's value (NaN when it could not be measured).
    pub measured: f64,
    /// The band the verdict rests on; `None` for descriptive numbers.
    pub band: Option<Band>,
}

impl Entry {
    /// Whether the written value lies outside its band.
    fn misses(&self) -> bool {
        let written = format(self.measured, self.unit).parse().unwrap_or(f64::NAN);
        self.band.as_ref().is_some_and(|b| !b.holds(written))
    }

    /// The band's limits as `ge 20, lt 48`, or `-`.
    pub fn band_text(&self) -> String {
        let text = |b: &Band| b.join(|op, bound| format!("{op} {bound}"));
        self.band.as_ref().map_or("-".into(), text)
    }

    /// The entry's row of the results table.
    fn row(&self) -> Vec<String> {
        let paper = self.paper.map_or("-".into(), |p| format(p, self.unit));
        let measured = format(self.measured, self.unit);
        let miss = if self.misses() { "MISS" } else { "" };
        let head = [self.id.clone(), self.quantity.clone(), paper, measured];
        let tail = [self.unit.into(), self.band_text(), miss.into()];
        head.into_iter().chain(tail).collect()
    }
}

/// Every recorded result, the transients the Fig. 4(b), 6(b) and 8
/// oscillograms show and the X1 bathtub curve.
#[derive(Debug, Clone)]
pub struct Repro {
    /// The results, in file order.
    pub entries: Vec<Entry>,
    /// Each oscillogram's title, waveform and height in rows.
    transients: Vec<(&'static str, Waveform, usize)>,
    /// The X1 bathtub, one point per sampling phase.
    bathtub: Vec<BathtubPoint>,
}

/// PRBS-31 bits the X1 bathtub runs at each phase.
const BATHTUB_BITS: usize = 100_000;

impl Repro {
    /// Computes every result at the paper's operating point (tt, 1.8 V,
    /// 25 °C; 2 Gb/s over 34 dB; PRBS-31). `threads` workers run the
    /// loss bisections, the VTC and the bathtub; the results do not
    /// depend on it.
    ///
    /// # Errors
    ///
    /// Propagates solver, link and flow failures.
    pub fn compute(threads: usize) -> Result<Self, Error> {
        let mut m = BTreeMap::new();
        let mut set = |id: &str, value: f64| assert!(m.insert(id.to_owned(), value).is_none());
        let flag = |on: bool| f64::from(u8::from(on));
        let pvt = Pvt::nominal();
        let cfg = LinkConfig::paper_default();

        // R1 / E4: the Fig. 8 link, fast path for the bits and the
        // transistor-level path for the waveforms and the eye.
        let frames = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(40);
        let report = openserdes_core::link::run_frames(&cfg, &frames, 0xF168)?;
        set("R1.bit_errors", report.bit_errors as f64);
        set("R1.cdr_locked", flag(report.cdr_locked));
        set("R1.bits", report.bits as f64);
        set("R1.frames", report.frames_sent as f64);
        let analog = AnalogLink::paper_default(cfg.pvt, cfg.channel.clone());
        let bits = PrbsGenerator::new(PrbsOrder::Prbs31).take_bits(24);
        let link = analog.transmit(&bits, Time::from_ps(500.0))?;
        let rx_in = &link.channel_out;
        let eye = EyeDiagram::analyze(rx_in, 500e-12, 2e-9, rx_in.mean());
        let (height, width) = eye.map_or((f64::NAN, f64::NAN), |e| (e.height, e.width));
        set("E4.rx_swing", rx_in.amplitude() * 1e3);
        set("E4.eye_height", height * 1e3);
        set("E4.eye_width", width * 1e12);

        // R2 / R3 / E5: Fig. 9, the model route at six rates and the
        // zero-BER bisection on the full link at three.
        let rates = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0].map(Hertz::from_ghz);
        let model = Sweep::new().sensitivity(pvt, &rates)?;
        let sweep = Sweep::new().with_threads(threads);
        let bisected = sweep.rate_sweep(&cfg, &[1.0, 2.0, 3.0].map(Hertz::from_ghz))?;
        for p in &model {
            let (g, mv, db) = (p.data_rate.ghz(), p.sensitivity.mv(), p.max_loss_db);
            if g == 2.0 {
                set("R2.sensitivity", mv);
                set("R3.max_loss_model", db);
            } else {
                set(&format!("E5.sensitivity@{g}GHz"), mv);
                set(&format!("E5.max_loss_model@{g}GHz"), db);
            }
        }
        let steps = |f: fn(&openserdes_core::SweepPoint) -> f64| {
            model.windows(2).map(move |w| f(&w[1]) - f(&w[0]))
        };
        let rise = steps(|p| p.sensitivity.mv()).fold(f64::INFINITY, f64::min);
        set("E5.sensitivity_min_step", rise);
        let fall = steps(|p| p.max_loss_db).fold(f64::NEG_INFINITY, f64::max);
        set("E5.max_loss_max_step", fall);
        for p in &bisected {
            let (g, db) = (p.data_rate.ghz(), p.max_loss_db);
            if g == 2.0 {
                set("R3.max_loss_bisected", db);
                set("R3.bisected_minus_model", db - model[3].max_loss_db);
            } else {
                set(&format!("E5.max_loss_bisected@{g}GHz"), db);
            }
        }

        // R4–R7 / E6: the Fig. 10 power and area budget at 2 GHz.
        let budget = LinkBudget::compute(pvt, Hertz::from_ghz(2.0))?;
        let mw = |name: &str| budget.block(name).power.mw();
        let (tx, rx, link_mw) = (mw("tx_driver"), mw("rx_frontend"), budget.link_power().mw());
        let (ser, des, cdr) = (mw("serializer"), mw("deserializer"), mw("cdr"));
        let (total, pj) = (budget.total_power().mw(), budget.energy_per_bit().pj());
        for (id, value) in [
            ("R4.tx_power", tx),
            ("R4.rx_power", rx),
            ("R4.link_power", link_mw),
            ("R4.rx_minus_tx_power", rx - tx),
            ("R5.serializer_power", ser),
            ("R5.deserializer_power", des),
            ("R5.cdr_power", cdr),
            ("R5.total_power", total),
            ("R5.ser_minus_des_power", ser - des),
            ("R5.des_minus_cdr_power", des - cdr),
            ("R5.digital_over_link_power", (ser + des + cdr) / link_mw),
            ("R5.cdr_over_link_power", cdr / link_mw),
            ("R6.energy_per_bit", pj),
            ("R6.energy_minus_power_over_rate", pj - total / 2.0),
            ("R7.total_area", budget.total_area().value()),
        ] {
            set(id, value);
        }
        for b in &budget.blocks {
            let share = budget.area_share_percent(b.name);
            set(&format!("R7.{}_area_share", b.name), share);
            set(&format!("E6.{}_area", b.name), b.area.value());
        }

        // E7: Fig. 11, the digital blocks' layouts, from the budget's
        // flows (the flow's activity sets only their power).
        let layouts: Vec<_> = budget
            .blocks
            .iter()
            .filter_map(|b| Some((b.name, b.flow.as_ref()?)))
            .collect();
        let digital: f64 = layouts.iter().map(|(_, r)| r.area().value()).sum();
        for (name, r) in &layouts {
            let at = |key: &str| format!("E7.{name}.{key}");
            set(&at("cells"), r.stats.cell_count as f64);
            set(&at("flops"), r.stats.flop_count as f64);
            set(&at("die_width"), r.floorplan.width.value());
            set(&at("die_height"), r.floorplan.height.value());
            let share = 100.0 * r.area().value() / digital;
            set(&at("digital_area_share"), share);
            set(&at("wirelength"), r.route.total_length.value() / 1000.0);
            set(&at("fmax"), r.timing.fmax.ghz());
        }

        // E1: Fig. 2, relative chip cost per node.
        let nodes = cost_model();
        set("E1.nodes", nodes.len() as f64);
        for p in &nodes {
            let at = |key: &str| format!("E1.{}nm.{key}", p.node_nm);
            set(&at("fabrication"), p.fabrication);
            set(&at("licensing"), p.licensing);
            set(&at("traditional"), p.traditional());
            if let Some(open) = p.open_pdk() {
                set(&at("open_pdk"), open);
            }
            set(&at("open_pdk_saving"), p.saving_percent());
        }
        let costs: Vec<f64> = nodes.iter().map(|p| p.traditional()).collect();
        let rises = costs.windows(2).map(|w| w[1] - w[0]);
        let min_rise = rises.fold(f64::INFINITY, f64::min);
        set("E1.traditional_min_step", min_rise);

        // E2: Fig. 4(b), the driver at 2 Gb/s into 2 pF.
        let driver = TxDriver::new(DriverConfig::paper_default(), pvt);
        let pattern = [true, false, true, true, false, false, true, false];
        let driven = driver.drive(&pattern, Time::from_ps(500.0))?;
        let (input, output) = (&driven.input, &driven.output);
        let delay = input.crossings(0.9, true).first().and_then(|&t_in| {
            let falls = output.crossings(0.9, false);
            falls.into_iter().find(|&t| t >= t_in).map(|t| t - t_in)
        });
        let rise = output.rise_time().unwrap_or(f64::NAN);
        set("E2.swing", output.amplitude());
        set("E2.rise_time", rise * 1e12);
        set("E2.delay", delay.unwrap_or(f64::NAN) * 1e12);

        // E3: Fig. 6, the resistive-feedback front end.
        let fe = RxFrontEnd::new(FrontEndConfig::paper_default(), pvt);
        let vtc = fe.vtc_with_threads(37, threads)?;
        let small = fe.small_signal()?;
        let step_input = Waveform::nrz(&pattern, 1e-9, 50e-12, 0.875, 0.925, 128);
        let received = fe.receive(&step_input)?;
        set("E3.self_bias", small.bias.value());
        set("E3.dc_gain", small.gain);
        set("E3.pole", small.pole.mhz());
        for &(vin, vout) in vtc.iter().step_by(4) {
            set(&format!("E3.vtc@{vin:.2}V"), vout);
        }
        let vtc_steps = vtc.windows(2).map(|w| (w[1].1 - w[0].1) * 1e3);
        let max_step = vtc_steps.fold(f64::NEG_INFINITY, f64::max);
        set("E3.vtc_max_step", max_step);

        // E9: Fig. 7, CDR lock across input phase offsets, with the
        // glitch filter and hysteresis on.
        let prbs15 = PrbsGenerator::new(PrbsOrder::Prbs15).take_bits(3_000);
        for offset in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let mut cdr = OversamplingCdr::new(CdrConfig::paper_default());
            let recovered = cdr.recover(&oversample_bits(&prbs15, 5, offset, 0.02, 11));
            // Post-lock errors at the best alignment within ±1 bit.
            let skip = 4 * 32;
            let errors_at = |lag: usize| {
                let sent = &prbs15[skip + lag - 1..];
                let pairs = recovered[skip..].iter().zip(sent);
                pairs.filter(|(a, b)| a != b).count()
            };
            let errors = (0..3).map(errors_at).min().expect("three lags");
            let at = |key: &str| format!("E9.{key}@{offset:.1}UI");
            set(&at("locked"), flag(cdr.is_locked()));
            set(&at("errors"), errors as f64);
            set(&at("phase"), cdr.selected_phase() as f64);
            set(&at("phase_updates"), cdr.phase_updates() as f64);
        }

        // X1: the BER bathtub across 24 sampling phases.
        let bathtub = Sweep::new()
            .with_bits(BATHTUB_BITS)
            .with_phases(24)
            .with_seed(11)
            .with_threads(threads)
            .bathtub(&cfg)?;
        // A bathtub scores bits 1..n against their predecessors.
        let scored = (BATHTUB_BITS - 1) as f64;
        set("X1.bits", scored);
        for p in &bathtub {
            let errors = (p.ber * scored).round();
            set(&format!("X1.errors@{:.3}UI", p.phase_ui), errors);
        }
        set("X1.eye_width", eye_width_at(&bathtub, 1e-3));

        let lines = RESULTS.trim().lines();
        let entries = lines.flat_map(|line| entries(line, &mut m)).collect();
        assert!(m.is_empty(), "measured but not in RESULTS: {:?}", m.keys());
        let transients = vec![
            ("Fig. 4(b) driver input", driven.input, 8),
            ("Fig. 4(b) driver output into 2 pF", driven.output, 8),
            ("Fig. 6(b) front-end input, 50 mV", received.input, 6),
            ("Fig. 6(b) gain-stage output", received.amplified, 6),
            ("Fig. 6(b) restored output", received.restored, 6),
            ("Fig. 8 TX output", link.tx.output, 6),
            ("Fig. 8 received after 34 dB", link.channel_out, 6),
            ("Fig. 8 restored at the sampler", link.rx.restored, 6),
        ];
        Ok(Self {
            entries,
            transients,
            bathtub,
        })
    }

    /// The entries whose written value lies outside their band.
    pub fn misses(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(|e| e.misses())
    }

    /// `BENCH_repro.json`: one result per line, numbers at their unit's
    /// fixed decimals, band limits as given.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n  \"schema\": \"openserdes-bench-repro/1\",\n");
        json.push_str("  \"results\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let band = e.band.as_ref();
            let _ = writeln!(
                json,
                "    {{ \"id\": \"{}\", \"quantity\": \"{}\", \"unit\": \"{}\", \"paper\": {}, \"measured\": {}, \"band\": {}, \"band_source\": {} }}{}",
                e.id,
                e.quantity,
                e.unit,
                e.paper.map_or("null".into(), |p| format(p, e.unit)),
                format(e.measured, e.unit),
                band.map_or("null".into(), |b| format!("{{ {} }}", b.join(json_limit))),
                band.map_or("null".into(), |b| format!("\"{}\"", b.source)),
                if i + 1 < self.entries.len() { "," } else { "" },
            );
        }
        json + "  ]\n}\n"
    }

    /// The results table: id, quantity, paper, measured, unit, band.
    fn table(&self) -> String {
        let rows: Vec<Vec<String>> = self.entries.iter().map(Entry::row).collect();
        table(
            &["id", "quantity", "paper", "measured", "unit", "band", ""],
            &rows,
        )
    }

    /// The Fig. 4(b), 6(b) and 8 oscillograms.
    fn oscillograms(&self) -> String {
        let mut out = String::new();
        for (title, wave, rows) in &self.transients {
            let _ = writeln!(out, "{title}:\n{}", sparkline(wave, *rows, 72));
        }
        out
    }

    /// The X1 bathtub's table of BER by phase.
    fn bathtub(&self) -> String {
        let row = |p: &BathtubPoint| {
            let ber = if p.ber > 0.0 {
                format!("{:.2e}", p.ber)
            } else {
                "<1e-5".into()
            };
            vec![format!("{:.3}", p.phase_ui), ber]
        };
        let rows: Vec<Vec<String>> = self.bathtub.iter().map(row).collect();
        table(&["phase (UI)", "BER"], &rows)
    }
}

/// Computes every result with `threads` workers into
/// `BENCH_repro.json`, and prints the oscillograms, the results table
/// and the X1 bathtub.
///
/// # Errors
///
/// Propagates solver, link and flow failures.
pub fn report(threads: usize) -> Result<Report, Error> {
    let repro = Repro::compute(threads)?;
    let mut text = String::new();
    let _ = writeln!(text, "{}", repro.oscillograms());
    let _ = writeln!(text, "OpenSerDes results — paper vs this reproduction\n");
    let _ = writeln!(text, "{}", repro.table());
    let cfg = LinkConfig::paper_default();
    let _ = writeln!(
        text,
        "BER bathtub @ {:.1} Gb/s / {:.0} dB (PRBS-31, 100k bits per phase, {threads} worker(s))\n",
        cfg.data_rate.ghz(),
        cfg.channel.attenuation_db,
    );
    let _ = writeln!(text, "{}", repro.bathtub());
    let eye = eye_width_at(&repro.bathtub, 1e-3);
    let _ = writeln!(text, "horizontal eye at BER 1e-3: {eye:.2} UI\n");
    let failures: Vec<String> = (repro.misses())
        .map(|e| {
            let value = format(e.measured, e.unit);
            let source = e.band.as_ref().map_or("", |b| b.source);
            let band = e.band_text();
            format!(
                "band miss: {} = {value} {} outside {band} ({source})",
                e.id, e.unit
            )
        })
        .collect();
    let banded = repro.entries.iter().filter(|e| e.band.is_some()).count();
    let (results, misses) = (repro.entries.len(), failures.len());
    let _ = writeln!(
        text,
        "{results} results, {banded} banded, {misses} band miss(es): BENCH_repro.json"
    );
    Ok(Report {
        file: "BENCH_repro.json",
        json: repro.to_json(),
        text,
        failures,
    })
}

/// A band limit as the file writes it: `"ge": 20`.
fn json_limit(op: &str, bound: f64) -> String {
    format!("\"{op}\": {bound}")
}

/// The entries a `RESULTS` line describes, taking their values out of
/// `measured`.
fn entries(line: &'static str, measured: &mut BTreeMap<String, f64>) -> Vec<Entry> {
    let cols: Vec<&'static str> = line.split(" | ").collect();
    let [id, unit, paper, band, source, quantity] = cols[..] else {
        panic!("RESULTS line needs six columns: {line}");
    };
    assert!(!line.contains(['"', '\\']), "{id}: needs no JSON escaping");
    let number = |text: &str| text.parse::<f64>().expect("RESULTS holds numbers");
    let limit = |limit: &'static str| match limit.split_once(' ') {
        Some((op @ ("ge" | "gt" | "le" | "lt"), bound)) => (op, number(bound)),
        _ => panic!("{id}: bad band limit {limit:?}"),
    };
    let band = (band != "-").then(|| Band {
        limits: band.split(", ").map(limit).collect(),
        source,
    });
    let expanded: Vec<(String, String)> = match id.split_once('{') {
        None => vec![(id.into(), quantity.into())],
        Some((head, rest)) => {
            let (group, tail) = rest.split_once('}').expect("a closed group");
            let one = |alt| (format!("{head}{alt}{tail}"), quantity.replace("{}", alt));
            group.split(',').map(one).collect()
        }
    };
    let entry = |(id, quantity): (String, String)| Entry {
        measured: measured
            .remove(&id)
            .unwrap_or_else(|| panic!("{id} was not measured")),
        id,
        quantity,
        unit,
        paper: (paper != "-").then(|| number(paper)),
        band: band.clone(),
    };
    expanded.into_iter().map(entry).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The one-worker computation, shared by the tests below, with the
    /// number of flows it ran.
    fn at_one_worker() -> &'static (Repro, u64) {
        static AT_ONE: OnceLock<(Repro, u64)> = OnceLock::new();
        AT_ONE.get_or_init(|| {
            let _on = openserdes_telemetry::enable_scope();
            let (repro, record) = openserdes_telemetry::collect(|| Repro::compute(1));
            let flows = record.span("flow.run").map_or(0, |s| s.count);
            (repro.expect("computes"), flows)
        })
    }

    #[test]
    fn every_band_holds_and_every_headline_result_has_one() {
        let (repro, _) = at_one_worker();
        let misses: Vec<String> = repro
            .misses()
            .map(|e| format!("{} = {}", e.id, format(e.measured, e.unit)))
            .collect();
        assert!(misses.is_empty(), "band misses: {misses:?}");
        for r in 1..=7 {
            let prefix = format!("R{r}.");
            assert!(
                repro
                    .entries
                    .iter()
                    .any(|e| e.id.starts_with(&prefix) && e.band.is_some()),
                "R{r} has no banded entry"
            );
        }
        let mut ids: Vec<&str> = repro.entries.iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), repro.entries.len(), "ids are unique");
    }

    #[test]
    fn the_file_does_not_depend_on_the_worker_count() {
        let four = Repro::compute(4).expect("computes");
        let one = at_one_worker().0.to_json();
        assert_eq!(four.to_json(), one);
        let committed = include_str!("../../../BENCH_repro.json");
        assert!(one == committed, "BENCH_repro.json is stale: run `reports`");
    }

    #[test]
    fn the_layouts_are_the_budgets_flows() {
        // The budget runs the serializer, deserializer and CDR flows,
        // and E7 reads those: no flow runs twice.
        assert_eq!(at_one_worker().1, 3);
    }

    #[test]
    fn every_band_source_names_a_live_test() {
        // `<crate> <module path>::tests::<fn>` names a test in
        // crates/<crate>/src/<module path>.rs.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for line in RESULTS.trim().lines() {
            let source = line.split(" | ").nth(4).expect("six columns");
            if source == "-" || source.starts_with("EXPERIMENTS.md ") {
                continue;
            }
            let test = source.split_once(' ').and_then(|(krate, path)| {
                let (module, name) = path.split_once("::tests::")?;
                let file = format!("{root}/crates/{krate}/src/{}.rs", module.replace("::", "/"));
                Some((file, name))
            });
            let (file, name) = test.unwrap_or_else(|| panic!("not a test path: {source}"));
            let code = std::fs::read_to_string(&file).unwrap_or_default();
            assert!(
                code.contains(&format!("fn {name}(")),
                "{source}: no such test"
            );
        }
    }

    #[test]
    fn values_are_written_at_fixed_decimals_without_negative_zero() {
        assert_eq!(format(31.85749, "mV"), "31.857");
        assert_eq!(format(-0.0004, "mV"), "0.000");
        assert_eq!(format(-0.0006, "mV"), "-0.001");
        assert_eq!(format(10_173.0, "count"), "10173");
        assert_eq!(format(f64::NAN, "V"), "null");
    }

    #[test]
    fn bands_check_every_limit_and_refuse_nan() {
        let band = Band {
            limits: vec![("ge", 20.0), ("lt", 48.0)],
            source: "test",
        };
        assert!(band.holds(20.0) && band.holds(47.9));
        assert!(!band.holds(48.0) && !band.holds(19.9) && !band.holds(f64::NAN));
        let entry = |measured| Entry {
            id: "test".into(),
            quantity: "test".into(),
            unit: "mV",
            paper: None,
            measured,
            band: Some(band.clone()),
        };
        assert_eq!(entry(0.0).band_text(), "ge 20, lt 48");
        assert!(entry(47.9996).misses(), "checked as written: 48.000");
        assert!(!entry(47.9994).misses());
        assert!(entry(f64::NAN).misses());
    }
}
