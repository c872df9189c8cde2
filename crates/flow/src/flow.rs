//! The end-to-end RTL→layout flow driver, mirroring OpenLANE's stages
//! (the paper's Fig. 12): synthesis → floorplan → placement → CTS →
//! routing → STA → power signoff.
//!
//! [`Flow::run`] takes a [`Design`] and produces a [`FlowResult`]
//! carrying every intermediate artifact plus a stage log, so callers
//! can reproduce the paper's area/power breakdowns (Figs. 10–11) block
//! by block.

use crate::error::FlowError;
use crate::floorplan::Floorplan;
use crate::ir::Design;
use crate::place::{anneal, place_greedy, AnnealStats, Placement};
use crate::power::{analyze_power, PowerConfig, PowerReport};
use crate::route::{global_route, RouteResult};
use crate::sta::{Sta, StaConfig, StaReport, TimingGraph};
use crate::synth::{synthesize, SynthResult};
use openserdes_lint::LintConfig;
use openserdes_netlist::NetlistStats;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
use openserdes_pdk::units::{AreaUm2, Hertz, Watt};
use openserdes_telemetry as telemetry;
use std::fmt;

/// Flow configuration knobs (the `config.tcl` of our OpenLANE stand-in).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// PVT point to characterize the library at.
    pub pvt: Pvt,
    /// Target clock frequency.
    pub clock: Hertz,
    /// Placement utilization target.
    pub utilization: f64,
    /// Die aspect ratio (width/height).
    pub aspect: f64,
    /// Annealing RNG seed (flows are reproducible per seed).
    pub seed: u64,
    /// Annealing move budget.
    pub anneal_iterations: usize,
    /// Default data-net toggle rate for power analysis.
    pub activity: f64,
    /// Per-rule overrides for the lint gates (rules `IR0xx` before
    /// synthesis, `NL0xx` after, `TM0xx` at timing signoff).
    /// Error-level findings abort the flow.
    pub lint: LintConfig,
}

impl FlowConfig {
    /// A typical configuration at the given clock.
    pub fn at_clock(clock: Hertz) -> Self {
        Self {
            pvt: Pvt::nominal(),
            clock,
            utilization: 0.6,
            aspect: 1.0,
            seed: 42,
            anneal_iterations: 20_000,
            activity: 0.2,
            lint: LintConfig::default(),
        }
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self::at_clock(Hertz::from_ghz(1.0))
    }
}

/// Clock-tree synthesis summary (fanout-4 buffer tree estimate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtsReport {
    /// Number of inserted clock buffers.
    pub buffers: usize,
    /// Tree depth.
    pub levels: usize,
    /// Area added by the buffers.
    pub added_area: AreaUm2,
    /// Power burned by the buffer tree.
    pub power: Watt,
}

/// Everything the flow produced.
#[derive(Debug, Clone)]
pub struct FlowResult {
    /// Synthesis output (mapped netlist + port maps).
    pub synth: SynthResult,
    /// Netlist statistics at the library.
    pub stats: NetlistStats,
    /// The floorplan.
    pub floorplan: Floorplan,
    /// Final placement.
    pub placement: Placement,
    /// Annealing statistics.
    pub anneal: AnnealStats,
    /// Clock-tree estimate.
    pub cts: CtsReport,
    /// Global-routing estimate.
    pub route: RouteResult,
    /// Timing signoff.
    pub timing: StaReport,
    /// Power signoff.
    pub power: PowerReport,
    /// Per-stage log lines.
    pub log: Vec<String>,
}

impl FlowResult {
    /// Total block area: placed cells plus clock buffers.
    pub fn area(&self) -> AreaUm2 {
        AreaUm2::new(self.stats.area.value() + self.cts.added_area.value())
    }

    /// Total block power including the clock tree estimate.
    pub fn total_power(&self) -> Watt {
        self.power.total() + self.cts.power
    }
}

impl fmt::Display for FlowResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for line in &self.log {
            writeln!(f, "{line}")?;
        }
        Ok(())
    }
}

/// Timing-driven sizing: iteratively up-drives the cells on the current
/// critical path, keeping the best solution seen (a greedy resizer in
/// the spirit of OpenLANE's `resizer timing` step). Returns the number
/// of drive bumps retained.
///
/// Sizing changes drive strengths only, so every round retimes against
/// `graph`, which must have been built from `netlist`.
pub fn optimize_timing(
    netlist: &mut openserdes_netlist::Netlist,
    graph: &TimingGraph,
    library: &Library,
    config: &StaConfig,
) -> usize {
    let bump = |d: DriveStrength| match d {
        DriveStrength::X1 => Some(DriveStrength::X2),
        DriveStrength::X2 => Some(DriveStrength::X4),
        DriveStrength::X4 => Some(DriveStrength::X8),
        DriveStrength::X8 => Some(DriveStrength::X16),
        DriveStrength::X16 => None,
    };
    let drives = |nl: &openserdes_netlist::Netlist| -> Vec<DriveStrength> {
        nl.instances().map(|(_, i)| i.drive).collect()
    };
    let sta = Sta::new().with_config(config.clone());
    let initial = sta.retime(graph, netlist, library, None);
    if initial.clean() {
        return 0;
    }
    let mut best_wns = initial.wns;
    let mut best = drives(netlist);
    let mut report = initial;
    for _ in 0..60 {
        let mut changed = false;
        for &id in &report.critical_path {
            if let Some(d) = bump(netlist.instance(id).drive) {
                netlist.instance_mut(id).drive = d;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        let next = sta.retime(graph, netlist, library, None);
        if next.wns > best_wns {
            best_wns = next.wns;
            best = drives(netlist);
        }
        if next.clean() {
            break;
        }
        report = next;
    }
    // Restore the best solution seen and count retained bumps.
    let mut bumps = 0usize;
    let ids: Vec<_> = netlist.cell_ids().collect();
    for (i, id) in ids.into_iter().enumerate() {
        if netlist.instance(id).drive != best[i] {
            netlist.instance_mut(id).drive = best[i];
        }
        if best[i] != DriveStrength::X1 {
            bumps += 1;
        }
    }
    bumps
}

fn cts_estimate(flops: usize, library: &Library, clock: Hertz) -> CtsReport {
    if flops == 0 {
        return CtsReport {
            buffers: 0,
            levels: 0,
            added_area: AreaUm2::new(0.0),
            power: Watt::new(0.0),
        };
    }
    // Fanout-4 buffer tree bottom-up.
    let mut level_count = flops;
    let mut buffers = 0usize;
    let mut levels = 0usize;
    while level_count > 1 {
        level_count = level_count.div_ceil(4);
        buffers += level_count;
        levels += 1;
    }
    let clkbuf = library
        .cell(LogicFn::ClkBuf, DriveStrength::X4)
        .expect("library has clock buffers");
    let vdd = library.vdd().value();
    // Each buffer drives ~4 sinks of ~1.5 fF plus ~10 µm of wire.
    let c_per_buf = 4.0 * 1.5e-15 + 10.0 * 0.19e-15;
    let p = buffers as f64
        * (c_per_buf * vdd * vdd * clock.value() + clkbuf.internal_energy_j * 2.0 * clock.value());
    CtsReport {
        buffers,
        levels,
        added_area: AreaUm2::new(buffers as f64 * clkbuf.area.value()),
        power: Watt::new(p),
    }
}

/// The RTL→layout flow as a configured object: the one entry point,
/// also behind `Session::run_flow`.
///
/// Built with the same consuming-builder idiom as
/// [`openserdes_lint::LintConfig`]:
///
/// ```
/// use openserdes_flow::{Flow, FlowConfig};
/// use openserdes_pdk::units::Hertz;
///
/// let flow = Flow::new().with_config(FlowConfig::at_clock(Hertz::from_mhz(500.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Flow {
    config: FlowConfig,
}

impl Flow {
    /// A flow at the default configuration (1 GHz clock, nominal PVT).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole configuration.
    #[must_use]
    pub fn with_config(mut self, config: FlowConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the target clock frequency.
    #[must_use]
    pub fn with_clock(mut self, clock: Hertz) -> Self {
        self.config.clock = clock;
        self
    }

    /// Sets the PVT corner the library is characterized at.
    #[must_use]
    pub fn with_corner(mut self, pvt: Pvt) -> Self {
        self.config.pvt = pvt;
        self
    }

    /// The current configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// Runs the complete flow on a design.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Lint`] if the design-lint gate finds
    /// Error-level diagnostics (on the RTL IR before synthesis, or on
    /// the mapped netlist after), and [`FlowError::Netlist`] if
    /// synthesis or STA produce an invalid netlist (which indicates an
    /// IR bug and is surfaced rather than masked).
    pub fn run(&self, design: &Design) -> Result<FlowResult, FlowError> {
        let config = &self.config;
        let _span = telemetry::span("flow.run");
        let mut log = Vec::new();
        let library = Library::sky130(config.pvt);
        log.push(format!(
            "[flow] design `{}` @ {} / clock {:.3} GHz",
            design.name(),
            config.pvt,
            config.clock.ghz()
        ));

        // Stage 0: the IR half of the lint gate (yosys' `check` stand-in) —
        // broken RTL is rejected before any stage spends time on it.
        let lint_span = telemetry::span("flow.lint");
        let ir_lint = design.lint(&config.lint);
        telemetry::counter("flow.lint_findings", ir_lint.findings().len() as u64);
        drop(lint_span);
        log.push(format!(
            "[lint] ir: {} error(s), {} warning(s), {} info(s)",
            ir_lint.count(openserdes_lint::Severity::Error),
            ir_lint.count(openserdes_lint::Severity::Warn),
            ir_lint.count(openserdes_lint::Severity::Info)
        ));
        if ir_lint.has_errors() {
            return Err(FlowError::Lint(ir_lint));
        }

        // Stage 1: synthesis (yosys + ABC stand-in) plus timing-driven
        // sizing (the resizer step of OpenLANE's optimization).
        let synth_span = telemetry::span("flow.synthesis");
        let mut synth = synthesize(design, &library)?;
        // One timing graph serves sizing and signoff: from here on only
        // drive strengths change.
        let graph = TimingGraph::new(&synth.netlist)?;
        let mut sta_cfg = StaConfig::at_clock(config.clock);
        sta_cfg.multicycle = synth.multicycle.clone();
        let bumps = optimize_timing(&mut synth.netlist, &graph, &library, &sta_cfg);
        let stats = NetlistStats::compute(&synth.netlist, &library);
        telemetry::counter("flow.cells", stats.cell_count as u64);
        telemetry::counter("flow.flops", stats.flop_count as u64);
        drop(synth_span);
        log.push(format!(
        "[synthesis] {} cells ({} flops), {} IR nodes eliminated, {} upsized cells, area {:.1} µm²",
        stats.cell_count,
        stats.flop_count,
        synth.nodes_eliminated,
        bumps,
        stats.area.value()
    ));

        // Lint gate, netlist half: full gate-level ERC (including the
        // drive/fanout audit against the characterized library) on the
        // mapped netlist before committing to physical design.
        let lint_span = telemetry::span("flow.lint");
        let nl_lint = synth.netlist.lint_with_library(&library, &config.lint);
        telemetry::counter("flow.lint_findings", nl_lint.findings().len() as u64);
        drop(lint_span);
        log.push(format!(
            "[lint] netlist: {} error(s), {} warning(s), {} info(s)",
            nl_lint.count(openserdes_lint::Severity::Error),
            nl_lint.count(openserdes_lint::Severity::Warn),
            nl_lint.count(openserdes_lint::Severity::Info)
        ));
        if nl_lint.has_errors() {
            return Err(FlowError::Lint(nl_lint));
        }

        // Stage 2: floorplan (init_fp stand-in).
        let fp_span = telemetry::span("flow.floorplan");
        let floorplan = Floorplan::for_area(stats.area, config.utilization, config.aspect);
        drop(fp_span);
        log.push(format!(
            "[floorplan] die {:.1} × {:.1} µm, {} rows, utilization {:.0}%",
            floorplan.width.value(),
            floorplan.height.value(),
            floorplan.rows,
            config.utilization * 100.0
        ));

        // Stage 3: placement (RePlAce/OpenDP stand-in).
        let place_span = telemetry::span("flow.place");
        let mut placement = place_greedy(&synth.netlist, &library, &floorplan);
        let anneal_stats = anneal(
            &synth.netlist,
            &mut placement,
            config.seed,
            config.anneal_iterations,
        );
        telemetry::counter("flow.anneal_moves", anneal_stats.attempted as u64);
        drop(place_span);
        log.push(format!(
            "[placement] HPWL {:.1} → {:.1} µm ({} / {} moves accepted)",
            anneal_stats.initial_hpwl,
            anneal_stats.final_hpwl,
            anneal_stats.accepted,
            anneal_stats.attempted
        ));

        // Stage 4: clock-tree synthesis (TritonCTS stand-in).
        let cts_span = telemetry::span("flow.cts");
        let cts = cts_estimate(stats.flop_count, &library, config.clock);
        telemetry::counter("flow.clock_buffers", cts.buffers as u64);
        drop(cts_span);
        log.push(format!(
            "[cts] {} buffers in {} levels, +{:.1} µm², +{:.3} mW",
            cts.buffers,
            cts.levels,
            cts.added_area.value(),
            cts.power.mw()
        ));

        // Stage 5: global routing (FastRoute stand-in).
        let route_span = telemetry::span("flow.route");
        let route = global_route(&synth.netlist, &placement);
        telemetry::counter("flow.routed_nets", route.iter().count() as u64);
        drop(route_span);
        log.push(format!(
            "[routing] total wirelength {:.1} µm, peak congestion {:.2}",
            route.total_length.value(),
            route.peak_congestion
        ));

        // Stage 6: STA (OpenSTA stand-in), honouring multicycle exceptions.
        let sta_span = telemetry::span("flow.sta");
        let timing =
            Sta::new()
                .with_config(sta_cfg)
                .retime(&graph, &synth.netlist, &library, Some(&route));
        telemetry::counter("flow.timing_violations", timing.violations as u64);
        drop(sta_span);
        log.push(format!(
            "[sta] wns {:.1} ps, tns {:.1} ps, {} violations, fmax {:.3} GHz",
            timing.wns.ps(),
            timing.tns.ps(),
            timing.violations,
            timing.fmax.ghz()
        ));

        // Lint gate, timing half: the STA's TM findings pass through the
        // same severity machinery as the IR and netlist gates.
        let tm_lint = timing.to_lint(&config.lint);
        telemetry::counter("flow.lint_findings", tm_lint.findings().len() as u64);
        log.push(format!(
            "[lint] timing: {} error(s), {} warning(s), {} info(s)",
            tm_lint.count(openserdes_lint::Severity::Error),
            tm_lint.count(openserdes_lint::Severity::Warn),
            tm_lint.count(openserdes_lint::Severity::Info)
        ));
        if tm_lint.has_errors() {
            return Err(FlowError::Lint(tm_lint));
        }

        // Stage 7: power signoff.
        let power_span = telemetry::span("flow.power");
        let mut pcfg = PowerConfig::at_clock(config.clock);
        pcfg.activity = config.activity;
        let power = analyze_power(&synth.netlist, &library, Some(&route), &pcfg);
        drop(power_span);
        log.push(format!(
            "[power] total {:.3} mW (switching {:.3}, internal {:.3}, clock {:.3}, leakage {:.4})",
            power.total().mw() + cts.power.mw(),
            power.switching.mw(),
            power.internal.mw(),
            power.clock_tree.mw() + cts.power.mw(),
            power.leakage.mw()
        ));
        log.push("[signoff] flow complete".to_string());

        Ok(FlowResult {
            synth,
            stats,
            floorplan,
            placement,
            anneal: anneal_stats,
            cts,
            route,
            timing,
            power,
            log,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Design;

    /// An 8-bit counter with enable: a small but complete design.
    fn counter8() -> Design {
        let mut d = Design::new("counter8");
        let en = d.input("en");
        let q = d.reg_bus(8);
        let inc = d.incr(&q);
        let next = d.mux_bus(&q, &inc, en);
        d.connect_reg_bus(&q, &next);
        d.output_bus("q", &q);
        d
    }

    #[test]
    fn flow_runs_end_to_end() {
        let r = Flow::new().run(&counter8()).expect("flow ok");
        assert!(r.stats.cell_count > 8);
        assert_eq!(r.stats.flop_count, 8);
        assert!(r.area().value() > 0.0);
        assert!(r.total_power().mw() > 0.0);
        assert!(r.timing.fmax.ghz() > 0.1);
        assert_eq!(r.log.len(), 12);
    }

    /// A single X1 AND gate whose output enables every bit of a wide
    /// register: a seeded under-driven high-fanout net.
    fn wide_enable(bits: usize) -> Design {
        let mut d = Design::new("wide_enable");
        let a = d.input("a");
        let b = d.input("b");
        let gate = d.and(a, b);
        let q = d.reg_bus(bits);
        let inv: Vec<_> = q.iter().map(|&s| d.not(s)).collect();
        let next = d.mux_bus(&q, &inv, gate);
        d.connect_reg_bus(&q, &next);
        d.output_bus("q", &q);
        d
    }

    #[test]
    fn timing_gate_blocks_seeded_drive_bug() {
        use openserdes_lint::{LintLevel, Rule};
        let d = wide_enable(150);
        // Deny-warnings style signoff: promote the max-cap audit to
        // Error (and silence the netlist-gate NL007 twin so the block
        // is attributable to the timing gate).
        let mut cfg = FlowConfig::at_clock(Hertz::from_mhz(100.0));
        cfg.lint = cfg
            .lint
            .allow(Rule::DriveOverload)
            .set_level(Rule::MaxCapViolation, LintLevel::Error);
        match Flow::new().with_config(cfg).run(&d) {
            Err(FlowError::Lint(report)) => {
                assert_eq!(report.domain(), "timing");
                assert!(report.has_errors());
                assert!(report
                    .findings()
                    .iter()
                    .any(|f| f.rule == Rule::MaxCapViolation));
            }
            other => panic!("expected timing-gate rejection, got {other:?}"),
        }
        // At default (Warn) severity the same design flows to signoff.
        let mut relaxed = FlowConfig::at_clock(Hertz::from_mhz(100.0));
        relaxed.lint = relaxed.lint.allow(Rule::DriveOverload);
        let r = Flow::new()
            .with_config(relaxed)
            .run(&d)
            .expect("warn-level TM findings do not gate");
        assert!(r.log.iter().any(|l| l.contains("[lint] timing:")));
    }

    #[test]
    fn lint_gate_rejects_broken_ir() {
        let mut d = Design::new("broken");
        let q = d.reg(); // never connected: IR001, an Error
        d.output("q", q);
        match Flow::new().run(&d) {
            Err(FlowError::Lint(report)) => {
                assert!(report.has_errors());
                assert_eq!(report.domain(), "ir");
            }
            other => panic!("expected lint rejection, got {other:?}"),
        }
    }

    #[test]
    fn lint_gate_can_be_relaxed() {
        use openserdes_lint::Rule;
        // A design with a warning-level finding still flows; allowing
        // the rule drops it from the log counts entirely.
        let mut d = counter8();
        let q0 = d.outputs()[0].1;
        d.set_multicycle(q0, 2);
        d.set_multicycle(q0, 2); // IR006, Warn
        let r = Flow::new().run(&d).expect("warnings do not gate");
        assert!(r
            .log
            .iter()
            .any(|l| l.contains("[lint] ir: 0 error(s), 1 warning(s)")));
        let mut cfg = FlowConfig::default();
        cfg.lint = cfg.lint.allow(Rule::DuplicateMulticycle);
        let r = Flow::new().with_config(cfg).run(&d).expect("allowed");
        assert!(r
            .log
            .iter()
            .any(|l| l.contains("[lint] ir: 0 error(s), 0 warning(s)")));
    }

    #[test]
    fn counter_closes_timing_at_modest_clock() {
        let cfg = FlowConfig::at_clock(Hertz::from_mhz(250.0));
        let r = Flow::new()
            .with_config(cfg)
            .run(&counter8())
            .expect("flow ok");
        assert!(r.timing.clean(), "wns = {} ps", r.timing.wns.ps());
    }

    #[test]
    fn flow_is_deterministic() {
        let cfg = FlowConfig::default();
        let a = Flow::new()
            .with_config(cfg.clone())
            .run(&counter8())
            .expect("ok");
        let b = Flow::new().with_config(cfg).run(&counter8()).expect("ok");
        assert_eq!(a.stats.cell_count, b.stats.cell_count);
        assert_eq!(a.anneal.final_hpwl.to_bits(), b.anneal.final_hpwl.to_bits());
        assert_eq!(
            a.power.total().value().to_bits(),
            b.power.total().value().to_bits()
        );
    }

    #[test]
    fn cts_scales_with_flops() {
        let lib = Library::sky130(Pvt::nominal());
        let small = cts_estimate(8, &lib, Hertz::from_ghz(1.0));
        let big = cts_estimate(512, &lib, Hertz::from_ghz(1.0));
        assert!(big.buffers > small.buffers);
        assert!(big.levels > small.levels);
        assert!(big.power.value() > small.power.value());
        let none = cts_estimate(0, &lib, Hertz::from_ghz(1.0));
        assert_eq!(none.buffers, 0);
    }

    #[test]
    fn display_prints_stage_log() {
        let r = Flow::new().run(&counter8()).expect("ok");
        let s = r.to_string();
        for stage in [
            "[flow]",
            "[lint]",
            "[synthesis]",
            "[floorplan]",
            "[placement]",
            "[cts]",
            "[routing]",
            "[sta]",
            "[power]",
            "[signoff]",
        ] {
            assert!(s.contains(stage), "missing {stage}");
        }
    }
}
