//! Static timing analysis over a mapped (and optionally routed) netlist.
//!
//! Plays the role OpenSTA plays in the paper's flow. The engine runs
//! four graph passes over the levelized netlist:
//!
//! 1. **Forward (late)** — worst-case arrival times and slews propagate
//!    from launch points (flop Q pins, primary inputs) through the
//!    combinational cloud using the library NLDM tables, wire Elmore
//!    delays and the late derate.
//! 2. **Backward (required)** — required times propagate from capture
//!    points (flop D pins, primary outputs) back toward launch points,
//!    giving a slack figure on *every net*, not just endpoints.
//! 3. **Early (hold)** — minimum arrivals using the genuinely fast
//!    [`min_arc`](openserdes_pdk::stdcell::StdCell::min_arc) tables and
//!    the early derate, checked against each flop's hold window.
//! 4. **Path enumeration** — the top-K worst endpoints are expanded
//!    into [`PathReport`]s with per-stage delay/slew/load breakdowns,
//!    printable like an OpenSTA `report_checks`.
//!
//! Every flop is checked against its own clock domain (traced back
//! through the clock network to its root), cross-domain paths are
//! untimed by default, and all rule-level problems are surfaced as
//! `TM0xx` findings ready to feed the `openserdes-lint` pipeline via
//! [`StaReport::to_lint`].

use crate::route::RouteResult;
use openserdes_lint::{EntityKind, Finding, LintConfig, LintReport, Rule};
use openserdes_netlist::{CellId, Connectivity, NetId, Netlist, NetlistError};
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::StdCell;
use openserdes_pdk::units::{Farad, Hertz, Time};
use openserdes_pdk::wire::WireloadModel;
use openserdes_telemetry as telemetry;
use std::fmt;

/// STA configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StaConfig {
    /// Target clock frequency for the main (default) clock domain.
    pub clock: Hertz,
    /// Transition time assumed at primary inputs.
    pub input_slew: Time,
    /// Transition time of the clock network at its root. Launch and
    /// capture clock-pin slews derive from this through the clock tree.
    pub clock_slew: Time,
    /// External setup requirement charged to primary-output endpoints
    /// (zero keeps the legacy "ports need the full period" behavior).
    pub output_delay: Time,
    /// Setup (late) clock uncertainty subtracted from every setup check.
    pub setup_uncertainty: Time,
    /// Hold (early) clock uncertainty added to every hold check.
    pub hold_uncertainty: Time,
    /// Late (max-delay) derate applied to data-path delays. 1.0 = none.
    pub derate_late: f64,
    /// Early (min-delay) derate applied to hold-path delays. 1.0 = none.
    pub derate_early: f64,
    /// Max transition allowed on any driven net (TM004) when set.
    pub max_transition: Option<Time>,
    /// Max clock insertion-delay spread within a domain (TM006) when set.
    pub max_skew: Option<Time>,
    /// Named secondary clocks: `(root net name, frequency)`. A clock
    /// root matching an entry is timed at that frequency; unmatched
    /// generated (non-port) clock roots are unconstrained (TM003).
    pub clocks: Vec<(String, Hertz)>,
    /// Multicycle exceptions: paths ending at these flops get
    /// `factor` clock periods (e.g. a decision consumed every N cycles).
    pub multicycle: Vec<(CellId, u32)>,
    /// How many worst paths to expand into [`PathReport`]s.
    pub top_paths: usize,
}

impl StaConfig {
    /// A configuration at the given clock frequency with 40 ps input
    /// and clock slews, no uncertainty, unit derates and no exceptions.
    pub fn at_clock(clock: Hertz) -> Self {
        Self {
            clock,
            input_slew: Time::from_ps(40.0),
            clock_slew: Time::from_ps(40.0),
            output_delay: Time::new(0.0),
            setup_uncertainty: Time::new(0.0),
            hold_uncertainty: Time::new(0.0),
            derate_late: 1.0,
            derate_early: 1.0,
            max_transition: None,
            max_skew: None,
            clocks: Vec::new(),
            multicycle: Vec::new(),
            top_paths: 5,
        }
    }
}

impl Default for StaConfig {
    fn default() -> Self {
        Self::at_clock(Hertz::from_ghz(1.0))
    }
}

/// A timing endpoint check result.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoint {
    /// Human-readable endpoint description (flop instance or output port).
    pub name: String,
    /// Data arrival time at the endpoint.
    pub arrival: Time,
    /// Setup requirement subtracted from the period (zero for ports).
    pub setup: Time,
    /// Slack at the configured clock (infinite when untimed).
    pub slack: Time,
    /// Required time at the endpoint (infinite when untimed).
    pub required: Time,
    /// Name of the clock domain the endpoint is checked against.
    pub domain: String,
    /// `true` when the endpoint is untimed (unconstrained clock or a
    /// purely cross-domain data cone); untimed endpoints do not count
    /// toward WNS/TNS/fmax.
    pub untimed: bool,
}

/// One cell along an enumerated timing path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStage {
    /// The cell instance.
    pub cell: CellId,
    /// Instance name.
    pub instance: String,
    /// Gate description, e.g. `Inv/X2`.
    pub gate: String,
    /// Stage delay (cell + wire, late-derated).
    pub delay: Time,
    /// Cumulative arrival at the stage output.
    pub arrival: Time,
    /// Slew at the stage output.
    pub slew: Time,
    /// Capacitive load on the stage output net.
    pub load: Farad,
}

/// A launch-to-capture path expanded with per-stage breakdowns.
///
/// `Display` prints an OpenSTA `report_checks`-style block.
#[derive(Debug, Clone, PartialEq)]
pub struct PathReport {
    /// Capture endpoint (flop instance or `port:` name).
    pub endpoint: String,
    /// Launch point (flop instance or `primary input`).
    pub startpoint: String,
    /// Clock domain the endpoint is checked against.
    pub domain: String,
    /// Data arrival time at the endpoint.
    pub arrival: Time,
    /// Required time at the endpoint.
    pub required: Time,
    /// Path slack.
    pub slack: Time,
    /// Stages from launch to the last cell before the capture point.
    pub stages: Vec<PathStage>,
}

impl fmt::Display for PathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Startpoint: {} (clock {})", self.startpoint, self.domain)?;
        writeln!(f, "Endpoint:   {}", self.endpoint)?;
        writeln!(
            f,
            "  {:<28} {:>9} {:>10} {:>8} {:>8}",
            "instance", "delay/ps", "arrive/ps", "slew/ps", "load/fF"
        )?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<28} {:>9.1} {:>10.1} {:>8.1} {:>8.1}",
                format!("{} ({})", s.instance, s.gate),
                s.delay.ps(),
                s.arrival.ps(),
                s.slew.ps(),
                s.load.value() * 1e15,
            )?;
        }
        writeln!(f, "  data arrival  {:>9.1} ps", self.arrival.ps())?;
        writeln!(f, "  data required {:>9.1} ps", self.required.ps())?;
        write!(
            f,
            "  slack         {:>9.1} ps ({})",
            self.slack.ps(),
            if self.slack.value() < 0.0 {
                "VIOLATED"
            } else {
                "MET"
            }
        )
    }
}

/// A clock domain discovered by tracing each flop's clock pin back
/// through the clock network to its root net.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockDomain {
    /// Domain name (the root net's name).
    pub name: String,
    /// Root net of the clock tree.
    pub root: NetId,
    /// Clock period, `None` when unconstrained (generated clock with
    /// no matching [`StaConfig::clocks`] entry).
    pub period: Option<Time>,
    /// Flops clocked by this domain, in cell order.
    pub flops: Vec<CellId>,
    /// Smallest clock insertion delay across the domain's flops.
    pub insertion_min: Time,
    /// Largest clock insertion delay across the domain's flops.
    pub insertion_max: Time,
}

impl ClockDomain {
    /// Insertion-delay spread (skew) across the domain.
    pub fn skew(&self) -> Time {
        Time::new(self.insertion_max.value() - self.insertion_min.value())
    }
}

/// The full analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// The main clock the design was checked against.
    pub clock: Hertz,
    /// Worst (most negative) setup slack over timed endpoints.
    pub wns: Time,
    /// Total negative setup slack.
    pub tns: Time,
    /// Number of violated (timed) endpoints.
    pub violations: usize,
    /// Maximum clock frequency the worst path supports.
    pub fmax: Hertz,
    /// Cells along the critical path, launch to capture.
    pub critical_path: Vec<CellId>,
    /// All endpoint checks, worst first (untimed endpoints last).
    pub endpoints: Vec<Endpoint>,
    /// Worst hold slack across flop endpoints (positive = clean).
    pub hold_wns: Time,
    /// Number of hold violations.
    pub hold_violations: usize,
    /// Top-K worst paths with per-stage breakdowns, worst first.
    pub paths: Vec<PathReport>,
    /// Clock domains discovered in the design, in root-net order.
    pub domains: Vec<ClockDomain>,
    design: String,
    findings: Vec<Finding>,
    arrivals: Vec<Time>,
    requireds: Vec<Time>,
}

impl StaReport {
    /// Arrival time on a net (max over paths, late-derated).
    pub fn arrival(&self, net: NetId) -> Time {
        self.arrivals[net.index()]
    }

    /// Required time on a net from the backward pass (infinite when no
    /// timed endpoint is reachable from the net).
    pub fn required(&self, net: NetId) -> Time {
        self.requireds[net.index()]
    }

    /// Per-net setup slack: `required - arrival`.
    pub fn slack(&self, net: NetId) -> Time {
        Time::new(self.requireds[net.index()].value() - self.arrivals[net.index()].value())
    }

    /// `true` when every timed endpoint meets setup.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }

    /// The raw TM findings produced by the analysis, in rule order.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Bridges the analysis into the lint pipeline: every TM finding is
    /// filed into a `LintReport` (domain `timing`) honoring the given
    /// severity overrides, ready for `--deny`-style gating.
    pub fn to_lint(&self, cfg: &LintConfig) -> LintReport {
        let mut report = LintReport::new(self.design.clone(), "timing");
        for f in &self.findings {
            report.add(cfg, f.clone());
        }
        report
    }
}

/// Static timing analysis runner (consuming-builder idiom).
///
/// ```
/// # use openserdes_flow::sta::{Sta, StaConfig};
/// # use openserdes_pdk::units::Hertz;
/// let sta = Sta::new().with_config(StaConfig::at_clock(Hertz::from_ghz(2.0)));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sta {
    config: StaConfig,
}

impl Sta {
    /// A runner with the default configuration (1 GHz main clock).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the whole configuration.
    #[must_use]
    pub fn with_config(mut self, config: StaConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the main clock, keeping other settings.
    #[must_use]
    pub fn with_clock(mut self, clock: Hertz) -> Self {
        self.config.clock = clock;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &StaConfig {
        &self.config
    }
}

/// One flop's clock path: the buffer chain from its domain's root.
#[derive(Debug, Clone)]
struct ClockPath {
    flop: CellId,
    /// Clock buffers in root-to-flop order.
    chain: Vec<CellId>,
}

/// Everything static timing analysis needs from a netlist's structure,
/// built once and reused while only drive strengths or the route change.
///
/// It holds the netlist's [`Connectivity`] and the topological order,
/// both from one [`Connectivity::checked`], each flop's clock buffer
/// chain, the clock domains, and the cross-domain analysis: the `TM007`
/// findings and the flops whose data cone starts only in other domains.
/// [`Sta::retime`] times a netlist against it; [`Sta::run`] is
/// `TimingGraph::new` followed by a retime.
///
/// ```
/// # use openserdes_flow::sta::{Sta, StaConfig, TimingGraph};
/// # use openserdes_netlist::Netlist;
/// # use openserdes_pdk::corner::Pvt;
/// # use openserdes_pdk::library::Library;
/// # use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
/// let mut nl = Netlist::new("pipe");
/// let clk = nl.add_input("clk");
/// let d = nl.add_input("d");
/// let q = nl.dff(d, clk, DriveStrength::X1);
/// let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q]);
/// nl.mark_output("y", y);
/// let library = Library::sky130(Pvt::nominal());
/// let graph = TimingGraph::new(&nl)?;
/// // Resizing keeps the structure, so the graph still applies.
/// let inv = nl.cell_ids().last().expect("inverter");
/// nl.instance_mut(inv).drive = DriveStrength::X4;
/// let sta = Sta::new();
/// assert_eq!(sta.retime(&graph, &nl, &library, None), sta.run(&nl, &library, None)?);
/// # Ok::<(), openserdes_netlist::NetlistError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TimingGraph {
    cells: usize,
    nets: usize,
    order: Vec<CellId>,
    conn: Connectivity,
    /// One per flop, in cell order.
    clock_paths: Vec<ClockPath>,
    /// In order of each root's first flop, without periods or
    /// insertion delays.
    domains: Vec<ClockDomain>,
    /// Per cell: index into `domains` (`usize::MAX` off the flops).
    domain_of: Vec<usize>,
    /// Per cell: a flop whose data cone starts only in other domains.
    cross_only: Vec<bool>,
    /// `TM007`, in flop order and then source order.
    cross_findings: Vec<Finding>,
}

impl TimingGraph {
    /// Checks `netlist` and builds its timing structure.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the netlist fails validation.
    pub fn new(netlist: &Netlist) -> Result<Self, NetlistError> {
        let _span = telemetry::span("sta.graph");
        let (conn, order) = Connectivity::checked(netlist)?;
        let n_cells = netlist.cell_count();

        // Clock network: trace each flop's clock pin back to its root.
        let mut clock_paths = Vec::new();
        let mut domains: Vec<ClockDomain> = Vec::new();
        let mut domain_of = vec![usize::MAX; n_cells];
        for (id, inst) in netlist.instances() {
            if !inst.is_sequential() {
                continue;
            }
            let clk_net = inst.clock.expect("sequential cell has a clock pin");
            let (root, chain) = conn.clock_root(netlist, clk_net);
            let domain = match domains.iter().position(|d| d.root == root) {
                Some(i) => i,
                None => {
                    domains.push(ClockDomain {
                        name: netlist.net_name(root).to_string(),
                        root,
                        period: None,
                        flops: Vec::new(),
                        insertion_min: Time::new(f64::INFINITY),
                        insertion_max: Time::new(0.0),
                    });
                    domains.len() - 1
                }
            };
            domains[domain].flops.push(id);
            domain_of[id.index()] = domain;
            clock_paths.push(ClockPath { flop: id, chain });
        }

        // TM007 + cross-domain-only flops: each flop's data cone, from
        // its D pin, with the sources in cell order.
        let mut marks = vec![0u32; 2 * netlist.net_count()];
        let mut cross_only = vec![false; n_cells];
        let mut cross_findings = Vec::new();
        for (stamp, path) in (1..).zip(&clock_paths) {
            let (id, di) = (path.flop, domain_of[path.flop.index()]);
            let inst = netlist.instance(id);
            let (mut sources, reached_input) =
                conn.fanin_sources(netlist, &inst.inputs[..1], &mut marks, stamp);
            sources.sort_by_key(|(c, _)| *c);
            let mut same_domain = reached_input;
            let mut crossed = false;
            for &(src, through_logic) in &sources {
                if domain_of[src.index()] == di {
                    same_domain = true;
                    continue;
                }
                crossed = true;
                let src_inst = netlist.instance(src);
                let src_root = &domains[domain_of[src.index()]].name;
                let dst_root = &domains[di].name;
                let detail = if through_logic {
                    "; data passes through multi-input logic on the way (see the NL006 synchronizer audit)"
                } else {
                    ""
                };
                cross_findings.push(
                Finding::new(
                    Rule::UntimedCrossDomainPath,
                    format!(
                        "path from flop '{}' (clock '{}') to flop '{}' (clock '{}') crosses clock domains and is untimed by default{}",
                        src_inst.name, src_root, inst.name, dst_root, detail
                    ),
                )
                .at_cell(inst.name.clone(), id.index())
                .with_related(EntityKind::Cell, src_inst.name.clone(), src.index()),
            );
            }
            cross_only[id.index()] = crossed && !same_domain;
        }

        Ok(Self {
            cells: n_cells,
            nets: netlist.net_count(),
            order,
            conn,
            clock_paths,
            domains,
            domain_of,
            cross_only,
            cross_findings,
        })
    }
}

impl Sta {
    /// Runs the analysis: [`TimingGraph::new`], then [`Sta::retime`].
    ///
    /// When `route` is provided, per-net wire RC from the global route
    /// is used; otherwise the pre-layout wireload model estimates it.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the netlist fails validation.
    pub fn run(
        &self,
        netlist: &Netlist,
        library: &Library,
        route: Option<&RouteResult>,
    ) -> Result<StaReport, NetlistError> {
        let graph = TimingGraph::new(netlist)?;
        Ok(self.retime(&graph, netlist, library, route))
    }

    /// Times `netlist` against a graph built from it, at its current
    /// drive strengths. The report is `to_bits`-identical to
    /// [`Sta::run`]'s on the same netlist.
    ///
    /// # Panics
    ///
    /// Panics if `graph` was built from a netlist with a different
    /// cell or net count. Changing anything but drive strengths after
    /// building the graph is not detected and gives a wrong report.
    pub fn retime(
        &self,
        graph: &TimingGraph,
        netlist: &Netlist,
        library: &Library,
        route: Option<&RouteResult>,
    ) -> StaReport {
        let _run_span = telemetry::span("sta.run");
        let config = &self.config;
        let n_nets = netlist.net_count();
        let n_cells = netlist.cell_count();
        assert_eq!(
            (graph.cells, graph.nets),
            (n_cells, n_nets),
            "timing graph built from another netlist"
        );
        let (order, conn) = (&graph.order, &graph.conn);
        let domain_of = &graph.domain_of;
        let wireload = WireloadModel::small_block();
        let period = 1.0 / config.clock.value();
        // Each instance's library cell at its current drive.
        let cells: Vec<&StdCell> = netlist
            .instances()
            .map(|(_, inst)| {
                library
                    .cell(inst.function, inst.drive)
                    .expect("library cell")
            })
            .collect();

        // Per-net capacitive load (pins + wire) and wire Elmore delay.
        let mut load = vec![0.0f64; n_nets];
        let mut wire_delay = vec![0.0f64; n_nets];
        for net in netlist.net_ids() {
            let sinks = conn.sinks(net);
            let mut pin_c = 0.0;
            for (s, last) in conn.sink_pins(net) {
                pin_c += netlist
                    .instance(s)
                    .pin_cap(cells[s.index()], net, last)
                    .value();
            }
            let (wire_c, wire_r) = match route {
                Some(r) => {
                    let rn = r.net(net);
                    (rn.capacitance().value(), rn.resistance().value())
                }
                None => (
                    wireload.capacitance(sinks.len()).value(),
                    wireload.resistance(sinks.len()).value(),
                ),
            };
            load[net.index()] = pin_c + wire_c;
            wire_delay[net.index()] = wire_r * (0.5 * wire_c + pin_c);
        }

        // Clock domains: periods from the configuration, insertion delay
        // and clock-pin slew of every flop through its buffer chain.
        let mut findings: Vec<Finding> = Vec::new();
        let mut ins = vec![0.0f64; n_cells];
        let mut clk_pin_slew = vec![config.clock_slew.value(); n_cells];
        let mut domains = graph.domains.clone();
        let mut domain_period: Vec<Option<f64>> = Vec::with_capacity(domains.len());
        for d in &mut domains {
            let named = config
                .clocks
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, f)| 1.0 / f.value());
            let p = if netlist.is_primary_input(d.root) {
                Some(named.unwrap_or(period))
            } else {
                named
            };
            d.period = p.map(Time::new);
            domain_period.push(p);
        }
        for path in &graph.clock_paths {
            let id = path.flop;
            let mut t = 0.0f64;
            let mut s = config.clock_slew.value();
            for &buf in &path.chain {
                let out = netlist.instance(buf).output.index();
                let arc = cells[buf.index()].arc(Time::new(s), Farad::new(load[out]));
                t += arc.delay.value() + wire_delay[out];
                s = arc.out_slew.value();
            }
            ins[id.index()] = t;
            clk_pin_slew[id.index()] = s;
            let d = &mut domains[domain_of[id.index()]];
            if t < d.insertion_min.value() {
                d.insertion_min = Time::new(t);
            }
            if t > d.insertion_max.value() {
                d.insertion_max = Time::new(t);
            }
        }

        // TM008: validate multicycle exceptions; only valid ones apply.
        let mut multicycle: Vec<(CellId, u32)> = Vec::new();
        for &(cid, factor) in &config.multicycle {
            if cid.index() >= n_cells {
                findings.push(Finding::new(
                    Rule::InvalidTimingException,
                    format!(
                    "multicycle exception names unknown cell #{}; the exception constrains nothing",
                    cid.index()
                ),
                ));
            } else {
                let inst = netlist.instance(cid);
                if !inst.is_sequential() {
                    findings.push(
                    Finding::new(
                        Rule::InvalidTimingException,
                        format!(
                            "multicycle exception targets combinational cell '{}'; only flops have capture edges",
                            inst.name
                        ),
                    )
                    .at_cell(inst.name.clone(), cid.index()),
                );
                } else if factor == 0 {
                    findings.push(
                        Finding::new(
                            Rule::InvalidTimingException,
                            format!("multicycle factor 0 on flop '{}' is meaningless", inst.name),
                        )
                        .at_cell(inst.name.clone(), cid.index()),
                    );
                } else {
                    multicycle.push((cid, factor));
                }
            }
        }

        // TM003: flops in an unconstrained (generated, unnamed) domain.
        for d in &domains {
            if d.period.is_some() {
                continue;
            }
            for &f in &d.flops {
                let inst = netlist.instance(f);
                findings.push(
                Finding::new(
                    Rule::UnconstrainedEndpoint,
                    format!(
                        "flop '{}' is clocked by generated clock '{}' with no defined period; endpoint is untimed",
                        inst.name, d.name
                    ),
                )
                .at_cell(inst.name.clone(), f.index())
                .with_related(EntityKind::Net, d.name.clone(), d.root.index()),
            );
            }
        }

        // TM006: insertion-delay spread within a domain.
        if let Some(max_skew) = config.max_skew {
            for d in &domains {
                if d.flops.len() >= 2 && d.skew().value() > max_skew.value() {
                    findings.push(
                        Finding::new(
                            Rule::ExcessiveClockSkew,
                            format!(
                            "clock '{}' skew {:.1} ps across {} flops exceeds the {:.1} ps budget",
                            d.name,
                            d.skew().ps(),
                            d.flops.len(),
                            max_skew.ps()
                        ),
                        )
                        .at_net(d.name.clone(), d.root.index()),
                    );
                }
            }
        }

        // TM007 from the graph; a flop is untimed when its domain has no
        // period or its data cone starts only in other domains.
        findings.extend(graph.cross_findings.iter().cloned());
        let mut untimed_flop = vec![false; n_cells];
        for path in &graph.clock_paths {
            let id = path.flop.index();
            untimed_flop[id] = domain_period[domain_of[id]].is_none() || graph.cross_only[id];
        }

        // Forward (late) pass: launch arrivals then the combinational cloud.
        let forward_span = telemetry::span("sta.forward");
        let mut arrival = vec![0.0f64; n_nets]; // seconds
        let mut slew = vec![config.input_slew.value(); n_nets];
        let mut pred: Vec<Option<CellId>> = vec![None; n_nets];
        let mut stage_delay = vec![0.0f64; n_cells];
        for (id, inst) in netlist.instances() {
            if !inst.is_sequential() {
                continue;
            }
            let cell = cells[id.index()];
            let out = inst.output.index();
            let arc = cell.arc(Time::new(clk_pin_slew[id.index()]), Farad::new(load[out]));
            let stage = config.derate_late * (arc.delay.value() + wire_delay[out]);
            stage_delay[id.index()] = stage;
            arrival[out] = config.derate_late * ins[id.index()] + stage;
            slew[out] = arc.out_slew.value();
            pred[out] = Some(id);
        }
        for &id in order {
            let inst = netlist.instance(id);
            let cell = cells[id.index()];
            let mut worst_in = 0.0f64;
            let mut worst_slew = config.input_slew.value();
            for &i in &inst.inputs {
                if arrival[i.index()] > worst_in {
                    worst_in = arrival[i.index()];
                }
                worst_slew = worst_slew.max(slew[i.index()]);
            }
            let out = inst.output.index();
            let arc = cell.arc(Time::new(worst_slew), Farad::new(load[out]));
            let stage = config.derate_late * (arc.delay.value() + wire_delay[out]);
            stage_delay[id.index()] = stage;
            let t = worst_in + stage;
            if t > arrival[out] {
                arrival[out] = t;
                slew[out] = arc.out_slew.value();
                pred[out] = Some(id);
            }
        }
        drop(forward_span);

        // TM004: max transition on driven nets.
        if let Some(mt) = config.max_transition {
            for net in netlist.net_ids() {
                if conn.driver(net).is_some() && slew[net.index()] > mt.value() {
                    findings.push(
                        Finding::new(
                            Rule::MaxTransitionViolation,
                            format!(
                                "net '{}' transition {:.1} ps exceeds the {:.1} ps limit",
                                netlist.net_name(net),
                                slew[net.index()] * 1e12,
                                mt.ps()
                            ),
                        )
                        .at_net(netlist.net_name(net).to_string(), net.index()),
                    );
                }
            }
        }

        // TM005: load beyond the driver's characterized max capacitance.
        for (id, inst) in netlist.instances() {
            let cell = cells[id.index()];
            let out = inst.output;
            if load[out.index()] > cell.max_load.value() {
                findings.push(
                Finding::new(
                    Rule::MaxCapViolation,
                    format!(
                        "net '{}' load {:.1} fF exceeds the {:.1} fF max load of driver '{}' ({:?}/{:?})",
                        netlist.net_name(out),
                        load[out.index()] * 1e15,
                        cell.max_load.value() * 1e15,
                        inst.name,
                        inst.function,
                        inst.drive
                    ),
                )
                .at_cell(inst.name.clone(), id.index())
                .with_related(EntityKind::Net, netlist.net_name(out).to_string(), out.index()),
            );
            }
        }

        // Backward (required) pass: seed capture points, sweep reverse-topo.
        let backward_span = telemetry::span("sta.backward");
        let mut required = vec![f64::INFINITY; n_nets];
        for (id, inst) in netlist.instances() {
            if !inst.is_sequential() || untimed_flop[id.index()] {
                continue;
            }
            let cell = cells[id.index()];
            let setup = cell.seq.expect("flop has seq data").setup.value();
            let p = domain_period[domain_of[id.index()]].expect("timed flop has a period");
            let factor = multicycle
                .iter()
                .find(|(c, _)| *c == id)
                .map(|(_, f)| *f as f64)
                .unwrap_or(1.0);
            let req = factor * p + config.derate_early * ins[id.index()]
                - setup
                - config.setup_uncertainty.value();
            let d = inst.inputs[0].index();
            required[d] = required[d].min(req);
        }
        for (_, net) in netlist.primary_outputs() {
            let req = period - config.output_delay.value();
            required[net.index()] = required[net.index()].min(req);
        }
        for &id in order.iter().rev() {
            let inst = netlist.instance(id);
            let out = inst.output.index();
            if required[out].is_finite() {
                let r = required[out] - stage_delay[id.index()];
                for &i in &inst.inputs {
                    required[i.index()] = required[i.index()].min(r);
                }
            }
        }
        drop(backward_span);

        // Endpoint checks.
        struct EpMeta {
            ep: Endpoint,
            cell: Option<CellId>,
            net: NetId,
        }
        let mut eps: Vec<EpMeta> = Vec::new();
        let mut worst_datapath = 0.0f64;
        let mut worst_net: Option<NetId> = None;
        for (id, inst) in netlist.instances() {
            if !inst.is_sequential() {
                continue;
            }
            let cell = cells[id.index()];
            let setup = cell.seq.expect("flop").setup.value();
            let di = domain_of[id.index()];
            let d_net = inst.inputs[0];
            let arr = arrival[d_net.index()];
            let untimed = untimed_flop[id.index()];
            let (req, slack_v) = if untimed {
                (f64::INFINITY, f64::INFINITY)
            } else {
                let p = domain_period[di].expect("timed flop has a period");
                let factor = multicycle
                    .iter()
                    .find(|(c, _)| *c == id)
                    .map(|(_, f)| *f as f64)
                    .unwrap_or(1.0);
                let req = factor * p + config.derate_early * ins[id.index()]
                    - setup
                    - config.setup_uncertainty.value();
                // Normalize multicycle endpoints to per-period datapath demand.
                let demand = (arr + setup + config.setup_uncertainty.value()
                    - config.derate_early * ins[id.index()])
                    / factor;
                if demand > worst_datapath {
                    worst_datapath = demand;
                    worst_net = Some(d_net);
                }
                (req, req - arr)
            };
            eps.push(EpMeta {
                ep: Endpoint {
                    name: inst.name.clone(),
                    arrival: Time::new(arr),
                    setup: Time::new(setup),
                    slack: Time::new(slack_v),
                    required: Time::new(req),
                    domain: domains[di].name.clone(),
                    untimed,
                },
                cell: Some(id),
                net: d_net,
            });
        }
        for (name, net) in netlist.primary_outputs() {
            let arr = arrival[net.index()];
            let req = period - config.output_delay.value();
            let demand = arr + config.output_delay.value();
            if demand > worst_datapath {
                worst_datapath = demand;
                worst_net = Some(*net);
            }
            eps.push(EpMeta {
                ep: Endpoint {
                    name: format!("port:{name}"),
                    arrival: Time::new(arr),
                    setup: Time::new(0.0),
                    slack: Time::new(req - arr),
                    required: Time::new(req),
                    domain: String::from("core"),
                    untimed: false,
                },
                cell: None,
                net: *net,
            });
        }
        eps.sort_by(|a, b| {
            (a.ep.untimed, a.ep.slack.value())
                .partial_cmp(&(b.ep.untimed, b.ep.slack.value()))
                .expect("comparable slack")
        });

        // TM001: violated timed setup endpoints, worst first.
        for m in &eps {
            if m.ep.untimed || m.ep.slack.value() >= 0.0 {
                continue;
            }
            let msg = format!(
                "setup violated at endpoint '{}': slack {:.1} ps against clock '{}'",
                m.ep.name,
                m.ep.slack.ps(),
                m.ep.domain
            );
            findings.push(match m.cell {
                Some(c) => {
                    Finding::new(Rule::SetupViolation, msg).at_cell(m.ep.name.clone(), c.index())
                }
                None => Finding::new(Rule::SetupViolation, msg)
                    .at_net(netlist.net_name(m.net).to_string(), m.net.index()),
            });
        }

        let wns = eps
            .iter()
            .find(|m| !m.ep.untimed)
            .map(|m| m.ep.slack)
            .unwrap_or(Time::new(period));
        let tns: f64 = eps
            .iter()
            .filter(|m| !m.ep.untimed)
            .map(|m| m.ep.slack.value().min(0.0))
            .sum();
        let violations = eps
            .iter()
            .filter(|m| !m.ep.untimed && m.ep.slack.value() < 0.0)
            .count();
        let fmax = if worst_datapath > 0.0 {
            Hertz::new(1.0 / worst_datapath)
        } else {
            Hertz::from_ghz(1000.0)
        };

        // Early (hold) pass with genuinely fast min-delay arcs.
        let hold_span = telemetry::span("sta.hold");
        let mut min_arrival = vec![f64::INFINITY; n_nets];
        let mut min_slew = vec![config.input_slew.value(); n_nets];
        for (id, inst) in netlist.instances() {
            if !inst.is_sequential() {
                continue;
            }
            let cell = cells[id.index()];
            let out = inst.output.index();
            let arc = cell.min_arc(Time::new(clk_pin_slew[id.index()]), Farad::new(load[out]));
            min_arrival[out] = config.derate_early * (ins[id.index()] + arc.delay.value());
            min_slew[out] = arc.out_slew.value();
        }
        for &id in order {
            let inst = netlist.instance(id);
            let cell = cells[id.index()];
            let out = inst.output.index();
            let mut best_t = f64::INFINITY;
            let mut best_slew = config.input_slew.value();
            for &i in &inst.inputs {
                let ai = min_arrival[i.index()];
                if !ai.is_finite() {
                    continue;
                }
                let arc = cell.min_arc(Time::new(min_slew[i.index()]), Farad::new(load[out]));
                let t = ai + config.derate_early * arc.delay.value();
                if t < best_t {
                    best_t = t;
                    best_slew = arc.out_slew.value();
                }
            }
            if best_t < min_arrival[out] {
                min_arrival[out] = best_t;
                min_slew[out] = best_slew;
            }
        }

        // Hold checks: data must not race through before the same edge's
        // hold window closes at the capturing flop.
        let mut hold_wns = f64::INFINITY;
        let mut hold_violations = 0usize;
        for (id, inst) in netlist.instances() {
            if !inst.is_sequential() {
                continue;
            }
            let cell = cells[id.index()];
            let hold = cell.seq.expect("flop").hold.value();
            let early = min_arrival[inst.inputs[0].index()];
            if early.is_finite() {
                let slack = early
                    - config.derate_late * ins[id.index()]
                    - hold
                    - config.hold_uncertainty.value();
                hold_wns = hold_wns.min(slack);
                if slack < 0.0 {
                    hold_violations += 1;
                    findings.push(
                    Finding::new(
                        Rule::HoldViolation,
                        format!(
                            "hold violated at flop '{}': slack {:.1} ps; data races through before the capture window closes",
                            inst.name,
                            slack * 1e12
                        ),
                    )
                    .at_cell(inst.name.clone(), id.index()),
                );
                }
            }
        }
        if !hold_wns.is_finite() {
            hold_wns = 0.0;
        }
        drop(hold_span);

        // Path enumeration: expand the top-K worst timed endpoints.
        let paths_span = telemetry::span("sta.paths");
        let mut paths = Vec::new();
        for m in eps.iter().filter(|m| !m.ep.untimed).take(config.top_paths) {
            let mut cells = Vec::new();
            let mut cursor = Some(m.net);
            while let Some(net) = cursor {
                match pred[net.index()] {
                    Some(cell) => {
                        cells.push(cell);
                        let inst = netlist.instance(cell);
                        if inst.is_sequential() {
                            break; // reached the launching flop
                        }
                        cursor = inst.inputs.iter().copied().max_by(|a, b| {
                            arrival[a.index()]
                                .partial_cmp(&arrival[b.index()])
                                .expect("finite arrivals")
                        });
                    }
                    None => break, // reached a primary input
                }
            }
            cells.reverse();
            let startpoint = match cells.first() {
                Some(&c) if netlist.instance(c).is_sequential() => netlist.instance(c).name.clone(),
                _ => String::from("primary input"),
            };
            let stages = cells
                .iter()
                .map(|&c| {
                    let inst = netlist.instance(c);
                    let out = inst.output.index();
                    PathStage {
                        cell: c,
                        instance: inst.name.clone(),
                        gate: format!("{:?}/{:?}", inst.function, inst.drive),
                        delay: Time::new(stage_delay[c.index()]),
                        arrival: Time::new(arrival[out]),
                        slew: Time::new(slew[out]),
                        load: Farad::new(load[out]),
                    }
                })
                .collect();
            paths.push(PathReport {
                endpoint: m.ep.name.clone(),
                startpoint,
                domain: m.ep.domain.clone(),
                arrival: m.ep.arrival,
                required: m.ep.required,
                slack: m.ep.slack,
                stages,
            });
        }
        drop(paths_span);

        // Critical path: the worst enumerated path; fall back to the
        // worst-datapath net when every endpoint is untimed.
        let critical_path = match paths.first() {
            Some(p) => p.stages.iter().map(|s| s.cell).collect(),
            None => {
                let mut cp = Vec::new();
                let mut cursor = worst_net;
                while let Some(net) = cursor {
                    match pred[net.index()] {
                        Some(cell) => {
                            cp.push(cell);
                            let inst = netlist.instance(cell);
                            if inst.is_sequential() {
                                break;
                            }
                            cursor = inst.inputs.iter().copied().max_by(|a, b| {
                                arrival[a.index()]
                                    .partial_cmp(&arrival[b.index()])
                                    .expect("finite arrivals")
                            });
                        }
                        None => break,
                    }
                }
                cp.reverse();
                cp
            }
        };

        StaReport {
            clock: config.clock,
            wns,
            tns: Time::new(tns),
            violations,
            fmax,
            critical_path,
            endpoints: eps.iter().map(|m| m.ep.clone()).collect(),
            hold_wns: Time::new(hold_wns),
            hold_violations,
            paths,
            domains,
            design: netlist.name().to_string(),
            findings,
            arrivals: arrival.into_iter().map(Time::new).collect(),
            requireds: required.into_iter().map(Time::new).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_lint::LintLevel;
    use openserdes_pdk::corner::{ProcessCorner, Pvt};
    use openserdes_pdk::stdcell::{DriveStrength, LogicFn};

    fn lib() -> Library {
        Library::sky130(Pvt::nominal())
    }

    fn run(nl: &Netlist, l: &Library, cfg: StaConfig) -> StaReport {
        Sta::new().with_config(cfg).run(nl, l, None).expect("ok")
    }

    /// flop -> N inverters -> flop pipeline.
    fn pipeline(n: usize) -> Netlist {
        let mut nl = Netlist::new("pipe");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q0 = nl.dff(d, clk, DriveStrength::X1);
        let mut s = q0;
        for _ in 0..n {
            s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[s]);
        }
        let q1 = nl.dff(s, clk, DriveStrength::X1);
        nl.mark_output("q", q1);
        nl
    }

    #[test]
    fn longer_paths_have_less_slack() {
        let l = lib();
        let cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        let short = run(&pipeline(2), &l, cfg.clone());
        let long = run(&pipeline(20), &l, cfg);
        assert!(long.wns < short.wns);
        assert!(long.fmax.value() < short.fmax.value());
    }

    #[test]
    fn violations_appear_at_high_clock() {
        let l = lib();
        let nl = pipeline(30);
        let slow = run(&nl, &l, StaConfig::at_clock(Hertz::from_mhz(100.0)));
        assert!(slow.clean(), "100 MHz must close on 30 inverters");
        let fast = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(5.0)));
        assert!(!fast.clean(), "5 GHz must fail on 30 inverters");
        assert!(fast.tns.value() < 0.0);
    }

    #[test]
    fn fmax_consistent_with_slack() {
        let l = lib();
        let nl = pipeline(10);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        // Exactly at fmax the design should be (just) clean.
        let at_fmax = run(
            &nl,
            &l,
            StaConfig::at_clock(Hertz::new(r.fmax.value() * 0.999)),
        );
        assert!(at_fmax.clean(), "wns at 0.999·fmax = {}", at_fmax.wns);
        let above = run(
            &nl,
            &l,
            StaConfig::at_clock(Hertz::new(r.fmax.value() * 1.05)),
        );
        assert!(!above.clean());
    }

    #[test]
    fn critical_path_traverses_the_chain() {
        let l = lib();
        let nl = pipeline(8);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        // Path = launch flop + 8 inverters.
        assert_eq!(r.critical_path.len(), 9);
        let first = nl.instance(r.critical_path[0]);
        assert!(first.is_sequential(), "path starts at the launch flop");
    }

    #[test]
    fn slow_corner_lowers_fmax() {
        let nl = pipeline(10);
        let cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        let tt = run(&nl, &lib(), cfg.clone());
        let ss_lib = Library::sky130(Pvt::new(ProcessCorner::SlowSlow, 1.62, 125.0));
        let ss = run(&nl, &ss_lib, cfg);
        assert!(ss.fmax.value() < tt.fmax.value());
    }

    #[test]
    fn endpoint_list_sorted_by_slack() {
        let l = lib();
        let nl = pipeline(12);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(2.0)));
        for w in r.endpoints.windows(2) {
            assert!(w[0].slack <= w[1].slack);
        }
        assert!(!r.endpoints.is_empty());
    }

    #[test]
    fn hold_clean_with_library_flops() {
        // Even the early clk→Q far exceeds hold (20 ps): back-to-back
        // flops are hold-clean by construction in this library.
        let l = lib();
        let r = run(&pipeline(0), &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        assert_eq!(r.hold_violations, 0);
        assert!(
            r.hold_wns.ps() > 50.0,
            "hold slack = {} ps",
            r.hold_wns.ps()
        );
    }

    #[test]
    fn hold_slack_grows_with_path_depth() {
        let l = lib();
        let cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        let short = run(&pipeline(0), &l, cfg.clone());
        let long = run(&pipeline(10), &l, cfg);
        assert!(long.hold_wns >= short.hold_wns);
    }

    #[test]
    fn multicycle_exception_relaxes_endpoint() {
        let l = lib();
        let nl = pipeline(30);
        let flop = nl
            .instances()
            .filter(|(_, i)| i.is_sequential())
            .map(|(id, _)| id)
            .nth(1)
            .expect("capture flop");
        let tight = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(2.0)));
        assert!(!tight.clean(), "30 inverters fail at 2 GHz single-cycle");
        let mut cfg = StaConfig::at_clock(Hertz::from_ghz(2.0));
        cfg.multicycle = vec![(flop, 8)];
        let relaxed = run(&nl, &l, cfg);
        assert!(
            relaxed.clean(),
            "an 8-cycle exception must absorb the path: wns = {}",
            relaxed.wns
        );
        assert!(relaxed.fmax.value() > tight.fmax.value());
    }

    #[test]
    fn pure_combinational_design_checks_ports() {
        let l = lib();
        let mut nl = Netlist::new("comb");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[a, b]);
        nl.mark_output("y", y);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        assert_eq!(r.endpoints.len(), 1);
        assert!(r.endpoints[0].name.starts_with("port:"));
        assert!(r.clean());
    }

    #[test]
    fn launch_arrival_responds_to_clock_slew() {
        let l = lib();
        let nl = pipeline(2);
        let q0 = nl
            .instances()
            .find(|(_, i)| i.is_sequential())
            .map(|(_, i)| i.output)
            .expect("launch flop");
        let mut slow = StaConfig::at_clock(Hertz::from_ghz(1.0));
        slow.clock_slew = Time::from_ps(400.0);
        let base = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        let degraded = run(&nl, &l, slow);
        assert!(
            degraded.arrival(q0) > base.arrival(q0),
            "a slower clock edge must delay the launch: {} vs {} ps",
            degraded.arrival(q0).ps(),
            base.arrival(q0).ps()
        );
    }

    #[test]
    fn output_delay_tightens_port_slack_exactly() {
        let l = lib();
        let mut nl = Netlist::new("comb");
        let a = nl.add_input("a");
        let y = nl.gate(LogicFn::Buf, DriveStrength::X1, &[a]);
        nl.mark_output("y", y);
        let base = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        let od = Time::from_ps(137.0);
        let mut cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.output_delay = od;
        let tight = run(&nl, &l, cfg);
        let delta = base.endpoints[0].slack.ps() - tight.endpoints[0].slack.ps();
        assert!(
            (delta - od.ps()).abs() < 1e-6,
            "slack must tighten by exactly the output delay, got {delta} ps"
        );
    }

    #[test]
    fn invalid_multicycle_surfaces_tm008() {
        let l = lib();
        let small = pipeline(2);
        let comb = small
            .instances()
            .find(|(_, i)| !i.is_sequential())
            .map(|(id, _)| id)
            .expect("inverter");
        // A CellId minted on a larger netlist does not exist here.
        let big = pipeline(40);
        let foreign = big.cell_ids().last().expect("cells");
        let mut cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.multicycle = vec![(comb, 2), (foreign, 2)];
        let r = run(&small, &l, cfg);
        let tm008: Vec<_> = r
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::InvalidTimingException)
            .collect();
        assert_eq!(tm008.len(), 2, "both bad exceptions must be flagged");
        assert!(
            r.to_lint(&LintConfig::new()).has_errors(),
            "TM008 defaults to Error"
        );
    }

    #[test]
    fn backward_slack_matches_forward_on_every_net() {
        let l = lib();
        let nl = pipeline(8);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(2.0)));
        // On a single chain every net's backward slack equals the
        // endpoint slack the forward pass computed.
        assert!(!r.critical_path.is_empty());
        for &c in &r.critical_path {
            let out = nl.instance(c).output;
            assert!(
                (r.slack(out).ps() - r.wns.ps()).abs() < 1e-3,
                "net {} slack {} ps vs wns {} ps",
                nl.net_name(out),
                r.slack(out).ps(),
                r.wns.ps()
            );
        }
    }

    #[test]
    fn hold_loosens_as_early_derate_rises() {
        let l = lib();
        let nl = pipeline(0);
        let mut prev = f64::NEG_INFINITY;
        for derate in [0.7, 0.85, 1.0] {
            let mut cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
            cfg.derate_early = derate;
            let r = run(&nl, &l, cfg);
            assert!(
                r.hold_wns.ps() >= prev,
                "hold slack must be non-decreasing toward derate 1.0"
            );
            prev = r.hold_wns.ps();
        }
    }

    #[test]
    fn setup_uncertainty_tightens_slack_exactly() {
        let l = lib();
        let nl = pipeline(5);
        let base = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        let mut cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.setup_uncertainty = Time::from_ps(100.0);
        let tight = run(&nl, &l, cfg);
        let delta = base.endpoints[0].slack.ps() - tight.endpoints[0].slack.ps();
        assert!((delta - 100.0).abs() < 1e-6, "got {delta} ps");
    }

    /// Two independent domains: flops on `clka` and `clkb`, no crossing.
    fn two_domain_netlist() -> Netlist {
        let mut nl = Netlist::new("dual");
        let clka = nl.add_input("clka");
        let clkb = nl.add_input("clkb");
        let da = nl.add_input("da");
        let db = nl.add_input("db");
        let qa = nl.dff(da, clka, DriveStrength::X1);
        let qb = nl.dff(db, clkb, DriveStrength::X1);
        nl.mark_output("qa", qa);
        nl.mark_output("qb", qb);
        nl
    }

    #[test]
    fn per_domain_periods_apply() {
        let l = lib();
        let nl = two_domain_netlist();
        let mut cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.clocks = vec![(String::from("clkb"), Hertz::from_mhz(250.0))];
        let r = run(&nl, &l, cfg);
        assert_eq!(r.domains.len(), 2);
        let a = r.domains.iter().find(|d| d.name == "clka").expect("clka");
        let b = r.domains.iter().find(|d| d.name == "clkb").expect("clkb");
        assert!((a.period.expect("timed").ps() - 1000.0).abs() < 1e-6);
        assert!((b.period.expect("timed").ps() - 4000.0).abs() < 1e-6);
        // The slow-clock endpoint has 3 ns more required time.
        let ea = r
            .endpoints
            .iter()
            .find(|e| e.domain == "clka")
            .expect("ep a");
        let eb = r
            .endpoints
            .iter()
            .find(|e| e.domain == "clkb")
            .expect("ep b");
        assert!(eb.slack.ps() > ea.slack.ps() + 2000.0);
    }

    #[test]
    fn cross_domain_paths_are_untimed_and_flagged() {
        let l = lib();
        let mut nl = Netlist::new("cdc");
        let clka = nl.add_input("clka");
        let clkb = nl.add_input("clkb");
        let d = nl.add_input("d");
        let qa = nl.dff(d, clka, DriveStrength::X1);
        let s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[qa]);
        let qb = nl.dff(s, clkb, DriveStrength::X1);
        nl.mark_output("q", qb);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        let capture = r
            .endpoints
            .iter()
            .find(|e| e.domain == "clkb")
            .expect("capture endpoint");
        assert!(
            capture.untimed,
            "cross-domain endpoint is untimed by default"
        );
        assert!(r
            .findings()
            .iter()
            .any(|f| f.rule == Rule::UntimedCrossDomainPath));
        // Untimed endpoints sort last and never count as violations.
        assert!(r.endpoints.last().expect("eps").untimed);
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn unconstrained_generated_clock_is_tm003() {
        let l = lib();
        let mut nl = Netlist::new("ripple");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q0 = nl.dff(d, clk, DriveStrength::X1);
        // Ripple counter style: second flop clocked by the first's Q.
        let q1 = nl.dff(d, q0, DriveStrength::X1);
        nl.mark_output("q", q1);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        assert!(r
            .findings()
            .iter()
            .any(|f| f.rule == Rule::UnconstrainedEndpoint));
        let generated = r.domains.iter().find(|dom| !nl.is_primary_input(dom.root));
        assert!(generated.expect("generated domain").period.is_none());
    }

    #[test]
    fn max_transition_and_max_cap_rules_fire() {
        let l = lib();
        let mut nl = Netlist::new("fanout");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q = nl.dff(d, clk, DriveStrength::X1);
        let big = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q]);
        for _ in 0..200 {
            let qq = nl.dff(big, clk, DriveStrength::X1);
            nl.mark_output("o", qq);
        }
        let mut cfg = StaConfig::at_clock(Hertz::from_mhz(100.0));
        cfg.max_transition = Some(Time::from_ps(100.0));
        let r = run(&nl, &l, cfg);
        assert!(
            r.findings()
                .iter()
                .any(|f| f.rule == Rule::MaxTransitionViolation),
            "an X1 inverter into 200 flops must blow the transition limit"
        );
        assert!(
            r.findings().iter().any(|f| f.rule == Rule::MaxCapViolation),
            "the load far exceeds the X1 max_load characterization"
        );
    }

    #[test]
    fn excessive_skew_is_flagged() {
        let l = lib();
        let mut nl = Netlist::new("skewed");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        // One flop on the raw clock, one behind a long buffer chain.
        let mut late_clk = clk;
        for _ in 0..8 {
            late_clk = nl.gate(LogicFn::Buf, DriveStrength::X1, &[late_clk]);
        }
        let q0 = nl.dff(d, clk, DriveStrength::X1);
        let q1 = nl.dff(q0, late_clk, DriveStrength::X1);
        nl.mark_output("q", q1);
        let mut cfg = StaConfig::at_clock(Hertz::from_mhz(500.0));
        cfg.max_skew = Some(Time::from_ps(10.0));
        let r = run(&nl, &l, cfg);
        assert_eq!(r.domains.len(), 1, "buffered clock traces to the same root");
        assert!(r.domains[0].skew().ps() > 10.0);
        assert!(r
            .findings()
            .iter()
            .any(|f| f.rule == Rule::ExcessiveClockSkew));
    }

    #[test]
    fn path_report_prints_per_stage_breakdown() {
        let l = lib();
        let nl = pipeline(8);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(1.0)));
        assert!(!r.paths.is_empty());
        let p = &r.paths[0];
        assert_eq!(p.stages.len(), 9, "launch flop + 8 inverters");
        let text = p.to_string();
        assert!(text.contains("Startpoint"));
        assert!(text.contains("Endpoint"));
        assert!(text.contains("MET"));
        // Arrivals are cumulative along the path.
        for w in p.stages.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
    }

    #[test]
    fn setup_violations_surface_as_tm001_warnings() {
        let l = lib();
        let nl = pipeline(30);
        let r = run(&nl, &l, StaConfig::at_clock(Hertz::from_ghz(5.0)));
        assert!(!r.clean());
        let lint = r.to_lint(&LintConfig::new());
        assert!(lint.has_warnings(), "TM001 defaults to Warn");
        assert!(!lint.has_errors());
        let strict =
            r.to_lint(&LintConfig::new().set_level(Rule::SetupViolation, LintLevel::Error));
        assert!(
            strict.has_errors(),
            "severity overrides apply to TM findings"
        );
    }

    #[test]
    fn hold_violation_surfaces_as_tm002() {
        let l = lib();
        let nl = pipeline(0);
        let mut cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.hold_uncertainty = Time::from_ps(300.0);
        let r = run(&nl, &l, cfg);
        assert!(r.hold_violations > 0);
        assert!(r.findings().iter().any(|f| f.rule == Rule::HoldViolation));
        assert!(
            r.to_lint(&LintConfig::new()).has_errors(),
            "TM002 defaults to Error"
        );
    }

    /// Every clock shape at once: two port clocks, a buffered branch of
    /// one (skew), a generated clock off a flop, a crossing through a
    /// NAND2 and a buffer-only crossing into a two-flop synchronizer.
    fn clock_zoo() -> Netlist {
        let x1 = DriveStrength::X1;
        let mut nl = Netlist::new("zoo");
        let clka = nl.add_input("clka");
        let clkb = nl.add_input("clkb");
        let d = nl.add_input("d");
        let mut late = clka;
        for _ in 0..3 {
            late = nl.gate(LogicFn::Buf, x1, &[late]);
        }
        let qa = nl.dff(d, clka, x1);
        let qa2 = nl.dff(qa, late, x1);
        let mixed = nl.gate(LogicFn::Nand2, x1, &[qa2, d]);
        let qb = nl.dff(mixed, clkb, x1);
        let buffered = nl.gate(LogicFn::Buf, x1, &[qa]);
        let s1 = nl.dff(buffered, clkb, x1);
        let s2 = nl.dff(s1, clkb, x1);
        let gen = nl.dff(qb, qb, x1);
        let y = nl.gate(LogicFn::Xor2, x1, &[s2, gen]);
        nl.mark_output("y", y);
        nl.mark_output("qa2", qa2);
        nl
    }

    #[test]
    fn clock_zoo_crossings_follow_each_cone() {
        // Flop 6 (clkb) reads flop 4 (clka) through a NAND2 that also
        // reads input `d`, so it stays timed; flop 8 (clkb) reads flop 3
        // (clka) through a buffer only; flop 10 is clocked by flop 6's Q
        // and reads it. Flop 6's cone meets flop 3's at `d`.
        let r = run(
            &clock_zoo(),
            &lib(),
            StaConfig::at_clock(Hertz::from_ghz(1.0)),
        );
        let crossings: Vec<(&str, &str, bool)> = r
            .findings()
            .iter()
            .filter(|f| f.rule == Rule::UntimedCrossDomainPath)
            .map(|f| {
                let dst = f.location.as_ref().expect("capture flop");
                let through_logic = f.message.contains("multi-input logic");
                (dst.name.as_str(), f.related[0].name.as_str(), through_logic)
            })
            .collect();
        assert_eq!(
            crossings,
            [
                ("u_dff_6", "u_dff_4", true),
                ("u_dff_8", "u_dff_3", false),
                ("u_dff_10", "u_dff_6", false),
            ]
        );
        let mut untimed: Vec<&str> = r
            .endpoints
            .iter()
            .filter(|e| e.untimed)
            .map(|e| e.name.as_str())
            .collect();
        untimed.sort_unstable();
        assert_eq!(untimed, ["u_dff_10", "u_dff_8"]);
    }

    #[test]
    fn retime_after_resizing_matches_a_fresh_run() {
        let l = lib();
        let mut nl = clock_zoo();
        let graph = TimingGraph::new(&nl).expect("valid netlist");
        let mut cfg = StaConfig::at_clock(Hertz::from_ghz(2.0));
        cfg.clocks = vec![(String::from("clkb"), Hertz::from_mhz(800.0))];
        cfg.max_skew = Some(Time::from_ps(1.0));
        cfg.max_transition = Some(Time::from_ps(10.0));
        let flop = nl.cell_ids().find(|&c| nl.instance(c).is_sequential());
        cfg.multicycle = vec![(flop.expect("flop"), 2)];
        let sta = Sta::new().with_config(cfg);
        let mut lcg = 0x2545_f491_4f6c_dd1d_u64;
        for round in 0..8 {
            let fresh = sta.run(&nl, &l, None).expect("valid netlist");
            let kept = sta.retime(&graph, &nl, &l, None);
            assert_eq!(format!("{kept:?}"), format!("{fresh:?}"), "round {round}");
            if round == 0 {
                let rules: Vec<Rule> = fresh.findings().iter().map(|f| f.rule).collect();
                for rule in [
                    Rule::UnconstrainedEndpoint,
                    Rule::ExcessiveClockSkew,
                    Rule::UntimedCrossDomainPath,
                    Rule::MaxTransitionViolation,
                ] {
                    assert!(rules.contains(&rule), "{rule:?} missing: {rules:?}");
                }
            }
            let ids: Vec<CellId> = nl.cell_ids().collect();
            for id in ids {
                lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                nl.instance_mut(id).drive = DriveStrength::ALL[(lcg >> 61) as usize % 5];
            }
        }
    }

    #[test]
    #[should_panic(expected = "timing graph built from another netlist")]
    fn retime_rejects_a_graph_of_another_netlist() {
        let graph = TimingGraph::new(&pipeline(3)).expect("valid netlist");
        let _ = Sta::new().retime(&graph, &pipeline(4), &lib(), None);
    }
}
