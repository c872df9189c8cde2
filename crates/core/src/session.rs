//! One coherent entry point over the whole workspace: link runs, analog
//! transients, the RTL→layout flow, design lint and the Monte-Carlo
//! sweeps, all behind a single consuming-builder [`Session`].
//!
//! A `Session` threads its configs into the same engines the builders
//! reach ([`link::run_frames`], [`Flow::run`], [`Sweep`], the inherent
//! `lint` methods), so its outputs equal theirs exactly, and adds what
//! they lack: one place to set the operating point (rate/corner/seed)
//! for every run, and built-in telemetry capture.
//!
//! ```
//! use openserdes_core::session::Session;
//!
//! let mut session = Session::new().with_seed(42).with_telemetry(true);
//! let frames = [[0xDEAD_BEEF_u32, 1, 2, 3, 4, 5, 6, 7]; 2];
//! let report = session.run_link(&frames)?;
//! assert!(report.error_free());
//! // Telemetry captured by the run, merged deterministically:
//! assert!(session.telemetry().counter("link.tx_bits") > 0);
//! # Ok::<(), openserdes_core::error::Error>(())
//! ```

use crate::error::Error;
use crate::job::{FlowSummary, LintSummary, Request, Response, StaSummary};
use crate::link::{self, AnalogFrameReport, FaultReport, LinkConfig, LinkReport};
use crate::serializer::Frame;
use crate::sweep::parallel::CornerPoint;
use crate::sweep::{BathtubPoint, Sweep, SweepPoint};
use openserdes_fault::FaultSchedule;
use openserdes_flow::ir::Design;
use openserdes_flow::{Flow, FlowConfig, FlowResult, Sta, StaConfig, StaReport};
use openserdes_lint::{LintConfig, LintReport};
use openserdes_netlist::Netlist;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::Hertz;
use openserdes_telemetry as telemetry;

/// The unified front door: holds one operating point (link config, flow
/// config, STA config, sweep options, run seed) and runs any engine at
/// it. Construct with [`Session::new`], shape with the consuming
/// `with_*` builders, then call the `run_*`/sweep methods.
///
/// When telemetry is enabled ([`Session::with_telemetry`]) every run
/// executes under an enabled telemetry scope and its spans, counters
/// and histograms are merged into the session's accumulated
/// [`telemetry::Record`] — deterministically, so two sessions issuing
/// the same runs hold bit-identical records regardless of worker
/// counts. Inspect with [`Session::telemetry`], drain with
/// [`Session::take_telemetry`].
#[derive(Debug, Clone)]
pub struct Session {
    link: LinkConfig,
    flow: FlowConfig,
    sta: StaConfig,
    sweep: Sweep,
    seed: u64,
    telemetry: bool,
    record: telemetry::Record,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

impl Session {
    /// A session at the paper's operating point (2 Gb/s over a 34 dB
    /// channel, nominal corner), telemetry off.
    pub fn new() -> Self {
        Self {
            link: LinkConfig::paper_default(),
            flow: FlowConfig::default(),
            sta: StaConfig::default(),
            sweep: Sweep::new(),
            seed: 42,
            telemetry: false,
            record: telemetry::Record::new(),
        }
    }

    // ---- builders ---------------------------------------------------

    /// Replace the whole link configuration.
    #[must_use]
    pub fn with_link_config(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Set the PVT corner for both the link and the flow.
    #[must_use]
    pub fn with_corner(mut self, pvt: Pvt) -> Self {
        self.link.pvt = pvt;
        self.flow.pvt = pvt;
        self
    }

    /// Replace the whole flow configuration.
    #[must_use]
    pub fn with_flow_config(mut self, flow: FlowConfig) -> Self {
        self.flow = flow;
        self
    }

    /// Replace the standalone timing-signoff configuration used by
    /// [`Session::sta`] (clock, slews, uncertainties, derates,
    /// secondary clocks, exceptions).
    #[must_use]
    pub fn with_sta_config(mut self, sta: StaConfig) -> Self {
        self.sta = sta;
        self
    }

    /// Replace the sweep options (bits, phases, frames, tolerance).
    /// The sweep's own seed and thread count still apply.
    #[must_use]
    pub fn with_sweep(mut self, sweep: Sweep) -> Self {
        self.sweep = sweep;
        self
    }

    /// Set the run seed for link runs and Monte-Carlo sweeps.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.sweep = self.sweep.with_seed(seed);
        self
    }

    /// Set the worker-thread count for sweeps. Results are identical
    /// for any value; only wall time changes.
    ///
    /// Contract: `0` is clamped to `1` (see [`Sweep::with_threads`]),
    /// so wire-supplied configs can never poison the worker pool.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.sweep = self.sweep.with_threads(threads);
        self
    }

    /// Enable or disable telemetry capture for every subsequent run.
    #[must_use]
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    // ---- accessors --------------------------------------------------

    /// The sweep options.
    pub fn sweep_options(&self) -> &Sweep {
        &self.sweep
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Telemetry accumulated by this session's runs so far (empty when
    /// telemetry is disabled).
    pub fn telemetry(&self) -> &telemetry::Record {
        &self.record
    }

    /// Drain the accumulated telemetry, leaving the session's record
    /// empty — hand the result to the exporters in
    /// `openserdes_telemetry::export`.
    pub fn take_telemetry(&mut self) -> telemetry::Record {
        std::mem::take(&mut self.record)
    }

    // ---- runs -------------------------------------------------------

    /// Run `frames` through the full link (serializer → statistical PHY
    /// → CDR → deserializer) at the session's operating point and seed.
    ///
    /// # Errors
    ///
    /// Propagates link failures as the unified [`Error`].
    pub fn run_link(&mut self, frames: &[Frame]) -> Result<LinkReport, Error> {
        let (link, seed) = (self.link.clone(), self.seed);
        self.scoped(|| link::run_frames(&link, frames, seed))
    }

    /// Run one frame through the transistor-level analog PHY transient
    /// (slow; the full SPICE-style route).
    ///
    /// # Errors
    ///
    /// Propagates solver and link failures as the unified [`Error`].
    pub fn run_analog_link(&mut self, frame: Frame) -> Result<AnalogFrameReport, Error> {
        let link = self.link.clone();
        self.scoped(|| link::run_frame_analog(&link, frame))
    }

    /// Run `frames` through the link while injecting the faults in
    /// `schedule` (channel bursts/dropouts/droops, clock glitches and
    /// drift, SEUs), and report the link outcome together with the
    /// CDR's resilience metrics. An empty schedule reproduces
    /// [`Session::run_link`] bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates link failures as the unified [`Error`].
    pub fn run_link_with_faults(
        &mut self,
        frames: &[Frame],
        schedule: &FaultSchedule,
    ) -> Result<FaultReport, Error> {
        let (link, seed) = (self.link.clone(), self.seed);
        self.scoped(|| link::run_frames_with_faults(&link, frames, seed, schedule))
    }

    /// Push a design through the RTL→layout flow (synthesis → place →
    /// CTS → route → STA → power) at the session's corner.
    ///
    /// # Errors
    ///
    /// Propagates flow failures as the unified [`Error`].
    pub fn run_flow(&mut self, design: &Design) -> Result<FlowResult, Error> {
        let flow = Flow::new().with_config(self.flow.clone());
        self.scoped(|| flow.run(design)).map_err(Error::from)
    }

    /// Run standalone static timing signoff over a mapped netlist at
    /// the session's corner and STA configuration (see
    /// [`Session::with_sta_config`]). Pass a route for post-layout wire
    /// RC, or `None` for the pre-layout wireload estimate. The returned
    /// [`StaReport`] carries per-net slack, top-K path reports, clock
    /// domains and the `TM0xx` findings bridge.
    ///
    /// # Errors
    ///
    /// Propagates netlist validation failures as the unified [`Error`].
    pub fn sta(
        &mut self,
        netlist: &Netlist,
        route: Option<&openserdes_flow::route::RouteResult>,
    ) -> Result<StaReport, Error> {
        let sta = Sta::new().with_config(self.sta.clone());
        let pvt = self.flow.pvt;
        self.scoped(|| {
            let library = openserdes_pdk::library::Library::sky130(pvt);
            sta.run(netlist, &library, route)
        })
        .map_err(Error::from)
    }

    /// Run the `IR0xx` lint rules over a design under the default lint
    /// policy.
    pub fn lint(&mut self, design: &Design) -> LintReport {
        self.scoped(|| design.lint(&LintConfig::default()))
    }

    // ---- sweeps -----------------------------------------------------

    /// BER bathtub at the session's operating point.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as the unified [`Error`].
    ///
    /// # Panics
    ///
    /// Panics if the sweep options' [`Sweep::bits`] is below 2.
    pub fn bathtub(&mut self) -> Result<Vec<BathtubPoint>, Error> {
        let (sweep, link) = (self.sweep, self.link.clone());
        self.scoped(|| sweep.bathtub(&link))
    }

    /// Maximum error-free channel loss at the session's operating point.
    ///
    /// # Errors
    ///
    /// Propagates link failures as the unified [`Error`].
    pub fn max_loss(&mut self) -> Result<f64, Error> {
        let (sweep, link) = (self.sweep, self.link.clone());
        self.scoped(|| sweep.max_loss(&link))
    }

    /// Maximum channel loss at each data rate.
    ///
    /// # Errors
    ///
    /// Propagates the first link failure in rate order.
    pub fn rate_sweep(&mut self, rates: &[Hertz]) -> Result<Vec<SweepPoint>, Error> {
        let (sweep, link) = (self.sweep, self.link.clone());
        self.scoped(|| sweep.rate_sweep(&link, rates))
    }

    /// Maximum channel loss and front-end sensitivity at the tt/ss/ff
    /// corners, one isolated work item per corner (see
    /// [`Sweep::corner_sweep`]).
    ///
    /// # Errors
    ///
    /// Propagates the first link failure in corner order.
    pub fn corner_sweep(&mut self) -> Result<Vec<CornerPoint>, Error> {
        let (sweep, link) = (self.sweep, self.link.clone());
        self.scoped(|| sweep.corner_sweep(&link))
    }

    /// Model-route sensitivity sweep across `rates` at the session's
    /// corner.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as the unified [`Error`].
    pub fn sensitivity_sweep(&mut self, rates: &[Hertz]) -> Result<Vec<SweepPoint>, Error> {
        let (sweep, pvt) = (self.sweep, self.link.pvt);
        self.scoped(|| sweep.sensitivity(pvt, rates))
    }

    // ---- serializable job API ---------------------------------------

    /// Run one serializable job. This is the same engine surface as the
    /// typed `run_*`/sweep methods behind one wire-shaped vocabulary:
    /// the [`Request`] carries its full operating point, and the only
    /// session state that participates is the run seed (half of the
    /// job's content address, see [`crate::job::JobKey`]), the sweep
    /// worker count (never changes results) and the telemetry policy.
    /// Identical `(Request, seed)` pairs therefore produce
    /// byte-identical canonical [`Response`] payloads on any host at
    /// any worker count — the property the `openserdes-serve` cache
    /// and coalescer are built on.
    ///
    /// The typed methods remain the ergonomic in-process path; `submit`
    /// is for callers that hold jobs as data (servers, queues, replay).
    ///
    /// # Errors
    ///
    /// Propagates engine failures as the unified [`Error`]; never
    /// returns [`Error::Parse`] (parsing happens before a `Request`
    /// exists).
    pub fn submit(&mut self, request: &Request) -> Result<Response, Error> {
        let seed = self.seed;
        let req_sweep =
            |spec: &crate::job::SweepSpec, base: Sweep| spec.apply(base).with_seed(seed);
        match request {
            Request::RunLink { config, frames } => {
                let config = config.clone();
                self.scoped(|| link::run_frames(&config, frames, seed))
                    .map(Response::Link)
            }
            Request::RunLinkWithFaults {
                config,
                frames,
                schedule,
            } => {
                let config = config.clone();
                self.scoped(|| link::run_frames_with_faults(&config, frames, seed, schedule))
                    .map(Response::Faulted)
            }
            Request::RunFlow { design, pvt } => {
                let flow = Flow::new().with_config(FlowConfig {
                    pvt: *pvt,
                    ..FlowConfig::default()
                });
                let built = design.build();
                self.scoped(|| flow.run(&built))
                    .map(|result| Response::Flow(FlowSummary::from_result(design, &result)))
                    .map_err(Error::from)
            }
            Request::Bathtub { config, sweep } => {
                let (sweep, config) = (req_sweep(sweep, self.sweep), config.clone());
                self.scoped(|| sweep.bathtub(&config))
                    .map(Response::Bathtub)
            }
            Request::MaxLoss { config, sweep } => {
                let (sweep, config) = (req_sweep(sweep, self.sweep), config.clone());
                self.scoped(|| sweep.max_loss(&config))
                    .map(|max_loss_db| Response::MaxLoss { max_loss_db })
            }
            Request::RateSweep {
                config,
                sweep,
                rates,
            } => {
                let (sweep, config) = (req_sweep(sweep, self.sweep), config.clone());
                self.scoped(|| sweep.rate_sweep(&config, rates))
                    .map(Response::Rates)
            }
            Request::CornerSweep { config, sweep } => {
                let (sweep, config) = (req_sweep(sweep, self.sweep), config.clone());
                self.scoped(|| sweep.corner_sweep(&config))
                    .map(Response::Corners)
            }
            Request::Sta { design, pvt, clock } => {
                let built = design.build();
                let (pvt, clock) = (*pvt, *clock);
                self.scoped(|| {
                    let library = openserdes_pdk::library::Library::sky130(pvt);
                    let synth = openserdes_flow::synthesize(&built, &library)?;
                    let mut cfg = StaConfig::at_clock(clock);
                    cfg.multicycle = synth.multicycle.clone();
                    let report = Sta::new()
                        .with_config(cfg)
                        .run(&synth.netlist, &library, None)?;
                    Ok(Response::Sta(StaSummary::from_report(design, &report)))
                })
                .map_err(|e: openserdes_netlist::NetlistError| e.into())
            }
            Request::Lint { design } => {
                let report = self.lint(&design.build());
                Ok(Response::Lint(LintSummary::from_report(&report)))
            }
        }
    }

    /// Run `f` under the session's telemetry policy: when capture is on,
    /// hold recording on for the duration, collect what `f` records, and
    /// merge it into the session's accumulated record.
    fn scoped<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if !self.telemetry {
            return f();
        }
        let _recording = telemetry::enable_scope();
        let (out, rec) = telemetry::collect(f);
        self.record.merge(rec, telemetry::max_events());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = [0u32; 8];
                for (k, w) in f.iter_mut().enumerate() {
                    *w = (i * 8 + k) as u32 ^ 0xA5A5_5A5A;
                }
                f
            })
            .collect()
    }

    #[test]
    fn session_matches_link_engine() {
        let stim = frames(3);
        let direct = link::run_frames(&LinkConfig::paper_default(), &stim, 7).expect("direct");
        let via = Session::new()
            .with_seed(7)
            .run_link(&stim)
            .expect("session");
        assert_eq!(via, direct);
        assert_eq!(via.bit_errors, direct.bit_errors);
    }

    #[test]
    fn telemetry_accumulates_and_drains() {
        let mut s = Session::new().with_telemetry(true);
        s.run_link(&frames(1)).expect("runs");
        assert!(s.telemetry().counter("link.tx_bits") > 0);
        assert!(s.telemetry().span("link.run").is_some());
        let rec = s.take_telemetry();
        assert!(!rec.is_empty());
        assert!(s.telemetry().is_empty(), "drained");
        // Telemetry disabled: runs record nothing.
        let mut quiet = Session::new();
        quiet.run_link(&frames(1)).expect("runs");
        assert!(quiet.telemetry().is_empty());
    }

    #[test]
    fn operating_point_threads_through() {
        let s = Session::new().with_corner(Pvt::worst_case());
        assert_eq!(s.link.pvt, Pvt::worst_case());
        assert_eq!(s.flow.pvt, Pvt::worst_case());
    }

    #[test]
    fn session_faulted_run_with_empty_schedule_matches_run_link() {
        let stim = frames(2);
        let mut s = Session::new().with_seed(7);
        let plain = s.run_link(&stim).expect("plain");
        let faulted = s
            .run_link_with_faults(&stim, &FaultSchedule::new(7))
            .expect("faulted");
        assert_eq!(faulted.link, plain);
        assert_eq!(faulted.injected_channel, 0);
        assert_eq!(faulted.injected_clock, 0);
        assert_eq!(faulted.injected_digital, 0);
    }

    #[test]
    fn session_sta_matches_direct_run() {
        use openserdes_flow::Sta;
        use openserdes_pdk::library::Library;
        use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
        let mut nl = Netlist::new("pipe");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q0 = nl.dff(d, clk, DriveStrength::X1);
        let s1 = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q0]);
        let q1 = nl.dff(s1, clk, DriveStrength::X1);
        nl.mark_output("q", q1);
        let direct = Sta::new()
            .run(&nl, &Library::sky130(Pvt::nominal()), None)
            .expect("direct");
        let mut s = Session::new().with_telemetry(true);
        let via = s.sta(&nl, None).expect("session sta");
        assert_eq!(via, direct);
        let run = s.telemetry().span("sta.run").expect("sta.run span");
        assert!(run.child("sta.forward").is_some());
        assert!(run.child("sta.backward").is_some());
        assert!(run.child("sta.hold").is_some());
        assert!(run.child("sta.paths").is_some());
    }

    #[test]
    fn submit_matches_typed_methods() {
        use crate::job::{DesignSpec, Request, Response, SweepSpec};
        let stim = frames(2);
        let mut s = Session::new().with_seed(11);
        let direct = s.run_link(&stim).expect("typed");
        let via = s
            .submit(&Request::RunLink {
                config: s.link.clone(),
                frames: stim.clone(),
            })
            .expect("submitted");
        assert_eq!(via, Response::Link(direct));

        let mut s = Session::new()
            .with_seed(11)
            .with_sweep(Sweep::new().with_frames(4).with_tolerance_db(2.0));
        let direct = s.max_loss().expect("typed");
        let via = s
            .submit(&Request::MaxLoss {
                config: s.link.clone(),
                sweep: SweepSpec::from(s.sweep_options()),
            })
            .expect("submitted");
        assert_eq!(
            via,
            Response::MaxLoss {
                max_loss_db: direct
            }
        );

        let mut s = Session::new();
        let design = DesignSpec::Serializer;
        let direct = s.lint(&design.build());
        let via = s.submit(&Request::Lint { design }).expect("submitted");
        match via {
            Response::Lint(summary) => {
                assert_eq!(summary.findings.len(), direct.findings().len());
            }
            other => panic!("expected lint summary, got {other:?}"),
        }
    }

    #[test]
    fn with_threads_zero_clamps_to_one() {
        let s = Session::new().with_threads(0);
        assert_eq!(s.sweep_options().threads(), 1);
        assert_eq!(Sweep::new().with_threads(0).threads(), 1);
        // A clamped session still runs sweeps.
        let mut s = s.with_sweep(
            Sweep::new()
                .with_frames(2)
                .with_tolerance_db(4.0)
                .with_threads(0),
        );
        assert_eq!(s.sweep_options().threads(), 1);
        s.max_loss().expect("single-worker sweep runs");
    }

    #[test]
    fn session_lint_matches_inherent() {
        let mut d = Design::new("t");
        let a = d.input("a");
        d.output("y", a);
        let direct = d.lint(&LintConfig::default());
        let via = Session::new().lint(&d);
        assert_eq!(via.findings().len(), direct.findings().len());
    }
}
