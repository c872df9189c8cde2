//! The serializable job API: one [`Request`] / [`Response`] vocabulary
//! for every engine the [`crate::session::Session`] fronts.
//!
//! The ergonomic path stays the typed `Session` methods
//! (`run_link`, `bathtub`, `corner_sweep`, ...); this module is the
//! *wire-shaped* spelling of the same jobs. A [`Request`] is fully
//! self-contained — it carries its own operating point (link config,
//! sweep knobs, PVT, design spec) — so the pair `(Request, seed)`
//! determines the [`Response`] exactly, bit for bit, at any worker
//! count. That is the property `openserdes-serve` builds on: the
//! canonical encoding of `(Request, seed)` ([`JobKey`]) is a *content
//! address* for the result, so cache hits are exact and identical
//! in-flight requests can be coalesced.
//!
//! Canonical encoding: [`Request::to_canonical_json`] and
//! [`Response::to_canonical_json`] write compact JSON with a fixed,
//! code-defined field order, `{:?}`-formatted floats (shortest exact
//! round-trip) and full-width integers — see [`crate::json`]. Both
//! directions round-trip: `to_canonical_json` after `from_json` is
//! byte-identical.
//!
//! Fault schedules are written and read here too:
//! [`fault_schedule_to_json`] / [`fault_schedule_from_json`] handle the
//! `openserdes-fault-schedule/1` file with the same event writer and
//! reader as the `faults` object of [`Request::RunLinkWithFaults`].
//!
//! ```
//! use openserdes_core::job::{Request, Response, SweepSpec};
//! use openserdes_core::link::LinkConfig;
//! use openserdes_core::session::Session;
//!
//! let request = Request::MaxLoss {
//!     config: LinkConfig::paper_default(),
//!     sweep: SweepSpec::default(),
//! };
//! let mut session = Session::new().with_seed(7);
//! let response = session.submit(&request)?;
//! assert!(matches!(response, Response::MaxLoss { .. }));
//! // The canonical bytes round-trip exactly.
//! let json = request.to_canonical_json();
//! assert_eq!(Request::from_json(&json)?.to_canonical_json(), json);
//! # Ok::<(), openserdes_core::error::Error>(())
//! ```

use crate::error::Error;
use crate::json::{self, Json};
use crate::link::{FaultReport, LinkConfig, LinkReport};
use crate::serializer::{Frame, LANES};
use crate::sweep::parallel::CornerPoint;
use crate::sweep::{BathtubPoint, Sweep, SweepPoint};
use openserdes_fault::{FaultEvent, FaultKind, FaultSchedule};
use openserdes_flow::ir::Design;
use openserdes_flow::{FlowResult, StaReport};
use openserdes_lint::{LintReport, Severity};
use openserdes_netlist::NetlistStats;
use openserdes_pdk::corner::{ProcessCorner, Pvt};
use openserdes_pdk::units::{Hertz, Time, Volt};
use openserdes_phy::ChannelModel;
use std::fmt::Write as _;

/// One job for any engine behind the Session front door. Every variant
/// carries its full operating point, so a request means the same thing
/// on every server and in every process — nothing is implied by session
/// state except the run seed and the worker count (which never changes
/// results).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run frames through the fast link (serializer → statistical PHY →
    /// CDR → deserializer). [`crate::session::Session::run_link`].
    RunLink {
        /// Operating point.
        config: LinkConfig,
        /// Payload frames.
        frames: Vec<Frame>,
    },
    /// Link run under an injected fault schedule.
    /// [`crate::session::Session::run_link_with_faults`].
    RunLinkWithFaults {
        /// Operating point.
        config: LinkConfig,
        /// Payload frames.
        frames: Vec<Frame>,
        /// The fault campaign to inject.
        schedule: FaultSchedule,
    },
    /// RTL→layout flow over a named example design.
    /// [`crate::session::Session::run_flow`].
    RunFlow {
        /// Which design to push through the flow.
        design: DesignSpec,
        /// Corner to characterize the library at.
        pvt: Pvt,
    },
    /// BER bathtub. [`crate::session::Session::bathtub`].
    Bathtub {
        /// Operating point.
        config: LinkConfig,
        /// Monte-Carlo knobs.
        sweep: SweepSpec,
    },
    /// Maximum error-free channel loss.
    /// [`crate::session::Session::max_loss`].
    MaxLoss {
        /// Operating point.
        config: LinkConfig,
        /// Monte-Carlo knobs.
        sweep: SweepSpec,
    },
    /// Maximum loss at each data rate.
    /// [`crate::session::Session::rate_sweep`].
    RateSweep {
        /// Operating point (the rate field is overridden per point).
        config: LinkConfig,
        /// Monte-Carlo knobs.
        sweep: SweepSpec,
        /// Data rates to probe.
        rates: Vec<Hertz>,
    },
    /// Loss and sensitivity at the tt/ss/ff corners.
    /// [`crate::session::Session::corner_sweep`].
    CornerSweep {
        /// Operating point.
        config: LinkConfig,
        /// Monte-Carlo knobs.
        sweep: SweepSpec,
    },
    /// Static timing signoff over a named design synthesized at a
    /// corner. [`crate::session::Session::sta`].
    Sta {
        /// Which design to synthesize and time.
        design: DesignSpec,
        /// Corner to characterize the library at.
        pvt: Pvt,
        /// Clock to check against.
        clock: Hertz,
    },
    /// `IR0xx` lint over a named design at the default policy.
    /// [`crate::session::Session::lint`].
    Lint {
        /// Which design to lint.
        design: DesignSpec,
    },
}

/// The result vocabulary matching [`Request`], plus the scheduler's
/// [`Response::Shed`] — the typed "overloaded, dropped before running"
/// answer `openserdes-serve` returns instead of failing or panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Result of [`Request::RunLink`].
    Link(LinkReport),
    /// Result of [`Request::RunLinkWithFaults`].
    Faulted(FaultReport),
    /// Result of [`Request::RunFlow`].
    Flow(FlowSummary),
    /// Result of [`Request::Bathtub`].
    Bathtub(Vec<BathtubPoint>),
    /// Result of [`Request::MaxLoss`].
    MaxLoss {
        /// Maximum error-free channel attenuation in dB.
        max_loss_db: f64,
    },
    /// Result of [`Request::RateSweep`].
    Rates(Vec<SweepPoint>),
    /// Result of [`Request::CornerSweep`].
    Corners(Vec<CornerPoint>),
    /// Result of [`Request::Sta`].
    Sta(StaSummary),
    /// Result of [`Request::Lint`].
    Lint(LintSummary),
    /// The job was dropped by an overloaded scheduler before running.
    Shed(ShedInfo),
    /// The job's deadline expired while it was queued; it was retired
    /// at dequeue instead of burning a worker on a result nobody is
    /// waiting for.
    DeadlineExceeded(DeadlineInfo),
}

/// A serializable reference to one of the shipped example designs —
/// the wire-safe stand-in for passing a whole
/// [`openserdes_flow::ir::Design`] by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignSpec {
    /// The 256-bit frame serializer ([`crate::serializer_design`]).
    Serializer,
    /// The frame deserializer ([`crate::deserializer_design`]).
    Deserializer,
    /// The oversampling CDR ([`crate::cdr_design`]).
    Cdr {
        /// Samples per unit interval (3..=8, what [`crate::cdr_design`]
        /// accepts).
        oversampling: usize,
    },
    /// The scan chain ([`crate::scan_chain_design`]).
    ScanChain,
    /// The integrated digital top ([`crate::serdes_digital_top`]).
    DigitalTop {
        /// Samples per unit interval (3..=8).
        oversampling: usize,
    },
}

impl DesignSpec {
    /// Stable wire tag, also used as the design label in summaries.
    pub fn tag(&self) -> &'static str {
        match self {
            DesignSpec::Serializer => "serializer",
            DesignSpec::Deserializer => "deserializer",
            DesignSpec::Cdr { .. } => "cdr",
            DesignSpec::ScanChain => "scan_chain",
            DesignSpec::DigitalTop { .. } => "digital_top",
        }
    }

    /// Materializes the referenced design.
    pub fn build(&self) -> Design {
        match *self {
            DesignSpec::Serializer => crate::serializer::serializer_design(),
            DesignSpec::Deserializer => crate::deserializer::deserializer_design(),
            DesignSpec::Cdr { oversampling } => crate::cdr::cdr_design(oversampling),
            DesignSpec::ScanChain => crate::scan::scan_chain_design(),
            DesignSpec::DigitalTop { oversampling } => crate::top::serdes_digital_top(oversampling),
        }
    }
}

/// The Monte-Carlo knobs of a [`Sweep`], minus the seed and worker
/// count: the seed comes from the job envelope (it is half of the
/// content address) and the worker count can never change results, so
/// neither belongs in the serialized request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepSpec {
    /// PRBS bits measured per bathtub phase.
    pub bits: usize,
    /// Sampling phases across the unit interval.
    pub phases: usize,
    /// Frames per error-free probe in the loss bisections.
    pub frames: usize,
    /// Bisection tolerance in dB.
    pub tol_db: f64,
}

impl Default for SweepSpec {
    /// The paper-default knobs of [`Sweep::new`].
    fn default() -> Self {
        SweepSpec::from(&Sweep::new())
    }
}

impl From<&Sweep> for SweepSpec {
    fn from(sweep: &Sweep) -> Self {
        Self {
            bits: sweep.bits(),
            phases: sweep.phases(),
            frames: sweep.frames(),
            tol_db: sweep.tolerance_db(),
        }
    }
}

impl SweepSpec {
    /// Applies these knobs onto `base`, keeping `base`'s seed and
    /// worker count.
    pub fn apply(&self, base: Sweep) -> Sweep {
        base.with_bits(self.bits)
            .with_phases(self.phases)
            .with_frames(self.frames)
            .with_tolerance_db(self.tol_db)
    }
}

/// Serializable digest of a [`FlowResult`] — the numbers a remote
/// caller acts on, without the netlists and placements behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Design label (the [`DesignSpec::tag`]).
    pub design: String,
    /// Placed cell count.
    pub cells: usize,
    /// Flip-flop count.
    pub flops: usize,
    /// Net count.
    pub nets: usize,
    /// Block area (cells + clock buffers) in µm².
    pub area_um2: f64,
    /// Total power (including clock tree) in mW.
    pub power_mw: f64,
    /// Maximum clock frequency in GHz.
    pub fmax_ghz: f64,
    /// Worst negative setup slack in ps.
    pub wns_ps: f64,
    /// Total negative setup slack in ps.
    pub tns_ps: f64,
    /// Violated setup endpoints.
    pub violations: usize,
    /// Violated hold endpoints.
    pub hold_violations: usize,
}

impl FlowSummary {
    /// Digests a flow result under the given design label.
    pub fn from_result(design: &DesignSpec, result: &FlowResult) -> Self {
        let stats: &NetlistStats = &result.stats;
        Self {
            design: design.tag().to_string(),
            cells: stats.cell_count,
            flops: stats.flop_count,
            nets: stats.net_count,
            area_um2: result.area().value(),
            power_mw: result.total_power().value() * 1e3,
            fmax_ghz: result.timing.fmax.ghz(),
            wns_ps: result.timing.wns.value() * 1e12,
            tns_ps: result.timing.tns.value() * 1e12,
            violations: result.timing.violations,
            hold_violations: result.timing.hold_violations,
        }
    }
}

/// Serializable digest of a [`StaReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct StaSummary {
    /// Design label (the [`DesignSpec::tag`]).
    pub design: String,
    /// Clock the design was checked against, in GHz.
    pub clock_ghz: f64,
    /// Maximum clock frequency in GHz.
    pub fmax_ghz: f64,
    /// Worst negative setup slack in ps.
    pub wns_ps: f64,
    /// Total negative setup slack in ps.
    pub tns_ps: f64,
    /// Violated setup endpoints.
    pub violations: usize,
    /// Worst hold slack in ps (positive = clean).
    pub hold_wns_ps: f64,
    /// Violated hold endpoints.
    pub hold_violations: usize,
    /// Timed endpoint count.
    pub endpoints: usize,
    /// Clock domain count.
    pub domains: usize,
}

impl StaSummary {
    /// Digests an STA report under the given design label.
    pub fn from_report(design: &DesignSpec, report: &StaReport) -> Self {
        Self {
            design: design.tag().to_string(),
            clock_ghz: report.clock.ghz(),
            fmax_ghz: report.fmax.ghz(),
            wns_ps: report.wns.value() * 1e12,
            tns_ps: report.tns.value() * 1e12,
            violations: report.violations,
            hold_wns_ps: report.hold_wns.value() * 1e12,
            hold_violations: report.hold_violations,
            endpoints: report.endpoints.len(),
            domains: report.domains.len(),
        }
    }
}

/// One serialized lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FindingSummary {
    /// Stable rule code (`IR001`, ...).
    pub rule: String,
    /// Effective severity: `info`, `warn` or `error`.
    pub severity: String,
    /// Human-readable message.
    pub message: String,
}

/// Serializable digest of a [`LintReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintSummary {
    /// Error-level finding count.
    pub errors: usize,
    /// Warn-level finding count.
    pub warnings: usize,
    /// Info-level finding count.
    pub infos: usize,
    /// Findings dropped by the policy's `allow` list.
    pub suppressed: usize,
    /// The findings, in emission order.
    pub findings: Vec<FindingSummary>,
}

impl LintSummary {
    /// Digests a lint report.
    pub fn from_report(report: &LintReport) -> Self {
        Self {
            errors: report.count(Severity::Error),
            warnings: report.count(Severity::Warn),
            infos: report.count(Severity::Info),
            suppressed: report.suppressed(),
            findings: report
                .findings()
                .iter()
                .map(|f| FindingSummary {
                    rule: f.rule.code().to_string(),
                    severity: severity_tag(f.severity).to_string(),
                    message: f.message.clone(),
                })
                .collect(),
        }
    }
}

/// Why and where a job was shed by an overloaded scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedInfo {
    /// Tenant whose job was dropped.
    pub tenant: String,
    /// The dropped job's priority (higher survives longer).
    pub priority: u8,
    /// Jobs queued ahead of the drop decision.
    pub queue_depth: usize,
}

/// Why a job was retired with [`Response::DeadlineExceeded`]: its
/// envelope deadline elapsed before a worker picked it up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlineInfo {
    /// Tenant whose job expired.
    pub tenant: String,
    /// The deadline the envelope asked for, in milliseconds from
    /// submission.
    pub deadline_ms: u64,
    /// How long the job actually sat queued before being retired, in
    /// milliseconds (wall clock; informational, not part of any
    /// determinism contract).
    pub queued_ms: u64,
}

fn severity_tag(sev: Severity) -> &'static str {
    match sev {
        Severity::Info => "info",
        Severity::Warn => "warn",
        Severity::Error => "error",
    }
}

fn parse_err(msg: impl Into<String>) -> Error {
    Error::Parse(msg.into())
}

// ====================================================================
// Canonical encoding
// ====================================================================

fn push_pvt(out: &mut String, pvt: &Pvt) {
    let corner = match pvt.corner {
        ProcessCorner::Typical => "tt",
        ProcessCorner::SlowSlow => "ss",
        ProcessCorner::FastFast => "ff",
        ProcessCorner::SlowFast => "sf",
        ProcessCorner::FastSlow => "fs",
    };
    out.push_str("{\"corner\":\"");
    out.push_str(corner);
    out.push_str("\",\"vdd_v\":");
    json::push_f64(out, pvt.vdd.value());
    out.push_str(",\"temp_c\":");
    json::push_f64(out, pvt.temp_c);
    out.push('}');
}

fn parse_pvt(v: &Json) -> Result<Pvt, String> {
    let obj = v.as_obj("pvt")?;
    let corner = match json::get(obj, "corner")?.as_str("corner")? {
        "tt" => ProcessCorner::Typical,
        "ss" => ProcessCorner::SlowSlow,
        "ff" => ProcessCorner::FastFast,
        "sf" => ProcessCorner::SlowFast,
        "fs" => ProcessCorner::FastSlow,
        other => return Err(format!("unknown process corner `{other}`")),
    };
    Ok(Pvt {
        corner,
        vdd: Volt::new(json::get(obj, "vdd_v")?.as_f64("vdd_v")?),
        temp_c: json::get(obj, "temp_c")?.as_f64("temp_c")?,
    })
}

fn push_channel(out: &mut String, ch: &ChannelModel) {
    out.push_str("{\"attenuation_db\":");
    json::push_f64(out, ch.attenuation_db);
    out.push_str(",\"bandwidth_hz\":");
    json::push_f64(out, ch.bandwidth.value());
    out.push_str(",\"noise_sigma_v\":");
    json::push_f64(out, ch.noise_sigma.value());
    out.push_str(",\"rj_sigma_s\":");
    json::push_f64(out, ch.rj_sigma.value());
    out.push_str(",\"dj_pp_s\":");
    json::push_f64(out, ch.dj_pp.value());
    out.push_str(",\"dj_freq_hz\":");
    json::push_f64(out, ch.dj_freq.value());
    let _ = write!(out, ",\"seed\":{}}}", ch.seed);
}

fn parse_channel(v: &Json) -> Result<ChannelModel, String> {
    let obj = v.as_obj("channel")?;
    Ok(ChannelModel {
        attenuation_db: json::get(obj, "attenuation_db")?.as_f64("attenuation_db")?,
        bandwidth: Hertz::new(json::get(obj, "bandwidth_hz")?.as_f64("bandwidth_hz")?),
        noise_sigma: Volt::new(json::get(obj, "noise_sigma_v")?.as_f64("noise_sigma_v")?),
        rj_sigma: Time::new(json::get(obj, "rj_sigma_s")?.as_f64("rj_sigma_s")?),
        dj_pp: Time::new(json::get(obj, "dj_pp_s")?.as_f64("dj_pp_s")?),
        dj_freq: Hertz::new(json::get(obj, "dj_freq_hz")?.as_f64("dj_freq_hz")?),
        seed: json::get(obj, "seed")?.as_u64("seed")?,
    })
}

fn push_link_config(out: &mut String, cfg: &LinkConfig) {
    out.push_str("{\"data_rate_hz\":");
    json::push_f64(out, cfg.data_rate.value());
    out.push_str(",\"channel\":");
    push_channel(out, &cfg.channel);
    out.push_str(",\"pvt\":");
    push_pvt(out, &cfg.pvt);
    let _ = write!(
        out,
        ",\"cdr\":{{\"oversampling\":{},\"glitch_filter\":{},\"phase_hysteresis\":{},\"window\":{}}}}}",
        cfg.cdr.oversampling, cfg.cdr.glitch_filter, cfg.cdr.phase_hysteresis, cfg.cdr.window
    );
}

fn parse_link_config(v: &Json) -> Result<LinkConfig, String> {
    let obj = v.as_obj("config")?;
    let cdr_obj = json::get(obj, "cdr")?.as_obj("cdr")?;
    // The range `OversamplingCdr::new` asserts. A link run sizes its
    // sample buffers from `oversampling` before the CDR exists, so past
    // the range a request would abort the process on a failed
    // allocation instead of panicking where the worker can isolate it.
    let oversampling = json::get(cdr_obj, "oversampling")?.as_usize("oversampling")?;
    if !crate::cdr::OVERSAMPLING.contains(&oversampling) {
        return Err(format!(
            "cdr: oversampling {oversampling} outside {:?}",
            crate::cdr::OVERSAMPLING
        ));
    }
    let window = json::get(cdr_obj, "window")?.as_usize("window")?;
    if window == 0 {
        return Err("cdr: window 0 must be positive".to_string());
    }
    let cdr = crate::cdr::CdrConfig {
        oversampling,
        glitch_filter: json::get(cdr_obj, "glitch_filter")?.as_bool("glitch_filter")?,
        phase_hysteresis: json::get(cdr_obj, "phase_hysteresis")?.as_u32("phase_hysteresis")?,
        window,
    };
    Ok(LinkConfig {
        data_rate: Hertz::new(json::get(obj, "data_rate_hz")?.as_f64("data_rate_hz")?),
        channel: parse_channel(json::get(obj, "channel")?)?,
        pvt: parse_pvt(json::get(obj, "pvt")?)?,
        cdr,
    })
}

fn push_sweep_spec(out: &mut String, s: &SweepSpec) {
    let _ = write!(
        out,
        "{{\"bits\":{},\"phases\":{},\"frames\":{},\"tol_db\":",
        s.bits, s.phases, s.frames
    );
    json::push_f64(out, s.tol_db);
    out.push('}');
}

/// The largest sweep counts a decoded request may carry. Every caller
/// in the workspace stays within 100 000 bits, 32 phases and 8 frames.
/// The caps leave ten times that and more, and hold each buffer a sweep
/// sizes from them to a few MiB (128 KiB of bathtub bits, 16 KiB of
/// phase points, 2 MiB of samples for a 1 024-frame probe at 64×), so
/// no request can ask for an allocation whose failure aborts the
/// process.
const MAX_SWEEP_BITS: usize = 1 << 20;
const MAX_SWEEP_PHASES: usize = 1 << 10;
const MAX_SWEEP_FRAMES: usize = 1 << 10;

fn parse_sweep_spec(v: &Json) -> Result<SweepSpec, String> {
    let obj = v.as_obj("sweep")?;
    let count = |field: &str, max: usize| -> Result<usize, String> {
        let n = json::get(obj, field)?.as_usize(field)?;
        if n > max {
            return Err(format!("sweep: {field} {n} above the limit of {max}"));
        }
        Ok(n)
    };
    // A bathtub scores bits 1..n against their predecessors, so it needs
    // two bits; a bisection to a non-positive or NaN tolerance never
    // (or trivially) ends.
    let bits = count("bits", MAX_SWEEP_BITS)?;
    if bits < 2 {
        return Err(format!("sweep: bits {bits} below 2"));
    }
    let tol_db = json::get(obj, "tol_db")?.as_f64("tol_db")?;
    if !(tol_db.is_finite() && tol_db > 0.0) {
        return Err(format!(
            "sweep: tol_db {tol_db} is not a positive finite number"
        ));
    }
    Ok(SweepSpec {
        bits,
        phases: count("phases", MAX_SWEEP_PHASES)?,
        frames: count("frames", MAX_SWEEP_FRAMES)?,
        tol_db,
    })
}

fn push_frames(out: &mut String, frames: &[Frame]) {
    out.push('[');
    for (i, f) in frames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (k, w) in f.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, "{w}");
        }
        out.push(']');
    }
    out.push(']');
}

fn parse_frames(v: &Json) -> Result<Vec<Frame>, String> {
    v.as_arr("frames")?
        .iter()
        .enumerate()
        .map(|(i, fv)| {
            let words = fv.as_arr("frame")?;
            if words.len() != LANES {
                return Err(format!("frames[{i}]: expected {LANES} words"));
            }
            let mut frame: Frame = [0u32; LANES];
            for (k, w) in words.iter().enumerate() {
                frame[k] = w.as_u32("frame word")?;
            }
            Ok(frame)
        })
        .collect()
}

fn push_design(out: &mut String, d: &DesignSpec) {
    out.push_str("{\"name\":\"");
    out.push_str(d.tag());
    out.push('"');
    match d {
        DesignSpec::Cdr { oversampling } | DesignSpec::DigitalTop { oversampling } => {
            let _ = write!(out, ",\"oversampling\":{oversampling}");
        }
        _ => {}
    }
    out.push('}');
}

fn parse_design(v: &Json) -> Result<DesignSpec, String> {
    let obj = v.as_obj("design")?;
    let oversampling = |what: &str| -> Result<usize, String> {
        let n = json::get(obj, "oversampling")?.as_usize("oversampling")?;
        if (3..=8).contains(&n) {
            Ok(n)
        } else {
            Err(format!("{what}: oversampling {n} outside 3..=8"))
        }
    };
    match json::get(obj, "name")?.as_str("name")? {
        "serializer" => Ok(DesignSpec::Serializer),
        "deserializer" => Ok(DesignSpec::Deserializer),
        "cdr" => Ok(DesignSpec::Cdr {
            oversampling: oversampling("cdr")?,
        }),
        "scan_chain" => Ok(DesignSpec::ScanChain),
        "digital_top" => Ok(DesignSpec::DigitalTop {
            oversampling: oversampling("digital_top")?,
        }),
        other => Err(format!("unknown design `{other}`")),
    }
}

/// Schema tag of a fault-schedule file, the `schema` field that
/// [`fault_schedule_to_json`] writes and [`fault_schedule_from_json`]
/// requires.
const FAULT_SCHEDULE_SCHEMA: &str = "openserdes-fault-schedule/1";

/// Writes `schedule` as an `openserdes-fault-schedule/1` file: a
/// self-describing document with one event per line, so a campaign can
/// be archived next to its results and replayed bit-identically.
///
/// Events carry the same fields, in the same order, as the `faults`
/// object of a canonical [`Request::RunLinkWithFaults`]; the file adds
/// the `schema` tag and whitespace. Floats are written as in
/// [`crate::json::push_f64`], so every probability, NaN and infinities
/// included, reads back bit-exactly.
///
/// ```
/// use openserdes_core::job::{fault_schedule_from_json, fault_schedule_to_json};
/// use openserdes_fault::{FaultEvent, FaultKind, FaultSchedule};
///
/// let schedule = FaultSchedule::new(7).with_event(FaultEvent {
///     at_ui: 200,
///     kind: FaultKind::BurstNoise { duration_ui: 16, flip_prob: 0.4 },
/// });
/// let text = fault_schedule_to_json(&schedule);
/// assert_eq!(fault_schedule_from_json(&text)?, schedule);
/// # Ok::<(), openserdes_core::error::Error>(())
/// ```
pub fn fault_schedule_to_json(schedule: &FaultSchedule) -> String {
    let mut out = String::with_capacity(96 + 96 * schedule.len());
    let _ = write!(
        out,
        "{{\n  \"schema\": \"{FAULT_SCHEDULE_SCHEMA}\",\n  \"seed\": {},\n  \"events\": [",
        schedule.seed()
    );
    for (i, e) in schedule.events().iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        push_fault_event(&mut out, e, true);
    }
    out.push_str(if schedule.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// Reads an `openserdes-fault-schedule/1` file written by
/// [`fault_schedule_to_json`] or by hand to the same schema; any
/// whitespace is accepted.
///
/// # Errors
///
/// [`Error::Parse`] on malformed JSON, a wrong or missing schema tag,
/// an unknown fault kind, or a missing or out-of-range field. Errors
/// inside an event name it as `events[i]`.
pub fn fault_schedule_from_json(text: &str) -> Result<FaultSchedule, Error> {
    let v = json::parse(text).map_err(parse_err)?;
    let schema = v
        .as_obj("document")
        .and_then(|obj| json::get(obj, "schema"))
        .and_then(|s| s.as_str("schema"))
        .map_err(parse_err)?;
    if schema != FAULT_SCHEDULE_SCHEMA {
        return Err(parse_err(format!(
            "unsupported schema `{schema}` (want `{FAULT_SCHEDULE_SCHEMA}`)"
        )));
    }
    parse_fault_schedule(&v).map_err(parse_err)
}

/// The canonical `faults` object of a request: `{"seed":N,"events":[...]}`.
fn push_fault_schedule(out: &mut String, s: &FaultSchedule) {
    let _ = write!(out, "{{\"seed\":{},\"events\":[", s.seed());
    for (i, e) in s.events().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_fault_event(out, e, false);
    }
    out.push_str("]}");
}

/// One event object, compact for the canonical bytes or `pretty` for
/// the schedule file. The two layouts differ only in whitespace.
fn push_fault_event(out: &mut String, e: &FaultEvent, pretty: bool) {
    let (colon, comma) = if pretty { (": ", ", ") } else { (":", ",") };
    // Starts the field `key`: separator, quoted key, colon.
    let field = |out: &mut String, sep: &str, key: &str| {
        out.push_str(sep);
        out.push('"');
        out.push_str(key);
        out.push('"');
        out.push_str(colon);
    };
    field(out, if pretty { "{ " } else { "{" }, "at_ui");
    let _ = write!(out, "{}", e.at_ui);
    field(out, comma, "kind");
    out.push('"');
    out.push_str(e.kind.tag());
    out.push('"');
    match &e.kind {
        FaultKind::BurstNoise {
            duration_ui,
            flip_prob,
        } => {
            field(out, comma, "duration_ui");
            let _ = write!(out, "{duration_ui}");
            field(out, comma, "flip_prob");
            json::push_f64(out, *flip_prob);
        }
        FaultKind::Dropout { duration_ui, level } => {
            field(out, comma, "duration_ui");
            let _ = write!(out, "{duration_ui}");
            field(out, comma, "level");
            let _ = write!(out, "{level}");
        }
        FaultKind::SupplyDroop {
            duration_ui,
            peak_flip_prob,
        } => {
            field(out, comma, "duration_ui");
            let _ = write!(out, "{duration_ui}");
            field(out, comma, "peak_flip_prob");
            json::push_f64(out, *peak_flip_prob);
        }
        FaultKind::PhaseGlitch { offset_samples } => {
            field(out, comma, "offset_samples");
            let _ = write!(out, "{offset_samples}");
        }
        FaultKind::ClockDrift {
            duration_ui,
            slip_period_ui,
            late,
        } => {
            field(out, comma, "duration_ui");
            let _ = write!(out, "{duration_ui}");
            field(out, comma, "slip_period_ui");
            let _ = write!(out, "{slip_period_ui}");
            field(out, comma, "late");
            let _ = write!(out, "{late}");
        }
        FaultKind::SeuCdrPhase { bit } => {
            field(out, comma, "bit");
            let _ = write!(out, "{bit}");
        }
        FaultKind::SeuDeserializer { lane, bit } => {
            field(out, comma, "lane");
            let _ = write!(out, "{lane}");
            field(out, comma, "bit");
            let _ = write!(out, "{bit}");
        }
        FaultKind::StuckAtNet { net, value } => {
            field(out, comma, "net");
            json::push_quoted(out, net);
            field(out, comma, "value");
            let _ = write!(out, "{value}");
        }
    }
    out.push_str(if pretty { " }" } else { "}" });
}

/// Reads the `seed` and `events` of a schedule object; other fields
/// (a file's `schema` tag) are left to the caller.
fn parse_fault_schedule(v: &Json) -> Result<FaultSchedule, String> {
    let obj = v.as_obj("faults")?;
    let seed = json::get(obj, "seed")?.as_u64("seed")?;
    let events = json::get(obj, "events")?
        .as_arr("events")?
        .iter()
        .enumerate()
        .map(|(i, ev)| parse_fault_event(ev).map_err(|e| format!("events[{i}]: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FaultSchedule::from_events(seed, events))
}

fn parse_fault_event(v: &Json) -> Result<FaultEvent, String> {
    let obj = v.as_obj("event")?;
    let at_ui = json::get(obj, "at_ui")?.as_u64("at_ui")?;
    let kind = match json::get(obj, "kind")?.as_str("kind")? {
        "burst_noise" => FaultKind::BurstNoise {
            duration_ui: json::get(obj, "duration_ui")?.as_u64("duration_ui")?,
            flip_prob: json::get(obj, "flip_prob")?.as_f64("flip_prob")?,
        },
        "dropout" => FaultKind::Dropout {
            duration_ui: json::get(obj, "duration_ui")?.as_u64("duration_ui")?,
            level: json::get(obj, "level")?.as_bool("level")?,
        },
        "supply_droop" => FaultKind::SupplyDroop {
            duration_ui: json::get(obj, "duration_ui")?.as_u64("duration_ui")?,
            peak_flip_prob: json::get(obj, "peak_flip_prob")?.as_f64("peak_flip_prob")?,
        },
        "phase_glitch" => FaultKind::PhaseGlitch {
            offset_samples: json::get(obj, "offset_samples")?.as_i32("offset_samples")?,
        },
        "clock_drift" => FaultKind::ClockDrift {
            duration_ui: json::get(obj, "duration_ui")?.as_u64("duration_ui")?,
            slip_period_ui: json::get(obj, "slip_period_ui")?.as_u64("slip_period_ui")?,
            late: json::get(obj, "late")?.as_bool("late")?,
        },
        "seu_cdr_phase" => FaultKind::SeuCdrPhase {
            bit: json::get(obj, "bit")?.as_u32("bit")?,
        },
        "seu_deserializer" => FaultKind::SeuDeserializer {
            lane: json::get(obj, "lane")?.as_u32("lane")?,
            bit: json::get(obj, "bit")?.as_u32("bit")?,
        },
        "stuck_at_net" => FaultKind::StuckAtNet {
            net: json::get(obj, "net")?.as_str("net")?.to_string(),
            value: json::get(obj, "value")?.as_bool("value")?,
        },
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    Ok(FaultEvent { at_ui, kind })
}

fn push_link_report(out: &mut String, r: &LinkReport) {
    let _ = write!(
        out,
        "{{\"frames_sent\":{},\"frames_correct\":{},\"bits\":{},\"bit_errors\":{},\"cdr_locked\":{},\"cdr_phase_updates\":{},\"alignment_lag\":{}}}",
        r.frames_sent,
        r.frames_correct,
        r.bits,
        r.bit_errors,
        r.cdr_locked,
        r.cdr_phase_updates,
        r.alignment_lag
    );
}

fn parse_link_report(v: &Json) -> Result<LinkReport, String> {
    let obj = v.as_obj("report")?;
    Ok(LinkReport {
        frames_sent: json::get(obj, "frames_sent")?.as_usize("frames_sent")?,
        frames_correct: json::get(obj, "frames_correct")?.as_usize("frames_correct")?,
        bits: json::get(obj, "bits")?.as_u64("bits")?,
        bit_errors: json::get(obj, "bit_errors")?.as_u64("bit_errors")?,
        cdr_locked: json::get(obj, "cdr_locked")?.as_bool("cdr_locked")?,
        cdr_phase_updates: json::get(obj, "cdr_phase_updates")?.as_u64("cdr_phase_updates")?,
        alignment_lag: json::get(obj, "alignment_lag")?.as_usize("alignment_lag")?,
    })
}

impl Request {
    /// The canonical, field-order-stable compact JSON encoding.
    /// Encoding is deterministic: equal requests produce byte-identical
    /// text, and [`Request::from_json`] inverts it exactly.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Request::RunLink { config, frames } => {
                out.push_str("{\"kind\":\"run_link\",\"config\":");
                push_link_config(out, config);
                out.push_str(",\"frames\":");
                push_frames(out, frames);
                out.push('}');
            }
            Request::RunLinkWithFaults {
                config,
                frames,
                schedule,
            } => {
                out.push_str("{\"kind\":\"run_link_with_faults\",\"config\":");
                push_link_config(out, config);
                out.push_str(",\"frames\":");
                push_frames(out, frames);
                out.push_str(",\"faults\":");
                push_fault_schedule(out, schedule);
                out.push('}');
            }
            Request::RunFlow { design, pvt } => {
                out.push_str("{\"kind\":\"run_flow\",\"design\":");
                push_design(out, design);
                out.push_str(",\"pvt\":");
                push_pvt(out, pvt);
                out.push('}');
            }
            Request::Bathtub { config, sweep } => {
                out.push_str("{\"kind\":\"bathtub\",\"config\":");
                push_link_config(out, config);
                out.push_str(",\"sweep\":");
                push_sweep_spec(out, sweep);
                out.push('}');
            }
            Request::MaxLoss { config, sweep } => {
                out.push_str("{\"kind\":\"max_loss\",\"config\":");
                push_link_config(out, config);
                out.push_str(",\"sweep\":");
                push_sweep_spec(out, sweep);
                out.push('}');
            }
            Request::RateSweep {
                config,
                sweep,
                rates,
            } => {
                out.push_str("{\"kind\":\"rate_sweep\",\"config\":");
                push_link_config(out, config);
                out.push_str(",\"sweep\":");
                push_sweep_spec(out, sweep);
                out.push_str(",\"rates_hz\":[");
                for (i, r) in rates.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::push_f64(out, r.value());
                }
                out.push_str("]}");
            }
            Request::CornerSweep { config, sweep } => {
                out.push_str("{\"kind\":\"corner_sweep\",\"config\":");
                push_link_config(out, config);
                out.push_str(",\"sweep\":");
                push_sweep_spec(out, sweep);
                out.push('}');
            }
            Request::Sta { design, pvt, clock } => {
                out.push_str("{\"kind\":\"sta\",\"design\":");
                push_design(out, design);
                out.push_str(",\"pvt\":");
                push_pvt(out, pvt);
                out.push_str(",\"clock_hz\":");
                json::push_f64(out, clock.value());
                out.push('}');
            }
            Request::Lint { design } => {
                out.push_str("{\"kind\":\"lint\",\"design\":");
                push_design(out, design);
                out.push('}');
            }
        }
    }

    /// Parses a request from its canonical (or any equivalent) JSON.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on malformed JSON, unknown kinds, missing
    /// fields or out-of-range values.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let v = json::parse(text).map_err(parse_err)?;
        Self::from_value(&v).map_err(parse_err)
    }

    /// Parses a request from an already-parsed JSON value — the entry
    /// point for callers (like the wire layer) that hold the request as
    /// a sub-value of a larger document.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn from_value(v: &Json) -> Result<Self, String> {
        let obj = v.as_obj("request")?;
        match json::get(obj, "kind")?.as_str("kind")? {
            "run_link" => Ok(Request::RunLink {
                config: parse_link_config(json::get(obj, "config")?)?,
                frames: parse_frames(json::get(obj, "frames")?)?,
            }),
            "run_link_with_faults" => Ok(Request::RunLinkWithFaults {
                config: parse_link_config(json::get(obj, "config")?)?,
                frames: parse_frames(json::get(obj, "frames")?)?,
                schedule: parse_fault_schedule(json::get(obj, "faults")?)?,
            }),
            "run_flow" => Ok(Request::RunFlow {
                design: parse_design(json::get(obj, "design")?)?,
                pvt: parse_pvt(json::get(obj, "pvt")?)?,
            }),
            "bathtub" => Ok(Request::Bathtub {
                config: parse_link_config(json::get(obj, "config")?)?,
                sweep: parse_sweep_spec(json::get(obj, "sweep")?)?,
            }),
            "max_loss" => Ok(Request::MaxLoss {
                config: parse_link_config(json::get(obj, "config")?)?,
                sweep: parse_sweep_spec(json::get(obj, "sweep")?)?,
            }),
            "rate_sweep" => Ok(Request::RateSweep {
                config: parse_link_config(json::get(obj, "config")?)?,
                sweep: parse_sweep_spec(json::get(obj, "sweep")?)?,
                rates: json::get(obj, "rates_hz")?
                    .as_arr("rates_hz")?
                    .iter()
                    .map(|r| Ok(Hertz::new(r.as_f64("rate")?)))
                    .collect::<Result<Vec<_>, String>>()?,
            }),
            "corner_sweep" => Ok(Request::CornerSweep {
                config: parse_link_config(json::get(obj, "config")?)?,
                sweep: parse_sweep_spec(json::get(obj, "sweep")?)?,
            }),
            "sta" => Ok(Request::Sta {
                design: parse_design(json::get(obj, "design")?)?,
                pvt: parse_pvt(json::get(obj, "pvt")?)?,
                clock: Hertz::new(json::get(obj, "clock_hz")?.as_f64("clock_hz")?),
            }),
            "lint" => Ok(Request::Lint {
                design: parse_design(json::get(obj, "design")?)?,
            }),
            other => Err(format!("unknown request kind `{other}`")),
        }
    }
}

impl Response {
    /// The canonical, field-order-stable compact JSON encoding.
    /// Deterministic runs produce byte-identical response text — the
    /// property the serve-layer bit-identity checks assert.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Response::Link(r) => {
                out.push_str("{\"kind\":\"link\",\"report\":");
                push_link_report(out, r);
                out.push('}');
            }
            Response::Faulted(r) => {
                out.push_str("{\"kind\":\"faulted\",\"report\":{\"link\":");
                push_link_report(out, &r.link);
                let _ = write!(
                    out,
                    ",\"lock_losses\":{},\"relock_times_ui\":[",
                    r.lock_losses
                );
                for (i, t) in r.relock_times_ui.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{t}");
                }
                let _ = write!(
                    out,
                    "],\"injected_channel\":{},\"injected_clock\":{},\"injected_digital\":{}}}}}",
                    r.injected_channel, r.injected_clock, r.injected_digital
                );
            }
            Response::Flow(s) => {
                out.push_str("{\"kind\":\"flow\",\"summary\":{\"design\":");
                json::push_quoted(out, &s.design);
                let _ = write!(
                    out,
                    ",\"cells\":{},\"flops\":{},\"nets\":{},\"area_um2\":",
                    s.cells, s.flops, s.nets
                );
                json::push_f64(out, s.area_um2);
                out.push_str(",\"power_mw\":");
                json::push_f64(out, s.power_mw);
                out.push_str(",\"fmax_ghz\":");
                json::push_f64(out, s.fmax_ghz);
                out.push_str(",\"wns_ps\":");
                json::push_f64(out, s.wns_ps);
                out.push_str(",\"tns_ps\":");
                json::push_f64(out, s.tns_ps);
                let _ = write!(
                    out,
                    ",\"violations\":{},\"hold_violations\":{}}}}}",
                    s.violations, s.hold_violations
                );
            }
            Response::Bathtub(points) => {
                out.push_str("{\"kind\":\"bathtub\",\"points\":[");
                for (i, p) in points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"phase_ui\":");
                    json::push_f64(out, p.phase_ui);
                    out.push_str(",\"ber\":");
                    json::push_f64(out, p.ber);
                    out.push('}');
                }
                out.push_str("]}");
            }
            Response::MaxLoss { max_loss_db } => {
                out.push_str("{\"kind\":\"max_loss\",\"max_loss_db\":");
                json::push_f64(out, *max_loss_db);
                out.push('}');
            }
            Response::Rates(points) => {
                out.push_str("{\"kind\":\"rates\",\"points\":[");
                for (i, p) in points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"data_rate_hz\":");
                    json::push_f64(out, p.data_rate.value());
                    out.push_str(",\"sensitivity_v\":");
                    json::push_f64(out, p.sensitivity.value());
                    out.push_str(",\"max_loss_db\":");
                    json::push_f64(out, p.max_loss_db);
                    out.push('}');
                }
                out.push_str("]}");
            }
            Response::Corners(points) => {
                out.push_str("{\"kind\":\"corners\",\"points\":[");
                for (i, p) in points.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"pvt\":");
                    push_pvt(out, &p.pvt);
                    out.push_str(",\"max_loss_db\":");
                    json::push_f64(out, p.max_loss_db);
                    out.push_str(",\"sensitivity_v\":");
                    json::push_f64(out, p.sensitivity.value());
                    out.push('}');
                }
                out.push_str("]}");
            }
            Response::Sta(s) => {
                out.push_str("{\"kind\":\"sta\",\"summary\":{\"design\":");
                json::push_quoted(out, &s.design);
                out.push_str(",\"clock_ghz\":");
                json::push_f64(out, s.clock_ghz);
                out.push_str(",\"fmax_ghz\":");
                json::push_f64(out, s.fmax_ghz);
                out.push_str(",\"wns_ps\":");
                json::push_f64(out, s.wns_ps);
                out.push_str(",\"tns_ps\":");
                json::push_f64(out, s.tns_ps);
                let _ = write!(out, ",\"violations\":{},\"hold_wns_ps\":", s.violations);
                json::push_f64(out, s.hold_wns_ps);
                let _ = write!(
                    out,
                    ",\"hold_violations\":{},\"endpoints\":{},\"domains\":{}}}}}",
                    s.hold_violations, s.endpoints, s.domains
                );
            }
            Response::Lint(s) => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"lint\",\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{},\"suppressed\":{},\"findings\":[",
                    s.errors, s.warnings, s.infos, s.suppressed
                );
                for (i, f) in s.findings.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"rule\":");
                    json::push_quoted(out, &f.rule);
                    out.push_str(",\"severity\":");
                    json::push_quoted(out, &f.severity);
                    out.push_str(",\"message\":");
                    json::push_quoted(out, &f.message);
                    out.push('}');
                }
                out.push_str("]}}");
            }
            Response::Shed(s) => {
                out.push_str("{\"kind\":\"shed\",\"tenant\":");
                json::push_quoted(out, &s.tenant);
                let _ = write!(
                    out,
                    ",\"priority\":{},\"queue_depth\":{}}}",
                    s.priority, s.queue_depth
                );
            }
            Response::DeadlineExceeded(d) => {
                out.push_str("{\"kind\":\"deadline_exceeded\",\"tenant\":");
                json::push_quoted(out, &d.tenant);
                let _ = write!(
                    out,
                    ",\"deadline_ms\":{},\"queued_ms\":{}}}",
                    d.deadline_ms, d.queued_ms
                );
            }
        }
    }

    /// Parses a response from its canonical (or any equivalent) JSON.
    ///
    /// # Errors
    ///
    /// [`Error::Parse`] on malformed JSON, unknown kinds or missing
    /// fields.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let v = json::parse(text).map_err(parse_err)?;
        Self::from_value(&v).map_err(parse_err)
    }

    /// Parses a response from an already-parsed JSON value — the entry
    /// point for callers (like the wire layer) that hold the response
    /// as a sub-value of a larger document.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn from_value(v: &Json) -> Result<Self, String> {
        let obj = v.as_obj("response")?;
        match json::get(obj, "kind")?.as_str("kind")? {
            "link" => Ok(Response::Link(parse_link_report(json::get(
                obj, "report",
            )?)?)),
            "faulted" => {
                let robj = json::get(obj, "report")?.as_obj("report")?;
                Ok(Response::Faulted(FaultReport {
                    link: parse_link_report(json::get(robj, "link")?)?,
                    lock_losses: json::get(robj, "lock_losses")?.as_u64("lock_losses")?,
                    relock_times_ui: json::get(robj, "relock_times_ui")?
                        .as_arr("relock_times_ui")?
                        .iter()
                        .map(|t| t.as_u64("relock time"))
                        .collect::<Result<Vec<_>, String>>()?,
                    injected_channel: json::get(robj, "injected_channel")?
                        .as_usize("injected_channel")?,
                    injected_clock: json::get(robj, "injected_clock")?
                        .as_usize("injected_clock")?,
                    injected_digital: json::get(robj, "injected_digital")?
                        .as_usize("injected_digital")?,
                }))
            }
            "flow" => {
                let s = json::get(obj, "summary")?.as_obj("summary")?;
                Ok(Response::Flow(FlowSummary {
                    design: json::get(s, "design")?.as_str("design")?.to_string(),
                    cells: json::get(s, "cells")?.as_usize("cells")?,
                    flops: json::get(s, "flops")?.as_usize("flops")?,
                    nets: json::get(s, "nets")?.as_usize("nets")?,
                    area_um2: json::get(s, "area_um2")?.as_f64("area_um2")?,
                    power_mw: json::get(s, "power_mw")?.as_f64("power_mw")?,
                    fmax_ghz: json::get(s, "fmax_ghz")?.as_f64("fmax_ghz")?,
                    wns_ps: json::get(s, "wns_ps")?.as_f64("wns_ps")?,
                    tns_ps: json::get(s, "tns_ps")?.as_f64("tns_ps")?,
                    violations: json::get(s, "violations")?.as_usize("violations")?,
                    hold_violations: json::get(s, "hold_violations")?
                        .as_usize("hold_violations")?,
                }))
            }
            "bathtub" => Ok(Response::Bathtub(
                json::get(obj, "points")?
                    .as_arr("points")?
                    .iter()
                    .map(|p| {
                        let pobj = p.as_obj("point")?;
                        Ok(BathtubPoint {
                            phase_ui: json::get(pobj, "phase_ui")?.as_f64("phase_ui")?,
                            ber: json::get(pobj, "ber")?.as_f64("ber")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )),
            "max_loss" => Ok(Response::MaxLoss {
                max_loss_db: json::get(obj, "max_loss_db")?.as_f64("max_loss_db")?,
            }),
            "rates" => Ok(Response::Rates(
                json::get(obj, "points")?
                    .as_arr("points")?
                    .iter()
                    .map(|p| {
                        let pobj = p.as_obj("point")?;
                        Ok(SweepPoint {
                            data_rate: Hertz::new(
                                json::get(pobj, "data_rate_hz")?.as_f64("data_rate_hz")?,
                            ),
                            sensitivity: Volt::new(
                                json::get(pobj, "sensitivity_v")?.as_f64("sensitivity_v")?,
                            ),
                            max_loss_db: json::get(pobj, "max_loss_db")?.as_f64("max_loss_db")?,
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )),
            "corners" => Ok(Response::Corners(
                json::get(obj, "points")?
                    .as_arr("points")?
                    .iter()
                    .map(|p| {
                        let pobj = p.as_obj("point")?;
                        Ok(CornerPoint {
                            pvt: parse_pvt(json::get(pobj, "pvt")?)?,
                            max_loss_db: json::get(pobj, "max_loss_db")?.as_f64("max_loss_db")?,
                            sensitivity: Volt::new(
                                json::get(pobj, "sensitivity_v")?.as_f64("sensitivity_v")?,
                            ),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            )),
            "sta" => {
                let s = json::get(obj, "summary")?.as_obj("summary")?;
                Ok(Response::Sta(StaSummary {
                    design: json::get(s, "design")?.as_str("design")?.to_string(),
                    clock_ghz: json::get(s, "clock_ghz")?.as_f64("clock_ghz")?,
                    fmax_ghz: json::get(s, "fmax_ghz")?.as_f64("fmax_ghz")?,
                    wns_ps: json::get(s, "wns_ps")?.as_f64("wns_ps")?,
                    tns_ps: json::get(s, "tns_ps")?.as_f64("tns_ps")?,
                    violations: json::get(s, "violations")?.as_usize("violations")?,
                    hold_wns_ps: json::get(s, "hold_wns_ps")?.as_f64("hold_wns_ps")?,
                    hold_violations: json::get(s, "hold_violations")?
                        .as_usize("hold_violations")?,
                    endpoints: json::get(s, "endpoints")?.as_usize("endpoints")?,
                    domains: json::get(s, "domains")?.as_usize("domains")?,
                }))
            }
            "lint" => {
                let s = json::get(obj, "summary")?.as_obj("summary")?;
                Ok(Response::Lint(LintSummary {
                    errors: json::get(s, "errors")?.as_usize("errors")?,
                    warnings: json::get(s, "warnings")?.as_usize("warnings")?,
                    infos: json::get(s, "infos")?.as_usize("infos")?,
                    suppressed: json::get(s, "suppressed")?.as_usize("suppressed")?,
                    findings: json::get(s, "findings")?
                        .as_arr("findings")?
                        .iter()
                        .map(|f| {
                            let fobj = f.as_obj("finding")?;
                            Ok(FindingSummary {
                                rule: json::get(fobj, "rule")?.as_str("rule")?.to_string(),
                                severity: json::get(fobj, "severity")?
                                    .as_str("severity")?
                                    .to_string(),
                                message: json::get(fobj, "message")?.as_str("message")?.to_string(),
                            })
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                }))
            }
            "shed" => {
                let priority = json::get(obj, "priority")?.as_u64("priority")?;
                Ok(Response::Shed(ShedInfo {
                    tenant: json::get(obj, "tenant")?.as_str("tenant")?.to_string(),
                    priority: u8::try_from(priority)
                        .map_err(|_| format!("priority {priority} exceeds 255"))?,
                    queue_depth: json::get(obj, "queue_depth")?.as_usize("queue_depth")?,
                }))
            }
            "deadline_exceeded" => Ok(Response::DeadlineExceeded(DeadlineInfo {
                tenant: json::get(obj, "tenant")?.as_str("tenant")?.to_string(),
                deadline_ms: json::get(obj, "deadline_ms")?.as_u64("deadline_ms")?,
                queued_ms: json::get(obj, "queued_ms")?.as_u64("queued_ms")?,
            })),
            other => Err(format!("unknown response kind `{other}`")),
        }
    }
}

// ====================================================================
// Content addressing
// ====================================================================

/// The content address of a job: the canonical bytes of
/// `(request, seed)` plus a 128-bit hex digest over them. Everything
/// downstream of a request is deterministic, so two jobs with equal
/// canonical bytes have byte-identical responses — a cache hit on this
/// key is exact, never approximate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobKey {
    /// Canonical encoding of `{"request":...,"seed":N}`.
    pub canonical: String,
    /// 32-hex-character FNV-1a-128 style digest of the canonical bytes.
    pub digest: String,
}

impl JobKey {
    /// Computes the content address of `(request, seed)`.
    pub fn of(request: &Request, seed: u64) -> Self {
        let mut canonical = String::with_capacity(256);
        canonical.push_str("{\"request\":");
        request.write_json(&mut canonical);
        let _ = write!(canonical, ",\"seed\":{seed}}}");
        let digest = digest_hex(canonical.as_bytes());
        Self { canonical, digest }
    }
}

/// Two independent FNV-1a-64 passes (different offset bases) over the
/// bytes, concatenated to 32 hex characters. Not cryptographic — the
/// cache also compares canonical bytes on a digest hit, so a collision
/// costs a miss, never a wrong answer.
fn digest_hex(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let fnv = |basis: u64| -> u64 {
        let mut h = basis;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        h
    };
    let a = fnv(0xCBF2_9CE4_8422_2325);
    let b = fnv(0x6C62_272E_07BB_0142);
    format!("{a:016x}{b:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;

    fn frames(n: usize) -> Vec<Frame> {
        (0..n)
            .map(|i| {
                let mut f = [0u32; LANES];
                for (k, w) in f.iter_mut().enumerate() {
                    *w = (i * LANES + k) as u32 ^ 0x5A5A_A5A5;
                }
                f
            })
            .collect()
    }

    fn sample_requests() -> Vec<Request> {
        let cfg = LinkConfig::paper_default();
        vec![
            Request::RunLink {
                config: cfg.clone(),
                frames: frames(2),
            },
            Request::RunLinkWithFaults {
                config: cfg.clone(),
                frames: frames(1),
                schedule: openserdes_fault::campaign(
                    openserdes_fault::CampaignKind::Mixed,
                    9,
                    10_000,
                ),
            },
            Request::RunFlow {
                design: DesignSpec::Serializer,
                pvt: Pvt::worst_case(),
            },
            Request::Bathtub {
                config: cfg.clone(),
                sweep: SweepSpec::default(),
            },
            Request::MaxLoss {
                config: cfg.clone(),
                sweep: SweepSpec {
                    bits: 1000,
                    phases: 8,
                    frames: 4,
                    tol_db: 1.0,
                },
            },
            Request::RateSweep {
                config: cfg.clone(),
                sweep: SweepSpec::default(),
                rates: vec![Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)],
            },
            Request::CornerSweep {
                config: cfg,
                sweep: SweepSpec::default(),
            },
            Request::Sta {
                design: DesignSpec::Cdr { oversampling: 5 },
                pvt: Pvt::nominal(),
                clock: Hertz::from_ghz(2.0),
            },
            Request::Lint {
                design: DesignSpec::DigitalTop { oversampling: 5 },
            },
        ]
    }

    #[test]
    fn every_request_round_trips_canonically() {
        for req in sample_requests() {
            let json = req.to_canonical_json();
            let back = Request::from_json(&json).expect("parses");
            assert_eq!(back, req);
            assert_eq!(back.to_canonical_json(), json, "byte-identical re-encode");
        }
    }

    #[test]
    fn responses_round_trip_canonically() {
        let responses = vec![
            Response::MaxLoss { max_loss_db: 34.25 },
            Response::Bathtub(vec![
                BathtubPoint {
                    phase_ui: 0.25,
                    ber: 1e-3,
                },
                BathtubPoint {
                    phase_ui: 0.75,
                    ber: 0.0,
                },
            ]),
            Response::Rates(vec![SweepPoint {
                data_rate: Hertz::from_ghz(2.0),
                sensitivity: Volt::from_mv(32.0),
                max_loss_db: 34.0,
            }]),
            Response::Corners(vec![CornerPoint {
                pvt: Pvt::best_case(),
                max_loss_db: 36.5,
                sensitivity: Volt::from_mv(28.0),
            }]),
            Response::Lint(LintSummary {
                errors: 1,
                warnings: 2,
                infos: 0,
                suppressed: 3,
                findings: vec![FindingSummary {
                    rule: "IR001".into(),
                    severity: "error".into(),
                    message: "weird \"net\"\n".into(),
                }],
            }),
            Response::Shed(ShedInfo {
                tenant: "acme".into(),
                priority: 3,
                queue_depth: 17,
            }),
            Response::DeadlineExceeded(DeadlineInfo {
                tenant: "acme".into(),
                deadline_ms: 250,
                queued_ms: 512,
            }),
        ];
        for resp in responses {
            let json = resp.to_canonical_json();
            let back = Response::from_json(&json).expect("parses");
            assert_eq!(back, resp);
            assert_eq!(back.to_canonical_json(), json);
        }
    }

    #[test]
    fn job_key_is_stable_and_seed_sensitive() {
        let req = Request::MaxLoss {
            config: LinkConfig::paper_default(),
            sweep: SweepSpec::default(),
        };
        let a = JobKey::of(&req, 7);
        let b = JobKey::of(&req, 7);
        assert_eq!(a, b, "same (request, seed) → same key");
        let c = JobKey::of(&req, 8);
        assert_ne!(a.canonical, c.canonical);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.digest.len(), 32);
        assert!(a.canonical.contains("\"seed\":7"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "{}",
            "{\"kind\":\"warp\"}",
            "{\"kind\":\"lint\",\"design\":{\"name\":\"nonesuch\"}}",
            "{\"kind\":\"lint\",\"design\":{\"name\":\"cdr\",\"oversampling\":0}}",
            "{\"kind\":\"lint\",\"design\":{\"name\":\"cdr\",\"oversampling\":9}}",
        ] {
            assert!(Request::from_json(bad).is_err(), "must reject {bad:?}");
        }
        assert!(Response::from_json("{\"kind\":\"nope\"}").is_err());
    }

    /// One event of every kind, with a `u64` seed above 2^53, a float
    /// that needs all 17 digits and a net name that needs escapes.
    fn sample_schedule() -> FaultSchedule {
        [
            FaultKind::BurstNoise {
                duration_ui: 16,
                flip_prob: 0.123_456_789_012_345_6,
            },
            FaultKind::Dropout {
                duration_ui: 4,
                level: true,
            },
            FaultKind::SupplyDroop {
                duration_ui: 32,
                peak_flip_prob: 0.5,
            },
            FaultKind::PhaseGlitch { offset_samples: -2 },
            FaultKind::ClockDrift {
                duration_ui: 64,
                slip_period_ui: 8,
                late: false,
            },
            FaultKind::SeuCdrPhase { bit: 2 },
            FaultKind::SeuDeserializer { lane: 7, bit: 31 },
            FaultKind::StuckAtNet {
                net: "weird \"net\"\\π\n".into(),
                value: true,
            },
        ]
        .into_iter()
        .zip(1..)
        .fold(FaultSchedule::new(u64::MAX - 3), |s, (kind, k)| {
            s.with_event(FaultEvent {
                at_ui: 100 * k,
                kind,
            })
        })
    }

    // Byte-parity pins: the literal bytes of a schedule file and of a
    // faulted job's content address. Archived campaigns and cached
    // results are keyed on these bytes, so they must never drift.

    #[test]
    fn schedule_file_bytes_are_pinned() {
        assert_eq!(
            fault_schedule_to_json(&sample_schedule()),
            r#"{
  "schema": "openserdes-fault-schedule/1",
  "seed": 18446744073709551612,
  "events": [
    { "at_ui": 100, "kind": "burst_noise", "duration_ui": 16, "flip_prob": 0.1234567890123456 },
    { "at_ui": 200, "kind": "dropout", "duration_ui": 4, "level": true },
    { "at_ui": 300, "kind": "supply_droop", "duration_ui": 32, "peak_flip_prob": 0.5 },
    { "at_ui": 400, "kind": "phase_glitch", "offset_samples": -2 },
    { "at_ui": 500, "kind": "clock_drift", "duration_ui": 64, "slip_period_ui": 8, "late": false },
    { "at_ui": 600, "kind": "seu_cdr_phase", "bit": 2 },
    { "at_ui": 700, "kind": "seu_deserializer", "lane": 7, "bit": 31 },
    { "at_ui": 800, "kind": "stuck_at_net", "net": "weird \"net\"\\π\n", "value": true }
  ]
}
"#
        );
        assert_eq!(
            fault_schedule_to_json(&FaultSchedule::new(0)),
            "{\n  \"schema\": \"openserdes-fault-schedule/1\",\n  \"seed\": 0,\n  \"events\": []\n}\n"
        );
    }

    #[test]
    fn faulted_job_key_bytes_are_pinned() {
        let request = Request::RunLinkWithFaults {
            config: LinkConfig::paper_default(),
            frames: frames(1),
            schedule: openserdes_fault::campaign(openserdes_fault::CampaignKind::Mixed, 9, 10_000),
        };
        let key = JobKey::of(&request, 7);
        assert_eq!(
            key.canonical,
            concat!(
                r#"{"request":{"kind":"run_link_with_faults","config":{"data_rate_hz":2000000000.0,"#,
                r#""channel":{"attenuation_db":34.0,"bandwidth_hz":6000000000.0,"noise_sigma_v":0.0003,"#,
                r#""rj_sigma_s":1.5e-12,"dj_pp_s":3e-12,"dj_freq_hz":123000000.0,"seed":12648430},"#,
                r#""pvt":{"corner":"tt","vdd_v":1.8,"temp_c":25.0},"#,
                r#""cdr":{"oversampling":5,"glitch_filter":true,"phase_hysteresis":2,"window":32}},"#,
                r#""frames":[[1515890085,1515890084,1515890087,1515890086,1515890081,1515890080,1515890083,1515890082]],"#,
                r#""faults":{"seed":9,"events":["#,
                r#"{"at_ui":2686,"kind":"burst_noise","duration_ui":12,"flip_prob":0.3},"#,
                r#"{"at_ui":3905,"kind":"dropout","duration_ui":4,"level":false},"#,
                r#"{"at_ui":6221,"kind":"supply_droop","duration_ui":24,"peak_flip_prob":0.3},"#,
                r#"{"at_ui":7195,"kind":"phase_glitch","offset_samples":2},"#,
                r#"{"at_ui":8024,"kind":"seu_cdr_phase","bit":1},"#,
                r#"{"at_ui":8964,"kind":"burst_noise","duration_ui":12,"flip_prob":0.3}]}},"#,
                r#""seed":7}"#
            )
        );
        assert_eq!(key.digest, "b640346804a1723684ab6a2ce367bfd9");
    }

    #[test]
    fn a_large_reverse_ordered_schedule_decodes_sorted_with_ties_in_order() {
        // 200 000 events in descending `at_ui`, two per instant, each
        // tagged with its document index: decoding sorts once, and
        // within a tie keeps document order.
        const N: u32 = 200_000;
        let mut text =
            String::from("{\"schema\":\"openserdes-fault-schedule/1\",\"seed\":5,\"events\":[");
        for i in 0..N {
            if i > 0 {
                text.push(',');
            }
            let at_ui = (N - 1 - i) / 2;
            let _ = write!(
                text,
                r#"{{"at_ui":{at_ui},"kind":"seu_cdr_phase","bit":{i}}}"#
            );
        }
        text.push_str("]}");
        let s = fault_schedule_from_json(&text).expect("parse");
        assert_eq!(s.len(), N as usize);
        let order: Vec<(u64, u32)> = s
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::SeuCdrPhase { bit } => (e.at_ui, bit),
                ref other => panic!("unexpected kind {other:?}"),
            })
            .collect();
        assert_eq!(order[0], (0, N - 2));
        assert_eq!(order[1], (0, N - 1));
        assert!(
            order.windows(2).all(|w| w[0] < w[1]),
            "sorted, ties in order"
        );
    }

    #[test]
    fn bulk_and_pushed_schedules_encode_identically() {
        // A shuffled schedule with ties, built by one sort and by a sort
        // per push, gives the same canonical and file bytes.
        let kinds: Vec<FaultKind> = sample_schedule()
            .events()
            .iter()
            .map(|e| e.kind.clone())
            .collect();
        let events: Vec<FaultEvent> = (0..24u64)
            .map(|k| FaultEvent {
                at_ui: (k * 7 + 3) % 11,
                kind: kinds[k as usize % kinds.len()].clone(),
            })
            .collect();
        let bulk = FaultSchedule::from_events(13, events.clone());
        let pushed = events
            .into_iter()
            .fold(FaultSchedule::new(13), FaultSchedule::with_event);
        let request = |schedule| Request::RunLinkWithFaults {
            config: LinkConfig::paper_default(),
            frames: frames(1),
            schedule,
        };
        assert_eq!(
            request(bulk.clone()).to_canonical_json(),
            request(pushed.clone()).to_canonical_json()
        );
        assert_eq!(
            fault_schedule_to_json(&bulk),
            fault_schedule_to_json(&pushed)
        );
    }

    #[test]
    fn schedule_file_round_trips_every_kind() {
        let s = sample_schedule();
        let text = fault_schedule_to_json(&s);
        let back = fault_schedule_from_json(&text).expect("parse");
        assert_eq!(back, s);
        assert_eq!(fault_schedule_to_json(&back), text, "byte-identical");
    }

    #[test]
    fn schedule_file_round_trips_empty_and_campaigns() {
        let empty = FaultSchedule::new(0);
        let back = fault_schedule_from_json(&fault_schedule_to_json(&empty)).expect("parse");
        assert_eq!(back, empty);
        for kind in openserdes_fault::CampaignKind::ALL {
            let c = openserdes_fault::campaign(kind, 77, 10_000);
            let back = fault_schedule_from_json(&fault_schedule_to_json(&c)).expect("parse");
            assert_eq!(back, c);
        }
    }

    #[test]
    fn schedule_file_u64_seed_survives_exactly() {
        let text = fault_schedule_to_json(&FaultSchedule::new(u64::MAX));
        let back = fault_schedule_from_json(&text).expect("parse");
        assert_eq!(back.seed(), u64::MAX);
    }

    #[test]
    fn schedule_file_non_finite_probabilities_read_back() {
        let probs = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut s = FaultSchedule::new(1);
        for (k, &p) in (0..).zip(&probs) {
            s.push(FaultEvent {
                at_ui: 2 * k,
                kind: FaultKind::BurstNoise {
                    duration_ui: 2,
                    flip_prob: p,
                },
            });
            s.push(FaultEvent {
                at_ui: 2 * k + 1,
                kind: FaultKind::SupplyDroop {
                    duration_ui: 2,
                    peak_flip_prob: p,
                },
            });
        }
        let back = fault_schedule_from_json(&fault_schedule_to_json(&s)).expect("parse");
        let bits: Vec<u64> = back
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::BurstNoise { flip_prob, .. } => flip_prob.to_bits(),
                FaultKind::SupplyDroop { peak_flip_prob, .. } => peak_flip_prob.to_bits(),
                _ => unreachable!("only probability events were written"),
            })
            .collect();
        let want: Vec<u64> = probs.iter().flat_map(|p| [p.to_bits(); 2]).collect();
        assert_eq!(bits, want);
    }

    #[test]
    fn schedule_file_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[]",
            "{\"schema\": \"nope/9\", \"seed\": 0, \"events\": []}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"events\": []}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"seed\": 0, \"events\": [{\"at_ui\": 1, \"kind\": \"warp_core_breach\"}]}",
            "{\"schema\": \"openserdes-fault-schedule/1\", \"seed\": 0, \"events\": []} trailing",
        ] {
            assert!(fault_schedule_from_json(bad).is_err(), "must reject: {bad:?}");
        }
    }

    #[test]
    fn schedule_file_accepts_hand_authored_whitespace() {
        let text = "\n{ \"schema\":\"openserdes-fault-schedule/1\" ,\n\t\"seed\" : 9,\n  \"events\":[ {\"at_ui\":5,\"kind\":\"seu_cdr_phase\",\"bit\":1} ] }";
        let s = fault_schedule_from_json(text).expect("parse");
        assert_eq!(s.seed(), 9);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn schedule_out_of_range_u32_fields_are_rejected_not_truncated() {
        // 2^32 + 2 would wrap to 2 under an `as u32` cast.
        let doc = |event: &str| {
            format!(
                "{{\"schema\":\"openserdes-fault-schedule/1\",\"seed\":0,\"events\":[{{\"at_ui\":5,{event}}}]}}"
            )
        };
        for (event, field) in [
            ("\"kind\":\"seu_cdr_phase\",\"bit\":4294967298", "bit"),
            (
                "\"kind\":\"seu_deserializer\",\"lane\":4294967298,\"bit\":1",
                "lane",
            ),
            (
                "\"kind\":\"seu_deserializer\",\"lane\":1,\"bit\":4294967298",
                "bit",
            ),
        ] {
            match fault_schedule_from_json(&doc(event)) {
                Err(Error::Parse(msg)) => assert!(
                    msg.contains(&format!("events[0]: {field}: `4294967298` is not a u32")),
                    "names the event and `{field}`: {msg}"
                ),
                other => panic!("expected a parse error for {event}, got {other:?}"),
            }
        }
        let max = fault_schedule_from_json(&doc("\"kind\":\"seu_cdr_phase\",\"bit\":4294967295"))
            .expect("u32::MAX is in range");
        assert_eq!(max.len(), 1);
    }

    #[test]
    fn design_specs_build_their_designs() {
        assert_eq!(DesignSpec::Serializer.build().name(), "serializer");
        assert_eq!(DesignSpec::Cdr { oversampling: 5 }.tag(), "cdr");
        assert!(DesignSpec::DigitalTop { oversampling: 3 }
            .build()
            .name()
            .contains("serdes"));
    }
}
