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
//! round-trip) and full-width integers — see [`crate::json`]. Each wire
//! object is declared once, as its keys in canonical order (and, for
//! `Request`, `Response`, `FaultKind` and `DesignSpec`, each variant's
//! tag and payload keys), and that one declaration both writes the
//! object and reads it back, with the decode bounds on the fields they
//! guard. Both directions round-trip: `to_canonical_json` after
//! `from_json` is byte-identical.
//!
//! Fault schedules are written and read here too:
//! [`fault_schedule_to_json`] / [`fault_schedule_from_json`] handle the
//! `openserdes-fault-schedule/1` file, whose events are the canonical
//! event bytes of the `faults` object of [`Request::RunLinkWithFaults`],
//! spaced.
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

use crate::cdr::CdrConfig;
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
use std::fmt::{self, Write as _};
use std::ops::{RangeBounds, RangeInclusive};

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
                    severity: f.severity.label().to_string(),
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

fn parse_err(msg: impl Into<String>) -> Error {
    Error::Parse(msg.into())
}

// ====================================================================
// Canonical encoding
// ====================================================================

/// One value on the wire: its canonical JSON, and the reader that takes
/// that JSON (or any equivalent spelling) back. `what` names the value
/// in error messages.
trait Wire: Sized {
    fn write(&self, out: &mut String);
    fn read(v: &Json, what: &str) -> Result<Self, String>;
}

/// The fields of a JSON object, written after `sep` (`{` to open the
/// object, `,` to continue one) and read from the object's field list.
/// A type with fields is a `Wire` object; a tagged variant's payload
/// and a fault event's kind are written inline in their parent.
trait Fields: Sized {
    fn write_fields(&self, out: &mut String, sep: char);
    fn read_fields(obj: &[(String, Json)], what: &str) -> Result<Self, String>;
}

impl<T: Fields> Wire for T {
    fn write(&self, out: &mut String) {
        self.write_fields(out, '{');
        out.push('}');
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        Self::read_fields(v.as_obj(what)?, what)
    }
}

/// Writes one declared field: `"key":value`, or for the key `_` the
/// value's own fields inline.
macro_rules! write_field {
    ($out:ident, $sep:expr, _, $value:expr) => {
        $value.write_fields($out, $sep)
    };
    ($out:ident, $sep:expr, $key:literal, $value:expr) => {{
        $out.push($sep);
        $out.push_str(concat!("\"", $key, "\":"));
        $value.write($out);
    }};
}

/// Reads one declared field back (see `write_field!`).
macro_rules! read_field {
    ($obj:ident, $what:ident, _) => {
        Fields::read_fields($obj, $what)?
    };
    ($obj:ident, $what:ident, $key:literal) => {
        Wire::read(json::get($obj, $key)?, $key)?
    };
}

/// Declares each struct's wire object once, as its `"key" => field`
/// pairs in canonical order. `_ => field` writes the field's own fields
/// inline; `if bound` checks a decoded value (see `check`).
macro_rules! wire_struct {
    ($($ty:ident { $($key:tt => $field:ident $(if $bound:expr)?),+ $(,)? })+) => {$(
        impl Fields for $ty {
            fn write_fields(&self, out: &mut String, mut sep: char) {
                $(
                    write_field!(out, sep, $key, self.$field);
                    sep = ',';
                )+
                let _ = sep;
            }

            fn read_fields(obj: &[(String, Json)], what: &str) -> Result<Self, String> {
                // Only bounds and inline fields name their object.
                let _ = what;
                $(
                    let $field = read_field!(obj, what, $key);
                    $(check(what, $key, &$field, $bound)?;)?
                )+
                Ok(Self { $($field),+ })
            }
        }
    )+};
}

/// Declares a tagged enum's wire object once: the tag key, the name
/// unknown tags are reported under, and each variant's tag with its
/// payload keys. A tuple variant's payload sits under one key, or with
/// `_` inline; a struct variant lists its fields as in `wire_struct!`.
macro_rules! wire_enum {
    ($($ty:ident: $tag_key:literal, $name:literal {$(
        $tag:literal => $variant:ident
            $(($($tkey:tt => $tfield:ident),+))?
            $({$($skey:literal => $sfield:ident $(if $bound:expr)?),+})?
    ),+ $(,)?})+) => {$(
        impl Fields for $ty {
            fn write_fields(&self, out: &mut String, sep: char) {
                out.push(sep);
                match self {$(
                    Self::$variant $(($($tfield),+))? $({$($sfield),+})? => {
                        out.push_str(concat!("\"", $tag_key, "\":\"", $tag, "\""));
                        $($(write_field!(out, ',', $tkey, $tfield);)+)?
                        $($(write_field!(out, ',', $skey, $sfield);)+)?
                    }
                )+}
            }

            fn read_fields(obj: &[(String, Json)], what: &str) -> Result<Self, String> {
                let _ = what;
                match json::get(obj, $tag_key)?.as_str($tag_key)? {
                    $($tag => {
                        $($(let $tfield = read_field!(obj, what, $tkey);)+)?
                        $($(
                            let $sfield = read_field!(obj, what, $skey);
                            $(check(what, $skey, &$sfield, $bound)?;)?
                        )+)?
                        Ok(Self::$variant $(($($tfield),+))? $({$($sfield),+})?)
                    })+
                    other => Err(format!(concat!("unknown ", $name, " `{}`"), other)),
                }
            }
        }
    )+};
}

/// Applies a decode bound to the value read for `key` of the object
/// `what`. Decoded values are outside input: a bound turns a value
/// whose job would abort the process, or never end, into an error
/// naming the field.
fn check<T>(
    what: &str,
    key: &str,
    value: &T,
    bound: impl Fn(&T) -> Result<(), String>,
) -> Result<(), String> {
    bound(value).map_err(|e| format!("{what}: {key} {e}"))
}

fn within(n: usize, range: impl RangeBounds<usize> + fmt::Debug) -> Result<(), String> {
    if range.contains(&n) {
        Ok(())
    } else {
        Err(format!("{n} outside {range:?}"))
    }
}

/// A bisection to a non-positive or NaN tolerance never (or trivially)
/// ends.
fn positive_finite(x: &f64) -> Result<(), String> {
    if x.is_finite() && *x > 0.0 {
        Ok(())
    } else {
        Err(format!("{x} is not a positive finite number"))
    }
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

/// The oversampling [`crate::cdr::cdr_design`] accepts.
const DESIGN_OVERSAMPLING: RangeInclusive<usize> = 3..=8;

macro_rules! wire_int {
    ($($ty:ident => $as:ident),+) => {$(
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn read(v: &Json, what: &str) -> Result<Self, String> {
                v.$as(what)
            }
        }
    )+};
}

wire_int!(u64 => as_u64, usize => as_usize, u32 => as_u32, i32 => as_i32);

/// A shed priority: a `u64` on the wire that must fit the `u8`, not
/// wrap into it.
impl Wire for u8 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        let n = v.as_u64(what)?;
        u8::try_from(n).map_err(|_| format!("{what}: `{n}` is not a u8"))
    }
}

impl Wire for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        v.as_bool(what)
    }
}

impl Wire for f64 {
    fn write(&self, out: &mut String) {
        json::push_f64(out, *self);
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        v.as_f64(what)
    }
}

impl Wire for String {
    fn write(&self, out: &mut String) {
        json::push_quoted(out, self);
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        v.as_str(what).map(str::to_string)
    }
}

/// Units travel as their SI value.
macro_rules! wire_unit {
    ($($ty:ident),+) => {$(
        impl Wire for $ty {
            fn write(&self, out: &mut String) {
                json::push_f64(out, self.value());
            }

            fn read(v: &Json, what: &str) -> Result<Self, String> {
                v.as_f64(what).map($ty::new)
            }
        }
    )+};
}

wire_unit!(Hertz, Volt, Time);

fn write_list<T: Wire>(out: &mut String, items: &[T]) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

/// A list; an error inside item `i` is reported as `what[i]`.
impl<T: Wire> Wire for Vec<T> {
    fn write(&self, out: &mut String) {
        write_list(out, self);
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        v.as_arr(what)?
            .iter()
            .enumerate()
            .map(|(i, item)| T::read(item, what).map_err(|e| format!("{what}[{i}]: {e}")))
            .collect()
    }
}

/// A frame: exactly [`LANES`] `u32` words.
impl Wire for Frame {
    fn write(&self, out: &mut String) {
        write_list(out, self);
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        let words = v.as_arr(what)?;
        if words.len() != LANES {
            return Err(format!("expected {LANES} words"));
        }
        let mut frame: Frame = [0; LANES];
        for (word, w) in frame.iter_mut().zip(words) {
            *word = w.as_u32("frame word")?;
        }
        Ok(frame)
    }
}

/// Each process corner's wire name.
const CORNERS: [(ProcessCorner, &str); 5] = [
    (ProcessCorner::Typical, "tt"),
    (ProcessCorner::SlowSlow, "ss"),
    (ProcessCorner::FastFast, "ff"),
    (ProcessCorner::SlowFast, "sf"),
    (ProcessCorner::FastSlow, "fs"),
];

impl Wire for ProcessCorner {
    fn write(&self, out: &mut String) {
        let (_, name) = CORNERS
            .iter()
            .find(|(corner, _)| corner == self)
            .expect("every corner has a wire name");
        out.push('"');
        out.push_str(name);
        out.push('"');
    }

    fn read(v: &Json, what: &str) -> Result<Self, String> {
        let name = v.as_str(what)?;
        CORNERS
            .iter()
            .find(|(_, n)| *n == name)
            .map(|&(corner, _)| corner)
            .ok_or_else(|| format!("unknown process corner `{name}`"))
    }
}

/// The `faults` object of a request, `{"seed":N,"events":[...]}`. The
/// schedule's fields are private to `openserdes-fault`, so it reads
/// back through [`FaultSchedule::from_events`].
impl Fields for FaultSchedule {
    fn write_fields(&self, out: &mut String, sep: char) {
        write_field!(out, sep, "seed", self.seed());
        out.push_str(",\"events\":");
        write_list(out, self.events());
    }

    fn read_fields(obj: &[(String, Json)], _what: &str) -> Result<Self, String> {
        Ok(FaultSchedule::from_events(
            read_field!(obj, _what, "seed"),
            read_field!(obj, _what, "events"),
        ))
    }
}

wire_struct! {
    Pvt { "corner" => corner, "vdd_v" => vdd, "temp_c" => temp_c }
    ChannelModel {
        "attenuation_db" => attenuation_db,
        "bandwidth_hz" => bandwidth,
        "noise_sigma_v" => noise_sigma,
        "rj_sigma_s" => rj_sigma,
        "dj_pp_s" => dj_pp,
        "dj_freq_hz" => dj_freq,
        "seed" => seed,
    }
    // The oversampling range is the one `OversamplingCdr::new` asserts.
    // A link run sizes its sample buffers from `oversampling` before the
    // CDR exists, so past the range a request would abort the process on
    // a failed allocation instead of panicking where the worker can
    // isolate it.
    CdrConfig {
        "oversampling" => oversampling if |&n| within(n, crate::cdr::OVERSAMPLING),
        "glitch_filter" => glitch_filter,
        "phase_hysteresis" => phase_hysteresis,
        "window" => window if |&n| within(n, 1..),
    }
    LinkConfig {
        "data_rate_hz" => data_rate,
        "channel" => channel,
        "pvt" => pvt,
        "cdr" => cdr,
    }
    // A bathtub scores bits 1..n against their predecessors, so it needs
    // two bits.
    SweepSpec {
        "bits" => bits if |&n| within(n, 2..=MAX_SWEEP_BITS),
        "phases" => phases if |&n| within(n, ..=MAX_SWEEP_PHASES),
        "frames" => frames if |&n| within(n, ..=MAX_SWEEP_FRAMES),
        "tol_db" => tol_db if positive_finite,
    }
    FaultEvent { "at_ui" => at_ui, _ => kind }
    LinkReport {
        "frames_sent" => frames_sent,
        "frames_correct" => frames_correct,
        "bits" => bits,
        "bit_errors" => bit_errors,
        "cdr_locked" => cdr_locked,
        "cdr_phase_updates" => cdr_phase_updates,
        "alignment_lag" => alignment_lag,
    }
    FaultReport {
        "link" => link,
        "lock_losses" => lock_losses,
        "relock_times_ui" => relock_times_ui,
        "injected_channel" => injected_channel,
        "injected_clock" => injected_clock,
        "injected_digital" => injected_digital,
    }
    FlowSummary {
        "design" => design,
        "cells" => cells,
        "flops" => flops,
        "nets" => nets,
        "area_um2" => area_um2,
        "power_mw" => power_mw,
        "fmax_ghz" => fmax_ghz,
        "wns_ps" => wns_ps,
        "tns_ps" => tns_ps,
        "violations" => violations,
        "hold_violations" => hold_violations,
    }
    BathtubPoint { "phase_ui" => phase_ui, "ber" => ber }
    SweepPoint {
        "data_rate_hz" => data_rate,
        "sensitivity_v" => sensitivity,
        "max_loss_db" => max_loss_db,
    }
    CornerPoint {
        "pvt" => pvt,
        "max_loss_db" => max_loss_db,
        "sensitivity_v" => sensitivity,
    }
    StaSummary {
        "design" => design,
        "clock_ghz" => clock_ghz,
        "fmax_ghz" => fmax_ghz,
        "wns_ps" => wns_ps,
        "tns_ps" => tns_ps,
        "violations" => violations,
        "hold_wns_ps" => hold_wns_ps,
        "hold_violations" => hold_violations,
        "endpoints" => endpoints,
        "domains" => domains,
    }
    FindingSummary { "rule" => rule, "severity" => severity, "message" => message }
    LintSummary {
        "errors" => errors,
        "warnings" => warnings,
        "infos" => infos,
        "suppressed" => suppressed,
        "findings" => findings,
    }
    ShedInfo { "tenant" => tenant, "priority" => priority, "queue_depth" => queue_depth }
    DeadlineInfo { "tenant" => tenant, "deadline_ms" => deadline_ms, "queued_ms" => queued_ms }
}

wire_enum! {
    DesignSpec: "name", "design" {
        "serializer" => Serializer,
        "deserializer" => Deserializer,
        "cdr" => Cdr { "oversampling" => oversampling if |&n| within(n, DESIGN_OVERSAMPLING) },
        "scan_chain" => ScanChain,
        "digital_top" => DigitalTop {
            "oversampling" => oversampling if |&n| within(n, DESIGN_OVERSAMPLING)
        },
    }
    FaultKind: "kind", "fault kind" {
        "burst_noise" => BurstNoise { "duration_ui" => duration_ui, "flip_prob" => flip_prob },
        "dropout" => Dropout { "duration_ui" => duration_ui, "level" => level },
        "supply_droop" => SupplyDroop {
            "duration_ui" => duration_ui,
            "peak_flip_prob" => peak_flip_prob
        },
        "phase_glitch" => PhaseGlitch { "offset_samples" => offset_samples },
        "clock_drift" => ClockDrift {
            "duration_ui" => duration_ui,
            "slip_period_ui" => slip_period_ui,
            "late" => late
        },
        "seu_cdr_phase" => SeuCdrPhase { "bit" => bit },
        "seu_deserializer" => SeuDeserializer { "lane" => lane, "bit" => bit },
        "stuck_at_net" => StuckAtNet { "net" => net, "value" => value },
    }
    Request: "kind", "request kind" {
        "run_link" => RunLink { "config" => config, "frames" => frames },
        "run_link_with_faults" => RunLinkWithFaults {
            "config" => config,
            "frames" => frames,
            "faults" => schedule
        },
        "run_flow" => RunFlow { "design" => design, "pvt" => pvt },
        "bathtub" => Bathtub { "config" => config, "sweep" => sweep },
        "max_loss" => MaxLoss { "config" => config, "sweep" => sweep },
        "rate_sweep" => RateSweep { "config" => config, "sweep" => sweep, "rates_hz" => rates },
        "corner_sweep" => CornerSweep { "config" => config, "sweep" => sweep },
        "sta" => Sta { "design" => design, "pvt" => pvt, "clock_hz" => clock },
        "lint" => Lint { "design" => design },
    }
    Response: "kind", "response kind" {
        "link" => Link("report" => report),
        "faulted" => Faulted("report" => report),
        "flow" => Flow("summary" => summary),
        "bathtub" => Bathtub("points" => points),
        "max_loss" => MaxLoss { "max_loss_db" => max_loss_db },
        "rates" => Rates("points" => points),
        "corners" => Corners("points" => points),
        "sta" => Sta("summary" => summary),
        "lint" => Lint("summary" => summary),
        "shed" => Shed(_ => info),
        "deadline_exceeded" => DeadlineExceeded(_ => info),
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
/// Each event line is the event's canonical bytes, as in the `faults`
/// object of a canonical [`Request::RunLinkWithFaults`], with a space
/// after each `:` and `,` and inside each brace; the file adds the
/// `schema` tag. Floats are written as in [`crate::json::push_f64`], so
/// every probability, NaN and infinities included, reads back
/// bit-exactly.
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
    let mut event = String::new();
    for (i, e) in schedule.events().iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        event.clear();
        e.write(&mut event);
        push_spaced(&mut out, &event);
    }
    out.push_str(if schedule.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// Appends canonical JSON with a space after each `:` and `,` and
/// inside each brace, outside strings.
fn push_spaced(out: &mut String, canonical: &str) {
    let mut in_string = false;
    let mut escaped = false;
    for c in canonical.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            ':' | ',' | '{' => {
                out.push(c);
                out.push(' ');
            }
            '}' => out.push_str(" }"),
            _ => out.push(c),
        }
    }
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
    let obj = v.as_obj("document").map_err(parse_err)?;
    let schema = json::get(obj, "schema")
        .and_then(|s| s.as_str("schema"))
        .map_err(parse_err)?;
    if schema != FAULT_SCHEDULE_SCHEMA {
        return Err(parse_err(format!(
            "unsupported schema `{schema}` (want `{FAULT_SCHEDULE_SCHEMA}`)"
        )));
    }
    FaultSchedule::read_fields(obj, "document").map_err(parse_err)
}

impl Request {
    /// The canonical, field-order-stable compact JSON encoding.
    /// Encoding is deterministic: equal requests produce byte-identical
    /// text, and [`Request::from_json`] inverts it exactly.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
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
        Self::read(v, "request")
    }
}

impl Response {
    /// The canonical, field-order-stable compact JSON encoding.
    /// Deterministic runs produce byte-identical response text — the
    /// property the serve-layer bit-identity checks assert.
    pub fn to_canonical_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write(&mut out);
        out
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
        Self::read(v, "response")
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
        request.write(&mut canonical);
        let _ = write!(canonical, ",\"seed\":{seed}}}");
        let digest = digest_hex(canonical.as_bytes());
        Self { canonical, digest }
    }
}

/// Two independent FNV-1a-64 hashes (different offset bases) of the
/// bytes, concatenated to 32 hex characters. Not cryptographic — the
/// cache also compares canonical bytes on a digest hit, so a collision
/// costs a miss, never a wrong answer. One pass updates both states,
/// whose multiply chains are independent.
fn digest_hex(bytes: &[u8]) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let (a, b) = bytes.iter().fold(
        (0xCBF2_9CE4_8422_2325u64, 0x6C62_272E_07BB_0142u64),
        |(a, b), &byte| {
            (
                (a ^ u64::from(byte)).wrapping_mul(PRIME),
                (b ^ u64::from(byte)).wrapping_mul(PRIME),
            )
        },
    );
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
