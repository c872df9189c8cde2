//! The complete SerDes link: serializer → PHY → CDR → deserializer.
//!
//! This is the system of the paper's Fig. 3/Fig. 8 assembled from the
//! blocks in this workspace. Two execution paths:
//!
//! * [`run_frames`] — the fast path: bit-accurate serializer
//!   and deserializer FSMs, a statistical PHY calibrated from the analog
//!   models (amplitude margin + noise + jitter at sample granularity),
//!   and the cycle-accurate oversampling CDR. Scales to millions of
//!   bits. [`run_frames_with_faults`] is the same pipeline with a
//!   [`FaultSchedule`]'s faults injected, and `run_frames` runs it
//!   with none.
//! * [`run_frame_analog`] — the faithful path: a full
//!   transistor-level transient of driver, channel and front end for one
//!   frame, sliced at the oversampling rate and recovered by the same
//!   CDR. Used to regenerate Fig. 8 and to validate the fast path.

use crate::bitstream::BitVec;
use crate::cdr::{oversample_bits_packed, CdrConfig, OversamplingCdr};
use crate::deserializer::Deserializer;
use crate::error::Error;
use crate::serializer::{frame_to_bits, Frame, Serializer, FRAME_BITS, LANES, WORD_BITS};
use openserdes_fault::{FaultEvent, FaultKind, FaultSchedule};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::{Hertz, Time, Volt};
use openserdes_phy::{
    AnalogLink, BehavioralLink, ChannelModel, FrontEndConfig, LinkRun, RxFrontEnd,
};
use openserdes_telemetry as telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Link configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// Serial data rate.
    pub data_rate: Hertz,
    /// Channel between TX and RX.
    pub channel: ChannelModel,
    /// Process/voltage/temperature point.
    pub pvt: Pvt,
    /// CDR settings.
    pub cdr: CdrConfig,
}

impl LinkConfig {
    /// The paper's headline operating point: 2 Gb/s over a 34 dB channel
    /// at nominal PVT.
    pub fn paper_default() -> Self {
        Self {
            data_rate: Hertz::from_ghz(2.0),
            channel: ChannelModel::lossy(34.0),
            pvt: Pvt::nominal(),
            cdr: CdrConfig::paper_default(),
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of a multi-frame link run.
///
/// Each stage's bit count follows from the report and the config: the
/// serializer sends `frames_sent · FRAME_BITS` bits, the PHY makes
/// `cdr.oversampling` samples of each, the CDR recovers one bit per
/// UI and `bits` of them are scored. The stages' wall times are the
/// `link.serialize`, `link.phy`, `link.cdr` and `link.score` spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkReport {
    /// Frames transmitted.
    pub frames_sent: usize,
    /// Frames recovered bit-exact over the compared span.
    pub frames_correct: usize,
    /// Total payload bits compared.
    pub bits: u64,
    /// Bit errors after CDR recovery and alignment.
    pub bit_errors: u64,
    /// Whether the CDR declared lock.
    pub cdr_locked: bool,
    /// CDR phase movements during the run.
    pub cdr_phase_updates: u64,
    /// Bit lag the aligner settled on.
    pub alignment_lag: usize,
}

impl LinkReport {
    /// The measured bit-error ratio.
    pub fn ber(&self) -> f64 {
        self.bit_errors as f64 / self.bits.max(1) as f64
    }

    /// `true` when every frame was recovered exactly.
    pub fn error_free(&self) -> bool {
        self.bit_errors == 0 && self.frames_correct == self.frames_sent
    }
}

/// Result of a single-frame analog run.
#[derive(Debug, Clone)]
pub struct AnalogFrameReport {
    /// The transistor-level waveform record.
    pub run: LinkRun,
    /// Bit errors after CDR recovery and alignment.
    pub bit_errors: u64,
    /// Bits compared (after settling skip).
    pub bits: u64,
}

/// Best alignment of `recv` against `sent` over small lags; returns
/// `(lag, errors, overlap)` scored over the span beyond `skip`.
///
/// Every lag is scored over the *same* overlap length (the largest
/// span available to all candidate lags). Per-lag overlaps would
/// hand larger lags fewer error opportunities and bias the choice
/// toward them; with a common span the error counts are comparable
/// and ties resolve to the smallest lag.
fn align(sent: &BitVec, recv: &BitVec, skip: usize) -> (usize, u64, usize) {
    const MAX_LAG: usize = 3;
    if recv.len() <= skip + MAX_LAG || sent.len() <= skip {
        return (0, 0, 0);
    }
    let overlap = (recv.len() - skip - MAX_LAG).min(sent.len() - skip);
    let mut best = (0usize, u64::MAX);
    for lag in 0..=MAX_LAG {
        let errors = recv.xor_errors(skip + lag, sent, skip, overlap);
        if errors < best.1 {
            best = (lag, errors);
        }
    }
    (best.0, best.1, overlap)
}

/// Scores the deserializer's actual output against the sent frames
/// over the compared span `[skip, skip + overlap)` (sent-bit
/// coordinates). A frame counts correct when every captured bit of
/// it inside the span matches; a frame that falls entirely outside
/// the span (settling window, or the unaligned tail the aligner
/// could not compare) counts correct when it was captured at all —
/// the link is not blamed for bits that were never scored.
fn score_frames(
    frames: &[Frame],
    got: &[Frame],
    partial: (Frame, usize),
    skip: usize,
    overlap: usize,
) -> usize {
    let mut correct = 0usize;
    for (i, sent) in frames.iter().enumerate() {
        let lo = i * FRAME_BITS;
        let (cap, fill) = if i < got.len() {
            (got[i], FRAME_BITS)
        } else if i == got.len() && partial.1 > 0 {
            partial
        } else {
            continue; // never captured
        };
        let scored_lo = lo.max(skip);
        let scored_hi = (lo + FRAME_BITS).min(skip + overlap).min(lo + fill);
        if scored_lo >= scored_hi {
            correct += 1;
            continue;
        }
        let mut ok = true;
        for w in 0..LANES {
            let wlo = lo + w * WORD_BITS;
            let a = scored_lo.max(wlo);
            let b = scored_hi.min(wlo + WORD_BITS);
            if a >= b {
                continue;
            }
            let mask = (((1u64 << (b - wlo)) - 1) ^ ((1u64 << (a - wlo)) - 1)) as u32;
            if (cap[w] ^ sent[w]) & mask != 0 {
                ok = false;
                break;
            }
        }
        if ok {
            correct += 1;
        }
    }
    correct
}

/// The front end's sensitivity at `config`'s PVT point and data rate:
/// the one DC solve of the PHY's characterization, which depends on
/// neither the channel nor the seed.
///
/// # Errors
///
/// Propagates solver failures from the bias point.
pub(crate) fn front_end_sensitivity(config: &LinkConfig) -> Result<Volt, Error> {
    let front_end = RxFrontEnd::new(FrontEndConfig::paper_default(), config.pvt);
    Ok(front_end.sensitivity(config.data_rate)?)
}

/// The model `BehavioralLink::from_analog` builds at `config`'s
/// operating point, from a sensitivity [`front_end_sensitivity`]
/// already solved there.
fn characterized(config: &LinkConfig, rx_sensitivity: Volt) -> BehavioralLink {
    let analog = AnalogLink::paper_default(config.pvt, config.channel.clone());
    BehavioralLink {
        tx_swing: Volt::new(analog.sampler.threshold.value() * 2.0),
        noise_sigma: analog.channel.noise_sigma,
        channel: analog.channel,
        rx_sensitivity,
        ui: Time::new(1.0 / config.data_rate.value()),
        jitter_slope: 2.0,
    }
}

/// The statistical PHY of the fast path: statistics from the analog
/// models at `config`'s operating point, then the serialized `bits`
/// oversampled with a deliberate phase offset (the reference clock is
/// not aligned to the data — the CDR's whole job), edge jitter and
/// per-sample noise flips. The front end is characterized here unless
/// its sensitivity comes solved.
fn statistical_phy(
    config: &LinkConfig,
    bits: &BitVec,
    seed: u64,
    rx_sensitivity: Option<Volt>,
) -> Result<BitVec, Error> {
    let beh = match rx_sensitivity {
        Some(sensitivity) => characterized(config, sensitivity),
        None => {
            let analog = AnalogLink::paper_default(config.pvt, config.channel.clone());
            BehavioralLink::from_analog(&analog, config.data_rate)?
        }
    };
    let ui = 1.0 / config.data_rate.value();
    let jitter_frac = config.channel.rj_sigma.value() / ui;
    let n = config.cdr.oversampling;
    let mut stream = oversample_bits_packed(bits, n, 0.3, jitter_frac, seed ^ 0x0511);
    // No draw falls below a flip probability that is 0 or NaN.
    let flip_prob = beh.flip_probability_jitter_eroded();
    if flip_prob > 0.0 {
        let mut rng = StdRng::seed_from_u64(seed);
        for s in 0..stream.len() {
            if rng.gen::<f64>() < flip_prob {
                stream.toggle(s);
            }
        }
    }
    Ok(stream)
}

/// The fast-path link engine: serializer → statistical PHY → CDR →
/// deserializer → scoring, at `config`'s operating point. This is the
/// engine behind `Session::run_link`: [`run_frames_with_faults`] with
/// no faults, under its own `link.run` span.
///
/// # Errors
///
/// Propagates solver failures from the front-end characterization.
pub fn run_frames(config: &LinkConfig, frames: &[Frame], seed: u64) -> Result<LinkReport, Error> {
    let _span = telemetry::span("link.run");
    Ok(run_pipeline(config, frames, seed, &FaultSchedule::new(0), None)?.link)
}

/// [`run_frames`] with the front end's sensitivity at `config`'s PVT
/// point and rate already solved ([`front_end_sensitivity`]), so the
/// probes of one loss bisection share one characterization.
pub(crate) fn run_frames_characterized(
    config: &LinkConfig,
    frames: &[Frame],
    seed: u64,
    rx_sensitivity: Volt,
) -> Result<LinkReport, Error> {
    let _span = telemetry::span("link.run");
    Ok(run_pipeline(
        config,
        frames,
        seed,
        &FaultSchedule::new(0),
        Some(rx_sensitivity),
    )?
    .link)
}

/// Result of a fault-campaign link run: the ordinary [`LinkReport`]
/// plus the resilience metrics the campaign exists to measure.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// The link-level outcome under the injected schedule.
    pub link: LinkReport,
    /// Post-lock decision windows that disagreed with the selected
    /// phase (see [`OversamplingCdr::lock_losses`]).
    pub lock_losses: u64,
    /// Re-acquisition time of each completed lock-loss episode, in UIs.
    pub relock_times_ui: Vec<u64>,
    /// Channel-fault events that landed inside the run.
    pub injected_channel: usize,
    /// Clock-fault events that landed inside the run.
    pub injected_clock: usize,
    /// Digital SEU events that landed inside the run (structural
    /// stuck-at events are not the link runner's to apply and are
    /// never counted here).
    pub injected_digital: usize,
}

/// Resamples the oversampled stream under the schedule's clock faults:
/// each UI's samples are read `offset` positions away, where `offset`
/// accumulates every phase glitch at or before that UI and every drift
/// slip elapsed so far (positive = late). Reads past either end clamp
/// to the stream boundary. Pure function of `(stream, schedule)`.
///
/// The offset is a sum of steps: a glitch adds its `offset_samples` at
/// its `at_ui`, and a drift adds ±1 at each `at_ui + m·max(period, 1)`,
/// `m ≥ 1`, within its duration. So the UIs are walked once, and each
/// run of UIs between steps is copied a word at a time.
fn apply_clock_faults(stream: &BitVec, n: usize, schedule: &FaultSchedule) -> BitVec {
    /// One event's steps: `by` at `next`, then every `period` UIs up to
    /// and including `last`.
    struct Steps {
        next: u64,
        by: i64,
        period: u64,
        last: u64,
    }
    let len = stream.len();
    let uis = (len / n) as u64;
    let mut events: Vec<Steps> = schedule
        .clock_events()
        .filter_map(|(_, ev)| match ev.kind {
            FaultKind::PhaseGlitch { offset_samples } => Some(Steps {
                next: ev.at_ui,
                by: i64::from(offset_samples),
                period: 1,
                last: ev.at_ui,
            }),
            FaultKind::ClockDrift {
                duration_ui,
                slip_period_ui,
                late,
            } => {
                let period = slip_period_ui.max(1);
                let slips = duration_ui / period;
                (slips > 0).then(|| Steps {
                    next: ev.at_ui.saturating_add(period),
                    by: if late { 1 } else { -1 },
                    period,
                    last: ev.at_ui.saturating_add(slips * period),
                })
            }
            _ => None,
        })
        .collect();
    let mut out = BitVec::with_capacity(len);
    let (mut k, mut offset) = (0u64, 0i64);
    while k < uis {
        let end = events
            .iter()
            .map(|e| e.next)
            .min()
            .map_or(uis, |next| next.min(uis));
        let from = (k * n as u64) as i64 + offset;
        push_clamped(&mut out, stream, from, ((end - k) * n as u64) as usize);
        for e in events.iter_mut().filter(|e| e.next == end) {
            offset += e.by;
            e.next = if e.next < e.last {
                e.next.saturating_add(e.period)
            } else {
                u64::MAX
            };
        }
        k = end;
    }
    out
}

/// Appends `count` samples of `stream` from position `from`, reading
/// positions before its start as its first sample and positions past
/// its end as its last.
fn push_clamped(out: &mut BitVec, stream: &BitVec, from: i64, count: usize) {
    let len = stream.len() as i64;
    let end = from + count as i64;
    let before = (end.min(0) - from).max(0) as usize;
    if before > 0 {
        out.push_run(stream.get(0), before);
    }
    let mut at = from.max(0);
    while at < end.min(len) {
        let take = (end.min(len) - at).min(64);
        out.push_word(stream.window64(at as usize), take as usize);
        at += take;
    }
    let after = (end - from.max(len)).max(0) as usize;
    if after > 0 {
        out.push_run(stream.get(len as usize - 1), after);
    }
}

/// Applies one channel-fault event to the oversampled stream in place.
/// Random draws come from the event's own seeded stream
/// ([`FaultSchedule::event_seed`]) so the base PHY noise is untouched
/// and events inject identically in any order.
fn apply_channel_fault(stream: &mut BitVec, n: usize, ev: &FaultEvent, seed: u64) {
    let uis = (stream.len() / n) as u64;
    let start = ev.at_ui.min(uis) as usize;
    match ev.kind {
        FaultKind::BurstNoise {
            duration_ui,
            flip_prob,
        } => {
            let end = ev.at_ui.saturating_add(duration_ui).min(uis) as usize;
            let mut rng = StdRng::seed_from_u64(seed);
            for s in start * n..end * n {
                if rng.gen::<f64>() < flip_prob {
                    stream.toggle(s);
                }
            }
        }
        FaultKind::Dropout { duration_ui, level } => {
            let end = ev.at_ui.saturating_add(duration_ui).min(uis) as usize;
            for s in start * n..end * n {
                stream.set(s, level);
            }
        }
        FaultKind::SupplyDroop {
            duration_ui,
            peak_flip_prob,
        } => {
            let end = ev.at_ui.saturating_add(duration_ui).min(uis) as usize;
            let d = duration_ui.max(1) as f64;
            let mut rng = StdRng::seed_from_u64(seed);
            for s in start * n..end * n {
                // Triangular profile: 0 at the window edges, peak at
                // the midpoint — a VDD dip through a CMOS sampler.
                let into = (s / n) as u64 - ev.at_ui;
                let frac = (into as f64 + 0.5) / d;
                let p = peak_flip_prob * (1.0 - (2.0 * frac - 1.0).abs());
                if rng.gen::<f64>() < p {
                    stream.toggle(s);
                }
            }
        }
        _ => {}
    }
}

/// The fast-path link engine under a deterministic fault campaign:
/// the [`run_frames`] pipeline with [`FaultSchedule`] events injected
/// at their UI timestamps — channel faults perturb the oversampled
/// stream, clock faults resample it, SEUs flip CDR/deserializer state
/// between UIs. With an empty schedule the report is [`run_frames`]'s
/// at the same seed, because both run one pipeline; with any schedule
/// it is a pure function of `(config, frames, seed, schedule)`.
///
/// Structural [`FaultKind::StuckAtNet`] events are outside the link
/// runner's jurisdiction and are ignored here.
///
/// # Errors
///
/// Propagates solver failures from the front-end characterization.
pub fn run_frames_with_faults(
    config: &LinkConfig,
    frames: &[Frame],
    seed: u64,
    schedule: &FaultSchedule,
) -> Result<FaultReport, Error> {
    let _span = telemetry::span("link.run_faulted");
    run_pipeline(config, frames, seed, schedule, None)
}

/// The one fast-path pipeline behind both runners, each of which
/// opens its own root span around it: serializer → statistical PHY →
/// CDR → deserializer → scoring, each stage under its own span, with
/// the schedule's faults injected where they land.
fn run_pipeline(
    config: &LinkConfig,
    frames: &[Frame],
    seed: u64,
    schedule: &FaultSchedule,
    rx_sensitivity: Option<Volt>,
) -> Result<FaultReport, Error> {
    // Serialize everything into one contiguous packed bit stream.
    let ser_span = telemetry::span("link.serialize");
    let mut ser = Serializer::new();
    let mut bits = BitVec::with_capacity(frames.len() * FRAME_BITS);
    for &f in frames {
        ser.serialize_into(f, &mut bits);
    }
    drop(ser_span);

    // The statistical PHY, then fault injection on the sampled
    // stream: clock faults first (they move *when* everything else is
    // seen), then amplitude faults at their scheduled UIs.
    let phy_span = telemetry::span("link.phy");
    let mut stream = statistical_phy(config, &bits, seed, rx_sensitivity)?;
    let n = config.cdr.oversampling;
    let uis = (stream.len() / n) as u64;
    let mut injected_channel = 0;
    if schedule.clock_events().any(|(_, e)| e.at_ui < uis) {
        stream = apply_clock_faults(&stream, n, schedule);
    }
    let injected_clock = schedule
        .clock_events()
        .filter(|(_, e)| e.at_ui < uis)
        .count();
    for (idx, ev) in schedule.channel_events() {
        if ev.at_ui < uis {
            apply_channel_fault(&mut stream, n, ev, schedule.event_seed(idx));
            injected_channel += 1;
        }
    }
    drop(phy_span);

    // CDR recovery, with SEUs striking the phase register between UIs.
    let cdr_span = telemetry::span("link.cdr");
    let mut cdr = OversamplingCdr::new(config.cdr);
    let phase_seus: Vec<(usize, u32)> = schedule
        .digital_events()
        .filter_map(|(_, e)| match e.kind {
            FaultKind::SeuCdrPhase { bit } if e.at_ui < uis => Some((e.at_ui as usize, bit)),
            _ => None,
        })
        .collect();
    let mut injected_digital = phase_seus.len();
    let recovered = cdr.recover_with_phase_flips(&stream, &phase_seus);
    drop(cdr_span);

    // Score against the sent stream (skip the CDR's first two
    // decision windows), then deserialize from the aligned position,
    // around any deserializer SEU strikes, and count frames from what
    // the deserializer actually produced.
    let score_span = telemetry::span("link.score");
    let skip = 2 * config.cdr.window;
    let (lag, bit_errors, overlap) = align(&bits, &recovered, skip);
    let mut des = Deserializer::new();
    let mut got = Vec::new();
    let mut pos = lag;
    for (_, ev) in schedule.digital_events() {
        if let FaultKind::SeuDeserializer { lane, bit } = ev.kind {
            if ev.at_ui >= recovered.len() as u64 {
                continue;
            }
            let at = (ev.at_ui as usize).max(pos);
            got.extend(des.push_packed(&recovered, pos, at - pos));
            des.inject_seu(lane, bit);
            injected_digital += 1;
            pos = at;
        }
    }
    got.extend(des.push_packed(&recovered, pos, recovered.len() - pos));
    let frames_correct = score_frames(frames, &got, des.partial_frame(), skip, overlap);
    drop(score_span);

    telemetry::counter("link.tx_bits", bits.len() as u64);
    telemetry::counter("link.phy_samples", stream.len() as u64);
    telemetry::counter("link.compared_bits", overlap as u64);
    telemetry::counter("link.bit_errors", bit_errors);
    telemetry::counter("link.cdr_phase_updates", cdr.phase_updates());
    telemetry::record_value("link.bit_errors_per_run", bit_errors);
    telemetry::counter("link.fault_events", schedule.len() as u64);
    telemetry::counter("link.lock_losses", cdr.lock_losses());
    for &t in cdr.relock_times_ui() {
        telemetry::record_value("link.relock_ui", t);
    }

    Ok(FaultReport {
        link: LinkReport {
            frames_sent: frames.len(),
            frames_correct,
            bits: overlap as u64,
            bit_errors,
            cdr_locked: cdr.is_locked(),
            cdr_phase_updates: cdr.phase_updates(),
            alignment_lag: lag,
        },
        lock_losses: cdr.lock_losses(),
        relock_times_ui: cdr.relock_times_ui().to_vec(),
        injected_channel,
        injected_clock,
        injected_digital,
    })
}

/// The faithful-path link engine: one frame through the full
/// transistor-level transient (driver → channel → front end), sliced at
/// the oversampling rate and recovered by the same CDR. This is the
/// engine behind `Session::run_analog_link`.
///
/// # Errors
///
/// Propagates solver failures from the transients.
pub fn run_frame_analog(config: &LinkConfig, frame: Frame) -> Result<AnalogFrameReport, Error> {
    let _span = telemetry::span("link.analog_frame");
    let bits = frame_to_bits(&frame);
    let ui = Time::new(1.0 / config.data_rate.value());
    let analog = AnalogLink::paper_default(config.pvt, config.channel.clone());
    let run = analog.transmit(&bits, ui)?;

    // Slice the restored output at the oversampling rate. The
    // three-stage driver inverts and the two-stage front end does
    // not, so polarity is inverted end-to-end.
    let n = config.cdr.oversampling;
    let threshold = 0.5 * config.pvt.vdd.value();
    let mut stream = BitVec::with_capacity(bits.len() * n);
    for i in 0..bits.len() {
        for j in 0..n {
            let t = (i as f64 + (j as f64 + 0.5) / n as f64) * ui.value();
            stream.push(run.rx.restored.sample_at(t) <= threshold);
        }
    }

    let cdr_span = telemetry::span("link.cdr");
    let mut cdr = OversamplingCdr::new(config.cdr);
    let recovered = cdr.recover_packed(&stream);
    drop(cdr_span);
    let skip = 8;
    let (_, bit_errors, overlap) = align(&BitVec::from_bools(&bits), &recovered, skip);
    telemetry::counter("link.bit_errors", bit_errors);
    telemetry::counter("link.cdr_phase_updates", cdr.phase_updates());
    Ok(AnalogFrameReport {
        run,
        bit_errors,
        bits: overlap as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prbs::{PrbsGenerator, PrbsOrder};
    use crate::serializer::LANES;

    fn prbs_frames(count: usize) -> Vec<Frame> {
        PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(count)
    }

    #[test]
    fn paper_operating_point_error_free() {
        // 2 Gb/s, 34 dB, PRBS-31 — the Fig. 8 scenario, fast path.
        let report = run_frames(&LinkConfig::paper_default(), &prbs_frames(40), 1).expect("runs");
        assert!(report.cdr_locked, "CDR must lock");
        assert_eq!(report.bit_errors, 0, "zero BER at the paper's point");
        assert!(report.error_free());
        assert!(report.bits > 9_000);
    }

    #[test]
    fn heavy_loss_breaks_the_link() {
        let mut cfg = LinkConfig::paper_default();
        cfg.channel = ChannelModel::lossy(46.0);
        let report = run_frames(&cfg, &prbs_frames(10), 1).expect("runs");
        assert!(report.ber() > 0.05, "ber = {}", report.ber());
        assert!(!report.error_free());
    }

    #[test]
    fn clean_channel_many_frames() {
        let mut cfg = LinkConfig::paper_default();
        cfg.channel = ChannelModel::emib(3.0);
        let frames = prbs_frames(100);
        let report = run_frames(&cfg, &frames, 9).expect("runs");
        assert!(report.error_free());
        assert_eq!(report.frames_sent, 100);
    }

    #[test]
    fn report_math() {
        let r = LinkReport {
            frames_sent: 4,
            frames_correct: 4,
            bits: 1000,
            bit_errors: 1,
            cdr_locked: true,
            cdr_phase_updates: 1,
            alignment_lag: 0,
        };
        assert!((r.ber() - 1e-3).abs() < 1e-12);
        assert!(!r.error_free());
    }

    #[test]
    fn align_overlap_is_lag_invariant() {
        // Idle (all-zero) data whose last three sent bits are high. With
        // per-lag overlaps, lag 3's comparison silently dropped exactly
        // those trailing sent bits and won with zero errors even though
        // nothing supports a lag. Scoring every lag over a common span
        // keeps lag 0 and reports the span that was actually compared.
        let mut sent = BitVec::from_bools(&[false; 400]);
        for i in 397..400 {
            sent.set(i, true);
        }
        let recv = BitVec::from_bools(&[false; 400]);
        let (lag, errors, overlap) = align(&sent, &recv, 64);
        assert_eq!(lag, 0, "no evidence for any lag");
        assert_eq!(errors, 0);
        assert_eq!(overlap, 400 - 64 - 3, "common span excludes the tail");
    }

    #[test]
    fn align_finds_true_lag_on_shifted_stream() {
        let pattern: Vec<bool> = PrbsGenerator::new(PrbsOrder::Prbs15).take_bits(600);
        let sent = BitVec::from_bools(&pattern);
        for true_lag in 0..4usize {
            let mut shifted = vec![false; true_lag];
            shifted.extend_from_slice(&pattern[..600 - true_lag]);
            let recv = BitVec::from_bools(&shifted);
            let (lag, errors, _) = align(&sent, &recv, 64);
            assert_eq!(lag, true_lag);
            assert_eq!(errors, 0, "lag {true_lag} must align cleanly");
        }
    }

    #[test]
    fn align_degenerate_spans_report_zero_bits() {
        let sent = BitVec::from_bools(&[true; 10]);
        let recv = BitVec::from_bools(&[true; 10]);
        let (lag, errors, overlap) = align(&sent, &recv, 10);
        assert_eq!((lag, errors, overlap), (0, 0, 0));
    }

    #[test]
    fn oversized_settling_window_reports_zero_compared_bits() {
        // A settling skip beyond the whole stream used to underflow the
        // compared-bit count (and the align loop returned u64::MAX
        // errors). It must degrade to "nothing compared" instead.
        let mut cfg = LinkConfig::paper_default();
        cfg.channel = ChannelModel::emib(3.0);
        cfg.cdr.window = 512; // skip = 1024 > 2 frames = 512 bits
        let report = run_frames(&cfg, &prbs_frames(2), 1).expect("runs");
        assert_eq!(report.bits, 0, "nothing survives the settling skip");
        assert_eq!(report.bit_errors, 0);
    }

    #[test]
    fn frames_correct_reflects_captured_output() {
        // score_frames counts only frames the deserializer produced;
        // the old scorer could report every frame correct whenever the
        // post-skip error count happened to be zero, captured or not.
        let frames = prbs_frames(3);
        // Deserializer emitted frame 0 intact, frame 1 corrupted inside
        // the compared span, and 100 bits of frame 2.
        let mut bad = frames[1];
        bad[3] ^= 0x10;
        let got = vec![frames[0], bad];
        let partial = (frames[2], 100);
        let correct = score_frames(&frames, &got, partial, 64, 700);
        // Frame 0 matches, frame 1 differs at a scored bit, frame 2's
        // captured prefix (bits 512..612, inside [64, 764)) matches.
        assert_eq!(correct, 2);
        // Same situation but the corruption sits inside the settling
        // window: the frame is not blamed for unscored bits.
        let mut settling_bad = frames[0];
        settling_bad[0] ^= 0x1; // bit 0 < skip = 64
        let got = vec![settling_bad, frames[1]];
        let correct = score_frames(&frames, &got, (frames[2], 100), 64, 700);
        assert_eq!(correct, 3);
        // A frame that was never captured can never count.
        let correct = score_frames(&frames, &[], ([0u32; LANES], 0), 64, 700);
        assert_eq!(correct, 0);
    }

    #[test]
    fn empty_schedule_is_bit_identical_to_fault_free_path() {
        let cfg = LinkConfig::paper_default();
        let frames = prbs_frames(20);
        let plain = run_frames(&cfg, &frames, 5).expect("runs");
        let faulted =
            run_frames_with_faults(&cfg, &frames, 5, &FaultSchedule::new(99)).expect("runs");
        assert_eq!(faulted.link, plain, "empty schedule must be a no-op");
        // The paper channel is jittery, so post-lock disagreeing windows
        // exist even fault-free — but at most the final episode may
        // still be open when the stream ends.
        assert!(faulted.lock_losses - faulted.relock_times_ui.len() as u64 <= 1);
        assert_eq!(faulted.injected_channel, 0);
        assert_eq!(faulted.injected_clock, 0);
        assert_eq!(faulted.injected_digital, 0);
    }

    #[test]
    fn fault_runs_are_reproducible() {
        let cfg = LinkConfig::paper_default();
        let frames = prbs_frames(20);
        let schedule = openserdes_fault::campaign(
            openserdes_fault::CampaignKind::Mixed,
            13,
            frames.len() as u64 * FRAME_BITS as u64,
        );
        let a = run_frames_with_faults(&cfg, &frames, 5, &schedule).expect("runs");
        let b = run_frames_with_faults(&cfg, &frames, 5, &schedule).expect("runs");
        assert_eq!(a, b, "same seed + schedule => identical report");
        assert!(a.injected_channel + a.injected_clock + a.injected_digital > 0);
    }

    #[test]
    fn dropout_burst_disturbs_and_cdr_relocks() {
        let mut cfg = LinkConfig::paper_default();
        cfg.channel = ChannelModel::emib(3.0); // clean channel isolates the fault
        let frames = prbs_frames(40);
        let uis = frames.len() as u64 * FRAME_BITS as u64;
        let schedule = FaultSchedule::new(7)
            .with_event(FaultEvent {
                at_ui: uis / 2,
                kind: FaultKind::Dropout {
                    duration_ui: 48,
                    level: false,
                },
            })
            .with_event(FaultEvent {
                at_ui: uis / 2 + 400,
                kind: FaultKind::PhaseGlitch { offset_samples: 2 },
            });
        let report = run_frames_with_faults(&cfg, &frames, 5, &schedule).expect("runs");
        assert!(report.link.cdr_locked, "link must end the run locked");
        assert!(
            report.link.bit_errors > 0,
            "a 48-UI dropout must cost something"
        );
        // Whatever lock disturbance happened must have healed.
        assert!(
            report.relock_times_ui.len() as u64 >= report.lock_losses.min(1),
            "episodes must close"
        );
    }

    #[test]
    fn deserializer_seu_corrupts_one_frame() {
        let mut cfg = LinkConfig::paper_default();
        cfg.channel = ChannelModel::emib(3.0);
        let frames = prbs_frames(40);
        let uis = frames.len() as u64 * FRAME_BITS as u64;
        // Strike mid-frame (fill ≈ 200) at a bank bit already captured
        // (lane 2 bit 5 = absolute bit 69 < 200): it will not be
        // overwritten before the frame completes.
        let schedule = FaultSchedule::new(3).with_event(FaultEvent {
            at_ui: uis / 2 + 200,
            kind: FaultKind::SeuDeserializer { lane: 2, bit: 5 },
        });
        let clean = run_frames(&cfg, &frames, 9).expect("runs");
        let hit = run_frames_with_faults(&cfg, &frames, 9, &schedule).expect("runs");
        assert_eq!(hit.injected_digital, 1);
        assert_eq!(
            hit.link.bit_errors, clean.bit_errors,
            "a bank SEU happens after alignment scoring"
        );
        assert_eq!(
            hit.link.frames_correct,
            clean.frames_correct - 1,
            "exactly one captured frame corrupts"
        );
    }

    #[test]
    fn rtl_equivalent_degrades_more_under_burst_noise() {
        // Identical burst-noise schedule, channel and seed — the only
        // difference is the CDR feature set. The paper configuration's
        // glitch filter plus vote hysteresis must buy measurably fewer
        // bit errors than the bare RTL decision logic, which is the
        // degradation the fault campaigns exist to quantify.
        let frames = prbs_frames(40);
        let uis = frames.len() as u64 * FRAME_BITS as u64;
        let schedule =
            openserdes_fault::campaign(openserdes_fault::CampaignKind::BurstNoise, 21, uis);

        let paper_cfg = LinkConfig::paper_default();
        let mut rtl_cfg = LinkConfig::paper_default();
        rtl_cfg.cdr = CdrConfig::rtl_equivalent(paper_cfg.cdr.oversampling);

        let paper = run_frames_with_faults(&paper_cfg, &frames, 5, &schedule).expect("runs");
        let rtl = run_frames_with_faults(&rtl_cfg, &frames, 5, &schedule).expect("runs");
        assert_eq!(
            paper.injected_channel, rtl.injected_channel,
            "both runs must see the same schedule"
        );
        assert!(
            rtl.link.bit_errors > paper.link.bit_errors,
            "rtl_equivalent must degrade strictly more: rtl {} vs paper {}",
            rtl.link.bit_errors,
            paper.link.bit_errors
        );
    }

    #[test]
    fn clock_drift_runs_through_the_link_runner() {
        // A late drift of one sample every 40 UIs for 2 000 UIs slips 50
        // samples, ten UIs at 5x: the CDR must follow the moving eye.
        let mut cfg = LinkConfig::paper_default();
        cfg.channel = ChannelModel::emib(3.0);
        let frames = prbs_frames(40);
        let uis = frames.len() as u64 * FRAME_BITS as u64;
        let drift = FaultSchedule::new(5).with_event(FaultEvent {
            at_ui: uis / 4,
            kind: FaultKind::ClockDrift {
                duration_ui: 2_000,
                slip_period_ui: 40,
                late: true,
            },
        });
        let clean = run_frames(&cfg, &frames, 9).expect("runs");
        let hit = run_frames_with_faults(&cfg, &frames, 9, &drift).expect("runs");
        assert_eq!(hit.injected_clock, 1);
        assert_eq!(
            hit,
            run_frames_with_faults(&cfg, &frames, 9, &drift).expect("runs")
        );
        assert!(
            hit.link.cdr_phase_updates > clean.cdr_phase_updates,
            "the CDR must track the drift: {} vs {} phase updates",
            hit.link.cdr_phase_updates,
            clean.cdr_phase_updates
        );
        assert!(hit.link.cdr_locked, "and end the run locked");
    }

    /// The clock-fault resampler as first written, kept as the oracle:
    /// every UI rescans the whole schedule for its offset, then copies
    /// its samples one at a time.
    fn apply_clock_faults_reference(stream: &BitVec, n: usize, schedule: &FaultSchedule) -> BitVec {
        let len = stream.len();
        let uis = len / n;
        let mut out = BitVec::with_capacity(len);
        for k in 0..uis {
            let mut offset: i64 = 0;
            for (_, ev) in schedule.clock_events() {
                if (k as u64) < ev.at_ui {
                    continue;
                }
                match ev.kind {
                    FaultKind::PhaseGlitch { offset_samples } => offset += offset_samples as i64,
                    FaultKind::ClockDrift {
                        duration_ui,
                        slip_period_ui,
                        late,
                    } => {
                        let into = (k as u64 - ev.at_ui).min(duration_ui);
                        let slips = (into / slip_period_ui.max(1)) as i64;
                        offset += if late { slips } else { -slips };
                    }
                    _ => {}
                }
            }
            for j in 0..n {
                let i = ((k * n + j) as i64 + offset).clamp(0, len as i64 - 1) as usize;
                out.push(stream.get(i));
            }
        }
        out
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(400))]

            /// Random glitch and drift schedules, resampled in runs
            /// against the per-UI rescan, bit for bit: early and late
            /// drifts with periods of 0, 1, a few UIs and past the run,
            /// durations and start UIs past the end of the stream,
            /// overlapping events, and offsets that read past both ends.
            #[test]
            fn clock_faults_match_the_per_ui_rescan(
                n in 3usize..65,
                uis in 0usize..300,
                events in 0usize..7,
                seed in any::<u64>(),
            ) {
                use rand::{Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(seed);
                let stream: BitVec = (0..uis * n).map(|_| rng.gen::<bool>()).collect();
                let pick = |rng: &mut StdRng, span: u64| -> u64 {
                    match rng.gen_range(0u32..5) {
                        0 => 0,
                        1 => 1,
                        2 => rng.gen_range(0..span + 2),
                        3 => span + rng.gen_range(0u64..50),
                        _ => u64::MAX - rng.gen_range(0u64..2),
                    }
                };
                let mut schedule = FaultSchedule::new(seed);
                for _ in 0..events {
                    let at_ui = match rng.gen_range(0u32..4) {
                        0 => 0,
                        3 => uis as u64 + rng.gen_range(0u64..20),
                        _ => rng.gen_range(0..uis as u64 + 1),
                    };
                    let kind = if rng.gen::<bool>() {
                        let reach = (uis * n) as i32 + 2;
                        FaultKind::PhaseGlitch {
                            offset_samples: match rng.gen_range(0u32..3) {
                                0 => rng.gen_range(0..2 * n as u64 + 1) as i32 - n as i32,
                                1 => reach + rng.gen_range(0u32..5) as i32,
                                _ => -reach - rng.gen_range(0u32..5) as i32,
                            },
                        }
                    } else {
                        FaultKind::ClockDrift {
                            duration_ui: pick(&mut rng, uis as u64),
                            slip_period_ui: pick(&mut rng, uis as u64 / 8),
                            late: rng.gen::<bool>(),
                        }
                    };
                    schedule.push(FaultEvent { at_ui, kind });
                }
                prop_assert_eq!(
                    apply_clock_faults(&stream, n, &schedule),
                    apply_clock_faults_reference(&stream, n, &schedule),
                    "n {}, {} UIs, schedule {:?}", n, uis, schedule
                );
            }
        }
    }

    #[test]
    fn a_solved_sensitivity_characterizes_as_from_analog_does() {
        let mut lossy = LinkConfig::paper_default();
        lossy.channel = ChannelModel::lossy(12.5);
        let mut slow = LinkConfig::paper_default();
        slow.pvt = Pvt::worst_case();
        slow.data_rate = Hertz::from_ghz(1.0);
        slow.channel = ChannelModel::emib(3.0);
        for config in [LinkConfig::paper_default(), lossy, slow] {
            let analog = AnalogLink::paper_default(config.pvt, config.channel.clone());
            let want = BehavioralLink::from_analog(&analog, config.data_rate).expect("solves");
            let sensitivity = front_end_sensitivity(&config).expect("solves");
            assert_eq!(characterized(&config, sensitivity), want, "{config:?}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = LinkConfig::paper_default();
        let frames = prbs_frames(5);
        let a = run_frames(&cfg, &frames, 3).expect("runs");
        let b = run_frames(&cfg, &frames, 3).expect("runs");
        assert_eq!(a, b);
    }

    #[test]
    #[ignore = "slow: full transistor-level frame (run with --ignored)"]
    fn analog_frame_matches_fast_path() {
        let mut cfg = LinkConfig::paper_default();
        // 1 Gb/s over a gentle channel keeps the analog run robust.
        cfg.data_rate = Hertz::from_ghz(1.0);
        cfg.channel = ChannelModel::lossy(20.0);
        let frame = prbs_frames(1)[0];
        let report = run_frame_analog(&cfg, frame).expect("transients run");
        assert_eq!(report.bit_errors, 0, "analog path recovers the frame");
    }
}
