//! One sample of every job wire kind, shared by the byte pins
//! (`job_wire_pins.rs`) and the wire fuzz (`serve_wire_fuzz.rs`): the
//! nine request kinds with a seed each and the eleven response kinds.
//! Together they carry NaN, ±inf, −0.0, an empty list, `u64::MAX` and
//! strings that need escapes.

use openserdes::core::cdr::CdrConfig;
use openserdes::core::job::{
    DeadlineInfo, DesignSpec, FindingSummary, FlowSummary, LintSummary, Request, Response,
    ShedInfo, StaSummary, SweepSpec,
};
use openserdes::core::{
    BathtubPoint, CornerPoint, FaultReport, LinkConfig, LinkReport, SweepPoint,
};
use openserdes::fault::{FaultEvent, FaultKind, FaultSchedule};
use openserdes::pdk::corner::{ProcessCorner, Pvt};
use openserdes::pdk::units::{Hertz, Time, Volt};
use openserdes::phy::ChannelModel;

/// A string that needs every escape the encoder writes.
pub const NASTY: &str = "q\"b\\s\nn\tt\r\u{1}π";

fn odd_config() -> LinkConfig {
    LinkConfig {
        data_rate: Hertz::new(f64::INFINITY),
        channel: ChannelModel {
            attenuation_db: -0.0,
            bandwidth: Hertz::new(f64::NAN),
            noise_sigma: Volt::new(f64::NEG_INFINITY),
            rj_sigma: Time::new(1.25e-300),
            dj_pp: Time::new(0.0),
            dj_freq: Hertz::new(1.0e22),
            seed: u64::MAX,
        },
        pvt: Pvt::new(ProcessCorner::SlowFast, 1.7, -40.0),
        cdr: CdrConfig {
            oversampling: 64,
            glitch_filter: false,
            phase_hysteresis: u32::MAX,
            window: 1,
        },
    }
}

fn every_fault_kind() -> FaultSchedule {
    let kinds = [
        FaultKind::BurstNoise {
            duration_ui: u64::MAX,
            flip_prob: f64::NAN,
        },
        FaultKind::Dropout {
            duration_ui: 0,
            level: true,
        },
        FaultKind::SupplyDroop {
            duration_ui: 32,
            peak_flip_prob: f64::NEG_INFINITY,
        },
        FaultKind::PhaseGlitch {
            offset_samples: i32::MIN,
        },
        FaultKind::ClockDrift {
            duration_ui: 64,
            slip_period_ui: 8,
            late: true,
        },
        FaultKind::SeuCdrPhase { bit: u32::MAX },
        FaultKind::SeuDeserializer { lane: 7, bit: 31 },
        FaultKind::StuckAtNet {
            net: NASTY.to_string(),
            value: false,
        },
    ];
    kinds
        .into_iter()
        .zip([u64::MAX, 0, 1, 2, 3, 4, 5, 6])
        .fold(FaultSchedule::new(u64::MAX), |s, (kind, at_ui)| {
            s.with_event(FaultEvent { at_ui, kind })
        })
}

/// One `(request, seed)` of each of the nine kinds.
pub fn requests() -> Vec<(Request, u64)> {
    vec![
        (
            Request::RunLink {
                config: odd_config(),
                frames: vec![],
            },
            u64::MAX,
        ),
        (
            Request::RunLinkWithFaults {
                config: LinkConfig::paper_default(),
                frames: vec![[0, 1, 2, 3, 4, 5, 6, u32::MAX], [0x5A5A_A5A5; 8]],
                schedule: every_fault_kind(),
            },
            0,
        ),
        (
            Request::RunFlow {
                design: DesignSpec::Serializer,
                pvt: Pvt::new(ProcessCorner::FastSlow, -0.0, f64::NEG_INFINITY),
            },
            7,
        ),
        (
            Request::Bathtub {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec::default(),
            },
            1,
        ),
        (
            Request::MaxLoss {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec {
                    bits: 2,
                    phases: 0,
                    frames: 1024,
                    tol_db: 5e-324,
                },
            },
            2,
        ),
        (
            Request::RateSweep {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec::default(),
                rates: vec![
                    Hertz::new(f64::NAN),
                    Hertz::new(f64::INFINITY),
                    Hertz::new(-0.0),
                    Hertz::from_ghz(2.5),
                ],
            },
            3,
        ),
        (
            Request::CornerSweep {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec {
                    bits: 1_048_576,
                    phases: 1024,
                    frames: 0,
                    tol_db: f64::MAX,
                },
            },
            4,
        ),
        (
            Request::Sta {
                design: DesignSpec::Cdr { oversampling: 8 },
                pvt: Pvt::worst_case(),
                clock: Hertz::new(f64::NAN),
            },
            5,
        ),
        (
            Request::Lint {
                design: DesignSpec::DigitalTop { oversampling: 3 },
            },
            6,
        ),
    ]
}

/// One response of each of the eleven kinds.
pub fn responses() -> Vec<Response> {
    let link = LinkReport {
        frames_sent: 0,
        frames_correct: usize::MAX,
        bits: u64::MAX,
        bit_errors: 0,
        cdr_locked: false,
        cdr_phase_updates: 3,
        alignment_lag: 2,
    };
    vec![
        Response::Link(link),
        Response::Faulted(FaultReport {
            link: LinkReport {
                cdr_locked: true,
                ..link
            },
            lock_losses: u64::MAX,
            relock_times_ui: vec![0, 17, u64::MAX],
            injected_channel: 3,
            injected_clock: 0,
            injected_digital: 1,
        }),
        Response::Flow(FlowSummary {
            design: NASTY.to_string(),
            cells: 0,
            flops: 12,
            nets: usize::MAX,
            area_um2: f64::NAN,
            power_mw: -0.0,
            fmax_ghz: f64::INFINITY,
            wns_ps: f64::NEG_INFINITY,
            tns_ps: -12.5,
            violations: 1,
            hold_violations: 0,
        }),
        Response::Bathtub(vec![
            BathtubPoint {
                phase_ui: 0.0,
                ber: 1e-3,
            },
            BathtubPoint {
                phase_ui: 0.96875,
                ber: f64::NAN,
            },
        ]),
        Response::MaxLoss { max_loss_db: -0.0 },
        Response::Rates(vec![
            SweepPoint {
                data_rate: Hertz::new(f64::INFINITY),
                sensitivity: Volt::new(f64::NAN),
                max_loss_db: f64::NEG_INFINITY,
            },
            SweepPoint {
                data_rate: Hertz::from_ghz(2.0),
                sensitivity: Volt::from_mv(32.0),
                max_loss_db: 34.21875,
            },
        ]),
        Response::Corners(vec![CornerPoint {
            pvt: Pvt::best_case(),
            max_loss_db: -0.0,
            sensitivity: Volt::new(f64::NAN),
        }]),
        Response::Sta(StaSummary {
            design: "cdr".to_string(),
            clock_ghz: 2.0,
            fmax_ghz: f64::INFINITY,
            wns_ps: -0.0,
            tns_ps: f64::NAN,
            violations: 0,
            hold_wns_ps: f64::NEG_INFINITY,
            hold_violations: usize::MAX,
            endpoints: 256,
            domains: 1,
        }),
        Response::Lint(LintSummary {
            errors: 1,
            warnings: 0,
            infos: usize::MAX,
            suppressed: 3,
            findings: vec![
                FindingSummary {
                    rule: "IR001".to_string(),
                    severity: "error".to_string(),
                    message: NASTY.to_string(),
                },
                FindingSummary {
                    rule: String::new(),
                    severity: "info".to_string(),
                    message: String::new(),
                },
            ],
        }),
        Response::Shed(ShedInfo {
            tenant: NASTY.to_string(),
            priority: u8::MAX,
            queue_depth: 0,
        }),
        Response::DeadlineExceeded(DeadlineInfo {
            tenant: String::new(),
            deadline_ms: u64::MAX,
            queued_ms: 0,
        }),
    ]
}
