//! # openserdes-fault
//!
//! Deterministic, seeded fault-injection campaigns for the OpenSerDes
//! stack. The paper's CDR carries scan-configurable glitch correction
//! (majority-of-3 smoothing) and jitter correction (phase hysteresis)
//! precisely to survive transient impairments; this crate provides the
//! impairments — as data, not side effects — so every engine that
//! consumes them stays bit-reproducible.
//!
//! * [`FaultKind`] — the fault taxonomy: channel faults (burst noise,
//!   dropout, supply droop), clock faults (reference-phase glitches,
//!   slow drift) and digital state faults (SEU bit flips in the CDR
//!   phase register or deserializer bank, stuck-at on netlist nets).
//! * [`FaultEvent`] — one fault anchored at a UI timestamp.
//! * [`FaultSchedule`] — a seeded, ordered, serializable event list.
//!   Same seed + same schedule ⇒ the same injected sample flips, on any
//!   worker count, forever. Its JSON lives with the workspace's one
//!   JSON codec in `openserdes-core`: `job::fault_schedule_to_json` /
//!   `job::fault_schedule_from_json` for `openserdes-fault-schedule/1`
//!   files, and the same event fields inside the canonical
//!   `Request::RunLinkWithFaults` bytes.
//! * [`campaign`] — standard seeded campaign generators
//!   ([`CampaignKind`]) so benches and CI exercise a stable matrix.
//! * [`server`] — the server-plane taxonomy for the `openserdes-serve`
//!   front door (dropped/truncated/oversized frames, stalled readers,
//!   worker panics, deadline storms, connection floods), as seeded
//!   [`ServerFaultPlan`]s with a per-kind `serve.*` accounting
//!   contract the chaos harness asserts.
//!
//! The injection hooks themselves live with the engines they stress
//! (`core::cdr`, `core::link`); this crate owns the schedule so those
//! hooks share one deterministic clock.
//!
//! ```
//! use openserdes_fault::{FaultEvent, FaultKind, FaultSchedule};
//!
//! let schedule = FaultSchedule::new(7)
//!     .with_event(FaultEvent {
//!         at_ui: 200,
//!         kind: FaultKind::BurstNoise { duration_ui: 16, flip_prob: 0.4 },
//!     })
//!     .with_event(FaultEvent {
//!         at_ui: 500,
//!         kind: FaultKind::SeuCdrPhase { bit: 1 },
//!     });
//! assert_eq!(schedule.len(), 2);
//! assert!(schedule.events()[1].kind.is_digital());
//! ```

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub mod server;

pub use server::{server_campaign, ServerFaultEvent, ServerFaultKind, ServerFaultPlan};

/// One kind of injected fault. Channel faults perturb the sampled bit
/// stream, clock faults perturb *when* it is sampled, digital faults
/// flip stored state directly.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A burst of channel noise: each oversample in the window flips
    /// with probability `flip_prob` (seeded from the schedule).
    BurstNoise {
        /// Burst length in unit intervals.
        duration_ui: u64,
        /// Per-sample flip probability inside the burst, in `[0, 1]`.
        flip_prob: f64,
    },
    /// Signal dropout: the receiver sees a constant `level` for the
    /// window — a dead channel, an unplugged cable, a squelched pad.
    Dropout {
        /// Dropout length in unit intervals.
        duration_ui: u64,
        /// The stuck level the receiver samples during the dropout.
        level: bool,
    },
    /// Supply droop: flip probability ramps linearly up to
    /// `peak_flip_prob` at the window midpoint and back down — the
    /// triangular error profile of a VDD dip through a CMOS sampler.
    SupplyDroop {
        /// Droop length in unit intervals.
        duration_ui: u64,
        /// Flip probability at the deepest point of the droop.
        peak_flip_prob: f64,
    },
    /// Reference-clock phase glitch: from `at_ui` onward the sample
    /// stream is offset by `offset_samples` oversamples (positive =
    /// late). Models a phase step the CDR must re-acquire through.
    PhaseGlitch {
        /// Signed phase step in oversample units.
        offset_samples: i32,
    },
    /// Slow clock drift: one oversample slips every `slip_period_ui`
    /// UIs for the duration — a frequency offset between reference and
    /// data clocks, the impairment the paper's hysteresis tracks.
    ClockDrift {
        /// Drift length in unit intervals.
        duration_ui: u64,
        /// UIs between successive one-sample slips.
        slip_period_ui: u64,
        /// Slip direction: `true` drifts late, `false` early.
        late: bool,
    },
    /// Single-event upset in the CDR phase register: bit `bit` of the
    /// current phase flips at `at_ui`.
    SeuCdrPhase {
        /// Which bit of the phase register flips.
        bit: u32,
    },
    /// Single-event upset in the deserializer bank: bit `bit` of lane
    /// `lane` flips at `at_ui`.
    SeuDeserializer {
        /// Which of the eight 32-bit lanes is hit.
        lane: u32,
        /// Which bit of that lane flips.
        bit: u32,
    },
    /// Stuck-at fault on a named netlist net (`at_ui` is ignored — the
    /// fault is permanent). No link runner applies it.
    StuckAtNet {
        /// The net name, as reported by `Netlist::net_name`.
        net: String,
        /// The stuck value.
        value: bool,
    },
}

impl FaultKind {
    /// True for faults that perturb the sampled channel stream
    /// (burst noise, dropout, supply droop).
    fn is_channel(&self) -> bool {
        matches!(
            self,
            FaultKind::BurstNoise { .. }
                | FaultKind::Dropout { .. }
                | FaultKind::SupplyDroop { .. }
        )
    }

    /// True for faults that perturb the sampling clock
    /// (phase glitch, slow drift).
    pub fn is_clock(&self) -> bool {
        matches!(
            self,
            FaultKind::PhaseGlitch { .. } | FaultKind::ClockDrift { .. }
        )
    }

    /// True for faults that flip stored digital state
    /// (SEUs, stuck-at nets).
    pub fn is_digital(&self) -> bool {
        !self.is_channel() && !self.is_clock()
    }
}

/// One fault anchored at a unit-interval timestamp in the recovered
/// stream. `at_ui` counts UIs from the start of the run (UI 0 is the
/// first serialized bit).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires, in unit intervals from run start.
    pub at_ui: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic fault campaign: a seed plus an ordered list of
/// [`FaultEvent`]s. Events are kept sorted by `at_ui` (stable — ties
/// keep insertion order), so two schedules built from the same events
/// in any insertion order compare equal and inject identically.
///
/// The seed drives every random draw the injectors make (burst/droop
/// sample flips), derived per event index so reordering-independent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule with the given seed. Injecting an empty
    /// schedule is a guaranteed no-op: hooks taking one must produce
    /// bit-identical results to their fault-free counterparts.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// The campaign seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The events, sorted by `at_ui`.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A schedule of `events`, sorted once by `at_ui`. Equal `at_ui`
    /// keep their input order, so this is the schedule that pushing the
    /// events one by one builds, without a sort per push.
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at_ui);
        FaultSchedule { seed, events }
    }

    /// Add an event, keeping the list sorted by `at_ui`.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(|e| e.at_ui);
    }

    /// Builder-style [`FaultSchedule::push`].
    #[must_use]
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.push(event);
        self
    }

    /// The RNG seed for event index `k`'s random draws — the same
    /// Weyl-style derivation the sweep engine uses, so every event owns
    /// a decorrelated stream regardless of injection order.
    pub fn event_seed(&self, k: usize) -> u64 {
        self.seed ^ (k as u64).wrapping_mul(0x9E37_79B9) ^ 0xFA17_0000
    }

    /// Channel-fault events only (with their event indices).
    pub fn channel_events(&self) -> impl Iterator<Item = (usize, &FaultEvent)> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind.is_channel())
    }

    /// Clock-fault events only (with their event indices).
    pub fn clock_events(&self) -> impl Iterator<Item = (usize, &FaultEvent)> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind.is_clock())
    }

    /// Digital-state events only (with their event indices).
    pub fn digital_events(&self) -> impl Iterator<Item = (usize, &FaultEvent)> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.kind.is_digital())
    }
}

/// The standard campaign matrix: one generator per impairment family,
/// plus a mixed stress campaign. Benches and CI run the same matrix so
/// regression numbers stay comparable across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampaignKind {
    /// Repeated short bursts of channel noise.
    BurstNoise,
    /// Repeated signal dropouts of growing length.
    Dropouts,
    /// Supply-droop ramps.
    SupplyDroop,
    /// Reference-phase glitches alternating direction.
    ClockGlitches,
    /// SEU strikes on CDR phase register and deserializer bank.
    Seu,
    /// All of the above interleaved.
    Mixed,
}

impl CampaignKind {
    /// All campaign kinds, in matrix order.
    pub const ALL: [CampaignKind; 6] = [
        CampaignKind::BurstNoise,
        CampaignKind::Dropouts,
        CampaignKind::SupplyDroop,
        CampaignKind::ClockGlitches,
        CampaignKind::Seu,
        CampaignKind::Mixed,
    ];

    /// Stable lower-snake name for reports and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            CampaignKind::BurstNoise => "burst_noise",
            CampaignKind::Dropouts => "dropouts",
            CampaignKind::SupplyDroop => "supply_droop",
            CampaignKind::ClockGlitches => "clock_glitches",
            CampaignKind::Seu => "seu",
            CampaignKind::Mixed => "mixed",
        }
    }

    fn salt(self) -> u64 {
        match self {
            CampaignKind::BurstNoise => 0xB0B0,
            CampaignKind::Dropouts => 0xD0D0,
            CampaignKind::SupplyDroop => 0x5500,
            CampaignKind::ClockGlitches => 0xC10C,
            CampaignKind::Seu => 0x5E00,
            CampaignKind::Mixed => 0x3A3A,
        }
    }
}

/// Generates the standard seeded campaign of the given kind over a run
/// of `uis` unit intervals. Deterministic in `(kind, seed, uis)`; the
/// first quarter of the run is left clean so the CDR acquires lock
/// before the first strike.
pub fn campaign(kind: CampaignKind, seed: u64, uis: u64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ kind.salt());
    let mut schedule = FaultSchedule::new(seed);
    let start = uis / 4;
    let span = uis.saturating_sub(start).max(1);
    let strikes = 6u64;
    let at = |k: u64, rng: &mut StdRng| -> u64 {
        // Strike k lands in its own sixth of the faulty span, jittered.
        let lo = start + span * k / strikes;
        lo + rng.gen_range(0..(span / strikes).max(1))
    };
    match kind {
        CampaignKind::BurstNoise => {
            for k in 0..strikes {
                let at_ui = at(k, &mut rng);
                schedule.push(FaultEvent {
                    at_ui,
                    kind: FaultKind::BurstNoise {
                        duration_ui: 8 + 4 * k,
                        flip_prob: 0.15 + 0.05 * k as f64,
                    },
                });
            }
        }
        CampaignKind::Dropouts => {
            for k in 0..strikes {
                let at_ui = at(k, &mut rng);
                schedule.push(FaultEvent {
                    at_ui,
                    kind: FaultKind::Dropout {
                        duration_ui: 2 + 2 * k,
                        level: k % 2 == 0,
                    },
                });
            }
        }
        CampaignKind::SupplyDroop => {
            for k in 0..strikes {
                let at_ui = at(k, &mut rng);
                schedule.push(FaultEvent {
                    at_ui,
                    kind: FaultKind::SupplyDroop {
                        duration_ui: 16 + 8 * k,
                        peak_flip_prob: 0.2 + 0.08 * k as f64,
                    },
                });
            }
        }
        CampaignKind::ClockGlitches => {
            for k in 0..strikes {
                let at_ui = at(k, &mut rng);
                let mag = 1 + (k as i32) % 2;
                schedule.push(FaultEvent {
                    at_ui,
                    kind: FaultKind::PhaseGlitch {
                        offset_samples: if k % 2 == 0 { mag } else { -mag },
                    },
                });
            }
        }
        CampaignKind::Seu => {
            for k in 0..strikes {
                let at_ui = at(k, &mut rng);
                let kind = if k % 2 == 0 {
                    FaultKind::SeuCdrPhase {
                        bit: (k as u32) % 3,
                    }
                } else {
                    FaultKind::SeuDeserializer {
                        lane: (k as u32) % 8,
                        bit: (7 * k as u32) % 32,
                    }
                };
                schedule.push(FaultEvent { at_ui, kind });
            }
        }
        CampaignKind::Mixed => {
            for k in 0..strikes {
                let at_ui = at(k, &mut rng);
                let kind = match k % 5 {
                    0 => FaultKind::BurstNoise {
                        duration_ui: 12,
                        flip_prob: 0.3,
                    },
                    1 => FaultKind::Dropout {
                        duration_ui: 4,
                        level: false,
                    },
                    2 => FaultKind::SupplyDroop {
                        duration_ui: 24,
                        peak_flip_prob: 0.3,
                    },
                    3 => FaultKind::PhaseGlitch { offset_samples: 2 },
                    _ => FaultKind::SeuCdrPhase { bit: 1 },
                };
                schedule.push(FaultEvent { at_ui, kind });
            }
        }
    }
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_and_is_insertion_order_independent() {
        let late = FaultEvent {
            at_ui: 900,
            kind: FaultKind::SeuCdrPhase { bit: 0 },
        };
        let early = FaultEvent {
            at_ui: 100,
            kind: FaultKind::Dropout {
                duration_ui: 4,
                level: true,
            },
        };
        let a = FaultSchedule::new(3)
            .with_event(late.clone())
            .with_event(early.clone());
        let b = FaultSchedule::new(3).with_event(early).with_event(late);
        assert_eq!(a, b);
        assert_eq!(a.events()[0].at_ui, 100);
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn event_seeds_decorrelate() {
        let s = FaultSchedule::new(42);
        assert_ne!(s.event_seed(0), s.event_seed(1));
        assert_ne!(s.event_seed(1), s.event_seed(2));
    }

    #[test]
    fn kind_families_partition() {
        let kinds = [
            FaultKind::BurstNoise {
                duration_ui: 1,
                flip_prob: 0.1,
            },
            FaultKind::Dropout {
                duration_ui: 1,
                level: false,
            },
            FaultKind::SupplyDroop {
                duration_ui: 1,
                peak_flip_prob: 0.1,
            },
            FaultKind::PhaseGlitch { offset_samples: 1 },
            FaultKind::ClockDrift {
                duration_ui: 10,
                slip_period_ui: 5,
                late: true,
            },
            FaultKind::SeuCdrPhase { bit: 0 },
            FaultKind::SeuDeserializer { lane: 0, bit: 0 },
            FaultKind::StuckAtNet {
                net: "x".into(),
                value: true,
            },
        ];
        for k in &kinds {
            let families = [k.is_channel(), k.is_clock(), k.is_digital()]
                .iter()
                .filter(|&&b| b)
                .count();
            assert_eq!(families, 1, "{k:?} must be in exactly one family");
        }
    }

    #[test]
    fn campaigns_are_deterministic_and_leave_lock_in_window() {
        for kind in CampaignKind::ALL {
            let a = campaign(kind, 11, 4000);
            let b = campaign(kind, 11, 4000);
            assert_eq!(a, b, "{} must be deterministic", kind.name());
            let c = campaign(kind, 12, 4000);
            assert!(!a.events().is_empty());
            // Different seed moves the strike times.
            assert_ne!(
                a.events().iter().map(|e| e.at_ui).collect::<Vec<_>>(),
                c.events().iter().map(|e| e.at_ui).collect::<Vec<_>>(),
                "{} must respond to the seed",
                kind.name()
            );
            // First quarter stays clean for lock acquisition.
            assert!(a.events()[0].at_ui >= 1000, "{}", kind.name());
        }
    }
}
