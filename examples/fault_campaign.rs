//! Fault campaign: replay a deterministic schedule of lab-style faults
//! — noise bursts, signal dropouts, supply droop, sampling-clock
//! glitches and single-event upsets — against the paper link, and
//! compare how the full paper CDR (glitch filter + vote hysteresis)
//! and the bare RTL decision logic degrade under the *same* schedule.
//!
//! Every schedule is seeded and serializable, so a campaign re-runs
//! bit-identically on any machine — the whole standard matrix is
//! `BENCH_fault.json`, which
//! `cargo run --release -p openserdes-bench --bin reports` writes.
//!
//! ```sh
//! cargo run --release --example fault_campaign
//! ```

use openserdes::core::job::{fault_schedule_from_json, fault_schedule_to_json};
use openserdes::core::{CdrConfig, LinkConfig, PrbsGenerator, PrbsOrder, FRAME_BITS};
use openserdes::fault::{campaign, CampaignKind, FaultEvent, FaultKind, FaultSchedule};
use openserdes::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 40 frames of PRBS-31 payload (8 lanes x 32 bits each).
    let frames = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(40);
    let uis = frames.len() as u64 * FRAME_BITS as u64;

    // A hand-written schedule: one 48-UI dropout, then an SEU that
    // flips a bit of the CDR's phase register 400 UIs later.
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
            kind: FaultKind::SeuCdrPhase { bit: 1 },
        });

    let mut session = Session::new().with_seed(2021);
    let report = session.run_link_with_faults(&frames, &schedule)?;
    println!("hand-written schedule ({} events):", schedule.len());
    println!("  bit errors     : {}", report.link.bit_errors);
    println!(
        "  frames correct : {}/{}",
        report.link.frames_correct, report.link.frames_sent
    );
    println!("  lock losses    : {}", report.lock_losses);
    println!(
        "  re-lock times  : {} episodes closed, worst {} UIs",
        report.relock_times_ui.len(),
        report.relock_times_ui.iter().max().copied().unwrap_or(0)
    );

    // A standard campaign: burst noise, replayed against both CDR
    // feature sets. Identical schedule, identical channel and seed —
    // the delta is what the glitch filter and hysteresis buy.
    let burst = campaign(CampaignKind::BurstNoise, 21, uis);
    let mut rtl_link = LinkConfig::paper_default();
    rtl_link.cdr = CdrConfig::rtl_equivalent(rtl_link.cdr.oversampling);

    let paper = session.run_link_with_faults(&frames, &burst)?;
    let mut rtl_session = Session::new().with_link_config(rtl_link).with_seed(2021);
    let rtl = rtl_session.run_link_with_faults(&frames, &burst)?;

    println!("\nburst-noise campaign ({} strikes):", burst.len());
    println!(
        "  paper_default  : {} bit errors, {} lock losses",
        paper.link.bit_errors, paper.lock_losses
    );
    println!(
        "  rtl_equivalent : {} bit errors, {} lock losses",
        rtl.link.bit_errors, rtl.lock_losses
    );
    println!(
        "  verdict        : the paper CDR absorbs {} more errors",
        rtl.link.bit_errors.saturating_sub(paper.link.bit_errors)
    );

    // Schedules serialize to JSON for archiving and replay elsewhere.
    let json = fault_schedule_to_json(&burst);
    let replayed = fault_schedule_from_json(&json)?;
    assert_eq!(replayed.events(), burst.events());
    println!("\nschedule round-trips through JSON ({} bytes)", json.len());
    Ok(())
}
