//! Standard fault-injection campaign matrix behind `BENCH_fault.json`:
//! every [`CampaignKind`] schedule against both CDR feature sets
//! (`paper_default` and the bare `rtl_equivalent`), with the resilience
//! metrics the paper's robustness story rests on — bit errors, lock
//! losses and re-lock times under identical deterministic schedules.
//!
//! The bin also *proves* two acceptance properties on every run:
//!
//! * **reproducibility** — the whole matrix is re-run through the
//!   parallel fan-out at 1, 2, 4 and 8 workers and must produce
//!   bit-identical metrics regardless of worker count,
//! * **fault isolation** — a deliberately poisoned (panicking) item is
//!   pushed through `try_map_with_threads` and must be isolated with
//!   its panic message while every healthy item still completes.
//!
//! Run with `cargo run --release -p openserdes-bench --bin fault`;
//! pass `--smoke` for the fast CI variant.

use openserdes_analog::par::try_map_with_threads;
use openserdes_core::{
    run_frames_with_faults, CdrConfig, FaultReport, LinkConfig, PrbsGenerator, PrbsOrder,
    FRAME_BITS,
};
use openserdes_fault::{campaign, CampaignKind, FaultSchedule};
use std::fmt::Write as _;

/// Base seed of the standard matrix; [`campaign`] salts it per kind.
const CAMPAIGN_SEED: u64 = 17;
/// Link-run seed (PHY noise, jitter draws).
const RUN_SEED: u64 = 5;

/// One cell of the campaign matrix.
struct Cell {
    cdr_name: &'static str,
    cdr: CdrConfig,
    kind: CampaignKind,
}

/// The deterministic outcome of a cell — everything the JSON reports
/// and everything the reproducibility check compares.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    events: usize,
    injected_channel: usize,
    injected_clock: usize,
    injected_digital: usize,
    bit_errors: u64,
    frames_correct: usize,
    frames_sent: usize,
    cdr_locked: bool,
    lock_losses: u64,
    relocks: usize,
    relock_max_ui: u64,
}

impl Outcome {
    fn from_report(report: &FaultReport, schedule: &FaultSchedule) -> Self {
        Self {
            events: schedule.len(),
            injected_channel: report.injected_channel,
            injected_clock: report.injected_clock,
            injected_digital: report.injected_digital,
            bit_errors: report.link.bit_errors,
            frames_correct: report.link.frames_correct,
            frames_sent: report.link.frames_sent,
            cdr_locked: report.link.cdr_locked,
            lock_losses: report.lock_losses,
            relocks: report.relock_times_ui.len(),
            relock_max_ui: report.relock_times_ui.iter().copied().max().unwrap_or(0),
        }
    }
}

fn run_cell(cell: &Cell, stim: &[[u32; 8]]) -> Outcome {
    let uis = stim.len() as u64 * FRAME_BITS as u64;
    let schedule = campaign(cell.kind, CAMPAIGN_SEED, uis);
    let mut cfg = LinkConfig::paper_default();
    cfg.cdr = cell.cdr;
    let report = run_frames_with_faults(&cfg, stim, RUN_SEED, &schedule)
        .expect("the statistical link path does not touch the solver");
    Outcome::from_report(&report, &schedule)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let smoke_flag = if smoke { " -- --smoke" } else { "" };
    let nframes = if smoke { 12usize } else { 40 };
    let stim = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(nframes);

    // ---- the standard matrix ----------------------------------------
    let cdrs = [
        ("paper_default", CdrConfig::paper_default()),
        ("rtl_equivalent", CdrConfig::rtl_equivalent(5)),
    ];
    let cells: Vec<Cell> = cdrs
        .iter()
        .flat_map(|&(cdr_name, cdr)| {
            CampaignKind::ALL
                .iter()
                .map(move |&kind| Cell {
                    cdr_name,
                    cdr,
                    kind,
                })
                .collect::<Vec<_>>()
        })
        .collect();

    // ---- reproducibility across worker counts -----------------------
    let worker_counts = [1usize, 2, 4, 8];
    let mut per_workers: Vec<Vec<Outcome>> = Vec::new();
    for &w in &worker_counts {
        let outcomes: Vec<Outcome> =
            try_map_with_threads(&cells, w, |_, cell| run_cell(cell, &stim))
                .into_iter()
                .map(|r| r.expect("healthy matrix cells must not fault"))
                .collect();
        per_workers.push(outcomes);
    }
    let reference = &per_workers[0];
    for (outcomes, &w) in per_workers.iter().zip(&worker_counts).skip(1) {
        assert!(
            outcomes == reference,
            "campaign matrix must be bit-reproducible at {w} workers"
        );
    }
    println!(
        "reproducibility: {} cells identical at {:?} workers",
        reference.len(),
        worker_counts
    );

    // ---- fault isolation: one poisoned item -------------------------
    let poisoned_at = cells.len(); // appended past the real matrix
    let mut indices: Vec<usize> = (0..cells.len()).collect();
    indices.push(poisoned_at);
    // The poison is deliberate — keep its backtrace out of the output.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let isolated = try_map_with_threads(&indices, 4, |_, &i| {
        assert!(i < cells.len(), "poisoned campaign cell {i}");
        run_cell(&cells[i], &stim)
    });
    std::panic::set_hook(prev_hook);
    let healthy = isolated.iter().filter(|r| r.is_ok()).count();
    let poison_msg = isolated[poisoned_at]
        .as_ref()
        .expect_err("the poisoned item must fault")
        .clone();
    assert_eq!(healthy, cells.len(), "every healthy item must complete");
    assert!(
        isolated[..cells.len()]
            .iter()
            .map(|r| r.as_ref().expect("healthy"))
            .eq(reference.iter()),
        "healthy items must be unaffected by a poisoned neighbour"
    );
    println!("fault isolation: item {poisoned_at} isolated ({poison_msg}), {healthy} completed");

    // ---- human table + JSON -----------------------------------------
    let mut rows = String::new();
    println!(
        "\n{:<15} {:<14} {:>6} {:>8} {:>8} {:>7} {:>10}",
        "cdr", "campaign", "events", "biterr", "frames", "losses", "relock_max"
    );
    for (cell, o) in cells.iter().zip(reference) {
        println!(
            "{:<15} {:<14} {:>6} {:>8} {:>7}/{} {:>7} {:>10}",
            cell.cdr_name,
            cell.kind.name(),
            o.events,
            o.bit_errors,
            o.frames_correct,
            o.frames_sent,
            o.lock_losses,
            o.relock_max_ui
        );
        if !rows.is_empty() {
            rows.push_str(",\n");
        }
        write!(
            rows,
            r#"    {{
      "cdr": "{cdr}",
      "campaign": "{kind}",
      "campaign_seed": {CAMPAIGN_SEED},
      "run_seed": {RUN_SEED},
      "events": {events},
      "injected": {{ "channel": {ich}, "clock": {ick}, "digital": {idg} }},
      "bit_errors": {berr},
      "frames_correct": {fc},
      "frames_sent": {fs},
      "cdr_locked": {locked},
      "lock_losses": {losses},
      "relocks": {relocks},
      "relock_max_ui": {rmax}
    }}"#,
            cdr = cell.cdr_name,
            kind = cell.kind.name(),
            events = o.events,
            ich = o.injected_channel,
            ick = o.injected_clock,
            idg = o.injected_digital,
            berr = o.bit_errors,
            fc = o.frames_correct,
            fs = o.frames_sent,
            locked = o.cdr_locked,
            losses = o.lock_losses,
            relocks = o.relocks,
            rmax = o.relock_max_ui,
        )?;
    }

    let json = format!(
        r#"{{
  "schema": "openserdes-bench-fault/1",
  "command": "cargo run --release -p openserdes-bench --bin fault{smoke_flag}",
  "smoke": {smoke},
  "frames": {nframes},
  "matrix": [
{rows}
  ],
  "reproducibility": {{
    "worker_counts": [1, 2, 4, 8],
    "identical": true
  }},
  "fault_isolation": {{
    "poisoned_item": {poisoned_at},
    "message": "{msg}",
    "completed": {healthy}
  }}
}}
"#,
        msg = poison_msg.replace('\\', "\\\\").replace('"', "\\\""),
    );
    std::fs::write("BENCH_fault.json", json)?;
    println!("\nwrote BENCH_fault.json ({} matrix cells)", cells.len());
    Ok(())
}
