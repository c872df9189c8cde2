//! The standard fault-injection campaign matrix behind
//! `BENCH_fault.json`: every [`CampaignKind`] schedule against both CDR
//! feature sets (`paper_default` and the bare `rtl_equivalent`), with
//! the resilience metrics the paper's robustness story rests on — bit
//! errors, lock losses and re-lock times under identical deterministic
//! schedules — over 40 PRBS-31 frames.
//!
//! The report also *proves* two properties on every run:
//!
//! * **reproducibility** — the whole matrix is re-run through the
//!   parallel fan-out at 1, 2, 4 and 8 workers and must produce
//!   bit-identical reports regardless of worker count,
//! * **fault isolation** — a deliberately poisoned (panicking) item is
//!   pushed through `try_map_with_threads` and must be isolated with
//!   its panic message while every healthy item still completes.
//!
//! Either proof failing is a failure of the run.

use crate::Report;
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
/// PRBS-31 frames each cell runs.
const FRAMES: usize = 40;
/// The worker counts the reproducibility proof runs the matrix at.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One cell of the campaign matrix.
struct Cell {
    cdr_name: &'static str,
    cdr: CdrConfig,
    kind: CampaignKind,
    schedule: FaultSchedule,
}

fn run_cell(cell: &Cell, stim: &[[u32; 8]]) -> FaultReport {
    let mut cfg = LinkConfig::paper_default();
    cfg.cdr = cell.cdr;
    run_frames_with_faults(&cfg, stim, RUN_SEED, &cell.schedule)
        .expect("the statistical link path does not touch the solver")
}

/// Runs the matrix with both proofs. The isolation proof silences the
/// process-wide panic hook while its poisoned item panics.
pub fn report() -> Report {
    let stim = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(FRAMES);
    let uis = (FRAMES * FRAME_BITS) as u64;
    let cdrs = [
        ("paper_default", CdrConfig::paper_default()),
        ("rtl_equivalent", CdrConfig::rtl_equivalent(5)),
    ];
    let cells: Vec<Cell> = (cdrs.iter())
        .flat_map(|&(cdr_name, cdr)| {
            CampaignKind::ALL.iter().map(move |&kind| Cell {
                cdr_name,
                cdr,
                kind,
                schedule: campaign(kind, CAMPAIGN_SEED, uis),
            })
        })
        .collect();
    let mut text = String::new();
    let mut failures = Vec::new();

    // ---- reproducibility across worker counts -----------------------
    let run_at = |workers| -> Vec<FaultReport> {
        try_map_with_threads(&cells, workers, |_, cell| run_cell(cell, &stim))
            .into_iter()
            .map(|r| r.expect("healthy matrix cells must not fault"))
            .collect()
    };
    let reference = run_at(WORKER_COUNTS[0]);
    for &w in &WORKER_COUNTS[1..] {
        if run_at(w) != reference {
            failures.push(format!("fault: the campaign matrix differs at {w} workers"));
        }
    }
    let identical = failures.is_empty();
    if identical {
        let _ = writeln!(
            text,
            "reproducibility: {} cells identical at {WORKER_COUNTS:?} workers",
            reference.len(),
        );
    }

    // ---- fault isolation: one poisoned item -------------------------
    let poisoned_at = cells.len(); // appended past the real matrix
    let indices: Vec<usize> = (0..=poisoned_at).collect();
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
        .expect_err("the poisoned item must fault");
    let completed = isolated[..poisoned_at].iter().map(|r| r.as_ref().ok());
    let unaffected = completed.eq(reference.iter().map(Some));
    if !unaffected {
        failures.push("fault: the healthy items did not all complete unaffected".into());
    }
    let _ = writeln!(
        text,
        "fault isolation: item {poisoned_at} isolated ({poison_msg}), {healthy} completed"
    );

    // ---- human table + JSON -----------------------------------------
    let _ = writeln!(
        text,
        "\n{:<15} {:<14} {:>6} {:>8} {:>8} {:>7} {:>10}",
        "cdr", "campaign", "events", "biterr", "frames", "losses", "relock_max"
    );
    let mut rows = Vec::new();
    for (cell, r) in cells.iter().zip(&reference) {
        let (events, link) = (cell.schedule.len(), &r.link);
        let relock_max = r.relock_times_ui.iter().copied().max().unwrap_or(0);
        let _ = writeln!(
            text,
            "{:<15} {:<14} {:>6} {:>8} {:>7}/{} {:>7} {:>10}",
            cell.cdr_name,
            cell.kind.name(),
            events,
            link.bit_errors,
            link.frames_correct,
            link.frames_sent,
            r.lock_losses,
            relock_max
        );
        rows.push(format!(
            r#"    {{
      "cdr": "{}",
      "campaign": "{}",
      "campaign_seed": {CAMPAIGN_SEED},
      "run_seed": {RUN_SEED},
      "events": {events},
      "injected": {{ "channel": {}, "clock": {}, "digital": {} }},
      "bit_errors": {},
      "frames_correct": {},
      "frames_sent": {},
      "cdr_locked": {},
      "lock_losses": {},
      "relocks": {},
      "relock_max_ui": {relock_max}
    }}"#,
            cell.cdr_name,
            cell.kind.name(),
            r.injected_channel,
            r.injected_clock,
            r.injected_digital,
            link.bit_errors,
            link.frames_correct,
            link.frames_sent,
            link.cdr_locked,
            r.lock_losses,
            r.relock_times_ui.len(),
        ));
    }

    let json = format!(
        r#"{{
  "schema": "openserdes-bench-fault/1",
  "command": "cargo run --release -p openserdes-bench --bin reports",
  "frames": {FRAMES},
  "matrix": [
{rows}
  ],
  "reproducibility": {{
    "worker_counts": {WORKER_COUNTS:?},
    "identical": {identical}
  }},
  "fault_isolation": {{
    "poisoned_item": {poisoned_at},
    "message": "{msg}",
    "completed": {healthy}
  }}
}}
"#,
        rows = rows.join(",\n"),
        msg = poison_msg.replace('\\', "\\\\").replace('"', "\\\""),
    );
    let _ = writeln!(
        text,
        "\nwrote BENCH_fault.json ({} matrix cells)",
        cells.len()
    );
    Report {
        file: "BENCH_fault.json",
        json,
        text,
        failures,
    }
}
