//! The telemetry layer's central promise: parallel sweeps aggregate
//! *identically* for any worker count. Counters and histograms are
//! integer sums absorbed in input-index order, and span trees fold by
//! name, so everything except wall times is bit-identical whether a
//! sweep ran on 1 worker or 8 — [`Record::deterministic_digest`] is
//! that invariant as a comparable string.

use openserdes::core::{LinkConfig, PrbsGenerator, PrbsOrder, Sweep};
use openserdes::telemetry;
use openserdes::Session;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Serializes this file's tests: both switch or read the process-wide
/// recording state.
static RECORDING: Mutex<()> = Mutex::new(());

#[test]
fn sweep_telemetry_is_worker_count_invariant() {
    let _serial = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = LinkConfig::paper_default();
    telemetry::set_enabled(true);
    let run_at = |threads: usize| {
        let sweep = Sweep::new()
            .with_bits(2_000)
            .with_phases(8)
            .with_frames(4)
            .with_tolerance_db(1.0)
            .with_seed(5)
            .with_threads(threads);
        let (results, rec) = telemetry::collect(|| {
            let curve = sweep.bathtub(&cfg).expect("bathtub");
            let corners = sweep.corner_sweep(&cfg).expect("corners");
            (curve, corners)
        });
        (results, rec)
    };

    let ((curve1, corners1), rec1) = run_at(1);
    let digest1 = rec1.deterministic_digest();

    // The record is non-trivial: every phase and corner left a mark.
    assert_eq!(rec1.counter("sweep.eye_phases"), 8);
    assert_eq!(rec1.counter("sweep.corner_points"), 3);
    assert!(rec1.counter("sweep.bisect_probes") > 0);
    assert!(rec1.span("sweep.bathtub").is_some());
    // Each corner item characterizes its own front end: one sequential
    // bias DC solve per corner, nested under the corner sweep, and
    // nothing runs through the batched kernel.
    let corner_sweep = rec1.span("sweep.corner_sweep").expect("corner sweep span");
    assert_eq!(
        corner_sweep.child("analog.dc").map(|s| s.count),
        Some(3),
        "one bias DC span per corner must nest under the corner sweep"
    );
    assert!(rec1.counter("analog.newton_iterations") > 0);
    assert_eq!(rec1.counter("analog.batched_points"), 0);
    assert!(
        rec1.histogram("sweep.phase_errors")
            .is_some_and(|h| h.count() == 8),
        "one phase-error sample per bathtub phase"
    );

    for threads in [2usize, 4, 8] {
        let ((curve, corners), rec) = run_at(threads);
        assert_eq!(curve, curve1, "results diverge at {threads} workers");
        assert_eq!(corners, corners1, "corners diverge at {threads} workers");
        assert_eq!(
            rec.deterministic_digest(),
            digest1,
            "telemetry digest diverges at {threads} workers"
        );
    }
    telemetry::set_enabled(false);
}

/// Rounds of two recording sessions on two threads, started together
/// by a barrier. Each keeps running until both have made `MIN_RUNS`
/// runs, so their runs overlap however the threads are scheduled, and
/// their runs differ in length, so the two drift through every relative
/// phase. Neither may switch recording off under the other, nor leave
/// it on once both are done.
#[test]
fn concurrent_recording_sessions_keep_their_counts_and_end_off() {
    const ROUNDS: usize = 10;
    const MIN_RUNS: u64 = 200;
    let _serial = RECORDING.lock().unwrap_or_else(|e| e.into_inner());
    assert!(!telemetry::is_enabled(), "recording starts off");
    for round in 0..ROUNDS {
        let start = Barrier::new(2);
        let at_min = AtomicU64::new(0);
        let sessions: Vec<(usize, u64, u64)> = std::thread::scope(|s| {
            let threads: Vec<_> = [1usize, 3]
                .into_iter()
                .map(|frame_count| {
                    let (start, at_min) = (&start, &at_min);
                    s.spawn(move || {
                        let frames = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(frame_count);
                        let mut session = Session::new().with_telemetry(true);
                        let mut runs = 0u64;
                        start.wait();
                        while runs < MIN_RUNS || at_min.load(Ordering::SeqCst) < 2 {
                            session.run_link(&frames).expect("runs");
                            runs += 1;
                            if runs == MIN_RUNS {
                                at_min.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                        (
                            frame_count,
                            runs,
                            session.telemetry().counter("link.tx_bits"),
                        )
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect()
        });
        assert!(
            !telemetry::is_enabled(),
            "round {round}: recording must end off once both sessions are done"
        );
        for (frame_count, runs, tx_bits) in sessions {
            assert_eq!(
                tx_bits,
                runs * frame_count as u64 * 256,
                "round {round}: a session of {runs} runs of {frame_count} frame(s)"
            );
        }
    }
}
