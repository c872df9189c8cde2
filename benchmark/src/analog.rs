//! `analog_prbs`: PRBS31 frames through the transistor-level
//! driver → channel → front-end transient via
//! `Session::run_analog_link`, in process. This route is not in the job
//! vocabulary, so it has no serve layer.

use crate::harness::{self, closed_loop, Fnv, Pass};
use crate::layers::{self, Tracer, CLIENT_TID};
use crate::metrics::Values;
use crate::plan::AnalogPlan;
use crate::run::{self, RunOutput, Scale};
use openserdes_core::{AnalogFrameReport, Error, Session};
use openserdes_telemetry::Record;

/// One client thread: the frames run one after another. With two, the
/// threads' allocations interleave differently from run to run and
/// peak resident memory spreads by about a tenth.
const CLIENTS: usize = 1;
/// The correctness gate recomputes every 10th frame.
const GATE_STEP: usize = 10;

/// One session per operating point for each client.
fn lanes(plan: &AnalogPlan, telemetry: bool) -> Vec<Vec<Session>> {
    (0..CLIENTS)
        .map(|_| {
            plan.configs
                .iter()
                .map(|c| {
                    Session::new()
                        .with_link_config(c.clone())
                        .with_telemetry(telemetry)
                })
                .collect()
        })
        .collect()
}

/// Runs the warm frame once at every operating point the plan reaches.
fn warm(plan: &AnalogPlan, lanes: &mut [Vec<Session>]) -> Result<(), String> {
    let reached = plan.configs.len().min(plan.frames.len());
    for sessions in lanes {
        for (c, session) in sessions.iter_mut().enumerate().take(reached) {
            session
                .run_analog_link(plan.warm_frame)
                .map_err(|e| format!("warming operating point {c}: {e}"))?;
        }
    }
    Ok(())
}

/// Hash of everything a frame run produced, and whether it ran.
fn frame_hash(report: &Result<AnalogFrameReport, Error>) -> (u64, bool) {
    let mut h = Fnv::default();
    match report {
        Ok(r) => {
            h.write_u64(r.bit_errors);
            h.write_u64(r.bits);
            h.write(&r.run.sent.iter().map(|&b| u8::from(b)).collect::<Vec<_>>());
            for wave in [&r.run.tx.output, &r.run.channel_out, &r.run.rx.restored] {
                for s in wave.samples() {
                    h.write_u64(s.to_bits());
                }
            }
            let stats = &r.run.solver_stats;
            for v in [
                stats.newton_iterations,
                stats.steps_taken,
                stats.factorizations,
            ] {
                h.write_u64(v);
            }
            (h.finish(), true)
        }
        Err(e) => {
            h.write(e.to_string().as_bytes());
            (h.finish(), false)
        }
    }
}

pub fn run(seed: u64, scale: &Scale, trace: bool) -> Result<RunOutput, String> {
    let ((plan, mut lanes), setup_s) = run::timed_setup(
        scale.setups,
        || {
            let plan = AnalogPlan::new(seed, scale);
            let mut lanes = lanes(&plan, false);
            warm(&plan, &mut lanes)?;
            Ok((plan, lanes))
        },
        |_| Ok(()),
    )?;
    let n = plan.frames.len();
    let pass = closed_loop(
        &mut lanes,
        n,
        |sessions, i| sessions[plan.config_of(i)].run_analog_link(plan.frames[i]),
        |_, report| frame_hash(&report),
    );
    let peak_rss_mb = harness::peak_rss_mb()?;
    drop(lanes);

    let mismatches = (0..n)
        .step_by(GATE_STEP)
        .filter(|&i| {
            let config = plan.configs[plan.config_of(i)].clone();
            let direct = Session::new()
                .with_link_config(config)
                .run_analog_link(plan.frames[i]);
            frame_hash(&direct) != pass.samples[i].value
        })
        .count() as u64;
    let refused = pass.samples.iter().filter(|s| !s.value.1).count() as u64;
    let mut values = Values::default();
    run::end_to_end(&mut values, &setup_s, &pass, peak_rss_mb);
    let mut out = RunOutput {
        values,
        attempted: n as u64,
        failed: refused + mismatches,
        mismatches,
        digest: harness::digest(pass.samples.iter().map(|s| s.value.0)),
        samples: n,
        chrome_trace: None,
    };
    if trace {
        traced(&plan, &pass, &mut out)?;
    }
    Ok(out)
}

/// The traced pass: the same frames with engine telemetry and trace
/// events on. Every frame must reproduce the untraced pass exactly.
fn traced(
    plan: &AnalogPlan,
    untraced: &Pass<(u64, bool)>,
    out: &mut RunOutput,
) -> Result<(), String> {
    let n = plan.frames.len();
    let mut lanes = lanes(plan, true);
    warm(plan, &mut lanes)?;
    for session in lanes.iter_mut().flatten() {
        session.take_telemetry();
    }
    let mut tracer = Tracer::new();
    let pass = layers::with_trace_events(|| {
        closed_loop(
            &mut lanes,
            n,
            |sessions, i| {
                let session = &mut sessions[plan.config_of(i)];
                let report = session.run_analog_link(plan.frames[i]);
                (report, session.take_telemetry())
            },
            |_, (report, record)| (frame_hash(&report), record),
        )
    });

    let v = &mut out.values;
    v.set(
        "session.analog_frame_ms",
        run::mean(&pass, |s| s.latency.as_secs_f64() * 1e3),
    );
    v.set("trace.overhead_pct", run::overhead_pct(untraced, &pass));

    let mut engine = Record::new();
    let mut mismatches = 0;
    for (s, u) in pass.samples.into_iter().zip(&untraced.samples) {
        let tid = CLIENT_TID + s.client as u64;
        tracer.span("session.run_analog_link", tid, s.start, s.start + s.latency);
        let (result, mut record) = s.value;
        if result != u.value {
            mismatches += 1;
        }
        tracer.absorb(&mut record);
        engine.merge(record, 0);
    }
    layers::engine_metrics(&engine, n, &mut out.values);
    out.attempted += n as u64;
    out.failed += mismatches;
    out.mismatches += mismatches;
    out.chrome_trace = Some(tracer.chrome_trace());
    Ok(())
}
