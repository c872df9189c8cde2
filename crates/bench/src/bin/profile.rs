//! End-to-end profiling behind `BENCH_profile.json`: runs the paper's
//! three flagship workloads under the telemetry layer and exports what
//! it saw — the human span tree to stdout, the merged record to
//! `BENCH_profile.json`, and the concrete span occurrences to
//! `BENCH_profile.trace.json` (Chrome `trace_event` format; load it in
//! `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! * **link loopback** — the Fig. 8/9 fast path: PRBS frames through
//!   serializer → statistical PHY → CDR → deserializer,
//! * **analog PRBS7** — the transistor-level route: a 64-bit PRBS7
//!   burst at 2 Gb/s over a 20 dB channel through driver, channel and
//!   front-end transients,
//! * **flow** — the CDR block through synthesis → place → CTS → route
//!   → STA → power.
//!
//! The run also *prices* the instrumentation: with telemetry disabled
//! every probe is one relaxed atomic load, and the bin measures that
//! per-call cost directly, multiplies it by a generous estimate of how
//! many probes the workloads hit, and asserts the total stays under 2 %
//! of the uninstrumented wall time.
//!
//! Run with `cargo run --release -p openserdes-bench --bin profile`;
//! pass `--smoke` for the fast CI variant.

use openserdes_core::{cdr_design, PrbsGenerator, PrbsOrder, Session};
use openserdes_flow::FlowConfig;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::{Hertz, Time};
use openserdes_phy::{AnalogLink, ChannelModel};
use openserdes_telemetry as telemetry;
use std::fmt::Write as _;
use std::time::Instant;

/// Sum of span-enter counts over a whole record — how many span guards
/// the instrumented run actually created.
fn span_enters(record: &telemetry::Record) -> u64 {
    fn walk(node: &telemetry::SpanNode) -> u64 {
        node.count + node.children.iter().map(walk).sum::<u64>()
    }
    record.spans.iter().map(walk).sum()
}

/// Sum of histogram sample counts — how many `record_value` calls ran.
fn histogram_samples(record: &telemetry::Record) -> u64 {
    record.histograms.values().map(|h| h.count()).sum()
}

/// Per-call cost of a *disabled* probe, in nanoseconds: one span guard
/// plus one counter bump per iteration, telemetry off.
fn disabled_probe_ns() -> f64 {
    assert!(!telemetry::is_enabled(), "must price the disabled path");
    const ITERS: u64 = 2_000_000;
    let t0 = Instant::now();
    for i in 0..ITERS {
        let _span = telemetry::span("profile.noop");
        telemetry::counter("profile.noop_calls", i & 1);
    }
    // Two probe calls per iteration.
    t0.elapsed().as_secs_f64() * 1e9 / (2 * ITERS) as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let smoke_flag = if smoke { " -- --smoke" } else { "" };
    let (nframes, nbits, anneal) = if smoke {
        (8usize, 16usize, 2_000usize)
    } else {
        (40, 64, 20_000)
    };

    // ---- price the disabled path first (telemetry still off) --------
    let probe_ns = disabled_probe_ns();

    // Uninstrumented-equivalent baseline: the link workload with
    // telemetry disabled (every probe short-circuits on one relaxed
    // atomic load — the "zero-cost" claim under test).
    let stim = PrbsGenerator::new(PrbsOrder::Prbs31).take_frames(nframes);
    let mut baseline = Session::new().with_seed(9);
    baseline.run_link(&stim)?; // warmup
    let t0 = Instant::now();
    baseline.run_link(&stim)?;
    let disabled_ms = t0.elapsed().as_secs_f64() * 1e3;

    // ---- profiled workloads -----------------------------------------
    telemetry::set_trace_events(true);

    // 1. Link loopback (Fig. 8/9 fast path).
    let mut session = Session::new().with_seed(9).with_telemetry(true);
    let t0 = Instant::now();
    let report = session.run_link(&stim)?;
    let link_ms = t0.elapsed().as_secs_f64() * 1e3;
    let link_record = session.take_telemetry();
    assert!(report.cdr_locked, "loopback must lock");

    // 2. Analog PRBS7 burst through the transistor-level PHY.
    let analog = AnalogLink::paper_default(Pvt::nominal(), ChannelModel::lossy(20.0));
    let bits = PrbsGenerator::new(PrbsOrder::Prbs7).take_bits(nbits);
    telemetry::set_enabled(true);
    let t0 = Instant::now();
    let (run, analog_record) = telemetry::collect(|| analog.transmit(&bits, Time::from_ps(500.0)));
    let analog_ms = t0.elapsed().as_secs_f64() * 1e3;
    telemetry::set_enabled(false);
    let run = run?;
    let (_, recovery_errors) = run.recover(&analog.sampler, 3);

    // 3. The CDR block through the RTL→layout flow.
    let mut flow_cfg = FlowConfig::at_clock(Hertz::from_ghz(1.0));
    flow_cfg.anneal_iterations = anneal;
    let mut session = Session::new()
        .with_flow_config(flow_cfg)
        .with_telemetry(true);
    let t0 = Instant::now();
    let flow_result = session.run_flow(&cdr_design(5))?;
    let flow_ms = t0.elapsed().as_secs_f64() * 1e3;
    let flow_record = session.take_telemetry();
    assert!(flow_result.timing.fmax.ghz() > 0.0);

    telemetry::set_trace_events(false);

    // ---- overhead bound ---------------------------------------------
    // Probes the instrumented link run hits: every span enter, every
    // histogram sample, plus a generous 4 counter bumps per span.
    let calls = 5 * span_enters(&link_record) + histogram_samples(&link_record);
    let overhead_ms = calls as f64 * probe_ns / 1e6;
    let overhead_pct = 100.0 * overhead_ms / disabled_ms;
    println!(
        "disabled-probe cost: {probe_ns:.1} ns/call x {calls} calls = {overhead_ms:.4} ms \
         over a {disabled_ms:.1} ms workload ({overhead_pct:.3} %)"
    );
    assert!(
        overhead_pct < 2.0,
        "disabled telemetry must stay under 2 % of the workload \
         ({overhead_pct:.3} % = {calls} probes x {probe_ns:.1} ns over {disabled_ms:.1} ms)"
    );

    // ---- human tree -------------------------------------------------
    println!("\n=== link loopback ({nframes} frames, {link_ms:.1} ms) ===");
    println!("{}", link_record.to_tree_string());
    println!("=== analog PRBS7 ({nbits} bits, {analog_ms:.1} ms) ===");
    println!("{}", analog_record.to_tree_string());
    println!("=== flow: cdr_design(5) ({flow_ms:.1} ms) ===");
    println!("{}", flow_record.to_tree_string());

    // ---- JSON + Chrome trace ----------------------------------------
    let mut merged = telemetry::Record::new();
    merged.merge(link_record.clone(), telemetry::max_events());
    merged.merge(analog_record.clone(), telemetry::max_events());
    merged.merge(flow_record.clone(), telemetry::max_events());
    std::fs::write("BENCH_profile.trace.json", merged.to_chrome_trace())?;

    let mut json = String::new();
    write!(
        json,
        r#"{{
  "schema": "openserdes-bench-profile/1",
  "command": "cargo run --release -p openserdes-bench --bin profile{smoke_flag}",
  "smoke": {smoke},
  "overhead": {{
    "probe_ns_disabled": {probe_ns:.2},
    "calls_estimated": {calls},
    "overhead_ms": {overhead_ms:.4},
    "workload_ms": {disabled_ms:.2},
    "overhead_pct": {overhead_pct:.4},
    "limit_pct": 2.0
  }},
  "workloads": {{
    "link_loopback": {{
      "what": "PRBS-31 frames through serializer/statistical PHY/CDR/deserializer at the paper point",
      "frames": {nframes},
      "wall_ms": {link_ms:.2},
      "bit_errors": {link_errors},
      "record": {link_json}
    }},
    "analog_prbs7": {{
      "what": "64-bit-class PRBS7 burst at 2 Gb/s over a 20 dB channel, transistor-level transients",
      "bits": {nbits},
      "wall_ms": {analog_ms:.2},
      "recovery_errors": {recovery_errors},
      "record": {analog_json}
    }},
    "flow_cdr": {{
      "what": "cdr_design(5) through synthesis/floorplan/place/CTS/route/STA/power at 1 GHz",
      "wall_ms": {flow_ms:.2},
      "record": {flow_json}
    }}
  }},
  "trace_events": {trace_events},
  "trace_file": "BENCH_profile.trace.json"
}}
"#,
        link_errors = report.bit_errors,
        link_json = link_record.to_json(),
        analog_json = analog_record.to_json(),
        flow_json = flow_record.to_json(),
        trace_events = merged.events.len(),
    )?;
    std::fs::write("BENCH_profile.json", json)?;
    println!(
        "wrote BENCH_profile.json and BENCH_profile.trace.json ({} trace events)",
        merged.events.len()
    );
    Ok(())
}
