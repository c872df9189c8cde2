//! One workload run: set-up timed several times, the untraced pass
//! that yields the end-to-end metrics, the correctness gate, and on
//! request the traced pass that yields the per-layer metrics.

use crate::harness::{self, quantile, Pass};
use crate::metrics::Values;
use crate::plan::Workload;
use crate::{analog, served};
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds per pass. Every round holds the same mix of jobs, so the
/// heavy and light kinds spread evenly over the pass and over whatever
/// else the host does meanwhile.
const ROUNDS: usize = 20;

/// How much one run does. A pass is `rounds` rounds of `per_round`
/// requests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rounds per pass.
    pub rounds: usize,
    /// Requests (frames, for `analog_prbs`) per round.
    pub per_round: usize,
    /// Set-ups timed before the kept one is used.
    pub setups: usize,
}

impl Scale {
    /// The scale `--seconds` asks for, with rounds rounded to whole
    /// granules of the workload's mix; `--smoke` runs two one-granule
    /// rounds.
    pub fn new(workload: Workload, seconds: u64, smoke: bool) -> Self {
        let granule = workload.granule();
        if smoke {
            return Self {
                rounds: 2,
                per_round: granule,
                setups: 1,
            };
        }
        let granules = workload.requests(seconds) as f64 / (ROUNDS * granule) as f64;
        Self {
            rounds: ROUNDS,
            per_round: (granules.round() as usize).max(1) * granule,
            setups: SETUPS,
        }
    }

    /// Requests per pass.
    pub fn requests(&self) -> usize {
        self.rounds * self.per_round
    }
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct RunOutput {
    /// End-to-end metrics, plus per-layer ones from a traced run.
    pub values: Values,
    /// Requests issued in timed and traced passes.
    pub attempted: u64,
    /// Failed requests, client retries and output mismatches.
    pub failed: u64,
    /// Replies that differ from a direct recomputation, or between the
    /// untraced and traced passes.
    pub mismatches: u64,
    /// All replies of the untraced pass folded in request order.
    pub digest: String,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// The Chrome trace of a traced run.
    pub chrome_trace: Option<String>,
}

/// Runs `workload` for `seed` at `scale`; `trace` adds the traced pass.
///
/// # Errors
///
/// Set-up, transport or host failures that leave nothing to measure.
pub fn run(workload: Workload, seed: u64, scale: &Scale, trace: bool) -> Result<RunOutput, String> {
    let mut out = match workload {
        Workload::AnalogPrbs => analog::run(seed, scale, trace)?,
        served => served::run(served, seed, scale, trace)?,
    };
    out.values
        .set("fail_frac", out.failed as f64 / out.attempted as f64);
    Ok(out)
}

/// Sets up `setups` times, timing each in seconds, and keeps the last
/// fixture; the earlier ones go to `teardown`.
pub fn timed_setup<T>(
    setups: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(setups);
    loop {
        let t = Instant::now();
        let fixture = setup()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= setups {
            return Ok((fixture, times));
        }
        teardown(fixture)?;
    }
}

/// Sets the end-to-end metrics of an untraced pass, taken over every
/// request it made.
pub fn end_to_end<R>(values: &mut Values, setup_s: &[f64], pass: &Pass<R>, peak_rss_mb: f64) {
    let latencies = harness::sorted_ms(pass.samples.iter().map(|s| s.latency));
    let p90 = quantile(&latencies, 0.9);
    if !p90.reportable() {
        eprintln!(
            "note: latency_p90_ms has {} of {} samples beyond it; ten are needed to report it",
            p90.beyond, p90.n
        );
    }
    values.set("setup_s", harness::median(setup_s));
    values.set("jobs_per_s", harness::throughput(&pass.samples));
    values.set("latency_p50_ms", quantile(&latencies, 0.5).value);
    values.set("latency_p90_ms", p90.value);
    values.set("peak_rss_mb", peak_rss_mb);
}

/// Mean of `f` over a pass's samples.
pub fn mean<R>(pass: &Pass<R>, f: impl Fn(&harness::Sample<R>) -> f64) -> f64 {
    pass.samples.iter().map(f).sum::<f64>() / pass.samples.len().max(1) as f64
}

/// How much slower the traced pass ran, in percent of the untraced
/// pass's throughput.
pub fn overhead_pct<A, B>(untraced: &Pass<A>, traced: &Pass<B>) -> f64 {
    let plain = harness::throughput(&untraced.samples);
    (plain - harness::throughput(&traced.samples)) / plain * 100.0
}
