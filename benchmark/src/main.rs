//! The repository benchmark: four seeded workloads covering the serve
//! plane, the link and sweep engines, the RTL→layout flow and the
//! transistor-level analog route. See `README.md` beside this crate.
//!
//! ```text
//! benchmark run --workload <name> --seed <u64> --seconds <s> [--trace <0|1>] [--smoke] [--out <dir>]
//! benchmark compare <parent-dir> <change-dir>
//! ```
//!
//! `run` prints every metric as `workload metric value unit`, checks
//! the outputs, writes its run file (and, traced, a Chrome trace) under
//! `--out` (default `target/benchmark`), and ends with one JSON line:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}` holding the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. It exits
//! non-zero when an output is wrong.

mod analog;
mod compare;
mod harness;
mod layers;
mod metrics;
mod plan;
mod run;
mod served;

use metrics::{Metric, END_TO_END, PER_LAYER};
use openserdes_core::json;
use plan::Workload;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

/// Schema tag of run files.
pub const SCHEMA: &str = "openserdes-benchmark/1";

const USAGE: &str = "usage:
  benchmark run --workload <serve_hot|link_farm|signoff|analog_prbs> --seed <u64> \
--seconds <1-600> [--trace <0|1>] [--smoke] [--out <dir>]
  benchmark compare <parent-dir> <change-dir>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => compare::cmd(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[derive(Debug)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

/// Parses `run`'s arguments. `--seconds` and `--trace <0|1>` are the
/// spellings the runner convention in the README passes.
fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds) = (None, None, None);
    let (mut trace, mut smoke, mut out) = (false, false, PathBuf::from("target/benchmark"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                let v = value("--seed")?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed `{v}` is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = Some(
                    v.parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or(format!("--seconds `{v}` is not in 1..=600"))?,
                );
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace `{v}` is not 0 or 1")),
                };
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let required = |flag: &str| format!("{flag} is required\n{USAGE}");
    Ok(RunArgs {
        workload: workload.ok_or_else(|| required("--workload"))?,
        seed: seed.ok_or_else(|| required("--seed"))?,
        seconds: seconds.ok_or_else(|| required("--seconds"))?,
        trace,
        smoke,
        out,
    })
}

fn push_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::push_quoted(out, m.name);
        out.push_str(":{\"value\":");
        json::push_f64(out, m.value);
        out.push_str(",\"unit\":");
        json::push_quoted(out, m.unit);
        out.push('}');
    }
    out.push('}');
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let started_unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let scale = run::Scale::new(a.workload, a.seconds, a.smoke);
    let out = run::run(a.workload, a.seed, &scale, a.trace)?;
    let host = harness::host();
    let name = a.workload.name();
    let correct = out.mismatches == 0;

    let e2e = out.values.emit(END_TO_END);
    let layers = if a.trace {
        out.values.emit(PER_LAYER)
    } else {
        Vec::new()
    };
    for m in e2e.iter().chain(&layers) {
        println!("{name} {} {:?} {}", m.name, m.value, m.unit);
    }
    println!("{name} latency_samples {} count", out.samples);
    println!("{name} result_digest {} hex", out.digest);
    println!("{name} host nproc={} git={}", host.nproc, host.git_rev);
    if !correct {
        println!("{name} mismatches {} count", out.mismatches);
    }

    let mut file = String::new();
    file.push_str("{\"schema\":");
    json::push_quoted(&mut file, SCHEMA);
    file.push_str(",\"workload\":");
    json::push_quoted(&mut file, name);
    let _ = write!(
        file,
        ",\"seed\":{},\"seconds\":{},\"smoke\":{},\"traced\":{},\"started_unix_ms\":{started_unix_ms},\
         \"nproc\":{},\"git_rev\":",
        a.seed, a.seconds, a.smoke, a.trace, host.nproc
    );
    json::push_quoted(&mut file, &host.git_rev);
    let _ = write!(
        file,
        ",\"correct\":{correct},\"attempted\":{},\"failed\":{},\"latency_samples\":{},\"result_digest\":",
        out.attempted, out.failed, out.samples
    );
    json::push_quoted(&mut file, &out.digest);
    file.push_str(",\"metrics\":");
    push_metrics(&mut file, &[e2e.as_slice(), layers.as_slice()].concat());
    file.push_str("}\n");
    std::fs::create_dir_all(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
    let suffix = if a.trace { ".traced" } else { "" };
    let path = a.out.join(format!("{name}.s{}{suffix}.json", a.seed));
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(trace) = &out.chrome_trace {
        let path = a.out.join(format!("{name}.trace.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":",
        out.attempted, out.failed
    );
    push_metrics(&mut line, if a.trace { &layers } else { &e2e });
    line.push('}');
    println!("{line}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_core::json::Json;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        let obj = doc.as_obj("BENCHMARK.json").expect("object");
        json::get(obj, key)
            .and_then(|v| v.as_arr(key).map(<[Json]>::to_vec))
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_obj("metric").expect("metric object");
                let field = |k: &str| json::get(m, k).and_then(|v| v.as_str(k).map(str::to_string));
                (field("name").expect("name"), field("unit").expect("unit"))
            })
            .collect()
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    fn spec() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// Every workload at smoke scale, traced, twice: the digests repeat,
    /// the outputs check, and the emitted metrics are exactly the ones
    /// `BENCHMARK.json` declares.
    #[test]
    fn smoke_runs_repeat_and_emit_the_declared_metrics() {
        let doc = spec();
        let workloads: Vec<String> = json::get(doc.as_obj("doc").expect("object"), "workloads")
            .and_then(|w| w.as_arr("workloads").map(<[Json]>::to_vec))
            .expect("workloads")
            .iter()
            .map(|w| {
                let w = w.as_obj("workload").expect("object");
                json::get(w, "name")
                    .and_then(|n| n.as_str("name").map(str::to_string))
                    .expect("name")
            })
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

        for w in Workload::ALL {
            let scale = run::Scale::new(w, 1, true);
            let first = run::run(w, 7, &scale, true).expect("first smoke run");
            let second = run::run(w, 7, &scale, true).expect("second smoke run");
            assert_eq!(first.digest, second.digest, "{}: digest repeats", w.name());
            assert_eq!(
                (first.mismatches, first.failed),
                (0, 0),
                "{}: outputs check",
                w.name()
            );
            assert!(first
                .chrome_trace
                .as_deref()
                .is_some_and(|t| t.contains("\"ph\":\"X\"")));
            assert_eq!(
                names(&first.values.emit(END_TO_END)),
                declared(&doc, "end_to_end"),
                "{}",
                w.name()
            );
            assert_eq!(
                names(&first.values.emit(PER_LAYER)),
                declared(&doc, "per_layer"),
                "{}",
                w.name()
            );
            let e2e = first.values.emit(END_TO_END);
            assert!(e2e.iter().all(|m| m.value > 0.0), "{}: {e2e:?}", w.name());
        }
    }

    /// At the declared `run_seconds`, every workload makes enough
    /// requests to have ten beyond its p90.
    #[test]
    fn every_workload_reports_p90_at_run_seconds() {
        let doc = spec();
        let seconds = json::get(doc.as_obj("doc").expect("object"), "run_seconds")
            .and_then(|s| s.as_u64("run_seconds"))
            .expect("run_seconds");
        for w in Workload::ALL {
            let scale = run::Scale::new(w, seconds, false);
            assert_eq!(scale.per_round % w.granule(), 0, "{}", w.name());
            let p90 = harness::quantile(&vec![0.0; scale.requests()], 0.9);
            assert!(p90.reportable(), "{}: {:?}", w.name(), p90);
        }
    }

    #[test]
    fn run_arguments_parse() {
        let args: Vec<String> = "--workload link_farm --seed 9 --seconds 5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_run(&args).expect("parses");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::LinkFarm, 9, 5, true)
        );
        let with = |extra: &[&str]| {
            let mut v: Vec<String> = args[..6].to_vec();
            v.extend(extra.iter().map(|s| s.to_string()));
            parse_run(&v)
        };
        assert!(!with(&[]).expect("trace defaults to 0").trace);
        assert!(!with(&["--trace", "0"]).expect("parses").trace);
        assert!(with(&["--trace"]).is_err(), "--trace takes 0 or 1");
        assert!(with(&["--trace", "2"]).is_err());
        assert!(parse_run(&args[..4]).is_err(), "seconds is required");
        assert!(parse_run(&args[..2]).is_err(), "seed is required");
    }
}
