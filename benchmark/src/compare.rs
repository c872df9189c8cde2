//! `benchmark compare <parent-dir> <change-dir>`: judges a change
//! against its parent from run files of both, pairing runs of the same
//! workload and seed.
//!
//! Per workload and end-to-end metric, in this order:
//! * **unresolved** — either side's interquartile range, as a share of
//!   its median, is wider than the metric's bound, unless every change
//!   run reads better than every parent run;
//! * **regressed** — the change's median is worse than the parent's by
//!   more than the bound;
//! * **improved** — at least 10 pairs, the change wins at least 9 in 10
//!   of them (ties count for neither side), and the medians differ by
//!   more than the parent's interquartile range;
//! * **unchanged** — otherwise.
//!
//! Any pair whose `result_digest` differs is flagged: the simulated
//! outputs changed. Any pair in which the change failed more requests
//! than the parent is flagged too, and a gain on that workload does not
//! count. Bounds and directions come from `BENCHMARK.json` in the
//! working directory.

use crate::harness::{median, quartiles, relative_spread};
use openserdes_core::json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Fewest pairs a gain may rest on.
const MIN_PAIRS: usize = 10;

/// One end-to-end metric's contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Share of the parent median the change may be worse by.
    pub bound: f64,
}

/// One run file's content.
#[derive(Debug, Clone, PartialEq)]
pub struct RunFile {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Wall-clock start, for the alternation check.
    pub started_unix_ms: u64,
    /// The run's `result_digest`.
    pub digest: String,
    /// Requests that failed, retried or gave a wrong output. Paired
    /// runs issue the same requests, so counts compare directly.
    pub failed: u64,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// The judgement of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No difference beyond noise.
    Unchanged,
    /// A gain by the 9-in-10 rule.
    Improved,
    /// Worse than the bound allows.
    Regressed,
    /// Too noisy to tell at this bound.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `(parent, change)` value pairs of one metric.
pub fn verdict(bound: &Bound, pairs: &[(f64, f64)]) -> Verdict {
    let parent: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let change: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let better = |a: f64, b: f64| if bound.lower_is_better { a < b } else { a > b };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let spread = if pairs.len() >= 2 {
        relative_spread(&parent).max(relative_spread(&change))
    } else {
        f64::INFINITY
    };
    if spread > bound.bound && !all_better {
        return Verdict::Unresolved;
    }
    let (pm, cm) = (median(&parent), median(&change));
    let worse_by = if bound.lower_is_better {
        cm - pm
    } else {
        pm - cm
    };
    if worse_by > bound.bound * pm.abs() {
        return Verdict::Regressed;
    }
    let wins = pairs.iter().filter(|&&(p, c)| better(c, p)).count();
    let (q1, q3) = quartiles(&parent);
    if pairs.len() >= MIN_PAIRS
        && wins * 10 >= 9 * pairs.len()
        && better(cm, pm)
        && (cm - pm).abs() > q3 - q1
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Reads the end-to-end bounds out of `BENCHMARK.json`.
pub fn bounds(spec: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(spec)?;
    let e2e = json::get(doc.as_obj("BENCHMARK.json")?, "end_to_end")?;
    e2e.as_arr("end_to_end")?
        .iter()
        .map(|m| {
            let m = m.as_obj("metric")?;
            Ok(Bound {
                name: json::get(m, "name")?.as_str("name")?.to_string(),
                lower_is_better: json::get(m, "better")?.as_str("better")? == "lower",
                bound: json::get(m, "bound")?.as_f64("bound")?,
            })
        })
        .collect()
}

/// Parses one untraced run file; `None` for traced runs.
pub fn parse_run(text: &str) -> Result<Option<RunFile>, String> {
    let doc = json::parse(text)?;
    let obj = doc.as_obj("run")?;
    if json::get(obj, "schema")?.as_str("schema")? != crate::SCHEMA {
        return Err("not a benchmark run file".to_string());
    }
    if json::get(obj, "traced")?.as_bool("traced")? {
        return Ok(None);
    }
    let metrics = json::get(obj, "metrics")?
        .as_obj("metrics")?
        .iter()
        .map(|(name, m)| {
            let value = json::get(m.as_obj(name)?, "value")?.as_f64(name)?;
            Ok((name.clone(), value))
        })
        .collect::<Result<_, String>>()?;
    let str_field =
        |k: &str| -> Result<String, String> { Ok(json::get(obj, k)?.as_str(k)?.to_string()) };
    let u64_field = |k: &str| -> Result<u64, String> { json::get(obj, k)?.as_u64(k) };
    Ok(Some(RunFile {
        workload: str_field("workload")?,
        seed: u64_field("seed")?,
        started_unix_ms: u64_field("started_unix_ms")?,
        digest: str_field("result_digest")?,
        failed: u64_field("failed")?,
        metrics,
    }))
}

fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(run) = parse_run(&text).map_err(|e| format!("{}: {e}", path.display()))? {
            runs.push(run);
        }
    }
    Ok(runs)
}

/// One workload and metric judged.
#[derive(Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// `(parent, change)` values, one pair per seed.
    pub pairs: Vec<(f64, f64)>,
    /// The judgement.
    pub verdict: Verdict,
}

/// The comparison of two sets of runs, ready to print.
#[derive(Debug, Default)]
pub struct Report {
    /// Every workload and end-to-end metric judged.
    pub rows: Vec<Row>,
    /// Pairs whose simulated outputs differ.
    pub outputs_changed: Vec<(String, u64)>,
    /// Pairs in which the change failed more requests than the parent:
    /// workload, seed, and each side's failed count.
    pub more_failures: Vec<(String, u64, u64, u64)>,
    /// Per workload: pairs in which the parent ran first, and all pairs.
    pub order: BTreeMap<String, (usize, usize)>,
    /// Runs on one side with no partner on the other.
    pub unpaired: usize,
}

/// Pairs runs by workload and seed and judges every end-to-end metric.
pub fn compare(bounds: &[Bound], parent: &[RunFile], change: &[RunFile]) -> Report {
    let mut report = Report::default();
    let mut pairs: BTreeMap<&str, Vec<(&RunFile, &RunFile)>> = BTreeMap::new();
    for p in parent {
        match change
            .iter()
            .find(|c| c.workload == p.workload && c.seed == p.seed)
        {
            Some(c) => pairs.entry(&p.workload).or_default().push((p, c)),
            None => report.unpaired += 1,
        }
    }
    report.unpaired += change.len() - pairs.values().map(Vec::len).sum::<usize>();
    for (workload, runs) in &pairs {
        let parent_first = runs
            .iter()
            .filter(|(p, c)| p.started_unix_ms < c.started_unix_ms)
            .count();
        report
            .order
            .insert(workload.to_string(), (parent_first, runs.len()));
        for (p, c) in runs {
            if p.digest != c.digest {
                report.outputs_changed.push((workload.to_string(), p.seed));
            }
            if c.failed > p.failed {
                report
                    .more_failures
                    .push((workload.to_string(), p.seed, p.failed, c.failed));
            }
        }
        let failing = report.more_failures.iter().any(|f| f.0 == *workload);
        for b in bounds {
            let values: Vec<(f64, f64)> = runs
                .iter()
                .filter_map(|(p, c)| Some((*p.metrics.get(&b.name)?, *c.metrics.get(&b.name)?)))
                .collect();
            if !values.is_empty() {
                let verdict = match verdict(b, &values) {
                    Verdict::Improved if failing => Verdict::Unchanged,
                    v => v,
                };
                report.rows.push(Row {
                    workload: workload.to_string(),
                    metric: b.name.clone(),
                    verdict,
                    pairs: values,
                });
            }
        }
    }
    report
}

fn summary(values: &[f64]) -> String {
    if values.len() < 2 {
        return format!("{:.4}", median(values));
    }
    let (q1, q3) = quartiles(values);
    format!("{:.4} [{:.4}, {:.4}]", median(values), q1, q3)
}

/// Entry point of `benchmark compare`.
pub fn cmd(args: &[String]) -> Result<ExitCode, String> {
    let [parent_dir, change_dir] = args else {
        return Err("usage: benchmark compare <parent-dir> <change-dir>".to_string());
    };
    let spec = "BENCHMARK.json";
    let spec_text = std::fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
    let bounds = bounds(&spec_text).map_err(|e| format!("{spec}: {e}"))?;
    let parent = load_dir(Path::new(parent_dir))?;
    let change = load_dir(Path::new(change_dir))?;
    let report = compare(&bounds, &parent, &change);

    println!(
        "{:<12} {:<15} {:>5}  {:<34} {:<34} {:>8}  verdict",
        "workload", "metric", "pairs", "parent median [q1, q3]", "change median [q1, q3]", "change"
    );
    for row in &report.rows {
        let p: Vec<f64> = row.pairs.iter().map(|x| x.0).collect();
        let c: Vec<f64> = row.pairs.iter().map(|x| x.1).collect();
        let delta = (median(&c) - median(&p)) / median(&p).abs() * 100.0;
        println!(
            "{:<12} {:<15} {:>5}  {:<34} {:<34} {delta:>+7.2}%  {}",
            row.workload,
            row.metric,
            row.pairs.len(),
            summary(&p),
            summary(&c),
            row.verdict.label()
        );
    }
    for (workload, (parent_first, total)) in &report.order {
        if total < &MIN_PAIRS {
            println!("note: {workload} has {total} pairs; a gain needs {MIN_PAIRS}");
        }
        if parent_first.abs_diff(total - parent_first) > 1 {
            println!("note: {workload} pairs do not alternate ({parent_first} of {total} ran the parent first)");
        }
    }
    if report.unpaired > 0 {
        println!(
            "note: {} runs have no partner with the same workload and seed",
            report.unpaired
        );
    }
    for (workload, seed) in &report.outputs_changed {
        println!("simulated outputs changed: {workload} seed {seed}");
    }
    for (workload, seed, parent, change) in &report.more_failures {
        println!(
            "more failures: {workload} seed {seed}: parent {parent}, change {change}; \
             gains on {workload} do not count"
        );
    }
    let regressed = report.rows.iter().any(|r| r.verdict == Verdict::Regressed);
    let failed = !report.outputs_changed.is_empty() || !report.more_failures.is_empty();
    Ok(if regressed || failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency() -> Bound {
        Bound {
            name: "latency_p50_ms".into(),
            lower_is_better: true,
            bound: 0.1,
        }
    }

    /// `n` pairs: the parent near 10 with a ±1 % wobble, the change at
    /// `factor` times that, with its own wobble.
    fn pairs(n: usize, factor: f64) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let wobble = 1.0 + 0.01 * ((i % 3) as f64 - 1.0);
                let other = 1.0 + 0.01 * (((i + 1) % 3) as f64 - 1.0);
                (10.0 * wobble, 10.0 * factor * other)
            })
            .collect()
    }

    #[test]
    fn same_distribution_is_unchanged() {
        assert_eq!(verdict(&latency(), &pairs(10, 1.0)), Verdict::Unchanged);
    }

    #[test]
    fn a_clear_gain_on_ten_pairs_is_improved() {
        assert_eq!(verdict(&latency(), &pairs(10, 0.8)), Verdict::Improved);
        let throughput = Bound {
            name: "jobs_per_s".into(),
            lower_is_better: false,
            bound: 0.1,
        };
        assert_eq!(verdict(&throughput, &pairs(10, 1.2)), Verdict::Improved);
    }

    #[test]
    fn a_gain_needs_ten_pairs_and_nine_wins() {
        assert_eq!(verdict(&latency(), &pairs(5, 0.8)), Verdict::Unchanged);
        let mut split = pairs(10, 0.8);
        split[0].1 = 10.2;
        split[1].1 = 10.2;
        assert_eq!(
            verdict(&latency(), &split),
            Verdict::Unchanged,
            "8 of 10 wins"
        );
    }

    #[test]
    fn worse_than_the_bound_is_regressed() {
        assert_eq!(verdict(&latency(), &pairs(10, 1.2)), Verdict::Regressed);
        assert_eq!(verdict(&latency(), &pairs(10, 1.05)), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let noisy: Vec<(f64, f64)> = (0..10)
            .map(|i| {
                let v = if i % 2 == 0 { 8.0 } else { 12.0 };
                (v, v)
            })
            .collect();
        assert_eq!(verdict(&latency(), &noisy), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let separated: Vec<(f64, f64)> = noisy.iter().map(|&(p, _)| (p, p / 2.0)).collect();
        assert_eq!(verdict(&latency(), &separated), Verdict::Improved);
    }

    fn run(workload: &str, seed: u64, digest: &str, latency: f64) -> RunFile {
        RunFile {
            workload: workload.into(),
            seed,
            started_unix_ms: seed * 2,
            digest: digest.into(),
            failed: 0,
            metrics: [("latency_p50_ms".to_string(), latency)].into(),
        }
    }

    #[test]
    fn changed_digests_are_flagged_per_pair() {
        let parent: Vec<RunFile> = (0..10).map(|s| run("link_farm", s, "aa", 10.0)).collect();
        let mut change: Vec<RunFile> = (0..10).map(|s| run("link_farm", s, "aa", 10.0)).collect();
        change[3].digest = "bb".into();
        change.push(run("signoff", 1, "cc", 5.0));
        let report = compare(&[latency()], &parent, &change);
        assert_eq!(report.outputs_changed, vec![("link_farm".to_string(), 3)]);
        assert_eq!(report.unpaired, 1);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].verdict, Verdict::Unchanged);
        assert!(report.more_failures.is_empty());
    }

    #[test]
    fn more_failures_are_flagged_and_void_a_gain() {
        let parent: Vec<RunFile> = (0..10).map(|s| run("link_farm", s, "aa", 10.0)).collect();
        let mut change: Vec<RunFile> = (0..10).map(|s| run("link_farm", s, "aa", 8.0)).collect();
        let report = compare(&[latency()], &parent, &change);
        assert_eq!(report.rows[0].verdict, Verdict::Improved);
        // Retried requests return the same bytes, so the digest holds.
        change[5].failed = 1;
        let report = compare(&[latency()], &parent, &change);
        assert_eq!(
            report.more_failures,
            vec![("link_farm".to_string(), 5, 0, 1)]
        );
        assert!(report.outputs_changed.is_empty());
        assert_eq!(report.rows[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn bounds_and_runs_parse() {
        let spec =
            r#"{"end_to_end":[{"name":"jobs_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#;
        assert_eq!(
            bounds(spec).expect("parses"),
            vec![Bound {
                name: "jobs_per_s".into(),
                lower_is_better: false,
                bound: 0.1
            }]
        );
        let file = format!(
            r#"{{"schema":"{}","traced":false,"workload":"signoff","seed":4,"started_unix_ms":9,"result_digest":"ab","attempted":1800,"failed":2,"metrics":{{"jobs_per_s":{{"value":91.5,"unit":"1/s"}}}}}}"#,
            crate::SCHEMA
        );
        let parsed = parse_run(&file).expect("parses").expect("untraced");
        assert_eq!(parsed.metrics["jobs_per_s"], 91.5);
        assert_eq!(parsed.failed, 2);
        assert!(
            parse_run(&file.replace("\"traced\":false", "\"traced\":true"))
                .expect("parses")
                .is_none()
        );
    }
}
