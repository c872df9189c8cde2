//! Per-layer numbers from the traced pass: engine self-times and
//! counters out of the telemetry the engines already record, and the
//! Chrome trace that lays the benchmark's own spans beside them.

use crate::metrics::Values;
use openserdes_telemetry::{self as telemetry, Record, SpanNode, TraceEvent};
use std::collections::BTreeMap;
use std::time::Instant;

/// Engine spans reported as self-time (span time minus its children's).
const SPAN_METRICS: &[(&str, &str)] = &[
    ("link.serialize", "link.serialize_ms"),
    ("link.phy", "link.phy_ms"),
    ("link.cdr", "link.cdr_ms"),
    ("link.score", "link.score_ms"),
    ("link.run_faulted", "link.run_faulted_ms"),
    ("sweep.bathtub", "sweep.bathtub_ms"),
    ("sweep.max_loss_bisect", "sweep.max_loss_bisect_ms"),
    ("sweep.corner_sweep", "sweep.corner_sweep_ms"),
    ("phy.drive", "phy.drive_ms"),
    ("phy.channel", "phy.channel_ms"),
    ("phy.frontend", "phy.frontend_ms"),
    ("phy.characterize", "phy.characterize_ms"),
    ("analog.transient", "analog.transient_ms"),
    ("analog.dc", "analog.dc_ms"),
    ("analog.batched_dc", "analog.batched_dc_ms"),
    ("flow.synthesis", "flow.synthesis_ms"),
    ("flow.place", "flow.place_ms"),
    ("flow.cts", "flow.cts_ms"),
    ("flow.route", "flow.route_ms"),
    ("flow.sta", "flow.sta_ms"),
    ("flow.power", "flow.power_ms"),
    ("flow.lint", "flow.lint_ms"),
    ("sta.forward", "sta.forward_ms"),
    ("sta.backward", "sta.backward_ms"),
    ("sta.hold", "sta.hold_ms"),
    ("sta.paths", "sta.paths_ms"),
];

/// Engine counters reported as totals over the replayed jobs.
const COUNTERS: &[&str] = &[
    "link.tx_bits",
    "link.phy_samples",
    "analog.steps_taken",
    "analog.lte_rejections",
    "analog.newton_iterations",
    "analog.lu_factorizations",
    "analog.lu_cache_hits",
    "flow.anneal_moves",
    "flow.cells",
];

/// Self-time in nanoseconds per span name, summed over every position
/// the name takes in the tree.
pub fn self_times(spans: &[SpanNode]) -> BTreeMap<&'static str, u64> {
    fn walk(node: &SpanNode, out: &mut BTreeMap<&'static str, u64>) {
        let children: u64 = node.children.iter().map(|c| c.total_ns).sum();
        *out.entry(node.name).or_insert(0) += node.total_ns.saturating_sub(children);
        for c in &node.children {
            walk(c, out);
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        walk(s, &mut out);
    }
    out
}

/// Sets every engine-layer metric from the merged telemetry of `jobs`
/// executed jobs: self-times as means per job, counters as totals.
pub fn engine_metrics(record: &Record, jobs: usize, values: &mut Values) {
    let own = self_times(&record.spans);
    let per_job_ms = |ns: u64| ns as f64 / 1e6 / jobs.max(1) as f64;
    for &(span, metric) in SPAN_METRICS {
        values.set(metric, per_job_ms(own.get(span).copied().unwrap_or(0)));
    }
    for &name in COUNTERS {
        values.set(name, record.counter(name) as f64);
    }
    let ratio = |num: u64, other: u64| num as f64 / (num + other) as f64;
    values.set(
        "analog.lu_reuse_ratio",
        ratio(
            record.counter("analog.lu_cache_hits"),
            record.counter("analog.lu_factorizations"),
        ),
    );
    values.set(
        "analog.step_accept_ratio",
        ratio(
            record.counter("analog.steps_taken"),
            record.counter("analog.lte_rejections"),
        ),
    );
}

/// Trace-timeline ordinals of the benchmark's own threads, clear of
/// the small ordinals telemetry hands out.
pub const CLIENT_TID: u64 = 1_000;
/// The thread replaying requests in-process.
pub const REPLAY_TID: u64 = 2_000;

/// Most events one Chrome trace holds; later ones are counted as
/// dropped so the file stays a few megabytes.
const MAX_TRACE_EVENTS: usize = 40_000;

/// Collects the benchmark's spans and the engines' trace events on one
/// timeline for the Chrome trace.
pub struct Tracer {
    origin: Instant,
    origin_ns: u64,
    record: Record,
}

impl Tracer {
    /// Pins the benchmark's clock to telemetry's trace timeline by
    /// recording one probe span.
    pub fn new() -> Self {
        let was = (telemetry::is_enabled(), telemetry::trace_events_enabled());
        telemetry::set_enabled(true);
        telemetry::set_trace_events(true);
        let origin = Instant::now();
        let ((), probe) = telemetry::collect(|| drop(telemetry::span("bench.clock")));
        telemetry::set_enabled(was.0);
        telemetry::set_trace_events(was.1);
        Self {
            origin,
            origin_ns: probe.events.first().map_or(0, |e| e.start_ns),
            record: Record::new(),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if self.record.events.len() < MAX_TRACE_EVENTS {
            self.record.events.push(event);
        } else {
            self.record.dropped_events += 1;
        }
    }

    /// Records one benchmark span.
    pub fn span(&mut self, name: &'static str, tid: u64, start: Instant, end: Instant) {
        let start_ns =
            self.origin_ns + start.saturating_duration_since(self.origin).as_nanos() as u64;
        self.push(TraceEvent {
            name,
            start_ns,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
            tid,
        });
    }

    /// Moves an engine record's trace events onto the timeline.
    pub fn absorb(&mut self, record: &mut Record) {
        self.record.dropped_events += record.dropped_events;
        for e in std::mem::take(&mut record.events) {
            self.push(e);
        }
    }

    /// The Chrome `trace_event` document.
    pub fn chrome_trace(&self) -> String {
        self.record.to_chrome_trace()
    }
}

/// Runs `f` with engine trace events on, restoring the flag after.
pub fn with_trace_events<R>(f: impl FnOnce() -> R) -> R {
    let was = telemetry::trace_events_enabled();
    telemetry::set_trace_events(true);
    let out = f();
    telemetry::set_trace_events(was);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, total_ns: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            count: 1,
            total_ns,
            children,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_sums_positions() {
        let tree = vec![
            node(
                "link.run",
                100,
                vec![node(
                    "link.phy",
                    60,
                    vec![node("phy.characterize", 50, vec![])],
                )],
            ),
            node("link.run_faulted", 40, vec![node("link.phy", 30, vec![])]),
        ];
        let own = self_times(&tree);
        assert_eq!(own["link.run"], 40);
        assert_eq!(own["link.phy"], 10 + 30);
        assert_eq!(own["phy.characterize"], 50);
        assert_eq!(own["link.run_faulted"], 10);
    }

    #[test]
    fn engine_metrics_are_means_per_job() {
        let mut record = Record::new();
        record.spans = vec![node("link.phy", 4_000_000, vec![])];
        record.counters.insert("analog.lu_cache_hits", 3);
        record.counters.insert("analog.lu_factorizations", 1);
        let mut values = Values::default();
        engine_metrics(&record, 2, &mut values);
        assert_eq!(values.get("link.phy_ms"), 2.0);
        assert_eq!(values.get("analog.lu_reuse_ratio"), 0.75);
        assert_eq!(
            values.get("analog.step_accept_ratio"),
            0.0,
            "no steps reads 0"
        );
    }
}
