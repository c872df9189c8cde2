//! The mergeable telemetry artifact: span trees, counters, histograms
//! and optional trace events, with a deterministic merge.

use std::collections::BTreeMap;

/// Number of histogram buckets: one for zero plus one per power of two
/// of the `u64` range.
const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed histogram of `u64` values.
///
/// Bucket 0 counts exact zeros; bucket `b ≥ 1` counts values in
/// `[2^(b-1), 2^b - 1]`. Buckets, count, sum, min and max are all plain
/// integer accumulators, so merging two histograms is associative and
/// commutative — the foundation of the deterministic parallel merge
/// (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// The bucket index a value lands in.
    fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(lower_bound, upper_bound, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                if b == 0 {
                    (0, 0, c)
                } else {
                    let hi = if b == 64 { u64::MAX } else { (1u64 << b) - 1 };
                    (1u64 << (b - 1), hi, c)
                }
            })
    }
}

/// One aggregated node of the span tree: every occurrence of a span
/// name at the same position in the hierarchy folds into one node
/// (count and total time accumulate; children merge recursively).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (static so recording never allocates for the key).
    pub name: &'static str,
    /// How many times the span ran at this tree position.
    pub count: u64,
    /// Summed wall time across occurrences, nanoseconds.
    pub total_ns: u64,
    /// Child spans in first-seen order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A fresh node with zero occurrences.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            count: 0,
            total_ns: 0,
            children: Vec::new(),
        }
    }

    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Finds a direct child by name.
    pub fn child(&self, name: &str) -> Option<&SpanNode> {
        self.children.iter().find(|c| c.name == name)
    }
}

/// Merges `src` span nodes into `dst`, folding by name at each level
/// and preserving `dst`-then-first-seen ordering. Counts and totals are
/// integer sums, so any association of merges yields the same counts;
/// the ordering is deterministic as long as merges happen in a
/// deterministic order (which the parallel engines guarantee by
/// absorbing worker records in input-index order).
pub fn merge_span_lists(dst: &mut Vec<SpanNode>, src: Vec<SpanNode>) {
    for node in src {
        match dst.iter_mut().find(|d| d.name == node.name) {
            Some(d) => {
                d.count += node.count;
                d.total_ns += node.total_ns;
                merge_span_lists(&mut d.children, node.children);
            }
            None => dst.push(node),
        }
    }
}

/// One concrete span occurrence for the Chrome `trace_event` timeline
/// (recorded only when trace events are enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name.
    pub name: &'static str,
    /// Start time, nanoseconds since the process-wide telemetry epoch.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Recording thread's ordinal (stable per thread, first-use order).
    pub tid: u64,
}

/// Everything recorded inside one [`crate::collect`] scope: the
/// deterministic, mergeable unit of telemetry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    /// Aggregated span tree roots.
    pub spans: Vec<SpanNode>,
    /// Named monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named log-bucketed histograms.
    pub histograms: BTreeMap<&'static str, Histogram>,
    /// Concrete span occurrences (when trace events are enabled).
    pub events: Vec<TraceEvent>,
    /// Events discarded because the event cap was reached.
    pub dropped_events: u64,
}

impl Record {
    /// An empty record.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
            && self.counters.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
            && self.dropped_events == 0
    }

    /// The value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram recorded under `name`, if any.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Finds a root span by name.
    pub fn span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Merges `other` into `self`: counters and histogram buckets add,
    /// span trees fold by name, events concatenate up to `max_events`
    /// (overflow lands in [`Record::dropped_events`]).
    pub fn merge(&mut self, other: Record, max_events: usize) {
        merge_span_lists(&mut self.spans, other.spans);
        for (k, v) in other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in other.histograms {
            self.histograms.entry(k).or_default().merge(&h);
        }
        self.dropped_events += other.dropped_events;
        let room = max_events.saturating_sub(self.events.len());
        if other.events.len() > room {
            self.dropped_events += (other.events.len() - room) as u64;
        }
        self.events.extend(other.events.into_iter().take(room));
    }

    /// The deterministic half of the record — everything except wall
    /// times and trace events — as a canonical string. Two runs of the
    /// same workload must produce byte-identical deterministic parts
    /// regardless of worker count (DESIGN.md §14); tests compare this.
    pub fn deterministic_digest(&self) -> String {
        fn span(out: &mut String, node: &SpanNode, depth: usize) {
            out.push_str(&format!(
                "{}span {} x{}\n",
                "  ".repeat(depth),
                node.name,
                node.count
            ));
            for c in &node.children {
                span(out, c, depth + 1);
            }
        }
        let mut out = String::new();
        for s in &self.spans {
            span(&mut out, s, 0);
        }
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} = {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "histogram {k}: count={} sum={} min={} max={} buckets=[",
                h.count(),
                h.sum(),
                h.min(),
                h.max()
            ));
            for (lo, hi, c) in h.nonzero_buckets() {
                out.push_str(&format!("({lo},{hi})x{c},"));
            }
            out.push_str("]\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 0 | 1 | 2..3 (x2) | 4..7 (x2) | 8..15 | 1024..2047 | top
        assert_eq!(buckets[0], (0, 0, 1));
        assert_eq!(buckets[1], (1, 1, 1));
        assert_eq!(buckets[2], (2, 3, 2));
        assert_eq!(buckets[3], (4, 7, 2));
        assert_eq!(buckets[4], (8, 15, 1));
        assert_eq!(buckets[5], (1024, 2047, 1));
        assert_eq!(buckets[6].2, 1);
    }

    #[test]
    fn histogram_merge_is_order_independent() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [3, 9, 100] {
            a.record(v);
        }
        for v in [0, 5, 1 << 40] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 6);
    }

    #[test]
    fn empty_histogram_stats_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn span_lists_fold_by_name() {
        let mut dst = vec![SpanNode {
            name: "a",
            count: 1,
            total_ns: 10,
            children: vec![SpanNode {
                name: "x",
                count: 2,
                total_ns: 4,
                children: vec![],
            }],
        }];
        let src = vec![
            SpanNode {
                name: "a",
                count: 1,
                total_ns: 5,
                children: vec![SpanNode {
                    name: "y",
                    count: 1,
                    total_ns: 1,
                    children: vec![],
                }],
            },
            SpanNode {
                name: "b",
                count: 3,
                total_ns: 7,
                children: vec![],
            },
        ];
        merge_span_lists(&mut dst, src);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst[0].count, 2);
        assert_eq!(dst[0].total_ns, 15);
        assert_eq!(dst[0].children.len(), 2);
        assert_eq!(dst[0].child("x").unwrap().count, 2);
        assert_eq!(dst[0].child("y").unwrap().count, 1);
        assert_eq!(dst[1].name, "b");
    }

    #[test]
    fn record_merge_caps_events() {
        let ev = |n: u64| TraceEvent {
            name: "e",
            start_ns: n,
            dur_ns: 1,
            tid: 0,
        };
        let mut a = Record::new();
        a.events = vec![ev(0), ev(1)];
        let mut b = Record::new();
        b.events = vec![ev(2), ev(3), ev(4)];
        a.merge(b, 3);
        assert_eq!(a.events.len(), 3);
        assert_eq!(a.dropped_events, 2);
    }

    #[test]
    fn deterministic_digest_ignores_times() {
        let mut a = Record::new();
        a.spans = vec![SpanNode {
            name: "s",
            count: 2,
            total_ns: 123,
            children: vec![],
        }];
        a.counters.insert("c", 7);
        let mut b = a.clone();
        b.spans[0].total_ns = 999_999;
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        b.counters.insert("c", 8);
        // counters replaced: digest differs
        assert_ne!(a.deterministic_digest(), b.deterministic_digest());
    }
}
