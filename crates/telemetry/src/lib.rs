//! # openserdes-telemetry
//!
//! The workspace's observability substrate: hierarchical **spans** with
//! monotonic timing, named **counters**, and log-bucketed **histograms**,
//! recorded into a per-thread recorder (no locks on the recording path)
//! and merged **deterministically** at scope exit, so parallel sweeps
//! aggregate identically regardless of worker count (DESIGN.md §14).
//!
//! Recording is **zero-cost when disabled**: every entry point checks
//! one relaxed atomic load and returns immediately, so instrumented hot
//! paths pay a branch, not a measurement (the profile bench gates the
//! measured overhead at < 2 %). Recording is on while the process-wide
//! switch ([`set_enabled`]) is on or any [`enable_scope`] guard lives,
//! so scopes on different threads never switch it off under each other.
//!
//! ```
//! use openserdes_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! let (sum, record) = telemetry::collect(|| {
//!     let _outer = telemetry::span("work");
//!     let mut sum = 0u64;
//!     for i in 0..4u64 {
//!         let _inner = telemetry::span("item");
//!         telemetry::counter("items", 1);
//!         telemetry::record_value("item_value", i);
//!         sum += i;
//!     }
//!     sum
//! });
//! telemetry::set_enabled(false);
//! assert_eq!(sum, 6);
//! assert_eq!(record.counter("items"), 4);
//! assert_eq!(record.span("work").unwrap().child("item").unwrap().count, 4);
//! assert_eq!(record.histogram("item_value").unwrap().count(), 4);
//! ```
//!
//! The merge contract: a [`Record`] is a value. [`collect`] captures
//! everything a closure records on the current thread; [`absorb`] folds
//! a record into the enclosing scope. Parallel engines collect one
//! record per work item and absorb them in **input-index order**, so
//! counters, histograms and span structure are bit-identical for any
//! worker count; only wall times vary run to run.

mod export;
mod record;

pub use record::{merge_span_lists, Histogram, Record, SpanNode, TraceEvent};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The recording state: bit 0 is the [`set_enabled`] switch, the bits
/// above it count the live [`EnableScope`] guards. Recording is on while
/// the word is non-zero. It publishes no other data (recorders are
/// thread-local), so every access is relaxed; the read-modify-writes on
/// the one word still keep the count exact.
static ENABLED: AtomicUsize = AtomicUsize::new(0);
/// [`ENABLED`]'s switch bit.
const SWITCH: usize = 1;
/// One [`EnableScope`] in [`ENABLED`]'s count.
const SCOPE: usize = 2;
static TRACE_EVENTS: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns the process-wide recording switch on or off. Off by default;
/// when recording is off, every recording call is a single relaxed load
/// and an early return. Switching off leaves recording on while any
/// [`enable_scope`] guard lives.
pub fn set_enabled(on: bool) {
    if on {
        ENABLED.fetch_or(SWITCH, Ordering::Relaxed);
    } else {
        ENABLED.fetch_and(!SWITCH, Ordering::Relaxed);
    }
}

/// Whether recording is enabled: the switch is on or an
/// [`enable_scope`] guard lives.
#[inline(always)]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed) != 0
}

/// Keeps recording on, process-wide, until the returned guard drops,
/// whatever [`set_enabled`] says meanwhile. Guards count, so they may
/// nest, overlap and live on different threads: recording turns off
/// once the switch is off and the last guard has dropped.
pub fn enable_scope() -> EnableScope {
    ENABLED.fetch_add(SCOPE, Ordering::Relaxed);
    EnableScope(())
}

/// Guard returned by [`enable_scope`]; releases its hold on recording
/// when dropped, unwinding included.
#[must_use = "recording stays on only while the guard lives"]
pub struct EnableScope(());

impl Drop for EnableScope {
    fn drop(&mut self) {
        ENABLED.fetch_sub(SCOPE, Ordering::Relaxed);
    }
}

/// Also record one concrete [`TraceEvent`] per span occurrence (the
/// Chrome `trace_event` timeline). Off by default — aggregated span
/// trees stay bounded, event timelines grow with work done.
pub fn set_trace_events(on: bool) {
    TRACE_EVENTS.store(on, Ordering::Relaxed);
}

/// Whether concrete trace events are recorded.
pub fn trace_events_enabled() -> bool {
    TRACE_EVENTS.load(Ordering::Relaxed)
}

/// The number of trace events a record holds; excess occurrences are
/// counted in [`Record::dropped_events`] instead of growing memory
/// without bound.
pub fn max_events() -> usize {
    1 << 18
}

/// The process-wide time origin for trace events (first use wins), so
/// events from different threads share one timeline.
fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::new());
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's stable ordinal on the shared trace timeline.
fn tid() -> u64 {
    TID.with(|t| *t)
}

/// One collection scope's live state.
#[derive(Default)]
struct Frame {
    roots: Vec<SpanNode>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: Vec<TraceEvent>,
    dropped_events: u64,
    /// Open spans: index into the parent level's children plus start time.
    stack: Vec<(usize, Instant)>,
}

impl Frame {
    /// The children list of the innermost open span (or the roots).
    fn level_at(&mut self, depth: usize) -> &mut Vec<SpanNode> {
        let mut level = &mut self.roots;
        for &(idx, _) in self.stack[..depth].iter() {
            level = &mut level[idx].children;
        }
        level
    }

    fn open(&mut self, name: &'static str) {
        let depth = self.stack.len();
        let level = self.level_at(depth);
        let idx = match level.iter().position(|n| n.name == name) {
            Some(i) => i,
            None => {
                level.push(SpanNode::new(name));
                level.len() - 1
            }
        };
        level[idx].count += 1;
        self.stack.push((idx, Instant::now()));
    }

    fn close(&mut self) {
        let Some((idx, start)) = self.stack.pop() else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let depth = self.stack.len();
        let level = self.level_at(depth);
        let node = &mut level[idx];
        let name = node.name;
        node.total_ns += dur_ns;
        if trace_events_enabled() {
            if self.events.len() < max_events() {
                let start_ns = start
                    .saturating_duration_since(epoch())
                    .as_nanos()
                    .min(u128::from(u64::MAX)) as u64;
                self.events.push(TraceEvent {
                    name,
                    start_ns,
                    dur_ns,
                    tid: tid(),
                });
            } else {
                self.dropped_events += 1;
            }
        }
    }

    fn into_record(mut self) -> Record {
        // Close any spans left open (a guard leaked across the scope);
        // their time is charged up to the scope exit.
        while !self.stack.is_empty() {
            self.close();
        }
        Record {
            spans: self.roots,
            counters: self.counters,
            histograms: self.histograms,
            events: self.events,
            dropped_events: self.dropped_events,
        }
    }
}

/// The per-thread recorder: a stack of collection frames. Index 0 is
/// the thread's base scope ([`take`] drains it); [`collect`] pushes and
/// pops nested frames.
struct Recorder {
    frames: Vec<Frame>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            frames: vec![Frame::default()],
        }
    }

    fn top(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("base frame always present")
    }
}

/// RAII guard returned by [`span`]; closes the span when dropped.
///
/// Must not be sent across threads (it closes the span on the recorder
/// of the thread that opened it) — it is `!Send` by construction.
#[must_use = "a span guard measures until it is dropped"]
pub struct SpanGuard {
    /// Frame index + stack depth this guard closes back to, or `None`
    /// when recording was disabled at open.
    anchor: Option<(usize, usize)>,
    /// Keeps the guard `!Send`/`!Sync`.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((frame_idx, depth)) = self.anchor else {
            return;
        };
        RECORDER.with(|r| {
            let mut rec = r.borrow_mut();
            // The guard's frame may already have been collected (a guard
            // held across a `collect` boundary): nothing left to close.
            if let Some(frame) = rec.frames.get_mut(frame_idx) {
                while frame.stack.len() > depth {
                    frame.close();
                }
            }
        });
    }
}

/// Opens a hierarchical timing span; the returned guard closes it on
/// drop. Repeated spans with the same name at the same position fold
/// into one aggregated [`SpanNode`] (count + total time).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            anchor: None,
            _not_send: std::marker::PhantomData,
        };
    }
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let frame_idx = rec.frames.len() - 1;
        let top = rec.top();
        let depth = top.stack.len();
        top.open(name);
        SpanGuard {
            anchor: Some((frame_idx, depth)),
            _not_send: std::marker::PhantomData,
        }
    })
}

/// Adds `n` to the named counter.
#[inline]
pub fn counter(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        *r.borrow_mut().top().counters.entry(name).or_insert(0) += n;
    });
}

/// Records one value into the named log-bucketed histogram.
#[inline]
pub fn record_value(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    RECORDER.with(|r| {
        r.borrow_mut()
            .top()
            .histograms
            .entry(name)
            .or_default()
            .record(value);
    });
}

/// Runs `f` in a fresh collection scope on this thread and returns its
/// result together with everything it recorded. When recording is
/// disabled the closure runs bare and the record is empty.
///
/// Scopes nest: telemetry recorded inside an inner [`collect`] is only
/// visible to the enclosing scope once (and if) the inner record is
/// [`absorb`]ed.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Record) {
    if !is_enabled() {
        return (f(), Record::new());
    }
    RECORDER.with(|r| r.borrow_mut().frames.push(Frame::default()));
    let result = f();
    let record = RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        if rec.frames.len() > 1 {
            rec.frames.pop().expect("pushed above").into_record()
        } else {
            // The scope was torn down externally (reset); nothing left.
            Record::new()
        }
    });
    (result, record)
}

/// Folds a [`Record`] into the current scope: counters and histograms
/// add, the record's span roots become children of the innermost open
/// span (or roots of the scope). The caller chooses the absorb order —
/// parallel engines absorb per-item records in input-index order to
/// keep the merged record worker-count independent.
pub fn absorb(record: Record) {
    if !is_enabled() || record.is_empty() {
        return;
    }
    let cap = max_events();
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let top = rec.top();
        let depth = top.stack.len();
        let Record {
            spans,
            counters,
            histograms,
            events,
            dropped_events,
        } = record;
        for (k, v) in counters {
            *top.counters.entry(k).or_insert(0) += v;
        }
        for (k, h) in histograms {
            top.histograms.entry(k).or_default().merge(&h);
        }
        top.dropped_events += dropped_events;
        let room = cap.saturating_sub(top.events.len());
        if events.len() > room {
            top.dropped_events += (events.len() - room) as u64;
        }
        top.events.extend(events.into_iter().take(room));
        let level = top.level_at(depth);
        merge_span_lists(level, spans);
    });
}

/// Drains this thread's base scope (everything recorded outside any
/// [`collect`]) into a [`Record`].
pub fn take() -> Record {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut();
        let base = std::mem::take(&mut rec.frames[0]);
        base.into_record()
    })
}

/// Clears this thread's recorder entirely, including nested scopes.
pub fn reset() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder::new();
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global flags are process-wide; tests that flip them serialize on
    /// this lock so `cargo test`'s parallel harness cannot interleave.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(true);
        let r = f();
        set_enabled(false);
        set_trace_events(false);
        reset();
        r
    }

    #[test]
    fn disabled_recording_is_empty_and_returns_value() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        let (v, rec) = collect(|| {
            let _s = span("never");
            counter("never", 3);
            record_value("never", 1);
            17u32
        });
        assert_eq!(v, 17);
        assert!(rec.is_empty());
    }

    #[test]
    fn enable_scopes_nest_overlap_and_outlive_the_switch() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        assert!(!is_enabled());
        let a = enable_scope();
        {
            let _nested = enable_scope();
            assert!(is_enabled());
        }
        assert!(is_enabled(), "the outer scope still holds");
        let b = enable_scope();
        drop(a);
        assert!(is_enabled(), "an overlapping scope still holds");
        set_enabled(true);
        drop(b);
        assert!(is_enabled(), "the switch still holds");
        let c = enable_scope();
        set_enabled(false);
        assert!(is_enabled(), "switching off leaves an open scope recording");
        drop(c);
        assert!(!is_enabled(), "off once the switch and every scope are");
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let rec = with_enabled(|| {
            let (_, rec) = collect(|| {
                let _a = span("outer");
                for _ in 0..3 {
                    let _b = span("inner");
                }
            });
            rec
        });
        let outer = rec.span("outer").expect("outer recorded");
        assert_eq!(outer.count, 1);
        let inner = outer.child("inner").expect("inner nested");
        assert_eq!(inner.count, 3);
        assert!(rec.span("inner").is_none(), "inner is not a root");
    }

    #[test]
    fn absorb_nests_under_open_span_and_merges_scalars() {
        let rec = with_enabled(|| {
            let (_, worker) = collect(|| {
                let _s = span("work_item");
                counter("items", 1);
                record_value("cost", 5);
            });
            let (_, rec) = collect(|| {
                let _p = span("fanout");
                counter("items", 1);
                absorb(worker.clone());
                absorb(worker);
            });
            rec
        });
        assert_eq!(rec.counter("items"), 3);
        assert_eq!(rec.histogram("cost").unwrap().count(), 2);
        let fanout = rec.span("fanout").expect("parent span");
        assert_eq!(fanout.child("work_item").expect("nested").count, 2);
    }

    #[test]
    fn collect_scopes_are_isolated() {
        let (outer, inner) = with_enabled(|| {
            let mut inner_rec = Record::new();
            let (_, outer_rec) = collect(|| {
                counter("outer_only", 1);
                let (_, r) = collect(|| counter("inner_only", 1));
                inner_rec = r;
            });
            (outer_rec, inner_rec)
        });
        assert_eq!(outer.counter("outer_only"), 1);
        assert_eq!(outer.counter("inner_only"), 0, "not absorbed");
        assert_eq!(inner.counter("inner_only"), 1);
    }

    #[test]
    fn trace_events_record_and_cap() {
        let rec = with_enabled(|| {
            set_trace_events(true);
            let (_, rec) = collect(|| {
                for _ in 0..max_events() + 3 {
                    let _s = span("ev");
                }
            });
            rec
        });
        assert_eq!(rec.events.len(), max_events());
        assert_eq!(rec.dropped_events, 3);
        assert_eq!(
            rec.span("ev").unwrap().count,
            max_events() as u64 + 3,
            "aggregation unaffected"
        );
    }

    #[test]
    fn take_drains_base_scope() {
        let rec = with_enabled(|| {
            counter("base", 2);
            let first = take();
            assert_eq!(first.counter("base"), 2);
            take()
        });
        assert!(rec.is_empty(), "second take finds a drained scope");
    }

    #[test]
    fn guard_dropped_after_inner_collect_still_closes() {
        let rec = with_enabled(|| {
            let (_, rec) = collect(|| {
                let outer = span("outer");
                let (_, inner) = collect(|| {
                    let _s = span("inner");
                });
                absorb(inner);
                drop(outer);
            });
            rec
        });
        let outer = rec.span("outer").expect("outer");
        assert_eq!(outer.count, 1);
        assert_eq!(outer.child("inner").expect("absorbed inside").count, 1);
    }

    #[test]
    fn threads_get_independent_recorders() {
        let rec = with_enabled(|| {
            let (_, rec) = collect(|| {
                counter("main_thread", 1);
                std::thread::scope(|s| {
                    s.spawn(|| {
                        // Recording on another thread goes to its own
                        // recorder; without collect+absorb it is lost.
                        counter("worker_thread", 1);
                    });
                });
            });
            rec
        });
        assert_eq!(rec.counter("main_thread"), 1);
        assert_eq!(rec.counter("worker_thread"), 0);
    }
}
