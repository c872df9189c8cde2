//! Deterministic parallel fan-out primitives.
//!
//! This is the generic half of the parallel sweep engine: an
//! order-preserving work-stealing map and a speculative bisection that
//! is bit-identical to its sequential counterpart at any worker count.
//! It lives in the analog crate — the lowest layer that needs it — so
//! both the analog sweeps here and the digital link sweeps in
//! `openserdes-core` (which re-exports these functions) share one
//! engine and one determinism contract (DESIGN.md §10–11):
//!
//! * results come back in **input order**, regardless of which worker
//!   finished first, and
//! * changing the thread count changes wall time, never results.
//!
//! Built on `std::thread::scope` — no runtime dependency.

use openserdes_telemetry as telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count: every available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The fan-out core shared by [`map_with_threads`] and
/// [`bisect_speculative`]: runs every item inside its own telemetry
/// scope and returns `(result, record)` pairs in input order **without
/// absorbing** the records — the caller decides which records enter
/// the merged telemetry and in what order (the determinism contract of
/// DESIGN.md §14). With telemetry disabled the records are all empty
/// and the collection wrapper is a single flag check per item.
fn map_recorded<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<(R, telemetry::Record)>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| telemetry::collect(|| f(i, t)))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, (R, telemetry::Record))> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        mine.push((i, telemetry::collect(|| f(i, &items[i]))));
                    }
                    mine
                })
            })
            .collect();
        for h in handles {
            indexed.extend(h.join().expect("sweep worker panicked"));
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Maps `f` over `items` on `threads` scoped workers, returning results
/// in input order. Workers pull indices from a shared atomic counter
/// (work stealing), so uneven item costs still balance.
///
/// Telemetry recorded inside `f` is captured per item on the worker
/// thread and absorbed into the caller's scope in **input-index
/// order**, so the merged counters, histograms and span structure are
/// identical for any worker count (only wall times vary).
pub fn map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_recorded(items, threads, f)
        .into_iter()
        .map(|(r, rec)| {
            telemetry::absorb(rec);
            r
        })
        .collect()
}

/// Extracts a human-readable message from a panic payload — `&str` and
/// `String` payloads (the two `panic!` produces) pass through, anything
/// else gets a generic label.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Fault-isolating [`map_with_threads`]: each item runs inside its own
/// `catch_unwind`, so one poisoned item reports `Err(panic message)` in
/// its slot instead of tearing down the whole fan-out. Results still
/// come back in input order and the outcome vector is worker-count
/// independent — which item panicked depends only on the item, never on
/// scheduling.
///
/// Telemetry recorded by an item that later panics is discarded with
/// the item (absorbing half a record would make merged counters depend
/// on where the panic struck), keeping merged telemetry deterministic.
pub fn try_map_with_threads<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_recorded(items, threads, |i, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t))).map_err(panic_message)
    })
    .into_iter()
    .map(|(r, rec)| {
        if r.is_ok() {
            telemetry::absorb(rec);
        }
        r
    })
    .collect()
}

/// [`map_with_threads`] on every available core.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with_threads(items, default_threads(), f)
}

/// Parallel bisection of a monotone predicate, bit-identical to the
/// sequential loop for any thread count. Returns the final `(lo, hi)`
/// bracket once `hi - lo <= tol`.
///
/// `probe(x)` returning `true` moves `lo` up to `x`; `false` moves `hi`
/// down. The caller must establish the initial bracket (`probe(lo)`
/// true, `probe(hi)` false) before calling.
///
/// A bisection is a chain of dependent decisions, but each decision
/// only picks one of two precomputable midpoints — so the next `d`
/// levels form a binary tree of `2^d − 1` candidate probe points, all
/// known in advance. The engine evaluates the whole tree concurrently,
/// then walks it with the results; the walked path visits exactly the
/// probes the sequential loop would have, in the same arithmetic
/// (`0.5 * (lo + hi)` recursion), so the final bracket matches to the
/// last bit. Probes off the walked path are wasted work bought for
/// wall-time — their errors and panics are ignored, just as the
/// sequential loop never sees them. The bisection also stops once the
/// bracket's ends are adjacent floats, where the midpoint no longer
/// splits it, so a tolerance of zero or below terminates.
///
/// # Errors
///
/// Propagates `probe` failures from the probes the bisection actually
/// uses.
///
/// # Panics
///
/// Re-raises, with its own message, a panic from a probe the bisection
/// actually uses.
pub fn bisect_speculative<E, F>(
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    threads: usize,
    probe: F,
) -> Result<(f64, f64), E>
where
    F: Fn(f64) -> Result<bool, E> + Sync,
    E: Send,
{
    // Speculation depth: enough tree levels to occupy the workers, but
    // never deeper than the halvings the bracket still needs.
    let depth_for = |span: f64| -> u32 {
        let remaining = (span / tol).log2().ceil().max(1.0) as u32;
        let mut d = 0u32;
        while (1usize << (d + 1)) - 1 <= threads.max(1) {
            d += 1;
        }
        d.max(1).min(remaining)
    };
    while hi - lo > tol {
        let depth = depth_for(hi - lo);
        // Heap-ordered midpoint tree: node i splits its bracket at
        // 0.5 * (lo + hi); child 2i+1 takes the lower half, 2i+2 the
        // upper. fill() recurses with the same expression the
        // sequential loop uses, so probe values are bit-identical.
        let nodes = (1usize << depth) - 1;
        let mut probes = vec![0.0f64; nodes];
        fn fill(probes: &mut [f64], i: usize, lo: f64, hi: f64) {
            if i >= probes.len() {
                return;
            }
            let mid = 0.5 * (lo + hi);
            probes[i] = mid;
            fill(probes, 2 * i + 1, lo, mid);
            fill(probes, 2 * i + 2, mid, hi);
        }
        fill(&mut probes, 0, lo, hi);
        // Probe the whole tree, but keep each probe's telemetry record
        // separate: only the probes on the walked path are absorbed —
        // in walk order, which equals the sequential probe order — so
        // merged telemetry is worker-count independent too. Discarded
        // speculative probes leave no trace, just as the sequential
        // loop never ran them.
        let mut verdicts: Vec<Option<_>> = map_recorded(&probes, threads, |_, &x| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(x)))
                .map_err(panic_message)
        })
        .into_iter()
        .map(Some)
        .collect();
        let mut node = 0usize;
        while node < nodes {
            let mid = probes[node];
            if mid <= lo || mid >= hi {
                return Ok((lo, hi));
            }
            let (verdict, rec) = verdicts[node].take().expect("each node visited once");
            let verdict =
                verdict.unwrap_or_else(|message| std::panic::resume_unwind(Box::new(message)));
            telemetry::absorb(rec);
            match verdict? {
                true => {
                    lo = mid;
                    node = 2 * node + 2;
                }
                false => {
                    hi = mid;
                    node = 2 * node + 1;
                }
            }
            if hi - lo <= tol {
                break;
            }
        }
    }
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..57).collect();
        for threads in [1, 2, 4, 8] {
            let out = map_with_threads(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(map(&empty, |_, &x: &usize| x).is_empty());
    }

    #[test]
    fn try_map_isolates_panicking_items() {
        let items: Vec<usize> = (0..23).collect();
        let run = |threads: usize| {
            try_map_with_threads(&items, threads, |_, &x| {
                assert!(x % 7 != 3, "poisoned item {x}");
                x * 2
            })
        };
        let base = run(1);
        for (i, r) in base.iter().enumerate() {
            if i % 7 == 3 {
                let msg = r.as_ref().expect_err("poisoned item must fail");
                assert!(msg.contains("poisoned item"), "got: {msg}");
            } else {
                assert_eq!(r.as_ref().expect("healthy item"), &(i * 2));
            }
        }
        // The outcome pattern is worker-count independent.
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), base, "threads = {threads}");
        }
    }

    /// The sequential loop `bisect_speculative` must replicate.
    fn bisect_sequential(
        mut lo: f64,
        mut hi: f64,
        tol: f64,
        probe: impl Fn(f64) -> bool,
    ) -> (f64, f64) {
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if probe(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, hi)
    }

    #[test]
    fn speculative_bisection_is_worker_count_independent() {
        // An awkward threshold: not representable as any midpoint.
        let threshold = 17.318_530_717_958_647;
        let probe = |x: f64| x < threshold;
        let seq = bisect_sequential(0.0, 60.0, 1e-6, probe);
        for threads in [1, 2, 3, 4, 8] {
            let par = bisect_speculative(0.0, 60.0, 1e-6, threads, |x| {
                Ok::<bool, std::convert::Infallible>(probe(x))
            })
            .unwrap();
            assert_eq!(par.0.to_bits(), seq.0.to_bits(), "lo, threads={threads}");
            assert_eq!(par.1.to_bits(), seq.1.to_bits(), "hi, threads={threads}");
        }
        assert!(seq.0 < threshold && threshold < seq.1 + 1e-6);
    }

    #[test]
    fn speculative_bisection_propagates_used_probe_errors() {
        // Fail only on the first midpoint — which every walk must use.
        let r = bisect_speculative(0.0, 1.0, 1e-3, 4, |x| {
            if (x - 0.5).abs() < 1e-12 {
                Err("probe failed")
            } else {
                Ok(x < 0.3)
            }
        });
        assert_eq!(r, Err("probe failed"));
    }

    #[test]
    fn zero_tolerance_bisection_stops_at_adjacent_floats() {
        for threads in [1, 4] {
            // On its own thread, so a bisection that spins fails the
            // test at the timeout instead of hanging it.
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let r = bisect_speculative(0.0, 60.0, 0.0, threads, |x| {
                    Ok::<bool, std::convert::Infallible>(x < 17.3)
                });
                let _ = tx.send(r);
            });
            let (lo, hi) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a zero tolerance must terminate")
                .unwrap();
            worker.join().expect("bisection thread");
            assert_eq!(hi.to_bits(), lo.to_bits() + 1, "threads = {threads}");
            assert!(lo < 17.3 && 17.3 <= hi);
        }
    }

    #[test]
    fn speculative_probe_panics_follow_the_walk() {
        // The walk never leaves [0, 0.5], but from 3 workers up the
        // speculative tree also probes 0.75, which panics: an off-path
        // panic is discarded like an off-path error.
        let seq = bisect_sequential(0.0, 1.0, 1e-3, |x| x < 0.3);
        for threads in [1, 2, 4, 8] {
            let par = bisect_speculative(0.0, 1.0, 1e-3, threads, |x| {
                assert!(x <= 0.7, "off-path probe at {x}");
                Ok::<bool, std::convert::Infallible>(x < 0.3)
            })
            .unwrap();
            assert_eq!(par.0.to_bits(), seq.0.to_bits(), "threads = {threads}");
            assert_eq!(par.1.to_bits(), seq.1.to_bits(), "threads = {threads}");
            // A panic on the walked path is re-raised with its message.
            let payload = std::panic::catch_unwind(|| {
                bisect_speculative(0.0, 1.0, 1e-3, threads, |x| {
                    assert!(x != 0.25, "walked probe at {x}");
                    Ok::<bool, std::convert::Infallible>(x < 0.3)
                })
            })
            .expect_err("a walked panic propagates");
            assert_eq!(
                panic_message(payload),
                "walked probe at 0.25",
                "threads = {threads}"
            );
        }
    }
}
