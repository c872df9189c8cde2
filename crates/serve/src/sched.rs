//! Per-tenant fair-share scheduling with coalescing, exact result
//! caching and graceful overload shedding.
//!
//! * **Coalescing** — a submission whose content address matches a job
//!   already queued or executing attaches as an extra waiter instead of
//!   becoming new work; all waiters receive the same bytes.
//! * **Fair share** — each tenant has its own FIFO; workers pick the
//!   next job round-robin across tenants, so one chatty tenant cannot
//!   starve the rest.
//! * **Shedding** — when the queue is full, the lowest-priority queued
//!   job (or the incoming one, if it is lowest) is dropped with a typed
//!   [`Response::Shed`] instead of an error or a panic. Executing jobs
//!   are never interrupted.
//! * **Isolation** — workers run jobs under `catch_unwind` (the same
//!   posture as the sweep engine's per-item fan-out): a panicking job
//!   produces an error reply and the worker lives on.

use crate::cache::ResultCache;
use crate::wire;
use openserdes_core::job::{DeadlineInfo, Request, Response, ShedInfo};
use openserdes_core::{JobKey, Session};
use std::collections::{HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Counters accumulated over a server's lifetime, the source of truth
/// for the serve tests and benchmark workloads, and mirrored into
/// `openserdes-telemetry` when the server shuts down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Submissions received (including coalesced, cached and shed).
    pub requests: u64,
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions that became new work.
    pub cache_misses: u64,
    /// Submissions that attached to identical in-flight work.
    pub coalesced: u64,
    /// Jobs dropped under overload with a typed shed response.
    pub shed: u64,
    /// Jobs that ran to a successful response.
    pub completed: u64,
    /// Jobs that ran to an engine error (reported, not cached).
    pub errored: u64,
    /// Jobs that panicked and were isolated by the worker's
    /// `catch_unwind`; the worker survived every one of these.
    pub panics_isolated: u64,
    /// Jobs retired with a typed [`Response::DeadlineExceeded`]: their
    /// deadline lapsed while they were queued (or was already zero at
    /// submission), so no worker was burned on them.
    pub deadline_expired: u64,
    /// Connections killed by an idle timeout (slow-loris defense): a
    /// peer stalled mid-frame or never drained its replies.
    pub timeouts: u64,
    /// Connections refused at the max-connections cap, each with a
    /// typed error reply before the close.
    pub conns_rejected: u64,
    /// Malformed traffic answered with a typed error reply: bad JSON,
    /// non-UTF-8 payloads, or a hostile oversized length prefix.
    pub protocol_errors: u64,
    /// Connections that died with a transport error (reset, mid-frame
    /// EOF) — distinct from `timeouts` and `protocol_errors`.
    pub conn_errors: u64,
}

/// How a worker's execution of one job ended.
enum Outcome {
    Done,
    EngineError,
    Panicked,
}

/// One waiter's slot for a reply frame. Completed exactly once by a
/// worker (or the shed path); the connection thread blocks in
/// [`Completion::wait`].
pub(crate) struct Completion {
    frame: Mutex<Option<String>>,
    ready: Condvar,
}

impl Completion {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            frame: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    fn complete(&self, frame: String) {
        *self.frame.lock().expect("completion poisoned") = Some(frame);
        self.ready.notify_one();
    }

    /// Blocks until the reply frame arrives.
    pub(crate) fn wait(&self) -> String {
        let frame = self.frame.lock().expect("completion poisoned");
        self.ready
            .wait_while(frame, |frame| frame.is_none())
            .expect("completion poisoned")
            .take()
            .expect("woken with a frame")
    }
}

/// A submission's immediate disposition.
pub(crate) enum Submitted {
    /// Answered on the spot (cache hit, or the submission was shed).
    Ready(String),
    /// Work is queued/in flight; wait for the frame.
    Pending(Arc<Completion>),
}

struct QueuedJob {
    canonical: String,
    request: Request,
    seed: u64,
    tenant: String,
    priority: u8,
    /// Absolute expiry plus the envelope's `deadline_ms`, if any. A
    /// coalesced group runs under its most generous member's deadline.
    deadline: Option<(Instant, u64)>,
    enqueued_at: Instant,
    waiters: Vec<Arc<Completion>>,
}

/// What a worker executes.
struct ExecJob {
    digest: String,
    canonical: String,
    request: Request,
    seed: u64,
}

struct Inner {
    /// New work by digest.
    queued: HashMap<String, QueuedJob>,
    /// Per-tenant FIFOs of queued digests, in first-seen tenant order.
    tenant_queues: Vec<(String, VecDeque<String>)>,
    /// Round-robin pick position over `tenant_queues`.
    rr_cursor: usize,
    /// Executing work: digest → canonical bytes plus the waiters late
    /// joiners attach to.
    inflight: HashMap<String, (String, Vec<Arc<Completion>>)>,
    cache: ResultCache,
    stats: ServerStats,
    shutdown: bool,
}

/// The shared scheduler: submissions enter on connection threads,
/// workers drain on their own threads.
pub(crate) struct Scheduler {
    inner: Mutex<Inner>,
    work: Condvar,
    queue_capacity: usize,
}

impl Scheduler {
    pub(crate) fn new(queue_capacity: usize, cache_capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                queued: HashMap::new(),
                tenant_queues: Vec::new(),
                rr_cursor: 0,
                inflight: HashMap::new(),
                cache: ResultCache::new(cache_capacity),
                stats: ServerStats::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
        }
    }

    /// Submits one job. Runs on a connection thread; never blocks on
    /// job execution.
    pub(crate) fn submit(
        &self,
        tenant: &str,
        priority: u8,
        seed: u64,
        deadline_ms: Option<u64>,
        request: Request,
    ) -> Submitted {
        let key = JobKey::of(&request, seed);
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        inner.stats.requests += 1;

        // A cached answer costs nothing, so it beats any deadline.
        if let Some(cached) = inner.cache.get(&key) {
            let frame = wire::ok_frame(cached);
            inner.stats.cache_hits += 1;
            return Submitted::Ready(frame);
        }

        // A zero deadline is already expired: answer typed on the
        // spot, deterministically, without touching the queue.
        if deadline_ms == Some(0) {
            inner.stats.deadline_expired += 1;
            return Submitted::Ready(deadline_frame(tenant, 0, 0));
        }
        let deadline = deadline_ms.map(|ms| (Instant::now() + Duration::from_millis(ms), ms));

        // Coalesce with identical queued work. A digest hit with
        // different canonical bytes is a (cosmically unlikely) digest
        // collision; refuse rather than serve the wrong job's bytes.
        if let Some(job) = inner.queued.get_mut(&key.digest) {
            if job.canonical != key.canonical {
                return Submitted::Ready(wire::err_frame(
                    "job digest collided with different queued work; resubmit later",
                ));
            }
            let waiter = Completion::new();
            job.waiters.push(Arc::clone(&waiter));
            // The group relaxes to its most generous member: any
            // no-deadline waiter keeps the job alive indefinitely.
            job.deadline = match (job.deadline, deadline) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            };
            inner.stats.coalesced += 1;
            return Submitted::Pending(waiter);
        }
        // Coalesce with identical executing work.
        if let Some((canonical, waiters)) = inner.inflight.get_mut(&key.digest) {
            if *canonical != key.canonical {
                return Submitted::Ready(wire::err_frame(
                    "job digest collided with different executing work; resubmit later",
                ));
            }
            let waiter = Completion::new();
            waiters.push(Arc::clone(&waiter));
            inner.stats.coalesced += 1;
            return Submitted::Pending(waiter);
        }

        inner.stats.cache_misses += 1;

        // Backpressure: at capacity, shed the lowest-priority queued
        // job — or the incoming one if nothing queued ranks below it.
        let mut evicted: Option<QueuedJob> = None;
        if inner.queued.len() >= self.queue_capacity {
            let lowest = inner
                .queued
                .values()
                .map(|j| j.priority)
                .min()
                .unwrap_or(u8::MAX);
            if priority <= lowest {
                inner.stats.shed += 1;
                let depth = inner.queued.len();
                drop(inner);
                return Submitted::Ready(shed_frame(tenant, priority, depth));
            }
            evicted = self.evict_lowest_locked(&mut inner, lowest);
        }

        let waiter = Completion::new();
        let job = QueuedJob {
            canonical: key.canonical.clone(),
            request,
            seed,
            tenant: tenant.to_string(),
            priority,
            deadline,
            enqueued_at: Instant::now(),
            waiters: vec![Arc::clone(&waiter)],
        };
        inner.queued.insert(key.digest.clone(), job);
        let t_idx = match inner.tenant_queues.iter().position(|(t, _)| t == tenant) {
            Some(i) => i,
            None => {
                inner
                    .tenant_queues
                    .push((tenant.to_string(), VecDeque::new()));
                inner.tenant_queues.len() - 1
            }
        };
        inner.tenant_queues[t_idx].1.push_back(key.digest);
        if let Some(job) = evicted {
            inner.stats.shed += 1;
            let depth = inner.queued.len();
            let frame = shed_frame(&job.tenant, job.priority, depth);
            drop(inner);
            for w in job.waiters {
                w.complete(frame.clone());
            }
        } else {
            drop(inner);
        }
        self.work.notify_one();
        Submitted::Pending(waiter)
    }

    /// Removes the oldest queued job at priority `lowest` (scanning
    /// tenants in first-seen order) from the queue, returning it for
    /// its waiters to be shed-completed.
    fn evict_lowest_locked(&self, inner: &mut Inner, lowest: u8) -> Option<QueuedJob> {
        for ti in 0..inner.tenant_queues.len() {
            let found = inner.tenant_queues[ti]
                .1
                .iter()
                .position(|d| inner.queued.get(d).map(|j| j.priority) == Some(lowest));
            if let Some(pos) = found {
                let digest = inner.tenant_queues[ti]
                    .1
                    .remove(pos)
                    .expect("position valid");
                return Some(inner.queued.remove(&digest).expect("indexed job exists"));
            }
        }
        None
    }

    /// Blocks until a job is available (fair-share pick) or shutdown
    /// drains the queue; `None` tells the worker to exit.
    fn next_job(&self) -> Option<ExecJob> {
        let mut inner = self.inner.lock().expect("scheduler poisoned");
        loop {
            'scan: while !inner.queued.is_empty() {
                let n = inner.tenant_queues.len();
                for i in 0..n {
                    let idx = (inner.rr_cursor + i) % n;
                    if let Some(digest) = inner.tenant_queues[idx].1.pop_front() {
                        inner.rr_cursor = (idx + 1) % n;
                        let job = inner.queued.remove(&digest).expect("indexed job exists");
                        // A job whose deadline lapsed while it queued is
                        // retired with a typed response instead of
                        // burning a worker; keep scanning for live work.
                        if let Some((expiry, deadline_ms)) = job.deadline {
                            if Instant::now() >= expiry {
                                inner.stats.deadline_expired += 1;
                                let frame = deadline_frame(
                                    &job.tenant,
                                    deadline_ms,
                                    job.enqueued_at.elapsed().as_millis() as u64,
                                );
                                for w in &job.waiters {
                                    w.complete(frame.clone());
                                }
                                continue 'scan;
                            }
                        }
                        inner
                            .inflight
                            .insert(digest.clone(), (job.canonical.clone(), job.waiters));
                        return Some(ExecJob {
                            digest,
                            canonical: job.canonical,
                            request: job.request,
                            seed: job.seed,
                        });
                    }
                }
                break;
            }
            if inner.shutdown {
                return None;
            }
            inner = self.work.wait(inner).expect("scheduler poisoned");
        }
    }

    /// Records a finished job, caches successful responses, and hands
    /// every waiter (original plus coalesced late joiners) the same
    /// frame.
    fn finish(&self, job: &ExecJob, frame: String, cacheable: Option<String>, outcome: Outcome) {
        let waiters = {
            let mut inner = self.inner.lock().expect("scheduler poisoned");
            match outcome {
                Outcome::Done => inner.stats.completed += 1,
                Outcome::EngineError => inner.stats.errored += 1,
                Outcome::Panicked => inner.stats.panics_isolated += 1,
            }
            if let Some(response_json) = cacheable {
                let key = JobKey {
                    canonical: job.canonical.clone(),
                    digest: job.digest.clone(),
                };
                inner.cache.insert(&key, response_json);
            }
            inner
                .inflight
                .remove(&job.digest)
                .map(|(_, waiters)| waiters)
                .unwrap_or_default()
        };
        for w in waiters {
            w.complete(frame.clone());
        }
    }

    /// Records a connection killed by an idle timeout.
    pub(crate) fn note_timeout(&self) {
        self.inner
            .lock()
            .expect("scheduler poisoned")
            .stats
            .timeouts += 1;
    }

    /// Records a connection refused at the max-connections cap.
    pub(crate) fn note_conn_rejected(&self) {
        self.inner
            .lock()
            .expect("scheduler poisoned")
            .stats
            .conns_rejected += 1;
    }

    /// Records malformed traffic answered with a typed error reply.
    pub(crate) fn note_protocol_error(&self) {
        self.inner
            .lock()
            .expect("scheduler poisoned")
            .stats
            .protocol_errors += 1;
    }

    /// Records a connection that died with a transport error.
    pub(crate) fn note_conn_error(&self) {
        self.inner
            .lock()
            .expect("scheduler poisoned")
            .stats
            .conn_errors += 1;
    }

    /// Stops the worker pool once the queue drains.
    pub(crate) fn shutdown(&self) {
        self.inner.lock().expect("scheduler poisoned").shutdown = true;
        self.work.notify_all();
    }

    /// Snapshot of the lifetime counters.
    pub(crate) fn stats(&self) -> ServerStats {
        self.inner.lock().expect("scheduler poisoned").stats
    }

    /// Resident cache entries (for tests).
    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.inner.lock().expect("scheduler poisoned").cache.len()
    }
}

fn shed_frame(tenant: &str, priority: u8, queue_depth: usize) -> String {
    let resp = Response::Shed(ShedInfo {
        tenant: tenant.to_string(),
        priority,
        queue_depth,
    });
    wire::ok_frame(&resp.to_canonical_json())
}

fn deadline_frame(tenant: &str, deadline_ms: u64, queued_ms: u64) -> String {
    let resp = Response::DeadlineExceeded(DeadlineInfo {
        tenant: tenant.to_string(),
        deadline_ms,
        queued_ms,
    });
    wire::ok_frame(&resp.to_canonical_json())
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One worker thread's loop: pick fairly, execute under `catch_unwind`,
/// publish. The worker never propagates a job panic.
pub(crate) fn run_worker(sched: &Scheduler, sweep_threads: usize) {
    while let Some(job) = sched.next_job() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let mut session = Session::new()
                .with_seed(job.seed)
                .with_threads(sweep_threads);
            session.submit(&job.request)
        }));
        let (frame, cacheable, outcome) = match result {
            Ok(Ok(response)) => {
                let json = response.to_canonical_json();
                (wire::ok_frame(&json), Some(json), Outcome::Done)
            }
            Ok(Err(e)) => (wire::err_frame(&e.to_string()), None, Outcome::EngineError),
            Err(payload) => (
                wire::err_frame(&format!("job panicked: {}", panic_message(&*payload))),
                None,
                Outcome::Panicked,
            ),
        };
        sched.finish(&job, frame, cacheable, outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_core::job::{DesignSpec, SweepSpec};
    use openserdes_core::LinkConfig;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn lint_request() -> Request {
        Request::Lint {
            design: DesignSpec::Serializer,
        }
    }

    fn max_loss_request(tol_db: f64) -> Request {
        Request::MaxLoss {
            config: LinkConfig::paper_default(),
            sweep: SweepSpec {
                bits: 500,
                phases: 4,
                frames: 2,
                tol_db,
            },
        }
    }

    #[test]
    fn identical_submissions_coalesce_then_hit_cache() {
        let sched = Arc::new(Scheduler::new(64, 64));
        let a = sched.submit("t", 1, 7, None, lint_request());
        let b = sched.submit("t", 1, 7, None, lint_request());
        let (fa, fb) = match (a, b) {
            (Submitted::Pending(fa), Submitted::Pending(fb)) => (fa, fb),
            _ => panic!("both should pend"),
        };
        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                run_worker(&sched, 1);
            })
        };
        let frame_a = fa.wait();
        let frame_b = fb.wait();
        assert_eq!(frame_a, frame_b, "coalesced waiters share bytes");
        // Third submission: exact cache hit, answered inline.
        match sched.submit("t", 1, 7, None, lint_request()) {
            Submitted::Ready(frame_c) => assert_eq!(frame_c, frame_a),
            Submitted::Pending(_) => panic!("expected a cache hit"),
        }
        let stats = sched.stats();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(sched.cache_len(), 1);
        sched.shutdown();
        worker.join().expect("worker exits cleanly");
    }

    #[test]
    fn different_seeds_do_not_coalesce() {
        let sched = Scheduler::new(64, 64);
        let _ = sched.submit("t", 1, 7, None, lint_request());
        let _ = sched.submit("t", 1, 8, None, lint_request());
        assert_eq!(sched.stats().cache_misses, 2);
        assert_eq!(sched.stats().coalesced, 0);
    }

    #[test]
    fn overload_sheds_lowest_priority_with_typed_response() {
        // Capacity 2, no workers: everything stays queued.
        let sched = Scheduler::new(2, 16);
        let low = sched.submit("alice", 1, 1, None, max_loss_request(1.0));
        let _mid = sched.submit("bob", 5, 2, None, max_loss_request(2.0));
        // Queue now full. A higher-priority job evicts the low one...
        let high = sched.submit("carol", 9, 3, None, max_loss_request(3.0));
        assert!(matches!(high, Submitted::Pending(_)));
        let low_frame = match low {
            Submitted::Pending(f) => f.wait(),
            Submitted::Ready(f) => f,
        };
        let reply = wire::parse_reply(&low_frame).expect("parses");
        match reply {
            Ok(Response::Shed(info)) => {
                assert_eq!(info.tenant, "alice");
                assert_eq!(info.priority, 1);
                assert!(info.queue_depth > 0);
            }
            other => panic!("expected typed shed, got {other:?}"),
        }
        // ...and a lower-priority incoming job is shed on arrival.
        match sched.submit("dave", 0, 4, None, max_loss_request(4.0)) {
            Submitted::Ready(frame) => match wire::parse_reply(&frame).expect("parses") {
                Ok(Response::Shed(info)) => assert_eq!(info.tenant, "dave"),
                other => panic!("expected typed shed, got {other:?}"),
            },
            Submitted::Pending(_) => panic!("incoming low-priority job should shed"),
        }
        assert_eq!(sched.stats().shed, 2);
    }

    #[test]
    fn fair_share_round_robins_across_tenants() {
        let sched = Scheduler::new(64, 0);
        // alice floods first; bob's single job must not wait for all
        // of alice's.
        let mut seed = 0u64;
        for _ in 0..3 {
            seed += 1;
            let _ = sched.submit("alice", 1, seed, None, max_loss_request(seed as f64));
        }
        seed += 1;
        let _ = sched.submit("bob", 1, seed, None, max_loss_request(seed as f64));
        let first = sched.next_job().expect("job");
        let second = sched.next_job().expect("job");
        // Round robin: one from alice, then bob's (not alice again).
        let tenants: Vec<&str> = [&first, &second]
            .iter()
            .map(|j| {
                if j.canonical.contains("\"seed\":4") {
                    "bob"
                } else {
                    "alice"
                }
            })
            .collect();
        assert!(
            tenants.contains(&"bob"),
            "bob served within the first two picks despite alice's flood"
        );
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let sched = Arc::new(Scheduler::new(16, 16));
        // oversampling 0 passes no wire validation here (constructed
        // in-process) and panics inside the CDR: the worker must
        // isolate it and keep serving.
        let mut poisoned_config = LinkConfig::paper_default();
        poisoned_config.cdr.oversampling = 0;
        let poisoned = Request::RunLink {
            config: poisoned_config,
            frames: vec![[1u32; 8]],
        };
        let a = sched.submit("t", 1, 1, None, poisoned);
        let b = sched.submit("t", 1, 1, None, lint_request());
        let worker_panicked = Arc::new(AtomicBool::new(false));
        let worker = {
            let sched = Arc::clone(&sched);
            let worker_panicked = Arc::clone(&worker_panicked);
            std::thread::spawn(move || {
                if panic::catch_unwind(AssertUnwindSafe(|| run_worker(&sched, 1))).is_err() {
                    worker_panicked.store(true, Ordering::SeqCst);
                }
            })
        };
        let frame_a = match a {
            Submitted::Pending(f) => f.wait(),
            Submitted::Ready(f) => f,
        };
        assert!(
            matches!(wire::parse_reply(&frame_a), Ok(Err(msg)) if msg.contains("panicked")),
            "poisoned job reports as an error frame"
        );
        let frame_b = match b {
            Submitted::Pending(f) => f.wait(),
            Submitted::Ready(f) => f,
        };
        assert!(
            matches!(wire::parse_reply(&frame_b), Ok(Ok(Response::Lint(_)))),
            "the same worker keeps serving after the panic"
        );
        sched.shutdown();
        worker.join().expect("worker thread joins");
        assert!(
            !worker_panicked.load(Ordering::SeqCst),
            "panic was isolated"
        );
        assert_eq!(sched.stats().panics_isolated, 1);
    }

    #[test]
    fn zero_deadline_is_answered_typed_on_the_spot() {
        let sched = Scheduler::new(16, 16);
        match sched.submit("t", 1, 99, Some(0), max_loss_request(1.0)) {
            Submitted::Ready(frame) => match wire::parse_reply(&frame).expect("parses") {
                Ok(Response::DeadlineExceeded(info)) => {
                    assert_eq!(info.tenant, "t");
                    assert_eq!(info.deadline_ms, 0);
                }
                other => panic!("expected typed deadline, got {other:?}"),
            },
            Submitted::Pending(_) => panic!("zero deadline must not queue"),
        }
        assert_eq!(sched.stats().deadline_expired, 1);
        assert_eq!(sched.stats().cache_misses, 0, "never became work");
    }

    #[test]
    fn expired_queued_jobs_retire_at_dequeue_without_burning_a_worker() {
        // No workers running: the job sits queued past its deadline.
        let sched = Scheduler::new(16, 16);
        let fut = match sched.submit("t", 1, 5, Some(1), max_loss_request(1.0)) {
            Submitted::Pending(f) => f,
            Submitted::Ready(_) => panic!("should queue"),
        };
        std::thread::sleep(Duration::from_millis(10));
        sched.shutdown();
        assert!(
            sched.next_job().is_none(),
            "the expired job is retired during the scan, not handed out"
        );
        let frame = fut.wait();
        match wire::parse_reply(&frame).expect("parses") {
            Ok(Response::DeadlineExceeded(info)) => {
                assert_eq!(info.tenant, "t");
                assert_eq!(info.deadline_ms, 1);
                assert!(info.queued_ms >= 1);
            }
            other => panic!("expected typed deadline, got {other:?}"),
        }
        assert_eq!(sched.stats().deadline_expired, 1);
    }

    #[test]
    fn coalescing_relaxes_to_the_most_generous_deadline() {
        let sched = Scheduler::new(16, 16);
        let a = sched.submit("t", 1, 5, Some(1), max_loss_request(1.0));
        // A no-deadline twin joins the group: the job must now survive
        // any queue delay.
        let b = sched.submit("t", 1, 5, None, max_loss_request(1.0));
        assert!(matches!(a, Submitted::Pending(_)));
        assert!(matches!(b, Submitted::Pending(_)));
        assert_eq!(sched.stats().coalesced, 1);
        std::thread::sleep(Duration::from_millis(10));
        assert!(
            sched.next_job().is_some(),
            "relaxed group is live work despite the lapsed member deadline"
        );
    }
}
