//! The job server: an accept loop that serves every connection on its
//! own thread with blocking IO, a shared scheduler, and a pool of
//! worker threads executing jobs through
//! [`openserdes_core::Session::submit`].

use crate::sched::{run_worker, Scheduler, ServerStats, Submitted};
use crate::wire::{self, Envelope};
use openserdes_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server knobs. `Default` is a loopback server sized for the bench
/// and test workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back with
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing jobs (clamped to ≥ 1).
    pub workers: usize,
    /// Sweep worker threads *inside* each job (the
    /// [`openserdes_core::Session::with_threads`] value; results are
    /// identical for any value, and 0 clamps to 1).
    pub sweep_threads: usize,
    /// Queued-job capacity before shedding starts (clamped to ≥ 1).
    pub queue_capacity: usize,
    /// Result-cache capacity in responses (0 disables caching).
    pub cache_capacity: usize,
    /// Open-connection cap; arrivals beyond it get a typed error reply
    /// and an immediate close (0 = unlimited). Each open connection is
    /// served on its own thread, so this also caps those threads.
    pub max_connections: usize,
    /// Per-connection read idle limit in milliseconds: a peer that
    /// starts a frame and then stalls longer than this is disconnected
    /// with `serve.timeouts` billed — the slow-loris defense. Waiting
    /// *between* frames is unbounded (idle keep-alive is fine).
    /// 0 disables the limit.
    pub read_idle_ms: u64,
    /// Per-connection write idle limit in milliseconds: a peer that
    /// never drains its replies cannot pin the reply path. 0 disables.
    pub write_idle_ms: u64,
    /// Graceful-drain budget in milliseconds after `stop()`: open
    /// connections get this long to finish before their sockets are
    /// shut down. 0 waits indefinitely (the pre-hardening behavior).
    pub drain_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            sweep_threads: 1,
            queue_capacity: 64,
            cache_capacity: 256,
            max_connections: 64,
            read_idle_ms: 2_000,
            write_idle_ms: 2_000,
            drain_ms: 10_000,
        }
    }
}

/// Remote control for a running server: signal it to stop accepting
/// and drain. Cloneable and `Send`, so tests/benches can stop a server
/// from another thread.
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    /// Where [`ServerHandle::stop`] connects to wake the blocking
    /// accept: the bound address, with an unspecified IP replaced by
    /// loopback.
    wake: SocketAddr,
}

impl ServerHandle {
    /// Requests shutdown: stop accepting, finish queued work, return
    /// from [`Server::serve`] once open connections close.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // The accept loop is blocked in `accept()`; a connection wakes
        // it, and it sees the flag before serving that connection. The
        // bound only matters if the backlog is full, and then the loop
        // is awake anyway.
        let _ = TcpStream::connect_timeout(&self.wake, Duration::from_secs(1));
    }
}

/// A bound (not yet serving) job server.
pub struct Server {
    listener: TcpListener,
    scheduler: Arc<Scheduler>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    wake: SocketAddr,
}

impl Server {
    /// Binds the listener and builds the scheduler; no thread starts
    /// until [`Server::serve`].
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn bind(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let scheduler = Arc::new(Scheduler::new(config.queue_capacity, config.cache_capacity));
        Ok(Self {
            listener,
            scheduler,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            wake,
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that can stop this server from any thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shutdown: Arc::clone(&self.shutdown),
            wake: self.wake,
        }
    }

    /// Serves until the handle's `stop()`: accepts connections on the
    /// calling thread, serves each on its own thread, executes jobs on
    /// the worker pool, then drains and returns the lifetime
    /// [`ServerStats`] together with a telemetry [`telemetry::Record`]
    /// carrying the `serve.*` counters.
    ///
    /// Graceful shutdown semantics: after `stop()` the server stops
    /// accepting; it waits up to `drain_ms` for open connections to
    /// close (clients should disconnect when done), then shuts down the
    /// sockets of any that are left so shutdown is bounded. It joins
    /// every connection and worker thread before it returns.
    ///
    /// # Errors
    ///
    /// Listener-level accept failures (after the same drain);
    /// per-connection IO errors only close that connection.
    pub fn serve(self) -> io::Result<(ServerStats, telemetry::Record)> {
        let Server {
            listener,
            scheduler,
            config,
            shutdown,
            ..
        } = self;
        let workers: Vec<_> = (0..config.workers.max(1))
            .map(|i| {
                let scheduler = Arc::clone(&scheduler);
                let sweep_threads = config.sweep_threads;
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || run_worker(&scheduler, sweep_threads))
                    .expect("spawn worker thread")
            })
            .collect();

        let idle = IdleLimits {
            read: duration_knob(config.read_idle_ms),
            write: duration_knob(config.write_idle_ms),
        };
        let conns = Arc::new(Conns::default());
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut next_id = 0u64;
        let accepted = loop {
            let stream = match listener.accept() {
                _ if shutdown.load(Ordering::SeqCst) => break Ok(()),
                Ok((stream, _addr)) => stream,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                Err(e) => break Err(e),
            };
            reap(&mut threads);
            // Replies are single small frames; waiting on delayed ACKs
            // would add ~40 ms to every round trip.
            let configured = stream
                .set_nodelay(true)
                .and_then(|()| stream.set_write_timeout(idle.write));
            if configured.is_err() {
                scheduler.note_conn_error();
                continue;
            }
            let mut open = conns.open.lock().expect("connections poisoned");
            if config.max_connections > 0 && open.len() >= config.max_connections {
                drop(open);
                // Typed rejection, then close: the peer learns why
                // instead of seeing a reset. No thread is spawned.
                scheduler.note_conn_rejected();
                let frame = wire::err_frame("server at connection capacity; retry later");
                let _ = wire::write_frame_blocking(&mut &stream, frame.as_bytes());
                continue;
            }
            let Ok(peer) = stream.try_clone() else {
                drop(open);
                scheduler.note_conn_error();
                continue;
            };
            next_id += 1;
            open.insert(next_id, peer);
            drop(open);
            let slot = Slot {
                conns: Arc::clone(&conns),
                id: next_id,
            };
            let scheduler = Arc::clone(&scheduler);
            // The slot lives as long as the thread. A failed spawn drops
            // the closure: the slot frees itself and the stream closes.
            if let Ok(thread) = std::thread::Builder::new()
                .name("serve-conn".to_string())
                .spawn(move || {
                    handle_connection(stream, &scheduler, idle, &slot.conns.cut);
                    drop(slot);
                })
            {
                threads.push(thread);
            }
        };
        drop(listener);

        conns.drain(duration_knob(config.drain_ms));
        for thread in threads {
            thread.join().expect("connection thread exits cleanly");
        }
        // Only now: a connection thread may still submit until it ends.
        scheduler.shutdown();
        for worker in workers {
            worker.join().expect("worker exits cleanly");
        }
        accepted?;
        let stats = scheduler.stats();
        Ok((stats, telemetry_record(&stats)))
    }
}

/// Per-connection idle limits, resolved from the millisecond knobs.
#[derive(Debug, Clone, Copy)]
struct IdleLimits {
    read: Option<Duration>,
    write: Option<Duration>,
}

fn duration_knob(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// The open connections, each a clone of its socket keyed by accept
/// order. The count bounds `max_connections` (so it bounds the
/// connection threads too); the drain waits on `closed` and shuts down
/// the sockets still open when its budget runs out.
#[derive(Default)]
struct Conns {
    open: Mutex<HashMap<u64, TcpStream>>,
    closed: Condvar,
    /// Set when the drain shuts down stragglers: the IO errors that
    /// follow are the server's doing, so they bill no counter.
    cut: AtomicBool,
}

impl Conns {
    /// Waits up to `budget` (forever if `None`) for every connection to
    /// close, then shuts down the sockets of those still open.
    fn drain(&self, budget: Option<Duration>) {
        let open = self.open.lock().expect("connections poisoned");
        let open = match budget {
            Some(budget) => {
                self.closed
                    .wait_timeout_while(open, budget, |open| !open.is_empty())
                    .expect("connections poisoned")
                    .0
            }
            None => self
                .closed
                .wait_while(open, |open| !open.is_empty())
                .expect("connections poisoned"),
        };
        if !open.is_empty() {
            self.cut.store(true, Ordering::SeqCst);
            for stream in open.values() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }
}

/// One connection's entry in [`Conns`], removed when its thread ends
/// (or panics, or never starts).
struct Slot {
    conns: Arc<Conns>,
    id: u64,
}

impl Drop for Slot {
    fn drop(&mut self) {
        // Never panic here: this runs while a panicking thread unwinds.
        let mut open = self
            .conns
            .open
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        open.remove(&self.id);
        self.conns.closed.notify_all();
    }
}

/// Joins the connection threads that have already finished.
fn reap(threads: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < threads.len() {
        if threads[i].is_finished() {
            threads
                .swap_remove(i)
                .join()
                .expect("connection thread exits cleanly");
        } else {
            i += 1;
        }
    }
}

/// Serves one connection: read a frame, submit, block for the reply,
/// write it, repeat — so replies go out in request order.
///
/// Every way the connection can die is billed to exactly one counter:
/// idle stalls to `serve.timeouts`, malformed traffic (bad JSON,
/// non-UTF-8, hostile length prefix) to `serve.protocol_errors`, and
/// transport failures (reset, mid-frame EOF) to `serve.conn_errors`.
fn handle_connection(
    mut stream: TcpStream,
    scheduler: &Scheduler,
    idle: IdleLimits,
    cut: &AtomicBool,
) {
    let bill = |e: &io::Error| {
        if cut.load(Ordering::SeqCst) {
            return;
        }
        if wire::is_timeout(e) {
            scheduler.note_timeout();
        } else {
            scheduler.note_conn_error();
        }
    };
    loop {
        match await_frame(&stream, idle.read) {
            Ok(true) => {}
            Ok(false) => return,
            Err(e) => return bill(&e),
        }
        let payload = match wire::read_frame_blocking(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                if let Some(len) = wire::oversized_len(&e) {
                    // Hostile length prefix: typed error reply, then a
                    // clean close — not a silent drop.
                    scheduler.note_protocol_error();
                    let frame = wire::err_frame(&format!(
                        "announced frame of {len} bytes exceeds MAX_FRAME ({} bytes)",
                        wire::MAX_FRAME
                    ));
                    let _ = wire::write_frame_blocking(&mut stream, frame.as_bytes());
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
                return bill(&e);
            }
        };
        let reply = match String::from_utf8(payload) {
            Ok(text) => match Envelope::from_json(&text) {
                Ok(envelope) => match scheduler.submit(
                    &envelope.tenant,
                    envelope.priority,
                    envelope.seed,
                    envelope.deadline_ms,
                    envelope.request,
                ) {
                    Submitted::Ready(frame) => frame,
                    Submitted::Pending(completion) => completion.wait(),
                },
                Err(e) => {
                    scheduler.note_protocol_error();
                    wire::err_frame(&e.to_string())
                }
            },
            Err(_) => {
                scheduler.note_protocol_error();
                wire::err_frame("frame payload is not UTF-8")
            }
        };
        if let Err(e) = wire::write_frame_blocking(&mut stream, reply.as_bytes()) {
            return bill(&e);
        }
    }
}

/// Blocks, with no time limit, until the next frame's first byte
/// arrives, then arms the read idle limit for the rest of the frame:
/// an idle keep-alive connection never expires, but a peer that starts
/// a frame and stalls does (the slow-loris defense). `Ok(false)` is a
/// clean close between frames.
fn await_frame(stream: &TcpStream, read_idle: Option<Duration>) -> io::Result<bool> {
    if read_idle.is_some() {
        stream.set_read_timeout(None)?;
    }
    let mut first = [0u8; 1];
    loop {
        match stream.peek(&mut first) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(read_idle)?;
    Ok(true)
}

/// Mirrors the lifetime counters into an `openserdes-telemetry`
/// record, so serve metrics flow through the same pipeline as engine
/// metrics (and export through the same sinks).
fn telemetry_record(stats: &ServerStats) -> telemetry::Record {
    let mut record = telemetry::Record::new();
    record.counters = BTreeMap::from([
        ("serve.requests", stats.requests),
        ("serve.cache_hits", stats.cache_hits),
        ("serve.cache_misses", stats.cache_misses),
        ("serve.coalesced", stats.coalesced),
        ("serve.shed", stats.shed),
        ("serve.completed", stats.completed),
        ("serve.errored", stats.errored),
        ("serve.panics_isolated", stats.panics_isolated),
        ("serve.deadline_expired", stats.deadline_expired),
        ("serve.timeouts", stats.timeouts),
        ("serve.conns_rejected", stats.conns_rejected),
        ("serve.protocol_errors", stats.protocol_errors),
        ("serve.conn_errors", stats.conn_errors),
    ]);
    record
}
