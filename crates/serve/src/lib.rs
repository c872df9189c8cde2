//! # openserdes-serve
//!
//! The link-farm front door: a dependency-free TCP server that
//! exposes the whole [`openserdes_core::Session`] engine surface —
//! link runs, bathtubs, fault campaigns, corner sweeps, flow/STA/lint —
//! behind the serializable [`openserdes_core::job::Request`] /
//! [`openserdes_core::job::Response`] vocabulary over a length-prefixed
//! JSON wire protocol (`openserdes-serve/1`, see [`wire`]).
//!
//! Everything downstream of a `(Request, seed)` pair is deterministic,
//! and the server leans on that hard:
//!
//! * **Exact result cache** ([`ServerConfig::cache_capacity`]) —
//!   responses are cached under the job's content address
//!   ([`openserdes_core::JobKey`]); a hit returns the byte-identical
//!   response the engine would recompute.
//! * **Request coalescing** — identical submissions in flight share one
//!   execution; every waiter receives the same bytes.
//! * **Fair-share scheduling with graceful shedding** — per-tenant
//!   round-robin over a bounded queue; overload drops the
//!   lowest-priority queued job with a typed
//!   [`openserdes_core::job::Response::Shed`], and job panics are
//!   isolated per worker (`catch_unwind`) exactly like the sweep
//!   engine's per-item fan-out.
//! * **Hardening** — optional per-job deadlines
//!   ([`wire::Envelope::deadline_ms`]) retired with a typed
//!   [`openserdes_core::job::Response::DeadlineExceeded`] at dequeue,
//!   per-connection idle timeouts (slow-loris defense), a
//!   max-connections cap with typed rejection, bounded graceful drain,
//!   and a timeout-and-seeded-retry [`Client`] — safe to retry because
//!   a resubmitted job is an exact cache/coalesce hit.
//!
//! IO is plain blocking `std::net`, one thread per connection: the
//! thread count is capped by [`ServerConfig::max_connections`], the idle
//! limits are socket timeouts, and the drain after
//! [`ServerHandle::stop`] ends by shutting down the sockets still open.
//! The server and the [`Client`] share one frame reader and one frame
//! writer ([`wire::read_frame_blocking`], [`wire::write_frame_blocking`]).
//!
//! ```no_run
//! use openserdes_core::job::{Request, SweepSpec};
//! use openserdes_core::LinkConfig;
//! use openserdes_serve::{Client, Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.handle();
//! let serving = std::thread::spawn(move || server.serve());
//!
//! let mut client = Client::connect(addr, "quickstart")?;
//! let response = client.submit(1, 42, &Request::Bathtub {
//!     config: LinkConfig::paper_default(),
//!     sweep: SweepSpec::default(),
//! })?;
//! println!("{response:?}");
//!
//! drop(client);
//! handle.stop();
//! let (stats, _telemetry) = serving.join().expect("server thread")?;
//! assert_eq!(stats.completed, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod cache;
mod sched;
mod server;

pub mod client;
pub mod wire;

pub use client::{Client, ClientConfig, ClientError, RetryStats};
pub use sched::ServerStats;
pub use server::{Server, ServerConfig, ServerHandle};
