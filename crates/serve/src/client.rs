//! A small blocking client for the `openserdes-serve/1` protocol —
//! what tests, the `benchmark/` serve workloads and the README
//! quickstart use.
//!
//! Hardened against unlucky and hostile servers:
//!
//! * **Timeouts** — connect, read and write are all bounded
//!   ([`ClientConfig`]); a dead or wedged server yields a typed
//!   [`ClientError::Timeout`] instead of hanging the caller forever.
//! * **Seeded retry** — transport failures (never server-reported job
//!   errors) reconnect and resubmit under exponential backoff with
//!   deterministic jitter. This is safe *because* jobs are
//!   content-addressed and deterministic: a retried submission is an
//!   exact cache or coalesce hit on the server, so at-least-once
//!   delivery costs nothing and changes no bytes.
//! * **Accounting** — every attempt is tallied in [`RetryStats`], so
//!   the chaos test can prove each injected fault was either answered
//!   typed or recovered by retry.

use crate::wire::{self, Envelope};
use openserdes_core::job::{Request, Response};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side failures: transport, timeout, server-reported job
/// errors, or a malformed reply.
#[derive(Debug)]
pub enum ClientError {
    /// A transport failure (connect, read, write, unexpected close).
    Io(io::Error),
    /// A bounded wait expired: the server accepted the connection but
    /// never (or too slowly) replied, or could not be reached within
    /// the connect budget.
    Timeout(io::Error),
    /// The server answered with an error frame (parse failure, engine
    /// error, or an isolated panic).
    Server(String),
    /// The server's reply frame was not valid `openserdes-serve/1`.
    Protocol(String),
}

impl ClientError {
    /// Whether a retry could help: transport and timeout failures are
    /// retryable (the job is content-addressed, so resubmission is
    /// exact); server-reported and protocol errors are not.
    fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Timeout(_))
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Timeout(e) => write!(f, "timeout: {e}"),
            ClientError::Server(msg) => write!(f, "server: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) | ClientError::Timeout(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        if wire::is_timeout(&e) {
            ClientError::Timeout(e)
        } else {
            ClientError::Io(e)
        }
    }
}

/// Client resilience knobs. `Default` suits loopback tests and the
/// bench: tight timeouts, a couple of retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Connect budget in milliseconds (0 = OS default, unbounded).
    pub connect_timeout_ms: u64,
    /// Read budget per reply in milliseconds (0 = unbounded).
    pub read_timeout_ms: u64,
    /// Write budget per submission in milliseconds (0 = unbounded).
    pub write_timeout_ms: u64,
    /// Transport-failure retries per submission (0 = fail fast).
    pub retries: u32,
    /// First backoff sleep in milliseconds; doubles per retry.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Seed for the deterministic backoff jitter.
    pub retry_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout_ms: 2_000,
            read_timeout_ms: 30_000,
            write_timeout_ms: 2_000,
            retries: 2,
            backoff_base_ms: 10,
            backoff_cap_ms: 500,
            retry_seed: 0x5e17_ba5e,
        }
    }
}

/// Per-client retry accounting, accumulated across submissions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Submission attempts, including first tries.
    pub attempts: u64,
    /// Attempts beyond the first (i.e. actual retries).
    pub retries: u64,
    /// Reconnections performed before a retry.
    pub reconnects: u64,
    /// Total milliseconds slept in backoff.
    pub backoff_ms_total: u64,
}

/// One blocking connection to a job server. Submissions on a single
/// client are answered in order; open several clients for concurrency.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    tenant: String,
    config: ClientConfig,
    rng: u64,
    stats: RetryStats,
}

impl Client {
    /// Connects to a server as the given tenant with default
    /// resilience knobs.
    ///
    /// # Errors
    ///
    /// Connection failures (typed [`io::ErrorKind::TimedOut`] when the
    /// connect budget expires).
    pub fn connect(addr: impl ToSocketAddrs, tenant: impl Into<String>) -> io::Result<Self> {
        Self::connect_with(addr, tenant, ClientConfig::default())
    }

    /// Connects with explicit resilience knobs.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        tenant: impl Into<String>,
        config: ClientConfig,
    ) -> io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = open_stream(addr, &config)?;
        Ok(Self {
            stream,
            addr,
            tenant: tenant.into(),
            rng: config.retry_seed | 1,
            config,
            stats: RetryStats::default(),
        })
    }

    /// The retry accounting so far.
    pub fn retry_stats(&self) -> RetryStats {
        self.stats
    }

    /// Submits one job at the given shedding priority and seed, and
    /// blocks for the reply (bounded by the configured timeouts, with
    /// transport failures retried under seeded backoff).
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries server-side job failures
    /// (including typed parse rejections); transport, timeout and
    /// protocol failures use the other variants.
    pub fn submit(
        &mut self,
        priority: u8,
        seed: u64,
        request: &Request,
    ) -> Result<Response, ClientError> {
        self.submit_with_deadline(priority, seed, None, request)
    }

    /// Like [`Client::submit`] with an optional per-job `deadline_ms`:
    /// a job still queued server-side past its deadline comes back as
    /// a typed [`Response::DeadlineExceeded`].
    ///
    /// # Errors
    ///
    /// Same as [`Client::submit`].
    pub fn submit_with_deadline(
        &mut self,
        priority: u8,
        seed: u64,
        deadline_ms: Option<u64>,
        request: &Request,
    ) -> Result<Response, ClientError> {
        let reply = self.exchange(priority, seed, deadline_ms, request)?;
        decode_reply(&reply)
    }

    /// Like [`Client::submit`], but returns the raw canonical response
    /// JSON — the exact bytes the server computed, for bit-identity
    /// checks and caching layers.
    ///
    /// # Errors
    ///
    /// Same as [`Client::submit`].
    pub fn submit_raw(
        &mut self,
        priority: u8,
        seed: u64,
        request: &Request,
    ) -> Result<String, ClientError> {
        let reply = self.exchange(priority, seed, None, request)?;
        decode_reply(&reply)?;
        reply
            .strip_prefix(wire::OK_PREFIX)
            .and_then(|rest| rest.strip_suffix('}'))
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("reply frame is not canonical".to_string()))
    }

    /// Sends one envelope and returns the reply frame's text, retrying
    /// transport failures.
    fn exchange(
        &mut self,
        priority: u8,
        seed: u64,
        deadline_ms: Option<u64>,
        request: &Request,
    ) -> Result<String, ClientError> {
        let envelope = Envelope {
            tenant: self.tenant.clone(),
            priority,
            seed,
            deadline_ms,
            request: request.clone(),
        };
        let frame = envelope.to_json();
        let mut attempt = 0u32;
        loop {
            self.stats.attempts += 1;
            match self.roundtrip(frame.as_bytes()) {
                Ok(reply) => return Ok(reply),
                Err(e) if e.is_retryable() && attempt < self.config.retries => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.backoff(attempt);
                    // The old stream may hold a half-written frame;
                    // resubmitting on it would corrupt the protocol.
                    // Reconnect fresh — the retried job is an exact
                    // cache/coalesce hit server-side, so no recompute.
                    if let Ok(stream) = open_stream(self.addr, &self.config) {
                        self.stream = stream;
                        self.stats.reconnects += 1;
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One write-then-read exchange on the current stream.
    fn roundtrip(&mut self, frame: &[u8]) -> Result<String, ClientError> {
        wire::write_frame_blocking(&mut self.stream, frame)?;
        let payload = wire::read_frame_blocking(&mut self.stream)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before replying",
            ))
        })?;
        String::from_utf8(payload)
            .map_err(|_| ClientError::Protocol("reply is not UTF-8".to_string()))
    }

    /// Sleeps the seeded, equal-jitter exponential backoff for the
    /// given retry attempt (1-based) and records it.
    fn backoff(&mut self, attempt: u32) {
        let base = self.config.backoff_base_ms.max(1);
        let cap = self.config.backoff_cap_ms.max(base);
        let ceiling = base.saturating_mul(1u64 << (attempt - 1).min(32)).min(cap);
        // Equal jitter: half deterministic, half seeded — spreads
        // retry storms without losing reproducibility for a seed.
        let half = ceiling / 2;
        let jitter = if half == 0 {
            0
        } else {
            splitmix64(&mut self.rng) % (half + 1)
        };
        let sleep_ms = half + jitter;
        self.stats.backoff_ms_total += sleep_ms;
        std::thread::sleep(Duration::from_millis(sleep_ms));
    }
}

/// Opens one configured stream: bounded connect, per-IO timeouts,
/// Nagle off.
fn open_stream(addr: SocketAddr, config: &ClientConfig) -> io::Result<TcpStream> {
    let stream = if config.connect_timeout_ms > 0 {
        TcpStream::connect_timeout(&addr, Duration::from_millis(config.connect_timeout_ms))?
    } else {
        TcpStream::connect(addr)?
    };
    stream.set_read_timeout(duration_knob(config.read_timeout_ms))?;
    stream.set_write_timeout(duration_knob(config.write_timeout_ms))?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn duration_knob(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Decodes a reply frame, which arrives from the network, into the
/// server's response or its error.
fn decode_reply(text: &str) -> Result<Response, ClientError> {
    wire::parse_reply(text)
        .map_err(|e| ClientError::Protocol(e.to_string()))?
        .map_err(ClientError::Server)
}

/// The splitmix64 step — the same tiny deterministic generator the
/// vendored `rand` stand-in builds on, inlined here so backoff jitter
/// needs no extra dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_errors_classify_timeouts_typed() {
        let e: ClientError = io::Error::new(io::ErrorKind::WouldBlock, "rcvtimeo").into();
        assert!(matches!(e, ClientError::Timeout(_)));
        assert!(e.is_retryable());
        let e: ClientError = io::Error::new(io::ErrorKind::TimedOut, "rcvtimeo").into();
        assert!(matches!(e, ClientError::Timeout(_)));
        let e: ClientError = io::Error::new(io::ErrorKind::ConnectionReset, "rst").into();
        assert!(matches!(e, ClientError::Io(_)));
        assert!(e.is_retryable());
        assert!(!ClientError::Server("boom".into()).is_retryable());
        assert!(!ClientError::Protocol("bad".into()).is_retryable());
    }

    #[test]
    fn backoff_is_seeded_deterministic_and_capped() {
        let config = ClientConfig {
            backoff_base_ms: 8,
            backoff_cap_ms: 32,
            retry_seed: 42,
            ..ClientConfig::default()
        };
        let mut rng_a = config.retry_seed | 1;
        let mut rng_b = config.retry_seed | 1;
        for attempt in 1..=6u32 {
            let ceiling = config
                .backoff_base_ms
                .saturating_mul(1u64 << (attempt - 1).min(32))
                .min(config.backoff_cap_ms);
            let half = ceiling / 2;
            let a = half + splitmix64(&mut rng_a) % (half + 1);
            let b = half + splitmix64(&mut rng_b) % (half + 1);
            assert_eq!(a, b, "same seed, same schedule");
            assert!(a <= config.backoff_cap_ms, "cap respected");
        }
    }
}
