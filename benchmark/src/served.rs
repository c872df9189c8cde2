//! The served workloads (`serve_hot`, `link_farm`, `signoff`): a
//! loopback `openserdes-serve` server fed by closed-loop clients, one
//! connection each, every client blocking for its reply.

use crate::harness::{self, closed_loop, Fnv, Pass};
use crate::layers::{self, Tracer, CLIENT_TID, REPLAY_TID};
use crate::metrics::Values;
use crate::plan::{Plan, Workload};
use crate::run::{self, RunOutput, Scale};
use openserdes_core::job::Request;
use openserdes_core::{JobKey, Session};
use openserdes_serve::wire::{self, Envelope};
use openserdes_serve::{Client, Server, ServerConfig, ServerHandle, ServerStats};
use openserdes_telemetry::Record;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shedding priority of every benchmark job.
const PRIORITY: u8 = 1;
/// The correctness gate recomputes every 10th request.
const GATE_STEP: usize = 10;
/// The traced pass replays every 5th request in-process.
const REPLAY_STEP: usize = 5;
/// Requests of the traced pass drawn in the Chrome trace.
const TRACED_REQUESTS: usize = 2_000;

/// Client connections. `link_farm` puts two tenants on one worker, so
/// queue wait and fair share are on its path. `serve_hot` uses one:
/// with two, the reactor's 500 µs poll tick made identical runs read
/// p50 0.05 ms or 0.39 ms. `signoff` uses one: with two, a request's
/// latency is its job plus the other tenant's, and the sums of its
/// 0.02–60 ms jobs leave p50 and p90 in sparse stretches where they
/// moved by a sixth between seeds.
fn tenants(workload: Workload) -> usize {
    match workload {
        Workload::LinkFarm => 2,
        _ => 1,
    }
}

fn tenant(c: usize) -> String {
    format!("tenant-{c}")
}

/// The start of a successful canonical reply to `request`.
fn reply_prefix(request: &Request) -> &'static str {
    match request {
        Request::RunLink { .. } => "{\"kind\":\"link\",",
        Request::RunLinkWithFaults { .. } => "{\"kind\":\"faulted\",",
        Request::RunFlow { .. } => "{\"kind\":\"flow\",",
        Request::Bathtub { .. } => "{\"kind\":\"bathtub\",",
        Request::MaxLoss { .. } => "{\"kind\":\"max_loss\",",
        Request::RateSweep { .. } => "{\"kind\":\"rates\",",
        Request::CornerSweep { .. } => "{\"kind\":\"corners\",",
        Request::Sta { .. } => "{\"kind\":\"sta\",",
        Request::Lint { .. } => "{\"kind\":\"lint\",",
    }
}

/// The `session.*` metric timing `request`'s kind.
fn session_metric(request: &Request) -> Option<&'static str> {
    Some(match request {
        Request::RunLink { .. } => "session.run_link_ms",
        Request::RunLinkWithFaults { .. } => "session.run_link_with_faults_ms",
        Request::RunFlow { .. } => "session.run_flow_ms",
        Request::Bathtub { .. } => "session.bathtub_ms",
        Request::MaxLoss { .. } => "session.max_loss_ms",
        Request::CornerSweep { .. } => "session.corner_sweep_ms",
        Request::Sta { .. } => "session.sta_ms",
        Request::Lint { .. } => "session.lint_ms",
        Request::RateSweep { .. } => return None,
    })
}

/// A running server with its clients connected and its warmup done.
struct Fixture {
    addr: SocketAddr,
    handle: ServerHandle,
    serving: JoinHandle<io::Result<(ServerStats, Record)>>,
    clients: Vec<Client>,
}

impl Fixture {
    fn start(plan: &Plan, tenants: usize) -> Result<Self, String> {
        let server = Server::bind(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("binding the server: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("server address: {e}"))?;
        let handle = server.handle();
        let serving = std::thread::spawn(move || server.serve());
        let mut fixture = Self {
            addr,
            handle,
            serving,
            clients: Vec::new(),
        };
        match fixture.connect_and_warm(plan, tenants) {
            Ok(()) => Ok(fixture),
            Err(e) => {
                let _ = fixture.stop();
                Err(e)
            }
        }
    }

    fn connect_and_warm(&mut self, plan: &Plan, tenants: usize) -> Result<(), String> {
        for c in 0..tenants {
            let client = Client::connect(self.addr, tenant(c))
                .map_err(|e| format!("connecting client {c}: {e}"))?;
            self.clients.push(client);
        }
        for &(idx, seed) in &plan.warm {
            let request = &plan.pool[idx];
            let reply = self.clients[0]
                .submit_raw(PRIORITY, seed, request)
                .map_err(|e| format!("warmup job {idx}: {e}"))?;
            if !reply.starts_with(reply_prefix(request)) {
                let head: String = reply.chars().take(120).collect();
                return Err(format!("warmup job {idx} answered {head}"));
            }
        }
        Ok(())
    }

    /// Closes the clients, stops the server and returns its counters.
    fn stop(self) -> Result<ServerStats, String> {
        drop(self.clients);
        self.handle.stop();
        let (stats, _) = self
            .serving
            .join()
            .map_err(|_| "the server thread panicked".to_string())?
            .map_err(|e| format!("serving: {e}"))?;
        Ok(stats)
    }
}

/// What the benchmark keeps of one reply.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Hash of the canonical response bytes (or of the error).
    pub hash: u64,
    /// A successful reply of the kind the request asks for.
    pub ok: bool,
    /// The reply itself, for requests the gate recomputes.
    pub kept: Option<String>,
}

impl Reply {
    fn settle(reply: Result<String, String>, prefix: &str, keep: bool) -> Self {
        let (ok, text) = match reply {
            Ok(text) => (text.starts_with(prefix), text),
            Err(e) => (false, format!("error: {e}")),
        };
        Self {
            hash: Fnv::of(text.as_bytes()),
            ok,
            kept: keep.then_some(text),
        }
    }
}

/// The canonical response bytes `request` yields under `seed` when run
/// straight through `Session::submit`.
fn direct(request: &Request, seed: u64) -> String {
    match Session::new()
        .with_seed(seed)
        .with_threads(1)
        .submit(request)
    {
        Ok(response) => response.to_canonical_json(),
        Err(e) => format!("error: {e}"),
    }
}

/// The correctness gate: every `step`-th reply must equal, byte for
/// byte, a direct recomputation of its job. Identical jobs are
/// recomputed once. Returns the number of mismatches.
pub fn gate(plan: &Plan, pass: &Pass<Reply>, step: usize) -> u64 {
    let mut memo: HashMap<(usize, u64), String> = HashMap::new();
    (0..pass.samples.len())
        .step_by(step)
        .filter(|&i| {
            let (idx, seed) = plan.schedule[i];
            let expected = memo
                .entry((idx, seed))
                .or_insert_with(|| direct(&plan.pool[idx], seed));
            pass.samples[i].value.kept.as_deref() != Some(expected.as_str())
        })
        .count() as u64
}

pub fn run(workload: Workload, seed: u64, scale: &Scale, trace: bool) -> Result<RunOutput, String> {
    let tenants = tenants(workload);
    let ((plan, mut fixture), setup_s) = run::timed_setup(
        scale.setups,
        || {
            let plan = Plan::new(workload, seed, scale);
            let fixture = Fixture::start(&plan, tenants)?;
            Ok((plan, fixture))
        },
        |(_, fixture)| fixture.stop().map(drop),
    )?;
    let n = plan.schedule.len();

    let pass = closed_loop(
        &mut fixture.clients,
        n,
        |client, i| {
            let (idx, seed) = plan.schedule[i];
            client.submit_raw(PRIORITY, seed, &plan.pool[idx])
        },
        |i, reply| {
            let request = &plan.pool[plan.schedule[i].0];
            Reply::settle(
                reply.map_err(|e| e.to_string()),
                reply_prefix(request),
                i % GATE_STEP == 0,
            )
        },
    );
    let peak_rss_mb = harness::peak_rss_mb()?;
    let retries: u64 = fixture
        .clients
        .iter()
        .map(|c| c.retry_stats().retries)
        .sum();
    let stats = fixture.stop()?;

    let mismatches = gate(&plan, &pass, GATE_STEP);
    let refused = pass.samples.iter().filter(|s| !s.value.ok).count() as u64;
    let mut values = Values::default();
    run::end_to_end(&mut values, &setup_s, &pass, peak_rss_mb);
    let mut out = RunOutput {
        values,
        attempted: n as u64,
        failed: refused + retries + mismatches,
        mismatches,
        digest: harness::digest(pass.samples.iter().map(|s| s.value.hash)),
        samples: n,
        chrome_trace: None,
    };

    let timed = (stats.requests - plan.warm.len() as u64).max(1);
    let values = &mut out.values;
    values.set(
        "serve.cache_hit_ratio",
        stats.cache_hits as f64 / timed as f64,
    );
    values.set("serve.coalesced", stats.coalesced as f64);
    values.set("serve.shed", stats.shed as f64);
    values.set("serve.errored", stats.errored as f64);
    values.set("serve.client_retries", retries as f64);
    if trace {
        traced(&plan, tenants, &pass, &mut out)?;
    }
    Ok(out)
}

/// The timed parts of one round trip made from the split public calls.
struct Split {
    encode: Duration,
    write: Duration,
    wait: Duration,
    decode: Duration,
    request_bytes: usize,
    reply_bytes: usize,
}

fn connect_raw(addr: SocketAddr, c: usize) -> Result<(TcpStream, String), String> {
    let connect = || -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(2)))?;
        Ok(stream)
    };
    connect()
        .map(|s| (s, tenant(c)))
        .map_err(|e| format!("connecting traced client {c}: {e}"))
}

/// `Client::submit_raw`, spelled out: encode, write, wait, parse.
/// Returns the timings and the canonical response (or why there is
/// none).
fn split_roundtrip(
    stream: &mut TcpStream,
    tenant: &str,
    plan: &Plan,
    i: usize,
    head: &str,
) -> (Split, Result<String, String>) {
    let (idx, seed) = plan.schedule[i];
    let t0 = Instant::now();
    let frame = Envelope {
        tenant: tenant.to_string(),
        priority: PRIORITY,
        seed,
        deadline_ms: None,
        request: plan.pool[idx].clone(),
    }
    .to_json();
    let t1 = Instant::now();
    let written = wire::write_frame_blocking(stream, frame.as_bytes());
    let t2 = Instant::now();
    let payload = written.and_then(|()| wire::read_frame_blocking(stream));
    let t3 = Instant::now();
    let reply_bytes = payload
        .as_ref()
        .map_or(0, |p| p.as_ref().map_or(0, Vec::len));
    let reply = match payload {
        Ok(Some(bytes)) => decode(bytes, head),
        Ok(None) => Err("server closed before replying".to_string()),
        Err(e) => Err(e.to_string()),
    };
    let t4 = Instant::now();
    let split = Split {
        encode: t1 - t0,
        write: t2 - t1,
        wait: t3 - t2,
        decode: t4 - t3,
        request_bytes: frame.len(),
        reply_bytes,
    };
    (split, reply)
}

/// Parses a reply frame and strips it to the canonical response, as
/// `Client::submit_raw` does.
fn decode(bytes: Vec<u8>, head: &str) -> Result<String, String> {
    let text = String::from_utf8(bytes).map_err(|_| "reply is not UTF-8".to_string())?;
    match wire::parse_reply(&text) {
        Ok(Ok(_)) => text
            .strip_prefix(head)
            .and_then(|rest| rest.strip_suffix('}'))
            .map(str::to_string)
            .ok_or_else(|| "reply frame is not canonical".to_string()),
        Ok(Err(msg)) => Err(format!("server: {msg}")),
        Err(e) => Err(format!("protocol: {e}")),
    }
}

/// Sums over the in-process replay of every 5th request.
#[derive(Default)]
struct Replay {
    replayed: usize,
    server_decode: Duration,
    cache_key: Duration,
    executed: usize,
    /// `Session::submit` time and runs per pool entry.
    per_job: BTreeMap<usize, (Duration, usize)>,
    reply_encode: Duration,
    per_kind: BTreeMap<&'static str, (Duration, usize)>,
    mismatches: u64,
}

/// The traced pass on a fresh server: the same traffic through the
/// split calls, then every 5th request replayed in-process with engine
/// telemetry on. Sets the per-layer metrics and the Chrome trace.
fn traced(
    plan: &Plan,
    tenants: usize,
    untraced: &Pass<Reply>,
    out: &mut RunOutput,
) -> Result<(), String> {
    let n = plan.schedule.len();
    let head = format!("{{\"schema\":\"{}\",\"response\":", wire::SCHEMA);
    let fixture = Fixture::start(plan, tenants)?;
    let pass = (0..tenants)
        .map(|c| connect_raw(fixture.addr, c))
        .collect::<Result<Vec<_>, _>>()
        .map(|mut streams| {
            closed_loop(
                &mut streams,
                n,
                |(stream, tenant), i| split_roundtrip(stream, tenant, plan, i, &head),
                |i, (split, reply)| {
                    let request = &plan.pool[plan.schedule[i].0];
                    (
                        split,
                        Reply::settle(reply, reply_prefix(request), i % REPLAY_STEP == 0),
                    )
                },
            )
        });
    fixture.stop()?;
    let pass = pass?;

    let mut tracer = Tracer::new();
    for s in pass.samples.iter().take(TRACED_REQUESTS) {
        let (split, tid) = (&s.value.0, CLIENT_TID + s.client as u64);
        let mut at = s.start;
        tracer.span("bench.request", tid, at, at + s.latency);
        for (name, d) in [
            ("serve.client_encode", split.encode),
            ("serve.frame_write", split.write),
            ("serve.frame_wait", split.wait),
            ("serve.client_decode", split.decode),
        ] {
            tracer.span(name, tid, at, at + d);
            at += d;
        }
    }

    let mut replay = Replay::default();
    let mut engine = Record::new();
    layers::with_trace_events(|| {
        replay_every(plan, tenants, &pass, &mut replay, &mut engine, &mut tracer)
    })?;
    let traced_digest = harness::digest(pass.samples.iter().map(|s| s.value.1.hash));
    if traced_digest != out.digest {
        replay.mismatches += 1;
    }

    let v = &mut out.values;
    let us = |d: Duration, count: usize| d.as_secs_f64() * 1e6 / count.max(1) as f64;
    let mean_us =
        |f: fn(&Split) -> Duration| run::mean(&pass, |s| f(&s.value.0).as_secs_f64() * 1e6);
    let encode = mean_us(|s: &Split| s.encode);
    let write = mean_us(|s: &Split| s.write);
    let decode = mean_us(|s: &Split| s.decode);
    let server_decode = us(replay.server_decode, replay.replayed);
    let cache_key = us(replay.cache_key, replay.replayed);
    let reply_encode = us(replay.reply_encode, replay.executed);
    let session = session_us_per_request(plan, &replay.per_job);
    let roundtrip_ms = run::mean(&pass, |s| s.latency.as_secs_f64() * 1e3);
    v.set("serve.client_encode_us", encode);
    v.set("serve.frame_write_us", write);
    v.set("serve.frame_wait_ms", mean_us(|s: &Split| s.wait) / 1e3);
    v.set("serve.client_decode_us", decode);
    v.set("serve.server_decode_us", server_decode);
    v.set("serve.cache_key_us", cache_key);
    v.set("serve.reply_encode_us", reply_encode);
    v.set("serve.roundtrip_ms", roundtrip_ms);
    v.set(
        "serve.request_bytes",
        run::mean(&pass, |s| s.value.0.request_bytes as f64),
    );
    v.set(
        "serve.reply_bytes",
        run::mean(&pass, |s| s.value.0.reply_bytes as f64),
    );
    // The engine and reply encoding sit on the path only for misses.
    let miss = 1.0 - v.get("serve.cache_hit_ratio");
    let attributed_us =
        encode + write + decode + server_decode + cache_key + miss * (session + reply_encode);
    v.set("serve.unattributed_ms", roundtrip_ms - attributed_us / 1e3);
    for (metric, (total, count)) in &replay.per_kind {
        v.set(metric, total.as_secs_f64() * 1e3 / *count as f64);
    }
    layers::engine_metrics(&engine, replay.executed, v);
    v.set("trace.overhead_pct", run::overhead_pct(untraced, &pass));

    let refused = pass.samples.iter().filter(|s| !s.value.1.ok).count() as u64;
    out.attempted += n as u64;
    out.failed += refused + replay.mismatches;
    out.mismatches += replay.mismatches;
    out.chrome_trace = Some(tracer.chrome_trace());
    Ok(())
}

/// Mean `Session::submit` time per request of the pass, in µs: each
/// replayed job's mean weighted by how often the pass ran it. The
/// replay's own mix drifts from the pass's, and `signoff`'s jobs span
/// 0.02–60 ms, so an unweighted mean over every 5th request would
/// misstate the engine's share by several percent.
fn session_us_per_request(plan: &Plan, per_job: &BTreeMap<usize, (Duration, usize)>) -> f64 {
    let mut runs = vec![0usize; plan.pool.len()];
    for &(idx, _) in &plan.schedule {
        runs[idx] += 1;
    }
    let (mut total, mut weight) = (0.0, 0);
    for (&idx, &(time, count)) in per_job {
        total += runs[idx] as f64 * time.as_secs_f64() * 1e6 / count as f64;
        weight += runs[idx];
    }
    total / weight.max(1) as f64
}

/// Replays every 5th request in-process: server-side decode, the cache
/// key and, once per distinct job, `Session::submit` with telemetry on
/// and the reply encoding. Each replayed reply must match the served
/// one byte for byte.
fn replay_every(
    plan: &Plan,
    tenants: usize,
    pass: &Pass<(Split, Reply)>,
    replay: &mut Replay,
    engine: &mut Record,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut computed: HashMap<String, String> = HashMap::new();
    for i in (0..pass.samples.len()).step_by(REPLAY_STEP) {
        let (idx, seed) = plan.schedule[i];
        let text = Envelope {
            tenant: tenant(i % tenants),
            priority: PRIORITY,
            seed,
            deadline_ms: None,
            request: plan.pool[idx].clone(),
        }
        .to_json();
        let t0 = Instant::now();
        let envelope =
            Envelope::from_json(&text).map_err(|e| format!("replaying request {i}: {e}"))?;
        let t1 = Instant::now();
        let key = JobKey::of(&envelope.request, envelope.seed);
        let t2 = Instant::now();
        replay.replayed += 1;
        replay.server_decode += t1 - t0;
        replay.cache_key += t2 - t1;
        tracer.span("serve.server_decode", REPLAY_TID, t0, t1);
        tracer.span("serve.cache_key", REPLAY_TID, t1, t2);
        if !computed.contains_key(&key.digest) {
            let mut session = Session::new()
                .with_seed(envelope.seed)
                .with_threads(1)
                .with_telemetry(true);
            let t3 = Instant::now();
            let response = session.submit(&envelope.request);
            let t4 = Instant::now();
            let json = match response {
                Ok(r) => r.to_canonical_json(),
                Err(e) => format!("error: {e}"),
            };
            let t5 = Instant::now();
            replay.executed += 1;
            let slot = replay.per_job.entry(idx).or_default();
            slot.0 += t4 - t3;
            slot.1 += 1;
            replay.reply_encode += t5 - t4;
            if let Some(metric) = session_metric(&envelope.request) {
                let slot = replay.per_kind.entry(metric).or_default();
                slot.0 += t4 - t3;
                slot.1 += 1;
            }
            tracer.span("session.submit", REPLAY_TID, t3, t4);
            tracer.span("serve.reply_encode", REPLAY_TID, t4, t5);
            let mut record = session.take_telemetry();
            tracer.absorb(&mut record);
            engine.merge(record, 0);
            computed.insert(key.digest.clone(), json);
        }
        if pass.samples[i].value.1.kept.as_deref() != computed.get(&key.digest).map(String::as_str)
        {
            replay.mismatches += 1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Sample;

    #[test]
    fn gate_counts_a_corrupted_reply() {
        let plan = Plan::new(
            Workload::Signoff,
            5,
            &Scale::new(Workload::Signoff, 1, true),
        );
        let lint = plan
            .schedule
            .iter()
            .position(|&(idx, _)| matches!(plan.pool[idx], Request::Lint { .. }))
            .expect("signoff lints");
        let one = Plan {
            schedule: vec![plan.schedule[lint]],
            ..plan
        };
        let (idx, seed) = one.schedule[0];
        let good = direct(&one.pool[idx], seed);
        let pass_of = |text: &str| Pass {
            samples: vec![Sample {
                client: 0,
                start: Instant::now(),
                latency: Duration::from_millis(1),
                value: Reply::settle(Ok(text.to_string()), reply_prefix(&one.pool[idx]), true),
            }],
        };
        assert_eq!(gate(&one, &pass_of(&good), GATE_STEP), 0);
        let corrupted = good.replacen("\"errors\":", "\"errors\":1", 1);
        assert_ne!(corrupted, good);
        let bad = pass_of(&corrupted);
        assert!(
            bad.samples[0].value.ok,
            "the corruption keeps the reply's kind"
        );
        assert_eq!(gate(&one, &bad, GATE_STEP), 1);
    }
}
