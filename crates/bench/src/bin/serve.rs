//! Loopback serving benchmark behind `BENCH_serve.json`: a mixed
//! characterization workload (link runs, bathtub sweeps, fault
//! campaigns) pushed through the `openserdes-serve` front door by
//! concurrent clients, measuring sustained request throughput and p99
//! latency while *proving* the serving-layer acceptance properties on
//! every run:
//!
//! * **bit identity** — every served response is byte-identical to a
//!   direct [`Session::submit`] of the same `(Request, seed)`,
//! * **coalescing** — identical in-flight submissions share one
//!   execution (`coalesced > 0`),
//! * **caching** — repeat submissions are answered from the
//!   content-addressed cache (`cache_hits > 0`),
//! * **graceful shedding** — an overload burst against a one-slot queue
//!   sheds with typed `Response::Shed` replies and zero worker panics.
//!
//! With `--chaos`, a deterministic server chaos phase additionally runs
//! the seeded server-plane fault campaign (`openserdes-fault`'s
//! [`server_campaign`]) against fresh servers at 1/2/4/8 workers:
//! dropped and truncated frames, hostile length prefixes, stalled
//! readers, worker panics, deadline storms and connection floods. The
//! phase asserts zero hangs (every driver read is bounded), that every
//! fault is billed to exactly its contracted `serve.*` counter
//! independent of worker count, and that a survivor job afterwards is
//! still bit-identical to direct [`Session::submit`].
//!
//! This container is single-core, so worker counts demonstrate
//! correctness under concurrency, not wall-clock scaling.
//!
//! Run with `cargo run --release -p openserdes-bench --bin serve`;
//! pass `--smoke` for the fast CI variant and `--chaos` for the fault
//! phase.

use openserdes_core::job::{Request, Response, SweepSpec};
use openserdes_core::{LinkConfig, PrbsGenerator, PrbsOrder, Session, FRAME_BITS};
use openserdes_fault::{campaign, server_campaign, CampaignKind, ServerFaultKind, ServerFaultPlan};
use openserdes_serve::{wire, Client, ClientError, Server, ServerConfig, ServerStats};
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Envelope seed base; each workload job salts it by index.
const SEED_BASE: u64 = 400;

fn frames(count: usize) -> Vec<[u32; 8]> {
    let mut g = PrbsGenerator::new(PrbsOrder::Prbs31);
    (0..count)
        .map(|_| {
            let mut f = [0u32; 8];
            for w in f.iter_mut() {
                for b in 0..32 {
                    if g.next_bit() {
                        *w |= 1 << b;
                    }
                }
            }
            f
        })
        .collect()
}

/// The mixed workload: `(label, seed, request)` triples.
fn workload(smoke: bool) -> Vec<(String, u64, Request)> {
    let nframes = if smoke { 4 } else { 16 };
    let bits = if smoke { 1_000 } else { 4_000 };
    let stim = frames(nframes);
    let mut jobs: Vec<(String, Request)> = Vec::new();

    for atten_db in [20.0f64, 28.0, 34.0] {
        let mut config = LinkConfig::paper_default();
        config.channel.attenuation_db = atten_db;
        jobs.push((
            format!("link@{atten_db}dB"),
            Request::RunLink {
                config,
                frames: stim.clone(),
            },
        ));
    }
    for (i, phases) in [8usize, 16].into_iter().enumerate() {
        jobs.push((
            format!("bathtub/{phases}ph"),
            Request::Bathtub {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec {
                    bits: bits / (i + 1),
                    phases,
                    frames: 2,
                    tol_db: 1.0,
                },
            },
        ));
    }
    let uis = stim.len() as u64 * FRAME_BITS as u64;
    for kind in [CampaignKind::Mixed, CampaignKind::BurstNoise] {
        jobs.push((
            format!("faults/{}", kind.name()),
            Request::RunLinkWithFaults {
                config: LinkConfig::paper_default(),
                frames: stim.clone(),
                schedule: campaign(kind, 17, uis),
            },
        ));
    }

    jobs.into_iter()
        .enumerate()
        .map(|(i, (label, request))| (label, SEED_BASE + i as u64, request))
        .collect()
}

/// Runs the throughput matrix: `clients` threads each submit every job
/// `passes` times, checking every reply against the direct-engine
/// bytes. Returns per-request latencies in milliseconds.
fn throughput_matrix(
    addr: SocketAddr,
    jobs: &Arc<Vec<(String, u64, Request)>>,
    expected: &Arc<Vec<String>>,
    clients: usize,
    passes: usize,
) -> Vec<f64> {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let jobs = Arc::clone(jobs);
            let expected = Arc::clone(expected);
            std::thread::spawn(move || -> Vec<f64> {
                let mut client =
                    Client::connect(addr, format!("tenant-{c}")).expect("connect client");
                let mut latencies = Vec::with_capacity(passes * jobs.len());
                for pass in 0..passes {
                    for j in 0..jobs.len() {
                        // Rotate per client so tenants hit different
                        // jobs at the same time.
                        let i = (j + c + pass) % jobs.len();
                        let (label, seed, request) = &jobs[i];
                        let t0 = Instant::now();
                        let raw = client
                            .submit_raw(1, *seed, request)
                            .unwrap_or_else(|e| panic!("{label}: {e}"));
                        latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(
                            raw, expected[i],
                            "{label}: served bytes diverged from direct Session::submit"
                        );
                    }
                }
                latencies
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect()
}

/// Guarantees coalescing: fills every worker with a slow occupier, then
/// submits `twins` identical jobs concurrently — at most one executes.
fn coalesce_phase(addr: SocketAddr, workers: usize, twins: usize, smoke: bool) {
    let occupier_bits = if smoke { 4_000_000 } else { 8_000_000 };
    let occupiers: Vec<_> = (0..workers)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, format!("occupier-{i}")).expect("connect");
                let request = Request::Bathtub {
                    config: LinkConfig::paper_default(),
                    sweep: SweepSpec {
                        bits: occupier_bits + i, // distinct jobs
                        phases: 8,
                        frames: 2,
                        tol_db: 1.0,
                    },
                };
                client
                    .submit(1, 900 + i as u64, &request)
                    .expect("occupier")
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(300));
    let twin_threads: Vec<_> = (0..twins)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, format!("twin-{i}")).expect("connect");
                client
                    .submit_raw(
                        1,
                        901,
                        &Request::Bathtub {
                            config: LinkConfig::paper_default(),
                            sweep: SweepSpec {
                                bits: 1_100,
                                phases: 8,
                                frames: 2,
                                tol_db: 1.0,
                            },
                        },
                    )
                    .expect("twin")
            })
        })
        .collect();
    let replies: Vec<String> = twin_threads
        .into_iter()
        .map(|t| t.join().expect("twin thread"))
        .collect();
    for pair in replies.windows(2) {
        assert_eq!(pair[0], pair[1], "coalesced waiters must share one result");
    }
    for o in occupiers {
        assert!(matches!(o.join().expect("occupier"), Response::Bathtub(_)));
    }
}

/// The overload burst against a one-worker, one-slot server; returns
/// `(burst, typed_sheds, completions, stats)`.
fn shedding_phase(smoke: bool) -> (usize, usize, usize, ServerStats) {
    let server = Server::bind(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("bind shed server");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    let occupier = std::thread::spawn(move || {
        let mut client = Client::connect(addr, "occupier").expect("connect");
        let request = Request::Bathtub {
            config: LinkConfig::paper_default(),
            sweep: SweepSpec {
                bits: if smoke { 4_000_000 } else { 8_000_000 },
                phases: 8,
                frames: 2,
                tol_db: 1.0,
            },
        };
        client.submit(5, 950, &request).expect("occupier")
    });
    std::thread::sleep(Duration::from_millis(300));

    let burst = 6usize;
    let burst_threads: Vec<_> = (0..burst)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr, format!("burst-{i}")).expect("connect");
                let request = Request::Bathtub {
                    config: LinkConfig::paper_default(),
                    sweep: SweepSpec {
                        bits: 1_200 + i, // distinct jobs: no coalescing here
                        phases: 8,
                        frames: 2,
                        tol_db: 1.0,
                    },
                };
                client
                    .submit(1, 951 + i as u64, &request)
                    .expect("burst reply")
            })
        })
        .collect();
    let mut sheds = 0usize;
    let mut completions = 0usize;
    for t in burst_threads {
        match t.join().expect("burst thread") {
            Response::Shed(info) => {
                assert_eq!(info.priority, 1);
                sheds += 1;
            }
            Response::Bathtub(_) => completions += 1,
            other => panic!("unexpected burst reply: {other:?}"),
        }
    }
    assert!(matches!(
        occupier.join().expect("occupier"),
        Response::Bathtub(_)
    ));
    assert!(sheds >= 1, "a 6-deep burst into a 1-slot queue must shed");

    handle.stop();
    let (stats, _) = serving.join().expect("server thread").expect("serve");
    assert_eq!(
        stats.panics_isolated, 0,
        "shedding must never cost a worker panic"
    );
    assert_eq!(
        stats.shed as usize, sheds,
        "typed replies match the counter"
    );
    (burst, sheds, completions, stats)
}

/// Seed of the chaos campaign — fixed so the plan (and therefore the
/// ledger in `BENCH_serve.json`) is identical on every run.
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// Per-event wall budget; anything slower counts as a hang. All driver
/// reads are bounded at 500 ms and sleeps total well under a second,
/// so a healthy server clears each event with a wide margin.
const CHAOS_HANG_BUDGET: Duration = Duration::from_secs(2);

/// The survivor job the chaos phase replays after the campaign.
fn chaos_survivor() -> Request {
    Request::Bathtub {
        config: LinkConfig::paper_default(),
        sweep: SweepSpec {
            bits: 1_000,
            phases: 4,
            frames: 2,
            tol_db: 1.0,
        },
    }
}

/// Executes one server-plane fault event against a live server — the
/// bench twin of the loopback test driver. Every read carries a
/// timeout, so a server that stops answering fails the run instead of
/// hanging it.
fn inject_fault(addr: SocketAddr, kind: ServerFaultKind) {
    match kind {
        ServerFaultKind::DropMidFrame => {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&100u32.to_be_bytes()).expect("prefix");
            s.write_all(&[0x78; 10]).expect("partial payload");
            drop(s);
            std::thread::sleep(Duration::from_millis(30));
        }
        ServerFaultKind::TruncatedFrame { promised } => {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&promised.to_be_bytes()).expect("prefix");
            s.write_all(&vec![0x79; (promised / 2) as usize])
                .expect("half payload");
            drop(s);
            std::thread::sleep(Duration::from_millis(30));
        }
        ServerFaultKind::OversizedPrefix { announced } => {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .expect("bounded read");
            let prefix = announced.min(u64::from(u32::MAX)) as u32;
            s.write_all(&prefix.to_be_bytes()).expect("hostile prefix");
            let reply = wire::read_frame_blocking(&mut s)
                .expect("typed reply")
                .expect("frame before close");
            let text = String::from_utf8(reply).expect("utf8");
            match wire::parse_reply(&text).expect("parses") {
                Err(msg) => assert!(msg.contains("MAX_FRAME"), "typed: {msg}"),
                Ok(other) => panic!("expected error frame, got {other:?}"),
            }
            assert_eq!(wire::read_frame_blocking(&mut s).expect("close"), None);
        }
        ServerFaultKind::StalledReader { hold_ms } => {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&64u32.to_be_bytes()).expect("prefix");
            s.write_all(b"stall").expect("first bytes");
            std::thread::sleep(Duration::from_millis(hold_ms));
            drop(s);
        }
        ServerFaultKind::WorkerPanic => {
            let mut poison = LinkConfig::paper_default();
            poison.cdr.oversampling = 0;
            let request = Request::RunLink {
                config: poison,
                frames: vec![[7u32; 8]],
            };
            let mut client = Client::connect(addr, "chaos-panic").expect("connect");
            match client.submit(1, 31_337, &request) {
                Err(ClientError::Server(msg)) => {
                    assert!(msg.contains("panicked"), "isolated typed: {msg}")
                }
                other => panic!("expected isolated panic, got {other:?}"),
            }
        }
        ServerFaultKind::DeadlineStorm { jobs } => {
            let mut client = Client::connect(addr, "chaos-storm").expect("connect");
            for i in 0..jobs {
                match client
                    .submit_with_deadline(1, 50_000 + i, Some(0), &chaos_survivor())
                    .expect("typed reply")
                {
                    Response::DeadlineExceeded(info) => assert_eq!(info.deadline_ms, 0),
                    other => panic!("expected deadline exceeded, got {other:?}"),
                }
            }
        }
        ServerFaultKind::ConnFlood { conns } => {
            // Let EOFs from earlier events settle first, so the cap is
            // filled by exactly these holders and nothing stale.
            std::thread::sleep(Duration::from_millis(50));
            let holders: Vec<TcpStream> = (0..4)
                .map(|_| TcpStream::connect(addr).expect("holder"))
                .collect();
            std::thread::sleep(Duration::from_millis(50));
            for _ in 0..conns {
                let mut s = TcpStream::connect(addr).expect("flood conn");
                s.set_read_timeout(Some(Duration::from_millis(500)))
                    .expect("bounded read");
                let reply = wire::read_frame_blocking(&mut s)
                    .expect("typed rejection")
                    .expect("frame");
                let text = String::from_utf8(reply).expect("utf8");
                match wire::parse_reply(&text).expect("parses") {
                    Err(msg) => assert!(msg.contains("capacity"), "typed: {msg}"),
                    Ok(other) => panic!("expected typed rejection, got {other:?}"),
                }
            }
            drop(holders);
            std::thread::sleep(Duration::from_millis(30));
        }
    }
}

/// Runs the full campaign against a fresh server at `workers`, then the
/// survivor job. Returns `(stats, survivor_identical, hangs)`.
fn chaos_run(plan: &ServerFaultPlan, workers: usize, expected: &str) -> (ServerStats, bool, usize) {
    let server = Server::bind(ServerConfig {
        workers,
        max_connections: 4,
        read_idle_ms: 25,
        ..ServerConfig::default()
    })
    .expect("bind chaos server");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    let mut hangs = 0usize;
    for event in plan.events() {
        let t0 = Instant::now();
        inject_fault(addr, event.kind);
        if t0.elapsed() > CHAOS_HANG_BUDGET {
            hangs += 1;
        }
    }
    let mut client = Client::connect(addr, "survivor").expect("connect survivor");
    let raw = client
        .submit_raw(1, 4242, &chaos_survivor())
        .expect("survivor job");
    let identical = raw == expected;
    // Let async billing of the last connection events settle.
    std::thread::sleep(Duration::from_millis(100));
    handle.stop();
    let (stats, _) = serving.join().expect("chaos server thread").expect("serve");
    (stats, identical, hangs)
}

/// The chaos phase: the seeded campaign at every worker count, with the
/// full accounting proof. Returns the `"chaos"` JSON section.
fn chaos_phase(smoke: bool) -> String {
    let events = if smoke { 7 } else { 9 };
    let plan = server_campaign(CHAOS_SEED, events);
    let expected = Session::new()
        .with_seed(4242)
        .with_threads(1)
        .submit(&chaos_survivor())
        .expect("direct submit")
        .to_canonical_json();
    let worker_counts = [1usize, 2, 4, 8];

    let mut all_stats: Vec<ServerStats> = Vec::new();
    let mut hangs = 0usize;
    let mut bit_identity = true;
    for workers in worker_counts {
        let (stats, identical, h) = chaos_run(&plan, workers, &expected);
        all_stats.push(stats);
        hangs += h;
        bit_identity &= identical;
    }

    let first = all_stats[0];
    let mut accounted = all_stats.iter().all(|s| *s == first);
    let ledger = plan.expected_ledger();
    for (counter, hits) in &ledger {
        let got = match *counter {
            "serve.conn_errors" => first.conn_errors,
            "serve.protocol_errors" => first.protocol_errors,
            "serve.timeouts" => first.timeouts,
            "serve.panics_isolated" => first.panics_isolated,
            "serve.deadline_expired" => first.deadline_expired,
            "serve.conns_rejected" => first.conns_rejected,
            other => panic!("unknown counter in ledger: {other}"),
        };
        accounted &= got == *hits;
    }
    assert!(
        accounted,
        "every fault billed to its contracted counter, worker-count independent"
    );
    assert_eq!(hangs, 0, "every chaos event must finish inside its budget");
    assert!(
        bit_identity,
        "survivor replies must match direct Session::submit"
    );
    assert_eq!(first.completed, 1, "exactly the survivor job completes");

    let mut by_kind: Vec<(&'static str, u64)> = Vec::new();
    for event in plan.events() {
        match by_kind.iter_mut().find(|(t, _)| *t == event.kind.tag()) {
            Some((_, n)) => *n += 1,
            None => by_kind.push((event.kind.tag(), 1)),
        }
    }
    let faults_injected: u64 = ledger.iter().map(|(_, hits)| hits).sum();
    println!(
        "chaos: {events} seeded faults x {} worker counts -> {faults_injected} counter hits \
         accounted, {hangs} hangs, survivor bit-identical",
        worker_counts.len()
    );

    let fmt_map = |pairs: &[(&'static str, u64)]| {
        pairs
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    format!(
        r#",
  "chaos": {{
    "seed": {seed},
    "events": {events},
    "faults_injected": {faults_injected},
    "worker_counts": [1, 2, 4, 8],
    "hangs": {hangs},
    "accounted": {accounted},
    "bit_identity": {bit_identity},
    "by_kind": {{ {by_kind} }},
    "counters": {{ {counters} }}
  }}"#,
        seed = plan.seed(),
        by_kind = fmt_map(&by_kind),
        counters = fmt_map(&ledger),
    )
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    let idx = ((sorted_ms.len() as f64 * p).ceil() as usize).max(1) - 1;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chaos = std::env::args().any(|a| a == "--chaos");
    let mut passthrough = String::new();
    if smoke {
        passthrough.push_str(" --smoke");
    }
    if chaos {
        passthrough.push_str(" --chaos");
    }
    let smoke_flag = if passthrough.is_empty() {
        String::new()
    } else {
        format!(" --{passthrough}")
    };
    let clients = 4usize;
    let passes = if smoke { 2 } else { 4 };

    let jobs = Arc::new(workload(smoke));
    // Direct-engine reference bytes: the bit-identity oracle.
    let expected: Arc<Vec<String>> = Arc::new(
        jobs.iter()
            .map(|(_, seed, request)| {
                Session::new()
                    .with_seed(*seed)
                    .with_threads(1)
                    .submit(request)
                    .expect("direct submit")
                    .to_canonical_json()
            })
            .collect(),
    );

    let config = ServerConfig::default();
    let workers = config.workers;
    let server = Server::bind(config.clone())?;
    let addr = server.local_addr()?;
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());

    // ---- guaranteed coalescing, then the mixed throughput matrix ----
    let twins = 2usize;
    coalesce_phase(addr, workers, twins, smoke);
    let t0 = Instant::now();
    let mut latencies = throughput_matrix(addr, &jobs, &expected, clients, passes);
    let wall = t0.elapsed().as_secs_f64();
    handle.stop();
    let (stats, record) = serving.join().expect("server thread")?;
    assert_eq!(
        record.counter("serve.requests"),
        stats.requests,
        "serve.* counters must flow through telemetry"
    );
    assert!(stats.coalesced >= 1, "coalescing must be exercised");
    assert!(stats.cache_hits >= 1, "the result cache must be exercised");
    assert_eq!(stats.panics_isolated, 0);
    assert_eq!(stats.errored, 0);
    assert_eq!(stats.shed, 0, "the sized queue must not shed this matrix");

    let matrix_requests = latencies.len();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let req_per_sec = matrix_requests as f64 / wall;
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let max = *latencies.last().expect("non-empty matrix");
    let hit_rate = stats.cache_hits as f64 / stats.requests as f64;

    println!(
        "throughput: {matrix_requests} requests in {wall:.2}s = {req_per_sec:.1} req/s \
         (p50 {p50:.2} ms, p99 {p99:.2} ms, max {max:.2} ms)"
    );
    println!(
        "cache: {} hits / {} misses / {} coalesced over {} requests (hit rate {:.3})",
        stats.cache_hits, stats.cache_misses, stats.coalesced, stats.requests, hit_rate
    );
    println!(
        "bit identity: {} unique jobs x {} replies checked against direct Session::submit",
        jobs.len(),
        matrix_requests
    );

    // ---- overload shedding on a deliberately tiny server ------------
    let (burst, sheds, burst_completions, shed_stats) = shedding_phase(smoke);
    println!(
        "shedding: burst of {burst} into a 1-slot queue -> {sheds} typed sheds, \
         {burst_completions} completions, 0 panics"
    );

    // ---- deterministic server chaos (opt-in via --chaos) ------------
    let chaos_json = if chaos {
        chaos_phase(smoke)
    } else {
        String::new()
    };

    // ---- JSON ------------------------------------------------------
    let links = jobs.iter().filter(|(l, ..)| l.starts_with("link")).count();
    let bathtubs = jobs
        .iter()
        .filter(|(l, ..)| l.starts_with("bathtub"))
        .count();
    let faults = jobs
        .iter()
        .filter(|(l, ..)| l.starts_with("faults"))
        .count();
    let json = format!(
        r#"{{
  "schema": "openserdes-bench-serve/1",
  "command": "cargo run --release -p openserdes-bench --bin serve{smoke_flag}",
  "smoke": {smoke},
  "server": {{
    "workers": {workers},
    "sweep_threads": {sweep_threads},
    "queue_capacity": {queue_capacity},
    "cache_capacity": {cache_capacity},
    "max_connections": {max_connections},
    "read_idle_ms": {read_idle_ms},
    "write_idle_ms": {write_idle_ms},
    "drain_ms": {drain_ms}
  }},
  "workload": {{
    "links": {links},
    "bathtubs": {bathtubs},
    "fault_campaigns": {faults},
    "unique_jobs": {unique},
    "clients": {clients},
    "passes": {passes},
    "matrix_requests": {matrix_requests}
  }},
  "throughput": {{
    "wall_seconds": {wall:.3},
    "requests_per_second": {req_per_sec:.3},
    "p50_ms": {p50:.3},
    "p99_ms": {p99:.3},
    "max_ms": {max:.3}
  }},
  "cache": {{
    "requests": {requests},
    "hits": {hits},
    "misses": {misses},
    "coalesced": {coalesced},
    "hit_rate": {hit_rate:.4}
  }},
  "bit_identity": {{
    "unique_jobs": {unique},
    "replies_checked": {matrix_requests},
    "identical": true
  }},
  "shedding": {{
    "burst": {burst},
    "shed": {sheds},
    "completed": {burst_completions},
    "panics_isolated": {shed_panics}
  }}{chaos_json}
}}
"#,
        sweep_threads = config.sweep_threads,
        queue_capacity = config.queue_capacity,
        cache_capacity = config.cache_capacity,
        max_connections = config.max_connections,
        read_idle_ms = config.read_idle_ms,
        write_idle_ms = config.write_idle_ms,
        drain_ms = config.drain_ms,
        unique = jobs.len(),
        requests = stats.requests,
        hits = stats.cache_hits,
        misses = stats.cache_misses,
        coalesced = stats.coalesced,
        shed_panics = shed_stats.panics_isolated,
    );
    std::fs::write("BENCH_serve.json", json)?;
    println!(
        "\nwrote BENCH_serve.json ({} unique jobs, {} matrix requests)",
        jobs.len(),
        matrix_requests
    );
    Ok(())
}
