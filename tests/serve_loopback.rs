//! Loopback integration tests for `openserdes-serve`: responses over
//! the wire are bit-identical to direct `Session::submit`, identical
//! in-flight submissions coalesce, repeats hit the content-addressed
//! cache, overload sheds with a typed `Response::Shed`, and a job that
//! panics inside the engine is isolated without killing its worker.
//!
//! The hardening tests drive the seeded server-plane fault taxonomy
//! from `openserdes-fault` (dropped/truncated/oversized frames,
//! stalled readers, worker panics, deadline storms, connection
//! floods) and assert the `serve.*` robustness counters account for
//! every injected fault, identically at 1/2/4/8 workers.

use openserdes::core::job::{DesignSpec, Request, Response, SweepSpec};
use openserdes::core::LinkConfig;
use openserdes::fault::{server_campaign, ServerFaultKind};
use openserdes::pdk::units::Hertz;
use openserdes::serve::{
    wire, Client, ClientConfig, ClientError, Server, ServerConfig, ServerStats,
};
use openserdes::Session;
use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Binds a loopback server, runs `body` against its address, then
/// stops it and returns the lifetime stats.
fn with_server(config: ServerConfig, body: impl FnOnce(std::net::SocketAddr)) -> ServerStats {
    let server = Server::bind(config).expect("bind loopback server");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    body(addr);
    handle.stop();
    let (stats, record) = serving
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    assert_eq!(
        record.counter("serve.requests"),
        stats.requests,
        "serve.* counters flow through telemetry"
    );
    stats
}

fn quick_bathtub(bits: usize) -> Request {
    Request::Bathtub {
        config: LinkConfig::paper_default(),
        sweep: SweepSpec {
            bits,
            phases: 8,
            frames: 2,
            tol_db: 1.0,
        },
    }
}

#[test]
fn wire_responses_are_bit_identical_to_direct_submit() {
    let stim: Vec<[u32; 8]> = (0..2)
        .map(|i| std::array::from_fn(|k| (i * 8 + k) as u32 ^ 0x0BAD_F00D))
        .collect();
    let jobs = vec![
        (
            11u64,
            Request::RunLink {
                config: LinkConfig::paper_default(),
                frames: stim,
            },
        ),
        (12, quick_bathtub(1_000)),
        (
            13,
            Request::MaxLoss {
                config: LinkConfig::paper_default(),
                sweep: SweepSpec {
                    bits: 800,
                    phases: 4,
                    frames: 2,
                    tol_db: 2.0,
                },
            },
        ),
        (
            14,
            Request::Sta {
                design: DesignSpec::Serializer,
                pvt: openserdes::pdk::corner::Pvt::nominal(),
                clock: Hertz::from_ghz(2.0),
            },
        ),
        (
            15,
            Request::Lint {
                design: DesignSpec::Cdr { oversampling: 5 },
            },
        ),
    ];

    let jobs_for_server = jobs.clone();
    let stats = with_server(ServerConfig::default(), move |addr| {
        let mut client = Client::connect(addr, "bit-identity").expect("connect");
        for (seed, request) in &jobs_for_server {
            let wire_bytes = client.submit_raw(1, *seed, request).expect("served reply");
            let direct_bytes = Session::new()
                .with_seed(*seed)
                .with_threads(1)
                .submit(request)
                .expect("direct submit")
                .to_canonical_json();
            assert_eq!(
                wire_bytes, direct_bytes,
                "seed {seed}: served bytes must equal direct Session::submit"
            );
        }
    });
    assert_eq!(stats.requests, jobs.len() as u64);
    assert_eq!(stats.completed, jobs.len() as u64);
    assert_eq!(stats.errored, 0);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.panics_isolated, 0);
}

#[test]
fn identical_submissions_coalesce_and_then_hit_the_cache() {
    // One worker: an occupying job serializes everything behind it, so
    // two identical submissions arriving while it runs must coalesce
    // into one execution.
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let occupier = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "occupier").expect("connect");
            client
                .submit(1, 77, &quick_bathtub(1_000_000))
                .expect("slow job")
        });
        // Let the occupier reach the worker before the twins arrive.
        std::thread::sleep(Duration::from_millis(200));

        let twins: Vec<_> = (0..2)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr, format!("twin-{i}")).expect("connect");
                    client
                        .submit_raw(1, 99, &quick_bathtub(1_200))
                        .expect("twin job")
                })
            })
            .collect();
        let replies: Vec<String> = twins
            .into_iter()
            .map(|t| t.join().expect("twin thread"))
            .collect();
        assert_eq!(replies[0], replies[1], "coalesced waiters share one result");
        assert!(matches!(
            occupier.join().expect("occupier thread"),
            Response::Bathtub(_)
        ));

        // Same (request, seed) again, after completion: a cache hit
        // with the same bytes.
        let mut client = Client::connect(addr, "replayer").expect("connect");
        let replay = client
            .submit_raw(1, 99, &quick_bathtub(1_200))
            .expect("replay");
        assert_eq!(replay, replies[0], "cache returns byte-identical response");
    });
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.coalesced, 1, "second twin coalesced");
    assert_eq!(stats.cache_hits, 1, "replay served from cache");
    assert_eq!(
        stats.cache_misses, 2,
        "occupier + first twin + nothing else"
    );
    assert_eq!(stats.completed, 2, "only two jobs actually executed");
}

#[test]
fn overload_sheds_with_a_typed_response() {
    // One worker, queue of one: once a slow job is in flight and the
    // queue holds a priority-3 job, a priority-1 arrival is shed
    // immediately, and a priority-9 arrival evicts the queued job —
    // whose waiter gets the typed shed response, not a dead socket.
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let occupier = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "occupier").expect("connect");
            client
                .submit(5, 177, &quick_bathtub(1_000_000))
                .expect("slow job")
        });
        std::thread::sleep(Duration::from_millis(200));

        let queued = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "mid").expect("connect");
            client
                .submit(3, 178, &quick_bathtub(1_200))
                .expect("queued job reply")
        });
        std::thread::sleep(Duration::from_millis(200));

        // Lower priority than anything queued: shed on arrival.
        let mut low = Client::connect(addr, "low").expect("connect");
        match low
            .submit(1, 179, &quick_bathtub(1_300))
            .expect("shed reply")
        {
            Response::Shed(info) => {
                assert_eq!(info.tenant, "low");
                assert_eq!(info.priority, 1);
                assert!(info.queue_depth >= 1);
            }
            other => panic!("expected shed, got {other:?}"),
        }

        // Higher priority: evicts the queued priority-3 job.
        let winner = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "high").expect("connect");
            client
                .submit(9, 180, &quick_bathtub(1_400))
                .expect("high job")
        });
        match queued.join().expect("queued thread") {
            Response::Shed(info) => {
                assert_eq!(info.tenant, "mid");
                assert_eq!(info.priority, 3);
            }
            other => panic!("expected evicted job to be shed, got {other:?}"),
        }
        assert!(matches!(
            winner.join().expect("winner thread"),
            Response::Bathtub(_)
        ));
        assert!(matches!(
            occupier.join().expect("occupier thread"),
            Response::Bathtub(_)
        ));
    });
    assert_eq!(stats.shed, 2, "one shed on arrival, one evicted");
    assert_eq!(stats.completed, 2, "occupier and the priority-9 winner");
    assert_eq!(stats.panics_isolated, 0);
}

#[test]
fn engine_panic_is_isolated_and_the_worker_survives() {
    // cdr.oversampling = 0 passes wire validation (LinkConfig is
    // accepted verbatim) but violates the engine's internal assert —
    // the canonical panic-isolation vector.
    let mut poison = LinkConfig::paper_default();
    poison.cdr.oversampling = 0;
    let poison_request = Request::RunLink {
        config: poison,
        frames: vec![[7u32; 8]],
    };

    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let mut client = Client::connect(addr, "panicker").expect("connect");
        match client.submit(1, 21, &poison_request) {
            Err(ClientError::Server(msg)) => {
                assert!(
                    msg.contains("panicked"),
                    "panic surfaces as a typed error frame, got: {msg}"
                );
            }
            other => panic!("expected server error, got {other:?}"),
        }
        // Same connection, same (sole) worker: still alive and serving.
        let reply = client
            .submit(1, 22, &quick_bathtub(1_000))
            .expect("worker survived the panic");
        assert!(matches!(reply, Response::Bathtub(_)));
    });
    assert_eq!(stats.panics_isolated, 1);
    assert_eq!(stats.errored, 0, "a panic counts as isolated, not errored");
    assert_eq!(stats.completed, 1);
}

#[test]
fn dead_server_times_out_typed_instead_of_hanging() {
    // A socket that accepts and never replies — the regression this
    // hardening PR exists for: the old blocking client hung forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accepting = std::thread::spawn(move || {
        let mut held = Vec::new();
        while let Ok((s, _)) = listener.accept() {
            held.push(s);
        }
    });

    let config = ClientConfig {
        read_timeout_ms: 50,
        retries: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 4,
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, "patient", config).expect("connect");
    let started = std::time::Instant::now();
    match client.submit(1, 1, &quick_bathtub(1_000)) {
        Err(ClientError::Timeout(_)) => {}
        other => panic!("expected typed timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "bounded failure, not a hang"
    );
    let stats = client.retry_stats();
    assert_eq!(stats.attempts, 3, "first try plus the two retries");
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.reconnects, 2, "each retry reconnects fresh");
    // The accept thread dies with the process; nothing to join.
    drop(accepting);
}

#[test]
fn hostile_length_prefix_gets_a_typed_error_and_clean_close() {
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.write_all(&u32::MAX.to_be_bytes())
            .expect("hostile prefix");
        let reply = wire::read_frame_blocking(&mut s)
            .expect("typed reply, not a dropped connection")
            .expect("frame before close");
        let text = String::from_utf8(reply).expect("utf8");
        match wire::parse_reply(&text).expect("reply parses") {
            Err(msg) => {
                assert!(msg.contains("MAX_FRAME"), "typed oversize error: {msg}");
                assert!(
                    msg.contains(&u32::MAX.to_string()),
                    "echoes the announced length: {msg}"
                );
            }
            Ok(other) => panic!("expected an error frame, got {other:?}"),
        }
        assert_eq!(
            wire::read_frame_blocking(&mut s).expect("clean close"),
            None,
            "server closes cleanly after the typed reply"
        );
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.conn_errors, 0);
}

#[test]
fn hostile_nesting_gets_a_typed_error_and_the_connection_survives() {
    // 100 000 `[` is a 100 KB frame, far under MAX_FRAME. A parser that
    // recursed once per level would overflow the connection thread's
    // stack and abort the whole server.
    let stats = with_server(ServerConfig::default(), |addr| {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("bounded read");
        let mut exchange = |payload: &[u8]| {
            wire::write_frame_blocking(&mut s, payload).expect("send frame");
            let reply = wire::read_frame_blocking(&mut s)
                .expect("reply")
                .expect("frame before close");
            wire::parse_reply(&String::from_utf8(reply).expect("utf8")).expect("reply parses")
        };
        match exchange("[".repeat(100_000).as_bytes()) {
            Err(msg) => assert!(msg.contains("nesting deeper"), "typed: {msg}"),
            Ok(other) => panic!("expected an error frame, got {other:?}"),
        }
        let envelope = wire::Envelope {
            tenant: "after-the-storm".into(),
            priority: 1,
            seed: 5,
            deadline_ms: None,
            request: Request::Lint {
                design: DesignSpec::Serializer,
            },
        };
        match exchange(envelope.to_json().as_bytes()) {
            Ok(Response::Lint(_)) => {}
            other => panic!("expected a lint reply on the same connection, got {other:?}"),
        }
    });
    assert_eq!(stats.protocol_errors, 1);
    assert_eq!(stats.conn_errors, 0);
    assert_eq!(stats.completed, 1);
}

#[test]
fn queued_jobs_past_deadline_come_back_typed() {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let occupier = std::thread::spawn(move || {
            let mut client = Client::connect(addr, "occupier").expect("connect");
            client
                .submit(1, 277, &quick_bathtub(1_000_000))
                .expect("slow job")
        });
        std::thread::sleep(Duration::from_millis(200));

        // Queued behind the occupier with a 1 ms deadline: by the time
        // the sole worker frees up, the deadline has long lapsed, so
        // the job is retired typed instead of burning the worker.
        let mut client = Client::connect(addr, "hurried").expect("connect");
        match client
            .submit_with_deadline(2, 278, Some(1), &quick_bathtub(1_500))
            .expect("typed reply")
        {
            Response::DeadlineExceeded(info) => {
                assert_eq!(info.tenant, "hurried");
                assert_eq!(info.deadline_ms, 1);
                assert!(info.queued_ms >= 1);
            }
            other => panic!("expected deadline exceeded, got {other:?}"),
        }

        // A zero deadline short-circuits before queueing at all.
        match client
            .submit_with_deadline(2, 279, Some(0), &quick_bathtub(1_500))
            .expect("typed reply")
        {
            Response::DeadlineExceeded(info) => assert_eq!(info.deadline_ms, 0),
            other => panic!("expected deadline exceeded, got {other:?}"),
        }
        assert!(matches!(
            occupier.join().expect("occupier thread"),
            Response::Bathtub(_)
        ));
    });
    assert_eq!(stats.deadline_expired, 2);
    assert_eq!(stats.completed, 1, "only the occupier actually ran");
}

#[test]
fn idle_keep_alive_between_frames_never_times_out() {
    // The read idle limit arms at a frame's first byte: a client that
    // waits several limits between frames keeps its connection.
    let config = ServerConfig {
        read_idle_ms: 25,
        ..ServerConfig::default()
    };
    let stats = with_server(config, |addr| {
        let request = Request::Lint {
            design: DesignSpec::Serializer,
        };
        let mut client = Client::connect(addr, "keep-alive").expect("connect");
        let first = client.submit_raw(1, 5, &request).expect("first reply");
        std::thread::sleep(Duration::from_millis(100));
        let second = client
            .submit_raw(1, 5, &request)
            .expect("second reply on the same connection");
        assert_eq!(first, second);
        assert_eq!(client.retry_stats().retries, 0, "no retry, no reconnect");
    });
    assert_eq!(stats.requests, 2);
    assert_eq!(
        stats.timeouts, 0,
        "an idle gap between frames is not a stall"
    );
    assert_eq!(stats.conn_errors, 0);
}

#[test]
fn drain_budget_bounds_shutdown_with_an_idle_client_attached() {
    // A client that never disconnects cannot hold `serve()` past the
    // drain budget, and cutting it off bills nothing.
    let server = Server::bind(ServerConfig {
        drain_ms: 100,
        ..ServerConfig::default()
    })
    .expect("bind loopback server");
    let addr = server.local_addr().expect("local addr");
    let handle = server.handle();
    let serving = std::thread::spawn(move || server.serve());
    let mut client = Client::connect(addr, "lingerer").expect("connect");
    let reply = client
        .submit(
            1,
            6,
            &Request::Lint {
                design: DesignSpec::Serializer,
            },
        )
        .expect("reply");
    assert!(matches!(reply, Response::Lint(_)));

    let started = std::time::Instant::now();
    handle.stop();
    let (stats, _) = serving
        .join()
        .expect("server thread")
        .expect("serve returns cleanly");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_millis(100),
        "the drain gives open connections their budget (waited {waited:?})"
    );
    assert!(
        waited < Duration::from_secs(2),
        "the drain budget bounds shutdown (waited {waited:?})"
    );
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(stats.conn_errors, 0);
    drop(client);
}

/// Executes one server-plane fault event against a live server — the
/// loopback driver for the seeded chaos taxonomy. Every arm is bounded
/// (no unbounded reads) so a hang is a test failure, not a deadlock.
fn inject(addr: SocketAddr, kind: ServerFaultKind) {
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
            // Hold the frame half-fed past the server's read idle
            // limit; the server must cut us off, not wait forever.
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
                    .submit_with_deadline(1, 50_000 + i, Some(0), &quick_bathtub(1_000))
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

#[test]
fn chaos_counters_are_deterministic_at_1_2_4_8_workers() {
    // Seven events: the full server-plane taxonomy, seeded. The same
    // plan runs against a fresh server at each worker count; every
    // robustness counter must come out identical, every fault must be
    // accounted to its contracted counter, and a survivor job must
    // still be bit-identical to direct `Session::submit`.
    let plan = server_campaign(0xC4A0_5EED, 7);
    let worker_counts = [1usize, 2, 4, 8];
    let mut all_stats: Vec<ServerStats> = Vec::new();
    for workers in worker_counts {
        let config = ServerConfig {
            workers,
            max_connections: 4,
            read_idle_ms: 25,
            ..ServerConfig::default()
        };
        let plan = plan.clone();
        let stats = with_server(config, move |addr| {
            for event in plan.events() {
                inject(addr, event.kind);
            }
            let mut client = Client::connect(addr, "survivor").expect("connect");
            let wire_bytes = client
                .submit_raw(1, 4242, &quick_bathtub(1_000))
                .expect("survivor job");
            let direct_bytes = Session::new()
                .with_seed(4242)
                .with_threads(1)
                .submit(&quick_bathtub(1_000))
                .expect("direct submit")
                .to_canonical_json();
            assert_eq!(wire_bytes, direct_bytes, "survivor bit-identity");
            // Let async billing of the last connection events settle.
            std::thread::sleep(Duration::from_millis(100));
        });
        all_stats.push(stats);
    }

    let first = all_stats[0];
    for (i, stats) in all_stats.iter().enumerate() {
        assert_eq!(
            *stats, first,
            "counters must not depend on worker count (got a diff at {} workers)",
            worker_counts[i]
        );
    }
    for (counter, hits) in plan.expected_ledger() {
        let got = match counter {
            "serve.conn_errors" => first.conn_errors,
            "serve.protocol_errors" => first.protocol_errors,
            "serve.timeouts" => first.timeouts,
            "serve.panics_isolated" => first.panics_isolated,
            "serve.deadline_expired" => first.deadline_expired,
            "serve.conns_rejected" => first.conns_rejected,
            other => panic!("unknown counter in ledger: {other}"),
        };
        assert_eq!(got, hits, "{counter} accounts exactly its injected faults");
    }
    assert_eq!(first.completed, 1, "the survivor job");
}
