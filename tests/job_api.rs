//! The serializable job API's contract: canonical encodings round-trip
//! byte-for-byte (proptest over the whole `Request` space), submit
//! matches the typed `Session` methods exactly, and the content address
//! plus response bytes of a `(Request, seed)` pair are invariant under
//! the worker count — the properties `openserdes-serve`'s cache and
//! coalescer assume.

use openserdes::core::job::{DesignSpec, Request, Response, SweepSpec};
use openserdes::core::{JobKey, LinkConfig, Sweep};
use openserdes::fault::{campaign, CampaignKind};
use openserdes::pdk::corner::{ProcessCorner, Pvt};
use openserdes::pdk::units::Hertz;
use openserdes::Session;
use proptest::prelude::*;

fn pvt_options() -> Vec<Pvt> {
    vec![
        Pvt::nominal(),
        Pvt::worst_case(),
        Pvt::best_case(),
        Pvt::new(ProcessCorner::SlowFast, 1.7, 30.0),
        Pvt::new(ProcessCorner::FastSlow, 1.9, 70.0),
    ]
}

#[allow(clippy::too_many_arguments)]
fn build_request(
    kind: usize,
    config: LinkConfig,
    sweep: SweepSpec,
    frames: Vec<[u32; 8]>,
    design: DesignSpec,
    pvt: Pvt,
    fault_seed: u64,
) -> Request {
    match kind {
        0 => Request::RunLink { config, frames },
        1 => Request::RunLinkWithFaults {
            config,
            frames,
            schedule: campaign(CampaignKind::Mixed, fault_seed, 20_000),
        },
        2 => Request::RunFlow { design, pvt },
        3 => Request::Bathtub { config, sweep },
        4 => Request::MaxLoss { config, sweep },
        5 => Request::RateSweep {
            config,
            sweep,
            rates: vec![Hertz::from_ghz(1.0), Hertz::from_ghz(2.5)],
        },
        6 => Request::CornerSweep { config, sweep },
        7 => Request::Sta {
            design,
            pvt,
            clock: Hertz::from_ghz(2.0),
        },
        _ => Request::Lint { design },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonical JSON is a bijection on the request space: parse inverts
    /// encode, re-encoding is byte-identical, and the job key (content
    /// address) is a pure function of `(Request, seed)`.
    #[test]
    fn canonical_encoding_round_trips(
        kind in 0usize..9,
        atten_db in 0.0f64..40.0,
        rate_ghz in prop::sample::select(vec![0.5f64, 1.0, 2.0, 3.3]),
        noise_uv in 0.0f64..2000.0,
        corner in 0usize..5,
        frames in prop::collection::vec(prop::array::uniform8(any::<u32>()), 0..3),
        bits in 100usize..5_000,
        phases in 1usize..33,
        probe_frames in 1usize..9,
        tol_db in prop::sample::select(vec![0.125f64, 0.5, 1.0, 2.0]),
        oversampling in 3usize..9,
        seed in any::<u64>(),
    ) {
        let mut config = LinkConfig::paper_default();
        config.channel.attenuation_db = atten_db;
        config.channel.noise_sigma = openserdes::pdk::units::Volt::new(noise_uv * 1e-6);
        config.data_rate = Hertz::from_ghz(rate_ghz);
        config.pvt = pvt_options()[corner];
        let sweep = SweepSpec { bits, phases, frames: probe_frames, tol_db };
        let design = [
            DesignSpec::Serializer,
            DesignSpec::Deserializer,
            DesignSpec::Cdr { oversampling },
            DesignSpec::ScanChain,
            DesignSpec::DigitalTop { oversampling },
        ][kind % 5];
        let request = build_request(
            kind, config, sweep, frames, design, pvt_options()[(kind + corner) % 5], seed,
        );

        let json = request.to_canonical_json();
        let back = match Request::from_json(&json) {
            Ok(b) => b,
            Err(e) => return Err(format!("parse failed: {e} on {json}")),
        };
        prop_assert_eq!(&back, &request);
        prop_assert_eq!(back.to_canonical_json(), json.clone(), "re-encode must be byte-identical");

        let k1 = JobKey::of(&request, seed);
        let k2 = JobKey::of(&back, seed);
        prop_assert_eq!(&k1.canonical, &k2.canonical);
        prop_assert_eq!(&k1.digest, &k2.digest);
        prop_assert_eq!(k1.digest.len(), 32);
        let other = JobKey::of(&request, seed.wrapping_add(1));
        prop_assert!(other.canonical != k1.canonical, "seed must be part of the address");
    }
}

/// `Session::submit` reproduces the typed methods' results exactly —
/// the wrappers and the job path share one engine.
#[test]
fn submit_reproduces_typed_session_methods() {
    let stim: Vec<[u32; 8]> = (0..3)
        .map(|i| std::array::from_fn(|k| (i * 8 + k) as u32 ^ 0xC0FF_EE00))
        .collect();
    let config = LinkConfig::paper_default();
    let sweep = Sweep::new()
        .with_bits(1_500)
        .with_phases(8)
        .with_frames(4)
        .with_tolerance_db(1.0);
    let spec = SweepSpec::from(&sweep);

    let mut typed = Session::new().with_seed(9).with_sweep(sweep).with_seed(9);
    let mut jobs = Session::new().with_seed(9);

    let link = typed.run_link(&stim).expect("typed link");
    match jobs
        .submit(&Request::RunLink {
            config: config.clone(),
            frames: stim.clone(),
        })
        .expect("job link")
    {
        Response::Link(report) => assert_eq!(report, link),
        other => panic!("wrong response kind: {other:?}"),
    }

    let schedule = campaign(CampaignKind::Mixed, 3, 30_000);
    let faulted = typed
        .run_link_with_faults(&stim, &schedule)
        .expect("typed faults");
    match jobs
        .submit(&Request::RunLinkWithFaults {
            config: config.clone(),
            frames: stim.clone(),
            schedule,
        })
        .expect("job faults")
    {
        Response::Faulted(report) => assert_eq!(report, faulted),
        other => panic!("wrong response kind: {other:?}"),
    }

    let bathtub = typed.bathtub().expect("typed bathtub");
    match jobs
        .submit(&Request::Bathtub {
            config: config.clone(),
            sweep: spec,
        })
        .expect("job bathtub")
    {
        Response::Bathtub(points) => assert_eq!(points, bathtub),
        other => panic!("wrong response kind: {other:?}"),
    }

    let max_loss = typed.max_loss().expect("typed max_loss");
    match jobs
        .submit(&Request::MaxLoss {
            config: config.clone(),
            sweep: spec,
        })
        .expect("job max_loss")
    {
        Response::MaxLoss { max_loss_db } => assert_eq!(max_loss_db, max_loss),
        other => panic!("wrong response kind: {other:?}"),
    }

    let corners = typed.corner_sweep().expect("typed corners");
    match jobs
        .submit(&Request::CornerSweep {
            config,
            sweep: spec,
        })
        .expect("job corners")
    {
        Response::Corners(points) => assert_eq!(points, corners),
        other => panic!("wrong response kind: {other:?}"),
    }

    // Lint: finding counts line up with the typed path.
    let design = DesignSpec::DigitalTop { oversampling: 5 };
    let report = typed.lint(&design.build());
    match jobs.submit(&Request::Lint { design }).expect("job lint") {
        Response::Lint(summary) => {
            assert_eq!(summary.findings.len(), report.findings().len());
        }
        other => panic!("wrong response kind: {other:?}"),
    }
}

/// The serve-layer caching contract: identical `(Request, seed)` pairs
/// produce byte-identical canonical keys *and* byte-identical canonical
/// response payloads at 1/2/4/8 workers. On this single-core bench
/// container the worker counts prove determinism, not speed.
#[test]
fn cache_keys_and_responses_are_worker_count_invariant() {
    let config = LinkConfig::paper_default();
    let sweep = SweepSpec {
        bits: 1_500,
        phases: 8,
        frames: 4,
        tol_db: 1.0,
    };
    let stim: Vec<[u32; 8]> = (0..2)
        .map(|i| std::array::from_fn(|k| (i * 8 + k) as u32 ^ 0x5151_A0A0))
        .collect();
    let requests = [
        Request::RunLink {
            config: config.clone(),
            frames: stim.clone(),
        },
        Request::RunLinkWithFaults {
            config: config.clone(),
            frames: stim,
            schedule: campaign(CampaignKind::Mixed, 5, 25_000),
        },
        Request::Bathtub {
            config: config.clone(),
            sweep,
        },
        Request::MaxLoss {
            config: config.clone(),
            sweep,
        },
        Request::RateSweep {
            config: config.clone(),
            sweep,
            rates: vec![Hertz::from_ghz(1.0), Hertz::from_ghz(2.0)],
        },
        Request::CornerSweep { config, sweep },
        Request::Sta {
            design: DesignSpec::Serializer,
            pvt: Pvt::nominal(),
            clock: Hertz::from_ghz(2.0),
        },
        Request::Lint {
            design: DesignSpec::Cdr { oversampling: 5 },
        },
    ];

    for (i, request) in requests.iter().enumerate() {
        let seed = 40 + i as u64;
        let key_ref = JobKey::of(request, seed);
        let payload_ref = Session::new()
            .with_seed(seed)
            .with_threads(1)
            .submit(request)
            .expect("runs at 1 worker")
            .to_canonical_json();
        for workers in [2usize, 4, 8] {
            let key = JobKey::of(request, seed);
            assert_eq!(key.canonical, key_ref.canonical, "request {i}");
            assert_eq!(key.digest, key_ref.digest, "request {i}");
            let payload = Session::new()
                .with_seed(seed)
                .with_threads(workers)
                .submit(request)
                .expect("runs")
                .to_canonical_json();
            assert_eq!(
                payload, payload_ref,
                "request {i} response diverged at {workers} workers"
            );
        }
    }
}

/// The documented `with_threads(0)` contract: clamps to one worker on
/// both the `Session` and the underlying `Sweep`, and a clamped
/// configuration still runs.
#[test]
fn zero_threads_clamp_regression() {
    assert_eq!(Sweep::new().with_threads(0).threads(), 1);
    assert_eq!(Session::new().with_threads(0).sweep_options().threads(), 1);
    let mut session = Session::new().with_threads(0).with_seed(3);
    let response = session
        .submit(&Request::MaxLoss {
            config: LinkConfig::paper_default(),
            sweep: SweepSpec {
                bits: 500,
                phases: 4,
                frames: 2,
                tol_db: 2.0,
            },
        })
        .expect("clamped session still serves sweeps");
    assert!(matches!(response, Response::MaxLoss { .. }));
}

/// Sweep knobs no sweep can honour are refused at parse time, naming
/// the field: a bisection to a tolerance of zero or below would spin
/// once its bracket reaches adjacent floats, a NaN tolerance would skip
/// the bisection and report 0 dB, and a bathtub needs two bits.
#[test]
fn degenerate_sweep_specs_are_rejected_naming_the_field() {
    let json = Request::MaxLoss {
        config: LinkConfig::paper_default(),
        sweep: SweepSpec {
            bits: 500,
            phases: 4,
            frames: 2,
            tol_db: 1.0,
        },
    }
    .to_canonical_json();
    assert!(Request::from_json(&json).is_ok());
    for (from, to, field) in [
        ("\"tol_db\":1.0", "\"tol_db\":0.0", "tol_db"),
        ("\"tol_db\":1.0", "\"tol_db\":-0.5", "tol_db"),
        ("\"tol_db\":1.0", "\"tol_db\":\"nan\"", "tol_db"),
        ("\"tol_db\":1.0", "\"tol_db\":\"inf\"", "tol_db"),
        ("\"bits\":500", "\"bits\":0", "bits"),
        ("\"bits\":500", "\"bits\":1", "bits"),
        // Counts past the decode limits used to decode and then abort
        // the process on their allocation.
        ("\"bits\":500", "\"bits\":1099511627776", "bits"),
        ("\"phases\":4", "\"phases\":1099511627776", "phases"),
        ("\"frames\":2", "\"frames\":1099511627776", "frames"),
        // The CDR range: 2^32 used to decode and then abort the process
        // on a 32 GiB allocation.
        ("\"oversampling\":5", "\"oversampling\":2", "oversampling"),
        ("\"oversampling\":5", "\"oversampling\":65", "oversampling"),
        (
            "\"oversampling\":5",
            "\"oversampling\":4294967296",
            "oversampling",
        ),
        ("\"window\":32", "\"window\":0", "window"),
    ] {
        let hacked = json.replace(from, to);
        assert_ne!(hacked, json, "the edit must hit {field}");
        let err = Request::from_json(&hacked).expect_err(to);
        assert!(err.to_string().contains(field), "{to}: {err}");
    }
    for (from, at_limit) in [
        ("\"bits\":500", "\"bits\":1048576"),
        ("\"phases\":4", "\"phases\":1024"),
        ("\"frames\":2", "\"frames\":1024"),
        ("\"oversampling\":5", "\"oversampling\":3"),
        ("\"oversampling\":5", "\"oversampling\":64"),
    ] {
        assert!(Request::from_json(&json.replace(from, at_limit)).is_ok());
    }
}

/// A shed reply whose `priority` does not fit the `u8` field is
/// refused, not wrapped: 300 would otherwise decode as 44.
#[test]
fn shed_priority_above_255_is_rejected_not_truncated() {
    let shed = Response::Shed(openserdes::core::job::ShedInfo {
        tenant: "t".to_string(),
        priority: 255,
        queue_depth: 3,
    });
    let json = shed.to_canonical_json();
    assert_eq!(Response::from_json(&json).expect("255 fits"), shed);
    let hacked = json.replace("\"priority\":255", "\"priority\":300");
    assert_ne!(hacked, json, "the edit must hit the priority field");
    let err = Response::from_json(&hacked).expect_err("300 does not fit a u8");
    assert!(
        err.to_string().contains("priority"),
        "names the field: {err}"
    );
}
