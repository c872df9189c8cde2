//! Literal pins on the fast link path's Monte-Carlo samplers: FNV-1a
//! digests of `oversample_bits_packed` over a grid of lengths,
//! oversampling ratios, phases, jitter sigmas and seeds; of bathtub
//! curves at four attenuations and on channels with negative, NaN and
//! infinite jitter; and of `run_frames` and `run_frames_with_faults`
//! reports under all six fault campaigns. One more test pins the span
//! tree and stage counters both runners record, which the benchmark's
//! per-layer link metrics read.
//!
//! The literals were captured from the straightforward samplers (one
//! Box–Muller draw per edge and per bathtub bit). Any change to either
//! sampler must reproduce them exactly: the link's reported numbers are
//! only as stable as these streams.

use openserdes::core::link::{run_frames, LinkReport};
use openserdes::core::prbs::{PrbsGenerator, PrbsOrder};
use openserdes::core::{
    oversample_bits_packed, run_frames_with_faults, BathtubPoint, BitVec, Frame, LinkConfig, Sweep,
    FRAME_BITS, LANES,
};
use openserdes::fault::{campaign, CampaignKind};
use openserdes::pdk::units::Time;
use openserdes::telemetry;

/// 64-bit FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// The little-endian bytes of a sequence of words.
fn le_bytes(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = u8> {
    words.into_iter().flat_map(u64::to_le_bytes)
}

/// Digest of one oversampled stream: its length, then its words.
fn stream_words(stream: &BitVec) -> Vec<u64> {
    let mut words = vec![stream.len() as u64];
    words.extend_from_slice(stream.words());
    words
}

const SAMPLER_SEEDS: [u64; 3] = [1, 0x0511, 0xDEAD_BEEF_0BAD_F00D];
const SAMPLER_PHASES: [f64; 5] = [0.0, 0.3, -0.3, 1.5, f64::NAN];
const SAMPLER_SIGMAS: [f64; 6] = [0.0, 0.003, 0.2, -0.003, f64::NAN, f64::INFINITY];

/// One digest per `(length, n)`: every phase × sigma × seed stream at
/// that size, in grid order, over a PRBS-31 prefix of `length` bits.
fn sampler_digest(len: usize, n: usize) -> u64 {
    let bits = PrbsGenerator::new(PrbsOrder::Prbs31).take_bitvec(len);
    let mut words = Vec::new();
    for phase in SAMPLER_PHASES {
        for sigma in SAMPLER_SIGMAS {
            for seed in SAMPLER_SEEDS {
                let stream = oversample_bits_packed(&bits, n, phase, sigma, seed);
                assert_eq!(stream.len(), len * n, "n samples per bit");
                words.extend(stream_words(&stream));
            }
        }
    }
    fnv1a(le_bytes(words))
}

#[test]
fn oversampled_streams_match_literals() {
    #[rustfmt::skip]
    let want: [(usize, usize, u64); 15] = [
        (1, 3, 15_076_901_272_638_224_101),
        (1, 5, 13_782_206_052_127_572_837),
        (1, 8, 4_289_549_647_427_616_165),
        (63, 3, 325_905_140_908_833_737),
        (63, 5, 15_203_821_162_719_965_093),
        (63, 8, 9_079_473_585_730_490_576),
        (64, 3, 12_967_078_239_701_623_819),
        (64, 5, 8_647_676_558_608_700_789),
        (64, 8, 10_609_607_551_084_591_652),
        (65, 3, 14_179_099_912_455_180_803),
        (65, 5, 16_743_725_167_581_217_113),
        (65, 8, 10_750_521_968_025_847_956),
        (16_384, 3, 9_426_599_341_726_827_485),
        (16_384, 5, 3_341_704_797_605_920_206),
        (16_384, 8, 5_432_230_569_367_560_923),
    ];
    let got: Vec<(usize, usize, u64)> = want
        .iter()
        .map(|&(len, n, _)| (len, n, sampler_digest(len, n)))
        .collect();
    assert_eq!(got, want);
}

fn curve_digest(curve: &[BathtubPoint]) -> u64 {
    fnv1a(le_bytes(
        curve
            .iter()
            .flat_map(|p| [p.phase_ui.to_bits(), p.ber.to_bits()]),
    ))
}

fn bathtub_at(config: &LinkConfig, phases: usize, seed: u64) -> Vec<BathtubPoint> {
    Sweep::new()
        .with_bits(3_000)
        .with_phases(phases)
        .with_seed(seed)
        .with_threads(1)
        .bathtub(config)
        .expect("bathtub runs")
}

fn link_at(atten_db: f64) -> LinkConfig {
    let mut config = LinkConfig::paper_default();
    config.channel.attenuation_db = atten_db;
    config
}

#[test]
fn bathtub_curves_match_literals() {
    #[rustfmt::skip]
    let want: [(f64, usize, u64); 8] = [
        (20.0, 16, 10_985_551_484_082_831_890),
        (20.0, 5, 6_259_575_369_566_556_606),
        (30.0, 16, 10_985_551_484_082_831_890),
        (30.0, 5, 6_259_575_369_566_556_606),
        (34.0, 16, 10_985_551_484_082_831_890),
        (34.0, 5, 6_259_575_369_566_556_606),
        (38.0, 16, 1_963_278_743_980_979_561),
        (38.0, 5, 18_012_466_044_789_044_232),
    ];
    let got: Vec<(f64, usize, u64)> = want
        .iter()
        .map(|&(db, phases, _)| {
            (
                db,
                phases,
                curve_digest(&bathtub_at(&link_at(db), phases, 7)),
            )
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn bathtub_curves_on_hostile_jitter_match_literals() {
    // Negative, NaN and infinite jitter reach the bathtub unchecked
    // from a `LinkConfig`; the curve they give is pinned as it stands.
    let hostile = [-1.5, f64::NAN, f64::INFINITY];
    let mut got = Vec::new();
    for (k, &ps) in hostile.iter().enumerate() {
        let mut rj = link_at(34.0);
        rj.channel.rj_sigma = Time::from_ps(ps);
        let mut dj = link_at(34.0);
        dj.channel.dj_pp = Time::from_ps(ps);
        for (tag, config) in [("rj", rj), ("dj", dj)] {
            for phases in [16, 5] {
                let digest = curve_digest(&bathtub_at(&config, phases, 11 + k as u64));
                got.push((tag, k, phases, digest));
            }
        }
    }
    #[rustfmt::skip]
    let want = vec![
        ("rj", 0, 16, 10_952_197_066_044_426_498),
        ("rj", 0, 5, 6_259_575_369_566_556_606),
        ("dj", 0, 16, 10_952_197_066_044_426_498),
        ("dj", 0, 5, 6_259_575_369_566_556_606),
        ("rj", 1, 16, 17_946_991_881_008_067_909),
        ("rj", 1, 5, 6_259_575_369_566_556_606),
        ("dj", 1, 16, 17_946_991_881_008_067_909),
        ("dj", 1, 5, 6_259_575_369_566_556_606),
        ("rj", 2, 16, 233_816_392_266_996_860),
        ("rj", 2, 5, 14_624_757_772_519_592_724),
        ("dj", 2, 16, 4_887_174_886_490_502_141),
        ("dj", 2, 5, 12_544_757_305_244_476_284),
    ];
    assert_eq!(got, want);
}

fn prbs_frames(count: usize, seed: u64) -> Vec<Frame> {
    let mut g = PrbsGenerator::new(PrbsOrder::Prbs31);
    // Skip a seed-dependent prefix so each run sees different payloads.
    let _ = g.take_bitvec(seed as usize * 97);
    (0..count)
        .map(|_| {
            let mut f = [0u32; LANES];
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

/// Every field of a report that a seed fixes, then the four stage bit
/// counts the report and the CDR's oversampling `n` fix: bits sent,
/// PHY samples, bits recovered and bits scored.
fn report_words(r: &LinkReport, n: usize) -> [u64; 11] {
    let tx_bits = (r.frames_sent * FRAME_BITS) as u64;
    [
        r.frames_sent as u64,
        r.frames_correct as u64,
        r.bits,
        r.bit_errors,
        u64::from(r.cdr_locked),
        r.cdr_phase_updates,
        r.alignment_lag as u64,
        tx_bits,
        tx_bits * n as u64,
        tx_bits,
        r.bits,
    ]
}

#[test]
fn link_reports_match_literals() {
    #[rustfmt::skip]
    let want: [(f64, f64, u64, u64); 10] = [
        (20.0, 1.5, 1, 3_024_152_248_022_606_303),
        (26.0, 1.5, 2, 17_914_820_822_374_101_427),
        (30.0, 1.5, 3, 4_420_209_999_603_180_389),
        (32.0, 1.5, 4, 14_373_489_405_318_433_581),
        (34.0, 1.5, 5, 3_024_152_248_022_606_303),
        (36.0, 1.5, 6, 11_252_066_194_222_891_671),
        (40.0, 1.5, 7, 15_198_121_905_787_252_554),
        (46.0, 1.5, 8, 17_282_361_218_276_936_427),
        (30.0, 20.0, 9, 14_373_489_405_318_433_581),
        (34.0, 40.0, 10, 1_801_542_236_670_221_800),
    ];
    let got: Vec<(f64, f64, u64, u64)> = want
        .iter()
        .map(|&(db, rj_ps, seed, _)| {
            let mut config = link_at(db);
            config.channel.rj_sigma = Time::from_ps(rj_ps);
            let report = run_frames(&config, &prbs_frames(24, seed), seed).expect("runs");
            let words = report_words(&report, config.cdr.oversampling);
            (db, rj_ps, seed, fnv1a(le_bytes(words)))
        })
        .collect();
    assert_eq!(got, want);
}

#[test]
fn fault_reports_match_literals() {
    let frames = prbs_frames(32, 3);
    let uis = (frames.len() * FRAME_BITS) as u64;
    let mut got = Vec::new();
    for (k, kind) in CampaignKind::ALL.into_iter().enumerate() {
        let schedule = campaign(kind, 40 + k as u64, uis);
        for db in [24.0, 34.0, 40.0] {
            let config = link_at(db);
            let r =
                run_frames_with_faults(&config, &frames, 9 + k as u64, &schedule).expect("runs");
            let mut words = report_words(&r.link, config.cdr.oversampling).to_vec();
            words.extend([
                r.lock_losses,
                r.injected_channel as u64,
                r.injected_clock as u64,
                r.injected_digital as u64,
                r.relock_times_ui.len() as u64,
            ]);
            words.extend(r.relock_times_ui.iter().copied());
            got.push((kind.name(), db, fnv1a(le_bytes(words))));
        }
    }
    let want = vec![
        ("burst_noise", 24.0, 5_606_619_054_724_674_389),
        ("burst_noise", 34.0, 5_606_619_054_724_674_389),
        ("burst_noise", 40.0, 4_853_840_096_069_713_127),
        ("dropouts", 24.0, 11_343_289_491_393_724_327),
        ("dropouts", 34.0, 11_343_289_491_393_724_327),
        ("dropouts", 40.0, 10_106_029_878_150_768_259),
        ("supply_droop", 24.0, 3_022_962_302_894_489_576),
        ("supply_droop", 34.0, 3_022_962_302_894_489_576),
        ("supply_droop", 40.0, 17_580_825_615_416_380_610),
        ("clock_glitches", 24.0, 15_694_131_072_913_233_704),
        ("clock_glitches", 34.0, 15_694_131_072_913_233_704),
        ("clock_glitches", 40.0, 142_017_473_955_466_947),
        ("seu", 24.0, 12_210_801_473_431_661_097),
        ("seu", 34.0, 12_210_801_473_431_661_097),
        ("seu", 40.0, 6_413_509_523_444_118_696),
        ("mixed", 24.0, 12_093_695_462_789_836_247),
        ("mixed", 34.0, 12_093_695_462_789_836_247),
        ("mixed", 40.0, 482_488_151_452_976_780),
    ];
    assert_eq!(got, want);
}

/// Both runners, each under its own root span, hold the four stage
/// spans and record `link.tx_bits` and `link.phy_samples` from the
/// frames they send, at any oversampling. The faulted run injects
/// every kind of fault the mixed campaign schedules.
#[test]
fn both_runners_record_the_stage_spans_and_counts() {
    let frames = prbs_frames(12, 4);
    let uis = (frames.len() * FRAME_BITS) as u64;
    let schedule = campaign(CampaignKind::Mixed, 8, uis);
    telemetry::set_enabled(true);
    for n in [3, 5, 7] {
        let mut config = LinkConfig::paper_default();
        config.cdr.oversampling = n;
        let (plain, plain_rec) = telemetry::collect(|| run_frames(&config, &frames, 2));
        let (faulted, faulted_rec) =
            telemetry::collect(|| run_frames_with_faults(&config, &frames, 2, &schedule));
        let faulted = faulted.expect("runs");
        assert!(
            faulted.injected_channel + faulted.injected_clock > 0,
            "n {n}"
        );
        let runs = [
            ("link.run", plain.expect("runs"), plain_rec),
            ("link.run_faulted", faulted.link, faulted_rec),
        ];
        for (root, report, rec) in runs {
            let span = rec.span(root).expect("the runner's root span");
            for stage in ["link.serialize", "link.phy", "link.cdr", "link.score"] {
                assert_eq!(
                    span.child(stage).map(|s| s.count),
                    Some(1),
                    "{root} holds {stage} at n {n}"
                );
            }
            let tx_bits = (report.frames_sent * FRAME_BITS) as u64;
            assert_eq!(rec.counter("link.tx_bits"), tx_bits, "{root} at n {n}");
            assert_eq!(
                rec.counter("link.phy_samples"),
                tx_bits * n as u64,
                "{root} at n {n}"
            );
            assert_eq!(rec.counter("link.compared_bits"), report.bits);
        }
    }
    telemetry::set_enabled(false);
}
