//! Seeded inputs for each workload. The load generator holds only the
//! distinct requests plus an index schedule, so its memory stays small
//! next to the system it measures. A schedule is a run of rounds, each
//! a fresh shuffle of the same mix of jobs.

use crate::harness::Rng;
use crate::run::Scale;
use openserdes_core::job::{DesignSpec, Request, SweepSpec};
use openserdes_core::{Frame, LinkConfig, PrbsGenerator, PrbsOrder, FRAME_BITS, LANES};
use openserdes_fault::{campaign, CampaignKind};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::units::Hertz;

/// The benchmark's workloads. Names are fixed: results and later
/// changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache hits only: the serve plane with no engine work.
    ServeHot,
    /// Unique link, fault and sweep jobs from two tenants on one worker.
    LinkFarm,
    /// Unique flow, STA and lint jobs from one client on one worker.
    Signoff,
    /// Transistor-level frames through `Session::run_analog_link`.
    AnalogPrbs,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::LinkFarm,
        Workload::Signoff,
        Workload::AnalogPrbs,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::LinkFarm => "link_farm",
            Workload::Signoff => "signoff",
            Workload::AnalogPrbs => "analog_prbs",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests one pass issues at `seconds`. The count is fixed by
    /// `seconds`, never by the clock, so a run's outputs repeat exactly:
    /// each second buys the workload's throughput on the reference host
    /// (2 vCPUs), and a faster build simply finishes sooner.
    pub fn requests(self, seconds: u64) -> usize {
        let per_second = match self {
            Workload::ServeHot => 1_500,
            Workload::LinkFarm => 500,
            Workload::Signoff => 100,
            Workload::AnalogPrbs => 30,
        };
        per_second * seconds as usize
    }

    /// The smallest round that holds the workload's mix exactly: the
    /// 1-in-20 heavy job of `serve_hot`, the 30/30/15/10/15 kind shares
    /// of `link_farm`, the 45 jobs of `signoff`, the 9 operating points
    /// of `analog_prbs`.
    pub fn granule(self) -> usize {
        match self {
            Workload::ServeHot | Workload::LinkFarm => 20,
            Workload::Signoff => 45,
            Workload::AnalogPrbs => 9,
        }
    }
}

/// A served workload's inputs.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The distinct requests.
    pub pool: Vec<Request>,
    /// `(pool index, envelope seed)` per request, in issue order.
    pub schedule: Vec<(usize, u64)>,
    /// Jobs sent once before timing starts.
    pub warm: Vec<(usize, u64)>,
}

/// The distinct jobs of a workload and how often each runs per round.
struct Mix {
    pool: Vec<Request>,
    counts: Vec<usize>,
    /// Whether repeats of a job share one envelope seed (cache hits) or
    /// every request gets its own (cache misses).
    repeat: bool,
}

/// A channel attenuation between 20 and 34 dB.
fn atten(rng: &mut Rng) -> f64 {
    const ATTEN_DB: [f64; 8] = [20.0, 22.0, 24.0, 26.0, 28.0, 30.0, 32.0, 34.0];
    ATTEN_DB[rng.below(ATTEN_DB.len())]
}

fn link_at(atten_db: f64) -> LinkConfig {
    let mut config = LinkConfig::paper_default();
    config.channel.attenuation_db = atten_db;
    config
}

/// Consecutive PRBS frames from `gen`.
fn prbs_frames(gen: &mut PrbsGenerator, count: usize) -> Vec<Frame> {
    (0..count)
        .map(|_| {
            let mut frame = [0u32; LANES];
            for word in &mut frame {
                for b in 0..32 {
                    if gen.next_bit() {
                        *word |= 1 << b;
                    }
                }
            }
            frame
        })
        .collect()
}

/// A PRBS31 generator at a seeded offset.
fn prbs31(rng: &mut Rng) -> PrbsGenerator {
    PrbsGenerator::with_seed(PrbsOrder::Prbs31, (rng.next_u64() as u32) | 1)
}

/// The sweep knobs every served sweep job uses: 2 000 bits over 16
/// phases, 2-frame probes, 1 dB bisection tolerance.
const SWEEP: SweepSpec = SweepSpec {
    bits: 2_000,
    phases: 16,
    frames: 2,
    tol_db: 1.0,
};

/// Splits `n` into counts proportional to `shares`, the remainder going
/// to the first entries.
fn split(n: usize, shares: &[usize]) -> Vec<usize> {
    let total: usize = shares.iter().sum();
    let mut counts: Vec<usize> = shares.iter().map(|s| n * s / total).collect();
    // Each floor drops less than one, so fewer than `shares.len()` remain.
    let left = n - counts.iter().sum::<usize>();
    for c in counts.iter_mut().take(left) {
        *c += 1;
    }
    counts
}

/// Expands per-pool-entry counts into a shuffled index list.
fn shuffled(counts: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(idx, &c)| std::iter::repeat_n(idx, c))
        .collect();
    rng.shuffle(&mut order);
    order
}

impl Plan {
    /// The inputs of a served workload for `seed` at `scale`.
    ///
    /// # Panics
    ///
    /// On [`Workload::AnalogPrbs`], which is not served.
    pub fn new(workload: Workload, seed: u64, scale: &Scale) -> Self {
        let mut rng = Rng::new(seed);
        let mix = match workload {
            Workload::ServeHot => serve_hot(&mut rng, scale.per_round),
            Workload::LinkFarm => link_farm(&mut rng, scale.per_round),
            Workload::Signoff => signoff(scale.per_round),
            Workload::AnalogPrbs => panic!("analog_prbs is not a served workload"),
        };
        let order: Vec<usize> = (0..scale.rounds)
            .flat_map(|_| shuffled(&mix.counts, &mut rng))
            .collect();
        let base = rng.next_u64() >> 2;
        let jobs = mix.pool.len();
        let (schedule, warm) = if mix.repeat {
            let seed_of = |idx: usize| base + idx as u64;
            (
                order.into_iter().map(|idx| (idx, seed_of(idx))).collect(),
                (0..jobs).map(|idx| (idx, seed_of(idx))).collect(),
            )
        } else {
            // Warmup seeds follow the schedule's, so no timed request
            // repeats a job the cache already holds.
            let n = order.len() as u64;
            (
                order.into_iter().zip(base..).collect(),
                (0..jobs).zip(base + n..).collect(),
            )
        };
        Plan {
            pool: mix.pool,
            schedule,
            warm,
        }
    }
}

/// Eight jobs, one envelope seed each, all answered from the cache
/// after warmup. The 23 KB 256-frame link request takes one request in
/// twenty: it usually waits two 500 µs poll ticks where small requests
/// wait one, and a p90 inside that two-humped class would flip between
/// the humps. The seven small jobs share the rest.
fn serve_hot(rng: &mut Rng, per_round: usize) -> Mix {
    let mut prbs = prbs31(rng);
    let campaign_seed = rng.next_u64() >> 1;
    let pool = vec![
        Request::RunLink {
            config: link_at(atten(rng)),
            frames: prbs_frames(&mut prbs, 256),
        },
        Request::Lint {
            design: DesignSpec::Serializer,
        },
        Request::RunLinkWithFaults {
            config: link_at(atten(rng)),
            frames: prbs_frames(&mut prbs, 16),
            schedule: campaign(CampaignKind::Mixed, campaign_seed, 16 * FRAME_BITS as u64),
        },
        Request::Bathtub {
            config: link_at(atten(rng)),
            sweep: SWEEP,
        },
        Request::MaxLoss {
            config: link_at(atten(rng)),
            sweep: SWEEP,
        },
        Request::CornerSweep {
            config: link_at(atten(rng)),
            sweep: SWEEP,
        },
        Request::Sta {
            design: DesignSpec::ScanChain,
            pvt: Pvt::nominal(),
            clock: Hertz::from_ghz(1.0),
        },
        Request::RunFlow {
            design: DesignSpec::ScanChain,
            pvt: Pvt::nominal(),
        },
    ];
    let heavy = per_round / 20;
    let mut counts = vec![heavy];
    counts.extend(split(per_round - heavy, &[1; 7]));
    Mix {
        pool,
        counts,
        repeat: true,
    }
}

/// Link runs, fault campaigns (all six kinds) and sweeps at 20–34 dB.
fn link_farm(rng: &mut Rng, per_round: usize) -> Mix {
    let mut prbs = prbs31(rng);
    let mut pool = Vec::new();
    let mut kinds: Vec<Vec<usize>> = Vec::new();
    let mut add = |pool: &mut Vec<Request>, requests: Vec<Request>| {
        kinds.push((pool.len()..pool.len() + requests.len()).collect());
        pool.extend(requests);
    };
    let links = (0..4)
        .map(|_| Request::RunLink {
            config: link_at(atten(rng)),
            frames: prbs_frames(&mut prbs, 64),
        })
        .collect();
    add(&mut pool, links);
    let faulted = CampaignKind::ALL
        .into_iter()
        .map(|kind| Request::RunLinkWithFaults {
            config: link_at(atten(rng)),
            frames: prbs_frames(&mut prbs, 64),
            schedule: campaign(kind, rng.next_u64() >> 1, 64 * FRAME_BITS as u64),
        })
        .collect();
    add(&mut pool, faulted);
    let bathtubs = (0..2)
        .map(|_| Request::Bathtub {
            config: link_at(atten(rng)),
            sweep: SWEEP,
        })
        .collect();
    add(&mut pool, bathtubs);
    let losses = (0..2)
        .map(|_| Request::MaxLoss {
            config: link_at(atten(rng)),
            sweep: SWEEP,
        })
        .collect();
    add(&mut pool, losses);
    let corners = (0..2)
        .map(|_| Request::CornerSweep {
            config: link_at(atten(rng)),
            sweep: SWEEP,
        })
        .collect();
    add(&mut pool, corners);

    // Per-kind shares: link 30 %, faults 30 %, bathtub 15 %, max-loss
    // 10 %, corner sweep 15 %; variants of a kind take turns.
    let mut counts = vec![0; pool.len()];
    for (kind, count) in kinds.iter().zip(split(per_round, &[30, 30, 15, 10, 15])) {
        for k in 0..count {
            counts[kind[k % kind.len()]] += 1;
        }
    }
    Mix {
        pool,
        counts,
        repeat: false,
    }
}

/// Flow, STA and lint over the five example designs at tt/ss/ff, in
/// equal shares.
fn signoff(per_round: usize) -> Mix {
    let designs = [
        DesignSpec::Serializer,
        DesignSpec::Deserializer,
        DesignSpec::Cdr { oversampling: 5 },
        DesignSpec::ScanChain,
        DesignSpec::DigitalTop { oversampling: 5 },
    ];
    let mut pool = Vec::new();
    for design in designs {
        for pvt in [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()] {
            pool.push(Request::RunFlow { design, pvt });
            pool.push(Request::Sta {
                design,
                pvt,
                clock: Hertz::from_ghz(1.0),
            });
            pool.push(Request::Lint { design });
        }
    }
    let counts = split(per_round, &vec![1; pool.len()]);
    Mix {
        pool,
        counts,
        repeat: false,
    }
}

/// The analog workload's inputs: PRBS31 frames cycling through nine
/// operating points (16/20/24 dB × tt/ss/ff).
#[derive(Debug, Clone)]
pub struct AnalogPlan {
    /// The operating points.
    pub configs: Vec<LinkConfig>,
    /// The frames, in issue order.
    pub frames: Vec<Frame>,
    /// A frame for warming each operating point.
    pub warm_frame: Frame,
    per_round: usize,
}

impl AnalogPlan {
    /// The inputs for `seed` at `scale`.
    pub fn new(seed: u64, scale: &Scale) -> Self {
        let mut rng = Rng::new(seed);
        let mut configs = Vec::new();
        for atten in [16.0, 20.0, 24.0] {
            for pvt in [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()] {
                let mut config = link_at(atten);
                config.pvt = pvt;
                configs.push(config);
            }
        }
        let mut prbs = prbs31(&mut rng);
        let warm_frame = prbs_frames(&mut prbs, 1)[0];
        Self {
            configs,
            frames: prbs_frames(&mut prbs, scale.requests()),
            warm_frame,
            per_round: scale.per_round,
        }
    }

    /// The operating point of frame `i`: the points take turns within
    /// each round, so every round holds the same mix.
    pub fn config_of(&self, i: usize) -> usize {
        (i % self.per_round) % self.configs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scale(per_round: usize) -> Scale {
        Scale {
            rounds: 4,
            per_round,
            setups: 1,
        }
    }

    #[test]
    fn plans_repeat_for_a_seed_and_rounds_share_their_mix() {
        for w in [Workload::ServeHot, Workload::LinkFarm, Workload::Signoff] {
            let a = Plan::new(w, 3, &scale(50));
            let b = Plan::new(w, 3, &scale(50));
            let c = Plan::new(w, 4, &scale(50));
            assert_eq!(a.schedule, b.schedule, "{}", w.name());
            assert_eq!(a.pool, b.pool, "{}", w.name());
            assert_ne!(a.schedule, c.schedule, "{}", w.name());
            assert_eq!(a.schedule.len(), 200);
            let mix = |round: &[(usize, u64)]| {
                let mut counts = vec![0; a.pool.len()];
                for &(idx, _) in round {
                    counts[idx] += 1;
                }
                counts
            };
            let rounds: Vec<_> = a
                .schedule
                .chunks(50)
                .chain(c.schedule.chunks(50))
                .map(mix)
                .collect();
            assert!(
                rounds.windows(2).all(|r| r[0] == r[1]),
                "{}: one mix",
                w.name()
            );
        }
    }

    #[test]
    fn unique_seed_workloads_never_repeat_a_job() {
        for w in [Workload::LinkFarm, Workload::Signoff] {
            let p = Plan::new(w, 9, &scale(75));
            let mut seeds: Vec<u64> = p.schedule.iter().chain(&p.warm).map(|&(_, s)| s).collect();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), 300 + p.pool.len(), "{}", w.name());
        }
        let hot = Plan::new(Workload::ServeHot, 9, &scale(75));
        assert!(
            hot.schedule.iter().all(|job| hot.warm.contains(job)),
            "every hot job is warmed"
        );
    }

    #[test]
    fn analog_rounds_cycle_the_operating_points() {
        let plan = AnalogPlan::new(1, &scale(12));
        assert_eq!(plan.frames.len(), 48);
        let round: Vec<usize> = (0..12).map(|i| plan.config_of(i)).collect();
        assert_eq!(round, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2]);
        assert_eq!(plan.config_of(12), 0);
    }

    #[test]
    fn split_hands_out_every_request() {
        assert_eq!(split(30, &[30, 30, 15, 10, 15]), vec![10, 9, 4, 3, 4]);
        assert_eq!(split(7, &[1; 3]), vec![3, 2, 2]);
    }
}
