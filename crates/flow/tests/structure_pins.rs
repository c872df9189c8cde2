//! Literal pins on the findings of the netlist lint and of static timing
//! over netlists with several clock domains.
//!
//! No signoff design has more than one clock domain and the committed
//! lint reports hold no findings, so the clock-root traces, the fan-in
//! cone walks of `NL006` and `TM007` and the loop check are held here:
//! FNV-1a digests of the full text of `Netlist::lint_with_library`'s
//! findings, and of `StaReport::findings()` with every endpoint's
//! `untimed` flag, over the clock-zoo netlist of the STA unit tests and
//! 64 seeded random netlists.
//!
//! The random netlists hold port clocks, buffered and inverted clock
//! branches, clocks generated off flops, `DffRstN` flops whose reset
//! cone meets their data cone and two-flop synchronizers. A quarter of
//! them also hold a combinational loop, a clock branch driven by an
//! inverter ring, a net with two drivers and a floating net that a gate
//! reads; those fail the structural check, so only the lint reads them
//! and static timing reports the check's error. No cell reads one net
//! on two pins.
//!
//! A property test runs the shared [`Connectivity`] walks on such
//! netlists, some of whose cells also read one net on several pins,
//! against the code they replaced, kept here as oracles: `NL006`'s
//! `HashSet` walk, `TM007`'s net-keyed stamped walk and the per-net
//! driver and fanout tables.

use openserdes_flow::sta::{Sta, StaConfig};
use openserdes_lint::{LintConfig, Rule};
use openserdes_netlist::{CellId, Connectivity, NetId, Netlist};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
use openserdes_pdk::units::{Hertz, Time};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// 64-bit FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Gate functions of the random data cones: one to three inputs.
const GATES: [LogicFn; 9] = [
    LogicFn::Inv,
    LogicFn::Buf,
    LogicFn::Nand2,
    LogicFn::Nor2,
    LogicFn::And2,
    LogicFn::Xor2,
    LogicFn::Mux2,
    LogicFn::Nand3,
    LogicFn::Aoi21,
];

/// `k` distinct nets from `pool`, none of them `except`; with `twice`,
/// any `k` nets from `pool`.
fn distinct(
    rng: &mut StdRng,
    pool: &[NetId],
    k: usize,
    except: Option<NetId>,
    twice: bool,
) -> Vec<NetId> {
    let mut picks = Vec::with_capacity(k);
    while picks.len() < k {
        let net = pool[rng.gen_range(0..pool.len())];
        if twice || (!picks.contains(&net) && Some(net) != except) {
            picks.push(net);
        }
    }
    picks
}

/// The random netlist of `seed`; with `broken`, the structural faults
/// that only the lint reads come first, so the random logic reads them.
/// With `twice`, a cell may read one net on several pins (a flop on its
/// data and clock pins too).
fn random_netlist(seed: u64, broken: bool, twice: bool) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let drive = |rng: &mut StdRng| DriveStrength::ALL[rng.gen_range(0..5usize)];
    let x1 = DriveStrength::X1;
    let mut nl = Netlist::new(format!("random{seed}"));
    let mut clocks: Vec<NetId> = (0..rng.gen_range(1..4usize))
        .map(|i| nl.add_input(format!("clk{i}")))
        .collect();
    for _ in 0..rng.gen_range(0..4usize) {
        let base = clocks[rng.gen_range(0..clocks.len())];
        let function = [LogicFn::Buf, LogicFn::Inv, LogicFn::ClkBuf][rng.gen_range(0..3usize)];
        clocks.push(nl.gate(function, x1, &[base]));
    }
    let rst_n = nl.add_input("rst_n");
    let mut data: Vec<NetId> = (0..3).map(|i| nl.add_input(format!("d{i}"))).collect();
    if broken {
        let fb = nl.add_net("fb");
        let x = nl.gate(LogicFn::Nand2, x1, &[data[0], fb]);
        nl.gate_into(LogicFn::Inv, x1, &[x], fb);
        let ring = nl.add_net("ring");
        let r = nl.gate(LogicFn::Inv, x1, &[ring]);
        nl.gate_into(LogicFn::Inv, x1, &[r], ring);
        clocks.push(nl.gate(LogicFn::Buf, x1, &[r]));
        let float = nl.add_net("float");
        let y = nl.gate(LogicFn::Nor2, x1, &[float, data[1]]);
        nl.gate_into(LogicFn::Inv, x1, &[data[2]], y);
        data.extend([x, y]);
    }
    let mut flops: Vec<NetId> = Vec::new();
    for _ in 0..rng.gen_range(4..48usize) {
        let clk = clocks[rng.gen_range(0..clocks.len())];
        match rng.gen_range(0..10usize) {
            0..=4 => {
                let function = GATES[rng.gen_range(0..GATES.len())];
                let inputs = distinct(&mut rng, &data, function.input_count(), None, twice);
                let d = drive(&mut rng);
                data.push(nl.gate(function, d, &inputs));
            }
            5 | 6 => {
                let d_net = distinct(&mut rng, &data, 1, Some(clk), twice)[0];
                let d = drive(&mut rng);
                let q = nl.dff(d_net, clk, d);
                data.push(q);
                flops.push(q);
            }
            7 => {
                // `x` sits in both the data and the reset cone: behind
                // logic on both sides, or on one side only.
                let xy = distinct(&mut rng, &data, 2, Some(clk), twice);
                let shape = rng.gen_range(0..3usize);
                let d_net = if shape == 2 {
                    nl.gate(LogicFn::Buf, x1, &[xy[0]])
                } else {
                    nl.gate(LogicFn::Nand2, x1, &xy)
                };
                let reset = if shape == 1 {
                    xy[0]
                } else {
                    nl.gate(LogicFn::And2, x1, &[rst_n, xy[0]])
                };
                let q = nl.dff_rstn(d_net, reset, clk, drive(&mut rng));
                data.push(q);
                flops.push(q);
            }
            8 if !flops.is_empty() => {
                let src = flops[rng.gen_range(0..flops.len())];
                if src != clk {
                    let s1 = nl.dff(src, clk, x1);
                    let s2 = nl.dff(s1, clk, x1);
                    data.push(s2);
                    flops.extend([s1, s2]);
                }
            }
            9 if !flops.is_empty() => {
                let q = flops[rng.gen_range(0..flops.len())];
                clocks.push(if rng.gen::<bool>() {
                    nl.gate(LogicFn::Buf, x1, &[q])
                } else {
                    q
                });
            }
            _ => {}
        }
    }
    for k in 0..rng.gen_range(1..4usize) {
        nl.mark_output(format!("y{k}"), data[rng.gen_range(0..data.len())]);
    }
    nl
}

/// Every clock shape at once: two port clocks, a buffered branch of
/// one (skew), a generated clock off a flop, a crossing through a
/// NAND2 and a buffer-only crossing into a two-flop synchronizer. The
/// same netlist as the STA unit tests' clock zoo.
fn clock_zoo() -> Netlist {
    let x1 = DriveStrength::X1;
    let mut nl = Netlist::new("zoo");
    let clka = nl.add_input("clka");
    let clkb = nl.add_input("clkb");
    let d = nl.add_input("d");
    let mut late = clka;
    for _ in 0..3 {
        late = nl.gate(LogicFn::Buf, x1, &[late]);
    }
    let qa = nl.dff(d, clka, x1);
    let qa2 = nl.dff(qa, late, x1);
    let mixed = nl.gate(LogicFn::Nand2, x1, &[qa2, d]);
    let qb = nl.dff(mixed, clkb, x1);
    let buffered = nl.gate(LogicFn::Buf, x1, &[qa]);
    let s1 = nl.dff(buffered, clkb, x1);
    let s2 = nl.dff(s1, clkb, x1);
    let gen = nl.dff(qb, qb, x1);
    let y = nl.gate(LogicFn::Xor2, x1, &[s2, gen]);
    nl.mark_output("y", y);
    nl.mark_output("qa2", qa2);
    nl
}

/// The STA configuration of the pins: 1 GHz, with skew and transition
/// budgets so `TM004` and `TM006` can fire.
fn sta_config() -> StaConfig {
    let mut cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
    cfg.max_skew = Some(Time::from_ps(20.0));
    cfg.max_transition = Some(Time::from_ps(150.0));
    cfg
}

/// The lint's findings and the STA findings with each endpoint's
/// `untimed` flag (or the check's error), as text.
fn findings_text(nl: &Netlist, lib: &Library) -> (String, String) {
    let lint = nl.lint_with_library(lib, &LintConfig::default());
    let sta = match Sta::new().with_config(sta_config()).run(nl, lib, None) {
        Ok(report) => {
            let untimed: Vec<(&str, bool)> = report
                .endpoints
                .iter()
                .map(|e| (e.name.as_str(), e.untimed))
                .collect();
            format!("{:?}\n{untimed:?}", report.findings())
        }
        Err(e) => format!("{e:?}"),
    };
    (format!("{:?}", lint.findings()), sta)
}

#[test]
fn clock_zoo_findings_match_literals() {
    let lib = Library::sky130(Pvt::nominal());
    let (lint, sta) = findings_text(&clock_zoo(), &lib);
    assert_eq!(
        (fnv1a(&lint), fnv1a(&sta)),
        (11_247_669_938_931_035_361, 4_070_637_625_421_954_343)
    );
}

#[test]
fn random_multi_domain_findings_match_literals() {
    let lib = Library::sky130(Pvt::nominal());
    #[rustfmt::skip]
    let want: [(u64, u64); 8] = [
        (4_278_550_899_537_860_495, 9_004_106_776_583_464_175),
        (3_530_589_563_463_625_310, 17_034_881_879_191_754_851),
        (14_637_411_484_323_259_299, 1_681_345_551_885_603_977),
        (16_709_873_293_430_558_654, 8_935_366_590_776_946_639),
        (4_997_128_309_843_035_824, 10_779_300_751_075_955_707),
        (3_465_736_574_852_384_586, 10_128_314_064_881_632_293),
        (12_028_959_861_543_397_573, 16_130_363_278_310_880_239),
        (547_111_098_543_888_860, 7_743_051_784_464_863_070),
    ];
    let mut fired = Vec::new();
    let mut got = Vec::new();
    for group in 0..8u64 {
        let (mut lint, mut sta) = (String::new(), String::new());
        for seed in group * 8..group * 8 + 8 {
            let nl = random_netlist(seed, seed % 4 == 3, false);
            let (l, s) = findings_text(&nl, &lib);
            for rule in Rule::ALL {
                if l.contains(&format!("rule: {rule:?}")) || s.contains(&format!("rule: {rule:?}"))
                {
                    fired.push(rule);
                }
            }
            lint.push_str(&l);
            sta.push_str(&s);
        }
        got.push((fnv1a(&lint), fnv1a(&sta)));
    }
    // The pins see every rule that the shared walks and traces feed.
    for rule in [
        Rule::MultiplyDrivenNet,
        Rule::UndrivenNet,
        Rule::CombinationalLoop,
        Rule::UnsyncClockCrossing,
        Rule::DriveOverload,
        Rule::UnconstrainedEndpoint,
        Rule::ExcessiveClockSkew,
        Rule::UntimedCrossDomainPath,
    ] {
        let n = fired.iter().filter(|&&r| r == rule).count();
        assert!(n >= 2, "{rule:?} fired in {n} netlists");
    }
    assert_eq!(got, want);
}

/// The driver table the analyses read before [`Connectivity`]: the last
/// driver of each net in cell order.
fn driver_table(nl: &Netlist) -> Vec<Option<CellId>> {
    let mut t = vec![None; nl.net_count()];
    for (id, inst) in nl.instances() {
        t[inst.output.index()] = Some(id);
    }
    t
}

/// The fanout table the analyses read before [`Connectivity`]: each
/// net's readers, once per pin, data pins before the clock.
fn fanout_table(nl: &Netlist) -> Vec<Vec<CellId>> {
    let mut t = vec![Vec::new(); nl.net_count()];
    for (id, inst) in nl.instances() {
        for &n in &inst.inputs {
            t[n.index()].push(id);
        }
        if let Some(c) = inst.clock {
            t[c.index()].push(id);
        }
    }
    t
}

/// `NL006`'s walk before the shared one: the fan-in cone of every data
/// pin of a flop, with a `HashSet` of `(net, through-logic)` visits.
fn nl006_oracle(nl: &Netlist, driver: &[Option<CellId>], pins: &[NetId]) -> Vec<(CellId, bool)> {
    let mut sources = Vec::new();
    let mut visited: HashSet<(NetId, bool)> = HashSet::new();
    let mut stack: Vec<(NetId, bool)> = pins.iter().map(|&n| (n, false)).collect();
    while let Some((net, cx)) = stack.pop() {
        if !visited.insert((net, cx)) {
            continue;
        }
        let Some(c) = driver[net.index()] else {
            continue;
        };
        let src = nl.instance(c);
        if src.is_sequential() {
            sources.push((c, cx));
        } else {
            let deeper = cx || src.inputs.len() > 1;
            for &n in &src.inputs {
                stack.push((n, deeper));
            }
        }
    }
    sources
}

/// `TM007`'s walk before the shared one: the fan-in cone of one net,
/// visits keyed on the net alone and stamped, the sources sorted by
/// cell, and whether an undriven net was reached.
fn tm007_oracle(
    nl: &Netlist,
    driver: &[Option<CellId>],
    start: NetId,
    visited: &mut [u32],
    stamp: u32,
) -> (Vec<(CellId, bool)>, bool) {
    let mut stack = vec![(start, false)];
    let mut sources = Vec::new();
    let mut reached_input = false;
    while let Some((net, through_logic)) = stack.pop() {
        if visited[net.index()] == stamp {
            continue;
        }
        visited[net.index()] = stamp;
        match driver[net.index()] {
            Some(c) => {
                let inst = nl.instance(c);
                if inst.is_sequential() {
                    sources.push((c, through_logic));
                } else {
                    let through = through_logic || inst.inputs.len() > 1;
                    for &i in &inst.inputs {
                        stack.push((i, through));
                    }
                }
            }
            None => reached_input = true,
        }
    }
    sources.sort_by_key(|(c, _)| *c);
    (sources, reached_input)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    #[test]
    fn shared_walks_match_the_analyses_they_replaced(
        seed in any::<u64>(),
        broken in any::<bool>(),
        twice in any::<bool>(),
    ) {
        let nl = random_netlist(seed, broken, twice);
        let conn = Connectivity::new(&nl);
        let driver = driver_table(&nl);
        let fanout = fanout_table(&nl);
        for net in nl.net_ids() {
            prop_assert_eq!(conn.driver(net), driver[net.index()]);
            prop_assert_eq!(conn.sinks(net), fanout[net.index()].as_slice());
        }
        let checked = Connectivity::checked(&nl);
        prop_assert_eq!(checked.is_err(), broken, "seed {}", seed);
        let mut marks = vec![0u32; 2 * nl.net_count()];
        let mut d_marks = marks.clone();
        let mut visited = vec![0u32; nl.net_count()];
        for ((id, inst), stamp) in nl.instances().zip(1..) {
            if !inst.is_sequential() {
                continue;
            }
            let walk = conn.fanin_sources(&nl, &inst.inputs, &mut marks, stamp);
            prop_assert_eq!(&walk.0, &nl006_oracle(&nl, &driver, &inst.inputs), "{}", id);
            if !broken {
                let (mut sources, reached_input) =
                    conn.fanin_sources(&nl, &inst.inputs[..1], &mut d_marks, stamp);
                sources.sort_by_key(|(c, _)| *c);
                let want = tm007_oracle(&nl, &driver, inst.inputs[0], &mut visited, stamp);
                prop_assert_eq!((sources, reached_input), want, "{}", id);
            }
        }
        if let Ok((checked_conn, order)) = checked {
            prop_assert!(checked_conn == conn);
            let mut position = vec![usize::MAX; nl.cell_count()];
            for (k, &c) in order.iter().enumerate() {
                prop_assert!(position[c.index()] == usize::MAX, "{} twice", c);
                position[c.index()] = k;
            }
            for (id, inst) in nl.instances() {
                prop_assert_eq!(position[id.index()] != usize::MAX, !inst.is_sequential());
                if inst.is_sequential() {
                    continue;
                }
                for &n in &inst.inputs {
                    if let Some(d) = driver[n.index()].filter(|&d| !nl.instance(d).is_sequential()) {
                        prop_assert!(position[d.index()] < position[id.index()], "{} before {}", d, id);
                    }
                }
            }
        }
    }
}
