//! Exhaustive-path anchor for the timing engine.
//!
//! On random small netlists of flops and 1- to 3-input gates, every
//! launch→capture path is enumerated and its arrival summed stage by
//! stage from the launch point. The worst path per endpoint must equal
//! the engine's propagated arrival bit for bit: rounding is monotone, so
//! taking the max before adding a stage delay gives the same `f64` as
//! adding it to every path and taking the max after. WNS, TNS, the
//! violation count and the endpoint and top-K path order with their
//! slacks then follow and are compared with `to_bits`.
//!
//! The per-cell stage delays come from the engine's delay model, read
//! off the library: the NLDM arc at the worst input slew into the
//! output net's pin-plus-wireload capacitance, plus the wire's Elmore
//! delay, late-derated.

use openserdes_flow::sta::{Sta, StaConfig, StaReport};
use openserdes_netlist::{CellId, Connectivity, NetId, Netlist};
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
use openserdes_pdk::units::{Farad, Hertz, Time};
use openserdes_pdk::wire::WireloadModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Gate functions the generator draws from: one to three inputs.
const GATES: [LogicFn; 11] = [
    LogicFn::Inv,
    LogicFn::Buf,
    LogicFn::Nand2,
    LogicFn::Nor2,
    LogicFn::And2,
    LogicFn::Xor2,
    LogicFn::Nand3,
    LogicFn::Nor3,
    LogicFn::Mux2,
    LogicFn::Aoi21,
    LogicFn::Oai21,
];

/// A random netlist on one primary clock, and a random STA config.
///
/// Primary inputs `a` and `b` and up to five flop Q nets come first;
/// each gate then reads nets created before it (so cell order is a
/// topological order of the gates, and no gate sits on a loop), at
/// random drive strengths, sometimes on the same net twice. Flops take
/// their D from any net, their own Q included, and a third of them get
/// a multicycle exception of 1–4 periods.
fn random_case(seed: u64) -> (Netlist, StaConfig) {
    let mut rng = StdRng::seed_from_u64(seed);
    let drive = |rng: &mut StdRng| DriveStrength::ALL[rng.gen_range(0..5usize)];
    let mut nl = Netlist::new("brute");
    let clk = nl.add_input("clk");
    let mut nets = vec![nl.add_input("a"), nl.add_input("b")];
    let q: Vec<NetId> = (0..rng.gen_range(1..6usize))
        .map(|i| nl.add_net(format!("q{i}")))
        .collect();
    nets.extend(&q);
    for _ in 0..rng.gen_range(0..11usize) {
        let function = GATES[rng.gen_range(0..GATES.len())];
        let inputs: Vec<NetId> = (0..function.input_count())
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        let d = drive(&mut rng);
        nets.push(nl.gate(function, d, &inputs));
    }
    let mut cfg = StaConfig::at_clock(Hertz::from_ghz(rng.gen_range(0.5..6.0)));
    for &qn in &q {
        let d_net = nets[rng.gen_range(0..nets.len())];
        let d = drive(&mut rng);
        let flop = nl.dff_into(d_net, clk, d, qn);
        if rng.gen_range(0..3usize) == 0 {
            cfg.multicycle.push((flop, rng.gen_range(1..5)));
        }
    }
    for k in 0..rng.gen_range(0..3usize) {
        nl.mark_output(format!("y{k}"), nets[rng.gen_range(0..nets.len())]);
    }
    cfg.derate_late = [1.0, 1.07][rng.gen_range(0..2usize)];
    cfg.setup_uncertainty = Time::from_ps([0.0, 25.0][rng.gen_range(0..2usize)]);
    cfg.output_delay = Time::from_ps([0.0, 60.0][rng.gen_range(0..2usize)]);
    cfg.top_paths = rng.gen_range(0..8usize);
    (nl, cfg)
}

/// The late stage delay of every cell: flops launch off the clock edge
/// at the configured clock slew; a gate sees the worst slew among its
/// inputs (primary inputs at the configured input slew).
fn stage_delays(nl: &Netlist, lib: &Library, cfg: &StaConfig) -> Vec<f64> {
    let wireload = WireloadModel::small_block();
    let conn = Connectivity::new(nl);
    let cell = |id: CellId| {
        let inst = nl.instance(id);
        lib.cell(inst.function, inst.drive).expect("library cell")
    };
    // Pin capacitance per sink pin (a clock-only reader loads the net
    // with its clock pin), plus wireload capacitance and Elmore delay.
    let mut load = vec![0.0f64; nl.net_count()];
    let mut wire_delay = vec![0.0f64; nl.net_count()];
    for net in nl.net_ids() {
        let sinks = conn.sinks(net);
        let mut pin_c = 0.0;
        for &s in sinks {
            let inst = nl.instance(s);
            let clock_only = inst.clock == Some(net) && !inst.inputs.contains(&net);
            pin_c += if clock_only {
                cell(s).clock_cap.value()
            } else {
                cell(s).input_cap.value()
            };
        }
        let wire_c = wireload.capacitance(sinks.len()).value();
        let wire_r = wireload.resistance(sinks.len()).value();
        load[net.index()] = pin_c + wire_c;
        wire_delay[net.index()] = wire_r * (0.5 * wire_c + pin_c);
    }
    let mut slew = vec![cfg.input_slew.value(); nl.net_count()];
    let mut stage = vec![0.0f64; nl.cell_count()];
    let mut late = |id: CellId, in_slew: f64, slew: &mut [f64]| {
        let out = nl.instance(id).output.index();
        let arc = cell(id).arc(Time::new(in_slew), Farad::new(load[out]));
        slew[out] = arc.out_slew.value();
        stage[id.index()] = cfg.derate_late * (arc.delay.value() + wire_delay[out]);
    };
    for (id, inst) in nl.instances() {
        if inst.is_sequential() {
            late(id, cfg.clock_slew.value(), &mut slew);
        }
    }
    for (id, inst) in nl.instances() {
        if !inst.is_sequential() {
            let worst = inst
                .inputs
                .iter()
                .fold(cfg.input_slew.value(), |w, i| w.max(slew[i.index()]));
            late(id, worst, &mut slew);
        }
    }
    stage
}

/// The arrival at `net` of every path reaching it, each summed from its
/// launch point: time zero at a primary input, the clock-to-Q stage at
/// a flop.
fn path_arrivals(nl: &Netlist, conn: &Connectivity, stage: &[f64], net: NetId) -> Vec<f64> {
    let Some(c) = conn.driver(net) else {
        return vec![0.0];
    };
    let inst = nl.instance(c);
    if inst.is_sequential() {
        return vec![stage[c.index()]];
    }
    inst.inputs
        .iter()
        .flat_map(|&i| path_arrivals(nl, conn, stage, i))
        .map(|a| a + stage[c.index()])
        .collect()
}

/// One capture point with its worst enumerated path.
struct Capture {
    name: String,
    arrival: f64,
    slack: f64,
}

/// Every endpoint from the enumerated paths, worst slack first (ties in
/// flop order, then port order).
fn brute_force(nl: &Netlist, lib: &Library, cfg: &StaConfig) -> Vec<Capture> {
    let stage = stage_delays(nl, lib, cfg);
    let conn = Connectivity::new(nl);
    let worst = |net: NetId| {
        path_arrivals(nl, &conn, &stage, net)
            .into_iter()
            .fold(0.0f64, f64::max)
    };
    let period = 1.0 / cfg.clock.value();
    let mut captures = Vec::new();
    for (id, inst) in nl.instances() {
        if !inst.is_sequential() {
            continue;
        }
        let setup = lib
            .cell(inst.function, inst.drive)
            .expect("library cell")
            .seq
            .expect("flop")
            .setup
            .value();
        let factor = cfg
            .multicycle
            .iter()
            .find(|(c, _)| *c == id)
            .map_or(1.0, |&(_, f)| f64::from(f));
        // No clock buffers: every flop's insertion delay is zero.
        let required =
            factor * period + cfg.derate_early * 0.0 - setup - cfg.setup_uncertainty.value();
        let arrival = worst(inst.inputs[0]);
        captures.push(Capture {
            name: inst.name.clone(),
            arrival,
            slack: required - arrival,
        });
    }
    for (name, net) in nl.primary_outputs() {
        let arrival = worst(*net);
        captures.push(Capture {
            name: format!("port:{name}"),
            arrival,
            slack: period - cfg.output_delay.value() - arrival,
        });
    }
    captures.sort_by(|a, b| a.slack.partial_cmp(&b.slack).expect("finite slack"));
    captures
}

/// Compares the engine's report with the enumeration.
fn check(report: &StaReport, captures: &[Capture], cfg: &StaConfig) -> Result<(), String> {
    let period = 1.0 / cfg.clock.value();
    let wns = captures.first().map_or(period, |c| c.slack);
    let tns: f64 = captures.iter().map(|c| c.slack.min(0.0)).sum();
    let violations = captures.iter().filter(|c| c.slack < 0.0).count();
    prop_assert_eq!(report.wns.value().to_bits(), wns.to_bits(), "wns");
    prop_assert_eq!(report.tns.value().to_bits(), tns.to_bits(), "tns");
    prop_assert_eq!(report.violations, violations);
    prop_assert_eq!(report.endpoints.len(), captures.len());
    for (ep, c) in report.endpoints.iter().zip(captures) {
        prop_assert!(!ep.untimed, "{} is untimed", ep.name);
        prop_assert_eq!(&ep.name, &c.name);
        prop_assert_eq!(
            ep.arrival.value().to_bits(),
            c.arrival.to_bits(),
            "{}",
            c.name
        );
        prop_assert_eq!(ep.slack.value().to_bits(), c.slack.to_bits(), "{}", c.name);
    }
    let top = cfg.top_paths.min(captures.len());
    prop_assert_eq!(report.paths.len(), top);
    for (path, c) in report.paths.iter().zip(captures) {
        prop_assert_eq!(&path.endpoint, &c.name);
        prop_assert_eq!(
            path.slack.value().to_bits(),
            c.slack.to_bits(),
            "{}",
            c.name
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sta_matches_exhaustive_path_enumeration(
        seed in any::<u64>(),
        corner in prop::sample::select(vec![0usize, 1, 2]),
    ) {
        let (nl, cfg) = random_case(seed);
        let pvt = [Pvt::nominal(), Pvt::worst_case(), Pvt::best_case()][corner];
        let lib = Library::sky130(pvt);
        let report = Sta::new()
            .with_config(cfg.clone())
            .run(&nl, &lib, None)
            .map_err(|e| format!("seed {seed}: {e}"))?;
        let captures = brute_force(&nl, &lib, &cfg);
        check(&report, &captures, &cfg).map_err(|e| format!("seed {seed}: {e}"))?;
    }
}
