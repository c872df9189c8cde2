//! Rule-coverage signoff: every rule in [`Rule::ALL`] must have a
//! triggering fixture, built here from the public API only (what a
//! downstream user of the lint engine can reach). The final assertion
//! fails whenever a rule is added to the catalog without a fixture —
//! the acceptance criterion of the lint PR.

use std::collections::BTreeSet;

use openserdes_analog::{Circuit, Element, Stimulus};
use openserdes_flow::ir::Design;
use openserdes_flow::{Sta, StaConfig};
use openserdes_lint::{LintConfig, LintReport, Rule};
use openserdes_netlist::Netlist;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
use openserdes_pdk::units::{Hertz, Time};

fn rules_of(report: &LintReport) -> BTreeSet<Rule> {
    report.findings().iter().map(|f| f.rule).collect()
}

/// One minimal broken netlist per `NL` rule, as `(rule, netlist)` pairs.
fn nl_fixtures() -> Vec<(Rule, Netlist)> {
    let mut out = Vec::new();

    // NL001: two cells drive the same net.
    let mut nl = Netlist::new("nl001");
    let a = nl.add_input("a");
    let y = nl.add_net("y");
    nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[a], y);
    nl.gate_into(LogicFn::Buf, DriveStrength::X1, &[a], y);
    nl.mark_output("y", y);
    out.push((Rule::MultiplyDrivenNet, nl));

    // NL002: a gate reads a net nothing drives.
    let mut nl = Netlist::new("nl002");
    let float = nl.add_net("float");
    let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[float]);
    nl.mark_output("y", y);
    out.push((Rule::UndrivenNet, nl));

    // NL003: two inverters in a combinational ring.
    let mut nl = Netlist::new("nl003");
    let n = nl.add_net("n");
    let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[n]);
    nl.gate_into(LogicFn::Inv, DriveStrength::X1, &[y], n);
    nl.mark_output("y", y);
    out.push((Rule::CombinationalLoop, nl));

    // NL004: a cell output with no reader and no primary output.
    let mut nl = Netlist::new("nl004");
    let a = nl.add_input("a");
    nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
    out.push((Rule::DanglingOutput, nl));

    // NL005: the first inverter has a reader, but the cone never
    // reaches a primary output — transitively dead.
    let mut nl = Netlist::new("nl005");
    let a = nl.add_input("a");
    let x = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
    nl.gate(LogicFn::Inv, DriveStrength::X1, &[x]);
    out.push((Rule::DeadLogic, nl));

    // NL006: a flop in domain A feeds a flop in domain B through
    // multi-input combinational logic.
    let mut nl = Netlist::new("nl006");
    let clka = nl.add_input("clka");
    let clkb = nl.add_input("clkb");
    let d = nl.add_input("d");
    let other = nl.add_input("other");
    let qa = nl.dff(d, clka, DriveStrength::X1);
    let mixed = nl.gate(LogicFn::And2, DriveStrength::X1, &[qa, other]);
    let qb = nl.dff(mixed, clkb, DriveStrength::X1);
    nl.mark_output("qb", qb);
    out.push((Rule::UnsyncClockCrossing, nl));

    // NL007: an X1 inverter fanning out to 200 sinks (needs the
    // library's max_load table, hence lint_with_library).
    let mut nl = Netlist::new("nl007");
    let a = nl.add_input("a");
    let weak = nl.gate(LogicFn::Inv, DriveStrength::X1, &[a]);
    for i in 0..200 {
        let y = nl.gate(LogicFn::Inv, DriveStrength::X1, &[weak]);
        nl.mark_output(format!("y{i}"), y);
    }
    out.push((Rule::DriveOverload, nl));

    // NL008: a sequential cell whose clock was wiped by a raw edit.
    let mut nl = Netlist::new("nl008");
    let clk = nl.add_input("clk");
    let d = nl.add_input("d");
    let q = nl.dff(d, clk, DriveStrength::X1);
    nl.mark_output("q", q);
    let id = nl.cell_ids().next().expect("one cell");
    nl.instance_mut(id).clock = None;
    out.push((Rule::BadReference, nl));

    out
}

/// One minimal broken design per rule, as `(rule, report)` pairs.
fn fixtures() -> Vec<(Rule, LintReport)> {
    let cfg = LintConfig::default();
    let lib = Library::sky130(Pvt::nominal());
    let mut out: Vec<(Rule, LintReport)> = nl_fixtures()
        .into_iter()
        .map(|(rule, nl)| {
            let report = if rule == Rule::DriveOverload {
                nl.lint_with_library(&lib, &cfg)
            } else {
                nl.lint(&cfg)
            };
            (rule, report)
        })
        .collect();

    let ir_case = |rule: Rule, d: &Design| (rule, d.lint(&cfg));

    // IR001: a register declared but never connected.
    let mut d = Design::new("ir001");
    let q = d.reg();
    d.output("q", q);
    out.push(ir_case(Rule::UnconnectedRegister, &d));

    // IR002: an AND node outside every output cone.
    let mut d = Design::new("ir002");
    let a = d.input("a");
    let b = d.input("b");
    d.and(a, b);
    let y = d.not(a);
    d.output("y", y);
    out.push(ir_case(Rule::DeadNode, &d));

    // IR003: a register that feeds itself never leaves its power-up
    // value.
    let mut d = Design::new("ir003");
    let q = d.reg();
    d.connect_reg(q, q);
    d.output("q", q);
    out.push(ir_case(Rule::ConstantRegister, &d));

    // IR004: input `a` drives nothing.
    let mut d = Design::new("ir004");
    d.input("a");
    let b = d.input("b");
    let y = d.not(b);
    d.output("y", y);
    out.push(ir_case(Rule::UnusedInput, &d));

    // IR005: bus indices 0 and 2 with a hole at 1.
    let mut d = Design::new("ir005");
    let x0 = d.input("x[0]");
    let x2 = d.input("x[2]");
    let y = d.and(x0, x2);
    d.output("y", y);
    out.push(ir_case(Rule::RaggedBus, &d));

    // IR006: the same register carries two multicycle exceptions.
    let mut d = Design::new("ir006");
    let a = d.input("a");
    let q = d.reg();
    d.connect_reg(q, a);
    d.set_multicycle(q, 2);
    d.set_multicycle(q, 4);
    d.output("q", q);
    out.push(ir_case(Rule::DuplicateMulticycle, &d));

    let an_case = |rule: Rule, c: &Circuit| (rule, c.lint("fixture", &cfg));

    // AN001: a node reachable only through a capacitor floats at DC.
    let mut c = Circuit::new();
    let n = c.node("float");
    c.capacitor(n, c.gnd(), 1e-12);
    out.push(an_case(Rule::NoDcPath, &c));

    // AN002: a negative resistor (push_element skips the builder's
    // value asserts — exactly the importer path the DRC covers).
    let mut c = Circuit::new();
    let n = c.node("n");
    c.push_element(Element::Resistor {
        a: n,
        b: c.gnd(),
        ohms: -50.0,
    });
    out.push(an_case(Rule::NonPositiveElement, &c));

    // AN003: a resistor with both terminals on one node.
    let mut c = Circuit::new();
    let n = c.node("n");
    c.resistor(n, c.gnd(), 1e3);
    c.push_element(Element::Resistor {
        a: n,
        b: n,
        ohms: 1e3,
    });
    out.push(an_case(Rule::DegenerateElement, &c));

    // AN004: a declared node nothing touches.
    let mut c = Circuit::new();
    c.node("nc");
    out.push(an_case(Rule::UnusedNode, &c));

    // AN005: two sources fight over one node.
    let mut c = Circuit::new();
    let n = c.node("n");
    c.resistor(n, c.gnd(), 1e3);
    c.vsource(n, Stimulus::Dc(1.0));
    c.vsource(n, Stimulus::Dc(0.5));
    out.push(an_case(Rule::SourceConflict, &c));

    // AN006: a non-finite DC stimulus.
    let mut c = Circuit::new();
    let n = c.node("n");
    c.resistor(n, c.gnd(), 1e3);
    c.vsource(n, Stimulus::Dc(f64::NAN));
    out.push(an_case(Rule::BadStimulus, &c));

    // The TM family comes out of the STA engine: each fixture runs a
    // netlist through `Sta` and bridges the report into the lint
    // pipeline with `StaReport::to_lint`.
    let tm_case = |rule: Rule, nl: &Netlist, sta_cfg: StaConfig| {
        let report = Sta::new()
            .with_config(sta_cfg)
            .run(nl, &lib, None)
            .expect("sta fixture runs");
        (rule, report.to_lint(&cfg))
    };
    /// flop -> N inverters -> flop pipeline.
    fn pipeline(n: usize) -> Netlist {
        let mut nl = Netlist::new("pipe");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q0 = nl.dff(d, clk, DriveStrength::X1);
        let mut s = q0;
        for _ in 0..n {
            s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[s]);
        }
        let q1 = nl.dff(s, clk, DriveStrength::X1);
        nl.mark_output("q", q1);
        nl
    }

    // TM001: 30 inverters cannot close at 5 GHz.
    out.push(tm_case(
        Rule::SetupViolation,
        &pipeline(30),
        StaConfig::at_clock(Hertz::from_ghz(5.0)),
    ));

    // TM002: back-to-back flops with a 300 ps early clock uncertainty.
    let mut sta_cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
    sta_cfg.hold_uncertainty = Time::from_ps(300.0);
    out.push(tm_case(Rule::HoldViolation, &pipeline(0), sta_cfg));

    // TM003: a ripple-style flop clocked by another flop's Q — a
    // generated clock with no declared period.
    let mut nl = Netlist::new("tm003");
    let clk = nl.add_input("clk");
    let d = nl.add_input("d");
    let q0 = nl.dff(d, clk, DriveStrength::X1);
    let q1 = nl.dff(d, q0, DriveStrength::X1);
    nl.mark_output("q", q1);
    out.push(tm_case(
        Rule::UnconstrainedEndpoint,
        &nl,
        StaConfig::at_clock(Hertz::from_ghz(1.0)),
    ));

    // TM004 + TM005: one X1 inverter into 200 flop D pins blows both
    // the transition limit and the driver's max-load characterization.
    let mut nl = Netlist::new("tm004");
    let clk = nl.add_input("clk");
    let d = nl.add_input("d");
    let q = nl.dff(d, clk, DriveStrength::X1);
    let weak = nl.gate(LogicFn::Inv, DriveStrength::X1, &[q]);
    for i in 0..200 {
        let qq = nl.dff(weak, clk, DriveStrength::X1);
        nl.mark_output(format!("o{i}"), qq);
    }
    let mut sta_cfg = StaConfig::at_clock(Hertz::from_mhz(100.0));
    sta_cfg.max_transition = Some(Time::from_ps(100.0));
    out.push(tm_case(Rule::MaxTransitionViolation, &nl, sta_cfg));
    out.push(tm_case(
        Rule::MaxCapViolation,
        &nl,
        StaConfig::at_clock(Hertz::from_mhz(100.0)),
    ));

    // TM006: one flop on the raw clock, one behind eight buffers,
    // against a 10 ps skew budget.
    let mut nl = Netlist::new("tm006");
    let clk = nl.add_input("clk");
    let d = nl.add_input("d");
    let mut late_clk = clk;
    for _ in 0..8 {
        late_clk = nl.gate(LogicFn::Buf, DriveStrength::X1, &[late_clk]);
    }
    let q0 = nl.dff(d, clk, DriveStrength::X1);
    let q1 = nl.dff(q0, late_clk, DriveStrength::X1);
    nl.mark_output("q", q1);
    let mut sta_cfg = StaConfig::at_clock(Hertz::from_mhz(500.0));
    sta_cfg.max_skew = Some(Time::from_ps(10.0));
    out.push(tm_case(Rule::ExcessiveClockSkew, &nl, sta_cfg));

    // TM007: an NL006-style crossing — clka launches, clkb captures.
    let mut nl = Netlist::new("tm007");
    let clka = nl.add_input("clka");
    let clkb = nl.add_input("clkb");
    let d = nl.add_input("d");
    let qa = nl.dff(d, clka, DriveStrength::X1);
    let s = nl.gate(LogicFn::Inv, DriveStrength::X1, &[qa]);
    let qb = nl.dff(s, clkb, DriveStrength::X1);
    nl.mark_output("q", qb);
    out.push(tm_case(
        Rule::UntimedCrossDomainPath,
        &nl,
        StaConfig::at_clock(Hertz::from_ghz(1.0)),
    ));

    // TM008: a multicycle exception naming a combinational cell.
    let nl = pipeline(2);
    let comb = nl
        .instances()
        .find(|(_, i)| !i.is_sequential())
        .map(|(id, _)| id)
        .expect("inverter");
    let mut sta_cfg = StaConfig::at_clock(Hertz::from_ghz(1.0));
    sta_cfg.multicycle = vec![(comb, 2)];
    out.push(tm_case(Rule::InvalidTimingException, &nl, sta_cfg));

    out
}

#[test]
fn every_rule_has_a_triggering_fixture() {
    let cases = fixtures();
    let mut covered = BTreeSet::new();
    for (rule, report) in &cases {
        assert!(
            rules_of(report).contains(rule),
            "fixture for {rule} did not trigger it; report:\n{report}"
        );
        covered.insert(*rule);
    }
    let all: BTreeSet<Rule> = Rule::ALL.into_iter().collect();
    let missing: Vec<&Rule> = all.difference(&covered).collect();
    assert!(
        missing.is_empty(),
        "rules without a triggering fixture: {missing:?}"
    );
}

#[test]
fn fixture_findings_render_and_serialize() {
    for (rule, report) in fixtures() {
        let text = report.to_string();
        assert!(
            text.contains(rule.code()),
            "text rendering must carry the rule ID {rule}"
        );
        let json = report.to_json();
        assert!(
            json.contains(&format!("\"rule\": \"{}\"", rule.code()))
                || json.contains(&format!("\"rule\":\"{}\"", rule.code())),
            "JSON rendering must carry the rule ID {rule}: {json}"
        );
    }
}

/// 64-bit FNV-1a over a string's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Literal pins on the full text of every `NL` fixture's
/// `lint_with_library` findings, and of its STA findings with each
/// endpoint's `untimed` flag, or the structural check's error where the
/// fixture fails it.
#[test]
fn nl_fixture_findings_match_literals() {
    let lib = Library::sky130(Pvt::nominal());
    let got: Vec<(Rule, u64, u64)> = nl_fixtures()
        .iter()
        .map(|(rule, nl)| {
            let lint = nl.lint_with_library(&lib, &LintConfig::default());
            let sta = match Sta::new().run(nl, &lib, None) {
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
            (*rule, fnv1a(&format!("{:?}", lint.findings())), fnv1a(&sta))
        })
        .collect();
    #[rustfmt::skip]
    let want: [(Rule, u64, u64); 8] = [
        (Rule::MultiplyDrivenNet, 8_998_866_451_484_199_627, 1_347_872_122_920_645_161),
        (Rule::UndrivenNet, 3_853_277_385_512_463_329, 13_622_531_564_646_252_147),
        (Rule::CombinationalLoop, 8_022_034_194_050_513_210, 6_163_278_972_363_874_709),
        (Rule::DanglingOutput, 15_079_794_008_306_836_523, 13_983_932_024_395_608_733),
        (Rule::DeadLogic, 17_833_467_727_439_417_251, 13_983_932_024_395_608_733),
        (Rule::UnsyncClockCrossing, 17_408_073_893_643_531_246, 10_117_485_265_546_187_631),
        (Rule::DriveOverload, 13_955_390_184_673_174_513, 16_370_729_358_621_108_625),
        (Rule::BadReference, 11_766_212_033_528_720_548, 2_916_782_773_744_152_554),
    ];
    assert_eq!(got, want);
}
