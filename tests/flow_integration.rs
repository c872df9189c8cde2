//! Cross-crate integration: the RTL→layout flow on the real SerDes
//! blocks, including gate-level equivalence of the mapped netlists
//! against the behavioural FSMs.

use openserdes::core::{
    cdr_design, deserializer_design, frame_to_bits, serializer_design, Serializer, FRAME_BITS,
};
use openserdes::digital::CycleSim;
use openserdes::flow::{synthesize, Flow, FlowConfig};
use openserdes::pdk::corner::{ProcessCorner, Pvt};
use openserdes::pdk::library::Library;
use openserdes::pdk::units::Hertz;

#[test]
fn serializer_netlist_equals_behavioural_fsm() {
    // Synthesize the serializer RTL and run the *gate-level* netlist
    // cycle by cycle against the behavioural model.
    let library = Library::sky130(Pvt::nominal());
    let design = serializer_design();
    let synth = synthesize(&design, &library).expect("synthesizes");
    let mut sim = CycleSim::new(&synth.netlist).expect("valid netlist");
    sim.reset_flops();
    if let Some(c0) = synth.const0 {
        sim.set_bit(c0, false);
    }
    if let Some(c1) = synth.const1 {
        sim.set_bit(c1, true);
    }
    let name_of = |n: &str| -> openserdes::netlist::NetId {
        let idx = design
            .input_names()
            .iter()
            .position(|x| x == n)
            .unwrap_or_else(|| panic!("no input {n}"));
        synth.inputs[idx]
    };
    let out_net = synth
        .outputs
        .iter()
        .find(|(n, _)| n == "serial_out")
        .expect("out")
        .1;

    let frame = [
        0x0F1E_2D3C_u32,
        0x4B5A_6978,
        0x8796_A5B4,
        0xC3D2_E1F0,
        1,
        2,
        3,
        4,
    ];
    let bits = frame_to_bits(&frame);

    sim.set_bit(name_of("load"), true);
    for (i, &b) in bits.iter().enumerate() {
        sim.set_bit(name_of(&format!("data[{i}]")), b);
    }
    sim.tick();
    sim.set_bit(name_of("load"), false);

    let mut behavioural = Serializer::new();
    behavioural.load(frame);
    for k in 0..FRAME_BITS {
        let expect = behavioural.tick().expect("busy");
        let got = sim.value(out_net).to_bool().expect("driven");
        assert_eq!(got, expect, "bit {k} diverged");
        sim.tick();
    }
}

#[test]
fn all_three_blocks_complete_the_flow() {
    let cfg = {
        let mut c = FlowConfig::at_clock(Hertz::from_ghz(2.0));
        c.anneal_iterations = 2_000;
        c
    };
    let flow = Flow::new().with_config(cfg);
    let ser = flow.run(&serializer_design()).expect("serializer flow");
    let des = flow.run(&deserializer_design()).expect("deserializer flow");
    let cdr = flow.run(&cdr_design(5)).expect("cdr flow");

    // Area ordering of Fig. 11: DES > SER > CDR.
    assert!(des.area().value() > ser.area().value());
    assert!(ser.area().value() > cdr.area().value());

    // Every block produces nonzero power, wirelength and a finite fmax.
    for (name, r) in [("ser", &ser), ("des", &des), ("cdr", &cdr)] {
        assert!(r.total_power().mw() > 0.0, "{name} power");
        assert!(r.route.total_length.value() > 0.0, "{name} wirelength");
        assert!(r.timing.fmax.ghz().is_finite(), "{name} fmax");
        assert!(r.stats.flop_count > 0, "{name} flops");
    }
}

#[test]
fn flow_retargets_across_corners_without_rtl_changes() {
    // The paper's process-portability claim: the identical Design runs
    // at every corner; timing and power move the right way.
    let design = cdr_design(5);
    let run_at = |pvt: Pvt| {
        let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(1.0));
        cfg.pvt = pvt;
        cfg.anneal_iterations = 1_000;
        Flow::new()
            .with_config(cfg)
            .run(&design)
            .expect("flow runs")
    };
    let tt = run_at(Pvt::nominal());
    let ss = run_at(Pvt::new(ProcessCorner::SlowSlow, 1.62, 125.0));
    let ff = run_at(Pvt::new(ProcessCorner::FastFast, 1.98, -40.0));
    assert!(ss.timing.fmax.value() < tt.timing.fmax.value());
    assert!(tt.timing.fmax.value() < ff.timing.fmax.value());
    // Identical netlist structure at every corner (same RTL, same map).
    assert_eq!(ss.stats.cell_count, tt.stats.cell_count);
    assert_eq!(ff.stats.flop_count, tt.stats.flop_count);
}

#[test]
fn serializer_timing_envelope() {
    // The paper claims 2 Gb/s operation; the serial *datapath* (shift
    // register, one mux level) meets that easily, while the bit counter
    // is the flow's critical path. Our deliberately conservative NLDM
    // characterization signs the counter off around 1.3 GHz at tt —
    // within the envelope real sky130 silicon exhibits (official FO4
    // ≈ 90 ps). EXPERIMENTS.md discusses the gap to the paper's claim.
    let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(2.0));
    cfg.anneal_iterations = 4_000;
    let r = Flow::new()
        .with_config(cfg)
        .run(&serializer_design())
        .expect("flow runs");
    assert!(
        r.timing.fmax.ghz() >= 1.1,
        "serializer fmax = {:.2} GHz",
        r.timing.fmax.ghz()
    );
    // The counter (sequential depth through the incrementer) must be the
    // limiter, not the shift-register datapath: the critical path ends
    // at a counter/flag flop, not a bank flop fed by the 1-mux shift.
    assert!(
        r.timing.critical_path.len() > 3,
        "critical path should be the multi-level counter, got {} cells",
        r.timing.critical_path.len()
    );
}

#[test]
fn deserializer_dominates_cell_count() {
    let library = Library::sky130(Pvt::nominal());
    let des = synthesize(&deserializer_design(), &library).expect("ok");
    let ser = synthesize(&serializer_design(), &library).expect("ok");
    let cdr = synthesize(&cdr_design(5), &library).expect("ok");
    assert!(des.netlist.cell_count() > ser.netlist.cell_count());
    assert!(ser.netlist.cell_count() > cdr.netlist.cell_count());
    // The deserializer's decoder makes it a multi-thousand-cell block.
    assert!(des.netlist.cell_count() > 1_000);
}

#[test]
fn whole_chip_top_completes_the_flow() {
    // The composed serdes_top (serializer + CDR + deserializer + scan)
    // through the full flow: one die, one clock, multicycle exceptions
    // carried through composition.
    let mut cfg = FlowConfig::at_clock(Hertz::from_ghz(2.0));
    cfg.anneal_iterations = 2_000;
    let top = openserdes::core::serdes_digital_top(5);
    let flow = Flow::new().with_config(cfg);
    let r = flow.run(&top).expect("top-level flow");
    assert_eq!(r.stats.flop_count, 583);
    assert!(r.stats.cell_count > 2_000);
    // The whole digital chip is bigger than any single block.
    let des = flow.run(&deserializer_design()).expect("des flow");
    assert!(r.area().value() > des.area().value());
    // Hold-clean and with a finite setup envelope.
    assert_eq!(r.timing.hold_violations, 0);
    assert!(r.timing.fmax.ghz() > 0.8);
}

/// FNV-1a over the little-endian bit patterns of `values`: a digest
/// that needs no second implementation to agree with.
fn fnv1a(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in values.into_iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One design's placement and routing, as `f64::to_bits` and counts.
struct LayoutPins {
    design: openserdes::core::job::DesignSpec,
    initial_hpwl: u64,
    final_hpwl: u64,
    accepted: usize,
    /// [`fnv1a`] over every cell's final `x, y`, in cell order.
    positions: u64,
    route_length: u64,
    peak_congestion: u64,
    /// [`fnv1a`] over every routed net's length, in net order.
    net_lengths: u64,
}

#[test]
fn layouts_match_literals_captured_from_the_full_rescan_placer() {
    // Independent anchors for placement and routing, captured before the
    // annealer's cost became incremental and before routing indexed its
    // I/O pins by net, so they hold whatever the bookkeeping looks like.
    use openserdes::core::job::DesignSpec;
    let pins = [
        LayoutPins {
            design: DesignSpec::Serializer,
            initial_hpwl: 0x40f6_d753_a5c6_dde6,
            final_hpwl: 0x40f2_4f6d_451c_145b,
            accepted: 10_290,
            positions: 0x9b2f_31ba_b663_60ea,
            route_length: 0x40f6_5612_082c_4b1b,
            peak_congestion: 0x4032_2cec_13b4_f47c,
            net_lengths: 0x5b28_4454_cceb_15e2,
        },
        LayoutPins {
            design: DesignSpec::Deserializer,
            initial_hpwl: 0x40fa_5e1a_d751_7731,
            final_hpwl: 0x40f5_6e0e_0623_05dd,
            accepted: 9_193,
            positions: 0x4816_00aa_712a_0219,
            route_length: 0x40fb_3000_2dd6_d8ce,
            peak_congestion: 0x4036_18f8_d3d3_9b0a,
            net_lengths: 0x41e0_0b5e_6ca9_1982,
        },
        LayoutPins {
            design: DesignSpec::Cdr { oversampling: 5 },
            initial_hpwl: 0x40cc_2a1b_6cf9_cfda,
            final_hpwl: 0x40c6_9b56_2215_51a1,
            accepted: 8_127,
            positions: 0x9bf6_0949_06b8_6706,
            route_length: 0x40cd_4b1f_4234_d047,
            peak_congestion: 0x4018_a327_0a45_4c87,
            net_lengths: 0xa0a0_017a_5966_6b99,
        },
        LayoutPins {
            design: DesignSpec::ScanChain,
            initial_hpwl: 0x4085_fe4c_a96a_a355,
            final_hpwl: 0x4082_1f42_1ee0_18f3,
            accepted: 10_921,
            positions: 0x3e53_719b_73d9_0eda,
            route_length: 0x4087_446c_962f_6f85,
            peak_congestion: 0x3fef_10ae_7bbe_3c02,
            net_lengths: 0x7624_03b3_1e5f_b2bf,
        },
        LayoutPins {
            design: DesignSpec::DigitalTop { oversampling: 5 },
            initial_hpwl: 0x4113_f949_dc50_e110,
            final_hpwl: 0x4110_4123_4713_a751,
            accepted: 9_258,
            positions: 0xe400_34fe_aae4_387e,
            route_length: 0x4114_501c_72de_60fa,
            peak_congestion: 0x4045_8de7_5a5b_fa1b,
            net_lengths: 0xe2e7_7c7d_0dfd_4a61,
        },
    ];
    let flow = Flow::new().with_config(FlowConfig::default());
    for want in pins {
        let r = flow.run(&want.design.build()).expect("flow runs");
        let tag = want.design.tag();
        let anneal = &r.anneal;
        assert_eq!(anneal.initial_hpwl.to_bits(), want.initial_hpwl, "{tag}");
        assert_eq!(anneal.final_hpwl.to_bits(), want.final_hpwl, "{tag}");
        assert_eq!(anneal.accepted, want.accepted, "{tag}");
        assert_eq!(anneal.attempted, 20_000, "{tag}");
        let positions = r.synth.netlist.cell_ids().flat_map(|cell| {
            let (x, y) = r.placement.position(cell);
            [x, y]
        });
        assert_eq!(fnv1a(positions), want.positions, "{tag} cell positions");
        let route = &r.route;
        assert_eq!(
            route.total_length.value().to_bits(),
            want.route_length,
            "{tag}"
        );
        assert_eq!(
            route.peak_congestion.to_bits(),
            want.peak_congestion,
            "{tag}"
        );
        let lengths = route.iter().map(|net| net.length.value());
        assert_eq!(fnv1a(lengths), want.net_lengths, "{tag} routed lengths");
    }
}
