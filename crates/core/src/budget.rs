//! Power and area budgets (the paper's Fig. 10 and Fig. 11).
//!
//! The digital blocks (serializer, deserializer, CDR) are pushed through
//! the full RTL→layout flow at the link clock to obtain their power and
//! area; the analog blocks (driver, receiver front end, sampler) come
//! from the PHY estimates. The paper's corresponding numbers at 2 GHz:
//! TX 4.5 mW, RX 11.2 mW, serializer 235 mW, deserializer 128 mW, CDR
//! 59 mW, total 437.7 mW → 219 pJ/bit; area 0.24 mm² with the
//! deserializer at 60 %, the driver at 0.2 % and the RX front end at
//! 1.1 %. Absolute flow numbers differ from the authors' silicon (see
//! EXPERIMENTS.md), but the ordering — SER/DES/CDR dwarfing the link
//! power, the deserializer dominating area — reproduces.

use crate::cdr::{cdr_design, oversample_bits};
use crate::deserializer::deserializer_design;
use crate::error::Error;
use crate::prbs::{PrbsGenerator, PrbsOrder};
use crate::serializer::{serializer_design, FRAME_BITS};
use openserdes_digital::CycleSim;
use openserdes_flow::ir::Design;
use openserdes_flow::{analyze_power, Flow, FlowConfig, FlowResult, PowerConfig};
use openserdes_netlist::NetId;
use openserdes_pdk::corner::Pvt;
use openserdes_pdk::library::Library;
use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
use openserdes_pdk::units::{AreaUm2, Hertz, Joule, Watt};
use openserdes_phy::{DriverConfig, FrontEndConfig, RxFrontEnd, TxDriver};
use std::collections::HashMap;

/// Runs a vector-based power analysis: simulate the mapped netlist with
/// representative stimulus, extract per-net toggle rates, and hand them
/// to the power analyzer (the flow's equivalent of VCD-driven signoff).
fn measured_power(
    design: &Design,
    flow: &FlowResult,
    library: &Library,
    clock: Hertz,
    cycles: usize,
    mut drive: impl FnMut(&mut CycleSim<'_>, usize, &HashMap<&str, NetId>),
) -> Result<Watt, Error> {
    let netlist = &flow.synth.netlist;
    let names: HashMap<&str, NetId> = design
        .input_names()
        .iter()
        .map(String::as_str)
        .zip(flow.synth.inputs.iter().copied())
        .collect();
    let mut sim = CycleSim::new(netlist)?;
    sim.reset_flops();
    if let Some(c0) = flow.synth.const0 {
        sim.set_bit(c0, false);
    }
    if let Some(c1) = flow.synth.const1 {
        sim.set_bit(c1, true);
    }
    sim.settle();
    let mut toggles = vec![0u64; netlist.net_count()];
    let mut prev: Vec<openserdes_digital::Logic> =
        netlist.net_ids().map(|n| sim.value(n)).collect();
    for cycle in 0..cycles {
        drive(&mut sim, cycle, &names);
        sim.tick();
        for (i, n) in netlist.net_ids().enumerate() {
            let v = sim.value(n);
            if v.is_known() && prev[i].is_known() && v != prev[i] {
                toggles[i] += 1;
            }
            prev[i] = v;
        }
    }
    let rates: Vec<f64> = toggles.iter().map(|&t| t as f64 / cycles as f64).collect();
    let pcfg = PowerConfig {
        clock,
        activity: 0.5,
        net_activity: Some(rates),
    };
    let p = analyze_power(netlist, library, Some(&flow.route), &pcfg);
    Ok(p.total() + flow.cts.power)
}

/// One block's contribution to the budget.
#[derive(Debug, Clone)]
pub struct BlockBudget {
    /// Block name.
    pub name: &'static str,
    /// Average power at the budget's data rate.
    pub power: Watt,
    /// Placed area.
    pub area: AreaUm2,
    /// The flow run behind a digital block's numbers (its layout and
    /// timing); `None` for the analog blocks.
    pub flow: Option<FlowResult>,
}

/// The complete link budget at one operating point.
#[derive(Debug, Clone)]
pub struct LinkBudget {
    /// Data rate the budget was computed at.
    pub data_rate: Hertz,
    /// Per-block numbers, in the paper's order: driver, RX front end,
    /// serializer, deserializer, CDR.
    pub blocks: Vec<BlockBudget>,
}

impl LinkBudget {
    /// Computes the budget at a PVT point and data rate by running the
    /// flow on the digital blocks and the PHY estimates on the analog
    /// ones.
    ///
    /// # Errors
    ///
    /// Propagates solver and synthesis failures.
    pub fn compute(pvt: Pvt, data_rate: Hertz) -> Result<Self, Error> {
        let driver = TxDriver::new(DriverConfig::paper_default(), pvt);
        let frontend = RxFrontEnd::new(FrontEndConfig::paper_default(), pvt);
        let library = Library::sky130(pvt);

        // Receiver: static bias + switched capacitance + the sampler flop.
        let fe_static = frontend.static_power()?;
        let vdd = pvt.vdd.value();
        let fe_dynamic = Watt::new(0.5 * 120.0e-15 * vdd * vdd * data_rate.value());
        let dff = library
            .cell(LogicFn::Dff, DriveStrength::X2)
            .expect("library flop");
        let sampler_power = Watt::new(dff.internal_energy_j * 2.0 * data_rate.value())
            + Watt::new(dff.clock_cap.value() * vdd * vdd * data_rate.value());
        let rx_power = fe_static + fe_dynamic + sampler_power;
        let rx_area = AreaUm2::new(frontend.area().value() + dff.area.value());

        // Digital blocks through the flow. Serializer and deserializer
        // shift at the bit rate; the CDR's decision logic runs at the UI
        // rate with the sampling flops at the oversampled rate (folded
        // into its activity factor).
        let mut flow_cfg = FlowConfig::at_clock(data_rate);
        flow_cfg.pvt = pvt;
        flow_cfg.activity = 0.5;
        flow_cfg.anneal_iterations = 5_000;

        let ser_design = serializer_design();
        let des_design = deserializer_design();
        let cdr_design5 = cdr_design(5);
        let flow = Flow::new().with_config(flow_cfg.clone());
        let ser = flow.run(&ser_design)?;
        let des = flow.run(&des_design)?;
        let cdr = flow.run(&cdr_design5)?;

        // Vector-based power: drive each block with PRBS traffic and
        // measure real per-net toggle rates (the shift-register
        // serializer toggles everywhere every bit; the deserializer's
        // decoder nets pulse rarely — the asymmetry behind Fig. 10).
        let cycles = 2 * FRAME_BITS;
        let mut prbs = PrbsGenerator::new(PrbsOrder::Prbs31);
        let mut frame_bits: Vec<bool> = prbs.take_bits(FRAME_BITS);
        let ser_power = measured_power(
            &ser_design,
            &ser,
            &library,
            data_rate,
            cycles,
            |sim, cycle, names| {
                let load = cycle % FRAME_BITS == 0;
                sim.set_bit(names["load"], load);
                if load {
                    frame_bits = prbs.take_bits(FRAME_BITS);
                    for (i, &b) in frame_bits.iter().enumerate() {
                        sim.set_bit(names[format!("data[{i}]").as_str()], b);
                    }
                }
            },
        )?;
        let mut prbs_des = PrbsGenerator::new(PrbsOrder::Prbs31);
        let des_power = measured_power(
            &des_design,
            &des,
            &library,
            data_rate,
            cycles,
            |sim, _, names| {
                sim.set_bit(names["enable"], true);
                sim.set_bit(names["serial_in"], prbs_des.next_bit());
            },
        )?;
        let cdr_bits = PrbsGenerator::new(PrbsOrder::Prbs31).take_bits(cycles);
        let cdr_stream = oversample_bits(&cdr_bits, 5, 0.3, 0.01, 5);
        let cdr_power = measured_power(
            &cdr_design5,
            &cdr,
            &library,
            data_rate,
            cycles,
            |sim, cycle, names| {
                for j in 0..5 {
                    sim.set_bit(
                        names[format!("samples[{j}]").as_str()],
                        cdr_stream[cycle * 5 + j],
                    );
                }
            },
        )?;

        Ok(Self {
            data_rate,
            blocks: vec![
                BlockBudget {
                    name: "tx_driver",
                    power: driver.power(data_rate),
                    area: driver.area(),
                    flow: None,
                },
                BlockBudget {
                    name: "rx_frontend",
                    power: rx_power,
                    area: rx_area,
                    flow: None,
                },
                BlockBudget {
                    name: "serializer",
                    power: ser_power,
                    area: ser.area(),
                    flow: Some(ser),
                },
                BlockBudget {
                    name: "deserializer",
                    power: des_power,
                    area: des.area(),
                    flow: Some(des),
                },
                BlockBudget {
                    name: "cdr",
                    power: cdr_power,
                    area: cdr.area(),
                    flow: Some(cdr),
                },
            ],
        })
    }

    /// The named block.
    ///
    /// # Panics
    ///
    /// Panics if no block has this name.
    pub fn block(&self, name: &str) -> &BlockBudget {
        self.blocks
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no block named {name}"))
    }

    /// Total power across all blocks.
    pub fn total_power(&self) -> Watt {
        self.blocks.iter().map(|b| b.power).sum()
    }

    /// Power of the serial link alone (TX driver + RX front end),
    /// the paper's "15.7 mW" figure.
    pub fn link_power(&self) -> Watt {
        self.block("tx_driver").power + self.block("rx_frontend").power
    }

    /// Energy per transmitted bit (total power / data rate).
    pub fn energy_per_bit(&self) -> Joule {
        Joule::new(self.total_power().value() / self.data_rate.value())
    }

    /// Total area across all blocks.
    pub fn total_area(&self) -> AreaUm2 {
        AreaUm2::new(self.blocks.iter().map(|b| b.area.value()).sum())
    }

    /// A block's share of the total area, in percent.
    pub fn area_share_percent(&self, name: &str) -> f64 {
        100.0 * self.block(name).area.value() / self.total_area().value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> LinkBudget {
        LinkBudget::compute(Pvt::nominal(), Hertz::from_ghz(2.0)).expect("computes")
    }

    #[test]
    fn serdes_blocks_dwarf_link_power() {
        // Fig. 10's headline shape: SER+DES+CDR ≫ TX+RX.
        let b = budget();
        let serdes_power =
            b.block("serializer").power + b.block("deserializer").power + b.block("cdr").power;
        assert!(
            serdes_power.value() > 2.0 * b.link_power().value(),
            "serdes {:.2} mW vs link {:.2} mW",
            serdes_power.mw(),
            b.link_power().mw()
        );
    }

    #[test]
    fn deserializer_dominates_area() {
        // Fig. 11: deserializer ≈ 60 % of the layout.
        let b = budget();
        let share = b.area_share_percent("deserializer");
        assert!(share > 40.0, "deserializer share = {share:.1} %");
        // Driver and front end are tiny fractions (paper: 0.2 %, 1.1 %).
        assert!(b.area_share_percent("tx_driver") < 5.0);
        assert!(b.area_share_percent("rx_frontend") < 8.0);
    }

    #[test]
    fn cdr_is_the_cheapest_digital_block() {
        let b = budget();
        assert!(b.block("cdr").power.value() < b.block("deserializer").power.value());
        assert!(b.block("cdr").power.value() < b.block("serializer").power.value());
    }

    #[test]
    fn energy_per_bit_consistent() {
        let b = budget();
        let pj = b.energy_per_bit().pj();
        let check = b.total_power().mw() / 2.0; // mW / Gb/s = pJ/bit
        assert!((pj - check).abs() < 1e-9);
        assert!(pj > 0.5, "pj/bit = {pj}");
    }

    #[test]
    fn power_scales_with_rate() {
        let b2 = budget();
        let b1 = LinkBudget::compute(Pvt::nominal(), Hertz::from_ghz(1.0)).expect("ok");
        assert!(b2.total_power().value() > b1.total_power().value());
    }
}
