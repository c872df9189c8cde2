//! # openserdes-flow
//!
//! An OpenLANE-substitute RTL→layout flow, the automation backbone of the
//! paper ("Automated SerDes Design", §IV): the serializer, deserializer
//! and CDR are written once as RTL and pushed through synthesis,
//! placement, clock-tree estimation, routing, timing and power signoff to
//! obtain the area/power numbers of Figs. 10–11 — all re-runnable at any
//! PVT point, which is the process-portability claim in executable form.
//!
//! * [`ir`] — a word-friendly RTL IR with a golden interpreter,
//! * [`lint`] — the `IR0xx` half of the design-lint engine (unconnected
//!   registers, dead nodes, stuck state, ragged buses); [`Flow::run`]
//!   gates on it before synthesis and on the netlist ERC after,
//! * [`synth`] — folding, structural hashing and technology mapping,
//! * [`floorplan`] / [`place`] / [`route`] — row-based floorplan, greedy +
//!   simulated-annealing placement, global-routing estimate,
//! * [`sta`] — NLDM static timing signoff: forward/backward graph
//!   passes (per-net slack), early/late split with derates, per-clock
//!   domains, top-K path reports and the `TM0xx` timing lint bridge,
//! * [`power`] — activity-based switching/internal/clock/leakage power,
//! * [`flow`] — the staged driver ([`Flow`]) mirroring Fig. 12.
//!
//! ```
//! use openserdes_flow::ir::Design;
//! use openserdes_flow::{Flow, FlowConfig};
//! use openserdes_pdk::units::Hertz;
//!
//! let mut d = Design::new("counter4");
//! let q = d.reg_bus(4);
//! let next = d.incr(&q);
//! d.connect_reg_bus(&q, &next);
//! d.output_bus("q", &q);
//!
//! let flow = Flow::new().with_config(FlowConfig::at_clock(Hertz::from_mhz(500.0)));
//! let result = flow.run(&d)?;
//! assert!(result.timing.clean());
//! # Ok::<(), openserdes_flow::FlowError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod export;
pub mod floorplan;
pub mod flow;
pub mod ir;
pub mod lint;
pub mod place;
pub mod power;
pub mod route;
pub mod sta;
pub mod synth;

pub use error::FlowError;
pub use export::to_def;
pub use flow::{optimize_timing, CtsReport, Flow, FlowConfig, FlowResult};
pub use power::{analyze_power, PowerConfig, PowerReport};
pub use sta::{
    ClockDomain, Endpoint, PathReport, PathStage, Sta, StaConfig, StaReport, TimingGraph,
};
pub use synth::{synthesize, SynthResult};
