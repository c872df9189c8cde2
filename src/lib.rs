//! # openserdes
//!
//! A from-scratch Rust reproduction of *"OpenSerDes: An Open Source
//! Process-Portable All-Digital Serial Link"* (DATE 2021): the first
//! open-source all-digital SerDes, originally built on the Skywater
//! 130 nm open PDK with the OpenLANE RTL→GDS flow.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | layer | crate | stands in for |
//! |-------|-------|----------------|
//! | [`pdk`] | `openserdes-pdk` | the sky130 PDK (devices, cells, corners) |
//! | [`netlist`] | `openserdes-netlist` | yosys/OpenLANE netlists |
//! | [`digital`] | `openserdes-digital` | Verilog event/cycle simulation |
//! | [`flow`] | `openserdes-flow` | OpenLANE (synth, P&R, STA, power) |
//! | [`analog`] | `openserdes-analog` | SPICE/Virtuoso transients |
//! | [`phy`] | `openserdes-phy` | driver, channel, RX front end |
//! | [`core`] | `openserdes-core` | the SerDes itself |
//! | [`lint`] | `openserdes-lint` | DRC/ERC signoff (rule catalog in DESIGN.md §12) |
//! | [`telemetry`] | `openserdes-telemetry` | spans/counters/histograms over every engine |
//! | [`fault`] | `openserdes-fault` | lab fault campaigns (noise bursts, dropouts, SEUs) |
//! | [`serve`] | `openserdes-serve` | a characterization farm's job front door |
//!
//! ## Quickstart
//!
//! ```
//! use openserdes::Session;
//!
//! // The paper's headline operating point: 2 Gb/s over a 34 dB channel.
//! let mut session = Session::new().with_seed(42);
//! let frames = [[0xDEAD_BEEF_u32, 1, 2, 3, 4, 5, 6, 7]; 4];
//! let report = session.run_link(&frames)?;
//! assert!(report.error_free());
//! # Ok::<(), openserdes::Error>(())
//! ```
//!
//! See `examples/` for runnable scenarios (PCIe lanes, EMIB chiplet
//! links, pushing the RTL through the flow) and `crates/bench` for the
//! binaries regenerating every figure of the paper.

#![warn(missing_docs)]

pub use openserdes_analog as analog;
pub use openserdes_core as core;
pub use openserdes_digital as digital;
pub use openserdes_fault as fault;
pub use openserdes_flow as flow;
pub use openserdes_lint as lint;
pub use openserdes_netlist as netlist;
pub use openserdes_pdk as pdk;
pub use openserdes_phy as phy;
pub use openserdes_serve as serve;
pub use openserdes_telemetry as telemetry;

pub use openserdes_core::error::Error;
pub use openserdes_core::job::{Request, Response};
pub use openserdes_core::session::Session;

// README's Rust blocks compile and run as doctests of this crate.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
