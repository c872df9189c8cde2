//! # openserdes-netlist
//!
//! Flat gate-level netlists for the OpenSerDes reproduction: the common
//! data structure handed between synthesis, simulation, placement, timing
//! and power analysis — the same role the yosys/OpenLANE netlist plays in
//! the paper's flow.
//!
//! * [`Netlist`] — arena-style netlist with a builder API
//!   ([`Netlist::gate`], [`Netlist::dff`], …) and validation
//!   ([`Netlist::check`]).
//! * [`Connectivity`] — the one read of a netlist's structure: each
//!   net's driver and sinks, the loop check with the topological order,
//!   the clock-root trace and the fan-in cone walk.
//! * [`lint`] — the gate-level ERC half of the design-lint engine
//!   (`NL0xx` rules: driver conflicts, floating nets, combinational
//!   loops, dead logic, clock-domain audit, drive overloads).
//! * [`NetlistStats`] — cell histograms and area/leakage rollups against a
//!   characterized [`openserdes_pdk::library::Library`].
//!
//! ```
//! use openserdes_netlist::{Netlist, NetlistStats};
//! use openserdes_pdk::corner::Pvt;
//! use openserdes_pdk::library::Library;
//! use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
//!
//! let mut nl = Netlist::new("mux_reg");
//! let clk = nl.add_input("clk");
//! let sel = nl.add_input("sel");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let m = nl.gate(LogicFn::Mux2, DriveStrength::X1, &[a, b, sel]);
//! let q = nl.dff(m, clk, DriveStrength::X1);
//! nl.mark_output("q", q);
//! nl.check()?;
//!
//! let lib = Library::sky130(Pvt::nominal());
//! let stats = NetlistStats::compute(&nl, &lib);
//! assert_eq!(stats.cell_count, 2);
//! # Ok::<(), openserdes_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

mod connectivity;
pub mod error;
pub mod ids;
pub mod lint;
mod netlist;
mod stats;

pub use connectivity::Connectivity;
pub use error::NetlistError;
pub use ids::{CellId, NetId};
pub use netlist::{Instance, Netlist};
pub use stats::NetlistStats;
