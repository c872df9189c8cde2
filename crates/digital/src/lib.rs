//! # openserdes-digital
//!
//! Digital simulation for the OpenSerDes reproduction:
//!
//! * [`Logic`] — four-value logic (`0`/`1`/`X`/`Z`) with pessimistic X
//!   propagation and controlling-value short-circuits,
//! * [`EventSim`] — an event-driven gate-level simulator with
//!   NLDM-accurate per-cell delays (transport-delay semantics, so real
//!   glitches propagate into the CDR, as in silicon),
//! * [`CycleSim`] — a zero-delay cycle-based simulator for fast
//!   functional runs and RTL↔netlist equivalence checks,
//! * [`Trace`] — value-change recording.
//!
//! Together these stand in for the Verilog simulation environment the
//! paper uses around its synthesized SerDes blocks.
//!
//! ```
//! use openserdes_digital::{CycleSim, Logic};
//! use openserdes_netlist::Netlist;
//! use openserdes_pdk::stdcell::{DriveStrength, LogicFn};
//!
//! let mut nl = Netlist::new("xor");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.gate(LogicFn::Xor2, DriveStrength::X1, &[a, b]);
//! nl.mark_output("y", y);
//!
//! let mut sim = CycleSim::new(&nl)?;
//! sim.set_bit(a, true);
//! sim.set_bit(b, false);
//! sim.settle();
//! assert_eq!(sim.value(y), Logic::One);
//! # Ok::<(), openserdes_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

mod cycle;
mod logic;
mod sim;
mod trace;

pub use cycle::CycleSim;
pub use logic::Logic;
pub use sim::EventSim;
pub use trace::Trace;
