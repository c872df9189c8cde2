//! # openserdes-pdk
//!
//! Process models for a sky130-class 130 nm node, the substrate beneath the
//! OpenSerDes reproduction. The real paper builds on the Skywater 130 nm
//! open PDK; this crate stands in for it with:
//!
//! * [`units`] — unit-safe scalar newtypes (volts, farads, seconds, …),
//! * [`corner`] — PVT corners (`tt`/`ss`/`ff`/`sf`/`fs`, supply, temperature),
//! * [`mos`] — a smooth alpha-power MOSFET model calibrated to sky130
//!   headline figures, with analytic derivatives for Newton solvers,
//! * [`stdcell`] — liberty-style standard cells with NLDM timing tables,
//! * [`library`] — full library characterization at any PVT point, and
//! * [`wire`] — metal-stack parasitics and wireload estimation.
//!
//! Everything downstream (netlists, the digital simulator, the RTL→layout
//! flow, the analog solver and finally the SerDes itself) consumes process
//! data exclusively through this crate, which is what makes the design
//! *process-portable*: retargeting is a re-characterization, not a rewrite.
//!
//! ```
//! use openserdes_pdk::prelude::*;
//!
//! let lib = Library::sky130(Pvt::nominal());
//! let inv = lib.cell(LogicFn::Inv, DriveStrength::X1)?;
//! let arc = inv.arc(Time::from_ps(20.0), Farad::from_ff(10.0));
//! assert!(arc.delay.ps() > 0.0 && arc.delay.ps() < 200.0);
//! # Ok::<(), openserdes_pdk::PdkError>(())
//! ```

#![warn(missing_docs)]

pub mod corner;
pub mod error;
pub mod library;
pub mod mos;
pub mod stdcell;
pub mod units;
pub mod wire;

pub use error::PdkError;

/// Convenient glob-import of the most used PDK types.
pub mod prelude {
    pub use crate::corner::{ProcessCorner, Pvt};
    pub use crate::error::PdkError;
    pub use crate::library::Library;
    pub use crate::mos::{MosDevice, MosEval, MosParams, MosType};
    pub use crate::stdcell::{DriveStrength, LogicFn, Nldm, SeqTiming, StdCell, TimingArc};
    pub use crate::units::{Amp, AreaUm2, Farad, Hertz, Joule, Micron, Ohm, Time, Volt, Watt};
    pub use crate::wire::{MetalLayer, WireloadModel};
}
