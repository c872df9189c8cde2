//! # openserdes-analog
//!
//! A compact analog simulation substrate standing in for the
//! Virtuoso/SPICE post-layout simulations of the paper:
//!
//! * [`Waveform`] — uniformly-sampled waveforms with edge/delay/slicing
//!   measurements,
//! * [`Circuit`] — nodal netlists of R/C/MOS elements with grounded
//!   sources (including the PMOS pseudo-resistor),
//! * [`drc`] — the `AN0xx` half of the design-lint engine (floating
//!   nodes, degenerate elements, source conflicts); the solver entry
//!   points run it automatically in debug builds,
//! * [`solver`] — Newton–Raphson DC (with gmin stepping), DC sweeps and
//!   backward-Euler transient analysis using the PDK's analytic device
//!   derivatives, with precompiled stamp plans, LU reuse and optional
//!   adaptive time-stepping,
//! * [`par`] — the deterministic parallel fan-out engine (order-
//!   preserving map, speculative bisection) shared with the digital
//!   sweeps upstack,
//! * [`primitives`] — sized inverters, chains, and the resistive-feedback
//!   inverter receiver stage,
//! * [`EyeDiagram`] — eye height/width extraction,
//! * [`noise`] — seeded Gaussian noise and RJ/DJ jitter.
//!
//! ```
//! use openserdes_analog::{Circuit, Stimulus};
//! use openserdes_analog::solver::dc_operating_point;
//!
//! let mut c = Circuit::new();
//! let vin = c.node("vin");
//! let mid = c.node("mid");
//! c.vsource(vin, Stimulus::Dc(1.8));
//! c.resistor(vin, mid, 1.0e3);
//! c.resistor(mid, c.gnd(), 1.0e3);
//! let v = dc_operating_point(&c)?;
//! assert!((v[mid.index()] - 0.9).abs() < 1e-6);
//! # Ok::<(), openserdes_analog::SolverError>(())
//! ```

#![warn(missing_docs)]

mod circuit;
pub mod drc;
mod eye;
pub mod noise;
pub mod par;
pub mod primitives;
pub mod solver;
mod waveform;

pub use circuit::{Circuit, Element, Node, Stimulus};
pub use eye::EyeDiagram;
pub use solver::batched::{BatchedTransientResult, PointOverride};
pub use solver::{
    dc_operating_point, dc_operating_point_with_nodeset, dc_sweep_with_threads, transient,
    DcSolution, DcSweepResult, Solver, SolverError, SolverStats, StepMode, TransientConfig,
    TransientResult,
};
pub use waveform::Waveform;
