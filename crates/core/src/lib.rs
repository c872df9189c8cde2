//! # openserdes-core
//!
//! The OpenSerDes system itself — a Rust reproduction of *"OpenSerDes:
//! An Open Source Process-Portable All-Digital Serial Link"*
//! (DATE 2021): an all-digital, fully synthesizable SerDes for a sky130
//! 130 nm open-PDK node.
//!
//! * [`Serializer`] / [`Deserializer`] — the 8-lane × 32-bit FSMs, each
//!   as a cycle-accurate model **and** as synthesizable RTL pushed
//!   through the [`openserdes_flow`] OpenLANE-substitute,
//! * [`OversamplingCdr`] — the fully digital clock-and-data recovery
//!   with scan-configurable glitch and jitter correction (Fig. 7),
//! * [`link`] — the assembled link over the analog PHY (Figs. 3, 8),
//! * [`PrbsGenerator`] / [`PrbsChecker`] / [`BerTest`] — PRBS-31 BER
//!   testing,
//! * [`sweep`] — the sensitivity / maximum-loss sweeps (Fig. 9),
//! * [`LinkBudget`] — the power and area budget (Figs. 10–11),
//! * [`cost`] — the open-vs-traditional PDK cost model (Fig. 2),
//! * [`job`] / [`Session`] — the serializable job API behind one front
//!   door, including the `openserdes-fault-schedule/1` file format
//!   ([`job::fault_schedule_to_json`] / [`job::fault_schedule_from_json`]),
//! * [`json`] — the workspace's one JSON parser and canonical writers.
//!
//! ```
//! use openserdes_core::{Deserializer, Serializer};
//!
//! let mut ser = Serializer::new();
//! let mut des = Deserializer::new();
//! let frame = [0xDEAD_BEEF, 1, 2, 3, 4, 5, 6, 7];
//! let bits = ser.serialize(frame);
//! let frames = des.push_bits(&bits);
//! assert_eq!(frames, vec![frame]);
//! ```

#![warn(missing_docs)]

pub mod ber;
pub mod bitstream;
pub mod budget;
pub mod cdr;
pub mod cost;
pub mod error;
pub mod job;
pub mod json;
pub mod link;
pub mod prbs;
pub mod scan;
pub mod serializer;
pub mod session;
pub mod sweep;
pub mod top;

mod deserializer;

pub use ber::BerTest;
pub use bitstream::BitVec;
pub use budget::{BlockBudget, LinkBudget};
pub use cdr::{cdr_design, oversample_bits, oversample_bits_packed, CdrConfig, OversamplingCdr};
pub use deserializer::{deserializer_design, Deserializer};
pub use error::{Error, FaultInfo, LinkError};
pub use job::{
    DeadlineInfo, DesignSpec, FlowSummary, JobKey, LintSummary, Request, Response, ShedInfo,
    StaSummary, SweepSpec,
};
pub use link::{
    run_frames_with_faults, AnalogFrameReport, FaultReport, LinkConfig, LinkReport, LinkStats,
};
pub use prbs::{PrbsChecker, PrbsGenerator, PrbsOrder};
pub use scan::{scan_chain_design, ScanChain, SCAN_BITS};
pub use serializer::{
    bits_to_frame, frame_to_bits, serializer_design, Frame, Serializer, FRAME_BITS, LANES,
    WORD_BITS,
};
pub use session::Session;
pub use sweep::parallel::CornerPoint;
pub use sweep::{eye_width_at, BathtubPoint, Sweep, SweepOutcome, SweepPoint};
pub use top::serdes_digital_top;
