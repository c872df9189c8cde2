//! # openserdes-phy
//!
//! The physical layer of the OpenSerDes link, built from the paper's
//! circuit pieces:
//!
//! * [`TxDriver`] — the tapered CMOS inverter transmit driver sized for a
//!   2 pF termination (Fig. 4),
//! * [`ChannelModel`] — lossy channels with bandwidth, noise and jitter
//!   (34 dB evaluation channel, PCIe and EMIB presets from §VI-b),
//! * [`RxFrontEnd`] — the AC-coupled resistive-feedback-inverter receiver
//!   with restorer (Figs. 5–6), including small-signal characterization
//!   and the behavioural sensitivity model behind Fig. 9,
//! * [`Sampler`] — the D-flip-flop sampling element with a metastability
//!   aperture,
//! * [`AnalogLink`] / [`BehavioralLink`] — end-to-end pipelines at
//!   transistor-level and bit-level fidelity.
//!
//! ```no_run
//! use openserdes_phy::{AnalogLink, ChannelModel};
//! use openserdes_pdk::corner::Pvt;
//! use openserdes_pdk::units::Time;
//!
//! let link = AnalogLink::paper_default(Pvt::nominal(), ChannelModel::lossy(20.0));
//! let run = link.transmit(&[true, false, true, true], Time::from_ps(500.0))?;
//! let (bits, errors) = run.recover(&link.sampler, 1);
//! assert_eq!(errors, 0);
//! # let _ = bits;
//! # Ok::<(), openserdes_analog::SolverError>(())
//! ```

#![warn(missing_docs)]

mod channel;
mod driver;
pub mod ffe;
mod frontend;
pub mod mismatch;
mod pipeline;
mod sampler;

pub use channel::ChannelModel;
pub use driver::{DriverConfig, DriverWaveforms, TxDriver};
pub use ffe::TxFfe;
pub use frontend::{FrontEndConfig, FrontEndWaveforms, RxFrontEnd, SmallSignal};
pub use mismatch::{monte_carlo, MismatchStats};
pub use pipeline::{AnalogLink, BehavioralLink, BerEstimate, LinkRun};
pub use sampler::{SampleOutcome, Sampler};

pub use openserdes_analog::primitives::FeedbackKind;
