//! BER measurement harness (the testbench behind Fig. 8 / Fig. 9).
//!
//! Drives the link with PRBS stimulus and scores recovered bits with the
//! self-synchronizing checker, producing confidence-qualified BER
//! numbers. The *zero-BER* predicate used in the paper's "maximum
//! channel loss" metric is a rule-of-three bound: no errors over `n`
//! bits certifies `BER < 3/n` at 95 % confidence.

use crate::error::Error;
use crate::link::LinkConfig;
use crate::prbs::{PrbsGenerator, PrbsOrder};
use crate::serializer::Frame;
use openserdes_phy::BerEstimate;

/// BER test configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BerTest {
    /// The link operating point under test.
    pub link: LinkConfig,
    /// Stimulus polynomial.
    pub prbs: PrbsOrder,
    /// Number of frames (256 bits each) to run.
    pub frames: usize,
    /// PRNG seed for the stochastic PHY.
    pub seed: u64,
}

impl BerTest {
    /// A PRBS-31 test of `frames` frames at the given operating point.
    pub fn prbs31(link: LinkConfig, frames: usize) -> Self {
        Self {
            link,
            prbs: PrbsOrder::Prbs31,
            frames,
            seed: 0xBE12,
        }
    }

    /// Generates the PRBS frame stimulus.
    pub fn stimulus(&self) -> Vec<Frame> {
        PrbsGenerator::new(self.prbs).take_frames(self.frames)
    }

    /// Runs the test, returning the BER estimate.
    ///
    /// # Errors
    ///
    /// Propagates link failures.
    pub fn run(&self) -> Result<BerEstimate, Error> {
        let report = crate::link::run_frames(&self.link, &self.stimulus(), self.seed)?;
        Ok(BerEstimate {
            bits: report.bits,
            errors: report.bit_errors,
        })
    }

    /// `true` when the run completes with zero errors.
    ///
    /// # Errors
    ///
    /// Propagates link failures.
    pub fn is_error_free(&self) -> Result<bool, Error> {
        Ok(self.run()?.errors == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_phy::ChannelModel;

    #[test]
    fn paper_point_is_error_free_with_confidence() {
        let t = BerTest::prbs31(LinkConfig::paper_default(), 40);
        let est = t.run().expect("runs");
        assert_eq!(est.errors, 0);
        assert!(est.ber_upper95() < 1e-3, "bound = {}", est.ber_upper95());
    }

    #[test]
    fn broken_channel_reports_errors() {
        let mut cfg = LinkConfig::paper_default();
        cfg.channel = ChannelModel::lossy(48.0);
        let t = BerTest::prbs31(cfg, 10);
        assert!(!t.is_error_free().expect("runs"));
    }

    #[test]
    fn stimulus_is_reproducible_and_framed() {
        let t = BerTest::prbs31(LinkConfig::paper_default(), 3);
        let a = t.stimulus();
        let b = t.stimulus();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        // PRBS content: frames differ from each other.
        assert_ne!(a[0], a[1]);
    }
}
