//! The external scan interface configuring the CDR (paper §IV-C: "the
//! CDR is also equipped with tunable glitch and jitter correction logic
//! using external scan bits").
//!
//! A [`ScanChain`] is the serial shift register those scan bits live in:
//! configuration is shifted in LSB-first while `scan_en` is high and
//! applied to the functional logic on the update strobe — exactly the
//! JTAG-style access a lab bench uses to tune the silicon. The encoding
//! maps to [`CdrConfig`]: glitch-filter enable (1 bit), phase hysteresis
//! (3 bits) and decision-window exponent (3 bits).

use crate::cdr::CdrConfig;
use openserdes_flow::ir::Design;

/// Number of scan bits in the CDR configuration chain.
const SCAN_BITS: usize = 7;

/// A behavioural scan chain holding the CDR's tuning bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanChain {
    shift: Vec<bool>,
    applied: Vec<bool>,
}

impl ScanChain {
    /// A chain with all-zero shift and applied registers.
    pub fn new() -> Self {
        Self {
            shift: vec![false; SCAN_BITS],
            applied: vec![false; SCAN_BITS],
        }
    }

    /// Shifts one bit in (scan clock with `scan_en` high). Returns the
    /// bit falling off the end (`scan_out`), so chains can be daisy-
    /// chained and read back.
    fn shift_in(&mut self, bit: bool) -> bool {
        let out = self.shift.pop().expect("fixed length");
        self.shift.insert(0, bit);
        out
    }

    /// Applies the shifted bits to the functional register (the update
    /// strobe).
    pub fn update(&mut self) {
        self.applied.clone_from(&self.shift);
    }

    /// Loads a whole configuration: shift all bits then update.
    /// Bits are shifted LSB-of-the-encoding last so the encoding ends up
    /// in chain order.
    pub fn load(&mut self, cfg: &CdrConfig) {
        let bits = Self::encode(cfg);
        for &b in bits.iter().rev() {
            let _ = self.shift_in(b);
        }
        self.update();
    }

    /// Encodes a [`CdrConfig`] into the scan format. The oversampling
    /// factor is fixed in hardware (phase-generator wiring) and not
    /// scanned.
    ///
    /// # Panics
    ///
    /// Panics if `phase_hysteresis > 7` or `window` is not a power of
    /// two in `1..=128` (the encodable range).
    pub fn encode(cfg: &CdrConfig) -> [bool; SCAN_BITS] {
        assert!(cfg.phase_hysteresis <= 7, "hysteresis needs 3 bits");
        assert!(
            cfg.window.is_power_of_two() && cfg.window <= 128,
            "window must be a power of two up to 128"
        );
        let wexp = cfg.window.trailing_zeros();
        let mut bits = [false; SCAN_BITS];
        bits[0] = cfg.glitch_filter;
        for i in 0..3 {
            bits[1 + i] = cfg.phase_hysteresis >> i & 1 == 1;
        }
        for i in 0..3 {
            bits[4 + i] = wexp >> i & 1 == 1;
        }
        bits
    }

    /// Decodes the *applied* bits back into a [`CdrConfig`] with the
    /// given (hard-wired) oversampling factor.
    pub fn decode(&self, oversampling: usize) -> CdrConfig {
        let bit = |i: usize| self.applied[i] as u32;
        let hysteresis = bit(1) | bit(2) << 1 | bit(3) << 2;
        let wexp = bit(4) | bit(5) << 1 | bit(6) << 2;
        CdrConfig {
            oversampling,
            glitch_filter: self.applied[0],
            phase_hysteresis: hysteresis.max(1),
            window: 1usize << wexp,
        }
    }
}

impl Default for ScanChain {
    fn default() -> Self {
        Self::new()
    }
}

/// Emits the scan chain as synthesizable RTL: a 7-bit shift register
/// with scan enable, plus a shadow (applied) register bank loaded on the
/// update strobe — daisy-chainable via `scan_out`.
pub fn scan_chain_design() -> Design {
    let mut d = Design::new("cdr_scan");
    let scan_in = d.input("scan_in");
    let scan_en = d.input("scan_en");
    let update = d.input("update");
    let shift = d.reg_bus(SCAN_BITS);
    let applied = d.reg_bus(SCAN_BITS);
    for i in 0..SCAN_BITS {
        let upstream = if i == 0 { scan_in } else { shift[i - 1] };
        let next = d.mux(shift[i], upstream, scan_en);
        d.connect_reg(shift[i], next);
        let loaded = d.mux(applied[i], shift[i], update);
        d.connect_reg(applied[i], loaded);
    }
    d.output("scan_out", shift[SCAN_BITS - 1]);
    d.output_bus("cfg", &applied);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_flow::ir::IrSim;

    #[test]
    fn encode_decode_round_trip() {
        for cfg in [
            CdrConfig::paper_default(),
            CdrConfig {
                oversampling: 5,
                glitch_filter: false,
                phase_hysteresis: 7,
                window: 128,
            },
            CdrConfig {
                oversampling: 3,
                glitch_filter: true,
                phase_hysteresis: 1,
                window: 1,
            },
        ] {
            let mut chain = ScanChain::new();
            chain.load(&cfg);
            assert_eq!(chain.decode(cfg.oversampling), cfg);
        }
    }

    #[test]
    fn update_gates_application() {
        let mut chain = ScanChain::new();
        chain.load(&CdrConfig::paper_default());
        let before = chain.decode(5);
        // Shift garbage without updating: applied config unchanged.
        for _ in 0..SCAN_BITS {
            let _ = chain.shift_in(true);
        }
        assert_eq!(chain.decode(5), before);
        chain.update();
        assert_ne!(chain.decode(5), before);
    }

    #[test]
    fn scan_out_enables_readback() {
        let mut chain = ScanChain::new();
        let cfg = CdrConfig::paper_default();
        chain.load(&cfg);
        // Shifting SCAN_BITS zeros reads the shift register back out in
        // chain order (MSB of the chain first).
        let expected = ScanChain::encode(&cfg);
        let mut read = Vec::new();
        for _ in 0..SCAN_BITS {
            read.push(chain.shift_in(false));
        }
        read.reverse();
        assert_eq!(read, expected);
    }

    #[test]
    fn rtl_matches_behavioural_chain() {
        let design = scan_chain_design();
        let mut sim = IrSim::new(&design);
        let cfg = CdrConfig::paper_default();
        let bits = ScanChain::encode(&cfg);
        sim.set_by_name("scan_en", true);
        for &b in bits.iter().rev() {
            sim.set_by_name("scan_in", b);
            sim.tick();
        }
        sim.set_by_name("scan_en", false);
        sim.set_by_name("update", true);
        sim.tick();
        let cfg_sigs: Vec<_> = design
            .outputs()
            .iter()
            .filter(|(n, _)| n.starts_with("cfg"))
            .map(|(_, s)| *s)
            .collect();
        let got: Vec<bool> = cfg_sigs.iter().map(|&s| sim.get(s)).collect();
        assert_eq!(got, bits.to_vec(), "RTL applied bits match the encoding");
    }

    #[test]
    fn scanned_config_drives_the_cdr() {
        // End-to-end: load a config over scan, build the CDR from it,
        // and verify it behaves per the scanned settings.
        let mut chain = ScanChain::new();
        let mut wanted = CdrConfig::paper_default();
        wanted.glitch_filter = false;
        wanted.phase_hysteresis = 4;
        chain.load(&wanted);
        let cfg = chain.decode(5);
        assert!(!cfg.glitch_filter);
        assert_eq!(cfg.phase_hysteresis, 4);
        let cdr = crate::cdr::OversamplingCdr::new(cfg);
        assert_eq!(cdr.selected_phase(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_window_rejected() {
        let mut cfg = CdrConfig::paper_default();
        cfg.window = 33;
        let _ = ScanChain::encode(&cfg);
    }
}
