//! PRBS pattern generation and checking.
//!
//! The paper evaluates the link with PRBS-31 stimulus (Fig. 8). This
//! module provides the standard ITU-T PRBS polynomials as Fibonacci
//! LFSRs plus a self-synchronizing checker for BER measurement on
//! recovered data with unknown alignment.

use crate::serializer::{Frame, LANES, WORD_BITS};
use std::fmt;

/// Standard PRBS polynomial orders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrbsOrder {
    /// x⁷ + x⁶ + 1 (period 127).
    Prbs7,
    /// x¹⁵ + x¹⁴ + 1 (period 32 767).
    Prbs15,
    /// x²³ + x¹⁸ + 1 (period 8 388 607).
    Prbs23,
    /// x³¹ + x²⁸ + 1 (period 2³¹ − 1) — the paper's stimulus.
    Prbs31,
}

impl PrbsOrder {
    /// The register length.
    pub fn order(self) -> u32 {
        match self {
            PrbsOrder::Prbs7 => 7,
            PrbsOrder::Prbs15 => 15,
            PrbsOrder::Prbs23 => 23,
            PrbsOrder::Prbs31 => 31,
        }
    }

    /// Feedback tap (the second tap besides the MSB), 1-indexed.
    fn tap(self) -> u32 {
        match self {
            PrbsOrder::Prbs7 => 6,
            PrbsOrder::Prbs15 => 14,
            PrbsOrder::Prbs23 => 18,
            PrbsOrder::Prbs31 => 28,
        }
    }

    /// Sequence period, `2^order − 1`.
    pub fn period(self) -> u64 {
        (1u64 << self.order()) - 1
    }
}

impl fmt::Display for PrbsOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PRBS-{}", self.order())
    }
}

/// A Fibonacci-form PRBS generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrbsGenerator {
    order: PrbsOrder,
    state: u32,
}

impl PrbsGenerator {
    /// Creates a generator seeded with all-ones (the conventional seed),
    /// warmed up past the seed's degenerate prefix (an all-ones Fibonacci
    /// LFSR emits ~`order` zeros before the feedback mixes).
    pub fn new(order: PrbsOrder) -> Self {
        let mut g = Self {
            order,
            state: (1u32 << order.order()) - 1,
        };
        for _ in 0..4 * order.order() {
            let _ = g.next_bit();
        }
        g
    }

    /// Creates a generator with an explicit non-zero seed.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is zero (the LFSR would lock up) or wider than
    /// the register.
    pub fn with_seed(order: PrbsOrder, seed: u32) -> Self {
        assert!(seed != 0, "LFSR seed must be non-zero");
        assert!(
            seed < (1u32 << order.order()) || order.order() == 31,
            "seed wider than the register"
        );
        Self { order, state: seed }
    }

    /// The pattern order.
    pub fn order(&self) -> PrbsOrder {
        self.order
    }

    /// Produces the next bit.
    pub fn next_bit(&mut self) -> bool {
        let n = self.order.order();
        let fb = ((self.state >> (n - 1)) ^ (self.state >> (self.order.tap() - 1))) & 1;
        self.state = ((self.state << 1) | fb) & (((1u64 << n) - 1) as u32);
        fb == 1
    }

    /// Produces `n` bits.
    pub fn take_bits(&mut self, n: usize) -> Vec<bool> {
        (0..n).map(|_| self.next_bit()).collect()
    }

    /// Produces `n` bits as a packed bitstream (the hot-path variant of
    /// [`Self::take_bits`]: one word write per 64 bits).
    pub fn take_bitvec(&mut self, n: usize) -> crate::bitstream::BitVec {
        let mut bv = crate::bitstream::BitVec::with_capacity(n);
        let mut remaining = n;
        while remaining > 0 {
            let chunk = remaining.min(64);
            let mut word = 0u64;
            for i in 0..chunk {
                word |= (self.next_bit() as u64) << i;
            }
            bv.push_word(word, chunk);
            remaining -= chunk;
        }
        bv
    }

    /// Produces `count` frames, filling each lane word least
    /// significant bit first and the lanes in order — the packing the
    /// serializer unpacks, so frame bit `k` is the `k`-th bit drawn.
    pub fn take_frames(&mut self, count: usize) -> Vec<Frame> {
        (0..count)
            .map(|_| {
                let mut frame = [0u32; LANES];
                for word in &mut frame {
                    for bit in 0..WORD_BITS {
                        *word |= u32::from(self.next_bit()) << bit;
                    }
                }
                frame
            })
            .collect()
    }
}

impl Iterator for PrbsGenerator {
    type Item = bool;
    fn next(&mut self) -> Option<bool> {
        Some(self.next_bit())
    }
}

/// A self-synchronizing PRBS checker.
///
/// Feeds received bits through the same polynomial in self-synchronizing
/// form: after `order` clean bits the checker locks onto the sequence at
/// any alignment, and every later mismatch counts one error.
#[derive(Debug, Clone)]
pub struct PrbsChecker {
    order: PrbsOrder,
    history: u32,
    primed: u32,
    bits: u64,
    errors: u64,
}

impl PrbsChecker {
    /// Creates an unsynchronized checker.
    pub fn new(order: PrbsOrder) -> Self {
        Self {
            order,
            history: 0,
            primed: 0,
            bits: 0,
            errors: 0,
        }
    }

    /// Feeds one received bit; returns `Some(error)` once synchronized,
    /// `None` while still priming.
    pub fn push(&mut self, bit: bool) -> Option<bool> {
        let n = self.order.order();
        let result = if self.primed >= n {
            let predicted =
                ((self.history >> (n - 1)) ^ (self.history >> (self.order.tap() - 1))) & 1 == 1;
            let err = predicted != bit;
            self.bits += 1;
            if err {
                self.errors += 1;
            }
            Some(err)
        } else {
            self.primed += 1;
            None
        };
        self.history = ((self.history << 1) | bit as u32) & (((1u64 << n) - 1) as u32);
        result
    }

    /// Feeds a slice of bits.
    pub fn push_all(&mut self, bits: &[bool]) {
        for &b in bits {
            let _ = self.push(b);
        }
    }

    /// Bits checked since synchronization.
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Errors counted since synchronization.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// The measured bit-error ratio.
    pub fn ber(&self) -> f64 {
        self.errors as f64 / self.bits.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prbs7_has_full_period() {
        let mut g = PrbsGenerator::new(PrbsOrder::Prbs7);
        let first: Vec<bool> = g.take_bits(127);
        let second: Vec<bool> = g.take_bits(127);
        assert_eq!(first, second, "period must be 127");
        // No shorter period: shifting by less than 127 never matches.
        let doubled: Vec<bool> = first.iter().chain(&first).copied().collect();
        for p in [1usize, 7, 63, 126] {
            assert_ne!(doubled[p..p + 127], first[..], "period divides {p}?");
        }
        // Balanced: 64 ones, 63 zeros in one period.
        let ones = first.iter().filter(|&&b| b).count();
        assert_eq!(ones, 64);
    }

    #[test]
    fn prbs15_balance() {
        let mut g = PrbsGenerator::new(PrbsOrder::Prbs15);
        let period = PrbsOrder::Prbs15.period() as usize;
        let bits = g.take_bits(period);
        let ones = bits.iter().filter(|&&b| b).count();
        assert_eq!(ones as u64, PrbsOrder::Prbs15.period().div_ceil(2));
        // Periodicity.
        let again = g.take_bits(16);
        assert_eq!(again[..], bits[..16]);
    }

    #[test]
    fn prbs31_looks_random() {
        let mut g = PrbsGenerator::new(PrbsOrder::Prbs31);
        let bits = g.take_bits(100_000);
        let ones = bits.iter().filter(|&&b| b).count();
        // Roughly balanced.
        assert!((48_000..52_000).contains(&ones), "ones = {ones}");
        // No runs longer than the register width.
        let mut run = 0usize;
        let mut max_run = 0usize;
        let mut prev = !bits[0];
        for &b in &bits {
            if b == prev {
                run += 1;
            } else {
                run = 1;
                prev = b;
            }
            max_run = max_run.max(run);
        }
        assert!(max_run <= 31, "max run = {max_run}");
    }

    #[test]
    fn checker_syncs_on_clean_stream_any_offset() {
        for offset in [0usize, 1, 17, 100] {
            let mut g = PrbsGenerator::new(PrbsOrder::Prbs31);
            let bits = g.take_bits(2_000 + offset);
            let mut c = PrbsChecker::new(PrbsOrder::Prbs31);
            c.push_all(&bits[offset..]);
            assert_eq!(c.errors(), 0, "offset {offset}");
            assert!(c.bits() > 1_900);
        }
    }

    #[test]
    fn checker_counts_injected_errors() {
        let mut g = PrbsGenerator::new(PrbsOrder::Prbs15);
        let mut bits = g.take_bits(5_000);
        // Flip isolated bits well after sync; each flip disturbs the
        // checker's predicted bit once when it is compared, and again as
        // it corrupts the history — standard self-sync error
        // multiplication by the number of taps (2 here) plus the direct
        // mismatch.
        for &i in &[1_000usize, 2_000, 3_000] {
            bits[i] = !bits[i];
        }
        let mut c = PrbsChecker::new(PrbsOrder::Prbs15);
        c.push_all(&bits);
        // 3 flips × (1 direct + 2 tap hits) = 9 errors.
        assert_eq!(c.errors(), 9);
    }

    #[test]
    fn checker_reports_garbage_as_errors() {
        let mut c = PrbsChecker::new(PrbsOrder::Prbs7);
        let junk: Vec<bool> = (0..1_000).map(|i| i % 3 == 0).collect();
        c.push_all(&junk);
        assert!(c.ber() > 0.2, "ber = {}", c.ber());
    }

    #[test]
    fn seeded_generators_differ_then_align() {
        let mut a = PrbsGenerator::with_seed(PrbsOrder::Prbs7, 1);
        let mut b = PrbsGenerator::with_seed(PrbsOrder::Prbs7, 0x55);
        let bits_a = a.take_bits(127);
        let bits_b = b.take_bits(127);
        assert_ne!(bits_a, bits_b, "different phase");
        // Same sequence up to rotation: concatenation contains the other.
        let doubled: Vec<bool> = bits_a.iter().chain(&bits_a).copied().collect();
        let found = (0..127).any(|s| doubled[s..s + 127] == bits_b[..]);
        assert!(found, "same cycle, rotated");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_rejected() {
        let _ = PrbsGenerator::with_seed(PrbsOrder::Prbs31, 0);
    }

    #[test]
    fn take_bitvec_matches_take_bits() {
        for n in [0usize, 1, 63, 64, 65, 1_000] {
            let mut a = PrbsGenerator::new(PrbsOrder::Prbs15);
            let mut b = PrbsGenerator::new(PrbsOrder::Prbs15);
            assert_eq!(a.take_bitvec(n).to_bools(), b.take_bits(n), "n = {n}");
            // Generators stay in lockstep afterwards.
            assert_eq!(a.next_bit(), b.next_bit());
        }
    }

    #[test]
    fn take_frames_packs_the_serial_order() {
        use crate::serializer::{frame_to_bits, FRAME_BITS};
        let mut a = PrbsGenerator::new(PrbsOrder::Prbs31);
        let mut b = PrbsGenerator::new(PrbsOrder::Prbs31);
        let frames = a.take_frames(3);
        let bits: Vec<bool> = frames.iter().flat_map(frame_to_bits).collect();
        assert_eq!(bits, b.take_bits(3 * FRAME_BITS));
        assert_eq!(a.next_bit(), b.next_bit());
        assert!(a.take_frames(0).is_empty());
    }

    #[test]
    fn iterator_interface() {
        let g = PrbsGenerator::new(PrbsOrder::Prbs7);
        let v: Vec<bool> = g.take(10).collect();
        assert_eq!(v.len(), 10);
    }

    #[test]
    fn display_names() {
        assert_eq!(PrbsOrder::Prbs31.to_string(), "PRBS-31");
        assert_eq!(PrbsOrder::Prbs31.period(), 2_147_483_647);
    }
}
