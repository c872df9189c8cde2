//! The FSM deserializer (paper §IV-B-c).
//!
//! Collects serial bits back into 8 parallel streams of 32 bits and
//! raises a frame-valid flag every 256 bits. The synthesizable RTL
//! ([`deserializer_design`]) carries a 256-bit capture bank with a full
//! 8-bit write decoder, which is exactly why the deserializer dominates
//! the paper's layout area (60 % in Fig. 11).

use crate::bitstream::BitVec;
use crate::serializer::{Frame, FRAME_BITS, LANES, WORD_BITS};
use openserdes_flow::ir::Design;

/// Cycle-accurate behavioural deserializer FSM.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Deserializer {
    bank: Frame,
    index: usize,
}

impl Deserializer {
    /// Creates an empty deserializer.
    pub fn new() -> Self {
        Self::default()
    }

    /// One clock with the received serial bit; returns the completed
    /// frame on every 256th bit.
    pub fn tick(&mut self, bit: bool) -> Option<Frame> {
        let lane = self.index / WORD_BITS;
        let pos = self.index % WORD_BITS;
        if bit {
            self.bank[lane] |= 1 << pos;
        } else {
            self.bank[lane] &= !(1 << pos);
        }
        self.index += 1;
        if self.index == FRAME_BITS {
            self.index = 0;
            Some(self.bank)
        } else {
            None
        }
    }

    /// Pushes a slice of bits, returning every completed frame.
    pub fn push_bits(&mut self, bits: &[bool]) -> Vec<Frame> {
        bits.iter().filter_map(|&b| self.tick(b)).collect()
    }

    /// Packed fast path of [`Self::push_bits`]: consumes `len` bits of
    /// `bits` starting at `offset`. Whole 32-bit lane words are captured
    /// with single windowed reads whenever the FSM is word-aligned;
    /// stragglers fall back to per-bit ticks, so the FSM state is
    /// identical to the bit-at-a-time path throughout.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` runs past the stream.
    pub fn push_packed(&mut self, bits: &BitVec, offset: usize, len: usize) -> Vec<Frame> {
        assert!(offset + len <= bits.len(), "range out of bounds");
        let mut out = Vec::with_capacity(len / FRAME_BITS);
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            if self.index.is_multiple_of(WORD_BITS) && end - pos >= WORD_BITS {
                self.bank[self.index / WORD_BITS] = bits.window32(pos);
                pos += WORD_BITS;
                self.index += WORD_BITS;
                if self.index == FRAME_BITS {
                    self.index = 0;
                    out.push(self.bank);
                }
            } else {
                if let Some(f) = self.tick(bits.get(pos)) {
                    out.push(f);
                }
                pos += 1;
            }
        }
        out
    }

    /// The partially filled capture bank and its fill level. Lane bits
    /// at positions `>= fill` are stale (left over from the previous
    /// frame) — callers must mask to the filled span. Used to score a
    /// trailing partial frame when alignment lag truncates the stream.
    pub fn partial_frame(&self) -> (Frame, usize) {
        (self.bank, self.index)
    }

    /// Single-event upset: flips bit `bit` of capture lane `lane`
    /// (both folded into range). Bits at or past the fill level are
    /// overwritten before the frame completes, so only strikes below
    /// the fill level in the struck lane corrupt data — exactly
    /// the exposure window of the real 256-bit bank.
    pub fn inject_seu(&mut self, lane: u32, bit: u32) {
        self.bank[lane as usize % LANES] ^= 1 << (bit % WORD_BITS as u32);
    }
}

/// Emits the deserializer as synthesizable RTL: an 8-bit position
/// counter, a 256-bit capture bank with per-bit write-enable decode, and
/// a frame-valid output.
pub fn deserializer_design() -> Design {
    let mut d = Design::new("deserializer");
    let serial_in = d.input("serial_in");
    let enable = d.input("enable");
    let counter = d.reg_bus(8);
    let bank = d.reg_bus(FRAME_BITS);

    // Counter advances whenever enabled.
    let inc = d.incr(&counter);
    let cnt_next = d.mux_bus(&counter, &inc, enable);
    d.connect_reg_bus(&counter, &cnt_next);

    // Per-bit capture: bank[i] <= (counter == i && enable) ? serial_in.
    for (i, &q) in bank.iter().enumerate() {
        let hit = d.eq_const(&counter, i as u64);
        let we = d.and(hit, enable);
        let next = d.mux(q, serial_in, we);
        d.connect_reg(q, next);
    }

    // Frame valid pulses while the counter points at the last bit.
    let last = d.eq_const(&counter, (FRAME_BITS - 1) as u64);
    let valid = d.and(last, enable);
    let valid_q = d.reg();
    d.connect_reg(valid_q, valid);
    d.output("frame_valid", valid_q);
    d.output_bus("data", &bank);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::{frame_to_bits, Serializer, LANES};
    use openserdes_flow::ir::IrSim;

    fn test_frame() -> Frame {
        [
            0xCAFE_BABE,
            0x0000_0001,
            0x8000_0000,
            0x5555_AAAA,
            0xF0F0_F0F0,
            0x0F0F_0F0F,
            0x1111_2222,
            0x3333_4444,
        ]
    }

    #[test]
    fn serializer_deserializer_identity() {
        let mut ser = Serializer::new();
        let mut des = Deserializer::new();
        let frames = [test_frame(), [0u32; LANES], [u32::MAX; LANES]];
        for f in frames {
            let bits = ser.serialize(f);
            let out = des.push_bits(&bits);
            assert_eq!(out, vec![f], "round trip must be the identity");
        }
    }

    #[test]
    fn partial_frame_not_emitted() {
        let mut des = Deserializer::new();
        let out = des.push_bits(&[true; 255]);
        assert!(out.is_empty());
        assert_eq!(des.index, 255);
        let done = des.tick(false);
        assert!(done.is_some());
        assert_eq!(des.index, 0);
    }

    #[test]
    fn packed_push_matches_bit_path() {
        let frames = [test_frame(), [0x1234_5678u32; LANES], [u32::MAX; LANES]];
        let mut bits = Vec::new();
        for f in &frames {
            bits.extend(frame_to_bits(f));
        }
        let packed = BitVec::from_bools(&bits);
        // Unaligned start (offset 5) exercises the per-bit fallback
        // until the FSM word-aligns, then the window32 fast path.
        for offset in [0usize, 5, 32, 100] {
            let mut a = Deserializer::new();
            let mut b = Deserializer::new();
            let out_a = a.push_bits(&bits[offset..]);
            let out_b = b.push_packed(&packed, offset, packed.len() - offset);
            assert_eq!(out_a, out_b, "offset {offset}");
            assert_eq!(a, b, "FSM state must agree at offset {offset}");
            assert_eq!(b.partial_frame().1, b.index);
        }
    }

    #[test]
    fn seu_flips_exactly_one_captured_bit() {
        let f = test_frame();
        let bits = frame_to_bits(&f);
        let mut des = Deserializer::new();
        // Capture half the frame, strike a bit already filled.
        let half = FRAME_BITS / 2;
        let _ = des.push_bits(&bits[..half]);
        des.inject_seu(1, 7);
        let frames = des.push_bits(&bits[half..]);
        assert_eq!(frames.len(), 1);
        let mut expect = f;
        expect[1] ^= 1 << 7;
        assert_eq!(frames[0], expect, "exactly lane 1 bit 7 flips");
        // Out-of-range indices fold instead of panicking.
        des.inject_seu(9, 40);
        assert_eq!(des.index, 0);
    }

    #[test]
    fn rtl_matches_behavioural_model() {
        let design = deserializer_design();
        let mut sim = IrSim::new(&design);
        let f = test_frame();
        let bits = frame_to_bits(&f);
        sim.set_by_name("enable", true);
        let valid_sig = design
            .outputs()
            .iter()
            .find(|(n, _)| n == "frame_valid")
            .expect("valid")
            .1;
        let data_sigs: Vec<_> = (0..FRAME_BITS)
            .map(|i| {
                design
                    .outputs()
                    .iter()
                    .find(|(n, _)| *n == format!("data[{i}]"))
                    .expect("data bit")
                    .1
            })
            .collect();
        let mut seen_valid = 0;
        for &b in &bits {
            sim.set_by_name("serial_in", b);
            sim.tick();
            if sim.get(valid_sig) {
                seen_valid += 1;
            }
        }
        assert_eq!(seen_valid, 1, "one frame_valid pulse per frame");
        let got: Vec<bool> = data_sigs.iter().map(|&s| sim.get(s)).collect();
        assert_eq!(got, bits, "captured bank must equal the sent frame");
    }

    #[test]
    fn rtl_enable_gates_capture() {
        let design = deserializer_design();
        let mut sim = IrSim::new(&design);
        sim.set_by_name("enable", false);
        sim.set_by_name("serial_in", true);
        for _ in 0..10 {
            sim.tick();
        }
        let any_set = design
            .outputs()
            .iter()
            .filter(|(n, _)| n.starts_with("data"))
            .any(|(_, s)| sim.get(*s));
        assert!(!any_set, "disabled deserializer must not capture");
    }

    #[test]
    fn rtl_is_bigger_than_serializer() {
        // The decoder makes the deserializer the largest block (Fig. 11).
        let lib = openserdes_pdk::library::Library::sky130(openserdes_pdk::corner::Pvt::nominal());
        let des = openserdes_flow::synthesize(&deserializer_design(), &lib).expect("ok");
        let ser =
            openserdes_flow::synthesize(&crate::serializer::serializer_design(), &lib).expect("ok");
        assert!(
            des.netlist.cell_count() > ser.netlist.cell_count(),
            "des {} vs ser {}",
            des.netlist.cell_count(),
            ser.netlist.cell_count()
        );
    }
}
