//! The FSM serializer (paper §IV-A-a).
//!
//! Takes 8 parallel data streams of 32 bits each (one *frame*) and emits
//! them as a serial bit stream, sequentially lane by lane, LSB first —
//! 256 bit times per frame. Provided both as a cycle-accurate
//! behavioural model ([`Serializer`]) and as synthesizable RTL
//! ([`serializer_design`]) that the flow pushes to layout for the
//! paper's area/power breakdown (Figs. 10–11).

use crate::bitstream::BitVec;
use openserdes_flow::ir::Design;

/// Number of parallel input streams (lanes).
pub const LANES: usize = 8;
/// Bits per lane word.
pub const WORD_BITS: usize = 32;
/// Bits per serialized frame.
pub const FRAME_BITS: usize = LANES * WORD_BITS;

/// One frame of parallel input data: 8 lanes × 32 bits.
pub type Frame = [u32; LANES];

/// Flattens a frame into its serial bit order (lane 0 LSB first).
pub fn frame_to_bits(frame: &Frame) -> Vec<bool> {
    (0..FRAME_BITS)
        .map(|i| frame[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1)
        .collect()
}

/// Packs serial bits (lane 0 LSB first) back into a frame.
///
/// # Panics
///
/// Panics if `bits.len() != FRAME_BITS`.
pub fn bits_to_frame(bits: &[bool]) -> Frame {
    assert_eq!(bits.len(), FRAME_BITS, "a frame is {FRAME_BITS} bits");
    let mut frame = [0u32; LANES];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            frame[i / WORD_BITS] |= 1 << (i % WORD_BITS);
        }
    }
    frame
}

/// Cycle-accurate behavioural serializer FSM.
///
/// States: *idle* (output undriven-low, waiting for a load) and
/// *shifting* (one bit per clock from the internal bank).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Serializer {
    bank: Frame,
    index: usize,
    active: bool,
    frames_sent: u64,
}

impl Serializer {
    /// Creates an idle serializer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a frame and starts shifting on the next clock.
    ///
    /// Loading while a frame is in flight restarts from the new frame
    /// (matching the RTL, where `load` has priority).
    pub fn load(&mut self, frame: Frame) {
        self.bank = frame;
        self.index = 0;
        self.active = true;
    }

    /// Frames completely transmitted so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// One clock: returns the output bit, or `None` when idle.
    pub fn tick(&mut self) -> Option<bool> {
        if !self.active {
            return None;
        }
        let bit = self.bank[self.index / WORD_BITS] >> (self.index % WORD_BITS) & 1 == 1;
        self.index += 1;
        if self.index == FRAME_BITS {
            self.active = false;
            self.frames_sent += 1;
        }
        Some(bit)
    }

    /// Serializes a whole frame in one call (load + 256 ticks).
    pub fn serialize(&mut self, frame: Frame) -> Vec<bool> {
        self.load(frame);
        (0..FRAME_BITS)
            .map(|_| self.tick().expect("busy for a full frame"))
            .collect()
    }

    /// Packed fast path of [`Self::serialize`]: appends the frame's
    /// bits to `out` one lane word at a time, leaving the FSM in the
    /// same end state as 256 ticks would (idle, frame counted).
    pub fn serialize_into(&mut self, frame: Frame, out: &mut BitVec) {
        self.bank = frame;
        for &w in &frame {
            out.push_word(w as u64, WORD_BITS);
        }
        self.index = FRAME_BITS;
        self.active = false;
        self.frames_sent += 1;
    }
}

/// Emits the serializer as synthesizable RTL: a 256-bit parallel-load
/// **shift register** (the canonical serializer FSM), an 8-bit bit
/// counter and an active flag. Every bank flop re-clocks every bit time,
/// which is why the serializer is the power-hungriest block of the
/// paper's Fig. 10.
pub fn serializer_design() -> Design {
    let mut d = Design::new("serializer");
    let load = d.input("load");
    let data = d.input_bus("data", FRAME_BITS);
    let bank = d.reg_bus(FRAME_BITS);
    let counter = d.reg_bus(8);
    let active = d.reg();

    // Bank: parallel load, else shift toward bit 0 (zero backfill).
    let zero_bit = d.constant(false);
    for i in 0..FRAME_BITS {
        let shifted_in = if i + 1 < FRAME_BITS {
            bank[i + 1]
        } else {
            zero_bit
        };
        let shifted = d.mux(bank[i], shifted_in, active);
        let next = d.mux(shifted, data[i], load);
        d.connect_reg(bank[i], next);
    }

    // Counter: reset on load, increment while active.
    let inc = d.incr(&counter);
    let cnt_run = d.mux_bus(&counter, &inc, active);
    let zero = d.const_bus(8, 0);
    let cnt_next = d.mux_bus(&cnt_run, &zero, load);
    d.connect_reg_bus(&counter, &cnt_next);

    // Active: set on load, clear after the last bit.
    let last = d.eq_const(&counter, (FRAME_BITS - 1) as u64);
    let not_last = d.not(last);
    let still = d.and(active, not_last);
    let active_next = d.or(still, load);
    d.connect_reg(active, active_next);

    // Serial output: the shift register's tail, gated by active.
    let out = d.and(bank[0], active);
    d.output("serial_out", out);
    d.output("busy", active);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use openserdes_flow::ir::IrSim;

    fn test_frame() -> Frame {
        [
            0xDEAD_BEEF,
            0x0123_4567,
            0x89AB_CDEF,
            0xFFFF_0000,
            0x0000_FFFF,
            0xA5A5_A5A5,
            0x5A5A_5A5A,
            0x1234_8765,
        ]
    }

    #[test]
    fn frame_bits_round_trip() {
        let f = test_frame();
        let bits = frame_to_bits(&f);
        assert_eq!(bits.len(), FRAME_BITS);
        assert_eq!(bits_to_frame(&bits), f);
        // Lane 0 LSB goes first.
        assert_eq!(bits[0], f[0] & 1 == 1);
        assert_eq!(bits[255], f[7] >> 31 & 1 == 1);
    }

    #[test]
    fn behavioural_serializer_emits_frame_in_order() {
        let mut s = Serializer::new();
        let f = test_frame();
        let bits = s.serialize(f);
        assert_eq!(bits, frame_to_bits(&f));
        assert!(!s.active);
        assert_eq!(s.frames_sent(), 1);
        assert_eq!(s.tick(), None, "idle after the frame");
    }

    #[test]
    fn packed_serialization_matches_fsm() {
        let f = test_frame();
        let mut a = Serializer::new();
        let mut b = Serializer::new();
        let ticked = a.serialize(f);
        let mut packed = BitVec::new();
        b.serialize_into(f, &mut packed);
        assert_eq!(packed.to_bools(), ticked);
        // FSM end state matches too.
        assert_eq!(a, b);
        assert_eq!(b.frames_sent(), 1);
        assert!(!b.active);
        // Appending a second frame continues the same stream.
        b.serialize_into(f, &mut packed);
        assert_eq!(packed.len(), 2 * FRAME_BITS);
    }

    #[test]
    fn reload_mid_frame_restarts() {
        let mut s = Serializer::new();
        s.load([0xFFFF_FFFF; LANES]);
        for _ in 0..10 {
            let _ = s.tick();
        }
        s.load([0x0000_0000; LANES]);
        assert_eq!(s.tick(), Some(false), "restarted with new data");
    }

    #[test]
    fn back_to_back_frames() {
        let mut s = Serializer::new();
        let f1 = test_frame();
        let mut f2 = test_frame();
        f2[0] = !f2[0];
        let b1 = s.serialize(f1);
        let b2 = s.serialize(f2);
        assert_eq!(bits_to_frame(&b1), f1);
        assert_eq!(bits_to_frame(&b2), f2);
        assert_eq!(s.frames_sent(), 2);
    }

    #[test]
    fn rtl_matches_behavioural_model() {
        let design = serializer_design();
        let mut sim = IrSim::new(&design);
        let f = test_frame();
        let bits = frame_to_bits(&f);
        // Find port signals.
        let load = design
            .input_names()
            .iter()
            .position(|n| n == "load")
            .expect("has load");
        let _ = load;
        // Drive: load=1 with data for one cycle, then shift for 256.
        sim.set_by_name("load", true);
        for (i, &b) in bits.iter().enumerate() {
            sim.set_by_name(&format!("data[{i}]"), b);
        }
        sim.tick();
        sim.set_by_name("load", false);
        let (out_sig, busy_sig) = {
            let outs = design.outputs();
            (
                outs.iter().find(|(n, _)| n == "serial_out").expect("out").1,
                outs.iter().find(|(n, _)| n == "busy").expect("busy").1,
            )
        };
        let mut got = Vec::new();
        for _ in 0..FRAME_BITS {
            assert!(sim.get(busy_sig), "busy through the frame");
            got.push(sim.get(out_sig));
            sim.tick();
        }
        assert_eq!(got, bits, "RTL output must match the behavioural FSM");
        assert!(!sim.get(busy_sig), "idle after the frame");
    }

    #[test]
    fn rtl_synthesizes_to_flop_dominated_netlist() {
        let design = serializer_design();
        let lib = openserdes_pdk::library::Library::sky130(openserdes_pdk::corner::Pvt::nominal());
        let res = openserdes_flow::synthesize(&design, &lib).expect("synthesizable");
        // 256 bank + 8 counter + 1 active = 265 flops.
        assert_eq!(res.netlist.flop_count(), 265);
        assert!(
            res.netlist.cell_count() > 500,
            "bank muxes + mux tree: {} cells",
            res.netlist.cell_count()
        );
    }

    #[test]
    #[should_panic(expected = "a frame is 256 bits")]
    fn wrong_bit_count_rejected() {
        let _ = bits_to_frame(&[true; 100]);
    }
}
