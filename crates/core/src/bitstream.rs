//! Packed bitstreams for the link's hot path.
//!
//! Monte-Carlo link scoring spends its time comparing and shuttling
//! multi-million-bit streams. A `Vec<bool>` burns one byte and one
//! branch per bit; [`BitVec`] packs 64 bits per `u64` word so that
//! error counting collapses to XOR + popcount and frame I/O moves
//! 32-bit lane words at a time.
//!
//! Layout: bit `i` lives in word `i / 64` at bit position `i % 64`
//! (little-endian bit order, matching the serializer's LSB-first lane
//! order — `frame_to_bits` index `i` is `BitVec` index `i`). All bits at
//! positions `>= len` in the last word are kept zero, which makes
//! word-level equality, popcounts and windowed reads safe without
//! masking at every call site.

/// A growable bit vector packed 64 bits per word.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bitstream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bitstream with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no bits have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words (the last word's unused high bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Appends one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            *self.words.last_mut().expect("just ensured") |= 1u64 << (self.len % 64);
        }
        self.len += 1;
    }

    /// Appends the `nbits` least-significant bits of `value`, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 64`.
    pub fn push_word(&mut self, value: u64, nbits: usize) {
        assert!(nbits <= 64, "at most one word per push");
        if nbits == 0 {
            return;
        }
        let value = if nbits == 64 {
            value
        } else {
            value & ((1u64 << nbits) - 1)
        };
        let s = self.len % 64;
        if s == 0 {
            self.words.push(value);
        } else {
            *self.words.last_mut().expect("non-empty at s > 0") |= value << s;
            if s + nbits > 64 {
                self.words.push(value >> (64 - s));
            }
        }
        self.len += nbits;
    }

    /// Appends `count` copies of `bit`.
    pub(crate) fn push_run(&mut self, bit: bool, mut count: usize) {
        let word = if bit { u64::MAX } else { 0 };
        while count > 0 {
            let take = count.min(64);
            self.push_word(word, take);
            count -= take;
        }
    }

    /// The bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(index < self.len, "bit {index} of {}", self.len);
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// Sets the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, bit: bool) {
        assert!(index < self.len, "bit {index} of {}", self.len);
        let mask = 1u64 << (index % 64);
        if bit {
            self.words[index / 64] |= mask;
        } else {
            self.words[index / 64] &= !mask;
        }
    }

    /// Flips the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn toggle(&mut self, index: usize) {
        assert!(index < self.len, "bit {index} of {}", self.len);
        self.words[index / 64] ^= 1u64 << (index % 64);
    }

    /// Reads 64 bits starting at bit `offset` (bits beyond `len` read as
    /// zero), packed LSB-first into the returned word.
    pub fn window64(&self, offset: usize) -> u64 {
        let w = offset / 64;
        let s = offset % 64;
        if w >= self.words.len() {
            return 0;
        }
        let mut out = self.words[w] >> s;
        if s > 0 && w + 1 < self.words.len() {
            out |= self.words[w + 1] << (64 - s);
        }
        out
    }

    /// Reads 32 bits starting at bit `offset` (bits beyond `len` read as
    /// zero).
    pub fn window32(&self, offset: usize) -> u32 {
        self.window64(offset) as u32
    }

    /// Counts mismatching bits between `self[self_offset ..
    /// self_offset + bits]` and `other[other_offset .. other_offset +
    /// bits]` — XOR + popcount, 64 bits per step.
    ///
    /// # Panics
    ///
    /// Panics if either range runs past its stream.
    pub fn xor_errors(
        &self,
        self_offset: usize,
        other: &BitVec,
        other_offset: usize,
        bits: usize,
    ) -> u64 {
        assert!(self_offset + bits <= self.len, "self range out of bounds");
        assert!(
            other_offset + bits <= other.len,
            "other range out of bounds"
        );
        let mut errors = 0u64;
        let mut done = 0usize;
        while done < bits {
            let chunk = (bits - done).min(64);
            let mut x = self.window64(self_offset + done) ^ other.window64(other_offset + done);
            if chunk < 64 {
                x &= (1u64 << chunk) - 1;
            }
            errors += x.count_ones() as u64;
            done += chunk;
        }
        errors
    }

    /// Builds a packed stream from a slice of bools.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut bv = Self::with_capacity(bits.len());
        for chunk in bits.chunks(64) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << i;
            }
            bv.push_word(w, chunk.len());
        }
        bv
    }

    /// Unpacks into a slice of bools (the slow interchange format — for
    /// tests and the non-hot APIs).
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Iterates the bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut bv = BitVec::with_capacity(iter.size_hint().0);
        for b in iter {
            bv.push(b);
        }
        bv
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for b in iter {
            self.push(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Set bits over the whole backing words, so a stray tail bit counts.
    fn count_ones(bv: &BitVec) -> u64 {
        bv.words().iter().map(|w| w.count_ones() as u64).sum()
    }

    #[test]
    fn push_and_get_round_trip() {
        let pattern: Vec<bool> = (0..200).map(|i| i % 3 == 0 || i % 7 == 0).collect();
        let mut bv = BitVec::new();
        for &b in &pattern {
            bv.push(b);
        }
        assert_eq!(bv.len(), 200);
        assert!(!bv.is_empty());
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bv.get(i), b, "bit {i}");
        }
        assert_eq!(bv.to_bools(), pattern);
    }

    #[test]
    fn from_bools_matches_pushes() {
        let pattern: Vec<bool> = (0..131).map(|i| i % 5 < 2).collect();
        let a = BitVec::from_bools(&pattern);
        let b: BitVec = pattern.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(
            count_ones(&a),
            pattern.iter().filter(|&&x| x).count() as u64
        );
    }

    #[test]
    fn push_word_crosses_word_boundaries() {
        let mut bv = BitVec::new();
        bv.push_word(0b1011, 4);
        bv.push_word(u64::MAX, 64); // straddles the first word boundary
        bv.push_word(0b10, 3);
        assert_eq!(bv.len(), 71);
        let mut expect = vec![true, true, false, true];
        expect.extend(std::iter::repeat_n(true, 64));
        expect.extend([false, true, false]);
        assert_eq!(bv.to_bools(), expect);
    }

    #[test]
    fn push_word_masks_high_bits() {
        let mut bv = BitVec::new();
        bv.push_word(u64::MAX, 3);
        assert_eq!(bv.len(), 3);
        assert_eq!(count_ones(&bv), 3);
        assert_eq!(bv.words()[0], 0b111, "tail bits must stay zero");
    }

    #[test]
    fn window_reads_at_odd_offsets() {
        let pattern: Vec<bool> = (0..300).map(|i| (i * 17 + 3) % 5 == 0).collect();
        let bv = BitVec::from_bools(&pattern);
        for off in [0usize, 1, 31, 63, 64, 65, 100, 250] {
            let w = bv.window64(off);
            for j in 0..64 {
                let expect = pattern.get(off + j).copied().unwrap_or(false);
                assert_eq!(w >> j & 1 == 1, expect, "offset {off} bit {j}");
            }
            assert_eq!(bv.window32(off), bv.window64(off) as u32);
        }
    }

    #[test]
    fn xor_errors_counts_mismatches_at_offsets() {
        let a: Vec<bool> = (0..500).map(|i| i % 2 == 0).collect();
        let mut b = a.clone();
        // 7 mismatches within [100, 400).
        for &i in &[100usize, 163, 200, 264, 300, 363, 399] {
            b[i] = !b[i];
        }
        let pa = BitVec::from_bools(&a);
        let pb = BitVec::from_bools(&b);
        assert_eq!(pa.xor_errors(100, &pb, 100, 300), 7);
        assert_eq!(pa.xor_errors(0, &pb, 0, 100), 0);
        // Shifted self-comparison: a vs a lagged by 1 differs everywhere
        // (alternating pattern).
        assert_eq!(pa.xor_errors(1, &pa, 0, 400), 400);
        // Equal ranges across word boundaries.
        assert_eq!(pa.xor_errors(3, &pa, 3, 497), 0);
    }

    #[test]
    fn set_and_toggle() {
        let mut bv = BitVec::from_bools(&[false; 70]);
        bv.set(69, true);
        bv.toggle(0);
        bv.toggle(64);
        assert_eq!(count_ones(&bv), 3);
        bv.toggle(64);
        bv.set(69, false);
        assert_eq!(count_ones(&bv), 1);
        assert!(bv.get(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn xor_errors_rejects_overrun() {
        let a = BitVec::from_bools(&[true; 10]);
        let _ = a.xor_errors(5, &a, 0, 6);
    }

    #[test]
    fn equality_ignores_capacity_not_content() {
        let mut a = BitVec::with_capacity(1000);
        a.extend([true, false, true]);
        let b = BitVec::from_bools(&[true, false, true]);
        assert_eq!(a, b);
        let c = BitVec::from_bools(&[true, false, false]);
        assert_ne!(a, c);
    }
}
