//! The 72-bit link codeword and bit-flip helpers.

/// Number of bits in a link codeword (64 data + 7 Hamming parity + 1 overall
/// parity).
pub const CODEWORD_BITS: usize = 72;

/// Number of data bits protected per codeword.
pub const DATA_BITS: usize = 64;

/// A 72-bit codeword stored in the low bits of a `u128`.
///
/// Bit index 0 is the overall-parity bit; indices 1..72 follow the classic
/// Hamming positional numbering (powers of two are parity positions). The
/// fault-injection layers (transient, permanent, trojan) flip bits of this
/// value while it is "on the wire".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Codeword(pub u128);

impl Codeword {
    /// Mask of valid bits.
    pub const MASK: u128 = (1u128 << CODEWORD_BITS) - 1;

    #[inline]
    /// Value of bit `i` of the codeword.
    pub fn bit(self, i: usize) -> bool {
        debug_assert!(i < CODEWORD_BITS);
        (self.0 >> i) & 1 == 1
    }

    /// Number of set bits.
    #[inline]
    pub fn weight(self) -> u32 {
        self.0.count_ones()
    }
}

/// Flip a single bit of a codeword.
#[inline]
pub fn flip_bit(cw: Codeword, i: usize) -> Codeword {
    debug_assert!(i < CODEWORD_BITS, "bit index out of the 72-bit wire");
    Codeword(cw.0 ^ (1u128 << i))
}

/// Flip every bit set in `mask` (which must lie within the 72-bit wire).
#[inline]
pub fn flip_bits(cw: Codeword, mask: u128) -> Codeword {
    debug_assert_eq!(mask & !Codeword::MASK, 0, "mask exceeds the wire width");
    Codeword(cw.0 ^ mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involutive() {
        let cw = Codeword(0xDEAD_BEEF);
        for i in 0..CODEWORD_BITS {
            assert_eq!(flip_bit(flip_bit(cw, i), i), cw);
        }
    }

    #[test]
    fn flip_bits_xors_mask() {
        let cw = Codeword(0b1010);
        assert_eq!(flip_bits(cw, 0b0110).0, 0b1100);
    }

    #[test]
    fn weight_counts_set_bits() {
        assert_eq!(Codeword(0).weight(), 0);
        assert_eq!(Codeword(0b1011).weight(), 3);
    }
}
