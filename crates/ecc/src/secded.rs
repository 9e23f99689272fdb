//! Hamming (72,64) SECDED — single-error-correct, double-error-detect.
//!
//! The TLC baseline \[26\] protects each 64-bit word with the classic
//! (72,64) extended Hamming code used by DDR ECC DIMMs: 7 Hamming parity
//! bits plus one overall parity bit.

/// Outcome of a SECDED decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecdedOutcome {
    /// No error.
    Clean,
    /// One bit corrected (position within the 72-bit word).
    Corrected(usize),
    /// Double error detected (uncorrectable).
    DoubleError,
}

/// The (72,64) SECDED codec.
///
/// ```
/// use readduo_ecc::Secded;
/// use readduo_ecc::secded::SecdedOutcome;
/// let code = Secded::new();
/// let mut word = code.encode(0xDEAD_BEEF_CAFE_F00D);
/// word ^= 1 << 17;
/// let (data, out) = code.decode(word);
/// assert_eq!(out, SecdedOutcome::Corrected(17));
/// assert_eq!(data, 0xDEAD_BEEF_CAFE_F00D);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Secded {
    _private: (),
}

impl Secded {
    /// Creates the codec.
    pub fn new() -> Self {
        Self { _private: () }
    }

    /// Total codeword bits (72).
    pub const CODEWORD_BITS: usize = 72;
    /// Data bits per word (64).
    pub const DATA_BITS: usize = 64;
    /// Check bits (7 Hamming + 1 overall parity).
    pub const CHECK_BITS: usize = 8;

    /// Bit layout: bits 0..64 data, 64..71 Hamming checks, 71 overall
    /// parity. Hamming check `c` covers every data position whose
    /// *augmented index* (index+1 mapped over 1..=72 skipping powers of two
    /// is the classical construction; we use the simpler matrix form below).
    ///
    /// Check bit `c` covers data bit `d` iff bit `c` of `(d + shift(d))` is
    /// set, where the shift skips check positions — implemented by mapping
    /// data bit `d` to Hamming position `h(d)`, the `d`-th non-power-of-two
    /// in `3..`.
    fn hamming_position(d: usize) -> u32 {
        // Enumerate positions 3,5,6,7,9,... skipping powers of two.
        let mut pos = 2u32;
        let mut remaining = d as i64;
        loop {
            pos += 1;
            if pos.is_power_of_two() {
                continue;
            }
            if remaining == 0 {
                return pos;
            }
            remaining -= 1;
        }
    }

    /// Encodes 64 data bits into a 72-bit codeword (returned in a `u128`).
    pub fn encode(&self, data: u64) -> u128 {
        let mut cw = data as u128;
        let mut checks = 0u32;
        for d in 0..64 {
            if (data >> d) & 1 == 1 {
                checks ^= Self::hamming_position(d);
            }
        }
        for c in 0..7 {
            if (checks >> c) & 1 == 1 {
                cw |= 1u128 << (64 + c);
            }
        }
        // Overall parity over the first 71 bits.
        if (cw.count_ones() & 1) == 1 {
            cw |= 1u128 << 71;
        }
        cw
    }

    /// Decodes a 72-bit codeword; returns the (possibly corrected) data and
    /// the outcome.
    pub fn decode(&self, cw: u128) -> (u64, SecdedOutcome) {
        let data = cw as u64;
        let mut syndrome = 0u32;
        for d in 0..64 {
            if (data >> d) & 1 == 1 {
                syndrome ^= Self::hamming_position(d);
            }
        }
        for c in 0..7 {
            if (cw >> (64 + c)) & 1 == 1 {
                syndrome ^= 1 << c;
            }
        }
        let parity_ok = cw.count_ones().is_multiple_of(2);
        match (syndrome, parity_ok) {
            (0, true) => (data, SecdedOutcome::Clean),
            (0, false) => {
                // Overall parity bit itself flipped.
                (data, SecdedOutcome::Corrected(71))
            }
            (s, false) => {
                // Single error at Hamming position s: locate which stored
                // bit that is.
                if s.is_power_of_two() {
                    // A check bit flipped: data is intact.
                    let c = s.trailing_zeros() as usize;
                    return (data, SecdedOutcome::Corrected(64 + c));
                }
                for d in 0..64 {
                    if Self::hamming_position(d) == s {
                        return (data ^ (1 << d), SecdedOutcome::Corrected(d));
                    }
                }
                // Syndrome points outside the word: treat as double error.
                (data, SecdedOutcome::DoubleError)
            }
            (_, true) => (data, SecdedOutcome::DoubleError),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn clean_round_trip() {
        let code = Secded::new();
        for data in [0u64, u64::MAX, 0xDEAD_BEEF, 0x0123_4567_89AB_CDEF] {
            let cw = code.encode(data);
            let (d, out) = code.decode(cw);
            assert_eq!(out, SecdedOutcome::Clean);
            assert_eq!(d, data);
        }
    }

    #[test]
    fn corrects_every_single_bit_flip() {
        let code = Secded::new();
        let data = 0xA5A5_5A5A_F0F0_0F0Fu64;
        let cw = code.encode(data);
        for bit in 0..72 {
            let corrupted = cw ^ (1u128 << bit);
            let (d, out) = code.decode(corrupted);
            assert!(
                matches!(out, SecdedOutcome::Corrected(p) if p == bit),
                "bit {bit}: {out:?}"
            );
            assert_eq!(d, data, "bit {bit}");
        }
    }

    #[test]
    fn detects_every_double_bit_flip_sampled() {
        let code = Secded::new();
        let mut rng = StdRng::seed_from_u64(7);
        let data: u64 = rng.gen();
        let cw = code.encode(data);
        for _ in 0..500 {
            let a = rng.gen_range(0..72);
            let mut b = rng.gen_range(0..72);
            while b == a {
                b = rng.gen_range(0..72);
            }
            let corrupted = cw ^ (1u128 << a) ^ (1u128 << b);
            let (_, out) = code.decode(corrupted);
            assert_eq!(out, SecdedOutcome::DoubleError, "bits {a},{b}");
        }
    }

    #[test]
    fn codeword_has_even_parity() {
        let code = Secded::new();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..100 {
            let cw = code.encode(rng.gen());
            assert_eq!(cw.count_ones() % 2, 0);
            assert_eq!(cw >> 72, 0, "no bits above 72");
        }
    }
}
