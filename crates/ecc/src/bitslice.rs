//! 64-lane bitsliced BCH pattern decoding.
//!
//! Fault injection decodes an error *pattern* per read ([`Bch::
//! decode_error_pattern`]). The expensive part — walking every error bit
//! and accumulating its `2t` syndrome contributions, then proving most
//! words clean — is a pile of independent GF(2) XORs, the shape
//! bitslicing is built for: this module packs **64 codewords into `u64`
//! lanes** (bit `j` of every machine word belongs to codeword `j`) so one
//! XOR advances all 64 decodes at once.
//!
//! No simulation or Monte-Carlo path calls it: even on `fault_mc`'s dense
//! aged mix it is slower than the scalar decoder (DESIGN "Bitsliced BCH
//! decode"). It remains only as the repository benchmark's
//! `ecc.bch_bitslice_ns_per_cw` micro kernel.
//!
//! The pipeline:
//!
//! 1. scatter the patterns into a positions × lanes bit matrix,
//! 2. accumulate bitsliced syndromes — per *touched* position, XOR its
//!    precomputed `α^{(k+1)·p}` contribution masks into the 2t×m sliced
//!    syndrome words (cost scales with errors present, not codeword
//!    length),
//! 3. screen: lanes whose sliced syndromes are all zero are finished
//!    (`Clean`, or `Miscorrected` for a nonzero pattern that *is* another
//!    codeword),
//! 4. the rare dirty lanes gather their 16 scalar syndromes out of the
//!    slices and finish with the same Berlekamp–Massey + Chien + verify
//!    steps as the scalar decoder.
//!
//! The scalar [`Bch::decode_error_pattern`] is the oracle; a property
//! suite pins every lane of this decoder to it bit for bit.
//!
//! [`Bch::decode_error_pattern`]: crate::Bch::decode_error_pattern

use crate::bch::{Bch, PatternOutcome};

/// Codewords processed per batch: one per bit of the `u64` lane masks.
pub const LANES: usize = 64;

/// A bitsliced 64-lane decoder for the error patterns of one [`Bch`] code.
///
/// Construction precomputes, for every stored codeword bit position `p`,
/// the `2t` syndrome contributions `α^{(i+1)·poly_position(p)}` the scalar
/// decoder would look up per set bit — the batch decoder only XORs them.
#[derive(Debug, Clone)]
pub struct BchBitslice {
    code: Bch,
    /// `contrib[p·2t + i] = α^{(i+1)·poly_position(p)}`.
    contrib: Vec<u32>,
}

impl BchBitslice {
    /// Builds the bitsliced decoder for `code`.
    pub fn new(code: &Bch) -> Self {
        let two_t = 2 * code.correction_capability();
        let n = code.codeword_bits();
        let mut contrib = Vec::with_capacity(n * two_t);
        for bit in 0..n {
            let p = code.poly_position(bit) as u64;
            for i in 0..two_t {
                contrib.push(code.field.alpha_pow((i as u64 + 1) * p));
            }
        }
        Self { code: code.clone(), contrib }
    }

    /// Decodes up to [`LANES`] error patterns in one bitsliced pass.
    ///
    /// `patterns[j]` is the set of flipped codeword bit positions of lane
    /// `j`, exactly as [`Bch::decode_error_pattern`] takes them; the
    /// returned vector holds that oracle's verdict for every lane, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] patterns are passed, or any pattern
    /// holds an out-of-range or repeated position.
    ///
    /// [`Bch::decode_error_pattern`]: crate::Bch::decode_error_pattern
    pub fn decode_patterns(&self, patterns: &[&[u16]]) -> Vec<PatternOutcome> {
        assert!(
            patterns.len() <= LANES,
            "at most {LANES} lanes per batch, got {}",
            patterns.len()
        );
        let n = self.code.codeword_bits();
        let two_t = 2 * self.code.correction_capability();
        let m = self.code.field.degree() as usize;

        // 1. Scatter: lane-mask per codeword position, sparse via `touched`.
        let mut slice = vec![0u64; n];
        let mut touched: Vec<u16> = Vec::new();
        for (lane, pat) in patterns.iter().enumerate() {
            let bit = 1u64 << lane;
            for &p in *pat {
                assert!(
                    (p as usize) < n,
                    "error position {p} outside {n}-bit codeword"
                );
                assert!(slice[p as usize] & bit == 0, "error position {p} repeated");
                if slice[p as usize] == 0 {
                    touched.push(p);
                }
                slice[p as usize] |= bit;
            }
        }

        // 2. Bitsliced syndromes: synd[i·m + b] holds bit b of syndrome
        // S_{i+1} across all lanes.
        let mut synd = vec![0u64; two_t * m];
        for &p in &touched {
            let mask = slice[p as usize];
            let row = &self.contrib[p as usize * two_t..][..two_t];
            for (i, &c) in row.iter().enumerate() {
                let mut c = c;
                while c != 0 {
                    let b = c.trailing_zeros() as usize;
                    synd[i * m + b] ^= mask;
                    c &= c - 1;
                }
            }
        }

        // 3. Screen: a lane is syndrome-free iff no sliced word holds its
        // bit.
        let mut dirty = 0u64;
        for &w in &synd {
            dirty |= w;
        }

        patterns
            .iter()
            .enumerate()
            .map(|(lane, pat)| {
                if dirty & (1u64 << lane) == 0 {
                    // All-zero syndromes: the scalar decoder reports Clean,
                    // which decode_error_pattern maps to Miscorrected when
                    // the (invisible) pattern is nonempty — it *is* another
                    // codeword.
                    return if pat.is_empty() {
                        PatternOutcome::Clean
                    } else {
                        PatternOutcome::Miscorrected
                    };
                }
                // 4. Gather this lane's scalar syndromes from the slices.
                let mut s = vec![0u32; two_t];
                for (i, slot) in s.iter_mut().enumerate() {
                    for b in 0..m {
                        *slot |= (((synd[i * m + b] >> lane) & 1) as u32) << b;
                    }
                }
                self.finish_lane(pat, &s, &slice, 1u64 << lane)
            })
            .collect()
    }

    /// Completes one dirty lane: the Berlekamp–Massey / Chien / verify
    /// tail of the scalar decoder, fed the syndromes gathered from the
    /// slices. Mirrors `Bch::decode` + `decode_error_pattern` step for
    /// step; the post-correction re-syndrome uses linearity (XOR of the
    /// flipped positions' contributions) instead of re-walking a word,
    /// which is value-identical because syndromes are GF sums over set
    /// bits.
    fn finish_lane(
        &self,
        pat: &[u16],
        synd: &[u32],
        slice: &[u64],
        lane_bit: u64,
    ) -> PatternOutcome {
        let code = &self.code;
        let t = code.correction_capability();
        let two_t = 2 * t;
        let Some(sigma) = code.berlekamp_massey(synd) else {
            return PatternOutcome::Detected;
        };
        let deg = sigma.len() - 1;
        if deg == 0 || deg > t {
            return PatternOutcome::Detected;
        }
        // Chien search over the stored positions only.
        let n_natural = code.field.order() as u64;
        let mut flips: Vec<u16> = Vec::with_capacity(deg);
        for poly_pos in 0..code.codeword_bits() {
            let x = code.field.alpha_pow(n_natural - poly_pos as u64 % n_natural);
            if code.eval_gf_poly(&sigma, x) == 0 {
                flips.push(code.bit_position(poly_pos) as u16);
            }
        }
        if flips.len() != deg {
            return PatternOutcome::Detected;
        }
        // Verify the corrected word: residual syndromes after the flips.
        let mut resid = synd.to_vec();
        for &b in &flips {
            let row = &self.contrib[b as usize * two_t..][..two_t];
            for (r, &c) in resid.iter_mut().zip(row) {
                *r ^= c;
            }
        }
        if resid.iter().any(|&s| s != 0) {
            return PatternOutcome::Detected;
        }
        // Corrected onto the true (zero) word iff the flip set equals the
        // injected pattern; any other codeword is silent corruption.
        let exact = flips.len() == pat.len()
            && flips.iter().all(|&b| slice[b as usize] & lane_bit != 0);
        if exact {
            PatternOutcome::Corrected(deg)
        } else {
            PatternOutcome::Miscorrected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, Rng, SeedableRng};

    fn paper_code() -> Bch {
        Bch::new(10, 8, 512)
    }

    fn random_pattern(rng: &mut StdRng, len: usize, nbits: usize) -> Vec<u16> {
        let mut pat: Vec<u16> = Vec::new();
        while pat.len() < len {
            let p = rng.gen_range(0..nbits) as u16;
            if !pat.contains(&p) {
                pat.push(p);
            }
        }
        pat
    }

    #[test]
    fn all_lanes_match_scalar_oracle() {
        let code = paper_code();
        let sliced = BchBitslice::new(&code);
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..8 {
            // Mix of error weights across the full outcome spectrum:
            // clean, correctable, detected, and beyond-2t chaos.
            let pats: Vec<Vec<u16>> = (0..LANES)
                .map(|lane| {
                    let w = match lane % 8 {
                        0 => 0,
                        1 => 1,
                        2 => rng.gen_range(2..=8),
                        3 => rng.gen_range(9..=16),
                        4 => 17,
                        5 => rng.gen_range(18..=40),
                        6 => rng.gen_range(0..=2),
                        _ => rng.gen_range(0..=60),
                    };
                    random_pattern(&mut rng, w, code.codeword_bits())
                })
                .collect();
            let refs: Vec<&[u16]> = pats.iter().map(Vec::as_slice).collect();
            let batch = sliced.decode_patterns(&refs);
            for (lane, pat) in pats.iter().enumerate() {
                assert_eq!(
                    batch[lane],
                    code.decode_error_pattern(pat),
                    "round {round} lane {lane}: {pat:?}"
                );
            }
        }
    }

    #[test]
    fn partial_batches_are_fine() {
        let code = paper_code();
        let sliced = BchBitslice::new(&code);
        let one: &[u16] = &[5, 100, 591];
        assert_eq!(
            sliced.decode_patterns(&[one]),
            vec![PatternOutcome::Corrected(3)]
        );
        assert_eq!(sliced.decode_patterns(&[]), Vec::new());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_position_rejected() {
        let code = paper_code();
        let bad: &[u16] = &[592];
        let _ = BchBitslice::new(&code).decode_patterns(&[bad]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn repeated_position_rejected() {
        let code = paper_code();
        let bad: &[u16] = &[3, 3];
        let _ = BchBitslice::new(&code).decode_patterns(&[bad]);
    }

    #[test]
    fn smaller_code_lanes_match_too() {
        let code = Bch::new(10, 4, 128);
        let sliced = BchBitslice::new(&code);
        let mut rng = StdRng::seed_from_u64(43);
        let pats: Vec<Vec<u16>> = (0..LANES)
            .map(|_| {
                let w = rng.gen_range(0..=10);
                random_pattern(&mut rng, w, code.codeword_bits())
            })
            .collect();
        let refs: Vec<&[u16]> = pats.iter().map(Vec::as_slice).collect();
        for (lane, out) in sliced.decode_patterns(&refs).into_iter().enumerate() {
            assert_eq!(out, code.decode_error_pattern(&pats[lane]), "lane {lane}");
        }
    }
}
