//! Binary BCH codec with decoupled detection and correction.
//!
//! A `t`-error-correcting BCH code over GF(2^m) has designed distance
//! `d = 2t + 1`: any pattern of up to `t` errors is corrected, and any
//! pattern of up to `2t` errors is *detected* (the decoder recognises an
//! uncorrectable word instead of mis-correcting). With the overall parity
//! bit the paper's layout adds per line, detection extends to `2t + 1 = 17`
//! for BCH-8 — the threshold ReadDuo-Hybrid uses to decide that even
//! M-sensing cannot help. That `17` policy constant lives in
//! `readduo-core`; this module provides the honest codec underneath.

use crate::bitvec::BitVec;
use crate::gf::GfField;
use crate::poly::BinPoly;

/// Outcome of a BCH decode attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// All syndromes were zero — the word is a codeword.
    Clean,
    /// Errors were found and corrected in place (count attached).
    Corrected(usize),
    /// Errors were detected but exceed the correction capability; the word
    /// is unchanged.
    Detected,
}

/// Outcome of decoding a known error *pattern* (see
/// [`Bch::decode_error_pattern`]). Because the true codeword is known, the
/// miscorrection case — invisible to a real decoder — is reported exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternOutcome {
    /// The pattern was empty: the read was already correct.
    Clean,
    /// The decoder restored the true codeword, fixing this many bits.
    Corrected(usize),
    /// The decoder flagged the word uncorrectable (detected-uncorrectable:
    /// the host knows the data is bad).
    Detected,
    /// The decoder accepted or produced a *wrong* codeword — silent data
    /// corruption, the failure mode ReadDuo's detect/correct decoupling is
    /// designed to make vanishingly rare.
    Miscorrected,
}

/// A shortened binary BCH code.
///
/// Codeword layout: `data_bits` data bits followed by `parity_bits` parity
/// bits. The code is shortened from natural length `2^m − 1`; the
/// shortened-away (always-zero) positions are never transmitted or stored.
#[derive(Debug, Clone)]
pub struct Bch {
    pub(crate) field: GfField,
    pub(crate) t: u32,
    data_bits: usize,
    parity_bits: usize,
    generator: BinPoly,
}

impl Bch {
    /// Builds a `t`-error-correcting BCH code over GF(2^m) protecting
    /// `data_bits` data bits.
    ///
    /// # Panics
    ///
    /// Panics if the parameters do not fit: `data_bits + parity` must not
    /// exceed the natural length `2^m − 1`.
    ///
    /// ```
    /// use readduo_ecc::Bch;
    /// let code = Bch::new(10, 8, 512);
    /// assert_eq!(code.parity_bits(), 80);
    /// assert_eq!(code.codeword_bits(), 592);
    /// assert_eq!(code.correction_capability(), 8);
    /// ```
    pub fn new(m: u32, t: u32, data_bits: usize) -> Self {
        let field = GfField::new(m);
        let generator = BinPoly::bch_generator(&field, t);
        let parity_bits = generator.degree().expect("generator is nonzero");
        let n = data_bits + parity_bits;
        assert!(
            n <= field.order() as usize,
            "BCH(m={m}, t={t}) supports at most {} bits, requested {n}",
            field.order()
        );
        Self {
            field,
            t,
            data_bits,
            parity_bits,
            generator,
        }
    }

    /// Number of protected data bits.
    pub fn data_bits(&self) -> usize {
        self.data_bits
    }

    /// Number of parity bits (`deg g`, typically `m·t`).
    pub fn parity_bits(&self) -> usize {
        self.parity_bits
    }

    /// Stored codeword length in bits.
    pub fn codeword_bits(&self) -> usize {
        self.data_bits + self.parity_bits
    }

    /// Maximum number of errors corrected (`t`).
    pub fn correction_capability(&self) -> usize {
        self.t as usize
    }

    /// Systematically encodes `data` (MSB-first bytes; `data.len()·8` must
    /// equal [`data_bits`]).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    ///
    /// [`data_bits`]: Bch::data_bits
    pub fn encode(&self, data: &[u8]) -> BitVec {
        assert_eq!(
            data.len() * 8,
            self.data_bits,
            "data must be exactly {} bits",
            self.data_bits
        );
        let mut cw = BitVec::zeros(self.codeword_bits());
        let data_bits = BitVec::from_bytes(data);
        // Message polynomial: data bit i ↦ coefficient of x^(parity + i).
        let mut shifted = BinPoly::zero();
        for i in 0..self.data_bits {
            if data_bits.get(i) {
                shifted = shifted.add(&BinPoly::from_coeffs(&[(self.parity_bits + i) as u32]));
                cw.set(i, true);
            }
        }
        // Parity = x^r·m(x) mod g(x).
        let rem = shifted.rem(&self.generator);
        for j in 0..self.parity_bits {
            if rem.coeff(j) {
                cw.set(self.data_bits + j, true);
            }
        }
        cw
    }

    /// Extracts the data bytes from a (decoded) codeword.
    pub fn extract_data(&self, cw: &BitVec) -> Vec<u8> {
        let mut bits = BitVec::zeros(self.data_bits);
        for i in 0..self.data_bits {
            bits.set(i, cw.get(i));
        }
        bits.to_bytes()
    }

    /// Polynomial coefficient position of codeword bit `i`.
    ///
    /// Data bit `i` is coefficient `parity + i`; parity bit `j` (stored
    /// after the data) is coefficient `j`.
    pub(crate) fn poly_position(&self, bit: usize) -> usize {
        if bit < self.data_bits {
            self.parity_bits + bit
        } else {
            bit - self.data_bits
        }
    }

    /// Inverse of [`poly_position`].
    ///
    /// [`poly_position`]: Bch::poly_position
    pub(crate) fn bit_position(&self, poly_pos: usize) -> usize {
        if poly_pos < self.parity_bits {
            self.data_bits + poly_pos
        } else {
            poly_pos - self.parity_bits
        }
    }

    /// Computes the 2t syndromes `S_i = r(α^i)`.
    fn syndromes(&self, cw: &BitVec) -> Vec<u32> {
        let mut s = vec![0u32; 2 * self.t as usize];
        for bit in cw.ones() {
            let p = self.poly_position(bit) as u64;
            for (i, slot) in s.iter_mut().enumerate() {
                *slot ^= self.field.alpha_pow((i as u64 + 1) * p);
            }
        }
        s
    }

    /// Decodes in place.
    ///
    /// Returns [`DecodeOutcome::Clean`] if the word is already a codeword,
    /// [`DecodeOutcome::Corrected`] after flipping up to `t` erroneous bits,
    /// or [`DecodeOutcome::Detected`] when the error pattern is recognised
    /// as uncorrectable (the word is left untouched). Patterns of more than
    /// `2t` errors may be mis-corrected or even pass as clean — that is
    /// fundamental to the code, and exactly the failure window the paper's
    /// reliability analysis budgets for.
    ///
    /// # Panics
    ///
    /// Panics if `cw` has the wrong length.
    pub fn decode(&self, cw: &mut BitVec) -> DecodeOutcome {
        assert_eq!(
            cw.len(),
            self.codeword_bits(),
            "codeword must be {} bits",
            self.codeword_bits()
        );
        let synd = self.syndromes(cw);
        if synd.iter().all(|&s| s == 0) {
            return DecodeOutcome::Clean;
        }
        // Berlekamp–Massey: find the error locator σ(x).
        let sigma = match self.berlekamp_massey(&synd) {
            Some(s) => s,
            None => return DecodeOutcome::Detected,
        };
        let deg = sigma.len() - 1;
        if deg == 0 || deg > self.t as usize {
            return DecodeOutcome::Detected;
        }
        // Chien search over the *stored* positions only; roots landing in
        // the shortened-away region mean the pattern is uncorrectable.
        let mut error_bits = Vec::with_capacity(deg);
        let n_natural = self.field.order() as u64;
        for poly_pos in 0..self.codeword_bits() {
            // σ(α^{-p}) == 0 ⇔ error at polynomial position p.
            let x = self.field.alpha_pow(n_natural - poly_pos as u64 % n_natural);
            if self.eval_gf_poly(&sigma, x) == 0 {
                error_bits.push(self.bit_position(poly_pos));
            }
        }
        if error_bits.len() != deg {
            return DecodeOutcome::Detected;
        }
        for &b in &error_bits {
            cw.flip(b);
        }
        // Safety net: verify the corrected word. A miscorrection onto a
        // non-codeword is downgraded to Detected (and the flips undone).
        if self.syndromes(cw).iter().any(|&s| s != 0) {
            for &b in &error_bits {
                cw.flip(b);
            }
            return DecodeOutcome::Detected;
        }
        DecodeOutcome::Corrected(deg)
    }

    /// Pure detection: are the syndromes nonzero?
    ///
    /// This is the cheap "scan for drift errors" step scrubbing performs
    /// before deciding whether to rewrite a line.
    pub fn detect(&self, cw: &BitVec) -> bool {
        self.syndromes(cw).iter().any(|&s| s != 0)
    }

    /// Decodes an *error pattern* — the set of flipped codeword bit
    /// positions — without materialising data.
    ///
    /// The code is linear, so decoder behaviour depends only on the error
    /// pattern: injecting the flips into the all-zero codeword and
    /// decoding is exactly equivalent to corrupting any real codeword the
    /// same way. This is what fault injection needs (the simulator tracks
    /// errors, not contents), and it also sharpens the verdict: after
    /// decoding we know ground truth (the zero word), so a "successful"
    /// correction that lands on the *wrong* codeword is reported as
    /// [`PatternOutcome::Miscorrected`] — silent corruption — rather than
    /// a success.
    ///
    /// # Panics
    ///
    /// Panics if any position is out of codeword range or repeated.
    pub fn decode_error_pattern(&self, positions: &[u16]) -> PatternOutcome {
        // An empty pattern is the zero codeword: syndromes are zero by
        // construction, so skip materialising the word. This is the
        // overwhelmingly common case under fault injection (young lines
        // return no wrong bits) and the decode consumes no randomness, so
        // the shortcut is observationally identical.
        if positions.is_empty() {
            return PatternOutcome::Clean;
        }
        let mut cw = BitVec::zeros(self.codeword_bits());
        for &p in positions {
            assert!(
                (p as usize) < self.codeword_bits(),
                "error position {p} outside {}-bit codeword",
                self.codeword_bits()
            );
            assert!(!cw.get(p as usize), "error position {p} repeated");
            cw.set(p as usize, true);
        }
        match self.decode(&mut cw) {
            // A nonzero pattern with all-zero syndromes IS another
            // codeword: the errors are invisible and the data is wrong.
            DecodeOutcome::Clean => PatternOutcome::Miscorrected,
            DecodeOutcome::Corrected(n) if cw.count_ones() == 0 => PatternOutcome::Corrected(n),
            // Decoder "corrected" onto a codeword other than the true one.
            DecodeOutcome::Corrected(_) => PatternOutcome::Miscorrected,
            DecodeOutcome::Detected => PatternOutcome::Detected,
        }
    }

    /// Decodes an error pattern with *erasure hints*: positions the
    /// controller knows are untrustworthy (stuck-at bits of worn-out
    /// cells) without knowing their true values.
    ///
    /// Binary errors-and-erasures decoding by the classic two-trial
    /// method, phrased in terms a real controller can execute: trial 0
    /// decodes the word as read (the stuck bits may happen to be right);
    /// if that fails detectably, trial 1 *flips every erased bit* and
    /// decodes again. The residual error counts of the two trials are
    /// `e + w` and `e + (f − w)` — `e` true errors outside the erasures,
    /// `w` of the `f` erased bits wrong as read — so whenever
    /// `e + max(w, f − w) ≤ t` one trial is guaranteed to land on the
    /// true codeword, and in particular `e + f ≤ t` always corrects.
    /// Erasure hints therefore extend reach: a line with `f` stuck bits
    /// and a detectable trial-0 decode can still be recovered where the
    /// plain decoder gave up.
    ///
    /// Returns [`PatternOutcome::Corrected`] with the *total* number of
    /// wrong bits repaired (`errors.len()`, whichever trial succeeded),
    /// [`PatternOutcome::Clean`] iff nothing was wrong,
    /// [`PatternOutcome::Miscorrected`] when the accepted trial landed on
    /// a codeword other than the true one, and
    /// [`PatternOutcome::Detected`] when both trials fail detectably.
    ///
    /// # Panics
    ///
    /// Panics if any error or erasure position is out of codeword range
    /// or repeated within its own list. Errors *may* overlap erasures —
    /// that is the whole point.
    pub fn decode_error_pattern_with_erasures(
        &self,
        errors: &[u16],
        erasures: &[u16],
    ) -> PatternOutcome {
        // Nothing erased: trial 1 would re-decode the same pattern, so the
        // verdict is the plain decode's. Lines without dead cells — nearly
        // every read under fault injection — take this path.
        if erasures.is_empty() {
            return self.decode_error_pattern(errors);
        }
        // Validate both lists (and build trial 1's pattern) up front, so
        // bad inputs panic whether or not the second trial runs.
        let flipped = self.flip_erased(errors, erasures);
        match self.decode_error_pattern(errors) {
            out @ (PatternOutcome::Clean
            | PatternOutcome::Corrected(_)
            | PatternOutcome::Miscorrected) => out,
            PatternOutcome::Detected => match self.decode_error_pattern(&flipped) {
                // Trial 1 reaching the true codeword repairs every wrong
                // bit: the erasure flips plus the decoder's own flips
                // cancel `errors` exactly. (`Clean` here means the flips
                // alone did it: every erased bit was wrong and nothing
                // else — `errors == erasures` as sets.)
                PatternOutcome::Clean | PatternOutcome::Corrected(_) => {
                    PatternOutcome::Corrected(errors.len())
                }
                PatternOutcome::Miscorrected => PatternOutcome::Miscorrected,
                PatternOutcome::Detected => PatternOutcome::Detected,
            },
        }
    }

    /// Validates `errors` and `erasures` and returns their symmetric
    /// difference, ascending: the residual pattern after flipping every
    /// erased bit of the received word.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of range or repeated within its list.
    fn flip_erased(&self, errors: &[u16], erasures: &[u16]) -> Vec<u16> {
        let n = self.codeword_bits();
        let mut mark = vec![false; n];
        for &p in errors {
            assert!((p as usize) < n, "error position {p} outside {n}-bit codeword");
            assert!(!mark[p as usize], "error position {p} repeated");
            mark[p as usize] = true;
        }
        let mut seen = vec![false; n];
        for &p in erasures {
            assert!((p as usize) < n, "erasure position {p} outside {n}-bit codeword");
            assert!(!seen[p as usize], "erasure position {p} repeated");
            seen[p as usize] = true;
            mark[p as usize] = !mark[p as usize];
        }
        (0..n).filter(|&i| mark[i]).map(|i| i as u16).collect()
    }

    /// Berlekamp–Massey over GF(2^m). Returns σ as a coefficient vector
    /// (σ[0] = 1), or `None` on an internal inconsistency.
    pub(crate) fn berlekamp_massey(&self, synd: &[u32]) -> Option<Vec<u32>> {
        let f = &self.field;
        let n = synd.len();
        let mut sigma = vec![0u32; n + 1];
        let mut prev = vec![0u32; n + 1];
        sigma[0] = 1;
        prev[0] = 1;
        let mut l = 0usize; // current register length
        let mut mshift = 1usize; // steps since prev update
        let mut b = 1u32; // previous discrepancy
        for r in 0..n {
            // Discrepancy d = S_r + Σ σ_i·S_{r-i}.
            let mut d = synd[r];
            for i in 1..=l {
                d ^= f.mul(sigma[i], synd[r - i]);
            }
            if d == 0 {
                mshift += 1;
                continue;
            }
            let coef = f.div(d, b);
            let mut next = sigma.clone();
            for (i, &pc) in prev.iter().enumerate() {
                if pc != 0 && i + mshift <= n {
                    next[i + mshift] ^= f.mul(coef, pc);
                }
            }
            if 2 * l <= r {
                prev = sigma;
                b = d;
                l = r + 1 - l;
                mshift = 1;
            } else {
                mshift += 1;
            }
            sigma = next;
        }
        // Trim to actual degree.
        let deg = sigma.iter().rposition(|&c| c != 0)?;
        if deg != l {
            // Degree/length mismatch signals > t errors.
            return None;
        }
        sigma.truncate(deg + 1);
        Some(sigma)
    }

    /// Evaluates a GF(2^m)-coefficient polynomial at `x` (Horner).
    pub(crate) fn eval_gf_poly(&self, coeffs: &[u32], x: u32) -> u32 {
        let mut acc = 0u32;
        for &c in coeffs.iter().rev() {
            acc = self.field.mul(acc, x) ^ c;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, Rng, SeedableRng};

    fn paper_code() -> Bch {
        Bch::new(10, 8, 512)
    }

    fn random_data(rng: &mut StdRng, bytes: usize) -> Vec<u8> {
        (0..bytes).map(|_| rng.gen()).collect()
    }

    /// Flips `count` distinct random bits; returns their indices.
    fn corrupt(cw: &mut BitVec, rng: &mut StdRng, count: usize) -> Vec<usize> {
        let mut picked = Vec::new();
        while picked.len() < count {
            let i = rng.gen_range(0..cw.len());
            if !picked.contains(&i) {
                picked.push(i);
                cw.flip(i);
            }
        }
        picked
    }

    #[test]
    fn clean_round_trip() {
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5 {
            let data = random_data(&mut rng, 64);
            let mut cw = code.encode(&data);
            assert_eq!(code.decode(&mut cw), DecodeOutcome::Clean);
            assert!(!code.detect(&cw));
            assert_eq!(code.extract_data(&cw), data);
        }
    }

    #[test]
    fn corrects_up_to_t_errors() {
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(2);
        for t in 1..=8usize {
            let data = random_data(&mut rng, 64);
            let clean = code.encode(&data);
            let mut cw = clean.clone();
            corrupt(&mut cw, &mut rng, t);
            assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected(t), "t={t}");
            assert_eq!(cw, clean);
            assert_eq!(code.extract_data(&cw), data);
        }
    }

    #[test]
    fn detects_between_t_plus_1_and_2t_errors() {
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(3);
        for count in 9..=16usize {
            let data = random_data(&mut rng, 64);
            let clean = code.encode(&data);
            let mut cw = clean.clone();
            corrupt(&mut cw, &mut rng, count);
            let before = cw.clone();
            let out = code.decode(&mut cw);
            assert_eq!(out, DecodeOutcome::Detected, "count={count}");
            assert_eq!(cw, before, "detected word must be unmodified");
            assert!(code.detect(&cw));
        }
    }

    #[test]
    fn beyond_2t_is_at_least_not_silently_wrong_data_often() {
        // Past the designed distance, the decoder may mis-correct — but it
        // must never return Clean for a word at distance ≤ 2t+1 from the
        // transmitted codeword... here we just characterise behaviour: any
        // outcome is allowed, the call must not panic.
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(4);
        for count in [17usize, 25, 80] {
            let data = random_data(&mut rng, 64);
            let mut cw = code.encode(&data);
            corrupt(&mut cw, &mut rng, count);
            let _ = code.decode(&mut cw);
        }
    }

    #[test]
    fn small_code_exhaustive_single_error() {
        // BCH(15, t=2) shortened to 7 data bits: flip every single bit.
        let code = Bch::new(4, 2, 7);
        assert_eq!(code.parity_bits(), 8);
        // 7 data bits → needs whole bytes for encode; use the bit API via a
        // one-byte payload? data_bits must be a multiple of 8 for encode();
        // use 8 data bits instead with m=5.
        let code = Bch::new(5, 2, 8);
        let data = vec![0b1011_0010u8];
        let clean = code.encode(&data);
        for i in 0..code.codeword_bits() {
            let mut cw = clean.clone();
            cw.flip(i);
            assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected(1), "bit {i}");
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn parity_bit_errors_are_corrected_too() {
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_data(&mut rng, 64);
        let clean = code.encode(&data);
        let mut cw = clean.clone();
        // Flip three bits inside the parity region.
        for j in [513usize, 540, 591] {
            cw.flip(j);
        }
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected(3));
        assert_eq!(cw, clean);
    }

    #[test]
    fn various_code_sizes_construct() {
        for (m, t, bits) in [(10u32, 1u32, 512usize), (10, 10, 512), (10, 16, 512), (13, 8, 4096)]
        {
            let code = Bch::new(m, t, bits);
            assert!(code.parity_bits() <= (m * t) as usize);
            assert_eq!(code.correction_capability(), t as usize);
        }
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_code_rejected() {
        let _ = Bch::new(4, 2, 100);
    }

    #[test]
    fn stress_random_error_counts() {
        let code = Bch::new(10, 4, 128);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let data = random_data(&mut rng, 16);
            let clean = code.encode(&data);
            let count = rng.gen_range(0..=4usize);
            let mut cw = clean.clone();
            corrupt(&mut cw, &mut rng, count);
            let out = code.decode(&mut cw);
            if count == 0 {
                assert_eq!(out, DecodeOutcome::Clean);
            } else {
                assert_eq!(out, DecodeOutcome::Corrected(count));
            }
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn pattern_decode_matches_word_decode() {
        // Linearity: decoding positions injected into the zero word must
        // agree with decoding the same corruption of a random codeword.
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(7);
        for count in 0..=12usize {
            let data = random_data(&mut rng, 64);
            let mut cw = code.encode(&data);
            let positions: Vec<u16> = corrupt(&mut cw, &mut rng, count)
                .into_iter()
                .map(|p| p as u16)
                .collect();
            let word = code.decode(&mut cw);
            let pattern = code.decode_error_pattern(&positions);
            match (word, pattern) {
                (DecodeOutcome::Clean, PatternOutcome::Clean) => assert_eq!(count, 0),
                (DecodeOutcome::Corrected(a), PatternOutcome::Corrected(b)) => {
                    assert_eq!(a, b);
                    assert_eq!(a, count);
                }
                (DecodeOutcome::Detected, PatternOutcome::Detected) => assert!(count > 8),
                other => panic!("divergent outcomes for {count} errors: {other:?}"),
            }
        }
    }

    #[test]
    fn pattern_decode_boundaries() {
        let code = paper_code();
        assert_eq!(code.decode_error_pattern(&[]), PatternOutcome::Clean);
        // Exactly t errors correct; t+1..=2t+1 must never pass silently.
        let at_t: Vec<u16> = (0..8u16).map(|i| i * 70).collect();
        assert_eq!(code.decode_error_pattern(&at_t), PatternOutcome::Corrected(8));
        // Between t+1 and 2t errors the code must never claim success:
        // the designed distance guarantees detection (miscorrection onto
        // a wrong codeword is flagged as such, never as Corrected/Clean).
        for count in 9..=16u16 {
            let pat: Vec<u16> = (0..count).map(|i| i * 34).collect();
            let out = code.decode_error_pattern(&pat);
            assert!(
                matches!(out, PatternOutcome::Detected | PatternOutcome::Miscorrected),
                "count={count}: {out:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn pattern_decode_rejects_out_of_range() {
        let _ = paper_code().decode_error_pattern(&[592]);
    }

    #[test]
    #[should_panic(expected = "repeated")]
    fn pattern_decode_rejects_duplicates() {
        let _ = paper_code().decode_error_pattern(&[3, 3]);
    }

    /// Unique random positions, allowed to overlap another list.
    fn random_positions(rng: &mut StdRng, len: usize, nbits: usize) -> Vec<u16> {
        let mut out: Vec<u16> = Vec::new();
        while out.len() < len {
            let p = rng.gen_range(0..nbits) as u16;
            if !out.contains(&p) {
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn erasure_decode_with_nothing_erased_matches_plain_decode() {
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(21);
        for len in 0..=17 {
            let errors = random_positions(&mut rng, len, code.codeword_bits());
            assert_eq!(
                code.decode_error_pattern_with_erasures(&errors, &[]),
                code.decode_error_pattern(&errors),
                "len={len}"
            );
        }
    }

    #[test]
    fn correct_stuck_bits_cost_nothing() {
        // Erasures whose read value happens to be right leave trial 0
        // untouched: the outcome equals the plain decode.
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..50 {
            let weight = rng.gen_range(0..=8);
            let errors = random_positions(&mut rng, weight, code.codeword_bits());
            let erasures: Vec<u16> = random_positions(&mut rng, 12, code.codeword_bits())
                .into_iter()
                .filter(|p| !errors.contains(p))
                .collect();
            assert_eq!(
                code.decode_error_pattern_with_erasures(&errors, &erasures),
                code.decode_error_pattern(&errors)
            );
        }
    }

    #[test]
    fn e_plus_f_within_t_always_corrects() {
        // The documented guarantee: e true errors outside the erasures
        // plus f erased bits, e + f ≤ t, never fails and never lies.
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let f = rng.gen_range(0..=8usize);
            let e = rng.gen_range(0..=(8 - f));
            let erasures = random_positions(&mut rng, f, code.codeword_bits());
            // Each erased bit is wrong or right by a coin flip; the e
            // outside errors avoid the erased positions.
            let mut errors: Vec<u16> = erasures.iter().copied().filter(|_| rng.gen()).collect();
            while errors.len() < e + erasures.iter().filter(|p| errors.contains(p)).count() {
                let p = rng.gen_range(0..code.codeword_bits()) as u16;
                if !errors.contains(&p) && !erasures.contains(&p) {
                    errors.push(p);
                }
            }
            let out = code.decode_error_pattern_with_erasures(&errors, &erasures);
            if errors.is_empty() {
                assert_eq!(out, PatternOutcome::Clean);
            } else {
                assert_eq!(
                    out,
                    PatternOutcome::Corrected(errors.len()),
                    "e={e} f={f}"
                );
            }
        }
    }

    #[test]
    fn erasures_extend_reach_past_t() {
        // A stuck-heavy line: 12 erased bits all wrong plus 2 drift
        // errors — 14 errors, far past t=8 — recovers whenever trial 0
        // fails detectably, because flipping the erased bits leaves only
        // the 2 drift errors.
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(24);
        let mut recovered = 0u32;
        for _ in 0..50 {
            let erasures = random_positions(&mut rng, 12, code.codeword_bits());
            let mut errors = erasures.clone();
            while errors.len() < 14 {
                let p = rng.gen_range(0..code.codeword_bits()) as u16;
                if !errors.contains(&p) {
                    errors.push(p);
                }
            }
            if code.decode_error_pattern(&errors) == PatternOutcome::Detected {
                assert_eq!(
                    code.decode_error_pattern_with_erasures(&errors, &erasures),
                    PatternOutcome::Corrected(14)
                );
                recovered += 1;
            }
        }
        assert!(recovered > 30, "trial 0 should usually detect: {recovered}");
    }

    #[test]
    fn all_wrong_all_erased_recovers_via_the_flip_trial_alone() {
        // errors == erasures beyond t: trial 1's flips cancel everything
        // (its residual is empty), exercising the Clean→Corrected branch.
        let code = paper_code();
        let mut rng = StdRng::seed_from_u64(25);
        let mut hit = false;
        for _ in 0..50 {
            let positions = random_positions(&mut rng, 12, code.codeword_bits());
            if code.decode_error_pattern(&positions) == PatternOutcome::Detected {
                assert_eq!(
                    code.decode_error_pattern_with_erasures(&positions, &positions),
                    PatternOutcome::Corrected(12)
                );
                hit = true;
            }
        }
        assert!(hit, "no trial-0 detection in 50 draws");
    }

    #[test]
    #[should_panic(expected = "erasure position 592 outside")]
    fn erasure_decode_rejects_out_of_range_erasures() {
        let _ = paper_code().decode_error_pattern_with_erasures(&[1], &[592]);
    }

    #[test]
    #[should_panic(expected = "erasure position 7 repeated")]
    fn erasure_decode_rejects_duplicate_erasures() {
        let _ = paper_code().decode_error_pattern_with_erasures(&[1], &[7, 7]);
    }

    #[test]
    #[should_panic(expected = "error position 3 repeated")]
    fn erasure_decode_rejects_duplicate_errors_even_when_trial_0_would_catch() {
        let _ = paper_code().decode_error_pattern_with_erasures(&[3, 3], &[9]);
    }
}
