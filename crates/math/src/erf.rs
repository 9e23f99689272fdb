//! Error function family implemented from scratch.
//!
//! All four entry points evaluate W. J. Cody's rational Chebyshev
//! approximations (the classic CALERF scheme, *Math. Comp.* 23, 1969):
//! three fixed-degree rationals covering `|x| ≤ 0.46875`,
//! `0.46875 < x ≤ 4` and `x > 4`, giving ~1 ulp relative accuracy for
//! `erf`/`erfcx` at a flat cost of a dozen flops. This matters here: the
//! drift-error curve tabulation evaluates `erfc` hundreds of thousands of
//! times through the Gauss–Legendre integrand, and the
//! continued-fraction/Maclaurin implementation this replaced needed up to
//! 260 iterations per call.

// The coefficient tables keep Cody's published ~20 significant digits
// verbatim so they can be audited against the paper, even where f64
// parsing rounds the trailing digits away.
#![allow(clippy::excessive_precision)]

/// `1/√π`.
const FRAC_1_SQRT_PI: f64 = 0.564_189_583_547_756_28;

/// Cody interval 1 (`|x| ≤ 0.46875`): numerator of `erf(x)/x` in `x²`.
const A: [f64; 5] = [
    3.161_123_743_870_565_6e0,
    1.138_641_541_510_501_56e2,
    3.774_852_376_853_020_2e2,
    3.209_377_589_138_469_47e3,
    1.857_777_061_846_031_53e-1,
];
/// Cody interval 1: denominator of `erf(x)/x` in `x²`.
const B: [f64; 4] = [
    2.360_129_095_234_412_09e1,
    2.440_246_379_344_441_73e2,
    1.282_616_526_077_372_28e3,
    2.844_236_833_439_170_62e3,
];
/// Cody interval 2 (`0.46875 < x ≤ 4`): numerator of `erfcx(x)`.
const C: [f64; 9] = [
    5.641_884_969_886_700_89e-1,
    8.883_149_794_388_375_94e0,
    6.611_919_063_714_162_95e1,
    2.986_351_381_974_001_31e2,
    8.819_522_212_417_690_9e2,
    1.712_047_612_634_070_58e3,
    2.051_078_377_826_071_47e3,
    1.230_339_354_797_997_25e3,
    2.153_115_354_744_038_46e-8,
];
/// Cody interval 2: denominator of `erfcx(x)`.
const D: [f64; 8] = [
    1.574_492_611_070_983_47e1,
    1.176_939_508_913_124_99e2,
    5.371_811_018_620_098_58e2,
    1.621_389_574_566_690_19e3,
    3.290_799_235_733_459_63e3,
    4.362_619_090_143_247_16e3,
    3.439_367_674_143_721_64e3,
    1.230_339_354_803_749_42e3,
];
/// Cody interval 3 (`x > 4`): numerator of `x·erfcx(x) − 1/√π` in `1/x²`.
const P: [f64; 6] = [
    3.053_266_349_612_323_44e-1,
    3.603_448_999_498_044_39e-1,
    1.257_817_261_112_292_46e-1,
    1.608_378_514_874_227_66e-2,
    6.587_491_615_298_378_03e-4,
    1.631_538_713_730_209_78e-2,
];
/// Cody interval 3: denominator of `x·erfcx(x) − 1/√π` in `1/x²`.
const Q: [f64; 5] = [
    2.568_520_192_289_822_42e0,
    1.872_952_849_923_460_47e0,
    5.279_051_029_514_284_12e-1,
    6.051_834_131_244_131_91e-2,
    2.335_204_976_268_691_85e-3,
];

/// Cody's split threshold between the `erf` and `erfcx` rationals.
const THRESH: f64 = 0.468_75;

/// `erf(x)` on Cody interval 1 (`|x| ≤ THRESH`): odd rational in `x²`.
fn erf_small(x: f64) -> f64 {
    let z = x * x;
    let mut num = A[4] * z;
    let mut den = z;
    for i in 0..3 {
        num = (num + A[i]) * z;
        den = (den + B[i]) * z;
    }
    x * (num + A[3]) / (den + B[3])
}

/// `erfcx(y) = e^{y²}·erfc(y)` for `y ≥ THRESH` (Cody intervals 2–3).
fn erfcx_cody(y: f64) -> f64 {
    if y <= 4.0 {
        let mut num = C[8] * y;
        let mut den = y;
        for i in 0..7 {
            num = (num + C[i]) * y;
            den = (den + D[i]) * y;
        }
        (num + C[7]) / (den + D[7])
    } else {
        let z = 1.0 / (y * y);
        let mut num = P[5] * z;
        let mut den = z;
        for i in 0..4 {
            num = (num + P[i]) * z;
            den = (den + Q[i]) * z;
        }
        let r = z * (num + P[4]) / (den + Q[4]);
        (FRAC_1_SQRT_PI - r) / y
    }
}

/// `e^{-y²}` with Cody's split-argument trick: the square is computed as
/// `ysq² + (y−ysq)(y+ysq)` with `ysq` truncated to 1/16ths, so the large
/// part of the exponent is exact and the tail keeps full precision.
fn exp_neg_sq(y: f64) -> f64 {
    let ysq = (y * 16.0).trunc() / 16.0;
    let del = (y - ysq) * (y + ysq);
    (-ysq * ysq).exp() * (-del).exp()
}

/// The error function `erf(x) = 2/sqrt(pi) * ∫_0^x e^{-t²} dt`.
///
/// Accurate to roughly 1 ulp of `f64` across the real line.
///
/// ```
/// use readduo_math::erf;
/// assert!((erf(0.0)).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-14);
/// assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-14);
/// ```
pub fn erf(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    let ax = x.abs();
    if ax <= THRESH {
        return erf_small(x);
    }
    let v = 1.0 - exp_neg_sq(ax) * erfcx_cody(ax);
    if x < 0.0 {
        -v
    } else {
        v
    }
}

/// The complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Stable in the right tail: `erfc(10)` ≈ 2.09e-45 is computed without
/// catastrophic cancellation.
///
/// ```
/// use readduo_math::erfc;
/// assert!((erfc(0.0) - 1.0).abs() < 1e-15);
/// let t = erfc(10.0);
/// assert!(t > 2.0e-45 && t < 2.2e-45);
/// ```
pub fn erfc(x: f64) -> f64 {
    if x.is_nan() {
        return f64::NAN;
    }
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    if x <= THRESH {
        // erf(0.46875) ≈ 0.493, so the subtraction loses < 1 bit.
        return 1.0 - erf_small(x);
    }
    // Underflows to 0 past x ≈ 26.6, like the true value (≈ 1e-308).
    exp_neg_sq(x) * erfcx_cody(x)
}

/// Scaled complementary error function `erfcx(x) = e^{x²}·erfc(x)`.
///
/// Lets callers form extreme-tail logarithms: `ln erfc(x) = ln erfcx(x) − x²`.
///
/// ```
/// use readduo_math::erfc_scaled;
/// // erfcx(x) ~ 1/(x*sqrt(pi)) for large x
/// let x = 50.0;
/// let approx = 1.0 / (x * std::f64::consts::PI.sqrt());
/// assert!((erfc_scaled(x) - approx).abs() / approx < 1e-3);
/// ```
pub fn erfc_scaled(x: f64) -> f64 {
    if x < THRESH {
        // Includes negative arguments, where the scaled form just grows.
        return (x * x).exp() * erfc(x);
    }
    erfcx_cody(x)
}

/// Batched `erfc` over a slice: `out[i] = erfc(xs[i])`.
///
/// Bit-identical to the scalar [`erfc`] per element (same rationals, same
/// interval dispatch). No simulation path calls it; the repository
/// benchmark's `math.erfc_batch_ns_per_cell` row times it against the
/// scalar call.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn erfc_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erfc_slice length mismatch");
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = erfc(x);
    }
}

/// Natural log of `erfc(x)`, stable for very large `x` (deep tails).
///
/// ```
/// use readduo_math::erf::ln_erfc;
/// // ln erfc(20) ≈ -403.9
/// let v = ln_erfc(20.0);
/// assert!((v + 403.9).abs() < 0.5);
/// ```
pub fn ln_erfc(x: f64) -> f64 {
    if x < THRESH {
        erfc(x).ln()
    } else {
        erfcx_cody(x).ln() - x * x
    }
}

/// Inverse error function: `inverse_erf(erf(x)) == x` (to ~1e-12).
///
/// # Panics
///
/// Panics if `y` is outside `(-1, 1)`.
///
/// ```
/// use readduo_math::{erf, inverse_erf};
/// let x = 0.7;
/// assert!((inverse_erf(erf(x)) - x).abs() < 1e-12);
/// ```
pub fn inverse_erf(y: f64) -> f64 {
    assert!(
        y > -1.0 && y < 1.0,
        "inverse_erf argument must lie strictly inside (-1, 1), got {y}"
    );
    if y == 0.0 {
        return 0.0;
    }
    // Initial guess via Winitzki's approximation, then Newton refinement.
    let a = 0.147f64;
    let ln1my2 = (1.0 - y * y).ln();
    let term1 = 2.0 / (std::f64::consts::PI * a) + ln1my2 / 2.0;
    let mut x = (y.signum()) * ((term1 * term1 - ln1my2 / a).sqrt() - term1).sqrt();
    // Newton: f(x) = erf(x) - y, f'(x) = 2/sqrt(pi) e^{-x^2}
    for _ in 0..8 {
        let err = erf(x) - y;
        let deriv = 2.0 / std::f64::consts::PI.sqrt() * (-x * x).exp();
        if deriv == 0.0 {
            break;
        }
        x -= err / deriv;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values computed with mpmath at 50 digits.
    const ERF_TABLE: &[(f64, f64)] = &[
        (0.1, 0.112_462_916_018_284_9),
        (0.5, 0.520_499_877_813_046_5),
        (1.0, 0.842_700_792_949_714_9),
        (1.5, 0.966_105_146_475_310_8),
        (2.0, 0.995_322_265_018_952_7),
        (3.0, 0.999_977_909_503_001_4),
    ];

    const ERFC_TABLE: &[(f64, f64)] = &[
        (1.0, 0.157_299_207_050_285_13),
        (2.0, 0.004_677_734_981_063_144),
        (3.0, 2.209_049_699_858_544e-5),
        (5.0, 1.537_459_794_428_035e-12),
        (8.0, 1.122_429_717_298_292_6e-29),
        (10.0, 2.088_487_583_762_545e-45),
        (15.0, 7.212_994_172_451_207e-100),
        (20.0, 5.395_865_611_607_901e-176),
    ];

    #[test]
    fn erf_matches_reference() {
        for &(x, want) in ERF_TABLE {
            let got = erf(x);
            assert!(
                (got - want).abs() < 1e-14,
                "erf({x}) = {got}, want {want}"
            );
        }
    }

    #[test]
    fn erf_is_odd() {
        for &(x, _) in ERF_TABLE {
            assert_eq!(erf(-x), -erf(x));
        }
    }

    #[test]
    fn erfc_matches_reference_relative() {
        for &(x, want) in ERFC_TABLE {
            let got = erfc(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-11, "erfc({x}) = {got:e}, want {want:e}, rel {rel:e}");
        }
    }

    #[test]
    fn erfc_left_side() {
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-15);
        assert!((erfc(0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn erf_erfc_complementary_across_intervals() {
        // Continuity across the three Cody intervals, including the
        // THRESH and x = 4 joins.
        for x in [0.1, 0.468, 0.469, 1.0, 2.7, 3.999, 4.001, 6.0] {
            let s = erf(x) + erfc(x);
            assert!((s - 1.0).abs() < 1e-14, "erf+erfc at {x}: {s}");
        }
    }

    #[test]
    fn ln_erfc_deep_tail_matches_reference() {
        // ln(erfc(20)) from the table above.
        let want = 5.395_865_611_607_901e-176_f64.ln();
        assert!((ln_erfc(20.0) - want).abs() < 1e-9 * want.abs());
        // Far beyond f64 underflow: erfc(40) ~ 1.15e-697.
        let v = ln_erfc(40.0);
        // ln erfc(40) ≈ -x² - ln(x√π) = -1600 - 4.26 ≈ -1604.5
        assert!(v < -1600.0 && v > -1610.0, "ln_erfc(40) = {v}");
    }

    #[test]
    fn erfc_scaled_consistent_with_erfc() {
        for x in [0.6, 1.0, 2.5, 5.0, 8.0] {
            let a = erfc_scaled(x) * (-x * x).exp();
            let b = erfc(x);
            assert!(((a - b) / b).abs() < 1e-11, "x={x}: {a:e} vs {b:e}");
        }
    }

    #[test]
    fn inverse_erf_round_trips() {
        for x in [-2.5f64, -1.0, -0.3, 0.01, 0.5, 1.7, 3.0] {
            let y = erf(x);
            let back = inverse_erf(y);
            assert!((back - x).abs() < 1e-9, "x={x} back={back}");
        }
    }

    #[test]
    #[should_panic(expected = "inverse_erf")]
    fn inverse_erf_rejects_out_of_range() {
        let _ = inverse_erf(1.0);
    }

    #[test]
    fn erf_handles_nan() {
        assert!(erf(f64::NAN).is_nan());
        assert!(erfc(f64::NAN).is_nan());
    }
}
