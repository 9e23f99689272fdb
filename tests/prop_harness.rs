//! A minimal in-repo property-testing harness (replaces `proptest`).
//!
//! Shape of a property: a *generator* draws a random input from a seeded
//! [`StdRng`], and a *property function* returns `Ok(())` or a description
//! of the violation. [`check`] runs [`DEFAULT_CASES`] cases, each from
//! its own deterministic per-case seed, so
//!
//! * a failure prints a single `READDUO_PROP_SEED=<seed>` line that
//!   replays exactly that input, on any machine, forever;
//! * before reporting, the harness *shrinks* the failing input — integers
//!   by halving toward zero, collections by halving their length — and
//!   reports the smallest input that still fails.
//!
//! Properties should return `Ok(())` for inputs outside their domain
//! (rather than panicking) so the shrinker cannot escape the domain.
//!
//! This file doubles as its own test target: the `self_tests` module
//! checks the harness's seeding, shrinking, and reporting behaviour.

#![allow(dead_code)] // compiled both standalone and via `mod` from proptests.rs

use readduo_rng::{rngs::StdRng, splitmix64, RngCore, SeedableRng};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Default number of cases per property, matching the old
/// `ProptestConfig::with_cases(64)`.
pub const DEFAULT_CASES: usize = 64;

/// Cap on property evaluations spent shrinking one failure.
const SHRINK_BUDGET: usize = 2_000;

/// Inputs the harness knows how to simplify after a failure.
pub trait Shrink: Sized {
    /// Candidate simplifications of `self`, roughly ordered most-aggressive
    /// first. An empty vector means fully shrunk.
    fn shrink_candidates(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_shrink_uint {
    ($($t:ty),* $(,)?) => {$(
        impl Shrink for $t {
            fn shrink_candidates(&self) -> Vec<Self> {
                let v = *self;
                if v == 0 {
                    return Vec::new();
                }
                // v/2 + 1 keeps a path open for parity-sensitive failures
                // (halving alone can only reach odd values via v - 1).
                let mut out = vec![0, v / 2, v / 2 + 1, v - 1];
                out.sort_unstable();
                out.dedup();
                out.retain(|&c| c != v);
                out
            }
        }
    )*};
}

impl_shrink_uint!(u8, u16, u32, u64, usize);

impl Shrink for f64 {
    fn shrink_candidates(&self) -> Vec<Self> {
        let v = *self;
        if v == 0.0 || !v.is_finite() {
            return Vec::new();
        }
        vec![0.0, v / 2.0]
    }
}

impl Shrink for bool {
    fn shrink_candidates(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Clone + Shrink> Shrink for Vec<T> {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n > 0 {
            // Halve the length from either end.
            out.push(self[..n / 2].to_vec());
            out.push(self[n - n / 2..].to_vec());
            // Then shrink individual elements (first candidate each).
            for i in 0..n {
                if let Some(smaller) = self[i].shrink_candidates().into_iter().next() {
                    let mut v = self.clone();
                    v[i] = smaller;
                    out.push(v);
                }
            }
        }
        out
    }
}

impl Shrink for BTreeSet<usize> {
    fn shrink_candidates(&self) -> Vec<Self> {
        if self.is_empty() {
            return Vec::new();
        }
        let as_vec: Vec<usize> = self.iter().copied().collect();
        let n = as_vec.len();
        vec![
            as_vec[..n / 2].iter().copied().collect(),
            as_vec[n - n / 2..].iter().copied().collect(),
        ]
    }
}

macro_rules! impl_shrink_tuple {
    ($(($($name:ident : $idx:tt),+)),* $(,)?) => {$(
        impl<$($name: Clone + Shrink),+> Shrink for ($($name,)+) {
            fn shrink_candidates(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink_candidates() {
                        let mut t = self.clone();
                        t.$idx = cand;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )*};
}

impl_shrink_tuple!(
    (A: 0),
    (A: 0, B: 1),
    (A: 0, B: 1, C: 2),
    (A: 0, B: 1, C: 2, D: 3)
);

/// Stable per-case seed: a splitmix64 stream keyed by the property name,
/// advanced to case `i`. Independent of the process, platform, and of any
/// other property's stream.
pub fn case_seed(name: &str, i: usize) -> u64 {
    let mut h = 0x5245_4144_4455_4f21u64; // "READDUO!"
    for b in name.bytes() {
        h = splitmix64(&mut h) ^ u64::from(b);
    }
    let mut s = h ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

fn run_guarded<T, P: Fn(&T) -> Result<(), String>>(prop: &P, input: &T) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| prop(input))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".to_string());
            Err(format!("panicked: {msg}"))
        }
    }
}

fn shrink<T, P>(input: T, error: String, prop: &P) -> (T, String)
where
    T: Clone + Shrink,
    P: Fn(&T) -> Result<(), String>,
{
    let mut current = input;
    let mut current_err = error;
    let mut budget = SHRINK_BUDGET;
    'outer: loop {
        for cand in current.shrink_candidates() {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let Err(e) = run_guarded(prop, &cand) {
                current = cand;
                current_err = e;
                continue 'outer;
            }
        }
        break;
    }
    (current, current_err)
}

/// Runs `prop` against `cases` inputs drawn by `gen` from per-case seeds.
///
/// On failure: shrinks the input, then panics with the violation, the
/// shrunken input, and the `READDUO_PROP_SEED=<seed>` incantation that
/// replays the original case. Setting `READDUO_PROP_SEED` runs *only* that
/// case (reproduction mode).
pub fn check_n<T, G, P>(name: &str, cases: usize, gen: G, prop: P)
where
    T: Clone + std::fmt::Debug + Shrink,
    G: Fn(&mut StdRng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    if let Ok(v) = std::env::var("READDUO_PROP_SEED") {
        let seed: u64 = v
            .parse()
            .unwrap_or_else(|_| panic!("READDUO_PROP_SEED must be a u64, got {v:?}"));
        let input = gen(&mut StdRng::seed_from_u64(seed));
        eprintln!("[{name}] reproducing seed {seed}: {input:?}");
        if let Err(e) = run_guarded(&prop, &input) {
            let (smallest, small_err) = shrink(input.clone(), e.clone(), &prop);
            panic!(
                "property {name} failed under READDUO_PROP_SEED={seed}\n  \
                 input:  {input:?}\n  error:  {e}\n  \
                 shrunk: {smallest:?}\n  shrunk error: {small_err}"
            );
        }
        eprintln!("[{name}] seed {seed} passes");
        return;
    }

    for i in 0..cases {
        let seed = case_seed(name, i);
        let input = gen(&mut StdRng::seed_from_u64(seed));
        if let Err(e) = run_guarded(&prop, &input) {
            let (smallest, small_err) = shrink(input.clone(), e.clone(), &prop);
            panic!(
                "property {name} failed at case {i}/{cases}\n  \
                 input:  {input:?}\n  error:  {e}\n  \
                 shrunk: {smallest:?}\n  shrunk error: {small_err}\n  \
                 reproduce with: READDUO_PROP_SEED={seed} cargo test {name}"
            );
        }
    }
}

/// [`check_n`] at the default case count (≥ 64).
pub fn check<T, G, P>(name: &str, gen: G, prop: P)
where
    T: Clone + std::fmt::Debug + Shrink,
    G: Fn(&mut StdRng) -> T,
    P: Fn(&T) -> Result<(), String>,
{
    check_n(name, DEFAULT_CASES, gen, prop)
}

/// Draws a `Vec<u8>` with a length drawn from `len` (inclusive bounds).
pub fn gen_bytes(rng: &mut StdRng, min_len: usize, max_len: usize) -> Vec<u8> {
    use readduo_rng::Rng as _;
    let len = rng.gen_range(min_len..=max_len);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// Draws a set of distinct values from `0..universe` with a size drawn
/// from `min_size..=max_size` (like proptest's `btree_set` strategy).
pub fn gen_subset(
    rng: &mut StdRng,
    universe: usize,
    min_size: usize,
    max_size: usize,
) -> BTreeSet<usize> {
    use readduo_rng::Rng as _;
    assert!(max_size <= universe, "cannot draw {max_size} distinct of {universe}");
    let size = rng.gen_range(min_size..=max_size);
    let mut set = BTreeSet::new();
    while set.len() < size {
        set.insert(rng.gen_range(0..universe));
    }
    set
}

/// `prop_assert!` equivalent: early-returns an `Err` describing the
/// violated condition.
#[allow(unused_macros)] // used via proptests.rs, not by the standalone target
macro_rules! ensure {
    ($cond:expr) => {
        // `if cond {} else` rather than `if !cond` so float comparisons in
        // `cond` don't trip clippy::neg_cmp_op_on_partial_ord at call sites.
        if $cond {
        } else {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if $cond {
        } else {
            return Err(format!($($fmt)+));
        }
    };
}

/// `prop_assert_eq!` equivalent.
#[allow(unused_macros)]
macro_rules! ensure_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        if a != b {
            return Err(format!(
                "{} != {}\n  left:  {:?}\n  right: {:?}",
                stringify!($a),
                stringify!($b),
                a,
                b
            ));
        }
    }};
}

#[allow(unused_imports)]
pub(crate) use {ensure, ensure_eq};

#[cfg(test)]
mod self_tests {
    use super::*;
    use readduo_rng::Rng as _;

    #[test]
    fn passing_property_runs_all_cases() {
        let hits = std::cell::Cell::new(0usize);
        check_n(
            "always_true",
            64,
            |rng| rng.gen_range(0..100u64),
            |_| {
                hits.set(hits.get() + 1);
                Ok(())
            },
        );
        assert_eq!(hits.get(), 64, "all 64 cases must execute");
    }

    #[test]
    fn case_seeds_are_stable_and_distinct() {
        // Pinned: changing the derivation silently unpins every seeded
        // failure report ever printed, so treat it as a format contract.
        assert_eq!(case_seed("p", 0), case_seed("p", 0));
        assert_ne!(case_seed("p", 0), case_seed("p", 1));
        assert_ne!(case_seed("p", 0), case_seed("q", 0));
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        let result = std::panic::catch_unwind(|| {
            check_n(
                "fails_above_10",
                64,
                |rng| rng.gen_range(0..1000u64),
                |&v| {
                    if v <= 10 {
                        Ok(())
                    } else {
                        Err(format!("{v} > 10"))
                    }
                },
            )
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("READDUO_PROP_SEED="), "no repro seed in: {msg}");
        // Shrink-by-halving must land on the boundary: the smallest
        // still-failing value of `v > 10` is 11.
        assert!(msg.contains("shrunk: 11"), "bad shrink in: {msg}");
    }

    #[test]
    fn shrink_handles_panicking_properties() {
        let result = std::panic::catch_unwind(|| {
            check_n(
                "panics_on_odd",
                64,
                |rng| rng.gen_range(0..999u64),
                |&v| {
                    assert!(v % 2 == 0, "odd input {v}");
                    Ok(())
                },
            )
        });
        let msg = *result.expect_err("must fail").downcast::<String>().unwrap();
        assert!(msg.contains("panicked"), "panic not captured: {msg}");
        assert!(msg.contains("shrunk: 1\n"), "smallest odd is 1: {msg}");
    }

    #[test]
    fn vec_shrink_halves_length() {
        let v: Vec<u8> = (0..8).collect();
        let cands = v.shrink_candidates();
        assert!(cands.contains(&vec![0, 1, 2, 3]));
        assert!(cands.contains(&vec![4, 5, 6, 7]));
    }

    #[test]
    fn subset_generator_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = gen_subset(&mut rng, 592, 0, 8);
            assert!(s.len() <= 8);
            assert!(s.iter().all(|&x| x < 592));
        }
    }

    #[test]
    fn bytes_generator_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let v = gen_bytes(&mut rng, 0, 128);
            assert!(v.len() <= 128);
        }
    }
}
