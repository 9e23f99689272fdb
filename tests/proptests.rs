//! Property-based tests over the core data structures and invariants,
//! running on the in-repo harness (`prop_harness`, replacing `proptest`).
//!
//! Every property runs ≥ 64 seeded cases; a failure prints a
//! `READDUO_PROP_SEED=<seed>` line that replays exactly the failing input
//! (see README § Reproducing a property-test failure). Properties return
//! `Ok(())` for inputs outside their domain so the shrinker stays inside.

mod prop_harness;

use std::sync::OnceLock;

use prop_harness::{check, ensure, ensure_eq, gen_bytes, gen_subset};
use readduo::core::{FaultInjector, InjectedRead, LwtFlags};
use readduo::ecc::{
    Bch, BchBitslice, BitVec, DecodeOutcome, GfField, PatternOutcome, BITSLICE_LANES,
};
use readduo::math::{binomial, erfc, erfc_slice, ln_choose, LogProb, Normal, TruncatedNormal};
use readduo::memsim::Topology;
use readduo::pcm::params::PROGRAM_WIDTH_SIGMAS;
use readduo::pcm::state::{bytes_to_cell_data, cell_data_to_bytes};
use readduo::pcm::{
    drift_exponent, log_metric_at, log_metric_at_u, CellLevel, FaultModel,
    LevelParams, LineFaults, MetricConfig, MetricKind, WearModel,
};
use readduo::trace::{TraceGenerator, Workload, Zipf};
use readduo_rng::rngs::StdRng;
use readduo_rng::{Rng as _, RngCore as _, SeedableRng as _};

/// GF(2^10): field axioms on arbitrary nonzero elements.
#[test]
fn gf_axioms() {
    check(
        "gf_axioms",
        |rng| {
            (
                rng.gen_range(1u32..1024),
                rng.gen_range(1u32..1024),
                rng.gen_range(1u32..1024),
            )
        },
        |&(a, b, c)| {
            if [a, b, c].iter().any(|v| !(1..1024).contains(v)) {
                return Ok(());
            }
            let f = GfField::new(10);
            ensure_eq!(f.mul(a, b), f.mul(b, a));
            ensure_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
            ensure_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
            ensure_eq!(f.mul(a, f.inv(a)), 1);
            ensure_eq!(f.div(f.mul(a, b), b), a);
            Ok(())
        },
    );
}

/// BCH-8 corrects any ≤8-bit error pattern and restores the data.
#[test]
fn bch_corrects_all_patterns_up_to_t() {
    check(
        "bch_corrects_all_patterns_up_to_t",
        |rng| (gen_bytes(rng, 64, 64), gen_subset(rng, 592, 0, 8)),
        |(data, positions)| {
            if data.len() != 64 || positions.len() > 8 {
                return Ok(());
            }
            let code = Bch::new(10, 8, 512);
            let clean = code.encode(data);
            let mut cw = clean.clone();
            for &p in positions {
                cw.flip(p);
            }
            let out = code.decode(&mut cw);
            if positions.is_empty() {
                ensure_eq!(out, DecodeOutcome::Clean);
            } else {
                ensure_eq!(out, DecodeOutcome::Corrected(positions.len()));
            }
            ensure_eq!(code.extract_data(&clean), *data);
            ensure_eq!(cw, clean);
            Ok(())
        },
    );
}

/// Patterns of 9..=16 errors are detected, never silently corrupted.
#[test]
fn bch_detects_beyond_t() {
    check(
        "bch_detects_beyond_t",
        |rng| (gen_bytes(rng, 64, 64), gen_subset(rng, 592, 9, 16)),
        |(data, positions)| {
            if data.len() != 64 || !(9..=16).contains(&positions.len()) {
                return Ok(());
            }
            let code = Bch::new(10, 8, 512);
            let mut cw = code.encode(data);
            for &p in positions {
                cw.flip(p);
            }
            let before = cw.clone();
            ensure_eq!(code.decode(&mut cw), DecodeOutcome::Detected);
            ensure_eq!(cw, before);
            Ok(())
        },
    );
}

/// Binomial tail is monotone and bounded by the union bound.
#[test]
fn binomial_tail_bounds() {
    check(
        "binomial_tail_bounds",
        |rng| {
            (
                rng.gen_range(1u64..600),
                rng.gen_range(0.0f64..0.01),
                rng.gen_range(1u64..20),
            )
        },
        |&(n, p, k)| {
            if !(1..600).contains(&n) || !(0.0..0.01).contains(&p) || !(1..20).contains(&k) {
                return Ok(());
            }
            let tail = binomial::tail_ge(n, p, k);
            ensure!((0.0..=1.0).contains(&tail), "tail {tail} outside [0,1]");
            // Union bound: P(X >= k) <= C(n,k) p^k.
            if p > 0.0 && k <= n {
                let ub = (ln_choose(n, k) + k as f64 * p.ln()).exp();
                ensure!(
                    tail <= ub * (1.0 + 1e-9) + 1e-300,
                    "tail {tail} above union bound {ub}"
                );
            }
            // Monotonicity in k.
            ensure!(
                binomial::tail_ge(n, p, k + 1) <= tail + 1e-15,
                "tail not monotone in k at n={n} p={p} k={k}"
            );
            Ok(())
        },
    );
}

/// LogProb complement round-trips within tolerance in the mid-range.
#[test]
fn logprob_complement() {
    check(
        "logprob_complement",
        |rng| rng.gen_range(1e-6f64..0.999_999),
        |&p| {
            if !(1e-6..0.999_999).contains(&p) {
                return Ok(());
            }
            let lp = LogProb::from_prob(p);
            let back = lp.complement().complement().to_prob();
            ensure!((back - p).abs() < 1e-9, "round-trip {p} -> {back}");
            Ok(())
        },
    );
}

/// Byte ↔ cell-data conversion round-trips for any payload.
#[test]
fn cell_packing_round_trips() {
    check(
        "cell_packing_round_trips",
        |rng| gen_bytes(rng, 0, 127),
        |data| {
            let cells = bytes_to_cell_data(data);
            ensure_eq!(cells.len(), data.len() * 4);
            ensure_eq!(cell_data_to_bytes(&cells), *data);
            Ok(())
        },
    );
}

/// BitVec ones() agrees with per-bit reads.
#[test]
fn bitvec_ones_consistent() {
    check(
        "bitvec_ones_consistent",
        |rng| gen_subset(rng, 500, 0, 39),
        |bits| {
            let mut v = BitVec::zeros(500);
            for &b in bits {
                v.set(b, true);
            }
            ensure_eq!(v.ones(), bits.iter().copied().collect::<Vec<_>>());
            ensure_eq!(v.count_ones(), bits.len());
            Ok(())
        },
    );
}

/// The LWT-flag safety property, shared by the random-case property and the
/// pinned regression case below: replay any op sequence against ground
/// truth — R allowed ⇒ the last write is within one scrub interval.
fn lwt_flags_safety_prop(ops: &[(u8, f64)]) -> Result<(), String> {
    if ops.is_empty() || ops.iter().any(|&(op, dt)| op >= 3 || !(0.0..0.5).contains(&dt)) {
        return Ok(());
    }
    for k in [2u8, 4, 8] {
        let mut f = LwtFlags::new(k);
        let s_len = 1.0;
        let mut now = 0.0f64;
        let mut last_write = f64::NEG_INFINITY;
        let mut last_scrub = 0.0f64;
        for &(op, dt) in ops {
            now += dt;
            while now - last_scrub >= k as f64 * s_len {
                last_scrub += k as f64 * s_len;
                f.on_scrub(false);
            }
            let sub = (((now - last_scrub) / s_len) as u8).min(k - 1);
            if op == 0 {
                f.on_write(sub);
                last_write = now;
            } else if f.read_allows_r(sub) && now - last_write > k as f64 * s_len + 1e-9 {
                return Err(format!("k={} R allowed at age {}", k, now - last_write));
            }
        }
    }
    Ok(())
}

/// LWT flag safety over random op sequences.
#[test]
fn lwt_flags_safety() {
    check(
        "lwt_flags_safety",
        |rng| {
            let len = rng.gen_range(1usize..=79);
            (0..len)
                .map(|_| (rng.gen_range(0u8..3), rng.gen_range(0.0f64..0.5)))
                .collect::<Vec<_>>()
        },
        |ops| lwt_flags_safety_prop(ops),
    );
}

/// Regression case cc b2cf3c1f (from the retired
/// `tests/proptests.proptest-regressions`): a long burst of writes whose
/// timestamps straddle a scrub boundary, followed by reads — the pattern
/// that once let a stale flag survive the scrub.
#[test]
fn lwt_flags_safety_regression_b2cf3c1f() {
    let ops: Vec<(u8, f64)> = vec![
        (0, 0.3947538264379814),
        (0, 0.48751012065678373),
        (0, 0.40981034828869795),
        (0, 0.2995417221605503),
        (0, 0.09134815778152308),
        (0, 0.4363682083537715),
        (0, 0.4263829786348656),
        (0, 0.4640976361829309),
        (0, 0.34880520364353806),
        (0, 0.32581659319327305),
        (0, 0.4641018554403862),
        (0, 0.22965626196361133),
        (0, 0.40796001606509386),
        (0, 0.3129958785727388),
        (0, 0.2092185219202652),
        (0, 0.44924386823809564),
        (0, 0.3932798375585406),
        (0, 0.18131113594256373),
        (0, 0.4594243050057818),
        (0, 0.3251214899930796),
        (0, 0.11036746582274844),
        (0, 0.48481295582556194),
        (0, 0.026561644968392636),
        (0, 0.1768765003065098),
        (0, 0.06888761789490826),
        (0, 0.14623522039291043),
        (0, 0.4385122682931762),
        (0, 0.45022997436871925),
        (1, 0.48573678310745905),
        (1, 0.47908870280615845),
        (1, 0.31707519272722506),
        (1, 0.3063272057319298),
        (1, 0.39786727545192424),
        (1, 0.48485397355227466),
        (1, 0.4646740937180242),
        (1, 0.22554511247324466),
        (1, 0.1550355201107649),
        (1, 0.23048674579448336),
        (1, 0.12296229657323753),
        (1, 0.187538551880757),
        (1, 0.178585849031391),
    ];
    lwt_flags_safety_prop(&ops).expect("pinned regression case must pass");
}

/// Streaming generation is chunk-size invariant: any refill granularity
/// collects to exactly the trace `generate()` materialises.
#[test]
fn trace_stream_chunk_invariant() {
    check(
        "trace_stream_chunk_invariant",
        |rng| {
            (
                rng.gen::<u64>(),
                rng.gen_range(1_000u64..10_000),
                rng.gen_range(1usize..=512),
            )
        },
        |&(seed, instr, chunk)| {
            if !(1_000..10_000).contains(&instr) || !(1..=512).contains(&chunk) {
                return Ok(());
            }
            let gen = TraceGenerator::new(seed);
            let w = Workload::toy();
            let materialised = gen.generate(&w, instr, 2);
            let collected = gen.stream(&w, instr, 2).with_chunk(chunk).collect_trace();
            ensure_eq!(collected, materialised);
            Ok(())
        },
    );
}

/// The address interleave of an arbitrary topology is bijective — every
/// line decomposes to a valid `(channel, bank, local)` placement,
/// recomposes to itself, and no two lines share a placement — and balanced:
/// enumerating any prefix `[0, L)` of the line space (uniform addresses)
/// loads every `(channel, bank)` pair within one line of every other.
#[test]
fn topology_interleave_bijective_and_balanced() {
    check(
        "topology_interleave_bijective_and_balanced",
        |rng| {
            (
                rng.gen_range(1usize..=8),
                rng.gen_range(1usize..=32),
                rng.gen_range(1u64..=4000),
            )
        },
        |&(channels, banks_per_channel, lines)| {
            if channels == 0 || banks_per_channel == 0 || lines == 0 {
                return Ok(());
            }
            let t = Topology { channels, banks_per_channel };
            let mut counts = vec![0u64; t.total_banks()];
            let mut seen = std::collections::HashSet::new();
            for line in 0..lines {
                let a = t.decompose(line);
                ensure!(a.channel < channels, "channel {} out of range", a.channel);
                ensure!(
                    a.bank_in_channel < banks_per_channel,
                    "bank {} out of range",
                    a.bank_in_channel
                );
                ensure_eq!(t.channel_of(line), a.channel);
                ensure_eq!(t.bank_in_channel_of(line), a.bank_in_channel);
                ensure_eq!(t.recompose(a.channel, a.bank_in_channel, a.local_line), line);
                ensure!(
                    seen.insert((a.channel, a.bank_in_channel, a.local_line)),
                    "two lines share placement {a:?}"
                );
                counts[a.channel * banks_per_channel + a.bank_in_channel] += 1;
            }
            // Exactly balanced: the stripe cycles through all banks, so any
            // prefix loads banks within one line of each other (far inside
            // the 1% requirement for uniform address streams).
            let max = counts.iter().copied().max().unwrap_or(0);
            let min = counts.iter().copied().min().unwrap_or(0);
            ensure!(
                max - min <= 1,
                "bank load imbalance {max}-{min} over {lines} uniform lines"
            );
            Ok(())
        },
    );
}

/// The paper code and its bitsliced decoder, built once: construction
/// tabulates GF logs and 592×16 syndrome contributions, which would
/// dominate the property if rebuilt per case.
fn bch_pair() -> &'static (Bch, BchBitslice) {
    static PAIR: OnceLock<(Bch, BchBitslice)> = OnceLock::new();
    PAIR.get_or_init(|| {
        let code = Bch::new(10, 8, 512);
        let sliced = BchBitslice::new(&code);
        (code, sliced)
    })
}

/// Every lane of the bitsliced BCH decoder returns exactly the scalar
/// oracle's verdict. Each case fills all 64 lanes with a spread of error
/// weights — empty (`Clean`), 1..=t (`Corrected`), t+1..=2t (`Detected`),
/// far beyond 2t (where `Miscorrected` verdicts live), and one lane set to
/// a nonzero *codeword* (zero syndromes, guaranteed `Miscorrected`).
#[test]
fn bch_bitslice_matches_scalar_oracle() {
    check(
        "bch_bitslice_matches_scalar_oracle",
        |rng| {
            let (code, _) = bch_pair();
            let nbits = code.codeword_bits();
            (0..BITSLICE_LANES)
                .map(|lane| match lane % 8 {
                    0 => Vec::new(),
                    1 => {
                        // A nonzero codeword as the "error" pattern: its
                        // syndromes vanish, so decode must report silent
                        // corruption, and the bitsliced screen takes its
                        // all-clean shortcut for a nonempty pattern.
                        let mut data = gen_bytes(rng, 64, 64);
                        data.resize(64, 0);
                        data[0] |= 1;
                        code.encode(&data)
                            .ones()
                            .into_iter()
                            .map(|p| p as u16)
                            .collect()
                    }
                    2 => to_u16(gen_subset(rng, nbits, 1, 8)),
                    3 => to_u16(gen_subset(rng, nbits, 9, 16)),
                    4 => to_u16(gen_subset(rng, nbits, 17, 24)),
                    5 => to_u16(gen_subset(rng, nbits, 25, 60)),
                    6 => to_u16(gen_subset(rng, nbits, 0, 2)),
                    _ => to_u16(gen_subset(rng, nbits, 0, 40)),
                })
                .collect::<Vec<Vec<u16>>>()
        },
        |pats| {
            let (code, sliced) = bch_pair();
            let nbits = code.codeword_bits();
            if pats.len() > BITSLICE_LANES
                || pats.iter().any(|p| {
                    p.iter().any(|&b| b as usize >= nbits)
                        || p.windows(2).any(|w| w[0] >= w[1])
                })
            {
                return Ok(());
            }
            let refs: Vec<&[u16]> = pats.iter().map(Vec::as_slice).collect();
            let batch = sliced.decode_patterns(&refs);
            ensure_eq!(batch.len(), pats.len());
            for (lane, pat) in pats.iter().enumerate() {
                let oracle = code.decode_error_pattern(pat);
                ensure!(
                    batch[lane] == oracle,
                    "lane {lane} weight {}: bitsliced {:?} != scalar {oracle:?}",
                    pat.len(),
                    batch[lane]
                );
            }
            Ok(())
        },
    );
}

fn to_u16(positions: impl IntoIterator<Item = usize>) -> Vec<u16> {
    positions.into_iter().map(|p| p as u16).collect()
}

/// `Bch::decode_error_pattern` without its ≤ t shortcut, kept as its
/// oracle: the positions set in the zero word, a full `Bch::decode`, and
/// the outcome read against the known true codeword.
fn full_decode_verdict(code: &Bch, positions: &[u16]) -> PatternOutcome {
    if positions.is_empty() {
        return PatternOutcome::Clean;
    }
    let mut cw = BitVec::zeros(code.codeword_bits());
    for &p in positions {
        cw.set(p as usize, true);
    }
    match code.decode(&mut cw) {
        DecodeOutcome::Clean => PatternOutcome::Miscorrected,
        DecodeOutcome::Corrected(n) if cw.count_ones() == 0 => PatternOutcome::Corrected(n),
        DecodeOutcome::Corrected(_) => PatternOutcome::Miscorrected,
        DecodeOutcome::Detected => PatternOutcome::Detected,
    }
}

/// `decode_error_pattern`, shortcut and all, returns the full decoder's
/// verdict. Each case draws one pattern of every weight 0..=2t+2 and one
/// nonzero codeword, and passes each in ascending order (the shortcut's
/// domain at weight ≤ t) and shuffled (the full path at any weight).
#[test]
fn bch_pattern_verdict_matches_full_decode() {
    check(
        "bch_pattern_verdict_matches_full_decode",
        |rng| {
            let (code, _) = bch_pair();
            let nbits = code.codeword_bits();
            let t = code.correction_capability();
            let mut data = gen_bytes(rng, 64, 64);
            data[0] |= 1;
            let codeword = to_u16(code.encode(&data).ones());
            let mut pats: Vec<Vec<u16>> = (0..=2 * t + 2)
                .map(|w| to_u16(gen_subset(rng, nbits, w, w)))
                .chain([codeword])
                .collect();
            for i in 0..pats.len() {
                let mut shuffled = pats[i].clone();
                for j in (1..shuffled.len()).rev() {
                    shuffled.swap(j, rng.gen_range(0..=j));
                }
                pats.push(shuffled);
            }
            pats
        },
        |pats| {
            let (code, _) = bch_pair();
            let nbits = code.codeword_bits();
            for pat in pats {
                let mut sorted = pat.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() != pat.len() || sorted.last().is_some_and(|&b| b as usize >= nbits)
                {
                    return Ok(());
                }
            }
            for pat in pats {
                let oracle = full_decode_verdict(code, pat);
                let got = code.decode_error_pattern(pat);
                ensure!(
                    got == oracle,
                    "weight {} {pat:?}: {got:?} != full decode {oracle:?}",
                    pat.len()
                );
            }
            Ok(())
        },
    );
}

/// The errors-and-erasures decoder keeps the two-trial method's
/// guarantees. With `w` wrong bits inside the hint, `e` outside it and
/// `f` the hint size:
///
/// * (a) an empty hint gives the plain decode's verdict;
/// * (b) `e + w ≤ t` is `Clean` with nothing wrong, else `Corrected(e + w)`;
/// * (c) a plain verdict other than `Detected` stands;
/// * (d) a `Detected` plain verdict with `e + f − w ≤ t` becomes
///   `Corrected(e + w)`: flipping every erased bit leaves a correctable
///   residual;
/// * (e) `Corrected(n)` always has `n = e + w`, and `Clean` means nothing
///   was wrong.
///
/// Each case draws 64 (errors, hint) pairs from the stuck-bit shapes the
/// wear subsystem produces plus adversarial ones — wrong ⊆ erased with
/// `f ≤ t` (the guaranteed-correct hint), erased positions that read
/// right (hints that cost a trial but flip nothing wrong), drift errors
/// outside the erasure set near the `e + f ≤ 2t` boundary, erasure sets
/// far beyond capacity (every bit of one wrong, so only trial 1 repairs
/// it), and the degenerate empty hint.
#[test]
fn bch_erasure_decode_keeps_two_trial_guarantees() {
    check(
        "bch_erasure_decode_keeps_two_trial_guarantees",
        |rng| {
            let (code, _) = bch_pair();
            let nbits = code.codeword_bits();
            (0..64)
                .map(|lane| match lane % 9 {
                    0 => (Vec::new(), Vec::new()),
                    1 => {
                        // The steady-state wear shape: every wrong bit is
                        // a known-dead cell, f <= t.
                        let erased = gen_subset(rng, nbits, 1, 8);
                        let wrong: Vec<u16> = erased
                            .iter()
                            .filter(|_| rng.gen_range(0u32..2) == 0)
                            .map(|&p| p as u16)
                            .collect();
                        (wrong, to_u16(erased))
                    }
                    2 => {
                        // Empty hint: must be the plain decode verdict.
                        (to_u16(gen_subset(rng, nbits, 0, 12)), Vec::new())
                    }
                    3 => {
                        // Stuck bits plus drift outside the hint, mixed
                        // weights straddling the e + f <= 2t boundary.
                        let erased = gen_subset(rng, nbits, 1, 8);
                        let mut wrong: Vec<u16> = erased
                            .iter()
                            .filter(|_| rng.gen_range(0u32..2) == 0)
                            .map(|&p| p as u16)
                            .collect();
                        wrong.extend(
                            gen_subset(rng, nbits, 0, 8)
                                .into_iter()
                                .filter(|p| !erased.contains(p))
                                .map(|p| p as u16),
                        );
                        wrong.sort_unstable();
                        (wrong, to_u16(erased))
                    }
                    4 => {
                        // Hints alone, none of them actually wrong: the
                        // erasure trial flips healthy bits and must still
                        // agree with the oracle.
                        (Vec::new(), to_u16(gen_subset(rng, nbits, 1, 16)))
                    }
                    5 => {
                        // Far beyond capacity: 2x the margin and more.
                        let erased = gen_subset(rng, nbits, 17, 40);
                        let wrong: Vec<u16> = erased
                            .iter()
                            .filter(|_| rng.gen_range(0u32..2) == 0)
                            .map(|&p| p as u16)
                            .collect();
                        (wrong, to_u16(erased))
                    }
                    6 => {
                        // Every erased bit wrong, past t: unless trial 0
                        // miscorrects, trial 1's flips alone repair it.
                        let erased = to_u16(gen_subset(rng, nbits, 9, 40));
                        (erased.clone(), erased)
                    }
                    7 => {
                        // Adversarial: heavy unrelated errors with a hint
                        // that points mostly at the wrong cells.
                        (
                            to_u16(gen_subset(rng, nbits, 0, 60)),
                            to_u16(gen_subset(rng, nbits, 1, 16)),
                        )
                    }
                    _ => (
                        to_u16(gen_subset(rng, nbits, 0, 24)),
                        to_u16(gen_subset(rng, nbits, 0, 16)),
                    ),
                })
                .collect::<Vec<(Vec<u16>, Vec<u16>)>>()
        },
        |lanes| {
            let (code, _) = bch_pair();
            let nbits = code.codeword_bits();
            let t = code.correction_capability();
            let in_domain = |p: &[u16]| {
                p.iter().all(|&b| (b as usize) < nbits) && p.windows(2).all(|w| w[0] < w[1])
            };
            if lanes.iter().any(|(e, f)| !in_domain(e) || !in_domain(f)) {
                return Ok(());
            }
            for (lane, (errors, erasures)) in lanes.iter().enumerate() {
                let verdict = code.decode_error_pattern_with_erasures(errors, erasures);
                let plain = code.decode_error_pattern(errors);
                let w = errors
                    .iter()
                    .filter(|b| erasures.binary_search(b).is_ok())
                    .count();
                let (e, f) = (errors.len() - w, erasures.len());
                let at = format!("lane {lane} e={e} w={w} f={f}: {verdict:?} (plain {plain:?})");
                if erasures.is_empty() {
                    ensure!(verdict == plain, "(a) {at}");
                }
                if e + w <= t {
                    let want = if errors.is_empty() {
                        PatternOutcome::Clean
                    } else {
                        PatternOutcome::Corrected(e + w)
                    };
                    ensure!(verdict == want, "(b) {at}");
                }
                if plain != PatternOutcome::Detected {
                    ensure!(verdict == plain, "(c) {at}");
                } else if e + f - w <= t {
                    ensure!(verdict == PatternOutcome::Corrected(e + w), "(d) {at}");
                }
                match verdict {
                    PatternOutcome::Corrected(n) => ensure!(n == e + w, "(e) {at}"),
                    PatternOutcome::Clean => ensure!(errors.is_empty(), "(e) {at}"),
                    PatternOutcome::Detected | PatternOutcome::Miscorrected => {}
                }
            }
            Ok(())
        },
    );
}

/// One fault-injected read obeys the R→M escalation policy's laws at any
/// age from 1 s to 10⁶ s, R-first or M-only, with or without stuck bits:
/// only an escalating injector's R-first reads escalate; exactly the
/// escalated reads that decode are rewritten; an M-only read senses no R
/// pattern; every stuck-wrong bit is reported; a repair excludes both
/// failure flags. Driven in lockstep from one seed, injectors see the
/// same lines (an M-only read advances the stream exactly as an R-first
/// one): the escalating injector escalates exactly where the
/// non-escalating one reports detected-uncorrectable, wherever it does
/// not escalate the two reads are identical, and an escalated read
/// resolves exactly as a direct M-read of the same line.
#[test]
fn injected_read_obeys_escalation_laws() {
    check(
        "injected_read_obeys_escalation_laws",
        |rng| {
            let reads = (0..rng.gen_range(1usize..=16))
                .map(|_| {
                    let age = match rng.gen_range(0u32..8) {
                        0 => 1.0,
                        1 => 1.0e6,
                        _ => 10f64.powf(rng.gen_range(0.0f64..6.0)),
                    };
                    let dead_cells = |rng: &mut StdRng, lo, hi| -> Vec<u16> {
                        gen_subset(rng, 296, lo, hi)
                            .into_iter()
                            .flat_map(|c| [2 * c as u16, 2 * c as u16 + 1])
                            .collect()
                    };
                    let erased: Vec<u16> = match rng.gen_range(0u32..4) {
                        0 => Vec::new(),
                        // Whole dead cells (both bits of each), within the
                        // remap margin and far beyond it.
                        1 => dead_cells(rng, 1, 4),
                        2 => dead_cells(rng, 5, 20),
                        _ => to_u16(gen_subset(rng, 592, 1, 16)),
                    };
                    let wrong: Vec<u16> = match rng.gen_range(0u32..3) {
                        0 => erased.clone(),
                        _ => erased
                            .iter()
                            .copied()
                            .filter(|_| rng.gen_range(0u32..2) == 0)
                            .collect(),
                    };
                    (age, rng.gen_range(0u32..3) == 0, wrong, erased)
                })
                .collect::<Vec<_>>();
            (rng.next_u64(), reads)
        },
        |(seed, reads)| {
            let ascending = |p: &[u16]| p.windows(2).all(|w| w[0] < w[1]);
            if reads.iter().any(|(age, _, wrong, erased)| {
                !(1.0..=1.0e6).contains(age)
                    || !ascending(wrong)
                    || !ascending(erased)
                    || erased.last().is_some_and(|&b| b >= 592)
                    || wrong.iter().any(|b| erased.binary_search(b).is_err())
            }) {
                return Ok(());
            }
            let mut escalating = FaultInjector::new(*seed, true);
            let mut plain = FaultInjector::new(*seed, false);
            let mut direct_m = FaultInjector::new(*seed, true);
            for (i, (age, m_only, wrong, erased)) in reads.iter().enumerate() {
                let esc = escalating.read(*age, *m_only, wrong, erased);
                let non = plain.read(*age, *m_only, wrong, erased);
                let m = direct_m.read(*age, true, wrong, erased);
                for (escalates, r) in [(true, esc), (false, non)] {
                    let at = format!(
                        "read {i} age {age:e} m_only {m_only} escalates {escalates}: {r:?}"
                    );
                    ensure!(!r.escalated || (!m_only && escalates), "{at}");
                    ensure!(
                        r.needs_rewrite
                            == (r.escalated && !r.detected_uncorrectable && !r.silent_corruption),
                        "{at}"
                    );
                    ensure!(!m_only || r.r_errors == 0, "{at}");
                    ensure!(r.stuck_bits as usize == wrong.len(), "{at}");
                    ensure!(
                        r.corrected_bits == 0
                            || (!r.detected_uncorrectable && !r.silent_corruption),
                        "{at}"
                    );
                }
                if !m_only {
                    ensure!(
                        esc.escalated == non.detected_uncorrectable,
                        "read {i}: {esc:?} vs {non:?}"
                    );
                }
                if !esc.escalated {
                    ensure!(esc == non, "read {i}: {esc:?} vs {non:?}");
                } else {
                    let resolved = InjectedRead {
                        r_errors: esc.r_errors,
                        escalated: true,
                        needs_rewrite: esc.needs_rewrite,
                        ..m
                    };
                    ensure!(esc == resolved, "read {i}: {esc:?} vs direct M {m:?}");
                }
            }
            Ok(())
        },
    );
}

/// The batched Cody `erfc` kernel is the scalar function, bit for bit, at
/// every slot — over magnitudes from deep underflow to both saturated
/// tails, either sign, and zero.
#[test]
fn batched_erf_kernels_match_scalar_bitwise() {
    check(
        "batched_erf_kernels_match_scalar_bitwise",
        |rng| {
            (0..rng.gen_range(0usize..=257))
                .map(|_| {
                    let x = match rng.gen_range(0u32..8) {
                        0 => 0.0,
                        1 => 10f64.powf(rng.gen_range(-300.0f64..-8.0)),
                        2 => rng.gen_range(6.0f64..30.0),
                        _ => rng.gen_range(0.0f64..4.0),
                    };
                    if rng.gen_range(0u32..2) == 0 {
                        x
                    } else {
                        -x
                    }
                })
                .collect::<Vec<f64>>()
        },
        |xs| {
            if xs.iter().any(|x| !x.is_finite()) {
                return Ok(());
            }
            let mut out = vec![0.0; xs.len()];
            erfc_slice(xs, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                ensure!(
                    o.to_bits() == erfc(x).to_bits(),
                    "erfc({x:e}): batch {o:e} != scalar {:e}",
                    erfc(x)
                );
            }
            Ok(())
        },
    );
}

/// Hoisting the drift exponent is exact: for any line of cells,
/// `log_metric_at_u` over one shared `drift_exponent(t, t0)` reproduces
/// per-cell `log_metric_at` bit for bit. `MlcLine` and the fault sampler
/// both hoist it.
#[test]
fn hoisted_drift_exponent_matches_scalar_bitwise() {
    check(
        "hoisted_drift_exponent_matches_scalar_bitwise",
        |rng| {
            let t0 = 10f64.powf(rng.gen_range(-9.0f64..0.0));
            // Both sides of the t <= t0 clamp, across ns..centuries.
            let t = 10f64.powf(rng.gen_range(-12.0f64..10.0));
            let cells: Vec<(f64, f64)> = (0..rng.gen_range(0usize..=296))
                .map(|_| (rng.gen_range(0.0f64..8.0), rng.gen_range(0.0f64..0.25)))
                .collect();
            (t, t0, cells)
        },
        |input| {
            let (t, t0, cells) = input;
            if !(*t0 > 0.0 && t.is_finite()) {
                return Ok(());
            }
            let u = drift_exponent(*t, *t0);
            for (i, &(x0, a)) in cells.iter().enumerate() {
                let scalar = log_metric_at(x0, a, *t, *t0);
                ensure!(
                    log_metric_at_u(x0, a, u).to_bits() == scalar.to_bits(),
                    "slot {i}: log_metric_at_u {:e} != log_metric_at {scalar:e}",
                    log_metric_at_u(x0, a, u)
                );
            }
            Ok(())
        },
    );
}

/// The per-cell fault sampler `FaultModel` replaced, kept as its oracle:
/// every cell whose level can cross draws its programmed value through
/// the full inverse CDF (`TruncatedNormal::sample`) and is sensed under R,
/// then, if R misread it, under M. Also returns how many cells R sensed
/// *below* their level.
fn inversion_oracle(
    r: &MetricConfig,
    m: &MetricConfig,
    age_s: f64,
    cells: u32,
    rng: &mut StdRng,
) -> (LineFaults, u32) {
    let u = drift_exponent(age_s, r.t0());
    let z_programmed = TruncatedNormal::symmetric(Normal::standard(), PROGRAM_WIDTH_SIGMAS);
    let z_alpha = Normal::standard();
    let sense = |cfg: &MetricConfig, level: CellLevel, z: f64, za: f64| {
        let lp = cfg.level(level);
        let alpha = (lp.mu_alpha + za * lp.sigma_alpha).max(0.0);
        cfg.sense_level(log_metric_at_u(lp.mu + z * lp.sigma, alpha, u))
    };
    // The impossibility precheck: the top of the verify window drifting
    // at μ_α + 10σ_α must cross the R reference above.
    let can_cross = |level: CellLevel| {
        r.reference_above(level).is_some_and(|boundary| {
            let lp = r.level(level);
            let x0_max = lp.mu + PROGRAM_WIDTH_SIGMAS * lp.sigma;
            let alpha_max = (lp.mu_alpha + 10.0 * lp.sigma_alpha).max(0.0);
            log_metric_at_u(x0_max, alpha_max, u) > boundary
        })
    };
    let push_bits = |bits: &mut Vec<u16>, cell: u32, level: CellLevel, sensed: CellLevel| {
        let diff = level.data() ^ sensed.data();
        if diff & 0b10 != 0 {
            bits.push(cell as u16 * 2);
        }
        if diff & 0b01 != 0 {
            bits.push(cell as u16 * 2 + 1);
        }
    };
    let mut faults = LineFaults::default();
    let mut below = 0;
    if !CellLevel::ALL.into_iter().any(can_cross) {
        return (faults, below);
    }
    for cell in 0..cells {
        let level = CellLevel::from_index(rng.gen_range(0..4usize));
        if !can_cross(level) {
            continue;
        }
        let z = z_programmed.sample(rng);
        let za = z_alpha.sample(rng);
        let sensed_r = sense(r, level, z, za);
        if sensed_r == level {
            continue;
        }
        below += u32::from(sensed_r < level);
        push_bits(&mut faults.r_bits, cell, level, sensed_r);
        faults.r_cells += 1;
        let sensed_m = sense(m, level, z, za);
        if sensed_m != level {
            push_bits(&mut faults.m_bits, cell, level, sensed_m);
            faults.m_cells += 1;
        }
    }
    (faults, below)
}

/// An R/M pair like the paper's, except that L2's programmed window
/// (5 ± 2.746·0.3) reaches below L1's reference at 4.5: its cells can
/// misread *downwards*, which no threshold on the reference above can
/// rule out.
fn overlapping_metrics() -> (MetricConfig, MetricConfig) {
    let mut levels = *MetricConfig::r_metric().levels();
    levels[2].sigma = 0.3;
    let m_levels = levels.map(|lp| LevelParams::new(lp.mu - 4.0, lp.sigma, lp.mu_alpha / 7.0));
    (
        MetricConfig::custom(MetricKind::R, levels, 1.0),
        MetricConfig::custom(MetricKind::M, m_levels, 1.0),
    )
}

/// `FaultModel`'s threshold-first sampler is the inversion sampler, bit
/// for bit: the R-first pattern (`sample_line`), the M-only pattern
/// (`sample_line_m` against the oracle's M half) and the next word of the
/// RNG stream, at ages from fault-free to far past every scrub interval,
/// on 256- and 296-cell lines. The second model's L2 window reaches the
/// reference below, so no L2 cell may be skipped; its oracle must see
/// downward misreads, or that half of the case is vacuous.
#[test]
fn fault_sampler_matches_inversion_oracle() {
    const AGES: [f64; 12] = [0.5, 1.2, 1.5, 2.7, 8.0, 64.0, 160.0, 640.0, 2e4, 1e5, 1e6, 1e7];
    let (wide_r, wide_m) = overlapping_metrics();
    let models = [
        (FaultModel::paper(), MetricConfig::r_metric(), MetricConfig::m_metric()),
        (FaultModel::new(wide_r.clone(), wide_m.clone()), wide_r, wide_m),
    ];
    check(
        "fault_sampler_matches_inversion_oracle",
        |rng| rng.gen::<u64>(),
        |&seed| {
            for (i, (model, r, m)) in models.iter().enumerate() {
                let mut below = 0u32;
                for age in AGES {
                    for cells in [256u32, 296] {
                        let stream = seed ^ age.to_bits() ^ u64::from(cells);
                        let mut fast = StdRng::seed_from_u64(stream);
                        let mut oracle = StdRng::seed_from_u64(stream);
                        for _ in 0..2 {
                            let (want, down) = inversion_oracle(r, m, age, cells, &mut oracle);
                            below += down;
                            ensure_eq!(model.sample_line(age, cells, &mut fast), want);
                            let (want, _) = inversion_oracle(r, m, age, cells, &mut oracle);
                            let m_only = LineFaults {
                                m_bits: want.m_bits,
                                m_cells: want.m_cells,
                                ..LineFaults::default()
                            };
                            ensure_eq!(model.sample_line_m(age, cells, &mut fast), m_only);
                        }
                        ensure!(
                            fast.next_u64() == oracle.next_u64(),
                            "model {i}, age {age}, {cells} cells: RNG streams diverged"
                        );
                    }
                }
                ensure!(i == 0 || below > 0, "no downward misread under the overlapping metrics");
            }
            Ok(())
        },
    );
}

/// The weakest-cell scan `WearModel::weakest_cell` replaced, kept as its
/// oracle: every live cell's endurance, keeping the first minimum.
fn brute_force_weakest(
    model: &WearModel,
    line: u64,
    generation: u32,
    cells: u32,
    dead: &[u16],
) -> (u64, u32) {
    let mut best = (u64::MAX, 0u32);
    for cell in 0..cells {
        if dead.binary_search(&(cell as u16)).is_ok() {
            continue;
        }
        let n = model.endurance_cycles(line, cell, generation);
        if n < best.0 {
            best = (n, cell);
        }
    }
    best
}

/// `WearModel::weakest_cell`, which inverts only the cells near the
/// smallest hashed key, equals the brute-force scan — including at the
/// tiny medians where most cells round to the same few cycles, which pins
/// the lowest-index tie-break, and with every cell dead.
#[test]
fn wear_scan_matches_brute_force() {
    check(
        "wear_scan_matches_brute_force",
        |rng| {
            let dead = if rng.gen_range(0u32..8) == 0 {
                (0..296).collect()
            } else {
                gen_subset(rng, 296, 0, 40)
            };
            (rng.gen::<u64>(), rng.gen::<u64>(), rng.gen_range(0u32..8), dead)
        },
        |(seed, line, generation, dead)| {
            let dead: Vec<u16> = dead.iter().map(|&c| c as u16).collect();
            for median in [1, 2, 3, 10, 10_000, 10_000_000, 100_000_000] {
                let model = WearModel::new(*seed, median);
                for cells in [256u32, 296] {
                    ensure_eq!(
                        model.weakest_cell(*line, *generation, cells, &dead),
                        brute_force_weakest(&model, *line, *generation, cells, &dead)
                    );
                }
            }
            Ok(())
        },
    );
}

/// The rejection-inversion loop `Zipf::sample` replaced, kept as its
/// oracle: every candidate pays the exact acceptance test
/// `u ≥ H(k + ½) − h(k)`.
struct ExactZipf {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
}

impl ExactZipf {
    fn new(n: u64, s: f64) -> Self {
        let mut z = Self { n, s, h_x1: 0.0, h_n: 0.0 };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(n as f64 + 0.5);
        z
    }

    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        let t = (1.0 - self.s) * log_x;
        let exp_m1_over = if t.abs() > 1e-8 {
            t.exp_m1() / t
        } else {
            1.0 + t * 0.5 * (1.0 + t / 3.0 * (1.0 + 0.25 * t))
        };
        exp_m1_over * log_x
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let mut t = x * (1.0 - self.s);
        if t < -1.0 {
            t = -1.0;
        }
        let ln_1p_over = if t.abs() > 1e-8 {
            t.ln_1p() / t
        } else {
            1.0 - t * (0.5 - t * (1.0 / 3.0 - 0.25 * t))
        };
        (ln_1p_over * x).exp()
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k = (x.clamp(1.0, self.n as f64) + 0.5).floor().clamp(1.0, self.n as f64) as u64;
            if u >= self.h_integral(k as f64 + 0.5) - (-(k as f64).ln() * self.s).exp() {
                return k;
            }
        }
    }
}

/// `Zipf::sample`, whose squeeze accepts most candidates without the
/// exact test, draws the oracle's ranks and leaves the RNG stream where
/// the oracle leaves it: at the warm and cold `(n, s)` of every SPEC2006
/// workload (sized as the trace generator sizes them), and over a grid
/// from a one-rank support to 10⁹ ranks with exponents on both sides of
/// 1, where the squeeze's rank cutoff falls inside the support.
#[test]
fn zipf_squeeze_matches_exact_acceptance_oracle() {
    let mut params = Vec::new();
    for w in Workload::spec2006() {
        let footprint = w.footprint_lines.max(16);
        let warm = w.warm_lines();
        params.push((warm, w.locality.zipf_s));
        if footprint > warm {
            params.push((footprint - warm, w.locality.zipf_s));
        }
    }
    for n in [1, 2, 3, 10, 1_000_000, 1_000_000_000] {
        for s in [0.3, 0.8, 0.999, 1.0, 1.001, 1.5, 3.0] {
            params.push((n, s));
        }
    }
    let pairs: Vec<(Zipf, ExactZipf)> =
        params.iter().map(|&(n, s)| (Zipf::new(n, s), ExactZipf::new(n, s))).collect();
    check(
        "zipf_squeeze_matches_exact_acceptance_oracle",
        |rng| rng.gen::<u64>(),
        |&seed| {
            for (fast, oracle) in &pairs {
                let stream = seed ^ oracle.n ^ oracle.s.to_bits();
                let mut fast_rng = StdRng::seed_from_u64(stream);
                let mut oracle_rng = StdRng::seed_from_u64(stream);
                for _ in 0..500 {
                    ensure_eq!(fast.sample(&mut fast_rng), oracle.sample(&mut oracle_rng));
                }
                ensure!(
                    fast_rng.next_u64() == oracle_rng.next_u64(),
                    "n={}, s={}: RNG streams diverged",
                    oracle.n,
                    oracle.s
                );
            }
            Ok(())
        },
    );
}
