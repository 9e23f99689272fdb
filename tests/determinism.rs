//! Determinism guarantees of the in-workspace RNG stack: the same seed must
//! reproduce a trace bit-for-bit (across runs and machines), and adjacent
//! seeds must produce different streams.

use readduo::trace::{Trace, TraceGenerator, Workload};

fn trace(seed: u64) -> Trace {
    TraceGenerator::new(seed).generate(&Workload::toy(), 50_000, 4)
}

#[test]
fn same_seed_reproduces_trace_bit_for_bit() {
    assert_eq!(trace(0xD5EAD0), trace(0xD5EAD0));
}

#[test]
fn adjacent_seeds_diverge() {
    let a = trace(0xD5EAD0);
    let b = trace(0xD5EAD0 + 1);
    assert_ne!(a, b, "seed and seed+1 must produce different traces");
    // Not just a few ops: the per-core streams should disagree broadly.
    // An op past the end of the shorter stream counts as differing.
    let diff: usize = (0..a.cores())
        .map(|core| {
            let (x, y) = (a.stream(core), b.stream(core));
            let unequal = x.iter().zip(y).filter(|(p, q)| p != q).count();
            unequal + x.len().abs_diff(y.len())
        })
        .sum();
    assert!(diff > a.total_ops() / 100, "only {diff} of {} ops differ", a.total_ops());
}
