//! The correctness gate behind `failed`: every simulation the benchmark
//! runs is checked, and a run is correct only when none fails.
//!
//! Three kinds of check:
//! * conservation laws every report must satisfy, at any seed;
//! * cross-path identity, at any seed: every pass equals the first, and
//!   paths that must agree (streamed and materialised traces, pool widths,
//!   telemetry on and off, a recorded device and its replay) do;
//! * at the default seed and volume, each report's digest (FNV-1a over
//!   its `Debug` string) equals the one `--bless` wrote to
//!   `reference_digests.txt`.

use crate::api::{self, SimReport, HARNESS_SEED};
use crate::workload::{Kind, Plan, Run};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The digest of a report: FNV-1a over its `Debug` string.
pub fn digest(r: &SimReport) -> u64 {
    fnv1a(format!("{r:?}").as_bytes())
}

/// Laws every report obeys; `ops` is the op count of its source, when
/// known.
pub fn laws(r: &SimReport, ops: Option<u64>) -> Result<(), String> {
    let c = api::counts(r);
    if c.exec_ns == 0 {
        return Err("no simulated time elapsed".into());
    }
    if c.reads != c.reads_by_mode {
        return Err(format!("{} reads but {} by mode", c.reads, c.reads_by_mode));
    }
    if let Some(n) = ops.filter(|&n| n != c.reads + c.writes) {
        return Err(format!(
            "{} reads + {} writes from a {n}-op source",
            c.reads, c.writes
        ));
    }
    if c.silent_corruptions != 0 {
        return Err(format!("{} silent corruptions", c.silent_corruptions));
    }
    Ok(())
}

/// Where `--bless` writes the reference digests.
pub fn reference_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference_digests.txt")
}

/// The blessed digests, keyed `workload sim`; empty when the file is
/// missing.
pub fn load_reference() -> BTreeMap<String, u64> {
    let text = std::fs::read_to_string(reference_path()).unwrap_or_default();
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (key, hex) = l.rsplit_once(' ')?;
            Some((key.to_string(), u64::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Replaces `kind`'s reference digests with those of `runs`.
pub fn bless(kind: Kind, runs: &[Run]) -> std::io::Result<()> {
    let mut reference = load_reference();
    reference.retain(|key, _| !key.starts_with(&format!("{} ", kind.name())));
    for run in runs {
        reference.insert(
            format!("{} {}", kind.name(), run.label),
            digest(&run.report),
        );
    }
    let mut text = String::from(
        "# Reference SimReport digests at the default seed and volume, written by\n\
         # `--bless`: workload, simulation, FNV-1a 64 of the report's Debug string.\n",
    );
    for (key, d) in &reference {
        text.push_str(&format!("{key} {d:016x}\n"));
    }
    std::fs::write(reference_path(), text)
}

/// The tally of one benchmark run.
pub struct Gate {
    workload: &'static str,
    /// Blessed digests, present only at the default seed and volume.
    reference: Option<BTreeMap<String, u64>>,
    /// Digests of the first pass, which every later pass must repeat.
    first: Option<Vec<u64>>,
    /// Simulations and identity checks run.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Gate {
    /// A gate for runs of `plan`.
    pub fn new(plan: &Plan) -> Self {
        let blessed = plan.seed == HARNESS_SEED && plan.instr == plan.kind.instructions();
        Self {
            workload: plan.kind.name(),
            reference: blessed.then(load_reference),
            first: None,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    /// Whether nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Counts one check of `label`.
    pub fn check(&mut self, label: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.notes
                .push(format!("{}: {label}: {why}", self.workload));
        }
    }

    /// Checks every simulation of one pass.
    pub fn pass(&mut self, runs: &[Run]) {
        let digests: Vec<u64> = runs.iter().map(|r| digest(&r.report)).collect();
        for (i, (run, &d)) in runs.iter().zip(&digests).enumerate() {
            let key = format!("{} {}", self.workload, run.label);
            let blessed = self.reference.as_ref().map(|r| r.get(&key).copied());
            let result = laws(&run.report, run.ops).and_then(|()| match blessed {
                Some(None) => Err("no blessed digest (run --bless)".into()),
                Some(Some(b)) if b != d => Err(format!("digest {d:016x}, blessed {b:016x}")),
                _ => Ok(()),
            });
            let result = result.and_then(|()| match &self.first {
                Some(first) if first.get(i) != Some(&d) => {
                    Err("differs from the first pass".into())
                }
                _ => Ok(()),
            });
            self.check(&run.label, result);
        }
        self.first.get_or_insert(digests);
    }

    /// Counts one simulation that must reproduce `expected` exactly.
    pub fn same(&mut self, what: &str, label: &str, expected: &SimReport, got: &SimReport) {
        let result = if expected == got {
            Ok(())
        } else {
            Err(format!("{what} differs"))
        };
        self.check(label, result);
    }

    /// Counts `sims` simulations lost to a panic.
    pub fn panicked(&mut self, sims: usize, what: &str) {
        for _ in 0..sims {
            self.check(what, Err("panicked".into()));
        }
    }
}
