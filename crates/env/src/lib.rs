//! Validated `READDUO_*` environment-variable overrides.
//!
//! Every tunable in the workspace (`READDUO_THREADS`, `READDUO_INSTR`,
//! `READDUO_SPARE_LINES`, `READDUO_TELEMETRY`, …) goes through this
//! one helper, called only by `readduo-bench`, the crate of the binaries:
//! the libraries take values as arguments. The old pattern —
//! `var(..).ok().and_then(parse).filter(..).unwrap_or(default)` — silently
//! fell back to the default on a typo, which is the worst possible
//! behaviour for a reproducibility harness: `READDUO_THREADS=O4` quietly
//! ran a different experiment than the one the operator asked for.
//!
//! Here an *unset* variable means "use the default" (the helpers return
//! `None` and the caller supplies it), while a *set but invalid* value —
//! garbage, a zero where a positive count is required, a trailing unit
//! suffix — panics with a message naming the variable, the offending
//! value, and what would have been accepted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;

/// Validation class of a registered `READDUO_*` variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvKind {
    /// An unsigned integer with a lower bound (thread counts, volumes).
    Count {
        /// Smallest accepted value.
        min: u64,
    },
    /// A 64-bit RNG seed; any value including zero.
    Seed,
    /// A boolean switch: `1`/`true`/`yes`/`on` or `0`/`false`/`no`/`off`.
    Flag,
    /// A filesystem path, taken verbatim.
    Path,
}

impl EnvKind {
    /// Short human label used in the help table.
    pub fn label(&self) -> String {
        match self {
            EnvKind::Count { min } => format!("int >= {min}"),
            EnvKind::Seed => "u64 seed".into(),
            EnvKind::Flag => "flag (0/1)".into(),
            EnvKind::Path => "path".into(),
        }
    }
}

/// One registered environment variable: the single source of truth that
/// help text and set-but-invalid diagnostics are generated from.
#[derive(Debug, Clone, Copy)]
pub struct EnvVar {
    /// Variable name (`READDUO_*`).
    pub name: &'static str,
    /// Validation class.
    pub kind: EnvKind,
    /// Human-readable default (what an unset variable means).
    pub default: &'static str,
    /// One-line description.
    pub doc: &'static str,
}

/// Every `READDUO_*` variable any binary or test in the workspace reads.
///
/// A test in this crate scans the workspace sources and fails when a
/// variable is read anywhere without being registered here, so the table
/// cannot silently go stale.
pub fn recognized() -> &'static [EnvVar] {
    const VARS: &[EnvVar] = &[
        EnvVar {
            name: "READDUO_THREADS",
            kind: EnvKind::Count { min: 1 },
            default: "available parallelism",
            doc: "Worker threads of the matrix pool, one workload per task; 1 is sequential",
        },
        EnvVar {
            name: "READDUO_INSTR",
            kind: EnvKind::Count { min: 1 },
            default: "1000000",
            doc: "Instructions simulated per core by the bench harness",
        },
        EnvVar {
            name: "READDUO_FAULT_MC_LINES",
            kind: EnvKind::Count { min: 100 },
            default: "20000",
            doc: "Monte-Carlo sample size (lines per point) in fault_mc",
        },
        EnvVar {
            name: "READDUO_PROP_SEED",
            kind: EnvKind::Seed,
            default: "unset (run all cases)",
            doc: "Replay exactly one property-test case by its printed seed",
        },
        EnvVar {
            name: "READDUO_TELEMETRY",
            kind: EnvKind::Flag,
            default: "0",
            doc: "Enable the telemetry subsystem (metrics registry + event tracing)",
        },
        EnvVar {
            name: "READDUO_TRACE_OUT",
            kind: EnvKind::Path,
            default: "target/experiments/trace.json",
            doc: "Output path of the Chrome trace-event JSON (telemetry runs)",
        },
        EnvVar {
            name: "READDUO_SPARE_LINES",
            kind: EnvKind::Count { min: 0 },
            default: "64",
            doc: "Spare lines available per device/channel for remapping over-margin worn lines",
        },
    ];
    VARS
}

/// Looks a variable up in [`recognized`].
pub fn registered(name: &str) -> Option<&'static EnvVar> {
    recognized().iter().find(|v| v.name == name)
}

/// Renders the [`recognized`] table as aligned help text (one line per
/// variable: name, type, default, doc) — shared by every binary's
/// `--help`.
pub fn help_table() -> String {
    let vars = recognized();
    let rows: Vec<[String; 4]> = vars
        .iter()
        .map(|v| {
            [
                v.name.to_string(),
                v.kind.label(),
                format!("default: {}", v.default),
                v.doc.to_string(),
            ]
        })
        .collect();
    let mut widths = [0usize; 3];
    for r in &rows {
        for (i, w) in widths.iter_mut().enumerate() {
            *w = (*w).max(r[i].len());
        }
    }
    let mut out = String::from("Recognized READDUO_* environment variables:\n");
    for r in &rows {
        out.push_str(&format!(
            "  {:<w0$}  {:<w1$}  {:<w2$}  {}\n",
            r[0],
            r[1],
            r[2],
            r[3],
            w0 = widths[0],
            w1 = widths[1],
            w2 = widths[2],
        ));
    }
    out
}

/// Reads `name` as a `usize` that must be at least `min`.
///
/// Returns `None` when the variable is unset so the caller can apply its
/// default; empty values count as unset (shells produce them when a
/// variable is interpolated from nothing).
///
/// # Panics
///
/// Panics with a diagnostic naming the variable when the value is set but
/// not an integer, or below `min`.
pub fn usize_at_least(name: &str, min: usize) -> Option<usize> {
    raw(name).map(|v| match v.trim().parse::<usize>() {
        Ok(n) if n >= min => n,
        Ok(n) => invalid(name, &v, &format!("{n} is below the minimum of {min}")),
        Err(_) => invalid(name, &v, &format!("expected an integer >= {min}")),
    })
}

/// Reads `name` as a `u64` that must be at least `min`.
///
/// Same unset/empty semantics as [`usize_at_least`].
///
/// # Panics
///
/// Panics with a diagnostic naming the variable when the value is set but
/// not an integer, or below `min`.
pub fn u64_at_least(name: &str, min: u64) -> Option<u64> {
    raw(name).map(|v| match v.trim().parse::<u64>() {
        Ok(n) if n >= min => n,
        Ok(n) => invalid(name, &v, &format!("{n} is below the minimum of {min}")),
        Err(_) => invalid(name, &v, &format!("expected an integer >= {min}")),
    })
}

/// Reads `name` as a boolean flag: `1`/`true`/`yes`/`on` enable,
/// `0`/`false`/`no`/`off` disable (case-insensitive).
///
/// # Panics
///
/// Panics with a diagnostic naming the variable when the value is set but
/// not one of the accepted spellings.
pub fn flag(name: &str) -> Option<bool> {
    raw(name).map(|v| match v.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => true,
        "0" | "false" | "no" | "off" => false,
        _ => invalid(name, &v, "expected a flag: 1/true/yes/on or 0/false/no/off"),
    })
}

/// Reads `name` as a verbatim string (paths); unset and empty are `None`.
pub fn string(name: &str) -> Option<String> {
    raw(name)
}

/// The raw value of `name`, with unset and empty both mapped to `None`.
fn raw(name: &str) -> Option<String> {
    match env::var(name) {
        Ok(v) if v.trim().is_empty() => None,
        Ok(v) => Some(v),
        Err(_) => None,
    }
}

fn invalid(name: &str, value: &str, hint: &str) -> ! {
    // The panic and the --help table come from one source of truth: when
    // the variable is registered, the message carries its one-line doc and
    // default so the operator never has to grep the source.
    match registered(name) {
        Some(v) => panic!(
            "invalid {name}={value:?}: {hint} (unset the variable to use the default)\n  \
             {name} [{}] — {} (default: {})",
            v.kind.label(),
            v.doc,
            v.default
        ),
        None => panic!("invalid {name}={value:?}: {hint} (unset the variable to use the default)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns a distinct variable name: the process environment is
    // shared across the test harness's threads, so tests must never touch
    // the same key.

    #[test]
    fn unset_and_empty_mean_default() {
        assert_eq!(usize_at_least("READDUO_ENVTEST_UNSET", 1), None);
        env::set_var("READDUO_ENVTEST_EMPTY", "  ");
        assert_eq!(u64_at_least("READDUO_ENVTEST_EMPTY", 1), None);
        env::remove_var("READDUO_ENVTEST_EMPTY");
    }

    #[test]
    fn valid_values_parse() {
        env::set_var("READDUO_ENVTEST_OK", " 42 ");
        assert_eq!(usize_at_least("READDUO_ENVTEST_OK", 1), Some(42));
        assert_eq!(u64_at_least("READDUO_ENVTEST_OK", 42), Some(42));
        env::remove_var("READDUO_ENVTEST_OK");
    }

    #[test]
    #[should_panic(expected = "READDUO_ENVTEST_ZERO")]
    fn zero_below_minimum_rejected() {
        env::set_var("READDUO_ENVTEST_ZERO", "0");
        let _ = usize_at_least("READDUO_ENVTEST_ZERO", 1);
    }

    #[test]
    #[should_panic(expected = "expected an integer")]
    fn garbage_rejected() {
        env::set_var("READDUO_ENVTEST_GARBAGE", "four");
        let _ = u64_at_least("READDUO_ENVTEST_GARBAGE", 1);
    }

    #[test]
    fn flags_parse_all_spellings() {
        for (val, want) in [("1", true), ("TRUE", true), ("on", true), ("0", false), ("No", false)] {
            env::set_var("READDUO_ENVTEST_FLAG", val);
            assert_eq!(flag("READDUO_ENVTEST_FLAG"), Some(want), "{val}");
        }
        env::remove_var("READDUO_ENVTEST_FLAG");
        assert_eq!(flag("READDUO_ENVTEST_FLAG"), None);
    }

    #[test]
    #[should_panic(expected = "expected a flag")]
    fn garbage_flag_rejected() {
        env::set_var("READDUO_ENVTEST_BADFLAG", "maybe");
        let _ = flag("READDUO_ENVTEST_BADFLAG");
    }

    #[test]
    fn strings_pass_through_verbatim() {
        env::set_var("READDUO_ENVTEST_PATH", " target/out.json ");
        assert_eq!(
            string("READDUO_ENVTEST_PATH").as_deref(),
            Some(" target/out.json ")
        );
        env::remove_var("READDUO_ENVTEST_PATH");
        assert_eq!(string("READDUO_ENVTEST_PATH"), None);
    }

    #[test]
    fn registry_is_well_formed_and_help_renders_every_var() {
        let vars = recognized();
        assert_eq!(vars.len(), 7);
        let help = help_table();
        let mut seen = std::collections::HashSet::new();
        for v in vars {
            assert!(v.name.starts_with("READDUO_"), "{}", v.name);
            assert!(!v.doc.is_empty() && !v.default.is_empty(), "{}", v.name);
            assert!(seen.insert(v.name), "duplicate registration: {}", v.name);
            assert!(help.contains(v.name), "help table misses {}", v.name);
            assert!(help.contains(v.doc), "help table misses doc of {}", v.name);
        }
    }

    #[test]
    fn invalid_message_includes_registered_doc() {
        // READDUO_TELEMETRY is registered (Flag), so its rejection message
        // must carry the registry's doc line — one source of truth for
        // help text and diagnostics. No other env test touches this key.
        env::set_var("READDUO_TELEMETRY", "banana");
        let err = std::panic::catch_unwind(|| flag("READDUO_TELEMETRY")).expect_err("must reject");
        env::remove_var("READDUO_TELEMETRY");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("READDUO_TELEMETRY"), "{msg}");
        assert!(
            msg.contains("Enable the telemetry subsystem"),
            "panic must carry the registry doc line: {msg}"
        );
    }

    /// The registry and the workspace agree in both directions: every
    /// `READDUO_*` variable read anywhere outside this crate is registered
    /// in [`recognized`], and every registered variable is read somewhere
    /// outside this crate. Scans the sibling crates' sources plus the
    /// workspace-level tests/examples, so adding a variable without
    /// documenting it — or leaving a dead knob registered — fails this
    /// test with the offending name. `ci.sh` is checked in one direction
    /// only: every variable it sets must be registered, so a gate cannot
    /// set a retired knob and quietly test the default. A mention there
    /// does not count as a read.
    #[test]
    fn every_workspace_variable_is_registered() {
        let root = workspace_root();
        let mut found: std::collections::BTreeMap<&str, String> = Default::default();
        let sources = workspace_sources(&root);
        for (path, text) in &sources {
            if path.starts_with("crates/env") {
                continue;
            }
            for (name, _) in variable_mentions(text) {
                found.entry(name).or_insert_with(|| path.display().to_string());
            }
        }
        assert!(
            found.contains_key("READDUO_THREADS") && found.contains_key("READDUO_INSTR"),
            "scanner is broken: known variables not found ({found:?})"
        );
        let registered: std::collections::HashSet<&str> =
            recognized().iter().map(|v| v.name).collect();
        for (name, file) in &found {
            assert!(
                registered.contains(name),
                "{name} is read in {file} but not registered in readduo_env::recognized()"
            );
        }
        for name in &registered {
            assert!(
                found.contains_key(name),
                "{name} is registered in readduo_env::recognized() but read nowhere: \
                 retire the dead knob"
            );
        }
        let ci = std::fs::read_to_string(root.join("ci.sh")).expect("read ci.sh");
        let set_in_ci: std::collections::BTreeSet<&str> = variable_mentions(&ci)
            .into_iter()
            .filter_map(|(name, assigned)| assigned.then_some(name))
            .collect();
        assert!(
            set_in_ci.contains("READDUO_INSTR"),
            "ci.sh scanner is broken: READDUO_INSTR=… not found"
        );
        for name in &set_in_ci {
            assert!(
                registered.contains(name),
                "ci.sh sets {name}, which readduo_env::recognized() does not register: \
                 the gate would run the default"
            );
        }
    }

    /// Libraries take values; only the binaries' crate resolves knobs.
    /// `readduo_env` is named only in this crate and in `readduo-bench`,
    /// and only this crate's unit tests change the process environment:
    /// `set_var`/`remove_var` race every other thread of a test binary.
    #[test]
    fn only_the_bench_crate_reads_the_environment() {
        let sources = workspace_sources(&workspace_root());
        let in_crate =
            |path: &std::path::Path, name: &str| path.starts_with(format!("crates/{name}"));
        assert!(
            sources
                .iter()
                .any(|(path, text)| in_crate(path, "bench") && text.contains("readduo_env")),
            "scanner is broken: readduo-bench's calls into readduo_env not found"
        );
        for (path, text) in &sources {
            assert!(
                in_crate(path, "env") || in_crate(path, "bench") || !text.contains("readduo_env"),
                "{} names readduo_env: resolve the knob in readduo-bench and pass its value",
                path.display()
            );
            assert!(
                in_crate(path, "env") || !(text.contains("set_var") || text.contains("remove_var")),
                "{} changes the process environment: pass the value instead",
                path.display()
            );
        }
    }

    fn workspace_root() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root")
    }

    /// Every `.rs` file under the workspace's crates, facade, tests and
    /// examples, as (path relative to `root`, text).
    fn workspace_sources(root: &std::path::Path) -> Vec<(std::path::PathBuf, String)> {
        fn walk(
            dir: &std::path::Path,
            root: &std::path::Path,
            out: &mut Vec<(std::path::PathBuf, String)>,
        ) {
            let Ok(entries) = std::fs::read_dir(dir) else { return };
            for entry in entries.flatten() {
                let path = entry.path();
                if path.is_dir() {
                    // `target/` never appears under the scanned roots.
                    walk(&path, root, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    if let Ok(text) = std::fs::read_to_string(&path) {
                        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                        out.push((rel, text));
                    }
                }
            }
        }
        let mut out = Vec::new();
        for dir in ["crates", "src", "tests", "examples"] {
            walk(&root.join(dir), root, &mut out);
        }
        out
    }

    /// Every `READDUO_*` name in `text`, with whether it is written as an
    /// assignment (`NAME=value`, bare or after `export`). Bare "READDUO"
    /// prefixes (e.g. in crate names) have no variable suffix and are
    /// skipped.
    fn variable_mentions(text: &str) -> Vec<(&str, bool)> {
        let mut out = Vec::new();
        let mut rest = text;
        while let Some(i) = rest.find("READDUO_") {
            let tail = &rest[i..];
            let len = tail
                .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
                .unwrap_or(tail.len());
            let name = tail[..len].trim_end_matches('_');
            if name.len() > "READDUO_".len() {
                out.push((name, tail[len..].starts_with('=')));
            }
            rest = &rest[i + len.max(1)..];
        }
        out
    }

    #[test]
    fn diagnostic_names_the_variable_and_value() {
        env::set_var("READDUO_ENVTEST_MSG", "-3");
        let err = std::panic::catch_unwind(|| usize_at_least("READDUO_ENVTEST_MSG", 1))
            .expect_err("must reject");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("READDUO_ENVTEST_MSG"), "missing name: {msg}");
        assert!(msg.contains("-3"), "missing value: {msg}");
        env::remove_var("READDUO_ENVTEST_MSG");
    }
}
