//! The repository benchmark: end-to-end timings of four workloads, a
//! per-layer cost ledger, and a correctness gate over every simulation.
//!
//! ```text
//! readduo-benchmark --workload NAME [--seed S] [--reps N | --seconds S] [--trace 0|1] [--record PATH]
//! readduo-benchmark --setup-only --workload NAME [--seed S]
//! readduo-benchmark --bless [--workload NAME]
//! readduo-benchmark --compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
//! ```
//!
//! A run prints every metric as `name value unit`, then one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer ledger with
//! `--trace 1` (which also writes a Chrome trace of the ledger's spans).
//! See README.md for the workloads, the metrics and the seed policy.

mod api;
mod gate;
mod ledger;
mod record;
mod spans;
mod workload;

use gate::Gate;
use record::{Metric, RunInfo};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Kind, Plan, Run, CROSS_CHECK_WIDTH};

/// Every end-to-end metric: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("sim_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Fresh processes whose device set-up `setup_s` takes the median of.
const SETUP_CHILDREN: usize = 15;

/// Passes a `--seconds` budget runs at least.
const MIN_PASSES: usize = 3;

/// Passes without `--reps` or `--seconds`.
const DEFAULT_REPS: usize = 5;

/// The paper's Figure 9 geomean execution-time overheads over Ideal, %.
const PAPER_OVERHEAD_PCT: [(&str, f64); 5] = [
    ("Scrubbing", 21.0),
    ("M-metric", 25.0),
    ("Hybrid", 5.8),
    ("LWT-4", 2.9),
    ("Select-4:2", 3.4),
];

/// How many timed passes to run.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    /// Exactly this many.
    Reps(usize),
    /// At least [`MIN_PASSES`], then until the next pass would end further
    /// past this many seconds than stopping now falls short of it.
    Seconds(f64),
}

#[derive(Debug, PartialEq)]
enum Mode {
    Run {
        kind: Kind,
        seed: u64,
        budget: Budget,
        traced: bool,
        record: Option<PathBuf>,
    },
    SetupOnly {
        kind: Kind,
        seed: u64,
    },
    Bless {
        kind: Option<Kind>,
    },
    Compare {
        a: PathBuf,
        b: PathBuf,
        bounds: PathBuf,
    },
}

const USAGE: &str = "usage: readduo-benchmark --workload NAME [--seed S] [--reps N | --seconds S] [--trace 0|1] [--record PATH]
       readduo-benchmark --setup-only --workload NAME [--seed S]
       readduo-benchmark --bless [--workload NAME]
       readduo-benchmark --compare A.jsonl B.jsonl [--bounds BENCHMARK.json]
workloads: fig9_10m shard8_stream worn_mcf tiered_mixed";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let (mut kind, mut seed, mut reps, mut seconds) = (None, None, None, None);
    let (mut traced, mut record, mut setup_only, mut bless) = (false, None, false, false);
    let (mut compare, mut bounds) = (None, PathBuf::from("BENCHMARK.json"));
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut next = || {
            i += 1;
            args.get(i).cloned().ok_or(format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => {
                let name = next()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let s = next()?;
                seed = Some(parse_seed(&s).ok_or(format!("--seed {s:?} is not an integer"))?);
            }
            "--reps" => {
                let n = next()?;
                reps = Some(
                    n.parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or(format!("--reps {n:?}"))?,
                );
            }
            "--seconds" => {
                let s = next()?;
                seconds = Some(
                    s.parse()
                        .ok()
                        .filter(|&s: &f64| s > 0.0)
                        .ok_or(format!("--seconds {s:?}"))?,
                );
            }
            "--trace" => {
                traced = match next()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?} (0 or 1)")),
                }
            }
            "--traced" => traced = true,
            "--record" => record = Some(PathBuf::from(next()?)),
            "--setup-only" => setup_only = true,
            "--bless" => bless = true,
            "--compare" => compare = Some((PathBuf::from(next()?), PathBuf::from(next()?))),
            "--bounds" => bounds = PathBuf::from(next()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if let Some((a, b)) = compare {
        return Ok(Mode::Compare { a, b, bounds });
    }
    if bless {
        return Ok(Mode::Bless { kind });
    }
    let kind = kind.ok_or("--workload is required")?;
    let seed = seed.unwrap_or(api::HARNESS_SEED);
    if setup_only {
        return Ok(Mode::SetupOnly { kind, seed });
    }
    let budget = match (reps, seconds) {
        (Some(n), _) => Budget::Reps(n),
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => Budget::Reps(DEFAULT_REPS),
    };
    Ok(Mode::Run {
        kind,
        seed,
        budget,
        traced,
        record,
    })
}

/// Where records and Chrome traces go: `<cargo target dir>/benchmark`.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("benchmark")
}

/// Runs `f`, counting a panic as `sims` failed simulations.
fn guarded<T>(gate: &mut Gate, sims: usize, what: &str, f: impl FnOnce() -> T) -> Option<T> {
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    if out.is_none() {
        gate.panicked(sims, what);
    }
    out
}

/// The timed passes: seconds and simulated ops per second of each, and
/// the first pass's reports.
struct Timed {
    walls: Vec<f64>,
    rates: Vec<f64>,
    first: Vec<Run>,
}

/// Runs timed one-thread passes until `budget` is spent or a pass
/// panics; `None` when not one pass completed. Between passes, and once
/// after the last, `between` gets the share of the budget spent so far.
fn measure(
    plan: &Plan,
    budget: Budget,
    gate: &mut Gate,
    mut between: impl FnMut(f64),
) -> Option<Timed> {
    let sims = plan.sims().len();
    let (mut walls, mut rates, mut first) = (Vec::new(), Vec::new(), None);
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let Some(runs) = guarded(gate, sims, "timed pass", || plan.pass(1)) else {
            break;
        };
        let secs = t.elapsed().as_secs_f64();
        gate.pass(&runs);
        let ops: u64 = runs
            .iter()
            .map(|r| api::counts(&r.report))
            .map(|c| c.reads + c.writes)
            .sum();
        walls.push(secs);
        rates.push(ops as f64 / secs);
        first.get_or_insert(runs);
        let (done, spent) = match budget {
            Budget::Reps(n) => (walls.len() >= n, walls.len() as f64 / n as f64),
            Budget::Seconds(s) => {
                let elapsed = start.elapsed().as_secs_f64();
                (
                    walls.len() >= MIN_PASSES && elapsed + secs / 2.0 >= s,
                    elapsed / s,
                )
            }
        };
        if done {
            break;
        }
        between(spent);
    }
    between(1.0);
    first.map(|first| Timed {
        walls,
        rates,
        first,
    })
}

/// Cross-path identity at any seed; returns the seconds of the sharded
/// workload's pass on a pool of [`CROSS_CHECK_WIDTH`] threads.
fn cross_checks(plan: &Plan, first: &[Run], gate: &mut Gate) -> Option<f64> {
    match plan.kind {
        Kind::Fig9 => {
            // One scheme per seed over every workload: the materialised
            // trace the timed passes share must equal a true stream.
            let schemes = api::headline();
            let scheme = schemes[(plan.seed % schemes.len() as u64) as usize];
            for (sim, run) in plan
                .sims()
                .iter()
                .zip(first)
                .filter(|(s, _)| s.scheme == scheme)
            {
                if let Some(r) = guarded(gate, 1, "streamed run", || plan.streamed(sim)) {
                    gate.same("streamed run", &run.label, &run.report, &r);
                }
            }
            None
        }
        Kind::Shard8 => {
            let t = Instant::now();
            let runs = guarded(gate, first.len(), "pooled pass", || {
                plan.pass(CROSS_CHECK_WIDTH)
            })?;
            let secs = t.elapsed().as_secs_f64();
            for (a, b) in first.iter().zip(&runs) {
                gate.same("pooled run", &a.label, &a.report, &b.report);
            }
            Some(secs)
        }
        Kind::Worn | Kind::Tiered => None,
    }
}

/// Mean absolute gap, in percentage points, between the simulated
/// Figure 9 geomean overheads over Ideal and the paper's.
fn paper_err_pp(plan: &Plan, first: &[Run]) -> Option<f64> {
    if plan.kind != Kind::Fig9 {
        return None;
    }
    let sims = plan.sims();
    let exec = |w: &str, scheme: &str| {
        sims.iter()
            .zip(first)
            .find(|(s, _)| s.w.name == w && s.scheme.label() == scheme)
            .map(|(_, r)| api::counts(&r.report).exec_ns as f64)
            .expect("every fig9 workload runs every headline scheme")
    };
    let gaps: Vec<f64> = PAPER_OVERHEAD_PCT
        .iter()
        .map(|&(scheme, paper)| {
            let logs: Vec<f64> = plan
                .workloads()
                .map(|w| (exec(w.name, scheme) / exec(w.name, "Ideal")).ln())
                .collect();
            let geomean = (logs.iter().sum::<f64>() / logs.len() as f64).exp();
            ((geomean - 1.0) * 100.0 - paper).abs()
        })
        .collect();
    Some(gaps.iter().sum::<f64>() / gaps.len() as f64)
}

/// Device set-up of one fresh `--setup-only` process, in seconds.
fn setup_sample(plan: &Plan) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            plan.kind.name(),
            "--seed",
            &plan.seed.to_string(),
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the set-up process: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let parsed = stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse().ok());
    match parsed {
        Some(secs) if out.status.success() => Ok(secs),
        _ => Err(format!("set-up process failed ({}): {stdout}", out.status)),
    }
}

/// The `setup_s` samples of a run, taken between its timed passes: a
/// small shared host changes speed every few seconds, so samples spread
/// over the run give a steadier median than a burst at its start.
struct Setup<'a> {
    plan: &'a Plan,
    samples: Vec<f64>,
    error: Option<String>,
}

impl<'a> Setup<'a> {
    fn new(plan: &'a Plan) -> Self {
        Self {
            plan,
            samples: Vec::new(),
            error: None,
        }
    }

    /// Runs set-up processes until `share` of [`SETUP_CHILDREN`] have run.
    fn catch_up(&mut self, share: f64) {
        let due = ((SETUP_CHILDREN as f64 * share).ceil() as usize).min(SETUP_CHILDREN);
        while self.error.is_none() && self.samples.len() < due {
            match setup_sample(self.plan) {
                Ok(secs) => self.samples.push(secs),
                Err(e) => self.error = Some(e),
            }
        }
    }

    /// Every sample, after the last [`catch_up`](Self::catch_up).
    fn finish(self) -> Result<Vec<f64>, String> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.samples),
        }
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, record::num(m.value), m.unit);
    }
}

/// The end-to-end metrics of a run, `setup_s` only when it was measured.
fn end_to_end(plan: &Plan, timed: &Timed, setup: Option<Vec<f64>>, rss_mb: f64) -> Vec<Metric> {
    let mut metrics = vec![
        Metric::median_of("wall_s", "s", timed.walls.clone()),
        Metric::median_of("sim_ops_per_s", "1/s", timed.rates.clone()),
        Metric::single("peak_rss_mb", "MB", rss_mb),
    ];
    metrics.extend(setup.map(|s| Metric::median_of("setup_s", "s", s)));
    metrics
        .extend(paper_err_pp(plan, &timed.first).map(|e| Metric::single("paper_err_pp", "pp", e)));
    metrics
}

fn run(
    kind: Kind,
    seed: u64,
    budget: Budget,
    traced: bool,
    record_path: Option<PathBuf>,
) -> Result<(), String> {
    let plan = Plan::new(kind, seed);
    let mut gate = Gate::new(&plan);
    let mut setup = Setup::new(&plan);
    plan.warm();
    let timed = measure(&plan, budget, &mut gate, |share| {
        if !traced {
            setup.catch_up(share)
        }
    })
    .ok_or("the first timed pass panicked")?;
    let setup = if traced { None } else { Some(setup.finish()?) };
    let pooled_s = cross_checks(&plan, &timed.first, &mut gate);
    let rss_mb = api::peak_rss_bytes().ok_or("VmHWM unreadable")? as f64 / (1 << 20) as f64;

    let mut metrics = end_to_end(&plan, &timed, setup, rss_mb);
    let e2e_count = metrics.len();

    if traced {
        let mut spans = spans::Spans::new();
        let inputs = ledger::Timed {
            median_s: metrics[0].value,
            first: &timed.first,
            pooled_s,
        };
        let values = catch_unwind(AssertUnwindSafe(|| {
            ledger::ledger(&plan, &inputs, &mut gate, &mut spans)
        }))
        .map_err(|_| "the traced pass panicked")?;
        metrics.extend(
            ledger::PER_LAYER
                .iter()
                .zip(values)
                .map(|(&(name, unit, _), v)| Metric::single(name, unit, v)),
        );
        let json = spans.to_chrome_json(&format!("benchmark {}", kind.name()));
        gate.check("chrome trace", api::validate_chrome_trace(&json));
        let path = out_dir().join(format!("{}.trace.json", kind.name()));
        std::fs::create_dir_all(out_dir())
            .and_then(|()| std::fs::write(&path, json))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("[trace] {}", path.display());
    }

    for note in gate.notes.iter().take(20) {
        eprintln!("FAILED {note}");
    }
    let failed_frac = Metric::single(
        "failed_frac",
        "ratio",
        gate.failed as f64 / gate.attempted.max(1) as f64,
    );
    let shown = if traced {
        &metrics[e2e_count..]
    } else {
        &metrics[..e2e_count]
    };
    print_metrics(shown);
    print_metrics(std::slice::from_ref(&failed_frac));

    let info = RunInfo {
        workload: kind.name(),
        seed,
        traced,
        passes: timed.walls.len(),
        correct: gate.correct(),
        attempted: gate.attempted,
        failed: gate.failed,
    };
    metrics.push(failed_frac);
    let path = record_path.unwrap_or_else(|| out_dir().join("records.jsonl"));
    record::save(&path, &record::record_line(&info, &metrics))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[record] {}", path.display());

    let reported: Vec<&Metric> = if traced {
        metrics[e2e_count..metrics.len() - 1].iter().collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, _)| metrics.iter().find(|m| m.name == name).expect("measured"))
            .collect()
    };
    println!(
        "{}",
        record::result_line(info.correct, info.attempted, info.failed, &reported)
    );
    Ok(())
}

fn bless(kinds: &[Kind]) -> Result<(), String> {
    for &kind in kinds {
        let plan = Plan::new(kind, api::HARNESS_SEED);
        let runs = plan.pass(1);
        for run in &runs {
            gate::laws(&run.report, run.ops)
                .map_err(|e| format!("{}: {}: {e}", kind.name(), run.label))?;
        }
        gate::bless(kind, &runs)
            .map_err(|e| format!("{}: {e}", gate::reference_path().display()))?;
        eprintln!("blessed {} ({} simulations)", kind.name(), runs.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("readduo-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match mode {
        Mode::Run {
            kind,
            seed,
            budget,
            traced,
            record,
        } => run(kind, seed, budget, traced, record),
        Mode::SetupOnly { kind, seed } => {
            let plan = Plan::new(kind, seed);
            let t = Instant::now();
            plan.build_devices();
            println!("setup_s {}", record::num(t.elapsed().as_secs_f64()));
            Ok(())
        }
        Mode::Bless { kind } => bless(&kind.map_or(Kind::ALL.to_vec(), |k| vec![k])),
        Mode::Compare { a, b, bounds } => match record::compare(&a, &b, &bounds) {
            Ok(true) => Ok(()),
            Ok(false) => return ExitCode::from(1),
            Err(e) => Err(e),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("readduo-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::tests::TINY;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let mode =
            parse_args(&args("--workload worn_mcf --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            mode,
            Mode::Run {
                kind: Kind::Worn,
                seed: 7,
                budget: Budget::Seconds(10.0),
                traced: true,
                record: None
            }
        );
        let Mode::Run { seed, budget, .. } = parse_args(&args("--workload fig9_10m")).unwrap()
        else {
            panic!("a run")
        };
        assert_eq!(
            (seed, budget),
            (api::HARNESS_SEED, Budget::Reps(DEFAULT_REPS))
        );
        assert_eq!(parse_seed("0x00D5_EAD0_2016"), Some(api::HARNESS_SEED));
        for bad in [
            "",
            "--workload nope",
            "--workload fig9_10m --trace 2",
            "--seed",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    /// Every workload at a tiny volume passes the correctness gate,
    /// including its cross-path checks.
    #[test]
    fn tiny_workloads_pass_the_gate() {
        for kind in Kind::ALL {
            let plan = Plan::with_volume(kind, 11, TINY);
            let mut gate = Gate::new(&plan);
            let mut shares = Vec::new();
            let timed =
                measure(&plan, Budget::Reps(2), &mut gate, |s| shares.push(s)).expect("no panic");
            assert_eq!(shares, [0.5, 1.0]);
            cross_checks(&plan, &timed.first, &mut gate);
            assert!(gate.correct(), "{kind:?}: {:?}", gate.notes);
            assert!(gate.attempted as usize >= 2 * plan.sims().len());
        }
    }

    /// A run's record lists every end-to-end metric, `paper_err_pp` and
    /// `failed_frac` included, with the summary of its samples.
    #[test]
    fn records_list_every_end_to_end_metric() {
        let plan = Plan::with_volume(Kind::Fig9, 11, TINY);
        let mut gate = Gate::new(&plan);
        let timed = measure(&plan, Budget::Reps(2), &mut gate, |_| {}).expect("no panic");
        let mut metrics = end_to_end(&plan, &timed, Some(vec![0.03, 0.01, 0.02]), 40.0);
        metrics.push(Metric::single("failed_frac", "ratio", 0.0));
        let info = RunInfo {
            workload: plan.kind.name(),
            seed: plan.seed,
            traced: false,
            passes: timed.walls.len(),
            correct: gate.correct(),
            attempted: gate.attempted,
            failed: gate.failed,
        };
        let record =
            api::parse_json(&record::record_line(&info, &metrics)).expect("a record is JSON");
        let api::Json::Obj(fields) = record.get("metrics").expect("metrics") else {
            panic!("an object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let expected: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.0)
            .chain(["paper_err_pp", "failed_frac"])
            .collect();
        assert_eq!(names, expected);
        let setup = record
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        for (stat, v) in [("n", 3.0), ("min", 0.01), ("median", 0.02), ("max", 0.03)] {
            assert_eq!(
                setup.get(stat).and_then(api::Json::as_num),
                Some(v),
                "{stat}"
            );
        }
        let err = metrics
            .iter()
            .find(|m| m.name == "paper_err_pp")
            .expect("fig9 reports its paper error");
        assert!(err.value.is_finite() && err.value > 0.0);
    }

    /// The benchmark's own device construction reproduces the figure
    /// harness exactly, for a plain and a tiered device.
    #[test]
    fn benchmark_runs_equal_the_harness() {
        let harness = readduo_bench::Harness {
            instructions_per_core: TINY,
            cores: api::CORES,
            seed: 9,
            memory: readduo_memsim::MemoryConfig::paper(),
        };
        for kind in [Kind::Fig9, Kind::Tiered] {
            let plan = Plan::with_volume(kind, 9, TINY);
            let runs = plan.pass(1);
            for (sim, run) in plan.sims().iter().zip(&runs).step_by(5) {
                let trace = harness.trace_for(&sim.w);
                let expected = if plan.tiered() {
                    let dram = readduo_dram::DramConfig::new(9, api::DRAM_LINES).with_threshold(1);
                    harness
                        .run_tiered_on_trace(&sim.w, &trace, sim.scheme, dram)
                        .report
                } else {
                    harness.run_on_trace(&sim.w, &trace, sim.scheme).report
                };
                assert_eq!(run.report, expected, "{}", run.label);
            }
        }
    }

    /// `BENCHMARK.json` lists exactly the metrics a run reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = api::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(api::Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(api::Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        let layers: Vec<(String, String)> = ledger::PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.into(), u.into()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(api::Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(api::Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(workloads, Kind::ALL.map(|k| k.name().to_string()));
    }

    /// The result line is JSON with exactly the contract's keys.
    #[test]
    fn result_line_is_well_formed() {
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .map(|&(n, u)| Metric::single(n, u, 1.25))
            .collect();
        let line = record::result_line(true, 3, 0, &metrics.iter().collect::<Vec<_>>());
        let parsed = api::parse_json(&line).unwrap();
        let api::Json::Obj(fields) = &parsed else {
            panic!("an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        for (name, unit) in END_TO_END {
            let m = parsed.get("metrics").unwrap().get(name).unwrap();
            assert_eq!(m.get("unit").and_then(api::Json::as_str), Some(unit));
            assert_eq!(m.get("value").and_then(api::Json::as_num), Some(1.25));
        }
    }
}
