//! Summary statistics, the JSON record of a run, and `--compare`.

use crate::api::{self, Json};
use std::path::Path;

/// Extremes, median and quartiles of a sample, the quartiles as Python's
/// `statistics.quantiles(samples, n=4)` computes them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(samples: &[f64]) -> Self {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        // The "exclusive" method: the i-th quartile sits at i(n+1)/4,
        // interpolated between neighbours (extrapolated at the ends).
        let q = |i: i64| {
            if n < 2 {
                return s[0];
            }
            let (len, m) = (n as i64, n as i64 + 1);
            let j = (i * m / 4).clamp(1, len - 1);
            let delta = i * m - j * 4;
            (s[j as usize - 1] * (4 - delta) as f64 + s[j as usize] * delta as f64) / 4.0
        };
        Self {
            n,
            min: s[0],
            q1: q(1),
            median: q(2),
            q3: q(3),
            max: s[n - 1],
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One metric of a run with the samples behind its value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric whose value is the median of `samples`.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Self {
        Self {
            name,
            unit,
            value: Summary::of(&samples).median,
            samples,
        }
    }

    /// A single measured value.
    pub fn single(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self {
            name,
            unit,
            value,
            samples: vec![value],
        }
    }
}

/// A JSON number with all its digits (`null` if not finite).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The final stdout line: the outcome and `metrics` by name.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                api::json_string(m.name),
                num(m.value),
                api::json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// The header of a record: which run it describes and how it went.
pub struct RunInfo {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    pub passes: usize,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// One run as a single-line JSON record, with every sample and summary.
pub fn record_line(info: &RunInfo, metrics: &[Metric]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let s = Summary::of(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
            format!(
                "{}: {{\"value\": {}, \"unit\": {}, \"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}, \"samples\": [{}]}}",
                api::json_string(m.name),
                num(m.value),
                api::json_string(m.unit),
                s.n,
                num(s.min),
                num(s.q1),
                num(s.median),
                num(s.q3),
                num(s.max),
                samples.join(", ")
            )
        })
        .collect();
    format!(
        "{{\"schema\": \"readduo-benchmark-v1\", \"workload\": {}, \"seed\": {}, \"traced\": {}, \"nproc\": {nproc}, \"passes\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        api::json_string(info.workload),
        info.seed,
        info.traced,
        info.passes,
        info.correct,
        info.attempted,
        info.failed,
        fields.join(", ")
    )
}

/// `(workload, traced)` of a record line.
fn key(record: &Json) -> Option<(String, bool)> {
    let workload = record.get("workload")?.as_str()?.to_string();
    Some((workload, record.get("traced") == Some(&Json::Bool(true))))
}

/// Parses record lines: one JSON record per line.
fn parse_records(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(api::parse_json)
        .collect()
}

/// Record lines `existing` with `line` added, replacing the record of the
/// same workload and tracing mode.
fn merged(existing: &str, line: &str) -> String {
    let line_key = |l: &str| api::parse_json(l).ok().and_then(|j| key(&j));
    let new_key = line_key(line);
    let mut lines: Vec<&str> = existing
        .lines()
        .filter(|l| line_key(l) != new_key)
        .collect();
    lines.push(line);
    lines.join("\n") + "\n"
}

/// Writes `line` into the record file at `path` (see [`merged`]).
pub fn save(path: &Path, line: &str) -> std::io::Result<()> {
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, merged(&existing, line))
}

/// How run B compares with run A on one metric.
pub fn verdict(
    a: &[f64],
    b: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (&'static str, f64, f64) {
    let (sa, sb) = (Summary::of(a), Summary::of(b));
    let change = (sb.median - sa.median) / sa.median.abs();
    let worse = if lower_is_better { change } else { -change };
    let spread = sa.spread().max(sb.spread());
    let all_better = if lower_is_better {
        sb.max < sa.min
    } else {
        sb.min > sa.max
    };
    let verdict = if spread > bound {
        if all_better {
            "improved"
        } else {
            "unresolved"
        }
    } else if worse > bound {
        "regressed"
    } else if worse < -bound {
        "improved"
    } else {
        "unchanged"
    };
    (verdict, change, spread)
}

/// Compares the untraced records of two record files under the bounds of
/// `BENCHMARK.json`, one row per workload and end-to-end metric. Returns
/// whether nothing regressed.
pub fn compare(a: &Path, b: &Path, bounds: &Path) -> Result<bool, String> {
    let text = std::fs::read_to_string(bounds).map_err(|e| format!("{}: {e}", bounds.display()))?;
    let spec = api::parse_json(&text)?;
    let metrics: Vec<(String, bool, f64)> = spec
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?.to_string();
            Some((
                name,
                m.get("better")?.as_str()? == "lower",
                m.get("bound")?.as_num()?,
            ))
        })
        .collect();
    let untraced = |path: &Path| -> Result<Vec<Json>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let records = parse_records(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(records
            .into_iter()
            .filter(|r| key(r).is_some_and(|k| !k.1))
            .collect())
    };
    let (ra, rb) = (untraced(a)?, untraced(b)?);
    let samples = |record: &Json, name: &str| -> Option<Vec<f64>> {
        let m = record.get("metrics")?.get(name)?;
        m.get("samples")?
            .as_arr()?
            .iter()
            .map(Json::as_num)
            .collect()
    };
    println!(
        "{:<14} {:<14} {:>16} {:>16} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut regressions = 0;
    for rec_a in &ra {
        let workload = key(rec_a).expect("filtered on key").0;
        let Some(rec_b) = rb.iter().find(|r| key(r).is_some_and(|k| k.0 == workload)) else {
            println!("{workload:<14} missing from {}", b.display());
            continue;
        };
        for (name, lower, bound) in &metrics {
            let (Some(sa), Some(sb)) = (samples(rec_a, name), samples(rec_b, name)) else {
                println!("{workload:<14} {name:<14} missing");
                continue;
            };
            let (v, change, spread) = verdict(&sa, &sb, *lower, *bound);
            regressions += usize::from(v == "regressed");
            println!(
                "{workload:<14} {name:<14} {:>16.6} {:>16.6} {:>+7.2}% {:>7.2}% {:>5.1}%  {v}",
                Summary::of(&sa).median,
                Summary::of(&sb).median,
                change * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (1.0, 2.0, 3.0, 1.0, 3.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn verdicts_respect_bound_and_spread() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(verdict(&a, &[1.02, 1.03, 1.01], true, 0.10).0, "unchanged");
        assert_eq!(verdict(&a, &[1.20, 1.21, 1.19], true, 0.10).0, "regressed");
        assert_eq!(verdict(&a, &[1.20, 1.21, 1.19], false, 0.10).0, "improved");
        assert_eq!(verdict(&a, &[0.5, 1.5, 1.0], true, 0.10).0, "unresolved");
        assert_eq!(
            verdict(&[1.0, 2.0, 3.0], &[0.1, 0.2, 0.3], true, 0.10).0,
            "improved"
        );
    }

    #[test]
    fn records_are_json_and_replace_their_own_key() {
        let info = RunInfo {
            workload: "worn_mcf",
            seed: 1,
            traced: false,
            passes: 2,
            correct: true,
            attempted: 2,
            failed: 0,
        };
        let line = record_line(&info, &[Metric::median_of("wall_s", "s", vec![2.0, 1.0])]);
        let parsed = api::parse_json(&line).expect("record is JSON");
        assert_eq!(
            parsed
                .get("metrics")
                .unwrap()
                .get("wall_s")
                .unwrap()
                .get("value"),
            Some(&Json::Num(1.5))
        );
        let twice = merged(&merged("", &line), &line);
        let both = merged(
            &twice,
            &record_line(
                &RunInfo {
                    traced: true,
                    ..info
                },
                &[],
            ),
        );
        assert_eq!(parse_records(&twice).unwrap().len(), 1);
        assert_eq!(parse_records(&both).unwrap().len(), 2);
    }
}
