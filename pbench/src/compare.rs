//! `pbench compare DIR_A DIR_B`: set the untraced results of two commits
//! side by side, per workload and end-to-end metric, and judge each pair
//! against the bound `BENCHMARK.json` fixes for the metric.

use std::collections::BTreeMap;
use std::path::Path;

use patternlets_serve::json::Json;

use crate::report::digits4;
use crate::stats;

/// One end-to-end metric as declared in `BENCHMARK.json`.
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// Share of the baseline median the metric may worsen by.
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json` document.
pub fn declared(doc: &Json) -> Result<Vec<Declared>, String> {
    let Some(Json::Arr(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = match m.get("bound") {
                Some(Json::Num(b)) => Some(*b),
                _ => None,
            };
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Declared {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// One saved run.
pub struct Run {
    /// Input seed.
    pub seed: u64,
    /// When its result was saved, in ms since the Unix epoch.
    pub unix_ms: u64,
    /// Metric name → value.
    pub values: BTreeMap<String, f64>,
}

/// Untraced, correct runs under `dir`: workload → runs ordered by seed,
/// then by when they were saved.
type Runs = BTreeMap<String, Vec<Run>>;

/// Name → value of a result's `"metrics"` object.
pub fn metric_values(metrics: &Json) -> BTreeMap<String, f64> {
    let Json::Obj(metrics) = metrics else {
        return BTreeMap::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Json::Num(v)) => Some((name.clone(), *v)),
            _ => None,
        })
        .collect()
}

/// The runs under `dir`, plus the distinct host stamps they carry.
fn load(dir: &Path) -> Result<(Runs, Vec<String>), String> {
    let names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    let mut runs = Runs::new();
    let mut stamps = Vec::new();
    for path in names {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(doc) = Json::parse(text.trim()) else {
            return Err(format!("{}: not a result file", path.display()));
        };
        let untraced = doc.get("trace").and_then(Json::as_u64) == Some(0);
        let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
        let (Some(workload), Some(seed), Some(unix_ms), Some(metrics)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("seed").and_then(Json::as_u64),
            doc.get("unix_ms").and_then(Json::as_u64),
            doc.get("metrics"),
        ) else {
            return Err(format!("{}: not a result file", path.display()));
        };
        if !untraced || !correct {
            continue;
        }
        if let Some(stamp) = doc.get("stamp") {
            let host: Vec<String> = ["nproc", "kernel", "profile"]
                .iter()
                .map(|k| match stamp.get(k) {
                    Some(Json::Num(n)) => format!("{k}={n}"),
                    Some(Json::Str(s)) => format!("{k}={s}"),
                    _ => format!("{k}=?"),
                })
                .collect();
            let host = host.join(" ");
            if !stamps.contains(&host) {
                stamps.push(host);
            }
        }
        runs.entry(workload.to_string()).or_default().push(Run {
            seed,
            unix_ms,
            values: metric_values(metrics),
        });
    }
    for list in runs.values_mut() {
        list.sort_by_key(|r| (r.seed, r.unix_ms));
    }
    Ok((runs, stamps))
}

/// Pairs of `metric` values run on the same seed: the k-th A run of a
/// seed with the k-th B run of that seed.
fn pairs(a: &[Run], b: &[Run], metric: &str) -> Vec<(f64, f64)> {
    let by_seed = |runs: &[Run]| {
        let mut seeds: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for r in runs {
            if let Some(&v) = r.values.get(metric) {
                seeds.entry(r.seed).or_default().push(v);
            }
        }
        seeds
    };
    let (a, b) = (by_seed(a), by_seed(b));
    a.iter()
        .filter_map(|(seed, va)| Some(va.iter().copied().zip(b.get(seed)?.iter().copied())))
        .flatten()
        .collect()
}

/// How a metric moved from side A to side B.
#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is better: it wins nine pairs in ten and the medians differ by
    /// more than A's own spread — or, with a spread wider than the bound,
    /// every B run beats every A run.
    Improved,
    /// B's median is within the bound of A's.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so no claim either way.
    Unresolved,
}

/// How many of `pairs` B wins.
fn wins(pairs: &[(f64, f64)], lower_is_better: bool) -> usize {
    pairs
        .iter()
        .filter(|&&(a, b)| if lower_is_better { b < a } else { b > a })
        .count()
}

/// Judge B's runs against A's; `pairs` are the same-seed pairs (A, B).
pub fn verdict(
    a: &[f64],
    b: &[f64],
    pairs: &[(f64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (ma, mb) = (stats::median(a), stats::median(b));
    let spread = stats::relative_iqr(a).max(stats::relative_iqr(b));
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let won = wins(pairs, lower_is_better);
    let (q1, q3) = stats::quartiles(a);
    if better(mb, ma)
        && !pairs.is_empty()
        && won * 10 >= pairs.len() * 9
        && (mb - ma).abs() > q3 - q1
    {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Run the comparison; `spec` is the parsed `BENCHMARK.json`.
pub fn run(dir_a: &Path, dir_b: &Path, spec: &Json) -> Result<(), String> {
    let metrics = declared(spec)?;
    let (a, stamps_a) = load(dir_a)?;
    let (b, stamps_b) = load(dir_b)?;
    let mut hosts = stamps_a.clone();
    hosts.extend(stamps_b.iter().filter(|s| !stamps_a.contains(s)).cloned());
    if hosts.len() > 1 {
        println!("warning: results come from different hosts or builds:");
        for h in &hosts {
            println!("  {h}");
        }
    }
    println!(
        "{:<16} {:<18} {:>38} {:>38} {:>7} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "bound"
    );
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else {
            println!("{workload:<16} only in {}", dir_a.display());
            continue;
        };
        for m in &metrics {
            let values = |runs: &[Run]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.values.get(&m.name).copied())
                    .collect()
            };
            let (va, vb) = (values(runs_a), values(runs_b));
            if va.len() < 2 || vb.len() < 2 {
                println!(
                    "{workload:<16} {:<18} needs two or more runs per side (have {} and {})",
                    m.name,
                    va.len(),
                    vb.len()
                );
                continue;
            }
            let side = |v: &[f64]| {
                let (q1, q3) = stats::quartiles(v);
                format!(
                    "{} [{}, {}]",
                    digits4(stats::median(v)),
                    digits4(q1),
                    digits4(q3)
                )
            };
            let pairs = pairs(runs_a, runs_b, &m.name);
            println!(
                "{workload:<16} {:<18} {:>38} {:>38} {:>7} {:>6}  {:?}",
                m.name,
                side(&va),
                side(&vb),
                format!("{}/{}", wins(&pairs, m.lower_is_better), pairs.len()),
                format!("{:.0}%", m.bound * 100.0),
                verdict(&va, &vb, &pairs, m.lower_is_better, m.bound)
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        println!("{workload:<16} only in {}", dir_b.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn judge(a: &[f64], b: &[f64], lower_is_better: bool) -> Verdict {
        let pairs: Vec<(f64, f64)> = a.iter().copied().zip(b.iter().copied()).collect();
        verdict(a, b, &pairs, lower_is_better, 0.05)
    }

    #[test]
    fn verdicts_follow_bound_spread_and_pair_wins() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let same: Vec<f64> = base.iter().map(|v| v + 0.05).collect();
        assert_eq!(judge(&base, &same, true), Verdict::WithinBound);
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(judge(&base, &slower, true), Verdict::Worse);
        let faster: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        assert_eq!(judge(&base, &faster, true), Verdict::Improved);
        // Higher is better: the same numbers read the other way round.
        assert_eq!(judge(&base, &faster, false), Verdict::Worse);
        let noisy = [50.0, 150.0, 80.0, 120.0, 100.0];
        assert_eq!(judge(&base, &noisy, true), Verdict::Unresolved);
        // Without same-seed pairs there are no pair wins to call it.
        assert_eq!(
            verdict(&base, &faster, &[], true, 0.05),
            Verdict::WithinBound
        );
    }

    fn run(seed: u64, unix_ms: u64, value: f64) -> Run {
        Run {
            seed,
            unix_ms,
            values: BTreeMap::from([("m".to_string(), value)]),
        }
    }

    #[test]
    fn pairs_match_runs_by_seed() {
        // Seeds 2 and 10 (which sort the other way round as text), a
        // second run of seed 2, and seeds only one side has.
        let a = [
            run(2, 1, 1.0),
            run(2, 5, 2.0),
            run(10, 3, 3.0),
            run(7, 4, 9.0),
        ];
        let b = [run(10, 8, 30.0), run(2, 6, 10.0), run(3, 7, 99.0)];
        let mut got = pairs(&a, &b, "m");
        got.sort_by(|x, y| x.0.total_cmp(&y.0));
        assert_eq!(got, [(1.0, 10.0), (3.0, 30.0)]);
        assert_eq!(wins(&got, false), 2);
        assert_eq!(wins(&got, true), 0);
    }
}
