//! `BENCH_N.json`, the repository's benchmark record, summarised from
//! pbench result files. pbench (`bash pbench/run.sh`) times the workloads
//! and saves one file per run under `.pbench/results/`; this module reads
//! the runs of the newest commit, reduces each metric to its median and
//! quartiles over the runs, sets every row against the previous
//! `BENCH_N.json`, and counts the non-test lines of each crate. It times
//! nothing itself, and it gives no seed-paired verdict: that needs both
//! sides' runs and stays `pbench compare`'s job.
//!
//! A run's commit is the one checked out when pbench ran, so the runs of
//! an uncommitted tree carry its parent's commit and the filter cannot
//! tell them from the parent's own: clear `.pbench/results/` first.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use patternlets_serve::json::{escape, Json};

/// Where pbench saves its result files, from the repository root.
const RESULTS_DIR: &str = ".pbench/results";

/// The fields of one pbench result file that a summary reads.
#[derive(Debug)]
struct Run {
    workload: String,
    seed: u64,
    /// 1 for a traced run, whose metrics are the per-layer probes.
    trace: u64,
    unix_ms: u64,
    /// `stamp.commit`: the commit the run measured.
    commit: String,
    /// Whether pbench checked every operation's output as right.
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn num(doc: &Json, key: &str) -> Option<f64> {
    match doc.get(key) {
        Some(Json::Num(v)) if v.is_finite() => Some(*v),
        _ => None,
    }
}

/// Every `*.json` result file under `dir`. A file that is not a complete
/// result is an error that names it.
fn load_runs(dir: &Path) -> Result<Vec<Run>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| Some(e.ok()?.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let parse = |doc: &Json| {
        let int = |key| doc.get(key)?.as_u64();
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return None;
        };
        Some(Run {
            workload: doc.get("workload")?.as_str()?.into(),
            seed: int("seed")?,
            trace: int("trace")?,
            unix_ms: int("unix_ms")?,
            commit: doc.get("stamp")?.get("commit")?.as_str()?.into(),
            correct: doc.get("correct")?.as_bool()?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            metrics: metrics
                .iter()
                .map(|(k, m)| Some((k.clone(), num(m, "value")?)))
                .collect::<Option<_>>()?,
        })
    };
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        let run = Json::parse(text.trim()).as_ref().and_then(parse);
        run.ok_or_else(|| format!("{}: not a pbench result file", p.display()))
    };
    paths.iter().map(load).collect()
}

/// The runs that share the newest run's commit, and how many others
/// were skipped.
fn newest_commit(mut runs: Vec<Run>) -> (Vec<Run>, usize) {
    let total = runs.len();
    let newest = runs
        .iter()
        .max_by_key(|r| r.unix_ms)
        .map(|r| r.commit.clone());
    runs.retain(|r| Some(&r.commit) == newest.as_ref());
    let skipped = total - runs.len();
    (runs, skipped)
}

/// Median (mean of the middle pair for an even count). A copy of pbench's
/// `stats::median`, which ships in no library.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. A copy of pbench's
/// `stats::quartiles`. Needs two or more values.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// (workload, trace, metric) → (median, p75 − p25) of a previous record;
/// no spread for a row of one run, whose quartiles are its value.
type Previous = BTreeMap<(String, u64, String), (f64, Option<f64>)>;

/// The rows of `text`, the previous record `name`. A record from before
/// this format (BENCH_9 and older) has no `rows` and gives none, and a row
/// without a median (no correct run) gives none either.
fn previous_rows(name: &str, text: &str) -> Result<Previous, String> {
    let doc = Json::parse(text.trim()).ok_or_else(|| format!("{name}: not JSON"))?;
    let Some(Json::Arr(rows)) = doc.get("rows") else {
        return Ok(Previous::new());
    };
    let row = |r: &Json| {
        let text = |key| r.get(key)?.as_str().map(String::from);
        let key = (
            text("workload")?,
            r.get("trace")?.as_u64()?,
            text("metric")?,
        );
        if r.get("median")? == &Json::Null {
            return Some(None);
        }
        let spread = num(r, "p75")? - num(r, "p25")?;
        let spread = (r.get("runs")?.as_u64()? >= 2).then_some(spread);
        Some(Some((key, (num(r, "median")?, spread))))
    };
    let malformed = |r| format!("{name}: malformed row {r:?}");
    rows.iter()
        .filter_map(|r| row(r).ok_or_else(|| malformed(r)).transpose())
        .collect()
}

fn or_null<T: std::fmt::Display>(v: Option<T>) -> String {
    v.map_or("null".into(), |v| v.to_string())
}

/// One JSON row per (workload, trace, metric) found in `runs`: median and
/// quartiles (both the value itself for a single run), runs and seeds
/// over the correct runs, as `pbench compare` counts them, and the totals
/// of attempted and failed operations over every run. Without a correct
/// run the statistics are null. `delta_pct` is the median's change
/// against the same row of `previous`, and `within_spread` says whether
/// it moved by no more than that row's p75 − p25; both are null without
/// such a row, and `within_spread` also when that row had one run.
fn rows(runs: &[Run], previous: &Previous) -> Vec<String> {
    let mut groups = BTreeMap::<_, Vec<(&Run, f64)>>::new();
    for run in runs {
        for (metric, value) in &run.metrics {
            let key = (run.workload.as_str(), run.trace, metric.as_str());
            groups.entry(key).or_default().push((run, *value));
        }
    }
    let mut rows = Vec::new();
    for ((workload, trace, metric), mut group) in groups {
        let attempted: u64 = group.iter().map(|g| g.0.attempted).sum();
        let failed: u64 = group.iter().map(|g| g.0.failed).sum();
        group.retain(|g| g.0.correct);
        let values: Vec<f64> = group.iter().map(|g| g.1).collect();
        let runs = values.len();
        // [median, p25, p75], or none without a correct run.
        let stats = (runs > 0).then(|| match runs {
            1 => [values[0]; 3],
            _ => {
                let (p25, p75) = quartiles(&values);
                [median(&values), p25, p75]
            }
        });
        let mut seeds: Vec<u64> = group.iter().map(|g| g.0.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        let before = previous.get(&(workload.into(), trace, metric.into()));
        let pair = before.zip(stats.map(|s| s[0]));
        let delta = pair.filter(|(b, _)| b.0 != 0.0);
        let delta = or_null(delta.map(|(b, m)| (m - b.0) / b.0.abs() * 100.0));
        let within = or_null(pair.and_then(|(b, m)| Some((m - b.0).abs() <= b.1?)));
        let [median, p25, p75] = stats.map_or([None; 3], |s| s.map(Some)).map(or_null);
        let (workload, metric) = (escape(workload), escape(metric));
        rows.push(format!(
            "    {{\"workload\": \"{workload}\", \"trace\": {trace}, \"metric\": \"{metric}\", \
             \"median\": {median}, \"p25\": {p25}, \"p75\": {p75}, \"runs\": {runs}, \
             \"seeds\": {seeds:?}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"delta_pct\": {delta}, \"within_spread\": {within}}}"
        ));
    }
    rows
}

/// Lines of a source file before its first `#[cfg(test)]`.
fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|l| !l.trim_start().starts_with("#[cfg(test)]"))
        .count()
}

fn src_lines(dir: &Path) -> std::io::Result<usize> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            total += src_lines(&path)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            total += non_test_lines(&std::fs::read_to_string(&path)?);
        }
    }
    Ok(total)
}

/// Non-test lines of each crate under `crates`, over `src/**/*.rs`.
fn lines_per_crate(crates: &Path) -> std::io::Result<BTreeMap<String, usize>> {
    let mut lines = BTreeMap::new();
    for entry in std::fs::read_dir(crates)? {
        let krate = entry?;
        let src = krate.path().join("src");
        if src.is_dir() {
            let name = krate.file_name().to_string_lossy().into_owned();
            lines.insert(name, src_lines(&src)?);
        }
    }
    Ok(lines)
}

fn bench_number(name: &str) -> Option<u64> {
    let n = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
    n.parse().ok()
}

/// Summarise the result files under `root` (the repository root) into
/// `out`, by default the next free `BENCH_N.json` there. Returns what to
/// print.
pub fn write(root: &Path, out: Option<PathBuf>) -> Result<String, String> {
    let (runs, skipped) = newest_commit(load_runs(&root.join(RESULTS_DIR))?);
    if runs.is_empty() {
        return Err(format!(
            "no result files in {RESULTS_DIR}: run `bash pbench/run.sh` first"
        ));
    }
    let commit = escape(&runs[0].commit);
    let entries = std::fs::read_dir(root).into_iter().flatten().flatten();
    let numbers: Vec<u64> = entries
        .filter_map(|e| bench_number(e.file_name().to_str()?))
        .collect();
    let next = numbers.iter().max().map_or(1, |n| n + 1);
    let out = out.unwrap_or_else(|| root.join(format!("BENCH_{next}.json")));
    // The newest earlier record: below `out`'s own number when it has one.
    let out_name = out.file_name().unwrap_or_default().to_string_lossy();
    let below = bench_number(&out_name).unwrap_or(u64::MAX);
    let previous = numbers.into_iter().filter(|n| *n < below).max();
    let previous = previous.map(|n| format!("BENCH_{n}.json"));
    let mut before = Previous::new();
    if let Some(name) = &previous {
        let text = std::fs::read_to_string(root.join(name)).map_err(|e| format!("{name}: {e}"))?;
        before = previous_rows(name, &text)?;
    }
    let rows = rows(&runs, &before);
    let lines = lines_per_crate(&root.join("crates")).map_err(|e| format!("crates: {e}"))?;
    let lines: Vec<String> = lines.iter().map(|(k, n)| format!("\"{k}\": {n}")).collect();
    let bench = escape(out_name.trim_end_matches(".json"));
    let against = or_null(previous.as_ref().map(|p| format!("\"{p}\"")));
    let (n_rows, rows, lines) = (rows.len(), rows.join(",\n"), lines.join(", "));
    let doc = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"source\": \"pbench result files \
         ({RESULTS_DIR}), stamped with the checked-out commit: the runs of an uncommitted \
         tree carry its parent's\",\n  \"commit\": \"{commit}\",\n  \"skipped\": {skipped},\n  \
         \"previous\": {against},\n  \
         \"rows\": [\n{rows}\n  ],\n  \"lines\": {{{lines}}}\n}}\n"
    );
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    let (against, n_runs) = (previous.unwrap_or("no earlier record".into()), runs.len());
    Ok(format!(
        "bench_smoke: {n_runs} result files at commit {commit}, {skipped} of other commits \
         skipped\nwrote {} ({n_rows} rows, deltas against {against})",
        out.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &str, seed: u64, unix_ms: u64, commit: &str, op_us: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": 1, \"trace\": 0, \
             \"unix_ms\": {unix_ms}, \"stamp\": {{\"nproc\": 2, \"commit\": \"{commit}\"}}, \
             \"correct\": true, \"attempted\": 100, \"failed\": 0, \
             \"metrics\": {{\"op_p50_us\": {{\"value\": {op_us}, \"unit\": \"us\"}}}}}}\n"
        )
    }

    fn run(workload: &str, seed: u64, unix_ms: u64, commit: &str, op_us: f64) -> Run {
        Run {
            workload: workload.into(),
            seed,
            trace: 0,
            unix_ms,
            commit: commit.into(),
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: BTreeMap::from([("op_p50_us".to_string(), op_us)]),
        }
    }

    /// A fresh, empty directory for one test.
    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("record-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn parse_rows(rows: &[String]) -> Vec<Json> {
        match Json::parse(&format!("[{}]", rows.join(","))) {
            Some(Json::Arr(rows)) => rows,
            other => panic!("rows are not a JSON array: {other:?}"),
        }
    }

    #[test]
    fn median_and_quartiles_match_pbench_stats() {
        // The values of pbench's own `stats` tests.
        let ascending: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ascending), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quartiles(&ascending), (2.75, 8.25));
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
    }

    #[test]
    fn only_the_newest_commits_runs_count() {
        let runs = vec![
            run("msg_shm", 1, 100, "old", 30.0),
            run("msg_shm", 1, 300, "new", 20.0),
            run("msg_shm", 2, 200, "new", 22.0),
            run("msg_shm", 3, 250, "old", 31.0),
        ];
        let (kept, skipped) = newest_commit(runs);
        assert_eq!(skipped, 2);
        assert!(kept.iter().all(|r| r.commit == "new"));
        let rows = parse_rows(&rows(&kept, &Previous::new()));
        assert_eq!(rows.len(), 1);
        assert_eq!(num(&rows[0], "median"), Some(21.0));
        assert_eq!(rows[0].get("runs").and_then(Json::as_u64), Some(2));
        assert_eq!(rows[0].get("attempted").and_then(Json::as_u64), Some(200));
        let seeds = rows[0].get("seeds");
        assert_eq!(
            seeds,
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]))
        );
    }

    #[test]
    fn an_incorrect_run_counts_in_the_totals_but_not_the_statistics() {
        let failed = Run {
            correct: false,
            failed: 3,
            ..run("msg_tcp", 3, 3, "c", 0.0)
        };
        let runs = [
            run("msg_tcp", 1, 1, "c", 50.0),
            run("msg_tcp", 2, 2, "c", 52.0),
            failed,
        ];
        let previous = previous_rows(
            "BENCH_10.json",
            "{\"rows\": [{\"workload\": \"msg_tcp\", \"trace\": 0, \
             \"metric\": \"op_p50_us\", \"median\": 51.0, \"p25\": 50.0, \"p75\": 52.0, \
             \"runs\": 2}]}",
        )
        .unwrap();
        let rows = parse_rows(&rows(&runs, &previous));
        assert_eq!(num(&rows[0], "median"), Some(51.0));
        assert_eq!(num(&rows[0], "p25"), Some(49.5));
        assert_eq!(num(&rows[0], "p75"), Some(52.5));
        assert_eq!(rows[0].get("runs").and_then(Json::as_u64), Some(2));
        let seeds = Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]);
        assert_eq!(rows[0].get("seeds"), Some(&seeds));
        assert_eq!(rows[0].get("attempted").and_then(Json::as_u64), Some(300));
        assert_eq!(rows[0].get("failed").and_then(Json::as_u64), Some(3));
        assert_eq!(num(&rows[0], "delta_pct"), Some(0.0));
        // With no correct run the statistics are null, and the next
        // record takes no delta from that row.
        let only = [Run {
            correct: false,
            ..run("msg_tcp", 1, 1, "c", 0.0)
        }];
        let written = super::rows(&only, &previous);
        let parsed = parse_rows(&written);
        for key in ["median", "p25", "p75", "delta_pct", "within_spread"] {
            assert_eq!(parsed[0].get(key), Some(&Json::Null), "{key}");
        }
        assert_eq!(parsed[0].get("attempted").and_then(Json::as_u64), Some(100));
        let next = format!("{{\"rows\": [{}]}}", written[0]);
        assert!(previous_rows("BENCH_11.json", &next).unwrap().is_empty());
    }

    #[test]
    fn a_truncated_or_malformed_result_file_is_an_error_naming_it() {
        let dir = fresh_dir("malformed");
        let good = result("stream", 1, 100, "c", 5.0);
        std::fs::write(dir.join("good.json"), &good).unwrap();
        std::fs::write(dir.join("cut.json"), &good[..good.len() / 2]).unwrap();
        let err = load_runs(&dir).unwrap_err();
        assert!(err.contains("cut.json"), "{err}");
        std::fs::remove_file(dir.join("cut.json")).unwrap();
        let no_commit = good.replace("\"commit\"", "\"kommit\"");
        std::fs::write(dir.join("odd.json"), no_commit).unwrap();
        let err = load_runs(&dir).unwrap_err();
        assert!(err.contains("odd.json"), "{err}");
        std::fs::remove_file(dir.join("odd.json")).unwrap();
        assert_eq!(load_runs(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deltas_and_spread_against_a_previous_record() {
        let before = "{\"rows\": [\
            {\"workload\": \"jobs\", \"trace\": 0, \"metric\": \"op_p50_us\", \
             \"median\": 20.0, \"p25\": 19.0, \"p75\": 21.0, \"runs\": 3},\
            {\"workload\": \"stream\", \"trace\": 0, \"metric\": \"op_p50_us\", \
             \"median\": 10.0, \"p25\": 9.5, \"p75\": 10.5, \"runs\": 3},\
            {\"workload\": \"msg_shm\", \"trace\": 1, \"metric\": \"op_p50_us\", \
             \"median\": 20.0, \"p25\": 20.0, \"p75\": 20.0, \"runs\": 1}]}";
        let previous = previous_rows("BENCH_10.json", before).unwrap();
        let runs = [
            run("jobs", 1, 1, "c", 21.5),
            run("stream", 1, 1, "c", 12.5),
            run("msg_tcp", 1, 1, "c", 50.0),
            Run {
                trace: 1,
                ..run("msg_shm", 1, 1, "c", 20.1)
            },
        ];
        let rows = parse_rows(&rows(&runs, &previous));
        let field = |w: &str, key: &str| {
            let row = rows
                .iter()
                .find(|r| r.get("workload").and_then(Json::as_str) == Some(w));
            row.and_then(|r| r.get(key)).cloned().unwrap()
        };
        // jobs moved 1.5 within a spread of 2; stream moved 2.5 beyond 1.
        assert_eq!(field("jobs", "delta_pct"), Json::Num(7.5));
        assert_eq!(field("jobs", "within_spread"), Json::Bool(true));
        assert_eq!(field("stream", "delta_pct"), Json::Num(25.0));
        assert_eq!(field("stream", "within_spread"), Json::Bool(false));
        // A one-run row has a delta but no spread to hold it against.
        let Json::Num(delta) = field("msg_shm", "delta_pct") else {
            panic!("no delta for the one-run row");
        };
        assert!((delta - 0.5).abs() < 1e-9, "{delta}");
        assert_eq!(field("msg_shm", "within_spread"), Json::Null);
        // A row the previous record lacks has no delta.
        assert_eq!(field("msg_tcp", "delta_pct"), Json::Null);
        assert_eq!(field("msg_tcp", "within_spread"), Json::Null);
        let broken = "{\"rows\": [{\"workload\": \"jobs\"}]}";
        let err = previous_rows("BENCH_10.json", broken).unwrap_err();
        assert!(err.contains("BENCH_10.json"), "{err}");
    }

    #[test]
    fn a_bench9_record_gives_null_deltas_and_no_error() {
        let bench9 = include_str!("../../../BENCH_9.json");
        let previous = previous_rows("BENCH_9.json", bench9).unwrap();
        assert!(previous.is_empty());
        let rows = parse_rows(&rows(&[run("msg_shm", 1, 1, "c", 20.0)], &previous));
        assert_eq!(rows[0].get("delta_pct"), Some(&Json::Null));
        assert_eq!(rows[0].get("within_spread"), Some(&Json::Null));
    }

    #[test]
    fn the_line_counter_stops_at_the_first_cfg_test() {
        let src =
            "fn a() {}\n\nfn b() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {}\n}\n";
        assert_eq!(non_test_lines(src), 3);
        assert_eq!(
            non_test_lines("fn a() {}\n    #[cfg(test)]\nfn b() {}\n"),
            1
        );
        assert_eq!(non_test_lines("fn a() {}\nfn b() {}"), 2);
    }

    #[test]
    fn the_written_record_parses_back_and_the_next_one_takes_deltas_from_it() {
        let root = fresh_dir("write");
        let results = root.join(RESULTS_DIR);
        std::fs::create_dir_all(&results).unwrap();
        std::fs::create_dir_all(root.join("crates/demo/src/nested")).unwrap();
        std::fs::write(
            root.join("crates/demo/src/lib.rs"),
            "a\nb\n#[cfg(test)]\nc\n",
        )
        .unwrap();
        std::fs::write(root.join("crates/demo/src/nested/m.rs"), "a\n").unwrap();
        std::fs::write(
            root.join("BENCH_9.json"),
            include_str!("../../../BENCH_9.json"),
        )
        .unwrap();
        for (seed, op_us) in [(1, 20.0), (2, 22.0), (3, 21.0)] {
            let file = results.join(format!("msg_shm-s{seed}.json"));
            std::fs::write(file, result("msg_shm", seed, seed, "head", op_us)).unwrap();
        }
        std::fs::write(
            results.join("old.json"),
            result("msg_shm", 9, 0, "base", 99.0),
        )
        .unwrap();
        let summary = write(&root, None).unwrap();
        assert!(summary.contains("1 of other commits skipped"), "{summary}");
        let text = std::fs::read_to_string(root.join("BENCH_10.json")).unwrap();
        let doc = Json::parse(text.trim()).expect("the record is JSON");
        assert_eq!(doc.get("bench").and_then(Json::as_str), Some("BENCH_10"));
        assert_eq!(doc.get("commit").and_then(Json::as_str), Some("head"));
        assert_eq!(doc.get("skipped").and_then(Json::as_u64), Some(1));
        assert_eq!(
            doc.get("previous").and_then(Json::as_str),
            Some("BENCH_9.json")
        );
        let demo = doc.get("lines").and_then(|l| l.get("demo"));
        assert_eq!(demo.and_then(Json::as_u64), Some(3));
        let Some(Json::Arr(rows)) = doc.get("rows") else {
            panic!("no rows in {text}");
        };
        assert_eq!(rows.len(), 1);
        assert_eq!(num(&rows[0], "median"), Some(21.0));
        assert_eq!(num(&rows[0], "p25"), Some(20.0));
        assert_eq!(num(&rows[0], "p75"), Some(22.0));
        assert_eq!(rows[0].get("delta_pct"), Some(&Json::Null));
        // The next record is BENCH_11, with deltas against BENCH_10; an
        // explicit path takes the newest record as its previous one.
        write(&root, None).unwrap();
        let ci = root.join("BENCH_ci.json");
        write(&root, Some(ci.clone())).unwrap();
        for (path, previous) in [
            (root.join("BENCH_11.json"), "BENCH_10.json"),
            (ci, "BENCH_11.json"),
        ] {
            let doc = Json::parse(std::fs::read_to_string(path).unwrap().trim()).unwrap();
            assert_eq!(doc.get("previous").and_then(Json::as_str), Some(previous));
            let Some(Json::Arr(rows)) = doc.get("rows") else {
                panic!("no rows");
            };
            assert_eq!(num(&rows[0], "delta_pct"), Some(0.0));
            assert_eq!(rows[0].get("within_spread"), Some(&Json::Bool(true)));
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
