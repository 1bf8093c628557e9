//! The contract between `pbench` and `BENCHMARK.json`: each declared
//! workload runs clean on a short run, every metric a run prints is
//! declared with the same unit (end-to-end ones with a direction and a
//! bound), every declared metric is printed, and names are well formed.
//!
//! Run with `cargo test --release --manifest-path pbench/Cargo.toml`; the
//! test builds the repository's `pmrun`, `pmserve` and `patternlets` into
//! the same target directory first, because `pbench` starts them from
//! there.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use patternlets_serve::json::Json;

const PBENCH: &str = env!("CARGO_BIN_EXE_pbench");

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("BENCHMARK.json {key} is not a list: {other:?}"),
    }
}

fn str_of<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{item:?} has no string {key}"))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Declared metrics of one kind: name → unit.
fn declared(doc: &Json, key: &str) -> BTreeMap<String, String> {
    list(doc, key)
        .iter()
        .map(|m| {
            let name = str_of(m, "name");
            assert!(well_formed(name), "metric name {name:?} is malformed");
            assert!(!str_of(m, "unit").is_empty(), "{name} has no unit");
            assert!(
                matches!(str_of(m, "better"), "lower" | "higher"),
                "{name} has no direction"
            );
            (name.to_string(), str_of(m, "unit").to_string())
        })
        .collect()
}

/// Build the repository's binaries next to `pbench`.
fn build_siblings() {
    let bin_dir = Path::new(PBENCH).parent().expect("pbench has a directory");
    let target = bin_dir.parent().expect("profile directory has a parent");
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args([
        "build",
        "--offline",
        "-p",
        "patternlets",
        "-p",
        "patternlets-serve",
        "--bins",
    ])
    .arg("--manifest-path")
    .arg(Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml"))
    .arg("--target-dir")
    .arg(target);
    if bin_dir.ends_with("release") {
        cmd.arg("--release");
    }
    assert!(
        cmd.status().expect("cargo runs").success(),
        "building the repository's binaries failed"
    );
}

/// Run one workload briefly and return its result line.
fn run(dir: &Path, workload: &str, trace: &str) -> Json {
    let out = Command::new(PBENCH)
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .current_dir(dir)
        .output()
        .expect("pbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("pbench printed a result");
    Json::parse(last).unwrap_or_else(|| panic!("last line is not JSON: {last}"))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let doc = spec();
    let e2e = declared(&doc, "end_to_end");
    let layers = declared(&doc, "per_layer");
    assert!(e2e.contains_key("setup_s"), "setup_s is declared");
    for m in list(&doc, "end_to_end") {
        let bound = match m.get("bound") {
            Some(Json::Num(b)) => *b,
            other => panic!("{m:?} has no numeric bound: {other:?}"),
        };
        assert!(bound > 0.0 && bound <= 0.25, "{m:?} bound out of range");
    }
    build_siblings();
    let dir: PathBuf = Path::new(PBENCH).with_file_name("pbench-contract");
    std::fs::create_dir_all(&dir).expect("run directory");
    for w in list(&doc, "workloads") {
        let workload = str_of(w, "name");
        assert!(
            well_formed(workload),
            "workload name {workload:?} is malformed"
        );
        for (trace, want) in [("0", &e2e), ("1", &layers)] {
            let result = run(&dir, workload, trace);
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{workload}: no operation fails on the seed"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{workload}: no metrics object");
            };
            let got: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = match m.get("value") {
                        Some(Json::Num(v)) => *v,
                        other => panic!("{workload} {name}: value {other:?}"),
                    };
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    if trace == "0" {
                        assert!(value > 0.0, "{workload} {name} reads 0");
                    }
                    (name.clone(), str_of(m, "unit").to_string())
                })
                .collect();
            assert_eq!(&got, want, "{workload} trace {trace}: emitted vs declared");
        }
    }
}
