//! End-to-end tests of the `patternlets` CLI binary — the actual classroom
//! interface.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_patternlets"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn list_prints_the_census_line() {
    let (stdout, _, ok) = run(&["list"]);
    assert!(ok);
    assert!(stdout.contains(
        "53 patternlets: 16 MPI, 17 OpenMP, 9 threads, 2 heterogeneous, 4 resilience, 5 stream"
    ));
    assert!(stdout.contains("omp/barrier"));
    assert!(stdout.contains("mpi/gather"));
    assert!(stdout.contains("resilience/master_worker"));
    assert!(stdout.contains("stream/farm"));
}

#[test]
fn list_filters_by_technology() {
    let (stdout, _, ok) = run(&["list", "--tech", "mpi"]);
    assert!(ok);
    assert!(stdout.contains("mpi/spmd"));
    assert!(!stdout.contains("omp/spmd\n") && !stdout.contains("omp/spmd "));
}

#[test]
fn show_prints_the_exercise() {
    let (stdout, _, ok) = run(&["show", "omp/reduction"]);
    assert!(ok);
    assert!(stdout.contains("exercise:"));
    assert!(stdout.contains("Fig. 21"));
    assert!(stdout.contains("Reduction"));
}

#[test]
fn run_executes_a_patternlet_in_both_modes() {
    let (off, _, ok) = run(&["run", "omp/spmd", "-n", "3"]);
    assert!(ok);
    assert!(off.contains("Hello from thread 0 of 1"), "{off}");
    let (on, _, ok) = run(&["run", "omp/spmd", "-n", "3", "--on"]);
    assert!(ok);
    for i in 0..3 {
        assert!(on.contains(&format!("Hello from thread {i} of 3")), "{on}");
    }
}

#[test]
fn run_mpi_patternlet_reports_nodes() {
    let (stdout, _, ok) = run(&["run", "mpi/spmd", "-n", "2", "--on"]);
    assert!(ok);
    assert!(stdout.contains("node-01"));
    assert!(stdout.contains("node-02"));
}

#[test]
fn run_resilience_patternlet_with_kill_flag() {
    // The ISSUE's demo command: the master survives worker 2's death.
    let (stdout, _, ok) = run(&["run", "resilience/master_worker", "-n", "4", "--kill", "2"]);
    assert!(ok);
    assert!(
        stdout.contains("3 of 4 ranks survive and confirm 12/12 results"),
        "{stdout}"
    );
}

#[test]
fn figures_lists_the_reproduction_index() {
    let (stdout, _, ok) = run(&["figures"]);
    assert!(ok);
    assert!(stdout.contains("Fig. 30"));
    assert!(stdout.contains("omp/critical2"));
}

#[test]
fn coverage_reports_both_catalogs() {
    let (stdout, _, ok) = run(&["coverage"]);
    assert!(ok);
    assert!(stdout.contains("OPL"));
    assert!(stdout.contains("UIUC"));
    assert!(stdout.contains("patterns covered"));
}

#[test]
fn unknown_patternlet_fails_with_guidance() {
    let (_, stderr, ok) = run(&["run", "omp/doesNotExist"]);
    assert!(!ok);
    assert!(stderr.contains("patternlets list"));
}

#[test]
fn no_arguments_prints_usage() {
    let (_, stderr, ok) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn counters_read_the_hub_and_need_no_trace() {
    // mpi/broadcast at np 4: np − 1 sends and receives, np bcast phases.
    let (stdout, _, ok) = run(&["run", "mpi/broadcast", "-n", "4", "--counters"]);
    assert!(ok);
    let all: Vec<&str> = stdout
        .lines()
        .find(|l| l.trim_start().starts_with("all "))
        .unwrap_or_else(|| panic!("no `all` row:\n{stdout}"))
        .split_whitespace()
        .collect();
    assert_eq!((all[1], all[2], all[5]), ("3", "3", "4"), "{stdout}");
    for rank in 0..4 {
        let row = format!("{rank:>4} ");
        assert!(stdout.lines().any(|l| l.starts_with(&row)), "{stdout}");
    }
    assert!(!stdout.contains("trace events"), "{stdout}");

    // With --trace too, the trace file is still written.
    let path = std::env::temp_dir().join(format!("counters-{}.json", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let (stdout, _, ok) = run(&[
        "run",
        "mpi/broadcast",
        "-n",
        "4",
        "--counters",
        "--trace",
        path_arg,
    ]);
    assert!(ok);
    assert!(stdout.contains("trace events"), "{stdout}");
    assert!(std::fs::read_to_string(&path)
        .unwrap()
        .contains("traceEvents"));
    let _ = std::fs::remove_file(&path);
}
