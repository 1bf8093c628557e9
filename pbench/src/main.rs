//! `pbench` — the repository's benchmark.
//!
//! ```text
//! pbench run --workload W --seed N --seconds S --trace 0|1
//! pbench compare DIR_A DIR_B
//! ```
//!
//! `run` measures one workload for `S` seconds with inputs made from seed
//! `N`, checks every output, prints a report, saves a result file under
//! `.pbench/results/`, and prints one JSON result line last: the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics (plus a
//! Chrome trace of the workload's calls under `.pbench/spans/`).
//! `compare` judges two directories of result files against the bounds in
//! `BENCHMARK.json`. `pbench rank` is the worker program the message
//! workloads start under `pmrun`, and `pbench stream-part` the child
//! process the stream workload runs its passes in. See README.md.

mod compare;
mod cpu;
mod gen;
mod jobs;
mod msg;
mod part;
mod probes;
mod procs;
mod reference;
mod report;
mod spans;
mod stats;
mod stream;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use patternlets_serve::json::Json;

use report::{Metric, Outcome, RunId};

/// The executables a run starts, all built into one target directory.
pub struct Bins {
    /// `pmrun`.
    pub pmrun: PathBuf,
    /// `pmserve`.
    pub pmserve: PathBuf,
    /// `patternlets`.
    pub patternlets: PathBuf,
    /// This program, the message workloads' rank program.
    pub pbench: PathBuf,
}

impl Bins {
    fn locate() -> Result<Bins, String> {
        let pbench = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
        let dir = pbench.parent().ok_or("own path has no directory")?;
        let sibling = |name: &str| {
            let path = dir.join(name);
            if path.is_file() {
                Ok(path)
            } else {
                Err(format!(
                    "{} not found: build the repository's binaries into the same target directory",
                    path.display()
                ))
            }
        };
        Ok(Bins {
            pmrun: sibling("pmrun")?,
            pmserve: sibling("pmserve")?,
            patternlets: sibling("patternlets")?,
            pbench,
        })
    }
}

/// Parsed `--name value` flags.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let v = self.get(name)?;
        v.parse()
            .map_err(|_| format!("--{name} {v:?} is not a valid number"))
    }

    fn trace(&self) -> Result<bool, String> {
        match self.get("trace")? {
            "0" => Ok(false),
            "1" => Ok(true),
            v => Err(format!("--trace {v:?} must be 0 or 1")),
        }
    }
}

const USAGE: &str = "usage:\n  \
    pbench run --workload W --seed N --seconds S --trace 0|1\n  \
    pbench compare DIR_A DIR_B\n";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..]).and_then(|f| run(&f)),
        Some("rank") => Flags::parse(&args[1..]).and_then(|f| {
            msg::rank_main(
                f.num("seed")?,
                Duration::from_secs_f64(f.num("seconds")?),
                f.trace()?,
                Path::new(f.get("report")?),
            )
            .map(|()| ExitCode::SUCCESS)
        }),
        Some("stream-part") => Flags::parse(&args[1..]).and_then(|f| {
            stream::part_main(
                f.num("seed")?,
                Duration::from_secs_f64(f.num("seconds")?),
                f.num("index")?,
                f.trace()?,
                Path::new(f.get("report")?),
            )
            .map(|()| ExitCode::SUCCESS)
        }),
        Some("compare") if args.len() == 3 => {
            let spec = std::fs::read_to_string("BENCHMARK.json")
                .map_err(|e| format!("BENCHMARK.json: {e}"))
                .and_then(|t| Json::parse(&t).ok_or_else(|| "BENCHMARK.json is not JSON".into()));
            spec.and_then(|spec| compare::run(Path::new(&args[1]), Path::new(&args[2]), &spec))
                .map(|()| ExitCode::SUCCESS)
        }
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|e| {
        procs::cleanup();
        eprintln!("pbench: {e}");
        ExitCode::from(2)
    })
}

/// Where runs keep their scratch space, results and span files.
const STATE_DIR: &str = ".pbench";

/// A run fails rather than hangs: it is killed this long after it starts.
/// It ends well inside the three minutes a run may take.
const HARD_LIMIT: Duration = Duration::from_secs(170);

/// What a run may spend beyond its timed seconds: set-ups, warm-ups,
/// launches, reference transcripts and, when traced, the probes. The
/// slowest workload needs about 10 s of it on the reference host.
const SLACK: Duration = Duration::from_secs(120);

fn run(flags: &Flags) -> Result<ExitCode, String> {
    let workload = flags.get("workload")?;
    let seed: u64 = flags.num("seed")?;
    let seconds: u64 = flags.num("seconds")?;
    let most = (HARD_LIMIT - SLACK).as_secs();
    if !(1..=most).contains(&seconds) {
        return Err(format!(
            "--seconds {seconds} is out of range: a run times 1 to {most} seconds"
        ));
    }
    let traced = flags.trace()?;
    let bins = Bins::locate()?;
    let state = Path::new(STATE_DIR);
    // Both set what every later thread and child inherits (the CPU, and
    // TMPDIR), so they run before any thread exists.
    let host = procs::pin_to_one_cpu().map_err(|e| format!("pinning to one CPU: {e}"))?;
    procs::make_scratch(state).map_err(|e| format!("scratch directory: {e}"))?;
    procs::guard(Duration::from_secs(seconds) + SLACK);

    println!(
        "pbench: workload {workload}, seed {seed}, {seconds}s timed, {}, on CPU {} of {}",
        if traced { "traced" } else { "untraced" },
        host.cpu,
        host.nproc
    );
    let run = Duration::from_secs(seconds);
    let outcome = match workload {
        "msg_inproc" => msg::inproc(seed, run, traced),
        "msg_shm" => msg::launched("shm", seed, run, traced, &bins),
        "msg_tcp" => msg::launched("tcp", seed, run, traced, &bins),
        "stream" => stream::run(seed, run, traced, &bins),
        "jobs" => jobs::run(seed, run, traced, &bins),
        other => return Err(format!("unknown workload {other:?}")),
    };
    let correct = outcome.correct();
    let e2e = outcome.e2e();
    report::print_table("end-to-end:", &e2e);
    report::print_table("breakdown:", &outcome.breakdown());
    let results = state.join("results");
    let id = RunId {
        workload,
        seed,
        seconds,
        traced,
    };
    let metrics = if traced {
        traced_report(&id, &outcome, &e2e, state)?
    } else {
        e2e
    };
    println!(
        "checked {} operations, {} failed",
        outcome.attempted, outcome.failed
    );
    for p in &outcome.problems {
        println!("  failure: {p}");
    }
    let path = report::save(
        &results,
        &id,
        &outcome,
        correct,
        &metrics,
        &procs::stamp(host),
    )
    .map_err(|e| format!("result file: {e}"))?;
    println!("result saved to {}", path.display());
    procs::cleanup();
    println!("{}", report::result_line(&outcome, correct, &metrics));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The traced run's extras: span summary and file, the per-layer probes,
/// and the tracing overhead against the latest untraced run of the same
/// workload and seed. Returns the per-layer metrics.
fn traced_report(
    id: &RunId,
    outcome: &Outcome,
    e2e: &[Metric],
    state: &Path,
) -> Result<Vec<Metric>, String> {
    let spans_dir = state.join("spans");
    std::fs::create_dir_all(&spans_dir).map_err(|e| format!("spans directory: {e}"))?;
    let spans_path = spans_dir.join(format!("{}-s{}.json", id.workload, id.seed));
    std::fs::write(&spans_path, outcome.spans.to_chrome_json())
        .map_err(|e| format!("spans file: {e}"))?;
    println!(
        "spans ({} kept in memory, written to {}):",
        outcome.spans.len(),
        spans_path.display()
    );
    for (name, (n, p50)) in outcome.spans.summary() {
        println!("  {name:<34} p50 {:>12.0} ns  n={n}", p50);
    }
    match latest_untraced(&state.join("results"), id) {
        Some(untraced) => {
            println!("tracing overhead (traced minus untraced, same workload and seed):");
            for m in e2e {
                if let Some(base) = untraced.get(&m.name) {
                    println!(
                        "  {:<34} {:>+14.4} {} ({:+.1}%)",
                        m.name,
                        m.value - base,
                        m.unit,
                        (m.value - base) / base * 100.0
                    );
                }
            }
        }
        None => println!("tracing overhead: no untraced run of this workload and seed yet"),
    }
    let layers = probes::all();
    report::print_table("per-layer probes:", &layers);
    Ok(layers)
}

/// End-to-end values of the newest untraced result for `id`'s workload
/// and seed.
fn latest_untraced(dir: &Path, id: &RunId) -> Option<std::collections::BTreeMap<String, f64>> {
    let prefix = format!("{}-s{}-t0-", id.workload, id.seed);
    let newest = std::fs::read_dir(dir)
        .ok()?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .max()?;
    let doc = Json::parse(std::fs::read_to_string(newest).ok()?.trim())?;
    Some(compare::metric_values(doc.get("metrics")?))
}
