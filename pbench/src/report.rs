//! What one run measured, the end-to-end metrics derived from it, and the
//! result line and result file it is reported as.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use patternlets_serve::json::escape;

use crate::part::{Part, Sample};
use crate::spans::Spans;
use crate::stats;

/// The end-to-end metrics every workload reports, with their units. Each
/// workload maps its own closed-loop operation and unit of work onto them
/// (see README.md). Every one is read at the reference speed (see
/// `reference`). The breakdown keeps the times as measured, with the
/// highest supported tail.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p75_us", "us"),
    ("throughput_per_s", "1/s"),
];

/// A reported number with its unit and the samples it rests on.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample count behind the value (0 when it is not a statistic).
    pub n: usize,
}

impl Metric {
    /// A metric of `n` samples.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// Everything one workload run measured and checked.
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations that failed or produced wrong output.
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
    /// Duration of each set-up at the reference speed, in seconds ...
    pub setups_s: Vec<f64>,
    /// ... and as measured.
    pub raw_setups_s: Vec<f64>,
    /// Latency of each timed closed-loop operation at the reference
    /// speed in ns, by class: the input property the workload varies
    /// (message size, graph, world size) ...
    pub ops_ns: BTreeMap<String, Vec<f64>>,
    /// ... and as measured.
    pub raw_ops_ns: BTreeMap<String, Vec<f64>>,
    /// By class of operation that does work: the units of work one
    /// operation does (messages, items, jobs), and the time each took at
    /// the reference speed, in ns.
    pub work: BTreeMap<String, (f64, Vec<f64>)>,
    /// Every reference time taken, in ns, by kind.
    pub references_ns: BTreeMap<String, Vec<f64>>,
    /// Workload-specific breakdown rows for the report and result file.
    pub details: Vec<Metric>,
    /// Spans of the calls the workload made (traced runs only).
    pub spans: Spans,
}

impl Outcome {
    /// An empty outcome; spans are kept when `traced`.
    pub fn new(traced: bool) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setups_s: Vec::new(),
            raw_setups_s: Vec::new(),
            ops_ns: BTreeMap::new(),
            raw_ops_ns: BTreeMap::new(),
            work: BTreeMap::new(),
            references_ns: BTreeMap::new(),
            details: Vec::new(),
            spans: Spans::new(traced, 0),
        }
    }

    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failure that was already counted as attempted, or that
    /// stopped the workload before it could attempt more.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    /// Add breakdown rows for `samples_ns` (see [`latency_rows`]).
    pub fn detail_latency(&mut self, name: &str, samples_ns: &[f64], unit: &'static str) {
        self.details.extend(latency_rows(name, samples_ns, unit));
    }

    /// Fold in the checks, failures, reference times and spans of a
    /// part; its samples are the caller's to file.
    pub fn absorb_checks(&mut self, part: &mut Part) {
        self.attempted += part.checked;
        for f in part.failures.drain(..) {
            self.fail(f);
        }
        self.reference_times(part.references.drain(..));
        self.spans
            .absorb(std::mem::replace(&mut part.spans, Spans::new(false, 0)));
    }

    /// Record one set-up.
    pub fn setup(&mut self, s: &Sample) {
        self.raw_setups_s.push(s.raw_ns as f64 / 1e9);
        self.setups_s.push(s.ns / 1e9);
    }

    /// Record reference times, each with its kind.
    pub fn reference_times(&mut self, times: impl IntoIterator<Item = (&'static str, f64)>) {
        for (kind, ns) in times {
            self.references_ns
                .entry(kind.to_string())
                .or_default()
                .push(ns);
        }
    }

    /// Record one timed operation as a sample of its latency class.
    pub fn op(&mut self, s: &Sample) {
        self.ops_ns
            .entry(s.name.to_string())
            .or_default()
            .push(s.ns);
        self.raw_ops_ns
            .entry(s.name.to_string())
            .or_default()
            .push(s.raw_ns as f64);
    }

    /// Record one timed operation as `units` of work of its class.
    pub fn work(&mut self, s: &Sample, units: f64) {
        self.work
            .entry(s.name.to_string())
            .or_insert_with(|| (units, Vec::new()))
            .1
            .push(s.ns);
    }

    /// Whether every check passed and there was something to measure.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && !self.ops_ns.is_empty() && !self.work.is_empty()
    }

    /// Operation latency at `p` of `ops_ns`, in µs: the geometric mean
    /// over classes of each class's percentile. Every class weighs the
    /// same whatever its scale, so halving one class's latency moves the
    /// metric by the same share on every workload, and no percentile ever
    /// falls on the seam between two classes.
    fn op_us(ops_ns: &BTreeMap<String, Vec<f64>>, p: f64) -> f64 {
        if ops_ns.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = ops_ns
            .values()
            .map(|v| {
                let mut sorted = v.clone();
                sorted.sort_by(f64::total_cmp);
                (stats::percentile(&sorted, p) / 1e3).ln()
            })
            .sum();
        (log_sum / ops_ns.len() as f64).exp()
    }

    /// Work per second: per class of work, the units one operation does
    /// over the interquartile mean of its time, which neither the fastest
    /// nor the slowest quarter moves (an operation the hypervisor paused
    /// for milliseconds counts as one slow operation, not as milliseconds
    /// of lost work); then the geometric mean over classes.
    fn rate(&self) -> f64 {
        if self.work.is_empty() {
            return 0.0;
        }
        let log_sum: f64 = self
            .work
            .values()
            .map(|(units, ns)| (units / stats::interquartile_mean(ns) * 1e9).ln())
            .sum();
        (log_sum / self.work.len() as f64).exp()
    }

    /// The breakdown, as measured: per operation class its median and
    /// highest supported tail, the median set-up and reference times, then
    /// the workload's own rows.
    pub fn breakdown(&self) -> Vec<Metric> {
        let mut rows: Vec<Metric> = self
            .raw_ops_ns
            .iter()
            .flat_map(|(class, v)| latency_rows(class, v, "us"))
            .collect();
        if !self.raw_setups_s.is_empty() {
            rows.push(Metric::new(
                "setup_measured_s",
                stats::median(&self.raw_setups_s),
                "s",
                self.raw_setups_s.len(),
            ));
        }
        for (kind, ns) in &self.references_ns {
            rows.extend(latency_rows(&format!("reference_{kind}"), ns, "us"));
        }
        rows.extend(self.details.iter().cloned());
        rows
    }

    /// The end-to-end metrics of [`E2E`], in that order.
    pub fn e2e(&self) -> Vec<Metric> {
        let setup = if self.setups_s.is_empty() {
            0.0
        } else {
            stats::median(&self.setups_s)
        };
        let ops: usize = self.ops_ns.values().map(Vec::len).sum();
        let work_ops: usize = self.work.values().map(|(_, ns)| ns.len()).sum();
        let values = [
            setup,
            Self::op_us(&self.ops_ns, 50.0),
            Self::op_us(&self.ops_ns, 75.0),
            self.rate(),
        ];
        let counts = [self.setups_s.len(), ops, ops, work_ops];
        E2E.iter()
            .zip(values.iter().zip(counts))
            .map(|(&(name, unit), (&v, n))| Metric::new(name, v, unit, n))
            .collect()
    }
}

/// The median and the highest supported tail of `samples_ns`, scaled to
/// `unit` (`us` or `ms`), each with its sample count.
pub fn latency_rows(name: &str, samples_ns: &[f64], unit: &'static str) -> Vec<Metric> {
    if samples_ns.is_empty() {
        return Vec::new();
    }
    let scale = if unit == "ms" { 1e6 } else { 1e3 };
    let mut sorted = samples_ns.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let mut rows = vec![Metric::new(
        format!("{name}_p50_{unit}"),
        stats::percentile(&sorted, 50.0) / scale,
        unit,
        n,
    )];
    if let Some(p) = stats::tail_percentile(n) {
        rows.push(Metric::new(
            format!("{name}_p{p}_{unit}"),
            stats::percentile(&sorted, p) / scale,
            unit,
            n,
        ));
    }
    rows
}

/// The `"metrics"` object of a result line.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite number in JSON, every digit kept.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The machine-readable last line of a run.
pub fn result_line(outcome: &Outcome, correct: bool, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics)
    )
}

/// Identity of one run, for its result file.
pub struct RunId<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
}

/// Write the run's result file under `dir` and return its path. The file
/// holds the result line's fields plus the host stamp and the breakdown
/// rows; `pbench compare` reads it back.
pub fn save(
    dir: &Path,
    id: &RunId,
    outcome: &Outcome,
    correct: bool,
    metrics: &[Metric],
    stamp: &str,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    let path = dir.join(format!(
        "{}-s{}-t{}-{unix_ms}-{}.json",
        id.workload,
        id.seed,
        u8::from(id.traced),
        std::process::id()
    ));
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"unix_ms\": {unix_ms}, \
         \"stamp\": {stamp}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \
         \"details\": {}, \"problems\": [{}]}}\n",
        id.workload,
        id.seed,
        id.seconds,
        u8::from(id.traced),
        outcome.attempted,
        outcome.failed,
        metrics_json(metrics),
        metrics_json(&outcome.breakdown()),
        outcome
            .problems
            .iter()
            .map(|p| format!("\"{}\"", escape(p)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// Print `metrics` as an aligned table with units and sample counts.
pub fn print_table(title: &str, metrics: &[Metric]) {
    if metrics.is_empty() {
        return;
    }
    println!("{title}");
    for m in metrics {
        let n = if m.n > 0 {
            format!("n={}", m.n)
        } else {
            String::new()
        };
        println!(
            "  {:<34} {:>16} {:<6} {n}",
            m.name,
            digits4(m.value),
            m.unit
        );
    }
}

/// `v` to four significant digits, for reading: values run from
/// microseconds in seconds to millions per second.
pub fn digits4(v: f64) -> String {
    let magnitude = if v == 0.0 || !v.is_finite() {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (3 - magnitude).max(0) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_significant_digits_at_every_scale() {
        assert_eq!(digits4(0.000146044), "0.0001460");
        assert_eq!(digits4(0.11654), "0.1165");
        assert_eq!(digits4(9.2962), "9.296");
        assert_eq!(digits4(45028.69), "45029");
        assert_eq!(digits4(5263288.4), "5263288");
        assert_eq!(digits4(0.0), "0.000");
    }
}
